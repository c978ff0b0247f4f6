//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --short
//! ```
//!
//! A run prints a readable table, then as its last line one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics untraced, the per-layer metrics traced. It exits
//! 1 when an output check fails. `--short` runs every workload, traced
//! and untraced, at a tiny size and checks the output's shape against
//! `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use streamgrid_optimizer::json::{self, JsonValue};
use streamgrid_perfbench::host::{pin_to_one_cpu, HostFacts};
use streamgrid_perfbench::metrics::{result_line, MetricDef, END_TO_END, PER_LAYER};
use streamgrid_perfbench::redrive::LAYERS;
use streamgrid_perfbench::trace::self_time_by_name;
use streamgrid_perfbench::{workloads, Outcome, RunConfig};

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | perfbench --short";

/// The benchmark's directory: outputs go under `out/` there.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s >= 0.0)
        .ok_or("--seconds takes a non-negative number")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok((
        workload,
        RunConfig {
            seed,
            seconds,
            trace,
            tiny: false,
        },
    ))
}

/// The metrics a run reports, in registry order, or the names of
/// end-to-end metrics the workload failed to measure.
fn reported(outcome: &Outcome, trace: bool) -> Result<Vec<(MetricDef, f64)>, Vec<&'static str>> {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let resolved = outcome.metrics.resolve(defs);
    let missing: Vec<&str> = resolved
        .iter()
        .filter(|(_, v)| !trace && v.is_none_or(|v| !v.is_finite() || v <= 0.0))
        .map(|(d, _)| d.name)
        .collect();
    if !missing.is_empty() {
        return Err(missing);
    }
    Ok(resolved
        .into_iter()
        .map(|(d, v)| (d, v.filter(|v| v.is_finite()).unwrap_or(0.0)))
        .collect())
}

fn print_table(outcome: &Outcome, metrics: &[(MetricDef, f64)]) {
    println!("{:<44} {:>16}  unit", "metric", "value");
    for (d, v) in metrics {
        println!("{:<44} {:>16.6}  {}", d.name, v, d.unit);
    }
    println!("-- the same figures under this workload's names, and context --");
    for (name, v, unit) in &outcome.notes {
        println!("{name:<44} {v:>16.6}  {unit}");
    }
    if let Some(tracer) = &outcome.tracer {
        let own = self_time_by_name(tracer.spans());
        let total: u64 = own.values().sum();
        println!("-- traced self time by layer --");
        for (layer, names) in LAYERS {
            let ns: u64 = names.iter().filter_map(|n| own.get(n)).sum();
            println!(
                "{layer:<44} {:>13.3} ms  {:>5.1} %",
                ns as f64 / 1e6,
                100.0 * ns as f64 / total.max(1) as f64
            );
        }
        println!(
            "{:<44} {:>13.3} ms",
            "sum of self times",
            total as f64 / 1e6
        );
    }
    println!("-- output checks --");
    for (name, n, failure) in outcome.checks.iter() {
        match failure {
            None => println!("ok    {name} ({n}x)"),
            Some(why) => println!("FAIL  {name}: {why}"),
        }
    }
}

fn write_outputs(
    workload: &str,
    config: &RunConfig,
    outcome: &Outcome,
    host: &HostFacts,
    line: &str,
) {
    let dir = bench_dir().join("out");
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {err}", dir.display());
        return;
    }
    let stem = format!(
        "{workload}-seed{}-trace{}",
        config.seed,
        u8::from(config.trace)
    );
    let record = format!("{{\"host\": {}, \"result\": {line}}}\n", host.to_json());
    if let Err(err) = std::fs::write(dir.join(format!("{stem}.json")), record) {
        eprintln!("cannot write the result record: {err}");
    }
    if let Some(tracer) = &outcome.tracer {
        if let Err(err) = std::fs::write(dir.join(format!("{stem}.spans.json")), tracer.to_json()) {
            eprintln!("cannot write the spans: {err}");
        }
    }
}

fn run_one(workload: &str, config: &RunConfig) -> ExitCode {
    let mut host = HostFacts::collect();
    host.pinned_cpu = pin_to_one_cpu();
    let Some(outcome) = workloads::run(workload, config) else {
        eprintln!("unknown workload {workload}; one of {:?}", workloads::NAMES);
        return ExitCode::FAILURE;
    };
    host.host_threads = outcome.host_threads;
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}",
        config.seed,
        config.seconds,
        u8::from(config.trace)
    );
    println!("host {}", host.to_json());
    let (metrics, mut correct) = match reported(&outcome, config.trace) {
        Ok(metrics) => (metrics, outcome.checks.all_passed()),
        Err(missing) => {
            println!("FAIL  end-to-end metrics not measured: {missing:?}");
            (Vec::new(), false)
        }
    };
    correct &= !metrics.is_empty();
    print_table(&outcome, &metrics);
    let line = result_line(
        correct,
        outcome.attempted.max(1),
        outcome.failures.total(),
        &metrics,
    );
    write_outputs(workload, config, &outcome, &host, &line);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(doc: &JsonValue, key: &str) -> Result<Vec<(String, String)>, String> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(JsonValue::as_str).map(str::to_owned);
            field("name")
                .zip(field("unit"))
                .ok_or(format!("an entry of {key} lacks a name or unit"))
        })
        .collect()
}

fn same_list(registry: &[MetricDef], listed: &[(String, String)]) -> bool {
    let mut a: Vec<(&str, &str)> = registry.iter().map(|d| (d.name, d.unit)).collect();
    let mut b: Vec<(&str, &str)> = listed
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .collect();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// The quick self-check: the registry matches `BENCHMARK.json`, and
/// every workload, traced and untraced, passes its output checks at a
/// tiny size and reports every metric with its unit.
fn short(manifest: &Path) -> ExitCode {
    let doc = match std::fs::read_to_string(manifest)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("cannot read {}: {err}", manifest.display());
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut expect = |what: &str, pass: bool| {
        println!("{}  {what}", if pass { "ok  " } else { "FAIL" });
        ok &= pass;
    };
    match (listed(&doc, "end_to_end"), listed(&doc, "per_layer")) {
        (Ok(e2e), Ok(layers)) => {
            expect(
                "end_to_end metrics match the registry",
                same_list(END_TO_END, &e2e),
            );
            expect(
                "per_layer metrics match the registry",
                same_list(PER_LAYER, &layers),
            );
        }
        (Err(err), _) | (_, Err(err)) => expect(&err, false),
    }
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
        .collect();
    expect("workloads match", names == workloads::NAMES);
    for &workload in workloads::NAMES {
        for trace in [false, true] {
            let config = RunConfig {
                seed: 1,
                seconds: 0.0,
                trace,
                tiny: true,
            };
            let outcome = workloads::run(workload, &config).expect("a registered workload");
            let shape = reported(&outcome, trace).is_ok_and(|m| {
                m.len()
                    == if trace {
                        PER_LAYER.len()
                    } else {
                        END_TO_END.len()
                    }
                    && m.iter().all(|(d, v)| !d.unit.is_empty() && v.is_finite())
            });
            let label = format!("{workload} trace {}", u8::from(trace));
            expect(&format!("{label}: every metric present with a unit"), shape);
            expect(
                &format!("{label}: output checks pass"),
                outcome.checks.all_passed(),
            );
            for (name, _, failure) in outcome.checks.iter() {
                if let Some(why) = failure {
                    println!("      {name}: {why}");
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--short") {
        pin_to_one_cpu();
        return short(&bench_dir().join("../BENCHMARK.json"));
    }
    match parse_args(&args) {
        Ok((workload, config)) => run_one(&workload, &config),
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
