//! `sg_lint` — the static-verification gate, as a CLI.
//!
//! Default mode lints and certifies every registry preset under each
//! transform variant (Base, CS, CS+DT): the pipeline linter's findings
//! are printed rustc-style, and every compiled schedule's occupancy
//! certificate must accept (the compile path bumps buffers to their
//! certified peaks, so a rejection is a verifier/compiler
//! disagreement). Exits nonzero when any Error-severity lint fires or
//! any certificate rejects — warnings are reported but do not gate.
//!
//! `--mc` instead prints the unified concurrency model checker's matrix
//! ([`streamgrid_bench::mc_matrix`]): every certified protocol in the
//! workspace, correct and seeded-sabotage variants, each under its
//! model's state budget. Exits nonzero when the matrix breaks a rule of
//! [`streamgrid_bench::mc_matrix::check`]: a FAIL or MISSED row, an
//! exploration outside its budget, or a missing model or row.

use std::process::ExitCode;
use std::time::Instant;

use streamgrid_bench::mc_matrix;
use streamgrid_core::registry::PipelineRegistry;
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_core::StreamGrid;
use streamgrid_verify::Severity;

/// Elements each chunk streams from the source (paper-scale points×3).
const CHUNK_ELEMENTS: u64 = 300;

/// Chunks the CS/CS+DT variants split each cloud into.
const N_CHUNKS: u32 = 4;

fn lint_presets() -> ExitCode {
    let variants: [(&str, StreamGridConfig); 3] = [
        ("base", StreamGridConfig::base()),
        ("cs", StreamGridConfig::cs(SplitConfig::linear(N_CHUNKS, 2))),
        (
            "cs_dt",
            StreamGridConfig::cs_dt(SplitConfig::linear(N_CHUNKS, 2)),
        ),
    ];
    let registry = PipelineRegistry::with_paper_apps();
    let elements = u64::from(N_CHUNKS) * CHUNK_ELEMENTS;

    println!(
        "{:<16} {:<8} {:>6} {:>6} {:<10} {:>12}",
        "pipeline", "config", "warn", "error", "cert", "certify (ms)"
    );
    let mut errors = 0u64;
    let mut warnings = 0u64;
    let mut rejected = 0u64;
    let mut findings: Vec<String> = Vec::new();
    for spec in registry.specs() {
        for (label, config) in &variants {
            let mut session = StreamGrid::new(*config).session(spec.clone());
            let compiled = match session.compiled(elements) {
                Ok(c) => c,
                Err(e) => {
                    println!("{:<16} {:<8} compile failed: {e}", spec.name(), label);
                    errors += 1;
                    continue;
                }
            };
            let t0 = Instant::now();
            let cert = compiled.certify();
            let certify_ms = t0.elapsed().as_secs_f64() * 1e3;
            let warn = compiled
                .lints
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .count() as u64;
            let err = compiled.lints.len() as u64 - warn;
            warnings += warn;
            errors += err;
            if !cert.accepted() {
                rejected += 1;
            }
            println!(
                "{:<16} {:<8} {:>6} {:>6} {:<10} {:>12.3}",
                spec.name(),
                label,
                warn,
                err,
                if cert.accepted() {
                    "ACCEPTED"
                } else {
                    "REJECTED"
                },
                certify_ms
            );
            findings.extend(
                compiled
                    .lints
                    .iter()
                    .map(|d| format!("{}/{label}: {}", spec.name(), d.render())),
            );
            if !cert.accepted() {
                findings.push(format!("{}/{label}: {}", spec.name(), cert.render()));
            }
        }
    }
    for f in &findings {
        println!("{f}");
    }
    println!("\n{warnings} warning(s), {errors} error(s), {rejected} rejected certificate(s)");
    if errors > 0 || rejected > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn check_mc_matrix() -> ExitCode {
    println!(
        "{:<22} {:<26} {:<12} {:>8} {:>6} {:>8} {:<8}",
        "model", "variant", "bounds", "states", "depth", "budget", "verdict"
    );
    let rows = mc_matrix::matrix();
    for row in &rows {
        println!(
            "{:<22} {:<26} {:<12} {:>8} {:>6} {:>8} {:<8}",
            row.report.model,
            row.variant,
            row.bounds,
            row.report.states_explored,
            row.report.max_depth,
            row.budget,
            row.verdict()
        );
        if let Some(v) = &row.report.violation {
            println!("  violation: {v}");
        } else if row.report.truncated {
            println!("  truncated: state budget exhausted before the space was explored");
        }
    }
    match mc_matrix::check(&rows) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("model-checker matrix rejected: {err}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--mc") {
        check_mc_matrix()
    } else {
        lint_presets()
    }
}
