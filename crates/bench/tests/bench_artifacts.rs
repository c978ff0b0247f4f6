//! The committed `BENCH_*.json` documents pass `report::validate` as they
//! stand, and tampered copies of them are rejected for the rule they
//! break.

use streamgrid_bench::report::validate;

const ENGINE: &str = include_str!("../../../BENCH_engine.json");
const STREAMING: &str = include_str!("../../../BENCH_streaming.json");
const SERVER: &str = include_str!("../../../BENCH_server.json");

/// `text` with `key`'s value replaced by `value` in the first record line
/// containing `marker`.
fn with_field(text: &str, marker: &str, key: &str, value: &str) -> String {
    let line = text
        .lines()
        .find(|l| l.contains(marker))
        .expect("a record line carries the marker");
    let start = line
        .find(&format!("\"{key}\": "))
        .expect("the record has the key")
        + key.len()
        + 4;
    let end = start + line[start..].find([',', '}']).expect("the value ends");
    let edited = format!("{}{value}{}", &line[..start], &line[end..]);
    text.replacen(line, &edited, 1)
}

/// Asserts `validate` rejects `text` with an error containing `reason`.
fn assert_rejected(text: &str, reason: &str) {
    match validate(text) {
        Ok(()) => panic!("a tampered document validated"),
        Err(err) => assert!(err.contains(reason), "rejected for {err:?}, not {reason:?}"),
    }
}

#[test]
fn committed_documents_validate() {
    for (name, text) in [
        ("BENCH_engine.json", ENGINE),
        ("BENCH_streaming.json", STREAMING),
        ("BENCH_server.json", SERVER),
    ] {
        if let Err(err) = validate(text) {
            panic!("{name}: {err}");
        }
    }
}

#[test]
fn a_missing_key_is_rejected() {
    let tampered = ENGINE.replacen(", \"wakes\": 0}", "}", 1);
    assert_rejected(&tampered, "record 0: missing key \"wakes\"");
}

#[test]
fn an_unknown_key_is_rejected() {
    let tampered = SERVER.replacen(
        "\"all_clean\": true}",
        "\"all_clean\": true, \"spare\": 0}",
        1,
    );
    assert_rejected(&tampered, "record 0: unknown key \"spare\"");
}

#[test]
fn a_sharded_row_off_its_oracle_is_rejected() {
    let tampered = with_field(ENGINE, "\"exec_mode\": \"Sharded(", "cycles", "1");
    assert_rejected(&tampered, "differs from its oracle row");
}

#[test]
fn a_warm_cache_row_that_solved_is_rejected() {
    let tampered = with_field(STREAMING, "\"file-warm\"", "solver_invocations", "1");
    assert_rejected(&tampered, "a file-warm row paid solves");
}

#[test]
fn a_sweep_missing_a_class_row_is_rejected() {
    let row = SERVER
        .lines()
        .find(|l| l.contains("\"qos\": \"standard\", \"sweep_tenants\": 16,"))
        .expect("the 16-tenant sweep has a standard row");
    let tampered = SERVER.replacen(&format!("{row}\n"), "", 1);
    assert_rejected(&tampered, "sweep 16: a class row is missing");
}

#[test]
fn unordered_percentiles_are_rejected() {
    let tampered = with_field(
        SERVER,
        "\"qos\": \"background\"",
        "p95_ms",
        "1000000.000000",
    );
    assert_rejected(&tampered, "latency percentiles out of order");
}
