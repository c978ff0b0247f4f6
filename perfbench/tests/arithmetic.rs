//! The benchmark's own arithmetic: percentiles and the tail rule, self
//! time, failure counting and cache hit/miss classification.

use streamgrid_core::apps::AppDomain;
use streamgrid_core::nearest_rank;
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_core::StreamGrid;
use streamgrid_perfbench::metrics::{json_number, result_line, END_TO_END, PER_LAYER};
use streamgrid_perfbench::stats::{
    median, rank, samples_beyond, tail_supported, Failures, Lookup, SplitMix,
};
use streamgrid_perfbench::trace::{self_time_by_name, self_times, Span, Tracer};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        id: 0,
    }
}

#[test]
fn nearest_rank_is_ceil_q_n_clamped() {
    assert_eq!(rank(100, 0.50), 50);
    assert_eq!(rank(100, 0.99), 99);
    assert_eq!(rank(100, 1.00), 100);
    assert_eq!(rank(100, 0.0), 1);
    assert_eq!(rank(3, 0.99), 3);
    assert_eq!(rank(1, 0.01), 1);
    assert_eq!(rank(0, 0.5), 0);
}

#[test]
fn rank_indexes_the_percentile_core_reports() {
    for n in 1..=300usize {
        let samples: Vec<u64> = (0..n as u64).rev().map(|i| 7 * i).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(
                nearest_rank(&samples, q),
                sorted[rank(n, q) - 1],
                "n {n} q {q}"
            );
        }
    }
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert!(tail_supported(1000, 0.99));
    assert_eq!(samples_beyond(999, 0.99), 9);
    assert!(!tail_supported(999, 0.99));
    assert_eq!(samples_beyond(1300, 0.99), 13);
    assert!(tail_supported(200, 0.95));
    assert!(!tail_supported(199, 0.95));
    assert_eq!(samples_beyond(0, 0.99), 0);
    assert!(!tail_supported(0, 0.5));
}

#[test]
fn median_of_round_figures() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn self_time_is_the_span_minus_its_children() {
    // root [0,100] ⊃ a [10,30], b [40,70] ⊃ g [50,60]
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("b", 40, 70, Some(0)),
        span("g", 50, 60, Some(2)),
    ];
    assert_eq!(self_times(&spans), [50, 20, 20, 10]);
    // Self times partition the root's wall time.
    assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
}

#[test]
fn overlapping_and_overhanging_children_count_once() {
    // Overlapping children cover their union: [10,60] = 50.
    let overlap = [
        span("root", 0, 100, None),
        span("c", 10, 50, Some(0)),
        span("c", 30, 60, Some(0)),
    ];
    assert_eq!(self_times(&overlap)[0], 50);
    // A child running past its parent counts only inside it.
    let overhang = [span("root", 0, 100, None), span("c", 90, 120, Some(0))];
    assert_eq!(self_times(&overhang)[0], 90);
}

#[test]
fn self_time_sums_per_name() {
    let mut tracer = Tracer::new();
    let root = tracer.record(span("round", 0, 100, None));
    tracer.record(span("pull", 0, 10, Some(root)));
    tracer.record(span("pull", 20, 25, Some(root)));
    tracer.record(span("execute", 30, 90, Some(root)));
    let own = self_time_by_name(tracer.spans());
    assert_eq!(own["pull"], 15);
    assert_eq!(own["execute"], 60);
    assert_eq!(own["round"], 25);
}

#[test]
fn tracer_nests_spans_under_the_innermost_open_one() {
    let mut tracer = Tracer::new();
    let root = tracer.enter("round", 0);
    let child = tracer.enter("pull", 0);
    tracer.exit(child);
    tracer.relabel(child, "pull", 7);
    let sibling = tracer.enter("execute", 7);
    tracer.exit(sibling);
    tracer.exit(root);
    let spans = tracer.spans();
    assert_eq!(spans[root].parent, None);
    assert_eq!(spans[child].parent, Some(root));
    assert_eq!(spans[child].id, 7);
    assert_eq!(spans[sibling].parent, Some(root));
    assert!(spans[root].start_ns <= spans[child].start_ns);
    assert!(spans[sibling].end_ns <= spans[root].end_ns);
    assert_eq!(
        self_times(spans).iter().sum::<u64>(),
        spans[root].duration_ns()
    );
}

#[test]
fn error_rate_counts_every_kind_of_failure_once() {
    let failures = Failures {
        non_clean: 1,
        compile_errors: 2,
        shed: 3,
        rejected: 4,
    };
    assert_eq!(failures.total(), 10);
    assert_eq!(failures.error_rate(100), 0.1);
    assert_eq!(Failures::default().error_rate(100), 0.0);
    assert_eq!(
        failures.error_rate(0),
        0.0,
        "nothing attempted, nothing failed"
    );
}

#[test]
fn lookups_classify_by_the_solver_delta() {
    assert_eq!(Lookup::classify(5, 5), Lookup::Hit);
    assert_eq!(Lookup::classify(5, 6), Lookup::Miss);

    // Against a real session: 1200 and 1197 share 300-element chunks.
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    let mut session = fw.session(AppDomain::Classification.spec());
    let kinds: Vec<Lookup> = [1200, 1200, 2400, 1197]
        .into_iter()
        .map(|size| {
            let before = session.solver_invocations();
            session.compiled(size).expect("the design compiles");
            Lookup::classify(before, session.solver_invocations())
        })
        .collect();
    assert_eq!(
        kinds,
        [Lookup::Miss, Lookup::Hit, Lookup::Miss, Lookup::Hit]
    );
}

#[test]
fn inputs_repeat_for_a_seed() {
    let draw = |seed| {
        let mut rng = SplitMix::new(seed);
        let mut items: Vec<u64> = (0..32).collect();
        rng.shuffle(&mut items);
        (rng.below(1000), items)
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));
    let (_, mut items) = draw(7);
    items.sort_unstable();
    assert_eq!(
        items,
        (0..32).collect::<Vec<_>>(),
        "a shuffle is a permutation"
    );
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let metrics = [(END_TO_END[0], 0.5), (END_TO_END[1], 1200.0)];
    let line = result_line(true, 10, 0, &metrics);
    let doc = streamgrid_optimizer::json::parse(&line).expect("the line is JSON");
    let streamgrid_optimizer::json::JsonValue::Obj(fields) = &doc else {
        panic!("an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
    assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.5));
    assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
    assert_eq!(json_number(1200.0), "1200.0");
    assert_eq!(json_number(0.1), "0.1");
}

#[test]
fn metric_names_are_unique_and_well_formed() {
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "every metric name is used once");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(d
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        assert!(!d.unit.is_empty() && d.unit.len() <= 16);
    }
}
