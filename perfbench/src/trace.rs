//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the self-time arithmetic over them.
//!
//! A span is `(name, start, end, parent, id)`: the id is the frame (or
//! request) the call served, so every span of one request shares it.
//! Spans stay in memory while the workload runs and are written out
//! once, at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called (`<layer>.<call>`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The frame or request the call served.
    pub id: u64,
}

impl Span {
    /// Wall nanoseconds the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
        index
    }

    /// Closes span `index`, which must be the innermost open one.
    pub fn exit(&mut self, index: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Renames span `index` and sets its id — for calls whose outcome
    /// (a cache hit or a solve, the pulled frame's id) is known only
    /// after they return.
    pub fn relabel(&mut self, index: usize, name: &'static str, id: u64) {
        self.spans[index].name = name;
        self.spans[index].id = id;
    }

    /// The instant span times count from, for spans timed elsewhere
    /// (another thread) and added with [`Tracer::record`].
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Adds a closed span timed against [`Tracer::origin`] and returns
    /// its index.
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.id,
                if i + 1 == self.spans.len() {
                    "\n"
                } else {
                    ",\n"
                }
            );
        }
        out.push(']');
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once;
/// parts of a child outside its parent do not count).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut covered)| {
            covered.sort_unstable();
            let mut union = 0u64;
            let mut reach = 0u64;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(union)
        })
        .collect()
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Durations of every span called `name`, in nanoseconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Total duration of the root spans (those without a parent) — the
/// traced wall time the self times add up to.
pub fn root_time(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum()
}
