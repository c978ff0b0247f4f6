//! The schedule certifier: exact discrete occupancy bounds per edge.
//!
//! The execution engines advance every edge with the same integer
//! allowance discipline (`RateAcc` in `streamgrid-sim`): after `k`
//! active cycles at rate `num/den`, a stage has been allowed exactly
//! `⌊k·num/den⌋` elements. The certifier evaluates those allowance
//! curves — not their fluid approximations — over the multi-chunk issue
//! lattice `start + c·II` and derives, for each edge, an upper bound on
//! the occupancy the shared stepper can ever reach:
//!
//! * `Ŵ(t)` — cumulative write allowance through cycle `t`, summed over
//!   every chunk (clamped to the chunk volume `V`);
//! * `R̂(t)` — cumulative read allowance through cycle `t`, likewise;
//! * `δ(t) = max_{t' ≤ t} (R̂(t') − Ŵ(t'−1))⁺` — the worst transient by
//!   which the read allowance can outrun the data available to it
//!   (reads at cycle `t` see writes through `t − 1`: the stepper visits
//!   consumers before producers).
//!
//! The certified peak is `max_t [Ŵ(t) − R̂(t) + δ(t)]`. Reads are
//! rate-limited but work-conserving — a starved cycle's allowance is
//! lost, yet the chunk keeps draining at `τ_in` until its volume is
//! read — so cumulative reads never fall more than `δ(t)` behind the
//! allowance curve, and writes never exceed theirs (the causality cap
//! rounds up, never binding below the write track). Global-consumer
//! edges retain `window_chunks · V` by construction, mirroring the ILP
//! sizing constraint exactly.
//!
//! Everything is `i128` integer arithmetic — no floats, no tolerance.
//! Periodicity caps the enumeration: chunks more than one edge-span
//! apart never overlap, so `K = min(n_chunks, span/II + 2)` chunks and
//! one saturated window of cycles cover every relative phase the full
//! stream can exhibit.
//!
//! The walk visits every cycle of that window, but computes no
//! allowance from scratch: each side of an edge keeps one
//! `(value, remainder)` accumulator per chunk track and steps it the
//! way `RateAcc` does — add `num / den`, carry one when the remainder
//! reaches `den`, clamp at `V` — so a cycle costs adds and compares, with
//! no multiply or divide. Only the started, unsaturated tracks step (a
//! contiguous run of chunk indices), so the walk costs
//! O(window × live tracks). The accumulators stay `i128`, like every
//! other quantity here.

use serde::Serialize;
use streamgrid_dataflow::Rate;

/// Per-edge constants the certifier needs — a rational-rate slice of
/// the optimizer's `EdgeInfo`, kept dependency-free so the certifier
/// sits below the optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct CertEdge {
    /// Producer stage index (into the start-cycle vector).
    pub producer: usize,
    /// Consumer stage index.
    pub consumer: usize,
    /// Exact producer write rate (elements/cycle).
    pub tau_out: Rate,
    /// Exact consumer read rate (elements/cycle).
    pub tau_in: Rate,
    /// Elements the producer writes per chunk.
    pub volume: u64,
    /// Producer pipeline depth (write-start offset).
    pub depth: u64,
    /// `true` when the consumer is a global op (retains whole chunks).
    pub global_consumer: bool,
    /// Chunk-window retention for global consumers.
    pub window_chunks: u32,
}

/// One edge's verdict inside a [`Certificate`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EdgeCert {
    /// Edge index (matches `Schedule::buffer_sizes`).
    pub edge: usize,
    /// Producer stage index.
    pub producer: usize,
    /// Consumer stage index.
    pub consumer: usize,
    /// Worst-case discrete occupancy in elements.
    pub certified_peak: u64,
    /// The provisioned line-buffer bound in elements.
    pub bound: u64,
    /// Worst transient by which the read allowance outran available
    /// data (`δ` — the discretization term the fluid model misses).
    pub starve_slack: u64,
    /// Cycle (relative to the schedule origin) where the peak occurs.
    pub witness_cycle: i64,
    /// Chunks the periodic analysis had to superpose.
    pub chunks_analyzed: u64,
    /// `certified_peak <= bound`.
    pub accepted: bool,
}

/// A machine-checkable occupancy certificate: one [`EdgeCert`] per
/// edge, accepted iff every edge's worst-case discrete occupancy fits
/// its provisioned bound. Because both execution engines share one
/// stepper, one certificate covers cycle-accurate and event-driven
/// execution alike.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Certificate {
    /// Initiation interval of the chunk lattice (cycles).
    pub period: u64,
    /// Chunks the stream issues.
    pub n_chunks: u64,
    /// Per-edge verdicts, in edge order.
    pub edges: Vec<EdgeCert>,
}

impl Certificate {
    /// `true` when every edge's peak fits its bound.
    pub fn accepted(&self) -> bool {
        self.edges.iter().all(|e| e.accepted)
    }

    /// The first rejected edge, if any.
    pub fn first_violation(&self) -> Option<&EdgeCert> {
        self.edges.iter().find(|e| !e.accepted)
    }

    /// Human-readable rendering (stable: pinned by snapshot tests).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let verdict = if self.accepted() {
            "ACCEPTED"
        } else {
            "REJECTED"
        };
        let _ = writeln!(
            out,
            "certificate {verdict}: {} edges, {} chunks, II={}",
            self.edges.len(),
            self.n_chunks,
            self.period
        );
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  edge {} ({} -> {}): peak {} {} bound {} (slack {}, delta {}, witness cycle {}, {} chunks)",
                e.edge,
                e.producer,
                e.consumer,
                e.certified_peak,
                if e.accepted { "<=" } else { ">" },
                e.bound,
                e.bound as i128 - e.certified_peak as i128,
                e.starve_slack,
                e.witness_cycle,
                e.chunks_analyzed,
            );
        }
        out
    }
}

/// Certifies `bounds` against the worst-case discrete occupancy of
/// every edge over the chunk lattice `start_cycles[stage] + c·period`
/// for `c` in `0..n_chunks`.
///
/// `start_cycles` is indexed by stage, `bounds` by edge (parallel to
/// `edges`). `period` is the multi-chunk initiation interval (ignored
/// when `n_chunks == 1`).
///
/// # Panics
///
/// Panics if `bounds.len() != edges.len()` or a stage index is out of
/// range of `start_cycles`.
pub fn certify(
    edges: &[CertEdge],
    start_cycles: &[u64],
    bounds: &[u64],
    period: u64,
    n_chunks: u64,
) -> Certificate {
    certify_by(edges, start_cycles, bounds, period, n_chunks, edge_peak)
}

/// What [`edge_peak`] returns: `(peak, starve_slack, witness_cycle,
/// chunks_analyzed)`.
type Walk = (i128, i128, i64, u64);

/// [`certify`] with the local-edge walk as a parameter, so the tests can
/// run the same certificate over a reference walk.
fn certify_by(
    edges: &[CertEdge],
    start_cycles: &[u64],
    bounds: &[u64],
    period: u64,
    n_chunks: u64,
    walk: impl Fn(&CertEdge, &[u64], i128, u64) -> Walk,
) -> Certificate {
    assert_eq!(
        edges.len(),
        bounds.len(),
        "one buffer bound per edge is required"
    );
    let ii = period.max(1) as i128;
    let edge_certs = edges
        .iter()
        .zip(bounds)
        .enumerate()
        .map(|(i, (e, &bound))| {
            let (peak, delta, witness, k) = if e.global_consumer {
                // Global consumers retain `window_chunks` whole chunk
                // volumes by construction — the formulation sizes the
                // buffer to exactly that, so the peak is exact and the
                // lattice is irrelevant.
                (
                    (e.volume as i128) * (e.window_chunks as i128),
                    0,
                    start_cycles[e.consumer] as i64,
                    n_chunks.min(e.window_chunks as u64).max(1),
                )
            } else {
                walk(e, start_cycles, ii, n_chunks)
            };
            let certified_peak = peak.max(0) as u64;
            EdgeCert {
                edge: i,
                producer: e.producer,
                consumer: e.consumer,
                certified_peak,
                bound,
                starve_slack: delta as u64,
                witness_cycle: witness,
                chunks_analyzed: k,
                accepted: certified_peak <= bound,
            }
        })
        .collect();
    Certificate {
        period,
        n_chunks,
        edges: edge_certs,
    }
}

/// Worst-case discrete occupancy of one local edge over the lattice:
/// `(peak, starve_slack, witness_cycle, chunks_analyzed)`.
fn edge_peak(e: &CertEdge, start_cycles: &[u64], ii: i128, n_chunks: u64) -> Walk {
    let window = Window::new(e, start_cycles, ii, n_chunks);
    let k = window.k as usize;
    let mut writes = Side::new(window.w0, ii, e.tau_out, e.volume, k);
    let mut reads = Side::new(window.r0, ii, e.tau_in, e.volume, k);
    window.fold(|t| (writes.step(t), reads.step(t)))
}

/// The cycles one local edge's walk visits.
///
/// Enumerates every integer cycle of one saturated window with `K`
/// superposed chunks. Chunks further apart than the edge's span never
/// overlap, and the lattice repeats with period `II`, so the window
/// realizes every relative phase the full `n_chunks`-stream can: a
/// contiguous run of active chunks in the stream maps phase-for-phase
/// onto the first `K` chunks here (earlier chunks are fully drained and
/// contribute zero, later ones have not started).
struct Window {
    /// First write cycle of chunk 0.
    w0: i128,
    /// First read cycle of chunk 0.
    r0: i128,
    /// Chunks superposed: `K`.
    k: i128,
    t_min: i128,
    t_max: i128,
}

impl Window {
    fn new(e: &CertEdge, start_cycles: &[u64], ii: i128, n_chunks: u64) -> Self {
        let w0 = (start_cycles[e.producer] + e.depth) as i128;
        let r0 = start_cycles[e.consumer] as i128;
        let wd = e.tau_out.cycles_for(e.volume) as i128;
        let rd = e.tau_in.cycles_for(e.volume) as i128;
        let span = (w0 + wd).max(r0 + rd) - w0.min(r0);
        let k = (n_chunks as i128).min(span / ii + 2).max(1);
        Window {
            w0,
            r0,
            k,
            // One cycle before every track starts.
            t_min: w0.min(r0) - 1,
            t_max: (w0 + wd).max(r0 + rd) + (k - 1) * ii,
        }
    }

    /// Folds `Ŵ(t)` and `R̂(t)`, which `sides` returns for each cycle in
    /// order, into the walk's result.
    fn fold(self, mut sides: impl FnMut(i128) -> (i128, i128)) -> Walk {
        // `Ŵ(t_min − 1)`: no track has started.
        let mut prev_w = 0i128;
        let mut delta = 0i128;
        let mut peak = 0i128;
        let mut peak_delta = 0i128;
        let mut witness = self.t_min;
        for t in self.t_min..=self.t_max {
            let (w, r) = sides(t);
            // Reads at cycle t see writes through t−1; any allowance beyond
            // that is a transient the discrete stepper can carry forward as
            // extra occupancy once the producer catches up.
            delta = delta.max(r - prev_w);
            let occ = w - r + delta;
            if occ > peak {
                peak = occ;
                peak_delta = delta;
                witness = t;
            }
            prev_w = w;
        }
        (peak, peak_delta.max(0), witness as i64, self.k as u64)
    }
}

/// One side of a local edge (its writes or its reads): `K` chunk
/// tracks issued `II` cycles apart, each allowed `rate` elements per
/// cycle up to the chunk volume.
struct Side {
    /// `num / den`: what every step adds.
    whole: i128,
    /// `num % den`: what every step adds to the remainder.
    frac: i128,
    den: i128,
    volume: i128,
    ii: i128,
    /// Cycle at which track `started` takes its first step.
    next_issue: i128,
    /// `(value, remainder)` per track: after `j` steps a track holds
    /// `min(⌊j·num/den⌋, volume)` with remainder `j·num mod den`.
    tracks: Vec<(i128, i128)>,
    /// Tracks `..saturated` hold `volume`; `saturated..started` are live.
    saturated: usize,
    started: usize,
    /// `saturated · volume`.
    saturated_sum: i128,
}

impl Side {
    fn new(start: i128, ii: i128, rate: Rate, volume: u64, k: usize) -> Self {
        let (num, den) = (rate.num() as i128, rate.den() as i128);
        Side {
            whole: num / den,
            frac: num % den,
            den,
            volume: volume as i128,
            ii,
            next_issue: start,
            tracks: vec![(0, 0); k],
            saturated: 0,
            started: 0,
            saturated_sum: 0,
        }
    }

    /// Steps the tracks through cycle `t` (called for consecutive `t`
    /// from before the first issue) and returns their summed allowance:
    /// track `c`, issued at `s`, holds `min(⌊(t − s + 1)·num/den⌋,
    /// volume)` once `t ≥ s`, and 0 before.
    fn step(&mut self, t: i128) -> i128 {
        if t == self.next_issue && self.started < self.tracks.len() {
            self.started += 1;
            self.next_issue += self.ii;
        }
        let mut sum = self.saturated_sum;
        for (value, rem) in &mut self.tracks[self.saturated..self.started] {
            *value += self.whole;
            *rem += self.frac;
            if *rem >= self.den {
                *rem -= self.den;
                *value += 1;
            }
            *value = (*value).min(self.volume);
            sum += *value;
        }
        // Tracks share one rate and issue in order, so they saturate in
        // order too: the live ones stay a contiguous run.
        while self.saturated < self.started && self.tracks[self.saturated].0 == self.volume {
            self.saturated += 1;
            self.saturated_sum += self.volume;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate(num: i64, den: i64) -> Rate {
        Rate::new(num, den)
    }

    /// Cumulative allowance through cycle `t` for a track that starts at
    /// cycle `start` and advances `rate` elements per cycle, clamped to
    /// `volume`: `clamp(⌊(t − start + 1)·num/den⌋, 0, volume)`.
    fn allowance(t: i128, start: i128, rate: Rate, volume: u64) -> i128 {
        let k = t - start + 1;
        if k <= 0 {
            return 0;
        }
        let raw = k * rate.num() as i128 / rate.den() as i128;
        raw.min(volume as i128)
    }

    /// The walk by definition: every cycle sums [`allowance`] over the
    /// `K` tracks of each side, one division per track. [`edge_peak`]
    /// must return exactly this.
    fn edge_peak_reference(e: &CertEdge, start_cycles: &[u64], ii: i128, n_chunks: u64) -> Walk {
        let window = Window::new(e, start_cycles, ii, n_chunks);
        let (w0, r0, k) = (window.w0, window.r0, window.k);
        let sum = |t: i128, start: i128, rate: Rate| -> i128 {
            (0..k)
                .map(|c| allowance(t, start + c * ii, rate, e.volume))
                .sum()
        };
        window.fold(|t| (sum(t, w0, e.tau_out), sum(t, r0, e.tau_in)))
    }

    /// SplitMix64: the sweep's seeded source of cases.
    struct SplitMix(u64);

    impl SplitMix {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A value in `lo..=hi`.
        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next_u64() % (hi - lo + 1)
        }

        /// `true` with probability `1/n`.
        fn one_in(&mut self, n: u64) -> bool {
            self.next_u64().is_multiple_of(n)
        }
    }

    /// A rate `num/den` with `den` in `1..=12` (half the time 1) and up
    /// to three elements per cycle.
    fn random_rate(rng: &mut SplitMix) -> Rate {
        let den = if rng.one_in(2) { 1 } else { rng.range(2, 12) };
        let num = rng.range(1, 3 * den);
        rate(num as i64, den as i64)
    }

    /// One random certification: its edges, start cycles, bounds,
    /// period and chunk count.
    type Case = (Vec<CertEdge>, Vec<u64>, Vec<u64>, u64, u64);

    fn random_case(rng: &mut SplitMix) -> Case {
        let n_edges = rng.range(1, 4) as usize;
        // Stage `i` feeds stage `i + 1`; each start is drawn on its own,
        // so a reader starts before or after its writer about as often.
        let starts: Vec<u64> = (0..=n_edges).map(|_| rng.range(0, 120)).collect();
        let edges: Vec<CertEdge> = (0..n_edges)
            .map(|i| CertEdge {
                producer: i,
                consumer: i + 1,
                tau_out: random_rate(rng),
                tau_in: random_rate(rng),
                volume: if rng.one_in(4) {
                    rng.range(0, 3)
                } else {
                    rng.range(0, 700)
                },
                depth: rng.range(0, 24),
                global_consumer: rng.one_in(8),
                window_chunks: rng.range(1, 4) as u32,
            })
            .collect();
        let bounds = edges
            .iter()
            .map(|e| rng.range(0, 2 * e.volume + 8))
            .collect();
        let n_chunks = match rng.range(0, 2) {
            0 => 1,
            1 => rng.range(2, 4),
            _ => rng.range(5, 64),
        };
        // The longest edge span bounds how far apart chunks can overlap.
        let span = edges
            .iter()
            .map(|e| {
                let w0 = starts[e.producer] + e.depth;
                let r0 = starts[e.consumer];
                let w1 = w0 + e.tau_out.cycles_for(e.volume);
                let r1 = r0 + e.tau_in.cycles_for(e.volume);
                w1.max(r1) - w0.min(r0)
            })
            .max()
            .unwrap_or(0);
        let period = match rng.range(0, 3) {
            0 => 1,
            1 => rng.range(2, 40),
            2 => rng.range(41, span.max(41) + 1),
            _ => span + rng.range(1, 50),
        };
        (edges, starts, bounds, period, n_chunks)
    }

    /// 1,000 seeded random certificates certify field for field alike
    /// under both walks: 1–4 edges, `den` up to 12, volumes 0–700 (a
    /// quarter of them 0–3), readers starting before or after their
    /// writers, `II` from 1 to past the span, 1 to 64 chunks, and an
    /// eighth of the edges global.
    #[test]
    fn stepped_walk_matches_the_division_walk() {
        let mut rng = SplitMix(0x5eed_ce27);
        for case in 0..1000 {
            let (edges, starts, bounds, period, n_chunks) = random_case(&mut rng);
            let stepped = certify(&edges, &starts, &bounds, period, n_chunks);
            let reference = certify_by(
                &edges,
                &starts,
                &bounds,
                period,
                n_chunks,
                edge_peak_reference,
            );
            assert_eq!(
                stepped, reference,
                "case {case}: {edges:?} starts {starts:?} II {period} × {n_chunks}"
            );
        }
    }

    fn local_edge(tau_out: Rate, tau_in: Rate, volume: u64, depth: u64) -> CertEdge {
        CertEdge {
            producer: 0,
            consumer: 1,
            tau_out,
            tau_in,
            volume,
            depth,
            global_consumer: false,
            window_chunks: 1,
        }
    }

    #[test]
    fn matched_rates_need_one_element() {
        // Producer and consumer both 1 elem/cycle, consumer starts with
        // the producer: the stepper's consumer-before-producer visit
        // order leaves exactly one element in flight.
        let e = local_edge(rate(1, 1), rate(1, 1), 100, 0);
        let cert = certify(&[e], &[0, 0], &[1], 1, 1);
        assert_eq!(cert.edges[0].certified_peak, 1);
        assert_eq!(cert.edges[0].starve_slack, 1);
        assert!(cert.accepted());
    }

    #[test]
    fn offset_consumer_buffers_the_offset() {
        // Consumer starts Δ=10 cycles late at matched unit rates: the
        // buffer holds the 10-element head plus nothing else.
        let e = local_edge(rate(1, 1), rate(1, 1), 100, 0);
        let cert = certify(&[e], &[0, 10], &[10], 1, 1);
        assert_eq!(cert.edges[0].certified_peak, 10);
        assert!(cert.accepted());
        // One element fewer is a rejection with a concrete witness.
        let e = local_edge(rate(1, 1), rate(1, 1), 100, 0);
        let cert = certify(&[e], &[0, 10], &[9], 1, 1);
        assert!(!cert.accepted());
        let v = cert.first_violation().unwrap();
        assert_eq!(v.certified_peak, 10);
        assert!(v.witness_cycle >= 9);
    }

    #[test]
    fn fast_producer_slow_consumer_peaks_at_write_end() {
        // 4 elem/cycle producer, 1 elem/cycle consumer, both start at 0:
        // producer finishes 400 elements at cycle 99 with 100 read — the
        // fluid peak is 300; the discrete one differs only by the O(τ)
        // visit-order transient.
        let e = local_edge(rate(4, 1), rate(1, 1), 400, 0);
        let cert = certify(&[e], &[0, 0], &[304], 1, 1);
        let peak = cert.edges[0].certified_peak;
        assert!((300..=304).contains(&peak), "peak {peak}");
        assert!(cert.accepted());
    }

    #[test]
    fn global_edge_retains_window_volume() {
        let e = CertEdge {
            producer: 0,
            consumer: 1,
            tau_out: rate(3, 1),
            tau_in: rate(3, 1),
            volume: 300,
            depth: 0,
            global_consumer: true,
            window_chunks: 4,
        };
        let cert = certify(std::slice::from_ref(&e), &[0, 100], &[1200], 7, 9);
        assert_eq!(cert.edges[0].certified_peak, 1200);
        assert!(cert.accepted());
        let cert = certify(&[e], &[0, 100], &[1199], 7, 9);
        assert!(!cert.accepted());
    }

    #[test]
    fn period_spacing_keeps_single_chunk_peaks() {
        // Two chunks a full busy-period apart never overlap: the
        // multi-chunk peak equals the single-chunk peak.
        let e = local_edge(rate(1, 1), rate(1, 1), 100, 0);
        let single =
            certify(std::slice::from_ref(&e), &[0, 10], &[u64::MAX], 1, 1).edges[0].certified_peak;
        let spaced = certify(std::slice::from_ref(&e), &[0, 10], &[u64::MAX], 200, 8).edges[0]
            .certified_peak;
        assert_eq!(single, spaced);
        // Overlapping issue (II far below the busy span) accumulates.
        let packed = certify(&[e], &[0, 10], &[u64::MAX], 20, 8).edges[0].certified_peak;
        assert!(packed > spaced, "packed {packed} vs spaced {spaced}");
    }

    #[test]
    fn fractional_rates_stay_exact() {
        // τ_out = 3/7: after 7 cycles exactly 3 elements, never a float
        // epsilon more. A consumer at 1/3 with a late start.
        let e = local_edge(rate(3, 7), rate(1, 3), 30, 2);
        let cert = certify(&[e], &[0, 40], &[u64::MAX], 1, 1);
        let peak = cert.edges[0].certified_peak;
        // Writes finish at cycle 2 + 70; by cycle 41 the consumer has
        // allowance 0 and the producer ⌊40·3/7⌋ = 17.
        assert!(peak >= 17, "peak {peak}");
        assert!(peak <= 30, "peak {peak} cannot exceed the volume");
    }

    #[test]
    fn render_names_the_violation() {
        let e = local_edge(rate(2, 1), rate(1, 1), 50, 1);
        let cert = certify(&[e], &[0, 0], &[3], 1, 1);
        assert!(!cert.accepted());
        let text = cert.render();
        assert!(text.starts_with("certificate REJECTED"), "{text}");
        assert!(text.contains("edge 0 (0 -> 1)"), "{text}");
        assert!(text.contains("> bound 3"), "{text}");
    }

    #[test]
    #[should_panic(expected = "one buffer bound per edge")]
    fn mismatched_bounds_panic() {
        let e = local_edge(rate(1, 1), rate(1, 1), 10, 0);
        certify(&[e], &[0, 0], &[], 1, 1);
    }
}
