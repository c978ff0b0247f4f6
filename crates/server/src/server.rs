//! The multi-tenant streaming server: an explicit scheduler loop plus a
//! `std::thread` worker pool over one shared schedule cache.
//!
//! No async runtime — the executor underneath ([`CompiledPipeline::
//! execute`]) is blocking and CPU-bound, so the natural shape is the
//! one [`Session::stream`] already uses: frames are pulled and
//! *compiled* on a single scheduler thread (the caller of
//! [`StreamServer::run`]), and *executions* fan out across worker
//! threads. The server generalizes that from one stream to thousands of
//! tenants:
//!
//! - the scheduler round-robins across admitted tenants, pulling a
//!   frame only when the tenant's **class queue has space** — that lazy
//!   pull is the backpressure: a slow class backs up its own bounded
//!   queue and stops being pulled, while other classes keep flowing;
//! - workers pick the next job by **weighted fair queueing** across the
//!   three class queues (serve the class with the smallest
//!   `served/weight`), so a backlogged [`QosClass::Background`] can
//!   never starve [`QosClass::Interactive`];
//! - all compiles flow through per-tenant [`Session`]s sharing one
//!   [`SharedCache`], so N tenants on the same design point pay one ILP
//!   solve total, and per-tenant solve counts are exact (only the
//!   scheduler thread compiles).
//!
//! The per-frame path is literally [`Session::stream`]'s: the scheduler
//! calls the same [`Session::compile_frame`] step (bucket, compile
//! through the cache, count the solves), and a worker runs
//! [`CompiledFrame::execute`] with the spec's resolved options. So a
//! single admitted tenant's [`FrameReport`]s are bit-identical to
//! calling [`Session::stream`] directly. That is the server's
//! correctness anchor, pinned in `tests/server_qos.rs`.
//!
//! [`CompiledPipeline:: execute`]: streamgrid_core::framework::CompiledPipeline::execute
//! [`Session`]: streamgrid_core::session::Session
//! [`Session::stream`]: streamgrid_core::session::Session::stream
//! [`Session::compile_frame`]: streamgrid_core::session::Session::compile_frame
//! [`CompiledFrame::execute`]: streamgrid_core::session::CompiledFrame::execute
//! [`SharedCache`]: streamgrid_core::cache::SharedCache
//! [`FrameReport`]: streamgrid_core::source::FrameReport
//! [`QosClass::Background`]: crate::QosClass::Background
//! [`QosClass::Interactive`]: crate::QosClass::Interactive

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use streamgrid_core::cache::SharedCache;
use streamgrid_core::framework::{ExecuteOptions, StreamGrid};
use streamgrid_core::pipeline::CompileError;
use streamgrid_core::session::{CompiledFrame, Session};
use streamgrid_core::source::{FrameReport, FrameSource, SizeBucketing, StreamReport};

use streamgrid_core::framework::LintSummary;
use streamgrid_verify::inert_qos_policy;

use crate::admission::{AdmissionError, TokenLedger};
use crate::protocol::{admit_fifo, queued_admission, wfq_pick, QueuedDecision};
use crate::qos::QosClass;
use crate::report::{ClassReport, FrameLatency, LatencyStats, ServerReport, TenantReport};
use crate::tenant::{TenantId, TenantSpec};

/// Tuning knobs for a [`StreamServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads executing frames. `0` means one per host core.
    pub workers: usize,
    /// Bound on each class's frame queue. `0` means
    /// `max(2 × workers, 4)`.
    pub queue_depth: usize,
    /// Load tokens the admission ledger starts with (one token ≈ one
    /// projected frame).
    pub capacity: u64,
    /// Hard cap on concurrently admitted-or-waitlisted tenants.
    pub max_tenants: usize,
    /// Projected frame count charged to a tenant whose source cannot
    /// say ([`FrameSource::remaining_frames`] returns `None`).
    pub default_projection: u64,
    /// Queue-age deadline after which a [`QosClass::Background`] frame
    /// is shed at dispatch instead of executed. `None` never sheds.
    pub shed_after: Option<Duration>,
    /// Coarser bucketing applied to [`QosClass::Background`] frames
    /// pulled while the Background queue is at least half full. `None`
    /// never degrades.
    pub degraded_bucketing: Option<SizeBucketing>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_depth: 0,
            capacity: 1 << 20,
            max_tenants: usize::MAX,
            default_projection: 64,
            shed_after: None,
            degraded_bucketing: None,
        }
    }
}

impl ServerConfig {
    /// Sets the worker-thread count (`0` = one per host core).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-class queue bound (`0` = `max(2 × workers, 4)`).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the admission ledger's token capacity.
    pub fn with_capacity(mut self, capacity: u64) -> Self {
        self.capacity = capacity;
        self
    }

    /// Caps concurrently admitted-or-waitlisted tenants.
    pub fn with_max_tenants(mut self, max: usize) -> Self {
        self.max_tenants = max;
        self
    }

    /// Sets the projection charged to unsized sources.
    pub fn with_default_projection(mut self, frames: u64) -> Self {
        self.default_projection = frames;
        self
    }

    /// Enables Background shedding past a queue-age deadline.
    pub fn with_shed_after(mut self, deadline: Duration) -> Self {
        self.shed_after = Some(deadline);
        self
    }

    /// Enables Background degradation to a coarser bucketing under
    /// queue pressure.
    pub fn with_degraded_bucketing(mut self, bucketing: SizeBucketing) -> Self {
        self.degraded_bucketing = Some(bucketing);
        self
    }

    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    fn effective_queue_depth(&self, workers: usize) -> usize {
        if self.queue_depth > 0 {
            return self.queue_depth;
        }
        (2 * workers).max(4)
    }
}

/// One submitted tenant, as the scheduler drives it. Only the scheduler
/// thread touches this — workers see [`Job`]s, never tenants.
struct Tenant {
    id: TenantId,
    spec: TenantSpec,
    source: Box<dyn FrameSource + Send>,
    session: Session,
    /// The spec's execution options, resolved at submit.
    exec: ExecuteOptions,
    /// Load tokens this tenant committed at admission.
    projected: u64,
    /// Whether the tenant is admitted (false = still waitlisted).
    active: bool,
    /// Whether the tenant waited on the waitlist before admission.
    was_queued: bool,
    /// Frames pulled (and therefore enqueued or failed) so far.
    pulled: u64,
    /// The source returned `None`, `max_frames` hit, or a compile
    /// failed: no more pulls.
    exhausted: bool,
    /// Tokens returned to the ledger (set once, at finish).
    released: bool,
    /// ILP solves this tenant's compiles paid: the sum of its frames'
    /// [`CompiledFrame::solves`], exact because only the scheduler
    /// compiles.
    solves: u64,
    /// Frames compiled under the degraded bucketing.
    degraded_frames: u64,
    /// The compile error that ended the tenant early, if any.
    error: Option<CompileError>,
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("id", &self.id)
            .field("name", &self.spec.name)
            .field("qos", &self.spec.qos)
            .field("projected", &self.projected)
            .field("active", &self.active)
            .finish_non_exhaustive()
    }
}

/// A unit of worker work: one compiled frame execution.
struct Job {
    tenant: usize,
    seq: u64,
    frame: CompiledFrame,
    exec: ExecuteOptions,
    enqueued: Instant,
    shed_deadline: Option<Duration>,
}

/// What a worker produced for one job. The report is boxed: a
/// `FrameReport` is large, and `Shed` outcomes should stay cheap.
enum FrameOutcome {
    Executed {
        report: Box<FrameReport>,
        queue_ns: u64,
        exec_ns: u64,
    },
    Shed,
}

/// The scheduler↔worker shared state: class queues, WFQ counters, and
/// completed results, all behind one mutex with two condvars (`work`
/// wakes workers, `space` wakes the scheduler).
struct SyncState {
    state: Mutex<State>,
    work: Condvar,
    space: Condvar,
}

struct State {
    /// Bounded per-class job queues, in [`QosClass::ALL`] order.
    queues: [VecDeque<Job>; 3],
    /// Jobs dispatched per class, for the WFQ pick.
    served: [u64; 3],
    /// Frames completed (executed or shed) per tenant index.
    completed: Vec<u64>,
    /// Completed results: `(tenant index, seq, outcome)`.
    results: Vec<(usize, u64, FrameOutcome)>,
    /// Scheduler is finished; workers drain and exit.
    done: bool,
}

/// The multi-tenant streaming server. Submit tenants, then [`run`] the
/// scheduler to completion.
///
/// [`run`]: StreamServer::run
///
/// # Examples
///
/// Two tenants on the same design point pay one solve total:
///
/// ```
/// use streamgrid_core::apps::AppDomain;
/// use streamgrid_core::source::SyntheticSource;
/// use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
/// use streamgrid_serve::{QosClass, ServerConfig, StreamServer, TenantSpec};
///
/// let config = StreamGridConfig::cs_dt(SplitConfig::linear(4, 2));
/// let mut server = StreamServer::new(ServerConfig::default().with_workers(2));
/// for i in 0..2 {
///     let spec = TenantSpec::new(
///         format!("tenant-{i}"),
///         AppDomain::Classification.spec(),
///         config,
///     )
///     .with_qos(QosClass::Interactive);
///     server.submit(spec, SyntheticSource::new(4 * 300, 3)).unwrap();
/// }
/// let report = server.run();
/// assert_eq!(report.admitted, 2);
/// assert_eq!(report.frame_count(), 6);
/// assert_eq!(report.solver_invocations, 1);
/// assert!(report.all_clean());
/// ```
#[derive(Debug)]
pub struct StreamServer {
    config: ServerConfig,
    cache: SharedCache,
    tenants: Vec<Tenant>,
    ledger: TokenLedger,
    waitlist: VecDeque<usize>,
    rejected: u64,
    next_id: u64,
}

impl StreamServer {
    /// A server over a fresh [`SharedCache`].
    pub fn new(config: ServerConfig) -> Self {
        StreamServer::with_cache(config, SharedCache::new())
    }

    /// A server over an existing cache — pass a clone of a cache other
    /// servers or sessions also use to pool solves across all of them,
    /// or a pre-warmed cache to serve the first frames without any
    /// solve.
    pub fn with_cache(config: ServerConfig, cache: SharedCache) -> Self {
        StreamServer {
            config,
            cache,
            tenants: Vec::new(),
            ledger: TokenLedger::new(config.capacity),
            waitlist: VecDeque::new(),
            rejected: 0,
            next_id: 0,
        }
    }

    /// The shared schedule cache behind every tenant's compiles.
    pub fn cache(&self) -> &SharedCache {
        &self.cache
    }

    /// Tokens the admission ledger still has free.
    pub fn available_tokens(&self) -> u64 {
        self.ledger.available()
    }

    /// A tenant's projected token cost: its remaining-frame hint when
    /// the source has one (capped by the tenant's `max_frames`), the
    /// server's [`ServerConfig::default_projection`] otherwise.
    fn projection(&self, spec: &TenantSpec, source: &dyn FrameSource) -> u64 {
        let projected = source
            .remaining_frames()
            .unwrap_or(self.config.default_projection);
        match spec.max_frames {
            Some(max) => projected.min(max),
            None => projected,
        }
    }

    fn hold(&mut self, spec: TenantSpec, source: Box<dyn FrameSource + Send>) -> Tenant {
        let session = StreamGrid::new(spec.config)
            .session_builder(spec.pipeline.clone())
            .with_cache(self.cache.clone())
            .build();
        let projected = self.projection(&spec, source.as_ref());
        let id = TenantId(self.next_id);
        self.next_id += 1;
        Tenant {
            id,
            exec: spec
                .exec
                .unwrap_or_else(|| ExecuteOptions::for_spec(&spec.pipeline)),
            spec,
            source,
            session,
            projected,
            active: false,
            was_queued: false,
            pulled: 0,
            exhausted: false,
            released: false,
            solves: 0,
            degraded_frames: 0,
            error: None,
        }
    }

    /// Admits a tenant, committing its projected load to the ledger now.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::TenantLimit`] at the tenant cap,
    /// [`AdmissionError::Saturated`] when the projection does not fit
    /// the free tokens. Either way the submission is dropped (and
    /// counted on [`ServerReport::rejected`]).
    pub fn submit(
        &mut self,
        spec: TenantSpec,
        source: impl FrameSource + Send + 'static,
    ) -> Result<TenantId, AdmissionError> {
        if self.tenants.len() >= self.config.max_tenants {
            self.rejected += 1;
            return Err(AdmissionError::TenantLimit {
                max_tenants: self.config.max_tenants,
            });
        }
        let mut holder = self.hold(spec, Box::new(source));
        if let Err(err) = self.ledger.commit(holder.projected) {
            self.rejected += 1;
            return Err(err);
        }
        holder.active = true;
        let id = holder.id;
        self.tenants.push(holder);
        Ok(id)
    }

    /// Like [`StreamServer::submit`], but a tenant that does not fit
    /// right now joins a FIFO waitlist instead of being rejected; the
    /// scheduler admits it once finishing tenants release enough
    /// tokens.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::TenantLimit`] at the tenant cap, and
    /// [`AdmissionError::Saturated`] only when the projection exceeds
    /// the ledger's *total* capacity — such a tenant could never be
    /// admitted, so queueing it would deadlock the waitlist.
    pub fn submit_queued(
        &mut self,
        spec: TenantSpec,
        source: impl FrameSource + Send + 'static,
    ) -> Result<TenantId, AdmissionError> {
        if self.tenants.len() >= self.config.max_tenants {
            self.rejected += 1;
            return Err(AdmissionError::TenantLimit {
                max_tenants: self.config.max_tenants,
            });
        }
        let mut holder = self.hold(spec, Box::new(source));
        match queued_admission(
            &mut self.ledger,
            !self.waitlist.is_empty(),
            holder.projected,
        ) {
            QueuedDecision::RejectImpossibleFit => {
                self.rejected += 1;
                return Err(AdmissionError::Saturated {
                    projected: holder.projected,
                    available: self.ledger.available(),
                    capacity: self.ledger.capacity(),
                });
            }
            QueuedDecision::Admit => holder.active = true,
            QueuedDecision::Waitlist => {
                holder.was_queued = true;
                self.waitlist.push_back(self.tenants.len());
            }
        }
        let id = holder.id;
        self.tenants.push(holder);
        Ok(id)
    }

    /// Runs every admitted tenant to completion and returns the
    /// [`ServerReport`].
    ///
    /// The calling thread becomes the scheduler: it round-robins across
    /// admitted tenants, pulls a frame only when the tenant's class
    /// queue has space (backpressure), compiles it with the tenant
    /// session's [`Session::compile_frame`] step (through the shared
    /// cache), and enqueues the execution; `workers` threads drain the
    /// class queues by weighted fair queueing. Waitlisted tenants are
    /// admitted FIFO as finishing tenants release their tokens. A
    /// tenant whose compile fails records the error on its report and
    /// stops — other tenants keep running.
    pub fn run(self) -> ServerReport {
        let workers = self.config.effective_workers();
        let queue_depth = self.config.effective_queue_depth(workers);
        let config = self.config;
        let mut ledger = self.ledger;
        let mut waitlist = self.waitlist;
        let mut tenants = self.tenants;

        let shared = SyncState {
            state: Mutex::new(State {
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                served: [0; 3],
                completed: vec![0; tenants.len()],
                results: Vec::new(),
                done: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
        };

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| worker_loop(&shared)))
                .collect();
            schedule(
                &shared,
                &config,
                queue_depth,
                &mut tenants,
                &mut ledger,
                &mut waitlist,
            );
            // Join every worker instead of leaving it to the scope, which
            // only waits for the closures: a thread still exiting after
            // `run` returns holds its allocator arena, so the next
            // server's workers could open a fresh arena and the process's
            // resident memory would depend on thread timing.
            for handle in handles {
                handle.join().expect("workers do not panic");
            }
        });

        let state = shared
            .state
            .into_inner()
            .expect("no scheduler or worker panicked");
        assemble_report(state, tenants, self.rejected, workers)
    }
}

/// The scheduler loop: harvest finishes → admit from the waitlist →
/// pull/compile/enqueue one frame → repeat; park on `space` when every
/// pullable queue is full.
fn schedule(
    shared: &SyncState,
    config: &ServerConfig,
    queue_depth: usize,
    tenants: &mut [Tenant],
    ledger: &mut TokenLedger,
    waitlist: &mut VecDeque<usize>,
) {
    let mut cursor = 0usize;
    // Projections never change after submission; snapshot them so the
    // FIFO admission sweep can borrow them while mutating the tenants.
    let projections: Vec<u64> = tenants.iter().map(|t| t.projected).collect();
    let mut st = shared.state.lock().expect("workers do not panic");
    loop {
        // Phase A (locked): harvest finishes — a tenant is finished
        // when it is exhausted and every pulled frame has completed.
        // Release its tokens and admit waitlisted tenants FIFO while
        // their projections fit.
        for (t, &completed) in tenants.iter_mut().zip(&st.completed) {
            if t.active && t.exhausted && !t.released && completed == t.pulled {
                t.released = true;
                ledger.release(t.projected);
            }
        }
        for i in admit_fifo(ledger, waitlist, |i| projections[i]) {
            tenants[i].active = true;
        }

        // Done when every admitted tenant finished and nobody waits. (A
        // waitlisted tenant always eventually fits: `submit_queued`
        // rejects projections above total capacity, and a drained
        // server has every token free.)
        if waitlist.is_empty() && tenants.iter().all(|t| !t.active || t.released) {
            st.done = true;
            shared.work.notify_all();
            return;
        }

        // Phase B (locked): pick a pullable tenant — admitted, not
        // exhausted, class queue below its bound — scanning round-robin
        // from a cursor so no tenant monopolizes the pull. The space
        // check IS the backpressure: a backed-up class stops being
        // pulled without blocking anyone else.
        let pick = (0..tenants.len())
            .map(|off| (cursor + off) % tenants.len())
            .find(|&i| {
                let t = &tenants[i];
                t.active && !t.exhausted && st.queues[t.spec.qos.index()].len() < queue_depth
            });
        let Some(i) = pick else {
            // Every runnable tenant is backed up, or only in-flight
            // work remains: wait for a worker to free a slot or finish
            // a frame, then re-evaluate from the top.
            st = shared.space.wait(st).expect("workers do not panic");
            continue;
        };
        cursor = (i + 1) % tenants.len();
        // Capture the pressure signal while still locked: a Background
        // pull degrades while its queue sits at least half full. A
        // tenant-level policy overrides the server-wide one (and is
        // honored only for classes that degrade at all — elsewhere it
        // is inert and flagged SG006 on the report).
        let t = &tenants[i];
        let degraded_bucketing = t.spec.degraded_bucketing.or(config.degraded_bucketing);
        let under_pressure = degraded_bucketing.is_some()
            && t.spec.qos.degrades_under_pressure()
            && 2 * st.queues[t.spec.qos.index()].len() >= queue_depth;
        drop(st);

        // Phase C (unlocked): pull and compile. The ILP solve can be
        // long and workers keep draining meanwhile; only the scheduler
        // pushes, so the queue space just observed cannot vanish.
        let t = &mut tenants[i];
        let frame = if t.spec.max_frames.is_some_and(|max| t.pulled >= max) {
            None
        } else {
            t.source.next_frame()
        };
        let Some(frame) = frame else {
            t.exhausted = true;
            st = shared.state.lock().expect("workers do not panic");
            continue;
        };
        let bucketing = match (under_pressure, degraded_bucketing) {
            (true, Some(degraded)) => degraded,
            _ => t.spec.bucketing,
        };
        let frame = match t.session.compile_frame(frame, bucketing) {
            Ok(frame) => frame,
            Err(err) => {
                // The tenant dies; the server does not. Frames already
                // in flight still complete and land on its report.
                t.error = Some(err);
                t.exhausted = true;
                st = shared.state.lock().expect("workers do not panic");
                continue;
            }
        };
        t.solves += frame.solves;
        t.degraded_frames += u64::from(under_pressure);
        let seq = t.pulled;
        t.pulled += 1;
        let job = Job {
            tenant: i,
            seq,
            frame,
            exec: t.exec,
            enqueued: Instant::now(),
            shed_deadline: if t.spec.qos.sheds() {
                t.spec.shed_after.or(config.shed_after)
            } else {
                None
            },
        };

        // Phase D (locked): enqueue and wake one worker.
        st = shared.state.lock().expect("workers do not panic");
        st.queues[tenants[i].spec.qos.index()].push_back(job);
        shared.work.notify_one();
    }
}

/// Workers: WFQ-pick a job, signal freed space, execute (or shed), and
/// record the outcome.
fn worker_loop(shared: &SyncState) {
    loop {
        let mut st = shared.state.lock().expect("scheduler does not panic");
        let job = loop {
            if let Some(job) = pick_job(&mut st) {
                break job;
            }
            if st.done {
                return;
            }
            st = shared.work.wait(st).expect("scheduler does not panic");
        };
        // The pop freed a queue slot; the scheduler may be waiting on it.
        shared.space.notify_one();
        drop(st);

        let picked = Instant::now();
        let waited = picked.duration_since(job.enqueued);
        let queue_ns = waited.as_nanos() as u64;
        let outcome = match job.shed_deadline {
            Some(deadline) if waited > deadline => FrameOutcome::Shed,
            _ => {
                let t0 = Instant::now();
                let report = Box::new(job.frame.execute(&job.exec));
                FrameOutcome::Executed {
                    report,
                    queue_ns,
                    exec_ns: t0.elapsed().as_nanos() as u64,
                }
            }
        };

        let mut st = shared.state.lock().expect("scheduler does not panic");
        st.completed[job.tenant] += 1;
        st.results.push((job.tenant, job.seq, outcome));
        // A completion can finish a tenant; the scheduler harvests on
        // `space` wakes.
        shared.space.notify_one();
    }
}

/// Weighted fair pick: [`wfq_pick`] chooses the class (smallest
/// `served/weight`, ties to the higher-priority class), the worker
/// dispatches its queue head. The pick function is the one
/// `crate::mc::check_wfq` model-checks.
fn pick_job(st: &mut State) -> Option<Job> {
    let nonempty = [
        !st.queues[0].is_empty(),
        !st.queues[1].is_empty(),
        !st.queues[2].is_empty(),
    ];
    let c = wfq_pick(nonempty, &st.served)?;
    st.served[c] += 1;
    st.queues[c].pop_front()
}

/// Folds the run's raw state into the [`ServerReport`].
fn assemble_report(
    state: State,
    tenants: Vec<Tenant>,
    rejected: u64,
    workers: usize,
) -> ServerReport {
    // Route outcomes back to their (tenant, seq) slots.
    let mut outcomes: Vec<Vec<Option<FrameOutcome>>> = tenants
        .iter()
        .map(|t| (0..t.pulled).map(|_| None).collect())
        .collect();
    for (t, seq, outcome) in state.results {
        outcomes[t][seq as usize] = Some(outcome);
    }

    let mut class_samples: [Vec<FrameLatency>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut class_tenants = [0u64; 3];
    let mut class_cycles = [0u64; 3];
    let mut class_shed = [0u64; 3];
    let mut class_degraded = [0u64; 3];

    let mut admitted = 0u64;
    let mut queued_admissions = 0u64;
    let mut solver_invocations = 0u64;
    let mut all_diags = Vec::new();
    let mut reports = Vec::with_capacity(tenants.len());
    for (slots, t) in outcomes.into_iter().zip(tenants) {
        debug_assert!(t.active, "run() ended with a waitlisted tenant");
        admitted += 1;
        queued_admissions += u64::from(t.was_queued);
        let qos = t.spec.qos;
        let c = qos.index();
        class_tenants[c] += 1;

        // SG006: Background-only policy set on a non-Background spec.
        let inert = t.spec.inert_qos_policy_fields();
        let diags = if inert.is_empty() {
            Vec::new()
        } else {
            vec![inert_qos_policy(&t.spec.name, qos.name(), &inert)]
        };
        let lints = LintSummary::from_diagnostics(&diags);
        all_diags.extend(diags);

        let mut frames = Vec::new();
        let mut samples = Vec::new();
        let mut shed_frames = 0u64;
        for slot in slots {
            match slot.expect("every pulled frame completed before done") {
                FrameOutcome::Executed {
                    report,
                    queue_ns,
                    exec_ns,
                } => {
                    samples.push(FrameLatency { queue_ns, exec_ns });
                    frames.push(*report);
                }
                FrameOutcome::Shed => shed_frames += 1,
            }
        }

        let stream = StreamReport {
            frames,
            solver_invocations: t.solves,
            bucketing: t.spec.bucketing,
        };
        solver_invocations += t.solves;
        class_cycles[c] += stream.total_cycles();
        class_shed[c] += shed_frames;
        class_degraded[c] += t.degraded_frames;
        let latency = LatencyStats::from_samples(&samples);
        class_samples[c].extend(samples);
        reports.push(TenantReport {
            id: t.id,
            name: t.spec.name,
            qos,
            stream,
            latency,
            shed_frames,
            degraded_frames: t.degraded_frames,
            error: t.error,
            lints,
        });
    }

    let classes = QosClass::ALL
        .into_iter()
        .map(|qos| {
            let c = qos.index();
            ClassReport {
                qos,
                tenants: class_tenants[c],
                latency: LatencyStats::from_samples(&class_samples[c]),
                total_cycles: class_cycles[c],
                shed_frames: class_shed[c],
                degraded_frames: class_degraded[c],
            }
        })
        .collect();

    ServerReport {
        tenants: reports,
        classes,
        admitted,
        rejected,
        queued_admissions,
        solver_invocations,
        workers,
        lints: LintSummary::from_diagnostics(&all_diags),
    }
}
