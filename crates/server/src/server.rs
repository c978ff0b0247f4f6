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
//!   scheduler thread compiles);
//! - the scheduler sleeps only when every pullable queue is full or
//!   only in-flight work remains, and a worker wakes it only when it
//!   has something to do: a pop that leaves its queue at or below half
//!   the bound, or a completion that finishes a tenant. Every notify
//!   comes after the mutex is released. On a `server-mix`-shaped fleet
//!   (64 tenants × 100 frames, one worker, pinned to one CPU) a served
//!   frame costs about 0.4 context switches;
//! - a frame's bookkeeping costs the same whatever the fleet's size:
//!   each tenant has one result slot per pulled frame, which the
//!   scheduler pushes when it enqueues the frame and the worker fills in
//!   place, so the slots become the tenant's [`StreamReport`] in order;
//!   and the scheduler releases the tenants on a list of finished ones,
//!   which the thread whose step finished a tenant pushes to under the
//!   lock it already holds, instead of scanning every tenant.
//!
//! The per-frame path is [`Session::stream`]'s: the scheduler calls the
//! same [`Session::compile_frame`] step (bucket, compile through the
//! cache, count the solves), and a worker runs
//! [`CompiledFrame::execute`] with the tenant's resolved options. So a
//! single admitted tenant's [`FrameReport`]s are bit-identical to
//! calling [`Session::stream`] directly. That is the server's
//! correctness anchor, pinned in `tests/server_qos.rs`.
//!
//! One step differs: the server simulates each
//! deterministic-termination design once per [`StreamServer::run`].
//! Such a design's report depends only on the design and the options
//! ([`CompiledPipeline::is_deterministic`]), so a frame on a DT design
//! that an earlier frame of the run already executed under equal
//! options, for any tenant, gets a clone of that report instead of an
//! engine run. The run's shared state keeps those reports: a worker
//! reads them under the lock it takes to pop and adds its own under the
//! lock it takes to record, so the dispatch handshake `crate::mc`
//! checks is unchanged. The reports go when their design leaves the
//! cache and its last queued frame, and all of them when the run
//! returns. Frames without DT always run an engine.
//!
//! [`CompiledPipeline:: execute`]: streamgrid_core::framework::CompiledPipeline::execute
//! [`Session`]: streamgrid_core::session::Session
//! [`Session::stream`]: streamgrid_core::session::Session::stream
//! [`Session::compile_frame`]: streamgrid_core::session::Session::compile_frame
//! [`CompiledFrame::execute`]: streamgrid_core::session::CompiledFrame::execute
//! [`SharedCache`]: streamgrid_core::cache::SharedCache
//! [`FrameReport`]: streamgrid_core::source::FrameReport
//! [`StreamReport`]: streamgrid_core::source::StreamReport
//! [`QosClass::Background`]: crate::QosClass::Background
//! [`QosClass::Interactive`]: crate::QosClass::Interactive

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use streamgrid_core::cache::SharedCache;
use streamgrid_core::framework::{CompiledPipeline, ExecuteOptions, ExecutionReport, StreamGrid};
use streamgrid_core::pipeline::CompileError;
use streamgrid_core::session::{CompiledFrame, Session};
use streamgrid_core::source::{FrameReport, FrameSource, SizeBucketing, StreamReport};

use streamgrid_core::framework::LintSummary;
use streamgrid_verify::inert_qos_policy;

use crate::admission::{AdmissionError, TokenLedger};
use crate::protocol::{
    admit_fifo, pop_wakes_scheduler, queued_admission, tenant_finished, wfq_pick, QueuedDecision,
};
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
    ///
    /// It also sets when workers wake the scheduler: the scheduler
    /// sleeps only once every pullable queue is full, and a worker wakes
    /// it when a pop leaves that queue at or below `queue_depth / 2`, or
    /// when a completion finishes a tenant. A deeper queue thus means
    /// fewer scheduler round trips per frame (the module docs give the
    /// measured rate at the default depth 4 with one worker).
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

/// What a worker produced for one job, written in place into the job's
/// slot in [`State::results`]. The report sits inline, though a `Shed`
/// outcome needs none of its bytes: a slot is written once and moved
/// once, into the tenant's [`StreamReport`], and boxing would cost an
/// allocation per frame.
#[allow(clippy::large_enum_variant)]
enum FrameOutcome {
    Executed {
        report: FrameReport,
        queue_ns: u64,
        exec_ns: u64,
    },
    Shed,
}

/// The scheduler↔worker shared state: class queues, WFQ counters,
/// per-tenant progress and result slots, and the finished tenants, all
/// behind one mutex with two condvars (`work` wakes workers, `space`
/// wakes the scheduler).
///
/// Every notify happens after the notifier released the mutex, so a
/// woken thread never runs only to block on a mutex its waker still
/// holds. The scheduler pushes one job and wakes one worker. A worker
/// wakes the scheduler only when its pop leaves that class queue at or
/// below half the bound ([`pop_wakes_scheduler`]) or its completion
/// finishes a tenant ([`tenant_finished`]); the scheduler refills every
/// pullable queue to full before it sleeps, so nothing else can give it
/// work (the module docs give the measured context switches per frame).
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
    /// Per tenant index: with the tenant's slot count, what a worker
    /// needs to tell whether its completion finished the tenant.
    progress: Vec<Progress>,
    /// Per tenant index, one slot per pulled frame, indexed by `seq`
    /// (so a tenant's slot count is the frames it pulled): the
    /// scheduler pushes an empty slot when it enqueues the frame, and
    /// the worker that completes the frame fills it. Each tenant's
    /// slots are reserved from its projection, so a tenant that pulls
    /// no more than it projected never grows them.
    results: Vec<Vec<Option<FrameOutcome>>>,
    /// Tenants finished since the scheduler's last harvest, each pushed
    /// once, by the step that finished it: a worker's completion
    /// ([`tenant_finished`]), or the scheduler marking exhausted a
    /// tenant with nothing in flight. Reserved for every tenant.
    finished: Vec<usize>,
    /// Reports of the DT designs executed so far in this run. A worker
    /// reads it under the lock it takes to pop and fills it under the
    /// lock it takes to record, so it adds no lock, wait or notify.
    memo: ReportMemo,
    /// Scheduler is finished; workers drain and exit.
    done: bool,
}

/// The reports workers made in one [`StreamServer::run`] for designs
/// under deterministic termination, so that each `(design, options)`
/// pair runs an engine once per run. Such a design's report depends
/// only on the design and the [`ExecuteOptions`]
/// ([`CompiledPipeline::is_deterministic`]), so a later frame on the
/// same compiled design (the same `Arc`) under equal options gets a
/// clone, whichever tenant it belongs to. Non-DT designs are never
/// kept: their seeded draw stands for content-dependent latency. The
/// memo lives in the run's [`State`] and goes with it.
#[derive(Default)]
struct ReportMemo {
    /// Keyed by the design's address.
    designs: HashMap<usize, DesignReports>,
    /// Entries left by the last prune of freed designs.
    pruned_len: usize,
}

/// One design's reports, one per distinct options value.
struct DesignReports {
    /// The keyed design. A `Weak` keeps the `Arc`'s allocation, so no
    /// other design can take its address while the entry lives, but
    /// not the design: one the cache evicts is freed once its last
    /// queued frame is done.
    design: Weak<CompiledPipeline>,
    reports: Vec<(ExecuteOptions, Arc<ExecutionReport>)>,
}

impl ReportMemo {
    /// The report an earlier frame made for `design` under `exec`, if
    /// `design` is deterministic and one did.
    fn get(
        &self,
        design: &Arc<CompiledPipeline>,
        exec: &ExecuteOptions,
    ) -> Option<Arc<ExecutionReport>> {
        if !design.is_deterministic() {
            return None;
        }
        let (_, report) = self
            .designs
            .get(&(Arc::as_ptr(design) as usize))?
            .reports
            .iter()
            .find(|(options, _)| options == exec)?;
        Some(Arc::clone(report))
    }

    /// Keeps `report`, an engine run of the deterministic `design`
    /// under `exec`, unless another worker already kept one. Once the
    /// memo has doubled since its last prune, a design new to it first
    /// drops the entries of freed designs: the memo stays within about
    /// twice the designs alive, at an amortized constant cost.
    fn insert(
        &mut self,
        design: &Arc<CompiledPipeline>,
        exec: &ExecuteOptions,
        report: Arc<ExecutionReport>,
    ) {
        let key = Arc::as_ptr(design) as usize;
        if self.designs.len() >= 2 * self.pruned_len.max(8) && !self.designs.contains_key(&key) {
            self.designs
                .retain(|_, kept| kept.design.strong_count() > 0);
            self.pruned_len = self.designs.len();
        }
        let kept = self.designs.entry(key).or_insert_with(|| DesignReports {
            design: Arc::downgrade(design),
            reports: Vec::new(),
        });
        if !kept.reports.iter().any(|(options, _)| options == exec) {
            kept.reports.push((*exec, report));
        }
    }
}

/// One tenant's completion state. Only the scheduler sets `exhausted`,
/// and only workers bump `completed`, all under the mutex. The frames
/// it pulled are its result slots (a frame whose compile failed is
/// never enqueued and has none).
#[derive(Debug, Clone, Copy, Default)]
struct Progress {
    /// Frames completed (executed or shed).
    completed: u64,
    /// The source returned `None`, `max_frames` hit, or a compile
    /// failed: no more pulls.
    exhausted: bool,
}

impl State {
    /// Whether tenant `i` is finished: exhausted, with every frame it
    /// pulled completed ([`tenant_finished`]).
    fn has_finished(&self, i: usize) -> bool {
        let progress = self.progress[i];
        tenant_finished(
            progress.exhausted,
            self.results[i].len() as u64,
            progress.completed,
        )
    }
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
                progress: vec![Progress::default(); tenants.len()],
                results: tenants
                    .iter()
                    .map(|t| Vec::with_capacity(t.projected.min(MAX_RESERVED_SLOTS) as usize))
                    .collect(),
                finished: Vec::with_capacity(tenants.len()),
                memo: ReportMemo::default(),
                done: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
        };

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| worker_loop(&shared, queue_depth)))
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

        debug_assert_eq!(ledger.committed(), 0, "every tenant released its tokens");
        let state = shared
            .state
            .into_inner()
            .expect("no scheduler or worker panicked");
        assemble_report(state, tenants, self.rejected, workers)
    }
}

/// Result slots reserved per tenant at most: a source's frame hint can
/// overstate what it yields, and slots past this grow as frames come.
const MAX_RESERVED_SLOTS: u64 = 1024;

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
    // Tenants not yet released, waitlisted ones included.
    let mut live = tenants.len();
    loop {
        let mut st = shared.state.lock().expect("workers do not panic");
        let i = loop {
            // Phase A (locked): harvest finishes — release the tokens of
            // each tenant finished since the last harvest, and admit
            // waitlisted tenants FIFO while their projections fit.
            for i in st.finished.drain(..) {
                ledger.release(projections[i]);
                live -= 1;
            }
            for i in admit_fifo(ledger, waitlist, |i| projections[i]) {
                tenants[i].active = true;
            }

            // Done when every tenant, waitlisted ones included, has
            // finished. (A waitlisted tenant always eventually fits:
            // `submit_queued` rejects projections above total capacity,
            // and a drained server has every token free.)
            if live == 0 {
                st.done = true;
                drop(st);
                shared.work.notify_all();
                return;
            }

            // Phase B (locked): pick a pullable tenant — admitted, not
            // exhausted, class queue below its bound — scanning
            // round-robin from a cursor so no tenant monopolizes the
            // pull. The space check IS the backpressure: a backed-up
            // class stops being pulled without blocking anyone else.
            let pick = (cursor..tenants.len()).chain(0..cursor).find(|&i| {
                let t = &tenants[i];
                t.active
                    && !st.progress[i].exhausted
                    && st.queues[t.spec.qos.index()].len() < queue_depth
            });
            match pick {
                Some(i) => break i,
                // Every pullable queue is full, or only in-flight work
                // remains: sleep until a pop drains a queue to its
                // watermark or a completion finishes a tenant, then
                // re-evaluate from the top.
                None => st = shared.space.wait(st).expect("workers do not panic"),
            }
        };
        cursor = (i + 1) % tenants.len();
        // Capture the pressure signal while still locked: a Background
        // pull degrades while its queue sits at least half full. A
        // tenant-level policy overrides the server-wide one (and is
        // honored only for classes that degrade at all — elsewhere it
        // is inert and flagged SG006 on the report).
        let t = &tenants[i];
        let class = t.spec.qos.index();
        let degraded_bucketing = t.spec.degraded_bucketing.or(config.degraded_bucketing);
        let under_pressure = degraded_bucketing.is_some()
            && t.spec.qos.degrades_under_pressure()
            && 2 * st.queues[class].len() >= queue_depth;
        // Only the scheduler enqueues, so this stays the next frame's
        // sequence number while unlocked.
        let seq = st.results[i].len() as u64;
        drop(st);

        // Phase C (unlocked): pull and compile. The ILP solve can be
        // long and workers keep draining meanwhile; only the scheduler
        // pushes, so the queue space just observed cannot vanish.
        let t = &mut tenants[i];
        let frame = if t.spec.max_frames.is_some_and(|max| seq >= max) {
            None
        } else {
            t.source.next_frame()
        };
        let bucketing = match (under_pressure, degraded_bucketing) {
            (true, Some(degraded)) => degraded,
            _ => t.spec.bucketing,
        };
        let compiled = match frame.map(|frame| t.session.compile_frame(frame, bucketing)) {
            Some(Ok(frame)) => Some(frame),
            Some(Err(err)) => {
                // The tenant dies; the server does not. Frames already
                // in flight still complete and land on its report.
                t.error = Some(err);
                None
            }
            None => None,
        };
        let Some(frame) = compiled else {
            // No more pulls. A worker finishing the tenant's last
            // in-flight frame from now on lists it as finished and wakes
            // the scheduler; if none is in flight, the tenant is
            // finished now, and the next harvest releases it.
            let mut st = shared.state.lock().expect("workers do not panic");
            st.progress[i].exhausted = true;
            if st.has_finished(i) {
                st.finished.push(i);
            }
            continue;
        };
        t.solves += frame.solves;
        t.degraded_frames += u64::from(under_pressure);
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

        // Phase D (locked): enqueue, with the slot its worker fills;
        // wake one worker once unlocked.
        let mut st = shared.state.lock().expect("workers do not panic");
        st.queues[class].push_back(job);
        st.results[i].push(None);
        drop(st);
        shared.work.notify_one();
    }
}

/// Workers: WFQ-pick a job, execute (or shed) it, and record the
/// outcome, waking the scheduler only when it has something to do. A
/// job on a DT design that an earlier job already ran under the same
/// options copies that run's report instead of running an engine.
fn worker_loop(shared: &SyncState, queue_depth: usize) {
    loop {
        let mut st = shared.state.lock().expect("scheduler does not panic");
        let (job, left) = loop {
            if let Some(popped) = pick_job(&mut st) {
                break popped;
            }
            if st.done {
                return;
            }
            st = shared.work.wait(st).expect("scheduler does not panic");
        };
        let known = st.memo.get(&job.frame.design, &job.exec);
        drop(st);
        // A sleeping scheduler left every pullable queue full; it has
        // work again once this one has drained to its watermark.
        if pop_wakes_scheduler(left, queue_depth) {
            shared.space.notify_one();
        }

        // One clock read ends the queue wait and starts the exec timing.
        let picked = Instant::now();
        let waited = picked.duration_since(job.enqueued);
        let queue_ns = waited.as_nanos() as u64;
        let mut fresh = None;
        let outcome = match job.shed_deadline {
            Some(deadline) if waited > deadline => FrameOutcome::Shed,
            _ => {
                let report = match &known {
                    Some(report) => FrameReport {
                        frame: job.frame.frame,
                        scheduled_elements: job.frame.scheduled_elements,
                        report: ExecutionReport::clone(report),
                    },
                    None => job.frame.execute(&job.exec),
                };
                let exec_ns = picked.elapsed().as_nanos() as u64;
                if known.is_none() && job.frame.design.is_deterministic() {
                    fresh = Some(Arc::new(report.report.clone()));
                }
                FrameOutcome::Executed {
                    report,
                    queue_ns,
                    exec_ns,
                }
            }
        };

        let mut st = shared.state.lock().expect("scheduler does not panic");
        if let Some(report) = fresh {
            st.memo.insert(&job.frame.design, &job.exec, report);
        }
        st.results[job.tenant][job.seq as usize] = Some(outcome);
        st.progress[job.tenant].completed += 1;
        // Harvest and waitlist admission act only on finished tenants,
        // so no other completion gives the scheduler anything to do.
        let finished = st.has_finished(job.tenant);
        if finished {
            st.finished.push(job.tenant);
        }
        drop(st);
        if finished {
            shared.space.notify_one();
        }
    }
}

/// Weighted fair pick: [`wfq_pick`] chooses the class (smallest
/// `served/weight`, ties to the higher-priority class), the worker
/// dispatches its queue head. Returns the job and how many jobs its
/// class queue still holds. The pick function is the one
/// `crate::mc::check_wfq` model-checks.
fn pick_job(st: &mut State) -> Option<(Job, usize)> {
    let nonempty = [
        !st.queues[0].is_empty(),
        !st.queues[1].is_empty(),
        !st.queues[2].is_empty(),
    ];
    let c = wfq_pick(nonempty, &st.served)?;
    st.served[c] += 1;
    let job = st.queues[c].pop_front()?;
    Some((job, st.queues[c].len()))
}

/// Folds the run's raw state into the [`ServerReport`]: each tenant's
/// result slots, in seq order, become its [`StreamReport`].
fn assemble_report(
    state: State,
    tenants: Vec<Tenant>,
    rejected: u64,
    workers: usize,
) -> ServerReport {
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
    for (slots, t) in state.results.into_iter().zip(tenants) {
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

        let mut frames = Vec::with_capacity(slots.len());
        let mut samples = Vec::with_capacity(slots.len());
        let mut shed_frames = 0u64;
        for slot in slots {
            match slot.expect("every pulled frame completed before done") {
                FrameOutcome::Executed {
                    report,
                    queue_ns,
                    exec_ns,
                } => {
                    samples.push(FrameLatency { queue_ns, exec_ns });
                    frames.push(report);
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

#[cfg(test)]
mod tests {
    use super::*;
    use streamgrid_core::apps::AppDomain;
    use streamgrid_core::transform::{SplitConfig, StreamGridConfig};

    #[test]
    fn memo_keeps_live_designs_and_drops_freed_ones() {
        let domain = AppDomain::Classification;
        let design = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)))
            .compile(domain, 1200)
            .expect("preset compiles");
        let exec = ExecuteOptions::for_domain(domain);
        let heavy = ExecuteOptions {
            macs_per_element: 2.0 * exec.macs_per_element,
            ..exec
        };
        let report = Arc::new(design.execute(&exec));
        let mut memo = ReportMemo::default();
        let live: Vec<Arc<CompiledPipeline>> = (0..40).map(|_| Arc::new(design.clone())).collect();
        for d in &live {
            memo.insert(d, &exec, Arc::clone(&report));
        }
        for _ in 0..400 {
            let freed = Arc::new(design.clone());
            memo.insert(&freed, &exec, Arc::clone(&report));
            assert!(memo.get(&freed, &exec).is_some());
            assert!(memo.get(&freed, &heavy).is_none());
        }
        assert!(live.iter().all(|d| memo.get(d, &exec).is_some()));
        assert!(
            memo.designs.len() <= 2 * live.len(),
            "{} entries for {} live designs",
            memo.designs.len(),
            live.len()
        );
    }
}
