//! Pluggable, shareable schedule caches behind [`crate::session::Session`].
//!
//! An ILP solve is the expensive step of the compile→execute flow, and
//! its output — a [`streamgrid_optimizer::Schedule`] — is a pure
//! function of `(pipeline spec, transform config, chunk size)`. That
//! makes solved schedules a *reusable resource*: across repeated runs,
//! across concurrent sessions, and across processes. This module is the
//! seam that decides the reuse scope:
//!
//! * [`InMemoryCache`] — one session's private map (the default; the
//!   pre-existing `Session` behavior);
//! * [`SharedCache`] — an `Arc`-shared [`InMemoryCache`], so N sessions
//!   over the same spec/config pay **one** solve between them;
//! * [`FileCache`] — schedules persisted as hand-rolled JSON
//!   ([`streamgrid_optimizer::json`]), so a *fresh process* over a warm
//!   directory pays **zero** solves.
//!
//! Solver accounting lives here too: [`ScheduleCache::solver_invocations`]
//! counts the solves a cache actually paid, which is what makes
//! shared-cache and warm-file-cache hits observable in tests and bench
//! reports.
//!
//! The in-memory tiers are unbounded by default but accept a capacity
//! ([`InMemoryCache::with_capacity`] / [`SharedCache::with_capacity`]):
//! past it the least-recently-requested design is evicted, so a
//! long-lived server streaming many specs × bucket sizes holds a bounded
//! working set and re-solves only what it actually stopped using.
//!
//! # Examples
//!
//! Two sessions sharing one cache pay one solve between them:
//!
//! ```
//! use streamgrid_core::apps::AppDomain;
//! use streamgrid_core::cache::{ScheduleCache, SharedCache};
//! use streamgrid_core::framework::StreamGrid;
//! use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
//!
//! let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
//! let shared = SharedCache::new();
//! let mut a = fw
//!     .session_builder(AppDomain::Classification.spec())
//!     .with_cache(shared.clone())
//!     .build();
//! let mut b = fw
//!     .session_builder(AppDomain::Classification.spec())
//!     .with_cache(shared.clone())
//!     .build();
//! a.run(4 * 300).unwrap();
//! b.run(4 * 300).unwrap(); // hits the schedule `a` already solved
//! assert_eq!(shared.solver_invocations(), 1);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::hash::{BuildHasherDefault, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use streamgrid_dataflow::DataflowGraph;
use streamgrid_optimizer::json::{self, JsonValue};

use crate::framework::{CompileSummary, CompiledPipeline, StreamGrid};
use crate::pipeline::{CompileError, PipelineSpec};
use crate::transform::StreamGridConfig;

/// A split configuration flattened to hashable integers: grid dims plus
/// window kernel and stride.
type SplitKey = (u32, u32, u32, (u32, u32, u32), (u32, u32, u32));

/// Hashable fingerprint of a [`StreamGridConfig`] (the config carries an
/// `f64` deadline, so it cannot derive `Eq`/`Hash` itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ConfigKey {
    splitting: Option<SplitKey>,
    termination: Option<u64>,
}

impl ConfigKey {
    pub(crate) fn of(config: &StreamGridConfig) -> Self {
        ConfigKey {
            splitting: config.splitting.map(|s| {
                (
                    s.dims.nx,
                    s.dims.ny,
                    s.dims.nz,
                    s.window.kernel,
                    s.window.stride,
                )
            }),
            termination: config.termination.map(|t| t.deadline_fraction.to_bits()),
        }
    }
}

/// FNV-1a over a byte string — a stable, process-independent hash
/// (`std`'s `Hasher`s are seeded per process, so they cannot name cache
/// files).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Stable textual identity of a [`PipelineSpec`]: covers the name, the
/// graph structure (every Tbl. 1 parameter), and the datapath
/// intensity. The [`CacheKey`] fingerprint hashes this string; caches
/// compare the string itself on in-memory hits, so a 64-bit hash
/// collision between two different specs can cost an extra solve but
/// never serves the wrong design. Shared: a session computes it once,
/// and every design its cache keeps holds the same string.
pub(crate) fn spec_repr(spec: &PipelineSpec) -> Arc<str> {
    format!("{spec:?}").into()
}

/// FNV-1a fingerprint of a [`spec_repr`] string.
pub(crate) fn spec_fingerprint(repr: &str) -> u64 {
    fnv1a(repr.as_bytes())
}

/// The identity of one compiled design: which spec, which transform
/// config, which chunk size. Two compile requests with equal keys are
/// guaranteed to produce bit-identical [`CompiledPipeline`]s, so a cache
/// may serve either's result for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    spec_fingerprint: u64,
    config: ConfigKey,
    chunk_elements: u64,
}

impl CacheKey {
    /// Elements per chunk the keyed design provisions.
    pub fn chunk_elements(&self) -> u64 {
        self.chunk_elements
    }

    /// A process-independent file stem for this key (what [`FileCache`]
    /// names its entries) — stable across runs and binaries.
    pub fn file_stem(&self) -> String {
        let config_hash = fnv1a(format!("{:?}", self.config).as_bytes());
        format!(
            "{:016x}-{:016x}-{}",
            self.spec_fingerprint, config_hash, self.chunk_elements
        )
    }
}

/// One compile a cache has been asked to satisfy: the key plus
/// everything needed to actually produce the design — by paying a solve
/// ([`CompileRequest::solve`]) or by rebuilding around a persisted
/// schedule ([`CompileRequest::rebuild`]).
#[derive(Debug)]
pub struct CompileRequest<'a> {
    /// The spec's graph under `config`'s transform.
    graph: Arc<DataflowGraph>,
    spec_repr: &'a Arc<str>,
    config: &'a StreamGridConfig,
    scheduled_elements: u64,
    key: CacheKey,
}

impl<'a> CompileRequest<'a> {
    pub(crate) fn new(
        graph: Arc<DataflowGraph>,
        spec_repr: &'a Arc<str>,
        fingerprint: u64,
        config: &'a StreamGridConfig,
        scheduled_elements: u64,
    ) -> Self {
        // The key must be the chunk size the compile provisions, so both
        // take it from the config.
        let chunk_elements = config.chunk_elements(scheduled_elements);
        CompileRequest {
            graph,
            spec_repr,
            config,
            scheduled_elements,
            key: CacheKey {
                spec_fingerprint: fingerprint,
                config: ConfigKey::of(config),
                chunk_elements,
            },
        }
    }

    /// The request's cache key.
    pub fn key(&self) -> CacheKey {
        self.key
    }

    /// The spec's full textual identity (what the key's fingerprint
    /// hashes). In-memory caches compare this on a hit so a fingerprint
    /// collision between different specs is detected instead of served.
    pub fn spec_repr(&self) -> &str {
        self.spec_repr
    }

    /// Source elements the design must cover (the frame's bucket).
    pub fn scheduled_elements(&self) -> u64 {
        self.scheduled_elements
    }

    /// Compiles from scratch — exactly one ILP solve. A cache that calls
    /// this must count it in [`ScheduleCache::solver_invocations`].
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the compile path.
    pub fn solve(&self) -> Result<CompiledPipeline, CompileError> {
        StreamGrid::new(*self.config)
            .compile_transformed(Arc::clone(&self.graph), self.scheduled_elements)
    }

    /// Rebuilds the design around an already-solved `schedule` — zero
    /// ILP solves, one certificate. `None` when the schedule does not
    /// fit this request's transformed graph (the persisted entry is
    /// stale or foreign), when its stored buffer total is not the sum of
    /// its buffers, or when its buffers do not certify (the entry is
    /// corrupt); the caller falls back to [`CompileRequest::solve`].
    pub fn rebuild(&self, schedule: streamgrid_optimizer::Schedule) -> Option<CompiledPipeline> {
        StreamGrid::new(*self.config).rebuild_transformed(
            Arc::clone(&self.graph),
            self.scheduled_elements,
            schedule,
        )
    }
}

/// A cache of compiled designs keyed by [`CacheKey`].
///
/// A [`crate::session::Session`] routes every compile through its cache;
/// the cache decides whether to serve a stored design, load a persisted
/// schedule, or pay a fresh ILP solve. Implementations use interior
/// mutability (`&self` receivers) so one cache can be shared across
/// sessions and threads.
///
/// Implementors must uphold two contracts:
///
/// * a request is satisfied either by a design previously produced for
///   the **same spec, config, and chunk size** or by `req.solve()` /
///   `req.rebuild(...)` — never by a design from a different pipeline.
///   The key's fingerprint is a 64-bit hash, so an in-memory hit must
///   additionally compare [`CompileRequest::spec_repr`] (a collision
///   then costs an extra solve, never a wrong design); a persistent hit
///   must validate the loaded entry against a fresh derivation, as
///   [`FileCache`] does;
/// * [`ScheduleCache::solver_invocations`] counts exactly the
///   [`CompileRequest::solve`] calls the cache performed (cache hits and
///   successful rebuilds are free).
pub trait ScheduleCache: fmt::Debug + Send + Sync {
    /// Returns the compiled design for `req`, from cache if possible,
    /// paying at most one ILP solve otherwise.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] when a required fresh compile fails.
    fn get_or_compile(
        &self,
        req: &CompileRequest<'_>,
    ) -> Result<Arc<CompiledPipeline>, CompileError>;

    /// ILP solves this cache has paid (monotone; shared caches report
    /// the total across every session using them).
    fn solver_invocations(&self) -> u64;

    /// Distinct compiled designs resident in memory.
    fn compiled_count(&self) -> usize;
}

/// One resident design plus the full spec identity it was compiled
/// from: hits compare the identity string, so a [`CacheKey`]
/// fingerprint collision is detected (and re-solved) instead of served.
#[derive(Debug, Clone)]
struct CachedDesign {
    spec_repr: Arc<str>,
    compiled: Arc<CompiledPipeline>,
}

impl CachedDesign {
    /// `compiled`, solved or loaded for `req`, under `req`'s spec
    /// identity (shared with the session, not copied).
    fn new(req: &CompileRequest<'_>, compiled: Arc<CompiledPipeline>) -> Self {
        CachedDesign {
            spec_repr: Arc::clone(req.spec_repr),
            compiled,
        }
    }

    /// The design, if `req` names the same spec. A request from the
    /// session that filled the slot shares its identity string, so the
    /// pointer compare answers without reading the string.
    fn matching(&self, req: &CompileRequest<'_>) -> Option<Arc<CompiledPipeline>> {
        (Arc::ptr_eq(&self.spec_repr, req.spec_repr) || *self.spec_repr == **req.spec_repr)
            .then(|| Arc::clone(&self.compiled))
    }
}

/// The slot map's hasher: one rotate, xor and multiply per word (the
/// FxHash scheme), and a final rotate that brings the product's mixed
/// high bits down to the bucket index. It takes no random key, so it
/// is no defense against chosen keys. A [`CacheKey`] is the library's
/// own spec fingerprint, config and chunk size; a source's frame sizes
/// set the chunk size, but every new key costs an ILP solve, far more
/// than any probe a crafted collision adds.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A per-key slot map: the outer lock is held only long enough to hand
/// out a slot, and each miss solves under its own slot's lock — so
/// concurrent requests for the *same* key serialize into one solve
/// while requests for *distinct* keys solve concurrently.
type Slot = Arc<Mutex<Option<CachedDesign>>>;

/// One keyed slot plus its recency stamp (bumped on every hand-out, so
/// hits and misses both count as "use" for LRU purposes).
#[derive(Debug, Default)]
struct SlotEntry {
    slot: Slot,
    last_used: AtomicU64,
}

#[derive(Debug, Default)]
struct SlotMap {
    slots: Mutex<HashMap<CacheKey, SlotEntry, BuildHasherDefault<KeyHasher>>>,
    /// Monotone logical clock feeding the recency stamps.
    tick: AtomicU64,
    /// Resident-design bound; `None` grows without limit (the historic
    /// behavior, and what [`FileCache`]'s memo layer keeps).
    capacity: Option<usize>,
}

impl SlotMap {
    fn bounded(capacity: usize) -> Self {
        SlotMap {
            capacity: Some(capacity.max(1)),
            ..SlotMap::default()
        }
    }

    /// The slot for `key`, stamped as just used. A resident key is
    /// served by a lookup; only a new key inserts.
    fn slot(&self, key: CacheKey) -> Slot {
        let mut slots = self.slots.lock().expect("slot map lock is panic-free");
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        let entry = match slots.get(&key) {
            Some(entry) => entry,
            None => slots.entry(key).or_default(),
        };
        entry.last_used.store(stamp, Ordering::Relaxed);
        Arc::clone(&entry.slot)
    }

    /// Evicts least-recently-used designs until at most `capacity`
    /// remain resident. Only considers slots whose lock is free — a
    /// slot mid-compile is untouchable (evicting it would discard a
    /// solve in flight), and `try_lock` keeps this from ever stalling
    /// another key's compile.
    fn enforce_capacity(&self) {
        let Some(cap) = self.capacity else { return };
        let mut slots = self.slots.lock().expect("slot map lock is panic-free");
        loop {
            let mut filled = 0usize;
            let mut victim: Option<(CacheKey, u64)> = None;
            for (key, entry) in slots.iter() {
                let Ok(guard) = entry.slot.try_lock() else {
                    continue;
                };
                if guard.is_none() {
                    continue;
                }
                filled += 1;
                let stamp = entry.last_used.load(Ordering::Relaxed);
                if victim.is_none_or(|(_, s)| stamp < s) {
                    victim = Some((*key, stamp));
                }
            }
            if filled <= cap {
                return;
            }
            let (key, _) = victim.expect("filled > cap implies a candidate");
            slots.remove(&key);
        }
    }

    /// Filled slots (a slot created by an in-flight or failed compile
    /// holds nothing and does not count). Snapshots the slot handles and
    /// releases the outer lock before inspecting them, and only
    /// `try_lock`s each slot — a slot whose compile is in flight is not
    /// filled yet, and counting must never stall another key's compile.
    fn filled(&self) -> usize {
        let handles: Vec<Slot> = {
            let slots = self.slots.lock().expect("slot map lock is panic-free");
            slots.values().map(|e| Arc::clone(&e.slot)).collect()
        };
        handles
            .iter()
            .filter(|s| s.try_lock().is_ok_and(|slot| slot.is_some()))
            .count()
    }
}

/// The default cache: a private in-memory map, giving a session exactly
/// the semantics it had before caches became pluggable — one solve per
/// distinct key over the session's lifetime.
///
/// Misses solve under a per-key lock: concurrent requests for the same
/// key (through [`SharedCache`]) serialize into one solve instead of
/// racing to duplicate it, while distinct keys compile concurrently.
#[derive(Debug, Default)]
pub struct InMemoryCache {
    entries: SlotMap,
    solves: AtomicU64,
}

impl InMemoryCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        InMemoryCache::default()
    }

    /// An empty cache holding at most `capacity` resident designs
    /// (clamped to ≥ 1). Beyond that, the least-recently-*requested*
    /// design is evicted and a later request for its key re-solves —
    /// the bound long-lived servers need so distinct specs × bucket
    /// sizes cannot grow the cache without limit.
    pub fn with_capacity(capacity: usize) -> Self {
        InMemoryCache {
            entries: SlotMap::bounded(capacity),
            solves: AtomicU64::new(0),
        }
    }
}

impl ScheduleCache for InMemoryCache {
    fn get_or_compile(
        &self,
        req: &CompileRequest<'_>,
    ) -> Result<Arc<CompiledPipeline>, CompileError> {
        let slot = self.entries.slot(req.key());
        let mut entry = slot.lock().expect("no panics while compiling");
        if let Some(hit) = entry.as_ref().and_then(|e| e.matching(req)) {
            return Ok(hit);
        }
        // Miss — or a fingerprint collision with a different spec, which
        // we overwrite (correctness over retention; colliding specs
        // alternate solves, they never share a design).
        let compiled = Arc::new(req.solve()?);
        self.solves.fetch_add(1, Ordering::Relaxed);
        *entry = Some(CachedDesign::new(req, Arc::clone(&compiled)));
        // Release the slot before enforcing the bound: the slot we just
        // filled must be visible (and evictable) to the LRU sweep.
        drop(entry);
        self.entries.enforce_capacity();
        Ok(compiled)
    }

    fn solver_invocations(&self) -> u64 {
        self.solves.load(Ordering::Relaxed)
    }

    fn compiled_count(&self) -> usize {
        self.entries.filled()
    }
}

/// An [`InMemoryCache`] behind an `Arc`: clone it into any number of
/// sessions (or threads) and they share one schedule pool — N sessions
/// over the same spec/config pay one ILP solve total.
///
/// ```
/// use streamgrid_core::apps::AppDomain;
/// use streamgrid_core::cache::{ScheduleCache, SharedCache};
/// use streamgrid_core::framework::StreamGrid;
/// use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
///
/// let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
/// let shared = SharedCache::new();
/// for _ in 0..3 {
///     let mut session = fw
///         .session_builder(AppDomain::Registration.spec())
///         .with_cache(shared.clone())
///         .build();
///     assert!(session.run(4 * 400).unwrap().is_clean());
/// }
/// assert_eq!(shared.solver_invocations(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedCache {
    inner: Arc<InMemoryCache>,
}

impl SharedCache {
    /// An empty shared cache; clones share its storage and accounting.
    pub fn new() -> Self {
        SharedCache::default()
    }

    /// A shared cache bounded to `capacity` resident designs, LRU
    /// evicted (see [`InMemoryCache::with_capacity`]); clones share the
    /// storage, the bound, and the accounting.
    pub fn with_capacity(capacity: usize) -> Self {
        SharedCache {
            inner: Arc::new(InMemoryCache::with_capacity(capacity)),
        }
    }
}

impl ScheduleCache for SharedCache {
    fn get_or_compile(
        &self,
        req: &CompileRequest<'_>,
    ) -> Result<Arc<CompiledPipeline>, CompileError> {
        self.inner.get_or_compile(req)
    }

    fn solver_invocations(&self) -> u64 {
        self.inner.solver_invocations()
    }

    fn compiled_count(&self) -> usize {
        self.inner.compiled_count()
    }
}

/// Format version of [`FileCache`] entries; bump on layout changes so
/// old files fall back to a clean solve instead of misparsing, and on
/// solver changes that return a different optimal vertex, so a warm
/// directory never reports other start cycles than a cold solve of the
/// same key. Version 2 adds `lp_iterations` to the summary; version 3
/// marks schedules solved with the ILP's integer-row presolve, whose
/// optima equal the old ones but whose vertices, node and pivot counts
/// may not.
const FILE_FORMAT_VERSION: u64 = 3;

/// A schedule cache persisted to a directory, one JSON file per key —
/// the cross-process tier: a bench sweep (or any fresh binary) pointed
/// at a warm directory reuses every solve a previous process paid.
///
/// Each entry stores the final [`streamgrid_optimizer::Schedule`], the
/// derived edge constants, and the [`CompileSummary`], all through the
/// hand-rolled [`streamgrid_optimizer::json`] codec (the vendored serde
/// cannot deserialize). On load the entry is verified against a fresh
/// derivation — edges and summary must match exactly, the stored buffer
/// total must be the sum of the buffers, and the buffers must certify —
/// so a stale, corrupt, or truncated file is silently treated as a miss
/// and re-solved, never an error. Writes are best-effort: an unwritable
/// directory degrades to in-memory caching.
///
/// ```no_run
/// use streamgrid_core::apps::AppDomain;
/// use streamgrid_core::cache::{FileCache, ScheduleCache};
/// use streamgrid_core::framework::StreamGrid;
/// use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
///
/// let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
/// // First process: pays the solve and persists it.
/// let mut cold = fw
///     .session_builder(AppDomain::Classification.spec())
///     .with_cache(FileCache::new("schedule-cache"))
///     .build();
/// cold.run(4 * 300).unwrap();
/// // A later process over the same directory pays zero solves.
/// let warm_cache = FileCache::new("schedule-cache");
/// let mut warm = fw
///     .session_builder(AppDomain::Classification.spec())
///     .with_cache(warm_cache)
///     .build();
/// warm.run(4 * 300).unwrap();
/// assert_eq!(warm.solver_invocations(), 0);
/// ```
#[derive(Debug)]
pub struct FileCache {
    dir: PathBuf,
    memory: SlotMap,
    solves: AtomicU64,
}

impl FileCache {
    /// A cache over `dir` (created on first write). Loaded and solved
    /// designs are additionally memoized in memory, so repeated requests
    /// in one process re-read nothing.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FileCache {
            dir: dir.into(),
            memory: SlotMap::default(),
            solves: AtomicU64::new(0),
        }
    }

    /// The directory entries persist under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("schedule-{}.json", key.file_stem()))
    }

    /// Attempts to reconstitute a compiled design from the persisted
    /// entry. Any failure — missing file, malformed JSON, version or key
    /// mismatch, schedule that no longer fits or certifies, edge or
    /// summary drift — returns `None` and the caller re-solves.
    fn load(&self, req: &CompileRequest<'_>) -> Option<CompiledPipeline> {
        let text = fs::read_to_string(self.path_for(&req.key())).ok()?;
        let doc = json::parse(&text).ok()?;
        (doc.get("version")?.as_u64()? == FILE_FORMAT_VERSION).then_some(())?;
        (doc.get("chunk_elements")?.as_u64()? == req.key().chunk_elements()).then_some(())?;
        let schedule = json::schedule_from_json(doc.get("schedule")?)?;
        let edges = json::edge_infos_from_json(doc.get("edges")?)?;
        let summary = summary_from_json(doc.get("summary")?)?;
        let compiled = req.rebuild(schedule)?;
        // The persisted derivation must match a fresh one exactly —
        // otherwise the file came from a different spec/config than its
        // name claims (or the formats drifted) and trusting it would
        // poison every downstream report.
        (compiled.edges == edges).then_some(())?;
        (compiled.summary() == summary).then_some(())?;
        Some(compiled)
    }

    /// Persists a freshly solved design, best-effort. The entry is
    /// written to a temp file and renamed into place, so a crash (or a
    /// concurrent process over the same directory) never publishes a
    /// torn entry — readers see either the old complete file or the new
    /// one.
    fn store(&self, req: &CompileRequest<'_>, compiled: &CompiledPipeline) {
        let entry = format!(
            "{{\"version\": {}, \"chunk_elements\": {}, \"summary\": {}, \
             \"schedule\": {}, \"edges\": {}}}\n",
            FILE_FORMAT_VERSION,
            req.key().chunk_elements(),
            summary_to_json(&compiled.summary()),
            json::schedule_to_json(&compiled.schedule),
            json::edge_infos_to_json(&compiled.edges),
        );
        let _ = fs::create_dir_all(&self.dir);
        let path = self.path_for(&req.key());
        // pid distinguishes processes sharing the directory; the counter
        // distinguishes FileCache instances (and writes) within one
        // process — two writers must never interleave on one temp path.
        static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "tmp-{}-{}",
            std::process::id(),
            WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::write(&tmp, entry).is_ok() && fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
        }
    }
}

impl ScheduleCache for FileCache {
    fn get_or_compile(
        &self,
        req: &CompileRequest<'_>,
    ) -> Result<Arc<CompiledPipeline>, CompileError> {
        let slot = self.memory.slot(req.key());
        let mut entry = slot.lock().expect("no panics while compiling");
        if let Some(hit) = entry.as_ref().and_then(|e| e.matching(req)) {
            return Ok(hit);
        }
        if let Some(loaded) = self.load(req) {
            let loaded = Arc::new(loaded);
            *entry = Some(CachedDesign::new(req, Arc::clone(&loaded)));
            return Ok(loaded);
        }
        let compiled = Arc::new(req.solve()?);
        self.solves.fetch_add(1, Ordering::Relaxed);
        self.store(req, &compiled);
        *entry = Some(CachedDesign::new(req, Arc::clone(&compiled)));
        Ok(compiled)
    }

    fn solver_invocations(&self) -> u64 {
        self.solves.load(Ordering::Relaxed)
    }

    fn compiled_count(&self) -> usize {
        self.memory.filled()
    }
}

fn summary_to_json(summary: &CompileSummary) -> String {
    format!(
        "{{\"onchip_bytes\": {}, \"total_cycles\": {}, \"constraints\": {}, \
         \"solver_nodes\": {}, \"lp_iterations\": {}}}",
        summary.onchip_bytes,
        summary.total_cycles,
        summary.constraints,
        summary.solver_nodes,
        summary.lp_iterations,
    )
}

fn summary_from_json(value: &JsonValue) -> Option<CompileSummary> {
    Some(CompileSummary {
        onchip_bytes: value.get("onchip_bytes")?.as_u64()?,
        total_cycles: value.get("total_cycles")?.as_u64()?,
        constraints: value.get("constraints")?.as_usize()?,
        solver_nodes: value.get("solver_nodes")?.as_u64()?,
        lp_iterations: value.get("lp_iterations")?.as_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppDomain;
    use crate::transform::SplitConfig;

    fn csdt4() -> StreamGridConfig {
        StreamGridConfig::cs_dt(SplitConfig::linear(4, 2))
    }

    fn request<'a>(
        spec: &'a PipelineSpec,
        repr: &'a Arc<str>,
        config: &'a StreamGridConfig,
        elements: u64,
    ) -> CompileRequest<'a> {
        let graph = StreamGrid::new(*config).transform(spec);
        CompileRequest::new(graph, repr, spec_fingerprint(repr), config, elements)
    }

    #[test]
    fn keys_fold_equal_chunkings_and_split_on_config() {
        let spec = AppDomain::Classification.spec();
        let repr = spec_repr(&spec);
        let csdt = csdt4();
        let base = StreamGridConfig::base();
        // 2397 and 2400 both round up to 600-element chunks.
        assert_eq!(
            request(&spec, &repr, &csdt, 2400).key(),
            request(&spec, &repr, &csdt, 2397).key()
        );
        assert_ne!(
            request(&spec, &repr, &csdt, 2400).key(),
            request(&spec, &repr, &csdt, 2401).key()
        );
        assert_ne!(
            request(&spec, &repr, &csdt, 2400).key(),
            request(&spec, &repr, &base, 2400).key()
        );
    }

    #[test]
    fn keys_carry_the_chunk_size_the_design_provisions() {
        let spec = AppDomain::Classification.spec();
        let repr = spec_repr(&spec);
        for chunks in [1u32, 4, 9, 16] {
            let config = StreamGridConfig::cs_dt(SplitConfig::linear(chunks, 2));
            for elements in [1u64, 3, 15, 16, 17, 1199, 1200, 1201] {
                let compiled = request(&spec, &repr, &config, elements).solve().unwrap();
                assert_eq!(
                    compiled.chunk_elements,
                    request(&spec, &repr, &config, elements)
                        .key()
                        .chunk_elements(),
                    "{elements} elements in {chunks} chunks"
                );
            }
        }
    }

    #[test]
    fn keys_distinguish_specs() {
        let cls = AppDomain::Classification.spec();
        let reg = AppDomain::Registration.spec();
        let (cls_repr, reg_repr) = (spec_repr(&cls), spec_repr(&reg));
        let config = csdt4();
        let a = request(&cls, &cls_repr, &config, 1200);
        let b = request(&reg, &reg_repr, &config, 1200);
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key().file_stem(), b.key().file_stem());
    }

    #[test]
    fn file_stem_is_stable_and_filesystem_safe() {
        let spec = AppDomain::Classification.spec();
        let repr = spec_repr(&spec);
        let config = csdt4();
        let stem = request(&spec, &repr, &config, 1200).key().file_stem();
        assert_eq!(stem, request(&spec, &repr, &config, 1200).key().file_stem());
        assert!(stem.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'));
    }

    #[test]
    fn in_memory_cache_solves_once_per_key() {
        let spec = AppDomain::Classification.spec();
        let repr = spec_repr(&spec);
        let config = csdt4();
        let cache = InMemoryCache::new();
        let a = cache
            .get_or_compile(&request(&spec, &repr, &config, 1200))
            .unwrap();
        let b = cache
            .get_or_compile(&request(&spec, &repr, &config, 1200))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "a hit returns the stored design");
        assert_eq!(cache.solver_invocations(), 1);
        cache
            .get_or_compile(&request(&spec, &repr, &config, 2400))
            .unwrap();
        assert_eq!(cache.solver_invocations(), 2);
        assert_eq!(cache.compiled_count(), 2);
    }

    #[test]
    fn fingerprint_collisions_are_resolved_not_served() {
        // Forge two requests whose keys collide (same fingerprint, same
        // config, same chunk size) but whose specs differ — exactly what
        // a 64-bit hash collision would produce. The cache must detect
        // the identity mismatch and solve for the right spec, never
        // serve the other's design.
        let cls = AppDomain::Classification.spec();
        let reg = AppDomain::Registration.spec();
        let (cls_repr, reg_repr) = (spec_repr(&cls), spec_repr(&reg));
        let config = csdt4();
        let forged = spec_fingerprint(&cls_repr);
        let fw = StreamGrid::new(config);
        let cls_req = CompileRequest::new(fw.transform(&cls), &cls_repr, forged, &config, 1200);
        let reg_req = CompileRequest::new(fw.transform(&reg), &reg_repr, forged, &config, 1200);
        assert_eq!(cls_req.key(), reg_req.key(), "the forgery must collide");

        let cache = InMemoryCache::new();
        let from_cls = cache.get_or_compile(&cls_req).unwrap();
        let from_reg = cache.get_or_compile(&reg_req).unwrap();
        assert_eq!(cache.solver_invocations(), 2, "the collision costs a solve");
        assert_eq!(from_cls.summary(), cls_req.solve().unwrap().summary());
        assert_eq!(from_reg.summary(), reg_req.solve().unwrap().summary());

        // Same guard on the FileCache memo layer (the persisted entry is
        // additionally rejected by the edge/summary validation).
        let dir =
            std::env::temp_dir().join(format!("streamgrid-cache-collision-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let file_cache = FileCache::new(&dir);
        let from_cls = file_cache.get_or_compile(&cls_req).unwrap();
        let from_reg = file_cache.get_or_compile(&reg_req).unwrap();
        assert_eq!(from_cls.summary(), cls_req.solve().unwrap().summary());
        assert_eq!(from_reg.summary(), reg_req.solve().unwrap().summary());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let spec = AppDomain::Classification.spec();
        let repr = spec_repr(&spec);
        let config = csdt4();
        // Three distinct keys via three chunk sizes; capacity for two.
        let (a, b, c) = (1200u64, 2400, 3600);
        let cache = InMemoryCache::with_capacity(2);
        cache
            .get_or_compile(&request(&spec, &repr, &config, a))
            .unwrap();
        cache
            .get_or_compile(&request(&spec, &repr, &config, b))
            .unwrap();
        assert_eq!(cache.solver_invocations(), 2);
        assert_eq!(cache.compiled_count(), 2);
        // Touch `a` so `b` becomes the LRU, then insert `c` → `b` must
        // be the design evicted.
        cache
            .get_or_compile(&request(&spec, &repr, &config, a))
            .unwrap();
        cache
            .get_or_compile(&request(&spec, &repr, &config, c))
            .unwrap();
        assert_eq!(cache.solver_invocations(), 3);
        assert_eq!(cache.compiled_count(), 2, "capacity holds after insert");
        // `a` survived (hit, no new solve)…
        cache
            .get_or_compile(&request(&spec, &repr, &config, a))
            .unwrap();
        assert_eq!(cache.solver_invocations(), 3, "`a` must still be resident");
        // …and `b` was evicted (miss, one re-solve).
        cache
            .get_or_compile(&request(&spec, &repr, &config, b))
            .unwrap();
        assert_eq!(cache.solver_invocations(), 4, "`b` must have been evicted");
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let spec = AppDomain::Classification.spec();
        let repr = spec_repr(&spec);
        let config = csdt4();
        let cache = SharedCache::with_capacity(0);
        cache
            .get_or_compile(&request(&spec, &repr, &config, 1200))
            .unwrap();
        cache
            .get_or_compile(&request(&spec, &repr, &config, 2400))
            .unwrap();
        assert_eq!(cache.compiled_count(), 1, "a zero capacity still holds one");
        // The surviving design is the most recent one.
        cache
            .get_or_compile(&request(&spec, &repr, &config, 2400))
            .unwrap();
        assert_eq!(cache.solver_invocations(), 2);
    }

    #[test]
    fn a_hit_inserts_no_slot_and_refreshes_recency() {
        let spec = AppDomain::Classification.spec();
        let repr = spec_repr(&spec);
        // Another session's identity: an equal string, another `Arc`.
        let other_repr = spec_repr(&spec);
        let config = csdt4();
        let cache = InMemoryCache::with_capacity(2);
        let (a, b, c) = (1200u64, 2400, 3600);
        let first = cache
            .get_or_compile(&request(&spec, &repr, &config, a))
            .unwrap();
        cache
            .get_or_compile(&request(&spec, &repr, &config, b))
            .unwrap();
        let map = &cache.entries;
        let key_a = request(&spec, &repr, &config, a).key();
        let key_b = request(&spec, &repr, &config, b).key();
        let stamp = |key: &CacheKey| {
            map.slots.lock().unwrap()[key]
                .last_used
                .load(Ordering::Relaxed)
        };
        let slot_a = Arc::clone(&map.slots.lock().unwrap()[&key_a].slot);
        assert!(stamp(&key_a) < stamp(&key_b));

        // Hits through either identity: no solve, no new slot, the
        // resident design, and `a` is now the most recently used.
        for identity in [&repr, &other_repr] {
            let hit = cache
                .get_or_compile(&request(&spec, identity, &config, a))
                .unwrap();
            assert!(
                Arc::ptr_eq(&hit, &first),
                "a hit serves the resident design"
            );
        }
        assert_eq!(cache.solver_invocations(), 2);
        assert_eq!(map.slots.lock().unwrap().len(), 2, "a hit inserts no slot");
        assert!(Arc::ptr_eq(
            &map.slots.lock().unwrap()[&key_a].slot,
            &slot_a
        ));
        assert!(stamp(&key_a) > stamp(&key_b), "a hit refreshes recency");

        // So a third key evicts `b`, the least recently used, not `a`.
        cache
            .get_or_compile(&request(&spec, &repr, &config, c))
            .unwrap();
        assert!(map.slots.lock().unwrap().contains_key(&key_a));
        assert!(!map.slots.lock().unwrap().contains_key(&key_b));
    }

    #[test]
    fn shared_cache_clones_share_storage() {
        let spec = AppDomain::Classification.spec();
        let config = csdt4();
        let repr = spec_repr(&spec);
        let shared = SharedCache::new();
        let other = shared.clone();
        shared
            .get_or_compile(&request(&spec, &repr, &config, 1200))
            .unwrap();
        other
            .get_or_compile(&request(&spec, &repr, &config, 1200))
            .unwrap();
        assert_eq!(shared.solver_invocations(), 1);
        assert_eq!(other.solver_invocations(), 1);
        assert_eq!(other.compiled_count(), 1);
    }

    #[test]
    fn rebuild_rejects_mismatched_schedules() {
        let spec = AppDomain::Classification.spec();
        let repr = spec_repr(&spec);
        let config = csdt4();
        let req = request(&spec, &repr, &config, 1200);
        let compiled = req.solve().unwrap();
        let mut wrong = compiled.schedule.clone();
        wrong.start_cycles.pop();
        assert!(req.rebuild(wrong).is_none());
        // A stored total that is not the buffers' sum.
        let mut wrong = compiled.schedule.clone();
        wrong.total_buffer_elements += 1;
        assert!(req.rebuild(wrong).is_none());
        // A buffer under its certified peak, with a consistent total.
        let cert = compiled.certify();
        let peaked = cert.edges.iter().find(|e| e.certified_peak > 0).unwrap();
        let mut wrong = compiled.schedule.clone();
        wrong.buffer_sizes[peaked.edge] = peaked.certified_peak - 1;
        wrong.total_buffer_elements = wrong.buffer_sizes.iter().sum();
        assert!(req.rebuild(wrong).is_none());
        let rebuilt = req.rebuild(compiled.schedule.clone()).unwrap();
        assert_eq!(rebuilt.summary(), compiled.summary());
        assert_eq!(rebuilt.edges, compiled.edges);
    }

    #[test]
    fn summary_json_round_trips() {
        let summary = CompileSummary {
            onchip_bytes: 4096,
            total_cycles: 1 << 55,
            constraints: 42,
            solver_nodes: 7,
            lp_iterations: 1 << 40,
        };
        let value = json::parse(&summary_to_json(&summary)).unwrap();
        assert_eq!(summary_from_json(&value), Some(summary));
        // A version-1 summary has no pivot count: it must not parse (the
        // entry is then re-solved) rather than read back a zero.
        let old = "{\"onchip_bytes\": 4096, \"total_cycles\": 9, \"constraints\": 42, \
                   \"solver_nodes\": 7}";
        assert_eq!(summary_from_json(&json::parse(old).unwrap()), None);
    }
}
