//! The end-to-end StreamGrid framework (Fig. 1): algorithm description →
//! CS/DT transform → dataflow analysis → ILP line-buffer optimization →
//! cycle-level execution.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use streamgrid_dataflow::DataflowGraph;
use streamgrid_optimizer::{
    certify_schedule, edge_infos, plan_multi_chunk, provision, EdgeInfo, MultiChunkPlan, Schedule,
};
use streamgrid_sim::{
    BufferPolicy, EnergyBreakdown, EnergyModel, EngineConfig, EngineLayout, EngineMode,
    GlobalLatencyModel, RunReport,
};
use streamgrid_verify::{lint_graph, Certificate, Diagnostic, LintContext, Severity};

use crate::apps::AppDomain;
use crate::pipeline::{CompileError, PipelineSpec};
use crate::session::Session;
use crate::transform::StreamGridConfig;

/// Coefficient of variation of global-op latency when deterministic
/// termination is off (Sec. 3 measures ≈ 0.8 on KITTI). Drives both the
/// engine's variable-latency model and the buffer over-provisioning
/// margin non-DT designs must carry.
const NON_DT_LATENCY_CV: f64 = 0.8;

/// A pipeline compiled through the whole Fig. 1 flow.
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    /// The transformed dataflow graph. It does not depend on the cloud
    /// size, so every design a [`Session`] compiles shares one.
    pub graph: Arc<DataflowGraph>,
    /// Per-edge derived constants.
    pub edges: Vec<EdgeInfo>,
    /// The ILP schedule (start cycles + line-buffer sizes).
    pub schedule: Schedule,
    /// Multi-chunk issue plan with bubbles (Fig. 11).
    pub plan: MultiChunkPlan,
    /// Elements per chunk at the source.
    pub chunk_elements: u64,
    /// Chunks per cloud.
    pub n_chunks: u64,
    /// The active transform.
    pub config: StreamGridConfig,
    /// Linter findings for this design (deterministic in the compile
    /// key, so cache-rebuilt designs carry identical diagnostics).
    pub lints: Vec<Diagnostic>,
    /// The engines' layout of `graph` and `edges`, built with the design
    /// so that [`CompiledPipeline::execute`] validates and lays out the
    /// graph once, not once per frame. Each run still reads the start
    /// cycles, buffer sizes and initiation interval from `schedule` and
    /// `plan`.
    layout: EngineLayout,
}

/// Aggregated lint findings carried on every [`ExecutionReport`], so
/// callers see compile-time diagnostics without opting into
/// `deny_lints`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LintSummary {
    /// Warning-severity findings.
    pub warnings: u64,
    /// Error-severity findings.
    pub errors: u64,
    /// Rendered one-line messages, in diagnostic order.
    pub messages: Vec<String>,
}

impl LintSummary {
    /// Aggregates rendered diagnostics.
    pub fn from_diagnostics(diags: &[Diagnostic]) -> Self {
        LintSummary {
            warnings: diags
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .count() as u64,
            errors: diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count() as u64,
            messages: diags.iter().map(|d| d.render()).collect(),
        }
    }

    /// `true` when the linter found nothing.
    pub fn is_clean(&self) -> bool {
        self.warnings == 0 && self.errors == 0
    }
}

/// Runs the structural linter over a transformed graph with its compile
/// context. Shared by the solve and cache-rebuild paths so diagnostics
/// are a deterministic function of the compile key alone.
fn lint_compiled(
    graph: &DataflowGraph,
    config: &StreamGridConfig,
    chunk_elements: u64,
    n_chunks: u64,
) -> Vec<Diagnostic> {
    lint_graph(
        graph,
        &LintContext {
            chunk_elements,
            n_chunks,
            splitting: config.splitting.is_some(),
            termination: config.termination.is_some(),
            deadline_fraction: config.termination.map(|t| t.deadline_fraction),
        },
    )
}

/// Compilation summary the paper's Fig. 17 reports: total buffer bytes
/// and the solved schedule's statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompileSummary {
    /// Total line-buffer size in bytes (4-byte elements).
    pub onchip_bytes: u64,
    /// Cycles for one whole cloud.
    pub total_cycles: u64,
    /// ILP constraint count (after pruning).
    pub constraints: usize,
    /// Branch & bound nodes used by the solve.
    pub solver_nodes: u64,
    /// Simplex pivots over all of the solve's LP relaxations.
    pub lp_iterations: u64,
}

/// Which execution engine a run should use — the user-facing wrapper
/// over [`streamgrid_sim::EngineMode`] with an `Auto` policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecMode {
    /// Always the per-cycle reference oracle.
    CycleAccurate,
    /// The fastest exact engine for the compiled design
    /// ([`EngineMode::fastest_exact`]): event-driven under DT, the
    /// oracle under variable latency. The default.
    #[default]
    Auto,
}

impl ExecMode {
    /// The concrete engine this mode resolves to for a design with the
    /// given latency model — what [`ExecutionReport::exec_mode`]
    /// records.
    pub fn resolve(self, latency: GlobalLatencyModel) -> EngineMode {
        match self {
            ExecMode::CycleAccurate => EngineMode::CycleAccurate,
            ExecMode::Auto => EngineMode::fastest_exact(latency),
        }
    }
}

/// Knobs for the execution half of the flow. [`StreamGrid::execute`]
/// fills these from the domain; override via
/// [`StreamGrid::execute_with`] or [`CompiledPipeline::execute`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecuteOptions {
    /// Energy model the engine charges against.
    pub energy_model: EnergyModel,
    /// Seed for the variable-latency model (ignored under DT).
    pub seed: u64,
    /// Bytes per buffered element.
    pub bytes_per_element: u64,
    /// Datapath intensity (MACs per produced element).
    pub macs_per_element: f64,
    /// Engine selection ([`ExecMode::Auto`] by default).
    pub exec_mode: ExecMode,
}

impl Default for ExecuteOptions {
    fn default() -> Self {
        let engine = EngineConfig::default();
        ExecuteOptions {
            energy_model: EnergyModel::default(),
            seed: 1,
            bytes_per_element: engine.bytes_per_element,
            macs_per_element: engine.macs_per_element,
            exec_mode: ExecMode::Auto,
        }
    }
}

impl ExecuteOptions {
    /// Defaults with the domain's paper datapath intensity.
    pub fn for_domain(domain: AppDomain) -> Self {
        ExecuteOptions {
            macs_per_element: domain.macs_per_element(),
            ..ExecuteOptions::default()
        }
    }

    /// Defaults with the spec's datapath intensity (what
    /// [`Session::run`] uses).
    pub fn for_spec(spec: &PipelineSpec) -> Self {
        ExecuteOptions {
            macs_per_element: spec.macs_per_element(),
            ..ExecuteOptions::default()
        }
    }

    /// Returns the options with the engine selection replaced.
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }
}

/// The unified result of the whole Fig. 1 flow: what the compiler
/// provisioned, what the cycle-level engine observed, and where the
/// energy went.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Compile-time numbers (buffer bytes, solved schedule statistics).
    pub compile: CompileSummary,
    /// Cycle-level run (cycles, stalls, DRAM traffic, buffer peaks).
    pub run: RunReport,
    /// Energy tally of the run.
    pub energy: EnergyBreakdown,
    /// The engine that actually executed the run (the resolution of
    /// [`ExecuteOptions::exec_mode`] — never `Auto`). Engine choice does
    /// not change results: both engines are bit-identical wherever both
    /// are exact.
    pub exec_mode: EngineMode,
    /// Compile-time linter findings for the executed design.
    pub lints: LintSummary,
}

impl ExecutionReport {
    /// Provisioned on-chip line-buffer bytes.
    pub fn onchip_bytes(&self) -> u64 {
        self.compile.onchip_bytes
    }

    /// Total DRAM traffic of the run in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.run.dram_read_bytes + self.run.dram_write_bytes
    }

    /// Total energy in microjoules.
    pub fn total_uj(&self) -> f64 {
        self.energy.total_uj()
    }

    /// `true` when the run streamed every chunk to completion with no
    /// buffer overflow and no memory stall — the paper's CS+DT
    /// guarantee. A run that silently exhausted its cycle budget
    /// ([`RunReport::truncated`]) is *not* clean: its tallies describe a
    /// partial execution.
    pub fn is_clean(&self) -> bool {
        self.run.overflow_edge.is_none() && self.run.stall_cycles == 0 && !self.run.truncated
    }
}

/// The framework: owns the transform configuration and compiles app
/// pipelines.
///
/// # Examples
///
/// ```
/// use streamgrid_core::apps::AppDomain;
/// use streamgrid_core::framework::StreamGrid;
/// use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
///
/// let framework = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::paper_cls()));
/// let compiled = framework
///     .compile(AppDomain::Classification, 9 * 1024)
///     .expect("classification pipeline compiles");
/// assert!(compiled.schedule.total_buffer_elements > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamGrid {
    config: StreamGridConfig,
}

impl StreamGrid {
    /// Creates the framework with a transform configuration.
    pub fn new(config: StreamGridConfig) -> Self {
        StreamGrid { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &StreamGridConfig {
        &self.config
    }

    /// Compiles a pipeline description for a cloud of `total_elements`
    /// source elements: applies the CS/DT transform, extracts
    /// dependencies, plans multi-chunk issue, and sizes the line buffers
    /// with [`streamgrid_optimizer::provision`] — exactly one solver
    /// invocation and one certificate, over the full lattice of
    /// `n_chunks` chunks at the plan's initiation interval, so every
    /// compiled design leaves here certified.
    ///
    /// Without deterministic termination the ILP sizes cannot be trusted
    /// at runtime — global-op latency varies — so the Base and CS designs
    /// over-provision every buffer by the latency margin. Only CS+DT
    /// keeps the exact ILP sizes (the paper's claim). Every design point
    /// is sized here: this is the only caller of `provision` outside the
    /// optimizer.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the ILP stage.
    pub fn compile_spec(
        &self,
        spec: &PipelineSpec,
        total_elements: u64,
    ) -> Result<CompiledPipeline, CompileError> {
        self.compile_transformed(self.transform(spec), total_elements)
    }

    /// `spec`'s graph under this transform, which every design of `spec`
    /// at any cloud size shares.
    pub(crate) fn transform(&self, spec: &PipelineSpec) -> Arc<DataflowGraph> {
        let mut graph = spec.graph().clone();
        self.config.apply(&mut graph);
        Arc::new(graph)
    }

    /// [`StreamGrid::compile_spec`] on a graph [`StreamGrid::transform`]
    /// already produced.
    pub(crate) fn compile_transformed(
        &self,
        graph: Arc<DataflowGraph>,
        total_elements: u64,
    ) -> Result<CompiledPipeline, CompileError> {
        let margin = self
            .config
            .termination
            .is_none()
            .then_some(NON_DT_LATENCY_CV);
        self.assemble(graph, total_elements, |graph, edges, plan, n_chunks| {
            provision(graph, edges, plan, n_chunks, margin).map_err(CompileError::Optimize)
        })
    }

    /// Rebuilds the full compiled design around an already-solved
    /// `schedule` — the zero-solve half of
    /// [`StreamGrid::compile_transformed`], used by persistent schedule
    /// caches ([`crate::cache::FileCache`]) to reconstitute a design from
    /// disk.
    ///
    /// The schedule must be the *final* one a compile produced (for
    /// non-DT configs that includes the latency over-provisioning
    /// margin), so no margin is re-applied here. Returns `None` when the
    /// schedule's dimensions do not match the transformed graph, when
    /// its `total_buffer_elements` is not the sum of its buffers, or
    /// when its buffers do not certify over the design's lattice — a
    /// compiled design always passes all three, so the caller treats a
    /// failure as a cache miss and falls back to a clean solve.
    pub(crate) fn rebuild_transformed(
        &self,
        graph: Arc<DataflowGraph>,
        total_elements: u64,
        schedule: Schedule,
    ) -> Option<CompiledPipeline> {
        self.assemble(graph, total_elements, |graph, edges, plan, n_chunks| {
            let fits = schedule.start_cycles.len() == graph.node_count()
                && schedule.buffer_sizes.len() == edges.len()
                && schedule.total_buffer_elements == schedule.buffer_sizes.iter().sum::<u64>()
                && certify_schedule(edges, &schedule, plan.initiation_interval, n_chunks)
                    .accepted();
            fits.then_some(schedule).ok_or(())
        })
        .ok()
    }

    /// Assembles a design around the schedule `schedule` returns for it:
    /// chunks the cloud, derives edges and the multi-chunk plan from the
    /// transformed `graph`, and lints and lays out the result. Both
    /// [`StreamGrid::compile_transformed`] (which solves the schedule)
    /// and [`StreamGrid::rebuild_transformed`] (which reads it back from
    /// a cache) go through here, so a rebuilt design cannot drift from a
    /// solved one.
    fn assemble<E>(
        &self,
        graph: Arc<DataflowGraph>,
        total_elements: u64,
        schedule: impl FnOnce(&DataflowGraph, &[EdgeInfo], &MultiChunkPlan, u64) -> Result<Schedule, E>,
    ) -> Result<CompiledPipeline, E> {
        let n_chunks = self.config.chunk_count();
        let chunk_elements = self.config.chunk_elements(total_elements);
        debug_assert!(chunk_elements * n_chunks >= total_elements);
        let edges = edge_infos(&graph, chunk_elements);
        let plan = plan_multi_chunk(&graph, &edges);
        let schedule = schedule(&graph, &edges, &plan, n_chunks)?;
        let lints = lint_compiled(&graph, &self.config, chunk_elements, n_chunks);
        Ok(CompiledPipeline {
            layout: EngineLayout::new(&graph, &edges),
            graph,
            edges,
            schedule,
            plan,
            chunk_elements,
            n_chunks,
            config: self.config,
            lints,
        })
    }

    /// [`StreamGrid::compile_spec`] on a Tbl. 2 preset.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the ILP stage.
    pub fn compile(
        &self,
        domain: AppDomain,
        total_elements: u64,
    ) -> Result<CompiledPipeline, CompileError> {
        self.compile_spec(&domain.spec(), total_elements)
    }

    /// Opens a reusable [`Session`] over `spec` with this framework's
    /// configuration and a private in-memory schedule cache. Repeated
    /// executions amortize the ILP solve; see [`Session`] for the cache
    /// semantics. To share or persist the cache, use
    /// [`StreamGrid::session_builder`].
    pub fn session(&self, spec: PipelineSpec) -> Session {
        Session::new(spec, self.config)
    }

    /// A [`crate::session::SessionBuilder`] over `spec` with this
    /// framework's configuration — the way to back a session with a
    /// shared ([`crate::cache::SharedCache`]) or persistent
    /// ([`crate::cache::FileCache`]) schedule cache.
    pub fn session_builder(&self, spec: PipelineSpec) -> crate::session::SessionBuilder {
        crate::session::SessionBuilder::new(spec, self.config)
    }

    /// Runs the whole Fig. 1 flow — compile, then execute on the
    /// cycle-level simulator with the domain's paper defaults — and
    /// returns the unified [`ExecutionReport`]. One-shot: for repeated
    /// executions, open a [`StreamGrid::session`] and let its cache
    /// amortize the ILP solve.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the ILP stage.
    ///
    /// # Examples
    ///
    /// ```
    /// use streamgrid_core::apps::AppDomain;
    /// use streamgrid_core::framework::StreamGrid;
    /// use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
    ///
    /// let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::paper_cls()));
    /// let report = fw.execute(AppDomain::Classification, 9 * 600).unwrap();
    /// assert!(report.is_clean(), "CS+DT runs stall- and overflow-free");
    /// assert!(report.total_uj() > 0.0);
    /// ```
    pub fn execute(
        &self,
        domain: AppDomain,
        total_elements: u64,
    ) -> Result<ExecutionReport, CompileError> {
        self.execute_with(domain, total_elements, &ExecuteOptions::for_domain(domain))
    }

    /// [`StreamGrid::execute`] with explicit execution options.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the ILP stage.
    pub fn execute_with(
        &self,
        domain: AppDomain,
        total_elements: u64,
        options: &ExecuteOptions,
    ) -> Result<ExecutionReport, CompileError> {
        Ok(self.compile(domain, total_elements)?.execute(options))
    }

    /// [`StreamGrid::execute`] over an arbitrary [`PipelineSpec`] with
    /// the spec's default options.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the ILP stage.
    pub fn execute_spec(
        &self,
        spec: &PipelineSpec,
        total_elements: u64,
    ) -> Result<ExecutionReport, CompileError> {
        Ok(self
            .compile_spec(spec, total_elements)?
            .execute(&ExecuteOptions::for_spec(spec)))
    }
}

impl CompiledPipeline {
    /// Certifies the compiled schedule: worst-case *discrete* occupancy
    /// of every line buffer over the full `n_chunks × initiation
    /// interval` issue lattice, in exact integer arithmetic. Compiled
    /// designs are bumped to their certified peaks at compile time, so
    /// this always returns an accepting [`Certificate`] — callers
    /// re-derive it on demand as the machine-checkable proof artifact
    /// (and benches time it).
    pub fn certify(&self) -> Certificate {
        certify_schedule(
            &self.edges,
            &self.schedule,
            self.plan.initiation_interval,
            self.n_chunks,
        )
    }

    /// Headline numbers of the compiled design.
    pub fn summary(&self) -> CompileSummary {
        CompileSummary {
            onchip_bytes: self.schedule.total_buffer_bytes(4),
            total_cycles: self
                .plan
                .total_cycles(self.schedule.makespan, self.n_chunks),
            constraints: self.schedule.constraint_count,
            solver_nodes: self.schedule.solver_nodes,
            lp_iterations: self.schedule.lp_iterations,
        }
    }

    /// Whether the design runs under deterministic termination. Every
    /// global op then takes a fixed latency, so
    /// [`CompiledPipeline::execute`] reads no frame data and ignores
    /// [`ExecuteOptions::seed`]: its report depends only on the design
    /// and the options. The serving layer relies on this to simulate
    /// such a design once per server run.
    pub fn is_deterministic(&self) -> bool {
        self.config.termination.is_some()
    }

    /// Executes the compiled pipeline on the simulator and returns the
    /// unified report. Deterministic termination ⇒ strict buffers and
    /// fixed global-op latency; otherwise variable latency with elastic
    /// buffers. The engine follows [`ExecuteOptions::exec_mode`]
    /// (`Auto` = the event-driven fast path exactly when the design is
    /// deterministic); the resolved choice is recorded in
    /// [`ExecutionReport::exec_mode`] and never changes results. Every
    /// call runs an engine; nothing here keeps a report.
    pub fn execute(&self, options: &ExecuteOptions) -> ExecutionReport {
        let (latency, policy) = if self.is_deterministic() {
            (GlobalLatencyModel::Deterministic, BufferPolicy::Strict)
        } else {
            (
                GlobalLatencyModel::Variable {
                    cv: NON_DT_LATENCY_CV,
                    seed: options.seed,
                },
                BufferPolicy::Elastic,
            )
        };
        let engine = options.exec_mode.resolve(latency);
        let run_report = self.layout.run(
            &self.schedule,
            &self.plan,
            &options.energy_model,
            &EngineConfig {
                bytes_per_element: options.bytes_per_element,
                n_chunks: self.n_chunks,
                global_latency: latency,
                buffer_policy: policy,
                macs_per_element: options.macs_per_element,
                ..EngineConfig::default()
            },
            engine,
        );
        ExecutionReport {
            compile: self.summary(),
            energy: run_report.energy,
            run: run_report,
            exec_mode: engine,
            lints: LintSummary::from_diagnostics(&self.lints),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::SplitConfig;

    #[test]
    fn compiles_every_domain_cs_dt() {
        let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::paper_cls()));
        for domain in AppDomain::ALL {
            let c = fw.compile(domain, 9 * 600).expect("compiles");
            assert!(c.schedule.total_buffer_elements > 0, "{domain:?}");
            assert_eq!(c.n_chunks, 9);
        }
    }

    #[test]
    fn chunking_never_drops_remainder_elements() {
        // Regression: `total_elements / n_chunks` floored, so e.g.
        // `total = n_chunks + 1` scheduled 1-element chunks and silently
        // dropped the remainder. Ceiling division must cover every
        // element for any (total, n_chunks) combination.
        for n in [2u32, 4, 7, 9] {
            let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(n, 2)));
            let n = n as u64;
            for total in [1, n - 1, n, n + 1, 3 * n - 1, 3 * n + 1, 100 * n + n / 2] {
                let c = fw.compile(AppDomain::Classification, total).unwrap();
                assert!(
                    c.chunk_elements * c.n_chunks >= total,
                    "{n} chunks × {} elements < {total} total",
                    c.chunk_elements
                );
                // And never over-provisions by a full chunk.
                assert!(
                    (c.chunk_elements - 1) * c.n_chunks < total,
                    "{n} chunks × {} elements over-covers {total} total",
                    c.chunk_elements
                );
            }
        }
    }

    #[test]
    fn csdt_buffers_smaller_than_base() {
        let base = StreamGrid::new(StreamGridConfig::base());
        let csdt = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::paper_cls()));
        for domain in AppDomain::ALL {
            let b = base.compile(domain, 9 * 600).unwrap().summary();
            let c = csdt.compile(domain, 9 * 600).unwrap().summary();
            assert!(
                c.onchip_bytes < b.onchip_bytes,
                "{domain:?}: CS+DT {} vs Base {}",
                c.onchip_bytes,
                b.onchip_bytes
            );
        }
    }

    #[test]
    fn csdt_simulation_is_clean() {
        let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::paper_cls()));
        let c = fw.compile(AppDomain::Classification, 9 * 300).unwrap();
        let report = c.execute(&ExecuteOptions::default()).run;
        assert_eq!(report.overflow_edge, None);
        assert_eq!(report.stall_cycles, 0, "CS+DT must run stall-free");
    }

    #[test]
    fn base_simulation_starves() {
        let fw = StreamGrid::new(StreamGridConfig::base());
        let c = fw.compile(AppDomain::Classification, 2700).unwrap();
        let report = c
            .execute(&ExecuteOptions {
                seed: 2,
                ..ExecuteOptions::default()
            })
            .run;
        assert!(
            report.starved_cycles > 0,
            "Base's input-dependent latency must create pipeline bubbles"
        );
    }

    #[test]
    fn execute_unifies_compile_and_run() {
        let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::paper_cls()));
        let report = fw.execute(AppDomain::Classification, 9 * 300).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.energy, report.run.energy);
        assert_eq!(
            report.onchip_bytes(),
            fw.compile(AppDomain::Classification, 9 * 300)
                .unwrap()
                .summary()
                .onchip_bytes
        );
        assert!(report.dram_bytes() > 0);
        assert!(report.total_uj() > 0.0);
    }

    #[test]
    fn execute_uses_domain_intensity() {
        // A heavier datapath must cost more compute energy on the same
        // pipeline and schedule.
        let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::paper_cls()));
        let light = fw
            .execute_with(
                AppDomain::Classification,
                9 * 300,
                &ExecuteOptions {
                    macs_per_element: 16.0,
                    ..ExecuteOptions::default()
                },
            )
            .unwrap();
        let heavy = fw.execute(AppDomain::Classification, 9 * 300).unwrap();
        assert!(heavy.energy.compute_pj > light.energy.compute_pj);
    }

    #[test]
    fn execute_spec_matches_domain_execute() {
        let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::paper_cls()));
        let via_spec = fw
            .execute_spec(&AppDomain::Classification.spec(), 9 * 300)
            .unwrap();
        let via_domain = fw.execute(AppDomain::Classification, 9 * 300).unwrap();
        assert_eq!(via_spec, via_domain);
    }

    #[test]
    fn auto_mode_resolves_per_latency_model() {
        // CS+DT is deterministic → the fast path runs; Base is variable
        // → the oracle runs. Both are recorded in the report.
        let csdt = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::paper_cls()));
        let report = csdt.execute(AppDomain::Classification, 9 * 300).unwrap();
        assert_eq!(report.exec_mode, EngineMode::EventDriven);

        let base = StreamGrid::new(StreamGridConfig::base());
        let report = base.execute(AppDomain::Classification, 2700).unwrap();
        assert_eq!(report.exec_mode, EngineMode::CycleAccurate);
    }

    #[test]
    fn explicit_modes_are_bit_identical_under_dt() {
        let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::paper_cls()));
        let oracle = fw
            .execute_with(
                AppDomain::Classification,
                9 * 300,
                &ExecuteOptions::default().with_exec_mode(ExecMode::CycleAccurate),
            )
            .unwrap();
        let fast = fw
            .execute_with(
                AppDomain::Classification,
                9 * 300,
                &ExecuteOptions::default().with_exec_mode(ExecMode::Auto),
            )
            .unwrap();
        assert_eq!(fast.exec_mode, EngineMode::EventDriven);
        assert_eq!(oracle.run, fast.run, "engines must agree bit-for-bit");
        assert_eq!(oracle.compile, fast.compile);
        assert_ne!(oracle.exec_mode, fast.exec_mode);
    }

    #[test]
    fn auto_resolves_to_fastest_exact_and_never_shards() {
        let var = GlobalLatencyModel::Variable { cv: 0.8, seed: 1 };
        // Auto is the fastest exact engine: the event fast path under
        // DT, the plain oracle under variable latency — never the
        // `Sharded` placeholder. CycleAccurate is the oracle under both.
        assert_eq!(
            ExecMode::Auto.resolve(GlobalLatencyModel::Deterministic),
            EngineMode::EventDriven
        );
        assert_eq!(ExecMode::Auto.resolve(var), EngineMode::CycleAccurate);
        for latency in [GlobalLatencyModel::Deterministic, var] {
            assert_eq!(
                ExecMode::Auto.resolve(latency),
                EngineMode::fastest_exact(latency)
            );
            assert_eq!(
                ExecMode::CycleAccurate.resolve(latency),
                EngineMode::CycleAccurate
            );
        }
    }

    #[test]
    fn truncated_runs_are_not_clean() {
        // `is_clean` must expose cycle-budget truncation instead of
        // letting a partial run masquerade as a finished one.
        let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::paper_cls()));
        let compiled = fw.compile(AppDomain::Classification, 9 * 300).unwrap();
        let full = compiled.execute(&ExecuteOptions::default());
        assert!(full.is_clean());
        assert!(!full.run.truncated);
        // Re-run the same design under a tiny budget via the sim layer's
        // config default override path: emulate by slicing max_cycles.
        let tiny = streamgrid_sim::run_with(
            &compiled.graph,
            &compiled.edges,
            &compiled.schedule,
            &compiled.plan,
            &EnergyModel::default(),
            &EngineConfig {
                n_chunks: compiled.n_chunks,
                max_cycles: 32,
                ..EngineConfig::default()
            },
            EngineMode::EventDriven,
        );
        assert!(tiny.truncated);
        let report = ExecutionReport {
            compile: full.compile,
            energy: tiny.energy,
            run: tiny,
            exec_mode: EngineMode::EventDriven,
            lints: full.lints.clone(),
        };
        assert!(!report.is_clean());
    }

    #[test]
    fn summary_reports_constraints() {
        let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::paper_cls()));
        let s = fw
            .compile(AppDomain::Registration, 9 * 400)
            .unwrap()
            .summary();
        assert!(s.constraints > 0);
        assert!(s.total_cycles > 0);
    }
}
