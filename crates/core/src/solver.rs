//! The common solver interface, configuration, and result types.

use crate::blocks::PartitionerChoice;
use crate::engine::{self, Grid, Loop, Solved, Stageable};
use apsp_blockmat::algebra::Elem;
use apsp_blockmat::kernels::MinPlusKernel;
use apsp_blockmat::{ElemBlock, Matrix, PathAlgebra, TrackedTropical, Tropical};
use apsp_cluster::{ClusterSpec, KernelRates, SolverKind, SparkOverheads};
use apsp_graph::paths::{DistancesAndParents, ParentMatrix};
use sparklet::{EstimateSize, MetricsSnapshot, SparkContext, SparkError};
use std::time::Duration;

/// Errors an APSP solve can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApspError {
    /// The adjacency matrix is not a valid undirected instance
    /// (asymmetric, negative weight, or nonzero diagonal).
    InvalidInput(String),
    /// Invalid configuration (e.g. zero block size).
    InvalidConfig(String),
    /// The underlying engine failed (injected fault exhausted retries,
    /// side-channel blob lost, …).
    Engine(SparkError),
    /// Checkpoint write, read, or validation failed (corrupt frame,
    /// geometry mismatch, no committed round to resume from, …).
    Checkpoint(String),
    /// Closure-store write, read, or validation failed (corrupt frame,
    /// geometry or workload mismatch, missing manifest, …).
    Store(String),
}

impl std::fmt::Display for ApspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApspError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            ApspError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            ApspError::Engine(e) => write!(f, "engine error: {e}"),
            ApspError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            ApspError::Store(msg) => write!(f, "closure-store error: {msg}"),
        }
    }
}

impl std::error::Error for ApspError {}

impl From<SparkError> for ApspError {
    fn from(e: SparkError) -> Self {
        ApspError::Engine(e)
    }
}

/// Tuning knobs shared by the Spark solvers.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Decomposition block side `b` (the paper's central tuning knob).
    pub block_size: usize,
    /// Number of RDD partitions; defaults to `2 × cores` per the Spark
    /// guideline the paper follows (`B = 2`).
    pub num_partitions: Option<usize>,
    /// Which partitioner distributes the blocks.
    pub partitioner: PartitionerChoice,
    /// Validate the input adjacency matrix before solving (symmetric,
    /// zero diagonal, non-negative). Costs O(n²); on by default.
    pub validate_input: bool,
    /// Which min-plus kernel the block products run on. `Auto` (default)
    /// dispatches by block side — branchless below 128, the packed
    /// register-blocked engine from 128; the explicit variants exist for
    /// ablations and benchmarks.
    pub kernel: MinPlusKernel,
    /// Track shortest-path witnesses alongside distances: every block
    /// update runs the argmin-recording kernel tier and the result carries
    /// a [`ParentMatrix`] (see [`ApspResult::parents`]). Off by default —
    /// tracking costs one `u32` per cell plus the tracked-kernel overhead
    /// measured in `EXPERIMENTS.md`.
    pub track_paths: bool,
    /// Round-granular checkpointing and resume (see
    /// [`crate::checkpoint::CheckpointSpec`]). `None` (default) runs
    /// without checkpoints.
    pub checkpoint: Option<crate::checkpoint::CheckpointSpec>,
}

impl SolverConfig {
    /// Config with block side `b` and paper defaults (MD partitioner,
    /// `B = 2`).
    pub fn new(block_size: usize) -> Self {
        SolverConfig {
            block_size,
            num_partitions: None,
            partitioner: PartitionerChoice::MultiDiagonal,
            validate_input: true,
            kernel: MinPlusKernel::Auto,
            track_paths: false,
            checkpoint: None,
        }
    }

    /// Config with the block size chosen by the closed-form tuner for an
    /// `n`-vertex problem on this context's core count (§5.2/§5.3
    /// guidance, mechanized), then routed through the cluster model's
    /// feasibility check — the same check the query planner
    /// ([`crate::plan`]) applies — against a [`ClusterSpec::local`]
    /// description of this machine, so `auto` can no longer hand back a
    /// block size the model marks infeasible when a feasible one exists.
    ///
    /// Assumes the paper's best general-purpose solver (Blocked
    /// Collect/Broadcast) for the feasibility sweep; use
    /// [`SolverConfig::auto_for`] to tune for a specific solver or
    /// cluster.
    pub fn auto(n: usize, ctx: &SparkContext) -> Self {
        Self::auto_for(
            SolverKind::BlockedCollectBroadcast,
            n,
            ctx,
            &ClusterSpec::local(ctx.num_cores()),
        )
    }

    /// [`SolverConfig::auto`] with the solver kind and cluster made
    /// explicit: suggests a block size with the closed-form heuristic,
    /// then — when the cluster model marks that size infeasible for
    /// `solver` on `spec` — re-tunes to the feasible candidate with the
    /// lowest projected total ([`crate::tuner::feasible_block_size`]).
    /// When *no* block size is feasible the closed-form suggestion is
    /// kept: the local solve is still attempted, and the planner is the
    /// layer that reports infeasibility.
    pub fn auto_for(solver: SolverKind, n: usize, ctx: &SparkContext, spec: &ClusterSpec) -> Self {
        let suggested = crate::tuner::suggest_block_size(n, ctx.num_cores(), 2).min(n.max(1));
        let b = crate::tuner::feasible_block_size(
            solver,
            n,
            spec,
            &KernelRates::paper(),
            &SparkOverheads::default(),
            suggested,
        )
        .unwrap_or(suggested);
        Self::new(b)
    }

    /// Sets an explicit partition count.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.num_partitions = Some(partitions);
        self
    }

    /// Sets the partitioner.
    pub fn with_partitioner(mut self, p: PartitionerChoice) -> Self {
        self.partitioner = p;
        self
    }

    /// Disables input validation (for benchmarks on trusted inputs).
    pub fn without_validation(mut self) -> Self {
        self.validate_input = false;
        self
    }

    /// Pins the kernel tier of the `f64` engine (default:
    /// [`MinPlusKernel::Auto`]): `Naive`, `Branchless` or `Packed`. Every
    /// tier is sequential per block; the executor owns the cores.
    pub fn with_kernel(mut self, kernel: MinPlusKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Enables shortest-path witness tracking: the solve returns a parent
    /// (via) matrix alongside the distances, from which any path is
    /// reconstructed in `O(length)`.
    ///
    /// ```
    /// use apsp_core::{ApspSolver, BlockedCollectBroadcast, SolverConfig};
    /// use apsp_graph::generators;
    /// use sparklet::{SparkConfig, SparkContext};
    ///
    /// let g = generators::grid(4, 4);
    /// let ctx = SparkContext::new(SparkConfig::with_cores(2));
    /// let result = BlockedCollectBroadcast::default()
    ///     .solve(&ctx, &g.to_dense(), &SolverConfig::new(8).with_paths())
    ///     .unwrap();
    /// let paths = result.into_paths().expect("tracking was requested");
    /// let route = paths.reconstruct(0, 15).expect("grid is connected");
    /// assert_eq!(route.first(), Some(&0));
    /// assert_eq!(route.last(), Some(&15));
    /// ```
    pub fn with_paths(mut self) -> Self {
        self.track_paths = true;
        self
    }

    /// Enables round-granular checkpointing (and, when
    /// `spec.resume` is set, resuming) under `spec`.
    pub fn with_checkpoints(mut self, spec: crate::checkpoint::CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Effective partition count for a context.
    pub fn partitions_for(&self, ctx: &SparkContext) -> usize {
        self.num_partitions.unwrap_or(2 * ctx.num_cores()).max(1)
    }

    pub(crate) fn check(&self, n: usize) -> Result<(), ApspError> {
        if self.block_size == 0 {
            return Err(ApspError::InvalidConfig(
                "block size must be positive".into(),
            ));
        }
        if n == 0 {
            return Err(ApspError::InvalidInput("empty graph".into()));
        }
        Ok(())
    }
}

/// Outcome of a solve: the distance matrix plus observability, and — when
/// the config asked for it — the parent matrix for path reconstruction.
#[derive(Debug, Clone)]
pub struct ApspResult {
    distances: Matrix,
    parents: Option<ParentMatrix>,
    /// Engine-counter increments attributable to this solve.
    pub metrics: MetricsSnapshot,
    /// Wall-clock duration of the solve.
    pub elapsed: Duration,
    /// Outer iterations executed (sweeps for RS, `n` for FW2D, `q` for
    /// the blocked solvers, 1 for the MPI baselines).
    pub iterations: u64,
}

impl ApspResult {
    pub(crate) fn new(
        distances: Matrix,
        metrics: MetricsSnapshot,
        elapsed: Duration,
        iterations: u64,
    ) -> Self {
        ApspResult {
            distances,
            parents: None,
            metrics,
            elapsed,
            iterations,
        }
    }

    pub(crate) fn with_parents(mut self, parents: Option<ParentMatrix>) -> Self {
        self.parents = parents;
        self
    }

    /// The full `n × n` shortest-path length matrix.
    pub fn distances(&self) -> &Matrix {
        &self.distances
    }

    /// The parent (via) matrix, when the solve ran under
    /// [`SolverConfig::with_paths`].
    pub fn parents(&self) -> Option<&ParentMatrix> {
        self.parents.as_ref()
    }

    /// Consumes the result, returning the distance matrix.
    pub fn into_distances(self) -> Matrix {
        self.distances
    }

    /// Consumes the result into a [`DistancesAndParents`] handle for path
    /// reconstruction; `None` unless the solve ran under
    /// [`SolverConfig::with_paths`].
    pub fn into_paths(self) -> Option<DistancesAndParents> {
        let parents = self.parents?;
        Some(DistancesAndParents::new(self.distances, parents))
    }

    /// Consumes the result into the distance matrix plus the parent
    /// matrix when one was tracked — the panic-free splitter the query
    /// layer builds [`crate::plan::Solution`] from.
    pub fn into_distances_and_parents(self) -> (Matrix, Option<ParentMatrix>) {
        (self.distances, self.parents)
    }
}

/// A distributed APSP solver over an undirected weighted graph given as a
/// dense adjacency matrix (`0` diagonal, [`apsp_blockmat::INF`] non-edges).
pub trait ApspSolver {
    /// Human-readable solver name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// Whether the implementation stays within the fault-tolerant engine
    /// API (the paper's pure/impure distinction, §3).
    fn is_pure(&self) -> bool;

    /// Solves APSP, returning the distance matrix and run metadata.
    fn solve(
        &self,
        ctx: &SparkContext,
        adjacency: &Matrix,
        cfg: &SolverConfig,
    ) -> Result<ApspResult, ApspError>;
}

/// Input validation shared by the solvers.
pub(crate) fn validate_adjacency(m: &Matrix) -> Result<(), ApspError> {
    apsp_graph::validate_adjacency(m).map_err(ApspError::InvalidInput)
}

/// The input contract of a dense adjacency on `grid`: [`validate_adjacency`]
/// on the triangle, merely non-negative weights on the full grid.
pub(crate) fn validate_dense(m: &Matrix, grid: Grid) -> Result<(), ApspError> {
    match grid {
        Grid::UpperTriangle => validate_adjacency(m),
        Grid::Full => apsp_graph::validate_directed_adjacency(m).map_err(ApspError::InvalidInput),
    }
}

/// The paper's four Spark solvers are data: a name, a purity and a loop on
/// the triangle. Each gets `ApspSolver` (below) and `AlgebraSolver` (in
/// `crate::algebra`) from the engine seam.
pub(crate) trait EngineSolver {
    const NAME: &'static str;
    const PURE: bool;
    const LOOP: Loop;
}

impl<S: EngineSolver> ApspSolver for S {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn is_pure(&self) -> bool {
        S::PURE
    }

    fn solve(
        &self,
        ctx: &SparkContext,
        adjacency: &Matrix,
        cfg: &SolverConfig,
    ) -> Result<ApspResult, ApspError> {
        solve_apsp(ctx, adjacency, cfg, (S::LOOP, Grid::UpperTriangle))
    }
}

/// The engine seam under the plain algebra `P` or, when `cfg.track_paths`,
/// its tracking twin `T`, whose vias become the parent matrix — the
/// `with_paths` switch of every front-end that has one.
pub(crate) fn solve_paths<P, T>(
    ctx: &SparkContext,
    n: usize,
    weight: &dyn Fn(usize, usize) -> Elem<P>,
    cfg: &SolverConfig,
    engine: (Loop, Grid),
    validate: &dyn Fn(Grid) -> Result<(), ApspError>,
) -> Result<(Solved<Elem<P>>, Option<ParentMatrix>), ApspError>
where
    P: PathAlgebra,
    T: PathAlgebra<Semi = P::Semi, Payload = u32>,
    ElemBlock<P::Semi>: Stageable,
    Elem<P>: EstimateSize,
{
    if !cfg.track_paths {
        let (solved, _) = engine::solve::<P>(ctx, n, weight, cfg, engine, validate)?;
        return Ok((solved, None));
    }
    // Rejected until tracked full-grid CB is validated: see `DirectedBlockedCB`.
    if engine == (Loop::Cb, Grid::Full) {
        return Err(ApspError::InvalidConfig(
            "path tracking (with_paths) is not supported by DirectedBlockedCB: its staged \
             cross pieces have no validated seeding contract on the full grid (see the \
             type-level docs); use DirectedFloydWarshall2D::solve with with_paths, or \
             apsp_graph::paths::floyd_warshall_vias for a sequential oracle"
                .into(),
        ));
    }
    let (solved, vias) = engine::solve::<T>(ctx, n, weight, cfg, engine, validate)?;
    Ok((solved, Some(ParentMatrix::from_vias(n, vias))))
}

/// Shortest paths over a dense adjacency matrix, with parents under
/// `with_paths`: `ApspSolver::solve` of the engine solvers and both directed
/// front-ends.
pub(crate) fn solve_apsp(
    ctx: &SparkContext,
    adjacency: &Matrix,
    cfg: &SolverConfig,
    engine: (Loop, Grid),
) -> Result<ApspResult, ApspError> {
    let n = adjacency.order();
    let (solved, parents) = solve_paths::<Tropical, TrackedTropical>(
        ctx,
        n,
        &|i, j| adjacency.get(i, j),
        cfg,
        engine,
        &|grid| validate_dense(adjacency, grid),
    )?;
    let result = ApspResult::new(
        Matrix::from_vec(n, solved.values),
        solved.metrics,
        solved.elapsed,
        solved.iterations,
    );
    Ok(result.with_parents(parents))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparklet::SparkConfig;

    #[test]
    fn config_defaults() {
        let ctx = SparkContext::new(SparkConfig::with_cores(3));
        let cfg = SolverConfig::new(64);
        assert_eq!(cfg.partitions_for(&ctx), 6);
        assert_eq!(
            SolverConfig::new(64)
                .with_partitions(10)
                .partitions_for(&ctx),
            10
        );
    }

    #[test]
    fn auto_config_is_usable() {
        let ctx = SparkContext::new(SparkConfig::with_cores(4));
        let cfg = SolverConfig::auto(500, &ctx);
        assert!(cfg.block_size >= 1 && cfg.block_size <= 500);
        assert!(cfg.check(500).is_ok());
        // Enough blocks for the configured parallelism.
        let q = 500usize.div_ceil(cfg.block_size);
        assert!(q * (q + 1) / 2 >= 8, "q={q} too coarse for 4 cores × B=2");
    }

    #[test]
    fn auto_config_respects_memory_feasibility() {
        // Regression: `auto` used to be closed-form only, happily
        // suggesting block sizes whose padded working set overflows the
        // cluster model's RAM. On a 10 MiB machine the n=1000 closed-form
        // suggestion (b=500, 12 MB resident) must be re-tuned to a
        // feasible size.
        use apsp_cluster::{project, Workload};
        let ctx = SparkContext::new(SparkConfig::with_cores(1));
        let mut spec = ClusterSpec::local(1);
        spec.ram_per_node_bytes = 10 << 20;
        let closed_form = crate::tuner::suggest_block_size(1000, 1, 2).min(1000);
        assert_eq!(closed_form, 500, "test premise: closed form picks b=500");
        let cfg = SolverConfig::auto_for(SolverKind::BlockedCollectBroadcast, 1000, &ctx, &spec);
        assert_ne!(cfg.block_size, closed_form);
        let w = Workload::paper_default(1000, cfg.block_size);
        assert!(
            project(
                SolverKind::BlockedCollectBroadcast,
                &w,
                &spec,
                &KernelRates::paper(),
                &SparkOverheads::default()
            )
            .feasibility
            .is_feasible(),
            "auto_for must return a model-feasible block size"
        );
        // On an unconstrained machine `auto` still equals the closed form.
        let roomy = SolverConfig::auto(1000, &ctx);
        assert_eq!(roomy.block_size, closed_form);
    }

    #[test]
    fn config_checks() {
        assert!(SolverConfig::new(0).check(10).is_err());
        assert!(SolverConfig::new(4).check(0).is_err());
        assert!(SolverConfig::new(4).check(10).is_ok());
    }

    #[test]
    fn invalid_input_detected() {
        let mut m = Matrix::identity(3);
        m.set(0, 1, 2.0); // asymmetric: (1,0) stays INF
        assert!(matches!(
            validate_adjacency(&m),
            Err(ApspError::InvalidInput(_))
        ));
    }

    #[test]
    fn plain_and_tracked_solves_share_one_metrics_window() {
        use crate::{BlockedCollectBroadcast, BlockedInMemory, FloydWarshall2D, RepeatedSquaring};
        // Every front-end is measured by the seam, from the loop's first job
        // through the final collect: tracking adds payloads, never a job.
        let adj = apsp_graph::generators::erdos_renyi_paper(64, 0.1, 3).to_dense();
        let sc = SparkContext::new(SparkConfig::with_cores(2));
        for solver in [
            &BlockedCollectBroadcast as &dyn ApspSolver,
            &BlockedInMemory,
            &FloydWarshall2D,
            &RepeatedSquaring,
        ] {
            let counts = |cfg: SolverConfig| {
                let m = solver.solve(&sc, &adj, &cfg).unwrap().metrics;
                (m.jobs, m.stages, m.tasks, m.shuffles, m.collected_records)
            };
            assert_eq!(
                counts(SolverConfig::new(16)),
                counts(SolverConfig::new(16).with_paths()),
                "{}: (jobs, stages, tasks, shuffles, collected records)",
                solver.name()
            );
        }
    }

    #[test]
    fn loops_without_a_full_grid_variant_are_a_typed_error() {
        let adj = apsp_graph::generators::cycle(8).to_dense();
        let ctx = SparkContext::new(SparkConfig::with_cores(2));
        for lp in [Loop::Im, Loop::Rs] {
            let err = solve_apsp(&ctx, &adj, &SolverConfig::new(4), (lp, Grid::Full)).unwrap_err();
            assert!(matches!(err, ApspError::InvalidConfig(_)), "{lp:?}");
        }
    }
}
