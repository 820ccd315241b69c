//! The library's front door: a **`Problem` → `Plan` → `Solution`** query
//! pipeline with model-driven solver selection.
//!
//! The paper's central practical lesson (§5) is that *which* solver and
//! *which* block size win depends on the problem size, core count, and
//! memory — knowledge this workspace mechanizes in [`apsp_cluster`] and
//! [`crate::tuner`], but which the expert surfaces
//! ([`crate::ApspSolver`], [`crate::algebra::AlgebraSolver`], the MPI
//! baselines) leave for the caller to wield by hand. This module is the
//! single typed entry point that plans the execution instead:
//!
//! 1. [`Problem`] — a builder capturing the input graph (or matrix), the
//!    [`Workload`], directedness, whether witness paths are wanted, and
//!    resource hints;
//! 2. [`Plan`] — the planner's decision: solver, block size, kernel
//!    tier, and partitioner, chosen by wiring the closed-form tuner, the
//!    cluster model's feasibility verdicts, and per-solver
//!    [capability metadata](SolverCaps) into one pass, with a
//!    [`Plan::explain`] report of why;
//! 3. [`Solution`] — one result type over all workloads, with point
//!    queries ([`Solution::dist`], [`Solution::path`],
//!    [`Solution::reachable`], [`Solution::width`],
//!    [`Solution::k_nearest`], [`Solution::submatrix`]).
//!
//! The old `ApspSolver`/`SolverConfig` surface stays as the expert layer
//! the planner compiles down to ([`Plan::solver_config`]). An engine
//! solver's [`SolverId`] maps to one loop and block grid, and every
//! workload runs it through the same engine seam as the expert
//! front-ends, so a plan-executed solve is **bit-exact** with the
//! explicitly-configured solver it selected.
//!
//! ```
//! use apsp_core::plan::{Problem, Workload};
//! use apsp_graph::generators;
//! use sparklet::{SparkConfig, SparkContext};
//!
//! let g = generators::grid(4, 4);
//! let ctx = SparkContext::new(SparkConfig::with_cores(2));
//! let sol = Problem::new(&g).with_paths().solve(&ctx).unwrap();
//! assert_eq!(sol.dist(0, 15), Some(6.0));
//! assert_eq!(sol.path(0, 15).unwrap().len(), 7);
//!
//! // The same front door runs the (max, min) and boolean workloads.
//! let widest = Problem::new(&g).workload(Workload::Widest).solve(&ctx).unwrap();
//! assert_eq!(widest.width(0, 15), Some(1.0));
//! ```

use crate::algebra::validate_symmetric;
use crate::blocks::PartitionerChoice;
use crate::checkpoint::CheckpointSpec;
use crate::engine::{Grid, Loop, Stageable};
use crate::solver::{self, ApspError, ApspResult, ApspSolver, SolverConfig};
use crate::store::{self, ClosureStore, StoreContents, ValueSource};
use crate::tuner;
use apsp_blockmat::algebra::Elem;
use apsp_blockmat::kernels::{self, MinPlusKernel};
use apsp_blockmat::{
    BoolSemiring, BottleneckF64, ElemBlock, Matrix, PathAlgebra, Reachability as ReachAlgebra,
    TrackedReachability, TrackedTropical, TrackedWidest, Tropical, Widest as WidestAlgebra, INF,
    NO_VIA,
};
use apsp_cluster::{
    project, ClusterSpec, KernelRates, PartitionerKind, Projection, SolverKind, SparkOverheads,
    Workload as ModelWorkload,
};
use apsp_graph::paths::{NodeId, ParentMatrix};
use apsp_graph::{DiGraph, Graph};

use crate::hierarchy::{HierarchicalClosure, HierarchyConfig};
use sparklet::{EstimateSize, MetricsSnapshot, SparkContext};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Which all-pairs path problem to solve — the algebra the blocked
/// engine is instantiated with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Workload {
    /// Shortest-path lengths over *(min, +)* — the paper's APSP.
    #[default]
    ShortestPaths,
    /// Widest (bottleneck) paths over *(max, min)*: edge weights read as
    /// capacities.
    Widest,
    /// Boolean transitive closure over *(∨, ∧)*: reachability.
    Reachability,
}

impl Workload {
    /// Human-readable label used by [`Plan::explain`].
    pub fn label(self) -> &'static str {
        match self {
            Workload::ShortestPaths => "shortest-paths",
            Workload::Widest => "widest-paths",
            Workload::Reachability => "reachability",
        }
    }
}

// ---------------------------------------------------------------------------
// Solver identities and capability metadata
// ---------------------------------------------------------------------------

/// Identity of every solver the planner can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverId {
    /// [`crate::BlockedCollectBroadcast`] (Algorithm 4).
    BlockedCollectBroadcast,
    /// [`crate::BlockedInMemory`] (Algorithm 3).
    BlockedInMemory,
    /// [`crate::FloydWarshall2D`] (Algorithm 2).
    FloydWarshall2D,
    /// [`crate::RepeatedSquaring`] (Algorithm 1).
    RepeatedSquaring,
    /// [`crate::CartesianSquaring`].
    CartesianSquaring,
    /// [`crate::DistributedJohnson`].
    DistributedJohnson,
    /// [`crate::MpiFw2d`] (FW-2D-GbE baseline).
    MpiFw2d,
    /// [`crate::MpiDcApsp`] (DC-GbE baseline).
    MpiDc,
    /// [`crate::directed::DirectedBlockedCB`].
    DirectedBlockedCB,
    /// [`crate::directed::DirectedFloydWarshall2D`].
    DirectedFloydWarshall2D,
    /// [`crate::hierarchy::HierarchicalClosure`] — the sparse
    /// partition/local-solve/boundary-stitch path; distances and paths
    /// are served lazily per point query, never as an `n × n` matrix.
    SparseHierarchical,
}

/// What a solver can and cannot do — the static metadata the planner's
/// capability rules run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverCaps {
    /// Which solver this record describes.
    pub id: SolverId,
    /// Human-readable name (matches the paper's tables where applicable).
    pub name: &'static str,
    /// Accepts asymmetric (directed) adjacency input.
    pub directed: bool,
    /// Accepts symmetric (undirected) adjacency input.
    pub undirected: bool,
    /// Honors witness-path tracking (`SolverConfig::with_paths`).
    pub paths: bool,
    /// Runs non-tropical path algebras (the generic
    /// [`AlgebraSolver`](crate::AlgebraSolver) engine behind
    /// [`Workload::Widest`] and [`Workload::Reachability`]).
    pub algebras: bool,
    /// Honors a round-granular [`CheckpointSpec`] (checkpoint and resume):
    /// the four engine solvers on the upper-triangle grid.
    pub checkpoints: bool,
    /// The cluster-model solver this maps onto for feasibility and cost
    /// projections; `None` for solvers outside the paper's model.
    pub model: Option<SolverKind>,
}

impl SolverId {
    /// Every schedulable solver, in the planner's preference order.
    pub const ALL: [SolverId; 11] = [
        SolverId::BlockedCollectBroadcast,
        SolverId::BlockedInMemory,
        SolverId::FloydWarshall2D,
        SolverId::RepeatedSquaring,
        SolverId::CartesianSquaring,
        SolverId::DistributedJohnson,
        SolverId::MpiFw2d,
        SolverId::MpiDc,
        SolverId::DirectedBlockedCB,
        SolverId::DirectedFloydWarshall2D,
        SolverId::SparseHierarchical,
    ];

    /// The capability record for this solver.
    pub fn capabilities(self) -> SolverCaps {
        match self {
            SolverId::BlockedCollectBroadcast => SolverCaps {
                id: self,
                name: "Blocked Collect/Broadcast (Algorithm 4)",
                directed: false,
                undirected: true,
                paths: true,
                algebras: true,
                checkpoints: true,
                model: Some(SolverKind::BlockedCollectBroadcast),
            },
            SolverId::BlockedInMemory => SolverCaps {
                id: self,
                name: "Blocked In-Memory (Algorithm 3)",
                directed: false,
                undirected: true,
                paths: true,
                algebras: true,
                checkpoints: true,
                model: Some(SolverKind::BlockedInMemory),
            },
            SolverId::FloydWarshall2D => SolverCaps {
                id: self,
                name: "2D Floyd-Warshall (Algorithm 2)",
                directed: false,
                undirected: true,
                paths: true,
                algebras: true,
                checkpoints: true,
                model: Some(SolverKind::FloydWarshall2D),
            },
            SolverId::RepeatedSquaring => SolverCaps {
                id: self,
                name: "Repeated Squaring (Algorithm 1)",
                directed: false,
                undirected: true,
                paths: true,
                algebras: true,
                checkpoints: true,
                model: Some(SolverKind::RepeatedSquaring),
            },
            SolverId::CartesianSquaring => SolverCaps {
                id: self,
                name: "Cartesian Squaring",
                directed: false,
                undirected: true,
                paths: false,
                algebras: false,
                checkpoints: false,
                model: None,
            },
            SolverId::DistributedJohnson => SolverCaps {
                id: self,
                name: "Distributed Johnson",
                directed: false,
                undirected: true,
                paths: false,
                algebras: false,
                checkpoints: false,
                model: None,
            },
            SolverId::MpiFw2d => SolverCaps {
                id: self,
                name: "FW-2D-GbE (MPI baseline)",
                directed: true,
                undirected: true,
                paths: true,
                algebras: false,
                checkpoints: false,
                model: Some(SolverKind::MpiFw2d),
            },
            SolverId::MpiDc => SolverCaps {
                id: self,
                name: "DC-GbE (MPI baseline)",
                directed: true,
                undirected: true,
                paths: true,
                algebras: false,
                checkpoints: false,
                model: Some(SolverKind::MpiDc),
            },
            SolverId::DirectedBlockedCB => SolverCaps {
                id: self,
                name: "Directed Blocked-CB",
                directed: true,
                undirected: true,
                paths: false, // tracked full-grid CB is not validated yet (see its rustdoc)
                algebras: false,
                checkpoints: false,
                model: Some(SolverKind::BlockedCollectBroadcast),
            },
            SolverId::DirectedFloydWarshall2D => SolverCaps {
                id: self,
                name: "Directed 2D Floyd-Warshall",
                directed: true,
                undirected: true,
                paths: true,
                algebras: false,
                checkpoints: false,
                model: Some(SolverKind::FloydWarshall2D),
            },
            SolverId::SparseHierarchical => SolverCaps {
                id: self,
                name: "Sparse Hierarchical (partition + boundary stitch)",
                directed: false,
                undirected: true,
                paths: true,
                algebras: false, // tropical-only: the stitch rule is (min, +)
                checkpoints: false,
                model: None, // outside the paper's dense cluster model
            },
        }
    }

    /// Human-readable solver name.
    pub fn name(self) -> &'static str {
        self.capabilities().name
    }

    /// The engine loop and block grid this solver runs — the one mapping
    /// every workload's execution dispatches on; `None` outside the engine.
    fn engine(self) -> Option<(Loop, Grid)> {
        Some(match self {
            SolverId::BlockedCollectBroadcast => (Loop::Cb, Grid::UpperTriangle),
            SolverId::BlockedInMemory => (Loop::Im, Grid::UpperTriangle),
            SolverId::FloydWarshall2D => (Loop::Fw2d, Grid::UpperTriangle),
            SolverId::RepeatedSquaring => (Loop::Rs, Grid::UpperTriangle),
            SolverId::DirectedBlockedCB => (Loop::Cb, Grid::Full),
            SolverId::DirectedFloydWarshall2D => (Loop::Fw2d, Grid::Full),
            SolverId::CartesianSquaring
            | SolverId::DistributedJohnson
            | SolverId::MpiFw2d
            | SolverId::MpiDc
            | SolverId::SparseHierarchical => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// Problem
// ---------------------------------------------------------------------------

/// Optional resource knowledge the planner folds into its decision.
#[derive(Debug, Clone, Default)]
pub struct ResourceHints {
    /// Core count to plan for (default: the context's cores).
    pub cores: Option<usize>,
    /// Cluster description for the feasibility model (default:
    /// [`ClusterSpec::local`] of the planned core count).
    pub cluster: Option<ClusterSpec>,
    /// Pinned block size (skips the tuner; feasibility is still checked
    /// and reported).
    pub block_size: Option<usize>,
    /// Explicit RDD partition count (default: `2 × cores`).
    pub partitions: Option<usize>,
}

enum Input<'a> {
    Graph(&'a Graph),
    DiGraph(&'a DiGraph),
    Dense(&'a Matrix),
}

/// A typed all-pairs path query: what to solve, over which input, with
/// which resources. Build it, then [`Problem::plan`] or
/// [`Problem::solve`].
pub struct Problem<'a> {
    input: Input<'a>,
    directed: bool,
    workload: Workload,
    paths: bool,
    prefer: Option<SolverId>,
    kernel: MinPlusKernel,
    partitioner: PartitionerChoice,
    validate: bool,
    hints: ResourceHints,
    checkpoint: Option<CheckpointSpec>,
    store: Option<PathBuf>,
}

impl<'a> Problem<'a> {
    fn with_input(input: Input<'a>, directed: bool) -> Self {
        Problem {
            input,
            directed,
            workload: Workload::ShortestPaths,
            paths: false,
            prefer: None,
            kernel: MinPlusKernel::Auto,
            partitioner: PartitionerChoice::MultiDiagonal,
            validate: true,
            hints: ResourceHints::default(),
            checkpoint: None,
            store: None,
        }
    }

    /// A problem over an undirected weighted [`Graph`] — no manual
    /// `to_dense()` needed; the planner derives each workload's dense
    /// form itself.
    pub fn new(g: &'a Graph) -> Self {
        Self::with_input(Input::Graph(g), false)
    }

    /// A problem over a directed [`DiGraph`].
    pub fn from_digraph(g: &'a DiGraph) -> Self {
        Self::with_input(Input::DiGraph(g), true)
    }

    /// A problem over a dense weight matrix following the adjacency
    /// conventions (`0` diagonal, [`INF`] non-edges). Assumed symmetric;
    /// call [`Problem::directed`] for asymmetric instances.
    pub fn from_matrix(m: &'a Matrix) -> Self {
        Self::with_input(Input::Dense(m), false)
    }

    /// Marks the input as directed (asymmetric weights allowed).
    pub fn directed(mut self) -> Self {
        self.directed = true;
        self
    }

    /// Selects the workload (default: [`Workload::ShortestPaths`]).
    pub fn workload(mut self, w: Workload) -> Self {
        self.workload = w;
        self
    }

    /// Requests witness paths: the solve tracks per-cell vias and
    /// [`Solution::path`] reconstructs routes.
    pub fn with_paths(mut self) -> Self {
        self.paths = true;
        self
    }

    /// Expresses a solver preference. The planner honors it when the
    /// capability rules allow and records a note when they force a
    /// fallback.
    pub fn prefer(mut self, solver: SolverId) -> Self {
        self.prefer = Some(solver);
        self
    }

    /// Pins the decomposition block size (skips the tuner).
    pub fn block_size(mut self, b: usize) -> Self {
        self.hints.block_size = Some(b);
        self
    }

    /// Plans for an explicit core count instead of the context's.
    pub fn cores(mut self, cores: usize) -> Self {
        self.hints.cores = Some(cores);
        self
    }

    /// Supplies a cluster description for the feasibility model (default:
    /// a [`ClusterSpec::local`] description of this machine).
    pub fn on_cluster(mut self, spec: ClusterSpec) -> Self {
        self.hints.cluster = Some(spec);
        self
    }

    /// Sets an explicit RDD partition count.
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.hints.partitions = Some(partitions);
        self
    }

    /// Pins the min-plus kernel tier (default: auto dispatch by side).
    pub fn kernel(mut self, kernel: MinPlusKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Selects the block partitioner (default: multi-diagonal).
    pub fn partitioner(mut self, p: PartitionerChoice) -> Self {
        self.partitioner = p;
        self
    }

    /// Disables input validation (trusted inputs, benchmarks).
    pub fn without_validation(mut self) -> Self {
        self.validate = false;
        self
    }

    /// Attaches a checkpoint/resume spec (see [`CheckpointSpec`]).
    pub fn checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Snapshot every `k` engine rounds into `dir`.
    pub fn checkpoint_every(self, dir: impl Into<std::path::PathBuf>, k: usize) -> Self {
        self.checkpoint(CheckpointSpec::every(dir, k))
    }

    /// Persists the solved closure into `dir` as a committed on-disk
    /// store (see [`crate::store`]): after the solve succeeds,
    /// [`Problem::execute`] runs [`Solution::save`] so a later process
    /// can [`Solution::open`] the answer and point-query it without
    /// re-solving.
    pub fn store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store = Some(dir.into());
        self
    }

    /// Resumes from the latest committed round under `dir` (typed
    /// [`ApspError::Checkpoint`] when none is committed or the snapshot
    /// was taken by a different solve). Combined with
    /// [`Problem::checkpoint_every`], the resumed run keeps snapshotting
    /// into the same directory.
    pub fn resume(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        let dir = dir.into();
        self.checkpoint = Some(match self.checkpoint.take() {
            Some(mut spec) => {
                spec.dir = dir;
                spec.resume = true;
                spec
            }
            None => CheckpointSpec::resume_from(dir),
        });
        self
    }

    /// Vertex count of the input.
    pub fn order(&self) -> usize {
        match self.input {
            Input::Graph(g) => g.order(),
            Input::DiGraph(g) => g.order(),
            Input::Dense(m) => m.order(),
        }
    }

    // -- planning ----------------------------------------------------------

    /// Runs the planner: capability rules, the block-size tuner, and the
    /// cluster model's feasibility verdicts, producing the [`Plan`] that
    /// [`Problem::execute`] runs. Pure decision-making — no solve happens
    /// here.
    pub fn plan(&self, ctx: &SparkContext) -> Result<Plan, ApspError> {
        let n = self.order();
        if n == 0 {
            return Err(ApspError::InvalidInput("empty graph".into()));
        }
        if self.hints.block_size == Some(0) {
            return Err(ApspError::InvalidConfig(
                "block size must be positive".into(),
            ));
        }
        let mut notes = Vec::new();
        let directed = self.directed;

        // --- Solver selection: start from the preference (or the paper's
        // winner) and let the capability rules veto.
        let mut solver = self.prefer.unwrap_or(if directed {
            SolverId::DirectedBlockedCB
        } else {
            SolverId::BlockedCollectBroadcast
        });

        if directed && !solver.capabilities().directed {
            // Directedness is a storage axis of the engine, not another
            // algorithm: FW-2D stays FW-2D; everything else gets the
            // paper's winner.
            let from = solver;
            solver = if from == SolverId::FloydWarshall2D {
                SolverId::DirectedFloydWarshall2D
            } else {
                SolverId::DirectedBlockedCB
            };
            notes.push(PlanNote::new(
                "directed-input",
                format!(
                    "{} assumes a symmetric input; the asymmetric input runs on the \
                     full grid as {}",
                    from.name(),
                    solver.name()
                ),
            ));
        }

        if self.workload != Workload::ShortestPaths {
            if directed {
                return Err(ApspError::InvalidConfig(format!(
                    "the {} workload runs the generic path-algebra engine on its \
                     upper-triangle grid and so requires an undirected input; \
                     directed instances currently support shortest paths only",
                    self.workload.label()
                )));
            }
            if !solver.capabilities().algebras {
                let from = solver;
                solver = SolverId::BlockedCollectBroadcast;
                notes.push(PlanNote::new(
                    "algebra-fallback",
                    format!(
                        "{} has no generic path-algebra engine; running the {} workload \
                         on {}",
                        from.name(),
                        self.workload.label(),
                        solver.name()
                    ),
                ));
            }
        }

        if self.paths && !solver.capabilities().paths {
            let from = solver;
            solver = if directed {
                SolverId::DirectedFloydWarshall2D
            } else {
                SolverId::BlockedCollectBroadcast
            };
            notes.push(PlanNote::new(
                "paths-fallback",
                format!(
                    "{} rejects witness-path tracking; falling back to {}",
                    from.name(),
                    solver.name()
                ),
            ));
        }

        // --- Sparse routing: when the default dense winner is about to
        // run on a large road-like graph, switch to the hierarchical
        // partition/stitch path instead of paying the dense O(n²)
        // closure. Only the auto-selected default is rerouted (an
        // explicit preference is a user decision), and only for plain
        // in-memory solves — the store/checkpoint machinery serializes
        // dense closures, which the hierarchical result deliberately
        // never materializes.
        if self.prefer.is_none()
            && solver == SolverId::BlockedCollectBroadcast
            && self.workload == Workload::ShortestPaths
            && self.store.is_none()
            && self.checkpoint.is_none()
        {
            if let Input::Graph(g) = &self.input {
                let density = g.density();
                let avg_degree = g.avg_degree();
                if tuner::prefers_hierarchical(n, density, avg_degree) {
                    solver = SolverId::SparseHierarchical;
                    notes.push(PlanNote::new(
                        "sparse-hierarchical",
                        format!(
                            "density {density:.5} <= {} and avg degree {avg_degree:.1} \
                             <= {} at n = {n} >= {}: partitioned local closures + a \
                             boundary-skeleton solve replace the dense n x n closure \
                             (distances served lazily per query)",
                            tuner::SPARSE_MAX_DENSITY,
                            tuner::SPARSE_MAX_AVG_DEGREE,
                            tuner::SPARSE_MIN_N,
                        ),
                    ));
                }
            }
        }

        // An explicitly preferred hierarchical solver still needs an
        // edge-list input to partition: dense-matrix (and digraph)
        // inputs fall back to the dense winner.
        if solver == SolverId::SparseHierarchical && !matches!(self.input, Input::Graph(_)) {
            solver = SolverId::BlockedCollectBroadcast;
            notes.push(PlanNote::new(
                "sparse-input-fallback",
                format!(
                    "{} partitions an edge-list Graph input; this input is already \
                     a dense matrix, so {} runs instead",
                    SolverId::SparseHierarchical.name(),
                    solver.name()
                ),
            ));
        }

        // --- Block size: closed-form suggestion (or the pin), then the
        // cluster model's feasibility verdict.
        let cores = self.hints.cores.unwrap_or_else(|| ctx.num_cores()).max(1);
        let spec = self
            .hints
            .cluster
            .clone()
            .unwrap_or_else(|| ClusterSpec::local(cores));
        let mut b = self
            .hints
            .block_size
            .unwrap_or_else(|| tuner::suggest_block_size(n, cores, 2))
            .clamp(1, n);
        if let Some(pin) = self.hints.block_size {
            if pin > n {
                notes.push(PlanNote::new(
                    "pinned-clamped",
                    format!("pinned block size {pin} exceeds n = {n}; clamped to {b}"),
                ));
            }
        }

        let rates = KernelRates::paper();
        let ov = SparkOverheads::default();
        let mut projection = None;
        if let Some(kind) = solver.capabilities().model {
            let proj = self.project(kind, n, b, &spec, &rates, &ov);
            if proj.feasibility.is_feasible() {
                projection = Some(proj);
            } else if self.hints.block_size.is_some() {
                notes.push(PlanNote::new(
                    "pinned-infeasible",
                    format!(
                        "pinned block size {b} is projected infeasible for {} ({:?}); \
                         keeping the pin",
                        solver.name(),
                        proj.feasibility
                    ),
                ));
                projection = Some(proj);
            } else if let Some(b2) = tuner::feasible_block_size(kind, n, &spec, &rates, &ov, b) {
                notes.push(PlanNote::new(
                    "block-retune",
                    format!(
                        "closed-form block size {b} is projected infeasible for {} \
                         ({:?}); re-tuned to {b2}",
                        solver.name(),
                        proj.feasibility
                    ),
                ));
                b = b2;
                projection = Some(self.project(kind, n, b, &spec, &rates, &ov));
            } else if kind == SolverKind::BlockedInMemory {
                // The paper's Table 3 move: when Blocked-IM cannot run at
                // this scale for any block size, Blocked-CB takes over.
                if let Some(b2) = tuner::feasible_block_size(
                    SolverKind::BlockedCollectBroadcast,
                    n,
                    &spec,
                    &rates,
                    &ov,
                    b,
                ) {
                    notes.push(PlanNote::new(
                        "im-infeasible-fallback",
                        format!(
                            "{} is projected infeasible at n = {n} for every block size \
                             ({:?}); falling back to {} with b = {b2}, as in the \
                             paper's Table 3",
                            solver.name(),
                            proj.feasibility,
                            SolverId::BlockedCollectBroadcast.name()
                        ),
                    ));
                    solver = SolverId::BlockedCollectBroadcast;
                    b = b2;
                    projection = Some(self.project(
                        SolverKind::BlockedCollectBroadcast,
                        n,
                        b,
                        &spec,
                        &rates,
                        &ov,
                    ));
                } else {
                    notes.push(PlanNote::new(
                        "infeasible",
                        format!(
                            "no block size is projected feasible for {} or the \
                             Blocked-CB fallback at n = {n} on this cluster; proceeding \
                             with b = {b}",
                            solver.name()
                        ),
                    ));
                    projection = Some(proj);
                }
            } else {
                notes.push(PlanNote::new(
                    "infeasible",
                    format!(
                        "no block size is projected feasible for {} at n = {n} on this \
                         cluster; proceeding with b = {b}",
                        solver.name()
                    ),
                ));
                projection = Some(proj);
            }
        }

        let plan = Plan {
            solver,
            block_size: b,
            kernel: self.kernel,
            partitioner: self.partitioner,
            workload: self.workload,
            paths: self.paths,
            directed,
            n,
            cores,
            partitions: self.hints.partitions,
            validate: self.validate,
            checkpoint: self.checkpoint.clone(),
            store: self.store.clone(),
            notes,
            projection,
        };
        plan.check_checkpointable()?;
        Ok(plan)
    }

    fn project(
        &self,
        kind: SolverKind,
        n: usize,
        b: usize,
        spec: &ClusterSpec,
        rates: &KernelRates,
        ov: &SparkOverheads,
    ) -> Projection {
        let w = ModelWorkload {
            n,
            b,
            partitions_per_core: 2,
            partitioner: match self.partitioner {
                PartitionerChoice::MultiDiagonal => PartitionerKind::MultiDiagonal,
                PartitionerChoice::PortableHash => PartitionerKind::PortableHash,
            },
        };
        project(kind, &w, spec, rates, ov)
    }

    /// Plans and executes in one call: the headline
    /// `Problem::new(&g).solve(&ctx)` entry point.
    pub fn solve(&self, ctx: &SparkContext) -> Result<Solution, ApspError> {
        let plan = self.plan(ctx)?;
        self.execute(ctx, plan)
    }

    // -- execution ---------------------------------------------------------

    /// Executes a (possibly hand-tweaked) plan against this problem's
    /// input. The plan compiles down to the expert layer
    /// ([`Plan::solver_config`] plus the selected solver's public
    /// `solve`), so results are bit-exact with explicit calls.
    pub fn execute(&self, ctx: &SparkContext, plan: Plan) -> Result<Solution, ApspError> {
        // Again: `Plan::with_checkpoints` / `Plan::resume` attach after planning.
        plan.check_checkpointable()?;
        let start = Instant::now();
        let store_dir = plan.store.clone();
        let sol = match plan.workload {
            Workload::ShortestPaths => self.execute_tropical(ctx, plan, start),
            Workload::Widest => self.execute_widest(ctx, plan, start),
            Workload::Reachability => self.execute_reachability(ctx, plan, start),
        }?;
        if let Some(dir) = store_dir {
            sol.save(&dir)?;
        }
        Ok(sol)
    }

    fn execute_tropical(
        &self,
        ctx: &SparkContext,
        plan: Plan,
        start: Instant,
    ) -> Result<Solution, ApspError> {
        let cfg = plan.solver_config();
        // The hierarchical path partitions the edge list directly —
        // branch *before* the dense materialization below, so a sparse
        // input routed here never allocates n² cells.
        if plan.solver == SolverId::SparseHierarchical {
            let g = match &self.input {
                Input::Graph(g) => g,
                _ => {
                    return Err(ApspError::InvalidConfig(
                        "the hierarchical solver needs an edge-list Graph input \
                         (planner bug: the sparse-input-fallback rule was skipped)"
                            .into(),
                    ))
                }
            };
            if plan.validate {
                self.validate_weights()?;
            }
            let hcfg = HierarchyConfig {
                target_part_size: None,
                track_paths: plan.paths,
            };
            let h = HierarchicalClosure::solve(ctx, g, &hcfg)?;
            let metrics = h.skeleton_metrics;
            // Outer stages: one local closure per part + the skeleton solve.
            let iterations = h.stats().parts as u64 + h.skeleton_iterations;
            return Ok(Solution {
                n: plan.n,
                workload: Workload::ShortestPaths,
                values: Values::Hierarchical(Box::new(h)),
                vias: None,
                plan,
                metrics,
                elapsed: start.elapsed(),
                iterations,
            });
        }
        let owned;
        let adj: &Matrix = match self.input {
            Input::Graph(g) => {
                owned = g.to_dense();
                &owned
            }
            Input::DiGraph(g) => {
                owned = g.to_dense();
                &owned
            }
            Input::Dense(m) => m,
        };
        // The engine loops run through the shared engine arm; of the rest,
        // Cartesian and Johnson return an [`ApspResult`] with live metrics,
        // the MPI baselines bare matrices — made unrepresentable to mix up.
        // One short-lived value per solve, consumed immediately below —
        // the variant size skew clippy flags never matters here.
        #[allow(clippy::large_enum_variant)]
        enum Executed {
            Engine(ApspResult),
            Mpi(Matrix, Option<ParentMatrix>, u64),
        }
        let executed = match plan.solver {
            id if id.engine().is_some() => {
                return self.execute_engine::<Tropical, TrackedTropical>(
                    ctx,
                    plan,
                    start,
                    &|i, j| adj.get(i, j),
                    &|grid| solver::validate_dense(adj, grid),
                    |n, values| Values::Distances(Matrix::from_vec(n, values)),
                )
            }
            SolverId::CartesianSquaring => {
                Executed::Engine(crate::CartesianSquaring.solve(ctx, adj, &cfg)?)
            }
            SolverId::DistributedJohnson => {
                Executed::Engine(crate::DistributedJohnson.solve(ctx, adj, &cfg)?)
            }
            SolverId::MpiFw2d => {
                let grid = ((plan.cores as f64).sqrt().floor() as usize).max(1);
                let solver = crate::MpiFw2d::new(grid);
                if plan.paths {
                    let (r, parents) = solver.solve_matrix_paths(adj)?;
                    Executed::Mpi(r.distances, Some(parents), adj.order() as u64)
                } else {
                    let r = solver.solve_matrix(adj)?;
                    Executed::Mpi(r.distances, None, adj.order() as u64)
                }
            }
            SolverId::MpiDc => {
                let solver = crate::MpiDcApsp::new(plan.cores.max(1));
                if plan.paths {
                    let (r, parents) = solver.solve_matrix_paths(adj)?;
                    Executed::Mpi(r.distances, Some(parents), 1)
                } else {
                    let r = solver.solve_matrix(adj)?;
                    Executed::Mpi(r.distances, None, 1)
                }
            }
            other => {
                return Err(ApspError::InvalidConfig(format!(
                    "{} is handled before dense dispatch (unreachable: execute_tropical \
                     returned early above)",
                    other.name()
                )))
            }
        };
        let (values, vias, metrics, iterations) = match executed {
            Executed::Engine(res) => {
                let metrics = res.metrics;
                let iterations = res.iterations;
                let (distances, parents) = res.into_distances_and_parents();
                (distances, parents, metrics, iterations)
            }
            Executed::Mpi(distances, parents, iterations) => {
                (distances, parents, MetricsSnapshot::default(), iterations)
            }
        };
        Ok(Solution {
            n: plan.n,
            workload: Workload::ShortestPaths,
            values: Values::Distances(values),
            vias,
            plan,
            metrics,
            elapsed: start.elapsed(),
            iterations,
        })
    }

    /// In-memory inputs get the same scrutiny the file loader
    /// (`graph::io`) applies: a NaN or negative weight is a typed
    /// [`ApspError::InvalidInput`], never silently coerced into "no edge"
    /// or a bogus capacity.
    fn validate_weights(&self) -> Result<(), ApspError> {
        let check = |i: usize, j: usize, w: f64| -> Result<(), ApspError> {
            if w.is_nan() {
                return Err(ApspError::InvalidInput(format!(
                    "weight ({i}, {j}) is NaN — in-memory inputs follow the \
                     same rules as file inputs (finite or +inf non-edge)"
                )));
            }
            if w < 0.0 {
                return Err(ApspError::InvalidInput(format!(
                    "weight ({i}, {j}) is negative ({w}) — the {} workload \
                     requires non-negative weights",
                    self.workload.label()
                )));
            }
            Ok(())
        };
        match self.input {
            Input::Graph(g) => {
                for (u, v, w) in g.edges() {
                    check(u as usize, v as usize, w)?;
                }
            }
            Input::DiGraph(g) => {
                for (u, v, w) in g.arcs() {
                    check(u as usize, v as usize, w)?;
                }
            }
            Input::Dense(m) => {
                let n = m.order();
                for i in 0..n {
                    for j in 0..n {
                        let w = m.get(i, j);
                        if w.is_finite() || w.is_nan() {
                            check(i, j, w)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn capacities(&self) -> Result<Matrix, ApspError> {
        match self.input {
            Input::Graph(g) => Ok(g.to_dense_capacities()),
            Input::Dense(m) => {
                // Adjacency conventions → (max, min) conventions: weights
                // become capacities, INF non-edges become 0 (no pipe), the
                // diagonal becomes the multiplicative identity +∞.
                Ok(Matrix::from_fn(m.order(), |i, j| {
                    if i == j {
                        INF
                    } else {
                        let w = m.get(i, j);
                        if w.is_finite() {
                            w
                        } else {
                            0.0
                        }
                    }
                }))
            }
            Input::DiGraph(_) => Err(ApspError::InvalidConfig(
                "widest-paths is undirected-only (checked at planning time)".into(),
            )),
        }
    }

    fn execute_widest(
        &self,
        ctx: &SparkContext,
        plan: Plan,
        start: Instant,
    ) -> Result<Solution, ApspError> {
        if plan.validate {
            self.validate_weights()?;
        }
        let caps = self.capacities()?;
        let n = caps.order();
        let weight = |i: usize, j: usize| caps.get(i, j);
        self.execute_engine::<WidestAlgebra, TrackedWidest>(
            ctx,
            plan,
            start,
            &weight,
            &|_| validate_symmetric::<WidestAlgebra>(n, &weight),
            |n, values| Values::Widths(ElemBlock::from_vec(n, values)),
        )
    }

    fn execute_reachability(
        &self,
        ctx: &SparkContext,
        plan: Plan,
        start: Instant,
    ) -> Result<Solution, ApspError> {
        if plan.validate {
            self.validate_weights()?;
        }
        let n = self.order();
        let adj = match self.input {
            Input::Graph(g) => crate::algebra::boolean_adjacency(g),
            Input::Dense(m) => {
                // Adjacency conventions → (∨, ∧) conventions: finite
                // off-diagonal weights are edges, the diagonal is `true`.
                let mut adj = vec![false; n * n];
                for i in 0..n {
                    for j in 0..n {
                        adj[i * n + j] = i == j || m.get(i, j).is_finite();
                    }
                }
                adj
            }
            Input::DiGraph(_) => {
                return Err(ApspError::InvalidConfig(
                    "reachability is undirected-only (checked at planning time)".into(),
                ))
            }
        };
        let weight = |i: usize, j: usize| adj[i * n + j];
        self.execute_engine::<ReachAlgebra, TrackedReachability>(
            ctx,
            plan,
            start,
            &weight,
            &|_| validate_symmetric::<ReachAlgebra>(n, &weight),
            |n, values| Values::Reach(ElemBlock::from_vec(n, values)),
        )
    }

    /// The engine arm of every workload: the planned solver's
    /// `(loop, grid)` through the engine seam, under the workload's plain
    /// algebra `P` or, with paths, its tracking twin `T`; `values` wraps
    /// the dense result.
    fn execute_engine<P, T>(
        &self,
        ctx: &SparkContext,
        plan: Plan,
        start: Instant,
        weight: &dyn Fn(usize, usize) -> Elem<P>,
        validate: &dyn Fn(Grid) -> Result<(), ApspError>,
        values: fn(usize, Vec<Elem<P>>) -> Values,
    ) -> Result<Solution, ApspError>
    where
        P: PathAlgebra,
        T: PathAlgebra<Semi = P::Semi, Payload = u32>,
        ElemBlock<P::Semi>: Stageable,
        Elem<P>: EstimateSize,
    {
        let algebra_ok =
            plan.workload == Workload::ShortestPaths || plan.solver.capabilities().algebras;
        let Some(engine) = plan.solver.engine().filter(|_| algebra_ok) else {
            return Err(ApspError::InvalidConfig(format!(
                "{} has no generic path-algebra engine (planner bug: capability rule skipped)",
                plan.solver.name()
            )));
        };
        let n = self.order();
        let cfg = plan.solver_config();
        let (solved, vias) = solver::solve_paths::<P, T>(ctx, n, weight, &cfg, engine, validate)?;
        Ok(Solution {
            n,
            workload: plan.workload,
            values: values(n, solved.values),
            vias,
            plan,
            metrics: solved.metrics,
            elapsed: start.elapsed(),
            iterations: solved.iterations,
        })
    }
}

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// One capability or feasibility rule that fired during planning, with a
/// stable rule id (for tests and tooling) and a human-readable detail
/// line (for [`Plan::explain`]).
#[derive(Debug, Clone)]
pub struct PlanNote {
    /// Stable machine-readable rule id (e.g. `paths-fallback`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub detail: String,
}

impl PlanNote {
    fn new(rule: &'static str, detail: String) -> Self {
        PlanNote { rule, detail }
    }
}

/// The planner's decision: which solver, block size, kernel tier, and
/// partitioner a [`Problem`] compiles to, plus the rule trail that led
/// there. Execute with [`Problem::execute`], or inspect with
/// [`Plan::explain`] / [`Plan::solver_config`].
#[derive(Debug, Clone)]
pub struct Plan {
    /// The selected solver.
    pub solver: SolverId,
    /// The selected decomposition block side `b`.
    pub block_size: usize,
    /// The selected min-plus kernel (usually `Auto`; see
    /// [`Plan::kernel_tier`] for what `Auto` resolves to).
    pub kernel: MinPlusKernel,
    /// The selected block partitioner.
    pub partitioner: PartitionerChoice,
    /// The planned workload.
    pub workload: Workload,
    /// Whether witness paths are tracked.
    pub paths: bool,
    /// Whether the input is directed.
    pub directed: bool,
    /// Problem order (vertex count).
    pub n: usize,
    /// Core count planned for.
    pub cores: usize,
    partitions: Option<usize>,
    validate: bool,
    checkpoint: Option<CheckpointSpec>,
    store: Option<PathBuf>,
    notes: Vec<PlanNote>,
    projection: Option<Projection>,
}

impl Plan {
    /// The rules that fired during planning (empty when the defaults
    /// applied cleanly).
    pub fn notes(&self) -> &[PlanNote] {
        &self.notes
    }

    /// The cluster model's projection for the selected configuration,
    /// when the solver maps onto the model.
    pub fn projection(&self) -> Option<&Projection> {
        self.projection.as_ref()
    }

    /// The expert-layer configuration this plan compiles down to: running
    /// the selected solver with exactly this config reproduces the
    /// planned solve bit-for-bit.
    pub fn solver_config(&self) -> SolverConfig {
        let mut cfg = SolverConfig::new(self.block_size)
            .with_partitioner(self.partitioner)
            .with_kernel(self.kernel);
        if let Some(p) = self.partitions {
            cfg = cfg.with_partitions(p);
        }
        if self.paths {
            cfg = cfg.with_paths();
        }
        if !self.validate {
            cfg = cfg.without_validation();
        }
        if let Some(spec) = &self.checkpoint {
            cfg = cfg.with_checkpoints(spec.clone());
        }
        cfg
    }

    /// A checkpoint/resume spec on a solver that cannot honor it is an
    /// error, never a silent no-op: the caller believes the solve is
    /// protected (or resumed) when it is not.
    fn check_checkpointable(&self) -> Result<(), ApspError> {
        if self.checkpoint.is_some() && !self.solver.capabilities().checkpoints {
            return Err(ApspError::InvalidConfig(format!(
                "{} cannot checkpoint or resume: round-granular checkpoints cover the engine \
                 solvers on undirected input (cb, im, fw2d, rs); drop the checkpoint/resume \
                 spec or prefer one of those",
                self.solver.name()
            )));
        }
        Ok(())
    }

    /// Attaches (or replaces) a checkpoint/resume spec on an existing
    /// plan — the plan-level twin of [`Problem::checkpoint`].
    pub fn with_checkpoints(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Persists the solved closure into `dir` after execution — the
    /// plan-level twin of [`Problem::store`].
    pub fn with_store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store = Some(dir.into());
        self
    }

    /// The closure-store directory this plan will save into, if any.
    pub fn store_dir(&self) -> Option<&Path> {
        self.store.as_deref()
    }

    /// Resumes this plan's solve from the latest committed round under
    /// `dir`, keeping any snapshot policy already attached — the
    /// plan-level twin of [`Problem::resume`].
    pub fn resume(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        let dir = dir.into();
        self.checkpoint = Some(match self.checkpoint.take() {
            Some(mut spec) => {
                spec.dir = dir;
                spec.resume = true;
                spec
            }
            None => CheckpointSpec::resume_from(dir),
        });
        self
    }

    /// Human-readable description of the kernel tier the solve will run:
    /// the explicit tier when pinned, what `Auto` dispatches to for this
    /// block size otherwise.
    pub fn kernel_tier(&self) -> String {
        match self.workload {
            Workload::ShortestPaths => match self.kernel {
                // The tracked engine is one row-streaming loop at every side.
                MinPlusKernel::Auto if self.paths => "auto -> Branchless (tracked tier)".into(),
                MinPlusKernel::Auto => format!("auto -> {:?}", kernels::select(self.block_size)),
                other => format!("{other:?} (pinned)"),
            },
            Workload::Widest => {
                if self.paths {
                    "generic tracked loops (bottleneck + argmax payload)".into()
                } else {
                    match self.kernel {
                        MinPlusKernel::Auto => format!(
                            "auto -> {:?} ((max, min) engine)",
                            kernels::select(self.block_size)
                        ),
                        other => format!("{other:?} (pinned, (max, min) engine)"),
                    }
                }
            }
            Workload::Reachability => {
                if self.paths {
                    "generic tracked loops (boolean + via payload)".into()
                } else {
                    match self.kernel {
                        MinPlusKernel::Auto => "bitset (64 cells per u64 word)".into(),
                        MinPlusKernel::Naive => "Naive (pinned, boolean oracle loop)".into(),
                        other => format!("{other:?} (pinned -> bitset)"),
                    }
                }
            }
        }
    }

    /// Renders the full planning report: the problem shape, every
    /// selected knob, the cluster model's verdict, and each rule that
    /// fired.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let q = self.n.div_ceil(self.block_size.max(1));
        out.push_str(&format!(
            "plan for n = {} ({}, {}, paths {})\n",
            self.n,
            if self.directed {
                "directed"
            } else {
                "undirected"
            },
            self.workload.label(),
            if self.paths { "tracked" } else { "off" },
        ));
        out.push_str(&format!("  solver      = {}\n", self.solver.name()));
        out.push_str(&format!(
            "  block size  = {} (q = {q} blocks/side)\n",
            self.block_size
        ));
        out.push_str(&format!("  kernel tier = {}\n", self.kernel_tier()));
        let partitions = self
            .partitions
            .map(|p| p.to_string())
            .unwrap_or_else(|| format!("{} (2 x {} cores)", 2 * self.cores, self.cores));
        out.push_str(&format!(
            "  partitioner = {}, {partitions} partitions\n",
            match self.partitioner {
                PartitionerChoice::MultiDiagonal => "multi-diagonal",
                PartitionerChoice::PortableHash => "portable-hash",
            },
        ));
        match &self.projection {
            Some(p) => out.push_str(&format!(
                "  projection  = {:?}, {} iterations (cluster model: {})\n",
                p.feasibility,
                p.iterations,
                p.solver.label()
            )),
            None => out.push_str("  projection  = n/a (solver outside the cluster model)\n"),
        }
        if self.notes.is_empty() {
            out.push_str("  rules       = none (defaults applied cleanly)\n");
        } else {
            out.push_str("  rules:\n");
            for note in &self.notes {
                out.push_str(&format!("    - [{}] {}\n", note.rule, note.detail));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Solution
// ---------------------------------------------------------------------------

enum Values {
    Distances(Matrix),
    Widths(ElemBlock<BottleneckF64>),
    Reach(ElemBlock<BoolSemiring>),
    /// Disk-resident closure behind an LRU block cache — produced by
    /// [`Solution::open`], never by a solve.
    Stored(ClosureStore),
    /// Lazily-stitched hierarchical closure over a sparse graph — point
    /// queries evaluate `local + skeleton + local` on demand; no `n × n`
    /// matrix exists.
    Hierarchical(Box<HierarchicalClosure>),
}

/// Outcome of a planned solve: one result type over all three workloads,
/// carrying the values, the optional witness vias, the [`Plan`] that
/// produced it, and run metadata.
pub struct Solution {
    n: usize,
    workload: Workload,
    values: Values,
    vias: Option<ParentMatrix>,
    /// The plan this solution executed.
    pub plan: Plan,
    /// Engine-counter increments attributable to this solve (zero for
    /// the MPI baselines, which bypass the Spark engine).
    pub metrics: MetricsSnapshot,
    /// Wall-clock duration of the solve.
    pub elapsed: Duration,
    /// Outer iterations executed.
    pub iterations: u64,
}

impl Solution {
    /// Vertex count.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Which workload this solution answers.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    fn check_node(&self, what: &str, id: usize) -> Result<(), ApspError> {
        if id >= self.n {
            return Err(ApspError::InvalidInput(format!(
                "{what} node id {id} is out of range for n = {}",
                self.n
            )));
        }
        Ok(())
    }

    /// The raw numeric cell under the submatrix conventions: distance
    /// ([`INF`] unreachable), width (`0.0` unreachable), or `1.0`/`0.0`
    /// closure cells. Bounds are the caller's responsibility.
    fn raw_cell(&self, u: usize, v: usize) -> Result<f64, ApspError> {
        match &self.values {
            Values::Distances(m) => Ok(m.get(u, v)),
            Values::Widths(m) => Ok(m.get(u, v)),
            Values::Reach(m) => Ok(if m.get(u, v) { 1.0 } else { 0.0 }),
            Values::Stored(s) => s.cell(u, v),
            Values::Hierarchical(h) => Ok(h.dist(u, v)),
        }
    }

    /// Shortest-path distance from `u` to `v`: `Some(d)` when the
    /// workload is [`Workload::ShortestPaths`] and `v` is reachable,
    /// `None` otherwise (including out-of-range ids — use
    /// [`Solution::try_dist`] to distinguish them).
    pub fn dist(&self, u: usize, v: usize) -> Option<f64> {
        self.try_dist(u, v).ok().flatten()
    }

    /// [`Solution::dist`] with typed failures: out-of-range ids are
    /// [`ApspError::InvalidInput`], store I/O problems are
    /// [`ApspError::Store`], a wrong-workload query is `Ok(None)`.
    pub fn try_dist(&self, u: usize, v: usize) -> Result<Option<f64>, ApspError> {
        self.check_node("source", u)?;
        self.check_node("target", v)?;
        match &self.values {
            Values::Distances(m) => {
                let d = m.get(u, v);
                Ok(d.is_finite().then_some(d))
            }
            Values::Stored(s) if s.workload() == Workload::ShortestPaths => {
                let d = s.cell(u, v)?;
                Ok(d.is_finite().then_some(d))
            }
            Values::Hierarchical(h) => {
                let d = h.dist(u, v);
                Ok(d.is_finite().then_some(d))
            }
            _ => Ok(None),
        }
    }

    /// Bottleneck width from `u` to `v`: `Some(w)` when the workload is
    /// [`Workload::Widest`] and `v` is reachable (the diagonal reports
    /// `+∞` — staying put constrains nothing), `None` otherwise.
    pub fn width(&self, u: usize, v: usize) -> Option<f64> {
        self.try_width(u, v).ok().flatten()
    }

    /// [`Solution::width`] with typed failures (see
    /// [`Solution::try_dist`] for the error contract).
    pub fn try_width(&self, u: usize, v: usize) -> Result<Option<f64>, ApspError> {
        self.check_node("source", u)?;
        self.check_node("target", v)?;
        match &self.values {
            Values::Widths(m) => {
                let w = m.get(u, v);
                Ok((w > 0.0).then_some(w))
            }
            Values::Stored(s) if s.workload() == Workload::Widest => {
                let w = s.cell(u, v)?;
                Ok((w > 0.0).then_some(w))
            }
            _ => Ok(None),
        }
    }

    /// Whether `v` is reachable from `u` — answered by every workload
    /// (finite distance, nonzero width, or a `true` closure cell).
    /// `false` for out-of-range ids; use [`Solution::try_reachable`] to
    /// distinguish.
    pub fn reachable(&self, u: usize, v: usize) -> bool {
        self.try_reachable(u, v).unwrap_or(false)
    }

    /// [`Solution::reachable`] with typed failures (see
    /// [`Solution::try_dist`] for the error contract).
    pub fn try_reachable(&self, u: usize, v: usize) -> Result<bool, ApspError> {
        self.check_node("source", u)?;
        self.check_node("target", v)?;
        match &self.values {
            Values::Distances(m) => Ok(m.get(u, v).is_finite()),
            Values::Widths(m) => Ok(m.get(u, v) > 0.0),
            Values::Reach(m) => Ok(m.get(u, v)),
            Values::Stored(s) => s.reachable(u, v),
            Values::Hierarchical(h) => Ok(h.dist(u, v).is_finite()),
        }
    }

    /// Reconstructs a witness path from `u` to `v`: the shortest route
    /// for [`Workload::ShortestPaths`], a widest route for
    /// [`Workload::Widest`], some connecting route for
    /// [`Workload::Reachability`]. `None` when the solve did not track
    /// paths or `v` is unreachable; `path(u, u)` is `[u]`.
    pub fn path(&self, u: usize, v: usize) -> Option<Vec<NodeId>> {
        self.try_path(u, v).ok().flatten()
    }

    /// [`Solution::path`] with typed failures (see [`Solution::try_dist`]
    /// for the error contract). For store-backed solutions the expansion
    /// loads only the via blocks it touches.
    pub fn try_path(&self, u: usize, v: usize) -> Result<Option<Vec<NodeId>>, ApspError> {
        self.check_node("source", u)?;
        self.check_node("target", v)?;
        if let Values::Stored(s) = &self.values {
            return s.path(u, v);
        }
        if let Values::Hierarchical(h) = &self.values {
            return h.path(u, v);
        }
        let Some(vias) = self.vias.as_ref() else {
            return Ok(None);
        };
        if !self.try_reachable(u, v)? {
            return Ok(None);
        }
        Ok(Some(vias.expand(u, v)))
    }

    /// The `k` vertices "nearest" to `u` under the workload's own order:
    /// ascending distance for shortest paths, descending width for
    /// widest paths, reachable vertices (score `1.0`) in id order for
    /// reachability. `u` itself and unreachable vertices are excluded;
    /// ties break by vertex id.
    pub fn k_nearest(&self, u: usize, k: usize) -> Vec<(NodeId, f64)> {
        self.try_k_nearest(u, k).unwrap_or_default()
    }

    /// [`Solution::k_nearest`] with typed failures (see
    /// [`Solution::try_dist`] for the error contract). Store-backed
    /// solutions sweep the row block-by-block through the cache rather
    /// than loading the full closure.
    pub fn try_k_nearest(&self, u: usize, k: usize) -> Result<Vec<(NodeId, f64)>, ApspError> {
        self.check_node("source", u)?;
        // Hierarchical solutions amortize the stitch across the whole row
        // instead of paying O(|B_u| · |B_v|) per cell.
        if let Values::Hierarchical(h) = &self.values {
            let row = h.row(u)?;
            let mut scored: Vec<(NodeId, f64)> = row
                .into_iter()
                .enumerate()
                .filter(|&(v, d)| v != u && d.is_finite())
                .map(|(v, d)| (v as NodeId, d))
                .collect();
            scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            scored.truncate(k);
            return Ok(scored);
        }
        let mut scored: Vec<(NodeId, f64)> = Vec::new();
        for v in 0..self.n {
            if v == u || !self.try_reachable(u, v)? {
                continue;
            }
            scored.push((v as NodeId, self.raw_cell(u, v)?));
        }
        match self.workload {
            Workload::Widest => {
                scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            }
            _ => scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))),
        }
        scored.truncate(k);
        Ok(scored)
    }

    /// Extracts the numeric values of the `rows × cols` submatrix, one
    /// `Vec` per requested row: distances ([`INF`] when unreachable),
    /// widths (`0.0` when unreachable), or `1.0`/`0.0` closure cells.
    /// Empty on out-of-range ids or an empty window; use
    /// [`Solution::try_submatrix`] to distinguish.
    pub fn submatrix(&self, rows: &[usize], cols: &[usize]) -> Vec<Vec<f64>> {
        self.try_submatrix(rows, cols).unwrap_or_default()
    }

    /// [`Solution::submatrix`] with typed failures: an empty `rows` or
    /// `cols` window and out-of-range ids are
    /// [`ApspError::InvalidInput`]; store I/O problems are
    /// [`ApspError::Store`]. Store-backed solutions stream the window
    /// through the block cache.
    pub fn try_submatrix(
        &self,
        rows: &[usize],
        cols: &[usize],
    ) -> Result<Vec<Vec<f64>>, ApspError> {
        if rows.is_empty() || cols.is_empty() {
            return Err(ApspError::InvalidInput(
                "empty submatrix window: rows and cols must each name at least one vertex".into(),
            ));
        }
        for &i in rows {
            self.check_node("row", i)?;
        }
        for &j in cols {
            self.check_node("column", j)?;
        }
        rows.iter()
            .map(|&i| cols.iter().map(|&j| self.raw_cell(i, j)).collect())
            .collect()
    }

    /// The full distance matrix, for [`Workload::ShortestPaths`]
    /// solutions.
    pub fn distances(&self) -> Option<&Matrix> {
        match &self.values {
            Values::Distances(m) => Some(m),
            _ => None,
        }
    }

    /// The full width matrix, for [`Workload::Widest`] solutions.
    pub fn widths(&self) -> Option<&ElemBlock<BottleneckF64>> {
        match &self.values {
            Values::Widths(m) => Some(m),
            _ => None,
        }
    }

    /// The full closure matrix, for [`Workload::Reachability`] solutions.
    pub fn reachability(&self) -> Option<&ElemBlock<BoolSemiring>> {
        match &self.values {
            Values::Reach(m) => Some(m),
            _ => None,
        }
    }

    /// The witness via matrix, when the solve tracked paths.
    /// `None` for store-backed solutions, whose via plane stays on disk.
    pub fn parents(&self) -> Option<&ParentMatrix> {
        self.vias.as_ref()
    }

    // -- persistence ---------------------------------------------------------

    /// Persists this solution into `dir` as a committed closure store
    /// (see [`crate::store`]): the full block grid is framed and
    /// checksummed, and the manifest is written last, so `dir` either
    /// opens as this exact answer or not at all. A later process gets it
    /// back with [`Solution::open`] — no re-solve, point queries served
    /// from disk through a block cache.
    ///
    /// Store-backed solutions refuse to re-save (the directory already
    /// *is* the store; copy it to relocate).
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), ApspError> {
        let dir = dir.as_ref();
        let via_fn = self
            .vias
            .as_ref()
            .map(|pm| move |i: usize, j: usize| pm.via(i, j).unwrap_or(NO_VIA));
        let vias: Option<&dyn Fn(usize, usize) -> u32> = match &via_fn {
            Some(f) => Some(f),
            None => None,
        };
        let write = |values: ValueSource<'_>| {
            store::write_store(
                dir,
                &StoreContents {
                    workload: self.workload,
                    solver: self.plan.solver,
                    directed: self.plan.directed,
                    n: self.n,
                    b: self.plan.block_size.clamp(1, self.n),
                    values,
                    vias,
                },
            )
        };
        match &self.values {
            Values::Distances(m) => {
                let f = |i: usize, j: usize| m.get(i, j);
                write(ValueSource::F64(&f))
            }
            Values::Widths(m) => {
                let f = |i: usize, j: usize| m.get(i, j);
                write(ValueSource::F64(&f))
            }
            Values::Reach(m) => {
                let f = |i: usize, j: usize| m.get(i, j);
                write(ValueSource::Bool(&f))
            }
            Values::Stored(s) => Err(ApspError::Store(format!(
                "this solution is already store-backed (under '{}'); copy the \
                 directory to relocate it",
                s.dir().display()
            ))),
            Values::Hierarchical(_) => Err(ApspError::Store(
                "hierarchical solutions serve point queries lazily and never \
                 materialize the n x n closure a store would persist; re-solve \
                 with prefer(BlockedCollectBroadcast) to save"
                    .into(),
            )),
        }
    }

    /// Opens a committed closure store as a `Solution`, with the default
    /// cache budget ([`crate::store::DEFAULT_STORE_CACHE_BUDGET`]). The
    /// manifest is validated up front; blocks load lazily as queries
    /// touch them, so opening is O(1) in the closure size.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Solution, ApspError> {
        Self::open_with_cache_budget(dir, store::DEFAULT_STORE_CACHE_BUDGET)
    }

    /// [`Solution::open`] with an explicit decoded-block cache budget in
    /// bytes — small budgets bound resident memory and trade it for
    /// re-reads (observable via [`Solution::store`] metrics).
    pub fn open_with_cache_budget(
        dir: impl Into<PathBuf>,
        cache_budget_bytes: u64,
    ) -> Result<Solution, ApspError> {
        Ok(Self::from_store(ClosureStore::open_with_budget(
            dir,
            cache_budget_bytes,
        )?))
    }

    /// Wraps an already-open [`ClosureStore`] as a `Solution`. The plan
    /// is reconstructed from the store manifest (solver, geometry,
    /// workload, tracking) with a `store-open` note marking its origin.
    pub fn from_store(store: ClosureStore) -> Solution {
        let note = PlanNote::new(
            "store-open",
            format!(
                "plan reconstructed from the store manifest under '{}'",
                store.dir().display()
            ),
        );
        let plan = Plan {
            solver: store.solver(),
            block_size: store.block_size(),
            kernel: MinPlusKernel::Auto,
            partitioner: PartitionerChoice::MultiDiagonal,
            workload: store.workload(),
            paths: store.tracked(),
            directed: store.directed(),
            n: store.order(),
            cores: 1,
            partitions: None,
            validate: true,
            checkpoint: None,
            store: None,
            notes: vec![note],
            projection: None,
        };
        Solution {
            n: store.order(),
            workload: store.workload(),
            values: Values::Stored(store),
            vias: None,
            plan,
            metrics: MetricsSnapshot::default(),
            elapsed: Duration::ZERO,
            iterations: 0,
        }
    }

    /// The backing [`ClosureStore`] of a store-backed solution — live
    /// cache counters, geometry, and the backing directory. `None` for
    /// in-memory solutions.
    pub fn store(&self) -> Option<&ClosureStore> {
        match &self.values {
            Values::Stored(s) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators;
    use sparklet::SparkConfig;

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConfig::with_cores(2))
    }

    #[test]
    fn default_plan_picks_cb() {
        let g = generators::grid(4, 4);
        let plan = Problem::new(&g).plan(&ctx()).unwrap();
        assert_eq!(plan.solver, SolverId::BlockedCollectBroadcast);
        assert!(plan.notes().is_empty());
        assert!(plan.block_size >= 1 && plan.block_size <= 16);
        assert!(plan.projection().unwrap().feasibility.is_feasible());
    }

    #[test]
    fn headline_call_works_for_all_three_workloads() {
        let g = generators::grid(3, 3);
        let sc = ctx();
        for w in [
            Workload::ShortestPaths,
            Workload::Widest,
            Workload::Reachability,
        ] {
            let sol = Problem::new(&g)
                .workload(w)
                .with_paths()
                .solve(&sc)
                .unwrap();
            assert_eq!(sol.workload(), w);
            assert!(sol.reachable(0, 8));
            let p = sol.path(0, 8).expect("grid is connected and paths tracked");
            assert_eq!(p.first(), Some(&0));
            assert_eq!(p.last(), Some(&8));
        }
    }

    #[test]
    fn directed_input_routes_to_directed_solver() {
        let g = generators::erdos_renyi_directed(20, 0.15, 3);
        let plan = Problem::from_digraph(&g).plan(&ctx()).unwrap();
        assert_eq!(plan.solver, SolverId::DirectedBlockedCB);
    }

    #[test]
    fn directed_algebra_workloads_are_rejected() {
        let g = generators::erdos_renyi_directed(10, 0.2, 1);
        let err = Problem::from_digraph(&g)
            .workload(Workload::Widest)
            .plan(&ctx())
            .unwrap_err();
        assert!(matches!(err, ApspError::InvalidConfig(_)));
    }

    #[test]
    fn empty_input_is_rejected() {
        let g = Graph::new(0);
        assert!(matches!(
            Problem::new(&g).plan(&ctx()),
            Err(ApspError::InvalidInput(_))
        ));
    }

    #[test]
    fn zero_block_size_pin_is_rejected() {
        let g = generators::grid(2, 2);
        assert!(matches!(
            Problem::new(&g).block_size(0).plan(&ctx()),
            Err(ApspError::InvalidConfig(_))
        ));
    }

    #[test]
    fn oversized_block_size_pin_is_clamped_with_a_note() {
        let g = generators::grid(3, 3);
        let plan = Problem::new(&g).block_size(256).plan(&ctx()).unwrap();
        assert_eq!(plan.block_size, 9);
        assert!(
            plan.notes().iter().any(|n| n.rule == "pinned-clamped"),
            "clamping an explicit pin must be recorded: {:?}",
            plan.notes()
        );
        assert!(plan.explain().contains("pinned-clamped"));
    }

    #[test]
    fn solution_point_queries() {
        // 0 -1- 1 -2- 2, isolated 3.
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0)]);
        let sol = Problem::new(&g).with_paths().solve(&ctx()).unwrap();
        assert_eq!(sol.dist(0, 2), Some(3.0));
        assert_eq!(sol.dist(0, 3), None);
        assert_eq!(sol.width(0, 2), None, "wrong workload");
        assert!(sol.reachable(0, 2));
        assert!(!sol.reachable(0, 3));
        assert_eq!(sol.path(0, 2), Some(vec![0, 1, 2]));
        assert_eq!(sol.path(0, 3), None);
        assert_eq!(sol.path(3, 3), Some(vec![3]));
        assert_eq!(sol.k_nearest(0, 5), vec![(1, 1.0), (2, 3.0)]);
        assert_eq!(sol.k_nearest(0, 1), vec![(1, 1.0)]);
        let sub = sol.submatrix(&[0, 3], &[2]);
        assert_eq!(sub[0], vec![3.0]);
        assert_eq!(sub[1], vec![INF]);
    }

    #[test]
    fn k_nearest_widest_prefers_fat_pipes() {
        let g = Graph::from_edges(3, [(0, 1, 10.0), (1, 2, 7.0), (0, 2, 1.0)]);
        let sol = Problem::new(&g)
            .workload(Workload::Widest)
            .solve(&ctx())
            .unwrap();
        assert_eq!(sol.width(0, 2), Some(7.0));
        assert_eq!(sol.k_nearest(0, 2), vec![(1, 10.0), (2, 7.0)]);
        assert_eq!(sol.dist(0, 2), None, "wrong workload");
    }

    #[test]
    fn plan_config_round_trips_to_expert_layer() {
        let g = generators::grid(4, 4);
        let plan = Problem::new(&g)
            .with_paths()
            .block_size(8)
            .plan(&ctx())
            .unwrap();
        let cfg = plan.solver_config();
        assert_eq!(cfg.block_size, 8);
        assert!(cfg.track_paths);
        assert_eq!(cfg.partitioner, PartitionerChoice::MultiDiagonal);
    }

    #[test]
    fn capabilities_reachable_from_types_and_ids() {
        for id in SolverId::ALL {
            let caps = id.capabilities();
            assert_eq!(caps.id, id);
            assert!(caps.directed || caps.undirected);
        }
        assert!(!SolverId::DirectedBlockedCB.capabilities().paths);
        assert!(SolverId::DirectedFloydWarshall2D.capabilities().paths);
    }
}
