//! # apsp-core — the paper's APSP solvers
//!
//! Implements, on the [`sparklet`] dataflow engine and the [`mpilite`]
//! message-passing substrate, all six solvers evaluated in *Schoeneman &
//! Zola, "Solving All-Pairs Shortest-Paths Problem in Large Graphs Using
//! Apache Spark"* (ICPP 2019):
//!
//! | Solver | Paper | Purity | Mechanism |
//! |---|---|---|---|
//! | [`RepeatedSquaring`] | Alg. 1 | impure | min-plus `A^n` via column-block sweeps + side-channel columns |
//! | [`FloydWarshall2D`] | Alg. 2 | pure | `n` iterations, collect + broadcast of pivot column |
//! | [`BlockedInMemory`] | Alg. 3 | pure | Venkataraman blocked FW; copies disseminated by shuffles |
//! | [`BlockedCollectBroadcast`] | Alg. 4 | impure | blocked FW; copies via driver + shared storage |
//! | [`MpiFw2d`] | §5.5 | — | naive 2D Floyd-Warshall on `mpilite` |
//! | [`MpiDcApsp`] | §5.5 | — | divide-and-conquer (Kleene) APSP on `mpilite` |
//!
//! All Spark solvers share the paper's design decisions: the adjacency
//! matrix is 2D-decomposed into `q × q` blocks of side `b`, **only the
//! upper triangle is stored** (the executor owning `A_IJ` also serves
//! `A_JI` by transposition, §4), and the computational building blocks of
//! the paper's Table 1 ([`building_blocks`]) are shared across solvers.
//!
//! ## Example
//!
//! ```
//! use apsp_core::{ApspSolver, BlockedCollectBroadcast, SolverConfig};
//! use apsp_graph::generators;
//! use sparklet::{SparkConfig, SparkContext};
//!
//! let g = generators::erdos_renyi_paper(96, 0.1, 7);
//! let ctx = SparkContext::new(SparkConfig::with_cores(4));
//! let result = BlockedCollectBroadcast::default()
//!     .solve(&ctx, &g.to_dense(), &SolverConfig::new(32))
//!     .unwrap();
//! let oracle = apsp_graph::floyd_warshall(&g);
//! assert!(result.distances().approx_eq(&oracle, 1e-9).is_ok());
//! ```

#![warn(missing_docs)]

pub mod algebra;
mod blocked_cb;
mod blocked_im;
mod blocks;
pub mod building_blocks;
mod cartesian_rs;
pub mod checkpoint;
pub mod directed;
mod engine;
mod fw2d;
pub mod hierarchy;
pub mod jobs;
mod johnson_dist;
mod mpi_dc;
mod mpi_fw2d;
pub mod plan;
mod repeated_squaring;
pub mod serve;
mod solver;
pub mod store;
pub mod tuner;

pub use algebra::{AlgebraResult, AlgebraSolver};
pub use apsp_blockmat::kernels::MinPlusKernel;
pub use apsp_blockmat::{PathAlgebra, Reachability, TrackedTropical, Tropical, Widest};
pub use apsp_graph::paths::{DistancesAndParents, NodeId, ParentMatrix};
pub use blocked_cb::{BlockedCollectBroadcast, DistributedDistances};
pub use blocked_im::BlockedInMemory;
pub use blocks::{canonical, oriented, BlockKey, BlockRecord, BlockedMatrix, PartitionerChoice};
pub use cartesian_rs::CartesianSquaring;
pub use checkpoint::{CheckpointPolicy, CheckpointSignal, CheckpointSpec};
pub use directed::{DirectedBlockedCB, DirectedFloydWarshall2D};
pub use fw2d::FloydWarshall2D;
pub use hierarchy::{HierarchicalClosure, HierarchyConfig, HierarchyStats};
pub use jobs::{
    solver_by_name, workload_by_name, CancelOutcome, GraphSource, JobQueue, JobSpec, JobState,
    JobStatus, QueueFull, SolutionRegistry, STORE_SOLUTION_KEY,
};
pub use johnson_dist::DistributedJohnson;
pub use mpi_dc::MpiDcApsp;
pub use mpi_fw2d::MpiFw2d;
pub use plan::{Plan, PlanNote, Problem, ResourceHints, Solution, SolverCaps, SolverId, Workload};
pub use repeated_squaring::RepeatedSquaring;
pub use serve::{
    answer_json, answer_query, render_text, InterruptedJob, QueryAnswer, QueryError, QueryRequest,
    ServeConfig, Server, ServerHandle, ShutdownReport,
};
pub use solver::{ApspError, ApspResult, ApspSolver, SolverConfig};
pub use store::{finalize_checkpoint, ClosureStore, DEFAULT_STORE_CACHE_BUDGET};
