//! Algorithm 3: Blocked In-Memory — the pure blocked solver.

use crate::engine::Loop;
use crate::solver::EngineSolver;

/// The paper's Algorithm 3: the blocked (Venkataraman) Floyd-Warshall
/// staying entirely inside the fault-tolerant engine API. Data that the
/// Collect/Broadcast variant would stage in shared storage is instead
/// *replicated through shuffles*:
///
/// 1. Phase 1 closes the diagonal block (`FloydWarshall`) and `CopyDiag`
///    replicates it to the pivot cross, placed by the custom partitioner
///    (lines 2–4);
/// 2. Phase 2 pairs copies with cross blocks via `combineByKey`
///    (`ListAppend`) + `ListUnpack` and applies the update (lines 6–10),
///    then `CopyCol` replicates the updated cross to Phase-3 targets;
/// 3. Phase 3 pairs and updates the remaining blocks, and the union is
///    repartitioned (lines 12–15) — without this `partitionBy` the
///    partition count of the union would grow every iteration (§5.2).
///
/// Pure and fault-tolerant, but data-intensive: the copy shuffles move
/// (and spill) O(q²) blocks per iteration — the source of its local-
/// storage blowup at scale.
///
/// The algorithm itself lives in the crate-private `engine` module
/// generically. This front-end only names its loop: its
/// [`ApspSolver`](crate::ApspSolver) impl (over [`crate::Tropical`], or
/// [`crate::TrackedTropical`] under `with_paths`) and its
/// [`AlgebraSolver`](crate::AlgebraSolver) impl come from the engine seam.
#[derive(Debug, Default, Clone)]
pub struct BlockedInMemory;

impl EngineSolver for BlockedInMemory {
    const NAME: &'static str = "Blocked-IM";
    const PURE: bool = true;
    const LOOP: Loop = Loop::Im;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::PartitionerChoice;
    use crate::solver::{ApspSolver, SolverConfig};
    use apsp_blockmat::INF;
    use apsp_graph::{floyd_warshall as fw_oracle, generators};
    use sparklet::{SparkConfig, SparkContext};

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConfig::with_cores(4))
    }

    #[test]
    fn matches_oracle_on_random_graph() {
        let g = generators::erdos_renyi_paper(96, 0.1, 123);
        let res = BlockedInMemory
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(24))
            .unwrap();
        assert!(res.distances().approx_eq(&fw_oracle(&g), 1e-9).is_ok());
        assert_eq!(res.iterations, 4);
    }

    #[test]
    fn matches_oracle_with_portable_hash() {
        let g = generators::erdos_renyi_paper(64, 0.1, 9);
        let cfg = SolverConfig::new(16).with_partitioner(PartitionerChoice::PortableHash);
        let res = BlockedInMemory.solve(&ctx(), &g.to_dense(), &cfg).unwrap();
        assert!(res.distances().approx_eq(&fw_oracle(&g), 1e-9).is_ok());
    }

    #[test]
    fn two_blocks_exercise_cross_only_iteration() {
        let g = generators::erdos_renyi_paper(30, 0.1, 31);
        let res = BlockedInMemory
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(15))
            .unwrap();
        assert!(res.distances().approx_eq(&fw_oracle(&g), 1e-9).is_ok());
        assert_eq!(res.iterations, 2);
    }

    #[test]
    fn single_block() {
        let g = generators::cycle(9);
        let res = BlockedInMemory
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(16))
            .unwrap();
        assert!(res.distances().approx_eq(&fw_oracle(&g), 1e-9).is_ok());
    }

    #[test]
    fn pure_no_side_channel_but_shuffles() {
        let sc = ctx();
        let g = generators::erdos_renyi_paper(64, 0.1, 6);
        let res = BlockedInMemory
            .solve(&sc, &g.to_dense(), &SolverConfig::new(16))
            .unwrap();
        assert_eq!(
            res.metrics.side_channel_writes, 0,
            "IM must not touch the side channel"
        );
        assert!(res.metrics.shuffles > 0, "IM disseminates via shuffles");
        assert!(res.metrics.shuffle_bytes > 0);
    }

    #[test]
    fn weighted_path_graph_long_chains() {
        // Worst case for blocked updates: all-pairs paths traverse many
        // pivot blocks.
        let g = generators::path(40);
        let res = BlockedInMemory
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(8))
            .unwrap();
        for i in 0..40 {
            for j in 0..40 {
                assert_eq!(
                    res.distances().get(i, j),
                    (i as f64 - j as f64).abs(),
                    "d({i},{j})"
                );
            }
        }
    }

    #[test]
    fn disconnected_graph() {
        let mut g = apsp_graph::Graph::new(10);
        g.add_edge(0, 9, 2.5);
        let res = BlockedInMemory
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(3))
            .unwrap();
        assert_eq!(res.distances().get(0, 9), 2.5);
        assert_eq!(res.distances().get(1, 2), INF);
    }
}
