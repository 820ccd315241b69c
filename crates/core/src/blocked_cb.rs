//! Algorithm 4: Blocked Collect/Broadcast — the paper's best solver.

use crate::blocks::BlockedMatrix;
use crate::engine::{self, Grid, Loop};
use crate::solver::{validate_adjacency, ApspError, EngineSolver, SolverConfig};
use apsp_blockmat::{Matrix, Tropical};
use sparklet::{SparkContext, SparkError};
use std::time::Instant;

/// The paper's Algorithm 4: the blocked (Venkataraman) Floyd-Warshall
/// where Phase-1/2 results travel through the **driver and shared
/// persistent storage** instead of copy shuffles:
///
/// 1. the solved diagonal block is `collect`ed and staged (line 3),
/// 2. the updated pivot row/column is `collect`ed and staged per block
///    (lines 5–7),
/// 3. every remaining block applies `MinPlus` reading its two column
///    blocks from storage (line 9),
/// 4. `union` + `partitionBy` reassembles `A` (lines 11–12).
///
/// Impure: staged blocks live outside the lineage, so recomputed tasks
/// may find them gone (exercised by the fault-injection tests).
///
/// The algorithm itself lives in the crate-private `engine` module
/// generically. This front-end only names its loop: its
/// [`ApspSolver`](crate::ApspSolver) impl (over [`crate::Tropical`], or
/// [`crate::TrackedTropical`] under `with_paths`) and its
/// [`AlgebraSolver`](crate::AlgebraSolver) impl, which runs the same loop
/// for bottleneck and reachability workloads, come from the engine seam.
#[derive(Debug, Default, Clone)]
pub struct BlockedCollectBroadcast;

impl EngineSolver for BlockedCollectBroadcast {
    const NAME: &'static str = "Blocked-CB";
    const PURE: bool = false;
    const LOOP: Loop = Loop::Cb;
}

/// A solved distance matrix left *distributed*: the paper's driver needs
/// 180 GB just to coordinate at `n = 262144`; collecting the `n² × 8`-byte
/// result (550 GB) is not an option at scale. This handle keeps the
/// closed blocks in the engine and serves point/row queries by fetching
/// single blocks.
pub struct DistributedDistances {
    /// The closed blocked matrix (upper triangle).
    pub blocked: crate::blocks::BlockedMatrix,
    /// Engine-counter increments attributable to the solve.
    pub metrics: sparklet::MetricsSnapshot,
    /// Wall-clock duration of the solve.
    pub elapsed: std::time::Duration,
    /// Blocked iterations executed (`q`).
    pub iterations: u64,
}

impl DistributedDistances {
    fn check_vertex(&self, v: usize) -> Result<(), ApspError> {
        if v < self.blocked.n {
            Ok(())
        } else {
            Err(ApspError::InvalidInput(format!(
                "vertex {v} out of range for n = {}",
                self.blocked.n
            )))
        }
    }

    /// Shortest distance between two vertices: fetches exactly one block.
    pub fn distance(&self, i: usize, j: usize) -> Result<f64, ApspError> {
        self.check_vertex(i)?;
        self.check_vertex(j)?;
        let b = self.blocked.b;
        let key = crate::blocks::canonical(i / b, j / b);
        let records = self.blocked.rdd.filter(move |(k, _)| *k == key).collect()?;
        let (_, blk) = records
            .into_iter()
            .next()
            .ok_or_else(|| ApspError::Engine(SparkError::User(format!("missing block {key:?}"))))?;
        let (bi, bj) = (i / b, j / b);
        Ok(if (bi, bj) == key {
            blk.get(i % b, j % b)
        } else {
            blk.get(j % b, i % b) // transpose lookup
        })
    }

    /// All distances from one source vertex: fetches the source's block
    /// cross (`q` blocks), not the whole matrix.
    pub fn row(&self, i: usize) -> Result<Vec<f64>, ApspError> {
        self.check_vertex(i)?;
        let (n, b) = (self.blocked.n, self.blocked.b);
        let block_row = i / b;
        let local = i % b;
        let records = self
            .blocked
            .rdd
            .filter(move |(key, _)| crate::building_blocks::in_column(key, block_row))
            .collect()?;
        let mut out = vec![apsp_blockmat::INF; n];
        for ((x, y), blk) in records {
            if x == block_row {
                // Row `local` of A_(block_row)Y covers columns of block y.
                for (c, &v) in blk.extract_row(local).iter().enumerate() {
                    let gj = y * b + c;
                    if gj < n {
                        out[gj] = v;
                    }
                }
            }
            if y == block_row && x != block_row {
                // Column `local` of A_X(block_row), transposed.
                for (c, &v) in blk.extract_col(local).iter().enumerate() {
                    let gj = x * b + c;
                    if gj < n {
                        out[gj] = v;
                    }
                }
            }
        }
        Ok(out)
    }
}

impl BlockedCollectBroadcast {
    /// Like [`crate::ApspSolver::solve`] but leaves the result distributed.
    ///
    /// Rejects [`SolverConfig::with_paths`]: the distributed handle has no
    /// parent-matrix surface — use [`crate::ApspSolver::solve`], whose
    /// collected result carries one.
    pub fn solve_distributed(
        &self,
        ctx: &SparkContext,
        adjacency: &Matrix,
        cfg: &SolverConfig,
    ) -> Result<DistributedDistances, ApspError> {
        if cfg.track_paths {
            return Err(ApspError::InvalidConfig(
                "path tracking (with_paths) is not supported by solve_distributed; \
                 use solve(), whose collected result carries the parent matrix"
                    .into(),
            ));
        }
        let n = adjacency.order();
        cfg.check(n)?;
        if cfg.validate_input {
            validate_adjacency(adjacency)?;
        }
        let start = Instant::now();
        let metrics_before = ctx.metrics();

        let (rdd, iterations) = engine::solve_cb::<Tropical>(
            ctx,
            n,
            &|i, j| adjacency.get(i, j),
            cfg,
            Grid::UpperTriangle,
        )?;

        let metrics = ctx.metrics().delta(&metrics_before);
        let b = cfg.block_size;
        let rdd = rdd.map(|(key, ab)| (key, ab.into_parts().0));
        Ok(DistributedDistances {
            blocked: BlockedMatrix {
                n,
                b,
                q: n.div_ceil(b),
                rdd,
            },
            metrics,
            elapsed: start.elapsed(),
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::PartitionerChoice;
    use crate::solver::ApspSolver;
    use apsp_blockmat::INF;
    use apsp_graph::{floyd_warshall as fw_oracle, generators};
    use sparklet::SparkConfig;

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConfig::with_cores(4))
    }

    #[test]
    fn matches_oracle_on_random_graph() {
        let g = generators::erdos_renyi_paper(96, 0.1, 77);
        let res = BlockedCollectBroadcast
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(24))
            .unwrap();
        assert!(res.distances().approx_eq(&fw_oracle(&g), 1e-9).is_ok());
        assert_eq!(res.iterations, 4);
    }

    #[test]
    fn matches_oracle_with_portable_hash() {
        let g = generators::erdos_renyi_paper(50, 0.1, 8);
        let cfg = SolverConfig::new(10).with_partitioner(PartitionerChoice::PortableHash);
        let res = BlockedCollectBroadcast
            .solve(&ctx(), &g.to_dense(), &cfg)
            .unwrap();
        assert!(res.distances().approx_eq(&fw_oracle(&g), 1e-9).is_ok());
    }

    #[test]
    fn single_block_degenerates_to_sequential_fw() {
        let g = generators::grid(3, 4);
        let res = BlockedCollectBroadcast
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(64))
            .unwrap();
        assert!(res.distances().approx_eq(&fw_oracle(&g), 1e-9).is_ok());
        assert_eq!(res.iterations, 1);
    }

    #[test]
    fn uneven_tail_block() {
        let g = generators::erdos_renyi_paper(45, 0.1, 15);
        let res = BlockedCollectBroadcast
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(16))
            .unwrap();
        assert!(res.distances().approx_eq(&fw_oracle(&g), 1e-9).is_ok());
    }

    #[test]
    fn uses_side_channel_not_shuffles_for_broadcast() {
        let sc = ctx();
        let g = generators::erdos_renyi_paper(64, 0.1, 4);
        let res = BlockedCollectBroadcast
            .solve(&sc, &g.to_dense(), &SolverConfig::new(16))
            .unwrap();
        assert!(res.metrics.side_channel_writes > 0, "CB must stage blocks");
        assert!(res.metrics.side_channel_reads > 0);
        // The only shuffles are the per-iteration partitionBy, far less
        // volume than IM's copy shuffles (asserted cross-solver in the
        // integration tests).
        assert!(res.metrics.shuffles as usize <= 4 /* q */);
    }

    #[test]
    fn side_channel_cleaned_up() {
        let sc = ctx();
        let g = generators::erdos_renyi_paper(40, 0.1, 2);
        let _ = BlockedCollectBroadcast
            .solve(&sc, &g.to_dense(), &SolverConfig::new(10))
            .unwrap();
        assert!(
            sc.side_channel().is_empty(),
            "staged blocks must be removed"
        );
    }

    #[test]
    fn disconnected_graph() {
        let mut g = apsp_graph::Graph::new(12);
        g.add_edge(0, 1, 3.0);
        g.add_edge(5, 7, 1.0);
        let res = BlockedCollectBroadcast
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(4))
            .unwrap();
        assert_eq!(res.distances().get(0, 5), INF);
        assert_eq!(res.distances().get(5, 7), 1.0);
    }

    #[test]
    fn distributed_queries_match_collected_matrix() {
        let sc = ctx();
        let g = generators::erdos_renyi_paper(60, 0.1, 33);
        let adj = g.to_dense();
        let dd = BlockedCollectBroadcast
            .solve_distributed(&sc, &adj, &SolverConfig::new(16))
            .unwrap();
        let full = fw_oracle(&g);
        // Point queries across all block orientations.
        // Distributed and sequential solvers may differ in the last ulp
        // (different relaxation orders), so compare with tolerance.
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite());
        for (i, j) in [(0, 0), (3, 55), (55, 3), (17, 17), (59, 0), (20, 21)] {
            let v = dd.distance(i, j).unwrap();
            assert!(close(v, full.get(i, j)), "distance({i},{j}): {v}");
        }
        // Row queries.
        for i in [0usize, 16, 59] {
            let row = dd.row(i).unwrap();
            for (j, &v) in row.iter().enumerate() {
                assert!(close(v, full.get(i, j)), "row({i})[{j}]: {v}");
            }
        }
        // A point query collects one block record, not the whole matrix.
        let before = sc.metrics();
        let _ = dd.distance(1, 2).unwrap();
        let delta = sc.metrics().delta(&before);
        assert!(delta.collected_records <= 1);
    }

    #[test]
    fn distributed_queries_reject_out_of_range_vertices() {
        let dd = BlockedCollectBroadcast
            .solve_distributed(
                &ctx(),
                &generators::cycle(8).to_dense(),
                &SolverConfig::new(4),
            )
            .unwrap();
        for res in [dd.distance(8, 0), dd.distance(0, 8)] {
            assert!(matches!(res, Err(ApspError::InvalidInput(_))));
        }
        assert!(matches!(dd.row(8), Err(ApspError::InvalidInput(_))));
        assert_eq!(dd.distance(7, 0).unwrap(), 1.0);
        assert_eq!(dd.row(7).unwrap().len(), 8);
    }

    #[test]
    fn solve_distributed_rejects_with_paths() {
        let g = generators::cycle(8);
        let err = BlockedCollectBroadcast
            .solve_distributed(&ctx(), &g.to_dense(), &SolverConfig::new(4).with_paths())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ApspError::InvalidConfig(_)));
    }

    #[test]
    fn rejects_invalid_input() {
        let mut m = Matrix::identity(4);
        m.set(1, 2, -1.0);
        m.set(2, 1, -1.0);
        let err = BlockedCollectBroadcast
            .solve(&ctx(), &m, &SolverConfig::new(2))
            .unwrap_err();
        assert!(matches!(err, ApspError::InvalidInput(_)));
    }
}
