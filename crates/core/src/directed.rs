//! Directed APSP — the paper's §4 extension ("by disregarding
//! symmetricity of A, our algorithms can be directly adopted for cases
//! where G is a directed graph").
//!
//! Exactly that happens here: both solvers are the generic
//! Collect/Broadcast and 2D Floyd-Warshall loops of the crate-private
//! `engine` module run on its full `q × q` block grid instead of the upper
//! triangle — no halving, no transpose-on-demand, pivot row and pivot
//! column distinct stored data. This module holds no loop of its own.

use crate::engine::{Grid, Loop};
use crate::solver::{solve_apsp, ApspError, ApspResult, SolverConfig};
use apsp_blockmat::Matrix;
use sparklet::SparkContext;

/// Directed Blocked Collect/Broadcast: Algorithm 4 without the symmetry
/// shortcut. Phase 2 updates both the pivot row-block and column-block;
/// Phase 3 reads the staged *column* piece `C_X = A_Xi` and *row* piece
/// `R_Y = A_iY` (distinct objects for directed inputs).
///
/// # Why `with_paths` is still rejected here
///
/// The tracked kernel tier records the winning intermediate vertex of a
/// fold `A_XY ⊕ (A_Xi ⊗ A_iY)` under a **seeding contract**: degenerate
/// terms (global `k` equal to the target's row or column) are skipped
/// because the target already holds the estimate they would restate. On
/// the triangle a transpose-mirror argument ties the two staged
/// orientations' argmins together; here `C_X` and `R_Y` are distinct
/// objects that may already include relaxations through pivot block `i`
/// the *stored* target has not seen. The full grid does give each
/// orientation its own parent plane (the planned fix, see ROADMAP), but
/// until tracked full-grid CB is validated against the directed oracles a
/// via whose expansion does not terminate cannot be ruled out, so the
/// config is rejected loudly. Use [`DirectedFloydWarshall2D`], whose
/// single-pivot rank-1 updates need no seeding argument.
#[derive(Debug, Default, Clone)]
pub struct DirectedBlockedCB;

impl DirectedBlockedCB {
    /// Solver label.
    pub fn name(&self) -> &'static str {
        "Directed Blocked-CB"
    }

    /// Solves directed APSP for a dense adjacency matrix (zero diagonal,
    /// non-negative weights; symmetry not required).
    pub fn solve(
        &self,
        ctx: &SparkContext,
        adjacency: &Matrix,
        cfg: &SolverConfig,
    ) -> Result<ApspResult, ApspError> {
        solve_apsp(ctx, adjacency, cfg, (Loop::Cb, Grid::Full))
    }
}

/// Directed 2D Floyd-Warshall: Algorithm 2 without the symmetry shortcut.
/// Each iteration extracts *both* the pivot column (`d(x, k)`) and the
/// pivot row (`d(k, y)`) — distinct vectors for directed inputs — and
/// broadcasts them for the rank-1 update.
#[derive(Debug, Default, Clone)]
pub struct DirectedFloydWarshall2D;

impl DirectedFloydWarshall2D {
    /// Solver label.
    pub fn name(&self) -> &'static str {
        "Directed 2D Floyd-Warshall"
    }

    /// Solves directed APSP for a dense adjacency matrix.
    ///
    /// Honors [`SolverConfig::with_paths`]: each block carries a
    /// per-orientation parent plane (the full grid stores both `(X, Y)`
    /// and `(Y, X)`, so no transpose-mirror argument is needed) and every
    /// rank-1 update records the broadcast pivot as the via — a valid
    /// interior vertex of the *directed* `i → j` path by construction.
    /// Both modes run the same generic full-grid loop, instantiated with
    /// [`apsp_blockmat::Tropical`] or [`apsp_blockmat::TrackedTropical`].
    pub fn solve(
        &self,
        ctx: &SparkContext,
        adjacency: &Matrix,
        cfg: &SolverConfig,
    ) -> Result<ApspResult, ApspError> {
        solve_apsp(ctx, adjacency, cfg, (Loop::Fw2d, Grid::Full))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::ApspSolver;
    use apsp_graph::{apsp_dijkstra_directed, generators, DiGraph};
    use sparklet::SparkConfig;

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConfig::with_cores(4))
    }

    #[test]
    fn one_way_cycle_distances() {
        let mut g = DiGraph::new(12);
        for i in 0..12u32 {
            g.add_arc(i, (i + 1) % 12, 1.0);
        }
        let res = DirectedBlockedCB
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(4))
            .unwrap();
        assert_eq!(res.distances().get(0, 1), 1.0);
        assert_eq!(res.distances().get(1, 0), 11.0);
    }

    #[test]
    fn matches_directed_dijkstra_on_random_digraphs() {
        for seed in [1u64, 2, 3] {
            let g = generators::erdos_renyi_directed(48, 0.12, seed);
            let res = DirectedBlockedCB
                .solve(&ctx(), &g.to_dense(), &SolverConfig::new(12))
                .unwrap();
            let oracle = apsp_dijkstra_directed(&g);
            assert!(
                res.distances().approx_eq(&oracle, 1e-9).is_ok(),
                "seed {seed} diverged"
            );
        }
    }

    #[test]
    fn symmetric_input_matches_undirected_solver() {
        let g = generators::erdos_renyi_paper(60, 0.1, 9);
        let adj = g.to_dense();
        let directed = DirectedBlockedCB
            .solve(&ctx(), &adj, &SolverConfig::new(16))
            .unwrap();
        let undirected = crate::BlockedCollectBroadcast
            .solve(&ctx(), &adj, &SolverConfig::new(16))
            .map_err(|e| panic!("{e}"))
            .unwrap();
        assert!(directed
            .distances()
            .approx_eq(undirected.distances(), 1e-9)
            .is_ok());
    }

    #[test]
    fn uneven_blocks_directed() {
        let g = generators::erdos_renyi_directed(29, 0.15, 4);
        let res = DirectedBlockedCB
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(8))
            .unwrap();
        let oracle = apsp_dijkstra_directed(&g);
        assert!(res.distances().approx_eq(&oracle, 1e-9).is_ok());
    }

    #[test]
    fn accepts_asymmetric_rejects_negative() {
        let mut m = Matrix::identity(4);
        m.set(0, 1, 1.0); // no reverse arc: asymmetric is fine
        assert!(DirectedBlockedCB
            .solve(&ctx(), &m, &SolverConfig::new(2))
            .is_ok());
        m.set(2, 3, -2.0);
        assert!(matches!(
            DirectedBlockedCB.solve(&ctx(), &m, &SolverConfig::new(2)),
            Err(ApspError::InvalidInput(_))
        ));
    }

    #[test]
    fn directed_fw2d_matches_directed_dijkstra() {
        for seed in [4u64, 8] {
            let g = generators::erdos_renyi_directed(40, 0.12, seed);
            let res = DirectedFloydWarshall2D
                .solve(&ctx(), &g.to_dense(), &SolverConfig::new(12))
                .unwrap();
            let oracle = apsp_dijkstra_directed(&g);
            assert!(
                res.distances().approx_eq(&oracle, 1e-9).is_ok(),
                "seed {seed} diverged"
            );
            assert_eq!(res.iterations, 40);
        }
    }

    #[test]
    fn directed_fw2d_agrees_with_directed_cb() {
        let g = generators::erdos_renyi_directed(33, 0.2, 6);
        let adj = g.to_dense();
        let fw = DirectedFloydWarshall2D
            .solve(&ctx(), &adj, &SolverConfig::new(10))
            .unwrap();
        let cb = DirectedBlockedCB
            .solve(&ctx(), &adj, &SolverConfig::new(10))
            .unwrap();
        assert!(fw.distances().approx_eq(cb.distances(), 1e-9).is_ok());
    }

    #[test]
    fn directed_fw2d_tracked_round_trips() {
        for seed in [11u64, 23] {
            let g = generators::erdos_renyi_directed(34, 0.15, seed);
            let adj = g.to_dense();
            let res = DirectedFloydWarshall2D
                .solve(&ctx(), &adj, &SolverConfig::new(8).with_paths())
                .unwrap();
            assert!(res.parents().is_some());
            let oracle = apsp_dijkstra_directed(&g);
            assert!(
                res.distances().approx_eq(&oracle, 1e-9).is_ok(),
                "seed {seed}: tracked distances diverge"
            );
            let dap = res.into_paths().unwrap();
            dap.validate_against(&adj, 1e-9)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn directed_fw2d_tracked_matches_untracked_distances() {
        let g = generators::erdos_renyi_directed(29, 0.2, 2);
        let adj = g.to_dense();
        let plain = DirectedFloydWarshall2D
            .solve(&ctx(), &adj, &SolverConfig::new(7))
            .unwrap();
        let tracked = DirectedFloydWarshall2D
            .solve(&ctx(), &adj, &SolverConfig::new(7).with_paths())
            .unwrap();
        assert!(tracked
            .distances()
            .approx_eq(plain.distances(), 0.0)
            .is_ok());
    }

    #[test]
    fn directed_fw2d_tracked_one_way_cycle_paths_walk_the_ring() {
        let mut g = DiGraph::new(9);
        for i in 0..9u32 {
            g.add_arc(i, (i + 1) % 9, 1.0);
        }
        let res = DirectedFloydWarshall2D
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(4).with_paths())
            .unwrap();
        let dap = res.into_paths().unwrap();
        // 2 → 1 must walk forward around the ring (8 hops), never backward.
        let p = dap.reconstruct(2, 1).unwrap();
        assert_eq!(p.len(), 9);
        for w in p.windows(2) {
            assert_eq!((w[0] + 1) % 9, w[1], "path must follow arcs: {p:?}");
        }
    }

    #[test]
    fn directed_cb_still_rejects_with_paths() {
        let g = generators::erdos_renyi_directed(12, 0.2, 3);
        let err = DirectedBlockedCB
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(4).with_paths())
            .unwrap_err();
        assert!(matches!(err, ApspError::InvalidConfig(_)));
    }

    #[test]
    fn symmetric_input_fw2d_full_grid_matches_the_triangle_bit_for_bit() {
        // Same loop, same relaxation order: on a symmetric input the grid
        // axis changes what is stored, never a value — tracked or not.
        let adj = generators::erdos_renyi_paper(45, 0.1, 13).to_dense();
        for cfg in [SolverConfig::new(12), SolverConfig::new(12).with_paths()] {
            let full = DirectedFloydWarshall2D.solve(&ctx(), &adj, &cfg).unwrap();
            let tri = crate::FloydWarshall2D.solve(&ctx(), &adj, &cfg).unwrap();
            assert!(full.distances().approx_eq(tri.distances(), 0.0).is_ok());
            assert_eq!(full.parents().is_some(), cfg.track_paths);
        }
    }

    #[test]
    fn directed_cb_counters_match_the_closed_forms() {
        // No redundant transposes: per round the diagonal plus 2(q-1) cross
        // blocks are staged, read once per cross block and twice per other
        // block — what the hand-written loop this replaced reported.
        let (q, partitions) = (4u64, 8u64); // n = 64, b = 16; 2 x 4 cores
        let adj = generators::erdos_renyi_directed(64, 0.1, 1).to_dense();
        let m = DirectedBlockedCB
            .solve(&ctx(), &adj, &SolverConfig::new(16))
            .unwrap()
            .metrics;
        assert_eq!(m.side_channel_writes, q * (2 * q - 1));
        assert_eq!(m.side_channel_reads, q * 2 * (q - 1) * q);
        assert_eq!((m.jobs, m.stages, m.shuffles), (3 * q + 1, 4 * q + 1, q));
        assert_eq!(m.tasks, partitions * (6 * q + 1));
        assert_eq!(m.collected_records, q * (2 * q - 1) + q * q);
    }

    #[test]
    fn full_grid_solves_reject_checkpoint_specs() {
        // The checkpoint format covers the triangle only; a dropped spec
        // would report a protected (or resumed) solve that is neither.
        let dir = std::env::temp_dir().join("apspark-directed-ckpt-rejected");
        let adj = generators::erdos_renyi_directed(12, 0.2, 3).to_dense();
        let cfg = SolverConfig::new(4).with_checkpoints(crate::CheckpointSpec::every(&dir, 1));
        for res in [
            DirectedBlockedCB.solve(&ctx(), &adj, &cfg),
            DirectedFloydWarshall2D.solve(&ctx(), &adj, &cfg),
        ] {
            assert!(matches!(res, Err(ApspError::InvalidConfig(_))));
        }
        assert!(!dir.exists(), "a rejected spec must not touch the disk");
    }
}
