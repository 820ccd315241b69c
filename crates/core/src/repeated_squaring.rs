//! Algorithm 1: repeated squaring with column-block sweeps.

use crate::engine::Loop;
use crate::solver::EngineSolver;

/// The paper's Algorithm 1: compute `A^n` over the (min, +) semiring by
/// repeated squaring, with each squaring rewritten as `q` matrix ×
/// column-block products to avoid the all-to-all `cartesian` shuffle
/// (which "was easily stalling even on small problems", §4.2).
///
/// Per sweep `J` (lines 2–5): the column's blocks are `collect`ed at the
/// driver and staged in shared storage, every stored block of `A`
/// multiplies the matching column block (`MatProd`), and `reduceByKey`
/// with `MatMin` folds the partial products. Sweeps are `union`ed into
/// the next `A` (line 6).
///
/// Impure (side-channel staging) and asymptotically wasteful — `⌈log₂ n⌉`
/// squarings of `O(n³)` work each — but the fastest solver to write, which
/// is the paper's point about programmer productivity.
///
/// The algorithm itself lives in the crate-private `engine` module
/// generically. This front-end only names its loop: its
/// [`ApspSolver`](crate::ApspSolver) impl (over [`crate::Tropical`], or
/// [`crate::TrackedTropical`] under `with_paths`) and its
/// [`AlgebraSolver`](crate::AlgebraSolver) impl come from the engine seam.
#[derive(Debug, Default, Clone)]
pub struct RepeatedSquaring;

impl EngineSolver for RepeatedSquaring {
    const NAME: &'static str = "Repeated Squaring";
    const PURE: bool = false;
    const LOOP: Loop = Loop::Rs;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{ApspSolver, SolverConfig};
    use apsp_blockmat::INF;
    use apsp_graph::{floyd_warshall as fw_oracle, generators};
    use sparklet::{SparkConfig, SparkContext};

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConfig::with_cores(4))
    }

    #[test]
    fn matches_oracle_on_random_graph() {
        let g = generators::erdos_renyi_paper(48, 0.1, 44);
        let res = RepeatedSquaring
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(12))
            .unwrap();
        assert!(res.distances().approx_eq(&fw_oracle(&g), 1e-9).is_ok());
        // 4 column sweeps × ⌈log2 48⌉ = 6 squarings.
        assert_eq!(res.iterations, 24);
    }

    #[test]
    fn long_path_needs_all_squarings() {
        // A path of length 33 needs ⌈log2 34⌉ = 6 squarings to close; an
        // off-by-one in the squaring count fails exactly here.
        let g = generators::path(34);
        let res = RepeatedSquaring
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(8))
            .unwrap();
        assert_eq!(res.distances().get(0, 33), 33.0);
        assert!(res.distances().approx_eq(&fw_oracle(&g), 1e-9).is_ok());
    }

    #[test]
    fn single_block() {
        let g = generators::cycle(7);
        let res = RepeatedSquaring
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(8))
            .unwrap();
        assert!(res.distances().approx_eq(&fw_oracle(&g), 1e-9).is_ok());
    }

    #[test]
    fn uneven_blocks() {
        let g = generators::erdos_renyi_paper(29, 0.1, 5);
        let res = RepeatedSquaring
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(9))
            .unwrap();
        assert!(res.distances().approx_eq(&fw_oracle(&g), 1e-9).is_ok());
    }

    #[test]
    fn stages_columns_in_side_channel_and_cleans_up() {
        let sc = ctx();
        let g = generators::erdos_renyi_paper(32, 0.1, 11);
        let res = RepeatedSquaring
            .solve(&sc, &g.to_dense(), &SolverConfig::new(8))
            .unwrap();
        assert!(res.metrics.side_channel_writes > 0);
        assert!(sc.side_channel().is_empty());
    }

    #[test]
    fn disconnected_graph() {
        let mut g = apsp_graph::Graph::new(6);
        g.add_edge(0, 1, 1.0);
        let res = RepeatedSquaring
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(2))
            .unwrap();
        assert_eq!(res.distances().get(0, 1), 1.0);
        assert_eq!(res.distances().get(0, 5), INF);
    }
}
