//! Algorithm 2: 2D-decomposed Floyd-Warshall (the "pure" solver).

use crate::engine::Loop;
use crate::solver::EngineSolver;

/// The paper's Algorithm 2: `n` iterations; in iteration `k` the pivot
/// column is extracted (`InColumn` + `ExtractCol`), collected at the
/// driver, broadcast, and every block applies the rank-1
/// `FloydWarshallUpdate`.
///
/// Pure: only fault-tolerant engine primitives are used — no side
/// channel, no wide shuffles. The price is `n` synchronization points,
/// which is what makes it uncompetitive at scale (Table 2: projected
/// ~50+ days at `n = 262144`).
///
/// The algorithm itself lives in the crate-private `engine` module
/// generically. This front-end only names its loop: its
/// [`ApspSolver`](crate::ApspSolver) impl (over [`crate::Tropical`], or
/// [`crate::TrackedTropical`] under `with_paths`) and its
/// [`AlgebraSolver`](crate::AlgebraSolver) impl come from the engine seam.
#[derive(Debug, Default, Clone)]
pub struct FloydWarshall2D;

impl EngineSolver for FloydWarshall2D {
    const NAME: &'static str = "2D Floyd-Warshall";
    const PURE: bool = true;
    const LOOP: Loop = Loop::Fw2d;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{ApspSolver, SolverConfig};
    use apsp_blockmat::INF;
    use apsp_graph::{floyd_warshall, generators};
    use sparklet::{SparkConfig, SparkContext};

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConfig::with_cores(4))
    }

    #[test]
    fn matches_oracle_on_random_graph() {
        let g = generators::erdos_renyi_paper(60, 0.1, 21);
        let res = FloydWarshall2D
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(16))
            .unwrap();
        let oracle = floyd_warshall(&g);
        assert!(res.distances().approx_eq(&oracle, 1e-9).is_ok());
        assert_eq!(res.iterations, 60);
    }

    #[test]
    fn handles_block_size_larger_than_n() {
        let g = generators::cycle(10);
        let res = FloydWarshall2D
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(32))
            .unwrap();
        assert!(res.distances().approx_eq(&floyd_warshall(&g), 1e-9).is_ok());
    }

    #[test]
    fn handles_uneven_blocks() {
        let g = generators::erdos_renyi_paper(37, 0.1, 3);
        let res = FloydWarshall2D
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(8))
            .unwrap();
        assert!(res.distances().approx_eq(&floyd_warshall(&g), 1e-9).is_ok());
    }

    #[test]
    fn disconnected_components_stay_infinite() {
        let mut g = apsp_graph::Graph::new(8);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 2.0);
        let res = FloydWarshall2D
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(4))
            .unwrap();
        assert_eq!(res.distances().get(0, 2), INF);
        assert_eq!(res.distances().get(1, 0), 1.0);
    }

    #[test]
    fn no_shuffles_no_side_channel() {
        // Purity, quantified: FW2D uses neither shuffles nor the side
        // channel, only collect + broadcast.
        let sc = ctx();
        let g = generators::erdos_renyi_paper(32, 0.1, 5);
        let res = FloydWarshall2D
            .solve(&sc, &g.to_dense(), &SolverConfig::new(8))
            .unwrap();
        assert_eq!(res.metrics.shuffles, 0);
        assert_eq!(res.metrics.side_channel_writes, 0);
        assert!(res.metrics.broadcast_bytes > 0);
        assert_eq!(res.metrics.jobs, 32 + 1); // one collect per k + final
    }
}
