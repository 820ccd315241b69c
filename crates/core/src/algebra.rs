//! Generic path-algebra solves: the paper's solvers over any
//! [`PathAlgebra`], plus ready-made workloads for all-pairs
//! bottleneck/widest paths and boolean transitive closure.
//!
//! The paper frames APSP as matrix algebra over *(min, +)* (§2); the same
//! blocked dataflow solves other all-pairs path problems by swapping the
//! algebra. This module is the public surface of that generality:
//!
//! ```
//! use apsp_core::algebra::{widest_paths, transitive_closure};
//! use apsp_core::{BlockedCollectBroadcast, SolverConfig};
//! use apsp_graph::Graph;
//! use sparklet::{SparkConfig, SparkContext};
//!
//! // A thin pipe 0-2 and a fat two-hop route 0-1-2.
//! let g = Graph::from_edges(3, [(0, 1, 10.0), (1, 2, 7.0), (0, 2, 1.0)]);
//! let ctx = SparkContext::new(SparkConfig::with_cores(2));
//!
//! let wide = widest_paths(&ctx, &g, &BlockedCollectBroadcast, &SolverConfig::new(2)).unwrap();
//! assert_eq!(wide.get(0, 2), 7.0); // max-min through vertex 1
//!
//! let reach = transitive_closure(&ctx, &g, &BlockedCollectBroadcast, &SolverConfig::new(2)).unwrap();
//! assert!(reach.get(0, 2));
//! ```

use crate::engine::{self, Grid};
use crate::solver::{ApspError, EngineSolver, SolverConfig};
use apsp_blockmat::algebra::Elem;
use apsp_blockmat::{ElemBlock, PathAlgebra};
use sparklet::{EstimateSize, MetricsSnapshot, SparkContext};
use std::time::Duration;

pub use crate::engine::Stageable;
pub use apsp_blockmat::{
    BoolSemiring, BottleneckF64, Reachability, TrackedReachability, TrackedTropical, TrackedWidest,
    Tropical, Widest,
};

/// Outcome of a generic path-algebra solve: the dense `n × n` element
/// matrix (as a side-`n` [`ElemBlock`]) plus run metadata.
pub struct AlgebraResult<A: PathAlgebra> {
    values: ElemBlock<A::Semi>,
    payloads: Vec<A::Payload>,
    /// Engine-counter increments attributable to this solve.
    pub metrics: MetricsSnapshot,
    /// Wall-clock duration of the solve.
    pub elapsed: Duration,
    /// Outer iterations executed.
    pub iterations: u64,
}

impl<A: PathAlgebra> AlgebraResult<A> {
    /// The dense `n × n` result matrix.
    pub fn values(&self) -> &ElemBlock<A::Semi> {
        &self.values
    }

    /// Entry accessor.
    pub fn get(&self, i: usize, j: usize) -> Elem<A> {
        self.values.get(i, j)
    }

    /// The dense row-major `n × n` payload plane — the recorded vias for
    /// tracking algebras ([`TrackedTropical`],
    /// [`apsp_blockmat::TrackedWidest`],
    /// [`apsp_blockmat::TrackedReachability`]); zero-sized `()` cells
    /// otherwise.
    pub fn payloads(&self) -> &[A::Payload] {
        &self.payloads
    }

    /// Consumes the result, returning the dense matrix.
    pub fn into_values(self) -> ElemBlock<A::Semi> {
        self.values
    }

    /// Consumes the result, returning the dense matrix and payload plane.
    pub fn into_parts(self) -> (ElemBlock<A::Semi>, Vec<A::Payload>) {
        (self.values, self.payloads)
    }
}

/// The generic solve surface: implemented by every blocked Spark solver,
/// so any [`PathAlgebra`] runs through any of them.
///
/// `weight(i, j)` must be a **symmetric** element accessor with
/// `weight(i, i) = 1̄` (the multiplicative identity: `0` for tropical,
/// `+∞` for bottleneck, `true` for boolean) — the solvers store only the
/// upper block triangle and mirror by transposition (paper §4), which is
/// sound exactly for symmetric instances. Directed instances need the
/// full-grid solvers in [`crate::directed`].
pub trait AlgebraSolver {
    /// Solves the all-pairs path problem of algebra `A` over an
    /// `n`-vertex instance given by `weight`.
    fn solve_algebra<A: PathAlgebra>(
        &self,
        ctx: &SparkContext,
        n: usize,
        weight: &dyn Fn(usize, usize) -> Elem<A>,
        cfg: &SolverConfig,
    ) -> Result<AlgebraResult<A>, ApspError>
    where
        ElemBlock<A::Semi>: Stageable,
        Elem<A>: EstimateSize;
}

/// Input validation for the generic path (the algebra-aware counterpart
/// of `validate_adjacency`): the accessor must be symmetric — the engine
/// stores only the upper block triangle and mirrors by transposition —
/// and carry the multiplicative identity on the diagonal, or padding and
/// diagonal closure misbehave. Costs `O(n²)` like the tropical check.
pub(crate) fn validate_symmetric<A: PathAlgebra>(
    n: usize,
    weight: &dyn Fn(usize, usize) -> Elem<A>,
) -> Result<(), ApspError> {
    use apsp_blockmat::Semiring;
    for i in 0..n {
        if weight(i, i) != A::Semi::one() {
            return Err(ApspError::InvalidInput(format!(
                "weight({i},{i}) = {:?} is not the multiplicative identity {:?}",
                weight(i, i),
                A::Semi::one()
            )));
        }
        for j in (i + 1)..n {
            if weight(i, j) != weight(j, i) {
                return Err(ApspError::InvalidInput(format!(
                    "asymmetric weights: weight({i},{j}) = {:?} but weight({j},{i}) = {:?}; \
                     the blocked solvers store only the upper triangle — use the directed \
                     solvers for asymmetric instances",
                    weight(i, j),
                    weight(j, i)
                )));
            }
        }
    }
    Ok(())
}

/// Every engine solver runs its loop over any algebra on the triangle:
/// `validate_symmetric` is the input contract.
impl<S: EngineSolver> AlgebraSolver for S {
    fn solve_algebra<A: PathAlgebra>(
        &self,
        ctx: &SparkContext,
        n: usize,
        weight: &dyn Fn(usize, usize) -> Elem<A>,
        cfg: &SolverConfig,
    ) -> Result<AlgebraResult<A>, ApspError>
    where
        ElemBlock<A::Semi>: Stageable,
        Elem<A>: EstimateSize,
    {
        let (solved, payloads) =
            engine::solve::<A>(ctx, n, weight, cfg, (S::LOOP, Grid::UpperTriangle), &|_| {
                validate_symmetric::<A>(n, weight)
            })?;
        Ok(AlgebraResult {
            values: ElemBlock::from_vec(n, solved.values),
            payloads,
            metrics: solved.metrics,
            elapsed: solved.elapsed,
            iterations: solved.iterations,
        })
    }
}

/// All-pairs **widest (bottleneck) paths** over an undirected
/// capacity-weighted graph: entry `(i, j)` of the result is the largest
/// capacity `c` such that some `i → j` route uses only edges of capacity
/// `≥ c` (`0.0` if unreachable, `+∞` on the diagonal).
///
/// Edge weights are read as capacities; parallel edges keep the fattest.
/// Cross-validate against [`apsp_graph::bottleneck::widest_paths`].
pub fn widest_paths<S: AlgebraSolver>(
    ctx: &SparkContext,
    g: &apsp_graph::Graph,
    solver: &S,
    cfg: &SolverConfig,
) -> Result<AlgebraResult<Widest>, ApspError> {
    let caps = g.to_dense_capacities();
    solver.solve_algebra::<Widest>(ctx, g.order(), &|i, j| caps.get(i, j), cfg)
}

/// All-pairs **reachability** (boolean transitive closure) over an
/// undirected graph: entry `(i, j)` is `true` iff `i` and `j` are in the
/// same connected component (the diagonal is always `true`).
///
/// Cross-validate against [`apsp_graph::bottleneck::reachability_bfs`].
pub fn transitive_closure<S: AlgebraSolver>(
    ctx: &SparkContext,
    g: &apsp_graph::Graph,
    solver: &S,
    cfg: &SolverConfig,
) -> Result<AlgebraResult<Reachability>, ApspError> {
    let n = g.order();
    let adj = boolean_adjacency(g);
    solver.solve_algebra::<Reachability>(ctx, n, &|i, j| adj[i * n + j], cfg)
}

/// Dense symmetric boolean adjacency (diagonal `true`) of an undirected
/// graph — the *(∨, ∧)* input convention shared by
/// [`transitive_closure`] and the planner's reachability execution
/// (`crate::plan`).
pub(crate) fn boolean_adjacency(g: &apsp_graph::Graph) -> Vec<bool> {
    let n = g.order();
    let mut adj = vec![false; n * n];
    for (u, v, _) in g.edges() {
        let (u, v) = (u as usize, v as usize);
        adj[u * n + v] = true;
        adj[v * n + u] = true;
    }
    for i in 0..n {
        adj[i * n + i] = true;
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockedCollectBroadcast, BlockedInMemory, FloydWarshall2D, RepeatedSquaring};
    use apsp_graph::Graph;
    use sparklet::SparkConfig;

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConfig::with_cores(4))
    }

    fn pipes() -> Graph {
        // 0 -10- 1 -7- 2 -4- 3, plus thin shortcuts 0-2 (1) and 1-3 (2).
        Graph::from_edges(
            4,
            [
                (0, 1, 10.0),
                (1, 2, 7.0),
                (2, 3, 4.0),
                (0, 2, 1.0),
                (1, 3, 2.0),
            ],
        )
    }

    #[test]
    fn widest_paths_agree_across_all_four_solvers() {
        let g = pipes();
        let cfg = SolverConfig::new(2);
        let sc = ctx();
        let reference = widest_paths(&sc, &g, &BlockedCollectBroadcast, &cfg).unwrap();
        assert_eq!(reference.get(0, 2), 7.0);
        assert_eq!(reference.get(0, 3), 4.0);
        assert_eq!(reference.get(0, 0), f64::INFINITY);
        for (vals, name) in [
            (widest_paths(&sc, &g, &BlockedInMemory, &cfg).unwrap(), "IM"),
            (
                widest_paths(&sc, &g, &FloydWarshall2D, &cfg).unwrap(),
                "FW2D",
            ),
            (
                widest_paths(&sc, &g, &RepeatedSquaring, &cfg).unwrap(),
                "RS",
            ),
        ] {
            for i in 0..4 {
                for j in 0..4 {
                    assert_eq!(vals.get(i, j), reference.get(i, j), "{name} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn transitive_closure_finds_components() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(4, 5, 1.0);
        let sc = ctx();
        for solver in ["cb", "im", "fw2d", "rs"] {
            let r = match solver {
                "cb" => {
                    transitive_closure(&sc, &g, &BlockedCollectBroadcast, &SolverConfig::new(2))
                }
                "im" => transitive_closure(&sc, &g, &BlockedInMemory, &SolverConfig::new(2)),
                "fw2d" => transitive_closure(&sc, &g, &FloydWarshall2D, &SolverConfig::new(2)),
                _ => transitive_closure(&sc, &g, &RepeatedSquaring, &SolverConfig::new(2)),
            }
            .unwrap();
            assert!(r.get(0, 2), "{solver}");
            assert!(!r.get(0, 3), "{solver}");
            assert!(!r.get(2, 4), "{solver}");
            assert!(r.get(4, 5), "{solver}");
            assert!(r.get(3, 3), "{solver}");
        }
    }

    #[test]
    fn rejects_asymmetric_or_bad_diagonal_input() {
        let sc = ctx();
        // Asymmetric accessor: upper-triangle mirroring would silently
        // drop the lower half, so it must be rejected up front.
        let err = BlockedCollectBroadcast
            .solve_algebra::<Widest>(
                &sc,
                3,
                &|i, j| {
                    if i == j {
                        f64::INFINITY
                    } else if (i, j) == (0, 1) {
                        5.0
                    } else {
                        0.0
                    }
                },
                &SolverConfig::new(2),
            )
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ApspError::InvalidInput(_)));

        // Wrong diagonal (must be the multiplicative identity).
        let err = BlockedInMemory
            .solve_algebra::<Widest>(&sc, 2, &|_, _| 1.0, &SolverConfig::new(2))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ApspError::InvalidInput(_)));

        // without_validation() opts out, as on the tropical path.
        assert!(BlockedInMemory
            .solve_algebra::<Widest>(
                &sc,
                2,
                &|i, j| if i == j { f64::INFINITY } else { 1.0 },
                &SolverConfig::new(2).without_validation(),
            )
            .is_ok());
    }

    #[test]
    fn rejects_zero_block_size() {
        let g = pipes();
        let err = widest_paths(&ctx(), &g, &BlockedCollectBroadcast, &SolverConfig::new(0))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ApspError::InvalidConfig(_)));
    }
}
