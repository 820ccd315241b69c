//! Differential kernel-tier harness: every path algebra × every available
//! kernel tier, bit-exact against the trait's generic fallback loops.
//!
//! The fallback loop is reconstructed per algebra through a *shim* — an
//! algebra with the same semiring and no hook overrides, so it runs the
//! `PathAlgebra` default bodies verbatim. Each specialized tier (and every
//! hook without a kernel argument) must reproduce those results exactly at
//! the bitset word boundary (63/64/65) and the dispatch thresholds
//! (127/128/129), including all-true/all-false and all-INF/zero-capacity
//! planes.
//!
//! The proptest block then drives the specialized tiers end-to-end:
//! plan-executed `Widest` and `Reachability` solves with pinned kernels
//! against the max-heap-Dijkstra and BFS oracles, witness routes included.

use apspark::blockmat::algebra::Elem;
use apspark::blockmat::kernels::MinPlusKernel;
use apspark::blockmat::{
    AlgBlock, BoolSemiring, BottleneckF64, Offsets, PathAlgebra, Reachability, TrackedReachability,
    TrackedTropical, TrackedWidest, Tropical, TropicalF64, Widest, INF, NO_VIA,
};
use apspark::core::algebra::{transitive_closure, widest_paths};
use apspark::graph::bottleneck::{reachability_bfs, widest_paths as widest_oracle};
use apspark::graph::generators;
use apspark::prelude::*;
use proptest::prelude::*;

/// The bitset word boundary and the branchless/packed dispatch thresholds.
const SIDES: [usize; 7] = [1, 63, 64, 65, 127, 128, 129];

/// Every non-oracle tier a product hook can dispatch to.
const TIERS: [MinPlusKernel; 3] = [
    MinPlusKernel::Branchless,
    MinPlusKernel::Packed,
    MinPlusKernel::Auto,
];

const O0: Offsets = Offsets {
    k: 0,
    row: 0,
    col: 0,
};

fn rng(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------------
// Fallback shims: same semiring, no overrides => the generic default loops.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct SlowTropical;
impl PathAlgebra for SlowTropical {
    type Semi = TropicalF64;
    type Payload = ();
    const TRACKS: bool = false;
    const NAME: &'static str = "tropical (generic loops)";
    fn empty_payload() {}
    fn payload_for(_k_global: usize) {}
}

#[derive(Clone, Copy)]
struct SlowWidest;
impl PathAlgebra for SlowWidest {
    type Semi = BottleneckF64;
    type Payload = ();
    const TRACKS: bool = false;
    const NAME: &'static str = "bottleneck (generic loops)";
    fn empty_payload() {}
    fn payload_for(_k_global: usize) {}
}

#[derive(Clone, Copy)]
struct SlowReach;
impl PathAlgebra for SlowReach {
    type Semi = BoolSemiring;
    type Payload = ();
    const TRACKS: bool = false;
    const NAME: &'static str = "boolean (generic loops)";
    fn empty_payload() {}
    fn payload_for(_k_global: usize) {}
}

macro_rules! tracked_shim {
    ($name:ident, $semi:ty) => {
        #[derive(Clone, Copy)]
        struct $name;
        impl PathAlgebra for $name {
            type Semi = $semi;
            type Payload = u32;
            const TRACKS: bool = true;
            const NAME: &'static str = concat!(stringify!($name), " (generic loops)");
            fn empty_payload() -> u32 {
                NO_VIA
            }
            fn payload_for(k_global: usize) -> u32 {
                k_global as u32
            }
        }
    };
}

tracked_shim!(SlowTrackedTropical, TropicalF64);
tracked_shim!(SlowTrackedWidest, BottleneckF64);
tracked_shim!(SlowTrackedReach, BoolSemiring);

// ---------------------------------------------------------------------------
// The differential driver: every hook of `Fast` against every hook of the
// fallback shim `Slow`, on identical inputs.
// ---------------------------------------------------------------------------

fn diff_all_hooks<Fast, Slow>(n: usize, a: &[Elem<Fast>], b: &[Elem<Fast>], seed: &[Elem<Fast>])
where
    Fast: PathAlgebra<Payload = ()>,
    Slow: PathAlgebra<Semi = Fast::Semi, Payload = ()>,
{
    let mut pay = vec![(); n * n];
    let name = Fast::NAME;

    // Hooks with a kernel argument: one comparison per tier, against the
    // shim's generic loop computed once.
    let mut slow_fold = seed.to_vec();
    Slow::fold_product(MinPlusKernel::Naive, a, b, &mut slow_fold, &mut pay, n, O0);
    let mut slow_assign = seed.to_vec();
    Slow::product_assign(MinPlusKernel::Naive, &mut slow_assign, &mut pay, b, n, O0);
    let mut slow_left = seed.to_vec();
    Slow::product_left_assign(MinPlusKernel::Naive, &mut slow_left, &mut pay, b, n, O0);
    for kernel in TIERS {
        let mut fast = seed.to_vec();
        Fast::fold_product(kernel, a, b, &mut fast, &mut pay, n, O0);
        assert_eq!(slow_fold, fast, "{name} fold n={n} {kernel:?}");

        let mut fast = seed.to_vec();
        Fast::product_assign(kernel, &mut fast, &mut pay, b, n, O0);
        assert_eq!(slow_assign, fast, "{name} assign n={n} {kernel:?}");

        let mut fast = seed.to_vec();
        Fast::product_left_assign(kernel, &mut fast, &mut pay, b, n, O0);
        assert_eq!(slow_left, fast, "{name} left-assign n={n} {kernel:?}");
    }
    // The explicit oracle pin must also land on the fallback result.
    let mut fast = seed.to_vec();
    Fast::fold_product(MinPlusKernel::Naive, a, b, &mut fast, &mut pay, n, O0);
    assert_eq!(slow_fold, fast, "{name} fold n={n} Naive pin");

    // Kernel-free hooks: closure, rank-1 update, join.
    let mut slow = seed.to_vec();
    Slow::closure_in_place(&mut slow, &mut pay, n, 0);
    let mut fast = seed.to_vec();
    Fast::closure_in_place(&mut fast, &mut pay, n, 0);
    assert_eq!(slow, fast, "{name} closure n={n}");

    let col_i: Vec<Elem<Fast>> = (0..n).map(|i| a[i * n]).collect();
    let col_j: Vec<Elem<Fast>> = (0..n).map(|j| b[j * n]).collect();
    let mut slow = seed.to_vec();
    Slow::rank1_update(&mut slow, &mut pay, &col_i, &col_j, n, 0);
    let mut fast = seed.to_vec();
    Fast::rank1_update(&mut fast, &mut pay, &col_i, &col_j, n, 0);
    assert_eq!(slow, fast, "{name} rank1 n={n}");

    let op = vec![(); n * n];
    let mut slow = seed.to_vec();
    Slow::join(&mut slow, &mut pay, a, &op);
    let mut fast = seed.to_vec();
    Fast::join(&mut fast, &mut pay, a, &op);
    assert_eq!(slow, fast, "{name} join n={n}");
}

fn tropical_plane(n: usize, seed: u64, density: f64) -> Vec<f64> {
    let mut next = rng(seed);
    (0..n * n)
        .map(|idx| {
            if idx / n == idx % n {
                0.0
            } else if next() < density {
                1.0 + next() * 9.0
            } else {
                INF
            }
        })
        .collect()
}

fn capacity_plane(n: usize, seed: u64, density: f64) -> Vec<f64> {
    let mut next = rng(seed);
    (0..n * n)
        .map(|idx| {
            if idx / n == idx % n {
                INF
            } else if next() < density {
                1.0 + next() * 9.0
            } else {
                0.0
            }
        })
        .collect()
}

fn bool_plane(n: usize, seed: u64, density: f64) -> Vec<bool> {
    let mut next = rng(seed);
    (0..n * n)
        .map(|idx| idx / n == idx % n || next() < density)
        .collect()
}

#[test]
fn tropical_tiers_match_generic_fallback_at_boundary_sides() {
    for n in SIDES {
        diff_all_hooks::<Tropical, SlowTropical>(
            n,
            &tropical_plane(n, 11, 0.3),
            &tropical_plane(n, 12, 0.3),
            &tropical_plane(n, 13, 0.2),
        );
        // Degenerate planes: all-INF (no edges) and all-0.0 (everything
        // free) operands.
        diff_all_hooks::<Tropical, SlowTropical>(
            n,
            &vec![INF; n * n],
            &tropical_plane(n, 14, 0.3),
            &vec![INF; n * n],
        );
        diff_all_hooks::<Tropical, SlowTropical>(
            n,
            &vec![0.0; n * n],
            &vec![0.0; n * n],
            &tropical_plane(n, 15, 0.2),
        );
    }
}

#[test]
fn widest_tiers_match_generic_fallback_at_boundary_sides() {
    for n in SIDES {
        diff_all_hooks::<Widest, SlowWidest>(
            n,
            &capacity_plane(n, 21, 0.3),
            &capacity_plane(n, 22, 0.3),
            &capacity_plane(n, 23, 0.2),
        );
        // Zero-capacity (no pipes at all) and all-INF (unbounded pipes)
        // planes.
        diff_all_hooks::<Widest, SlowWidest>(
            n,
            &vec![0.0; n * n],
            &capacity_plane(n, 24, 0.3),
            &vec![0.0; n * n],
        );
        diff_all_hooks::<Widest, SlowWidest>(
            n,
            &vec![INF; n * n],
            &vec![INF; n * n],
            &capacity_plane(n, 25, 0.2),
        );
    }
}

#[test]
fn reachability_tiers_match_generic_fallback_at_boundary_sides() {
    for n in SIDES {
        diff_all_hooks::<Reachability, SlowReach>(
            n,
            &bool_plane(n, 31, 0.15),
            &bool_plane(n, 32, 0.15),
            &bool_plane(n, 33, 0.05),
        );
        // All-false and all-true planes around the u64 word boundary.
        diff_all_hooks::<Reachability, SlowReach>(
            n,
            &vec![false; n * n],
            &bool_plane(n, 34, 0.15),
            &vec![false; n * n],
        );
        diff_all_hooks::<Reachability, SlowReach>(
            n,
            &vec![true; n * n],
            &vec![true; n * n],
            &bool_plane(n, 35, 0.05),
        );
    }
}

// ---------------------------------------------------------------------------
// Tracked algebras: the specialized tracked tier (and the tracked generic
// loops the non-tropical algebras ride) against the shim defaults, values
// AND payloads.
// ---------------------------------------------------------------------------

fn diff_tracked<Fast, Slow>(n: usize, a: &[Elem<Fast>], b: &[Elem<Fast>], seed: &[Elem<Fast>])
where
    Fast: PathAlgebra<Payload = u32>,
    Slow: PathAlgebra<Semi = Fast::Semi, Payload = u32>,
{
    let name = Fast::NAME;
    // Disjoint global ranges (the solver-side common case), so recorded
    // vias must all fall inside the k range.
    let o = Offsets {
        k: 4 * n,
        row: 0,
        col: 9 * n,
    };
    for kernel in [
        MinPlusKernel::Naive,
        MinPlusKernel::Branchless,
        MinPlusKernel::Auto,
    ] {
        let mut fast = seed.to_vec();
        let mut fast_pay = vec![NO_VIA; n * n];
        Fast::fold_product(kernel, a, b, &mut fast, &mut fast_pay, n, o);
        let mut slow = seed.to_vec();
        let mut slow_pay = vec![NO_VIA; n * n];
        Slow::fold_product(MinPlusKernel::Naive, a, b, &mut slow, &mut slow_pay, n, o);
        assert_eq!(slow, fast, "{name} tracked fold n={n} {kernel:?}");
        assert_eq!(slow_pay, fast_pay, "{name} tracked vias n={n} {kernel:?}");
    }

    let mut fast = seed.to_vec();
    let mut fast_pay = vec![NO_VIA; n * n];
    Fast::closure_in_place(&mut fast, &mut fast_pay, n, 7 * n);
    let mut slow = seed.to_vec();
    let mut slow_pay = vec![NO_VIA; n * n];
    Slow::closure_in_place(&mut slow, &mut slow_pay, n, 7 * n);
    assert_eq!(slow, fast, "{name} tracked closure n={n}");
    assert_eq!(slow_pay, fast_pay, "{name} tracked closure vias n={n}");
}

#[test]
fn tracked_tiers_match_generic_fallback_at_boundary_sides() {
    for n in SIDES {
        diff_tracked::<TrackedTropical, SlowTrackedTropical>(
            n,
            &tropical_plane(n, 41, 0.3),
            &tropical_plane(n, 42, 0.3),
            &tropical_plane(n, 43, 0.2),
        );
        diff_tracked::<TrackedWidest, SlowTrackedWidest>(
            n,
            &capacity_plane(n, 44, 0.3),
            &capacity_plane(n, 45, 0.3),
            &capacity_plane(n, 46, 0.2),
        );
        diff_tracked::<TrackedReachability, SlowTrackedReach>(
            n,
            &bool_plane(n, 47, 0.15),
            &bool_plane(n, 48, 0.15),
            &bool_plane(n, 49, 0.05),
        );
    }
}

/// The untracked specialized engines and the tracked generic loops must
/// agree on values when run through [`AlgBlock`] at the same side — the
/// property that lets `with_paths` report the same widths/reachability the
/// packed tiers compute.
#[test]
fn tracked_values_match_specialized_tiers_through_algblock() {
    use apspark::blockmat::ElemBlock;
    for n in [63usize, 64, 65, 128] {
        let caps = ElemBlock::<BottleneckF64>::from_vec(n, capacity_plane(n, 51, 0.3));
        let mut fast = AlgBlock::<Widest>::from_dist(caps.clone());
        fast.floyd_warshall_in_place(0);
        let mut tracked = AlgBlock::<TrackedWidest>::from_dist(caps);
        tracked.floyd_warshall_in_place(0);
        assert_eq!(fast.dist().data(), tracked.dist().data(), "widest n={n}");

        let adj = ElemBlock::<BoolSemiring>::from_vec(n, bool_plane(n, 52, 0.05));
        let mut fast = AlgBlock::<Reachability>::from_dist(adj.clone());
        fast.floyd_warshall_in_place(0);
        let mut tracked = AlgBlock::<TrackedReachability>::from_dist(adj);
        tracked.floyd_warshall_in_place(0);
        assert_eq!(fast.dist().data(), tracked.dist().data(), "reach n={n}");
    }
}

// ---------------------------------------------------------------------------
// End-to-end: plan-executed solves on the specialized tiers vs the graph
// oracles, witness routes included.
// ---------------------------------------------------------------------------

fn ctx() -> SparkContext {
    SparkContext::new(SparkConfig::with_cores(4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Plan-executed `Widest` with the packed tier forced, `with_paths`
    /// on, random graphs up to 3 blocks per side: widths must equal the
    /// max-heap-Dijkstra oracle and every witness route must achieve its
    /// reported width over real edges.
    #[test]
    fn prop_widest_forced_packed_tier_matches_dijkstra(
        n in 2usize..96,
        seed in any::<u64>(),
        pin in 0usize..3,
    ) {
        let g = generators::erdos_renyi_paper(n, 0.1, seed);
        let b = n.div_ceil(3).max(1);
        let kernel = [MinPlusKernel::Packed, MinPlusKernel::Branchless, MinPlusKernel::Auto][pin];
        let sc = ctx();
        let oracle = widest_oracle(&g);
        let caps = g.to_dense_capacities();

        // Expert layer, kernel forced, no paths: the pure specialized tier.
        let res = widest_paths(
            &sc,
            &g,
            &BlockedCollectBroadcast,
            &SolverConfig::new(b).with_kernel(kernel),
        ).unwrap();
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(res.get(i, j), oracle.get(i, j), "width ({},{})", i, j);
            }
        }

        // Front door with witness tracking on top.
        let sol = Problem::new(&g)
            .workload(Workload::Widest)
            .with_paths()
            .block_size(b)
            .kernel(kernel)
            .solve(&sc)
            .unwrap();
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(
                    sol.widths().unwrap().get(i, j),
                    oracle.get(i, j),
                    "tracked width ({},{})", i, j
                );
                if i == j {
                    continue;
                }
                if let Some(route) = sol.path(i, j) {
                    prop_assert_eq!(route.first(), Some(&(i as u32)));
                    prop_assert_eq!(route.last(), Some(&(j as u32)));
                    let width = route
                        .windows(2)
                        .map(|w| caps.get(w[0] as usize, w[1] as usize))
                        .fold(f64::INFINITY, f64::min);
                    prop_assert!(width > 0.0, "({},{}): route uses a non-edge", i, j);
                    prop_assert_eq!(width, sol.width(i, j).unwrap(), "({},{})", i, j);
                } else {
                    prop_assert!(!sol.reachable(i, j), "({},{})", i, j);
                }
            }
        }
    }

    /// Plan-executed `Reachability` on the bitset tier, `with_paths` on,
    /// against BFS: same reachable set, and every witness route walks real
    /// edges.
    #[test]
    fn prop_reachability_bitset_tier_matches_bfs(
        n in 2usize..96,
        seed in any::<u64>(),
    ) {
        let g = generators::erdos_renyi_paper(n, 0.1, seed);
        let b = n.div_ceil(3).max(1);
        let sc = ctx();
        let oracle = reachability_bfs(&g);
        let adj = g.to_dense();

        // Expert layer on the bitset tier (Auto always selects it).
        let res = transitive_closure(
            &sc,
            &g,
            &BlockedInMemory,
            &SolverConfig::new(b).with_kernel(MinPlusKernel::Auto),
        ).unwrap();
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(res.get(i, j), oracle[i * n + j], "reach ({},{})", i, j);
            }
        }

        let sol = Problem::new(&g)
            .workload(Workload::Reachability)
            .with_paths()
            .block_size(b)
            .solve(&sc)
            .unwrap();
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(sol.reachable(i, j), oracle[i * n + j], "({},{})", i, j);
                if i == j {
                    continue;
                }
                if let Some(route) = sol.path(i, j) {
                    for w in route.windows(2) {
                        prop_assert!(
                            adj.get(w[0] as usize, w[1] as usize).is_finite(),
                            "({},{}): hop {}->{} is not an edge", i, j, w[0], w[1]
                        );
                    }
                }
            }
        }
    }
}
