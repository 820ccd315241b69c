//! End-to-end tests of the `Problem → Plan → Solution` front door:
//! capability-rule regressions, bit-exactness of plan-executed solves
//! against the explicitly-configured expert layer, and the `explain()`
//! report.

use apspark::core::plan::{Problem, SolverId, Workload};
use apspark::core::{
    algebra::{transitive_closure, widest_paths},
    directed::DirectedFloydWarshall2D,
    ApspSolver, SolverConfig,
};
use apspark::graph::{bottleneck, generators, Graph};
use apspark::prelude::{BlockedCollectBroadcast, SparkConfig, SparkContext};
use proptest::prelude::*;

fn ctx() -> SparkContext {
    SparkContext::new(SparkConfig::with_cores(2))
}

// ---------------------------------------------------------------------------
// Capability-rule regressions
// ---------------------------------------------------------------------------

/// The satellite regression: directed + paths must never select
/// `DirectedBlockedCB` (it rejects `with_paths`); the plan falls back to
/// `DirectedFloydWarshall2D` and `explain()` names the rule.
#[test]
fn directed_paths_never_selects_directed_cb() {
    let g = generators::erdos_renyi_directed(24, 0.15, 5);
    let sc = ctx();
    let plan = Problem::from_digraph(&g).with_paths().plan(&sc).unwrap();
    assert_eq!(plan.solver, SolverId::DirectedFloydWarshall2D);
    assert!(
        plan.notes().iter().any(|n| n.rule == "paths-fallback"),
        "the fallback rule must be recorded: {:?}",
        plan.notes()
    );
    assert!(
        plan.explain().contains("paths-fallback"),
        "explain() must name the rule:\n{}",
        plan.explain()
    );

    // Even an explicit preference for DirectedBlockedCB is overridden.
    let pinned = Problem::from_digraph(&g)
        .with_paths()
        .prefer(SolverId::DirectedBlockedCB)
        .plan(&sc)
        .unwrap();
    assert_eq!(pinned.solver, SolverId::DirectedFloydWarshall2D);

    // And the executed solve round-trips real directed paths.
    let sol = Problem::from_digraph(&g).with_paths().solve(&sc).unwrap();
    let oracle = apspark::graph::apsp_dijkstra_directed(&g);
    for i in 0..24 {
        for j in 0..24 {
            let d = sol.dist(i, j);
            let o = oracle.get(i, j);
            match d {
                Some(v) => assert!((v - o).abs() < 1e-9, "({i},{j}): {v} vs {o}"),
                None => assert!(o.is_infinite(), "({i},{j}) should be reachable"),
            }
        }
    }
}

/// Directedness is a storage axis, not another algorithm: a preferred
/// FW-2D stays FW-2D on a digraph (it used to be swapped for Blocked-CB,
/// leaving no spelling that reached the untracked directed FW-2D), and
/// every other triangle-only preference gets the directed winner.
#[test]
fn directed_input_keeps_the_preferred_algorithm() {
    let g = generators::erdos_renyi_directed(24, 0.15, 7);
    let sc = ctx();
    let problem = Problem::from_digraph(&g).prefer(SolverId::FloydWarshall2D);
    let plan = problem.plan(&sc).unwrap();
    assert_eq!(plan.solver, SolverId::DirectedFloydWarshall2D);
    let note = plan
        .notes()
        .iter()
        .find(|n| n.rule == "directed-input")
        .expect("the reroute must be recorded");
    assert!(note.detail.contains("full grid"), "{}", note.detail);
    let sol = problem.execute(&sc, plan).unwrap();
    assert_eq!(sol.iterations, 24, "FW-2D runs n pivots, Blocked-CB q");
    let oracle = apspark::graph::apsp_dijkstra_directed(&g);
    assert!(sol.distances().unwrap().approx_eq(&oracle, 1e-9).is_ok());

    for id in [SolverId::BlockedInMemory, SolverId::DistributedJohnson] {
        let plan = Problem::from_digraph(&g).prefer(id).plan(&sc).unwrap();
        assert_eq!(plan.solver, SolverId::DirectedBlockedCB, "{id:?}");
    }
}

/// A checkpoint or resume spec on a solver that cannot honor it used to
/// be dropped silently (nothing written, success reported; `resume` from
/// an empty directory "resumed"). It is a typed planning error now, from
/// the same capability column the service and the CLI consult.
#[test]
fn checkpoint_specs_are_rejected_where_they_would_be_dropped() {
    let dir = std::env::temp_dir().join("apspark-plan-api-ckpt-rejected");
    let sc = ctx();
    let dg = generators::erdos_renyi_directed(20, 0.15, 4);
    let g = generators::erdos_renyi_paper(20, 0.1, 4);
    let rejected = [
        Problem::from_digraph(&dg)
            .checkpoint_every(&dir, 1)
            .plan(&sc),
        Problem::from_digraph(&dg).resume(&dir).plan(&sc),
        Problem::new(&g)
            .prefer(SolverId::DistributedJohnson)
            .checkpoint_every(&dir, 1)
            .plan(&sc),
        Problem::new(&g)
            .prefer(SolverId::SparseHierarchical)
            .resume(&dir)
            .plan(&sc),
    ];
    for res in rejected {
        match res {
            Err(apspark::core::ApspError::InvalidConfig(msg)) => {
                assert!(msg.contains("checkpoint"), "{msg}")
            }
            other => panic!("expected InvalidConfig, got {:?}", other.map(|p| p.solver)),
        }
    }
    // Attaching the spec after planning hits the same check at execute.
    let problem = Problem::from_digraph(&dg);
    let plan = problem.plan(&sc).unwrap().resume(&dir);
    assert!(matches!(
        problem.execute(&sc, plan),
        Err(apspark::core::ApspError::InvalidConfig(_))
    ));
    assert!(!dir.exists(), "a rejected spec must not touch the disk");

    for id in SolverId::ALL {
        let expected = matches!(
            id,
            SolverId::BlockedCollectBroadcast
                | SolverId::BlockedInMemory
                | SolverId::FloydWarshall2D
                | SolverId::RepeatedSquaring
        );
        assert_eq!(id.capabilities().checkpoints, expected, "{id:?}");
    }
}

/// The paper's Table 3 move: a preferred Blocked-IM that the cluster
/// model marks infeasible at every block size falls back to Blocked-CB.
#[test]
fn infeasible_im_falls_back_to_cb() {
    let g = generators::erdos_renyi_paper(64, 0.1, 11);
    let sc = ctx();
    // A "cluster" sized so the single-block decomposition overflows RAM
    // (q = 1 would make IM's staging bounded, like CB's) and the local
    // staging cannot absorb IM's *cumulative* shuffle spill at any
    // remaining block size, while CB's bounded-per-iteration staging
    // still fits: at n = 64 the b = 32 working set is ~49 KB resident,
    // IM spills ~30 KB cumulative, CB ~15 KB per iteration.
    let mut spec = apspark::cluster::ClusterSpec::local(2);
    spec.ram_per_node_bytes = 50_000;
    spec.ssd_capacity_bytes = 20_000;
    let plan = Problem::new(&g)
        .prefer(SolverId::BlockedInMemory)
        .on_cluster(spec.clone())
        .plan(&sc)
        .unwrap();
    assert_eq!(plan.solver, SolverId::BlockedCollectBroadcast);
    assert!(
        plan.notes()
            .iter()
            .any(|n| n.rule == "im-infeasible-fallback"),
        "Table 3 fallback must be recorded: {:?}",
        plan.notes()
    );
    assert!(plan.explain().contains("im-infeasible-fallback"));

    // Sanity: with a roomy cluster the preference is honored.
    let roomy = Problem::new(&g)
        .prefer(SolverId::BlockedInMemory)
        .plan(&sc)
        .unwrap();
    assert_eq!(roomy.solver, SolverId::BlockedInMemory);
}

/// The same fallback at the paper's largest size must be answered in
/// bounded time: the block-size ladder stops at `tuner::MAX_GRID_ORDER`
/// instead of projecting grids down to `b = 1` (each rung costs `q²`).
#[test]
fn infeasible_im_at_paper_scale_plans_in_bounded_time() {
    let g = generators::path(1 << 18);
    let started = std::time::Instant::now();
    let plan = Problem::new(&g)
        .prefer(SolverId::BlockedInMemory)
        .on_cluster(apspark::cluster::ClusterSpec::paper_cluster())
        .plan(&ctx())
        .unwrap();
    let took = started.elapsed();
    assert!(took.as_secs_f64() < 2.0, "planning took {took:?}");
    assert!(
        plan.notes()
            .iter()
            .any(|n| n.rule == "im-infeasible-fallback"),
        "Table 3 fallback must be recorded: {:?}",
        plan.notes()
    );
}

#[test]
fn undirected_paths_fallback_from_pathless_solvers() {
    let g = generators::erdos_renyi_paper(32, 0.1, 3);
    let plan = Problem::new(&g)
        .with_paths()
        .prefer(SolverId::DistributedJohnson)
        .plan(&ctx())
        .unwrap();
    assert_eq!(plan.solver, SolverId::BlockedCollectBroadcast);
    assert!(plan.notes().iter().any(|n| n.rule == "paths-fallback"));
}

#[test]
fn algebra_workloads_fall_back_from_non_algebra_solvers() {
    let g = generators::erdos_renyi_paper(32, 0.1, 4);
    let plan = Problem::new(&g)
        .workload(Workload::Widest)
        .prefer(SolverId::MpiDc)
        .plan(&ctx())
        .unwrap();
    assert_eq!(plan.solver, SolverId::BlockedCollectBroadcast);
    assert!(plan.notes().iter().any(|n| n.rule == "algebra-fallback"));
}

// ---------------------------------------------------------------------------
// Bit-exactness: a plan-executed solve equals the explicitly-configured
// solver it selected, across all three workloads, at kernel-tier
// boundary sides.
// ---------------------------------------------------------------------------

/// Sides around the kernel-tier boundaries: 1 (degenerate), and 127–129
/// (the branchless < 128 ≤ packed dispatch edge).
const BOUNDARY_SIDES: [usize; 4] = [1, 127, 128, 129];

/// A boundary-side test graph: the degenerate single vertex at n = 1,
/// the paper's random family otherwise.
fn boundary_graph(n: usize, seed: u64) -> Graph {
    if n < 2 {
        Graph::new(n)
    } else {
        generators::erdos_renyi_paper(n, 0.1, seed)
    }
}

#[test]
fn plan_executed_shortest_paths_bit_exact_with_expert_layer() {
    let sc = ctx();
    for n in BOUNDARY_SIDES {
        let g = boundary_graph(n, n as u64);
        let problem = Problem::new(&g);
        let plan = problem.plan(&sc).unwrap();
        let sol = problem.execute(&sc, plan.clone()).unwrap();
        assert_eq!(plan.solver, SolverId::BlockedCollectBroadcast);
        let explicit = BlockedCollectBroadcast
            .solve(&sc, &g.to_dense(), &plan.solver_config())
            .unwrap();
        assert_eq!(
            sol.distances().unwrap().data(),
            explicit.distances().data(),
            "n={n}: planned vs explicit distances must be bit-exact"
        );
    }
}

#[test]
fn plan_executed_widest_bit_exact_with_expert_layer() {
    let sc = ctx();
    for n in BOUNDARY_SIDES {
        let g = boundary_graph(n, 7 + n as u64);
        let problem = Problem::new(&g).workload(Workload::Widest);
        let plan = problem.plan(&sc).unwrap();
        let sol = problem.execute(&sc, plan.clone()).unwrap();
        let explicit =
            widest_paths(&sc, &g, &BlockedCollectBroadcast, &plan.solver_config()).unwrap();
        assert_eq!(
            sol.widths().unwrap().data(),
            explicit.values().data(),
            "n={n}: planned vs explicit widths must be bit-exact"
        );
    }
}

#[test]
fn plan_executed_reachability_bit_exact_with_expert_layer() {
    let sc = ctx();
    for n in BOUNDARY_SIDES {
        let g = boundary_graph(n, 99 + n as u64);
        let problem = Problem::new(&g).workload(Workload::Reachability);
        let plan = problem.plan(&sc).unwrap();
        let sol = problem.execute(&sc, plan.clone()).unwrap();
        let explicit =
            transitive_closure(&sc, &g, &BlockedCollectBroadcast, &plan.solver_config()).unwrap();
        assert_eq!(
            sol.reachability().unwrap().data(),
            explicit.values().data(),
            "n={n}: planned vs explicit closure must be bit-exact"
        );
    }
}

/// Pinned block sizes at the dispatch edge run through the same kernels
/// as the expert layer (tier selection happens per block side).
#[test]
fn pinned_boundary_block_sizes_stay_bit_exact() {
    let sc = ctx();
    let n = 129;
    let g = generators::erdos_renyi_paper(n, 0.1, 17);
    for b in [127, 128, 129] {
        let problem = Problem::new(&g).block_size(b);
        let plan = problem.plan(&sc).unwrap();
        assert_eq!(plan.block_size, b);
        let sol = problem.execute(&sc, plan.clone()).unwrap();
        let explicit = BlockedCollectBroadcast
            .solve(&sc, &g.to_dense(), &plan.solver_config())
            .unwrap();
        assert_eq!(
            sol.distances().unwrap().data(),
            explicit.distances().data(),
            "b={b}"
        );
    }
}

// ---------------------------------------------------------------------------
// Tracked non-tropical workloads: witness validity
// ---------------------------------------------------------------------------

#[test]
fn widest_paths_witnesses_achieve_reported_width() {
    let sc = ctx();
    for seed in [1u64, 8, 21] {
        let g = generators::erdos_renyi_paper(40, 0.1, seed);
        let sol = Problem::new(&g)
            .workload(Workload::Widest)
            .with_paths()
            .solve(&sc)
            .unwrap();
        let caps = g.to_dense_capacities();
        let oracle = bottleneck::widest_paths(&g);
        for i in 0..40 {
            for j in 0..40 {
                assert_eq!(
                    sol.widths().unwrap().get(i, j),
                    oracle.get(i, j),
                    "seed {seed}: width ({i},{j}) diverges from the oracle"
                );
                if i == j {
                    continue;
                }
                match sol.path(i, j) {
                    None => assert!(!sol.reachable(i, j), "seed {seed}: ({i},{j})"),
                    Some(route) => {
                        assert_eq!(route.first(), Some(&(i as u32)));
                        assert_eq!(route.last(), Some(&(j as u32)));
                        let width = route
                            .windows(2)
                            .map(|w| caps.get(w[0] as usize, w[1] as usize))
                            .fold(f64::INFINITY, f64::min);
                        assert!(
                            route
                                .windows(2)
                                .all(|w| caps.get(w[0] as usize, w[1] as usize) > 0.0),
                            "seed {seed}: route uses a non-edge"
                        );
                        assert_eq!(
                            width,
                            sol.width(i, j).unwrap(),
                            "seed {seed}: witness ({i},{j}) does not achieve the width"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn reachability_witnesses_walk_real_edges() {
    let sc = ctx();
    let mut g = Graph::new(9);
    for i in 0..4u32 {
        g.add_edge(i, i + 1, 1.0); // chain 0..4
    }
    g.add_edge(6, 7, 1.0);
    let sol = Problem::new(&g)
        .workload(Workload::Reachability)
        .with_paths()
        .solve(&sc)
        .unwrap();
    let adj = g.to_dense();
    for i in 0..9 {
        for j in 0..9 {
            match sol.path(i, j) {
                None => assert!(!sol.reachable(i, j)),
                Some(route) => {
                    for w in route.windows(2) {
                        assert!(
                            adj.get(w[0] as usize, w[1] as usize).is_finite(),
                            "({i},{j}): hop {}->{} is not an edge",
                            w[0],
                            w[1]
                        );
                    }
                }
            }
        }
    }
    assert!(sol.path(0, 4).is_some());
    assert!(sol.path(0, 6).is_none());
}

// ---------------------------------------------------------------------------
// explain() snapshot
// ---------------------------------------------------------------------------

/// The full report for a pinned, deterministic problem. This is a
/// snapshot test: if the planner's rendering changes, update the
/// expected block deliberately.
#[test]
fn explain_snapshot() {
    let g = generators::grid(8, 12); // n = 96
    let sc = ctx();
    let plan = Problem::new(&g).with_paths().cores(2).plan(&sc).unwrap();
    let expected = "\
plan for n = 96 (undirected, shortest-paths, paths tracked)
  solver      = Blocked Collect/Broadcast (Algorithm 4)
  block size  = 64 (q = 2 blocks/side)
  kernel tier = auto -> Branchless (tracked tier)
  partitioner = multi-diagonal, 4 (2 x 2 cores) partitions
  projection  = Feasible, 2 iterations (cluster model: Blocked-CB)
  rules       = none (defaults applied cleanly)
";
    assert_eq!(plan.explain(), expected);
}

#[test]
fn explain_names_solver_and_block_size_for_directed_paths() {
    let g = generators::erdos_renyi_directed(30, 0.15, 2);
    let plan = Problem::from_digraph(&g).with_paths().plan(&ctx()).unwrap();
    let report = plan.explain();
    assert!(report.contains("Directed 2D Floyd-Warshall"), "{report}");
    assert!(report.contains("block size"), "{report}");
    assert!(report.contains("[paths-fallback]"), "{report}");
}

// ---------------------------------------------------------------------------
// Property tests: planned solves agree with the sequential oracles on
// arbitrary graphs (the planner must never pick a wrong-answer config).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn planned_solves_match_oracles(n in 2usize..40, seed in 0u64..500, paths in proptest::any::<bool>()) {
        let g = generators::erdos_renyi_paper(n, 0.1, seed);
        let sc = ctx();

        // Shortest paths vs Floyd-Warshall.
        let mut problem = Problem::new(&g);
        if paths {
            problem = problem.with_paths();
        }
        let sol = problem.solve(&sc).unwrap();
        let oracle = apspark::graph::floyd_warshall(&g);
        prop_assert!(sol.distances().unwrap().approx_eq(&oracle, 1e-9).is_ok());
        if paths {
            for i in 0..n {
                for j in 0..n {
                    if let Some(route) = sol.path(i, j) {
                        let sum: f64 = route
                            .windows(2)
                            .map(|w| g.to_dense().get(w[0] as usize, w[1] as usize))
                            .sum();
                        prop_assert!((sum - oracle.get(i, j)).abs() < 1e-9);
                    }
                }
            }
        }

        // Widest paths vs the modified-Dijkstra oracle.
        let wide = Problem::new(&g).workload(Workload::Widest).solve(&sc).unwrap();
        let wide_oracle = bottleneck::widest_paths(&g);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(wide.widths().unwrap().get(i, j), wide_oracle.get(i, j));
            }
        }

        // Reachability vs BFS components.
        let reach = Problem::new(&g).workload(Workload::Reachability).solve(&sc).unwrap();
        let reach_oracle = bottleneck::reachability_bfs(&g);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(reach.reachability().unwrap().get(i, j), reach_oracle[i * n + j]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Odds and ends
// ---------------------------------------------------------------------------

#[test]
fn planned_directed_tracked_solve_matches_explicit_directed_fw2d() {
    let g = generators::erdos_renyi_directed(33, 0.15, 9);
    let sc = ctx();
    let problem = Problem::from_digraph(&g).with_paths();
    let plan = problem.plan(&sc).unwrap();
    let sol = problem.execute(&sc, plan.clone()).unwrap();
    let explicit = DirectedFloydWarshall2D
        .solve(&sc, &g.to_dense(), &plan.solver_config())
        .unwrap();
    assert_eq!(
        sol.distances().unwrap().data(),
        explicit.distances().data(),
        "planned directed solve must be bit-exact with the explicit call"
    );
}

#[test]
fn mpi_baselines_are_schedulable_via_prefer() {
    let g = generators::erdos_renyi_paper(24, 0.1, 13);
    let sc = ctx();
    for id in [SolverId::MpiFw2d, SolverId::MpiDc] {
        let sol = Problem::new(&g).prefer(id).solve(&sc).unwrap();
        assert_eq!(sol.plan.solver, id);
        let oracle = apspark::graph::floyd_warshall(&g);
        assert!(
            sol.distances().unwrap().approx_eq(&oracle, 1e-9).is_ok(),
            "{id:?}"
        );
    }
}

#[test]
fn solver_config_compiles_the_plan_down() {
    let g = generators::erdos_renyi_paper(48, 0.1, 6);
    let plan = Problem::new(&g).with_paths().plan(&ctx()).unwrap();
    let cfg: SolverConfig = plan.solver_config();
    assert_eq!(cfg.block_size, plan.block_size);
    assert!(cfg.track_paths);
}

#[test]
fn widest_with_paths_runs_on_all_four_algebra_solvers() {
    // The planner defaults to CB; the other algebra solvers remain
    // schedulable and agree.
    let g = generators::erdos_renyi_paper(20, 0.1, 31);
    let sc = ctx();
    let reference = Problem::new(&g)
        .workload(Workload::Widest)
        .with_paths()
        .solve(&sc)
        .unwrap();
    for id in [
        SolverId::BlockedInMemory,
        SolverId::FloydWarshall2D,
        SolverId::RepeatedSquaring,
    ] {
        let sol = Problem::new(&g)
            .workload(Workload::Widest)
            .with_paths()
            .prefer(id)
            .solve(&sc)
            .unwrap();
        assert_eq!(sol.plan.solver, id);
        assert_eq!(
            sol.widths().unwrap().data(),
            reference.widths().unwrap().data(),
            "{id:?} widths diverge"
        );
        // Witnesses may differ between solvers but must all be valid.
        let caps = g.to_dense_capacities();
        for i in 0..20 {
            for j in 0..20 {
                if let Some(route) = sol.path(i, j) {
                    let width = route
                        .windows(2)
                        .map(|w| caps.get(w[0] as usize, w[1] as usize))
                        .fold(f64::INFINITY, f64::min);
                    assert_eq!(width, sol.width(i, j).unwrap(), "{id:?} ({i},{j})");
                }
            }
        }
    }
}
