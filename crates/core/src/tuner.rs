//! Block-size auto-tuning (the paper's §5.2/§5.3 guidance, mechanized).
//!
//! Two tuners are provided:
//!
//! * [`suggest_block_size`] — the closed-form heuristic: pick `b` so the
//!   upper-triangular block count supports `B` partitions per core
//!   (`q(q+1)/2 ≥ B·p`), clamped to the cache-friendly kernel range the
//!   paper's Fig. 2 identifies;
//! * [`tune_with_model`] — the model-driven tuner: sweep candidate block
//!   sizes through the [`apsp_cluster`] projection and pick the feasible
//!   minimum (how the paper's Table 3 per-`p` block sizes arise).

use apsp_cluster::{
    project, ClusterSpec, KernelRates, Projection, SolverKind, SparkOverheads, Workload,
};

/// Smallest block the heuristic will suggest (below this, task-scheduling
/// overheads dominate — paper §5.2).
pub const MIN_BLOCK: usize = 64;

/// Largest cache-friendly block on the paper's Skylake nodes: Fig. 2 puts
/// the L3 knee near `b ≈ 1810`.
pub const CACHE_KNEE: usize = 1810;

/// Closed-form block-size suggestion for an `n`-vertex problem on `cores`
/// cores with `partitions_per_core` (`B`) partitions per core.
pub fn suggest_block_size(n: usize, cores: usize, partitions_per_core: usize) -> usize {
    assert!(n > 0 && cores > 0, "need a non-empty problem and cores");
    let b_target = partitions_per_core.max(1) * cores;
    // Want q(q+1)/2 >= b_target → q >= (√(8t+1) - 1)/2.
    let q_min = (((8.0 * b_target as f64 + 1.0).sqrt() - 1.0) / 2.0).ceil() as usize;
    let b = n.div_ceil(q_min.max(1));
    b.clamp(MIN_BLOCK.min(n), CACHE_KNEE)
}

/// Sweeps `candidates` through the cluster model for `solver` and returns
/// the feasible block size with the lowest projected total, with its
/// projection. Returns `None` when no candidate is feasible.
pub fn tune_with_model(
    solver: SolverKind,
    n: usize,
    spec: &ClusterSpec,
    rates: &KernelRates,
    overheads: &SparkOverheads,
    candidates: &[usize],
) -> Option<(usize, Projection)> {
    let mut best: Option<(usize, Projection)> = None;
    for &b in candidates {
        if b == 0 {
            continue;
        }
        let w = Workload::paper_default(n, b);
        let p = project(solver, &w, spec, rates, overheads);
        if !p.feasibility.is_feasible() {
            continue;
        }
        match &best {
            Some((_, cur)) if cur.total_s <= p.total_s => {}
            _ => best = Some((b, p)),
        }
    }
    best
}

/// Largest grid order `q = ⌈n/b⌉` the block-size ladder will project: the
/// largest the paper grid produces (`262144 / 256`). The model's cost per
/// candidate grows as `q²` (the partitioner-skew histogram walks every
/// block key), and a grid finer than this is scheduling overhead, not a
/// plan, so finer candidates are dropped rather than projected.
pub const MAX_GRID_ORDER: usize = 1024;

/// Routes a block-size suggestion through the cluster model's feasibility
/// verdict — the check shared by the query planner (`crate::plan`) and
/// [`crate::SolverConfig::auto`].
///
/// Returns `suggested` unchanged when [`project`] marks it feasible for
/// `solver` on `spec`. Otherwise sweeps a candidate grid — the paper grid
/// plus power-of-two refinements of `suggested`, down to the smallest
/// block whose grid order stays within [`MAX_GRID_ORDER`] — through
/// [`tune_with_model`] and returns the feasible candidate with the lowest
/// projected total. `None` when no candidate is feasible (the cluster
/// cannot run this solver at this `n` for any block size, e.g. the
/// paper's Blocked-IM at `n = 262144`).
pub fn feasible_block_size(
    solver: SolverKind,
    n: usize,
    spec: &ClusterSpec,
    rates: &KernelRates,
    overheads: &SparkOverheads,
    suggested: usize,
) -> Option<usize> {
    let suggested = suggested.clamp(1, n.max(1));
    let w = Workload::paper_default(n, suggested);
    if project(solver, &w, spec, rates, overheads)
        .feasibility
        .is_feasible()
    {
        return Some(suggested);
    }
    let mut candidates = paper_candidates();
    let mut half = suggested;
    while half >= 1 {
        candidates.push(half);
        if half == 1 {
            break;
        }
        half /= 2;
    }
    candidates.retain(|&b| b <= n.max(1) && n.div_ceil(b) <= MAX_GRID_ORDER);
    tune_with_model(solver, n, spec, rates, overheads, &candidates).map(|(b, _)| b)
}

/// Sparse inputs smaller than this never route to the hierarchical path:
/// below ~1k vertices the dense blocked solve is already sub-second and
/// the partition/stitch machinery is pure overhead.
pub const SPARSE_MIN_N: usize = 1024;

/// Densest input the hierarchical path will accept: above ~2% finite
/// off-diagonal cells the boundary sets grow toward `n` and the skeleton
/// solve degenerates into the dense solve it was meant to avoid.
pub const SPARSE_MAX_DENSITY: f64 = 0.02;

/// Highest average degree the hierarchical path will accept. Density
/// alone cannot separate road-like graphs from sparse expanders:
/// Erdős–Rényi just above the connectivity threshold
/// (`pe = (1+ε)·ln n / n`, the paper's §5.1 workload) has density
/// `Θ(ln n / n)` — under [`SPARSE_MAX_DENSITY`] for every `n ≥ 1024` —
/// yet no locality: a BFS-grown part has almost every vertex adjacent
/// to the outside, so the skeleton approaches the whole graph and the
/// hierarchy pays the dense solve *plus* its own overhead. Road
/// networks and grids have bounded degree (≈ 2–5, `road_grid` ≈ 4.1);
/// threshold-ER degree is `(1+ε)·ln n` ≥ 7.6 at `n = 1024` and grows,
/// so a cut at 6 separates the two families at every qualifying size.
pub const SPARSE_MAX_AVG_DEGREE: f64 = 6.0;

/// Target partition size for the hierarchical sparse path.
///
/// Cost model (road-like graphs, boundary `≈ 4√m` per side-`√m` part):
/// local closures cost `Θ(n·m²)` total, the skeleton closure costs
/// `Θ(s³)` with `s ≈ 4n/√m` boundary vertices. Balancing the two gives
/// `m = (48·n²)^(2/7)` — e.g. `m ≈ 870` at `n ≈ 20k`. Clamped to
/// `[MIN_BLOCK, 4096]` (and to `n`) so tiny inputs stay one part and
/// huge ones keep cache-resident local solves.
pub fn hierarchical_part_size(n: usize) -> usize {
    let balanced = (48.0 * (n as f64) * (n as f64)).powf(2.0 / 7.0).round() as usize;
    balanced.clamp(MIN_BLOCK, 4096).min(n.max(1))
}

/// Whether the planner should prefer the hierarchical sparse path over
/// the dense blocked solve for an `n`-vertex undirected graph with the
/// given [`apsp_graph::Graph::density`] and
/// [`apsp_graph::Graph::avg_degree`].
///
/// The gate is deliberately conservative — all three thresholds must
/// hold:
///
/// * `n ≥` [`SPARSE_MIN_N`]: the dense solve's `Θ(n³)` must be large
///   enough that the `Θ(n·m² + s³)` hierarchical total wins after its
///   constant factors (partitioning, per-part setup, lazy stitching);
/// * `density ≤` [`SPARSE_MAX_DENSITY`]: denser graphs push the
///   boundary sets toward `n`, making the skeleton closure as large as
///   the problem it replaces;
/// * `avg_degree ≤` [`SPARSE_MAX_AVG_DEGREE`]: the bounded-degree
///   locality signal that separates road-like graphs from sparse
///   expanders (see the constant's rationale).
pub fn prefers_hierarchical(n: usize, density: f64, avg_degree: f64) -> bool {
    n >= SPARSE_MIN_N && density <= SPARSE_MAX_DENSITY && avg_degree <= SPARSE_MAX_AVG_DEGREE
}

/// The paper's candidate grid for Table 2/Fig. 3 sweeps.
pub fn paper_candidates() -> Vec<usize> {
    vec![
        256, 512, 768, 1024, 1280, 1536, 1792, 2048, 2560, 3072, 4096,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_respects_parallelism() {
        let b = suggest_block_size(262_144, 1024, 2);
        let q = 262_144usize.div_ceil(b);
        assert!(
            q * (q + 1) / 2 >= 2048,
            "q={q} too coarse for B=2 on 1024 cores"
        );
        assert!(b <= CACHE_KNEE);
    }

    #[test]
    fn heuristic_small_problem_small_block() {
        let b = suggest_block_size(100, 4, 2);
        assert!(b <= 64);
        assert!(b >= 1);
    }

    #[test]
    fn hierarchical_part_size_balances_and_clamps() {
        // Balanced point at n = 20164: (48·n²)^(2/7) ≈ 870.
        let m = hierarchical_part_size(20_164);
        assert!((700..=1100).contains(&m), "m = {m}");
        // Tiny inputs: clamp to MIN_BLOCK then to n.
        assert_eq!(hierarchical_part_size(10), 10);
        assert_eq!(hierarchical_part_size(0), 1);
        assert_eq!(hierarchical_part_size(100), 64);
        // Huge inputs: cap at 4096 so local solves stay cache-resident.
        assert_eq!(hierarchical_part_size(10_000_000), 4096);
    }

    #[test]
    fn sparse_gate_needs_size_sparsity_and_bounded_degree() {
        assert!(prefers_hierarchical(20_164, 0.0002, 4.1), "road_grid");
        assert!(prefers_hierarchical(1024, 0.02, 6.0), "boundary values");
        assert!(!prefers_hierarchical(1023, 0.0001, 4.0), "too small");
        assert!(!prefers_hierarchical(20_164, 0.1, 4.0), "too dense");
        assert!(
            !prefers_hierarchical(96, 0.05, 3.9),
            "grid(8,12) stays dense"
        );
        // Threshold Erdős–Rényi: sparse by density but an expander —
        // degree (1+ε)·ln n ≈ 7.7 at n = 1100 fails the locality gate.
        assert!(!prefers_hierarchical(1100, 0.0075, 7.7), "sparse expander");
    }

    #[test]
    fn model_tuner_picks_feasible_minimum() {
        let spec = ClusterSpec::paper_cluster();
        let rates = KernelRates::paper();
        let ov = SparkOverheads::default();
        let (b, proj) = tune_with_model(
            SolverKind::BlockedCollectBroadcast,
            262_144,
            &spec,
            &rates,
            &ov,
            &paper_candidates(),
        )
        .expect("CB must have a feasible block size");
        assert!(proj.feasibility.is_feasible());
        // The paper lands on b ≈ 1024–2560 for CB at this scale.
        assert!((512..=4096).contains(&b), "tuned b = {b}");
        // No candidate strictly beats the pick.
        for &cand in &paper_candidates() {
            let w = Workload::paper_default(262_144, cand);
            let p = project(SolverKind::BlockedCollectBroadcast, &w, &spec, &rates, &ov);
            if p.feasibility.is_feasible() {
                assert!(
                    p.total_s >= proj.total_s - 1e-9,
                    "candidate {cand} beats pick {b}"
                );
            }
        }
    }

    #[test]
    fn model_tuner_excludes_infeasible_im_blocks() {
        // At n = 131072 the IM tuner must not pick b < 1024 (storage cliff).
        let spec = ClusterSpec::paper_cluster();
        let (b, _) = tune_with_model(
            SolverKind::BlockedInMemory,
            131_072,
            &spec,
            &KernelRates::paper(),
            &SparkOverheads::default(),
            &paper_candidates(),
        )
        .expect("IM feasible at n=131072 for some b");
        assert!(b >= 1024, "tuner picked infeasible-region b = {b}");
    }

    #[test]
    fn feasible_block_size_keeps_feasible_suggestions() {
        let spec = ClusterSpec::local(4);
        let got = feasible_block_size(
            SolverKind::BlockedCollectBroadcast,
            500,
            &spec,
            &KernelRates::paper(),
            &SparkOverheads::default(),
            125,
        );
        assert_eq!(got, Some(125));
    }

    #[test]
    fn feasible_block_size_retunes_infeasible_suggestions() {
        // A machine whose RAM sits between the q=2 and q=8 working sets of
        // an n=1000 problem: the single-big-block suggestion overflows
        // (padding inflates the resident set), smaller blocks fit.
        let mut spec = ClusterSpec::local(1);
        spec.ram_per_node_bytes = 10 << 20; // 10 MiB
        let rates = KernelRates::paper();
        let ov = SparkOverheads::default();
        let suggested = 500; // q=2: 2·3·500²·8 = 12 MB > 10 MiB
        let w = Workload::paper_default(1000, suggested);
        assert!(
            !project(SolverKind::BlockedCollectBroadcast, &w, &spec, &rates, &ov)
                .feasibility
                .is_feasible(),
            "test premise: the suggestion must be infeasible"
        );
        let got = feasible_block_size(
            SolverKind::BlockedCollectBroadcast,
            1000,
            &spec,
            &rates,
            &ov,
            500,
        )
        .expect("a smaller block must fit");
        assert_ne!(got, 500);
        let w = Workload::paper_default(1000, got);
        assert!(
            project(SolverKind::BlockedCollectBroadcast, &w, &spec, &rates, &ov)
                .feasibility
                .is_feasible(),
            "returned block size must be feasible"
        );
    }

    #[test]
    fn feasible_block_size_reports_hopeless_cases() {
        // IM at n = 262144 on the paper cluster is infeasible for every b.
        assert_eq!(
            feasible_block_size(
                SolverKind::BlockedInMemory,
                262_144,
                &ClusterSpec::paper_cluster(),
                &KernelRates::paper(),
                &SparkOverheads::default(),
                2048,
            ),
            None
        );
    }

    #[test]
    fn model_tuner_reports_none_when_hopeless() {
        // IM at n = 262144 on the paper cluster: no feasible block size.
        let got = tune_with_model(
            SolverKind::BlockedInMemory,
            262_144,
            &ClusterSpec::paper_cluster(),
            &KernelRates::paper(),
            &SparkOverheads::default(),
            &paper_candidates(),
        );
        assert!(
            got.is_none(),
            "IM should be infeasible at n=262144: {got:?}"
        );
    }
}
