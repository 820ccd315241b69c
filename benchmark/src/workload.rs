//! The five workloads: their instances, the solve each one times, the
//! oracle checks counted into `failed`, and the query and request mixes of
//! the later phases.

use crate::spec::Kind;
use crate::stats::Rng;
use crate::trace::Tracer;
use apsp_core::{Problem, QueryRequest, Solution, SolverId, Workload};
use apsp_graph::{bottleneck, dijkstra, generators, io, Csr, Graph};
use sparklet::SparkContext;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Executor threads of every solve: this box has `nproc` = 2.
pub const CORES: usize = 2;
/// Oracle rows checked per solve.
pub const ORACLE_ROWS: usize = 64;
/// `k` of every k-nearest query.
pub const K_NEAREST: usize = 8;

/// Instance shape: `n` vertices (a `side × side` road grid for
/// `road_hier`) cut into blocks of side `b`.
#[derive(Clone, Copy)]
pub struct Shape {
    pub n: usize,
    pub b: usize,
}

impl Shape {
    pub fn q(&self) -> usize {
        self.n.div_ceil(self.b)
    }
}

/// Sizes chosen so that one run — set-up, `--seconds` of measuring and
/// the checks — fits the driver's per-run share of its hour on two cores.
pub fn shape(kind: Kind, quick: bool) -> Shape {
    let (n, b) = match (kind, quick) {
        (Kind::DenseCb, false) => (1536, 96),
        (Kind::ImFine, false) => (1024, 32),
        (Kind::AlgebraMix, false) => (1024, 128),
        (Kind::RoadHier, false) => (128 * 128, 128),
        (Kind::StoreServe, false) => (1024, 64),
        (Kind::DenseCb, true) => (192, 48),
        (Kind::ImFine, true) => (192, 24),
        (Kind::AlgebraMix, true) => (192, 48),
        // The planner routes to the hierarchical path from n = 1024 up.
        (Kind::RoadHier, true) => (32 * 32, 32),
        (Kind::StoreServe, true) => (192, 48),
    };
    Shape { n, b }
}

/// Counts operations attempted and failed; the first failure is kept for
/// the log.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// What set-up produces: the generated graph and the oracle rows every
/// solve is checked against.
pub struct Inputs {
    pub graph: Graph,
    pub csr: Csr,
    pub sources: Vec<usize>,
    pub dist_rows: Vec<Vec<f64>>,
    /// Widest-path oracle rows (`algebra_mix` only).
    pub width_rows: Vec<Vec<f64>>,
    /// Row-major BFS reachability (`algebra_mix` only).
    pub reach: Vec<bool>,
    pub generate_s: f64,
}

/// Generates the workload's graph from the seed and computes its oracles.
/// `road_hier` round-trips its grid through the edge-list file the serve
/// phase's solve job loads, so every solver sees one and the same input.
pub fn make_inputs(kind: Kind, shape: Shape, seed: u64, scratch: &Path) -> Result<Inputs, String> {
    let start = Instant::now();
    let graph = match kind {
        Kind::RoadHier => {
            let side = (shape.n as f64).sqrt().round() as usize;
            let grid = generators::road_grid(side, side, seed);
            let file = road_file(scratch);
            io::save_graph(&grid, &file).map_err(|e| format!("save road grid: {e}"))?;
            io::load_graph(&file).map_err(|e| format!("load road grid: {e}"))?
        }
        _ => generators::erdos_renyi_paper(shape.n, 0.1, seed),
    };
    let generate_s = start.elapsed().as_secs_f64();
    let n = graph.order();
    let csr = graph.to_csr();
    let mut rng = Rng::new(seed ^ 0x5EED_0A7C);
    let sources: Vec<usize> = (0..ORACLE_ROWS).map(|_| rng.below(n)).collect();
    let dist_rows = sources.iter().map(|&s| dijkstra::sssp(&csr, s)).collect();
    let (width_rows, reach) = if kind == Kind::AlgebraMix {
        (
            sources
                .iter()
                .map(|&s| bottleneck::widest_sssp(&csr, s))
                .collect(),
            bottleneck::reachability_bfs(&graph),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    Ok(Inputs {
        graph,
        csr,
        sources,
        dist_rows,
        width_rows,
        reach,
        generate_s,
    })
}

pub fn road_file(scratch: &Path) -> PathBuf {
    scratch.join("road.edges")
}

/// One repetition's solutions with the wall time of each solve.
pub struct Solved {
    pub sols: Vec<Solution>,
    pub part_s: Vec<f64>,
}

impl Solved {
    pub fn total_s(&self) -> f64 {
        self.part_s.iter().sum()
    }
}

/// A blocked dense solve of `graph` through the front door, with its hints.
pub fn blocked_problem(graph: &Graph, solver: SolverId, b: usize) -> Problem<'_> {
    Problem::new(graph)
        .prefer(solver)
        .block_size(b)
        .cores(CORES)
}

/// [`blocked_problem`] with the paper's best solver, Collect/Broadcast.
pub fn cb_problem(graph: &Graph, b: usize) -> Problem<'_> {
    blocked_problem(graph, SolverId::BlockedCollectBroadcast, b)
}

/// Runs the workload's solve once: wall time of `Problem::solve`,
/// including plan, `to_dense`, execute and collect. `algebra_mix` is three
/// solves. (`store_serve` does not time `Problem::store`: on this box's
/// ext4 the same 12 MB save takes 35, 60 or 140 ms as the kernel's
/// writeback pleases, which would be the metric.)
pub fn solve_once(
    kind: Kind,
    shape: Shape,
    inp: &Inputs,
    ctx: &SparkContext,
    tracer: &Tracer,
) -> Result<Solved, String> {
    let g = &inp.graph;
    let problems: Vec<Problem<'_>> = match kind {
        Kind::DenseCb => vec![cb_problem(g, shape.b)],
        Kind::ImFine => vec![blocked_problem(g, SolverId::BlockedInMemory, shape.b)],
        Kind::AlgebraMix => vec![
            cb_problem(g, shape.b).with_paths(),
            cb_problem(g, shape.b).workload(Workload::Widest),
            cb_problem(g, shape.b).workload(Workload::Reachability),
        ],
        Kind::RoadHier => vec![Problem::new(g).cores(CORES)],
        Kind::StoreServe => vec![cb_problem(g, shape.b).with_paths()],
    };
    let mut solved = Solved {
        sols: Vec::new(),
        part_s: Vec::new(),
    };
    for p in &problems {
        let start = Instant::now();
        let sol = tracer
            .span("core.solve", || p.solve(ctx))
            .map_err(|e| format!("{} solve failed: {e}", kind.name()))?;
        solved.part_s.push(start.elapsed().as_secs_f64());
        solved.sols.push(sol);
    }
    Ok(solved)
}

fn same_dist(got: Option<f64>, want: f64) -> bool {
    match got {
        None => want.is_infinite(),
        Some(d) => (d - want).abs() <= 1e-9 * want.abs().max(1.0),
    }
}

/// Checks one repetition against the oracles: the sampled distance rows
/// against Dijkstra (relative 1e-9; `road_hier` bit-equal, and its plan
/// must be the hierarchical one), widths against the widest-path Dijkstra,
/// reachability against BFS. One operation per row.
pub fn check_solved(kind: Kind, inp: &Inputs, solved: &Solved, tally: &mut Tally) {
    let n = inp.graph.order();
    let sp = &solved.sols[0];
    if kind == Kind::RoadHier {
        tally.check(sp.plan.solver == SolverId::SparseHierarchical, || {
            format!(
                "road_hier planned {:?}, not SparseHierarchical",
                sp.plan.solver
            )
        });
    }
    for (&s, row) in inp.sources.iter().zip(&inp.dist_rows) {
        let ok = if kind == Kind::RoadHier {
            // One row query, not n point queries: a hierarchical point
            // query stitches boundaries and n of them cost seconds.
            let got = sp.k_nearest(s, n);
            got.len() == (0..n).filter(|&v| v != s && row[v].is_finite()).count()
                && got
                    .iter()
                    .all(|&(v, d)| d.to_bits() == row[v as usize].to_bits())
        } else {
            (0..n).all(|v| same_dist(sp.dist(s, v), row[v]))
        };
        tally.check(ok, || {
            format!("{}: distance row {s} differs from Dijkstra", kind.name())
        });
    }
    if kind != Kind::AlgebraMix {
        return;
    }
    let (widest, reach) = (&solved.sols[1], &solved.sols[2]);
    for (&s, row) in inp.sources.iter().zip(&inp.width_rows) {
        // The oracle's conventions: 0.0 unreachable, +inf for the source.
        let ok = (0..n)
            .filter(|&v| v != s)
            .all(|v| match widest.width(s, v) {
                None => row[v] == 0.0,
                Some(w) => (w - row[v]).abs() <= 1e-9 * row[v].abs().max(1.0),
            });
        tally.check(ok, || {
            format!("algebra_mix: width row {s} differs from the oracle")
        });
        let ok = (0..n).all(|v| reach.reachable(s, v) == inp.reach[s * n + v]);
        tally.check(ok, || {
            format!("algebra_mix: reachability row {s} differs from BFS")
        });
    }
}

/// Destinations asked per source by the in-process query mix.
pub const FAN_OUT: usize = 16;

/// One in-process query burst of the workload's mix: a random source and
/// [`FAN_OUT`] random destinations from it, the one-to-many shape of
/// routing and nearest-facility callers (and, for the benchmark, one whose
/// rate does not hang on a cache miss per query, which on a shared host
/// is the neighbours' number, not this program's). Returns the number of
/// queries made; `sink` only keeps the optimiser from deleting them.
#[inline]
pub fn query_burst(kind: Kind, sols: &[&Solution], rng: &mut Rng, sink: &mut f64) -> u64 {
    let n = sols[0].order();
    let u = rng.below(n);
    if kind == Kind::ImFine {
        // A k-nearest query is a whole-row scan already.
        *sink += sols[0]
            .k_nearest(u, K_NEAREST)
            .last()
            .map_or(0.0, |&(_, d)| d);
        return 1;
    }
    for i in 0..FAN_OUT {
        let v = rng.below(n);
        *sink += match (kind, i % 3) {
            (Kind::AlgebraMix, 0) => sols[0].path(u, v).map_or(0.0, |p| p.len() as f64),
            (Kind::AlgebraMix, 1) => sols[1].width(u, v).unwrap_or(0.0),
            (Kind::AlgebraMix, _) => f64::from(u8::from(sols[2].reachable(u, v))),
            _ => sols[0].dist(u, v).unwrap_or(0.0),
        };
    }
    FAN_OUT as u64
}

/// One HTTP request of the workload's mix, as the URL and as the typed
/// query the expected answer is computed from. `job` selects a solve
/// job's solution instead of the mounted store.
pub fn http_request(
    kind: Kind,
    n: usize,
    job: Option<&str>,
    i: u64,
    rng: &mut Rng,
) -> (String, QueryRequest) {
    let (src, dst) = (rng.below(n), rng.below(n));
    let (mut url, req) = match (kind, i % 3) {
        (Kind::ImFine, _) => (
            format!("/k-nearest?src={src}&k={K_NEAREST}"),
            QueryRequest::KNearest { src, k: K_NEAREST },
        ),
        (Kind::AlgebraMix, 0) => (
            format!("/path?src={src}&dst={dst}"),
            QueryRequest::Path { src, dst },
        ),
        (Kind::AlgebraMix, 1) => (
            format!("/reachable?src={src}&dst={dst}"),
            QueryRequest::Reachable { src, dst },
        ),
        _ => (
            format!("/dist?src={src}&dst={dst}"),
            QueryRequest::Dist { src, dst },
        ),
    };
    if let Some(id) = job {
        url.push_str("&job=");
        url.push_str(id);
    }
    (url, req)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_shapes_are_small_and_block_sides_divide_the_work() {
        for kind in crate::spec::KINDS {
            let s = shape(kind, true);
            assert!(s.n <= 1024 && s.b <= s.n, "{}", kind.name());
            let full = shape(kind, false);
            assert!(full.q() >= 8 || kind == Kind::RoadHier);
        }
    }

    #[test]
    fn distance_comparison_handles_unreachable_and_relative_error() {
        assert!(same_dist(None, f64::INFINITY));
        assert!(!same_dist(None, 3.0));
        assert!(same_dist(Some(3.0 + 1e-12), 3.0));
        assert!(!same_dist(Some(3.1), 3.0));
    }

    #[test]
    fn tally_counts_attempts_and_keeps_the_first_failure() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        t.check(false, || "first".into());
        t.check(false, || "second".into());
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert_eq!(t.first_failure.as_deref(), Some("first"));
    }

    #[test]
    fn http_mix_names_the_endpoint_its_typed_query_describes() {
        let mut rng = Rng::new(3);
        let (url, req) = http_request(Kind::RoadHier, 100, Some("job-1"), 0, &mut rng);
        assert!(url.starts_with("/dist?src=") && url.ends_with("&job=job-1"));
        assert!(matches!(req, QueryRequest::Dist { .. }));
        let (url, req) = http_request(Kind::AlgebraMix, 100, None, 0, &mut rng);
        assert!(url.starts_with("/path?"));
        assert!(matches!(req, QueryRequest::Path { .. }));
        let (url, _) = http_request(Kind::ImFine, 100, None, 5, &mut rng);
        assert!(url.starts_with("/k-nearest?") && url.ends_with("&k=8"));
    }
}
