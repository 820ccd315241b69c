//! Per-layer probes of the traced pass: each layer's public calls timed
//! from outside, inside a span named after the layer.
//!
//! A probe runs at the size the workload uses the layer at. Where the
//! workload bypasses a layer — `road_hier` never builds a dense matrix,
//! the dense workloads never partition a graph — the probe runs on a
//! small stand-in, so every workload reports every per-layer metric.

use crate::http;
use crate::run::{
    answer_matches, first_touch, fresh_dir, half_cache_budget, http_phase, query_phase, run_job,
    start_server, Report, SolvePhase,
};
use crate::spec::Kind;
use crate::stats::{median, percentile, quiet_rate, quiet_time, Rng};
use crate::trace::Tracer;
use crate::workload::{blocked_problem, cb_problem, Inputs, Shape, Tally, CORES, K_NEAREST};
use apsp_blockmat::kernels::MinPlusKernel;
use apsp_blockmat::{
    AlgBlock, Block, BoolSemiring, BottleneckF64, ElemBlock, Offsets, Reachability,
    TrackedTropical, Widest,
};
use apsp_cluster::{ClusterSpec, KernelRates, SolverKind, SparkOverheads};
use apsp_core::hierarchy::HierarchyConfig;
use apsp_core::{
    answer_json, answer_query, tuner, HierarchicalClosure, Problem, QueryRequest, Solution,
    SolverId, Workload,
};
use apsp_graph::{dijkstra, generators, Graph};
use sparklet::partitioner::ModPartitioner;
use sparklet::SparkContext;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct Subject<'a> {
    pub kind: Kind,
    pub shape: Shape,
    pub inp: &'a Inputs,
    pub solve: &'a SolvePhase,
    pub seed: u64,
    pub quick: bool,
    pub scratch: &'a Path,
}

fn secs<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Seconds per call: the quiet quartile of `reps` calls after one warm-up
/// call.
fn quiet_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps).map(|_| secs(&mut f).0).collect();
    quiet_time(&times)
}

/// A dense operand cell: `diag` on the diagonal, a weight in 1..98 off it.
fn dense_cell(diag: f64, seed: usize) -> impl Fn(usize, usize) -> f64 {
    move |i, j| {
        if i == j {
            diag
        } else {
            1.0 + ((i * 31 + j * 17 + seed) % 97) as f64
        }
    }
}

fn dense_block(b: usize, seed: usize) -> Block {
    Block::from_fn(b, dense_cell(0.0, seed))
}

/// `blockmat`: fold-product and in-block closure rates at block side `b`,
/// dense operands, the Auto tier, one thread; 2·b³ operation-equivalents
/// per product.
fn blockmat(b: usize, reps: usize, tracer: &Tracer, report: &mut Report) -> f64 {
    tracer.span("blockmat.kernels", || {
        let ops = 2.0 * (b as f64).powi(3);
        let rate = |seconds: f64| ops / seconds / 1e9;
        let offsets = Offsets {
            k: 4 * b,
            row: 0,
            col: 9 * b,
        };
        let (a, x) = (dense_block(b, 2), dense_block(b, 3));

        let mut c = Block::infinity(b);
        let minplus = rate(quiet_secs(reps, || {
            c.data_mut().fill(f64::INFINITY);
            c.min_plus_into_self(&a, &x);
        }));
        report.put("blockmat.minplus_gflops_eq", minplus, "Gop/s");

        let base = dense_block(b, 1);
        let mut blk = base.clone();
        let fw = rate(quiet_secs(reps, || {
            blk.data_mut().copy_from_slice(base.data());
            blk.floyd_warshall_in_place();
        }));
        report.put("blockmat.fw_gflops_eq", fw, "Gop/s");

        let mut t = AlgBlock::<TrackedTropical>::from_dist(Block::infinity(b));
        let tracked = rate(quiet_secs(reps, || {
            t.dist_mut().data_mut().fill(f64::INFINITY);
            t.min_plus_into_self(MinPlusKernel::Auto, &a, &x, offsets);
        }));
        report.put("blockmat.tracked_gflops_eq", tracked, "Gop/s");

        // Capacities: the (max, min) identity, +inf, on the diagonal.
        let cap = |seed| ElemBlock::<BottleneckF64>::from_fn(b, dense_cell(f64::INFINITY, seed));
        let (wa, wx) = (cap(2), cap(3));
        let mut w = AlgBlock::<Widest>::from_dist(ElemBlock::zeros(b));
        let maxmin = rate(quiet_secs(reps, || {
            w.dist_mut().data_mut().fill(0.0);
            w.min_plus_into_self(MinPlusKernel::Auto, &wa, &wx, offsets);
        }));
        report.put("blockmat.maxmin_gflops_eq", maxmin, "Gop/s");

        // All-true operands: a sparse boolean block would let the kernel
        // skip rows and flatter the rate.
        let ones = ElemBlock::<BoolSemiring>::filled(b, true);
        let mut r = AlgBlock::<Reachability>::from_dist(ElemBlock::zeros(b));
        let bitset = rate(quiet_secs(reps, || {
            r.dist_mut().data_mut().fill(false);
            r.min_plus_into_self(MinPlusKernel::Auto, &ones, &ones, offsets);
        }));
        report.put("blockmat.bitset_gops_eq", bitset, "Gop/s");
        minplus
    })
}

/// `sparklet`: the cost of an empty stage, the shuffle rate for one
/// upper-triangular grid of side-`b` blocks, and one side-channel
/// put + get of a block.
fn sparklet(
    ctx: &SparkContext,
    shape: Shape,
    reps: usize,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    tracer.span("sparklet.primitives", || {
        let parts = 2 * CORES;
        let stage = quiet_secs(reps * 20, || {
            let count = ctx.parallelize(vec![0u64; parts], parts).map(|x| x).count();
            std::hint::black_box(count.ok());
        });
        report.put("sparklet.stage_overhead_us", stage * 1e6, "us");

        let q = shape.q().min(16);
        let blocks: Vec<(u64, Block)> = (0..(q * (q + 1) / 2) as u64)
            .map(|k| (k, dense_block(shape.b, k as usize)))
            .collect();
        let mb = blocks.len() as f64 * (shape.b * shape.b * 8) as f64 / 1e6;
        let mut failed = None;
        let shuffle = quiet_secs(reps, || {
            let shuffled = ctx
                .parallelize(blocks.clone(), parts)
                .partition_by(Arc::new(ModPartitioner::new(parts)))
                .count();
            if shuffled.as_ref().ok() != Some(&blocks.len()) {
                failed = Some(format!("shuffle probe counted {shuffled:?}"));
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        report.put("sparklet.shuffle_mb_per_s", mb / shuffle, "MB/s");

        let block = dense_block(shape.b, 5);
        let channel = ctx.side_channel();
        let mut missed = false;
        let put_get = quiet_secs(reps * 20, || {
            let put = channel.put_block("bench-probe", block.clone());
            missed |= put.is_err() || channel.get_block_arc("bench-probe").is_err();
        });
        channel.remove("bench-probe");
        if missed {
            return Err("side-channel probe lost its block".into());
        }
        report.put("sparklet.sidechannel_put_get_us", put_get * 1e6, "us");
        Ok(())
    })
}

/// Exact engine counters of one of the workload's own solves.
fn sparklet_counters(solve: &SolvePhase, report: &mut Report) {
    let c = &solve.counters;
    let mb = |bytes: u64| bytes as f64 / 1e6;
    report.put("sparklet.tasks", c.tasks as f64, "count");
    report.put("sparklet.stages", c.stages as f64, "count");
    report.put("sparklet.shuffles", c.shuffles as f64, "count");
    report.put("sparklet.shuffle_mb", mb(c.shuffle_bytes), "MB");
    report.put(
        "sparklet.sidechannel_mb_written",
        mb(c.side_channel_bytes_written),
        "MB",
    );
    report.put(
        "sparklet.sidechannel_mb_read",
        mb(c.side_channel_bytes_read),
        "MB",
    );
    report.put("sparklet.broadcast_mb", mb(c.broadcast_bytes), "MB");
    report.put(
        "sparklet.collected_records",
        c.collected_records as f64,
        "count",
    );
    report.put("sparklet.task_retries", c.task_retries as f64, "count");
}

/// `plan` and `cluster`: the front door's planning call on the workload's
/// instance, one model projection at the paper's largest size, and the
/// planner's block-size ladder a `POST /solve` pays on a tight cluster.
fn planner(
    s: &Subject,
    ctx: &SparkContext,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    tracer.span("plan.front_door", || {
        let problem = match s.kind {
            Kind::RoadHier => Problem::new(&s.inp.graph).cores(CORES),
            _ => cb_problem(&s.inp.graph, s.shape.b),
        };
        let mut failed = false;
        let t = quiet_secs(9, || failed |= problem.plan(ctx).is_err());
        if failed {
            return Err("Problem::plan failed on the workload's instance".to_string());
        }
        report.put("plan.front_door_us", t * 1e6, "us");
        Ok(())
    })?;
    let (rates, overheads) = (KernelRates::paper(), SparkOverheads::default());
    tracer.span("cluster.project", || {
        let w = apsp_cluster::Workload::paper_default(262_144, 1024);
        let spec = ClusterSpec::paper_cluster();
        let t = quiet_secs(9, || {
            std::hint::black_box(apsp_cluster::project(
                SolverKind::BlockedCollectBroadcast,
                &w,
                &spec,
                &rates,
                &overheads,
            ));
        });
        report.put("cluster.project_us", t * 1e6, "us");
    });
    tracer.span("plan.ladder", || {
        let n = if s.quick { 2048 } else { 16_384 };
        let (t, found) = secs(|| {
            tuner::feasible_block_size(
                SolverKind::BlockedInMemory,
                n,
                &ClusterSpec::local(CORES),
                &rates,
                &overheads,
                512,
            )
        });
        std::hint::black_box(found);
        report.put("plan.ladder_ms", t * 1e3, "ms");
    });
    Ok(())
}

/// Solves `problem(attempt)` twice and returns the faster solve with its
/// wall time: one slow second on the host would otherwise set a ratio.
fn faster_of_two<'g>(
    name: &str,
    problem: &dyn Fn(usize) -> Problem<'g>,
    ctx: &SparkContext,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<(f64, Solution), String> {
    let mut best: Option<(f64, Solution)> = None;
    for attempt in 0..2 {
        tally.attempted += 1;
        let p = problem(attempt);
        let (t, sol) = secs(|| tracer.span(name, || p.solve(ctx)));
        let sol = sol.map_err(|e| {
            let msg = format!("{name} failed: {e}");
            tally.fail(msg.clone());
            msg
        })?;
        if best.as_ref().is_none_or(|(b, _)| t < *b) {
            best = Some((t, sol));
        }
    }
    Ok(best.expect("two solves ran"))
}

/// `engine` and `checkpoint`: the same dense instance through the other
/// solvers and algebras, and once with a checkpoint after every round.
/// Returns the tracked solution, which the store and serve probes run on.
fn engine(
    s: &Subject,
    g: &Graph,
    b: usize,
    ctx: &SparkContext,
    minplus_gflops: f64,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<Solution, String> {
    let n = g.order();
    let q = n.div_ceil(b);
    let tally = &mut report.tally;

    // The blocked Collect/Broadcast time every ratio is taken against.
    let cb_s = match s.kind {
        Kind::DenseCb => s.solve.solve_s,
        _ => faster_of_two("engine.cb", &|_| cb_problem(g, b), ctx, tracer, tally)?.0,
    };
    let im_s = match s.kind {
        Kind::ImFine => s.solve.solve_s,
        _ => {
            let im = |_| blocked_problem(g, SolverId::BlockedInMemory, b);
            faster_of_two("engine.im", &im, ctx, tracer, tally)?.0
        }
    };
    let mpi = |_| blocked_problem(g, SolverId::MpiDc, b);
    let mpi_s = faster_of_two("engine.mpi_dc", &mpi, ctx, tracer, tally)?.0;
    // The three addends of `algebra_mix`, on this instance.
    let (tracked_s, tracked) = faster_of_two(
        "engine.tracked",
        &|_| cb_problem(g, b).with_paths(),
        ctx,
        tracer,
        tally,
    )?;
    let (tracked_s, widest_s, reach_s) = match s.kind {
        Kind::AlgebraMix => (s.solve.part_s[0], s.solve.part_s[1], s.solve.part_s[2]),
        _ => (
            tracked_s,
            faster_of_two(
                "engine.widest",
                &|_| cb_problem(g, b).workload(Workload::Widest),
                ctx,
                tracer,
                tally,
            )?
            .0,
            faster_of_two(
                "engine.reach",
                &|_| cb_problem(g, b).workload(Workload::Reachability),
                ctx,
                tracer,
                tally,
            )?
            .0,
        ),
    };

    // One checkpoint directory per attempt: a second solve must not find
    // the first one's rounds.
    let ckpt_dir = s.scratch.join("ckpt");
    let before = ctx.metrics();
    let ckpt_s = faster_of_two(
        "checkpoint.solve",
        &|attempt| cb_problem(g, b).checkpoint_every(ckpt_dir.join(attempt.to_string()), 1),
        ctx,
        tracer,
        tally,
    )?
    .0;
    let written = ctx.metrics().delta(&before).checkpoint_bytes as f64 / 2e6;
    fresh_dir(&ckpt_dir)?;

    // Products of the blocked algorithm on upper-triangular storage: q
    // rounds, each updating q(q+1)/2 blocks, 2·b³ operation-equivalents
    // per update. Computed, not counted.
    let kernel_ops = 2.0 * (b as f64).powi(3) * (q * q * (q + 1) / 2) as f64;
    report.put("blockmat.kernel_ops", kernel_ops, "count");
    println!(
        "# engine bases on n = {n}, b = {b}: cb {cb_s:.4} s, im {im_s:.4} s, mpi_dc {mpi_s:.4} s, \
         checkpointed cb {ckpt_s:.4} s, kernel {minplus_gflops:.3} Gop/s x {CORES} cores"
    );
    report.put(
        "engine.efficiency",
        kernel_ops / cb_s / (CORES as f64 * minplus_gflops * 1e9),
        "ratio",
    );
    let last = &s.solve.last.sols[0];
    report.put(
        "engine.round_s",
        s.solve.part_s[0] / last.iterations.max(1) as f64,
        "s",
    );
    report.put(
        "engine.warmup_ratio",
        s.solve.first_s / s.solve.solve_s,
        "ratio",
    );
    report.put("engine.cb_over_im", cb_s / im_s, "ratio");
    report.put("engine.cb_over_mpi_dc", cb_s / mpi_s, "ratio");
    report.put("engine.solve_tracked_s", tracked_s, "s");
    report.put("engine.solve_widest_s", widest_s, "s");
    report.put("engine.solve_reach_s", reach_s, "s");
    report.put("checkpoint.overhead_ratio", ckpt_s / cb_s, "ratio");
    report.put("checkpoint.mb_written", written, "MB");
    report.put(
        "checkpoint.write_mb_per_s",
        written / (ckpt_s - cb_s).max(1e-6),
        "MB/s",
    );
    Ok(tracked)
}

/// `hierarchy`: partition shape, point, row and k-nearest query costs on
/// the workload's road grid (a 32 × 32 grid for the dense workloads), and
/// the row query against one Dijkstra row of the same graph.
fn hierarchy(
    s: &Subject,
    ctx: &SparkContext,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    tracer.span("hierarchy.probe", || {
        let stand_in;
        let (road, csr) = if s.kind == Kind::RoadHier {
            (&s.inp.graph, &s.inp.csr)
        } else {
            let g = generators::road_grid(32, 32, s.seed);
            stand_in = (g.to_csr(), g);
            (&stand_in.1, &stand_in.0)
        };
        let n = road.order();
        report.tally.attempted += 1;
        let closure = tracer
            .span("hierarchy.solve", || {
                HierarchicalClosure::solve(ctx, road, &HierarchyConfig::default())
            })
            .map_err(|e| format!("hierarchical solve failed: {e}"))?;
        // k-nearest is a front-door query: the workload's own solution,
        // or the stand-in grid solved through the front door.
        let solved_stand_in;
        let via_front_door = if s.kind == Kind::RoadHier {
            &s.solve.last.sols[0]
        } else {
            report.tally.attempted += 1;
            solved_stand_in = Problem::new(road)
                .prefer(SolverId::SparseHierarchical)
                .cores(CORES)
                .solve(ctx)
                .map_err(|e| format!("hierarchical front-door solve failed: {e}"))?;
            &solved_stand_in
        };
        let stats = closure.stats();
        report.put("hierarchy.parts", stats.parts as f64, "count");
        report.put(
            "hierarchy.boundary_vertices",
            stats.boundary_vertices as f64,
            "count",
        );
        report.put("hierarchy.cut_edges", stats.cut_edges as f64, "count");

        let mut rng = Rng::new(s.seed ^ 0x41E2);
        let samples = if s.quick { 200 } else { 2000 };
        let point_us: Vec<f64> = (0..samples)
            .map(|_| {
                let (u, v) = (rng.below(n), rng.below(n));
                secs(|| std::hint::black_box(closure.dist(u, v))).0 * 1e6
            })
            .collect();
        report.put("hierarchy.dist_us_p50", median(&point_us), "us");
        report.put("hierarchy.dist_us_p99", percentile(&point_us, 99.0), "us");

        let sources: Vec<usize> = (0..8).map(|_| rng.below(n)).collect();
        let mut rows_ms = Vec::new();
        for &u in &sources {
            let (t, row) = secs(|| closure.row(u));
            let row = row.map_err(|e| format!("hierarchical row failed: {e}"))?;
            rows_ms.push(t * 1e3);
            let oracle = dijkstra::sssp(csr, u);
            report.tally.check(
                row.iter()
                    .zip(&oracle)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                || format!("hierarchical row {u} differs from Dijkstra"),
            );
        }
        let knearest_ms: Vec<f64> = sources
            .iter()
            .map(|&u| secs(|| std::hint::black_box(via_front_door.k_nearest(u, K_NEAREST))).0 * 1e3)
            .collect();
        let dijkstra_us = median(
            &sources
                .iter()
                .map(|&u| secs(|| std::hint::black_box(dijkstra::sssp(csr, u))).0 * 1e6)
                .collect::<Vec<_>>(),
        );
        let row_ms = median(&rows_ms);
        report.put("hierarchy.row_ms", row_ms, "ms");
        report.put("hierarchy.knearest_ms", median(&knearest_ms), "ms");
        println!(
            "# hierarchy bases on n = {n}: row {row_ms:.4} ms, Dijkstra row {dijkstra_us:.2} us"
        );
        report.put(
            "hierarchy.row_over_dijkstra",
            row_ms * 1e3 / dijkstra_us,
            "ratio",
        );
        Ok(())
    })
}

fn dir_mb(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len() as f64)
                .sum::<f64>()
        })
        .unwrap_or(f64::NAN)
        / 1e6
}

/// `store`: save, open, cold first-touch, warm path queries, the
/// in-memory ceiling, and cache behaviour with half the blocks resident —
/// all on the tracked solution `sol`.
fn store(
    s: &Subject,
    sol: &Solution,
    b: usize,
    dir: &Path,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    tracer.span("store.probe", || {
        let n = sol.order();
        let mut save_s = Vec::new();
        for _ in 0..3 {
            fresh_dir(dir)?;
            report.tally.attempted += 1;
            let (t, saved) = secs(|| tracer.span("store.save", || sol.save(dir)));
            saved.map_err(|e| format!("store probe save failed: {e}"))?;
            save_s.push(t);
        }
        let disk_mb = dir_mb(dir);
        report.put("store.save_s", median(&save_s), "s");
        report.put("store.save_mb_per_s", disk_mb / median(&save_s), "MB/s");
        report.put("store.disk_mb", disk_mb, "MB");

        // Cold: a fresh handle, then the first touch of every block.
        let (mut open_us, mut cold_us) = (Vec::new(), Vec::new());
        let opens = if s.quick { 2 } else { 8 };
        let mut warm = None;
        for _ in 0..opens {
            let (t, opened) = secs(|| tracer.span("store.open", || Solution::open(dir)));
            let opened = opened.map_err(|e| format!("store probe open failed: {e}"))?;
            open_us.push(t * 1e6);
            cold_us.extend(tracer.span("store.first_touch", || {
                first_touch(&opened, sol, b, &mut report.tally)
            }));
            warm = Some(opened);
        }
        let warm = warm.expect("at least one open ran");
        report.put("store.open_us", median(&open_us), "us");
        report.put("store.cold_us_p50", median(&cold_us), "us");
        report.put("store.cold_us_p99", percentile(&cold_us, 99.0), "us");

        let mut rng = Rng::new(s.seed ^ 0x5709);
        let samples = if s.quick { 200 } else { 2000 };
        let path_us: Vec<f64> = (0..samples)
            .map(|_| {
                let (u, v) = (rng.below(n), rng.below(n));
                let (t, got) = secs(|| warm.path(u, v));
                report.tally.check(got == sol.path(u, v), || {
                    format!("store path {u} -> {v} differs from the in-memory solution")
                });
                t * 1e6
            })
            .collect();
        report.put("store.path_us_p50", median(&path_us), "us");
        let inmem_kqps = query_phase(Kind::DenseCb, &[sol], s.seed, 0.1, &mut report.tally);
        report.put("store.inmem_mqps", quiet_rate(&inmem_kqps) / 1e3, "Mq/s");

        // Half the blocks resident: uniform random cells hit about half
        // the time, and every miss evicts.
        let half = Solution::open_with_cache_budget(dir, half_cache_budget(n, b, true))
            .map_err(|e| format!("store probe half-cache open failed: {e}"))?;
        tracer.span("store.half_cache", || {
            for _ in 0..(if s.quick { 400 } else { 4000 }) {
                let (u, v) = (rng.below(n), rng.below(n));
                report.tally.check(
                    half.dist(u, v).map(f64::to_bits) == sol.dist(u, v).map(f64::to_bits),
                    || format!("half-cached store cell ({u}, {v}) differs"),
                );
            }
        });
        let m = half.store().map(|st| st.metrics()).unwrap_or_default();
        let lookups = (m.store_cache_hits + m.store_cache_misses).max(1);
        report.put(
            "store.cache_hit_ratio",
            m.store_cache_hits as f64 / lookups as f64,
            "ratio",
        );
        report.put("store.blocks_read", m.store_blocks_read as f64, "count");
        report.put("store.evictions", m.store_cache_evictions as f64, "count");
        Ok(())
    })
}

/// `serve`: the transport floor, the answer path without a socket, the
/// warm closed loop with the whole store cached, and what the job queue
/// adds to a small solve.
fn serve(
    s: &Subject,
    sol: &Solution,
    dir: &Path,
    ctx: &SparkContext,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    tracer.span("serve.probe", || {
        let n = sol.order();
        let mut rng = Rng::new(s.seed ^ 0x5E27);
        let asks = if s.quick { 2000 } else { 20_000 };
        let (t, _) = secs(|| {
            for _ in 0..asks {
                let req = QueryRequest::Dist {
                    src: rng.below(n),
                    dst: rng.below(n),
                };
                let body = answer_query(sol, &req).map(|ans| answer_json(&req, &ans));
                std::hint::black_box(body.ok());
            }
        });
        report.put("serve.inproc_answer_us", t / asks as f64 * 1e6, "us");

        let server = start_server(Some(dir), None, s.scratch)?;
        let addr = server.addr();
        let mut sent = 0u64;
        let mut probe = || -> Result<(), String> {
            let pings = if s.quick { 20 } else { 200 };
            let mut connect_us = Vec::new();
            for _ in 0..pings {
                let (t, got) = secs(|| http::get(addr, "/health"));
                sent += 1;
                report.tally.check(matches!(got, Ok((200, _))), || {
                    format!("GET /health answered {got:?}")
                });
                connect_us.push(t * 1e6);
            }
            report.put("serve.connect_us", median(&connect_us), "us");

            let warm_s = if s.quick { 0.2 } else { 1.5 };
            let before = report.tally.attempted;
            let warm = http_phase(
                Kind::DenseCb,
                addr,
                None,
                sol,
                CORES,
                s.seed ^ 0x3A,
                warm_s,
                tracer,
                &mut report.tally,
            );
            sent += report.tally.attempted - before;
            report.put("serve.warm_qps", warm.qps, "1/s");
            report.put("serve.warm_p50_us", warm.p50_us, "us");

            // The same small solve as a job and called directly.
            let (jn, jb) = if s.quick { (128, 32) } else { (512, 64) };
            let body = format!(
                r#"{{"graph": {{"n": {jn}, "seed": {}}}, "solver": "cb", "block_size": {jb}}}"#,
                s.seed
            );
            report.tally.attempted += 2;
            let (job_s, job) = secs(|| tracer.span("serve.job", || run_job(addr, &body)));
            let id = job?;
            let g =
                generators::erdos_renyi(jn, generators::paper_edge_probability(jn, 0.1), s.seed);
            let (direct_s, direct) = secs(|| cb_problem(&g, jb).solve(ctx));
            let direct = direct.map_err(|e| format!("direct twin of the job failed: {e}"))?;
            let (u, v) = (rng.below(jn), rng.below(jn));
            let req = QueryRequest::Dist { src: u, dst: v };
            let got = http::get(addr, &format!("/dist?src={u}&dst={v}&job={id}"));
            report.tally.check(answer_matches(&got, &direct, &req), || {
                format!("job answer {got:?} differs from the direct solve's")
            });
            // POST, the status polls and the answer above are requests too.
            println!("# job bases: as a job {job_s:.4} s, called directly {direct_s:.4} s");
            report.put("serve.job_overhead_ms", (job_s - direct_s) * 1e3, "ms");
            Ok(())
        };
        let outcome = probe();
        let served = server.shutdown().requests_served;
        outcome?;
        // Counted on the server: never fewer than the probe sent (the
        // job's POST and status polls come on top).
        report.tally.check(served >= sent, || {
            format!("server counted {served} requests, the probe sent at least {sent}")
        });
        report.put("serve.requests_served", served as f64, "req");
        Ok(())
    })
}

pub fn run(
    s: &Subject,
    ctx: &SparkContext,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let reps = if s.quick { 3 } else { 7 };
    // The dense instance the dense probes run on: the workload's own, or
    // a small ER graph for `road_hier`.
    let stand_in;
    let (dense, b) = if s.kind == Kind::RoadHier {
        let n = if s.quick { 128 } else { 512 };
        stand_in = generators::erdos_renyi_paper(n, 0.1, s.seed);
        (&stand_in, n / 8)
    } else {
        (&s.inp.graph, s.shape.b)
    };
    let n = dense.order();

    tracer.span("graph.probe", || {
        let t = quiet_secs(3, || {
            std::hint::black_box(tracer.span("graph.to_dense", || dense.to_dense()));
        });
        report.put("graph.to_dense_s", t, "s");
        let rows: Vec<f64> = (0..16)
            .map(|i| {
                let src = (i * 7919) % s.inp.csr.order();
                secs(|| std::hint::black_box(dijkstra::sssp(&s.inp.csr, src))).0 * 1e6
            })
            .collect();
        report.put("graph.dijkstra_row_us", median(&rows), "us");
    });
    let minplus = blockmat(b, reps, tracer, report);
    sparklet(ctx, Shape { n, b }, reps, tracer, report)?;
    sparklet_counters(s.solve, report);
    planner(s, ctx, tracer, report)?;
    let tracked = engine(s, dense, b, ctx, minplus, tracer, report)?;
    hierarchy(s, ctx, tracer, report)?;
    let store_dir = s.scratch.join("probe-store");
    store(s, &tracked, b, &store_dir, tracer, report)?;
    serve(s, &tracked, &store_dir, ctx, tracer, report)?;
    report.put(
        "trace.overhead_ratio",
        s.solve.traced_over_untraced,
        "ratio",
    );
    Ok(())
}
