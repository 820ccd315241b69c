//! `BENCH_kernels.json` emitter: point 0 of the kernel-engine perf
//! trajectory.
//!
//! Times every min-plus kernel variant (and the in-place Floyd-Warshall)
//! across block sides and records GFLOP-equivalent rates (one add + one
//! min per inner step, `2·b³` ops per product) to
//! `results/BENCH_kernels.json`, stamped with the machine it ran on, so
//! later PRs can diff kernel performance against a committed baseline
//! instead of folklore.
//!
//! Usage: `cargo run --release -p apsp-bench --bin bench_kernels
//! [--quick]`. `--quick` restricts to small sides (CI-friendly); the
//! committed baseline is produced by a full run.

use apsp_bench::{HarnessArgs, TextTable};
use apsp_blockmat::kernels::{self, MinPlusKernel};
use apsp_blockmat::{
    AlgBlock, Block, BoolSemiring, BottleneckF64, ElemBlock, Offsets, ParentBlock, PathAlgebra,
    Reachability, Widest,
};
use std::time::Instant;

/// Generic-loop twin of [`Widest`]: same semiring, no hook overrides, so
/// every operation runs the `PathAlgebra` default element-wise loops.
/// The `fallback` rows time this shim — the pre-specialization behavior —
/// rather than the specialized engines' `Naive` oracles, which share the
/// engines' data layout (and, for booleans, short-circuit the inner fold).
#[derive(Debug, Clone, Copy, Default)]
struct FallbackWidest;

impl PathAlgebra for FallbackWidest {
    type Semi = BottleneckF64;
    type Payload = ();
    const TRACKS: bool = false;
    const NAME: &'static str = "bottleneck-fallback";

    fn empty_payload() {}
    fn payload_for(_k_global: usize) {}
}

/// Generic-loop twin of [`Reachability`]; see [`FallbackWidest`].
#[derive(Debug, Clone, Copy, Default)]
struct FallbackReach;

impl PathAlgebra for FallbackReach {
    type Semi = BoolSemiring;
    type Payload = ();
    const TRACKS: bool = false;
    const NAME: &'static str = "boolean-fallback";

    fn empty_payload() {}
    fn payload_for(_k_global: usize) {}
}

/// Timed samples per (kernel, side) point; the best is recorded.
const SAMPLES: usize = 3;

#[derive(serde::Serialize)]
struct KernelPoint {
    kernel: String,
    side: usize,
    seconds: f64,
    gflops_equiv: f64,
    /// The naive oracle loop's time over this row's time at the same side.
    speedup_vs_naive: f64,
}

#[derive(serde::Serialize)]
struct FwPoint {
    side: usize,
    seconds: f64,
    gflops_equiv: f64,
}

#[derive(serde::Serialize)]
struct TrackedPoint {
    kernel: String,
    side: usize,
    seconds: f64,
    gflops_equiv: f64,
    /// Tracked time over the auto-dispatched *untracked* kernel for the
    /// same side — the price of recording argmins.
    overhead_vs_untracked: f64,
}

#[derive(serde::Serialize)]
struct AlgebraPoint {
    algebra: String,
    /// Which tier the row timed: `fallback` (the generic `PathAlgebra`
    /// default loops, via a shim algebra with no hook overrides) or the
    /// engine Auto dispatches to (the `f64` engine's tier for this side,
    /// monomorphised for (max, min) / the bitset tier).
    kernel: String,
    side: usize,
    seconds: f64,
    gops_equiv: f64,
    /// Fallback-loop time over this row's time for the same algebra and
    /// side (1.0 on the fallback rows themselves) — the payoff of the
    /// specialized tier.
    speedup_vs_fallback: f64,
    /// This row's time over the packed tropical fold at the same side —
    /// how close the algebra runs to the (min, +) flagship.
    slowdown_vs_tropical: f64,
}

/// What a `results/BENCH_*.json` file was measured on, so a baseline from
/// a one-core box cannot pass for one from a many-core box. Fields the
/// host cannot answer read `unknown`.
#[derive(serde::Serialize)]
struct MachineStamp {
    /// Cores available to this process.
    nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    cpu_model: String,
    /// `rustc -V`.
    rustc: String,
    /// `git rev-parse HEAD` of the checkout the harness ran in.
    git_sha: String,
}

impl MachineStamp {
    /// Reads the stamp from the host.
    fn collect() -> Self {
        let first_line_of = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| s.lines().next().map(str::to_string))
                .unwrap_or_else(|| "unknown".into())
        };
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        MachineStamp {
            nproc: std::thread::available_parallelism().map_or(0, |p| p.get()),
            cpu_model,
            rustc: first_line_of("rustc", &["-V"]),
            git_sha: first_line_of("git", &["rev-parse", "HEAD"]),
        }
    }
}

#[derive(serde::Serialize)]
struct Baseline {
    description: &'static str,
    ops_model: &'static str,
    samples: usize,
    machine: MachineStamp,
    minplus: Vec<KernelPoint>,
    /// The tracked (argmin-recording) row-streaming loop.
    tracked: Vec<TrackedPoint>,
    /// Non-tropical path algebras: bottleneck (max, min) and boolean
    /// (∨, ∧) fold-products, each timed on the generic fallback loop and
    /// on the engine tier Auto picks ((max, min) on the `f64` engine /
    /// bitset).
    algebra: Vec<AlgebraPoint>,
    floyd_warshall: Vec<FwPoint>,
}

fn dense_block(b: usize, seed: usize) -> Block {
    Block::from_fn(b, |i, j| {
        if i == j {
            0.0
        } else {
            1.0 + ((i * 31 + j * 17 + seed) % 97) as f64
        }
    })
}

fn best_of<F: FnMut()>(mut f: F) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let args = HarnessArgs::parse();
    let sides: &[usize] = if args.quick {
        &[64, 128, 256]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    // Naive first: the oracle loop is the baseline every speedup is
    // computed against.
    let variants: [(MinPlusKernel, &str); 3] = [
        (MinPlusKernel::Naive, "naive"),
        (MinPlusKernel::Branchless, "branchless"),
        (MinPlusKernel::Packed, "packed"),
    ];

    let mut minplus = Vec::new();
    let mut table = TextTable::new(&["side", "kernel", "time", "GFLOP-eq/s", "vs naive"]);
    for &b in sides {
        let a = dense_block(b, 2);
        let x = dense_block(b, 3);
        let mut c = Block::infinity(b);
        let ops = 2.0 * (b as f64).powi(3);
        let mut naive_secs = f64::NAN;
        for (kernel, name) in variants {
            let secs = best_of(|| {
                c.data_mut().fill(apsp_blockmat::INF);
                kernels::min_plus_into_with(kernel, &a, &x, &mut c);
            });
            if kernel == MinPlusKernel::Naive {
                naive_secs = secs;
            }
            let speedup = naive_secs / secs;
            minplus.push(KernelPoint {
                kernel: name.into(),
                side: b,
                seconds: secs,
                gflops_equiv: ops / secs / 1e9,
                speedup_vs_naive: speedup,
            });
            table.row(vec![
                b.to_string(),
                name.into(),
                format!("{:.3}ms", secs * 1e3),
                format!("{:.2}", ops / secs / 1e9),
                format!("{speedup:.2}×"),
            ]);
        }
    }

    // Tracked (argmin-recording) tier: time the tracked row-streaming loop
    // against the untracked auto-dispatch.
    let mut tracked = Vec::new();
    let mut ttable = TextTable::new(&["side", "kernel", "time", "GFLOP-eq/s", "overhead"]);
    for &b in sides {
        let a = dense_block(b, 2);
        let x = dense_block(b, 3);
        let mut c = Block::infinity(b);
        let ops = 2.0 * (b as f64).powi(3);
        // Disjoint global ranges: no degenerate-term guard fires, so this
        // times the pure tracking overhead of the inner loops.
        let offsets = Offsets {
            k: 4 * b,
            row: 0,
            col: 9 * b,
        };
        let untracked_secs = best_of(|| {
            c.data_mut().fill(apsp_blockmat::INF);
            kernels::min_plus_into_with(MinPlusKernel::Auto, &a, &x, &mut c);
        });
        let mut via = ParentBlock::none(b);
        let secs = best_of(|| {
            c.data_mut().fill(apsp_blockmat::INF);
            via.data_mut().fill(apsp_blockmat::NO_VIA);
            kernels::min_plus_into_tracked(&a, &x, &mut c, &mut via, offsets);
        });
        let overhead = secs / untracked_secs;
        tracked.push(TrackedPoint {
            kernel: "tracked-rows".into(),
            side: b,
            seconds: secs,
            gflops_equiv: ops / secs / 1e9,
            overhead_vs_untracked: overhead,
        });
        ttable.row(vec![
            b.to_string(),
            "tracked-rows".into(),
            format!("{:.3}ms", secs * 1e3),
            format!("{:.2}", ops / secs / 1e9),
            format!("{overhead:.2}×"),
        ]);
    }

    // Non-tropical path algebras: each fold-product timed twice — on the
    // generic fallback loops (via the no-override shim algebras above)
    // and on the tier Auto dispatches to (the `f64` engine monomorphised
    // for (max, min) / the bitset engine). The pair quantifies the
    // engine's payoff and how close each algebra runs to the tropical
    // flagship.
    let mut algebra = Vec::new();
    let mut atable = TextTable::new(&[
        "side",
        "algebra",
        "kernel",
        "time",
        "GOP-eq/s",
        "vs fallback",
        "vs tropical",
    ]);
    let o0 = Offsets {
        k: 0,
        row: 0,
        col: 0,
    };
    for &b in sides {
        let ops = 2.0 * (b as f64).powi(3);
        let a = dense_block(b, 2);
        let x = dense_block(b, 3);
        let mut c = Block::infinity(b);
        let tropical_secs = best_of(|| {
            c.data_mut().fill(apsp_blockmat::INF);
            kernels::min_plus_into_with(MinPlusKernel::Auto, &a, &x, &mut c);
        });

        let cap = |seed: usize| {
            ElemBlock::<BottleneckF64>::from_fn(b, |i, j| {
                if i == j {
                    f64::INFINITY
                } else {
                    1.0 + ((i * 31 + j * 17 + seed) % 97) as f64
                }
            })
        };
        let (wa, wx) = (cap(2), cap(3));
        // The shim has no overrides, so the kernel argument is inert: any
        // value runs the same generic element-wise loop.
        let mut wf = AlgBlock::<FallbackWidest>::from_dist(ElemBlock::zeros(b));
        let widest_fallback_secs = best_of(|| {
            wf.dist_mut().data_mut().fill(0.0);
            wf.min_plus_into_self(MinPlusKernel::Auto, &wa, &wx, o0);
        });
        let mut wc = AlgBlock::<Widest>::from_dist(ElemBlock::zeros(b));
        let widest_secs = best_of(|| {
            wc.dist_mut().data_mut().fill(0.0);
            wc.min_plus_into_self(MinPlusKernel::Auto, &wa, &wx, o0);
        });
        let maxmin_tier = format!("{:?}", kernels::select(b)).to_lowercase();

        // Fully dense operands, like the capacity blocks above: the
        // generic loop's `0̄`-skip elides whole inner rows on sparse
        // inputs, which would flatter the measured rate — these rows
        // must charge 2·b³ op-equivalents to 2·b³ executed ops.
        let bools = |_seed: usize| ElemBlock::<BoolSemiring>::filled(b, true);
        let (ba, bx) = (bools(2), bools(3));
        let mut bf = AlgBlock::<FallbackReach>::from_dist(ElemBlock::zeros(b));
        let bool_fallback_secs = best_of(|| {
            bf.dist_mut().data_mut().fill(false);
            bf.min_plus_into_self(MinPlusKernel::Auto, &ba, &bx, o0);
        });
        let mut bc = AlgBlock::<Reachability>::from_dist(ElemBlock::zeros(b));
        let bool_secs = best_of(|| {
            bc.dist_mut().data_mut().fill(false);
            bc.min_plus_into_self(MinPlusKernel::Auto, &ba, &bx, o0);
        });

        for (name, kernel, secs, fallback_secs) in [
            (
                "bottleneck",
                "fallback",
                widest_fallback_secs,
                widest_fallback_secs,
            ),
            (
                "bottleneck",
                maxmin_tier.as_str(),
                widest_secs,
                widest_fallback_secs,
            ),
            (
                "boolean",
                "fallback",
                bool_fallback_secs,
                bool_fallback_secs,
            ),
            ("boolean", "bitset", bool_secs, bool_fallback_secs),
        ] {
            algebra.push(AlgebraPoint {
                algebra: name.into(),
                kernel: kernel.into(),
                side: b,
                seconds: secs,
                gops_equiv: ops / secs / 1e9,
                speedup_vs_fallback: fallback_secs / secs,
                slowdown_vs_tropical: secs / tropical_secs,
            });
            atable.row(vec![
                b.to_string(),
                name.into(),
                kernel.into(),
                format!("{:.3}ms", secs * 1e3),
                format!("{:.2}", ops / secs / 1e9),
                format!("{:.2}×", fallback_secs / secs),
                format!("{:.2}×", secs / tropical_secs),
            ]);
        }
    }

    let mut floyd_warshall = Vec::new();
    for &b in sides {
        let base = dense_block(b, 1);
        let mut blk = base.clone();
        let ops = 2.0 * (b as f64).powi(3);
        let secs = best_of(|| {
            blk.data_mut().copy_from_slice(base.data());
            kernels::floyd_warshall_in_place(&mut blk);
        });
        floyd_warshall.push(FwPoint {
            side: b,
            seconds: secs,
            gflops_equiv: ops / secs / 1e9,
        });
    }

    println!("min-plus kernel engine rates (fold c = min(c, a ⊗ b)):\n");
    print!("{}", table.render());
    println!("\ntracked (argmin-recording) kernels, overhead vs untracked auto-dispatch:\n");
    print!("{}", ttable.render());
    println!("\npath-algebra tiers, fallback loop vs specialized kernel (fold c = c ⊕ (a ⊗ b)):\n");
    print!("{}", atable.render());
    println!("\nFloyd-Warshall in place:");
    for p in &floyd_warshall {
        println!(
            "  b={:<5} {:>10.3}ms  {:.2} GFLOP-eq/s",
            p.side,
            p.seconds * 1e3,
            p.gflops_equiv
        );
    }

    let baseline = Baseline {
        description: "Kernel-engine perf trajectory: min-plus product and in-place \
                      Floyd-Warshall rates per kernel tier, the tracked \
                      (argmin-recording) loop's overhead, and the non-tropical \
                      algebras (bottleneck/boolean) on their fallback loops vs \
                      the f64 engine's (max, min) instance and the bitset tier",
        ops_model: "2*b^3 flop-equivalents per product (one add + one min per inner step)",
        samples: SAMPLES,
        machine: MachineStamp::collect(),
        minplus,
        tracked,
        algebra,
        floyd_warshall,
    };
    match apsp_bench::write_json("BENCH_kernels", &baseline) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_kernels.json: {e}"),
    }
}
