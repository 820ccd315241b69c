//! Peak live heap of a whole engine solve stays within a few dense
//! matrices, whatever the number of rounds: each round barrier cuts the
//! RDD lineage (`Rdd::local_checkpoint`), so a generation's shuffle outputs
//! and caches are freed once the next generation is materialized instead
//! of accumulating until the solve returns.
//!
//! This binary installs a counting global allocator and holds a single
//! test, so no concurrently running test pollutes the peak.

use apspark::graph::generators;
use apspark::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result; the counters touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live bytes above the level at entry while `f` runs.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

#[test]
fn engine_solves_peak_within_a_few_dense_matrices() {
    const N: usize = 512;
    const B: usize = 32;
    const CORES: usize = 2;
    let q = N.div_ceil(B) as u64;
    let parts = 2 * CORES as u64;
    let dense = N * N * 8;
    // One round's working set — the result, two generations of the
    // triangle, the round's copies and shuffle output — measures 2.6-4.0
    // dense planes here. Keeping every round's shuffle output alive until
    // the solve returns measured 7.9 (rs), 11.7 (cb) and 35.9 (im).
    let bound = 6 * dense;

    let g = generators::erdos_renyi_paper(N, 0.1, 0x3E3);
    let adj = g.to_dense();
    let oracle = apspark::graph::floyd_warshall(&g);
    let cfg = SolverConfig::new(B).without_validation();
    let solvers: [(&str, &dyn ApspSolver); 3] = [
        ("cb", &BlockedCollectBroadcast),
        ("im", &BlockedInMemory),
        ("rs", &RepeatedSquaring),
    ];
    for (name, solver) in solvers {
        let ctx = SparkContext::new(SparkConfig::with_cores(CORES));
        let (res, peak) = peak_during(|| solver.solve(&ctx, &adj, &cfg));
        let res = res.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            res.distances().approx_eq(&oracle, 1e-9).is_ok(),
            "{name}: distances diverge from Floyd-Warshall"
        );
        eprintln!(
            "{name}: peak {:.2} MiB = {:.2} x n^2*8",
            peak as f64 / (1 << 20) as f64,
            peak as f64 / dense as f64
        );
        assert!(
            peak <= bound,
            "{name}: peak live heap {peak} B exceeds {bound} B (6 x n^2*8)"
        );
        if name == "im" {
            // Truncation adds no job, stage, task, shuffle or record: per
            // round two copy shuffles of 2P map tasks, one repartition of
            // 3P and the materializing count of P; then one collect.
            let m = &res.metrics;
            assert_eq!(m.jobs, q + 1, "im jobs");
            assert_eq!(m.stages, 4 * q + 1, "im stages");
            assert_eq!(m.tasks, 8 * parts * q + parts, "im tasks");
            assert_eq!(m.shuffles, 3 * q, "im shuffles");
            assert_eq!(m.collected_records, q * (q + 1) / 2, "im collected records");
            assert_eq!(m.task_retries, 0, "im retries");
        }
    }
}
