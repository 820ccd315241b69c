//! Criterion microbenchmarks behind Figure 2: the sequential kernels at
//! several block sizes, plus the kernel-engine ablation (naive vs
//! branchless vs packed min-plus).
//!
//! The `minplus_large` group compares the two engine tiers at the
//! paper-relevant block sides 256–1024. `results/BENCH_kernels.json`
//! (regenerated by `cargo run --release -p apsp-bench --bin
//! bench_kernels`) records the same comparison as a trajectory baseline.

use apsp_blockmat::kernels::{self, MinPlusKernel};
use apsp_blockmat::Block;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn dense_block(b: usize, seed: usize) -> Block {
    Block::from_fn(b, |i, j| {
        if i == j {
            0.0
        } else {
            1.0 + ((i * 31 + j * 17 + seed) % 97) as f64
        }
    })
}

fn bench_floyd_warshall(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2/floyd_warshall");
    for b in [64usize, 128, 256] {
        group.throughput(Throughput::Elements((b * b * b) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(b), &b, |bench, &b| {
            let base = dense_block(b, 1);
            bench.iter(|| {
                let mut blk = base.clone();
                kernels::floyd_warshall_in_place(&mut blk);
                blk
            });
        });
    }
    group.finish();
}

fn bench_minplus_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2/minplus");
    for b in [64usize, 128, 256] {
        let a = dense_block(b, 2);
        let x = dense_block(b, 3);
        group.throughput(Throughput::Elements((b * b * b) as u64));
        let variants = [
            ("naive", MinPlusKernel::Naive),
            ("branchless", MinPlusKernel::Branchless),
            ("packed", MinPlusKernel::Packed),
        ];
        for (name, kernel) in variants {
            group.bench_with_input(BenchmarkId::new(name, b), &b, |bench, _| {
                bench.iter(|| {
                    let mut out = Block::infinity(b);
                    kernels::min_plus_into_with(kernel, &a, &x, &mut out);
                    out
                });
            });
        }
    }
    group.finish();
}

/// Branchless vs the packed engine at the paper-relevant block sides.
/// `--test` smoke mode runs only the smallest side.
fn bench_minplus_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2/minplus_large");
    let sides: &[usize] = if criterion::is_test_mode() {
        &[256]
    } else {
        &[256, 512, 1024]
    };
    for &b in sides {
        let a = dense_block(b, 5);
        let x = dense_block(b, 6);
        group.throughput(Throughput::Elements((b * b * b) as u64));
        let variants = [
            ("branchless", MinPlusKernel::Branchless),
            ("packed", MinPlusKernel::Packed),
        ];
        for (name, kernel) in variants {
            group.bench_with_input(BenchmarkId::new(name, b), &b, |bench, _| {
                bench.iter(|| {
                    let mut out = Block::infinity(b);
                    kernels::min_plus_into_with(kernel, &a, &x, &mut out);
                    out
                });
            });
        }
    }
    group.finish();
}

fn bench_fw_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2/fw_update_outer");
    for b in [128usize, 512] {
        let base = dense_block(b, 4);
        let col_i: Vec<f64> = (0..b).map(|i| i as f64).collect();
        let col_j: Vec<f64> = (0..b).map(|j| (j * 2) as f64).collect();
        group.throughput(Throughput::Elements((b * b) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(b), &b, |bench, _| {
            bench.iter(|| {
                let mut blk = base.clone();
                kernels::fw_update_outer(&mut blk, &col_i, &col_j);
                blk
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_floyd_warshall, bench_minplus_variants, bench_fw_update
}
criterion_group! {
    name = large;
    config = Criterion::default().sample_size(3);
    targets = bench_minplus_large
}
criterion_main!(benches, large);
