//! Sequential kernel rates: the compute side of every projection.

use apsp_blockmat::{kernels, Block};
use std::time::Instant;

/// Seconds-per-operation of the three sequential kernels the solvers
/// dispatch to "bare metal" (the paper offloads these to SciPy/MKL and
/// Numba; we offload to the `apsp-blockmat` kernels).
///
/// Operation counts: in-block Floyd-Warshall and min-plus product are
/// `b³`; the rank-1 `FloydWarshallUpdate` is `b²` per block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRates {
    /// In-block Floyd-Warshall, seconds per (i,j,k) relaxation.
    pub fw_sec_per_op: f64,
    /// Min-plus product, seconds per multiply-min.
    pub minplus_sec_per_op: f64,
    /// Rank-1 update, seconds per element update.
    pub update_sec_per_op: f64,
}

impl KernelRates {
    /// Rates anchored to the paper's published measurements:
    /// `T1(n=256) = 0.022 s` → `0.022 / 256³ ≈ 1.31 ns/op` (§5.4, and
    /// consistent with Fig. 2's ~1400 s at `b = 10000`).
    pub fn paper() -> Self {
        KernelRates {
            fw_sec_per_op: 0.022 / (256.0f64).powi(3),
            minplus_sec_per_op: 1.2e-9,
            update_sec_per_op: 1.5e-9,
        }
    }

    /// Measures the kernels on the host at block side `b` (single
    /// repetition; pass a cache-resident `b` like 256–512 for the rate the
    /// solvers see on small blocks, or larger for the post-knee regime).
    pub fn measure(b: usize) -> Self {
        let mk = |seed: u64| {
            Block::from_fn(b, |i, j| {
                if i == j {
                    0.0
                } else {
                    // Deterministic pseudo-weights; fully dense so the
                    // kernels cannot take the INF shortcut.
                    1.0 + ((i * 31 + j * 17 + seed as usize) % 97) as f64
                }
            })
        };
        let ops = (b as f64).powi(3);

        let mut fw = mk(1);
        let t0 = Instant::now();
        kernels::floyd_warshall_in_place(&mut fw);
        let fw_rate = t0.elapsed().as_secs_f64() / ops;

        let a = mk(2);
        let x = mk(3);
        let mut c = Block::infinity(b);
        let t1 = Instant::now();
        kernels::min_plus_into(&a, &x, &mut c);
        let mp_rate = t1.elapsed().as_secs_f64() / ops;

        let mut u = mk(4);
        let col_i: Vec<f64> = (0..b).map(|i| i as f64).collect();
        let col_j: Vec<f64> = (0..b).map(|j| (j * 2) as f64).collect();
        let t2 = Instant::now();
        // Repeat the b² kernel b times so timer resolution is adequate and
        // the rate is comparable (total ops = b³).
        for _ in 0..b {
            kernels::fw_update_outer(&mut u, &col_i, &col_j);
        }
        let up_rate = t2.elapsed().as_secs_f64() / ops;

        KernelRates {
            fw_sec_per_op: fw_rate,
            minplus_sec_per_op: mp_rate,
            update_sec_per_op: up_rate,
        }
    }

    /// Time to Floyd-Warshall one `b × b` block sequentially.
    pub fn fw_block_s(&self, b: usize) -> f64 {
        self.fw_sec_per_op * (b as f64).powi(3)
    }

    /// Time for one `b × b` min-plus block product.
    pub fn minplus_block_s(&self, b: usize) -> f64 {
        self.minplus_sec_per_op * (b as f64).powi(3)
    }

    /// Time for one rank-1 update of a `b × b` block.
    pub fn update_block_s(&self, b: usize) -> f64 {
        self.update_sec_per_op * (b as f64).powi(2)
    }

    /// The paper's sequential baseline `T1` for problem size `n` (used to
    /// normalize Gops/core in Fig. 5).
    pub fn t1_s(&self, n: usize) -> f64 {
        self.fw_sec_per_op * (n as f64).powi(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rates_match_published_t1() {
        let r = KernelRates::paper();
        assert!((r.t1_s(256) - 0.022).abs() < 1e-12);
        // 0.762 Gops at n=256 (paper §5.4).
        let gops = (256.0f64).powi(3) / r.t1_s(256) / 1e9;
        assert!((gops - 0.762).abs() < 0.01, "gops = {gops}");
    }

    #[test]
    fn measured_rates_are_sane() {
        let r = KernelRates::measure(128);
        for (name, v) in [
            ("fw", r.fw_sec_per_op),
            ("minplus", r.minplus_sec_per_op),
            ("update", r.update_sec_per_op),
        ] {
            assert!(v > 1e-12, "{name} rate too small: {v}");
            assert!(v < 1e-6, "{name} rate implausibly large: {v}");
        }
    }

    #[test]
    fn block_times_scale_cubically() {
        let r = KernelRates::paper();
        assert!((r.fw_block_s(512) / r.fw_block_s(256) - 8.0).abs() < 1e-9);
        assert!((r.minplus_block_s(1024) / r.minplus_block_s(256) - 64.0).abs() < 1e-9);
        assert!((r.update_block_s(512) / r.update_block_s(256) - 4.0).abs() < 1e-9);
    }
}
