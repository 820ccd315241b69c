//! Order statistics shared by the run loop, the suite and `compare`.

/// A sorted copy of `v` (total order: the benchmark never records NaN).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median; the mean of the two middle values for an even count. NaN when
/// `v` is empty, so a phase that recorded nothing cannot pass for a number.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in `(0, 100]`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(v, n=4)` computes them (the "exclusive" method),
/// because that is the rule the benchmark's acceptance spread is stated in.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    let len = s.len();
    if len < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// every bound in `BENCHMARK.json` is compared against.
pub fn spread(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    (q3 - q1) / q2.abs()
}

/// The quiet quartile of a phase's windows — solves, query chunks, runs of
/// a thousand HTTP answers. Whatever else the host runs only ever slows a
/// window, so the fast side of the distribution is the one that repeats
/// from run to run; its quartile rather than its extreme, because a solve
/// can also be lucky (the allocator hands back warm pages).
pub fn quiet_time(windows: &[f64]) -> f64 {
    quartiles(windows)[0]
}

/// [`quiet_time`] for rates: the upper quartile.
pub fn quiet_rate(windows: &[f64]) -> f64 {
    quartiles(windows)[2]
}

/// Small deterministic generator (splitmix64): inputs and query streams
/// derive from `--seed` alone.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is far below what any metric
    /// here can resolve).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rng_repeats_for_a_seed_and_differs_across_seeds() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(8).next_u64(), a[0]);
        assert!(Rng::new(1).below(10) < 10);
    }
}
