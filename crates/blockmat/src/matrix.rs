//! Whole-graph dense distance matrix: reference representation used by the
//! sequential solvers and by block (dis)assembly.

use crate::{Block, INF};
use std::fmt;

/// A dense, row-major `n × n` matrix of `f64` path lengths.
///
/// This is the undistributed counterpart of the solvers' blocked RDDs: the
/// oracle all distributed results are compared against, and the staging
/// format for decomposing an adjacency matrix into [`Block`]s.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n × n` matrix filled with `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Matrix {
            n,
            data: vec![value; n * n],
        }
    }

    /// Creates the tropical identity matrix (`0` diagonal, [`INF`] elsewhere).
    pub fn identity(n: usize) -> Self {
        let mut m = Self::filled(n, INF);
        for i in 0..n {
            m.data[i * n + i] = 0.0;
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                data.push(f(i, j));
            }
        }
        Matrix { n, data }
    }

    /// Wraps a row-major buffer of length `n * n`.
    ///
    /// # Panics
    /// Panics if `data.len() != n * n`.
    pub fn from_vec(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "buffer length must be n^2");
        Matrix { n, data }
    }

    /// Matrix order `n`.
    #[inline(always)]
    pub fn order(&self) -> usize {
        self.n
    }

    /// Raw row-major data.
    #[inline(always)]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Entry accessor.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n);
        self.data[i * self.n + j]
    }

    /// Entry mutator.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.n && j < self.n);
        self.data[i * self.n + j] = v;
    }

    /// Immutable view of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Whether the matrix is symmetric.
    pub fn is_symmetric(&self) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.get(i, j) != self.get(j, i) {
                    return false;
                }
            }
        }
        true
    }

    /// Sequential textbook Floyd-Warshall, in place. This is the paper's
    /// `T1` reference ("efficient sequential Floyd-Warshall as implemented
    /// in SciPy", §5.4).
    pub fn floyd_warshall_in_place(&mut self) {
        crate::kernels::fw_in_place_slices::<crate::TropicalF64>(&mut self.data, self.n);
    }

    /// Decomposes into `q × q` blocks of side `b` (`q = ⌈n/b⌉`), zero-padding
    /// the tail: padded vertices are isolated (diagonal `0`, rest [`INF`]) so
    /// they never perturb finite distances.
    ///
    /// Returns blocks in row-major block order: element `I * q + J` is block
    /// `(I, J)`.
    pub fn to_blocks(&self, b: usize) -> Vec<Block> {
        assert!(b > 0, "block side must be positive");
        let n = self.n;
        let q = n.div_ceil(b);
        let mut out = Vec::with_capacity(q * q);
        for bi in 0..q {
            for bj in 0..q {
                let blk = Block::from_fn(b, |i, j| {
                    let (gi, gj) = (bi * b + i, bj * b + j);
                    if gi < n && gj < n {
                        self.get(gi, gj)
                    } else if gi == gj {
                        0.0
                    } else {
                        INF
                    }
                });
                out.push(blk);
            }
        }
        out
    }

    /// Reassembles a matrix from `q × q` blocks produced by
    /// [`Matrix::to_blocks`] (or by a solver), trimming padding.
    ///
    /// `blocks` yields `((I, J), Block)` pairs in any order; missing blocks
    /// are treated as all-[`INF`].
    pub fn from_blocks(
        n: usize,
        b: usize,
        blocks: impl IntoIterator<Item = ((usize, usize), Block)>,
    ) -> Self {
        let mut m = Matrix::filled(n, INF);
        for ((bi, bj), blk) in blocks {
            assert_eq!(blk.side(), b, "block side mismatch");
            for i in 0..b {
                let gi = bi * b + i;
                if gi >= n {
                    break;
                }
                for j in 0..b {
                    let gj = bj * b + j;
                    if gj >= n {
                        break;
                    }
                    m.set(gi, gj, blk.get(i, j));
                }
            }
        }
        m
    }

    /// Approximate equality modulo floating-point rounding; `INF` entries
    /// must match exactly. Returns the first differing index on failure.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> Result<(), (usize, usize, f64, f64)> {
        assert_eq!(self.n, other.n, "matrix orders must match");
        for i in 0..self.n {
            for j in 0..self.n {
                let (a, b) = (self.get(i, j), other.get(i, j));
                if !approx_eq_scalar(a, b, tol) {
                    return Err((i, j, a, b));
                }
            }
        }
        Ok(())
    }

    /// Number of finite (reachable) entries.
    pub fn count_finite(&self) -> usize {
        self.data.iter().filter(|v| v.is_finite()).count()
    }
}

/// Scalar approximate equality used across the crate: `INF == INF`, finite
/// values within absolute-or-relative tolerance `tol`.
pub(crate) fn approx_eq_scalar(a: f64, b: f64, tol: f64) -> bool {
    if a.is_infinite() || b.is_infinite() {
        a == b
    } else {
        let diff = (a - b).abs();
        diff <= tol || diff <= tol * a.abs().max(b.abs())
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix(n={})", self.n)?;
        let shown = self.n.min(8);
        for i in 0..shown {
            let row: Vec<String> = (0..shown)
                .map(|j| {
                    let v = self.get(i, j);
                    if v.is_infinite() {
                        "  inf".into()
                    } else {
                        format!("{v:5.1}")
                    }
                })
                .collect();
            writeln!(
                f,
                "  [{}{}]",
                row.join(", "),
                if self.n > shown { ", …" } else { "" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring5() -> Matrix {
        // 5-cycle, unit weights.
        let mut m = Matrix::identity(5);
        for i in 0..5 {
            let j = (i + 1) % 5;
            m.set(i, j, 1.0);
            m.set(j, i, 1.0);
        }
        m
    }

    #[test]
    fn fw_on_ring() {
        let mut m = ring5();
        m.floyd_warshall_in_place();
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(0, 3), 2.0); // around the other side
        assert_eq!(m.get(1, 4), 2.0);
        assert!(m.is_symmetric());
    }

    #[test]
    fn fw_disconnected_stays_infinite() {
        let mut m = Matrix::identity(4);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(2, 3, 1.0);
        m.set(3, 2, 1.0);
        m.floyd_warshall_in_place();
        assert_eq!(m.get(0, 2), INF);
        assert_eq!(m.get(1, 3), INF);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(2, 3), 1.0);
    }

    #[test]
    fn block_roundtrip_exact_division() {
        let m = Matrix::from_fn(8, |i, j| if i == j { 0.0 } else { (i * 8 + j) as f64 });
        let blocks = m.to_blocks(4);
        assert_eq!(blocks.len(), 4);
        let back = Matrix::from_blocks(
            8,
            4,
            blocks
                .into_iter()
                .enumerate()
                .map(|(idx, blk)| ((idx / 2, idx % 2), blk)),
        );
        assert_eq!(back, m);
    }

    #[test]
    fn block_roundtrip_with_padding() {
        let m = Matrix::from_fn(7, |i, j| if i == j { 0.0 } else { (i + 10 * j) as f64 });
        let b = 3;
        let q = 3;
        let blocks = m.to_blocks(b);
        assert_eq!(blocks.len(), q * q);
        // Padded vertices are isolated.
        let last = &blocks[q * q - 1];
        assert_eq!(last.get(2, 2), 0.0);
        assert_eq!(last.get(2, 1), INF);
        let back = Matrix::from_blocks(
            7,
            b,
            blocks
                .into_iter()
                .enumerate()
                .map(|(idx, blk)| ((idx / q, idx % q), blk)),
        );
        assert_eq!(back, m);
    }

    #[test]
    fn padding_does_not_disturb_fw() {
        // Solve FW on the padded blocked form (via dense reassembly) and
        // compare against FW on the original matrix.
        let mut g = Matrix::identity(5);
        for (i, j, w) in [(0usize, 1usize, 2.0), (1, 2, 2.0), (2, 3, 2.0), (3, 4, 2.0)] {
            g.set(i, j, w);
            g.set(j, i, w);
        }
        let blocks = g.to_blocks(3);
        let padded = Matrix::from_blocks(
            6,
            3,
            blocks
                .into_iter()
                .enumerate()
                .map(|(idx, blk)| ((idx / 2, idx % 2), blk)),
        );
        let mut padded_fw = padded.clone();
        padded_fw.floyd_warshall_in_place();
        let mut direct = g.clone();
        direct.floyd_warshall_in_place();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(padded_fw.get(i, j), direct.get(i, j));
            }
        }
        // Padded vertex remains isolated.
        assert_eq!(padded_fw.get(5, 0), INF);
        assert_eq!(padded_fw.get(5, 5), 0.0);
    }

    #[test]
    fn approx_eq_reports_divergence() {
        let a = Matrix::identity(3);
        let mut b = a.clone();
        b.set(1, 2, 5.0);
        match a.approx_eq(&b, 1e-9) {
            Err((1, 2, x, y)) => {
                assert_eq!(x, INF);
                assert_eq!(y, 5.0);
            }
            other => panic!("expected mismatch at (1,2), got {other:?}"),
        }
    }

    #[test]
    fn approx_eq_scalar_semantics() {
        assert!(approx_eq_scalar(INF, INF, 1e-9));
        assert!(!approx_eq_scalar(INF, 1.0, 1e9));
        assert!(approx_eq_scalar(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq_scalar(1.0, 1.1, 1e-9));
    }
}
