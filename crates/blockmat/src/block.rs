//! The square dense block type used throughout the APSP solvers, generic
//! over the element [`Semiring`].
//!
//! [`ElemBlock<S>`] is plain storage plus generic (semiring-loop) compute;
//! the hot-path `f64` tropical kernels live in an inherent impl on the
//! [`Block`] alias (`ElemBlock<TropicalF64>`), so the type the solvers
//! shuffle is *literally* the `TropicalF64` instantiation of the generic
//! block — same memory layout, same API, zero-cost.

use crate::semiring::{Semiring, TropicalF64};
use crate::{kernels, INF};
use std::fmt;
use std::marker::PhantomData;

/// A square, dense, row-major `b × b` matrix block over a [`Semiring`].
///
/// `Block` (= `ElemBlock<TropicalF64>`) is the unit of distribution in all
/// solvers: the adjacency matrix `A` of an `n`-vertex graph is
/// 2D-decomposed into `q × q` blocks of side `b` (`q = ⌈n/b⌉`), each
/// stored as one dense block keyed by `(I, J)`.
///
/// Entries are path-value upper bounds in the semiring order; the additive
/// identity `0̄` ([`INF`] for tropical, `false` for boolean, `0.0` for
/// bottleneck capacities) denotes "no path known". The in-place kernels
/// tighten entries monotonically under `⊕`, which is the invariant all
/// property tests lean on.
pub struct ElemBlock<S: Semiring> {
    b: usize,
    data: Box<[S::Elem]>,
    _algebra: PhantomData<S>,
}

/// The tropical `f64` block — the type the paper's solvers run on. All
/// fast-path kernels (packed/branchless min-plus, in-block
/// Floyd-Warshall, the rank-1 update) are inherent methods of this alias.
pub type Block = ElemBlock<TropicalF64>;

impl<S: Semiring> Clone for ElemBlock<S> {
    fn clone(&self) -> Self {
        ElemBlock {
            b: self.b,
            data: self.data.clone(),
            _algebra: PhantomData,
        }
    }
}

impl<S: Semiring> PartialEq for ElemBlock<S> {
    fn eq(&self, other: &Self) -> bool {
        self.b == other.b && self.data == other.data
    }
}

impl<S: Semiring> ElemBlock<S> {
    /// Creates a block filled with a constant value.
    pub fn filled(b: usize, value: S::Elem) -> Self {
        ElemBlock {
            b,
            data: vec![value; b * b].into_boxed_slice(),
            _algebra: PhantomData,
        }
    }

    /// Creates a block of all-`0̄` entries (the semiring zero matrix):
    /// all-[`INF`] for tropical, all-`false` for boolean.
    pub fn zeros(b: usize) -> Self {
        Self::filled(b, S::zero())
    }

    /// Creates the semiring identity: `1̄` on the diagonal, `0̄` elsewhere
    /// (`0`/[`INF`] for tropical).
    pub fn identity(b: usize) -> Self {
        let mut blk = Self::zeros(b);
        for i in 0..b {
            blk.data[i * b + i] = S::one();
        }
        blk
    }

    /// Builds a block from a function of `(row, col)`.
    pub fn from_fn(b: usize, mut f: impl FnMut(usize, usize) -> S::Elem) -> Self {
        let mut data = Vec::with_capacity(b * b);
        for i in 0..b {
            for j in 0..b {
                data.push(f(i, j));
            }
        }
        ElemBlock {
            b,
            data: data.into_boxed_slice(),
            _algebra: PhantomData,
        }
    }

    /// Wraps an existing row-major buffer of length `b * b`.
    ///
    /// # Panics
    /// Panics if `data.len() != b * b`.
    pub fn from_vec(b: usize, data: Vec<S::Elem>) -> Self {
        assert_eq!(data.len(), b * b, "buffer length must be b^2");
        ElemBlock {
            b,
            data: data.into_boxed_slice(),
            _algebra: PhantomData,
        }
    }

    /// Side length `b` of the block.
    #[inline(always)]
    pub fn side(&self) -> usize {
        self.b
    }

    /// Immutable view of the raw row-major buffer.
    #[inline(always)]
    pub fn data(&self) -> &[S::Elem] {
        &self.data
    }

    /// Mutable view of the raw row-major buffer.
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [S::Elem] {
        &mut self.data
    }

    /// Entry accessor.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> S::Elem {
        debug_assert!(i < self.b && j < self.b);
        self.data[i * self.b + j]
    }

    /// Entry mutator.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: S::Elem) {
        debug_assert!(i < self.b && j < self.b);
        self.data[i * self.b + j] = v;
    }

    /// Immutable view of row `i`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[S::Elem] {
        &self.data[i * self.b..(i + 1) * self.b]
    }

    /// Extracts column `k` as an owned vector (the paper's `ExtractCol`).
    pub fn extract_col(&self, k: usize) -> Vec<S::Elem> {
        assert!(k < self.b, "column index out of range");
        (0..self.b).map(|i| self.data[i * self.b + k]).collect()
    }

    /// Extracts row `k` as an owned vector.
    pub fn extract_row(&self, k: usize) -> Vec<S::Elem> {
        assert!(k < self.b, "row index out of range");
        self.row(k).to_vec()
    }

    /// Returns the transposed block. Used to materialize `A_JI` on demand
    /// from the stored upper-triangular block `A_IJ` (paper §4).
    pub fn transpose(&self) -> Self {
        let b = self.b;
        let mut out = vec![S::zero(); b * b];
        // Simple cache-blocked transpose.
        const T: usize = 32;
        for ii in (0..b).step_by(T) {
            for jj in (0..b).step_by(T) {
                for i in ii..(ii + T).min(b) {
                    for j in jj..(jj + T).min(b) {
                        out[j * b + i] = self.data[i * b + j];
                    }
                }
            }
        }
        ElemBlock {
            b,
            data: out.into_boxed_slice(),
            _algebra: PhantomData,
        }
    }

    /// Whether the block is symmetric (only meaningful for diagonal blocks).
    pub fn is_symmetric(&self) -> bool {
        let b = self.b;
        for i in 0..b {
            for j in (i + 1)..b {
                if self.data[i * b + j] != self.data[j * b + i] {
                    return false;
                }
            }
        }
        true
    }

    /// Semiring matrix product `self ⊗ other` — the generic (fallback)
    /// triple loop with a `0̄`-skip. The executable specification the `f64`
    /// fast-path kernels are validated against, and the compute path for
    /// algebras without a specialized kernel tier.
    pub fn mat_mul(&self, other: &Self) -> Self {
        assert_eq!(self.b, other.b, "block sides must match");
        let n = self.b;
        let mut out = Self::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let aik = self.data[i * n + k];
                if aik == S::zero() {
                    continue;
                }
                for j in 0..n {
                    let v = S::mul(aik, other.data[k * n + j]);
                    out.data[i * n + j] = S::add(out.data[i * n + j], v);
                }
            }
        }
        out
    }

    /// Element-wise `⊕` fold: `self = self ⊕ other` (the paper's `MatMin`
    /// generalized).
    pub fn mat_add_assign(&mut self, other: &Self) {
        assert_eq!(self.b, other.b, "block sides must match");
        for (d, &o) in self.data.iter_mut().zip(other.data.iter()) {
            *d = S::add(*d, o);
        }
    }

    /// Kleene/Floyd-Warshall closure within the block:
    /// `d[i][j] ← d[i][j] ⊕ (d[i][k] ⊗ d[k][j])` for every pivot `k` —
    /// the generic loop ([`Block::floyd_warshall_in_place`] is the `f64`
    /// fast path).
    pub fn closure_in_place(&mut self) {
        let n = self.b;
        for k in 0..n {
            for i in 0..n {
                let dik = self.data[i * n + k];
                if dik == S::zero() {
                    continue;
                }
                for j in 0..n {
                    let v = S::mul(dik, self.data[k * n + j]);
                    self.data[i * n + j] = S::add(self.data[i * n + j], v);
                }
            }
        }
    }

    /// In-memory footprint of the block payload in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<S::Elem>()
    }
}

/// The `f64` tropical fast path: every method below dispatches into the
/// packed/branchless kernel engine in [`crate::kernels`].
impl Block {
    /// Creates a block of all-[`INF`] entries (the tropical zero matrix).
    pub fn infinity(b: usize) -> Self {
        Self::filled(b, INF)
    }

    /// Min-plus product `self ⊗ other` (the paper's `MatProd`).
    ///
    /// Returns a fresh block; does *not* fold the result into `self`
    /// (combine with [`Block::mat_min_assign`] for the `MinPlus` building
    /// block).
    pub fn min_plus(&self, other: &Block) -> Block {
        self.min_plus_with(kernels::MinPlusKernel::Auto, other)
    }

    /// [`Block::min_plus`] with an explicit kernel choice.
    pub fn min_plus_with(&self, kernel: kernels::MinPlusKernel, other: &Block) -> Block {
        assert_eq!(self.b, other.b, "block sides must match");
        let mut out = Block::infinity(self.b);
        kernels::min_plus_into_with(kernel, self, other, &mut out);
        out
    }

    /// Zero-alloc fold: `self = min(self, a ⊗ b)`.
    ///
    /// The workhorse of the solvers' Phase-3 updates
    /// (`A_XY = min(A_XY, A_Xi ⊗ A_iY)`): no product block is allocated —
    /// the kernel folds straight into `self`.
    pub fn min_plus_into_self(&mut self, a: &Block, b: &Block) {
        self.min_plus_into_self_with(kernels::MinPlusKernel::Auto, a, b);
    }

    /// [`Block::min_plus_into_self`] with an explicit kernel choice.
    pub fn min_plus_into_self_with(
        &mut self,
        kernel: kernels::MinPlusKernel,
        a: &Block,
        b: &Block,
    ) {
        kernels::min_plus_into_with(kernel, a, b, self);
    }

    /// Element-wise minimum with `other`, in place (the paper's `MatMin`).
    pub fn mat_min_assign(&mut self, other: &Block) {
        assert_eq!(self.b, other.b, "block sides must match");
        kernels::join_slices::<TropicalF64>(&mut self.data, other.data());
    }

    /// `self = min(self, self ⊗ other)` — the paper's `MinPlus` function.
    ///
    /// `self` is both an operand and the fold target, so the product is
    /// built in a reused thread-local scratch buffer (no allocation in
    /// steady state) and then folded in.
    pub fn min_plus_assign(&mut self, other: &Block) {
        self.min_plus_assign_with(kernels::MinPlusKernel::Auto, other);
    }

    /// [`Block::min_plus_assign`] with an explicit kernel choice.
    pub fn min_plus_assign_with(&mut self, kernel: kernels::MinPlusKernel, other: &Block) {
        assert_eq!(self.b, other.b, "block sides must match");
        let n = self.b;
        kernels::product_assign_slices::<TropicalF64>(kernel, &mut self.data, other.data(), n);
    }

    /// `self = min(self, other ⊗ self)` — the left-operand mirror of
    /// [`Block::min_plus_assign`] (the pivot-row update of the blocked
    /// solvers), likewise scratch-buffered and allocation-free.
    pub fn min_plus_left_assign(&mut self, other: &Block) {
        self.min_plus_left_assign_with(kernels::MinPlusKernel::Auto, other);
    }

    /// [`Block::min_plus_left_assign`] with an explicit kernel choice.
    pub fn min_plus_left_assign_with(&mut self, kernel: kernels::MinPlusKernel, other: &Block) {
        assert_eq!(self.b, other.b, "block sides must match");
        let n = self.b;
        kernels::product_left_assign_slices::<TropicalF64>(kernel, &mut self.data, other.data(), n);
    }

    /// Runs Floyd-Warshall to a fixpoint *within* the block, treating it as
    /// the adjacency matrix of a `b`-vertex graph (the paper's
    /// `FloydWarshall` building block applied to diagonal blocks).
    pub fn floyd_warshall_in_place(&mut self) {
        kernels::floyd_warshall_in_place(self);
    }

    /// Rank-1 Floyd-Warshall update (the paper's `FloydWarshallUpdate`):
    /// `self[i][j] = min(self[i][j], col_i[i] + col_j[j])`, where `col_i` is
    /// `B_Ik` (distances row-block `I` → pivot `k`) and `col_j` is `B_Jk`
    /// (distances pivot `k` → column-block `J`, using symmetry).
    pub fn fw_update_outer(&mut self, col_i: &[f64], col_j: &[f64]) {
        kernels::fw_update_outer(self, col_i, col_j);
    }

    /// Largest finite entry, or `None` if all entries are [`INF`].
    pub fn max_finite(&self) -> Option<f64> {
        self.data
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Number of finite (reachable) entries.
    pub fn count_finite(&self) -> usize {
        self.data.iter().filter(|v| v.is_finite()).count()
    }

    /// Approximate equality modulo floating-point rounding; `INF` entries
    /// must match exactly.
    pub fn approx_eq(&self, other: &Block, tol: f64) -> bool {
        self.b == other.b
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| crate::matrix::approx_eq_scalar(a, b, tol))
    }
}

/// A square boolean block packed 64 cells per `u64` word — the plane
/// representation of the bitset reachability kernels.
///
/// Row `i` occupies words `i * words_per_row .. (i + 1) * words_per_row`;
/// bit `j % 64` of word `j / 64` is cell `(i, j)`. **Invariant:** bits past
/// column `side - 1` in each row's last word are zero, so word-wide `|`/`&`
/// products preserve exact cell semantics and unpacking never reads
/// garbage. Pack/unpack happens at the block boundary
/// ([`BitBlock::from_bools`] / [`BitBlock::to_bools`]); the kernels in
/// [`crate::kernels`] (`bool_or_product_into`, `bool_closure_in_place`)
/// then run entirely at word level.
#[derive(Clone, PartialEq, Eq)]
pub struct BitBlock {
    side: usize,
    wpr: usize,
    words: Box<[u64]>,
}

impl BitBlock {
    /// Words per packed row for a block of side `n`.
    #[inline(always)]
    pub fn words_per_row_for(n: usize) -> usize {
        n.div_ceil(64)
    }

    /// An all-`false` block (the boolean zero matrix).
    pub fn zeros(b: usize) -> Self {
        let wpr = Self::words_per_row_for(b);
        BitBlock {
            side: b,
            wpr,
            words: vec![0u64; b * wpr].into_boxed_slice(),
        }
    }

    /// Packs a row-major `b × b` boolean plane.
    ///
    /// # Panics
    /// Panics if `data.len() != b * b`.
    pub fn from_bools(b: usize, data: &[bool]) -> Self {
        assert_eq!(data.len(), b * b, "buffer length must be b^2");
        let mut blk = Self::zeros(b);
        Self::pack_slice(data, b, &mut blk.words);
        blk
    }

    /// Packs a boolean element block.
    pub fn from_elem_block(block: &ElemBlock<crate::semiring::BoolSemiring>) -> Self {
        Self::from_bools(block.side(), block.data())
    }

    /// Unpacks into a row-major `Vec<bool>` plane.
    pub fn to_bools(&self) -> Vec<bool> {
        let mut out = vec![false; self.side * self.side];
        Self::unpack_slice(&self.words, self.side, &mut out);
        out
    }

    /// Unpacks into a boolean element block.
    pub fn to_elem_block(&self) -> ElemBlock<crate::semiring::BoolSemiring> {
        ElemBlock::from_vec(self.side, self.to_bools())
    }

    /// Side length `b`.
    #[inline(always)]
    pub fn side(&self) -> usize {
        self.side
    }

    /// Words per packed row.
    #[inline(always)]
    pub fn words_per_row(&self) -> usize {
        self.wpr
    }

    /// The packed word plane.
    #[inline(always)]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the packed word plane. Callers must preserve the
    /// zero-tail-bits invariant.
    #[inline(always)]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Cell accessor.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.side && j < self.side);
        self.words[i * self.wpr + j / 64] >> (j % 64) & 1 == 1
    }

    /// Cell mutator.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: bool) {
        assert!(i < self.side && j < self.side, "index out of range");
        let w = &mut self.words[i * self.wpr + j / 64];
        if v {
            *w |= 1u64 << (j % 64);
        } else {
            *w &= !(1u64 << (j % 64));
        }
    }

    /// Number of `true` cells.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Packs an `n × n` boolean plane into a word buffer of
    /// `n * words_per_row_for(n)` words (tail bits zeroed).
    pub(crate) fn pack_slice(src: &[bool], n: usize, words: &mut [u64]) {
        let wpr = Self::words_per_row_for(n);
        debug_assert_eq!(words.len(), n * wpr);
        for i in 0..n {
            let row = &src[i * n..(i + 1) * n];
            let wrow = &mut words[i * wpr..(i + 1) * wpr];
            for (w, chunk) in wrow.iter_mut().zip(row.chunks(64)) {
                let mut bits = 0u64;
                for (b, &v) in chunk.iter().enumerate() {
                    bits |= (v as u64) << b;
                }
                *w = bits;
            }
        }
    }

    /// Unpacks an `n * words_per_row_for(n)` word buffer into an `n × n`
    /// boolean plane.
    pub(crate) fn unpack_slice(words: &[u64], n: usize, dst: &mut [bool]) {
        let wpr = Self::words_per_row_for(n);
        debug_assert_eq!(words.len(), n * wpr);
        for i in 0..n {
            let wrow = &words[i * wpr..(i + 1) * wpr];
            let row = &mut dst[i * n..(i + 1) * n];
            for (&w, chunk) in wrow.iter().zip(row.chunks_mut(64)) {
                for (b, v) in chunk.iter_mut().enumerate() {
                    *v = w >> b & 1 == 1;
                }
            }
        }
    }
}

impl fmt::Debug for BitBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitBlock(b={}, {} set)", self.side, self.count_ones())
    }
}

impl<S: Semiring> fmt::Debug for ElemBlock<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Block(b={})", self.b)?;
        let shown = self.b.min(8);
        for i in 0..shown {
            let row: Vec<String> = (0..shown)
                .map(|j| format!("{:?}", self.get(i, j)))
                .collect();
            writeln!(
                f,
                "  [{}{}]",
                row.join(", "),
                if self.b > shown { ", …" } else { "" }
            )?;
        }
        if self.b > shown {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::BoolSemiring;

    fn path3() -> Block {
        let mut a = Block::identity(3);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 2, 2.0);
        a.set(2, 1, 2.0);
        a
    }

    #[test]
    fn identity_is_tropical_one() {
        let a = path3();
        let e = Block::identity(3);
        assert_eq!(a.min_plus(&e), a);
        assert_eq!(e.min_plus(&a), a);
    }

    #[test]
    fn infinity_is_tropical_zero() {
        let a = path3();
        let z = Block::infinity(3);
        assert_eq!(a.min_plus(&z), z);
        let mut m = a.clone();
        m.mat_min_assign(&z);
        assert_eq!(m, a);
    }

    #[test]
    fn fold_entry_points_match_two_step_composition() {
        let a = path3();
        let l = Block::from_fn(3, |i, j| (i * 2 + j) as f64);
        let r = Block::from_fn(3, |i, j| (7 - i - j) as f64);

        // min_plus_into_self == mat_min_assign(l ⊗ r).
        let mut folded = a.clone();
        folded.min_plus_into_self(&l, &r);
        let mut manual = a.clone();
        manual.mat_min_assign(&l.min_plus(&r));
        assert_eq!(folded, manual);

        // min_plus_assign == mat_min_assign(self ⊗ other).
        let mut assigned = a.clone();
        assigned.min_plus_assign(&r);
        let mut manual = a.clone();
        let prod = a.min_plus(&r);
        manual.mat_min_assign(&prod);
        assert_eq!(assigned, manual);

        // min_plus_left_assign == mat_min_assign(other ⊗ self).
        let mut left = a.clone();
        left.min_plus_left_assign(&l);
        let mut manual = a.clone();
        manual.mat_min_assign(&l.min_plus(&a));
        assert_eq!(left, manual);
    }

    #[test]
    fn explicit_kernel_choices_agree_on_folds() {
        use crate::kernels::MinPlusKernel;
        let a = path3();
        let o = Block::from_fn(3, |i, j| 1.0 + (i * 3 + j) as f64);
        let mut auto = a.clone();
        auto.min_plus_assign(&o);
        for k in [
            MinPlusKernel::Naive,
            MinPlusKernel::Branchless,
            MinPlusKernel::Packed,
        ] {
            let mut c = a.clone();
            c.min_plus_assign_with(k, &o);
            assert_eq!(c, auto, "kernel {k:?}");
        }
    }

    #[test]
    fn squaring_closes_two_hop_paths() {
        let a = path3();
        let mut sq = a.clone();
        sq.min_plus_assign(&a);
        assert_eq!(sq.get(0, 2), 3.0);
        assert_eq!(sq.get(2, 0), 3.0);
    }

    #[test]
    fn floyd_warshall_fixpoint_is_idempotent() {
        let mut a = path3();
        a.floyd_warshall_in_place();
        let once = a.clone();
        a.floyd_warshall_in_place();
        assert_eq!(a, once);
    }

    #[test]
    fn generic_mat_mul_matches_fast_path_on_tropical() {
        let a = path3();
        let b = Block::from_fn(3, |i, j| 1.0 + (i * 3 + j) as f64);
        let fast = a.min_plus(&b);
        let generic = a.mat_mul(&b);
        assert_eq!(fast, generic);
    }

    #[test]
    fn generic_closure_matches_fw_on_tropical() {
        let mut fast = path3();
        fast.floyd_warshall_in_place();
        let mut generic = path3();
        generic.closure_in_place();
        assert_eq!(fast, generic);
    }

    #[test]
    fn boolean_block_closure_is_reachability() {
        // 0 -> 1 -> 2, 3 isolated (directed).
        let mut a = ElemBlock::<BoolSemiring>::identity(4);
        a.set(0, 1, true);
        a.set(1, 2, true);
        a.closure_in_place();
        assert!(a.get(0, 2));
        assert!(!a.get(2, 0));
        assert!(!a.get(0, 3));
        assert!(a.get(3, 3));
    }

    #[test]
    fn transpose_involution() {
        let a = Block::from_fn(5, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_entries() {
        let a = Block::from_fn(4, |i, j| (10 * i + j) as f64);
        let t = a.transpose();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(t.get(i, j), a.get(j, i));
            }
        }
    }

    #[test]
    fn extract_col_matches_entries() {
        let a = Block::from_fn(4, |i, j| (i + 100 * j) as f64);
        let c = a.extract_col(2);
        assert_eq!(c, vec![200.0, 201.0, 202.0, 203.0]);
        let r = a.extract_row(1);
        assert_eq!(r, vec![1.0, 101.0, 201.0, 301.0]);
    }

    #[test]
    fn fw_update_outer_matches_manual() {
        let mut a = Block::filled(2, 10.0);
        // col_i = dist(row i -> pivot), col_j = dist(pivot -> col j)
        a.fw_update_outer(&[1.0, 4.0], &[2.0, 3.0]);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(0, 1), 4.0);
        assert_eq!(a.get(1, 0), 6.0);
        assert_eq!(a.get(1, 1), 7.0);
    }

    #[test]
    fn fw_update_outer_with_inf_pivot_is_noop() {
        let mut a = Block::filled(3, 5.0);
        let before = a.clone();
        a.fw_update_outer(&[INF, INF, INF], &[1.0, 1.0, 1.0]);
        assert_eq!(a, before);
    }

    #[test]
    fn mat_min_is_commutative_in_effect() {
        let a = Block::from_fn(3, |i, j| (i * 3 + j) as f64);
        let b = Block::from_fn(3, |i, j| (8 - (i * 3 + j)) as f64);
        let mut ab = a.clone();
        ab.mat_min_assign(&b);
        let mut ba = b.clone();
        ba.mat_min_assign(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn max_finite_and_counts() {
        let mut a = Block::infinity(2);
        assert_eq!(a.max_finite(), None);
        assert_eq!(a.count_finite(), 0);
        a.set(0, 1, 3.5);
        a.set(1, 0, 7.25);
        assert_eq!(a.max_finite(), Some(7.25));
        assert_eq!(a.count_finite(), 2);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Block::from_vec(3, vec![0.0; 8]);
    }

    #[test]
    fn size_bytes_is_payload() {
        assert_eq!(Block::infinity(16).size_bytes(), 16 * 16 * 8);
        assert_eq!(ElemBlock::<BoolSemiring>::zeros(16).size_bytes(), 16 * 16);
    }
}
