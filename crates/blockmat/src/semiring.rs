//! Generic semiring abstraction.
//!
//! The paper (§2) notes that APSP "can be directly posed as a linear algebra
//! problem, and solved using matrix operations over the semi-ring (min,+)".
//! The `f64` kernel engine in [`crate::kernels`] is generic over the
//! `f64`-valued instances of this trait ([`TropicalF64`],
//! [`BottleneckF64`]); this module also exposes the same operations over
//! any [`Semiring`], which (a) documents the algebraic requirements the
//! solvers rely on, and (b) supports the related primitives the paper
//! cites (e.g. transitive closure over the boolean semiring, Katz et al.
//! \[10\]).

use std::fmt::Debug;

/// A semiring `(S, ⊕, ⊗, 0̄, 1̄)`: `⊕` is associative and commutative with
/// identity `0̄`; `⊗` is associative with identity `1̄` and annihilator `0̄`;
/// `⊗` distributes over `⊕`.
///
/// For path problems we additionally require `⊕` to be *idempotent* and
/// *selective enough* that iterating `A ← A ⊕ (A ⊗ A)` converges (true for
/// all instances provided here).
pub trait Semiring: Copy + Send + Sync + 'static {
    /// Element type.
    type Elem: Copy + PartialEq + Debug + Send + Sync + 'static;

    /// Additive identity `0̄` (e.g. `+∞` for tropical, `false` for boolean).
    fn zero() -> Self::Elem;
    /// Multiplicative identity `1̄` (e.g. `0.0` for tropical, `true` for boolean).
    fn one() -> Self::Elem;
    /// `a ⊕ b` (e.g. `min` for tropical, `or` for boolean).
    fn add(a: Self::Elem, b: Self::Elem) -> Self::Elem;
    /// `a ⊗ b` (e.g. saturating `+` for tropical, `and` for boolean).
    fn mul(a: Self::Elem, b: Self::Elem) -> Self::Elem;
}

/// The tropical (min, +) semiring over `f64` — the one APSP runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TropicalF64;

impl Semiring for TropicalF64 {
    type Elem = f64;
    #[inline(always)]
    fn zero() -> f64 {
        f64::INFINITY
    }
    #[inline(always)]
    fn one() -> f64 {
        0.0
    }
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        if a < b {
            a
        } else {
            b
        }
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a + b
    }
}

/// Tropical semiring over `f32` (half-precision storage for memory-bound
/// deployments; the paper's NumPy blocks default to `float64` but `float32`
/// is a common practical substitution).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TropicalF32;

impl Semiring for TropicalF32 {
    type Elem = f32;
    #[inline(always)]
    fn zero() -> f32 {
        f32::INFINITY
    }
    #[inline(always)]
    fn one() -> f32 {
        0.0
    }
    #[inline(always)]
    fn add(a: f32, b: f32) -> f32 {
        if a < b {
            a
        } else {
            b
        }
    }
    #[inline(always)]
    fn mul(a: f32, b: f32) -> f32 {
        a + b
    }
}

/// Tropical semiring over `i64` with saturating arithmetic; `i64::MAX` is
/// the additive identity. Suits integer-weighted graphs (paper §2 cites the
/// integer-weight APSP literature, Shoshan & Zwick \[18\]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TropicalI64;

impl Semiring for TropicalI64 {
    type Elem = i64;
    #[inline(always)]
    fn zero() -> i64 {
        i64::MAX
    }
    #[inline(always)]
    fn one() -> i64 {
        0
    }
    #[inline(always)]
    fn add(a: i64, b: i64) -> i64 {
        a.min(b)
    }
    #[inline(always)]
    fn mul(a: i64, b: i64) -> i64 {
        a.saturating_add(b)
    }
}

/// The bottleneck ("widest path") semiring `(max, min)` over non-negative
/// `f64` capacities: `a ⊕ b = max(a, b)` picks the better of two routes,
/// `a ⊗ b = min(a, b)` is the capacity of a concatenation. `0̄ = 0.0` (no
/// path), `1̄ = +∞` (staying put constrains nothing). Shinn & Takaoka's
/// APBP problem runs the same blocked machinery over this algebra; the
/// bulk path runs on the kernel engine in [`crate::kernels`],
/// monomorphised for this semiring (see [`crate::algebra::Widest`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BottleneckF64;

impl Semiring for BottleneckF64 {
    type Elem = f64;
    #[inline(always)]
    fn zero() -> f64 {
        0.0
    }
    #[inline(always)]
    fn one() -> f64 {
        f64::INFINITY
    }
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        if a < b {
            b
        } else {
            a
        }
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        if a < b {
            a
        } else {
            b
        }
    }
}

/// Boolean semiring `(∨, ∧)` — reachability / transitive closure. Bulk
/// operations run on the word-packed bitset kernels (see
/// [`crate::BitBlock`] and [`crate::algebra::Reachability`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoolSemiring;

impl Semiring for BoolSemiring {
    type Elem = bool;
    #[inline(always)]
    fn zero() -> bool {
        false
    }
    #[inline(always)]
    fn one() -> bool {
        true
    }
    #[inline(always)]
    fn add(a: bool, b: bool) -> bool {
        a || b
    }
    #[inline(always)]
    fn mul(a: bool, b: bool) -> bool {
        a && b
    }
}

/// A square dense block over an arbitrary [`Semiring`].
///
/// Since the block type itself became generic this is simply an alias of
/// [`crate::ElemBlock`]; it is kept because the name reads better at call
/// sites that stress the *algebra* (transitive closure, integer-weight
/// variants, the executable specification of the `f64` fast path).
pub type GenBlock<S> = crate::ElemBlock<S>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Block, INF};

    #[test]
    fn tropical_f64_genblock_matches_fast_path() {
        let b = 17;
        let mk = |seed: u64| {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            GenBlock::<TropicalF64>::from_fn(b, |i, j| {
                if i == j {
                    0.0
                } else if next() < 0.4 {
                    1.0 + next() * 5.0
                } else {
                    INF
                }
            })
        };
        let ga = mk(3);
        let gb = mk(4);
        let fa = Block::from_fn(b, |i, j| ga.get(i, j));
        let fb = Block::from_fn(b, |i, j| gb.get(i, j));

        let gp = ga.mat_mul(&gb);
        let fp = fa.min_plus(&fb);
        for i in 0..b {
            for j in 0..b {
                assert_eq!(gp.get(i, j), fp.get(i, j), "product mismatch at ({i},{j})");
            }
        }

        let mut gc = ga.clone();
        gc.closure_in_place();
        let mut fc = fa.clone();
        fc.floyd_warshall_in_place();
        for i in 0..b {
            for j in 0..b {
                assert_eq!(gc.get(i, j), fc.get(i, j), "closure mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn boolean_closure_is_reachability() {
        // 0 -> 1 -> 2, 3 isolated (directed).
        let mut a = GenBlock::<BoolSemiring>::identity(4);
        a.set(0, 1, true);
        a.set(1, 2, true);
        a.closure_in_place();
        assert!(a.get(0, 2));
        assert!(!a.get(2, 0));
        assert!(!a.get(0, 3));
        assert!(a.get(3, 3));
    }

    #[test]
    fn integer_tropical_saturates() {
        let a = GenBlock::<TropicalI64>::from_fn(2, |i, j| if i == j { 0 } else { i64::MAX });
        let p = a.mat_mul(&a);
        assert_eq!(p.get(0, 1), i64::MAX);
        assert_eq!(p.get(0, 0), 0);
    }

    #[test]
    fn identity_laws() {
        let b = 6;
        let a = GenBlock::<TropicalI64>::from_fn(b, |i, j| ((i * b + j) % 9) as i64);
        let e = GenBlock::<TropicalI64>::identity(b);
        assert_eq!(a.mat_mul(&e), a);
        assert_eq!(e.mat_mul(&a), a);
        let z = GenBlock::<TropicalI64>::zeros(b);
        assert_eq!(a.mat_mul(&z), z);
    }

    #[test]
    fn bottleneck_closure_is_widest_path() {
        // 0 -5- 1 -3- 2 plus a thin direct pipe 0 -1- 2: the widest 0→2
        // route goes through 1 with bottleneck min(5, 3) = 3.
        let mut a = GenBlock::<BottleneckF64>::identity(3);
        a.set(0, 1, 5.0);
        a.set(1, 0, 5.0);
        a.set(1, 2, 3.0);
        a.set(2, 1, 3.0);
        a.set(0, 2, 1.0);
        a.set(2, 0, 1.0);
        a.closure_in_place();
        assert_eq!(a.get(0, 2), 3.0);
        assert_eq!(a.get(2, 0), 3.0);
        assert_eq!(a.get(0, 0), f64::INFINITY, "diagonal stays 1̄");
    }

    #[test]
    fn f32_closure_small() {
        let mut a = GenBlock::<TropicalF32>::identity(3);
        a.set(0, 1, 1.5);
        a.set(1, 2, 2.5);
        a.closure_in_place();
        assert_eq!(a.get(0, 2), 4.0);
    }
}
