//! Dense block-matrix kernels over the tropical *(min, +)* semiring.
//!
//! This crate provides the computational building blocks that the paper
//! ("Solving All-Pairs Shortest-Paths Problem in Large Graphs Using Apache
//! Spark", ICPP 2019) delegates to bare-metal execution via NumPy / SciPy /
//! Numba:
//!
//! * [`ElemBlock`] — a square, dense, row-major matrix block over any
//!   [`Semiring`], with [`Block`] (= `ElemBlock<TropicalF64>`) as the
//!   `f64` instantiation of an adjacency matrix 2D decomposition,
//! * min-plus matrix product kernels ([`Block::min_plus`],
//!   [`kernels::min_plus_into`]; branchless and packed register-blocked
//!   tiers, all sequential — one block operation per core, as in the
//!   paper),
//! * element-wise minimum ([`Block::mat_min_assign`], the paper's `MatMin`),
//! * an in-block Floyd-Warshall solver ([`Block::floyd_warshall_in_place`],
//!   the paper's `FloydWarshall`),
//! * the rank-1 Floyd-Warshall update ([`Block::fw_update_outer`], the
//!   paper's `FloydWarshallUpdate`),
//! * a whole-matrix dense type ([`Matrix`]) used by reference solvers and
//!   block (dis)assembly,
//! * the [`Semiring`] abstraction (tropical over `f64`/`f32`/`i64`, the
//!   bottleneck *(max, min)* semiring, and the boolean semiring for
//!   transitive closure) mirroring the paper's §2 observation that APSP
//!   is a linear-algebra problem over *(min, +)*,
//! * the same kernel engine monomorphised for the bottleneck *(max, min)*
//!   semiring ([`kernels::min_plus_into_with`] over
//!   `ElemBlock<BottleneckF64>`), and the word-packed boolean bitset engine
//!   ([`BitBlock`], [`kernels::bool_or_product_into`],
//!   [`kernels::bool_closure_in_place`]), and
//! * the [`algebra`] layer on top of it: [`PathAlgebra`] (a semiring plus
//!   an optional per-cell payload) with per-algebra kernel dispatch, and
//!   [`AlgBlock`] — the combined record the generic solvers run on
//!   ([`TrackedBlock`] is its tropical-with-argmin instantiation).
//!
//! Absent edges are represented by [`INF`] (`f64::INFINITY`); the additive
//! identity of the tropical semiring. The multiplicative identity is `0.0`.
//!
//! # Example
//!
//! ```
//! use apsp_blockmat::{Block, INF};
//!
//! // A 3-vertex path graph 0 -1- 1 -2- 2.
//! let mut a = Block::identity(3);
//! a.set(0, 1, 1.0); a.set(1, 0, 1.0);
//! a.set(1, 2, 2.0); a.set(2, 1, 2.0);
//!
//! // One min-plus squaring closes paths of length <= 2.
//! let a2 = {
//!     let mut c = a.clone();
//!     c.mat_min_assign(&a.min_plus(&a));
//!     c
//! };
//! assert_eq!(a2.get(0, 2), 3.0);
//!
//! // In-block Floyd-Warshall reaches the same fixpoint here.
//! let mut fw = a.clone();
//! fw.floyd_warshall_in_place();
//! assert_eq!(fw, a2);
//! ```

#![warn(missing_docs)]

pub mod algebra;
mod block;
pub mod closure;
pub mod kernels;
mod matrix;
pub mod parent;
mod reference;
pub mod semiring;
pub mod serialize;

pub use algebra::{
    AlgBlock, PathAlgebra, Reachability, TrackedBlock, TrackedReachability, TrackedTropical,
    TrackedWidest, Tropical, Widest,
};
pub use block::{BitBlock, Block, ElemBlock};
pub use matrix::Matrix;
pub use parent::{Offsets, ParentBlock, PayBlock, NO_VIA};
pub use semiring::{BoolSemiring, BottleneckF64, Semiring, TropicalF32, TropicalF64, TropicalI64};

/// Distance value denoting the absence of a path (tropical additive identity).
pub const INF: f64 = f64::INFINITY;

/// Saturating tropical addition: `a + b`, where either operand being [`INF`]
/// yields [`INF`] (native `f64` addition already has this property, this
/// function exists to make call sites self-documenting).
#[inline(always)]
pub fn tropical_mul(a: f64, b: f64) -> f64 {
    a + b
}

/// Tropical "addition": the minimum of two path lengths.
#[inline(always)]
pub fn tropical_add(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}
