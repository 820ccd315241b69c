//! The path-algebra layer: a [`Semiring`] plus an optional per-cell
//! payload, with bulk kernels dispatched per algebra.
//!
//! The paper (§2) poses APSP as matrix algebra over *(min, +)*; the same
//! blocked machinery solves all-pairs bottleneck/widest paths by swapping
//! in *(max, min)* (Shinn & Takaoka) and boolean transitive closure by
//! swapping in *(∨, ∧)* (Katz et al., cited as \[10\]). This module makes
//! the algebra a **type parameter** instead of a hard-coded `f64`:
//!
//! * [`PathAlgebra`] — the dispatch trait: an element [`Semiring`], a
//!   per-cell payload type, and the bulk block operations the solvers
//!   drive (`⊕⊗` fold-product, in-block closure, rank-1 update,
//!   element-wise join). Every operation has a generic fallback loop;
//!   algebras with a specialized kernel tier override them.
//! * [`Tropical`] — plain *(min, +)* over `f64` with the zero-sized `()`
//!   payload. Overrides every hook with the packed/branchless engine in
//!   [`crate::kernels`], so the APSP hot path is **bit-exact** with (and
//!   exactly as fast as) the dedicated `f64` stack.
//! * [`TrackedTropical`] — tropical ⊗ argmin payload: each cell carries
//!   the `u32` global id of the winning intermediate vertex. What used to
//!   be a parallel `TrackedBlock` type hierarchy is this algebra riding
//!   the same generic records. Overrides the hooks with the tracked
//!   kernel tier.
//! * [`Widest`] — the bottleneck *(max, min)* algebra over capacities
//!   ([`BottleneckF64`]). Runs on the same generic engine as [`Tropical`],
//!   monomorphised for its semiring (`vmaxpd`/`vminpd` in place of
//!   `vminpd`/`vaddpd`): one 4×8 register blocking, one set of scratch
//!   pools, one size-tier dispatch ([`kernels::select`]).
//! * [`Reachability`] — boolean transitive closure ([`BoolSemiring`]).
//!   Overrides the hooks with the bitset engine: booleans packed 64 per
//!   `u64` word ([`crate::BitBlock`]) so the *(∨, ∧)* product is a
//!   word-wide `|` of rows selected by set bits.
//!
//! [`AlgBlock<A>`] is the block record the generic solvers move through
//! the engine: an element block plus its payload plane. For `()` payloads
//! the plane is zero bytes, so `AlgBlock<Tropical>` *is* a distance
//! [`crate::Block`] plus nothing.

use crate::block::ElemBlock;
use crate::kernels::{self, MinPlusKernel};
use crate::parent::{Offsets, PayBlock, NO_VIA};
use crate::semiring::{BoolSemiring, BottleneckF64, Semiring, TropicalF64};
#[cfg(test)]
use crate::Block;
use crate::INF;
use std::fmt::Debug;

/// Element type of a path algebra (shorthand for the semiring's element).
pub type Elem<A> = <<A as PathAlgebra>::Semi as Semiring>::Elem;

/// A path algebra: the element [`Semiring`] the block values live in, an
/// optional per-cell payload recorded on strict improvements, and the bulk
/// block operations the blocked solvers are written against.
///
/// The provided method bodies are the generic fallback loops — correct for
/// any algebra whose `⊕` is selective (returns one of its operands), which
/// all path problems here satisfy. Implementations with a tuned kernel
/// tier (the `f64` tropical fast path, the tracked tier) override them;
/// the solvers never know the difference.
///
/// All bulk operations work on row-major `n × n` slices so they can run
/// against block storage and scratch buffers alike.
///
/// The `where` clauses require every element and payload type to carry a
/// fixed-width wire encoding ([`crate::serialize::Wire`]) so that any
/// algebra's block planes can be checkpointed; the bound is implied at
/// use sites, so generic solver code never has to restate it.
pub trait PathAlgebra: Copy + Send + Sync + 'static
where
    <Self::Semi as Semiring>::Elem: crate::serialize::Wire,
    Self::Payload: crate::serialize::Wire,
{
    /// The element semiring.
    type Semi: Semiring;

    /// Per-cell payload carried beside each element (`()` when nothing is
    /// tracked; `u32` argmin vias for the tracked tropical algebra).
    type Payload: Copy + PartialEq + Debug + Send + Sync + 'static;

    /// Whether the payload is meaningful. When `true`, the generic loops
    /// skip degenerate terms (global `k` equal to the target's global row
    /// or column — see the seeding contract in [`crate::parent`]) and
    /// record [`PathAlgebra::payload_for`] on every strict improvement.
    const TRACKS: bool;

    /// Human-readable algebra name (for diagnostics and benches).
    const NAME: &'static str;

    /// The payload of a cell with no recorded witness.
    fn empty_payload() -> Self::Payload;

    /// The payload recorded when the term through global vertex `k` wins.
    fn payload_for(k_global: usize) -> Self::Payload;

    /// Fold-product `c = c ⊕ (a ⊗ b)` — the paper's `MatProd`+`MatMin`
    /// composition, seeded (folds into the live `c`).
    fn fold_product(
        kernel: MinPlusKernel,
        ad: &[Elem<Self>],
        bd: &[Elem<Self>],
        cd: &mut [Elem<Self>],
        cp: &mut [Self::Payload],
        n: usize,
        o: Offsets,
    ) {
        let _ = kernel;
        let zero = Self::Semi::zero();
        for i in 0..n {
            let ig = o.row + i;
            for k in 0..n {
                let kg = o.k + k;
                if Self::TRACKS && kg == ig {
                    continue;
                }
                let aik = ad[i * n + k];
                if aik == zero {
                    continue;
                }
                let pay = Self::payload_for(kg);
                for j in 0..n {
                    if Self::TRACKS && kg == o.col + j {
                        continue;
                    }
                    let cand = Self::Semi::mul(aik, bd[k * n + j]);
                    let cur = cd[i * n + j];
                    let new = Self::Semi::add(cur, cand);
                    if new != cur {
                        cd[i * n + j] = new;
                        cp[i * n + j] = pay;
                    }
                }
            }
        }
    }

    /// `c = c ⊕ (c ⊗ other)` — the pivot-column update. The default
    /// builds the product in freshly allocated scratch; specialized
    /// algebras use the thread-local scratch pools instead.
    fn product_assign(
        kernel: MinPlusKernel,
        cd: &mut [Elem<Self>],
        cp: &mut [Self::Payload],
        other: &[Elem<Self>],
        n: usize,
        o: Offsets,
    ) {
        let mut sd = vec![Self::Semi::zero(); n * n];
        let mut sp = vec![Self::empty_payload(); n * n];
        Self::fold_product(kernel, cd, other, &mut sd, &mut sp, n, o);
        Self::join(cd, cp, &sd, &sp);
    }

    /// `c = c ⊕ (other ⊗ c)` — the pivot-row mirror of
    /// [`PathAlgebra::product_assign`].
    fn product_left_assign(
        kernel: MinPlusKernel,
        cd: &mut [Elem<Self>],
        cp: &mut [Self::Payload],
        other: &[Elem<Self>],
        n: usize,
        o: Offsets,
    ) {
        let mut sd = vec![Self::Semi::zero(); n * n];
        let mut sp = vec![Self::empty_payload(); n * n];
        Self::fold_product(kernel, other, cd, &mut sd, &mut sp, n, o);
        Self::join(cd, cp, &sd, &sp);
    }

    /// In-block Kleene/Floyd-Warshall closure of a diagonal block whose
    /// row/column `0` is global vertex `diag_offset`.
    fn closure_in_place(
        cd: &mut [Elem<Self>],
        cp: &mut [Self::Payload],
        n: usize,
        diag_offset: usize,
    ) {
        let zero = Self::Semi::zero();
        for k in 0..n {
            let pay = Self::payload_for(diag_offset + k);
            for i in 0..n {
                if Self::TRACKS && i == k {
                    continue;
                }
                let dik = cd[i * n + k];
                if dik == zero {
                    continue;
                }
                for j in 0..n {
                    let cand = Self::Semi::mul(dik, cd[k * n + j]);
                    let cur = cd[i * n + j];
                    let new = Self::Semi::add(cur, cand);
                    if new != cur {
                        cd[i * n + j] = new;
                        cp[i * n + j] = pay;
                    }
                }
            }
        }
    }

    /// Rank-1 update through the single global pivot `k_global` (the
    /// paper's `FloydWarshallUpdate`): `c[i][j] = c[i][j] ⊕ (col_i[i] ⊗
    /// col_j[j])`.
    fn rank1_update(
        cd: &mut [Elem<Self>],
        cp: &mut [Self::Payload],
        col_i: &[Elem<Self>],
        col_j: &[Elem<Self>],
        n: usize,
        k_global: usize,
    ) {
        assert_eq!(col_i.len(), n, "col_i length must equal block side");
        assert_eq!(col_j.len(), n, "col_j length must equal block side");
        let zero = Self::Semi::zero();
        let pay = Self::payload_for(k_global);
        for (i, &ci) in col_i.iter().enumerate() {
            if ci == zero {
                continue;
            }
            for (j, &cj) in col_j.iter().enumerate() {
                let cand = Self::Semi::mul(ci, cj);
                let cur = cd[i * n + j];
                let new = Self::Semi::add(cur, cand);
                if new != cur {
                    cd[i * n + j] = new;
                    cp[i * n + j] = pay;
                }
            }
        }
    }

    /// Element-wise join `c = c ⊕ o` (the paper's `MatMin` / the
    /// reduce-by-key merge), taking `o`'s payload exactly where `o`
    /// strictly improves `c` — ties keep the established payload.
    fn join(
        cd: &mut [Elem<Self>],
        cp: &mut [Self::Payload],
        od: &[Elem<Self>],
        op: &[Self::Payload],
    ) {
        for (((c, p), &o), &q) in cd.iter_mut().zip(cp.iter_mut()).zip(od).zip(op) {
            let new = Self::Semi::add(*c, o);
            if new != *c {
                *c = new;
                *p = q;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Algebra instances
// ---------------------------------------------------------------------------

/// Implements [`PathAlgebra`] for an untracked `f64` algebra by forwarding
/// every hook to the one generic kernel engine in [`crate::kernels`],
/// monomorphised for the algebra's semiring. [`Tropical`] and [`Widest`]
/// differ in nothing else.
macro_rules! f64_engine_algebra {
    ($algebra:ty, $semi:ty, $name:literal) => {
        impl PathAlgebra for $algebra {
            type Semi = $semi;
            type Payload = ();
            const TRACKS: bool = false;
            const NAME: &'static str = $name;

            #[inline(always)]
            fn empty_payload() {}
            #[inline(always)]
            fn payload_for(_k_global: usize) {}

            fn fold_product(
                kernel: MinPlusKernel,
                ad: &[f64],
                bd: &[f64],
                cd: &mut [f64],
                _cp: &mut [()],
                n: usize,
                _o: Offsets,
            ) {
                kernels::fold_slices_with::<$semi>(kernel, ad, bd, cd, n);
            }

            fn product_assign(
                kernel: MinPlusKernel,
                cd: &mut [f64],
                _cp: &mut [()],
                other: &[f64],
                n: usize,
                _o: Offsets,
            ) {
                kernels::product_assign_slices::<$semi>(kernel, cd, other, n);
            }

            fn product_left_assign(
                kernel: MinPlusKernel,
                cd: &mut [f64],
                _cp: &mut [()],
                other: &[f64],
                n: usize,
                _o: Offsets,
            ) {
                kernels::product_left_assign_slices::<$semi>(kernel, cd, other, n);
            }

            fn closure_in_place(cd: &mut [f64], _cp: &mut [()], n: usize, _diag_offset: usize) {
                kernels::fw_in_place_slices::<$semi>(cd, n);
            }

            fn rank1_update(
                cd: &mut [f64],
                _cp: &mut [()],
                col_i: &[f64],
                col_j: &[f64],
                n: usize,
                _k_global: usize,
            ) {
                kernels::rank1_slices::<$semi>(cd, col_i, col_j, n);
            }

            fn join(cd: &mut [f64], _cp: &mut [()], od: &[f64], _op: &[()]) {
                kernels::join_slices::<$semi>(cd, od);
            }
        }
    };
}

/// Plain tropical *(min, +)* over `f64` — APSP distances, no payload.
///
/// Every hook forwards to the packed/branchless kernel engine, so a solve
/// over this algebra is bit-exact with (and as fast as) the dedicated
/// `f64` stack it replaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tropical;

f64_engine_algebra!(Tropical, TropicalF64, "tropical");

/// Tropical ⊗ argmin payload: `f64` distances plus a `u32` via per cell.
///
/// The algebra behind `SolverConfig::with_paths`: hooks forward to the
/// tracked kernel tier, which records the winning global `k` under strict
/// `<` and skips degenerate terms (see [`crate::parent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackedTropical;

impl PathAlgebra for TrackedTropical {
    type Semi = TropicalF64;
    type Payload = u32;
    const TRACKS: bool = true;
    const NAME: &'static str = "tropical+argmin";

    #[inline(always)]
    fn empty_payload() -> u32 {
        NO_VIA
    }
    #[inline(always)]
    fn payload_for(k_global: usize) -> u32 {
        k_global as u32
    }

    fn fold_product(
        _kernel: MinPlusKernel,
        ad: &[f64],
        bd: &[f64],
        cd: &mut [f64],
        cp: &mut [u32],
        n: usize,
        o: Offsets,
    ) {
        kernels::min_plus_slices_tracked(ad, bd, cd, cp, n, o);
    }

    fn product_assign(
        _kernel: MinPlusKernel,
        cd: &mut [f64],
        cp: &mut [u32],
        other: &[f64],
        n: usize,
        o: Offsets,
    ) {
        kernels::with_scratch(n * n, |sd| {
            kernels::with_via_scratch(n * n, |sv| {
                sd.fill(INF);
                sv.fill(NO_VIA);
                kernels::min_plus_slices_tracked(cd, other, sd, sv, n, o);
                kernels::fold_tracked(cd, cp, sd, sv);
            });
        });
    }

    fn product_left_assign(
        _kernel: MinPlusKernel,
        cd: &mut [f64],
        cp: &mut [u32],
        other: &[f64],
        n: usize,
        o: Offsets,
    ) {
        kernels::with_scratch(n * n, |sd| {
            kernels::with_via_scratch(n * n, |sv| {
                sd.fill(INF);
                sv.fill(NO_VIA);
                kernels::min_plus_slices_tracked(other, cd, sd, sv, n, o);
                kernels::fold_tracked(cd, cp, sd, sv);
            });
        });
    }

    fn closure_in_place(cd: &mut [f64], cp: &mut [u32], n: usize, diag_offset: usize) {
        kernels::fw_in_place_tracked_slices(cd, cp, n, diag_offset);
    }

    fn rank1_update(
        cd: &mut [f64],
        cp: &mut [u32],
        col_i: &[f64],
        col_j: &[f64],
        n: usize,
        k_global: usize,
    ) {
        kernels::fw_update_outer_tracked_slices(cd, cp, col_i, col_j, n, k_global);
    }

    fn join(cd: &mut [f64], cp: &mut [u32], od: &[f64], op: &[u32]) {
        kernels::fold_tracked(cd, cp, od, op);
    }
}

/// The bottleneck / widest-path algebra *(max, min)* over `f64`
/// capacities — all-pairs bottleneck paths (Shinn & Takaoka).
///
/// Runs on the same kernel engine as [`Tropical`], monomorphised for
/// [`BottleneckF64`]: the same 4×8 register-blocked micro-kernel,
/// scratch-pooled fold entry points, and size-tier dispatch
/// ([`kernels::select`]), with `vmaxpd`/`vminpd` standing in for
/// `vminpd`/`vaddpd` and `0.0` (no pipe) as the inert pad/skip value. Pin
/// [`MinPlusKernel::Naive`] to run the branchy oracle loop instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Widest;

f64_engine_algebra!(Widest, BottleneckF64, "bottleneck");

/// Boolean transitive closure *(∨, ∧)* — reachability (Katz et al.
/// \[10\]).
///
/// Every hook forwards to the bitset kernels in [`crate::kernels`]: the
/// boolean plane is packed 64 cells per `u64` word at the block boundary
/// (see [`crate::BitBlock`]), so the `(∨, ∧)` product becomes a word-wide
/// `|` of `b`-rows selected by `a`'s set bits — 64 column relaxations per
/// instruction, with sparse rows costing only their popcount. There is no
/// size crossover: the bitset tier wins at every side. Pin
/// [`MinPlusKernel::Naive`] to run the element-at-a-time oracle loop
/// instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reachability;

impl PathAlgebra for Reachability {
    type Semi = BoolSemiring;
    type Payload = ();
    const TRACKS: bool = false;
    const NAME: &'static str = "boolean";

    #[inline(always)]
    fn empty_payload() {}
    #[inline(always)]
    fn payload_for(_k_global: usize) {}

    fn fold_product(
        kernel: MinPlusKernel,
        ad: &[bool],
        bd: &[bool],
        cd: &mut [bool],
        _cp: &mut [()],
        n: usize,
        _o: Offsets,
    ) {
        if kernel == MinPlusKernel::Naive {
            kernels::bool_naive_fold_slices(ad, bd, cd, n);
        } else {
            kernels::bool_fold_slices(ad, bd, cd, n);
        }
    }

    fn product_assign(
        kernel: MinPlusKernel,
        cd: &mut [bool],
        _cp: &mut [()],
        other: &[bool],
        n: usize,
        _o: Offsets,
    ) {
        if kernel == MinPlusKernel::Naive {
            // Oracle path: the trait-default two-step shape (product in
            // fresh scratch, then join) with the naive loop.
            let mut sd = vec![false; n * n];
            kernels::bool_naive_fold_slices(cd, other, &mut sd, n);
            for (c, &s) in cd.iter_mut().zip(sd.iter()) {
                *c |= s;
            }
        } else {
            kernels::bool_product_assign_slices(cd, other, n);
        }
    }

    fn product_left_assign(
        kernel: MinPlusKernel,
        cd: &mut [bool],
        _cp: &mut [()],
        other: &[bool],
        n: usize,
        _o: Offsets,
    ) {
        if kernel == MinPlusKernel::Naive {
            let mut sd = vec![false; n * n];
            kernels::bool_naive_fold_slices(other, cd, &mut sd, n);
            for (c, &s) in cd.iter_mut().zip(sd.iter()) {
                *c |= s;
            }
        } else {
            kernels::bool_product_left_assign_slices(cd, other, n);
        }
    }

    fn closure_in_place(cd: &mut [bool], _cp: &mut [()], n: usize, _diag_offset: usize) {
        kernels::bool_closure_slices(cd, n);
    }

    fn rank1_update(
        cd: &mut [bool],
        _cp: &mut [()],
        col_i: &[bool],
        col_j: &[bool],
        n: usize,
        _k_global: usize,
    ) {
        kernels::bool_rank1_slices(cd, col_i, col_j, n);
    }

    fn join(cd: &mut [bool], _cp: &mut [()], od: &[bool], _op: &[()]) {
        for (c, &o) in cd.iter_mut().zip(od) {
            *c |= o;
        }
    }
}

/// Bottleneck *(max, min)* ⊗ argmax payload: `f64` capacities plus the
/// `u32` via of the winning relaxation per cell — widest paths with
/// witness reconstruction, on the generic tracked loops.
///
/// Witness soundness follows the same argument as the tropical tracked
/// tier: a via is recorded only on a **strict** improvement, and a cell's
/// operands already carried (at record time) widths at least as large as
/// the improved value, so expanding `(i, j) → (i, k), (k, j)` walks a
/// well-founded order of improvement events and terminates on direct
/// edges. The degenerate-term guards (`k == i`, `k == j`) apply unchanged
/// because the `(max, min)` identity `+∞` sits on the diagonal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackedWidest;

impl PathAlgebra for TrackedWidest {
    type Semi = BottleneckF64;
    type Payload = u32;
    const TRACKS: bool = true;
    const NAME: &'static str = "bottleneck+argmax";

    #[inline(always)]
    fn empty_payload() -> u32 {
        NO_VIA
    }
    #[inline(always)]
    fn payload_for(k_global: usize) -> u32 {
        k_global as u32
    }
}

/// Boolean closure ⊗ via payload: reachability plus, per reachable pair,
/// an interior vertex of one connecting walk. A cell flips `false → true`
/// exactly once, and its operands flipped strictly earlier, so via
/// expansion is well-founded by flip order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackedReachability;

impl PathAlgebra for TrackedReachability {
    type Semi = BoolSemiring;
    type Payload = u32;
    const TRACKS: bool = true;
    const NAME: &'static str = "boolean+via";

    #[inline(always)]
    fn empty_payload() -> u32 {
        NO_VIA
    }
    #[inline(always)]
    fn payload_for(k_global: usize) -> u32 {
        k_global as u32
    }
}

// ---------------------------------------------------------------------------
// The combined block record
// ---------------------------------------------------------------------------

/// An element block paired with its payload plane: the record type the
/// generic solvers move through the engine.
///
/// All mutating operations take the [`Offsets`] needed to translate
/// block-local indices into global vertex ids (and, for tracking
/// algebras, to suppress degenerate terms — see [`crate::parent`] for the
/// seeding contract). For `()` payloads the plane occupies zero bytes and
/// every payload write compiles away.
pub struct AlgBlock<A: PathAlgebra> {
    dist: ElemBlock<A::Semi>,
    pay: PayBlock<A::Payload>,
}

/// A distance [`crate::Block`] paired with its `u32` via plane — the record type
/// of the path-tracking solvers, now simply the [`TrackedTropical`]
/// instantiation of the generic block.
pub type TrackedBlock = AlgBlock<TrackedTropical>;

impl<A: PathAlgebra> Clone for AlgBlock<A> {
    fn clone(&self) -> Self {
        AlgBlock {
            dist: self.dist.clone(),
            pay: self.pay.clone(),
        }
    }
}

impl<A: PathAlgebra> PartialEq for AlgBlock<A> {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.pay == other.pay
    }
}

impl<A: PathAlgebra> Debug for AlgBlock<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlgBlock<{}> {{ dist: {:?} }}", A::NAME, self.dist)
    }
}

impl<A: PathAlgebra> AlgBlock<A> {
    /// Wraps an element block with an all-empty payload plane — the
    /// correct initial state for an adjacency block, whose finite entries
    /// are all direct edges.
    pub fn from_dist(dist: ElemBlock<A::Semi>) -> Self {
        let pay = PayBlock::filled(dist.side(), A::empty_payload());
        AlgBlock { dist, pay }
    }

    /// Side length `b`.
    #[inline(always)]
    pub fn side(&self) -> usize {
        self.dist.side()
    }

    /// The element (distance/capacity/reachability) block.
    #[inline(always)]
    pub fn dist(&self) -> &ElemBlock<A::Semi> {
        &self.dist
    }

    /// Mutable access to the element block (tests and adapters).
    #[inline(always)]
    pub fn dist_mut(&mut self) -> &mut ElemBlock<A::Semi> {
        &mut self.dist
    }

    /// The payload plane (the parent block, for tracking algebras).
    #[inline(always)]
    pub fn via(&self) -> &PayBlock<A::Payload> {
        &self.pay
    }

    /// Mutable access to the payload plane (tests and adapters).
    #[inline(always)]
    pub fn via_mut(&mut self) -> &mut PayBlock<A::Payload> {
        &mut self.pay
    }

    /// Splits into the element block and the payload plane.
    pub fn into_parts(self) -> (ElemBlock<A::Semi>, PayBlock<A::Payload>) {
        (self.dist, self.pay)
    }

    /// Transposes both planes. Valid only on symmetric (undirected)
    /// instances — see [`PayBlock::transpose`].
    pub fn transpose(&self) -> Self {
        AlgBlock {
            dist: self.dist.transpose(),
            pay: self.pay.transpose(),
        }
    }

    /// Combined in-memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.dist.size_bytes() + self.pay.size_bytes()
    }

    /// Serializes both planes to the fixed-width wire format: a
    /// little-endian `u64` side length, the element plane, then the
    /// payload plane (zero bytes for `()` payloads). Bit-exact for
    /// floats — `NaN` payloads and `-0.0` survive unchanged — which is
    /// what makes checkpoint/resume reproduce an uninterrupted solve
    /// exactly.
    pub fn to_wire_bytes(&self) -> bytes::Bytes {
        use crate::serialize::Wire;
        let b = self.side();
        let mut buf = bytes::BytesMut::with_capacity(
            8 + b * b * (<Elem<A> as Wire>::WIDTH + <A::Payload as Wire>::WIDTH),
        );
        bytes::BufMut::put_u64_le(&mut buf, b as u64);
        crate::serialize::encode_plane(self.dist.data(), &mut buf);
        crate::serialize::encode_plane(self.pay.data(), &mut buf);
        buf.freeze()
    }

    /// Decodes both planes from the wire format of
    /// [`AlgBlock::to_wire_bytes`].
    pub fn from_wire_bytes(mut bytes: &[u8]) -> Result<Self, crate::serialize::DecodeError> {
        use crate::serialize::DecodeError;
        if bytes.len() < 8 {
            return Err(DecodeError::Truncated {
                expected: 8,
                actual: bytes.len(),
            });
        }
        let side = bytes::Buf::get_u64_le(&mut bytes);
        if side > crate::serialize::MAX_DIM {
            return Err(DecodeError::BadDimension(side));
        }
        let side = side as usize;
        let elems = crate::serialize::decode_plane::<Elem<A>>(&mut bytes, side * side)?;
        let pays = crate::serialize::decode_plane::<A::Payload>(&mut bytes, side * side)?;
        let mut blk = Self::from_dist(ElemBlock::from_vec(side, elems));
        blk.pay.data_mut().copy_from_slice(&pays);
        Ok(blk)
    }

    /// Pure product `a ⊗ b` (both plain element blocks): returns a fresh
    /// record whose payloads are the winning global `k`s.
    ///
    /// The result is **unseeded** (all-`0̄`): per the seeding contract in
    /// [`crate::parent`], the caller must eventually `⊕`-merge it with a
    /// seeded estimate of the same cells (as the repeated-squaring reduce
    /// does) when the index ranges overlap.
    pub fn min_plus_product(
        kernel: MinPlusKernel,
        a: &ElemBlock<A::Semi>,
        b: &ElemBlock<A::Semi>,
        offsets: Offsets,
    ) -> Self {
        let mut out = Self::from_dist(ElemBlock::zeros(a.side()));
        out.min_plus_into_self(kernel, a, b, offsets);
        out
    }

    /// Fold `self = self ⊕ (a ⊗ b)` — the Phase-3 update of the blocked
    /// solvers. `a` and `b` are plain element blocks (staged copies);
    /// only `self` carries payloads.
    pub fn min_plus_into_self(
        &mut self,
        kernel: MinPlusKernel,
        a: &ElemBlock<A::Semi>,
        b: &ElemBlock<A::Semi>,
        offsets: Offsets,
    ) {
        let n = self.side();
        assert_eq!(n, a.side());
        assert_eq!(n, b.side());
        A::fold_product(
            kernel,
            a.data(),
            b.data(),
            self.dist.data_mut(),
            self.pay.data_mut(),
            n,
            offsets,
        );
    }

    /// `self = self ⊕ (self ⊗ other)` (pivot-column update), built in
    /// scratch and folded in under strict improvement, so a tie never
    /// replaces an established payload.
    pub fn min_plus_assign(
        &mut self,
        kernel: MinPlusKernel,
        other: &ElemBlock<A::Semi>,
        offsets: Offsets,
    ) {
        let n = self.side();
        assert_eq!(n, other.side());
        A::product_assign(
            kernel,
            self.dist.data_mut(),
            self.pay.data_mut(),
            other.data(),
            n,
            offsets,
        );
    }

    /// `self = self ⊕ (other ⊗ self)` (pivot-row update), the left-operand
    /// mirror of [`AlgBlock::min_plus_assign`].
    pub fn min_plus_left_assign(
        &mut self,
        kernel: MinPlusKernel,
        other: &ElemBlock<A::Semi>,
        offsets: Offsets,
    ) {
        let n = self.side();
        assert_eq!(n, other.side());
        A::product_left_assign(
            kernel,
            self.dist.data_mut(),
            self.pay.data_mut(),
            other.data(),
            n,
            offsets,
        );
    }

    /// Element-wise join: cells where `other` strictly improves take
    /// `other`'s element *and* payload (the paper's `MatMin`, used by the
    /// repeated-squaring reduce).
    pub fn mat_min_assign(&mut self, other: &AlgBlock<A>) {
        assert_eq!(self.side(), other.side(), "block sides must match");
        A::join(
            self.dist.data_mut(),
            self.pay.data_mut(),
            other.dist.data(),
            other.pay.data(),
        );
    }

    /// In-place closure of a diagonal block whose row/column `0` is global
    /// vertex `diag_offset` (Floyd-Warshall for tropical algebras).
    pub fn floyd_warshall_in_place(&mut self, diag_offset: usize) {
        let n = self.side();
        A::closure_in_place(self.dist.data_mut(), self.pay.data_mut(), n, diag_offset);
    }

    /// Rank-1 update through global pivot `k_global` (the paper's
    /// `FloydWarshallUpdate`).
    pub fn fw_update_outer(&mut self, col_i: &[Elem<A>], col_j: &[Elem<A>], k_global: usize) {
        let n = self.side();
        A::rank1_update(
            self.dist.data_mut(),
            self.pay.data_mut(),
            col_i,
            col_j,
            n,
            k_global,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parent::NO_VIA;

    fn path4() -> Block {
        // 0 -1- 1 -1- 2 -1- 3 (identity diagonal).
        let mut a = Block::identity(4);
        for i in 0..3 {
            a.set(i, i + 1, 1.0);
            a.set(i + 1, i, 1.0);
        }
        a
    }

    #[test]
    fn from_dist_has_no_vias() {
        let t = TrackedBlock::from_dist(path4());
        assert_eq!(t.via().count_tracked(), 0);
        assert_eq!(t.dist().get(0, 1), 1.0);
    }

    #[test]
    fn fw_records_interior_vertices() {
        let mut t = TrackedBlock::from_dist(path4());
        t.floyd_warshall_in_place(0);
        assert_eq!(t.dist().get(0, 3), 3.0);
        // The via of (0, 3) must be an interior vertex: 1 or 2.
        let v = t.via().get(0, 3);
        assert!(v == 1 || v == 2, "via(0,3) = {v}");
        // Direct edges keep NO_VIA.
        assert_eq!(t.via().get(0, 1), NO_VIA);
        assert_eq!(t.via().get(0, 0), NO_VIA);
    }

    #[test]
    fn fw_offset_shifts_vias_globally() {
        let mut t = TrackedBlock::from_dist(path4());
        t.floyd_warshall_in_place(100);
        let v = t.via().get(0, 3);
        assert!(v == 101 || v == 102, "via must be global, got {v}");
    }

    const O0: Offsets = Offsets {
        k: 0,
        row: 0,
        col: 0,
    };

    #[test]
    fn seeded_assign_matches_untracked_distances() {
        let a = path4();
        let b = path4();
        for kernel in [
            MinPlusKernel::Auto,
            MinPlusKernel::Naive,
            MinPlusKernel::Branchless,
            MinPlusKernel::Packed,
        ] {
            let mut t = TrackedBlock::from_dist(a.clone());
            t.min_plus_assign(kernel, &b, O0);
            let mut want = a.clone();
            want.min_plus_assign(&b);
            assert_eq!(t.dist(), &want, "kernel {kernel:?}");
            // (0,2) closes through 1.
            assert_eq!(t.via().get(0, 2), 1, "kernel {kernel:?}");
            // The direct edge keeps NO_VIA.
            assert_eq!(t.via().get(0, 1), NO_VIA, "kernel {kernel:?}");
        }
    }

    #[test]
    fn unseeded_product_skips_degenerate_terms_and_merge_recovers_them() {
        // Unseeded product of a block against itself: the k == i and
        // k == j terms (through exact-zero diagonal cells) would record
        // vias the path expansion cannot terminate on; the guards must
        // drop them, and min-merging with the seeded estimate (the
        // repeated-squaring reduce shape) must recover the full result.
        let a = path4();
        let prod = TrackedBlock::min_plus_product(MinPlusKernel::Naive, &a, &a, O0);
        for i in 0..4 {
            for j in 0..4 {
                let v = prod.via().get(i, j);
                assert!(
                    v == NO_VIA || (v as usize != i && v as usize != j),
                    "degenerate via {v} at ({i},{j})"
                );
            }
        }
        let mut merged = TrackedBlock::from_dist(a.clone());
        merged.mat_min_assign(&prod);
        let mut want = a.clone();
        want.mat_min_assign(&a.min_plus(&a));
        assert_eq!(merged.dist(), &want);
        assert_eq!(merged.dist().get(0, 2), 2.0);
    }

    #[test]
    fn assign_folds_under_strict_less() {
        // min_plus_assign must not replace the via when the product only
        // ties the current distance.
        let mut t = TrackedBlock::from_dist(path4());
        t.floyd_warshall_in_place(0);
        let before = t.clone();
        // Squaring a closed block changes nothing.
        t.min_plus_assign(MinPlusKernel::Auto, &before.dist().clone(), O0);
        assert_eq!(t, before);
    }

    #[test]
    fn left_and_right_assign_match_manual_products() {
        let a = path4();
        let mut closed = a.clone();
        closed.floyd_warshall_in_place();

        let mut right = TrackedBlock::from_dist(a.clone());
        right.min_plus_assign(MinPlusKernel::Auto, &closed, O0);
        let mut manual = a.clone();
        manual.min_plus_assign(&closed);
        assert_eq!(right.dist(), &manual);

        let mut left = TrackedBlock::from_dist(a.clone());
        left.min_plus_left_assign(MinPlusKernel::Auto, &closed, O0);
        let mut manual = a.clone();
        manual.min_plus_left_assign(&closed);
        assert_eq!(left.dist(), &manual);
    }

    #[test]
    fn mat_min_takes_strictly_smaller_with_via() {
        let mut x = TrackedBlock::from_dist(Block::filled(2, 5.0));
        let mut y = TrackedBlock::from_dist(Block::filled(2, 5.0));
        y.dist_mut().set(0, 1, 3.0);
        y.via_mut().set(0, 1, 7);
        y.dist_mut().set(1, 0, 5.0); // tie: must NOT move the via
        y.via_mut().set(1, 0, 9);
        x.mat_min_assign(&y);
        assert_eq!(x.dist().get(0, 1), 3.0);
        assert_eq!(x.via().get(0, 1), 7);
        assert_eq!(x.via().get(1, 0), NO_VIA, "tie must keep the old via");
    }

    #[test]
    fn fw_update_outer_tracks_pivot() {
        let mut t = TrackedBlock::from_dist(Block::filled(2, 10.0));
        t.fw_update_outer(&[1.0, 4.0], &[2.0, 3.0], 42);
        assert_eq!(t.dist().get(0, 0), 3.0);
        assert_eq!(t.via().get(0, 0), 42);
        // No improvement, no via.
        let before = t.clone();
        t.fw_update_outer(&[INF, INF], &[0.0, 0.0], 7);
        assert_eq!(t, before);
    }

    #[test]
    fn transpose_mirrors_both_halves() {
        let mut t = TrackedBlock::from_dist(path4());
        t.floyd_warshall_in_place(0);
        let tt = t.transpose();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(tt.dist().get(i, j), t.dist().get(j, i));
                assert_eq!(tt.via().get(i, j), t.via().get(j, i));
            }
        }
    }

    #[test]
    fn tropical_algblock_matches_plain_block_bit_exactly() {
        // The Tropical algebra must be indistinguishable from the plain
        // f64 fast path on every entry point.
        let a = path4();
        let mut closed = a.clone();
        closed.floyd_warshall_in_place();

        let mut alg = AlgBlock::<Tropical>::from_dist(a.clone());
        alg.floyd_warshall_in_place(0);
        assert_eq!(alg.dist(), &closed);

        let mut alg = AlgBlock::<Tropical>::from_dist(a.clone());
        alg.min_plus_assign(MinPlusKernel::Auto, &closed, O0);
        let mut plain = a.clone();
        plain.min_plus_assign(&closed);
        assert_eq!(alg.dist(), &plain);

        let mut alg = AlgBlock::<Tropical>::from_dist(a.clone());
        alg.min_plus_into_self(MinPlusKernel::Auto, &closed, &closed, O0);
        let mut plain = a.clone();
        plain.min_plus_into_self(&closed, &closed);
        assert_eq!(alg.dist(), &plain);
    }

    #[test]
    fn widest_closure_picks_fattest_route() {
        // 0 -5- 1 -3- 2 with a thin 0 -1- 2 pipe.
        let mut blk = ElemBlock::<BottleneckF64>::identity(3);
        blk.set(0, 1, 5.0);
        blk.set(1, 0, 5.0);
        blk.set(1, 2, 3.0);
        blk.set(2, 1, 3.0);
        blk.set(0, 2, 1.0);
        blk.set(2, 0, 1.0);
        let mut alg = AlgBlock::<Widest>::from_dist(blk);
        alg.floyd_warshall_in_place(0);
        assert_eq!(alg.dist().get(0, 2), 3.0);
        assert_eq!(alg.dist().get(2, 0), 3.0);
    }

    #[test]
    fn reachability_closure_is_transitive() {
        let mut blk = ElemBlock::<BoolSemiring>::identity(4);
        blk.set(0, 1, true);
        blk.set(1, 2, true);
        let mut alg = AlgBlock::<Reachability>::from_dist(blk);
        alg.floyd_warshall_in_place(0);
        assert!(alg.dist().get(0, 2));
        assert!(!alg.dist().get(2, 0));
        assert!(!alg.dist().get(0, 3));
    }

    #[test]
    fn tracked_widest_records_interior_vertex_and_matches_untracked() {
        // 0 -5- 1 -3- 2 with a thin 0 -1- 2 pipe: widest 0↔2 route is via 1.
        let mut blk = ElemBlock::<BottleneckF64>::identity(3);
        blk.set(0, 1, 5.0);
        blk.set(1, 0, 5.0);
        blk.set(1, 2, 3.0);
        blk.set(2, 1, 3.0);
        blk.set(0, 2, 1.0);
        blk.set(2, 0, 1.0);
        let mut plain = AlgBlock::<Widest>::from_dist(blk.clone());
        plain.floyd_warshall_in_place(0);
        let mut tracked = AlgBlock::<TrackedWidest>::from_dist(blk);
        tracked.floyd_warshall_in_place(0);
        assert_eq!(tracked.dist().data(), plain.dist().data());
        assert_eq!(tracked.dist().get(0, 2), 3.0);
        assert_eq!(tracked.via().get(0, 2), 1);
        assert_eq!(tracked.via().get(0, 1), NO_VIA, "direct edge keeps NO_VIA");
    }

    #[test]
    fn tracked_reachability_records_interior_vertex() {
        let mut blk = ElemBlock::<BoolSemiring>::identity(4);
        blk.set(0, 1, true);
        blk.set(1, 0, true);
        blk.set(1, 2, true);
        blk.set(2, 1, true);
        let mut tracked = AlgBlock::<TrackedReachability>::from_dist(blk);
        tracked.floyd_warshall_in_place(0);
        assert!(tracked.dist().get(0, 2));
        assert_eq!(tracked.via().get(0, 2), 1);
        assert_eq!(tracked.via().get(0, 1), NO_VIA);
        assert!(!tracked.dist().get(0, 3));
        assert_eq!(tracked.via().get(0, 3), NO_VIA);
    }

    #[test]
    fn generic_default_hooks_match_tracked_kernels_on_tropical() {
        // Run the trait's *default* loops over a tracked-like shim algebra
        // and compare with the specialized tracked kernels: same
        // distances, same strict-< via discipline.
        #[derive(Clone, Copy)]
        struct SlowTracked;
        impl PathAlgebra for SlowTracked {
            type Semi = TropicalF64;
            type Payload = u32;
            const TRACKS: bool = true;
            const NAME: &'static str = "tropical+argmin (generic loops)";
            fn empty_payload() -> u32 {
                NO_VIA
            }
            fn payload_for(k_global: usize) -> u32 {
                k_global as u32
            }
            // No overrides: exercise every default body.
        }

        let a = path4();
        let o = Offsets {
            k: 8,
            row: 0,
            col: 4,
        };
        let mut fast = TrackedBlock::from_dist(a.clone());
        fast.min_plus_into_self(MinPlusKernel::Naive, &a, &a, o);
        let mut slow = AlgBlock::<SlowTracked>::from_dist(a.clone());
        slow.min_plus_into_self(MinPlusKernel::Naive, &a, &a, o);
        assert_eq!(fast.dist(), slow.dist());
        assert_eq!(fast.via().data(), slow.via().data());

        let mut fast = TrackedBlock::from_dist(a.clone());
        fast.floyd_warshall_in_place(12);
        let mut slow = AlgBlock::<SlowTracked>::from_dist(a.clone());
        slow.floyd_warshall_in_place(12);
        assert_eq!(fast.dist(), slow.dist());
        assert_eq!(fast.via().data(), slow.via().data());
    }

    fn random_cap_block(b: usize, seed: u64, density: f64) -> ElemBlock<BottleneckF64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        ElemBlock::from_fn(b, |i, j| {
            if i == j {
                INF
            } else if next() < density {
                1.0 + next() * 9.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn tracked_widest_distances_match_packed_widest() {
        // The degenerate-term audit for the (max, min) algebra: the
        // tracked generic loops and the packed untracked engine must
        // agree bit-exactly on capacities at a packed-tier side.
        for &b in &[7usize, 64, 129] {
            let caps = random_cap_block(b, 77, 0.3);
            let mut packed = AlgBlock::<Widest>::from_dist(caps.clone());
            packed.min_plus_assign(MinPlusKernel::Packed, &caps, O0);
            let mut tracked = AlgBlock::<TrackedWidest>::from_dist(caps.clone());
            tracked.min_plus_assign(MinPlusKernel::Naive, &caps, O0);
            assert_eq!(packed.dist().data(), tracked.dist().data(), "b={b}");

            let mut packed = AlgBlock::<Widest>::from_dist(caps.clone());
            packed.floyd_warshall_in_place(0);
            let mut tracked = AlgBlock::<TrackedWidest>::from_dist(caps);
            tracked.floyd_warshall_in_place(0);
            assert_eq!(packed.dist().data(), tracked.dist().data(), "fw b={b}");
        }
    }

    #[test]
    fn tracked_widest_tie_keeps_established_via() {
        // Reapplying a closed block only produces ties (max is
        // idempotent): neither widths nor vias may move.
        let caps = random_cap_block(16, 5, 0.4);
        let mut t = AlgBlock::<TrackedWidest>::from_dist(caps);
        t.floyd_warshall_in_place(0);
        let before = t.clone();
        let closed = before.dist().clone();
        t.min_plus_assign(MinPlusKernel::Auto, &closed, O0);
        assert_eq!(t, before, "tie via product must not rewrite vias");
        let mut again = before.clone();
        again.floyd_warshall_in_place(0);
        assert_eq!(again, before, "re-closing must be a fixpoint");
    }

    #[test]
    fn tracked_widest_join_tie_keeps_old_via() {
        let mut x = AlgBlock::<TrackedWidest>::from_dist(ElemBlock::filled(2, 5.0));
        let mut y = AlgBlock::<TrackedWidest>::from_dist(ElemBlock::filled(2, 5.0));
        y.dist_mut().set(0, 1, 7.0); // strictly wider: must take value + via
        y.via_mut().set(0, 1, 3);
        y.via_mut().set(1, 0, 9); // tie on 5.0: must NOT move the via
        x.mat_min_assign(&y);
        assert_eq!(x.dist().get(0, 1), 7.0);
        assert_eq!(x.via().get(0, 1), 3);
        assert_eq!(x.via().get(1, 0), NO_VIA, "tie must keep the old via");
    }

    #[test]
    fn tracked_widest_unseeded_product_skips_degenerate_terms() {
        // Same seeding contract as tropical (crate::parent): an unseeded
        // product must never record a via equal to the target's own row
        // or column vertex, and merging with the seeded estimate recovers
        // the two-hop widths.
        let caps = random_cap_block(8, 9, 0.4);
        let prod =
            AlgBlock::<TrackedWidest>::min_plus_product(MinPlusKernel::Naive, &caps, &caps, O0);
        for i in 0..8 {
            for j in 0..8 {
                let v = prod.via().get(i, j);
                assert!(
                    v == NO_VIA || (v as usize != i && v as usize != j),
                    "degenerate via {v} at ({i},{j})"
                );
            }
        }
        let mut merged = AlgBlock::<TrackedWidest>::from_dist(caps.clone());
        merged.mat_min_assign(&prod);
        let mut want = AlgBlock::<Widest>::from_dist(caps.clone());
        want.min_plus_assign(MinPlusKernel::Auto, &caps, O0);
        assert_eq!(merged.dist().data(), want.dist().data());
    }

    #[test]
    fn widest_algblock_hooks_match_generic_shim() {
        // The specialized (max, min) hooks must be bit-exact with the
        // trait's generic default loops on every entry point.
        #[derive(Clone, Copy)]
        struct SlowWidest;
        impl PathAlgebra for SlowWidest {
            type Semi = BottleneckF64;
            type Payload = ();
            const TRACKS: bool = false;
            const NAME: &'static str = "bottleneck (generic loops)";
            fn empty_payload() {}
            fn payload_for(_k_global: usize) {}
        }

        for &b in &[7usize, 64, 129] {
            let caps = random_cap_block(b, 33, 0.35);
            let other = random_cap_block(b, 34, 0.35);

            let mut fast = AlgBlock::<Widest>::from_dist(caps.clone());
            fast.min_plus_assign(MinPlusKernel::Auto, &other, O0);
            let mut slow = AlgBlock::<SlowWidest>::from_dist(caps.clone());
            slow.min_plus_assign(MinPlusKernel::Naive, &other, O0);
            assert_eq!(fast.dist().data(), slow.dist().data(), "assign b={b}");

            let mut fast = AlgBlock::<Widest>::from_dist(caps.clone());
            fast.floyd_warshall_in_place(0);
            let mut slow = AlgBlock::<SlowWidest>::from_dist(caps.clone());
            slow.floyd_warshall_in_place(0);
            assert_eq!(fast.dist().data(), slow.dist().data(), "fw b={b}");
        }
    }

    #[test]
    fn reachability_algblock_hooks_match_generic_shim() {
        #[derive(Clone, Copy)]
        struct SlowReach;
        impl PathAlgebra for SlowReach {
            type Semi = BoolSemiring;
            type Payload = ();
            const TRACKS: bool = false;
            const NAME: &'static str = "boolean (generic loops)";
            fn empty_payload() {}
            fn payload_for(_k_global: usize) {}
        }

        for &b in &[7usize, 63, 64, 65, 129] {
            let adj =
                ElemBlock::<BoolSemiring>::from_fn(b, |i, j| i == j || (i * 31 + j * 17) % 13 == 0);
            let other =
                ElemBlock::<BoolSemiring>::from_fn(b, |i, j| i == j || (i * 7 + j * 5) % 11 == 0);

            let mut fast = AlgBlock::<Reachability>::from_dist(adj.clone());
            fast.min_plus_assign(MinPlusKernel::Auto, &other, O0);
            let mut slow = AlgBlock::<SlowReach>::from_dist(adj.clone());
            slow.min_plus_assign(MinPlusKernel::Naive, &other, O0);
            assert_eq!(fast.dist().data(), slow.dist().data(), "assign b={b}");

            let mut fast = AlgBlock::<Reachability>::from_dist(adj.clone());
            fast.floyd_warshall_in_place(0);
            let mut slow = AlgBlock::<SlowReach>::from_dist(adj.clone());
            slow.floyd_warshall_in_place(0);
            assert_eq!(fast.dist().data(), slow.dist().data(), "fw b={b}");
        }
    }
}
