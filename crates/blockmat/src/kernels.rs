//! Low-level compute kernels: the bare-metal analogue of the paper's
//! NumPy / SciPy / Numba offloads, rebuilt as a small GEMM-style engine.
//!
//! There is **one** `f64` engine, generic over the element [`Semiring`]
//! (`S: Semiring<Elem = f64>`) and monomorphised for the two `f64` path
//! algebras — tropical *(min, +)* ([`TropicalF64`]: shortest paths) and
//! bottleneck *(max, min)* ([`crate::BottleneckF64`]: widest paths; Shinn &
//! Takaoka pose both as the same blocked algorithm over two semirings).
//! Three implementations of the fold-product `c = c ⊕ (a ⊗ b)` are
//! selected through [`MinPlusKernel`] / [`select`]:
//!
//! * `Naive` — textbook `i,k,j` loop with a conditional store; the
//!   correctness oracle,
//! * `Branchless` — same loop with an unconditional select-form `⊕` in
//!   the inner body (maps to `vminpd` / `vmaxpd`); the small-block fast
//!   path,
//! * `Packed` — register-blocked micro-kernel over a packed B-panel (the
//!   default from side 128 up).
//!
//! Every kernel is sequential: one block operation runs on one core, as
//! the paper's per-block `MatProd` / `FloydWarshall` offloads do, and the
//! executor (`sparklet` tasks) owns the cores.
//!
//! # Why the branchless `⊕` is safe here
//!
//! Neither algebra ever produces NaN: weights and capacities live in
//! `[0, ∞]`, `INF + x = INF`, and `-∞` cannot appear, so `a ⊗ b` is always
//! ordered and the select-form `⊕` is exact. Replacing the branchy
//! `if v < *cv { *cv = v }` (a conditional *store*, which blocks LLVM's
//! auto-vectorizer) with an unconditional store of `S::add(v, *cv)` lets
//! the inner loops compile to packed `vminpd`/`vaddpd` (tropical) or
//! `vmaxpd`/`vminpd` (bottleneck). The kernels are bit-exact against the
//! naive oracle because `min`/`max` over a set of non-NaN, non-`-0.0`
//! values is order-independent.
//!
//! The semirings write `⊕` in select form (`if a < b { a } else { b }`)
//! rather than `f64::min` deliberately: `f64::min` is IEEE `minNum`, whose
//! NaN handling costs LLVM a compare+blend on top of `vminpd`, while the
//! select is *exactly* the x86 `minpd(b, a)` semantics and compiles to the
//! single instruction. Every tier calls `S::add(candidate, current)` in
//! that operand order, so all of them resolve ties the same way.
//!
//! All product kernels *fold into* `c`: `c = c ⊕ (a ⊗ b)`, matching the
//! `MatProd`-then-`MatMin` composition the paper's algorithms rely on.
//! Passing an all-`0̄` `c` (all-[`INF`] for tropical) yields the pure
//! product.
//!
//! # Zero-allocation hot paths
//!
//! The engine keeps three thread-local scratch pools (product scratch,
//! packed B-panels, Floyd-Warshall pivot rows) so that steady-state solver
//! iterations perform no heap allocation: see [`with_scratch`] and the
//! fold entry points on [`Block`] (`min_plus_into_self`,
//! `min_plus_assign`, `min_plus_left_assign`).

use crate::block::{BitBlock, ElemBlock};
use crate::parent::{Offsets, ParentBlock, NO_VIA};
use crate::semiring::{Semiring, TropicalF64};
use crate::{Block, INF};
use std::cell::RefCell;

/// Depth of the `k`-band the packed kernel packs at a time. A 64-deep band
/// of `NR`-wide panels stays L1-resident on the paper's Skylake nodes and
/// on most contemporary x86-64 cores.
pub const TILE: usize = 64;

/// Register-block rows of the packed micro-kernel.
const MR: usize = 4;
/// Register-block columns of the packed micro-kernel (two AVX2 `f64×4`
/// vectors). `MR × NR` accumulators fill 8 of the 16 ymm registers.
const NR: usize = 8;

/// Block side below which packing overhead outweighs its benefit and the
/// plain branchless kernel wins (measured crossover on AVX2 hosts:
/// branchless and packed tie at side 128, branchless leads below).
const SMALL_SIDE: usize = 128;

/// Which fold-product implementation to run.
///
/// `Auto` resolves by block side via [`select`]; the explicit variants are
/// for benchmarks, ablations, and `SolverConfig` overrides. The tracked
/// (argmin-recording) algebras have a single row-streaming loop and the
/// boolean algebra a single bitset kernel, so there only `Naive` (the
/// oracle loop, boolean) is told apart from the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MinPlusKernel {
    /// Choose by block side: branchless below 128, packed from 128.
    #[default]
    Auto,
    /// Textbook `i,k,j` triple loop (the correctness oracle).
    Naive,
    /// Branchless `i,k,j` loop (select-form `⊕` inner body).
    Branchless,
    /// Register-blocked micro-kernel over packed B-panels.
    Packed,
}

/// Resolves the kernel the auto-dispatch runs for a given block side —
/// the one selector of the `f64` engine, shared by both algebras
/// (`vmaxpd`/`vminpd` are instruction-for-instruction symmetric to
/// `vminpd`/`vaddpd`, so the crossover is the same).
pub fn select(side: usize) -> MinPlusKernel {
    if side < SMALL_SIDE {
        MinPlusKernel::Branchless
    } else {
        MinPlusKernel::Packed
    }
}

// ---------------------------------------------------------------------------
// Thread-local scratch pools (zero steady-state allocation)
// ---------------------------------------------------------------------------

thread_local! {
    /// Product scratch for the `Block` fold entry points.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Packed B-panel storage for the packed kernel.
    static PACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Pivot-row copy for in-place Floyd-Warshall.
    static KROW: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Via scratch for the tracked fold entry points.
    static VIA_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn with_pool<R>(
    pool: &'static std::thread::LocalKey<RefCell<Vec<f64>>>,
    len: usize,
    f: impl FnOnce(&mut [f64]) -> R,
) -> R {
    pool.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            if buf.len() < len {
                buf.resize(len, INF);
            }
            f(&mut buf[..len])
        }
        // Reentrant use (shouldn't happen, but stay correct): fall back to
        // a one-off allocation rather than panicking on the double borrow.
        Err(_) => f(&mut vec![INF; len]),
    })
}

/// Runs `f` with a thread-local `f64` scratch buffer of at least `len`
/// elements. Contents are **unspecified on entry**; the caller must
/// initialize what it reads. The buffer persists per thread, so repeated
/// same-size calls perform no allocation.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    with_pool(&SCRATCH, len, f)
}

/// The `u32` twin of [`with_scratch`], used for via scratch by the tracked
/// fold entry points. Contents are likewise **unspecified on entry**.
pub fn with_via_scratch<R>(len: usize, f: impl FnOnce(&mut [u32]) -> R) -> R {
    VIA_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            if buf.len() < len {
                buf.resize(len, NO_VIA);
            }
            f(&mut buf[..len])
        }
        Err(_) => f(&mut vec![NO_VIA; len]),
    })
}

// ---------------------------------------------------------------------------
// Public block-level entry points
// ---------------------------------------------------------------------------

/// `c = min(c, a ⊗ b)` with the kernel chosen by [`select`].
pub fn min_plus_into(a: &Block, b: &Block, c: &mut Block) {
    min_plus_into_with(MinPlusKernel::Auto, a, b, c);
}

/// `c = c ⊕ (a ⊗ b)` with an explicit kernel choice, over either `f64`
/// algebra: `min(c, a + b)` on [`Block`]s, `max(c, min(a, b))` on
/// `ElemBlock<BottleneckF64>` capacity blocks.
pub fn min_plus_into_with<S: Semiring<Elem = f64>>(
    kernel: MinPlusKernel,
    a: &ElemBlock<S>,
    b: &ElemBlock<S>,
    c: &mut ElemBlock<S>,
) {
    let n = a.side();
    assert_eq!(n, b.side());
    assert_eq!(n, c.side());
    fold_slices_with::<S>(kernel, a.data(), b.data(), c.data_mut(), n);
}

// ---------------------------------------------------------------------------
// Slice-level implementations
// ---------------------------------------------------------------------------

/// Slice-level dispatch: `cd = cd ⊕ (ad ⊗ bd)` over `n × n` row-major
/// buffers. Used by the fold entry points to run against scratch buffers
/// without constructing a block.
pub(crate) fn fold_slices_with<S: Semiring<Elem = f64>>(
    kernel: MinPlusKernel,
    ad: &[f64],
    bd: &[f64],
    cd: &mut [f64],
    n: usize,
) {
    let kernel = if kernel == MinPlusKernel::Auto {
        select(n)
    } else {
        kernel
    };
    match kernel {
        MinPlusKernel::Naive => naive_rows::<S>(ad, bd, cd, n),
        MinPlusKernel::Branchless => branchless_rows::<S>(ad, bd, cd, n),
        MinPlusKernel::Packed => packed_rows::<S>(ad, bd, cd, n),
        MinPlusKernel::Auto => unreachable!("Auto resolved above"),
    }
}

/// `cd = cd ⊕ (cd ⊗ other)` — the pivot-column update. `cd` is both an
/// operand and the fold target, so the product is built in the reused
/// thread-local scratch buffer (no allocation in steady state) and then
/// joined in.
pub(crate) fn product_assign_slices<S: Semiring<Elem = f64>>(
    kernel: MinPlusKernel,
    cd: &mut [f64],
    other: &[f64],
    n: usize,
) {
    with_scratch(n * n, |scratch| {
        scratch.fill(S::zero());
        fold_slices_with::<S>(kernel, cd, other, scratch, n);
        join_slices::<S>(cd, scratch);
    });
}

/// `cd = cd ⊕ (other ⊗ cd)` — the pivot-row mirror of
/// [`product_assign_slices`].
pub(crate) fn product_left_assign_slices<S: Semiring<Elem = f64>>(
    kernel: MinPlusKernel,
    cd: &mut [f64],
    other: &[f64],
    n: usize,
) {
    with_scratch(n * n, |scratch| {
        scratch.fill(S::zero());
        fold_slices_with::<S>(kernel, other, cd, scratch, n);
        join_slices::<S>(cd, scratch);
    });
}

/// Element-wise join `cd = cd ⊕ od` (the paper's `MatMin`).
pub(crate) fn join_slices<S: Semiring<Elem = f64>>(cd: &mut [f64], od: &[f64]) {
    for (d, &o) in cd.iter_mut().zip(od) {
        *d = S::add(o, *d);
    }
}

/// Reference branchy loop (`i,k,j` order so the inner loop streams rows of
/// `b` and `c`) — the same comparison, term for term, as the generic
/// fallback loop a hook-free `PathAlgebra` over `S` runs.
fn naive_rows<S: Semiring<Elem = f64>>(ad: &[f64], bd: &[f64], cd: &mut [f64], n: usize) {
    for i in 0..n {
        for k in 0..n {
            let aik = ad[i * n + k];
            if aik == S::zero() {
                continue;
            }
            let brow = &bd[k * n..k * n + n];
            let crow = &mut cd[i * n..i * n + n];
            for j in 0..n {
                let v = S::mul(aik, brow[j]);
                if S::add(v, crow[j]) != crow[j] {
                    crow[j] = v;
                }
            }
        }
    }
}

fn branchless_rows<S: Semiring<Elem = f64>>(ad: &[f64], bd: &[f64], cd: &mut [f64], n: usize) {
    for i in 0..n {
        for k in 0..n {
            let aik = ad[i * n + k];
            if aik == S::zero() {
                continue;
            }
            let brow = &bd[k * n..k * n + n];
            let crow = &mut cd[i * n..i * n + n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv = S::add(S::mul(aik, bv), *cv);
            }
        }
    }
}

/// The packed register-blocked kernel.
///
/// For each [`TILE`]-deep `k`-band of `b`, the band is packed once into
/// `NR`-wide column panels (contiguous per `k`), then `MR × NR`
/// register-resident accumulator blocks sweep the `k` range before folding
/// into `c` — the GEMM treatment applied to a path semiring. Rows of `a`
/// whose `k`-segment is entirely `0̄` skip their micro-kernels (the
/// sparsity fast path that keeps early sparse iterations cheap).
fn packed_rows<S: Semiring<Elem = f64>>(ad: &[f64], bd: &[f64], cd: &mut [f64], n: usize) {
    let panels = n.div_ceil(NR);
    with_pool(&PACK, panels * TILE * NR, |bp| {
        for kk in (0..n).step_by(TILE) {
            let k_len = (n - kk).min(TILE);
            pack_panels(bd, bp, n, kk, k_len, panels, S::zero());
            let mut i = 0;
            while i < n {
                let m = (n - i).min(MR);
                // Sparsity fast path: `0̄` annihilates `⊗`, so if every `a`
                // row of this block is all-`0̄` over the k-range, no
                // micro-kernel can improve c. (`S::zero()` is written out
                // at each use, not hoisted into a local: as a constant it
                // holds no register, and with the 4×8 accumulators already
                // spilling on SSE2 one more live value costs the tropical
                // micro-kernel a measured 5–10%.)
                let any_path = (0..m).any(|r| {
                    ad[(i + r) * n + kk..(i + r) * n + kk + k_len]
                        .iter()
                        .any(|v| *v != S::zero())
                });
                if any_path {
                    match m {
                        4 => row_block::<S, 4>(ad, bp, cd, n, i, kk, k_len, panels),
                        3 => row_block::<S, 3>(ad, bp, cd, n, i, kk, k_len, panels),
                        2 => row_block::<S, 2>(ad, bp, cd, n, i, kk, k_len, panels),
                        _ => row_block::<S, 1>(ad, bp, cd, n, i, kk, k_len, panels),
                    }
                }
                i += m;
            }
        }
    });
}

/// Packs `b[kk..kk+k_len][0..n]` into `panels` NR-wide column panels:
/// panel `p` holds columns `p*NR..p*NR+NR` with the `NR` entries of each
/// `k` contiguous. Tail columns are padded with `pad` — the algebra's
/// additive identity ([`INF`] for tropical `min`, `0.0` for bottleneck
/// `max`), so padding lanes never win a fold.
fn pack_panels(
    bd: &[f64],
    bp: &mut [f64],
    n: usize,
    kk: usize,
    k_len: usize,
    panels: usize,
    pad: f64,
) {
    for p in 0..panels {
        let j0 = p * NR;
        let w = (n - j0).min(NR);
        let panel = &mut bp[p * k_len * NR..(p + 1) * k_len * NR];
        for k in 0..k_len {
            let src = &bd[(kk + k) * n + j0..(kk + k) * n + j0 + w];
            let dst = &mut panel[k * NR..k * NR + NR];
            dst[..w].copy_from_slice(src);
            for d in dst[w..].iter_mut() {
                *d = pad;
            }
        }
    }
}

/// Runs the `M × NR` micro-kernel for rows `i..i+M` against every packed
/// panel of the current `k`-band, folding the accumulators into `c`. One
/// `⊗` and one `⊕` per step: `vaddpd` + `vminpd` for tropical, `vminpd` +
/// `vmaxpd` for bottleneck.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn row_block<S: Semiring<Elem = f64>, const M: usize>(
    ad: &[f64],
    bp: &[f64],
    cd: &mut [f64],
    n: usize,
    i: usize,
    kk: usize,
    k_len: usize,
    panels: usize,
) {
    let arows: [&[f64]; M] =
        std::array::from_fn(|r| &ad[(i + r) * n + kk..(i + r) * n + kk + k_len]);
    for p in 0..panels {
        let j0 = p * NR;
        let w = (n - j0).min(NR);
        let panel = &bp[p * k_len * NR..(p + 1) * k_len * NR];

        // Accumulate the k-range entirely in registers: M×NR f64 fits the
        // AVX2 register file for M = 4, NR = 8.
        let mut acc = [[S::zero(); NR]; M];
        for k in 0..k_len {
            let bk: &[f64; NR] = panel[k * NR..k * NR + NR].try_into().unwrap();
            for r in 0..M {
                let aik = arows[r][k];
                for c in 0..NR {
                    acc[r][c] = S::add(S::mul(aik, bk[c]), acc[r][c]);
                }
            }
        }
        // Fold into c (only the w real columns of the tail panel).
        for (r, accr) in acc.iter().enumerate() {
            let row0 = (i + r) * n + j0;
            let crow = &mut cd[row0..row0 + w];
            for (cv, &av) in crow.iter_mut().zip(accr[..w].iter()) {
                *cv = S::add(av, *cv);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tracked (argmin-recording) kernels
// ---------------------------------------------------------------------------

/// Tracked `c = min(c, a ⊗ b)`: wherever a term `a(i,k) + b(k,j)` wins
/// under strict `<`, `cvia(i,j)` records the **global** id of the winning
/// intermediate vertex, `offsets.k + k`.
///
/// Terms whose global `k` equals the target's global row or column are
/// skipped entirely: they pass through a diagonal cell (exactly `0.0` on
/// APSP inputs), so they only restate an estimate of `(i, j)` one operand
/// already holds, and recording them would produce a degenerate via the
/// path expansion cannot terminate on. See the `parent` module docs for
/// the seeding contract this relies on.
///
/// There is one tracked loop and no [`MinPlusKernel`] choice: tracking an
/// argmin forces a conditional store per improvement, which defeats the
/// packed micro-kernel's register accumulation (packing `u32` argmins
/// alongside the `f64` accumulators costs more than it saves), and the
/// branchy argmin update, not memory traffic, is the bottleneck — so the
/// plain row-streaming loop is the tracked engine at every side.
pub fn min_plus_into_tracked(
    a: &Block,
    b: &Block,
    c: &mut Block,
    cvia: &mut ParentBlock,
    offsets: Offsets,
) {
    let n = a.side();
    assert_eq!(n, b.side());
    assert_eq!(n, c.side());
    assert_eq!(n, cvia.side());
    min_plus_slices_tracked(
        a.data(),
        b.data(),
        c.data_mut(),
        cvia.data_mut(),
        n,
        offsets,
    );
}

/// The shared tracked inner loop: relax one contiguous column span of one
/// row of `c` against `brow`, recording `kg` on strict improvement.
#[inline(always)]
fn relax_span(crow: &mut [f64], vrow: &mut [u32], brow: &[f64], aik: f64, kg: u32) {
    for ((cval, vval), &bv) in crow.iter_mut().zip(vrow.iter_mut()).zip(brow) {
        let v = aik + bv;
        if v < *cval {
            *cval = v;
            *vval = kg;
        }
    }
}

/// Relax one row of `c`, skipping the single column whose global id
/// equals `k_global` (the degenerate `k == j` term).
#[inline(always)]
fn relax_row_guarded(
    crow: &mut [f64],
    vrow: &mut [u32],
    brow: &[f64],
    aik: f64,
    k_global: usize,
    col_offset: usize,
) {
    let kg = k_global as u32;
    // Local index of the degenerate column, if it falls in this block.
    match k_global
        .checked_sub(col_offset)
        .filter(|&jb| jb < crow.len())
    {
        None => relax_span(crow, vrow, brow, aik, kg),
        Some(jb) => {
            relax_span(&mut crow[..jb], &mut vrow[..jb], &brow[..jb], aik, kg);
            relax_span(
                &mut crow[jb + 1..],
                &mut vrow[jb + 1..],
                &brow[jb + 1..],
                aik,
                kg,
            );
        }
    }
}

/// Slice-level [`min_plus_into_tracked`] — the entry point the tracked
/// path-algebra dispatch uses.
pub(crate) fn min_plus_slices_tracked(
    ad: &[f64],
    bd: &[f64],
    cd: &mut [f64],
    cv: &mut [u32],
    n: usize,
    o: Offsets,
) {
    for i in 0..n {
        let i_global = o.row + i;
        for k in 0..n {
            let k_global = o.k + k;
            if k_global == i_global {
                continue;
            }
            let aik = ad[i * n + k];
            if aik == INF {
                continue;
            }
            let brow = &bd[k * n..k * n + n];
            let crow = &mut cd[i * n..i * n + n];
            let vrow = &mut cv[i * n..i * n + n];
            relax_row_guarded(crow, vrow, brow, aik, k_global, o.col);
        }
    }
}

/// Tracked in-place Floyd-Warshall: like [`floyd_warshall_in_place`], but
/// every strict improvement through pivot `k` records the global via
/// `diag_offset + k`. The block must sit on the global diagonal (rows and
/// columns both start at `diag_offset`).
pub fn floyd_warshall_in_place_tracked(
    block: &mut Block,
    via: &mut ParentBlock,
    diag_offset: usize,
) {
    let n = block.side();
    assert_eq!(n, via.side());
    fw_in_place_tracked_slices(block.data_mut(), via.data_mut(), n, diag_offset);
}

/// Slice-level [`floyd_warshall_in_place_tracked`] — the entry point the
/// tracked path-algebra dispatch uses.
pub(crate) fn fw_in_place_tracked_slices(
    d: &mut [f64],
    vd: &mut [u32],
    n: usize,
    diag_offset: usize,
) {
    with_pool(&KROW, n, |krow| {
        for k in 0..n {
            krow.copy_from_slice(&d[k * n..k * n + n]);
            let kg = (diag_offset + k) as u32;
            for i in 0..n {
                if i == k {
                    continue;
                }
                let dik = d[i * n + k];
                if dik == INF {
                    continue;
                }
                let row = &mut d[i * n..i * n + n];
                let vrow = &mut vd[i * n..i * n + n];
                for ((rv, vv), &kv) in row.iter_mut().zip(vrow.iter_mut()).zip(krow.iter()) {
                    let v = dik + kv;
                    if v < *rv {
                        *rv = v;
                        *vv = kg;
                    }
                }
            }
        }
    });
}

/// Tracked rank-1 Floyd-Warshall update: strict improvements through the
/// (single, global) pivot `k_global` record it as the via.
pub fn fw_update_outer_tracked(
    block: &mut Block,
    via: &mut ParentBlock,
    col_i: &[f64],
    col_j: &[f64],
    k_global: usize,
) {
    let n = block.side();
    assert_eq!(n, via.side());
    fw_update_outer_tracked_slices(block.data_mut(), via.data_mut(), col_i, col_j, n, k_global);
}

/// Slice-level [`fw_update_outer_tracked`] — the entry point the tracked
/// path-algebra dispatch uses.
pub(crate) fn fw_update_outer_tracked_slices(
    d: &mut [f64],
    vd: &mut [u32],
    col_i: &[f64],
    col_j: &[f64],
    n: usize,
    k_global: usize,
) {
    assert_eq!(col_i.len(), n, "col_i length must equal block side");
    assert_eq!(col_j.len(), n, "col_j length must equal block side");
    let kg = k_global as u32;
    for (i, &ci) in col_i.iter().enumerate() {
        if ci == INF {
            continue;
        }
        let row = &mut d[i * n..i * n + n];
        let vrow = &mut vd[i * n..i * n + n];
        for ((rv, vv), &cj) in row.iter_mut().zip(vrow.iter_mut()).zip(col_j) {
            let v = ci + cj;
            if v < *rv {
                *rv = v;
                *vv = kg;
            }
        }
    }
}

/// `dist/via = (sd, sv)` where `sd` is strictly smaller — the shared fold
/// of the tracked two-step updates and the tracked `MatMin`.
pub(crate) fn fold_tracked(dist: &mut [f64], via: &mut [u32], sd: &[f64], sv: &[u32]) {
    for ((d, v), (&s, &p)) in dist.iter_mut().zip(via.iter_mut()).zip(sd.iter().zip(sv)) {
        if s < *d {
            *d = s;
            *v = p;
        }
    }
}

// ---------------------------------------------------------------------------
// Floyd-Warshall kernels
// ---------------------------------------------------------------------------

/// In-place Floyd-Warshall over a square block.
///
/// The `k`-loop cannot be reordered, but each `k` step is a rank-1 min-plus
/// update, so rows are independent. The pivot row is copied into a
/// thread-local scratch buffer (reused across `k` and across calls — no
/// per-`k` allocation) both to break the `i == k` aliasing and to let the
/// branchless inner loop vectorize.
pub fn floyd_warshall_in_place(block: &mut Block) {
    let n = block.side();
    fw_in_place_slices::<TropicalF64>(block.data_mut(), n);
}

/// Slice-level in-place closure over an `n × n` row-major buffer:
/// `d[i][j] = d[i][j] ⊕ (d[i][k] ⊗ d[k][j])` for every pivot `k` —
/// [`floyd_warshall_in_place`] for tropical, the widest-path closure for
/// bottleneck. The entry point the path-algebra dispatch uses.
pub(crate) fn fw_in_place_slices<S: Semiring<Elem = f64>>(d: &mut [f64], n: usize) {
    with_pool(&KROW, n, |krow| {
        for k in 0..n {
            krow.copy_from_slice(&d[k * n..k * n + n]);
            for i in 0..n {
                let dik = d[i * n + k];
                if dik == S::zero() {
                    continue;
                }
                let row = &mut d[i * n..i * n + n];
                for (rv, &kv) in row.iter_mut().zip(krow.iter()) {
                    *rv = S::add(S::mul(dik, kv), *rv);
                }
            }
        }
    });
}

/// The paper's `FloydWarshallUpdate`: `block[i][j] = min(block[i][j],
/// col_i[i] + col_j[j])` — a rank-1 min-plus product folded in place.
pub fn fw_update_outer(block: &mut Block, col_i: &[f64], col_j: &[f64]) {
    let n = block.side();
    rank1_slices::<TropicalF64>(block.data_mut(), col_i, col_j, n);
}

/// Slice-level rank-1 update `d[i][j] = d[i][j] ⊕ (col_i[i] ⊗ col_j[j])`
/// — the entry point the path-algebra dispatch uses.
pub(crate) fn rank1_slices<S: Semiring<Elem = f64>>(
    d: &mut [f64],
    col_i: &[f64],
    col_j: &[f64],
    n: usize,
) {
    assert_eq!(col_i.len(), n, "col_i length must equal block side");
    assert_eq!(col_j.len(), n, "col_j length must equal block side");
    for (i, &ci) in col_i.iter().enumerate() {
        if ci == S::zero() {
            continue;
        }
        let row = &mut d[i * n..i * n + n];
        for (rv, &cj) in row.iter_mut().zip(col_j) {
            *rv = S::add(S::mul(ci, cj), *rv);
        }
    }
}

// ---------------------------------------------------------------------------
// Bitset boolean (reachability) kernels
// ---------------------------------------------------------------------------

thread_local! {
    /// Word scratch for the bitset boolean kernels (packed operand and
    /// product planes).
    static BITS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a thread-local `u64` word-scratch buffer of at least
/// `len` words. Contents are **unspecified on entry**, like
/// [`with_scratch`].
pub(crate) fn with_word_scratch<R>(len: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
    BITS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            if buf.len() < len {
                buf.resize(len, 0);
            }
            f(&mut buf[..len])
        }
        Err(_) => f(&mut vec![0u64; len]),
    })
}

/// The word-level `(∨, ∧)` product core: `cw |= aw ⊗ bw`, all three packed
/// `n`-row planes of `wpr` words per row.
///
/// For each set bit `a(i, k)` (found via `trailing_zeros`, so sparse rows
/// cost only their popcount), row `k` of `b` is OR-ed word-wide into row
/// `i` of `c` — 64 column relaxations per instruction. Tail bits past
/// column `n` are zero in every packed row (the [`BitBlock`] invariant),
/// so they stay zero in `c`.
fn bool_mul_words(aw: &[u64], bw: &[u64], cw: &mut [u64], n: usize, wpr: usize) {
    for i in 0..n {
        let arow = &aw[i * wpr..(i + 1) * wpr];
        let crow = &mut cw[i * wpr..(i + 1) * wpr];
        for (wi, &word) in arow.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let k = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let brow = &bw[k * wpr..(k + 1) * wpr];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv |= bv;
                }
            }
        }
    }
}

/// `c = c ∨ (a ⊗ b)` over packed [`BitBlock`] planes — the public
/// bitset-product entry point.
pub fn bool_or_product_into(a: &BitBlock, b: &BitBlock, c: &mut BitBlock) {
    let n = a.side();
    assert_eq!(n, b.side());
    assert_eq!(n, c.side());
    let wpr = a.words_per_row();
    bool_mul_words(a.words(), b.words(), c.words_mut(), n, wpr);
}

/// In-place boolean transitive closure of a packed [`BitBlock`]: the
/// word-level Floyd-Warshall. For each pivot `k`, its row is copied out
/// (breaking the `i == k` alias exactly like the tropical pivot-row
/// scratch) and OR-ed into every row `i` with bit `(i, k)` set.
pub fn bool_closure_in_place(c: &mut BitBlock) {
    let n = c.side();
    let wpr = c.words_per_row();
    let cw = c.words_mut();
    with_word_scratch(wpr.max(1), |krow| {
        for k in 0..n {
            krow[..wpr].copy_from_slice(&cw[k * wpr..(k + 1) * wpr]);
            let (kw, kbit) = (k / 64, k % 64);
            for i in 0..n {
                if cw[i * wpr + kw] >> kbit & 1 == 1 {
                    let crow = &mut cw[i * wpr..(i + 1) * wpr];
                    for (cv, &kv) in crow.iter_mut().zip(krow.iter()) {
                        *cv |= kv;
                    }
                }
            }
        }
    });
}

/// Reference element-at-a-time boolean fold — bit-identical to the
/// generic fallback loop a hook-free `PathAlgebra` over
/// [`crate::semiring::BoolSemiring`] runs; the oracle the bitset kernels
/// are validated against.
pub(crate) fn bool_naive_fold_slices(ad: &[bool], bd: &[bool], cd: &mut [bool], n: usize) {
    for i in 0..n {
        for k in 0..n {
            if !ad[i * n + k] {
                continue;
            }
            let brow = &bd[k * n..k * n + n];
            let crow = &mut cd[i * n..i * n + n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv |= bv;
            }
        }
    }
}

/// Slice-level bitset fold `cd = cd ∨ (ad ⊗ bd)` over `n × n` boolean
/// planes: pack at the block boundary, run the word kernel, unpack. The
/// packed planes live in the thread-local word pool, so steady-state calls
/// allocate nothing.
pub(crate) fn bool_fold_slices(ad: &[bool], bd: &[bool], cd: &mut [bool], n: usize) {
    let wpr = BitBlock::words_per_row_for(n);
    with_word_scratch(3 * n * wpr, |words| {
        let (aw, rest) = words.split_at_mut(n * wpr);
        let (bw, cw) = rest.split_at_mut(n * wpr);
        BitBlock::pack_slice(ad, n, aw);
        BitBlock::pack_slice(bd, n, bw);
        BitBlock::pack_slice(cd, n, cw);
        bool_mul_words(aw, bw, cw, n, wpr);
        BitBlock::unpack_slice(cw, n, cd);
    });
}

/// Slice-level bitset pivot-column update `cd = cd ∨ (cd ⊗ other)`. The
/// product reads the packed snapshot of `cd`, so the result matches the
/// two-step scratch-product-then-join contract bit for bit (no
/// Gauss-Seidel early propagation).
pub(crate) fn bool_product_assign_slices(cd: &mut [bool], other: &[bool], n: usize) {
    let wpr = BitBlock::words_per_row_for(n);
    with_word_scratch(3 * n * wpr, |words| {
        let (aw, rest) = words.split_at_mut(n * wpr);
        let (bw, pw) = rest.split_at_mut(n * wpr);
        BitBlock::pack_slice(cd, n, aw);
        BitBlock::pack_slice(other, n, bw);
        pw.fill(0);
        bool_mul_words(aw, bw, pw, n, wpr);
        for (p, &a) in pw.iter_mut().zip(aw.iter()) {
            *p |= a;
        }
        BitBlock::unpack_slice(pw, n, cd);
    });
}

/// Slice-level bitset pivot-row update `cd = cd ∨ (other ⊗ cd)` — the
/// left-operand mirror of [`bool_product_assign_slices`].
pub(crate) fn bool_product_left_assign_slices(cd: &mut [bool], other: &[bool], n: usize) {
    let wpr = BitBlock::words_per_row_for(n);
    with_word_scratch(3 * n * wpr, |words| {
        let (aw, rest) = words.split_at_mut(n * wpr);
        let (bw, pw) = rest.split_at_mut(n * wpr);
        BitBlock::pack_slice(other, n, aw);
        BitBlock::pack_slice(cd, n, bw);
        pw.fill(0);
        bool_mul_words(aw, bw, pw, n, wpr);
        for (p, &b) in pw.iter_mut().zip(bw.iter()) {
            *p |= b;
        }
        BitBlock::unpack_slice(pw, n, cd);
    });
}

/// Slice-level bitset in-place closure over an `n × n` boolean plane.
pub(crate) fn bool_closure_slices(cd: &mut [bool], n: usize) {
    let wpr = BitBlock::words_per_row_for(n);
    with_word_scratch(n * wpr + wpr.max(1), |words| {
        let (cw, krow) = words.split_at_mut(n * wpr);
        BitBlock::pack_slice(cd, n, cw);
        for k in 0..n {
            krow[..wpr].copy_from_slice(&cw[k * wpr..(k + 1) * wpr]);
            let (kw, kbit) = (k / 64, k % 64);
            for i in 0..n {
                if cw[i * wpr + kw] >> kbit & 1 == 1 {
                    let crow = &mut cw[i * wpr..(i + 1) * wpr];
                    for (cv, &kv) in crow.iter_mut().zip(krow.iter()) {
                        *cv |= kv;
                    }
                }
            }
        }
        BitBlock::unpack_slice(cw, n, cd);
    });
}

/// Slice-level boolean rank-1 update: `cd[i][j] |= col_i[i] ∧ col_j[j]` —
/// a row-wide OR of `col_j` into every row whose `col_i` bit is set.
pub(crate) fn bool_rank1_slices(cd: &mut [bool], col_i: &[bool], col_j: &[bool], n: usize) {
    assert_eq!(col_i.len(), n, "col_i length must equal block side");
    assert_eq!(col_j.len(), n, "col_j length must equal block side");
    for (i, &ci) in col_i.iter().enumerate() {
        if !ci {
            continue;
        }
        let row = &mut cd[i * n..i * n + n];
        for (rv, &cj) in row.iter_mut().zip(col_j) {
            *rv |= cj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::BottleneckF64;

    fn random_block(b: usize, seed: u64, density: f64) -> Block {
        // Tiny xorshift so the crate's unit tests don't need `rand`.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        Block::from_fn(b, |i, j| {
            if i == j {
                0.0
            } else if next() < density {
                1.0 + next() * 9.0
            } else {
                INF
            }
        })
    }

    const ALL_KERNELS: [MinPlusKernel; 3] = [
        MinPlusKernel::Branchless,
        MinPlusKernel::Packed,
        MinPlusKernel::Auto,
    ];

    #[test]
    fn every_kernel_matches_naive_bit_exactly() {
        for &b in &[1usize, 2, 7, 31, 32, 63, 64, 65, 129, 130] {
            let a = random_block(b, 42, 0.3);
            let x = random_block(b, 43, 0.3);
            let mut oracle = Block::infinity(b);
            min_plus_into_with(MinPlusKernel::Naive, &a, &x, &mut oracle);
            for kernel in ALL_KERNELS {
                let mut c = Block::infinity(b);
                min_plus_into_with(kernel, &a, &x, &mut c);
                assert_eq!(oracle, c, "b={b} kernel={kernel:?}");
            }
        }
    }

    #[test]
    fn packed_handles_all_inf_operands() {
        for &b in &[1usize, 9, 64, 65] {
            let z = Block::infinity(b);
            let r = random_block(b, 3, 0.5);
            for (a, x) in [(&z, &r), (&r, &z), (&z, &z)] {
                let mut c = r.clone();
                min_plus_into_with(MinPlusKernel::Packed, a, x, &mut c);
                assert_eq!(c, r, "all-INF operand must leave c untouched, b={b}");
            }
        }
    }

    #[test]
    fn select_tiers_by_side() {
        assert_eq!(select(1), MinPlusKernel::Branchless);
        assert_eq!(select(SMALL_SIDE - 1), MinPlusKernel::Branchless);
        assert_eq!(select(SMALL_SIDE), MinPlusKernel::Packed);
        assert_eq!(select(4096), MinPlusKernel::Packed);
    }

    #[test]
    fn scratch_is_reused_and_reentrant_safe() {
        let got = with_scratch(16, |outer| {
            outer.fill(1.0);
            // Nested use must not panic (falls back to a fresh buffer).
            let inner_sum = with_scratch(8, |inner| {
                inner.fill(2.0);
                inner.iter().sum::<f64>()
            });
            outer.iter().sum::<f64>() + inner_sum
        });
        assert_eq!(got, 32.0);
    }

    #[test]
    fn fold_semantics_accumulate() {
        let b = 16;
        let a = random_block(b, 11, 0.5);
        let x = random_block(b, 12, 0.5);
        // Folding into a copy of `a` equals min(a, a⊗x).
        let mut folded = a.clone();
        min_plus_into(&a, &x, &mut folded);
        let mut pure = Block::infinity(b);
        min_plus_into(&a, &x, &mut pure);
        let mut manual = a.clone();
        manual.mat_min_assign(&pure);
        assert_eq!(folded, manual);
    }

    #[test]
    fn fw_triangle_inequality_holds() {
        let b = 48;
        let mut a = random_block(b, 5, 0.2);
        floyd_warshall_in_place(&mut a);
        for i in 0..b {
            for j in 0..b {
                for k in 0..b {
                    assert!(
                        a.get(i, j) <= a.get(i, k) + a.get(k, j) + 1e-9,
                        "triangle inequality violated at ({i},{j},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn fw_update_outer_is_rank1_product() {
        let b = 24;
        let mut blk = random_block(b, 21, 0.6);
        let orig = blk.clone();
        let col_i: Vec<f64> = (0..b)
            .map(|i| if i % 5 == 0 { INF } else { i as f64 })
            .collect();
        let col_j: Vec<f64> = (0..b).map(|j| (j * 2) as f64).collect();
        blk.fw_update_outer(&col_i, &col_j);
        for (i, ci) in col_i.iter().enumerate() {
            for (j, cj) in col_j.iter().enumerate() {
                let expect = orig.get(i, j).min(ci + cj);
                assert_eq!(blk.get(i, j), expect);
            }
        }
    }

    #[test]
    #[should_panic(expected = "col_i length")]
    fn fw_update_outer_validates_lengths() {
        let mut blk = Block::infinity(4);
        blk.fw_update_outer(&[0.0; 3], &[0.0; 4]);
    }

    #[test]
    fn tracked_kernel_matches_untracked_distances() {
        use crate::parent::{ParentBlock, NO_VIA};
        for &b in &[1usize, 2, 7, 63, 64, 65, 129] {
            let a = random_block(b, 91, 0.3);
            let x = random_block(b, 92, 0.3);
            let mut oracle = Block::infinity(b);
            min_plus_into_with(MinPlusKernel::Naive, &a, &x, &mut oracle);
            let mut c = Block::infinity(b);
            let mut v = ParentBlock::none(b);
            // Disjoint k/row/col ranges: the degenerate-term guards
            // never fire, so distances must be bit-exact.
            let o = Offsets {
                k: 4 * b,
                row: 0,
                col: 9 * b,
            };
            min_plus_into_tracked(&a, &x, &mut c, &mut v, o);
            assert_eq!(oracle, c, "b={b}");
            // Every win recorded a global via inside the k range.
            for i in 0..b {
                for j in 0..b {
                    let via = v.get(i, j);
                    if via != NO_VIA {
                        assert!((4 * b..5 * b).contains(&(via as usize)));
                    }
                }
            }
        }
    }

    #[test]
    fn tracked_fw_matches_untracked_distances() {
        for &b in &[1usize, 2, 33, 96, 130] {
            let mut plain = random_block(b, 17, 0.25);
            let mut tracked = plain.clone();
            let mut via = crate::parent::ParentBlock::none(b);
            floyd_warshall_in_place(&mut plain);
            floyd_warshall_in_place_tracked(&mut tracked, &mut via, 0);
            assert_eq!(plain, tracked, "b={b}");
        }
    }

    #[test]
    fn tracked_fw_update_outer_matches_untracked() {
        let b = 24;
        let mut plain = random_block(b, 21, 0.6);
        let mut tracked = plain.clone();
        let mut via = crate::parent::ParentBlock::none(b);
        let col_i: Vec<f64> = (0..b)
            .map(|i| if i % 5 == 0 { INF } else { i as f64 })
            .collect();
        let col_j: Vec<f64> = (0..b).map(|j| (j * 2) as f64).collect();
        plain.fw_update_outer(&col_i, &col_j);
        fw_update_outer_tracked(&mut tracked, &mut via, &col_i, &col_j, 500);
        assert_eq!(plain, tracked);
    }

    #[test]
    fn single_element_block() {
        let mut a = Block::identity(1);
        floyd_warshall_in_place(&mut a);
        assert_eq!(a.get(0, 0), 0.0);
        let c = a.min_plus(&a);
        assert_eq!(c.get(0, 0), 0.0);
    }

    // ---- (max, min) kernel family -------------------------------------

    fn random_caps(b: usize, seed: u64, density: f64) -> Vec<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..b * b)
            .map(|idx| {
                if idx / b == idx % b {
                    INF
                } else if next() < density {
                    1.0 + next() * 9.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    fn random_bools(b: usize, seed: u64, density: f64) -> Vec<bool> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..b * b)
            .map(|idx| idx / b == idx % b || next() < density)
            .collect()
    }

    #[test]
    fn maxmin_every_kernel_matches_naive_bit_exactly() {
        for &b in &[1usize, 2, 7, 63, 64, 65, 129, 130] {
            let a = random_caps(b, 42, 0.3);
            let x = random_caps(b, 43, 0.3);
            let mut oracle = vec![0.0; b * b];
            fold_slices_with::<BottleneckF64>(MinPlusKernel::Naive, &a, &x, &mut oracle, b);
            for kernel in ALL_KERNELS {
                let mut c = vec![0.0; b * b];
                fold_slices_with::<BottleneckF64>(kernel, &a, &x, &mut c, b);
                assert_eq!(oracle, c, "b={b} kernel={kernel:?}");
            }
        }
    }

    #[test]
    fn maxmin_packed_handles_all_zero_operands() {
        for &b in &[1usize, 9, 64, 65] {
            let z = vec![0.0; b * b];
            let r = random_caps(b, 3, 0.5);
            for (a, x) in [(&z, &r), (&r, &z), (&z, &z)] {
                let mut c = r.clone();
                fold_slices_with::<BottleneckF64>(MinPlusKernel::Packed, a, x, &mut c, b);
                assert_eq!(c, r, "zero-capacity operand must leave c untouched, b={b}");
            }
        }
    }

    #[test]
    fn maxmin_fold_accumulates_into_seeded_c() {
        let b = 16;
        let a = random_caps(b, 11, 0.5);
        let x = random_caps(b, 12, 0.5);
        let seed = random_caps(b, 13, 0.5);
        let mut folded = seed.clone();
        fold_slices_with::<BottleneckF64>(MinPlusKernel::Packed, &a, &x, &mut folded, b);
        let mut pure = vec![0.0; b * b];
        fold_slices_with::<BottleneckF64>(MinPlusKernel::Packed, &a, &x, &mut pure, b);
        let manual: Vec<f64> = seed
            .iter()
            .zip(pure.iter())
            .map(|(&s, &p)| BottleneckF64::add(s, p))
            .collect();
        assert_eq!(folded, manual);
    }

    #[test]
    fn maxmin_fw_matches_reference_loop() {
        for &b in &[1usize, 2, 33, 64, 96] {
            let mut fast = random_caps(b, 99, 0.25);
            let mut slow = fast.clone();
            fw_in_place_slices::<BottleneckF64>(&mut fast, b);
            for k in 0..b {
                for i in 0..b {
                    let dik = slow[i * b + k];
                    for j in 0..b {
                        let v = BottleneckF64::mul(dik, slow[k * b + j]);
                        if v > slow[i * b + j] {
                            slow[i * b + j] = v;
                        }
                    }
                }
            }
            assert_eq!(fast, slow, "b={b}");
        }
    }

    #[test]
    fn maxmin_rank1_matches_reference_loop() {
        let b = 24;
        let mut fast = random_caps(b, 21, 0.6);
        let slow = fast.clone();
        let col_i: Vec<f64> = (0..b)
            .map(|i| if i % 5 == 0 { 0.0 } else { i as f64 + 1.0 })
            .collect();
        let col_j: Vec<f64> = (0..b).map(|j| (j * 2) as f64).collect();
        rank1_slices::<BottleneckF64>(&mut fast, &col_i, &col_j, b);
        for (i, &ci) in col_i.iter().enumerate() {
            for (j, &cj) in col_j.iter().enumerate() {
                let expect = BottleneckF64::add(slow[i * b + j], BottleneckF64::mul(ci, cj));
                assert_eq!(fast[i * b + j], expect, "({i},{j})");
            }
        }
    }

    // ---- bitset kernel family -----------------------------------------

    #[test]
    fn bitset_fold_matches_naive_at_word_boundaries() {
        for &b in &[1usize, 2, 63, 64, 65, 127, 128, 129] {
            let a = random_bools(b, 51, 0.2);
            let x = random_bools(b, 52, 0.2);
            let seed = random_bools(b, 53, 0.05);
            let mut oracle = seed.clone();
            bool_naive_fold_slices(&a, &x, &mut oracle, b);
            let mut fast = seed.clone();
            bool_fold_slices(&a, &x, &mut fast, b);
            assert_eq!(oracle, fast, "b={b}");
        }
    }

    #[test]
    fn bitset_fold_handles_constant_planes() {
        for &b in &[1usize, 63, 64, 65] {
            for (av, xv) in [(false, false), (false, true), (true, false), (true, true)] {
                let a = vec![av; b * b];
                let x = vec![xv; b * b];
                let mut oracle = vec![false; b * b];
                bool_naive_fold_slices(&a, &x, &mut oracle, b);
                let mut fast = vec![false; b * b];
                bool_fold_slices(&a, &x, &mut fast, b);
                assert_eq!(oracle, fast, "b={b} a={av} x={xv}");
            }
        }
    }

    #[test]
    fn bitset_product_assigns_match_two_step_contract() {
        for &b in &[1usize, 63, 64, 65, 129] {
            let other = random_bools(b, 61, 0.2);
            let seed = random_bools(b, 62, 0.1);

            // Right-assign: c = c | (c & other-product).
            let mut oracle = seed.clone();
            let mut sd = vec![false; b * b];
            bool_naive_fold_slices(&oracle.clone(), &other, &mut sd, b);
            for (c, &s) in oracle.iter_mut().zip(sd.iter()) {
                *c |= s;
            }
            let mut fast = seed.clone();
            bool_product_assign_slices(&mut fast, &other, b);
            assert_eq!(oracle, fast, "right-assign b={b}");

            // Left-assign: c = c | (other-product & c).
            let mut oracle = seed.clone();
            let mut sd = vec![false; b * b];
            bool_naive_fold_slices(&other, &oracle.clone(), &mut sd, b);
            for (c, &s) in oracle.iter_mut().zip(sd.iter()) {
                *c |= s;
            }
            let mut fast = seed.clone();
            bool_product_left_assign_slices(&mut fast, &other, b);
            assert_eq!(oracle, fast, "left-assign b={b}");
        }
    }

    #[test]
    fn bitset_closure_matches_reference_loop() {
        for &b in &[1usize, 2, 33, 63, 64, 65, 96] {
            let mut fast = random_bools(b, 71, 0.08);
            let mut slow = fast.clone();
            bool_closure_slices(&mut fast, b);
            for k in 0..b {
                for i in 0..b {
                    if !slow[i * b + k] {
                        continue;
                    }
                    for j in 0..b {
                        slow[i * b + j] |= slow[k * b + j];
                    }
                }
            }
            assert_eq!(fast, slow, "b={b}");
        }
    }

    #[test]
    fn bitset_rank1_matches_reference_loop() {
        let b = 65;
        let mut fast = random_bools(b, 81, 0.1);
        let slow = fast.clone();
        let col_i: Vec<bool> = (0..b).map(|i| i % 3 == 0).collect();
        let col_j: Vec<bool> = (0..b).map(|j| j % 2 == 0).collect();
        bool_rank1_slices(&mut fast, &col_i, &col_j, b);
        for (i, &ci) in col_i.iter().enumerate() {
            for (j, &cj) in col_j.iter().enumerate() {
                assert_eq!(fast[i * b + j], slow[i * b + j] || (ci && cj), "({i},{j})");
            }
        }
    }

    #[test]
    fn bitblock_roundtrips_and_counts() {
        for &b in &[1usize, 63, 64, 65, 129] {
            let plane = random_bools(b, 91, 0.3);
            let bb = BitBlock::from_bools(b, &plane);
            assert_eq!(bb.side(), b);
            assert_eq!(bb.to_bools(), plane);
            assert_eq!(bb.count_ones(), plane.iter().filter(|&&v| v).count());
            for i in 0..b {
                for j in 0..b {
                    assert_eq!(bb.get(i, j), plane[i * b + j], "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn bitblock_product_and_closure_match_plane_kernels() {
        for &b in &[1usize, 63, 64, 65] {
            let ap = random_bools(b, 95, 0.2);
            let xp = random_bools(b, 96, 0.2);
            let a = BitBlock::from_bools(b, &ap);
            let x = BitBlock::from_bools(b, &xp);
            let mut c = BitBlock::zeros(b);
            bool_or_product_into(&a, &x, &mut c);
            let mut plane = vec![false; b * b];
            bool_naive_fold_slices(&ap, &xp, &mut plane, b);
            assert_eq!(c.to_bools(), plane, "product b={b}");

            let mut closed_bits = a.clone();
            bool_closure_in_place(&mut closed_bits);
            let mut closed_plane = ap.clone();
            bool_closure_slices(&mut closed_plane, b);
            assert_eq!(closed_bits.to_bools(), closed_plane, "closure b={b}");
        }
    }
}
