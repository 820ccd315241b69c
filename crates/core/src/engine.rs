//! The generic solver engine: the paper's four Spark algorithms written
//! **once**, over any [`PathAlgebra`].
//!
//! Every engine-backed solve — the `ApspSolver` and `AlgebraSolver` impls
//! of `BlockedCollectBroadcast`, `BlockedInMemory`, `FloydWarshall2D` and
//! `RepeatedSquaring`, both directed front-ends, and the planner — is one
//! call of the seam [`solve`], chosen by a [`Loop`] and a [`Grid`],
//! instantiated with an algebra:
//!
//! * plain APSP = [`Tropical`](apsp_blockmat::Tropical) — payload-free
//!   records whose updates hit the packed `f64` kernel engine, bit-exact
//!   with the dedicated stack this module replaced;
//! * `SolverConfig::with_paths` = [`apsp_blockmat::TrackedTropical`] — the same
//!   skeletons with a `u32` argmin payload riding on each cell (what used
//!   to be the four hand-cloned solvers in `tracked.rs`);
//! * bottleneck/widest paths = [`apsp_blockmat::Widest`] — the same
//!   skeletons over the packed *(max, min)* kernel engine (the 4×8
//!   register-blocked twin of the tropical fast path);
//! * boolean transitive closure = [`apsp_blockmat::Reachability`] — the
//!   same skeletons over the bitset engine, which packs 64 booleans per
//!   `u64` word at the block boundary. Both are exposed through
//!   [`crate::algebra`].
//!
//! Three properties make the generic threading cheap:
//!
//! 1. **Operands stay plain.** A payload cell records only the winning
//!    global `k`, so the staged diagonal/column copies (side channel, copy
//!    shuffles, broadcasts) remain untracked element blocks — no new
//!    dissemination traffic beyond the payload plane riding on each
//!    stored record (zero bytes for `()` payloads).
//! 2. **Transposition is free.** On undirected instances an interior
//!    vertex of a shortest `i → j` path is interior to the reversed path,
//!    so the upper-triangle storage (paper §4) mirrors algebra blocks by
//!    plain transposition, exactly like distances. Directed instances
//!    "disregard symmetricity" (§4) by running the same Blocked-CB and
//!    FW-2D loops on [`Grid::Full`], where nothing is mirrored.
//! 3. **Strict-improvement updates compose.** Every relaxation either
//!    strictly improves a cell (and re-records its payload) or leaves it
//!    alone, so any interleaving of phases/sweeps keeps each cell's
//!    `(element, payload)` pair consistent; at convergence
//!    `D(i,k) ⊗ D(k,j) = D(i,j)` holds for every recorded via, which is
//!    what path reconstruction expands against.

use crate::blocks::BlockKey;
use crate::building_blocks::{
    copy_col, copy_diag, extract_col_parts, in_column, on_diagonal, unpack_and_update, AlgPiece,
};
use crate::checkpoint::Checkpointer;
use crate::solver::{ApspError, SolverConfig};
use apsp_blockmat::algebra::Elem;
use apsp_blockmat::{
    AlgBlock, Block, BoolSemiring, BottleneckF64, ElemBlock, Offsets, PathAlgebra, Semiring,
};
use sparklet::{
    EstimateSize, MetricsSnapshot, Partitioner, Rdd, SideChannel, SparkContext, SparkError,
    SparkResult,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One RDD record of a generic solve: a keyed algebra block.
pub(crate) type AlgRecord<A> = (BlockKey, AlgBlock<A>);

/// Dense collection result: row-major elements plus payloads.
type DenseParts<A> = (Vec<Elem<A>>, Vec<<A as PathAlgebra>::Payload>);

/// An element block that can be staged in (and fetched from) the shared
/// side channel — the dissemination path of the impure solvers.
///
/// The tropical `f64` block keeps using the block-typed API (which the
/// disk backend serializes to real files, the paper's `tofile()`); other
/// element types ride the generic typed-blob store.
pub trait Stageable: Sized + Send + Sync + 'static {
    /// Writes the block under `key`; fails when the backing store does
    /// (e.g. an unwritable disk directory).
    fn stage(ch: &SideChannel, key: String, blk: Self) -> SparkResult<()>;
    /// Fetches the block under `key`.
    fn fetch(ch: &SideChannel, key: &str) -> SparkResult<Arc<Self>>;
}

impl Stageable for Block {
    fn stage(ch: &SideChannel, key: String, blk: Self) -> SparkResult<()> {
        ch.put_block(key, blk)
    }
    fn fetch(ch: &SideChannel, key: &str) -> SparkResult<Arc<Self>> {
        ch.get_block_arc(key)
    }
}

impl Stageable for ElemBlock<BottleneckF64> {
    fn stage(ch: &SideChannel, key: String, blk: Self) -> SparkResult<()> {
        ch.put(key, blk);
        Ok(())
    }
    fn fetch(ch: &SideChannel, key: &str) -> SparkResult<Arc<Self>> {
        ch.get_arc(key)
    }
}

impl Stageable for ElemBlock<BoolSemiring> {
    fn stage(ch: &SideChannel, key: String, blk: Self) -> SparkResult<()> {
        ch.put(key, blk);
        Ok(())
    }
    fn fetch(ch: &SideChannel, key: &str) -> SparkResult<Arc<Self>> {
        ch.get_arc(key)
    }
}

/// Which blocks of the `q × q` grid a solve stores — the one axis on which
/// directed and undirected solves differ. Chosen by the front-end from the
/// input's directedness, never by a user option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Grid {
    /// Symmetric input: keys `(I, J)` with `I ≤ J`; the lower half is the
    /// transpose of the upper (paper §4).
    UpperTriangle,
    /// Asymmetric (directed) input: all `q²` keys, each orientation owning
    /// its own elements and payloads.
    Full,
}

/// Outcome of a generic solver loop: the closed distributed blocks and the
/// iterations run. Geometry, metrics and wall-clock are the caller's:
/// [`solve`] accounts the loop *and* its final collect in one window.
pub(crate) type Closed<A> = (Rdd<AlgRecord<A>>, u64);

/// Rebuilds the dense element matrix *and* the dense payload matrix from
/// the distributed blocks of side `b`, trimming padding. An upper-triangle
/// run is mirrored across the diagonal (valid on the symmetric instances
/// that storage assumes); a full-grid run is copied as is.
fn collect_dense<A: PathAlgebra>(
    rdd: &Rdd<AlgRecord<A>>,
    n: usize,
    b: usize,
    grid: Grid,
) -> SparkResult<DenseParts<A>> {
    let records = rdd.collect()?;
    let mirror = grid == Grid::UpperTriangle;
    let mut vals = vec![A::Semi::zero(); n * n];
    let mut pays = vec![A::empty_payload(); n * n];
    for ((bi, bj), ab) in records {
        for i in 0..b {
            let gi = bi * b + i;
            if gi >= n {
                continue;
            }
            for j in 0..b {
                let gj = bj * b + j;
                if gj < n {
                    vals[gi * n + gj] = ab.dist().get(i, j);
                    let p = ab.via().get(i, j);
                    pays[gi * n + gj] = p;
                    if mirror {
                        pays[gj * n + gi] = p;
                        if bi != bj {
                            vals[gj * n + gi] = ab.dist().get(i, j);
                        }
                    }
                }
            }
        }
    }
    Ok((vals, pays))
}

/// What [`begin`] hands a loop: `(b, q, partitioner, initial records)`.
type Begun<A> = (
    usize,
    usize,
    Arc<dyn Partitioner<BlockKey>>,
    Rdd<AlgRecord<A>>,
);

/// Shared prologue: geometry, partitioner, and the blocked decomposition
/// of an element accessor into the records `grid` stores (the accessor
/// must be symmetric for [`Grid::UpperTriangle`]).
fn begin<A: PathAlgebra>(
    ctx: &SparkContext,
    n: usize,
    get: &dyn Fn(usize, usize) -> Elem<A>,
    cfg: &SolverConfig,
    grid: Grid,
) -> Result<Begun<A>, ApspError> {
    if grid == Grid::Full && cfg.checkpoint.is_some() {
        return Err(ApspError::InvalidConfig(
            "checkpoint/resume is not supported on directed solves: the checkpoint format \
             covers the upper-triangle grid of the undirected engine solvers (cb, im, fw2d, rs)"
                .into(),
        ));
    }
    let b = cfg.block_size;
    let q = n.div_ceil(b);
    let partitioner = cfg.partitioner.build(q, cfg.partitions_for(ctx));
    // First stored column-block of row-block `bi`.
    let first_col = |bi| if grid == Grid::Full { 0 } else { bi };
    let mut records = Vec::with_capacity((0..q).map(|bi| q - first_col(bi)).sum());
    for bi in 0..q {
        for bj in first_col(bi)..q {
            let dist = ElemBlock::from_fn(b, |i, j| {
                let (gi, gj) = (bi * b + i, bj * b + j);
                if gi < n && gj < n {
                    get(gi, gj)
                } else if gi == gj {
                    A::Semi::one()
                } else {
                    A::Semi::zero()
                }
            });
            records.push(((bi, bj), AlgBlock::<A>::from_dist(dist)));
        }
    }
    let rdd = ctx.parallelize_by(records, partitioner.clone());
    Ok((b, q, partitioner, rdd))
}

// ---------------------------------------------------------------------------
// Blocked Collect/Broadcast (Algorithm 4)
// ---------------------------------------------------------------------------

fn cb_diag_key(iter: usize) -> String {
    format!("cb:{iter}:diag")
}

fn cb_col_key(iter: usize, t: usize) -> String {
    format!("cb:{iter}:col:{t}")
}

/// The staged pivot-row block `A_iT`, Phase 3's Right operand. On the
/// triangle it is the pre-transposed copy of the column block (`C_Tᵀ`),
/// staged once so targets don't each re-transpose; on the full grid it is
/// a stored block in its own right.
fn cb_col_t_key(iter: usize, t: usize) -> String {
    format!("cb:{iter}:colT:{t}")
}

/// Algorithm 4 over any path algebra: Phase-1/2 results travel through the
/// **driver and shared persistent storage** as plain element blocks;
/// payloads stay on the stored records.
pub(crate) fn solve_cb<A: PathAlgebra>(
    ctx: &SparkContext,
    n: usize,
    get: &dyn Fn(usize, usize) -> Elem<A>,
    cfg: &SolverConfig,
    grid: Grid,
) -> Result<Closed<A>, ApspError>
where
    ElemBlock<A::Semi>: Stageable,
{
    let (b, q, partitioner, initial) = begin::<A>(ctx, n, get, cfg, grid)?;
    let (ckpt, resumed) = Checkpointer::<A>::prepare(ctx, cfg, "cb", n, b, q, q)?;
    let (first_round, mut a): (usize, Rdd<AlgRecord<A>>) = match resumed {
        Some((round, records)) => (
            round + 1,
            ctx.parallelize_by(records, partitioner.clone()).persist(),
        ),
        None => (0, initial.persist()),
    };
    let kern = cfg.kernel;

    for i in first_round..q {
        // Phase 1: close the diagonal block, stage its elements (lines 2–3).
        let diag_rdd = a
            .filter(move |(key, _)| on_diagonal(key, i))
            .map(move |(key, mut ab)| {
                ab.floyd_warshall_in_place(i * b);
                (key, ab)
            })
            .persist();
        let diag_records = diag_rdd.collect()?;
        let diag_block = diag_records
            .into_iter()
            .next()
            .ok_or_else(|| {
                ApspError::Engine(SparkError::User(format!("missing diagonal block {i}")))
            })?
            .1;
        Stageable::stage(
            ctx.side_channel(),
            cb_diag_key(i),
            diag_block.dist().clone(),
        )?;

        // Phase 2: update the pivot cross against the staged diagonal
        // (line 5), collect and stage the pivot column `A_Ti` and pivot
        // row `A_iT` of every `T` (lines 6–7).
        let side = ctx.clone();
        let rowcol = a
            .filter(move |(key, _)| in_column(key, i) && !on_diagonal(key, i))
            .try_map(move |(key, mut ab)| {
                let d =
                    <ElemBlock<A::Semi> as Stageable>::fetch(side.side_channel(), &cb_diag_key(i))?;
                if key.1 == i {
                    // Stored A_Ti (pivot columns on the right).
                    ab.min_plus_assign(kern, &d, Offsets::blocks(b, i, key.0, key.1));
                } else {
                    // Stored A_iY (pivot rows on the left).
                    ab.min_plus_left_assign(kern, &d, Offsets::blocks(b, i, key.0, key.1));
                }
                Ok((key, ab))
            })
            .persist();
        for (key, ab) in rowcol.collect()? {
            // Payloads stay on the stored records (the collected copy is
            // ours to consume). The triangle stores one of `A_Ti` / `A_iT`
            // and stages its transpose as the other, so Phase 3 reads both
            // orientations without per-target transposition; the full
            // grid stores both, and each is staged as it is.
            let (dist, _) = ab.into_parts();
            let mirror = (grid == Grid::UpperTriangle).then(|| dist.transpose());
            let (t, col, row) = if key.1 == i {
                (key.0, Some(dist), mirror)
            } else {
                (key.1, mirror, Some(dist))
            };
            if let Some(blk) = row {
                Stageable::stage(ctx.side_channel(), cb_col_t_key(i, t), blk)?;
            }
            if let Some(blk) = col {
                Stageable::stage(ctx.side_channel(), cb_col_key(i, t), blk)?;
            }
        }

        // Phase 3: fold the staged column products into every remaining
        // block (line 9): A_XY = A_XY ⊕ (A_Xi ⊗ A_iY).
        let side = ctx.clone();
        let offcol =
            a.filter(move |(key, _)| !in_column(key, i))
                .try_map(move |((x, y), mut ab)| {
                    let ch = side.side_channel();
                    let c_x = <ElemBlock<A::Semi> as Stageable>::fetch(ch, &cb_col_key(i, x))?;
                    let c_y_t = <ElemBlock<A::Semi> as Stageable>::fetch(ch, &cb_col_t_key(i, y))?;
                    ab.min_plus_into_self(kern, &c_x, &c_y_t, Offsets::blocks(b, i, x, y));
                    Ok(((x, y), ab))
                });

        // Reassemble A (lines 11–12).
        let next = diag_rdd
            .union_all(&[rowcol.clone(), offcol])
            .partition_by(partitioner.clone())
            .persist();
        // Materialize before the staged blocks are dropped: the
        // side-channel data is outside the lineage (impurity!). Then cut
        // the lineage, so this round's shuffle output and the previous
        // generation are freed with their handles.
        next.count()?;
        let next = next.local_checkpoint()?;
        ctx.side_channel().remove(&cb_diag_key(i));
        for t in 0..q {
            ctx.side_channel().remove(&cb_col_key(i, t));
            ctx.side_channel().remove(&cb_col_t_key(i, t));
        }
        diag_rdd.unpersist();
        rowcol.unpersist();
        a.unpersist();
        a = next;
        ckpt.after_round(i, &a)?;
    }

    Ok((a, q as u64))
}

// ---------------------------------------------------------------------------
// Blocked In-Memory (Algorithm 3)
// ---------------------------------------------------------------------------

/// Algorithm 3 over any path algebra: diagonal and column copies replicate
/// through the `CopyDiag`/`CopyCol` shuffles (as element blocks); the
/// stored records fold them in with the algebra's kernels.
fn solve_im<A: PathAlgebra>(
    ctx: &SparkContext,
    n: usize,
    get: &dyn Fn(usize, usize) -> Elem<A>,
    cfg: &SolverConfig,
) -> Result<Closed<A>, ApspError> {
    let (b, q, partitioner, initial) = begin::<A>(ctx, n, get, cfg, Grid::UpperTriangle)?;
    let (ckpt, resumed) = Checkpointer::<A>::prepare(ctx, cfg, "im", n, b, q, q)?;
    let (first_round, mut a): (usize, Rdd<AlgRecord<A>>) = match resumed {
        Some((round, records)) => (
            round + 1,
            ctx.parallelize_by(records, partitioner.clone()).persist(),
        ),
        None => (0, initial.persist()),
    };
    let kern = cfg.kernel;

    for i in first_round..q {
        // Phase 1: diagonal closure + CopyDiag of its elements (lines 2–4).
        let diag_rdd = a
            .filter(move |(key, _)| on_diagonal(key, i))
            .map(move |(key, mut ab)| {
                ab.floyd_warshall_in_place(i * b);
                (key, ab)
            })
            .persist();
        let diag_copies = diag_rdd.flat_map(move |(_, d)| copy_diag::<A>(i, d.dist(), q));

        // Phase 2: pair cross blocks with the diagonal copies via
        // combineByKey (ListAppend) and resolve (ListUnpack + MatMin),
        // lines 6–9.
        let cross_stored = a
            .filter(move |(key, _)| in_column(key, i) && !on_diagonal(key, i))
            .map(|(key, ab)| (key, AlgPiece::Stored(ab)));
        let phase2: Rdd<AlgRecord<A>> = cross_stored
            .union(&diag_copies)
            .combine_by_key(
                partitioner.clone(),
                |p| vec![p],
                |mut list, p| {
                    list.push(p);
                    list
                },
                |mut a, mut b| {
                    a.append(&mut b);
                    a
                },
            )
            .try_map(move |(key, pieces)| Ok((key, unpack_and_update(kern, pieces, i, b, key)?)))
            .persist();

        // CopyCol: replicate the updated cross elements to Phase-3 targets
        // in canonical orientation C_T = A_Ti (lines 9–10).
        let copies = phase2.flat_map(move |(key, ab)| {
            let (t, canonical_block) = if key.1 == i {
                (key.0, ab.dist().clone())
            } else {
                (key.1, ab.dist().transpose())
            };
            copy_col::<A>(t, i, &canonical_block, q)
        });

        // Phase 3: pair remaining blocks with their two cross copies and
        // update (lines 12–14).
        let off_stored = a
            .filter(move |(key, _)| !in_column(key, i))
            .map(|(key, ab)| (key, AlgPiece::Stored(ab)));
        let phase3: Rdd<AlgRecord<A>> = off_stored
            .union(&copies)
            .combine_by_key(
                partitioner.clone(),
                |p| vec![p],
                |mut list, p| {
                    list.push(p);
                    list
                },
                |mut a, mut b| {
                    a.append(&mut b);
                    a
                },
            )
            .try_map(move |(key, pieces)| Ok((key, unpack_and_update(kern, pieces, i, b, key)?)));

        // Reassemble and repartition (line 15) — mandatory, or the union's
        // partition count compounds every iteration. Cutting the lineage
        // frees the copy shuffles' outputs with this round's handles.
        let next = diag_rdd
            .union_all(&[phase2.clone(), phase3])
            .partition_by(partitioner.clone())
            .persist();
        next.count()?;
        let next = next.local_checkpoint()?;
        diag_rdd.unpersist();
        phase2.unpersist();
        a.unpersist();
        a = next;
        ckpt.after_round(i, &a)?;
    }

    Ok((a, q as u64))
}

// ---------------------------------------------------------------------------
// 2D Floyd-Warshall (Algorithm 2)
// ---------------------------------------------------------------------------

/// Algorithm 2 over any path algebra: the broadcast pivot column (and, on
/// the full grid, pivot row) stays a plain element vector; every block
/// applies the rank-1 update, recording the (single, global) pivot as the
/// payload.
fn solve_fw2d<A: PathAlgebra>(
    ctx: &SparkContext,
    n: usize,
    get: &dyn Fn(usize, usize) -> Elem<A>,
    cfg: &SolverConfig,
    grid: Grid,
) -> Result<Closed<A>, ApspError>
where
    Elem<A>: EstimateSize,
{
    let (b, q, partitioner, initial) = begin::<A>(ctx, n, get, cfg, grid)?;
    let (ckpt, resumed) = Checkpointer::<A>::prepare(ctx, cfg, "fw2d", n, b, q, n)?;
    let (first_round, mut a): (usize, Rdd<AlgRecord<A>>) = match resumed {
        Some((round, records)) => (
            round + 1,
            ctx.parallelize_by(records, partitioner).persist(),
        ),
        None => (0, initial.persist()),
    };
    // The broadcast vector holds the pivot column `d(·, k)` in its first
    // `q` segments and the pivot row `d(k, ·)` from segment `row_at`: on
    // the triangle the row *is* the column (symmetry), on the full grid
    // it follows it.
    let row_at = match grid {
        Grid::UpperTriangle => 0,
        Grid::Full => q,
    };

    for k in first_round..n {
        let pivot_block = k / b;
        let k_local = k % b;

        // Extract and collect the pivot vectors (lines 2–6 of Alg. 2).
        let segments = a
            .filter(move |(key, _)| in_column(key, pivot_block))
            .flat_map(move |(key, ab)| match grid {
                Grid::UpperTriangle => extract_col_parts(&key, ab.dist(), pivot_block, k_local),
                Grid::Full => {
                    let mut out = Vec::with_capacity(2);
                    if key.1 == pivot_block {
                        out.push((key.0, ab.dist().extract_col(k_local)));
                    }
                    if key.0 == pivot_block {
                        out.push((row_at + key.1, ab.dist().extract_row(k_local)));
                    }
                    out
                }
            })
            .collect()?;
        // The column job cached every block of `a`: cutting its lineage
        // frees the generation before it and the broadcast its update
        // captured.
        a = a.local_checkpoint()?;
        let mut pivot = vec![A::Semi::zero(); (row_at + q) * b];
        for (segment, values) in segments {
            pivot[segment * b..segment * b + b].copy_from_slice(&values);
        }
        // Broadcast to the executors (line 8).
        let bcast = ctx.broadcast(pivot);

        // Rank-1 update on every block (line 10):
        // A_ij ⊕= d(i, k) ⊗ d(k, j).
        let piv = bcast.clone();
        let next = a
            .map(move |((i, j), mut ab)| {
                let col_i = &piv.value()[i * b..i * b + b];
                let row_j = &piv.value()[(row_at + j) * b..(row_at + j) * b + b];
                ab.fw_update_outer(col_i, row_j, k);
                ((i, j), ab)
            })
            .persist();
        a = next;
        ckpt.after_round(k, &a)?;
    }

    Ok((a, n as u64))
}

// ---------------------------------------------------------------------------
// Repeated squaring (Algorithm 1)
// ---------------------------------------------------------------------------

fn rs_col_key(step: usize, j: usize, k: usize) -> String {
    format!("rs:{step}:{j}:{k}")
}

/// Algorithm 1 over any path algebra: column sweeps stage element blocks
/// in shared storage. Each sweep target `(X, J)` receives one **seeded**
/// contribution (its own stored record folded with `self ⊕ (self ⊗ C_J)`)
/// plus unseeded partial products from the other records; the
/// `reduceByKey` merge is the algebra's join, whose strict-improvement
/// rule keeps the seeded estimate on ties — the seeding contract the
/// tracking kernels rely on (see `apsp_blockmat::parent`).
fn solve_rs<A: PathAlgebra>(
    ctx: &SparkContext,
    n: usize,
    get: &dyn Fn(usize, usize) -> Elem<A>,
    cfg: &SolverConfig,
) -> Result<Closed<A>, ApspError>
where
    ElemBlock<A::Semi>: Stageable,
{
    let (b, q, partitioner, initial) = begin::<A>(ctx, n, get, cfg, Grid::UpperTriangle)?;
    let kern = cfg.kernel;

    // ⌈log₂ n⌉ squarings close paths of any hop count (diagonal identity
    // makes A^(2^s) monotone and dominated by the closure).
    let squarings = (n.max(2) as f64).log2().ceil() as usize;
    let (ckpt, resumed) = Checkpointer::<A>::prepare(ctx, cfg, "rs", n, b, q, squarings)?;
    let (first_step, mut a): (usize, Rdd<AlgRecord<A>>) = match resumed {
        Some((step, records)) => (
            step + 1,
            ctx.parallelize_by(records, partitioner.clone()).persist(),
        ),
        None => (0, initial.persist()),
    };
    let mut sweeps_done = (first_step * q) as u64;

    for step in first_step..squarings {
        let mut sweeps: Vec<Rdd<AlgRecord<A>>> = Vec::with_capacity(q);
        for j in 0..q {
            // Stage column J's element blocks in canonical orientation
            // C_K = A_KJ (rows K, cols J) — lines 3–4.
            for ((x, y), ab) in a.filter(move |(key, _)| in_column(key, j)).collect()? {
                if y == j {
                    Stageable::stage(
                        ctx.side_channel(),
                        rs_col_key(step, j, x),
                        ab.dist().clone(),
                    )?;
                }
                if x == j && x != y {
                    Stageable::stage(
                        ctx.side_channel(),
                        rs_col_key(step, j, y),
                        ab.dist().transpose(),
                    )?;
                }
            }

            // Products against the staged column + reduceByKey(join) —
            // line 5. A stored record (I, K) contributes A_IK ⊗ C_K toward
            // D_IJ and (via its transpose) A_KI ⊗ C_I toward D_KJ; only
            // upper-triangular targets are emitted, since sweep J owns
            // exactly the keys (X, J), X ≤ J.
            let side = ctx.clone();
            let contributions = a.try_flat_map(move |((rec_i, rec_k), ab)| {
                let mut out: Vec<AlgRecord<A>> = Vec::with_capacity(2);
                if rec_i <= j {
                    let c_k = <ElemBlock<A::Semi> as Stageable>::fetch(
                        side.side_channel(),
                        &rs_col_key(step, j, rec_k),
                    )?;
                    if rec_k == j {
                        // The target's own record: the seeded contribution.
                        let mut seeded = ab.clone();
                        seeded.min_plus_assign(kern, &c_k, Offsets::blocks(b, rec_k, rec_i, j));
                        out.push(((rec_i, j), seeded));
                    } else {
                        out.push((
                            (rec_i, j),
                            AlgBlock::min_plus_product(
                                kern,
                                ab.dist(),
                                &c_k,
                                Offsets::blocks(b, rec_k, rec_i, j),
                            ),
                        ));
                    }
                }
                if rec_k <= j && rec_i != rec_k {
                    let c_i = <ElemBlock<A::Semi> as Stageable>::fetch(
                        side.side_channel(),
                        &rs_col_key(step, j, rec_i),
                    )?;
                    out.push((
                        (rec_k, j),
                        AlgBlock::min_plus_product(
                            kern,
                            &ab.dist().transpose(),
                            &c_i,
                            Offsets::blocks(b, rec_i, rec_k, j),
                        ),
                    ));
                }
                Ok(out)
            });
            let t_j = contributions.reduce_by_key(partitioner.clone(), |mut x, y| {
                x.mat_min_assign(&y);
                x
            });
            sweeps.push(t_j);
            sweeps_done += 1;
        }

        // Line 6: union the sweeps into the next A.
        let next = sweeps[0].union_all(&sweeps[1..]).persist();
        // Materialize *before* dropping the staged columns — the products
        // read them lazily (impurity in action) — then cut the lineage.
        next.count()?;
        let next = next.local_checkpoint()?;
        for j in 0..q {
            for k in 0..q {
                ctx.side_channel().remove(&rs_col_key(step, j, k));
            }
        }
        a.unpersist();
        a = next;
        ckpt.after_round(step, &a)?;
    }

    Ok((a, sweeps_done))
}

// ---------------------------------------------------------------------------
// The seam: one run-and-collect wrapper for every engine-backed solve
// ---------------------------------------------------------------------------

/// Which of the paper's four loops a solve runs: Blocked Collect/Broadcast
/// (Alg. 4), Blocked In-Memory (Alg. 3, triangle only), 2D Floyd-Warshall
/// (Alg. 2) or repeated squaring (Alg. 1, triangle only). Together with a
/// [`Grid`] it is the whole engine choice of a front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Loop {
    Cb,
    Im,
    Fw2d,
    Rs,
}

/// A solve collected to the driver: the dense row-major `n × n` values,
/// and the engine counters and wall clock from the loop's first job through
/// the final collect.
pub(crate) struct Solved<E> {
    pub values: Vec<E>,
    pub metrics: MetricsSnapshot,
    pub elapsed: Duration,
    pub iterations: u64,
}

/// What [`solve`] hands back: the collected solve and its payload plane.
type SolvedParts<A> = (Solved<Elem<A>>, Vec<<A as PathAlgebra>::Payload>);

/// The run-and-collect wrapper of every engine-backed solve, written once:
/// rejects a `(loop, grid)` pair the engine has no loop for, checks `cfg`,
/// applies the caller's input contract `validate` (told the grid, so a dense
/// adjacency can pick its undirected or directed rules) when
/// `cfg.validate_input`, then runs the loop and collects it inside one
/// metrics/clock window. Returns the payload plane beside the values.
pub(crate) fn solve<A: PathAlgebra>(
    ctx: &SparkContext,
    n: usize,
    weight: &dyn Fn(usize, usize) -> Elem<A>,
    cfg: &SolverConfig,
    (lp, grid): (Loop, Grid),
    validate: &dyn Fn(Grid) -> Result<(), ApspError>,
) -> Result<SolvedParts<A>, ApspError>
where
    ElemBlock<A::Semi>: Stageable,
    Elem<A>: EstimateSize,
{
    if grid == Grid::Full && matches!(lp, Loop::Im | Loop::Rs) {
        return Err(ApspError::InvalidConfig(format!(
            "the {lp:?} loop has no full-grid (directed) variant; directed inputs run \
             Blocked-CB or FW-2D"
        )));
    }
    cfg.check(n)?;
    if cfg.validate_input {
        validate(grid)?;
    }
    let start = Instant::now();
    let metrics_before = ctx.metrics();
    let (rdd, iterations) = match lp {
        Loop::Cb => solve_cb::<A>(ctx, n, weight, cfg, grid)?,
        Loop::Im => solve_im::<A>(ctx, n, weight, cfg)?,
        Loop::Fw2d => solve_fw2d::<A>(ctx, n, weight, cfg, grid)?,
        Loop::Rs => solve_rs::<A>(ctx, n, weight, cfg)?,
    };
    let (values, payloads) = collect_dense(&rdd, n, cfg.block_size, grid)?;
    let solved = Solved {
        values,
        metrics: ctx.metrics().delta(&metrics_before),
        elapsed: start.elapsed(),
        iterations,
    };
    Ok((solved, payloads))
}

#[cfg(test)]
mod tests {
    use crate::solver::{ApspSolver, SolverConfig};
    use crate::{BlockedCollectBroadcast, BlockedInMemory, FloydWarshall2D, RepeatedSquaring};
    use apsp_graph::{dijkstra, generators};
    use sparklet::{SparkConfig, SparkContext};

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConfig::with_cores(4))
    }

    fn check_solver(solver: &dyn ApspSolver, n: usize, b: usize, seed: u64) {
        let g = generators::erdos_renyi_paper(n, 0.1, seed);
        let adj = g.to_dense();
        let res = solver
            .solve(&ctx(), &adj, &SolverConfig::new(b).with_paths())
            .unwrap_or_else(|e| panic!("{} failed: {e}", solver.name()));
        assert!(
            res.parents().is_some(),
            "{} returned no parents",
            solver.name()
        );
        let oracle = dijkstra::apsp_dijkstra(&g);
        assert!(
            res.distances().approx_eq(&oracle, 1e-9).is_ok(),
            "{}: tracked distances diverge from Dijkstra",
            solver.name()
        );
        let dap = res.into_paths().unwrap();
        dap.validate_against(&adj, 1e-9)
            .unwrap_or_else(|e| panic!("{}: {e}", solver.name()));
    }

    #[test]
    fn tracked_cb_round_trips() {
        check_solver(&BlockedCollectBroadcast, 60, 16, 7);
        check_solver(&BlockedCollectBroadcast, 45, 16, 15); // uneven tail
    }

    #[test]
    fn tracked_im_round_trips() {
        check_solver(&BlockedInMemory, 60, 16, 8);
        check_solver(&BlockedInMemory, 30, 15, 31);
    }

    #[test]
    fn tracked_fw2d_round_trips() {
        check_solver(&FloydWarshall2D, 37, 8, 3);
    }

    #[test]
    fn tracked_rs_round_trips() {
        check_solver(&RepeatedSquaring, 48, 12, 44);
        check_solver(&RepeatedSquaring, 29, 9, 5);
    }

    #[test]
    fn tracked_matches_untracked_distances_exactly_per_solver() {
        // Tracking must be a pure observer: the distance matrix of a
        // tracked solve is bit-identical to the untracked solve for the
        // blocked solvers (same relaxation order, strict-< vs min is
        // value-equivalent).
        let g = generators::erdos_renyi_paper(40, 0.1, 12);
        let adj = g.to_dense();
        for solver in [
            &BlockedCollectBroadcast as &dyn ApspSolver,
            &BlockedInMemory,
            &FloydWarshall2D,
        ] {
            let plain = solver.solve(&ctx(), &adj, &SolverConfig::new(12)).unwrap();
            let tracked = solver
                .solve(&ctx(), &adj, &SolverConfig::new(12).with_paths())
                .unwrap();
            assert!(
                tracked
                    .distances()
                    .approx_eq(plain.distances(), 0.0)
                    .is_ok(),
                "{}: tracked distances not bit-identical",
                solver.name()
            );
        }
    }

    #[test]
    fn long_path_graph_reconstructs_every_pair() {
        // Worst case for via recursion depth: all-pairs paths on a line.
        let g = generators::path(40);
        let adj = g.to_dense();
        let res = BlockedCollectBroadcast
            .solve(&ctx(), &adj, &SolverConfig::new(8).with_paths())
            .unwrap();
        let dap = res.into_paths().unwrap();
        for i in 0..40 {
            for j in 0..40 {
                let p = dap.reconstruct(i, j).unwrap();
                assert_eq!(p.len(), i.abs_diff(j) + 1, "({i},{j})");
            }
        }
    }

    #[test]
    fn disconnected_pairs_reconstruct_to_none() {
        let mut g = apsp_graph::Graph::new(12);
        g.add_edge(0, 1, 3.0);
        g.add_edge(5, 7, 1.0);
        let res = BlockedInMemory
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(4).with_paths())
            .unwrap();
        let dap = res.into_paths().unwrap();
        assert_eq!(dap.reconstruct(0, 5), None);
        assert_eq!(dap.reconstruct(0, 1), Some(vec![0, 1]));
        assert_eq!(dap.reconstruct(7, 5), Some(vec![7, 5]));
    }

    #[test]
    fn non_tracking_solvers_reject_with_paths() {
        use crate::solver::ApspError;
        let g = generators::cycle(8);
        let cfg = SolverConfig::new(4).with_paths();
        for solver in [
            &crate::CartesianSquaring as &dyn ApspSolver,
            &crate::DistributedJohnson,
        ] {
            let err = solver.solve(&ctx(), &g.to_dense(), &cfg).unwrap_err();
            assert!(
                matches!(err, ApspError::InvalidConfig(_)),
                "{} must reject with_paths explicitly",
                solver.name()
            );
        }
    }

    #[test]
    fn untracked_solve_has_no_parents() {
        let g = generators::cycle(10);
        let res = BlockedCollectBroadcast
            .solve(&ctx(), &g.to_dense(), &SolverConfig::new(4))
            .unwrap();
        assert!(res.parents().is_none());
        assert!(res.into_paths().is_none());
    }
}
