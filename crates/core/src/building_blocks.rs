//! The paper's Table 1: functional building blocks shared by the solvers.
//!
//! Each function operates on keyed block records (or pieces thereof) and
//! is passed to `sparklet` transformations, mirroring how the paper
//! passes them to Spark transformations. Since the solver skeletons are
//! generic over a [`PathAlgebra`] (see `crate::engine`), the building
//! blocks are too: the compute-heavy ones delegate to the algebra's
//! kernel hooks in `apsp-blockmat` — the analogue of the paper's
//! NumPy/SciPy/Numba bare-metal offload — and the plain-APSP versions are
//! the [`apsp_blockmat::Tropical`] instantiations.

use crate::blocks::{canonical, BlockKey};
use apsp_blockmat::kernels::MinPlusKernel;
use apsp_blockmat::{AlgBlock, ElemBlock, Offsets, PathAlgebra, Semiring};
use sparklet::EstimateSize;

/// `InColumn` (Table 1): does the stored upper-triangular record `key`
/// carry data of row/column-block `x`? With symmetric storage the
/// column-block `x` of the full matrix is the "cross" `{(I, x)} ∪ {(x, J)}`.
pub fn in_column(key: &BlockKey, x: usize) -> bool {
    key.0 == x || key.1 == x
}

/// `OnDiagonal` (Table 1): is this the `x`-th diagonal block?
pub fn on_diagonal(key: &BlockKey, x: usize) -> bool {
    key.0 == x && key.1 == x
}

/// `ExtractCol` (Table 1): column `k` (block-local index) of a stored
/// element block, oriented as a segment of the *global* column: returns
/// `(row_block, values)` where `values[r]` is the path value from row `r`
/// of `row_block` to the pivot.
///
/// For a stored record `(I, J)` with `J` the pivot's column-block, that is
/// the block's `k`-th column; when `I` is the pivot's column-block (the
/// record is the transposed half of the cross), it is the `k`-th *row*.
pub fn extract_col_parts<S: Semiring>(
    key: &BlockKey,
    blk: &ElemBlock<S>,
    pivot_block: usize,
    k: usize,
) -> Vec<(usize, Vec<S::Elem>)> {
    let (i, j) = key;
    let mut out = Vec::new();
    if *j == pivot_block {
        out.push((*i, blk.extract_col(k)));
    }
    if *i == pivot_block && i != j {
        out.push((*j, blk.extract_row(k)));
    }
    out
}

/// A tagged block flowing through the pairing shuffles of the blocked
/// solvers (the values `ListAppend`/`ListUnpack` see).
///
/// `Stored` is the resident algebra block of `A` (the only piece carrying
/// payloads); `Left`/`Right` are element copies created by
/// `CopyDiag`/`CopyCol`, pre-oriented so the phase update for target
/// block `(I, J)` is `A_IJ = A_IJ ⊕ (Left ⊗ A_IJ)`,
/// `A_IJ ⊕ (A_IJ ⊗ Right)`, or `A_IJ ⊕ (Left ⊗ Right)` depending on
/// which pieces arrive.
#[derive(Clone)]
pub enum AlgPiece<A: PathAlgebra> {
    /// The resident algebra block of `A`.
    Stored(AlgBlock<A>),
    /// A left operand (`A_Ii`, pre-oriented element copy).
    Left(ElemBlock<A::Semi>),
    /// A right operand (`A_iJ`, pre-oriented element copy).
    Right(ElemBlock<A::Semi>),
}

impl<A: PathAlgebra> EstimateSize for AlgPiece<A> {
    fn estimate_bytes(&self) -> usize {
        8 + match self {
            AlgPiece::Stored(t) => t.estimate_bytes(),
            AlgPiece::Left(b) | AlgPiece::Right(b) => b.estimate_bytes(),
        }
    }
}

/// `CopyDiag` (Table 1): replicate the solved diagonal block `A_ii*` to
/// every cross block of iteration `i`, pre-oriented (`Right` for stored
/// `(X, i)` — pivot columns on the right; `Left` for `(i, Y)`).
pub fn copy_diag<A: PathAlgebra>(
    i: usize,
    diag: &ElemBlock<A::Semi>,
    q: usize,
) -> Vec<(BlockKey, AlgPiece<A>)> {
    let mut out = Vec::with_capacity(q.saturating_sub(1));
    for t in 0..q {
        if t == i {
            continue;
        }
        let key = canonical(t, i);
        let piece = if key == (t, i) {
            // Stored block is A_Ti (rows T, pivot cols): multiply on the right.
            AlgPiece::Right(diag.clone())
        } else {
            // Stored block is A_iY (pivot rows, cols Y): multiply on the left.
            AlgPiece::Left(diag.clone())
        };
        out.push((key, piece));
    }
    out
}

/// `CopyCol` (Table 1): replicate an updated cross block to every Phase-3
/// target that needs it, pre-oriented. `col_block` must be canonical
/// `C_T = A_Ti` (rows `T`, pivot columns); `t` is the cross index.
///
/// Target `(X, Y)` (upper-triangular, neither index `i`) needs
/// `Left = A_Xi = C_X` and `Right = A_iY = C_Yᵀ`; the diagonal target
/// `(T, T)` needs both from this one cross block.
pub fn copy_col<A: PathAlgebra>(
    t: usize,
    i: usize,
    col_block: &ElemBlock<A::Semi>,
    q: usize,
) -> Vec<(BlockKey, AlgPiece<A>)> {
    let mut out = Vec::with_capacity(q);
    for k in 0..q {
        if k == i {
            continue;
        }
        let key = canonical(t, k);
        if t == key.0 {
            // This cross block provides the Left operand (A_{key.0} i).
            out.push((key, AlgPiece::Left(col_block.clone())));
        }
        if t == key.1 {
            // ... and/or the Right operand (A_i {key.1} = C_tᵀ).
            out.push((key, AlgPiece::Right(col_block.transpose())));
        }
    }
    out
}

/// `ListUnpack` + `MatMin` (Table 1): resolve a pairing list into the
/// updated block. Exactly one `Stored` piece must be present.
///
/// * `Stored` + `Left` + `Right` → `A ⊕ (L ⊗ R)` (Phase 3),
/// * `Stored` + `Left` → `A ⊕ (L ⊗ A)` (Phase 2, pivot rows),
/// * `Stored` + `Right` → `A ⊕ (A ⊗ R)` (Phase 2, pivot cols),
/// * `Stored` alone → unchanged.
///
/// `pivot` and the target `key` orient the block-local indices globally
/// (payload-tracking algebras need them — see `apsp_blockmat::parent`).
///
/// A pairing list with no or multiple `Stored` pieces is an algorithmic
/// bug (a shuffle delivered the wrong records); it surfaces as a typed
/// [`sparklet::SparkError`] so the engine fails the task cleanly instead
/// of panicking the executor.
pub fn unpack_and_update<A: PathAlgebra>(
    kernel: MinPlusKernel,
    pieces: Vec<AlgPiece<A>>,
    pivot: usize,
    b: usize,
    key: BlockKey,
) -> Result<AlgBlock<A>, sparklet::SparkError> {
    let mut stored: Option<AlgBlock<A>> = None;
    let mut left: Option<ElemBlock<A::Semi>> = None;
    let mut right: Option<ElemBlock<A::Semi>> = None;
    for p in pieces {
        match p {
            AlgPiece::Stored(t) => {
                if stored.is_some() {
                    return Err(sparklet::SparkError::User(format!(
                        "duplicate Stored piece in pairing list for block ({}, {})",
                        key.0, key.1
                    )));
                }
                stored = Some(t);
            }
            AlgPiece::Left(b) => left = Some(b),
            AlgPiece::Right(b) => right = Some(b),
        }
    }
    let mut a = stored.ok_or_else(|| {
        sparklet::SparkError::User(format!(
            "pairing list lacks the Stored block for ({}, {})",
            key.0, key.1
        ))
    })?;
    let offsets = Offsets::blocks(b, pivot, key.0, key.1);
    match (left, right) {
        (Some(l), Some(r)) => a.min_plus_into_self(kernel, &l, &r, offsets),
        (Some(l), None) => a.min_plus_left_assign(kernel, &l, offsets),
        (None, Some(r)) => a.min_plus_assign(kernel, &r, offsets),
        (None, None) => {}
    }
    Ok(a)
}

/// `FloydWarshall` (Table 1): close a diagonal algebra block in place;
/// `diag_offset` is the global vertex id of its row/column `0`.
pub fn floyd_warshall_alg<A: PathAlgebra>(mut blk: AlgBlock<A>, diag_offset: usize) -> AlgBlock<A> {
    blk.floyd_warshall_in_place(diag_offset);
    blk
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_blockmat::{Block, Tropical, INF};

    fn blk(vals: [[f64; 2]; 2]) -> ElemBlock<apsp_blockmat::TropicalF64> {
        ElemBlock::from_fn(2, |i, j| vals[i][j])
    }

    fn stored(vals: [[f64; 2]; 2]) -> AlgPiece<Tropical> {
        AlgPiece::Stored(AlgBlock::from_dist(blk(vals)))
    }

    const KEY: BlockKey = (2, 3);
    const PIVOT: usize = 1;

    fn unpack(pieces: Vec<AlgPiece<Tropical>>) -> AlgBlock<Tropical> {
        unpack_and_update(MinPlusKernel::Auto, pieces, PIVOT, 2, KEY).unwrap()
    }

    #[test]
    fn in_column_covers_cross() {
        assert!(in_column(&(0, 3), 3));
        assert!(in_column(&(3, 5), 3));
        assert!(in_column(&(3, 3), 3));
        assert!(!in_column(&(1, 2), 3));
    }

    #[test]
    fn extract_col_handles_both_orientations() {
        let b = blk([[0.0, 1.0], [10.0, 11.0]]);
        // Record (1, 2), pivot block 2: column k of the block.
        let got = extract_col_parts(&(1usize, 2usize), &b, 2, 1);
        assert_eq!(got, vec![(1, vec![1.0, 11.0])]);
        // Record (2, 4), pivot block 2: row k (transposed half).
        let got2 = extract_col_parts(&(2usize, 4usize), &b, 2, 0);
        assert_eq!(got2, vec![(4, vec![0.0, 1.0])]);
        // Diagonal record (2,2): column only (row would duplicate).
        let got3 = extract_col_parts(&(2usize, 2usize), &b, 2, 0);
        assert_eq!(got3.len(), 1);
        assert_eq!(got3[0].0, 2);
    }

    #[test]
    fn copy_diag_orientations() {
        let d = blk([[0.0, 1.0], [1.0, 0.0]]);
        let q = 4;
        let i = 2;
        let copies = copy_diag::<Tropical>(i, &d, q);
        assert_eq!(copies.len(), 3);
        for (key, piece) in copies {
            assert!(in_column(&key, i));
            match piece {
                // Stored (X, i) with X < i: right-multiply.
                AlgPiece::Right(_) => assert!(key.1 == i),
                // Stored (i, Y): left-multiply.
                AlgPiece::Left(_) => assert!(key.0 == i),
                AlgPiece::Stored(_) => panic!("copy must not be Stored"),
            }
        }
    }

    #[test]
    fn copy_col_covers_targets_including_diagonal() {
        let c = blk([[1.0, 2.0], [3.0, 4.0]]);
        let q = 4;
        let i = 1;
        let t = 3;
        let copies = copy_col::<Tropical>(t, i, &c, q);
        // Targets: (0,3) R, (2,3) R, (3,3) L+R — 4 pieces.
        assert_eq!(copies.len(), 4);
        let diag_pieces: Vec<_> = copies.iter().filter(|(k, _)| *k == (3, 3)).collect();
        assert_eq!(diag_pieces.len(), 2);
        // Right pieces are transposed.
        for (key, piece) in &copies {
            if let AlgPiece::Right(b) = piece {
                assert_eq!(key.1, t);
                assert_eq!(b.get(0, 1), c.get(1, 0));
            }
        }
    }

    #[test]
    fn unpack_phase3_computes_product() {
        let a = stored([[10.0, 10.0], [10.0, 10.0]]);
        let l = AlgPiece::Left(blk([[1.0, INF], [INF, 1.0]]));
        let r = AlgPiece::Right(blk([[2.0, 3.0], [4.0, 5.0]]));
        let out = unpack(vec![l, a, r]);
        assert_eq!(out.dist().get(0, 0), 3.0); // 1 + 2
        assert_eq!(out.dist().get(1, 1), 6.0); // 1 + 5
    }

    #[test]
    fn unpack_phase2_left_and_right() {
        let d = blk([[0.0, 1.0], [1.0, 0.0]]);
        // Right: A ⊗ D — can route through the cheap diagonal.
        let out_r = unpack(vec![stored([[4.0; 2]; 2]), AlgPiece::Right(d.clone())]);
        assert_eq!(out_r.dist().get(0, 0), 4.0);
        assert_eq!(out_r.dist().get(0, 1), 4.0);
        // Left: D ⊗ A.
        let out_l = unpack(vec![AlgPiece::Left(d), stored([[4.0; 2]; 2])]);
        assert_eq!(out_l.dist().get(0, 0), 4.0);
    }

    #[test]
    fn unpack_stored_only_is_identity() {
        let out = unpack(vec![stored([[0.0, 7.0], [7.0, 0.0]])]);
        assert_eq!(out.dist(), &blk([[0.0, 7.0], [7.0, 0.0]]));
    }

    #[test]
    fn unpack_requires_stored() {
        let err = unpack_and_update::<Tropical>(
            MinPlusKernel::Auto,
            vec![AlgPiece::Left(ElemBlock::zeros(2))],
            PIVOT,
            2,
            KEY,
        )
        .unwrap_err();
        assert!(err.to_string().contains("lacks the Stored block"));
    }

    #[test]
    fn unpack_rejects_duplicate_stored() {
        let err = unpack_and_update::<Tropical>(
            MinPlusKernel::Auto,
            vec![
                stored([[0.0, 1.0], [1.0, 0.0]]),
                stored([[0.0, 2.0], [2.0, 0.0]]),
            ],
            PIVOT,
            2,
            KEY,
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate Stored piece"));
    }

    #[test]
    fn floyd_warshall_closes() {
        let mut a = Block::identity(3);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 2, 1.0);
        a.set(2, 1, 1.0);
        let closed = floyd_warshall_alg(AlgBlock::<Tropical>::from_dist(a), 0);
        assert_eq!(closed.dist().get(0, 2), 2.0);
    }
}
