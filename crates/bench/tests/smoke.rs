//! Crate-isolation smoke tests for `cargo test -p apsp-bench`: the
//! formatting and JSON plumbing every harness binary relies on.

use apsp_bench::{fmt_duration, TextTable};

/// Regression guard for the hot path: the auto-dispatch — one selector
/// for both `f64` algebras — must keep selecting the packed tier at
/// solver-relevant block sides, and the tropical algebra must run on it,
/// not on the generic fallback loops.
#[test]
fn tropical_auto_dispatch_keeps_the_packed_tier_at_large_sides() {
    use apsp_blockmat::kernels::{self, MinPlusKernel};
    for side in [128usize, 129, 256, 512, 1024, 4096] {
        assert_eq!(
            kernels::select(side),
            MinPlusKernel::Packed,
            "side {side} must stay on the packed register-blocked engine"
        );
    }
    assert_eq!(kernels::select(64), MinPlusKernel::Branchless);

    // And the Tropical path-algebra fold is bit-identical to the packed
    // kernel's output at the tier boundary (it dispatches into the same
    // engine, not the generic semiring loop).
    use apsp_blockmat::{AlgBlock, Block, Offsets, Tropical};
    let b = 128;
    let a = Block::from_fn(b, |i, j| {
        if i == j {
            0.0
        } else {
            ((i * 7 + j) % 13) as f64
        }
    });
    let x = Block::from_fn(b, |i, j| {
        if i == j {
            0.0
        } else {
            ((i * 5 + j) % 11) as f64
        }
    });
    let mut packed = Block::infinity(b);
    kernels::min_plus_into_with(MinPlusKernel::Packed, &a, &x, &mut packed);
    let mut alg = AlgBlock::<Tropical>::from_dist(Block::infinity(b));
    alg.min_plus_into_self(
        MinPlusKernel::Auto,
        &a,
        &x,
        Offsets {
            k: 0,
            row: 0,
            col: 0,
        },
    );
    assert_eq!(alg.dist(), &packed);
}

/// The non-tropical twin of the guard above: the bottleneck algebra must
/// run on the packed engine at sides ≥ 128, and reachability on the
/// bitset kernel.
#[test]
fn non_tropical_auto_dispatch_keeps_the_specialized_tiers() {
    use apsp_blockmat::kernels::{self, MinPlusKernel};
    use apsp_blockmat::{
        AlgBlock, BitBlock, BoolSemiring, BottleneckF64, ElemBlock, Offsets, Reachability, Widest,
    };

    // The Widest fold Auto-dispatches into the same packed engine the
    // explicit kernel runs (not the generic semiring loop)...
    let b = 128;
    let o0 = Offsets {
        k: 0,
        row: 0,
        col: 0,
    };
    let cap = |seed: usize| {
        ElemBlock::<BottleneckF64>::from_fn(b, |i, j| {
            if i == j {
                f64::INFINITY
            } else {
                ((i * 7 + j + seed) % 13) as f64
            }
        })
    };
    let (wa, wx) = (cap(2), cap(3));
    let mut packed = ElemBlock::<BottleneckF64>::zeros(b);
    kernels::min_plus_into_with(MinPlusKernel::Packed, &wa, &wx, &mut packed);
    let mut alg = AlgBlock::<Widest>::from_dist(ElemBlock::zeros(b));
    alg.min_plus_into_self(MinPlusKernel::Auto, &wa, &wx, o0);
    assert_eq!(alg.dist(), &packed);

    // ...and the Reachability fold is bit-identical to the word-packed
    // BitBlock product.
    let adj = |seed: usize| {
        ElemBlock::<BoolSemiring>::from_fn(b, |i, j| i == j || (i * 7 + j + seed).is_multiple_of(5))
    };
    let (ba, bx) = (adj(2), adj(3));
    let mut bits = BitBlock::zeros(b);
    kernels::bool_or_product_into(
        &BitBlock::from_elem_block(&ba),
        &BitBlock::from_elem_block(&bx),
        &mut bits,
    );
    let mut alg = AlgBlock::<Reachability>::from_dist(ElemBlock::zeros(b));
    alg.min_plus_into_self(MinPlusKernel::Auto, &ba, &bx, o0);
    assert_eq!(alg.dist(), &bits.to_elem_block());
}

#[test]
fn duration_formatting_matches_paper_tables() {
    assert_eq!(fmt_duration(0.022), "0.022s");
    assert_eq!(fmt_duration(45.0), "45s");
    assert_eq!(fmt_duration(170.0), "2m50s");
    assert_eq!(fmt_duration(8.0 * 3600.0 + 9.0 * 60.0), "8h9m");
    assert_eq!(fmt_duration(9.0 * 86400.0 + 16.0 * 3600.0), "9d16h");
    assert_eq!(fmt_duration(f64::INFINITY), "∞");
}

#[test]
fn text_table_renders_headers_and_rows() {
    let mut t = TextTable::new(&["solver", "time"]);
    t.row(vec!["Blocked-CB".into(), "45s".into()]);
    let s = t.render();
    assert!(s.contains("solver") && s.contains("Blocked-CB") && s.contains("45s"));
}

#[test]
fn write_json_emits_a_file_under_results() {
    #[derive(serde::Serialize)]
    struct Row {
        n: usize,
        t: f64,
    }
    let path = apsp_bench::write_json("smoke_test", &Row { n: 4, t: 1.5 }).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"n\": 4"), "{text}");
    let _ = std::fs::remove_file(path);
}
