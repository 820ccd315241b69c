//! Property-based tests of the kernel algebra: the invariants DESIGN.md
//! commits to (semiring laws, fixpoints, kernel-variant agreement).

use apsp_blockmat::kernels::{self, MinPlusKernel};
use apsp_blockmat::{Block, INF};
use proptest::prelude::*;

/// The non-oracle kernels, all of which must agree **bit-exactly** with
/// the `Naive` oracle (min over non-NaN values is order-independent).
const ENGINE_KERNELS: [MinPlusKernel; 3] = [
    MinPlusKernel::Branchless,
    MinPlusKernel::Packed,
    MinPlusKernel::Auto,
];

/// Deterministic block with tunable density (1.0 = fully dense).
fn seeded_block(b: usize, seed: u64, density: f64) -> Block {
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
            1.0 + next() * 42.0
        } else {
            INF
        }
    })
}

/// Strategy: a random block with INF holes, zero diagonal.
fn block_strategy(max_b: usize) -> impl Strategy<Value = Block> {
    (1..=max_b, any::<u64>(), 0.1f64..0.9).prop_map(|(b, seed, density)| {
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
                (next() * 50.0 * 1024.0).round() / 1024.0 // dyadic: exact min-plus
            } else {
                INF
            }
        })
    })
}

/// Two same-sized random blocks.
fn block_pair(max_b: usize) -> impl Strategy<Value = (Block, Block)> {
    (1..=max_b, any::<u64>(), any::<u64>()).prop_map(|(b, s1, s2)| {
        let mk = |seed: u64| {
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
                } else if next() < 0.5 {
                    (next() * 50.0 * 1024.0).round() / 1024.0
                } else {
                    INF
                }
            })
        };
        (mk(s1), mk(s2))
    })
}

/// The ISSUE-mandated deterministic sweep: every engine kernel agrees
/// bit-exactly with the naive oracle at sides spanning register-block and
/// tile boundaries (1, 7, 63, 64, 65, 129), at three densities including
/// all-INF and fully dense, folding into both all-INF and pre-seeded `c`.
#[test]
fn engine_kernels_bit_exact_across_boundary_sides() {
    for &side in &[1usize, 7, 63, 64, 65, 129] {
        for &density in &[0.0, 0.3, 1.0] {
            let a = seeded_block(side, side as u64 * 31 + 1, density);
            let b = seeded_block(side, side as u64 * 17 + 5, density);
            let seed_c = seeded_block(side, side as u64 * 7 + 9, 0.5);
            for init in [Block::infinity(side), seed_c] {
                let mut oracle = init.clone();
                kernels::min_plus_into_with(MinPlusKernel::Naive, &a, &b, &mut oracle);
                for kernel in ENGINE_KERNELS {
                    let mut c = init.clone();
                    kernels::min_plus_into_with(kernel, &a, &b, &mut c);
                    assert_eq!(
                        oracle, c,
                        "kernel {kernel:?} diverged from naive at side {side}, density {density}"
                    );
                }
            }
        }
    }
}

/// All-[`INF`] operands are absorbing on either side and must leave the
/// fold target untouched, for every kernel.
#[test]
fn all_inf_operands_are_inert() {
    for &side in &[1usize, 7, 64, 65, 129] {
        let z = Block::infinity(side);
        let r = seeded_block(side, 77, 0.6);
        for kernel in ENGINE_KERNELS {
            for (a, b) in [(&z, &r), (&r, &z), (&z, &z)] {
                let mut c = r.clone();
                kernels::min_plus_into_with(kernel, a, b, &mut c);
                assert_eq!(c, r, "kernel {kernel:?}, side {side}");
            }
        }
    }
}

/// The no-NaN invariant the branchless engine relies on: products and
/// Floyd-Warshall closures over `[0, ∞]` inputs never produce NaN, even
/// through INF + INF sums and all-INF panels.
#[test]
fn tropical_arithmetic_never_produces_nan() {
    for &side in &[1usize, 7, 64, 65, 129] {
        for &density in &[0.0, 0.15, 1.0] {
            let a = seeded_block(side, 3, density);
            let b = seeded_block(side, 9, density);
            for kernel in ENGINE_KERNELS {
                let mut c = Block::infinity(side);
                kernels::min_plus_into_with(kernel, &a, &b, &mut c);
                assert!(
                    c.data().iter().all(|v| !v.is_nan()),
                    "kernel {kernel:?} produced NaN at side {side}, density {density}"
                );
            }
            let mut fw = a.clone();
            fw.floyd_warshall_in_place();
            assert!(fw.data().iter().all(|v| !v.is_nan()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_variants_agree((a, b) in block_pair(40)) {
        let side = a.side();
        let mut naive = Block::infinity(side);
        kernels::min_plus_into_with(MinPlusKernel::Naive, &a, &b, &mut naive);
        for kernel in ENGINE_KERNELS {
            let mut c = Block::infinity(side);
            kernels::min_plus_into_with(kernel, &a, &b, &mut c);
            prop_assert_eq!(&naive, &c, "kernel {:?}", kernel);
        }
    }

    #[test]
    fn fold_entry_points_match_two_step((a, b) in block_pair(32)) {
        // min_plus_into_self(a, b) == mat_min_assign(a ⊗ b).
        let mut folded = a.clone();
        folded.min_plus_into_self(&a, &b);
        let mut manual = a.clone();
        manual.mat_min_assign(&a.min_plus(&b));
        prop_assert_eq!(&folded, &manual);

        // min_plus_assign == two-step right product.
        let mut assigned = a.clone();
        assigned.min_plus_assign(&b);
        let mut manual = a.clone();
        let prod = a.min_plus(&b);
        manual.mat_min_assign(&prod);
        prop_assert_eq!(&assigned, &manual);

        // min_plus_left_assign == two-step left product.
        let mut left = a.clone();
        left.min_plus_left_assign(&b);
        let mut manual = a.clone();
        manual.mat_min_assign(&b.min_plus(&a));
        prop_assert_eq!(&left, &manual);
    }

    #[test]
    fn fw_is_idempotent(a in block_strategy(32)) {
        let mut once = a;
        once.floyd_warshall_in_place();
        let mut twice = once.clone();
        twice.floyd_warshall_in_place();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn fw_is_monotone_tightening(a in block_strategy(24)) {
        let mut closed = a.clone();
        closed.floyd_warshall_in_place();
        for i in 0..a.side() {
            for j in 0..a.side() {
                prop_assert!(closed.get(i, j) <= a.get(i, j));
            }
        }
    }

    #[test]
    fn fw_fixpoint_absorbs_squaring(a in block_strategy(24)) {
        // FW(A) is closed: min(FW(A), FW(A) ⊗ FW(A)) = FW(A).
        let mut closed = a;
        closed.floyd_warshall_in_place();
        let mut squared = closed.clone();
        squared.min_plus_assign(&closed.clone());
        prop_assert_eq!(squared, closed);
    }

    #[test]
    fn matmin_is_idempotent_commutative_associative((a, b) in block_pair(24)) {
        let mut ab = a.clone();
        ab.mat_min_assign(&b);
        let mut ba = b.clone();
        ba.mat_min_assign(&a);
        prop_assert_eq!(&ab, &ba);
        let mut aa = a.clone();
        aa.mat_min_assign(&a);
        prop_assert_eq!(&aa, &a);
    }

    #[test]
    fn identity_is_neutral(a in block_strategy(24)) {
        let e = Block::identity(a.side());
        prop_assert_eq!(a.min_plus(&e), a.clone());
        prop_assert_eq!(e.min_plus(&a), a);
    }

    #[test]
    fn product_distributes_over_min((a, b) in block_pair(16)) {
        // a ⊗ min(b, c) = min(a⊗b, a⊗c) — with c = identity-ish variant.
        let c = b.transpose();
        let mut bc = b.clone();
        bc.mat_min_assign(&c);
        let lhs = a.min_plus(&bc);
        let mut rhs = a.min_plus(&b);
        rhs.mat_min_assign(&a.min_plus(&c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn transpose_antihomomorphism((a, b) in block_pair(16)) {
        // (a ⊗ b)ᵀ = bᵀ ⊗ aᵀ.
        let lhs = a.min_plus(&b).transpose();
        let rhs = b.transpose().min_plus(&a.transpose());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn serialization_roundtrip(a in block_strategy(32)) {
        let back = Block::from_bytes(&a.to_bytes()).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn fw_update_outer_never_loosens(a in block_strategy(24)) {
        let b = a.side();
        let col: Vec<f64> = (0..b).map(|i| if i % 3 == 0 { INF } else { i as f64 }).collect();
        let mut updated = a.clone();
        updated.fw_update_outer(&col, &col);
        for i in 0..b {
            for j in 0..b {
                prop_assert!(updated.get(i, j) <= a.get(i, j));
            }
        }
    }
}
