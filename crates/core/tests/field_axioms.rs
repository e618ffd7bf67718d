//! Property-based tests of the GF(256) field algebra.
//!
//! The q-ary solver is only correct if GF(256) really is a field (so
//! cancellation plus division by a coefficient recovers a segment exactly)
//! and if the slice operations compute, byte for byte, what [`mul`] does.

use cts_core::gf256::{add_scaled_slice, inv, mul, mul_slice, EXP, LOG};
use proptest::prelude::*;

proptest! {
    /// Multiplication is commutative and associative.
    #[test]
    fn mul_commutative_associative(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
        prop_assert_eq!(mul(a, b), mul(b, a));
        prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
    }

    /// Multiplication distributes over addition (XOR).
    #[test]
    fn mul_distributes_over_xor(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
        prop_assert_eq!(mul(a, b ^ c), mul(a, b) ^ mul(a, c));
    }

    /// 0 annihilates and 1 is the multiplicative identity.
    #[test]
    fn mul_identities(a in any::<u8>()) {
        prop_assert_eq!(mul(a, 0), 0);
        prop_assert_eq!(mul(0, a), 0);
        prop_assert_eq!(mul(a, 1), a);
        prop_assert_eq!(mul(1, a), a);
    }
}

/// Every one of the 255 nonzero scalars has a two-sided inverse, and the
/// log/exp tables are mutually consistent over the whole field.
#[test]
fn all_nonzero_scalars_have_inverses() {
    for a in 1..=255u8 {
        let ai = inv(a);
        assert_ne!(ai, 0, "inv({a})");
        assert_eq!(mul(a, ai), 1, "a · a⁻¹ for a = {a}");
        assert_eq!(mul(ai, a), 1, "a⁻¹ · a for a = {a}");
        assert_eq!(EXP[LOG[a as usize] as usize], a, "exp(log({a}))");
    }
}

/// Exhaustive distributivity over a full axis: for every scalar `c`,
/// `c ⊙ (x ⊕ y) = c ⊙ x ⊕ c ⊙ y` on a buffer covering all byte values.
#[test]
fn add_scaled_matches_mul_per_byte_for_all_scalars() {
    let x: Vec<u8> = (0..=255u8).collect();
    let y: Vec<u8> = (0..=255u8).rev().collect();
    for c in 0..=255u8 {
        let mut acc: Vec<u8> = x.iter().zip(&y).map(|(&a, &b)| a ^ b).collect();
        // acc = c ⊙ (x ⊕ y) …
        mul_slice(&mut acc, c);
        // … must equal (c ⊙ x) ⊕ (c ⊙ y), built byte-by-byte from `mul`.
        let expect: Vec<u8> = x
            .iter()
            .zip(&y)
            .map(|(&a, &b)| mul(c, a) ^ mul(c, b))
            .collect();
        assert_eq!(acc, expect, "c = {c}");
        // And x ⊕ c ⊙ y, accumulated in place, byte by byte from `mul`.
        let mut acc = x.clone();
        add_scaled_slice(&mut acc, &y, c);
        let expect: Vec<u8> = x.iter().zip(&y).map(|(&a, &b)| a ^ mul(c, b)).collect();
        assert_eq!(acc, expect, "x ⊕ {c} ⊙ y");
    }
}
