//! GF(256) arithmetic and its two slice operations.
//!
//! Library code the job path does not call; kept because `benchmark/`
//! imports it; goes with ROADMAP 1(a). The engine codes every packet over
//! GF(2) ([`crate::xor`]); this module backs [`crate::solve`] only.
//!
//! The field is `GF(2^8)` under the primitive polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (`0x11D`, the classic Reed–Solomon
//! modulus) with generator `α = 2`. Addition is XOR and multiplication
//! goes through compile-time log/exp tables. Two slice operations, each one
//! table walk per byte, allocation-free:
//!
//! * [`add_scaled_slice`]: `dst[i] ^= c ⊗ src[i]`, the q-ary
//!   generalization of [`crate::xor::xor_into`];
//! * [`mul_slice`]: `dst[i] = c ⊗ dst[i]`.

/// Compile-time log/exp tables for `GF(2^8) / 0x11D`, generator 2.
///
/// `EXP` is doubled (510 live entries) so `mul` can index
/// `EXP[log a + log b]` without a `% 255`.
const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11D;
        }
        i += 1;
    }
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();
/// `EXP[i] = α^i` for `i < 255`, repeated once so sums of two logs index
/// directly.
pub const EXP: [u8; 512] = TABLES.0;
/// `LOG[x] = log_α x` for nonzero `x` (`LOG[0]` is unused and zero).
pub const LOG: [u8; 256] = TABLES.1;

/// Field multiplication `a ⊗ b`.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse of a nonzero element.
///
/// # Panics
/// Panics on `inv(0)` — zero has no inverse; coefficient rules must only
/// ever produce nonzero scalars.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "gf256: zero has no multiplicative inverse");
    EXP[255 - LOG[a as usize] as usize]
}

/// The GF(256) slice kernel this build runs: the portable log/exp-table
/// loop, the only one. Kept only because `benchmark/` prints it; goes with
/// ROADMAP 1(a).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Gf256Kernel {
    /// Portable log/exp-table kernel, one byte per step.
    Scalar,
}

impl Gf256Kernel {
    /// The kernel [`add_scaled_slice`] and [`mul_slice`] run.
    pub fn active() -> Gf256Kernel {
        Gf256Kernel::Scalar
    }
}

impl std::fmt::Display for Gf256Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("gf256-scalar")
    }
}

/// `dst[i] ^= c ⊗ src[i]` for `i < src.len()`, with the same
/// zero-padding convention as [`crate::xor::xor_into`]: a shorter `src`
/// leaves the accumulator tail untouched (padding zeros scale to zero).
/// `log c` is hoisted out; one table walk per nonzero source byte.
///
/// # Panics
/// Panics if `src.len() > dst.len()`.
pub fn add_scaled_slice(dst: &mut [u8], src: &[u8], c: u8) {
    assert!(
        src.len() <= dst.len(),
        "add_scaled_slice: src ({}) longer than dst ({})",
        src.len(),
        dst.len()
    );
    if c == 0 {
        return; // 0 ⊗ x = 0: XOR-ing zeros is the identity.
    }
    let log_c = LOG[c as usize] as usize;
    for (d, &s) in dst[..src.len()].iter_mut().zip(src) {
        if s != 0 {
            *d ^= EXP[log_c + LOG[s as usize] as usize];
        }
    }
}

/// `dst[i] = c ⊗ dst[i]` over the whole slice — the decoder's inverse
/// scaling.
pub fn mul_slice(dst: &mut [u8], c: u8) {
    match c {
        0 => dst.fill(0),
        1 => {} // 1 is the multiplicative identity.
        _ => {
            let log_c = LOG[c as usize] as usize;
            for d in dst.iter_mut().filter(|d| **d != 0) {
                *d = EXP[log_c + LOG[*d as usize] as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference multiplication: carry-less shift-and-add mod 0x11D,
    /// independent of the tables it checks.
    fn mul_ref(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                p ^= a;
            }
            let hi = a & 0x80 != 0;
            a <<= 1;
            if hi {
                a ^= 0x1D; // 0x11D mod x^8
            }
            b >>= 1;
        }
        p
    }

    #[test]
    fn tables_match_reference_mul_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_ref(a, b), "{a} ⊗ {b}");
            }
        }
    }

    #[test]
    fn exp_log_are_inverse_bijections() {
        for i in 0..255usize {
            assert_eq!(LOG[EXP[i] as usize] as usize, i);
        }
        let mut seen = [false; 256];
        for i in 0..255usize {
            assert!(!seen[EXP[i] as usize], "EXP repeats before order 255");
            seen[EXP[i] as usize] = true;
        }
        assert!(!seen[0], "0 is not a power of the generator");
    }

    #[test]
    fn inverses_over_all_nonzero_elements() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inv_zero_panics() {
        inv(0);
    }

    #[test]
    fn scalar_add_scaled_matches_bytewise_mul() {
        let src: Vec<u8> = (0..=255u8).collect();
        for c in [1u8, 2, 0x53, 0xCA] {
            let mut dst = vec![0xA5u8; 256];
            add_scaled_slice(&mut dst, &src, c);
            for (i, &d) in dst.iter().enumerate() {
                assert_eq!(d, 0xA5 ^ mul(c, i as u8), "c={c} i={i}");
            }
        }
    }

    #[test]
    fn add_scaled_by_zero_and_one_degenerate_correctly() {
        let src = vec![0x5Au8; 40];
        let mut dst = vec![0x0Fu8; 40];
        add_scaled_slice(&mut dst, &src, 0);
        assert!(dst.iter().all(|&b| b == 0x0F), "c=0 must be a no-op");
        add_scaled_slice(&mut dst, &src, 1);
        assert!(dst.iter().all(|&b| b == 0x0F ^ 0x5A), "c=1 must be XOR");
    }

    #[test]
    fn shorter_src_leaves_tail_untouched() {
        let mut dst = vec![1u8, 2, 3, 4, 5];
        add_scaled_slice(&mut dst, &[1, 1], 3);
        assert_eq!(&dst[2..], &[3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "add_scaled_slice")]
    fn rejects_longer_src() {
        add_scaled_slice(&mut [0u8; 2], &[0u8; 3], 1);
    }

    #[test]
    fn mul_slice_by_zero_clears() {
        let mut dst = vec![7u8; 50];
        mul_slice(&mut dst, 0);
        assert!(dst.iter().all(|&b| b == 0));
    }

    #[test]
    fn add_scaled_then_inverse_cancellation_roundtrips() {
        // The decode identity: acc = c ⊗ x; inv(c) ⊗ acc = x.
        let x: Vec<u8> = (0..300).map(|i| (i * 7 + 1) as u8).collect();
        for c in [2u8, 0x1D, 0xB7] {
            let mut acc = vec![0u8; x.len()];
            add_scaled_slice(&mut acc, &x, c);
            mul_slice(&mut acc, inv(c));
            assert_eq!(acc, x, "c = {c}");
        }
    }
}
