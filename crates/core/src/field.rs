//! The field tag [`crate::solve::mds_row`] takes.
//!
//! Library code the job path does not call; kept because `benchmark/`
//! imports it; goes with ROADMAP 1(a). Every packet the engine sends is a
//! binary (GF(2)) XOR fold: the paper's code under `--decode all`, the
//! single-parity quorum code under `--decode quorum`
//! ([`crate::segment::quorum_role`]).

use crate::gf256;
use crate::subset::NodeId;

/// The finite field a Vandermonde row lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldKind {
    /// `GF(2^8)`: nonzero per-segment coefficients.
    Gf256,
}

impl FieldKind {
    /// The coefficient attached to target `t`'s segment in sender `u`'s
    /// combination: `α^((31·u + 7·t + 1) mod 255)` — a power of the
    /// generator, hence never zero.
    #[inline]
    pub fn coeff(self, sender: NodeId, target: NodeId) -> u8 {
        match self {
            FieldKind::Gf256 => gf256::EXP[(31 * sender + 7 * target + 1) % 255],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf256_coeffs_are_nonzero_for_all_rank_pairs() {
        for u in 0..128 {
            for t in 0..128 {
                assert_ne!(FieldKind::Gf256.coeff(u, t), 0, "({u}, {t})");
            }
        }
    }

    #[test]
    fn gf256_coeffs_vary_with_both_endpoints() {
        let f = FieldKind::Gf256;
        assert_ne!(f.coeff(0, 1), f.coeff(0, 2));
        assert_ne!(f.coeff(0, 1), f.coeff(1, 1));
    }
}
