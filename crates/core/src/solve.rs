//! Per-group GF(256) linear solves for Vandermonde-mixed groups.
//!
//! Library code the job path does not call; kept because `benchmark/`
//! imports it; goes with ROADMAP 1(a). The engine's quorum decode runs the
//! binary single-parity code ([`crate::segment::quorum_role`]) instead.
//!
//! A Vandermonde-mixed packet carries, per target, a *mix* of all `s`
//! parts of the target's intermediate:
//!
//! ```text
//! sender u's term for target t:   c(u,t) ⊙ Σ_{j<s} v_u^j ⊙ part_j(I^t)
//! ```
//!
//! where `c(u,t)` is [`FieldKind::coeff`] and `v_u = α^u` ([`mds_point`])
//! is a distinct nonzero evaluation point per sender. After the receiver
//! cancels every term it knows, sender `u` contributes one equation with
//! coefficient row `c(u,k) · [v_u^0, …, v_u^{s-1}]` — a nonzero scalar
//! times a Vandermonde row with distinct points, so **every** `s`-subset
//! of rows is nonsingular, proven by `crates/core/tests/solve_props.rs`
//! over random subsets.
//!
//! [`GroupSolver`] is the incremental Gauss–Jordan eliminator behind
//! that: equations stream in, rank is tracked, and the system is solved
//! once rank hits `s`. Singular, underdetermined, and inconsistent systems
//! are reported as [`CodedError::SingularSystem`] — never panicked.

use crate::error::{CodedError, Result};
use crate::field::FieldKind;
use crate::gf256;
use crate::subset::NodeId;

/// MDS evaluation point for `sender`: `α^sender`. Distinct and nonzero
/// for every rank below 255, which covers the K ≤ 128 deployments the
/// node-set type supports.
#[inline]
pub fn mds_point(sender: NodeId) -> u8 {
    gf256::EXP[sender % 255]
}

/// The coefficient row receiver `k` attributes to sender `u`'s packet in
/// an `s`-part MDS group: `c(u,k) · [v_u^0, …, v_u^{s-1}]`.
///
/// `field` is GF(256), the only [`FieldKind`].
pub fn mds_row(field: FieldKind, sender: NodeId, receiver: NodeId, s: usize) -> Vec<u8> {
    let c = field.coeff(sender, receiver);
    let v = mds_point(sender);
    let mut row = Vec::with_capacity(s);
    let mut w = c;
    for _ in 0..s {
        row.push(w);
        w = gf256::mul(w, v);
    }
    row
}

/// One stored row of the reduced system: the coefficient vector (its
/// pivot column holds 1, all other *pivot* columns hold 0) and the
/// matching right-hand-side byte buffer.
#[derive(Clone, Debug)]
struct Row {
    coeffs: Vec<u8>,
    rhs: Vec<u8>,
}

/// Incremental Gauss–Jordan elimination over GF(256).
///
/// Coefficient arithmetic is scalar (rows are at most 16 bytes — the
/// node-set width); right-hand-side buffers are segment-sized and go
/// through the [`gf256`] slice operations.
///
/// ```
/// use cts_core::solve::GroupSolver;
///
/// // x0 ^ x1 = [3], x1 = [1]  →  x0 = [2], x1 = [1]
/// let mut s = GroupSolver::new(2, 1);
/// assert!(s.add_equation(&[1, 1], &[3]).unwrap());
/// assert!(s.add_equation(&[0, 1], &[1]).unwrap());
/// assert_eq!(s.solve().unwrap(), vec![vec![2u8], vec![1u8]]);
/// ```
#[derive(Clone, Debug)]
pub struct GroupSolver {
    unknowns: usize,
    seg_len: usize,
    /// Indexed by pivot column; `None` until that column has a pivot.
    rows: Vec<Option<Row>>,
    rank: usize,
}

impl GroupSolver {
    /// A solver for `unknowns` parts of `seg_len` bytes each.
    pub fn new(unknowns: usize, seg_len: usize) -> GroupSolver {
        GroupSolver {
            unknowns,
            seg_len,
            rows: (0..unknowns).map(|_| None).collect(),
            rank: 0,
        }
    }

    /// Current rank of the accumulated coefficient matrix.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of unknown parts.
    pub fn unknowns(&self) -> usize {
        self.unknowns
    }

    /// Whether the system has reached full rank (a unique solution).
    pub fn is_complete(&self) -> bool {
        self.rank == self.unknowns
    }

    /// Feeds one equation `Σ_j coeffs[j] ⊙ part_j = rhs` into the
    /// eliminator. Returns `Ok(true)` if the equation increased the rank,
    /// `Ok(false)` if it was linearly dependent on (and consistent with)
    /// what is already known — a benign duplicate.
    ///
    /// # Errors
    /// [`CodedError::SingularSystem`] if the equation contradicts an
    /// earlier one (same span, different bytes), and
    /// [`CodedError::InvalidParameters`] on length mismatches. Never
    /// panics.
    pub fn add_equation(&mut self, coeffs: &[u8], rhs: &[u8]) -> Result<bool> {
        if coeffs.len() != self.unknowns {
            return Err(CodedError::InvalidParameters {
                what: format!(
                    "equation has {} coefficients, solver wants {}",
                    coeffs.len(),
                    self.unknowns
                ),
            });
        }
        if rhs.len() != self.seg_len {
            return Err(CodedError::InvalidParameters {
                what: format!(
                    "equation rhs is {} bytes, solver wants {}",
                    rhs.len(),
                    self.seg_len
                ),
            });
        }
        let mut c = coeffs.to_vec();
        let mut b = rhs.to_vec();
        // Forward-eliminate against every existing pivot.
        for col in 0..self.unknowns {
            if c[col] == 0 {
                continue;
            }
            if let Some(row) = &self.rows[col] {
                let f = c[col];
                for (cj, &rj) in c[col..].iter_mut().zip(&row.coeffs[col..]) {
                    *cj ^= gf256::mul(f, rj);
                }
                gf256::add_scaled_slice(&mut b, &row.rhs, f);
            }
        }
        let Some(p) = c.iter().position(|&x| x != 0) else {
            // Fully eliminated: either a consistent duplicate or a
            // contradiction.
            if b.iter().all(|&x| x == 0) {
                return Ok(false);
            }
            return Err(CodedError::SingularSystem {
                rank: self.rank,
                need: self.unknowns,
                what: "equation contradicts an earlier one".into(),
            });
        };
        // Normalize the pivot to 1.
        let inv = gf256::inv(c[p]);
        for x in c.iter_mut().skip(p) {
            *x = gf256::mul(*x, inv);
        }
        gf256::mul_slice(&mut b, inv);
        // Back-eliminate the new pivot column from every stored row, so
        // the system stays in reduced form and `solve` is a read-off.
        for q in 0..self.unknowns {
            if let Some(row) = &mut self.rows[q] {
                let f = row.coeffs[p];
                if f != 0 {
                    for (rj, &cj) in row.coeffs.iter_mut().zip(&c) {
                        *rj ^= gf256::mul(f, cj);
                    }
                    gf256::add_scaled_slice(&mut row.rhs, &b, f);
                }
            }
        }
        self.rows[p] = Some(Row { coeffs: c, rhs: b });
        self.rank += 1;
        Ok(true)
    }

    /// Solves the system, consuming the solver: part `j` of the result is
    /// the `seg_len`-byte buffer for unknown `j`.
    ///
    /// # Errors
    /// [`CodedError::SingularSystem`] if the system is underdetermined
    /// (rank below the number of unknowns). Never panics.
    pub fn solve(self) -> Result<Vec<Vec<u8>>> {
        if !self.is_complete() {
            return Err(CodedError::SingularSystem {
                rank: self.rank,
                need: self.unknowns,
                what: "underdetermined: need more independent equations".into(),
            });
        }
        // Full rank in reduced form: every column is a pivot and every
        // stored row is a unit vector, so rhs[j] *is* part j.
        let mut out = Vec::with_capacity(self.unknowns);
        for row in self.rows {
            let row = row.expect("full rank has a pivot in every column");
            debug_assert!(row.coeffs.iter().filter(|&&x| x != 0).count() == 1);
            out.push(row.rhs);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_system_solves_trivially() {
        let mut s = GroupSolver::new(3, 4);
        for j in 0..3 {
            let mut coeffs = vec![0u8; 3];
            coeffs[j] = 1;
            assert!(s.add_equation(&coeffs, &[j as u8; 4]).unwrap());
        }
        let parts = s.solve().unwrap();
        for (j, p) in parts.iter().enumerate() {
            assert_eq!(p, &vec![j as u8; 4]);
        }
    }

    #[test]
    fn mds_rows_reach_full_rank_from_any_subset() {
        // Group {0..=4}: receiver 4, senders 0..4, s = 3 parts.
        let s = 3;
        let parts: Vec<Vec<u8>> = (0..s).map(|j| vec![(j * 17 + 3) as u8; 8]).collect();
        for skip in 0..4usize {
            let mut solver = GroupSolver::new(s, 8);
            for u in (0..4usize).filter(|&u| u != skip) {
                let row = mds_row(FieldKind::Gf256, u, 4, s);
                let mut rhs = vec![0u8; 8];
                for (j, p) in parts.iter().enumerate() {
                    gf256::add_scaled_slice(&mut rhs, p, row[j]);
                }
                solver.add_equation(&row, &rhs).unwrap();
            }
            assert!(solver.is_complete(), "skip={skip}");
            assert_eq!(solver.solve().unwrap(), parts, "skip={skip}");
        }
    }

    #[test]
    fn duplicate_equation_is_benign() {
        let mut s = GroupSolver::new(2, 2);
        assert!(s.add_equation(&[1, 2], &[5, 6]).unwrap());
        assert!(!s.add_equation(&[1, 2], &[5, 6]).unwrap());
        assert_eq!(s.rank(), 1);
    }

    #[test]
    fn contradiction_is_an_error_not_a_panic() {
        let mut s = GroupSolver::new(2, 2);
        s.add_equation(&[1, 2], &[5, 6]).unwrap();
        let err = s.add_equation(&[1, 2], &[5, 7]).unwrap_err();
        assert!(matches!(err, CodedError::SingularSystem { .. }));
    }

    #[test]
    fn underdetermined_solve_is_an_error() {
        let mut s = GroupSolver::new(3, 1);
        s.add_equation(&[1, 1, 0], &[9]).unwrap();
        let err = s.solve().unwrap_err();
        assert!(matches!(
            err,
            CodedError::SingularSystem {
                rank: 1,
                need: 3,
                ..
            }
        ));
    }

    #[test]
    fn length_mismatches_are_errors() {
        let mut s = GroupSolver::new(2, 4);
        assert!(s.add_equation(&[1], &[0; 4]).is_err());
        assert!(s.add_equation(&[1, 0], &[0; 3]).is_err());
    }

    #[test]
    fn mds_points_are_distinct_and_nonzero() {
        let points: Vec<u8> = (0..128).map(mds_point).collect();
        let distinct: std::collections::HashSet<u8> = points.iter().copied().collect();
        assert_eq!(distinct.len(), 128, "points must be distinct");
        assert!(points.iter().all(|&v| v != 0));
    }
}
