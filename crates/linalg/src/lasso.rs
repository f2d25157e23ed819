//! ℓ1-penalised quadratic programs solved by coordinate descent.
//!
//! The graphical lasso's inner step (Friedman, Hastie & Tibshirani 2008)
//! repeatedly solves
//!
//! ```text
//!   minimize_β  ½ βᵀ V β − sᵀ β + ρ ‖β‖₁
//! ```
//!
//! with `V` positive definite. Coordinate descent has the closed-form update
//! `β_j ← soft(s_j − Σ_{k≠j} V_jk β_k, ρ) / V_jj`, which this module
//! implements with warm starts.
//!
//! **Skip-zero invariant.** The solver keeps an ascending list of the
//! pairs `(k, β_k)` with `β_k ≠ 0` and forms the residual over that list
//! only, in the same index order as the dense sum; a coefficient that
//! enters or leaves zero is inserted into or removed from the list at the
//! sweep's cursor, the list position where index `j` sits or belongs.
//!
//! This is exact, not an approximation: for finite `V`, a zero `β_k`
//! contributes an exact ±0 product, subtracting ±0 leaves every nonzero
//! partial sum unchanged, and a sum that ends at ±0 either way is mapped
//! to `0.0` by [`soft_threshold`]. The skipping solver therefore returns
//! the dense loop's coefficients and sweep count bit for bit (pinned
//! against a dense reference in the tests below), while the ℓ1 sparsity
//! of `β` — typically more than half zero inside the graphical lasso —
//! becomes saved work.

use crate::dense::Matrix;
use crate::error::LinalgError;

/// Soft-thresholding operator `sign(x) · max(|x| − t, 0)`.
#[inline]
pub fn soft_threshold(x: f64, t: f64) -> f64 {
    if x > t {
        x - t
    } else if x < -t {
        x + t
    } else {
        0.0
    }
}

/// Configuration for [`lasso_quadratic_cd`].
#[derive(Debug, Clone, Copy)]
pub struct LassoConfig {
    /// Stop when the largest coordinate change in a sweep falls below this.
    pub tol: f64,
    /// Maximum number of full coordinate sweeps.
    pub max_sweeps: usize,
}

impl Default for LassoConfig {
    fn default() -> Self {
        LassoConfig {
            tol: 1e-6,
            max_sweeps: 500,
        }
    }
}

/// Solves `minimize_β ½ βᵀVβ − sᵀβ + ρ‖β‖₁` by cyclic coordinate descent.
///
/// `beta` is used as the warm start and overwritten with the solution.
/// Returns the number of sweeps performed.
pub fn lasso_quadratic_cd(
    v: &Matrix,
    s: &[f64],
    rho: f64,
    beta: &mut [f64],
    cfg: LassoConfig,
) -> Result<usize, LinalgError> {
    let p = s.len();
    if v.shape() != (p, p) {
        return Err(LinalgError::ShapeMismatch {
            op: "lasso_quadratic_cd",
            left: v.shape(),
            right: (p, p),
        });
    }
    if beta.len() != p {
        return Err(LinalgError::ShapeMismatch {
            op: "lasso_quadratic_cd(beta)",
            left: (beta.len(), 1),
            right: (p, 1),
        });
    }
    if rho < 0.0 || !rho.is_finite() {
        return Err(LinalgError::NonFinite { what: "rho" });
    }
    if p == 0 {
        return Ok(0);
    }
    for j in 0..p {
        if v[(j, j)] <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: j });
        }
    }

    // `(k, β_k)` for every nonzero coefficient, ascending in k (see the
    // module docs); the values mirror `beta` so the residual reads them
    // contiguously.
    let mut active: Vec<(usize, f64)> = (0..p)
        .filter(|&k| beta[k] != 0.0)
        .map(|k| (k, beta[k]))
        .collect();
    for sweep in 1..=cfg.max_sweeps {
        let mut max_delta = 0.0_f64;
        // active[..at] are the nonzero coefficients below the current j
        let mut at = 0;
        for j in 0..p {
            let listed = active.get(at).is_some_and(|&(k, _)| k == j);
            let above = if listed { at + 1 } else { at };
            // gradient residual excluding the j-th term, in ascending k
            let row = v.row(j);
            let mut r = s[j];
            for &(k, bk) in &active[..at] {
                r -= row[k] * bk;
            }
            for &(k, bk) in &active[above..] {
                r -= row[k] * bk;
            }
            let new_bj = soft_threshold(r, rho) / v[(j, j)];
            let delta = (new_bj - beta[j]).abs();
            if delta > max_delta {
                max_delta = delta;
            }
            let nonzero = new_bj != 0.0;
            match (listed, nonzero) {
                (true, true) => active[at].1 = new_bj,
                (false, true) => active.insert(at, (j, new_bj)),
                (true, false) => {
                    active.remove(at);
                }
                (false, false) => {}
            }
            at += usize::from(nonzero);
            beta[j] = new_bj;
        }
        if max_delta < cfg.tol {
            return Ok(sweep);
        }
    }
    // Coordinate descent on a PD quadratic always converges; hitting the cap
    // means tol was too tight for the conditioning. Report rather than loop.
    Err(LinalgError::DidNotConverge {
        what: "lasso coordinate descent",
        iterations: cfg.max_sweeps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dense coordinate-descent loop the skip-zero solver replaced,
    /// kept as the bit-exactness reference: every `k ≠ j` enters the
    /// residual, zero coefficients included. Inputs are assumed valid.
    fn dense_reference_cd(
        v: &Matrix,
        s: &[f64],
        rho: f64,
        beta: &mut [f64],
        cfg: LassoConfig,
    ) -> Result<usize, LinalgError> {
        let p = s.len();
        for sweep in 1..=cfg.max_sweeps {
            let mut max_delta = 0.0_f64;
            for j in 0..p {
                let row = v.row(j);
                let mut r = s[j];
                for (k, (&vjk, &bk)) in row.iter().zip(beta.iter()).enumerate() {
                    if k != j {
                        r -= vjk * bk;
                    }
                }
                let new_bj = soft_threshold(r, rho) / v[(j, j)];
                let delta = (new_bj - beta[j]).abs();
                if delta > max_delta {
                    max_delta = delta;
                }
                beta[j] = new_bj;
            }
            if max_delta < cfg.tol {
                return Ok(sweep);
            }
        }
        Err(LinalgError::DidNotConverge {
            what: "lasso coordinate descent",
            iterations: cfg.max_sweeps,
        })
    }

    /// SplitMix64 stream mapped to `[-1, 1)`, so the fixtures need no RNG
    /// dependency.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// A seeded positive-definite `V = AᵀA / n + δI` with a right-hand side.
    fn random_problem(rng: &mut Stream, p: usize, ridge: f64) -> (Matrix, Vec<f64>) {
        let n = p + 8;
        let a = Matrix::from_fn(n, p, |_, _| rng.next());
        let v = Matrix::from_fn(p, p, |i, j| {
            let dot: f64 = (0..n).map(|r| a[(r, i)] * a[(r, j)]).sum();
            dot / n as f64 + if i == j { ridge } else { 0.0 }
        });
        let s = (0..p).map(|_| rng.next()).collect();
        (v, s)
    }

    /// Runs both solvers from the same warm start and asserts identical
    /// outcomes, coefficient bits included. Returns (entered, left): how
    /// many coefficients moved from zero to nonzero and back.
    fn assert_matches_dense(v: &Matrix, s: &[f64], rho: f64, warm: &[f64]) -> (usize, usize) {
        let cfg = LassoConfig {
            tol: 1e-10,
            max_sweeps: 2000,
        };
        let mut dense = warm.to_vec();
        let mut skip = warm.to_vec();
        let dense_out = dense_reference_cd(v, s, rho, &mut dense, cfg).map_err(|e| e.to_string());
        let skip_out = lasso_quadratic_cd(v, s, rho, &mut skip, cfg).map_err(|e| e.to_string());
        assert_eq!(skip_out, dense_out, "sweeps, rho={rho}");
        for (k, (a, b)) in skip.iter().zip(&dense).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "beta[{k}] {a:e} vs {b:e}, rho={rho}"
            );
        }
        let entered = warm
            .iter()
            .zip(&skip)
            .filter(|(w, b)| **w == 0.0 && **b != 0.0)
            .count();
        let left = warm
            .iter()
            .zip(&skip)
            .filter(|(w, b)| **w != 0.0 && **b == 0.0)
            .count();
        (entered, left)
    }

    #[test]
    fn skip_zero_matches_dense_bitwise_on_random_problems() {
        let mut rng = Stream(0x5EED);
        for case in 0..40 {
            let p = 2 + case % 37;
            let ridge = 0.05 + 0.1 * rng.next().abs();
            let (v, s) = random_problem(&mut rng, p, ridge);
            for rho in [0.0, 0.01, 0.05, 0.2, 1.0] {
                assert_matches_dense(&v, &s, rho, &vec![0.0; p]);
            }
        }
    }

    #[test]
    fn skip_zero_matches_dense_bitwise_from_warm_starts() {
        // Warm starts mix zeros (both signs) with nonzero values that the
        // penalty drives back to zero, so coefficients both enter and leave
        // the nonzero list along the way.
        let mut rng = Stream(0xC0FFEE);
        let (mut entered, mut left) = (0, 0);
        for case in 0..40 {
            let p = 3 + case % 31;
            let (v, s) = random_problem(&mut rng, p, 0.1);
            for rho in [0.0, 0.03, 0.3] {
                let warm: Vec<f64> = (0..p)
                    .map(|k| match k % 3 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => 2.0 * rng.next(),
                    })
                    .collect();
                let (e, l) = assert_matches_dense(&v, &s, rho, &warm);
                entered += e;
                left += l;
            }
        }
        assert!(entered > 0 && left > 0, "entered {entered}, left {left}");
    }

    #[test]
    fn tiny_nonzero_coefficients_stay_in_the_residual() {
        // Only exact zeros may be skipped: a right-hand side scaled down
        // to 1e-12 gives coefficients far below any plausible cutoff.
        let mut rng = Stream(0x71_17);
        for p in [4, 17, 40] {
            let (v, s) = random_problem(&mut rng, p, 0.1);
            let tiny: Vec<f64> = s.iter().map(|x| x * 1e-12).collect();
            let warm: Vec<f64> = (0..p).map(|k| 1e-13 * (k % 3) as f64).collect();
            assert_matches_dense(&v, &tiny, 0.0, &warm);
            assert_matches_dense(&v, &tiny, 1e-13, &vec![0.0; p]);
        }
    }

    #[test]
    fn skip_zero_matches_dense_when_the_cap_is_hit() {
        let mut rng = Stream(7);
        let (v, s) = random_problem(&mut rng, 20, 0.01);
        let cfg = LassoConfig {
            tol: 0.0,
            max_sweeps: 3,
        };
        let mut dense = vec![0.0; 20];
        let mut skip = vec![0.0; 20];
        assert!(dense_reference_cd(&v, &s, 0.05, &mut dense, cfg).is_err());
        assert!(lasso_quadratic_cd(&v, &s, 0.05, &mut skip, cfg).is_err());
        for (a, b) in skip.iter().zip(&dense) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn soft_threshold_regions() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(2.0, 0.0), 2.0);
    }

    #[test]
    fn zero_penalty_solves_linear_system() {
        // With rho=0 the minimiser satisfies V beta = s.
        let v = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let s = vec![1.0, 2.0];
        let mut beta = vec![0.0, 0.0];
        lasso_quadratic_cd(&v, &s, 0.0, &mut beta, LassoConfig::default()).unwrap();
        let residual = v.matvec(&beta).unwrap();
        for (ri, si) in residual.iter().zip(&s) {
            assert!((ri - si).abs() < 1e-5);
        }
    }

    #[test]
    fn large_penalty_zeroes_solution() {
        let v = Matrix::identity(3);
        let s = vec![0.5, -0.2, 0.1];
        let mut beta = vec![1.0; 3];
        lasso_quadratic_cd(&v, &s, 10.0, &mut beta, LassoConfig::default()).unwrap();
        assert_eq!(beta, vec![0.0; 3]);
    }

    #[test]
    fn identity_v_gives_soft_threshold() {
        // V = I => beta_j = soft(s_j, rho).
        let v = Matrix::identity(2);
        let s = vec![1.0, -0.3];
        let mut beta = vec![0.0; 2];
        lasso_quadratic_cd(&v, &s, 0.4, &mut beta, LassoConfig::default()).unwrap();
        assert!((beta[0] - 0.6).abs() < 1e-9);
        assert_eq!(beta[1], 0.0);
    }

    #[test]
    fn satisfies_kkt_conditions() {
        let v = Matrix::from_rows(&[
            vec![3.0, 0.5, 0.2],
            vec![0.5, 2.0, 0.1],
            vec![0.2, 0.1, 1.5],
        ])
        .unwrap();
        let s = vec![1.0, -2.0, 0.05];
        let rho = 0.3;
        let mut beta = vec![0.0; 3];
        lasso_quadratic_cd(&v, &s, rho, &mut beta, LassoConfig::default()).unwrap();
        // KKT: grad_j = (V beta)_j - s_j must satisfy
        //   beta_j != 0  => grad_j = -rho*sign(beta_j)
        //   beta_j == 0  => |grad_j| <= rho
        let g = v.matvec(&beta).unwrap();
        for j in 0..3 {
            let grad = g[j] - s[j];
            if beta[j] != 0.0 {
                assert!((grad + rho * beta[j].signum()).abs() < 1e-5, "j={j}");
            } else {
                assert!(grad.abs() <= rho + 1e-6, "j={j}");
            }
        }
    }

    #[test]
    fn warm_start_converges_faster() {
        let v = Matrix::from_rows(&[vec![2.0, 0.3], vec![0.3, 2.0]]).unwrap();
        let s = vec![1.0, 1.0];
        let mut cold = vec![0.0; 2];
        let sweeps_cold =
            lasso_quadratic_cd(&v, &s, 0.1, &mut cold, LassoConfig::default()).unwrap();
        let mut warm = cold.clone();
        let sweeps_warm =
            lasso_quadratic_cd(&v, &s, 0.1, &mut warm, LassoConfig::default()).unwrap();
        assert!(sweeps_warm <= sweeps_cold);
        // The warm pass may refine by up to the tolerance.
        for (w, c) in warm.iter().zip(&cold) {
            assert!((w - c).abs() < 1e-5);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let v = Matrix::identity(2);
        let mut beta = vec![0.0; 2];
        assert!(lasso_quadratic_cd(&v, &[1.0], 0.1, &mut beta, LassoConfig::default()).is_err());
        assert!(
            lasso_quadratic_cd(&v, &[1.0, 1.0], -0.1, &mut beta, LassoConfig::default()).is_err()
        );
        let zero_diag = Matrix::zeros(2, 2);
        assert!(lasso_quadratic_cd(
            &zero_diag,
            &[1.0, 1.0],
            0.1,
            &mut beta,
            LassoConfig::default()
        )
        .is_err());
    }

    #[test]
    fn empty_problem_is_ok() {
        let v = Matrix::zeros(0, 0);
        let mut beta: Vec<f64> = vec![];
        assert_eq!(
            lasso_quadratic_cd(&v, &[], 0.1, &mut beta, LassoConfig::default()).unwrap(),
            0
        );
    }
}
