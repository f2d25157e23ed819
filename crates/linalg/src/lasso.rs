//! ℓ1-penalised quadratic programs: coordinate descent finds the support,
//! one certified linear solve finishes it.
//!
//! The graphical lasso's inner step (Friedman, Hastie & Tibshirani 2008)
//! repeatedly solves
//!
//! ```text
//!   minimize_β  ½ βᵀ V β − sᵀ β + ρ ‖β‖₁
//! ```
//!
//! with `V` positive definite. [`lasso_quadratic_cd`] runs in two phases,
//! the remedy glmnet uses for slow coordinate descent on correlated
//! columns (Friedman, Hastie & Tibshirani 2010).
//!
//! **Phase 1: coordinate descent.** Warm-started cyclic sweeps of the
//! closed-form update `β_j ← soft(s_j − Σ_{k≠j} V_jk β_k, ρ) / V_jj`. On
//! collinear columns these settle the support and the signs of `β` within
//! a few sweeps, then crawl towards the values for many more.
//!
//! **Phase 2: the active-set solve.** After a sweep that changes no
//! coefficient's sign (zero counting as a sign of its own), the signs `σ`
//! on the active set `A = {k : β_k ≠ 0}` are taken as a guess at the
//! optimum's. With `β` zero off `A` and signs `σ` on it, the objective is
//! a smooth quadratic in `β_A`, minimised where
//! `V_AA x = s_A − ρ σ_A`; one Cholesky factorisation solves that.
//!
//! **Certificate.** `x` (zero off `A`) is kept only if every `x_i` is
//! nonzero with sign `σ_i` and every inactive `k` has
//! `|s_k − V_kA x| ≤ ρ`. Those are exactly the optimality (KKT)
//! conditions: on `A` the gradient `(Vβ − s)_i` equals `−ρ σ_i`, the one
//! subgradient of `ρ|β_i|`, and off `A` it lies in `[−ρ, ρ]`, the
//! subdifferential at zero. `V` positive definite makes the objective
//! strictly convex, so a point meeting them is its unique minimiser. An
//! accepted solve is therefore the exact solution up to the rounding of
//! one Cholesky solve, not an iterate within `tol` of it.
//!
//! **Backoff.** A rejected solve (a wrong sign guess, or a failed
//! factorisation) touches nothing, and coordinate descent continues. Each
//! rejection doubles the number of sign-stable sweeps the next attempt
//! waits for (1, 2, 4, …), so `k` rejections take at least `2ᵏ − 1`
//! sweeps and a call of `S` sweeps wastes at most `⌊log₂(S + 1)⌋` solves.
//! A sweep that meets `tol` with unchanged signs gets one last attempt
//! whatever the backoff; if that fails too, the coordinate-descent
//! iterate is returned as before. Convergence, the sweep cap and the
//! returned sweep count remain coordinate descent's.
//!
//! **Skip-zero invariant.** A sweep keeps an ascending list of the pairs
//! `(k, β_k)` with `β_k ≠ 0` and forms the residual over that list only,
//! in the same index order as the dense sum; a coefficient that enters or
//! leaves zero is inserted into or removed from the list at the sweep's
//! cursor, the list position where index `j` sits or belongs.
//!
//! This is exact, not an approximation: for finite `V`, a zero `β_k`
//! contributes an exact ±0 product, subtracting ±0 leaves every nonzero
//! partial sum unchanged, and a sum that ends at ±0 either way is mapped
//! to `0.0` by [`soft_threshold`]. A skipping sweep therefore computes the
//! dense sweep's coefficients and largest change bit for bit (pinned
//! against a dense sweep in the tests below), while the ℓ1 sparsity of
//! `β` — typically more than half zero inside the graphical lasso —
//! becomes saved work.

use crate::cholesky::Cholesky;
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

/// Solves `minimize_β ½ βᵀVβ − sᵀβ + ρ‖β‖₁`: coordinate descent finds the
/// support, a certified active-set solve finishes it (see the module docs).
///
/// `beta` is used as the warm start and overwritten with the solution.
/// Returns the number of coordinate-descent sweeps performed.
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
    // Consecutive sign-stable sweeps so far, and how many the next
    // active-set solve waits for (doubled after each rejected solve).
    let (mut stable, mut required) = (0, 1);
    for sweep in 1..=cfg.max_sweeps {
        let (max_delta, signs_moved) = cd_sweep(v, s, rho, beta, &mut active);
        stable = if signs_moved { 0 } else { stable + 1 };
        let converged = max_delta < cfg.tol;
        if stable >= required || (converged && stable > 0) {
            if certified_active_solve(v, s, rho, beta, &mut active) {
                return Ok(sweep);
            }
            stable = 0;
            required *= 2;
        }
        if converged {
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

/// One cyclic coordinate-descent sweep over `j = 0..p`, forming each
/// residual over the nonzero list `active` only (see the module docs).
/// Returns the largest coefficient change and whether any coefficient
/// changed sign, zero counting as a sign of its own.
fn cd_sweep(
    v: &Matrix,
    s: &[f64],
    rho: f64,
    beta: &mut [f64],
    active: &mut Vec<(usize, f64)>,
) -> (f64, bool) {
    let mut max_delta = 0.0_f64;
    let mut signs_moved = false;
    // active[..at] are the nonzero coefficients below the current j
    let mut at = 0;
    for j in 0..beta.len() {
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
        signs_moved |= listed != nonzero || (new_bj > 0.0) != (beta[j] > 0.0);
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
    (max_delta, signs_moved)
}

/// Solves the stationarity equations `V_AA x = s_A − ρ·sign(β_A)` on the
/// active set A with the current signs, and installs `x` into `beta` and
/// `active` only if it is certified optimal: every `x_i` nonzero with the
/// sign assumed for it, and `|s_k − V_kA x| ≤ ρ` at every inactive `k`.
/// Returns whether the solve was accepted; on rejection (including a
/// failed factorisation) nothing is touched.
fn certified_active_solve(
    v: &Matrix,
    s: &[f64],
    rho: f64,
    beta: &mut [f64],
    active: &mut [(usize, f64)],
) -> bool {
    let n = active.len();
    let v_aa = Matrix::from_fn(n, n, |a, b| v[(active[a].0, active[b].0)]);
    let rhs: Vec<f64> = active
        .iter()
        .map(|&(k, bk)| s[k] - rho * bk.signum())
        .collect();
    let Ok(x) = Cholesky::factor(&v_aa).and_then(|chol| chol.solve(&rhs)) else {
        return false;
    };
    if active
        .iter()
        .zip(&x)
        .any(|(&(_, bk), &xk)| xk.is_nan() || xk * bk <= 0.0)
    {
        return false;
    }
    let mut at = 0;
    for (k, &sk) in s.iter().enumerate() {
        if active.get(at).is_some_and(|&(i, _)| i == k) {
            at += 1;
            continue;
        }
        let row = v.row(k);
        let r = active
            .iter()
            .zip(&x)
            .fold(sk, |r, (&(i, _), &xi)| r - row[i] * xi);
        if r.is_nan() || r.abs() > rho {
            return false;
        }
    }
    for (entry, xk) in active.iter_mut().zip(x) {
        entry.1 = xk;
        beta[entry.0] = xk;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One dense coordinate-descent sweep, the bit-exactness reference for
    /// [`cd_sweep`]: every `k ≠ j` enters the residual, zero coefficients
    /// included. Returns the largest coefficient change.
    fn dense_sweep(v: &Matrix, s: &[f64], rho: f64, beta: &mut [f64]) -> f64 {
        let mut max_delta = 0.0_f64;
        for j in 0..s.len() {
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
        max_delta
    }

    /// Plain coordinate descent on [`dense_sweep`] until the largest change
    /// falls below `cfg.tol`, with no active-set solve. Inputs are assumed
    /// valid.
    fn dense_reference_cd(
        v: &Matrix,
        s: &[f64],
        rho: f64,
        beta: &mut [f64],
        cfg: LassoConfig,
    ) -> Result<usize, LinalgError> {
        for sweep in 1..=cfg.max_sweeps {
            if dense_sweep(v, s, rho, beta) < cfg.tol {
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

    /// Asserts that `beta` is the certified minimiser: on the support the
    /// gradient `(Vβ − s)_k` equals `−ρ·sign(β_k)` within 1e-10, and off it
    /// `|s_k − (Vβ)_k| ≤ ρ(1 + 1e-12)`.
    fn assert_kkt(v: &Matrix, s: &[f64], rho: f64, beta: &[f64], label: &str) {
        let vb = v.matvec(beta).unwrap();
        for (k, ((&bk, &vbk), &sk)) in beta.iter().zip(&vb).zip(s).enumerate() {
            let grad = vbk - sk;
            if bk != 0.0 {
                let gap = (grad + rho * bk.signum()).abs();
                assert!(gap <= 1e-10, "{label}: support k={k} gap {gap:e}");
            } else {
                assert!(
                    grad.abs() <= rho * (1.0 + 1e-12),
                    "{label}: inactive k={k} |grad| {:e} > rho {rho:e}",
                    grad.abs()
                );
            }
        }
    }

    /// Checks one fixture against the dense coordinate-descent loop:
    ///
    /// * every skip-zero sweep of a trajectory from `warm` equals the dense
    ///   sweep bit for bit, coefficients and largest change alike;
    /// * the whole solve returns the certified minimiser (see [`assert_kkt`]);
    /// * it matches dense coordinate descent run to `tol = 1e-12` within 1e-8.
    ///
    /// The tolerances are absolute in units of `β`, so a fixture whose `s`
    /// and `ρ` are scaled by `scale` passes the same factor here: it is the
    /// same problem, scaled.
    ///
    /// Returns (entered, left) along the sweep trajectory: how many
    /// coefficients moved from zero to nonzero and back.
    fn assert_matches_dense(
        v: &Matrix,
        s: &[f64],
        rho: f64,
        warm: &[f64],
        scale: f64,
    ) -> (usize, usize) {
        let label = format!("p={}, rho={rho}", s.len());
        let mut dense = warm.to_vec();
        let mut skip = warm.to_vec();
        let mut active: Vec<(usize, f64)> = (0..skip.len())
            .filter(|&k| skip[k] != 0.0)
            .map(|k| (k, skip[k]))
            .collect();
        for sweep in 1..=2000 {
            let dense_delta = dense_sweep(v, s, rho, &mut dense);
            let (skip_delta, _) = cd_sweep(v, s, rho, &mut skip, &mut active);
            assert_eq!(
                skip_delta.to_bits(),
                dense_delta.to_bits(),
                "{label}: max delta, sweep {sweep}"
            );
            for (k, (a, b)) in skip.iter().zip(&dense).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{label}: beta[{k}] {a:e} vs {b:e}, sweep {sweep}"
                );
            }
            let listed: Vec<(usize, f64)> = (0..skip.len())
                .filter(|&k| skip[k] != 0.0)
                .map(|k| (k, skip[k]))
                .collect();
            assert_eq!(active, listed, "{label}: nonzero list, sweep {sweep}");
            if dense_delta < 1e-10 * scale {
                break;
            }
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

        let mut solved = warm.to_vec();
        let cfg = LassoConfig {
            tol: 1e-10 * scale,
            max_sweeps: 2000,
        };
        lasso_quadratic_cd(v, s, rho, &mut solved, cfg).unwrap();
        assert_kkt(v, s, rho, &solved, &label);
        let mut reference = warm.to_vec();
        let tight = LassoConfig {
            tol: 1e-12 * scale,
            max_sweeps: 200_000,
        };
        dense_reference_cd(v, s, rho, &mut reference, tight).unwrap();
        for (k, (a, b)) in solved.iter().zip(&reference).enumerate() {
            assert!(
                (a - b).abs() <= 1e-8 * scale,
                "{label}: beta[{k}] {a:e} vs {b:e}"
            );
        }
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
                assert_matches_dense(&v, &s, rho, &vec![0.0; p], 1.0);
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
                let (e, l) = assert_matches_dense(&v, &s, rho, &warm, 1.0);
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
            assert_matches_dense(&v, &tiny, 0.0, &warm, 1e-12);
            assert_matches_dense(&v, &tiny, 1e-13, &vec![0.0; p], 1e-12);
        }
    }

    #[test]
    fn active_set_solve_is_exact_where_coordinate_descent_crawls() {
        // Near-collinear columns (a 0.01 ridge) at the glasso's tolerance:
        // coordinate descent alone would stop within 1e-6 of the optimum
        // after many sweeps; the certified solve returns the optimum itself
        // after a few.
        let mut rng = Stream(0xAC7_1FE);
        let (mut sweeps, mut dense_sweeps) = (0, 0);
        for case in 0..20 {
            let p = 8 + case % 25;
            let (v, s) = random_problem(&mut rng, p, 0.01);
            for rho in [0.01, 0.05, 0.2] {
                let mut beta = vec![0.0; p];
                sweeps +=
                    lasso_quadratic_cd(&v, &s, rho, &mut beta, LassoConfig::default()).unwrap();
                assert_kkt(&v, &s, rho, &beta, &format!("case {case}, rho={rho}"));
                let mut dense = vec![0.0; p];
                dense_sweeps +=
                    dense_reference_cd(&v, &s, rho, &mut dense, LassoConfig::default()).unwrap();
            }
        }
        assert!(
            3 * sweeps < dense_sweeps,
            "{sweeps} sweeps vs {dense_sweeps} for coordinate descent alone"
        );
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
