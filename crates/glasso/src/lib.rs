//! Graphical lasso: ℓ1-penalised sparse inverse-covariance estimation.
//!
//! Implements the block coordinate descent of Friedman, Hastie & Tibshirani
//! (2008) — the algorithm the paper cites for LabelPick's dependency-
//! structure learning (§3.4). Each column update solves an ℓ1-penalised
//! quadratic subproblem with `adp_linalg::lasso_quadratic_cd`, warm-started
//! across sweeps.
//!
//! [`markov_blanket`] then reads the non-zero pattern of the estimated
//! precision matrix: variables with non-zero partial correlation to the
//! target form its Markov blanket (Pearl 1988), which LabelPick uses to
//! select the LF subset adjacent to the class label.
//!
//! The column sweep is sequential — each column's subproblem reads the `W`
//! entries the previous columns just wrote (warm-start order is part of
//! the algorithm) — and runs on the calling thread. Its per-column setup
//! is O(p): the `W₁₁` subproblem lives in one buffer that changes by a
//! single row and column between consecutive columns, and the
//! `w₁₂ = W₁₁ β` product visits the nonzero `β` only. The one parallel
//! step is the final per-column precision recovery, which fans out through
//! [`adp_linalg::parallel::map_chunks`] without regrouping any reduction,
//! so serial and parallel runs are **bitwise identical** (pinned by
//! `serial_matches_parallel` here and the workspace `tests/determinism.rs`
//! harness).

pub mod error;

pub use error::GlassoError;

use adp_linalg::lasso::LassoConfig;
use adp_linalg::parallel::{self, Execution};
use adp_linalg::{lasso_quadratic_cd, Matrix};

/// Columns per chunk for the one-shot precision recovery (each column is
/// O(p) work, and the pass runs once per `graphical_lasso` call).
const DIM_CHUNK: usize = 16;

/// Minimum matrix dimension before threads pay for themselves in the
/// precision-recovery pass (`DIM_CHUNK` columns per chunk); below this
/// bound [`parallel::auto`] stays serial (identical bits, zero thread
/// overhead). Public so callers that force a policy (e.g. LabelPick's
/// config switch) can reuse the same threshold in their own
/// [`parallel::auto`] call.
pub const MIN_PARALLEL_DIM: usize = 96;

/// Graphical-lasso hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct GlassoConfig {
    /// ℓ1 penalty ρ on off-diagonal precision entries.
    pub rho: f64,
    /// Convergence tolerance on the mean absolute change of `W` per sweep,
    /// relative to the mean absolute off-diagonal of `S`.
    pub tol: f64,
    /// Maximum number of full column sweeps.
    pub max_sweeps: usize,
}

impl Default for GlassoConfig {
    fn default() -> Self {
        GlassoConfig {
            rho: 0.05,
            tol: 1e-4,
            max_sweeps: 100,
        }
    }
}

/// Output of [`graphical_lasso`].
#[derive(Debug, Clone)]
pub struct GlassoResult {
    /// Estimated (regularised) covariance `W ≈ Θ⁻¹`.
    pub covariance: Matrix,
    /// Estimated sparse precision matrix `Θ`.
    pub precision: Matrix,
    /// Sweeps performed until convergence.
    pub sweeps: usize,
}

/// Runs the graphical lasso on an empirical covariance matrix `s`.
///
/// `s` must be square and symmetric (within 1e-8). Zero-variance variables
/// are handled by the ridge the penalty adds to the diagonal.
///
/// Large problems fan the precision recovery out over scoped threads
/// ([`parallel::auto`] picks the policy); the result is bitwise identical
/// either way — see the module docs.
pub fn graphical_lasso(s: &Matrix, cfg: GlassoConfig) -> Result<GlassoResult, GlassoError> {
    graphical_lasso_with(s, cfg, parallel::auto(s.nrows(), MIN_PARALLEL_DIM))
}

/// [`graphical_lasso`] under an explicit execution policy. Serial and
/// parallel runs are bitwise identical (see module docs).
pub fn graphical_lasso_with(
    s: &Matrix,
    cfg: GlassoConfig,
    exec: Execution,
) -> Result<GlassoResult, GlassoError> {
    let p = s.nrows();
    if s.ncols() != p {
        return Err(GlassoError::NotSquare { shape: s.shape() });
    }
    if !s.all_finite() {
        return Err(GlassoError::NonFinite);
    }
    if !s.is_symmetric(1e-8) {
        return Err(GlassoError::NotSymmetric);
    }
    if cfg.rho < 0.0 || !cfg.rho.is_finite() {
        return Err(GlassoError::BadPenalty { rho: cfg.rho });
    }
    if p == 0 {
        return Ok(GlassoResult {
            covariance: Matrix::zeros(0, 0),
            precision: Matrix::zeros(0, 0),
            sweeps: 0,
        });
    }
    if p == 1 {
        let w = s[(0, 0)] + cfg.rho;
        let mut cov = Matrix::zeros(1, 1);
        cov[(0, 0)] = w;
        let mut prec = Matrix::zeros(1, 1);
        prec[(0, 0)] = 1.0 / w.max(1e-12);
        return Ok(GlassoResult {
            covariance: cov,
            precision: prec,
            sweeps: 0,
        });
    }

    // W = S + rho I.
    let mut w = s.clone();
    w.add_diagonal(cfg.rho).expect("square by construction");

    // Warm-started betas, one per column.
    let mut betas = vec![vec![0.0f64; p - 1]; p];
    let others: Vec<Vec<usize>> = (0..p)
        .map(|j| (0..p).filter(|&k| k != j).collect())
        .collect();

    // Convergence scale: mean |off-diagonal of S|.
    let mut off_sum = 0.0;
    for i in 0..p {
        for j in 0..p {
            if i != j {
                off_sum += s[(i, j)].abs();
            }
        }
    }
    let scale = (off_sum / (p * (p - 1)) as f64).max(1e-12);

    let lasso_cfg = LassoConfig {
        tol: 1e-6,
        max_sweeps: 1000,
    };
    // Column j's quadratic W₁₁ = W[others[j], others[j]], in one buffer.
    // Consecutive columns' index sets differ in a single slot — position
    // j − 1 holds index j for column j − 1 and index j − 1 for column j —
    // and column j − 1 rewrote only W's row and column j − 1, so each
    // column refreshes that one row and column; a sweep's first column
    // gathers the whole buffer.
    let mut w11 = Matrix::zeros(p - 1, p - 1);
    let mut nonzero: Vec<(usize, f64)> = Vec::with_capacity(p - 1);
    let mut sweeps = 0;
    for sweep in 1..=cfg.max_sweeps {
        sweeps = sweep;
        let mut delta_sum = 0.0;
        for j in 0..p {
            let idx = &others[j];
            if j == 0 {
                for (a, &ka) in idx.iter().enumerate() {
                    for (b, &kb) in idx.iter().enumerate() {
                        w11[(a, b)] = w[(ka, kb)];
                    }
                }
            } else {
                for (pos, &k) in idx.iter().enumerate() {
                    w11[(j - 1, pos)] = w[(j - 1, k)];
                    w11[(pos, j - 1)] = w[(k, j - 1)];
                }
            }
            let s12: Vec<f64> = idx.iter().map(|&k| s[(k, j)]).collect();
            // The ℓ1 solve is cyclic coordinate descent, warm-started from
            // the previous sweep; column order is the algorithm.
            lasso_quadratic_cd(&w11, &s12, cfg.rho, &mut betas[j], lasso_cfg)
                .map_err(GlassoError::Inner)?;
            // w₁₂ = W₁₁ · β over the nonzero β only. Each sum runs in the
            // dense product's order and omits only exact ±0 terms, so it
            // equals the dense dot product bit for bit (the diagonal keeps
            // an all-zero row's dense sum at +0.0, where this one starts).
            nonzero.clear();
            nonzero.extend(
                betas[j]
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, b)| b != 0.0),
            );
            for (pos, &k) in idx.iter().enumerate() {
                let row = w11.row(pos);
                let w12 = nonzero.iter().fold(0.0, |acc, &(m, b)| acc + row[m] * b);
                delta_sum += (w[(k, j)] - w12).abs();
                w[(k, j)] = w12;
                w[(j, k)] = w12;
            }
        }
        let avg_delta = delta_sum / (p * (p - 1)) as f64;
        if avg_delta < cfg.tol * scale {
            break;
        }
    }

    // Recover the precision matrix from the final (W, beta) pairs: every
    // column is independent of the others, so columns fan out in fixed
    // chunks and write back in column order.
    let mut prec = Matrix::zeros(p, p);
    let (w_ref, betas_ref, others_ref) = (&w, &betas, &others);
    let columns = parallel::map_chunks(p, DIM_CHUNK, exec, |range| {
        range
            .map(|j| {
                let idx = &others_ref[j];
                let w12: Vec<f64> = idx.iter().map(|&k| w_ref[(k, j)]).collect();
                let denom = w_ref[(j, j)] - adp_linalg::dot(&w12, &betas_ref[j]);
                let theta_jj = 1.0 / denom.max(1e-12);
                let off: Vec<f64> = betas_ref[j].iter().map(|&b| -b * theta_jj).collect();
                (theta_jj, off)
            })
            .collect::<Vec<_>>()
    });
    for (j, (theta_jj, off)) in columns.into_iter().flatten().enumerate() {
        prec[(j, j)] = theta_jj;
        for (pos, &k) in others[j].iter().enumerate() {
            prec[(k, j)] = off[pos];
        }
    }
    // Column-wise recovery leaves small asymmetries; symmetrise.
    prec.symmetrize().expect("square by construction");

    Ok(GlassoResult {
        covariance: w,
        precision: prec,
        sweeps,
    })
}

/// Variables with non-zero partial correlation to `target`: the indices `k`
/// with `|Θ[target, k]| > tol`, excluding `target` itself.
pub fn markov_blanket(precision: &Matrix, target: usize, tol: f64) -> Vec<usize> {
    (0..precision.ncols())
        .filter(|&k| k != target && precision[(target, k)].abs() > tol)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_linalg::covariance_matrix;
    use rand::{Rng, SeedableRng};

    fn diag(values: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(values.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    #[test]
    fn diagonal_covariance_gives_diagonal_precision() {
        let s = diag(&[2.0, 4.0, 0.5]);
        let res = graphical_lasso(&s, GlassoConfig::default()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                if i == j {
                    let expect = 1.0 / (s[(i, i)] + 0.05);
                    assert!((res.precision[(i, j)] - expect).abs() < 1e-6);
                } else {
                    assert_eq!(res.precision[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn zero_penalty_matches_matrix_inverse() {
        let s = Matrix::from_rows(&[vec![1.0, 0.5], vec![0.5, 1.0]]).unwrap();
        let cfg = GlassoConfig {
            rho: 0.0,
            tol: 1e-8,
            max_sweeps: 500,
        };
        let res = graphical_lasso(&s, cfg).unwrap();
        // inv([[1,.5],[.5,1]]) = [[4/3, -2/3], [-2/3, 4/3]]
        assert!((res.precision[(0, 0)] - 4.0 / 3.0).abs() < 1e-3);
        assert!((res.precision[(0, 1)] + 2.0 / 3.0).abs() < 1e-3);
    }

    #[test]
    fn large_penalty_removes_all_edges() {
        let s = Matrix::from_rows(&[vec![1.0, 0.8], vec![0.8, 1.0]]).unwrap();
        let cfg = GlassoConfig {
            rho: 1.0,
            ..GlassoConfig::default()
        };
        let res = graphical_lasso(&s, cfg).unwrap();
        assert_eq!(res.precision[(0, 1)], 0.0);
        assert!(markov_blanket(&res.precision, 0, 1e-9).is_empty());
    }

    #[test]
    fn recovers_chain_structure() {
        // AR(1) chain X0 → X1 → X2 → X3: precision is tridiagonal; glasso
        // should find edges only between neighbours.
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 4000;
        let p = 4;
        let mut data = Matrix::zeros(n, p);
        for i in 0..n {
            let mut prev = 0.0;
            for j in 0..p {
                let noise: f64 = {
                    // Box-Muller
                    let u1: f64 = rng.gen::<f64>().max(1e-12);
                    let u2: f64 = rng.gen();
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                };
                let x = if j == 0 { noise } else { 0.7 * prev + noise };
                data[(i, j)] = x;
                prev = x;
            }
        }
        let s = covariance_matrix(&data).unwrap();
        let cfg = GlassoConfig {
            rho: 0.3,
            ..GlassoConfig::default()
        };
        let res = graphical_lasso(&s, cfg).unwrap();
        // Neighbour edges clearly present...
        for j in 0..p - 1 {
            assert!(
                res.precision[(j, j + 1)].abs() > 0.1,
                "missing edge {j}-{}",
                j + 1
            );
        }
        // ...distant pairs (conditionally independent in truth) much weaker.
        assert!(
            res.precision[(0, 2)].abs() < 0.05,
            "{}",
            res.precision[(0, 2)]
        );
        assert!(res.precision[(0, 3)].abs() < 0.05);
        assert!(res.precision[(1, 3)].abs() < 0.05);
        // Markov blanket of the middle node = its neighbours.
        let mb = markov_blanket(&res.precision, 1, 0.05);
        assert_eq!(mb, vec![0, 2]);
    }

    #[test]
    fn precision_is_symmetric() {
        let s = Matrix::from_rows(&[
            vec![1.0, 0.3, 0.1],
            vec![0.3, 1.0, 0.2],
            vec![0.1, 0.2, 1.0],
        ])
        .unwrap();
        let res = graphical_lasso(&s, GlassoConfig::default()).unwrap();
        assert!(res.precision.is_symmetric(1e-9));
        assert!(res.covariance.is_symmetric(1e-9));
    }

    #[test]
    fn handles_zero_variance_variable() {
        // Variable 1 is constant: S row/col zero. The ridge keeps it solvable.
        let s = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 0.0]]).unwrap();
        let res = graphical_lasso(&s, GlassoConfig::default()).unwrap();
        assert!(res.precision.all_finite());
        assert_eq!(res.precision[(0, 1)], 0.0);
    }

    #[test]
    fn degenerate_sizes() {
        let empty = graphical_lasso(&Matrix::zeros(0, 0), GlassoConfig::default()).unwrap();
        assert_eq!(empty.precision.shape(), (0, 0));
        let one = graphical_lasso(&diag(&[2.0]), GlassoConfig::default()).unwrap();
        assert!((one.precision[(0, 0)] - 1.0 / 2.05).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            graphical_lasso(&Matrix::zeros(2, 3), GlassoConfig::default()).unwrap_err(),
            GlassoError::NotSquare { .. }
        ));
        let asym = Matrix::from_rows(&[vec![1.0, 0.5], vec![0.1, 1.0]]).unwrap();
        assert!(matches!(
            graphical_lasso(&asym, GlassoConfig::default()).unwrap_err(),
            GlassoError::NotSymmetric
        ));
        let mut nan = Matrix::zeros(2, 2);
        nan[(0, 0)] = f64::NAN;
        assert!(matches!(
            graphical_lasso(&nan, GlassoConfig::default()).unwrap_err(),
            GlassoError::NonFinite
        ));
        let s = Matrix::identity(2);
        let bad = GlassoConfig {
            rho: -1.0,
            ..GlassoConfig::default()
        };
        assert!(matches!(
            graphical_lasso(&s, bad).unwrap_err(),
            GlassoError::BadPenalty { .. }
        ));
    }

    #[test]
    fn serial_matches_parallel_bitwise() {
        // p = 60 exceeds MIN_PARALLEL_DIM; the policy is forced both ways
        // and swept over thread counts anyway.
        let data = Matrix::from_fn(400, 60, |i, j| {
            (((i * 7 + j * 13) % 23) as f64 - 11.0) * 0.1 + (i % 5) as f64 * 0.03 * (j % 7) as f64
        });
        let s = covariance_matrix(&data).unwrap();
        let cfg = GlassoConfig {
            rho: 0.1,
            ..GlassoConfig::default()
        };
        let serial = graphical_lasso_with(&s, cfg, Execution::Serial).unwrap();
        for threads in [2, 3, 7] {
            let par = graphical_lasso_with(&s, cfg, Execution::with_threads(threads)).unwrap();
            assert_eq!(par.sweeps, serial.sweeps, "threads={threads}");
            for i in 0..s.nrows() {
                for j in 0..s.ncols() {
                    assert_eq!(
                        serial.precision[(i, j)].to_bits(),
                        par.precision[(i, j)].to_bits(),
                        "precision ({i},{j}) threads={threads}"
                    );
                    assert_eq!(
                        serial.covariance[(i, j)].to_bits(),
                        par.covariance[(i, j)].to_bits(),
                        "covariance ({i},{j}) threads={threads}"
                    );
                }
            }
        }
    }

    /// Signed-vote query rows in LabelPick's shape, from the workspace
    /// golden's generator (`tests/determinism.rs`) with a seed mixed in:
    /// `t` queries, `p − 1` LFs of varied coverage and accuracy (the last
    /// quarter mostly noisy copies of earlier ones) and the label last.
    fn labelpick_shaped_corr(seed: u64, t: usize, p: usize) -> Matrix {
        let unit = |x: u64| {
            let x = x ^ seed.wrapping_mul(0xD1B5_4A32_D192_ED03);
            (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64
        };
        let m = p - 1;
        let copies = m - m / 4;
        let mut data = Matrix::zeros(t, p);
        for i in 0..t {
            let y = if unit(i as u64 * 13 + 5) < 0.45 {
                1.0
            } else {
                -1.0
            };
            for j in 0..m {
                let h = (i * m + j) as u64;
                let vote = if j >= copies && unit(h * 17 + 1) < 0.85 {
                    data[(i, j - copies)]
                } else {
                    let coverage = 0.2 + 0.4 * unit(j as u64 * 29 + 7);
                    let accuracy = 0.55 + 0.4 * unit(j as u64 * 31 + 11);
                    if unit(h * 5 + 2) >= coverage {
                        0.0
                    } else if unit(h * 7 + 3) < accuracy {
                        y
                    } else {
                        -y
                    }
                };
                data[(i, j)] = vote;
            }
            data[(i, m)] = y;
        }
        adp_linalg::correlation_matrix(&data).unwrap()
    }

    /// The plain coordinate-descent lasso loop: every `k ≠ j` enters the
    /// residual, and the loop stops at `tol` with no active-set solve.
    fn dense_cd(v: &Matrix, s: &[f64], rho: f64, beta: &mut [f64], tol: f64) {
        for _ in 0..1000 {
            let mut max_delta = 0.0_f64;
            for j in 0..s.len() {
                let mut r = s[j];
                for (k, (&vjk, &bk)) in v.row(j).iter().zip(beta.iter()).enumerate() {
                    if k != j {
                        r -= vjk * bk;
                    }
                }
                let new_bj = adp_linalg::soft_threshold(r, rho) / v[(j, j)];
                max_delta = max_delta.max((new_bj - beta[j]).abs());
                beta[j] = new_bj;
            }
            if max_delta < tol {
                return;
            }
        }
        panic!("dense reference did not converge");
    }

    /// Textbook block coordinate descent (Friedman et al. 2008) on the
    /// dense lasso loop, with the same stopping rules as
    /// [`graphical_lasso`]; returns the precision matrix.
    fn dense_reference_glasso(s: &Matrix, cfg: GlassoConfig) -> Matrix {
        let p = s.nrows();
        let mut w = s.clone();
        w.add_diagonal(cfg.rho).unwrap();
        let others: Vec<Vec<usize>> = (0..p)
            .map(|j| (0..p).filter(|&k| k != j).collect())
            .collect();
        let mut betas = vec![vec![0.0; p - 1]; p];
        let off_sum: f64 = (0..p)
            .flat_map(|i| (0..p).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j)
            .map(|(i, j)| s[(i, j)].abs())
            .sum();
        let scale = (off_sum / (p * (p - 1)) as f64).max(1e-12);
        for _ in 0..cfg.max_sweeps {
            let mut delta_sum = 0.0;
            for j in 0..p {
                let idx = &others[j];
                let w11 = w.submatrix(idx, idx);
                let s12: Vec<f64> = idx.iter().map(|&k| s[(k, j)]).collect();
                dense_cd(&w11, &s12, cfg.rho, &mut betas[j], 1e-6);
                let w12 = w11.matvec(&betas[j]).unwrap();
                for (pos, &k) in idx.iter().enumerate() {
                    delta_sum += (w[(k, j)] - w12[pos]).abs();
                    w[(k, j)] = w12[pos];
                    w[(j, k)] = w12[pos];
                }
            }
            if delta_sum / ((p * (p - 1)) as f64) < cfg.tol * scale {
                break;
            }
        }
        let mut prec = Matrix::zeros(p, p);
        for j in 0..p {
            let w12: Vec<f64> = others[j].iter().map(|&k| w[(k, j)]).collect();
            let theta_jj = 1.0 / (w[(j, j)] - adp_linalg::dot(&w12, &betas[j])).max(1e-12);
            prec[(j, j)] = theta_jj;
            for (pos, &k) in others[j].iter().enumerate() {
                prec[(k, j)] = -betas[j][pos] * theta_jj;
            }
        }
        prec.symmetrize().unwrap();
        prec
    }

    #[test]
    fn label_blanket_matches_dense_reference_on_labelpick_shapes() {
        // LabelPick's defaults: rho = 0.03, the label last, blanket_tol 1e-6.
        let cfg = GlassoConfig {
            rho: 0.03,
            ..GlassoConfig::default()
        };
        let mut nonempty = 0;
        for seed in 0..10 {
            for p in [17, 33, 65] {
                let corr = labelpick_shaped_corr(seed, 100, p);
                let fast = graphical_lasso(&corr, cfg).unwrap().precision;
                let reference = dense_reference_glasso(&corr, cfg);
                let blanket = markov_blanket(&fast, p - 1, 1e-6);
                assert_eq!(
                    blanket,
                    markov_blanket(&reference, p - 1, 1e-6),
                    "seed {seed}, p {p}"
                );
                nonempty += usize::from(!blanket.is_empty() && blanket.len() < p - 1);
            }
        }
        // The blankets must be proper subsets, or the check is vacuous.
        assert!(nonempty >= 20, "{nonempty} informative blankets");
    }

    #[test]
    fn markov_blanket_respects_tolerance() {
        let mut prec = Matrix::identity(3);
        prec[(0, 1)] = 0.5;
        prec[(1, 0)] = 0.5;
        prec[(0, 2)] = 1e-8;
        prec[(2, 0)] = 1e-8;
        assert_eq!(markov_blanket(&prec, 0, 1e-6), vec![1]);
        assert_eq!(markov_blanket(&prec, 0, 1e-10), vec![1, 2]);
        assert_eq!(markov_blanket(&prec, 2, 1e-6), Vec::<usize>::new());
    }
}
