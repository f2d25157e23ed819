//! Multinomial logistic regression.

use crate::error::ClassifierError;
use adp_linalg::parallel::{self, Execution};
use adp_linalg::{Features, Matrix};
use std::sync::{Mutex, PoisonError};

/// Rows per parallel gradient chunk. Fixed (machine-independent): the
/// gradient is always accumulated chunk-wise and reduced in chunk order, so
/// the fitted weights are bitwise identical whether the chunks run on one
/// thread or eight.
const GRAD_CHUNK: usize = 1024;
/// Minimum batch size before threads pay for themselves.
const MIN_PARALLEL_ROWS: usize = 2048;
/// Minimum prediction count before threads pay for themselves.
const MIN_PARALLEL_PREDICT: usize = 4096;
/// Largest parameter magnitude [`LogisticRegression::load_params`] accepts:
/// far beyond any fit, it keeps logits finite, which softmax needs.
const MAX_PARAM: f64 = 1e100;

/// Training targets: hard class labels or soft distributions, one entry per
/// training row (parallel to the `rows` argument of
/// [`LogisticRegression::fit`]).
#[derive(Debug, Clone, Copy)]
pub enum Targets<'a> {
    /// Class indices in `0..n_classes`.
    Hard(&'a [usize]),
    /// Probability distributions over classes.
    Soft(&'a [Vec<f64>]),
}

impl Targets<'_> {
    fn len(&self) -> usize {
        match self {
            Targets::Hard(t) => t.len(),
            Targets::Soft(t) => t.len(),
        }
    }
}

/// Hyperparameters for [`LogisticRegression`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogRegConfig {
    /// L2 penalty on the weights (not the intercept).
    pub l2: f64,
    /// Maximum gradient-descent iterations.
    pub max_iters: usize,
    /// Stop when the gradient's max-norm falls below this.
    pub tol: f64,
    /// Run batch-gradient accumulation and bulk prediction on scoped
    /// threads when the batch is large enough. The result is bitwise
    /// identical either way (chunk-wise accumulation is always used); this
    /// switch only controls scheduling.
    pub parallel: bool,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        LogRegConfig {
            l2: 1e-3,
            max_iters: 200,
            tol: 1e-4,
            parallel: true,
        }
    }
}

/// Convergence report from a `fit` call.
#[derive(Debug, Clone, Copy)]
pub struct FitSummary {
    /// Iterations performed.
    pub iterations: usize,
    /// Max-norm of the final gradient.
    pub grad_norm: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
}

/// Multinomial (softmax) logistic regression with intercepts.
///
/// Optimised by full-batch Nesterov-accelerated gradient descent with a step
/// size derived from the softmax loss's Lipschitz constant — deterministic
/// and tuning-free, which matters for reproducible experiment protocols.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    n_classes: usize,
    n_features: usize,
    weights: Matrix,
    bias: Vec<f64>,
    config: LogRegConfig,
}

impl LogisticRegression {
    /// An untrained model (zero weights ⇒ uniform predictions).
    pub fn new(n_classes: usize, n_features: usize, config: LogRegConfig) -> Self {
        LogisticRegression {
            n_classes,
            n_features,
            weights: Matrix::zeros(n_classes, n_features),
            bias: vec![0.0; n_classes],
            config,
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Borrow the weight matrix (classes × features).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Borrow the per-class intercepts.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Replaces the weights (row-major classes × features, as
    /// [`LogisticRegression::weights`] lays them out) and the intercepts,
    /// after checking shapes and that every value is finite and at most
    /// 1e100 in magnitude ([`ClassifierError::BadParams`] otherwise).
    pub fn load_params(&mut self, weights: &[f64], bias: &[f64]) -> Result<(), ClassifierError> {
        let bad = |reason: String| ClassifierError::BadParams { reason };
        if let Some(v) = weights
            .iter()
            .chain(bias)
            .find(|v| !v.is_finite() || v.abs() > MAX_PARAM)
        {
            return Err(bad(format!(
                "parameter {v} is not finite or beyond ±{MAX_PARAM:e}"
            )));
        }
        if bias.len() != self.n_classes {
            return Err(bad(format!(
                "{} intercepts for {} classes",
                bias.len(),
                self.n_classes
            )));
        }
        self.weights = Matrix::from_vec(self.n_classes, self.n_features, weights.to_vec())
            .map_err(|e| bad(e.to_string()))?;
        self.bias = bias.to_vec();
        Ok(())
    }

    /// Resets to the untrained state.
    pub fn reset(&mut self) {
        self.weights = Matrix::zeros(self.n_classes, self.n_features);
        self.bias = vec![0.0; self.n_classes];
    }

    /// Fits on the rows `rows` of `x`; `targets` (and `weights`, if given)
    /// run parallel to `rows`. Refitting restarts from zero weights so a
    /// session's model at iteration `t` is a pure function of its inputs.
    pub fn fit<F: Features + ?Sized>(
        &mut self,
        x: &F,
        rows: &[usize],
        targets: Targets<'_>,
        weights: Option<&[f64]>,
    ) -> Result<FitSummary, ClassifierError> {
        let exec = if self.config.parallel {
            parallel::auto(rows.len(), MIN_PARALLEL_ROWS)
        } else {
            Execution::Serial
        };
        self.fit_with(x, rows, targets, weights, exec)
    }

    /// [`LogisticRegression::fit`] under an explicit execution policy.
    /// Serial and parallel runs are bitwise identical (gradients are always
    /// accumulated over fixed chunks and reduced in chunk order).
    pub fn fit_with<F: Features + ?Sized>(
        &mut self,
        x: &F,
        rows: &[usize],
        targets: Targets<'_>,
        weights: Option<&[f64]>,
        exec: Execution,
    ) -> Result<FitSummary, ClassifierError> {
        self.validate(x, rows, &targets, weights)?;
        self.reset();
        let n = rows.len();
        let k = self.n_classes;
        let d = self.n_features;

        // Normalised sample weights (mean 1).
        let w: Vec<f64> = match weights {
            None => vec![1.0; n],
            Some(ws) => {
                let total: f64 = ws.iter().sum();
                if total <= 0.0 {
                    return Err(ClassifierError::BadTarget {
                        reason: "sample weights must have positive mass".into(),
                    });
                }
                ws.iter().map(|&wi| wi * n as f64 / total).collect()
            }
        };

        // Lipschitz bound for the mean softmax CE gradient:
        //   L <= 0.5 * mean ||x||^2 (+1 for the intercept) + l2.
        let mean_sq: f64 = rows.iter().map(|&r| x.row_sq_norm(r) + 1.0).sum::<f64>() / n as f64;
        let lipschitz = 0.5 * mean_sq + self.config.l2;
        let step = 1.0 / lipschitz.max(1e-12);

        // Nesterov: v is the look-ahead point, params live in self (which
        // also serve as the previous iterate the momentum term reads).
        let mut v_w = self.weights.clone();
        let mut v_b = self.bias.clone();
        let mut grad_w = Matrix::zeros(k, d);
        let mut grad_b = vec![0.0; k];
        // One gradient buffer per chunk (weights, bias, class scores),
        // zeroed and refilled every iteration.
        let chunk_grads: Vec<_> = (0..n.div_ceil(GRAD_CHUNK))
            .map(|_| Mutex::new((vec![0.0; k * d], vec![0.0; k], vec![0.0; k])))
            .collect();
        let mut summary = FitSummary {
            iterations: 0,
            grad_norm: f64::INFINITY,
            converged: false,
        };
        for iter in 1..=self.config.max_iters {
            // Gradient at the look-ahead point (v_w, v_b), accumulated over
            // fixed-size row chunks and reduced in chunk order (bitwise
            // deterministic regardless of thread count).
            let (v_w_ref, v_b_ref, w_ref) = (&v_w, &v_b, &w);
            parallel::map_chunks(n, GRAD_CHUNK, exec, |range| {
                let mut buffers = chunk_grads[range.start / GRAD_CHUNK]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let (gw, gb, scores) = &mut *buffers;
                gw.fill(0.0);
                gb.fill(0.0);
                for pos in range {
                    let r = rows[pos];
                    for c in 0..k {
                        scores[c] = x.row_dot(r, v_w_ref.row(c)) + v_b_ref[c];
                    }
                    adp_linalg::softmax_inplace(scores);
                    let wi = w_ref[pos] / n as f64;
                    for c in 0..k {
                        let target_c = match &targets {
                            Targets::Hard(t) => {
                                if t[pos] == c {
                                    1.0
                                } else {
                                    0.0
                                }
                            }
                            Targets::Soft(t) => t[pos][c],
                        };
                        let delta = wi * (scores[c] - target_c);
                        if delta != 0.0 {
                            x.row_axpy(r, delta, &mut gw[c * d..(c + 1) * d]);
                            gb[c] += delta;
                        }
                    }
                }
            });
            grad_w.scale(0.0);
            grad_b.iter_mut().for_each(|g| *g = 0.0);
            for buffers in &chunk_grads {
                let buffers = buffers.lock().unwrap_or_else(PoisonError::into_inner);
                let (gw, gb, _) = &*buffers;
                for c in 0..k {
                    for (acc, g) in grad_w.row_mut(c).iter_mut().zip(&gw[c * d..(c + 1) * d]) {
                        *acc += g;
                    }
                    grad_b[c] += gb[c];
                }
            }
            // L2 on weights.
            grad_w.scaled_add(self.config.l2, &v_w).expect("same shape");

            let grad_norm = grad_w
                .max_abs()
                .max(grad_b.iter().fold(0.0_f64, |m, g| m.max(g.abs())));
            summary = FitSummary {
                iterations: iter,
                grad_norm,
                converged: grad_norm < self.config.tol,
            };

            // Gradient step from the look-ahead point, then Nesterov
            // momentum against the previous iterate, element by element:
            //   new = v − step·g;  v = new + momentum·new − momentum·prev.
            let momentum = (iter as f64 - 1.0) / (iter as f64 + 2.0);
            for ((prev, v), g) in self
                .weights
                .as_mut_slice()
                .iter_mut()
                .zip(v_w.as_mut_slice())
                .zip(grad_w.as_slice())
            {
                let new = *v + -step * g;
                *v = new + momentum * new;
                *v += -momentum * *prev;
                *prev = new;
            }
            for ((prev, v), g) in self.bias.iter_mut().zip(&mut v_b).zip(&grad_b) {
                let new = *v - step * g;
                *v = new + momentum * (new - *prev);
                *prev = new;
            }

            if summary.converged {
                break;
            }
        }
        Ok(summary)
    }

    /// Class-probability vector for row `i` of `x`.
    pub fn predict_proba<F: Features + ?Sized>(&self, x: &F, i: usize) -> Vec<f64> {
        let mut scores = vec![0.0; self.n_classes];
        self.predict_into(x, i, &mut scores);
        scores
    }

    /// [`LogisticRegression::predict_proba`] written into `out`, one value
    /// per class.
    pub fn predict_into<F: Features + ?Sized>(&self, x: &F, i: usize, out: &mut [f64]) {
        for (c, score) in out.iter_mut().enumerate() {
            *score = x.row_dot(i, self.weights.row(c)) + self.bias[c];
        }
        adp_linalg::softmax_inplace(out);
    }

    /// Probabilities for every row of `x`, as one `rows × classes` matrix.
    /// Rows are independent, so this runs chunk-parallel on large inputs
    /// (identical output either way).
    pub fn predict_proba_all<F: Features + ?Sized>(&self, x: &F) -> Matrix {
        let exec = if self.config.parallel {
            parallel::auto(x.nrows(), MIN_PARALLEL_PREDICT)
        } else {
            Execution::Serial
        };
        self.predict_proba_all_with(x, exec)
    }

    /// [`LogisticRegression::predict_proba_all`] under an explicit
    /// execution policy (bitwise identical either way).
    pub fn predict_proba_all_with<F: Features + ?Sized>(&self, x: &F, exec: Execution) -> Matrix {
        let k = self.n_classes;
        let mut probs = Matrix::zeros(x.nrows(), k);
        parallel::fill_chunks(probs.as_mut_slice(), k, GRAD_CHUNK, exec, |range, block| {
            for (i, out) in range.zip(block.chunks_exact_mut(k)) {
                self.predict_into(x, i, out);
            }
        });
        probs
    }

    /// Hard prediction for row `i`.
    pub fn predict<F: Features + ?Sized>(&self, x: &F, i: usize) -> usize {
        adp_linalg::argmax(&self.predict_proba(x, i)).expect("n_classes >= 1")
    }

    fn validate<F: Features + ?Sized>(
        &self,
        x: &F,
        rows: &[usize],
        targets: &Targets<'_>,
        weights: Option<&[f64]>,
    ) -> Result<(), ClassifierError> {
        if rows.is_empty() {
            return Err(ClassifierError::EmptyTrainingSet);
        }
        if self.config.max_iters == 0 {
            return Err(ClassifierError::BadConfig {
                reason: "max_iters must be positive".into(),
            });
        }
        if self.config.l2 < 0.0 || !self.config.l2.is_finite() {
            return Err(ClassifierError::BadConfig {
                reason: "l2 must be finite and non-negative".into(),
            });
        }
        if x.ncols() != self.n_features {
            return Err(ClassifierError::LengthMismatch {
                what: "feature dimension",
                expected: self.n_features,
                actual: x.ncols(),
            });
        }
        if targets.len() != rows.len() {
            return Err(ClassifierError::LengthMismatch {
                what: "targets",
                expected: rows.len(),
                actual: targets.len(),
            });
        }
        if let Some(ws) = weights {
            if ws.len() != rows.len() {
                return Err(ClassifierError::LengthMismatch {
                    what: "weights",
                    expected: rows.len(),
                    actual: ws.len(),
                });
            }
            if ws.iter().any(|w| *w < 0.0 || !w.is_finite()) {
                return Err(ClassifierError::BadTarget {
                    reason: "weights must be finite and non-negative".into(),
                });
            }
        }
        for &r in rows {
            if r >= x.nrows() {
                return Err(ClassifierError::RowOutOfRange {
                    row: r,
                    nrows: x.nrows(),
                });
            }
        }
        match targets {
            Targets::Hard(t) => {
                if let Some(&bad) = t.iter().find(|&&l| l >= self.n_classes) {
                    return Err(ClassifierError::BadTarget {
                        reason: format!("label {bad} out of range"),
                    });
                }
            }
            Targets::Soft(t) => {
                for dist in *t {
                    if dist.len() != self.n_classes {
                        return Err(ClassifierError::BadTarget {
                            reason: format!(
                                "distribution has {} entries, expected {}",
                                dist.len(),
                                self.n_classes
                            ),
                        });
                    }
                    let sum: f64 = dist.iter().sum();
                    if (sum - 1.0).abs() > 1e-6 || dist.iter().any(|&p| p < 0.0) {
                        return Err(ClassifierError::BadTarget {
                            reason: "soft targets must be probability distributions".into(),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_linalg::CsrBuilder;

    /// Linearly separable 2-D blobs: class = sign(x0 + x1).
    fn blobs(n: usize) -> (Matrix, Vec<usize>) {
        let x = Matrix::from_fn(n, 2, |i, j| {
            let base = if i % 2 == 0 { 1.0 } else { -1.0 };
            base + 0.1 * ((i * (j + 3)) % 7) as f64 / 7.0
        });
        let labels = (0..n).map(|i| i % 2).collect();
        (x, labels)
    }

    fn all_rows(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn untrained_model_is_uniform() {
        let (x, _) = blobs(4);
        let m = LogisticRegression::new(2, 2, LogRegConfig::default());
        assert_eq!(m.predict_proba(&x, 0), vec![0.5, 0.5]);
    }

    #[test]
    fn fits_separable_data() {
        let (x, y) = blobs(40);
        let mut m = LogisticRegression::new(2, 2, LogRegConfig::default());
        let s = m.fit(&x, &all_rows(40), Targets::Hard(&y), None).unwrap();
        assert!(s.iterations > 0);
        let correct = (0..40).filter(|&i| m.predict(&x, i) == y[i]).count();
        assert_eq!(correct, 40);
        // Confident on a clearly positive point.
        assert!(m.predict_proba(&x, 0)[0] > 0.8);
    }

    #[test]
    fn soft_one_hot_matches_hard() {
        let (x, y) = blobs(30);
        let soft: Vec<Vec<f64>> = y
            .iter()
            .map(|&l| {
                let mut d = vec![0.0; 2];
                d[l] = 1.0;
                d
            })
            .collect();
        let mut hard = LogisticRegression::new(2, 2, LogRegConfig::default());
        hard.fit(&x, &all_rows(30), Targets::Hard(&y), None)
            .unwrap();
        let mut softm = LogisticRegression::new(2, 2, LogRegConfig::default());
        softm
            .fit(&x, &all_rows(30), Targets::Soft(&soft), None)
            .unwrap();
        for i in 0..30 {
            let (ph, ps) = (hard.predict_proba(&x, i), softm.predict_proba(&x, i));
            assert!((ph[0] - ps[0]).abs() < 1e-6);
        }
    }

    #[test]
    fn uncertain_soft_targets_temper_confidence() {
        let (x, y) = blobs(30);
        let soft: Vec<Vec<f64>> = y
            .iter()
            .map(|&l| {
                let mut d = vec![0.3; 2];
                d[l] = 0.7;
                d
            })
            .collect();
        let mut m = LogisticRegression::new(2, 2, LogRegConfig::default());
        m.fit(&x, &all_rows(30), Targets::Soft(&soft), None)
            .unwrap();
        // Prediction should match the majority side but stay close to 0.7.
        let p = m.predict_proba(&x, 0);
        assert!(p[0] > 0.5);
        assert!(p[0] < 0.85, "over-confident: {}", p[0]);
    }

    #[test]
    fn sample_weights_shift_decisions() {
        // Conflicting labels at the same point: weights decide.
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0]]).unwrap();
        let y = vec![0usize, 1usize];
        let mut m = LogisticRegression::new(2, 1, LogRegConfig::default());
        m.fit(&x, &[0, 1], Targets::Hard(&y), Some(&[5.0, 1.0]))
            .unwrap();
        assert_eq!(m.predict(&x, 0), 0);
        m.fit(&x, &[0, 1], Targets::Hard(&y), Some(&[1.0, 5.0]))
            .unwrap();
        assert_eq!(m.predict(&x, 0), 1);
    }

    #[test]
    fn row_subset_training_ignores_other_rows() {
        let (mut x_data, y) = blobs(20);
        // Poison rows 10.. with opposite labels; train only on 0..10.
        for i in 10..20 {
            for j in 0..2 {
                x_data[(i, j)] = -x_data[(i, j)];
            }
        }
        let rows: Vec<usize> = (0..10).collect();
        let labels: Vec<usize> = rows.iter().map(|&i| y[i]).collect();
        let mut m = LogisticRegression::new(2, 2, LogRegConfig::default());
        m.fit(&x_data, &rows, Targets::Hard(&labels), None).unwrap();
        for &i in &rows {
            assert_eq!(m.predict(&x_data, i), y[i]);
        }
    }

    #[test]
    fn sparse_and_dense_agree() {
        let (x, y) = blobs(24);
        let mut b = CsrBuilder::new(2);
        for i in 0..24 {
            b.push_row(vec![(0, x[(i, 0)]), (1, x[(i, 1)])]);
        }
        let xs = b.finish();
        let mut md = LogisticRegression::new(2, 2, LogRegConfig::default());
        md.fit(&x, &all_rows(24), Targets::Hard(&y), None).unwrap();
        let mut ms = LogisticRegression::new(2, 2, LogRegConfig::default());
        ms.fit(&xs, &all_rows(24), Targets::Hard(&y), None).unwrap();
        for i in 0..24 {
            let (pd, ps) = (md.predict_proba(&x, i), ms.predict_proba(&xs, i));
            assert!((pd[0] - ps[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn stronger_l2_shrinks_weights() {
        let (x, y) = blobs(30);
        let fit_norm = |l2: f64| {
            let mut m = LogisticRegression::new(
                2,
                2,
                LogRegConfig {
                    l2,
                    ..LogRegConfig::default()
                },
            );
            m.fit(&x, &all_rows(30), Targets::Hard(&y), None).unwrap();
            m.weights().frob_norm()
        };
        assert!(fit_norm(1.0) < fit_norm(1e-4));
    }

    #[test]
    fn loaded_params_predict_bitwise_and_tampering_is_rejected() {
        let (x, y) = blobs(60);
        let mut fitted = LogisticRegression::new(2, 2, LogRegConfig::default());
        fitted
            .fit(&x, &all_rows(60), Targets::Hard(&y), None)
            .unwrap();
        let (w, b) = (fitted.weights().as_slice().to_vec(), fitted.bias().to_vec());
        let mut loaded = LogisticRegression::new(2, 2, LogRegConfig::default());
        loaded.load_params(&w, &b).unwrap();
        let bits = |m: &LogisticRegression| -> Vec<u64> {
            m.predict_proba_all(&x)
                .as_slice()
                .iter()
                .map(|p| p.to_bits())
                .collect()
        };
        assert_eq!(bits(&loaded), bits(&fitted));
        let mut fresh = LogisticRegression::new(2, 2, LogRegConfig::default());
        assert!(fresh.load_params(&w[1..], &b).is_err());
        assert!(fresh.load_params(&w, &b[1..]).is_err());
        for bad in [f64::NAN, f64::INFINITY, -1e200] {
            let mut tampered = w.clone();
            tampered[1] = bad;
            assert!(matches!(
                fresh.load_params(&tampered, &b),
                Err(ClassifierError::BadParams { .. })
            ));
            assert!(fresh.load_params(&w, &[0.0, bad]).is_err());
        }
        assert!(fresh.weights().as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn deterministic_refit() {
        let (x, y) = blobs(30);
        let mut m = LogisticRegression::new(2, 2, LogRegConfig::default());
        m.fit(&x, &all_rows(30), Targets::Hard(&y), None).unwrap();
        let w1 = m.weights().clone();
        m.fit(&x, &all_rows(30), Targets::Hard(&y), None).unwrap();
        assert_eq!(&w1, m.weights());
    }

    #[test]
    fn validation_errors() {
        let (x, y) = blobs(10);
        let mut m = LogisticRegression::new(2, 2, LogRegConfig::default());
        assert!(matches!(
            m.fit(&x, &[], Targets::Hard(&[]), None).unwrap_err(),
            ClassifierError::EmptyTrainingSet
        ));
        assert!(m.fit(&x, &[0, 99], Targets::Hard(&[0, 1]), None).is_err());
        assert!(m.fit(&x, &[0], Targets::Hard(&y), None).is_err());
        assert!(m.fit(&x, &[0], Targets::Hard(&[7]), None).is_err());
        assert!(m
            .fit(&x, &[0], Targets::Soft(&[vec![0.9, 0.3]]), None)
            .is_err());
        assert!(m.fit(&x, &[0], Targets::Hard(&[0]), Some(&[-1.0])).is_err());
        assert!(m
            .fit(&x, &[0, 1], Targets::Hard(&[0, 1]), Some(&[0.0, 0.0]))
            .is_err());
        let mut wrong_dim = LogisticRegression::new(2, 5, LogRegConfig::default());
        assert!(wrong_dim.fit(&x, &[0], Targets::Hard(&[0]), None).is_err());
    }

    #[test]
    fn parallel_fit_is_bitwise_identical_to_serial() {
        // Several gradient chunks, awkward (non-multiple) length.
        let n = 3 * super::GRAD_CHUNK + 77;
        let (x, y) = blobs(n);
        let fit_with = |parallel: bool| {
            let mut m = LogisticRegression::new(
                2,
                2,
                LogRegConfig {
                    parallel,
                    max_iters: 40,
                    ..LogRegConfig::default()
                },
            );
            m.fit(&x, &all_rows(n), Targets::Hard(&y), None).unwrap();
            m
        };
        let serial = fit_with(false);
        let parallel = fit_with(true);
        for c in 0..2 {
            for (a, b) in serial
                .weights()
                .row(c)
                .iter()
                .zip(parallel.weights().row(c))
            {
                assert!(a.to_bits() == b.to_bits(), "{a:e} vs {b:e}");
            }
        }
        let (ps, pp) = (serial.predict_proba_all(&x), parallel.predict_proba_all(&x));
        assert_eq!(ps, pp);
    }

    #[test]
    fn single_class_training_is_stable() {
        let (x, _) = blobs(10);
        let y = vec![1usize; 10];
        let mut m = LogisticRegression::new(2, 2, LogRegConfig::default());
        m.fit(&x, &all_rows(10), Targets::Hard(&y), None).unwrap();
        let p = m.predict_proba(&x, 0);
        assert!(p[1] > 0.5);
        assert!(p.iter().all(|pi| pi.is_finite()));
    }
}
