//! Dawid–Skene EM: per-LF confusion matrices over vote outcomes.
//!
//! The generative story: draw `Y ~ π`, then each LF independently emits a
//! vote from its class-conditional outcome distribution
//! `θ_j[y][v], v ∈ {abstain, 0, …, C−1}`. Modelling abstention as an
//! outcome lets the model capture class-correlated coverage, which keyword
//! LFs exhibit strongly. EM is initialised from the majority vote so the
//! label permutation stays anchored (LFs are assumed better than random, as
//! in the paper's candidate filtering).
//!
//! Both EM sweeps are data-parallel over instances under the
//! [`adp_linalg::parallel`] fixed-chunk contract: the E-step's per-row
//! posteriors are pure per-instance work, and the M-step accumulates
//! per-chunk confusion/prior partials that merge in chunk-index order — in
//! the serial path too — so [`DawidSkene::fit`] is **bitwise identical**
//! at every thread count (pinned by `serial_matches_parallel` here and by
//! the workspace `tests/determinism.rs` harness).

use crate::error::{check_params, resolve_balance, LabelModelError, PRIOR_RANGE};
use crate::majority::MajorityVote;
use crate::LabelModel;
use adp_lf::{LabelMatrix, ABSTAIN};
use adp_linalg::parallel::{self, Execution};

/// Instances per parallel EM chunk. Fixed (never derived from the machine)
/// so chunk boundaries — and the M-step's partial-sum grouping — are
/// identical at every thread count.
const EM_CHUNK: usize = 256;

/// Below this many instances the EM fans out to a couple of chunks anyway;
/// skip the scoped-thread setup entirely.
const MIN_PARALLEL_INSTANCES: usize = 2 * EM_CHUNK;

/// Dawid–Skene label model trained by EM.
#[derive(Debug, Clone)]
pub struct DawidSkene {
    n_classes: usize,
    /// θ[j][y][v]: P(vote = v | Y = y) for LF j; v = 0 is abstain,
    /// v = 1 + c is class c.
    theta: Vec<Vec<Vec<f64>>>,
    prior: Vec<f64>,
    /// EM iteration cap.
    pub max_iters: usize,
    /// Convergence tolerance on the max parameter change.
    pub tol: f64,
    /// Laplace smoothing mass added to every outcome count.
    pub smoothing: f64,
    /// Run the EM sweeps on scoped threads when the matrix is large enough.
    /// The result is bitwise identical either way (chunk-wise accumulation
    /// is always used); this switch only controls scheduling.
    pub parallel: bool,
}

impl DawidSkene {
    /// A Dawid–Skene model for `n_classes` classes with default EM settings.
    pub fn new(n_classes: usize) -> Self {
        DawidSkene {
            n_classes,
            theta: vec![],
            prior: vec![1.0 / n_classes as f64; n_classes],
            max_iters: 100,
            tol: 1e-5,
            smoothing: 0.1,
            parallel: true,
        }
    }

    /// Estimated P(vote = v | Y = y) table for LF `j` (after `fit`).
    pub fn confusion(&self, j: usize) -> &[Vec<f64>] {
        &self.theta[j]
    }

    /// Estimated (or fixed) class prior π (after `fit`).
    pub fn prior(&self) -> &[f64] {
        &self.prior
    }

    /// Estimated accuracy of LF `j` conditioned on it firing, assuming class
    /// prior `prior`: `Σ_y π_y θ_j[y][y] / Σ_y π_y (1 − θ_j[y][abstain])`.
    pub fn lf_accuracy(&self, j: usize) -> f64 {
        let mut correct = 0.0;
        let mut fired = 0.0;
        for y in 0..self.n_classes {
            correct += self.prior[y] * self.theta[j][y][1 + y];
            fired += self.prior[y] * (1.0 - self.theta[j][y][0]);
        }
        if fired > 0.0 {
            correct / fired
        } else {
            0.0
        }
    }

    fn vote_outcome(&self, v: i8) -> Result<usize, LabelModelError> {
        if v == ABSTAIN {
            Ok(0)
        } else if (v as usize) < self.n_classes {
            Ok(1 + v as usize)
        } else {
            Err(LabelModelError::VoteOutOfRange {
                vote: v,
                n_classes: self.n_classes,
            })
        }
    }

    /// [`LabelModel::fit`] under an explicit execution policy. Serial and
    /// parallel runs are bitwise identical (see module docs); `fit` picks
    /// the policy with [`parallel::auto`] when [`DawidSkene::parallel`] is
    /// set.
    pub fn fit_with(
        &mut self,
        matrix: &LabelMatrix,
        class_balance: Option<&[f64]>,
        exec: Execution,
    ) -> Result<(), LabelModelError> {
        let n = matrix.n_instances();
        let m = matrix.n_lfs();
        let c = self.n_classes;
        let n_outcomes = 1 + c;
        let fixed_prior = class_balance.is_some();
        self.prior = resolve_balance(class_balance, c)?;

        // Validate votes once.
        for i in 0..n {
            for &v in matrix.row(i) {
                self.vote_outcome(v)?;
            }
        }

        if m == 0 || n == 0 {
            self.theta = vec![vec![vec![1.0 / n_outcomes as f64; n_outcomes]; c]; m];
            return Ok(());
        }

        // Initialise responsibilities from majority vote.
        let mut mv = MajorityVote::new(c);
        mv.fit(matrix, class_balance)?;
        let mut q = crate::predict_all_with(&mv, matrix, exec);

        let mut theta = vec![vec![vec![0.0; n_outcomes]; c]; m];
        for _iter in 0..self.max_iters {
            // M-step: per-chunk (prior, confusion-count) partials, merged
            // in chunk order onto the smoothing-initialised accumulators.
            // Counts are flat `[j][y][o]` so chunk partials merge with one
            // element-wise pass.
            let q_ref = &q;
            let parts = parallel::map_chunks(n, EM_CHUNK, exec, |range| {
                let mut prior_part = vec![0.0f64; c];
                let mut counts_part = vec![0.0f64; m * c * n_outcomes];
                for i in range {
                    let row = matrix.row(i);
                    for y in 0..c {
                        let w = q_ref[(i, y)];
                        prior_part[y] += w;
                        for (j, &v) in row.iter().enumerate() {
                            let o = if v == ABSTAIN { 0 } else { 1 + v as usize };
                            counts_part[(j * c + y) * n_outcomes + o] += w;
                        }
                    }
                }
                (prior_part, counts_part)
            });
            let mut new_prior = vec![self.smoothing; c];
            let mut counts = vec![self.smoothing; m * c * n_outcomes];
            for (prior_part, counts_part) in parts {
                for (acc, p) in new_prior.iter_mut().zip(&prior_part) {
                    *acc += p;
                }
                for (acc, p) in counts.iter_mut().zip(&counts_part) {
                    *acc += p;
                }
            }
            let mut max_delta = 0.0_f64;
            for j in 0..m {
                for y in 0..c {
                    let cell = &counts[(j * c + y) * n_outcomes..(j * c + y + 1) * n_outcomes];
                    let total: f64 = cell.iter().sum();
                    for o in 0..n_outcomes {
                        let v = cell[o] / total;
                        max_delta = max_delta.max((v - theta[j][y][o]).abs());
                        theta[j][y][o] = v;
                    }
                }
            }
            if !fixed_prior {
                let total: f64 = new_prior.iter().sum();
                for y in 0..c {
                    let v = new_prior[y] / total;
                    max_delta = max_delta.max((v - self.prior[y]).abs());
                    self.prior[y] = v;
                }
            }

            // E-step (log space): pure per-row posteriors, fanned out over
            // the same fixed chunks and written in place into `q`'s rows.
            self.theta = theta.clone();
            let (theta_ref, prior_ref) = (&self.theta, &self.prior);
            parallel::fill_chunks(q.as_mut_slice(), c, EM_CHUNK, exec, |range, block| {
                for (i, logp) in range.zip(block.chunks_exact_mut(c)) {
                    let row = matrix.row(i);
                    for (lp, p) in logp.iter_mut().zip(prior_ref) {
                        *lp = p.ln();
                    }
                    for (j, &v) in row.iter().enumerate() {
                        let o = if v == ABSTAIN { 0 } else { 1 + v as usize };
                        for (y, lp) in logp.iter_mut().enumerate() {
                            *lp += theta_ref[j][y][o].max(1e-300).ln();
                        }
                    }
                    adp_linalg::softmax_inplace(logp);
                }
            });

            if max_delta < self.tol {
                break;
            }
        }
        self.theta = theta;
        Ok(())
    }
}

impl LabelModel for DawidSkene {
    fn fit(
        &mut self,
        matrix: &LabelMatrix,
        class_balance: Option<&[f64]>,
    ) -> Result<(), LabelModelError> {
        let exec = if self.parallel {
            parallel::auto(matrix.n_instances(), MIN_PARALLEL_INSTANCES)
        } else {
            Execution::Serial
        };
        self.fit_with(matrix, class_balance, exec)
    }

    fn predict_into(&self, votes: &[i8], logp: &mut [f64]) {
        let c = self.n_classes;
        if self.theta.is_empty() || votes.iter().all(|&v| v == ABSTAIN) {
            logp.copy_from_slice(&self.prior);
            return;
        }
        for (lp, p) in logp.iter_mut().zip(&self.prior) {
            *lp = p.ln();
        }
        for (j, &v) in votes.iter().enumerate().take(self.theta.len()) {
            // Abstain outcomes are skipped at prediction time: coverage says
            // little about a *new* instance's class and including it makes
            // all-but-abstain rows overconfident.
            if v == ABSTAIN {
                continue;
            }
            let o = 1 + (v as usize).min(c - 1);
            for (y, lp) in logp.iter_mut().enumerate() {
                *lp += self.theta[j][y][o].max(1e-300).ln();
            }
        }
        adp_linalg::softmax_inplace(logp);
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The class prior, then θ flattened as `[j][y][v]`.
    fn params(&self) -> Vec<f64> {
        let theta = self.theta.iter().flatten().flatten();
        self.prior.iter().chain(theta).copied().collect()
    }

    /// Every θ entry must be a probability.
    fn load_params(&mut self, n_lfs: usize, params: &[f64]) -> Result<(), LabelModelError> {
        let c = self.n_classes;
        let n_outcomes = 1 + c;
        let (prior, theta) = params.split_at(params.len().min(c));
        check_params("class prior", prior, c, PRIOR_RANGE)?;
        check_params("θ", theta, n_lfs * c * n_outcomes, (0.0, 1.0))?;
        self.prior = prior.to_vec();
        self.theta = theta
            .chunks(c * n_outcomes)
            .map(|lf| lf.chunks(n_outcomes).map(<[f64]>::to_vec).collect())
            .collect();
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Builds a label matrix from planted per-LF accuracies on random
    /// binary ground truth: each LF fires with probability `cov` and votes
    /// correctly with its accuracy.
    pub(crate) fn planted(
        accs: &[f64],
        cov: f64,
        n: usize,
        seed: u64,
    ) -> (LabelMatrix, Vec<usize>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let labels: Vec<usize> = (0..n)
            .map(|_| usize::from(rng.gen::<f64>() < 0.5))
            .collect();
        let mut data: Vec<Vec<i8>> = vec![];
        for &y in &labels {
            let mut row = Vec::with_capacity(accs.len());
            for &a in accs {
                if rng.gen::<f64>() < cov {
                    let correct = rng.gen::<f64>() < a;
                    let vote = if correct { y } else { 1 - y };
                    row.push(vote as i8);
                } else {
                    row.push(ABSTAIN);
                }
            }
            data.push(row);
        }
        (LabelMatrix::from_votes(&data).unwrap(), labels)
    }

    #[test]
    fn recovers_planted_accuracies() {
        let accs = [0.9, 0.8, 0.65, 0.55];
        let (lm, _) = planted(&accs, 0.7, 4000, 1);
        let mut ds = DawidSkene::new(2);
        ds.fit(&lm, Some(&[0.5, 0.5])).unwrap();
        for (j, &a) in accs.iter().enumerate() {
            let est = ds.lf_accuracy(j);
            assert!((est - a).abs() < 0.06, "LF {j}: est {est} vs true {a}");
        }
    }

    #[test]
    fn posterior_beats_majority_vote_with_skewed_accuracies() {
        // One excellent LF vs two coin-flippy LFs that often outvote it.
        let accs = [0.95, 0.55, 0.55];
        let (lm, labels) = planted(&accs, 1.0, 3000, 2);
        let mut ds = DawidSkene::new(2);
        ds.fit(&lm, Some(&[0.5, 0.5])).unwrap();
        let mut mv = MajorityVote::new(2);
        mv.fit(&lm, None).unwrap();
        let acc = |model: &dyn LabelModel| {
            let mut correct = 0usize;
            for i in 0..lm.n_instances() {
                let p = model.predict_proba(lm.row(i));
                if adp_linalg::argmax(&p).unwrap() == labels[i] {
                    correct += 1;
                }
            }
            correct as f64 / lm.n_instances() as f64
        };
        let ds_acc = acc(&ds);
        let mv_acc = acc(&mv);
        assert!(
            ds_acc > mv_acc + 0.03,
            "DS {ds_acc:.3} should beat MV {mv_acc:.3}"
        );
        // And DS should be close to the best LF's accuracy.
        assert!(ds_acc > 0.88, "DS accuracy {ds_acc:.3}");
    }

    #[test]
    fn estimates_class_prior_when_free() {
        let accs = [0.85, 0.85, 0.85];
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let labels: Vec<usize> = (0..3000)
            .map(|_| usize::from(rng.gen::<f64>() < 0.25))
            .collect();
        let mut rows = vec![];
        for &y in &labels {
            rows.push(
                accs.iter()
                    .map(|&a| {
                        let correct = rng.gen::<f64>() < a;
                        (if correct { y } else { 1 - y }) as i8
                    })
                    .collect::<Vec<i8>>(),
            );
        }
        let lm = LabelMatrix::from_votes(&rows).unwrap();
        let mut ds = DawidSkene::new(2);
        ds.fit(&lm, None).unwrap();
        assert!((ds.prior[1] - 0.25).abs() < 0.05, "prior {:?}", ds.prior);
    }

    #[test]
    fn all_abstain_prediction_is_prior() {
        let (lm, _) = planted(&[0.8], 0.5, 200, 4);
        let mut ds = DawidSkene::new(2);
        ds.fit(&lm, Some(&[0.6, 0.4])).unwrap();
        let p = ds.predict_proba(&[ABSTAIN]);
        assert!((p[0] - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_matrix_fit_is_safe() {
        let lm = LabelMatrix::empty(0);
        let mut ds = DawidSkene::new(2);
        ds.fit(&lm, None).unwrap();
        assert_eq!(ds.predict_proba(&[]), vec![0.5, 0.5]);
    }

    #[test]
    fn rejects_out_of_range_votes() {
        let lm = LabelMatrix::from_votes(&[vec![3]]).unwrap();
        let mut ds = DawidSkene::new(2);
        assert!(matches!(
            ds.fit(&lm, None).unwrap_err(),
            LabelModelError::VoteOutOfRange { .. }
        ));
    }

    #[test]
    fn deterministic_fit() {
        let (lm, _) = planted(&[0.8, 0.7], 0.6, 500, 5);
        let mut a = DawidSkene::new(2);
        a.fit(&lm, None).unwrap();
        let mut b = DawidSkene::new(2);
        b.fit(&lm, None).unwrap();
        assert_eq!(a.predict_proba(lm.row(0)), b.predict_proba(lm.row(0)));
    }

    #[test]
    fn serial_matches_parallel_bitwise() {
        // Free prior (exercises the prior-partial merge) and coverage gaps
        // (exercises the abstain outcome). Spans many EM_CHUNK chunks.
        let (lm, _) = planted(&[0.9, 0.75, 0.6, 0.55], 0.6, 1500, 6);
        let mut serial = DawidSkene::new(2);
        serial.fit_with(&lm, None, Execution::Serial).unwrap();
        for threads in [2, 3, 7] {
            let mut par = DawidSkene::new(2);
            par.fit_with(&lm, None, Execution::with_threads(threads))
                .unwrap();
            for (ps, pp) in serial.prior().iter().zip(par.prior()) {
                assert_eq!(ps.to_bits(), pp.to_bits(), "prior, threads={threads}");
            }
            for j in 0..lm.n_lfs() {
                for (rs, rp) in serial.confusion(j).iter().zip(par.confusion(j)) {
                    for (a, b) in rs.iter().zip(rp) {
                        assert_eq!(a.to_bits(), b.to_bits(), "theta[{j}], threads={threads}");
                    }
                }
            }
        }
    }
}
