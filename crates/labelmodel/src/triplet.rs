//! Triplet method-of-moments label model (MeTaL-style, binary tasks).
//!
//! Encode votes as ±1 (class 1 → +1, class 0 → −1, abstain → 0) and let
//! `a_j = E[λ_j · Y]`. Under class-conditional independence of the LFs the
//! second moments satisfy `E[λ_i λ_j] = a_i a_j`, so for any triplet
//! `(i, j, k)`:
//!
//! ```text
//!   |a_i| = sqrt( |E[λ_i λ_j] · E[λ_i λ_k] / E[λ_j λ_k]| )
//! ```
//!
//! This is the same second-moment identity MeTaL's matrix-completion
//! estimator inverts (Ratner et al. 2019) and FlyingSquid popularised in
//! closed form. Signs are resolved by the better-than-random assumption the
//! paper's candidate filter enforces (accuracy > 0.6 ⇒ `a_j > 0`). The
//! recovered `a_j` are converted to firing-conditional accuracies and
//! aggregated with a naive-Bayes posterior.

use crate::error::{resolve_balance, LabelModelError};
use crate::LabelModel;
use adp_lf::{LabelMatrix, ABSTAIN};
use adp_linalg::parallel::{self, Execution};

/// Instances per parallel moment-accumulation chunk. Fixed
/// (machine-independent) per the `adp_linalg::parallel` contract. The
/// chunk partials are `i64` firing counts and sums of ±1 products over
/// firing pairs, converted to `f64` once at the merge. Every total is an
/// exact integer, so the result is independent of the thread count and
/// equal to a straight `f64` sum over all instances and LF pairs.
const MOMENT_CHUNK: usize = 256;

/// Below this many instances the scoped-thread setup cannot pay off.
const MIN_PARALLEL_MOMENTS: usize = 2 * MOMENT_CHUNK;

/// Triplet-estimated label model for binary tasks.
#[derive(Debug, Clone)]
pub struct TripletMetal {
    n_classes: usize,
    /// Firing-conditional accuracy per LF.
    accuracies: Vec<f64>,
    /// Naive-Bayes vote weight `ln(acc / (1 − acc))` per LF, filled with
    /// `accuracies` so prediction does not recompute it per vote.
    log_weights: Vec<f64>,
    prior: Vec<f64>,
    /// Accuracy assigned to LFs when moments are unusable (fewer than three
    /// LFs, or degenerate overlap). Matches the candidate filter's floor.
    pub default_accuracy: f64,
    /// Accuracy estimates are clamped into `[clamp, 1 − clamp]` so log-odds
    /// stay finite.
    pub clamp: f64,
    /// Run the pairwise-agreement moment accumulation on scoped threads
    /// when the matrix is large enough. The result is bitwise identical
    /// either way; this switch only controls scheduling.
    pub parallel: bool,
}

impl TripletMetal {
    /// A triplet model; `n_classes` must be 2 (checked at `fit`).
    pub fn new(n_classes: usize) -> Self {
        TripletMetal {
            n_classes,
            accuracies: vec![],
            log_weights: vec![],
            prior: vec![0.5, 0.5],
            default_accuracy: 0.7,
            clamp: 0.05,
            parallel: true,
        }
    }

    /// Estimated firing-conditional accuracies (after `fit`).
    pub fn accuracies(&self) -> &[f64] {
        &self.accuracies
    }

    fn signed(v: i8) -> f64 {
        match v {
            ABSTAIN => 0.0,
            0 => -1.0,
            _ => 1.0,
        }
    }

    fn set_accuracies(&mut self, accuracies: Vec<f64>) {
        self.log_weights = accuracies
            .iter()
            .map(|&acc| (acc / (1.0 - acc)).ln())
            .collect();
        self.accuracies = accuracies;
    }

    /// [`LabelModel::fit`] under an explicit execution policy. The pairwise
    /// moment accumulation fans fixed-size instance chunks out over scoped
    /// threads; the per-chunk partials are exact integers, so serial and
    /// parallel fits agree bit for bit at every thread count (pinned by the
    /// workspace `tests/determinism.rs` harness). `fit` picks the policy
    /// with [`parallel::auto`] when [`TripletMetal::parallel`] is set.
    pub fn fit_with(
        &mut self,
        matrix: &LabelMatrix,
        class_balance: Option<&[f64]>,
        exec: Execution,
    ) -> Result<(), LabelModelError> {
        if self.n_classes != 2 {
            return Err(LabelModelError::BinaryOnly {
                n_classes: self.n_classes,
            });
        }
        self.prior = resolve_balance(class_balance, 2)?;
        let n = matrix.n_instances();
        let m = matrix.n_lfs();
        for i in 0..n {
            for &v in matrix.row(i) {
                if v != ABSTAIN && v as usize >= 2 {
                    return Err(LabelModelError::VoteOutOfRange {
                        vote: v,
                        n_classes: 2,
                    });
                }
            }
        }
        if m < 3 || n == 0 {
            self.set_accuracies(vec![self.default_accuracy; m]);
            return Ok(());
        }
        let (fire_counts, pair_sums) = moment_sums(matrix, exec);
        let accuracies = self.estimate_accuracies(fire_counts, pair_sums, n);
        self.set_accuracies(accuracies);
        Ok(())
    }

    /// Turns firing counts and upper-triangular pair sums (flat `m × m`)
    /// over `n > 0` instances into clamped firing-conditional accuracies.
    fn estimate_accuracies(
        &self,
        mut fire_rate: Vec<f64>,
        mut moments: Vec<f64>,
        n: usize,
    ) -> Vec<f64> {
        let m = fire_rate.len();
        for f in &mut fire_rate {
            *f /= n.max(1) as f64;
        }
        let inv_n = 1.0 / n as f64;
        for j in 0..m {
            for k in (j + 1)..m {
                moments[j * m + k] *= inv_n;
                moments[k * m + j] = moments[j * m + k];
            }
        }

        // Estimate |a_j| as the median over all usable triplets (j, k, l).
        const MIN_MOMENT: f64 = 1e-4;
        let mut accs = Vec::with_capacity(m);
        let mut estimates: Vec<f64> = Vec::new();
        for j in 0..m {
            estimates.clear();
            for k in 0..m {
                if k == j {
                    continue;
                }
                for l in (k + 1)..m {
                    if l == j {
                        continue;
                    }
                    let (mjk, mjl, mkl) =
                        (moments[j * m + k], moments[j * m + l], moments[k * m + l]);
                    if mjk.abs() < MIN_MOMENT || mjl.abs() < MIN_MOMENT || mkl.abs() < MIN_MOMENT {
                        continue;
                    }
                    let est = (mjk * mjl / mkl).abs().sqrt();
                    if est.is_finite() {
                        estimates.push(est.min(1.0));
                    }
                }
            }
            let a_j = if estimates.is_empty() {
                // No usable triplet: fall back to the prior accuracy.
                fire_rate[j] * (2.0 * self.default_accuracy - 1.0)
            } else {
                estimates.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
                estimates[estimates.len() / 2]
            };
            // a_j = E[λ_j Y] ≈ P(fire) · (2·acc − 1) ⇒ acc = (a_j/P(fire)+1)/2.
            let acc = if fire_rate[j] > 0.0 {
                ((a_j / fire_rate[j]) + 1.0) / 2.0
            } else {
                self.default_accuracy
            };
            accs.push(acc.clamp(self.clamp, 1.0 - self.clamp));
        }
        accs
    }
}

/// Firing counts and pairwise signed second-moment sums
/// `Σ_i λ_j(x_i)·λ_k(x_i)` (flat `m × m`, upper triangle `j < k` only),
/// accumulated per fixed-size instance chunk and merged in chunk order.
/// Each row's firing LFs are gathered once as `(index, ±1)`, so only
/// firing pairs are visited; an abstaining LF contributes nothing to
/// either sum. The partials are exact `i64` integers, converted to `f64`
/// after the merge.
fn moment_sums(matrix: &LabelMatrix, exec: Execution) -> (Vec<f64>, Vec<f64>) {
    let (n, m) = (matrix.n_instances(), matrix.n_lfs());
    let parts = parallel::map_chunks(n, MOMENT_CHUNK, exec, |range| {
        let mut fire_part = vec![0i64; m];
        let mut pair_part = vec![0i64; m * m];
        let mut firing: Vec<(usize, i64)> = Vec::with_capacity(m);
        for i in range {
            firing.clear();
            firing.extend(
                matrix
                    .row(i)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != ABSTAIN)
                    .map(|(j, &v)| (j, if v == 0 { -1 } else { 1 })),
            );
            for (a, &(j, sj)) in firing.iter().enumerate() {
                fire_part[j] += 1;
                let pairs = &mut pair_part[j * m..(j + 1) * m];
                for &(k, sk) in &firing[a + 1..] {
                    pairs[k] += sj * sk;
                }
            }
        }
        (fire_part, pair_part)
    });
    let mut fire_total = vec![0i64; m];
    let mut pair_total = vec![0i64; m * m];
    for (fire_part, pair_part) in parts {
        for (total, part) in fire_total.iter_mut().zip(&fire_part) {
            *total += part;
        }
        for (total, part) in pair_total.iter_mut().zip(&pair_part) {
            *total += part;
        }
    }
    let to_f64 = |totals: Vec<i64>| totals.into_iter().map(|c| c as f64).collect();
    (to_f64(fire_total), to_f64(pair_total))
}

impl LabelModel for TripletMetal {
    fn fit(
        &mut self,
        matrix: &LabelMatrix,
        class_balance: Option<&[f64]>,
    ) -> Result<(), LabelModelError> {
        let exec = if self.parallel {
            parallel::auto(matrix.n_instances(), MIN_PARALLEL_MOMENTS)
        } else {
            Execution::Serial
        };
        self.fit_with(matrix, class_balance, exec)
    }

    fn predict_proba(&self, votes: &[i8]) -> Vec<f64> {
        // Naive-Bayes log odds for Y = 1.
        let mut log_odds = (self.prior[1] / self.prior[0]).ln();
        for (&v, &w) in votes.iter().zip(&self.log_weights) {
            if v != ABSTAIN {
                log_odds += Self::signed(v) * w;
            }
        }
        let p1 = 1.0 / (1.0 + (-log_odds).exp());
        vec![1.0 - p1, p1]
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dawid_skene::tests::planted;
    use rand::{Rng, SeedableRng};

    /// The dense `f64` moment loop the firing-list kernel replaced, kept as
    /// the bit-exactness reference: every LF pair of every row is visited.
    fn dense_moment_sums(matrix: &LabelMatrix) -> (Vec<f64>, Vec<f64>) {
        let m = matrix.n_lfs();
        let mut fire = vec![0.0f64; m];
        let mut pairs = vec![0.0f64; m * m];
        for i in 0..matrix.n_instances() {
            let row = matrix.row(i);
            for (j, &v) in row.iter().enumerate() {
                if v != ABSTAIN {
                    fire[j] += 1.0;
                }
            }
            for j in 0..m {
                let sj = TripletMetal::signed(row[j]);
                if sj == 0.0 {
                    continue;
                }
                for k in (j + 1)..m {
                    let sk = TripletMetal::signed(row[k]);
                    if sk != 0.0 {
                        pairs[j * m + k] += sj * sk;
                    }
                }
            }
        }
        (fire, pairs)
    }

    /// The per-vote `ln` posterior the cached `log_weights` replaced.
    fn reference_predict(t: &TripletMetal, votes: &[i8]) -> Vec<f64> {
        let mut log_odds = (t.prior[1] / t.prior[0]).ln();
        for (j, &v) in votes.iter().enumerate().take(t.accuracies.len()) {
            if v == ABSTAIN {
                continue;
            }
            let acc = t.accuracies[j];
            let w = (acc / (1.0 - acc)).ln();
            log_odds += TripletMetal::signed(v) * w;
        }
        let p1 = 1.0 / (1.0 + (-log_odds).exp());
        vec![1.0 - p1, p1]
    }

    fn assert_bits(label: &str, a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len(), "{label}: length");
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}[{k}]: {x:e} vs {y:e}");
        }
    }

    /// Seeded votes with per-LF coverage and accuracy, plus a band of
    /// all-abstain rows.
    fn seeded_votes(n: usize, m: usize, seed: u64) -> LabelMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let lfs: Vec<(f64, f64)> = (0..m)
            .map(|_| (rng.gen_range(0.05..0.9), rng.gen_range(0.3..0.95)))
            .collect();
        let mut data = Vec::with_capacity(n * m);
        for i in 0..n {
            let y = i8::from(rng.gen::<f64>() < 0.4);
            for &(cov, acc) in &lfs {
                data.push(if i % 11 == 3 || rng.gen::<f64>() >= cov {
                    ABSTAIN
                } else if rng.gen::<f64>() < acc {
                    y
                } else {
                    1 - y
                });
            }
        }
        LabelMatrix::from_raw(n, m, data).unwrap()
    }

    #[test]
    fn firing_list_moments_match_dense_reference_bitwise() {
        for (seed, (n, m)) in [(0, 1), (1, 3), (300, 5), (513, 9), (1100, 24), (260, 64)]
            .into_iter()
            .enumerate()
        {
            let votes = seeded_votes(n, m, seed as u64);
            let (dense_fire, dense_pairs) = dense_moment_sums(&votes);
            for exec in [Execution::Serial, Execution::with_threads(3)] {
                let (fire, pairs) = moment_sums(&votes, exec);
                assert_bits(&format!("fire n={n} m={m}"), &fire, &dense_fire);
                assert_bits(&format!("pairs n={n} m={m}"), &pairs, &dense_pairs);
            }
        }
    }

    #[test]
    fn fit_and_predict_match_dense_reference_bitwise() {
        for (seed, (n, m)) in [
            (0, 0),
            (40, 1),
            (40, 2),
            (0, 4),
            (7, 3),
            (600, 6),
            (900, 17),
        ]
        .into_iter()
        .enumerate()
        {
            let votes = seeded_votes(n, m, 100 + seed as u64);
            let mut t = TripletMetal::new(2);
            t.fit(&votes, Some(&[0.35, 0.65])).unwrap();
            if m >= 3 && n > 0 {
                let (fire, pairs) = dense_moment_sums(&votes);
                let expected = t.estimate_accuracies(fire, pairs, n);
                assert_bits(
                    &format!("accuracies n={n} m={m}"),
                    t.accuracies(),
                    &expected,
                );
            } else {
                assert_eq!(t.accuracies(), vec![t.default_accuracy; m].as_slice());
            }
            let mut probes: Vec<Vec<i8>> = (0..n).map(|i| votes.row(i).to_vec()).collect();
            probes.push(vec![ABSTAIN; m]);
            probes.push(vec![]);
            probes.push(vec![1; m + 2]);
            for (i, row) in probes.iter().enumerate() {
                assert_bits(
                    &format!("posterior n={n} m={m} row {i}"),
                    &t.predict_proba(row),
                    &reference_predict(&t, row),
                );
            }
        }
    }

    #[test]
    fn recovers_planted_accuracies() {
        let accs = [0.9, 0.8, 0.7, 0.6, 0.85];
        let (lm, _) = planted(&accs, 0.7, 6000, 1);
        let mut t = TripletMetal::new(2);
        t.fit(&lm, Some(&[0.5, 0.5])).unwrap();
        for (j, &a) in accs.iter().enumerate() {
            let est = t.accuracies()[j];
            assert!((est - a).abs() < 0.08, "LF {j}: est {est} vs true {a}");
        }
    }

    #[test]
    fn posterior_weights_good_lfs_higher() {
        let accs = [0.95, 0.55, 0.55];
        let (lm, labels) = planted(&accs, 1.0, 4000, 2);
        let mut t = TripletMetal::new(2);
        t.fit(&lm, Some(&[0.5, 0.5])).unwrap();
        let mut correct = 0usize;
        for i in 0..lm.n_instances() {
            let p = t.predict_proba(lm.row(i));
            if adp_linalg::argmax(&p).unwrap() == labels[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / lm.n_instances() as f64;
        // Should track the best LF (0.95), not the majority (~0.60).
        assert!(acc > 0.88, "triplet accuracy {acc:.3}");
    }

    #[test]
    fn fewer_than_three_lfs_uses_default() {
        let (lm, _) = planted(&[0.9, 0.8], 1.0, 500, 3);
        let mut t = TripletMetal::new(2);
        t.fit(&lm, None).unwrap();
        assert_eq!(t.accuracies(), &[0.7, 0.7]);
    }

    #[test]
    fn empty_matrix_and_all_abstain_rows() {
        let lm = LabelMatrix::empty(5);
        let mut t = TripletMetal::new(2);
        t.fit(&lm, Some(&[0.3, 0.7])).unwrap();
        let p = t.predict_proba(&[]);
        assert!((p[1] - 0.7).abs() < 1e-9);
        let p = t.predict_proba(&[ABSTAIN, ABSTAIN]);
        assert!((p[1] - 0.7).abs() < 1e-9);
    }

    #[test]
    fn rejects_multiclass() {
        let mut t = TripletMetal::new(3);
        assert!(matches!(
            t.fit(&LabelMatrix::empty(0), None).unwrap_err(),
            LabelModelError::BinaryOnly { .. }
        ));
    }

    #[test]
    fn rejects_out_of_range_votes() {
        let lm = LabelMatrix::from_votes(&[vec![2]]).unwrap();
        let mut t = TripletMetal::new(2);
        assert!(t.fit(&lm, None).is_err());
    }

    #[test]
    fn accuracies_are_clamped() {
        // Perfectly correlated LFs can push estimates to 1; clamp bounds.
        let (lm, _) = planted(&[1.0, 1.0, 1.0, 1.0], 1.0, 1000, 4);
        let mut t = TripletMetal::new(2);
        t.fit(&lm, None).unwrap();
        for &a in t.accuracies() {
            assert!((0.05..=0.95).contains(&a));
        }
    }

    #[test]
    fn prior_shifts_posterior() {
        let (lm, _) = planted(&[0.8, 0.8, 0.8], 0.5, 2000, 5);
        let mut t = TripletMetal::new(2);
        t.fit(&lm, Some(&[0.9, 0.1])).unwrap();
        // A single weak positive vote should not overcome a strong prior.
        let p = t.predict_proba(&[ABSTAIN, 1, ABSTAIN]);
        assert!(p[0] > 0.3, "prior should temper the vote: {p:?}");
    }
}
