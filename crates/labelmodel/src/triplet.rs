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

use crate::error::{check_params, resolve_balance, LabelModelError, PRIOR_RANGE};
use crate::LabelModel;
use adp_lf::{ColumnView, LabelMatrix, LfMoments, ABSTAIN};

/// Triplet-estimated label model for binary tasks.
#[derive(Debug, Clone)]
pub struct TripletMetal {
    n_classes: usize,
    /// Firing-conditional accuracy per LF.
    accuracies: Vec<f64>,
    /// Each LF's log-odds term per vote [`outcome`]: `[0, −w, +w]` with the
    /// naive-Bayes weight `w = ln(acc / (1 − acc))`, filled with
    /// `accuracies` so prediction neither recomputes the weight nor
    /// branches on the vote.
    vote_terms: Vec<[f64; 3]>,
    prior: Vec<f64>,
    /// Accuracy assigned to LFs when moments are unusable (fewer than three
    /// LFs, or degenerate overlap). Matches the candidate filter's floor.
    pub default_accuracy: f64,
    /// Accuracy estimates are clamped into `[clamp, 1 − clamp]` so log-odds
    /// stay finite.
    pub clamp: f64,
}

impl TripletMetal {
    /// A triplet model; `n_classes` must be 2 (checked at `fit`).
    pub fn new(n_classes: usize) -> Self {
        TripletMetal {
            n_classes,
            accuracies: vec![],
            vote_terms: vec![],
            prior: vec![0.5, 0.5],
            default_accuracy: 0.7,
            clamp: 0.05,
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

    /// Installs accuracies and derives the log-odds terms from them — the
    /// one path from accuracies to `vote_terms`, shared by `fit` and
    /// `load_params`.
    fn set_accuracies(&mut self, accuracies: Vec<f64>) {
        self.vote_terms = accuracies
            .iter()
            .map(|&acc| {
                let w = (acc / (1.0 - acc)).ln();
                [0.0, Self::signed(0) * w, Self::signed(1) * w]
            })
            .collect();
        self.accuracies = accuracies;
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

/// A vote's index into [`TripletMetal`]'s per-LF log-odds terms: 0 for an
/// abstain, 1 for class 0, 2 for any other vote (which
/// [`TripletMetal::signed`] counts as +1).
#[inline]
fn outcome(v: i8) -> usize {
    usize::from(v != ABSTAIN) + usize::from(v != ABSTAIN && v != 0)
}

impl TripletMetal {
    /// Fits from a moment ledger over `n` instances instead of the votes:
    /// a matrix that carries one (a grown training matrix, or a column
    /// selection of one) costs O(m²) here, any other is scanned once. The
    /// ledger's sums are exact integers, so the estimator sees the same
    /// `f64` inputs as from a scan of every row.
    fn fit_moments(
        &mut self,
        moments: &LfMoments,
        n: usize,
        class_balance: Option<&[f64]>,
    ) -> Result<(), LabelModelError> {
        if self.n_classes != 2 {
            return Err(LabelModelError::BinaryOnly {
                n_classes: self.n_classes,
            });
        }
        self.prior = resolve_balance(class_balance, 2)?;
        let m = moments.fire_counts().len();
        if let Some(vote) = moments.vote_outside(2) {
            return Err(LabelModelError::VoteOutOfRange { vote, n_classes: 2 });
        }
        if m < 3 || n == 0 {
            self.set_accuracies(vec![self.default_accuracy; m]);
            return Ok(());
        }
        let fire_counts = moments.fire_counts().iter().map(|&c| c as f64).collect();
        let mut pair_sums = vec![0.0; m * m];
        for j in 0..m {
            for k in (j + 1)..m {
                pair_sums[j * m + k] = moments.pair_sum(j, k) as f64;
            }
        }
        let accuracies = self.estimate_accuracies(fire_counts, pair_sums, n);
        self.set_accuracies(accuracies);
        Ok(())
    }
}

impl LabelModel for TripletMetal {
    /// Reads the matrix's moment ledger ([`LabelMatrix::moments`]) instead
    /// of its votes (see `fit_moments`).
    fn fit(
        &mut self,
        matrix: &LabelMatrix,
        class_balance: Option<&[f64]>,
    ) -> Result<(), LabelModelError> {
        self.fit_moments(matrix.moments(), matrix.n_instances(), class_balance)
    }

    /// The selection's sub-block of the matrix's ledger, in O(m²): no copy
    /// of the selected votes.
    fn fit_columns(
        &mut self,
        view: &ColumnView<'_>,
        class_balance: Option<&[f64]>,
    ) -> Result<(), LabelModelError> {
        self.fit_moments(&view.moments(), view.n_instances(), class_balance)
    }

    fn predict_into(&self, votes: &[i8], out: &mut [f64]) {
        // Naive-Bayes log odds for Y = 1. An abstain adds +0.0, which
        // leaves every value but −0.0 unchanged, and the sum is never −0.0:
        // it starts at an `ln`, and x + y is −0.0 only when both are. So
        // the branch-free sum equals one that skips abstains, bit for bit.
        let mut log_odds = (self.prior[1] / self.prior[0]).ln();
        for (&v, terms) in votes.iter().zip(&self.vote_terms) {
            log_odds += terms[outcome(v)];
        }
        let p1 = 1.0 / (1.0 + (-log_odds).exp());
        out.copy_from_slice(&[1.0 - p1, p1]);
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The class prior, then one firing-conditional accuracy per LF.
    fn params(&self) -> Vec<f64> {
        [&self.prior[..], &self.accuracies[..]].concat()
    }

    /// Accuracies must lie in the fit's clamp `[clamp, 1 − clamp]`.
    fn load_params(&mut self, n_lfs: usize, params: &[f64]) -> Result<(), LabelModelError> {
        if self.n_classes != 2 {
            return Err(LabelModelError::BinaryOnly {
                n_classes: self.n_classes,
            });
        }
        let (prior, accuracies) = params.split_at(params.len().min(2));
        check_params("class prior", prior, 2, PRIOR_RANGE)?;
        check_params(
            "accuracies",
            accuracies,
            n_lfs,
            (self.clamp, 1.0 - self.clamp),
        )?;
        self.prior = prior.to_vec();
        self.set_accuracies(accuracies.to_vec());
        Ok(())
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

    /// The per-vote `ln` posterior, skipping abstains, that the cached
    /// vote terms replaced.
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
            let (fire, pairs) = ledger_sums(&votes);
            assert_bits(&format!("fire n={n} m={m}"), &fire, &dense_fire);
            assert_bits(&format!("pairs n={n} m={m}"), &pairs, &dense_pairs);
        }
    }

    /// The matrix's moment ledger in [`dense_moment_sums`]' shape: `f64`
    /// fire counts and the flat `m × m` upper triangle.
    fn ledger_sums(matrix: &LabelMatrix) -> (Vec<f64>, Vec<f64>) {
        let moments = matrix.moments();
        let m = matrix.n_lfs();
        assert_eq!(moments.fire_counts().len(), m, "ledger width");
        let mut pairs = vec![0.0f64; m * m];
        for j in 0..m {
            for k in (j + 1)..m {
                pairs[j * m + k] = moments.pair_sum(j, k) as f64;
                assert_eq!(moments.pair_sum(k, j), moments.pair_sum(j, k));
            }
        }
        let fire = moments.fire_counts().iter().map(|&c| c as f64).collect();
        (fire, pairs)
    }

    /// The ledger equals a dense scan of the votes, the out-of-range vote
    /// record included.
    fn assert_ledger_exact(label: &str, matrix: &LabelMatrix) {
        let (dense_fire, dense_pairs) = dense_moment_sums(matrix);
        let (fire, pairs) = ledger_sums(matrix);
        assert_bits(&format!("{label}: fire"), &fire, &dense_fire);
        assert_bits(&format!("{label}: pairs"), &pairs, &dense_pairs);
        let outside = (0..matrix.n_instances())
            .flat_map(|i| matrix.row(i).iter().copied())
            .filter(|&v| v != ABSTAIN && v as usize >= 2)
            .max_by_key(|&v| v as u8);
        assert_eq!(matrix.moments().vote_outside(2), outside, "{label}: vote");
        let (n, m) = (matrix.n_instances(), matrix.n_lfs());
        let rescanned = LabelMatrix::from_raw(n, m, matrix.votes().into_owned()).unwrap();
        assert_eq!(
            matrix.moments(),
            rescanned.moments(),
            "{label}: whole ledger"
        );
    }

    /// A dense one-feature-per-column dataset for `push_lf`.
    fn stump_dataset(n: usize, rng: &mut rand::rngs::StdRng) -> adp_data::Dataset {
        let x = adp_linalg::Matrix::from_fn(n, 4, |_, _| rng.gen_range(0.0..1.0));
        adp_data::Dataset {
            name: "stumps".into(),
            task: adp_data::Task::OccupancyPrediction,
            n_classes: 2,
            features: adp_data::FeatureSet::Dense(x),
            labels: (0..n).map(|i| i % 2).collect(),
            texts: None,
            encoded_docs: None,
        }
    }

    fn random_stump(rng: &mut rand::rngs::StdRng) -> adp_lf::LabelFunction {
        adp_lf::LabelFunction::Stump {
            feature: rng.gen_range(0..4),
            threshold: rng.gen_range(0.0..1.0),
            op: if rng.gen() {
                adp_lf::StumpOp::Ge
            } else {
                adp_lf::StumpOp::Le
            },
            label: rng.gen_range(0..2),
        }
    }

    /// Random sequences of `push_lf`, `set`, `select_columns` (any order,
    /// repeats allowed) and `select_rows` over matrices from every
    /// constructor: after each operation the ledger, carried or rebuilt,
    /// equals the dense reference exactly.
    #[test]
    fn ledger_tracks_dense_reference_under_random_edits() {
        for seed in 0..12u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(900 + seed);
            let n = [1, 7, 40, 333][seed as usize % 4];
            let data = stump_dataset(n, &mut rng);
            let lfs: Vec<_> = (0..rng.gen_range(0..5))
                .map(|_| random_stump(&mut rng))
                .collect();
            let from_lfs = adp_lf::LabelMatrix::from_lfs(&lfs, &data);
            let mut matrix = match seed % 4 {
                0 => LabelMatrix::empty(n),
                1 => from_lfs,
                2 => {
                    let rows: Vec<Vec<i8>> = (0..n).map(|i| from_lfs.row(i).to_vec()).collect();
                    LabelMatrix::from_votes(&rows).unwrap()
                }
                _ => LabelMatrix::from_raw(n, lfs.len(), from_lfs.votes().to_vec()).unwrap(),
            };
            for step in 0..60 {
                let label = format!("seed {seed} step {step}");
                let m = matrix.n_lfs();
                match rng.gen_range(0..10) {
                    0..=3 => matrix.push_lf(&random_stump(&mut rng), &data).unwrap(),
                    4..=6 if m > 0 => {
                        let vote = [ABSTAIN, 0, 1, 1, 0, 2][rng.gen_range(0..6usize)];
                        let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..m));
                        matrix.set(i, j, vote).unwrap();
                    }
                    7 if m > 0 => {
                        let cols: Vec<usize> = (0..rng.gen_range(1..=m + 1))
                            .map(|_| rng.gen_range(0..m))
                            .collect();
                        matrix = matrix.select_columns(&cols).unwrap();
                    }
                    8 => {
                        let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                        matrix = matrix.select_rows(&rows).unwrap();
                    }
                    _ => {}
                }
                assert_ledger_exact(&label, &matrix);
            }
        }
    }

    /// A fit on a column selection that carries the grown matrix's ledger
    /// equals, bit for bit, a fit on a fresh copy of the same votes whose
    /// ledger is scanned.
    #[test]
    fn fit_on_a_ledger_sub_matrix_matches_a_fresh_copy_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let n = 1500;
        let data = stump_dataset(n, &mut rng);
        let mut grown = LabelMatrix::empty(n);
        for _ in 0..20 {
            grown.push_lf(&random_stump(&mut rng), &data).unwrap();
        }
        for cols in [
            vec![3, 0, 7, 12, 19, 5],
            (0..20).rev().collect(),
            vec![4, 9, 2],
        ] {
            let sub = grown.select_columns(&cols).unwrap();
            let fresh = LabelMatrix::from_raw(n, cols.len(), sub.votes().to_vec()).unwrap();
            let mut carried = TripletMetal::new(2);
            carried.fit(&sub, Some(&[0.45, 0.55])).unwrap();
            let mut scanned = TripletMetal::new(2);
            scanned.fit(&fresh, Some(&[0.45, 0.55])).unwrap();
            assert_bits(
                &format!("accuracies {cols:?}"),
                carried.accuracies(),
                scanned.accuracies(),
            );
        }
    }

    /// A vote of 2 is a typed `VoteOutOfRange`, whether the ledger is
    /// scanned or carried through `set` and `select_columns`; overwriting
    /// it again clears the error.
    #[test]
    fn vote_of_two_is_a_typed_error_through_the_ledger() {
        let lm = LabelMatrix::from_votes(&[vec![1, 2, 0], vec![ABSTAIN, 0, 1]]).unwrap();
        let mut t = TripletMetal::new(2);
        assert!(matches!(
            t.fit(&lm, None).unwrap_err(),
            LabelModelError::VoteOutOfRange {
                vote: 2,
                n_classes: 2
            }
        ));
        let mut carried = seeded_votes(50, 4, 5);
        carried.moments();
        carried.set(9, 2, 2).unwrap();
        let sub = carried.select_columns(&[2, 0, 1]).unwrap();
        assert!(matches!(
            t.fit(&sub, None).unwrap_err(),
            LabelModelError::VoteOutOfRange { vote: 2, .. }
        ));
        carried.set(9, 2, 0).unwrap();
        t.fit(&carried.select_columns(&[2, 0, 1]).unwrap(), None)
            .unwrap();
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

    /// The bulk posterior over a matrix (serial and chunk-parallel) equals
    /// the per-vote reference that skips abstains, bit for bit, including
    /// a model whose weights are all ±0.0 under a log-odds prior of +0.0,
    /// where adding an abstain's +0.0 term is most delicate.
    #[test]
    fn bulk_predict_matches_the_skipping_reference_bitwise() {
        let votes = seeded_votes(3 * 512 + 77, 12, 41);
        let mut fitted = TripletMetal::new(2);
        fitted.fit(&votes, Some(&[0.3, 0.7])).unwrap();
        let mut zero_weights = TripletMetal::new(2);
        zero_weights.default_accuracy = 0.5;
        let two_lfs = votes.select_columns(&[4, 9]).unwrap();
        zero_weights.fit(&two_lfs, Some(&[0.5, 0.5])).unwrap();
        assert_eq!(zero_weights.accuracies(), &[0.5, 0.5]);
        for (label, model, matrix) in [
            ("fitted", &fitted, &votes),
            ("zero", &zero_weights, &two_lfs),
        ] {
            for exec in [
                adp_linalg::Execution::Serial,
                adp_linalg::Execution::with_threads(3),
            ] {
                let bulk = crate::predict_all_with(model, matrix, exec);
                assert_eq!(bulk.shape(), (matrix.n_instances(), 2));
                for (i, row) in bulk.row_iter().enumerate() {
                    let expected = reference_predict(model, matrix.row(i));
                    assert_bits(&format!("{label} {exec:?} row {i}"), row, &expected);
                }
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
