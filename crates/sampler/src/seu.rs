//! Nemo's Select-by-Expected-Utility sampler (Hsieh et al., VLDB 2022).
//!
//! SEU scores an unlabeled instance by the utility a user-created LF from
//! that instance would bring:
//!
//! ```text
//!   u(x) = Σ_{λ ∈ Λ(x)} P(user returns λ | x) · Σ_{x' ∈ cov(λ)} (1 − conf(x'))
//! ```
//!
//! where `P(λ|x)` follows the same coverage-proportional user model the
//! simulation uses and `conf(x')` is the label model's top-class
//! probability. LFs the user already returned contribute nothing.
//!
//! Computing `Σ_{x'∈cov(λ)} (1 − conf(x'))` naively per candidate is
//! O(candidates × pool); the scorer instead precomputes per-token
//! uncertainty mass (text) or per-feature prefix sums over value-sorted
//! instances (tabular), making each candidate O(1)/O(log n).

use crate::{Sampler, SamplerContext};
use adp_data::Dataset;
use adp_lf::{LabelFunction, LfKey, StumpOp};
use adp_linalg::Matrix;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// SEU sampler with a per-iteration utility scorer.
#[derive(Debug)]
pub struct Seu {
    rng: rand::rngs::StdRng,
    /// Pool instances scored per selection (subsampled for cost, as in
    /// Nemo's implementation).
    pub max_scored: usize,
}

impl Seu {
    /// An SEU sampler with a deterministic subsampling stream.
    pub fn new(seed: u64) -> Self {
        Seu {
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            max_scored: 150,
        }
    }
}

/// Per-iteration scoring structure.
#[derive(Debug)]
pub struct SeuScorer {
    kind: ScorerKind,
}

#[derive(Debug)]
enum ScorerKind {
    /// utility[token] = Σ_{docs containing token} (1 − conf(doc)).
    Text {
        token_utility: Vec<f64>,
        token_coverage: Vec<f64>,
    },
    /// Per feature: instances sorted by value with prefix sums of
    /// uncertainty mass, so range utilities are two lookups.
    Tabular {
        sorted_values: Vec<Vec<f64>>,
        prefix_uncertainty: Vec<Vec<f64>>,
        n: usize,
    },
}

impl SeuScorer {
    /// Builds the scorer for the pool given the label model's confidence
    /// (`None` ⇒ uniform, i.e. every instance contributes 1 − 1/C).
    pub fn build(train: &Dataset, lm_probs: Option<&Matrix>) -> Self {
        let n = train.len();
        let uncertainty: Vec<f64> = (0..n)
            .map(|i| match lm_probs {
                Some(p) => 1.0 - p.row(i).iter().fold(0.0_f64, |m, &v| m.max(v)),
                None => 1.0 - 1.0 / train.n_classes as f64,
            })
            .collect();
        if let Some(docs) = &train.encoded_docs {
            let vocab = train.features.ncols();
            let mut token_utility = vec![0.0; vocab];
            let mut token_count = vec![0usize; vocab];
            let mut seen: Vec<bool> = vec![false; vocab];
            for (i, doc) in docs.iter().enumerate() {
                for &t in doc {
                    let t = t as usize;
                    if !seen[t] {
                        seen[t] = true;
                        token_utility[t] += uncertainty[i];
                        token_count[t] += 1;
                    }
                }
                for &t in doc {
                    seen[t as usize] = false;
                }
            }
            let token_coverage = token_count
                .iter()
                .map(|&c| c as f64 / n.max(1) as f64)
                .collect();
            SeuScorer {
                kind: ScorerKind::Text {
                    token_utility,
                    token_coverage,
                },
            }
        } else {
            let x = train.features.as_dense();
            let d = x.ncols();
            let mut sorted_values = Vec::with_capacity(d);
            let mut prefix_uncertainty = Vec::with_capacity(d);
            for j in 0..d {
                let mut pairs: Vec<(f64, f64)> =
                    (0..n).map(|i| (x[(i, j)], uncertainty[i])).collect();
                pairs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
                let mut prefix = Vec::with_capacity(n + 1);
                prefix.push(0.0);
                let mut acc = 0.0;
                for &(_, u) in &pairs {
                    acc += u;
                    prefix.push(acc);
                }
                sorted_values.push(pairs.into_iter().map(|(v, _)| v).collect());
                prefix_uncertainty.push(prefix);
            }
            SeuScorer {
                kind: ScorerKind::Tabular {
                    sorted_values,
                    prefix_uncertainty,
                    n,
                },
            }
        }
    }

    /// Utility mass covered by one LF.
    pub fn lf_utility(&self, lf: &LabelFunction) -> f64 {
        match (&self.kind, lf) {
            (ScorerKind::Text { token_utility, .. }, LabelFunction::Keyword { token, .. }) => {
                token_utility.get(*token as usize).copied().unwrap_or(0.0)
            }
            (
                ScorerKind::Tabular {
                    sorted_values,
                    prefix_uncertainty,
                    n,
                },
                LabelFunction::Stump {
                    feature,
                    threshold,
                    op,
                    ..
                },
            ) => {
                let vals = &sorted_values[*feature];
                let prefix = &prefix_uncertainty[*feature];
                // partition_point gives the count of values < or <= threshold.
                match op {
                    StumpOp::Le => {
                        let k = vals.partition_point(|&v| v <= *threshold);
                        prefix[k]
                    }
                    StumpOp::Ge => {
                        let k = vals.partition_point(|&v| v < *threshold);
                        prefix[*n] - prefix[k]
                    }
                }
            }
            _ => 0.0,
        }
    }

    /// Coverage of one LF over the pool (for the user-model weighting).
    pub fn lf_coverage(&self, lf: &LabelFunction) -> f64 {
        match (&self.kind, lf) {
            (ScorerKind::Text { token_coverage, .. }, LabelFunction::Keyword { token, .. }) => {
                token_coverage.get(*token as usize).copied().unwrap_or(0.0)
            }
            (
                ScorerKind::Tabular {
                    sorted_values, n, ..
                },
                LabelFunction::Stump {
                    feature,
                    threshold,
                    op,
                    ..
                },
            ) => {
                let vals = &sorted_values[*feature];
                let covered = match op {
                    StumpOp::Le => vals.partition_point(|&v| v <= *threshold),
                    StumpOp::Ge => *n - vals.partition_point(|&v| v < *threshold),
                };
                covered as f64 / (*n).max(1) as f64
            }
            _ => 0.0,
        }
    }

    /// The SEU score of instance `idx`: expectation of LF utility under the
    /// coverage-proportional user model, skipping already-returned LFs.
    pub fn score_instance(
        &self,
        train: &Dataset,
        idx: usize,
        seen: Option<&HashSet<LfKey>>,
    ) -> f64 {
        let lfs = self.instance_lfs(train, idx);
        if lfs.is_empty() {
            return 0.0;
        }
        let mut total_cov = 0.0;
        let mut score = 0.0;
        for lf in &lfs {
            let cov = self.lf_coverage(lf);
            total_cov += cov;
            if seen.is_some_and(|s| Self::seen_any_label(s, lf, train.n_classes)) {
                continue;
            }
            score += cov * self.lf_utility(lf);
        }
        if total_cov > 0.0 {
            score / total_cov
        } else {
            0.0
        }
    }

    /// Utility LFs carry a placeholder label, while user-returned LFs carry
    /// real votes — match them regardless of label.
    fn seen_any_label(seen: &HashSet<LfKey>, lf: &LabelFunction, n_classes: usize) -> bool {
        (0..n_classes).any(|label| {
            let key = match lf {
                LabelFunction::Keyword { token, .. } => LfKey::Keyword(*token, label),
                LabelFunction::Stump {
                    feature,
                    threshold,
                    op,
                    ..
                } => LfKey::Stump(*feature, threshold.to_bits(), *op, label),
            };
            seen.contains(&key)
        })
    }

    /// The LFs a user could plausibly build from instance `idx` (one per
    /// distinct token / per feature-direction; labels don't affect utility).
    fn instance_lfs(&self, train: &Dataset, idx: usize) -> Vec<LabelFunction> {
        match &self.kind {
            ScorerKind::Text { .. } => {
                let docs = train
                    .encoded_docs
                    .as_ref()
                    .expect("text scorer on text data");
                let mut seen = Vec::new();
                let mut out = Vec::new();
                for &t in &docs[idx] {
                    if !seen.contains(&t) {
                        seen.push(t);
                        out.push(LabelFunction::Keyword { token: t, label: 0 });
                    }
                }
                out
            }
            ScorerKind::Tabular { .. } => {
                let x = train.features.as_dense();
                let mut out = Vec::new();
                for feature in 0..x.ncols() {
                    for op in StumpOp::both() {
                        out.push(LabelFunction::Stump {
                            feature,
                            threshold: x[(idx, feature)],
                            op,
                            label: 0,
                        });
                    }
                }
                out
            }
        }
    }
}

impl Sampler for Seu {
    fn select(&mut self, ctx: &SamplerContext<'_>) -> Option<usize> {
        let pool: Vec<usize> = ctx.candidate_pool();
        if pool.is_empty() {
            return None;
        }
        let scorer = SeuScorer::build(ctx.train, ctx.lm_probs);
        let candidates: Vec<usize> = if pool.len() <= self.max_scored {
            pool
        } else {
            let mut copy = pool;
            let mut picked = Vec::with_capacity(self.max_scored);
            for k in 0..self.max_scored {
                let j = k + self.rng.gen_range(0..copy.len() - k);
                copy.swap(k, j);
                picked.push(copy[k]);
            }
            picked
        };
        candidates
            .into_iter()
            .map(|i| (i, scorer.score_instance(ctx.train, i, ctx.seen_lfs)))
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("finite scores")
                    .then(b.0.cmp(&a.0))
            })
            .map(|(i, _)| i)
    }

    fn name(&self) -> &'static str {
        "SEU"
    }
    fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    fn restore_rng_state(&mut self, state: [u64; 4]) {
        self.rng = rand::rngs::StdRng::from_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_data::{FeatureSet, Task};
    use adp_linalg::{CsrMatrix, Matrix};

    fn text_pool() -> Dataset {
        // token 0 in docs {0,1,2}; token 1 in {3}; token 2 in {0}.
        Dataset {
            name: "t".into(),
            task: Task::SpamClassification,
            n_classes: 2,
            features: FeatureSet::Sparse(CsrMatrix::empty(4, 3)),
            labels: vec![1, 1, 0, 0],
            texts: None,
            encoded_docs: Some(vec![vec![0, 2], vec![0], vec![0], vec![1]]),
        }
    }

    #[test]
    fn text_utilities_weight_uncertain_docs() {
        let d = text_pool();
        // Docs 0,1 uncertain (conf .5), docs 2,3 certain (conf 1.0).
        let lm = Matrix::from_rows(&[
            vec![0.5, 0.5],
            vec![0.5, 0.5],
            vec![1.0, 0.0],
            vec![1.0, 0.0],
        ])
        .unwrap();
        let scorer = SeuScorer::build(&d, Some(&lm));
        let u = |t| scorer.lf_utility(&LabelFunction::Keyword { token: t, label: 0 });
        assert!((u(0) - 1.0).abs() < 1e-12); // 0.5 + 0.5 + 0.0
        assert!((u(1) - 0.0).abs() < 1e-12);
        assert!((u(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_model_means_uniform_uncertainty() {
        let d = text_pool();
        let scorer = SeuScorer::build(&d, None);
        let u0 = scorer.lf_utility(&LabelFunction::Keyword { token: 0, label: 0 });
        assert!((u0 - 1.5).abs() < 1e-12); // 3 docs × 0.5
    }

    #[test]
    fn seen_lfs_contribute_nothing() {
        let d = text_pool();
        let scorer = SeuScorer::build(&d, None);
        let mut seen = HashSet::new();
        let s_before = scorer.score_instance(&d, 1, Some(&seen));
        assert!(s_before > 0.0);
        // Doc 1 contains only token 0; once seen, the score collapses.
        seen.insert(LabelFunction::Keyword { token: 0, label: 0 }.key());
        let s_after = scorer.score_instance(&d, 1, Some(&seen));
        assert_eq!(s_after, 0.0);
    }

    #[test]
    fn seen_matching_ignores_lf_label() {
        // A user-returned LF votes class 1; SEU's utility LF for the same
        // token uses a placeholder label but must still count as seen.
        let d = text_pool();
        let scorer = SeuScorer::build(&d, None);
        let mut seen = HashSet::new();
        seen.insert(LabelFunction::Keyword { token: 0, label: 1 }.key());
        assert_eq!(scorer.score_instance(&d, 1, Some(&seen)), 0.0);
    }

    #[test]
    fn tabular_prefix_sums_match_naive() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let d = Dataset {
            name: "tab".into(),
            task: Task::OccupancyPrediction,
            n_classes: 2,
            features: FeatureSet::Dense(x),
            labels: vec![0, 0, 1, 1],
            texts: None,
            encoded_docs: None,
        };
        let lm = Matrix::from_rows(&[
            vec![0.9, 0.1],
            vec![0.6, 0.4],
            vec![0.7, 0.3],
            vec![0.5, 0.5],
        ])
        .unwrap();
        // uncertainty = [0.1, 0.4, 0.3, 0.5]
        let scorer = SeuScorer::build(&d, Some(&lm));
        let le = |thr| {
            scorer.lf_utility(&LabelFunction::Stump {
                feature: 0,
                threshold: thr,
                op: StumpOp::Le,
                label: 0,
            })
        };
        let ge = |thr| {
            scorer.lf_utility(&LabelFunction::Stump {
                feature: 0,
                threshold: thr,
                op: StumpOp::Ge,
                label: 0,
            })
        };
        assert!((le(1.0) - 0.5).abs() < 1e-12); // rows 0,1
        assert!((le(3.0) - 1.3).abs() < 1e-12); // all
        assert!((ge(2.0) - 0.8).abs() < 1e-12); // rows 2,3
        assert!((ge(9.0) - 0.0).abs() < 1e-12);
        // Coverage agrees with a direct count.
        let cov = scorer.lf_coverage(&LabelFunction::Stump {
            feature: 0,
            threshold: 1.0,
            op: StumpOp::Le,
            label: 0,
        });
        assert!((cov - 0.5).abs() < 1e-12);
    }

    #[test]
    fn selects_instance_with_most_useful_unseen_lfs() {
        let d = text_pool();
        let queried = vec![false; 4];
        let ctx = SamplerContext {
            train: &d,
            queried: &queried,
            al_probs: None,
            lm_probs: None,
            n_labeled: 0,
            space: None,
            seen_lfs: None,
            visible: None,
        };
        // Token 0 has coverage 3/4 and utility 1.5; doc 1/2 (only token 0)
        // score 1.5; doc 0 mixes token 2 (utility .5) in, lowering the
        // expectation; doc 3 scores 0.5.
        let pick = Seu::new(0).select(&ctx).unwrap();
        assert!(pick == 1 || pick == 2, "picked {pick}");
    }

    #[test]
    fn exhausted_pool_returns_none() {
        let d = text_pool();
        let queried = vec![true; 4];
        let ctx = SamplerContext {
            train: &d,
            queried: &queried,
            al_probs: None,
            lm_probs: None,
            n_labeled: 0,
            space: None,
            seen_lfs: None,
            visible: None,
        };
        assert_eq!(Seu::new(0).select(&ctx), None);
    }
}
