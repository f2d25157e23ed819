//! Query-by-committee (Seung, Opper & Sompolinsky, COLT 1992).
//!
//! Not part of the paper's Table 4 but cited in its related work (§2.2);
//! provided as an extension so the sampler study can be widened. A
//! committee of logistic-regression models is trained on bootstrap
//! resamples of the labelled pool; the next query is the instance with the
//! highest *vote entropy* — the classic disagreement measure. Ties (and
//! the cold start, where no labelled pool exists) break uniformly.

use crate::{Sampler, SamplerContext};
use adp_classifier::{LogRegConfig, LogisticRegression, Targets};
use adp_linalg::Features;
use rand::{Rng, SeedableRng};

/// Query-by-committee sampler over bootstrap logistic regressions.
///
/// Unlike the purely context-driven samplers, QBC needs the labelled pool
/// itself: callers supply it through [`Committee::set_labeled`] whenever
/// the pool changes (the ActiveDP session does this with its
/// pseudo-labelled set).
#[derive(Debug)]
pub struct Committee {
    rng: rand::rngs::StdRng,
    /// Committee size (paper-typical: 5).
    pub n_members: usize,
    /// Candidates scored per selection (subsampled for cost).
    pub max_candidates: usize,
    /// Fan the per-candidate vote-entropy scoring out over scoped threads
    /// when the candidate set is large enough. Member *training* stays
    /// serial (it consumes the bootstrap RNG stream); only the pure
    /// per-candidate prediction/entropy pass parallelises, so selections
    /// are bitwise identical either way.
    pub parallel: bool,
    labeled: Vec<usize>,
    labels: Vec<usize>,
}

impl Committee {
    /// A committee sampler with `n_members` bootstrap members.
    pub fn new(seed: u64, n_members: usize) -> Self {
        Committee {
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            n_members: n_members.max(2),
            max_candidates: 256,
            parallel: true,
            labeled: vec![],
            labels: vec![],
        }
    }

    /// Updates the labelled pool the committee trains on.
    pub fn set_labeled(&mut self, labeled: &[usize], labels: &[usize]) {
        debug_assert_eq!(labeled.len(), labels.len());
        self.labeled = labeled.to_vec();
        self.labels = labels.to_vec();
    }

    /// Trains the committee on bootstrap resamples of the labelled pool.
    /// Consumes the bootstrap RNG stream member by member — strictly
    /// serial, so the stream position after training is independent of how
    /// the later scoring pass is scheduled.
    fn members<F: Features + ?Sized>(
        &mut self,
        x: &F,
        n_classes: usize,
    ) -> Option<Vec<LogisticRegression>> {
        let n = self.labeled.len();
        if n < 2 {
            return None;
        }
        let cfg = LogRegConfig {
            max_iters: 80,
            ..LogRegConfig::default()
        };
        let mut members = Vec::with_capacity(self.n_members);
        for _ in 0..self.n_members {
            // Bootstrap resample of the labelled pool.
            let mut rows = Vec::with_capacity(n);
            let mut ys = Vec::with_capacity(n);
            for _ in 0..n {
                let k = self.rng.gen_range(0..n);
                rows.push(self.labeled[k]);
                ys.push(self.labels[k]);
            }
            let mut model = LogisticRegression::new(n_classes, x.ncols(), cfg);
            if model.fit(x, &rows, Targets::Hard(&ys), None).is_err() {
                return None;
            }
            members.push(model);
        }
        Some(members)
    }
}

/// Vote entropy of one candidate's committee votes.
fn vote_entropy(votes: &[usize], n_classes: usize) -> f64 {
    let mut counts = vec![0.0f64; n_classes];
    for &v in votes {
        counts[v] += 1.0;
    }
    let total: f64 = counts.iter().sum();
    for c in &mut counts {
        *c /= total;
    }
    adp_linalg::entropy(&counts)
}

impl Sampler for Committee {
    fn select(&mut self, ctx: &SamplerContext<'_>) -> Option<usize> {
        let pool: Vec<usize> = ctx.candidate_pool();
        if pool.is_empty() {
            return None;
        }
        let candidates: Vec<usize> = if pool.len() <= self.max_candidates {
            pool.clone()
        } else {
            let mut copy = pool.clone();
            let mut picked = Vec::with_capacity(self.max_candidates);
            for k in 0..self.max_candidates {
                let j = k + self.rng.gen_range(0..copy.len() - k);
                copy.swap(k, j);
                picked.push(copy[k]);
            }
            picked
        };
        let n_classes = ctx.train.n_classes;
        let Some(members) = self.members(&ctx.train.features, n_classes) else {
            // Cold start: uniform random.
            return Some(pool[self.rng.gen_range(0..pool.len())]);
        };
        // Per-candidate disagreement: pure prediction + entropy work, fanned
        // out under the fixed-chunk contract.
        let features = &ctx.train.features;
        let scores = crate::score_items(&candidates, self.parallel, |&i| {
            let member_votes: Vec<usize> = members.iter().map(|m| m.predict(features, i)).collect();
            vote_entropy(&member_votes, n_classes)
        });
        crate::reservoir_argmax(candidates.iter().copied().zip(scores), 1e-12, &mut self.rng)
    }

    fn name(&self) -> &'static str {
        "QBC"
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
    use crate::testutil::pool;

    fn ctx<'a>(d: &'a adp_data::Dataset, queried: &'a [bool]) -> SamplerContext<'a> {
        SamplerContext {
            train: d,
            queried,
            al_probs: None,
            lm_probs: None,
            n_labeled: 0,
            space: None,
            seen_lfs: None,
            visible: None,
        }
    }

    #[test]
    fn vote_entropy_values() {
        assert_eq!(vote_entropy(&[1, 1, 1], 2), 0.0);
        let h = vote_entropy(&[0, 1, 0, 1], 2);
        assert!((h - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn cold_start_is_random_but_valid() {
        let d = pool(10);
        let queried = vec![false; 10];
        let mut qbc = Committee::new(3, 5);
        let pick = qbc.select(&ctx(&d, &queried)).unwrap();
        assert!(!queried[pick]);
    }

    #[test]
    fn disagreement_targets_the_boundary() {
        // Pool = line of points, classes split at the middle; with labels at
        // the extremes the committee disagrees most near the centre. The
        // feature is scaled to [-1, 1]: on the raw 0..39 scale the
        // Lipschitz-derived step size leaves the 80-iteration members
        // under-trained and their disagreement systematically skews to low
        // indices — a conditioning artefact, not the property under test.
        let n = 40;
        let x = adp_linalg::Matrix::from_fn(n, 1, |i, _| i as f64 / (n - 1) as f64 * 2.0 - 1.0);
        let d = adp_data::Dataset {
            name: "line".into(),
            task: adp_data::Task::OccupancyPrediction,
            n_classes: 2,
            features: adp_data::FeatureSet::Dense(x),
            labels: (0..n).map(|i| usize::from(i >= n / 2)).collect(),
            texts: None,
            encoded_docs: None,
        };
        let queried = vec![false; 40];
        let mut qbc = Committee::new(4, 7);
        qbc.set_labeled(&[0, 1, 38, 39], &[0, 0, 1, 1]);
        let pick = qbc.select(&ctx(&d, &queried)).unwrap();
        assert!(
            (8..32).contains(&pick),
            "expected a near-boundary pick, got {pick}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let d = pool(20);
        let queried = vec![false; 20];
        let run = |seed| {
            let mut qbc = Committee::new(seed, 5);
            qbc.set_labeled(&[0, 19], &[0, 1]);
            qbc.select(&ctx(&d, &queried))
        };
        assert_eq!(run(6), run(6));
    }

    #[test]
    fn exhausted_pool_returns_none() {
        let d = pool(3);
        let queried = vec![true; 3];
        let mut qbc = Committee::new(0, 3);
        assert_eq!(qbc.select(&ctx(&d, &queried)), None);
    }

    #[test]
    fn committee_size_floor() {
        let qbc = Committee::new(0, 0);
        assert_eq!(qbc.n_members, 2);
        assert_eq!(qbc.name(), "QBC");
    }
}
