//! The ADP sampler (paper §3.3, Eq. 2).
//!
//! ```text
//!   x* = argmax_x  Ent(f_a(x))^α · Ent(f_l(x, Λ*))^(1−α)
//! ```
//!
//! α trades off the two models: 0.5 for textual datasets, 0.99 for tabular
//! ones in the paper's experiments (tabular tasks are easy for the AL model,
//! so its uncertainty dominates). Before a model exists its entropy is taken
//! as maximal (uniform), so iteration 1 degenerates to a uniform-random
//! draw.

use adp_linalg::Matrix;
use adp_sampler::{PoolScores, Sampler, SamplerContext};
use rand::SeedableRng;

/// Entropy-product sampler combining the AL model and the label model.
///
/// The entropy product depends only on the two cached posteriors, which
/// move only at a refit, so the scores live in an
/// [`adp_sampler::PoolScores`] cache: the pool is scored once per pair of
/// caches (chunked under the fixed-chunk contract) and every selection
/// against the same caches reuses those scores. The RNG-consuming
/// reservoir tie-break stays a serial pass over the scores in ascending
/// row order, so selections and the tie-break stream are bitwise identical
/// at every thread count, cached or not.
#[derive(Debug)]
pub struct AdpSampler {
    alpha: f64,
    rng: rand::rngs::StdRng,
    /// Fan the per-instance scoring out over scoped threads when the pool
    /// is large enough (scheduling only; selections are identical).
    pub parallel: bool,
    scores: PoolScores,
}

impl AdpSampler {
    /// An ADP sampler with trade-off factor `alpha ∈ [0, 1]`.
    ///
    /// # Panics
    /// Panics when `alpha` is outside `[0, 1]` — it is a fixed experiment
    /// constant in the paper, so a bad value is a programming error.
    pub fn new(alpha: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "alpha must be in [0,1], got {alpha}"
        );
        AdpSampler {
            alpha,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            parallel: true,
            scores: PoolScores::new(),
        }
    }

    /// The trade-off factor in use.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Sampler for AdpSampler {
    fn select(&mut self, ctx: &SamplerContext<'_>) -> Option<usize> {
        let max_h = (ctx.train.n_classes as f64).ln();
        let alpha = self.alpha;
        let entropy = |probs: Option<&Matrix>, i: usize| match probs {
            Some(p) => adp_linalg::entropy(p.row(i)),
            None => max_h,
        };
        self.scores
            .select(ctx, self.parallel, 1e-15, &mut self.rng, |i| {
                entropy(ctx.al_probs, i).powf(alpha) * entropy(ctx.lm_probs, i).powf(1.0 - alpha)
            })
    }

    fn name(&self) -> &'static str {
        "ADP"
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
    use adp_data::{Dataset, FeatureSet, Task};
    use adp_linalg::Matrix;

    fn pool(n: usize) -> Dataset {
        Dataset {
            name: "p".into(),
            task: Task::OccupancyPrediction,
            n_classes: 2,
            features: FeatureSet::Dense(Matrix::zeros(n, 1)),
            labels: vec![0; n],
            texts: None,
            encoded_docs: None,
        }
    }

    fn probs(ps: &[f64]) -> Matrix {
        Matrix::from_fn(ps.len(), 2, |i, c| if c == 1 { ps[i] } else { 1.0 - ps[i] })
    }

    fn ctx<'a>(
        d: &'a Dataset,
        queried: &'a [bool],
        al: Option<&'a Matrix>,
        lm: Option<&'a Matrix>,
    ) -> SamplerContext<'a> {
        SamplerContext {
            train: d,
            queried,
            al_probs: al,
            lm_probs: lm,
            n_labeled: 0,
            space: None,
            seen_lfs: None,
            visible: None,
        }
    }

    #[test]
    fn alpha_one_follows_al_model_only() {
        let d = pool(3);
        let queried = vec![false; 3];
        let al = probs(&[0.9, 0.5, 0.7]); // entropy max at index 1
        let lm = probs(&[0.5, 0.99, 0.5]); // would pull away from 1
        let mut s = AdpSampler::new(1.0, 0);
        assert_eq!(s.select(&ctx(&d, &queried, Some(&al), Some(&lm))), Some(1));
    }

    #[test]
    fn alpha_zero_follows_label_model_only() {
        let d = pool(3);
        let queried = vec![false; 3];
        let al = probs(&[0.5, 0.9, 0.9]);
        let lm = probs(&[0.9, 0.52, 0.9]);
        let mut s = AdpSampler::new(0.0, 0);
        assert_eq!(s.select(&ctx(&d, &queried, Some(&al), Some(&lm))), Some(1));
    }

    #[test]
    fn balanced_alpha_mixes_models() {
        let d = pool(3);
        let queried = vec![false; 3];
        // Index 0: AL uncertain, LM certain. Index 1: both moderately
        // uncertain. Index 2: both certain. Geometric mean favours index 1.
        let al = probs(&[0.5, 0.65, 0.95]);
        let lm = probs(&[0.99, 0.65, 0.95]);
        let mut s = AdpSampler::new(0.5, 0);
        assert_eq!(s.select(&ctx(&d, &queried, Some(&al), Some(&lm))), Some(1));
    }

    #[test]
    fn missing_models_give_uniform_random_first_pick() {
        let d = pool(30);
        let queried = vec![false; 30];
        let a = AdpSampler::new(0.5, 7).select(&ctx(&d, &queried, None, None));
        let b = AdpSampler::new(0.5, 7).select(&ctx(&d, &queried, None, None));
        assert_eq!(a, b);
        let picks: std::collections::HashSet<_> = (0..4)
            .filter_map(|s| AdpSampler::new(0.5, s).select(&ctx(&d, &queried, None, None)))
            .collect();
        assert!(picks.len() > 1, "first pick never varies");
    }

    #[test]
    fn respects_queried_mask_and_exhaustion() {
        let d = pool(2);
        let queried = vec![true, false];
        let al = probs(&[0.5, 0.9]);
        let mut s = AdpSampler::new(0.5, 0);
        assert_eq!(s.select(&ctx(&d, &queried, Some(&al), None)), Some(1));
        let all = vec![true, true];
        assert_eq!(s.select(&ctx(&d, &all, Some(&al), None)), None);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0,1]")]
    fn rejects_bad_alpha() {
        AdpSampler::new(1.5, 0);
    }

    #[test]
    fn name_and_alpha_accessors() {
        let s = AdpSampler::new(0.99, 0);
        assert_eq!(s.name(), "ADP");
        assert_eq!(s.alpha(), 0.99);
    }

    /// The per-selection ADP scorer the cache replaced, kept as the
    /// reference: collect the candidate pool, score it, reservoir pass.
    fn select_per_selection(
        alpha: f64,
        rng: &mut rand::rngs::StdRng,
        ctx: &SamplerContext<'_>,
    ) -> Option<usize> {
        use rand::Rng;
        let max_h = (ctx.train.n_classes as f64).ln();
        let pool = ctx.candidate_pool();
        let entropy = |probs: Option<&Matrix>, i: usize| match probs {
            Some(p) => adp_linalg::entropy(p.row(i)),
            None => max_h,
        };
        let mut best: Option<(usize, f64)> = None;
        let mut ties = 0usize;
        for &i in &pool {
            let score =
                entropy(ctx.al_probs, i).powf(alpha) * entropy(ctx.lm_probs, i).powf(1.0 - alpha);
            match best {
                None => {
                    best = Some((i, score));
                    ties = 1;
                }
                Some((_, b)) if score > b + 1e-15 => {
                    best = Some((i, score));
                    ties = 1;
                }
                Some((_, b)) if (score - b).abs() <= 1e-15 => {
                    ties += 1;
                    if rng.gen_range(0..ties) == 0 {
                        best = Some((i, score));
                    }
                }
                _ => {}
            }
        }
        best.map(|(i, _)| i)
    }

    #[test]
    fn cached_scores_match_per_selection_scoring() {
        let n = 48;
        let d = pool(n);
        let tied = |salt: usize| {
            let ps: Vec<f64> = (0..n).map(|i| [0.5, 0.8, 0.6][(i + salt) % 3]).collect();
            probs(&ps)
        };
        let mut queried = vec![false; n];
        let mut al: Option<Matrix> = None;
        let mut lm: Option<Matrix> = None;
        let mut visible = None;
        let mut cached = AdpSampler::new(0.5, 21);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        // (edit, whether the pool must be rescored)
        let script: [(&str, bool); 7] = [
            ("cold start", true),
            ("caches appear", true),
            ("AL re-allocated with equal bits", false),
            ("LM changed in place", true),
            ("arrival cap", false),
            ("LM disappears", true),
            ("nothing changed", false),
        ];
        let mut rescores = 0;
        for (what, rescore) in script {
            match what {
                "caches appear" => (al, lm) = (Some(tied(0)), Some(tied(1))),
                "AL re-allocated with equal bits" => {
                    let old = al.as_ref().unwrap();
                    al = Some(Matrix::from_vec(n, 2, old.as_slice().to_vec()).unwrap());
                }
                "LM changed in place" => lm.as_mut().unwrap().as_mut_slice()[3] += 1e-3,
                "arrival cap" => visible = Some(n - 6),
                "LM disappears" => lm = None,
                _ => {}
            }
            rescores += usize::from(rescore);
            for _ in 0..4 {
                let c = SamplerContext {
                    visible,
                    ..ctx(&d, &queried, al.as_ref(), lm.as_ref())
                };
                let pick = cached.select(&c);
                assert_eq!(pick, select_per_selection(0.5, &mut rng, &c), "{what}");
                assert_eq!(cached.rng_state(), rng.state(), "{what}");
                assert_eq!(cached.scores.rescores(), rescores, "{what}");
                queried[pick.unwrap()] = true;
            }
        }
    }
}
