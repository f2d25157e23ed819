//! Learning Active Learning (Konyushkova, Sznitman & Fua, NeurIPS 2017).
//!
//! LAL replaces hand-designed selection heuristics with a regressor trained
//! to predict, from (classifier-state, candidate) features, how much the
//! test error would drop if the candidate were labelled. The original uses
//! random-forest regression over episodes on synthetic data; this
//! reproduction keeps the defining structure — Monte-Carlo AL episodes on
//! synthetic Gaussian tasks, then regression from state features to
//! measured error reduction — with ridge regression as the learner (the
//! only regressor in our dependency budget; see DESIGN.md §1).

use crate::{Sampler, SamplerContext};
use adp_classifier::{LogRegConfig, LogisticRegression, Targets};
use adp_linalg::{ridge_regression, Matrix};
use rand::{Rng, SeedableRng};

const N_FEATURES: usize = 5;

/// LAL sampler: ridge regressor over state features trained on synthetic
/// AL episodes at construction time.
#[derive(Debug)]
pub struct Lal {
    weights: Vec<f64>,
    rng: rand::rngs::StdRng,
    /// Candidates scored per selection (subsampled for cost).
    pub max_candidates: usize,
}

impl Lal {
    /// Trains the error-reduction regressor on `n_episodes` synthetic
    /// episodes (the paper's LALindependent strategy) and returns the
    /// ready-to-use sampler.
    pub fn new(seed: u64, n_episodes: usize) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xA1A1_A1A1);
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for _ in 0..n_episodes {
            run_episode(&mut rng, &mut xs, &mut ys);
        }
        let weights = if xs.is_empty() {
            vec![0.0; N_FEATURES]
        } else {
            let x = Matrix::from_rows(&xs).expect("episodes produce features");
            ridge_regression(&x, &ys, 1e-3).unwrap_or_else(|_| vec![0.0; N_FEATURES])
        };
        Lal {
            weights,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            max_candidates: 256,
        }
    }

    /// Default construction used in the experiments (30 episodes).
    pub fn with_defaults(seed: u64) -> Self {
        Lal::new(seed, 30)
    }

    /// The learned regression weights (tests/diagnostics).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    fn score(&self, feats: &[f64]) -> f64 {
        adp_linalg::dot(&self.weights, feats)
    }
}

/// State features for a candidate: bias, predictive entropy, labelled-set
/// saturation, pool mean entropy, and the entropy × saturation interaction
/// (so the learned policy can re-weight uncertainty as labelling
/// progresses). Top-1 probability and margin are deterministic functions of
/// entropy on binary tasks and are deliberately excluded — collinear copies
/// only let ridge split the weight arbitrarily.
fn features(p: &[f64], n_labeled: usize, pool_mean_entropy: f64) -> Vec<f64> {
    let h = adp_linalg::entropy(p);
    let sat = n_labeled as f64 / (n_labeled as f64 + 10.0);
    vec![1.0, h, sat, pool_mean_entropy, h * sat]
}

/// One Monte-Carlo episode on a 2-D Gaussian task: grow a labelled set with
/// random selection, and at every step record (candidate features, measured
/// error reduction from labelling that candidate).
fn run_episode(rng: &mut rand::rngs::StdRng, xs: &mut Vec<Vec<f64>>, ys: &mut Vec<f64>) {
    let n_pool = 100;
    let n_test = 300;
    let sep = 0.8 + rng.gen::<f64>() * 1.4;
    let normal = |rng: &mut rand::rngs::StdRng| {
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    let gen_set = |rng: &mut rand::rngs::StdRng, n: usize| {
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let label = usize::from(rng.gen::<f64>() < 0.5);
            let sign = if label == 1 { 0.5 } else { -0.5 };
            x[(i, 0)] = sign * sep + normal(rng);
            x[(i, 1)] = sign * sep + normal(rng);
            y.push(label);
        }
        (x, y)
    };
    let (pool_x, pool_y) = gen_set(rng, n_pool);
    let (test_x, test_y) = gen_set(rng, n_test);

    // 0/1 test error, as in the original LAL: log-loss would reward points
    // that merely sharpen confidence, inverting the uncertainty signal.
    let test_error = |model: &LogisticRegression| {
        let wrong = (0..n_test)
            .filter(|&i| model.predict(&test_x, i) != test_y[i])
            .count();
        wrong as f64 / n_test as f64
    };

    // Seed with one example of each class.
    let mut labeled: Vec<usize> = vec![];
    for class in 0..2 {
        if let Some(i) = (0..n_pool).find(|&i| pool_y[i] == class) {
            labeled.push(i);
        }
    }
    if labeled.len() < 2 {
        return;
    }
    let cfg = LogRegConfig {
        max_iters: 80,
        ..LogRegConfig::default()
    };
    let mut model = LogisticRegression::new(2, 2, cfg);

    for _step in 0..12 {
        let lab_targets: Vec<usize> = labeled.iter().map(|&i| pool_y[i]).collect();
        if model
            .fit(&pool_x, &labeled, Targets::Hard(&lab_targets), None)
            .is_err()
        {
            return;
        }
        let err_before = test_error(&model);
        let pool_probs = model.predict_proba_all(&pool_x);
        let mean_h = adp_linalg::mean(
            &pool_probs
                .row_iter()
                .map(adp_linalg::entropy)
                .collect::<Vec<_>>(),
        );

        // Probe several random unlabelled candidates. Raw reductions mix a
        // large step-level component (how far training has progressed) with
        // the candidate-level signal we want to learn, so the probes of a
        // step are centred before being recorded: only within-step
        // differences reach the regressor, and at selection time constant
        // offsets cannot change the ranking of a linear score.
        let cands: Vec<usize> = (0..n_pool).filter(|i| !labeled.contains(i)).collect();
        if cands.is_empty() {
            return;
        }
        // Probe set spans the confidence spectrum — most uncertain, most
        // certain, plus random fill — so each step's centred probes carry
        // feature variance the regressor can attach the target to.
        let mut probe_set: Vec<usize> = Vec::with_capacity(4);
        let by_entropy = |&i: &usize| {
            let h = adp_linalg::entropy(&pool_probs[i]);
            (h * 1e12) as i64
        };
        if let Some(&most) = cands.iter().max_by_key(|i| by_entropy(i)) {
            probe_set.push(most);
        }
        if let Some(&least) = cands.iter().min_by_key(|i| by_entropy(i)) {
            if !probe_set.contains(&least) {
                probe_set.push(least);
            }
        }
        while probe_set.len() < 4.min(cands.len()) {
            let cand = cands[rng.gen_range(0..cands.len())];
            if !probe_set.contains(&cand) {
                probe_set.push(cand);
            }
        }

        // Shared random continuation: the probes of a step are compared on
        // the error after labelling (probe + continuation), a short-horizon
        // value estimate that is paired across probes to control noise.
        let continuation: Vec<usize> = {
            let mut cont = Vec::with_capacity(3);
            while cont.len() < 6.min(cands.len().saturating_sub(1)) {
                let c = cands[rng.gen_range(0..cands.len())];
                if !cont.contains(&c) {
                    cont.push(c);
                }
            }
            cont
        };
        let mut step_feats: Vec<Vec<f64>> = Vec::with_capacity(4);
        let mut step_targets: Vec<f64> = Vec::with_capacity(4);
        let mut advanced = None;
        for &cand in &probe_set {
            let mut with = labeled.clone();
            with.push(cand);
            for &c in &continuation {
                if c != cand {
                    with.push(c);
                }
            }
            let with_targets: Vec<usize> = with.iter().map(|&i| pool_y[i]).collect();
            let mut probe = LogisticRegression::new(2, 2, cfg);
            if probe
                .fit(&pool_x, &with, Targets::Hard(&with_targets), None)
                .is_err()
            {
                return;
            }
            let err_after = test_error(&probe);
            step_feats.push(features(&pool_probs[cand], labeled.len(), mean_h));
            step_targets.push(err_before - err_after);
            advanced = Some(cand);
        }
        let t_mean = adp_linalg::mean(&step_targets);
        let mut f_mean = vec![0.0; N_FEATURES];
        for f in &step_feats {
            adp_linalg::axpy(1.0 / step_feats.len() as f64, f, &mut f_mean);
        }
        for (f, t) in step_feats.iter().zip(&step_targets) {
            let centred: Vec<f64> = f.iter().zip(&f_mean).map(|(a, b)| a - b).collect();
            xs.push(centred);
            ys.push(t - t_mean);
        }
        match advanced {
            Some(cand) => labeled.push(cand),
            None => return,
        }
    }
}

impl Sampler for Lal {
    fn select(&mut self, ctx: &SamplerContext<'_>) -> Option<usize> {
        let pool: Vec<usize> = ctx.candidate_pool();
        if pool.is_empty() {
            return None;
        }
        // Without a trained model LAL has no state features; act passively.
        if ctx.al_probs.is_none() && ctx.lm_probs.is_none() {
            return Some(pool[self.rng.gen_range(0..pool.len())]);
        }
        let candidates: Vec<usize> = if pool.len() <= self.max_candidates {
            pool
        } else {
            let mut picked = Vec::with_capacity(self.max_candidates);
            // Sample without replacement via partial Fisher-Yates on a copy.
            let mut copy = pool;
            for k in 0..self.max_candidates {
                let j = k + self.rng.gen_range(0..copy.len() - k);
                copy.swap(k, j);
                picked.push(copy[k]);
            }
            picked
        };
        let mean_h = {
            let hs: Vec<f64> = candidates
                .iter()
                .map(|&i| adp_linalg::entropy(&ctx.primary_probs(i)))
                .collect();
            adp_linalg::mean(&hs)
        };
        candidates
            .into_iter()
            .map(|i| {
                let f = features(&ctx.primary_probs(i), ctx.n_labeled, mean_h);
                (i, self.score(&f))
            })
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("finite scores")
                    .then(b.0.cmp(&a.0))
            })
            .map(|(i, _)| i)
    }

    fn name(&self) -> &'static str {
        "LAL"
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
    use crate::testutil::{pool, probs};

    #[test]
    fn training_produces_finite_weights() {
        let lal = Lal::new(1, 5);
        assert_eq!(lal.weights().len(), N_FEATURES);
        assert!(lal.weights().iter().all(|w| w.is_finite()));
        assert!(lal.weights().iter().any(|&w| w != 0.0));
    }

    #[test]
    fn selects_unqueried_instance() {
        let d = pool(6);
        let queried = vec![true, false, false, true, false, true];
        let al = probs(&[0.9, 0.6, 0.5, 0.5, 0.99, 0.5]);
        let ctx = SamplerContext {
            train: &d,
            queried: &queried,
            al_probs: Some(&al),
            lm_probs: None,
            n_labeled: 2,
            space: None,
            seen_lfs: None,
            visible: None,
        };
        let mut lal = Lal::new(2, 5);
        let i = lal.select(&ctx).unwrap();
        assert!(!queried[i]);
    }

    #[test]
    fn uncertain_candidates_score_higher() {
        // The learned regressor should, on average, give an uncertain point
        // (p=0.5) a higher predicted error-reduction than a sure one (p=0.99).
        let lal = Lal::new(3, 30);
        let f_unc = features(&[0.5, 0.5], 5, 0.3);
        let f_sure = features(&[0.01, 0.99], 5, 0.3);
        assert!(
            lal.score(&f_unc) > lal.score(&f_sure),
            "uncertain {:.4} vs sure {:.4}",
            lal.score(&f_unc),
            lal.score(&f_sure)
        );
    }

    #[test]
    fn cold_start_acts_passively_and_deterministically() {
        let d = pool(10);
        let queried = vec![false; 10];
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
        let a = Lal::new(4, 3).select(&ctx);
        let b = Lal::new(4, 3).select(&ctx);
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    #[test]
    fn exhausted_pool_returns_none() {
        let d = pool(2);
        let queried = vec![true, true];
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
        assert_eq!(Lal::new(0, 2).select(&ctx), None);
    }
}

#[cfg(test)]
mod episode_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn episodes_show_positive_entropy_value() {
        // The within-step regression signal that LAL learns from: across
        // many episodes, higher-entropy probes must carry higher measured
        // error reduction (slope > 0), otherwise the sampler degenerates
        // into certainty-seeking.
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let mut xs: Vec<Vec<f64>> = vec![];
        let mut ys: Vec<f64> = vec![];
        for _ in 0..40 {
            run_episode(&mut rng, &mut xs, &mut ys);
        }
        assert!(ys.len() > 500, "episodes produced {} samples", ys.len());
        let ent: Vec<f64> = xs.iter().map(|f| f[1]).collect();
        let num: f64 = ent.iter().zip(&ys).map(|(a, b)| a * b).sum();
        let den: f64 = ent.iter().map(|a| a * a).sum();
        assert!(num / den > 0.0, "slope {:.6}", num / den);
    }
}
