//! Uncertainty sampling (Lewis 1995) — the pure active-learning baseline.
//!
//! Each iteration labels the instance with the highest predictive entropy
//! under the current model; the downstream model *is* that model, trained
//! on the labelled pool only (§4.2: "uncertain sampling can only use a
//! small labelled subset of data to train the downstream model").

use crate::{Framework, FrameworkEval};
use activedp::ActiveDpError;
use adp_classifier::{LogRegConfig, LogisticRegression, Targets};
use adp_data::SplitDataset;
use adp_lf::{SimulatedUser, UserConfig};
use adp_linalg::Matrix;
use adp_sampler::{Sampler, SamplerContext, Uncertainty};

/// The US baseline.
pub struct UncertaintySampling<'a> {
    data: &'a SplitDataset,
    model: LogisticRegression,
    sampler: Uncertainty,
    user: SimulatedUser,
    labeled: Vec<usize>,
    labels: Vec<usize>,
    queried: Vec<bool>,
    probs: Option<Matrix>,
    downstream_cfg: LogRegConfig,
}

impl<'a> UncertaintySampling<'a> {
    /// A US baseline over `data`, deterministic in `seed`.
    pub fn new(data: &'a SplitDataset, seed: u64) -> Self {
        let cfg = LogRegConfig::default();
        UncertaintySampling {
            model: LogisticRegression::new(
                data.train.n_classes,
                adp_linalg::Features::ncols(&data.train.features),
                cfg,
            ),
            sampler: Uncertainty::new(seed ^ 0x0500_0001),
            user: SimulatedUser::new(UserConfig::default(), seed ^ 0x0500_0002),
            labeled: vec![],
            labels: vec![],
            queried: vec![false; data.train.len()],
            probs: None,
            downstream_cfg: cfg,
            data,
        }
    }

    /// Number of labelled instances so far.
    pub fn n_labeled(&self) -> usize {
        self.labeled.len()
    }
}

impl Framework for UncertaintySampling<'_> {
    fn name(&self) -> &'static str {
        "US"
    }

    fn step(&mut self) -> Result<(), ActiveDpError> {
        let pick = {
            let ctx = SamplerContext {
                train: &self.data.train,
                queried: &self.queried,
                al_probs: self.probs.as_ref(),
                lm_probs: None,
                n_labeled: self.labeled.len(),
                space: None,
                seen_lfs: None,
                visible: None,
            };
            self.sampler.select(&ctx)
        };
        let Some(i) = pick else {
            return Ok(()); // pool exhausted; budget still consumed
        };
        self.queried[i] = true;
        let y = self.user.label_instance(&self.data.train, i);
        self.labeled.push(i);
        self.labels.push(y);
        self.model.fit(
            &self.data.train.features,
            &self.labeled,
            Targets::Hard(&self.labels),
            None,
        )?;
        self.probs = Some(self.model.predict_proba_all(&self.data.train.features));
        Ok(())
    }

    fn evaluate(&self) -> Result<FrameworkEval, ActiveDpError> {
        let n = self.data.train.len();
        let mut labels: Vec<Option<Vec<f64>>> = vec![None; n];
        for (&i, &y) in self.labeled.iter().zip(&self.labels) {
            let mut d = vec![0.0; self.data.train.n_classes];
            d[y] = 1.0;
            labels[i] = Some(d);
        }
        crate::downstream_eval(self.data, &labels, self.downstream_cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;

    #[test]
    fn learns_on_easy_tabular_data() {
        let data = tiny_tabular();
        let mut us = UncertaintySampling::new(&data, 1);
        let eval = drive(&mut us, 30);
        assert_eq!(us.n_labeled(), 30);
        assert!(eval.test_accuracy > 0.8, "{}", eval.test_accuracy);
        // Human labels are exact.
        assert_eq!(eval.label_accuracy, Some(1.0));
        let expected_cov = 30.0 / data.train.len() as f64;
        assert!((eval.label_coverage - expected_cov).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = tiny_text();
        let run = |seed| {
            let mut us = UncertaintySampling::new(&data, seed);
            drive(&mut us, 10).test_accuracy
        };
        assert_eq!(run(5).to_bits(), run(5).to_bits());
    }

    #[test]
    fn pool_exhaustion_is_graceful() {
        let data = tiny_text();
        let n = data.train.len();
        let mut us = UncertaintySampling::new(&data, 2);
        for _ in 0..n + 5 {
            us.step().unwrap();
        }
        assert_eq!(us.n_labeled(), n);
        assert!(us.evaluate().is_ok());
    }
}
