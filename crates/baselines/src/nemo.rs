//! Nemo (Hsieh, Zhang & Ratner, VLDB 2022): interactive data programming
//! with SEU query selection.
//!
//! Each iteration the SEU sampler picks the instance whose prospective LFs
//! carry the most expected utility; the user writes an LF from it; the
//! label model aggregates *all* returned LFs; the downstream model trains
//! on the label model's probabilistic labels. Nemo uses no instance-level
//! labels and no LF selection — the properties ActiveDP's ablation study
//! isolates (§4.2: "they only use label functions for prediction").

use crate::{Framework, FrameworkEval};
use activedp::ActiveDpError;
use adp_classifier::LogRegConfig;
use adp_data::SplitDataset;
use adp_labelmodel::{make_model, LabelModel, LabelModelKind};
use adp_lf::{CandidateSpace, LabelFunction, LabelMatrix, LfKey, SimulatedUser, UserConfig};
use adp_linalg::Matrix;
use adp_sampler::{Sampler, SamplerContext, Seu};
use std::collections::HashSet;

/// The Nemo baseline.
pub struct Nemo<'a> {
    data: &'a SplitDataset,
    space: CandidateSpace,
    sampler: Seu,
    user: SimulatedUser,
    label_model: Box<dyn LabelModel>,
    class_balance: Vec<f64>,
    lfs: Vec<LabelFunction>,
    train_matrix: LabelMatrix,
    queried: Vec<bool>,
    seen: HashSet<LfKey>,
    lm_probs: Option<Matrix>,
    downstream_cfg: LogRegConfig,
}

impl<'a> Nemo<'a> {
    /// A Nemo run over `data`, deterministic in `seed`.
    pub fn new(data: &'a SplitDataset, seed: u64) -> Self {
        Nemo {
            space: CandidateSpace::build(&data.train),
            sampler: Seu::new(seed ^ 0x0E00_0001),
            user: SimulatedUser::new(UserConfig::default(), seed ^ 0x0E00_0002),
            label_model: make_model(LabelModelKind::Triplet, data.train.n_classes),
            class_balance: data.valid.class_balance(),
            lfs: vec![],
            train_matrix: LabelMatrix::empty(data.train.len()),
            queried: vec![false; data.train.len()],
            seen: HashSet::new(),
            lm_probs: None,
            downstream_cfg: LogRegConfig {
                max_iters: 150,
                ..LogRegConfig::default()
            },
            data,
        }
    }

    /// LFs collected so far.
    pub fn lfs(&self) -> &[LabelFunction] {
        &self.lfs
    }
}

impl Framework for Nemo<'_> {
    fn name(&self) -> &'static str {
        "Nemo"
    }

    fn step(&mut self) -> Result<(), ActiveDpError> {
        let pick = {
            let ctx = SamplerContext {
                train: &self.data.train,
                queried: &self.queried,
                al_probs: None,
                lm_probs: self.lm_probs.as_ref(),
                n_labeled: 0,
                space: Some(&self.space),
                seen_lfs: Some(&self.seen),
                visible: None,
            };
            self.sampler.select(&ctx)
        };
        let Some(i) = pick else {
            return Ok(());
        };
        self.queried[i] = true;
        if let Some(lf) = self
            .user
            .respond(&self.space, &self.data.train, &self.data.train, i)
        {
            self.seen.insert(lf.key());
            self.train_matrix.push_lf(&lf, &self.data.train)?;
            self.lfs.push(lf);
            self.label_model
                .fit(&self.train_matrix, Some(&self.class_balance))?;
            self.lm_probs = Some(adp_labelmodel::predict_all(
                self.label_model.as_ref(),
                &self.train_matrix,
            ));
        }
        Ok(())
    }

    fn evaluate(&self) -> Result<FrameworkEval, ActiveDpError> {
        let n = self.data.train.len();
        let labels: Vec<Option<Vec<f64>>> = match &self.lm_probs {
            None => vec![None; n],
            Some(probs) => (0..n)
                .map(|i| self.train_matrix.has_vote(i).then(|| probs[i].to_vec()))
                .collect(),
        };
        crate::downstream_eval(self.data, &labels, self.downstream_cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;

    #[test]
    fn collects_lfs_and_learns() {
        let data = tiny_text();
        let mut nemo = Nemo::new(&data, 1);
        let eval = drive(&mut nemo, 25);
        assert!(nemo.lfs().len() > 5, "only {} LFs", nemo.lfs().len());
        assert!(eval.label_coverage > 0.2, "{}", eval.label_coverage);
        assert!(eval.test_accuracy > 0.55, "{}", eval.test_accuracy);
    }

    #[test]
    fn no_duplicate_lfs() {
        let data = tiny_text();
        let mut nemo = Nemo::new(&data, 2);
        for _ in 0..20 {
            nemo.step().unwrap();
        }
        let mut keys = HashSet::new();
        for lf in nemo.lfs() {
            assert!(keys.insert(lf.key()), "duplicate LF {lf:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = tiny_text();
        let run = |seed| {
            let mut nemo = Nemo::new(&data, seed);
            drive(&mut nemo, 12).test_accuracy
        };
        assert_eq!(run(9).to_bits(), run(9).to_bits());
    }

    #[test]
    fn evaluate_before_any_lf_is_defined() {
        let data = tiny_text();
        let nemo = Nemo::new(&data, 3);
        let eval = nemo.evaluate().unwrap();
        assert_eq!(eval.label_coverage, 0.0);
    }
}
