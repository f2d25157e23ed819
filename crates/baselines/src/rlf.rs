//! Revising LF (Nashaat et al., IEEE Big Data 2018): hybrid AL + DP that
//! corrects LF outputs on user-labelled instances.
//!
//! Each iteration: the instance where the current label model is most
//! uncertain is shown to the user, who reveals its true label; every LF
//! vote on that instance that disagrees with the truth is overwritten (the
//! "revision"); the label model refits on the revised matrix. Following the
//! paper's protocol (§4.1.3), the pre-specified LF set RLF requires is
//! grown with the same coverage-proportional user model ActiveDP uses, one
//! LF per iteration, so `Λ_t` matches ActiveDP's at every budget.

use crate::{Framework, FrameworkEval};
use activedp::ActiveDpError;
use adp_classifier::LogRegConfig;
use adp_data::SplitDataset;
use adp_labelmodel::{make_model, LabelModel, LabelModelKind};
use adp_lf::{CandidateSpace, LabelFunction, LabelMatrix, SimulatedUser, UserConfig, ABSTAIN};
use adp_linalg::Matrix;
use adp_sampler::{Sampler, SamplerContext, Uncertainty};

/// The Revising-LF baseline.
pub struct RevisingLf<'a> {
    data: &'a SplitDataset,
    space: CandidateSpace,
    sampler: Uncertainty,
    user: SimulatedUser,
    label_model: Box<dyn LabelModel>,
    class_balance: Vec<f64>,
    lfs: Vec<LabelFunction>,
    train_matrix: LabelMatrix,
    queried: Vec<bool>,
    /// User-revealed ground truth `(instance, label)`, re-applied to every
    /// new LF column.
    corrections: Vec<(usize, usize)>,
    lm_probs: Option<Matrix>,
    downstream_cfg: LogRegConfig,
}

impl<'a> RevisingLf<'a> {
    /// An RLF run over `data`, deterministic in `seed`.
    pub fn new(data: &'a SplitDataset, seed: u64) -> Self {
        RevisingLf {
            space: CandidateSpace::build(&data.train),
            sampler: Uncertainty::new(seed ^ 0x0F1F_0001),
            user: SimulatedUser::new(UserConfig::default(), seed ^ 0x0F1F_0002),
            label_model: make_model(LabelModelKind::Triplet, data.train.n_classes),
            class_balance: data.valid.class_balance(),
            lfs: vec![],
            train_matrix: LabelMatrix::empty(data.train.len()),
            queried: vec![false; data.train.len()],
            corrections: vec![],
            lm_probs: None,
            downstream_cfg: LogRegConfig {
                max_iters: 150,
                ..LogRegConfig::default()
            },
            data,
        }
    }

    /// Instances whose LF outputs have been revised.
    pub fn n_corrections(&self) -> usize {
        self.corrections.len()
    }

    /// LFs collected so far.
    pub fn lfs(&self) -> &[LabelFunction] {
        &self.lfs
    }

    /// Overwrites misfiring votes on instance `i` with the true label.
    fn revise_instance(&mut self, i: usize, y: usize) -> Result<(), ActiveDpError> {
        for j in 0..self.train_matrix.n_lfs() {
            let v = self.train_matrix.get(i, j);
            if v != ABSTAIN && v as usize != y {
                self.train_matrix.set(i, j, y as i8)?;
            }
        }
        Ok(())
    }

    fn refit(&mut self) -> Result<(), ActiveDpError> {
        if self.train_matrix.n_lfs() == 0 {
            self.lm_probs = None;
            return Ok(());
        }
        self.label_model
            .fit(&self.train_matrix, Some(&self.class_balance))?;
        self.lm_probs = Some(adp_labelmodel::predict_all(
            self.label_model.as_ref(),
            &self.train_matrix,
        ));
        Ok(())
    }
}

impl Framework for RevisingLf<'_> {
    fn name(&self) -> &'static str {
        "RLF"
    }

    fn step(&mut self) -> Result<(), ActiveDpError> {
        let pick = {
            let ctx = SamplerContext {
                train: &self.data.train,
                queried: &self.queried,
                al_probs: None,
                lm_probs: self.lm_probs.as_ref(),
                n_labeled: self.corrections.len(),
                space: None,
                seen_lfs: None,
                visible: None,
            };
            self.sampler.select(&ctx)
        };
        let Some(i) = pick else {
            return Ok(());
        };
        self.queried[i] = true;
        let y = self.user.label_instance(&self.data.train, i);
        self.corrections.push((i, y));

        // Grow Λ_t exactly like ActiveDP (protocol requirement, §4.1.3):
        // one coverage-proportional LF from the revealed instance.
        if let Some(lf) = self
            .user
            .respond(&self.space, &self.data.train, &self.data.train, i)
        {
            self.train_matrix.push_lf(&lf, &self.data.train)?;
            self.lfs.push(lf);
            // New column must respect all past revisions.
            let j = self.train_matrix.n_lfs() - 1;
            for &(ci, cy) in &self.corrections {
                let v = self.train_matrix.get(ci, j);
                if v != ABSTAIN && v as usize != cy {
                    self.train_matrix.set(ci, j, cy as i8)?;
                }
            }
        }
        self.revise_instance(i, y)?;
        self.refit()
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
    fn revisions_fix_votes() {
        let data = tiny_text();
        let mut rlf = RevisingLf::new(&data, 1);
        for _ in 0..20 {
            rlf.step().unwrap();
        }
        assert_eq!(rlf.n_corrections(), 20);
        // Every corrected instance's votes agree with the truth.
        for &(i, y) in &rlf.corrections {
            for j in 0..rlf.train_matrix.n_lfs() {
                let v = rlf.train_matrix.get(i, j);
                assert!(
                    v == ABSTAIN || v as usize == y,
                    "unrevised vote at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn learns_on_text() {
        let data = tiny_text();
        let mut rlf = RevisingLf::new(&data, 2);
        let eval = drive(&mut rlf, 25);
        assert!(eval.test_accuracy > 0.55, "{}", eval.test_accuracy);
        assert!(rlf.lfs().len() > 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = tiny_text();
        let run = |seed| {
            let mut rlf = RevisingLf::new(&data, seed);
            drive(&mut rlf, 10).test_accuracy
        };
        assert_eq!(run(7).to_bits(), run(7).to_bits());
    }

    #[test]
    fn evaluate_before_steps_is_defined() {
        let data = tiny_text();
        let rlf = RevisingLf::new(&data, 3);
        let eval = rlf.evaluate().unwrap();
        assert_eq!(eval.label_coverage, 0.0);
    }
}
