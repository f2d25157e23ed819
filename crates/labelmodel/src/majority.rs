//! Unweighted majority vote.

use crate::error::{check_params, resolve_balance, LabelModelError, PRIOR_RANGE};
use crate::LabelModel;
use adp_lf::{ColumnView, LabelMatrix, ABSTAIN};

/// Majority vote over non-abstaining LFs; ties and all-abstain rows fall
/// back to the class prior.
#[derive(Debug, Clone)]
pub struct MajorityVote {
    n_classes: usize,
    prior: Vec<f64>,
}

impl MajorityVote {
    /// A majority-vote model for `n_classes` classes.
    pub fn new(n_classes: usize) -> Self {
        MajorityVote {
            n_classes,
            prior: vec![1.0 / n_classes as f64; n_classes],
        }
    }
}

impl LabelModel for MajorityVote {
    fn fit(
        &mut self,
        _matrix: &LabelMatrix,
        class_balance: Option<&[f64]>,
    ) -> Result<(), LabelModelError> {
        self.prior = resolve_balance(class_balance, self.n_classes)?;
        Ok(())
    }

    /// Nothing to read but the balance, so no copy of the selection.
    fn fit_columns(
        &mut self,
        _view: &ColumnView<'_>,
        class_balance: Option<&[f64]>,
    ) -> Result<(), LabelModelError> {
        self.prior = resolve_balance(class_balance, self.n_classes)?;
        Ok(())
    }

    /// Counts votes per class in `out` (exact small integers), then turns
    /// the tied maxima into prior-weighted shares.
    fn predict_into(&self, votes: &[i8], out: &mut [f64]) {
        out.fill(0.0);
        let mut total = 0usize;
        for &v in votes {
            if v != ABSTAIN {
                let c = v as usize;
                if c < self.n_classes {
                    out[c] += 1.0;
                    total += 1;
                }
            }
        }
        if total == 0 {
            out.copy_from_slice(&self.prior);
            return;
        }
        let max = out.iter().copied().fold(0.0, f64::max);
        // Ties split probability according to the prior over tied classes.
        let prior_mass: f64 = (0..self.n_classes)
            .filter(|&c| out[c] == max)
            .map(|c| self.prior[c])
            .sum();
        for (p, &prior) in out.iter_mut().zip(&self.prior) {
            *p = if *p == max { prior / prior_mass } else { 0.0 };
        }
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The class prior: majority vote fits nothing else.
    fn params(&self) -> Vec<f64> {
        self.prior.clone()
    }

    fn load_params(&mut self, _n_lfs: usize, params: &[f64]) -> Result<(), LabelModelError> {
        check_params("class prior", params, self.n_classes, PRIOR_RANGE)?;
        self.prior = params.to_vec();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fitted(prior: Option<&[f64]>) -> MajorityVote {
        let mut mv = MajorityVote::new(2);
        mv.fit(&LabelMatrix::empty(0), prior).unwrap();
        mv
    }

    #[test]
    fn clear_majority_wins() {
        let mv = fitted(None);
        assert_eq!(mv.predict_proba(&[1, 1, 0]), vec![0.0, 1.0]);
        assert_eq!(mv.predict_proba(&[0, 0, 1]), vec![1.0, 0.0]);
    }

    #[test]
    fn abstains_ignored() {
        let mv = fitted(None);
        assert_eq!(mv.predict_proba(&[ABSTAIN, 1, ABSTAIN]), vec![0.0, 1.0]);
    }

    #[test]
    fn all_abstain_gives_prior() {
        let mv = fitted(Some(&[0.7, 0.3]));
        let p = mv.predict_proba(&[ABSTAIN, ABSTAIN]);
        assert!((p[0] - 0.7).abs() < 1e-9);
    }

    #[test]
    fn tie_splits_by_prior() {
        let mv = fitted(Some(&[0.8, 0.2]));
        let p = mv.predict_proba(&[0, 1]);
        assert!((p[0] - 0.8).abs() < 1e-9);
        assert!((p[1] - 0.2).abs() < 1e-9);
        let uniform = fitted(None);
        assert_eq!(uniform.predict_proba(&[0, 1]), vec![0.5, 0.5]);
    }

    #[test]
    fn out_of_range_votes_ignored() {
        let mv = fitted(None);
        let p = mv.predict_proba(&[5, 1]);
        assert_eq!(p, vec![0.0, 1.0]);
    }

    #[test]
    fn rejects_bad_balance() {
        let mut mv = MajorityVote::new(2);
        assert!(mv.fit(&LabelMatrix::empty(0), Some(&[0.5])).is_err());
    }
}
