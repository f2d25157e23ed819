//! The shared state every stage of the [`Engine`](crate::Engine) reads and
//! writes: the LF set, the vote matrices, the pseudo-labelled pool and the
//! cached model predictions.

use crate::error::ActiveDpError;
use adp_data::SplitDataset;
use adp_lf::{LabelFunction, LabelMatrix, LfKey, ABSTAIN};
use std::collections::HashSet;

/// Everything the training loop accumulates, kept separate from the
/// pluggable components (sampler, oracle, models) so each stage is a pure
/// function of `(dataset, state)` plus its own plugin.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// All LFs collected so far, in iteration order.
    pub lfs: Vec<LabelFunction>,
    /// Votes of every LF on the training split (grows one column per LF).
    pub train_matrix: LabelMatrix,
    /// Votes of every LF on the validation split.
    pub valid_matrix: LabelMatrix,
    /// Which training instances have been queried.
    pub queried: Vec<bool>,
    /// Query instances in iteration order (only those that produced an LF).
    pub query_indices: Vec<usize>,
    /// Pseudo-label of each query instance: the LF's vote on its own query
    /// (§3.1).
    pub pseudo_labels: Vec<usize>,
    /// Indices of the LFs currently selected by LabelPick.
    pub selected: Vec<usize>,
    /// Keys of every LF seen, for duplicate suppression by the samplers.
    pub seen_keys: HashSet<LfKey>,
    /// 1-based count of completed loop iterations.
    pub iteration: usize,
    /// AL-model class probabilities on the training split, refreshed by the
    /// training stage (`None` before the first fit).
    pub al_probs_train: Option<Vec<Vec<f64>>>,
    /// Label-model class probabilities on the training split (`None` while
    /// no LF is selected).
    pub lm_probs_train: Option<Vec<Vec<f64>>>,
}

impl SessionState {
    /// Fresh state for a dataset split.
    pub fn new(data: &SplitDataset) -> Self {
        SessionState {
            lfs: vec![],
            train_matrix: LabelMatrix::empty(data.train.len()),
            valid_matrix: LabelMatrix::empty(data.valid.len()),
            queried: vec![false; data.train.len()],
            query_indices: vec![],
            pseudo_labels: vec![],
            selected: vec![],
            seen_keys: HashSet::new(),
            iteration: 0,
            al_probs_train: None,
            lm_probs_train: None,
        }
    }

    /// Structural validation against the dataset a session is being
    /// resumed over: every index in bounds, every matrix and cache shaped
    /// for the split, every cached probability a finite number in `[0, 1]`
    /// (resume hands the caches to the samplers unrefitted, and a NaN
    /// would panic their sort). Snapshot decoding guarantees *well-formed* fields;
    /// this guards *consistency*, so a corrupt-but-parseable spill file is
    /// rejected with a typed error at resume instead of panicking the
    /// first `step()` that indexes into it.
    pub(crate) fn validate_for(&self, data: &SplitDataset) -> Result<(), ActiveDpError> {
        let bad = |reason: String| Err(ActiveDpError::BadConfig { reason });
        let n_train = data.train.len();
        let n_valid = data.valid.len();
        if self.train_matrix.n_instances() != n_train || self.valid_matrix.n_instances() != n_valid
        {
            return bad(format!(
                "snapshot state is shaped for a {}-train/{}-valid split, dataset has {n_train}/{n_valid}",
                self.train_matrix.n_instances(),
                self.valid_matrix.n_instances(),
            ));
        }
        if self.queried.len() != n_train {
            return bad(format!(
                "snapshot queried mask covers {} instances, pool has {n_train}",
                self.queried.len(),
            ));
        }
        if self.train_matrix.n_lfs() != self.lfs.len()
            || self.valid_matrix.n_lfs() != self.lfs.len()
        {
            return bad(format!(
                "snapshot vote matrices carry {}/{} LF columns for {} LFs",
                self.train_matrix.n_lfs(),
                self.valid_matrix.n_lfs(),
                self.lfs.len(),
            ));
        }
        if self.query_indices.len() != self.pseudo_labels.len() {
            return bad(format!(
                "snapshot has {} query indices but {} pseudo labels",
                self.query_indices.len(),
                self.pseudo_labels.len(),
            ));
        }
        if let Some(&qi) = self.query_indices.iter().find(|&&qi| qi >= n_train) {
            return bad(format!(
                "snapshot query index {qi} outside the {n_train}-instance pool"
            ));
        }
        let n_classes = data.train.n_classes;
        if let Some(&y) = self.pseudo_labels.iter().find(|&&y| y >= n_classes) {
            return bad(format!(
                "snapshot pseudo label {y} outside {n_classes} classes"
            ));
        }
        if let Some(&j) = self.selected.iter().find(|&&j| j >= self.lfs.len()) {
            return bad(format!("snapshot selects LF {j} of {}", self.lfs.len()));
        }
        for (name, probs, expected_rows) in [
            ("al_probs_train", &self.al_probs_train, n_train),
            ("lm_probs_train", &self.lm_probs_train, n_train),
        ] {
            if let Some(rows) = probs {
                if rows.len() != expected_rows || rows.iter().any(|r| r.len() != n_classes) {
                    return bad(format!(
                        "snapshot {name} cache is not {expected_rows}x{n_classes}"
                    ));
                }
                if let Some(p) = rows.iter().flatten().find(|p| !(0.0..=1.0).contains(*p)) {
                    return bad(format!("snapshot {name} cache holds probability {p}"));
                }
            }
        }
        Ok(())
    }

    /// The pseudo-labelled set `(query instance, pseudo label)` (§3.1).
    pub fn pseudo_labelled(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.query_indices
            .iter()
            .copied()
            .zip(self.pseudo_labels.iter().copied())
    }

    /// Votes of every LF on every past query instance (rows in iteration
    /// order) — the `L_Λ` table of Figure 2 without its label column.
    pub fn query_votes_matrix(&self, data: &SplitDataset) -> Result<LabelMatrix, ActiveDpError> {
        let rows: Vec<Vec<i8>> = self
            .query_indices
            .iter()
            .map(|&qi| {
                self.lfs
                    .iter()
                    .map(|lf| lf.apply(&data.train, qi))
                    .collect()
            })
            .collect();
        Ok(LabelMatrix::from_votes(&rows)?)
    }

    /// Per-instance flag: does any *selected* LF fire on instance `i` of
    /// `matrix`?
    pub fn has_vote_for(&self, matrix: &LabelMatrix) -> Vec<bool> {
        (0..matrix.n_instances())
            .map(|i| self.selected.iter().any(|&j| matrix.get(i, j) != ABSTAIN))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_data::{generate, DatasetId, Scale};

    #[test]
    fn fresh_state_is_empty() {
        let data = generate(DatasetId::Youtube, Scale::Tiny, 1).unwrap();
        let s = SessionState::new(&data);
        assert_eq!(s.iteration, 0);
        assert_eq!(s.train_matrix.n_instances(), data.train.len());
        assert_eq!(s.valid_matrix.n_instances(), data.valid.len());
        assert!(s.lfs.is_empty());
        assert!(s.pseudo_labelled().next().is_none());
        assert!(s.query_votes_matrix(&data).unwrap().n_instances() == 0);
    }

    #[test]
    fn has_vote_respects_selection() {
        let data = generate(DatasetId::Youtube, Scale::Tiny, 1).unwrap();
        let mut s = SessionState::new(&data);
        let m = LabelMatrix::from_votes(&[vec![1, ABSTAIN], vec![ABSTAIN, ABSTAIN]]).unwrap();
        s.selected = vec![0, 1];
        assert_eq!(s.has_vote_for(&m), vec![true, false]);
        s.selected = vec![1];
        assert_eq!(s.has_vote_for(&m), vec![false, false]);
    }
}
