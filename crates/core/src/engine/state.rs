//! The shared state every stage of the [`Engine`](crate::Engine) reads and
//! writes: the LF set, the vote matrices, the pseudo-labelled pool and the
//! cached model predictions.

use crate::error::ActiveDpError;
use adp_data::SplitDataset;
use adp_lf::{LabelFunction, LabelMatrix, LfKey, ABSTAIN};
use adp_linalg::Matrix;
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
    /// training stage (`None` before the first fit): one row per instance.
    pub al_probs_train: Option<Matrix>,
    /// Label-model class probabilities on the training split (`None` while
    /// no LF is selected): one row per instance.
    pub lm_probs_train: Option<Matrix>,
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

    /// Re-applies every LF to `data`'s training and validation splits —
    /// both vote matrices are functions of the LF list and the pool, which
    /// is how resume and a covariate drift rebuild them.
    pub(crate) fn rebuild_matrices(&mut self, data: &SplitDataset) {
        self.train_matrix = LabelMatrix::from_lfs(&self.lfs, &data.train);
        self.valid_matrix = LabelMatrix::from_lfs(&self.lfs, &data.valid);
    }

    /// The pseudo-labelled set `(query instance, pseudo label)` (§3.1).
    pub fn pseudo_labelled(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.query_indices
            .iter()
            .copied()
            .zip(self.pseudo_labels.iter().copied())
    }

    /// Votes of every LF on every past query instance (rows in iteration
    /// order) — the `L_Λ` table of Figure 2 without its label column. The
    /// rows are read out of `train_matrix`, which already holds every LF's
    /// vote on every pool instance; `data` must be the split the state was
    /// built over.
    pub fn query_votes_matrix(&self, data: &SplitDataset) -> Result<LabelMatrix, ActiveDpError> {
        if self.train_matrix.n_instances() != data.train.len() {
            return Err(ActiveDpError::BadConfig {
                reason: format!(
                    "train matrix has {} rows, the training split {}",
                    self.train_matrix.n_instances(),
                    data.train.len()
                ),
            });
        }
        Ok(self.train_matrix.select_rows(&self.query_indices)?)
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

    /// `query_votes_matrix` reads the query rows out of `train_matrix`:
    /// pinned, after every step, equal to re-applying every LF to every
    /// query instance of the engine's current data, across drift
    /// boundaries that rebuild the train matrix (a label shift, feature
    /// drift that changes votes) and over an arriving pool.
    #[test]
    fn query_votes_from_the_store_equal_reapplied_lfs_across_drift() {
        use crate::engine::Engine;
        use adp_data::DriftSpec;
        for (id, drift) in [
            (
                DatasetId::Youtube,
                DriftSpec::LabelShift { at: 6, prior: 0.8 },
            ),
            (
                DatasetId::Youtube,
                DriftSpec::ArrivingPool { per_refit: 10 },
            ),
            (
                DatasetId::Census,
                DriftSpec::CovariateDrift {
                    at: 6,
                    rotation: 0.7,
                },
            ),
        ] {
            let data = generate(id, Scale::Tiny, 5).unwrap();
            let mut engine = Engine::builder(data).seed(5).drift(drift).build().unwrap();
            for step in 0..14 {
                engine.step().unwrap();
                let (state, data) = (engine.state(), engine.data());
                let reapplied: Vec<i8> = state
                    .query_indices
                    .iter()
                    .flat_map(|&qi| state.lfs.iter().map(move |lf| lf.apply(&data.train, qi)))
                    .collect();
                let expected =
                    LabelMatrix::from_raw(state.query_indices.len(), state.lfs.len(), reapplied)
                        .unwrap();
                assert_eq!(
                    state.query_votes_matrix(data).unwrap(),
                    expected,
                    "{drift:?} step {step}"
                );
            }
            assert!(!engine.state().lfs.is_empty(), "{drift:?}: no LF collected");
        }
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
