//! Stage 3 — **training**: LabelPick LF selection (§3.4), label-model refit
//! on the selected columns, AL-model refit on the pseudo-labelled pool, and
//! the refresh of both models' cached training-split predictions.

use super::state::SessionState;
use crate::config::SessionConfig;
use crate::error::ActiveDpError;
use crate::labelpick::LabelPick;
use adp_classifier::{LogisticRegression, Targets};
use adp_data::SplitDataset;
use adp_labelmodel::{make_model_with, LabelModel};
use adp_lf::{ColumnView, LabelMatrix};
use adp_linalg::Matrix;

/// The fitted parameters a refit leaves behind — what a snapshot persists
/// so resume can restore the models instead of refitting them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FittedParams {
    /// The label model's [`LabelModel::params`] over the selected columns;
    /// empty while nothing is selected.
    pub label_model: Vec<f64>,
    /// The AL model's weights, row-major classes × features; empty before
    /// its first fit.
    pub al_weights: Vec<f64>,
    /// The AL model's intercepts; empty before its first fit.
    pub al_bias: Vec<f64>,
}

/// Owns the pluggable models (label model, AL model) and the LabelPick
/// selector.
pub struct TrainingStage {
    labelpick: LabelPick,
    label_model: Box<dyn LabelModel>,
    al_model: LogisticRegression,
    class_balance: Vec<f64>,
    use_labelpick: bool,
    /// Scheduling switch for the bulk label-model prediction pass
    /// (bitwise-identical output either way).
    parallel: bool,
    /// The iteration of the last [`TrainingStage::refit`] (0 before it):
    /// under a drift, the pool the models were fitted and the caches
    /// predicted on.
    pub(crate) fitted_at: usize,
}

impl TrainingStage {
    /// Builds the models from the session configuration. The config's
    /// master `parallel` switch reaches every kernel here: LabelPick's
    /// glasso, the label model's EM and the AL model's gradient batches all
    /// run under the fixed-chunk contract, so [`Engine::step`] and the
    /// `SessionHub` pick the threaded path by default with trajectories
    /// unchanged bit for bit.
    ///
    /// [`Engine::step`]: super::Engine::step
    pub fn from_config(data: &SplitDataset, config: &SessionConfig) -> Self {
        let n_classes = data.train.n_classes;
        TrainingStage {
            labelpick: LabelPick::new(config.effective_labelpick()),
            label_model: make_model_with(config.label_model, n_classes, config.parallel),
            al_model: LogisticRegression::new(
                n_classes,
                adp_linalg::Features::ncols(&data.train.features),
                config.effective_al_logreg(),
            ),
            class_balance: data.valid.class_balance(),
            use_labelpick: config.use_labelpick,
            parallel: config.parallel,
            fitted_at: 0,
        }
    }

    /// Re-reads the dataset-derived fit inputs after a drift boundary
    /// mutated the pool: the class balance tracks the (possibly
    /// re-labelled) validation split. Model parameters are untouched — the
    /// next [`TrainingStage::refit`] resets them against the new data
    /// anyway.
    pub(crate) fn refresh_balance(&mut self, data: &SplitDataset) {
        self.class_balance = data.valid.class_balance();
    }

    /// Refits LabelPick, the label model and the AL model after the LF set
    /// or pseudo-labelled set changed.
    pub fn refit(
        &mut self,
        data: &SplitDataset,
        state: &mut SessionState,
    ) -> Result<(), ActiveDpError> {
        // LabelPick (or all LFs when ablated).
        state.selected = if self.use_labelpick {
            let query_matrix = state.query_votes_matrix(data)?;
            self.labelpick.select(
                &query_matrix,
                &state.pseudo_labels,
                &state.valid_matrix,
                &data.valid.labels,
                data.train.n_classes,
            )?
        } else {
            (0..state.lfs.len()).collect()
        };

        // Label model on the selected columns, read in place.
        state.lm_probs_train = if state.selected.is_empty() {
            None
        } else {
            let selected_train = state.train_matrix.columns(&state.selected)?;
            self.label_model
                .fit_columns(&selected_train, Some(&self.class_balance))?;
            Some(self.predict_selected(&selected_train))
        };

        // AL model on the pseudo-labelled set.
        state.al_probs_train = if state.query_indices.is_empty() {
            None
        } else {
            self.al_model.fit(
                &data.train.features,
                &state.query_indices,
                Targets::Hard(&state.pseudo_labels),
                None,
            )?;
            Some(self.al_model.predict_proba_all(&data.train.features))
        };
        self.fitted_at = state.iteration;
        Ok(())
    }

    /// The parameters the last refit fitted, for a snapshot.
    pub(crate) fn params(&self, state: &SessionState) -> FittedParams {
        let mut params = FittedParams::default();
        if !state.selected.is_empty() {
            params.label_model = self.label_model.params();
        }
        if !state.query_indices.is_empty() {
            params.al_weights = self.al_model.weights().as_slice().to_vec();
            params.al_bias = self.al_model.bias().to_vec();
        }
        params
    }

    /// Loads `params` into the models a refit of `state` fits, and refills
    /// both caches with the predictions [`TrainingStage::refit`] makes:
    /// the state the refit that produced `params` left behind, when `data`
    /// is the pool it ran on.
    pub(crate) fn restore(
        &mut self,
        data: &SplitDataset,
        state: &mut SessionState,
        params: &FittedParams,
    ) -> Result<(), ActiveDpError> {
        state.lm_probs_train = if state.selected.is_empty() {
            None
        } else {
            self.label_model
                .load_params(state.selected.len(), &params.label_model)?;
            Some(self.predict_selected(&state.train_matrix.columns(&state.selected)?))
        };
        state.al_probs_train = if state.query_indices.is_empty() {
            None
        } else {
            self.al_model
                .load_params(&params.al_weights, &params.al_bias)?;
            Some(self.al_model.predict_proba_all(&data.train.features))
        };
        Ok(())
    }

    /// The label model's probabilities for every row of the selected
    /// columns.
    fn predict_selected(&self, selected: &ColumnView<'_>) -> Matrix {
        let exec = if self.parallel {
            adp_linalg::parallel::auto(selected.n_instances(), adp_labelmodel::MIN_PARALLEL_PREDICT)
        } else {
            adp_linalg::Execution::Serial
        };
        adp_labelmodel::predict_columns(self.label_model.as_ref(), selected, exec)
    }

    /// Label-model probabilities for every row of `matrix`, restricted to
    /// the selected LF columns; the uniform prior where nothing is selected.
    pub fn lm_probs_for(
        &self,
        n_classes: usize,
        state: &SessionState,
        matrix: &LabelMatrix,
    ) -> Result<Matrix, ActiveDpError> {
        if state.selected.is_empty() {
            return Ok(uniform(matrix.n_instances(), n_classes));
        }
        Ok(self.predict_selected(&matrix.columns(&state.selected)?))
    }

    /// AL-model probabilities for every row of `features`; the uniform
    /// prior before the first fit.
    pub fn al_probs_for(
        &self,
        n_classes: usize,
        state: &SessionState,
        features: &adp_data::FeatureSet,
    ) -> Matrix {
        if state.query_indices.is_empty() {
            return uniform(adp_linalg::Features::nrows(features), n_classes);
        }
        self.al_model.predict_proba_all(features)
    }
}

/// `n` rows of the uniform distribution over `n_classes`.
fn uniform(n: usize, n_classes: usize) -> Matrix {
    Matrix::from_fn(n, n_classes, |_, _| 1.0 / n_classes as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_data::{generate, DatasetId, Scale};
    use adp_lf::{LabelFunction, ABSTAIN};

    fn planted_state(data: &SplitDataset) -> SessionState {
        let mut state = SessionState::new(data);
        // Plant a handful of keyword LFs straight from the candidate space,
        // one per early training instance, pseudo-labelled like the loop
        // would (§3.1: the LF's vote on its own query).
        let space = adp_lf::CandidateSpace::build(&data.train);
        let mut i = 0;
        while state.lfs.len() < 6 && i < data.train.len() {
            let label = data.train.labels[i];
            let fresh = space
                .candidates_for(&data.train, &data.train, i, label, 0.6)
                .into_iter()
                .find(|c| !state.seen_keys.contains(&c.lf.key()));
            if let Some(cand) = fresh {
                let lf: LabelFunction = cand.lf;
                state.seen_keys.insert(lf.key());
                state.train_matrix.push_lf(&lf, &data.train).unwrap();
                state.valid_matrix.push_lf(&lf, &data.valid).unwrap();
                let vote = lf.apply(&data.train, i);
                assert_ne!(vote, ABSTAIN, "candidate LF fires on its query");
                state.query_indices.push(i);
                state.pseudo_labels.push(vote as usize);
                state.lfs.push(lf);
            }
            i += 1;
        }
        assert!(state.lfs.len() >= 4, "planted too few LFs");
        state
    }

    #[test]
    fn refit_populates_selection_and_probs() {
        let data = generate(DatasetId::Youtube, Scale::Tiny, 5).unwrap();
        let cfg = SessionConfig::paper_defaults(true, 5);
        let mut stage = TrainingStage::from_config(&data, &cfg);
        let mut state = planted_state(&data);
        stage.refit(&data, &mut state).unwrap();
        assert!(!state.selected.is_empty());
        assert!(state.lm_probs_train.is_some());
        assert!(state.al_probs_train.is_some());
        let al = state.al_probs_train.as_ref().unwrap();
        assert_eq!(al.shape(), (data.train.len(), 2));
        assert!((al[0].iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn labelpick_ablation_keeps_every_lf() {
        let data = generate(DatasetId::Youtube, Scale::Tiny, 5).unwrap();
        let cfg = SessionConfig {
            use_labelpick: false,
            ..SessionConfig::paper_defaults(true, 5)
        };
        let mut stage = TrainingStage::from_config(&data, &cfg);
        let mut state = planted_state(&data);
        stage.refit(&data, &mut state).unwrap();
        assert_eq!(state.selected, (0..state.lfs.len()).collect::<Vec<_>>());
    }

    #[test]
    fn empty_state_refit_clears_probs() {
        let data = generate(DatasetId::Youtube, Scale::Tiny, 5).unwrap();
        let cfg = SessionConfig::paper_defaults(true, 5);
        let mut stage = TrainingStage::from_config(&data, &cfg);
        let mut state = SessionState::new(&data);
        stage.refit(&data, &mut state).unwrap();
        assert!(state.selected.is_empty());
        assert!(state.lm_probs_train.is_none());
        assert!(state.al_probs_train.is_none());
        // The prob helpers fall back to the uniform prior.
        let lm = stage.lm_probs_for(2, &state, &state.train_matrix).unwrap();
        assert_eq!(lm[0], [0.5, 0.5]);
        let al = stage.al_probs_for(2, &state, &data.train.features);
        assert_eq!(al[0], [0.5, 0.5]);
    }
}
