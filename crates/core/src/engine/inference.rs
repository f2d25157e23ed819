//! Stage 4 — **inference** (Figure 1 right): ConFusion aggregation of the
//! AL and label models' predictions under a validation-tuned confidence
//! threshold (§3.2), and downstream-model training/evaluation.

use super::state::SessionState;
use super::training::TrainingStage;
use crate::config::SessionConfig;
use crate::confusion::{aggregate, tune_threshold, AggregatedLabels};
use crate::error::ActiveDpError;
use adp_classifier::{LogisticRegression, Targets};
use adp_data::SplitDataset;

/// Inference-phase evaluation of the downstream model.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Downstream test-set accuracy (the paper's headline metric).
    pub test_accuracy: f64,
    /// Accuracy of the aggregated training labels over covered instances.
    pub label_accuracy: Option<f64>,
    /// Fraction of training instances that received a label.
    pub label_coverage: f64,
    /// Tuned confidence threshold (None when ConFusion is ablated).
    pub threshold: Option<f64>,
    /// LFs selected at evaluation time.
    pub n_selected: usize,
    /// Whether the downstream model had any training data.
    pub downstream_trained: bool,
}

/// Tunes τ on the validation split (when ConFusion is enabled) and
/// aggregates labels for the training pool. A resumed stage that has not
/// refitted yet has unfitted models; they are fitted to `state`'s
/// selection on a throwaway copy first.
pub fn aggregate_train_labels(
    data: &SplitDataset,
    config: &SessionConfig,
    training: &TrainingStage,
    state: &SessionState,
) -> Result<AggregatedLabels, ActiveDpError> {
    let fitted;
    let training = if training.stale {
        fitted = TrainingStage::fitted_to(data, config, state)?;
        &fitted
    } else {
        training
    };
    let n_classes = data.train.n_classes;
    let lm_train = training.lm_probs_for(n_classes, state, &state.train_matrix);
    let has_vote_train = state.has_vote_for(&state.train_matrix);
    if !config.use_confusion {
        // Ablation: label-model output on covered instances only.
        let labels = lm_train
            .into_iter()
            .zip(&has_vote_train)
            .map(|(p, &v)| v.then_some(p))
            .collect();
        return Ok(AggregatedLabels {
            labels,
            threshold: f64::NAN,
        });
    }
    let al_train = training.al_probs_for(n_classes, state, &data.train.features);
    let al_valid = training.al_probs_for(n_classes, state, &data.valid.features);
    let lm_valid = training.lm_probs_for(n_classes, state, &state.valid_matrix);
    let has_vote_valid = state.has_vote_for(&state.valid_matrix);
    let tau = tune_threshold(&al_valid, &lm_valid, &has_vote_valid, &data.valid.labels);
    Ok(AggregatedLabels {
        labels: aggregate(&al_train, &lm_train, &has_vote_train, tau),
        threshold: tau,
    })
}

/// Trains the downstream model on the aggregated labels and evaluates it on
/// the test split (the protocol's every-10-iterations metric).
pub fn evaluate_downstream(
    data: &SplitDataset,
    config: &SessionConfig,
    training: &TrainingStage,
    state: &SessionState,
) -> Result<EvalReport, ActiveDpError> {
    let agg = aggregate_train_labels(data, config, training, state)?;
    let rows: Vec<usize> = agg
        .labels
        .iter()
        .enumerate()
        .filter_map(|(i, l)| l.is_some().then_some(i))
        .collect();
    let mut report = EvalReport {
        test_accuracy: 0.0,
        label_accuracy: agg.accuracy_against(&data.train.labels),
        label_coverage: agg.coverage(),
        threshold: config.use_confusion.then_some(agg.threshold),
        n_selected: state.selected.len(),
        downstream_trained: !rows.is_empty(),
    };
    let preds: Vec<usize> = if rows.is_empty() {
        vec![0; data.test.len()]
    } else {
        let targets: Vec<Vec<f64>> = rows
            .iter()
            .map(|&i| agg.labels[i].clone().expect("row filtered as covered"))
            .collect();
        let mut downstream = LogisticRegression::new(
            data.train.n_classes,
            adp_linalg::Features::ncols(&data.train.features),
            config.effective_downstream_logreg(),
        );
        downstream.fit(&data.train.features, &rows, Targets::Soft(&targets), None)?;
        (0..data.test.len())
            .map(|i| downstream.predict(&data.test.features, i))
            .collect()
    };
    report.test_accuracy = adp_classifier::accuracy(&preds, &data.test.labels);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_data::{generate, DatasetId, Scale};

    #[test]
    fn empty_state_evaluation_is_defined() {
        let data = generate(DatasetId::Youtube, Scale::Tiny, 5).unwrap();
        let cfg = SessionConfig::paper_defaults(true, 5);
        let training = TrainingStage::from_config(&data, &cfg);
        let state = SessionState::new(&data);
        let r = evaluate_downstream(&data, &cfg, &training, &state).unwrap();
        assert!((0.0..=1.0).contains(&r.test_accuracy));
        assert!(!r.downstream_trained || r.label_coverage > 0.0);
    }

    #[test]
    fn confusion_ablation_reports_no_threshold() {
        let data = generate(DatasetId::Youtube, Scale::Tiny, 5).unwrap();
        let cfg = SessionConfig {
            use_confusion: false,
            ..SessionConfig::paper_defaults(true, 5)
        };
        let training = TrainingStage::from_config(&data, &cfg);
        let state = SessionState::new(&data);
        let agg = aggregate_train_labels(&data, &cfg, &training, &state).unwrap();
        assert!(agg.threshold.is_nan());
        let r = evaluate_downstream(&data, &cfg, &training, &state).unwrap();
        assert!(r.threshold.is_none());
    }
}
