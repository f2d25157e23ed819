//! The traced replay: the engine's loop re-driven from outside through the
//! public stage functions, with a span around each call into a layer.
//!
//! `Engine::step_batch` runs sampling → querying per drawn query and one
//! refit (LabelPick → label model fit + predict → AL fit + predict) at the
//! batch end. [`Shadow`] makes the same calls in the same order over its
//! own [`SessionState`], timing each; the workloads then assert that the
//! shadow's final state equals the engine's, so the spans are known to
//! cover exactly the work the engine did.

use crate::BenchResult;
use activedp::{
    BudgetSchedule, CandidateStrategy, LabelPick, LabelPickConfig, QueryingStage, SamplingStage,
    ScenarioSpec, SessionState,
};
use adp_classifier::{LogRegConfig, LogisticRegression, Targets};
use adp_data::{DriftSpec, SharedDataset};
use adp_labelmodel::LabelModel;
use adp_linalg::Execution;
use std::time::Instant;

/// Busy time and counters per layer, summed over a replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTimes {
    pub sampling_calls: u64,
    pub sampling_s: f64,
    pub querying_calls: u64,
    pub querying_s: f64,
    /// Queries the oracle answered with an LF.
    pub lfs_returned: u64,
    pub labelpick_calls: u64,
    pub labelpick_s: f64,
    /// LFs offered to LabelPick, summed over its calls.
    pub labelpick_lfs: u64,
    /// LFs LabelPick kept, summed over its calls.
    pub labelpick_selected: u64,
    pub lm_fit_s: f64,
    pub lm_predict_s: f64,
    pub al_fit_s: f64,
    pub al_predict_s: f64,
    /// Wall time of the replayed loop, spans and bookkeeping together.
    pub loop_s: f64,
}

impl StageTimes {
    /// Time covered by the stage spans.
    pub fn stage_sum(&self) -> f64 {
        self.sampling_s
            + self.querying_s
            + self.labelpick_s
            + self.lm_fit_s
            + self.lm_predict_s
            + self.al_fit_s
            + self.al_predict_s
    }

    pub fn add(&mut self, o: &StageTimes) {
        self.sampling_calls += o.sampling_calls;
        self.sampling_s += o.sampling_s;
        self.querying_calls += o.querying_calls;
        self.querying_s += o.querying_s;
        self.lfs_returned += o.lfs_returned;
        self.labelpick_calls += o.labelpick_calls;
        self.labelpick_s += o.labelpick_s;
        self.labelpick_lfs += o.labelpick_lfs;
        self.labelpick_selected += o.labelpick_selected;
        self.lm_fit_s += o.lm_fit_s;
        self.lm_predict_s += o.lm_predict_s;
        self.al_fit_s += o.al_fit_s;
        self.al_predict_s += o.al_predict_s;
        self.loop_s += o.loop_s;
    }
}

/// A session replayed through the public stages.
pub struct Shadow {
    data: SharedDataset,
    schedule: BudgetSchedule,
    budget: usize,
    use_labelpick: bool,
    parallel: bool,
    state: SessionState,
    sampling: SamplingStage,
    querying: QueryingStage,
    labelpick: LabelPick,
    label_model: Box<dyn LabelModel>,
    al_model: LogisticRegression,
    class_balance: Vec<f64>,
    pub times: StageTimes,
}

impl Shadow {
    /// Builds the stages `Engine::from_spec_over` would build. Only static
    /// scenarios with exact candidate scoring are supported: drift and the
    /// IVF index hook into the engine through crate-private calls.
    pub fn new(spec: &ScenarioSpec, data: SharedDataset) -> BenchResult<Shadow> {
        if spec.drift != DriftSpec::None || spec.session.candidates != CandidateStrategy::Exact {
            return Err("the shadow replays static, exact-scoring scenarios only".into());
        }
        let cfg = &spec.session;
        let n_classes = data.train.n_classes;
        Ok(Shadow {
            state: SessionState::new(&data),
            sampling: SamplingStage::from_config(cfg),
            querying: QueryingStage::new(&data, cfg.build_oracle()),
            labelpick: LabelPick::new(LabelPickConfig {
                parallel: cfg.labelpick.parallel && cfg.parallel,
                ..cfg.labelpick
            }),
            label_model: adp_labelmodel::make_model_with(cfg.label_model, n_classes, cfg.parallel),
            al_model: LogisticRegression::new(
                n_classes,
                adp_linalg::Features::ncols(&data.train.features),
                LogRegConfig {
                    parallel: cfg.al_logreg.parallel && cfg.parallel,
                    ..cfg.al_logreg
                },
            ),
            class_balance: data.valid.class_balance(),
            use_labelpick: cfg.use_labelpick,
            parallel: cfg.parallel,
            schedule: spec.schedule.clone(),
            budget: spec.budget,
            data,
            times: StageTimes::default(),
        })
    }

    pub fn state(&self) -> &SessionState {
        &self.state
    }

    /// Spends the budget under the schedule, like `Engine::run_schedule`.
    pub fn run_schedule(&mut self) -> BenchResult<()> {
        loop {
            let k = self
                .schedule
                .next_batch_at(self.state.iteration, self.budget);
            if k == 0 || !self.step_batch(k)? {
                return Ok(());
            }
        }
    }

    /// One batch: up to `k` queries, then one refit if any LF came back.
    /// Returns `false` when the pool ran out.
    pub fn step_batch(&mut self, k: usize) -> BenchResult<bool> {
        let start = Instant::now();
        let mut collected_lf = false;
        let mut more = true;
        for _ in 0..k {
            self.state.iteration += 1;
            let t = Instant::now();
            let query =
                self.sampling
                    .select(&self.data, self.querying.space(), &mut self.state, None);
            self.times.sampling_s += t.elapsed().as_secs_f64();
            self.times.sampling_calls += 1;
            let Some(query) = query else {
                more = false;
                break;
            };
            let t = Instant::now();
            let hint = self.state.al_probs_train.as_ref().map(|probs| {
                1.0 - probs[query]
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max)
            });
            let (lf, _route) = self
                .querying
                .query(&self.data, &mut self.state, query, hint)?;
            self.times.querying_s += t.elapsed().as_secs_f64();
            self.times.querying_calls += 1;
            if lf.is_some() {
                self.times.lfs_returned += 1;
                collected_lf = true;
            }
        }
        if collected_lf {
            self.refit()?;
        }
        self.times.loop_s += start.elapsed().as_secs_f64();
        Ok(more)
    }

    /// `TrainingStage::refit`, one span per layer.
    fn refit(&mut self) -> BenchResult<()> {
        let data = &self.data;
        let state = &mut self.state;
        let times = &mut self.times;

        let t = Instant::now();
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
        times.labelpick_s += t.elapsed().as_secs_f64();
        times.labelpick_calls += 1;
        times.labelpick_lfs += state.lfs.len() as u64;
        times.labelpick_selected += state.selected.len() as u64;

        if state.selected.is_empty() {
            state.lm_probs_train = None;
        } else {
            let t = Instant::now();
            let selected_train = state.train_matrix.select_columns(&state.selected)?;
            self.label_model
                .fit(&selected_train, Some(&self.class_balance))?;
            times.lm_fit_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let exec = if self.parallel {
                adp_linalg::parallel::auto(
                    selected_train.n_instances(),
                    adp_labelmodel::MIN_PARALLEL_PREDICT,
                )
            } else {
                Execution::Serial
            };
            state.lm_probs_train = Some(adp_labelmodel::predict_all_with(
                self.label_model.as_ref(),
                &selected_train,
                exec,
            ));
            times.lm_predict_s += t.elapsed().as_secs_f64();
        }

        if state.query_indices.is_empty() {
            state.al_probs_train = None;
        } else {
            let t = Instant::now();
            self.al_model.fit(
                &data.train.features,
                &state.query_indices,
                Targets::Hard(&state.pseudo_labels),
                None,
            )?;
            times.al_fit_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            state.al_probs_train = Some(self.al_model.predict_proba_all(&data.train.features));
            times.al_predict_s += t.elapsed().as_secs_f64();
        }
        Ok(())
    }
}
