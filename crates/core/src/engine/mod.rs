//! The staged ActiveDP engine — the crate's one API for running the loop.
//!
//! The training loop of paper Figure 1 is decomposed into four stages, each
//! an independently testable module operating on a shared
//! [`SessionState`]:
//!
//! 1. [`sampling`] — pick the next query instance (§3.3);
//! 2. [`querying`] — ask the oracle, fold the returned LF into the state
//!    (§3.1);
//! 3. [`training`] — LabelPick + label-model and AL-model refits (§3.4);
//! 4. [`inference`] — ConFusion aggregation and downstream evaluation
//!    (§3.2, run on demand rather than per iteration).
//!
//! [`Engine`] wires the stages together; samplers, label models and
//! classifiers plug in behind their existing traits, and the oracle is the
//! one the session's [`OracleKind`](crate::OracleKind) names. The engine
//! *owns* its dataset behind a [`SharedDataset`] handle and is
//! `Send + 'static`, so sessions can be stored in registries, moved across
//! threads, and served concurrently (see the `adp-serve` crate's
//! `SessionHub`). Construction goes through the validating
//! [`EngineBuilder`], and the `engine_matches_golden_trajectory`
//! integration test pins the staged loop to the pre-refactor trajectory
//! seed-for-seed.

pub mod builder;
pub mod inference;
pub mod querying;
pub mod sampling;
pub mod state;
pub mod training;

pub use builder::EngineBuilder;
pub use inference::EvalReport;
pub use querying::QueryingStage;
pub use sampling::SamplingStage;
pub use state::SessionState;
pub use training::{FittedParams, TrainingStage};

use crate::config::SessionConfig;
use crate::error::ActiveDpError;
use crate::event::StepEvent;
use crate::scenario::{BudgetSchedule, ScenarioSpec};
use adp_data::{DatasetSpec, DriftSpec, SharedDataset, SplitDataset};
use adp_lf::LabelFunction;
use adp_oracle::{RouteChoice, RoutedStep};

/// What one training iteration did.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// 1-based iteration number.
    pub iteration: usize,
    /// The query instance, or `None` when the pool was exhausted.
    pub query: Option<usize>,
    /// The LF the oracle returned, if any.
    pub lf: Option<LabelFunction>,
    /// Total LFs collected so far.
    pub n_lfs: usize,
    /// LFs currently selected by LabelPick.
    pub n_selected: usize,
    /// Which oracle answered, for dual-oracle sessions
    /// ([`OracleKind::Noisy`](crate::OracleKind)); `None` on plain
    /// simulated-user sessions and on pool-exhausted steps.
    pub route: Option<RouteChoice>,
}

/// What a bounded [`Engine::run_schedule_batches`] call accomplished.
#[derive(Debug, Clone)]
pub struct ScheduleRun {
    /// Every outcome the slice produced, in iteration order.
    pub outcomes: Vec<StepOutcome>,
    /// Schedule batches actually run (≤ the requested maximum).
    pub batches: usize,
    /// Whether the run is over: budget spent or pool exhausted. A
    /// not-done engine continues from its current batch boundary —
    /// directly, or after a snapshot/resume round trip.
    pub done: bool,
}

/// What [`Engine::run_cell`] measured on a finished cell: the quantities
/// the sweep's row carries, wall clock aside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSummary {
    /// Loop iterations consumed (≤ budget when the pool ran dry).
    pub iterations: usize,
    /// Refit batches the consumed iterations span.
    pub refits: usize,
    /// Final downstream test accuracy.
    pub test_accuracy: f64,
    /// Fraction of routed queries the cheap oracle answered; 0 for plain
    /// simulated sessions.
    pub cheap_fraction: f64,
    /// Total routed labelling cost across both oracles; 0 for simulated
    /// sessions.
    pub routed_cost: f64,
    /// Post-drift accuracy recovery: final accuracy minus the accuracy at
    /// the drift boundary. 0 when the run had no boundary to pause at.
    pub recovery: f64,
}

/// Per-step instrumentation hook.
///
/// Observers registered on an [`Engine`] (via
/// [`EngineBuilder::observer`] or [`Engine::add_observer`]) see every
/// [`StepOutcome`] right after it is produced — from both [`Engine::step`]
/// and [`Engine::step_batch`] — without participating in the trajectory.
/// Any `FnMut(&StepOutcome) + Send` closure is an observer.
pub trait StepObserver: Send {
    /// Called once per completed loop iteration.
    fn on_step(&mut self, outcome: &StepOutcome);

    /// Whether this observer also wants replayable [`StepEvent`]s. The
    /// engine captures events (RNG positions included) only when at least
    /// one registered observer returns `true`, so plain instrumentation
    /// observers cost nothing extra. Defaults to `false`.
    fn wants_events(&self) -> bool {
        false
    }

    /// Called once per completed loop iteration with the iteration's
    /// replayable [`StepEvent`] — after every [`StepObserver::on_step`] of
    /// the same `step()`/`step_batch()` call — on observers whose
    /// [`StepObserver::wants_events`] is `true`. This is the journalling
    /// seam: the `adp-wal` crate's writer is such an observer.
    fn on_event(&mut self, event: &StepEvent) {
        let _ = event;
    }
}

impl<F: FnMut(&StepOutcome) + Send> StepObserver for F {
    fn on_step(&mut self, outcome: &StepOutcome) {
        self(outcome)
    }
}

/// The staged ActiveDP engine: sampling → querying → training per step,
/// inference on demand.
///
/// The engine owns everything it runs over — the dataset (behind a cheap
/// [`SharedDataset`] handle), the oracle, the sampler and the models — and
/// is therefore `Send + 'static`: it can be boxed into a registry, handed
/// to a worker thread, or kept alive long after its creator returned.
/// Build one with [`Engine::builder`].
pub struct Engine {
    data: SharedDataset,
    config: SessionConfig,
    schedule: BudgetSchedule,
    budget: usize,
    /// The scenario's streaming mutation, if any (see
    /// [`DriftSpec`]). Applied lazily at its refit boundary: `data` holds
    /// the base split until then, the mutated one after.
    drift: DriftSpec,
    /// Whether the drift boundary has been crossed and `data` swapped.
    drift_applied: bool,
    /// Dataset provenance — what makes the session describable as a
    /// [`ScenarioSpec`] and therefore snapshottable.
    dataset_spec: DatasetSpec,
    state: SessionState,
    sampling: SamplingStage,
    querying: QueryingStage,
    training: TrainingStage,
    observers: Vec<Box<dyn StepObserver>>,
}

impl Engine {
    /// Starts a validating [`EngineBuilder`] over `data` (an owned
    /// [`SplitDataset`] or an existing [`SharedDataset`] handle).
    ///
    /// ```
    /// # use activedp::Engine;
    /// # use adp_data::{generate, DatasetId, Scale};
    /// let data = generate(DatasetId::Youtube, Scale::Tiny, 7).unwrap();
    /// let engine = Engine::builder(data).seed(7).build().unwrap();
    /// ```
    pub fn builder(data: impl Into<SharedDataset>) -> EngineBuilder {
        EngineBuilder::new(data)
    }

    /// **The one true constructor**: builds the engine a [`ScenarioSpec`]
    /// describes, generating the dataset from the spec's provenance. Every
    /// other construction path — [`EngineBuilder::build`], the serving
    /// hub's `create_from_spec`, the `adp-sweep` grid runner — routes
    /// through the same assembly, so a spec always means the same run.
    ///
    /// ```
    /// # use activedp::{Engine, ScenarioSpec};
    /// # use adp_data::{DatasetId, DatasetSpec, Scale};
    /// let spec = ScenarioSpec::new(DatasetSpec {
    ///     id: DatasetId::Youtube,
    ///     scale: Scale::Tiny,
    ///     seed: 7,
    /// });
    /// let engine = Engine::from_spec(spec.clone()).unwrap();
    /// assert_eq!(engine.scenario(), spec);
    /// ```
    pub fn from_spec(spec: ScenarioSpec) -> Result<Engine, ActiveDpError> {
        let data = spec
            .dataset
            .generate()
            .map_err(|e| ActiveDpError::BadConfig {
                reason: format!("dataset spec failed to generate: {e}"),
            })?
            .into_shared();
        Engine::from_spec_over(spec, data)
    }

    /// [`Engine::from_spec`] over an already-generated split — the
    /// cache-friendly path (the serving hub shares one [`SharedDataset`]
    /// between all sessions naming the same dataset spec). The split's
    /// recorded provenance must equal `spec.dataset`; handing in a
    /// different (or hand-built, provenance-less) split is rejected, since
    /// the spec would then misdescribe the run. This is the single assembly
    /// point underneath every constructor: it validates the spec, builds
    /// the oracle with [`SessionConfig::build_oracle`] (the simulated user,
    /// or the router over it under [`OracleKind::Noisy`](crate::OracleKind)),
    /// and wires the stages.
    pub fn from_spec_over(
        spec: ScenarioSpec,
        data: SharedDataset,
    ) -> Result<Engine, ActiveDpError> {
        if data.provenance != Some(spec.dataset) {
            return Err(ActiveDpError::BadConfig {
                reason: format!(
                    "dataset provenance {:?} does not match the scenario's {:?}",
                    data.provenance, spec.dataset
                ),
            });
        }
        let ScenarioSpec {
            dataset: dataset_spec,
            session: config,
            schedule,
            budget,
            drift,
        } = spec;
        config.validate()?;
        schedule.validate()?;
        drift
            .validate(data.is_textual())
            .map_err(|reason| ActiveDpError::BadConfig { reason })?;
        if let Some(at) = drift.boundary() {
            if !schedule.is_batch_boundary(at, budget) {
                return Err(ActiveDpError::BadConfig {
                    reason: format!(
                        "drift boundary {at} is not a refit boundary of schedule {} under budget \
                         {budget}",
                        schedule.label()
                    ),
                });
            }
        }
        Ok(Engine {
            state: SessionState::new(&data),
            sampling: SamplingStage::from_config(&config),
            querying: QueryingStage::new(&data, config.build_oracle()),
            training: TrainingStage::from_config(&data, &config),
            data,
            config,
            schedule,
            budget,
            drift,
            drift_applied: false,
            dataset_spec,
            observers: Vec::new(),
        })
    }

    /// Rebuilds the session a snapshot describes, regenerating the dataset
    /// from the spec embedded in the snapshot — the full round trip:
    /// `spec → engine → snapshot → bytes → Engine::resume` needs nothing
    /// but the bytes. Use [`EngineBuilder::resume`] instead when the
    /// dataset is already in hand (e.g. from a shared cache).
    pub fn resume(snapshot: crate::SessionSnapshot) -> Result<Engine, ActiveDpError> {
        let data = snapshot
            .spec
            .dataset
            .generate()
            .map_err(|e| ActiveDpError::BadConfig {
                reason: format!("snapshot's dataset spec failed to generate: {e}"),
            })?
            .into_shared();
        EngineBuilder::new(data).resume(snapshot)
    }

    /// Point-in-time recovery: rebuilds the session exactly as it stood at
    /// commit point `k`, from a `checkpoint` snapshot taken at some
    /// iteration `j ≤ k` plus the journalled [`StepEvent`]s covering
    /// `j+1 ..= k`. The result is **bitwise identical** — state, RNG
    /// streams, and any snapshot taken from it — to an uninterrupted run
    /// stopped at `k` (pinned by `tests/wal_replay_parity.rs`).
    ///
    /// The dataset regenerates from the checkpoint's spec; use
    /// [`Engine::replay_to_over`] when the split is already in hand.
    /// `events` may extend beyond `k` (later ones are ignored) and start
    /// before `j` (covered ones are skipped); gaps, duplicates, targets
    /// that are not commit points, and events contradicting the folded
    /// state are [`ActiveDpError::Replay`] errors.
    pub fn replay_to(
        checkpoint: &crate::SessionSnapshot,
        events: &[StepEvent],
        k: usize,
    ) -> Result<Engine, ActiveDpError> {
        let data = checkpoint
            .spec
            .dataset
            .generate()
            .map_err(|e| ActiveDpError::BadConfig {
                reason: format!("checkpoint's dataset spec failed to generate: {e}"),
            })?
            .into_shared();
        Engine::replay_to_over(checkpoint, events, k, data)
    }

    /// [`Engine::replay_to`] over an already-generated split (the serving
    /// hub's cache-friendly path).
    pub fn replay_to_over(
        checkpoint: &crate::SessionSnapshot,
        events: &[StepEvent],
        k: usize,
        data: SharedDataset,
    ) -> Result<Engine, ActiveDpError> {
        let synth = crate::replay::replay_snapshot(checkpoint, &data, events, k)?;
        // The fold carries the checkpoint's parameters forward. They are
        // still the live ones unless an LF was folded in; then one RNG-free
        // refit redoes the original run's last refit instead.
        let refit = synth.state.lfs.len() > checkpoint.state.lfs.len();
        EngineBuilder::new(data).restore(synth, refit)
    }

    /// The dataset split the engine runs over.
    pub fn data(&self) -> &SplitDataset {
        &self.data
    }

    /// A clonable handle to the dataset split, for sharing with other
    /// sessions or threads.
    pub fn shared_data(&self) -> SharedDataset {
        self.data.clone()
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// How [`Engine::run_schedule`] spends the labelling budget.
    pub fn schedule(&self) -> &BudgetSchedule {
        &self.schedule
    }

    /// The total labelling budget [`Engine::run_schedule`] drives.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The complete declarative description of this session: every engine
    /// is built from one (see [`Engine::from_spec_over`]).
    pub fn scenario(&self) -> ScenarioSpec {
        ScenarioSpec {
            dataset: self.dataset_spec,
            session: self.config.clone(),
            schedule: self.schedule.clone(),
            budget: self.budget,
            drift: self.drift,
        }
    }

    /// The scenario's streaming mutation (see [`DriftSpec`]).
    pub fn drift(&self) -> DriftSpec {
        self.drift
    }

    /// The router's accumulated per-oracle cost ledger, when the session
    /// routes between two oracles
    /// ([`OracleKind::Noisy`](crate::OracleKind)); `None` for plain
    /// simulated-user sessions.
    pub fn route_stats(&self) -> Option<adp_oracle::RouteStats> {
        self.querying.route_stats()
    }

    /// The shared loop state (read-only; the stages own mutation).
    pub fn state(&self) -> &SessionState {
        &self.state
    }

    /// Registers a per-step instrumentation hook (see [`StepObserver`]).
    pub fn add_observer(&mut self, observer: impl StepObserver + 'static) {
        self.observers.push(Box::new(observer));
    }

    /// One training iteration of Figure 1 (left): sampling → querying →
    /// training — the single outcome of `step_batch(1)`.
    pub fn step(&mut self) -> Result<StepOutcome, ActiveDpError> {
        let outcome = self.step_batch(1)?.pop();
        Ok(outcome.expect("a batch of one yields one outcome"))
    }

    /// Batched stepping: samples and queries up to `k` instances against
    /// the *current* models, then refits once.
    ///
    /// Each drawn query still consumes one loop iteration and produces one
    /// [`StepOutcome`], but LabelPick and the model refits run a single
    /// time at the end of the batch — the batching the ROADMAP's
    /// budget/latency studies trade accuracy-per-refit against. Because the
    /// per-outcome counters are read after that one refit,
    /// `step_batch(1)` is the paper's one-query-per-refit step
    /// ([`Engine::step`] is exactly that).
    ///
    /// The batch stops early when the pool is exhausted (final outcome has
    /// `query: None`, matching [`Engine::step`]). `k = 0` is a no-op.
    pub fn step_batch(&mut self, k: usize) -> Result<Vec<StepOutcome>, ActiveDpError> {
        // The batch can never outgrow the pool (plus one exhaustion
        // outcome), so cap the pre-allocation — callers may pass huge `k`
        // to mean "run to exhaustion".
        #[allow(clippy::type_complexity)]
        let mut drawn: Vec<(
            usize,
            Option<usize>,
            Option<LabelFunction>,
            Option<RouteChoice>,
        )> = Vec::with_capacity(k.min(self.data.train.len() + 1));
        let mut events: Vec<StepEvent> = Vec::new();
        let mut collected_lf = false;
        for _ in 0..k {
            self.maybe_apply_drift();
            self.state.iteration += 1;
            let visible = self.visible_len();
            let query =
                self.sampling
                    .select(&self.data, self.querying.space(), &mut self.state, visible);
            let Some(query) = query else {
                events.extend(self.capture_event(self.state.iteration, None, None, false, None));
                drawn.push((self.state.iteration, None, None, None));
                break;
            };
            let hint = self.uncertainty_hint(query);
            let (lf, route) = self
                .querying
                .query(&self.data, &mut self.state, query, hint)?;
            collected_lf |= lf.is_some();
            // Events capture the RNG positions *at this iteration* — the
            // end-of-batch refit below draws none, so the last event's
            // positions equal a post-batch snapshot's.
            events.extend(self.capture_event(
                self.state.iteration,
                Some(query),
                lf.as_ref(),
                false,
                route,
            ));
            drawn.push((self.state.iteration, Some(query), lf, route));
        }
        if collected_lf {
            self.training.refit(&self.data, &mut self.state)?;
        }
        // Mid-batch state is not resumable (the refit has not run for it);
        // only the batch's final iteration is a commit point.
        if let Some(last) = events.last_mut() {
            last.commit = true;
        }
        let outcomes: Vec<StepOutcome> = drawn
            .into_iter()
            .map(|(iteration, query, lf, route)| self.outcome(iteration, query, lf, route))
            .collect();
        self.notify(&outcomes);
        self.notify_events(&events);
        Ok(outcomes)
    }

    /// Runs up to `iterations` training steps, returning early once the
    /// pool is exhausted for good: a step that finds no query while the
    /// whole pool is visible. Under [`DriftSpec::ArrivingPool`] an empty
    /// visible prefix is not terminal while later rows may still arrive,
    /// i.e. until the budget's last batch has completed.
    pub fn run(&mut self, iterations: usize) -> Result<(), ActiveDpError> {
        for _ in 0..iterations {
            let exhausted = self.step()?.query.is_none();
            // `visible_len` reads the iteration just stepped, so it is the
            // window that step sampled from; it counts batches completed
            // before that iteration, which stop growing past the budget.
            let window_final = self.state.iteration > self.budget
                || self
                    .visible_len()
                    .map_or(true, |v| v >= self.data.train.len());
            if exhausted && window_final {
                break;
            }
        }
        Ok(())
    }

    /// Spends the scenario's labelling budget under its
    /// [`BudgetSchedule`]: repeatedly draws the schedule's next batch
    /// (via [`Engine::step_batch`]) until [`Engine::budget`] iterations
    /// are done or the pool is exhausted, and returns every outcome.
    ///
    /// `FixedStep` (and `FixedBatch{k: 1}`) reproduce the paper's
    /// one-query-per-refit loop **bitwise** — same trajectory as calling
    /// [`Engine::step`] `budget` times (pinned by
    /// `tests/engine_parity.rs`). Batch boundaries are aligned to absolute
    /// iteration numbers, so a session resumed at a refit boundary
    /// continues the schedule exactly where it stopped.
    pub fn run_schedule(&mut self) -> Result<Vec<StepOutcome>, ActiveDpError> {
        Ok(self.run_schedule_batches(usize::MAX)?.outcomes)
    }

    /// Runs at most `max_batches` schedule batches — a bounded slice of
    /// [`Engine::run_schedule`], for callers that time or pause a run per
    /// batch (the drift-boundary pause in [`Engine::run_cell`], per-refit
    /// latency benches). The engine stops on a batch boundary, where it
    /// can snapshot; a resumed engine continues the schedule exactly where
    /// it stopped because batch boundaries are aligned to absolute
    /// iteration numbers. Slicing is invisible to the
    /// trajectory: any partition of a run into `run_schedule_batches`
    /// calls (with snapshot/resume between them or not) is bitwise
    /// identical to one uninterrupted [`Engine::run_schedule`].
    ///
    /// `done` is `true` once the budget is spent or the pool is exhausted
    /// — after which further calls run zero batches.
    pub fn run_schedule_batches(
        &mut self,
        max_batches: usize,
    ) -> Result<ScheduleRun, ActiveDpError> {
        let mut run = ScheduleRun {
            outcomes: Vec::with_capacity(self.budget.min(self.data.train.len() + 1)),
            batches: 0,
            done: false,
        };
        while run.batches < max_batches {
            let k = self
                .schedule
                .next_batch_at(self.state.iteration, self.budget);
            if k == 0 {
                run.done = true;
                return Ok(run);
            }
            let batch = self.step_batch(k)?;
            run.batches += 1;
            let exhausted = batch.last().is_some_and(|o| o.query.is_none());
            run.outcomes.extend(batch);
            if exhausted {
                run.done = true;
                return Ok(run);
            }
        }
        // The batch cap hit first; the budget may still be unspent. Probe
        // so a slice that happened to end exactly on the budget reports
        // `done` without costing the caller another call.
        run.done = self
            .schedule
            .next_batch_at(self.state.iteration, self.budget)
            == 0;
        Ok(run)
    }

    /// Runs one sweep cell: the scenario's schedule to the end, then the
    /// final evaluation.
    ///
    /// A fresh engine pauses at the drift boundary and evaluates there,
    /// the baseline [`CellSummary::recovery`] measures from. The boundary
    /// is a batch boundary and evaluation draws no session randomness, so
    /// the paused trajectory is bitwise the one that never paused. An
    /// engine already past iteration 0 cannot see the boundary accuracy
    /// and reports no recovery.
    pub fn run_cell(&mut self) -> Result<CellSummary, ActiveDpError> {
        let boundary = self.drift.boundary().filter(|&at| at < self.budget);
        let boundary_accuracy = match boundary {
            Some(at) if self.state.iteration == 0 => {
                self.run_schedule_batches(self.schedule.n_batches(at))?;
                Some(self.evaluate_downstream()?.test_accuracy)
            }
            _ => None,
        };
        self.run_schedule()?;
        let report = self.evaluate_downstream()?;
        let iterations = self.state.iteration;
        let stats = self.route_stats();
        Ok(CellSummary {
            iterations,
            refits: self.schedule.batch_sizes(iterations).len(),
            test_accuracy: report.test_accuracy,
            cheap_fraction: stats.map_or(0.0, |s| s.cheap_fraction()),
            routed_cost: stats.map_or(0.0, |s| s.total_cost()),
            recovery: boundary_accuracy.map_or(0.0, |a| report.test_accuracy - a),
        })
    }

    /// Captures everything needed to resume this session later — the full
    /// [`ScenarioSpec`] (dataset provenance included), the loop state that
    /// cannot be derived, the fitted model parameters and the RNG stream
    /// positions — as plain data whose size does not grow with the pool
    /// (see [`SessionSnapshot`](crate::SessionSnapshot)).
    ///
    /// Resuming via [`Engine::resume`] (or [`EngineBuilder::resume`] over
    /// a dataset already in hand) and running the remaining iterations is
    /// **bitwise identical** to never having stopped (pinned by
    /// `tests/engine_parity.rs`). Every engine can snapshot.
    pub fn snapshot(&self) -> Result<crate::SessionSnapshot, ActiveDpError> {
        let state = &self.state;
        Ok(crate::SessionSnapshot {
            spec: self.scenario(),
            state: crate::PersistedState {
                lfs: state.lfs.clone(),
                queried: (0..state.queried.len())
                    .filter(|&row| state.queried[row])
                    .collect(),
                query_indices: state.query_indices.clone(),
                pseudo_labels: state.pseudo_labels.clone(),
                selected: state.selected.clone(),
                iteration: state.iteration,
                fitted_at: self.training.fitted_at,
                params: self.training.params(state),
            },
            sampler_rng: self.sampling.rng_state(),
            oracle: self.querying.oracle_state(),
            routed: self.querying.routed_state(),
        })
    }

    /// Inference phase: tunes τ on the validation split (when ConFusion is
    /// enabled) and aggregates labels for the training pool.
    pub fn aggregate_train_labels(
        &self,
    ) -> Result<crate::confusion::AggregatedLabels, ActiveDpError> {
        inference::aggregate_train_labels(&self.data, &self.config, &self.training, &self.state)
    }

    /// Trains the downstream model on the aggregated labels and evaluates
    /// it on the test split.
    pub fn evaluate_downstream(&self) -> Result<EvalReport, ActiveDpError> {
        inference::evaluate_downstream(&self.data, &self.config, &self.training, &self.state)
    }

    fn outcome(
        &self,
        iteration: usize,
        query: Option<usize>,
        lf: Option<LabelFunction>,
        route: Option<RouteChoice>,
    ) -> StepOutcome {
        StepOutcome {
            iteration,
            query,
            lf,
            n_lfs: self.state.lfs.len(),
            n_selected: self.state.selected.len(),
            route,
        }
    }

    /// The arrival window under [`DriftSpec::ArrivingPool`] — how many
    /// leading pool instances the sampler may see at the current iteration
    /// (see [`DriftSpec::visible_len`]); `None` for every other scenario.
    /// Called after the iteration increment, so "completed" counts the
    /// iterations before the one being sampled.
    fn visible_len(&self) -> Option<usize> {
        self.drift.visible_len(
            self.data.train.len(),
            self.schedule
                .batches_completed_at(self.state.iteration.saturating_sub(1), self.budget),
        )
    }

    /// The AL model's uncertainty about `query` — `1 − max p(y|x)`, the
    /// quantity [`RoutePolicy::UncertaintyThreshold`](crate::RoutePolicy)
    /// splits on. `None` before the first fit (threshold policies then
    /// route to the expensive oracle).
    fn uncertainty_hint(&self, query: usize) -> Option<f64> {
        self.state.al_probs_train.as_ref().map(|probs| {
            1.0 - probs[query]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        })
    }

    /// Swaps in the drifted pool once the boundary is crossed: called
    /// before each iteration increment, so the first iteration *after*
    /// `at` completed ones samples from the mutated pool — and the refit
    /// that closed iteration `at`'s batch still ran against the base pool,
    /// which is what makes a snapshot taken exactly at the boundary
    /// resume bitwise (see [`Engine::sync_drift`]).
    fn maybe_apply_drift(&mut self) {
        if !self.drift_applied
            && self
                .drift
                .boundary()
                .is_some_and(|at| self.state.iteration >= at)
        {
            self.apply_drift();
        }
    }

    /// Re-derives drift application when resuming a snapshot: a session
    /// past its boundary swaps the pool, one at or before it stays on the
    /// base pool (the swap happens lazily on its next step, exactly as it
    /// would have).
    pub(crate) fn sync_drift(&mut self) {
        if !self.drift_applied
            && self
                .drift
                .boundary()
                .is_some_and(|at| self.state.iteration > at)
        {
            self.apply_drift();
        }
    }

    fn apply_drift(&mut self) {
        self.swap_pool();
        if matches!(self.drift, DriftSpec::CovariateDrift { .. }) {
            // Feature drift changes every LF's votes. (Label shift leaves
            // votes untouched — LFs read features only.)
            self.state.rebuild_matrices(&self.data);
        }
    }

    /// Swaps in the drifted pool and what derives from it — the candidate
    /// space and the class balance — but not the vote matrices.
    pub(crate) fn swap_pool(&mut self) {
        let drifted = self
            .drift
            .apply(&self.data)
            .expect("a drift with a boundary always mutates the pool");
        self.data = drifted.into_shared();
        self.querying.rebuild_space(&self.data);
        self.training.refresh_balance(&self.data);
        self.drift_applied = true;
    }

    fn notify(&mut self, outcomes: &[StepOutcome]) {
        for outcome in outcomes {
            for observer in &mut self.observers {
                observer.on_step(outcome);
            }
        }
    }

    /// Whether any registered observer asked for replayable events.
    fn events_wanted(&self) -> bool {
        self.observers.iter().any(|o| o.wants_events())
    }

    /// Builds the [`StepEvent`] for one completed iteration, or `None`
    /// when no observer wants events.
    fn capture_event(
        &self,
        iteration: usize,
        query: Option<usize>,
        lf: Option<&LabelFunction>,
        commit: bool,
        route: Option<RouteChoice>,
    ) -> Option<StepEvent> {
        if !self.events_wanted() {
            return None;
        }
        let oracle_rng = self.querying.oracle_rng_words();
        // Which oracle answered, and where the cheap stream ended up — what
        // replay needs to reposition both sides of the router bitwise.
        let route = route.and_then(|choice| {
            self.querying
                .cheap_rng_words()
                .map(|cheap_rng| RoutedStep { choice, cheap_rng })
        });
        Some(StepEvent {
            iteration,
            query,
            lf: lf.cloned(),
            sampler_rng: self.sampling.rng_state(),
            oracle_rng,
            commit,
            route,
        })
    }

    fn notify_events(&mut self, events: &[StepEvent]) {
        for event in events {
            for observer in &mut self.observers {
                if observer.wants_events() {
                    observer.on_event(event);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SamplerChoice;
    use adp_data::{generate, DatasetId, Scale};
    use std::sync::mpsc;

    fn tiny(seed: u64) -> SharedDataset {
        generate(DatasetId::Youtube, Scale::Tiny, seed)
            .unwrap()
            .into_shared()
    }

    #[test]
    fn engine_runs_and_evaluates() {
        let mut e = Engine::builder(tiny(5)).seed(5).build().unwrap();
        e.run(10).unwrap();
        assert_eq!(e.state().iteration, 10);
        assert!(!e.state().lfs.is_empty());
        let r = e.evaluate_downstream().unwrap();
        assert!((0.0..=1.0).contains(&r.test_accuracy));
    }

    fn tiny_of(id: DatasetId) -> SharedDataset {
        generate(id, Scale::Tiny, 42)
            .expect("tiny dataset generates")
            .into_shared()
    }

    fn build(data: &SharedDataset, config: SessionConfig) -> Engine {
        Engine::builder(data.clone())
            .config(config)
            .build()
            .unwrap()
    }

    fn run_session(
        data: &SharedDataset,
        config: SessionConfig,
        iters: usize,
    ) -> (EvalReport, usize) {
        let mut e = build(data, config);
        e.run(iters).unwrap();
        let n_lfs = e.state().lfs.len();
        (e.evaluate_downstream().unwrap(), n_lfs)
    }

    #[test]
    fn text_session_learns_something() {
        let data = tiny_of(DatasetId::Youtube);
        let cfg = SessionConfig::paper_defaults(true, 3);
        let (report, n_lfs) = run_session(&data, cfg, 25);
        assert!(n_lfs > 5, "only {n_lfs} LFs collected");
        assert!(report.downstream_trained);
        assert!(
            report.label_coverage > 0.3,
            "coverage {}",
            report.label_coverage
        );
        // Well above chance on an easy dataset.
        assert!(
            report.test_accuracy > 0.6,
            "test accuracy {}",
            report.test_accuracy
        );
        assert!(report.threshold.is_some());
    }

    #[test]
    fn tabular_session_learns_something() {
        let data = tiny_of(DatasetId::Occupancy);
        let cfg = SessionConfig::paper_defaults(false, 2);
        let (report, n_lfs) = run_session(&data, cfg, 25);
        assert!(n_lfs > 5);
        assert!(
            report.test_accuracy > 0.7,
            "test accuracy {}",
            report.test_accuracy
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let data = tiny_of(DatasetId::Youtube);
        let run = |seed| {
            let mut e = build(&data, SessionConfig::paper_defaults(true, seed));
            e.run(15).unwrap();
            let r = e.evaluate_downstream().unwrap();
            (e.state().lfs.len(), r.test_accuracy, r.label_coverage)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn ablation_switches_change_behaviour() {
        let data = tiny_of(DatasetId::Youtube);
        let full = SessionConfig::paper_defaults(true, 3);
        let baseline = SessionConfig::ablation_baseline(true, 3);
        let confusion_only = SessionConfig {
            use_labelpick: false,
            ..SessionConfig::paper_defaults(true, 3)
        };
        let (r_full, _) = run_session(&data, full, 20);
        let (r_base, _) = run_session(&data, baseline, 20);
        let (r_conf, _) = run_session(&data, confusion_only, 20);
        assert!(r_full.threshold.is_some());
        assert!(r_base.threshold.is_none());
        // With the same LF set (LabelPick off in both), ConFusion's covered
        // set {conf >= tau} ∪ {has vote} is a superset of the baseline's
        // {has vote}.
        assert!(r_conf.label_coverage >= r_base.label_coverage - 1e-9);
    }

    #[test]
    fn all_sampler_choices_run() {
        let data = tiny_of(DatasetId::Youtube);
        for sampler in [
            SamplerChoice::Adp,
            SamplerChoice::Passive,
            SamplerChoice::Uncertainty,
            SamplerChoice::Lal,
            SamplerChoice::Seu,
            SamplerChoice::Qbc,
        ] {
            let cfg = SessionConfig {
                sampler,
                ..SessionConfig::paper_defaults(true, 4)
            };
            let mut e = build(&data, cfg);
            e.run(8).unwrap();
            assert!(e.state().iteration == 8, "{}", sampler.label());
        }
    }

    #[test]
    fn pool_exhaustion_is_graceful() {
        let data = tiny_of(DatasetId::Youtube);
        let n = data.train.len();
        let mut e = build(&data, SessionConfig::paper_defaults(true, 5));
        e.run(n + 10).unwrap();
        // Steps past exhaustion return query=None without erroring.
        let out = e.step().unwrap();
        assert!(out.query.is_none());
        assert!(e.evaluate_downstream().is_ok());
    }

    #[test]
    fn run_returns_at_pool_exhaustion() {
        let data = tiny(5);
        let n = data.train.len();
        let (tx, rx) = mpsc::channel();
        let mut e = Engine::builder(data)
            .seed(5)
            .observer(move |o: &StepOutcome| tx.send(o.query).unwrap())
            .build()
            .unwrap();
        e.run(100 * n).unwrap();
        let seen: Vec<Option<usize>> = rx.try_iter().collect();
        assert!(
            seen.len() <= n + 1,
            "{} steps over a pool of {n}",
            seen.len()
        );
        assert_eq!(e.state().iteration, seen.len());
        assert_eq!(seen.last(), Some(&None));
        assert!(seen[..seen.len() - 1].iter().all(Option::is_some));
    }

    #[test]
    fn run_waits_for_arriving_rows_past_a_visible_prefix_exhaustion() {
        // Half the pool is visible at first and one more row arrives per
        // completed batch of 4, so single steps exhaust the visible prefix
        // long before the pool has fully arrived.
        let data = tiny(5);
        let n = data.train.len();
        let arriving = || {
            Engine::builder(data.clone())
                .seed(5)
                .schedule(BudgetSchedule::FixedBatch { k: 4 })
                .budget(4 * n)
                .drift(DriftSpec::ArrivingPool { per_refit: 1 })
                .build()
                .unwrap()
        };
        let (mut stepped, mut ran) = (arriving(), arriving());
        let iters = 3 * n;
        let queries: Vec<Option<usize>> =
            (0..iters).map(|_| stepped.step().unwrap().query).collect();
        let first_none = queries.iter().position(Option::is_none).unwrap();
        assert!(first_none < n, "the visible prefix runs dry first");
        assert!(
            queries[first_none..].iter().any(Option::is_some),
            "rows arriving after the prefix ran dry are still queried"
        );
        // `run` keeps going past the early `None`s: same queries as
        // stepping, and every row of the pool is queried in the end.
        ran.run(iters).unwrap();
        assert_eq!(ran.state().query_indices, stepped.state().query_indices);
        assert!(ran.state().queried.iter().all(|&q| q));
        // Once the whole pool has arrived and been queried, it stops.
        assert!(ran.state().iteration < iters);

        // A budget that ends before the pool has fully arrived freezes
        // the window (n/2 + 2 rows): `run` stops once it is queried.
        let mut frozen = Engine::builder(data.clone())
            .seed(5)
            .schedule(BudgetSchedule::FixedBatch { k: 4 })
            .budget(8)
            .drift(DriftSpec::ArrivingPool { per_refit: 1 })
            .build()
            .unwrap();
        frozen.run(100 * n).unwrap();
        let window = n.div_ceil(2) + 2;
        let queried = frozen.state().queried.iter().filter(|&&q| q).count();
        assert_eq!(queried, window);
        assert!(frozen.state().iteration <= window + 1);
    }

    #[test]
    fn rejects_invalid_config() {
        let data = tiny_of(DatasetId::Youtube);
        let mut cfg = SessionConfig::paper_defaults(true, 0);
        cfg.alpha = 1.5;
        assert!(Engine::builder(data.clone()).config(cfg).build().is_err());
        let mut cfg = SessionConfig::paper_defaults(true, 0);
        cfg.noise_rate = -0.1;
        assert!(Engine::builder(data).config(cfg).build().is_err());
    }

    #[test]
    fn label_noise_degrades_label_quality() {
        let data = tiny_of(DatasetId::Youtube);
        let clean = SessionConfig::paper_defaults(true, 6);
        let noisy = SessionConfig {
            noise_rate: 0.5,
            ..SessionConfig::paper_defaults(true, 6)
        };
        let (r_clean, _) = run_session(&data, clean, 30);
        let (r_noisy, _) = run_session(&data, noisy, 30);
        let a_clean = r_clean.label_accuracy.unwrap_or(0.0);
        let a_noisy = r_noisy.label_accuracy.unwrap_or(0.0);
        assert!(
            a_clean > a_noisy,
            "clean {a_clean:.3} should beat noisy {a_noisy:.3}"
        );
    }

    #[test]
    fn pseudo_labels_match_lf_votes() {
        let data = tiny_of(DatasetId::Youtube);
        let mut e = build(&data, SessionConfig::paper_defaults(true, 8));
        e.run(15).unwrap();
        let state = e.state();
        for ((qi, pseudo), lf) in state.pseudo_labelled().zip(&state.lfs) {
            assert_eq!(lf.apply(&data.train, qi) as usize, pseudo);
        }
    }

    #[test]
    fn evaluation_before_any_step_is_defined() {
        let data = tiny_of(DatasetId::Youtube);
        let e = build(&data, SessionConfig::paper_defaults(true, 9));
        let r = e.evaluate_downstream().unwrap();
        assert!(!r.downstream_trained || r.label_coverage > 0.0);
        assert!(r.test_accuracy >= 0.0 && r.test_accuracy <= 1.0);
    }

    #[test]
    fn step_batch_refits_once_per_batch() {
        let data = tiny(5);
        let mut batched = Engine::builder(data.clone()).seed(5).build().unwrap();
        let outcomes = batched.step_batch(6).unwrap();
        assert_eq!(outcomes.len(), 6);
        assert_eq!(batched.state().iteration, 6);
        // All outcomes in one batch report the state after the single refit.
        let last = outcomes.last().unwrap();
        for o in &outcomes {
            assert_eq!(o.n_lfs, last.n_lfs);
            assert_eq!(o.n_selected, last.n_selected);
        }
        assert!(batched.evaluate_downstream().is_ok());
    }

    #[test]
    fn run_schedule_batches_slices_are_bitwise_equal_to_one_run() {
        let spec = {
            let mut s = ScenarioSpec::new(adp_data::DatasetSpec {
                id: DatasetId::Youtube,
                scale: Scale::Tiny,
                seed: 7,
            });
            s.session.seed = 5;
            s.schedule = crate::BudgetSchedule::FixedBatch { k: 4 };
            s.budget = 12;
            s
        };
        let data = spec.dataset.generate().unwrap().into_shared();
        let mut solo = Engine::from_spec_over(spec.clone(), data.clone()).unwrap();
        solo.run_schedule().unwrap();
        let solo_acc = solo.evaluate_downstream().unwrap().test_accuracy;

        // Same schedule driven in 1-batch slices with a snapshot/resume
        // round trip between every slice — a run paused and resumed at
        // every batch boundary.
        let mut sliced = Engine::from_spec_over(spec, data.clone()).unwrap();
        let mut slices = 0;
        loop {
            let run = sliced.run_schedule_batches(1).unwrap();
            slices += 1;
            if run.done {
                assert!(run.batches <= 1);
                break;
            }
            let snapshot = sliced.snapshot().unwrap();
            sliced = Engine::builder(data.clone()).resume(snapshot).unwrap();
        }
        assert_eq!(slices, 3, "12 budget / k=4 = 3 batches");
        assert_eq!(sliced.state().iteration, solo.state().iteration);
        let sliced_acc = sliced.evaluate_downstream().unwrap().test_accuracy;
        assert_eq!(sliced_acc.to_bits(), solo_acc.to_bits());

        // A spent engine reports done without running anything.
        let run = sliced.run_schedule_batches(1).unwrap();
        assert!(run.done);
        assert_eq!(run.batches, 0);
        assert!(run.outcomes.is_empty());
    }

    #[test]
    fn run_schedule_batches_reports_done_on_exact_final_slice() {
        let data = tiny(7);
        let mut e = Engine::builder(data).seed(5).budget(8).build().unwrap();
        // 8 budget under the default FixedStep schedule = 8 batches; a
        // max_batches that lands exactly on the budget must say done.
        let run = e.run_schedule_batches(8).unwrap();
        assert_eq!(run.batches, 8);
        assert!(run.done);
    }

    #[test]
    fn step_batch_zero_is_a_no_op() {
        let mut e = Engine::builder(tiny(5)).seed(5).build().unwrap();
        assert!(e.step_batch(0).unwrap().is_empty());
        assert_eq!(e.state().iteration, 0);
    }

    #[test]
    fn step_batch_stops_at_pool_exhaustion() {
        let data = tiny(5);
        let n = data.train.len();
        let mut e = Engine::builder(data).seed(5).build().unwrap();
        let outcomes = e.step_batch(n + 10).unwrap();
        assert!(outcomes.len() <= n + 1);
        assert!(outcomes.last().unwrap().query.is_none());
    }

    #[test]
    fn observers_see_every_step() {
        let (tx, rx) = mpsc::channel();
        let mut e = Engine::builder(tiny(5))
            .seed(5)
            .observer(move |o: &StepOutcome| tx.send(o.iteration).unwrap())
            .build()
            .unwrap();
        e.step().unwrap();
        e.step_batch(3).unwrap();
        let seen: Vec<usize> = rx.try_iter().collect();
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    struct EventTap(mpsc::Sender<StepEvent>);

    impl StepObserver for EventTap {
        fn on_step(&mut self, _outcome: &StepOutcome) {}
        fn wants_events(&self) -> bool {
            true
        }
        fn on_event(&mut self, event: &StepEvent) {
            self.0.send(event.clone()).unwrap();
        }
    }

    #[test]
    fn events_mirror_outcomes_with_commit_points_at_call_boundaries() {
        let (tx, rx) = mpsc::channel();
        let mut e = Engine::builder(tiny(5)).seed(5).build().unwrap();
        e.add_observer(EventTap(tx));
        let first = e.step().unwrap();
        let batch = e.step_batch(3).unwrap();
        let events: Vec<StepEvent> = rx.try_iter().collect();
        assert_eq!(
            events.iter().map(|e| e.iteration).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        // Only the last iteration of each step()/step_batch() call commits.
        assert_eq!(
            events.iter().map(|e| e.commit).collect::<Vec<_>>(),
            vec![true, false, false, true]
        );
        for (event, outcome) in events
            .iter()
            .zip(std::iter::once(&first).chain(batch.iter()))
        {
            assert_eq!(event.query, outcome.query);
            assert_eq!(event.lf, outcome.lf);
        }
        // The final event's RNG positions equal a post-call snapshot's —
        // the refit between capture and snapshot draws none.
        let snap = e.snapshot().unwrap();
        let last = events.last().unwrap();
        assert_eq!(last.sampler_rng, snap.sampler_rng);
        assert_eq!(last.oracle_rng, snap.oracle.rng);
    }

    #[test]
    fn events_are_not_captured_without_a_subscriber() {
        // A plain closure observer does not opt in to events, so the
        // engine skips capture entirely — and trajectories are unchanged.
        let mut plain = Engine::builder(tiny(5)).seed(5).build().unwrap();
        let mut tapped = Engine::builder(tiny(5)).seed(5).build().unwrap();
        let (tx, rx) = mpsc::channel();
        tapped.add_observer(EventTap(tx));
        plain.run(6).unwrap();
        tapped.run(6).unwrap();
        assert_eq!(rx.try_iter().count(), 6);
        assert_eq!(
            plain.snapshot().unwrap().to_bytes(),
            tapped.snapshot().unwrap().to_bytes()
        );
    }

    #[test]
    fn engine_can_outlive_and_change_threads() {
        // `Send + 'static` exercised for real: built on one thread, stepped
        // on another, with no borrow of the creating scope.
        let mut e = Engine::builder(tiny(5)).seed(5).build().unwrap();
        let handle = std::thread::spawn(move || {
            e.run(3).unwrap();
            e.state().iteration
        });
        assert_eq!(handle.join().unwrap(), 3);
    }
}
