//! Validating construction of the owned [`Engine`].
//!
//! The builder is the ergonomic construction path for engines: dataset
//! first, then the oracle kind, the sampler, the ablation switches, and
//! the seed last — mirroring how a session is described in the paper.
//! `Engine::builder(data).config(cfg).build()?` is the plain "run this
//! configuration" session every experiment drives. [`SessionConfig`]
//! stays the serialisable core underneath; the builder starts from
//! [`SessionConfig::paper_defaults`] for the dataset's modality and every
//! setter edits that config, so `.config(cfg)` followed by individual
//! overrides composes naturally.

use super::{Engine, StepObserver};
use crate::config::{SamplerChoice, SessionConfig};
use crate::error::ActiveDpError;
use crate::scenario::{BudgetSchedule, ScenarioSpec, DEFAULT_BUDGET};
use adp_data::{DriftSpec, SharedDataset};
use adp_labelmodel::LabelModelKind;
use adp_lf::LabelFunction;
use adp_oracle::OracleKind;

/// Builder for [`Engine`]: `Engine::builder(data).seed(7).build()?`.
///
/// The builder is an ergonomic layer over [`ScenarioSpec`]: every setter
/// edits one field of the declarative description, and
/// [`EngineBuilder::build`] hands the finished spec to the one true
/// constructor, [`Engine::from_spec_over`]. The dataset must therefore
/// carry its regenerable provenance (every [`adp_data::generate`]d split
/// does). Defaults: the paper
/// configuration for the dataset's modality
/// ([`SessionConfig::paper_defaults`]), the simulated user of §4.1.4 as the
/// oracle (seeded via [`SessionConfig::oracle_seed`]), seed 0, a
/// [`BudgetSchedule::FixedStep`] schedule and budget
/// [`DEFAULT_BUDGET`].
pub struct EngineBuilder {
    data: SharedDataset,
    config: SessionConfig,
    schedule: BudgetSchedule,
    budget: usize,
    drift: DriftSpec,
    observers: Vec<Box<dyn StepObserver>>,
}

impl EngineBuilder {
    /// Starts a builder over `data` (an owned `SplitDataset` or an existing
    /// [`SharedDataset`] handle).
    pub fn new(data: impl Into<SharedDataset>) -> Self {
        let data = data.into();
        let config = SessionConfig::paper_defaults(data.is_textual(), 0);
        EngineBuilder {
            data,
            config,
            schedule: BudgetSchedule::FixedStep,
            budget: DEFAULT_BUDGET,
            drift: DriftSpec::None,
            observers: Vec::new(),
        }
    }

    /// The [`ScenarioSpec`] this builder currently describes, when the
    /// dataset carries regenerable provenance (see [`Engine::scenario`]).
    pub fn scenario(&self) -> Option<ScenarioSpec> {
        self.data.provenance.map(|dataset| ScenarioSpec {
            dataset,
            session: self.config.clone(),
            schedule: self.schedule.clone(),
            budget: self.budget,
            drift: self.drift,
        })
    }

    /// Replaces the whole configuration core (modality defaults included).
    /// Setters called afterwards still apply on top.
    pub fn config(mut self, config: SessionConfig) -> Self {
        self.config = config;
        self
    }

    /// Chooses the query-instance selector (Table 4).
    pub fn sampler(mut self, sampler: SamplerChoice) -> Self {
        self.config.sampler = sampler;
        self
    }

    /// ADP sampler trade-off α (validated to `[0, 1]` at build time).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// Which label model aggregates the LFs.
    pub fn label_model(mut self, kind: LabelModelKind) -> Self {
        self.config.label_model = kind;
        self
    }

    /// Ablation switch: LabelPick LF selection (§3.4).
    pub fn labelpick(mut self, enabled: bool) -> Self {
        self.config.use_labelpick = enabled;
        self
    }

    /// Ablation switch: ConFusion aggregation (§3.2).
    pub fn confusion(mut self, enabled: bool) -> Self {
        self.config.use_confusion = enabled;
        self
    }

    /// Simulated-user label-noise rate (Table 5; validated to `[0, 1]`).
    pub fn noise_rate(mut self, rate: f64) -> Self {
        self.config.noise_rate = rate;
        self
    }

    /// Master seed: the oracle and sampler streams derive from it through
    /// [`SessionConfig::oracle_seed`] / [`SessionConfig::sampler_seed`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Which oracle answers queries: [`OracleKind::Simulated`] (the
    /// default, the paper's §4.1.4 user) or [`OracleKind::Noisy`], which
    /// routes each query between that user and a cheap confusion-matrix
    /// oracle under a budget-aware policy.
    ///
    /// ```
    /// use activedp::{Engine, OracleKind};
    /// use adp_data::{generate, DatasetId, Scale};
    ///
    /// let data = generate(DatasetId::Youtube, Scale::Tiny, 7).unwrap();
    /// let mut engine = Engine::builder(data)
    ///     .seed(7)
    ///     .oracle_kind(OracleKind::noisy())
    ///     .build()
    ///     .unwrap();
    /// engine.run(3).unwrap();
    /// assert!(engine.route_stats().unwrap().total_cost() > 0.0);
    /// ```
    pub fn oracle_kind(mut self, kind: OracleKind) -> Self {
        self.config.oracle = kind;
        self
    }

    /// How (and whether) the pool drifts mid-run (see
    /// [`DriftSpec`]; default [`DriftSpec::None`]). Mutating drifts must
    /// land on a refit boundary of the [`schedule`](Self::schedule) —
    /// validated at build time.
    pub fn drift(mut self, drift: DriftSpec) -> Self {
        self.drift = drift;
        self
    }

    /// How [`Engine::run_schedule`] spends the labelling budget (validated
    /// at build time; default [`BudgetSchedule::FixedStep`]).
    pub fn schedule(mut self, schedule: BudgetSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Total labelling budget for [`Engine::run_schedule`].
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Master switch for the refit-stage data-parallel kernels (default
    /// on): label-model EM + bulk prediction, LabelPick's glasso, and the
    /// AL/downstream logreg fits. Trajectories are bitwise identical either
    /// way — the kernels obey the `adp_linalg::parallel` fixed-chunk
    /// reduction contract — so this only trades refit latency against
    /// thread usage. Kernels outside the refit path (LF application,
    /// covariance assembly) keep their own `auto` thresholds; use
    /// `ADP_NUM_THREADS=1` to pin the whole process.
    pub fn parallel(mut self, enabled: bool) -> Self {
        self.config.parallel = enabled;
        self
    }

    /// Registers a per-step instrumentation hook (see [`StepObserver`]).
    pub fn observer(mut self, observer: impl StepObserver + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Validates the assembled [`ScenarioSpec`] and builds the engine —
    /// the same assembly [`Engine::from_spec`] runs, plus this builder's
    /// observers. A split without regenerable provenance has no spec to
    /// describe it and is rejected with [`ActiveDpError::BadConfig`].
    pub fn build(self) -> Result<Engine, ActiveDpError> {
        let spec = self.scenario().ok_or_else(|| ActiveDpError::BadConfig {
            reason: "the dataset has no regenerable provenance, so no scenario spec describes \
                     the session"
                .into(),
        })?;
        let mut engine = Engine::from_spec_over(spec, self.data)?;
        engine.observers = self.observers;
        Ok(engine)
    }

    /// Assembles an engine that resumes `snapshot` exactly where it was
    /// taken: the snapshot's embedded [`ScenarioSpec`] replaces any edits
    /// made on this builder, the persisted state is validated and
    /// restored, and both RNG streams are repositioned. The rest is derived
    /// with the code a refit runs — the vote matrices from the LFs, the
    /// probability caches from the stored model parameters — with no
    /// LabelPick and no fit, so the resumed engine equals the
    /// snapshot-time one and runs on to the uninterrupted trajectory
    /// exactly.
    ///
    /// The dataset must be the one the snapshot was taken over (typically
    /// regenerated from the spec — [`Engine::resume`] does exactly that);
    /// a split whose provenance is missing or disagrees with the
    /// snapshot's spec, routed-oracle state that does not match the spec's
    /// oracle kind, a state that does not fit the split and parameters no
    /// fit could produce are typed errors.
    pub fn resume(self, snapshot: crate::SessionSnapshot) -> Result<Engine, ActiveDpError> {
        self.restore(snapshot, false)
    }

    /// [`EngineBuilder::resume`]; with `refit` set, one RNG-free refit
    /// replaces the stored parameters, as a WAL replay that folded an LF
    /// needs (see [`Engine::replay_to_over`]).
    pub(crate) fn restore(
        mut self,
        snapshot: crate::SessionSnapshot,
        refit: bool,
    ) -> Result<Engine, ActiveDpError> {
        let crate::SessionSnapshot {
            spec,
            state,
            sampler_rng,
            oracle,
            routed,
        } = snapshot;
        if self.data.provenance != Some(spec.dataset) {
            return Err(ActiveDpError::BadConfig {
                reason: format!(
                    "dataset provenance {:?} does not match the snapshot's {:?}",
                    self.data.provenance, spec.dataset
                ),
            });
        }
        let ScenarioSpec {
            dataset: _,
            session,
            schedule,
            budget,
            drift,
        } = spec;
        self.config = session;
        self.schedule = schedule;
        self.budget = budget;
        self.drift = drift;
        let mut engine = self.build()?;
        state.validate_for(&engine.data)?;
        if !engine.querying.restore_routed(routed.as_ref()) {
            let oracle = engine.config.oracle;
            let reason = match routed {
                Some(_) => {
                    format!("the snapshot carries routed state, but oracle {oracle} does not route")
                }
                None => format!("the snapshot lacks the routed state oracle {oracle} needs"),
            };
            return Err(ActiveDpError::BadConfig { reason });
        }
        engine.sampling.restore_rng_state(sampler_rng);
        engine.querying.restore_oracle(&oracle);
        let s = &mut engine.state;
        for &row in &state.queried {
            s.queried[row] = true;
        }
        s.seen_keys = state.lfs.iter().map(LabelFunction::key).collect();
        s.lfs = state.lfs;
        s.query_indices = state.query_indices;
        s.pseudo_labels = state.pseudo_labels;
        s.selected = state.selected;
        s.iteration = state.iteration;
        // The caches are the last refit's predictions: derive them on the
        // pool that refit saw, then catch the pool up with the iteration.
        if engine
            .drift
            .boundary()
            .is_some_and(|at| state.fitted_at > at)
        {
            engine.swap_pool();
        }
        engine.state.rebuild_matrices(&engine.data);
        if refit {
            engine.training.refit(&engine.data, &mut engine.state)?;
        } else {
            engine
                .training
                .restore(&engine.data, &mut engine.state, &state.params)?;
        }
        engine.training.fitted_at = state.fitted_at;
        engine.sync_drift();
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_data::{generate, DatasetId, Scale, SplitDataset};
    use std::sync::Arc;

    fn tiny() -> SharedDataset {
        generate(DatasetId::Youtube, Scale::Tiny, 5)
            .unwrap()
            .into_shared()
    }

    #[test]
    fn defaults_follow_dataset_modality() {
        let text = EngineBuilder::new(tiny()).build().unwrap();
        assert!((text.config().alpha - 0.5).abs() < 1e-12);
        let tabular = generate(DatasetId::Occupancy, Scale::Tiny, 5).unwrap();
        let tabular = EngineBuilder::new(tabular).build().unwrap();
        assert!((tabular.config().alpha - 0.99).abs() < 1e-12);
    }

    #[test]
    fn accepts_owned_and_shared_datasets() {
        let owned: SplitDataset = generate(DatasetId::Youtube, Scale::Tiny, 5).unwrap();
        assert!(Engine::builder(owned).build().is_ok());
        let shared: Arc<SplitDataset> = tiny();
        assert!(Engine::builder(shared.clone()).build().is_ok());
        assert!(Engine::builder(shared).build().is_ok());
    }

    #[test]
    fn setters_edit_the_config_core() {
        let e = Engine::builder(tiny())
            .config(SessionConfig::ablation_baseline(true, 1))
            .sampler(SamplerChoice::Passive)
            .alpha(0.25)
            .label_model(LabelModelKind::MajorityVote)
            .labelpick(true)
            .confusion(false)
            .noise_rate(0.1)
            .seed(9)
            .build()
            .unwrap();
        let cfg = e.config();
        assert_eq!(cfg.sampler, SamplerChoice::Passive);
        assert_eq!(cfg.alpha, 0.25);
        assert_eq!(cfg.label_model, LabelModelKind::MajorityVote);
        assert!(cfg.use_labelpick);
        assert!(!cfg.use_confusion);
        assert_eq!(cfg.noise_rate, 0.1);
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn build_rejects_invalid_alpha() {
        let err = Engine::builder(tiny()).alpha(2.0).build();
        assert!(matches!(err, Err(ActiveDpError::BadConfig { .. })));
    }

    #[test]
    fn build_rejects_invalid_noise_rate() {
        let err = Engine::builder(tiny()).noise_rate(-0.1).build();
        assert!(matches!(err, Err(ActiveDpError::BadConfig { .. })));
    }

    #[test]
    fn build_rejects_invalid_config_core() {
        let mut cfg = SessionConfig::paper_defaults(true, 0);
        cfg.acc_threshold = 1.0;
        let err = Engine::builder(tiny()).config(cfg).build();
        assert!(matches!(err, Err(ActiveDpError::BadConfig { .. })));
    }

    #[test]
    fn build_and_resume_reject_a_provenance_stripped_split() {
        // Without provenance no spec describes the split, so no engine is
        // built over it: not fresh, and not from a snapshot of the very
        // split it was stripped from.
        let snap = Engine::builder(tiny())
            .seed(5)
            .build()
            .unwrap()
            .snapshot()
            .unwrap();
        let stripped = || {
            let mut data = (*tiny()).clone();
            data.provenance = None;
            data
        };
        let err = Engine::builder(stripped()).seed(5).build();
        assert!(matches!(err, Err(ActiveDpError::BadConfig { .. })));
        let err = Engine::builder(stripped()).resume(snap);
        assert!(matches!(err, Err(ActiveDpError::BadConfig { .. })));
    }

    #[test]
    fn resume_rejects_routed_state_the_spec_does_not_describe() {
        let snapshot_of = |kind: OracleKind| {
            let mut e = Engine::builder(tiny())
                .seed(5)
                .oracle_kind(kind)
                .build()
                .unwrap();
            e.run(3).unwrap();
            e.snapshot().unwrap()
        };
        // A noisy session's snapshot without its routed state would resume
        // with a fresh cheap oracle and zeroed costs…
        let mut noisy = snapshot_of(OracleKind::noisy());
        assert!(noisy.routed.take().is_some());
        let err = Engine::builder(tiny()).resume(noisy);
        assert!(matches!(err, Err(ActiveDpError::BadConfig { .. })));
        // …and a simulated session has no router to give routed state to.
        let mut plain = snapshot_of(OracleKind::Simulated);
        plain.routed = snapshot_of(OracleKind::noisy()).routed;
        assert!(plain.routed.is_some());
        let err = Engine::builder(tiny()).resume(plain);
        assert!(matches!(err, Err(ActiveDpError::BadConfig { .. })));
    }

    #[test]
    fn resume_rejects_internally_inconsistent_snapshots() {
        // Parseable-but-corrupt states (what a tampered checkpoint can
        // produce) must be rejected with typed errors, not panic while the
        // matrices are derived or on the first step.
        let pristine = Engine::builder(tiny())
            .seed(5)
            .build()
            .unwrap()
            .snapshot()
            .unwrap();
        let reject = |mutate: &dyn Fn(&mut crate::SessionSnapshot)| {
            let mut snap = pristine.clone();
            mutate(&mut snap);
            let err = Engine::builder(tiny()).resume(snap);
            assert!(matches!(err, Err(ActiveDpError::BadConfig { .. })));
        };
        // Queried rows outside the pool, or not strictly ascending.
        reject(&|s| s.state.queried = vec![usize::MAX]);
        reject(&|s| s.state.queried = vec![3, 3]);
        // Out-of-pool query index / out-of-range pseudo label / selection.
        reject(&|s| {
            s.state.query_indices = vec![usize::MAX];
            s.state.pseudo_labels = vec![0];
        });
        reject(&|s| {
            s.state.query_indices = vec![0];
            s.state.pseudo_labels = vec![99];
        });
        reject(&|s| s.state.selected = vec![7]);
        // Misaligned query/pseudo-label lists.
        reject(&|s| s.state.pseudo_labels = vec![0]);
        // LFs the split cannot evaluate: a stump over text features, a
        // keyword voting for a class that does not exist.
        reject(&|s| {
            s.state.lfs.push(LabelFunction::Stump {
                feature: 0,
                threshold: 0.5,
                op: adp_lf::StumpOp::Ge,
                label: 1,
            })
        });
        reject(&|s| {
            s.state.lfs.push(LabelFunction::Keyword {
                token: 1,
                label: 200,
            })
        });
        // A refit after the snapshot's own iteration.
        reject(&|s| s.state.fitted_at = 1);
    }

    #[test]
    fn resume_rejects_parameters_no_fit_produces() {
        // Resume predicts the caches from the stored parameters and hands
        // them to the samplers without refitting, so a value no fit could
        // produce must be a typed error here, not a NaN in the sampler's
        // sort on the next step.
        let mut engine = Engine::builder(tiny()).seed(5).build().unwrap();
        engine.run(4).unwrap();
        let pristine = engine.snapshot().unwrap();
        let params = &pristine.state.params;
        assert!(params.label_model.len() > 2 && !params.al_weights.is_empty());
        let resume = |mutate: &dyn Fn(&mut crate::FittedParams)| {
            let mut snap = pristine.clone();
            mutate(&mut snap.state.params);
            Engine::builder(tiny()).resume(snap)
        };
        for bad in [f64::NAN, f64::INFINITY, 0.01, 1.5] {
            // The triplet model's last accuracy, outside its clamp.
            let err = resume(&|p| *p.label_model.last_mut().unwrap() = bad);
            assert!(
                matches!(err, Err(ActiveDpError::LabelModel(_))),
                "accuracy {bad} was accepted"
            );
        }
        for bad in [f64::NAN, f64::INFINITY, -1e300] {
            let err = resume(&|p| p.al_weights[3] = bad);
            assert!(
                matches!(err, Err(ActiveDpError::Classifier(_))),
                "weight {bad} was accepted"
            );
        }
        // Shapes: one accuracy short of the selection, one weight short.
        assert!(matches!(
            resume(&|p| {
                p.label_model.pop();
            }),
            Err(ActiveDpError::LabelModel(_))
        ));
        assert!(matches!(
            resume(&|p| {
                p.al_weights.pop();
            }),
            Err(ActiveDpError::Classifier(_))
        ));
        assert!(resume(&|_| {}).is_ok());
    }

    /// Every bit of an evaluation report.
    fn report_bits(r: &crate::EvalReport) -> [u64; 6] {
        [
            r.test_accuracy.to_bits(),
            r.label_accuracy.map_or(u64::MAX, f64::to_bits),
            r.label_coverage.to_bits(),
            r.threshold.map_or(u64::MAX, f64::to_bits),
            r.n_selected as u64,
            r.downstream_trained as u64,
        ]
    }

    fn cache_bits(cache: &Option<adp_linalg::Matrix>) -> Option<((usize, usize), Vec<u64>)> {
        cache.as_ref().map(|probs| {
            let bits = probs.as_slice().iter().map(|p| p.to_bits()).collect();
            (probs.shape(), bits)
        })
    }

    /// Runs `steps` uninterrupted iterations, and at each of `splits`
    /// checks what refit-free resume relies on: (a) a resumed engine
    /// evaluates, twice, bitwise like the uninterrupted one; (b) forcing
    /// the refit resume skips reproduces the snapshot's selection and
    /// both caches bit for bit; and (c) where the next step collects no
    /// LF (so no refit follows the resume), stepping then evaluating still
    /// matches. Returns how many (c) cases the run offered.
    fn assert_refit_free_resume(
        build: &dyn Fn() -> EngineBuilder,
        steps: usize,
        splits: &[usize],
    ) -> usize {
        let mut engine = build().build().unwrap();
        let (mut snaps, mut reports, mut collected) = (vec![], vec![], vec![]);
        let mut states = vec![];
        for _ in 0..steps {
            states.push(engine.state().clone());
            snaps.push(engine.snapshot().unwrap());
            reports.push(report_bits(&engine.evaluate_downstream().unwrap()));
            collected.push(engine.step().unwrap().lf.is_some());
        }
        snaps.push(engine.snapshot().unwrap());
        reports.push(report_bits(&engine.evaluate_downstream().unwrap()));
        let mut no_lf_splits = 0;
        for k in (0..steps).filter(|k| !collected[*k]) {
            no_lf_splits += 1;
            let mut resumed = build().resume(snaps[k].clone()).unwrap();
            assert!(resumed.step().unwrap().lf.is_none(), "split {k}");
            assert_eq!(
                resumed.training.fitted_at, snaps[k].state.fitted_at,
                "split {k}: a refit ran"
            );
            let report = report_bits(&resumed.evaluate_downstream().unwrap());
            assert_eq!(report, reports[k + 1], "(c) split {k}");
        }
        for &k in splits {
            let snap = &snaps[k];
            assert!(
                !snap.state.lfs.is_empty(),
                "split {k} precedes the first LF"
            );
            let mut resumed = build().resume(snap.clone()).unwrap();
            assert_eq!(resumed.state(), &states[k], "split {k}");
            for _ in 0..2 {
                let report = report_bits(&resumed.evaluate_downstream().unwrap());
                assert_eq!(report, reports[k], "(a) split {k}");
            }
            resumed
                .training
                .refit(&resumed.data, &mut resumed.state)
                .unwrap();
            assert_eq!(resumed.state.selected, snap.state.selected, "(b) split {k}");
            assert_eq!(
                cache_bits(&resumed.state.lm_probs_train),
                cache_bits(&states[k].lm_probs_train),
                "(b) split {k}"
            );
            assert_eq!(
                cache_bits(&resumed.state.al_probs_train),
                cache_bits(&states[k].al_probs_train),
                "(b) split {k}"
            );
            // And the resumed engine finishes the run exactly.
            resumed.run(steps - k).unwrap();
            assert_eq!(resumed.snapshot().unwrap(), snaps[steps], "split {k}");
        }
        no_lf_splits
    }

    #[test]
    fn refit_free_resume_across_label_models_and_ablations() {
        let data = tiny();
        for (kind, labelpick, confusion) in [
            (LabelModelKind::Triplet, true, true),
            (LabelModelKind::Triplet, false, false),
            (LabelModelKind::MajorityVote, true, false),
            (LabelModelKind::MajorityVote, false, true),
            (LabelModelKind::DawidSkene, true, true),
            (LabelModelKind::DawidSkene, false, false),
        ] {
            let build = || {
                Engine::builder(data.clone())
                    .seed(5)
                    .label_model(kind)
                    .labelpick(labelpick)
                    .confusion(confusion)
            };
            assert_refit_free_resume(&build, 14, &[3, 8, 13]);
        }
    }

    #[test]
    fn refit_free_resume_when_the_next_step_collects_no_lf() {
        // A user who mislabels a query rarely finds an LF accurate enough
        // for the wrong label, so several resumes are followed by no refit.
        let data = tiny();
        let build = || Engine::builder(data.clone()).seed(5).noise_rate(0.4);
        let offered = assert_refit_free_resume(&build, 20, &[4, 12]);
        assert!(offered >= 2, "only {offered} steps collected no LF");
    }

    #[test]
    fn resume_past_a_boundary_keeps_the_selection_of_the_pre_swap_refit() {
        // Iteration 9, the first after the label shift at 8, collects no
        // LF: the selection at 9 is still the one the refit at 8 made on
        // the base pool. A refit on the shifted pool selects differently,
        // so a resume that refitted would evaluate a session that never
        // existed; refit-free resume keeps the snapshot's selection.
        let data = tiny();
        let build = || {
            Engine::builder(data.clone())
                .seed(5)
                .noise_rate(0.4)
                .label_model(LabelModelKind::DawidSkene)
                .drift(DriftSpec::LabelShift { at: 8, prior: 0.8 })
        };
        let mut engine = build().build().unwrap();
        engine.run(9).unwrap();
        let snap = engine.snapshot().unwrap();
        let mut resumed = build().resume(snap.clone()).unwrap();
        assert_eq!(resumed.state(), engine.state());
        assert_eq!(
            report_bits(&resumed.evaluate_downstream().unwrap()),
            report_bits(&engine.evaluate_downstream().unwrap())
        );
        resumed
            .training
            .refit(&resumed.data, &mut resumed.state)
            .unwrap();
        assert_ne!(resumed.state.selected, snap.state.selected);
        let offered = assert_refit_free_resume(&build, 20, &[6, 12, 16]);
        assert!(offered >= 2, "only {offered} steps collected no LF");
    }

    #[test]
    fn refit_free_resume_past_a_drift_boundary_and_under_a_noisy_oracle() {
        let data = tiny();
        let drifted = || {
            Engine::builder(data.clone())
                .seed(5)
                .drift(DriftSpec::LabelShift { at: 6, prior: 0.8 })
        };
        assert_refit_free_resume(&drifted, 14, &[6, 7, 10, 13]);
        let noisy = || {
            Engine::builder(data.clone())
                .seed(5)
                .oracle_kind(OracleKind::noisy())
        };
        assert_refit_free_resume(&noisy, 14, &[3, 8, 13]);
    }

    #[test]
    fn resume_past_a_covariate_boundary_predicts_on_the_pool_the_last_refit_saw() {
        // Steps 4 and 5 of this session collect no LF: at iteration 5 the
        // pool is rotated, but the caches are still the predictions the
        // refit at 3 made on the unrotated pool. Resume must derive them
        // there, or the next step samples from different caches.
        let data = generate(DatasetId::Census, Scale::Tiny, 7)
            .unwrap()
            .into_shared();
        let build = || {
            Engine::builder(data.clone())
                .seed(31)
                .drift(DriftSpec::CovariateDrift {
                    at: 3,
                    rotation: 0.4,
                })
        };
        let mut engine = build().build().unwrap();
        engine.run(5).unwrap();
        let snap = engine.snapshot().unwrap();
        assert_eq!((snap.state.iteration, snap.state.fitted_at), (5, 3));
        let mut resumed = build().resume(snap).unwrap();
        assert_eq!(resumed.state(), engine.state());
        assert_eq!(
            report_bits(&resumed.evaluate_downstream().unwrap()),
            report_bits(&engine.evaluate_downstream().unwrap())
        );
        engine.run(5).unwrap();
        resumed.run(5).unwrap();
        assert_eq!(resumed.snapshot().unwrap(), engine.snapshot().unwrap());
    }

    #[test]
    fn resume_rejects_mismatched_datasets() {
        let snap = Engine::builder(tiny())
            .seed(5)
            .build()
            .unwrap()
            .snapshot()
            .unwrap();
        // A different seed produces a different split shape at tiny scale…
        let other = generate(DatasetId::Imdb, Scale::Tiny, 5).unwrap();
        let err = Engine::builder(other).resume(snap);
        assert!(matches!(err, Err(ActiveDpError::BadConfig { .. })));
    }

    #[test]
    fn resumed_sessions_push_lfs_onto_a_moment_ledger() {
        // A resume derives the vote matrices without a ledger; the first
        // LF pushed after it scans once, so later triplet fits read the
        // selected sub-block of a ledger instead of rescanning votes.
        let data = generate(DatasetId::Census, Scale::Tiny, 7)
            .unwrap()
            .into_shared();
        let build =
            || Engine::builder(data.clone()).config(SessionConfig::paper_defaults(false, 7));
        let mut engine = build().build().unwrap();
        engine.run(6).unwrap();
        let bytes = engine.snapshot().unwrap().to_bytes();
        let snapshot = crate::SessionSnapshot::from_bytes(&bytes).unwrap();
        let mut resumed = build().resume(snapshot).unwrap();
        assert!(resumed.state().train_matrix.carried_moments().is_none());
        let lfs = resumed.state().lfs.len();
        while resumed.state().lfs.len() == lfs {
            resumed.step().unwrap();
        }
        let state = resumed.state();
        assert!(!state.selected.is_empty(), "LabelPick selected nothing");
        let all: Vec<usize> = (0..state.lfs.len()).collect();
        for cols in [&state.selected, &all] {
            let sub = state.train_matrix.select_columns(cols).unwrap();
            let (n, m) = (sub.n_instances(), sub.n_lfs());
            let fresh = adp_lf::LabelMatrix::from_raw(n, m, sub.votes().into_owned()).unwrap();
            assert_eq!(sub.carried_moments(), Some(fresh.moments()), "{cols:?}");
        }
    }
}
