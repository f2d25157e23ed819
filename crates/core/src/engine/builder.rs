//! Validating construction of the owned [`Engine`].
//!
//! The builder is the ergonomic construction path for engines: dataset
//! first, then the oracle, the sampler, the ablation switches, and the
//! seed last — mirroring how a session is described in the paper.
//! `Engine::builder(data).config(cfg).build()?` is the plain "run this
//! configuration" session every experiment drives. [`SessionConfig`]
//! stays the serialisable core underneath; the builder starts from
//! [`SessionConfig::paper_defaults`] for the dataset's modality and every
//! setter edits that config, so `.config(cfg)` followed by individual
//! overrides composes naturally.

use super::{Engine, StepObserver};
use crate::config::{CandidateStrategy, SamplerChoice, SessionConfig};
use crate::error::ActiveDpError;
use crate::scenario::{BudgetSchedule, ScenarioSpec, DEFAULT_BUDGET};
use adp_data::{DriftSpec, SharedDataset};
use adp_labelmodel::LabelModelKind;
use adp_oracle::{Oracle, OracleKind};

/// Builder for [`Engine`]: `Engine::builder(data).seed(7).build()?`.
///
/// The builder is an ergonomic layer over [`ScenarioSpec`]: every setter
/// edits one field of the declarative description, and
/// [`EngineBuilder::build`] hands the finished spec to the one true
/// constructor ([`Engine::from_spec_over`] assembly). Defaults: the paper
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
    oracle: Option<Box<dyn Oracle>>,
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
            oracle: None,
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

    /// Plugs in a custom oracle (e.g. an interactive UI). Without this the
    /// engine uses [`SessionConfig::simulated_user`]. A custom oracle owns
    /// its own randomness; the builder's [`seed`](Self::seed) only reaches
    /// it when it was constructed from [`SessionConfig::oracle_seed`].
    pub fn oracle(mut self, oracle: Box<dyn Oracle>) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Chooses the query-instance selector (Table 4).
    pub fn sampler(mut self, sampler: SamplerChoice) -> Self {
        self.config.sampler = sampler;
        self
    }

    /// How the selector builds its per-iteration candidate pool:
    /// [`CandidateStrategy::Exact`] (the default, the paper's full-pool
    /// scoring) or the sublinear [`CandidateStrategy::Ann`] index path for
    /// large pools.
    ///
    /// ```
    /// use activedp::{CandidateStrategy, Engine};
    /// use adp_data::{generate, DatasetId, Scale};
    ///
    /// let data = generate(DatasetId::Youtube, Scale::Tiny, 7).unwrap();
    /// let strategy = CandidateStrategy::Ann { nprobe: 4, refresh_every: 4 };
    /// let mut engine = Engine::builder(data)
    ///     .seed(7)
    ///     .candidates(strategy)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(engine.scenario().unwrap().session.candidates, strategy);
    /// engine.run(3).unwrap(); // the ANN path drives the same loop
    /// ```
    pub fn candidates(mut self, candidates: CandidateStrategy) -> Self {
        self.config.candidates = candidates;
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
    /// oracle and observers. Datasets without regenerable provenance still
    /// build (the spec's dataset part is simply absent; see
    /// [`Engine::scenario`]).
    pub fn build(self) -> Result<Engine, ActiveDpError> {
        Engine::assemble(
            self.data.clone(),
            self.data.provenance,
            self.config,
            self.schedule,
            self.budget,
            self.drift,
            self.oracle,
            self.observers,
        )
    }

    /// Assembles an engine that resumes `snapshot` exactly where it was
    /// taken: the snapshot's embedded [`ScenarioSpec`] replaces any edits
    /// made on this builder, the loop state — LabelPick's selection and
    /// both probability caches included — is validated and restored
    /// verbatim, and both RNG streams are repositioned. No model is fitted
    /// here: sampling and querying read only the restored state, the next
    /// refit fits the models as it would have anyway, and inference before
    /// that refit fits them to the restored selection (every fit resets
    /// its parameters and runs under the fixed-chunk contract, so those
    /// weights equal the snapshot-time ones bit for bit). Running the
    /// resumed engine to the end reproduces the uninterrupted trajectory
    /// exactly — queries, LF picks and evaluation metrics included.
    ///
    /// The dataset must be the one the snapshot was taken over (typically
    /// regenerated from the spec — [`Engine::resume`] does exactly that);
    /// a split whose provenance disagrees with the snapshot's spec, or
    /// whose state shape differs, is rejected. A custom oracle passed via
    /// [`EngineBuilder::oracle`] must implement [`Oracle::load_state`],
    /// otherwise resuming fails with
    /// [`ActiveDpError::SnapshotUnsupported`].
    ///
    /// [`Oracle::load_state`]: crate::Oracle::load_state
    pub fn resume(mut self, snapshot: crate::SessionSnapshot) -> Result<Engine, ActiveDpError> {
        let crate::SessionSnapshot {
            spec,
            state,
            sampler_rng,
            oracle,
            routed,
        } = snapshot;
        if let Some(provenance) = self.data.provenance {
            if provenance != spec.dataset {
                return Err(ActiveDpError::BadConfig {
                    reason: format!(
                        "dataset provenance {provenance:?} does not match the snapshot's {:?}",
                        spec.dataset
                    ),
                });
            }
        }
        let ScenarioSpec {
            dataset,
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
        // A provenance-less split that nevertheless passed the shape check
        // below is the snapshot's split as far as anyone can tell; record
        // the snapshot's own provenance so the session stays describable.
        engine.dataset_spec = Some(dataset);
        state.validate_for(&engine.data)?;
        engine.state = state;
        engine.sampling.restore_rng_state(sampler_rng);
        if !engine.querying.restore_oracle(&oracle) {
            return Err(ActiveDpError::SnapshotUnsupported {
                reason: "the session's oracle cannot replay snapshot state".into(),
            });
        }
        if let Some(routed) = &routed {
            if !engine.querying.restore_routed(routed) {
                return Err(ActiveDpError::SnapshotUnsupported {
                    reason: "the session's oracle cannot replay routed state".into(),
                });
            }
        }
        // Re-derive the drift swap: a snapshot taken past the boundary
        // carries state computed against the mutated pool, so the next
        // refit must run against it too. (A snapshot exactly at the
        // boundary stays on the base pool — the uninterrupted run's
        // boundary refit did as well.)
        engine.sync_drift()?;
        engine.training.stale = true;
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_data::{generate, DatasetId, Scale, SplitDataset};
    use adp_lf::SimulatedUser;
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
    fn snapshot_rejects_oracles_without_state() {
        struct Mute;
        impl adp_oracle::Oracle for Mute {
            fn respond(
                &mut self,
                _space: &adp_lf::CandidateSpace,
                _train: &adp_data::Dataset,
                _query_dataset: &adp_data::Dataset,
                _idx: usize,
            ) -> Option<adp_lf::LabelFunction> {
                None
            }
        }
        let mut e = Engine::builder(tiny())
            .oracle(Box::new(Mute))
            .build()
            .unwrap();
        e.step().unwrap();
        assert!(matches!(
            e.snapshot(),
            Err(ActiveDpError::SnapshotUnsupported { .. })
        ));
        // And a default-oracle snapshot cannot resume onto a mute oracle.
        let snap = Engine::builder(tiny()).build().unwrap().snapshot().unwrap();
        let err = Engine::builder(tiny()).oracle(Box::new(Mute)).resume(snap);
        assert!(matches!(
            err,
            Err(ActiveDpError::SnapshotUnsupported { .. })
        ));
    }

    #[test]
    fn resume_rejects_internally_inconsistent_snapshots() {
        // Parseable-but-corrupt states (what a tampered spill file can
        // produce) must be rejected with typed errors, not panic later.
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
        // Empty-but-Some probability cache: would index out of bounds in
        // the sampler on the first step (resume does not refit, so
        // nothing rebuilds it).
        reject(&|s| s.state.al_probs_train = Some(vec![]));
        // Wrong row width.
        reject(&|s| {
            s.state.lm_probs_train = Some(vec![vec![1.0]; s.state.queried.len()]);
        });
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
        // Vote matrices whose LF column count disagrees with the LF list.
        reject(&|s| {
            s.state.train_matrix = adp_lf::LabelMatrix::from_raw(
                s.state.queried.len(),
                1,
                vec![adp_lf::ABSTAIN; s.state.queried.len()],
            )
            .unwrap();
        });
    }

    #[test]
    fn resume_rejects_non_probability_caches() {
        // Resume hands the caches to the samplers without refitting, so a
        // NaN or out-of-range entry must be a typed error here, not a
        // panic in the sampler's sort on the next step.
        let mut engine = Engine::builder(tiny()).seed(5).build().unwrap();
        engine.run(4).unwrap();
        let pristine = engine.snapshot().unwrap();
        assert!(pristine.state.al_probs_train.is_some());
        assert!(pristine.state.lm_probs_train.is_some());
        for bad in [f64::NAN, f64::INFINITY, -0.1, 1.5] {
            for lm in [false, true] {
                let mut snap = pristine.clone();
                let cache = if lm {
                    &mut snap.state.lm_probs_train
                } else {
                    &mut snap.state.al_probs_train
                };
                cache.as_mut().unwrap()[3][0] = bad;
                let err = Engine::builder(tiny()).resume(snap);
                assert!(
                    matches!(err, Err(ActiveDpError::BadConfig { .. })),
                    "{bad} in the {} cache was accepted",
                    if lm { "lm" } else { "al" }
                );
            }
        }
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

    fn cache_bits(cache: &Option<Vec<Vec<f64>>>) -> Option<Vec<Vec<u64>>> {
        cache.as_ref().map(|rows| {
            rows.iter()
                .map(|r| r.iter().map(|p| p.to_bits()).collect())
                .collect()
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
        for _ in 0..steps {
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
            assert!(resumed.training.stale, "split {k}: a refit ran");
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
            assert_eq!(resumed.state(), &snap.state, "split {k}");
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
                cache_bits(&snap.state.lm_probs_train),
                "(b) split {k}"
            );
            assert_eq!(
                cache_bits(&resumed.state.al_probs_train),
                cache_bits(&snap.state.al_probs_train),
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
        assert_eq!(resumed.state(), &snap.state);
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
    fn custom_oracle_is_used() {
        // A noise-free user seeded differently from the default stream
        // changes nothing structural — the point is it plugs in.
        let data = tiny();
        let mut e = Engine::builder(data)
            .oracle(Box::new(SimulatedUser::with_defaults(123)))
            .build()
            .unwrap();
        e.run(5).unwrap();
        assert_eq!(e.state().iteration, 5);
    }

    #[test]
    fn resumed_sessions_push_lfs_onto_a_moment_ledger() {
        // A resume decodes the vote matrices without a ledger; the first
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
