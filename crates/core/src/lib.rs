//! **ActiveDP** — the interactive labelling framework of Guan & Koudas,
//! *ActiveDP: Bridging Active Learning and Data Programming* (EDBT 2024).
//!
//! ActiveDP runs an iterative loop (paper Figure 1). In the **training
//! phase**, each iteration:
//!
//! 1. the [`AdpSampler`] (§3.3, Eq. 2) picks the query instance whose
//!    uncertainty is highest under a geometric mixture of the
//!    active-learning model and the label model;
//! 2. the user (the [`SessionOracle`]: the simulated user of §4.1.4, or
//!    a router between it and a cheap noisy oracle) inspects the instance
//!    and returns a label function;
//! 3. the query instance receives a *pseudo-label* — the LF's vote on its
//!    own query — and joins the AL model's training set;
//! 4. [`LabelPick`] (§3.4) prunes LFs worse than random on the validation
//!    split and keeps the subset forming the Markov blanket of the label
//!    under a graphical-lasso dependency estimate;
//! 5. the label model (MeTaL-style triplet estimator by default) refits on
//!    the selected LFs and the AL model refits on the pseudo-labelled set.
//!
//! In the **inference phase**, [`confusion`] (§3.2, Eq. 1) aggregates both
//! models' predictions under a confidence threshold tuned on the validation
//! split, and the downstream classifier trains on the aggregated labels.
//!
//! The loop is implemented as the staged [`Engine`] — `sampling` →
//! `querying` → `training` per step around a shared
//! [`engine::SessionState`], with `inference` on demand. The engine owns
//! its dataset behind an [`adp_data::SharedDataset`] handle and is
//! `Send + 'static`; it is built with the validating [`EngineBuilder`]
//! (`Engine::builder(data).seed(7).build()?`), steps singly
//! ([`Engine::step`]) or in refit-saving batches ([`Engine::step_batch`]),
//! and reports every iteration to registered [`StepObserver`] hooks. The
//! engine is the crate's one API for the loop: `.config(cfg)` selects the
//! ablation switches of Table 3 (`use_labelpick`, `use_confusion`) and the
//! sampler choices of Table 4, and [`Engine::state`] exposes the collected
//! LFs, LabelPick's selection and the pseudo-labelled set. Serving many
//! concurrent sessions is the `adp-serve` crate's `SessionHub`.
//!
//! A complete run is described declaratively by a [`ScenarioSpec`] —
//! dataset provenance + [`config::SessionConfig`] + [`BudgetSchedule`] +
//! labelling budget, serializable to bytes and JSON —
//! [`Engine::from_spec`] is the one true constructor (the builder is an
//! ergonomic layer over it), [`Engine::run_schedule`] spends the budget
//! under the schedule, and snapshots embed the spec so a session rebuilds
//! from its bytes alone ([`Engine::resume`]). See the [`scenario`] module.

pub mod adp_sampler;
pub mod config;
pub mod confusion;
pub mod engine;
pub mod error;
pub mod event;
pub mod labelpick;
pub mod replay;
pub mod scenario;
pub mod snapshot;

pub use adp_classifier::LogRegConfig;
pub use adp_labelmodel::LabelModelKind;
pub use adp_oracle::{
    ConfusionSpec, LatencyModel, NoisyOracle, OracleKind, OracleRouter, RouteChoice, RoutePolicy,
    RouteStats, RoutedState, RoutedStep, SessionOracle, UnknownOracleKind,
};
pub use adp_sampler::AdpSampler;
pub use config::{CandidateStrategy, SamplerChoice, SessionConfig, UnknownSampler};
pub use confusion::{aggregate, tune_threshold, AggregatedLabels};
pub use engine::{
    CellSummary, Engine, EngineBuilder, EvalReport, FittedParams, QueryingStage, SamplingStage,
    ScheduleRun, SessionState, StepObserver, StepOutcome, TrainingStage,
};
pub use error::ActiveDpError;
pub use event::StepEvent;
pub use labelpick::{LabelPick, LabelPickConfig};
pub use replay::replay_snapshot;
pub use scenario::{
    BudgetSchedule, PhaseSegment, ScenarioSpec, DEFAULT_BUDGET, SCENARIO_MAGIC, SCENARIO_VERSION,
};
pub use snapshot::{PersistedState, SessionSnapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
