//! Session configuration: the ablation switches of Table 3 and the sampler
//! choices of Table 4.

use crate::error::ActiveDpError;
use crate::labelpick::LabelPickConfig;
use adp_classifier::LogRegConfig;
use adp_labelmodel::LabelModelKind;
use adp_lf::{SimulatedUser, UserConfig};
use adp_oracle::{OracleKind, SessionOracle};

/// XOR mask separating the oracle's RNG stream from the master seed.
///
/// Every component seeded from [`SessionConfig::seed`] gets its own
/// constant so no two components ever share an RNG stream; the derivation
/// lives *only* here (consumed through [`SessionConfig::oracle_seed`] and
/// [`SessionConfig::sampler_seed`]) so the builder, the facade and the
/// stages cannot drift apart.
const SEED_STREAM_ORACLE: u64 = 0x5EED_0001;

/// XOR mask separating the sampler's RNG stream from the master seed.
const SEED_STREAM_SAMPLER: u64 = 0x5EED_0002;

/// XOR mask separating the cheap noisy oracle's RNG stream (under
/// [`OracleKind::Noisy`]) from the master seed — distinct from the
/// expensive user's stream so routing never entangles the two.
const SEED_STREAM_CHEAP_ORACLE: u64 = 0x5EED_0004;

/// Which sample selector drives the training loop (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerChoice {
    /// The paper's ADP sampler (Eq. 2).
    Adp,
    /// Uniform random.
    Passive,
    /// Uncertainty sampling on the AL model.
    Uncertainty,
    /// Learning active learning.
    Lal,
    /// Nemo's select-by-expected-utility.
    Seu,
    /// Query-by-committee vote entropy (extension beyond the paper's
    /// Table 4; see §2.2's related work).
    Qbc,
}

impl SamplerChoice {
    /// All samplers, in the paper's Table 4 order (ADP last as the
    /// headline method, as the table prints it).
    pub fn all() -> [SamplerChoice; 6] {
        [
            SamplerChoice::Passive,
            SamplerChoice::Uncertainty,
            SamplerChoice::Lal,
            SamplerChoice::Seu,
            SamplerChoice::Qbc,
            SamplerChoice::Adp,
        ]
    }

    /// Table 4 row label — what [`SamplerChoice::from_str`] parses back.
    ///
    /// [`SamplerChoice::from_str`]: std::str::FromStr::from_str
    pub fn label(self) -> &'static str {
        match self {
            SamplerChoice::Adp => "ADP",
            SamplerChoice::Passive => "Passive",
            SamplerChoice::Uncertainty => "US",
            SamplerChoice::Lal => "LAL",
            SamplerChoice::Seu => "SEU",
            SamplerChoice::Qbc => "QBC",
        }
    }
}

impl std::fmt::Display for SamplerChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A sampler name that matched no [`SamplerChoice`]; [`Display`] lists the
/// valid options.
///
/// [`Display`]: std::fmt::Display
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSampler {
    /// The name that failed to parse.
    pub given: String,
}

impl std::fmt::Display for UnknownSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown sampler {:?}; expected one of {}",
            self.given,
            SamplerChoice::all().map(SamplerChoice::label).join(", ")
        )
    }
}

impl std::error::Error for UnknownSampler {}

impl std::str::FromStr for SamplerChoice {
    type Err = UnknownSampler;

    /// Parses a sampler name, case-insensitively, accepting the Table 4
    /// label plus the variant's long name (`uncertainty` for `US`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "adp" => Ok(SamplerChoice::Adp),
            "passive" => Ok(SamplerChoice::Passive),
            "us" | "uncertainty" => Ok(SamplerChoice::Uncertainty),
            "lal" => Ok(SamplerChoice::Lal),
            "seu" => Ok(SamplerChoice::Seu),
            "qbc" => Ok(SamplerChoice::Qbc),
            _ => Err(UnknownSampler { given: s.into() }),
        }
    }
}

/// How the sampler builds its per-iteration candidate pool. `Exact`, the
/// only strategy, scores every unqueried instance (the paper's behaviour).
///
/// The type and [`SessionConfig::candidates`] remain only so the scenario
/// wire format keeps its candidate tag byte (always `0`) and the benchmark
/// harness keeps compiling; the next benchmark re-base deletes both in one
/// format bump together with the `parallel` switches.
///
/// ```
/// use activedp::config::CandidateStrategy;
///
/// assert_eq!(CandidateStrategy::default(), CandidateStrategy::Exact);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateStrategy {
    /// Score the full unqueried pool (paper behaviour).
    #[default]
    Exact,
}

/// Session configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// ADP sampler trade-off α (paper: 0.5 text, 0.99 tabular).
    pub alpha: f64,
    /// Simulated-user candidate accuracy threshold τ_acc (paper: 0.6).
    pub acc_threshold: f64,
    /// Simulated-user label-noise rate (Table 5; 0 in the main experiments).
    pub noise_rate: f64,
    /// Which label model aggregates the LFs.
    pub label_model: LabelModelKind,
    /// Ablation switch: LabelPick LF selection (§3.4).
    pub use_labelpick: bool,
    /// Ablation switch: ConFusion aggregation (§3.2).
    pub use_confusion: bool,
    /// LabelPick hyperparameters.
    pub labelpick: LabelPickConfig,
    /// Query-instance selector.
    pub sampler: SamplerChoice,
    /// How the selector builds its candidate pool: always
    /// [`CandidateStrategy::Exact`]. Kept until the next benchmark re-base
    /// (see [`CandidateStrategy`]).
    pub candidates: CandidateStrategy,
    /// Which oracle answers queries: [`OracleKind::Simulated`] (the paper's
    /// single expensive user, the default) or [`OracleKind::Noisy`] — the
    /// expensive user plus a cheap confusion-structured labeller behind a
    /// budget-aware router.
    pub oracle: OracleKind,
    /// AL-model training hyperparameters.
    pub al_logreg: LogRegConfig,
    /// Downstream-model training hyperparameters.
    pub downstream_logreg: LogRegConfig,
    /// Master switch for the refit-stage data-parallel kernels: Dawid–Skene
    /// EM, bulk label-model prediction, LabelPick's glasso, and the
    /// AL/downstream logreg fits. (The triplet fit has nothing to fan out:
    /// it reads the label matrix's moment ledger.) Trajectories are bitwise
    /// identical either way — every kernel obeys the `adp_linalg::parallel`
    /// fixed-chunk reduction contract — so this only controls scheduling.
    /// Note it does *not* reach kernels outside the refit path (the LF
    /// application in `LabelMatrix::push_lf`, whose ledger extension runs
    /// on the calling thread; covariance assembly), which keep their own
    /// `auto` thresholds; pin the whole process with `ADP_NUM_THREADS=1`
    /// when a deployment needs strictly single-threaded sessions.
    pub parallel: bool,
    /// Master seed: user, samplers and tie-breaks derive from it.
    pub seed: u64,
}

impl SessionConfig {
    /// The paper's configuration for a dataset of the given modality.
    pub fn paper_defaults(textual: bool, seed: u64) -> Self {
        SessionConfig {
            alpha: if textual { 0.5 } else { 0.99 },
            acc_threshold: 0.6,
            noise_rate: 0.0,
            label_model: LabelModelKind::Triplet,
            use_labelpick: true,
            use_confusion: true,
            labelpick: LabelPickConfig::default(),
            sampler: SamplerChoice::Adp,
            candidates: CandidateStrategy::Exact,
            oracle: OracleKind::Simulated,
            al_logreg: LogRegConfig::default(),
            downstream_logreg: LogRegConfig {
                max_iters: 150,
                ..LogRegConfig::default()
            },
            parallel: true,
            seed,
        }
    }

    /// The per-component scheduling switches with the master
    /// [`SessionConfig::parallel`] switch applied: effective LabelPick,
    /// AL-model and downstream-model configurations. Stages construct their
    /// kernels from these so one flag pins the whole session serial.
    pub(crate) fn effective_labelpick(&self) -> LabelPickConfig {
        LabelPickConfig {
            parallel: self.labelpick.parallel && self.parallel,
            ..self.labelpick
        }
    }

    pub(crate) fn effective_al_logreg(&self) -> LogRegConfig {
        LogRegConfig {
            parallel: self.al_logreg.parallel && self.parallel,
            ..self.al_logreg
        }
    }

    pub(crate) fn effective_downstream_logreg(&self) -> LogRegConfig {
        LogRegConfig {
            parallel: self.downstream_logreg.parallel && self.parallel,
            ..self.downstream_logreg
        }
    }

    /// Table 3 ablation: all user LFs train the label model, no aggregation.
    pub fn ablation_baseline(textual: bool, seed: u64) -> Self {
        SessionConfig {
            use_labelpick: false,
            use_confusion: false,
            ..SessionConfig::paper_defaults(textual, seed)
        }
    }

    /// Seed of the oracle's RNG stream, derived from the master seed.
    ///
    /// The derivation is the single source of truth for how the simulated
    /// user is seeded; [`SessionConfig::simulated_user`] and any custom
    /// construction path must go through it so a given master seed always
    /// reproduces the same oracle behaviour.
    pub fn oracle_seed(&self) -> u64 {
        self.seed ^ SEED_STREAM_ORACLE
    }

    /// Seed of the query sampler's RNG stream, derived from the master seed.
    pub fn sampler_seed(&self) -> u64 {
        self.seed ^ SEED_STREAM_SAMPLER
    }

    /// Seed of the cheap noisy oracle's RNG stream (under
    /// [`OracleKind::Noisy`]), derived from the master seed.
    pub fn cheap_oracle_seed(&self) -> u64 {
        self.seed ^ SEED_STREAM_CHEAP_ORACLE
    }

    /// The simulated user of §4.1.4 for this configuration: candidate
    /// accuracy threshold and noise rate from the config, RNG seeded from
    /// [`SessionConfig::oracle_seed`].
    pub fn simulated_user(&self) -> SimulatedUser {
        SimulatedUser::new(
            UserConfig {
                acc_threshold: self.acc_threshold,
                noise_rate: self.noise_rate,
            },
            self.oracle_seed(),
        )
    }

    /// The label source [`SessionConfig::oracle`] describes:
    /// the plain simulated user under [`OracleKind::Simulated`], or an
    /// [`OracleRouter`](adp_oracle::OracleRouter) over the user and a
    /// [`NoisyOracle`](adp_oracle::NoisyOracle) (seeded from
    /// [`SessionConfig::cheap_oracle_seed`]) under [`OracleKind::Noisy`].
    /// The single construction path for the engine, the builder and resume,
    /// so the seed derivations can never drift apart.
    pub fn build_oracle(&self) -> SessionOracle {
        SessionOracle::new(self.oracle, self.simulated_user(), self.cheap_oracle_seed())
    }

    pub(crate) fn validate(&self) -> Result<(), ActiveDpError> {
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(ActiveDpError::BadConfig {
                reason: format!("alpha {} outside [0,1]", self.alpha),
            });
        }
        if !(0.0..1.0).contains(&self.acc_threshold) {
            return Err(ActiveDpError::BadConfig {
                reason: format!("acc_threshold {} outside [0,1)", self.acc_threshold),
            });
        }
        if !(0.0..=1.0).contains(&self.noise_rate) {
            return Err(ActiveDpError::BadConfig {
                reason: format!("noise_rate {} outside [0,1]", self.noise_rate),
            });
        }
        self.oracle
            .validate()
            .map_err(|reason| ActiveDpError::BadConfig { reason })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_streams_are_centralised_and_distinct() {
        let cfg = SessionConfig::paper_defaults(true, 7);
        assert_eq!(cfg.oracle_seed(), 7 ^ SEED_STREAM_ORACLE);
        assert_eq!(cfg.sampler_seed(), 7 ^ SEED_STREAM_SAMPLER);
        assert_eq!(cfg.cheap_oracle_seed(), 7 ^ SEED_STREAM_CHEAP_ORACLE);
        // The streams never collide with each other or the master seed.
        let streams = [
            cfg.oracle_seed(),
            cfg.sampler_seed(),
            cfg.cheap_oracle_seed(),
            cfg.seed,
        ];
        for (i, a) in streams.iter().enumerate() {
            for b in &streams[i + 1..] {
                assert_ne!(a, b, "seed streams collide");
            }
        }
    }

    #[test]
    fn validate_rejects_bad_oracle_specs() {
        let mut cfg = SessionConfig::paper_defaults(true, 7);
        cfg.oracle = OracleKind::Noisy {
            confusion: adp_oracle::ConfusionSpec::Uniform { accuracy: 2.0 },
            latency: adp_oracle::LatencyModel::default(),
            policy: adp_oracle::RoutePolicy::CheapThenEscalate,
        };
        assert!(cfg.validate().is_err());
        cfg.oracle = OracleKind::noisy();
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn build_oracle_matches_the_kind() {
        let mut cfg = SessionConfig::paper_defaults(true, 7);
        let plain = cfg.build_oracle();
        assert!(
            plain.route_stats().is_none(),
            "simulated user does not route"
        );
        cfg.oracle = OracleKind::noisy();
        let routed = cfg.build_oracle();
        assert_eq!(routed.route_stats(), Some(Default::default()));
        assert!(routed.cheap_rng_words().is_some());
        // The expensive side is seeded exactly as the plain user is.
        assert_eq!(routed.rng_words(), plain.rng_words());
    }

    #[test]
    fn sampler_labels_roundtrip_through_fromstr() {
        for sampler in SamplerChoice::all() {
            assert_eq!(
                sampler.to_string().parse::<SamplerChoice>().unwrap(),
                sampler
            );
        }
        assert_eq!(
            "uncertainty".parse::<SamplerChoice>().unwrap(),
            SamplerChoice::Uncertainty
        );
        let err = "oracle".parse::<SamplerChoice>().unwrap_err();
        assert_eq!(err.given, "oracle");
        assert!(err.to_string().contains("ADP"), "{err}");
    }

    #[test]
    fn simulated_user_derives_from_config() {
        // Two users built from identical configs must behave identically;
        // a different master seed must produce a different oracle stream.
        // (The exact derivation is pinned by the golden-trajectory test.)
        let data = adp_data::generate(adp_data::DatasetId::Youtube, adp_data::Scale::Tiny, 9)
            .expect("tiny dataset generates");
        let space = adp_lf::CandidateSpace::build(&data.train);
        let respond_all = |seed: u64| {
            let mut user = SessionConfig::paper_defaults(true, seed).simulated_user();
            (0..data.train.len())
                .map(|i| {
                    user.respond(&space, &data.train, &data.train, i)
                        .map(|lf| lf.key())
                })
                .collect::<Vec<_>>()
        };
        let a = respond_all(9);
        assert_eq!(a, respond_all(9), "same config must reproduce the oracle");
        assert!(a.iter().any(Option::is_some), "oracle answered nothing");
        assert_ne!(a, respond_all(10), "seed must reach the oracle stream");
    }
}
