//! Labelling oracles for ActiveDP sessions.
//!
//! The original evaluation protocol has exactly one label source: the
//! expensive simulated user of paper §4.1.4 ([`adp_lf::SimulatedUser`]).
//! This crate generalises that into a small subsystem:
//!
//! * [`NoisyOracle`] — a cheap, biased, confusion-matrix-structured
//!   labeller standing in for an LLM: it answers from the candidate set of
//!   a label *drawn from a confusion row* of the true label, the way the
//!   original Data Programming paper models noisy sources;
//! * [`OracleRouter`] — budget-aware routing between the two, with
//!   per-query cost accounting ([`RouteStats`]) under a [`RoutePolicy`];
//! * [`SessionOracle`] — the one label source a session runs, built from
//!   its [`OracleKind`]: the simulated user alone, or the router over it;
//! * [`OracleKind`] — the serializable spec (`simulated` |
//!   `noisy:ACC[>BIAS][@POLICY][!CHEAP/EXPENSIVE]`) that scenario files
//!   carry and `SessionConfig` embeds.
//!
//! Everything is deterministic given a seed: the cheap oracle owns its own
//! RNG stream (derived from the master seed in `activedp::config`), the
//! router consumes no randomness of its own, and both oracles' mutable
//! state round-trips through plain-data snapshots ([`RoutedState`]).

mod kind;
mod noisy;
mod router;

pub use kind::{ConfusionSpec, LatencyModel, OracleKind, RoutePolicy, UnknownOracleKind};
pub use noisy::NoisyOracle;
pub use router::OracleRouter;

use adp_data::Dataset;
use adp_lf::{CandidateSpace, LabelFunction, SimulatedUser, UserState};

/// Which label source answered one routed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteChoice {
    /// The cheap noisy oracle answered.
    Cheap,
    /// The expensive simulated user answered directly.
    Expensive,
    /// The cheap oracle came up empty and the query escalated to the
    /// expensive user; both costs accrued.
    Escalated,
}

impl RouteChoice {
    /// Stable wire tag (`Cheap = 0`, `Expensive = 1`, `Escalated = 2`).
    pub fn tag(self) -> u8 {
        match self {
            RouteChoice::Cheap => 0,
            RouteChoice::Expensive => 1,
            RouteChoice::Escalated => 2,
        }
    }

    /// Inverse of [`RouteChoice::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(RouteChoice::Cheap),
            1 => Some(RouteChoice::Expensive),
            2 => Some(RouteChoice::Escalated),
            _ => None,
        }
    }
}

/// What a per-step event records about routing: which source answered and
/// where the cheap oracle's RNG stream landed (the expensive user's stream
/// is already journalled as the event's `oracle_rng`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedStep {
    /// Which label source answered.
    pub choice: RouteChoice,
    /// Cheap-oracle RNG words *after* the query.
    pub cheap_rng: [u64; 4],
}

/// Per-session routing totals: how many queries each source answered and
/// what they cost under the session's [`LatencyModel`]. Consults are
/// counted even when the oracle returns no LF — the budget is spent either
/// way, mirroring how iterations spend the labelling budget.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RouteStats {
    /// Queries answered by the cheap oracle (escalated queries count here
    /// too: the cheap consult happened).
    pub cheap_queries: u64,
    /// Queries answered by the expensive user (direct + escalated).
    pub expensive_queries: u64,
    /// Queries that consulted the cheap oracle first and escalated.
    pub escalations: u64,
    /// Total cost accrued on the cheap oracle.
    pub cheap_cost: f64,
    /// Total cost accrued on the expensive user.
    pub expensive_cost: f64,
}

impl RouteStats {
    /// Total routed cost across both sources.
    pub fn total_cost(&self) -> f64 {
        self.cheap_cost + self.expensive_cost
    }

    /// Fraction of consults the cheap oracle handled (0 when nothing was
    /// consulted). An escalated query consults both sources and counts on
    /// both sides.
    pub fn cheap_fraction(&self) -> f64 {
        let total = self.cheap_queries + self.expensive_queries;
        if total == 0 {
            0.0
        } else {
            self.cheap_queries as f64 / total as f64
        }
    }
}

/// Everything mutable about a routed oracle beyond the expensive user's
/// [`UserState`]: the cheap oracle's own state plus the accumulated
/// [`RouteStats`]. Appended to session snapshots so a resumed routed
/// session continues bitwise.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedState {
    /// Cheap-oracle RNG stream + returned-LF set, canonical (keys sorted).
    pub cheap: UserState,
    /// Accumulated routing totals.
    pub stats: RouteStats,
}

/// The label source of one session: the simulated user of paper §4.1.4,
/// or an [`OracleRouter`] between that user and a cheap [`NoisyOracle`].
/// `SessionConfig::build_oracle` builds it from the session's
/// [`OracleKind`], so every oracle a session runs is one its spec
/// describes, and its whole mutable state round-trips through a snapshot:
/// the user's [`UserState`], plus a router's [`RoutedState`].
#[derive(Debug)]
pub struct SessionOracle(Source);

#[derive(Debug)]
enum Source {
    Simulated(SimulatedUser),
    Routed(OracleRouter),
}

impl SessionOracle {
    /// The oracle `kind` describes over `user`. Under [`OracleKind::Noisy`]
    /// the cheap side shares the user's accuracy threshold and draws from
    /// its own stream, seeded with `cheap_seed`.
    pub fn new(kind: OracleKind, user: SimulatedUser, cheap_seed: u64) -> Self {
        SessionOracle(match kind {
            OracleKind::Simulated => Source::Simulated(user),
            OracleKind::Noisy {
                confusion,
                latency,
                policy,
            } => {
                let cheap = NoisyOracle::new(confusion, user.acc_threshold(), cheap_seed);
                Source::Routed(OracleRouter::new(user, cheap, policy, latency))
            }
        })
    }

    fn user(&self) -> &SimulatedUser {
        match &self.0 {
            Source::Simulated(user) => user,
            Source::Routed(router) => &router.expensive,
        }
    }

    fn router(&self) -> Option<&OracleRouter> {
        match &self.0 {
            Source::Simulated(_) => None,
            Source::Routed(router) => Some(router),
        }
    }

    /// Inspects instance `idx` of `query_dataset` and (optionally) returns
    /// a new label function. `None` still consumes the iteration's budget,
    /// mirroring a user who cannot think of a rule for the instance.
    /// `uncertainty` is the model's uncertainty about the instance (`None`
    /// before any model is fit), which a router's policy may split on; the
    /// second return names which source answered, and is `None` for a
    /// plain simulated user.
    pub fn respond(
        &mut self,
        space: &CandidateSpace,
        train: &Dataset,
        query_dataset: &Dataset,
        idx: usize,
        uncertainty: Option<f64>,
    ) -> (Option<LabelFunction>, Option<RouteChoice>) {
        match &mut self.0 {
            Source::Simulated(user) => (user.respond(space, train, query_dataset, idx), None),
            Source::Routed(router) => {
                let (lf, choice) = router.respond(space, train, query_dataset, idx, uncertainty);
                (lf, Some(choice))
            }
        }
    }

    /// The simulated user's mutable state, for a session snapshot.
    pub fn save_state(&self) -> UserState {
        self.user().state()
    }

    /// Restores state captured by [`SessionOracle::save_state`]. The user's
    /// configuration (threshold, noise rate) stays as built from the spec;
    /// only the mutable parts are replayed.
    pub fn load_state(&mut self, state: &UserState) {
        let user = match &mut self.0 {
            Source::Simulated(user) => user,
            Source::Routed(router) => &mut router.expensive,
        };
        *user = SimulatedUser::from_state(user.config(), state);
    }

    /// The simulated user's RNG stream position alone: what a per-step
    /// event records (the rest of the state is reconstructed from the
    /// logged LFs at replay time).
    pub fn rng_words(&self) -> [u64; 4] {
        self.user().rng_state()
    }

    /// A router's cheap side and totals; `None` for a plain simulated user.
    pub fn save_routed(&self) -> Option<RoutedState> {
        self.router().map(OracleRouter::state)
    }

    /// Restores state captured by [`SessionOracle::save_routed`]. Returns
    /// `false`, restoring nothing, when `state` is present for a plain user
    /// or absent for a router: it then belongs to a session of another
    /// oracle kind.
    pub fn load_routed(&mut self, state: Option<&RoutedState>) -> bool {
        match (&mut self.0, state) {
            (Source::Simulated(_), None) => true,
            (Source::Routed(router), Some(state)) => {
                router.restore(state);
                true
            }
            _ => false,
        }
    }

    /// The cheap side's RNG words, for a router.
    pub fn cheap_rng_words(&self) -> Option<[u64; 4]> {
        self.router().map(|router| router.cheap.rng_state())
    }

    /// Accumulated routing totals, for a router.
    pub fn route_stats(&self) -> Option<RouteStats> {
        self.router().map(OracleRouter::stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_data::{FeatureSet, Task};
    use adp_linalg::CsrMatrix;

    fn tiny_text() -> Dataset {
        Dataset {
            name: "t".into(),
            task: Task::SpamClassification,
            n_classes: 2,
            features: FeatureSet::Sparse(CsrMatrix::empty(2, 1)),
            labels: vec![1, 0],
            texts: None,
            encoded_docs: Some(vec![vec![0], vec![0]]),
        }
    }

    fn noisy(policy: RoutePolicy) -> OracleKind {
        OracleKind::Noisy {
            confusion: ConfusionSpec::Uniform { accuracy: 1.0 },
            latency: LatencyModel::default(),
            policy,
        }
    }

    #[test]
    fn simulated_user_implements_oracle() {
        let d = tiny_text();
        let space = CandidateSpace::build(&d);
        let mut user =
            SessionOracle::new(OracleKind::Simulated, SimulatedUser::with_defaults(0), 1);
        // Token 0 has accuracy 0.5 on each label -> below threshold -> None.
        assert!(user.respond(&space, &d, &d, 0, None).0.is_none());
        // A plain user has no routed side.
        assert!(user.save_routed().is_none());
        assert!(user.cheap_rng_words().is_none());
        assert!(user.route_stats().is_none());
        assert_eq!(user.rng_words(), user.save_state().rng);
    }

    #[test]
    fn default_routed_respond_reports_no_route() {
        let d = tiny_text();
        let space = CandidateSpace::build(&d);
        let mut user =
            SessionOracle::new(OracleKind::Simulated, SimulatedUser::with_defaults(0), 1);
        let (lf, route) = user.respond(&space, &d, &d, 0, Some(0.4));
        assert!(lf.is_none());
        assert!(route.is_none());
    }

    #[test]
    fn routed_state_must_match_the_oracle_kind() {
        let mut plain =
            SessionOracle::new(OracleKind::Simulated, SimulatedUser::with_defaults(7), 8);
        let mut routed = SessionOracle::new(
            noisy(RoutePolicy::AlwaysCheap),
            SimulatedUser::with_defaults(7),
            8,
        );
        let state = routed.save_routed().unwrap();
        assert!(!plain.load_routed(Some(&state)));
        assert!(!routed.load_routed(None));
        assert!(plain.load_routed(None));
        assert!(routed.load_routed(Some(&state)));
        // The expensive side is seeded exactly as the plain user is.
        assert_eq!(routed.rng_words(), plain.rng_words());
    }

    #[test]
    fn route_choice_tags_roundtrip() {
        for choice in [
            RouteChoice::Cheap,
            RouteChoice::Expensive,
            RouteChoice::Escalated,
        ] {
            assert_eq!(RouteChoice::from_tag(choice.tag()), Some(choice));
        }
        assert_eq!(RouteChoice::from_tag(3), None);
    }

    #[test]
    fn route_stats_fractions() {
        let stats = RouteStats {
            cheap_queries: 3,
            expensive_queries: 1,
            escalations: 1,
            cheap_cost: 3.0,
            expensive_cost: 10.0,
        };
        assert_eq!(stats.total_cost(), 13.0);
        assert_eq!(stats.cheap_fraction(), 0.75);
        assert_eq!(RouteStats::default().cheap_fraction(), 0.0);
    }
}
