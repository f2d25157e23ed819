//! Budget-aware routing between the expensive user and the cheap oracle.

use crate::{LatencyModel, NoisyOracle, RouteChoice, RoutePolicy, RouteStats, RoutedState};
use adp_data::Dataset;
use adp_lf::{CandidateSpace, LabelFunction, SimulatedUser};

/// Routes each query to the expensive simulated user or the cheap
/// [`NoisyOracle`] under a [`RoutePolicy`], billing every consult against a
/// [`LatencyModel`] into [`RouteStats`].
///
/// The router consumes no randomness of its own — routing is a pure
/// function of the policy and the model's uncertainty hint — so a routed
/// trajectory is exactly as deterministic as its two member oracles.
/// Whenever either source answers, the other is told the returned key
/// ([`SimulatedUser::note_returned`] / [`NoisyOracle::note_returned`]), so
/// the two returned-sets stay supersets of the session's LF set and neither
/// source ever re-proposes a rule the session already holds.
#[derive(Debug)]
pub struct OracleRouter {
    pub(crate) expensive: SimulatedUser,
    pub(crate) cheap: NoisyOracle,
    policy: RoutePolicy,
    latency: LatencyModel,
    stats: RouteStats,
}

impl OracleRouter {
    /// A router over the two label sources.
    pub fn new(
        expensive: SimulatedUser,
        cheap: NoisyOracle,
        policy: RoutePolicy,
        latency: LatencyModel,
    ) -> Self {
        OracleRouter {
            expensive,
            cheap,
            policy,
            latency,
            stats: RouteStats::default(),
        }
    }

    /// Accumulated routing totals so far.
    pub fn stats(&self) -> RouteStats {
        self.stats
    }

    /// The cheap side's state and the routing totals, for a snapshot (the
    /// expensive user's state is captured on its own).
    pub fn state(&self) -> RoutedState {
        RoutedState {
            cheap: self.cheap.state(),
            stats: self.stats,
        }
    }

    /// Restores state captured by [`OracleRouter::state`]. Immutable
    /// parameters (confusion shape, threshold, policy) come from the spec
    /// that rebuilt this router; only the mutable parts replay.
    pub fn restore(&mut self, state: &RoutedState) {
        self.cheap.restore(&state.cheap);
        self.stats = state.stats;
    }

    /// Routes one query under the policy: `uncertainty` is the model's
    /// uncertainty hint for the query instance (`None` before any model is
    /// fit, which an `UncertaintyThreshold` policy treats as maximally
    /// uncertain), and the second return names which source answered.
    pub fn respond(
        &mut self,
        space: &CandidateSpace,
        train: &Dataset,
        query_dataset: &Dataset,
        idx: usize,
        uncertainty: Option<f64>,
    ) -> (Option<LabelFunction>, RouteChoice) {
        let go_expensive = match self.policy {
            RoutePolicy::AlwaysCheap | RoutePolicy::CheapThenEscalate => false,
            // No model yet means no confidence to lean on: spend the human.
            RoutePolicy::UncertaintyThreshold { tau } => uncertainty.map_or(true, |u| u >= tau),
        };
        if go_expensive {
            let lf = self.consult_expensive(space, train, query_dataset, idx);
            return (lf, RouteChoice::Expensive);
        }
        let lf = self.consult_cheap(space, train, query_dataset, idx);
        if lf.is_none() && self.policy == RoutePolicy::CheapThenEscalate {
            self.stats.escalations += 1;
            let lf = self.consult_expensive(space, train, query_dataset, idx);
            return (lf, RouteChoice::Escalated);
        }
        (lf, RouteChoice::Cheap)
    }

    fn consult_cheap(
        &mut self,
        space: &CandidateSpace,
        train: &Dataset,
        query_dataset: &Dataset,
        idx: usize,
    ) -> Option<LabelFunction> {
        self.stats.cheap_queries += 1;
        self.stats.cheap_cost += self.latency.cheap_cost;
        let lf = self.cheap.respond(space, train, query_dataset, idx);
        if let Some(lf) = &lf {
            self.expensive.note_returned(lf.key());
        }
        lf
    }

    fn consult_expensive(
        &mut self,
        space: &CandidateSpace,
        train: &Dataset,
        query_dataset: &Dataset,
        idx: usize,
    ) -> Option<LabelFunction> {
        self.stats.expensive_queries += 1;
        self.stats.expensive_cost += self.latency.expensive_cost;
        let lf = self.expensive.respond(space, train, query_dataset, idx);
        if let Some(lf) = &lf {
            self.cheap.note_returned(lf.key());
        }
        lf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConfusionSpec;
    use adp_data::{FeatureSet, Task};
    use adp_linalg::CsrMatrix;

    fn text_train() -> Dataset {
        Dataset {
            name: "t".into(),
            task: Task::SpamClassification,
            n_classes: 2,
            features: FeatureSet::Sparse(CsrMatrix::empty(4, 3)),
            labels: vec![1, 1, 0, 0],
            texts: None,
            encoded_docs: Some(vec![vec![0, 1], vec![0, 1], vec![0, 2], vec![2]]),
        }
    }

    fn router(policy: RoutePolicy) -> OracleRouter {
        OracleRouter::new(
            SimulatedUser::with_defaults(7),
            NoisyOracle::new(ConfusionSpec::Uniform { accuracy: 1.0 }, 0.6, 8),
            policy,
            LatencyModel::default(),
        )
    }

    #[test]
    fn always_cheap_never_bills_the_expensive_user() {
        let d = text_train();
        let space = CandidateSpace::build(&d);
        let mut r = router(RoutePolicy::AlwaysCheap);
        for i in 0..4 {
            let (_, choice) = r.respond(&space, &d, &d, i, Some(0.5));
            assert_eq!(choice, RouteChoice::Cheap);
        }
        let stats = r.stats();
        assert_eq!(stats.cheap_queries, 4);
        assert_eq!(stats.expensive_queries, 0);
        assert_eq!(stats.cheap_cost, 4.0);
        assert_eq!(stats.expensive_cost, 0.0);
        assert_eq!(stats.cheap_fraction(), 1.0);
    }

    #[test]
    fn uncertainty_threshold_splits_on_the_hint() {
        let d = text_train();
        let space = CandidateSpace::build(&d);
        let mut r = router(RoutePolicy::UncertaintyThreshold { tau: 0.3 });
        // No hint -> maximally uncertain -> expensive.
        let (_, c0) = r.respond(&space, &d, &d, 0, None);
        assert_eq!(c0, RouteChoice::Expensive);
        // Confident -> cheap; uncertain -> expensive.
        let (_, c1) = r.respond(&space, &d, &d, 1, Some(0.1));
        assert_eq!(c1, RouteChoice::Cheap);
        let (_, c2) = r.respond(&space, &d, &d, 2, Some(0.45));
        assert_eq!(c2, RouteChoice::Expensive);
        let stats = r.stats();
        assert_eq!((stats.cheap_queries, stats.expensive_queries), (1, 2));
        assert_eq!(stats.total_cost(), 1.0 + 20.0);
    }

    #[test]
    fn escalation_consults_both_and_bills_both() {
        let d = text_train();
        let space = CandidateSpace::build(&d);
        let mut r = router(RoutePolicy::CheapThenEscalate);
        // Exhaust doc 0's two candidates through the cheap side, then the
        // third consult on doc 0 must escalate (and the expensive side also
        // has nothing fresh: both were noted across).
        let mut escalated = None;
        for _ in 0..3 {
            let (lf, choice) = r.respond(&space, &d, &d, 0, None);
            if choice == RouteChoice::Escalated {
                escalated = Some(lf);
                break;
            }
        }
        let lf = escalated.expect("third consult escalates");
        assert!(
            lf.is_none(),
            "both sides exhausted: escalation finds nothing"
        );
        let stats = r.stats();
        assert_eq!(stats.escalations, 1);
        assert_eq!(stats.cheap_queries, 3);
        assert_eq!(stats.expensive_queries, 1);
        assert_eq!(stats.total_cost(), 3.0 + 10.0);
    }

    #[test]
    fn answers_never_duplicate_across_sources() {
        let d = text_train();
        let space = CandidateSpace::build(&d);
        let mut r = router(RoutePolicy::UncertaintyThreshold { tau: 0.3 });
        let mut keys = std::collections::HashSet::new();
        // Alternate confident/uncertain so both sources answer.
        for round in 0..6 {
            let hint = if round % 2 == 0 { Some(0.1) } else { Some(0.5) };
            for i in 0..4 {
                if let (Some(lf), _) = r.respond(&space, &d, &d, i, hint) {
                    assert!(keys.insert(lf.key()), "duplicate LF across sources");
                }
            }
        }
        assert!(!keys.is_empty());
    }

    #[test]
    fn routed_state_roundtrips_bitwise() {
        let d = text_train();
        let space = CandidateSpace::build(&d);
        let mut r = router(RoutePolicy::CheapThenEscalate);
        for i in 0..3 {
            let _ = r.respond(&space, &d, &d, i, None);
        }
        let user = r.expensive.state();
        let routed = r.state();
        let tail: Vec<_> = (0..4)
            .map(|i| r.respond(&space, &d, &d, i, None))
            .map(|(lf, c)| (lf.map(|lf| lf.key()), c))
            .collect();
        let mut resumed = router(RoutePolicy::CheapThenEscalate);
        resumed.expensive = SimulatedUser::from_state(resumed.expensive.config(), &user);
        resumed.restore(&routed);
        assert_eq!(resumed.stats(), routed.stats);
        let resumed_tail: Vec<_> = (0..4)
            .map(|i| resumed.respond(&space, &d, &d, i, None))
            .map(|(lf, c)| (lf.map(|lf| lf.key()), c))
            .collect();
        assert_eq!(tail, resumed_tail);
    }

    #[test]
    fn router_consumes_no_randomness_of_its_own() {
        // Same member seeds, different policies that happen to route the
        // same way -> identical streams afterwards.
        let d = text_train();
        let space = CandidateSpace::build(&d);
        let mut a = router(RoutePolicy::AlwaysCheap);
        let mut b = router(RoutePolicy::UncertaintyThreshold { tau: 0.9 });
        for i in 0..4 {
            let (la, _) = a.respond(&space, &d, &d, i, Some(0.0));
            let (lb, _) = b.respond(&space, &d, &d, i, Some(0.0));
            assert_eq!(la.map(|l| l.key()), lb.map(|l| l.key()));
        }
        assert_eq!(a.cheap.rng_state(), b.cheap.rng_state());
        assert_eq!(a.expensive.rng_state(), b.expensive.rng_state());
    }
}
