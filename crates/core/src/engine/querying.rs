//! Stage 2 — **querying**: show the query instance to the oracle, collect
//! the returned label function, and fold it into the shared state (vote
//! matrices, pseudo-labelled pool; paper §3.1).

use super::state::SessionState;
use crate::error::ActiveDpError;
use adp_data::SplitDataset;
use adp_lf::{CandidateSpace, LabelFunction, ABSTAIN};
use adp_oracle::{RouteChoice, RouteStats, RoutedState, SessionOracle};

/// Owns the oracle and the candidate-LF space it draws from.
pub struct QueryingStage {
    space: CandidateSpace,
    oracle: SessionOracle,
}

impl QueryingStage {
    /// Builds the per-dataset candidate space and wraps `oracle` (see
    /// [`SessionConfig::build_oracle`](crate::SessionConfig::build_oracle)).
    pub fn new(data: &SplitDataset, oracle: SessionOracle) -> Self {
        QueryingStage {
            space: CandidateSpace::build(&data.train),
            oracle,
        }
    }

    /// The candidate-LF space (shared with the sampling stage's SEU
    /// selector).
    pub fn space(&self) -> &CandidateSpace {
        &self.space
    }

    /// Rebuilds the candidate-LF space from `data` — called by the engine
    /// when a drift boundary mutates the pool (the space precomputes
    /// label- and feature-dependent statistics, so it must track the
    /// active dataset).
    pub(crate) fn rebuild_space(&mut self, data: &SplitDataset) {
        self.space = CandidateSpace::build(&data.train);
    }

    /// The oracle's snapshotable state (see [`SessionOracle::save_state`]).
    pub(crate) fn oracle_state(&self) -> adp_lf::UserState {
        self.oracle.save_state()
    }

    /// Replays oracle state captured by [`QueryingStage::oracle_state`].
    pub(crate) fn restore_oracle(&mut self, state: &adp_lf::UserState) {
        self.oracle.load_state(state)
    }

    /// The oracle's RNG stream position (see [`SessionOracle::rng_words`])
    /// — captured into every journalled [`StepEvent`](crate::StepEvent).
    pub(crate) fn oracle_rng_words(&self) -> [u64; 4] {
        self.oracle.rng_words()
    }

    /// The routed-oracle snapshot state, when the oracle is a router (see
    /// [`SessionOracle::save_routed`]).
    pub(crate) fn routed_state(&self) -> Option<RoutedState> {
        self.oracle.save_routed()
    }

    /// Replays routed-oracle state captured by
    /// [`QueryingStage::routed_state`]; `false` when its presence does not
    /// match the oracle's kind (see [`SessionOracle::load_routed`]).
    pub(crate) fn restore_routed(&mut self, state: Option<&RoutedState>) -> bool {
        self.oracle.load_routed(state)
    }

    /// The cheap oracle's RNG stream position, when the session routes
    /// between two oracles (see [`SessionOracle::cheap_rng_words`]).
    pub(crate) fn cheap_rng_words(&self) -> Option<[u64; 4]> {
        self.oracle.cheap_rng_words()
    }

    /// The router's accumulated cost ledger, when the oracle is a router.
    pub(crate) fn route_stats(&self) -> Option<RouteStats> {
        self.oracle.route_stats()
    }

    /// Asks the oracle about `query`. When an LF comes back, appends its
    /// votes to both matrices and pseudo-labels the query instance with the
    /// LF's own vote. Returns the LF (already recorded in `state`) plus the
    /// routing decision, when the oracle routes (see
    /// [`SessionOracle::respond`]); `uncertainty` is the AL model's
    /// uncertainty about the query, the hint threshold policies split on.
    pub fn query(
        &mut self,
        data: &SplitDataset,
        state: &mut SessionState,
        query: usize,
        uncertainty: Option<f64>,
    ) -> Result<(Option<LabelFunction>, Option<RouteChoice>), ActiveDpError> {
        let (lf, route) =
            self.oracle
                .respond(&self.space, &data.train, &data.train, query, uncertainty);
        if let Some(lf) = &lf {
            state.seen_keys.insert(lf.key());
            state.train_matrix.push_lf(lf, &data.train)?;
            state.valid_matrix.push_lf(lf, &data.valid)?;
            state.lfs.push(lf.clone());
            // Pseudo-label: the LF's vote on its own query instance (§3.1).
            // Candidate LFs always fire on their query by construction.
            let vote = lf.apply(&data.train, query);
            debug_assert_ne!(vote, ABSTAIN, "candidate LF must fire on its query");
            state.query_indices.push(query);
            state.pseudo_labels.push(vote as usize);
        }
        Ok((lf, route))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionConfig;
    use adp_data::{generate, DatasetId, Scale};

    fn stage(data: &SplitDataset, seed: u64) -> QueryingStage {
        QueryingStage::new(
            data,
            SessionConfig::paper_defaults(true, seed).build_oracle(),
        )
    }

    #[test]
    fn lf_is_recorded_in_every_structure() {
        let data = generate(DatasetId::Youtube, Scale::Tiny, 5).unwrap();
        let mut q = stage(&data, 5);
        let mut state = SessionState::new(&data);
        // Find a query the simulated user answers.
        let answered = (0..data.train.len()).find_map(|i| {
            q.query(&data, &mut state, i, None)
                .unwrap()
                .0
                .map(|lf| (i, lf))
        });
        let (query, lf) = answered.expect("user answers some instance");
        assert_eq!(state.lfs.last().unwrap().key(), lf.key());
        assert!(state.seen_keys.contains(&lf.key()));
        assert_eq!(state.train_matrix.n_lfs(), state.lfs.len());
        assert_eq!(state.valid_matrix.n_lfs(), state.lfs.len());
        let (qi, pseudo) = state.pseudo_labelled().last().unwrap();
        assert_eq!(qi, query);
        assert_eq!(pseudo, lf.apply(&data.train, query) as usize);
    }

    #[test]
    fn unanswered_query_leaves_state_untouched() {
        // Two instances sharing one token with opposite labels: every
        // candidate LF has accuracy 0.5, below the user's threshold, so the
        // oracle can never answer.
        let train = adp_data::Dataset {
            name: "t".into(),
            task: adp_data::Task::SpamClassification,
            n_classes: 2,
            features: adp_data::FeatureSet::Sparse(adp_linalg::CsrMatrix::empty(2, 1)),
            labels: vec![1, 0],
            texts: None,
            encoded_docs: Some(vec![vec![0], vec![0]]),
        };
        let data = SplitDataset {
            valid: train.clone(),
            test: train.clone(),
            train,
            vocab: None,
            provenance: None,
        };
        let mut q = stage(&data, 5);
        let mut state = SessionState::new(&data);
        assert!(q.query(&data, &mut state, 0, None).unwrap().0.is_none());
        assert!(state.lfs.is_empty());
        assert_eq!(state.train_matrix.n_lfs(), 0);
        assert!(state.pseudo_labelled().next().is_none());
    }
}
