//! Stage 1 — **sampling**: pick the next query instance from the
//! unqueried pool (paper §3.3 for the ADP sampler; Table 4 for the
//! alternatives).

use super::state::SessionState;
use crate::adp_sampler::AdpSampler;
use crate::config::{SamplerChoice, SessionConfig};
use adp_data::SplitDataset;
use adp_lf::CandidateSpace;
use adp_sampler::{Committee, Lal, Passive, Sampler, SamplerContext, Seu, Uncertainty};

/// The session's selector: trait objects for the context-driven samplers,
/// concrete storage for QBC (it must be fed the labelled pool each step).
enum SessionSampler {
    Boxed(Box<dyn Sampler>),
    Qbc(Committee),
}

impl SessionSampler {
    fn select(&mut self, ctx: &SamplerContext<'_>) -> Option<usize> {
        match self {
            SessionSampler::Boxed(s) => s.select(ctx),
            SessionSampler::Qbc(c) => c.select(ctx),
        }
    }

    fn rng_state(&self) -> [u64; 4] {
        match self {
            SessionSampler::Boxed(s) => s.rng_state(),
            SessionSampler::Qbc(c) => c.rng_state(),
        }
    }

    fn restore_rng_state(&mut self, state: [u64; 4]) {
        match self {
            SessionSampler::Boxed(s) => s.restore_rng_state(state),
            SessionSampler::Qbc(c) => c.restore_rng_state(state),
        }
    }
}

/// Owns the configured sampler.
pub struct SamplingStage {
    sampler: SessionSampler,
}

impl SamplingStage {
    /// Builds the sampler named by `config.sampler`, seeded from the
    /// master seed via [`SessionConfig::sampler_seed`]. The config's master
    /// `parallel` switch reaches the samplers with a chunked scoring pass
    /// (ADP, US, QBC); selections are bitwise identical either way. ADP and
    /// US keep their pool scores until the state's probability caches
    /// change (an [`adp_sampler::PoolScores`]), so a fresh or resumed stage
    /// rescores on its first selection and nothing of the scores is
    /// snapshotted.
    pub fn from_config(config: &SessionConfig) -> Self {
        let seed = config.sampler_seed();
        let sampler = match config.sampler {
            SamplerChoice::Adp => {
                let mut s = AdpSampler::new(config.alpha, seed);
                s.parallel = config.parallel;
                SessionSampler::Boxed(Box::new(s))
            }
            SamplerChoice::Passive => SessionSampler::Boxed(Box::new(Passive::new(seed))),
            SamplerChoice::Uncertainty => {
                let mut s = Uncertainty::new(seed);
                s.parallel = config.parallel;
                SessionSampler::Boxed(Box::new(s))
            }
            SamplerChoice::Lal => SessionSampler::Boxed(Box::new(Lal::with_defaults(seed))),
            SamplerChoice::Seu => SessionSampler::Boxed(Box::new(Seu::new(seed))),
            SamplerChoice::Qbc => {
                let mut s = Committee::new(seed, 5);
                s.parallel = config.parallel;
                SessionSampler::Qbc(s)
            }
        };
        SamplingStage { sampler }
    }

    /// The sampler's RNG stream position, for [`Engine::snapshot`].
    ///
    /// [`Engine::snapshot`]: super::Engine::snapshot
    pub(crate) fn rng_state(&self) -> [u64; 4] {
        self.sampler.rng_state()
    }

    /// Repositions the sampler's RNG stream when resuming a snapshot.
    pub(crate) fn restore_rng_state(&mut self, state: [u64; 4]) {
        self.sampler.restore_rng_state(state);
    }

    /// Selects the next query instance given the shared `space` of
    /// candidate LFs, marking it queried in `state`. Returns `None` when
    /// the pool is exhausted.
    ///
    /// `visible` caps the candidate pool to the first `visible` instances —
    /// the streaming-arrival window of
    /// [`DriftSpec::ArrivingPool`](adp_data::DriftSpec): instances past the
    /// cap have not "arrived" yet and cannot be sampled. `None` (every
    /// static scenario) leaves the pool untouched. A `Some` cap whose
    /// visible prefix is fully queried returns `None` like an exhausted
    /// pool does, even if later refits would widen the window.
    pub fn select(
        &mut self,
        data: &SplitDataset,
        space: &CandidateSpace,
        state: &mut SessionState,
        visible: Option<usize>,
    ) -> Option<usize> {
        if let SessionSampler::Qbc(qbc) = &mut self.sampler {
            qbc.set_labeled(&state.query_indices, &state.pseudo_labels);
        }
        let query = {
            let ctx = SamplerContext {
                train: &data.train,
                queried: &state.queried,
                al_probs: state.al_probs_train.as_ref(),
                lm_probs: state.lm_probs_train.as_ref(),
                n_labeled: state.query_indices.len(),
                space: Some(space),
                seen_lfs: Some(&state.seen_keys),
                visible,
            };
            self.sampler.select(&ctx)
        };
        if let Some(query) = query {
            state.queried[query] = true;
        }
        query
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_data::{generate, DatasetId, Scale};

    fn stage_with(choice: SamplerChoice) -> (SplitDataset, CandidateSpace, SamplingStage) {
        let data = generate(DatasetId::Youtube, Scale::Tiny, 5).unwrap();
        let space = CandidateSpace::build(&data.train);
        let cfg = SessionConfig {
            sampler: choice,
            ..SessionConfig::paper_defaults(true, 5)
        };
        let stage = SamplingStage::from_config(&cfg);
        (data, space, stage)
    }

    #[test]
    fn selects_unqueried_instances_and_marks_them() {
        let (data, space, mut stage) = stage_with(SamplerChoice::Adp);
        let mut state = SessionState::new(&data);
        let q = stage.select(&data, &space, &mut state, None).unwrap();
        assert!(state.queried[q]);
        let q2 = stage.select(&data, &space, &mut state, None).unwrap();
        assert_ne!(q, q2, "second pick must avoid the queried instance");
    }

    #[test]
    fn exhausted_pool_returns_none() {
        let (data, space, mut stage) = stage_with(SamplerChoice::Passive);
        let mut state = SessionState::new(&data);
        state.queried = vec![true; data.train.len()];
        assert!(stage.select(&data, &space, &mut state, None).is_none());
    }

    #[test]
    fn visibility_cap_restricts_selection_to_the_arrived_prefix() {
        for choice in SamplerChoice::all() {
            let (data, space, mut stage) = stage_with(choice);
            let mut state = SessionState::new(&data);
            for _ in 0..5 {
                let q = stage.select(&data, &space, &mut state, Some(10)).unwrap();
                assert!(q < 10, "{choice:?}: query {q} is past the visibility cap");
            }
            // A fully-queried visible prefix reads as exhaustion.
            let mut capped = SessionState::new(&data);
            capped.queried[..3].fill(true);
            assert!(
                stage.select(&data, &space, &mut capped, Some(3)).is_none(),
                "{choice:?}"
            );
        }
    }

    #[test]
    fn every_choice_builds_and_selects() {
        for choice in SamplerChoice::all() {
            let (data, space, mut stage) = stage_with(choice);
            let mut state = SessionState::new(&data);
            assert!(
                stage.select(&data, &space, &mut state, None).is_some(),
                "{choice:?}"
            );
        }
    }
}
