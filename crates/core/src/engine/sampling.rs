//! Stage 1 — **sampling**: pick the next query instance from the
//! unqueried pool (paper §3.3 for the ADP sampler; Table 4 for the
//! alternatives).

use super::state::SessionState;
use crate::adp_sampler::AdpSampler;
use crate::config::{CandidateStrategy, SamplerChoice, SessionConfig};
use adp_data::SplitDataset;
use adp_index::{IvfIndex, IvfParams};
use adp_lf::CandidateSpace;
use adp_sampler::{Committee, Lal, Passive, Sampler, SamplerContext, Seu, Uncertainty};

/// Per-list sample size when ranking inverted lists by boundary
/// uncertainty: the mean entropy of this many unqueried members stands in
/// for the whole list. Fixed so probe selection is deterministic and O(1)
/// per list.
const PROBE_SAMPLE: usize = 8;

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

/// Owns the configured sampler, the candidate strategy, and (under
/// [`CandidateStrategy::Ann`]) the IVF index that narrows each selection
/// to the inverted lists nearest the decision boundary.
pub struct SamplingStage {
    sampler: SessionSampler,
    strategy: CandidateStrategy,
    /// Seed for the index's k-means initialisation (its own stream off the
    /// master seed, so adding the index never perturbs sampler/oracle RNG).
    index_seed: u64,
    /// The IVF index, built lazily on the first `Ann` selection that has a
    /// model to rank lists with. Never serialized: the build is a pure
    /// function of `(features, index_seed)`, so a resumed session rebuilds
    /// the identical index — that is also why the periodic refresh below
    /// cannot desynchronise an interrupted run from a fresh one.
    index: Option<IvfIndex>,
    /// Refits since the index was last (re)built; at `refresh_every` the
    /// index is dropped and rebuilt on the next selection.
    refits_since_build: usize,
}

impl SamplingStage {
    /// Builds the sampler named by `config.sampler`, seeded from the
    /// master seed via [`SessionConfig::sampler_seed`]. The config's master
    /// `parallel` switch reaches the samplers with a chunked scoring pass
    /// (ADP, US, QBC); selections are bitwise identical either way.
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
        SamplingStage {
            sampler,
            strategy: config.candidates,
            index_seed: config.index_seed(),
            index: None,
            refits_since_build: 0,
        }
    }

    /// Called by the engine after every refit boundary. Under
    /// [`CandidateStrategy::Ann`] with `refresh_every > 0`, every
    /// `refresh_every`-th refit drops the index so the next selection
    /// rebuilds it — the hook where a model-aware index would re-cluster.
    /// (Today's index depends only on the immutable features and its seed,
    /// so a rebuild reproduces it exactly; the cadence is still observed so
    /// schedules and snapshots already pin its semantics.)
    pub(crate) fn note_refit(&mut self) {
        if let CandidateStrategy::Ann { refresh_every, .. } = self.strategy {
            if refresh_every > 0 && self.index.is_some() {
                self.refits_since_build += 1;
                if self.refits_since_build >= refresh_every {
                    self.index = None;
                    self.refits_since_build = 0;
                }
            }
        }
    }

    /// The candidate set for this selection under the `Ann` strategy:
    /// every unqueried member of the `nprobe` inverted lists with the
    /// highest mean predictive entropy (sampled over their first
    /// [`PROBE_SAMPLE`] unqueried members), ascending. `None` — meaning
    /// "score the full pool" — under the `Exact` strategy, before any
    /// model exists (cold start ties at uniform entropy anyway), or if
    /// every probed list is exhausted.
    fn ann_candidates(&mut self, data: &SplitDataset, state: &SessionState) -> Option<Vec<usize>> {
        let CandidateStrategy::Ann { nprobe, .. } = self.strategy else {
            return None;
        };
        if state.al_probs_train.is_none() && state.lm_probs_train.is_none() {
            return None;
        }
        if self.index.is_none() {
            self.index = Some(IvfIndex::build(
                &data.train.features,
                &IvfParams {
                    seed: self.index_seed,
                    ..IvfParams::default()
                },
            ));
            self.refits_since_build = 0;
        }
        let index = self.index.as_ref().expect("built above");
        let probs = |i: usize| -> &[f64] {
            if let Some(p) = &state.al_probs_train {
                return &p[i];
            }
            &state.lm_probs_train.as_ref().expect("checked above")[i]
        };
        let mut ranked: Vec<(f64, usize)> = Vec::with_capacity(index.nlist());
        for l in 0..index.nlist() {
            let mut sum = 0.0;
            let mut seen = 0usize;
            for &row in index.list(l) {
                if state.queried[row] {
                    continue;
                }
                sum += adp_linalg::entropy(probs(row));
                seen += 1;
                if seen == PROBE_SAMPLE {
                    break;
                }
            }
            if seen > 0 {
                ranked.push((sum / seen as f64, l));
            }
        }
        // Most uncertain lists first; entropy ties toward the smaller id.
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        ranked.truncate(nprobe);
        let mut candidates: Vec<usize> = ranked
            .iter()
            .flat_map(|&(_, l)| index.list(l).iter().copied())
            .filter(|&row| !state.queried[row])
            .collect();
        candidates.sort_unstable();
        if candidates.is_empty() {
            return None;
        }
        Some(candidates)
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
        let mut candidates = self.ann_candidates(data, state);
        if let Some(v) = visible {
            candidates = Some(match candidates {
                Some(c) => c.into_iter().filter(|&row| row < v).collect(),
                None => (0..v.min(data.train.len()))
                    .filter(|&row| !state.queried[row])
                    .collect(),
            });
            if candidates.as_ref().is_some_and(Vec::is_empty) {
                return None;
            }
        }
        let query = {
            let ctx = SamplerContext {
                train: &data.train,
                queried: &state.queried,
                al_probs: state.al_probs_train.as_deref(),
                lm_probs: state.lm_probs_train.as_deref(),
                n_labeled: state.query_indices.len(),
                space: Some(space),
                seen_lfs: Some(&state.seen_keys),
                candidates: candidates.as_deref(),
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
        let (data, space, mut stage) = stage_with(SamplerChoice::Adp);
        let mut state = SessionState::new(&data);
        for _ in 0..4 {
            let q = stage.select(&data, &space, &mut state, Some(5)).unwrap();
            assert!(q < 5, "query {q} is past the visibility cap");
        }
        // A fully-queried visible prefix reads as exhaustion.
        let mut capped = SessionState::new(&data);
        capped.queried[..3].fill(true);
        assert!(stage.select(&data, &space, &mut capped, Some(3)).is_none());
    }

    #[test]
    fn every_choice_builds_and_selects() {
        for choice in [
            SamplerChoice::Adp,
            SamplerChoice::Passive,
            SamplerChoice::Uncertainty,
            SamplerChoice::Lal,
            SamplerChoice::Seu,
            SamplerChoice::Qbc,
        ] {
            let (data, space, mut stage) = stage_with(choice);
            let mut state = SessionState::new(&data);
            assert!(
                stage.select(&data, &space, &mut state, None).is_some(),
                "{choice:?}"
            );
        }
    }
}
