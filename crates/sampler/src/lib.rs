//! Active-learning sample selectors (paper §4.3.2, Table 4).
//!
//! Everything a selector may consult lives in [`SamplerContext`]; the
//! [`Sampler`] trait then picks the next query instance from the unqueried
//! pool ([`SamplerContext::candidate_pool`]). Implemented here:
//!
//! * [`Passive`] — uniform random (the "Passive" row of Table 4);
//! * [`Uncertainty`] — maximum predictive entropy (Lewis 1995);
//! * [`Lal`] — "learning active learning" (Konyushkova et al. 2017): a
//!   regressor trained offline on Monte-Carlo AL episodes predicts each
//!   candidate's expected error reduction;
//! * [`Seu`] — Nemo's select-by-expected-utility (Hsieh et al. 2022):
//!   scores an instance by the expected utility of the LFs a user would
//!   create from it;
//! * [`Committee`] — query-by-committee vote entropy (Seung et al. 1992),
//!   an extension beyond Table 4 from the paper's related-work section.
//!
//! The paper's own ADP sampler needs both the AL model and the label model
//! and lives with the rest of the ActiveDP framework in the `activedp`
//! crate, implementing the same trait. It shares [`PoolScores`] with
//! [`Uncertainty`]: one score per pool row, kept until the model caches
//! change. Every scoring sampler breaks ties with the same reservoir pass.

pub mod committee;
pub mod lal;
pub mod passive;
pub mod pool_scores;
pub mod seu;
pub mod uncertainty;

pub use committee::Committee;
pub use lal::Lal;
pub use passive::Passive;
pub use pool_scores::PoolScores;
pub use seu::Seu;
pub use uncertainty::Uncertainty;

use adp_data::Dataset;
use adp_lf::{CandidateSpace, LfKey};
use adp_linalg::parallel::{self, Execution};
use adp_linalg::Matrix;
use rand::Rng;
use std::borrow::Cow;
use std::collections::HashSet;

/// Pool instances per parallel scoring chunk. Fixed (machine-independent)
/// per the `adp_linalg::parallel` contract, so chunk boundaries — and
/// therefore every scored float — are identical at every thread count.
pub const SCORE_CHUNK: usize = 1024;

/// Minimum pool size before scoring threads pay for themselves; below it
/// [`score_items`] stays on the calling thread.
pub const MIN_PARALLEL_SCORE: usize = 4096;

/// Scores every item of a candidate pool, fanning fixed-size chunks out
/// over scoped threads when `parallel` is set and the pool is large enough.
///
/// Each score is a pure function of its item, so the output — and any
/// serial argmax/tie-break pass consuming it afterwards — is **bitwise
/// identical** at every thread count. This is the split the samplers use:
/// the embarrassingly parallel per-instance scoring goes through here (or
/// through [`PoolScores`], which scores the whole pool into a kept buffer
/// under the same chunks), the RNG-consuming reservoir tie-break stays a
/// serial pass over the scores, and the selection (plus the sampler's RNG
/// stream position) comes out the same either way.
pub fn score_items<T: Sync>(
    items: &[T],
    parallel: bool,
    score: impl Fn(&T) -> f64 + Sync,
) -> Vec<f64> {
    let exec = if parallel {
        parallel::auto(items.len(), MIN_PARALLEL_SCORE)
    } else {
        Execution::Serial
    };
    score_items_with(items, exec, score)
}

/// [`score_items`] under an explicit execution policy (the determinism
/// harness sweeps thread counts through this).
pub fn score_items_with<T: Sync>(
    items: &[T],
    exec: Execution,
    score: impl Fn(&T) -> f64 + Sync,
) -> Vec<f64> {
    parallel::map_chunks(items.len(), SCORE_CHUNK, exec, |range| {
        range.map(|k| score(&items[k])).collect::<Vec<f64>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The argmax of `(row, score)` pairs, ties broken uniformly at random.
///
/// A score more than `tolerance` above the best so far replaces it; one
/// within `tolerance` of it is a tie, and the `t`-th tie replaces the best
/// with probability `1/t` (reservoir sampling), drawing one
/// `rng.gen_range(0..t)`. The pick and the draws therefore depend on the
/// order of `items`. `None` when `items` is empty.
pub(crate) fn reservoir_argmax(
    items: impl IntoIterator<Item = (usize, f64)>,
    tolerance: f64,
    rng: &mut impl Rng,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    let mut ties = 0usize;
    for (i, score) in items {
        match best {
            None => {
                best = Some((i, score));
                ties = 1;
            }
            Some((_, b)) if score > b + tolerance => {
                best = Some((i, score));
                ties = 1;
            }
            Some((_, b)) if (score - b).abs() <= tolerance => {
                ties += 1;
                if rng.gen_range(0..ties) == 0 {
                    best = Some((i, score));
                }
            }
            _ => {}
        }
    }
    best.map(|(i, _)| i)
}

/// Everything a sampler may look at when choosing the next query.
pub struct SamplerContext<'a> {
    /// The unlabeled pool (the training split).
    pub train: &'a Dataset,
    /// `queried[i]` is true once instance `i` has been shown to the user.
    pub queried: &'a [bool],
    /// Active-learning model probabilities per pool instance, when trained.
    pub al_probs: Option<&'a Matrix>,
    /// Label-model probabilities per pool instance, when LFs exist.
    pub lm_probs: Option<&'a Matrix>,
    /// Number of labelled/pseudo-labelled instances so far.
    pub n_labeled: usize,
    /// Candidate-LF space (needed by SEU).
    pub space: Option<&'a CandidateSpace>,
    /// LFs already returned by the user (SEU discounts them).
    pub seen_lfs: Option<&'a HashSet<LfKey>>,
    /// Arrival cap of a streaming pool
    /// ([`DriftSpec::ArrivingPool`](adp_data::DriftSpec)): only instances
    /// below it have arrived and may be queried. `None` means the whole
    /// pool is visible.
    pub visible: Option<usize>,
}

impl<'a> SamplerContext<'a> {
    /// The pool every selector scores: the unqueried instances below the
    /// arrival cap, ascending. Empty means the (visible) pool is exhausted.
    pub fn candidate_pool(&self) -> Vec<usize> {
        self.queried[..self.pool_end()]
            .iter()
            .enumerate()
            .filter_map(|(i, &q)| (!q).then_some(i))
            .collect()
    }

    /// One past the last row that may be queried: the arrival cap, clamped
    /// to the pool.
    pub(crate) fn pool_end(&self) -> usize {
        self.visible
            .map_or(self.queried.len(), |v| v.min(self.queried.len()))
    }

    /// The "primary" model distribution for instance `i`: the AL model when
    /// available, else the label model, else uniform.
    pub fn primary_probs(&self, i: usize) -> Cow<'a, [f64]> {
        match self.al_probs.or(self.lm_probs) {
            Some(p) => Cow::Borrowed(p.row(i)),
            None => Cow::Owned(vec![
                1.0 / self.train.n_classes as f64;
                self.train.n_classes
            ]),
        }
    }
}

/// A query-instance selector.
pub trait Sampler: Send {
    /// Picks the next instance to show the user, or `None` when the pool is
    /// exhausted.
    fn select(&mut self, ctx: &SamplerContext<'_>) -> Option<usize>;

    /// Short name for tables/logs.
    fn name(&self) -> &'static str;

    /// The sampler's internal RNG stream (xoshiro state words), for session
    /// snapshot/restore. Every decision input *other* than the stream — the
    /// queried mask, model probabilities, the labelled pool — is recoverable
    /// from `(SessionConfig, SessionState)`, so the stream is the only state
    /// a snapshot must carry per sampler.
    fn rng_state(&self) -> [u64; 4];

    /// Repositions the RNG stream to words previously captured with
    /// [`Sampler::rng_state`].
    fn restore_rng_state(&mut self, state: [u64; 4]);
}

#[cfg(test)]
pub(crate) mod testutil {
    use adp_data::{Dataset, FeatureSet, Task};
    use adp_linalg::Matrix;

    /// A tiny tabular pool with one feature equal to the index.
    pub fn pool(n: usize) -> Dataset {
        let x = Matrix::from_fn(n, 1, |i, _| i as f64);
        Dataset {
            name: "pool".into(),
            task: Task::OccupancyPrediction,
            n_classes: 2,
            features: FeatureSet::Dense(x),
            labels: (0..n).map(|i| usize::from(i >= n / 2)).collect(),
            texts: None,
            encoded_docs: None,
        }
    }

    /// Probability rows with the given positive-class probabilities.
    pub fn probs(ps: &[f64]) -> Matrix {
        Matrix::from_fn(ps.len(), 2, |i, c| if c == 1 { ps[i] } else { 1.0 - ps[i] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::{pool, probs};

    #[test]
    fn context_unqueried_iterates_pool() {
        let d = pool(4);
        let queried = vec![false, true, false, true];
        let ctx = SamplerContext {
            train: &d,
            queried: &queried,
            al_probs: None,
            lm_probs: None,
            n_labeled: 0,
            space: None,
            seen_lfs: None,
            visible: None,
        };
        assert_eq!(ctx.candidate_pool(), vec![0, 2]);
        // The arrival cap hides everything at or past it.
        let capped = SamplerContext {
            visible: Some(2),
            ..ctx
        };
        assert_eq!(capped.candidate_pool(), vec![0]);
        let wide = SamplerContext {
            visible: Some(9),
            ..capped
        };
        assert_eq!(wide.candidate_pool(), vec![0, 2]);
    }

    #[test]
    fn primary_probs_fallback_chain() {
        let d = pool(2);
        let queried = vec![false, false];
        let al = probs(&[0.9, 0.9]);
        let lm = probs(&[0.2, 0.2]);
        let mut ctx = SamplerContext {
            train: &d,
            queried: &queried,
            al_probs: Some(&al),
            lm_probs: Some(&lm),
            n_labeled: 0,
            space: None,
            seen_lfs: None,
            visible: None,
        };
        assert_eq!(ctx.primary_probs(0)[1], 0.9);
        ctx.al_probs = None;
        assert_eq!(ctx.primary_probs(0)[1], 0.2);
        ctx.lm_probs = None;
        assert_eq!(*ctx.primary_probs(0), [0.5, 0.5]);
    }
}
