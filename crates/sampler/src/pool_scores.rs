//! Pool scores kept across selections until the model caches change.
//!
//! The entropy scores of [`Uncertainty`](crate::Uncertainty) and the ADP
//! sampler are pure functions of a row and the context's two probability
//! caches, which move only at a refit. A batch of `k` queries between two
//! refits, or a batch whose oracle returned no LF, selects against the same
//! caches again; [`PoolScores`] scores every pool row once per cache pair
//! and answers each selection from the kept scores.
//!
//! The key is the caches' *contents*: shape, `None`/`Some` and every
//! value's bits, compared against a copy taken at the last rescore. A
//! refit signal would miss a caller that writes the caches itself, and an
//! address can be reused by the allocator for new contents. The scores are
//! derived data: nothing of them is snapshotted, and a fresh cache simply
//! rescores on its first selection.

use crate::{reservoir_argmax, SamplerContext, MIN_PARALLEL_SCORE, SCORE_CHUNK};
use adp_linalg::parallel::{self, Execution};
use adp_linalg::Matrix;
use rand::Rng;

/// One score per pool row, plus the model caches they were scored from.
#[derive(Debug, Default)]
pub struct PoolScores {
    scores: Vec<f64>,
    al: CacheCopy,
    lm: CacheCopy,
    n_classes: usize,
    scored: bool,
    rescores: usize,
}

/// A bit-exact copy of one optional probability cache. The buffer is kept
/// across rescores, so a rescore copies into memory it already owns.
#[derive(Debug, Default)]
struct CacheCopy {
    present: bool,
    shape: (usize, usize),
    values: Vec<f64>,
}

impl CacheCopy {
    fn matches(&self, cache: Option<&Matrix>) -> bool {
        match cache {
            None => !self.present,
            Some(m) => {
                self.present && self.shape == m.shape() && same_bits(&self.values, m.as_slice())
            }
        }
    }

    fn copy_from(&mut self, cache: Option<&Matrix>) {
        self.values.clear();
        self.present = cache.is_some();
        self.shape = cache.map_or((0, 0), Matrix::shape);
        if let Some(m) = cache {
            self.values.extend_from_slice(m.as_slice());
        }
    }
}

/// Whether two equally long slices hold the same bits, compared in blocks
/// without an early exit inside a block so the compiler can vectorise it.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    const BLOCK: usize = 256;
    a.chunks(BLOCK).zip(b.chunks(BLOCK)).all(|(x, y)| {
        x.iter()
            .zip(y)
            .fold(true, |same, (p, q)| same & (p.to_bits() == q.to_bits()))
    })
}

impl PoolScores {
    /// An empty cache; the first selection scores the pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Picks the best unqueried row below the context's arrival cap, in
    /// ascending row order, breaking ties within `tolerance` uniformly at
    /// random by a reservoir pass drawing from `rng`.
    ///
    /// The pool is rescored, every row through `score`, only when the
    /// context's caches, row count or class count differ from those of the
    /// last rescore; otherwise the kept scores are reused. `score` must
    /// therefore depend on nothing else that changes between selections
    /// (a sampler's fixed constants are fine). Scoring fans fixed-size
    /// chunks out over scoped threads when `parallel` is set and the pool
    /// is large enough; every score, and so every pick and every RNG draw,
    /// is the same at any thread count.
    pub fn select(
        &mut self,
        ctx: &SamplerContext<'_>,
        parallel: bool,
        tolerance: f64,
        rng: &mut impl Rng,
        score: impl Fn(usize) -> f64 + Sync,
    ) -> Option<usize> {
        self.refresh(ctx, parallel, score);
        let end = ctx.pool_end();
        let pool = ctx.queried[..end]
            .iter()
            .zip(&self.scores)
            .enumerate()
            .filter(|(_, (&queried, _))| !queried)
            .map(|(i, (_, &s))| (i, s));
        reservoir_argmax(pool, tolerance, rng)
    }

    /// How many times the pool has been scored.
    pub fn rescores(&self) -> usize {
        self.rescores
    }

    fn refresh(
        &mut self,
        ctx: &SamplerContext<'_>,
        parallel: bool,
        score: impl Fn(usize) -> f64 + Sync,
    ) {
        let n = ctx.queried.len();
        let n_classes = ctx.train.n_classes;
        if self.scored
            && self.scores.len() == n
            && self.n_classes == n_classes
            && self.al.matches(ctx.al_probs)
            && self.lm.matches(ctx.lm_probs)
        {
            return;
        }
        self.al.copy_from(ctx.al_probs);
        self.lm.copy_from(ctx.lm_probs);
        self.n_classes = n_classes;
        self.scores.clear();
        self.scores.resize(n, 0.0);
        let exec = if parallel {
            parallel::auto(n, MIN_PARALLEL_SCORE)
        } else {
            Execution::Serial
        };
        parallel::fill_chunks(&mut self.scores, 1, SCORE_CHUNK, exec, |rows, out| {
            for (slot, i) in out.iter_mut().zip(rows) {
                *slot = score(i);
            }
        });
        self.scored = true;
        self.rescores += 1;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::score_items;
    use crate::testutil::{pool, probs};
    use adp_data::Dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-selection scorer the cache replaces, kept verbatim as the
    /// reference: collect the candidate pool, score it, reservoir pass.
    pub(crate) fn select_per_selection(
        ctx: &SamplerContext<'_>,
        parallel: bool,
        tolerance: f64,
        rng: &mut StdRng,
        score: impl Fn(usize) -> f64 + Sync,
    ) -> Option<usize> {
        let pool: Vec<usize> = ctx.candidate_pool();
        let scores = score_items(&pool, parallel, |&i| score(i));
        let mut best: Option<(usize, f64)> = None;
        let mut ties = 0usize;
        for (&i, &s) in pool.iter().zip(&scores) {
            match best {
                None => {
                    best = Some((i, s));
                    ties = 1;
                }
                Some((_, b)) if s > b + tolerance => {
                    best = Some((i, s));
                    ties = 1;
                }
                Some((_, b)) if (s - b).abs() <= tolerance => {
                    ties += 1;
                    if rng.gen_range(0..ties) == 0 {
                        best = Some((i, s));
                    }
                }
                _ => {}
            }
        }
        best.map(|(i, _)| i)
    }

    /// The pool both samplers select from, edited between selections.
    pub(crate) struct World {
        pub data: Dataset,
        pub queried: Vec<bool>,
        pub al: Option<Matrix>,
        pub lm: Option<Matrix>,
        pub visible: Option<usize>,
    }

    impl World {
        pub fn new(n: usize) -> Self {
            World {
                data: pool(n),
                queried: vec![false; n],
                al: None,
                lm: None,
                visible: None,
            }
        }

        pub fn ctx(&self) -> SamplerContext<'_> {
            SamplerContext {
                train: &self.data,
                queried: &self.queried,
                al_probs: self.al.as_ref(),
                lm_probs: self.lm.as_ref(),
                n_labeled: 0,
                space: None,
                seen_lfs: None,
                visible: self.visible,
            }
        }
    }

    /// Positive-class probabilities drawn from only a few values, so the
    /// reservoir tie-break runs on most selections.
    pub(crate) fn tied(n: usize, salt: usize) -> Matrix {
        let ps: Vec<f64> = (0..n)
            .map(|i| [0.5, 0.7, 0.9, 0.6][(i * 7 + salt) % 4])
            .collect();
        probs(&ps)
    }

    /// Distinct positive-class probabilities.
    pub(crate) fn spread(n: usize, salt: usize) -> Matrix {
        let ps: Vec<f64> = (0..n)
            .map(|i| 0.02 + 0.96 * (((i * 37 + salt * 11) % 101) as f64 / 100.0))
            .collect();
        probs(&ps)
    }

    /// One scripted edit of the world, and whether it must rescore.
    pub(crate) type Edit = (&'static str, fn(&mut World), bool);

    /// Edits covering every way the key can (and must not) change.
    pub(crate) fn script() -> Vec<Edit> {
        fn realloc(m: &mut Option<Matrix>) {
            let old = m.as_ref().expect("cache present");
            let copy = Matrix::from_vec(old.nrows(), old.ncols(), old.as_slice().to_vec());
            let copy = copy.expect("same shape");
            assert_ne!(copy.as_slice().as_ptr(), old.as_slice().as_ptr());
            *m = Some(copy);
        }
        fn nudge(m: &mut Option<Matrix>) {
            let m = m.as_mut().expect("cache present");
            let at = m.as_slice().as_ptr();
            let v = &mut m.as_mut_slice()[2];
            *v = f64::from_bits(v.to_bits() + 1);
            assert_eq!(m.as_slice().as_ptr(), at);
        }
        vec![
            ("cold start", |_| {}, true),
            ("nothing changed", |_| {}, false),
            (
                "AL cache appears",
                |w| w.al = Some(tied(w.queried.len(), 0)),
                true,
            ),
            (
                "AL cache re-allocated, equal bits",
                |w| realloc(&mut w.al),
                false,
            ),
            ("AL cache changed in place", |w| nudge(&mut w.al), true),
            (
                "LM cache appears",
                |w| w.lm = Some(spread(w.queried.len(), 1)),
                true,
            ),
            (
                "LM cache re-allocated, equal bits",
                |w| realloc(&mut w.lm),
                false,
            ),
            ("LM cache changed in place", |w| nudge(&mut w.lm), true),
            (
                "arrival cap",
                |w| w.visible = Some(w.queried.len() / 2),
                false,
            ),
            (
                "arrival cap widens",
                |w| w.visible = Some(w.queried.len() - 3),
                false,
            ),
            ("arrival cap lifted", |w| w.visible = None, false),
            ("AL cache disappears", |w| w.al = None, true),
            ("LM cache disappears", |w| w.lm = None, true),
            (
                "pool grows",
                |w| {
                    let n = w.queried.len() + 8;
                    w.data = pool(n);
                    w.queried.resize(n, false);
                    w.al = Some(tied(n, 3));
                    w.lm = Some(tied(n, 2));
                },
                true,
            ),
            ("nothing changed", |_| {}, false),
            (
                "AL cache replaced",
                |w| w.al = Some(spread(w.queried.len(), 5)),
                true,
            ),
        ]
    }

    /// Runs the script, three selections per edit, through a cached and a
    /// per-selection sampler, asserting equal picks and RNG words after
    /// every selection and the expected number of rescores after each edit.
    pub(crate) fn assert_script_parity(
        n: usize,
        mut cached: impl FnMut(&SamplerContext<'_>) -> (Option<usize>, [u64; 4], usize),
        mut reference: impl FnMut(&SamplerContext<'_>) -> (Option<usize>, [u64; 4]),
    ) {
        let mut world = World::new(n);
        let mut expected_rescores = 0;
        for (what, edit, rescores) in script() {
            edit(&mut world);
            expected_rescores += usize::from(rescores);
            for _ in 0..3 {
                let (pick, rng, count) = cached(&world.ctx());
                let (ref_pick, ref_rng) = reference(&world.ctx());
                assert_eq!(pick, ref_pick, "n={n} {what}: picks differ");
                assert_eq!(rng, ref_rng, "n={n} {what}: RNG words differ");
                assert_eq!(count, expected_rescores, "n={n} {what}: rescores");
                let pick = pick.expect("pool not exhausted");
                assert!(pick < world.ctx().pool_end(), "n={n} {what}: past the cap");
                world.queried[pick] = true;
            }
        }
    }

    #[test]
    fn entropy_product_cache_matches_per_selection_scoring() {
        let product = |ctx: &SamplerContext<'_>, i: usize| {
            let max_h = (ctx.train.n_classes as f64).ln();
            let h = |m: Option<&Matrix>| m.map_or(max_h, |p| adp_linalg::entropy(p.row(i)));
            h(ctx.al_probs).powf(0.5) * h(ctx.lm_probs).powf(0.5)
        };
        for (n, parallel) in [(40, false), (5000, true)] {
            let mut cache = PoolScores::new();
            let mut rng = StdRng::seed_from_u64(9);
            let mut ref_rng = StdRng::seed_from_u64(9);
            assert_script_parity(
                n,
                |ctx| {
                    let pick = cache.select(ctx, parallel, 1e-15, &mut rng, |i| product(ctx, i));
                    (pick, rng.state(), cache.rescores())
                },
                |ctx| {
                    let score = |i| product(ctx, i);
                    let pick = select_per_selection(ctx, parallel, 1e-15, &mut ref_rng, score);
                    (pick, ref_rng.state())
                },
            );
        }
    }

    #[test]
    fn class_count_change_rescores() {
        let mut world = World::new(6);
        let mut cache = PoolScores::new();
        let mut rng = StdRng::seed_from_u64(1);
        let max_h = |ctx: &SamplerContext<'_>| (ctx.train.n_classes as f64).ln();
        let ctx = world.ctx();
        cache.select(&ctx, false, 1e-15, &mut rng, |_| max_h(&ctx));
        world.data.n_classes = 3;
        let ctx = world.ctx();
        cache.select(&ctx, false, 1e-15, &mut rng, |_| max_h(&ctx));
        assert_eq!(cache.rescores(), 2);
    }
}
