//! Uniform random (passive) selection.

use crate::{Sampler, SamplerContext};
use rand::{Rng, SeedableRng};

/// Picks an unqueried instance uniformly at random.
#[derive(Debug)]
pub struct Passive {
    rng: rand::rngs::StdRng,
}

impl Passive {
    /// A passive sampler with its own deterministic stream.
    pub fn new(seed: u64) -> Self {
        Passive {
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }
}

impl Sampler for Passive {
    fn select(&mut self, ctx: &SamplerContext<'_>) -> Option<usize> {
        let pool: Vec<usize> = ctx.candidate_pool();
        if pool.is_empty() {
            None
        } else {
            Some(pool[self.rng.gen_range(0..pool.len())])
        }
    }

    fn name(&self) -> &'static str {
        "Passive"
    }

    fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    fn restore_rng_state(&mut self, state: [u64; 4]) {
        self.rng = rand::rngs::StdRng::from_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::pool;

    fn ctx<'a>(d: &'a adp_data::Dataset, queried: &'a [bool]) -> SamplerContext<'a> {
        SamplerContext {
            train: d,
            queried,
            al_probs: None,
            lm_probs: None,
            n_labeled: 0,
            space: None,
            seen_lfs: None,
            visible: None,
        }
    }

    #[test]
    fn selects_only_unqueried() {
        let d = pool(10);
        let mut queried = vec![false; 10];
        let mut s = Passive::new(0);
        for _ in 0..10 {
            let i = s.select(&ctx(&d, &queried)).unwrap();
            assert!(!queried[i]);
            queried[i] = true;
        }
        assert!(s.select(&ctx(&d, &queried)).is_none());
    }

    #[test]
    fn deterministic_by_seed() {
        let d = pool(50);
        let queried = vec![false; 50];
        let run = |seed| {
            let mut s = Passive::new(seed);
            (0..5)
                .map(|_| s.select(&ctx(&d, &queried)).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Passive::new(0).name(), "Passive");
    }
}
