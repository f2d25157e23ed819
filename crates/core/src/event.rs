//! Per-step events: the unit a write-ahead log journals.
//!
//! One [`StepEvent`] is everything iteration `i` added to a session beyond
//! what iteration `i - 1` already determined: the sampled query, the LF
//! the oracle returned (if any), and where both RNG streams ended up. A
//! snapshot at iteration `j` plus the events `j+1 ..= k` therefore
//! reconstructs the exact snapshot an uninterrupted run would produce at
//! `k` (see [`replay`](crate::replay)) — the same bitwise-parity contract
//! session snapshots obey, at a per-step rather than full-state price.
//! Events are what the `adp-wal` crate appends to its segments; the byte
//! layout rides the same `adp-wire` [`Encode`]/[`Decode`] building blocks
//! (and the same LF body encoding) as [`SessionSnapshot`] itself.
//!
//! **Commit points.** [`Engine::step_batch`](crate::Engine::step_batch)
//! refits once at the *end* of a batch, so the engine state mid-batch is
//! not something a fresh engine can be resumed into: the per-iteration
//! events exist, but the models lag until the batch closes. The last event
//! of every `step()` / `step_batch()` call carries `commit = true`; only
//! commit points are valid replay targets, and recovery truncates an
//! uncommitted tail (a crash mid-batch re-runs that batch from its start).
//!
//! [`SessionSnapshot`]: crate::SessionSnapshot

use adp_lf::LabelFunction;
use adp_oracle::{RouteChoice, RoutedStep};
use adp_wire::{Decode, Encode, Reader, WireError, Writer};

/// What one loop iteration did, as replayable data (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct StepEvent {
    /// 1-based iteration number (events in a journal are contiguous).
    pub iteration: usize,
    /// The sampled query instance, or `None` when the pool was exhausted.
    pub query: Option<usize>,
    /// The LF the oracle returned, if any.
    pub lf: Option<LabelFunction>,
    /// The sampler's RNG stream position *after* this iteration.
    pub sampler_rng: [u64; 4],
    /// The oracle's RNG stream position *after* this iteration. The
    /// oracle's returned-LF set is not logged — it reconstructs from the
    /// `lf` fields of the event stream.
    pub oracle_rng: [u64; 4],
    /// Whether the engine state right after this iteration is resumable:
    /// `true` for the last event of every `step()`/`step_batch()` call
    /// (the refit has run), `false` for events inside an open batch.
    pub commit: bool,
    /// Which oracle answered and where the cheap oracle's RNG stream ended
    /// up, when the session routes between two oracles
    /// ([`OracleKind::Noisy`](crate::OracleKind)). `None` for plain
    /// simulated-user sessions.
    pub route: Option<RoutedStep>,
}

impl Encode for StepEvent {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.iteration);
        w.put(&self.query);
        match &self.lf {
            None => w.put_bool(false),
            Some(lf) => {
                w.put_bool(true);
                crate::snapshot::enc_lf(w, lf);
            }
        }
        w.put(&self.sampler_rng);
        w.put(&self.oracle_rng);
        w.put_bool(self.commit);
        match &self.route {
            None => w.put_bool(false),
            Some(step) => {
                w.put_bool(true);
                w.put_u8(step.choice.tag());
                w.put(&step.cheap_rng);
            }
        }
    }
}

impl Decode for StepEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(StepEvent {
            iteration: r.get_usize()?,
            query: r.get()?,
            lf: if r.get_bool()? {
                Some(crate::snapshot::dec_lf(r)?)
            } else {
                None
            },
            sampler_rng: r.get()?,
            oracle_rng: r.get()?,
            commit: r.get_bool()?,
            route: if r.get_bool()? {
                let tag = r.get_u8()?;
                let choice = RouteChoice::from_tag(tag).ok_or(WireError::BadTag {
                    what: "route choice",
                    tag,
                })?;
                Some(RoutedStep {
                    choice,
                    cheap_rng: r.get()?,
                })
            } else {
                None
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_lf::StumpOp;

    fn sample() -> StepEvent {
        StepEvent {
            iteration: 7,
            query: Some(88),
            lf: Some(LabelFunction::Keyword {
                token: 21,
                label: 1,
            }),
            sampler_rng: [1, 2, 3, 4],
            oracle_rng: [5, 6, 7, 8],
            commit: true,
            route: None,
        }
    }

    #[test]
    fn event_roundtrips_exactly() {
        for event in [
            sample(),
            StepEvent {
                query: None,
                lf: None,
                commit: false,
                ..sample()
            },
            StepEvent {
                lf: Some(LabelFunction::Stump {
                    feature: 3,
                    threshold: -0.125,
                    op: StumpOp::Ge,
                    label: 0,
                }),
                ..sample()
            },
            StepEvent {
                route: Some(RoutedStep {
                    choice: RouteChoice::Escalated,
                    cheap_rng: [9, 10, 11, 12],
                }),
                ..sample()
            },
        ] {
            let mut w = Writer::new();
            w.put(&event);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back: StepEvent = r.get().unwrap();
            r.finish().unwrap();
            assert_eq!(event, back);
            // Canonical: re-encoding reproduces the bytes.
            let mut w2 = Writer::new();
            w2.put(&back);
            assert_eq!(bytes, w2.into_bytes());
        }
    }

    #[test]
    fn truncation_and_bad_tags_are_typed_errors() {
        let mut w = Writer::new();
        w.put(&sample());
        let bytes = w.into_bytes();
        // Every cut is a typed error, the route flag's included.
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.get::<StepEvent>().is_err() || r.finish().is_err());
        }
        // An LF-presence byte that is neither 0 nor 1.
        let mut w = Writer::new();
        w.put_usize(1);
        w.put(&Some(3usize));
        w.put_u8(9);
        let garbled = w.into_bytes();
        let mut r = Reader::new(&garbled);
        assert!(matches!(r.get::<StepEvent>(), Err(WireError::BadBool(9))));
    }

    #[test]
    fn routed_trailer_truncation_and_bad_choice_are_typed_errors() {
        let routed = StepEvent {
            route: Some(RoutedStep {
                choice: RouteChoice::Cheap,
                cheap_rng: [13, 14, 15, 16],
            }),
            ..sample()
        };
        let mut w = Writer::new();
        w.put(&routed);
        let bytes = w.into_bytes();
        let trailer_at = bytes.len() - (1 + 1 + 32);
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            // The whole trailer gone (a pre-routing event) is an error as
            // much as a partial one: every current writer emits it.
            assert!(r.get::<StepEvent>().is_err() || r.finish().is_err());
        }
        // A route-choice tag outside the enum.
        let mut garbled = bytes.clone();
        let tag_at = trailer_at + 1;
        garbled[tag_at] = 9;
        let mut r = Reader::new(&garbled);
        assert!(matches!(
            r.get::<StepEvent>(),
            Err(WireError::BadTag {
                what: "route choice",
                tag: 9
            })
        ));
    }
}
