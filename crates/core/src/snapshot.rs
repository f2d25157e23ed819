//! Session snapshot/restore: the durable form of a running engine.
//!
//! A [`SessionSnapshot`] holds only what cannot be derived — the full
//! [`ScenarioSpec`], the [`PersistedState`] (the LFs, the queried rows, the
//! pseudo-labelled set, the selection and the parameters the last refit
//! fitted) and the RNG, oracle and router state — so its size does not grow
//! with the pool. Resume rebuilds the rest with the code a refit runs: the
//! dataset from the spec's provenance, both vote matrices by applying the
//! LFs, and both probability caches as the stored models' predictions over
//! the pool the last refit saw. In data programming the learned LF
//! accuracies *are* the label model, so no LabelPick and no fit run, yet
//! *snapshot at iteration k → restore → run to the end* is **bitwise
//! identical** to the uninterrupted run (pinned by `tests/engine_parity.rs`),
//! and [`Engine::resume`](crate::Engine) needs nothing but the bytes.
//!
//! The byte encoding ([`SessionSnapshot::to_bytes`] /
//! [`SessionSnapshot::from_bytes`]) rides the `adp-wire` codec inside a
//! versioned envelope (magic `ADPSNAP\0`, format version
//! [`SNAPSHOT_VERSION`]). Encoding is canonical — LF-key sets and queried
//! rows are sorted — so the same snapshot always produces the same bytes;
//! the committed golden-bytes fixture keeps format changes deliberate.
//! Only the current version decodes: snapshots are operational
//! checkpoints, not archives, and decoders reject every other version with
//! a typed [`WireError::UnknownVersion`].

use crate::engine::training::FittedParams;
use crate::error::ActiveDpError;
use crate::scenario::ScenarioSpec;
use adp_data::{FeatureSet, SplitDataset};
use adp_lf::{LabelFunction, LfKey, StumpOp, UserState};
use adp_oracle::{RouteStats, RoutedState};
use adp_wire::{read_envelope, write_envelope, Reader, WireError, Writer};

/// Magic bytes opening every encoded session snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"ADPSNAP\0";

/// Current snapshot format version, and the only one decoded. Bumped to 2
/// when snapshots started embedding the whole [`ScenarioSpec`] (dataset
/// provenance and budget schedule included) instead of a bare session
/// config, to 3 when the embedded spec gained the candidate strategy, and
/// to 4 when the spec gained the oracle kind + drift scenario and the
/// snapshot grew the optional routed-oracle state (the cheap oracle's RNG
/// stream and the cost ledger), and to 5 when it traded everything
/// derivable for the fitted parameters. Bump deliberately: the golden-bytes test
/// pins the encoding, and decoders reject every other version — older
/// ones included (see MIGRATION.md) — with [`WireError::UnknownVersion`].
pub const SNAPSHOT_VERSION: u32 = 5;

/// The loop state a snapshot persists: the part of
/// [`SessionState`](crate::SessionState) that cannot be derived.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedState {
    /// All LFs collected so far, in iteration order.
    pub lfs: Vec<LabelFunction>,
    /// Every training row the sampler drew, ascending — with or without an
    /// LF back, so not derivable from `query_indices`.
    pub queried: Vec<usize>,
    /// As in [`SessionState`](crate::SessionState).
    pub query_indices: Vec<usize>,
    /// As in [`SessionState`](crate::SessionState).
    pub pseudo_labels: Vec<usize>,
    /// As in [`SessionState`](crate::SessionState).
    pub selected: Vec<usize>,
    /// As in [`SessionState`](crate::SessionState).
    pub iteration: usize,
    /// The iteration of the last refit (0 before the first).
    pub fitted_at: usize,
    /// The models' parameters as the last refit left them.
    pub params: FittedParams,
}

impl PersistedState {
    /// Checks that a decoded (well-formed) state is consistent with the
    /// split it resumes over — every index in bounds, every LF applicable —
    /// so a corrupt checkpoint is a typed error, not a panic while the
    /// matrices are derived. The models check the parameters as they load.
    pub(crate) fn validate_for(&self, data: &SplitDataset) -> Result<(), ActiveDpError> {
        let (n_train, n_classes) = (data.train.len(), data.train.n_classes);
        let dense_cols = match &data.train.features {
            FeatureSet::Dense(x) => x.ncols(),
            FeatureSet::Sparse(_) => 0,
        };
        let applies = |lf: &LabelFunction| match *lf {
            LabelFunction::Keyword { label, .. } => data.is_textual() && label < n_classes,
            LabelFunction::Stump { feature, label, .. } => {
                feature < dense_cols && label < n_classes
            }
        };
        let problem = if !self.queried.windows(2).all(|w| w[0] < w[1]) {
            "queried rows are not strictly ascending"
        } else if self
            .queried
            .iter()
            .chain(&self.query_indices)
            .any(|&r| r >= n_train)
        {
            "a row is outside the pool"
        } else if self.query_indices.len() != self.pseudo_labels.len() {
            "query indices and pseudo labels differ in number"
        } else if self.pseudo_labels.iter().any(|&y| y >= n_classes) {
            "a pseudo label is not a class"
        } else if self.selected.iter().any(|&j| j >= self.lfs.len()) {
            "the selection names a missing LF"
        } else if self.fitted_at > self.iteration {
            "the last refit follows the last iteration"
        } else if !self.lfs.iter().all(applies) {
            "an LF cannot be evaluated on the dataset"
        } else {
            return Ok(());
        };
        Err(ActiveDpError::BadConfig {
            reason: format!("snapshot state does not fit the {n_train}-row split: {problem}"),
        })
    }
}

/// Everything needed to resume a session exactly where it stopped, as
/// plain data (see the module docs for what is derived instead).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The complete run description, dataset provenance and seed included.
    pub spec: ScenarioSpec,
    /// The loop state that cannot be derived.
    pub state: PersistedState,
    /// The sampler's RNG stream position.
    pub sampler_rng: [u64; 4],
    /// The expensive oracle's mutable state (RNG stream + returned-LF set).
    pub oracle: UserState,
    /// The router's mutable state when the session runs a dual-oracle
    /// configuration ([`OracleKind::Noisy`](crate::OracleKind)): the cheap
    /// oracle's RNG stream + returned-LF set and the accumulated cost
    /// ledger. `None` for plain simulated-user sessions.
    pub routed: Option<RoutedState>,
}

impl SessionSnapshot {
    /// The snapshot's session configuration (sugar for
    /// `&self.spec.session`).
    pub fn config(&self) -> &crate::SessionConfig {
        &self.spec.session
    }

    /// Encodes the snapshot into its canonical, versioned byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = write_envelope(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        w.put(&self.spec);
        enc_state(&mut w, &self.state);
        w.put(&self.sampler_rng);
        w.put(&self.oracle.rng);
        enc_keys(&mut w, &self.oracle.returned);
        // Optional routed-oracle state.
        match &self.routed {
            None => w.put_bool(false),
            Some(routed) => {
                w.put_bool(true);
                w.put(&routed.cheap.rng);
                enc_keys(&mut w, &routed.cheap.returned);
                w.put_u64(routed.stats.cheap_queries);
                w.put_u64(routed.stats.expensive_queries);
                w.put_u64(routed.stats.escalations);
                w.put_f64(routed.stats.cheap_cost);
                w.put_f64(routed.stats.expensive_cost);
            }
        }
        w.into_bytes()
    }

    /// Decodes a snapshot previously written by [`SessionSnapshot::to_bytes`].
    ///
    /// Rejects foreign magic, every format version but
    /// [`SNAPSHOT_VERSION`], truncation, trailing bytes and structurally
    /// inconsistent payloads with typed errors — a corrupt checkpoint can
    /// never panic the decoder or yield a half-restored session.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ActiveDpError> {
        let (mut r, _) = read_envelope(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION..=SNAPSHOT_VERSION)?;
        let spec: ScenarioSpec = r.get()?;
        let state = dec_state(&mut r)?;
        let sampler_rng: [u64; 4] = r.get()?;
        let oracle_rng: [u64; 4] = r.get()?;
        let returned = dec_keys(&mut r)?;
        let routed = if r.get_bool()? {
            let cheap_rng: [u64; 4] = r.get()?;
            let cheap_returned = dec_keys(&mut r)?;
            Some(RoutedState {
                cheap: UserState {
                    rng: cheap_rng,
                    returned: cheap_returned,
                },
                stats: RouteStats {
                    cheap_queries: r.get_u64()?,
                    expensive_queries: r.get_u64()?,
                    escalations: r.get_u64()?,
                    cheap_cost: r.get_f64()?,
                    expensive_cost: r.get_f64()?,
                },
            })
        } else {
            None
        };
        r.finish()?;
        Ok(SessionSnapshot {
            spec,
            state,
            sampler_rng,
            oracle: UserState {
                rng: oracle_rng,
                returned,
            },
            routed,
        })
    }
}

/// LF body encoding, shared by the snapshot codec and the WAL's
/// [`StepEvent`](crate::StepEvent) codec — one byte layout for label
/// functions everywhere they ride the wire.
pub(crate) fn enc_lf(w: &mut Writer, lf: &LabelFunction) {
    match lf {
        LabelFunction::Keyword { token, label } => {
            w.put_u8(0);
            w.put_u32(*token);
            w.put_usize(*label);
        }
        LabelFunction::Stump {
            feature,
            threshold,
            op,
            label,
        } => {
            w.put_u8(1);
            w.put_usize(*feature);
            w.put_f64(*threshold);
            w.put_u8(stump_op_tag(*op));
            w.put_usize(*label);
        }
    }
}

pub(crate) fn dec_lf(r: &mut Reader<'_>) -> Result<LabelFunction, WireError> {
    match r.get_u8()? {
        0 => Ok(LabelFunction::Keyword {
            token: r.get_u32()?,
            label: r.get_usize()?,
        }),
        1 => Ok(LabelFunction::Stump {
            feature: r.get_usize()?,
            threshold: r.get_f64()?,
            op: dec_stump_op(r)?,
            label: r.get_usize()?,
        }),
        tag => Err(WireError::BadTag {
            what: "label function",
            tag,
        }),
    }
}

fn stump_op_tag(op: StumpOp) -> u8 {
    match op {
        StumpOp::Le => 0,
        StumpOp::Ge => 1,
    }
}

fn dec_stump_op(r: &mut Reader<'_>) -> Result<StumpOp, WireError> {
    match r.get_u8()? {
        0 => Ok(StumpOp::Le),
        1 => Ok(StumpOp::Ge),
        tag => Err(WireError::BadTag {
            what: "stump op",
            tag,
        }),
    }
}

/// LF keys on the wire, in canonical (sorted) order so identical sets
/// always produce identical bytes regardless of `HashSet` iteration order.
fn enc_keys(w: &mut Writer, keys: &[LfKey]) {
    let mut sorted: Vec<LfKey> = keys.to_vec();
    sorted.sort_unstable();
    w.put_usize(sorted.len());
    for key in &sorted {
        match key {
            LfKey::Keyword(token, label) => {
                w.put_u8(0);
                w.put_u32(*token);
                w.put_usize(*label);
            }
            LfKey::Stump(feature, bits, op, label) => {
                w.put_u8(1);
                w.put_usize(*feature);
                w.put_u64(*bits);
                w.put_u8(stump_op_tag(*op));
                w.put_usize(*label);
            }
        }
    }
}

fn dec_keys(r: &mut Reader<'_>) -> Result<Vec<LfKey>, WireError> {
    let n = r.get_len("lf keys", 1)?;
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        keys.push(match r.get_u8()? {
            0 => LfKey::Keyword(r.get_u32()?, r.get_usize()?),
            1 => LfKey::Stump(
                r.get_usize()?,
                r.get_u64()?,
                dec_stump_op(r)?,
                r.get_usize()?,
            ),
            tag => {
                return Err(WireError::BadTag {
                    what: "lf key",
                    tag,
                })
            }
        });
    }
    Ok(keys)
}

/// A vector of 8-byte values, its length bounded by the bytes left.
fn get_words<T: adp_wire::Decode>(
    r: &mut Reader<'_>,
    what: &'static str,
) -> Result<Vec<T>, WireError> {
    let n = r.get_len(what, 8)?;
    (0..n).map(|_| r.get()).collect()
}

fn enc_state(w: &mut Writer, s: &PersistedState) {
    w.put_usize(s.lfs.len());
    for lf in &s.lfs {
        enc_lf(w, lf);
    }
    w.put(&s.queried);
    w.put(&s.query_indices);
    w.put(&s.pseudo_labels);
    w.put(&s.selected);
    w.put_usize(s.iteration);
    w.put_usize(s.fitted_at);
    w.put(&s.params.label_model);
    w.put(&s.params.al_weights);
    w.put(&s.params.al_bias);
}

fn dec_state(r: &mut Reader<'_>) -> Result<PersistedState, WireError> {
    let n_lfs = r.get_len("lfs", 1)?;
    let mut lfs = Vec::with_capacity(n_lfs);
    for _ in 0..n_lfs {
        lfs.push(dec_lf(r)?);
    }
    Ok(PersistedState {
        lfs,
        queried: get_words(r, "queried rows")?,
        query_indices: get_words(r, "query indices")?,
        pseudo_labels: get_words(r, "pseudo labels")?,
        selected: get_words(r, "selection")?,
        iteration: r.get_usize()?,
        fitted_at: r.get_usize()?,
        params: FittedParams {
            label_model: get_words(r, "label-model parameters")?,
            al_weights: get_words(r, "AL weights")?,
            al_bias: get_words(r, "AL intercepts")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use adp_data::{generate, DatasetId, Scale, SharedDataset};

    fn tiny() -> SharedDataset {
        generate(DatasetId::Youtube, Scale::Tiny, 7)
            .unwrap()
            .into_shared()
    }

    fn mid_run_snapshot(steps: usize) -> SessionSnapshot {
        let mut e = Engine::builder(tiny()).seed(7).build().unwrap();
        e.run(steps).unwrap();
        e.snapshot().unwrap()
    }

    #[test]
    fn snapshot_bytes_roundtrip_exactly() {
        let snap = mid_run_snapshot(8);
        let bytes = snap.to_bytes();
        let back = SessionSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap, back);
        // Canonical encoding: re-encoding the decoded snapshot reproduces
        // the bytes (HashSet iteration order cannot leak into the file).
        assert_eq!(bytes, back.to_bytes());
    }

    /// A snapshot holds no vote matrix, cache or key set: a 40-step
    /// Census Tiny session encodes to the bytes its decode re-encodes to,
    /// and its queried rows are every row the live session drew — more
    /// than the rows that returned an LF.
    #[test]
    fn snapshot_persists_queried_rows_not_derived_state() {
        let data = generate(DatasetId::Census, Scale::Tiny, 7)
            .unwrap()
            .into_shared();
        let mut e = Engine::builder(data).seed(7).build().unwrap();
        e.run(40).unwrap();
        let live = e.state();
        let snap = e.snapshot().unwrap();
        let bytes = snap.to_bytes();
        let back = SessionSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(bytes, back.to_bytes());
        let drawn: Vec<usize> = (0..live.queried.len())
            .filter(|&i| live.queried[i])
            .collect();
        assert_eq!(back.state.queried, drawn);
        assert!(drawn.len() > live.query_indices.len());
        assert_eq!(back.state.lfs, live.lfs);
        assert!((1..=40).contains(&back.state.fitted_at));
    }

    #[test]
    fn fresh_session_snapshot_roundtrips_too() {
        // iteration 0: no LFs, no parameters — every empty-Vec path.
        let snap = mid_run_snapshot(0);
        assert!(snap.state.lfs.is_empty());
        assert_eq!(snap.state.params, FittedParams::default());
        let back = SessionSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn stump_lfs_and_keys_roundtrip() {
        // Tabular sessions carry Stump LFs with float thresholds; pin the
        // second LF family through the codec directly.
        let mut snap = mid_run_snapshot(2);
        snap.state.lfs.push(LabelFunction::Stump {
            feature: 3,
            threshold: -0.125,
            op: StumpOp::Ge,
            label: 1,
        });
        snap.oracle
            .returned
            .push(LfKey::Stump(3, (-0.125f64).to_bits(), StumpOp::Ge, 1));
        snap.oracle.returned.sort_unstable();
        let back = SessionSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn decoder_rejects_corruption_without_panicking() {
        let bytes = mid_run_snapshot(5).to_bytes();
        // Wrong magic.
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xff;
        assert!(matches!(
            SessionSnapshot::from_bytes(&wrong),
            Err(ActiveDpError::SnapshotCodec(WireError::BadMagic { .. }))
        ));
        // Future version.
        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            SessionSnapshot::from_bytes(&future),
            Err(ActiveDpError::SnapshotCodec(WireError::UnknownVersion {
                found: 99,
                ..
            }))
        ));
        // Truncation at every length is an error, never a panic.
        for cut in 0..bytes.len() {
            assert!(SessionSnapshot::from_bytes(&bytes[..cut]).is_err());
        }
        // Trailing garbage after a valid payload.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            SessionSnapshot::from_bytes(&padded),
            Err(ActiveDpError::SnapshotCodec(
                WireError::TrailingBytes { .. }
            ))
        ));
    }

    #[test]
    fn unknown_enum_tags_are_typed_errors() {
        let mut w = write_envelope(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        // dataset spec, then alpha .. noise_rate, then a bogus
        // label-model tag.
        w.put(&adp_data::DatasetSpec {
            id: DatasetId::Youtube,
            scale: Scale::Tiny,
            seed: 7,
        });
        w.put_f64(0.5);
        w.put_f64(0.6);
        w.put_f64(0.0);
        w.put_u8(9);
        let err = SessionSnapshot::from_bytes(&w.into_bytes()).unwrap_err();
        assert!(matches!(
            err,
            ActiveDpError::SnapshotCodec(WireError::BadTag {
                what: "label model kind",
                tag: 9
            })
        ));
    }

    #[test]
    fn hostile_vector_lengths_fail_before_allocating() {
        // A length prefix no remaining bytes could back is a typed error
        // before any allocation — `u64::MAX` 8-byte words included.
        for len in [u64::MAX, 2] {
            let mut w = Writer::new();
            w.put_u64(len);
            w.put_f64(0.5);
            let bytes = w.into_bytes();
            let err = get_words::<f64>(&mut Reader::new(&bytes), "probe").unwrap_err();
            assert!(
                matches!(err, WireError::BadLength { what: "probe", .. }),
                "{len}"
            );
        }
    }
}
