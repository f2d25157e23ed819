//! Session snapshot/restore: the durable form of a running engine.
//!
//! A [`SessionSnapshot`] is plain data — the full
//! [`ScenarioSpec`] (dataset provenance, session config, budget schedule),
//! the [`SessionState`] and the two RNG stream positions (sampler, oracle)
//! — because everything else an [`Engine`](crate::Engine) holds is a
//! deterministic function of those parts:
//!
//! * the dataset itself regenerates from the spec's [`DatasetSpec`]
//!   provenance (datasets are large, shared, and deterministic in the
//!   spec, so only the provenance travels);
//! * the candidate space and class balance rebuild from the dataset;
//! * the sampler rebuilds from the config, then has its stream repositioned;
//! * the fitted models (label model, AL model) are not rebuilt at resume:
//!   the state already carries LabelPick's selection and both models'
//!   training-split probabilities, which is all sampling and querying
//!   read. The next [`TrainingStage::refit`](crate::TrainingStage) fits the
//!   models, and inference before it fits them to the restored selection
//!   — every fit in the workspace resets its parameters and runs under the
//!   fixed-chunk reduction contract, so either fit reproduces the exact
//!   weights the snapshot-time models had.
//!
//! Consequently *snapshot at iteration k → restore → run to the end* is
//! **bitwise identical** to the uninterrupted run (pinned by
//! `tests/engine_parity.rs`), under serial and parallel execution alike —
//! and because the spec is embedded, [`Engine::resume`](crate::Engine)
//! rebuilds the whole session from nothing but the snapshot bytes.
//!
//! The byte encoding ([`SessionSnapshot::to_bytes`] /
//! [`SessionSnapshot::from_bytes`]) rides the `adp-wire` codec inside a
//! versioned envelope (magic `ADPSNAP\0`, format version
//! [`SNAPSHOT_VERSION`]). Encoding is canonical — LF-key sets are sorted —
//! so the same snapshot always produces the same bytes; the committed
//! golden-bytes fixture keeps format changes deliberate. Only the current
//! version decodes: snapshots are operational checkpoints, not archives,
//! and decoders reject every other version with a typed
//! [`WireError::UnknownVersion`].
//!
//! [`DatasetSpec`]: adp_data::DatasetSpec

use crate::engine::SessionState;
use crate::error::ActiveDpError;
use crate::scenario::ScenarioSpec;
use adp_lf::{LabelFunction, LabelMatrix, LfKey, StumpOp, UserState};
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
/// stream and the cost ledger). Bump deliberately: the golden-bytes test pins the
/// encoding, and decoders reject every other version — older ones
/// included (see MIGRATION.md) — with [`WireError::UnknownVersion`].
pub const SNAPSHOT_VERSION: u32 = 4;

/// Everything needed to resume a session exactly where it stopped, as
/// plain data (see the module docs for why this is sufficient).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The complete run description, dataset provenance and seed included.
    pub spec: ScenarioSpec,
    /// The accumulated loop state.
    pub state: SessionState,
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

fn enc_matrix(w: &mut Writer, m: &LabelMatrix) {
    w.put_usize(m.n_instances());
    w.put_usize(m.n_lfs());
    w.put_i8_slice(&m.votes());
}

fn dec_matrix(r: &mut Reader<'_>) -> Result<LabelMatrix, ActiveDpError> {
    let n = r.get_usize()?;
    let m = r.get_usize()?;
    let votes: Vec<i8> = r.get()?;
    Ok(LabelMatrix::from_raw(n, m, votes)?)
}

fn enc_state(w: &mut Writer, s: &SessionState) {
    w.put_usize(s.lfs.len());
    for lf in &s.lfs {
        enc_lf(w, lf);
    }
    enc_matrix(w, &s.train_matrix);
    enc_matrix(w, &s.valid_matrix);
    w.put(&s.queried);
    w.put(&s.query_indices);
    w.put(&s.pseudo_labels);
    w.put(&s.selected);
    let keys: Vec<LfKey> = s.seen_keys.iter().copied().collect();
    enc_keys(w, &keys);
    w.put_usize(s.iteration);
    w.put(&s.al_probs_train);
    w.put(&s.lm_probs_train);
}

fn dec_state(r: &mut Reader<'_>) -> Result<SessionState, ActiveDpError> {
    let n_lfs = r.get_len("lfs", 1)?;
    let mut lfs = Vec::with_capacity(n_lfs);
    for _ in 0..n_lfs {
        lfs.push(dec_lf(r)?);
    }
    let train_matrix = dec_matrix(r)?;
    let valid_matrix = dec_matrix(r)?;
    let queried: Vec<bool> = r.get()?;
    let query_indices: Vec<usize> = r.get()?;
    let pseudo_labels: Vec<usize> = r.get()?;
    let selected: Vec<usize> = r.get()?;
    let seen_keys = dec_keys(r)?.into_iter().collect();
    let iteration = r.get_usize()?;
    let al_probs_train: Option<Vec<Vec<f64>>> = r.get()?;
    let lm_probs_train: Option<Vec<Vec<f64>>> = r.get()?;
    Ok(SessionState {
        lfs,
        train_matrix,
        valid_matrix,
        queried,
        query_indices,
        pseudo_labels,
        selected,
        seen_keys,
        iteration,
        al_probs_train,
        lm_probs_train,
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

    /// A grown label matrix keeps spare columns and a moment ledger;
    /// neither reaches the bytes. A 40-step Census Tiny session encodes to
    /// the bytes its packed, ledger-free decode re-encodes to, the decoded
    /// state equals the live one, and the ledger it scans on demand equals
    /// the one the live matrix carried.
    #[test]
    fn grown_matrices_encode_packed_and_decode_equal() {
        let data = generate(DatasetId::Census, Scale::Tiny, 7)
            .unwrap()
            .into_shared();
        let mut e = Engine::builder(data).seed(7).build().unwrap();
        e.run(40).unwrap();
        let live = e.state();
        assert!(
            live.lfs.len() > 8,
            "{} LFs fill no widened row",
            live.lfs.len()
        );
        let bytes = e.snapshot().unwrap().to_bytes();
        let back = SessionSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(&back.state, live);
        assert_eq!(bytes, back.to_bytes());
        for (decoded, grown) in [
            (&back.state.train_matrix, &live.train_matrix),
            (&back.state.valid_matrix, &live.valid_matrix),
        ] {
            assert_eq!(decoded.votes(), grown.votes());
            assert_eq!(decoded.moments(), grown.moments());
        }
    }

    #[test]
    fn fresh_session_snapshot_roundtrips_too() {
        // iteration 0: no LFs, no probs — every Option/empty-Vec path.
        let snap = mid_run_snapshot(0);
        assert!(snap.state.lfs.is_empty());
        assert!(snap.state.al_probs_train.is_none());
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
    fn matrix_shape_mismatch_is_rejected() {
        // A hand-built payload whose vote count cannot fill the declared
        // shape must surface the LfError, not slice out of bounds later.
        let votes = LabelMatrix::from_votes(&[vec![1, 0], vec![0, 1]]).unwrap();
        let mut w = Writer::new();
        enc_matrix(&mut w, &votes);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let n = r.get_usize().unwrap();
        let m = r.get_usize().unwrap();
        let mut raw: Vec<i8> = r.get().unwrap();
        raw.pop();
        assert!(LabelMatrix::from_raw(n, m, raw).is_err());
    }
}
