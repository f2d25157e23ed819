//! Hub persistence: spilling live sessions to disk and loading them back.
//!
//! Each persistable session becomes one file, `session-<id>.adpsnap`,
//! under the hub's spill directory:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────┐
//! │ magic  "ADPHUBS\0"            8 bytes                    │
//! │ format version                u32 LE                     │
//! │ session id                    u64 LE                     │
//! │ dataset spec   id tag u8 · scale tag u8 [· factor f64]   │
//! │                · generator seed u64                      │
//! │ snapshot       length-prefixed `SessionSnapshot` bytes   │
//! │                (its own versioned envelope inside)       │
//! └──────────────────────────────────────────────────────────┘
//! ```
//!
//! Writes are **atomic** ([`adp_wire::atomic::atomic_write`], shared with
//! the WAL's segments and manifests): the bytes go to a unique `.tmp`
//! first, are fsynced, and are `rename`d into place, so a crash mid-save
//! leaves either the previous complete file or none — never a torn one. Loads reject foreign magic,
//! newer format versions, truncation and trailing bytes with typed errors
//! ([`ServeError::CorruptSnapshot`]); a corrupt spill file can fail a
//! `load_all`, never panic it or half-restore a session.
//!
//! The dataset itself is *not* spilled — only its [`DatasetSpec`], which
//! regenerates the identical split at load time (and is shared between all
//! loaded sessions naming the same spec). That is what keeps spill files
//! small (state + config + RNG streams) and restarts cheap.

use crate::hub::{ServeError, SessionHub, SessionId};
use crate::journal::{corrupt_journal, wal_dir};
use activedp::{ActiveDpError, Engine, SessionSnapshot};
use adp_data::DatasetSpec;
use adp_wal::Journal;
use adp_wire::{read_envelope, write_envelope};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Magic bytes opening every hub spill file.
pub const SPILL_MAGIC: &[u8; 8] = b"ADPHUBS\0";

/// Current spill-file format version.
pub const SPILL_VERSION: u32 = 1;

/// One decoded spill file: the session id it preserves, the dataset
/// provenance, and the session snapshot itself.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillRecord {
    /// The id the session was served under (preserved across restarts).
    pub session: u64,
    /// How to regenerate the session's dataset split.
    pub spec: DatasetSpec,
    /// The resumable session state.
    pub snapshot: SessionSnapshot,
}

impl SpillRecord {
    /// Encodes the record into its canonical spill-file bytes. The
    /// dataset-spec layout comes from `adp_data::wire` — the same stable
    /// tags every encoded artefact shares.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = write_envelope(SPILL_MAGIC, SPILL_VERSION);
        w.put_u64(self.session);
        w.put(&self.spec);
        w.put(&self.snapshot.to_bytes());
        w.into_bytes()
    }

    /// Decodes a spill file, rejecting corruption with typed errors — a
    /// header spec that contradicts the provenance embedded in the nested
    /// snapshot included (the file was tampered with; restoring it would
    /// serve a session whose spec misdescribes its data).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ActiveDpError> {
        let (mut r, _version) = read_envelope(bytes, SPILL_MAGIC, SPILL_VERSION..=SPILL_VERSION)?;
        let session = r.get_u64()?;
        let spec: DatasetSpec = r.get()?;
        let snapshot_bytes: Vec<u8> = r.get()?;
        r.finish()?;
        let snapshot = SessionSnapshot::from_bytes(&snapshot_bytes)?;
        if snapshot.spec.dataset != spec {
            return Err(ActiveDpError::BadConfig {
                reason: format!(
                    "spill header names dataset {spec:?} but the snapshot was taken over {:?}",
                    snapshot.spec.dataset
                ),
            });
        }
        Ok(SpillRecord {
            session,
            spec,
            snapshot,
        })
    }
}

/// File name of one session's spill file.
pub(crate) fn spill_file(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("session-{id}.adpsnap"))
}

/// Writes one session's spill file (atomic write; creates the directory).
/// Shared by [`SessionHub::save`] and the shard workers' eviction path.
pub(crate) fn write_spill_record(
    dir: &Path,
    id: u64,
    snapshot: SessionSnapshot,
) -> Result<PathBuf, ServeError> {
    let record = SpillRecord {
        session: id,
        spec: snapshot.spec.dataset,
        snapshot,
    };
    fs::create_dir_all(dir).map_err(|source| ServeError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let path = spill_file(dir, id);
    // One copy of the staging + fsync + rename discipline, shared with
    // the WAL's segments and manifests.
    adp_wire::atomic::atomic_write(&path, &record.to_bytes()).map_err(|source| ServeError::Io {
        path: path.clone(),
        source,
    })?;
    Ok(path)
}

/// Advances a journal's checkpoint to `iteration` after its covering
/// snapshot landed on disk, compacting covered segments. A checkpoint
/// already further ahead (a concurrent save won the race) is fine; an
/// empty slot (degraded journal) is a no-op.
pub(crate) fn checkpoint_behind(
    slot: &crate::journal::SharedJournal,
    iteration: usize,
) -> Result<(), ServeError> {
    let mut guard = crate::hub::lock_clean(slot);
    if let Some(journal) = guard.as_mut() {
        match journal.checkpoint(iteration) {
            // A concurrent save already checkpointed further ahead; its
            // snapshot covers ours, nothing to record.
            Err(adp_wal::WalError::OutOfOrder { .. }) | Ok(()) => {}
            Err(e) => return Err(ServeError::Wal(e)),
        }
    }
    Ok(())
}

impl SessionHub {
    pub(crate) fn require_spill_dir(&self) -> Result<PathBuf, ServeError> {
        self.spill_dir()
            .map(Path::to_path_buf)
            .ok_or(ServeError::NoSpillDir)
    }

    /// Spills one session to `session-<id>.adpsnap` in the spill directory
    /// (atomic write; the session keeps running). The dataset provenance
    /// travels inside the snapshot's embedded `ScenarioSpec`; sessions
    /// that cannot be described as one — hand-built datasets, stateless
    /// custom oracles — fail with [`ServeError::NotPersistable`].
    pub fn save(&self, id: SessionId) -> Result<PathBuf, ServeError> {
        let dir = self.require_spill_dir()?;
        // A cold session's spill file IS its current state — eviction
        // wrote it and a cold session cannot step — so saving it again
        // must not drag the engine back into memory. (If the session
        // resumes between this check and the snapshot call below, the
        // normal path simply takes over.)
        if self.cold_ids().contains(&id) {
            let path = spill_file(&dir, id.raw());
            if path.is_file() {
                return Ok(path);
            }
        }
        let snapshot = match self.snapshot(id) {
            Ok(snapshot) => snapshot,
            Err(ServeError::Engine(ActiveDpError::SnapshotUnsupported { .. })) => {
                return Err(ServeError::NotPersistable(id))
            }
            Err(e) => return Err(e),
        };
        let iteration = snapshot.state.iteration;
        let path = write_spill_record(&dir, id.raw(), snapshot)?;
        // The snapshot on disk now covers the log prefix: advance the
        // session's journal checkpoint, compacting covered segments. The
        // order (snapshot first, checkpoint second) means a crash between
        // the two leaves a snapshot *ahead* of the checkpoint — recovery
        // replays from the snapshot and simply skips the covered events.
        if let Some(slot) = self.journal_slot(id.raw()) {
            checkpoint_behind(&slot, iteration)?;
        }
        Ok(path)
    }

    /// Spills every persistable session (see [`SessionHub::save`]) and
    /// returns the ids written, ascending. Sessions without a scenario
    /// description are skipped — they could not be restored at load time —
    /// so a mixed hub still saves everything it can.
    pub fn save_all(&self) -> Result<Vec<SessionId>, ServeError> {
        self.require_spill_dir()?;
        let mut saved = Vec::new();
        for id in self.session_ids() {
            match self.save(id) {
                Ok(_) => saved.push(id),
                // Skipped, not fatal: no dataset provenance, or the session
                // was closed by another client between the id listing and
                // this save — the rest of the sweep must still land.
                Err(ServeError::NotPersistable(_)) | Err(ServeError::UnknownSession(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(saved)
    }

    /// Loads everything recoverable under the spill directory and brings
    /// each session back **under its original id**, so pre-restart client
    /// handles keep working. Returns the ids restored, ascending.
    ///
    /// Three on-disk shapes are recognised:
    ///
    /// * **snapshot + journal** (`session-<id>.adpsnap` and `wal-<id>/`):
    ///   the engine resumes from the snapshot, then the journal's tail past
    ///   it is **replayed**, so the session comes back at its last durable
    ///   *committed* iteration — not merely the last explicit save;
    /// * **journal only**: the iteration-0 state is rebuilt from the spec
    ///   in the journal's manifest and the whole log is replayed — a
    ///   session that was never saved still survives a crash;
    /// * **snapshot only** (a pre-WAL spill directory): resumes exactly as
    ///   before; a fresh journal is started so the session is durable from
    ///   here on.
    ///
    /// A missing spill directory loads nothing (a fresh deployment); a
    /// corrupt file or journal fails the load with a typed error, and
    /// everything this call had already restored is rolled back.
    pub fn load_all(&self) -> Result<Vec<SessionId>, ServeError> {
        let dir = self.require_spill_dir()?;
        let entries = match fs::read_dir(&dir) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(vec![]),
            other => other.map_err(|source| ServeError::Io {
                path: dir.clone(),
                source,
            })?,
        };
        let mut snap_paths: Vec<PathBuf> = Vec::new();
        let mut wal_dirs: BTreeMap<u64, PathBuf> = BTreeMap::new();
        for path in entries.filter_map(|entry| entry.ok().map(|e| e.path())) {
            if path.is_file() && path.extension().is_some_and(|ext| ext == "adpsnap") {
                snap_paths.push(path);
            } else if path.is_dir() {
                let id = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .and_then(|n| n.strip_prefix("wal-"))
                    .and_then(|n| n.parse::<u64>().ok());
                if let Some(id) = id {
                    wal_dirs.insert(id, path);
                }
            }
        }
        snap_paths.sort();
        // All-or-nothing: if anything fails, the sessions already inserted
        // by this call are rolled back, so the operator can delete the bad
        // file and retry without SessionExists collisions against the
        // half-loaded state.
        let mut loaded = Vec::with_capacity(snap_paths.len() + wal_dirs.len());
        let mut run = || -> Result<(), ServeError> {
            for path in &snap_paths {
                loaded.push(self.load_spilled(path, &mut wal_dirs)?);
            }
            // Journals whose session was never snapshot to disk.
            for (id, wal_path) in &wal_dirs {
                loaded.push(self.load_wal_only(*id, wal_path)?);
            }
            Ok(())
        };
        if let Err(e) = run() {
            for &id in &loaded {
                let _ = self.close(id);
            }
            return Err(e);
        }
        loaded.sort_unstable();
        Ok(loaded)
    }

    /// Restores one spilled session, replaying its journal tail when one
    /// exists (the journal is consumed from `wal_dirs` so the wal-only
    /// sweep does not see it again).
    fn load_spilled(
        &self,
        path: &Path,
        wal_dirs: &mut BTreeMap<u64, PathBuf>,
    ) -> Result<SessionId, ServeError> {
        let bytes = fs::read(path).map_err(|source| ServeError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let record =
            SpillRecord::from_bytes(&bytes).map_err(|source| ServeError::CorruptSnapshot {
                path: path.to_path_buf(),
                source,
            })?;
        if record.session == u64::MAX {
            // Unreachable for files we wrote (ids allocate upward from
            // 0); a tampered id this large would saturate the allocator.
            return Err(ServeError::CorruptSnapshot {
                path: path.to_path_buf(),
                source: activedp::ActiveDpError::BadConfig {
                    reason: "session id u64::MAX is reserved".into(),
                },
            });
        }
        let id = record.session;
        let wal_path = wal_dirs.remove(&id);
        // A live session with this id already owns its journal directory
        // (single-writer); reject the collision *before* opening — and
        // thereby recovering over — the live journal's open segment.
        if self.journal_slot(id).is_some() {
            return Err(ServeError::SessionExists(SessionId::from_raw(id)));
        }
        let data = self.dataset_for(record.spec)?;
        let snap_iter = record.snapshot.state.iteration;
        let (engine, journal) = match wal_path {
            None => {
                // A pre-WAL spill directory: resume as always, and start a
                // fresh journal (checkpointed at the snapshot) going
                // forward.
                let spec = record.snapshot.spec.clone();
                let engine = Engine::builder(data)
                    .resume(record.snapshot)
                    .map_err(|source| ServeError::CorruptSnapshot {
                        path: path.to_path_buf(),
                        source,
                    })?;
                let journal = Journal::create(
                    &wal_dir(&self.require_spill_dir()?, id),
                    id,
                    spec,
                    snap_iter,
                )
                .map_err(ServeError::Wal)?;
                (engine, journal)
            }
            Some(wal_path) => {
                let mut journal = Journal::open(&wal_path).map_err(ServeError::Wal)?;
                if journal.session() != id {
                    return Err(corrupt_journal(
                        &wal_path,
                        format!("manifest belongs to session {}", journal.session()),
                    ));
                }
                if journal.spec() != &record.snapshot.spec {
                    return Err(corrupt_journal(
                        &wal_path,
                        "manifest spec disagrees with the spill snapshot's".to_string(),
                    ));
                }
                if journal.checkpoint_iteration() > snap_iter {
                    return Err(corrupt_journal(
                        &wal_path,
                        format!(
                            "checkpoint {} is past the spill snapshot at iteration {snap_iter}",
                            journal.checkpoint_iteration()
                        ),
                    ));
                }
                let durable = journal.durable_iteration();
                let engine = if durable > snap_iter {
                    // The log is ahead of the snapshot (a crash before a
                    // final save): fold the tail to the durable tip.
                    let events = journal.events().map_err(ServeError::Wal)?;
                    Engine::replay_to_over(&record.snapshot, &events, durable, data).map_err(
                        |e| {
                            corrupt_journal(
                                &wal_path,
                                format!("replaying the tail to iteration {durable} failed: {e}"),
                            )
                        },
                    )?
                } else {
                    // The snapshot is at (or past) the durable tip: plain
                    // resume; re-checkpointing aligns a journal that never
                    // saw the final save.
                    let engine =
                        Engine::builder(data)
                            .resume(record.snapshot)
                            .map_err(|source| ServeError::CorruptSnapshot {
                                path: path.to_path_buf(),
                                source,
                            })?;
                    journal.checkpoint(snap_iter).map_err(ServeError::Wal)?;
                    engine
                };
                (engine, journal)
            }
        };
        self.adopt_loaded(id, engine, Some(journal))
    }

    /// Restores a session that has a journal but no spill snapshot: the
    /// manifest's spec rebuilds the iteration-0 state and the whole log is
    /// replayed to the durable tip.
    fn load_wal_only(&self, id: u64, wal_path: &Path) -> Result<SessionId, ServeError> {
        if id == u64::MAX {
            return Err(corrupt_journal(
                wal_path,
                "session id u64::MAX is reserved".to_string(),
            ));
        }
        if self.journal_slot(id).is_some() {
            return Err(ServeError::SessionExists(SessionId::from_raw(id)));
        }
        let journal = Journal::open(wal_path).map_err(ServeError::Wal)?;
        if journal.session() != id {
            return Err(corrupt_journal(
                wal_path,
                format!("manifest belongs to session {}", journal.session()),
            ));
        }
        if journal.checkpoint_iteration() != 0 {
            return Err(corrupt_journal(
                wal_path,
                format!(
                    "checkpoint {} has no covering snapshot on disk",
                    journal.checkpoint_iteration()
                ),
            ));
        }
        let spec = journal.spec().clone();
        let data = self.dataset_for(spec.dataset)?;
        let durable = journal.durable_iteration();
        let engine = if durable > 0 {
            let base = Engine::from_spec_over(spec, data.clone())?.snapshot()?;
            let events = journal.events().map_err(ServeError::Wal)?;
            Engine::replay_to_over(&base, &events, durable, data).map_err(|e| {
                corrupt_journal(
                    wal_path,
                    format!("replaying the log to iteration {durable} failed: {e}"),
                )
            })?
        } else {
            Engine::from_spec_over(spec, data)?
        };
        self.adopt_loaded(id, engine, Some(journal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activedp::SessionConfig;
    use adp_data::{DatasetId, Scale};

    fn unique_tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "adp-spill-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec(seed: u64) -> DatasetSpec {
        DatasetSpec {
            id: DatasetId::Youtube,
            scale: Scale::Tiny,
            seed,
        }
    }

    #[test]
    fn spill_record_roundtrips() {
        let hub = SessionHub::new(1);
        let id = hub
            .open_spec(spec(7), SessionConfig::paper_defaults(true, 7))
            .unwrap();
        hub.run(id, 3).unwrap();
        let snapshot = hub.snapshot(id).unwrap();
        let record = SpillRecord {
            session: 42,
            spec: snapshot.spec.dataset,
            snapshot,
        };
        let back = SpillRecord::from_bytes(&record.to_bytes()).unwrap();
        assert_eq!(record, back);
    }

    #[test]
    fn spill_header_spec_must_match_the_snapshot() {
        // A tampered header naming a different dataset than the embedded
        // snapshot would restore a session whose spec misdescribes its
        // data; the decoder rejects it with a typed error.
        let hub = SessionHub::new(1);
        let id = hub
            .open_spec(spec(7), SessionConfig::paper_defaults(true, 7))
            .unwrap();
        hub.run(id, 2).unwrap();
        let snapshot = hub.snapshot(id).unwrap();
        let record = SpillRecord {
            session: 1,
            spec: DatasetSpec {
                seed: 999,
                ..snapshot.spec.dataset
            },
            snapshot,
        };
        assert!(matches!(
            SpillRecord::from_bytes(&record.to_bytes()),
            Err(ActiveDpError::BadConfig { .. })
        ));
    }

    #[test]
    fn save_load_cycle_preserves_ids_and_trajectories() {
        let dir = unique_tempdir("cycle");
        let first = SessionHub::with_spill_dir(2, &dir);
        let ids: Vec<SessionId> = (0..3)
            .map(|seed| {
                let id = first
                    .open_spec(spec(seed), SessionConfig::paper_defaults(true, seed))
                    .unwrap();
                first.run(id, 4).unwrap();
                id
            })
            .collect();
        let saved = first.save_all().unwrap();
        assert_eq!(saved, ids);
        drop(first); // "process dies"

        let second = SessionHub::with_spill_dir(2, &dir);
        let loaded = second.load_all().unwrap();
        assert_eq!(loaded, ids);
        // Old handles keep working, trajectories continue bit-for-bit: an
        // uninterrupted solo run over the same spec/seed must agree.
        for (k, &id) in ids.iter().enumerate() {
            let seed = k as u64;
            second.run(id, 4).unwrap();
            let report = second.evaluate(id).unwrap();
            let mut solo = Engine::builder(spec(seed).generate().unwrap())
                .config(SessionConfig::paper_defaults(true, seed))
                .build()
                .unwrap();
            solo.run(8).unwrap();
            assert_eq!(
                report.test_accuracy.to_bits(),
                solo.evaluate_downstream().unwrap().test_accuracy.to_bits(),
                "session {id}"
            );
        }
        // New sessions never collide with restored ids.
        let fresh = second
            .open_spec(spec(9), SessionConfig::paper_defaults(true, 9))
            .unwrap();
        assert!(ids.iter().all(|&old| old != fresh));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unpersistable_sessions_are_skipped_not_fatal() {
        let dir = unique_tempdir("mixed");
        let hub = SessionHub::with_spill_dir(1, &dir);
        let durable = hub
            .open_spec(spec(1), SessionConfig::paper_defaults(true, 1))
            .unwrap();
        // A hand-built split (provenance stripped) cannot be described as
        // a scenario, so its session cannot spill.
        let mut adhoc = spec(2).generate().unwrap();
        adhoc.provenance = None;
        let ephemeral = hub
            .create(Engine::builder(adhoc).seed(2).build().unwrap())
            .unwrap();
        let saved = hub.save_all().unwrap();
        assert_eq!(saved, vec![durable]);
        assert!(matches!(
            hub.save(ephemeral),
            Err(ServeError::NotPersistable(id)) if id == ephemeral
        ));
        // Raw engines over *generated* splits carry provenance in the
        // data itself, so `create` no longer loses durability.
        let generated = hub
            .create(
                Engine::builder(spec(3).generate().unwrap())
                    .seed(3)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert!(hub.save(generated).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_spec_roundtrips_through_the_spill_cycle() {
        use activedp::{BudgetSchedule, ScenarioSpec};
        // spec → create_from_spec → snapshot → save → (new hub) load_all →
        // resume: the spec that comes back out is the one that went in,
        // schedule and budget included.
        let dir = unique_tempdir("speccycle");
        let first = SessionHub::with_spill_dir(1, &dir);
        let mut spec = ScenarioSpec::new(spec(4));
        spec.session.seed = 9;
        spec.schedule = BudgetSchedule::Doubling { cap: 4 };
        spec.budget = 12;
        let id = first.create_from_spec(spec.clone()).unwrap();
        first.run(id, 3).unwrap();
        first.save(id).unwrap();
        drop(first);

        let second = SessionHub::with_spill_dir(1, &dir);
        assert_eq!(second.load_all().unwrap(), vec![id]);
        let restored = second.snapshot(id).unwrap();
        assert_eq!(restored.spec, spec);
        assert_eq!(restored.state.iteration, 3);
        // And the restored session still serves.
        second.run(id, 1).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_spill_dir_is_a_typed_error() {
        // Constructed directly so the assertion holds even when the test
        // process itself runs under ADP_SPILL_DIR (the CI persistence leg).
        let hub = SessionHub::with_shards_and_spill(1, None);
        assert!(matches!(hub.save_all(), Err(ServeError::NoSpillDir)));
        assert!(matches!(hub.load_all(), Err(ServeError::NoSpillDir)));
    }

    #[test]
    fn missing_directory_loads_nothing() {
        let dir = unique_tempdir("missing");
        let hub = SessionHub::with_spill_dir(1, &dir);
        assert_eq!(hub.load_all().unwrap(), vec![]);
    }

    #[test]
    fn corrupt_files_are_rejected_with_typed_errors() {
        let dir = unique_tempdir("corrupt");
        let hub = SessionHub::with_spill_dir(1, &dir);
        let id = hub
            .open_spec(spec(3), SessionConfig::paper_defaults(true, 3))
            .unwrap();
        hub.run(id, 3).unwrap();
        let path = hub.save(id).unwrap();
        let good = fs::read(&path).unwrap();

        let check_rejected = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            let fresh = SessionHub::with_spill_dir(1, &dir);
            assert!(matches!(
                fresh.load_all(),
                Err(ServeError::CorruptSnapshot { .. })
            ));
        };
        // Truncated at several depths (envelope, record, nested snapshot).
        check_rejected(&good[..4]);
        check_rejected(&good[..20]);
        check_rejected(&good[..good.len() - 1]);
        // Foreign magic.
        let mut foreign = good.clone();
        foreign[0] ^= 0xff;
        check_rejected(&foreign);
        // A future format version.
        let mut future = good.clone();
        future[8..12].copy_from_slice(&77u32.to_le_bytes());
        check_rejected(&future);
        // Trailing garbage.
        let mut padded = good.clone();
        padded.push(0xAA);
        check_rejected(&padded);

        // The original bytes still load (the rejection is the file, not us).
        fs::write(&path, &good).unwrap();
        let fresh = SessionHub::with_spill_dir(1, &dir);
        assert_eq!(fresh.load_all().unwrap(), vec![id]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_load_rolls_back_and_is_retryable() {
        let dir = unique_tempdir("retry");
        let hub = SessionHub::with_spill_dir(2, &dir);
        for seed in 0..2 {
            let id = hub
                .open_spec(spec(seed), SessionConfig::paper_defaults(true, seed))
                .unwrap();
            hub.run(id, 2).unwrap();
        }
        hub.save_all().unwrap();
        drop(hub);
        // Corrupt one file; a fresh hub's load must fail *atomically*…
        let bad = dir.join("session-1.adpsnap");
        let good_bytes = fs::read(&bad).unwrap();
        fs::write(&bad, &good_bytes[..10]).unwrap();
        let fresh = SessionHub::with_spill_dir(2, &dir);
        assert!(matches!(
            fresh.load_all(),
            Err(ServeError::CorruptSnapshot { .. })
        ));
        assert_eq!(
            fresh.session_count().unwrap(),
            0,
            "partial load must roll back"
        );
        // …so that fixing the file and retrying on the SAME hub succeeds.
        fs::write(&bad, &good_bytes).unwrap();
        let loaded = fresh.load_all().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(fresh.session_count().unwrap(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn loading_over_a_live_id_is_rejected() {
        let dir = unique_tempdir("collide");
        let hub = SessionHub::with_spill_dir(1, &dir);
        let id = hub
            .open_spec(spec(4), SessionConfig::paper_defaults(true, 4))
            .unwrap();
        hub.run(id, 2).unwrap();
        hub.save(id).unwrap();
        // The session is still live in this hub; loading its file back
        // would shadow it.
        assert!(matches!(
            hub.load_all(),
            Err(ServeError::SessionExists(existing)) if existing == id
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sessions_are_journalled_by_default() {
        let dir = unique_tempdir("journal");
        let hub = SessionHub::with_spill_dir(1, &dir);
        let id = hub
            .open_spec(spec(6), SessionConfig::paper_defaults(true, 6))
            .unwrap();
        hub.run(id, 3).unwrap();
        // No explicit save has happened, yet the steps are durable.
        let d = hub.status(id).unwrap().durability.expect("journalled");
        assert_eq!(d.checkpoint_iteration, 0);
        assert_eq!(d.durable_iteration, 3);
        assert!(d.live_segments >= 1);
        let wal = wal_dir(&dir, id.raw());
        assert!(wal.join("manifest.adpwman").is_file());
        // Saving advances the checkpoint and compacts the log behind it.
        hub.save(id).unwrap();
        let d = hub.status(id).unwrap().durability.unwrap();
        assert_eq!(d.checkpoint_iteration, 3);
        assert_eq!(d.durable_iteration, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_all_replays_the_journal_tail_past_the_snapshot() {
        let dir = unique_tempdir("tail");
        let seed = 11;
        let first = SessionHub::with_spill_dir(1, &dir);
        let id = first
            .open_spec(spec(seed), SessionConfig::paper_defaults(true, seed))
            .unwrap();
        first.run(id, 2).unwrap();
        first.save(id).unwrap(); // checkpoint at iteration 2…
        first.run(id, 3).unwrap(); // …then 3 more steps, never saved again
        drop(first); // "process dies" with the snapshot 3 steps stale

        let second = SessionHub::with_spill_dir(1, &dir);
        assert_eq!(second.load_all().unwrap(), vec![id]);
        // The journal tail brought the session to the durable tip, not the
        // snapshot.
        assert_eq!(second.status(id).unwrap().iteration, 5);
        // And the recovered trajectory continues bit-for-bit: finishing the
        // run must agree with an uninterrupted solo run.
        second.run(id, 3).unwrap();
        let report = second.evaluate(id).unwrap();
        let mut solo = Engine::builder(spec(seed).generate().unwrap())
            .config(SessionConfig::paper_defaults(true, seed))
            .build()
            .unwrap();
        solo.run(8).unwrap();
        assert_eq!(
            report.test_accuracy.to_bits(),
            solo.evaluate_downstream().unwrap().test_accuracy.to_bits()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn never_saved_sessions_survive_on_the_journal_alone() {
        let dir = unique_tempdir("walonly");
        let seed = 12;
        let first = SessionHub::with_spill_dir(1, &dir);
        let id = first
            .open_spec(spec(seed), SessionConfig::paper_defaults(true, seed))
            .unwrap();
        first.run(id, 4).unwrap();
        drop(first); // no save_all, no snapshot — only wal-<id>/ exists

        let second = SessionHub::with_spill_dir(1, &dir);
        assert_eq!(second.load_all().unwrap(), vec![id]);
        assert_eq!(second.status(id).unwrap().iteration, 4);
        second.run(id, 2).unwrap();
        let report = second.evaluate(id).unwrap();
        let mut solo = Engine::builder(spec(seed).generate().unwrap())
            .config(SessionConfig::paper_defaults(true, seed))
            .build()
            .unwrap();
        solo.run(6).unwrap();
        assert_eq!(
            report.test_accuracy.to_bits(),
            solo.evaluate_downstream().unwrap().test_accuracy.to_bits()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_wal_spill_dirs_still_load_and_become_journalled() {
        // MIGRATION guarantee: a spill directory written before the WAL
        // existed (snapshot files only) keeps working; loading starts a
        // fresh journal checkpointed at the snapshot.
        let dir = unique_tempdir("prewal");
        let first = SessionHub::with_spill_dir(1, &dir);
        let id = first
            .open_spec(spec(13), SessionConfig::paper_defaults(true, 13))
            .unwrap();
        first.run(id, 3).unwrap();
        first.save(id).unwrap();
        drop(first);
        fs::remove_dir_all(wal_dir(&dir, id.raw())).unwrap(); // pre-WAL layout

        let second = SessionHub::with_spill_dir(1, &dir);
        assert_eq!(second.load_all().unwrap(), vec![id]);
        assert_eq!(second.status(id).unwrap().iteration, 3);
        let d = second.status(id).unwrap().durability.expect("journalled");
        assert_eq!(d.checkpoint_iteration, 3);
        second.run(id, 1).unwrap();
        assert_eq!(
            second
                .status(id)
                .unwrap()
                .durability
                .unwrap()
                .durable_iteration,
            4
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_rebuilds_any_commit_point_live_or_dead() {
        let dir = unique_tempdir("recover");
        let seed = 14;
        let hub = SessionHub::with_spill_dir(1, &dir);
        let id = hub
            .open_spec(spec(seed), SessionConfig::paper_defaults(true, seed))
            .unwrap();
        hub.run(id, 6).unwrap();

        // Live source: rebuild iteration 3 as a new session, step it to 6,
        // and the full snapshot must be identical to the original's.
        let rec = hub.recover(id, 3).unwrap();
        assert_ne!(rec, id);
        assert_eq!(hub.status(rec).unwrap().iteration, 3);
        hub.run(rec, 3).unwrap();
        assert_eq!(hub.snapshot(rec).unwrap(), hub.snapshot(id).unwrap());
        // The source session is untouched.
        assert_eq!(hub.status(id).unwrap().iteration, 6);

        // Dead source: close the original; its files remain, so any of its
        // commit points is still recoverable from disk.
        hub.close(id).unwrap();
        let ghost = hub.recover(id, 5).unwrap();
        assert_eq!(hub.status(ghost).unwrap().iteration, 5);

        // A mid-nothing iteration is a typed replay error.
        assert!(hub.recover(ghost, 99).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journals_are_rejected_with_typed_errors() {
        let dir = unique_tempdir("badwal");
        let hub = SessionHub::with_spill_dir(1, &dir);
        let id = hub
            .open_spec(spec(15), SessionConfig::paper_defaults(true, 15))
            .unwrap();
        hub.run(id, 3).unwrap();
        hub.save(id).unwrap();
        hub.run(id, 2).unwrap();
        drop(hub);

        // A flipped byte in the manifest magic is WAL corruption.
        let manifest = wal_dir(&dir, id.raw()).join("manifest.adpwman");
        let good = fs::read(&manifest).unwrap();
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        fs::write(&manifest, &bad).unwrap();
        let fresh = SessionHub::with_spill_dir(1, &dir);
        assert!(matches!(fresh.load_all(), Err(ServeError::Wal(_))));
        assert_eq!(
            fresh.session_count().unwrap(),
            0,
            "partial load must roll back"
        );
        fs::write(&manifest, &good).unwrap();

        // A checkpoint with no covering snapshot on disk cannot recover.
        let snap = spill_file(&dir, id.raw());
        let snap_bytes = fs::read(&snap).unwrap();
        fs::remove_file(&snap).unwrap();
        assert!(matches!(
            fresh.load_all(),
            Err(ServeError::CorruptJournal { .. })
        ));
        fs::write(&snap, &snap_bytes).unwrap();

        // Intact again: the rejection was the files, not the loader.
        assert_eq!(fresh.load_all().unwrap(), vec![id]);
        assert_eq!(fresh.status(id).unwrap().iteration, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_writes_leave_no_tmp_files() {
        let dir = unique_tempdir("atomic");
        let hub = SessionHub::with_spill_dir(1, &dir);
        let id = hub
            .open_spec(spec(5), SessionConfig::paper_defaults(true, 5))
            .unwrap();
        hub.run(id, 2).unwrap();
        hub.save(id).unwrap();
        hub.save(id).unwrap(); // overwrite path
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
