//! Hub persistence: saving sessions and loading them back.
//!
//! A session's durable state is its journal directory, and nothing else:
//!
//! ```text
//! <spill_dir>/
//!   wal-<id>/
//!     manifest.adpwman     session id, scenario spec, checkpoint
//!     checkpoint.adpsnap   SessionSnapshot at the checkpoint (absent at 0)
//!     open.adpwal          the append-only log of step events
//! ```
//!
//! Saving ([`SessionHub::save`]) and evicting a session are the same
//! operation: [`adp_wal::Journal::checkpoint`] with the session's current
//! snapshot, which writes the snapshot atomically
//! (`adp_wire::atomic::atomic_write`: stage, fsync, rename), then the
//! manifest, then truncates the log if the checkpoint covers all of it.
//! Loading ([`SessionHub::load_all`]) opens each journal, takes its base
//! — the checkpoint snapshot, or the manifest's spec at checkpoint 0 —
//! and replays the tail to the last committed step. Corrupt files fail the
//! load with typed errors ([`ServeError::Wal`],
//! [`ServeError::CorruptJournal`], [`ServeError::CorruptSnapshot`]), never
//! a panic or a half-restored session.
//!
//! The dataset itself is *not* saved — only its provenance inside the
//! spec, which regenerates the identical split at load time (and is
//! shared between all loaded sessions naming the same dataset). That is
//! what keeps checkpoints small and restarts cheap.

use crate::hub::{ServeError, SessionHub, SessionId};
use crate::journal::{corrupt_journal, open_journal, wal_dir};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

impl SessionHub {
    pub(crate) fn require_spill_dir(&self) -> Result<PathBuf, ServeError> {
        self.spill_dir()
            .map(Path::to_path_buf)
            .ok_or(ServeError::NoSpillDir)
    }

    /// Checkpoints one session's journal at its current state (the
    /// session keeps running) and returns the journal directory,
    /// `wal-<id>/` under the spill directory.
    pub fn save(&self, id: SessionId) -> Result<PathBuf, ServeError> {
        let dir = self.require_spill_dir()?;
        // A cold session's checkpoint IS its current state — eviction
        // wrote it and a cold session cannot step — so saving it again
        // must not drag the engine back into memory. (If the session
        // resumes between this check and the snapshot call below, the
        // normal path simply takes over.)
        if self.residency(id.raw()) == Some(false) {
            return Ok(wal_dir(&dir, id.raw()));
        }
        let snapshot = self.snapshot(id)?;
        self.checkpoint(id.raw(), &snapshot)
    }

    /// Saves every session (see [`SessionHub::save`]) and returns the ids
    /// saved, ascending.
    pub fn save_all(&self) -> Result<Vec<SessionId>, ServeError> {
        self.require_spill_dir()?;
        let mut saved = Vec::new();
        for id in self.session_ids() {
            match self.save(id) {
                Ok(_) => saved.push(id),
                // Skipped, not fatal: the session was closed by another
                // client between the id listing and this save — the rest of
                // the sweep must still land.
                Err(ServeError::UnknownSession(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(saved)
    }

    /// Loads every journal under the spill directory and brings each
    /// session back **under its original id**, at its last durable
    /// *committed* iteration — not merely the last explicit save — so
    /// pre-restart client handles keep working. Returns the ids restored,
    /// ascending.
    ///
    /// A missing spill directory loads nothing (a fresh deployment). A
    /// corrupt journal fails the load with a typed error, and so does a
    /// top-level `session-<id>.adpsnap` spill file of the retired
    /// pre-journal layout ([`ServeError::RetiredLayout`]); either way
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
        let mut journals: BTreeMap<u64, PathBuf> = BTreeMap::new();
        for path in entries.filter_map(|entry| entry.ok().map(|e| e.path())) {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("session-") && name.ends_with(".adpsnap") {
                return Err(ServeError::RetiredLayout { path });
            }
            let id = name
                .strip_prefix("wal-")
                .and_then(|n| n.parse::<u64>().ok());
            if let (Some(id), true) = (id, path.is_dir()) {
                journals.insert(id, path);
            }
        }
        // All-or-nothing: if anything fails, the sessions already inserted
        // by this call are rolled back, so the operator can repair the bad
        // journal and retry without SessionExists collisions against the
        // half-loaded state.
        let mut loaded = Vec::with_capacity(journals.len());
        let mut run = || -> Result<(), ServeError> {
            for (&id, path) in &journals {
                loaded.push(self.load_journal(id, path)?);
            }
            Ok(())
        };
        if let Err(e) = run() {
            for &id in &loaded {
                let _ = self.close(id);
            }
            return Err(e);
        }
        Ok(loaded)
    }

    /// Restores one session from its journal directory at the durable tip.
    fn load_journal(&self, id: u64, path: &Path) -> Result<SessionId, ServeError> {
        if id == u64::MAX {
            // Unreachable for journals we wrote (ids allocate upward from
            // 0); a tampered id this large would saturate the allocator.
            return Err(corrupt_journal(path, "session id u64::MAX is reserved"));
        }
        // A live session with this id already owns its journal directory
        // (single-writer); reject the collision *before* opening — and
        // thereby recovering over — the live journal's log.
        if self.journal_slot(id).is_some() {
            return Err(ServeError::SessionExists(SessionId::from_raw(id)));
        }
        let mut journal = open_journal(path, id)?;
        let engine = self.engine_at_tip(&mut journal)?;
        self.adopt_loaded(id, engine, journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::SessionStatus;
    use activedp::{Engine, EvalReport, SessionConfig};
    use adp_data::{DatasetId, DatasetSpec, Scale};

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

    fn open(hub: &SessionHub, seed: u64) -> SessionId {
        hub.open_spec(spec(seed), SessionConfig::paper_defaults(true, seed))
            .unwrap()
    }

    fn bits(report: EvalReport) -> (u64, u64) {
        (
            report.test_accuracy.to_bits(),
            report.label_coverage.to_bits(),
        )
    }

    /// `evaluate` after an uninterrupted hub-free run of `seed` to `steps`:
    /// what every reloaded session must reproduce bitwise.
    fn solo(seed: u64, steps: usize) -> (u64, u64) {
        let mut engine = Engine::builder(spec(seed).generate().unwrap())
            .config(SessionConfig::paper_defaults(true, seed))
            .build()
            .unwrap();
        engine.run(steps).unwrap();
        bits(engine.evaluate_downstream().unwrap())
    }

    #[test]
    fn save_load_cycle_preserves_ids_and_trajectories() {
        let dir = unique_tempdir("cycle");
        let first = SessionHub::with_spill_dir(2, &dir);
        let ids: Vec<SessionId> = (0..3)
            .map(|seed| {
                let id = open(&first, seed);
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
        for (seed, &id) in ids.iter().enumerate() {
            second.run(id, 4).unwrap();
            let at = bits(second.evaluate(id).unwrap());
            assert_eq!(at, solo(seed as u64, 8), "session {id}");
        }
        // New sessions never collide with restored ids.
        let fresh = open(&second, 9);
        assert!(ids.iter().all(|&old| old != fresh));
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
        let id = open(&hub, 3);
        hub.run(id, 1).unwrap();
        let early = hub.snapshot(id).unwrap().to_bytes();
        hub.run(id, 2).unwrap();
        let path = hub.save(id).unwrap().join("checkpoint.adpsnap");
        let good = fs::read(&path).unwrap();
        let mut other_run = activedp::SessionSnapshot::from_bytes(&good).unwrap();
        other_run.spec.session.seed += 1;

        let check_rejected = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            let fresh = SessionHub::with_spill_dir(1, &dir);
            assert!(matches!(fresh.load_all(), Err(ServeError::Wal(_))));
        };
        // Truncated at several depths (envelope, spec, state).
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
        // Well-formed, but behind the manifest's checkpoint, or another
        // session's run: the snapshot must match its manifest.
        check_rejected(&early);
        check_rejected(&other_run.to_bytes());

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
            let id = open(&hub, seed);
            hub.run(id, 2).unwrap();
        }
        hub.save_all().unwrap();
        drop(hub);
        // Corrupt one file; a fresh hub's load must fail *atomically*…
        let bad = wal_dir(&dir, 1).join("checkpoint.adpsnap");
        let good_bytes = fs::read(&bad).unwrap();
        fs::write(&bad, &good_bytes[..10]).unwrap();
        let fresh = SessionHub::with_spill_dir(2, &dir);
        assert!(matches!(fresh.load_all(), Err(ServeError::Wal(_))));
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
        let id = open(&hub, 4);
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
        let id = open(&hub, 6);
        hub.run(id, 3).unwrap();
        // No explicit save has happened, yet the steps are durable.
        let d = hub.status(id).unwrap().durability.expect("journalled");
        assert_eq!(d.checkpoint_iteration, 0);
        assert_eq!(d.durable_iteration, 3);
        let wal = wal_dir(&dir, id.raw());
        assert!(wal.join("manifest.adpwman").is_file());
        // Saving advances the checkpoint and compacts the log behind it.
        hub.save(id).unwrap();
        let d = hub.status(id).unwrap().durability.unwrap();
        assert_eq!(d.checkpoint_iteration, 3);
        assert_eq!(d.durable_iteration, 3);
        // A raw engine over a generated split carries its provenance in the
        // data itself, so `create` journals and saves it like any other.
        let raw = Engine::builder(spec(3).generate().unwrap())
            .seed(3)
            .build()
            .unwrap();
        let raw = hub.create(raw).unwrap();
        assert!(hub.status(raw).unwrap().durability.is_some());
        assert!(hub.save(raw).is_ok());
        assert_eq!(hub.save_all().unwrap(), vec![id, raw]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_all_replays_the_journal_tail_past_the_snapshot() {
        let dir = unique_tempdir("tail");
        let seed = 11;
        let first = SessionHub::with_spill_dir(1, &dir);
        let id = open(&first, seed);
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
        assert_eq!(bits(second.evaluate(id).unwrap()), solo(seed, 8));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn never_saved_sessions_survive_on_the_journal_alone() {
        let dir = unique_tempdir("walonly");
        let seed = 12;
        let first = SessionHub::with_spill_dir(1, &dir);
        let id = open(&first, seed);
        first.run(id, 4).unwrap();
        drop(first); // no save_all, no snapshot — only wal-<id>/ exists

        let second = SessionHub::with_spill_dir(1, &dir);
        assert_eq!(second.load_all().unwrap(), vec![id]);
        assert_eq!(second.status(id).unwrap().iteration, 4);
        second.run(id, 2).unwrap();
        assert_eq!(bits(second.evaluate(id).unwrap()), solo(seed, 6));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_rebuilds_any_commit_point_live_or_dead() {
        let dir = unique_tempdir("recover");
        let seed = 14;
        let hub = SessionHub::with_spill_dir(1, &dir);
        let id = open(&hub, seed);
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
        let id = open(&hub, 15);
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

        // One flipped bit inside a committed log record that is not the
        // last (the log holds iterations 4 and 5) is corruption, not a
        // torn append to truncate.
        let log = wal_dir(&dir, id.raw()).join("open.adpwal");
        let good_log = fs::read(&log).unwrap();
        let first = &adp_wal::segment::decode_segment(&log, &good_log).unwrap()[0];
        assert_eq!(first.event.iteration, 4);
        let mut bad_log = good_log.clone();
        bad_log[first.end - 6] ^= 0x10;
        fs::write(&log, &bad_log).unwrap();
        assert!(matches!(
            fresh.load_all(),
            Err(ServeError::Wal(adp_wal::WalError::Corrupt { .. }))
        ));
        assert_eq!(fresh.session_count().unwrap(), 0);
        fs::write(&log, &good_log).unwrap();

        // A checkpoint with no snapshot on disk cannot recover.
        let snap = wal_dir(&dir, id.raw()).join("checkpoint.adpsnap");
        let snap_bytes = fs::read(&snap).unwrap();
        fs::remove_file(&snap).unwrap();
        assert!(matches!(
            fresh.load_all(),
            Err(ServeError::Wal(adp_wal::WalError::Corrupt { .. }))
        ));
        assert_eq!(fresh.session_count().unwrap(), 0);
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
        let id = open(&hub, 5);
        hub.run(id, 2).unwrap();
        hub.save(id).unwrap();
        hub.run(id, 1).unwrap();
        hub.save(id).unwrap(); // overwrite path
        let leftovers: Vec<_> = [dir.clone(), wal_dir(&dir, id.raw())]
            .iter()
            .flat_map(|d| fs::read_dir(d).unwrap().filter_map(|e| e.ok()))
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Sorted file names in `dir`.
    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn the_spill_directory_holds_only_journals() {
        let dir = unique_tempdir("onlywal");
        let hub = SessionHub::with_spill_dir(2, &dir);
        let mut routed = SessionConfig::paper_defaults(true, 2);
        routed.oracle = activedp::OracleKind::noisy();
        let ids = [
            open(&hub, 0),
            open(&hub, 1),
            hub.open_spec(spec(2), routed).unwrap(),
        ];
        hub.run(ids[0], 2).unwrap();
        hub.run(ids[1], 3).unwrap();
        hub.save(ids[0]).unwrap();
        // Cold sessions answer status from their journals (at iteration 0,
        // from the spec) as they did hot; eviction only moves durability.
        let status = |id| SessionStatus {
            durability: None,
            ..hub.status(id).unwrap()
        };
        let hot = [status(ids[1]), status(ids[2])];
        assert!(matches!(hub.evict(ids[1]), Ok(true)));
        assert!(matches!(hub.evict(ids[2]), Ok(true))); // at iteration 0
        assert_eq!([status(ids[1]), status(ids[2])], hot);
        hub.save_all().unwrap();
        assert_eq!(names(&dir), ["wal-0", "wal-1", "wal-2"]);
        // The snapshot exists exactly when the checkpoint is past 0.
        let files = |id: SessionId| names(&wal_dir(&dir, id.raw()));
        assert_eq!(
            files(ids[0]),
            ["checkpoint.adpsnap", "manifest.adpwman", "open.adpwal"]
        );
        assert_eq!(files(ids[1]), files(ids[0]));
        assert_eq!(files(ids[2]), ["manifest.adpwman", "open.adpwal"]);
        // All three come back where they were.
        drop(hub);
        let fresh = SessionHub::with_spill_dir(2, &dir);
        assert_eq!(fresh.load_all().unwrap(), ids);
        let at: Vec<usize> = ids
            .iter()
            .map(|&id| fresh.status(id).unwrap().iteration)
            .collect();
        assert_eq!(at, [2, 3, 0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_retired_spill_file_fails_the_load_by_name() {
        let dir = unique_tempdir("retired");
        let first = SessionHub::with_spill_dir(1, &dir);
        let id = open(&first, 8);
        first.run(id, 2).unwrap();
        drop(first);
        // A pre-journal spill file next to a healthy journal: never
        // silently skipped, and nothing is half-loaded.
        let legacy = dir.join("session-5.adpsnap");
        fs::write(&legacy, b"ADPHUBS\0").unwrap();
        let hub = SessionHub::with_spill_dir(1, &dir);
        let err = hub.load_all().unwrap_err();
        assert!(
            matches!(&err, ServeError::RetiredLayout { path } if path == &legacy),
            "{err}"
        );
        assert!(err.to_string().contains("retired"), "{err}");
        assert_eq!(hub.session_count().unwrap(), 0);
        fs::remove_file(&legacy).unwrap();
        assert_eq!(hub.load_all().unwrap(), vec![id]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Copies the files of one flat directory into a fresh `to`.
    fn copy_dir(from: &Path, to: &Path) {
        let _ = fs::remove_dir_all(to);
        fs::create_dir_all(to).unwrap();
        for entry in fs::read_dir(from).unwrap() {
            let path = entry.unwrap().path();
            fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
        }
    }

    #[test]
    fn every_crash_point_of_a_checkpoint_loads_the_last_commit() {
        // One checkpoint over a six-record log, stopped after each of its
        // steps: snapshot written, manifest rewritten, log truncated. Every
        // intermediate directory must load at the last commit, evaluating
        // bitwise like the uninterrupted run, and keep journalling from
        // there.
        const STEPS: usize = 6;
        let seed = 16;
        let dir = unique_tempdir("crashpoints");
        let hub = SessionHub::with_spill_dir(1, &dir);
        let id = open(&hub, seed);
        hub.run(id, STEPS).unwrap();
        let wal = wal_dir(&dir, id.raw());
        let before = unique_tempdir("crashpoints-before");
        copy_dir(&wal, &before);
        assert_eq!(names(&before), ["manifest.adpwman", "open.adpwal"]);
        hub.save(id).unwrap();
        let after = unique_tempdir("crashpoints-after");
        copy_dir(&wal, &after);
        assert_eq!(
            names(&after),
            ["checkpoint.adpsnap", "manifest.adpwman", "open.adpwal"]
        );
        drop(hub);

        let reference = solo(seed, STEPS);
        let take = |wal: &Path, name: &str| {
            fs::copy(after.join(name), wal.join(name)).unwrap();
        };
        let stages: [&dyn Fn(&Path); 3] = [
            &|wal| take(wal, "checkpoint.adpsnap"),
            &|wal| take(wal, "manifest.adpwman"),
            &|wal| take(wal, "open.adpwal"),
        ];
        for crash in 0..=stages.len() {
            let _ = fs::remove_dir_all(&dir);
            copy_dir(&before, &wal);
            for stage in &stages[..crash] {
                stage(&wal);
            }
            let fresh = SessionHub::with_spill_dir(1, &dir);
            assert_eq!(fresh.load_all().unwrap(), vec![id], "crash after {crash}");
            assert_eq!(fresh.status(id).unwrap().iteration, STEPS);
            let at = bits(fresh.evaluate(id).unwrap());
            assert_eq!(at, reference, "crash after {crash} stages");
            fresh.run(id, 2).unwrap();
            drop(fresh);
            let again = SessionHub::with_spill_dir(1, &dir);
            assert_eq!(again.load_all().unwrap(), vec![id], "crash after {crash}");
            assert_eq!(again.status(id).unwrap().iteration, STEPS + 2);
        }
        for d in [&dir, &before, &after] {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn a_degraded_journal_keeps_its_last_commit_until_the_next_checkpoint() {
        // A failed append drops the session's journal (emptying its slot,
        // as the observer does) and the session keeps stepping unjournalled.
        // Its next eviction (or save) continues the journal on disk: a crash
        // before that checkpoint's snapshot lands must still recover the
        // last commit, and once it lands the session reloads at its tip.
        use crate::hub::lock_clean;
        use crate::journal::reopen_journal;
        let seed = 17;
        let dir = unique_tempdir("degraded");
        let hub = SessionHub::with_spill_dir(1, &dir);
        let id = open(&hub, seed);
        let degrade = || *lock_clean(&hub.journal_slot(id.raw()).unwrap()) = None;
        let reloads_at = |at: usize| {
            let fresh = SessionHub::with_spill_dir(1, &dir);
            assert_eq!(fresh.load_all().unwrap(), vec![id]);
            assert_eq!(fresh.status(id).unwrap().iteration, at);
            assert_eq!(bits(fresh.evaluate(id).unwrap()), solo(seed, at));
        };
        hub.run(id, 3).unwrap();
        hub.save(id).unwrap(); // checkpoint 3, then a committed tail to 5
        hub.run(id, 2).unwrap();
        degrade();
        hub.run(id, 2).unwrap();
        assert_eq!(hub.status(id).unwrap().durability, None);

        // Crash right before the re-checkpoint's snapshot write.
        let spec = hub.snapshot(id).unwrap().spec;
        drop(reopen_journal(&wal_dir(&dir, id.raw()), id.raw(), &spec).unwrap());
        reloads_at(5);

        // The eviction lands: durable again, and a restart comes back at 7.
        assert!(hub.evict(id).unwrap());
        reloads_at(7);
        assert_eq!(bits(hub.evaluate(id).unwrap()), solo(seed, 7));
        let durability = hub.status(id).unwrap().durability.unwrap();
        assert_eq!(durability.checkpoint_iteration, 7);
        let _ = fs::remove_dir_all(&dir);
    }
}
