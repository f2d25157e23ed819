//! The [`Journal`]: one session's durable state on disk — its checkpoint
//! snapshot and the append-only event log past it.
//!
//! See the [crate docs](crate) for the directory layout and crash
//! discipline. A `Journal` is the single writer for its directory; the
//! serving hub keeps one per journalled session and drives it from the
//! engine's `StepObserver` event hook.

use crate::error::WalError;
use crate::manifest::Manifest;
use crate::segment::{decode_segment, encode_record, segment_header, Record};
use activedp::{ActiveDpError, ScenarioSpec, SessionSnapshot, StepEvent};
use adp_wire::atomic::atomic_write;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MANIFEST_FILE: &str = "manifest.adpwman";
const LOG_FILE: &str = "open.adpwal";
const CHECKPOINT_FILE: &str = "checkpoint.adpsnap";

/// One session's write-ahead log: a manifest, the checkpoint snapshot, and
/// the append-only log this handle writes to.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    manifest: Manifest,
    log: File,
    /// Byte length of the log: where the next record lands.
    log_len: u64,
    /// The last iteration the journal holds: its last record's, or the
    /// checkpoint's when that is further on. The next append continues it.
    tip: usize,
    /// Iteration of the last commit-point event made durable (the
    /// checkpoint when the log holds none past it).
    last_committed: usize,
    /// Whether the checkpoint's base exists: the spec at checkpoint 0, else
    /// `checkpoint.adpsnap`. False only for a journal created past 0 whose
    /// first checkpoint has not landed yet.
    has_base: bool,
    /// The checkpoint snapshot [`Journal::open`] decoded to check it, held
    /// for the first [`Journal::checkpoint_snapshot`] so a load decodes it
    /// once.
    opened_base: Option<SessionSnapshot>,
}

impl Journal {
    /// Creates a fresh journal in `dir` (created if missing; any previous
    /// journal files there, checkpoint snapshot included, are removed).
    /// `checkpoint` is the iteration the log starts after — 0 for a
    /// brand-new session, whose iteration-0 state the manifest's `spec`
    /// alone rebuilds. A journal created at a later iteration has no base
    /// on disk, so [`Journal::open`] rejects it until
    /// [`Journal::checkpoint`] has written one.
    pub fn create(
        dir: &Path,
        session: u64,
        spec: ScenarioSpec,
        checkpoint: usize,
    ) -> Result<Journal, WalError> {
        let io = |path: &Path| {
            let path = path.to_path_buf();
            move |source| WalError::Io { path, source }
        };
        fs::create_dir_all(dir).map_err(io(dir))?;
        // Clear out any earlier journal so a stale log or a stale snapshot
        // cannot shadow the new one.
        for name in [MANIFEST_FILE, LOG_FILE, CHECKPOINT_FILE] {
            let path = dir.join(name);
            match fs::remove_file(&path) {
                Err(source) if source.kind() != std::io::ErrorKind::NotFound => {
                    return Err(io(&path)(source))
                }
                _ => {}
            }
        }
        let log_path = dir.join(LOG_FILE);
        let header = segment_header();
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(io(&log_path))?;
        (&log)
            .write_all(&header)
            .and_then(|()| log.sync_all())
            .map_err(io(&log_path))?;
        // The manifest goes last: its atomic write also syncs the
        // directory entry of the log created above.
        let manifest = Manifest {
            session,
            spec,
            checkpoint,
        };
        let manifest_path = dir.join(MANIFEST_FILE);
        atomic_write(&manifest_path, &manifest.to_bytes()).map_err(io(&manifest_path))?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            manifest,
            log,
            log_len: header.len() as u64,
            tip: checkpoint,
            last_committed: checkpoint,
            has_base: checkpoint == 0,
            opened_base: None,
        })
    }

    /// Opens (and recovers) an existing journal directory.
    ///
    /// The checkpoint snapshot is decoded and checked against the
    /// manifest: it must exist exactly when the checkpoint is past 0,
    /// describe the manifest's spec, and not lag the checkpoint. A
    /// snapshot *ahead* of the checkpoint is a checkpoint interrupted
    /// between its two writes; it is accepted and the checkpoint finished.
    /// The log may end in a torn append and an uncommitted batch tail; both
    /// are truncated in place. Any other damage, and records that do not
    /// continue the checkpoint without a gap, are typed errors.
    pub fn open(dir: &Path) -> Result<Journal, WalError> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest_bytes = fs::read(&manifest_path).map_err(|source| {
            if source.kind() == std::io::ErrorKind::NotFound {
                WalError::Corrupt {
                    path: manifest_path.clone(),
                    reason: "journal directory has no manifest".into(),
                }
            } else {
                WalError::Io {
                    path: manifest_path.clone(),
                    source,
                }
            }
        })?;
        let manifest = Manifest::from_bytes(&manifest_path, &manifest_bytes)?;
        let opened_base = read_checkpoint(dir, &manifest)?;
        let snapshot_at = opened_base.as_ref().map(|s| s.state.iteration);
        // A snapshot ahead of the manifest covers the log up to its own
        // iteration.
        let durable = manifest.checkpoint.max(snapshot_at.unwrap_or(0));

        let log_path = dir.join(LOG_FILE);
        let io = |source| WalError::Io {
            path: log_path.clone(),
            source,
        };
        let mut log = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&log_path)
            .map_err(io)?;
        let mut bytes = Vec::new();
        log.read_to_end(&mut bytes).map_err(io)?;
        let mut records = decode_segment(&log_path, &bytes)?;
        check_sequence(&log_path, &records, durable)?;
        // Recovery lands on a commit point: a batch whose commit never
        // reached the log is dropped, and so is a log the checkpoint covers
        // entirely (a checkpoint interrupted before its truncate), so that
        // appends past the checkpoint cannot leave a gap behind them.
        while records
            .last()
            .is_some_and(|r| r.event.iteration > durable && !r.event.commit)
        {
            records.pop();
        }
        if records.last().is_some_and(|r| r.event.iteration <= durable) {
            records.clear();
        }
        let tip = records.last().map_or(durable, |r| r.event.iteration);
        // Cut what was dropped off in place, so appends continue from a
        // record boundary.
        let log_len = records.last().map_or(segment_header().len(), |r| r.end) as u64;
        if log_len < bytes.len() as u64 {
            log.set_len(log_len)
                .and_then(|()| log.sync_all())
                .map_err(io)?;
        }

        let mut journal = Journal {
            dir: dir.to_path_buf(),
            manifest,
            log,
            log_len,
            tip,
            last_committed: tip,
            has_base: true,
            opened_base,
        };
        if let Some(at) = snapshot_at.filter(|&at| at > journal.manifest.checkpoint) {
            journal.advance_checkpoint(at)?;
        }
        Ok(journal)
    }

    /// Appends one event. The event must continue the iteration sequence
    /// exactly ([`WalError::OutOfOrder`] otherwise). Commit-point events
    /// are fsynced before returning. After an I/O error the log may end in
    /// a partial record: drop the journal and [`Journal::open`] the
    /// directory again, which truncates it, rather than append behind it.
    pub fn append(&mut self, event: &StepEvent) -> Result<(), WalError> {
        let expected = self.tip + 1;
        if event.iteration != expected {
            return Err(WalError::OutOfOrder {
                path: self.dir.clone(),
                expected,
                found: event.iteration,
            });
        }
        let record = encode_record(event);
        let io = |source| WalError::Io {
            path: self.dir.join(LOG_FILE),
            source,
        };
        self.log.write_all(&record).map_err(io)?;
        self.log_len += record.len() as u64;
        self.tip = event.iteration;
        if event.commit {
            // Commit points are the only recovery targets, so they are the
            // only appends worth the fsync; an uncommitted tail would be
            // truncated at recovery anyway.
            self.log.sync_all().map_err(io)?;
            self.last_committed = event.iteration;
        }
        Ok(())
    }

    /// Makes `snapshot` the journal's checkpoint: the snapshot is written
    /// atomically to `checkpoint.adpsnap`, then the manifest records its
    /// iteration, then a log the checkpoint covers entirely is truncated
    /// back to its header in place. A log with records past the checkpoint
    /// keeps the covered ones, which reads skip. A crash after the snapshot
    /// write leaves a snapshot ahead of the manifest, which
    /// [`Journal::open`] accepts; one after the manifest write leaves
    /// covered records, not lost events.
    ///
    /// A checkpoint at the current one is a no-op once its base exists: a
    /// session's state only changes by stepping, which advances its
    /// iteration, so the snapshot on disk (or, at 0, the spec) already
    /// holds it.
    pub fn checkpoint(&mut self, snapshot: &SessionSnapshot) -> Result<(), WalError> {
        let iteration = snapshot.state.iteration;
        if iteration < self.manifest.checkpoint {
            return Err(WalError::OutOfOrder {
                path: self.dir.clone(),
                expected: self.manifest.checkpoint,
                found: iteration,
            });
        }
        self.opened_base = None;
        if iteration == self.manifest.checkpoint && self.has_base {
            return Ok(());
        }
        let path = self.dir.join(CHECKPOINT_FILE);
        atomic_write(&path, &snapshot.to_bytes())
            .map_err(|source| WalError::Io { path, source })?;
        self.has_base = true;
        self.advance_checkpoint(iteration)
    }

    /// The snapshot the live events fold onto: `None` at checkpoint 0,
    /// where the manifest's [`Journal::spec`] rebuilds the iteration-0
    /// state. The first call after [`Journal::open`] takes the snapshot
    /// open already decoded; later calls read it back from disk.
    pub fn checkpoint_snapshot(&mut self) -> Result<Option<SessionSnapshot>, WalError> {
        match self.opened_base.take() {
            Some(snapshot) => Ok(Some(snapshot)),
            None => read_checkpoint(&self.dir, &self.manifest),
        }
    }

    /// Every live event past the checkpoint, in iteration order — what
    /// `Engine::replay_to` folds onto the checkpoint snapshot. Reads the
    /// log back from disk.
    pub fn events(&self) -> Result<Vec<StepEvent>, WalError> {
        let path = self.dir.join(LOG_FILE);
        let bytes = fs::read(&path).map_err(|source| WalError::Io {
            path: path.clone(),
            source,
        })?;
        Ok(decode_segment(&path, &bytes)?
            .into_iter()
            .map(|r| r.event)
            .filter(|e| e.iteration > self.manifest.checkpoint)
            .collect())
    }

    /// The session id this journal belongs to.
    pub fn session(&self) -> u64 {
        self.manifest.session
    }

    /// The run description embedded in the manifest.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.manifest.spec
    }

    /// Iteration of the checkpoint snapshot covering the compacted prefix.
    pub fn checkpoint_iteration(&self) -> usize {
        self.manifest.checkpoint
    }

    /// The last iteration durable on disk as a commit point — where
    /// recovery lands after a crash right now.
    pub fn durable_iteration(&self) -> usize {
        self.last_committed
    }

    /// The journal's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records a checkpoint at `iteration` whose snapshot is already on
    /// disk, and truncates the log behind it when it covers all of it. The
    /// manifest is rewritten *before* the log shrinks, so a crash between
    /// the two leaves covered records, never a manifest behind a log that
    /// lost them.
    fn advance_checkpoint(&mut self, iteration: usize) -> Result<(), WalError> {
        self.manifest.checkpoint = iteration;
        let path = self.dir.join(MANIFEST_FILE);
        atomic_write(&path, &self.manifest.to_bytes())
            .map_err(|source| WalError::Io { path, source })?;
        let header = segment_header().len() as u64;
        if self.tip <= iteration && self.log_len > header {
            // The append handle writes at the end of the file, so no rename
            // is needed.
            self.log
                .set_len(header)
                .and_then(|()| self.log.sync_all())
                .map_err(|source| WalError::Io {
                    path: self.dir.join(LOG_FILE),
                    source,
                })?;
            self.log_len = header;
        }
        self.tip = self.tip.max(iteration);
        self.last_committed = self.last_committed.max(iteration);
        Ok(())
    }
}

/// Checks that the log's records are consecutive and, where any reach
/// past `durable`, continue it without a gap.
fn check_sequence(path: &Path, records: &[Record], durable: usize) -> Result<(), WalError> {
    let corrupt = |reason: String| WalError::Corrupt {
        path: path.to_path_buf(),
        reason,
    };
    for pair in records.windows(2) {
        let (prev, next) = (pair[0].event.iteration, pair[1].event.iteration);
        if next != prev + 1 {
            return Err(corrupt(format!(
                "log skips from iteration {prev} to {next}"
            )));
        }
    }
    match records.first() {
        Some(first) if first.event.iteration > durable + 1 => Err(corrupt(format!(
            "log starts at iteration {}, journal covers up to {durable}",
            first.event.iteration
        ))),
        _ => Ok(()),
    }
}

/// Reads and checks `dir`'s checkpoint snapshot against its manifest —
/// the one place the two are reconciled. The snapshot must exist exactly
/// when the checkpoint is past 0, carry the manifest's spec, and not lag
/// the checkpoint (it may lead it; see [`Journal::open`]).
fn read_checkpoint(dir: &Path, manifest: &Manifest) -> Result<Option<SessionSnapshot>, WalError> {
    let path = dir.join(CHECKPOINT_FILE);
    let bytes = match fs::read(&path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && manifest.checkpoint == 0 => {
            return Ok(None)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(WalError::Corrupt {
                path: dir.join(MANIFEST_FILE),
                reason: format!("checkpoint {} has no snapshot on disk", manifest.checkpoint),
            })
        }
        Err(source) => return Err(WalError::Io { path, source }),
        Ok(bytes) => bytes,
    };
    let reason = match SessionSnapshot::from_bytes(&bytes) {
        Err(ActiveDpError::SnapshotCodec(source)) => return Err(WalError::Codec { path, source }),
        Err(other) => other.to_string(),
        Ok(s) if s.spec != manifest.spec => "snapshot's spec disagrees with the manifest's".into(),
        Ok(s) if s.state.iteration < manifest.checkpoint => format!(
            "snapshot at iteration {} lags the manifest's checkpoint {}",
            s.state.iteration, manifest.checkpoint
        ),
        Ok(snapshot) => return Ok(Some(snapshot)),
    };
    Err(WalError::Corrupt { path, reason })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_data::{DatasetId, DatasetSpec, Scale};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(DatasetSpec {
            id: DatasetId::Youtube,
            scale: Scale::Tiny,
            seed: 7,
        })
    }

    fn event(iteration: usize, commit: bool) -> StepEvent {
        StepEvent {
            iteration,
            query: Some(iteration),
            lf: None,
            sampler_rng: [iteration as u64; 4],
            oracle_rng: [!(iteration as u64); 4],
            commit,
            route: None,
        }
    }

    fn events(range: std::ops::RangeInclusive<usize>) -> Vec<StepEvent> {
        range.map(|i| event(i, true)).collect()
    }

    /// A checkpoint snapshot of the test spec's session, relabelled to
    /// `iteration` — the journal only reads its spec and iteration.
    fn snapshot_at(iteration: usize) -> SessionSnapshot {
        let mut snapshot = activedp::Engine::from_spec(spec())
            .unwrap()
            .snapshot()
            .unwrap();
        snapshot.state.iteration = iteration;
        snapshot
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "adp-wal-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn append_range(j: &mut Journal, range: std::ops::RangeInclusive<usize>) {
        for i in range {
            j.append(&event(i, true)).unwrap();
        }
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

    fn log_len(dir: &Path) -> usize {
        fs::metadata(dir.join(LOG_FILE)).unwrap().len() as usize
    }

    #[test]
    fn journal_roundtrips_across_reopen() {
        let dir = tmp_dir("roundtrip");
        let mut j = Journal::create(&dir, 9, spec(), 0).unwrap();
        append_range(&mut j, 1..=100);
        assert_eq!(j.durable_iteration(), 100);
        drop(j);

        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.session(), 9);
        assert_eq!(j.spec(), &spec());
        assert_eq!(j.checkpoint_iteration(), 0);
        assert_eq!(j.durable_iteration(), 100);
        assert_eq!(j.events().unwrap(), events(1..=100));
        // One log file, however many commits it holds.
        assert_eq!(names(&dir), [MANIFEST_FILE, LOG_FILE]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_must_be_contiguous() {
        let dir = tmp_dir("order");
        let mut j = Journal::create(&dir, 1, spec(), 4).unwrap();
        // First append continues the checkpoint.
        let err = j.append(&event(4, true)).unwrap_err();
        assert!(matches!(
            err,
            WalError::OutOfOrder {
                expected: 5,
                found: 4,
                ..
            }
        ));
        j.append(&event(5, true)).unwrap();
        let err = j.append(&event(7, true)).unwrap_err();
        assert!(matches!(
            err,
            WalError::OutOfOrder {
                expected: 6,
                found: 7,
                ..
            }
        ));
        // Double-append of the same iteration is rejected too.
        let err = j.append(&event(5, true)).unwrap_err();
        assert!(matches!(err, WalError::OutOfOrder { expected: 6, .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_open_tail_recovers_to_the_last_complete_record() {
        let dir = tmp_dir("torn");
        let mut j = Journal::create(&dir, 2, spec(), 0).unwrap();
        append_range(&mut j, 1..=4);
        drop(j);
        let open = dir.join(LOG_FILE);
        let whole = fs::read(&open).unwrap();
        // Tear the file anywhere inside the final record: recovery must
        // land on iteration 3, and cut the torn bytes off.
        let three = decode_segment(&open, &whole).unwrap()[2].end;
        for cut in [three + 1, three + 5, whole.len() - 1] {
            fs::write(&open, &whole[..cut]).unwrap();
            let j = Journal::open(&dir).unwrap();
            assert_eq!(j.durable_iteration(), 3, "cut at {cut}");
            assert_eq!(j.events().unwrap(), events(1..=3));
            assert_eq!(log_len(&dir), three);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_tail_is_truncated_on_recovery() {
        let dir = tmp_dir("uncommitted");
        let mut j = Journal::create(&dir, 3, spec(), 0).unwrap();
        j.append(&event(1, true)).unwrap();
        j.append(&event(2, true)).unwrap();
        // A batch in flight: events 3 and 4 never reached their commit.
        j.append(&event(3, false)).unwrap();
        j.append(&event(4, false)).unwrap();
        assert_eq!(j.durable_iteration(), 2);
        drop(j);
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.durable_iteration(), 2);
        assert_eq!(j.events().unwrap().len(), 2);
        // And the truncation is physical: a fresh append of iteration 3
        // continues cleanly.
        let mut j = j;
        j.append(&event(3, true)).unwrap();
        assert_eq!(j.durable_iteration(), 3);
        drop(j);
        assert_eq!(
            Journal::open(&dir).unwrap().events().unwrap(),
            events(1..=3)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flipped_bit_before_the_log_tail_is_corrupt() {
        let dir = tmp_dir("corrupt");
        let mut j = Journal::create(&dir, 4, spec(), 0).unwrap();
        append_range(&mut j, 1..=10);
        drop(j);
        let open = dir.join(LOG_FILE);
        let good = fs::read(&open).unwrap();
        let records = decode_segment(&open, &good).unwrap();
        // One bit inside record 3's payload (past its 8-byte header):
        // committed, and not the last.
        let mut bad = good.clone();
        bad[records[1].end + 10] ^= 0x01;
        fs::write(&open, &bad).unwrap();
        let err = Journal::open(&dir).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // The failed open left the log as it found it.
        assert_eq!(fs::read(&open).unwrap(), bad);
        fs::write(&open, &good).unwrap();
        assert_eq!(Journal::open(&dir).unwrap().durable_iteration(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_flipped_bit_of_a_length_word_is_corrupt() {
        // A damaged length can point past end of file exactly like a torn
        // append does; its checksum is what tells the two apart, so no flip
        // may drop the committed records after it.
        let dir = tmp_dir("length");
        let mut j = Journal::create(&dir, 4, spec(), 0).unwrap();
        append_range(&mut j, 1..=10);
        drop(j);
        let open = dir.join(LOG_FILE);
        let good = fs::read(&open).unwrap();
        let records = decode_segment(&open, &good).unwrap();
        let third = records[1].end;
        for bit in 0..32 {
            let mut bad = good.clone();
            bad[third + bit / 8] ^= 1 << (bit % 8);
            fs::write(&open, &bad).unwrap();
            let err = Journal::open(&dir).unwrap_err();
            assert!(matches!(err, WalError::Corrupt { .. }), "bit {bit}: {err}");
            assert_eq!(fs::read(&open).unwrap(), bad, "bit {bit}");
        }
        fs::write(&open, &good).unwrap();
        assert_eq!(Journal::open(&dir).unwrap().durable_iteration(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_and_missing_segment_are_typed_errors() {
        let dir = tmp_dir("missing");
        let mut j = Journal::create(&dir, 5, spec(), 0).unwrap();
        append_range(&mut j, 1..=2);
        drop(j);
        fs::remove_file(dir.join(LOG_FILE)).unwrap();
        assert!(matches!(Journal::open(&dir), Err(WalError::Io { .. })));
        fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let err = Journal::open(&dir).unwrap_err();
        assert!(err.to_string().contains("no manifest"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_covered_segments() {
        let dir = tmp_dir("compact");
        let mut j = Journal::create(&dir, 6, spec(), 0).unwrap();
        append_range(&mut j, 1..=7);
        let full = log_len(&dir);
        // A checkpoint inside the log leaves it whole; reads skip what it
        // covers, here and after a reopen.
        j.checkpoint(&snapshot_at(4)).unwrap();
        assert_eq!(j.checkpoint_iteration(), 4);
        assert_eq!(log_len(&dir), full);
        assert_eq!(j.events().unwrap(), events(5..=7));
        assert_eq!(j.checkpoint_snapshot().unwrap(), Some(snapshot_at(4)));
        assert_eq!(j.checkpoint_snapshot().unwrap(), Some(snapshot_at(4)));
        drop(j);
        let mut j = Journal::open(&dir).unwrap();
        assert_eq!(j.durable_iteration(), 7);
        assert_eq!(j.events().unwrap(), events(5..=7));
        // A checkpoint at the durable tip empties the log.
        j.checkpoint(&snapshot_at(7)).unwrap();
        assert_eq!(log_len(&dir), segment_header().len());
        assert!(j.events().unwrap().is_empty());
        // Appends continue from the checkpoint; reopen agrees.
        j.append(&event(8, true)).unwrap();
        drop(j);
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.checkpoint_iteration(), 7);
        assert_eq!(j.events().unwrap(), vec![event(8, true)]);
        // Moving the checkpoint backwards is rejected.
        let mut j = j;
        let err = j.checkpoint(&snapshot_at(3)).unwrap_err();
        assert!(matches!(err, WalError::OutOfOrder { expected: 7, .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_cut_before_its_truncate_continues_without_a_gap() {
        let dir = tmp_dir("cut-truncate");
        let mut j = Journal::create(&dir, 14, spec(), 0).unwrap();
        append_range(&mut j, 1..=3);
        let log = fs::read(dir.join(LOG_FILE)).unwrap();
        j.checkpoint(&snapshot_at(5)).unwrap();
        drop(j);
        // The crash: manifest and snapshot at 5, the covered log untouched.
        fs::write(dir.join(LOG_FILE), &log).unwrap();
        let mut j = Journal::open(&dir).unwrap();
        assert_eq!(j.durable_iteration(), 5);
        assert!(j.events().unwrap().is_empty());
        append_range(&mut j, 6..=7);
        drop(j);
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.durable_iteration(), 7);
        assert_eq!(j.events().unwrap(), events(6..=7));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_segment_gap_after_coverage_is_corrupt() {
        let dir = tmp_dir("gap");
        let mut j = Journal::create(&dir, 8, spec(), 0).unwrap();
        append_range(&mut j, 1..=2);
        drop(j);
        let write_log = |iterations: &[usize]| {
            let mut bytes = segment_header();
            for &i in iterations {
                bytes.extend(encode_record(&event(i, true)));
            }
            fs::write(dir.join(LOG_FILE), &bytes).unwrap();
        };
        // A log starting at iteration 5 would silently skip 1 to 4…
        write_log(&[5, 6]);
        let err = Journal::open(&dir).unwrap_err();
        assert!(err.to_string().contains("starts at iteration 5"), "{err}");
        // …and one that skips inside would skip 3.
        write_log(&[1, 2, 4]);
        let err = Journal::open(&dir).unwrap_err();
        assert!(
            err.to_string().contains("skips from iteration 2 to 4"),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_replaces_a_previous_journal() {
        let dir = tmp_dir("recreate");
        let mut j = Journal::create(&dir, 10, spec(), 0).unwrap();
        append_range(&mut j, 1..=5);
        j.checkpoint(&snapshot_at(4)).unwrap();
        drop(j);
        let j = Journal::create(&dir, 11, spec(), 0).unwrap();
        assert_eq!(j.session(), 11);
        assert_eq!(j.checkpoint_iteration(), 0);
        assert!(j.events().unwrap().is_empty());
        // The old checkpoint snapshot went with the old log.
        assert!(!dir.join(CHECKPOINT_FILE).exists());
        drop(j);
        let mut j = Journal::open(&dir).unwrap();
        assert_eq!(j.session(), 11);
        assert_eq!(j.durable_iteration(), 0);
        assert_eq!(j.checkpoint_snapshot().unwrap(), None);
        drop(j);
        // A journal created past 0 has no base until a checkpoint writes
        // one, so it does not open; a checkpoint at its iteration writes it.
        let mut j = Journal::create(&dir, 12, spec(), 3).unwrap();
        let err = Journal::open(&dir).unwrap_err();
        assert!(err.to_string().contains("no snapshot"), "{err}");
        j.checkpoint(&snapshot_at(3)).unwrap();
        drop(j);
        let mut j = Journal::open(&dir).unwrap();
        assert_eq!(j.checkpoint_iteration(), 3);
        assert_eq!(j.checkpoint_snapshot().unwrap(), Some(snapshot_at(3)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_is_two_renames_and_an_in_place_truncate() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmp_dir("inplace");
        let mut j = Journal::create(&dir, 13, spec(), 0).unwrap();
        append_range(&mut j, 1..=3);
        let inode = |name: &str| fs::metadata(dir.join(name)).unwrap().ino();
        let (manifest, open) = (inode(MANIFEST_FILE), inode(LOG_FILE));
        j.checkpoint(&snapshot_at(3)).unwrap();
        // An atomic write renames a fresh file over its target, so the
        // manifest's inode changes; the log keeps its inode and shrinks to
        // its header.
        assert_ne!(inode(MANIFEST_FILE), manifest);
        assert_eq!(inode(LOG_FILE), open);
        assert_eq!(log_len(&dir), segment_header().len());
        assert_eq!(names(&dir), [CHECKPOINT_FILE, MANIFEST_FILE, LOG_FILE]);
        // Appends continue at the truncated end; a reopen sees them, and
        // recovery keeps the log's inode too.
        append_range(&mut j, 4..=5);
        drop(j);
        let j = Journal::open(&dir).unwrap();
        assert_eq!(inode(LOG_FILE), open);
        assert_eq!(j.checkpoint_iteration(), 3);
        assert_eq!(j.events().unwrap(), events(4..=5));
        fs::remove_dir_all(&dir).unwrap();
    }
}
