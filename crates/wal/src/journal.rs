//! The [`Journal`]: one session's durable state on disk — its checkpoint
//! snapshot and the append-only event log past it.
//!
//! See the [crate docs](crate) for the directory layout and crash
//! discipline. A `Journal` is the single writer for its directory; the
//! serving hub keeps one per journalled session and drives it from the
//! engine's `StepObserver` event hook.

use crate::error::WalError;
use crate::manifest::Manifest;
use crate::segment::{decode_segment, encode_record, segment_header};
use activedp::{ActiveDpError, ScenarioSpec, SessionSnapshot, StepEvent};
use adp_wire::atomic::atomic_write;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// How many records the open segment accumulates before sealing (at the
/// next commit point). Segments bound both the rewrite cost of a seal and
/// the granularity of compaction.
pub const DEFAULT_SEGMENT_CAP: usize = 32;

const MANIFEST_FILE: &str = "manifest.adpwman";
const OPEN_FILE: &str = "open.adpwal";
const CHECKPOINT_FILE: &str = "checkpoint.adpsnap";
const SEGMENT_EXT: &str = "adpwal";

/// One session's write-ahead log: a manifest, the checkpoint snapshot,
/// sealed segments, and the open segment this handle appends to.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    manifest: Manifest,
    /// Events currently in the open segment, in append order.
    open_events: Vec<StepEvent>,
    /// Byte image of `open.adpwal` (envelope + records) — what a seal
    /// writes to the sealed name.
    open_bytes: Vec<u8>,
    open_file: File,
    /// Iteration of the last commit-point event made durable (the
    /// checkpoint when no events are live).
    last_committed: usize,
    segment_cap: usize,
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
        // Clear out any earlier journal so stale segments or a stale
        // snapshot cannot shadow the new log.
        for entry in fs::read_dir(dir).map_err(io(dir))? {
            let path = entry.map_err(io(dir))?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if [MANIFEST_FILE, OPEN_FILE, CHECKPOINT_FILE].contains(&name) || is_segment_name(name)
            {
                match fs::remove_file(&path) {
                    // Already gone (e.g. a concurrent cleanup): the goal —
                    // no stale file under that name — is met either way.
                    Err(source) if source.kind() != std::io::ErrorKind::NotFound => {
                        return Err(io(&path)(source))
                    }
                    _ => {}
                }
            }
        }
        let open_path = dir.join(OPEN_FILE);
        let open_bytes = segment_header();
        let open_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&open_path)
            .map_err(io(&open_path))?;
        (&open_file)
            .write_all(&open_bytes)
            .and_then(|()| open_file.sync_all())
            .map_err(io(&open_path))?;
        // The manifest goes last: its atomic write also syncs the
        // directory entry of the open segment created above.
        let manifest = Manifest {
            session,
            spec,
            checkpoint,
            sealed: vec![],
        };
        let manifest_path = dir.join(MANIFEST_FILE);
        atomic_write(&manifest_path, &manifest.to_bytes()).map_err(io(&manifest_path))?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            manifest,
            open_events: vec![],
            open_bytes,
            open_file,
            last_committed: checkpoint,
            segment_cap: DEFAULT_SEGMENT_CAP,
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
    /// Sealed segments are decoded strictly — they were written atomically,
    /// so damage inside one is real corruption. The open segment is
    /// decoded leniently: a torn trailing record and any uncommitted batch
    /// tail are truncated, and events already covered by the snapshot or
    /// a sealed segment (the seal-in-progress overlap window) are dropped.
    /// Segment files the manifest does not name are deleted best-effort.
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

        // Sealed segments: strict, and each must match its manifest entry.
        let mut durable = manifest.checkpoint;
        for &(first, last) in &manifest.sealed {
            let path = segment_path(dir, first);
            let bytes = fs::read(&path).map_err(|source| WalError::Io {
                path: path.clone(),
                source,
            })?;
            let decoded = decode_segment(&path, &bytes, true)?;
            check_range(&path, &decoded.events, first, last)?;
            durable = last;
        }
        // A snapshot ahead of the log covers it up to its own iteration.
        let durable = durable.max(snapshot_at.unwrap_or(0));

        // The open segment: lenient decode, then recovery trims.
        let open_path = dir.join(OPEN_FILE);
        let mut open_events = Vec::new();
        match fs::read(&open_path) {
            Err(source) if source.kind() == std::io::ErrorKind::NotFound => {}
            Err(source) => {
                return Err(WalError::Io {
                    path: open_path,
                    source,
                })
            }
            Ok(bytes) => {
                let decoded = decode_segment(&open_path, &bytes, false)?;
                open_events = decoded.events;
            }
        }
        // Drop events a sealed segment or the checkpoint already covers
        // (a crash between sealing and the open-segment reset leaves the
        // two overlapping), then the uncommitted tail.
        open_events.retain(|e| e.iteration > durable);
        while open_events.last().is_some_and(|e| !e.commit) {
            open_events.pop();
        }
        // What survives must continue the journal without a gap.
        if let Some(first) = open_events.first() {
            if first.iteration != durable + 1 {
                return Err(WalError::Corrupt {
                    path: open_path.clone(),
                    reason: format!(
                        "open segment starts at iteration {}, journal covers up to {durable}",
                        first.iteration
                    ),
                });
            }
        }
        for pair in open_events.windows(2) {
            if pair[1].iteration != pair[0].iteration + 1 {
                return Err(WalError::Corrupt {
                    path: open_path.clone(),
                    reason: format!(
                        "open segment skips from iteration {} to {}",
                        pair[0].iteration, pair[1].iteration
                    ),
                });
            }
        }
        let last_committed = open_events.last().map_or(durable, |e| e.iteration);

        // Rewrite the open segment to exactly the surviving records, so
        // the append handle continues from a clean boundary.
        let mut open_bytes = segment_header();
        for event in &open_events {
            open_bytes.extend(encode_record(event));
        }
        atomic_write(&open_path, &open_bytes).map_err(|source| WalError::Io {
            path: open_path.clone(),
            source,
        })?;
        let open_file = OpenOptions::new()
            .append(true)
            .open(&open_path)
            .map_err(|source| WalError::Io {
                path: open_path,
                source,
            })?;

        // Unlisted segment files are leftovers of an interrupted seal or
        // compaction — harmless, so cleanup is best-effort.
        if let Ok(entries) = fs::read_dir(dir) {
            let listed: Vec<PathBuf> = manifest
                .sealed
                .iter()
                .map(|&(first, _)| segment_path(dir, first))
                .collect();
            for entry in entries.flatten() {
                let path = entry.path();
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if is_segment_name(name) && !listed.contains(&path) {
                    let _ = fs::remove_file(&path);
                }
            }
        }

        let mut journal = Journal {
            dir: dir.to_path_buf(),
            manifest,
            open_events,
            open_bytes,
            open_file,
            last_committed,
            segment_cap: DEFAULT_SEGMENT_CAP,
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
    /// are fsynced before returning — and may seal the open segment when
    /// it has reached the segment cap.
    pub fn append(&mut self, event: &StepEvent) -> Result<(), WalError> {
        let expected = self.next_iteration();
        if event.iteration != expected {
            return Err(WalError::OutOfOrder {
                path: self.dir.clone(),
                expected,
                found: event.iteration,
            });
        }
        let record = encode_record(event);
        let open_path = self.dir.join(OPEN_FILE);
        let io = |source| WalError::Io {
            path: open_path.clone(),
            source,
        };
        self.open_file.write_all(&record).map_err(io)?;
        self.open_bytes.extend_from_slice(&record);
        self.open_events.push(event.clone());
        if event.commit {
            // Commit points are the only recovery targets, so they are the
            // only appends worth the fsync; an uncommitted tail would be
            // truncated at recovery anyway.
            self.open_file.sync_all().map_err(io)?;
            self.last_committed = event.iteration;
            if self.open_events.len() >= self.segment_cap {
                self.seal()?;
            }
        }
        Ok(())
    }

    /// Makes `snapshot` the journal's checkpoint: the snapshot is written
    /// atomically to `checkpoint.adpsnap`, then the manifest records its
    /// iteration, then the log behind it is compacted — sealed segments
    /// entirely at or below it are deleted and an open segment it covers is
    /// truncated back to its header in place. A crash after the snapshot
    /// write leaves a snapshot ahead of the manifest, which
    /// [`Journal::open`] accepts; one after the manifest write leaves
    /// stale-but-ignored segment files, not lost events.
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
    /// `Engine::replay_to` folds onto the checkpoint snapshot. Reads sealed
    /// segments back from disk (strictly); the open segment comes from
    /// memory.
    pub fn events(&self) -> Result<Vec<StepEvent>, WalError> {
        let mut events = Vec::new();
        for &(first, _) in &self.manifest.sealed {
            let path = segment_path(&self.dir, first);
            let bytes = fs::read(&path).map_err(|source| WalError::Io {
                path: path.clone(),
                source,
            })?;
            let decoded = decode_segment(&path, &bytes, true)?;
            events.extend(
                decoded
                    .events
                    .into_iter()
                    .filter(|e| e.iteration > self.manifest.checkpoint),
            );
        }
        events.extend(
            self.open_events
                .iter()
                .filter(|e| e.iteration > self.manifest.checkpoint)
                .cloned(),
        );
        Ok(events)
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

    /// Number of live segments (sealed + a non-empty open segment).
    pub fn live_segments(&self) -> usize {
        self.manifest.sealed.len() + usize::from(!self.open_events.is_empty())
    }

    /// The journal's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Overrides [`DEFAULT_SEGMENT_CAP`] (minimum 1) — mostly for tests
    /// that want to exercise sealing without thousands of appends.
    pub fn set_segment_cap(&mut self, cap: usize) {
        self.segment_cap = cap.max(1);
    }

    fn next_iteration(&self) -> usize {
        self.open_events
            .last()
            .map(|e| e.iteration)
            .or_else(|| self.manifest.sealed.last().map(|&(_, last)| last))
            .unwrap_or(self.manifest.checkpoint)
            + 1
    }

    /// Seals the open segment: its bytes land under the sealed name, the
    /// manifest adopts the range, and only then is the open file reset —
    /// see the crate docs for why this order survives a crash anywhere.
    fn seal(&mut self) -> Result<(), WalError> {
        debug_assert!(self.open_events.last().is_some_and(|e| e.commit));
        let first = self.open_events[0].iteration;
        let last = self.open_events[self.open_events.len() - 1].iteration;
        let path = segment_path(&self.dir, first);
        atomic_write(&path, &self.open_bytes).map_err(|source| WalError::Io { path, source })?;
        self.manifest.sealed.push((first, last));
        self.write_manifest()?;
        self.reset_open_segment()
    }

    /// Records a checkpoint at `iteration` whose snapshot is already on
    /// disk, and compacts the log behind it. The manifest is rewritten
    /// *before* any file is removed, so a crash mid-compaction leaves
    /// stale-but-ignored files rather than a manifest naming missing ones.
    fn advance_checkpoint(&mut self, iteration: usize) -> Result<(), WalError> {
        let covered: Vec<(usize, usize)> = self
            .manifest
            .sealed
            .iter()
            .copied()
            .filter(|&(_, last)| last <= iteration)
            .collect();
        self.manifest.checkpoint = iteration;
        self.manifest.sealed.retain(|&(_, last)| last > iteration);
        self.write_manifest()?;
        for (first, _) in covered {
            let _ = fs::remove_file(segment_path(&self.dir, first));
        }
        if self
            .open_events
            .last()
            .is_some_and(|e| e.iteration <= iteration)
        {
            self.reset_open_segment()?;
        }
        self.last_committed = self.last_committed.max(iteration);
        Ok(())
    }

    /// Empties the open segment by truncating it back to its header in
    /// place. Its records are all covered (by a sealed segment or the
    /// checkpoint) by now, and the append handle writes at the end of the
    /// file, so no rename is needed: a crash before the truncation lands
    /// leaves covered records that recovery drops.
    fn reset_open_segment(&mut self) -> Result<(), WalError> {
        let header = segment_header().len();
        let path = self.dir.join(OPEN_FILE);
        self.open_file
            .set_len(header as u64)
            .and_then(|()| self.open_file.sync_all())
            .map_err(|source| WalError::Io { path, source })?;
        self.open_bytes.truncate(header);
        self.open_events.clear();
        Ok(())
    }

    fn write_manifest(&self) -> Result<(), WalError> {
        let path = self.dir.join(MANIFEST_FILE);
        atomic_write(&path, &self.manifest.to_bytes())
            .map_err(|source| WalError::Io { path, source })
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

fn segment_path(dir: &Path, first: usize) -> PathBuf {
    dir.join(format!("seg-{first:012}.{SEGMENT_EXT}"))
}

fn is_segment_name(name: &str) -> bool {
    name.starts_with("seg-") && name.ends_with(".adpwal")
}

fn check_range(
    path: &Path,
    events: &[StepEvent],
    first: usize,
    last: usize,
) -> Result<(), WalError> {
    let corrupt = |reason: String| WalError::Corrupt {
        path: path.to_path_buf(),
        reason,
    };
    let (head, tail) = match (events.first(), events.last()) {
        (Some(head), Some(tail)) => (head, tail),
        _ => return Err(corrupt("sealed segment holds no events".into())),
    };
    if head.iteration != first || tail.iteration != last {
        return Err(corrupt(format!(
            "sealed segment covers {}..={}, manifest says {first}..={last}",
            head.iteration, tail.iteration
        )));
    }
    for pair in events.windows(2) {
        if pair[1].iteration != pair[0].iteration + 1 {
            return Err(corrupt(format!(
                "sealed segment skips from iteration {} to {}",
                pair[0].iteration, pair[1].iteration
            )));
        }
    }
    if !tail.commit {
        return Err(corrupt(format!(
            "sealed segment ends at iteration {last} without a commit point"
        )));
    }
    Ok(())
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

    #[test]
    fn journal_roundtrips_across_reopen() {
        let dir = tmp_dir("roundtrip");
        let mut j = Journal::create(&dir, 9, spec(), 0).unwrap();
        j.set_segment_cap(3);
        append_range(&mut j, 1..=7);
        assert_eq!(j.durable_iteration(), 7);
        assert_eq!(j.live_segments(), 3); // 1..=3, 4..=6 sealed + open 7
        drop(j);

        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.session(), 9);
        assert_eq!(j.spec(), &spec());
        assert_eq!(j.checkpoint_iteration(), 0);
        assert_eq!(j.durable_iteration(), 7);
        let events = j.events().unwrap();
        assert_eq!(events.len(), 7);
        assert_eq!(events, (1..=7).map(|i| event(i, true)).collect::<Vec<_>>());
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
        let open = dir.join(OPEN_FILE);
        let whole = fs::read(&open).unwrap();
        // Tear the file anywhere inside the final record: recovery must
        // land on iteration 3.
        let three = {
            let d = decode_segment(&open, &whole, false).unwrap();
            let mut bytes = segment_header();
            for e in &d.events[..3] {
                bytes.extend(encode_record(e));
            }
            bytes.len()
        };
        for cut in [three + 1, three + 5, whole.len() - 1] {
            fs::write(&open, &whole[..cut]).unwrap();
            let j = Journal::open(&dir).unwrap();
            assert_eq!(j.durable_iteration(), 3, "cut at {cut}");
            assert_eq!(j.events().unwrap().len(), 3);
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
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_sealed_segment_is_a_typed_error() {
        let dir = tmp_dir("corrupt");
        let mut j = Journal::create(&dir, 4, spec(), 0).unwrap();
        j.set_segment_cap(2);
        append_range(&mut j, 1..=3); // seals 1..=2
        drop(j);
        let seg = segment_path(&dir, 1);
        let mut bytes = fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0x01;
        fs::write(&seg, &bytes).unwrap();
        assert!(matches!(
            Journal::open(&dir),
            Err(WalError::Corrupt { .. } | WalError::Codec { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_and_missing_segment_are_typed_errors() {
        let dir = tmp_dir("missing");
        let mut j = Journal::create(&dir, 5, spec(), 0).unwrap();
        j.set_segment_cap(2);
        append_range(&mut j, 1..=2);
        drop(j);
        fs::remove_file(segment_path(&dir, 1)).unwrap();
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
        j.set_segment_cap(2);
        append_range(&mut j, 1..=7); // sealed: 1..=2, 3..=4, 5..=6; open: 7
        assert_eq!(j.live_segments(), 4);
        j.checkpoint(&snapshot_at(4)).unwrap();
        assert_eq!(j.checkpoint_iteration(), 4);
        assert_eq!(j.live_segments(), 2);
        assert!(!segment_path(&dir, 1).exists());
        assert!(!segment_path(&dir, 3).exists());
        assert!(segment_path(&dir, 5).exists());
        assert_eq!(
            j.events().unwrap(),
            vec![event(5, true), event(6, true), event(7, true)]
        );
        assert_eq!(j.checkpoint_snapshot().unwrap(), Some(snapshot_at(4)));
        assert_eq!(j.checkpoint_snapshot().unwrap(), Some(snapshot_at(4)));
        // Checkpoint at the durable tip drops the open segment too.
        j.checkpoint(&snapshot_at(7)).unwrap();
        assert_eq!(j.live_segments(), 0);
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
    fn interrupted_seal_recovers_without_duplicates() {
        let dir = tmp_dir("midseal");
        let mut j = Journal::create(&dir, 7, spec(), 0).unwrap();
        append_range(&mut j, 1..=3);
        drop(j);
        // Simulate a crash *between* writing the sealed file and updating
        // the manifest: the sealed name exists but is unlisted, and the
        // open segment still holds the same events.
        let open_bytes = fs::read(dir.join(OPEN_FILE)).unwrap();
        fs::write(segment_path(&dir, 1), &open_bytes).unwrap();
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.events().unwrap().len(), 3);
        assert_eq!(j.live_segments(), 1);
        // The unlisted file was cleaned up.
        assert!(!segment_path(&dir, 1).exists());
        drop(j);

        // And the other side of the window: manifest updated, open not yet
        // reset — the open segment fully duplicates the sealed one.
        let dir2 = tmp_dir("midseal2");
        let mut j = Journal::create(&dir2, 7, spec(), 0).unwrap();
        j.set_segment_cap(3);
        append_range(&mut j, 1..=3); // seals 1..=3, resets open
        drop(j);
        fs::write(
            dir2.join(OPEN_FILE),
            fs::read(segment_path(&dir2, 1)).unwrap(),
        )
        .unwrap();
        let j = Journal::open(&dir2).unwrap();
        assert_eq!(j.events().unwrap().len(), 3);
        assert_eq!(j.durable_iteration(), 3);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn open_segment_gap_after_coverage_is_corrupt() {
        let dir = tmp_dir("gap");
        let mut j = Journal::create(&dir, 8, spec(), 0).unwrap();
        append_range(&mut j, 1..=2);
        drop(j);
        // Rewrite the open segment so it starts at iteration 5: the
        // journal would silently skip 3 and 4.
        let mut bytes = segment_header();
        for i in 5..=6 {
            bytes.extend(encode_record(&event(i, true)));
        }
        fs::write(dir.join(OPEN_FILE), &bytes).unwrap();
        let err = Journal::open(&dir).unwrap_err();
        assert!(err.to_string().contains("starts at iteration 5"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_replaces_a_previous_journal() {
        let dir = tmp_dir("recreate");
        let mut j = Journal::create(&dir, 10, spec(), 0).unwrap();
        j.set_segment_cap(2);
        append_range(&mut j, 1..=5);
        j.checkpoint(&snapshot_at(4)).unwrap();
        drop(j);
        let j = Journal::create(&dir, 11, spec(), 0).unwrap();
        assert_eq!(j.session(), 11);
        assert_eq!(j.checkpoint_iteration(), 0);
        assert_eq!(j.live_segments(), 0);
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
        let (manifest, open) = (inode(MANIFEST_FILE), inode(OPEN_FILE));
        j.checkpoint(&snapshot_at(3)).unwrap();
        // An atomic write renames a fresh file over its target, so the
        // manifest's inode changes; the open segment keeps its inode and
        // shrinks to its header.
        assert_ne!(inode(MANIFEST_FILE), manifest);
        assert_eq!(inode(OPEN_FILE), open);
        assert_eq!(
            fs::metadata(dir.join(OPEN_FILE)).unwrap().len() as usize,
            segment_header().len()
        );
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, [CHECKPOINT_FILE, MANIFEST_FILE, OPEN_FILE]);
        // Appends continue at the truncated end; a reopen sees them.
        append_range(&mut j, 4..=5);
        drop(j);
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.checkpoint_iteration(), 3);
        assert_eq!(j.events().unwrap(), vec![event(4, true), event(5, true)]);
        // Sealing truncates in place as well (recovery rewrote the open
        // segment, so it has a new inode by now).
        let open = inode(OPEN_FILE);
        let mut j = j;
        j.set_segment_cap(3);
        append_range(&mut j, 6..=6);
        assert_eq!(inode(OPEN_FILE), open);
        assert_eq!(j.live_segments(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
