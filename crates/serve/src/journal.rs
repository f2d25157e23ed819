//! Hub-side write-ahead logging and point-in-time recovery.
//!
//! When a [`SessionHub`] has a spill directory, every session is
//! **journalled**: an [`adp_wal::Journal`] under
//! `<spill_dir>/wal-<id>/` receives the engine's per-step
//! [`StepEvent`]s through a [`StepObserver`] hook, and holds the
//! session's checkpoint snapshot (`checkpoint.adpsnap`, written by every
//! save and eviction). The journal is the session's whole durable state,
//! which makes three things possible:
//!
//! * **crash recovery to the durable tip** — `SessionHub::load_all` replays
//!   each journal's tail past its checkpoint, so a killed server comes
//!   back at the last *committed* iteration, not the last explicit save;
//! * **eviction** — a cold session resumes from its journal's checkpoint;
//! * **point-in-time recovery** — [`SessionHub::recover`] rebuilds the
//!   state a session had at any journalled commit point as a *new*
//!   session, bitwise identical to the original run at that iteration.
//!
//! The journal is deliberately non-fatal at serve time: if an append fails
//! (disk full, directory deleted underneath the hub), the session keeps
//! serving and its journal is dropped, so [`SessionStatus::durability`]
//! reports `None`. The next save or eviction reopens the journal on disk
//! (or creates one, if its directory is gone) and checkpoints it at that
//! moment's snapshot, and the session is durable again from there. Until
//! that checkpoint lands, the directory's last checkpoint and committed
//! tail stay what a restart recovers.
//!
//! [`SessionStatus::durability`]: crate::hub::SessionStatus::durability

use crate::hub::{lock_clean, ServeError, SessionHub, SessionId};
use activedp::{Engine, ScenarioSpec, SessionSnapshot, StepEvent, StepObserver, StepOutcome};
use adp_wal::{Journal, WalError};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Where a journalled session's durability stands (see
/// [`SessionStatus::durability`](crate::hub::SessionStatus::durability)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityStatus {
    /// Iteration of the journal's checkpoint snapshot, below which the log
    /// is compacted away.
    pub checkpoint_iteration: usize,
    /// The last iteration durable on disk as a commit point — where a
    /// crash right now would recover to.
    pub durable_iteration: usize,
}

/// The journal slot a session's [`JournalObserver`] and the hub share.
/// `None` means the session's journal failed an append and was dropped
/// until the next save or eviction reopens it.
pub(crate) type SharedJournal = Arc<Mutex<Option<Journal>>>;

/// A fresh, not-yet-initialised journal slot (the observer is registered
/// on the engine before the session id — and therefore the journal
/// directory — is known).
pub(crate) fn new_journal_slot() -> SharedJournal {
    Arc::new(Mutex::new(None))
}

/// The engine observer that feeds a session's journal: every replayable
/// [`StepEvent`] is appended, commit points fsynced (inside
/// [`Journal::append`]).
pub(crate) struct JournalObserver {
    slot: SharedJournal,
}

impl JournalObserver {
    pub(crate) fn new(slot: SharedJournal) -> Self {
        JournalObserver { slot }
    }
}

impl StepObserver for JournalObserver {
    fn on_step(&mut self, _outcome: &StepOutcome) {}

    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &StepEvent) {
        let Ok(mut slot) = self.slot.lock() else {
            return;
        };
        let Some(journal) = slot.as_mut() else {
            return;
        };
        if journal.append(event).is_err() {
            // Journalling is best-effort at serve time: on the first failed
            // append the session keeps serving without a journal until
            // its next checkpoint reopens it. Dropping the journal
            // keeps a half-written log from masquerading as durable.
            *slot = None;
        }
    }
}

/// The journal directory for one session under a spill directory.
pub(crate) fn wal_dir(spill: &Path, id: u64) -> PathBuf {
    spill.join(format!("wal-{id}"))
}

pub(crate) fn corrupt_journal(path: &Path, reason: impl Into<String>) -> ServeError {
    ServeError::CorruptJournal {
        path: path.to_path_buf(),
        reason: reason.into(),
    }
}

impl SessionHub {
    /// Durability of the identified session, `None` when it is not
    /// journalled (no spill dir, or a failed journal).
    pub(crate) fn durability(&self, id: u64) -> Option<DurabilityStatus> {
        let slot = self.journal_slot(id)?;
        let guard = lock_clean(&slot);
        let journal = guard.as_ref()?;
        Some(DurabilityStatus {
            checkpoint_iteration: journal.checkpoint_iteration(),
            durable_iteration: journal.durable_iteration(),
        })
    }

    /// Starts a new session's journal at its snapshot (for a session
    /// adopted mid-run, that writes its base) and registers the slot. The
    /// id is new, so whatever `wal-<id>/` held is stale; a failure removes
    /// the directory again rather than leave a half-made journal for the
    /// next load.
    pub(crate) fn init_journal(
        &self,
        id: SessionId,
        snapshot: &SessionSnapshot,
        slot: &SharedJournal,
    ) -> Result<(), ServeError> {
        let dir = wal_dir(&self.require_spill_dir()?, id.raw());
        let journal = Journal::create(&dir, id.raw(), snapshot.spec.clone(), 0)
            .and_then(|mut journal| journal.checkpoint(snapshot).map(|()| journal))
            .map_err(|e| {
                let _ = std::fs::remove_dir_all(&dir);
                ServeError::Wal(e)
            })?;
        *lock_clean(slot) = Some(journal);
        lock_clean(&self.journals).insert(id.raw(), slot.clone());
        Ok(())
    }

    /// Registers a loaded engine under its original id and reattaches its
    /// journal — the `load_all` adoption path.
    pub(crate) fn adopt_loaded(
        &self,
        id: u64,
        mut engine: Engine,
        journal: Journal,
    ) -> Result<SessionId, ServeError> {
        let slot = Arc::new(Mutex::new(Some(journal)));
        engine.add_observer(JournalObserver::new(slot.clone()));
        self.insert_preserving_id(id, engine, slot)?;
        Ok(SessionId::from_raw(id))
    }

    /// Rebuilds the state session `id` had at `iteration` — which must be
    /// a journalled commit point at or past the session's checkpoint — and
    /// registers it as a **new** session, returning the new id. The source
    /// session (live or long gone; only its files need to exist) is not
    /// touched. The recovered state is bitwise identical to the original
    /// run's at that iteration, so stepping the new session forward
    /// retraces the original trajectory exactly.
    pub fn recover(&self, id: SessionId, iteration: usize) -> Result<SessionId, ServeError> {
        let (base, events) = self.recovery_base(id)?;
        let data = self.dataset_for(base.spec.dataset)?;
        let engine = Engine::replay_to_over(&base, &events, iteration, data)?;
        self.create(engine)
    }

    /// The journal's base snapshot and live event tail recovery folds
    /// over: from the live journal when the session is up (a journal
    /// directory is single-writer — it must not be re-opened underneath
    /// its owner), else from disk.
    fn recovery_base(
        &self,
        id: SessionId,
    ) -> Result<(SessionSnapshot, Vec<StepEvent>), ServeError> {
        let read = |journal: &mut Journal| -> Result<_, ServeError> {
            let events = journal.events().map_err(ServeError::Wal)?;
            Ok((self.journal_base(journal)?, events))
        };
        if let Some(slot) = self.journal_slot(id.raw()) {
            // Poison-safe: skipping a *live* journal here would re-open a
            // single-writer directory underneath its owner.
            if let Some(journal) = lock_clean(&slot).as_mut() {
                return read(journal);
            }
        }
        let wal_path = wal_dir(&self.require_spill_dir()?, id.raw());
        if !wal_path.is_dir() && self.residency(id.raw()).is_none() {
            return Err(ServeError::UnknownSession(id));
        }
        // No live writer (session closed, never reloaded, or its journal
        // degraded): open — and thereby recover — the directory contents.
        // A live session whose directory is gone fails here, typed.
        read(&mut open_journal(&wal_path, id.raw())?)
    }

    /// Makes `snapshot` session `id`'s durable state: the one call behind
    /// save and eviction, [`Journal::checkpoint`]. A session whose journal
    /// degraded after a failed append reopens it first (see
    /// [`reopen_journal`]). Returns the journal directory.
    pub(crate) fn checkpoint(
        &self,
        id: u64,
        snapshot: &SessionSnapshot,
    ) -> Result<PathBuf, ServeError> {
        let spill = self.spill_dir().ok_or(ServeError::NoSpillDir)?;
        // Every session of a spilling hub is journalled from its insert on,
        // so a missing journal means the session was closed.
        let slot = self
            .journal_slot(id)
            .ok_or(ServeError::UnknownSession(SessionId::from_raw(id)))?;
        let dir = wal_dir(spill, id);
        let mut guard = lock_clean(&slot);
        let Some(journal) = guard.as_mut() else {
            // Installed only once checkpointed: a failure leaves the slot
            // empty and the directory as it was, so the next try reopens.
            let mut journal = reopen_journal(&dir, id, &snapshot.spec)?;
            journal.checkpoint(snapshot).map_err(ServeError::Wal)?;
            *guard = Some(journal);
            return Ok(dir);
        };
        match journal.checkpoint(snapshot) {
            // A concurrent save already checkpointed further ahead; its
            // snapshot covers this one.
            Ok(()) | Err(WalError::OutOfOrder { .. }) => Ok(dir),
            Err(e) => Err(ServeError::Wal(e)),
        }
    }

    /// The snapshot `journal`'s events fold onto: its checkpoint, or at
    /// checkpoint 0 the manifest's spec at iteration 0.
    pub(crate) fn journal_base(
        &self,
        journal: &mut Journal,
    ) -> Result<SessionSnapshot, ServeError> {
        if let Some(snapshot) = journal.checkpoint_snapshot().map_err(ServeError::Wal)? {
            return Ok(snapshot);
        }
        let spec = journal.spec().clone();
        let data = self.dataset_for(spec.dataset)?;
        Ok(Engine::from_spec_over(spec, data)?.snapshot()?)
    }

    /// The engine at `journal`'s durable tip: its base with the log's tail
    /// replayed onto it. A base already at the tip (always, for an evicted
    /// session) resumes without a fit; a journal with nothing past its
    /// spec builds the engine from the spec directly.
    pub(crate) fn engine_at_tip(&self, journal: &mut Journal) -> Result<Engine, ServeError> {
        let durable = journal.durable_iteration();
        if durable == 0 {
            let spec = journal.spec().clone();
            let data = self.dataset_for(spec.dataset)?;
            return Ok(Engine::from_spec_over(spec, data)?);
        }
        let base = self.journal_base(journal)?;
        let data = self.dataset_for(base.spec.dataset)?;
        if base.state.iteration == durable {
            return Engine::builder(data).resume(base).map_err(|source| {
                ServeError::CorruptSnapshot {
                    path: journal.dir().to_path_buf(),
                    source,
                }
            });
        }
        let events = journal.events().map_err(ServeError::Wal)?;
        Engine::replay_to_over(&base, &events, durable, data).map_err(|e| {
            corrupt_journal(
                journal.dir(),
                format!("replaying the log to iteration {durable} failed: {e}"),
            )
        })
    }
}

/// Opens (and recovers) session `id`'s journal directory, whose manifest
/// must name that session.
pub(crate) fn open_journal(dir: &Path, id: u64) -> Result<Journal, ServeError> {
    let journal = Journal::open(dir).map_err(ServeError::Wal)?;
    if journal.session() != id {
        return Err(corrupt_journal(
            dir,
            format!("manifest belongs to session {}", journal.session()),
        ));
    }
    Ok(journal)
}

/// The journal a session whose journal degraded continues on disk, ready
/// for its next checkpoint: opening it recovers a torn tail and keeps the
/// old checkpoint, so nothing is lost before the new snapshot lands. Only
/// when the directory is gone is a fresh journal created.
pub(crate) fn reopen_journal(
    dir: &Path,
    id: u64,
    spec: &ScenarioSpec,
) -> Result<Journal, ServeError> {
    if dir.is_dir() {
        return open_journal(dir, id);
    }
    Journal::create(dir, id, spec.clone(), 0).map_err(ServeError::Wal)
}
