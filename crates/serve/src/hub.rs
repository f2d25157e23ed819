//! The sharded session registry: engines behind ids, one lock per shard,
//! with hot/cold tiering under a configurable memory budget.
//!
//! Every call runs on the caller's thread while it holds the lock of the
//! session's shard (`id % n_shards`), so calls on one shard run one at a
//! time and calls on different shards run in parallel.
//!
//! Sessions are **hot** (engine resident in its shard's map) or
//! **cold** (engine dropped, its journal checkpointed at the current
//! state, so `wal-<id>/checkpoint.adpsnap` holds it). When a memory budget is set
//! ([`SessionHub::with_memory_budget`] / `ADP_MAX_RESIDENT`) the hub keeps
//! at most that many sessions hot, evicting the least-recently-touched
//! first. Cold sessions resume transparently on their next touch, under
//! the shard lock, so callers never observe eviction: an
//! `evict → touch → run-to-end` trajectory is bitwise identical to the
//! uninterrupted run, post-run snapshot bytes included (the same parity
//! bar as snapshot/resume and WAL replay).

use crate::journal::{new_journal_slot, DurabilityStatus, JournalObserver, SharedJournal};
use crate::metrics::{HubMetrics, Op};
use activedp::{
    ActiveDpError, Engine, EngineBuilder, EvalReport, RouteStats, ScenarioSpec, SessionConfig,
    SessionSnapshot, StepOutcome,
};
use adp_data::{DatasetId, DatasetSpec, SharedDataset};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Locks `m`, recovering from poison instead of propagating the panic.
///
/// Every mutex behind this helper guards a registry (datasets, journals,
/// residency slots) whose invariants hold between operations — a panic on
/// one thread mid-operation leaves at worst a stale entry, never a torn
/// one, so the right response to poison is to keep serving, not to turn
/// every subsequent hub call into a panic cascade.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Opaque handle to one session inside a [`SessionHub`].
///
/// Ids are unique for the lifetime of the hub (a monotone counter, never
/// reused after [`SessionHub::close`]) and also encode the shard the
/// session lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw id, e.g. for logging or an external routing table.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from a raw id (journals and the network
    /// protocol carry raw ids; whether a session answers to it is decided
    /// per call, as always).
    pub fn from_raw(id: u64) -> Self {
        SessionId(id)
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Errors surfaced by [`SessionHub`] calls.
#[derive(Debug)]
pub enum ServeError {
    /// No session with that id (never created, or already closed).
    UnknownSession(SessionId),
    /// A restore asked for an id another live session already holds.
    SessionExists(SessionId),
    /// A `step_batch` request with `k = 0`. The engine itself treats an
    /// empty batch as a no-op, but at the service boundary it is always a
    /// caller bug, so the hub rejects it before routing to a shard.
    EmptyBatch,
    /// The session's engine returned an error.
    Engine(ActiveDpError),
    /// A persistence call on a hub with no spill directory (neither
    /// [`SessionHub::with_spill_dir`] nor `ADP_SPILL_DIR`).
    NoSpillDir,
    /// A filesystem operation on the spill directory failed.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A checkpoint snapshot decoded but its session could not be resumed
    /// from it.
    CorruptSnapshot {
        /// The offending file.
        path: PathBuf,
        /// The codec's typed rejection.
        source: ActiveDpError,
    },
    /// A write-ahead log operation failed (the typed WAL error names the
    /// file and what was wrong with it).
    Wal(adp_wal::WalError),
    /// A journal decoded cleanly but contradicts the session it claims to
    /// belong to — wrong session id, or a log that does not replay onto
    /// its checkpoint.
    CorruptJournal {
        /// The journal directory (or file) involved.
        path: PathBuf,
        /// What was inconsistent.
        reason: String,
    },
    /// The spill directory holds a top-level `session-<id>.adpsnap` file:
    /// the retired pre-journal layout, which `load_all` no longer reads
    /// (see MIGRATION.md).
    RetiredLayout {
        /// The retired spill file.
        path: PathBuf,
    },
    /// The hub is at its memory budget and no resident session can be
    /// evicted to make room (an in-memory hub, which has no spill
    /// directory) — backpressure, not failure: retry after closing
    /// something.
    Saturated {
        /// Resident sessions at rejection time.
        resident: usize,
        /// The configured budget.
        cap: usize,
    },
    /// The session's shard is dead: an engine call on it panicked, and
    /// the engine may have been left half-updated, so every later call on
    /// that shard fails with this error.
    HubClosed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownSession(id) => write!(f, "unknown {id}"),
            ServeError::SessionExists(id) => write!(f, "{id} already exists"),
            ServeError::EmptyBatch => write!(f, "step_batch requires k >= 1"),
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::NoSpillDir => {
                write!(
                    f,
                    "no spill directory (set ADP_SPILL_DIR or use with_spill_dir)"
                )
            }
            ServeError::Io { path, source } => write!(f, "io on {}: {source}", path.display()),
            ServeError::CorruptSnapshot { path, source } => {
                write!(f, "corrupt snapshot {}: {source}", path.display())
            }
            ServeError::Wal(source) => write!(f, "{source}"),
            ServeError::CorruptJournal { path, reason } => {
                write!(f, "corrupt journal {}: {reason}", path.display())
            }
            ServeError::RetiredLayout { path } => write!(
                f,
                "{} is a spill file of the retired pre-journal layout (one \
                 session-<id>.adpsnap per session); sessions now live only in wal-<id>/ \
                 journal directories",
                path.display()
            ),
            ServeError::Saturated { resident, cap } => {
                write!(
                    f,
                    "hub saturated: {resident} resident sessions at budget {cap} and none evictable"
                )
            }
            ServeError::HubClosed => write!(f, "session shard is dead after a panic"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            ServeError::Io { source, .. } => Some(source),
            ServeError::CorruptSnapshot { source, .. } => Some(source),
            ServeError::Wal(source) => Some(source),
            _ => None,
        }
    }
}

impl From<ActiveDpError> for ServeError {
    fn from(e: ActiveDpError) -> Self {
        ServeError::Engine(e)
    }
}

/// Where a session currently stands (see [`SessionHub::status`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionStatus {
    /// Completed loop iterations.
    pub iteration: usize,
    /// LFs collected so far.
    pub n_lfs: usize,
    /// LFs currently selected by LabelPick.
    pub n_selected: usize,
    /// Write-ahead-log durability, for journalled sessions: last
    /// checkpointed iteration, last durable iteration. `None` when the
    /// session is not journalled (no spill directory, or a degraded
    /// journal).
    pub durability: Option<DurabilityStatus>,
    /// The dual-oracle cost ledger — per-oracle query counts and accrued
    /// spend — for sessions routing between a simulated user and a noisy
    /// oracle ([`activedp::OracleKind::Noisy`]); `None` on plain
    /// simulated-user sessions. Answered for hot sessions from the live
    /// router and for cold ones from the journal's checkpoint.
    pub route: Option<RouteStats>,
}

/// One shard's liveness and occupancy (see [`SessionHub::health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index (ids route to `id % n_shards`).
    pub shard: usize,
    /// Whether the shard still serves: `false` once an engine call on it
    /// panicked and poisoned its lock.
    pub alive: bool,
    /// Resident sessions on this shard (0 when dead).
    pub resident: usize,
}

/// A point-in-time health report (see [`SessionHub::health`]). Unlike
/// [`SessionHub::session_count`], building it never fails — a dead shard
/// is the report, not an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HubHealth {
    /// Per-shard liveness and occupancy.
    pub shards: Vec<ShardHealth>,
    /// Sessions with an engine in memory.
    pub resident: usize,
    /// Sessions spilled cold, resumable on touch.
    pub cold: usize,
    /// The memory budget, when one is set.
    pub max_resident: Option<usize>,
    /// Evictions since the hub started.
    pub evicted_total: u64,
    /// Cold-session resumes since the hub started.
    pub resumed_total: u64,
}

impl HubHealth {
    /// Whether every shard is alive.
    pub fn all_alive(&self) -> bool {
        self.shards.iter().all(|s| s.alive)
    }
}

/// One session's residency bookkeeping in [`SessionHub`]'s slot registry.
#[derive(Debug, Clone, Copy)]
struct SessionSlot {
    /// Whether the engine is in memory (hot) or spilled (cold).
    resident: bool,
    /// Monotone touch sequence number; the LRU victim is the resident
    /// session with the smallest value.
    last_touch: u64,
}

/// The engines resident on one shard, by raw session id.
type Shard = HashMap<u64, Engine>;

/// A registry of concurrent labelling sessions, sharded over locks.
///
/// A session lives on shard `id % n_shards`. Every call runs on the
/// calling thread while it holds that shard's lock, so calls for
/// sessions on different shards run in parallel and calls on one shard
/// run one at a time. Within one session that is exactly the engine's own
/// sequential semantics, so per-session trajectories are deterministic
/// regardless of hub load. A panic inside an engine call is caught at the
/// lock: it poisons that shard alone, which from then on answers
/// [`ServeError::HubClosed`].
///
/// With a memory budget set, the hub additionally keeps only the
/// `max_resident` most-recently-touched sessions hot; the rest are spilled
/// cold and resume transparently on their next touch (see the module
/// docs). Without a budget — the default — nothing is ever evicted.
pub struct SessionHub {
    shards: Vec<Mutex<Shard>>,
    next_id: AtomicU64,
    /// Where session journals live (explicit, else `ADP_SPILL_DIR`, else
    /// none).
    spill_dir: Option<PathBuf>,
    /// Resident-session cap; 0 means no budget (never evict).
    max_resident: AtomicUsize,
    /// Source of `last_touch` values.
    touch_seq: AtomicU64,
    /// Every open session, hot or cold, by raw id.
    slots: Mutex<HashMap<u64, SessionSlot>>,
    /// Generated splits by spec, so every session naming the same spec —
    /// including all sessions re-opened by `load_all` — shares one
    /// `SharedDataset` allocation.
    datasets: Mutex<HashMap<(DatasetId, u64, u64), SharedDataset>>,
    /// Each journalled session's journal slot, shared with the
    /// `JournalObserver` registered on its engine (which appends while
    /// its session steps; the hub checkpoints and inspects it).
    pub(crate) journals: Mutex<HashMap<u64, SharedJournal>>,
    /// Counters, gauges and latency histograms for every hub operation.
    metrics: HubMetrics,
}

impl SessionHub {
    /// A hub with `n_shards` shard locks (at least one). Snapshots spill
    /// to `ADP_SPILL_DIR` when that variable is set; use
    /// [`SessionHub::with_spill_dir`] to pick the directory explicitly. A
    /// memory budget is taken from `ADP_MAX_RESIDENT` when set (and
    /// parseable); use [`SessionHub::with_memory_budget`] to pick it
    /// explicitly.
    pub fn new(n_shards: usize) -> Self {
        let spill = std::env::var_os("ADP_SPILL_DIR").map(PathBuf::from);
        let hub = Self::with_shards_and_spill(n_shards, spill);
        if let Some(cap) = std::env::var("ADP_MAX_RESIDENT")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            hub.set_memory_budget(Some(cap));
        }
        hub
    }

    /// A hub whose [`SessionHub::save_all`]/[`SessionHub::load_all`] use
    /// `spill_dir` (created on first save).
    pub fn with_spill_dir(n_shards: usize, spill_dir: impl Into<PathBuf>) -> Self {
        Self::with_shards_and_spill(n_shards, Some(spill_dir.into()))
    }

    /// A hub with **no** spill directory, regardless of `ADP_SPILL_DIR`:
    /// sessions are purely in-memory, snapshot/save requests report the
    /// missing directory, and a memory budget can only refuse admissions
    /// (nothing is evictable without somewhere to spill).
    pub fn in_memory(n_shards: usize) -> Self {
        Self::with_shards_and_spill(n_shards, None)
    }

    pub(crate) fn with_shards_and_spill(n_shards: usize, spill_dir: Option<PathBuf>) -> Self {
        SessionHub {
            shards: (0..n_shards.max(1)).map(|_| Mutex::default()).collect(),
            next_id: AtomicU64::new(0),
            spill_dir,
            max_resident: AtomicUsize::new(0),
            touch_seq: AtomicU64::new(0),
            slots: Mutex::default(),
            datasets: Mutex::default(),
            journals: Mutex::default(),
            metrics: HubMetrics::new(),
        }
    }

    /// Caps resident sessions at `max_resident` (clamped to at least 1):
    /// once more sessions than that are hot, the least-recently-touched
    /// are evicted to their journals. Builder-style; see also
    /// [`SessionHub::set_memory_budget`].
    pub fn with_memory_budget(self, max_resident: usize) -> Self {
        self.set_memory_budget(Some(max_resident));
        self
    }

    /// Sets (or with `None` clears) the resident-session budget at
    /// runtime. A budget of 0 is clamped to 1 — a hub that could hold
    /// nothing hot could never run anything.
    pub fn set_memory_budget(&self, max_resident: Option<usize>) {
        let cap = max_resident.map_or(0, |c| c.max(1));
        self.max_resident.store(cap, Ordering::Relaxed);
        self.enforce_budget();
    }

    /// The resident-session budget, when one is set.
    pub fn memory_budget(&self) -> Option<usize> {
        match self.max_resident.load(Ordering::Relaxed) {
            0 => None,
            cap => Some(cap),
        }
    }

    /// Number of shards (locks sessions are spread over).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The directory snapshots spill to, when one is configured.
    pub fn spill_dir(&self) -> Option<&std::path::Path> {
        self.spill_dir.as_deref()
    }

    /// The hub's metric surface (counters, gauges, latency histograms) —
    /// render with [`HubMetrics::render`] for a Prometheus scrape.
    pub fn metrics(&self) -> &HubMetrics {
        &self.metrics
    }

    /// Times `f` into the per-operation histogram.
    fn timed<T>(&self, op: Op, f: impl FnOnce() -> Result<T, ServeError>) -> Result<T, ServeError> {
        let start = Instant::now();
        let out = f();
        self.metrics.record(op, start.elapsed(), out.is_err());
        out
    }

    /// Registers a ready-built engine and returns its session id.
    ///
    /// Every engine is described by its [`ScenarioSpec`] (see
    /// `Engine::scenario`), so every session can spill and reload. When
    /// the hub has a spill directory, every session is **journalled**: its
    /// journal under `wal-<id>/` starts at the engine's snapshot, and its
    /// per-step events stream into the journal's write-ahead log, making
    /// the session recoverable to its last committed iteration after a
    /// crash — and to any earlier commit point via
    /// [`SessionHub::recover`]. The journal is created under the session's
    /// shard lock, before any other call can reach the new id.
    ///
    /// Under a memory budget, a create that cannot be absorbed — the hub
    /// is at the cap and nothing resident can be evicted — is rejected
    /// with [`ServeError::Saturated`] before any id is allocated.
    pub fn create(&self, engine: Engine) -> Result<SessionId, ServeError> {
        self.timed(Op::Open, || self.create_inner(engine))
    }

    fn create_inner(&self, mut engine: Engine) -> Result<SessionId, ServeError> {
        self.admit()?;
        // The snapshot is the journal's base. The observer is armed before
        // the id — and therefore the journal directory — is known; the
        // engine cannot step before `create` returns the id to anyone, so
        // no event outruns the journal.
        let journal = match self.spill_dir() {
            None => None,
            Some(_) => {
                let slot = new_journal_slot();
                engine.add_observer(JournalObserver::new(slot.clone()));
                Some((engine.snapshot()?, slot))
            }
        };
        let id = loop {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            // A failure to establish the journal fails the create rather
            // than serve a session that silently is not durable.
            let register = |id| match &journal {
                Some((base, slot)) => self.init_journal(id, base, slot),
                None => Ok(()),
            };
            match self.try_insert(id, engine, register)? {
                Ok(()) => break SessionId(id),
                // A concurrent `load_all` restored this very id before its
                // allocator bump landed; that id belongs to the restored
                // session, so take the engine back and allocate a fresh one.
                Err(returned) => engine = returned,
            }
        };
        self.enforce_budget();
        Ok(id)
    }

    /// Admission control: under a budget, a create is rejected when the
    /// hub is at the cap and eviction cannot make room (no spill
    /// directory). When an eviction *can* absorb the new session, the
    /// create is admitted and `enforce_budget` spills the LRU victim right
    /// after the insert.
    fn admit(&self) -> Result<(), ServeError> {
        let Some(cap) = self.memory_budget() else {
            return Ok(());
        };
        let resident = self.resident_count();
        if resident < cap {
            return Ok(());
        }
        if self.lru_victim(&HashSet::new()).is_some() {
            return Ok(());
        }
        self.metrics.saturated_total.inc();
        Err(ServeError::Saturated { resident, cap })
    }

    /// Evicts least-recently-touched sessions until the resident count is
    /// back inside the budget. A victim whose spill fails is skipped for
    /// the rest of the sweep, so the loop always terminates. Called with
    /// no shard lock held: a victim may live on any shard.
    fn enforce_budget(&self) {
        let Some(cap) = self.memory_budget() else {
            return;
        };
        let mut skip = HashSet::new();
        while self.resident_count() > cap {
            let Some(victim) = self.lru_victim(&skip) else {
                break;
            };
            match self.evict(SessionId(victim)) {
                Ok(true) => {}
                // Already cold, closed, or the spill failed — do not retry
                // it this sweep.
                Ok(false) | Err(_) => {
                    skip.insert(victim);
                }
            }
        }
    }

    /// Spills the identified session cold: snapshot → journal checkpoint →
    /// engine dropped. Returns `Ok(true)` when the session
    /// went cold, `Ok(false)` when it already was — or cannot be evicted
    /// because the hub has no spill directory. The session stays
    /// fully serviceable either way: its next touch resumes it in place,
    /// on the exact trajectory it would have had uninterrupted.
    pub fn evict(&self, id: SessionId) -> Result<bool, ServeError> {
        self.timed(Op::Evict, || {
            self.with_shard(id.0, |engines| self.evict_session(engines, id.0))
        })
    }

    /// Builds the engine from `builder` and registers it — the one-call
    /// path from dataset to served session. Build errors (invalid config)
    /// surface before any id is allocated.
    pub fn open(&self, builder: EngineBuilder) -> Result<SessionId, ServeError> {
        self.create(builder.build()?)
    }

    /// Builds and registers the session a [`ScenarioSpec`] describes — the
    /// declarative path from one serializable run description to a served
    /// session (the network front end's `create_spec` request lands here).
    /// The split is generated once per distinct dataset spec and shared
    /// between all sessions naming it; the engine routes through
    /// `Engine::from_spec_over`, so the hub cannot drift from the solo
    /// constructor. Invalid specs (bad config ranges, degenerate schedules
    /// like `FixedBatch{k: 0}`, an ungeneratable dataset) fail here, before
    /// any id is allocated.
    pub fn create_from_spec(&self, spec: ScenarioSpec) -> Result<SessionId, ServeError> {
        spec.validate().map_err(ServeError::Engine)?;
        let data = self.dataset_for(spec.dataset)?;
        self.create(Engine::from_spec_over(spec, data)?)
    }

    /// Generates (or re-uses) the split named by `spec` and opens a session
    /// over it with `config` — sugar for [`SessionHub::create_from_spec`]
    /// with the default schedule and budget; the session persists across
    /// restarts like any spec-described session.
    pub fn open_spec(
        &self,
        spec: DatasetSpec,
        config: SessionConfig,
    ) -> Result<SessionId, ServeError> {
        self.create_from_spec(ScenarioSpec {
            session: config,
            ..ScenarioSpec::new(spec)
        })
    }

    /// Resumes a snapshot over an explicitly supplied dataset under a
    /// fresh id (the cache-bypassing sibling of the `load_all` path; the
    /// split must match the provenance recorded in the snapshot's spec).
    pub fn restore(
        &self,
        data: SharedDataset,
        snapshot: SessionSnapshot,
    ) -> Result<SessionId, ServeError> {
        let engine = Engine::builder(data).resume(snapshot)?;
        self.create(engine)
    }

    /// Captures the identified session's [`SessionSnapshot`] (the session
    /// keeps running; snapshots are read-only). A cold session is resumed
    /// first — this is a touch like any other engine operation.
    pub fn snapshot(&self, id: SessionId) -> Result<SessionSnapshot, ServeError> {
        let out = self.with_engine(id.0, |e| e.snapshot());
        self.enforce_budget();
        out
    }

    /// Cheap progress probe for the identified session (the network
    /// front end's `open` verb — a reconnecting client learns where its
    /// session left off without pulling a full snapshot). A pure probe:
    /// a cold session answers from its journal without being resumed,
    /// and no LRU position changes.
    pub fn status(&self, id: SessionId) -> Result<SessionStatus, ServeError> {
        self.timed(Op::Open, || {
            self.with_shard(id.0, |engines| self.probe_status(engines, id.0))
        })
    }

    /// Ids of every open session — resident or cold — ascending.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.ids_where(|_| true)
    }

    /// Ids of the sessions currently hot (engine in memory), ascending.
    pub fn resident_ids(&self) -> Vec<SessionId> {
        self.ids_where(|slot| slot.resident)
    }

    /// Ids of the sessions currently cold (checkpointed, resumable),
    /// ascending.
    pub fn cold_ids(&self) -> Vec<SessionId> {
        self.ids_where(|slot| !slot.resident)
    }

    /// Registers `engine` and its open `journal` under a *specific* id (the
    /// `load_all` path, which preserves ids across restarts so client
    /// handles stay valid). Bumps the id allocator past `id` and rejects
    /// collisions with live sessions.
    pub(crate) fn insert_preserving_id(
        &self,
        id: u64,
        engine: Engine,
        journal: SharedJournal,
    ) -> Result<(), ServeError> {
        // `id` comes from a journal, i.e. from disk: saturate instead of
        // computing `id + 1` so a tampered file carrying u64::MAX cannot
        // panic (dev) or wrap the allocator to 0 (release). The persist
        // layer additionally rejects that id as corrupt before calling in.
        self.next_id
            .fetch_max(id.saturating_add(1), Ordering::Relaxed);
        let register = |_| {
            lock_clean(&self.journals).insert(id, journal);
            Ok(())
        };
        match self.try_insert(id, engine, register)? {
            Ok(()) => Ok(()),
            Err(_) => Err(ServeError::SessionExists(SessionId(id))),
        }
    }

    /// Inserts `engine` into `id`'s shard; the inner `Err` returns the
    /// engine when the id is already occupied. `register` runs under the
    /// same shard lock once the id is claimed — it attaches the session's
    /// journal, so no save or eviction ever finds the session without
    /// one — and its failure releases the id again.
    fn try_insert(
        &self,
        id: u64,
        engine: Engine,
        register: impl FnOnce(SessionId) -> Result<(), ServeError>,
    ) -> Result<Result<(), Engine>, ServeError> {
        self.with_shard(id, |engines| {
            if !self.note_inserted(id) {
                return Ok(Err(engine));
            }
            if let Err(e) = register(SessionId(id)) {
                self.note_closed(id);
                return Err(e);
            }
            engines.insert(id, engine);
            Ok(Ok(()))
        })
    }

    /// One training iteration of the identified session.
    pub fn step(&self, id: SessionId) -> Result<StepOutcome, ServeError> {
        let out = self.timed(Op::Step, || self.with_engine(id.0, Engine::step));
        self.enforce_budget();
        out
    }

    /// Batched stepping: up to `k` queries, one refit (see
    /// `Engine::step_batch`). `k = 0` is rejected with
    /// [`ServeError::EmptyBatch`] without touching the session.
    pub fn step_batch(&self, id: SessionId, k: usize) -> Result<Vec<StepOutcome>, ServeError> {
        if k == 0 {
            return Err(ServeError::EmptyBatch);
        }
        let out = self.timed(Op::StepBatch, || {
            self.with_engine(id.0, |e| e.step_batch(k))
        });
        self.enforce_budget();
        out
    }

    /// Runs `iterations` single steps on the identified session.
    pub fn run(&self, id: SessionId, iterations: usize) -> Result<(), ServeError> {
        let out = self.with_engine(id.0, |e| e.run(iterations));
        self.enforce_budget();
        out
    }

    /// Inference-phase evaluation of the identified session.
    pub fn evaluate(&self, id: SessionId) -> Result<EvalReport, ServeError> {
        let out = self.timed(Op::Evaluate, || {
            self.with_engine(id.0, |e| e.evaluate_downstream())
        });
        self.enforce_budget();
        out
    }

    /// Drops the identified session, freeing its engine (a closed session
    /// is not re-saved). Closing a cold session just forgets it — nothing
    /// is resumed. Its journal handle is released too; the journal *files*
    /// stay on disk, so the session remains recoverable (and is reloaded
    /// by a later [`SessionHub::load_all`]) until the operator removes
    /// them.
    pub fn close(&self, id: SessionId) -> Result<(), ServeError> {
        self.with_shard(id.0, |engines| {
            let existed = engines.remove(&id.0).is_some();
            if !self.note_closed(id.0) {
                debug_assert!(!existed, "engine without a residency slot");
                return Err(ServeError::UnknownSession(id));
            }
            Ok(())
        })?;
        lock_clean(&self.journals).remove(&id.0);
        Ok(())
    }

    /// Number of open sessions (resident plus cold). A dead shard is
    /// surfaced as [`ServeError::HubClosed`] instead of silently
    /// undercounting; [`SessionHub::health`] says *which* shard died.
    /// Takes no shard lock, so it never waits behind a running call.
    pub fn session_count(&self) -> Result<usize, ServeError> {
        if self.shards.iter().any(Mutex::is_poisoned) {
            return Err(ServeError::HubClosed);
        }
        Ok(lock_clean(&self.slots).len())
    }

    /// A point-in-time health report: per-shard liveness and occupancy,
    /// residency totals and tiering counters. Never fails — a dead shard
    /// shows up as `alive: false`, which is exactly what a health endpoint
    /// is for. Occupancy comes from the residency registry and liveness
    /// from each shard lock's poison flag, so it never waits behind a
    /// running call.
    pub fn health(&self) -> HubHealth {
        let mut per_shard = vec![0; self.shards.len()];
        let (resident, open) = {
            let slots = lock_clean(&self.slots);
            for (&id, _) in slots.iter().filter(|(_, slot)| slot.resident) {
                per_shard[self.shard_of(id)] += 1;
            }
            (per_shard.iter().sum::<usize>(), slots.len())
        };
        let shards = self
            .shards
            .iter()
            .zip(per_shard)
            .enumerate()
            .map(|(k, (shard, resident))| {
                let alive = !shard.is_poisoned();
                ShardHealth {
                    shard: k,
                    alive,
                    resident: if alive { resident } else { 0 },
                }
            })
            .collect();
        HubHealth {
            shards,
            resident,
            cold: open - resident,
            max_resident: self.memory_budget(),
            evicted_total: self.metrics.evicted_total.get(),
            resumed_total: self.metrics.resumed_total.get(),
        }
    }

    fn shard_of(&self, id: u64) -> usize {
        (id % self.shards.len() as u64) as usize
    }

    /// Runs `f` over `id`'s shard on the calling thread, holding the
    /// shard's lock. A panic inside `f` is caught here: unwinding through
    /// the guard poisons the lock, so this call and every later one on
    /// the shard return [`ServeError::HubClosed`] — a panic mid-step can
    /// leave an engine half-updated, so the shard is not recovered.
    fn with_shard<T>(
        &self,
        id: u64,
        f: impl FnOnce(&mut Shard) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let shard = &self.shards[self.shard_of(id)];
        catch_unwind(AssertUnwindSafe(|| {
            f(&mut *shard.lock().map_err(|_| ServeError::HubClosed)?)
        }))
        .unwrap_or(Err(ServeError::HubClosed))
    }

    /// Runs `f` over the session's engine under its shard's lock, resuming
    /// it from its journal first when it is cold — the transparent-resume
    /// path. Bumps the session's LRU position and counts the dual-oracle
    /// queries `f` routed.
    fn with_engine<T>(
        &self,
        id: u64,
        f: impl FnOnce(&mut Engine) -> Result<T, ActiveDpError>,
    ) -> Result<T, ServeError> {
        self.with_shard(id, |engines| {
            let engine = self.resident_engine(engines, id)?;
            let before = engine.route_stats();
            let out = f(engine);
            self.note_routes(before, engine.route_stats());
            Ok(out?)
        })
    }

    /// The session's engine, resumed into `engines` first when it is cold.
    fn resident_engine<'a>(
        &self,
        engines: &'a mut Shard,
        id: u64,
    ) -> Result<&'a mut Engine, ServeError> {
        let engine = match engines.entry(id) {
            Entry::Occupied(hot) => hot.into_mut(),
            Entry::Vacant(vacant) => {
                // A resident slot's engine lives in this very map (same
                // id, same shard), so only a cold slot can be missing here.
                if self.residency(id) != Some(false) {
                    return Err(ServeError::UnknownSession(SessionId(id)));
                }
                let start = Instant::now();
                let resumed = self.resume_session(id);
                self.metrics
                    .record(Op::Resume, start.elapsed(), resumed.is_err());
                let engine = vacant.insert(resumed?);
                self.note_resumed(id);
                engine
            }
        };
        self.touch(id);
        Ok(engine)
    }

    /// Bumps the routed-query counters by what one engine call added to
    /// the session's route ledger. An escalated query consults both
    /// oracles and counts on both sides of the ledger, but only under
    /// `routed_escalated_total` here.
    fn note_routes(&self, before: Option<RouteStats>, after: Option<RouteStats>) {
        let (Some(before), Some(after)) = (before, after) else {
            return;
        };
        let escalated = after.escalations - before.escalations;
        let metrics = &self.metrics;
        metrics
            .routed_cheap_total
            .add(after.cheap_queries - before.cheap_queries - escalated);
        metrics
            .routed_expensive_total
            .add(after.expensive_queries - before.expensive_queries - escalated);
        metrics.routed_escalated_total.add(escalated);
    }

    /// Runs `f` over a cold session's journal. Eviction checkpointed it,
    /// so it is always there.
    fn with_cold_journal<T>(
        &self,
        id: u64,
        f: impl FnOnce(&mut adp_wal::Journal) -> Result<T, ServeError>,
    ) -> Result<(T, SharedJournal), ServeError> {
        // Every session of a spilling hub is journalled from its insert on,
        // so a missing journal means the session is gone.
        let missing = || ServeError::UnknownSession(SessionId(id));
        let slot = self.journal_slot(id).ok_or_else(missing)?;
        let out = f(lock_clean(&slot).as_mut().ok_or_else(missing)?)?;
        Ok((out, slot))
    }

    /// Rebuilds a cold session's engine from its journal and re-arms its
    /// journal observer. Eviction checkpointed the journal at the
    /// session's state and a cold session cannot step, so the base is the
    /// tip: the resume fits no model — it loads the checkpoint's fitted
    /// parameters and derives the vote matrices and probability caches
    /// from them (see [`EngineBuilder::resume`]) — so a cold touch costs a
    /// read, a decode, the LFs applied to the pool and two predicts.
    fn resume_session(&self, id: u64) -> Result<Engine, ServeError> {
        #[cfg(test)]
        tests::RESUMES_HERE.with(|n| n.set(n.get() + 1));
        let (mut engine, slot) =
            self.with_cold_journal(id, |journal| self.engine_at_tip(journal))?;
        // Post-resume steps keep appending to the same journal.
        engine.add_observer(JournalObserver::new(slot));
        Ok(engine)
    }

    /// Spills a resident session cold; see [`SessionHub::evict`].
    fn evict_session(&self, engines: &mut Shard, id: u64) -> Result<bool, ServeError> {
        let Some(engine) = engines.get(&id) else {
            return match self.residency(id) {
                // Already cold: nothing to do, not an error.
                Some(_) => Ok(false),
                None => Err(ServeError::UnknownSession(SessionId(id))),
            };
        };
        if self.spill_dir.is_none() {
            return Ok(false);
        }
        self.checkpoint(id, &engine.snapshot()?)?;
        engines.remove(&id);
        self.note_evicted(id);
        Ok(true)
    }

    /// Status without residency side effects: a hot session answers from
    /// its engine, a cold one from its journal's base — no resume, no
    /// touch. A session evicted at iteration 0 has no snapshot; its spec
    /// describes it whole.
    fn probe_status(&self, engines: &Shard, id: u64) -> Result<SessionStatus, ServeError> {
        let durability = self.durability(id);
        if let Some(engine) = engines.get(&id) {
            return Ok(SessionStatus {
                iteration: engine.state().iteration,
                n_lfs: engine.state().lfs.len(),
                n_selected: engine.state().selected.len(),
                durability,
                route: engine.route_stats(),
            });
        }
        if self.residency(id).is_none() {
            return Err(ServeError::UnknownSession(SessionId(id)));
        }
        let (status, _) = self.with_cold_journal(id, |journal| {
            if journal.checkpoint_iteration() == 0 {
                return Ok(SessionStatus {
                    iteration: 0,
                    n_lfs: 0,
                    n_selected: 0,
                    durability,
                    route: journal.spec().session.build_oracle().route_stats(),
                });
            }
            let base = self.journal_base(journal)?;
            Ok(SessionStatus {
                iteration: base.state.iteration,
                n_lfs: base.state.lfs.len(),
                n_selected: base.state.selected.len(),
                durability,
                route: base.routed.as_ref().map(|r| r.stats),
            })
        })?;
        Ok(status)
    }

    fn next_touch(&self) -> u64 {
        self.touch_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers a fresh (resident) slot; `false` when the id is already
    /// taken by a session, hot or cold.
    fn note_inserted(&self, id: u64) -> bool {
        let mut slots = lock_clean(&self.slots);
        if slots.contains_key(&id) {
            return false;
        }
        slots.insert(
            id,
            SessionSlot {
                resident: true,
                last_touch: self.next_touch(),
            },
        );
        self.metrics.resident.inc();
        true
    }

    /// Bumps the session's LRU position.
    fn touch(&self, id: u64) {
        let seq = self.next_touch();
        if let Some(slot) = lock_clean(&self.slots).get_mut(&id) {
            slot.last_touch = seq;
        }
    }

    /// `Some(resident?)` for an open session, `None` for an unknown id.
    pub(crate) fn residency(&self, id: u64) -> Option<bool> {
        lock_clean(&self.slots).get(&id).map(|s| s.resident)
    }

    fn note_evicted(&self, id: u64) {
        if let Some(slot) = lock_clean(&self.slots).get_mut(&id) {
            slot.resident = false;
        }
        self.metrics.resident.dec();
        self.metrics.cold.inc();
        self.metrics.evicted_total.inc();
    }

    fn note_resumed(&self, id: u64) {
        let seq = self.next_touch();
        if let Some(slot) = lock_clean(&self.slots).get_mut(&id) {
            slot.resident = true;
            slot.last_touch = seq;
        }
        self.metrics.cold.dec();
        self.metrics.resident.inc();
        self.metrics.resumed_total.inc();
    }

    /// Removes the session's slot; `false` when there was none.
    fn note_closed(&self, id: u64) -> bool {
        let Some(removed) = lock_clean(&self.slots).remove(&id) else {
            return false;
        };
        if removed.resident {
            self.metrics.resident.dec();
        } else {
            self.metrics.cold.dec();
        }
        true
    }

    fn resident_count(&self) -> usize {
        lock_clean(&self.slots)
            .values()
            .filter(|s| s.resident)
            .count()
    }

    fn ids_where(&self, keep: impl Fn(&SessionSlot) -> bool) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = lock_clean(&self.slots)
            .iter()
            .filter(|(_, slot)| keep(slot))
            .map(|(&id, _)| SessionId(id))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The least-recently-touched resident session outside `skip`, if
    /// any; never one of an in-memory hub, which has nowhere to spill.
    fn lru_victim(&self, skip: &HashSet<u64>) -> Option<u64> {
        self.spill_dir.as_ref()?;
        lock_clean(&self.slots)
            .iter()
            .filter(|(id, s)| s.resident && !skip.contains(id))
            .min_by_key(|(_, s)| s.last_touch)
            .map(|(&id, _)| id)
    }

    /// The identified session's shared journal slot, if it has one.
    pub(crate) fn journal_slot(&self, id: u64) -> Option<SharedJournal> {
        lock_clean(&self.journals).get(&id).cloned()
    }

    /// The shared split for `spec`, generated once per hub. The cache lock
    /// is *not* held across generation (which can take seconds at paper
    /// scale), so concurrent `open_spec` calls for different specs generate
    /// in parallel; a racing duplicate generation of the same spec is
    /// resolved by keeping the first insert (both copies are
    /// bitwise-identical anyway — generation is deterministic in the spec).
    pub(crate) fn dataset_for(&self, spec: DatasetSpec) -> Result<SharedDataset, ServeError> {
        if let Some(data) = lock_clean(&self.datasets).get(&spec.cache_key()) {
            return Ok(data.clone());
        }
        let data = spec
            .generate()
            .map_err(|e| {
                ServeError::Engine(ActiveDpError::BadConfig {
                    reason: format!("dataset spec failed to generate: {e}"),
                })
            })?
            .into_shared();
        let mut cache = lock_clean(&self.datasets);
        Ok(cache.entry(spec.cache_key()).or_insert(data).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_data::{generate, DatasetId, Scale, SharedDataset};

    fn tiny() -> SharedDataset {
        generate(DatasetId::Youtube, Scale::Tiny, 7)
            .unwrap()
            .into_shared()
    }

    fn engine(data: &SharedDataset, seed: u64) -> Engine {
        Engine::builder(data.clone()).seed(seed).build().unwrap()
    }

    fn unique_tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "adp-hub-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The trajectory fingerprint compared between hub and solo runs.
    fn fingerprint(outcomes: &[StepOutcome], report: &EvalReport) -> (Vec<Option<usize>>, u64) {
        (
            outcomes.iter().map(|o| o.query).collect(),
            report.test_accuracy.to_bits(),
        )
    }

    #[test]
    fn create_step_evaluate_close_roundtrip() {
        let hub = SessionHub::new(2);
        let id = hub.create(engine(&tiny(), 1)).unwrap();
        let out = hub.step(id).unwrap();
        assert_eq!(out.iteration, 1);
        hub.run(id, 4).unwrap();
        let report = hub.evaluate(id).unwrap();
        assert!((0.0..=1.0).contains(&report.test_accuracy));
        assert_eq!(hub.session_count().unwrap(), 1);
        hub.close(id).unwrap();
        assert_eq!(hub.session_count().unwrap(), 0);
        assert!(matches!(hub.step(id), Err(ServeError::UnknownSession(_))));
    }

    #[test]
    fn open_builds_and_registers() {
        let hub = SessionHub::new(1);
        let id = hub.open(Engine::builder(tiny()).seed(3)).unwrap();
        assert_eq!(hub.step(id).unwrap().iteration, 1);
        // Build errors surface synchronously, no id leaked.
        let err = hub.open(Engine::builder(tiny()).alpha(7.0));
        assert!(matches!(err, Err(ServeError::Engine(_))));
        assert_eq!(hub.session_count().unwrap(), 1);
    }

    #[test]
    fn step_batch_routes_through_the_hub() {
        let hub = SessionHub::new(2);
        let id = hub.create(engine(&tiny(), 2)).unwrap();
        let outcomes = hub.step_batch(id, 5).unwrap();
        assert_eq!(outcomes.len(), 5);
        assert_eq!(outcomes.last().unwrap().iteration, 5);
    }

    #[test]
    fn ids_spread_across_shards() {
        let hub = SessionHub::new(3);
        let data = tiny();
        for seed in 0..6 {
            hub.create(engine(&data, seed)).unwrap();
        }
        assert_eq!(hub.session_count().unwrap(), 6);
        assert_eq!(hub.n_shards(), 3);
    }

    #[test]
    fn concurrent_sessions_match_solo_trajectories() {
        // The acceptance bar: ≥ 8 sessions stepped concurrently through
        // the hub reproduce their solo trajectories bit for bit.
        const SESSIONS: u64 = 8;
        const ITERS: usize = 10;
        let data = tiny();

        let solo: Vec<_> = (0..SESSIONS)
            .map(|seed| {
                let mut e = engine(&data, seed);
                let outcomes: Vec<StepOutcome> = (0..ITERS).map(|_| e.step().unwrap()).collect();
                let report = e.evaluate_downstream().unwrap();
                fingerprint(&outcomes, &report)
            })
            .collect();

        let hub = SessionHub::new(4);
        let ids: Vec<SessionId> = (0..SESSIONS)
            .map(|seed| hub.create(engine(&data, seed)).unwrap())
            .collect();
        let hubbed: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = ids
                .iter()
                .map(|&id| {
                    let hub = &hub;
                    scope.spawn(move || {
                        let outcomes: Vec<StepOutcome> =
                            (0..ITERS).map(|_| hub.step(id).unwrap()).collect();
                        let report = hub.evaluate(id).unwrap();
                        fingerprint(&outcomes, &report)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });

        assert_eq!(solo, hubbed);
    }

    #[test]
    fn every_call_rejects_an_unknown_session() {
        // An id minted by one hub is unknown to another (same counter
        // start, but nothing was ever inserted there): every session call
        // must answer `UnknownSession`, not hang or panic.
        let minting_hub = SessionHub::new(2);
        let foreign = minting_hub.create(engine(&tiny(), 1)).unwrap();
        let hub = SessionHub::new(2);
        assert!(matches!(
            hub.step(foreign),
            Err(ServeError::UnknownSession(id)) if id == foreign
        ));
        assert!(matches!(
            hub.step_batch(foreign, 3),
            Err(ServeError::UnknownSession(_))
        ));
        assert!(matches!(
            hub.run(foreign, 2),
            Err(ServeError::UnknownSession(_))
        ));
        assert!(matches!(
            hub.evaluate(foreign),
            Err(ServeError::UnknownSession(_))
        ));
        assert!(matches!(
            hub.evict(foreign),
            Err(ServeError::UnknownSession(_))
        ));
        assert!(matches!(
            hub.close(foreign),
            Err(ServeError::UnknownSession(_))
        ));
        // The failed calls must not have created state as a side effect.
        assert_eq!(hub.session_count().unwrap(), 0);
    }

    #[test]
    fn double_close_reports_unknown_session() {
        let hub = SessionHub::new(2);
        let id = hub.create(engine(&tiny(), 1)).unwrap();
        hub.close(id).unwrap();
        assert!(matches!(
            hub.close(id),
            Err(ServeError::UnknownSession(other)) if other == id
        ));
        // Ids are never reused: a fresh session gets a fresh id and the
        // stale handle stays dead.
        let fresh = hub.create(engine(&tiny(), 2)).unwrap();
        assert_ne!(fresh, id);
        assert!(matches!(hub.step(id), Err(ServeError::UnknownSession(_))));
        assert_eq!(hub.session_count().unwrap(), 1);
    }

    #[test]
    fn step_batch_zero_is_rejected_before_routing() {
        let hub = SessionHub::new(1);
        let id = hub.create(engine(&tiny(), 1)).unwrap();
        assert!(matches!(hub.step_batch(id, 0), Err(ServeError::EmptyBatch)));
        // Even against an unknown id the argument error wins: nothing is
        // routed to a shard.
        let other_hub = SessionHub::new(1);
        let foreign = other_hub.create(engine(&tiny(), 2)).unwrap();
        assert!(matches!(
            hub.step_batch(foreign, 0),
            Err(ServeError::EmptyBatch)
        ));
        // The session is untouched and still serviceable.
        assert_eq!(hub.step(id).unwrap().iteration, 1);
    }

    #[test]
    fn create_from_spec_builds_and_shares_the_dataset() {
        use activedp::{BudgetSchedule, ScenarioSpec};
        let hub = SessionHub::new(2);
        let dataset = adp_data::DatasetSpec {
            id: DatasetId::Youtube,
            scale: Scale::Tiny,
            seed: 7,
        };
        let mut spec = ScenarioSpec::new(dataset);
        spec.session.seed = 3;
        spec.schedule = BudgetSchedule::FixedBatch { k: 4 };
        spec.budget = 8;
        let a = hub.create_from_spec(spec.clone()).unwrap();
        let b = hub.create_from_spec(spec.clone()).unwrap();
        assert_ne!(a, b);
        assert_eq!(hub.step(a).unwrap().iteration, 1);
        // The served session *is* the spec's engine: its snapshot embeds
        // the very spec it was created from (iteration aside).
        let snap = hub.snapshot(a).unwrap();
        assert_eq!(snap.spec.dataset, dataset);
        assert_eq!(snap.spec.schedule, spec.schedule);
        assert_eq!(snap.spec.budget, 8);
        // A named scale and the equivalent custom factor are the same
        // provenance: the second spec reuses the first's cached split and
        // must not be rejected by the provenance check.
        let mut custom = spec.clone();
        custom.dataset.scale = Scale::Custom(Scale::Tiny.factor());
        let c = hub.create_from_spec(custom).unwrap();
        assert_eq!(hub.step(c).unwrap().iteration, 1);
    }

    #[test]
    fn invalid_specs_are_rejected_before_any_id_is_allocated() {
        use activedp::{BudgetSchedule, ScenarioSpec};
        let hub = SessionHub::new(1);
        let dataset = adp_data::DatasetSpec {
            id: DatasetId::Youtube,
            scale: Scale::Tiny,
            seed: 7,
        };
        // Degenerate schedule: the service boundary mirror of EmptyBatch.
        let mut degenerate = ScenarioSpec::new(dataset);
        degenerate.schedule = BudgetSchedule::FixedBatch { k: 0 };
        assert!(matches!(
            hub.create_from_spec(degenerate),
            Err(ServeError::Engine(ActiveDpError::BadConfig { .. }))
        ));
        // Out-of-range session knob.
        let mut bad_alpha = ScenarioSpec::new(dataset);
        bad_alpha.session.alpha = 7.0;
        assert!(matches!(
            hub.create_from_spec(bad_alpha),
            Err(ServeError::Engine(ActiveDpError::BadConfig { .. }))
        ));
        // Ungeneratable dataset spec (scale factor outside (0, 64]).
        let unknown_dataset = ScenarioSpec::new(adp_data::DatasetSpec {
            id: DatasetId::Youtube,
            scale: Scale::Custom(128.0),
            seed: 1,
        });
        assert!(matches!(
            hub.create_from_spec(unknown_dataset),
            Err(ServeError::Engine(ActiveDpError::BadConfig { .. }))
        ));
        assert_eq!(hub.session_count().unwrap(), 0);
    }

    #[test]
    fn error_messages_render() {
        let hub = SessionHub::new(1);
        let id = hub.create(engine(&tiny(), 1)).unwrap();
        hub.close(id).unwrap();
        let unknown = hub.step(id).unwrap_err();
        assert!(unknown.to_string().contains("unknown session-"));
        assert!(ServeError::EmptyBatch.to_string().contains("k >= 1"));
        assert!(ServeError::Saturated {
            resident: 4,
            cap: 4
        }
        .to_string()
        .contains("saturated"));
    }

    #[test]
    fn dropping_a_hub_with_live_sessions_returns() {
        let hub = SessionHub::new(2);
        let id = hub.create(engine(&tiny(), 1)).unwrap();
        hub.step(id).unwrap();
        drop(hub); // must not hang or panic
    }

    thread_local! {
        /// Cold-session resumes run on this thread (see `resume_session`).
        pub(super) static RESUMES_HERE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn every_hub_call_runs_on_the_calling_thread() {
        use std::sync::Arc;
        use std::thread::ThreadId;
        let dir = unique_tempdir("caller-thread");
        let hub = SessionHub::with_spill_dir(2, &dir);
        let seen: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
        let mut e = Engine::builder(spec_of(8).generate().unwrap().into_shared())
            .seed(8)
            .build()
            .unwrap();
        let record = seen.clone();
        e.add_observer(move |_o: &StepOutcome| {
            record.lock().unwrap().push(std::thread::current().id());
        });
        let id = hub.create(e).unwrap();
        hub.step(id).unwrap();
        hub.step_batch(id, 3).unwrap();
        hub.run(id, 2).unwrap();
        let caller = std::thread::current().id();
        let seen = seen.lock().unwrap().clone();
        assert_eq!(seen.len(), 6, "one observation per iteration");
        assert!(seen.iter().all(|&t| t == caller), "{seen:?} vs {caller:?}");
        // A cold session resumes inside the touch, on the same thread.
        let cold = hub
            .open_spec(spec_of(9), SessionConfig::paper_defaults(true, 9))
            .unwrap();
        hub.run(cold, 2).unwrap();
        assert!(hub.evict(cold).unwrap());
        let before = RESUMES_HERE.with(|n| n.get());
        assert_eq!(hub.step(cold).unwrap().iteration, 3);
        assert_eq!(RESUMES_HERE.with(|n| n.get()), before + 1);
        assert_eq!(hub.metrics().resumed_total.get(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_counts_routed_queries_like_steps() {
        use activedp::{OracleKind, RouteChoice};
        let mut spec = ScenarioSpec::new(spec_of(10));
        spec.session.oracle = OracleKind::noisy();
        let counters = |hub: &SessionHub| {
            let m = hub.metrics();
            [
                m.routed_cheap_total.get(),
                m.routed_expensive_total.get(),
                m.routed_escalated_total.get(),
            ]
        };
        let ran = SessionHub::new(1);
        let id = ran.create_from_spec(spec.clone()).unwrap();
        ran.run(id, 12).unwrap();
        let stepped = SessionHub::new(1);
        let id = stepped.create_from_spec(spec).unwrap();
        let mut tally = [0u64; 3];
        for _ in 0..12 {
            match stepped.step(id).unwrap().route {
                Some(RouteChoice::Cheap) => tally[0] += 1,
                Some(RouteChoice::Expensive) => tally[1] += 1,
                Some(RouteChoice::Escalated) => tally[2] += 1,
                None => {}
            }
        }
        assert_eq!(tally.iter().sum::<u64>(), 12);
        assert_eq!(counters(&stepped), tally);
        assert_eq!(counters(&ran), tally);
    }

    #[test]
    fn budget_evicts_lru_and_sessions_resume_transparently() {
        let dir = unique_tempdir("lru");
        let hub = SessionHub::with_spill_dir(1, &dir).with_memory_budget(2);
        let a = hub
            .open_spec(spec_of(1), SessionConfig::paper_defaults(true, 1))
            .unwrap();
        let b = hub
            .open_spec(spec_of(2), SessionConfig::paper_defaults(true, 2))
            .unwrap();
        hub.step(a).unwrap(); // a is now more recently touched than b
        let c = hub
            .open_spec(spec_of(3), SessionConfig::paper_defaults(true, 3))
            .unwrap();
        // Creating c pushed residency to 3; the LRU victim is b.
        assert_eq!(hub.resident_ids(), vec![a, c]);
        assert_eq!(hub.cold_ids(), vec![b]);
        assert_eq!(hub.session_count().unwrap(), 3);
        // Status probes the cold session from disk without resuming it.
        assert_eq!(hub.status(b).unwrap().iteration, 0);
        assert_eq!(hub.cold_ids(), vec![b]);
        // Touching b resumes it; someone else (now the LRU: a) goes cold.
        assert_eq!(hub.step(b).unwrap().iteration, 1);
        assert_eq!(hub.resident_ids(), vec![b, c]);
        assert_eq!(hub.cold_ids(), vec![a]);
        // Every session still serves, cold or hot.
        hub.run(a, 1).unwrap();
        hub.run(b, 1).unwrap();
        hub.run(c, 1).unwrap();
        assert!(hub.metrics().evicted_total.get() >= 2);
        assert!(hub.metrics().resumed_total.get() >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn saturation_is_a_typed_backpressure_error() {
        // Budget of 1 and no spill directory: nothing can be evicted, so
        // the second create must be rejected, typed, with the first
        // session untouched.
        let hub = SessionHub::with_shards_and_spill(1, None).with_memory_budget(1);
        let id = hub.create(engine(&tiny(), 1)).unwrap();
        let err = hub.create(engine(&tiny(), 2)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Saturated {
                resident: 1,
                cap: 1
            }
        ));
        assert_eq!(hub.metrics().saturated_total.get(), 1);
        assert_eq!(hub.step(id).unwrap().iteration, 1);
        // Closing the resident session makes room again.
        hub.close(id).unwrap();
        assert!(hub.create(engine(&tiny(), 3)).is_ok());
    }

    #[test]
    fn explicit_evict_roundtrips_without_a_budget() {
        let dir = unique_tempdir("evict");
        let hub = SessionHub::with_spill_dir(2, &dir);
        let id = hub
            .open_spec(spec_of(4), SessionConfig::paper_defaults(true, 4))
            .unwrap();
        hub.run(id, 3).unwrap();
        assert!(matches!(hub.evict(id), Ok(true)));
        assert_eq!(hub.cold_ids(), vec![id]);
        // Double-evict is a no-op, not an error.
        assert!(matches!(hub.evict(id), Ok(false)));
        // The next touch resumes exactly where the session left off.
        assert_eq!(hub.step(id).unwrap().iteration, 4);
        assert_eq!(hub.cold_ids(), vec![]);
        // Closing a cold session forgets it without resuming.
        assert!(matches!(hub.evict(id), Ok(true)));
        hub.close(id).unwrap();
        assert_eq!(hub.session_count().unwrap(), 0);
        assert!(matches!(hub.step(id), Err(ServeError::UnknownSession(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_registries_recover_instead_of_cascading() {
        // Regression: the shared registries used `.expect("… lock")`, so
        // one panicking thread holding a guard poisoned the mutex and
        // turned every later hub call into a panic. Poison now recovers.
        let dir = unique_tempdir("poison");
        let hub = SessionHub::with_spill_dir(1, &dir);
        let id = hub
            .open_spec(spec_of(5), SessionConfig::paper_defaults(true, 5))
            .unwrap();
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _datasets = hub.datasets.lock().unwrap();
                    let _journals = hub.journals.lock().unwrap();
                    let _slots = hub.slots.lock().unwrap();
                    panic!("poison all hub registries");
                })
                .join()
        });
        assert!(hub.datasets.is_poisoned());
        // Every path that takes those locks still serves.
        assert_eq!(hub.step(id).unwrap().iteration, 1);
        let second = hub
            .open_spec(spec_of(5), SessionConfig::paper_defaults(true, 6))
            .unwrap();
        assert!(hub.status(second).unwrap().durability.is_some());
        assert_eq!(hub.session_count().unwrap(), 2);
        hub.close(id).unwrap();
        hub.close(second).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_shard_surfaces_hub_closed_not_a_silent_undercount() {
        let hub = SessionHub::new(2);
        // One session per shard; arm shard `bomb.0 % 2` with an observer
        // that detonates on its first step.
        let data = tiny();
        let healthy = hub.create(engine(&data, 1)).unwrap();
        let mut rigged = engine(&data, 2);
        rigged.add_observer(|_o: &StepOutcome| panic!("rigged session"));
        let bomb = hub.create(rigged).unwrap();
        assert_ne!(
            healthy.raw() % 2,
            bomb.raw() % 2,
            "sessions must land on different shards"
        );
        assert_eq!(hub.session_count().unwrap(), 2);
        // Stepping the rigged session panics under its shard's lock,
        // poisoning the shard mid-command.
        assert!(matches!(hub.step(bomb), Err(ServeError::HubClosed)));
        // Regression: session_count used `unwrap_or(0)`, silently
        // reporting 1 here. A dead shard is now a typed error…
        assert!(matches!(hub.session_count(), Err(ServeError::HubClosed)));
        // …and health says which shard died while the other keeps serving.
        let health = hub.health();
        assert!(!health.all_alive());
        let dead = health.shards.iter().find(|s| !s.alive).unwrap();
        assert_eq!(dead.shard, (bomb.raw() % 2) as usize);
        assert!(health.shards.iter().any(|s| s.alive));
        assert_eq!(hub.step(healthy).unwrap().iteration, 1);
        drop(hub); // dropping a hub with a poisoned shard must not re-panic
    }

    #[test]
    fn health_reports_shards_and_tiering_counters() {
        let dir = unique_tempdir("health");
        let hub = SessionHub::with_spill_dir(2, &dir).with_memory_budget(1);
        let a = hub
            .open_spec(spec_of(6), SessionConfig::paper_defaults(true, 6))
            .unwrap();
        let b = hub
            .open_spec(spec_of(7), SessionConfig::paper_defaults(true, 7))
            .unwrap();
        let _ = (a, b);
        let health = hub.health();
        assert!(health.all_alive());
        assert_eq!(health.shards.len(), 2);
        assert_eq!(health.max_resident, Some(1));
        assert_eq!(health.resident, 1);
        assert_eq!(health.cold, 1);
        assert_eq!(health.evicted_total, 1);
        assert_eq!(
            health.shards.iter().map(|s| s.resident).sum::<usize>(),
            health.resident
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn spec_of(seed: u64) -> adp_data::DatasetSpec {
        adp_data::DatasetSpec {
            id: DatasetId::Youtube,
            scale: Scale::Tiny,
            seed,
        }
    }
}
