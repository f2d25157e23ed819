//! Concurrent session serving over the owned ActiveDP engine.
//!
//! The [`SessionHub`] is the serving layer the ROADMAP's north star asks
//! for: many labelling sessions live behind one handle, created, stepped,
//! evaluated and dropped by [`SessionId`]. Sessions are sharded across
//! worker threads — each worker owns the engines assigned to it, so there
//! is no lock around an engine and no way for two callers to interleave
//! within one session's trajectory. Determinism carries over from the
//! engine: a session stepped through the hub produces the same trajectory,
//! bit for bit, as the same engine stepped solo, no matter how many other
//! sessions run next to it (pinned by this crate's tests).
//!
//! Everything is std: `mpsc` channels in, `mpsc` reply channels out. The
//! hub is `Send + Sync`, so one hub can serve calls from any number of
//! client threads.
//!
//! Around the hub this crate adds the **durable serving** stack:
//!
//! * [`persist`] — saving and loading sessions (`SessionHub::save_all` /
//!   `load_all`): a session's durable state is its journal directory,
//!   checkpoint snapshot included; corrupt-file rejection, ids preserved
//!   across restarts;
//! * [`journal`] — per-session write-ahead logging over [`adp_wal`]:
//!   every step is journalled by default when a spill directory is
//!   configured, `load_all` replays journal tails past their checkpoints,
//!   and [`SessionHub::recover`](hub::SessionHub::recover) rebuilds any
//!   journalled commit point as a new session;
//! * [`server`] — the `adp-served` JSON-lines TCP front end
//!   (thread-per-connection over a shared hub) and its protocol;
//! * [`client`] — a tiny blocking client for that protocol;
//! * [`json`] — the dependency-free JSON value the protocol rides on;
//! * [`metrics`] — the hub's hand-rolled observability surface: atomic
//!   counters and fixed-bucket latency histograms per operation, rendered
//!   in the Prometheus text format for the server's `metrics` command.
//!
//! The hub also tiers sessions hot/cold under a memory budget
//! ([`SessionHub::with_memory_budget`](hub::SessionHub::with_memory_budget)
//! / `ADP_MAX_RESIDENT`): least-recently-touched sessions are evicted to
//! their journals' checkpoints and resume transparently on the next touch, with
//! bitwise-identical trajectories. Without a budget (the default) nothing
//! is ever evicted.
//!
//! A true async runtime front end stays on the ROADMAP until crates.io
//! access lands; the protocol (newline-framed request/response) is
//! deliberately trivial to re-host on one.

pub mod client;
pub mod hex;
pub mod hub;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod persist;
pub mod server;
pub mod spec_json;

pub use client::{
    CellProgressReply, CellRowReply, Client, ClientError, DurabilityReply, EvalReply, HealthReply,
    OpenReply, ShardHealthReply, StepReply,
};
pub use hub::{
    CellProgress, CellResult, CellStart, HubHealth, ServeError, SessionHub, SessionId,
    SessionStatus, ShardHealth,
};
pub use journal::DurabilityStatus;
pub use json::Json;
pub use metrics::{HubMetrics, Op};
pub use server::Server;
pub use spec_json::{scenario_from_json, scenario_to_json};
