//! A tiny blocking client for the `adp-served` JSON-lines protocol.
//!
//! One TCP connection, one in-flight request at a time: each call writes a
//! request line and blocks on the response line. This is deliberately the
//! simplest possible consumer of the protocol — the integration tests
//! drive full trajectories and the kill/reload/resume cycle through it,
//! and it doubles as the reference implementation for clients in other
//! languages.

use crate::json::Json;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or dropped.
    Io(std::io::Error),
    /// The server's reply was not valid protocol JSON.
    Protocol(String),
    /// The server answered `"ok": false` with this error text.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection: {e}"),
            ClientError::Protocol(e) => write!(f, "bad reply: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One step's outcome as reported over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReply {
    /// 1-based iteration number.
    pub iteration: u64,
    /// The query instance, or `None` when the pool was exhausted.
    pub query: Option<u64>,
    /// Debug rendering of the returned LF's key, if any.
    pub lf: Option<String>,
    /// Total LFs collected so far.
    pub n_lfs: u64,
    /// LFs currently selected.
    pub n_selected: u64,
}

/// A downstream evaluation as reported over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReply {
    /// Downstream test-set accuracy.
    pub test_accuracy: f64,
    /// Aggregated-label accuracy over covered instances, when defined.
    pub label_accuracy: Option<f64>,
    /// Fraction of training instances that received a label.
    pub label_coverage: f64,
    /// Tuned confidence threshold (None when ConFusion is ablated).
    pub threshold: Option<f64>,
    /// LFs selected at evaluation time.
    pub n_selected: u64,
    /// Whether the downstream model had training data.
    pub downstream_trained: bool,
}

/// A journalled session's durability, as reported by `open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityReply {
    /// Iteration of the journal's checkpoint snapshot.
    pub checkpoint_iteration: u64,
    /// Last iteration durable on disk as a commit point — where a crash
    /// right now would recover to.
    pub durable_iteration: u64,
}

/// Where a session stands, as reported by `open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenReply {
    /// The session id (echoed).
    pub session: u64,
    /// Completed loop iterations.
    pub iteration: u64,
    /// LFs collected so far.
    pub n_lfs: u64,
    /// LFs currently selected.
    pub n_selected: u64,
    /// Durability, when the session is journalled server-side.
    pub durability: Option<DurabilityReply>,
}

/// One shard's liveness as reported by `health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealthReply {
    /// Shard index.
    pub shard: u64,
    /// Whether the shard still serves: `false` once an engine call on it
    /// panicked.
    pub alive: bool,
    /// Hot sessions resident on this shard.
    pub resident: u64,
}

/// The hub's health and tiering counters as reported by `health`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReply {
    /// Whether every shard is alive.
    pub healthy: bool,
    /// Per-shard liveness.
    pub shards: Vec<ShardHealthReply>,
    /// Hot (in-memory) sessions across all shards.
    pub resident: u64,
    /// Cold (evicted) sessions.
    pub cold: u64,
    /// The memory budget, `None` when unbudgeted.
    pub max_resident: Option<u64>,
    /// Sessions evicted to their journals, ever.
    pub evicted_total: u64,
    /// Cold sessions resumed on touch, ever.
    pub resumed_total: u64,
}

/// One protocol round trip: writes `request` as one line with one `write`
/// ([`Json::write_line`]), reads the reply line and maps `"ok":false` to
/// [`ClientError::Server`].
fn exchange(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    request: &Json,
) -> Result<Json, ClientError> {
    request.write_line(writer)?;
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )));
    }
    let reply = Json::parse(line.trim_end()).map_err(|e| ClientError::Protocol(e.to_string()))?;
    match reply.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(reply),
        Some(false) => Err(ClientError::Server(
            reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified")
                .to_string(),
        )),
        None => Err(ClientError::Protocol(format!("reply without ok: {reply}"))),
    }
}

/// A blocking `adp-served` connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // One request line in one `write`, one reply line: without
        // TCP_NODELAY every call risks a Nagle/delayed-ACK stall.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    fn call(&mut self, request: Json) -> Result<Json, ClientError> {
        exchange(&mut self.reader, &mut self.writer, &request)
    }

    fn expect_u64(reply: &Json, key: &str) -> Result<u64, ClientError> {
        reply
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol(format!("missing integer \"{key}\": {reply}")))
    }

    fn expect_f64(reply: &Json, key: &str) -> Result<f64, ClientError> {
        reply
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| ClientError::Protocol(format!("missing number \"{key}\": {reply}")))
    }

    fn step_reply(value: &Json) -> Result<StepReply, ClientError> {
        Ok(StepReply {
            iteration: Self::expect_u64(value, "iteration")?,
            query: value.get("query").and_then(Json::as_u64),
            lf: value.get("lf").and_then(Json::as_str).map(str::to_string),
            n_lfs: Self::expect_u64(value, "n_lfs")?,
            n_selected: Self::expect_u64(value, "n_selected")?,
        })
    }

    /// Creates the session a [`ScenarioSpec`] describes and returns its id
    /// (the `create_spec` request; the spec is shipped as its JSON form,
    /// see [`crate::spec_json`]).
    ///
    /// [`ScenarioSpec`]: activedp::ScenarioSpec
    pub fn create_spec(&mut self, spec: &activedp::ScenarioSpec) -> Result<u64, ClientError> {
        let reply = self.call(Json::obj([
            ("cmd", Json::Str("create_spec".into())),
            ("spec", crate::spec_json::scenario_to_json(spec)),
        ]))?;
        Self::expect_u64(&reply, "session")
    }

    /// Re-attaches to a live (possibly reloaded) session by id.
    pub fn open(&mut self, session: u64) -> Result<OpenReply, ClientError> {
        let reply = self.call(Json::obj([
            ("cmd", Json::Str("open".into())),
            ("session", Json::int(session)),
        ]))?;
        let durability = if reply.get("durable_iteration").is_some() {
            Some(DurabilityReply {
                checkpoint_iteration: Self::expect_u64(&reply, "checkpoint_iteration")?,
                durable_iteration: Self::expect_u64(&reply, "durable_iteration")?,
            })
        } else {
            None
        };
        Ok(OpenReply {
            session: Self::expect_u64(&reply, "session")?,
            iteration: Self::expect_u64(&reply, "iteration")?,
            n_lfs: Self::expect_u64(&reply, "n_lfs")?,
            n_selected: Self::expect_u64(&reply, "n_selected")?,
            durability,
        })
    }

    /// One training iteration.
    pub fn step(&mut self, session: u64) -> Result<StepReply, ClientError> {
        let reply = self.call(Json::obj([
            ("cmd", Json::Str("step".into())),
            ("session", Json::int(session)),
        ]))?;
        Self::step_reply(&reply)
    }

    /// Batched stepping: up to `k` queries, one refit.
    pub fn step_batch(&mut self, session: u64, k: u64) -> Result<Vec<StepReply>, ClientError> {
        let reply = self.call(Json::obj([
            ("cmd", Json::Str("step_batch".into())),
            ("session", Json::int(session)),
            ("k", Json::int(k)),
        ]))?;
        reply
            .get("outcomes")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol(format!("missing outcomes: {reply}")))?
            .iter()
            .map(Self::step_reply)
            .collect()
    }

    /// Runs `iterations` single steps server-side.
    pub fn run(&mut self, session: u64, iterations: u64) -> Result<(), ClientError> {
        self.call(Json::obj([
            ("cmd", Json::Str("run".into())),
            ("session", Json::int(session)),
            ("iterations", Json::int(iterations)),
        ]))?;
        Ok(())
    }

    /// Inference-phase evaluation.
    pub fn evaluate(&mut self, session: u64) -> Result<EvalReply, ClientError> {
        let reply = self.call(Json::obj([
            ("cmd", Json::Str("evaluate".into())),
            ("session", Json::int(session)),
        ]))?;
        Ok(EvalReply {
            test_accuracy: Self::expect_f64(&reply, "test_accuracy")?,
            label_accuracy: reply.get("label_accuracy").and_then(Json::as_f64),
            label_coverage: Self::expect_f64(&reply, "label_coverage")?,
            threshold: reply.get("threshold").and_then(Json::as_f64),
            n_selected: Self::expect_u64(&reply, "n_selected")?,
            downstream_trained: reply
                .get("downstream_trained")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }

    /// Spills the session to the server's spill directory; returns the
    /// file path server-side.
    pub fn snapshot(&mut self, session: u64) -> Result<String, ClientError> {
        let reply = self.call(Json::obj([
            ("cmd", Json::Str("snapshot".into())),
            ("session", Json::int(session)),
        ]))?;
        reply
            .get("path")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol(format!("missing path: {reply}")))
    }

    /// Spills every persistable session; returns the ids written.
    pub fn save_all(&mut self) -> Result<Vec<u64>, ClientError> {
        let reply = self.call(Json::obj([("cmd", Json::Str("save_all".into()))]))?;
        reply
            .get("saved")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol(format!("missing saved: {reply}")))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| ClientError::Protocol(format!("bad id in saved: {v}")))
            })
            .collect()
    }

    /// Rebuilds the state `session` had at journalled commit point
    /// `iteration` as a **new** server-side session; returns the new id.
    /// The source session is untouched.
    pub fn recover(&mut self, session: u64, iteration: u64) -> Result<u64, ClientError> {
        let reply = self.call(Json::obj([
            ("cmd", Json::Str("recover".into())),
            ("session", Json::int(session)),
            ("iteration", Json::int(iteration)),
        ]))?;
        Self::expect_u64(&reply, "session")
    }

    /// The server's metrics in the Prometheus text exposition format.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let reply = self.call(Json::obj([("cmd", Json::Str("metrics".into()))]))?;
        reply
            .get("text")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol(format!("missing text: {reply}")))
    }

    /// The hub's health: per-shard liveness plus tiering counters.
    pub fn health(&mut self) -> Result<HealthReply, ClientError> {
        let reply = self.call(Json::obj([("cmd", Json::Str("health".into()))]))?;
        let shards = reply
            .get("shards")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol(format!("missing shards: {reply}")))?
            .iter()
            .map(|s| {
                Ok(ShardHealthReply {
                    shard: Self::expect_u64(s, "shard")?,
                    alive: s
                        .get("alive")
                        .and_then(Json::as_bool)
                        .ok_or_else(|| ClientError::Protocol(format!("missing alive: {s}")))?,
                    resident: Self::expect_u64(s, "resident")?,
                })
            })
            .collect::<Result<Vec<_>, ClientError>>()?;
        Ok(HealthReply {
            healthy: reply
                .get("healthy")
                .and_then(Json::as_bool)
                .ok_or_else(|| ClientError::Protocol(format!("missing healthy: {reply}")))?,
            shards,
            resident: Self::expect_u64(&reply, "resident")?,
            cold: Self::expect_u64(&reply, "cold")?,
            max_resident: reply.get("max_resident").and_then(Json::as_u64),
            evicted_total: Self::expect_u64(&reply, "evicted_total")?,
            resumed_total: Self::expect_u64(&reply, "resumed_total")?,
        })
    }

    /// Closes the session server-side.
    pub fn close_session(&mut self, session: u64) -> Result<(), ClientError> {
        self.call(Json::obj([
            ("cmd", Json::Str("close".into())),
            ("session", Json::int(session)),
        ]))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::WriteLog;

    #[test]
    fn every_request_is_one_write() {
        let request = Json::obj([
            ("cmd", Json::Str("step_batch".into())),
            ("session", Json::int(3)),
            ("k", Json::int(5)),
        ]);
        let mut log = WriteLog::default();
        let reply = exchange(&mut &b"{\"ok\":true,\"x\":1}\n"[..], &mut log, &request).unwrap();
        assert_eq!(reply.get("x").and_then(Json::as_u64), Some(1));
        assert_eq!(log.writes, vec![format!("{request}\n").into_bytes()]);
        // Server-side failures and a closed connection still type apart.
        let mut log = WriteLog::default();
        let err = exchange(
            &mut &b"{\"ok\":false,\"error\":\"no\"}\n"[..],
            &mut log,
            &request,
        );
        assert!(matches!(err, Err(ClientError::Server(e)) if e == "no"));
        assert_eq!(log.writes.len(), 1);
        let err = exchange(&mut &b""[..], &mut WriteLog::default(), &request);
        assert!(matches!(err, Err(ClientError::Io(_))));
    }
}
