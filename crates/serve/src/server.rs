//! The `adp-served` network front end: JSON-lines over TCP, one blocking
//! thread per connection, every request routed to the shared [`SessionHub`].
//!
//! One request per line, one response per line. Every response carries
//! `"ok"`; failures put the error's display text in `"error"` and never
//! tear the connection down. The protocol:
//!
//! | request                                                        | response                                   |
//! |----------------------------------------------------------------|--------------------------------------------|
//! | `{"cmd":"create_spec","spec":{"dataset":{…},"session":{…},`     | `{"ok":true,"session":0}`                  |
//! | ` "schedule":{…},"budget":64}}` (see [`crate::spec_json`])      |                                            |
//! | `{"cmd":"open","session":0}`                                    | `{"ok":true,"session":0,"iteration":8,...}`|
//! | `{"cmd":"step","session":0}`                                    | `{"ok":true,"iteration":1,"query":88,...}` |
//! | `{"cmd":"step_batch","session":0,"k":5}`                        | `{"ok":true,"outcomes":[…]}`               |
//! | `{"cmd":"run","session":0,"iterations":10}`                     | `{"ok":true}`                              |
//! | `{"cmd":"evaluate","session":0}`                                | `{"ok":true,"test_accuracy":0.6,…}`        |
//! | `{"cmd":"snapshot","session":0}`                                | `{"ok":true,"path":"…/wal-0"}`             |
//! | `{"cmd":"save_all"}`                                            | `{"ok":true,"saved":[0,1]}`                |
//! | `{"cmd":"recover","session":0,"iteration":8}`                   | `{"ok":true,"session":3,"iteration":8}`    |
//! | `{"cmd":"close","session":0}`                                   | `{"ok":true}`                              |
//! | `{"cmd":"metrics"}`                                             | `{"ok":true,"text":"# HELP adp_…"}`        |
//! | `{"cmd":"health"}`                                              | `{"ok":true,"healthy":true,"shards":[…]}`  |
//!
//! `metrics` returns the hub's Prometheus text exposition (see
//! [`crate::metrics`]) inside the JSON reply; `health` reports per-shard
//! liveness and the hot/cold tiering gauges. Both are also served over a
//! minimal **HTTP shim**: a connection whose first line is an HTTP
//! request (`GET /metrics`, `GET /health`, or `HEAD` of either) gets a
//! one-shot `HTTP/1.1` response and the connection closes — enough for
//! `curl` and a Prometheus scrape config, no HTTP stack required.
//!
//! Connections are guarded by a **read timeout** (`ADP_READ_TIMEOUT_SECS`,
//! default 900, `0` disables; or [`Server::bind_with_timeout`]): a client
//! that goes silent past it receives one final
//! `{"ok":false,"error":"idle timeout…"}` line and is disconnected, so a
//! stalled peer cannot pin a handler thread forever.
//!
//! When the requested session is journalled (the hub has a spill
//! directory), the `open` reply also carries
//! `checkpoint_iteration` and `durable_iteration` — the
//! [`DurabilityStatus`](crate::journal::DurabilityStatus) fields. `recover`
//! rebuilds the state `session` had at any journalled commit point as a
//! **new** session and returns its id; the source session is untouched.
//!
//! Sessions created here are opened through
//! [`SessionHub::create_from_spec`], so they persist across restarts: every
//! committed step is journalled,
//! `save_all` (or per-session `snapshot`) checkpoints the journals, and a
//! freshly started server with the same spill directory
//! re-serves them **under their original ids** after
//! [`SessionHub::load_all`] — the kill/reload/resume cycle the integration
//! test drives.

use crate::hub::{HubHealth, ServeError, SessionHub, SessionId};
use crate::json::Json;
use crate::spec_json::scenario_from_json;
use activedp::StepOutcome;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Executes one protocol request against the hub. Pure request→response —
/// the socket loop just frames lines around this, and tests can drive it
/// directly.
pub fn handle_line(hub: &SessionHub, line: &str) -> Json {
    let request = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return error_reply(format!("bad json: {e}")),
    };
    match dispatch(hub, &request) {
        Ok(reply) => reply,
        Err(e) => error_reply(e),
    }
}

fn error_reply(message: impl std::fmt::Display) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
    ])
}

fn ok_reply(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    Json::obj(all)
}

fn field<'a>(request: &'a Json, key: &str) -> Result<&'a Json, String> {
    request.get(key).ok_or_else(|| format!("missing \"{key}\""))
}

fn u64_field(request: &Json, key: &str) -> Result<u64, String> {
    field(request, key)?
        .as_u64()
        .ok_or_else(|| format!("\"{key}\" must be a non-negative integer"))
}

fn session_field(request: &Json) -> Result<SessionId, String> {
    Ok(SessionId::from_raw(u64_field(request, "session")?))
}

fn serve_err(e: ServeError) -> String {
    e.to_string()
}

fn dispatch(hub: &SessionHub, request: &Json) -> Result<Json, String> {
    let cmd = field(request, "cmd")?
        .as_str()
        .ok_or("\"cmd\" must be a string")?;
    match cmd {
        "create_spec" => {
            let spec = scenario_from_json(field(request, "spec")?)?;
            let session = hub.create_from_spec(spec).map_err(serve_err)?;
            Ok(ok_reply([("session", Json::int(session.raw()))]))
        }
        "open" => {
            let id = session_field(request)?;
            let status = hub.status(id).map_err(serve_err)?;
            let mut fields = vec![
                ("session", Json::int(id.raw())),
                ("iteration", Json::int(status.iteration as u64)),
                ("n_lfs", Json::int(status.n_lfs as u64)),
                ("n_selected", Json::int(status.n_selected as u64)),
            ];
            if let Some(d) = status.durability {
                fields.extend([
                    (
                        "checkpoint_iteration",
                        Json::int(d.checkpoint_iteration as u64),
                    ),
                    ("durable_iteration", Json::int(d.durable_iteration as u64)),
                ]);
            }
            if let Some(r) = status.route {
                fields.extend([
                    ("cheap_queries", Json::int(r.cheap_queries)),
                    ("expensive_queries", Json::int(r.expensive_queries)),
                    ("escalations", Json::int(r.escalations)),
                    ("cheap_cost", Json::Num(r.cheap_cost)),
                    ("expensive_cost", Json::Num(r.expensive_cost)),
                ]);
            }
            Ok(ok_reply(fields))
        }
        "step" => {
            let id = session_field(request)?;
            let outcome = hub.step(id).map_err(serve_err)?;
            Ok(ok_reply(outcome_fields(&outcome)))
        }
        "step_batch" => {
            let id = session_field(request)?;
            let k = u64_field(request, "k")? as usize;
            let outcomes = hub.step_batch(id, k).map_err(serve_err)?;
            let items = outcomes
                .iter()
                .map(|o| Json::obj(outcome_fields(o)))
                .collect();
            Ok(ok_reply([("outcomes", Json::Arr(items))]))
        }
        "run" => {
            let id = session_field(request)?;
            let iterations = u64_field(request, "iterations")? as usize;
            hub.run(id, iterations).map_err(serve_err)?;
            Ok(ok_reply([]))
        }
        "evaluate" => {
            let id = session_field(request)?;
            let report = hub.evaluate(id).map_err(serve_err)?;
            let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
            Ok(ok_reply([
                ("test_accuracy", Json::Num(report.test_accuracy)),
                ("label_accuracy", opt(report.label_accuracy)),
                ("label_coverage", Json::Num(report.label_coverage)),
                ("threshold", opt(report.threshold)),
                ("n_selected", Json::int(report.n_selected as u64)),
                ("downstream_trained", Json::Bool(report.downstream_trained)),
            ]))
        }
        "snapshot" => {
            let id = session_field(request)?;
            let path = hub.save(id).map_err(serve_err)?;
            Ok(ok_reply([("path", Json::Str(path.display().to_string()))]))
        }
        "save_all" => {
            let saved = hub.save_all().map_err(serve_err)?;
            Ok(ok_reply([(
                "saved",
                Json::Arr(saved.iter().map(|id| Json::int(id.raw())).collect()),
            )]))
        }
        "recover" => {
            let id = session_field(request)?;
            let iteration = u64_field(request, "iteration")? as usize;
            let recovered = hub.recover(id, iteration).map_err(serve_err)?;
            Ok(ok_reply([
                ("session", Json::int(recovered.raw())),
                ("iteration", Json::int(iteration as u64)),
            ]))
        }
        "close" => {
            let id = session_field(request)?;
            hub.close(id).map_err(serve_err)?;
            Ok(ok_reply([]))
        }
        "metrics" => Ok(ok_reply([("text", Json::Str(hub.metrics().render()))])),
        "health" => Ok(ok_reply(health_fields(&hub.health()))),
        other => Err(format!("unknown cmd {other:?}")),
    }
}

fn health_fields(health: &HubHealth) -> Vec<(&'static str, Json)> {
    let shards = health
        .shards
        .iter()
        .map(|s| {
            Json::obj([
                ("shard", Json::int(s.shard as u64)),
                ("alive", Json::Bool(s.alive)),
                ("resident", Json::int(s.resident as u64)),
            ])
        })
        .collect();
    vec![
        ("healthy", Json::Bool(health.all_alive())),
        ("shards", Json::Arr(shards)),
        ("resident", Json::int(health.resident as u64)),
        ("cold", Json::int(health.cold as u64)),
        (
            "max_resident",
            health
                .max_resident
                .map(|c| Json::int(c as u64))
                .unwrap_or(Json::Null),
        ),
        ("evicted_total", Json::int(health.evicted_total)),
        ("resumed_total", Json::int(health.resumed_total)),
    ]
}

fn outcome_fields(o: &StepOutcome) -> Vec<(&'static str, Json)> {
    vec![
        ("iteration", Json::int(o.iteration as u64)),
        (
            "query",
            o.query.map(|q| Json::int(q as u64)).unwrap_or(Json::Null),
        ),
        (
            "lf",
            o.lf.as_ref()
                .map(|lf| Json::Str(format!("{:?}", lf.key())))
                .unwrap_or(Json::Null),
        ),
        ("n_lfs", Json::int(o.n_lfs as u64)),
        ("n_selected", Json::int(o.n_selected as u64)),
        (
            "route",
            match o.route {
                Some(activedp::RouteChoice::Cheap) => Json::Str("cheap".into()),
                Some(activedp::RouteChoice::Expensive) => Json::Str("expensive".into()),
                Some(activedp::RouteChoice::Escalated) => Json::Str("escalated".into()),
                None => Json::Null,
            },
        ),
    ]
}

/// A running `adp-served` front end: a TCP accept loop over a shared
/// [`SessionHub`], one handler thread per connection.
pub struct Server {
    addr: SocketAddr,
    hub: Arc<SessionHub>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

/// Default idle read timeout: 15 minutes, generous for an interactive
/// client, finite for a stalled one.
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(900);

/// The configured connection read timeout: `ADP_READ_TIMEOUT_SECS` when
/// set (0 disables), else 15 minutes.
fn read_timeout_from_env() -> Option<Duration> {
    match std::env::var("ADP_READ_TIMEOUT_SECS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
    {
        Some(0) => None,
        Some(secs) => Some(Duration::from_secs(secs)),
        None => Some(DEFAULT_READ_TIMEOUT),
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting connections against `hub`. Connections idle past the
    /// `ADP_READ_TIMEOUT_SECS` read timeout (default 900 s; `0` disables)
    /// are disconnected; see [`Server::bind_with_timeout`] to set it
    /// programmatically.
    pub fn bind(addr: impl ToSocketAddrs, hub: Arc<SessionHub>) -> std::io::Result<Server> {
        Self::bind_with_timeout(addr, hub, read_timeout_from_env())
    }

    /// [`Server::bind`] with an explicit per-connection read timeout
    /// (`None` waits forever, the pre-timeout behaviour).
    pub fn bind_with_timeout(
        addr: impl ToSocketAddrs,
        hub: Arc<SessionHub>,
        read_timeout: Option<Duration>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_hub = hub.clone();
        let accept_stop = stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name("adp-served-accept".into())
            .spawn(move || accept_loop(listener, accept_hub, accept_stop, read_timeout))?;
        Ok(Server {
            addr,
            hub,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hub this server fronts.
    pub fn hub(&self) -> &Arc<SessionHub> {
        &self.hub
    }

    /// Stops accepting connections and joins the accept loop. Open
    /// connections finish on their own when clients disconnect; live
    /// sessions stay in the hub (spill them with
    /// [`SessionHub::save_all`] for a durable shutdown).
    pub fn shutdown(mut self) -> Arc<SessionHub> {
        self.stop_accepting();
        self.hub.clone()
    }

    fn stop_accepting(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept call with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

fn accept_loop(
    listener: TcpListener,
    hub: Arc<SessionHub>,
    stop: Arc<AtomicBool>,
    read_timeout: Option<Duration>,
) {
    // Handler threads park their handles here (only this thread touches
    // the list); finished ones are reaped opportunistically so a
    // long-lived server doesn't accumulate them.
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Request/response, one `write` per reply: Nagle's algorithm would
        // hold each reply back for the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        let hub = hub.clone();
        if let Ok(handle) = std::thread::Builder::new()
            .name("adp-served-conn".into())
            .spawn(move || connection_loop(stream, &hub, read_timeout))
        {
            handlers.retain(|h| !h.is_finished());
            handlers.push(handle);
        }
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// Longest request line a connection may send (1 MiB). Requests are tiny
/// (< 200 bytes); the cap keeps a hostile newline-less stream from growing
/// a line buffer without bound.
const MAX_LINE_BYTES: u64 = 1 << 20;

fn connection_loop(mut stream: TcpStream, hub: &SessionHub, read_timeout: Option<Duration>) {
    // The timeout applies to the shared socket, so it covers both the
    // reader clone below and (harmlessly) writes.
    let _ = stream.set_read_timeout(read_timeout);
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    serve_lines(
        &mut BufReader::new(reader_stream),
        &mut stream,
        hub,
        read_timeout,
    );
}

/// The protocol loop of one connection: reads request lines until EOF, an
/// error or the read timeout, and writes each reply as one line with one
/// `write` ([`Json::write_line`]).
fn serve_lines(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    hub: &SessionHub,
    read_timeout: Option<Duration>,
) {
    loop {
        let mut line = String::new();
        // A fresh `take` budget per line bounds each read; a line that
        // fills the whole budget without a newline is hostile or garbage —
        // drop the connection rather than resynchronise mid-stream.
        match std::io::Read::take(&mut *reader, MAX_LINE_BYTES).read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if !line.ends_with('\n') && line.len() as u64 == MAX_LINE_BYTES => break,
            Ok(_) => {}
            // The typed idle-disconnect path: a peer silent past the read
            // timeout gets one final error line, then the connection ends
            // — its handler thread is reclaimed instead of pinned forever.
            // (Unix reports a timed-out read as WouldBlock, Windows as
            // TimedOut.)
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                let timeout = read_timeout.unwrap_or_default();
                let reply = error_reply(format!(
                    "idle timeout: no request within {} s",
                    timeout.as_secs()
                ));
                let _ = reply.write_line(writer);
                break;
            }
            Err(_) => break,
        }
        // HTTP shim: a connection whose first line is an HTTP request is a
        // scrape, not a protocol client — answer it one-shot and close.
        if line.starts_with("GET ") || line.starts_with("HEAD ") {
            serve_http(reader, writer, hub, &line);
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        if handle_line(hub, &line).write_line(writer).is_err() {
            break;
        }
    }
}

/// Answers one HTTP request on a connection that turned out to be a
/// scraper: `GET`/`HEAD` of `/metrics` (Prometheus text) or `/health`
/// (the health JSON; `503` when a shard is dead), `404` for anything
/// else. Always `Connection: close` — the shim serves exactly one
/// response.
fn serve_http(reader: &mut impl BufRead, writer: &mut impl Write, hub: &SessionHub, first: &str) {
    // Drain the request headers (bounded — a scraper sends a handful).
    let mut header = String::new();
    for _ in 0..100 {
        header.clear();
        match std::io::Read::take(&mut *reader, 8192).read_line(&mut header) {
            Ok(0) | Err(_) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => {}
        }
    }
    let mut parts = first.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            hub.metrics().render(),
        ),
        "/health" => {
            let health = hub.health();
            let status = if health.all_alive() {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            let body = format!("{}\n", Json::obj(health_fields(&health)));
            (status, "application/json; charset=utf-8", body)
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    // Header and body leave in one `write`, like a protocol reply.
    let mut response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    if method != "HEAD" {
        response.push_str(&body);
    }
    let _ = writer.write_all(response.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> SessionHub {
        SessionHub::with_shards_and_spill(2, None)
    }

    fn create_line(seed: u64) -> String {
        format!(
            r#"{{"cmd":"create_spec","spec":{{"dataset":{{"id":"Youtube","scale":"tiny","seed":7}},"session":{{"seed":{seed}}}}}}}"#
        )
    }

    #[test]
    fn create_step_evaluate_close_over_the_protocol() {
        let hub = hub();
        let reply = handle_line(&hub, &create_line(5));
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true), "{reply}");
        let session = reply.get("session").unwrap().as_u64().unwrap();

        let step = handle_line(&hub, &format!(r#"{{"cmd":"step","session":{session}}}"#));
        assert_eq!(step.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(step.get("iteration").unwrap().as_u64(), Some(1));

        let batch = handle_line(
            &hub,
            &format!(r#"{{"cmd":"step_batch","session":{session},"k":3}}"#),
        );
        assert_eq!(batch.get("outcomes").unwrap().as_array().unwrap().len(), 3);

        let run = handle_line(
            &hub,
            &format!(r#"{{"cmd":"run","session":{session},"iterations":2}}"#),
        );
        assert_eq!(run.get("ok").unwrap().as_bool(), Some(true));

        let open = handle_line(&hub, &format!(r#"{{"cmd":"open","session":{session}}}"#));
        assert_eq!(open.get("iteration").unwrap().as_u64(), Some(6));

        let eval = handle_line(
            &hub,
            &format!(r#"{{"cmd":"evaluate","session":{session}}}"#),
        );
        let acc = eval.get("test_accuracy").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&acc));

        let close = handle_line(&hub, &format!(r#"{{"cmd":"close","session":{session}}}"#));
        assert_eq!(close.get("ok").unwrap().as_bool(), Some(true));
        let gone = handle_line(&hub, &format!(r#"{{"cmd":"step","session":{session}}}"#));
        assert_eq!(gone.get("ok").unwrap().as_bool(), Some(false));
        assert!(gone
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unknown"));
    }

    #[test]
    fn create_spec_builds_the_described_session() {
        let hub = hub();
        // A declarative batch-16 QBC session, straight from JSON.
        let reply = handle_line(
            &hub,
            r#"{"cmd":"create_spec","spec":{
                "dataset":{"id":"youtube","scale":"tiny","seed":7},
                "session":{"seed":5,"sampler":"QBC","parallel":false},
                "schedule":{"kind":"fixed_batch","k":4},
                "budget":8}}"#,
        );
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true), "{reply}");
        let session = reply.get("session").unwrap().as_u64().unwrap();
        let step = handle_line(&hub, &format!(r#"{{"cmd":"step","session":{session}}}"#));
        assert_eq!(step.get("ok").unwrap().as_bool(), Some(true));

        // Invalid specs die at validation, before any id is allocated.
        for bad in [
            r#"{"cmd":"create_spec","spec":{
                "dataset":{"id":"youtube","scale":"tiny","seed":7},
                "schedule":{"kind":"fixed_batch","k":0}}}"#,
            r#"{"cmd":"create_spec","spec":{
                "dataset":{"id":"youtube","scale":"tiny","seed":7},
                "session":{"sampler":"oracle"}}}"#,
            r#"{"cmd":"create_spec"}"#,
        ] {
            let reply = handle_line(&hub, bad);
            assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false), "{bad}");
        }
        assert_eq!(hub.session_count().unwrap(), 1);
    }

    #[test]
    fn malformed_requests_get_error_replies() {
        let hub = hub();
        for bad in [
            "not json at all",
            r#"{"cmd":"teleport"}"#,
            r#"{"cmd":"step"}"#,
            r#"{"cmd":"step","session":"three"}"#,
            r#"{"cmd":"create_spec","spec":{"dataset":{"id":"NotADataset","scale":"tiny","seed":1}}}"#,
            r#"{"cmd":"create_spec","spec":{"dataset":{"id":"Youtube","scale":"galactic","seed":1}}}"#,
            r#"{"cmd":"create_spec","spec":{"dataset":{"id":"Youtube","scale":"tiny","seed":1},
                "session":{"seed":1,"parallel":"yes"}}}"#,
            // A valid session under the retired flat `create` verb.
            r#"{"cmd":"create","dataset":"Youtube","scale":"tiny","data_seed":1,"seed":1}"#,
            r#"{"session":1}"#,
            // A valid spec under the retired `run_spec` verb.
            r#"{"cmd":"run_spec","spec":{
                "dataset":{"id":"youtube","scale":"tiny","seed":7},
                "session":{"seed":1,"sampler":"US"},
                "schedule":{"kind":"fixed_batch","k":4},
                "budget":8}}"#,
        ] {
            let reply = handle_line(&hub, bad);
            assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false), "{bad}");
            assert!(reply.get("error").is_some(), "{bad}");
        }
        assert_eq!(hub.session_count().unwrap(), 0);
    }

    #[test]
    fn recover_and_durability_ride_the_protocol() {
        let dir = std::env::temp_dir().join(format!(
            "adp-served-recover-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let hub = SessionHub::with_shards_and_spill(2, Some(dir.clone()));
        let reply = handle_line(&hub, &create_line(5));
        let session = reply.get("session").unwrap().as_u64().unwrap();
        // Single steps: each iteration is its own commit point (a batch
        // commits only at its end).
        handle_line(
            &hub,
            &format!(r#"{{"cmd":"run","session":{session},"iterations":4}}"#),
        );

        // A journalled session's `open` reply reports durability.
        let open = handle_line(&hub, &format!(r#"{{"cmd":"open","session":{session}}}"#));
        assert_eq!(open.get("durable_iteration").unwrap().as_u64(), Some(4));
        assert_eq!(open.get("checkpoint_iteration").unwrap().as_u64(), Some(0));

        // Recover iteration 2 as a new session and check it reports it.
        let rec = handle_line(
            &hub,
            &format!(r#"{{"cmd":"recover","session":{session},"iteration":2}}"#),
        );
        assert_eq!(rec.get("ok").unwrap().as_bool(), Some(true), "{rec}");
        assert_eq!(rec.get("iteration").unwrap().as_u64(), Some(2));
        let recovered = rec.get("session").unwrap().as_u64().unwrap();
        assert_ne!(recovered, session);
        let open = handle_line(&hub, &format!(r#"{{"cmd":"open","session":{recovered}}}"#));
        assert_eq!(open.get("iteration").unwrap().as_u64(), Some(2));

        // A non-commit target is a typed error, not a panic.
        let bad = handle_line(
            &hub,
            &format!(r#"{{"cmd":"recover","session":{session},"iteration":99}}"#),
        );
        assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));

        drop(hub);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn metrics_and_health_ride_the_protocol() {
        let hub = hub();
        let reply = handle_line(&hub, &create_line(3));
        let session = reply.get("session").unwrap().as_u64().unwrap();
        handle_line(&hub, &format!(r#"{{"cmd":"step","session":{session}}}"#));

        let metrics = handle_line(&hub, r#"{"cmd":"metrics"}"#);
        assert_eq!(metrics.get("ok").unwrap().as_bool(), Some(true));
        let text = metrics.get("text").unwrap().as_str().unwrap();
        assert!(text.contains("adp_requests_total{op=\"open\"} 1"), "{text}");
        assert!(text.contains("adp_requests_total{op=\"step\"} 1"), "{text}");
        assert!(text.contains("adp_sessions_resident 1"), "{text}");

        let health = handle_line(&hub, r#"{"cmd":"health"}"#);
        assert_eq!(health.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(health.get("healthy").unwrap().as_bool(), Some(true));
        assert_eq!(health.get("resident").unwrap().as_u64(), Some(1));
        assert_eq!(health.get("cold").unwrap().as_u64(), Some(0));
        assert_eq!(
            health.get("shards").unwrap().as_array().unwrap().len(),
            hub.n_shards()
        );
    }

    #[test]
    fn http_shim_serves_metrics_and_health_to_curl() {
        use std::io::Read;
        let server = Server::bind("127.0.0.1:0", Arc::new(hub())).unwrap();
        let addr = server.addr();
        let fetch = |request: &str| {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(request.as_bytes()).unwrap();
            let mut response = String::new();
            conn.read_to_string(&mut response).unwrap();
            response
        };
        let metrics = fetch("GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("Content-Length:"), "{metrics}");
        assert!(metrics.contains("# TYPE adp_requests_total counter"));
        let health = fetch("GET /health HTTP/1.1\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.contains("\"healthy\":true"), "{health}");
        let head = fetch("HEAD /metrics HTTP/1.1\r\n\r\n");
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(!head.contains("adp_requests_total{"), "HEAD has no body");
        let missing = fetch("GET /nope HTTP/1.1\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        // The shim did not disturb the protocol: a JSON client still works.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"{\"cmd\":\"health\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_disconnected_with_a_typed_reply() {
        use std::io::Read;
        let server = Server::bind_with_timeout(
            "127.0.0.1:0",
            Arc::new(hub()),
            Some(Duration::from_millis(150)),
        )
        .unwrap();
        // A connection that sends nothing: after the timeout it must get
        // the final error line and EOF — not hold its thread forever.
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.contains("idle timeout"), "{response:?}");
        // An active client on the same server is untouched mid-exchange.
        let mut active = TcpStream::connect(server.addr()).unwrap();
        active.write_all(b"{\"cmd\":\"health\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(active.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        server.shutdown();
    }

    /// The text of each `write` call in `log`.
    fn written(log: &crate::json::WriteLog) -> Vec<String> {
        log.writes
            .iter()
            .map(|w| String::from_utf8(w.clone()).unwrap())
            .collect()
    }

    #[test]
    fn every_protocol_reply_is_one_write() {
        let hub = hub();
        let requests = format!(
            "{}\n{{\"cmd\":\"step\",\"session\":0}}\n\n{{\"cmd\":\"evaluate\",\"session\":0}}\n\
             {{\"cmd\":\"health\"}}\nnot json\n",
            create_line(1)
        );
        let mut log = crate::json::WriteLog::default();
        serve_lines(&mut requests.as_bytes(), &mut log, &hub, None);
        let writes = written(&log);
        assert_eq!(writes.len(), 5, "{writes:?}");
        for reply in &writes {
            assert!(reply.ends_with('\n') && reply.matches('\n').count() == 1);
            assert!(Json::parse(reply.trim_end()).is_ok(), "{reply}");
        }
        assert!(writes[4].contains("\"ok\":false"), "{}", writes[4]);
    }

    #[test]
    fn the_idle_timeout_reply_is_one_write() {
        struct Silent;
        impl std::io::Read for Silent {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::WouldBlock.into())
            }
        }
        let mut log = crate::json::WriteLog::default();
        let timeout = Some(Duration::from_secs(7));
        serve_lines(&mut BufReader::new(Silent), &mut log, &hub(), timeout);
        let writes = written(&log);
        assert_eq!(writes.len(), 1, "{writes:?}");
        assert!(writes[0].contains("idle timeout: no request within 7 s"));
        assert!(writes[0].ends_with("}\n"));
    }

    #[test]
    fn every_http_shim_response_is_one_write() {
        let hub = hub();
        for (request, status, has_body) in [
            ("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n", "200 OK", true),
            ("GET /health HTTP/1.1\r\n\r\n", "200 OK", true),
            ("HEAD /metrics HTTP/1.1\r\n\r\n", "200 OK", false),
            ("GET /nope HTTP/1.1\r\n\r\n", "404 Not Found", true),
        ] {
            let mut log = crate::json::WriteLog::default();
            serve_lines(&mut request.as_bytes(), &mut log, &hub, None);
            let writes = written(&log);
            assert_eq!(writes.len(), 1, "{request:?}: {writes:?}");
            let (header, body) = writes[0].split_once("\r\n\r\n").unwrap();
            assert!(header.starts_with(&format!("HTTP/1.1 {status}\r\n")));
            assert_eq!(!body.is_empty(), has_body, "{request:?}");
            if has_body {
                assert!(header.contains(&format!("Content-Length: {}", body.len())));
            }
        }
    }

    #[test]
    fn snapshot_without_spill_dir_reports_the_error() {
        let hub = hub();
        let reply = handle_line(&hub, &create_line(1));
        let session = reply.get("session").unwrap().as_u64().unwrap();
        let snap = handle_line(
            &hub,
            &format!(r#"{{"cmd":"snapshot","session":{session}}}"#),
        );
        assert_eq!(snap.get("ok").unwrap().as_bool(), Some(false));
        assert!(snap
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("spill"));
    }
}
