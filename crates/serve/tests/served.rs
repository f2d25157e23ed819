//! End-to-end tests of the `adp-served` network front end: real TCP
//! sockets, concurrent clients, and the kill/reload/resume cycle durable
//! sessions exist for.

use activedp::{Engine, ScenarioSpec, SessionConfig};
use adp_data::{generate, DatasetId, DatasetSpec, Scale};
use adp_serve::{Client, ClientError, Server, SessionHub, StepReply};
use std::path::PathBuf;
use std::sync::Arc;

const DATA_SEED: u64 = 7;
const ITERS: u64 = 10;

fn unique_tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "adp-served-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The solo-engine reference for a session seed: query sequence and the
/// bit pattern of the final test accuracy.
fn solo_fingerprint(seed: u64, iters: u64) -> (Vec<Option<u64>>, u64) {
    let data = generate(DatasetId::Youtube, Scale::Tiny, DATA_SEED).unwrap();
    let mut engine = Engine::builder(data)
        .config(SessionConfig::paper_defaults(true, seed))
        .build()
        .unwrap();
    let queries = (0..iters)
        .map(|_| engine.step().unwrap().query.map(|q| q as u64))
        .collect();
    let report = engine.evaluate_downstream().unwrap();
    (queries, report.test_accuracy.to_bits())
}

/// The scenario every session here runs: Youtube · Tiny · data seed 7
/// under the default configuration with session seed `seed`.
fn wire_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(DatasetSpec {
        id: DatasetId::Youtube,
        scale: Scale::Tiny,
        seed: DATA_SEED,
    });
    spec.session.seed = seed;
    spec
}

fn served_fingerprint(outcomes: &[StepReply], accuracy: f64) -> (Vec<Option<u64>>, u64) {
    (
        outcomes.iter().map(|o| o.query).collect(),
        accuracy.to_bits(),
    )
}

#[test]
fn concurrent_clients_reproduce_solo_trajectories() {
    // ≥ 4 clients, each its own socket and session, stepped concurrently:
    // every served trajectory must equal the solo engine run bit for bit.
    const CLIENTS: u64 = 5;
    let server = Server::bind("127.0.0.1:0", Arc::new(SessionHub::new(3))).unwrap();
    let addr = server.addr();

    let served: Vec<(Vec<Option<u64>>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|seed| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connects");
                    let session = client.create_spec(&wire_spec(seed)).expect("creates");
                    let outcomes: Vec<StepReply> = (0..ITERS)
                        .map(|_| client.step(session).expect("steps"))
                        .collect();
                    let eval = client.evaluate(session).expect("evaluates");
                    served_fingerprint(&outcomes, eval.test_accuracy)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    for (seed, fingerprint) in served.into_iter().enumerate() {
        assert_eq!(
            fingerprint,
            solo_fingerprint(seed as u64, ITERS),
            "client seed {seed} diverged from the solo engine"
        );
    }
    assert_eq!(server.hub().session_count().unwrap(), CLIENTS as usize);
}

#[test]
fn kill_reload_resume_cycle_is_bitwise_transparent() {
    // Four sessions run half their trajectory against server #1, which is
    // then shut down and replaced by a fresh server over the same spill
    // directory ("process killed, restarted"). Clients reconnect, find
    // their sessions under the *same ids* at the right iteration, run the
    // second half, and the full trajectories match uninterrupted solo runs
    // bit for bit.
    const CLIENTS: u64 = 4;
    const SPLIT: u64 = 5;
    let dir = unique_tempdir("cycle");

    let first = Server::bind("127.0.0.1:0", Arc::new(SessionHub::with_spill_dir(2, &dir))).unwrap();
    let addr1 = first.addr();
    let mut sessions = Vec::new();
    let mut first_halves = Vec::new();
    for seed in 0..CLIENTS {
        let mut client = Client::connect(addr1).unwrap();
        let session = client.create_spec(&wire_spec(seed)).unwrap();
        let outcomes: Vec<StepReply> = (0..SPLIT).map(|_| client.step(session).unwrap()).collect();
        sessions.push(session);
        first_halves.push(outcomes);
    }
    // Durable shutdown: spill every session, then kill the server.
    let mut admin = Client::connect(addr1).unwrap();
    let saved = admin.save_all().unwrap();
    assert_eq!(saved, sessions);
    drop(admin);
    let hub = first.shutdown();
    drop(hub);

    // "Restart": a brand-new hub + server over the same spill directory.
    let reloaded = SessionHub::with_spill_dir(2, &dir);
    let loaded = reloaded.load_all().unwrap();
    assert_eq!(
        loaded.iter().map(|id| id.raw()).collect::<Vec<_>>(),
        sessions
    );
    let second = Server::bind("127.0.0.1:0", Arc::new(reloaded)).unwrap();
    let addr2 = second.addr();

    for (k, (&session, first_half)) in sessions.iter().zip(&first_halves).enumerate() {
        let seed = k as u64;
        let mut client = Client::connect(addr2).unwrap();
        let opened = client.open(session).expect("reloaded session answers");
        assert_eq!(opened.iteration, SPLIT, "session {session}");
        let second_half: Vec<StepReply> = (SPLIT..ITERS)
            .map(|_| client.step(session).unwrap())
            .collect();
        let eval = client.evaluate(session).unwrap();
        let mut all = first_half.clone();
        all.extend(second_half);
        assert_eq!(
            served_fingerprint(&all, eval.test_accuracy),
            solo_fingerprint(seed, ITERS),
            "resumed session {session} diverged from the uninterrupted run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A real `adp-served` child process; killed hard (SIGKILL, no shutdown
/// path) when dropped so a failing assertion never leaks a server.
struct ServedProc {
    child: std::process::Child,
    addr: String,
}

impl ServedProc {
    fn spawn(spill_dir: &std::path::Path) -> ServedProc {
        use std::io::BufRead;
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_adp-served"))
            .args(["--addr", "127.0.0.1:0", "--shards", "2", "--spill-dir"])
            .arg(spill_dir)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawns adp-served");
        // The binary prints its bound address once it is serving.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("adp-served exited before listening")
                .expect("readable stdout");
            if let Some(addr) = line.strip_prefix("adp-served listening on ") {
                break addr.to_string();
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        ServedProc { child, addr }
    }

    fn kill(mut self) {
        let _ = self.child.kill(); // SIGKILL: no destructors, no final save
        let _ = self.child.wait();
    }
}

impl Drop for ServedProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn sigkill_crash_recovers_to_the_durable_tip() {
    // The hard-crash sibling of the kill/reload test above: the server is
    // SIGKILLed with NO save_all — the write-ahead log alone must carry
    // the session. A restarted server over the same spill directory
    // replays the journal, serves the session under the same id at the
    // last committed iteration, and the completed trajectory matches an
    // uninterrupted solo run bit for bit.
    const SPLIT: u64 = 4;
    const SEED: u64 = 3;
    let dir = unique_tempdir("sigkill");
    std::fs::create_dir_all(&dir).unwrap();

    let first = ServedProc::spawn(&dir);
    let mut client = Client::connect(&first.addr).unwrap();
    let session = client.create_spec(&wire_spec(SEED)).unwrap();
    let first_half: Vec<StepReply> = (0..SPLIT).map(|_| client.step(session).unwrap()).collect();
    // Every single step is a durable commit point; the client confirms.
    let opened = client.open(session).unwrap();
    assert_eq!(
        opened.durability.expect("journalled").durable_iteration,
        SPLIT
    );
    drop(client);
    first.kill(); // no graceful path: snapshot never written

    let second = ServedProc::spawn(&dir);
    let mut client = Client::connect(&second.addr).unwrap();
    let opened = client.open(session).expect("crashed session came back");
    assert_eq!(opened.iteration, SPLIT, "recovered to the durable tip");
    let second_half: Vec<StepReply> = (SPLIT..ITERS)
        .map(|_| client.step(session).unwrap())
        .collect();
    let eval = client.evaluate(session).unwrap();
    let mut all = first_half;
    all.extend(second_half);
    assert_eq!(
        served_fingerprint(&all, eval.test_accuracy),
        solo_fingerprint(SEED, ITERS),
        "recovered trajectory diverged from the uninterrupted run"
    );

    // Point-in-time recovery over the wire: any pre-crash commit point is
    // still reachable as a new session.
    let rec = client.recover(session, 2).unwrap();
    assert_ne!(rec, session);
    assert_eq!(client.open(rec).unwrap().iteration, 2);

    second.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_connection_can_multiplex_sessions_and_batches() {
    let server = Server::bind("127.0.0.1:0", Arc::new(SessionHub::new(2))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let a = client.create_spec(&wire_spec(1)).unwrap();
    let mut sequential = wire_spec(2);
    sequential.session.parallel = false;
    let b = client.create_spec(&sequential).unwrap();
    assert_ne!(a, b);
    let outcomes = client.step_batch(a, 4).unwrap();
    assert_eq!(outcomes.len(), 4);
    client.run(b, 3).unwrap();
    assert_eq!(client.open(a).unwrap().iteration, 4);
    assert_eq!(client.open(b).unwrap().iteration, 3);
    client.close_session(a).unwrap();
    let err = client.step(a).unwrap_err();
    assert!(matches!(err, ClientError::Server(e) if e.contains("unknown")));
    // The connection survives server-side errors; session b still serves.
    assert_eq!(client.step(b).unwrap().iteration, 4);
}

#[test]
fn create_spec_over_the_wire_matches_the_in_process_hub() {
    // The spec's JSON round trip and the hub's own constructor build the
    // same session, so a session created over the wire and one created on
    // the hub directly from the same spec serve identical trajectories.
    let server = Server::bind("127.0.0.1:0", Arc::new(SessionHub::new(2))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = wire_spec(5);
    let wire = client.create_spec(&spec).unwrap();
    let local = server.hub().create_from_spec(spec).unwrap().raw();
    assert_ne!(wire, local);
    let a = client.step_batch(wire, 5).unwrap();
    let b = client.step_batch(local, 5).unwrap();
    assert_eq!(a, b);
    let ea = client.evaluate(wire).unwrap();
    let eb = client.evaluate(local).unwrap();
    assert_eq!(ea.test_accuracy.to_bits(), eb.test_accuracy.to_bits());
}

#[test]
fn protocol_errors_do_not_poison_the_connection() {
    let server = Server::bind("127.0.0.1:0", Arc::new(SessionHub::new(1))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // An out-of-range knob → server error reply…
    let mut invalid = wire_spec(1);
    invalid.session.alpha = 7.0;
    let err = client.create_spec(&invalid).unwrap_err();
    assert!(matches!(err, ClientError::Server(_)));
    // …after which the same connection still works.
    let session = client.create_spec(&wire_spec(3)).unwrap();
    assert_eq!(client.step(session).unwrap().iteration, 1);
}
