//! Eviction parity: a session evicted to its journal and transparently
//! resumed must be indistinguishable — bit for bit, including its post-run
//! snapshot bytes — from one that was never evicted.
//!
//! These tests drive the hot/cold tiering introduced with
//! `SessionHub::with_memory_budget` through every seam: explicit `evict`
//! at every possible cut point, implicit LRU churn under a tight budget,
//! eviction racing `save_all`/`close` from other threads, and the
//! `Saturated` backpressure path over the network front end.

use activedp::{Engine, SessionConfig};
use adp_data::{generate, DatasetId, DatasetSpec, Scale};
use adp_serve::{Client, ClientError, ServeError, Server, SessionHub, SessionId};
use std::path::PathBuf;
use std::sync::Arc;

const DATA_SEED: u64 = 7;
const ITERS: usize = 8;

fn unique_tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "adp-evict-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec_of(seed: u64) -> DatasetSpec {
    DatasetSpec {
        id: DatasetId::Youtube,
        scale: Scale::Tiny,
        seed,
    }
}

fn config_of(seed: u64, parallel: bool) -> SessionConfig {
    let mut config = SessionConfig::paper_defaults(true, seed);
    config.parallel = parallel;
    config
}

/// The uninterrupted reference: query sequence, final accuracy bits, and
/// the post-run snapshot bytes of a solo engine run.
fn golden(seed: u64, parallel: bool, iters: usize) -> (Vec<Option<usize>>, u64, Vec<u8>) {
    let data = generate(DatasetId::Youtube, Scale::Tiny, DATA_SEED).unwrap();
    let mut engine = Engine::builder(data)
        .config(config_of(seed, parallel))
        .build()
        .unwrap();
    let queries = (0..iters).map(|_| engine.step().unwrap().query).collect();
    let accuracy = engine
        .evaluate_downstream()
        .unwrap()
        .test_accuracy
        .to_bits();
    let snapshot = engine.snapshot().unwrap().to_bytes();
    (queries, accuracy, snapshot)
}

fn hub_with_spill(shards: usize, dir: &PathBuf) -> SessionHub {
    SessionHub::with_spill_dir(shards, dir)
}

/// Runs a hub session to `iters` steps with an explicit eviction after
/// step `k`, and returns the same fingerprint as [`golden`].
fn evicted_run(
    hub: &SessionHub,
    seed: u64,
    parallel: bool,
    k: usize,
    iters: usize,
) -> (Vec<Option<usize>>, u64, Vec<u8>) {
    let id = hub
        .open_spec(spec_of(DATA_SEED), config_of(seed, parallel))
        .unwrap();
    let mut queries = Vec::with_capacity(iters);
    for _ in 0..k {
        queries.push(hub.step(id).unwrap().query);
    }
    assert!(
        matches!(hub.evict(id), Ok(true)),
        "evict after step {k} should spill the session"
    );
    assert_eq!(hub.cold_ids(), vec![id]);
    for _ in k..iters {
        queries.push(hub.step(id).unwrap().query);
    }
    let accuracy = hub.evaluate(id).unwrap().test_accuracy.to_bits();
    let snapshot = hub.snapshot(id).unwrap().to_bytes();
    hub.close(id).unwrap();
    (queries, accuracy, snapshot)
}

#[test]
fn eviction_at_every_cut_point_is_bitwise_invisible_serial() {
    // Evict after k steps for every k in 0..=ITERS: the full trajectory,
    // the evaluation, and the post-run snapshot bytes must all equal the
    // uninterrupted solo run's.
    let dir = unique_tempdir("every-k-serial");
    let reference = golden(1, false, ITERS);
    for k in 0..=ITERS {
        let hub = hub_with_spill(1, &dir);
        let run = evicted_run(&hub, 1, false, k, ITERS);
        assert_eq!(run.0, reference.0, "queries diverged with eviction at {k}");
        assert_eq!(run.1, reference.1, "accuracy diverged with eviction at {k}");
        assert_eq!(
            run.2, reference.2,
            "post-run snapshot bytes diverged with eviction at {k}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_at_every_cut_point_is_bitwise_invisible_parallel() {
    // Same cut-point sweep with the data-parallel refit kernels on — the
    // resume path must preserve determinism under either execution policy.
    let dir = unique_tempdir("every-k-parallel");
    let reference = golden(2, true, ITERS);
    for k in 0..=ITERS {
        let hub = hub_with_spill(2, &dir);
        let run = evicted_run(&hub, 2, true, k, ITERS);
        assert_eq!(run.0, reference.0, "queries diverged with eviction at {k}");
        assert_eq!(run.1, reference.1, "accuracy diverged with eviction at {k}");
        assert_eq!(
            run.2, reference.2,
            "post-run snapshot bytes diverged with eviction at {k}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_churn_preserves_every_interleaved_trajectory() {
    // Six sessions behind a budget of two: round-robin stepping keeps
    // every touch evicting someone else, so each session crosses the
    // evict/resume boundary many times mid-trajectory. All six runs must
    // match their uninterrupted references, and the LRU order must follow
    // the interleaved touch order.
    const SESSIONS: u64 = 6;
    let dir = unique_tempdir("churn");
    let hub = hub_with_spill(2, &dir).with_memory_budget(2);
    let ids: Vec<SessionId> = (0..SESSIONS)
        .map(|seed| {
            hub.open_spec(spec_of(DATA_SEED), config_of(seed, false))
                .unwrap()
        })
        .collect();
    let mut queries = vec![Vec::new(); ids.len()];
    for _round in 0..ITERS {
        for (k, &id) in ids.iter().enumerate() {
            queries[k].push(hub.step(id).unwrap().query);
        }
    }
    // After the final round the two most recently touched sessions are
    // hot, everyone else cold — LRU by interleaved touch order.
    assert_eq!(hub.resident_ids(), vec![ids[4], ids[5]]);
    assert_eq!(
        hub.cold_ids(),
        vec![ids[0], ids[1], ids[2], ids[3]],
        "the four stalest sessions should be cold"
    );
    for (k, &id) in ids.iter().enumerate() {
        let seed = k as u64;
        let reference = golden(seed, false, ITERS);
        assert_eq!(queries[k], reference.0, "session {seed} diverged");
        assert_eq!(
            hub.evaluate(id).unwrap().test_accuracy.to_bits(),
            reference.1,
            "session {seed} evaluation diverged"
        );
        assert_eq!(
            hub.snapshot(id).unwrap().to_bytes(),
            reference.2,
            "session {seed} post-run snapshot bytes diverged"
        );
    }
    assert!(hub.metrics().evicted_total.get() >= SESSIONS);
    assert!(hub.metrics().resumed_total.get() >= SESSIONS);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_races_save_all_and_close_without_corruption() {
    // Three threads hammer the same hub: one evicts random sessions, one
    // loops save_all, one closes sessions from the tail. Races may surface
    // as UnknownSession (closed underneath a caller) but never as a panic,
    // a poisoned hub, or a corrupted survivor trajectory.
    const SESSIONS: u64 = 6;
    const KEEP: usize = 2; // sessions the closer thread never touches
    let dir = unique_tempdir("races");
    let hub = hub_with_spill(2, &dir);
    let ids: Vec<SessionId> = (0..SESSIONS)
        .map(|seed| {
            hub.open_spec(spec_of(DATA_SEED), config_of(seed, false))
                .unwrap()
        })
        .collect();

    std::thread::scope(|scope| {
        let evictor = scope.spawn(|| {
            let mut state = 9u64;
            for _ in 0..60 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let id = ids[(state >> 16) as usize % ids.len()];
                match hub.evict(id) {
                    Ok(_) | Err(ServeError::UnknownSession(_)) => {}
                    Err(e) => panic!("evict race surfaced {e}"),
                }
            }
        });
        let saver = scope.spawn(|| {
            for _ in 0..20 {
                // save_all skips nothing silently: a session closed mid-walk
                // is the only acceptable miss.
                match hub.save_all() {
                    Ok(_) | Err(ServeError::UnknownSession(_)) => {}
                    Err(e) => panic!("save_all race surfaced {e}"),
                }
            }
        });
        let closer = scope.spawn(|| {
            for &id in &ids[KEEP..] {
                match hub.close(id) {
                    Ok(()) | Err(ServeError::UnknownSession(_)) => {}
                    Err(e) => panic!("close race surfaced {e}"),
                }
            }
        });
        evictor.join().expect("evictor thread");
        saver.join().expect("saver thread");
        closer.join().expect("closer thread");
    });

    // The survivors still serve and still match their references.
    for (k, &id) in ids[..KEEP].iter().enumerate() {
        let seed = k as u64;
        let reference = golden(seed, false, ITERS);
        let queries: Vec<Option<usize>> = (0..ITERS).map(|_| hub.step(id).unwrap().query).collect();
        assert_eq!(queries, reference.0, "survivor {seed} diverged after races");
        assert_eq!(
            hub.snapshot(id).unwrap().to_bytes(),
            reference.2,
            "survivor {seed} snapshot diverged after races"
        );
    }
    assert_eq!(hub.session_count().unwrap(), KEEP);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturation_backpressure_reaches_clients_over_the_wire() {
    // A budget-1 hub with no spill directory cannot evict, so the second
    // create must be refused with the typed Saturated error — and the
    // refusal must ride the protocol as a server error naming saturation,
    // leaving both the connection and the admitted session serving.
    let hub = SessionHub::in_memory(1).with_memory_budget(1);
    assert!(hub.spill_dir().is_none(), "test requires a spill-free hub");
    let server = Server::bind("127.0.0.1:0", Arc::new(hub)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let admitted = client
        .create("Youtube", "tiny", DATA_SEED, 1, None)
        .unwrap();
    let err = client
        .create("Youtube", "tiny", DATA_SEED, 2, None)
        .unwrap_err();
    assert!(
        matches!(&err, ClientError::Server(e) if e.contains("saturated")),
        "expected saturation backpressure, got {err}"
    );
    // Backpressure is not failure: the connection and session both live.
    assert_eq!(client.step(admitted).unwrap().iteration, 1);
    let health = client.health().unwrap();
    assert_eq!(health.max_resident, Some(1));
    assert_eq!(health.resident, 1);
    // Closing the admitted session frees the budget slot.
    client.close_session(admitted).unwrap();
    let replacement = client
        .create("Youtube", "tiny", DATA_SEED, 3, None)
        .unwrap();
    assert_ne!(replacement, admitted);
}
