//! The WAL's parity bar: a snapshot at commit point `j` plus the logged
//! events `j+1 ..= k` must reconstruct the engine an uninterrupted run
//! reaches at `k` — **bitwise**, post-replay snapshot bytes included — for
//! every `(j, k)` split, in both serial and parallel execution. This is
//! the contract `Engine::replay_to` documents and everything above it
//! (journal recovery, `SessionHub::recover`, the crash-recovery CI leg)
//! leans on.

use activedp_repro::core::{
    Engine, SessionConfig, SessionSnapshot, StepEvent, StepObserver, StepOutcome,
};
use activedp_repro::data::{generate, DatasetId, Scale, SharedDataset};
use std::sync::mpsc;

const ITERS: usize = 15;

struct Tap(mpsc::Sender<StepEvent>);

impl StepObserver for Tap {
    fn on_step(&mut self, _outcome: &StepOutcome) {}
    fn wants_events(&self) -> bool {
        true
    }
    fn on_event(&mut self, event: &StepEvent) {
        let _ = self.0.send(event.clone());
    }
}

fn config(parallel: bool) -> SessionConfig {
    SessionConfig {
        parallel,
        ..SessionConfig::paper_defaults(true, 7)
    }
}

/// One uninterrupted golden run: the shared split, a snapshot after every
/// iteration (index = iteration, 0 included), and the full event stream.
fn golden(parallel: bool) -> (SharedDataset, Vec<SessionSnapshot>, Vec<StepEvent>) {
    let data = generate(DatasetId::Youtube, Scale::Tiny, 7)
        .expect("dataset generates")
        .into_shared();
    let mut engine = Engine::builder(data.clone())
        .config(config(parallel))
        .build()
        .expect("engine builds");
    let (tx, rx) = mpsc::channel();
    engine.add_observer(Tap(tx));
    let mut snapshots = vec![engine.snapshot().expect("snapshot captures")];
    for _ in 0..ITERS {
        engine.step().expect("golden trajectory");
        snapshots.push(engine.snapshot().expect("snapshot captures"));
    }
    drop(engine);
    let events: Vec<StepEvent> = rx.try_iter().collect();
    assert_eq!(events.len(), ITERS);
    (data, snapshots, events)
}

#[test]
fn replay_matches_the_uninterrupted_run_bitwise() {
    for parallel in [false, true] {
        let (data, snapshots, events) = golden(parallel);
        let golden_bytes: Vec<Vec<u8>> = snapshots.iter().map(|s| s.to_bytes()).collect();
        for j in [0usize, 1, 8, ITERS - 1, ITERS] {
            for k in [j, (j + ITERS).div_ceil(2), ITERS] {
                let replayed = Engine::replay_to_over(&snapshots[j], &events, k, data.clone())
                    .unwrap_or_else(|e| panic!("replay {j}->{k} (parallel={parallel}): {e}"));
                assert_eq!(
                    replayed.snapshot().unwrap().to_bytes(),
                    golden_bytes[k],
                    "snapshot after replay {j}->{k} (parallel={parallel}) diverged"
                );
            }
        }
    }
}

#[test]
fn a_replayed_engine_steps_on_exactly_like_the_original() {
    // Replaying is not just a frozen-state trick: the reconstructed engine
    // must *continue* the trajectory bit for bit — RNG streams, model
    // parameters and all — to the end of the run.
    for parallel in [false, true] {
        let (data, snapshots, events) = golden(parallel);
        let mut replayed = Engine::replay_to_over(&snapshots[8], &events, 12, data).unwrap();
        for _ in 12..ITERS {
            replayed.step().unwrap();
        }
        assert_eq!(
            replayed.snapshot().unwrap().to_bytes(),
            snapshots[ITERS].to_bytes(),
            "post-replay stepping (parallel={parallel}) diverged from the original run"
        );
    }
}
