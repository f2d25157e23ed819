//! The hub's shard locks from the outside: probes that read only the
//! residency registry must answer while a shard is busy.

use activedp::{Engine, StepOutcome};
use adp_data::{generate, DatasetId, Scale};
use adp_serve::SessionHub;
use std::sync::mpsc::channel;
use std::time::Duration;

#[test]
fn health_and_session_count_do_not_wait_on_a_busy_shard() {
    let hub = SessionHub::new(1);
    let data = generate(DatasetId::Youtube, Scale::Tiny, 7)
        .unwrap()
        .into_shared();
    let mut busy = Engine::builder(data).seed(1).build().unwrap();
    // The step parks inside its observer until the test releases it, so
    // the shard stays busy for as long as the probe below takes.
    let (entered_tx, entered_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    busy.add_observer(move |_o: &StepOutcome| {
        let _ = entered_tx.send(());
        let _ = release_rx.recv();
    });
    let id = hub.create(busy).unwrap();
    let hub = &hub;
    std::thread::scope(|scope| {
        let stepper = scope.spawn(move || hub.step(id));
        entered_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the step reaches its observer");
        let (probe_tx, probe_rx) = channel();
        scope.spawn(move || {
            let _ = probe_tx.send((hub.health(), hub.session_count()));
        });
        let probed = probe_rx.recv_timeout(Duration::from_secs(5));
        release_tx.send(()).unwrap();
        let (health, count) = probed.expect("health and session_count answer mid-step");
        assert!(health.all_alive());
        assert_eq!(health.resident, 1);
        assert_eq!(health.shards[0].resident, 1);
        assert_eq!(count.unwrap(), 1);
        assert_eq!(stepper.join().unwrap().unwrap().iteration, 1);
    });
}
