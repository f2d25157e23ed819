//! Golden-bytes pin of the on-disk write-ahead-log format.
//!
//! `tests/fixtures/wal_v3.bin` is a committed encoding of a fixed
//! journal: session 7 over Youtube · Tiny · dataset seed 7 · session
//! seed 7 with a **routed noisy oracle and a label shift at iteration 4**,
//! journalled from iteration 0 through 6 single steps (6 commit points).
//! The fixture concatenates the two files a fresh journal writes,
//! `[u32 manifest_len | manifest.adpwman | open.adpwal]`, so it pins the
//! manifest format (embedding a current-version scenario), the
//! `len | crc(len) | payload | crc(payload)` record framing of the log
//! (`SEGMENT_VERSION` 2), and the per-event route
//! tag that keeps replays of routed sessions bitwise.
//!
//! The manifest decoder reads the current version only; v1 (embedding the
//! pre-oracle scenario body) and v2 (carrying a segment list) manifests
//! are typed codec errors.
//!
//! Today's writer must reproduce the current bytes **exactly**: the event
//! stream, the codec and the CRC are all deterministic and
//! platform-independent, so any diff is a format or behaviour change and
//! must come with a deliberate version bump plus a regenerated fixture —
//! never as an accident.
//!
//! Regenerate after an intentional bump with:
//! `ADP_REGEN_FIXTURES=1 cargo test --test wal_golden`.

use activedp_repro::core::{
    Engine, OracleKind, ScenarioSpec, SessionConfig, StepEvent, StepObserver, StepOutcome,
};
use activedp_repro::data::{DatasetId, DatasetSpec, DriftSpec, Scale};
use activedp_repro::wal::Journal;
use std::path::{Path, PathBuf};
use std::sync::mpsc;

const FIXTURE: &str = "tests/fixtures/wal_v3.bin";

const STEPS: usize = 6;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

fn unique_tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "adp-wal-golden-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The current fixture scenario: routed noisy oracle, label shift at 4.
fn fixture_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(DatasetSpec {
        id: DatasetId::Youtube,
        scale: Scale::Tiny,
        seed: 7,
    });
    spec.session = SessionConfig::paper_defaults(true, 7);
    spec.session.oracle = "noisy:0.8>1@uncertainty:0.3".parse().expect("grammar");
    spec.drift = DriftSpec::LabelShift { at: 4, prior: 0.8 };
    spec.budget = 12;
    spec
}

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

/// Runs the fixture trajectory with a journal attached and returns the raw
/// bytes of the two files it wrote, fixture-framed.
fn write_fixture_journal(dir: &Path) -> Vec<u8> {
    let spec = fixture_spec();
    let data = spec
        .dataset
        .generate()
        .expect("dataset generates")
        .into_shared();
    let mut journal = Journal::create(dir, 7, spec.clone(), 0).expect("journal creates");
    let mut engine = Engine::from_spec_over(spec, data).expect("engine builds");
    let (tx, rx) = mpsc::channel();
    engine.add_observer(Tap(tx));
    for _ in 0..STEPS {
        engine.step().expect("fixture trajectory");
    }
    drop(engine);
    for event in rx.try_iter() {
        journal.append(&event).expect("journal appends");
    }
    let manifest = std::fs::read(dir.join("manifest.adpwman")).expect("manifest exists");
    let open = std::fs::read(dir.join("open.adpwal")).expect("log exists");
    let mut bytes = Vec::with_capacity(4 + manifest.len() + open.len());
    bytes.extend_from_slice(&(manifest.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&manifest);
    bytes.extend_from_slice(&open);
    bytes
}

/// Splits fixture framing back into journal files under `dir`.
fn unpack_fixture(golden: &[u8], dir: &Path) {
    let manifest_len = u32::from_le_bytes(golden[..4].try_into().unwrap()) as usize;
    let (manifest, open) = golden[4..].split_at(manifest_len);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("manifest.adpwman"), manifest).unwrap();
    std::fs::write(dir.join("open.adpwal"), open).unwrap();
}

/// Opens `dir`, replays its events from the spec-synthesised iteration-0
/// base, and asserts the result is bitwise the uninterrupted run.
fn assert_replays_bitwise(dir: &Path) {
    let journal = Journal::open(dir).expect("fixture journal opens");
    assert_eq!(journal.session(), 7);
    assert_eq!(journal.checkpoint_iteration(), 0);
    assert_eq!(journal.durable_iteration(), STEPS);
    let events = journal.events().expect("events decode");
    assert_eq!(events.len(), STEPS);
    assert!(events.iter().all(|e| e.commit));

    let spec = journal.spec().clone();
    let data = spec.dataset.generate().unwrap().into_shared();
    let base = Engine::from_spec_over(spec.clone(), data.clone())
        .unwrap()
        .snapshot()
        .unwrap();
    let replayed = Engine::replay_to_over(&base, &events, STEPS, data.clone()).unwrap();
    let mut straight = Engine::from_spec_over(spec, data).unwrap();
    straight.run(STEPS).unwrap();
    assert_eq!(
        replayed.snapshot().unwrap().to_bytes(),
        straight.snapshot().unwrap().to_bytes(),
        "fixture replay diverged from the uninterrupted run"
    );
}

#[test]
fn journal_reproduces_the_committed_fixture_byte_for_byte() {
    let dir = unique_tempdir("write");
    let bytes = write_fixture_journal(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    if std::env::var_os("ADP_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
        std::fs::write(fixture_path(), &bytes).unwrap();
        panic!(
            "fixture regenerated at {} — commit it and re-run without ADP_REGEN_FIXTURES",
            fixture_path().display()
        );
    }
    let golden = std::fs::read(fixture_path())
        .expect("fixture file exists (regenerate with ADP_REGEN_FIXTURES=1)");
    assert_eq!(
        bytes.len(),
        golden.len(),
        "encoded length changed — WAL format drift without a version bump?"
    );
    let first_diff = bytes.iter().zip(&golden).position(|(a, b)| a != b);
    assert_eq!(
        first_diff, None,
        "journal bytes diverge from the committed fixture at offset {first_diff:?} — \
         bump the WAL format version and regenerate deliberately"
    );
}

#[test]
fn committed_fixture_still_opens_and_replays() {
    // The committed bytes are a *live* artefact: splitting them back into
    // the two journal files must open, report the right coordinates, and
    // replay onto the exact state an uninterrupted run reaches — route
    // tags included (the cheap oracle's RNG replays from the journal).
    let golden = std::fs::read(fixture_path()).expect("fixture file exists");
    let dir = unique_tempdir("open");
    unpack_fixture(&golden, &dir);
    let journal = Journal::open(&dir).expect("fixture journal opens");
    assert!(matches!(
        journal.spec().session.oracle,
        OracleKind::Noisy { .. }
    ));
    assert_eq!(
        journal.spec().drift,
        DriftSpec::LabelShift { at: 4, prior: 0.8 }
    );
    drop(journal);
    assert_replays_bitwise(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}
