//! Golden-bytes pin of the snapshot wire format.
//!
//! `tests/fixtures/snapshot_v4.bin` is a committed encoding of a fixed
//! mid-run *routed, drifted* session (Youtube · Tiny · dataset seed 7 ·
//! session seed 7 · noisy oracle · label shift at 4 · 6 steps — so the
//! bytes exercise the router ledger and the post-drift pool state).
//! Today's encoder must reproduce it **byte for byte**: the whole
//! pipeline — dataset generation, trajectory, RNG streams, codec — is
//! deterministic and platform-independent (explicit little-endian, sorted
//! key sets), so any diff here is a *format or behaviour change*, and
//! either must come with a deliberate `SNAPSHOT_VERSION` bump plus a
//! regenerated fixture — never as an accident.
//!
//! Older formats (v1–v3) are not decoded: snapshots are operational
//! checkpoints, not archives, so their stamps are rejected with a typed
//! error (see MIGRATION.md).
//!
//! Regenerate the current fixture after an intentional bump with:
//! `ADP_REGEN_FIXTURES=1 cargo test --test snapshot_golden`.

use activedp_repro::core::{Engine, OracleKind, ScenarioSpec, SessionSnapshot, SNAPSHOT_VERSION};
use activedp_repro::data::{DatasetId, DatasetSpec, DriftSpec, Scale};
use std::path::PathBuf;

const FIXTURE: &str = "tests/fixtures/snapshot_v4.bin";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

/// The current fixture session: routed between the simulated user and a
/// cheap noisy oracle, with a label shift applied mid-run — the snapshot
/// carries the router's cost ledger and the post-drift loop state.
fn routed_fixture_snapshot() -> SessionSnapshot {
    let mut spec = ScenarioSpec::new(DatasetSpec {
        id: DatasetId::Youtube,
        scale: Scale::Tiny,
        seed: 7,
    });
    spec.session.seed = 7;
    spec.session.oracle = "noisy:0.8>1@uncertainty:0.3".parse().expect("grammar");
    spec.drift = DriftSpec::LabelShift { at: 4, prior: 0.8 };
    spec.budget = 12;
    let mut engine = Engine::from_spec(spec).expect("engine builds");
    engine.run(6).expect("fixture trajectory");
    engine.snapshot().expect("snapshot captures")
}

#[test]
fn encoder_reproduces_the_committed_fixture_byte_for_byte() {
    let bytes = routed_fixture_snapshot().to_bytes();
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
        "encoded length changed — snapshot format drift without a version bump?"
    );
    let first_diff = bytes.iter().zip(&golden).position(|(a, b)| a != b);
    assert_eq!(
        first_diff, None,
        "encoded bytes diverge from the committed fixture at offset {first_diff:?} — \
         bump SNAPSHOT_VERSION and regenerate deliberately"
    );
}

#[test]
fn committed_fixture_still_decodes_and_resumes() {
    let golden = std::fs::read(fixture_path()).expect("fixture file exists");
    let snapshot = SessionSnapshot::from_bytes(&golden).expect("fixture decodes");
    assert_eq!(snapshot.state.iteration, 6);
    assert_eq!(snapshot.config().seed, 7);
    assert_eq!(snapshot.spec.dataset.seed, 7);
    assert!(matches!(
        snapshot.spec.session.oracle,
        OracleKind::Noisy { .. }
    ));
    assert_eq!(
        snapshot.spec.drift,
        DriftSpec::LabelShift { at: 4, prior: 0.8 }
    );
    // The router's cost ledger rode along.
    let routed = snapshot.routed.as_ref().expect("routed state captured");
    assert!(routed.stats.cheap_queries + routed.stats.expensive_queries > 0);
    // And it is a *live* artefact: the embedded spec regenerates the
    // dataset, so the bytes alone resume into a running session.
    let mut engine = Engine::resume(snapshot).unwrap();
    engine.step().unwrap();
    assert_eq!(engine.state().iteration, 7);
}

#[test]
fn unknown_versions_are_rejected_with_a_typed_error_not_a_panic() {
    let mut future = routed_fixture_snapshot().to_bytes();
    let next = SNAPSHOT_VERSION + 1;
    future[8..12].copy_from_slice(&next.to_le_bytes());
    let err = SessionSnapshot::from_bytes(&future).unwrap_err();
    match err {
        activedp_repro::core::ActiveDpError::SnapshotCodec(
            activedp_repro::wire::WireError::UnknownVersion { found, supported },
        ) => {
            assert_eq!(found, next);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        other => panic!("expected UnknownVersion, got {other:?}"),
    }
    // The retired formats are rejected the same way: the pre-scenario v1,
    // and v2/v3, whose specs predate the candidate strategy and the
    // oracle, drift and router fields.
    for old in [1u32, 2, 3] {
        let mut ancient = routed_fixture_snapshot().to_bytes();
        ancient[8..12].copy_from_slice(&old.to_le_bytes());
        assert!(
            matches!(
                SessionSnapshot::from_bytes(&ancient),
                Err(activedp_repro::core::ActiveDpError::SnapshotCodec(
                    activedp_repro::wire::WireError::UnknownVersion { found, .. }
                )) if found == old
            ),
            "v{old} must be rejected by stamp"
        );
    }
}
