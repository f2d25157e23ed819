//! Golden-bytes pin of the scenario wire format.
//!
//! `tests/fixtures/scenario_v3.bin` is a committed encoding of a fixed,
//! fully non-default [`ScenarioSpec`] (Census · custom scale · QBC ·
//! Dawid-Skene · phased schedule · routed noisy oracle · covariate
//! drift). Today's encoder must reproduce it **byte for byte** — the
//! codec is deterministic and platform-independent — so any diff is a
//! format change and must come with a deliberate `SCENARIO_VERSION` bump
//! plus a regenerated fixture, never as an accident. The spec is the
//! serving protocol's and the snapshot format's shared vocabulary:
//! silently re-encoding it would orphan every spill file and every stored
//! sweep description at once. (Removing a variant is the one re-pin
//! without a bump: every spec that is still expressible keeps its bytes,
//! and the retired tag decodes to a typed `BadTag`.)
//!
//! The decoder reads the current version only: every other stamp, the
//! retired v1 and v2 layouts included, is a typed `UnknownVersion` error.
//!
//! Regenerate the current fixture after an intentional bump with:
//! `ADP_REGEN_FIXTURES=1 cargo test --test scenario_golden`.
//!
//! [`ScenarioSpec`]: activedp_repro::core::ScenarioSpec

use activedp_repro::core::{
    BudgetSchedule, ConfusionSpec, LabelModelKind, LatencyModel, OracleKind, PhaseSegment,
    RoutePolicy, SamplerChoice, ScenarioSpec, SCENARIO_VERSION,
};
use activedp_repro::data::{DatasetId, DatasetSpec, DriftSpec, Scale};
use std::path::PathBuf;

const FIXTURE: &str = "tests/fixtures/scenario_v3.bin";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

/// A spec exercising the non-default corners: tabular dataset, custom
/// scale, QBC + Dawid-Skene, ablations off, noise on, serial execution,
/// phased schedule, a fully non-default routed oracle and a covariate
/// drift at a phase-2 batch boundary.
fn fixture_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(DatasetSpec {
        id: DatasetId::Census,
        scale: Scale::Custom(0.125),
        seed: 42,
    });
    spec.session.seed = 9;
    spec.session.sampler = SamplerChoice::Qbc;
    spec.session.label_model = LabelModelKind::DawidSkene;
    spec.session.use_labelpick = false;
    spec.session.use_confusion = false;
    spec.session.noise_rate = 0.1;
    spec.session.parallel = false;
    spec.schedule = BudgetSchedule::Phased {
        segments: vec![
            PhaseSegment { k: 1, batches: 10 },
            PhaseSegment { k: 16, batches: 4 },
        ],
    };
    spec.budget = 200;
    spec.session.oracle = OracleKind::Noisy {
        confusion: ConfusionSpec::Biased {
            accuracy: 0.75,
            bias: 1,
        },
        latency: LatencyModel {
            cheap_cost: 0.5,
            expensive_cost: 24.0,
        },
        policy: RoutePolicy::UncertaintyThreshold { tau: 0.3 },
    };
    spec.drift = DriftSpec::CovariateDrift {
        at: 26,
        rotation: 0.35,
    };
    spec
}

#[test]
fn encoder_reproduces_the_committed_fixture_byte_for_byte() {
    let bytes = fixture_spec().to_bytes();
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
        "encoded length changed — scenario format drift without a version bump?"
    );
    let first_diff = bytes.iter().zip(&golden).position(|(a, b)| a != b);
    assert_eq!(
        first_diff, None,
        "encoded bytes diverge from the committed fixture at offset {first_diff:?} — \
         bump SCENARIO_VERSION and regenerate deliberately"
    );
}

#[test]
fn committed_fixture_still_decodes_and_validates() {
    let golden = std::fs::read(fixture_path()).expect("fixture file exists");
    let spec = ScenarioSpec::from_bytes(&golden).expect("fixture decodes");
    assert_eq!(spec, fixture_spec());
    spec.validate().expect("fixture spec is valid");
}

#[test]
fn unknown_versions_are_rejected_with_a_typed_error_not_a_panic() {
    // The next version, and the retired v1/v2 stamps.
    for stamp in [SCENARIO_VERSION + 1, 1, 2] {
        let mut bytes = fixture_spec().to_bytes();
        bytes[8..12].copy_from_slice(&stamp.to_le_bytes());
        let err = ScenarioSpec::from_bytes(&bytes).unwrap_err();
        match err {
            activedp_repro::core::ActiveDpError::SnapshotCodec(
                activedp_repro::wire::WireError::UnknownVersion { found, supported },
            ) => {
                assert_eq!(found, stamp);
                assert_eq!(supported, SCENARIO_VERSION);
            }
            other => panic!("expected UnknownVersion, got {other:?}"),
        }
    }
}
