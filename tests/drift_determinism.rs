//! Determinism pins for the scenario-diversity subsystem: routed
//! dual-oracle sessions and streaming drift.
//!
//! The contracts pinned here:
//!
//! * a routed, drifted trajectory is **bitwise identical** serial vs
//!   parallel (`spec.session.parallel`), like every plain session — the
//!   router and the drift mutation live outside the fixed-chunk kernels,
//!   so thread count can never touch them (the CI matrix re-runs this
//!   suite under `ADP_NUM_THREADS=1` and `=4` for the process-wide
//!   budget path);
//! * the post-drift pool is ordinary data to the kernels: a classifier
//!   fit over a drift-mutated dataset is bitwise identical across worker
//!   counts 1/2/3/7;
//! * snapshot/resume at **every refit boundary** of a routed drifted
//!   run — before, on and after the drift boundary — lands bitwise on
//!   the uninterrupted run, for every drift shape (label shift,
//!   covariate rotation, arriving pool);
//! * drift application itself is pure: applying the same spec to the
//!   same splits twice yields identical bytes.

use activedp_repro::classifier::{LogRegConfig, LogisticRegression, Targets};
use activedp_repro::core::{Engine, ScenarioSpec};
use activedp_repro::data::{DatasetId, DatasetSpec, DriftSpec, Scale};
use activedp_repro::linalg::parallel::Execution;

/// Worker counts swept for the kernel-level pin (matches
/// `tests/determinism.rs`).
const THREADS: [usize; 4] = [1, 2, 3, 7];

/// A routed, drifted scenario: noisy biased oracle under uncertainty
/// routing, drift at the schedule's mid boundary.
fn routed_spec(dataset: DatasetId, drift: DriftSpec, parallel: bool) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(DatasetSpec {
        id: dataset,
        scale: Scale::Tiny,
        seed: 7,
    });
    spec.session.seed = 11;
    spec.session.parallel = parallel;
    spec.session.oracle = "noisy:0.8>1@uncertainty:0.3".parse().expect("grammar");
    spec.schedule = activedp_repro::core::BudgetSchedule::FixedBatch { k: 2 };
    spec.budget = 12;
    spec.drift = drift;
    spec.validate().expect("spec validates");
    spec
}

fn final_bytes(mut engine: Engine) -> Vec<u8> {
    engine.run_schedule().expect("schedule runs");
    engine.snapshot().expect("snapshot captures").to_bytes()
}

#[test]
fn routed_drifted_trajectory_is_bitwise_serial_vs_parallel() {
    for drift in [
        DriftSpec::LabelShift { at: 6, prior: 0.8 },
        DriftSpec::ArrivingPool { per_refit: 3 },
    ] {
        let serial =
            final_bytes(Engine::from_spec(routed_spec(DatasetId::Youtube, drift, false)).unwrap());
        let parallel =
            final_bytes(Engine::from_spec(routed_spec(DatasetId::Youtube, drift, true)).unwrap());
        // The snapshots embed the spec, which differs in the `parallel`
        // flag alone — compare the trajectories through a second serial
        // run instead for the exact-bytes check, and the parallel run
        // against it field-by-field.
        let again =
            final_bytes(Engine::from_spec(routed_spec(DatasetId::Youtube, drift, false)).unwrap());
        assert_eq!(serial, again, "{drift}: serial rerun not reproducible");
        let a = activedp_repro::core::SessionSnapshot::from_bytes(&serial).unwrap();
        let b = activedp_repro::core::SessionSnapshot::from_bytes(&parallel).unwrap();
        assert_eq!(a.state, b.state, "{drift}: loop state diverged");
        assert_eq!(a.routed, b.routed, "{drift}: route ledger diverged");
        assert_eq!(
            a.sampler_rng, b.sampler_rng,
            "{drift}: sampler RNG diverged"
        );
        assert_eq!(a.oracle, b.oracle, "{drift}: oracle state diverged");
    }
}

#[test]
fn classifier_fit_over_drifted_pool_is_bitwise_across_threads() {
    // Drift-mutate a dense split, then drive the chunked gradient kernel
    // over it at every worker count: post-drift data is ordinary data.
    let spec = DatasetSpec {
        id: DatasetId::Census,
        scale: Scale::Tiny,
        seed: 7,
    };
    let base = spec.generate().expect("dataset generates");
    let split = DriftSpec::CovariateDrift {
        at: 6,
        rotation: 0.4,
    }
    .apply(&base)
    .expect("covariate drift rewrites the split");

    let features = match &split.train.features {
        activedp_repro::data::FeatureSet::Dense(m) => m.clone(),
        _ => unreachable!("census is dense"),
    };
    let rows: Vec<usize> = (0..features.nrows()).collect();
    let labels = split.train.labels.clone();
    let cfg = LogRegConfig {
        max_iters: 12,
        ..LogRegConfig::default()
    };
    let fit = |exec: Execution| {
        let mut m = LogisticRegression::new(2, features.ncols(), cfg);
        m.fit_with(&features, &rows, Targets::Hard(&labels), None, exec)
            .expect("fit succeeds");
        m.weights()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<u64>>()
    };
    let serial = fit(Execution::Serial);
    for t in THREADS {
        assert_eq!(
            serial,
            fit(Execution::with_threads(t)),
            "drifted-pool logreg, threads={t}"
        );
    }
}

#[test]
fn drift_application_is_pure() {
    let spec = DatasetSpec {
        id: DatasetId::Census,
        scale: Scale::Tiny,
        seed: 3,
    };
    let base = spec.generate().unwrap();
    for drift in [
        DriftSpec::LabelShift { at: 4, prior: 0.7 },
        DriftSpec::CovariateDrift {
            at: 4,
            rotation: 0.25,
        },
    ] {
        let a = drift.apply(&base).unwrap();
        let b = drift.apply(&base).unwrap();
        assert_eq!(a.train.labels, b.train.labels, "{drift}");
        assert_eq!(a.test.labels, b.test.labels, "{drift}");
        if let (
            activedp_repro::data::FeatureSet::Dense(ma),
            activedp_repro::data::FeatureSet::Dense(mb),
        ) = (&a.train.features, &b.train.features)
        {
            let ba: Vec<u64> = ma.as_slice().iter().map(|x| x.to_bits()).collect();
            let bb: Vec<u64> = mb.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(ba, bb, "{drift}");
        }
    }
    // The pool-rewriting shapes stop there: `ArrivingPool` and `None`
    // leave the split untouched (visibility is the engine's schedule).
    assert!(DriftSpec::ArrivingPool { per_refit: 5 }
        .apply(&base)
        .is_none());
    assert!(DriftSpec::None.apply(&base).is_none());
}

/// Snapshot/resume at every refit boundary of a routed drifted run lands
/// bitwise on the uninterrupted run — including the boundary *on* which
/// the drift applies and every boundary after it.
#[test]
fn snapshot_resume_at_every_refit_boundary_is_bitwise() {
    let shapes = [
        (
            DatasetId::Youtube,
            DriftSpec::LabelShift { at: 6, prior: 0.8 },
        ),
        (
            DatasetId::Census,
            DriftSpec::CovariateDrift {
                at: 6,
                rotation: 0.4,
            },
        ),
        (DatasetId::Youtube, DriftSpec::ArrivingPool { per_refit: 3 }),
    ];
    for (dataset, drift) in shapes {
        let spec = routed_spec(dataset, drift, false);
        let straight = final_bytes(Engine::from_spec(spec.clone()).unwrap());
        let n_batches = spec.schedule.n_batches(spec.budget);
        assert!(n_batches >= 3, "schedule too small to slice meaningfully");
        for boundary in 1..n_batches {
            let mut engine = Engine::from_spec(spec.clone()).unwrap();
            engine.run_schedule_batches(boundary).unwrap();
            let snapshot = engine.snapshot().unwrap();
            // Round-trip the snapshot through bytes, as the WAL
            // checkpoint stores it.
            let bytes = snapshot.to_bytes();
            let restored = activedp_repro::core::SessionSnapshot::from_bytes(&bytes).unwrap();
            let resumed = Engine::resume(restored).unwrap();
            assert_eq!(
                final_bytes(resumed),
                straight,
                "{dataset:?}/{drift}: resume at batch {boundary} diverged"
            );
        }
    }
}
