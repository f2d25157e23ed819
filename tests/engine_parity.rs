//! Determinism/parity tests for the staged `Engine`.
//!
//! The golden fixture below was captured from the pre-refactor monolithic
//! session loop (serial kernels) on `DatasetId::Youtube` at `Scale::Tiny`,
//! dataset seed 7, session seed 7, 15 iterations. The staged engine must
//! reproduce that trajectory seed-for-seed through every way of driving
//! it — `step`, `step_batch(1)`, `run_schedule` and snapshot/resume: same
//! query instances, same LF picks, same LabelPick selections, same final
//! accuracy to the last bit.

use activedp_repro::core::{BudgetSchedule, Engine, SamplerChoice, SessionConfig};
use activedp_repro::data::{generate, DatasetId, Scale, SharedDataset};

const ITERS: usize = 15;

/// Queries issued by the pre-refactor session (None = oracle answered but
/// produced no LF that iteration — index 117 returned no LF).
const GOLDEN_QUERIES: [usize; ITERS] =
    [88, 101, 39, 117, 119, 27, 23, 66, 51, 116, 0, 3, 30, 8, 86];

/// Debug rendering of each returned LF's key (`None` where the oracle had
/// no rule for the instance).
const GOLDEN_LF_KEYS: [Option<&str>; ITERS] = [
    Some("Keyword(21, 1)"),
    Some("Keyword(189, 1)"),
    Some("Keyword(354, 1)"),
    None,
    Some("Keyword(22, 1)"),
    Some("Keyword(28, 0)"),
    Some("Keyword(222, 0)"),
    Some("Keyword(289, 0)"),
    Some("Keyword(173, 0)"),
    Some("Keyword(164, 0)"),
    Some("Keyword(343, 1)"),
    Some("Keyword(305, 1)"),
    Some("Keyword(272, 0)"),
    Some("Keyword(0, 0)"),
    Some("Keyword(190, 1)"),
];

/// LabelPick's selected-LF count after each iteration.
const GOLDEN_N_SELECTED: [usize; ITERS] = [1, 2, 2, 2, 3, 3, 4, 4, 5, 6, 7, 8, 9, 10, 11];

/// Final LabelPick selection (indices into the LF list).
const GOLDEN_SELECTED: [usize; 11] = [0, 1, 3, 5, 7, 8, 9, 10, 11, 12, 13];

/// Final downstream metrics (bitwise: both values are exactly
/// representable products of the deterministic pipeline).
const GOLDEN_TEST_ACCURACY: f64 = 0.6;
const GOLDEN_LABEL_COVERAGE: f64 = 0.45;
const GOLDEN_THRESHOLD: f64 = 0.773_338_958_871_232_5;

fn fixture() -> (SharedDataset, SessionConfig) {
    let data = generate(DatasetId::Youtube, Scale::Tiny, 7)
        .expect("dataset generates")
        .into_shared();
    let cfg = SessionConfig::paper_defaults(true, 7);
    (data, cfg)
}

fn assert_golden_trajectory(
    queries: &[Option<usize>],
    lf_keys: &[Option<String>],
    n_selected: &[usize],
) {
    let expected_queries: Vec<Option<usize>> = GOLDEN_QUERIES.iter().map(|&q| Some(q)).collect();
    assert_eq!(
        queries,
        expected_queries.as_slice(),
        "query sequence diverged"
    );
    let expected_keys: Vec<Option<String>> = GOLDEN_LF_KEYS
        .iter()
        .map(|k| k.map(str::to_string))
        .collect();
    assert_eq!(lf_keys, expected_keys.as_slice(), "LF picks diverged");
    assert_eq!(
        n_selected, GOLDEN_N_SELECTED,
        "LabelPick trajectory diverged"
    );
}

#[test]
fn engine_matches_golden_trajectory() {
    let (data, cfg) = fixture();
    let mut engine = Engine::builder(data).config(cfg).build().unwrap();
    let mut queries = Vec::new();
    let mut lf_keys = Vec::new();
    let mut n_selected = Vec::new();
    for _ in 0..ITERS {
        let out = engine.step().unwrap();
        queries.push(out.query);
        lf_keys.push(out.lf.as_ref().map(|lf| format!("{:?}", lf.key())));
        n_selected.push(out.n_selected);
    }
    assert_golden_trajectory(&queries, &lf_keys, &n_selected);
    assert_eq!(engine.state().selected, GOLDEN_SELECTED);

    let report = engine.evaluate_downstream().unwrap();
    assert_eq!(
        report.test_accuracy.to_bits(),
        GOLDEN_TEST_ACCURACY.to_bits(),
        "test accuracy {} != golden {}",
        report.test_accuracy,
        GOLDEN_TEST_ACCURACY
    );
    assert_eq!(
        report.label_coverage.to_bits(),
        GOLDEN_LABEL_COVERAGE.to_bits()
    );
    let tau = report.threshold.expect("ConFusion enabled");
    assert_eq!(
        tau.to_bits(),
        GOLDEN_THRESHOLD.to_bits(),
        "threshold {tau} != golden {GOLDEN_THRESHOLD}"
    );
}

/// `step_batch(1)` must be the identity batching: same query sequence,
/// same LF picks, same LabelPick trajectory, bitwise-identical final
/// metrics as the `step()` loop that produced the golden fixture.
#[test]
fn step_batch_of_one_matches_golden_trajectory() {
    let (data, cfg) = fixture();
    let mut engine = Engine::builder(data).config(cfg).build().unwrap();
    let mut queries = Vec::new();
    let mut lf_keys = Vec::new();
    let mut n_selected = Vec::new();
    for _ in 0..ITERS {
        let batch = engine.step_batch(1).unwrap();
        assert_eq!(batch.len(), 1);
        let out = &batch[0];
        queries.push(out.query);
        lf_keys.push(out.lf.as_ref().map(|lf| format!("{:?}", lf.key())));
        n_selected.push(out.n_selected);
    }
    assert_golden_trajectory(&queries, &lf_keys, &n_selected);
    assert_eq!(engine.state().selected, GOLDEN_SELECTED);
    let report = engine.evaluate_downstream().unwrap();
    assert_eq!(
        report.test_accuracy.to_bits(),
        GOLDEN_TEST_ACCURACY.to_bits()
    );
    assert_eq!(
        report.label_coverage.to_bits(),
        GOLDEN_LABEL_COVERAGE.to_bits()
    );
    let tau = report.threshold.expect("ConFusion enabled");
    assert_eq!(tau.to_bits(), GOLDEN_THRESHOLD.to_bits());
}

/// Larger batches trade refit freshness for throughput: the query
/// *sequence drawn between refits* changes, but determinism is preserved —
/// the same batch size reproduces the same trajectory.
#[test]
fn step_batch_is_deterministic_for_any_k() {
    let run = |k: usize| {
        let (data, cfg) = fixture();
        let mut engine = Engine::builder(data).config(cfg).build().unwrap();
        let mut queries = Vec::new();
        while engine.state().iteration < ITERS {
            for o in engine.step_batch(k).unwrap() {
                queries.push(o.query);
            }
        }
        let report = engine.evaluate_downstream().unwrap();
        (queries, report.test_accuracy.to_bits())
    };
    assert_eq!(run(5), run(5));
    assert_eq!(run(3), run(3));
}

/// One batched golden run: the Youtube Tiny fixture under
/// `FixedBatch{k}` for `ITERS` iterations with the named sampler.
struct BatchedGolden {
    sampler: SamplerChoice,
    k: usize,
    queries: [usize; ITERS],
    lf_keys: [Option<&'static str>; ITERS],
    /// The sampler's RNG words after the run, read from a snapshot.
    sampler_rng: [u64; 4],
    test_accuracy_bits: u64,
}

/// Batched trajectories, pinned so that a change to how the samplers
/// score or cache their pool cannot move a pick or a tie-break draw. A
/// batch of `k > 1` selects several queries against one pair of model
/// caches (the cold-start batch against none, so every row ties), which
/// the one-query-per-refit goldens above never exercise.
const BATCHED_GOLDENS: [BatchedGolden; 6] = [
    BatchedGolden {
        sampler: SamplerChoice::Adp,
        k: 1,
        queries: [88, 101, 39, 117, 119, 27, 23, 66, 51, 116, 0, 3, 30, 8, 86],
        lf_keys: [
            Some("Keyword(21, 1)"),
            Some("Keyword(189, 1)"),
            Some("Keyword(354, 1)"),
            None,
            Some("Keyword(22, 1)"),
            Some("Keyword(28, 0)"),
            Some("Keyword(222, 0)"),
            Some("Keyword(289, 0)"),
            Some("Keyword(173, 0)"),
            Some("Keyword(164, 0)"),
            Some("Keyword(343, 1)"),
            Some("Keyword(305, 1)"),
            Some("Keyword(272, 0)"),
            Some("Keyword(0, 0)"),
            Some("Keyword(190, 1)"),
        ],
        sampler_rng: [
            0x30239e4b54384803,
            0x01c16e9272601619,
            0xc930a02695ac8c24,
            0x830da5d40538888f,
        ],
        test_accuracy_bits: 0x3fe3333333333333, // 0.6
    },
    BatchedGolden {
        sampler: SamplerChoice::Adp,
        k: 5,
        queries: [
            88, 59, 92, 109, 91, 39, 117, 82, 15, 103, 17, 72, 38, 56, 19,
        ],
        lf_keys: [
            Some("Keyword(21, 1)"),
            Some("Keyword(17, 0)"),
            Some("Keyword(223, 0)"),
            Some("Keyword(28, 0)"),
            Some("Keyword(111, 0)"),
            Some("Keyword(20, 1)"),
            None,
            Some("Keyword(152, 0)"),
            Some("Keyword(24, 1)"),
            Some("Keyword(43, 1)"),
            Some("Keyword(41, 1)"),
            Some("Keyword(7, 0)"),
            Some("Keyword(19, 1)"),
            Some("Keyword(167, 0)"),
            Some("Keyword(1, 0)"),
        ],
        sampler_rng: [
            0x408d91d3bdd9b0e0,
            0x3a042f1a83682f62,
            0x3ddfa4a263e5108f,
            0x2960959dc13ca29e,
        ],
        test_accuracy_bits: 0x3fe2666666666666, // 0.575
    },
    BatchedGolden {
        sampler: SamplerChoice::Adp,
        k: 8,
        queries: [
            88, 59, 92, 109, 91, 66, 119, 104, 63, 20, 77, 82, 103, 95, 96,
        ],
        lf_keys: [
            Some("Keyword(21, 1)"),
            Some("Keyword(17, 0)"),
            Some("Keyword(223, 0)"),
            Some("Keyword(28, 0)"),
            Some("Keyword(111, 0)"),
            Some("Keyword(54, 0)"),
            Some("Keyword(148, 1)"),
            Some("Keyword(14, 1)"),
            Some("Keyword(87, 0)"),
            Some("Keyword(26, 1)"),
            Some("Keyword(23, 0)"),
            Some("Keyword(8, 0)"),
            Some("Keyword(43, 1)"),
            Some("Keyword(130, 1)"),
            Some("Keyword(1, 0)"),
        ],
        sampler_rng: [
            0xba7504438d4d40fd,
            0x919d8e5d66cc7901,
            0xa676487575068597,
            0xbbe84fd0ca7156e6,
        ],
        test_accuracy_bits: 0x3fe2666666666666, // 0.575
    },
    BatchedGolden {
        sampler: SamplerChoice::Uncertainty,
        k: 1,
        queries: [
            88, 101, 52, 39, 117, 119, 27, 23, 66, 109, 47, 72, 7, 15, 50,
        ],
        lf_keys: [
            Some("Keyword(21, 1)"),
            Some("Keyword(189, 1)"),
            Some("Keyword(146, 1)"),
            Some("Keyword(153, 1)"),
            None,
            Some("Keyword(22, 1)"),
            Some("Keyword(171, 0)"),
            Some("Keyword(28, 0)"),
            Some("Keyword(54, 0)"),
            Some("Keyword(234, 0)"),
            Some("Keyword(287, 0)"),
            Some("Keyword(7, 0)"),
            Some("Keyword(133, 1)"),
            Some("Keyword(24, 1)"),
            Some("Keyword(139, 0)"),
        ],
        sampler_rng: [
            0xb47fb79464dacf9f,
            0x00c2e2bd1e74187e,
            0xd076c787e25ed8f2,
            0xc0bbfdb20c47eda4,
        ],
        test_accuracy_bits: 0x3fe6666666666666, // 0.7
    },
    BatchedGolden {
        sampler: SamplerChoice::Uncertainty,
        k: 5,
        queries: [
            88, 59, 92, 109, 91, 39, 117, 82, 15, 103, 17, 72, 106, 28, 38,
        ],
        lf_keys: [
            Some("Keyword(21, 1)"),
            Some("Keyword(17, 0)"),
            Some("Keyword(223, 0)"),
            Some("Keyword(28, 0)"),
            Some("Keyword(111, 0)"),
            Some("Keyword(20, 1)"),
            None,
            Some("Keyword(152, 0)"),
            Some("Keyword(24, 1)"),
            Some("Keyword(43, 1)"),
            Some("Keyword(41, 1)"),
            Some("Keyword(7, 0)"),
            Some("Keyword(235, 1)"),
            Some("Keyword(64, 1)"),
            Some("Keyword(307, 1)"),
        ],
        sampler_rng: [
            0x408d91d3bdd9b0e0,
            0x3a042f1a83682f62,
            0x3ddfa4a263e5108f,
            0x2960959dc13ca29e,
        ],
        test_accuracy_bits: 0x3fe3333333333333, // 0.6
    },
    BatchedGolden {
        sampler: SamplerChoice::Uncertainty,
        k: 8,
        queries: [
            88, 59, 92, 109, 91, 66, 119, 104, 63, 15, 20, 77, 82, 103, 95,
        ],
        lf_keys: [
            Some("Keyword(21, 1)"),
            Some("Keyword(17, 0)"),
            Some("Keyword(223, 0)"),
            Some("Keyword(28, 0)"),
            Some("Keyword(111, 0)"),
            Some("Keyword(54, 0)"),
            Some("Keyword(148, 1)"),
            Some("Keyword(14, 1)"),
            Some("Keyword(87, 0)"),
            Some("Keyword(195, 1)"),
            Some("Keyword(36, 1)"),
            Some("Keyword(260, 0)"),
            Some("Keyword(289, 0)"),
            Some("Keyword(53, 1)"),
            Some("Keyword(20, 1)"),
        ],
        sampler_rng: [
            0xba7504438d4d40fd,
            0x919d8e5d66cc7901,
            0xa676487575068597,
            0xbbe84fd0ca7156e6,
        ],
        test_accuracy_bits: 0x3fdccccccccccccd, // 0.45
    },
];

#[test]
fn batched_schedules_match_golden_trajectories() {
    for golden in &BATCHED_GOLDENS {
        for parallel in [false, true] {
            let label = format!("{:?} k={} parallel={parallel}", golden.sampler, golden.k);
            let (data, cfg) = fixture();
            let cfg = SessionConfig {
                sampler: golden.sampler,
                ..cfg
            };
            let mut engine = Engine::builder(data)
                .config(cfg)
                .parallel(parallel)
                .schedule(BudgetSchedule::FixedBatch { k: golden.k })
                .budget(ITERS)
                .build()
                .unwrap();
            let outcomes = engine.run_schedule().unwrap();
            let queries: Vec<_> = outcomes.iter().map(|o| o.query).collect();
            let expected: Vec<_> = golden.queries.iter().map(|&q| Some(q)).collect();
            assert_eq!(queries, expected, "{label}: query sequence diverged");
            let lf_keys: Vec<_> = outcomes
                .iter()
                .map(|o| o.lf.as_ref().map(|lf| format!("{:?}", lf.key())))
                .collect();
            let expected: Vec<_> = golden
                .lf_keys
                .iter()
                .map(|k| k.map(str::to_string))
                .collect();
            assert_eq!(lf_keys, expected, "{label}: LF picks diverged");
            assert_eq!(
                engine.snapshot().unwrap().sampler_rng,
                golden.sampler_rng,
                "{label}: sampler RNG stream diverged"
            );
            let accuracy = engine.evaluate_downstream().unwrap().test_accuracy;
            assert_eq!(
                accuracy.to_bits(),
                golden.test_accuracy_bits,
                "{label}: test accuracy {accuracy}"
            );
        }
    }
}

/// Schedule parity, part 1: `run_schedule` under the default `FixedStep`
/// schedule is the golden `step()` loop — same queries, same LF picks,
/// same LabelPick trajectory, bitwise-identical final metrics.
#[test]
fn run_schedule_fixed_step_matches_golden_trajectory() {
    let (data, cfg) = fixture();
    let mut engine = Engine::builder(data)
        .config(cfg)
        .budget(ITERS)
        .build()
        .unwrap();
    assert_eq!(
        *engine.schedule(),
        activedp_repro::core::BudgetSchedule::FixedStep
    );
    let outcomes = engine.run_schedule().unwrap();
    assert_eq!(outcomes.len(), ITERS);
    let queries: Vec<_> = outcomes.iter().map(|o| o.query).collect();
    let lf_keys: Vec<_> = outcomes
        .iter()
        .map(|o| o.lf.as_ref().map(|lf| format!("{:?}", lf.key())))
        .collect();
    let n_selected: Vec<_> = outcomes.iter().map(|o| o.n_selected).collect();
    assert_golden_trajectory(&queries, &lf_keys, &n_selected);
    assert_eq!(engine.state().selected, GOLDEN_SELECTED);
    let report = engine.evaluate_downstream().unwrap();
    assert_eq!(
        report.test_accuracy.to_bits(),
        GOLDEN_TEST_ACCURACY.to_bits()
    );
    assert_eq!(
        report.label_coverage.to_bits(),
        GOLDEN_LABEL_COVERAGE.to_bits()
    );
    let tau = report.threshold.expect("ConFusion enabled");
    assert_eq!(tau.to_bits(), GOLDEN_THRESHOLD.to_bits());
    // The budget is respected exactly: a second call is a no-op.
    assert!(engine.run_schedule().unwrap().is_empty());
    assert_eq!(engine.state().iteration, ITERS);
}

/// Schedule parity, part 2: `FixedBatch{k: 1}` is `FixedStep` — identical
/// outcome stream and bitwise-identical post-run snapshots (which pin the
/// fitted parameters and both RNG streams, not just the metrics).
#[test]
fn run_schedule_fixed_batch_one_equals_fixed_step() {
    use activedp_repro::core::BudgetSchedule;
    let run = |schedule: BudgetSchedule| {
        let (data, cfg) = fixture();
        let mut engine = Engine::builder(data)
            .config(cfg)
            .schedule(schedule)
            .budget(ITERS)
            .build()
            .unwrap();
        let outcomes = engine.run_schedule().unwrap();
        let fingerprint: Vec<_> = outcomes
            .iter()
            .map(|o| (o.iteration, o.query, o.n_lfs, o.n_selected))
            .collect();
        let mut snapshot = engine.snapshot().unwrap();
        // The schedule is (rightly) part of the spec the snapshot embeds;
        // normalise it so the comparison pins the *run state* alone.
        snapshot.spec.schedule = BudgetSchedule::FixedStep;
        (fingerprint, snapshot.to_bytes())
    };
    assert_eq!(
        run(BudgetSchedule::FixedStep),
        run(BudgetSchedule::FixedBatch { k: 1 })
    );
}

/// The owned engine is `Send + 'static` — the property the SessionHub and
/// any registry/thread-pool deployment rely on. Compile-time check.
#[test]
fn engine_is_send_and_static() {
    fn assert_send<T: Send + 'static>() {}
    assert_send::<Engine>();
}

/// The durable-session acceptance bar: `run k steps → snapshot → restore
/// in a fresh engine → run the remaining steps` must reproduce the golden
/// trajectory and the uninterrupted engine's final state **bitwise** — for
/// every split point of the trajectory, with the snapshot pushed through
/// its byte encoding (what a spill file or the network front end carries),
/// under both serial and parallel execution.
fn assert_snapshot_resume_matches_golden(parallel: bool) {
    for split in [0usize, 1, 8, ITERS - 1, ITERS] {
        let (data, cfg) = fixture();
        let mut first = Engine::builder(data.clone())
            .config(cfg.clone())
            .parallel(parallel)
            .build()
            .unwrap();
        let mut queries = Vec::new();
        let mut lf_keys = Vec::new();
        let mut n_selected = Vec::new();
        let mut record = |out: &activedp_repro::core::StepOutcome| {
            queries.push(out.query);
            lf_keys.push(out.lf.as_ref().map(|lf| format!("{:?}", lf.key())));
            n_selected.push(out.n_selected);
        };
        for _ in 0..split {
            let out = first.step().unwrap();
            record(&out);
        }

        // Snapshot, roundtrip through the byte codec ("fresh process"), and
        // resume on a fresh engine over a regenerated dataset.
        let snap = first.snapshot().unwrap();
        let bytes = snap.to_bytes();
        drop(first);
        let restored = activedp_repro::core::SessionSnapshot::from_bytes(&bytes).unwrap();
        let fresh_data = generate(DatasetId::Youtube, Scale::Tiny, 7)
            .unwrap()
            .into_shared();
        let mut second = Engine::builder(fresh_data).resume(restored).unwrap();
        assert_eq!(second.state().iteration, split, "resume split={split}");
        for _ in split..ITERS {
            let out = second.step().unwrap();
            record(&out);
        }

        assert_golden_trajectory(&queries, &lf_keys, &n_selected);
        assert_eq!(second.state().selected, GOLDEN_SELECTED, "split={split}");
        let report = second.evaluate_downstream().unwrap();
        assert_eq!(
            report.test_accuracy.to_bits(),
            GOLDEN_TEST_ACCURACY.to_bits(),
            "split={split}: accuracy {} != golden",
            report.test_accuracy
        );
        assert_eq!(
            report.label_coverage.to_bits(),
            GOLDEN_LABEL_COVERAGE.to_bits(),
            "split={split}"
        );
        let tau = report.threshold.expect("ConFusion enabled");
        assert_eq!(tau.to_bits(), GOLDEN_THRESHOLD.to_bits(), "split={split}");

        // Beyond the golden metrics: the resumed engine's *entire* state —
        // matrices, probability caches, fitted parameters, RNG streams —
        // matches a run that never stopped, so a second snapshot taken now
        // is byte-identical.
        let (data, cfg) = fixture();
        let mut uninterrupted = Engine::builder(data)
            .config(cfg)
            .parallel(parallel)
            .build()
            .unwrap();
        uninterrupted.run(ITERS).unwrap();
        assert_eq!(
            second.state(),
            uninterrupted.state(),
            "split={split}: post-resume states diverge"
        );
        assert_eq!(
            second.snapshot().unwrap().to_bytes(),
            uninterrupted.snapshot().unwrap().to_bytes(),
            "split={split}: post-resume snapshots diverge"
        );
    }
}

#[test]
fn snapshot_resume_matches_golden_trajectory_parallel() {
    assert_snapshot_resume_matches_golden(true);
}

#[test]
fn snapshot_resume_matches_golden_trajectory_serial() {
    assert_snapshot_resume_matches_golden(false);
}

/// A serial-execution snapshot resumed under parallel execution (and vice
/// versa) still reproduces the golden run: execution policy is scheduling
/// only, so it is legitimate for a snapshot to migrate between a laptop
/// and a many-core server.
#[test]
fn snapshot_migrates_across_execution_policies() {
    let run = |first_parallel: bool, second_parallel: bool| {
        let (data, cfg) = fixture();
        let mut e = Engine::builder(data)
            .config(cfg)
            .parallel(first_parallel)
            .build()
            .unwrap();
        e.run(7).unwrap();
        let mut snap = e.snapshot().unwrap();
        snap.spec.session.parallel = second_parallel;
        let fresh = generate(DatasetId::Youtube, Scale::Tiny, 7)
            .unwrap()
            .into_shared();
        let mut resumed = Engine::builder(fresh).resume(snap).unwrap();
        while resumed.state().iteration < ITERS {
            resumed.step().unwrap();
        }
        let report = resumed.evaluate_downstream().unwrap();
        report.test_accuracy.to_bits()
    };
    assert_eq!(run(true, false), GOLDEN_TEST_ACCURACY.to_bits());
    assert_eq!(run(false, true), GOLDEN_TEST_ACCURACY.to_bits());
}

/// Snapshotting is read-only: taking one mid-run must not perturb the
/// trajectory that continues in the same engine.
#[test]
fn snapshot_is_side_effect_free() {
    let (data, cfg) = fixture();
    let mut engine = Engine::builder(data).config(cfg).build().unwrap();
    let mut queries = Vec::new();
    let mut lf_keys = Vec::new();
    let mut n_selected = Vec::new();
    for _ in 0..ITERS {
        let _ = engine.snapshot().unwrap();
        let out = engine.step().unwrap();
        queries.push(out.query);
        lf_keys.push(out.lf.as_ref().map(|lf| format!("{:?}", lf.key())));
        n_selected.push(out.n_selected);
    }
    assert_golden_trajectory(&queries, &lf_keys, &n_selected);
    let report = engine.evaluate_downstream().unwrap();
    assert_eq!(
        report.test_accuracy.to_bits(),
        GOLDEN_TEST_ACCURACY.to_bits()
    );
}
