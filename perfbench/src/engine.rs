//! The engine workloads: one paper-scale labelling session driven through
//! `Engine::run_schedule_batches(1)`, one refit-bearing batch per call —
//! the user's wait between answering a query and seeing the next one.
//!
//! * `census-step` — Census, `FixedStep`, budget 100: refit-bound, with
//!   LabelPick dominating.
//! * `imdb-batch` — IMDB (sparse TF-IDF), `FixedBatch{k: 5}`, budget 500:
//!   100 refits over ~200 LFs, with sampling and querying visible.
//!
//! The dataset is fixed; the run's seed picks a panel of session seeds.
//! Timed: dataset generation + assembly (seven times, for `setup_s`), then
//! whole sessions of the panel until `--seconds` of loop time has passed,
//! each followed by one `evaluate_downstream`. Checked afterwards on the
//! last session: the inference layers recombine to its evaluation, and a
//! spilled and resumed snapshot restores the same state. The traced run
//! (`--trace 1`) also replays that session through the public stages
//! ([`Shadow`]), whose final state must equal the engine's, and serves it
//! a few steps further (`served::probe`).

use crate::report::Report;
use crate::shadow::Shadow;
use crate::stats::{mean, median, position_medians, quantile, tail};
use crate::{proc_value, timed, Args, BenchResult, Workload};
use activedp::{AggregatedLabels, BudgetSchedule, Engine, EvalReport, ScenarioSpec};
use adp_classifier::{LogRegConfig, LogisticRegression, Targets};
use adp_data::{DatasetId, DatasetSpec, Scale, SplitDataset};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Timed sessions per run, at least; more while `--seconds` is not spent.
/// Census waits ramp steeply as LabelPick's LF set grows, so the median
/// wait of a panel of sessions settles only with six of them.
fn min_sessions(workload: Workload) -> usize {
    match workload {
        Workload::CensusStep => 6,
        _ => 3,
    }
}
/// Steps the traced run serves past the end of the session.
const PROBE_STEPS: usize = 3;
/// The dataset is fixed, as the paper's are; the run's seed drives the
/// sessions: the simulated user's answers and the sampler's tie-breaks.
const DATA_SEED: u64 = 7;
/// Session `i` of a run has session seed `seed + i · SESSION_STRIDE`.
const SESSION_STRIDE: u64 = 1_000_003;

/// The scenario of the run's `i`-th timed session.
fn scenario(args: &Args, i: usize) -> ScenarioSpec {
    let (id, schedule, budget) = match args.workload {
        Workload::CensusStep => (DatasetId::Census, BudgetSchedule::FixedStep, 100),
        _ => (DatasetId::Imdb, BudgetSchedule::FixedBatch { k: 5 }, 500),
    };
    let scale = if args.tiny { Scale::Tiny } else { Scale::Paper };
    let mut spec = ScenarioSpec::new(DatasetSpec {
        id,
        scale,
        seed: DATA_SEED,
    });
    spec.session.seed = args.seed.wrapping_add(i as u64 * SESSION_STRIDE);
    spec.schedule = schedule;
    // Tiny pools hold a few hundred instances: keep the smoke loop short.
    spec.budget = if args.tiny { budget / 5 } else { budget };
    spec
}

pub fn run(args: &Args) -> BenchResult<Report> {
    let mut report = Report::default();

    // Set-up: dataset generation, then session assembly.
    let (mut generate_s, mut assemble_s, mut setup_s) = (vec![], vec![], vec![]);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let data = scenario(args, 0).dataset.generate();
        report.setup.record(&data);
        let data = data?.into_shared();
        let generated = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let engine = Engine::from_spec_over(scenario(args, 0), data.clone());
        report.setup.record(&engine);
        let engine = engine?;
        let assembled = start.elapsed().as_secs_f64();
        generate_s.push(generated);
        assemble_s.push(assembled);
        setup_s.push(generated + assembled);
        built = Some((data, engine));
    }
    let (data, first) = built.expect("at least one set-up");

    // Timed loop: sessions of the run's seeds until the window is spent.
    let mut next = Some(first);
    let (mut sessions, mut evaluate_s, mut reports) = (vec![], vec![], vec![]);
    let mut session_s = vec![];
    let wchar_before = proc_value("io", "wchar:");
    let engine = loop {
        let mut engine = match next.take() {
            Some(engine) => engine,
            None => Engine::from_spec_over(scenario(args, sessions.len()), data.clone())?,
        };
        let mut waits = vec![];
        let start = Instant::now();
        loop {
            let run = timed(&mut waits, || engine.run_schedule_batches(1));
            report.run.record(&run);
            if run?.done {
                break;
            }
        }
        session_s.push(start.elapsed().as_secs_f64());
        sessions.push(waits);
        let eval = timed(&mut evaluate_s, || engine.evaluate_downstream());
        report.evaluate.record(&eval);
        reports.push(eval?);
        let spent = session_s.iter().sum::<f64>() >= args.seconds;
        if spent && sessions.len() >= min_sessions(args.workload) {
            break engine;
        }
    };
    let calls = sessions[0].len();
    let iterations = engine.state().iteration;
    let io_per_call = (proc_value("io", "wchar:") - wchar_before) / (calls * sessions.len()) as f64;
    let peak_rss_mb = proc_value("status", "VmHWM:") / 1024.0;
    report.check(
        "sessions_align",
        sessions.iter().all(|s| s.len() == calls),
        format!("{} sessions of {calls} calls each", sessions.len()),
    );
    // The median session: each call's median over the sessions.
    let waits = position_medians(&sessions);
    let median_loop_s: f64 = waits.iter().sum();
    report.note(format!(
        "timed {} sessions of {iterations} iterations in {calls} calls, {session_s:.3?} s each; \
         median session {median_loop_s:.3} s (each call's median over the sessions)",
        sessions.len()
    ));

    report.set("setup_s", median(&setup_s), Some(setup_s.len()));
    report.set(
        "queries_per_s",
        iterations as f64 / median_loop_s,
        Some(iterations),
    );
    report.set("ops_per_s", calls as f64 / median_loop_s, Some(calls));
    report.set("wait_p50_ms", median(&waits) * 1e3, Some(waits.len()));
    report.set(
        "wait_p90_ms",
        quantile(&waits, 0.9) * 1e3,
        Some(waits.len()),
    );
    let (p, tail_s) = tail(&waits);
    report.note(format!("wait_tail_ms is p{p} of {} waits", waits.len()));
    report.set("wait_tail_ms", tail_s * 1e3, Some(waits.len()));
    report.set("evaluate_s", median(&evaluate_s), Some(evaluate_s.len()));
    let mean_of = |f: fn(&EvalReport) -> f64| mean(&reports.iter().map(f).collect::<Vec<_>>());
    let n = Some(reports.len());
    report.set("test_accuracy", mean_of(|r| r.test_accuracy), n);
    report.set(
        "label_accuracy",
        mean_of(|r| r.label_accuracy.unwrap_or(f64::NAN)),
        n,
    );
    report.set("label_coverage", mean_of(|r| r.label_coverage), n);
    report.set("peak_rss_mb", peak_rss_mb, None);
    report.set("ok_ops_share", report.ok_share(), None);
    // Checks on the last session, after the timed window: inference split
    // in two, then spill and resume, whose refit re-derives the session's
    // last LabelPick selection and model outputs from its LFs.
    let spec = scenario(args, sessions.len() - 1);
    let evaluated = reports.last().expect("at least one session");
    let (mut aggregate_s, mut downstream_s) = (vec![], vec![]);
    let agg = timed(&mut aggregate_s, || engine.aggregate_train_labels())?;
    let test_accuracy = timed(&mut downstream_s, || {
        downstream_accuracy(&spec, &data, &agg)
    })?;
    report.check(
        "inference_split_equals_evaluate",
        test_accuracy.to_bits() == evaluated.test_accuracy.to_bits()
            && agg.coverage().to_bits() == evaluated.label_coverage.to_bits(),
        format!("test_accuracy {test_accuracy}"),
    );
    let path = args.scratch.join("session.adpsnap");
    let (spill_s, resume_s, same) = crate::served::spill_and_resume(&path, &engine, data.clone())?;
    report.check(
        "resumed_state_equals_engine",
        same,
        format!("after {} iterations", engine.state().iteration),
    );
    if !args.trace {
        return Ok(report);
    }

    // The traced run: the last session replayed through the public stages.
    let mut shadow = Shadow::new(&spec, data.clone())?;
    shadow.run_schedule()?;
    report.check(
        "shadow_state_equals_engine",
        shadow.state() == engine.state(),
        format!("after {} iterations", engine.state().iteration),
    );
    let times = shadow.times;
    let stage_share = times.stage_sum() / times.loop_s;
    report.check(
        "stage_spans_cover_loop",
        stage_share >= 0.97,
        format!("{stage_share:.4} of the traced loop"),
    );
    // The served layers on this session: a few more steps through a
    // server, a twin hub and a solo engine.
    let probe = crate::served::probe(&args.scratch, data, engine.snapshot()?, PROBE_STEPS)?;
    report.check(
        "served_probe_agrees",
        probe.agrees,
        format!("{PROBE_STEPS} more steps served, in-process and solo end alike"),
    );

    report.set(
        "data.generate_s",
        median(&generate_s),
        Some(generate_s.len()),
    );
    report.set(
        "core.assemble_s",
        median(&assemble_s),
        Some(assemble_s.len()),
    );
    set_stage_metrics(&mut report, &times);
    report.set("inference.aggregate_s", aggregate_s[0], Some(1));
    report.set("inference.downstream_s", downstream_s[0], Some(1));
    report.set("engine.step_s", mean(&waits), Some(waits.len()));
    let n = Some(PROBE_STEPS);
    report.set(
        "engine.step_share",
        probe.engine_step_s / probe.client_step_s,
        n,
    );
    report.set("frontend.self_s", probe.client_step_s - probe.hub_step_s, n);
    report.set("hub.step_s", probe.hub_step_s, n);
    report.set("hub.self_s", probe.hub_step_s - probe.engine_step_s, n);
    report.set("wal.appends", probe.appends as f64, None);
    report.set("wal.append_s", probe.append_s, Some(probe.appends));
    report.set("wal.bytes", probe.wal_bytes as f64, Some(probe.appends));
    // Nothing is evicted: the session is the only one.
    report.set("tier.evictions", 0.0, None);
    report.set("tier.resumes", 0.0, None);
    report.set("tier.hit_ratio", 1.0, None);
    report.set("tier.spill_s", spill_s, Some(1));
    report.set("tier.resume_s", resume_s, Some(1));
    report.set("io.wchar_per_op", io_per_call, Some(calls * reports.len()));
    report.set("trace.stage_share", stage_share, None);
    // The shadow replayed the last session; compare with its timed run.
    let untraced_s = session_s.last().expect("at least one session");
    report.set("trace.overhead", times.loop_s / untraced_s - 1.0, None);
    Ok(report)
}

/// The downstream half of `evaluate_downstream`: trains the downstream
/// model on the aggregated labels and returns its test accuracy.
pub fn downstream_accuracy(
    spec: &ScenarioSpec,
    data: &SplitDataset,
    agg: &AggregatedLabels,
) -> BenchResult<f64> {
    let rows: Vec<usize> = (0..agg.labels.len())
        .filter(|&i| agg.labels[i].is_some())
        .collect();
    if rows.is_empty() {
        return Ok(adp_classifier::accuracy(
            &vec![0; data.test.len()],
            &data.test.labels,
        ));
    }
    let targets: Vec<Vec<f64>> = rows
        .iter()
        .map(|&i| agg.labels[i].clone().expect("covered row"))
        .collect();
    let cfg = &spec.session;
    let mut downstream = LogisticRegression::new(
        data.train.n_classes,
        adp_linalg::Features::ncols(&data.train.features),
        LogRegConfig {
            parallel: cfg.downstream_logreg.parallel && cfg.parallel,
            ..cfg.downstream_logreg
        },
    );
    downstream.fit(&data.train.features, &rows, Targets::Soft(&targets), None)?;
    let preds: Vec<usize> = (0..data.test.len())
        .map(|i| downstream.predict(&data.test.features, i))
        .collect();
    Ok(adp_classifier::accuracy(&preds, &data.test.labels))
}

/// The per-stage metrics of a traced replay.
pub fn set_stage_metrics(report: &mut Report, times: &crate::shadow::StageTimes) {
    let calls = |n: u64| Some(n as usize);
    report.set("sampling.calls", times.sampling_calls as f64, None);
    report.set(
        "sampling.busy_s",
        times.sampling_s,
        calls(times.sampling_calls),
    );
    report.set("querying.calls", times.querying_calls as f64, None);
    report.set(
        "querying.busy_s",
        times.querying_s,
        calls(times.querying_calls),
    );
    report.set(
        "querying.lf_yield",
        times.lfs_returned as f64 / times.querying_calls.max(1) as f64,
        calls(times.querying_calls),
    );
    let picks = times.labelpick_calls.max(1) as f64;
    report.set("labelpick.calls", times.labelpick_calls as f64, None);
    report.set(
        "labelpick.busy_s",
        times.labelpick_s,
        calls(times.labelpick_calls),
    );
    report.set(
        "labelpick.lfs_mean",
        times.labelpick_lfs as f64 / picks,
        calls(times.labelpick_calls),
    );
    report.set(
        "labelpick.selected_mean",
        times.labelpick_selected as f64 / picks,
        calls(times.labelpick_calls),
    );
    report.set(
        "labelpick.loop_share",
        times.labelpick_s / times.loop_s,
        None,
    );
    report.set(
        "labelmodel.fit_s",
        times.lm_fit_s,
        calls(times.labelpick_calls),
    );
    report.set(
        "labelmodel.predict_s",
        times.lm_predict_s,
        calls(times.labelpick_calls),
    );
    report.set("al.fit_s", times.al_fit_s, calls(times.labelpick_calls));
    report.set(
        "al.predict_s",
        times.al_predict_s,
        calls(times.labelpick_calls),
    );
}
