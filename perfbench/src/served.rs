//! The served workload, `served-churn`: one closed-loop client connection
//! to an in-process `adp_serve::Server` on loopback, over a 2-shard hub
//! that keeps at most 8 of its 24 live Youtube `Tiny` sessions resident.
//!
//! The datasets are fixed; the seed drives the session seeds and the op
//! log. Each log entry draws a session slot from a skewed distribution and
//! steps it, or — once the slot's session has taken [`RETIRE_AT`] steps —
//! retires it (`evaluate`, `close`) and opens its replacement
//! (`create_spec`). Journalled steps, evictions, resumes and evaluate reads
//! therefore interleave exactly alike on every run of a seed.
//!
//! Timed: rounds of the whole log, each on a fresh server whose spill and
//! journal directory lives under `--scratch`, at least [`MIN_ROUNDS`] and
//! until `--seconds` of loop time has passed; each request's latency is its
//! median over the rounds. Checked afterwards: every round retired the same
//! sessions with bitwise-equal evaluations and the same eviction and resume
//! counts, and each retired session's evaluation equals a solo
//! `Engine::from_spec` stepped as often. The traced run (`--trace 1`)
//! additionally replays the log into a twin `SessionHub` with no front end,
//! replays each retired session through the public stages, and times the
//! journal, spill and resume layers on the solo engines.

use crate::engine::{downstream_accuracy, set_stage_metrics};
use crate::report::{Phase, Report};
use crate::shadow::{Shadow, StageTimes};
use crate::stats::{mean, median, position_medians, quantile, tail};
use crate::{proc_value, timed, Args, BenchResult};
use activedp::{
    BudgetSchedule, Engine, EngineBuilder, EvalReport, ScenarioSpec, SessionSnapshot, StepEvent,
    StepObserver, StepOutcome,
};
use adp_data::{DatasetId, DatasetSpec, Scale, SharedDataset};
use adp_serve::{Client, EvalReply, Server, SessionHub, SessionId};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per run (timed rounds included); `setup_s` is their median.
const SETUP_REPS: usize = 7;
const SHARDS: usize = 2;
const MAX_RESIDENT: usize = 8;
const LIVE: usize = 24;
/// The sessions spread over datasets `DATA_SEED .. DATA_SEED + DATA_SEEDS`.
const DATA_SEED: u64 = 42;
const DATA_SEEDS: u64 = 3;
/// Timed rounds per run, at least; more while `--seconds` is not spent.
const MIN_ROUNDS: usize = 3;
/// Steps after which a session is retired and replaced.
const RETIRE_AT: usize = 30;
/// Ops (protocol requests) per round; the smoke test runs fewer.
const OPS: usize = 2000;
const SMOKE_OPS: usize = 300;
/// Slot skew: slot = ⌊LIVE · u^SKEW⌋ for uniform u, so low slots are hot.
const SKEW: f64 = 2.0;

/// One entry of the op log.
#[derive(Debug, Clone, Copy)]
enum Op {
    Step(usize),
    /// `evaluate` + `close` of the slot's session, then `create_spec` of
    /// its replacement.
    Retire(usize),
}

/// SplitMix64: a seeded, dependency-free generator for the op log.
struct SplitMix(u64);

impl SplitMix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn op_log(seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = SplitMix(seed);
    let mut steps = [0usize; LIVE];
    let (mut log, mut issued) = (vec![], 0);
    while issued < ops {
        let slot = ((LIVE as f64) * rng.next_f64().powf(SKEW)) as usize;
        if steps[slot] == RETIRE_AT {
            steps[slot] = 0;
            log.push(Op::Retire(slot));
            issued += 3;
        } else {
            steps[slot] += 1;
            log.push(Op::Step(slot));
            issued += 1;
        }
    }
    log
}

/// The scenario of the `n`-th session opened in a round. The datasets are
/// fixed; the run's seed drives the sessions and the op log.
fn spec_for(seed: u64, n: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(DatasetSpec {
        id: DatasetId::Youtube,
        scale: Scale::Tiny,
        seed: DATA_SEED + n % DATA_SEEDS,
    });
    spec.session.seed = seed.wrapping_mul(1000).wrapping_add(n);
    spec.schedule = BudgetSchedule::FixedStep;
    spec.budget = RETIRE_AT;
    spec
}

/// An evaluation, compared bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Eval {
    test_accuracy: u64,
    label_accuracy: Option<u64>,
    label_coverage: u64,
    threshold: Option<u64>,
    n_selected: u64,
    downstream_trained: bool,
}

impl From<&EvalReply> for Eval {
    fn from(r: &EvalReply) -> Eval {
        Eval {
            test_accuracy: r.test_accuracy.to_bits(),
            label_accuracy: r.label_accuracy.map(f64::to_bits),
            label_coverage: r.label_coverage.to_bits(),
            threshold: r.threshold.map(f64::to_bits),
            n_selected: r.n_selected,
            downstream_trained: r.downstream_trained,
        }
    }
}

impl From<&EvalReport> for Eval {
    fn from(r: &EvalReport) -> Eval {
        Eval {
            test_accuracy: r.test_accuracy.to_bits(),
            label_accuracy: r.label_accuracy.map(f64::to_bits),
            label_coverage: r.label_coverage.to_bits(),
            threshold: r.threshold.map(f64::to_bits),
            n_selected: r.n_selected as u64,
            downstream_trained: r.downstream_trained,
        }
    }
}

/// Where the op log is sent: the network client or the twin hub.
trait Target {
    fn create(&mut self, spec: &ScenarioSpec) -> Result<u64, String>;
    fn step(&mut self, id: u64) -> Result<(), String>;
    fn evaluate(&mut self, id: u64) -> Result<Eval, String>;
    fn close(&mut self, id: u64) -> Result<(), String>;
}

impl Target for Client {
    fn create(&mut self, spec: &ScenarioSpec) -> Result<u64, String> {
        self.create_spec(spec).map_err(|e| e.to_string())
    }
    fn step(&mut self, id: u64) -> Result<(), String> {
        Client::step(self, id).map(drop).map_err(|e| e.to_string())
    }
    fn evaluate(&mut self, id: u64) -> Result<Eval, String> {
        Client::evaluate(self, id)
            .map(|r| Eval::from(&r))
            .map_err(|e| e.to_string())
    }
    fn close(&mut self, id: u64) -> Result<(), String> {
        self.close_session(id).map_err(|e| e.to_string())
    }
}

impl Target for SessionHub {
    fn create(&mut self, spec: &ScenarioSpec) -> Result<u64, String> {
        self.create_from_spec(spec.clone())
            .map(SessionId::raw)
            .map_err(|e| e.to_string())
    }
    fn step(&mut self, id: u64) -> Result<(), String> {
        SessionHub::step(self, SessionId::from_raw(id))
            .map(drop)
            .map_err(|e| e.to_string())
    }
    fn evaluate(&mut self, id: u64) -> Result<Eval, String> {
        SessionHub::evaluate(self, SessionId::from_raw(id))
            .map(|r| Eval::from(&r))
            .map_err(|e| e.to_string())
    }
    fn close(&mut self, id: u64) -> Result<(), String> {
        SessionHub::close(self, SessionId::from_raw(id)).map_err(|e| e.to_string())
    }
}

/// What one pass of the op log did.
#[derive(Default)]
struct Replay {
    setup_s: f64,
    /// Latency of every request of the loop, in op-log order.
    latencies: Vec<f64>,
    /// Positions of the `step` and `evaluate` requests in `latencies`.
    steps: Vec<usize>,
    evaluates: Vec<usize>,
    /// Bytes this process wrote during the loop (sockets and files).
    written: f64,
    /// `(session number, evaluation)` of every retired session, in order.
    retired: Vec<(u64, Eval)>,
    setup: Phase,
    run: Phase,
    evaluate: Phase,
}

impl Replay {
    fn at(latencies: &[f64], positions: &[usize]) -> Vec<f64> {
        positions.iter().map(|&j| latencies[j]).collect()
    }

    fn step_waits(&self) -> Vec<f64> {
        Self::at(&self.latencies, &self.steps)
    }
}

/// Opens the live set, then sends the whole op log, timing each request.
fn replay(target: &mut dyn Target, seed: u64, log: &[Op]) -> Replay {
    let mut out = Replay::default();
    let start = Instant::now();
    let mut slots: Vec<(u64, Option<u64>)> = (0..LIVE as u64)
        .map(|n| {
            let id = target.create(&spec_for(seed, n));
            out.setup.record(&id);
            (n, id.ok())
        })
        .collect();
    out.setup_s = start.elapsed().as_secs_f64();
    let mut next_n = LIVE as u64;
    let written = proc_value("io", "wchar:");
    for op in log {
        match *op {
            Op::Step(slot) => {
                let Some(id) = slots[slot].1 else { continue };
                out.steps.push(out.latencies.len());
                let result = timed(&mut out.latencies, || target.step(id));
                out.run.record(&result);
            }
            Op::Retire(slot) => {
                let (n, id) = slots[slot];
                if let Some(id) = id {
                    out.evaluates.push(out.latencies.len());
                    let eval = timed(&mut out.latencies, || target.evaluate(id));
                    out.evaluate.record(&eval);
                    if let Ok(eval) = eval {
                        out.retired.push((n, eval));
                    }
                    let closed = timed(&mut out.latencies, || target.close(id));
                    out.run.record(&closed);
                }
                let id = timed(&mut out.latencies, || {
                    target.create(&spec_for(seed, next_n))
                });
                out.run.record(&id);
                slots[slot] = (next_n, id.ok());
                next_n += 1;
            }
        }
    }
    out.written = proc_value("io", "wchar:") - written;
    out
}

/// One timed round: a fresh server, one client connection, the whole log.
/// Returns the replay and the round's (evictions, resumes).
fn served_round(dir: &Path, seed: u64, log: &[Op]) -> BenchResult<(Replay, (u64, u64))> {
    let setup = Instant::now();
    let hub = SessionHub::with_spill_dir(SHARDS, dir).with_memory_budget(MAX_RESIDENT);
    let server =
        Server::bind_with_timeout("127.0.0.1:0", Arc::new(hub), Some(Duration::from_secs(120)))?;
    let mut client = Client::connect(server.addr())?;
    let connect_s = setup.elapsed().as_secs_f64();
    let mut round = replay(&mut client, seed, log);
    round.setup_s += connect_s;
    let metrics = server.hub().metrics();
    let tier = (metrics.evicted_total.get(), metrics.resumed_total.get());
    drop(client);
    drop(server.shutdown());
    Ok((round, tier))
}

/// Captures a solo engine's journal events.
struct EventTap(Arc<Mutex<Vec<StepEvent>>>);

impl StepObserver for EventTap {
    fn on_step(&mut self, _outcome: &StepOutcome) {}
    fn wants_events(&self) -> bool {
        true
    }
    fn on_event(&mut self, event: &StepEvent) {
        self.0.lock().expect("tap lock").push(event.clone());
    }
}

/// Appends `events` to a fresh journal in `dir` whose checkpoint is
/// `checkpoint`, timing each append; returns the bytes appended.
fn journal(
    dir: &Path,
    spec: ScenarioSpec,
    checkpoint: usize,
    events: &[StepEvent],
    append_s: &mut Vec<f64>,
) -> BenchResult<usize> {
    let mut journal = adp_wal::Journal::create(dir, 0, spec, checkpoint)?;
    let mut bytes = 0;
    for event in events {
        timed(append_s, || journal.append(event))?;
        bytes += adp_wal::segment::encode_record(event).len();
    }
    Ok(bytes)
}

/// Spills `engine` to `path` (`snapshot().to_bytes()` + atomic write) and
/// resumes it from there; returns both times and whether the resumed state
/// equals the original.
pub fn spill_and_resume(
    path: &Path,
    engine: &Engine,
    data: SharedDataset,
) -> BenchResult<(f64, f64, bool)> {
    let t = Instant::now();
    adp_wire::atomic::atomic_write(path, &engine.snapshot()?.to_bytes())?;
    let spill_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let snapshot = SessionSnapshot::from_bytes(&std::fs::read(path)?)?;
    let resumed = EngineBuilder::new(data).resume(snapshot)?;
    let resume_s = t.elapsed().as_secs_f64();
    Ok((spill_s, resume_s, resumed.state() == engine.state()))
}

/// One session served for a few more steps three ways — through the front
/// end, through a twin hub in-process, and on a solo engine — with per-call
/// means of each and of the journal appends. See [`probe`].
pub struct Probe {
    pub client_step_s: f64,
    pub hub_step_s: f64,
    pub engine_step_s: f64,
    pub append_s: f64,
    pub appends: usize,
    pub wal_bytes: usize,
    /// Whether all three ended in bitwise-equal snapshots.
    pub agrees: bool,
}

/// Resumes `snapshot` behind a one-shard hub and a server, behind a twin
/// hub, and as a solo engine, steps each `steps` times, and journals the
/// solo engine's events: the served layers' cost on a session of any size.
pub fn probe(
    dir: &Path,
    data: SharedDataset,
    snapshot: SessionSnapshot,
    steps: usize,
) -> BenchResult<Probe> {
    let hub = Arc::new(SessionHub::with_spill_dir(1, dir.join("served")));
    let id = hub.restore(data.clone(), snapshot.clone())?;
    let server = Server::bind_with_timeout("127.0.0.1:0", hub.clone(), None)?;
    let mut client = Client::connect(server.addr())?;
    let mut client_s = vec![];
    for _ in 0..steps {
        timed(&mut client_s, || client.step(id.raw()))?;
    }
    drop(client);
    drop(server.shutdown());
    let served = hub.snapshot(id)?.to_bytes();

    let twin = SessionHub::with_spill_dir(1, dir.join("twin"));
    let twin_id = twin.restore(data.clone(), snapshot.clone())?;
    let mut hub_s = vec![];
    for _ in 0..steps {
        timed(&mut hub_s, || twin.step(twin_id))?;
    }
    let twinned = twin.snapshot(twin_id)?.to_bytes();

    let checkpoint = snapshot.state.iteration;
    let spec = snapshot.spec.clone();
    let events = Arc::new(Mutex::new(vec![]));
    let mut solo = EngineBuilder::new(data).resume(snapshot)?;
    solo.add_observer(EventTap(events.clone()));
    let mut engine_s = vec![];
    for _ in 0..steps {
        timed(&mut engine_s, || solo.step())?;
    }
    let alone = solo.snapshot()?.to_bytes();

    let mut append_s = vec![];
    let events = events.lock().expect("tap lock");
    let wal_bytes = journal(&dir.join("wal"), spec, checkpoint, &events, &mut append_s)?;
    Ok(Probe {
        client_step_s: mean(&client_s),
        hub_step_s: mean(&hub_s),
        engine_step_s: mean(&engine_s),
        append_s: mean(&append_s),
        appends: append_s.len(),
        wal_bytes,
        agrees: served == alone && twinned == alone,
    })
}

/// Per-layer timings of the solo replays of the retired sessions.
#[derive(Default)]
struct SoloTrace {
    generate_s: Vec<f64>,
    assemble_s: Vec<f64>,
    step_s: Vec<f64>,
    stages: StageTimes,
    aggregate_s: Vec<f64>,
    downstream_s: Vec<f64>,
    append_s: Vec<f64>,
    wal_bytes: usize,
    spill_s: Vec<f64>,
    resume_s: Vec<f64>,
}

/// Steps a solo engine per retired session and compares its evaluation
/// with the served one; with `trace`, also replays each session through
/// the public stages and times the journal, spill and resume layers.
fn solo_check(
    args: &Args,
    report: &mut Report,
    retired: &[(u64, Eval)],
    trace: bool,
) -> BenchResult<SoloTrace> {
    let mut out = SoloTrace::default();
    let mut datasets: HashMap<u64, SharedDataset> = HashMap::new();
    let mut mismatches = vec![];
    for &(n, served) in retired {
        let spec = spec_for(args.seed, n);
        let data = match datasets.get(&spec.dataset.seed) {
            Some(data) => data.clone(),
            None => {
                let data = timed(&mut out.generate_s, || spec.dataset.generate())?.into_shared();
                datasets.insert(spec.dataset.seed, data.clone());
                data
            }
        };
        let mut solo = timed(&mut out.assemble_s, || {
            Engine::from_spec_over(spec.clone(), data.clone())
        })?;
        let events = Arc::new(Mutex::new(vec![]));
        if trace {
            solo.add_observer(EventTap(events.clone()));
        }
        for _ in 0..RETIRE_AT {
            timed(&mut out.step_s, || solo.step())?;
        }
        let eval = solo.evaluate_downstream()?;
        if Eval::from(&eval) != served {
            mismatches.push(n);
        }
        if !trace {
            continue;
        }

        let mut shadow = Shadow::new(&spec, data.clone())?;
        for _ in 0..RETIRE_AT {
            shadow.step_batch(1)?;
        }
        if shadow.state() != solo.state() {
            mismatches.push(n);
        }
        out.stages.add(&shadow.times);

        let agg = timed(&mut out.aggregate_s, || solo.aggregate_train_labels())?;
        let accuracy = timed(&mut out.downstream_s, || {
            downstream_accuracy(&spec, &data, &agg)
        })?;
        if accuracy.to_bits() != served.test_accuracy {
            mismatches.push(n);
        }

        let events = events.lock().expect("tap lock");
        let wal = args.scratch.join(format!("wal-{n}"));
        out.wal_bytes += journal(&wal, spec, 0, &events, &mut out.append_s)?;

        let path = args.scratch.join(format!("session-{n}.adpsnap"));
        let (spill_s, resume_s, same) = spill_and_resume(&path, &solo, data)?;
        out.spill_s.push(spill_s);
        out.resume_s.push(resume_s);
        if !same {
            mismatches.push(n);
        }
    }
    report.check(
        "retired_evaluations_equal_solo_engines",
        mismatches.is_empty(),
        format!(
            "{} retired sessions; mismatched: {mismatches:?}",
            retired.len()
        ),
    );
    Ok(out)
}

pub fn run(args: &Args) -> BenchResult<Report> {
    let mut report = Report::default();
    let log = op_log(args.seed, if args.tiny { SMOKE_OPS } else { OPS });

    // Timed rounds of the same log until the window is spent.
    let (mut rounds, mut tiers, mut setup_s) = (vec![], vec![], vec![]);
    let mut loop_s = 0.0;
    while loop_s < args.seconds || rounds.len() < MIN_ROUNDS {
        let dir = args.scratch.join(format!("round-{}", rounds.len()));
        let (round, tier) = served_round(&dir, args.seed, &log)?;
        loop_s += round.latencies.iter().sum::<f64>();
        setup_s.push(round.setup_s);
        tiers.push(tier);
        rounds.push(round);
    }
    let peak_rss_mb = proc_value("status", "VmHWM:") / 1024.0;
    // More set-ups without a loop, until `setup_s` has its samples.
    while setup_s.len() < SETUP_REPS {
        let dir = args.scratch.join(format!("setup-{}", setup_s.len()));
        let (replay, _) = served_round(&dir, args.seed, &[])?;
        setup_s.push(replay.setup_s);
        report.setup.add(replay.setup);
    }
    for round in &rounds {
        report.setup.add(round.setup);
        report.run.add(round.run);
        report.evaluate.add(round.evaluate);
    }
    let first = &rounds[0];
    let (evictions, resumes) = tiers[0];
    report.check(
        "rounds_agree",
        rounds.iter().all(|r| {
            r.retired == first.retired
                && r.steps == first.steps
                && r.evaluates == first.evaluates
                && r.latencies.len() == first.latencies.len()
        }) && tiers.iter().all(|&t| t == tiers[0]),
        "every round retired the same sessions with bitwise-equal evaluations, \
         sent the same requests and saw the same eviction and resume counts",
    );
    // The median round: each request's median latency over the rounds.
    let all: Vec<Vec<f64>> = rounds.iter().map(|r| r.latencies.clone()).collect();
    let latencies = position_medians(&all);
    let median_loop_s: f64 = latencies.iter().sum();
    let waits = Replay::at(&latencies, &first.steps);
    let evaluate_waits = Replay::at(&latencies, &first.evaluates);
    let ops = latencies.len();
    let round_s: Vec<f64> = all.iter().map(|r| r.iter().sum()).collect();
    report.note(format!(
        "timed {} rounds of {ops} requests ({} steps, {} retirements), {round_s:.3?} s each; \
         median round {median_loop_s:.3} s (each request's median over the rounds); \
         {evictions} evictions, {resumes} resumes per round",
        rounds.len(),
        waits.len(),
        first.retired.len(),
    ));

    report.set("setup_s", median(&setup_s), Some(setup_s.len()));
    report.set(
        "queries_per_s",
        waits.len() as f64 / median_loop_s,
        Some(waits.len()),
    );
    report.set("ops_per_s", ops as f64 / median_loop_s, Some(ops));
    report.set("wait_p50_ms", median(&waits) * 1e3, Some(waits.len()));
    report.set(
        "wait_p90_ms",
        quantile(&waits, 0.9) * 1e3,
        Some(waits.len()),
    );
    let (p, tail_s) = tail(&waits);
    report.note(format!("wait_tail_ms is p{p} of {} waits", waits.len()));
    report.set("wait_tail_ms", tail_s * 1e3, Some(waits.len()));
    report.set(
        "evaluate_s",
        median(&evaluate_waits),
        Some(evaluate_waits.len()),
    );
    let retired = &first.retired;
    let bits_mean = |f: &dyn Fn(&Eval) -> Option<u64>| {
        let values: Vec<f64> = retired
            .iter()
            .filter_map(|(_, e)| f(e).map(f64::from_bits))
            .collect();
        (mean(&values), values.len())
    };
    for (name, (value, n)) in [
        ("test_accuracy", bits_mean(&|e| Some(e.test_accuracy))),
        ("label_accuracy", bits_mean(&|e| e.label_accuracy)),
        ("label_coverage", bits_mean(&|e| Some(e.label_coverage))),
    ] {
        report.set(name, value, Some(n));
    }
    report.set("peak_rss_mb", peak_rss_mb, None);
    report.set("ok_ops_share", report.ok_share(), None);

    // Correctness against solo engines, and the traced layers.
    let solo = solo_check(args, &mut report, retired, args.trace)?;
    let client_step = mean(&waits);
    let engine_step = mean(&solo.step_s);
    report.set(
        "data.generate_s",
        median(&solo.generate_s),
        Some(solo.generate_s.len()),
    );
    report.set(
        "core.assemble_s",
        median(&solo.assemble_s),
        Some(solo.assemble_s.len()),
    );
    report.set("engine.step_s", engine_step, Some(solo.step_s.len()));
    report.set("engine.step_share", engine_step / client_step, None);
    let steps_and_reads = (first.steps.len() + first.evaluates.len()) as f64;
    report.set("tier.evictions", evictions as f64, None);
    report.set("tier.resumes", resumes as f64, None);
    report.set(
        "tier.hit_ratio",
        1.0 - resumes as f64 / steps_and_reads,
        None,
    );
    let written: f64 = rounds.iter().map(|r| r.written).sum();
    report.set(
        "io.wchar_per_op",
        written / (ops * rounds.len()) as f64,
        Some(ops * rounds.len()),
    );

    if !args.trace {
        return Ok(report);
    }
    // The twin hub: the same log with no front end in between.
    let mut twin = SessionHub::with_spill_dir(SHARDS, args.scratch.join("twin"))
        .with_memory_budget(MAX_RESIDENT);
    let twin_replay = replay(&mut twin, args.seed, &log);
    let twin_metrics = twin.metrics();
    report.check(
        "twin_hub_agrees",
        twin_replay.retired == first.retired
            && twin_metrics.evicted_total.get() == evictions
            && twin_metrics.resumed_total.get() == resumes,
        "the twin hub retired the same sessions with the same evaluations and tiering counts",
    );
    let twin_waits = twin_replay.step_waits();
    let hub_step = mean(&twin_waits);
    report.set("frontend.self_s", client_step - hub_step, Some(waits.len()));
    report.set("hub.step_s", hub_step, Some(twin_waits.len()));
    report.set("hub.self_s", hub_step - engine_step, Some(twin_waits.len()));

    set_stage_metrics(&mut report, &solo.stages);
    report.set(
        "inference.aggregate_s",
        mean(&solo.aggregate_s),
        Some(solo.aggregate_s.len()),
    );
    report.set(
        "inference.downstream_s",
        mean(&solo.downstream_s),
        Some(solo.downstream_s.len()),
    );
    report.set("wal.appends", solo.append_s.len() as f64, None);
    report.set(
        "wal.append_s",
        mean(&solo.append_s),
        Some(solo.append_s.len()),
    );
    report.set(
        "wal.bytes",
        solo.wal_bytes as f64,
        Some(solo.append_s.len()),
    );
    report.set(
        "tier.spill_s",
        mean(&solo.spill_s),
        Some(solo.spill_s.len()),
    );
    report.set(
        "tier.resume_s",
        mean(&solo.resume_s),
        Some(solo.resume_s.len()),
    );
    let stages = &solo.stages;
    report.set(
        "trace.stage_share",
        stages.stage_sum() / stages.loop_s,
        None,
    );
    report.set(
        "trace.overhead",
        stages.loop_s / solo.step_s.iter().sum::<f64>() - 1.0,
        None,
    );
    Ok(report)
}
