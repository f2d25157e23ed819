//! `adp-load` — a closed-loop load driver for the session hub.
//!
//! Drives one in-process [`SessionHub`] with a seeded, configurable mix of
//! open/step/evict operations, then prints a one-line summary and the
//! hub's full Prometheus metrics dump. CI's smoke job runs it under a
//! memory budget and asserts that the histograms filled, evictions
//! happened, and nothing errored; it is also the quickest way to eyeball
//! eviction/resume behaviour and latency buckets locally.
//!
//! ```text
//! adp-load [--ops 400] [--sessions 12] [--shards 2] [--max-resident 4]
//!          [--mix OPEN:STEP:EVICT] [--seed 42] [--spill-dir DIR]
//! ```
//!
//! An open creates a session from a [`ScenarioSpec`] through
//! [`SessionHub::create_from_spec`], the path the `create_spec` protocol
//! request takes. `--mix` weights the three operations (default `1:6:1`).
//! `--max-resident 0` removes the budget. Exits non-zero when any
//! operation fails — saturation backpressure (`ServeError::Saturated`) is
//! expected under a tight budget and is tallied separately, not as an
//! error.

use activedp::{ScenarioSpec, SessionConfig};
use adp_data::{DatasetId, DatasetSpec, Scale};
use adp_serve::metrics::Op;
use adp_serve::{ServeError, SessionHub, SessionId};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    ops: u64,
    sessions: u64,
    shards: usize,
    max_resident: usize,
    mix: (u64, u64, u64),
    seed: u64,
    spill_dir: Option<PathBuf>,
}

fn parse_mix(text: &str) -> Result<(u64, u64, u64), String> {
    let parts: Vec<u64> = text
        .split(':')
        .map(|p| p.trim().parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("--mix: {e}"))?;
    match parts.as_slice() {
        [open, step, evict] if open + step + evict > 0 => Ok((*open, *step, *evict)),
        [_, _, _] => Err("--mix: at least one weight must be non-zero".into()),
        _ => Err("--mix expects OPEN:STEP:EVICT, e.g. 1:6:1".into()),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ops: 400,
        sessions: 12,
        shards: 2,
        max_resident: 4,
        mix: (1, 6, 1),
        seed: 42,
        spill_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--ops" => args.ops = value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--sessions" => {
                args.sessions = value("--sessions")?
                    .parse()
                    .map_err(|e| format!("--sessions: {e}"))?
            }
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--max-resident" => {
                args.max_resident = value("--max-resident")?
                    .parse()
                    .map_err(|e| format!("--max-resident: {e}"))?
            }
            "--mix" => args.mix = parse_mix(&value("--mix")?)?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--spill-dir" => args.spill_dir = Some(PathBuf::from(value("--spill-dir")?)),
            "--help" | "-h" => {
                return Err("usage: adp-load [--ops N] [--sessions N] [--shards N] \
                     [--max-resident N] [--mix OPEN:STEP:EVICT] [--seed S] [--spill-dir DIR]"
                    .into())
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.sessions == 0 {
        return Err("--sessions must be at least 1".into());
    }
    Ok(args)
}

/// The splitmix-style step of a 64-bit LCG; dependency-free and seeded,
/// so a given `--seed` replays the same op sequence.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 16
}

fn spec_of(seed: u64) -> DatasetSpec {
    DatasetSpec {
        id: DatasetId::Youtube,
        scale: Scale::Tiny,
        seed,
    }
}

fn open_session(hub: &SessionHub, n: u64, seed: u64) -> Result<SessionId, ServeError> {
    // A handful of distinct data seeds exercises the dataset cache without
    // regenerating a dataset per session.
    hub.create_from_spec(ScenarioSpec {
        session: SessionConfig::paper_defaults(true, seed.wrapping_add(n)),
        ..ScenarioSpec::new(spec_of(seed ^ (n % 3)))
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let (spill_dir, scratch) = match &args.spill_dir {
        Some(dir) => (dir.clone(), false),
        None => (
            std::env::temp_dir().join(format!("adp-load-{}", std::process::id())),
            true,
        ),
    };
    let hub = SessionHub::with_spill_dir(args.shards, &spill_dir);
    hub.set_memory_budget((args.max_resident > 0).then_some(args.max_resident));

    let mut rng = args.seed.wrapping_mul(2862933555777941757).wrapping_add(1);
    let mut ids: Vec<SessionId> = Vec::new();
    let mut opened = 0u64;
    let mut errors = 0u64;
    let mut saturated = 0u64;
    let mut counts = (0u64, 0u64, 0u64); // (open, step, evict) issued

    // Warm pool: the steady-state mix assumes sessions to step and evict.
    for _ in 0..args.sessions {
        match open_session(&hub, opened, args.seed) {
            Ok(id) => {
                ids.push(id);
                opened += 1;
            }
            Err(ServeError::Saturated { .. }) => saturated += 1,
            Err(e) => {
                eprintln!("open failed during warmup: {e}");
                errors += 1;
            }
        }
    }

    let (w_open, w_step, w_evict) = args.mix;
    let total_weight = w_open + w_step + w_evict;
    for _ in 0..args.ops {
        let roll = lcg(&mut rng) % total_weight;
        if roll < w_open {
            counts.0 += 1;
            match open_session(&hub, opened, args.seed) {
                Ok(id) => {
                    ids.push(id);
                    opened += 1;
                }
                Err(ServeError::Saturated { .. }) => saturated += 1,
                Err(e) => {
                    eprintln!("open failed: {e}");
                    errors += 1;
                }
            }
        } else if roll < w_open + w_step || ids.is_empty() {
            counts.1 += 1;
            if ids.is_empty() {
                continue;
            }
            let id = ids[(lcg(&mut rng) as usize) % ids.len()];
            if let Err(e) = hub.step(id) {
                eprintln!("step failed on {id:?}: {e}");
                errors += 1;
            }
        } else {
            counts.2 += 1;
            let id = ids[(lcg(&mut rng) as usize) % ids.len()];
            if let Err(e) = hub.evict(id) {
                eprintln!("evict failed on {id:?}: {e}");
                errors += 1;
            }
        }
    }

    let metrics = hub.metrics();
    let step = metrics.op(Op::Step);
    let p50 = step
        .latency
        .quantile_upper_bound(0.50)
        .map_or("n/a".into(), |s| format!("{:.1}us", s * 1e6));
    let p99 = step
        .latency
        .quantile_upper_bound(0.99)
        .map_or("n/a".into(), |s| format!("{:.1}us", s * 1e6));
    println!(
        "adp-load summary: ops={} (open={} step={} evict={}) sessions={} \
         errors={errors} saturated={saturated} evicted={} resumed={} \
         step_p50<={p50} step_p99<={p99}",
        args.ops,
        counts.0,
        counts.1,
        counts.2,
        ids.len(),
        metrics.evicted_total.get(),
        metrics.resumed_total.get(),
    );
    println!("--- metrics dump ---");
    print!("{}", metrics.render());

    drop(hub);
    if scratch {
        let _ = std::fs::remove_dir_all(&spill_dir);
    }
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
