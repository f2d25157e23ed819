//! `adp-perfbench` — the end-to-end and per-layer benchmark of the ActiveDP
//! engine and its served path.
//!
//! ```text
//! adp-perfbench --workload census-step|imdb-batch|served-churn
//!               [--seed N] [--seconds S] [--trace 0|1]
//!               [--scale paper|tiny] [--scratch DIR]
//! ```
//!
//! Each run measures one workload for at least `--seconds` of timed loop,
//! then checks the outputs (see `engine.rs` and `served.rs`), prints every
//! metric with its unit and sample count on `#` lines, and ends with one
//! JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A failed check exits 1 after printing.
//! `perfbench/README.md` documents the workloads and the metrics.

mod engine;
mod report;
mod served;
mod shadow;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CensusStep,
    ImdbBatch,
    ServedChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "census-step" => Some(Workload::CensusStep),
            "imdb-batch" => Some(Workload::ImdbBatch),
            "served-churn" => Some(Workload::ServedChurn),
            _ => None,
        }
    }

    fn default_seed(self) -> u64 {
        match self {
            Workload::ServedChurn => 42,
            _ => 7,
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `Scale::Tiny` inputs and shortened loops, for the smoke test.
    pub tiny: bool,
    /// Directory for spill files, journals and snapshots.
    pub scratch: PathBuf,
}

const USAGE: &str = "usage: adp-perfbench --workload census-step|imdb-batch|served-churn \
                     [--seed N] [--seconds S] [--trace 0|1] [--scale paper|tiny] [--scratch DIR]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut tiny = false;
    let mut scratch = PathBuf::from(".bench_scratch");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--scale" => {
                tiny = match value()?.as_str() {
                    "paper" => false,
                    "tiny" => true,
                    other => return Err(format!("--scale takes paper or tiny, not {other:?}")),
                }
            }
            "--scratch" => scratch = PathBuf::from(value()?),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
        tiny,
        scratch,
    })
}

/// The host facts a reading depends on, printed with every run.
fn environment_note(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var("ADP_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    format!(
        "env workload={:?} seed={} nproc={nproc} rustc=\"{}\" ADP_NUM_THREADS={threads} \
         scratch_fs={}",
        args.workload,
        args.seed,
        env!("PERFBENCH_RUSTC"),
        fs_type(&args.scratch),
    )
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mountinfo`.
fn fs_type(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    // Fields: id parent major:minor root mountpoint options ... - fstype ...
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = *fields.get(4)?;
            let dash = fields.iter().position(|f| *f == "-")?;
            let fstype = *fields.get(dash + 1)?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        // The last, longest match is the mount on top.
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// `(steal, total)` CPU ticks of the whole host so far, from `/proc/stat`:
/// time the hypervisor gave this machine's CPUs to other guests.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Runs `call`, appending its wall time in seconds to `samples`.
pub fn timed<T>(samples: &mut Vec<f64>, call: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = call();
    samples.push(start.elapsed().as_secs_f64());
    out
}

/// The number after `key` in a `/proc/self` file, e.g. `status`'s `VmHWM:`
/// (the peak RSS, in kB) or `io`'s `wchar:` (bytes passed to write-like
/// syscalls so far).
pub fn proc_value(file: &str, key: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/self/{file}"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(f64::NAN)
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // A private working directory under the scratch root, removed at exit.
    args.scratch = args
        .scratch
        .join(format!("{:?}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("cannot create {}: {e}", args.scratch.display());
        return ExitCode::from(2);
    }
    let env = environment_note(&args);
    let (steal_before, total_before) = cpu_ticks();
    let result = match args.workload {
        Workload::CensusStep | Workload::ImdbBatch => engine::run(&args),
        Workload::ServedChurn => served::run(&args),
    };
    let (steal, total) = cpu_ticks();
    let steal_share = (steal - steal_before) as f64 / (total - total_before).max(1) as f64;
    let _ = std::fs::remove_dir_all(&args.scratch);
    match result {
        Ok(mut report) => {
            report.note(format!("{env} host_steal_share={steal_share:.4}"));
            if report.print(args.trace) {
                ExitCode::SUCCESS
            } else {
                eprintln!("a correctness check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark aborted: {e}");
            ExitCode::FAILURE
        }
    }
}
