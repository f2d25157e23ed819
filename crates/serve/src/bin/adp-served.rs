//! `adp-served` — the durable session server.
//!
//! Binds a TCP listener, loads any sessions journalled by a previous run
//! in the spill directory (same ids, same trajectories), and serves the
//! JSON-lines protocol until killed. See the `adp_serve::server` module
//! docs for the protocol and the README's "Durable serving" quickstart for
//! a session walkthrough.
//!
//! ```text
//! adp-served [--addr 127.0.0.1:7878] [--shards 4] [--spill-dir DIR]
//!            [--max-resident N] [--read-timeout-secs SECS]
//! ```
//!
//! `--spill-dir` falls back to `ADP_SPILL_DIR`; without either the server
//! runs purely in memory (snapshot/save_all requests report the missing
//! directory instead of failing the session). `--max-resident` caps hot
//! sessions (falls back to `ADP_MAX_RESIDENT`; least-recently-touched
//! sessions spill and resume transparently). `--read-timeout-secs` sets
//! the idle disconnect (falls back to `ADP_READ_TIMEOUT_SECS`, default
//! 900; 0 disables).

use adp_serve::server::Server;
use adp_serve::SessionHub;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    shards: usize,
    spill_dir: Option<String>,
    max_resident: Option<usize>,
    read_timeout_secs: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        shards: 4,
        spill_dir: None,
        max_resident: None,
        read_timeout_secs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--spill-dir" => args.spill_dir = Some(value("--spill-dir")?),
            "--max-resident" => {
                args.max_resident = Some(
                    value("--max-resident")?
                        .parse()
                        .map_err(|e| format!("--max-resident: {e}"))?,
                )
            }
            "--read-timeout-secs" => {
                args.read_timeout_secs = Some(
                    value("--read-timeout-secs")?
                        .parse()
                        .map_err(|e| format!("--read-timeout-secs: {e}"))?,
                )
            }
            "--help" | "-h" => {
                return Err(
                    "usage: adp-served [--addr HOST:PORT] [--shards N] [--spill-dir DIR] \
                     [--max-resident N] [--read-timeout-secs SECS]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let hub = match &args.spill_dir {
        Some(dir) => SessionHub::with_spill_dir(args.shards, dir),
        None => SessionHub::new(args.shards), // honours ADP_SPILL_DIR
    };
    if let Some(cap) = args.max_resident {
        // 0 means "no budget", mirroring ADP_MAX_RESIDENT=0.
        hub.set_memory_budget(if cap == 0 { None } else { Some(cap) });
    }
    match hub.memory_budget() {
        Some(cap) => println!("memory budget: {cap} resident session(s)"),
        None => println!("no memory budget; sessions stay resident until closed"),
    }
    match hub.spill_dir() {
        Some(dir) => {
            println!("spill directory: {}", dir.display());
            match hub.load_all() {
                Ok(loaded) if loaded.is_empty() => println!("no spilled sessions to load"),
                Ok(loaded) => println!("resumed {} session(s): {loaded:?}", loaded.len()),
                Err(e) => {
                    eprintln!("failed to load spilled sessions: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => println!("no spill directory configured; sessions are in-memory only"),
    }
    let server = match args.read_timeout_secs {
        Some(secs) => {
            let timeout = (secs > 0).then(|| Duration::from_secs(secs));
            Server::bind_with_timeout(args.addr.as_str(), Arc::new(hub), timeout)
        }
        None => Server::bind(args.addr.as_str(), Arc::new(hub)), // honours ADP_READ_TIMEOUT_SECS
    };
    let server = match server {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("adp-served listening on {}", server.addr());
    println!("scrape metrics: curl http://{}/metrics", server.addr());
    // Serve until the process is killed; durable state is each session's
    // journal — every committed step, plus the checkpoint the last
    // `snapshot` / `save_all` or eviction wrote.
    loop {
        std::thread::park();
    }
}
