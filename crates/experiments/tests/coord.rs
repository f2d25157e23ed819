//! End-to-end tests of the distributed sweep coordinator: real servers,
//! real sockets, a real SIGKILL — and the one invariant that matters,
//! that the merged artefact is byte-identical to a single-process run no
//! matter how the fleet behaved.

use adp_experiments::{
    grid_table, run_distributed, run_grid, CoordError, CoordOpts, SweepGrid, SweepOutcome,
};
use adp_serve::{Server, SessionHub};
use std::path::PathBuf;
use std::sync::Arc;

fn tiny_grid() -> SweepGrid {
    let mut grid = SweepGrid::default_study(adp_data::DatasetId::Youtube);
    grid.samplers = vec![
        activedp::SamplerChoice::Uncertainty,
        activedp::SamplerChoice::Adp,
    ];
    grid.label_models = vec![activedp::LabelModelKind::Triplet];
    grid.ks = vec![1, 4];
    grid.budget = 6;
    grid
}

fn unique_tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "adp-coord-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts two outcomes carry identical rows (wall-clock aside) and that
/// their rendered artefacts byte-compare once wall time is zeroed.
fn assert_same_rows(mut a: SweepOutcome, mut b: SweepOutcome) {
    assert_eq!(a.rows.len(), b.rows.len());
    for (x, y) in a.rows.iter().zip(&b.rows) {
        assert_eq!(x.cell, y.cell);
        assert_eq!(x.spec, y.spec);
        assert_eq!(x.iterations, y.iterations);
        assert_eq!(x.refits, y.refits);
        assert_eq!(x.test_accuracy.to_bits(), y.test_accuracy.to_bits());
    }
    a.zero_wall();
    b.zero_wall();
    assert_eq!(grid_table(&a.rows).to_csv(), grid_table(&b.rows).to_csv());
}

fn in_process_fleet(n: usize) -> (Vec<Server>, Vec<String>) {
    let servers: Vec<Server> = (0..n)
        .map(|_| Server::bind("127.0.0.1:0", Arc::new(SessionHub::new(2))).unwrap())
        .collect();
    let addrs = servers.iter().map(|s| s.addr().to_string()).collect();
    (servers, addrs)
}

#[test]
fn distributed_sweep_matches_the_local_run_bitwise() {
    let grid = tiny_grid();
    let (servers, addrs) = in_process_fleet(2);

    // Checkpoint every batch: the hardest slicing the protocol supports.
    let opts = CoordOpts {
        checkpoint_batches: 1,
        ..CoordOpts::default()
    };
    let report = run_distributed(&grid, &addrs, &opts).unwrap();
    assert!(report.outcome.is_clean());
    assert_eq!(report.requeued, 0);
    assert_eq!(report.spooled_skips, 0);
    assert!(report.workers.iter().all(|w| w.alive));
    assert_eq!(
        report.workers.iter().map(|w| w.cells).sum::<usize>(),
        grid.len()
    );

    // The serving metrics saw every completed cell, fleet-wide.
    let served: u64 = servers
        .iter()
        .map(|s| s.hub().metrics().sweep_cells_total.get())
        .sum();
    assert_eq!(served as usize, grid.len());

    let local = run_grid(&grid);
    assert!(local.is_clean());
    assert_same_rows(report.outcome, local);
}

#[test]
fn uncheckpointed_and_single_worker_runs_merge_identically_too() {
    let grid = tiny_grid();
    let (_servers, addrs) = in_process_fleet(1);
    let opts = CoordOpts {
        checkpoint_batches: 0,
        ..CoordOpts::default()
    };
    let report = run_distributed(&grid, &addrs, &opts).unwrap();
    assert!(report.outcome.is_clean());
    assert_same_rows(report.outcome, run_grid(&grid));
}

#[test]
fn degenerate_cells_fail_typed_without_retries() {
    let mut grid = tiny_grid();
    grid.ks = vec![1, 0]; // k = 0 fails server-side validation.
    let (_servers, addrs) = in_process_fleet(2);
    let report = run_distributed(&grid, &addrs, &CoordOpts::default()).unwrap();
    // A spec rejection is not a worker death: nothing was re-queued and
    // every worker is still alive.
    assert_eq!(report.requeued, 0);
    assert!(report.workers.iter().all(|w| w.alive));
    assert_eq!(report.outcome.rows.len(), 2);
    assert_eq!(report.outcome.failures.len(), 2);
    assert_eq!(report.outcome.failures[0].cell, 1);
    assert_eq!(report.outcome.failures[1].cell, 3);
    for failure in &report.outcome.failures {
        assert!(
            matches!(&failure.error, activedp::ActiveDpError::BadConfig { .. }),
            "{:?}",
            failure.error
        );
    }
}

#[test]
fn no_workers_and_dead_fleets_are_typed_coordinator_errors() {
    let grid = tiny_grid();
    assert!(matches!(
        run_distributed(&grid, &[], &CoordOpts::default()),
        Err(CoordError::NoWorkers)
    ));
    // An address nothing listens on: the whole fleet is dead on arrival.
    let err =
        run_distributed(&grid, &["127.0.0.1:1".to_string()], &CoordOpts::default()).unwrap_err();
    assert!(matches!(
        err,
        CoordError::AllWorkersDead { missing } if missing == grid.len()
    ));
}

#[test]
fn spooled_rows_survive_a_coordinator_restart() {
    let grid = tiny_grid();
    let spool = unique_tempdir("spool");
    let opts = CoordOpts {
        spool: Some(spool.clone()),
        ..CoordOpts::default()
    };

    let (_servers, addrs) = in_process_fleet(2);
    let first = run_distributed(&grid, &addrs, &opts).unwrap();
    assert!(first.outcome.is_clean());
    assert_eq!(first.spooled_skips, 0);
    assert_eq!(first.spool_write_errors, 0);

    // Corrupt one spooled row: the restart must re-run that cell only.
    std::fs::write(spool.join("cell-2.adprow"), b"not a sweep row").unwrap();

    // "Restart": a fresh fleet and a fresh coordinator over the same
    // spool. All but the corrupted cell come back without touching a
    // worker.
    let (_servers2, addrs2) = in_process_fleet(2);
    let second = run_distributed(&grid, &addrs2, &opts).unwrap();
    assert_eq!(second.spooled_skips, grid.len() - 1);
    assert_eq!(
        second.workers.iter().map(|w| w.cells).sum::<usize>(),
        1,
        "only the corrupted cell re-ran"
    );
    assert_same_rows(first.outcome, second.outcome);
    let _ = std::fs::remove_dir_all(&spool);
}

/// A real `adp-served` child process, SIGKILL-able mid-cell.
struct ServedProc {
    child: std::process::Child,
    addr: String,
}

impl ServedProc {
    fn spawn() -> ServedProc {
        use std::io::BufRead;
        let mut child = std::process::Command::new(served_bin())
            .args(["--addr", "127.0.0.1:0", "--shards", "2"])
            .env_remove("ADP_SPILL_DIR")
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawns adp-served");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("adp-served exited before listening")
                .expect("readable stdout");
            if let Some(addr) = line.strip_prefix("adp-served listening on ") {
                break addr.to_string();
            }
        };
        std::thread::spawn(move || for _ in lines {});
        ServedProc { child, addr }
    }
}

impl Drop for ServedProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `adp-served` binary next to this test's own artefact dir. The
/// full-workspace test build always produces it; a package-scoped run
/// (`cargo test -p adp-experiments`) builds it on demand.
fn served_bin() -> PathBuf {
    let mut dir = std::env::current_exe().expect("test binary path");
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join(format!("adp-served{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut build = std::process::Command::new(cargo);
        build.args(["build", "-p", "adp-serve", "--bin", "adp-served"]);
        if dir.ends_with("release") {
            build.arg("--release");
        }
        let status = build.status().expect("builds adp-served");
        assert!(status.success(), "cargo build adp-served failed");
    }
    bin
}

/// Blocks until the server at `addr` has finished at least one `run_spec`
/// request, read from its own request counter.
fn await_first_slice(addr: &str) {
    let mut client = adp_serve::Client::connect(addr).expect("metrics connection");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let text = client.metrics().expect("metrics reply");
        let served = text
            .lines()
            .find_map(|l| l.strip_prefix("adp_requests_total{op=\"run_spec\"} "))
            .and_then(|n| n.trim().parse::<u64>().ok())
            .unwrap_or(0);
        if served > 0 {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no run_spec slice served within 60 s"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

#[test]
fn sigkill_mid_cell_reschedules_onto_the_survivor_bitwise() {
    // 12 cells of 24 single-iteration slices each: when the victim has
    // served its first slice, its cell and most of the grid remain.
    let mut grid = tiny_grid();
    grid.samplers = vec![
        activedp::SamplerChoice::Uncertainty,
        activedp::SamplerChoice::Adp,
    ];
    grid.label_models = vec![
        activedp::LabelModelKind::Triplet,
        activedp::LabelModelKind::DawidSkene,
    ];
    grid.ks = vec![1];
    grid.budget = 24;
    grid.seeds = vec![1, 2, 3];
    assert_eq!(grid.len(), 12);

    let victim = ServedProc::spawn();
    let survivor = ServedProc::spawn();
    let addrs = vec![victim.addr.clone(), survivor.addr.clone()];
    let opts = CoordOpts {
        checkpoint_batches: 1,
        ..CoordOpts::default()
    };

    let report = std::thread::scope(|scope| {
        let coordinator = scope.spawn(|| run_distributed(&grid, &addrs, &opts));
        // SIGKILL one worker once it is provably mid-cell. No graceful
        // path: the socket just dies under the coordinator.
        await_first_slice(&victim.addr);
        let mut victim = victim;
        victim.child.kill().expect("SIGKILL lands");
        let _ = victim.child.wait();
        coordinator.join().expect("coordinator thread")
    })
    .expect("sweep completes on the survivor");

    assert!(report.outcome.is_clean(), "{:?}", report.outcome.failures);
    let dead = report.workers.iter().filter(|w| !w.alive).count();
    assert_eq!(dead, 1, "exactly the killed worker is reported dead");
    assert!(
        report.requeued >= 1,
        "the killed worker's in-flight cell was rescheduled"
    );
    assert!(report.resumed <= report.requeued);

    // The merged artefact does not remember the failure: byte-identical
    // to an uninterrupted single-process sweep.
    let local = run_grid(&grid);
    assert!(local.is_clean());
    assert_same_rows(report.outcome, local);
}
