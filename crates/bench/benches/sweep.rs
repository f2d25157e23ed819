//! Benchmarks for the sweep backends: the local grid runner at one and
//! several worker threads (the `adp-sweep --jobs` speedup), and the
//! distributed coordinator's dispatch overhead over in-process servers
//! (what `adp-coord` pays beyond the engine work itself).

use activedp::{LabelModelKind, SamplerChoice};
use adp_data::{DatasetId, Scale};
use adp_experiments::{run_distributed, run_grid_jobs, CoordOpts, SweepGrid};
use adp_serve::{Server, SessionHub};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

/// A 2×2 grid small enough to iterate: two samplers × two schedules on
/// tiny Youtube, budget 6.
fn bench_grid() -> SweepGrid {
    SweepGrid {
        datasets: vec![DatasetId::Youtube],
        scale: Scale::Tiny,
        data_seed: 7,
        samplers: vec![SamplerChoice::Uncertainty, SamplerChoice::Adp],
        label_models: vec![LabelModelKind::Triplet],
        ks: vec![1, 4],
        budget: 6,
        seeds: vec![1],
        oracles: vec![activedp::OracleKind::Simulated],
        drifts: vec![adp_data::DriftSpec::None],
    }
}

fn bench_sweep_backends(c: &mut Criterion) {
    let grid = bench_grid();
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);

    group.bench_function("sweep_local_parallel_1", |b| {
        b.iter(|| {
            let out = run_grid_jobs(&grid, 1);
            assert!(out.is_clean());
            black_box(out.rows.len())
        })
    });

    group.bench_function("sweep_local_parallel_4", |b| {
        b.iter(|| {
            let out = run_grid_jobs(&grid, 4);
            assert!(out.is_clean());
            black_box(out.rows.len())
        })
    });

    // Fleet set up outside the timing loop: the measurement is dispatch +
    // wire + merge, i.e. what adp-coord costs over the engines themselves.
    let servers: Vec<Server> = (0..2)
        .map(|_| Server::bind("127.0.0.1:0", Arc::new(SessionHub::new(2))).unwrap())
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let opts = CoordOpts {
        checkpoint_batches: 0,
        ..CoordOpts::default()
    };
    group.bench_function("coord_dispatch_overhead", |b| {
        b.iter(|| {
            let report = run_distributed(&grid, &addrs, &opts).expect("fleet serves");
            assert!(report.outcome.is_clean());
            black_box(report.outcome.rows.len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_sweep_backends);
criterion_main!(benches);
