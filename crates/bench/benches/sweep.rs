//! Benchmarks for the sweep: the local grid runner at one and several
//! worker threads (the `adp-sweep --jobs` speedup).

use activedp::{LabelModelKind, SamplerChoice};
use adp_data::{DatasetId, Scale};
use adp_experiments::{run_grid_jobs, SweepGrid};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

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

fn bench_sweep(c: &mut Criterion) {
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

    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
