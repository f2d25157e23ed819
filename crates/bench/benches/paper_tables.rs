//! One benchmark per paper table: each runs the corresponding experiment
//! configuration at bench scale (tiny datasets, short budget), so the
//! harness both times the pipelines and proves every table's code path is
//! runnable end to end. The binaries in `adp-experiments` regenerate the
//! full artefacts.

use activedp::{Engine, SamplerChoice, SessionConfig};
use adp_bench::bench_dataset;
use adp_data::{generate, DatasetId, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const BUDGET: usize = 20;

fn session_auc(data: &adp_data::SharedDataset, cfg: SessionConfig) -> f64 {
    let mut session = Engine::builder(data.clone())
        .config(cfg)
        .build()
        .expect("session builds");
    let mut acc = 0.0;
    let mut evals = 0;
    for it in 1..=BUDGET {
        session.step().expect("step succeeds");
        if it % 10 == 0 {
            acc += session
                .evaluate_downstream()
                .expect("evaluation succeeds")
                .test_accuracy;
            evals += 1;
        }
    }
    acc / evals as f64
}

/// Table 2: dataset generation for all eight benchmarks.
fn bench_table2(c: &mut Criterion) {
    c.bench_function("table2_generate_all_datasets", |b| {
        b.iter(|| {
            for id in DatasetId::all() {
                black_box(generate(id, Scale::Tiny, 1).expect("generation succeeds"));
            }
        })
    });
}

/// Table 3: the four ablation variants on one dataset.
fn bench_table3(c: &mut Criterion) {
    let data = bench_dataset(DatasetId::Youtube).into_shared();
    c.bench_function("table3_ablation_row", |b| {
        b.iter(|| {
            for (lp, cf) in [(false, false), (true, false), (false, true), (true, true)] {
                let cfg = SessionConfig {
                    use_labelpick: lp,
                    use_confusion: cf,
                    ..SessionConfig::paper_defaults(true, 9)
                };
                black_box(session_auc(&data, cfg));
            }
        })
    });
}

/// Table 4: the five sampler choices on one dataset.
fn bench_table4(c: &mut Criterion) {
    let data = bench_dataset(DatasetId::Occupancy).into_shared();
    c.bench_function("table4_sampler_row", |b| {
        b.iter(|| {
            for sampler in [
                SamplerChoice::Passive,
                SamplerChoice::Uncertainty,
                SamplerChoice::Lal,
                SamplerChoice::Seu,
                SamplerChoice::Adp,
            ] {
                let cfg = SessionConfig {
                    sampler,
                    ..SessionConfig::paper_defaults(false, 9)
                };
                black_box(session_auc(&data, cfg));
            }
        })
    });
}

/// Table 5: the four label-noise levels on one dataset.
fn bench_table5(c: &mut Criterion) {
    let data = bench_dataset(DatasetId::Youtube).into_shared();
    c.bench_function("table5_noise_row", |b| {
        b.iter(|| {
            for noise in [0.0, 0.05, 0.10, 0.15] {
                let cfg = SessionConfig {
                    noise_rate: noise,
                    ..SessionConfig::paper_defaults(true, 9)
                };
                black_box(session_auc(&data, cfg));
            }
        })
    });
}

criterion_group!(
    name = paper_tables;
    config = Criterion::default().sample_size(10);
    targets = bench_table2, bench_table3, bench_table4, bench_table5
);
criterion_main!(paper_tables);
