//! One benchmark per Figure 3 method: ActiveDP and all four baselines
//! driven through the same bench-scale protocol on a common dataset.

use activedp::{Engine, SessionConfig};
use adp_baselines::{Framework, Iws, Nemo, RevisingLf, UncertaintySampling};
use adp_bench::bench_dataset;
use adp_data::DatasetId;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const BUDGET: usize = 20;

fn drive(fw: &mut dyn Framework) -> f64 {
    for _ in 0..BUDGET {
        fw.step().expect("step succeeds");
    }
    fw.evaluate().expect("evaluate succeeds").test_accuracy
}

fn bench_fig3(c: &mut Criterion) {
    let data = bench_dataset(DatasetId::Youtube).into_shared();
    let mut group = c.benchmark_group("fig3_endtoend");
    group.sample_size(10);

    group.bench_function("activedp", |b| {
        b.iter(|| {
            let cfg = SessionConfig::paper_defaults(true, 9);
            let mut fw = Engine::builder(data.clone())
                .config(cfg)
                .build()
                .expect("session builds");
            black_box(drive(&mut fw))
        })
    });
    group.bench_function("nemo", |b| {
        b.iter(|| black_box(drive(&mut Nemo::new(&data, 9))))
    });
    group.bench_function("iws", |b| {
        b.iter(|| black_box(drive(&mut Iws::new(&data, 9))))
    });
    group.bench_function("rlf", |b| {
        b.iter(|| black_box(drive(&mut RevisingLf::new(&data, 9))))
    });
    group.bench_function("us", |b| {
        b.iter(|| black_box(drive(&mut UncertaintySampling::new(&data, 9))))
    });
    group.finish();
}

criterion_group!(paper_fig3, bench_fig3);
criterion_main!(paper_fig3);
