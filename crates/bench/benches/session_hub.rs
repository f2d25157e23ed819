//! Throughput benchmarks for the `adp-serve` SessionHub: many concurrent
//! sessions stepped through the sharded registry, versus the same work on
//! one engine, single-step versus batched stepping, and one engine-free
//! round trip that times the dispatch alone.

use activedp::{Engine, SessionConfig};
use adp_bench::bench_dataset;
use adp_data::{DatasetId, DatasetSpec, Scale, SharedDataset};
use adp_serve::{HubMetrics, Op, SessionHub};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::time::Duration;

const SESSIONS: u64 = 8;
const STEPS: usize = 10;

fn data() -> SharedDataset {
    bench_dataset(DatasetId::Youtube).into_shared()
}

/// N sessions × STEPS iterations through the hub, clients on one thread.
fn bench_hub_throughput(c: &mut Criterion) {
    let data = data();
    let mut group = c.benchmark_group("session_hub");
    group.sample_size(10);

    group.bench_function("hub_8_sessions_sequential_clients", |b| {
        b.iter(|| {
            let hub = SessionHub::new(4);
            let ids: Vec<_> = (0..SESSIONS)
                .map(|seed| {
                    hub.open(Engine::builder(data.clone()).seed(seed))
                        .expect("session opens")
                })
                .collect();
            for _ in 0..STEPS {
                for &id in &ids {
                    black_box(hub.step(id).expect("step succeeds"));
                }
            }
            black_box(hub.session_count().expect("all shards alive"))
        })
    });

    group.bench_function("hub_8_sessions_concurrent_clients", |b| {
        b.iter(|| {
            let hub = SessionHub::new(4);
            let ids: Vec<_> = (0..SESSIONS)
                .map(|seed| {
                    hub.open(Engine::builder(data.clone()).seed(seed))
                        .expect("session opens")
                })
                .collect();
            std::thread::scope(|scope| {
                for &id in &ids {
                    let hub = &hub;
                    scope.spawn(move || {
                        for _ in 0..STEPS {
                            black_box(hub.step(id).expect("step succeeds"));
                        }
                    });
                }
            });
            black_box(hub.session_count().expect("all shards alive"))
        })
    });

    // The no-hub baseline: the same total work on bare engines, serially.
    group.bench_function("solo_8_sessions_baseline", |b| {
        b.iter(|| {
            for seed in 0..SESSIONS {
                let mut e = Engine::builder(data.clone())
                    .seed(seed)
                    .build()
                    .expect("engine builds");
                e.run(STEPS).expect("engine runs");
                black_box(e.state().iteration);
            }
        })
    });

    // Batched stepping: same query budget, one refit per batch of 5.
    group.bench_function("hub_8_sessions_step_batch_5", |b| {
        b.iter(|| {
            let hub = SessionHub::new(4);
            let ids: Vec<_> = (0..SESSIONS)
                .map(|seed| {
                    hub.open(Engine::builder(data.clone()).seed(seed))
                        .expect("session opens")
                })
                .collect();
            for _ in 0..STEPS / 5 {
                for &id in &ids {
                    black_box(hub.step_batch(id, 5).expect("batch succeeds"));
                }
            }
            black_box(hub.session_count().expect("all shards alive"))
        })
    });

    group.finish();
}

/// One hub round trip with no engine work: a `status` probe of one
/// resident session, so the row times the dispatch (shard routing,
/// locking, the residency lookup, metrics) and nothing else.
fn bench_status_roundtrip(c: &mut Criterion) {
    let hub = SessionHub::in_memory(2);
    let id = hub
        .open(Engine::builder(data()).seed(1))
        .expect("session opens");
    hub.run(id, 3).expect("warms up");
    let mut group = c.benchmark_group("session_hub");
    group.bench_function("hub_status_roundtrip", |b| {
        b.iter(|| black_box(hub.status(black_box(id)).expect("status answers")))
    });
    group.finish();
}

/// Eviction and resume as separate rows, so each shows its own cost.
/// `hub_evict` times snapshot + atomic spill write + WAL checkpoint +
/// engine drop (the spill's fsync included); the untimed set-up resumes
/// the session first. `hub_resume` times the touch of a cold session over
/// a spill the untimed set-up has just written: spill read + rebuild +
/// journal re-attach, plus the snapshot the touch returns. Neither
/// advances the trajectory.
fn bench_evict_resume(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("adp-bench-evict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let hub = SessionHub::with_spill_dir(1, &dir);
    let id = hub
        .open_spec(
            DatasetSpec {
                id: DatasetId::Youtube,
                scale: Scale::Tiny,
                seed: 7,
            },
            SessionConfig::paper_defaults(true, 1),
        )
        .expect("session opens");
    hub.run(id, 5).expect("warms up");
    // Snapshot touches the session, resuming it if it is cold.
    let resume = || black_box(hub.snapshot(id).expect("resumes"));
    let evict = || assert!(hub.evict(id).expect("evicts"));

    let mut group = c.benchmark_group("session_hub");
    group.sample_size(10);
    group.bench_function("hub_evict", |b| {
        b.iter_batched(|| drop(resume()), |()| evict(), BatchSize::PerIteration)
    });
    group.bench_function("hub_resume", |b| {
        b.iter_batched(evict, |()| resume(), BatchSize::PerIteration)
    });
    group.finish();
    drop(hub);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The metrics layer alone: what one `record` (two atomic counters + a
/// histogram observe) costs on the hub's hot path, and what a full
/// Prometheus render costs a scraper.
fn bench_metrics_overhead(c: &mut Criterion) {
    let metrics = HubMetrics::new();
    for k in 0..10_000u64 {
        metrics.record(Op::Step, Duration::from_micros(k % 3000), k % 64 == 0);
    }
    let mut group = c.benchmark_group("session_hub");
    group.bench_function("metrics_overhead_record", |b| {
        b.iter(|| metrics.record(Op::Step, black_box(Duration::from_micros(180)), false))
    });
    group.bench_function("metrics_overhead_render", |b| {
        b.iter(|| black_box(metrics.render()).len())
    });
    group.finish();
}

criterion_group!(
    session_hub,
    bench_hub_throughput,
    bench_status_roundtrip,
    bench_evict_resume,
    bench_metrics_overhead
);
criterion_main!(session_hub);
