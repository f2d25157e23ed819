//! Microbenchmarks of the computational substrates.

use adp_bench::{bench_corpus, bench_dataset, planted_votes};
use adp_classifier::{LogRegConfig, LogisticRegression, Targets};
use adp_data::DatasetId;
use adp_glasso::{graphical_lasso, graphical_lasso_with, GlassoConfig};
use adp_labelmodel::{DawidSkene, LabelModel, TripletMetal};
use adp_lf::CandidateSpace;
use adp_linalg::{correlation_matrix, covariance_matrix, Cholesky, Execution, Matrix};
use adp_text::TfidfVectorizer;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_tfidf(c: &mut Criterion) {
    let corpus = bench_corpus(500);
    c.bench_function("tfidf_fit_transform_500_docs", |b| {
        b.iter_batched(
            TfidfVectorizer::default,
            |mut v| black_box(v.fit_transform(&corpus)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_cholesky(c: &mut Criterion) {
    let base = Matrix::from_fn(40, 40, |i, j| (((i * 31 + j * 17) % 13) as f64 - 6.0) / 6.0);
    let mut spd = base.matmul(&base.transpose()).expect("square product");
    spd.add_diagonal(40.0).expect("square");
    c.bench_function("cholesky_factor_40x40", |b| {
        b.iter(|| black_box(Cholesky::factor(&spd).expect("SPD")))
    });
}

fn bench_glasso(c: &mut Criterion) {
    let data = Matrix::from_fn(300, 20, |i, j| {
        (((i * 7 + j * 13) % 23) as f64 - 11.0) * 0.1 + (i % 3) as f64 * 0.05 * j as f64
    });
    let cov = covariance_matrix(&data).expect("non-empty data");
    c.bench_function("graphical_lasso_p20", |b| {
        b.iter(|| black_box(graphical_lasso(&cov, GlassoConfig::default()).expect("well-posed")))
    });
}

/// The LabelPick-shaped glasso of the workspace golden
/// (`tests/determinism.rs`): 100 signed-vote query rows over 64 LFs (the
/// last 16 mostly noisy copies) plus the label, as correlations, at
/// LabelPick's cap p = 65 and default ρ = 0.03.
fn bench_glasso_labelpick(c: &mut Criterion) {
    const T: usize = 100;
    const M: usize = 64;
    let unit = |x: u64| (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
    let mut data = Matrix::zeros(T, M + 1);
    for i in 0..T {
        let y = if unit(i as u64 * 13 + 5) < 0.45 {
            1.0
        } else {
            -1.0
        };
        for j in 0..M {
            let h = (i * M + j) as u64;
            let vote = if j >= 48 && unit(h * 17 + 1) < 0.85 {
                data[(i, j - 48)]
            } else {
                let coverage = 0.2 + 0.4 * unit(j as u64 * 29 + 7);
                let accuracy = 0.55 + 0.4 * unit(j as u64 * 31 + 11);
                if unit(h * 5 + 2) >= coverage {
                    0.0
                } else if unit(h * 7 + 3) < accuracy {
                    y
                } else {
                    -y
                }
            };
            data[(i, j)] = vote;
        }
        data[(i, M)] = y;
    }
    let corr = correlation_matrix(&data).expect("non-empty data");
    let cfg = GlassoConfig {
        rho: 0.03,
        ..GlassoConfig::default()
    };
    c.bench_function("glasso_labelpick_p65", |b| {
        b.iter(|| black_box(graphical_lasso(&corr, cfg).expect("well-posed")))
    });
}

fn bench_label_models(c: &mut Criterion) {
    let votes = planted_votes(2000, 25, 0.4, 3);
    c.bench_function("triplet_fit_2000x25", |b| {
        b.iter(|| {
            let mut m = TripletMetal::new(2);
            m.fit(black_box(&votes), None).expect("fit succeeds");
            black_box(m)
        })
    });
    c.bench_function("dawid_skene_fit_2000x25", |b| {
        b.iter(|| {
            let mut m = DawidSkene::new(2);
            m.fit(black_box(&votes), None).expect("fit succeeds");
            black_box(m)
        })
    });
}

fn bench_logreg(c: &mut Criterion) {
    let data = bench_dataset(DatasetId::Imdb);
    let rows: Vec<usize> = (0..data.train.len()).collect();
    let labels = data.train.labels.clone();
    c.bench_function("logreg_fit_sparse_tfidf", |b| {
        b.iter(|| {
            let mut m = LogisticRegression::new(
                2,
                adp_linalg::Features::ncols(&data.train.features),
                LogRegConfig {
                    max_iters: 50,
                    ..LogRegConfig::default()
                },
            );
            m.fit(&data.train.features, &rows, Targets::Hard(&labels), None)
                .expect("fit succeeds");
            black_box(m)
        })
    });
}

/// Serial vs parallel batch-gradient descent on a dense 12k×64 problem —
/// the speedup this prints is the headline number for the `adp-linalg`
/// `parallel` routing (the two paths are asserted bitwise identical in
/// `adp-classifier`'s tests).
fn bench_logreg_grad_parallel(c: &mut Criterion) {
    let n = 12_000;
    let d = 64;
    let x = Matrix::from_fn(n, d, |i, j| {
        let signal = if (i % 2 == 0) == (j % 2 == 0) {
            0.8
        } else {
            -0.8
        };
        signal + (((i * 31 + j * 17) % 23) as f64 - 11.0) * 0.03
    });
    let rows: Vec<usize> = (0..n).collect();
    let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
    for (name, parallel) in [
        ("logreg_grad_serial_12000x64", false),
        ("logreg_grad_parallel_12000x64", true),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut m = LogisticRegression::new(
                    2,
                    d,
                    LogRegConfig {
                        max_iters: 10,
                        parallel,
                        ..LogRegConfig::default()
                    },
                );
                m.fit(&x, &rows, Targets::Hard(&labels), None)
                    .expect("fit succeeds");
                black_box(m)
            })
        });
    }
}

/// Serial vs parallel Dawid–Skene EM — the label-model refit hot path,
/// routed through `adp_linalg::parallel` (bitwise identical either way;
/// the workspace `tests/determinism.rs` harness pins it).
fn bench_dawid_skene_parallel(c: &mut Criterion) {
    let votes = planted_votes(8000, 40, 0.5, 3);
    for (name, exec) in [
        ("dawid_skene_em_serial", Execution::Serial),
        ("dawid_skene_em_parallel", Execution::parallel()),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut m = DawidSkene::new(2);
                m.fit_with(black_box(&votes), None, exec)
                    .expect("fit succeeds");
                black_box(m)
            })
        });
    }
}

/// Serial vs parallel glasso at p = 128 — above `MIN_PARALLEL_DIM`, where
/// the precision recovery genuinely splits into multiple chunks
/// (LabelPick's cap-sized p = 65 problems stay on the zero-overhead serial
/// path by design) — same bitwise-identical contract.
fn bench_glasso_sweep_parallel(c: &mut Criterion) {
    let data = Matrix::from_fn(600, 128, |i, j| {
        (((i * 7 + j * 13) % 23) as f64 - 11.0) * 0.1 + (i % 3) as f64 * 0.05 * (j % 9) as f64
    });
    let cov = covariance_matrix(&data).expect("non-empty data");
    let cfg = GlassoConfig {
        rho: 0.1,
        ..GlassoConfig::default()
    };
    for (name, exec) in [
        ("glasso_sweep_serial", Execution::Serial),
        ("glasso_sweep_parallel", Execution::parallel()),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| black_box(graphical_lasso_with(&cov, cfg, exec).expect("well-posed")))
        });
    }
}

/// Encode+decode of a mid-run session snapshot — the hot path of hub
/// `save_all`/`load_all` and of shipping sessions over the wire. Sized at
/// ~2k and ~12k train instances (IMDB at custom scale factors) so the
/// dominant costs (probability tables, vote matrices) are realistic.
fn bench_snapshot_roundtrip(c: &mut Criterion) {
    use activedp::{Engine, SessionConfig, SessionSnapshot};
    use adp_data::Scale;

    for (name, factor) in [
        ("snapshot_roundtrip_2k", 0.1),
        ("snapshot_roundtrip_12k", 0.6),
    ] {
        let data = adp_data::generate(DatasetId::Imdb, Scale::Custom(factor), 99)
            .expect("bench dataset generates");
        let n_train = data.train.len();
        let mut engine = Engine::builder(data)
            .config(SessionConfig::paper_defaults(true, 99))
            .build()
            .expect("engine builds");
        engine.run(6).expect("mid-run steps");
        let snapshot = engine.snapshot().expect("snapshot captures");
        let encoded_len = snapshot.to_bytes().len();
        eprintln!("{name}: {n_train} train instances, {encoded_len} encoded bytes");
        c.bench_function(name, |b| {
            b.iter(|| {
                let bytes = black_box(&snapshot).to_bytes();
                black_box(SessionSnapshot::from_bytes(&bytes).expect("roundtrips"))
            })
        });
    }
}

/// The write-ahead log's two hot paths: appending a 1000-event batch
/// (999 in-batch events plus one fsynced commit — the shape a large
/// `step_batch` journals) and recovering it (re-open the directory and
/// decode every event, CRCs checked — the `load_all` tail-replay read).
fn bench_wal(c: &mut Criterion) {
    use activedp::{ScenarioSpec, StepEvent};
    use adp_data::{DatasetSpec, Scale};
    use adp_lf::LabelFunction;
    use adp_wal::Journal;

    const EVENTS: usize = 1000;
    let spec = ScenarioSpec::new(DatasetSpec {
        id: DatasetId::Youtube,
        scale: Scale::Tiny,
        seed: 7,
    });
    let events: Vec<StepEvent> = (1..=EVENTS)
        .map(|iteration| StepEvent {
            iteration,
            query: Some(iteration % 512),
            lf: Some(LabelFunction::Keyword {
                token: (iteration % 300) as u32,
                label: iteration % 2,
            }),
            sampler_rng: [iteration as u64; 4],
            oracle_rng: [!(iteration as u64); 4],
            route: None,
            commit: iteration == EVENTS,
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("adp-wal-bench-{}", std::process::id()));

    c.bench_function("wal_append_1k", |b| {
        b.iter_batched(
            || Journal::create(&dir, 1, spec.clone(), 0).expect("journal creates"),
            |mut journal| {
                for event in &events {
                    journal.append(event).expect("appends");
                }
                black_box(journal.durable_iteration())
            },
            BatchSize::PerIteration,
        )
    });

    let mut journal = Journal::create(&dir, 1, spec.clone(), 0).expect("journal creates");
    for event in &events {
        journal.append(event).expect("appends");
    }
    drop(journal);
    c.bench_function("wal_replay_1k", |b| {
        b.iter(|| {
            let journal = Journal::open(black_box(&dir)).expect("journal opens");
            black_box(journal.events().expect("events decode").len())
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dual-oracle routing throughput: 1000 consults through an
/// `OracleRouter` under the uncertainty policy, hints alternating so both
/// the cheap noisy oracle and the expensive simulated user answer — the
/// per-query overhead the router adds to a labelling session.
fn bench_oracle_route(c: &mut Criterion) {
    use activedp::{ConfusionSpec, LatencyModel, NoisyOracle, Oracle, OracleRouter, RoutePolicy};
    use adp_lf::SimulatedUser;

    const QUERIES: usize = 1000;
    let split = bench_dataset(DatasetId::Youtube);
    let space = CandidateSpace::build(&split.train);
    let n = split.train.labels.len();
    c.bench_function("oracle_route_1k", |b| {
        b.iter_batched(
            || {
                OracleRouter::new(
                    SimulatedUser::with_defaults(7),
                    NoisyOracle::new(ConfusionSpec::Uniform { accuracy: 0.8 }, 0.6, 8),
                    RoutePolicy::UncertaintyThreshold { tau: 0.3 },
                    LatencyModel::default(),
                )
            },
            |mut router| {
                for q in 0..QUERIES {
                    let hint = Some(if q % 2 == 0 { 0.1 } else { 0.45 });
                    let (lf, choice) =
                        router.respond_routed(&space, &split.train, &split.train, q % n, hint);
                    black_box((lf, choice));
                }
                black_box(router.stats().total_cost())
            },
            BatchSize::PerIteration,
        )
    });
}

/// Drift application over a dense pool: the per-boundary cost of
/// regenerating the drifted splits when a `covariate:AT,ROT` spec fires
/// (`DriftSpec::apply` clones and rotates train/valid/test).
fn bench_drift_regen(c: &mut Criterion) {
    use adp_data::DriftSpec;

    let base = bench_dataset(DatasetId::Census);
    let drift = DriftSpec::CovariateDrift {
        at: 6,
        rotation: 0.4,
    };
    c.bench_function("drift_regen_pool", |b| {
        b.iter(|| {
            let drifted = black_box(&drift)
                .apply(black_box(&base))
                .expect("covariate drift rewrites the split");
            black_box(drifted.train.labels.len())
        })
    });
}

/// Expansion of a full-size sweep grid into concrete `ScenarioSpec`s —
/// the `adp-sweep` planner (8 datasets × 6 samplers × 3 label models ×
/// 4 schedules × 5 seeds = 2880 specs), plus each spec's wire encoding
/// (what a distributed sweep would ship to workers).
fn bench_sweep_expand_grid(c: &mut Criterion) {
    use activedp::{LabelModelKind, SamplerChoice};
    use adp_data::Scale;
    use adp_experiments::SweepGrid;

    let grid = SweepGrid {
        datasets: DatasetId::all().to_vec(),
        scale: Scale::Paper,
        data_seed: 7,
        samplers: SamplerChoice::all().to_vec(),
        label_models: LabelModelKind::all().to_vec(),
        ks: vec![1, 4, 16, 64],
        budget: 300,
        seeds: vec![1, 2, 3, 4, 5],
        candidates: activedp::CandidateStrategy::Exact,
        oracles: vec![activedp::OracleKind::Simulated],
        drifts: vec![adp_data::DriftSpec::None],
    };
    assert_eq!(grid.len(), 2880);
    c.bench_function("sweep_expand_grid_2880", |b| {
        b.iter(|| black_box(black_box(&grid).expand()))
    });
    let specs = grid.expand();
    c.bench_function("sweep_encode_grid_2880", |b| {
        b.iter(|| {
            specs
                .iter()
                .map(|s| black_box(s).to_bytes().len())
                .sum::<usize>()
        })
    });
}

/// Sampler scoring over large unlabeled pools: the exact path walks every
/// row (entropy of a logistic model's posterior), the ANN path routes
/// through a prebuilt `adp-index` IVF — score ≤ 8 probe members per list to
/// rank the lists, then score only the `nprobe` most uncertain lists, as
/// the engine's `CandidateStrategy::Ann` does. The printed ratio at 100k is
/// the README "Large pools" crossover number (recall is pinned ≥ 0.9 by
/// `adp-index`'s planted-cluster test).
fn bench_sampler_pool(c: &mut Criterion) {
    use adp_index::{IvfIndex, IvfParams};

    const DIM: usize = 16;
    const NPROBE: usize = 8;
    const PROBE_SAMPLE: usize = 8;
    let entropy = |p: f64| {
        let q = 1.0 - p;
        let term = |v: f64| if v > 0.0 { -v * v.ln() } else { 0.0 };
        term(p) + term(q)
    };
    let weights: Vec<f64> = (0..DIM).map(|j| ((j % 5) as f64 - 2.0) * 0.3).collect();
    let score = |x: &Matrix, i: usize| {
        let mut z = 0.0;
        for (j, w) in weights.iter().enumerate() {
            z += x[(i, j)] * w;
        }
        entropy(1.0 / (1.0 + (-z).exp()))
    };

    for (tag, n) in [("10k", 10_000usize), ("100k", 100_000)] {
        // A pool with planted cluster structure (what makes IVF routing
        // meaningful) plus per-row jitter.
        let x = Matrix::from_fn(n, DIM, |i, j| {
            let centre = ((i * 37) % 64) as f64 * 0.5;
            centre + (((i * 31 + j * 17) % 23) as f64 - 11.0) * 0.05
        });

        c.bench_function(&format!("sampler_pool_{tag}_exact"), |b| {
            b.iter(|| {
                let mut best = (f64::NEG_INFINITY, 0usize);
                for i in 0..n {
                    let h = score(&x, i);
                    if h > best.0 {
                        best = (h, i);
                    }
                }
                black_box(best)
            })
        });

        let index = IvfIndex::build(&x, &IvfParams::default());
        c.bench_function(&format!("sampler_pool_{tag}_ann"), |b| {
            b.iter(|| {
                // Rank lists by the mean entropy of their first few members…
                let mut ranked: Vec<(f64, usize)> = (0..index.nlist())
                    .map(|l| {
                        let members = index.list(l);
                        let probe = &members[..members.len().min(PROBE_SAMPLE)];
                        let mean = if probe.is_empty() {
                            f64::NEG_INFINITY
                        } else {
                            probe.iter().map(|&i| score(&x, i)).sum::<f64>() / probe.len() as f64
                        };
                        (mean, l)
                    })
                    .collect();
                ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
                // …then score only the members of the top-nprobe lists.
                let mut best = (f64::NEG_INFINITY, 0usize);
                for &(_, l) in ranked.iter().take(NPROBE) {
                    for &i in index.list(l) {
                        let h = score(&x, i);
                        if h > best.0 {
                            best = (h, i);
                        }
                    }
                }
                black_box(best)
            })
        });
    }
}

/// Cost of (re)building the IVF index over a 100k-row pool — what the
/// engine pays lazily at the first `Ann` selection and again after every
/// `refresh_every` refits. Amortised over a selection round it must stay
/// small next to exact scoring for ANN to win end-to-end.
fn bench_index_build(c: &mut Criterion) {
    use adp_index::{IvfIndex, IvfParams};

    let n = 100_000;
    let x = Matrix::from_fn(n, 16, |i, j| {
        let centre = ((i * 37) % 64) as f64 * 0.5;
        centre + (((i * 31 + j * 17) % 23) as f64 - 11.0) * 0.05
    });
    c.bench_function("index_build_100k", |b| {
        b.iter(|| black_box(IvfIndex::build(&x, &IvfParams::default())))
    });
}

fn bench_candidate_space(c: &mut Criterion) {
    let data = bench_dataset(DatasetId::Youtube);
    c.bench_function("candidate_space_build_text", |b| {
        b.iter(|| black_box(CandidateSpace::build(&data.train)))
    });
    let space = CandidateSpace::build(&data.train);
    c.bench_function("candidates_for_query", |b| {
        b.iter(|| black_box(space.candidates_for(&data.train, &data.train, 5, 1, 0.6)))
    });
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_tfidf,
        bench_cholesky,
        bench_glasso,
        bench_glasso_labelpick,
        bench_label_models,
        bench_logreg,
        bench_logreg_grad_parallel,
        bench_dawid_skene_parallel,
        bench_glasso_sweep_parallel,
        bench_snapshot_roundtrip,
        bench_wal,
        bench_oracle_route,
        bench_drift_regen,
        bench_sweep_expand_grid,
        bench_sampler_pool,
        bench_index_build,
        bench_candidate_space
);
criterion_main!(kernels);
