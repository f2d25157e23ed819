//! Microbenchmarks of the computational substrates.

use activedp::AdpSampler;
use adp_bench::{bench_corpus, bench_dataset, planted_votes};
use adp_classifier::{LogRegConfig, LogisticRegression, Targets};
use adp_data::DatasetId;
use adp_glasso::{graphical_lasso, graphical_lasso_with, GlassoConfig};
use adp_labelmodel::{predict_columns, DawidSkene, LabelModel, TripletMetal};
use adp_lf::{CandidateSpace, LabelMatrix};
use adp_linalg::{correlation_matrix, covariance_matrix, Cholesky, Execution, Matrix};
use adp_sampler::{Sampler, SamplerContext};
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
    // A matrix keeps the moment ledger its first fit scans, so each
    // iteration fits a fresh copy: the row times the scan and the estimate.
    c.bench_function("triplet_fit_2000x25", |b| {
        b.iter_batched(
            || {
                let (rows, lfs) = (votes.n_instances(), votes.n_lfs());
                LabelMatrix::from_raw(rows, lfs, votes.votes().to_vec()).expect("same shape")
            },
            |fresh| {
                let mut m = TripletMetal::new(2);
                m.fit(black_box(&fresh), None).expect("fit succeeds");
                black_box(m)
            },
            BatchSize::PerIteration,
        )
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

/// Encode → decode → resume of a mid-run session snapshot — the cost of
/// an evict/resume cycle in the hub and of shipping sessions over the
/// wire. A snapshot holds no pool-sized field, so the resume (the LFs
/// applied to the split and two predicts from the stored parameters) is
/// what grows with the pool; sized at ~2k and ~12k train instances (IMDB
/// at custom scale factors).
fn bench_snapshot_roundtrip(c: &mut Criterion) {
    use activedp::{Engine, EngineBuilder, SessionConfig, SessionSnapshot};
    use adp_data::Scale;

    for (name, factor) in [
        ("snapshot_roundtrip_2k", 0.1),
        ("snapshot_roundtrip_12k", 0.6),
    ] {
        let data = adp_data::generate(DatasetId::Imdb, Scale::Custom(factor), 99)
            .expect("bench dataset generates")
            .into_shared();
        let n_train = data.train.len();
        let mut engine = Engine::builder(data.clone())
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
                let decoded = SessionSnapshot::from_bytes(&bytes).expect("roundtrips");
                black_box(
                    EngineBuilder::new(data.clone())
                        .resume(decoded)
                        .expect("resumes"),
                )
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
    use activedp::{ConfusionSpec, LatencyModel, NoisyOracle, OracleRouter, RoutePolicy};
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
                        router.respond(&space, &split.train, &split.train, q % n, hint);
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
/// (the bytes a WAL manifest and a snapshot embed).
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

/// The ADP sampler's selections on a 20k-row, 2-class pool: `rescore`
/// changes one cached posterior before every selection, so each one scores
/// the whole pool; `batch5` draws five queries (marking each queried)
/// against one pair of caches, the shape of a `FixedBatch{k: 5}` refit.
fn bench_sampler_pool(c: &mut Criterion) {
    const N: usize = 20_000;
    let pool = adp_data::Dataset {
        name: "pool".into(),
        task: adp_data::Task::OccupancyPrediction,
        n_classes: 2,
        features: adp_data::FeatureSet::Dense(Matrix::zeros(N, 1)),
        labels: vec![0; N],
        texts: None,
        encoded_docs: None,
    };
    let posterior = |salt: usize| {
        Matrix::from_fn(N, 2, |i, c| {
            let p = 0.02 + 0.96 * (((i * 37 + salt) % 1009) as f64 / 1008.0);
            if c == 1 {
                p
            } else {
                1.0 - p
            }
        })
    };
    let mut al = posterior(0);
    let lm = posterior(5);
    let mut queried = vec![false; N];
    let mut sampler = AdpSampler::new(0.5, 7);
    let mut flip = 0.1;
    // Moves one AL posterior value, so the next selection sees new caches.
    let mut refit = |al: &mut Matrix| {
        flip = 0.3 - flip;
        al[(0, 1)] = flip;
        al[(0, 0)] = 1.0 - flip;
    };
    let select = |sampler: &mut AdpSampler, queried: &[bool], al: &Matrix| {
        sampler.select(&SamplerContext {
            train: &pool,
            queried,
            al_probs: Some(al),
            lm_probs: Some(&lm),
            n_labeled: 0,
            space: None,
            seen_lfs: None,
            visible: None,
        })
    };

    c.bench_function("sampler_pool_20k_rescore", |b| {
        b.iter(|| {
            refit(&mut al);
            black_box(select(&mut sampler, &queried, &al))
        })
    });
    c.bench_function("sampler_pool_20k_batch5", |b| {
        b.iter(|| {
            refit(&mut al);
            queried.fill(false);
            for _ in 0..5 {
                let pick = select(&mut sampler, &queried, &al).expect("pool not exhausted");
                queried[pick] = true;
            }
            black_box(&queried);
        })
    });
}

/// The refit's two bulk predictions at Census paper scale (25,541
/// training rows), each one flat `n × 2` matrix: the triplet label model
/// over the selected columns of a 50-LF matrix read in place, and the AL
/// model over the dense features.
fn bench_bulk_predict(c: &mut Criterion) {
    let votes = planted_votes(25_541, 50, 0.3, 5);
    let selected: Vec<usize> = (0..50).step_by(2).collect();
    let view = votes.columns(&selected).expect("columns in range");
    let mut triplet = TripletMetal::new(2);
    triplet.fit_columns(&view, None).expect("fit succeeds");
    c.bench_function("predict_all_triplet_25k", |b| {
        b.iter(|| {
            black_box(predict_columns(
                &triplet,
                black_box(&view),
                Execution::Serial,
            ))
        })
    });

    let census = census_paper();
    let rows: Vec<usize> = (0..census.train.len()).step_by(250).collect();
    let labels: Vec<usize> = rows.iter().map(|&i| census.train.labels[i]).collect();
    let mut al = LogisticRegression::new(
        2,
        adp_linalg::Features::ncols(&census.train.features),
        LogRegConfig::default(),
    );
    al.fit(&census.train.features, &rows, Targets::Hard(&labels), None)
        .expect("fit succeeds");
    c.bench_function("predict_proba_all_census_25k", |b| {
        b.iter(|| black_box(al.predict_proba_all(black_box(&census.train.features))))
    });
}

/// Census at paper scale, the census-step workload's pool.
fn census_paper() -> adp_data::SplitDataset {
    adp_data::generate(DatasetId::Census, adp_data::Scale::Paper, 7).expect("census generates")
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
    // One oracle query's stump candidates over the 25,541-row Census pool.
    let census = census_paper();
    let space = CandidateSpace::build(&census.train);
    let label = census.train.labels[17];
    c.bench_function("candidates_for_query_tabular", |b| {
        b.iter(|| black_box(space.candidates_for(&census.train, &census.train, 17, label, 0.6)))
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
        bench_bulk_predict,
        bench_candidate_space
);
criterion_main!(kernels);
