//! Serial-vs-parallel bitwise-determinism harness.
//!
//! Every parallel kernel in the workspace routes through
//! `adp_linalg::parallel::map_chunks` under its fixed-chunk reduction
//! contract: chunk boundaries depend only on the problem, grouping-
//! sensitive arithmetic is chunked in the serial path too, and `Execution`
//! is a scheduling hint. This file pins the consequence — **bitwise
//! identical** outputs at every thread count — for:
//!
//! * `map_chunks` itself, across adversarial chunk sizes (1, n−1, n, n+7);
//! * the logreg batch gradient (`LogisticRegression::fit_with`);
//! * TF-IDF vectorisation (`TfidfVectorizer::fit_transform_with`);
//! * the Dawid–Skene EM sweeps (`DawidSkene::fit_with`);
//! * the flat posterior matrices of every label model and the logistic
//!   regression, against the per-row predictions they replaced;
//! * the glasso column sweep (`graphical_lasso_with`);
//! * the samplers' per-instance scoring (`adp_sampler::score_items` and
//!   whole ADP/US/QBC selections, parallel vs serial);
//! * a full `Engine` trajectory (`EngineBuilder::parallel(false)` vs the
//!   threaded default).
//!
//! Thread counts 1/2/3/7 are swept in-process through
//! `Execution::with_threads`; the CI matrix additionally re-runs the whole
//! suite under `ADP_NUM_THREADS=1` and `=4` to exercise the process-wide
//! budget path.
//!
//! One golden pin sits alongside: a LabelPick-shaped glasso whose
//! off-diagonal zero pattern, sweep count and output-bit hash are fixed,
//! so a kernel rewrite is checked against recorded output (the engine
//! trajectory that reaches the glasso is pinned in
//! `tests/labelpick_golden.rs`).

use activedp_repro::classifier::{LogRegConfig, LogisticRegression, Targets};
use activedp_repro::core::Engine;
use activedp_repro::data::{generate, DatasetId, Scale};
use activedp_repro::glasso::{graphical_lasso_with, GlassoConfig};
use activedp_repro::labelmodel::{predict_all_with, DawidSkene, LabelModel, MajorityVote};
use activedp_repro::lf::{LabelMatrix, ABSTAIN};
use activedp_repro::linalg::parallel::{map_chunks, Execution};
use activedp_repro::linalg::{covariance_matrix, Matrix};
use activedp_repro::text::TfidfVectorizer;

/// Worker counts swept per kernel: degenerate (1), even split (2), uneven
/// split (3), and more threads than some inputs have chunks (7).
const THREADS: [usize; 4] = [1, 2, 3, 7];

/// `flat` holds, row for row, exactly the per-row predictions `rows`.
fn assert_rows_bitwise(label: &str, flat: &Matrix, rows: &[Vec<f64>]) {
    assert_eq!(flat.nrows(), rows.len(), "{label}: row count");
    for (i, (ra, rb)) in flat.row_iter().zip(rows).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{label}: row {i} length");
        for (j, (x, y)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: ({i},{j}) {x:e} vs {y:e}"
            );
        }
    }
}

fn assert_matrix_bitwise(label: &str, a: &Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "{label}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: flat index {i}");
    }
}

/// A grouping-sensitive reduction (catastrophically non-associative sums)
/// over adversarial chunk sizes: whatever the chunking, serial and parallel
/// must group identically.
#[test]
fn map_chunks_bitwise_across_threads_and_adversarial_chunks() {
    let n = 1019; // prime, so most chunk sizes split unevenly
    for chunk in [1, n - 1, n, n + 7] {
        let run = |exec: Execution| -> f64 {
            map_chunks(n, chunk, exec, |r| {
                r.map(|i| ((i as f64) * 1e-3).sin() / (i as f64 + 1.0))
                    .sum::<f64>()
            })
            .into_iter()
            .fold(0.0_f64, |acc, x| acc + x)
        };
        let serial = run(Execution::Serial);
        assert_eq!(
            serial.to_bits(),
            run(Execution::parallel()).to_bits(),
            "chunk={chunk} default budget"
        );
        for t in THREADS {
            assert_eq!(
                serial.to_bits(),
                run(Execution::with_threads(t)).to_bits(),
                "chunk={chunk} threads={t}"
            );
        }
    }
}

/// Batch-gradient logreg: the chunked gradient reduction is the original
/// grouping-sensitive kernel; weights and bulk predictions must match to
/// the bit at any thread count.
#[test]
fn logreg_fit_bitwise_across_threads() {
    let n = 3000;
    let d = 24;
    let x = Matrix::from_fn(n, d, |i, j| {
        let signal = if (i % 2 == 0) == (j % 2 == 0) {
            0.7
        } else {
            -0.7
        };
        signal + (((i * 31 + j * 17) % 23) as f64 - 11.0) * 0.04
    });
    let rows: Vec<usize> = (0..n).collect();
    let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
    let cfg = LogRegConfig {
        max_iters: 15,
        ..LogRegConfig::default()
    };
    let fit = |exec: Execution| {
        let mut m = LogisticRegression::new(2, d, cfg);
        m.fit_with(&x, &rows, Targets::Hard(&labels), None, exec)
            .expect("fit succeeds");
        let probs = m.predict_proba_all_with(&x, exec);
        (m, probs)
    };
    let (serial_model, serial_probs) = fit(Execution::Serial);
    for t in THREADS {
        let (par_model, par_probs) = fit(Execution::with_threads(t));
        assert_matrix_bitwise(
            &format!("logreg weights, threads={t}"),
            serial_model.weights(),
            par_model.weights(),
        );
        assert_matrix_bitwise(
            &format!("logreg probs, threads={t}"),
            &serial_probs,
            &par_probs,
        );
    }
}

/// TF-IDF: tokenisation and row weighting fan out per document; the
/// vocabulary, idf table and every CSR row must be identical.
#[test]
fn tfidf_fit_transform_bitwise_across_threads() {
    let docs: Vec<String> = (0..400)
        .map(|i| {
            let mut words: Vec<String> = (0..(3 + i % 6))
                .map(|k| format!("tok{}", (i * 29 + k * 13) % 83))
                .collect();
            words.push(format!("rare{}", i % 50));
            words.join(" ")
        })
        .collect();
    let mut serial_v = TfidfVectorizer::default();
    let serial = serial_v.fit_transform_with(&docs, Execution::Serial);
    for t in THREADS {
        let mut par_v = TfidfVectorizer::default();
        let par = par_v.fit_transform_with(&docs, Execution::with_threads(t));
        assert_eq!(serial_v.vocabulary().len(), par_v.vocabulary().len());
        for id in 0..serial_v.vocabulary().len() as u32 {
            assert_eq!(
                serial_v.idf(id).to_bits(),
                par_v.idf(id).to_bits(),
                "idf {id}, threads={t}"
            );
        }
        assert_eq!(serial.encoded_docs, par.encoded_docs, "threads={t}");
        for i in 0..serial.matrix.nrows() {
            let (si, sv) = serial.matrix.row(i);
            let (pi, pv) = par.matrix.row(i);
            assert_eq!(si, pi, "tfidf row {i} columns, threads={t}");
            let sb: Vec<u64> = sv.iter().map(|x| x.to_bits()).collect();
            let pb: Vec<u64> = pv.iter().map(|x| x.to_bits()).collect();
            assert_eq!(sb, pb, "tfidf row {i} values, threads={t}");
        }
    }
}

/// A deterministic planted vote matrix: LF `j` votes the true label with
/// its planted accuracy, abstaining on a coverage pattern — all driven by a
/// multiplicative hash so the fixture needs no RNG.
fn planted_votes(n: usize, accs: &[f64], cov: f64) -> LabelMatrix {
    let unit = |x: u64| (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
    let rows: Vec<Vec<i8>> = (0..n)
        .map(|i| {
            let y = usize::from(unit(i as u64 * 3 + 1) < 0.5);
            accs.iter()
                .enumerate()
                .map(|(j, &a)| {
                    let h = (i * accs.len() + j) as u64;
                    if unit(h * 5 + 2) >= cov {
                        ABSTAIN
                    } else if unit(h * 7 + 3) < a {
                        y as i8
                    } else {
                        (1 - y) as i8
                    }
                })
                .collect()
        })
        .collect();
    LabelMatrix::from_votes(&rows).unwrap()
}

/// Dawid–Skene EM: the E-step posteriors are pure per-row work and the
/// M-step merges per-chunk count partials in chunk order; prior, confusion
/// tables and posteriors must match to the bit.
#[test]
fn dawid_skene_fit_bitwise_across_threads() {
    let votes = planted_votes(1700, &[0.92, 0.8, 0.66, 0.55, 0.5], 0.65);
    // Free prior (exercises the prior-partial merge path).
    let mut serial = DawidSkene::new(2);
    serial.fit_with(&votes, None, Execution::Serial).unwrap();
    let serial_probs = predict_all_with(&serial, &votes, Execution::Serial);
    for t in THREADS {
        let mut par = DawidSkene::new(2);
        par.fit_with(&votes, None, Execution::with_threads(t))
            .unwrap();
        for (a, b) in serial.prior().iter().zip(par.prior()) {
            assert_eq!(a.to_bits(), b.to_bits(), "DS prior, threads={t}");
        }
        for j in 0..votes.n_lfs() {
            for (ra, rb) in serial.confusion(j).iter().zip(par.confusion(j)) {
                for (a, b) in ra.iter().zip(rb) {
                    assert_eq!(a.to_bits(), b.to_bits(), "DS theta[{j}], threads={t}");
                }
            }
            assert_eq!(
                serial.lf_accuracy(j).to_bits(),
                par.lf_accuracy(j).to_bits(),
                "DS lf_accuracy[{j}], threads={t}"
            );
        }
        let par_probs = predict_all_with(&par, &votes, Execution::with_threads(t));
        assert_matrix_bitwise(
            &format!("DS posteriors, threads={t}"),
            &serial_probs,
            &par_probs,
        );
    }
}

/// Bulk prediction through the trait object (`predict_all_with`) is pure
/// per-row work for every model, not just Dawid–Skene.
#[test]
fn predict_all_bitwise_across_threads() {
    let votes = planted_votes(1500, &[0.9, 0.7, 0.6], 0.7);
    let mut mv = MajorityVote::new(2);
    mv.fit(&votes, None).unwrap();
    let serial = predict_all_with(&mv, &votes, Execution::Serial);
    for t in THREADS {
        let par = predict_all_with(&mv, &votes, Execution::with_threads(t));
        assert_matrix_bitwise(&format!("majority posteriors, threads={t}"), &serial, &par);
    }
}

/// The flat posterior caches hold, row for row, the bits of the per-row
/// predictions they replaced: every label model through `predict_all_with`
/// and through `predict_columns` on a column selection (read in place),
/// and the logistic regression on dense and sparse features, at 1, 2 and
/// 3 threads. The inputs span several fixed chunks, with a partial last
/// one.
#[test]
fn flat_predictions_equal_per_row_predict_proba() {
    use activedp_repro::labelmodel::{predict_columns, TripletMetal};
    use activedp_repro::linalg::CsrBuilder;

    let exec_sweep = [
        Execution::Serial,
        Execution::with_threads(1),
        Execution::with_threads(2),
        Execution::with_threads(3),
    ];
    let votes = planted_votes(1300, &[0.92, 0.8, 0.66, 0.7, 0.55, 0.6], 0.6);
    let cols = [5, 0, 3, 3, 1];
    let selected = votes.select_columns(&cols).unwrap();
    let view = votes.columns(&cols).unwrap();
    let mut models: Vec<(&str, Box<dyn LabelModel>)> = vec![
        ("majority", Box::new(MajorityVote::new(2))),
        ("dawid-skene", Box::new(DawidSkene::new(2))),
        ("triplet", Box::new(TripletMetal::new(2))),
    ];
    for (name, model) in &mut models {
        model.fit(&selected, Some(&[0.45, 0.55])).unwrap();
        let all_rows: Vec<Vec<f64>> = (0..votes.n_instances())
            .map(|i| model.predict_proba(votes.row(i)))
            .collect();
        let selected_rows: Vec<Vec<f64>> = (0..selected.n_instances())
            .map(|i| model.predict_proba(selected.row(i)))
            .collect();
        for exec in exec_sweep {
            let model = model.as_ref();
            let all = predict_all_with(model, &votes, exec);
            assert_rows_bitwise(&format!("{name} all {exec:?}"), &all, &all_rows);
            let in_place = predict_columns(model, &view, exec);
            assert_rows_bitwise(
                &format!("{name} columns {exec:?}"),
                &in_place,
                &selected_rows,
            );
        }
    }

    let (n, d) = (2500, 9);
    let dense = Matrix::from_fn(n, d, |i, j| {
        if (i * 7 + j * 3) % 4 == 0 {
            (((i * 13 + j * 5) % 17) as f64 - 8.0) * 0.1
        } else {
            0.0
        }
    });
    let mut builder = CsrBuilder::new(d);
    for i in 0..n {
        let row = dense.row(i).iter().enumerate();
        builder.push_row(row.map(|(j, &x)| (j as u32, x)).collect());
    }
    let sparse = builder.finish();
    let rows: Vec<usize> = (0..n).step_by(5).collect();
    let labels: Vec<usize> = rows
        .iter()
        .map(|&i| usize::from(dense[(i, 0)] > 0.0))
        .collect();
    let mut model = LogisticRegression::new(
        2,
        d,
        LogRegConfig {
            max_iters: 10,
            ..LogRegConfig::default()
        },
    );
    model
        .fit(&dense, &rows, Targets::Hard(&labels), None)
        .unwrap();
    let dense_rows: Vec<Vec<f64>> = (0..n).map(|i| model.predict_proba(&dense, i)).collect();
    let sparse_rows: Vec<Vec<f64>> = (0..n).map(|i| model.predict_proba(&sparse, i)).collect();
    for exec in exec_sweep {
        let flat = model.predict_proba_all_with(&dense, exec);
        assert_rows_bitwise(&format!("logreg dense {exec:?}"), &flat, &dense_rows);
        let flat = model.predict_proba_all_with(&sparse, exec);
        assert_rows_bitwise(&format!("logreg sparse {exec:?}"), &flat, &sparse_rows);
    }
}

/// Glasso: the precision recovery fans out; the warm-started column order
/// is untouched, so covariance, precision and the sweep count must match
/// exactly.
#[test]
fn glasso_bitwise_across_threads() {
    let data = Matrix::from_fn(350, 52, |i, j| {
        (((i * 11 + j * 7) % 19) as f64 - 9.0) * 0.1 + (i % 4) as f64 * 0.05 * (j % 5) as f64
    });
    let s = covariance_matrix(&data).unwrap();
    let cfg = GlassoConfig {
        rho: 0.08,
        ..GlassoConfig::default()
    };
    let serial = graphical_lasso_with(&s, cfg, Execution::Serial).unwrap();
    for t in THREADS {
        let par = graphical_lasso_with(&s, cfg, Execution::with_threads(t)).unwrap();
        assert_eq!(serial.sweeps, par.sweeps, "glasso sweeps, threads={t}");
        assert_matrix_bitwise(
            &format!("glasso precision, threads={t}"),
            &serial.precision,
            &par.precision,
        );
        assert_matrix_bitwise(
            &format!("glasso covariance, threads={t}"),
            &serial.covariance,
            &par.covariance,
        );
    }
}

/// The end-to-end pin: a session stepped with the refit-stage kernels
/// forced serial (`EngineBuilder::parallel(false)`; LF application and
/// covariance assembly keep their own `auto` policy, which is itself
/// bitwise-invariant) reproduces the threaded default bit for bit —
/// queries, LF picks, LabelPick selections and the downstream evaluation.
#[test]
fn engine_trajectory_serial_matches_parallel() {
    const ITERS: usize = 12;
    let data = generate(DatasetId::Youtube, Scale::Tiny, 7)
        .expect("dataset generates")
        .into_shared();
    let run = |parallel: bool| {
        let mut engine = Engine::builder(data.clone())
            .seed(7)
            .parallel(parallel)
            .build()
            .unwrap();
        let mut trajectory = Vec::new();
        for _ in 0..ITERS {
            let out = engine.step().unwrap();
            trajectory.push((
                out.query,
                out.lf.as_ref().map(|lf| format!("{:?}", lf.key())),
                out.n_lfs,
                out.n_selected,
            ));
        }
        let report = engine.evaluate_downstream().unwrap();
        (
            trajectory,
            engine.state().selected.clone(),
            report.test_accuracy.to_bits(),
            report.label_coverage.to_bits(),
            report.threshold.map(f64::to_bits),
        )
    };
    assert_eq!(run(false), run(true));
}

/// The sampler scoring helper: chunked per-item scores must come back in
/// item order with identical bits at every thread count.
#[test]
fn sampler_score_items_bitwise_across_threads() {
    use activedp_repro::sampler::score_items_with;
    let items: Vec<usize> = (0..9001).collect();
    let score = |&i: &usize| ((i as f64) * 1e-3).sin().abs().powf(0.37) / (i as f64 + 1.0);
    let serial = score_items_with(&items, Execution::Serial, score);
    assert_eq!(serial.len(), items.len());
    for t in THREADS {
        let par = score_items_with(&items, Execution::with_threads(t), score);
        let sb: Vec<u64> = serial.iter().map(|x| x.to_bits()).collect();
        let pb: Vec<u64> = par.iter().map(|x| x.to_bits()).collect();
        assert_eq!(sb, pb, "score_items threads={t}");
    }
}

/// Whole-sampler pin: with a pool large enough to engage the parallel
/// scoring path, serial and parallel samplers draw identical query
/// sequences (ties included — the tie-break RNG consumes the same stream
/// because the scores are bitwise identical).
#[test]
fn sampler_selection_serial_matches_parallel() {
    use activedp_repro::core::AdpSampler;
    use activedp_repro::sampler::{Committee, Sampler, SamplerContext, Uncertainty};

    let n = 8192;
    let d = activedp_repro::data::Dataset {
        name: "pool".into(),
        task: activedp_repro::data::Task::OccupancyPrediction,
        n_classes: 2,
        features: activedp_repro::data::FeatureSet::Dense(Matrix::from_fn(n, 2, |i, j| {
            (i as f64 / n as f64 - 0.5) * (j as f64 + 1.0)
        })),
        labels: (0..n).map(|i| usize::from(i >= n / 2)).collect(),
        texts: None,
        encoded_docs: None,
    };
    // Heavily tied probabilities so the reservoir tie-break runs hot.
    let probs = Matrix::from_fn(n, 2, |i, c| {
        let p = 0.5 + ((i % 7) as f64) * 0.05;
        if c == 1 {
            p
        } else {
            1.0 - p
        }
    });

    let draw_uncertainty = |parallel: bool| {
        let mut queried = vec![false; n];
        let mut s = Uncertainty::new(11);
        s.parallel = parallel;
        (0..40)
            .map(|_| {
                let ctx = SamplerContext {
                    train: &d,
                    queried: &queried,
                    al_probs: Some(&probs),
                    lm_probs: None,
                    n_labeled: 0,
                    space: None,
                    seen_lfs: None,
                    visible: None,
                };
                let pick = s.select(&ctx).unwrap();
                queried[pick] = true;
                pick
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(draw_uncertainty(false), draw_uncertainty(true));

    let draw_adp = |parallel: bool| {
        let mut queried = vec![false; n];
        let mut s = AdpSampler::new(0.5, 13);
        s.parallel = parallel;
        (0..40)
            .map(|_| {
                let ctx = SamplerContext {
                    train: &d,
                    queried: &queried,
                    al_probs: Some(&probs),
                    lm_probs: Some(&probs),
                    n_labeled: 0,
                    space: None,
                    seen_lfs: None,
                    visible: None,
                };
                let pick = s.select(&ctx).unwrap();
                queried[pick] = true;
                pick
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(draw_adp(false), draw_adp(true));

    let draw_qbc = |parallel: bool| {
        let queried = vec![false; n];
        let mut s = Committee::new(17, 3);
        s.parallel = parallel;
        s.max_candidates = n; // score the whole pool through the chunked path
        s.set_labeled(&[0, 1, n - 2, n - 1], &[0, 0, 1, 1]);
        let ctx = SamplerContext {
            train: &d,
            queried: &queried,
            al_probs: None,
            lm_probs: None,
            n_labeled: 4,
            space: None,
            seen_lfs: None,
            visible: None,
        };
        (0..3).map(|_| s.select(&ctx).unwrap()).collect::<Vec<_>>()
    };
    assert_eq!(draw_qbc(false), draw_qbc(true));
}

/// 64-bit FNV-1a over the little-endian bits of a sequence of floats.
fn fnv1a_bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Golden glasso on a LabelPick-shaped problem: t = 100 signed-vote query
/// rows over 64 LFs plus the pseudo-label column (p = 65, LabelPick's cap),
/// standardised with `correlation_matrix` and solved at LabelPick's default
/// ρ = 0.03. The last 16 LFs are noisy copies of earlier ones, so the
/// precision has real off-diagonal structure and the coordinate-descent
/// active sets change along the solve. Two pins: an FNV-1a hash of the
/// precision's off-diagonal zero pattern (the graph LabelPick reads), and
/// the sweep count with a hash of the precision and covariance bits, so
/// any kernel change that moves a single bit of the glasso output fails
/// here.
#[test]
fn glasso_labelpick_shaped_golden() {
    use activedp_repro::linalg::correlation_matrix;
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
    let corr = correlation_matrix(&data).unwrap();
    let cfg = GlassoConfig {
        rho: 0.03,
        ..GlassoConfig::default()
    };
    let out = graphical_lasso_with(&corr, cfg, Execution::Serial).unwrap();
    let hash = fnv1a_bits(
        out.precision
            .as_slice()
            .iter()
            .chain(out.covariance.as_slice()),
    );
    let p = M + 1;
    // 1.0 where an off-diagonal precision entry is exactly zero.
    let zero_pattern: Vec<f64> = (0..p)
        .flat_map(|i| (0..p).map(move |j| (i, j)))
        .filter(|&(i, j)| i != j)
        .map(|(i, j)| f64::from(u8::from(out.precision[(i, j)] == 0.0)))
        .collect();
    let zero_edges = zero_pattern.iter().filter(|&&z| z == 1.0).count();
    // The fixture must exercise both sides of the ℓ1 kink.
    assert!(
        zero_edges > 0 && zero_edges < p * (p - 1),
        "{zero_edges} zero edges"
    );
    // The support is pinned on its own: a solver change may move the
    // nonzero values' bits (re-pinned below) but not which edges vanish.
    let support = fnv1a_bits(&zero_pattern);
    assert_eq!(
        support, 0x27c7_7342_d6d0_2845,
        "glasso golden support moved: zero-pattern hash {support:#018x}"
    );
    assert_eq!(
        (out.sweeps, hash),
        (5, 0x5281_6cd4_1ad6_5caa),
        "glasso golden moved: sweeps {} hash {hash:#018x}",
        out.sweeps
    );
}
