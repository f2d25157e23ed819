//! Property-based tests on the core invariants of the stack.
//!
//! Each property runs over 64 seeded random cases (the build environment has
//! no `proptest`, so a deterministic RNG drives the case generation — every
//! failure is reproducible from the printed case seed).

use activedp_repro::core::{aggregate, tune_threshold};
use activedp_repro::glasso::{graphical_lasso, GlassoConfig};
use activedp_repro::labelmodel::{DawidSkene, LabelModel, MajorityVote, TripletMetal};
use activedp_repro::lf::{LabelMatrix, ABSTAIN};
use activedp_repro::linalg::{
    covariance_matrix, entropy, lasso_quadratic_cd, softmax_inplace, Cholesky, CsrBuilder, Matrix,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

const CASES: u64 = 64;

fn case_rng(test: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(test.wrapping_mul(0x9E37_79B9).wrapping_add(case))
}

/// A well-formed vote matrix (votes in {-1, 0, 1}) with 1..=max_n rows and
/// 1..=max_m LFs.
fn vote_matrix(rng: &mut StdRng, max_n: usize, max_m: usize) -> Vec<Vec<i8>> {
    let m = rng.gen_range(1..=max_m);
    let n = rng.gen_range(1..=max_n);
    (0..n)
        .map(|_| (0..m).map(|_| rng.gen_range(0..3usize) as i8 - 1).collect())
        .collect()
}

/// A probability distribution over two classes.
fn binary_dist(rng: &mut StdRng) -> Vec<f64> {
    let p = rng.gen_range(0.0..=1.0);
    vec![1.0 - p, p]
}

#[test]
fn label_models_output_probability_simplexes() {
    for case in 0..CASES {
        let rng = &mut case_rng(1, case);
        let rows = vote_matrix(rng, 12, 5);
        let matrix = LabelMatrix::from_votes(&rows).unwrap();
        let models: Vec<Box<dyn LabelModel>> = vec![
            Box::new(MajorityVote::new(2)),
            Box::new(DawidSkene::new(2)),
            Box::new(TripletMetal::new(2)),
        ];
        for mut model in models {
            model.fit(&matrix, None).unwrap();
            for row in &rows {
                let p = model.predict_proba(row);
                assert_eq!(p.len(), 2, "case {case}");
                assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)), "case {case}");
                assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "case {case}");
            }
        }
    }
}

#[test]
fn label_matrix_roundtrip() {
    for case in 0..CASES {
        let rng = &mut case_rng(2, case);
        let rows = vote_matrix(rng, 10, 6);
        let m = LabelMatrix::from_votes(&rows).unwrap();
        assert_eq!(m.n_instances(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(m.row(i), row.as_slice());
        }
        // Column selection preserves content.
        let cols: Vec<usize> = (0..m.n_lfs()).rev().collect();
        let sel = m.select_columns(&cols).unwrap();
        for i in 0..m.n_instances() {
            for (k, &c) in cols.iter().enumerate() {
                assert_eq!(sel.get(i, k), m.get(i, c));
            }
        }
    }
}

#[test]
fn confusion_coverage_monotone_in_tau() {
    for case in 0..CASES {
        let rng = &mut case_rng(3, case);
        let n = rng.gen_range(1..20usize);
        let al: Vec<Vec<f64>> = (0..n).map(|_| binary_dist(rng)).collect();
        let lm_seed = rng.gen_range(0..1000u64);
        let lm: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let p = ((i as u64 * 7 + lm_seed) % 100) as f64 / 100.0;
                vec![1.0 - p, p]
            })
            .collect();
        let has_vote: Vec<bool> = (0..n).map(|i| (i as u64 + lm_seed) % 3 != 0).collect();
        let (al, lm) = (
            Matrix::from_rows(&al).unwrap(),
            Matrix::from_rows(&lm).unwrap(),
        );
        let coverage = |tau: f64| {
            aggregate(&al, &lm, &has_vote, tau)
                .iter()
                .filter(|l| l.is_some())
                .count()
        };
        // Raising tau can only shrink the covered set.
        assert!(coverage(0.0) >= coverage(0.55), "case {case}");
        assert!(coverage(0.55) >= coverage(0.8), "case {case}");
        assert!(coverage(0.8) >= coverage(1.01), "case {case}");
    }
}

#[test]
fn tuned_threshold_is_a_valid_confidence() {
    for case in 0..CASES {
        let rng = &mut case_rng(4, case);
        let n = rng.gen_range(2..20usize);
        let al: Vec<Vec<f64>> = (0..n).map(|_| binary_dist(rng)).collect();
        let lm: Vec<Vec<f64>> = al.iter().rev().cloned().collect();
        let has_vote = vec![true; n];
        let truth: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let (al, lm) = (
            Matrix::from_rows(&al).unwrap(),
            Matrix::from_rows(&lm).unwrap(),
        );
        let tau = tune_threshold(&al, &lm, &has_vote, &truth);
        assert!((0.0..=1.0).contains(&tau), "case {case}: tau {tau}");
    }
}

#[test]
fn entropy_bounds_hold() {
    for case in 0..CASES {
        let rng = &mut case_rng(5, case);
        let p = binary_dist(rng);
        let h = entropy(&p);
        assert!(h >= 0.0, "case {case}");
        assert!(h <= (2.0f64).ln() + 1e-12, "case {case}");
    }
}

#[test]
fn softmax_produces_distribution() {
    for case in 0..CASES {
        let rng = &mut case_rng(6, case);
        let len = rng.gen_range(1..6usize);
        let mut l: Vec<f64> = (0..len).map(|_| rng.gen_range(-30.0..=30.0)).collect();
        softmax_inplace(&mut l);
        assert!((l.iter().sum::<f64>() - 1.0).abs() < 1e-9, "case {case}");
        assert!(l.iter().all(|&x| x >= 0.0), "case {case}");
    }
}

#[test]
fn cholesky_reconstructs_spd_matrices() {
    for case in 0..CASES {
        let rng = &mut case_rng(7, case);
        let seed = rng.gen_range(0..500u64);
        let dim = rng.gen_range(1..6usize);
        // Build SPD as B Bᵀ + I from a deterministic pseudo-random B.
        let b = Matrix::from_fn(dim, dim, |i, j| {
            (((seed as usize + i * 31 + j * 17) % 13) as f64 - 6.0) / 6.0
        });
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diagonal(1.0).unwrap();
        let ch = Cholesky::factor(&a).unwrap();
        let rec = ch.factor_l().matmul(&ch.factor_l().transpose()).unwrap();
        for i in 0..dim {
            for j in 0..dim {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-8, "case {case}");
            }
        }
    }
}

#[test]
fn covariance_diagonal_nonnegative() {
    for case in 0..CASES {
        let rng = &mut case_rng(8, case);
        let seed = rng.gen_range(0..500u64);
        let n = rng.gen_range(2..12usize);
        let p = rng.gen_range(1..5usize);
        let data = Matrix::from_fn(n, p, |i, j| {
            (((seed as usize + i * 13 + j * 7) % 23) as f64 - 11.0) * 0.1
        });
        let cov = covariance_matrix(&data).unwrap();
        for j in 0..p {
            assert!(cov[(j, j)] >= -1e-12, "case {case}");
        }
        assert!(cov.is_symmetric(1e-12), "case {case}");
    }
}

#[test]
fn lasso_solution_sparsity_grows_with_penalty() {
    for case in 0..CASES {
        let rng = &mut case_rng(9, case);
        let s0 = rng.gen_range(-1.0..=1.0);
        let s1 = rng.gen_range(-1.0..=1.0);
        let v = Matrix::identity(2);
        let s = vec![s0, s1];
        let nnz = |rho: f64| {
            let mut beta = vec![0.0; 2];
            lasso_quadratic_cd(&v, &s, rho, &mut beta, Default::default()).unwrap();
            beta.iter().filter(|&&b| b != 0.0).count()
        };
        assert!(nnz(0.01) >= nnz(0.5), "case {case}");
        assert!(nnz(0.5) >= nnz(2.0), "case {case}");
    }
}

#[test]
fn csr_matvec_matches_dense() {
    for case in 0..CASES {
        let rng = &mut case_rng(10, case);
        let n = rng.gen_range(1..8usize);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| rng.gen_range(-5.0..=5.0)).collect())
            .collect();
        let mut b = CsrBuilder::new(3);
        for r in &rows {
            b.push_row(r.iter().enumerate().map(|(j, &x)| (j as u32, x)).collect());
        }
        let sparse = b.finish();
        let dense = Matrix::from_rows(&rows).unwrap();
        let v = vec![0.3, -1.5, 2.0];
        let sv = sparse.matvec(&v).unwrap();
        let dv = dense.matvec(&v).unwrap();
        for (a, c) in sv.iter().zip(&dv) {
            assert!((a - c).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn lf_accuracy_and_coverage_in_unit_interval() {
    for case in 0..CASES {
        let rng = &mut case_rng(11, case);
        let rows = vote_matrix(rng, 15, 4);
        let m = LabelMatrix::from_votes(&rows).unwrap();
        let labels: Vec<usize> = (0..m.n_instances()).map(|i| i % 2).collect();
        for j in 0..m.n_lfs() {
            let cov = m.lf_coverage(j);
            assert!((0.0..=1.0).contains(&cov), "case {case}");
            if let Some(acc) = m.lf_accuracy(j, &labels) {
                assert!((0.0..=1.0).contains(&acc), "case {case}");
                assert!(cov > 0.0, "case {case}");
            }
        }
        assert!(m.coverage() >= m.overlap(), "case {case}");
        assert!(m.overlap() >= m.conflict(), "case {case}");
    }
}

/// Votes with planted per-LF accuracies on random binary ground truth:
/// each LF fires with probability `cov` and is correct with its accuracy.
fn planted_matrix(rng: &mut StdRng, accs: &[f64], cov: f64, n: usize) -> LabelMatrix {
    let rows: Vec<Vec<i8>> = (0..n)
        .map(|_| {
            let y = usize::from(rng.gen::<f64>() < 0.5);
            accs.iter()
                .map(|&a| {
                    if rng.gen::<f64>() >= cov {
                        ABSTAIN
                    } else if rng.gen::<f64>() < a {
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

#[test]
fn dawid_skene_confusion_rows_are_distributions() {
    for case in 0..CASES {
        let rng = &mut case_rng(12, case);
        let rows = vote_matrix(rng, 30, 6);
        let matrix = LabelMatrix::from_votes(&rows).unwrap();
        let balance = if case % 2 == 0 {
            None
        } else {
            Some(vec![0.3, 0.7])
        };
        let mut ds = DawidSkene::new(2);
        ds.fit(&matrix, balance.as_deref()).unwrap();
        // The estimated prior is a distribution…
        let prior = ds.prior();
        assert!(
            (prior.iter().sum::<f64>() - 1.0).abs() < 1e-9,
            "case {case}"
        );
        assert!(prior.iter().all(|&p| (0.0..=1.0).contains(&p)));
        for j in 0..matrix.n_lfs() {
            // …each confusion row P(vote | Y = y) is a distribution…
            for (y, row) in ds.confusion(j).iter().enumerate() {
                assert!(
                    (row.iter().sum::<f64>() - 1.0).abs() < 1e-9,
                    "case {case} LF {j} class {y}: {row:?}"
                );
                assert!(
                    row.iter().all(|&p| (0.0..=1.0).contains(&p)),
                    "case {case} LF {j} class {y}: {row:?}"
                );
            }
            // …and the derived firing-conditional accuracy is a rate.
            let acc = ds.lf_accuracy(j);
            assert!((0.0..=1.0).contains(&acc), "case {case} LF {j}: {acc}");
        }
        // Posteriors stay on the simplex for every observed row.
        for row in &rows {
            let p = ds.predict_proba(row);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn dawid_skene_recovery_improves_with_sample_size() {
    // Estimation error of the planted LF accuracies must shrink as the
    // vote matrix grows (averaged over seeds; each run is deterministic).
    let accs = [0.9, 0.75, 0.6];
    let sizes = [250usize, 1000, 4000];
    let mean_err = |n: usize| -> f64 {
        let mut total = 0.0;
        for seed in 0..8u64 {
            let rng = &mut case_rng(13, seed * 31 + n as u64);
            let matrix = planted_matrix(rng, &accs, 0.8, n);
            let mut ds = DawidSkene::new(2);
            ds.fit(&matrix, Some(&[0.5, 0.5])).unwrap();
            total += accs
                .iter()
                .enumerate()
                .map(|(j, &a)| (ds.lf_accuracy(j) - a).abs())
                .sum::<f64>()
                / accs.len() as f64;
        }
        total / 8.0
    };
    let errs: Vec<f64> = sizes.iter().map(|&n| mean_err(n)).collect();
    assert!(
        errs[1] < errs[0] && errs[2] < errs[1],
        "errors not monotone in sample size: {errs:?}"
    );
    assert!(errs[2] < 0.03, "large-sample error too big: {errs:?}");
}

#[test]
fn glasso_precision_is_symmetric_and_finite() {
    for case in 0..CASES {
        let rng = &mut case_rng(14, case);
        let n = rng.gen_range(8..40usize);
        let p = rng.gen_range(2..6usize);
        let data = Matrix::from_fn(n, p, |_, _| rng.gen_range(-2.0..=2.0));
        let s = covariance_matrix(&data).unwrap();
        let cfg = GlassoConfig {
            rho: rng.gen_range(0.01..=0.5),
            ..GlassoConfig::default()
        };
        let res = graphical_lasso(&s, cfg).unwrap();
        assert!(res.precision.all_finite(), "case {case}");
        assert!(res.covariance.all_finite(), "case {case}");
        assert!(res.precision.is_symmetric(1e-9), "case {case}");
        assert!(res.covariance.is_symmetric(1e-9), "case {case}");
        // The regularised covariance keeps positive variances.
        for j in 0..p {
            assert!(res.covariance[(j, j)] > 0.0, "case {case} var {j}");
            assert!(res.precision[(j, j)] > 0.0, "case {case} prec {j}");
        }
    }
}

#[test]
fn glasso_penalty_monotonically_sparsifies_edges() {
    let edge_count = |s: &Matrix, rho: f64| -> usize {
        let cfg = GlassoConfig {
            rho,
            ..GlassoConfig::default()
        };
        let prec = graphical_lasso(s, cfg).unwrap().precision;
        let p = prec.nrows();
        let mut edges = 0;
        for i in 0..p {
            for j in (i + 1)..p {
                if prec[(i, j)].abs() > 1e-8 {
                    edges += 1;
                }
            }
        }
        edges
    };
    for case in 0..CASES {
        let rng = &mut case_rng(15, case);
        let n = rng.gen_range(10..40usize);
        let p = rng.gen_range(2..5usize);
        let data = Matrix::from_fn(n, p, |_, _| rng.gen_range(-1.5..=1.5));
        let s = covariance_matrix(&data).unwrap();
        let counts: Vec<usize> = [0.01, 0.1, 0.5, 2.0, 10.0]
            .iter()
            .map(|&rho| edge_count(&s, rho))
            .collect();
        for w in counts.windows(2) {
            assert!(w[1] <= w[0], "case {case}: edge counts {counts:?}");
        }
        // A penalty dominating every covariance entry removes all edges.
        assert_eq!(*counts.last().unwrap(), 0, "case {case}: {counts:?}");
    }
}

#[test]
fn abstain_only_matrix_gives_prior_everywhere() {
    let rows = vec![vec![ABSTAIN; 3]; 5];
    let matrix = LabelMatrix::from_votes(&rows).unwrap();
    let mut model = TripletMetal::new(2);
    model.fit(&matrix, Some(&[0.8, 0.2])).unwrap();
    for row in &rows {
        let p = model.predict_proba(row);
        assert!((p[0] - 0.8).abs() < 1e-9);
    }
}
