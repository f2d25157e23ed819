//! Candidate label-function spaces (paper §4.1.4).
//!
//! * Text: every keyword LF `λ_{w,y}` with `w` in the query document and
//!   train-set accuracy above the threshold.
//! * Tabular: every decision stump `λ_{j,v,op,y}` with `v = x_j` (the query
//!   instance sits on the boundary) and train-set accuracy above the
//!   threshold.
//!
//! The text space is precomputed once per dataset (per-token class counts);
//! stump statistics are computed per query with one pass over the training
//! column.

use crate::lf::{LabelFunction, StumpOp};
use adp_data::Dataset;

/// A candidate LF together with its training-set statistics.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The label function.
    pub lf: LabelFunction,
    /// Accuracy on the covered training instances.
    pub accuracy: f64,
    /// Fraction of training instances covered.
    pub coverage: f64,
}

#[derive(Debug, Clone)]
struct TokenStat {
    /// Number of training documents containing the token.
    covered: usize,
    /// Per-class document counts among those.
    per_class: Vec<usize>,
}

#[derive(Debug, Clone)]
enum SpaceKind {
    Text { token_stats: Vec<TokenStat> },
    Tabular { min_support: usize },
}

/// The candidate-LF space of one training dataset.
#[derive(Debug, Clone)]
pub struct CandidateSpace {
    kind: SpaceKind,
    n_train: usize,
    n_classes: usize,
}

impl CandidateSpace {
    /// Builds the space for `train`. For tabular datasets, stumps must cover
    /// at least `max(5, n/500)` training instances for their accuracy
    /// estimate to be meaningful.
    pub fn build(train: &Dataset) -> Self {
        let n = train.len();
        if let Some(docs) = &train.encoded_docs {
            let vocab_size = train.features.ncols();
            let mut token_stats = vec![
                TokenStat {
                    covered: 0,
                    per_class: vec![0; train.n_classes],
                };
                vocab_size
            ];
            let mut seen: Vec<bool> = vec![false; vocab_size];
            for (doc, &y) in docs.iter().zip(&train.labels) {
                for &t in doc {
                    let t = t as usize;
                    if !seen[t] {
                        seen[t] = true;
                        token_stats[t].covered += 1;
                        token_stats[t].per_class[y] += 1;
                    }
                }
                for &t in doc {
                    seen[t as usize] = false;
                }
            }
            CandidateSpace {
                kind: SpaceKind::Text { token_stats },
                n_train: n,
                n_classes: train.n_classes,
            }
        } else {
            CandidateSpace {
                kind: SpaceKind::Tabular {
                    min_support: (n / 500).max(5),
                },
                n_train: n,
                n_classes: train.n_classes,
            }
        }
    }

    /// Number of classes of the underlying task.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Candidate LFs for query instance `idx` that vote `target_label`
    /// and have training accuracy strictly above `acc_threshold`.
    ///
    /// `query_dataset` is usually the training set itself, but any dataset
    /// with the same modality/vocabulary works (the statistics always come
    /// from the training set the space was built on).
    pub fn candidates_for(
        &self,
        train: &Dataset,
        query_dataset: &Dataset,
        idx: usize,
        target_label: usize,
        acc_threshold: f64,
    ) -> Vec<Candidate> {
        match &self.kind {
            SpaceKind::Text { token_stats } => {
                let docs = query_dataset
                    .encoded_docs
                    .as_ref()
                    .expect("text candidate space on non-text dataset");
                let mut out = Vec::new();
                let mut seen: Vec<u32> = Vec::new();
                for &t in &docs[idx] {
                    if seen.contains(&t) {
                        continue;
                    }
                    seen.push(t);
                    let stat = &token_stats[t as usize];
                    if stat.covered == 0 {
                        continue;
                    }
                    let acc = stat.per_class[target_label] as f64 / stat.covered as f64;
                    if acc > acc_threshold {
                        out.push(Candidate {
                            lf: LabelFunction::Keyword {
                                token: t,
                                label: target_label,
                            },
                            accuracy: acc,
                            coverage: stat.covered as f64 / self.n_train as f64,
                        });
                    }
                }
                out
            }
            SpaceKind::Tabular { min_support } => {
                let query = query_dataset.features.as_dense().row(idx);
                let (all, target) = stump_counts(train, query, target_label);
                let mut out = Vec::new();
                for (feature, &v) in query.iter().enumerate() {
                    for op in StumpOp::both() {
                        // `x <= v` is below or at, `x >= v` above or at,
                        // exactly as IEEE comparisons decide.
                        let side = match op {
                            StumpOp::Le => 0,
                            StumpOp::Ge => 2,
                        };
                        let covered = all[feature][side] + all[feature][1];
                        let correct = target[feature][side] + target[feature][1];
                        if covered < *min_support {
                            continue;
                        }
                        let acc = correct as f64 / covered as f64;
                        if acc > acc_threshold {
                            out.push(Candidate {
                                lf: LabelFunction::Stump {
                                    feature,
                                    threshold: v,
                                    op,
                                    label: target_label,
                                },
                                accuracy: acc,
                                coverage: covered as f64 / self.n_train as f64,
                            });
                        }
                    }
                }
                out
            }
        }
    }

    /// The *global* candidate pool used by IWS and the SEU sampler: every
    /// keyword LF with its majority label (text), or stumps on a per-feature
    /// quantile grid (tabular). No accuracy threshold is applied — IWS
    /// learns to predict accuracy itself.
    pub fn global_pool(&self, train: &Dataset, n_quantiles: usize) -> Vec<Candidate> {
        match &self.kind {
            SpaceKind::Text { token_stats } => {
                let mut out = Vec::new();
                for (t, stat) in token_stats.iter().enumerate() {
                    if stat.covered == 0 {
                        continue;
                    }
                    let (label, &count) = stat
                        .per_class
                        .iter()
                        .enumerate()
                        .max_by_key(|&(_, c)| *c)
                        .expect("non-empty class counts");
                    out.push(Candidate {
                        lf: LabelFunction::Keyword {
                            token: t as u32,
                            label,
                        },
                        accuracy: count as f64 / stat.covered as f64,
                        coverage: stat.covered as f64 / self.n_train as f64,
                    });
                }
                out
            }
            SpaceKind::Tabular { min_support } => {
                let train_x = train.features.as_dense();
                let d = train_x.ncols();
                let n = train.len();
                let mut out = Vec::new();
                for feature in 0..d {
                    let mut col = train_x.col(feature);
                    col.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite features"));
                    for q in 1..=n_quantiles {
                        let pos = (q * (n - 1)) / (n_quantiles + 1);
                        let v = col[pos];
                        for op in StumpOp::both() {
                            let mut covered = 0usize;
                            let mut per_class = vec![0usize; self.n_classes];
                            for i in 0..n {
                                if op.matches(train_x[(i, feature)], v) {
                                    covered += 1;
                                    per_class[train.labels[i]] += 1;
                                }
                            }
                            if covered < *min_support {
                                continue;
                            }
                            let (label, &count) = per_class
                                .iter()
                                .enumerate()
                                .max_by_key(|&(_, c)| *c)
                                .expect("non-empty class counts");
                            out.push(Candidate {
                                lf: LabelFunction::Stump {
                                    feature,
                                    threshold: v,
                                    op,
                                    label,
                                },
                                accuracy: count as f64 / covered as f64,
                                coverage: covered as f64 / n as f64,
                            });
                        }
                    }
                }
                out
            }
        }
    }
}

/// Per feature, the training rows `[below, at, above]` the query's value,
/// over every row and over the `target_label` rows, counted in one
/// row-major pass over the training features. A NaN on either side of a
/// comparison counts as none of the three, as it matches neither stump.
fn stump_counts(
    train: &Dataset,
    query: &[f64],
    target_label: usize,
) -> (Vec<[usize; 3]>, Vec<[usize; 3]>) {
    let train_x = train.features.as_dense();
    let d = query.len();
    // Rows of other labels and of the target label count apart, so each
    // row takes one branch; `all` is their sum.
    let mut other = vec![[0usize; 3]; d];
    let mut target = vec![[0usize; 3]; d];
    for (i, &label) in train.labels.iter().enumerate() {
        let counts = if label == target_label {
            &mut target
        } else {
            &mut other
        };
        for ((c, &x), &v) in counts.iter_mut().zip(train_x.row(i)).zip(query) {
            c[0] += usize::from(x < v);
            c[1] += usize::from(x == v);
            c[2] += usize::from(x > v);
        }
    }
    let all = other
        .iter()
        .zip(&target)
        .map(|(o, t)| [0, 1, 2].map(|k| o[k] + t[k]))
        .collect();
    (all, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_data::{Dataset, FeatureSet, Task};
    use adp_linalg::{CsrMatrix, Matrix};

    fn text_train() -> Dataset {
        // token 0: appears in 3 docs, 2 of class 1 => acc(·,1)=2/3
        // token 1: appears in 2 docs, both class 1 => acc(·,1)=1
        // token 2: appears in 2 docs, both class 0 => acc(·,0)=1
        Dataset {
            name: "t".into(),
            task: Task::SpamClassification,
            n_classes: 2,
            features: FeatureSet::Sparse(CsrMatrix::empty(4, 3)),
            labels: vec![1, 1, 0, 0],
            texts: None,
            encoded_docs: Some(vec![vec![0, 1], vec![0, 1], vec![0, 2], vec![2]]),
        }
    }

    fn tabular_train(n: usize) -> Dataset {
        // Feature perfectly separates classes at 0.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![if i < n / 2 {
                    -1.0 - (i as f64 / n as f64)
                } else {
                    1.0 + (i as f64 / n as f64)
                }]
            })
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| usize::from(i >= n / 2)).collect();
        Dataset {
            name: "tab".into(),
            task: Task::OccupancyPrediction,
            n_classes: 2,
            features: FeatureSet::Dense(Matrix::from_rows(&rows).unwrap()),
            labels,
            texts: None,
            encoded_docs: None,
        }
    }

    #[test]
    fn text_candidates_respect_threshold() {
        let d = text_train();
        let space = CandidateSpace::build(&d);
        // Query doc 0 = {0,1}, target label 1.
        let c = space.candidates_for(&d, &d, 0, 1, 0.6);
        // token 0 has acc 2/3 > 0.6, token 1 has acc 1.0.
        assert_eq!(c.len(), 2);
        let c = space.candidates_for(&d, &d, 0, 1, 0.9);
        assert_eq!(c.len(), 1);
        assert!(matches!(
            c[0].lf,
            LabelFunction::Keyword { token: 1, label: 1 }
        ));
        assert!((c[0].coverage - 0.5).abs() < 1e-12);
    }

    #[test]
    fn text_candidates_for_wrong_label_are_leaked_words() {
        let d = text_train();
        let space = CandidateSpace::build(&d);
        // Query doc 2 = {0,2} true label 0. Target label 1: token 0 has
        // acc(·,1)=2/3 > 0.6 => a "noisy" candidate exists.
        let c = space.candidates_for(&d, &d, 2, 1, 0.6);
        assert_eq!(c.len(), 1);
        assert!(matches!(c[0].lf, LabelFunction::Keyword { token: 0, .. }));
    }

    #[test]
    fn duplicate_tokens_in_doc_yield_one_candidate() {
        let mut d = text_train();
        d.encoded_docs.as_mut().unwrap()[0] = vec![1, 1, 1];
        let space = CandidateSpace::build(&d);
        let c = space.candidates_for(&d, &d, 0, 1, 0.6);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn tabular_candidates_lie_on_query_boundary() {
        let d = tabular_train(40);
        let space = CandidateSpace::build(&d);
        let idx = 30; // class-1 instance, positive value
        let c = space.candidates_for(&d, &d, idx, 1, 0.6);
        assert!(!c.is_empty());
        let v = d.features.as_dense()[(idx, 0)];
        for cand in &c {
            match cand.lf {
                LabelFunction::Stump {
                    threshold, label, ..
                } => {
                    assert_eq!(label, 1);
                    assert_eq!(threshold, v);
                }
                _ => panic!("expected stump"),
            }
            assert!(cand.accuracy > 0.6);
        }
        // x >= v covers only class-1 instances => perfect accuracy present.
        assert!(c.iter().any(|cand| cand.accuracy == 1.0));
    }

    /// The per-(feature, op) column scan the one-pass counts replaced,
    /// kept as the reference.
    fn reference_stump_candidates(
        space: &CandidateSpace,
        train: &Dataset,
        query: &Dataset,
        idx: usize,
        target_label: usize,
        acc_threshold: f64,
    ) -> Vec<Candidate> {
        let SpaceKind::Tabular { min_support } = space.kind else {
            panic!("tabular space expected");
        };
        let x = query.features.as_dense();
        let train_x = train.features.as_dense();
        let mut out = Vec::new();
        for feature in 0..train_x.ncols() {
            let v = x[(idx, feature)];
            for op in StumpOp::both() {
                let mut covered = 0usize;
                let mut correct = 0usize;
                for i in 0..train.len() {
                    if op.matches(train_x[(i, feature)], v) {
                        covered += 1;
                        if train.labels[i] == target_label {
                            correct += 1;
                        }
                    }
                }
                if covered < min_support {
                    continue;
                }
                let acc = correct as f64 / covered as f64;
                if acc > acc_threshold {
                    out.push(Candidate {
                        lf: LabelFunction::Stump {
                            feature,
                            threshold: v,
                            op,
                            label: target_label,
                        },
                        accuracy: acc,
                        coverage: covered as f64 / space.n_train as f64,
                    });
                }
            }
        }
        out
    }

    /// Random tabular data on a coarse grid (many ties), with ±0.0 in
    /// training and query values, a NaN query value and three classes:
    /// the one-pass counts give the reference's candidates, in its order,
    /// with the same `f64` accuracy and coverage bits.
    #[test]
    fn one_pass_stump_candidates_equal_the_column_scan() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |k: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % k
        };
        let mut found = 0;
        for case in 0..40 {
            let (n, d) = (30 + next(200) as usize, 1 + next(6) as usize);
            let grid = |r: u64| match r {
                0 => 0.0,
                1 => -0.0,
                r => (r as f64 - 5.0) * 0.5,
            };
            let mut values: Vec<f64> = (0..n * d).map(|_| grid(next(10))).collect();
            let labels: Vec<usize> = (0..n).map(|_| next(3) as usize).collect();
            let mut query = Matrix::from_fn(3, d, |_, _| grid(next(10)));
            query[(1, 0)] = f64::NAN;
            if case % 5 == 0 {
                values[0] = f64::NAN;
            }
            let train = Dataset {
                name: "grid".into(),
                task: Task::OccupancyPrediction,
                n_classes: 3,
                features: FeatureSet::Dense(Matrix::from_vec(n, d, values).unwrap()),
                labels,
                texts: None,
                encoded_docs: None,
            };
            let query = Dataset {
                features: FeatureSet::Dense(query),
                labels: vec![0; 3],
                ..train.clone()
            };
            let space = CandidateSpace::build(&train);
            for (idx, target, threshold) in [(0, 0, 0.2), (1, 1, 0.0), (2, 2, 0.34)] {
                let fast = space.candidates_for(&train, &query, idx, target, threshold);
                let slow =
                    reference_stump_candidates(&space, &train, &query, idx, target, threshold);
                assert_eq!(fast.len(), slow.len(), "case {case} query {idx}");
                found += fast.len();
                for (a, b) in fast.iter().zip(&slow) {
                    assert_eq!(a.lf.key(), b.lf.key(), "case {case} query {idx}");
                    assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
                    assert_eq!(a.coverage.to_bits(), b.coverage.to_bits());
                }
            }
        }
        assert!(found > 100, "only {found} candidates compared");
    }

    #[test]
    fn tabular_min_support_filters_tiny_stumps() {
        let d = tabular_train(40); // min_support = max(5, 40/500) = 5
        let space = CandidateSpace::build(&d);
        // The largest value: `x >= v` covers exactly 1 row -> filtered.
        let idx = 39;
        let c = space.candidates_for(&d, &d, idx, 1, 0.6);
        for cand in &c {
            assert!(cand.coverage * 40.0 >= 5.0 - 1e-9);
        }
    }

    #[test]
    fn global_pool_text_majority_labels() {
        let d = text_train();
        let space = CandidateSpace::build(&d);
        let pool = space.global_pool(&d, 0);
        assert_eq!(pool.len(), 3);
        let tok2 = pool
            .iter()
            .find(|c| matches!(c.lf, LabelFunction::Keyword { token: 2, .. }))
            .unwrap();
        assert_eq!(tok2.lf.label(), 0);
        assert_eq!(tok2.accuracy, 1.0);
    }

    #[test]
    fn global_pool_tabular_quantile_grid() {
        let d = tabular_train(100);
        let space = CandidateSpace::build(&d);
        let pool = space.global_pool(&d, 7);
        assert!(!pool.is_empty());
        // Thresholds must be actual data values spanning the range.
        for c in &pool {
            if let LabelFunction::Stump { threshold, .. } = c.lf {
                assert!(threshold.abs() <= 2.5);
            }
        }
        // Some stump in the pool must be highly accurate (the split at 0).
        assert!(pool.iter().any(|c| c.accuracy > 0.9));
    }
}
