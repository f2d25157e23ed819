//! Core dataset types.

use crate::error::DataError;
use adp_linalg::{CsrMatrix, Features, Matrix};
use adp_text::Vocabulary;
use std::sync::Arc;

/// A split dataset behind an atomically reference-counted handle.
///
/// The owned `Engine` and the concurrent `SessionHub` hold datasets by
/// `SharedDataset` so many sessions (possibly on different threads) can
/// share one immutable copy without lifetimes tying them to a caller.
pub type SharedDataset = Arc<SplitDataset>;

/// The classification task a dataset poses (Table 2's "Task" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Spam classification (Youtube).
    SpamClassification,
    /// Sentiment analysis (IMDB, Yelp, Amazon).
    SentimentAnalysis,
    /// Biography classification (Bios-PT, Bios-JP).
    BiographyClassification,
    /// Office-room occupancy prediction (Occupancy).
    OccupancyPrediction,
    /// Income >50K classification (Census).
    IncomeClassification,
}

impl Task {
    /// Table 2's task label.
    pub fn label(self) -> &'static str {
        match self {
            Task::SpamClassification => "Spam classification",
            Task::SentimentAnalysis => "Sentiment analysis",
            Task::BiographyClassification => "Biography classification",
            Task::OccupancyPrediction => "Occupancy prediction",
            Task::IncomeClassification => "Income classification",
        }
    }
}

/// Feature matrix representation: dense for tabular data, CSR TF-IDF for text.
#[derive(Debug, Clone)]
pub enum FeatureSet {
    /// Dense (standardised) tabular features.
    Dense(Matrix),
    /// Sparse TF-IDF features.
    Sparse(CsrMatrix),
}

impl FeatureSet {
    /// Number of samples.
    pub fn nrows(&self) -> usize {
        match self {
            FeatureSet::Dense(m) => m.nrows(),
            FeatureSet::Sparse(m) => m.nrows(),
        }
    }

    /// Number of features.
    pub fn ncols(&self) -> usize {
        match self {
            FeatureSet::Dense(m) => m.ncols(),
            FeatureSet::Sparse(m) => m.ncols(),
        }
    }

    /// Borrow the dense matrix.
    ///
    /// # Panics
    /// Panics when the features are sparse; callers branch on the dataset
    /// kind before using this.
    pub fn as_dense(&self) -> &Matrix {
        match self {
            FeatureSet::Dense(m) => m,
            FeatureSet::Sparse(_) => panic!("expected dense features"),
        }
    }

    /// Borrow the sparse matrix.
    ///
    /// # Panics
    /// Panics when the features are dense.
    pub fn as_sparse(&self) -> &CsrMatrix {
        match self {
            FeatureSet::Sparse(m) => m,
            FeatureSet::Dense(_) => panic!("expected sparse features"),
        }
    }
}

impl Features for FeatureSet {
    fn nrows(&self) -> usize {
        FeatureSet::nrows(self)
    }
    fn ncols(&self) -> usize {
        FeatureSet::ncols(self)
    }
    fn row_dot(&self, i: usize, w: &[f64]) -> f64 {
        match self {
            FeatureSet::Dense(m) => m.row_dot(i, w),
            FeatureSet::Sparse(m) => m.row_dot(i, w),
        }
    }
    fn row_axpy(&self, i: usize, alpha: f64, out: &mut [f64]) {
        match self {
            FeatureSet::Dense(m) => m.row_axpy(i, alpha, out),
            FeatureSet::Sparse(m) => m.row_axpy(i, alpha, out),
        }
    }
    fn row_sq_norm(&self, i: usize) -> f64 {
        match self {
            FeatureSet::Dense(m) => m.row_sq_norm(i),
            FeatureSet::Sparse(m) => m.row_sq_norm(i),
        }
    }
}

/// One split (train/valid/test) of a benchmark dataset.
///
/// Ground-truth `labels` exist for every instance because the evaluation
/// protocol simulates users from them (paper §4.1.4); the frameworks under
/// test only access them through the simulated user and the validation set.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name, e.g. "youtube".
    pub name: String,
    /// Task category.
    pub task: Task,
    /// Number of classes (2 for every paper dataset).
    pub n_classes: usize,
    /// Feature matrix (rows = instances).
    pub features: FeatureSet,
    /// Ground-truth labels in `0..n_classes`.
    pub labels: Vec<usize>,
    /// Raw documents (textual datasets only).
    pub texts: Option<Vec<String>>,
    /// Vocabulary ids per document, for keyword-LF evaluation (text only).
    pub encoded_docs: Option<Vec<Vec<u32>>>,
}

impl Dataset {
    /// Number of instances.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the dataset has no instances.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// `true` for textual datasets (keyword LF space).
    pub fn is_textual(&self) -> bool {
        self.encoded_docs.is_some()
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), DataError> {
        if self.features.nrows() != self.labels.len() {
            return Err(DataError::LengthMismatch {
                features: self.features.nrows(),
                labels: self.labels.len(),
            });
        }
        if let Some(docs) = &self.encoded_docs {
            if docs.len() != self.labels.len() {
                return Err(DataError::LengthMismatch {
                    features: docs.len(),
                    labels: self.labels.len(),
                });
            }
        }
        if let Some(l) = self.labels.iter().find(|&&l| l >= self.n_classes) {
            return Err(DataError::InvalidSpec {
                reason: format!("label {l} out of range for {} classes", self.n_classes),
            });
        }
        Ok(())
    }

    /// Empirical class distribution.
    pub fn class_balance(&self) -> Vec<f64> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        let n = self.labels.len().max(1) as f64;
        counts.into_iter().map(|c| c as f64 / n).collect()
    }
}

/// A benchmark dataset partitioned into train / validation / test.
#[derive(Debug, Clone)]
pub struct SplitDataset {
    /// Training split (the pool the frameworks label).
    pub train: Dataset,
    /// Holdout validation split used for threshold tuning and LF pruning.
    pub valid: Dataset,
    /// Test split for downstream-model evaluation.
    pub test: Dataset,
    /// Shared vocabulary for textual datasets.
    pub vocab: Option<Vocabulary>,
    /// How this split was generated, when it came from
    /// [`registry::generate`](crate::registry::generate) — the provenance a
    /// declarative scenario records so the identical split can be
    /// regenerated later. `None` for hand-built splits, which therefore
    /// cannot be described by a serializable scenario, and which no
    /// `activedp` engine is built over.
    pub provenance: Option<crate::registry::DatasetSpec>,
}

impl SplitDataset {
    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.train.name
    }

    /// `true` for textual datasets.
    pub fn is_textual(&self) -> bool {
        self.train.is_textual()
    }

    /// Table 2 row: `(name, task, #train, #valid, #test)`.
    pub fn table2_row(&self) -> (String, &'static str, usize, usize, usize) {
        (
            self.train.name.clone(),
            self.train.task.label(),
            self.train.len(),
            self.valid.len(),
            self.test.len(),
        )
    }

    /// Validates all three splits.
    pub fn validate(&self) -> Result<(), DataError> {
        self.train.validate()?;
        self.valid.validate()?;
        self.test.validate()
    }

    /// Moves the split behind a [`SharedDataset`] handle for owned engines
    /// and concurrent sessions.
    pub fn into_shared(self) -> SharedDataset {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dense(labels: Vec<usize>) -> Dataset {
        let n = labels.len();
        Dataset {
            name: "tiny".into(),
            task: Task::OccupancyPrediction,
            n_classes: 2,
            features: FeatureSet::Dense(Matrix::zeros(n, 3)),
            labels,
            texts: None,
            encoded_docs: None,
        }
    }

    #[test]
    fn validate_accepts_consistent() {
        assert!(tiny_dense(vec![0, 1, 0]).validate().is_ok());
    }

    #[test]
    fn validate_rejects_length_mismatch() {
        let mut d = tiny_dense(vec![0, 1, 0]);
        d.labels.push(1);
        assert!(matches!(
            d.validate().unwrap_err(),
            DataError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn validate_rejects_label_out_of_range() {
        let d = tiny_dense(vec![0, 2, 0]);
        assert!(matches!(
            d.validate().unwrap_err(),
            DataError::InvalidSpec { .. }
        ));
    }

    #[test]
    fn class_balance_counts() {
        let d = tiny_dense(vec![0, 0, 0, 1]);
        let b = d.class_balance();
        assert!((b[0] - 0.75).abs() < 1e-12);
        assert!((b[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn task_labels_match_table2() {
        assert_eq!(Task::SentimentAnalysis.label(), "Sentiment analysis");
        assert_eq!(Task::IncomeClassification.label(), "Income classification");
    }

    #[test]
    fn featureset_features_trait_dispatch() {
        let dense = FeatureSet::Dense(Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap());
        assert_eq!(Features::nrows(&dense), 1);
        assert_eq!(dense.row_dot(0, &[2.0, 0.5]), 3.0);
        let mut out = vec![0.0; 2];
        dense.row_axpy(0, 1.0, &mut out);
        assert_eq!(out, vec![1.0, 2.0]);
        assert_eq!(dense.row_sq_norm(0), 5.0);
    }

    #[test]
    #[should_panic(expected = "expected dense")]
    fn as_dense_panics_on_sparse() {
        FeatureSet::Sparse(CsrMatrix::empty(1, 1)).as_dense();
    }
}
