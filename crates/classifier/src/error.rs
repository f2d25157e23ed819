//! Error type for classifier training.

use std::fmt;

/// Errors produced by `adp-classifier`.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassifierError {
    /// Training set is empty.
    EmptyTrainingSet,
    /// Targets/weights/rows lengths disagree.
    LengthMismatch {
        /// What disagreed.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A label or distribution is invalid.
    BadTarget {
        /// Reason.
        reason: String,
    },
    /// A row index exceeds the feature matrix.
    RowOutOfRange {
        /// Offending row.
        row: usize,
        /// Number of rows available.
        nrows: usize,
    },
    /// Configuration invalid (non-positive l2, zero iterations, ...).
    BadConfig {
        /// Reason.
        reason: String,
    },
    /// Loaded parameters are not what a fit can produce (wrong shape, or a
    /// value that is not finite or is large enough to overflow a logit).
    BadParams {
        /// Reason.
        reason: String,
    },
}

impl fmt::Display for ClassifierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassifierError::EmptyTrainingSet => write!(f, "empty training set"),
            ClassifierError::LengthMismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what}: expected length {expected}, got {actual}"),
            ClassifierError::BadTarget { reason } => write!(f, "bad target: {reason}"),
            ClassifierError::RowOutOfRange { row, nrows } => {
                write!(f, "row {row} out of range ({nrows} rows)")
            }
            ClassifierError::BadConfig { reason } => write!(f, "bad config: {reason}"),
            ClassifierError::BadParams { reason } => write!(f, "bad parameters: {reason}"),
        }
    }
}

impl std::error::Error for ClassifierError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            ClassifierError::EmptyTrainingSet.to_string(),
            "empty training set"
        );
        assert!(ClassifierError::RowOutOfRange { row: 9, nrows: 3 }
            .to_string()
            .contains("9"));
    }
}
