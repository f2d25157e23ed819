//! Error type for the ActiveDP framework.

use std::fmt;

/// Errors surfaced by the ActiveDP session and its components.
#[derive(Debug)]
pub enum ActiveDpError {
    /// A configuration value is invalid.
    BadConfig {
        /// Reason.
        reason: String,
    },
    /// The unlabeled pool is exhausted.
    PoolExhausted,
    /// Label-model failure.
    LabelModel(adp_labelmodel::LabelModelError),
    /// Classifier failure.
    Classifier(adp_classifier::ClassifierError),
    /// Graphical-lasso failure inside LabelPick.
    Glasso(adp_glasso::GlassoError),
    /// Linear-algebra failure.
    Linalg(adp_linalg::LinalgError),
    /// Label-matrix manipulation failure.
    Lf(adp_lf::LfError),
    /// An encoded snapshot failed to decode.
    SnapshotCodec(adp_wire::WireError),
    /// A WAL replay was inconsistent with its checkpoint or event stream
    /// (duplicate/out-of-order/missing iterations, a target that is not a
    /// commit point, or an event that contradicts the folded state).
    Replay {
        /// What made the event stream unreplayable.
        reason: String,
    },
}

impl fmt::Display for ActiveDpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActiveDpError::BadConfig { reason } => write!(f, "bad configuration: {reason}"),
            ActiveDpError::PoolExhausted => write!(f, "unlabeled pool exhausted"),
            ActiveDpError::LabelModel(e) => write!(f, "label model: {e}"),
            ActiveDpError::Classifier(e) => write!(f, "classifier: {e}"),
            ActiveDpError::Glasso(e) => write!(f, "graphical lasso: {e}"),
            ActiveDpError::Linalg(e) => write!(f, "linear algebra: {e}"),
            ActiveDpError::Lf(e) => write!(f, "label functions: {e}"),
            ActiveDpError::SnapshotCodec(e) => write!(f, "snapshot codec: {e}"),
            ActiveDpError::Replay { reason } => write!(f, "wal replay: {reason}"),
        }
    }
}

impl std::error::Error for ActiveDpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ActiveDpError::LabelModel(e) => Some(e),
            ActiveDpError::Classifier(e) => Some(e),
            ActiveDpError::Glasso(e) => Some(e),
            ActiveDpError::Linalg(e) => Some(e),
            ActiveDpError::Lf(e) => Some(e),
            ActiveDpError::SnapshotCodec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<adp_labelmodel::LabelModelError> for ActiveDpError {
    fn from(e: adp_labelmodel::LabelModelError) -> Self {
        ActiveDpError::LabelModel(e)
    }
}

impl From<adp_classifier::ClassifierError> for ActiveDpError {
    fn from(e: adp_classifier::ClassifierError) -> Self {
        ActiveDpError::Classifier(e)
    }
}

impl From<adp_glasso::GlassoError> for ActiveDpError {
    fn from(e: adp_glasso::GlassoError) -> Self {
        ActiveDpError::Glasso(e)
    }
}

impl From<adp_linalg::LinalgError> for ActiveDpError {
    fn from(e: adp_linalg::LinalgError) -> Self {
        ActiveDpError::Linalg(e)
    }
}

impl From<adp_lf::LfError> for ActiveDpError {
    fn from(e: adp_lf::LfError) -> Self {
        ActiveDpError::Lf(e)
    }
}

impl From<adp_wire::WireError> for ActiveDpError {
    fn from(e: adp_wire::WireError) -> Self {
        ActiveDpError::SnapshotCodec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: ActiveDpError = adp_lf::LfError::IndexOutOfRange { index: 1, len: 0 }.into();
        assert!(e.to_string().contains("label functions"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(ActiveDpError::PoolExhausted
            .to_string()
            .contains("exhausted"));
    }
}
