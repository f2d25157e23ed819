//! Error type for label-model fitting.

use std::fmt;

/// Errors produced while fitting a label model.
#[derive(Debug, Clone, PartialEq)]
pub enum LabelModelError {
    /// Class balance vector malformed (wrong length / not a distribution).
    BadClassBalance {
        /// Reason.
        reason: String,
    },
    /// The model requires a binary task.
    BinaryOnly {
        /// Actual class count.
        n_classes: usize,
    },
    /// Votes contained a label outside `0..n_classes`.
    VoteOutOfRange {
        /// The offending vote.
        vote: i8,
        /// Number of classes.
        n_classes: usize,
    },
    /// Loaded parameters are not what a fit can produce (wrong length, a
    /// non-finite value, an accuracy or prior outside the fit's range).
    BadParams {
        /// Reason.
        reason: String,
    },
}

impl fmt::Display for LabelModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelModelError::BadClassBalance { reason } => {
                write!(f, "bad class balance: {reason}")
            }
            LabelModelError::BinaryOnly { n_classes } => {
                write!(
                    f,
                    "model supports binary tasks only, got {n_classes} classes"
                )
            }
            LabelModelError::VoteOutOfRange { vote, n_classes } => {
                write!(f, "vote {vote} out of range for {n_classes} classes")
            }
            LabelModelError::BadParams { reason } => write!(f, "bad parameters: {reason}"),
        }
    }
}

impl std::error::Error for LabelModelError {}

/// Validates an optional class-balance vector against `n_classes`, returning
/// the prior to use (uniform when absent).
pub(crate) fn resolve_balance(
    balance: Option<&[f64]>,
    n_classes: usize,
) -> Result<Vec<f64>, LabelModelError> {
    match balance {
        None => Ok(vec![1.0 / n_classes as f64; n_classes]),
        Some(b) => {
            if b.len() != n_classes {
                return Err(LabelModelError::BadClassBalance {
                    reason: format!("expected {n_classes} entries, got {}", b.len()),
                });
            }
            let sum: f64 = b.iter().sum();
            if (sum - 1.0).abs() > 1e-6 || b.iter().any(|&p| p < 0.0 || !p.is_finite()) {
                return Err(LabelModelError::BadClassBalance {
                    reason: "entries must be a probability distribution".into(),
                });
            }
            // Clamp away exact zeros so log-space aggregation stays finite.
            let eps = 1e-6;
            let mut out: Vec<f64> = b.iter().map(|&p| p.max(eps)).collect();
            let s: f64 = out.iter().sum();
            for p in &mut out {
                *p /= s;
            }
            Ok(out)
        }
    }
}

/// What a fitted class prior's entries lie in.
pub(crate) const PRIOR_RANGE: (f64, f64) = (f64::MIN_POSITIVE, 1.0);

/// Checks loaded parameters: `len` values, each in `[lo, hi]` (NaN never
/// is).
pub(crate) fn check_params(
    what: &str,
    values: &[f64],
    len: usize,
    (lo, hi): (f64, f64),
) -> Result<(), LabelModelError> {
    if values.len() != len || values.iter().any(|v| !(lo..=hi).contains(v)) {
        return Err(LabelModelError::BadParams {
            reason: format!("{what}: expected {len} values in [{lo}, {hi}]"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_balance_uniform_default() {
        assert_eq!(resolve_balance(None, 4).unwrap(), vec![0.25; 4]);
    }

    #[test]
    fn resolve_balance_validates() {
        assert!(resolve_balance(Some(&[0.5, 0.5, 0.0]), 2).is_err());
        assert!(resolve_balance(Some(&[0.7, 0.7]), 2).is_err());
        assert!(resolve_balance(Some(&[-0.5, 1.5]), 2).is_err());
        let ok = resolve_balance(Some(&[0.3, 0.7]), 2).unwrap();
        assert!((ok[0] - 0.3).abs() < 1e-9);
    }

    #[test]
    fn resolve_balance_clamps_zeros() {
        let out = resolve_balance(Some(&[0.0, 1.0]), 2).unwrap();
        assert!(out[0] > 0.0);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
