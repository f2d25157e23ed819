//! Typed WAL failures, each carrying the file it arose from.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Everything that can go wrong reading or writing a journal.
#[derive(Debug)]
pub enum WalError {
    /// The filesystem failed underneath the journal.
    Io {
        /// File (or directory) the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A file failed wire-level decoding: bad magic, an unknown version,
    /// or a malformed payload.
    Codec {
        /// The file that failed to decode.
        path: PathBuf,
        /// The underlying codec error.
        source: adp_wire::WireError,
    },
    /// A file decoded but its contents are inconsistent — a failed
    /// checksum, a sealed segment whose events do not match the manifest,
    /// trailing garbage, a missing manifest, a checkpoint snapshot that is
    /// missing or disagrees with the manifest.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What was wrong with it.
        reason: String,
    },
    /// An append or checkpoint did not continue the journal's iteration
    /// sequence (double-append, skipped step, or a checkpoint moving
    /// backwards).
    OutOfOrder {
        /// The journal directory.
        path: PathBuf,
        /// The iteration the journal expected next.
        expected: usize,
        /// The iteration it was handed.
        found: usize,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { path, source } => {
                write!(f, "wal io error on {}: {source}", path.display())
            }
            WalError::Codec { path, source } => {
                write!(f, "wal codec error in {}: {source}", path.display())
            }
            WalError::Corrupt { path, reason } => {
                write!(f, "corrupt wal file {}: {reason}", path.display())
            }
            WalError::OutOfOrder {
                path,
                expected,
                found,
            } => write!(
                f,
                "out-of-order wal operation on {}: expected iteration {expected}, got {found}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } => Some(source),
            WalError::Codec { source, .. } => Some(source),
            WalError::Corrupt { .. } | WalError::OutOfOrder { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_names_the_file_and_sources_chain() {
        let e = WalError::Corrupt {
            path: PathBuf::from("/j/seg-1.adpwal"),
            reason: "checksum mismatch".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("seg-1.adpwal") && msg.contains("checksum"));
        assert!(e.source().is_none());

        let io = WalError::Io {
            path: PathBuf::from("/j/open.adpwal"),
            source: io::Error::new(io::ErrorKind::PermissionDenied, "denied"),
        };
        assert!(io.source().is_some());

        let ooo = WalError::OutOfOrder {
            path: PathBuf::from("/j"),
            expected: 5,
            found: 9,
        };
        let msg = ooo.to_string();
        assert!(msg.contains('5') && msg.contains('9'));
    }
}
