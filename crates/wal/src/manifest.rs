//! The journal manifest: whose journal it is and what checkpoint covers
//! the log's prefix.
//!
//! ```text
//! ADPWMAN\0 | u32 version | u64 session | ScenarioSpec | u64 checkpoint
//! ```
//!
//! The manifest is the journal's root pointer: recovery reads it first,
//! then the checkpoint snapshot it implies and the log past it. It is
//! rewritten with [`adp_wire::atomic::atomic_write`] on every checkpoint,
//! so readers always observe a complete manifest.

use crate::error::WalError;
use activedp::ScenarioSpec;
use adp_wire::{read_envelope, write_envelope};
use std::path::Path;

/// Magic bytes opening the manifest file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"ADPWMAN\0";
/// Current manifest format version, and the only one decoded: v3 drops
/// v2's segment list, since a journal keeps one log file. v1 (the
/// pre-oracle scenario body) and v2 manifests are rejected (see
/// MIGRATION.md).
pub const MANIFEST_VERSION: u32 = 3;

/// The decoded manifest (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The hub session this journal belongs to.
    pub session: u64,
    /// The run's full declarative description — enough to rebuild the
    /// session's iteration-0 state even without any snapshot on disk.
    pub spec: ScenarioSpec,
    /// Iteration of the snapshot covering the log's prefix: events at or
    /// below this are compacted away or skipped.
    pub checkpoint: usize,
}

impl Manifest {
    /// Serializes the manifest (enveloped; write with `atomic_write`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = write_envelope(MANIFEST_MAGIC, MANIFEST_VERSION);
        w.put_u64(self.session);
        w.put(&self.spec);
        w.put_usize(self.checkpoint);
        w.into_bytes()
    }

    /// Decodes manifest bytes read from `path`.
    pub fn from_bytes(path: &Path, bytes: &[u8]) -> Result<Manifest, WalError> {
        let codec = |source| WalError::Codec {
            path: path.to_path_buf(),
            source,
        };
        let (mut r, _) = read_envelope(bytes, MANIFEST_MAGIC, MANIFEST_VERSION..=MANIFEST_VERSION)
            .map_err(codec)?;
        let session = r.get_u64().map_err(codec)?;
        let spec: ScenarioSpec = r.get().map_err(codec)?;
        let checkpoint = r.get_usize().map_err(codec)?;
        r.finish().map_err(codec)?;
        Ok(Manifest {
            session,
            spec,
            checkpoint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_data::{DatasetId, DatasetSpec, Scale};
    use std::path::PathBuf;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(DatasetSpec {
            id: DatasetId::Youtube,
            scale: Scale::Tiny,
            seed: 7,
        })
    }

    fn sample() -> Manifest {
        Manifest {
            session: 42,
            spec: spec(),
            checkpoint: 10,
        }
    }

    fn p() -> PathBuf {
        PathBuf::from("manifest.adpwman")
    }

    #[test]
    fn manifest_roundtrips() {
        let m = sample();
        let bytes = m.to_bytes();
        assert_eq!(Manifest::from_bytes(&p(), &bytes).unwrap(), m);
    }

    #[test]
    fn malformed_manifests_are_typed_errors() {
        // Bad magic.
        let mut bytes = sample().to_bytes();
        bytes[3] = b'!';
        assert!(matches!(
            Manifest::from_bytes(&p(), &bytes),
            Err(WalError::Codec { .. })
        ));
        // Future and retired (v1, v2) versions.
        for stamp in [MANIFEST_VERSION + 1, 1, 2] {
            let mut bytes = sample().to_bytes();
            bytes[8..12].copy_from_slice(&stamp.to_le_bytes());
            assert!(matches!(
                Manifest::from_bytes(&p(), &bytes),
                Err(WalError::Codec {
                    source: adp_wire::WireError::UnknownVersion { found, .. },
                    ..
                }) if found == stamp
            ));
        }
        // Trailing garbage.
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Manifest::from_bytes(&p(), &bytes),
            Err(WalError::Codec { .. })
        ));
        // Truncation anywhere is an error of some kind.
        let whole = sample().to_bytes();
        for cut in 0..whole.len() {
            assert!(Manifest::from_bytes(&p(), &whole[..cut]).is_err());
        }
    }
}
