//! The journal manifest: which segments are live and what checkpoint
//! covers everything before them.
//!
//! ```text
//! ADPWMAN\0 | u32 version | u64 session | ScenarioSpec | u64 checkpoint
//!           | u64 n_sealed | (u64 first, u64 last)*
//! ```
//!
//! The manifest is the journal's root pointer: recovery reads it first and
//! trusts only the segment files it names (plus `open.adpwal`). It is
//! rewritten with [`adp_wire::atomic::atomic_write`] on every seal and
//! checkpoint, so readers always observe a complete manifest.

use crate::error::WalError;
use activedp::ScenarioSpec;
use adp_wire::{read_envelope, write_envelope};
use std::path::Path;

/// Magic bytes opening the manifest file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"ADPWMAN\0";
/// Current manifest format version, and the only one decoded: v2 embeds
/// the current scenario body (oracle + drift fields). v1 manifests, which
/// embedded the pre-oracle body, are rejected (see MIGRATION.md).
pub const MANIFEST_VERSION: u32 = 2;

/// The decoded manifest (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The hub session this journal belongs to.
    pub session: u64,
    /// The run's full declarative description — enough to rebuild the
    /// session's iteration-0 state even without any snapshot on disk.
    pub spec: ScenarioSpec,
    /// Iteration of the snapshot covering everything before the segments:
    /// events at or below this are compacted away.
    pub checkpoint: usize,
    /// Sealed segments as `(first, last)` iteration ranges, in order. The
    /// open segment is implicit — recovery reads `open.adpwal` whether or
    /// not it exists.
    pub sealed: Vec<(usize, usize)>,
}

impl Manifest {
    /// Serializes the manifest (enveloped; write with `atomic_write`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = write_envelope(MANIFEST_MAGIC, MANIFEST_VERSION);
        w.put_u64(self.session);
        w.put(&self.spec);
        w.put_usize(self.checkpoint);
        w.put_usize(self.sealed.len());
        for &(first, last) in &self.sealed {
            w.put_usize(first);
            w.put_usize(last);
        }
        w.into_bytes()
    }

    /// Decodes and validates manifest bytes read from `path`.
    pub fn from_bytes(path: &Path, bytes: &[u8]) -> Result<Manifest, WalError> {
        let codec = |source| WalError::Codec {
            path: path.to_path_buf(),
            source,
        };
        let corrupt = |reason: String| WalError::Corrupt {
            path: path.to_path_buf(),
            reason,
        };
        let (mut r, _) = read_envelope(bytes, MANIFEST_MAGIC, MANIFEST_VERSION..=MANIFEST_VERSION)
            .map_err(codec)?;
        let session = r.get_u64().map_err(codec)?;
        let spec: ScenarioSpec = r.get().map_err(codec)?;
        let checkpoint = r.get_usize().map_err(codec)?;
        let n = r
            .get_len("manifest sealed-segment list", 16)
            .map_err(codec)?;
        let mut sealed = Vec::with_capacity(n);
        for _ in 0..n {
            let first = r.get_usize().map_err(codec)?;
            let last = r.get_usize().map_err(codec)?;
            sealed.push((first, last));
        }
        r.finish().map_err(codec)?;
        // Ranges must be well-formed and strictly consecutive — anything
        // else means the manifest was not produced by a journal.
        for &(first, last) in &sealed {
            if first == 0 || first > last {
                return Err(corrupt(format!("malformed segment range {first}..={last}")));
            }
        }
        for pair in sealed.windows(2) {
            let ((_, prev_last), (next_first, _)) = (pair[0], pair[1]);
            if next_first != prev_last + 1 {
                return Err(corrupt(format!(
                    "segment ranges are not consecutive: ..={prev_last} then {next_first}.."
                )));
            }
        }
        if let Some(&(first, _)) = sealed.first() {
            if first > checkpoint + 1 {
                return Err(corrupt(format!(
                    "segments start at iteration {first}, leaving a gap after checkpoint {checkpoint}"
                )));
            }
        }
        Ok(Manifest {
            session,
            spec,
            checkpoint,
            sealed,
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
            sealed: vec![(5, 12), (13, 40)],
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
        let empty = Manifest {
            sealed: vec![],
            ..sample()
        };
        assert_eq!(
            Manifest::from_bytes(&p(), &empty.to_bytes()).unwrap(),
            empty
        );
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
        // Future and retired (v1) versions.
        for stamp in [MANIFEST_VERSION + 1, 1] {
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
        // Non-consecutive ranges.
        let gapped = Manifest {
            sealed: vec![(5, 12), (20, 30)],
            ..sample()
        };
        let err = Manifest::from_bytes(&p(), &gapped.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("not consecutive"));
        // Inverted range.
        let inverted = Manifest {
            sealed: vec![(12, 5)],
            ..sample()
        };
        assert!(Manifest::from_bytes(&p(), &inverted.to_bytes()).is_err());
        // A gap between the checkpoint and the first segment.
        let late = Manifest {
            checkpoint: 2,
            sealed: vec![(5, 12)],
            ..sample()
        };
        let err = Manifest::from_bytes(&p(), &late.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("gap after checkpoint"));
    }
}
