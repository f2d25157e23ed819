//! **adp-wal** — a per-session write-ahead log with point-in-time
//! recovery, and the whole of a session's durable state.
//!
//! Every completed iteration is journalled as a
//! [`StepEvent`](activedp::StepEvent) — query, returned LF, both RNG
//! positions — so a crashed session recovers to its last *committed
//! step*, and any historical commit point can be rebuilt on demand
//! (`Engine::replay_to`). The log's prefix is periodically folded into a
//! checkpoint: a plain [`SessionSnapshot`](activedp::SessionSnapshot)
//! stored in the journal directory itself, so saving, evicting and
//! checkpointing a session are one operation ([`Journal::checkpoint`])
//! and loading one is "open the journal, take its base, replay the tail".
//!
//! # Layout
//!
//! A journal is a directory:
//!
//! ```text
//! wal-<session>/
//!   manifest.adpwman     # session id, scenario spec, checkpoint
//!   checkpoint.adpsnap   # SessionSnapshot at the checkpoint (absent at 0)
//!   open.adpwal          # the append-only event log
//! ```
//!
//! The base the events fold onto is `checkpoint.adpsnap`, which exists
//! exactly when the manifest's checkpoint is past 0; at checkpoint 0 the
//! manifest's scenario spec rebuilds the iteration-0 state. The log holds
//! length-prefixed event records, the length and the payload each guarded
//! by its own CRC, behind the same versioned
//! `adp-wire` envelope as every other artefact in the workspace. The
//! snapshot and the manifest are written with
//! [`adp_wire::atomic::atomic_write`] (stage + fsync + rename); the log is
//! appended in place, fsynced at every commit point, and emptied by
//! truncating it back to its header.
//!
//! # Crash discipline
//!
//! Every mutation is ordered so that a crash at any instant leaves a
//! recoverable directory:
//!
//! * **Appends** land in `open.adpwal` before being acknowledged; a torn
//!   final record and an uncommitted batch tail are truncated on
//!   [`Journal::open`], never propagated.
//! * **Checkpoints** ([`Journal::checkpoint`]) write the snapshot, then
//!   the manifest, then truncate the log if the checkpoint covers all of
//!   it. A snapshot ahead of the manifest (a crash between the two writes)
//!   is accepted by [`Journal::open`], which finishes the checkpoint; a
//!   crash before the truncate leaves covered records, which recovery
//!   drops.
//!
//! Only an append can be cut short, so only the log's final record may be
//! damaged by a crash. Damage anywhere else — in an earlier record, the
//! snapshot or the manifest — is real corruption and surfaces as a typed
//! [`WalError`] instead of a silent truncation.

pub mod error;
pub mod journal;
pub mod manifest;
pub mod segment;

pub use error::WalError;
pub use journal::Journal;
pub use manifest::{Manifest, MANIFEST_MAGIC, MANIFEST_VERSION};
pub use segment::{SEGMENT_MAGIC, SEGMENT_VERSION};

/// CRC-32 (IEEE 802.3) lookup table, built at compile time — the workspace
/// is dependency-free, so the checksum is hand-rolled here.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the per-record integrity check in the WAL
/// log.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::crc32;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let base = b"activedp wal record payload".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference);
            }
        }
    }
}
