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
//!   manifest.adpwman     # session id, scenario spec, checkpoint, sealed list
//!   checkpoint.adpsnap   # SessionSnapshot at the checkpoint (absent at 0)
//!   seg-000000000033.adpwal   # sealed segment: events 33..=64
//!   open.adpwal          # the append-mode segment being written
//! ```
//!
//! The base the events fold onto is `checkpoint.adpsnap`, which exists
//! exactly when the manifest's checkpoint is past 0; at checkpoint 0 the
//! manifest's scenario spec rebuilds the iteration-0 state. Segments hold
//! length-prefixed, CRC-guarded event records behind the same versioned
//! `adp-wire` envelope as every other artefact in the workspace. The
//! snapshot, sealed segments and the manifest are written with
//! [`adp_wire::atomic::atomic_write`] (stage + fsync + rename); the open
//! segment is appended in place, fsynced at every commit point, and reset
//! by truncating it back to its header.
//!
//! # Crash discipline
//!
//! Every mutation is ordered so that a crash at any instant leaves a
//! recoverable directory:
//!
//! * **Appends** land in `open.adpwal` before being acknowledged; a torn
//!   trailing record (or an uncommitted batch tail) is truncated on
//!   [`Journal::open`], never propagated.
//! * **Sealing** copies the open segment to its sealed name *first*, then
//!   rewrites the manifest, then truncates the open file. Recovery drops
//!   open-segment events already covered by a sealed segment, so the
//!   overlap window is harmless, and sealed files the manifest does not
//!   name are ignored and cleaned up.
//! * **Checkpoints** ([`Journal::checkpoint`]) write the snapshot, then
//!   the manifest, then delete covered segment files and truncate a
//!   covered open segment. A snapshot ahead of the manifest (a crash
//!   between the two writes) is accepted by [`Journal::open`], which
//!   finishes the checkpoint; a crash during compaction leaves stale
//!   files, not lost events.
//!
//! Sealed segments and the snapshot were written atomically, so any
//! damage inside one is real corruption and surfaces as a typed
//! [`WalError`] instead of a silent truncation.

pub mod error;
pub mod journal;
pub mod manifest;
pub mod segment;

pub use error::WalError;
pub use journal::{Journal, DEFAULT_SEGMENT_CAP};
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

/// CRC-32 (IEEE) of `bytes` — the per-record integrity check in WAL
/// segments.
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
