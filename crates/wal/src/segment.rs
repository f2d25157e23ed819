//! Segment files: a versioned envelope followed by CRC-guarded event
//! records.
//!
//! ```text
//! ADPWSEG\0 | u32 version | record*
//! record := u32 payload_len | payload (StepEvent bytes) | u32 crc32(payload)
//! ```
//!
//! The same byte layout backs both sealed segments (written atomically,
//! decoded *strictly* — any damage is an error) and the open segment
//! (appended in place, decoded *leniently* — a torn trailing record marks
//! where the valid prefix ends and is truncated by recovery).

use crate::crc32;
use crate::error::WalError;
use activedp::StepEvent;
use adp_wire::{read_envelope, write_envelope, Reader, Writer};
use std::path::Path;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"ADPWSEG\0";
/// Current segment format version.
pub const SEGMENT_VERSION: u32 = 1;

/// The envelope bytes a fresh (empty) segment file starts with.
pub fn segment_header() -> Vec<u8> {
    write_envelope(SEGMENT_MAGIC, SEGMENT_VERSION).into_bytes()
}

/// Encodes one event as a `len | payload | crc` record.
pub fn encode_record(event: &StepEvent) -> Vec<u8> {
    let mut payload = Writer::new();
    payload.put(event);
    let payload = payload.into_bytes();
    let mut w = Writer::new();
    w.put_u32(payload.len() as u32);
    w.put_bytes(&payload);
    w.put_u32(crc32(&payload));
    w.into_bytes()
}

/// A decoded segment: its events plus where the valid bytes end.
#[derive(Debug)]
pub struct DecodedSegment {
    /// Every intact record, in file order.
    pub events: Vec<StepEvent>,
    /// Byte length of the valid prefix (envelope + intact records). Equal
    /// to the file length for a clean segment; shorter when a lenient
    /// decode stopped at a torn tail.
    pub valid_len: usize,
}

/// Decodes a segment file's bytes.
///
/// `strict` is for sealed segments: any incomplete or damaged record is a
/// typed [`WalError`]. Lenient mode is for the open segment: decoding
/// stops at the first incomplete/damaged record and reports the valid
/// prefix, which recovery truncates to. The envelope itself is always
/// strict — a file that does not even open as a WAL segment is corrupt in
/// both modes.
pub fn decode_segment(path: &Path, bytes: &[u8], strict: bool) -> Result<DecodedSegment, WalError> {
    let (reader, _version) = read_envelope(bytes, SEGMENT_MAGIC, SEGMENT_VERSION..=SEGMENT_VERSION)
        .map_err(|source| WalError::Codec {
            path: path.to_path_buf(),
            source,
        })?;
    let header_len = bytes.len() - reader.remaining();
    let mut events = Vec::new();
    let mut offset = header_len;
    loop {
        match decode_one(&bytes[offset..]) {
            RecordOutcome::Done => break,
            RecordOutcome::Record { event, consumed } => {
                events.push(event);
                offset += consumed;
            }
            RecordOutcome::Bad(reason) => {
                if strict {
                    return Err(WalError::Corrupt {
                        path: path.to_path_buf(),
                        reason: format!("record at byte {offset}: {reason}"),
                    });
                }
                break;
            }
        }
    }
    Ok(DecodedSegment {
        events,
        valid_len: offset,
    })
}

enum RecordOutcome {
    /// The buffer is exhausted exactly at a record boundary.
    Done,
    /// One intact record.
    Record { event: StepEvent, consumed: usize },
    /// The bytes do not form a complete, checksummed, decodable record.
    Bad(String),
}

fn decode_one(buf: &[u8]) -> RecordOutcome {
    if buf.is_empty() {
        return RecordOutcome::Done;
    }
    if buf.len() < 4 {
        return RecordOutcome::Bad("incomplete length prefix".into());
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    let total = 4 + len + 4;
    if buf.len() < total {
        return RecordOutcome::Bad(format!(
            "incomplete record: {} of {total} bytes present",
            buf.len()
        ));
    }
    let payload = &buf[4..4 + len];
    let stored = u32::from_le_bytes(buf[4 + len..total].try_into().expect("4 bytes"));
    let computed = crc32(payload);
    if stored != computed {
        return RecordOutcome::Bad(format!(
            "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        ));
    }
    let mut r = Reader::new(payload);
    let event: StepEvent = match r.get() {
        Ok(event) => event,
        Err(e) => return RecordOutcome::Bad(format!("undecodable payload: {e}")),
    };
    if r.finish().is_err() {
        return RecordOutcome::Bad("trailing bytes inside record payload".into());
    }
    RecordOutcome::Record {
        event,
        consumed: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn event(iteration: usize, commit: bool) -> StepEvent {
        StepEvent {
            iteration,
            query: Some(iteration * 3),
            lf: None,
            sampler_rng: [iteration as u64; 4],
            oracle_rng: [iteration as u64 + 1; 4],
            commit,
            route: None,
        }
    }

    fn segment_bytes(n: usize) -> Vec<u8> {
        let mut bytes = segment_header();
        for i in 1..=n {
            bytes.extend(encode_record(&event(i, i == n)));
        }
        bytes
    }

    fn p() -> PathBuf {
        PathBuf::from("seg-test.adpwal")
    }

    #[test]
    fn records_roundtrip_in_both_modes() {
        let bytes = segment_bytes(4);
        for strict in [true, false] {
            let d = decode_segment(&p(), &bytes, strict).unwrap();
            assert_eq!(d.events.len(), 4);
            assert_eq!(d.valid_len, bytes.len());
            assert_eq!(d.events[0], event(1, false));
            assert_eq!(d.events[3], event(4, true));
        }
    }

    #[test]
    fn torn_tail_truncates_leniently_and_errors_strictly() {
        let whole = segment_bytes(3);
        let two = segment_bytes(2).len();
        // Cut anywhere inside the third record.
        for cut in two + 1..whole.len() {
            let d = decode_segment(&p(), &whole[..cut], false).unwrap();
            assert_eq!(d.events.len(), 2, "cut at {cut}");
            assert_eq!(d.valid_len, two);
            let err = decode_segment(&p(), &whole[..cut], true).unwrap_err();
            assert!(matches!(err, WalError::Corrupt { .. }), "cut at {cut}");
        }
    }

    #[test]
    fn flipped_bits_fail_the_checksum() {
        let mut bytes = segment_bytes(2);
        let n = bytes.len();
        bytes[n - 6] ^= 0x40; // inside the second record's payload
        let err = decode_segment(&p(), &bytes, true).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"));
        // Leniently, the damage truncates the segment there.
        let d = decode_segment(&p(), &bytes, false).unwrap();
        assert_eq!(d.events.len(), 1);
    }

    #[test]
    fn bad_magic_and_future_versions_are_codec_errors() {
        let mut bytes = segment_bytes(1);
        bytes[0] = b'X';
        assert!(matches!(
            decode_segment(&p(), &bytes, false),
            Err(WalError::Codec {
                source: adp_wire::WireError::BadMagic { .. },
                ..
            })
        ));
        let mut bytes = segment_bytes(1);
        bytes[8..12].copy_from_slice(&(SEGMENT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode_segment(&p(), &bytes, true),
            Err(WalError::Codec {
                source: adp_wire::WireError::UnknownVersion { .. },
                ..
            })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected_strictly() {
        let mut bytes = segment_bytes(2);
        bytes.extend_from_slice(&[0xAB; 3]);
        let err = decode_segment(&p(), &bytes, true).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }));
    }
}
