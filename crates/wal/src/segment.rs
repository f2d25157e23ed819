//! The log file format: a versioned envelope followed by CRC-guarded event
//! records.
//!
//! ```text
//! ADPWSEG\0 | u32 version | record*
//! record := u32 payload_len | u32 crc32(payload_len) | payload (StepEvent bytes)
//!           | u32 crc32(payload)
//! ```
//!
//! The log is appended in place, one whole record per write, so a crash
//! can damage only its final record: an append that did not fully land.
//! The decoder therefore tolerates damage exactly there — a record header
//! cut short by end of file, or a checked header whose declared end
//! reaches end of file — and reports everything else as a typed
//! [`WalError`]. The length word carries its own checksum so that a
//! damaged length cannot pass for a torn append: without it, a flipped
//! bit that pushed the declared end past end of file would silently drop
//! every committed record after it.

use crate::crc32;
use crate::error::WalError;
use activedp::StepEvent;
use adp_wire::{read_envelope, write_envelope, Reader, Writer};
use std::path::Path;

/// Magic bytes opening every log file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"ADPWSEG\0";
/// Current log format version: 2 since record lengths carry their own
/// checksum (version 1 logs are a typed codec error).
pub const SEGMENT_VERSION: u32 = 2;

/// Bytes of a record header: the length word and its checksum.
const HEADER_LEN: usize = 8;

/// The envelope bytes a fresh (empty) log file starts with.
pub fn segment_header() -> Vec<u8> {
    write_envelope(SEGMENT_MAGIC, SEGMENT_VERSION).into_bytes()
}

/// Encodes one event as a `len | crc(len) | payload | crc(payload)` record.
pub fn encode_record(event: &StepEvent) -> Vec<u8> {
    let mut payload = Writer::new();
    payload.put(event);
    let payload = payload.into_bytes();
    let len = (payload.len() as u32).to_le_bytes();
    let mut w = Writer::new();
    w.put_bytes(&len);
    w.put_u32(crc32(&len));
    w.put_bytes(&payload);
    w.put_u32(crc32(&payload));
    w.into_bytes()
}

/// One intact record of a log.
#[derive(Debug)]
pub struct Record {
    /// The journalled event.
    pub event: StepEvent,
    /// Byte offset in the file just past this record.
    pub end: usize,
}

/// Decodes a log file's bytes into its intact records, in file order.
///
/// A torn final append (a header cut short by end of file, or a checked
/// header whose declared end reaches end of file over a payload that is
/// incomplete or fails its checksum) ends the log silently; the caller
/// truncates to the last record's `end`. A header that fails its checksum,
/// payload damage with more bytes after it, an undecodable payload, and an
/// envelope that does not open as a WAL log are typed errors.
pub fn decode_segment(path: &Path, bytes: &[u8]) -> Result<Vec<Record>, WalError> {
    let (reader, _version) = read_envelope(bytes, SEGMENT_MAGIC, SEGMENT_VERSION..=SEGMENT_VERSION)
        .map_err(|source| WalError::Codec {
            path: path.to_path_buf(),
            source,
        })?;
    let mut offset = bytes.len() - reader.remaining();
    let mut records = Vec::new();
    while offset < bytes.len() {
        match decode_one(&bytes[offset..]) {
            Ok((event, consumed)) => {
                offset += consumed;
                records.push(Record { event, end: offset });
            }
            Err(Damage::Torn) => break,
            Err(Damage::Corrupt(reason)) => {
                return Err(WalError::Corrupt {
                    path: path.to_path_buf(),
                    reason: format!("record at byte {offset}: {reason}"),
                })
            }
        }
    }
    Ok(records)
}

/// Why the bytes at some offset are not an intact record.
enum Damage {
    /// The record's header, or its checked declared end, reaches end of
    /// file: a torn final append.
    Torn,
    /// Anything else, which no crash of an append produces.
    Corrupt(String),
}

/// Decodes the record at the start of `buf`, returning it with its length.
fn decode_one(buf: &[u8]) -> Result<(StepEvent, usize), Damage> {
    let Some(header) = buf.get(..HEADER_LEN) else {
        return Err(Damage::Torn);
    };
    let (len, stored) = header.split_at(4);
    let stored = u32::from_le_bytes(stored.try_into().expect("4 bytes"));
    let computed = crc32(len);
    if stored != computed {
        // An append lands as a prefix, so a whole header is the one that
        // was written: a mismatch is damage, wherever the record ends.
        return Err(Damage::Corrupt(format!(
            "length checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
    let total = HEADER_LEN + len + 4;
    if buf.len() < total {
        return Err(Damage::Torn);
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + len];
    let stored = u32::from_le_bytes(buf[HEADER_LEN + len..total].try_into().expect("4 bytes"));
    let computed = crc32(payload);
    if stored != computed {
        return Err(if buf.len() == total {
            Damage::Torn
        } else {
            Damage::Corrupt(format!(
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ))
        });
    }
    let mut r = Reader::new(payload);
    let event: StepEvent = r
        .get()
        .map_err(|e| Damage::Corrupt(format!("undecodable payload: {e}")))?;
    r.finish()
        .map_err(|_| Damage::Corrupt("trailing bytes inside record payload".into()))?;
    Ok((event, total))
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
        PathBuf::from("open.adpwal")
    }

    fn events(records: Vec<Record>) -> Vec<StepEvent> {
        records.into_iter().map(|r| r.event).collect()
    }

    #[test]
    fn records_roundtrip_with_their_end_offsets() {
        let bytes = segment_bytes(4);
        let records = decode_segment(&p(), &bytes).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[3].end, bytes.len());
        assert_eq!(records[2].end, segment_bytes(3).len());
        assert_eq!(records[0].event, event(1, false));
        assert_eq!(records[3].event, event(4, true));
    }

    #[test]
    fn a_torn_tail_ends_the_log_and_is_corrupt_before_another_record() {
        let whole = segment_bytes(3);
        let two = segment_bytes(2).len();
        let fourth = encode_record(&event(4, true));
        // Cut anywhere inside the third record: the log ends after two…
        for cut in two + 1..whole.len() {
            let records = decode_segment(&p(), &whole[..cut]).unwrap();
            assert_eq!(records.len(), 2, "cut at {cut}");
            assert_eq!(records[1].end, two);
            // …but the same torn bytes with a record behind them are not a
            // torn append, so they are corrupt — even when so little of the
            // header landed that its length word is the next record's.
            let mut bytes = whole[..cut].to_vec();
            bytes.extend_from_slice(&fourth);
            let err = decode_segment(&p(), &bytes).unwrap_err();
            assert!(matches!(err, WalError::Corrupt { .. }), "cut at {cut}");
        }
        // A whole final record whose checksum fails is a torn append too.
        let mut bytes = whole.clone();
        let n = bytes.len();
        bytes[n - 6] ^= 0x40;
        assert_eq!(
            events(decode_segment(&p(), &bytes).unwrap()),
            [event(1, false), event(2, false)]
        );
    }

    #[test]
    fn flipped_bits_fail_the_checksum() {
        let mut bytes = segment_bytes(3);
        let one = segment_bytes(1).len();
        bytes[one + HEADER_LEN + 2] ^= 0x40; // inside the second record's payload
        let err = decode_segment(&p(), &bytes).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }));
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        assert!(err.to_string().contains(&format!("byte {one}")), "{err}");
    }

    #[test]
    fn bad_magic_and_future_versions_are_codec_errors() {
        let mut bytes = segment_bytes(1);
        bytes[0] = b'X';
        assert!(matches!(
            decode_segment(&p(), &bytes),
            Err(WalError::Codec {
                source: adp_wire::WireError::BadMagic { .. },
                ..
            })
        ));
        let mut bytes = segment_bytes(1);
        bytes[8..12].copy_from_slice(&(SEGMENT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode_segment(&p(), &bytes),
            Err(WalError::Codec {
                source: adp_wire::WireError::UnknownVersion { .. },
                ..
            })
        ));
    }

    #[test]
    fn a_checksummed_record_that_does_not_decode_is_corrupt() {
        // Three bytes of garbage framed with a valid checksum: no torn
        // append produces that, so it is corrupt even at the end of the
        // file.
        let garbage = [0xAB; 3];
        let len = (garbage.len() as u32).to_le_bytes();
        let mut bytes = segment_bytes(2);
        bytes.extend_from_slice(&len);
        bytes.extend_from_slice(&crc32(&len).to_le_bytes());
        bytes.extend_from_slice(&garbage);
        bytes.extend_from_slice(&crc32(&garbage).to_le_bytes());
        let err = decode_segment(&p(), &bytes).unwrap_err();
        assert!(err.to_string().contains("undecodable payload"), "{err}");
    }
}
