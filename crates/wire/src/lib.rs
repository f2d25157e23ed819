//! A small, dependency-free, versioned binary codec for session snapshots.
//!
//! The workspace must build offline, so instead of serde + bincode this
//! crate provides exactly the encoding the durable-session layer needs:
//!
//! * explicit **little-endian** byte order for every primitive, on every
//!   platform — an encoded snapshot is a portable artefact;
//! * **deterministic** output: encoding the same value twice yields the
//!   same bytes (no maps, no pointers, no padding), which is what lets the
//!   golden-bytes fixture pin the format;
//! * a **versioned envelope** ([`write_envelope`] / [`read_envelope`]):
//!   an 8-byte magic plus a `u32` format version, so a decoder can reject
//!   foreign files and every version it does not read with a typed error
//!   instead of misparsing them;
//! * typed, non-panicking errors ([`WireError`]) for truncation, bad tags,
//!   bad lengths and trailing garbage.
//!
//! [`Writer`] appends to a byte buffer; [`Reader`] consumes one. The
//! [`Encode`]/[`Decode`] traits cover the primitives plus `Vec`, `Option`,
//! `String`, fixed `[u64; 4]` RNG states and nested combinations thereof.
//! Domain types
//! (e.g. the engine's `SessionSnapshot`) encode themselves field-by-field
//! through these building blocks in their own crates.

use std::fmt;

pub mod atomic;

/// Errors surfaced while decoding (encoding is infallible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a value was complete.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// An enum tag byte had no matching variant.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A declared length cannot fit in memory / `usize`.
    BadLength {
        /// What was being decoded.
        what: &'static str,
        /// The declared length.
        len: u64,
    },
    /// A bool byte was neither 0 nor 1.
    BadBool(u8),
    /// The envelope's magic bytes did not match.
    BadMagic {
        /// The magic the decoder expected.
        expected: [u8; 8],
        /// The magic found in the buffer.
        found: [u8; 8],
    },
    /// The envelope's format version is not one this decoder reads.
    UnknownVersion {
        /// The version found in the buffer.
        found: u32,
        /// The newest version this decoder understands.
        supported: u32,
    },
    /// Bytes were left over after the value was fully decoded.
    TrailingBytes {
        /// How many bytes remained.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected EOF: needed {needed} bytes, {remaining} left")
            }
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag} for {what}"),
            WireError::BadLength { what, len } => write!(f, "bad length {len} for {what}"),
            WireError::BadBool(b) => write!(f, "bad bool byte {b}"),
            WireError::BadMagic { expected, found } => {
                write!(f, "bad magic {found:02x?}, expected {expected:02x?}")
            }
            WireError::UnknownVersion { found, supported } => {
                write!(
                    f,
                    "unknown format version {found} (newest supported: {supported})"
                )
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Appends encoded values to a growable byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` as a little-endian `u64` (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// `i8` as its two's-complement byte.
    pub fn put_i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    /// `f64` as the little-endian bytes of its IEEE-754 bit pattern —
    /// bitwise-exact roundtrips, NaN payloads and signed zeros included.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Raw bytes, no length prefix (caller encodes the framing).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Any [`Encode`] value.
    pub fn put<T: Encode + ?Sized>(&mut self, v: &T) {
        v.encode(self);
    }
}

/// Consumes encoded values from a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// One raw byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A `u64` that must fit a `usize` (and, as a sanity bound against
    /// corrupt buffers, cannot exceed the bytes remaining when `bounded`
    /// is the per-element minimum size — see [`Reader::get_len`]).
    pub fn get_usize(&mut self) -> Result<usize, WireError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| WireError::BadLength {
            what: "usize",
            len: v,
        })
    }

    /// A collection length declared in the buffer. Rejects lengths that
    /// could not possibly be backed by the remaining bytes (each element
    /// needs at least `min_elem_bytes`), so a corrupt length cannot trigger
    /// a huge allocation.
    pub fn get_len(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, WireError> {
        let v = self.get_u64()?;
        let n = usize::try_from(v).map_err(|_| WireError::BadLength { what, len: v })?;
        match n.checked_mul(min_elem_bytes.max(1)) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(WireError::BadLength { what, len: v }),
        }
    }

    /// `i8` from its two's-complement byte.
    pub fn get_i8(&mut self) -> Result<i8, WireError> {
        Ok(self.get_u8()? as i8)
    }

    /// `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// `bool` from a 0/1 byte; anything else is [`WireError::BadBool`].
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }

    /// Exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Any [`Decode`] value.
    pub fn get<T: Decode>(&mut self) -> Result<T, WireError> {
        T::decode(self)
    }

    /// Asserts the buffer is fully consumed — a complete value followed by
    /// garbage is corruption, not success.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// A value with a canonical byte encoding.
pub trait Encode {
    /// Appends the value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
}

/// A value decodable from its canonical encoding.
pub trait Decode: Sized {
    /// Reads one value from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! primitive_codec {
    ($($t:ty => $put:ident / $get:ident),* $(,)?) => {$(
        impl Encode for $t {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$get()
            }
        }
    )*};
}

primitive_codec!(
    u8 => put_u8 / get_u8,
    u32 => put_u32 / get_u32,
    u64 => put_u64 / get_u64,
    usize => put_usize / get_usize,
    i8 => put_i8 / get_i8,
    f64 => put_f64 / get_f64,
    bool => put_bool / get_bool,
);

impl Encode for [u64; 4] {
    fn encode(&self, w: &mut Writer) {
        for v in self {
            w.put_u64(*v);
        }
    }
}

impl Decode for [u64; 4] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?])
    }
}

impl Encode for str {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.len());
        w.put_bytes(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        self.as_str().encode(w);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.get_len("string", 1)?;
        let bytes = r.get_bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadTag {
            what: "utf-8 string",
            tag: 0xff,
        })
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // Every element costs at least one byte on the wire, which bounds
        // the pre-allocation by the buffer size.
        let n = r.get_len("vec", 1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "option",
                tag,
            }),
        }
    }
}

/// Starts an encoded artefact with its 8-byte magic and `u32` format
/// version; the caller appends the payload to the returned writer.
pub fn write_envelope(magic: &[u8; 8], version: u32) -> Writer {
    let mut w = Writer::new();
    w.put_bytes(magic);
    w.put_u32(version);
    w
}

/// Opens an encoded artefact: checks the magic, reads the version, and
/// rejects every version outside `versions` (older and newer alike) with
/// [`WireError::UnknownVersion`]. Returns the payload reader and the
/// version actually found, so a decoder that still reads older formats
/// can branch on it. Version 0 is reserved: ranges start at 1.
pub fn read_envelope<'a>(
    buf: &'a [u8],
    magic: &[u8; 8],
    versions: std::ops::RangeInclusive<u32>,
) -> Result<(Reader<'a>, u32), WireError> {
    let mut r = Reader::new(buf);
    let found = r.get_bytes(8)?;
    if found != magic {
        return Err(WireError::BadMagic {
            expected: *magic,
            found: found.try_into().expect("8 bytes"),
        });
    }
    let version = r.get_u32()?;
    if version == 0 || !versions.contains(&version) {
        return Err(WireError::UnknownVersion {
            found: version,
            supported: *versions.end(),
        });
    }
    Ok((r, version))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Writer::new();
        w.put(&v);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back: T = r.get().expect("decodes");
        r.finish().expect("fully consumed");
        assert_eq!(v, back);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(-128i8);
        roundtrip(127i8);
        roundtrip(true);
        roundtrip(false);
        roundtrip(0.0f64);
        roundtrip(-0.0f64);
        roundtrip(f64::MIN_POSITIVE);
        roundtrip(f64::INFINITY);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(1.0f64 / 3.0);
        roundtrip([1u64, 2, 3, u64::MAX]);
    }

    #[test]
    fn f64_roundtrip_is_bitwise() {
        // NaN payloads survive (PartialEq can't see this, bits can).
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut w = Writer::new();
        w.put_f64(weird);
        let bytes = w.into_bytes();
        let back = Reader::new(&bytes).get_f64().unwrap();
        assert_eq!(weird.to_bits(), back.to_bits());
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let mut w = Writer::new();
        w.put_f64(-0.0);
        let back = Reader::new(&w.into_bytes()).get_f64().unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(String::new());
        roundtrip("hello, wörld".to_string());
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(vec![vec![1.0f64, 2.0], vec![], vec![3.5]]);
        roundtrip(Option::<u32>::None);
        roundtrip(Some(42u32));
        roundtrip(Some(vec![Some(1i8), None, Some(-1)]));
        roundtrip(vec![true, false, true]);
    }

    #[test]
    fn encoding_is_little_endian_and_deterministic() {
        let mut w = Writer::new();
        w.put_u32(0x0102_0304);
        w.put_u64(0x1122_3344_5566_7788);
        assert_eq!(
            w.into_bytes(),
            vec![0x04, 0x03, 0x02, 0x01, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]
        );
        let enc = |v: &Vec<f64>| {
            let mut w = Writer::new();
            w.put(v);
            w.into_bytes()
        };
        let v = vec![0.1, 0.2, 0.3];
        assert_eq!(enc(&v), enc(&v.clone()));
    }

    #[test]
    fn truncation_is_a_typed_error_everywhere() {
        let mut w = Writer::new();
        w.put(&vec![1u64, 2, 3]);
        let bytes = w.into_bytes();
        // Chop the buffer at every prefix: decode must error, never panic.
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let res: Result<Vec<u64>, _> = r.get();
            assert!(res.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn huge_length_is_rejected_without_allocation() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // declared length
        let bytes = w.into_bytes();
        let res: Result<Vec<u8>, _> = Reader::new(&bytes).get();
        assert!(matches!(res, Err(WireError::BadLength { .. })));
        // A length that fits u64 but not the remaining bytes.
        let mut w = Writer::new();
        w.put_u64(10);
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let res: Result<Vec<u8>, _> = Reader::new(&bytes).get();
        assert!(matches!(res, Err(WireError::BadLength { .. })));
    }

    #[test]
    fn bad_tags_are_typed_errors() {
        let res: Result<Option<u8>, _> = Reader::new(&[7]).get();
        assert!(matches!(
            res,
            Err(WireError::BadTag {
                what: "option",
                tag: 7
            })
        ));
        let res = Reader::new(&[2]).get_bool();
        assert!(matches!(res, Err(WireError::BadBool(2))));
        // Invalid UTF-8 in a string body.
        let mut w = Writer::new();
        w.put_u64(2);
        w.put_bytes(&[0xff, 0xfe]);
        let res: Result<String, _> = Reader::new(&w.into_bytes()).get();
        assert!(res.is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let _: u8 = r.get().unwrap();
        assert!(matches!(
            r.finish(),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }

    const MAGIC: &[u8; 8] = b"ADPTEST\0";

    #[test]
    fn envelope_roundtrip() {
        let mut w = write_envelope(MAGIC, 3);
        w.put_u64(99);
        let bytes = w.into_bytes();
        let (mut r, version) = read_envelope(&bytes, MAGIC, 3..=3).unwrap();
        assert_eq!(version, 3);
        assert_eq!(r.get_u64().unwrap(), 99);
        r.finish().unwrap();
        // Older versions inside the range still open (the decoder branches
        // on the version)...
        let old = write_envelope(MAGIC, 2).into_bytes();
        let (_, v) = read_envelope(&old, MAGIC, 2..=3).unwrap();
        assert_eq!(v, 2);
        // ...and ones below it are rejected like future ones.
        assert!(matches!(
            read_envelope(&old, MAGIC, 3..=3),
            Err(WireError::UnknownVersion {
                found: 2,
                supported: 3
            })
        ));
    }

    #[test]
    fn envelope_rejects_wrong_magic_and_future_versions() {
        let bytes = write_envelope(b"NOTADP!\0", 1).into_bytes();
        assert!(matches!(
            read_envelope(&bytes, MAGIC, 1..=1),
            Err(WireError::BadMagic { .. })
        ));
        let bytes = write_envelope(MAGIC, 9).into_bytes();
        assert!(matches!(
            read_envelope(&bytes, MAGIC, 1..=1),
            Err(WireError::UnknownVersion {
                found: 9,
                supported: 1
            })
        ));
        // Version 0 is reserved/invalid.
        let bytes = write_envelope(MAGIC, 0).into_bytes();
        assert!(matches!(
            read_envelope(&bytes, MAGIC, 0..=1),
            Err(WireError::UnknownVersion { .. })
        ));
        // Truncated before the version.
        assert!(matches!(
            read_envelope(&MAGIC[..5], MAGIC, 1..=1),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn error_messages_render() {
        let errs: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(WireError::UnexpectedEof {
                needed: 8,
                remaining: 3,
            }),
            Box::new(WireError::BadTag {
                what: "option",
                tag: 9,
            }),
            Box::new(WireError::BadLength {
                what: "vec",
                len: 1 << 60,
            }),
            Box::new(WireError::BadBool(3)),
            Box::new(WireError::UnknownVersion {
                found: 2,
                supported: 1,
            }),
            Box::new(WireError::TrailingBytes { remaining: 4 }),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
