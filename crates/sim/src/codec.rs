//! Compact binary encoding primitives for simulation-state snapshots.
//!
//! The platform's snapshot format (`ssdx-core::snapshot`) is a hand-rolled
//! byte codec, in the same spirit as the hand-rolled JSON writers elsewhere
//! in the workspace: no serialization framework is a dependency.
//! This module provides the byte-level primitives every layer shares:
//!
//! * [`Encoder`] appends LEB128 varints (`u32`/`u64`/`u128`), raw IEEE-754
//!   bit patterns (`f64`), [`SimTime`] picosecond counts and
//!   length-prefixed sequences to a growable buffer.
//! * [`Decoder`] reads them back with **every access bounds-checked**:
//!   decoding arbitrary, truncated or bit-flipped input returns
//!   [`DecodeError`] and never panics. Sequence lengths are validated
//!   against the remaining input before any allocation, so hostile length
//!   prefixes cannot trigger huge reservations.
//!
//! Integers are varint-encoded because snapshot state is dominated by small
//! counters and sparse histogram buckets; `f64` is stored as its exact bit
//! pattern so encode → decode round-trips are bit-identical (a determinism
//! requirement: a forked run must continue from *exactly* the state the
//! continuous run had).

use crate::time::SimTime;
use std::error::Error;
use std::fmt;

/// Error produced when decoding snapshot bytes.
///
/// Carries the buffer offset at which decoding failed, so corrupted images
/// are diagnosable. Decoding never panics; every malformed input maps to
/// one of these variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    UnexpectedEnd {
        /// Buffer offset at which more bytes were needed.
        offset: usize,
    },
    /// The bytes at `offset` are not a valid encoding of the expected value.
    Invalid {
        /// Buffer offset of the offending value.
        offset: usize,
        /// What was being decoded.
        what: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd { offset } => {
                write!(f, "input ended unexpectedly at byte {offset}")
            }
            DecodeError::Invalid { offset, what } => {
                write!(f, "invalid {what} at byte {offset}")
            }
        }
    }
}

impl Error for DecodeError {}

/// Append-only binary encoder. See the [module docs](self) for the format.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Creates an encoder with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` as an LEB128 varint (1–10 bytes).
    pub fn put_u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a `u32` (varint, same wire format as `u64`).
    pub fn put_u32(&mut self, v: u32) {
        self.put_u64(v as u64);
    }

    /// Appends a `u128` as an LEB128 varint (1–19 bytes).
    pub fn put_u128(&mut self, mut v: u128) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern (8 bytes LE).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a boolean (one byte, `0` or `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a [`SimTime`] as its picosecond count (varint).
    pub fn put_time(&mut self, t: SimTime) {
        self.put_u64(t.as_ps());
    }

    /// Appends a sequence length prefix (varint).
    pub fn put_len(&mut self, len: usize) {
        self.put_u64(len as u64);
    }

    /// Appends a UTF-8 string (length prefix + bytes).
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked binary decoder over a byte slice.
///
/// Every read returns [`DecodeError`] instead of panicking when the input
/// is truncated or malformed, which is what licenses feeding snapshot
/// decoding arbitrary bytes (see the codec-robustness proptests).
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Current read offset (for error reporting).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Builds a [`DecodeError::Invalid`] at the current offset — the idiom
    /// for semantic validation failures (out-of-range index, unknown tag)
    /// detected after the raw bytes were read.
    pub fn invalid(&self, what: &'static str) -> DecodeError {
        DecodeError::Invalid {
            offset: self.pos,
            what,
        }
    }

    /// `true` once every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Asserts the input is fully consumed (a complete snapshot has no
    /// trailing bytes).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Invalid`] if bytes remain.
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.is_at_end() {
            Ok(())
        } else {
            Err(DecodeError::Invalid {
                offset: self.pos,
                what: "trailing bytes after value",
            })
        }
    }

    fn need(&self, n: usize) -> Result<(), DecodeError> {
        if self.remaining() < n {
            Err(DecodeError::UnexpectedEnd { offset: self.pos })
        } else {
            Ok(())
        }
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] at end of input.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        self.need(1)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] if fewer than `n` remain.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.need(n)?;
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads an LEB128 varint `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or a varint wider than 64 bits.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let start = self.pos;
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            let payload = (byte & 0x7F) as u64;
            if shift >= 64 || (shift == 63 && payload > 1) {
                return Err(DecodeError::Invalid {
                    offset: start,
                    what: "varint wider than u64",
                });
            }
            value |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads a varint `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or a value wider than 32 bits.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let start = self.pos;
        let v = self.get_u64()?;
        u32::try_from(v).map_err(|_| DecodeError::Invalid {
            offset: start,
            what: "varint wider than u32",
        })
    }

    /// Reads an LEB128 varint `u128`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or a varint wider than 128 bits.
    pub fn get_u128(&mut self) -> Result<u128, DecodeError> {
        let start = self.pos;
        let mut value = 0u128;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            let payload = (byte & 0x7F) as u128;
            if shift >= 128 || (shift == 126 && payload > 3) {
                return Err(DecodeError::Invalid {
                    offset: start,
                    what: "varint wider than u128",
                });
            }
            value |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads an `f64` bit pattern (8 bytes LE).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] on truncation.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        let bytes = self.get_raw(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    /// Reads a boolean.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or a byte other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        let start = self.pos;
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Invalid {
                offset: start,
                what: "boolean",
            }),
        }
    }

    /// Reads a [`SimTime`] (varint picoseconds).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or varint overflow.
    pub fn get_time(&mut self) -> Result<SimTime, DecodeError> {
        Ok(SimTime::from_ps(self.get_u64()?))
    }

    /// Reads a sequence length prefix and validates it against the
    /// remaining input: every element of a well-formed sequence occupies at
    /// least one byte, so `len > remaining` proves corruption. This check
    /// is what keeps decoding of hostile input alloc-bounded — a forged
    /// multi-gigabyte length fails here before any `Vec` reservation.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or an impossible length.
    pub fn get_len(&mut self) -> Result<usize, DecodeError> {
        let start = self.pos;
        let len = self.get_u64()?;
        if len > self.remaining() as u64 {
            return Err(DecodeError::Invalid {
                offset: start,
                what: "sequence length beyond input",
            });
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let len = self.get_len()?;
        let start = self.pos;
        let bytes = self.get_raw(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| DecodeError::Invalid {
                offset: start,
                what: "UTF-8 string",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_u64(values: &[u64]) {
        let mut enc = Encoder::new();
        for &v in values {
            enc.put_u64(v);
        }
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        for &v in values {
            assert_eq!(dec.get_u64().unwrap(), v);
        }
        assert!(dec.expect_end().is_ok());
    }

    #[test]
    fn varint_u64_round_trips_boundary_values() {
        round_trip_u64(&[
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ]);
    }

    #[test]
    fn varint_u128_round_trips_boundary_values() {
        let values = [
            0u128,
            1,
            127,
            128,
            u64::MAX as u128,
            u128::MAX - 1,
            u128::MAX,
        ];
        let mut enc = Encoder::new();
        for &v in &values {
            enc.put_u128(v);
        }
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        for &v in &values {
            assert_eq!(dec.get_u128().unwrap(), v);
        }
    }

    #[test]
    fn small_values_encode_compactly() {
        let mut enc = Encoder::new();
        enc.put_u64(0);
        enc.put_u64(127);
        assert_eq!(enc.len(), 2, "sub-128 values are single bytes");
        enc.put_u64(u64::MAX);
        assert_eq!(enc.len(), 12, "u64::MAX is the 10-byte worst case");
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::MAX, 0.1 + 0.2] {
            let mut enc = Encoder::new();
            enc.put_f64(v);
            let bytes = enc.finish();
            let got = Decoder::new(&bytes).get_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn strings_times_and_bools_round_trip() {
        let mut enc = Encoder::new();
        enc.put_str("chan0-onfi");
        enc.put_str("");
        enc.put_time(SimTime::from_ns(1234));
        enc.put_bool(true);
        enc.put_bool(false);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_str().unwrap(), "chan0-onfi");
        assert_eq!(dec.get_str().unwrap(), "");
        assert_eq!(dec.get_time().unwrap(), SimTime::from_ns(1234));
        assert!(dec.get_bool().unwrap());
        assert!(!dec.get_bool().unwrap());
        assert!(dec.expect_end().is_ok());
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut enc = Encoder::new();
        enc.put_u64(1 << 40);
        enc.put_f64(2.5);
        enc.put_str("hello");
        let bytes = enc.finish();
        // Every prefix of a valid encoding must decode to Err, not panic.
        for cut in 0..bytes.len() {
            let mut dec = Decoder::new(&bytes[..cut]);
            let mut ok = true;
            ok = ok && dec.get_u64().is_ok();
            ok = ok && dec.get_f64().is_ok();
            ok = ok && dec.get_str().is_ok();
            assert!(!ok, "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn overlong_varints_are_rejected() {
        // 11 continuation bytes: wider than any u64.
        let bytes = [0xFFu8; 11];
        assert_eq!(
            Decoder::new(&bytes).get_u64(),
            Err(DecodeError::Invalid {
                offset: 0,
                what: "varint wider than u64",
            })
        );
        // A 10-byte varint whose final byte carries bits above bit 63.
        let mut high = [0x80u8; 10];
        high[9] = 0x02;
        assert!(Decoder::new(&high).get_u64().is_err());
        // u32 read rejects values that only fit u64.
        let mut enc = Encoder::new();
        enc.put_u64(u64::from(u32::MAX) + 1);
        let bytes = enc.finish();
        assert!(Decoder::new(&bytes).get_u32().is_err());
    }

    #[test]
    fn hostile_length_prefixes_fail_before_allocating() {
        // A length prefix claiming 2^50 elements with 3 bytes of input.
        let mut enc = Encoder::new();
        enc.put_u64(1 << 50);
        let bytes = enc.finish();
        let err = Decoder::new(&bytes).get_len().unwrap_err();
        assert!(matches!(err, DecodeError::Invalid { .. }));
        // get_str goes through the same guard.
        assert!(Decoder::new(&bytes).get_str().is_err());
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut enc = Encoder::new();
        enc.put_u64(7);
        enc.put_u8(0);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u64().unwrap(), 7);
        assert!(dec.expect_end().is_err());
        assert_eq!(dec.get_u8().unwrap(), 0);
        assert!(dec.expect_end().is_ok());
    }

    #[test]
    fn invalid_bool_and_utf8_are_rejected() {
        assert!(Decoder::new(&[2]).get_bool().is_err());
        let mut enc = Encoder::new();
        enc.put_len(2);
        enc.put_raw(&[0xFF, 0xFE]);
        let bytes = enc.finish();
        assert!(Decoder::new(&bytes).get_str().is_err());
    }

    #[test]
    fn decode_errors_render_offsets() {
        let e = DecodeError::UnexpectedEnd { offset: 12 };
        assert_eq!(e.to_string(), "input ended unexpectedly at byte 12");
        let e = DecodeError::Invalid {
            offset: 3,
            what: "boolean",
        };
        assert_eq!(e.to_string(), "invalid boolean at byte 3");
    }
}
