//! Length-prefixed framing over a byte stream.
//!
//! A frame is a LEB128 varint payload length followed by that many payload
//! bytes (the message encodings of [`crate::proto`]). The varint is read
//! byte-at-a-time so a reader never trusts a length it has not bounded:
//! a declared length above the configured cap fails *before* any payload
//! allocation, which is what keeps a hostile 100 MB length prefix from
//! costing more than ten bytes of reading.
//!
//! End-of-stream is only legal between frames: EOF on the first length
//! byte yields `Ok(None)` (clean close), EOF anywhere later is an error
//! (mid-frame disconnect).
//!
//! A frame goes out in a single `write`: a length prefix sent on its own
//! is a small segment that Nagle's algorithm holds back until the peer's
//! delayed ACK (tens of milliseconds) on a socket without `TCP_NODELAY`.

use std::io::{self, Read, Write};

/// Default cap on a frame's payload length, in bytes.
///
/// Large enough for any snapshot image or report the platform produces
/// today (small-config images are tens of KiB), small enough that a
/// hostile length prefix cannot balloon server memory.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Writes one frame (varint length + payload) to `w` in one `write_all`
/// of a contiguous buffer.
///
/// # Errors
///
/// Propagates any I/O error from the underlying writer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 10);
    let mut len = payload.len() as u64;
    while len >= 0x80 {
        frame.push((len & 0x7f) as u8 | 0x80);
        len >>= 7;
    }
    frame.push(len as u8);
    frame.extend_from_slice(payload);
    w.write_all(&frame)
}

/// Reads one frame payload from `r`, enforcing `max_len`.
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF before the first
/// length byte).
///
/// # Errors
///
/// * [`io::ErrorKind::InvalidData`] — the length varint is overlong, or
///   declares a payload larger than `max_len`;
/// * [`io::ErrorKind::UnexpectedEof`] — the stream ended mid-frame;
/// * any other I/O error from the underlying reader.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len: u64 = 0;
    let mut shift = 0u32;
    let mut first = true;
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if first && e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        first = false;
        let b = byte[0];
        if shift >= 63 && b > 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame length varint overflows u64",
            ));
        }
        len |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 63 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame length varint is overlong",
            ));
        }
    }
    if len > max_len as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} B exceeds the {max_len} B cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_payloads_of_every_size_class() {
        for len in [0usize, 1, 127, 128, 300, 70_000] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut buf = Vec::new();
            write_frame(&mut buf, &payload).unwrap();
            let mut cur = Cursor::new(buf);
            assert_eq!(
                read_frame(&mut cur, MAX_FRAME_BYTES).unwrap().unwrap(),
                payload
            );
            assert!(read_frame(&mut cur, MAX_FRAME_BYTES).unwrap().is_none());
        }
    }

    /// A writer that accepts everything and counts its `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_written_in_exactly_one_write_call() {
        for len in [0usize, 1, 127, 128, 70_000] {
            let payload = vec![7u8; len];
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, 1, "a {len}-byte frame took {} writes", w.writes);
            let mut cur = Cursor::new(w.bytes);
            assert_eq!(
                read_frame(&mut cur, MAX_FRAME_BYTES).unwrap().unwrap(),
                payload
            );
        }
    }

    #[test]
    fn clean_eof_between_frames_is_none() {
        let mut cur = Cursor::new(Vec::new());
        assert!(read_frame(&mut cur, MAX_FRAME_BYTES).unwrap().is_none());
    }

    #[test]
    fn eof_inside_length_or_payload_is_an_error() {
        // Length varint cut off after a continuation byte.
        let mut cur = Cursor::new(vec![0x80]);
        assert_eq!(
            read_frame(&mut cur, MAX_FRAME_BYTES).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Payload shorter than declared.
        let mut cur = Cursor::new(vec![5, 1, 2]);
        assert_eq!(
            read_frame(&mut cur, MAX_FRAME_BYTES).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_declared_length_fails_before_allocation() {
        // 100 MB declared against a 1 KiB cap.
        let mut buf = Vec::new();
        write_frame(&mut buf, &[]).unwrap();
        buf.clear();
        let mut len = 100_000_000u64;
        while len >= 0x80 {
            buf.push((len & 0x7f) as u8 | 0x80);
            len >>= 7;
        }
        buf.push(len as u8);
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cur, 1024).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn overlong_length_varint_is_rejected() {
        let mut cur = Cursor::new(vec![0x80u8; 11]);
        assert_eq!(
            read_frame(&mut cur, MAX_FRAME_BYTES).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
