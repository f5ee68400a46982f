//! Framed message transport: length-prefixed, checksummed JSON over any
//! byte stream.
//!
//! A frame is
//!
//! ```text
//! +------+------+----------------+------------------------+---------...
//! | 0xF7 | 0x4B |  len: u32 BE   |  fnv1a(payload): u64 BE | payload
//! +------+------+----------------+------------------------+---------...
//! ```
//!
//! — the same FNV-1a the crash-consistent shard reports carry as a footer
//! ([`fliptracker::integrity`]), so a report that round-trips a socket and
//! one that round-trips a disk are protected by one implementation.  The
//! magic bytes catch desynchronized or non-protocol peers before a bogus
//! length is trusted; the length cap ([`MAX_FRAME`]) bounds what a single
//! frame can make the server allocate; the checksum catches truncation and
//! corruption that still parses as JSON.
//!
//! Every failure mode is a typed [`ProtocolError`] — the serve crate has no
//! `Result<_, String>` anywhere, matching the `ShardError` precedent.

use std::io::{self, Read, Write};

use fliptracker::integrity::fnv1a;
use serde::{Deserialize, Serialize};

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = [0xF7, 0x4B];

/// Upper bound on a frame's payload length; larger frames are refused
/// before allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Why reading or writing a frame failed.
#[derive(Debug)]
pub enum ProtocolError {
    /// The peer closed the connection between frames (a clean end).
    Eof,
    /// No frame arrived within the stream's read timeout (idle tick; the
    /// connection handler decides when idleness becomes a disconnect).
    TimedOut,
    /// The frame did not open with [`MAGIC`] — a desynchronized or
    /// non-protocol peer.
    BadMagic {
        /// The two bytes received instead.
        got: [u8; 2],
    },
    /// The declared payload length exceeds [`MAX_FRAME`].
    Oversized {
        /// The declared length.
        len: u32,
    },
    /// The payload bytes do not hash to the declared checksum.
    ChecksumMismatch {
        /// The checksum the frame declared.
        want: u64,
        /// The checksum of the bytes that arrived.
        got: u64,
    },
    /// The payload is not valid JSON for the expected message type.
    BadJson(serde_json::Error),
    /// The underlying stream failed.
    Io(io::Error),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Eof => write!(f, "peer closed the connection"),
            ProtocolError::TimedOut => write!(f, "no frame within the read timeout"),
            ProtocolError::BadMagic { got } => write!(
                f,
                "bad frame magic {:02x}{:02x} (want {:02x}{:02x})",
                got[0], got[1], MAGIC[0], MAGIC[1]
            ),
            ProtocolError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            ProtocolError::ChecksumMismatch { want, got } => write!(
                f,
                "frame checksum mismatch: declared {want:016x}, computed {got:016x}"
            ),
            ProtocolError::BadJson(e) => write!(f, "frame payload is not the expected JSON: {e}"),
            ProtocolError::Io(e) => write!(f, "stream failure: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::BadJson(e) => Some(e),
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// True for the error kinds a read timeout surfaces as (`WouldBlock` on
/// Unix, `TimedOut` elsewhere).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Fill `buf` from the stream, looping over interrupts and — once the first
/// byte of the frame has been consumed (`committed`) — over read timeouts,
/// bounded so a peer that stalls forever mid-frame cannot pin the handler.
fn read_full(r: &mut impl Read, buf: &mut [u8], mut committed: bool) -> Result<(), ProtocolError> {
    let mut filled = 0;
    let mut stalls = 0u32;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if committed {
                    ProtocolError::Io(io::ErrorKind::UnexpectedEof.into())
                } else {
                    ProtocolError::Eof
                })
            }
            Ok(n) => {
                filled += n;
                committed = true;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && !committed => return Err(ProtocolError::TimedOut),
            Err(e) if is_timeout(&e) => {
                // Mid-frame stall: tolerate a bounded number of timeout
                // ticks (the peer may legitimately be slow), then give up.
                stalls += 1;
                if stalls > 240 {
                    return Err(ProtocolError::Io(e));
                }
            }
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame and return its verified payload bytes.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtocolError> {
    let mut magic = [0u8; 2];
    read_full(r, &mut magic, false)?;
    if magic != MAGIC {
        return Err(ProtocolError::BadMagic { got: magic });
    }
    let mut header = [0u8; 12];
    read_full(r, &mut header, true)?;
    let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes"));
    let want = u64::from_be_bytes(header[4..].try_into().expect("8 bytes"));
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload, true)?;
    let got = fnv1a(&payload);
    if got != want {
        return Err(ProtocolError::ChecksumMismatch { want, got });
    }
    Ok(payload)
}

/// Frame and write a payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    if payload.len() as u64 > u64::from(MAX_FRAME) {
        return Err(ProtocolError::Oversized {
            len: payload.len().min(u32::MAX as usize) as u32,
        });
    }
    w.write_all(&MAGIC)?;
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(&fnv1a(payload).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Serialize a message and send it as one frame.
pub fn send<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), ProtocolError> {
    let payload = serde_json::to_string(msg).map_err(ProtocolError::BadJson)?;
    write_frame(w, payload.as_bytes())
}

/// Receive one frame and parse it as a message.
pub fn recv<T: for<'de> Deserialize<'de>>(r: &mut impl Read) -> Result<T, ProtocolError> {
    let payload = read_frame(r)?;
    let text = String::from_utf8(payload).map_err(|e| {
        ProtocolError::Io(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    })?;
    serde_json::from_str(&text).map_err(ProtocolError::BadJson)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"x\": 1}").unwrap();
        let payload = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(payload, b"{\"x\": 1}");
    }

    #[test]
    fn a_clean_close_is_eof_and_a_torn_frame_is_not() {
        assert!(matches!(
            read_frame(&mut (&[] as &[u8])),
            Err(ProtocolError::Eof)
        ));
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::Io(_))
        ));
    }

    #[test]
    fn garbage_oversize_and_corruption_are_typed() {
        assert!(matches!(
            read_frame(&mut (&b"GET / HTTP/1.1\r\n"[..])),
            Err(ProtocolError::BadMagic { .. })
        ));

        let mut oversized = Vec::new();
        oversized.extend_from_slice(&MAGIC);
        oversized.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        oversized.extend_from_slice(&0u64.to_be_bytes());
        assert!(matches!(
            read_frame(&mut oversized.as_slice()),
            Err(ProtocolError::Oversized { .. })
        ));

        let mut corrupt = Vec::new();
        write_frame(&mut corrupt, b"hello fault").unwrap();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        let err = read_frame(&mut corrupt.as_slice()).unwrap_err();
        assert!(
            matches!(err, ProtocolError::ChecksumMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("checksum mismatch"));
    }
}
