//! Shared integrity primitives: FNV-1a checksums, checksum-framed payloads,
//! bounded deterministic retry, and crash-consistent (atomic temp-file +
//! rename) writes.
//!
//! Two subsystems persist or transmit campaign artifacts and must agree on
//! one integrity story: the crash-consistent shard manifests
//! (`ftkr_bench::shard`) and the `ftkr_serve` wire protocol.  Both frame
//! their payloads with the same [`fnv1a`] checksum and absorb transient
//! failures with the same [`with_retry`] loop, so a report that round-trips
//! a disk and a report that round-trips a socket are protected by literally
//! the same code path.
//!
//! Everything here is dependency-free and deterministic: no wall clock (the
//! retry backoff spins), no randomness, no platform-specific syscalls beyond
//! `std::fs` — chaos schedules and tests replay identically everywhere.

use std::io;
use std::path::Path;

use ftkr_inject::{FailPlan, FailSite};

/// The footer line prefix that frames a persisted payload's checksum.
pub const CHECKSUM_PREFIX: &str = "#ftkr-checksum:";

/// Attempts the bounded retry loop makes before giving up on an I/O
/// operation.
pub const IO_RETRIES: u32 = 4;

/// FNV-1a over the payload bytes — cheap, dependency-free, and plenty to
/// catch torn writes, bit rot, and truncated socket frames (this is an
/// integrity check, not crypto).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Frame a payload with its checksum footer (the exact bytes
/// [`write_report`] persists).
pub fn with_checksum(payload: &str) -> String {
    format!(
        "{payload}\n{CHECKSUM_PREFIX}{:016x}\n",
        fnv1a(payload.as_bytes())
    )
}

/// Verify a framed payload and return it, or `None` when the footer is
/// missing, malformed, or does not match the payload bytes.
pub fn verify_checksum(text: &str) -> Option<&str> {
    let body = text.strip_suffix('\n').unwrap_or(text);
    let (payload, footer) = body.rsplit_once('\n')?;
    let hex = footer.strip_prefix(CHECKSUM_PREFIX)?;
    let want = u64::from_str_radix(hex, 16).ok()?;
    (fnv1a(payload.as_bytes()) == want).then_some(payload)
}

/// Run an I/O operation up to [`IO_RETRIES`] times with deterministic spin
/// backoff between attempts (no wall clock: chaos schedules and tests must
/// replay identically).  Returns the last error if every attempt fails.
pub fn with_retry<T>(mut op: impl FnMut(u32) -> io::Result<T>) -> io::Result<T> {
    let mut last: Option<io::Error> = None;
    for attempt in 0..IO_RETRIES {
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(e) => {
                last = Some(e);
                for _ in 0..(64u64 << attempt.min(10)) {
                    std::hint::spin_loop();
                }
            }
        }
    }
    Err(last.expect("IO_RETRIES > 0"))
}

/// Write `payload` to `path` crash-consistently: checksum footer appended,
/// bytes written to a temp file in the same directory, temp file atomically
/// renamed over the destination.  A crash between any two steps leaves
/// either the previous intact file or a stray `.tmp` — never a torn report.
pub fn write_report(path: &Path, payload: &str) -> io::Result<()> {
    write_report_chaos(path, payload, FailPlan::none(), 0)
}

/// [`write_report`] with a fail-point schedule armed, keyed by `ordinal`
/// (shard index, typically):
///
/// * [`FailSite::TransientIo`] makes individual write attempts fail — the
///   retry loop absorbs them unless the rate starves all [`IO_RETRIES`];
/// * [`FailSite::ReportWrite`] simulates the process dying after the temp
///   file is written but before the rename: the destination is untouched
///   and the stray `.tmp` is left behind, exactly like a real crash;
/// * [`FailSite::ReportCorrupt`] flips a payload byte *after* a successful
///   rename, simulating silent on-disk corruption for the checksum to catch.
pub fn write_report_chaos(
    path: &Path,
    payload: &str,
    chaos: FailPlan,
    ordinal: u64,
) -> io::Result<()> {
    let framed = with_checksum(payload);
    let tmp = path.with_extension("json.tmp");
    with_retry(|attempt| {
        if chaos.fires(
            FailSite::TransientIo,
            ordinal
                .wrapping_mul(IO_RETRIES as u64)
                .wrapping_add(attempt as u64),
        ) {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "chaos: transient I/O failure",
            ));
        }
        std::fs::write(&tmp, framed.as_bytes())
    })?;
    if chaos.fires(FailSite::ReportWrite, ordinal) {
        // The "process" dies between write and rename: leave the temp file
        // stranded and the destination untouched.
        return Err(io::Error::new(
            io::ErrorKind::Interrupted,
            "chaos: crashed before rename",
        ));
    }
    with_retry(|_| std::fs::rename(&tmp, path))?;
    if chaos.fires(FailSite::ReportCorrupt, ordinal) {
        let mut bytes = std::fs::read(path)?;
        let victim = bytes.len() / 3;
        bytes[victim] ^= 0x20;
        std::fs::write(path, &bytes)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn checksum_frames_round_trip_and_reject_mutation() {
        let payload = "{\"k\": [1, 2, 3]}";
        let framed = with_checksum(payload);
        assert_eq!(verify_checksum(&framed), Some(payload));
        assert_eq!(verify_checksum(&framed.replace('2', "9")), None);
        assert_eq!(verify_checksum(payload), None);
    }

    #[test]
    fn retry_returns_first_success_and_last_error() {
        let ok = with_retry(|attempt| {
            if attempt < 2 {
                Err(io::Error::other("flaky"))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(ok.unwrap(), 2);
        let err = with_retry::<()>(|attempt| Err(io::Error::other(format!("dead {attempt}"))));
        assert_eq!(
            err.unwrap_err().to_string(),
            format!("dead {}", IO_RETRIES - 1)
        );
    }
}
