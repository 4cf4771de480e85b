//! The checksummed-text envelope every durable record shares: campaign
//! snapshots and the serve journal.
//!
//! ```text
//! <FAMILY> v<N>                 ; exact header, version included
//! fingerprint <hex16>           ; binds the record to one identity
//! <record lines>                ; the format's own grammar
//! checksum <hex16>              ; FNV-1a 64 over every byte above
//! ```
//!
//! [`seal`] frames a body with the header, fingerprint and checksum
//! lines. [`open`] verifies the header, the version and the checksum
//! *before any line is trusted*,
//! then walks the body: line 2 must be the one `fingerprint` line, and
//! every later line goes to the caller's grammar. A second `fingerprint`
//! line is [`SnapshotError::Malformed`], never a silent overwrite.

use crate::StorageError;

/// FNV-1a 64 — the workspace's std-only integrity hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a durable record was rejected (and quarantined) or could not be
/// read or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Storage failure, with the operation and path that failed (the
    /// underlying `io::Error` is not `Clone`, so [`StorageError`] keeps
    /// its kind and text instead).
    Io(StorageError),
    /// The file does not start with the record's header.
    MissingHeader,
    /// The header names a version this build does not understand.
    VersionMismatch {
        /// The header line as found.
        found: String,
    },
    /// The record belongs to a different identity (campaign or daemon).
    FingerprintMismatch,
    /// The body does not hash to the recorded checksum.
    ChecksumMismatch,
    /// A line violates the record grammar.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::MissingHeader => f.write_str("missing snapshot header"),
            SnapshotError::VersionMismatch { found } => {
                write!(f, "unsupported snapshot version: {found:?}")
            }
            SnapshotError::FingerprintMismatch => {
                f.write_str("snapshot belongs to a different campaign")
            }
            SnapshotError::ChecksumMismatch => f.write_str("snapshot checksum mismatch"),
            SnapshotError::Malformed { line, message } => {
                write!(f, "malformed snapshot at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for SnapshotError {
    fn from(e: StorageError) -> Self {
        SnapshotError::Io(e)
    }
}

/// The line that seals `body`.
fn checksum_line(body: &str) -> String {
    format!("checksum {:016x}", fnv1a64(body.as_bytes()))
}

/// Seals a record: `header`, the `fingerprint` line, then `body` (whole
/// newline-terminated lines), followed by the checksum over all of it.
pub fn seal(header: &str, fingerprint: u64, body: &str) -> String {
    let mut text = format!("{header}\nfingerprint {fingerprint:016x}\n{body}");
    let checksum = checksum_line(&text);
    text.push_str(&checksum);
    text.push('\n');
    text
}

/// Verifies a sealed record and walks its body. `header` is the exact
/// header this build accepts (`<FAMILY> v<N>`); a header of the same
/// family with another version is [`SnapshotError::VersionMismatch`].
/// `line` receives each record line after the fingerprint with its
/// 1-based line number. Returns the recorded fingerprint.
///
/// # Errors
///
/// [`SnapshotError::MissingHeader`], [`SnapshotError::VersionMismatch`]
/// or [`SnapshotError::ChecksumMismatch`] before any line is read;
/// [`SnapshotError::Malformed`] for a missing or repeated fingerprint
/// line; and whatever `line` returns.
pub fn open(
    text: &str,
    header: &str,
    mut line: impl FnMut(usize, &str) -> Result<(), SnapshotError>,
) -> Result<u64, SnapshotError> {
    let found = text.lines().next().unwrap_or("");
    if found != header {
        let family = header.split_once(' ').map_or(header, |(family, _)| family);
        if found.starts_with(family) {
            return Err(SnapshotError::VersionMismatch {
                found: found.to_string(),
            });
        }
        return Err(SnapshotError::MissingHeader);
    }

    // The last line must be exactly the checksum of everything above it.
    let sealed = text
        .strip_suffix('\n')
        .ok_or(SnapshotError::ChecksumMismatch)?;
    let body_len = sealed.rfind('\n').ok_or(SnapshotError::ChecksumMismatch)? + 1;
    let body = &text[..body_len];
    if sealed[body_len..] != checksum_line(body) {
        return Err(SnapshotError::ChecksumMismatch);
    }

    let mut lines = body.lines().enumerate().skip(1).map(|(i, l)| (i + 1, l));
    let missing = || SnapshotError::Malformed {
        line: 2,
        message: "missing fingerprint line".to_string(),
    };
    let (_, first) = lines.next().ok_or_else(missing)?;
    let raw = first.strip_prefix("fingerprint ").ok_or_else(missing)?;
    let fingerprint = u64::from_str_radix(raw, 16).map_err(|_| SnapshotError::Malformed {
        line: 2,
        message: format!("bad fingerprint {raw:?}"),
    })?;
    for (lineno, text) in lines {
        if text.starts_with("fingerprint ") {
            return Err(SnapshotError::Malformed {
                line: lineno,
                message: "duplicate fingerprint line".to_string(),
            });
        }
        line(lineno, text)?;
    }
    Ok(fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "STEM-TEST-RECORD v3";

    fn open_all(text: &str) -> Result<(u64, Vec<(usize, String)>), SnapshotError> {
        let mut seen = Vec::new();
        let fp = open(text, HEADER, |n, l| {
            seen.push((n, l.to_string()));
            Ok(())
        })?;
        Ok((fp, seen))
    }

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn sealed_records_open_with_their_lines_numbered() {
        let text = seal(HEADER, 0xfeed, "a 1\nb 2\n");
        let (fp, lines) = open_all(&text).expect("round trip");
        assert_eq!(fp, 0xfeed);
        assert_eq!(lines, vec![(3, "a 1".to_string()), (4, "b 2".to_string())]);
        let (_, none) = open_all(&seal(HEADER, 1, "")).expect("empty body");
        assert!(none.is_empty());
    }

    #[test]
    fn header_version_and_checksum_are_checked_before_any_line() {
        let text = seal(HEADER, 7, "x\n");
        assert_eq!(open_all(""), Err(SnapshotError::MissingHeader));
        assert_eq!(open_all("garbage\n"), Err(SnapshotError::MissingHeader));
        assert!(matches!(
            open_all(&text.replacen("v3", "v4", 1)),
            Err(SnapshotError::VersionMismatch { .. })
        ));
        assert_eq!(
            open_all(&text[..text.len() - 1]),
            Err(SnapshotError::ChecksumMismatch)
        );
        assert_eq!(
            open_all(&text.replace("checksum ", "checksum  ")),
            Err(SnapshotError::ChecksumMismatch)
        );
        // The checksum is exactly what `seal` writes: lowercase hex.
        let (body, tail) = text.split_at(text.len() - "checksum 0123456789abcdef\n".len());
        let hex = &tail["checksum ".len()..tail.len() - 1];
        assert!(hex.bytes().any(|b| b.is_ascii_alphabetic()), "{hex}");
        let shouted = format!("{body}checksum {}\n", hex.to_ascii_uppercase());
        assert_eq!(open_all(&shouted), Err(SnapshotError::ChecksumMismatch));
        let rejected = open(&text, HEADER, |_, _| {
            Err(SnapshotError::Malformed {
                line: 0,
                message: "caller".to_string(),
            })
        });
        assert!(matches!(
            rejected,
            Err(SnapshotError::Malformed { line: 0, .. })
        ));
    }

    #[test]
    fn fingerprint_line_is_required_once_at_line_two() {
        // Bodies sealed by hand: checksum-valid, grammatically wrong.
        let reseal = |body: &str| format!("{body}{}\n", checksum_line(body));
        let dup = reseal(&format!("{HEADER}\nfingerprint 01\nfingerprint 02\n"));
        assert_eq!(
            open_all(&dup),
            Err(SnapshotError::Malformed {
                line: 3,
                message: "duplicate fingerprint line".to_string()
            })
        );
        let late = reseal(&format!("{HEADER}\nx\nfingerprint 01\n"));
        assert!(matches!(
            open_all(&late),
            Err(SnapshotError::Malformed { line: 2, .. })
        ));
        let bad = reseal(&format!("{HEADER}\nfingerprint zz\n"));
        assert!(matches!(
            open_all(&bad),
            Err(SnapshotError::Malformed { line: 2, .. })
        ));
        let bare = reseal(&format!("{HEADER}\n"));
        assert!(matches!(
            open_all(&bare),
            Err(SnapshotError::Malformed { line: 2, .. })
        ));
    }
}
