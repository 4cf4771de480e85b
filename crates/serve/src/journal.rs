//! The crash-safe job journal: which jobs this daemon has accepted, in a
//! plain-text file with the same integrity discipline as campaign
//! snapshots (atomic tmp+rename writes, a fingerprint binding the file to
//! one daemon identity, an FNV-1a 64 checksum over the body, and
//! quarantine-never-trust on any validation failure).
//!
//! # Format
//!
//! ```text
//! STEM-SERVE-JOURNAL v2
//! fingerprint 6b1c3f...
//! job <id> <tenant> <suite> <suite_seed> <workload_index> <reps> <seed> <deadline_ms|-> <sampler>
//! checksum 9d41a2...
//! ```
//!
//! The header, fingerprint and checksum lines are the shared envelope of
//! [`stem_storage::record`]. A `job` line has exactly 9 fields; a journal
//! of any other version (`v1` included) is quarantined as
//! [`SnapshotError::VersionMismatch`], never half-read.
//!
//! The journal records job *specs*, never results: a job's completed
//! units live in its own campaign snapshot (`job-<id>.snap` next to the
//! journal), and results are recomputed bit-identically from there on
//! restart via `Pipeline::resume_from`. Keeping results out of the
//! journal means a torn write can only ever cost queued work, not
//! correctness.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::job::{JobSpec, SuiteId};
use stem_core::SnapshotError;
use stem_storage::{record, Storage};

/// The exact header this version writes and accepts.
pub(crate) const HEADER: &str = "STEM-SERVE-JOURNAL v2";

/// Serializes the journal body and seals it with its checksum line.
pub(crate) fn serialize_journal(fingerprint: u64, jobs: &BTreeMap<u64, JobSpec>) -> String {
    let mut body = String::new();
    for (id, spec) in jobs {
        let deadline = match spec.deadline_ms {
            Some(ms) => ms.to_string(),
            None => "-".to_string(),
        };
        let _ = writeln!(
            body,
            "job {id} {} {} {} {} {} {} {deadline} {}",
            spec.tenant,
            spec.suite.as_str(),
            spec.suite_seed,
            spec.workload_index,
            spec.reps,
            spec.seed,
            spec.sampler,
        );
    }
    record::seal(HEADER, fingerprint, &body)
}

/// Parses one `job` line's payload (everything after the keyword).
fn parse_job_fields(rest: &str, line: usize) -> Result<(u64, JobSpec), SnapshotError> {
    let malformed = |message: String| SnapshotError::Malformed { line, message };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    if fields.len() != 9 {
        return Err(malformed(format!("expected 9 job fields, got {}", fields.len())));
    }
    let num = |s: &str, what: &str| -> Result<u64, SnapshotError> {
        s.parse().map_err(|_| malformed(format!("bad {what} {s:?}")))
    };
    let id = num(fields[0], "job id")?;
    let suite = SuiteId::parse(fields[2])
        .ok_or_else(|| malformed(format!("unknown suite {:?}", fields[2])))?;
    let reps = u32::try_from(num(fields[5], "rep count")?)
        .map_err(|_| malformed(format!("rep count {} too large", fields[5])))?;
    let deadline_ms = if fields[7] == "-" {
        None
    } else {
        Some(num(fields[7], "deadline")?)
    };
    let spec = JobSpec {
        tenant: fields[1].to_string(),
        suite,
        suite_seed: num(fields[3], "suite seed")?,
        workload_index: num(fields[4], "workload index")? as usize,
        reps,
        seed: num(fields[6], "seed")?,
        deadline_ms,
        sampler: fields[8].to_string(),
    };
    spec.validate()
        .map_err(|e| malformed(format!("invalid job spec: {e}")))?;
    Ok((id, spec))
}

/// Parses and integrity-checks a journal (header, version, checksum,
/// grammar — see [`stem_storage::record`]). Returns the recorded
/// fingerprint and the job map.
///
/// # Errors
///
/// The [`SnapshotError`] naming the first check the text fails.
pub fn parse_journal(text: &str) -> Result<(u64, BTreeMap<u64, JobSpec>), SnapshotError> {
    let mut jobs = BTreeMap::new();
    let fingerprint = record::open(text, HEADER, |lineno, line| {
        let Some(rest) = line.strip_prefix("job ") else {
            return Err(SnapshotError::Malformed {
                line: lineno,
                message: format!("unrecognized line {line:?}"),
            });
        };
        let (id, spec) = parse_job_fields(rest, lineno)?;
        if jobs.insert(id, spec).is_some() {
            return Err(SnapshotError::Malformed {
                line: lineno,
                message: format!("duplicate job {id}"),
            });
        }
        Ok(())
    })?;
    Ok((fingerprint, jobs))
}

/// Atomically replaces the journal under the durability discipline of
/// [`stem_storage::write_atomic`]: tmp write → tmp fsync → `rename` →
/// best-effort parent-dir fsync, so a kill at any instant leaves either
/// the previous journal or the new one, never a torn file.
pub(crate) fn write_journal_atomic(
    storage: &dyn Storage,
    path: &Path,
    text: &str,
) -> Result<(), SnapshotError> {
    stem_storage::write_atomic(storage, path, text).map_err(SnapshotError::Io)
}

/// A journal that failed validation and was set aside, never trusted.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedJournal {
    /// Where the rejected file was moved — the first free
    /// `<journal>.quarantined[.N]` name, so repeated corruption never
    /// overwrites earlier evidence.
    pub path: PathBuf,
    /// Why it was rejected.
    pub reason: SnapshotError,
}

/// Loads the journal at `path`, validating it against this daemon's
/// `fingerprint`. A missing file is an empty journal; a file failing any
/// check is renamed to the first free `<path>.quarantined[.N]` name and
/// reported, and the daemon starts with an empty job set (re-submitted
/// jobs still resume from their per-job snapshots — the journal never
/// holds results).
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] only when the file exists but cannot be
/// read or quarantined.
pub(crate) fn load_journal(
    storage: &dyn Storage,
    path: &Path,
    fingerprint: u64,
) -> Result<(BTreeMap<u64, JobSpec>, Option<QuarantinedJournal>), SnapshotError> {
    let text = match storage.read_to_string(path) {
        Err(e) if e.is_not_found() => return Ok((BTreeMap::new(), None)),
        Err(e) => return Err(SnapshotError::Io(e)),
        Ok(text) => text,
    };
    let verdict = parse_journal(&text).and_then(|(fp, jobs)| {
        if fp == fingerprint {
            Ok(jobs)
        } else {
            Err(SnapshotError::FingerprintMismatch)
        }
    });
    match verdict {
        Ok(jobs) => Ok((jobs, None)),
        Err(reason) => {
            let target = stem_storage::quarantine(storage, path).map_err(SnapshotError::Io)?;
            Ok((BTreeMap::new(), Some(QuarantinedJournal { path: target, reason })))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use stem_storage::{sibling, RealFs};

    fn spec(tenant: &str, idx: usize) -> JobSpec {
        JobSpec {
            tenant: tenant.to_string(),
            suite: SuiteId::Casio,
            suite_seed: 5,
            workload_index: idx,
            reps: 2,
            seed: 9,
            deadline_ms: if idx % 2 == 0 { Some(500) } else { None },
            sampler: if idx % 2 == 0 { "STEM" } else { "RSS" }.to_string(),
        }
    }

    fn jobs() -> BTreeMap<u64, JobSpec> {
        let mut m = BTreeMap::new();
        m.insert(0, spec("alice", 0));
        m.insert(2, spec("bob", 1));
        m
    }

    #[test]
    fn journal_round_trips() {
        let text = serialize_journal(0xfeed, &jobs());
        let (fp, parsed) = parse_journal(&text).expect("round trip");
        assert_eq!(fp, 0xfeed);
        assert_eq!(parsed, jobs());
    }

    #[test]
    fn job_lines_take_exactly_nine_fields() {
        // Checksum-valid bodies whose job line is one field short (the
        // retired pre-sampler shape) or one long are grammar errors.
        for line in ["job 0 alice casio 5 0 2 9 -", "job 0 alice casio 5 0 2 9 - STEM x"] {
            let text = record::seal(HEADER, 3, &format!("{line}\n"));
            assert!(
                matches!(parse_journal(&text), Err(SnapshotError::Malformed { line: 3, .. })),
                "{line:?}"
            );
        }
        let v1 = serialize_journal(3, &jobs()).replacen("v2", "v1", 1);
        assert!(matches!(parse_journal(&v1), Err(SnapshotError::VersionMismatch { .. })));
    }

    #[test]
    fn damage_is_rejected() {
        let text = serialize_journal(1, &jobs());
        let cut = &text[..text.len() / 2];
        assert!(matches!(parse_journal(cut), Err(SnapshotError::ChecksumMismatch)));
        let stale = text.replacen("v2", "v999", 1);
        assert!(matches!(
            parse_journal(&stale),
            Err(SnapshotError::VersionMismatch { .. })
        ));
        let mut bytes = text.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'0' { b'1' } else { b'0' };
        let flipped = String::from_utf8(bytes).expect("ascii");
        assert!(parse_journal(&flipped).is_err());
        assert!(matches!(parse_journal(""), Err(SnapshotError::MissingHeader)));
    }

    #[test]
    fn load_quarantines_corruption_and_foreign_fingerprints() {
        let dir = std::env::temp_dir().join("stem-serve-journal-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("serve.journal");
        let storage = RealFs;

        // Missing file: empty journal, nothing quarantined.
        let (empty, q) = load_journal(&storage, &path, 7).expect("missing ok");
        assert!(empty.is_empty() && q.is_none());

        // Valid file, matching fingerprint.
        write_journal_atomic(&storage, &path, &serialize_journal(7, &jobs())).expect("write");
        assert!(!sibling(&path, ".tmp").exists(), "tmp must be renamed away");
        let (loaded, q) = load_journal(&storage, &path, 7).expect("load");
        assert_eq!(loaded, jobs());
        assert!(q.is_none());

        // Foreign fingerprint: quarantined, empty start.
        let (loaded, q) = load_journal(&storage, &path, 8).expect("load");
        assert!(loaded.is_empty());
        let q = q.expect("quarantined");
        assert_eq!(q.reason, SnapshotError::FingerprintMismatch);
        assert!(q.path.exists());
        assert!(!path.exists());
        assert!(q.path.to_string_lossy().ends_with(".quarantined"));

        // Corrupt bytes: quarantined too — to a uniquified name, so the
        // first piece of evidence is never overwritten.
        fs::write(&path, "STEM-SERVE-JOURNAL v2\ngarbage\n").expect("write");
        let (loaded, q2) = load_journal(&storage, &path, 7).expect("load");
        assert!(loaded.is_empty());
        let q2 = q2.expect("quarantined");
        assert!(q2.path.to_string_lossy().ends_with(".quarantined.1"), "{:?}", q2.path);
        assert!(q.path.exists() && q2.path.exists(), "both evidence files retained");
        let _ = fs::remove_dir_all(&dir);
    }
}
