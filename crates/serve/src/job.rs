//! Job model: what a tenant submits, and what the daemon knows about it.

use gpu_workload::suites::{casio_suite, huggingface_suite, rodinia_suite, HuggingfaceScale};
use gpu_workload::Workload;
use stem_core::StemError;

/// The HuggingFace suite is scaled down for service jobs so a single
/// `SUBMIT` stays interactive; the scale is part of the job identity
/// (fixed, never client-controlled), so results are reproducible.
const SERVE_HF_SCALE: f64 = 0.02;

/// Which built-in benchmark suite a job draws its workload from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteId {
    /// Synthetic Rodinia benchmarks.
    Rodinia,
    /// Synthetic CASIO benchmarks.
    Casio,
    /// Synthetic HuggingFace benchmarks (service-scaled).
    Huggingface,
}

impl SuiteId {
    /// Parses the protocol token (`rodinia` / `casio` / `huggingface`).
    pub fn parse(token: &str) -> Option<SuiteId> {
        match token {
            "rodinia" => Some(SuiteId::Rodinia),
            "casio" => Some(SuiteId::Casio),
            "huggingface" => Some(SuiteId::Huggingface),
            _ => None,
        }
    }

    /// The protocol token (also the journal serialization).
    pub fn as_str(&self) -> &'static str {
        match self {
            SuiteId::Rodinia => "rodinia",
            SuiteId::Casio => "casio",
            SuiteId::Huggingface => "huggingface",
        }
    }

    /// Materializes the suite deterministically from its seed.
    pub fn workloads(&self, seed: u64) -> Vec<Workload> {
        match self {
            SuiteId::Rodinia => rodinia_suite(seed),
            SuiteId::Casio => casio_suite(seed),
            SuiteId::Huggingface => {
                huggingface_suite(seed, HuggingfaceScale::custom(SERVE_HF_SCALE))
            }
        }
    }
}

/// One accepted unit of service work: a single-workload campaign. The
/// spec is pure data — everything needed to (re)materialize the campaign
/// after a daemon restart, which is exactly what the journal persists.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Owning tenant; `STATUS`/`RESULT`/`CANCEL` require a match.
    pub tenant: String,
    /// Which benchmark suite to draw from.
    pub suite: SuiteId,
    /// Seed the suite is materialized with.
    pub suite_seed: u64,
    /// Index of the workload within the suite.
    pub workload_index: usize,
    /// Campaign repetitions.
    pub reps: u32,
    /// Campaign base seed.
    pub seed: u64,
    /// Soft deadline per `(workload, rep)` unit, ms; a unit outliving it
    /// is flagged as a straggler in job status (never killed).
    pub deadline_ms: Option<u64>,
    /// Sampler to plan with, by `standard_registry` name (`STEM`, `RSS`,
    /// `TwoPhase`, `PKA`, ...). Part of the job identity: the journal
    /// persists it so a restarted daemon resumes the campaign under the
    /// same method.
    pub sampler: String,
}

/// True for tokens safe to embed in one-line plain-text records: tenant
/// ids and other fields the journal and protocol echo back verbatim.
pub(crate) fn valid_token(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
}

impl JobSpec {
    /// Structural validation: tenant token shape and a positive rep
    /// count. (The workload index is range-checked at materialization,
    /// where the suite length is known.)
    ///
    /// # Errors
    ///
    /// Returns [`StemError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), StemError> {
        if !valid_token(&self.tenant) {
            return Err(StemError::InvalidConfig(format!(
                "tenant must be 1-64 chars of [A-Za-z0-9._-], got {:?}",
                self.tenant
            )));
        }
        if self.reps == 0 {
            return Err(StemError::InvalidConfig(
                "at least one repetition required".to_string(),
            ));
        }
        if !valid_token(&self.sampler) {
            return Err(StemError::InvalidConfig(format!(
                "sampler must be 1-64 chars of [A-Za-z0-9._-], got {:?}",
                self.sampler
            )));
        }
        // Registry membership is checked at admission, where the sampler
        // registry lives; this validation is purely structural.
        Ok(())
    }

    /// Materializes the job's workload from its suite.
    ///
    /// # Errors
    ///
    /// Returns [`StemError::InvalidConfig`] if `workload_index` is out
    /// of range for the suite.
    pub fn workload(&self) -> Result<Workload, StemError> {
        let suite = self.suite.workloads(self.suite_seed);
        suite.into_iter().nth(self.workload_index).ok_or_else(|| {
            StemError::InvalidConfig(format!(
                "workload index {} out of range for suite {}",
                self.workload_index,
                self.suite.as_str()
            ))
        })
    }
}

/// Lifecycle of a job inside the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, waiting for a worker (also the phase a re-admitted
    /// journal job restarts in).
    Queued,
    /// A worker is computing units right now.
    Running,
    /// Complete; `RESULT` returns the payload.
    Done,
    /// Interrupted mid-campaign (simulated kill or daemon shutdown);
    /// completed units are in the snapshot, a restart resumes them.
    Interrupted,
    /// Cancelled by its tenant; never resumed.
    Cancelled,
    /// Failed past the job retry limit; the message says why.
    Failed,
}

impl JobPhase {
    /// The protocol token for `STATUS` lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Interrupted => "interrupted",
            JobPhase::Cancelled => "cancelled",
            JobPhase::Failed => "failed",
        }
    }

    /// True once the job can never run again (terminal phases).
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobPhase::Done | JobPhase::Cancelled | JobPhase::Failed)
    }
}

/// A point-in-time snapshot of one job, as reported by `STATUS`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Current lifecycle phase.
    pub phase: JobPhase,
    /// True if any unit outlived the job's soft deadline (the
    /// supervisor's straggler flag, surfaced per job).
    pub straggler: bool,
    /// Units loaded from the snapshot instead of recomputed.
    pub resumed_units: u64,
    /// Units computed by the most recent run of this job.
    pub executed_units: u64,
    /// Failure detail for [`JobPhase::Failed`].
    pub message: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            tenant: "t1".to_string(),
            suite: SuiteId::Rodinia,
            suite_seed: 33,
            workload_index: 0,
            reps: 2,
            seed: 1,
            deadline_ms: None,
            sampler: "STEM".to_string(),
        }
    }

    #[test]
    fn suite_tokens_round_trip() {
        for s in [SuiteId::Rodinia, SuiteId::Casio, SuiteId::Huggingface] {
            assert_eq!(SuiteId::parse(s.as_str()), Some(s));
        }
        assert_eq!(SuiteId::parse("mystery"), None);
    }

    #[test]
    fn spec_validation_names_bad_fields() {
        assert!(spec().validate().is_ok());
        let mut bad = spec();
        bad.tenant = "has space".to_string();
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.reps = 0;
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.sampler = "no spaces allowed".to_string();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn workload_materializes_and_range_checks() {
        let w = spec().workload().expect("workload 0 exists");
        assert!(w.num_invocations() > 0);
        let mut far = spec();
        far.workload_index = 10_000;
        assert!(matches!(far.workload(), Err(StemError::InvalidConfig(_))));
    }

    #[test]
    fn phases_have_stable_tokens() {
        assert_eq!(JobPhase::Queued.as_str(), "queued");
        assert!(JobPhase::Done.is_terminal());
        assert!(!JobPhase::Interrupted.is_terminal());
    }
}
