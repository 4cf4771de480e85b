//! The end-to-end sampled-simulation pipeline of Fig. 5: profile → sample →
//! simulate → report.

use crate::campaign::Planner;
use crate::degrade::RecoveryPolicy;
use crate::error::StemError;
use crate::eval::EvalSummary;
use crate::sampler::KernelSampler;
use crate::stem::{validated_times, StemRootSampler};
use gpu_profile::{DataQualityReport, ExecFaultPlan, TraceRecord};
use gpu_sim::{SimCache, Simulator};
use gpu_workload::Workload;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use stem_par::{Parallelism, Supervisor};
use stem_storage::{RealFs, Storage};

/// Convenience driver binding a target simulator and experiment settings.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), stem_core::StemError> {
/// use gpu_sim::{GpuConfig, Simulator};
/// use gpu_workload::suites::rodinia_suite;
/// use stem_core::{Pipeline, StemConfig, StemRootSampler};
///
/// let sim = Simulator::new(GpuConfig::rtx2080());
/// let pipeline = Pipeline::new(sim).with_reps(3)?;
/// let sampler = StemRootSampler::new(StemConfig::default());
/// let summary = pipeline.run_streamed(&sampler, &rodinia_suite(7)[0])?;
/// assert!(summary.mean_error_pct < 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub(crate) sim: Simulator,
    pub(crate) reps: u32,
    pub(crate) base_seed: u64,
    pub(crate) recovery: RecoveryPolicy,
    pub(crate) parallelism: Parallelism,
    pub(crate) supervisor: Supervisor,
    pub(crate) exec_faults: Option<ExecFaultPlan>,
    pub(crate) shared_cache: Option<Arc<SimCache>>,
    pub(crate) cancel: Option<Arc<AtomicBool>>,
    pub(crate) storage: Arc<dyn Storage>,
}

impl Pipeline {
    /// Creates a pipeline targeting `sim`, with the paper's 10 repetitions,
    /// the repair-and-degrade recovery policy, and the environment's thread
    /// budget (`STEM_THREADS`, else `available_parallelism()`). Results
    /// are bit-identical at every thread count; `STEM_THREADS=1` runs the
    /// plain serial code path.
    pub fn new(sim: Simulator) -> Self {
        Pipeline {
            sim,
            reps: 10,
            base_seed: 1,
            recovery: RecoveryPolicy::default(),
            parallelism: Parallelism::from_env(),
            supervisor: Supervisor::new(),
            exec_faults: None,
            shared_cache: None,
            cancel: None,
            storage: Arc::new(RealFs),
        }
    }

    /// Overrides the repetition count.
    ///
    /// # Errors
    ///
    /// Returns [`StemError::InvalidConfig`] if `reps == 0` — at least one
    /// repetition required.
    pub fn with_reps(mut self, reps: u32) -> Result<Self, StemError> {
        if reps == 0 {
            return Err(StemError::InvalidConfig(
                "at least one repetition required".to_string(),
            ));
        }
        self.reps = reps;
        Ok(self)
    }

    /// Overrides the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Overrides how [`Pipeline::run_from_profile`] responds to traces
    /// that needed repair.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Overrides the thread budget (the repetition loop and
    /// [`Pipeline::ground_truth_total`] both use it).
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// Overrides the worker supervisor (retry budget and soft deadline)
    /// every run's repetitions execute under.
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Installs a runtime fault plan — injected worker panics, stalls,
    /// and simulated process kills — for chaos testing every run. Faults
    /// derive from `(plan seed, unit index)`, so they replay identically
    /// at every thread count.
    pub fn with_exec_faults(mut self, faults: ExecFaultPlan) -> Self {
        self.exec_faults = Some(faults);
        self
    }

    /// Shares a caller-owned memo cache across pipeline runs. Cache hits
    /// return pure, bit-identical timing values, so sharing one cache
    /// between runs (or tenants of a long-lived service) is sound:
    /// results never depend on who warmed an entry. Without this, each
    /// run builds a private cold cache.
    pub fn with_shared_cache(mut self, cache: Arc<SimCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Installs a cooperative cancellation flag checked between the
    /// `(workload, rep)` units of every run. When the flag is raised, no
    /// new unit is admitted and the run returns [`StemError::Interrupted`]
    /// with the completed-unit count; a campaign's snapshot keeps
    /// everything finished so far, and [`Pipeline::resume_from`]
    /// continues bit-identically.
    pub fn with_cancel_flag(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Overrides the [`Storage`] behind every durable write this
    /// pipeline performs (campaign snapshots). Defaults to the real
    /// filesystem ([`RealFs`]); the chaos crate's `FaultFs` plugs in
    /// here to drive the crash-point explorer and storage fault sweeps.
    pub fn with_storage(mut self, storage: Arc<dyn Storage>) -> Self {
        self.storage = storage;
        self
    }

    /// The storage behind this pipeline's durable writes.
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.storage
    }

    /// The thread budget in effect.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The worker supervisor in effect.
    pub fn supervisor(&self) -> Supervisor {
        self.supervisor
    }

    /// The recovery policy in effect.
    pub fn recovery(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// The target simulator.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Ground-truth total via the pipelined block-streaming executor —
    /// bit-identical to `run_full(..).total_cycles` at every thread
    /// count, without ever materializing a per-invocation vector. Every
    /// run computes its totals this way.
    ///
    /// # Errors
    ///
    /// [`StemError::GroundTruth`] if the block stream is rejected (only
    /// reachable for a workload whose invocations escape construction
    /// validation).
    pub fn ground_truth_total(&self, workload: &Workload) -> Result<f64, StemError> {
        self.streamed_total(workload, self.parallelism)
    }

    /// [`Pipeline::ground_truth_total`] at an explicit thread budget.
    pub(crate) fn streamed_total(
        &self,
        workload: &Workload,
        par: Parallelism,
    ) -> Result<f64, StemError> {
        gpu_sim::workload_total(
            &self.sim,
            par,
            workload,
            gpu_workload::DEFAULT_BLOCK_LEN,
            gpu_sim::DEFAULT_CHANNEL_BLOCKS,
        )
        .map(|t| t.total_cycles)
        .map_err(|e| StemError::GroundTruth(e.to_string()))
    }

    /// Runs the whole pipeline for one sampler on one workload: a
    /// [`Pipeline::run_campaign`] over `[workload]` without a snapshot.
    /// Ground truth is streamed, so peak memory stays flat in the
    /// workload length — this is the paper-scale entry point.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::run_campaign`], less the snapshot errors.
    pub fn run_streamed(
        &self,
        sampler: &dyn KernelSampler,
        workload: &Workload,
    ) -> Result<EvalSummary, StemError> {
        let planner = |w: &Workload, seed| sampler.try_plan(w, seed);
        self.run_one(sampler, &planner, workload)
    }

    /// Runs the pipeline from an *externally ingested* execution trace
    /// instead of the built-in profiler — the chaos-hardened entry point.
    ///
    /// The trace is first passed through
    /// [`TraceValidator`](gpu_profile::TraceValidator): duplicates
    /// are dropped, out-of-order records re-sorted, corrupt times repaired
    /// from interval evidence or median-imputed, and gaps counted. Under
    /// [`RecoveryPolicy::FailFast`] any detected fault aborts the run;
    /// under [`RecoveryPolicy::RepairAndDegrade`] (the default) the
    /// sampler plans from the repaired trace with its error model widened
    /// by the degraded fraction, so the reported bound stays honest. The
    /// quality report is returned alongside the evaluation so callers can
    /// audit what the validator did. The repetitions then run as in
    /// [`Pipeline::run_streamed`].
    ///
    /// # Errors
    ///
    /// Returns [`StemError::EmptyWorkload`], [`StemError::Validation`]
    /// when nothing usable survives validation,
    /// [`StemError::DegradedTrace`] under fail-fast with a damaged trace,
    /// any planning error from
    /// [`StemRootSampler::try_plan_degraded`], or any run error from
    /// [`Pipeline::run_streamed`].
    pub fn run_from_profile(
        &self,
        sampler: &StemRootSampler,
        workload: &Workload,
        records: &[TraceRecord],
    ) -> Result<(EvalSummary, DataQualityReport), StemError> {
        let validated = validated_times(workload, |v| v.validate(records))?;
        self.run_traced(sampler, workload, validated)
    }

    /// Like [`Pipeline::run_from_profile`], but ingests the trace as a CSV
    /// document (`index,start,time` or `index,time` header), so even
    /// row-level damage — ragged rows, unparsable cells — flows through
    /// the same validate → repair → degrade path.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::run_from_profile`].
    pub fn run_from_csv(
        &self,
        sampler: &StemRootSampler,
        workload: &Workload,
        csv: &str,
    ) -> Result<(EvalSummary, DataQualityReport), StemError> {
        let validated = validated_times(workload, |v| v.validate_csv(csv))?;
        self.run_traced(sampler, workload, validated)
    }

    /// The repetitions of a trace-driven run: every rep plans from the
    /// validated times, degraded by the report's fraction.
    fn run_traced(
        &self,
        sampler: &StemRootSampler,
        workload: &Workload,
        (times, report): (Vec<f64>, DataQualityReport),
    ) -> Result<(EvalSummary, DataQualityReport), StemError> {
        if self.recovery == RecoveryPolicy::FailFast && !report.is_clean() {
            return Err(StemError::DegradedTrace(Box::new(report)));
        }
        let degraded = report.degraded_fraction();
        let planner =
            |w: &Workload, seed| sampler.try_plan_degraded(w, &times, seed, degraded);
        let summary = self.run_one(sampler, &planner, workload)?;
        Ok((summary, report))
    }

    /// The engine over `[workload]` with no snapshot.
    fn run_one(
        &self,
        sampler: &dyn KernelSampler,
        planner: &Planner<'_>,
        workload: &Workload,
    ) -> Result<EvalSummary, StemError> {
        let workloads = std::slice::from_ref(workload);
        let mut report = self.campaign(sampler, planner, workloads, None, BTreeMap::new())?;
        Ok(report.summaries.remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StemConfig;
    use crate::eval::evaluate_total_par;
    use gpu_profile::ExecTimeProfiler;
    use gpu_sim::GpuConfig;
    use gpu_workload::suites::rodinia_suite;

    fn pipeline(reps: u32) -> Pipeline {
        Pipeline::new(Simulator::new(GpuConfig::rtx2080()))
            .with_reps(reps)
            .expect("positive reps")
    }

    #[test]
    fn streamed_run_is_bit_identical_to_in_memory_run() {
        let suite = rodinia_suite(17);
        let w = &suite[2];
        let sampler = StemRootSampler::new(StemConfig::paper());
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full_total = sim.run_full(w).total_cycles;
        let reference =
            evaluate_total_par(&sampler, w, &sim, full_total, 2, 1, Parallelism::serial());
        for threads in [1usize, 4] {
            let p = pipeline(2).with_parallelism(Parallelism::with_threads(threads));
            let streamed = p.run_streamed(&sampler, w).expect("valid workload streams");
            assert_eq!(streamed, reference, "{threads} threads");
            let total = p.ground_truth_total(w).expect("valid workload streams");
            assert_eq!(total.to_bits(), full_total.to_bits());
        }
    }

    #[test]
    fn zero_reps_rejected() {
        let e = Pipeline::new(Simulator::new(GpuConfig::rtx2080()))
            .with_reps(0)
            .expect_err("zero reps");
        assert!(e.to_string().contains("at least one repetition"));
        assert!(matches!(e, StemError::InvalidConfig(_)));
    }

    #[test]
    fn clean_trace_runs_and_reports_clean() {
        let suite = rodinia_suite(17);
        let w = &suite[1];
        let sampler = StemRootSampler::new(StemConfig::paper());
        let times = ExecTimeProfiler::new(GpuConfig::rtx2080(), 3).profile(w);
        let records = TraceRecord::sequence(&times);
        let (summary, report) = pipeline(2)
            .run_from_profile(&sampler, w, &records)
            .expect("clean trace");
        assert!(report.is_clean());
        assert_eq!(summary.results.len(), 2);
        assert!(summary.mean_error_pct < 6.0);
    }

    #[test]
    fn fail_fast_refuses_damaged_trace() {
        let suite = rodinia_suite(17);
        let w = &suite[1];
        let sampler = StemRootSampler::new(StemConfig::paper());
        let times = ExecTimeProfiler::new(GpuConfig::rtx2080(), 3).profile(w);
        let mut records = TraceRecord::sequence(&times);
        records.truncate(records.len() / 2);
        let e = pipeline(2)
            .with_recovery(RecoveryPolicy::FailFast)
            .run_from_profile(&sampler, w, &records)
            .expect_err("damaged trace");
        match e {
            StemError::DegradedTrace(report) => assert!(!report.is_clean()),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn repair_and_degrade_completes_on_damaged_trace() {
        let suite = rodinia_suite(17);
        let w = &suite[1];
        let sampler = StemRootSampler::new(StemConfig::paper());
        let times = ExecTimeProfiler::new(GpuConfig::rtx2080(), 3).profile(w);
        let mut records = TraceRecord::sequence(&times);
        records.truncate(records.len() / 2);
        let (summary, report) = pipeline(2)
            .run_from_profile(&sampler, w, &records)
            .expect("repairable trace");
        assert!(!report.is_clean());
        assert!(report.truncated_tail > 0);
        // The estimator re-simulates true values, so even a half trace
        // keeps the error bounded once degradation inflates the model.
        assert!(summary.mean_error_pct < 25.0, "{}", summary.mean_error_pct);
    }

    #[test]
    fn empty_workload_is_typed_error() {
        let suite = rodinia_suite(17);
        let w = &suite[1];
        let sampler = StemRootSampler::new(StemConfig::paper());
        let e = pipeline(1)
            .run_from_profile(&sampler, w, &[])
            .expect_err("empty trace");
        assert!(matches!(e, StemError::Validation(_)));
    }
}
