//! Chaos suite: the acceptance gate for the fault-hardened pipeline.
//!
//! For every fault class in the taxonomy ([`FaultPlan::all_classes`]) and
//! one workload from each of the three synthetic suites, the pipeline
//! must (1) complete without panicking, (2) emit a non-empty
//! [`DataQualityReport`] naming what was repaired or quarantined, and
//! (3) keep its degraded confidence interval covering the clean-trace
//! ground truth — the error bound stays honest because STEM inflates
//! per-cluster variance by the degraded fraction and buys the bound back
//! with more samples.
//!
//! Everything is seeded: the suites, the profiler, the fault plans and the
//! sampler all draw from the in-tree deterministic generator, so a failure
//! replays exactly.

use stem::core::EvalSummary;
use stem::prelude::*;
use stem::profile::validate::trace_to_csv;
use stem::profile::ExecTimeProfiler;

/// The paper's bound (5%) plus the 1%-slack convention the accuracy tests
/// use for probabilistic intervals.
const CLEAN_SLACK_PCT: f64 = 6.0;

fn pipeline(reps: u32) -> Pipeline {
    Pipeline::new(Simulator::new(GpuConfig::rtx2080()))
        .with_reps(reps)
        .expect("positive reps")
}

/// A clean profiler trace for `w`: per-invocation times from the built-in
/// hardware model, laid out as the back-to-back NSYS record stream.
fn clean_records(w: &Workload) -> Vec<TraceRecord> {
    let times = ExecTimeProfiler::new(GpuConfig::rtx2080(), 0xC0FFEE).profile(w);
    TraceRecord::sequence(&times)
}

/// One representative workload per suite, sized so the whole sweep stays
/// fast: 9 fault classes x 3 suites x 2 reps.
fn suite_workloads() -> Vec<Workload> {
    let rodinia = rodinia_suite(21);
    let casio = casio_suite(21);
    let hf = huggingface_suite(21, HuggingfaceScale::custom(0.02));
    let pick = |suite: &[Workload]| {
        suite
            .iter()
            .max_by_key(|w| w.num_invocations())
            .expect("nonempty suite")
            .clone()
    };
    vec![pick(&rodinia), pick(&casio), pick(&hf)]
}

#[test]
fn every_fault_class_completes_with_honest_degraded_bounds() {
    let sampler = StemRootSampler::new(StemConfig::default());
    let pipe = pipeline(2);
    for w in &suite_workloads() {
        let records = clean_records(w);
        let csv = trace_to_csv(&records);
        for plan in FaultPlan::all_classes(0xDECAF) {
            let fault = plan.faults()[0];
            let label = fault.label();
            // Ragged rows are row-level damage: they only exist in the
            // serialized form, so they enter through the CSV path. Every
            // other class corrupts the in-memory records.
            let outcome = if label == "ragged-rows" {
                pipe.run_from_csv(&sampler, w, &plan.corrupt_csv(&csv))
            } else {
                pipe.run_from_profile(&sampler, w, &plan.apply(&records))
            };
            let (summary, report) =
                outcome.unwrap_or_else(|e| panic!("{}/{label}: pipeline failed: {e}", w.name()));

            // (2) The report must name the damage.
            assert!(
                !report.is_clean() && report.issue_count() > 0,
                "{}/{label}: corruption went undetected: {report}",
                w.name()
            );

            // (3) The degraded CI still covers the ground-truth mean:
            // the clean-trace slack widened by the degraded fraction.
            let bound_pct = CLEAN_SLACK_PCT + 100.0 * report.degraded_fraction();
            assert!(
                summary.mean_error_pct < bound_pct,
                "{}/{label}: error {:.2}% escapes the degraded bound {:.2}% ({report})",
                w.name(),
                summary.mean_error_pct,
                bound_pct
            );
        }
    }
}

#[test]
fn clean_traces_report_clean_and_meet_the_paper_bound() {
    let sampler = StemRootSampler::new(StemConfig::default());
    let pipe = pipeline(2);
    for w in &suite_workloads() {
        let (summary, report) = pipe
            .run_from_profile(&sampler, w, &clean_records(w))
            .unwrap_or_else(|e| panic!("{}: clean trace rejected: {e}", w.name()));
        assert!(report.is_clean(), "{}: spurious report {report}", w.name());
        assert!(
            summary.mean_error_pct < CLEAN_SLACK_PCT,
            "{}: clean error {:.2}%",
            w.name(),
            summary.mean_error_pct
        );
    }
}

#[test]
fn fail_fast_policy_refuses_every_fault_class() {
    let sampler = StemRootSampler::new(StemConfig::default());
    let pipe = pipeline(1).with_recovery(RecoveryPolicy::FailFast);
    let suite = suite_workloads();
    let w = &suite[0];
    let records = clean_records(w);
    let csv = trace_to_csv(&records);
    for plan in FaultPlan::all_classes(0xDECAF) {
        let label = plan.faults()[0].label();
        let outcome = if label == "ragged-rows" {
            pipe.run_from_csv(&sampler, w, &plan.corrupt_csv(&csv))
        } else {
            pipe.run_from_profile(&sampler, w, &plan.apply(&records))
        };
        match outcome {
            Err(StemError::DegradedTrace(report)) => {
                assert!(!report.is_clean(), "{label}: empty refusal report")
            }
            Err(e) => panic!("{label}: wrong error class: {e}"),
            Ok(_) => panic!("{label}: fail-fast accepted a damaged trace"),
        }
    }
}

/// Adversarial scenarios under trace damage: a phase-drift workload —
/// built so early and late invocations of one kernel live in different
/// regimes — profiled, corrupted with the composed fault mix, and pushed
/// through repair. The degraded CI must still cover the clean-trace
/// ground truth, and the report must name the damage. This is the same
/// cell the calibration matrix scores (`adv/phase_drift+faults` in
/// `coverage_summary.json`), held here as a direct tier-1 gate.
#[test]
fn damaged_adversarial_traces_keep_honest_degraded_bounds() {
    let sampler = StemRootSampler::new(StemConfig::default());
    let pipe = pipeline(2);
    for w in [
        phase_drift(21).materialize(),
        bursty_interference(21).materialize(),
        longtail_skew(21).materialize(),
    ] {
        let records = clean_records(&w);
        let plan = FaultPlan::new(0xADE5)
            .with(Fault::Drop { fraction: 0.05 })
            .with(Fault::Duplicate { fraction: 0.05 })
            .with(Fault::NanTime { fraction: 0.02 })
            .with(Fault::Reorder { fraction: 0.1 });
        let (summary, report) = pipe
            .run_from_profile(&sampler, &w, &plan.apply(&records))
            .unwrap_or_else(|e| panic!("{}: damaged trace unrecoverable: {e}", w.name()));
        assert!(
            !report.is_clean() && report.issue_count() > 0,
            "{}: corruption went undetected: {report}",
            w.name()
        );
        let bound_pct = CLEAN_SLACK_PCT + 100.0 * report.degraded_fraction();
        assert!(
            summary.mean_error_pct < bound_pct,
            "{}: error {:.2}% escapes the degraded bound {:.2}% ({report})",
            w.name(),
            summary.mean_error_pct,
            bound_pct
        );
    }
}

#[test]
fn chaos_runs_replay_deterministically() {
    let sampler = StemRootSampler::new(StemConfig::default());
    let pipe = pipeline(1);
    let suite = suite_workloads();
    let w = &suite[0];
    let records = clean_records(w);
    let plan = FaultPlan::single(7, Fault::Drop { fraction: 0.2 });
    let (a, ra) = pipe
        .run_from_profile(&sampler, w, &plan.apply(&records))
        .expect("first run");
    let (b, rb) = pipe
        .run_from_profile(&sampler, w, &plan.apply(&records))
        .expect("second run");
    assert_eq!(ra, rb);
    assert_eq!(a, b);
}

#[test]
fn composed_faults_accumulate_in_one_report() {
    let sampler = StemRootSampler::new(StemConfig::default());
    let pipe = pipeline(1);
    let suite = suite_workloads();
    let w = &suite[1];
    let records = clean_records(w);
    let plan = FaultPlan::new(0xBAD)
        .with(Fault::Drop { fraction: 0.05 })
        .with(Fault::Duplicate { fraction: 0.05 })
        .with(Fault::NanTime { fraction: 0.02 })
        .with(Fault::Reorder { fraction: 0.1 });
    let (summary, report) = pipe
        .run_from_profile(&sampler, w, &plan.apply(&records))
        .expect("composed corruption is recoverable");
    assert!(report.duplicates_removed > 0, "{report}");
    assert!(report.missing_detected > 0, "{report}");
    assert!(report.out_of_order_fixed > 0, "{report}");
    assert!(summary.mean_error_pct < CLEAN_SLACK_PCT + 100.0 * report.degraded_fraction());
}

/// Fault plans and cancellation reach every run, not only campaigns:
/// `run_streamed`, `run_from_profile` and `run_campaign` share one run
/// engine, so at 1 and 4 threads each of them (a) recovers injected
/// worker panics to the unfaulted bits, (b) stops after a simulated kill
/// with the completed-unit count, and (c) admits no unit once the cancel
/// flag is raised.
#[test]
fn exec_faults_and_cancellation_reach_every_run() {
    type Run<'a> = &'a dyn Fn(&Pipeline) -> Result<Vec<EvalSummary>, StemError>;
    let sampler = StemRootSampler::new(StemConfig::default());
    let w = &rodinia_suite(21)[0];
    let records = clean_records(w);
    let snap = std::env::temp_dir().join(format!("stem-chaos-runs-{}.snap", std::process::id()));
    let streamed = |p: &Pipeline| p.run_streamed(&sampler, w).map(|s| vec![s]);
    let profiled = |p: &Pipeline| p.run_from_profile(&sampler, w, &records).map(|(s, _)| vec![s]);
    let one = std::slice::from_ref(w);
    let campaign = |p: &Pipeline| p.run_campaign(&sampler, one, &snap).map(|r| r.summaries);
    let runs: [(&str, Run<'_>); 3] =
        [("run_streamed", &streamed), ("run_from_profile", &profiled), ("run_campaign", &campaign)];
    for threads in [1usize, 4] {
        let base = pipeline(2).with_parallelism(Parallelism::with_threads(threads));
        let faulted = |plan: ExecFaultPlan| base.clone().with_exec_faults(plan);
        for (name, run) in runs {
            let clean = run(&base).expect("unfaulted run");
            let recovered = run(&faulted(ExecFaultPlan::new(5).with_worker_panics(1.0, 1)));
            assert_eq!(recovered.as_ref(), Ok(&clean), "{name} at {threads} threads");
            let killed = run(&faulted(ExecFaultPlan::new(5).with_kill_after_units(1)));
            let want = Err(StemError::Interrupted { completed_units: 1 });
            assert_eq!(killed, want, "{name} at {threads} threads: kill after one unit");
            let cancel = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
            let cancelled = run(&base.clone().with_cancel_flag(cancel));
            let want = Err(StemError::Interrupted { completed_units: 0 });
            assert_eq!(cancelled, want, "{name} at {threads} threads: raised cancel flag");
        }
    }
    let _ = std::fs::remove_file(&snap);
}
