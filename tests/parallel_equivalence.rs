//! Parallel-equivalence suite: the acceptance gate for `stem-par`.
//!
//! The deterministic parallel runtime promises *bit-identical* results at
//! every thread count: worker RNG streams derive from task indices (never
//! worker identity), reductions fold in input-index order, and the memo
//! cache stores pure-function results only. This suite holds the whole
//! pipeline to that promise on one workload from each of the three
//! synthetic suites, at threads ∈ {1, 2, 3, 8}:
//!
//! * ground-truth cycle totals ([`Pipeline::ground_truth_total`]),
//! * sampling plans and ROOT cluster assignments
//!   ([`StemRootSampler::with_parallelism`]),
//! * clean evaluations ([`Pipeline::run_streamed`]),
//! * the `RepairAndDegrade` chaos path
//!   ([`Pipeline::run_from_profile`] on a faulted trace),
//! * and the streamed ground-truth executor, fed by a generator
//!   ([`source_total`]) or by a materialized workload's replay
//!   ([`workload_total`]), at threads ∈ {1, 4} over all three suites —
//!   plus the one-pass fingerprint fold of every generator in the tree.
//!
//! A final golden check pins `threads = 1` (and `Parallelism::serial()`)
//! to the pre-parallelism behavior: [`Pipeline::run_streamed`] returns the
//! same per-rep results as a manual [`evaluate_once`] loop, so the serial
//! goldens never move.

use stem::core::eval::{evaluate_once, EvalResult, EvalSummary};
use stem::prelude::*;
use stem::profile::ExecTimeProfiler;
use stem::sim::simulator::reference;

const THREADS: [usize; 4] = [1, 2, 3, 8];
const REPS: u32 = 3;
const BASE_SEED: u64 = 0xA11CE;

/// One representative workload per suite (largest of each, as in the chaos
/// suite), sized so the sweep stays fast.
fn suite_workloads() -> Vec<Workload> {
    let rodinia = rodinia_suite(33);
    let casio = casio_suite(33);
    let hf = huggingface_suite(33, HuggingfaceScale::custom(0.02));
    let pick = |suite: &[Workload]| {
        suite
            .iter()
            .max_by_key(|w| w.num_invocations())
            .expect("nonempty suite")
            .clone()
    };
    vec![pick(&rodinia), pick(&casio), pick(&hf)]
}

fn pipeline_with(par: Parallelism) -> Pipeline {
    Pipeline::new(Simulator::new(GpuConfig::rtx2080()))
        .with_reps(REPS)
        .expect("positive reps")
        .with_seed(BASE_SEED)
        .with_parallelism(par)
}

/// `run_streamed` of `sampler` on `w` at thread budget `par`.
fn run_at(par: Parallelism, sampler: &dyn KernelSampler, w: &Workload) -> EvalSummary {
    pipeline_with(par).run_streamed(sampler, w).expect("clean run")
}

/// A clean profiler trace for `w`, as in the chaos suite.
fn clean_records(w: &Workload) -> Vec<TraceRecord> {
    let times = ExecTimeProfiler::new(GpuConfig::rtx2080(), 0xC0FFEE).profile(w);
    TraceRecord::sequence(&times)
}

#[test]
fn ground_truth_cycles_are_bit_identical_across_thread_counts() {
    for w in &suite_workloads() {
        let total_at =
            |par| pipeline_with(par).ground_truth_total(w).expect("valid workload").to_bits();
        let serial = total_at(Parallelism::serial());
        for threads in THREADS {
            assert_eq!(
                total_at(Parallelism::with_threads(threads)),
                serial,
                "{}: ground truth differs at threads = {threads}",
                w.name()
            );
        }
    }
}

#[test]
fn plans_and_clusters_are_bit_identical_across_thread_counts() {
    for w in &suite_workloads() {
        let sampler = StemRootSampler::new(StemConfig::paper());
        let serial_plan = sampler.plan(w, BASE_SEED);
        let serial_clusters = sampler.clusters(w);
        for threads in THREADS {
            let s = StemRootSampler::new(StemConfig::paper())
                .with_parallelism(Parallelism::with_threads(threads));
            assert_eq!(
                s.plan(w, BASE_SEED),
                serial_plan,
                "{}: plan differs at threads = {threads}",
                w.name()
            );
            assert_eq!(
                s.clusters(w),
                serial_clusters,
                "{}: cluster assignments differ at threads = {threads}",
                w.name()
            );
        }
    }
}

#[test]
fn clean_evaluation_is_bit_identical_across_thread_counts() {
    for w in &suite_workloads() {
        let sampler = StemRootSampler::new(StemConfig::paper());
        let serial = run_at(Parallelism::serial(), &sampler, w);
        for threads in THREADS {
            let par = run_at(Parallelism::with_threads(threads), &sampler, w);
            assert_eq!(
                par,
                serial,
                "{}: clean evaluation differs at threads = {threads}",
                w.name()
            );
        }
    }
}

#[test]
fn chaos_path_is_bit_identical_across_thread_counts() {
    for w in &suite_workloads() {
        let sampler = StemRootSampler::new(StemConfig::paper());
        let records = FaultPlan::single(7, Fault::Drop { fraction: 0.2 }).apply(&clean_records(w));
        let (serial_summary, serial_report) = pipeline_with(Parallelism::serial())
            .run_from_profile(&sampler, w, &records)
            .expect("repairable trace");
        assert!(!serial_report.is_clean(), "{}: fault undetected", w.name());
        for threads in THREADS {
            let (summary, report) = pipeline_with(Parallelism::with_threads(threads))
                .run_from_profile(&sampler, w, &records)
                .expect("repairable trace");
            assert_eq!(
                report,
                serial_report,
                "{}: quality report differs at threads = {threads}",
                w.name()
            );
            assert_eq!(
                summary,
                serial_summary,
                "{}: degraded evaluation differs at threads = {threads}",
                w.name()
            );
        }
    }
}

/// The new sampling baselines must hold the bit-identical promise on the
/// adversarial scenarios too: RSS and two-phase plans and evaluations on
/// the phase-drift workload — built to put every rank stratum and pilot
/// under non-stationary drift — at threads ∈ {1, 4} versus serial.
#[test]
fn new_samplers_on_adversarial_scenarios_are_bit_identical() {
    let w = phase_drift(33).materialize();
    let samplers: Vec<Box<dyn KernelSampler>> =
        vec![Box::new(RssSampler::new()), Box::new(TwoPhaseSampler::new())];
    for sampler in &samplers {
        let serial_plan = sampler.plan(&w, BASE_SEED);
        let serial = run_at(Parallelism::serial(), sampler.as_ref(), &w);
        for threads in [1usize, 4] {
            assert_eq!(
                sampler.plan(&w, BASE_SEED),
                serial_plan,
                "{}: plan differs at threads = {threads}",
                sampler.name()
            );
            let par = run_at(Parallelism::with_threads(threads), sampler.as_ref(), &w);
            assert_eq!(
                par,
                serial,
                "{}: evaluation differs at threads = {threads}",
                sampler.name()
            );
        }
    }
}

/// `threads = 1` (and `Parallelism::serial()`) must reproduce the pre-`stem-par`
/// behavior exactly: per-rep results equal to a manual [`evaluate_once`] loop
/// over the documented rep-seed schedule. This pins the serial goldens.
#[test]
fn threads_one_matches_the_manual_serial_loop() {
    for w in &suite_workloads() {
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(w);
        let sampler = StemRootSampler::new(StemConfig::paper());
        let manual: Vec<EvalResult> = (0..REPS as u64)
            .map(|r| {
                let rep_seed = BASE_SEED.wrapping_add(r).wrapping_mul(0x9e3779b97f4a7c15);
                evaluate_once(&sampler, w, &sim, &full, rep_seed)
            })
            .collect();
        for par in [Parallelism::serial(), Parallelism::with_threads(1)] {
            let summary = run_at(par, &sampler, w);
            assert_eq!(
                summary.results,
                manual,
                "{}: {par:?} diverges from the manual serial loop",
                w.name()
            );
        }
    }
}

/// Every deferred generator in the tree: the three suites plus the
/// adversarial scenarios.
fn all_sources(seed: u64) -> Vec<WorkloadSource> {
    let mut sources = rodinia_sources(seed);
    sources.extend(casio_sources(seed));
    sources.extend(huggingface_sources(seed, HuggingfaceScale::custom(0.01)));
    sources.extend(adversarial_sources(seed));
    sources
}

/// The streamed one-pass fingerprint fold equals the materialized
/// [`Workload::fingerprint`] for all three suites and the adversarial
/// scenarios, and collecting the stream rebuilds the workload exactly.
#[test]
fn streamed_fingerprint_equals_materialized_everywhere() {
    for seed in [1_u64, 77] {
        for source in all_sources(seed) {
            let w = source.materialize();
            let mut sink = CollectSink::new();
            let summary = source.stream(&mut sink, 1000).expect("collect");
            assert_eq!(
                summary.fingerprint,
                w.fingerprint(),
                "{} seed {seed}: streamed fingerprint must match materialized",
                source.name()
            );
            assert_eq!(summary.invocations, w.num_invocations() as u64);
            assert_eq!(sink.into_workload(), w);
        }
    }
}

/// The pipelined generate→simulate→fold executor, fed by the generator
/// or by a replay of the materialized workload, matches the in-memory
/// reference totals bit for bit at threads 1 and 4.
#[test]
fn streamed_totals_match_in_memory_reference_across_suites_and_threads() {
    let sim = Simulator::new(GpuConfig::rtx2080());
    let suites: [(&str, Vec<WorkloadSource>); 3] = [
        ("rodinia", rodinia_sources(7)),
        ("casio", casio_sources(7)),
        ("huggingface", huggingface_sources(7, HuggingfaceScale::custom(0.01))),
    ];
    for (suite, sources) in suites {
        // Two workloads per suite keep the gate fast while still covering
        // multi-kernel and multi-context table shapes.
        for source in sources.iter().take(2) {
            let w = source.materialize();
            let expected = sim.run_full_total(&w, Parallelism::serial());
            // The retained per-invocation reference path must agree with
            // the total-only fold before we pin the streamed paths to it.
            let full = reference::run_full(&sim, &w);
            assert_eq!(full.total_cycles.to_bits(), expected.to_bits());
            for threads in [1_usize, 4] {
                let par = Parallelism::with_threads(threads);
                let generated = source_total(&sim, par, source, 2048, DEFAULT_CHANNEL_BLOCKS)
                    .expect("generate stream");
                let replayed = workload_total(&sim, par, &w, 2048, DEFAULT_CHANNEL_BLOCKS)
                    .expect("replay stream");
                for (path, got) in [("generate", &generated), ("replay", &replayed)] {
                    assert_eq!(
                        got.total_cycles.to_bits(),
                        expected.to_bits(),
                        "{suite}/{}: {path} path diverged at {threads} threads",
                        source.name()
                    );
                    assert_eq!(got.fingerprint, w.fingerprint());
                    assert_eq!(got.invocations, w.num_invocations() as u64);
                }
            }
        }
    }
}
