//! The three batch workloads: `hf-stem`, `dse-sweep` and
//! `coverage-campaign`. Each runs single-threaded.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use gpu_profile::{ExecTimeProfiler, Fault, FaultPlan, TraceRecord};
use gpu_sim::{DseTransform, GpuConfig, SimCache, Simulator, DEFAULT_CHANNEL_BLOCKS};
use gpu_workload::scenarios::{bursty_interference, longtail_skew, phase_drift};
use gpu_workload::suites::{
    casio_suite, huggingface_sources, huggingface_suite, rodinia_suite, HuggingfaceScale,
};
use gpu_workload::{Workload, DEFAULT_BLOCK_LEN};
use stem_bench::experiments::coverage::{
    coverage, derived_half_width, CoverageCell, CoverageOptions, CoverageReport, CrosscheckCell,
    CHAOS_SCENARIO, COVERAGE_METHODS,
};
use stem_bench::harness::{build_sampler, MethodKind};
use stem_core::eval::{evaluate_total_par, EvalSummary};
use stem_core::plan::SamplingPlan;
use stem_core::root::cluster_workload_par;
use stem_core::sampler::KernelSampler;
use stem_core::{Pipeline, StemConfig, StemRootSampler};
use stem_par::Parallelism;
use stem_stats::kkt::solve_sample_sizes;

use crate::trace::{Digest, Tracer};
use crate::{Accuracy, Bench, PassOut};

/// HuggingFace scale of `hf-stem`: large enough that the per-invocation
/// layers dominate, small enough that a run completes some 200 jobs.
const HF_SCALE: f64 = 0.05;
/// The paper's repetitions per workload.
const REPS: u32 = 10;
/// Repetitions behind the accuracy metrics of `hf-stem` (per workload)
/// and `dse-sweep` (plans per workload). A 10-rep mean error moves by
/// about a fifth from one seed to the next, too much to compare runs.
const ACCURACY_REPS: u32 = 200;
const DSE_ACCURACY_SUITES: u64 = 4;
const DSE_ACCURACY_PLANS: u64 = 10;
/// Jobs of one `coverage-campaign` pass, each a one-rep calibration
/// matrix. Rep `r` of the matrix at seed `s` is the only rep of the
/// matrix at seed `s + r`, so a pass computes the ten-rep matrix at the
/// run's seed, one job per rep.
const COVERAGE_JOBS: u64 = 10;
/// Repetitions per scenario behind `coverage-campaign`'s STEM errors.
const COVERAGE_ACCURACY_REPS: u32 = 40;
/// The committed calibration summary the matrix must reproduce at its
/// committed settings.
const COMMITTED_COVERAGE: &str = "crates/bench/results/coverage_summary.json";

fn serial() -> Parallelism {
    Parallelism::serial()
}

/// The seed of repetition `r`, derived as the evaluation and the
/// calibration matrix derive theirs.
fn rep_seed(base: u64, r: u64) -> u64 {
    base.wrapping_add(r).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn streamed_total(sim: &Simulator, w: &Workload) -> Result<f64, String> {
    gpu_sim::workload_total(sim, serial(), w, DEFAULT_BLOCK_LEN, DEFAULT_CHANNEL_BLOCKS)
        .map(|t| t.total_cycles)
        .map_err(|e| format!("{}: streamed ground truth failed: {e}", w.name()))
}

/// Runs one job, turning a panic into an error so it counts as failed.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("job panicked".to_string()))
}

fn digest_summary(d: &mut Digest, s: &EvalSummary) {
    d.str(&s.method);
    d.str(&s.workload);
    d.f64(s.mean_error_pct);
    d.f64(s.harmonic_speedup);
    for r in &s.results {
        d.f64(r.error_pct);
        d.f64(r.speedup);
        d.u64(r.num_samples as u64);
        d.f64(r.predicted_error_pct);
    }
}

/// A [`KernelSampler`] that times each `plan` call of the sampler it
/// wraps: the first as `plan.cold`, the rest as `plan.warm` (served by
/// the sampler's profile and clustering memo). It keeps the warm plans
/// so the probe can replay their sampled simulation.
struct TracedSampler<'a> {
    inner: StemRootSampler,
    tracer: &'a Tracer,
    calls: Mutex<(u64, Vec<SamplingPlan>)>,
}

impl<'a> TracedSampler<'a> {
    fn new(inner: StemRootSampler, tracer: &'a Tracer) -> Self {
        TracedSampler { inner, tracer, calls: Mutex::new((0, Vec::new())) }
    }

    fn warm_plans(self) -> Vec<SamplingPlan> {
        self.calls.into_inner().unwrap_or_else(|p| p.into_inner()).1
    }
}

impl KernelSampler for TracedSampler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&self, workload: &Workload, rep_seed: u64) -> SamplingPlan {
        let cold = self.calls.lock().map(|c| c.0 == 0).unwrap_or(false);
        let span = if cold { "plan.cold" } else { "plan.warm" };
        let plan = self.tracer.time(span, || self.inner.plan(workload, rep_seed));
        self.tracer.count("plan.calls", 1.0);
        if let Ok(mut calls) = self.calls.lock() {
            calls.0 += 1;
            if !cold {
                calls.1.push(plan.clone());
            }
        }
        plan
    }
}

/// Times profiling, ROOT and KKT sizing as separate public calls on one
/// workload (inside the sampler they run as one memoized step), and
/// checks that ROOT's leaves are the clusters `plan` reported.
fn probe_stem_layers(
    tracer: &Tracer,
    config: &StemConfig,
    w: &Workload,
    plan: &SamplingPlan,
) -> Result<(), String> {
    let profiler = ExecTimeProfiler::new(config.profile_config.clone(), config.profile_seed);
    let times = tracer.time("profile", || profiler.profile_par(w, serial()));
    tracer.count("profile.invocations", times.len() as f64);
    let clusters = tracer.time("root", || cluster_workload_par(w, &times, config, serial()));
    let mut kernels: Vec<usize> = clusters.iter().map(|c| c.kernel.index()).collect();
    kernels.dedup();
    tracer.count("root.groups", kernels.len() as f64);
    tracer.count("root.clusters", clusters.len() as f64);
    if clusters.len() != plan.num_clusters() {
        return Err(format!(
            "{}: ROOT gave {} clusters, the plan {}",
            w.name(),
            clusters.len(),
            plan.num_clusters()
        ));
    }
    let stats: Vec<_> = clusters.iter().map(|c| c.stat).collect();
    let sizes = tracer.time("kkt", || solve_sample_sizes(&stats, config.epsilon, config.z()));
    tracer.count("kkt.samples", sizes.total_samples() as f64);
    Ok(())
}

/// Times the in-memory ground-truth fold as a reference for the streamed
/// one, and checks both give the same bits.
fn probe_inmem_total(tracer: &Tracer, sim: &Simulator, w: &Workload, streamed: f64) -> Result<(), String> {
    let inmem = tracer.time("sim.ground_truth_inmem", || sim.run_full_total(w, serial()));
    if inmem.to_bits() != streamed.to_bits() {
        return Err(format!("{}: streamed total {streamed} != in-memory {inmem}", w.name()));
    }
    Ok(())
}

// ---------------------------------------------------------------- hf-stem

/// One traced job's results, kept for the probe.
struct HfTrace {
    cold_plan: SamplingPlan,
    total: f64,
    warm_plans: Vec<SamplingPlan>,
    summary: EvalSummary,
}

pub struct HfStem {
    seed: u64,
    config: StemConfig,
    workloads: Vec<Workload>,
    pipeline: Pipeline,
    last_trace: Vec<HfTrace>,
}

impl HfStem {
    pub fn setup(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let sources = huggingface_sources(seed, HuggingfaceScale::custom(HF_SCALE));
        let workloads: Vec<Workload> = sources
            .iter()
            .map(|s| {
                let w = tracer.time("workload", || s.materialize());
                tracer.count("workload.invocations", w.num_invocations() as f64);
                w
            })
            .collect();
        let pipeline = Pipeline::new(Simulator::new(GpuConfig::rtx2080()))
            .with_reps(REPS)
            .map_err(|e| e.to_string())?
            .with_seed(seed)
            .with_parallelism(serial());
        Ok(HfStem { seed, config: StemConfig::paper(), workloads, pipeline, last_trace: Vec::new() })
    }

    /// The untraced job: a cold plan, then `Pipeline::run_streamed`.
    fn job(&self, w: &Workload) -> Result<(SamplingPlan, EvalSummary), String> {
        let sampler = StemRootSampler::new(self.config.clone());
        let plan = sampler.plan(w, self.seed);
        let summary = self.pipeline.run_streamed(&sampler, w).map_err(|e| e.to_string())?;
        Ok((plan, summary))
    }

    /// The same job split into the two public calls `run_streamed` makes,
    /// each in its own span, with every plan call timed by the wrapper.
    fn traced_job(&self, w: &Workload, tracer: &Tracer) -> Result<HfTrace, String> {
        let sampler = TracedSampler::new(StemRootSampler::new(self.config.clone()), tracer);
        let cold_plan = sampler.plan(w, self.seed);
        let sim = self.pipeline.simulator();
        let total = tracer.time("sim.ground_truth", || streamed_total(sim, w))?;
        tracer.count("sim.ground_truth.invocations", w.num_invocations() as f64);
        let summary = tracer.time("eval", || {
            evaluate_total_par(&sampler, w, sim, total, REPS, self.seed, serial())
        });
        Ok(HfTrace { cold_plan, total, warm_plans: sampler.warm_plans(), summary })
    }
}

impl Bench for HfStem {
    fn pass(&mut self, tracer: &Tracer) -> PassOut {
        let mut out = PassOut::new();
        let mut traces = Vec::new();
        for w in &self.workloads {
            let t = Instant::now();
            let result = guarded(|| {
                if tracer.enabled() {
                    let tr = self.traced_job(w, tracer)?;
                    let pair = (tr.cold_plan.clone(), tr.summary.clone());
                    traces.push(tr);
                    Ok(pair)
                } else {
                    self.job(w)
                }
            });
            out.job(t);
            match result {
                Ok((plan, summary)) => {
                    out.digest.u64(plan.num_samples() as u64);
                    out.digest.f64(plan.predicted_error());
                    digest_summary(&mut out.digest, &summary);
                }
                Err(e) => out.fail(&e),
            }
        }
        self.last_trace = traces;
        out
    }

    /// STEM's accuracy over [`ACCURACY_REPS`] repetitions per workload.
    /// Ground truth comes from the in-memory fold, which the probe checks
    /// against the streamed one.
    fn accuracy(&mut self) -> Result<Accuracy, String> {
        let sim = self.pipeline.simulator();
        let mut accuracy = Accuracy::default();
        for w in &self.workloads {
            let sampler = StemRootSampler::new(self.config.clone());
            let total = sim.run_full_total(w, serial());
            let summary = evaluate_total_par(&sampler, w, sim, total, ACCURACY_REPS, self.seed, serial());
            for r in &summary.results {
                accuracy.push(r.error_pct, r.speedup, r.predicted_error_pct);
            }
        }
        Ok(accuracy)
    }

    fn probe(&mut self, tracer: &Tracer) -> Result<(), String> {
        let sim = self.pipeline.simulator();
        for (w, tr) in self.workloads.iter().zip(&self.last_trace) {
            probe_stem_layers(tracer, &self.config, w, &tr.cold_plan)?;
            // Replays the sampled simulations `evaluate_total_par` ran,
            // through one shared memo cache as it does.
            let cache = SimCache::new();
            for (plan, rep) in tr.warm_plans.iter().zip(&tr.summary.results) {
                let run = tracer.time("sim.sampled", || {
                    sim.run_sampled_cached(w, plan.samples(), serial(), &cache)
                });
                tracer.count("sim.samples", plan.num_samples() as f64);
                if (run.error(tr.total) * 100.0).to_bits() != rep.error_pct.to_bits() {
                    return Err(format!("{}: replayed sampled run differs", w.name()));
                }
            }
            tracer.count("sim.memo_hits", cache.hits() as f64);
            tracer.count("sim.memo_misses", cache.misses() as f64);
            probe_inmem_total(tracer, sim, w, tr.total)?;
        }
        Ok(())
    }
}

// -------------------------------------------------------------- dse-sweep

/// GPU presets whose Table 4 variants the sweep simulates.
fn dse_presets() -> Vec<GpuConfig> {
    vec![GpuConfig::macsim_baseline(), GpuConfig::rtx2080(), GpuConfig::h100()]
}

pub struct DseSweep {
    seed: u64,
    config: StemConfig,
    workloads: Vec<Workload>,
    plans: Vec<SamplingPlan>,
    variants: Vec<Simulator>,
    last_totals: Vec<f64>,
}

impl DseSweep {
    pub fn setup(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let workloads = tracer.time("workload", || casio_suite(seed));
        let config = StemConfig::paper();
        let mut plans = Vec::with_capacity(workloads.len());
        for w in &workloads {
            tracer.count("workload.invocations", w.num_invocations() as f64);
            let sampler = StemRootSampler::new(config.clone());
            plans.push(tracer.time("plan.cold", || sampler.plan(w, seed)));
            tracer.count("plan.calls", 1.0);
        }
        let variants = dse_presets()
            .iter()
            .flat_map(|p| DseTransform::TABLE4.iter().map(|&t| Simulator::new(p.with_transform(t))))
            .collect();
        Ok(DseSweep { seed, config, workloads, plans, variants, last_totals: Vec::new() })
    }
}

impl Bench for DseSweep {
    /// One job per hardware variant: every CASIO workload's sampled run
    /// and streamed ground truth on that variant — one design point of
    /// the sweep.
    fn pass(&mut self, tracer: &Tracer) -> PassOut {
        let mut out = PassOut::new();
        let mut totals = Vec::new();
        for sim in &self.variants {
            let t = Instant::now();
            let result = guarded(|| {
                let mut runs = Vec::with_capacity(self.workloads.len());
                for (w, plan) in self.workloads.iter().zip(&self.plans) {
                    // A cold cache per variant: the hardware changed.
                    let cache = SimCache::new();
                    let run = tracer.time("sim.sampled", || {
                        sim.run_sampled_cached(w, plan.samples(), serial(), &cache)
                    });
                    tracer.count("sim.samples", plan.num_samples() as f64);
                    tracer.count("sim.memo_hits", cache.hits() as f64);
                    tracer.count("sim.memo_misses", cache.misses() as f64);
                    let total = tracer.time("sim.ground_truth", || streamed_total(sim, w))?;
                    tracer.count("sim.ground_truth.invocations", w.num_invocations() as f64);
                    runs.push((run, total));
                }
                Ok(runs)
            });
            out.job(t);
            match result {
                Ok(runs) => {
                    for (run, total) in runs {
                        out.digest.f64(run.estimated_total_cycles);
                        out.digest.f64(total);
                        out.digest.f64(run.error(total));
                        totals.push(total);
                    }
                }
                Err(e) => {
                    out.fail(&e);
                    totals.resize(totals.len() + self.workloads.len(), f64::NAN);
                }
            }
        }
        self.last_totals = totals;
        out
    }

    /// STEM's accuracy over [`DSE_ACCURACY_SUITES`] CASIO suites (the
    /// pass's and fresh ones at derived seeds) and
    /// [`DSE_ACCURACY_PLANS`] plans per workload, each plan replayed on
    /// every variant. Ground truth comes from the in-memory fold, which
    /// the probe checks against the streamed one.
    fn accuracy(&mut self) -> Result<Accuracy, String> {
        let mut accuracy = Accuracy::default();
        for s in 0..DSE_ACCURACY_SUITES {
            let suite_seed = self.seed.wrapping_add(s.wrapping_mul(0x51_7cc1_b727_220a));
            let fresh;
            let suite = if s == 0 {
                &self.workloads
            } else {
                fresh = casio_suite(suite_seed);
                &fresh
            };
            for w in suite {
                let totals: Vec<f64> =
                    self.variants.iter().map(|sim| sim.run_full_total(w, serial())).collect();
                let sampler = StemRootSampler::new(self.config.clone());
                for k in 0..DSE_ACCURACY_PLANS {
                    let plan = sampler.plan(w, rep_seed(suite_seed, k));
                    for (sim, &total) in self.variants.iter().zip(&totals) {
                        let run = sim.run_sampled(w, plan.samples());
                        let predicted = plan.predicted_error() * 100.0;
                        accuracy.push(run.error(total) * 100.0, run.speedup(total), predicted);
                    }
                }
            }
        }
        Ok(accuracy)
    }

    fn probe(&mut self, tracer: &Tracer) -> Result<(), String> {
        for (w, plan) in self.workloads.iter().zip(&self.plans) {
            probe_stem_layers(tracer, &self.config, w, plan)?;
        }
        let jobs = self.variants.iter().flat_map(|s| self.workloads.iter().map(move |w| (s, w)));
        for ((sim, w), &total) in jobs.zip(&self.last_totals) {
            probe_inmem_total(tracer, sim, w, total)?;
        }
        Ok(())
    }
}

// ------------------------------------------------------ coverage-campaign

type Generator = fn(u64) -> Workload;

/// The calibration matrix's scenario roster, in its row order: label,
/// generator, and whether the scenario is clean (gets an RSS/STEM
/// cross-check row).
fn roster() -> Vec<(&'static str, Generator, bool)> {
    fn pick(suite: Vec<Workload>, name: &str) -> Workload {
        let found = suite.into_iter().find(|w| w.name() == name);
        found.unwrap_or_else(|| panic!("{name} missing from its suite"))
    }
    fn srad(seed: u64) -> Workload {
        pick(rodinia_suite(seed), "srad")
    }
    fn ssdrn34(seed: u64) -> Workload {
        pick(casio_suite(seed), "ssdrn34_infer")
    }
    fn bert(seed: u64) -> Workload {
        pick(huggingface_suite(seed, HuggingfaceScale::custom(0.002)), "bert")
    }
    fn drift(seed: u64) -> Workload {
        phase_drift(seed).materialize()
    }
    fn bursty(seed: u64) -> Workload {
        bursty_interference(seed).materialize()
    }
    fn longtail(seed: u64) -> Workload {
        longtail_skew(seed).materialize()
    }
    vec![
        ("rodinia/srad", srad, true),
        ("casio/ssdrn34_infer", ssdrn34, true),
        ("hf/bert", bert, true),
        ("adv/phase_drift", drift, false),
        ("adv/bursty_interference", bursty, false),
        ("adv/longtail_skew", longtail, false),
    ]
}

fn plan_span(method: MethodKind) -> &'static str {
    match method {
        MethodKind::Pka => "baselines.pka.plan",
        MethodKind::Sieve => "baselines.sieve.plan",
        MethodKind::Photon => "baselines.photon.plan",
        MethodKind::Rss => "baselines.rss.plan",
        MethodKind::TwoPhase => "baselines.two_phase.plan",
        MethodKind::Stem => "baselines.stem.plan",
        MethodKind::Random | MethodKind::TbPoint => "baselines.other.plan",
    }
}

/// The same `|estimate − truth| ≤ half·truth` rule the matrix scores with.
fn covers(estimate: f64, half: f64, truth: f64) -> bool {
    (estimate - truth).abs() <= half * truth + 1e-9 * truth
}

struct RepOutcome {
    covered: Vec<bool>,
    overlap: bool,
    chaos: Option<bool>,
}

pub struct CoverageCampaign {
    seed: u64,
    committed: String,
    /// Digest of the last pass, which the probe's reconstruction of the
    /// matrix must reproduce.
    last_digest: Option<Digest>,
}

impl CoverageCampaign {
    /// Reads the committed summary and materialises each scenario's
    /// first workload (the matrix regenerates every rep's workload
    /// inside its passes).
    pub fn setup(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let committed = std::fs::read_to_string(COMMITTED_COVERAGE)
            .map_err(|e| format!("read {COMMITTED_COVERAGE}: {e}"))?;
        for (_, generate, _) in roster() {
            let w = tracer.time("workload", || generate(seed));
            tracer.count("workload.invocations", w.num_invocations() as f64);
        }
        Ok(CoverageCampaign { seed, committed, last_digest: None })
    }

    /// The options of job `k` of a pass.
    fn job_options(&self, k: u64) -> CoverageOptions {
        CoverageOptions { reps: 1, seed: self.seed.wrapping_add(k) }
    }

    /// One rep of one scenario, from public calls, mirroring the
    /// matrix's own rep: ground truth, profile, every method's plan and
    /// sampled run, and (on phase drift) the chaos-damaged STEM plan.
    fn rep(tracer: &Tracer, options: &CoverageOptions, w: &Workload, r: u32, with_chaos: bool) -> RepOutcome {
        let rep_seed = rep_seed(options.seed, u64::from(r));
        let sim = Simulator::new(GpuConfig::rtx2080());
        let truth = tracer.time("sim.ground_truth", || sim.run_full(w).total_cycles);
        tracer.count("sim.ground_truth.invocations", w.num_invocations() as f64);
        let times = tracer.time("profile", || {
            ExecTimeProfiler::new(GpuConfig::rtx2080(), 0xC0FFEE).profile(w)
        });
        tracer.count("profile.invocations", times.len() as f64);
        let config = StemConfig::paper();
        let mut covered = Vec::new();
        let mut intervals = Vec::new();
        for method in COVERAGE_METHODS {
            let plan = tracer.time(plan_span(method), || {
                build_sampler(method, w, &config).plan(w, rep_seed)
            });
            tracer.count("plan.calls", 1.0);
            let run = tracer.time("sim.sampled", || sim.run_sampled(w, plan.samples()));
            tracer.count("sim.samples", plan.num_samples() as f64);
            let half = if plan.predicted_error() > 0.0 {
                plan.predicted_error()
            } else {
                tracer.time("eval", || derived_half_width(w, &times, &plan))
            };
            covered.push(covers(run.estimated_total_cycles, half, truth));
            intervals.push((run.estimated_total_cycles, half));
        }
        let at = |m: MethodKind| COVERAGE_METHODS.iter().position(|&k| k == m).unwrap_or(0);
        let (rss, stem) = (intervals[at(MethodKind::Rss)], intervals[at(MethodKind::Stem)]);
        let overlap = (rss.0 - stem.0).abs() <= rss.1 * rss.0 + stem.1 * stem.0;
        let chaos = with_chaos.then(|| {
            let records = TraceRecord::sequence(&times);
            let damaged = FaultPlan::new(rep_seed)
                .with(Fault::Drop { fraction: 0.05 })
                .with(Fault::Duplicate { fraction: 0.05 })
                .with(Fault::NanTime { fraction: 0.02 })
                .with(Fault::Reorder { fraction: 0.1 })
                .apply(&records);
            let sampler = StemRootSampler::new(config.clone());
            let planned = tracer.time("baselines.stem.plan", || {
                sampler.plan_from_trace(w, &damaged, rep_seed)
            });
            tracer.count("plan.calls", 1.0);
            planned.ok().is_some_and(|(plan, report)| {
                let run = tracer.time("sim.sampled", || sim.run_sampled(w, plan.samples()));
                !report.is_clean() && covers(run.estimated_total_cycles, plan.predicted_error(), truth)
            })
        });
        RepOutcome { covered, overlap, chaos }
    }

    /// The whole matrix from public calls, regenerating each rep's
    /// workload as the matrix does: a reconstruction of `coverage`, which
    /// runs these steps inside one call.
    fn replica(tracer: &Tracer, options: &CoverageOptions) -> CoverageReport {
        let reps = options.reps;
        let mut cells = Vec::new();
        let mut crosscheck = Vec::new();
        for (scenario, generate, clean) in roster() {
            let with_chaos = scenario == "adv/phase_drift";
            let outcomes: Vec<RepOutcome> = (0..reps)
                .map(|r| {
                    let seed = options.seed.wrapping_add(r as u64);
                    let w = tracer.time("workload", || generate(seed));
                    tracer.count("workload.invocations", w.num_invocations() as f64);
                    Self::rep(tracer, options, &w, r, with_chaos)
                })
                .collect();
            for (mi, method) in COVERAGE_METHODS.iter().enumerate() {
                let covered = outcomes.iter().filter(|o| o.covered[mi]).count() as u32;
                cells.push(CoverageCell {
                    sampler: method.label().to_string(),
                    scenario: scenario.to_string(),
                    covered,
                    reps,
                });
            }
            if clean {
                let overlaps = outcomes.iter().filter(|o| o.overlap).count() as u32;
                crosscheck.push(CrosscheckCell { scenario: scenario.to_string(), overlaps, reps });
            }
            if with_chaos {
                let covered = outcomes.iter().filter(|o| o.chaos == Some(true)).count() as u32;
                cells.push(CoverageCell {
                    sampler: MethodKind::Stem.label().to_string(),
                    scenario: CHAOS_SCENARIO.to_string(),
                    covered,
                    reps,
                });
            }
        }
        CoverageReport { reps, seed: options.seed, cells, crosscheck }
    }
}

impl Bench for CoverageCampaign {
    /// [`COVERAGE_JOBS`] calls of the library's `coverage`. A traced pass
    /// makes the same calls unsplit: the layers inside them are timed by
    /// the probe.
    fn pass(&mut self, _tracer: &Tracer) -> PassOut {
        let mut out = PassOut::new();
        for k in 0..COVERAGE_JOBS {
            let t = Instant::now();
            let result = guarded(|| Ok(coverage(&self.job_options(k))));
            out.job(t);
            match result {
                Ok(report) => out.digest.str(&report.to_json()),
                Err(e) => out.fail(&e),
            }
        }
        self.last_digest = Some(out.digest);
        out
    }

    /// Rebuilds the last pass's matrices from public calls, one span per
    /// layer, and checks that they equal what `coverage` returned.
    fn probe(&mut self, tracer: &Tracer) -> Result<(), String> {
        let mut digest = Digest::default();
        for k in 0..COVERAGE_JOBS {
            digest.str(&Self::replica(tracer, &self.job_options(k)).to_json());
        }
        if Some(digest) != self.last_digest {
            return Err("the reconstructed matrix differs from coverage()".to_string());
        }
        Ok(())
    }

    /// Runs the matrix once at its committed settings, which must
    /// reproduce `coverage_summary.json` byte for byte; STEM's interval
    /// tallies come from it. STEM's errors and speedups come from its
    /// own runs on the matrix's scenarios at the run's seed, rep for rep
    /// as the matrix draws them, over [`COVERAGE_ACCURACY_REPS`] reps:
    /// the matrix reports only tallies.
    fn accuracy(&mut self) -> Result<Accuracy, String> {
        let calibration = coverage(&CoverageOptions::calibration());
        if calibration.to_json() != self.committed {
            return Err(format!("the calibration matrix differs from {COMMITTED_COVERAGE}"));
        }
        let mut accuracy = Accuracy::default();
        for c in calibration.cells.iter().filter(|c| c.sampler == MethodKind::Stem.label()) {
            accuracy.push_tally(u64::from(c.covered), u64::from(c.reps));
        }
        let sim = Simulator::new(GpuConfig::rtx2080());
        let config = StemConfig::paper();
        for (_, generate, _) in roster() {
            for r in 0..COVERAGE_ACCURACY_REPS {
                let w = generate(self.seed.wrapping_add(r as u64));
                let truth = sim.run_full(&w).total_cycles;
                let seed = rep_seed(self.seed, u64::from(r));
                let plan = build_sampler(MethodKind::Stem, &w, &config).plan(&w, seed);
                let run = sim.run_sampled(&w, plan.samples());
                accuracy.push_error(run.error(truth) * 100.0, run.speedup(truth));
            }
        }
        Ok(accuracy)
    }
}
