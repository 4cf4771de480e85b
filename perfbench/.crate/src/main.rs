//! End-to-end and per-layer benchmark of the STEM+ROOT workspace.
//!
//! ```text
//! stem-perfbench --workload <hf-stem|dse-sweep|coverage-campaign>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets the workload up five times (the median is `setup_s`),
//! then repeats passes of it for `--seconds`. Every time it reports is
//! in reference seconds (see [`calib`]): wall time scaled by the host's
//! speed, measured by a fixed loop right before and after the work, so
//! that runs on a shared host whose speed drifts can be compared. With
//! `--trace 0` it prints the end-to-end metrics of untraced passes.
//! With `--trace 1` it spends half the time on untraced passes and half
//! on traced ones, runs the reference probes, and prints the per-layer
//! metrics. Every pass folds
//! the bits of its results into a digest; the run fails if two passes,
//! or the traced and untraced passes, disagree. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`.
//!
//! Every run also sets the workload up afresh at [`REFERENCE_SEED`],
//! runs one untraced pass and compares its digest with the one committed
//! in `perfbench/reference_digests.txt`. Runs at different seeds compute
//! different results, so this fixed-seed pass is what every two runs of
//! a set have in common: a change that alters any result bit fails it.

mod batch;
mod calib;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::HostClock;
use trace::{Digest, Tracer};

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
/// Fewest passes per phase, so that digests can be compared.
const MIN_PASSES: usize = 2;
/// Seed of the reference pass every run makes after its timed passes.
const REFERENCE_SEED: u64 = 2025;
/// `<workload> <seed> <digest in hex>` per line: the digest one untraced
/// pass of the workload gives at that seed.
const REFERENCE_DIGESTS: &str = include_str!("../../reference_digests.txt");

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mean_error_pct", "%"),
    ("sim_speedup_x", "x"),
    ("stem_coverage_pct", "%"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
];

/// Per-layer metrics, printed with `--trace 1`; a layer a workload does
/// not use reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("workload.generate_s", "s"),
    ("workload.invocations", "count"),
    ("workload.minv_per_s", "Minv/s"),
    ("profile.busy_s", "s"),
    ("profile.invocations", "count"),
    ("root.busy_s", "s"),
    ("root.groups", "count"),
    ("root.clusters", "count"),
    ("kkt.busy_s", "s"),
    ("kkt.samples", "count"),
    ("plan.cold_s", "s"),
    ("plan.warm_s", "s"),
    ("plan.calls", "count"),
    ("sim.sampled_s", "s"),
    ("sim.samples", "count"),
    ("sim.memo_hit_ratio", "ratio"),
    ("sim.ground_truth_s", "s"),
    ("sim.ground_truth_minv_per_s", "Minv/s"),
    ("sim.ground_truth_inmem_s", "s"),
    ("sim.stream_overhead_ratio", "ratio"),
    ("eval.self_s", "s"),
    ("baselines.pka.plan_s", "s"),
    ("baselines.sieve.plan_s", "s"),
    ("baselines.photon.plan_s", "s"),
    ("baselines.rss.plan_s", "s"),
    ("baselines.two_phase.plan_s", "s"),
    ("baselines.stem.plan_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.overhead_s", "s"),
    ("failed_frac", "ratio"),
    ("trace.spans", "count"),
];

/// STEM's simulated-cycle accuracy over a set of results.
#[derive(Debug, Clone, Default)]
pub struct Accuracy {
    error_sum: f64,
    errors: u64,
    recip_speedup_sum: f64,
    covered: u64,
    intervals: u64,
}

impl Accuracy {
    /// One repetition: its error, speedup and reported error bound.
    pub fn push(&mut self, error_pct: f64, speedup: f64, predicted_pct: f64) {
        self.push_error(error_pct, speedup);
        self.push_tally(u64::from(error_pct <= predicted_pct + 1e-7), 1);
    }

    pub fn push_error(&mut self, error_pct: f64, speedup: f64) {
        self.error_sum += error_pct;
        self.errors += 1;
        self.recip_speedup_sum += 1.0 / speedup;
    }

    pub fn push_tally(&mut self, covered: u64, intervals: u64) {
        self.covered += covered;
        self.intervals += intervals;
    }

    fn mean_error_pct(&self) -> f64 {
        self.error_sum / self.errors as f64
    }

    fn harmonic_speedup(&self) -> f64 {
        self.errors as f64 / self.recip_speedup_sum
    }

    fn coverage_pct(&self) -> f64 {
        100.0 * self.covered as f64 / self.intervals as f64
    }
}

/// What one pass produced.
#[derive(Debug)]
pub struct PassOut {
    pub digest: Digest,
    /// Latency of each job in reference ms; infinite for a failed job.
    pub job_ms: Vec<f64>,
    /// Wall time of the pass's jobs, s.
    pub wall_s: f64,
    /// The same in reference seconds.
    pub ref_s: f64,
    pub attempted: u64,
    pub failed: u64,
    clock: HostClock,
}

impl PassOut {
    /// Calibrates the host clock for the pass's first job.
    pub fn new() -> Self {
        PassOut {
            digest: Digest::default(),
            job_ms: Vec::new(),
            wall_s: 0.0,
            ref_s: 0.0,
            attempted: 0,
            failed: 0,
            clock: HostClock::new(),
        }
    }

    /// Records one attempted job that started at `start`, after the
    /// previous job was recorded.
    pub fn job(&mut self, start: Instant) {
        let wall = start.elapsed();
        let ref_s = self.clock.scale(wall);
        self.job_ms.push(ref_s * 1e3);
        self.wall_s += wall.as_secs_f64();
        self.ref_s += ref_s;
        self.attempted += 1;
    }

    /// Counts the last job as failed: its latency misses every limit, and
    /// the message goes to standard error and into the digest, so a
    /// failure can never look like a clean pass.
    pub fn fail(&mut self, message: &str) {
        eprintln!("perfbench: failed: {message}");
        self.failed += 1;
        self.digest.str(message);
        if let Some(last) = self.job_ms.last_mut() {
            *last = f64::INFINITY;
        }
    }
}

/// One workload, set up and ready for passes.
pub trait Bench {
    /// Runs one pass. A traced pass (`tracer.enabled()`) makes the same
    /// calls, split into spans where they are not one library call, and
    /// must give the same digest.
    fn pass(&mut self, tracer: &Tracer) -> PassOut;

    /// Reference calls timed after the traced passes, outside their wall
    /// time: layers that run inside one opaque library call.
    fn probe(&mut self, _tracer: &Tracer) -> Result<(), String> {
        Ok(())
    }

    /// STEM's accuracy, evaluated after the untraced passes on a larger
    /// sample than one pass holds.
    fn accuracy(&mut self) -> Result<Accuracy, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2025,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value after {flag}"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn setup(workload: &str, seed: u64, tracer: &Tracer) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        "hf-stem" => Box::new(batch::HfStem::setup(seed, tracer)?),
        "dse-sweep" => Box::new(batch::DseSweep::setup(seed, tracer)?),
        "coverage-campaign" => Box::new(batch::CoverageCampaign::setup(seed, tracer)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// The committed digest of one untraced pass of `workload` at `seed`.
fn committed_digest(workload: &str, seed: u64) -> Option<u64> {
    REFERENCE_DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let hit = f.next() == Some(workload) && f.next() == Some(&seed.to_string());
        hit.then(|| f.next().and_then(|d| u64::from_str_radix(d, 16).ok())).flatten()
    })
}

/// Sets the workload up at [`REFERENCE_SEED`], runs one untraced pass and
/// checks its digest against the committed one.
fn reference_check(workload: &str) -> Result<(), String> {
    let off = Tracer::new(false);
    let mut bench = setup(workload, REFERENCE_SEED, &off)?;
    let out = bench.pass(&off);
    let got = out.digest.value();
    eprintln!("perfbench: digest {workload} seed {REFERENCE_SEED} {got:016x} (reference pass)");
    if out.failed > 0 {
        return Err(format!("{} of {} reference jobs failed", out.failed, out.attempted));
    }
    match committed_digest(workload, REFERENCE_SEED) {
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!(
            "reference digest {got:016x} differs from the committed {want:016x}"
        )),
        None => Err(format!("no committed reference digest for {workload}")),
    }
}

/// Median, averaging the two middle values of an even count.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Jobs per latency window: enough that ten lie beyond the 95th
/// percentile.
const WINDOW_JOBS: usize = 200;

/// A 95th latency percentile that a few slow seconds of a shared host
/// cannot move much: the median of the percentile over consecutive windows of
/// [`WINDOW_JOBS`] jobs (the last window takes the remainder). With fewer
/// than two windows' worth of jobs, the percentile of all of them.
fn windowed_p95(job_ms: &[f64]) -> f64 {
    let windows = job_ms.len() / WINDOW_JOBS;
    if windows < 2 {
        return percentile(job_ms, 95.0);
    }
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { job_ms.len() } else { (w + 1) * WINDOW_JOBS };
            percentile(&job_ms[w * WINDOW_JOBS..end], 95.0)
        })
        .collect();
    median(&per_window)
}

/// Passes of one phase. Times are in reference seconds.
#[derive(Default)]
struct Phase {
    walls: Vec<f64>,
    /// Jobs completed per second of each pass.
    jobs_per_s: Vec<f64>,
    /// Median job latency of each pass.
    job_p50_ms: Vec<f64>,
    job_ms: Vec<f64>,
    digests: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Per traced pass: self time per span name, counters, residual.
    layers: Vec<BTreeMap<&'static str, f64>>,
    counters: Vec<BTreeMap<&'static str, f64>>,
    residuals: Vec<f64>,
    spans: Vec<f64>,
    /// Peak RSS of the process after the phase's first [`MIN_PASSES`]
    /// passes, MB.
    peak_rss_mb: f64,
}

fn run_phase(bench: &mut dyn Bench, tracer: &Tracer, budget: Duration) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    while phase.walls.len() < MIN_PASSES || start.elapsed() < budget {
        let group = tracer.begin_group();
        let out = bench.pass(tracer);
        // A pass is its jobs; the calibrations between them are not.
        let wall = out.ref_s;
        eprintln!(
            "perfbench: {} pass {} {wall:.4} reference s, wall {:.4} s",
            if tracer.enabled() { "traced" } else { "untraced" },
            phase.walls.len() + 1,
            out.wall_s
        );
        phase.walls.push(wall);
        let completed = out.job_ms.iter().filter(|ms| ms.is_finite()).count();
        phase.jobs_per_s.push(completed as f64 / wall);
        phase.job_p50_ms.push(median(&out.job_ms));
        phase.job_ms.extend(&out.job_ms);
        phase.digests.push(out.digest.value());
        phase.attempted += out.attempted;
        phase.failed += out.failed;
        // After a fixed amount of work, not after as many passes as the
        // host's speed allowed: the peak creeps up by a few MB over a
        // run's passes. Nothing but set-up and passes has run yet; the
        // accuracy evaluation and the reference pass hold inputs of
        // their own.
        if phase.walls.len() == MIN_PASSES {
            phase.peak_rss_mb = stem_bench::memuse::peak_rss_kb() as f64 / 1024.0;
        }
        if tracer.enabled() {
            let selfs = scaled(tracer.self_times(group), wall, out.wall_s);
            phase.residuals.push(wall - selfs.values().sum::<f64>());
            phase.spans.push(tracer.span_count(group) as f64);
            phase.layers.push(selfs);
            phase.counters.push(tracer.counters());
        }
    }
    phase
}

/// Median over passes of one key; `None` when no pass has it.
fn median_of(maps: &[BTreeMap<&'static str, f64>], key: &str) -> Option<f64> {
    let v: Vec<f64> = maps.iter().filter_map(|m| m.get(key).copied()).collect();
    (!v.is_empty()).then(|| median(&v))
}

/// Span self times, measured in wall seconds, converted to reference
/// seconds at the rate of the work they belong to: `ref_s` reference
/// seconds for `wall_s` wall seconds.
fn scaled(times: BTreeMap<&'static str, f64>, ref_s: f64, wall_s: f64) -> BTreeMap<&'static str, f64> {
    let rate = if wall_s > 0.0 { ref_s / wall_s } else { 1.0 };
    times.into_iter().map(|(name, t)| (name, t * rate)).collect()
}

/// Self times and counters of one group of spans outside the passes:
/// the set-up round kept, or the probe round. Times are in reference
/// seconds.
#[derive(Default)]
struct Round {
    layers: BTreeMap<&'static str, f64>,
    counters: BTreeMap<&'static str, f64>,
    /// Time of the round minus its spans' self time.
    residual: f64,
    spans: f64,
}

impl Round {
    /// Closes a round that took `wall`, or `ref_s` reference seconds.
    fn close(tracer: &Tracer, group: u64, wall: Duration, ref_s: f64) -> Round {
        let layers = scaled(tracer.self_times(group), ref_s, wall.as_secs_f64());
        let residual = ref_s - layers.values().sum::<f64>();
        Round { counters: tracer.counters(), spans: tracer.span_count(group) as f64, layers, residual }
    }
}

fn per_layer(traced: &Phase, untraced: &Phase, setup: &Round, probe: &Round) -> BTreeMap<&'static str, f64> {
    // A layer's time per pass: from the traced passes when the pass
    // calls it, else from the probe, else from set-up.
    let time = |span: &str| {
        median_of(&traced.layers, span)
            .or_else(|| probe.layers.get(span).copied())
            .or_else(|| setup.layers.get(span).copied())
            .unwrap_or(0.0)
    };
    let count = |key: &str| {
        median_of(&traced.counters, key)
            .or_else(|| probe.counters.get(key).copied())
            .or_else(|| setup.counters.get(key).copied())
            .unwrap_or(0.0)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = BTreeMap::new();
    let generate_s = time("workload");
    let invocations = count("workload.invocations");
    m.insert("workload.generate_s", generate_s);
    m.insert("workload.invocations", invocations);
    m.insert("workload.minv_per_s", ratio(invocations / 1e6, generate_s));
    m.insert("profile.busy_s", time("profile"));
    m.insert("profile.invocations", count("profile.invocations"));
    m.insert("root.busy_s", time("root"));
    m.insert("root.groups", count("root.groups"));
    m.insert("root.clusters", count("root.clusters"));
    m.insert("kkt.busy_s", time("kkt"));
    m.insert("kkt.samples", count("kkt.samples"));
    m.insert("plan.cold_s", time("plan.cold"));
    m.insert("plan.warm_s", time("plan.warm"));
    m.insert("plan.calls", count("plan.calls"));
    m.insert("sim.sampled_s", time("sim.sampled"));
    m.insert("sim.samples", count("sim.samples"));
    let (hits, misses) = (count("sim.memo_hits"), count("sim.memo_misses"));
    m.insert("sim.memo_hit_ratio", ratio(hits, hits + misses));
    let gt = time("sim.ground_truth");
    let inmem = time("sim.ground_truth_inmem");
    m.insert("sim.ground_truth_s", gt);
    m.insert("sim.ground_truth_minv_per_s", ratio(count("sim.ground_truth.invocations") / 1e6, gt));
    m.insert("sim.ground_truth_inmem_s", inmem);
    m.insert("sim.stream_overhead_ratio", ratio(gt, inmem));
    m.insert("eval.self_s", time("eval"));
    for (metric, span) in [
        ("baselines.pka.plan_s", "baselines.pka.plan"),
        ("baselines.sieve.plan_s", "baselines.sieve.plan"),
        ("baselines.photon.plan_s", "baselines.photon.plan"),
        ("baselines.rss.plan_s", "baselines.rss.plan"),
        ("baselines.two_phase.plan_s", "baselines.two_phase.plan"),
        ("baselines.stem.plan_s", "baselines.stem.plan"),
    ] {
        m.insert(metric, time(span));
    }
    // A workload whose pass is one opaque library call records no spans
    // in it; its layers, residual and span count come from the probe,
    // which makes the same computation from public calls.
    if median(&traced.spans) > 0.0 {
        m.insert("trace.spans", median(&traced.spans));
        m.insert("trace.residual_s", median(&traced.residuals));
    } else {
        m.insert("trace.spans", probe.spans);
        m.insert("trace.residual_s", probe.residual);
    }
    m.insert("trace.overhead_s", median(&traced.walls) - median(&untraced.walls));
    let attempted = traced.attempted + untraced.attempted;
    let failed = traced.failed + untraced.failed;
    m.insert("failed_frac", ratio(failed as f64, attempted as f64));
    m
}

fn end_to_end(phase: &Phase, setup_s: &[f64], peak_rss_mb: f64, accuracy: &Accuracy) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("wall_s", median(&phase.walls));
    m.insert("setup_s", median(setup_s));
    m.insert("peak_rss_mb", peak_rss_mb);
    m.insert("mean_error_pct", accuracy.mean_error_pct());
    m.insert("sim_speedup_x", accuracy.harmonic_speedup());
    m.insert("stem_coverage_pct", accuracy.coverage_pct());
    m.insert("jobs_per_s", median(&phase.jobs_per_s));
    // Per pass, not per window: the six `hf-stem` jobs of a pass are six
    // models of different sizes, so over many passes the 50th percentile
    // falls in the gap between the third and fourth model and jumps
    // between their extremes. A pass's median averages the two.
    m.insert("job_p50_ms", median(&phase.job_p50_ms));
    m.insert("job_p95_ms", windowed_p95(&phase.job_ms));
    m
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    // Every workload runs single-threaded, including library calls that
    // size their thread pool from the environment.
    std::env::set_var("STEM_THREADS", "1");
    let work_dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()),
    )
    .join("perfbench");
    let tracer = Tracer::new(args.trace);
    let off = Tracer::new(false);

    let mut setup_s = Vec::new();
    let mut setup_round = Round::default();
    let mut bench: Option<Box<dyn Bench>> = None;
    for _ in 0..SETUP_ROUNDS {
        // The previous round's state goes before the next is built, so
        // at most one copy of the inputs is resident.
        drop(bench.take());
        let group = tracer.begin_group();
        let mut clock = HostClock::new();
        let t = Instant::now();
        bench = Some(setup(&args.workload, args.seed, &tracer)?);
        let wall = t.elapsed();
        let ref_s = clock.scale(wall);
        setup_s.push(ref_s);
        setup_round = Round::close(&tracer, group, wall, ref_s);
    }
    let Some(mut bench) = bench else { return Err("no set-up ran".to_string()) };

    let budget = Duration::from_secs_f64(if args.trace { args.seconds / 2.0 } else { args.seconds });
    let untraced = run_phase(bench.as_mut(), &off, budget);
    let peak_rss_mb = untraced.peak_rss_mb;
    let mut digests = untraced.digests.clone();
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let traced = run_phase(bench.as_mut(), &tracer, budget);
        digests.extend(&traced.digests);
        attempted += traced.attempted;
        failed += traced.failed;
        let group = tracer.begin_group();
        attempted += 1;
        let mut clock = HostClock::new();
        let t = Instant::now();
        if let Err(e) = bench.probe(&tracer) {
            eprintln!("perfbench: probe failed: {e}");
            failed += 1;
        }
        let wall = t.elapsed();
        let probe_round = Round::close(&tracer, group, wall, clock.scale(wall));
        let path = work_dir.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        let m = per_layer(&traced, &untraced, &setup_round, &probe_round);
        PER_LAYER.iter().map(|&(name, unit)| (name, unit, m.get(name).copied().unwrap_or(0.0))).collect()
    } else {
        attempted += 1;
        let accuracy = bench.accuracy().unwrap_or_else(|e| {
            eprintln!("perfbench: accuracy evaluation failed: {e}");
            failed += 1;
            Accuracy::default()
        });
        let m = end_to_end(&untraced, &setup_s, peak_rss_mb, &accuracy);
        END_TO_END.iter().map(|&(name, unit)| (name, unit, m.get(name).copied().unwrap_or(0.0))).collect()
    };
    eprintln!("perfbench: digest {} seed {} {:016x}", args.workload, args.seed, digests[0]);

    drop(bench);
    attempted += 1;
    if let Err(e) = reference_check(&args.workload) {
        eprintln!("perfbench: reference check failed: {e}");
        failed += 1;
    }

    let digests_agree = digests.windows(2).all(|w| w[0] == w[1]);
    if !digests_agree {
        eprintln!("perfbench: digest mismatch between passes: {digests:x?}");
        failed += 1;
    }
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    if !finite {
        eprintln!("perfbench: a metric is not finite: {metrics:?}");
    }
    let correct = digests_agree && failed == 0 && finite;
    let shown: Vec<(&str, &str, f64)> =
        metrics.into_iter().map(|(n, u, v)| (n, u, if v.is_finite() { v } else { 0.0 })).collect();
    println!("{}", json_line(correct, attempted, failed, &shown));
    Ok(correct)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
