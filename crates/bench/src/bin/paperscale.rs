//! Paper-scale out-of-core benchmark: generates the three suites at the
//! paper's HuggingFace scale as *block streams* and runs the streamed
//! ground-truth executor straight off the generators — recording wall
//! time and peak RSS (`VmHWM`) per section so the flat-memory claim is
//! machine-checkable.
//!
//! Usage:
//!
//! ```text
//! cargo run -p stem-bench --release --bin paperscale -- \
//!     [--hf-scale 1.0] [--seed 2025] [--threads 1,4] \
//!     [--mode streamed|in-memory] [--out BENCH_paperscale.json]
//! ```
//!
//! `--mode streamed` (default) never materializes a workload: every
//! section runs off block streams, so peak RSS stays a few blocks no
//! matter the scale. `--mode in-memory` materializes each suite and runs
//! the in-memory grouped fold (`run_full_total`) — run it as a *separate
//! process* to get the before/after peak-RSS comparison, since `VmHWM`
//! is process-wide and monotonic.
//!
//! The bin asserts the streamed totals are bit-identical at every thread
//! count (and, in in-memory mode, identical to the in-memory fold), so the
//! benchmark doubles as a paper-scale equivalence gate.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use gpu_workload::suites::HuggingfaceScale;
use gpu_workload::{SuiteKind, DEFAULT_BLOCK_LEN};
use stem_bench::harness::ExperimentOptions;
use stem_bench::memuse::peak_rss_kb;
use stem_core::{SnapshotError, StemConfig, StemError};
use stem_storage::RealFs;

const SUITES: [(SuiteKind, &str); 3] = [
    (SuiteKind::Rodinia, "rodinia"),
    (SuiteKind::Casio, "casio"),
    (SuiteKind::Huggingface, "huggingface"),
];

struct Section {
    name: String,
    threads: usize,
    wall_ns: u128,
    units: u64,
    peak_rss_kb: u64,
}

impl Section {
    fn units_per_s(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.units as f64 / (self.wall_ns as f64 / 1e9)
    }
}

struct Args {
    hf_scale: f64,
    seed: u64,
    threads: Vec<usize>,
    mode: String,
    out: String,
}

fn parse_args() -> Result<Args, StemError> {
    let mut parsed = Args {
        hf_scale: 1.0,
        seed: 2025,
        threads: vec![1, 4],
        mode: "streamed".to_string(),
        out: "BENCH_paperscale.json".to_string(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> Result<&str, StemError> {
            args.get(i + 1).map(String::as_str).ok_or_else(|| {
                StemError::InvalidConfig(format!("missing value after {}", args[i]))
            })
        };
        match args[i].as_str() {
            "--hf-scale" => {
                let raw = need(i)?;
                parsed.hf_scale = raw.parse().map_err(|_| {
                    StemError::InvalidConfig(format!("--hf-scale takes a float, got {raw:?}"))
                })?;
            }
            "--seed" => {
                let raw = need(i)?;
                parsed.seed = raw.parse().map_err(|_| {
                    StemError::InvalidConfig(format!("--seed takes a u64, got {raw:?}"))
                })?;
            }
            "--threads" => {
                let raw = need(i)?;
                parsed.threads = raw
                    .split(',')
                    .map(|t| {
                        t.trim().parse::<usize>().map_err(|_| {
                            StemError::InvalidConfig(format!(
                                "--threads takes a comma list of counts, got {raw:?}"
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?;
                if parsed.threads.is_empty() {
                    return Err(StemError::InvalidConfig(
                        "--threads needs at least one count".to_string(),
                    ));
                }
            }
            "--mode" => {
                let raw = need(i)?;
                if raw != "streamed" && raw != "in-memory" {
                    return Err(StemError::InvalidConfig(format!(
                        "--mode is streamed or in-memory, got {raw:?}"
                    )));
                }
                parsed.mode = raw.to_string();
            }
            "--out" => parsed.out = need(i)?.to_string(),
            other => {
                return Err(StemError::InvalidConfig(format!("unknown option {other}")));
            }
        }
        i += 2;
    }
    Ok(parsed)
}

fn ground_truth(e: impl std::fmt::Display) -> StemError {
    StemError::GroundTruth(e.to_string())
}

fn log_section(s: &Section) {
    eprintln!(
        "paperscale: {:<42} t={} {:>12.3} ms  {:>14.0} units/s  rss {:>9} kB",
        s.name,
        s.threads,
        s.wall_ns as f64 / 1e6,
        s.units_per_s(),
        s.peak_rss_kb
    );
}

fn run_streamed(args: &Args, options: &ExperimentOptions) -> Result<Vec<Section>, StemError> {
    let sim = options.simulator();
    let mut sections = Vec::new();

    for (kind, suite_name) in SUITES {
        let sources = options.suite_sources(kind);

        // Streamed ground truth from the generators at each thread count,
        // cross-checked bitwise across thread counts.
        let mut reference_bits: Option<Vec<u64>> = None;
        for &threads in &args.threads {
            let par = stem_par::Parallelism::with_threads(threads);

            let t = Instant::now();
            let mut gen_totals = Vec::with_capacity(sources.len());
            let mut units = 0_u64;
            for source in &sources {
                let total = gpu_sim::source_total(
                    &sim,
                    par,
                    source,
                    DEFAULT_BLOCK_LEN,
                    gpu_sim::DEFAULT_CHANNEL_BLOCKS,
                )
                .map_err(ground_truth)?;
                units += total.invocations;
                gen_totals.push(total.total_cycles.to_bits());
            }
            let s = Section {
                name: format!("{suite_name}/ground_truth_stream_generate"),
                threads,
                wall_ns: t.elapsed().as_nanos(),
                units,
                peak_rss_kb: peak_rss_kb(),
            };
            log_section(&s);
            sections.push(s);

            match &reference_bits {
                None => reference_bits = Some(gen_totals),
                Some(reference) => assert_eq!(
                    reference, &gen_totals,
                    "{suite_name}: totals moved with thread count"
                ),
            }
        }
    }
    Ok(sections)
}

fn run_in_memory(args: &Args, options: &ExperimentOptions) -> Result<Vec<Section>, StemError> {
    let sim = options.simulator();
    let mut sections = Vec::new();
    for (kind, suite_name) in SUITES {
        // The in-memory path: materialize the whole suite, then fold
        // each workload's total in memory. Peak RSS scales with suite
        // size here — the "before" column of the flat-memory table.
        let t = Instant::now();
        let workloads = options.suite(kind);
        let invocations: u64 = workloads.iter().map(|w| w.num_invocations() as u64).sum();
        let s = Section {
            name: format!("{suite_name}/materialize"),
            threads: 1,
            wall_ns: t.elapsed().as_nanos(),
            units: invocations,
            peak_rss_kb: peak_rss_kb(),
        };
        log_section(&s);
        sections.push(s);

        for &threads in &args.threads {
            let par = stem_par::Parallelism::with_threads(threads);
            let t = Instant::now();
            let mut totals = Vec::with_capacity(workloads.len());
            for w in &workloads {
                totals.push(sim.run_full_total(w, par));
            }
            let streamed: Vec<f64> = workloads
                .iter()
                .map(|w| {
                    gpu_sim::workload_total(
                        &sim,
                        par,
                        w,
                        DEFAULT_BLOCK_LEN,
                        gpu_sim::DEFAULT_CHANNEL_BLOCKS,
                    )
                    .map(|t| t.total_cycles)
                })
                .collect::<Result<_, _>>()
                .map_err(ground_truth)?;
            for (a, b) in totals.iter().zip(&streamed) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{suite_name}: streamed total diverged from reference at {threads} threads"
                );
            }
            let s = Section {
                name: format!("{suite_name}/ground_truth_in_memory"),
                threads,
                wall_ns: t.elapsed().as_nanos(),
                units: invocations,
                peak_rss_kb: peak_rss_kb(),
            };
            log_section(&s);
            sections.push(s);
        }
    }
    Ok(sections)
}

fn run() -> Result<(), StemError> {
    let args = parse_args()?;
    let mut options = ExperimentOptions::default_repro();
    options.seed = args.seed;
    options.hf_scale = HuggingfaceScale::custom(args.hf_scale);
    options.stem_config = StemConfig::paper();

    eprintln!(
        "paperscale: mode={} hf_scale={} seed={} threads={:?} block_len={}",
        args.mode, args.hf_scale, args.seed, args.threads, DEFAULT_BLOCK_LEN,
    );

    let wall = Instant::now();
    let sections = if args.mode == "streamed" {
        run_streamed(&args, &options)?
    } else {
        run_in_memory(&args, &options)?
    };
    let total_ns = wall.elapsed().as_nanos();

    // Hand-rolled JSON (the workspace is hermetic: no serde).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"paperscale\",\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", args.mode));
    json.push_str(&format!("  \"hf_scale\": {},\n", args.hf_scale));
    json.push_str(&format!("  \"seed\": {},\n", args.seed));
    json.push_str(&format!("  \"block_len\": {DEFAULT_BLOCK_LEN},\n"));
    json.push_str(&format!(
        "  \"channel_blocks\": {},\n",
        gpu_sim::DEFAULT_CHANNEL_BLOCKS
    ));
    json.push_str(&format!(
        "  \"threads\": [{}],\n",
        args.threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!("  \"total_wall_ns\": {total_ns},\n"));
    json.push_str("  \"sections\": [\n");
    for (i, s) in sections.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"threads\": {}, \"wall_ns\": {}, \"units\": {}, \
             \"units_per_s\": {:.1}, \"peak_rss_kb\": {}}}{}\n",
            s.name,
            s.threads,
            s.wall_ns,
            s.units,
            s.units_per_s(),
            s.peak_rss_kb,
            if i + 1 < sections.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    stem_storage::write_atomic(&RealFs, Path::new(&args.out), &json)
        .map_err(|e| StemError::Snapshot(SnapshotError::Io(e)))?;
    eprintln!(
        "paperscale: total {:.3} s -> {}",
        total_ns as f64 / 1e9,
        args.out
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("paperscale: {e}");
            ExitCode::from(2)
        }
    }
}
