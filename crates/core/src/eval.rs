//! Evaluation metrics: sampling error (Eq. 1), speedup, and the paper's
//! aggregation conventions (harmonic-mean speedup, arithmetic-mean error —
//! Sec. 4, citing Eeckhout's "RIP geomean speedup").

use crate::plan::SamplingPlan;
use crate::sampler::KernelSampler;
use gpu_sim::{FullRun, SimCache, Simulator};
use gpu_workload::Workload;
use stem_par::Parallelism;

/// One repetition's outcome on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// Method name.
    pub method: String,
    /// Workload name.
    pub workload: String,
    /// Sampling error in percent (Eq. 1).
    pub error_pct: f64,
    /// Speedup over full simulation (full cycles / sampled cycles).
    pub speedup: f64,
    /// Number of sampled invocations.
    pub num_samples: usize,
    /// The method's own theoretical error prediction, percent (0 if none).
    pub predicted_error_pct: f64,
}

/// Aggregated outcome over repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSummary {
    /// Method name.
    pub method: String,
    /// Workload name.
    pub workload: String,
    /// Arithmetic mean of per-rep errors, percent.
    pub mean_error_pct: f64,
    /// Harmonic mean of per-rep speedups.
    pub harmonic_speedup: f64,
    /// All repetitions.
    pub results: Vec<EvalResult>,
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Harmonic mean (the paper's speedup aggregation).
///
/// # Panics
///
/// Panics on an empty slice or nonpositive values.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "harmonic mean of empty slice");
    let recip: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "harmonic mean requires positive values");
            1.0 / v
        })
        .sum();
    values.len() as f64 / recip
}

/// One-pass streaming aggregation of per-rep (error, speedup) pairs.
///
/// Replaces the collect-two-vectors-then-mean pattern: both
/// [`arithmetic_mean`] and [`harmonic_mean`] are plain left-to-right
/// sums, so folding each repetition once, in repetition order, produces
/// bit-identical aggregates without materializing the intermediate
/// vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamingAggregate {
    count: usize,
    error_sum: f64,
    recip_speedup_sum: f64,
}

impl StreamingAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one repetition's error (percent) and speedup.
    ///
    /// # Panics
    ///
    /// Panics if `speedup` is nonpositive (harmonic means require positive
    /// values, exactly as [`harmonic_mean`] enforces).
    pub fn push(&mut self, error_pct: f64, speedup: f64) {
        assert!(speedup > 0.0, "harmonic mean requires positive values");
        self.count += 1;
        self.error_sum += error_pct;
        self.recip_speedup_sum += 1.0 / speedup;
    }

    /// Number of repetitions folded so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean of the folded errors.
    ///
    /// # Panics
    ///
    /// Panics if nothing was folded.
    pub fn mean_error_pct(&self) -> f64 {
        assert!(self.count > 0, "mean of empty slice");
        self.error_sum / self.count as f64
    }

    /// Harmonic mean of the folded speedups.
    ///
    /// # Panics
    ///
    /// Panics if nothing was folded.
    pub fn harmonic_speedup(&self) -> f64 {
        assert!(self.count > 0, "harmonic mean of empty slice");
        self.count as f64 / self.recip_speedup_sum
    }
}

/// Evaluates one sampling method once on one workload against a
/// pre-computed full run — the plain, uncached single-rep oracle the
/// repetition loops are pinned against.
pub fn evaluate_once(
    sampler: &dyn KernelSampler,
    workload: &Workload,
    sim: &Simulator,
    full: &FullRun,
    rep_seed: u64,
) -> EvalResult {
    let plan = sampler.plan(workload, rep_seed);
    let run = sim.run_sampled(workload, plan.samples());
    EvalResult {
        method: sampler.name().to_string(),
        workload: workload.name().to_string(),
        error_pct: run.error(full.total_cycles) * 100.0,
        speedup: run.speedup(full.total_cycles),
        num_samples: plan.num_samples(),
        predicted_error_pct: plan.predicted_error() * 100.0,
    }
}

/// One repetition's measurement: the numeric fields of an
/// [`EvalResult`] (the strings are reproducible from the sampler and
/// workload), which is also what a campaign snapshot persists per unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitRecord {
    /// Measured error of the unit's sampled run, percent.
    pub error_pct: f64,
    /// Simulation speedup of the unit's sampled run.
    pub speedup: f64,
    /// Samples the unit's plan selected.
    pub num_samples: usize,
    /// The plan's predicted error bound, percent.
    pub predicted_error_pct: f64,
}

/// The seed of repetition `rep`: derived from its index alone (never
/// from the worker that ran it or the attempt), so every repetition
/// loop replays the same plans at every thread count.
pub(crate) fn rep_seed(base_seed: u64, rep: u64) -> u64 {
    base_seed.wrapping_add(rep).wrapping_mul(0x9e3779b97f4a7c15)
}

/// Measures one repetition: simulates `plan`'s samples through `cache`
/// and scores the estimate against the ground-truth `full_total`
/// (Eq. 1).
pub(crate) fn measure(
    sim: &Simulator,
    workload: &Workload,
    plan: &SamplingPlan,
    full_total: f64,
    cache: &SimCache,
) -> UnitRecord {
    let run = sim.run_sampled_cached(workload, plan.samples(), Parallelism::serial(), cache);
    UnitRecord {
        error_pct: run.error(full_total) * 100.0,
        speedup: run.speedup(full_total),
        num_samples: plan.num_samples(),
        predicted_error_pct: plan.predicted_error() * 100.0,
    }
}

/// Folds per-repetition records, in repetition order, into the summary:
/// arithmetic-mean error and harmonic-mean speedup.
///
/// # Panics
///
/// Panics if `records` is empty.
pub(crate) fn summarize(
    method: &str,
    workload: &Workload,
    records: impl IntoIterator<Item = UnitRecord>,
) -> EvalSummary {
    let mut agg = StreamingAggregate::new();
    let results: Vec<EvalResult> = records
        .into_iter()
        .map(|rec| {
            agg.push(rec.error_pct, rec.speedup);
            EvalResult {
                method: method.to_string(),
                workload: workload.name().to_string(),
                error_pct: rec.error_pct,
                speedup: rec.speedup,
                num_samples: rec.num_samples,
                predicted_error_pct: rec.predicted_error_pct,
            }
        })
        .collect();
    EvalSummary {
        method: method.to_string(),
        workload: workload.name().to_string(),
        mean_error_pct: agg.mean_error_pct(),
        harmonic_speedup: agg.harmonic_speedup(),
        results,
    }
}

/// Evaluates `sampler` on `workload` over `reps` repetitions (the paper
/// uses 10) against the ground-truth total `full_total`, averaging error
/// arithmetically and speedup harmonically.
///
/// This is the unsupervised evaluator: repetitions spread across `par`
/// threads with no retries, fault injection or cancellation (the
/// supervised runs are [`crate::Pipeline`]'s). Every rep's seed derives
/// from its index, reps share a [`SimCache`] of pure timing results, and
/// the summary folds per-rep results in index order — so the outcome is
/// bit-identical to the serial evaluation at every thread count.
///
/// # Panics
///
/// Panics if `reps == 0`.
pub fn evaluate_total_par(
    sampler: &dyn KernelSampler,
    workload: &Workload,
    sim: &Simulator,
    full_total: f64,
    reps: u32,
    base_seed: u64,
    par: Parallelism,
) -> EvalSummary {
    assert!(reps > 0, "at least one repetition required");
    let cache = SimCache::new();
    let records = stem_par::par_map_range(par, reps as usize, |r| {
        let seed = rep_seed(base_seed, r as u64);
        let plan = sampler.plan(workload, seed);
        measure(sim, workload, &plan, full_total, &cache)
    });
    summarize(sampler.name(), workload, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StemConfig;
    use crate::stem::StemRootSampler;
    use gpu_sim::GpuConfig;
    use gpu_workload::suites::rodinia_suite;

    #[test]
    fn means() {
        assert_eq!(arithmetic_mean(&[1.0, 3.0]), 2.0);
        assert!((harmonic_mean(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[2.0, 2.0]), 2.0);
    }

    #[test]
    fn streaming_aggregate_matches_two_pass_means() {
        let errors = [1.25, 0.875, 3.5, 0.0625, 2.0];
        let speedups = [2.0, 8.0, 32.0, 5.0, 11.0];
        let mut agg = StreamingAggregate::new();
        for (&e, &s) in errors.iter().zip(&speedups) {
            agg.push(e, s);
        }
        assert_eq!(agg.count(), errors.len());
        // Bit-identical, not merely close: both sides are the same
        // left-to-right folds.
        assert_eq!(agg.mean_error_pct(), arithmetic_mean(&errors));
        assert_eq!(agg.harmonic_speedup(), harmonic_mean(&speedups));
    }

    #[test]
    #[should_panic(expected = "mean of empty slice")]
    fn empty_aggregate_rejected() {
        StreamingAggregate::new().mean_error_pct();
    }

    #[test]
    fn harmonic_below_arithmetic() {
        let v = [2.0, 8.0, 32.0];
        assert!(harmonic_mean(&v) < arithmetic_mean(&v));
    }

    #[test]
    fn evaluate_aggregates_reps() {
        let suite = rodinia_suite(13);
        let w = &suite[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let total = sim.run_full(w).total_cycles;
        let sampler = StemRootSampler::new(StemConfig::paper());
        let summary = evaluate_total_par(&sampler, w, &sim, total, 3, 0, Parallelism::serial());
        assert_eq!(summary.results.len(), 3);
        assert!(summary.mean_error_pct < 6.0);
        assert!(summary.harmonic_speedup >= 1.0);
        assert_eq!(summary.method, "STEM");
    }

    #[test]
    fn parallel_evaluate_is_bit_identical() {
        let suite = rodinia_suite(13);
        let w = &suite[1];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let total = sim.run_full(w).total_cycles;
        let sampler = StemRootSampler::new(StemConfig::paper());
        let serial = evaluate_total_par(&sampler, w, &sim, total, 4, 9, Parallelism::serial());
        for threads in [1usize, 2, 3, 8] {
            let par = Parallelism::with_threads(threads);
            assert_eq!(evaluate_total_par(&sampler, w, &sim, total, 4, 9, par), serial, "{par:?}");
        }
    }

    #[test]
    fn evaluate_matches_manual_once_loop() {
        // The cached, fold-ordered loop must agree bitwise with the plain
        // `evaluate_once` loop it replaced.
        let suite = rodinia_suite(13);
        let w = &suite[2];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(w);
        let sampler = StemRootSampler::new(StemConfig::paper());
        let summary =
            evaluate_total_par(&sampler, w, &sim, full.total_cycles, 3, 5, Parallelism::serial());
        for (r, result) in summary.results.iter().enumerate() {
            let rep_seed = 5u64.wrapping_add(r as u64).wrapping_mul(0x9e3779b97f4a7c15);
            let once = evaluate_once(&sampler, w, &sim, &full, rep_seed);
            assert_eq!(*result, once, "rep {r}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_reps_rejected() {
        let suite = rodinia_suite(13);
        let w = &suite[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let sampler = StemRootSampler::new(StemConfig::paper());
        evaluate_total_par(&sampler, w, &sim, 1.0, 0, 0, Parallelism::serial());
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn harmonic_rejects_zero() {
        harmonic_mean(&[1.0, 0.0]);
    }
}
