//! Host-speed calibration.
//!
//! The benchmark runs on a few virtual cores of a shared host whose
//! speed changes by up to 1.8x within seconds, with the load of other
//! tenants on the same physical cores. User CPU time changes with it, so
//! neither wall nor CPU time of one run can be compared with another's.
//! A fixed reference loop, timed right before and right after each piece
//! of work, measures the host's speed at that moment; the work's wall
//! time is scaled by the ratio of [`REFERENCE_MS`] to the loop's time.
//! The result is in reference seconds: the wall time the work would take
//! on a host where the loop takes [`REFERENCE_MS`].
//!
//! The loop is the benchmark's own code, not the library's, so a change
//! to the library moves the work's time and not the loop's. It does two
//! kinds of work the library spends its time on: hash-map updates with a
//! sort, and drawing random deviates through `ln`, `sqrt`, `cos` and
//! `exp`.

use std::collections::{hash_map::DefaultHasher, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference loop's time on the host the reference seconds are
/// named after: about its fastest time (5th percentile) on a 2-vCPU Xeon
/// (Sapphire Rapids, KVM) guest, so that a reference second is close to
/// a wall second of that guest when its host is quiet.
pub const REFERENCE_MS: f64 = 2.75;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Normal deviates by the Box–Muller transform: logarithms, square
/// roots, cosines and exponentials, as the workload generators and
/// samplers draw them.
fn deviates(rounds: usize) -> f64 {
    let mut x: u64 = 0x1234_5678_9abc_def1;
    let unit = |x: &mut u64| (xorshift(x) >> 11) as f64 / (1u64 << 53) as f64;
    let mut acc = 0.0;
    for _ in 0..rounds {
        let u = unit(&mut x) + 1e-12;
        let v = unit(&mut x);
        acc += (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos() + (0.5 * u).exp();
    }
    acc
}

/// Hash-map updates and lookups over a few thousand keys, then a sort of
/// the values.
fn map_and_sort(rounds: usize) -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut acc = 0u64;
    for i in 0..rounds as u64 {
        let r = xorshift(&mut x);
        *map.entry(r % 4096).or_insert(0) += i;
        acc = acc.wrapping_add(map.get(&(r % 5000)).copied().unwrap_or(1));
    }
    let mut v: Vec<f64> = map.values().map(|&k| (k as f64).sqrt()).collect();
    v.sort_by(f64::total_cmp);
    acc ^ v[v.len() / 2].to_bits()
}

/// Runs the reference loop once and returns its wall time in ms.
pub fn reference_ms() -> f64 {
    let t = Instant::now();
    black_box(map_and_sort(black_box(40_000)));
    black_box(deviates(black_box(30_000)));
    t.elapsed().as_secs_f64() * 1e3
}

/// Converts wall times into reference seconds, recalibrating after each
/// piece of work: the work is scaled by the mean of the loop's time
/// right before it and right after it.
#[derive(Debug)]
pub struct HostClock {
    last_ms: f64,
}

impl HostClock {
    /// Calibrates once, for the first piece of work.
    pub fn new() -> Self {
        HostClock { last_ms: reference_ms() }
    }

    /// The reference seconds of `wall`, a piece of work that ended just
    /// now and began after the previous calibration.
    pub fn scale(&mut self, wall: Duration) -> f64 {
        let now = reference_ms();
        let factor = 2.0 * REFERENCE_MS / (self.last_ms + now);
        self.last_ms = now;
        wall.as_secs_f64() * factor
    }
}
