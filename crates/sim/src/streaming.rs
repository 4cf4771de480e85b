//! Out-of-core ground truth: the pipelined generate→simulate→fold
//! executor.
//!
//! [`run_streaming_total`] computes the same number as
//! [`Simulator::run_full_total`] without ever holding a whole workload in
//! memory. A producer thread emits the block stream (a streaming suite
//! generator, or the replay of a materialized workload) into a bounded
//! channel; the calling thread consumes blocks in stream order, computing
//! each newly seen `(kernel, context, work_scale)` group's deterministic
//! timing once (groups within a block in parallel — they are independent,
//! so thread count cannot reach the result) and folding the
//! per-invocation jittered cycles serially, left to right.
//!
//! Determinism argument, in the same terms as `stem-par`'s:
//!
//! 1. The deterministic timing of a group depends only on the frozen
//!    tables and the group key, never on *when* the group was first seen
//!    or which thread computed it.
//! 2. The jittered-cycles fold runs on one thread in stream order —
//!    bit-identical to the in-memory fold of `run_full_total`, whose
//!    group values are the same f64s.
//! 3. The channel bound only throttles the producer; it cannot reorder
//!    blocks (`std::sync::mpsc` is FIFO).
//!
//! The consumer also re-folds the stream's content fingerprint and
//! cross-checks it against the producer's [`StreamSummary`], so a total
//! can never silently describe different content than the producer
//! claims to have sent.

use crate::exec::{deterministic_of_invocation, DeterministicTiming};
use crate::simulator::Simulator;
use gpu_workload::stream::{BlockSink, ChannelSink, SinkError, StreamItem, StreamSummary};
use gpu_workload::{FingerprintFold, GroupIndex, Invocation, KernelId, Workload, WorkloadSource};
use std::sync::Mutex;

/// Default bound on undelivered blocks in the pipeline channel. Peak
/// memory of the executor is roughly `(DEFAULT_CHANNEL_BLOCKS + 2)`
/// blocks (queued + one at each end).
pub const DEFAULT_CHANNEL_BLOCKS: usize = 4;

/// What a streaming ground-truth run produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingTotal {
    /// Ground-truth total cycles — bit-identical to
    /// [`Simulator::run_full_total`] over the materialized equivalent.
    pub total_cycles: f64,
    /// Invocations folded.
    pub invocations: u64,
    /// Content fingerprint of the folded stream, cross-checked against
    /// the producer's summary (and equal to
    /// [`Workload::fingerprint`](gpu_workload::Workload::fingerprint) of
    /// the materialized equivalent).
    pub fingerprint: u64,
    /// Distinct `(kernel, context, work_scale)` groups seen.
    pub groups: usize,
}

/// Why a streaming run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamRunError {
    /// The producer's sink failed.
    Produce(SinkError),
    /// A block arrived before the frozen tables.
    MissingTables,
    /// The tables arrived twice.
    DuplicateTables,
    /// An invocation referenced a kernel/context outside the frozen
    /// tables or carried a non-finite work scale. The fold stops rather
    /// than time garbage.
    InvalidInvocation {
        /// Stream index of the offending invocation.
        index: u64,
        /// What was wrong with it.
        message: String,
    },
    /// The consumer's re-folded fingerprint disagrees with the
    /// producer's summary — the pipeline delivered different content
    /// than the producer claims to have sent.
    FingerprintMismatch {
        /// Fingerprint the producer reported.
        expected: u64,
        /// Fingerprint the consumer folded.
        found: u64,
    },
    /// The producer finished without reporting a summary (it was
    /// cancelled mid-stream).
    MissingSummary,
}

impl std::fmt::Display for StreamRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamRunError::Produce(e) => write!(f, "stream producer failed: {e}"),
            StreamRunError::MissingTables => {
                f.write_str("block stream sent invocations before its tables")
            }
            StreamRunError::DuplicateTables => f.write_str("block stream sent tables twice"),
            StreamRunError::InvalidInvocation { index, message } => {
                write!(f, "invalid invocation at stream index {index}: {message}")
            }
            StreamRunError::FingerprintMismatch { expected, found } => write!(
                f,
                "stream fingerprint mismatch: producer reported {expected:016x}, \
                 consumer folded {found:016x}"
            ),
            StreamRunError::MissingSummary => {
                f.write_str("stream producer finished without a summary")
            }
        }
    }
}

impl std::error::Error for StreamRunError {}

/// Serial in-stream-order fold state of the consumer.
struct StreamFold<'a> {
    sim: &'a Simulator,
    par: stem_par::Parallelism,
    /// The frozen tables and the group index over them, once they arrived.
    tables: Option<(Workload, GroupIndex)>,
    /// `timings[g]` is the deterministic timing of group `g`.
    timings: Vec<DeterministicTiming>,
    /// Group id of each invocation of the current block (reused buffer).
    ids: Vec<u32>,
    fingerprint: FingerprintFold,
    total: f64,
    count: u64,
}

impl<'a> StreamFold<'a> {
    fn new(sim: &'a Simulator, par: stem_par::Parallelism) -> Self {
        StreamFold {
            sim,
            par,
            tables: None,
            timings: Vec::new(),
            ids: Vec::new(),
            fingerprint: FingerprintFold::new(),
            total: 0.0,
            count: 0,
        }
    }

    fn tables(&mut self, skeleton: Workload) -> Result<(), StreamRunError> {
        if self.tables.is_some() {
            return Err(StreamRunError::DuplicateTables);
        }
        let contexts: Vec<_> = (0..skeleton.kernels().len())
            .map(|k| skeleton.contexts_of(KernelId(k as u32)).to_vec())
            .collect();
        self.fingerprint.eat_header(
            skeleton.name(),
            skeleton.suite(),
            skeleton.kernels(),
            &contexts,
        );
        let index = GroupIndex::new(&contexts);
        self.tables = Some((skeleton, index));
        Ok(())
    }

    fn block(&mut self, invocations: Vec<Invocation>) -> Result<(), StreamRunError> {
        let Some((skeleton, index)) = self.tables.as_mut() else {
            return Err(StreamRunError::MissingTables);
        };
        // Validate the whole block before timing any of it: a stream that
        // escaped checksumming must yield a typed error, never garbage
        // cycles or an index panic — the group index trusts its input.
        for (offset, inv) in invocations.iter().enumerate() {
            let index = self.count + offset as u64;
            if inv.kernel.index() >= skeleton.kernels().len() {
                return Err(StreamRunError::InvalidInvocation {
                    index,
                    message: format!("kernel id {} out of range", inv.kernel.index()),
                });
            }
            if (inv.context as usize) >= skeleton.contexts_of(inv.kernel).len() {
                return Err(StreamRunError::InvalidInvocation {
                    index,
                    message: format!("context {} out of range for {}", inv.context, inv.kernel),
                });
            }
            if !inv.work_scale.is_finite() || inv.work_scale <= 0.0 {
                return Err(StreamRunError::InvalidInvocation {
                    index,
                    message: format!("work scale {} not finite-positive", inv.work_scale),
                });
            }
        }
        // Group ids, and representatives of the groups first seen in this
        // block in first-appearance order (= id order). Each deterministic
        // core depends only on the tables and the group key, so computing
        // them in parallel (and in whatever block they first appear)
        // cannot change their values.
        self.ids.clear();
        let mut representatives: Vec<&Invocation> = Vec::new();
        for inv in &invocations {
            let (g, fresh) = index.intern(inv);
            if fresh {
                representatives.push(inv);
            }
            self.ids.push(g);
        }
        let timings = stem_par::par_map_indexed(self.par, &representatives, |_, inv| {
            deterministic_of_invocation(skeleton, inv, self.sim.config(), self.sim.options())
        });
        self.timings.extend(timings);
        // Serial, stream-order jitter fold: bit-identical to the
        // in-memory `run_full_total` loop.
        for (inv, &g) in invocations.iter().zip(&self.ids) {
            self.fingerprint.eat_invocation(inv);
            self.total += self.timings[g as usize].jittered_cycles(inv.noise_z as f64);
        }
        self.count += invocations.len() as u64;
        Ok(())
    }
}

/// Runs the pipelined generate→simulate→fold executor over an arbitrary
/// block-stream producer. `produce` runs on its own thread and pushes
/// tables + blocks through a [`BlockSink`]; at most `channel_blocks`
/// undelivered items sit in the channel, so peak memory stays flat no
/// matter how long the stream is.
///
/// # Errors
///
/// [`StreamRunError`] — the producer's own failure, a malformed stream,
/// or a producer/consumer fingerprint disagreement.
///
/// # Panics
///
/// Panics if `channel_blocks` is zero.
pub fn run_streaming_total<P>(
    sim: &Simulator,
    par: stem_par::Parallelism,
    channel_blocks: usize,
    produce: P,
) -> Result<StreamingTotal, StreamRunError>
where
    P: FnOnce(&mut dyn BlockSink) -> Result<StreamSummary, SinkError> + Send,
{
    let summary_cell: Mutex<Option<StreamSummary>> = Mutex::new(None);
    let mut fold = StreamFold::new(sim, par);
    let piped = stem_par::pipelined_fold(
        channel_blocks,
        |tx| {
            let mut sink = ChannelSink::new(tx);
            match produce(&mut sink) {
                Ok(summary) => {
                    if let Ok(mut cell) = summary_cell.lock() {
                        *cell = Some(summary);
                    }
                    Ok(())
                }
                Err(e) => Err(StreamRunError::Produce(e)),
            }
        },
        |item| match item {
            StreamItem::Tables(skeleton) => fold.tables(skeleton),
            StreamItem::Block(invocations) => fold.block(invocations),
        },
    );
    piped?;
    let summary = match summary_cell.lock() {
        Ok(mut cell) => cell.take(),
        Err(_) => None,
    };
    let Some(summary) = summary else {
        return Err(StreamRunError::MissingSummary);
    };
    let fingerprint = fold.fingerprint.finish();
    if fingerprint != summary.fingerprint || fold.count != summary.invocations {
        return Err(StreamRunError::FingerprintMismatch {
            expected: summary.fingerprint,
            found: fingerprint,
        });
    }
    Ok(StreamingTotal {
        total_cycles: fold.total,
        invocations: fold.count,
        fingerprint,
        groups: fold.timings.len(),
    })
}

/// Streaming ground truth of a generated workload: runs the source's
/// emit body on the producer thread, cutting blocks of `block_len`.
/// Bit-identical to `run_full_total` of `source.materialize()` at every
/// thread count.
///
/// # Errors
///
/// [`StreamRunError`].
pub fn source_total(
    sim: &Simulator,
    par: stem_par::Parallelism,
    source: &WorkloadSource,
    block_len: usize,
    channel_blocks: usize,
) -> Result<StreamingTotal, StreamRunError> {
    run_streaming_total(sim, par, channel_blocks, |sink| {
        source.stream(sink, block_len)
    })
}

/// Streaming ground truth of an already-materialized workload — replays
/// it as a block stream through the pipelined executor. Bit-identical to
/// [`Simulator::run_full_total`] at every thread count.
/// `Pipeline::ground_truth_total` and the ground truth of every
/// `Pipeline` run (campaign or not) come from here.
///
/// # Errors
///
/// [`StreamRunError`] — only reachable for a hand-built workload whose
/// invocations escape [`gpu_workload::Workload`]'s construction checks
/// (e.g. a non-finite work scale).
pub fn workload_total(
    sim: &Simulator,
    par: stem_par::Parallelism,
    workload: &Workload,
    block_len: usize,
    channel_blocks: usize,
) -> Result<StreamingTotal, StreamRunError> {
    run_streaming_total(sim, par, channel_blocks, |sink| {
        workload.stream_blocks(sink, block_len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use gpu_workload::suites::rodinia_sources;
    use gpu_workload::SuiteKind;

    fn sim() -> Simulator {
        Simulator::new(GpuConfig::rtx2080())
    }

    #[test]
    fn streamed_total_is_bit_identical_to_in_memory() {
        let sim = sim();
        for source in rodinia_sources(7).iter().take(4) {
            let reference = sim.run_full_total(&source.materialize(), stem_par::Parallelism::serial());
            for threads in [1usize, 4] {
                let par = stem_par::Parallelism::with_threads(threads);
                let got = source_total(&sim, par, source, 256, 2).expect("stream");
                assert_eq!(
                    got.total_cycles.to_bits(),
                    reference.to_bits(),
                    "{} at {threads} threads",
                    source.name()
                );
            }
        }
    }

    #[test]
    fn summary_matches_materialized_fingerprint() {
        let sim = sim();
        let sources = rodinia_sources(9);
        let source = &sources[0];
        let w = source.materialize();
        let got = source_total(&sim, stem_par::Parallelism::serial(), source, 128, 2)
            .expect("stream");
        assert_eq!(got.fingerprint, w.fingerprint());
        assert_eq!(got.invocations, w.num_invocations() as u64);
        assert_eq!(got.groups, w.num_invocation_groups());
    }

    #[test]
    fn workload_total_replays_in_memory_workloads() {
        let sim = sim();
        let w = rodinia_sources(5)[2].materialize();
        let reference = sim.run_full_total(&w, stem_par::Parallelism::serial());
        for threads in [1usize, 4] {
            let par = stem_par::Parallelism::with_threads(threads);
            let got = workload_total(&sim, par, &w, 128, 2).expect("stream");
            assert_eq!(got.total_cycles.to_bits(), reference.to_bits());
            assert_eq!(got.fingerprint, w.fingerprint());
        }
    }

    #[test]
    fn block_before_tables_is_typed_error() {
        let sim = sim();
        let result: Result<StreamingTotal, StreamRunError> =
            run_streaming_total(&sim, stem_par::Parallelism::serial(), 2, |sink| {
                sink.block(&[Invocation::with_work(KernelId(0), 0, 1.0, 0.0)])?;
                Ok(StreamSummary {
                    fingerprint: 0,
                    invocations: 1,
                })
            });
        assert_eq!(result, Err(StreamRunError::MissingTables));
    }

    #[test]
    fn out_of_range_invocation_is_typed_error_not_panic() {
        let sim = sim();
        let sources = rodinia_sources(3);
        let skeleton = {
            let w = sources[0].materialize();
            Workload::new(
                w.name().to_string(),
                SuiteKind::Rodinia,
                w.kernels().to_vec(),
                (0..w.kernels().len())
                    .map(|k| w.contexts_of(KernelId(k as u32)).to_vec())
                    .collect(),
                Vec::new(),
            )
        };
        let bogus = Invocation::with_work(KernelId(99), 0, 1.0, 0.0);
        let result: Result<StreamingTotal, StreamRunError> =
            run_streaming_total(&sim, stem_par::Parallelism::serial(), 2, move |sink| {
                sink.tables(&skeleton)?;
                sink.block(&[bogus])?;
                Ok(StreamSummary {
                    fingerprint: 0,
                    invocations: 1,
                })
            });
        assert!(matches!(
            result,
            Err(StreamRunError::InvalidInvocation { index: 0, .. })
        ));
    }

    /// A bad invocation in a later block is rejected with its stream
    /// index before the group index sees it.
    #[test]
    fn bad_invocation_in_later_block_is_typed_error_with_stream_index() {
        let sim = sim();
        let w = rodinia_sources(3)[0].materialize();
        let good = &w.invocations()[..100];
        let contexts = w.contexts_of(KernelId(0)).len();
        let mut bad_context = good[7];
        bad_context.kernel = KernelId(0);
        bad_context.context = u16::try_from(contexts).expect("small context table");
        let mut nan_work = good[7];
        nan_work.work_scale = f32::NAN;
        let mut zero_work = good[7];
        zero_work.work_scale = 0.0;
        for (what, bad) in [
            ("context", bad_context),
            ("NaN work", nan_work),
            ("zero work", zero_work),
        ] {
            let mut late = good[..10].to_vec();
            late[7] = bad;
            let result: Result<StreamingTotal, StreamRunError> =
                run_streaming_total(&sim, stem_par::Parallelism::serial(), 2, |sink| {
                    sink.tables(&w)?;
                    sink.block(&good[..64])?;
                    sink.block(&good[64..])?;
                    sink.block(&late)?;
                    Ok(StreamSummary {
                        fingerprint: 0,
                        invocations: 110,
                    })
                });
            assert!(
                matches!(
                    result,
                    Err(StreamRunError::InvalidInvocation { index: 107, .. })
                ),
                "{what}: {result:?}"
            );
        }
    }

    #[test]
    fn lying_summary_is_rejected() {
        let sim = sim();
        let sources = rodinia_sources(3);
        let source = &sources[0];
        let honest = source_total(&sim, stem_par::Parallelism::serial(), source, 128, 2)
            .expect("stream");
        let result: Result<StreamingTotal, StreamRunError> =
            run_streaming_total(&sim, stem_par::Parallelism::serial(), 2, |sink| {
                let mut summary = source.stream(sink, 128)?;
                summary.fingerprint ^= 1;
                Ok(summary)
            });
        assert_eq!(
            result,
            Err(StreamRunError::FingerprintMismatch {
                expected: honest.fingerprint ^ 1,
                found: honest.fingerprint,
            })
        );
    }
}
