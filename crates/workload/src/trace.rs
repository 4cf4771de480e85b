//! The workload container: a kernel table, per-kernel context tables, and
//! the invocation stream.

use crate::context::RuntimeContext;
use crate::error::{WorkloadError, WorkloadErrorKind};
use crate::invocation::{Invocation, KernelId};
use crate::kernel::KernelClass;
use std::collections::{BTreeMap, HashMap};

/// Which benchmark suite a workload belongs to (drives evaluation
/// aggregation and default sampling rates for the Random baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteKind {
    /// Small irregular GPGPU/HPC workloads (Rodinia 3.1).
    Rodinia,
    /// State-of-the-art ML training/inference (CASIO).
    Casio,
    /// Large-scale LLM/ML serving (HuggingFace models).
    Huggingface,
    /// Hand-built workloads.
    Custom,
}

impl std::fmt::Display for SuiteKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SuiteKind::Rodinia => "rodinia",
            SuiteKind::Casio => "casio",
            SuiteKind::Huggingface => "huggingface",
            SuiteKind::Custom => "custom",
        };
        f.write_str(s)
    }
}

/// A complete GPU workload as seen by a kernel-level sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    suite: SuiteKind,
    kernels: Vec<KernelClass>,
    /// `contexts[k]` are the runtime contexts of kernel `k`.
    contexts: Vec<Vec<RuntimeContext>>,
    invocations: Vec<Invocation>,
    /// `group_of[i]` is the timing group of invocation `i`: invocations
    /// sharing `(kernel, context, work_scale)` are timing-identical up to
    /// their noise draw, so simulators precompute per group and stream the
    /// per-invocation jitter. Derived deterministically from `invocations`
    /// by a [`GroupIndex`] (first occurrence assigns the next id, so ids
    /// follow stream order).
    group_of: Vec<u32>,
    /// `group_representatives[g]` is the lowest invocation index in group `g`.
    group_representatives: Vec<usize>,
    /// FNV-1a 64 over the full workload content (name, suite, kernel and
    /// context tables, invocation stream), computed once at construction.
    /// Lets downstream caches key derived artifacts (profiles, clusterings)
    /// by workload identity without rehashing the stream per lookup.
    fingerprint: u64,
}

/// Incremental FNV-1a 64 fold over a workload's content, in the exact
/// byte order [`Workload::fingerprint`] uses: first the header (name,
/// suite, kernel and context tables), then each invocation's raw fields
/// in stream order. Because FNV-1a is a plain left-to-right byte fold,
/// a block-streamed workload can compute its fingerprint one invocation
/// at a time without ever materializing the stream — feeding the same
/// header and the same invocations in the same order yields the same
/// hash as the materialized constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintFold {
    h: u64,
}

impl FingerprintFold {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh fold at the FNV-1a offset basis.
    pub fn new() -> Self {
        FingerprintFold { h: Self::OFFSET }
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h = (self.h ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Folds the workload header: name, then the `Debug` form of the
    /// suite and the kernel/context tables (f64 `Debug` is the shortest
    /// round-trip representation, so distinct values hash distinctly).
    /// Must be called exactly once, before any invocation.
    pub fn eat_header(
        &mut self,
        name: &str,
        suite: SuiteKind,
        kernels: &[KernelClass],
        contexts: &[Vec<RuntimeContext>],
    ) {
        self.eat(name.as_bytes());
        self.eat(format!("{suite:?}{kernels:?}{contexts:?}").as_bytes());
    }

    /// Folds one invocation's raw fields (`work_scale`/`noise_z` by bit
    /// pattern), in stream order.
    pub fn eat_invocation(&mut self, inv: &Invocation) {
        self.eat(&inv.kernel.0.to_le_bytes());
        self.eat(&inv.context.to_le_bytes());
        self.eat(&inv.work_scale.to_bits().to_le_bytes());
        self.eat(&inv.noise_z.to_bits().to_le_bytes());
    }

    /// The fingerprint of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl Default for FingerprintFold {
    fn default() -> Self {
        FingerprintFold::new()
    }
}

/// FNV-1a 64 content hash of a workload's defining tables — the
/// materialized entry point over [`FingerprintFold`], so the streamed
/// and in-memory fingerprints are the same fold by construction.
fn content_fingerprint(
    name: &str,
    suite: SuiteKind,
    kernels: &[KernelClass],
    contexts: &[Vec<RuntimeContext>],
    invocations: &[Invocation],
) -> u64 {
    let mut fold = FingerprintFold::new();
    fold.eat_header(name, suite, kernels, contexts);
    for inv in invocations {
        fold.eat_invocation(inv);
    }
    fold.finish()
}

/// Marks a cell no invocation has reached yet.
const UNSEEN: u32 = u32::MAX;

/// First-occurrence timing-group index over a workload's frozen tables,
/// shared by workload construction and the streamed ground-truth fold.
///
/// Kernel and context are bounded by the tables, so they address a dense
/// *cell* (`offset[kernel] + context`). Almost every cell sees a single
/// work scale, which is answered from the cell itself without hashing;
/// further work scales of a cell (Rodinia `gaussian`'s shrinking
/// submatrices) fall back to one hashed lookup keyed by `(cell,
/// work_scale bits)`.
///
/// Ids are `0, 1, 2, …` in the order their `(kernel, context,
/// work_scale-bits)` key first appears, so feeding the same invocations
/// in the same order — all at once or block by block — yields the same
/// ids.
#[derive(Debug)]
pub struct GroupIndex {
    /// `offsets[k]` is the first cell of kernel `k`.
    offsets: Vec<usize>,
    /// Per cell: the work-scale bits of its first group and that group's
    /// id (`UNSEEN` until the cell is reached).
    first: Vec<(u32, u32)>,
    /// Groups beyond a cell's first, keyed by `(cell, work_scale bits)`.
    rest: HashMap<(usize, u32), u32>,
    /// Groups minted so far; the next id.
    len: u32,
}

impl GroupIndex {
    /// An empty index over the per-kernel context tables `contexts`.
    pub fn new(contexts: &[Vec<RuntimeContext>]) -> Self {
        let mut offsets = Vec::with_capacity(contexts.len());
        let mut cells = 0;
        for table in contexts {
            offsets.push(cells);
            cells += table.len();
        }
        GroupIndex {
            offsets,
            first: vec![(0, UNSEEN); cells],
            rest: HashMap::new(),
            len: 0,
        }
    }

    /// The group of `inv`, and whether this call minted it (its first
    /// occurrence). The caller validates `inv` against the tables first.
    ///
    /// # Panics
    ///
    /// Panics if `inv`'s kernel is outside the tables, or if the groups
    /// would exceed `u32::MAX - 1`. A context outside its kernel's table
    /// panics when it runs past the last cell and otherwise lands in a
    /// neighbouring kernel's cell, so validation is the caller's contract.
    #[inline]
    pub fn intern(&mut self, inv: &Invocation) -> (u32, bool) {
        let cell = self.offsets[inv.kernel.index()] + usize::from(inv.context);
        let bits = inv.work_scale.to_bits();
        let slot = &mut self.first[cell];
        if slot.1 == UNSEEN {
            let g = mint(&mut self.len);
            *slot = (bits, g);
            return (g, true);
        }
        if slot.0 == bits {
            return (slot.1, false);
        }
        let next = self.len;
        let g = *self.rest.entry((cell, bits)).or_insert(next);
        if g == next {
            mint(&mut self.len);
            return (g, true);
        }
        (g, false)
    }
}

/// Takes the next group id.
fn mint(len: &mut u32) -> u32 {
    let g = *len;
    assert!(g < UNSEEN, "timing groups exceed u32 ids");
    *len += 1;
    g
}

/// Assigns every invocation its timing group: first occurrence of a
/// `(kernel, context, work_scale-bits)` triple mints the next group id.
/// `invocations` must already be validated against `contexts`.
fn timing_groups(
    contexts: &[Vec<RuntimeContext>],
    invocations: &[Invocation],
) -> (Vec<u32>, Vec<usize>) {
    let mut index = GroupIndex::new(contexts);
    let mut group_of = Vec::with_capacity(invocations.len());
    let mut representatives = Vec::new();
    for (i, inv) in invocations.iter().enumerate() {
        let (g, fresh) = index.intern(inv);
        if fresh {
            representatives.push(i);
        }
        group_of.push(g);
    }
    (group_of, representatives)
}

impl Workload {
    /// Assembles and validates a workload.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if tables are inconsistent: no kernels,
    /// context table length mismatch, kernels without contexts, invocations
    /// referencing out-of-range kernels/contexts, or invalid component
    /// values.
    pub fn try_new(
        name: impl Into<String>,
        suite: SuiteKind,
        kernels: Vec<KernelClass>,
        contexts: Vec<Vec<RuntimeContext>>,
        invocations: Vec<Invocation>,
    ) -> Result<Self, WorkloadError> {
        let name = name.into();
        let structure =
            |message: String| Err(WorkloadError::new(WorkloadErrorKind::Structure, message));
        if kernels.is_empty() {
            return structure(format!("workload {name} has no kernels"));
        }
        if kernels.len() != contexts.len() {
            return structure(format!(
                "workload {name}: one context table per kernel required \
                 ({} kernels, {} context tables)",
                kernels.len(),
                contexts.len()
            ));
        }
        for k in &kernels {
            k.try_validate()?;
        }
        for (k, ctxs) in contexts.iter().enumerate() {
            if ctxs.is_empty() {
                return structure(format!(
                    "workload {name}: kernel {} has no contexts",
                    kernels[k].name
                ));
            }
            for c in ctxs {
                c.try_validate()?;
            }
        }
        for (i, inv) in invocations.iter().enumerate() {
            let k = inv.kernel.index();
            if k >= kernels.len() {
                return Err(WorkloadError::new(
                    WorkloadErrorKind::Invocation,
                    format!(
                        "workload {name}: invocation {i} references kernel {k} out of range"
                    ),
                ));
            }
            if (inv.context as usize) >= contexts[k].len() {
                return Err(WorkloadError::new(
                    WorkloadErrorKind::Invocation,
                    format!(
                        "workload {name}: invocation {i} references context {} of kernel {} \
                         out of range",
                        inv.context, kernels[k].name
                    ),
                ));
            }
        }
        let (group_of, group_representatives) = timing_groups(&contexts, &invocations);
        let fingerprint = content_fingerprint(&name, suite, &kernels, &contexts, &invocations);
        Ok(Workload {
            name,
            suite,
            kernels,
            contexts,
            invocations,
            group_of,
            group_representatives,
            fingerprint,
        })
    }

    /// Panicking convenience wrapper over [`Workload::try_new`].
    ///
    /// # Panics
    ///
    /// Panics on any input [`Workload::try_new`] rejects.
    pub fn new(
        name: impl Into<String>,
        suite: SuiteKind,
        kernels: Vec<KernelClass>,
        contexts: Vec<Vec<RuntimeContext>>,
        invocations: Vec<Invocation>,
    ) -> Self {
        match Workload::try_new(name, suite, kernels, contexts, invocations) {
            Ok(w) => w,
            Err(e) => panic!("{e}"),
        }
    }

    /// Workload name (e.g. `heartwall`, `bert_infer`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Which suite this workload belongs to.
    pub fn suite(&self) -> SuiteKind {
        self.suite
    }

    /// The kernel table.
    pub fn kernels(&self) -> &[KernelClass] {
        &self.kernels
    }

    /// Context table of kernel `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn contexts_of(&self, k: KernelId) -> &[RuntimeContext] {
        &self.contexts[k.index()]
    }

    /// The invocation stream.
    pub fn invocations(&self) -> &[Invocation] {
        &self.invocations
    }

    /// Number of kernel launches.
    pub fn num_invocations(&self) -> usize {
        self.invocations.len()
    }

    /// FNV-1a 64 content fingerprint (name, suite, kernel/context tables,
    /// invocation stream), computed once at construction. Two workloads
    /// with equal fingerprints are — up to hash collision — the same
    /// workload; caches of derived artifacts key on this.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The kernel class of an invocation.
    pub fn kernel_of(&self, inv: &Invocation) -> &KernelClass {
        &self.kernels[inv.kernel.index()]
    }

    /// The runtime context of an invocation.
    pub fn context_of(&self, inv: &Invocation) -> &RuntimeContext {
        &self.contexts[inv.kernel.index()][inv.context as usize]
    }

    /// Number of timing groups: distinct `(kernel, context, work_scale)`
    /// triples in the invocation stream. All invocations in a group share
    /// the same deterministic timing; only their jitter draws differ.
    pub fn num_invocation_groups(&self) -> usize {
        self.group_representatives.len()
    }

    /// Timing group of invocation `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn group_of(&self, i: usize) -> u32 {
        self.group_of[i]
    }

    /// Lowest invocation index belonging to group `g` (its representative:
    /// timing-deterministic fields of any group member match it).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group_representative(&self, g: u32) -> usize {
        self.group_representatives[g as usize]
    }

    /// Invocation indices grouped by kernel id, in stream order — the
    /// "group kernel calls by name" first step of the STEM+ROOT pipeline
    /// (Fig. 3).
    pub fn invocations_by_kernel(&self) -> BTreeMap<KernelId, Vec<usize>> {
        let mut map: BTreeMap<KernelId, Vec<usize>> = BTreeMap::new();
        for (i, inv) in self.invocations.iter().enumerate() {
            map.entry(inv.kernel).or_default().push(i);
        }
        map
    }

    /// Invocation indices grouped by kernel *name*, in stream order. Two
    /// kernel classes can share a name (the same source kernel compiled or
    /// launched with different configurations); methods that key on names
    /// (Sieve's stratification) must see them as one group.
    pub fn invocations_by_kernel_name(&self) -> BTreeMap<&str, Vec<usize>> {
        let mut map: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, inv) in self.invocations.iter().enumerate() {
            map.entry(self.kernel_of(inv).name.as_str())
                .or_default()
                .push(i);
        }
        map
    }

    /// Total dynamic instructions across the workload (at per-invocation
    /// work scales), used by profiling-overhead models.
    pub fn total_instructions(&self) -> f64 {
        self.invocations
            .iter()
            .map(|inv| {
                let k = self.kernel_of(inv);
                let c = self.context_of(inv);
                k.total_instructions() as f64 * c.work_scale * inv.work_scale as f64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelClassBuilder;
    use crate::scenarios::{bursty_interference, longtail_skew, phase_drift};
    use crate::suites::{casio_suite, huggingface_suite, rodinia_suite, HuggingfaceScale};

    fn tiny() -> Workload {
        let k0 = KernelClassBuilder::new("a").build();
        let k1 = KernelClassBuilder::new("b").build();
        Workload::new(
            "w",
            SuiteKind::Custom,
            vec![k0, k1],
            vec![
                vec![RuntimeContext::neutral()],
                vec![RuntimeContext::neutral(), RuntimeContext::neutral().with_work(2.0)],
            ],
            vec![
                Invocation::new(KernelId(0), 0, 0.1),
                Invocation::new(KernelId(1), 1, -0.3),
                Invocation::new(KernelId(0), 0, 0.7),
            ],
        )
    }

    #[test]
    fn accessors() {
        let w = tiny();
        assert_eq!(w.name(), "w");
        assert_eq!(w.suite(), SuiteKind::Custom);
        assert_eq!(w.num_invocations(), 3);
        assert_eq!(w.kernels().len(), 2);
        assert_eq!(w.contexts_of(KernelId(1)).len(), 2);
        let inv = &w.invocations()[1];
        assert_eq!(w.kernel_of(inv).name, "b");
        assert_eq!(w.context_of(inv).work_scale, 2.0);
    }

    #[test]
    fn timing_groups_follow_stream_order() {
        let w = tiny();
        // Invocations 0 and 2 share (kernel 0, ctx 0, work 1.0); 1 differs.
        assert_eq!(w.num_invocation_groups(), 2);
        assert_eq!(w.group_of(0), 0);
        assert_eq!(w.group_of(1), 1);
        assert_eq!(w.group_of(2), 0);
        assert_eq!(w.group_representative(0), 0);
        assert_eq!(w.group_representative(1), 1);
    }

    #[test]
    fn distinct_work_scales_split_groups() {
        let k0 = KernelClassBuilder::new("a").build();
        let w = Workload::new(
            "w",
            SuiteKind::Custom,
            vec![k0],
            vec![vec![RuntimeContext::neutral()]],
            vec![
                Invocation::with_work(KernelId(0), 0, 1.0, 0.1),
                Invocation::with_work(KernelId(0), 0, 2.0, 0.2),
                Invocation::with_work(KernelId(0), 0, 1.0, 0.3),
            ],
        );
        assert_eq!(w.num_invocation_groups(), 2);
        assert_eq!(w.group_of(0), 0);
        assert_eq!(w.group_of(1), 1);
        assert_eq!(w.group_of(2), 0);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same content, same hash");
        // Any defining field flips the hash: name, stream, noise draw.
        let renamed = Workload::new(
            "w2",
            a.suite(),
            a.kernels().to_vec(),
            vec![
                a.contexts_of(KernelId(0)).to_vec(),
                a.contexts_of(KernelId(1)).to_vec(),
            ],
            a.invocations().to_vec(),
        );
        assert_ne!(a.fingerprint(), renamed.fingerprint());
        let mut invs = a.invocations().to_vec();
        invs[0].noise_z = 0.5;
        let jittered = Workload::new(
            a.name().to_string(),
            a.suite(),
            a.kernels().to_vec(),
            vec![
                a.contexts_of(KernelId(0)).to_vec(),
                a.contexts_of(KernelId(1)).to_vec(),
            ],
            invs,
        );
        assert_ne!(a.fingerprint(), jittered.fingerprint());
    }

    #[test]
    fn grouping_by_kernel() {
        let w = tiny();
        let groups = w.invocations_by_kernel();
        assert_eq!(groups[&KernelId(0)], vec![0, 2]);
        assert_eq!(groups[&KernelId(1)], vec![1]);
    }

    #[test]
    fn total_instructions_accounts_for_scales() {
        let w = tiny();
        let k = &w.kernels()[0];
        let base = k.total_instructions() as f64;
        // Two invocations of kernel 0 at scale 1 plus one of kernel 1 at
        // context work 2.0.
        let k1_base = w.kernels()[1].total_instructions() as f64;
        assert!((w.total_instructions() - (2.0 * base + 2.0 * k1_base)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_kernel_ref_rejected() {
        let k0 = KernelClassBuilder::new("a").build();
        Workload::new(
            "w",
            SuiteKind::Custom,
            vec![k0],
            vec![vec![RuntimeContext::neutral()]],
            vec![Invocation::new(KernelId(5), 0, 0.0)],
        );
    }

    #[test]
    #[should_panic(expected = "has no contexts")]
    fn empty_context_table_rejected() {
        let k0 = KernelClassBuilder::new("a").build();
        Workload::new("w", SuiteKind::Custom, vec![k0], vec![vec![]], vec![]);
    }

    #[test]
    #[should_panic(expected = "one context table per kernel")]
    fn mismatched_tables_rejected() {
        let k0 = KernelClassBuilder::new("a").build();
        Workload::new("w", SuiteKind::Custom, vec![k0], vec![], vec![]);
    }

    #[test]
    fn suite_display() {
        assert_eq!(SuiteKind::Rodinia.to_string(), "rodinia");
        assert_eq!(SuiteKind::Huggingface.to_string(), "huggingface");
    }

    /// Oracle: one hash map over the whole `(kernel, context,
    /// work_scale-bits)` key, each first occurrence minting the next id.
    fn hashed_groups(w: &Workload) -> (Vec<u32>, Vec<usize>) {
        let mut ids: HashMap<(u32, u16, u32), u32> = HashMap::new();
        let mut group_of = Vec::with_capacity(w.num_invocations());
        let mut representatives = Vec::new();
        for (i, inv) in w.invocations().iter().enumerate() {
            let key = (inv.kernel.0, inv.context, inv.work_scale.to_bits());
            let next = representatives.len() as u32;
            let g = *ids.entry(key).or_insert(next);
            if g == next {
                representatives.push(i);
            }
            group_of.push(g);
        }
        (group_of, representatives)
    }

    fn assert_matches_hashed(w: &Workload) {
        let (group_of, representatives) = hashed_groups(w);
        assert_eq!(
            w.num_invocation_groups(),
            representatives.len(),
            "{}",
            w.name()
        );
        for (i, &g) in group_of.iter().enumerate() {
            assert_eq!(w.group_of(i), g, "{}: invocation {i}", w.name());
        }
        for (g, &rep) in representatives.iter().enumerate() {
            assert_eq!(
                w.group_representative(g as u32),
                rep,
                "{}: group {g}",
                w.name()
            );
        }
    }

    #[test]
    fn dense_index_matches_hashed_assignment_on_every_generator() {
        let seed = 7;
        let mut workloads = rodinia_suite(seed);
        workloads.extend(casio_suite(seed));
        workloads.extend(huggingface_suite(seed, HuggingfaceScale::custom(0.01)));
        for source in [
            phase_drift(seed),
            bursty_interference(seed),
            longtail_skew(seed),
        ] {
            workloads.push(source.materialize());
        }
        for w in &workloads {
            assert_matches_hashed(w);
        }
        // The many-work-scales shape the hashed fallback exists for.
        let gaussian = workloads
            .iter()
            .find(|w| w.name() == "gaussian")
            .expect("rodinia has gaussian");
        assert!(gaussian.num_invocation_groups() > 1000);
    }

    #[test]
    fn thousands_of_work_scales_in_one_cell() {
        let kernel = KernelClassBuilder::new("k").build();
        // 1500 distinct work scales in cell (0, 0), each revisited, with a
        // second cell's invocations interleaved.
        let mut invocations = Vec::new();
        for round in 0..2 {
            for s in 0..1500 {
                let work = 1.0 + s as f32 * 0.25;
                invocations.push(Invocation::with_work(KernelId(0), 0, work, round as f32));
                if s % 100 == 0 {
                    invocations.push(Invocation::with_work(KernelId(0), 1, 2.0, 0.0));
                }
            }
        }
        let w = Workload::new(
            "wide",
            SuiteKind::Custom,
            vec![kernel],
            vec![vec![
                RuntimeContext::neutral(),
                RuntimeContext::neutral().with_work(2.0),
            ]],
            invocations,
        );
        assert_eq!(w.num_invocation_groups(), 1501);
        assert_matches_hashed(&w);
    }

    #[test]
    fn ids_follow_first_occurrence_across_calls() {
        let ctx = RuntimeContext::neutral();
        let mut index = GroupIndex::new(&[vec![ctx, ctx], vec![ctx]]);
        let a = Invocation::with_work(KernelId(0), 1, 1.0, 0.0);
        let b = Invocation::with_work(KernelId(1), 0, 1.0, 0.0);
        let c = Invocation::with_work(KernelId(0), 1, 3.0, 0.0);
        assert_eq!(index.intern(&a), (0, true));
        assert_eq!(index.intern(&b), (1, true));
        assert_eq!(index.intern(&a), (0, false));
        assert_eq!(index.intern(&c), (2, true));
        assert_eq!(index.intern(&c), (2, false));
    }
}
