//! Outside-in tracing and output digests.
//!
//! Spans wrap the benchmark's own calls into the workspace crates'
//! public functions; nothing inside the library is instrumented. A
//! disabled [`Tracer`] reads no clock and records nothing, so the
//! untraced run times exactly the calls it makes. Spans stay in memory
//! and are written out once, when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// One recorded span: a layer name, its interval, and the span that
/// was open on the same thread when it began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The pass (or set-up round, or probe round) the span belongs to;
    /// spans of one pass share it.
    pub group: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: HashMap<ThreadId, Vec<usize>>,
    counters: BTreeMap<&'static str, f64>,
    group: u64,
}

/// In-memory span and counter recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: Mutex<State>,
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end = self.tracer.now_ns();
            let mut st = self.tracer.lock();
            st.spans[index].end_ns = end;
            if let Some(stack) = st.open.get_mut(&std::thread::current().id()) {
                stack.pop();
            }
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), state: Mutex::new(State::default()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named after a layer; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { tracer: self, index: None };
        }
        let start = self.now_ns();
        let mut st = self.lock();
        let group = st.group;
        let index = st.spans.len();
        let stack = st.open.entry(std::thread::current().id()).or_default();
        let parent = stack.last().copied();
        stack.push(index);
        st.spans.push(Span { name, parent, group, start_ns: start, end_ns: start });
        SpanGuard { tracer: self, index: Some(index) }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Adds `value` to a counter of the current group.
    pub fn count(&self, name: &'static str, value: f64) {
        if self.enabled {
            *self.lock().counters.entry(name).or_insert(0.0) += value;
        }
    }

    /// Starts a new group and clears the counters; returns the group id.
    pub fn begin_group(&self) -> u64 {
        let mut st = self.lock();
        st.group += 1;
        st.counters.clear();
        st.group
    }

    /// Counters accumulated since the last [`Tracer::begin_group`].
    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        self.lock().counters.clone()
    }

    /// Self time per layer over one group's spans: each span's duration
    /// minus the part its child spans cover, summed by name.
    pub fn self_times(&self, group: u64) -> BTreeMap<&'static str, f64> {
        let st = self.lock();
        let mut child_time: HashMap<usize, f64> = HashMap::new();
        for span in st.spans.iter().filter(|s| s.group == group) {
            if let Some(p) = span.parent {
                *child_time.entry(p).or_insert(0.0) += span.dur_s();
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in st.spans.iter().enumerate().filter(|(_, s)| s.group == group) {
            let own = span.dur_s() - child_time.get(&i).copied().unwrap_or(0.0);
            *out.entry(span.name).or_insert(0.0) += own;
        }
        out
    }

    /// Number of spans in one group.
    pub fn span_count(&self, group: u64) -> usize {
        self.lock().spans.iter().filter(|s| s.group == group).count()
    }

    /// Writes every span as tab-separated text: id, parent, group, name,
    /// start and end in nanoseconds since the tracer was created.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let st = self.lock();
        let mut text = String::from("id\tparent\tgroup\tname\tstart_ns\tend_ns\n");
        for (i, s) in st.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{i}\t{parent}\t{}\t{}\t{}\t{}\n",
                s.group, s.name, s.start_ns, s.end_ns
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// FNV-1a over the exact bits of every result a pass produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}
