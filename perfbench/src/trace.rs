//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span records name, layer, start, end, parent, stage, repetition and op
//! index. Spans stay in memory and are written once when the run ends. With
//! tracing off, [`Tracer::begin`] and [`Tracer::end`] read no clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// The crate a span's time is attributed to. `Bench` is the benchmark's own
/// glue: the op root spans and the loops between calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Bench,
    Graphs,
    Danner,
    Classic,
    Core,
    Congest,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] = [
        Layer::Bench,
        Layer::Graphs,
        Layer::Danner,
        Layer::Classic,
        Layer::Core,
        Layer::Congest,
    ];

    /// The metric-name prefix of this layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Graphs => "graphs",
            Layer::Danner => "danner",
            Layer::Classic => "classic",
            Layer::Core => "core",
            Layer::Congest => "congest",
        }
    }
}

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Instance generation and initial state, before the first timed call.
    Setup,
    /// The timed job.
    Job,
    /// Measurements taken only in the traced run, outside the job.
    Probe,
}

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Setup => "setup",
            Stage::Job => "job",
            Stage::Probe => "probe",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub stage: Stage,
    pub rep: usize,
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Records spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    stage: Stage,
    rep: usize,
    op: usize,
}

impl Tracer {
    /// A tracer that records spans only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            stage: Stage::Setup,
            rep: 0,
            op: 0,
        }
    }

    /// Sets the stage and repetition that new spans are tagged with.
    pub fn enter(&mut self, stage: Stage, rep: usize) {
        self.stage = stage;
        self.rep = rep;
        self.op = 0;
    }

    /// Sets the op index that new spans are tagged with.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, layer: Layer, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            stage: self.stage,
            rep: self.rep,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span, tagged with `workload`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"stage\":\"{}\",\"workload\":\"{workload}\",\"rep\":{},\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name,
                s.layer.name(),
                s.stage.name(),
                s.rep,
                s.op,
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

/// Summaries of the spans of one stage and repetition.
#[derive(Debug, Default)]
pub struct SpanSummary {
    /// Self time per layer: each span's duration minus its children's.
    pub self_secs: BTreeMap<Layer, f64>,
    /// Durations of every span, grouped by span name.
    pub by_name: BTreeMap<&'static str, Vec<f64>>,
    /// Summed duration of the root spans (the ops, for a job).
    pub root_secs: f64,
}

/// Summarises the spans of `stage` and repetition `rep`.
pub fn summarize(spans: &[Span], stage: Stage, rep: usize) -> SpanSummary {
    let mut child_secs = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_secs[p] += s.secs();
        }
    }
    let mut sum = SpanSummary::default();
    for (i, s) in spans.iter().enumerate() {
        if s.stage != stage || s.rep != rep {
            continue;
        }
        *sum.self_secs.entry(s.layer).or_default() += s.secs() - child_secs[i];
        sum.by_name.entry(s.name).or_default().push(s.secs());
        if s.parent.is_none() {
            sum.root_secs += s.secs();
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::new(true);
        t.enter(Stage::Job, 0);
        let root = t.begin(Layer::Bench, "op");
        let a = t.begin(Layer::Core, "core.alg1");
        std::hint::black_box((0..10_000).sum::<u64>());
        t.end(a);
        let b = t.begin(Layer::Graphs, "graphs.overlay_apply");
        t.end(b);
        t.end(root);
        let s = summarize(t.spans(), Stage::Job, 0);
        let total: f64 = s.self_secs.values().sum();
        assert!((total - s.root_secs).abs() < 1e-9);
        assert_eq!(s.by_name["core.alg1"].len(), 1);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.to_jsonl("w").lines().count(), 3);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin(Layer::Core, "core.alg1");
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
