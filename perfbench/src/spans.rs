//! The traced run's instruments: an in-memory span recorder and a timing
//! decorator around any [`Scheduler`].
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer (name, start, end, parent) and written out as JSON when the run
//! ends. A disabled recorder reads no clock and stores nothing, so untraced
//! runs pay only a branch per call site.

use psbench_sim::{Decision, Scheduler, SchedulerContext, SchedulerEvent};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished span, in seconds since the recorder started.
struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Handle to an open span.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn enter(&mut self, name: impl Into<String>) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start: self.t0.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        SpanId(idx)
    }

    /// Close a span and return its duration in seconds (0 when off).
    pub fn exit(&mut self, id: SpanId) -> f64 {
        if !self.on {
            return 0.0;
        }
        let end = self.t0.elapsed().as_secs_f64();
        let span = &mut self.spans[id.0];
        span.end = end;
        if let Some(pos) = self.open.iter().rposition(|&i| i == id.0) {
            self.open.truncate(pos);
        }
        end - span.start
    }

    /// Record an already-measured span (from another thread's clock reading)
    /// under the innermost open span.
    pub fn record(&mut self, name: impl Into<String>, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        self.spans.push(Span {
            name: name.into(),
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
        });
    }

    /// Write every span as a JSON array of `{id, name, start, end, parent}`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \"parent\": {parent}}}{}",
                s.name,
                s.start,
                s.end,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// A [`Scheduler`] decorator that times every `react` of the policy it
/// wraps. Decisions pass through untouched, so results are unchanged.
pub struct Timed {
    inner: Box<dyn Scheduler>,
    /// Duration of each react, in nanoseconds.
    pub reacts: Vec<u32>,
}

impl Timed {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Scheduler>) -> Timed {
        Timed {
            inner,
            reacts: Vec::new(),
        }
    }

    /// Total time spent reacting, in seconds.
    pub fn react_seconds(&self) -> f64 {
        self.reacts.iter().map(|&ns| ns as f64).sum::<f64>() / 1e9
    }
}

impl Scheduler for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn react(&mut self, ctx: &SchedulerContext<'_>, event: SchedulerEvent) -> Vec<Decision> {
        let t = Instant::now();
        let decisions = self.inner.react(ctx, event);
        let ns = t.elapsed().as_nanos();
        self.reacts.push(u32::try_from(ns).unwrap_or(u32::MAX));
        decisions
    }
}
