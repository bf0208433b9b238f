//! The one handle everything instruments through.
//!
//! [`TelemetrySink`] is a cheap clonable facade over shared state. A
//! disabled sink (the [`Default`]) holds `None` — no allocation, and
//! every recording call is a single branch. An enabled sink shares one
//! `Arc<Mutex<…>>` across every subsystem of a run, so the webmail
//! service, the scraper, the leak outlets, and the event queue all feed
//! the same registry, trace, profiler, and span tree.
//!
//! ## Spans
//!
//! [`span`](TelemetrySink::span) opens a **phase span**: its wall time
//! is folded both into the flat phase profiler (keeping `--profile`
//! output stable) and into the hierarchical
//! [`SpanTree`] at the current nesting
//! depth. [`subspan`](TelemetrySink::subspan) and
//! [`SpanGuard::child`] open **attribution spans** that only feed the
//! tree, so sub-phase detail never perturbs the legacy phase table.
//! Guards keep a per-sink stack of open spans; a span opened while
//! another is live becomes its child in the tree.

use crate::metrics::Registry;
use crate::profile::Profiler;
use crate::report::TelemetryReport;
use crate::spantree::SpanTree;
use crate::trace::{TraceBuffer, TraceEvent};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

#[derive(Debug, Default)]
struct Inner {
    metrics: Registry,
    trace: TraceBuffer,
    profile: Profiler,
    spans: SpanTree,
    stack: Vec<usize>,
}

impl Inner {
    fn open_span(&mut self, parent: Option<usize>, name: &str) -> (usize, usize) {
        let node = self.spans.open(parent, name);
        self.stack.push(node);
        (node, self.stack.len() - 1)
    }
}

/// Render `name{k=v,k=v}`, or just `name` with no labels.
fn labeled_name(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string(); // lint:allow(alloc-hot): the metrics table owns its key; runs only when the sink is live
    }
    let mut out = String::with_capacity(name.len() + 8 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

/// Shared telemetry handle. Clones observe the same underlying state;
/// a disabled sink is a true no-op.
///
/// ```
/// use pwnd_telemetry::TelemetrySink;
///
/// let sink = TelemetrySink::enabled();
/// sink.count("logins");
/// sink.gauge_set("accounts", 100);
/// let report = sink.report();
/// assert_eq!(report.metrics.counter("logins"), 1);
/// assert_eq!(report.metrics.gauge("accounts"), 100);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl TelemetrySink {
    /// A sink that records nothing and costs nothing.
    pub fn disabled() -> TelemetrySink {
        TelemetrySink { inner: None }
    }

    /// A live sink with the default trace capacity.
    pub fn enabled() -> TelemetrySink {
        TelemetrySink::with_trace_capacity(crate::trace::DEFAULT_TRACE_CAPACITY)
    }

    /// A live sink holding at most `capacity` trace events.
    pub fn with_trace_capacity(capacity: usize) -> TelemetrySink {
        TelemetrySink {
            inner: Some(Arc::new(Mutex::new(Inner {
                trace: TraceBuffer::with_capacity(capacity),
                ..Inner::default()
            }))),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|m| f(&mut m.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    // ---- metrics -------------------------------------------------------

    /// Increment a counter by one.
    pub fn count(&self, name: &'static str) {
        self.count_by(name, 1);
    }

    /// Increment a counter by `n`.
    pub fn count_by(&self, name: &'static str, n: u64) {
        self.with(|i| i.metrics.count_by(name, None, n));
    }

    /// Increment a labelled counter (`name{label}`) by one.
    pub fn count_labeled(&self, name: &'static str, label: &str) {
        self.count_labeled_by(name, label, 1);
    }

    /// Increment a labelled counter by `n`.
    pub fn count_labeled_by(&self, name: &'static str, label: &str, n: u64) {
        self.with(|i| i.metrics.count_by(name, Some(label), n));
    }

    /// Set a gauge.
    pub fn gauge_set(&self, name: &'static str, value: u64) {
        self.with(|i| i.metrics.gauge_set(name, None, value));
    }

    /// Raise a gauge if `value` exceeds it (high-water mark).
    pub fn gauge_max(&self, name: &'static str, value: u64) {
        self.with(|i| i.metrics.gauge_max(name, None, value));
    }

    /// Record a histogram observation.
    pub fn observe(&self, name: &'static str, value: u64) {
        self.with(|i| i.metrics.observe(name, None, value));
    }

    /// Record a labelled histogram observation (`name{label}`) — e.g.
    /// per-endpoint request latencies keyed by route pattern.
    pub fn observe_labeled(&self, name: &'static str, label: &str, value: u64) {
        self.with(|i| i.metrics.observe(name, Some(label), value));
    }

    // ---- trace ---------------------------------------------------------

    /// Record a trace event with no detail.
    pub fn trace(&self, at_secs: u64, kind: &'static str, account: Option<u32>) {
        self.with(|i| {
            i.trace.push(TraceEvent {
                at_secs,
                kind: kind.into(),
                account,
                detail: String::new(), // lint:allow(alloc-hot): an empty String never touches the heap
            })
        });
    }

    /// Record a trace event whose detail string is built only when the
    /// sink is enabled — disabled runs never evaluate `detail`.
    pub fn trace_with(
        &self,
        at_secs: u64,
        kind: &'static str,
        account: Option<u32>,
        detail: impl FnOnce() -> String,
    ) {
        self.with(|i| {
            i.trace.push(TraceEvent {
                at_secs,
                kind: kind.into(),
                account,
                detail: detail(),
            })
        });
    }

    // ---- profiling -----------------------------------------------------

    /// Open a wall-clock span for `phase`; the time from now until the
    /// guard drops is folded into that phase's flat total *and* into
    /// the span tree at the current nesting depth.
    pub fn span(&self, phase: &'static str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard::noop(),
            Some(m) => {
                // Stamp before the bookkeeping so open-path overhead
                // counts against this span, not its parent's self time.
                let started = Instant::now();
                let (node, depth) = {
                    let mut i = m.lock().unwrap_or_else(PoisonError::into_inner);
                    let parent = i.stack.last().copied();
                    i.open_span(parent, phase)
                };
                SpanGuard {
                    sink: Some(Arc::clone(m)),
                    phase: Some(phase),
                    node,
                    depth,
                    started,
                }
            }
        }
    }

    /// Open an attribution-only span under the innermost open span
    /// (or at the root if none is open). Label pairs become part of the
    /// tree path — `subspan("event", &[("kind", "visit")])` records
    /// under `…;event{kind=visit}` — and are only formatted when the
    /// sink is enabled. Unlike [`span`](TelemetrySink::span), nothing
    /// is added to the flat phase profiler.
    pub fn subspan(&self, name: &'static str, labels: &[(&str, &str)]) -> SpanGuard {
        match &self.inner {
            None => SpanGuard::noop(),
            Some(m) => {
                let started = Instant::now();
                let (node, depth) = {
                    let mut i = m.lock().unwrap_or_else(PoisonError::into_inner);
                    let parent = i.stack.last().copied();
                    if labels.is_empty() {
                        i.open_span(parent, name)
                    } else {
                        i.open_span(parent, &labeled_name(name, labels))
                    }
                };
                SpanGuard {
                    sink: Some(Arc::clone(m)),
                    phase: None,
                    node,
                    depth,
                    started,
                }
            }
        }
    }

    // ---- export --------------------------------------------------------

    /// Point-in-time report of everything recorded so far. Empty for a
    /// disabled sink.
    pub fn report(&self) -> TelemetryReport {
        self.with(|i| TelemetryReport {
            metrics: i.metrics.snapshot(),
            trace: i.trace.snapshot(),
            trace_dropped: i.trace.dropped(),
            phases: i.profile.summaries(),
            spans: i.spans.snapshot(),
        })
        .unwrap_or_default()
    }

    /// The trace as JSONL (one event per line); empty when disabled.
    pub fn trace_jsonl(&self) -> String {
        self.with(|i| i.trace.to_jsonl()).unwrap_or_default()
    }
}

/// RAII guard for one profiling span (see [`TelemetrySink::span`],
/// [`TelemetrySink::subspan`], and [`SpanGuard::child`]).
#[must_use = "a span guard records its phase when dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    sink: Option<Arc<Mutex<Inner>>>,
    /// Flat-profiler phase to credit on drop; `None` for tree-only
    /// attribution spans.
    phase: Option<&'static str>,
    node: usize,
    depth: usize,
    started: Instant,
}

impl SpanGuard {
    fn noop() -> SpanGuard {
        SpanGuard {
            sink: None,
            phase: None,
            node: 0,
            depth: 0,
            started: Instant::now(),
        }
    }

    /// Open an attribution-only span as an explicit child of this one,
    /// independent of whatever else is on the span stack. Labels join
    /// the tree path exactly as in [`TelemetrySink::subspan`].
    pub fn child(&self, name: &'static str, labels: &[(&str, &str)]) -> SpanGuard {
        match &self.sink {
            None => SpanGuard::noop(),
            Some(m) => {
                let started = Instant::now();
                let (node, depth) = {
                    let mut i = m.lock().unwrap_or_else(PoisonError::into_inner);
                    if labels.is_empty() {
                        i.open_span(Some(self.node), name)
                    } else {
                        i.open_span(Some(self.node), &labeled_name(name, labels))
                    }
                };
                SpanGuard {
                    sink: Some(Arc::clone(m)),
                    phase: None,
                    node,
                    depth,
                    started,
                }
            }
        }
    }

    /// Annotate this span (and every currently open ancestor) with a
    /// simulation timestamp, widening their sim-time ranges. Root
    /// phase spans that saw sim time emit one deterministic `span`
    /// trace event when they drop.
    pub fn sim(&self, at_secs: u64) {
        if let Some(m) = &self.sink {
            let mut i = m.lock().unwrap_or_else(PoisonError::into_inner);
            i.spans.annotate_sim(self.node, at_secs);
            let open: Vec<usize> = i.stack.to_vec();
            for idx in open {
                if idx != self.node {
                    i.spans.annotate_sim(idx, at_secs);
                }
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(m) = self.sink.take() {
            let elapsed = self.started.elapsed();
            let mut i = m.lock().unwrap_or_else(PoisonError::into_inner);
            // A guard dropped out of LIFO order (or leaked children)
            // still leaves the stack consistent: everything at or
            // above this span's depth is closed with it.
            i.stack.truncate(self.depth);
            i.spans.record(self.node, elapsed);
            if let Some(phase) = self.phase {
                i.profile.record(phase, elapsed);
            }
            // Only the deterministic facets reach the trace ring:
            // the path and the sim-time range, never wall clock.
            if self.depth == 0 && self.phase.is_some() {
                if let Some((min, max)) = i.spans.sim_range(self.node) {
                    let path = i.spans.path_of(self.node);
                    i.trace.push(TraceEvent {
                        at_secs: max,
                        kind: "span".into(),
                        account: None,
                        detail: format!("{path} sim={min}..{max}"),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing_and_skips_closures() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.is_enabled());
        sink.count("x");
        let mut evaluated = false;
        sink.trace_with(1, "login", None, || {
            evaluated = true;
            "detail".to_string()
        });
        assert!(!evaluated, "detail closure must not run when disabled");
        let guard = sink.span("event-loop");
        let child = guard.child("event", &[("kind", "visit")]);
        child.sim(10);
        drop(child);
        drop(guard);
        drop(sink.subspan("poll", &[]));
        let report = sink.report();
        assert!(report.metrics.counters.is_empty());
        assert!(report.trace.is_empty());
        assert!(report.phases.is_empty());
        assert!(report.spans.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let sink = TelemetrySink::enabled();
        let other = sink.clone();
        sink.count("a");
        other.count("a");
        other.count_labeled("b", "x");
        assert_eq!(sink.report().metrics.counter("a"), 2);
        assert_eq!(sink.report().metrics.counter("b"), 1);
    }

    #[test]
    fn spans_accumulate_phases() {
        let sink = TelemetrySink::enabled();
        {
            let _outer = sink.span("event-loop");
            let _inner = sink.span("scrape");
        }
        {
            let _again = sink.span("scrape");
        }
        let report = sink.report();
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["scrape", "event-loop"]);
        assert_eq!(report.phases[0].entries, 2);
        // The tree keeps the two scrape contexts apart.
        let paths: Vec<&str> = report.spans.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(paths, vec!["event-loop", "event-loop;scrape", "scrape"]);
    }

    #[test]
    fn nesting_builds_paths_and_subspans_stay_out_of_phases() {
        let sink = TelemetrySink::enabled();
        {
            let loop_span = sink.span("event-loop");
            {
                let ev = loop_span.child("event", &[("kind", "visit"), ("class", "Curious")]);
                ev.sim(120);
                drop(ev);
            }
            {
                let _ev = sink.subspan("event", &[("kind", "scrape")]);
            }
            loop_span.sim(240);
        }
        let report = sink.report();
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["event-loop"], "subspans must not add phases");
        let paths: Vec<&str> = report.spans.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "event-loop",
                "event-loop;event{kind=scrape}",
                "event-loop;event{kind=visit,class=Curious}",
            ]
        );
        // `sim` on the child annotated the open ancestor too.
        let root = report.spans.node("event-loop").unwrap();
        assert_eq!((root.sim_min, root.sim_max), (Some(120), Some(240)));
        // A sim-annotated root phase span leaves one deterministic
        // trace event: path + sim range, no wall clock.
        assert_eq!(report.trace.len(), 1);
        assert_eq!(report.trace[0].kind, "span");
        assert_eq!(report.trace[0].at_secs, 240);
        assert_eq!(report.trace[0].detail, "event-loop sim=120..240");
    }

    #[test]
    fn multi_label_subspan_renders_all_pairs() {
        let sink = TelemetrySink::enabled();
        drop(sink.subspan("event", &[("kind", "visit"), ("class", "Gold Digger")]));
        let report = sink.report();
        assert_eq!(
            report.spans.nodes[0].path,
            "event{kind=visit,class=Gold Digger}"
        );
    }

    #[test]
    fn trace_round_trips_through_report() {
        let sink = TelemetrySink::enabled();
        sink.trace(100, "login", Some(4));
        sink.trace_with(200, "sale", None, || "wave=1".to_string());
        let report = sink.report();
        assert_eq!(report.trace.len(), 2);
        assert_eq!(report.trace[1].detail, "wave=1");
        assert_eq!(sink.trace_jsonl().lines().count(), 2);
    }
}
