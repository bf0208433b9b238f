//! Tracing for the traced run: the benchmark's own spans around each
//! public call, and the fold of the program's span tree and counters
//! into the per-layer metric names.
//!
//! A span records its name, start, end and parent. Self time is a
//! span's duration minus the part of it its children cover. Spans stay
//! in memory and are read once, when the run reports.

use crate::report::Record;
use pwnd::telemetry::{SpanTreeSnapshot, TelemetryReport};
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// The benchmark's span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Run `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it is handed become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = Instant::now();
        out
    }

    /// Run `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Summed duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).iter().map(ms).sum()
    }

    /// Mean duration of the spans named `name`, in milliseconds (0 when
    /// there are none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().map(ms).sum::<f64>() / d.len() as f64
        }
    }

    /// Summed self time of every span named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| ms(&self.self_time(i)))
            .sum()
    }

    /// Span `idx`'s duration minus the union of its children's
    /// intervals.
    fn self_time(&self, idx: usize) -> Duration {
        let mut kids: Vec<(Instant, Instant)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start, s.end))
            .collect();
        kids.sort();
        let mut covered = Duration::ZERO;
        let mut run: Option<(Instant, Instant)> = None;
        for (s, e) in kids {
            run = match run {
                Some((rs, re)) if s <= re => Some((rs, re.max(e))),
                Some((rs, re)) => {
                    covered += re - rs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((rs, re)) = run {
            covered += re - rs;
        }
        let span = &self.spans[idx];
        (span.end - span.start).saturating_sub(covered)
    }
}

/// A duration in milliseconds.
pub fn ms(d: &Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Summed total of the program's span nodes whose leaf, label
/// stripped, is `leaf` and whose leaf starts with `prefix`.
fn leaf_total(spans: &SpanTreeSnapshot, leaf: &str, prefix: &str) -> Duration {
    spans
        .nodes
        .iter()
        .filter(|n| n.leaf_base() == leaf && n.leaf().starts_with(prefix))
        .map(|n| n.total)
        .sum()
}

/// Summed self time of the program's span nodes whose leaf, label
/// stripped, is `leaf`.
fn leaf_self(spans: &SpanTreeSnapshot, leaf: &str) -> Duration {
    spans
        .nodes
        .iter()
        .filter(|n| n.leaf_base() == leaf)
        .map(|n| spans.self_time(&n.path))
        .sum()
}

/// Fold the merged telemetry of `experiments` simulated experiments
/// into the per-experiment layer metrics.
pub fn fold_experiments(report: &TelemetryReport, experiments: usize, rec: &mut Record) {
    let per = experiments.max(1) as f64;
    let spans = &report.spans;
    let per_ms = |d: Duration| ms(&d) / per;
    rec.set("corpus.bodies_ms", per_ms(leaf_total(spans, "bodies", "")));
    rec.set("corpus.vocab_ms", per_ms(leaf_total(spans, "vocab", "")));
    rec.set(
        "corpus.addresses_ms",
        per_ms(leaf_total(spans, "addresses", "")),
    );
    rec.set("webmail.index_ms", per_ms(spans.self_time("corpus;index")));
    let poll = leaf_self(spans, "poll");
    rec.set("monitor.poll_ms", per_ms(poll));
    rec.set("monitor.parse_ms", per_ms(leaf_total(spans, "parse", "")));
    let logins = report.counter("webmail.logins");
    rec.set(
        "monitor.scrapes",
        report.counter("monitor.scrapes") as f64 / per,
    );
    rec.set("webmail.logins", logins as f64 / per);
    rec.set(
        "monitor.poll_us_per_login",
        if logins == 0 {
            0.0
        } else {
            poll.as_secs_f64() * 1e6 / logins as f64
        },
    );
    rec.set(
        "sim.event_loop_self_ms",
        per_ms(spans.self_time("event-loop")),
    );
    rec.set(
        "sim.events_dispatched",
        report.counter("sim.events_dispatched") as f64 / per,
    );
    rec.set(
        "attacker.visit_ms",
        per_ms(leaf_total(spans, "event", "event{kind=visit")),
    );
    rec.set(
        "monitor.heartbeat_ms",
        per_ms(leaf_total(spans, "event", "event{kind=heartbeat")),
    );
    rec.set("core.dataset_ms", per_ms(leaf_total(spans, "dataset", "")));
}

/// The summed wall time of the program's phase `name` and how many
/// times it was entered.
pub fn phase(report: &TelemetryReport, name: &str) -> (Duration, u32) {
    report
        .phases
        .iter()
        .find(|p| p.name == name)
        .map_or((Duration::ZERO, 0), |p| (p.total, p.entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_record_name_bounds_and_parent() {
        let mut t = Tracer::default();
        t.span("outer", |t| {
            t.time("inner", || spin(Duration::from_millis(2)));
            t.time("inner", || spin(Duration::from_millis(2)));
        });
        t.time("after", || ());
        let s = &t.spans;
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("inner", Some(0)));
        assert_eq!((s[3].name, s[3].parent), ("after", None));
        assert!(s.iter().all(|x| x.end >= x.start));
        assert!(s[1].start >= s[0].start && s[2].end <= s[0].end);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::default();
        t.span("outer", |t| {
            spin(Duration::from_millis(3));
            t.time("inner", || spin(Duration::from_millis(5)));
        });
        let total = t.total_ms("outer");
        let inner = t.total_ms("inner");
        let own = t.self_ms("outer");
        assert!(inner >= 5.0 && own >= 3.0, "inner {inner} self {own}");
        assert!(
            (total - inner - own).abs() < 1e-6,
            "{total} != {inner} + {own}"
        );
        assert!(
            (t.self_ms("inner") - inner).abs() < 1e-9,
            "a leaf is all self time"
        );
    }
}
