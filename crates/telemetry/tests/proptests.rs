//! Property tests for [`TelemetryReport::merge`]: the merge must be
//! **associative** (any grouping of the same submission-ordered inputs
//! yields an identical report — this is what lets the runner merge
//! worker reports opportunistically) and **order-insensitive** for the
//! order-free facets — counters, gauges, histograms, and span trees —
//! so sharded fleet telemetry can be folded in any order.
//!
//! Traces are deliberately submission-order-sensitive, so the
//! permutation property compares metrics, spans, and the phases derived
//! from the spans.

use proptest::prelude::*;
use pwnd_telemetry::{TelemetryReport, TelemetrySink};

/// Deterministically interpret `(selector, value)` ops into one report,
/// exercising every mergeable facet including nested spans.
fn build_report(ops: &[(u8, u64)]) -> TelemetryReport {
    let sink = TelemetrySink::enabled();
    for &(sel, v) in ops {
        match sel % 6 {
            0 => sink.count_by("runs", v % 100),
            1 => {
                let label = if v % 2 == 0 { "ok" } else { "blocked" };
                sink.count_labeled_by("webmail.logins", label, v % 10);
            }
            2 => sink.gauge_max("queue.depth_high_water", v % 1_000),
            3 => sink.observe("security.risk_score_milli", v),
            4 => sink.trace(v % 50, "login", Some((v % 5) as u32)),
            _ => {
                let phase = if v % 2 == 0 { "event-loop" } else { "scrape" };
                let outer = sink.span(phase, &[]);
                outer.sim(v % 100);
                if v % 3 != 0 {
                    let kind = if v % 4 == 0 { "visit" } else { "scrape" };
                    drop(sink.span("event", &[("kind", kind)]));
                }
            }
        }
    }
    sink.report()
}

proptest! {
    /// Any grouping of a 3-way merge — flat, left-nested, right-nested —
    /// yields the identical report: metrics, trace interleaving, phase
    /// totals, and span trees (exact `Duration` addition) all agree.
    #[test]
    fn merge_is_associative(ops in proptest::collection::vec((0u8..6, 0u64..10_000), 0..60)) {
        let mut split: [Vec<(u8, u64)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, op) in ops.iter().enumerate() {
            split[i % 3].push(*op);
        }
        let [a, b, c] = split.map(|ops| build_report(&ops));
        let flat = TelemetryReport::merge(&[a.clone(), b.clone(), c.clone()]);
        let left = TelemetryReport::merge(&[
            TelemetryReport::merge(&[a.clone(), b.clone()]),
            c.clone(),
        ]);
        let right = TelemetryReport::merge(&[
            a.clone(),
            TelemetryReport::merge(&[b.clone(), c.clone()]),
        ]);
        for other in [&left, &right] {
            prop_assert_eq!(&flat, other);
            prop_assert_eq!(&flat.phases, &other.phases);
            prop_assert_eq!(&flat.spans, &other.spans);
        }
    }

    /// Permuting the inputs leaves every order-free facet unchanged:
    /// counters, gauges, histograms, span trees, and the phases.
    #[test]
    fn merge_is_order_insensitive_for_order_free_facets(
        ops in proptest::collection::vec((0u8..6, 0u64..10_000), 0..60),
    ) {
        let mut split: [Vec<(u8, u64)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, op) in ops.iter().enumerate() {
            split[i % 3].push(*op);
        }
        let [a, b, c] = split.map(|ops| build_report(&ops));
        let fwd = TelemetryReport::merge(&[a.clone(), b.clone(), c.clone()]);
        let rev = TelemetryReport::merge(&[c, b, a]);
        prop_assert_eq!(&fwd.metrics, &rev.metrics);
        prop_assert_eq!(&fwd.spans, &rev.spans);
        prop_assert_eq!(fwd.trace_dropped, rev.trace_dropped);
        prop_assert_eq!(&fwd.phases, &rev.phases);
    }

    /// A streamed report survives the JSONL round trip exactly,
    /// whatever it recorded.
    #[test]
    fn json_line_round_trip_is_exact(ops in proptest::collection::vec((0u8..6, 0u64..10_000), 0..40)) {
        let report = build_report(&ops);
        let line = report.to_json_line();
        let back = TelemetryReport::from_json_line(&line)
            .map_err(TestCaseError::Fail)?;
        prop_assert_eq!(&back, &report);
        prop_assert_eq!(&back.phases, &report.phases);
        prop_assert_eq!(&back.spans, &report.spans);
    }
}
