//! The metric catalogue and the result line.
//!
//! Every run prints one JSON object as its last stdout line:
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! carries every [`END_TO_END`] metric, a traced run every
//! [`PER_LAYER`] metric. Both tables must match `BENCHMARK.json`
//! (a test checks that they do).
//!
//! End-to-end metrics are shared by all three workloads, so each names
//! a role whose meaning the workload fixes (see `README.md`). A
//! per-layer metric of a layer a workload never calls reads 0.

use std::collections::BTreeMap;
use std::fmt::Display;

/// One metric: its name and unit.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Dotted metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, printed with every value.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// Metrics of an untraced run.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s"),
    spec("throughput", "1/s"),
    spec("latency_ms", "ms"),
    spec("peak_rss_mb", "MB"),
];

/// Metrics of a traced run. Times are per experiment (one
/// 100-account simulation) unless the name says otherwise.
pub const PER_LAYER: &[Spec] = &[
    spec("corpus.bodies_ms", "ms"),
    spec("corpus.vocab_ms", "ms"),
    spec("corpus.addresses_ms", "ms"),
    spec("webmail.index_ms", "ms"),
    spec("monitor.poll_ms", "ms"),
    spec("monitor.parse_ms", "ms"),
    spec("monitor.scrapes", "count"),
    spec("webmail.logins", "count"),
    spec("monitor.poll_us_per_login", "us"),
    spec("sim.event_loop_self_ms", "ms"),
    spec("sim.events_dispatched", "count"),
    spec("attacker.visit_ms", "ms"),
    spec("monitor.heartbeat_ms", "ms"),
    spec("core.dataset_ms", "ms"),
    spec("core.experiment_ms", "ms"),
    spec("analysis.report_ms", "ms"),
    spec("core.state_bytes", "bytes"),
    spec("runner.shard_ms.p50", "ms"),
    spec("runner.shard_ms.max", "ms"),
    spec("runner.queue_wait_ms", "ms"),
    spec("runner.busy_share", "ratio"),
    spec("store.bytes_written", "bytes"),
    spec("store.files_synced", "count"),
    spec("store.bytes_per_record", "bytes"),
    spec("store.verify_ms", "ms"),
    spec("store.overview_ms", "ms"),
    spec("store.merge_ms", "ms"),
    spec("serve.index_build_ms", "ms"),
    spec("serve.render_us.healthz", "us"),
    spec("serve.render_us.stats", "us"),
    spec("serve.render_us.outlets", "us"),
    spec("serve.render_us.timeline", "us"),
    spec("serve.render_us.accesses", "us"),
    spec("serve.render_us.range", "us"),
    spec("serve.server_us.p50", "us"),
    spec("serve.server_us.p99", "us"),
    spec("serve.response_bytes", "bytes"),
    spec("loadgen.lag_us.p99", "us"),
    spec("loadgen.backlog_max", "count"),
    spec("telemetry.overhead_pct", "%"),
    spec("error_rate", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Record {
    values: BTreeMap<&'static str, f64>,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
}

impl Record {
    /// Record a catalogue metric. Panics on a name outside the
    /// catalogue: that is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|s| s.name == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Count one attempted operation or check; a failure is reported on
    /// stderr and counted, never raised.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// The result line for the metrics in `specs`. A traced run
    /// (`layers_may_idle`) reports 0 for a layer the workload never
    /// called; an untraced run must have measured every metric.
    pub fn result_line(&self, specs: &[Spec], layers_may_idle: bool) -> Result<String, String> {
        let mut failed = self.failed;
        let mut metrics = Vec::with_capacity(specs.len());
        for s in specs {
            let value = match self.values.get(s.name) {
                Some(&v) => v,
                None if layers_may_idle => 0.0,
                None => return Err(format!("metric {} was not measured", s.name)),
            };
            let value = if value.is_finite() {
                value
            } else {
                eprintln!("check failed: metric {} is not finite", s.name);
                failed += 1;
                0.0
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                s.name, s.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            self.attempted.max(1),
            metrics.join(", ")
        ))
    }
}

/// Print one human-readable figure, by name and unit, above the result
/// line. `samples` is the sample count a percentile was read from.
pub fn info(name: &str, value: f64, unit: &str, samples: Option<usize>) {
    match samples {
        Some(n) => println!("{name} = {value:.3} {unit} (n={n})"),
        None => println!("{name} = {value:.3} {unit}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd::telemetry::json::Json;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(s.name), "bad metric name {}", s.name);
            assert!(seen.insert(s.name), "duplicate metric name {}", s.name);
            assert!(!s.unit.is_empty(), "{} has no unit", s.name);
        }
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        let mut r = Record::default();
        for s in END_TO_END {
            r.set(s.name, 1.5);
        }
        r.check(true, "ok");
        let line = r.result_line(END_TO_END, false).expect("all measured");
        let v = Json::parse(&line).expect("result line is JSON");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let metrics = v.get("metrics").expect("metrics object");
        for s in END_TO_END {
            let m = metrics.get(s.name).expect("metric present");
            assert_eq!(m.get("unit"), Some(&Json::Str(s.unit.to_string())));
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
        }
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_is_an_error() {
        let r = Record::default();
        assert!(r.result_line(END_TO_END, false).is_err());
        let idle = r.result_line(PER_LAYER, true).expect("idle layers read 0");
        assert!(idle.contains("\"serve.server_us.p99\": {\"value\": 0, \"unit\": \"us\"}"));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Record::default();
        for s in END_TO_END {
            r.set(s.name, 1.0);
        }
        r.check(true, "fine");
        r.check(false, "seeded failure");
        r.set("latency_ms", f64::NAN);
        let line = r.result_line(END_TO_END, false).expect("measured");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 2,"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(listed)) = doc.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            let listed: Vec<(String, String)> = listed
                .iter()
                .map(|m| {
                    let field = |f: &str| match m.get(f) {
                        Some(Json::Str(s)) => s.clone(),
                        _ => panic!("{key} entry without {f}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = specs
                .iter()
                .map(|s| (s.name.to_string(), s.unit.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }
}
