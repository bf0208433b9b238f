//! `paper_sim`: the paper reproduction itself.
//!
//! Paper-config experiments (200–300 emails per account, 236 days) on
//! consecutive seeds from `--seed`, one after another on one thread,
//! each followed by `analysis().render()`. Mailbox seeding dominates,
//! so tokenizer and search-index work shows here.
//!
//! A timed run cycles through [`SEEDS`] seeds for the whole budget and
//! reports medians over every experiment it ran: on a shared host the
//! median of a whole run moves less from run to run than any one
//! repeat, the fastest included.
//!
//! * `setup_s`: one default-seed experiment whose dataset and report
//!   digests must match the committed ones.
//! * `throughput`: simulated accounts per second of `Experiment::run`
//!   (`sim.accounts_per_s`).
//! * `latency_ms`: one paper reproduction, experiment plus rendered
//!   report.

use crate::report::{info, Record};
use crate::trace::{fold_experiments, ms, Tracer};
use crate::{keep_going, stats, Args, DEFAULT_SEED, SETUP_REPEATS};
use pwnd::core::hash::Sha256;
use pwnd::telemetry::{TelemetryReport, TelemetrySink};
use pwnd::{Experiment, ExperimentConfig, RunOutput};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// SHA-256 of `dataset_json()` for `ExperimentConfig::paper(2016)`.
pub const DATASET_SHA256: &str = "33c4e953acdef7a1446be32dbcfc118a372911a2de987b7f3c9ab0addd374387";
/// SHA-256 of `analysis().render()` for `ExperimentConfig::paper(2016)`.
pub const REPORT_SHA256: &str = "e31da7bfb9afb523e612da7b73cd96a734ea87907516994d56ed584d0b8220dc";

/// Consecutive seeds from `--seed` a timed run cycles through.
const SEEDS: u64 = 5;

/// Times each seed is run at least: 20 experiments in all, so the
/// median has ten samples beyond it.
const MIN_REPEATS: usize = 4;

/// Seeds the traced run simulates, each once untraced and once traced.
const TRACED_SEEDS: u64 = 4;

fn simulate(cfg: ExperimentConfig) -> (RunOutput, String) {
    let out = Experiment::new(cfg).run();
    let report = out.analysis().render();
    (out, report)
}

/// Check one experiment's output shape.
fn check_output(rec: &mut Record, seed: u64, out: &RunOutput, report: &str) {
    let want = ExperimentConfig::paper(seed).plan.total_accounts();
    rec.check(
        out.dataset.accounts.len() == want,
        format!(
            "paper seed {seed}: {} accounts, want {want}",
            out.dataset.accounts.len()
        ),
    );
    rec.check(
        report.contains("== Overview (paper §4.1) =="),
        format!("paper seed {seed}: the analysis report has no overview"),
    );
}

/// The default-seed experiment, checked against the committed digests.
pub fn reference(rec: &mut Record) {
    let (out, report) = simulate(ExperimentConfig::paper(DEFAULT_SEED));
    let dataset = Sha256::digest_hex(out.dataset_json().as_bytes());
    let rendered = Sha256::digest_hex(report.as_bytes());
    rec.check(
        dataset == DATASET_SHA256,
        format!(
            "paper seed {DEFAULT_SEED}: dataset_json sha256 {dataset}, committed {DATASET_SHA256}"
        ),
    );
    rec.check(
        rendered == REPORT_SHA256,
        format!("paper seed {DEFAULT_SEED}: report sha256 {rendered}, committed {REPORT_SHA256}"),
    );
}

pub fn run(args: &Args, rec: &mut Record) -> Result<(), String> {
    if args.trace {
        traced(args, rec);
        return Ok(());
    }
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        reference(rec);
        setups.push(t.elapsed().as_secs_f64());
    }
    rec.set("setup_s", stats::median(&setups));

    // Experiment times, and experiment-plus-report times.
    let (mut sim, mut full) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut done = 0;
    while keep_going(start, args.seconds, done, MIN_REPEATS * SEEDS as usize) {
        let seed = args.seed + done as u64 % SEEDS;
        let t = Instant::now();
        let out = Experiment::new(ExperimentConfig::paper(seed)).run();
        sim.push(t.elapsed().as_secs_f64());
        let report = out.analysis().render();
        full.push(t.elapsed().as_secs_f64());
        check_output(rec, seed, &out, &report);
        black_box((out, report));
        done += 1;
    }
    let accounts = ExperimentConfig::paper(args.seed).plan.total_accounts() as f64;
    let sim_s = stats::median(&sim);
    let full_s = stats::median(&full);
    rec.set("throughput", accounts / sim_s);
    rec.set("latency_ms", full_s * 1e3);
    info(
        "sim.accounts_per_s",
        accounts / sim_s,
        "accounts/s",
        Some(done),
    );
    info("paper.reproduction_ms.p50", full_s * 1e3, "ms", Some(done));
    Ok(())
}

/// The traced run: a fixed set of seeds, each simulated untraced and
/// traced (alternating which goes first), so counts repeat exactly and
/// the difference is the telemetry overhead.
fn traced(args: &Args, rec: &mut Record) {
    reference(rec);
    let mut tracer = Tracer::default();
    let mut reports: Vec<TelemetryReport> = Vec::new();
    let mut plain = Duration::ZERO;
    let mut traced = Duration::ZERO;
    let mut state_bytes = 0u64;
    for i in 0..TRACED_SEEDS {
        let seed = args.seed + i;
        for pass in 0..2 {
            if (pass == 0) == (i % 2 == 0) {
                let t = Instant::now();
                let (out, report) = simulate(ExperimentConfig::paper(seed));
                plain += t.elapsed();
                check_output(rec, seed, &out, &report);
            } else {
                let t = Instant::now();
                let out = tracer.time("experiment", || {
                    Experiment::new(ExperimentConfig::paper(seed))
                        .with_telemetry(TelemetrySink::enabled())
                        .run()
                });
                let report = tracer.time("analysis", || out.analysis().render());
                traced += t.elapsed();
                check_output(rec, seed, &out, &report);
                state_bytes = state_bytes.max(out.rss_proxy_bytes);
                reports.push(out.telemetry_report());
            }
        }
    }
    let n = TRACED_SEEDS as usize;
    fold_experiments(&TelemetryReport::merge(&reports), n, rec);
    rec.set("core.experiment_ms", tracer.mean_ms("experiment"));
    rec.set("analysis.report_ms", tracer.mean_ms("analysis"));
    rec.set("core.state_bytes", state_bytes as f64);
    rec.set(
        "telemetry.overhead_pct",
        (ms(&traced) / ms(&plain) - 1.0) * 100.0,
    );
}
