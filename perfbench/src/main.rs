//! The pwnd benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sim|fleet_store|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload drives the program only through its public API, times
//! every call from the outside, checks the outputs, and prints one JSON
//! result line last on stdout (see [`report`]). `--trace 0` measures
//! the end-to-end metrics with the program's telemetry off; `--trace 1`
//! is the separate traced run that yields the per-layer metrics.
//! `README.md` next to this package lists what each metric means on
//! each workload.

mod fleet_store;
mod paper_sim;
mod report;
mod serve_mix;
mod stats;
mod sys;
mod trace;

use report::{Record, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed the committed output digests were taken at.
pub const DEFAULT_SEED: u64 = 2016;

/// How often set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".to_string());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds),
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Whether a timed loop that started at `start` and has done `done`
/// units goes on: until the budget is spent, and at least until
/// `min_units` are done.
pub fn keep_going(start: Instant, budget: Duration, done: usize, min_units: usize) -> bool {
    done < min_units || start.elapsed() < budget
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper_sim|fleet_store|serve_mix \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let work = match sys::WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rec = Record::default();
    let outcome = match args.workload.as_str() {
        "paper_sim" => paper_sim::run(&args, &mut rec),
        "fleet_store" => fleet_store::run(&args, &mut rec, &work),
        "serve_mix" => serve_mix::run(&args, &mut rec, &work),
        other => Err(format!("unknown workload {other}")),
    };
    drop(work);
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let error_rate = rec.failed as f64 / rec.attempted.max(1) as f64;
    report::info(
        "error_rate",
        error_rate,
        "ratio",
        Some(rec.attempted as usize),
    );
    let line = if args.trace {
        rec.set("error_rate", error_rate);
        rec.result_line(PER_LAYER, true)
    } else {
        match sys::peak_rss_mb() {
            Some(mb) => rec.set("peak_rss_mb", mb),
            None => eprintln!("perfbench: /proc/self/status reports no VmHWM"),
        }
        rec.result_line(END_TO_END, false)
    };
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn a_full_command_line_parses() {
        let a = parse("--workload serve_mix --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(a.workload, "serve_mix");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(20));
        assert!(a.trace);
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        for bad in [
            "",
            "--workload paper_sim --seed 1 --seconds 5",
            "--workload paper_sim --seed x --seconds 5 --trace 0",
            "--workload paper_sim --seed 1 --seconds 0 --trace 0",
            "--workload paper_sim --seed 1 --seconds 5 --trace 2",
            "--workload paper_sim --seed 1 --seconds 5 --trace 0 --extra 1",
            "--workload paper_sim --seed 1 --seconds 5 --trace",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
