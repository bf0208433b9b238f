//! `fleet_store`: a durable quick-profile fleet, written and read back.
//!
//! Each round builds a fresh 1000-account store with `jobs = nproc`
//! (`run_fleet_store`), then reads it back the way `pwnd report` does:
//! `VerifiedStore::open`, `store_overview` and `merge_store_jsonl` into
//! memory. Mailboxes are small (30–50 emails), so the scraper, event
//! loop, runner, serialization, SHA-256 and fsync carry the time.
//!
//! Rounds cycle through [`SEEDS`] seeds for the whole budget and the
//! figures are medians over every round: on a shared host the median
//! of a whole run moves less from run to run than any one round, the
//! fastest included.
//!
//! * `setup_s`: one default-seed store whose merged JSONL must match
//!   the committed digest.
//! * `throughput`: accounts made durable per second
//!   (`fleet.accounts_per_s`).
//! * `latency_ms`: read-back time of one store, each round's fastest
//!   of [`READS`] read-backs; the store's size over it is
//!   `report.mb_per_s`.

use crate::report::{info, Record};
use crate::sys::{dir_usage, nproc, WorkDir};
use crate::trace::{fold_experiments, ms, phase, Tracer};
use crate::{keep_going, stats, Args, DEFAULT_SEED, SETUP_REPEATS};
use pwnd::core::fleet::run_fleet_shards;
use pwnd::core::hash::Sha256;
use pwnd::store::{merge_store_jsonl, run_fleet_store, store_overview, StoreRun, VerifiedStore};
use pwnd::FleetConfig;
use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Honey accounts per store: ten 100-account shards.
pub const ACCOUNTS: u32 = 1000;

/// SHA-256 of the merged JSONL of the default-seed store.
pub const MERGED_SHA256: &str = "055f0b1cca5100df8930ee24e4eec9feb4624d1e4af108d86f7b005aefc47e1c";

/// Consecutive seeds from `--seed` a timed run cycles through.
const SEEDS: u64 = 3;

/// Rounds each seed gets at least: 21 in all, so the medians have ten
/// samples beyond them.
const MIN_REPEATS: usize = 7;

/// Read-backs of each store a round makes; the fastest counts.
const READS: usize = 3;

fn config(seed: u64) -> FleetConfig {
    FleetConfig::new(seed, ACCOUNTS, nproc())
}

/// What reading one store back produced.
pub struct ReadBack {
    /// SHA-256 of the merged JSONL.
    pub merged_sha256: String,
    /// Records merged.
    pub records: u64,
    /// Wall time of the read-back.
    pub read: Duration,
}

/// Build a store of `cfg` at `dir` and read it back [`READS`] times,
/// timing both halves through `tracer`. Returns the build's wall time
/// and what the fastest read-back produced; `None` when a step failed
/// (counted in `rec`).
pub fn round(
    rec: &mut Record,
    tracer: &mut Tracer,
    cfg: &FleetConfig,
    dir: &Path,
    merged: &mut Vec<u8>,
) -> Option<(Duration, ReadBack)> {
    let t = Instant::now();
    let built = tracer.time("fleet.write", || run_fleet_store(cfg, dir));
    let write = t.elapsed();
    let run = match built {
        Ok(run) => run,
        Err(e) => {
            rec.check(false, format!("run_fleet_store seed {}: {e}", cfg.seed));
            return None;
        }
    };
    rec.check(
        run.shards_run == run.shards_total && run.accounts == cfg.accounts,
        format!(
            "seed {}: ran {} of {} shards",
            cfg.seed, run.shards_run, run.shards_total
        ),
    );
    let mut best: Option<ReadBack> = None;
    for _ in 0..READS {
        let back = read_back(rec, tracer, dir, merged)?;
        match &best {
            Some(b) => {
                rec.check(
                    back.merged_sha256 == b.merged_sha256,
                    format!("seed {}: two read-backs merged differently", cfg.seed),
                );
                if back.read < b.read {
                    best = Some(back);
                }
            }
            None => best = Some(back),
        }
    }
    best.map(|back| (write, back))
}

/// Verify, summarize and merge the store at `dir`, as `pwnd report`
/// and `pwnd fleet --out` readers do.
pub fn read_back(
    rec: &mut Record,
    tracer: &mut Tracer,
    dir: &Path,
    merged: &mut Vec<u8>,
) -> Option<ReadBack> {
    merged.clear();
    let t0 = Instant::now();
    let read = tracer.span("store.read", |t| {
        let store = t.time("store.verify", || VerifiedStore::open(dir))?;
        let overview = t.time("store.overview", || store_overview(dir))?;
        let records = t.time("store.merge", || merge_store_jsonl(dir, &mut *merged))?;
        Ok::<_, std::io::Error>((store.manifest().records(), overview.total_accesses, records))
    });
    let elapsed = t0.elapsed();
    match read {
        Ok((manifest_records, accesses, records)) => {
            rec.check(
                records == manifest_records,
                format!("merged {records} records, manifest lists {manifest_records}"),
            );
            rec.check(accesses > 0, "the store overview counts no accesses");
            Some(ReadBack {
                merged_sha256: Sha256::digest_hex(merged),
                records,
                read: elapsed,
            })
        }
        Err(e) => {
            rec.check(false, format!("reading back {}: {e}", dir.display()));
            None
        }
    }
}

/// The default-seed store, checked against the committed digest.
fn reference(rec: &mut Record, work: &WorkDir, merged: &mut Vec<u8>) {
    let dir = work.fresh("reference");
    let got = round(
        rec,
        &mut Tracer::default(),
        &config(DEFAULT_SEED),
        &dir,
        merged,
    );
    if let Some((_, got)) = got {
        rec.check(
            got.merged_sha256 == MERGED_SHA256,
            format!(
                "fleet seed {DEFAULT_SEED}: merged sha256 {}, committed {MERGED_SHA256}",
                got.merged_sha256
            ),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

pub fn run(args: &Args, rec: &mut Record, work: &WorkDir) -> Result<(), String> {
    let mut merged = Vec::new();
    if args.trace {
        traced(args, rec, work, &mut merged);
        return Ok(());
    }
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        reference(rec, work, &mut merged);
        setups.push(t.elapsed().as_secs_f64());
    }
    rec.set("setup_s", stats::median(&setups));

    // Build and read-back times, and per seed the first merged digest.
    let n = SEEDS as usize;
    let (mut write, mut read) = (Vec::new(), Vec::new());
    let mut digests: Vec<Option<String>> = vec![None; n];
    let mut store_bytes = vec![0u64; n];
    let start = Instant::now();
    let mut rounds = 0;
    while keep_going(start, args.seconds, rounds, MIN_REPEATS * n) {
        let i = rounds % n;
        let cfg = config(args.seed + i as u64);
        let dir = work.fresh(&format!("round-{rounds}"));
        if let Some((built, got)) = round(rec, &mut Tracer::default(), &cfg, &dir, &mut merged) {
            let first = digests[i].get_or_insert_with(|| got.merged_sha256.clone());
            rec.check(
                *first == got.merged_sha256,
                format!("seed {}: round {rounds} merged differently", cfg.seed),
            );
            write.push(built.as_secs_f64());
            read.push(got.read.as_secs_f64());
            store_bytes[i] = dir_usage(&dir).map_or(0, |(bytes, _)| bytes);
        }
        let _ = std::fs::remove_dir_all(&dir);
        rounds += 1;
    }
    if write.is_empty() {
        return Err("no round completed".to_string());
    }
    let write_s = stats::median(&write);
    let read_s = stats::median(&read);
    let mb = store_bytes.iter().sum::<u64>() as f64 / n as f64 / 1e6;
    rec.set("throughput", f64::from(ACCOUNTS) / write_s);
    rec.set("latency_ms", read_s * 1e3);
    info(
        "fleet.accounts_per_s",
        f64::from(ACCOUNTS) / write_s,
        "accounts/s",
        Some(write.len()),
    );
    info("report.mb_per_s", mb / read_s, "MB/s", Some(read.len()));
    info("fleet.write_ms.p50", write_s * 1e3, "ms", Some(write.len()));
    info("report.read_ms.p50", read_s * 1e3, "ms", Some(read.len()));
    Ok(())
}

/// The traced run: untraced, traced and untraced rounds at `--seed`
/// (the difference is the telemetry overhead), then the shards once
/// more through `run_fleet_shards` to time each one.
fn traced(args: &Args, rec: &mut Record, work: &WorkDir, merged: &mut Vec<u8>) {
    reference(rec, work, merged);
    let plain_cfg = config(args.seed);
    let traced_cfg = config(args.seed).with_telemetry(true);

    let mut plain = Tracer::default();
    let dir = work.fresh("plain");
    let want = round(rec, &mut plain, &plain_cfg, &dir, merged).map(|(_, r)| r.merged_sha256);
    let _ = std::fs::remove_dir_all(&dir);

    let mut tracer = Tracer::default();
    let dir = work.fresh("traced");
    let built = tracer.time("fleet.write", || run_fleet_store(&traced_cfg, &dir));
    let run = match built {
        Ok(run) => run,
        Err(e) => {
            rec.check(false, format!("traced run_fleet_store: {e}"));
            return;
        }
    };
    if let Some(got) = read_back(rec, &mut tracer, &dir, merged) {
        rec.check(
            want.as_deref() == Some(got.merged_sha256.as_str()),
            "telemetry changed the merged store",
        );
        if let Ok((bytes, files)) = dir_usage(&dir) {
            rec.set("store.bytes_written", bytes as f64);
            rec.set("store.files_synced", files as f64);
            rec.set(
                "store.bytes_per_record",
                bytes as f64 / got.records.max(1) as f64,
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    fold_experiments(&run.telemetry, run.shards_run, rec);
    fold_runner(&run, rec);
    rec.set("store.verify_ms", tracer.self_ms("store.verify"));
    rec.set("store.overview_ms", tracer.self_ms("store.overview"));
    rec.set("store.merge_ms", tracer.self_ms("store.merge"));
    // A second untraced round after the traced one, so a drift in host
    // speed does not read as telemetry cost.
    let dir = work.fresh("plain-again");
    let again = round(rec, &mut plain, &plain_cfg, &dir, merged).map(|(_, r)| r.merged_sha256);
    rec.check(again == want, "two untraced rounds merged differently");
    let _ = std::fs::remove_dir_all(&dir);
    rec.set(
        "telemetry.overhead_pct",
        (tracer.total_ms("fleet.write") / plain.mean_ms("fleet.write") - 1.0) * 100.0,
    );

    let shard_ms = shard_times(rec, &plain_cfg);
    if !shard_ms.is_empty() {
        rec.set("runner.shard_ms.p50", stats::ceil_rank(&shard_ms, 0.5));
        rec.set("runner.shard_ms.max", stats::ceil_rank(&shard_ms, 1.0));
    }
}

/// Fold a traced store run's runner phases into the runner metrics.
pub fn fold_runner(run: &StoreRun, rec: &mut Record) {
    let (runs, entries) = phase(&run.telemetry, "runner.run");
    let (batch, _) = phase(&run.telemetry, "runner.batch");
    let (queue_wait, _) = phase(&run.telemetry, "runner.queue-wait");
    rec.set("core.experiment_ms", ms(&runs) / f64::from(entries.max(1)));
    rec.set("runner.queue_wait_ms", ms(&queue_wait));
    rec.set(
        "runner.busy_share",
        runs.as_secs_f64() / (batch.as_secs_f64() * run.jobs as f64),
    );
    rec.set("core.state_bytes", run.peak_rss_proxy as f64);
}

/// Wall time of each shard, from the moments the runner hands finished
/// shards over: consecutive hand-overs on one worker thread bracket one
/// shard. Sorted ascending, in milliseconds.
fn shard_times(rec: &mut Record, cfg: &FleetConfig) -> Vec<f64> {
    let done: Mutex<Vec<(ThreadId, Instant)>> = Mutex::new(Vec::new());
    let start = Instant::now();
    let ran = run_fleet_shards(cfg, &cfg.shard_specs(), |_, bytes| {
        let at = Instant::now();
        std::hint::black_box(bytes);
        done.lock()
            .expect("no holder of the hand-over log panics")
            .push((std::thread::current().id(), at));
        Ok(())
    });
    rec.check(ran.is_ok(), "run_fleet_shards failed");
    // Each worker pushes its own hand-overs in order, so per thread the
    // log is chronological.
    let done = done
        .into_inner()
        .expect("no holder of the hand-over log panics");
    let mut last: Vec<(ThreadId, Instant)> = Vec::new();
    let mut times = Vec::with_capacity(done.len());
    for (thread, at) in done {
        let i = match last.iter().position(|&(t, _)| t == thread) {
            Some(i) => i,
            None => {
                last.push((thread, start));
                last.len() - 1
            }
        };
        times.push(ms(&(at - last[i].1)));
        last[i].1 = at;
    }
    stats::sorted(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_truncated_shard_raises_the_error_count() {
        let work = WorkDir::create("test-truncated-shard").expect("scratch dir");
        let dir = work.fresh("store");
        let cfg = FleetConfig::new(5, 150, 2);
        let mut rec = Record::default();
        let mut merged = Vec::new();
        assert!(round(&mut rec, &mut Tracer::default(), &cfg, &dir, &mut merged).is_some());
        assert_eq!(rec.failed, 0, "a clean store reads back clean");

        let shard = dir.join(pwnd::store::shard_file_name(1));
        let len = std::fs::metadata(&shard).expect("shard file").len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&shard)
            .expect("open");
        file.set_len(len / 2).expect("truncate");
        drop(file);

        let before = rec.failed;
        assert!(read_back(&mut rec, &mut Tracer::default(), &dir, &mut merged).is_none());
        assert!(
            rec.failed > before,
            "a truncated shard must count as a failure"
        );
    }
}
