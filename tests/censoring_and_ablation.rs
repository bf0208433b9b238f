//! Cross-crate tests of the monitoring methodology's censoring semantics
//! and the experiment's configuration toggles.

use pwnd::analysis::tables::overview;
use pwnd::{Experiment, ExperimentConfig};

#[test]
fn observed_accesses_are_a_subset_of_attempted() {
    let out = Experiment::new(ExperimentConfig::quick(7)).run();
    assert!(out.dataset.accesses.len() <= out.ground_truth.attempted_accesses);
    // Censoring is material (hijacks and blocks lock accounts): at least
    // a few attempted accesses must have been lost.
    assert!(out.dataset.accesses.len() < out.ground_truth.attempted_accesses);
}

#[test]
fn login_filter_ablation_suppresses_most_accesses() {
    // §3.4: "most accesses would be blocked if Google did not disable the
    // login filters." Same seed, both arms.
    let base = Experiment::new(ExperimentConfig::quick(11)).run();
    let mut cfg = ExperimentConfig::quick(11);
    cfg.login_filter_enabled = true;
    let filtered = Experiment::new(cfg).run();
    let a = base.dataset.accesses.len() as f64;
    let b = filtered.dataset.accesses.len() as f64;
    assert!(
        b < a * 0.5,
        "filter-on accesses {b} should be under half of filter-off {a}"
    );
}

#[test]
fn decoy_seeding_adds_bait_that_attackers_find() {
    let mut cfg = ExperimentConfig::quick(13);
    cfg.seed_decoys = true;
    let out = Experiment::new(cfg).run();
    // The decoys are in the corpus...
    assert!(out.corpus_terms.contains_key("routing"));
    // ...and gold diggers searching "account"/"salary"/"password" open
    // them (§5 future work: decoys widen the observable search surface).
    let decoy_opened = out
        .dataset
        .opened_texts
        .iter()
        .any(|t| t.contains("Ref: dcy") || t.contains("Reference: dcy"));
    assert!(decoy_opened, "no decoy was ever opened");
}

#[test]
fn without_case_studies_no_bitcoin_appears() {
    let mut cfg = ExperimentConfig::quick(17);
    cfg.case_studies = false;
    let out = Experiment::new(cfg).run();
    let analysis = out.analysis();
    // No blackmailer → no bitcoin anywhere in the opened set.
    assert!(analysis.tfidf.get("bitcoin").is_none());
    assert!(!out
        .dataset
        .opened_texts
        .iter()
        .any(|t| t.contains("bitcoin")));
}

#[test]
fn hijack_detection_matches_ground_truth_direction() {
    let out = Experiment::new(ExperimentConfig::quick(19)).run();
    let detected: Vec<u32> = out
        .dataset
        .accounts
        .iter()
        .filter(|r| r.hijack_detected_secs.is_some())
        .map(|r| r.account)
        .collect();
    // Every detected hijack is a real hijack (no false positives — the
    // scraper's password stopped working for a reason).
    for acct in &detected {
        assert!(
            out.ground_truth.hijacked_accounts.contains(acct),
            "false hijack detection on account {acct}"
        );
    }
    // And detection catches nearly all of them (the scraper retries every
    // few hours).
    assert!(detected.len() * 10 >= out.ground_truth.hijacked_accounts.len() * 9);
}

#[test]
fn heartbeat_block_inference_is_mostly_accurate() {
    let out = Experiment::new(ExperimentConfig::quick(23)).run();
    let blocked_gt: Vec<u32> = out
        .ground_truth
        .blocked_accounts
        .iter()
        .map(|&(a, _)| a)
        .collect();
    let inferred: Vec<u32> = out
        .dataset
        .accounts
        .iter()
        .filter(|r| r.block_detected_secs.is_some())
        .map(|r| r.account)
        .collect();
    // Heartbeat silence may also come from a deleted script, so inferred
    // blocks are allowed to slightly overshoot, but every real block must
    // be seen (its heartbeats really did stop) unless it happened within
    // the final two days of the window.
    for &(acct, day) in &out.ground_truth.blocked_accounts {
        if day < (out.dataset.accounts.len() as f64).min(118.0) - 3.0 {
            assert!(
                inferred.contains(&acct),
                "missed block on account {acct} (day {day})"
            );
        }
    }
    let false_positives = inferred.iter().filter(|a| !blocked_gt.contains(a)).count();
    assert!(
        false_positives <= out.ground_truth.scripts_deleted.len() + 1,
        "too many spurious block detections: {false_positives}"
    );
}

#[test]
fn deterministic_dataset_and_report() {
    let a = Experiment::new(ExperimentConfig::quick(29)).run();
    let b = Experiment::new(ExperimentConfig::quick(29)).run();
    assert_eq!(a.dataset_json(), b.dataset_json());
    assert_eq!(a.analysis().render(), b.analysis().render());
}

#[test]
fn shorter_windows_observe_fewer_accesses() {
    let mut short = ExperimentConfig::quick(31);
    short.observation_days = 40;
    let mut long = ExperimentConfig::quick(31);
    long.observation_days = 120;
    let s = Experiment::new(short).run();
    let l = Experiment::new(long).run();
    assert!(
        s.dataset.accesses.len() < l.dataset.accesses.len(),
        "short {} vs long {}",
        s.dataset.accesses.len(),
        l.dataset.accesses.len()
    );
}

#[test]
fn overview_outlet_accounts_bounded_by_plan() {
    let out = Experiment::new(ExperimentConfig::quick(37)).run();
    let ov = overview(&out.dataset);
    assert!(ov.accessed_by_outlet.get("paste").copied().unwrap_or(0) <= 50);
    assert!(ov.accessed_by_outlet.get("forum").copied().unwrap_or(0) <= 30);
    assert!(ov.accessed_by_outlet.get("malware").copied().unwrap_or(0) <= 20);
}
