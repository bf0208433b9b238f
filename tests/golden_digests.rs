//! Committed output digests: the published dataset, the fleet store and
//! the daemon's `/v1/stats` body must stay byte-identical across
//! commits, not merely repeat within one (that is `determinism.rs`).
//!
//! Each digest is the SHA-256 of one output. A change that moves any of
//! them changes what the testbed publishes, and must say so in
//! CHANGES.md along with the new digest.

use pwnd::core::hash::Sha256;
use pwnd::serve::QueryIndex;
use pwnd::store::{merge_store_jsonl, run_fleet_store};
use pwnd::{Experiment, ExperimentConfig, FaultProfile, FleetConfig};
use std::fs;

fn dataset_digest(cfg: ExperimentConfig) -> String {
    Sha256::digest_hex(Experiment::new(cfg).run().dataset_json().as_bytes())
}

#[test]
fn paper_dataset_digest() {
    assert_eq!(
        dataset_digest(ExperimentConfig::paper(2016)),
        "33c4e953acdef7a1446be32dbcfc118a372911a2de987b7f3c9ab0addd374387"
    );
}

#[test]
fn quick_dataset_digest() {
    assert_eq!(
        dataset_digest(ExperimentConfig::quick(2016)),
        "4b9fabd878b11c650bd80ed65dfaeb71756a62620bc63c4075888a0a66ad6188"
    );
}

#[test]
fn quick_decoys_dataset_digest() {
    let mut cfg = ExperimentConfig::quick(2016);
    cfg.seed_decoys = true;
    assert_eq!(
        dataset_digest(cfg),
        "c8e868c5c37e25bb75b016c7750b3dda0319a62424c51156d3e5ba434ad0f536"
    );
}

/// The configuration `pwnd run --quick --faults heavy` builds.
#[test]
fn quick_heavy_faults_dataset_digest() {
    let mut cfg = ExperimentConfig::quick(2016);
    cfg.faults.profile = FaultProfile::heavy();
    cfg.faults.confirm_failures = 3;
    assert_eq!(
        dataset_digest(cfg),
        "d4811389cb31e18aecec14114bbf091948e802e17c904d63326e73c4e6f5e35b"
    );
}

/// The 300-account store `pwnd fleet --accounts 300 --out-dir` builds
/// at the default seed: its merged JSONL, and the `/v1/stats` body the
/// daemon serves over it.
#[test]
fn fleet_store_jsonl_and_stats_body() {
    let dir = std::env::temp_dir().join(format!("pwnd-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    run_fleet_store(&FleetConfig::new(2016, 300, 2), &dir).unwrap();

    let mut merged = Vec::new();
    merge_store_jsonl(&dir, &mut merged).unwrap();
    assert_eq!(
        Sha256::digest_hex(&merged),
        "6896aabe7e8f564a8f604f74e4ee43d3281103f2f12bd07c16af0ae10bf0f6a5"
    );

    let stats = QueryIndex::from_store(&dir).unwrap().stats_json();
    let golden = include_str!("golden/serve/stats.json");
    assert_eq!(stats, golden, "/v1/stats drifted from its golden");

    let _ = fs::remove_dir_all(&dir);
}
