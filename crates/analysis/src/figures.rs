//! Data series for Figures 1–6.
//!
//! Each builder consumes the published [`Dataset`] only — never simulator
//! ground truth — and returns plain data (fractions, ECDFs, distance
//! vectors) that the report renderer prints.

use crate::stats::Ecdf;
use crate::taxonomy::{classify, AccessClasses};
use pwnd_monitor::dataset::{Dataset, ParsedAccess};
use pwnd_net::geo::{haversine_km, GeoPoint, UK_MIDPOINT, US_MIDPOINT};
use std::collections::BTreeMap;

/// Outlet labels in figure order.
pub const OUTLETS: [&str; 3] = ["malware", "paste", "forum"];

/// Figure 1: distribution of access types per leak outlet.
#[derive(Clone, Debug)]
pub struct Fig1 {
    /// (outlet, fraction per class in [curious, gold digger, hijacker,
    /// spammer] order, number of accesses).
    pub rows: Vec<(String, [f64; 4], usize)>,
}

/// Build Figure 1.
pub fn fig1(ds: &Dataset) -> Fig1 {
    let mut rows = Vec::new();
    for outlet in OUTLETS {
        let accesses: Vec<&ParsedAccess> = ds.accesses_for_outlet(outlet).collect();
        let n = accesses.len();
        let mut counts = [0usize; 4];
        for a in &accesses {
            let c = classify(a);
            let arr = c.as_array();
            for (i, &set) in arr.iter().enumerate() {
                if set {
                    counts[i] += 1;
                }
            }
        }
        let fractions = if n == 0 {
            [0.0; 4]
        } else {
            [
                counts[0] as f64 / n as f64,
                counts[1] as f64 / n as f64,
                counts[2] as f64 / n as f64,
                counts[3] as f64 / n as f64,
            ]
        };
        rows.push((outlet.to_string(), fractions, n));
    }
    Fig1 { rows }
}

/// Figure 2: CDF of unique-access durations per taxonomy class.
#[derive(Clone, Debug)]
pub struct Fig2 {
    /// (dominant class label, ECDF of durations in minutes).
    pub series: Vec<(String, Ecdf)>,
}

/// Build Figure 2.
pub fn fig2(ds: &Dataset) -> Fig2 {
    let mut buckets: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for a in &ds.accesses {
        let label = classify(a).dominant();
        buckets
            .entry(label)
            .or_default()
            .push(a.duration_secs() as f64 / 60.0);
    }
    Fig2 {
        series: AccessClasses::LABELS
            .iter()
            .map(|&l| {
                (
                    l.to_string(),
                    Ecdf::new(buckets.get(l).cloned().unwrap_or_default()),
                )
            })
            .collect(),
    }
}

/// Figure 3: CDF of time between leak and first access, per outlet.
#[derive(Clone, Debug)]
pub struct Fig3 {
    /// (outlet, ECDF of days-to-first-access).
    pub series: Vec<(String, Ecdf)>,
}

/// Build Figure 3.
pub fn fig3(ds: &Dataset) -> Fig3 {
    let mut series = Vec::new();
    for outlet in OUTLETS {
        let days: Vec<f64> = ds
            .accesses_for_outlet(outlet)
            .filter_map(|a| {
                let rec = ds.account_record(a.account)?;
                Some((a.first_seen_secs as f64 - rec.leaked_at_secs as f64).max(0.0) / 86_400.0)
            })
            .collect();
        series.push((outlet.to_string(), Ecdf::new(days)));
    }
    Fig3 { series }
}

/// One point of Figure 4's per-account access timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig4Point {
    /// Account index.
    pub account: u32,
    /// Outlet label.
    pub outlet: String,
    /// Days between the account's leak and this access's first sighting.
    pub day: f64,
}

/// Build Figure 4 (scatter of accesses over time per account).
pub fn fig4(ds: &Dataset) -> Vec<Fig4Point> {
    let mut out = Vec::new();
    for a in &ds.accesses {
        if let Some(rec) = ds.account_record(a.account) {
            out.push(Fig4Point {
                account: a.account,
                outlet: rec.outlet.clone(),
                day: (a.first_seen_secs as f64 - rec.leaked_at_secs as f64).max(0.0) / 86_400.0,
            });
        }
    }
    out.sort_by(|x, y| {
        (x.account, x.day)
            .partial_cmp(&(y.account, y.day))
            .expect("finite")
    });
    out
}

/// Figure 5: system-configuration distributions per outlet.
#[derive(Clone, Debug)]
pub struct Fig5 {
    /// Per outlet: (browser label → fraction).
    pub browsers: Vec<(String, BTreeMap<String, f64>)>,
    /// Per outlet: (OS label → fraction).
    pub oses: Vec<(String, BTreeMap<String, f64>)>,
}

fn fraction_map<'a>(items: impl Iterator<Item = &'a str>) -> BTreeMap<String, f64> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut n = 0usize;
    for i in items {
        *counts.entry(i.to_string()).or_insert(0) += 1;
        n += 1;
    }
    counts
        .into_iter()
        .map(|(k, c)| (k, if n == 0 { 0.0 } else { c as f64 / n as f64 }))
        .collect()
}

/// Build Figure 5 (5a browsers, 5b operating systems).
pub fn fig5(ds: &Dataset) -> Fig5 {
    let mut browsers = Vec::new();
    let mut oses = Vec::new();
    for outlet in OUTLETS {
        let rows: Vec<&ParsedAccess> = ds
            .accesses_for_outlet(outlet)
            .filter(|a| a.has_location_row)
            .collect();
        browsers.push((
            outlet.to_string(),
            fraction_map(rows.iter().map(|a| a.browser.as_str())),
        ));
        oses.push((
            outlet.to_string(),
            fraction_map(rows.iter().map(|a| a.os.as_str())),
        ));
    }
    Fig5 { browsers, oses }
}

/// One condition of Figure 6 (a median-distance circle).
#[derive(Clone, Debug)]
pub struct Fig6Condition {
    /// Outlet label ("paste" / "forum").
    pub outlet: String,
    /// Which midpoint the distances are measured from ("UK" / "US").
    pub region: String,
    /// Whether the leak advertised the decoy location.
    pub with_location: bool,
    /// Haversine distances (km) of every qualifying access.
    pub distances_km: Vec<f64>,
    /// Median distance — the circle radius the paper draws.
    pub median_km: Option<f64>,
}

fn qualifying_point(a: &ParsedAccess) -> Option<GeoPoint> {
    // Tor exits say nothing about the criminal's location (§4.3.4 removes
    // them); records without a scraped activity row have no location.
    if a.via_tor || !a.has_location_row || a.city == "Unknown" {
        None
    } else {
        Some(GeoPoint {
            lat: a.lat,
            lon: a.lon,
        })
    }
}

/// Build Figure 6: for each outlet × region, the distance vectors of
/// location-advertised accesses and bare-leak accesses.
pub fn fig6(ds: &Dataset) -> Vec<Fig6Condition> {
    let mut out = Vec::new();
    for outlet in ["paste", "forum"] {
        for (region, midpoint) in [("UK", UK_MIDPOINT), ("US", US_MIDPOINT)] {
            for with_location in [true, false] {
                let distances: Vec<f64> = ds
                    .accesses_for_outlet(outlet)
                    .filter_map(|a| {
                        let rec = ds.account_record(a.account)?;
                        let matches = if with_location {
                            rec.advertised_region.as_deref() == Some(region)
                        } else {
                            rec.advertised_region.is_none()
                        };
                        if !matches {
                            return None;
                        }
                        qualifying_point(a).map(|p| haversine_km(p, midpoint))
                    })
                    .collect();
                let median = crate::stats::median(&distances);
                out.push(Fig6Condition {
                    outlet: outlet.to_string(),
                    region: region.to_string(),
                    with_location,
                    distances_km: distances,
                    median_km: median,
                });
            }
        }
    }
    out
}

/// The §4.3.4 statistical tests: for each outlet × region, compare the
/// with-location and no-location distance vectors.
#[derive(Clone, Debug)]
pub struct CvmOutcome {
    /// "paste UK", "paste US", "forum UK", "forum US".
    pub label: String,
    /// Anderson's T statistic.
    pub statistic: f64,
    /// Asymptotic p-value.
    pub p_value: f64,
    /// Whether H0 (same distribution) is rejected at the paper's 0.01
    /// threshold.
    pub rejected: bool,
}

/// Run the four Cramér–von Mises tests over Figure 6's vectors.
pub fn cvm_tests(conditions: &[Fig6Condition]) -> Vec<CvmOutcome> {
    let mut out = Vec::new();
    for outlet in ["paste", "forum"] {
        for region in ["UK", "US"] {
            let with = conditions
                .iter()
                .find(|c| c.outlet == outlet && c.region == region && c.with_location);
            let without = conditions
                .iter()
                .find(|c| c.outlet == outlet && c.region == region && !c.with_location);
            if let (Some(w), Some(wo)) = (with, without) {
                if w.distances_km.len() >= 5 && wo.distances_km.len() >= 5 {
                    let r = crate::cvm::cramer_von_mises_2samp(&w.distances_km, &wo.distances_km);
                    out.push(CvmOutcome {
                        label: format!("{outlet} {region}"),
                        statistic: r.statistic,
                        p_value: r.p_value,
                        rejected: r.p_value < 0.01,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_monitor::dataset::AccountRecord;

    fn mk_access(
        account: u32,
        cookie: u64,
        opened: u32,
        sent: u32,
        hijacker: bool,
    ) -> ParsedAccess {
        ParsedAccess {
            account,
            cookie,
            first_seen_secs: 86_400 * (cookie % 40),
            last_seen_secs: 86_400 * (cookie % 40) + 300,
            ip: "50.0.0.1".into(),
            country: Some("US".into()),
            city: "Chicago".into(),
            lat: 41.8781,
            lon: -87.6298,
            browser: "Chrome".into(),
            os: "Windows".into(),
            via_tor: false,
            opened,
            sent,
            drafts: 0,
            starred: 0,
            hijacker,
            has_location_row: true,
        }
    }

    fn mk_account(account: u32, outlet: &str, region: Option<&str>) -> AccountRecord {
        AccountRecord {
            account,
            outlet: outlet.into(),
            advertised_region: region.map(String::from),
            leaked_at_secs: 0,
            hijack_detected_secs: None,
            block_detected_secs: None,
            coverage: None,
        }
    }

    fn dataset() -> Dataset {
        Dataset {
            gaps: Vec::new(),
            accesses: vec![
                mk_access(0, 1, 0, 0, false), // paste curious
                mk_access(0, 2, 3, 0, false), // paste gold digger
                mk_access(1, 3, 0, 40, true), // paste spammer+hijacker
                mk_access(2, 4, 0, 0, false), // forum curious
                mk_access(3, 5, 1, 0, false), // malware gold digger
            ],
            accounts: vec![
                mk_account(0, "paste", Some("US")),
                mk_account(1, "paste", None),
                mk_account(2, "forum", None),
                mk_account(3, "malware", None),
            ],
            opened_texts: vec!["payment account".into()],
        }
    }

    #[test]
    fn fig1_fractions_per_outlet() {
        let f = fig1(&dataset());
        let paste = f.rows.iter().find(|r| r.0 == "paste").unwrap();
        assert_eq!(paste.2, 3);
        // 1 curious of 3, 1 gold digger of 3, 1 hijacker, 1 spammer.
        assert!((paste.1[0] - 1.0 / 3.0).abs() < 1e-9);
        assert!((paste.1[1] - 1.0 / 3.0).abs() < 1e-9);
        let malware = f.rows.iter().find(|r| r.0 == "malware").unwrap();
        assert_eq!(malware.2, 1);
        assert_eq!(malware.1[2], 0.0, "no malware hijackers");
    }

    #[test]
    fn fig2_partitions_by_dominant_class() {
        let f = fig2(&dataset());
        let total: usize = f.series.iter().map(|(_, e)| e.len()).sum();
        assert_eq!(total, 5, "every access in exactly one class");
    }

    #[test]
    fn fig3_measures_from_leak_time() {
        let f = fig3(&dataset());
        let paste = &f.series.iter().find(|(o, _)| o == "paste").unwrap().1;
        assert_eq!(paste.len(), 3);
        assert!(paste.samples().iter().all(|&d| d >= 0.0));
    }

    #[test]
    fn fig4_sorted_by_account_then_day() {
        let pts = fig4(&dataset());
        assert_eq!(pts.len(), 5);
        for w in pts.windows(2) {
            assert!((w[0].account, w[0].day) <= (w[1].account, w[1].day));
        }
    }

    #[test]
    fn fig5_fractions_sum_to_one() {
        let f = fig5(&dataset());
        for (outlet, m) in &f.browsers {
            let s: f64 = m.values().sum();
            assert!((s - 1.0).abs() < 1e-9, "{outlet} browsers sum {s}");
        }
    }

    #[test]
    fn fig6_produces_eight_conditions() {
        let c = fig6(&dataset());
        assert_eq!(c.len(), 8);
        let us_paste_loc = c
            .iter()
            .find(|x| x.outlet == "paste" && x.region == "US" && x.with_location)
            .unwrap();
        // Chicago → Pontiac ≈ 330 km.
        let m = us_paste_loc.median_km.unwrap();
        assert!((250.0..450.0).contains(&m), "median {m}");
    }

    #[test]
    fn tor_accesses_excluded_from_fig6() {
        let mut ds = dataset();
        for a in &mut ds.accesses {
            a.via_tor = true;
        }
        let c = fig6(&ds);
        assert!(c.iter().all(|x| x.distances_km.is_empty()));
        assert!(cvm_tests(&c).is_empty(), "too few samples for any test");
    }
}
