//! Integration test for the §5 targeted-population extension.

use pwnd::analysis::classify;
use pwnd::{Experiment, ExperimentConfig};

#[test]
fn activist_scenario_flips_the_inferred_vocabulary() {
    let mut corporate_cfg = ExperimentConfig::quick(3);
    corporate_cfg.case_studies = false; // isolate the scenario effect
    let mut activist_cfg = corporate_cfg.clone();
    activist_cfg.archetype = pwnd::corpus::Archetype::Activist;

    let corporate = Experiment::new(corporate_cfg).run();
    let activist = Experiment::new(activist_cfg).run();

    // The activist corpus speaks activist language...
    for term in ["campaign", "voices", "coalition"] {
        assert!(activist.corpus_terms.contains_key(term), "{term}");
    }
    assert!(!activist.corpus_terms.contains_key("meridian"));
    assert!(corporate.corpus_terms.contains_key("meridian"));

    // ...and the targeted attackers search the activist-sensitive pool.
    let activist_queries: Vec<&String> = activist
        .ground_truth
        .searched_queries
        .iter()
        .filter(|q| {
            ["sources", "donors", "passport", "safehouse", "journalist"].contains(&q.as_str())
        })
        .collect();
    assert!(
        !activist_queries.is_empty(),
        "no activist-targeted queries observed"
    );
    // The corporate arm never searches those terms.
    assert!(corporate.ground_truth.searched_queries.iter().all(|q| ![
        "sources",
        "donors",
        "passport",
        "safehouse"
    ]
    .contains(&q.as_str())));

    // The TF-IDF inference recovers the shift from opened mail alone.
    let top: Vec<String> = activist
        .analysis()
        .tfidf
        .top_searched(10)
        .iter()
        .map(|t| t.term.clone())
        .collect();
    let activist_hits = top
        .iter()
        .filter(|t| {
            [
                "sources",
                "donors",
                "contacts",
                "passport",
                "location",
                "journalist",
                "funding",
                "identity",
                "travel",
                "safehouse",
            ]
            .contains(&t.as_str())
        })
        .count();
    assert!(activist_hits >= 4, "top searched: {top:?}");
}

#[test]
fn targeted_attackers_dig_more() {
    let corporate = Experiment::new(ExperimentConfig::quick(5)).run();
    let mut cfg = ExperimentConfig::quick(5);
    cfg.archetype = pwnd::corpus::Archetype::Activist;
    let activist = Experiment::new(cfg).run();

    let gold_fraction = |out: &pwnd::RunOutput| {
        let gold = out
            .dataset
            .accesses
            .iter()
            .filter(|a| classify(a).gold_digger)
            .count();
        gold as f64 / out.dataset.accesses.len().max(1) as f64
    };
    assert!(
        gold_fraction(&activist) > gold_fraction(&corporate),
        "activist {:.2} vs corporate {:.2}",
        gold_fraction(&activist),
        gold_fraction(&corporate)
    );
}
