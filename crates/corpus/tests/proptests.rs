//! Property-based tests for the corpus subsystem.

use proptest::prelude::*;
use pwnd_corpus::generator::{translate_timestamps, CorpusGenerator};
use pwnd_corpus::persona::{DecoyRegion, PersonaFactory};
use pwnd_corpus::tokenize::{Tokenizer, HEADER_STOPWORDS, MIN_TERM_LEN};
use pwnd_sim::Rng;

proptest! {
    /// Timestamp translation preserves order and lands strictly before
    /// the epoch, for any input timestamps.
    #[test]
    fn translation_preserves_order(mut ts in proptest::collection::vec(-1_000_000_000i64..1_000_000_000, 1..80)) {
        let out = translate_timestamps(&ts, 90.0);
        prop_assert_eq!(out.len(), ts.len());
        for t in &out {
            prop_assert!(t.0 < 0, "translated time after epoch");
            prop_assert!(t.as_days_f64() >= -91.5);
        }
        // Order preservation: sort indices by input, outputs must be
        // non-decreasing along them.
        let mut idx: Vec<usize> = (0..ts.len()).collect();
        idx.sort_by_key(|&i| ts[i]);
        for w in idx.windows(2) {
            prop_assert!(out[w[0]] <= out[w[1]]);
        }
        ts.clear(); // silence unused-mut lint path
    }

    /// Tokenizer output obeys its contract for any input: lowercase,
    /// alphabetic, ≥ MIN_TERM_LEN, no header stopwords.
    #[test]
    fn tokenizer_contract(s in ".{0,400}") {
        let toks = Tokenizer::new().tokenize(&s);
        for t in toks {
            prop_assert!(t.len() >= MIN_TERM_LEN);
            prop_assert!(t.chars().all(|c| c.is_ascii_lowercase()));
            prop_assert!(!HEADER_STOPWORDS.contains(&t.as_str()));
        }
    }

    /// Tokenizing a text equals tokenizing each of its lowercased
    /// `[A-Za-z0-9]+` runs (the search index's terms) on its own and
    /// concatenating the results, so term counts from the index give
    /// the same TF-IDF document as the raw text. The alphabet mixes
    /// case, digits, punctuation, newlines and non-ASCII letters (the
    /// Kelvin sign and the long s case-map to ASCII letters); ASCII
    /// letters repeat in the class so runs of five or more are common.
    #[test]
    fn tokenizing_index_terms_equals_tokenizing_the_text(
        text in "[abcABCabcABCabcABCabcABC01 ,.:_\né\u{212a}\u{17f}ß-]{0,300}",
        stop in "[abc]{5}",
    ) {
        let tok = Tokenizer::new().with_extra_stopwords([stop.as_str()]);
        let whole = tok.tokenize(&text);
        let by_term: Vec<String> = text
            .split(|c: char| !c.is_ascii_alphanumeric())
            .filter(|run| !run.is_empty())
            .flat_map(|run| tok.tokenize(&run.to_ascii_lowercase()))
            .collect();
        prop_assert_eq!(whole, by_term);
    }

    /// Extra stopwords are always honoured.
    #[test]
    fn extra_stopwords_respected(word in "[a-z]{5,12}") {
        let tok = Tokenizer::new().with_extra_stopwords([word.as_str()]);
        let text = format!("{word} payment {word}");
        let toks = tok.tokenize(&text);
        prop_assert!(!toks.contains(&word));
        prop_assert!(toks.contains(&"payment".to_string()));
    }

    /// Generated mailboxes always satisfy the paper's structural
    /// invariants, for any seed.
    #[test]
    fn mailbox_invariants(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let mut factory = PersonaFactory::new();
        let owner = factory.generate(Some(DecoyRegion::Uk), &mut rng);
        let peers = factory.generate_batch(4, |_| None, &mut rng);
        let mut generator = CorpusGenerator::new();
        let mb = generator.generate_mailbox(&owner, &peers, 20, 30, &mut rng);
        prop_assert!((20..=30).contains(&mb.len()));
        let addr = owner.webmail_address();
        for w in mb.windows(2) {
            prop_assert!(w[0].timestamp <= w[1].timestamp);
        }
        for e in &mb {
            prop_assert!(e.timestamp.0 < 0);
            prop_assert!(e.from == addr || e.to.contains(&addr));
            prop_assert!(!e.subject.is_empty());
            prop_assert!(!e.body.to_lowercase().contains("enron"));
            prop_assert!(!e.body.to_lowercase().contains("bitcoin"));
        }
    }

    /// Persona generation keeps handles unique and regions consistent,
    /// for any seed.
    #[test]
    fn persona_invariants(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let mut factory = PersonaFactory::new();
        let batch = factory.generate_batch(
            30,
            |i| if i % 2 == 0 { Some(DecoyRegion::Uk) } else { Some(DecoyRegion::Us) },
            &mut rng,
        );
        let mut handles: Vec<&str> = batch.iter().map(|p| p.handle.as_str()).collect();
        handles.sort_unstable();
        handles.dedup();
        prop_assert_eq!(handles.len(), 30);
        for (i, p) in batch.iter().enumerate() {
            let expected = if i % 2 == 0 { DecoyRegion::Uk } else { DecoyRegion::Us };
            prop_assert_eq!(p.region, Some(expected));
            // The advertised city sits within the decoy radius of the
            // region midpoint (it may cross a border — Brussels is
            // within 600 km of London).
            let d = pwnd_net::geo::haversine_km(p.home_city.point, expected.midpoint());
            prop_assert!(d <= 600.0, "{} at {d} km", p.home_city.name);
        }
    }
}
