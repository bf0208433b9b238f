//! The §4.3.5 preprocessing pipeline.
//!
//! Before running TF-IDF the paper "filtered out all words that have less
//! than 5 characters, and remov\[ed\] all known header-related words, for
//! instance 'delivered' and 'charset', honey email handles, and also
//! signaling information that our monitoring infrastructure introduced".
//! This module is that pipeline: a lowercasing alphabetic tokenizer, the
//! length filter, the header stoplist, and caller-supplied extra stop
//! terms (handles and monitor markers).

use std::collections::{BTreeMap, HashSet};

/// Minimum term length kept by the pipeline.
pub const MIN_TERM_LEN: usize = 5;

/// Header-related words stripped before analysis. Deliberately *excludes*
/// "transfer": the paper's Table 2 ranks `transfer` as the most important
/// corpus word, so `Content-Transfer-Encoding` fragments must be handled
/// by stripping `encoding`/`content`, not the word itself.
pub const HEADER_STOPWORDS: &[&str] = &[
    "delivered",
    "charset",
    "received",
    "content",
    "encoding",
    "boundary",
    "multipart",
    "quoted",
    "printable",
    "mailto",
    "subject",
    "message",
    "mailer",
    "precedence",
    "return",
    "sender",
];

/// Occurrences per term, in lexicographic term order: one TF-IDF
/// document.
pub type TermCounts = BTreeMap<String, u64>;

/// A reusable tokenizer configuration.
#[derive(Clone, Debug, Default)]
pub struct Tokenizer {
    extra_stop: HashSet<String>,
}

impl Tokenizer {
    /// A tokenizer with only the built-in header stoplist.
    pub fn new() -> Tokenizer {
        Tokenizer::default()
    }

    /// Add extra stop terms: honey handles, monitor signal markers.
    /// Terms are matched lowercase.
    pub fn with_extra_stopwords<I, S>(mut self, words: I) -> Tokenizer
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for w in words {
            self.extra_stop.insert(w.as_ref().to_lowercase());
        }
        self
    }

    /// Tokenize `text` into filtered lowercase terms.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_ascii_alphabetic())
            .filter(|w| w.len() >= MIN_TERM_LEN)
            .map(|w| w.to_lowercase())
            .filter(|w| !HEADER_STOPWORDS.contains(&w.as_str()))
            .filter(|w| !self.extra_stop.contains(w))
            .collect()
    }

    /// Add the terms of `text` to `counts`, each `weight` times (the
    /// number of times `text` occurs in the document).
    pub fn count_into(&self, text: &str, weight: u64, counts: &mut TermCounts) {
        for term in self.tokenize(text) {
            *counts.entry(term).or_insert(0) += weight;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_short_words() {
        let t = Tokenizer::new();
        let toks = t.tokenize("the cat sat on the energy market desk");
        assert_eq!(toks, vec!["energy", "market"]);
    }

    #[test]
    fn strips_header_words_but_keeps_transfer() {
        let t = Tokenizer::new();
        let toks = t.tokenize("Content-Transfer-Encoding: quoted-printable transfer charset=utf8");
        assert_eq!(toks, vec!["transfer", "transfer"]);
    }

    #[test]
    fn lowercases_and_splits_on_punctuation() {
        let t = Tokenizer::new();
        let toks = t.tokenize("PAYMENT!!! seller,family;bitcoin_wallet");
        assert_eq!(
            toks,
            vec!["payment", "seller", "family", "bitcoin", "wallet"]
        );
    }

    #[test]
    fn extra_stopwords_remove_handles() {
        let t = Tokenizer::new().with_extra_stopwords(["james", "smith", "honeymail"]);
        let toks = t.tokenize("james.smith@honeymail.example discussed payment");
        assert_eq!(toks, vec!["example", "discussed", "payment"]);
    }

    #[test]
    fn numbers_are_not_terms() {
        let t = Tokenizer::new();
        let toks = t.tokenize("12345 67890abcde payment99999");
        // "abcde" survives (alphabetic run of 5), digits never do.
        assert_eq!(toks, vec!["abcde", "payment"]);
    }

    #[test]
    fn count_into_weights_every_term() {
        let t = Tokenizer::new();
        let mut counts = TermCounts::new();
        t.count_into("energy market energy", 1, &mut counts);
        t.count_into("energy", 3, &mut counts);
        assert_eq!(counts["energy"], 5);
        assert_eq!(counts["market"], 1);
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn empty_input_yields_no_terms() {
        assert!(Tokenizer::new().tokenize("").is_empty());
        assert!(Tokenizer::new().tokenize("a b c d").is_empty());
    }
}
