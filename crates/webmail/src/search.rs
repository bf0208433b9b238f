//! Mailbox search: an inverted index plus provider-side query logs.
//!
//! Gold diggers find sensitive mail by *searching*, and the paper's key
//! limitation (§4.3.5) is that researchers could only observe the emails
//! attackers **opened**, never the query strings — those live in logs only
//! the provider can read. We reproduce both halves: [`SearchIndex`] serves
//! ranked results, and every query is appended to a ground-truth log that
//! the monitor crate has no access to (tests use it to validate the
//! TF-IDF keyword-inference pipeline against what was really searched).
//!
//! ## Fleet-scale representation
//!
//! A fleet of honey accounts shares one corporate vocabulary, so the
//! index stores postings keyed by 4-byte [`Symbol`]s from a shared
//! [`Interner`] (owned by the service, one arena per fleet shard)
//! instead of one owned `String` per term per account. At paper scale
//! (100 accounts × ~3k distinct terms) this removes ~300k owned
//! strings; the ranking and results are unchanged — symbols are an
//! encoding, not a semantic change.

use pwnd_corpus::email::{Email, EmailId, MailTime};
use pwnd_sim::intern::{Interner, Symbol};
use pwnd_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One logged query (provider-side ground truth).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryLogEntry {
    /// When the query ran.
    pub at: SimTime,
    /// The raw query string.
    pub query: String,
    /// How many results it returned.
    pub hits: usize,
}

/// An inverted index over one mailbox.
///
/// Term strings live in a caller-provided [`Interner`] (shared across
/// every index of a service), so the per-index state is symbols and id
/// sets only. Methods that tokenize text take the arena: mutably when
/// indexing (new terms are interned), immutably when searching (a term
/// the arena has never seen cannot match anything).
#[derive(Clone, Debug, Default)]
pub struct SearchIndex {
    postings: BTreeMap<Symbol, BTreeSet<EmailId>>,
    /// Message timestamps, for recency ranking (Gmail's default order).
    recency: HashMap<EmailId, MailTime>,
    query_log: Vec<QueryLogEntry>,
}

fn terms_of(text: &str) -> impl Iterator<Item = String> + '_ {
    // Tokens are pure ASCII alphanumerics by construction of the split,
    // so the cheap ASCII lowercase is exact.
    text.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_ascii_lowercase())
}

impl SearchIndex {
    /// An empty index.
    pub fn new() -> SearchIndex {
        SearchIndex::default()
    }

    /// Index one email, handing each term occurrence's symbol to
    /// `on_term`. Terms are tokenized straight off the subject and body.
    /// (Pre-deduplicating terms per email was measured slower than
    /// letting the postings `BTreeSet` absorb repeats.)
    pub fn add_email(
        &mut self,
        vocab: &mut Interner,
        email: &Email,
        mut on_term: impl FnMut(Symbol),
    ) {
        for term in terms_of(&email.subject).chain(terms_of(&email.body)) {
            let sym = vocab.intern(&term);
            on_term(sym);
            self.postings.entry(sym).or_default().insert(email.id);
        }
        self.recency.insert(email.id, email.timestamp);
    }

    /// Run a query at time `at`: conjunctive term match, results ranked
    /// newest-first (Gmail's default). The query is logged provider-side.
    ///
    /// The intersection walks the smallest posting list and probes the
    /// others (`O(min · k·log)` instead of cloning and re-collecting a
    /// `BTreeSet` per term), and short-circuits to empty as soon as any
    /// term has no postings at all — including terms the shared arena
    /// has never interned, which by definition appear in no mailbox.
    // lint:hot-root
    pub fn search(&mut self, vocab: &Interner, query: &str, at: SimTime) -> Vec<EmailId> {
        let mut terms: Vec<String> = terms_of(query).collect();
        terms.sort_unstable();
        terms.dedup();
        let results: Vec<EmailId> = if terms.is_empty() {
            Vec::new()
        } else {
            let mut hits: Vec<EmailId> = {
                let mut lists: Vec<&BTreeSet<EmailId>> = Vec::with_capacity(terms.len());
                let mut missing = false;
                for t in &terms {
                    match vocab.lookup(t).and_then(|sym| self.postings.get(&sym)) {
                        Some(p) if !p.is_empty() => lists.push(p),
                        // A term nobody ever wrote: the conjunction is
                        // empty, whatever the other lists hold.
                        _ => {
                            missing = true;
                            break;
                        }
                    }
                }
                if missing {
                    Vec::new()
                } else {
                    lists.sort_by_key(|p| p.len());
                    let (smallest, rest) = lists.split_first().expect("terms is non-empty");
                    smallest
                        .iter()
                        .filter(|id| rest.iter().all(|p| p.contains(id)))
                        .copied()
                        .collect()
                }
            };
            hits.sort_by_key(|id| {
                (
                    std::cmp::Reverse(self.recency.get(id).copied().unwrap_or(MailTime(i64::MIN))),
                    *id,
                )
            });
            hits
        };
        self.query_log.push(QueryLogEntry {
            at,
            query: query.to_string(),
            hits: results.len(),
        });
        results
    }

    /// Provider-side query log. **Not** reachable from the monitor crate —
    /// mirrors the paper's stated limitation.
    pub fn query_log(&self) -> &[QueryLogEntry] {
        &self.query_log
    }

    /// Approximate heap footprint of this index in bytes, counting the
    /// postings map (4-byte symbol keys, 8-byte email ids), the recency
    /// map, and the query log — but **not** the shared arena, which is
    /// accounted once per service. Feeds the fleet engine's
    /// `fleet.peak_rss_proxy` metric; never reads the OS.
    pub fn heap_bytes(&self) -> usize {
        let posting_ids: usize = self.postings.values().map(|p| p.len()).sum();
        // Per posting entry: symbol key + set bookkeeping; per id: 8
        // bytes + B-tree node overhead amortized to ~8.
        let postings = self.postings.len() * (4 + 24) + posting_ids * 16;
        let recency = self.recency.len() * (8 + 8 + 16);
        let log: usize = self
            .query_log
            .iter()
            .map(|q| q.query.len() + std::mem::size_of::<QueryLogEntry>())
            .sum();
        postings + recency + log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_corpus::email::{Email, MailTime};

    fn mk(id: u64, subject: &str, body: &str) -> Email {
        Email {
            id: EmailId(id),
            from: "f@x".into(),
            to: vec!["t@x".into()],
            subject: subject.into(),
            body: body.into(),
            // Higher ids are newer, so recency ranking mirrors id order
            // in these fixtures.
            timestamp: MailTime(-1_000 + id as i64),
        }
    }

    fn index() -> (SearchIndex, Interner) {
        let mut vocab = Interner::new();
        let mut idx = SearchIndex::new();
        for email in [
            mk(1, "Payment schedule", "the wire transfer payment is due"),
            mk(2, "Lunch", "see you at noon"),
            mk(3, "Account payment", "account number attached"),
        ] {
            idx.add_email(&mut vocab, &email, |_| {});
        }
        (idx, vocab)
    }

    #[test]
    fn single_term_search_newest_first() {
        let (mut idx, vocab) = index();
        let hits = idx.search(&vocab, "payment", SimTime::ZERO);
        assert_eq!(hits, vec![EmailId(3), EmailId(1)]);
    }

    #[test]
    fn conjunctive_multi_term() {
        let (mut idx, vocab) = index();
        let hits = idx.search(&vocab, "account payment", SimTime::ZERO);
        assert_eq!(hits, vec![EmailId(3)]);
    }

    #[test]
    fn case_insensitive() {
        let (mut idx, vocab) = index();
        assert_eq!(idx.search(&vocab, "PAYMENT", SimTime::ZERO).len(), 2);
    }

    #[test]
    fn no_hits_and_empty_query() {
        let (mut idx, vocab) = index();
        assert!(idx.search(&vocab, "bitcoin", SimTime::ZERO).is_empty());
        assert!(idx.search(&vocab, "  ", SimTime::ZERO).is_empty());
    }

    #[test]
    fn queries_are_logged_with_hit_counts() {
        let (mut idx, vocab) = index();
        idx.search(&vocab, "payment", SimTime::from_secs(5));
        idx.search(&vocab, "bitcoin", SimTime::from_secs(9));
        let log = idx.query_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].query, "payment");
        assert_eq!(log[0].hits, 2);
        assert_eq!(log[1].hits, 0);
        assert_eq!(log[1].at, SimTime::from_secs(9));
    }

    #[test]
    fn incremental_add_is_searchable() {
        let (mut idx, mut vocab) = index();
        idx.add_email(&mut vocab, &mk(9, "bitcoin", "ransom draft"), |_| {});
        assert_eq!(
            idx.search(&vocab, "bitcoin", SimTime::ZERO),
            vec![EmailId(9)]
        );
    }

    #[test]
    fn recency_ranking_overrides_id_order() {
        let mut vocab = Interner::new();
        let mut idx = SearchIndex::new();
        let mut new = mk(1, "payment", "new");
        new.timestamp = MailTime(100);
        let mut old = mk(2, "payment", "old");
        old.timestamp = MailTime(-100);
        idx.add_email(&mut vocab, &new, |_| {});
        idx.add_email(&mut vocab, &old, |_| {});
        assert_eq!(
            idx.search(&vocab, "payment", SimTime::ZERO),
            vec![EmailId(1), EmailId(2)]
        );
    }

    #[test]
    fn add_email_reports_every_term_occurrence() {
        let mut vocab = Interner::new();
        let mut idx = SearchIndex::new();
        let mut seen = Vec::new();
        idx.add_email(
            &mut vocab,
            &mk(1, "Payment due", "PAYMENT: wire-transfer 42"),
            |sym| seen.push(sym),
        );
        let terms: Vec<&str> = seen.iter().map(|&sym| vocab.resolve(sym)).collect();
        assert_eq!(
            terms,
            ["payment", "due", "payment", "wire", "transfer", "42"]
        );
    }

    #[test]
    fn shared_arena_deduplicates_vocabulary_across_indexes() {
        let mut vocab = Interner::new();
        let mut a = SearchIndex::new();
        let mut b = SearchIndex::new();
        a.add_email(&mut vocab, &mk(1, "quarterly", "payment invoice"), |_| {});
        b.add_email(&mut vocab, &mk(2, "invoice", "payment overdue"), |_| {});
        // Four distinct terms total; the arena holds each exactly once.
        assert_eq!(vocab.len(), 4);
        assert_eq!(a.search(&vocab, "payment", SimTime::ZERO), vec![EmailId(1)]);
        assert_eq!(b.search(&vocab, "payment", SimTime::ZERO), vec![EmailId(2)]);
    }

    #[test]
    fn heap_bytes_counts_postings() {
        let (idx, _) = index();
        assert!(idx.heap_bytes() > 0);
    }
}
