//! Mailbox synthesis: Enron-like corporate threads with translated
//! timestamps.
//!
//! The paper sent each honey account 200–300 sanitized Enron messages,
//! translating the original early-2000s timestamps into recent times
//! "slightly earlier than our experiment start date" while preserving
//! their relative order. We synthesize equivalent threads directly, then
//! run them through the same order-preserving timestamp translation the
//! paper describes (exposed as [`translate_timestamps`] so it can be
//! tested on its own).

use crate::archetype::Archetype;
use crate::email::{Email, EmailId, MailTime};
use crate::persona::Persona;
use crate::vocab::{FILLER, SUBJECT_TEMPLATES};
use pwnd_sim::dist::Zipf;
use pwnd_sim::Rng;

/// How many days of mailbox history precede the leak.
pub const HISTORY_WINDOW_DAYS: f64 = 90.0;

/// Probability that a given message carries a sensitive term.
const SENSITIVE_MESSAGE_RATE: f64 = 0.05;

/// Order-preserving timestamp translation (§3.2): map original timestamps
/// (arbitrary units, e.g. seconds in 2001) onto the `window_days` window
/// ending one hour before the epoch. Given `t1 < t2` in the input, the
/// output preserves `T1 < T2` up to rounding.
pub fn translate_timestamps(original: &[i64], window_days: f64) -> Vec<MailTime> {
    if original.is_empty() {
        return Vec::new();
    }
    let lo = *original.iter().min().expect("non-empty");
    let hi = *original.iter().max().expect("non-empty");
    let span = (hi - lo).max(1) as f64;
    let window_secs = window_days * 86_400.0;
    let end = -3_600.0; // one hour before the leak
    let start = end - window_secs;
    original
        .iter()
        .map(|&t| {
            let frac = (t - lo) as f64 / span;
            MailTime((start + frac * window_secs) as i64)
        })
        .collect()
}

/// Generates seeded mailboxes for honey accounts.
pub struct CorpusGenerator {
    next_id: u64,
    filler: Zipf,
    archetype: Archetype,
}

impl Default for CorpusGenerator {
    fn default() -> Self {
        Self::new()
    }
}

impl CorpusGenerator {
    /// A fresh generator (ids start at 1).
    pub fn new() -> CorpusGenerator {
        CorpusGenerator::with_archetype(Archetype::CorporateEmployee)
    }

    /// A generator producing mailboxes for a specific persona archetype
    /// (the §5 activist-scenario extension).
    pub fn with_archetype(archetype: Archetype) -> CorpusGenerator {
        CorpusGenerator {
            next_id: 1,
            filler: Zipf::new(FILLER.len(), 1.05),
            archetype,
        }
    }

    fn fresh_id(&mut self) -> EmailId {
        let id = EmailId(self.next_id);
        self.next_id += 1;
        id
    }

    fn pick_filler<'a>(&self, rng: &mut Rng) -> &'a str {
        FILLER[self.filler.sample(rng)]
    }

    fn sentence(&self, rng: &mut Rng, sensitive: bool) -> String {
        // Words append straight into the sentence buffer: no per-word
        // String, no intermediate Vec, no join.
        let mut s = String::with_capacity(96);
        let opener = *rng.choose(&[
            "Please find",
            "As discussed,",
            "Following up on",
            "Attached is",
            "Quick note about",
            "We would like to review",
        ]);
        s.push_str(opener);
        let core = self.archetype.core_vocab();
        let n_core = rng.range_u64(2, 5) as usize;
        for _ in 0..n_core {
            let word = *rng.choose(core);
            s.push(' ');
            s.push_str(word);
        }
        if sensitive {
            let pool = self.archetype.sensitive_vocab();
            let n_sensitive = rng.range_u64(2, 5) as usize;
            for _ in 0..n_sensitive {
                let word = *rng.choose(pool);
                s.push(' ');
                s.push_str(word);
            }
        }
        let n_fill = rng.range_u64(3, 9) as usize;
        for _ in 0..n_fill {
            s.push(' ');
            s.push_str(self.pick_filler(rng));
        }
        s.push('.');
        s
    }

    fn subject(&self, rng: &mut Rng) -> String {
        let template = *rng.choose(SUBJECT_TEMPLATES);
        let mut out = String::with_capacity(template.len() + 16);
        let mut rest = template;
        while let Some(pos) = rest.find("{}") {
            let word = *rng.choose(self.archetype.core_vocab());
            out.push_str(&rest[..pos]);
            out.push_str(word);
            rest = &rest[pos + 2..];
        }
        out.push_str(rest);
        out
    }

    fn body(&self, rng: &mut Rng, owner: &Persona, sender_name: &str) -> String {
        let n_sentences = rng.range_u64(2, 6) as usize;
        let mut lines = Vec::with_capacity(n_sentences + 2);
        lines.push(format!("Hi {},", owner.first)); // lint:allow(alloc-hot): greeting line is email content being composed
        for _ in 0..n_sentences {
            let sensitive = rng.chance(SENSITIVE_MESSAGE_RATE);
            lines.push(self.sentence(rng, sensitive));
        }
        // lint:allow(alloc-hot): signature line is email content being composed
        lines.push(format!(
            "Thanks,\n{sender_name}\n{}",
            self.archetype.organization()
        ));
        lines.join("\n")
    }

    /// Generate one seeded mailbox for `owner`, exchanging mail with
    /// `peers` (other personas at the same company). Produces between
    /// `min_emails` and `max_emails` messages whose timestamps all fall in
    /// the [`HISTORY_WINDOW_DAYS`] window before the epoch, in
    /// chronological order.
    // lint:hot-root
    pub fn generate_mailbox(
        &mut self,
        owner: &Persona,
        peers: &[Persona],
        min_emails: usize,
        max_emails: usize,
        rng: &mut Rng,
    ) -> Vec<Email> {
        assert!(min_emails <= max_emails && min_emails > 0);
        assert!(!peers.is_empty(), "mailbox needs at least one peer");
        let target = rng.range_u64(min_emails as u64, max_emails as u64 + 1) as usize;

        // First synthesize "original era" timestamps (seconds in a fake
        // 2001), then translate them — the same two-step the paper ran on
        // Enron data.
        let mut originals: Vec<i64> = Vec::with_capacity(target);
        let mut cursor: i64 = 0;
        let mut plans: Vec<(usize, bool)> = Vec::with_capacity(target); // (peer idx, owner_sends)
        while plans.len() < target {
            // A thread: 1–4 messages, alternating direction.
            let peer_idx = rng.index(peers.len());
            let thread_len = (rng.range_u64(1, 5) as usize).min(target - plans.len());
            let mut owner_sends = rng.chance(0.4);
            for _ in 0..thread_len {
                cursor += rng.range_u64(1_800, 86_400 * 3) as i64;
                originals.push(cursor);
                plans.push((peer_idx, owner_sends));
                owner_sends = !owner_sends;
            }
        }
        let times = translate_timestamps(&originals, HISTORY_WINDOW_DAYS);

        let mut subject = self.subject(rng);
        let mut last_peer = usize::MAX;
        let mut out = Vec::with_capacity(target);
        for (i, &(peer_idx, owner_sends)) in plans.iter().enumerate() {
            if peer_idx != last_peer {
                subject = self.subject(rng);
                last_peer = peer_idx;
            }
            let peer = &peers[peer_idx];
            let peer_address = format!("{}@{}", peer.handle, self.archetype.domain()); // lint:allow(alloc-hot): each Email owns its address strings
            let (from, to, sender_name) = if owner_sends {
                (
                    owner.webmail_address(),
                    vec![peer_address], // lint:allow(alloc-hot): the recipient list is the Email's own field
                    owner.full_name(),
                )
            } else {
                (
                    peer_address,
                    vec![owner.webmail_address()], // lint:allow(alloc-hot): the recipient list is the Email's own field
                    peer.full_name(),
                )
            };
            out.push(Email {
                id: self.fresh_id(),
                from,
                to,
                subject: format!("RE: {subject}"), // lint:allow(alloc-hot): per-message subject is the Email's own field
                body: self.body(rng, owner, &sender_name),
                timestamp: times[i],
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persona::PersonaFactory;

    fn setup() -> (Persona, Vec<Persona>, Rng) {
        let mut rng = Rng::seed_from(42);
        let mut f = PersonaFactory::new();
        let owner = f.generate(None, &mut rng);
        let peers = f.generate_batch(8, |_| None, &mut rng);
        (owner, peers, rng)
    }

    #[test]
    fn mailbox_size_in_paper_range() {
        let (owner, peers, mut rng) = setup();
        let mut g = CorpusGenerator::new();
        let mb = g.generate_mailbox(&owner, &peers, 200, 300, &mut rng);
        assert!((200..=300).contains(&mb.len()), "{}", mb.len());
    }

    #[test]
    fn timestamps_sorted_and_before_epoch() {
        let (owner, peers, mut rng) = setup();
        let mut g = CorpusGenerator::new();
        let mb = g.generate_mailbox(&owner, &peers, 200, 300, &mut rng);
        assert!(mb.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        for e in &mb {
            assert!(e.timestamp.0 < 0, "seeded email after epoch");
            assert!(e.timestamp.as_days_f64() >= -(HISTORY_WINDOW_DAYS + 1.0));
        }
    }

    #[test]
    fn translation_preserves_order() {
        let orig = vec![500, 100, 100_000, 2_000];
        let translated = translate_timestamps(&orig, 30.0);
        assert!(translated[1] < translated[0]);
        assert!(translated[0] < translated[3]);
        assert!(translated[3] < translated[2]);
        for t in &translated {
            assert!(t.0 < 0);
        }
    }

    #[test]
    fn translation_handles_degenerate_inputs() {
        assert!(translate_timestamps(&[], 30.0).is_empty());
        let same = translate_timestamps(&[7, 7, 7], 30.0);
        assert_eq!(same.len(), 3);
        assert!(same.iter().all(|t| t.0 < 0));
    }

    #[test]
    fn every_message_involves_owner() {
        let (owner, peers, mut rng) = setup();
        let mut g = CorpusGenerator::new();
        let mb = g.generate_mailbox(&owner, &peers, 200, 250, &mut rng);
        let addr = owner.webmail_address();
        for e in &mb {
            assert!(e.from == addr || e.to.contains(&addr));
        }
    }

    #[test]
    fn corpus_mentions_energy_but_never_bitcoin_or_enron() {
        let (owner, peers, mut rng) = setup();
        let mut g = CorpusGenerator::new();
        let mb = g.generate_mailbox(&owner, &peers, 250, 300, &mut rng);
        let all: String = mb.iter().map(|e| e.full_text().to_lowercase()).collect();
        assert!(all.contains("energy"));
        assert!(all.contains("transfer"));
        assert!(!all.contains("bitcoin"));
        assert!(!all.contains("enron"));
    }

    #[test]
    fn sensitive_terms_are_rare_but_present() {
        let (owner, peers, mut rng) = setup();
        let mut g = CorpusGenerator::new();
        let mb = g.generate_mailbox(&owner, &peers, 250, 300, &mut rng);
        let with_payment = mb
            .iter()
            .map(|e| e.full_text().to_lowercase())
            .filter(|t| t.contains("payment") || t.contains("account"))
            .count();
        assert!(with_payment > 0, "no sensitive messages at all");
        assert!(
            (with_payment as f64) < mb.len() as f64 * 0.35,
            "sensitive messages too common: {with_payment}/{}",
            mb.len()
        );
    }

    #[test]
    fn ids_are_unique_across_mailboxes() {
        let (owner, peers, mut rng) = setup();
        let mut g = CorpusGenerator::new();
        let a = g.generate_mailbox(&owner, &peers, 200, 210, &mut rng);
        let b = g.generate_mailbox(&owner, &peers, 200, 210, &mut rng);
        let mut ids: Vec<u64> = a.iter().chain(&b).map(|e| e.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), a.len() + b.len());
    }
}
