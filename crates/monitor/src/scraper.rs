//! The external activity-page scraper.
//!
//! Apps Script cannot see login IPs or geolocation, so the paper drove a
//! browser from the monitoring infrastructure, logged into each honey
//! account on a schedule, navigated to the visitor-activity page, and
//! dumped it to disk for offline parsing. The scraper is also how the
//! researchers *detect* hijacks (its login starts failing) and blocks
//! (the provider refuses the login with a suspension error).
//!
//! Real scraping infrastructure fails: the driver times out, the
//! provider is in maintenance, the whole scraper host goes down for
//! hours. The scraper therefore retries transient failures with
//! exponential backoff (in simulated time), refuses to classify an
//! account as hijacked or blocked until the same hard failure repeats
//! `confirm_failures` times in consecutive sweeps, and records every
//! known blind window as a gap for the coverage analysis.

use pwnd_faults::{FaultPlan, RetryPolicy};
use pwnd_net::access::{ConnectionInfo, CookieId};
use pwnd_net::geolocate::INFRA_CITY;
use pwnd_net::ip::AddressPlan;
use pwnd_net::useragent::{Browser, ClientConfig, Os};
use pwnd_sim::{Rng, SimTime};
use pwnd_telemetry::TelemetrySink;
use pwnd_webmail::account::AccountId;
use pwnd_webmail::activity::ActivityRow;
use pwnd_webmail::service::{LoginError, WebmailService};
use std::collections::HashMap;

/// Result of one scrape attempt.
#[derive(Clone, Debug)]
pub enum ScrapeOutcome {
    /// Page dumped successfully.
    Ok(Vec<ActivityRow>),
    /// Login failed with the researcher password — the account has been
    /// hijacked (password changed by an attacker).
    HijackDetected,
    /// The provider suspended the account.
    BlockedDetected,
    /// A hard login failure was observed but has not yet repeated
    /// `confirm_failures` times, so no classification is made.
    FailurePending,
    /// Every attempt failed transiently (driver flake or provider
    /// maintenance); the sweep learned nothing about this account.
    GaveUp,
}

/// The two hard-failure classes the scraper confirms before declaring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HardFailure {
    Hijack,
    Blocked,
}

/// One raw page dump, as written to disk for offline parsing.
#[derive(Clone, Debug)]
pub struct ActivityDump {
    /// Which account was scraped.
    pub account: AccountId,
    /// When the scrape ran.
    pub at: SimTime,
    /// The rows visible at scrape time.
    pub rows: Vec<ActivityRow>,
}

/// The scraping driver.
pub struct Scraper {
    /// address + password per account, as the researchers recorded them.
    credentials: HashMap<AccountId, (String, String)>,
    /// One stable browser cookie per account (the scraper is a device too,
    /// and its accesses must be filterable from the dataset).
    cookies: HashMap<AccountId, CookieId>,
    dumps: Vec<ActivityDump>,
    /// Fingerprint of each account's last-dumped page, so identical
    /// consecutive scrapes are not stored twice (offline parsing would
    /// discard them anyway; a 7-month run scrapes tens of thousands of
    /// unchanged pages).
    last_page: HashMap<AccountId, Vec<(u64, u64)>>,
    hijack_detected: HashMap<AccountId, SimTime>,
    block_detected: HashMap<AccountId, SimTime>,
    /// Consecutive hard failures of the same class, per account, awaiting
    /// confirmation. Reset by any successful scrape; transient give-ups
    /// leave it untouched (they carry no information either way).
    pending_failures: HashMap<AccountId, (HardFailure, u32)>,
    /// Consecutive same-class hard failures required before classifying.
    /// 1 (the default) reproduces the historical trust-the-first-error
    /// behavior; raising it makes a transient provider error no longer
    /// able to mislabel an account as hijacked.
    confirm_failures: u32,
    /// Open blind windows: account -> when the scraper last stopped
    /// seeing its page.
    gap_open: HashMap<AccountId, SimTime>,
    /// Closed blind windows, in close order.
    gaps: Vec<(AccountId, SimTime, SimTime)>,
    fault_plan: FaultPlan,
    retry: RetryPolicy,
    rng: Rng,
    telemetry: TelemetrySink,
}

impl Scraper {
    /// A scraper with its own RNG stream (for infra IP jitter).
    pub fn new(rng: Rng) -> Scraper {
        Scraper {
            credentials: HashMap::new(),
            cookies: HashMap::new(),
            dumps: Vec::new(),
            last_page: HashMap::new(),
            hijack_detected: HashMap::new(),
            block_detected: HashMap::new(),
            pending_failures: HashMap::new(),
            confirm_failures: 1,
            gap_open: HashMap::new(),
            gaps: Vec::new(),
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            rng,
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Attach a telemetry sink (`monitor.scrapes`, `monitor.scrape_dumps`,
    /// detection counters, retry histograms, and one `scrape` trace per
    /// sweep).
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// Attach the run's fault plan (outage windows, login flakes, and the
    /// deterministic jitter rolls the backoff uses).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Replace the transient-failure retry policy.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Require `n` consecutive same-class hard failures before declaring a
    /// hijack or block (clamped to at least 1).
    pub fn set_confirm_failures(&mut self, n: u32) {
        self.confirm_failures = n.max(1);
    }

    /// Register an account's researcher-held credentials.
    pub fn register(&mut self, account: AccountId, address: &str, password: &str) {
        self.credentials
            .insert(account, (address.to_string(), password.to_string()));
    }

    /// All registered accounts, in id order.
    pub fn accounts(&self) -> Vec<AccountId> {
        let mut v: Vec<AccountId> = self.credentials.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Scrape one account now, retrying transient failures with backoff.
    /// Retries advance simulated time, so a scrape that flakes twice dumps
    /// a page stamped a few minutes after `at`.
    pub fn scrape(
        &mut self,
        service: &mut WebmailService,
        account: AccountId,
        at: SimTime,
    ) -> ScrapeOutcome {
        let Some((address, password)) = self.credentials.get(&account).cloned() else {
            // An unregistered account is a driver bug, but the monitor
            // must keep sweeping the rest of the fleet rather than die.
            self.telemetry
                .count_labeled("monitor.scrapes", "unknown_account");
            return ScrapeOutcome::GaveUp;
        };
        self.telemetry.count("monitor.scrapes");
        let mut t = at;
        let mut attempt = 0u32;
        loop {
            // First attempts ride the sweep-level "poll" span; every
            // fault-driven repeat gets its own "retry" attribution span
            // (covering the backoff arithmetic at the bottom too).
            let _retry = (attempt > 0).then(|| self.telemetry.span("retry", &[]));
            // A scraper-side flake (driver timeout, dropped connection)
            // means the login never reached the provider.
            let transient = if self.fault_plan.login_flakes(account.0, t, attempt) {
                self.telemetry
                    .count_labeled("faults.injected", "scraper_flake");
                true
            } else {
                match self.try_login(service, account, &address, &password, t) {
                    Ok(rows) => {
                        if attempt > 0 {
                            self.telemetry.observe("scraper.retries", attempt as u64);
                        }
                        self.pending_failures.remove(&account);
                        self.close_gap(account, t);
                        return ScrapeOutcome::Ok(rows);
                    }
                    Err(LoginError::Maintenance) => true,
                    Err(LoginError::BadCredentials) => {
                        if attempt > 0 {
                            self.telemetry.observe("scraper.retries", attempt as u64);
                        }
                        let _classify = self.telemetry.span("classify", &[]);
                        return self.note_hard_failure(account, HardFailure::Hijack, t);
                    }
                    Err(LoginError::AccountBlocked) | Err(LoginError::SuspiciousLogin) => {
                        // Infra logins are habitual; SuspiciousLogin only
                        // happens in the filter-enabled ablation. Treat
                        // like a block for data purposes: the scraper can
                        // no longer observe the page.
                        if attempt > 0 {
                            self.telemetry.observe("scraper.retries", attempt as u64);
                        }
                        let _classify = self.telemetry.span("classify", &[]);
                        return self.note_hard_failure(account, HardFailure::Blocked, t);
                    }
                }
            };
            debug_assert!(transient);
            if attempt + 1 >= self.retry.max_attempts {
                // Out of attempts: the sweep learned nothing. The blind
                // window stays open until a later sweep sees the page.
                self.telemetry.observe("scraper.retries", attempt as u64);
                self.telemetry.count_labeled("monitor.scrapes", "gave_up");
                self.open_gap(account, at);
                return ScrapeOutcome::GaveUp;
            }
            let roll = self.fault_plan.jitter_roll(account.0, t, attempt);
            t += self.retry.delay(attempt, roll);
            attempt += 1;
        }
    }

    /// One actual login + page read.
    fn try_login(
        &mut self,
        service: &mut WebmailService,
        account: AccountId,
        address: &str,
        password: &str,
        at: SimTime,
    ) -> Result<Vec<ActivityRow>, LoginError> {
        let ip = AddressPlan::sample_infra(&mut self.rng);
        // The geo db ships INFRA_CITY, but a scrape must not panic if a
        // trimmed db drops it: the UK midpoint keeps the login close
        // enough that distance-based suspicion filters behave the same.
        let infra_point = service
            .geolocator()
            .geo()
            .by_name(INFRA_CITY)
            .map(|c| c.point)
            .unwrap_or(pwnd_net::geo::UK_MIDPOINT);
        let mut conn = ConnectionInfo::new(
            ip,
            ClientConfig::plain(Browser::Chrome, Os::Linux),
            infra_point,
        );
        if let Some(&cookie) = self.cookies.get(&account) {
            conn = conn.with_cookie(cookie);
        }
        let (session, cookie) = service.login(address, password, &conn, at)?;
        self.cookies.insert(account, cookie);
        // "parse" covers reading the activity page and digesting it
        // (fingerprint, dedupe, dump) — the per-account unit of work.
        let _parse = self.telemetry.span("parse", &[]);
        // A fresh session always reads its own page in a healthy
        // service; under fault injection the session may already be torn
        // down, which the retry loop should treat as a transient flake.
        // The scrape needs nothing else, so the session ends here.
        let rows = service.read_activity_page(session);
        service.logout(session);
        let rows = rows.map_err(|_| LoginError::Maintenance)?;
        // The scraper's own login mutates the page; fingerprint
        // only foreign rows so quiet accounts dedupe.
        let fingerprint: Vec<(u64, u64)> = rows
            .iter()
            .filter(|r| r.cookie != cookie)
            .map(|r| (r.cookie.0, r.at.as_secs()))
            .collect();
        if self.last_page.get(&account) != Some(&fingerprint) {
            self.last_page.insert(account, fingerprint);
            self.dumps.push(ActivityDump {
                account,
                at,
                rows: rows.clone(), // lint:allow(alloc-hot): the dump archives its own snapshot of the page
            });
            self.telemetry.count("monitor.scrape_dumps");
        }
        Ok(rows)
    }

    /// Record a hard failure and classify once it has repeated enough.
    fn note_hard_failure(
        &mut self,
        account: AccountId,
        kind: HardFailure,
        at: SimTime,
    ) -> ScrapeOutcome {
        let entry = self.pending_failures.entry(account).or_insert((kind, 0));
        if entry.0 == kind {
            entry.1 += 1;
        } else {
            *entry = (kind, 1);
        }
        if entry.1 < self.confirm_failures {
            // Not confirmed yet; the page is unreadable, so the blind
            // window opens here.
            self.open_gap(account, at);
            return ScrapeOutcome::FailurePending;
        }
        self.pending_failures.remove(&account);
        // Monitoring of this account ends now; close its blind window at
        // the moment of classification.
        self.close_gap(account, at);
        match kind {
            HardFailure::Hijack => {
                if !self.hijack_detected.contains_key(&account) {
                    self.telemetry.count("monitor.hijack_detections");
                }
                self.hijack_detected.entry(account).or_insert(at);
                ScrapeOutcome::HijackDetected
            }
            HardFailure::Blocked => {
                if !self.block_detected.contains_key(&account) {
                    self.telemetry.count("monitor.block_detections");
                }
                self.block_detected.entry(account).or_insert(at);
                ScrapeOutcome::BlockedDetected
            }
        }
    }

    fn open_gap(&mut self, account: AccountId, at: SimTime) {
        self.gap_open.entry(account).or_insert(at);
    }

    fn close_gap(&mut self, account: AccountId, at: SimTime) {
        if let Some(start) = self.gap_open.remove(&account) {
            if at > start {
                self.telemetry
                    .trace_with(start.as_secs(), "gap", Some(account.0), || {
                        format!("scraper blind until t={}", at.as_secs()) // lint:allow(alloc-hot): lazy closure; runs only when tracing is on
                    });
                self.gaps.push((account, start, at));
            }
        }
    }

    /// Scrape every registered account. During a scraper outage the whole
    /// sweep is skipped and every still-monitored account's blind window
    /// opens (if not already open).
    // lint:hot-root
    pub fn scrape_all(&mut self, service: &mut WebmailService, at: SimTime) {
        // One "poll" span per sweep: the poll operation is one pass
        // over the whole account population. Its children attribute
        // the per-account work (parse, retry, classify).
        let _poll = self.telemetry.span("poll", &[]);
        if self.fault_plan.scraper_outage_at(at) {
            self.telemetry
                .count_labeled("faults.injected", "scraper_outage");
            for account in self.accounts() {
                if self.hijack_detected.contains_key(&account)
                    || self.block_detected.contains_key(&account)
                {
                    continue;
                }
                self.open_gap(account, at);
            }
            self.telemetry
                .trace_with(at.as_secs(), "scrape", None, || "skipped: outage".into());
            return;
        }
        let mut attempted = 0u64;
        for account in self.accounts() {
            // Once hijacked or blocked there is nothing more to scrape.
            if self.hijack_detected.contains_key(&account)
                || self.block_detected.contains_key(&account)
            {
                continue;
            }
            let _ = self.scrape(service, account, at);
            attempted += 1;
        }
        // One trace record per sweep, not per account: a 7-month run
        // scrapes 100 accounts every few hours.
        self.telemetry.trace_with(at.as_secs(), "scrape", None, || {
            format!("accounts={attempted}")
        });
    }

    /// Close every still-open blind window at the end of the run, so the
    /// coverage analysis sees gaps that never recovered.
    pub fn finish(&mut self, at: SimTime) {
        let mut open: Vec<AccountId> = self.gap_open.keys().copied().collect();
        open.sort_unstable();
        for account in open {
            self.close_gap(account, at);
        }
    }

    /// All raw dumps (what "offline parsing" consumes).
    pub fn dumps(&self) -> &[ActivityDump] {
        &self.dumps
    }

    /// Render every dump to the on-disk text format (§3.1: "dump the
    /// pages to disk, for offline parsing").
    pub fn export_dumps(&self) -> Vec<String> {
        self.dumps
            .iter()
            .map(|d| crate::parser::render_page(d.account.0, d.at, &d.rows))
            .collect()
    }

    /// When the scraper first noticed a hijack on each account.
    pub fn hijacks_detected(&self) -> &HashMap<AccountId, SimTime> {
        &self.hijack_detected
    }

    /// When the scraper first noticed a block on each account.
    pub fn blocks_detected(&self) -> &HashMap<AccountId, SimTime> {
        &self.block_detected
    }

    /// Closed blind windows `(account, from, until)`, in close order.
    /// Call [`Scraper::finish`] first to flush windows still open at the
    /// horizon.
    pub fn gaps(&self) -> &[(AccountId, SimTime, SimTime)] {
        &self.gaps
    }

    /// The scraper's own cookies (the dataset filter needs them).
    pub fn own_cookies(&self) -> Vec<CookieId> {
        let mut v: Vec<CookieId> = self.cookies.values().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_corpus::email::{Email, EmailId, MailTime};
    use pwnd_faults::FaultProfile;
    use pwnd_net::geo::GeoDb;
    use pwnd_net::geolocate::Geolocator;
    use pwnd_net::tor::TorDirectory;
    use pwnd_sim::SimDuration;
    use pwnd_webmail::service::ServiceConfig;

    fn world() -> (WebmailService, Scraper, AccountId) {
        let geo = GeoDb::new();
        let plan = AddressPlan::new(&geo);
        let mut rng = Rng::seed_from(3);
        let tor = TorDirectory::generate(50, &mut rng);
        let mut svc =
            WebmailService::new(ServiceConfig::default(), Geolocator::new(plan, geo, tor));
        let id = svc
            .create_account(
                "h@honeymail.example",
                "pw",
                std::net::Ipv4Addr::new(198, 51, 0, 1),
                SimTime::ZERO,
            )
            .unwrap();
        svc.seed_mailbox(
            id,
            vec![Email {
                id: EmailId(1),
                from: "p@x".into(),
                to: vec!["h@honeymail.example".into()],
                subject: "s".into(),
                body: "b".into(),
                timestamp: MailTime(-5),
            }],
        );
        let mut scraper = Scraper::new(rng.fork(9));
        scraper.register(id, "h@honeymail.example", "pw");
        (svc, scraper, id)
    }

    fn hijack(svc: &mut WebmailService, at: u64) {
        let ip = svc
            .geolocator()
            .plan()
            .sample_host("RO", &mut Rng::seed_from(2));
        let loc = svc.geolocator().locate(ip);
        let conn = ConnectionInfo::new(
            ip,
            ClientConfig::plain(Browser::Opera, Os::Windows),
            loc.point,
        );
        let (session, _) = svc
            .login("h@honeymail.example", "pw", &conn, SimTime::from_secs(at))
            .unwrap();
        svc.change_password(session, "stolen", SimTime::from_secs(at + 10))
            .unwrap();
    }

    #[test]
    fn scrape_sees_attacker_access() {
        let (mut svc, mut scraper, id) = world();
        // Attacker logs in from Brazil.
        let ip = svc
            .geolocator()
            .plan()
            .sample_host("BR", &mut Rng::seed_from(1));
        let loc = svc.geolocator().locate(ip);
        let conn = ConnectionInfo::new(
            ip,
            ClientConfig::plain(Browser::Chrome, Os::Windows),
            loc.point,
        );
        svc.login("h@honeymail.example", "pw", &conn, SimTime::from_secs(100))
            .unwrap();

        match scraper.scrape(&mut svc, id, SimTime::from_secs(200)) {
            ScrapeOutcome::Ok(rows) => {
                assert!(rows.iter().any(|r| r.location.country == Some("BR")));
            }
            other => panic!("expected Ok, got {other:?}"),
        }
        assert_eq!(scraper.dumps().len(), 1);
    }

    #[test]
    fn scraper_uses_stable_cookie() {
        let (mut svc, mut scraper, id) = world();
        scraper.scrape(&mut svc, id, SimTime::from_secs(10));
        scraper.scrape(&mut svc, id, SimTime::from_secs(20));
        assert_eq!(scraper.own_cookies().len(), 1);
    }

    #[test]
    fn hijack_is_detected_and_scraping_stops() {
        let (mut svc, mut scraper, id) = world();
        hijack(&mut svc, 50);

        match scraper.scrape(&mut svc, id, SimTime::from_secs(100)) {
            ScrapeOutcome::HijackDetected => {}
            other => panic!("expected hijack, got {other:?}"),
        }
        assert_eq!(
            scraper.hijacks_detected().get(&id),
            Some(&SimTime::from_secs(100))
        );
        // scrape_all skips it afterwards.
        let dumps_before = scraper.dumps().len();
        scraper.scrape_all(&mut svc, SimTime::from_secs(200));
        assert_eq!(scraper.dumps().len(), dumps_before);
    }

    #[test]
    fn block_is_detected() {
        let (mut svc, mut scraper, id) = world();
        svc.admin_block(id, SimTime::from_secs(10));
        match scraper.scrape(&mut svc, id, SimTime::from_secs(20)) {
            ScrapeOutcome::BlockedDetected => {}
            other => panic!("expected blocked, got {other:?}"),
        }
        assert!(scraper.blocks_detected().contains_key(&id));
    }

    #[test]
    fn confirmation_defers_classification() {
        let (mut svc, mut scraper, id) = world();
        scraper.set_confirm_failures(3);
        hijack(&mut svc, 50);

        // Two failures: still pending, nothing declared.
        for t in [100u64, 200] {
            match scraper.scrape(&mut svc, id, SimTime::from_secs(t)) {
                ScrapeOutcome::FailurePending => {}
                other => panic!("expected pending, got {other:?}"),
            }
        }
        assert!(scraper.hijacks_detected().is_empty());
        // Third consecutive failure confirms, stamped at the confirming
        // sweep.
        match scraper.scrape(&mut svc, id, SimTime::from_secs(300)) {
            ScrapeOutcome::HijackDetected => {}
            other => panic!("expected hijack, got {other:?}"),
        }
        assert_eq!(
            scraper.hijacks_detected().get(&id),
            Some(&SimTime::from_secs(300))
        );
        // The unreadable stretch is recorded as a blind window.
        assert_eq!(
            scraper.gaps(),
            &[(id, SimTime::from_secs(100), SimTime::from_secs(300))]
        );
    }

    #[test]
    fn successful_scrape_resets_confirmation_count() {
        let (mut svc, mut scraper, id) = world();
        scraper.set_confirm_failures(2);
        // A healthy scrape first.
        scraper.scrape(&mut svc, id, SimTime::from_secs(10));
        hijack(&mut svc, 50);
        match scraper.scrape(&mut svc, id, SimTime::from_secs(100)) {
            ScrapeOutcome::FailurePending => {}
            other => panic!("expected pending, got {other:?}"),
        }
        // The researchers recover the credentials out of band: the next
        // scrape succeeds and wipes the pending count.
        scraper.register(id, "h@honeymail.example", "stolen");
        match scraper.scrape(&mut svc, id, SimTime::from_secs(200)) {
            ScrapeOutcome::Ok(_) => {}
            other => panic!("expected ok, got {other:?}"),
        }
        // The password changes again behind their back; the count starts
        // over from one instead of classifying immediately.
        scraper.register(id, "h@honeymail.example", "wrong");
        match scraper.scrape(&mut svc, id, SimTime::from_secs(300)) {
            ScrapeOutcome::FailurePending => {}
            other => panic!("expected pending again, got {other:?}"),
        }
        assert!(scraper.hijacks_detected().is_empty());
    }

    #[test]
    fn flaky_logins_are_retried_and_succeed() {
        let (mut svc, mut scraper, id) = world();
        // Flake rate high enough that retries fire, attempts generous
        // enough that a scrape eventually lands.
        scraper.set_fault_plan(FaultPlan::compile(
            11,
            &FaultProfile {
                scraper_flake_rate: 0.5,
                ..FaultProfile::none()
            },
            SimDuration::days(30),
        ));
        scraper.set_retry_policy(RetryPolicy {
            max_attempts: 12,
            ..RetryPolicy::default()
        });
        let mut oks = 0;
        for day in 0..20u64 {
            if matches!(
                scraper.scrape(&mut svc, id, SimTime::from_secs(day * 86_400)),
                ScrapeOutcome::Ok(_)
            ) {
                oks += 1;
            }
        }
        assert!(oks >= 15, "most scrapes should survive retries, got {oks}");
        assert!(scraper.hijacks_detected().is_empty());
    }

    #[test]
    fn outage_skips_sweep_and_records_gap() {
        let (mut svc, mut scraper, id) = world();
        // Compile plans until one has an outage window (deterministic
        // search over seeds, not a random test).
        let profile = FaultProfile {
            scraper_outages_per_30d: 2.0,
            scraper_outage_hours: 12.0,
            ..FaultProfile::none()
        };
        let plan = (0..64)
            .map(|s| FaultPlan::compile(s, &profile, SimDuration::days(30)))
            .find(|p| !p.scraper_outages().is_empty())
            .expect("some seed yields an outage");
        let window = plan.scraper_outages()[0];
        scraper.set_fault_plan(plan);
        scraper.scrape_all(&mut svc, window.start);
        assert!(scraper.dumps().is_empty(), "outage sweep must not scrape");
        // Next sweep after the outage closes the blind window.
        let after = window.end + SimDuration::hours(1);
        scraper.scrape_all(&mut svc, after);
        assert_eq!(scraper.gaps(), &[(id, window.start, after)]);
    }

    #[test]
    fn exported_dumps_reparse_to_the_same_rows() {
        let (mut svc, mut scraper, id) = world();
        let ip = svc
            .geolocator()
            .plan()
            .sample_host("DE", &mut Rng::seed_from(9));
        let loc = svc.geolocator().locate(ip);
        let conn = ConnectionInfo::new(
            ip,
            ClientConfig::plain(Browser::Firefox, Os::Linux),
            loc.point,
        );
        svc.login("h@honeymail.example", "pw", &conn, SimTime::from_secs(50))
            .unwrap();
        scraper.scrape(&mut svc, id, SimTime::from_secs(100));
        let texts = scraper.export_dumps();
        assert_eq!(texts.len(), scraper.dumps().len());
        for (text, dump) in texts.iter().zip(scraper.dumps()) {
            let parsed = crate::parser::parse_page(text).expect("dump parses");
            assert_eq!(parsed.account, dump.account.0);
            assert_eq!(parsed.scraped_at, dump.at);
            assert_eq!(parsed.rows.len(), dump.rows.len());
            for (a, b) in parsed.rows.iter().zip(&dump.rows) {
                assert_eq!(a.cookie, b.cookie);
                assert_eq!(a.ip, b.ip);
                assert_eq!(a.location.city, b.location.city);
                assert_eq!(a.fingerprint, b.fingerprint);
            }
        }
    }

    #[test]
    fn scrape_all_covers_registered_accounts() {
        let (mut svc, mut scraper, _) = world();
        scraper.scrape_all(&mut svc, SimTime::ZERO + SimDuration::hours(1));
        assert_eq!(scraper.dumps().len(), 1);
    }

    #[test]
    fn polls_leave_no_open_session() {
        use pwnd_webmail::service::{OpError, SessionId};
        let (mut svc, mut scraper, id) = world();
        let polls = 6;
        for i in 1..=polls {
            let outcome = scraper.scrape(&mut svc, id, SimTime::from_secs(i * 600));
            assert!(matches!(outcome, ScrapeOutcome::Ok(_)), "{outcome:?}");
        }
        // Session ids are issued in sequence from 1, so the polls held
        // ids 1..=polls, and every one of them is closed.
        let conn = ConnectionInfo::new(
            AddressPlan::sample_infra(&mut Rng::seed_from(4)),
            ClientConfig::plain(Browser::Chrome, Os::Linux),
            pwnd_net::geo::UK_MIDPOINT,
        );
        let (next, _) = svc
            .login(
                "h@honeymail.example",
                "pw",
                &conn,
                SimTime::from_secs(9_000),
            )
            .unwrap();
        assert_eq!(next, SessionId(polls + 1));
        for k in 1..=polls {
            assert_eq!(
                svc.read_activity_page(SessionId(k)).map(|rows| rows.len()),
                Err(OpError::InvalidSession),
                "session {k} is still open"
            );
        }
    }
}
