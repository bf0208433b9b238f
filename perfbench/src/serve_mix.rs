//! `serve_mix`: an open-loop query stream against an in-process daemon.
//!
//! Set-up builds a 1000-account store from `--seed`, indexes it with
//! `QueryIndex::from_store`, renders the expected body of every request
//! the stream can make straight from the index, and binds a `Server`.
//! The timed part is pure serving: HTTP parsing, index lookups and
//! JSON rendering, with the whole index as the working set.
//!
//! The stream is open loop: request `k` of a window at rate `r` is due
//! at `k / r` seconds, whatever happened to earlier requests, and its
//! latency runs from that due time to the last byte of its response.
//! `nproc` connections each have one sending (generator) thread and
//! one receiving thread; a connection pipelines, so a slow response
//! delays the ones behind it and shows as latency, not as a lower rate.
//!
//! Throughput is measured closed loop instead: one client thread keeps
//! [`DEPTH`] requests in flight on one keep-alive connection, so the
//! client and the daemon's worker are the only busy threads.
//!
//! * `setup_s`: store build, index build, expected bodies and bind.
//! * `throughput`: answers per second to the closed-loop client, the
//!   median over blocks of [`BLOCK_REQUESTS`] spread over the whole run
//!   (`serve.closed_rps`). `serve.max_rps`, the highest rate of the
//!   fixed ladder that keeps p99 within [`P99_LIMIT_US`] with no growing
//!   backlog, is printed too; on a shared host it moves more from run
//!   to run.
//! * `latency_ms`: p50 latency at [`HIGH_RPS`], pooled over
//!   [`WINDOWS`] windows spread over the run (`serve.p50_us.high`).
//!   Pooled p50 and p99 at both rates are printed with their sample
//!   counts.

use crate::report::{info, Record};
use crate::sys::{nproc, WorkDir};
use crate::trace::Tracer;
use crate::{stats, Args, SETUP_REPEATS};
use pwnd::serve::{QueryIndex, ServeOptions, Server};
use pwnd::store::{run_fleet_store, StoreRun, VerifiedStore};
use pwnd::telemetry::json::Json;
use pwnd::telemetry::metrics::Histogram;
use pwnd::telemetry::TelemetrySink;
use pwnd::FleetConfig;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Honey accounts in the served store.
pub const ACCOUNTS: u32 = 1000;
/// The low fixed rate, requests per second.
pub const LOW_RPS: f64 = 4_000.0;
/// The high fixed rate, requests per second.
pub const HIGH_RPS: f64 = 16_000.0;
/// The p99 latency a ladder rate must keep, microseconds. Generous, so
/// that only a backlog that grows over a rung fails it, not one stall.
pub const P99_LIMIT_US: f64 = 20_000.0;
/// The fixed ladder `serve.max_rps` is read from: 4k to 120k requests
/// per second in steps of 2k.
fn ladder() -> Vec<f64> {
    (2..=60).map(|k| f64::from(k) * 2_000.0).collect()
}
/// How long one ladder rate is held.
const RUNG: Duration = Duration::from_millis(500);
/// Requests in one closed-loop block, one `serve.closed_rps` sample.
const BLOCK_REQUESTS: usize = 8_000;
/// Requests the closed-loop client keeps in flight.
const DEPTH: usize = 8;
/// How long a connection may stall before its window gives up on it.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Windows each fixed rate is measured in.
const WINDOWS: u64 = 5;

/// What a request asks for. The weights give the stream's mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Healthz,
    Stats,
    Outlets,
    Timeline,
    Accesses,
    Range,
    NotFound,
    BadRequest,
}

/// Kinds with their share of the stream, in percent.
const MIX: [(Kind, u64); 8] = [
    (Kind::Healthz, 2),
    (Kind::Stats, 2),
    (Kind::Outlets, 2),
    (Kind::Timeline, 30),
    (Kind::Accesses, 30),
    (Kind::Range, 30),
    (Kind::NotFound, 3),
    (Kind::BadRequest, 1),
];

/// One request the stream can make, with its expected answer.
struct Req {
    kind: Kind,
    path: String,
    wire: Vec<u8>,
    status: u16,
    body: Vec<u8>,
}

/// Every request of the stream, grouped by kind.
struct Catalogue {
    reqs: Vec<Req>,
    by_kind: Vec<(Kind, Vec<u32>)>,
    max_body: usize,
}

/// The error envelope `API.md` documents for every non-2xx answer.
fn error_body(code: u16, status: &str, message: &str) -> String {
    let mut text = Json::Obj(vec![(
        "error".to_string(),
        Json::Obj(vec![
            ("code".to_string(), Json::U(u64::from(code))),
            ("status".to_string(), Json::Str(status.to_string())),
            ("message".to_string(), Json::Str(message.to_string())),
        ]),
    )])
    .pretty();
    text.push('\n');
    text
}

impl Catalogue {
    /// Render the expected answer of every request straight from the
    /// index: the aggregates, both views of every account, every real
    /// range prefix, and a few requests that must fail.
    fn build(index: &QueryIndex) -> Catalogue {
        let mut reqs = Vec::new();
        let mut add = |kind, path: String, status, body: String| {
            reqs.push(Req {
                kind,
                wire: format!(
                    "GET {path} HTTP/1.1\r\nHost: pwnd\r\nConnection: keep-alive\r\n\r\n"
                )
                .into_bytes(),
                path,
                status,
                body: body.into_bytes(),
            });
        };
        add(
            Kind::Healthz,
            "/v1/healthz".into(),
            200,
            index.healthz_json(),
        );
        add(Kind::Stats, "/v1/stats".into(), 200, index.stats_json());
        add(
            Kind::Outlets,
            "/v1/outlets".into(),
            200,
            index.outlets_json(),
        );
        let ids = index.account_ids();
        for &id in &ids {
            let timeline = index.timeline_json(id).unwrap_or_default();
            add(
                Kind::Timeline,
                format!("/v1/account/{id}/timeline"),
                200,
                timeline,
            );
            let accesses = index.accesses_json(id).unwrap_or_default();
            add(
                Kind::Accesses,
                format!("/v1/account/{id}/accesses"),
                200,
                accesses,
            );
        }
        for p in index.range_prefixes() {
            let body = index.range_json(&p);
            add(Kind::Range, format!("/v1/range/{p}"), 200, body);
        }
        let unknown = error_body(404, "unknown_account", "no such account in this store");
        let past = ids.last().map_or(0, |&id| id + 1);
        for k in 0..4 {
            add(
                Kind::NotFound,
                format!("/v1/account/{}/timeline", past + k),
                404,
                unknown.clone(),
            );
        }
        add(
            Kind::NotFound,
            "/v1/accounts".into(),
            404,
            error_body(404, "not_found", "no such endpoint; see API.md"),
        );
        add(
            Kind::BadRequest,
            "/v1/account/x1/accesses".into(),
            400,
            error_body(400, "invalid_account", "account id must be a decimal u32"),
        );
        add(
            Kind::BadRequest,
            "/v1/range/zzzzz".into(),
            400,
            error_body(
                400,
                "invalid_prefix",
                "range prefix must be 5 uppercase hex characters",
            ),
        );
        let by_kind = MIX
            .iter()
            .map(|&(kind, _)| {
                let ids = (0..reqs.len() as u32).filter(|&i| reqs[i as usize].kind == kind);
                (kind, ids.collect())
            })
            .collect();
        let max_body = reqs.iter().map(|r| r.body.len()).max().unwrap_or(0);
        Catalogue {
            reqs,
            by_kind,
            max_body,
        }
    }

    /// `n` request indices drawn from the mix with a generator seeded by
    /// `seed` and `window`.
    fn stream(&self, seed: u64, window: u64, n: usize) -> Vec<u32> {
        let mut rng = SplitMix64(seed ^ window.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (0..n)
            .map(|_| {
                let mut roll = rng.next() % 100;
                let mut pick = &self.by_kind[0].1;
                for ((_, share), (_, ids)) in MIX.iter().zip(&self.by_kind) {
                    if roll < *share {
                        pick = ids;
                        break;
                    }
                    roll -= share;
                }
                pick[(rng.next() % pick.len() as u64) as usize]
            })
            .collect()
    }
}

/// SplitMix64: the benchmark's own seeded generator, kept apart from
/// the simulation's streams.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What one open-loop window measured.
#[derive(Debug, Default)]
struct Window {
    /// Latency from due time to the response's last byte, ascending, µs.
    latency_us: Vec<f64>,
    /// How late each request left the generator, ascending, µs.
    lag_us: Vec<f64>,
    /// Most requests sent but not yet answered at one time.
    backlog_max: u64,
    /// Response body bytes received.
    body_bytes: u64,
    /// Requests attempted and failed (wrong status or body, or I/O).
    attempted: u64,
    failed: u64,
}

impl Window {
    /// Pool `other`'s samples into this window.
    fn absorb(&mut self, other: Window) {
        self.latency_us = stats::sorted([self.latency_us.as_slice(), &other.latency_us].concat());
        self.lag_us = stats::sorted([self.lag_us.as_slice(), &other.lag_us].concat());
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.body_bytes += other.body_bytes;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn p(&self, p: f64) -> Option<f64> {
        stats::reportable(&self.latency_us, p)
    }

    /// Whether a ladder rate held: every answer right, p99 within the
    /// limit, and no more outstanding than the limit allows at `rate`
    /// (Little's law), so the backlog did not grow.
    fn holds(&self, rate: f64) -> bool {
        self.failed == 0
            && self.p(0.99).is_some_and(|p99| p99 <= P99_LIMIT_US)
            && self.backlog_max as f64 <= rate * P99_LIMIT_US / 1e6
    }
}

/// Read one response off `reader` into `body`; returns its status.
fn read_response<R: BufRead>(
    reader: &mut R,
    line: &mut String,
    body: &mut Vec<u8>,
) -> io::Result<u16> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
    let mut length = None;
    loop {
        line.clear();
        if reader.read_line(line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let length = length.ok_or_else(|| io::Error::other("response without Content-Length"))?;
    body.resize(length, 0);
    reader.read_exact(body)?;
    Ok(status)
}

/// Whether a response matches what the catalogue expects; a mismatch
/// is reported on stderr.
fn matches(req: &Req, status: u16, body: &[u8]) -> bool {
    let ok = status == req.status && body == req.body.as_slice();
    if !ok {
        eprintln!(
            "check failed: {}: status {status}, want {}",
            req.path, req.status
        );
    }
    ok
}

/// Send `stream` at `rate` requests per second over `conns` pipelined
/// connections to `addr`, checking every answer against `cat`.
fn window(addr: SocketAddr, cat: &Catalogue, stream: &[u32], rate: f64, conns: usize) -> Window {
    let sent = AtomicU64::new(0);
    let answered = AtomicU64::new(0);
    let backlog_max = AtomicU64::new(0);
    let mut sockets = Vec::with_capacity(conns);
    for _ in 0..conns {
        match TcpStream::connect(addr).and_then(|s| s.set_nodelay(true).map(|()| s)) {
            Ok(s) => sockets.push(s),
            Err(e) => {
                eprintln!("check failed: connect {addr}: {e}");
                let n = stream.len() as u64;
                return Window {
                    attempted: n,
                    failed: n,
                    ..Window::default()
                };
            }
        }
    }
    // Leave the threads time to start before the first request is due.
    let start = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let mut out = Window::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (c, socket) in sockets.into_iter().enumerate() {
            let mine: Vec<usize> = (c..stream.len()).step_by(conns).collect();
            let reader = socket.try_clone();
            let (sent, answered, backlog_max) = (&sent, &answered, &backlog_max);
            // Buffers are allocated here, not in the threads, so the
            // threads add no allocator arenas to the resident set.
            let sender_mine = mine.clone();
            let mut lag = Vec::with_capacity(mine.len());
            let mut latency = Vec::with_capacity(mine.len());
            let (mut line, mut body) =
                (String::with_capacity(256), Vec::with_capacity(cat.max_body));
            let sender = scope.spawn(move || {
                let mut socket = socket;
                // A receiver that gave up stops draining the answers;
                // the sender must then fail rather than block for good.
                if socket.set_write_timeout(Some(IO_TIMEOUT)).is_err() {
                    return lag;
                }
                for &k in &sender_mine {
                    let at = due(k);
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    lag.push((Instant::now() - at).as_secs_f64() * 1e6);
                    // Counted before the write, so no answer can be
                    // counted before its request.
                    let outstanding = (sent.fetch_add(1, Ordering::SeqCst) + 1)
                        .saturating_sub(answered.load(Ordering::SeqCst));
                    backlog_max.fetch_max(outstanding, Ordering::Relaxed);
                    if socket
                        .write_all(&cat.reqs[stream[k] as usize].wire)
                        .is_err()
                    {
                        break;
                    }
                }
                lag
            });
            let receiver = scope.spawn(move || {
                let (mut bytes, mut failed) = (0u64, 0u64);
                let reader = reader.and_then(|s| {
                    s.set_read_timeout(Some(IO_TIMEOUT))?;
                    Ok(s)
                });
                let mut reader = match reader {
                    Ok(s) => BufReader::new(s),
                    Err(e) => {
                        eprintln!("check failed: reader: {e}");
                        return (latency, bytes, mine.len() as u64);
                    }
                };
                for (j, &k) in mine.iter().enumerate() {
                    match read_response(&mut reader, &mut line, &mut body) {
                        Ok(status) => {
                            let done = Instant::now();
                            answered.fetch_add(1, Ordering::SeqCst);
                            latency.push((done - due(k)).as_secs_f64() * 1e6);
                            bytes += body.len() as u64;
                            if !matches(&cat.reqs[stream[k] as usize], status, &body) {
                                failed += 1;
                            }
                        }
                        Err(e) => {
                            eprintln!("check failed: response {k}: {e}");
                            failed += (mine.len() - j) as u64;
                            break;
                        }
                    }
                }
                (latency, bytes, failed)
            });
            handles.push((sender, receiver));
        }
        for (sender, receiver) in handles {
            out.lag_us
                .extend(sender.join().expect("sender thread panicked"));
            let (latency, bytes, failed) = receiver.join().expect("receiver thread panicked");
            out.latency_us.extend(latency);
            out.body_bytes += bytes;
            out.failed += failed;
        }
    });
    out.attempted = stream.len() as u64;
    out.latency_us = stats::sorted(out.latency_us);
    out.lag_us = stats::sorted(out.lag_us);
    out.backlog_max = backlog_max.into_inner();
    out
}

/// What one closed-loop block measured.
struct Block {
    /// Wall time from the first request sent to the last answer read.
    elapsed: Duration,
    /// Requests attempted and failed (wrong status or body, or I/O).
    attempted: u64,
    failed: u64,
}

/// Send `stream` over one keep-alive connection to `addr` from this
/// thread, keeping [`DEPTH`] requests in flight: each answer read lets
/// the next request go. Every answer is checked against `cat`.
fn closed_block(addr: SocketAddr, cat: &Catalogue, stream: &[u32]) -> Block {
    let n = stream.len() as u64;
    let t = Instant::now();
    let mut out = Block {
        elapsed: Duration::ZERO,
        attempted: n,
        failed: 0,
    };
    let socket = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        s.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok((s.try_clone()?, s))
    });
    let (mut writer, socket) = match socket {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("check failed: connect {addr}: {e}");
            out.failed = n;
            return out;
        }
    };
    let mut reader = BufReader::new(socket);
    let (mut line, mut body) = (String::with_capacity(256), Vec::with_capacity(cat.max_body));
    let mut send = |k: usize| writer.write_all(&cat.reqs[stream[k] as usize].wire);
    let mut sent = 0;
    for (k, &i) in stream.iter().enumerate() {
        let io = loop {
            if sent == stream.len() || sent >= k + DEPTH {
                break read_response(&mut reader, &mut line, &mut body);
            }
            if let Err(e) = send(sent) {
                break Err(e);
            }
            sent += 1;
        };
        match io {
            Ok(status) => {
                if !matches(&cat.reqs[i as usize], status, &body) {
                    out.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("check failed: closed-loop response {k}: {e}");
                out.failed += (stream.len() - k) as u64;
                break;
            }
        }
    }
    out.elapsed = t.elapsed();
    out
}

/// A served store: the daemon and the expected answers.
struct Served {
    server: Server,
    index: Arc<QueryIndex>,
    cat: Catalogue,
    run: StoreRun,
}

/// Server options: a worker per connection plus spares, no rate limit.
fn options(telemetry: TelemetrySink) -> ServeOptions {
    ServeOptions {
        threads: nproc().max(4),
        rate: None,
        telemetry,
    }
}

/// Build the store, the index and the expected answers, and bind an
/// untraced server. `trace` turns the store build's telemetry on.
///
/// The store is built on one job: parallel shard runs leave memory
/// behind in per-thread allocator arenas, and this workload's
/// `peak_rss_mb` is meant to be the serving footprint.
fn set_up(tracer: &mut Tracer, seed: u64, dir: &Path, trace: bool) -> Result<Served, String> {
    let cfg = FleetConfig::new(seed, ACCOUNTS, 1).with_telemetry(trace);
    let run = tracer
        .time("fleet.write", || run_fleet_store(&cfg, dir))
        .map_err(|e| format!("building the store: {e}"))?;
    let index = tracer
        .time("serve.index_build", || QueryIndex::from_store(dir))
        .map_err(|e| format!("indexing the store: {e}"))?;
    let cat = tracer.time("serve.catalogue", || Catalogue::build(&index));
    let index = Arc::new(index);
    let server = tracer
        .time("serve.bind", || {
            Server::bind(
                "127.0.0.1:0",
                Arc::clone(&index),
                options(TelemetrySink::disabled()),
            )
        })
        .map_err(|e| format!("binding the server: {e}"))?;
    Ok(Served {
        server,
        index,
        cat,
        run,
    })
}

fn count(rec: &mut Record, w: &Window) {
    rec.attempted += w.attempted;
    rec.failed += w.failed;
}

/// Run one closed-loop block, count its answers, and return its rate.
fn closed_rps(rec: &mut Record, addr: SocketAddr, cat: &Catalogue, stream: &[u32]) -> f64 {
    let b = closed_block(addr, cat, stream);
    rec.attempted += b.attempted;
    rec.failed += b.failed;
    stream.len() as f64 / b.elapsed.as_secs_f64()
}

/// Print a latency percentile when it is reportable.
fn print_pct(name: &str, w: &Window, p: f64) {
    if let Some(v) = w.p(p) {
        info(name, v, "us", Some(w.latency_us.len()));
    }
}

pub fn run(args: &Args, rec: &mut Record, work: &WorkDir) -> Result<(), String> {
    if args.trace {
        return traced(args, rec, work);
    }
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut served: Option<Served> = None;
    for i in 0..SETUP_REPEATS {
        // Only one served store lives at a time.
        if let Some(old) = served.take() {
            old.server.shutdown();
        }
        let dir = work.fresh(&format!("store-{i}"));
        let t = Instant::now();
        served = Some(set_up(&mut Tracer::default(), args.seed, &dir, false)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    rec.set("setup_s", stats::median(&setups));
    let Served { server, cat, .. } = served.ok_or("no set-up ran")?;
    let addr = server.addr();
    let conns = nproc();
    let start = Instant::now();
    let budget = args.seconds.as_secs_f64();

    // Warm the connections and caches; answers are still checked.
    let warm = window(
        addr,
        &cat,
        &cat.stream(args.seed, 0, (LOW_RPS * 0.2) as usize),
        LOW_RPS,
        conns,
    );
    count(rec, &warm);
    closed_rps(rec, addr, &cat, &cat.stream(args.seed, 0, BLOCK_REQUESTS));

    // Bisect the ladder for its highest holding rate.
    let n = |secs: f64, rate: f64| ((secs * rate) as usize).max(2_000);
    let ladder = ladder();
    let (mut lo, mut hi) = (0usize, ladder.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        let rate = ladder[mid];
        // A rate fails only when it fails twice: one stall of the host
        // must not cut the climb short.
        let holds = (0..2).any(|attempt| {
            let salt = 1000 + 10 * mid as u64 + attempt;
            let stream = cat.stream(args.seed, salt, n(RUNG.as_secs_f64(), rate));
            let w = window(addr, &cat, &stream, rate, conns);
            count(rec, &w);
            w.holds(rate)
        });
        if holds {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let max_rps = if lo == 0 { 0.0 } else { ladder[lo - 1] };

    // The rest of the budget goes in rounds: a window at each fixed rate,
    // then closed-loop blocks until the round's share of the budget is
    // spent. Spreading both over the whole run lets a spell of host
    // contention fall on every figure alike; the pooled windows and the
    // median block count.
    let share = budget * 0.15 / WINDOWS as f64;
    let rounds_from = start.elapsed().as_secs_f64();
    let (mut low, mut high) = (Window::default(), Window::default());
    let mut rates = Vec::new();
    for i in 0..WINDOWS {
        let l = window(
            addr,
            &cat,
            &cat.stream(args.seed, 1 + 2 * i, n(share, LOW_RPS)),
            LOW_RPS,
            conns,
        );
        let h = window(
            addr,
            &cat,
            &cat.stream(args.seed, 2 + 2 * i, n(share, HIGH_RPS)),
            HIGH_RPS,
            conns,
        );
        for (pool, w) in [(&mut low, l), (&mut high, h)] {
            count(rec, &w);
            pool.absorb(w);
        }
        let round_end = rounds_from + (budget - rounds_from) * (i + 1) as f64 / WINDOWS as f64;
        loop {
            let salt = 10_000 + rates.len() as u64;
            let stream = cat.stream(args.seed, salt, BLOCK_REQUESTS);
            rates.push(closed_rps(rec, addr, &cat, &stream));
            // At least 4 blocks a round, so the median has ten beyond it.
            if rates.len() as u64 >= 4 * (i + 1) && start.elapsed().as_secs_f64() >= round_end {
                break;
            }
        }
    }
    server.shutdown();

    let p50_high = high
        .p(0.5)
        .ok_or("too few high-rate samples for a median")?;
    let throughput = stats::median(&rates);
    rec.set("throughput", throughput);
    rec.set("latency_ms", p50_high / 1e3);
    print_pct("serve.p50_us.low", &low, 0.5);
    print_pct("serve.p99_us.low", &low, 0.99);
    print_pct("serve.p50_us.high", &high, 0.5);
    print_pct("serve.p99_us.high", &high, 0.99);
    info("serve.max_rps", max_rps, "req/s", None);
    info("serve.closed_rps", throughput, "req/s", Some(rates.len()));
    if let Some(lag) = stats::reportable(&high.lag_us, 0.99) {
        info(
            "loadgen.lag_us.p99.high",
            lag,
            "us",
            Some(high.lag_us.len()),
        );
    }
    info(
        "loadgen.backlog_max.high",
        high.backlog_max as f64,
        "requests",
        None,
    );
    Ok(())
}

/// Requests in each window of the traced run.
const TRACED_REQUESTS: usize = 32_000;

/// Direct renders timed per endpoint in the traced run.
const RENDER_CALLS: usize = 2_000;

/// The traced run: set-up with the store build's telemetry on, a direct
/// render of every endpoint, then one fixed high-rate stream against
/// the untraced server and again against a traced one.
fn traced(args: &Args, rec: &mut Record, work: &WorkDir) -> Result<(), String> {
    let mut tracer = Tracer::default();
    let dir = work.fresh("store-traced");
    let Served {
        server,
        index,
        cat,
        run,
    } = set_up(&mut tracer, args.seed, &dir, true)?;
    crate::trace::fold_experiments(&run.telemetry, run.shards_run, rec);
    crate::fleet_store::fold_runner(&run, rec);
    match tracer.time("store.verify", || VerifiedStore::open(&dir)) {
        Ok(store) => rec.check(
            store.manifest().shards.len() == run.shards_total,
            "the verified store lists every shard",
        ),
        Err(e) => rec.check(false, format!("verifying the served store: {e}")),
    }
    rec.set("store.verify_ms", tracer.self_ms("store.verify"));
    rec.set("serve.index_build_ms", tracer.self_ms("serve.index_build"));

    for (kind, name) in [
        (Kind::Healthz, "serve.render_us.healthz"),
        (Kind::Stats, "serve.render_us.stats"),
        (Kind::Outlets, "serve.render_us.outlets"),
        (Kind::Timeline, "serve.render_us.timeline"),
        (Kind::Accesses, "serve.render_us.accesses"),
        (Kind::Range, "serve.render_us.range"),
    ] {
        let us = render_us(rec, &index, &cat, kind);
        rec.set(name, us);
    }

    let stream = cat.stream(args.seed, 1_000_000, TRACED_REQUESTS);
    let conns = nproc();
    let plain = window(server.addr(), &cat, &stream, HIGH_RPS, conns);
    count(rec, &plain);
    server.shutdown();
    let sink = TelemetrySink::enabled();
    let traced_server = Server::bind("127.0.0.1:0", Arc::clone(&index), options(sink.clone()))
        .map_err(|e| format!("binding the traced server: {e}"))?;
    let traced = window(traced_server.addr(), &cat, &stream, HIGH_RPS, conns);
    count(rec, &traced);
    traced_server.shutdown();

    let mut served = Histogram::default();
    for (name, h) in &sink.report().metrics.histograms {
        if name.starts_with("serve.latency_us") {
            served.merge(h);
        }
    }
    let buckets: Vec<(u32, u64)> = served.buckets().collect();
    for (p, name) in [(0.5, "serve.server_us.p50"), (0.99, "serve.server_us.p99")] {
        if let Some(us) = stats::bucket_percentile(&buckets, p) {
            rec.set(name, us as f64);
        }
    }
    rec.set(
        "serve.response_bytes",
        traced.body_bytes as f64 / traced.latency_us.len().max(1) as f64,
    );
    if let Some(lag) = stats::reportable(&plain.lag_us, 0.99) {
        rec.set("loadgen.lag_us.p99", lag);
    }
    rec.set("loadgen.backlog_max", plain.backlog_max as f64);
    if let (Some(a), Some(b)) = (plain.p(0.5), traced.p(0.5)) {
        rec.set("telemetry.overhead_pct", (b / a - 1.0) * 100.0);
    }
    Ok(())
}

/// Mean wall time of one direct render of `kind`'s endpoint, cycling
/// over every catalogue entry of that kind, in microseconds. Each
/// render must equal the body the catalogue expects.
fn render_us(rec: &mut Record, index: &QueryIndex, cat: &Catalogue, kind: Kind) -> f64 {
    let ids = &cat.by_kind[MIX
        .iter()
        .position(|&(k, _)| k == kind)
        .expect("kind is in the mix")]
    .1;
    // The variable path segment (account id or range prefix), parsed
    // before timing starts.
    let reqs: Vec<&Req> = ids.iter().map(|&i| &cat.reqs[i as usize]).collect();
    let segs: Vec<&str> = reqs
        .iter()
        .map(|r| r.path.split('/').nth(3).unwrap_or_default())
        .collect();
    let nums: Vec<u32> = segs.iter().map(|s| s.parse().unwrap_or(0)).collect();
    let render = |j: usize| -> Option<String> {
        match kind {
            Kind::Healthz => Some(index.healthz_json()),
            Kind::Stats => Some(index.stats_json()),
            Kind::Outlets => Some(index.outlets_json()),
            Kind::Timeline => index.timeline_json(nums[j]),
            Kind::Accesses => index.accesses_json(nums[j]),
            Kind::Range => Some(index.range_json(segs[j])),
            Kind::NotFound | Kind::BadRequest => None,
        }
    };
    let calls = RENDER_CALLS.max(reqs.len());
    let start = Instant::now();
    for i in 0..calls {
        std::hint::black_box(render(std::hint::black_box(i % reqs.len())));
    }
    let per_call = start.elapsed().as_secs_f64() * 1e6 / calls as f64;
    for (j, req) in reqs.iter().enumerate() {
        rec.check(
            render(j).is_some_and(|b| b.as_bytes() == req.body.as_slice()),
            format!(
                "direct render of {} differs from the expected body",
                req.path
            ),
        );
    }
    per_call
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd::serve::StoreMeta;
    use pwnd::{Experiment, ExperimentConfig};

    fn served_quick_run() -> (Server, Catalogue) {
        let out = Experiment::new(ExperimentConfig::quick(9)).run();
        let index = Arc::new(QueryIndex::from_dataset(&out.dataset, StoreMeta::default()));
        let cat = Catalogue::build(&index);
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&index),
            options(TelemetrySink::disabled()),
        )
        .expect("bind an ephemeral port");
        (server, cat)
    }

    #[test]
    fn the_stream_draws_every_kind_and_repeats_for_a_seed() {
        let (server, cat) = served_quick_run();
        server.shutdown();
        let a = cat.stream(3, 1, 5_000);
        assert_eq!(a, cat.stream(3, 1, 5_000));
        assert_ne!(a, cat.stream(4, 1, 5_000));
        for (kind, _) in MIX {
            assert!(
                a.iter().any(|&i| cat.reqs[i as usize].kind == kind),
                "{kind:?} never drawn"
            );
        }
    }

    #[test]
    fn every_answer_is_checked_and_a_wrong_body_counts() {
        let (server, mut cat) = served_quick_run();
        let stream = cat.stream(1, 1, 600);
        let clean = window(server.addr(), &cat, &stream, 20_000.0, 2);
        assert_eq!((clean.attempted, clean.failed), (600, 0));
        assert_eq!(clean.latency_us.len(), 600);

        // Seed a wrong expected body for one request the stream makes.
        let victim = stream[0] as usize;
        cat.reqs[victim].body.push(b' ');
        let hits = stream.iter().filter(|&&i| i as usize == victim).count() as u64;
        let seeded = window(server.addr(), &cat, &stream, 20_000.0, 2);
        assert_eq!(seeded.failed, hits);
        let mut rec = Record::default();
        count(&mut rec, &seeded);
        assert!(rec.failed > 0 && rec.failed < rec.attempted);

        // The closed-loop client checks every answer the same way.
        let closed = closed_block(server.addr(), &cat, &stream);
        server.shutdown();
        assert_eq!((closed.attempted, closed.failed), (600, hits));
    }

    #[test]
    fn the_closed_loop_client_answers_every_request() {
        let (server, cat) = served_quick_run();
        let mut rec = Record::default();
        for n in [1, DEPTH - 1, DEPTH, 3 * DEPTH + 1, 1_000] {
            let rps = closed_rps(&mut rec, server.addr(), &cat, &cat.stream(2, 3, n));
            assert!(rps > 0.0);
        }
        server.shutdown();
        assert_eq!(rec.failed, 0);
        let want = 1 + (DEPTH - 1) + DEPTH + (3 * DEPTH + 1) + 1_000;
        assert_eq!(rec.attempted, want as u64);
    }
}
