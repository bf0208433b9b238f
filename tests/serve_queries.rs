//! End-to-end tests of the breach-intelligence query daemon (`pwnd
//! serve`): every versioned endpoint is byte-stable across server
//! restarts, `/v1/stats` agrees exactly with the offline `pwnd report`
//! aggregates, concurrent clients never observe a 5xx, a header split
//! across a read timeout is not lost, and the token bucket answers
//! overload with `429` + `Retry-After`.

use pwnd::core::fleet::FleetConfig;
use pwnd::monitor::dataset::Dataset;
use pwnd::serve::{QueryIndex, RateLimit, ServeOptions, Server, StoreMeta, ROUTES};
use pwnd::store::{run_fleet_store, store_overview};
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A fresh scratch directory under the system temp dir, unique per
/// test name so concurrently running tests never collide.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwnd-serve-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One parsed HTTP response: status code, raw header lines, body.
struct Response {
    status: u16,
    headers: Vec<String>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        let prefix = format!("{}:", name.to_ascii_lowercase());
        self.headers
            .iter()
            .find(|h| h.to_ascii_lowercase().starts_with(&prefix))
            .map(|h| h[prefix.len()..].trim())
    }
}

/// Issue one `GET` (or another method) over a fresh connection.
fn request(server: &Server, method: &str, path: &str) -> Response {
    let mut stream = TcpStream::connect(server.addr()).expect("connect to the daemon");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read full response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line: {status_line}"));
    Response {
        status,
        headers: lines.map(str::to_owned).collect(),
        body: body.to_owned(),
    }
}

/// Read one response off a keep-alive connection and return its
/// status, consuming the headers and the `Content-Length` body.
fn read_status(reader: &mut impl BufRead) -> u16 {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line: {line:?}"));
    let mut length = 0;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header line");
        let h = line.trim();
        if h.is_empty() {
            break;
        }
        if let Some(v) = h.strip_prefix("Content-Length:") {
            length = v.trim().parse().expect("numeric Content-Length");
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body).expect("response body");
    status
}

fn get(server: &Server, path: &str) -> Response {
    request(server, "GET", path)
}

/// Bind a server over `index` on an ephemeral port with `threads`
/// workers and no rate limit.
fn spawn(index: &Arc<QueryIndex>, threads: usize) -> Server {
    let opts = ServeOptions {
        threads,
        ..ServeOptions::default()
    };
    Server::bind("127.0.0.1:0", Arc::clone(index), opts).expect("bind ephemeral port")
}

#[test]
fn responses_are_byte_stable_across_restarts_and_match_offline_report() {
    let dir = test_dir("stable");
    run_fleet_store(&FleetConfig::new(23, 60, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());

    // One concrete path per route pattern, plus a sweep over every
    // account and every populated range bucket.
    let mut paths = vec![
        "/v1/healthz".to_owned(),
        "/v1/stats".to_owned(),
        "/v1/outlets".to_owned(),
    ];
    for id in index.account_ids() {
        paths.push(format!("/v1/account/{id}/timeline"));
        paths.push(format!("/v1/account/{id}/accesses"));
    }
    for prefix in index.range_prefixes() {
        paths.push(format!("/v1/range/{prefix}"));
    }
    assert!(paths.len() > ROUTES.len(), "sweep covers every route");

    let first = spawn(&index, 4);
    let baseline: Vec<String> = paths.iter().map(|p| get(&first, p).body).collect();
    for (path, body) in paths.iter().zip(&baseline) {
        assert!(body.ends_with('\n'), "{path}: body is newline-terminated");
        // Re-asking the same server is trivially stable.
        assert_eq!(&get(&first, path).body, body, "{path} drifted in-process");
    }
    first.shutdown();

    // A brand-new process-equivalent (fresh index from the same bytes,
    // fresh server) must reproduce every body byte for byte.
    let reloaded = Arc::new(QueryIndex::from_store(&dir).unwrap());
    let second = spawn(&reloaded, 4);
    for (path, body) in paths.iter().zip(&baseline) {
        assert_eq!(
            &get(&second, path).body,
            body,
            "{path} drifted across restart"
        );
    }

    // `/v1/stats` repeats the offline reporter's numbers exactly.
    let offline = store_overview(&dir).unwrap();
    let stats = get(&second, "/v1/stats").body;
    for (key, value) in [
        ("total_accesses", offline.total_accesses as u64),
        ("emails_opened", offline.emails_opened),
        ("emails_sent", offline.emails_sent),
        ("drafts_created", offline.drafts_created),
        ("accounts_accessed", offline.accounts_accessed as u64),
        ("accounts_blocked", offline.accounts_blocked as u64),
        ("accounts_hijacked", offline.accounts_hijacked as u64),
    ] {
        let needle = format!("\"{key}\": {value}");
        assert!(
            stats.contains(&needle),
            "stats is missing `{needle}`:\n{stats}"
        );
    }
    second.shutdown();

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn error_envelopes_cover_bad_ids_unknown_routes_and_methods() {
    let dir = test_dir("errors");
    run_fleet_store(&FleetConfig::new(5, 20, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());
    let server = spawn(&index, 4);

    let not_a_number = get(&server, "/v1/account/zero/timeline");
    assert_eq!(not_a_number.status, 400);
    assert!(not_a_number
        .body
        .contains("\"status\": \"invalid_account\""));

    let unknown = get(&server, "/v1/account/999999/timeline");
    assert_eq!(unknown.status, 404);
    assert!(unknown.body.contains("\"status\": \"unknown_account\""));

    let lowercase = get(&server, "/v1/range/8b3da");
    assert_eq!(lowercase.status, 400, "range prefixes are uppercase hex");
    assert!(lowercase.body.contains("\"status\": \"invalid_prefix\""));

    let unmatched = get(&server, "/v2/stats");
    assert_eq!(unmatched.status, 404);
    assert!(unmatched.body.contains("\"status\": \"not_found\""));

    let post = request(&server, "POST", "/v1/stats");
    assert_eq!(post.status, 405);
    assert_eq!(post.header("Allow"), Some("GET"));

    // An unknown-but-valid prefix is an empty bucket, not an error: the
    // range endpoint must not leak which prefixes exist.
    let empty = get(&server, "/v1/range/00000");
    assert_eq!(empty.status, 200);
    assert!(empty.body.contains("\"count\": 0"), "{}", empty.body);

    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_see_no_server_errors() {
    let dir = test_dir("concurrent");
    run_fleet_store(&FleetConfig::new(11, 40, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());
    // One worker per client: each keep-alive connection owns a worker
    // for its lifetime, so the pool must be at least as wide.
    let server = spawn(&index, 6);

    // The aggregates, then timeline and accesses of every fifth account
    // and every fifth range prefix.
    let mut mix = vec![
        "/v1/healthz".to_owned(),
        "/v1/stats".to_owned(),
        "/v1/outlets".to_owned(),
    ];
    for id in index.account_ids().into_iter().step_by(5) {
        mix.push(format!("/v1/account/{id}/timeline"));
        mix.push(format!("/v1/account/{id}/accesses"));
    }
    for prefix in index.range_prefixes().into_iter().step_by(5) {
        mix.push(format!("/v1/range/{prefix}"));
    }

    // Six clients, each issuing 100 requests over one keep-alive
    // connection and starting at its own offset into the mix.
    let addr = server.addr();
    let statuses: Vec<u16> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..6)
            .map(|c| {
                let mix = &mix;
                s.spawn(move || {
                    let mut out = TcpStream::connect(addr).expect("connect to the daemon");
                    let mut reader = BufReader::new(out.try_clone().unwrap());
                    (0..100)
                        .map(|i| {
                            let path = &mix[(c + i) % mix.len()];
                            write!(out, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
                            read_status(&mut reader)
                        })
                        .collect::<Vec<u16>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let server_errors = statuses.iter().filter(|&&s| s >= 500).count();
    assert_eq!(server_errors, 0, "statuses: {statuses:?}");
    assert_eq!(statuses.iter().filter(|&&s| s == 200).count(), 600);
    server.shutdown();

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn header_split_across_a_read_timeout_is_not_lost() {
    let index = Arc::new(QueryIndex::from_dataset(
        &Dataset::default(),
        StoreMeta::default(),
    ));
    let server = spawn(&index, 4);

    // The pause outlasts the daemon's 250 ms read timeout, so the
    // `Connection: close` header arrives in two reads with a timeout
    // between them.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nConnec")
        .unwrap();
    std::thread::sleep(Duration::from_millis(400));
    stream.write_all(b"tion: close\r\n\r\n").unwrap();

    // Honouring the header means answering `Connection: close` and then
    // closing the socket, which ends `read_to_end` before the timeout.
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut raw = Vec::new();
    let closed = stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200 "), "{text}");
    assert!(
        text.contains("\r\nConnection: close\r\n"),
        "split header was lost:\n{text}"
    );
    assert!(closed.is_ok(), "socket still open: {closed:?}");
    server.shutdown();
}

#[test]
fn token_bucket_answers_overload_with_429_and_retry_after() {
    let dir = test_dir("ratelimit");
    run_fleet_store(&FleetConfig::new(3, 20, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());
    let opts = ServeOptions {
        threads: 4,
        rate: Some(RateLimit::per_second(2)),
        ..ServeOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&index), opts).unwrap();

    // Burst well past the bucket over a single keep-alive connection —
    // no process-spawn latency to refill the bucket behind our back.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut ok = 0u32;
    let mut limited = 0u32;
    let mut raw = Vec::new();
    for _ in 0..10 {
        write!(stream, "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    }
    write!(
        stream,
        "GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    for head in text.split("HTTP/1.1 ").skip(1) {
        match head.split_whitespace().next() {
            Some("200") => ok += 1,
            Some("429") => {
                limited += 1;
                assert!(
                    head.to_ascii_lowercase().contains("retry-after:"),
                    "429 without Retry-After:\n{head}"
                );
                assert!(head.contains("\"status\": \"rate_limited\""), "{head}");
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert!(ok >= 1, "the burst allowance admits at least one request");
    assert!(
        limited >= 1,
        "11 instant requests at 2 req/s must trip the limiter"
    );
    server.shutdown();

    let _ = fs::remove_dir_all(&dir);
}
