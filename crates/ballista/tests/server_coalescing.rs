//! Serving-layer contract tests against a real listening server: the
//! coalescing guarantee (K concurrent identical requests → exactly one
//! campaign executed, all K responses bit-identical), the cache-hit
//! path, fingerprint addressing, spec validation, and the refusals of
//! requests too large or too slow — all through plain `std::net`
//! sockets, the same wire a remote client uses.

use ballista::server::{CampaignSpec, Server, ServerConfig, ServerMetrics};
use sim_kernel::variant::OsVariant;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The server's per-read and per-write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ballista-server-coalescing")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(name: &str) -> SocketAddr {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: scratch(name),
        cache_capacity: 16,
    })
    .expect("bind server");
    server.spawn().addr
}

/// Minimal HTTP/1.1 client: one request, returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    stream.write_all(body.as_bytes()).expect("send body");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = std::str::from_utf8(&response[..split]).expect("header utf8");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, response[split + 4..].to_vec())
}

fn spec_json(cap: usize) -> String {
    serde_json::to_string(&CampaignSpec {
        cap,
        ..CampaignSpec::new(OsVariant::Win95)
    })
    .expect("spec serializes")
}

fn metrics(addr: SocketAddr) -> ServerMetrics {
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    serde_json::from_slice(&body).expect("metrics parse")
}

#[test]
fn concurrent_identical_posts_execute_one_campaign_bit_identically() {
    let addr = start("coalesce");
    const K: usize = 16;

    // K concurrent identical specs at cap 200. The responses must be
    // bit-identical — including the embedded CampaignStats, whose
    // wall-clock field would differ between any two executions, so
    // byte-equality alone already proves a single execution.
    let responses: Vec<(u16, Vec<u8>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|_| s.spawn(move || request(addr, "POST", "/campaign", &spec_json(200))))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).collect()
    });
    let (first_status, first_body) = &responses[0];
    assert_eq!(*first_status, 200);
    assert!(!first_body.is_empty());
    for (status, body) in &responses {
        assert_eq!(*status, 200);
        assert_eq!(body, first_body, "all K responses must be bit-identical");
    }

    // The server's own accounting agrees: one miss (the leader), one
    // campaign executed, everyone else coalesced or served from cache.
    let m = metrics(addr);
    assert_eq!(m.campaigns_executed, 1, "exactly one campaign ran");
    assert_eq!(m.cache_misses, 1);
    assert_eq!(m.campaign_posts, K as u64);
    assert_eq!(
        m.cache_hits + m.requests_coalesced,
        (K - 1) as u64,
        "every non-leader was coalesced or cache-served"
    );

    // The stats in the report describe one fleet campaign.
    let report: ballista::campaign::CampaignReport =
        serde_json::from_slice(first_body).expect("report parses");
    let stats = report.stats.expect("stats present");
    assert!(stats.restores > 0, "the one campaign actually executed");

    // A later identical POST is a pure cache hit — still the same bytes.
    let (status, body) = request(addr, "POST", "/campaign", &spec_json(200));
    assert_eq!(status, 200);
    assert_eq!(&body, first_body);
    let m2 = metrics(addr);
    assert_eq!(m2.campaigns_executed, 1, "the hit executed nothing");
    assert_eq!(m2.cache_misses, 1);
}

#[test]
fn fingerprint_addressing_and_distinct_specs() {
    let addr = start("addressing");

    // Unknown fingerprint → 404.
    let (status, _) = request(addr, "GET", "/campaign/0000000000000000", "");
    assert_eq!(status, 404);
    // Malformed fingerprint → 400.
    let (status, _) = request(addr, "GET", "/campaign/not-hex", "");
    assert_eq!(status, 400);
    // Malformed spec → 400.
    let (status, _) = request(addr, "POST", "/campaign", "{\"cap\": 60}");
    assert_eq!(status, 400);
    assert_eq!(metrics(addr).rejected_specs, 1);

    // Two distinct specs are two campaigns with two fingerprints.
    let (status, body_a) = request(addr, "POST", "/campaign", &spec_json(60));
    assert_eq!(status, 200);
    let (status, body_b) = request(addr, "POST", "/campaign", &spec_json(80));
    assert_eq!(status, 200);
    assert_ne!(body_a, body_b);
    assert_eq!(metrics(addr).campaigns_executed, 2);

    // Each is addressable by its fingerprint afterwards.
    use ballista::campaign::{fingerprint, CampaignConfig};
    for cap in [60usize, 80] {
        let fp = fingerprint(
            OsVariant::Win95,
            &CampaignConfig {
                cap,
                ..CampaignConfig::default()
            },
        );
        let (status, body) = request(addr, "GET", &format!("/campaign/{fp}"), "");
        assert_eq!(status, 200, "cap-{cap} report addressable at {fp}");
        assert_eq!(body, if cap == 60 { body_a.clone() } else { body_b.clone() });
    }
}

#[test]
fn out_of_bounds_adaptive_knobs_are_rejected_and_the_server_keeps_serving() {
    let addr = start("adaptive-bounds");
    let adaptive = |rounds: usize, rare_bonus: u64| {
        serde_json::to_string(&CampaignSpec {
            cap: 40,
            adaptive_rounds: rounds,
            adaptive_rare_bonus: rare_bonus,
            ..CampaignSpec::new(OsVariant::Win95)
        })
        .expect("spec serializes")
    };

    // A round count that would reserve terabytes up front, and a rare
    // bonus that would overflow a pool's weight sum: both are refused
    // before anything fingerprints or explores them.
    let (status, body) = request(addr, "POST", "/campaign", &adaptive(1_000_000_000_000, 0));
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    let (status, body) = request(addr, "POST", "/campaign", &adaptive(2, (1 << 32) + 1));
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    let m = metrics(addr);
    assert_eq!(m.campaigns_executed, 0);
    assert_eq!(m.cache_misses, 0);
    assert_eq!(m.rejected_specs, 2);

    // The server is still up and serves a valid adaptive spec.
    let (status, body) = request(addr, "POST", "/campaign", &adaptive(2, 0));
    assert_eq!(status, 200);
    let report: ballista::campaign::CampaignReport =
        serde_json::from_slice(&body).expect("report parses");
    assert!(report.total_cases > 0);
    let m = metrics(addr);
    assert_eq!(m.campaign_posts, 3);
    assert_eq!(m.campaigns_executed, 1);
}

#[test]
fn caps_above_the_largest_full_product_are_rejected_before_fingerprinting() {
    use ballista::cache::ResultCache;
    use ballista::campaign::{exhaustive_cap, fingerprint, CampaignReport};

    let os = OsVariant::Win98;
    let max = exhaustive_cap(os);
    assert_eq!(max, 19 * 12 * 8 * 12 * 12, "ReadFileEx's full product");
    let spec = |cap: usize| CampaignSpec {
        cap,
        ..CampaignSpec::new(os)
    };
    let dir = scratch("cap-bound");
    let addr = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: dir.clone(),
        cache_capacity: 16,
    })
    .expect("bind server")
    .spawn()
    .addr;

    // A cap equal to the largest product is accepted: it is fingerprinted
    // and probed. A stand-in report stored under that fingerprint first
    // answers the probe, so the test runs no exhaustive campaign.
    let stand_in = CampaignReport {
        os,
        muts: Vec::new(),
        total_cases: 0,
        stats: None,
        warnings: Vec::new(),
        degraded: false,
        fleet_degraded: false,
    };
    let stored = ResultCache::new(&dir, 1)
        .expect("cache dir")
        .store(fingerprint(os, &spec(max).config()), &stand_in)
        .expect("store stand-in");
    let body = serde_json::to_string(&spec(max)).expect("spec serializes");
    let (status, served) = request(addr, "POST", "/campaign", &body);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&served));
    assert_eq!(served, *stored);

    // One above it, and the largest cap JSON can carry, are a 400.
    for cap in [max + 1, usize::MAX] {
        let body = serde_json::to_string(&spec(cap)).expect("spec serializes");
        let (status, reply) = request(addr, "POST", "/campaign", &body);
        assert_eq!(status, 400, "cap {cap}");
        let reply = String::from_utf8_lossy(&reply);
        assert!(reply.contains("largest full product 262656"), "{reply}");
    }
    let m = metrics(addr);
    assert_eq!(m.campaign_posts, 3);
    assert_eq!(m.rejected_specs, 2);
    assert_eq!(m.cache_hits, 1);
    assert_eq!(m.cache_misses, 0);
    assert_eq!(m.campaigns_executed, 0, "no rejected spec ran");
}

#[test]
fn a_deeply_nested_spec_is_a_counted_400_and_the_server_keeps_serving() {
    let addr = start("deep-nesting");
    // About 10 KB: far below the body limit, and without a nesting
    // limit deep enough to overflow the connection thread's stack,
    // which aborts the whole server.
    let body = format!(r#"{{"os": {}"#, "[".repeat(10_000));
    let (status, reply) = request(addr, "POST", "/campaign", &body);
    assert_eq!(status, 400);
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.contains("recursion limit exceeded"), "{reply}");
    let m = metrics(addr);
    assert_eq!(m.campaign_posts, 1);
    assert_eq!(m.rejected_specs, 1);

    // The server is still up and runs a valid spec.
    let (status, body) = request(addr, "POST", "/campaign", &spec_json(20));
    assert_eq!(status, 200);
    let report: ballista::campaign::CampaignReport =
        serde_json::from_slice(&body).expect("report parses");
    assert!(report.total_cases > 0);
    assert_eq!(metrics(addr).campaigns_executed, 1);
}

#[test]
fn a_rejected_spec_answers_a_json_error_body() {
    let addr = start("error-body");
    // The parser's message quotes the offending `"`, which a body built
    // by string formatting left unescaped.
    let (status, reply) = request(addr, "POST", "/campaign", r#"{"os":"Win95" "cap":1}"#);
    assert_eq!(status, 400);
    let body: serde_json::Value = serde_json::from_slice(&reply).unwrap_or_else(|e| {
        panic!(
            "400 body is not JSON ({e}): {}",
            String::from_utf8_lossy(&reply)
        )
    });
    let serde_json::Value::Map(fields) = body else {
        panic!("400 body is not an object: {body:?}");
    };
    match serde::content_get(&fields, "error") {
        Some(serde_json::Value::Str(error)) => {
            assert!(error.starts_with("bad campaign spec: "), "{error}");
            assert!(error.contains('"'), "{error}");
        }
        other => panic!("`error` is not a string: {other:?}"),
    }
    assert_eq!(metrics(addr).rejected_specs, 1);
}

#[test]
fn a_malformed_content_length_is_a_400_that_closes_the_connection() {
    let addr = start("bad-content-length");
    // Read as length 0, the body would stay in the stream and be served
    // as a second request on the same connection.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            b"POST /campaign HTTP/1.1\r\nHost: test\r\nContent-Length: x\r\n\r\n\
              GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n",
        )
        .expect("send request");
    // A connection left open would block the read forever.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set read timeout");
    let mut response = Vec::new();
    let eof = stream.read_to_end(&mut response);
    let text = String::from_utf8_lossy(&response);
    assert_eq!(
        text.matches("HTTP/1.1 ").count(),
        1,
        "exactly one response: {text}"
    );
    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    eof.expect("the server closes the connection after the 400");

    // Nothing reached the campaign path, and the server keeps serving.
    let m = metrics(addr);
    assert_eq!(m.campaign_posts, 0);
    assert_eq!(m.rejected_specs, 0);
    assert_eq!(m.refused_requests, 1);
}

#[test]
fn an_oversized_body_is_a_413_that_closes_the_connection() {
    let addr = start("oversized-body");
    // One byte over the 1 MiB limit. The server answers from the header
    // alone, so the client never sends the body.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /campaign HTTP/1.1\r\nHost: test\r\nContent-Length: 1048577\r\n\r\n")
        .expect("send head");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set read timeout");
    let mut response = Vec::new();
    let eof = stream.read_to_end(&mut response);
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 413 "), "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    eof.expect("the server closes the connection after the 413");
    let split = text.find("\r\n\r\n").expect("header terminator");
    let body: serde_json::Value =
        serde_json::from_str(&text[split + 4..]).expect("the 413 body is JSON");
    let serde_json::Value::Map(fields) = body else {
        panic!("413 body is not an object: {body:?}");
    };
    match serde::content_get(&fields, "error") {
        Some(serde_json::Value::Str(error)) => assert!(error.contains("1048577"), "{error}"),
        other => panic!("`error` is not a string: {other:?}"),
    }

    // Nothing reached the campaign path, and the server keeps serving.
    let m = metrics(addr);
    assert_eq!(m.campaign_posts, 0);
    assert_eq!(m.rejected_specs, 0);
    assert_eq!(m.refused_requests, 1);
}

/// Sends `head`, and checks that the server answers 431 with a JSON
/// error body and closes the connection.
fn assert_head_rejected(addr: SocketAddr, head: &[u8]) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(head).expect("send head");
    // A connection left open would block the read forever.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set read timeout");
    let mut response = Vec::new();
    let eof = stream.read_to_end(&mut response);
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 431 "), "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    eof.expect("the server closes the connection after the 431");
    let split = text.find("\r\n\r\n").expect("header terminator");
    let body: serde_json::Value =
        serde_json::from_str(&text[split + 4..]).expect("the 431 body is JSON");
    let serde_json::Value::Map(fields) = body else {
        panic!("431 body is not an object: {body:?}");
    };
    assert!(
        matches!(
            serde::content_get(&fields, "error"),
            Some(serde_json::Value::Str(_))
        ),
        "{fields:?}"
    );
}

#[test]
fn a_header_line_over_the_bound_is_a_431_that_closes_the_connection() {
    let addr = start("long-header-line");
    // A 16 KiB header line, twice the bound. Served unbounded, the
    // request would answer 200 and close on its `Connection: close`.
    let mut head = b"GET /metrics HTTP/1.1\r\nHost: test\r\nX-Big: ".to_vec();
    head.resize(head.len() + (16 << 10), b'a');
    head.extend_from_slice(b"\r\nConnection: close\r\n\r\n");
    assert_head_rejected(addr, &head);

    // The server keeps serving.
    assert_eq!(metrics(addr).campaign_posts, 0);
    assert_eq!(metrics(addr).refused_requests, 1);
}

#[test]
fn more_header_lines_than_the_bound_is_a_431_that_closes_the_connection() {
    let addr = start("many-header-lines");
    let mut head = b"GET /metrics HTTP/1.1\r\nConnection: close\r\n".to_vec();
    for i in 0..64 {
        head.extend_from_slice(format!("X-Pad-{i}: 1\r\n").as_bytes());
    }
    head.extend_from_slice(b"\r\n");
    assert_head_rejected(addr, &head);

    // Exactly 64 header lines are served.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut head = b"GET /metrics HTTP/1.1\r\nConnection: close\r\n".to_vec();
    for i in 0..63 {
        head.extend_from_slice(format!("X-Pad-{i}: 1\r\n").as_bytes());
    }
    head.extend_from_slice(b"\r\n");
    stream.write_all(&head).expect("send head");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    assert!(response.starts_with(b"HTTP/1.1 200 "));
    assert_eq!(metrics(addr).refused_requests, 1);
}

#[test]
fn a_stalled_request_head_is_a_408_that_closes_the_connection() {
    let addr = start("stalled-head");
    // A request line and nothing more: without a read timeout the
    // server waits for the rest forever, holding the thread.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\n")
        .expect("send partial head");
    let started = Instant::now();
    let deadline = IO_TIMEOUT + Duration::from_secs(2);
    stream
        .set_read_timeout(Some(deadline))
        .expect("set read timeout");
    let mut response = Vec::new();
    let eof = stream.read_to_end(&mut response);
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 408 "), "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    eof.expect("the server closes the connection after the 408");
    assert!(
        started.elapsed() < deadline,
        "the 408 took {:?}",
        started.elapsed()
    );
    let split = text.find("\r\n\r\n").expect("header terminator");
    let body: serde_json::Value =
        serde_json::from_str(&text[split + 4..]).expect("the 408 body is JSON");
    let serde_json::Value::Map(fields) = body else {
        panic!("408 body is not an object: {body:?}");
    };
    assert!(
        matches!(
            serde::content_get(&fields, "error"),
            Some(serde_json::Value::Str(_))
        ),
        "{fields:?}"
    );

    // A new connection is served, and the refusal is counted.
    let m = metrics(addr);
    assert_eq!(m.refused_requests, 1);
    assert_eq!(m.campaign_gets, 0);
}

/// Reads one keep-alive response off `reader`: its status and body.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<u8>) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut length = 0;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(value) = header.strip_prefix("Content-Length: ") {
            length = value.parse().expect("numeric length");
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body).expect("body");
    (status, body)
}

#[test]
fn an_idle_keep_alive_connection_outlives_the_timeout() {
    let addr = start("idle-keep-alive");
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let request = b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n";
    stream.write_all(request).expect("send request");
    assert_eq!(read_response(&mut reader).0, 200);

    // Idle past the timeout between requests: the connection stays
    // open and serves the next request.
    std::thread::sleep(IO_TIMEOUT + Duration::from_secs(1));
    stream.write_all(request).expect("send request");
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 200);
    let m: ServerMetrics = serde_json::from_slice(&body).expect("metrics parse");
    assert_eq!(m.refused_requests, 0);
}
