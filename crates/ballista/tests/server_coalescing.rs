//! Serving-layer contract tests against a real listening server: the
//! coalescing guarantee (K concurrent identical requests → exactly one
//! campaign executed, all K responses bit-identical), the cache-hit
//! path, fingerprint addressing, and spec validation — all through
//! plain `std::net` sockets, the same wire a remote client uses.

use ballista::server::{CampaignSpec, Server, ServerConfig, ServerMetrics};
use sim_kernel::variant::OsVariant;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

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
