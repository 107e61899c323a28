//! The spec reader tested the paper's way: a pool of exceptional
//! `POST /campaign` bodies (every truncation of a valid spec, bad UTF-8,
//! integers out of range or of the wrong kind, a duplicated field, an
//! unknown variant, nesting past the limit inside an unknown key, the
//! wrong top-level shape) must each be a counted `400` with a JSON
//! `error` string, and the server must serve a valid spec afterwards.
//! Arbitrary bytes fed to the typed readers must return, never panic.

use ballista::fleet::Heartbeat;
use ballista::server::{CampaignSpec, Server, ServerConfig, ServerMetrics};
use proptest::prelude::*;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

const VALID: &str = r#"{"os":"Win95","cap":20}"#;

fn start() -> SocketAddr {
    let dir = std::env::temp_dir().join("ballista-exceptional-specs");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: dir,
        cache_capacity: 4,
    })
    .expect("bind server");
    server.spawn().addr
}

/// One request on its own connection: (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    stream.write_all(body).expect("send body");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let status = std::str::from_utf8(&response[..split])
        .expect("header utf8")
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("numeric status");
    (status, response[split + 4..].to_vec())
}

/// The `error` string of a JSON error body.
fn error_of(body: &[u8]) -> String {
    let value: Value = serde_json::from_slice(body)
        .unwrap_or_else(|e| panic!("not JSON ({e}): {}", String::from_utf8_lossy(body)));
    match value.as_map().and_then(|m| serde::content_get(m, "error")) {
        Some(Value::Str(error)) => error.clone(),
        other => panic!("`error` is not a string: {other:?}"),
    }
}

fn metrics(addr: SocketAddr) -> ServerMetrics {
    let (status, body) = request(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    serde_json::from_slice(&body).expect("metrics parse")
}

/// The exceptional bodies, each with a fragment its error must contain.
fn pool() -> Vec<(Vec<u8>, &'static str)> {
    let mut pool: Vec<(Vec<u8>, &str)> = (0..VALID.len())
        .map(|cut| (VALID.as_bytes()[..cut].to_vec(), ""))
        .collect();
    let deep = format!(r#"{{"os":"Win95","x":{}"#, "[".repeat(10_000));
    pool.extend([
        (b"{\"os\":\"\xff\"}".to_vec(), "invalid UTF-8"),
        (
            br#"{"os":"Win95","cap":18446744073709551616}"#.to_vec(),
            "bad integer",
        ),
        (br#"{"os":"Win95","cap":-1}"#.to_vec(), "expected u64"),
        (br#"{"os":"Win95","cap":1.5}"#.to_vec(), "expected u64"),
        (
            br#"{"os":"Win95","os":"Win98"}"#.to_vec(),
            "duplicate field `os`",
        ),
        (
            br#"{"os":"Win31"}"#.to_vec(),
            "unknown OsVariant variant Win31",
        ),
        (deep.into_bytes(), "recursion limit exceeded"),
        (
            br#"[{"os":"Win95"}]"#.to_vec(),
            "expected map for CampaignSpec",
        ),
    ]);
    pool
}

#[test]
fn exceptional_spec_bodies_are_counted_400s_and_the_server_keeps_serving() {
    let addr = start();
    let pool = pool();
    for (i, (body, fragment)) in pool.iter().enumerate() {
        let (status, reply) = request(addr, "POST", "/campaign", body);
        let shown = String::from_utf8_lossy(&body[..body.len().min(60)]).into_owned();
        assert_eq!(status, 400, "{shown}");
        let error = error_of(&reply);
        assert!(error.starts_with("bad campaign spec: "), "{shown}: {error}");
        assert!(error.contains(fragment), "{shown}: {error}");
        assert_eq!(metrics(addr).rejected_specs, i as u64 + 1, "{shown}");
    }

    let (status, body) = request(addr, "POST", "/campaign", VALID.as_bytes());
    assert_eq!(status, 200);
    let report: ballista::campaign::CampaignReport =
        serde_json::from_slice(&body).expect("report parses");
    assert!(report.total_cases > 0);
    let m = metrics(addr);
    assert_eq!(m.rejected_specs, pool.len() as u64);
    assert_eq!(m.campaigns_executed, 1);
}

proptest! {
    /// Arbitrary bytes never panic the spec or heartbeat readers.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = serde_json::from_slice::<CampaignSpec>(&bytes);
        let _ = serde_json::from_slice::<Heartbeat>(&bytes);
    }

    /// Nor does a valid spec with one byte replaced, which reaches far
    /// deeper into the readers than random bytes do.
    #[test]
    fn one_byte_off_a_valid_spec_never_panics(at in 0usize..64, byte in any::<u8>()) {
        let mut bytes = br#"{"os":"Win98","cap":200,"isolation_probe":null,"adaptive_rounds":2}"#.to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        let _ = serde_json::from_slice::<CampaignSpec>(&bytes);
        let _ = serde_json::from_slice::<Heartbeat>(&bytes);
    }
}
