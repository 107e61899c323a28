//! Load driver for the campaign service: drives the cold path and the
//! cache-hit path and prints one JSON line on stdout.
//!
//! ```text
//! fleet_bench [--addr HOST:PORT] [--os win95] [--cap 200]
//!             [--identical 1000] [--distinct 3] [--clients 8]
//!             [--dump-report PATH]
//! ```
//!
//! Without `--addr` an in-process server is spawned on a loopback port
//! (cache in a fresh temp directory), so the bench runs self-contained
//! and offline. The phases:
//!
//! 1. **Cold**: each of the `--distinct` specs (cap, cap+1, …) is
//!    POSTed once; every one must execute a real campaign.
//! 2. **Hit**: `--identical` POSTs of the first spec, spread over
//!    `--clients` persistent keep-alive connections; every one must
//!    serve the first response's bytes.
//!
//! The stdout line holds `identical_requests`, `distinct_specs`,
//! `clients`, `cap`, `hit_requests_per_sec`, `cold_wall_ms`,
//! `campaigns_executed`, `requests_coalesced` and `hit_rate` (cache hits
//! plus coalesced requests over all `POST /campaign` requests), for a
//! `jq` gate to read. The timings are raw wall clock; the benchmark that
//! times the server is `perfbench --workload serve`.
//!
//! `--dump-report` writes the identical-spec response body to a file so
//! CI can `jq`-diff the served tallies against a direct engine run.
//! Exits non-zero if any response fails or the server executed more
//! campaigns than distinct specs (a coalescing/caching regression).

use ballista::server::{CampaignSpec, Server, ServerConfig, ServerMetrics};
use serde::Serialize;
use sim_kernel::variant::OsVariant;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

struct Args {
    addr: Option<String>,
    os: OsVariant,
    cap: usize,
    identical: usize,
    distinct: usize,
    clients: usize,
    dump_report: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        os: OsVariant::Win95,
        cap: 200,
        identical: 1000,
        distinct: 3,
        clients: 8,
        dump_report: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => args.addr = Some(value("--addr")),
            "--os" => {
                let name = value("--os");
                args.os = OsVariant::from_short_name(&name)
                    .unwrap_or_else(|| panic!("unknown variant {name}"));
            }
            "--cap" => args.cap = value("--cap").parse().expect("--cap takes a number"),
            "--identical" => {
                args.identical = value("--identical")
                    .parse()
                    .expect("--identical takes a number");
            }
            "--distinct" => {
                args.distinct = value("--distinct")
                    .parse()
                    .expect("--distinct takes a number");
            }
            "--clients" => {
                args.clients = value("--clients")
                    .parse()
                    .expect("--clients takes a number");
            }
            "--dump-report" => args.dump_report = Some(value("--dump-report").into()),
            other => {
                eprintln!("unknown argument {other}");
                eprintln!(
                    "usage: fleet_bench [--addr HOST:PORT] [--os short_name] [--cap N] \
                     [--identical N] [--distinct M] [--clients C] [--dump-report PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// A persistent keep-alive connection to the server.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to campaign server");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            writer: stream,
            reader,
        }
    }

    /// One request/response on the persistent connection.
    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes()).expect("send head");
        self.writer.write_all(body).expect("send body");
        let mut status = 0u16;
        let mut content_length = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            assert!(
                self.reader.read_line(&mut line).expect("read header") > 0,
                "server closed mid-response"
            );
            let trimmed = line.trim_end();
            if status == 0 {
                status = trimmed
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .expect("status line");
                continue;
            }
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("content length");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("read body");
        (status, body)
    }
}

fn spec_body(os: OsVariant, cap: usize) -> Vec<u8> {
    serde_json::to_vec(&CampaignSpec {
        cap,
        ..CampaignSpec::new(os)
    })
    .expect("spec serializes")
}

fn metrics(addr: &str) -> ServerMetrics {
    let (status, body) = Client::connect(addr).request("GET", "/metrics", b"");
    assert_eq!(status, 200, "metrics endpoint");
    serde_json::from_slice(&body).expect("metrics parse")
}

/// The stdout line: what the two phases did and how fast.
#[derive(Serialize)]
struct ServeRow {
    identical_requests: usize,
    distinct_specs: usize,
    clients: usize,
    cap: usize,
    hit_requests_per_sec: f64,
    cold_wall_ms: f64,
    campaigns_executed: u64,
    requests_coalesced: u64,
    hit_rate: f64,
}

fn main() {
    let args = parse_args();
    let addr = args.addr.clone().unwrap_or_else(|| {
        let dir = std::env::temp_dir().join(format!("ballista-fleet-bench-{}", std::process::id()));
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            cache_dir: dir,
            cache_capacity: 64,
        })
        .expect("bind in-process server");
        let addr = server.spawn().addr;
        eprintln!("spawned in-process server on {addr}");
        addr.to_string()
    });

    // Cold phase: every distinct spec executes one real campaign.
    let before = metrics(&addr);
    let mut cold = Client::connect(&addr);
    let t0 = Instant::now();
    let mut identical_body = Vec::new();
    for i in 0..args.distinct {
        let (status, body) = cold.request("POST", "/campaign", &spec_body(args.os, args.cap + i));
        assert_eq!(status, 200, "cold request {i}");
        if i == 0 {
            identical_body = body;
        }
    }
    let cold_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "cold: {} distinct campaigns in {:.0}ms",
        args.distinct, cold_wall_ms
    );

    // Hit phase: N identical requests over C persistent connections.
    let per_client = args.identical.div_ceil(args.clients.max(1));
    let fired = per_client * args.clients;
    let body = spec_body(args.os, args.cap);
    let t1 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..args.clients {
            let addr = &addr;
            let body = &body;
            let expected = &identical_body;
            s.spawn(move || {
                let mut client = Client::connect(addr);
                for _ in 0..per_client {
                    let (status, served) = client.request("POST", "/campaign", body);
                    assert_eq!(status, 200, "hit request");
                    assert_eq!(
                        &served, expected,
                        "every hit must serve the identical bytes"
                    );
                }
            });
        }
    });
    let hit_wall = t1.elapsed().as_secs_f64();
    let hit_rps = fired as f64 / hit_wall.max(1e-9);

    let after = metrics(&addr);
    let executed = after.campaigns_executed - before.campaigns_executed;
    let posts = after.campaign_posts - before.campaign_posts;
    let hits = after.cache_hits - before.cache_hits;
    let coalesced = after.requests_coalesced - before.requests_coalesced;
    let hit_rate = (hits + coalesced) as f64 / (posts as f64).max(1.0);
    eprintln!(
        "hit: {fired} identical requests over {} clients in {:.2}s — {:.0} req/s, hit rate {:.4}",
        args.clients, hit_wall, hit_rps, hit_rate
    );
    eprintln!(
        "server: {executed} campaigns executed, {coalesced} coalesced, {} cache hits",
        hits
    );

    if let Some(path) = &args.dump_report {
        std::fs::write(path, &identical_body).expect("dump served report");
        eprintln!("wrote served report to {}", path.display());
    }

    let row = ServeRow {
        identical_requests: fired,
        distinct_specs: args.distinct,
        clients: args.clients,
        cap: args.cap,
        hit_requests_per_sec: hit_rps,
        cold_wall_ms,
        campaigns_executed: executed,
        requests_coalesced: coalesced,
        hit_rate,
    };
    println!("{}", serde_json::to_string(&row).expect("serializable"));

    assert_eq!(
        executed, args.distinct as u64,
        "the server must execute exactly one campaign per distinct spec"
    );
    eprintln!("fleet bench passed");
}
