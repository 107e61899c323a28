//! Campaign-as-a-service: the fleet HTTP server.
//!
//! A minimal threaded HTTP/1.1 + JSON server over [`std::net`] — no
//! external dependencies, fully offline — that turns the campaign
//! engine into a shared service:
//!
//! * `POST /campaign` with a [`CampaignSpec`] body: the spec is folded
//!   to its [`CampaignFingerprint`], the result cache is probed, and
//!   only a genuinely new campaign is executed (on the sharded
//!   [`fleet`](crate::fleet) path). The response is the serialized
//!   [`CampaignReport`](crate::campaign::CampaignReport), plus an
//!   `X-Cache: hit | coalesced | miss` header.
//! * `GET /campaign/<fingerprint>`: the cached report, or `202` while
//!   that campaign is in flight, or `404`.
//! * `GET /metrics`: a JSON snapshot of the server counters — request
//!   totals, cache hit/miss/coalesce counts, in-flight depth, shard
//!   and throughput numbers.
//!
//! # Request coalescing
//!
//! Concurrent identical requests must cost **one** campaign, not K.
//! The first requester of a fingerprint becomes the *leader*: it
//! registers an in-flight entry, runs the campaign, stores the result,
//! and wakes everyone. Every other requester of the same fingerprint
//! blocks on that entry's condvar and then serves the leader's bytes —
//! the `Arc<Vec<u8>>` stored in the cache — so all K responses are
//! **bit-identical** by construction (same allocation, not merely equal
//! JSON). A leader panic is contained: followers get `500`, the
//! in-flight entry is removed, and the next request starts fresh.
//!
//! # Fingerprint memoization
//!
//! Computing a fingerprint hashes every catalog MuT's name and planned
//! count off a per-variant table — microseconds, about as long as the
//! rest of a cache hit. The server memoizes spec → fingerprint in a hash
//! map, so the steady-state cost of a hit is a one-pass read of the spec
//! body, two hash probes and one vectored socket write that sends the
//! cached body from where it lies (`perfbench --workload serve` times it
//! as `hit_p50_us`).
//!
//! # Request limits
//!
//! A head line over 8 KiB or more than 64 header lines is a `431`, a
//! `Content-Length` over 1 MiB a `413` and a malformed one a `400`. Each
//! answers without reading the rest of the request and closes the
//! connection, so no client can make the server buffer more than that.
//! Every read and write on a connection times out after 5 s: a client
//! that stalls inside a request head or body gets a `408` and the
//! connection closes, and a write that times out ends the connection.
//! An idle keep-alive connection waits on for its next request. Each of
//! these refusals counts once in [`ServerMetrics::refused_requests`].
//!
//! # Spec validation
//!
//! A spec is checked before anything fingerprints it: a `cap` above the
//! variant's largest full product ([`campaign::exhaustive_cap`]) or an
//! adaptive knob out of bounds is a `400`, counted in
//! [`ServerMetrics::rejected_specs`]. Above that product every plan is
//! already exhaustive, so a larger cap would only name the same campaign
//! under another fingerprint.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sim_kernel::variant::OsVariant;

use crate::adaptive::AdaptiveConfig;
use crate::cache::ResultCache;
use crate::campaign::{self, CampaignConfig, CampaignFingerprint, Mode};
use crate::fleet::{run_fleet_engine, FleetConfig, FleetProgressSnapshot};
use crate::telemetry::{self, Counter, Counters};
use serde::{Deserialize, Serialize};

/// Hard cap on an accepted request body (a campaign spec is tiny).
const MAX_BODY: usize = 1 << 20;

/// Most bytes buffered for one line of a request head (the request line
/// or one header line, with its line break).
const MAX_HEAD_LINE: u64 = 8 << 10;

/// Most header lines a request may carry.
const MAX_HEADERS: usize = 64;

/// How long one read or write on a connection may block. A read that
/// times out inside a request is a 408; before a request's first byte,
/// the connection is idle and waits on.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A campaign request as posted to `POST /campaign`.
///
/// Flat JSON with every knob optional except `os`, e.g.
/// `{"os": "Win95", "cap": 200}`. Omitted knobs take the
/// [`CampaignConfig::default`] protocol values (`cap` `0` also means
/// "default": the paper's 5 000). `shards`/`workers` of `0` let the
/// fleet pick. The server answers `400` to a `cap` above the variant's
/// [`campaign::exhaustive_cap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// OS variant under test (serialized as the enum variant name,
    /// e.g. `"Win95"`).
    pub os: OsVariant,
    /// Per-MuT case cap; `0` → the paper's 5 000. At most the variant's
    /// largest full product ([`campaign::exhaustive_cap`]); a larger cap
    /// is a `400`.
    #[serde(default)]
    pub cap: usize,
    /// Record per-case packed outcome bytes.
    #[serde(default)]
    pub record_raw: bool,
    /// Isolation-probe crashing cases (`null`/absent → on, the paper's
    /// protocol).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub isolation_probe: Option<bool>,
    /// Reset residue before every case (ablation knob).
    #[serde(default)]
    pub perfect_cleanup: bool,
    /// Engine parallelism knob (affects the fingerprint, like every
    /// other knob; the fleet executes shards at its own width).
    #[serde(default)]
    pub parallelism: usize,
    /// Per-case fuel budget; `0` → default.
    #[serde(default)]
    pub fuel_budget: u64,
    /// Fleet shard count; `0` → auto.
    #[serde(default)]
    pub shards: usize,
    /// Fleet worker count; `0` → auto.
    #[serde(default)]
    pub workers: usize,
    /// Execute shards on supervised worker processes (see
    /// [`FleetConfig::process`]); off by default. Does not affect the
    /// campaign fingerprint — process isolation is an execution detail,
    /// not a different campaign.
    #[serde(default)]
    pub process: bool,
    /// Adaptive mode: explore rounds. `0` (the default) means a
    /// **classic** fixed-plan campaign; any non-zero value selects the
    /// adaptive engine with that many rounds (and folds the
    /// `adaptive/1` mode tag plus all three adaptive knobs into the
    /// fingerprint). At most
    /// [`MAX_ROUNDS`](crate::adaptive::MAX_ROUNDS); a larger count is a
    /// `400`.
    #[serde(default)]
    pub adaptive_rounds: usize,
    /// Adaptive explore seed (meaningful only with `adaptive_rounds`).
    #[serde(default)]
    pub adaptive_seed: u64,
    /// Adaptive rare-outcome bonus; `0` → the mode default (meaningful
    /// only with `adaptive_rounds`). At most
    /// [`MAX_RARE_BONUS`](crate::adaptive::MAX_RARE_BONUS); a larger
    /// bonus is a `400`.
    #[serde(default)]
    pub adaptive_rare_bonus: u64,
}

impl CampaignSpec {
    /// The paper-protocol spec for one variant.
    #[must_use]
    pub fn new(os: OsVariant) -> Self {
        CampaignSpec {
            os,
            cap: 0,
            record_raw: false,
            isolation_probe: None,
            perfect_cleanup: false,
            parallelism: 0,
            fuel_budget: 0,
            shards: 0,
            workers: 0,
            process: false,
            adaptive_rounds: 0,
            adaptive_seed: 0,
            adaptive_rare_bonus: 0,
        }
    }

    /// The campaign config this spec denotes.
    #[must_use]
    pub fn config(&self) -> CampaignConfig {
        let default = CampaignConfig::default();
        CampaignConfig {
            cap: if self.cap == 0 { default.cap } else { self.cap },
            record_raw: self.record_raw,
            isolation_probe: self.isolation_probe.unwrap_or(default.isolation_probe),
            perfect_cleanup: self.perfect_cleanup,
            parallelism: self.parallelism,
            fuel_budget: self.fuel_budget,
        }
    }

    /// The fleet sizing this spec denotes.
    #[must_use]
    pub fn fleet(&self) -> FleetConfig {
        FleetConfig {
            shards: self.shards,
            workers: self.workers,
            process: self.process,
        }
    }

    /// The adaptive mode this spec denotes: `Some` iff `adaptive_rounds`
    /// is non-zero.
    #[must_use]
    pub fn adaptive(&self) -> Option<AdaptiveConfig> {
        (self.adaptive_rounds != 0).then_some(AdaptiveConfig {
            rounds: self.adaptive_rounds,
            seed: self.adaptive_seed,
            rare_bonus: self.adaptive_rare_bonus,
        })
    }

    /// The campaign mode this spec denotes.
    pub(crate) fn mode(&self) -> Mode {
        self.adaptive().map_or(Mode::Classic, Mode::Adaptive)
    }
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` for an OS-assigned
    /// port — the bound address is [`Server::local_addr`]).
    pub addr: String,
    /// Result-cache directory.
    pub cache_dir: PathBuf,
    /// Result-cache memory-front capacity (entries).
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            cache_dir: PathBuf::from("results/cache"),
            cache_capacity: 64,
        }
    }
}

/// Host-side serving counters, all monotonic since server start.
/// Serialized as the `GET /metrics` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ServerMetrics {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// `POST /campaign` requests accepted.
    pub campaign_posts: u64,
    /// `GET /campaign/<fp>` requests accepted.
    pub campaign_gets: u64,
    /// Requests served from the result cache.
    pub cache_hits: u64,
    /// Requests that found no cache entry (leader executions).
    pub cache_misses: u64,
    /// Requests coalesced onto an in-flight identical campaign.
    pub requests_coalesced: u64,
    /// Campaigns actually executed by this server.
    pub campaigns_executed: u64,
    /// Campaigns currently in flight.
    pub inflight: u64,
    /// Cases/second of the most recently completed campaign
    /// (micro-cases — `cases_per_sec × 1e6` stored integrally).
    pub last_campaign_ucases_per_sec: u64,
    /// `POST /campaign` bodies answered `400`: malformed JSON, a field of
    /// the wrong type or given twice, an adaptive knob out of bounds, or a
    /// cap above the variant's largest full product (absent in metrics
    /// written before the cap bound).
    #[serde(default)]
    pub rejected_specs: u64,
    /// Requests refused before they were read whole, each answered and
    /// its connection closed: a malformed `Content-Length` (`400`), a
    /// body over the limit (`413`), a head over its bounds (`431`), or a
    /// client that stalled mid-request (`408`). Absent in metrics written
    /// before refusals were counted.
    #[serde(default)]
    pub refused_requests: u64,
}

/// One in-flight campaign: the leader publishes the serialized report
/// (or its panic) and wakes every coalesced follower. The campaign
/// counts into `counters` while it runs, so `GET /campaign/<fp>` can
/// answer with live shard/case counts instead of a bare `running`.
struct InFlight {
    done: Mutex<Option<Result<Arc<Vec<u8>>, String>>>,
    cv: Condvar,
    counters: Arc<Counters>,
}

impl InFlight {
    fn wait(&self) -> Result<Arc<Vec<u8>>, String> {
        let mut done = self.done.lock().expect("inflight poisoned");
        loop {
            if let Some(result) = done.as_ref() {
                return result.clone();
            }
            done = self.cv.wait(done).expect("inflight poisoned");
        }
    }

    fn publish(&self, result: Result<Arc<Vec<u8>>, String>) {
        *self.done.lock().expect("inflight poisoned") = Some(result);
        self.cv.notify_all();
    }
}

/// Shared server state: cache, fingerprint memo, in-flight table,
/// counters.
struct State {
    cache: ResultCache,
    /// Keyed by what the fingerprint reads, so it grows only with
    /// distinct campaigns, not with specs that differ in fleet sizing.
    fingerprints: Mutex<HashMap<(OsVariant, Mode, CampaignConfig), CampaignFingerprint>>,
    inflight: Mutex<HashMap<u64, Arc<InFlight>>>,
    started: Instant,
    campaign_posts: AtomicU64,
    campaign_gets: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    requests_coalesced: AtomicU64,
    campaigns_executed: AtomicU64,
    inflight_depth: AtomicUsize,
    last_ucases_per_sec: AtomicU64,
    rejected_specs: AtomicU64,
    refused_requests: AtomicU64,
}

impl State {
    fn metrics(&self) -> ServerMetrics {
        ServerMetrics {
            uptime_ms: u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            campaign_posts: self.campaign_posts.load(Ordering::Relaxed),
            campaign_gets: self.campaign_gets.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            requests_coalesced: self.requests_coalesced.load(Ordering::Relaxed),
            campaigns_executed: self.campaigns_executed.load(Ordering::Relaxed),
            inflight: self.inflight_depth.load(Ordering::Relaxed) as u64,
            last_campaign_ucases_per_sec: self.last_ucases_per_sec.load(Ordering::Relaxed),
            rejected_specs: self.rejected_specs.load(Ordering::Relaxed),
            refused_requests: self.refused_requests.load(Ordering::Relaxed),
        }
    }

    /// Spec → fingerprint, memoized by campaign (a fingerprint hashes
    /// every catalog MuT — as long as the rest of a hit).
    fn fingerprint_of(&self, spec: &CampaignSpec) -> CampaignFingerprint {
        let key = (spec.os, spec.mode(), spec.config());
        if let Some(fp) = self
            .fingerprints
            .lock()
            .expect("fingerprint memo poisoned")
            .get(&key)
        {
            return *fp;
        }
        let fp = key.1.fingerprint(key.0, &key.2);
        self.fingerprints
            .lock()
            .expect("fingerprint memo poisoned")
            .insert(key, fp);
        fp
    }
}

/// The campaign service: a bound listener plus shared state. Serve with
/// [`Server::run`] (blocking) or [`Server::spawn`] (background thread).
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

/// A [`Server`] running on a background thread (see [`Server::spawn`]).
/// Dropping the handle does **not** stop the server; it runs for the
/// life of the process.
pub struct RunningServer {
    /// The bound address clients should connect to.
    pub addr: SocketAddr,
}

impl Server {
    /// Binds the service.
    ///
    /// # Errors
    ///
    /// Propagates listener bind / cache directory creation failures.
    pub fn bind(cfg: &ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let cache = ResultCache::new(&cfg.cache_dir, cfg.cache_capacity)?;
        Ok(Server {
            listener,
            state: Arc::new(State {
                cache,
                fingerprints: Mutex::new(HashMap::new()),
                inflight: Mutex::new(HashMap::new()),
                started: Instant::now(),
                campaign_posts: AtomicU64::new(0),
                campaign_gets: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
                requests_coalesced: AtomicU64::new(0),
                campaigns_executed: AtomicU64::new(0),
                inflight_depth: AtomicUsize::new(0),
                last_ucases_per_sec: AtomicU64::new(0),
                rejected_specs: AtomicU64::new(0),
                refused_requests: AtomicU64::new(0),
            }),
        })
    }

    /// The address the listener actually bound (resolves `:0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever on the calling thread: one handler thread per
    /// connection, HTTP/1.1 keep-alive within each.
    ///
    /// # Errors
    ///
    /// Returns only on a fatal `accept` failure.
    pub fn run(self) -> io::Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            // Responses are written whole; never trade latency for
            // coalescing on this socket.
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || handle_connection(stream, &state));
        }
    }

    /// [`Server::run`] on a detached background thread; returns once
    /// the address is known.
    #[must_use]
    pub fn spawn(self) -> RunningServer {
        let addr = self.local_addr().expect("bound listener has an address");
        std::thread::spawn(move || {
            let _ = self.run();
        });
        RunningServer { addr }
    }
}

/// One parsed HTTP request.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
    keep_alive: bool,
}

/// What one read off a connection produced.
enum Incoming {
    /// A complete request.
    Request(Request),
    /// A request whose `Content-Length` does not parse. Where its body
    /// ends is unknown, so nothing after it on the connection is a
    /// request: the connection answers 400 and closes.
    BadLength,
    /// A request whose `Content-Length` exceeds [`MAX_BODY`]. The body is
    /// never read: the connection answers 413 and closes.
    TooLarge(usize),
    /// A head line longer than [`MAX_HEAD_LINE`], or more than
    /// [`MAX_HEADERS`] header lines. The rest of the head is never read:
    /// the connection answers 431 and closes.
    HeadTooLarge,
}

/// Reads one line of a request head, buffering at most
/// [`MAX_HEAD_LINE`] bytes of it. `Ok(None)` is a line that runs past
/// that bound; an empty line is EOF.
fn read_head_line(reader: &mut BufReader<TcpStream>) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_HEAD_LINE)
        .read_until(b'\n', &mut line)?;
    if n as u64 == MAX_HEAD_LINE && line.last() != Some(&b'\n') {
        return Ok(None);
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Whether a socket read or write failed on [`IO_TIMEOUT`].
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one request off the connection. `Ok(None)` = clean EOF
/// (client closed an idle keep-alive connection). Waits as long as the
/// connection stays idle; once the request's first byte has arrived, a
/// read that times out is an error [`timed_out`] recognizes.
fn read_request(reader: &mut BufReader<TcpStream>) -> io::Result<Option<Incoming>> {
    loop {
        match reader.fill_buf() {
            Ok(_) => break,
            Err(e) if timed_out(&e) || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let Some(line) = read_head_line(reader)? else {
        return Ok(Some(Incoming::HeadTooLarge));
    };
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_owned();
    let path = parts.next().unwrap_or_default().to_owned();
    let version = parts.next().unwrap_or_default().to_owned();
    let mut content_length = Some(0usize);
    let mut keep_alive = version != "HTTP/1.0";
    let mut headers = 0;
    loop {
        let Some(header) = read_head_line(reader)? else {
            return Ok(Some(Incoming::HeadTooLarge));
        };
        if header.is_empty() {
            return Ok(None);
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Ok(Some(Incoming::HeadTooLarge));
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    let Some(content_length) = content_length else {
        return Ok(Some(Incoming::BadLength));
    };
    if content_length > MAX_BODY {
        return Ok(Some(Incoming::TooLarge(content_length)));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Incoming::Request(Request {
        method,
        path,
        body,
        keep_alive,
    })))
}

/// Writes one `application/json` response.
fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    if !keep_alive {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    // One write for head + body: a split write interacts with Nagle +
    // delayed ACK into ~40ms per response on loopback. A vectored write
    // sends both from where they lie, so a cached body is never copied.
    write_all_vectored(stream, [head.as_bytes(), body])?;
    stream.flush()
}

/// Writes `head` then `body` with one `write_vectored` call, and after a
/// partial write, further calls for what is left.
fn write_all_vectored(w: &mut impl Write, [head, body]: [&[u8]; 2]) -> io::Result<()> {
    let mut slices = [IoSlice::new(head), IoSlice::new(body)];
    let mut left = &mut slices[..];
    IoSlice::advance_slices(&mut left, 0);
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Serves one connection until EOF, error, or `Connection: close`. A
/// request the server refuses unread, or one that stalls mid-way,
/// answers its error and closes the connection.
fn handle_connection(stream: TcpStream, state: &State) {
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_stream);
    let mut stream = stream;
    let (status, reason, message) = loop {
        match read_request(&mut reader) {
            Ok(Some(Incoming::Request(request))) => {
                let ok = handle_request(&mut stream, state, &request).is_ok();
                if !ok || !request.keep_alive {
                    return;
                }
            }
            Ok(Some(Incoming::BadLength)) => {
                break (400, "Bad Request", "malformed Content-Length".to_owned())
            }
            Ok(Some(Incoming::TooLarge(length))) => {
                break (
                    413,
                    "Payload Too Large",
                    format!("request body of {length} bytes exceeds the {MAX_BODY}-byte limit"),
                )
            }
            Ok(Some(Incoming::HeadTooLarge)) => {
                break (
                    431,
                    "Request Header Fields Too Large",
                    format!(
                        "request head exceeds {MAX_HEAD_LINE} bytes per line or {MAX_HEADERS} \
                         header lines"
                    ),
                )
            }
            Err(e) if timed_out(&e) => {
                break (
                    408,
                    "Request Timeout",
                    format!(
                        "request not received whole: no data for {} s",
                        IO_TIMEOUT.as_secs()
                    ),
                )
            }
            Ok(None) | Err(_) => return,
        }
    };
    state.refused_requests.fetch_add(1, Ordering::Relaxed);
    let body = error_body(&message);
    let _ = respond(&mut stream, status, reason, &[], &body, false);
    linger_close(&stream, reader);
}

/// How long [`linger_close`] keeps reading from a client it has answered.
const LINGER: Duration = Duration::from_millis(200);

/// Closes a connection the server is done with while the client may still
/// be sending: the write half closes first, so the client reads the
/// response and then EOF, and what the client sends is read and dropped
/// until it closes too or [`LINGER`] passes. Closing a socket with unread
/// input resets the connection, and a reset can discard the response
/// before the client reads it.
fn linger_close(stream: &TcpStream, mut reader: BufReader<TcpStream>) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut sink = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        if matches!(reader.read(&mut sink), Ok(0) | Err(_)) {
            return;
        }
    }
}

/// Routes one request.
fn handle_request(stream: &mut TcpStream, state: &State, request: &Request) -> io::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/campaign") => post_campaign(stream, state, request),
        ("GET", "/metrics") => {
            let body = serde_json::to_vec(&state.metrics())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            respond(stream, 200, "OK", &[], &body, request.keep_alive)
        }
        ("GET", path) if path.starts_with("/campaign/") => get_campaign(stream, state, request),
        _ => respond(
            stream,
            404,
            "Not Found",
            &[],
            br#"{"error":"unknown route"}"#,
            request.keep_alive,
        ),
    }
}

/// `GET /campaign/<fingerprint>`.
fn get_campaign(stream: &mut TcpStream, state: &State, request: &Request) -> io::Result<()> {
    state.campaign_gets.fetch_add(1, Ordering::Relaxed);
    let hex = request.path.trim_start_matches("/campaign/");
    let Ok(fp) = hex.parse::<CampaignFingerprint>() else {
        return respond(
            stream,
            400,
            "Bad Request",
            &[],
            br#"{"error":"malformed fingerprint"}"#,
            request.keep_alive,
        );
    };
    if let Some(bytes) = state.cache.lookup(fp) {
        state.cache_hits.fetch_add(1, Ordering::Relaxed);
        return respond(
            stream,
            200,
            "OK",
            &[("X-Cache", "hit")],
            &bytes,
            request.keep_alive,
        );
    }
    let running = state
        .inflight
        .lock()
        .expect("inflight table poisoned")
        .get(&fp.as_u64())
        .map(|flight| Arc::clone(&flight.counters));
    if let Some(counters) = running {
        // Live progress for the in-flight campaign, counted by the
        // fleet's slots as shards complete.
        let p = FleetProgressSnapshot::of(&counters);
        let body = format!(
            r#"{{"status":"running","shards_done":{},"shards_total":{},"cases_done":{},"worker_deaths":{},"shard_retries":{},"workers_live":{},"degraded":{}}}"#,
            p.shards_done,
            p.shards_total,
            p.cases_done,
            p.worker_deaths,
            p.shard_retries,
            p.workers_live,
            p.degraded,
        );
        respond(
            stream,
            202,
            "Accepted",
            &[],
            body.as_bytes(),
            request.keep_alive,
        )
    } else {
        respond(
            stream,
            404,
            "Not Found",
            &[],
            br#"{"status":"unknown"}"#,
            request.keep_alive,
        )
    }
}

/// An error response body, `{"error": <message>}`, serialized so the
/// message's quotes and control characters are escaped.
fn error_body(message: &str) -> Vec<u8> {
    #[derive(Serialize)]
    struct ErrorBody {
        error: String,
    }
    let body = ErrorBody {
        error: message.to_owned(),
    };
    serde_json::to_vec(&body).expect("an error body serializes")
}

/// Parses a `POST /campaign` body and bounds its cap
/// ([`campaign::exhaustive_cap`]) and its adaptive knobs
/// ([`AdaptiveConfig::check_bounds`]) before anything fingerprints or
/// runs the spec.
fn parse_spec(body: &[u8]) -> Result<CampaignSpec, String> {
    let spec: CampaignSpec = serde_json::from_slice(body).map_err(|e| e.to_string())?;
    let bound = campaign::exhaustive_cap(spec.os);
    if spec.cap > bound {
        return Err(format!(
            "cap {} above the largest full product {bound} of {}",
            spec.cap,
            spec.os.short_name()
        ));
    }
    if let Some(acfg) = spec.adaptive() {
        acfg.check_bounds()?;
    }
    Ok(spec)
}

/// `POST /campaign` — the fingerprint/cache/coalesce/execute path.
fn post_campaign(stream: &mut TcpStream, state: &State, request: &Request) -> io::Result<()> {
    state.campaign_posts.fetch_add(1, Ordering::Relaxed);
    let spec = match parse_spec(&request.body) {
        Ok(spec) => spec,
        Err(e) => {
            state.rejected_specs.fetch_add(1, Ordering::Relaxed);
            let body = error_body(&format!("bad campaign spec: {e}"));
            return respond(stream, 400, "Bad Request", &[], &body, request.keep_alive);
        }
    };
    let fp = state.fingerprint_of(&spec);
    if let Some(bytes) = state.cache.lookup(fp) {
        state.cache_hits.fetch_add(1, Ordering::Relaxed);
        return respond(
            stream,
            200,
            "OK",
            &[("X-Cache", "hit")],
            &bytes,
            request.keep_alive,
        );
    }
    // Miss: become the leader, or coalesce onto the one in flight. The
    // decision happens under the in-flight lock with a double-checked
    // cache probe: a requester that missed the cache *before* the
    // previous leader stored its result, but reached this lock *after*
    // that leader retired, must serve the (now present) entry rather
    // than electing itself a second leader. The leader stores to the
    // cache before retiring its in-flight entry, so "no entry in
    // flight" + "cache probe misses" really means "nobody ran this".
    let (flight, leader) = {
        let mut inflight = state.inflight.lock().expect("inflight table poisoned");
        match inflight.get(&fp.as_u64()) {
            Some(flight) => (Arc::clone(flight), false),
            None => {
                if let Some(bytes) = state.cache.peek(fp) {
                    drop(inflight);
                    state.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return respond(
                        stream,
                        200,
                        "OK",
                        &[("X-Cache", "hit")],
                        &bytes,
                        request.keep_alive,
                    );
                }
                let flight = Arc::new(InFlight {
                    done: Mutex::new(None),
                    cv: Condvar::new(),
                    counters: Arc::default(),
                });
                inflight.insert(fp.as_u64(), Arc::clone(&flight));
                (flight, true)
            }
        }
    };
    let result = if leader {
        state.cache_misses.fetch_add(1, Ordering::Relaxed);
        state.inflight_depth.fetch_add(1, Ordering::Relaxed);
        // The fingerprint lands in the log before execution so an
        // observer (the CI chaos job, an operator) can poll
        // `GET /campaign/<fp>` while the campaign is in flight.
        eprintln!("campaign {fp} executing");
        let ran = catch_unwind(AssertUnwindSafe(|| {
            run_fleet_engine(
                spec.mode(),
                spec.os,
                &spec.config(),
                &spec.fleet(),
                Some(&flight.counters),
            )
        }));
        let result = match ran {
            Ok(report) => {
                state.campaigns_executed.fetch_add(1, Ordering::Relaxed);
                if let Some(stats) = &report.stats {
                    state
                        .last_ucases_per_sec
                        .store((stats.cases_per_sec * 1e6) as u64, Ordering::Relaxed);
                }
                state
                    .cache
                    .store(fp, &report)
                    .map_err(|e| format!("cache store failed: {e}"))
            }
            Err(_) => Err("campaign panicked".to_owned()),
        };
        flight.publish(result.clone());
        state
            .inflight
            .lock()
            .expect("inflight table poisoned")
            .remove(&fp.as_u64());
        state.inflight_depth.fetch_sub(1, Ordering::Relaxed);
        result
    } else {
        state.requests_coalesced.fetch_add(1, Ordering::Relaxed);
        telemetry::count(Counter::RequestsCoalesced, 1);
        flight.wait()
    };
    match result {
        Ok(bytes) => respond(
            stream,
            200,
            "OK",
            &[
                ("X-Cache", if leader { "miss" } else { "coalesced" }),
                ("X-Fingerprint", &fp.to_string()),
            ],
            &bytes,
            request.keep_alive,
        ),
        Err(e) => {
            let body = error_body(&e);
            respond(
                stream,
                500,
                "Internal Server Error",
                &[],
                &body,
                request.keep_alive,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts at most 7 bytes per call, of the first non-empty slice
    /// only, like a socket whose send buffer is nearly full.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(7);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_vectored_response_survives_partial_writes() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Length: 23\r\n\r\n";
        let body = br#"{"os":"Win95","cap":20}"#;
        for (head, body) in [(&head[..], &body[..]), (b"", body), (head, b"")] {
            let mut out = Trickle(Vec::new());
            write_all_vectored(&mut out, [head, body]).expect("writes");
            assert_eq!(out.0, [head, body].concat());
        }
    }

    /// A writer that takes nothing ends the response with an error
    /// instead of spinning.
    #[test]
    fn a_zero_write_is_an_error() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = write_all_vectored(&mut Full, [b"head", b"body"]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    /// The fingerprint memo grows only with distinct campaigns: specs
    /// that differ in fleet sizing, or in the adaptive knobs of a classic
    /// campaign, share one entry.
    #[test]
    fn the_fingerprint_memo_grows_only_with_distinct_campaigns() {
        let dir = std::env::temp_dir().join(format!("ballista-memo-{}", std::process::id()));
        let server = Server::bind(&ServerConfig {
            cache_dir: dir.clone(),
            ..ServerConfig::default()
        })
        .expect("bind");
        let state = &server.state;
        let entries = || state.fingerprints.lock().expect("memo").len();
        let base = CampaignSpec {
            cap: 20,
            ..CampaignSpec::new(OsVariant::Win95)
        };
        let fp = state.fingerprint_of(&base);
        for i in 0..1_000 {
            let spec = CampaignSpec {
                shards: i,
                workers: i % 7,
                process: i % 2 == 1,
                adaptive_seed: i as u64,
                adaptive_rare_bonus: (i % 5) as u64,
                ..base
            };
            assert_eq!(state.fingerprint_of(&spec), fp);
        }
        assert_eq!(entries(), 1);
        assert_ne!(state.fingerprint_of(&CampaignSpec { cap: 21, ..base }), fp);
        assert_eq!(entries(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }
}
