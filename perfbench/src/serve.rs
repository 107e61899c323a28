//! The campaign server in-process on loopback, driven by keep-alive
//! clients in a closed loop over a seeded request mix; plus the traced
//! measurements of the cache and fleet layers.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ballista::adaptive::{run_adaptive, DEFAULT_ROUNDS};
use ballista::cache::ResultCache;
use ballista::campaign::{run_campaign, CampaignConfig, CampaignFingerprint, CampaignReport};
use ballista::catalog;
use ballista::fleet::{
    execute_shard, read_frame, run_campaign_fleet, write_frame, FleetConfig, ShardResult,
    ShardSpec, FRAME_RESULT, FRAME_SPEC,
};
use ballista::server::{CampaignSpec, Server, ServerConfig, ServerMetrics};
use sim_kernel::variant::OsVariant;

use crate::calib::{self, Readings};
use crate::trace::Tracer;
use crate::{derive_seed, splitmix, stats, Ctx, Phase, CLIENTS, FLEET_WORKERS, THREADS};

/// The longest a client waits for one response.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Lookups timed in the traced run's cache replay.
const REPLAY_LOOKUPS: usize = 30_000;

/// A lookup slower than this came from disk, not the memory front.
const DISK_LOOKUP_NS: u128 = 10_000;

// The request mix (its shares are in `Client::burst`). No trace of real
// users exists, so most values are assumptions; README.md says which, and
// names the metric each one protects.

/// First-seen specs (misses) of a session, split across the clients.
const FIRST_SEEN: usize = 60;

/// A client sends its k-th first-seen spec at request `k * SPEC_GAP` of
/// its own stream; client `c` is offset by `c * SPEC_GAP / CLIENTS`, so
/// the clients' misses do not coincide.
const SPEC_GAP: u64 = 1000;

/// Parallelism-only repeats re-send one of the client's first
/// `PAR_RANKS` first-seen specs at one of `PARS`.
const PAR_RANKS: usize = 3;
const PARS: [usize; 2] = [1, 2];

/// Entries the server keeps in its memory front: fewer than the ≈72
/// distinct campaigns of a session, so about a fifth of hits come from
/// disk once the working set is complete.
const FRONT_CAPACITY: usize = 28;

/// Binds a server on an ephemeral loopback port over an empty cache
/// directory.
pub fn bind(ctx: &Ctx, tag: usize) -> Server {
    let cache_dir = ctx.scratch.join(format!("cache-{tag}"));
    Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir,
        cache_capacity: FRONT_CAPACITY,
    })
    .expect("binding a loopback server")
}

/// A tiny deterministic generator for the seeded mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix(self.0);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A Zipf(1) rank over `n` entries: rank `r` has weight `1/(r+1)`.
    fn zipf(&mut self, n: usize) -> usize {
        let h: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut u = self.unit() * h;
        for r in 0..n {
            u -= 1.0 / (r + 1) as f64;
            if u <= 0.0 {
                return r;
            }
        }
        n - 1
    }
}

/// The run's miss caps, fixed: 150–250 without the golden cap (whose
/// plans the checks already warmed). The session's first-seen specs take
/// `FIRST_SEEN` of them spread over the range, in ascending order, and
/// the traced fleet measurements take others from the end of the list,
/// so each of them plans a cap the process has not. Caps drawn from the
/// seed moved the cold-miss median by about a tenth between seeds.
fn caps() -> Vec<usize> {
    let all: Vec<usize> = (150..=250)
        .filter(|&c| c != crate::classic::GOLDEN_CAP)
        .collect();
    let first: Vec<usize> = (0..FIRST_SEEN)
        .map(|i| all[i * all.len() / FIRST_SEEN])
        .collect();
    let rest = all.iter().filter(|c| !first.contains(c));
    first.iter().chain(rest).copied().collect()
}

/// The first-seen specs of a session, balanced over the seven variants:
/// half on supervised worker processes and half in-process, one in nine
/// adaptive. Variants, caps and order are fixed, so the seed moves the
/// cold misses only through the adaptive explore seeds; the request
/// stream around them is drawn from it.
fn first_seen(seed: u64, caps: &[usize]) -> Vec<CampaignSpec> {
    (0..FIRST_SEEN)
        .map(|k| {
            let mut s = CampaignSpec::new(OsVariant::ALL[k % OsVariant::ALL.len()]);
            s.cap = caps[k];
            s.workers = FLEET_WORKERS;
            s.process = k % 2 == 0;
            if k % 9 == 4 {
                s.adaptive_rounds = DEFAULT_ROUNDS;
                s.adaptive_seed = derive_seed(seed, "serve.adaptive") ^ k as u64;
            }
            s
        })
        .collect()
}

/// One HTTP response.
struct Response {
    status: u16,
    cache: String,
    fingerprint: Option<String>,
    body: Vec<u8>,
}

/// A keep-alive HTTP/1.1 client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        // A wedged server fails the request instead of hanging the run.
        writer.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        let mut frame = format!(
            "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        frame.extend_from_slice(body);
        self.writer.write_all(&frame)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let (mut len, mut cache, mut fingerprint) = (0usize, String::new(), None);
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                match name.to_ascii_lowercase().as_str() {
                    "content-length" => len = value.parse().unwrap_or(0),
                    "x-cache" => cache = value.to_owned(),
                    "x-fingerprint" => fingerprint = Some(value.to_owned()),
                    _ => {}
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(Response {
            status,
            cache,
            fingerprint,
            body,
        })
    }
}

/// A stored campaign a client has seen: its spec, fingerprint and the
/// exact bytes the miss answered with.
#[derive(Clone)]
struct Entry {
    spec: CampaignSpec,
    fp: String,
    body: Arc<Vec<u8>>,
}

/// A cache probe the server made, for the traced replay.
enum Probe {
    Lookup(String),
    Store(String),
}

/// What one client observed.
#[derive(Default)]
struct ClientOut {
    hit_us: Vec<f64>,
    bursts: Vec<BurstOut>,
    miss_ms: Vec<f64>,
    /// The misses with the interval each was timed over.
    misses: Readings,
    poll_us: Vec<f64>,
    scrape_us: Vec<f64>,
    hit_bytes: Vec<f64>,
    requests: u64,
    attempted: u64,
    mismatches: Vec<String>,
    failures: Vec<String>,
    stored: Vec<Entry>,
    probes: Vec<(u64, Probe)>,
}

impl ClientOut {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

/// One burst of one client.
#[derive(Clone, Copy)]
struct BurstOut {
    /// `hit_us.len()` at the end of the burst.
    hits_end: usize,
    requests: u64,
    /// Time the client spent sending and waiting inside the burst.
    busy: Duration,
}

/// The next request of a client's closed loop.
enum Req {
    New(usize),
    Repeat(usize),
    Neutral(usize, usize),
    Parallelism(usize, usize),
    Poll(usize),
    Scrape,
}

/// One burst of a client's closed loop.
struct Burst {
    /// The serve pass, the group id of the burst's spans.
    pass: u64,
    traced: bool,
}

/// Requests each client sends per serve pass.
const BURST_REQUESTS: u64 = 3000;

/// One client: a keep-alive connection and its seeded request stream,
/// driven in bursts. The next request goes out when the previous one has
/// been answered. Which request comes at each position of the stream
/// depends only on the seed and the client's own replies, never on time,
/// so the same seed sends the same requests; a run sends as much of the
/// stream as its window allows.
struct Client {
    id: usize,
    addr: SocketAddr,
    conn: Option<Conn>,
    specs: Vec<CampaignSpec>,
    rng: Rng,
    entries: Vec<Entry>,
    bases: Vec<usize>,
    par_entries: BTreeMap<(usize, usize), usize>,
    next_first: usize,
    sent: u64,
    t0: Instant,
    tracer: Tracer,
    out: ClientOut,
}

impl Client {
    fn new(
        id: usize,
        addr: SocketAddr,
        seed: u64,
        specs: Vec<CampaignSpec>,
        t0: Instant,
    ) -> Client {
        let mut out = ClientOut::default();
        let conn = match Conn::open(addr) {
            Ok(c) => Some(c),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("client {id} could not connect: {e}"));
                None
            }
        };
        Client {
            id,
            addr,
            conn,
            specs,
            rng: Rng(derive_seed(seed, "serve.client") ^ id as u64),
            entries: Vec::new(),
            bases: Vec::new(),
            par_entries: BTreeMap::new(),
            next_first: 0,
            sent: 0,
            t0,
            tracer: Tracer::new(t0, id as u32 + 1),
            out,
        }
    }

    fn burst(&mut self, b: &Burst) {
        let start = Instant::now();
        let requests = self.out.requests;
        let root = b.traced.then(|| self.tracer.begin("serve.burst", b.pass));
        let mut n = 0u64;
        while self.conn.is_some() && n < BURST_REQUESTS {
            let due =
                self.next_first as u64 * SPEC_GAP + self.id as u64 * SPEC_GAP / CLIENTS as u64;
            let req = if self.next_first < self.specs.len() && self.sent >= due {
                self.next_first += 1;
                Req::New(self.next_first - 1)
            } else if self.entries.is_empty() {
                // Before the client's first miss is due, or when every
                // first-seen spec failed, nothing is stored to repeat.
                Req::Scrape
            } else {
                let u = self.rng.unit();
                let pick = self.rng.zipf(self.entries.len());
                if u < 0.78 {
                    Req::Repeat(pick)
                } else if u < 0.86 {
                    Req::Neutral(pick, self.rng.below(6))
                } else if u < 0.87 {
                    Req::Parallelism(
                        self.rng.below(PAR_RANKS.min(self.bases.len())),
                        PARS[self.rng.below(PARS.len())],
                    )
                } else if u < 0.97 {
                    Req::Poll(pick)
                } else {
                    Req::Scrape
                }
            };
            n += 1;
            self.send(req, b.traced);
        }
        if let Some(root) = root {
            self.tracer.end(root);
        }
        self.out.bursts.push(BurstOut {
            hits_end: self.out.hit_us.len(),
            requests: self.out.requests - requests,
            busy: start.elapsed(),
        });
    }

    fn send(&mut self, req: Req, traced: bool) {
        self.sent += 1;
        let (method, path, spec, expect) = match &req {
            Req::New(k) => ("POST", "/campaign".to_owned(), Some(self.specs[*k]), None),
            Req::Repeat(e) => (
                "POST",
                "/campaign".to_owned(),
                Some(self.entries[*e].spec),
                Some(*e),
            ),
            Req::Neutral(e, v) => {
                let mut s = self.entries[*e].spec;
                s.process = !s.process;
                s.workers = [1, 2][v % 2];
                s.shards = [0, 4, 8][v % 3];
                ("POST", "/campaign".to_owned(), Some(s), Some(*e))
            }
            Req::Parallelism(r, par) => {
                let mut s = self.entries[self.bases[*r]].spec;
                s.parallelism = *par;
                (
                    "POST",
                    "/campaign".to_owned(),
                    Some(s),
                    self.par_entries.get(&(*r, *par)).copied(),
                )
            }
            Req::Poll(e) => (
                "GET",
                format!("/campaign/{}", self.entries[*e].fp),
                None,
                Some(*e),
            ),
            Req::Scrape => ("GET", "/metrics".to_owned(), None, None),
        };
        let body = spec
            .map(|s| serde_json::to_vec(&s).expect("a campaign spec serializes"))
            .unwrap_or_default();
        let conn = self
            .conn
            .as_mut()
            .expect("bursts stop without a connection");
        let t0 = Instant::now();
        let resp = conn.request(method, &path, &body);
        let t1 = Instant::now();
        let (id, out) = (self.id, &mut self.out);
        out.requests += 1;
        out.attempted += 1;
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
        };
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("client {id}: {method} {path}: {e}"));
                self.conn = Conn::open(self.addr).ok();
                return;
            }
        };
        if resp.status != 200 {
            out.fail(format!(
                "client {id}: {method} {path} answered {}",
                resp.status
            ));
            return;
        }
        let kind = match (&req, resp.cache.as_str()) {
            (Req::Scrape, _) => {
                out.scrape_us.push((t1 - t0).as_secs_f64() * 1e6);
                let ok = serde_json::from_slice::<ServerMetrics>(&resp.body).is_ok();
                out.check(ok, || {
                    "GET /metrics body is not a metrics snapshot".to_owned()
                });
                "GET metrics"
            }
            (Req::Poll(e), _) => {
                let entry = &self.entries[*e];
                out.poll_us.push((t1 - t0).as_secs_f64() * 1e6);
                out.probes.push((at(t0), Probe::Lookup(entry.fp.clone())));
                let same = resp.cache == "hit" && resp.body == *entry.body;
                out.check(same, || {
                    format!(
                        "GET /campaign/{} differs from the stored response",
                        entry.fp
                    )
                });
                "GET campaign"
            }
            (_, "miss") => {
                out.miss_ms.push((t1 - t0).as_secs_f64() * 1e3);
                out.misses.push((t1 - t0).as_secs_f64() * 1e3, t0, t1);
                let fp = resp.fingerprint.clone().unwrap_or_default();
                let fresh = match &req {
                    Req::New(_) => true,
                    Req::Parallelism(..) => expect.is_none(),
                    _ => false,
                };
                out.check(fresh && !fp.is_empty(), || {
                    format!("client {id}: a stored spec answered miss ({fp})")
                });
                let entry = Entry {
                    spec: spec.expect("a miss answers a POST"),
                    fp: fp.clone(),
                    body: Arc::new(resp.body),
                };
                out.stored.push(entry.clone());
                out.probes.push((at(t1), Probe::Store(fp)));
                self.entries.push(entry);
                match req {
                    Req::New(_) => self.bases.push(self.entries.len() - 1),
                    Req::Parallelism(r, par) => {
                        self.par_entries.insert((r, par), self.entries.len() - 1);
                    }
                    _ => {}
                }
                "POST miss"
            }
            (_, "hit") => {
                out.hit_us.push((t1 - t0).as_secs_f64() * 1e6);
                out.hit_bytes.push(resp.body.len() as f64);
                // A parallelism repeat may hit once parallelism stops
                // changing the fingerprint; it must then serve the base.
                let stored = match &req {
                    Req::Parallelism(r, par) => self
                        .par_entries
                        .get(&(*r, *par))
                        .copied()
                        .unwrap_or(self.bases[*r]),
                    _ => expect.unwrap_or(usize::MAX),
                };
                match self.entries.get(stored) {
                    Some(e) => {
                        out.probes.push((at(t0), Probe::Lookup(e.fp.clone())));
                        let same = resp.body == *e.body;
                        out.check(same, || {
                            format!(
                                "hit for {} is not byte-identical to its stored response",
                                e.fp
                            )
                        });
                    }
                    None => out.check(false, || {
                        format!("client {id}: a first-seen spec answered hit")
                    }),
                }
                "POST hit"
            }
            (_, other) => {
                out.check(false, || {
                    format!("client {id}: unexpected X-Cache {other:?}")
                });
                "POST other"
            }
        };
        if traced {
            self.tracer.record(kind, self.sent, t0, t1);
        }
    }
}

/// What a whole session observed.
#[derive(Default)]
pub struct SessionOut {
    hit_us: Vec<f64>,
    miss_ms: Vec<f64>,
    misses: Readings,
    poll_us: Vec<f64>,
    scrape_us: Vec<f64>,
    hit_bytes: Vec<f64>,
    stored: Vec<Entry>,
    probes: Vec<(u64, Probe)>,
    metrics: Option<ServerMetrics>,
}

/// A client thread and the channels that drive it.
struct ClientThread {
    go: std::sync::mpsc::Sender<Burst>,
    done: std::sync::mpsc::Receiver<()>,
    handle: std::thread::JoinHandle<Client>,
}

/// The serving phase: one server over an empty cache directory for the
/// whole run, `CLIENTS` closed-loop clients that run in bursts of
/// `BURST_REQUESTS` requests, one burst each per pass, so the scheduler
/// spreads the session over the whole measured window.
pub struct Serve {
    addr: SocketAddr,
    clients: Vec<ClientThread>,
    /// The interval of each pass.
    passes: Vec<(Instant, Instant)>,
}

impl Serve {
    pub fn new(ctx: &Ctx, server: Server) -> Serve {
        let addr = server
            .local_addr()
            .expect("a bound listener has an address");
        // The accept loop serves until the process exits.
        let _running = server.spawn();
        let specs = first_seen(ctx.seed, &caps());
        let clients = (0..CLIENTS)
            .map(|id| {
                let mine: Vec<CampaignSpec> =
                    specs.iter().skip(id).step_by(CLIENTS).copied().collect();
                let (go, go_rx) = std::sync::mpsc::channel::<Burst>();
                let (done_tx, done) = std::sync::mpsc::channel();
                let mut client = Client::new(id, addr, ctx.seed, mine, ctx.t0);
                let handle = std::thread::spawn(move || {
                    // One client per vCPU: left free, the two client and
                    // handler thread pairs settle either on one vCPU each
                    // (hits near 13 µs on the reference host) or waking
                    // each other across vCPUs (near 25 µs), and switch
                    // between the two for seconds at a time. The server's
                    // threads stay free.
                    crate::host::pin_current_thread(id);
                    while let Ok(b) = go_rx.recv() {
                        client.burst(&b);
                        if done_tx.send(()).is_err() {
                            break;
                        }
                    }
                    client
                });
                ClientThread { go, done, handle }
            })
            .collect();
        Serve {
            addr,
            clients,
            passes: Vec::new(),
        }
    }
}

impl Phase for Serve {
    fn name(&self) -> &'static str {
        "serve"
    }

    /// One burst on every client.
    fn pass(&mut self, ctx: &mut Ctx, n: u64) -> Duration {
        let t = Instant::now();
        let traced = ctx.tracer.is_some();
        for c in &self.clients {
            let _ = c.go.send(Burst { pass: n, traced });
        }
        for c in &self.clients {
            let _ = c.done.recv();
        }
        self.passes.push((t, Instant::now()));
        t.elapsed()
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx) {
        let mut s = SessionOut {
            metrics: Conn::open(self.addr)
                .and_then(|mut c| c.request("GET", "/metrics", b""))
                .ok()
                .and_then(|r| serde_json::from_slice::<ServerMetrics>(&r.body).ok()),
            ..SessionOut::default()
        };
        // Each closed-loop client's rate over its own busy time, summed
        // per pass: a client idling at the pass barrier is not serving load.
        let mut pass_rates: Vec<f64> = vec![0.0; self.passes.len()];
        let mut requests = 0;
        // Every client's hits of each pass.
        let mut pass_hits: Vec<Vec<f64>> = vec![Vec::new(); self.passes.len()];
        for c in self.clients {
            drop(c.go);
            let client = c.handle.join().expect("a serve client panicked");
            let mut o = client.out;
            ctx.attempted += o.attempted;
            ctx.failed += (o.mismatches.len() + o.failures.len()) as u64;
            ctx.mismatches.append(&mut o.mismatches);
            ctx.failures.append(&mut o.failures);
            let mut begin = 0;
            for (i, b) in o.bursts.iter().enumerate().take(self.passes.len()) {
                pass_hits[i].extend_from_slice(&o.hit_us[begin..b.hits_end]);
                pass_rates[i] += b.requests as f64 / b.busy.as_secs_f64().max(1e-9);
                begin = b.hits_end;
            }
            s.hit_us.append(&mut o.hit_us);
            s.miss_ms.append(&mut o.miss_ms);
            s.misses.append(&mut o.misses);
            s.poll_us.append(&mut o.poll_us);
            s.scrape_us.append(&mut o.scrape_us);
            s.hit_bytes.append(&mut o.hit_bytes);
            s.stored.append(&mut o.stored);
            s.probes.append(&mut o.probes);
            requests += o.requests;
            let spans = client.tracer.into_spans();
            if !spans.is_empty() {
                ctx.thread_spans.push(spans);
            }
        }
        s.probes.sort_by_key(|p| p.0);
        check_direct(ctx, &s.stored);
        // Each pass's percentiles and rate, scaled to the reference host,
        // then their median over passes, like every other timing: a few
        // passes slowed by the host or by cold campaigns in flight do not
        // move it.
        let (mut p50, mut p90, mut rates) = (
            Readings::default(),
            Readings::default(),
            Readings::default(),
        );
        for ((hits, &(a, b)), &rate) in pass_hits.iter().zip(&self.passes).zip(&pass_rates) {
            if !hits.is_empty() {
                let h = stats::summarize(hits);
                p50.push(h.p50, a, b);
                p90.push(h.p90, a, b);
            }
            rates.push(rate, a, b);
        }
        let n = s.hit_us.len();
        let scaled = ctx.calib.time(calib::HIT_P50, &p50);
        ctx.scaled("hit_p50_us", scaled, "us", n);
        let scaled = ctx.calib.time(calib::HIT_P90, &p90);
        ctx.scaled("hit_p90_us", scaled, "us", n);
        let scaled = ctx.calib.time(calib::MISS, &s.misses);
        ctx.scaled("miss_p50_ms", scaled, "ms", s.misses.len());
        let scaled = ctx.calib.rate(calib::REQUESTS, &rates);
        ctx.scaled("serve_requests_per_s", scaled, "req/s", requests as usize);
        if ctx.traced {
            report_traced(ctx, &s);
            ctx.serve_log = Some(s);
        }
    }
}

/// Every distinct stored response must be a clean report whose tallies
/// equal a direct in-process run of its spec.
fn check_direct(ctx: &mut Ctx, stored: &[Entry]) {
    let mut seen = BTreeMap::new();
    for e in stored {
        seen.entry(e.fp.clone()).or_insert(e);
    }
    for (fp, e) in seen {
        let report: Option<CampaignReport> = serde_json::from_slice(&e.body).ok();
        let Some(report) = report else {
            ctx.check(false, || format!("served report {fp} does not parse"));
            continue;
        };
        ctx.op(
            !report.degraded && !report.fleet_degraded && report.warnings.is_empty(),
            || format!("served campaign {fp} degraded: {:?}", report.warnings),
        );
        let cfg = CampaignConfig {
            parallelism: THREADS,
            ..e.spec.config()
        };
        let direct = match e.spec.adaptive() {
            Some(acfg) => run_adaptive(e.spec.os, &cfg, &acfg),
            None => run_campaign(e.spec.os, &cfg),
        };
        ctx.check(direct.muts == report.muts, || {
            format!("served campaign {fp} differs from a direct run")
        });
    }
}

fn report_traced(ctx: &mut Ctx, s: &SessionOut) {
    let hits = stats::summarize(&s.hit_us);
    let misses = stats::summarize(&s.miss_ms);
    ctx.metric("hit_p99_us", hits.p99, "us", hits.n);
    let (hit_pct, hit_tail) = hits.tail.unwrap_or((100.0, hits.p99));
    ctx.metric("hit_tail_us", hit_tail, "us", hits.n);
    ctx.metric("hit_tail_pct", hit_pct, "%", hits.n);
    ctx.metric("hit.samples", hits.n as f64, "count", hits.n);
    // With ten or fewer misses no percentile has ten samples beyond it;
    // the maximum stands in and the level reads 100.
    let max_miss = s.miss_ms.iter().copied().fold(f64::NAN, f64::max);
    let (miss_pct, miss_tail) = misses.tail.unwrap_or((100.0, max_miss));
    ctx.metric("miss_tail_ms", miss_tail, "ms", misses.n);
    ctx.metric("miss_tail_pct", miss_pct, "%", misses.n);
    ctx.metric("miss.samples", misses.n as f64, "count", misses.n);
    ctx.metric(
        "http.metrics_rtt_us",
        stats::median(&s.scrape_us),
        "us",
        s.scrape_us.len(),
    );
    ctx.metric(
        "http.poll_rtt_us",
        stats::median(&s.poll_us),
        "us",
        s.poll_us.len(),
    );
    ctx.metric(
        "hit.bytes",
        stats::median(&s.hit_bytes),
        "bytes",
        s.hit_bytes.len(),
    );
    let m = s.metrics.unwrap_or_default();
    ctx.op(s.metrics.is_some(), || {
        "final GET /metrics failed".to_owned()
    });
    ctx.metric(
        "server.campaigns_executed",
        m.campaigns_executed as f64,
        "count",
        1,
    );
    ctx.metric(
        "server.requests_coalesced",
        m.requests_coalesced as f64,
        "count",
        1,
    );
    ctx.metric("cache.hits", m.cache_hits as f64, "count", 1);
    ctx.metric("cache.misses", m.cache_misses as f64, "count", 1);
    let deaths = s
        .stored
        .iter()
        .map(|e| count_warnings(&e.body, "fleet worker pid"))
        .sum::<usize>();
    // The cold-path measurement adds its own deaths to this count.
    ctx.metric("fleet.worker_deaths", deaths as f64, "count", 1);
}

/// Warnings of a serialized report that contain `needle`.
fn count_warnings(body: &[u8], needle: &str) -> usize {
    serde_json::from_slice::<CampaignReport>(body)
        .map(|r| r.warnings.iter().filter(|w| w.contains(needle)).count())
        .unwrap_or(0)
}

/// The traced measurements of the cache and fleet layers.
pub fn trace_layers(ctx: &mut Ctx) {
    if let Some(s) = ctx.serve_log.take() {
        ctx.span("replica.cache", 0, |ctx| cache_replay(ctx, &s));
    }
    ctx.span("replica.fleet", 0, fleet_layers);
}

/// Replays the traced session's cache probes, in time order, against a
/// private `ResultCache` of the server's capacity: `store` at each miss,
/// `lookup` at each hit and poll.
fn cache_replay(ctx: &mut Ctx, s: &SessionOut) {
    let dir = ctx.scratch.join("cache-replay");
    let cache = match ResultCache::new(&dir, FRONT_CAPACITY) {
        Ok(c) => c,
        Err(e) => return ctx.op(false, || format!("replay cache: {e}")),
    };
    let bodies: BTreeMap<&str, &Arc<Vec<u8>>> =
        s.stored.iter().map(|e| (e.fp.as_str(), &e.body)).collect();
    let (mut mem_ns, mut disk_us, mut store_ms) = (Vec::new(), Vec::new(), Vec::new());
    // Every store, and every `stride`-th lookup so about REPLAY_LOOKUPS
    // spread over the whole session are timed.
    let total = s
        .probes
        .iter()
        .filter(|p| matches!(p.1, Probe::Lookup(_)))
        .count();
    let stride = total.div_ceil(REPLAY_LOOKUPS).max(1);
    let mut lookups = 0usize;
    for (_, probe) in &s.probes {
        match probe {
            Probe::Store(fp) => {
                let (Ok(key), Some(body)) =
                    (fp.parse::<CampaignFingerprint>(), bodies.get(fp.as_str()))
                else {
                    continue;
                };
                let Ok(report) = serde_json::from_slice::<CampaignReport>(body) else {
                    continue;
                };
                let t = Instant::now();
                let stored = cache.store(key, &report);
                store_ms.push(t.elapsed().as_secs_f64() * 1e3);
                ctx.check(
                    stored.as_deref().is_ok_and(|b| b == body.as_slice()),
                    || format!("re-storing {fp} did not reproduce the served bytes"),
                );
            }
            Probe::Lookup(fp) => {
                lookups += 1;
                let Ok(key) = fp.parse::<CampaignFingerprint>() else {
                    continue;
                };
                if !lookups.is_multiple_of(stride) {
                    continue;
                }
                let t = Instant::now();
                let found = cache.lookup(key);
                let d = t.elapsed();
                ctx.check(found.is_some(), || {
                    format!("replayed lookup of {fp} missed")
                });
                if d.as_nanos() < DISK_LOOKUP_NS {
                    mem_ns.push(d.as_nanos() as f64);
                } else {
                    disk_us.push(d.as_secs_f64() * 1e6);
                }
            }
        }
    }
    // Disk lookups of every stored entry through a front-less cache over
    // the same directory, so the disk latency is measured even when the
    // session's working set fit the memory front.
    let mut disk_probe_us = Vec::new();
    if let Ok(cold) = ResultCache::new(&dir, 0) {
        for fp in bodies.keys() {
            let Ok(key) = fp.parse::<CampaignFingerprint>() else {
                continue;
            };
            for _ in 0..5 {
                let t = Instant::now();
                let found = cold.lookup(key);
                disk_probe_us.push(t.elapsed().as_secs_f64() * 1e6);
                ctx.check(found.is_some(), || format!("disk lookup of {fp} missed"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    ctx.metric(
        "cache.mem_lookup_ns",
        stats::median(&mem_ns),
        "ns",
        mem_ns.len(),
    );
    ctx.metric(
        "cache.disk_lookup_us",
        stats::median(&disk_probe_us),
        "us",
        disk_probe_us.len(),
    );
    ctx.metric(
        "cache.store_ms",
        stats::median(&store_ms),
        "ms",
        store_ms.len(),
    );
    let timed = mem_ns.len() + disk_us.len();
    let share = disk_us.len() as f64 / timed.max(1) as f64;
    ctx.metric("cache.disk_hit_share", share, "ratio", timed);
}

/// Shard execution and wire totals of the fleet measurements.
#[derive(Default)]
struct Shards {
    exec_ms: Vec<f64>,
    bytes: usize,
    cases: usize,
    enc_ns: u128,
    dec_ns: u128,
}

/// Runs every shard of one campaign in this process with the fleet's own
/// split, then round-trips each result through the wire; returns the
/// campaign's summed execute and wire time in ms.
fn run_shards(
    ctx: &mut Ctx,
    os: OsVariant,
    cfg: CampaignConfig,
    fleet: &FleetConfig,
    acc: &mut Shards,
) -> f64 {
    let n = catalog::catalog_for(os).len();
    let shards = fleet.effective_shards(n);
    let mut total_ms = 0.0;
    for s in 0..shards {
        let spec = ShardSpec {
            os,
            cfg,
            mut_start: s * n / shards,
            mut_end: (s + 1) * n / shards,
            capture_fuel: false,
            crashcon: false,
            adaptive: None,
        };
        let t = Instant::now();
        let result = ctx.span("execute_shard", s as u64, |_| execute_shard(&spec));
        let t1 = Instant::now();
        let wire = result.to_wire();
        let t2 = Instant::now();
        let back = ShardResult::from_wire(&wire);
        let t3 = Instant::now();
        ctx.check(back.as_ref() == Ok(&result), || {
            format!("{os}: shard {s} did not survive the wire")
        });
        acc.exec_ms.push((t1 - t).as_secs_f64() * 1e3);
        total_ms += (t3 - t).as_secs_f64() * 1e3;
        acc.bytes += wire.len();
        acc.cases += result
            .muts
            .iter()
            .flatten()
            .map(|m| m.records.len())
            .sum::<usize>();
        acc.enc_ns += (t2 - t1).as_nanos();
        acc.dec_ns += (t3 - t2).as_nanos();
    }
    total_ms
}

/// Worker spawn to first answered frame, the whole cold fleet path on
/// processes and in-process, and shard execution and the wire at the
/// process runs' caps.
fn fleet_layers(ctx: &mut Ctx) {
    let caps = caps();
    let spawn_ms = spawn_samples(ctx);
    let spawn = stats::median(&spawn_ms);
    let mut acc = Shards::default();
    // The cold path at fresh serve-range caps, on worker processes and
    // in-process.
    let (mut cold_p, mut cold_i, mut unattributed) = (Vec::new(), Vec::new(), Vec::new());
    let (mut deaths, mut retries, mut degraded) = (0usize, 0usize, 0usize);
    for (k, os) in OsVariant::ALL.into_iter().enumerate() {
        for process in [true, false] {
            let cap = caps[caps.len() - 1 - 2 * k - usize::from(process)];
            let cfg = CampaignConfig {
                cap,
                ..CampaignSpec::new(os).config()
            };
            let fleet = FleetConfig {
                workers: FLEET_WORKERS,
                process,
                ..FleetConfig::default()
            };
            let t = Instant::now();
            let report = ctx.span(
                if process {
                    "run_campaign_fleet.process"
                } else {
                    "run_campaign_fleet.inproc"
                },
                k as u64,
                |_| run_campaign_fleet(os, &cfg, &fleet),
            );
            let ms = t.elapsed().as_secs_f64() * 1e3;
            deaths += report
                .warnings
                .iter()
                .filter(|w| w.contains("fleet worker pid"))
                .count();
            retries += report
                .warnings
                .iter()
                .filter(|w| w.contains("requeued"))
                .count();
            degraded += usize::from(report.fleet_degraded);
            ctx.op(
                !report.degraded && !report.fleet_degraded && report.warnings.is_empty(),
                || format!("{os}: cold fleet campaign degraded: {:?}", report.warnings),
            );
            if process {
                cold_p.push(ms);
                // The same shards at the same cap, after the cold run, so
                // only planning, merge, replay and supervision remain.
                let shard_ms = run_shards(ctx, os, cfg, &fleet, &mut acc);
                unattributed.push(ms - spawn - shard_ms / FLEET_WORKERS as f64);
            } else {
                cold_i.push(ms);
            }
        }
    }
    let served = ctx
        .metrics
        .get("fleet.worker_deaths")
        .map_or(0.0, |m| m.value);
    ctx.metric("fleet.spawn_ms", spawn, "ms", spawn_ms.len());
    ctx.metric(
        "fleet.shard_exec_ms",
        stats::median(&acc.exec_ms),
        "ms",
        acc.exec_ms.len(),
    );
    let per_case = |x: f64| x / acc.cases.max(1) as f64;
    ctx.metric(
        "wire.result_bytes_per_case",
        per_case(acc.bytes as f64),
        "bytes",
        acc.cases,
    );
    ctx.metric(
        "wire.encode_ns_per_case",
        per_case(acc.enc_ns as f64),
        "ns",
        acc.cases,
    );
    ctx.metric(
        "wire.decode_ns_per_case",
        per_case(acc.dec_ns as f64),
        "ns",
        acc.cases,
    );
    ctx.metric("fleet.cold_ms", stats::median(&cold_p), "ms", cold_p.len());
    ctx.metric(
        "fleet.cold_ms.inproc",
        stats::median(&cold_i),
        "ms",
        cold_i.len(),
    );
    ctx.metric(
        "fleet.unattributed_ms",
        stats::median(&unattributed),
        "ms",
        unattributed.len(),
    );
    ctx.metric("fleet.worker_deaths", deaths as f64 + served, "count", 1);
    ctx.metric("fleet.shard_retries", retries as f64, "count", 1);
    ctx.metric("fleet.degraded", degraded as f64, "count", 1);
}

/// Spawns `fleet_worker` (built next to this executable) five times and
/// times each until its first answered frame; every worker is reaped.
fn spawn_samples(ctx: &mut Ctx) -> Vec<f64> {
    let worker = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("fleet_worker")))
        .unwrap_or_else(|| PathBuf::from("fleet_worker"));
    let spec = ShardSpec {
        os: OsVariant::Win95,
        cfg: CampaignConfig {
            cap: 1,
            ..CampaignConfig::default()
        },
        mut_start: 0,
        mut_end: 1,
        capture_fuel: false,
        crashcon: false,
        adaptive: None,
    }
    .to_wire();
    let mut out = Vec::new();
    for i in 0..5 {
        let t = Instant::now();
        let run = (|| -> std::io::Result<f64> {
            let mut child = Command::new(&worker)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()?;
            let result = (|| {
                let mut stdin = child.stdin.take().ok_or(std::io::ErrorKind::BrokenPipe)?;
                let mut stdout =
                    BufReader::new(child.stdout.take().ok_or(std::io::ErrorKind::BrokenPipe)?);
                write_frame(&mut stdin, FRAME_SPEC, &spec)?;
                let first = read_frame(&mut stdout)?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let mut tag = first.map(|f| f.0);
                while tag.is_some_and(|t| t != FRAME_RESULT) {
                    tag = read_frame(&mut stdout)?.map(|f| f.0);
                }
                drop(stdin);
                if tag == Some(FRAME_RESULT) {
                    Ok(ms)
                } else {
                    Err(std::io::ErrorKind::UnexpectedEof.into())
                }
            })();
            let _ = child.kill();
            child.wait()?;
            result
        })();
        match run {
            Ok(ms) => out.push(ms),
            Err(e) => ctx.op(false, || format!("fleet_worker spawn {i}: {e}")),
        }
    }
    out
}
