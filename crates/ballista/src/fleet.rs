//! Sharded campaign execution — the fleet path.
//!
//! Splits one campaign into per-MuT-range **shards**, fans the shards
//! across a worker pool, and merges the shard outputs into a report
//! that is **bit-identical** to [`run_campaign`](crate::campaign::run_campaign)
//! (the engine-equivalence matrix proves it on every variant).
//!
//! # Why the merge is sound
//!
//! A shard executes its MuT range exactly like the parallel engine's
//! clean pass: every case at **residue zero**, one packed record byte
//! per case. Clean-pass records are independent per MuT — no shard can
//! observe another shard's execution — so *any* partition of the
//! catalog produces the same record set, and the coordinator can merge
//! shard outputs by simply placing each MuT's records back at its
//! catalog index. The sequential **replay pass** (shared with the
//! parallel engine, same function) then walks the merged records in
//! catalog order with the one true session, re-executing exactly the
//! cases whose outcome could depend on accumulated residue. The fleet
//! path therefore inherits the parallel engine's bit-identity argument
//! wholesale; the only new claim is the trivial one that partitioning a
//! set of independent jobs does not change the jobs — and, with the
//! supervisor, that *re-executing* an independent job after a worker
//! death cannot change it either (a shard is a pure function of its
//! spec).
//!
//! # Process supervision
//!
//! With [`FleetConfig::process`] set, shards execute on **supervised
//! worker processes** (the `fleet_worker` binary, or whatever
//! `BALLISTA_WORKER_CMD` names) speaking a length-prefixed frame
//! protocol over stdin/stdout: the supervisor sends [`ShardSpec`] wire
//! bytes, the worker streams per-MuT heartbeat frames while it works
//! and finishes with [`ShardResult`] wire bytes. Each thread of the
//! fleet's pool is a **slot** that keeps one worker alive across the
//! shards it claims and tracks it with a **deterministic heartbeat
//! deadline** derived from the campaign's fuel budget (host wall-clock
//! is consulted only at this supervision boundary, never inside the
//! engine). On worker death, hang, or malformed reply the slot retries
//! the shard on a new worker of its own; after two consecutive
//! failures it is quarantined and executes this shard and every later
//! one in-process. When no worker binary can be found at all, the whole
//! campaign runs in-process. Either way the campaign completes with a
//! `fleet_degraded` marker and PARTIAL-DATA-style warnings instead of
//! aborting. None of this can change a tally bit: supervision is pure
//! control plane, and the merge consumes the same records no matter
//! which worker produced them on which attempt.
//!
//! # Fault injection
//!
//! Workers honor env-latched faults so chaos tests and CI can kill
//! them deterministically: `BALLISTA_FLEET_FAULT=die:N` exits the
//! process when its Nth shard arrives, `garble:N` replies to the Nth
//! shard with an unparseable result frame, `hang:N` goes silent
//! forever on the Nth shard. `BALLISTA_FLEET_SHARD_DELAY_MS` stretches
//! every shard (widening the window for real SIGKILLs), and
//! `BALLISTA_FLEET_DEADLINE_MS` overrides the heartbeat deadline so
//! hang detection is testable in milliseconds.

use std::io::{BufReader, Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sim_kernel::variant::OsVariant;

use crate::adaptive::AdaptiveConfig;
use crate::campaign::{
    claim_each, clean_range, replay_report, CampaignConfig, CampaignReport, Epoch, Mode,
    PreparedMut,
};
use crate::crash::{self, RawOutcome};
use crate::crashcon::{self, CrashconReport};
use crate::telemetry::{self, Counter, Counters, CountingFor, TraceCollector};
use serde::{Deserialize, Serialize};

/// How a campaign is sharded and executed by [`run_campaign_fleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FleetConfig {
    /// Shard count. `0` (the default) resolves to four shards per
    /// worker — small enough ranges that a slow shard cannot straggle
    /// the pool.
    #[serde(default)]
    pub shards: usize,
    /// Worker pool size. `0` (the default) picks the machine's
    /// available parallelism, like [`CampaignConfig::workers`].
    #[serde(default)]
    pub workers: usize,
    /// Execute shards on supervised worker **processes** instead of
    /// in-process threads. Workers are discovered via the
    /// `BALLISTA_WORKER_CMD` env var (whitespace-split command line) or
    /// a `fleet_worker` binary next to the current executable; when no
    /// worker can be spawned the campaign degrades to the thread pool.
    #[serde(default)]
    pub process: bool,
}

impl FleetConfig {
    /// The effective worker count (`0` → available parallelism).
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        }
    }

    /// The effective shard count over a catalog of `muts` MuTs:
    /// `shards` (capped at the MuT count — an empty shard is useless),
    /// with `0` resolving to four per worker.
    #[must_use]
    pub fn effective_shards(&self, muts: usize) -> usize {
        let want = match self.shards {
            0 => self.effective_workers().saturating_mul(4),
            n => n,
        };
        want.clamp(1, muts.max(1))
    }
}

/// One shard's work order: run the clean pass for the catalog MuTs in
/// `[mut_start, mut_end)` of `os`'s catalog under `cfg`.
///
/// Self-contained by design — a worker holding only this (plus the
/// code) produces its [`ShardResult`]; nothing else crosses the shard
/// boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// OS variant whose catalog the range indexes.
    pub os: OsVariant,
    /// Campaign configuration (cap, fuel budget, cleanup mode, …).
    pub cfg: CampaignConfig,
    /// First catalog MuT index of this shard (inclusive).
    pub mut_start: usize,
    /// One past the last catalog MuT index of this shard.
    pub mut_end: usize,
    /// Whether to capture the per-case fuel side channel (needed only
    /// when the coordinator is tracing).
    #[serde(default)]
    pub capture_fuel: bool,
    /// Run the shard in crashcon mode: each case executes with the
    /// filesystem op recorder armed and the wire records carry packed
    /// [`crate::crashcon::CaseVerdict`]s (with the aux counts on the
    /// fuel channel) instead of campaign outcome bytes. Absent in specs
    /// from older coordinators, which deserializes to `false`.
    #[serde(default)]
    pub crashcon: bool,
    /// Run the shard over an **adaptive pinned plan** instead of the
    /// fixed samples: the worker re-derives the pinned plan from these
    /// knobs (deterministic, memoized per process — see
    /// [`crate::adaptive::pinned_plan_shared`]) and executes each MuT's
    /// pinned case list. Absent in specs from older coordinators, which
    /// deserializes to `None` (classic mode).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub adaptive: Option<AdaptiveConfig>,
}

impl ShardSpec {
    /// A whole-catalog spec in `mode`, with an empty range: the template
    /// a coordinator cuts into shards.
    fn template(mode: Mode, os: OsVariant, cfg: CampaignConfig, capture_fuel: bool) -> ShardSpec {
        ShardSpec {
            os,
            cfg,
            mut_start: 0,
            mut_end: 0,
            capture_fuel,
            crashcon: mode == Mode::Crashcon,
            adaptive: match mode {
                Mode::Adaptive(acfg) => Some(acfg),
                Mode::Classic | Mode::Crashcon => None,
            },
        }
    }

    /// The campaign mode the spec's two flags denote (`crashcon` wins).
    pub(crate) fn mode(&self) -> Mode {
        match (self.crashcon, self.adaptive) {
            (true, _) => Mode::Crashcon,
            (false, Some(acfg)) => Mode::Adaptive(acfg),
            (false, None) => Mode::Classic,
        }
    }

    /// Serializes the spec for the wire.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("shard spec serializes")
    }

    /// Parses a spec off the wire.
    ///
    /// # Errors
    ///
    /// Returns the parse error text for malformed bytes. Never panics —
    /// adversarial bytes are an expected input at a process boundary
    /// (asserted by the `wire_hardening` proptest).
    pub fn from_wire(bytes: &[u8]) -> Result<Self, String> {
        serde_json::from_slice(bytes).map_err(|e| e.to_string())
    }
}

/// One MuT's clean-pass output in wire form: the packed record byte per
/// case, the optional fuel side channel, or `None` for a MuT the shard
/// quarantined after repeated contained faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireCleanMut {
    /// Packed record bytes, one per executed case ([`crate::crash::pack_case`]).
    pub records: Vec<u8>,
    /// Per-case fuel, present iff the spec asked for it.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub fuel: Option<Vec<u64>>,
}

/// A completed shard: per-MuT clean-pass outputs for the spec's range,
/// in range order, plus the shard's quarantine bookkeeping. The engines
/// also merge shards (or single MuTs) into one whole-catalog result.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ShardResult {
    /// Echo of the spec's `mut_start`, so results self-describe their
    /// placement even when they arrive out of order.
    pub mut_start: usize,
    /// One entry per MuT in `[mut_start, mut_end)`; `None` marks a
    /// quarantined MuT.
    pub muts: Vec<Option<WireCleanMut>>,
    /// Human-readable quarantine/retry warnings, range order.
    #[serde(skip_serializing_if = "Vec::is_empty", default)]
    pub warnings: Vec<String>,
    /// Contained worker panics that earned a retry inside this shard.
    #[serde(default)]
    pub quarantine_retries: u64,
}

impl ShardResult {
    /// Serializes the result for the wire.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("shard result serializes")
    }

    /// Parses a result off the wire.
    ///
    /// # Errors
    ///
    /// Returns the parse error text for malformed bytes. Never panics —
    /// adversarial bytes are an expected input at a process boundary
    /// (asserted by the `wire_hardening` proptest).
    pub fn from_wire(bytes: &[u8]) -> Result<Self, String> {
        serde_json::from_slice(bytes).map_err(|e| e.to_string())
    }

    /// Total executed cases recorded in this shard (for progress).
    fn case_count(&self) -> u64 {
        self.muts
            .iter()
            .flatten()
            .map(|m| m.records.len() as u64)
            .sum()
    }

    /// Concatenates the results of consecutive ranges, in catalog order,
    /// into one result starting at MuT 0.
    pub(crate) fn concat(parts: impl IntoIterator<Item = ShardResult>) -> ShardResult {
        let mut whole = ShardResult::default();
        for part in parts {
            debug_assert_eq!(part.mut_start, whole.muts.len(), "ranges merge in catalog order");
            whole.muts.extend(part.muts);
            whole.warnings.extend(part.warnings);
            whole.quarantine_retries += part.quarantine_retries;
        }
        whole
    }

    /// Checks a worker's reply against the shard it answers and the
    /// coordinator's plan (`planned` cases per catalog MuT): the range
    /// must match, and each executed MuT must carry aux counts paired
    /// one-to-one with its records (always present in crashcon), only
    /// records its mode decodes (in crashcon, only verdicts the verifier
    /// can produce), and exactly its planned case count — except that a
    /// classic pass stops early at an unprobed system crash.
    fn check(&self, spec: &ShardSpec, planned: &[usize]) -> Result<(), String> {
        if self.mut_start != spec.mut_start || self.muts.len() != spec.mut_end - spec.mut_start {
            return Err("result does not match its spec".to_owned());
        }
        let mode = spec.mode();
        for (m_idx, clean) in (spec.mut_start..).zip(&self.muts) {
            let Some(clean) = clean else { continue };
            let (n, plan) = (clean.records.len(), planned[m_idx]);
            let aux_ok = match &clean.fuel {
                Some(aux) => aux.len() == n,
                None => mode != Mode::Crashcon,
            };
            if !aux_ok {
                return Err(format!("MuT {m_idx} has aux counts that do not pair with its records"));
            }
            let aux = |i: usize| clean.fuel.as_ref().map_or(0, |aux| aux[i]);
            if !clean
                .records
                .iter()
                .enumerate()
                .all(|(i, &b)| mode.decodes(b, aux(i)))
            {
                return Err(format!("MuT {m_idx} has an undecodable record"));
            }
            let early_stop = mode != Mode::Crashcon
                && n < plan
                && clean.records.last().and_then(|&b| crash::unpack_case(b)).is_some_and(
                    |(raw, _, probed)| raw == RawOutcome::SystemCrash && !probed,
                );
            if n != plan && !early_stop {
                return Err(format!("MuT {m_idx} has {n} record(s) for a {plan}-case plan"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Frame protocol (supervisor <-> worker process)
// ---------------------------------------------------------------------

/// Frame tag: a [`ShardSpec`] wire payload (supervisor → worker).
pub const FRAME_SPEC: u8 = b'S';
/// Frame tag: a [`ShardResult`] wire payload (worker → supervisor).
pub const FRAME_RESULT: u8 = b'R';
/// Frame tag: a [`Heartbeat`] payload (worker → supervisor), emitted
/// after every completed MuT so the supervisor can tell a slow shard
/// from a wedged worker.
pub const FRAME_HEARTBEAT: u8 = b'H';

/// Upper bound on a frame payload — anything larger is a protocol
/// fault, not a plausible shard.
const MAX_FRAME_LEN: usize = 1 << 28;

/// Worker liveness report: cumulative progress within the shard the
/// worker is currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Heartbeat {
    /// MuTs of the current shard completed so far.
    pub muts_done: u64,
    /// Clean-pass cases of the current shard executed so far.
    pub cases_done: u64,
}

/// Writes one `tag | u32-LE length | payload` frame.
///
/// # Errors
///
/// Propagates the underlying I/O error (a broken pipe here means the
/// peer died).
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload too large")
    })?;
    w.write_all(&[tag])?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` is a clean EOF at a frame boundary.
///
/// # Errors
///
/// Returns an error for a truncated frame, an oversized length prefix,
/// or any underlying I/O failure — never panics, whatever the bytes.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<(u8, Vec<u8>)>> {
    let mut tag = [0u8; 1];
    if r.read(&mut tag)? == 0 {
        return Ok(None);
    }
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some((tag[0], payload)))
}

// ---------------------------------------------------------------------
// Env-latched fault injection (read by the worker process)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    Die,
    Garble,
    Hang,
}

fn parse_fault() -> Option<(FaultKind, u64)> {
    let latch = std::env::var("BALLISTA_FLEET_FAULT").ok()?;
    let (kind, nth) = latch.split_once(':')?;
    let nth = nth.parse().ok()?;
    let kind = match kind {
        "die" => FaultKind::Die,
        "garble" => FaultKind::Garble,
        "hang" => FaultKind::Hang,
        _ => return None,
    };
    Some((kind, nth))
}

fn env_ms(name: &str) -> Option<Duration> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Executes one shard: the clean pass for every MuT in the spec's
/// range, under the engines' shared quarantine fence. This is the whole
/// worker side of the protocol — a remote worker is this function plus
/// a transport.
#[must_use]
pub fn execute_shard(spec: &ShardSpec) -> ShardResult {
    execute_shard_observed(spec, &mut |_| {})
}

/// [`execute_shard`] with a per-MuT progress callback (the worker loop
/// turns each callback into a heartbeat frame).
pub fn execute_shard_observed(
    spec: &ShardSpec,
    on_progress: &mut dyn FnMut(Heartbeat),
) -> ShardResult {
    if let Some(delay) = env_ms("BALLISTA_FLEET_SHARD_DELAY_MS") {
        std::thread::sleep(delay);
    }
    // Adaptive shards execute the pinned plan: the worker re-derives it
    // from the spec's knobs (one explore per process, memoized), so the
    // wire stays small and every worker pins the identical plan.
    let mode = spec.mode();
    let preps = mode.preps(spec.os, &spec.cfg, spec.mut_start..spec.mut_end);
    let result = clean_range(
        mode,
        spec.os,
        &spec.cfg,
        &preps,
        spec.mut_start,
        spec.capture_fuel,
        on_progress,
    );
    telemetry::count(Counter::ShardsExecuted, 1);
    result
}

/// The worker-process main loop: reads [`FRAME_SPEC`] frames off
/// `input`, executes each shard, streams [`FRAME_HEARTBEAT`] frames
/// while working, and answers with a [`FRAME_RESULT`] frame — until a
/// clean EOF (the supervisor closing the pipe is the shutdown signal).
///
/// Honors the env-latched fault injections described in the module
/// docs, so a test or CI job can make this worker die, garble, or hang
/// on an exact shard.
///
/// # Errors
///
/// Returns an error for malformed input frames or a broken output pipe;
/// the `fleet_worker` binary maps that to a nonzero exit.
pub fn worker_loop(input: impl Read, output: impl Write) -> std::io::Result<()> {
    let fault = parse_fault();
    let mut input = BufReader::new(input);
    let mut output = output;
    let mut shard_no = 0u64;
    loop {
        let Some((tag, payload)) = read_frame(&mut input)? else {
            return Ok(());
        };
        if tag != FRAME_SPEC {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("worker expected a spec frame, got tag {tag:#x}"),
            ));
        }
        shard_no += 1;
        match fault {
            Some((FaultKind::Die, nth)) if shard_no == nth => std::process::exit(9),
            Some((FaultKind::Hang, nth)) if shard_no == nth => loop {
                std::thread::sleep(Duration::from_secs(3600));
            },
            _ => {}
        }
        let spec = ShardSpec::from_wire(&payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let result = {
            let out = &mut output;
            execute_shard_observed(&spec, &mut |hb| {
                let payload = serde_json::to_vec(&hb).expect("heartbeat serializes");
                // A broken pipe surfaces on the result frame below; a
                // missed heartbeat on its own is not fatal.
                let _ = write_frame(out, FRAME_HEARTBEAT, &payload);
            })
        };
        if let Some((FaultKind::Garble, nth)) = fault {
            if shard_no == nth {
                write_frame(&mut output, FRAME_RESULT, b"\xff{definitely not a result")?;
                continue;
            }
        }
        write_frame(&mut output, FRAME_RESULT, &result.to_wire())?;
    }
}

// ---------------------------------------------------------------------
// Live progress
// ---------------------------------------------------------------------

/// Point-in-time copy of a fleet campaign's in-flight progress, read
/// off its counter set: the `GET /campaign/<fp>` body while the
/// campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FleetProgressSnapshot {
    /// Total shards in the campaign.
    pub shards_total: u64,
    /// Shards merged so far.
    pub shards_done: u64,
    /// Clean-pass cases executed so far.
    pub cases_done: u64,
    /// Worker deaths observed so far.
    pub worker_deaths: u64,
    /// Shard retries so far.
    pub shard_retries: u64,
    /// Worker processes currently alive.
    pub workers_live: u64,
    /// Whether execution has degraded below full process workers.
    pub degraded: bool,
}

impl FleetProgressSnapshot {
    /// The progress `counters`, a fleet campaign's set, hold now.
    #[must_use]
    pub fn of(counters: &Counters) -> Self {
        FleetProgressSnapshot {
            shards_total: counters.get(Counter::ShardsTotal),
            shards_done: counters.get(Counter::ShardsDone),
            cases_done: counters.get(Counter::CasesDone),
            worker_deaths: counters.get(Counter::WorkerDeaths),
            shard_retries: counters.get(Counter::ShardRetries),
            workers_live: counters.get(Counter::WorkersLive),
            degraded: counters.get(Counter::FleetDegradations) > 0,
        }
    }
}

// ---------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------

/// PIDs of all currently-live supervised workers, for tests that aim
/// real signals at them.
static WORKER_PIDS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Snapshot of the live supervised-worker PIDs across all campaigns in
/// this process — the chaos tests use it to aim real `SIGKILL`s.
#[must_use]
pub fn live_worker_pids() -> Vec<u32> {
    WORKER_PIDS.lock().expect("worker pid registry poisoned").clone()
}

/// The heartbeat deadline: the longest frame-to-frame silence the
/// supervisor tolerates before declaring a worker hung.
///
/// Derived deterministically from the campaign shape, not measured: a
/// worker heartbeats after every MuT, a MuT is at most `cap` cases, and
/// a case is fuel-capped at the budget — so the bound assumes a
/// pessimistic 10k fuel units per host millisecond and adds the
/// env-latched shard delay when present. `BALLISTA_FLEET_DEADLINE_MS`
/// overrides the whole computation for tests.
fn heartbeat_deadline(cfg: &CampaignConfig) -> Duration {
    if let Some(d) = env_ms("BALLISTA_FLEET_DEADLINE_MS") {
        return d + env_ms("BALLISTA_FLEET_SHARD_DELAY_MS").unwrap_or(Duration::ZERO);
    }
    let fuel = cfg.effective_fuel_budget();
    let cap = cfg.cap.max(1) as u64;
    let ms = 2_000 + cap.saturating_mul(fuel) / 10_000;
    Duration::from_millis(ms.clamp(2_000, 120_000))
        + env_ms("BALLISTA_FLEET_SHARD_DELAY_MS").unwrap_or(Duration::ZERO)
}

/// Resolves the worker command line: `BALLISTA_WORKER_CMD` wins, else a
/// `fleet_worker` binary next to (or one directory above) the current
/// executable. `None` means process workers are unavailable and the
/// campaign degrades to threads.
fn worker_command() -> Option<Vec<String>> {
    if let Ok(cmd) = std::env::var("BALLISTA_WORKER_CMD") {
        let parts: Vec<String> = cmd.split_whitespace().map(str::to_owned).collect();
        return if parts.is_empty() { None } else { Some(parts) };
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    for d in [Some(dir), dir.parent()].into_iter().flatten() {
        let cand = d.join("fleet_worker");
        if cand.is_file() {
            return Some(vec![cand.to_string_lossy().into_owned()]);
        }
    }
    None
}

/// A live worker process plus the channel its reader thread feeds.
struct WorkerHandle {
    child: Child,
    stdin: Option<ChildStdin>,
    frames: Receiver<std::io::Result<(u8, Vec<u8>)>>,
    pid: u32,
}

impl WorkerHandle {
    fn spawn(cmd: &[String]) -> std::io::Result<WorkerHandle> {
        let mut child = Command::new(&cmd[0])
            .args(&cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::BrokenPipe, "worker stdout missing")
        })?;
        let pid = child.id();
        let (tx, rx) = std::sync::mpsc::channel();
        // The reader thread turns the pipe into timed frames: it ends
        // at EOF (dropping `tx`, which surfaces as a disconnect) or
        // after forwarding a read error.
        std::thread::spawn(move || {
            let mut stdout = BufReader::new(stdout);
            loop {
                match read_frame(&mut stdout) {
                    Ok(Some(frame)) => {
                        if tx.send(Ok(frame)).is_err() {
                            return;
                        }
                    }
                    Ok(None) => return,
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                }
            }
        });
        WORKER_PIDS
            .lock()
            .expect("worker pid registry poisoned")
            .push(pid);
        Ok(WorkerHandle {
            child,
            stdin,
            frames: rx,
            pid,
        })
    }

    /// Sends the worker one shard's spec bytes and waits for its result
    /// payload, crediting heartbeats against `deadline`; `hb_cases` holds
    /// the heartbeat case count already counted as done. A failure comes
    /// back described for its warning.
    fn exchange(
        &mut self,
        spec: &[u8],
        deadline: Duration,
        hb_cases: &mut u64,
    ) -> Result<Vec<u8>, String> {
        let sent = self
            .stdin
            .as_mut()
            .is_some_and(|stdin| write_frame(stdin, FRAME_SPEC, spec).is_ok());
        if !sent {
            return Err("died (worker stdin closed)".to_owned());
        }
        loop {
            match self.frames.recv_timeout(deadline) {
                Ok(Ok((FRAME_HEARTBEAT, payload))) => {
                    if let Ok(hb) = serde_json::from_slice::<Heartbeat>(&payload) {
                        let delta = hb.cases_done.saturating_sub(*hb_cases);
                        *hb_cases = hb.cases_done;
                        telemetry::count(Counter::CasesDone, delta);
                    }
                }
                Ok(Ok((FRAME_RESULT, payload))) => return Ok(payload),
                Ok(Ok((tag, _))) => {
                    return Err(format!(
                        "returned a malformed reply (unexpected frame tag {tag:#x})"
                    ))
                }
                Ok(Err(e)) => return Err(format!("returned a malformed reply ({e})")),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!(
                        "missed its {}ms heartbeat deadline",
                        deadline.as_millis()
                    ))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("died (worker pipe closed)".to_owned())
                }
            }
        }
    }

    /// Reaps the process: graceful (close stdin, wait for the EOF exit)
    /// or forced (SIGKILL).
    fn reap(mut self, graceful: bool) {
        drop(self.stdin.take());
        if !graceful {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        WORKER_PIDS
            .lock()
            .expect("worker pid registry poisoned")
            .retain(|&p| p != self.pid);
    }
}

/// Consecutive failures after which a slot is quarantined: it spawns no
/// further worker and executes its shards in-process.
const QUARANTINE_AFTER: u32 = 2;

/// The pause before a slot retries a failed shard on a new worker.
const RETRY_DELAY: Duration = Duration::from_millis(10);

/// What every slot of one fleet pass reads.
struct Supervisor<'a> {
    specs: &'a [ShardSpec],
    /// Planned cases per catalog MuT, from the coordinator's preps.
    planned: Vec<usize>,
    /// The worker command line; `None` executes every shard in-process.
    cmd: Option<Vec<String>>,
    deadline: Duration,
}

/// One thread of the fleet's pool. It keeps one worker process alive
/// across the shards it claims, retries a failed shard on a new worker
/// of its own, and once quarantined (`QUARANTINE_AFTER` consecutive
/// failures) executes its shards in-process. Dropping the slot reaps its
/// worker gracefully.
struct Slot<'a> {
    sup: &'a Supervisor<'a>,
    worker: Option<WorkerHandle>,
    /// Consecutive failed attempts.
    failures: u32,
    spawned_before: bool,
    _counting: CountingFor,
}

impl<'a> Slot<'a> {
    fn new(sup: &'a Supervisor<'a>, counters: &Arc<Counters>) -> Self {
        Slot {
            sup,
            worker: None,
            failures: 0,
            spawned_before: false,
            _counting: CountingFor::new(counters),
        }
    }

    /// Executes shard `idx`: on the slot's worker while the slot has a
    /// command and is not quarantined, else in-process. The shard's
    /// supervision warnings ride on its result, ahead of its own.
    fn shard(&mut self, idx: usize) -> ShardResult {
        let mut warnings = Vec::new();
        let mut result = loop {
            if self.sup.cmd.is_none() || self.failures >= QUARANTINE_AFTER {
                let result = execute_shard(&self.sup.specs[idx]);
                telemetry::count_each(&[
                    (Counter::CasesDone, result.case_count()),
                    (Counter::ShardsDone, 1),
                ]);
                break result;
            }
            match self.attempt(idx) {
                Ok(result) => {
                    self.failures = 0;
                    break result;
                }
                Err(warning) => {
                    self.failures += 1;
                    if self.failures < QUARANTINE_AFTER {
                        telemetry::count(Counter::ShardRetries, 1);
                        warnings.push(format!("{warning}; requeued on a new worker"));
                        std::thread::sleep(RETRY_DELAY);
                    } else {
                        telemetry::count(Counter::WorkersQuarantined, 1);
                        telemetry::count_once(Counter::FleetDegradations);
                        warnings.push(warning);
                        warnings.push(format!(
                            "fleet degraded: a worker slot failed {QUARANTINE_AFTER} consecutive \
                             times; executing shard {idx} and the slot's later shards in-process"
                        ));
                    }
                }
            }
        };
        result.warnings.splice(0..0, warnings);
        result
    }

    /// One attempt at shard `idx` on the slot's worker, spawning one if
    /// the slot has none. A failed attempt reaps the worker, takes back
    /// its heartbeat-credited cases and returns the failure's warning.
    fn attempt(&mut self, idx: usize) -> Result<ShardResult, String> {
        let sup = self.sup;
        if self.worker.is_none() {
            let cmd = sup
                .cmd
                .as_deref()
                .expect("only a slot with a command attempts");
            let worker = WorkerHandle::spawn(cmd).map_err(|e| {
                format!("fleet supervisor could not spawn a worker for shard {idx}: {e}")
            })?;
            telemetry::count_each(&[
                (Counter::WorkersLive, 1),
                (Counter::WorkerRespawns, u64::from(self.spawned_before)),
            ]);
            self.spawned_before = true;
            self.worker = Some(worker);
        }
        let worker = self.worker.as_mut().expect("worker just ensured");
        let (spec, mut hb_cases) = (&sup.specs[idx], 0);
        let reply = worker
            .exchange(&spec.to_wire(), sup.deadline, &mut hb_cases)
            .and_then(|payload| {
                ShardResult::from_wire(&payload)
                    .and_then(|result| result.check(spec, &sup.planned).map(|()| result))
                    .map_err(|e| {
                        telemetry::count(Counter::WireProtocolFaults, 1);
                        format!("returned a malformed reply ({e})")
                    })
            });
        let pid = worker.pid;
        match reply {
            Ok(result) => {
                telemetry::count_each(&[
                    (Counter::ShardsExecuted, 1),
                    (
                        Counter::CasesDone,
                        result.case_count().saturating_sub(hb_cases),
                    ),
                    (Counter::ShardsDone, 1),
                ]);
                Ok(result)
            }
            Err(what) => {
                telemetry::uncount(Counter::CasesDone, hb_cases);
                self.retire(false);
                telemetry::count(Counter::WorkerDeaths, 1);
                Err(format!("fleet worker pid {pid} {what} on shard {idx}"))
            }
        }
    }

    /// Reaps the slot's worker, if it has one: gracefully (closing its
    /// input, which it exits at) or by SIGKILL.
    fn retire(&mut self, graceful: bool) {
        if let Some(worker) = self.worker.take() {
            worker.reap(graceful);
            telemetry::uncount(Counter::WorkersLive, 1);
        }
    }
}

impl Drop for Slot<'_> {
    /// Runs before the fields drop, so the `workers_live` gauge comes
    /// back down in the campaign's set.
    fn drop(&mut self) {
        self.retire(true);
    }
}

// ---------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------

/// Runs the full campaign sharded across a worker pool, producing a
/// report **bit-identical** to [`run_campaign`](crate::campaign::run_campaign)
/// on the same `(os, cfg)`.
///
/// The coordinator cuts the catalog into contiguous MuT ranges, runs
/// each range's clean pass on the pool, reassembles the clean-pass
/// records at their catalog indices, and runs the shared sequential
/// replay pass — see the module docs for why this cannot change a
/// single tally bit.
///
/// # Example
///
/// ```no_run
/// use ballista::campaign::CampaignConfig;
/// use ballista::fleet::{run_campaign_fleet, FleetConfig};
/// use sim_kernel::variant::OsVariant;
///
/// let cfg = CampaignConfig { cap: 200, ..CampaignConfig::default() };
/// let fleet = FleetConfig { shards: 8, workers: 2, ..FleetConfig::default() };
/// let report = run_campaign_fleet(OsVariant::Win95, &cfg, &fleet);
/// println!("{} cases over 8 shards", report.total_cases);
/// ```
#[must_use]
pub fn run_campaign_fleet(os: OsVariant, cfg: &CampaignConfig, fleet: &FleetConfig) -> CampaignReport {
    run_fleet_engine(Mode::Classic, os, cfg, fleet, None)
}

/// Runs a **crashcon** campaign on the fleet: the same shard dispatch,
/// supervision, and degradation machinery as [`run_campaign_fleet`],
/// with each shard executing in crashcon mode ([`ShardSpec::crashcon`])
/// — packed [`crate::crashcon::CaseVerdict`] bytes ride the record
/// channel and the aux counts ride the fuel channel. Crashcon cases are
/// residue-free, so the merge is a pure commutative fold per MuT (no
/// replay pass), and the tallies are **bit-identical** to the serial
/// engine's on every shard/worker split.
#[must_use]
pub fn run_crashcon_fleet(
    os: OsVariant,
    cfg: &CampaignConfig,
    fleet: &FleetConfig,
) -> CrashconReport {
    let preps = Mode::Crashcon.preps(os, cfg, 0..usize::MAX);
    let epoch = Epoch::open(None);
    let template = ShardSpec::template(Mode::Crashcon, os, *cfg, true);
    let (pass, workers) = fleet_pass(&template, fleet, &preps, &epoch);
    crashcon::pass_report(os, &preps, pass, epoch, workers)
}

/// [`run_campaign_fleet`] counting into `counters`, a set the caller
/// holds: the supervisor (or the thread pool) counts into it as shards
/// complete, so the serving layer can answer in-flight
/// `GET /campaign/<fp>` requests with real shard/case counts
/// ([`FleetProgressSnapshot::of`]).
#[must_use]
pub fn run_campaign_fleet_observed(
    os: OsVariant,
    cfg: &CampaignConfig,
    fleet: &FleetConfig,
    counters: Option<&Arc<Counters>>,
) -> CampaignReport {
    run_fleet_engine(Mode::Classic, os, cfg, fleet, counters)
}

/// The fleet engine behind the classic and adaptive campaigns: the
/// coordinator derives the preps (an adaptive pin before the stats
/// epoch, so exploration never pollutes the campaign counters), runs the
/// fleet pass with every shard spec stamped with the mode's flags (so
/// workers re-derive the same plan), and replays the merged records.
/// Tallies stay bit-identical to the matching in-process engine.
pub(crate) fn run_fleet_engine(
    mode: Mode,
    os: OsVariant,
    cfg: &CampaignConfig,
    fleet: &FleetConfig,
    counters: Option<&Arc<Counters>>,
) -> CampaignReport {
    let preps = mode.preps(os, cfg, 0..usize::MAX);
    let epoch = Epoch::open(counters);
    let tc = TraceCollector::begin(os, cfg.cap as u64);
    let template = ShardSpec::template(mode, os, *cfg, tc.is_some());
    let (pass, workers) = fleet_pass(&template, fleet, &preps, &epoch);
    let fleet_degraded = epoch.counters.get(Counter::FleetDegradations) > 0;
    let mut report = replay_report(os, cfg, &preps, pass, tc, epoch, workers);
    report.fleet_degraded = fleet_degraded;
    report
}

/// The fleet pass every mode shares: cuts the catalog into the fleet's
/// shards of `template`, runs them on the pool's slots — on supervised
/// worker processes when `fleet.process` is set and a worker binary is
/// found, else in-process — and merges the shard results at their
/// catalog indices. Returns the merged pass and the worker count.
fn fleet_pass(
    template: &ShardSpec,
    fleet: &FleetConfig,
    preps: &[PreparedMut<'_>],
    epoch: &Epoch,
) -> (ShardResult, usize) {
    let n = preps.len();
    let shard_count = fleet.effective_shards(n);
    let workers = fleet.effective_workers().min(shard_count);
    telemetry::count(Counter::ShardsTotal, shard_count as u64);
    let specs: Vec<ShardSpec> = (0..shard_count)
        .map(|s| ShardSpec {
            mut_start: s * n / shard_count,
            mut_end: (s + 1) * n / shard_count,
            ..template.clone()
        })
        .collect();
    let cmd = fleet.process.then(worker_command).flatten();
    let missing = (fleet.process && cmd.is_none()).then(|| {
        telemetry::count_once(Counter::FleetDegradations);
        "fleet degraded: no worker binary found (set BALLISTA_WORKER_CMD or \
         install fleet_worker next to this executable); executing on the \
         in-process pool"
            .to_owned()
    });
    let sup = Supervisor {
        specs: &specs,
        planned: preps.iter().map(|p| p.plan.len()).collect(),
        cmd,
        deadline: heartbeat_deadline(&template.cfg),
    };
    let slot = || Slot::new(&sup, &epoch.counters);
    let mut pass = ShardResult::concat(claim_each(shard_count, workers, slot, Slot::shard));
    pass.warnings.extend(missing);
    (pass, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::pack_case;
    use crate::crashcon::{CaseVerdict, PACK_ACTIVE, PACK_DURABILITY, PACK_RENAME, PACK_TRUNCATED};

    fn spec(mode: Mode) -> ShardSpec {
        ShardSpec {
            mut_start: 2,
            mut_end: 4,
            ..ShardSpec::template(mode, OsVariant::Win95, CampaignConfig::default(), true)
        }
    }

    fn ran(records: Vec<u8>, aux: Option<Vec<u64>>) -> Option<WireCleanMut> {
        Some(WireCleanMut { records, fuel: aux })
    }

    fn reply(muts: Vec<Option<WireCleanMut>>) -> ShardResult {
        ShardResult {
            mut_start: 2,
            muts,
            ..ShardResult::default()
        }
    }

    /// Worker replies are checked against the coordinator's plan
    /// (MuTs 2 and 3 plan 3 and 2 cases): every rejection is an `Err`
    /// the supervisor counts as a protocol fault, and a classic pass
    /// that stopped at an unprobed system crash is accepted.
    #[test]
    fn replies_are_checked_against_the_plan() {
        let planned = [9, 9, 3, 2];
        let ok = pack_case(RawOutcome::ReturnedSuccess, false, false);
        let crash = |probed| pack_case(RawOutcome::SystemCrash, true, probed);
        let check = |result: ShardResult, mode| result.check(&spec(mode), &planned);

        // Whole plans, with or without fuel, and a quarantined MuT.
        assert_eq!(
            check(
                reply(vec![
                    ran(vec![ok; 3], None),
                    ran(vec![ok; 2], Some(vec![5, 6]))
                ]),
                Mode::Classic
            ),
            Ok(())
        );
        assert_eq!(
            check(reply(vec![None, ran(vec![ok; 2], None)]), Mode::Classic),
            Ok(())
        );
        // A valid early stop: the pass ends at an unprobed system crash.
        assert_eq!(
            check(
                reply(vec![
                    ran(vec![ok, crash(false)], None),
                    ran(vec![crash(false)], None)
                ]),
                Mode::Classic
            ),
            Ok(())
        );

        let rejected = |result: ShardResult, mode| check(result, mode).is_err();
        // The wrong range.
        assert!(rejected(
            ShardResult {
                mut_start: 1,
                ..reply(vec![None, None])
            },
            Mode::Classic
        ));
        assert!(rejected(reply(vec![None]), Mode::Classic));
        // An undecodable record byte (raw outcome 7 does not exist).
        assert!(rejected(
            reply(vec![ran(vec![ok, 0x07, ok], None), None]),
            Mode::Classic
        ));
        // Fuel that does not pair with the records.
        assert!(rejected(
            reply(vec![ran(vec![ok; 3], Some(vec![1, 2])), None]),
            Mode::Classic
        ));
        // Cut short without an unprobed crash at the end, or overlong.
        assert!(rejected(
            reply(vec![ran(vec![ok; 2], None), None]),
            Mode::Classic
        ));
        assert!(rejected(
            reply(vec![ran(vec![ok, crash(true)], None), None]),
            Mode::Classic
        ));
        assert!(rejected(
            reply(vec![ran(Vec::new(), None), None]),
            Mode::Classic
        ));
        assert!(rejected(
            reply(vec![ran(vec![ok; 4], None), None]),
            Mode::Classic
        ));

        // Crashcon: records are packed verdicts — an empty log (one
        // crash point), `create, barrier` (two ops, three points) and a
        // full, truncated log failing every oracle.
        let verdict = |ops, points, inconsistent, violated, truncated| {
            CaseVerdict {
                ops,
                truncated,
                points,
                inconsistent,
                viol_well_formed: violated,
                viol_open_table: violated,
                viol_durability: violated,
                viol_rename: violated,
            }
            .pack()
        };
        let empty = verdict(0, 1, 0, false, false);
        let create_barrier = verdict(2, 3, 0, false, false);
        let full = verdict(256, 1021, 17, true, true);
        let verdicts = |v: &[(u8, u64)]| {
            ran(
                v.iter().map(|r| r.0).collect(),
                Some(v.iter().map(|r| r.1).collect()),
            )
        };
        assert_eq!(
            check(
                reply(vec![verdicts(&[empty, create_barrier, full]), None]),
                Mode::Crashcon
            ),
            Ok(())
        );
        // Aux counts are required, and a pass never stops early (0x0c is
        // a possible verdict byte that reads as an unprobed crash in
        // classic mode).
        assert!(rejected(
            reply(vec![ran(vec![0; 3], None), None]),
            Mode::Crashcon
        ));
        let crash_verdict = (crash(false), verdict(0, 1, 1, false, false).1);
        assert_eq!(crash_verdict.0, 0x0c);
        assert!(rejected(
            reply(vec![verdicts(&[empty, crash_verdict]), None]),
            Mode::Crashcon
        ));
        // Verdicts no verifier produces, each in an otherwise whole reply.
        let aux =
            |ops: u64, points: u64, inconsistent: u64| (ops << 40) | (points << 20) | inconsistent;
        for impossible in [
            (0x40, aux(0, 1, 0)),                             // a bit beyond the six flags
            (0, 0),                                           // no crash point
            (PACK_ACTIVE, 0),                                 // active without ops
            (0x3f, 0),                                        // violations without counts
            (PACK_ACTIVE, aux(3, 3, 0)),                      // fewer points than ops + 1
            (PACK_ACTIVE | PACK_RENAME, aux(2, 3, 4)),        // more inconsistent than points
            (PACK_ACTIVE, aux(257, 300, 0)),                  // more ops than the recorder keeps
            (0, aux(2, 3, 0)),                                // ops without PACK_ACTIVE
            (PACK_ACTIVE, aux(2, 3, 1)),                      // inconsistent without a violation
            (PACK_ACTIVE | PACK_DURABILITY, aux(2, 3, 0)),    // a violation, nothing inconsistent
            (PACK_ACTIVE | PACK_TRUNCATED, aux(255, 300, 0)), // truncated short of the bound
        ] {
            assert!(
                rejected(
                    reply(vec![verdicts(&[empty, impossible, empty]), None]),
                    Mode::Crashcon
                ),
                "{impossible:x?} must be rejected"
            );
        }
    }
}
