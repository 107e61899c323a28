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
//! and finishes with [`ShardResult`] wire bytes. The supervisor tracks
//! every worker with a **deterministic heartbeat deadline** derived
//! from the campaign's fuel budget (host wall-clock is consulted only
//! at this supervision boundary, never inside the engine), and on
//! worker death, hang, or malformed reply it requeues the shard with
//! bounded exponential backoff onto a healthy worker, quarantining a
//! slot after K consecutive failures. When no worker survives — or no
//! worker binary can be found at all — the campaign **degrades
//! gracefully to the in-process thread pool** and completes with a
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use sim_kernel::variant::OsVariant;

use crate::adaptive::AdaptiveConfig;
use crate::campaign::{
    claim_each, clean_range, replay_report, CampaignConfig, CampaignReport, Epoch, Mode,
    PreparedMut,
};
use crate::catalog;
use crate::crash::{self, RawOutcome};
use crate::crashcon::{self, CrashconReport};
use crate::telemetry::{self, TraceCollector};
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
    /// Per-shard retry budget after worker failures before the
    /// supervisor executes the shard in-process. `0` (the default)
    /// resolves to 3.
    #[serde(default)]
    pub max_shard_retries: u32,
    /// Consecutive failures after which a worker slot is quarantined
    /// (no further respawns into it). `0` (the default) resolves to 2.
    #[serde(default)]
    pub worker_quarantine_after: u32,
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

    /// The effective per-shard retry budget (`0` → 3).
    #[must_use]
    pub fn effective_max_shard_retries(&self) -> u32 {
        match self.max_shard_retries {
            0 => 3,
            n => n,
        }
    }

    /// The effective consecutive-failure quarantine threshold (`0` → 2).
    #[must_use]
    pub fn effective_quarantine_after(&self) -> u32 {
        match self.worker_quarantine_after {
            0 => 2,
            n => n,
        }
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
    let muts = catalog::catalog_for(spec.os);
    let end = spec.mut_end.min(muts.len());
    let start = spec.mut_start.min(end);
    // Adaptive shards execute the pinned plan: the worker re-derives it
    // from the spec's knobs (one explore per process, memoized), so the
    // wire stays small and every worker pins the identical plan.
    let mode = spec.mode();
    let preps = mode.preps(spec.os, &spec.cfg, &muts, start..end);
    let result = clean_range(
        mode,
        spec.os,
        &spec.cfg,
        &preps,
        spec.mut_start,
        spec.capture_fuel,
        on_progress,
    );
    telemetry::on_shard_executed();
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

/// Wait-free live progress of one fleet campaign, updated by the
/// supervisor (or the thread pool) and read by `GET /campaign/<fp>`
/// while the campaign is in flight.
#[derive(Debug, Default)]
pub struct FleetProgress {
    /// Total shards in the campaign.
    pub shards_total: AtomicU64,
    /// Shards merged so far.
    pub shards_done: AtomicU64,
    /// Clean-pass cases executed so far (heartbeat-granular for process
    /// workers, shard-granular for threads).
    pub cases_done: AtomicU64,
    /// Worker processes that died, hung, or replied with garbage.
    pub worker_deaths: AtomicU64,
    /// Shard re-executions after worker failures.
    pub shard_retries: AtomicU64,
    /// Worker processes currently alive.
    pub workers_live: AtomicU64,
    /// Whether the campaign has degraded below full process execution.
    pub degraded: AtomicBool,
}

/// Point-in-time serializable copy of a [`FleetProgress`].
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

impl FleetProgress {
    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> FleetProgressSnapshot {
        FleetProgressSnapshot {
            shards_total: self.shards_total.load(Ordering::Relaxed),
            shards_done: self.shards_done.load(Ordering::Relaxed),
            cases_done: self.cases_done.load(Ordering::Relaxed),
            worker_deaths: self.worker_deaths.load(Ordering::Relaxed),
            shard_retries: self.shard_retries.load(Ordering::Relaxed),
            workers_live: self.workers_live.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }

    /// Latches the degraded flag and counts the degradation (once).
    fn degrade(&self) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            telemetry::on_fleet_degraded();
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

/// Bounded exponential backoff before a failed shard's next attempt:
/// 10ms doubling per attempt, capped at 640ms.
fn backoff_delay(attempt: u32) -> Duration {
    let ms = 10u64.saturating_mul(1 << attempt.saturating_sub(1).min(6));
    Duration::from_millis(ms.min(640))
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

/// One queued shard attempt.
struct ShardJob {
    idx: usize,
    attempts: u32,
    ready_at: Instant,
}

struct QueueInner {
    pending: Vec<ShardJob>,
    completed: usize,
    total: usize,
}

/// The supervisor's work queue: shards waiting for a worker, including
/// failed shards serving out their backoff.
struct ShardQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
}

impl ShardQueue {
    fn new(total: usize) -> ShardQueue {
        ShardQueue {
            inner: Mutex::new(QueueInner {
                pending: (0..total)
                    .map(|idx| ShardJob {
                        idx,
                        attempts: 0,
                        ready_at: Instant::now(),
                    })
                    .collect(),
                completed: 0,
                total,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a job is ready (its backoff has elapsed) or the
    /// campaign is complete (`None`). Lowest shard index wins ties so
    /// execution order stays as close to catalog order as failures
    /// allow.
    fn pop(&self) -> Option<ShardJob> {
        let mut g = self.inner.lock().expect("shard queue poisoned");
        loop {
            if g.completed >= g.total {
                return None;
            }
            let now = Instant::now();
            let ready = g
                .pending
                .iter()
                .enumerate()
                .filter(|(_, j)| j.ready_at <= now)
                .min_by_key(|(_, j)| j.idx)
                .map(|(pos, _)| pos);
            if let Some(pos) = ready {
                return Some(g.pending.swap_remove(pos));
            }
            let wait = g
                .pending
                .iter()
                .map(|j| j.ready_at.saturating_duration_since(now))
                .min()
                .unwrap_or(Duration::from_millis(50))
                .clamp(Duration::from_millis(1), Duration::from_millis(50));
            g = self
                .cv
                .wait_timeout(g, wait)
                .expect("shard queue poisoned")
                .0;
        }
    }

    fn push(&self, job: ShardJob) {
        self.inner
            .lock()
            .expect("shard queue poisoned")
            .pending
            .push(job);
        self.cv.notify_all();
    }

    fn complete(&self) {
        self.inner.lock().expect("shard queue poisoned").completed += 1;
        self.cv.notify_all();
    }

    /// Drains whatever is still pending (used after all slots retire).
    fn drain_pending(&self) -> Vec<ShardJob> {
        std::mem::take(&mut self.inner.lock().expect("shard queue poisoned").pending)
    }
}

/// Why a worker attempt on a shard failed.
enum WorkerFailure {
    Died(String),
    Hung,
    Malformed(String),
}

/// Shared context for the supervisor's slot threads.
struct Supervisor<'a> {
    specs: &'a [ShardSpec],
    wire: &'a [Vec<u8>],
    /// Planned cases per catalog MuT, from the coordinator's preps.
    planned: &'a [usize],
    slots: &'a [Mutex<Option<ShardResult>>],
    queue: ShardQueue,
    progress: &'a FleetProgress,
    warnings: &'a Mutex<Vec<String>>,
    cmd: Vec<String>,
    deadline: Duration,
    max_retries: u32,
    quarantine_after: u32,
}

impl Supervisor<'_> {
    fn warn(&self, text: String) {
        self.warnings
            .lock()
            .expect("fleet warnings poisoned")
            .push(text);
    }

    /// Stores a completed shard and advances the campaign.
    fn store(&self, idx: usize, result: ShardResult, hb_cases_seen: u64) {
        let cases = result.case_count();
        self.progress
            .cases_done
            .fetch_add(cases.saturating_sub(hb_cases_seen), Ordering::Relaxed);
        self.progress.shards_done.fetch_add(1, Ordering::Relaxed);
        *self.slots[idx].lock().expect("shard slot poisoned") = Some(result);
        self.queue.complete();
    }

    /// Waits for the current shard's result, crediting heartbeats
    /// against the deadline. Returns the raw result payload and the
    /// heartbeat case count already credited to progress.
    fn await_result(
        &self,
        worker: &WorkerHandle,
        hb_cases: &mut u64,
    ) -> Result<Vec<u8>, WorkerFailure> {
        loop {
            match worker.frames.recv_timeout(self.deadline) {
                Ok(Ok((FRAME_HEARTBEAT, payload))) => {
                    if let Ok(hb) = serde_json::from_slice::<Heartbeat>(&payload) {
                        let delta = hb.cases_done.saturating_sub(*hb_cases);
                        *hb_cases = hb.cases_done;
                        self.progress.cases_done.fetch_add(delta, Ordering::Relaxed);
                    }
                }
                Ok(Ok((FRAME_RESULT, payload))) => return Ok(payload),
                Ok(Ok((tag, _))) => {
                    return Err(WorkerFailure::Malformed(format!(
                        "unexpected frame tag {tag:#x}"
                    )))
                }
                Ok(Err(e)) => return Err(WorkerFailure::Malformed(e.to_string())),
                Err(RecvTimeoutError::Timeout) => return Err(WorkerFailure::Hung),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(WorkerFailure::Died("worker pipe closed".to_owned()))
                }
            }
        }
    }

    /// One slot's lifecycle: keep a worker process alive, feed it
    /// shards, and handle its failures until the campaign completes or
    /// the slot quarantines itself.
    fn slot_loop(&self) {
        let mut worker: Option<WorkerHandle> = None;
        let mut consecutive = 0u32;
        let mut spawned_before = false;
        while let Some(mut job) = self.queue.pop() {
            // Ensure a live worker in this slot.
            if worker.is_none() {
                match WorkerHandle::spawn(&self.cmd) {
                    Ok(h) => {
                        if spawned_before {
                            telemetry::on_worker_respawn();
                        }
                        spawned_before = true;
                        self.progress.workers_live.fetch_add(1, Ordering::Relaxed);
                        worker = Some(h);
                    }
                    Err(e) => {
                        consecutive += 1;
                        self.warn(format!("fleet supervisor could not spawn a worker: {e}"));
                        telemetry::on_shard_requeue();
                        self.queue.push(job);
                        if consecutive >= self.quarantine_after {
                            telemetry::on_worker_quarantined();
                            return;
                        }
                        std::thread::sleep(backoff_delay(consecutive));
                        continue;
                    }
                }
            }
            let h = worker.as_ref().expect("worker just ensured");
            let pid = h.pid;
            let mut hb_cases = 0u64;
            let sent = worker
                .as_mut()
                .and_then(|h| h.stdin.as_mut())
                .is_some_and(|stdin| write_frame(stdin, FRAME_SPEC, &self.wire[job.idx]).is_ok());
            let outcome = if sent {
                self.await_result(worker.as_ref().expect("worker alive"), &mut hb_cases)
            } else {
                Err(WorkerFailure::Died("worker stdin closed".to_owned()))
            };
            let failure = match outcome {
                Ok(payload) => match ShardResult::from_wire(&payload).and_then(|result| {
                    result.check(&self.specs[job.idx], self.planned)?;
                    Ok(result)
                }) {
                    Ok(result) => {
                        telemetry::on_shard_executed();
                        self.store(job.idx, result, hb_cases);
                        consecutive = 0;
                        continue;
                    }
                    Err(e) => {
                        telemetry::on_wire_protocol_fault();
                        WorkerFailure::Malformed(e)
                    }
                },
                Err(f) => f,
            };
            // The worker failed this shard: count the death, roll back
            // its partial progress, and decide the shard's future.
            self.progress
                .cases_done
                .fetch_sub(hb_cases, Ordering::Relaxed);
            if let Some(h) = worker.take() {
                h.reap(false);
                self.progress.workers_live.fetch_sub(1, Ordering::Relaxed);
            }
            telemetry::on_worker_death();
            self.progress.worker_deaths.fetch_add(1, Ordering::Relaxed);
            consecutive += 1;
            job.attempts += 1;
            let what = match &failure {
                WorkerFailure::Died(e) => format!("died ({e})"),
                WorkerFailure::Hung => format!(
                    "missed its {}ms heartbeat deadline",
                    self.deadline.as_millis()
                ),
                WorkerFailure::Malformed(e) => format!("returned a malformed reply ({e})"),
            };
            if job.attempts > self.max_retries {
                // Retry budget exhausted: last resort is the supervisor
                // executing the shard in-process — degraded, never
                // aborted.
                self.warn(format!(
                    "fleet worker pid {pid} {what} on shard {}; retry budget exhausted, \
                     executing in-process",
                    job.idx
                ));
                self.progress.degrade();
                let result = execute_shard(&self.specs[job.idx]);
                self.store(job.idx, result, 0);
            } else {
                let backoff = backoff_delay(job.attempts);
                self.warn(format!(
                    "fleet worker pid {pid} {what} on shard {}; requeued with {}ms backoff \
                     (attempt {} of {})",
                    job.idx,
                    backoff.as_millis(),
                    job.attempts,
                    self.max_retries,
                ));
                telemetry::on_shard_retry(backoff.as_millis() as u64);
                telemetry::on_shard_requeue();
                self.progress.shard_retries.fetch_add(1, Ordering::Relaxed);
                job.ready_at = Instant::now() + backoff;
                self.queue.push(job);
            }
            if consecutive >= self.quarantine_after {
                self.warn(format!(
                    "fleet supervisor quarantined a worker slot after {consecutive} \
                     consecutive failures"
                ));
                telemetry::on_worker_quarantined();
                return;
            }
        }
        if let Some(h) = worker.take() {
            h.reap(true);
            self.progress.workers_live.fetch_sub(1, Ordering::Relaxed);
        }
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
    let muts = catalog::catalog_for(os);
    let preps = Mode::Crashcon.preps(os, cfg, &muts, 0..muts.len());
    let epoch = Epoch::open();
    let template = ShardSpec::template(Mode::Crashcon, os, *cfg, true);
    let progress = FleetProgress::default();
    let (pass, workers) = fleet_pass(&template, fleet, &preps, &progress, &epoch);
    crashcon::pass_report(os, &preps, pass, epoch, workers)
}

/// [`run_campaign_fleet`] with live progress: the supervisor (or the
/// thread pool) updates `progress` as shards complete, so the serving
/// layer can answer in-flight `GET /campaign/<fp>` requests with real
/// shard/case counts.
#[must_use]
pub fn run_campaign_fleet_observed(
    os: OsVariant,
    cfg: &CampaignConfig,
    fleet: &FleetConfig,
    progress: Option<&FleetProgress>,
) -> CampaignReport {
    run_fleet_engine(Mode::Classic, os, cfg, fleet, progress)
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
    progress: Option<&FleetProgress>,
) -> CampaignReport {
    let own_progress = FleetProgress::default();
    let progress = progress.unwrap_or(&own_progress);
    let muts = catalog::catalog_for(os);
    let preps = mode.preps(os, cfg, &muts, 0..muts.len());
    let epoch = Epoch::open();
    let tc = TraceCollector::begin(os, cfg.cap as u64);
    let template = ShardSpec::template(mode, os, *cfg, tc.is_some());
    let (pass, workers) = fleet_pass(&template, fleet, &preps, progress, &epoch);
    let mut report = replay_report(os, cfg, &preps, pass, tc, epoch, workers);
    report.fleet_degraded = progress.degraded.load(Ordering::Relaxed);
    report
}

/// The fleet pass every mode shares: cuts the catalog into the fleet's
/// shards of `template`, runs them — on supervised worker processes
/// when `fleet.process` is set, degrading to the in-process pool for
/// whatever they leave, else on the pool directly — and merges the
/// shard results at their catalog indices. Returns the merged pass and
/// the worker count.
fn fleet_pass(
    template: &ShardSpec,
    fleet: &FleetConfig,
    preps: &[PreparedMut<'_>],
    progress: &FleetProgress,
    epoch: &Epoch,
) -> (ShardResult, usize) {
    let n = preps.len();
    let shard_count = fleet.effective_shards(n);
    let workers = fleet.effective_workers().min(shard_count);
    progress
        .shards_total
        .store(shard_count as u64, Ordering::Relaxed);
    let specs: Vec<ShardSpec> = (0..shard_count)
        .map(|s| ShardSpec {
            mut_start: s * n / shard_count,
            mut_end: (s + 1) * n / shard_count,
            ..template.clone()
        })
        .collect();
    let slots: Vec<Mutex<Option<ShardResult>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    let warnings = Mutex::new(Vec::new());
    let mut todo: Vec<usize> = (0..shard_count).collect();
    if fleet.process {
        let degraded = match worker_command() {
            Some(cmd) => {
                let wire: Vec<Vec<u8>> = specs.iter().map(ShardSpec::to_wire).collect();
                let planned: Vec<usize> = preps.iter().map(|p| p.plan.cases.len()).collect();
                let sup = Supervisor {
                    specs: &specs,
                    wire: &wire,
                    planned: &planned,
                    slots: &slots,
                    queue: ShardQueue::new(shard_count),
                    progress,
                    warnings: &warnings,
                    cmd,
                    deadline: heartbeat_deadline(&template.cfg),
                    max_retries: fleet.effective_max_shard_retries(),
                    quarantine_after: fleet.effective_quarantine_after(),
                };
                std::thread::scope(|s| {
                    for _ in 0..workers {
                        s.spawn(|| sup.slot_loop());
                    }
                });
                // Every slot retired (quarantine or spawn failure) with
                // shards still pending: finish on the pool rather than
                // abort.
                todo = sup.queue.drain_pending().iter().map(|j| j.idx).collect();
                (!todo.is_empty()).then(|| {
                    format!(
                        "fleet degraded: no worker process survived; executing {} remaining \
                         shard(s) on the in-process pool",
                        todo.len()
                    )
                })
            }
            None => Some(
                "fleet degraded: no worker binary found (set BALLISTA_WORKER_CMD or \
                 install fleet_worker next to this executable); executing on the \
                 in-process pool"
                    .to_owned(),
            ),
        };
        if let Some(warning) = degraded {
            warnings
                .lock()
                .expect("fleet warnings poisoned")
                .push(warning);
            progress.degrade();
        }
    }
    let ran = claim_each(todo.len(), workers, epoch, |t| {
        let result = execute_shard(&specs[todo[t]]);
        progress
            .cases_done
            .fetch_add(result.case_count(), Ordering::Relaxed);
        progress.shards_done.fetch_add(1, Ordering::Relaxed);
        result
    });
    let mut results: Vec<Option<ShardResult>> = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("shard slot poisoned"))
        .collect();
    for (&i, result) in todo.iter().zip(ran) {
        results[i] = Some(result);
    }
    let mut pass = ShardResult::concat(
        results
            .into_iter()
            .map(|r| r.expect("every shard executed or degraded to the pool")),
    );
    pass.warnings
        .extend(warnings.into_inner().expect("fleet warnings poisoned"));
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
