//! Full-API campaigns and per-MuT tallies.
//!
//! A campaign runs every catalog MuT on one OS variant under the paper's
//! protocol: pool resolution, 5 000-cap sampling (identical across
//! variants), sequential execution with a shared residue session, stop on
//! Catastrophic (the crash "interrupts the testing process"), and an
//! in-isolation reproduction probe for the Table 3 `*` marks.
//!
//! # The parallel engine
//!
//! With [`CampaignConfig::parallelism`] above one, the campaign runs in
//! two phases that together reproduce the sequential semantics **bit for
//! bit** (asserted by the determinism tests):
//!
//! 1. **Clean pass** (parallel): worker threads shard the catalog at MuT
//!    granularity and execute every planned case on a zero-residue
//!    machine, recording a packed byte per case — raw outcome,
//!    exceptional-input bit, and whether the simulated OS *probed* the
//!    residue counter ([`sim_kernel::Kernel::probe_residue`]).
//! 2. **Replay pass** (sequential): the true session walks the records in
//!    catalog order. A case is re-executed only when it probed residue
//!    *and* the session residue is non-zero; everything else reuses its
//!    recorded outcome. This is sound because residue is only readable
//!    through the probe: control flow up to the first probe cannot depend
//!    on residue, so a case that did not probe at residue zero takes the
//!    identical path (and outcome) at any residue.

use crate::adaptive::{self, AdaptiveConfig};
use crate::catalog;
use crate::crash::{self, classify, FailureClass, RawOutcome};
use crate::crashcon::{self, CaseVerdict};
use crate::datatype::TypeRegistry;
use crate::exec::{
    self, reproduce_in_isolation, CaseResult, CaseRunner, Session, DEFAULT_FUEL_BUDGET,
};
use crate::fleet::{Heartbeat, ShardResult, WireCleanMut};
use crate::journal::{PlanHasher, Resume};
use crate::muts::Mut;
use crate::sampling::{self, Plan, PAPER_CAP};
use crate::telemetry::{self, CaseTrace, Counter, Counters, CountingFor, TraceCollector};
use crate::value::TestValue;
use serde::{Deserialize, Serialize};
use sim_kernel::variant::OsVariant;
use std::convert::Infallible;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How many times a contained worker panic earns the MuT a rerun on
/// rebuilt templates before the MuT is quarantined.
const MAX_MUT_RETRIES: u32 = 1;

/// Campaign knobs.
///
/// The default is the paper's protocol: 5 000-case cap, isolation
/// probes on, automatic parallelism. Every tally-relevant knob is part
/// of the journal's plan fingerprint, so resuming under a different
/// config restarts rather than misapplies.
///
/// # Example
///
/// ```
/// use ballista::campaign::CampaignConfig;
///
/// // A quick scouting config: small cap, serial, default fuel budget.
/// let cfg = CampaignConfig {
///     cap: 200,
///     parallelism: 1,
///     ..CampaignConfig::default()
/// };
/// assert_eq!(cfg.workers(), 1);
/// assert_eq!(cfg.effective_fuel_budget(), ballista::exec::DEFAULT_FUEL_BUDGET);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Per-MuT test-case cap (the paper used 5000).
    pub cap: usize,
    /// Record the per-case packed record bytes (needed for the Figure 2
    /// voting analysis; costs one byte per case).
    pub record_raw: bool,
    /// Probe crashing cases in isolation to assign the `*` mark.
    pub isolation_probe: bool,
    /// Ablation knob: reset the session residue before every test case,
    /// simulating perfect inter-test cleanup. Under perfect cleanup the
    /// paper's `*`-marked (interference-dependent) Catastrophic failures
    /// cannot fire — running a campaign both ways isolates exactly which
    /// crashes depend on harness residue.
    pub perfect_cleanup: bool,
    /// Worker threads for the clean-outcome pass and the adaptive
    /// explore (at most two there). `1` keeps the exact legacy
    /// sequential control flow; `0` (the default, and what deserializing
    /// old configs yields) picks the machine's available parallelism.
    /// Tallies and pinned plans are bit-identical at every setting.
    #[serde(default)]
    pub parallelism: usize,
    /// Per-case watchdog fuel budget in simulated work units. `0` (the
    /// default, and what deserializing old configs yields) resolves to
    /// [`DEFAULT_FUEL_BUDGET`]; [`u64::MAX`] is effectively unlimited.
    /// Fuel is simulated work — never wall clock — so the budget yields
    /// identical outcomes on every host and at every parallelism.
    #[serde(default)]
    pub fuel_budget: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            cap: PAPER_CAP,
            record_raw: false,
            isolation_probe: true,
            perfect_cleanup: false,
            parallelism: 0,
            fuel_budget: 0,
        }
    }
}

impl CampaignConfig {
    /// The effective worker-thread count: `parallelism`, with `0`
    /// resolving to the machine's available parallelism.
    #[must_use]
    pub fn workers(&self) -> usize {
        match self.parallelism {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        }
    }

    /// The effective per-case fuel budget: `fuel_budget`, with `0`
    /// resolving to [`DEFAULT_FUEL_BUDGET`].
    #[must_use]
    pub fn effective_fuel_budget(&self) -> u64 {
        match self.fuel_budget {
            0 => DEFAULT_FUEL_BUDGET,
            n => n,
        }
    }
}

/// The content address of a campaign: a stable FNV-1a fingerprint of
/// everything that determines the campaign's results.
///
/// Folds in the OS variant, every result-relevant [`CampaignConfig`]
/// knob (cap, raw recording, perfect cleanup, the *effective* fuel
/// budget, the isolation-probe switch, and the raw `parallelism`
/// setting) plus the per-MuT sampling plan — MuT names and planned case
/// counts, which implicitly pin the catalog and the name-derived
/// sampling seeds. Two campaign requests share a fingerprint **iff**
/// they are the same campaign, so the fingerprint is simultaneously:
///
/// * the write-ahead journal's plan hash (a journal is resumed only
///   under a matching fingerprint — see [`crate::journal`]),
/// * the key of the content-addressed result cache
///   ([`crate::cache::ResultCache`]): any config or catalog change
///   changes the key, so stale entries are unreachable by construction,
/// * the campaign identifier the fleet server exposes over HTTP
///   (`GET /campaign/<fingerprint>` — see [`crate::server`]).
///
/// `parallelism` is hashed as the raw knob (not the resolved
/// [`CampaignConfig::workers`] count), so `parallelism: 0` ("auto")
/// fingerprints identically on every host.
///
/// Renders as (and parses from) 16 lowercase hex digits.
///
/// # Example
///
/// ```
/// use ballista::campaign::{fingerprint, CampaignConfig, CampaignFingerprint};
/// use sim_kernel::variant::OsVariant;
///
/// let cfg = CampaignConfig { cap: 200, ..CampaignConfig::default() };
/// let fp = fingerprint(OsVariant::Win95, &cfg);
/// // Hex round-trip is lossless.
/// let parsed: CampaignFingerprint = fp.to_string().parse().unwrap();
/// assert_eq!(parsed, fp);
/// // Any result-relevant knob changes the fingerprint.
/// let bigger = CampaignConfig { cap: 500, ..cfg };
/// assert_ne!(fingerprint(OsVariant::Win95, &bigger), fp);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignFingerprint(u64);

impl CampaignFingerprint {
    /// Wraps a raw 64-bit fingerprint (e.g. one read back from a
    /// journal header).
    #[must_use]
    pub const fn from_u64(raw: u64) -> Self {
        CampaignFingerprint(raw)
    }

    /// The raw 64-bit value (what the journal header stores).
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for CampaignFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Parse error for [`CampaignFingerprint::from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintParseError;

impl fmt::Display for FingerprintParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("campaign fingerprint must be exactly 16 hex digits")
    }
}

impl std::error::Error for FingerprintParseError {}

impl FromStr for CampaignFingerprint {
    type Err = FingerprintParseError;

    /// Parses the canonical 16-hex-digit form (case-insensitive). The
    /// length is checked strictly so a truncated fingerprint — say, a
    /// torn URL — cannot silently alias a different campaign.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 16 {
            return Err(FingerprintParseError);
        }
        u64::from_str_radix(s, 16)
            .map(CampaignFingerprint)
            .map_err(|_| FingerprintParseError)
    }
}

impl Serialize for CampaignFingerprint {
    fn serialize(&self, w: &mut serde::Writer) {
        w.str(&self.to_string());
    }
}

impl Deserialize for CampaignFingerprint {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        r.string("expected fingerprint string")?
            .parse()
            .map_err(|e: FingerprintParseError| serde::Error::custom(e))
    }
}

/// Computes the [`CampaignFingerprint`] of `(os, cfg)` — the exact hash
/// the journaled engine stamps into its header and the result cache
/// keys on. Reads each MuT's name and pool sizes off the variant's
/// prepared catalog (built once per process), so it draws no plan,
/// resolves no pool and allocates nothing.
#[must_use]
pub fn fingerprint(os: OsVariant, cfg: &CampaignConfig) -> CampaignFingerprint {
    Mode::Classic.fingerprint(os, cfg)
}

/// The smallest cap at which every plan of `os` is exhaustive: the
/// largest full product of its catalog (262 656 on the desktop variants
/// past Windows 95). A larger cap plans the same cases under another
/// fingerprint.
#[must_use]
pub fn exhaustive_cap(os: OsVariant) -> usize {
    catalog::prepared(os).exhaustive_cap
}

/// Timing and machine-provisioning counters for one campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct CampaignStats {
    /// Worker threads used by the clean pass (1 = sequential path).
    pub parallelism: usize,
    /// Wall-clock for the whole campaign, milliseconds.
    pub wall_ms: f64,
    /// Executed cases per wall-clock second.
    pub cases_per_sec: f64,
    /// Machines provisioned by a full boot sequence.
    pub boots: u64,
    /// Machines provisioned by cloning a pre-booted snapshot.
    pub restores: u64,
    /// Milliseconds spent in full boots.
    pub boot_ms: f64,
    /// Milliseconds spent restoring snapshots.
    pub restore_ms: f64,
    /// Cases the replay pass re-executed because they probed residue
    /// under a non-zero session residue.
    pub replayed_cases: usize,
    /// Contained worker panics that earned a MuT a retry on rebuilt
    /// templates (absent in results written before the telemetry layer).
    #[serde(default)]
    pub quarantine_retries: u64,
    /// Journal durability syncs issued (0 for non-journaled engines;
    /// absent in results written before the telemetry layer).
    #[serde(default)]
    pub journal_fsyncs: u64,
    /// Restores served by resetting the resident machine in place —
    /// the dirty-state fast path. Subset of `restores`; absent in
    /// results written before batched execution.
    #[serde(default)]
    pub restores_fast: u64,
    /// Restores that deep-cloned the boot template (first case on a
    /// runner, legacy mode off). Subset of `restores`; absent in
    /// results written before batched execution.
    #[serde(default)]
    pub restores_full: u64,
    /// Machines provisioned for isolation probes. Counted apart from
    /// `restores`, so `restores` equals cases executed on this host
    /// (absent in results written before batched execution, where
    /// probes inflated `restores` by one per catastrophic MuT).
    #[serde(default)]
    pub probe_provisions: u64,
    /// Filesystem crash images the crashcon engine materialized (one
    /// pristine-tree clone per judged crash point; a log its verifier
    /// has already judged materializes none). Counted apart from
    /// `restores_fast`/`restores_full`: a crash-point snapshot is not a
    /// machine restore, and `restores` must keep equaling executed
    /// cases. 0 for the classic campaign engines.
    #[serde(default)]
    pub crashcon_snapshots: u64,
    /// Crash images remounted into the crashcon verification kernel.
    /// 0 for the classic campaign engines.
    #[serde(default)]
    pub crashcon_remounts: u64,
}

/// Per-MuT campaign results.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MutTally {
    /// Call name.
    pub name: String,
    /// Functional grouping.
    pub group: crate::muts::FunctionGroup,
    /// Cases executed (may be short of the plan when a crash interrupted).
    pub cases: usize,
    /// Cases planned (cap or exhaustive count).
    pub planned: usize,
    /// Abort failures.
    pub aborts: usize,
    /// Restart failures.
    pub restarts: usize,
    /// Ground-truth Silent failures (success reported on exceptional
    /// inputs).
    pub silents: usize,
    /// Robust error reports.
    pub error_reports: usize,
    /// Error reports on *entirely benign* inputs — suspected Hindering
    /// failures (the call cried wolf, or reported the wrong condition).
    /// A subset of `error_reports`; the paper could detect Hindering only
    /// "in some situations", and this oracle-based count carries the same
    /// caveat: a benign-looking combination can still be semantically
    /// invalid (e.g. two valid-but-unrelated handles).
    #[serde(default)]
    pub suspected_hindering: usize,
    /// Legitimate passes (success on benign inputs).
    pub passes: usize,
    /// Whether a Catastrophic failure occurred.
    pub catastrophic: bool,
    /// Whether the crash reproduced on a pristine machine (`false` ⇒ the
    /// paper's `*`: interference-dependent).
    pub crash_reproducible_in_isolation: Option<bool>,
    /// Per-case raw outcome bytes in execution order (present when
    /// `record_raw`; used by the voting analysis).
    #[serde(skip_serializing_if = "Vec::is_empty", default)]
    pub raw_outcomes: Vec<u8>,
}

impl MutTally {
    /// Abort failure rate over executed cases.
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        if self.cases == 0 {
            0.0
        } else {
            self.aborts as f64 / self.cases as f64
        }
    }

    /// Restart failure rate over executed cases.
    #[must_use]
    pub fn restart_rate(&self) -> f64 {
        if self.cases == 0 {
            0.0
        } else {
            self.restarts as f64 / self.cases as f64
        }
    }

    /// Ground-truth Silent failure rate over executed cases.
    #[must_use]
    pub fn silent_rate(&self) -> f64 {
        if self.cases == 0 {
            0.0
        } else {
            self.silents as f64 / self.cases as f64
        }
    }

    /// Combined Abort+Restart failure rate (the paper's headline per-MuT
    /// "robustness failure rate", where Silent is reported separately).
    #[must_use]
    pub fn failure_rate(&self) -> f64 {
        self.abort_rate() + self.restart_rate()
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "{}: {} cases, {:.1}% abort, {:.2}% restart, {:.1}% silent{}",
            self.name,
            self.cases,
            100.0 * self.abort_rate(),
            100.0 * self.restart_rate(),
            100.0 * self.silent_rate(),
            match (self.catastrophic, self.crash_reproducible_in_isolation) {
                (true, Some(true)) => ", CATASTROPHIC",
                (true, _) => ", *CATASTROPHIC (interference-dependent)",
                (false, _) => "",
            }
        )
    }
}

/// A full campaign's results on one OS.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The OS under test.
    pub os: OsVariant,
    /// Per-MuT tallies, in catalog order.
    pub muts: Vec<MutTally>,
    /// Total test cases executed.
    pub total_cases: usize,
    /// Timing/throughput counters (absent in results produced before the
    /// parallel engine; never part of the tally bit-identity contract).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stats: Option<CampaignStats>,
    /// Human-readable notes about degraded or resumed execution:
    /// quarantined MuTs, contained worker panics, template invalidations,
    /// journal recovery details. Empty for a clean, uninterrupted run
    /// (and never part of the tally bit-identity contract).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub warnings: Vec<String>,
    /// `true` when part of the campaign could not be executed (a MuT was
    /// quarantined after repeated harness faults), so the tallies are
    /// partial. Downstream tables must flag such data.
    #[serde(default, skip_serializing_if = "is_false")]
    pub degraded: bool,
    /// `true` when the fleet supervisor fell below full process-worker
    /// execution (worker spawn failure, quarantined slots, or a shard's
    /// retry budget exhausting) and some shards ran on the in-process
    /// pool instead. Unlike [`degraded`](Self::degraded), the tallies
    /// are still **complete and bit-identical to serial** — this marker
    /// plus the warnings only record that the process isolation was
    /// lost.
    #[serde(default, skip_serializing_if = "is_false")]
    pub fleet_degraded: bool,
}

pub(crate) fn is_false(b: &bool) -> bool {
    !*b
}

impl CampaignReport {
    /// Tallies for one functional group.
    #[must_use]
    pub fn group(&self, group: crate::muts::FunctionGroup) -> Vec<&MutTally> {
        self.muts.iter().filter(|m| m.group == group).collect()
    }

    /// Names of MuTs with Catastrophic failures.
    #[must_use]
    pub fn catastrophic_muts(&self) -> Vec<&MutTally> {
        self.muts.iter().filter(|m| m.catastrophic).collect()
    }
}

/// Resolves a MuT's parameter pools against the registry.
#[must_use]
pub fn resolve_pools(registry: &TypeRegistry, mut_: &Mut) -> Vec<Vec<TestValue>> {
    mut_.params.iter().map(|ty| registry.pool(ty)).collect()
}

/// Runs the campaign for a single MuT.
#[must_use]
pub fn run_mut_campaign(os: OsVariant, mut_: &Mut, cfg: &CampaignConfig) -> MutTally {
    let registry = &catalog::prepared(os).registry;
    run_mut_campaign_with(os, mut_, registry, cfg, &mut Session::new())
}

/// Campaign for one MuT with caller-provided registry and session (the
/// full-campaign path shares both across MuTs). This is the sequential
/// reference path; the parallel engine reproduces it bit for bit.
#[must_use]
pub fn run_mut_campaign_with(
    os: OsVariant,
    mut_: &Mut,
    registry: &TypeRegistry,
    cfg: &CampaignConfig,
    session: &mut Session,
) -> MutTally {
    let pools = resolve_pools(registry, mut_);
    let prep = PreparedMut {
        mut_,
        plan: plan_of(mut_, &pools, cfg.cap),
        pools: &pools,
    };
    sequential_mut(os, cfg, &prep, session, &mut None)
}

/// A MuT with its resolved pools and its plan — a view of the sample
/// stream its signature shares with every variant and every cap
/// ([`sampling::plan`]), reused by both engine phases.
pub(crate) struct PreparedMut<'a> {
    pub(crate) mut_: &'a Mut,
    pub(crate) pools: &'a [Vec<TestValue>],
    pub(crate) plan: Plan,
}

/// The plan of a MuT over `pools` at `cap`.
pub(crate) fn plan_of(mut_: &Mut, pools: &[Vec<TestValue>], cap: usize) -> Plan {
    if pools.is_empty() {
        Plan::single()
    } else {
        let dims: Vec<usize> = pools.iter().map(Vec::len).collect();
        sampling::plan(&dims, cap, mut_.name)
    }
}

pub(crate) fn empty_tally(mut_: &Mut, planned: usize) -> MutTally {
    MutTally {
        name: mut_.name.to_owned(),
        group: mut_.group,
        cases: 0,
        planned,
        aborts: 0,
        restarts: 0,
        silents: 0,
        error_reports: 0,
        passes: 0,
        catastrophic: false,
        crash_reproducible_in_isolation: None,
        raw_outcomes: Vec::new(),
        suspected_hindering: 0,
    }
}

/// What a campaign runs each MuT's cases for. Every engine is written
/// once over the mode, which owns only the three things the modes
/// differ in: each MuT's plan, the `(u8, u64)` record its residue-zero
/// pass writes per case, and the fingerprint tag. The tally type and its
/// fold stay per mode (DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// The paper's protocol over the fixed per-MuT samples.
    Classic,
    /// Crash-consistency verdicts over the fixed samples
    /// ([`crate::crashcon`]).
    Crashcon,
    /// The paper's protocol over an adaptive pinned plan
    /// ([`crate::adaptive`]).
    Adaptive(AdaptiveConfig),
}

impl Mode {
    /// Each MuT's plan for catalog positions `range` of `os`'s catalog,
    /// clamped to its length (`0..usize::MAX` is the whole catalog): the
    /// fixed sample, or the adaptive pin (explored on first use, then
    /// memoized per process — engines derive preps before opening their
    /// stats [`Epoch`], so explore cases never reach the campaign's
    /// counters). MuTs and pools borrow from the prepared catalog.
    pub(crate) fn preps(
        self,
        os: OsVariant,
        cfg: &CampaignConfig,
        range: Range<usize>,
    ) -> Vec<PreparedMut<'static>> {
        let muts = &catalog::prepared(os).muts;
        let pin = match self {
            Mode::Adaptive(acfg) => Some(adaptive::pinned_plan_shared(os, cfg, &acfg)),
            Mode::Classic | Mode::Crashcon => None,
        };
        let end = range.end.min(muts.len());
        (range.start.min(end)..end)
            .map(|i| PreparedMut {
                mut_: &muts[i].mut_,
                pools: &muts[i].pools,
                plan: pin
                    .as_ref()
                    .map_or_else(|| muts[i].plan(cfg.cap), |pin| pin.muts[i].plan.clone()),
            })
            .collect()
    }

    /// The campaign's [`CampaignFingerprint`], with the mode tag folded
    /// in first (`crashcon/1`, or `adaptive/1` plus the explore knobs) so
    /// no two modes share a journal or a cache entry. Each MuT's name and
    /// fixed planned count are hashed in every mode, read off the
    /// variant's prepared catalog: a pinned plan is a pure function of the
    /// knobs the tag folds, so addressing a campaign never explores, and
    /// a planned count is `min(cap, product)` of the stored pool sizes, so
    /// it never plans.
    pub(crate) fn fingerprint(self, os: OsVariant, cfg: &CampaignConfig) -> CampaignFingerprint {
        let mut h = PlanHasher::new();
        match self {
            Mode::Classic => {}
            Mode::Crashcon => h.write_str(crashcon::MODE_TAG),
            Mode::Adaptive(a) => h.write_str(&format!(
                "{};r{};s{};b{}",
                adaptive::MODE_TAG,
                a.effective_rounds(),
                a.seed,
                a.effective_rare_bonus()
            )),
        }
        h.write_str(os.short_name());
        h.write_u64(cfg.cap as u64);
        h.write_u64(u64::from(cfg.record_raw));
        h.write_u64(u64::from(cfg.perfect_cleanup));
        h.write_u64(cfg.effective_fuel_budget());
        // Result-relevant since the cached report carries the isolation
        // marks and the engine stats; raw `parallelism` (not `workers()`)
        // so auto fingerprints identically on every host.
        h.write_u64(u64::from(cfg.isolation_probe));
        h.write_u64(cfg.parallelism as u64);
        for m in &catalog::prepared(os).muts {
            h.write_str(m.mut_.name);
            h.write_u64(m.planned(cfg.cap) as u64);
        }
        CampaignFingerprint(h.finish())
    }

    /// One MuT's residue-zero pass: a `(u8, u64)` record per case — the
    /// packed outcome and its fuel for the classic pass (fuel only with
    /// `capture_fuel`), the packed verdict and its aux counts for
    /// crashcon.
    pub(crate) fn clean_mut(
        self,
        os: OsVariant,
        prep: &PreparedMut<'_>,
        fuel_budget: u64,
        capture_fuel: bool,
    ) -> WireCleanMut {
        match self {
            Mode::Crashcon => crashcon::crash_mut_records(os, prep, fuel_budget),
            Mode::Classic | Mode::Adaptive(_) => run_clean_mut(os, prep, fuel_budget, capture_fuel),
        }
    }

    /// Whether `(packed, aux)` is a record this mode's pass writes; the
    /// classic pass's aux is the case's fuel, which may take any value.
    pub(crate) fn decodes(self, packed: u8, aux: u64) -> bool {
        match self {
            Mode::Crashcon => CaseVerdict::decode(packed, aux).is_some(),
            Mode::Classic | Mode::Adaptive(_) => crash::unpack_case(packed).is_some(),
        }
    }
}

/// One campaign's stats epoch: the campaign's [`Counters`], counted into
/// by the thread that opens it until it drops (the worker pool and the
/// fleet supervisor count into them on their threads too). Opening it
/// counts the campaign begun; [`Epoch::close`] counts it finished and
/// reads the counters into the campaign's [`CampaignStats`].
pub(crate) struct Epoch {
    t0: Instant,
    pub(crate) counters: Arc<Counters>,
    _counting: CountingFor,
}

impl Epoch {
    /// Opens an epoch over `watched`, a counter set the caller holds to
    /// read the campaign while it runs, or over a fresh set.
    pub(crate) fn open(watched: Option<&Arc<Counters>>) -> Epoch {
        let counters = watched.map_or_else(Arc::default, Arc::clone);
        let counting = CountingFor::new(&counters);
        telemetry::count(Counter::CampaignsBegun, 1);
        Epoch {
            t0: Instant::now(),
            counters,
            _counting: counting,
        }
    }

    /// The campaign's stats, as its report carries them. Every case
    /// runner must have dropped (which flushes its batched restore
    /// counts) before the close.
    pub(crate) fn close(
        self,
        parallelism: usize,
        total_cases: usize,
        replayed_cases: usize,
        quarantine_retries: u64,
    ) -> Option<CampaignStats> {
        telemetry::count(Counter::CampaignsFinished, 1);
        let wall = self.t0.elapsed().as_secs_f64();
        let c = self.counters.snapshot();
        Some(CampaignStats {
            parallelism,
            wall_ms: wall * 1e3,
            cases_per_sec: total_cases as f64 / wall.max(1e-9),
            boots: c[Counter::Boots],
            restores: c[Counter::Restores],
            boot_ms: c[Counter::BootNanos] as f64 / 1e6,
            restore_ms: c[Counter::RestoreNanos] as f64 / 1e6,
            replayed_cases,
            quarantine_retries,
            journal_fsyncs: c[Counter::JournalFsyncs],
            restores_fast: c[Counter::RestoresFast],
            restores_full: c[Counter::RestoresFull],
            probe_provisions: c[Counter::ProbeProvisions],
            crashcon_snapshots: c[Counter::CrashconSnapshots],
            crashcon_remounts: c[Counter::CrashconRemounts],
        })
    }
}

/// The one worker pool: runs `job(state, i)` for every `i < n` on up to
/// `workers` threads, the calling thread included, each claiming the
/// next unclaimed index, and returns the outputs in index order.
///
/// A thread that claims a job first builds its `state` with `init`, once,
/// and hands it to every job it runs: a per-thread case runner, or a
/// guard that makes the thread count into a campaign's counters. Only
/// `workers - 1` threads are spawned, and none when there is at most one
/// job. A panic in a job re-raises here once every thread has stopped.
///
/// # Example
///
/// ```
/// use ballista::campaign::claim_each;
///
/// let squares = claim_each(5, 2, || 0u32, |runs, i| {
///     *runs += 1;
///     i * i
/// });
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn claim_each<S, T: Send>(
    n: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut state = None;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let out = job(state.get_or_insert_with(&init), i);
            *slots[i].lock().expect("pool slot poisoned") = Some(out);
        }
    };
    let ran = crossbeam::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.min(n)).map(|_| s.spawn(|_| claim())).collect();
        claim();
        for helper in helpers {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    if let Err(panic) = ran {
        std::panic::resume_unwind(panic);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("pool slot poisoned")
                .expect("every index claimed")
        })
        .collect()
}

/// The quarantine fence every engine runs a MuT under: a panic that
/// escapes the per-case fence (a harness bug, not a test outcome)
/// invalidates this thread's boot templates and earns the MuT one rerun;
/// a second fault quarantines the MuT (`None`) — the campaign degrades,
/// it does not die. Warnings and the retry count land in the caller's
/// sinks.
pub(crate) fn fenced<T>(
    name: &str,
    warnings: &mut Vec<String>,
    retries: &mut u64,
    mut attempt: impl FnMut() -> T,
) -> Option<T> {
    let mut faults = 0u32;
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            exec::fault::maybe_panic(name);
            attempt()
        }));
        if let Ok(out) = run {
            return Some(out);
        }
        // The panic may have left this thread's templates in an
        // arbitrary state; the retry starts from rebuilt ones.
        exec::invalidate_templates();
        faults += 1;
        if faults > MAX_MUT_RETRIES {
            telemetry::count(Counter::QuarantinedMuts, 1);
            warnings.push(format!(
                "quarantined {name}: {MAX_MUT_RETRIES} retry exhausted; its tally is empty and this report is partial"
            ));
            return None;
        }
        *retries += 1;
        telemetry::count(Counter::QuarantineRetries, 1);
        warnings.push(format!(
            "contained worker panic while testing {name}; retrying on fresh templates (attempt {faults})"
        ));
    }
}

/// The classic residue-zero pass of one MuT: its full plan at residue
/// zero, one packed record byte per case. Execution stops early at an
/// unprobed `SystemCrash` — the replay pass provably never advances past
/// it.
fn run_clean_mut(
    os: OsVariant,
    prep: &PreparedMut<'_>,
    fuel_budget: u64,
    capture_fuel: bool,
) -> WireCleanMut {
    let planned = prep.plan.len();
    let mut records = Vec::with_capacity(planned);
    let mut fuel = capture_fuel.then(|| Vec::with_capacity(planned));
    let mut clean = Session::new();
    let mut runner = CaseRunner::new();
    let mut cases = prep.plan.cases();
    for c_idx in 0..planned {
        clean.residue = 0;
        let combo = cases.get(c_idx);
        let r = runner.execute(os, prep.mut_, prep.pools, combo, &mut clean, fuel_budget);
        records.push(crash::pack_case(r.raw, r.any_exceptional, r.residue_probed));
        if let Some(fuel) = fuel.as_mut() {
            fuel.push(r.fuel_used);
        }
        if r.raw == RawOutcome::SystemCrash && !r.residue_probed {
            break;
        }
    }
    WireCleanMut { records, fuel }
}

/// The residue-zero pass over `preps` (catalog positions from
/// `mut_start`), each MuT under the quarantine fence: the unit of work of
/// a fleet shard and of the in-process clean pass. `on_mut` sees the
/// shard's cumulative progress after every MuT.
pub(crate) fn clean_range(
    mode: Mode,
    os: OsVariant,
    cfg: &CampaignConfig,
    preps: &[PreparedMut<'_>],
    mut_start: usize,
    capture_fuel: bool,
    on_mut: &mut dyn FnMut(Heartbeat),
) -> ShardResult {
    let mut out = ShardResult {
        mut_start,
        ..ShardResult::default()
    };
    let mut cases_done = 0u64;
    for prep in preps {
        telemetry::count(Counter::CasesPlanned, prep.plan.len() as u64);
        let clean = fenced(
            prep.mut_.name,
            &mut out.warnings,
            &mut out.quarantine_retries,
            || mode.clean_mut(os, prep, cfg.effective_fuel_budget(), capture_fuel),
        );
        cases_done += clean.as_ref().map_or(0, |c| c.records.len() as u64);
        out.muts.push(clean);
        on_mut(Heartbeat {
            muts_done: out.muts.len() as u64,
            cases_done,
        });
    }
    out
}

/// The in-process residue-zero pass over the whole catalog: MuTs claimed
/// one at a time on the worker pool, merged back in catalog order. Phase
/// 1 of the parallel engine, and the whole of the in-process crashcon
/// engine.
pub(crate) fn clean_pass(
    mode: Mode,
    os: OsVariant,
    cfg: &CampaignConfig,
    preps: &[PreparedMut<'_>],
    workers: usize,
    capture_fuel: bool,
    epoch: &Epoch,
) -> ShardResult {
    let counting = || CountingFor::new(&epoch.counters);
    ShardResult::concat(claim_each(preps.len(), workers, counting, |_, i| {
        clean_range(mode, os, cfg, &preps[i..=i], i, capture_fuel, &mut |_| {})
    }))
}

/// A recorded case's result, folded into the session as if it had just
/// run (the note is the only effect a case has on the session).
fn recorded(
    session: &mut Session,
    (raw, any_exceptional, residue_probed): (RawOutcome, bool, bool),
    fuel_used: u64,
) -> CaseResult {
    session.note(raw, any_exceptional);
    CaseResult {
        raw,
        class: classify(raw, any_exceptional),
        any_exceptional,
        residue_probed,
        fuel_used,
    }
}

/// Opens `prep`'s span in the trace, first discarding the current span
/// when `reopen` (the MuT's own span, left by a failed attempt).
fn open_span(tc: &mut Option<TraceCollector>, prep: &PreparedMut<'_>, reopen: bool) {
    if let Some(tc) = tc.as_mut() {
        if reopen {
            tc.abort_mut();
        }
        tc.begin_mut(prep.mut_.name, prep.mut_.group.label(), prep.plan.len());
    }
}

/// The classic fold: walks the first `cases` cases of `prep`'s plan
/// through the one true `session`, taking each result from `source` (a
/// live execution, a reused clean-pass record, or a journal record), and
/// folds it into the MuT's tally and the open trace span. Stops at the
/// first Catastrophic case after its isolation probe: "the system crash
/// interrupts the testing process, and the set of test cases run for
/// that function is incomplete." The single source of classic tally
/// semantics for the sequential, replay and journaled loops. `source`
/// gets the case index and decodes the case only if it executes it.
fn fold_mut<E>(
    os: OsVariant,
    cfg: &CampaignConfig,
    prep: &PreparedMut<'_>,
    cases: usize,
    session: &mut Session,
    tc: &mut Option<TraceCollector>,
    mut source: impl FnMut(usize, &mut Session) -> Result<CaseResult, E>,
) -> Result<MutTally, E> {
    let mut tally = empty_tally(prep.mut_, prep.plan.len());
    for c_idx in 0..cases.min(prep.plan.len()) {
        if cfg.perfect_cleanup {
            session.residue = 0;
        }
        let result = source(c_idx, session)?;
        telemetry::on_case_applied(result.class);
        tally.cases += 1;
        if cfg.record_raw {
            tally.raw_outcomes.push(crash::pack_case(
                result.raw,
                result.any_exceptional,
                result.residue_probed,
            ));
        }
        if let Some(tc) = tc.as_mut() {
            tc.record_case(CaseTrace {
                case_idx: c_idx as u32,
                raw: result.raw,
                class: result.class,
                any_exceptional: result.any_exceptional,
                residue_probed: result.residue_probed,
                fuel: result.fuel_used,
                residue_after: session.residue,
            });
        }
        match result.class {
            FailureClass::Catastrophic => {
                tally.catastrophic = true;
                if cfg.isolation_probe {
                    let combo = prep.plan.combo(c_idx);
                    tally.crash_reproducible_in_isolation =
                        Some(reproduce_in_isolation(os, prep.mut_, prep.pools, &combo));
                }
                break;
            }
            FailureClass::Restart => tally.restarts += 1,
            FailureClass::Abort => tally.aborts += 1,
            FailureClass::Silent => tally.silents += 1,
            FailureClass::Hindering => tally.error_reports += 1,
            FailureClass::Pass if result.raw == RawOutcome::ReturnedError => {
                tally.error_reports += 1;
                if !result.any_exceptional {
                    tally.suspected_hindering += 1;
                }
            }
            FailureClass::Pass => tally.passes += 1,
        }
    }
    crate::oracle::selfcheck::observe_tally(os, &tally);
    Ok(tally)
}

/// The sequential reference walk of one MuT: every case executes live
/// against the true session.
fn sequential_mut(
    os: OsVariant,
    cfg: &CampaignConfig,
    prep: &PreparedMut<'_>,
    session: &mut Session,
    tc: &mut Option<TraceCollector>,
) -> MutTally {
    let mut runner = CaseRunner::new();
    let fuel_budget = cfg.effective_fuel_budget();
    let mut cases = prep.plan.cases();
    let Ok(tally) = fold_mut::<Infallible>(os, cfg, prep, prep.plan.len(), session, tc, |c, s| {
        let combo = cases.get(c);
        Ok(runner.execute(os, prep.mut_, prep.pools, combo, s, fuel_budget))
    });
    tally
}

/// Phase 2: the true session walks the clean-pass records in catalog
/// order, re-executing exactly the cases whose outcome could depend on
/// accumulated residue (and any record that fails to decode). A
/// quarantined MuT (no records) contributes an empty tally and leaves
/// the session untouched. Returns the tallies plus the replay count.
fn replay_pass(
    os: OsVariant,
    cfg: &CampaignConfig,
    preps: &[PreparedMut<'_>],
    records: &[Option<WireCleanMut>],
    tc: &mut Option<TraceCollector>,
) -> (Vec<MutTally>, usize) {
    let mut session = Session::new();
    let mut replayed = 0usize;
    let mut runner = CaseRunner::new();
    let fuel_budget = cfg.effective_fuel_budget();
    let mut tallies = Vec::with_capacity(preps.len());
    for (prep, recs) in preps.iter().zip(records) {
        open_span(tc, prep, false);
        let Some(recs) = recs else {
            tallies.push(empty_tally(prep.mut_, prep.plan.len()));
            continue;
        };
        let reached = recs.records.len();
        let mut cases = prep.plan.cases();
        let Ok(tally) = fold_mut::<Infallible>(os, cfg, prep, reached, &mut session, tc, |c, s| {
            Ok(match crash::unpack_case(recs.records[c]) {
                // Reused, not re-executed: its fuel comes from the
                // clean-pass side channel. Sound because a reused case
                // either never probed residue (control flow — and fuel —
                // cannot depend on it) or ran at residue 0 both times.
                Some(rec @ (_, _, probed)) if !(probed && s.residue != 0) => recorded(
                    s,
                    rec,
                    recs.fuel
                        .as_ref()
                        .and_then(|f| f.get(c).copied())
                        .unwrap_or(0),
                ),
                _ => {
                    replayed += 1;
                    runner.execute(os, prep.mut_, prep.pools, cases.get(c), s, fuel_budget)
                }
            })
        });
        tallies.push(tally);
    }
    (tallies, replayed)
}

/// Submits the trace and assembles a classic-fold report, its stats
/// closed over the executed case total.
fn classic_report(
    os: OsVariant,
    muts: Vec<MutTally>,
    warnings: Vec<String>,
    degraded: bool,
    tc: Option<TraceCollector>,
    stats: impl FnOnce(usize) -> Option<CampaignStats>,
) -> CampaignReport {
    if let Some(tc) = tc {
        tc.finish();
    }
    let total_cases = muts.iter().map(|t| t.cases).sum();
    CampaignReport {
        os,
        muts,
        total_cases,
        stats: stats(total_cases),
        warnings,
        degraded,
        fleet_degraded: false,
    }
}

/// Phase 2 over a merged clean pass — in-process or from the fleet —
/// closed into the campaign's report.
pub(crate) fn replay_report(
    os: OsVariant,
    cfg: &CampaignConfig,
    preps: &[PreparedMut<'_>],
    pass: ShardResult,
    mut tc: Option<TraceCollector>,
    epoch: Epoch,
    workers: usize,
) -> CampaignReport {
    let degraded = pass.muts.iter().any(Option::is_none);
    let (tallies, replayed) = replay_pass(os, cfg, preps, &pass.muts, &mut tc);
    classic_report(os, tallies, pass.warnings, degraded, tc, |total| {
        epoch.close(workers, total, replayed, pass.quarantine_retries)
    })
}

/// Runs the full campaign: every catalog MuT for `os`, in parallel when
/// the config allows (see the module docs for why the tallies stay
/// bit-identical to the sequential path). Harness faults are contained
/// per MuT — a poisoned MuT degrades the report instead of killing the
/// campaign.
#[must_use]
pub fn run_campaign(os: OsVariant, cfg: &CampaignConfig) -> CampaignReport {
    run_mode(Mode::Classic, os, cfg)
}

/// The in-process engine behind [`run_campaign`] and
/// [`crate::adaptive::run_adaptive`]: the sequential walk at one worker,
/// else the clean pass on the pool and the replay pass.
pub(crate) fn run_mode(mode: Mode, os: OsVariant, cfg: &CampaignConfig) -> CampaignReport {
    let preps = mode.preps(os, cfg, 0..usize::MAX);
    let epoch = Epoch::open(None);
    let mut tc = TraceCollector::begin(os, cfg.cap as u64);
    let workers = cfg.workers().min(preps.len().max(1));
    if workers > 1 {
        let pass = clean_pass(mode, os, cfg, &preps, workers, tc.is_some(), &epoch);
        return replay_report(os, cfg, &preps, pass, tc, epoch, workers);
    }
    let mut session = Session::new();
    let mut warnings = Vec::new();
    let mut retries = 0u64;
    let mut degraded = false;
    let mut tallies = Vec::with_capacity(preps.len());
    for prep in &preps {
        let planned = prep.plan.len();
        telemetry::count(Counter::CasesPlanned, planned as u64);
        // Each attempt walks a copy of the session, committed only on
        // success, so a mid-MuT panic leaves no half-advanced session.
        // Once an attempt has opened the MuT's trace span, a retry
        // reopens it, so the failed attempt leaves no events behind.
        let mut opened = false;
        let done = fenced(prep.mut_.name, &mut warnings, &mut retries, || {
            open_span(&mut tc, prep, opened);
            opened = true;
            let mut attempt = session.clone();
            let tally = sequential_mut(os, cfg, prep, &mut attempt, &mut tc);
            (tally, attempt)
        });
        tallies.push(match done {
            Some((tally, attempt)) => {
                session = attempt;
                tally
            }
            None => {
                // The trace shows the quarantined MuT as an empty span,
                // same as the replay pass.
                open_span(&mut tc, prep, opened);
                degraded = true;
                empty_tally(prep.mut_, planned)
            }
        });
    }
    classic_report(os, tallies, warnings, degraded, tc, |total| {
        epoch.close(1, total, 0, retries)
    })
}

/// Runs (or resumes) a **journaled** campaign: every executed case is
/// appended to a write-ahead journal at `journal_path` before the next
/// case runs, so a killed campaign can be resumed with `resume = true`
/// and produce tallies **bit-identical** to an uninterrupted run.
///
/// Resumption replays the journal's packed records through the same
/// session/tally fold the live path uses — recorded outcomes *are* the
/// true sequential outcomes, so no case is re-executed except the
/// deterministic isolation probes — then continues executing from the
/// first unrecorded case. A journal written by a different plan
/// (variant, cap, budget, or catalog), or any torn/corrupted suffix, is
/// discarded rather than misapplied: execution restarts from the last
/// trusted record, never double-counting a case.
///
/// The journaled path is sequential (`parallelism` is ignored): the
/// journal's order *is* the sequential session order, which the parallel
/// engine reproduces bit for bit anyway.
///
/// # Example
///
/// ```no_run
/// use ballista::campaign::{run_campaign_journaled, CampaignConfig};
/// use sim_kernel::variant::OsVariant;
///
/// let cfg = CampaignConfig { cap: 200, ..CampaignConfig::default() };
/// let path = std::path::Path::new("results/win95.journal");
/// // First invocation writes the journal as it executes…
/// let report = run_campaign_journaled(OsVariant::Win95, &cfg, path, false)?;
/// // …and if that process had been killed, `resume = true` replays the
/// // journal prefix and picks up where it left off, bit-identically.
/// let resumed = run_campaign_journaled(OsVariant::Win95, &cfg, path, true)?;
/// assert_eq!(report.total_cases, resumed.total_cases);
/// # Ok::<(), std::io::Error>(())
/// ```
///
/// # Errors
///
/// Propagates journal I/O failures (the campaign cannot guarantee
/// resumability without its journal).
pub fn run_campaign_journaled(
    os: OsVariant,
    cfg: &CampaignConfig,
    journal_path: &Path,
    resume: bool,
) -> std::io::Result<CampaignReport> {
    run_journaled(Mode::Classic, os, cfg, journal_path, resume)
}

/// The journaled engine behind [`run_campaign_journaled`] and
/// [`crate::adaptive::run_adaptive_journaled`]: the sequential walk, each
/// case replayed from the journal's trusted prefix or executed and
/// appended to it. The header carries the mode's fingerprint, so a
/// journal is never resumed under another mode.
pub(crate) fn run_journaled(
    mode: Mode,
    os: OsVariant,
    cfg: &CampaignConfig,
    journal_path: &Path,
    resume: bool,
) -> std::io::Result<CampaignReport> {
    let preps = mode.preps(os, cfg, 0..usize::MAX);
    let hash = mode.fingerprint(os, cfg).as_u64();
    let epoch = Epoch::open(None);
    let mut tc = TraceCollector::begin(os, cfg.cap as u64);
    let mut cursor = Resume::open(journal_path, hash, resume)?;
    let fuel_budget = cfg.effective_fuel_budget();
    let mut session = Session::new();
    let mut runner = CaseRunner::new();
    let mut tallies = Vec::with_capacity(preps.len());
    for (m_idx, prep) in preps.iter().enumerate() {
        let planned = prep.plan.len();
        let mut cases = prep.plan.cases();
        telemetry::count(Counter::CasesPlanned, planned as u64);
        open_span(&mut tc, prep, false);
        tallies.push(fold_mut::<std::io::Error>(
            os,
            cfg,
            prep,
            planned,
            &mut session,
            &mut tc,
            |c_idx, s| {
                // A replayed record carries the fuel the case burned when it
                // originally ran — a pure function of the case.
                if let Some((rec, fuel)) =
                    cursor.replay(m_idx, c_idx, |p, _| crash::unpack_case(p))?
                {
                    return Ok(recorded(s, rec, fuel));
                }
                let combo = cases.get(c_idx);
                let r = runner.execute(os, prep.mut_, prep.pools, combo, s, fuel_budget);
                let packed = crash::pack_case(r.raw, r.any_exceptional, r.residue_probed);
                cursor.append(m_idx, c_idx, packed, r.fuel_used)?;
                Ok(r)
            },
        )?);
    }
    drop(runner);
    let (replayed, warnings) = cursor.finish()?;
    Ok(classic_report(os, tallies, warnings, false, tc, |total| {
        epoch.close(1, total, replayed, 0)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> CampaignConfig {
        CampaignConfig {
            cap: 120,
            record_raw: true,
            isolation_probe: true,
            perfect_cleanup: false,
            parallelism: 1,
            fuel_budget: 0,
        }
    }

    /// The pool's contract: outputs in index order at every width, a
    /// thread's state built at most once and only by that thread, and a
    /// job's panic raised again from the pool.
    #[test]
    fn claim_each_orders_outputs_inits_once_per_thread_and_reraises() {
        use std::collections::HashSet;
        use std::thread::{self, ThreadId};
        for n in [0usize, 1, 5, 64] {
            for workers in [1usize, 2, 3, 8] {
                let inits: Mutex<Vec<ThreadId>> = Mutex::default();
                let init = || {
                    let id = thread::current().id();
                    inits.lock().unwrap().push(id);
                    id
                };
                let out = claim_each(n, workers, init, |owner: &mut ThreadId, i| {
                    assert_eq!(*owner, thread::current().id(), "state crossed threads");
                    i * 3
                });
                let expect: Vec<usize> = (0..n).map(|i| i * 3).collect();
                assert_eq!(out, expect, "n {n}, workers {workers}");
                let inits = inits.into_inner().unwrap();
                let threads: HashSet<&ThreadId> = inits.iter().collect();
                assert_eq!(
                    threads.len(),
                    inits.len(),
                    "n {n}, workers {workers}: init ran twice"
                );
                assert!(
                    inits.len() <= workers.min(n),
                    "n {n}, workers {workers}: {inits:?}"
                );
            }
        }
        let failing = |_: &mut (), i: usize| {
            assert_ne!(i, 5, "job 5 fails");
            i
        };
        for workers in [1, 2, 3] {
            let raised = catch_unwind(|| claim_each(8, workers, || (), failing))
                .expect_err("a job's panic reaches the caller");
            let message = raised
                .downcast_ref::<String>()
                .expect("an assert's message");
            assert!(message.contains("job 5 fails"), "{message}");
        }
    }

    #[test]
    fn single_mut_campaign_runs() {
        let muts = catalog::catalog_for(OsVariant::Linux);
        let strlen = muts.iter().find(|m| m.name == "strlen").expect("strlen in catalog");
        let tally = run_mut_campaign(OsVariant::Linux, strlen, &quick_cfg());
        assert!(tally.cases > 0);
        assert!(tally.aborts > 0, "hostile string pointers must abort strlen");
        assert!(tally.error_reports + tally.passes > 0, "benign values must pass");
        assert!(!tally.catastrophic);
        assert_eq!(tally.raw_outcomes.len(), tally.cases);
        assert!(tally.abort_rate() > 0.0 && tally.abort_rate() < 1.0);
        assert!(tally.summary_line().contains("strlen"));
    }

    #[test]
    fn get_thread_context_campaign_matches_families() {
        let cfg = quick_cfg();
        for (os, expect_crash) in [
            (OsVariant::Win98, true),
            (OsVariant::Win95, true),
            (OsVariant::WinNt4, false),
            (OsVariant::Win2000, false),
        ] {
            let muts = catalog::catalog_for(os);
            let m = muts
                .iter()
                .find(|m| m.name == "GetThreadContext")
                .expect("in catalog");
            let tally = run_mut_campaign(os, m, &cfg);
            assert_eq!(tally.catastrophic, expect_crash, "{os}");
            if expect_crash {
                assert_eq!(
                    tally.crash_reproducible_in_isolation,
                    Some(true),
                    "{os}: GetThreadContext is Table 3's unstarred entry"
                );
                assert!(tally.cases <= tally.planned);
            }
        }
    }

    #[test]
    fn campaign_report_accessors() {
        let cfg = CampaignConfig {
            cap: 40,
            record_raw: false,
            isolation_probe: false,
            perfect_cleanup: false,
            parallelism: 1,
            fuel_budget: 0,
        };
        // Tiny campaign over a real catalog subset: use Linux and just
        // verify plumbing end-to-end on a handful of MuTs.
        let registry = catalog::registry_for(OsVariant::Linux);
        let muts: Vec<_> = catalog::catalog_for(OsVariant::Linux)
            .into_iter()
            .take(8)
            .collect();
        let mut session = Session::new();
        let tallies: Vec<_> = muts
            .iter()
            .map(|m| run_mut_campaign_with(OsVariant::Linux, m, &registry, &cfg, &mut session))
            .collect();
        let report = CampaignReport {
            os: OsVariant::Linux,
            total_cases: tallies.iter().map(|t| t.cases).sum(),
            muts: tallies,
            stats: None,
            warnings: Vec::new(),
            degraded: false,
            fleet_degraded: false,
        };
        assert!(report.total_cases > 0);
        assert!(report.catastrophic_muts().is_empty());
        let json = serde_json::to_string(&report).expect("serializable");
        assert!(json.contains("linux") || json.contains("Linux"));
    }

    /// Serial (`parallelism = 1`) and parallel (`parallelism = 8`)
    /// campaigns must produce **bit-identical** serialized tallies and
    /// the same Table 3 catastrophic sets — the parallel engine's core
    /// contract. Uses the two variants with the richest
    /// interference-dependent (`*`) behaviour.
    #[test]
    fn parallel_tallies_bit_identical_to_serial() {
        for os in [OsVariant::Win98, OsVariant::WinCe] {
            let serial = run_campaign(
                os,
                &CampaignConfig {
                    cap: 50,
                    record_raw: true,
                    isolation_probe: true,
                    perfect_cleanup: false,
                    parallelism: 1,
                    fuel_budget: 0,
                },
            );
            let parallel = run_campaign(
                os,
                &CampaignConfig {
                    cap: 50,
                    record_raw: true,
                    isolation_probe: true,
                    perfect_cleanup: false,
                    parallelism: 8,
                    fuel_budget: 0,
                },
            );
            assert_eq!(
                serde_json::to_string(&serial.muts).unwrap(),
                serde_json::to_string(&parallel.muts).unwrap(),
                "{os}: tallies diverged between serial and parallel engines"
            );
            let cat = |r: &CampaignReport| -> Vec<(String, Option<bool>)> {
                r.catastrophic_muts()
                    .iter()
                    .map(|t| (t.name.clone(), t.crash_reproducible_in_isolation))
                    .collect()
            };
            assert_eq!(cat(&serial), cat(&parallel), "{os}: Table 3 sets diverged");
            assert_eq!(serial.total_cases, parallel.total_cases);
            let stats = parallel.stats.expect("parallel stats present");
            assert_eq!(stats.parallelism, 8.min(parallel.muts.len()));
        }
    }

    #[test]
    fn stats_report_snapshot_provisioning() {
        let report = run_campaign(OsVariant::Linux, &quick_cfg());
        let stats = report.stats.expect("stats present");
        assert_eq!(stats.parallelism, 1);
        assert!(stats.wall_ms > 0.0);
        assert!(stats.cases_per_sec > 0.0);
        // The template cache means at most one boot per (thread, flavour);
        // everything else must be a snapshot restore.
        assert!(stats.restores > stats.boots);
        // Exact accounting: the serial engine executes each applied case
        // once and provisions exactly one restore per executed case —
        // isolation probes are billed separately.
        assert_eq!(stats.restores, report.total_cases as u64);
        assert_eq!(stats.restores_fast + stats.restores_full, stats.restores);
        assert!(
            stats.restores_fast > stats.restores_full,
            "batched execution must serve most cases by in-place reset"
        );
        let probed = report
            .muts
            .iter()
            .filter(|t| t.crash_reproducible_in_isolation.is_some())
            .count() as u64;
        assert_eq!(stats.probe_provisions, probed);
    }

    #[test]
    fn config_parallelism_defaults() {
        // Old serialized configs (no `parallelism` key) deserialize to
        // auto; `workers()` resolves auto to at least one thread.
        let old = r#"{"cap":100,"record_raw":false,"isolation_probe":true,"perfect_cleanup":false}"#;
        let cfg: CampaignConfig = serde_json::from_str(old).expect("old config parses");
        assert_eq!(cfg.parallelism, 0);
        assert!(cfg.workers() >= 1);
        assert_eq!(
            CampaignConfig {
                parallelism: 3,
                fuel_budget: 0,
                ..CampaignConfig::default()
            }
            .workers(),
            3
        );
        // Same scheme for the fuel budget: absent key → 0 → default.
        assert_eq!(cfg.fuel_budget, 0);
        assert_eq!(cfg.effective_fuel_budget(), DEFAULT_FUEL_BUDGET);
        assert_eq!(
            CampaignConfig {
                fuel_budget: 77,
                ..CampaignConfig::default()
            }
            .effective_fuel_budget(),
            77
        );
    }

    /// Satellite: the watchdog's hang conversion surfaces as `Restart`
    /// in a real campaign tally. `SleepEx` plans five `msec` cases on a
    /// desktop variant: `INFINITE` hangs outright and `0xFFFF_FFFE`
    /// exhausts the fuel budget — both must land in the Restart column,
    /// and the three benign durations must pass.
    #[test]
    fn sleep_ex_watchdog_restarts_tallied() {
        for os in [OsVariant::WinNt4, OsVariant::Win95] {
            let muts = catalog::catalog_for(os);
            let sleep_ex = muts
                .iter()
                .find(|m| m.name == "SleepEx")
                .expect("SleepEx in desktop catalog");
            let tally = run_mut_campaign(os, sleep_ex, &quick_cfg());
            assert_eq!(tally.planned, 5, "{os}: msec pool has five values");
            assert_eq!(tally.cases, 5, "{os}: no case may stall or crash");
            assert_eq!(
                tally.restarts, 2,
                "{os}: INFINITE hang + fuel-exhausted 0xFFFFFFFE"
            );
            assert_eq!(tally.passes, 3, "{os}: the benign durations pass");
            assert!(!tally.catastrophic);
        }
        assert!(
            !catalog::catalog_for(OsVariant::WinCe)
                .iter()
                .any(|m| m.name == "SleepEx"),
            "SleepEx is not in the CE subset"
        );
    }

    /// A fresh journaled run must equal the plain sequential campaign,
    /// and resuming a *completed* journal must replay every case (zero
    /// re-executions) to the identical report.
    #[test]
    fn journaled_run_matches_plain_and_resumes_complete() {
        let os = OsVariant::Win98;
        let cfg = CampaignConfig {
            cap: 30,
            record_raw: true,
            isolation_probe: true,
            perfect_cleanup: false,
            parallelism: 1,
            fuel_budget: 0,
        };
        let dir = std::env::temp_dir().join("ballista-campaign-journal-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("w98.jrn");
        let _ = std::fs::remove_file(&path);

        let plain = run_campaign(os, &cfg);
        let fresh = run_campaign_journaled(os, &cfg, &path, false).expect("journaled run");
        assert_eq!(
            serde_json::to_string(&plain.muts).unwrap(),
            serde_json::to_string(&fresh.muts).unwrap(),
            "fresh journaled run diverged from the plain campaign"
        );
        assert!(fresh.warnings.is_empty(), "{:?}", fresh.warnings);

        let resumed = run_campaign_journaled(os, &cfg, &path, true).expect("resumed run");
        assert_eq!(
            serde_json::to_string(&plain.muts).unwrap(),
            serde_json::to_string(&resumed.muts).unwrap(),
            "resume over a complete journal diverged"
        );
        let stats = resumed.stats.expect("stats");
        assert_eq!(
            stats.replayed_cases, resumed.total_cases,
            "a complete journal replays everything"
        );
        assert!(
            resumed.warnings.iter().any(|w| w.contains("resumed from journal")),
            "{:?}",
            resumed.warnings
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A journal written under one plan (different cap) must not be
    /// replayed into another: the plan-hash check forces a fresh start
    /// with an explicit warning.
    #[test]
    fn journal_plan_mismatch_restarts_fresh() {
        let os = OsVariant::Linux;
        let dir = std::env::temp_dir().join("ballista-campaign-journal-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("mismatch.jrn");
        let _ = std::fs::remove_file(&path);
        let small = CampaignConfig {
            cap: 10,
            ..quick_cfg()
        };
        let big = CampaignConfig {
            cap: 20,
            ..quick_cfg()
        };
        run_campaign_journaled(os, &small, &path, false).expect("seed journal");
        let resumed = run_campaign_journaled(os, &big, &path, true).expect("mismatched resume");
        assert!(
            resumed.warnings.iter().any(|w| w.contains("no usable journal")),
            "{:?}",
            resumed.warnings
        );
        assert_eq!(
            serde_json::to_string(&resumed.muts).unwrap(),
            serde_json::to_string(&run_campaign(os, &big).muts).unwrap(),
            "fresh restart after mismatch diverged"
        );
        let _ = std::fs::remove_file(&path);
    }
}
