//! Campaign observability: structured tracing, a metrics registry, and
//! flamegraph-ready profiling hooks — zero-cost when disabled.
//!
//! The paper's campaigns emit only final tallies; this module makes a
//! running campaign *observable* without touching its semantics. Three
//! layers, all optional and all off by default:
//!
//! 1. **Structured tracing** — every campaign engine (serial, parallel,
//!    journaled) stages per-case events in a thread-confined
//!    [`EventRing`] and drains them into a [`CampaignTrace`]
//!    (campaign → MuT → case spans, each carrying the CRASH class, raw
//!    outcome, fuel burned and post-case residue).
//!    [`write_chrome_trace`] renders the trace as line-oriented JSON in
//!    the Chrome Trace Event format, directly loadable in
//!    `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//! 2. **A metrics registry** — the host [`Counter`]s, declared once and
//!    counted once per event by [`count`] into the set of the campaign
//!    the thread works for and into the hub's, beside deterministic
//!    counters (cases applied, CRASH-class counts) and log₂
//!    [`Histogram`]s (boot/restore latency, journal fsync latency,
//!    retry backoff), snapshotted by [`Hub::metrics_snapshot`] into
//!    `results/metrics.json`. A campaign's `CampaignStats`, a fleet
//!    campaign's in-flight progress and the live ticker read the same
//!    counter sets.
//! 3. **Profiling hooks** — when [`TelemetryConfig::profile`] is set,
//!    every executed case's per-subsystem fuel ledger
//!    ([`sim_kernel::SubsystemFuel`]) is folded into a per-MuT-family
//!    profile and rendered by [`Hub::collapsed_stacks`] in the
//!    collapsed-stack format `inferno`/`flamegraph.pl` consume.
//!
//! # Determinism
//!
//! Telemetry reads the **simulated** clock and fuel meter, never the
//! host clock. The trace's time axis is cumulative fuel in session
//! order (1 fuel unit ≈ 1 simulated ms, rendered as 1 µs of trace
//! time), and a trace contains only engine-independent data — so the
//! serial, parallel and journaled engines produce **bit-identical**
//! trace files for the same plan, which `telemetry_determinism`
//! asserts. Engine-dependent observations (wall clock, boot/restore
//! timing, fsync latency, replay counts) live in the *host* half of
//! [`MetricsSnapshot`], which is explicitly outside the bit-identity
//! contract. See `OBSERVABILITY.md` for the operator guide.
//!
//! # Cost when disabled
//!
//! With no hub installed, [`enabled`] is a single relaxed atomic load
//! and no telemetry path allocates — [`allocation_count`] instruments
//! every allocation this module makes, and the determinism tests assert
//! the count stays flat across a full campaign with telemetry off.

use crate::crash::{FailureClass, RawOutcome};
use serde::Serialize;
use sim_kernel::subsystem::{Subsystem, SubsystemFuel};
use sim_kernel::variant::OsVariant;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::ops::Index;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Fast-path flag mirroring "a hub is installed". Everything the hot
/// paths consult before doing telemetry work.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// The installed hub. `RwLock` (not `Mutex`) because the steady state is
/// many concurrent readers on worker threads and exactly two writers
/// (install/uninstall) per campaign.
static HUB: RwLock<Option<Arc<Hub>>> = RwLock::new(None);

/// Self-instrumented allocation counter: every heap allocation the
/// telemetry layer knowingly performs bumps it. The zero-overhead test
/// runs a campaign with no hub installed and asserts this stays flat.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Allocations the telemetry layer has performed so far (process-wide).
#[must_use]
pub fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Whether a telemetry hub is installed (one relaxed atomic load — the
/// entire cost of the observability layer when it is off).
#[must_use]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Which telemetry layers are on. All default to off; see
/// `OBSERVABILITY.md` for the activation flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Collect per-case traces and the deterministic fuel histogram.
    pub trace: bool,
    /// Fold per-subsystem fuel ledgers into the flamegraph profile.
    pub profile: bool,
}

impl TelemetryConfig {
    /// Tracing and metrics on, profiling off — the everyday setting.
    #[must_use]
    pub fn tracing() -> Self {
        TelemetryConfig {
            trace: true,
            profile: false,
        }
    }

    /// Everything on.
    #[must_use]
    pub fn all() -> Self {
        TelemetryConfig {
            trace: true,
            profile: true,
        }
    }

    /// Reads the activation environment variables: `BALLISTA_TELEMETRY`
    /// (non-empty, not `0`) turns tracing + metrics on;
    /// `TELEMETRY_PROFILE` additionally turns profiling on (and implies
    /// telemetry). `None` when neither is set — the caller should not
    /// install a hub at all.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let on = |name: &str| {
            std::env::var(name)
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false)
        };
        let profile = on("TELEMETRY_PROFILE");
        let trace = on("BALLISTA_TELEMETRY") || profile;
        if trace {
            Some(TelemetryConfig { trace, profile })
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------
// Host counters
// ---------------------------------------------------------------------

/// Declares the host counters: each one's doc, variant and JSON key.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $variant:ident => $key:literal,)+) => {
        /// One host counter: an engine- and machine-dependent count,
        /// outside every bit-identity contract. This list is the only
        /// declaration of a host count. A [`Counters`] set keeps one
        /// atomic per counter; `CampaignStats`, a fleet campaign's
        /// in-flight progress, the host half of `metrics.json` and the
        /// live ticker all read these sets.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl Counter {
            /// Every counter, in `metrics.json` order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant),+];

            /// The counter's key in `metrics.json`.
            #[must_use]
            pub const fn key(self) -> &'static str {
                match self {
                    $(Counter::$variant => $key,)+
                }
            }
        }
    };
}

counters! {
    /// Cases executed on this host (an engine that replays recorded
    /// outcomes executes fewer than it applies). Counted in the hub only.
    CasesExecuted => "cases_executed",
    /// Cases planned for the MuTs that entered execution (every engine
    /// reports each MuT once, so it converges on a campaign's case total).
    CasesPlanned => "cases_planned",
    /// Machines provisioned by a full boot.
    Boots => "boots",
    /// Host nanoseconds spent in full boots.
    BootNanos => "boot_nanos",
    /// Machines provisioned from a boot snapshot, one per executed case.
    Restores => "restores",
    /// Restores served by resetting a resident machine in place
    /// (dirty-region rollback; subset of `restores`).
    RestoresFast => "restores_fast",
    /// Restores that deep-cloned the boot template (subset of
    /// `restores`).
    RestoresFull => "restores_full",
    /// Host nanoseconds spent restoring; in-place resets outside a hub
    /// are timed 1 in 64 and scaled up.
    RestoreNanos => "restore_nanos",
    /// Machines provisioned for isolation probes. Counted apart from
    /// `restores`, so `restores` equals cases executed.
    ProbeProvisions => "probe_provisions",
    /// Cached boot templates dropped because they restored a dead
    /// machine.
    TemplateInvalidations => "template_invalidations",
    /// Journal records appended.
    JournalAppends => "journal_appends",
    /// Journal `fsync`s issued.
    JournalFsyncs => "journal_fsyncs",
    /// Contained worker panics that earned a MuT a retry.
    QuarantineRetries => "quarantine_retries",
    /// MuTs quarantined after exhausting their retries.
    QuarantinedMuts => "quarantined_muts",
    /// Oracle selfcheck violations observed.
    SelfcheckFailures => "selfcheck_failures",
    /// Result-cache lookups served (from the memory front or disk).
    CacheHits => "cache_hits",
    /// Result-cache lookups that found no valid entry.
    CacheMisses => "cache_misses",
    /// Memory-front cache entries evicted by the LRU capacity.
    CacheEvictions => "cache_evictions",
    /// Campaign requests coalesced onto an identical in-flight campaign
    /// instead of executing their own.
    RequestsCoalesced => "requests_coalesced",
    /// Campaigns begun.
    CampaignsBegun => "campaigns_begun",
    /// Campaigns finished.
    CampaignsFinished => "campaigns_finished",
    /// Catastrophic cases folded into tallies. Counted in the hub only.
    Catastrophics => "catastrophics",
    /// Shards fleet campaigns were cut into.
    ShardsTotal => "shards_total",
    /// Fleet shards merged into their campaign.
    ShardsDone => "shards_done",
    /// Fleet shards executed to completion.
    ShardsExecuted => "shards_executed",
    /// Clean-pass cases of fleet shards executed so far (heartbeat
    /// granular for worker processes, shard granular for threads; a
    /// failed attempt takes its cases back).
    CasesDone => "cases_done",
    /// Supervised fleet workers that died, hung past their heartbeat
    /// deadline, or replied with garbage mid-campaign.
    WorkerDeaths => "worker_deaths",
    /// Replacement worker processes spawned into a slot after a death.
    WorkerRespawns => "worker_respawns",
    /// Worker processes alive now (a gauge: a reaped worker takes its
    /// count back).
    WorkersLive => "workers_live",
    /// Worker slots quarantined after consecutive failures.
    WorkersQuarantined => "workers_quarantined",
    /// Shards re-executed after a worker failure.
    ShardRetries => "shard_retries",
    /// Shards pushed back onto the supervisor queue to wait for a
    /// healthy worker.
    ShardRequeues => "shard_requeues",
    /// Malformed wire buffers (spec or result) rejected by the engine.
    WireProtocolFaults => "wire_protocol_faults",
    /// Fleet campaigns that degraded from process workers to the
    /// in-process thread pool (at most one per campaign).
    FleetDegradations => "fleet_degradations",
    /// Crashcon filesystem crash images materialized (one pristine-tree
    /// clone per judged crash point; never counted under `restores`).
    CrashconSnapshots => "crashcon_snapshots",
    /// Crashcon crash images remounted into the verification kernel.
    CrashconRemounts => "crashcon_remounts",
    /// Adaptive explore rounds completed on this host. Exploration is
    /// memoized per process: an engine that reuses a pinned plan runs
    /// zero rounds.
    AdaptiveRounds => "adaptive_rounds",
    /// Pool values first touched during adaptive exploration (summed
    /// over rounds: the area under the coverage-gain curve).
    AdaptiveCoverageGain => "adaptive_coverage_gain",
    /// Cases frozen into adaptive pinned plans on this host.
    AdaptivePinnedCases => "adaptive_pinned_cases",
    /// Explore commits that rolled back cases drawn after them (a first
    /// rare flag, or a discarded crash, with later draws in the window).
    AdaptiveRollbacks => "adaptive_rollbacks",
    /// Speculative explore cases the pool ran whose outcome a rollback
    /// threw away, each replaced by a redrawn case run again. They count
    /// in `cases_executed` and `restores` but never reach the profile.
    AdaptiveReexecutedCases => "adaptive_reexecuted_cases",
}

/// A wait-free set of host counters, one atomic per [`Counter`]. The hub
/// keeps one for the process, and every campaign keeps its own.
#[derive(Debug)]
pub struct Counters([AtomicU64; Counter::ALL.len()]);

impl Default for Counters {
    fn default() -> Self {
        Counters([const { AtomicU64::new(0) }; Counter::ALL.len()])
    }
}

impl Counters {
    /// Adds `n` to `counter`, wrapping (so [`uncount`] can take counts
    /// back).
    pub fn add(&self, counter: Counter, n: u64) {
        self.0[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of `counter`.
    #[must_use]
    pub fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize].load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }
}

/// A point-in-time copy of a [`Counters`] set, indexed by [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts([u64; Counter::ALL.len()]);

impl Default for Counts {
    fn default() -> Self {
        Counts([0; Counter::ALL.len()])
    }
}

impl Index<Counter> for Counts {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

thread_local! {
    /// The counter set of the campaign this thread works for, if any.
    static CAMPAIGN: RefCell<Option<Arc<Counters>>> = const { RefCell::new(None) };
}

/// While alive, this thread's counts also go into one campaign's
/// counter set; on drop the thread goes back to the set it counted into
/// before. A campaign's stats epoch holds one on the thread that opened
/// it, and its worker threads hold one each.
#[derive(Debug)]
pub(crate) struct CountingFor {
    prev: Option<Arc<Counters>>,
}

impl CountingFor {
    pub(crate) fn new(counters: &Arc<Counters>) -> CountingFor {
        CountingFor {
            prev: CAMPAIGN.with(|c| c.replace(Some(Arc::clone(counters)))),
        }
    }
}

impl Drop for CountingFor {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CAMPAIGN.with(|c| *c.borrow_mut() = prev);
    }
}

/// Adds each `(counter, n)` to the counter set of the campaign this
/// thread works for and, when a hub is installed, to the hub's; then
/// hands the hub's registry to `hub_only` (a histogram sample).
fn count_with(counts: &[(Counter, u64)], hub_only: impl FnOnce(&Metrics)) {
    let add = |set: &Counters| {
        for &(counter, n) in counts {
            set.add(counter, n);
        }
    };
    CAMPAIGN.with(|c| {
        if let Some(set) = c.borrow().as_deref() {
            add(set);
        }
    });
    with_hub(|h| {
        add(&h.metrics.counters);
        hub_only(&h.metrics);
    });
}

/// Counts `n` events of `counter`: in the counter set of the campaign
/// this thread works for, and in the hub's when one is installed.
pub fn count(counter: Counter, n: u64) {
    count_with(&[(counter, n)], |_| {});
}

/// [`count`] for one event that moves several counters.
pub fn count_each(counts: &[(Counter, u64)]) {
    count_with(counts, |_| {});
}

/// Takes `n` back from `counter`: a gauge going down, or progress a
/// failed attempt rolls back.
pub fn uncount(counter: Counter, n: u64) {
    count(counter, n.wrapping_neg());
}

/// Counts one `counter` event per campaign: the first call on a
/// campaign's threads counts it, later ones do nothing. A thread that
/// works for no campaign counts every call in the hub.
pub fn count_once(counter: Counter) {
    let first = CAMPAIGN.with(|c| {
        c.borrow()
            .as_deref()
            .is_none_or(|set| set.0[counter as usize].swap(1, Ordering::Relaxed) == 0)
    });
    if first {
        with_hub(|h| h.metrics.counters.add(counter, 1));
    }
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

/// Number of log₂ buckets in a [`Histogram`]: one per possible bit
/// length of a `u64` value, plus one for zero.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A lock-free log₂ histogram: value `v` lands in bucket
/// `bit_length(v)`, so bucket `k > 0` covers `[2^(k-1), 2^k)`. Fixed
/// storage, no allocation per sample, wait-free recording.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let bucket = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A serializable snapshot (non-zero buckets only).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let count = b.load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                let le = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                Some(HistogramBucket { le, count })
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One non-empty histogram bucket: `count` samples with value `<= le`
/// (and above the previous bucket's bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket (`2^k - 1`).
    pub le: u64,
    /// Samples that landed in this bucket.
    pub count: u64,
}

/// Serializable state of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Default)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// The non-empty log₂ buckets, in ascending order.
    pub buckets: Vec<HistogramBucket>,
}

/// The live metrics registry: the deterministic counters, the host
/// [`Counters`] and the host histograms, all wait-free atomics. One per
/// [`Hub`].
#[derive(Debug, Default)]
pub struct Metrics {
    // -- deterministic half (engine-invariant by the tally contract) --
    /// Campaigns whose traces have been submitted.
    pub campaigns: AtomicU64,
    /// Cases folded into tallies (every engine applies the same cases).
    pub cases_applied: AtomicU64,
    /// Per-CRASH-class counts, indexed by [`class_slot`].
    pub classes: [AtomicU64; 6],
    /// Fuel burned by applied cases (fed from submitted traces).
    pub total_fuel: AtomicU64,
    /// Per-case fuel distribution (fed from submitted traces).
    pub case_fuel: Histogram,
    // -- host half (engine- and machine-dependent) --
    /// Every host counter, over all campaigns of the process.
    pub counters: Counters,
    /// Full-boot latency, nanoseconds.
    pub boot_ns: Histogram,
    /// Snapshot-restore latency, nanoseconds.
    pub restore_ns: Histogram,
    /// Journal `fsync` latency, nanoseconds.
    pub fsync_ns: Histogram,
    /// Shard-retry backoff delays, milliseconds.
    pub backoff_ms: Histogram,
}

/// The slot in [`Metrics::classes`] for a CRASH class, in severity
/// order (`pass` = 0 … `catastrophic` = 5).
#[must_use]
pub fn class_slot(class: FailureClass) -> usize {
    match class {
        FailureClass::Pass => 0,
        FailureClass::Hindering => 1,
        FailureClass::Silent => 2,
        FailureClass::Abort => 3,
        FailureClass::Restart => 4,
        FailureClass::Catastrophic => 5,
    }
}

/// Per-CRASH-class counts in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Default)]
pub struct ClassCounts {
    /// Robust passes.
    pub pass: u64,
    /// Suspected Hindering failures.
    pub hindering: u64,
    /// Ground-truth Silent failures.
    pub silent: u64,
    /// Abort failures.
    pub abort: u64,
    /// Restart failures.
    pub restart: u64,
    /// Catastrophic failures.
    pub catastrophic: u64,
}

/// The engine-invariant half of a [`MetricsSnapshot`]: identical for
/// serial, parallel and journaled runs of the same plan (asserted by
/// `telemetry_determinism`).
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct DeterministicMetrics {
    /// Campaign traces submitted.
    pub campaigns: u64,
    /// Cases folded into tallies.
    pub cases_applied: u64,
    /// CRASH classification counts.
    pub classes: ClassCounts,
    /// Total fuel burned by applied cases (simulated work units).
    pub total_fuel: u64,
    /// Per-case fuel distribution.
    pub case_fuel: HistogramSnapshot,
}

/// The host-dependent half of a [`MetricsSnapshot`]: every host
/// [`Counter`] plus the four latency histograms, never part of any
/// bit-identity contract. Index it by [`Counter`]; it serializes as one
/// flat object, the counters' keys first.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HostMetrics {
    /// Every host counter.
    pub counts: Counts,
    /// Boot latency histogram, nanoseconds.
    pub boot_ns: HistogramSnapshot,
    /// Restore latency histogram, nanoseconds.
    pub restore_ns: HistogramSnapshot,
    /// Journal `fsync` latency histogram, nanoseconds.
    pub fsync_ns: HistogramSnapshot,
    /// Shard-retry backoff histogram, milliseconds.
    pub backoff_ms: HistogramSnapshot,
}

impl Index<Counter> for HostMetrics {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.counts[counter]
    }
}

impl Serialize for HostMetrics {
    fn serialize(&self, w: &mut serde::Writer) {
        let mut c = w.begin_object();
        for &counter in Counter::ALL {
            w.key(&mut c, counter.key());
            w.u64(self[counter]);
        }
        for (key, h) in [
            ("boot_ns", &self.boot_ns),
            ("restore_ns", &self.restore_ns),
            ("fsync_ns", &self.fsync_ns),
            ("backoff_ms", &self.backoff_ms),
        ] {
            w.key(&mut c, key);
            h.serialize(w);
        }
        w.end_object(c);
    }
}

/// A point-in-time copy of the [`Metrics`] registry, split into the
/// engine-invariant and host-dependent halves. Serialized as
/// `results/metrics.json`; every field is documented in
/// `OBSERVABILITY.md`.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct MetricsSnapshot {
    /// Engine-invariant counters (compare these across engines).
    pub deterministic: DeterministicMetrics,
    /// Host-dependent counters (never compare across engines or hosts).
    pub host: HostMetrics,
}

// ---------------------------------------------------------------------
// The hub
// ---------------------------------------------------------------------

/// Profile ledger: fuel per (OS, MuT family, subsystem). `BTreeMap`
/// keyed by `&'static str`s so iteration order — and therefore the
/// collapsed-stack file — is deterministic.
type ProfileBook = BTreeMap<(&'static str, &'static str), [u64; Subsystem::COUNT]>;

/// The installed telemetry sink: metrics registry, submitted campaign
/// traces and the flamegraph profile. Install one with [`Hub::install`];
/// every campaign engine then reports into it until [`Hub::uninstall`].
#[derive(Debug)]
pub struct Hub {
    cfg: TelemetryConfig,
    /// The live metrics registry.
    pub metrics: Metrics,
    traces: Mutex<Vec<CampaignTrace>>,
    profile: Mutex<ProfileBook>,
}

impl Hub {
    /// Builds and globally installs a hub, returning a handle. Replaces
    /// any previously installed hub.
    pub fn install(cfg: TelemetryConfig) -> Arc<Hub> {
        count_alloc();
        let hub = Arc::new(Hub {
            cfg,
            metrics: Metrics::default(),
            traces: Mutex::new(Vec::new()),
            profile: Mutex::new(BTreeMap::new()),
        });
        *HUB.write().expect("telemetry hub lock poisoned") = Some(Arc::clone(&hub));
        ACTIVE.store(true, Ordering::SeqCst);
        hub
    }

    /// Uninstalls the current hub (if any). Existing `Arc` handles stay
    /// readable; engines simply stop reporting.
    pub fn uninstall() {
        ACTIVE.store(false, Ordering::SeqCst);
        *HUB.write().expect("telemetry hub lock poisoned") = None;
    }

    /// The installed hub, if any.
    #[must_use]
    pub fn current() -> Option<Arc<Hub>> {
        if !enabled() {
            return None;
        }
        HUB.read().expect("telemetry hub lock poisoned").clone()
    }

    /// Whether trace collection is on.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.cfg.trace
    }

    /// Whether subsystem profiling is on.
    #[must_use]
    pub fn profiling(&self) -> bool {
        self.cfg.profile
    }

    /// Accepts a finished campaign trace: folds its deterministic
    /// metrics (class counts come from the apply hooks; fuel comes from
    /// here) and stores the trace for [`Hub::take_traces`].
    pub fn submit_trace(&self, trace: CampaignTrace) {
        self.metrics.campaigns.fetch_add(1, Ordering::Relaxed);
        for m in &trace.muts {
            for c in &m.cases {
                self.metrics.total_fuel.fetch_add(c.fuel, Ordering::Relaxed);
                self.metrics.case_fuel.record(c.fuel);
            }
        }
        count_alloc();
        self.traces
            .lock()
            .expect("telemetry trace sink poisoned")
            .push(trace);
    }

    /// Drains every submitted campaign trace, in submission order.
    #[must_use]
    pub fn take_traces(&self) -> Vec<CampaignTrace> {
        std::mem::take(&mut *self.traces.lock().expect("telemetry trace sink poisoned"))
    }

    /// Folds one executed case's subsystem-fuel ledger into the profile
    /// under `(os, family)`.
    pub fn record_profile(&self, os: OsVariant, family: &'static str, subsys: &SubsystemFuel) {
        let mut book = self.profile.lock().expect("telemetry profile poisoned");
        let slot = book.entry((os.short_name(), family)).or_insert_with(|| {
            count_alloc();
            [0u64; Subsystem::COUNT]
        });
        for s in Subsystem::ALL {
            slot[s.index()] = slot[s.index()].saturating_add(subsys.charged(s));
        }
    }

    /// Renders the profile in collapsed-stack format, one line per
    /// `ballista;<os>;<family>;<subsystem> <fuel>` frame — the input
    /// `inferno-flamegraph` / `flamegraph.pl` expect. Deterministic:
    /// frames sort by OS, family, then subsystem ledger order.
    #[must_use]
    pub fn collapsed_stacks(&self) -> String {
        let book = self.profile.lock().expect("telemetry profile poisoned");
        let mut out = String::new();
        for ((os, family), units) in book.iter() {
            for sub in Subsystem::ALL {
                let fuel = units[sub.index()];
                if fuel == 0 {
                    continue;
                }
                out.push_str("ballista;");
                out.push_str(os);
                out.push(';');
                // Collapsed-stack frames are ';'-separated: sanitize
                // the human-readable family label.
                for ch in family.chars() {
                    out.push(if ch == ';' { ',' } else { ch });
                }
                out.push(';');
                out.push_str(sub.label());
                out.push(' ');
                out.push_str(&fuel.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// A point-in-time copy of the metrics registry.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let m = &self.metrics;
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        MetricsSnapshot {
            deterministic: DeterministicMetrics {
                campaigns: ld(&m.campaigns),
                cases_applied: ld(&m.cases_applied),
                classes: ClassCounts {
                    pass: ld(&m.classes[0]),
                    hindering: ld(&m.classes[1]),
                    silent: ld(&m.classes[2]),
                    abort: ld(&m.classes[3]),
                    restart: ld(&m.classes[4]),
                    catastrophic: ld(&m.classes[5]),
                },
                total_fuel: ld(&m.total_fuel),
                case_fuel: m.case_fuel.snapshot(),
            },
            host: HostMetrics {
                counts: m.counters.snapshot(),
                boot_ns: m.boot_ns.snapshot(),
                restore_ns: m.restore_ns.snapshot(),
                fsync_ns: m.fsync_ns.snapshot(),
                backoff_ms: m.backoff_ms.snapshot(),
            },
        }
    }
}

/// Runs `f` against the installed hub, if any. The `enabled()` fast
/// path keeps the disabled cost at one atomic load.
fn with_hub(f: impl FnOnce(&Hub)) {
    if !enabled() {
        return;
    }
    if let Some(hub) = HUB.read().expect("telemetry hub lock poisoned").as_deref() {
        f(hub);
    }
}

// -- hooks: events that also feed a hub histogram, and the per-case ones

/// Machine provisioned by a full boot (`nanos` of host time).
pub fn on_boot(nanos: u64) {
    count_with(&[(Counter::Boots, 1), (Counter::BootNanos, nanos)], |m| {
        m.boot_ns.record(nanos);
    });
}

/// Machine provisioned by a snapshot restore (`nanos` of host time).
/// `fast` distinguishes an in-place resident-machine reset from a full
/// template clone.
pub fn on_restore(nanos: u64, fast: bool) {
    let kind = if fast {
        Counter::RestoresFast
    } else {
        Counter::RestoresFull
    };
    count_with(
        &[
            (Counter::Restores, 1),
            (kind, 1),
            (Counter::RestoreNanos, nanos),
        ],
        |m| m.restore_ns.record(nanos),
    );
}

/// One journal `fsync` completed in `nanos` of host time.
pub fn on_journal_fsync(nanos: u64) {
    count_with(&[(Counter::JournalFsyncs, 1)], |m| m.fsync_ns.record(nanos));
}

/// A shard goes back on the supervisor queue for another attempt after
/// a worker failure, `backoff_ms` milliseconds of exponential backoff
/// after it.
pub fn on_shard_retry(backoff_ms: u64) {
    count_with(
        &[(Counter::ShardRetries, 1), (Counter::ShardRequeues, 1)],
        |m| m.backoff_ms.record(backoff_ms),
    );
}

/// One case was executed on this host (replays don't count). Hub only,
/// like every per-case hook: a campaign's own counters take no per-case
/// work.
pub fn on_case_executed() {
    with_hub(|h| h.metrics.counters.add(Counter::CasesExecuted, 1));
}

/// One case (executed or replayed) was folded into a tally.
pub fn on_case_applied(class: FailureClass) {
    with_hub(|h| {
        h.metrics.cases_applied.fetch_add(1, Ordering::Relaxed);
        h.metrics.classes[class_slot(class)].fetch_add(1, Ordering::Relaxed);
        if class == FailureClass::Catastrophic {
            h.metrics.counters.add(Counter::Catastrophics, 1);
        }
    });
}

/// An executed case's subsystem-fuel ledger, for the profile.
pub fn on_case_profile(os: OsVariant, family: &'static str, subsys: &SubsystemFuel) {
    with_hub(|h| {
        if h.profiling() {
            h.record_profile(os, family, subsys);
        }
    });
}
// ---------------------------------------------------------------------
// Trace model + collector
// ---------------------------------------------------------------------

/// One applied test case in a trace. Carries only engine-independent
/// data — everything here is a pure function of the campaign plan, so
/// traces are bit-identical across engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseTrace {
    /// Index of the case within its MuT's sampling plan.
    pub case_idx: u32,
    /// The raw observation.
    pub raw: RawOutcome,
    /// The CRASH classification.
    pub class: FailureClass,
    /// Whether any selected input value was exceptional.
    pub any_exceptional: bool,
    /// Whether the simulated OS probed the residue counter.
    pub residue_probed: bool,
    /// Fuel the case burned (simulated work units).
    pub fuel: u64,
    /// Session residue after the case was folded in.
    pub residue_after: u32,
}

/// One MuT's span in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutTrace {
    /// The call's name.
    pub name: String,
    /// Functional-group label.
    pub group: &'static str,
    /// Cases planned for this MuT.
    pub planned: u32,
    /// Applied cases, in session order.
    pub cases: Vec<CaseTrace>,
}

/// A full campaign's trace: every applied case in session order, with
/// cumulative fuel as the (virtual, deterministic) time axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignTrace {
    /// The OS variant's short name.
    pub os: &'static str,
    /// The per-MuT case cap the plan ran under.
    pub cap: u64,
    /// Per-MuT spans, in catalog order.
    pub muts: Vec<MutTrace>,
}

impl CampaignTrace {
    /// Total applied cases.
    #[must_use]
    pub fn total_cases(&self) -> u64 {
        self.muts.iter().map(|m| m.cases.len() as u64).sum()
    }

    /// Total fuel burned by applied cases.
    #[must_use]
    pub fn total_fuel(&self) -> u64 {
        self.muts
            .iter()
            .flat_map(|m| &m.cases)
            .map(|c| c.fuel)
            .sum()
    }
}

/// Capacity of the per-collector staging ring: how many case events
/// accumulate before a drain into the owning [`MutTrace`].
pub const EVENT_RING_CAPACITY: usize = 1024;

/// Fixed-capacity staging buffer for case events. Thread-confined (each
/// engine collects trace events at its sequential apply sites, so
/// exactly one thread touches a ring) — lock-free by construction, and
/// after construction a push never allocates.
#[derive(Debug)]
pub struct EventRing {
    slots: Vec<CaseTrace>,
}

impl EventRing {
    fn new() -> Self {
        count_alloc();
        EventRing {
            slots: Vec::with_capacity(EVENT_RING_CAPACITY),
        }
    }

    /// Stages one event; returns `true` when the ring is full and must
    /// be drained before the next push.
    fn push(&mut self, ev: CaseTrace) -> bool {
        debug_assert!(self.slots.len() < EVENT_RING_CAPACITY);
        self.slots.push(ev);
        self.slots.len() == EVENT_RING_CAPACITY
    }

    /// Moves every staged event into `out`, emptying the ring without
    /// releasing its capacity.
    fn drain_into(&mut self, out: &mut Vec<CaseTrace>) {
        if !self.slots.is_empty() {
            count_alloc();
            out.append(&mut self.slots);
        }
    }
}

/// Collects one campaign's trace. Created by an engine when a hub with
/// tracing is installed ([`TraceCollector::begin`] returns `None`
/// otherwise — the disabled path allocates nothing), fed at the
/// engine's sequential apply sites, and submitted to the hub by
/// [`TraceCollector::finish`].
#[derive(Debug)]
pub struct TraceCollector {
    os: OsVariant,
    cap: u64,
    muts: Vec<MutTrace>,
    current: Option<MutTrace>,
    ring: EventRing,
}

impl TraceCollector {
    /// Starts a campaign trace if the installed hub has tracing on.
    #[must_use]
    pub fn begin(os: OsVariant, cap: u64) -> Option<TraceCollector> {
        let tracing = Hub::current().is_some_and(|h| h.tracing());
        if !tracing {
            return None;
        }
        count_alloc();
        Some(TraceCollector {
            os,
            cap,
            muts: Vec::new(),
            current: None,
            ring: EventRing::new(),
        })
    }

    fn commit_current(&mut self) {
        if let Some(mut m) = self.current.take() {
            self.ring.drain_into(&mut m.cases);
            self.muts.push(m);
        }
    }

    /// Opens the span for the next MuT (closing the previous one).
    pub fn begin_mut(&mut self, name: &str, group: &'static str, planned: usize) {
        self.commit_current();
        count_alloc();
        self.current = Some(MutTrace {
            name: name.to_owned(),
            group,
            planned: planned as u32,
            cases: Vec::new(),
        });
    }

    /// Discards the current MuT's staged events — called when a
    /// contained worker panic earns the MuT a retry, so the rerun
    /// starts from an empty span and retries leave no duplicate events.
    pub fn abort_mut(&mut self) {
        self.ring.slots.clear();
        self.current = None;
    }

    /// Records one applied case into the current MuT's span.
    pub fn record_case(&mut self, ev: CaseTrace) {
        debug_assert!(self.current.is_some(), "record_case before begin_mut");
        if self.ring.push(ev) {
            if let Some(m) = self.current.as_mut() {
                self.ring.drain_into(&mut m.cases);
            }
        }
    }

    /// Closes the trace and submits it to the installed hub (it may
    /// have been uninstalled mid-campaign; the trace is then dropped).
    pub fn finish(mut self) {
        self.commit_current();
        let trace = CampaignTrace {
            os: self.os.short_name(),
            cap: self.cap,
            muts: self.muts,
        };
        with_hub(|h| h.submit_trace(trace.clone()));
    }

    /// Closes the trace and returns it instead of submitting — used by
    /// tests and tools that want the trace without a hub round-trip.
    #[must_use]
    pub fn into_trace(mut self) -> CampaignTrace {
        self.commit_current();
        CampaignTrace {
            os: self.os.short_name(),
            cap: self.cap,
            muts: self.muts,
        }
    }
}

// ---------------------------------------------------------------------
// Chrome-trace rendering
// ---------------------------------------------------------------------

/// Stable lower-case label for a raw outcome in trace `args`.
#[must_use]
pub fn raw_label(raw: RawOutcome) -> &'static str {
    match raw {
        RawOutcome::ReturnedSuccess => "returned-success",
        RawOutcome::ReturnedError => "returned-error",
        RawOutcome::TaskAbort => "task-abort",
        RawOutcome::TaskHang => "task-hang",
        RawOutcome::SystemCrash => "system-crash",
    }
}

/// Stable label for a CRASH class in trace `args` and span names.
#[must_use]
pub fn class_label(class: FailureClass) -> &'static str {
    match class {
        FailureClass::Pass => "Pass",
        FailureClass::Hindering => "Hindering",
        FailureClass::Silent => "Silent",
        FailureClass::Abort => "Abort",
        FailureClass::Restart => "Restart",
        FailureClass::Catastrophic => "Catastrophic",
    }
}

/// Escapes a string for a JSON literal (control characters, quotes and
/// backslashes only — trace strings are ASCII identifiers in practice).
fn json_escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders a [`CampaignTrace`] in the Chrome Trace Event format as
/// **line-oriented JSON**: the opening `[` on its own line, one event
/// object per line, and the closing metadata event + `]` on the last —
/// greppable like JSONL, loadable as-is by `chrome://tracing` and
/// Perfetto. The schema is documented field-by-field in
/// `OBSERVABILITY.md`.
///
/// All timestamps are **virtual**: cumulative fuel in session order,
/// rendered as microseconds (1 fuel unit ≈ 1 simulated ms → 1 µs of
/// trace time). Rendering uses integer arithmetic only, so the bytes
/// are identical on every host and for every engine.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_chrome_trace<W: Write>(w: &mut W, trace: &CampaignTrace) -> io::Result<()> {
    let mut line = String::new();
    writeln!(w, "[")?;
    // Metadata: name the virtual process/thread the spans hang off.
    writeln!(
        w,
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"ts\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"ballista {} campaign\"}}}},",
        trace.os
    )?;
    writeln!(
        w,
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"ts\":0,\"name\":\"thread_name\",\"args\":{{\"name\":\"session order (1us = 1 fuel unit)\"}}}},"
    )?;
    writeln!(
        w,
        "{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":{},\"name\":\"campaign {}\",\"cat\":\"campaign\",\"args\":{{\"cap\":{},\"muts\":{},\"cases\":{}}}}},",
        trace.total_fuel(),
        trace.os,
        trace.cap,
        trace.muts.len(),
        trace.total_cases()
    )?;
    let mut cursor = 0u64;
    for m in &trace.muts {
        let mut_fuel: u64 = m.cases.iter().map(|c| c.fuel).sum();
        line.clear();
        line.push_str("{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":");
        line.push_str(&cursor.to_string());
        line.push_str(",\"dur\":");
        line.push_str(&mut_fuel.to_string());
        line.push_str(",\"name\":\"");
        json_escape(&m.name, &mut line);
        line.push_str("\",\"cat\":\"mut\",\"args\":{\"group\":\"");
        json_escape(m.group, &mut line);
        line.push_str("\",\"planned\":");
        line.push_str(&m.planned.to_string());
        line.push_str(",\"cases\":");
        line.push_str(&m.cases.len().to_string());
        line.push_str("}},");
        writeln!(w, "{line}")?;
        for c in &m.cases {
            line.clear();
            line.push_str("{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":");
            line.push_str(&cursor.to_string());
            line.push_str(",\"dur\":");
            line.push_str(&c.fuel.to_string());
            line.push_str(",\"name\":\"");
            line.push_str(class_label(c.class));
            line.push_str("\",\"cat\":\"case\",\"args\":{\"mut\":\"");
            json_escape(&m.name, &mut line);
            line.push_str("\",\"case\":");
            line.push_str(&c.case_idx.to_string());
            line.push_str(",\"raw\":\"");
            line.push_str(raw_label(c.raw));
            line.push_str("\",\"exceptional\":");
            line.push_str(if c.any_exceptional { "true" } else { "false" });
            line.push_str(",\"probed\":");
            line.push_str(if c.residue_probed { "true" } else { "false" });
            line.push_str(",\"fuel\":");
            line.push_str(&c.fuel.to_string());
            line.push_str(",\"residue\":");
            line.push_str(&c.residue_after.to_string());
            line.push_str("}},");
            writeln!(w, "{line}")?;
            cursor += c.fuel;
            line.clear();
            line.push_str("{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":");
            line.push_str(&cursor.to_string());
            line.push_str(",\"name\":\"residue\",\"args\":{\"residue\":");
            line.push_str(&c.residue_after.to_string());
            line.push_str("}},");
            writeln!(w, "{line}")?;
        }
    }
    // Closing metadata event carries the totals and closes the array
    // (no trailing comma before it, so every earlier line ends in one).
    writeln!(
        w,
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"ts\":{cursor},\"name\":\"trace_end\",\"args\":{{\"cases\":{},\"fuel\":{cursor}}}}}]",
        trace.total_cases()
    )?;
    Ok(())
}

/// [`write_chrome_trace`] into a byte buffer — the form the determinism
/// tests compare bit for bit.
#[must_use]
pub fn chrome_trace_bytes(trace: &CampaignTrace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, trace).expect("in-memory trace write cannot fail");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hub installation is process-global; tests that install one must
    /// serialize behind this (shared with the integration tests' own
    /// guard for the same reason).
    static GUARD: Mutex<()> = Mutex::new(());

    fn sample_trace() -> CampaignTrace {
        CampaignTrace {
            os: "win98",
            cap: 5,
            muts: vec![
                MutTrace {
                    name: "GetThreadContext".to_owned(),
                    group: "Process Primitives",
                    planned: 2,
                    cases: vec![
                        CaseTrace {
                            case_idx: 0,
                            raw: RawOutcome::SystemCrash,
                            class: FailureClass::Catastrophic,
                            any_exceptional: true,
                            residue_probed: false,
                            fuel: 7,
                            residue_after: 0,
                        },
                    ],
                },
                MutTrace {
                    name: "strlen".to_owned(),
                    group: "C string",
                    planned: 1,
                    cases: vec![CaseTrace {
                        case_idx: 0,
                        raw: RawOutcome::TaskAbort,
                        class: FailureClass::Abort,
                        any_exceptional: true,
                        residue_probed: false,
                        fuel: 3,
                        residue_after: 1,
                    }],
                },
            ],
        }
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 0u64.wrapping_add(1 + 2 + 3 + 4 + 1024).wrapping_add(u64::MAX));
        // 0 → bucket le=0; 1 → le=1; 2,3 → le=3; 4 → le=7; 1024 → le=2047;
        // u64::MAX → le=u64::MAX.
        let les: Vec<u64> = snap.buckets.iter().map(|b| b.le).collect();
        assert_eq!(les, vec![0, 1, 3, 7, 2047, u64::MAX]);
        assert_eq!(snap.buckets[2].count, 2);
    }

    #[test]
    fn chrome_trace_is_line_oriented_valid_json() {
        let bytes = chrome_trace_bytes(&sample_trace());
        let text = String::from_utf8(bytes.clone()).expect("utf8");
        assert!(text.starts_with("[\n"));
        assert!(text.trim_end().ends_with("}]"));
        // Every event is on its own line.
        assert!(text.lines().skip(1).all(|l| l.starts_with('{')));
        // And the whole thing parses as one JSON array of objects.
        let parsed: serde_json::Value = serde_json::from_slice(&bytes).expect("valid JSON");
        let events = parsed.as_seq().expect("array");
        // 2 process metadata + 1 campaign + 2 muts + 2 cases + 2 counters
        // + 1 trailer.
        assert_eq!(events.len(), 10);
        assert!(text.contains("\"name\":\"Catastrophic\""));
        assert!(text.contains("\"raw\":\"system-crash\""));
        assert!(text.contains("\"residue\":1"));
        // Virtual time axis: the second MuT starts at the first's fuel.
        assert!(text.contains("\"ts\":7,\"dur\":3,\"name\":\"strlen\""));
    }

    #[test]
    fn rendering_is_deterministic() {
        let t = sample_trace();
        assert_eq!(chrome_trace_bytes(&t), chrome_trace_bytes(&t));
        assert_eq!(t.total_cases(), 2);
        assert_eq!(t.total_fuel(), 10);
    }

    #[test]
    fn collector_stages_and_commits_muts() {
        let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _hub = Hub::install(TelemetryConfig::tracing());
        let mut tc = TraceCollector::begin(OsVariant::Win98, 5).expect("tracing on");
        tc.begin_mut("A", "Process Primitives", 2);
        tc.record_case(CaseTrace {
            case_idx: 0,
            raw: RawOutcome::ReturnedError,
            class: FailureClass::Pass,
            any_exceptional: true,
            residue_probed: false,
            fuel: 2,
            residue_after: 0,
        });
        // A retry discards the staged span and starts over.
        tc.abort_mut();
        tc.begin_mut("A", "Process Primitives", 2);
        tc.record_case(CaseTrace {
            case_idx: 0,
            raw: RawOutcome::TaskAbort,
            class: FailureClass::Abort,
            any_exceptional: true,
            residue_probed: false,
            fuel: 2,
            residue_after: 1,
        });
        tc.begin_mut("B", "C string", 1);
        let trace = tc.into_trace();
        assert_eq!(trace.muts.len(), 2);
        assert_eq!(trace.muts[0].cases.len(), 1);
        assert_eq!(trace.muts[0].cases[0].class, FailureClass::Abort);
        assert!(trace.muts[1].cases.is_empty());
        Hub::uninstall();
    }

    #[test]
    fn hub_folds_trace_into_deterministic_metrics() {
        let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let hub = Hub::install(TelemetryConfig::tracing());
        on_case_applied(FailureClass::Catastrophic);
        on_case_applied(FailureClass::Abort);
        on_case_executed();
        hub.submit_trace(sample_trace());
        let snap = hub.metrics_snapshot();
        assert_eq!(snap.deterministic.campaigns, 1);
        assert_eq!(snap.deterministic.cases_applied, 2);
        assert_eq!(snap.deterministic.classes.catastrophic, 1);
        assert_eq!(snap.deterministic.classes.abort, 1);
        assert_eq!(snap.deterministic.total_fuel, 10);
        assert_eq!(snap.deterministic.case_fuel.count, 2);
        assert_eq!(snap.host[Counter::CasesExecuted], 1);
        assert_eq!(hub.take_traces().len(), 1);
        assert!(hub.take_traces().is_empty(), "drained");
        Hub::uninstall();
    }

    #[test]
    fn profile_renders_sorted_collapsed_stacks() {
        let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let hub = Hub::install(TelemetryConfig::all());
        let mut ledger = SubsystemFuel::new();
        ledger.charge(Subsystem::Process, 4);
        ledger.charge(Subsystem::Heap, 1);
        on_case_profile(OsVariant::Win98, "Process Primitives", &ledger);
        on_case_profile(OsVariant::Win98, "Process Primitives", &ledger);
        let mut fs_only = SubsystemFuel::new();
        fs_only.charge(Subsystem::Fs, 9);
        on_case_profile(OsVariant::Linux, "C file I/O management", &fs_only);
        let folded = hub.collapsed_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "ballista;linux;C file I/O management;fs 9",
                "ballista;win98;Process Primitives;heap 2",
                "ballista;win98;Process Primitives;process 8",
            ]
        );
        Hub::uninstall();
    }

    #[test]
    fn disabled_hooks_cost_nothing_and_allocate_nothing() {
        let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        Hub::uninstall();
        let before = allocation_count();
        assert!(!enabled());
        on_case_applied(FailureClass::Abort);
        on_case_executed();
        on_boot(5);
        on_restore(5, true);
        on_restore(5, false);
        on_journal_fsync(5);
        count(Counter::JournalAppends, 1);
        count_each(&[(Counter::Restores, 2), (Counter::RestoresFast, 2)]);
        count_once(Counter::FleetDegradations);
        uncount(Counter::WorkersLive, 1);
        assert!(TraceCollector::begin(OsVariant::Linux, 10).is_none());
        assert_eq!(allocation_count(), before, "disabled telemetry allocated");
    }

    #[test]
    fn from_env_flags() {
        let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Env mutation is process-global; restore what we touch.
        let save = |k: &str| std::env::var(k).ok();
        let (t0, p0) = (save("BALLISTA_TELEMETRY"), save("TELEMETRY_PROFILE"));
        std::env::remove_var("BALLISTA_TELEMETRY");
        std::env::remove_var("TELEMETRY_PROFILE");
        assert_eq!(TelemetryConfig::from_env(), None);
        std::env::set_var("BALLISTA_TELEMETRY", "1");
        assert_eq!(TelemetryConfig::from_env(), Some(TelemetryConfig::tracing()));
        std::env::set_var("TELEMETRY_PROFILE", "1");
        assert_eq!(TelemetryConfig::from_env(), Some(TelemetryConfig::all()));
        std::env::set_var("BALLISTA_TELEMETRY", "0");
        assert_eq!(TelemetryConfig::from_env(), Some(TelemetryConfig::all()));
        std::env::remove_var("TELEMETRY_PROFILE");
        assert_eq!(TelemetryConfig::from_env(), None);
        match t0 {
            Some(v) => std::env::set_var("BALLISTA_TELEMETRY", v),
            None => std::env::remove_var("BALLISTA_TELEMETRY"),
        }
        match p0 {
            Some(v) => std::env::set_var("TELEMETRY_PROFILE", v),
            None => std::env::remove_var("TELEMETRY_PROFILE"),
        }
    }
}
