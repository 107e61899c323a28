//! Single-test execution: isolation, interception, residue, and the
//! in-isolation reproduction probe.
//!
//! Each test case gets a **pristine simulated machine** — the analog of
//! the paper's per-test process (`fork` on POSIX; memory-mapped file +
//! spawn on Windows). Pristine no longer means freshly cloned: the
//! campaign engines run each MuT's cases through a [`CaseRunner`] that
//! keeps one resident machine and resets it in place between cases,
//! rolling back only what the previous case touched (the address space's
//! dirty-region journal plus per-subsystem generation stamps — see
//! [`MachineSnapshot::restore_into`]). A `catch_unwind` fence guards the
//! harness itself, playing the role of the paper's top-level exception
//! filter ("we disabled this exception filter and replaced it with code
//! that would record such an unrecoverable exception as an Abort
//! failure").
//!
//! The one thing that deliberately survives between cases is the
//! [`Session`] **residue** counter: the paper observed crashes "probably
//! due to inter-test interference, which indicates that system state was
//! not properly cleaned between test cases, even though each test is run
//! in a separate process". Residue rises as tests abort and feeds the
//! `*`-marked vulnerabilities; [`reproduce_in_isolation`] re-runs a
//! crashing case on a pristine machine to decide whether the crash earns
//! the paper's `*`.

use crate::crash::{classify, FailureClass, RawOutcome};
use crate::muts::Mut;
use crate::value::TestValue;
use sim_kernel::outcome::ApiAbort;
use sim_kernel::variant::OsVariant;
use sim_kernel::{Kernel, MachineFlavor, MachineSnapshot};
use std::cell::RefCell;
use std::rc::Rc;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Machine-provisioning counters, routed into per-campaign sinks.
///
/// A campaign installs one [`stats::Counters`] sink on every thread it
/// runs on (the engines' stats epoch and worker pool do this) and reads
/// it back into `CampaignStats` when it closes. Provisioning outside any
/// sink reaches only the telemetry hub.
pub mod stats {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Cached boot templates dropped because a restore produced a
    /// corrupted (already-dead) machine.
    pub static TEMPLATE_INVALIDATIONS: AtomicU64 = AtomicU64::new(0);

    /// A private provisioning-counter set one campaign installs on its
    /// threads (via [`install_sink`]) to get **exact** per-campaign
    /// numbers, even when several campaigns run in one process at once.
    #[derive(Debug, Default)]
    pub struct Counters {
        /// Machines created by a full boot while this sink was installed.
        pub boots: AtomicU64,
        /// Machines created by a template clone while installed.
        pub restores: AtomicU64,
        /// Restores served by an in-place reset (subset of `restores`).
        pub restores_fast: AtomicU64,
        /// Restores that deep-cloned the template (subset of `restores`).
        pub restores_full: AtomicU64,
        /// Machines provisioned for isolation probes
        /// ([`super::reproduce_in_isolation`]). Counted apart from
        /// `restores` so `restores` equals cases executed.
        pub probe_provisions: AtomicU64,
        /// Nanoseconds spent booting while installed.
        pub boot_nanos: AtomicU64,
        /// Nanoseconds spent restoring while installed.
        pub restore_nanos: AtomicU64,
        /// Filesystem crash images materialized by the crashcon engine
        /// (one clone of the pristine tree per judged crash point). Never
        /// part of `restores`: a crash-point snapshot is not a machine
        /// restore.
        pub crashcon_snapshots: AtomicU64,
        /// Crash images "remounted" into the crashcon engine's resident
        /// verification kernel (one per judged crash point).
        pub crashcon_remounts: AtomicU64,
    }

    impl Counters {
        /// `(boots, restores, boot_nanos, restore_nanos)` recorded so far.
        #[must_use]
        pub fn snapshot(&self) -> (u64, u64, u64, u64) {
            (
                self.boots.load(Ordering::Relaxed),
                self.restores.load(Ordering::Relaxed),
                self.boot_nanos.load(Ordering::Relaxed),
                self.restore_nanos.load(Ordering::Relaxed),
            )
        }
    }

    thread_local! {
        static SINK: RefCell<Option<Arc<Counters>>> = const { RefCell::new(None) };
    }

    /// Routes this thread's provisioning events into `counters` until
    /// [`clear_sink`].
    pub fn install_sink(counters: Arc<Counters>) {
        SINK.with(|s| *s.borrow_mut() = Some(counters));
    }

    /// Stops routing this thread's provisioning events into a sink.
    pub fn clear_sink() {
        SINK.with(|s| *s.borrow_mut() = None);
    }

    fn with_sink(f: impl FnOnce(&Counters)) {
        SINK.with(|s| {
            if let Some(c) = s.borrow().as_deref() {
                f(c);
            }
        });
    }

    pub(super) fn record_boot(nanos: u64) {
        crate::telemetry::on_boot(nanos);
        with_sink(|c| {
            c.boots.fetch_add(1, Ordering::Relaxed);
            c.boot_nanos.fetch_add(nanos, Ordering::Relaxed);
        });
    }

    pub(super) fn record_restore(nanos: u64, fast: bool) {
        crate::telemetry::on_restore(nanos, fast);
        with_sink(|c| {
            c.restores.fetch_add(1, Ordering::Relaxed);
            c.restore_nanos.fetch_add(nanos, Ordering::Relaxed);
            if fast {
                c.restores_fast.fetch_add(1, Ordering::Relaxed);
            } else {
                c.restores_full.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// Flushes a batch of `count` in-place resets a [`super::CaseRunner`]
    /// accumulated locally (with `nanos` of sampled host time attributed
    /// to them). The batch path only runs while telemetry is disabled, so
    /// no hub hook fires here — the hub's histograms never see estimated
    /// samples.
    pub(super) fn record_fast_restores(count: u64, nanos: u64) {
        with_sink(|c| {
            c.restores.fetch_add(count, Ordering::Relaxed);
            c.restores_fast.fetch_add(count, Ordering::Relaxed);
            c.restore_nanos.fetch_add(nanos, Ordering::Relaxed);
        });
    }

    /// Records a batch of crashcon crash-point snapshots and remounts
    /// (one pair per judged crash point, flushed per judged log). Kept out of
    /// `restores` entirely — see [`Counters::crashcon_snapshots`].
    pub(crate) fn record_crashcon(snapshots: u64, remounts: u64) {
        crate::telemetry::on_crashcon(snapshots, remounts);
        with_sink(|c| {
            c.crashcon_snapshots.fetch_add(snapshots, Ordering::Relaxed);
            c.crashcon_remounts.fetch_add(remounts, Ordering::Relaxed);
        });
    }

    pub(super) fn record_probe() {
        with_sink(|c| {
            c.probe_provisions.fetch_add(1, Ordering::Relaxed);
        });
    }
}

/// Harness-level fault injection, used by the robustness tests to prove
/// the campaign engine contains its *own* failures (worker panics) the
/// way the paper's harness contained test-task failures. Disarmed (the
/// default) it costs one mutex lock per MuT.
pub mod fault {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    static WORKER_PANIC: Mutex<Option<(String, u32)>> = Mutex::new(None);

    /// When armed, the crashcon engine's crash-image construction tears
    /// every rename apart — the source leaves its directory but the
    /// destination insert is lost, exactly the torn state a non-atomic
    /// rename would leak across a crash. Exists to prove the crashcon
    /// oracle *can* fail: a correct filesystem passes every crash point,
    /// so without this latch the oracle's red path would be dead code.
    static BROKEN_RENAME: AtomicBool = AtomicBool::new(false);

    /// Arms or disarms the torn-rename injection for crashcon crash
    /// images.
    pub fn arm_broken_rename(on: bool) {
        BROKEN_RENAME.store(on, Ordering::SeqCst);
    }

    /// Whether the torn-rename injection is armed.
    #[must_use]
    pub fn broken_rename_armed() -> bool {
        BROKEN_RENAME.load(Ordering::SeqCst)
    }

    /// Arms an injected panic: the next `times` campaign-worker visits to
    /// `mut_name` panic *outside* the per-case exception fence, as a bug
    /// in the harness itself would.
    pub fn arm_worker_panic(mut_name: &str, times: u32) {
        *WORKER_PANIC.lock().expect("fault latch poisoned") =
            Some((mut_name.to_owned(), times));
    }

    /// Disarms any pending injected fault.
    pub fn disarm() {
        *WORKER_PANIC.lock().expect("fault latch poisoned") = None;
    }

    /// Campaign workers call this per MuT; panics while armed for `name`.
    ///
    /// # Panics
    ///
    /// Deliberately, when an armed injection matches `name`.
    pub fn maybe_panic(name: &str) {
        let mut latch = WORKER_PANIC.lock().expect("fault latch poisoned");
        let fired = match latch.as_mut() {
            Some((armed, times)) if armed == name && *times > 0 => {
                *times -= 1;
                *times == 0
            }
            _ => return,
        };
        if fired {
            *latch = None;
        }
        drop(latch);
        panic!("injected harness fault while testing {name}");
    }
}

thread_local! {
    /// Per-thread cache of pre-booted machine templates, one per flavour.
    /// Three flavours exist, so a linear scan beats any map.
    static TEMPLATES: RefCell<Vec<(MachineFlavor, Rc<MachineSnapshot>)>> = const { RefCell::new(Vec::new()) };
}

/// When set, [`fresh_machine`] bypasses the template cache and boots a
/// machine per case with eagerly zero-filled regions — the cost model of
/// the pre-snapshot harness. Observable behaviour is identical (the
/// determinism tests pass either way); the benchmark driver flips this
/// to measure the real speedup rather than estimating it.
pub static LEGACY_PROVISIONING: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Provisions a fresh machine for one test case: the first request per
/// (thread, flavour) runs the real boot sequence and snapshots it; every
/// later request clones the snapshot. Booting is fully deterministic
/// (`BTreeMap`s and `Vec`s only — no hashing, time, or randomness), so
/// the clone is bit-identical to a fresh boot; `sim-kernel` asserts this
/// in its snapshot tests.
#[must_use]
pub fn fresh_machine(flavor: MachineFlavor) -> Kernel {
    use std::sync::atomic::Ordering;
    if LEGACY_PROVISIONING.load(Ordering::Relaxed) {
        let start = std::time::Instant::now();
        let mut kernel = Kernel::with_flavor(flavor);
        kernel.space.set_eager_zero(true);
        stats::record_boot(elapsed_ns(start));
        return kernel;
    }
    TEMPLATES.with(|cache| {
        let mut cache = cache.borrow_mut();
        let start = std::time::Instant::now();
        if let Some(pos) = cache.iter().position(|(f, _)| *f == flavor) {
            let kernel = cache[pos].1.restore();
            // A template that restores to a dead machine is corrupted
            // (e.g. snapshotted after a crash latch): drop it and fall
            // through to a clean boot rather than poisoning every later
            // case on this thread.
            if kernel.is_alive() {
                stats::record_restore(elapsed_ns(start), false);
                return kernel;
            }
            cache.remove(pos);
            stats::TEMPLATE_INVALIDATIONS.fetch_add(1, Ordering::Relaxed);
        }
        let snap = Rc::new(MachineSnapshot::boot(flavor));
        let kernel = snap.restore();
        cache.push((flavor, snap));
        stats::record_boot(elapsed_ns(start));
        kernel
    })
}

/// Provisions a pristine machine for an **isolation probe** — same
/// template mechanics as [`fresh_machine`], but counted under
/// `probe_provisions` instead of `restores`. Probes are extra machines
/// on top of the planned cases; billing them as restores is what made
/// `restores` drift past `cases` by one per catastrophic MuT in earlier
/// campaign artifacts.
fn probe_machine(flavor: MachineFlavor) -> Kernel {
    use std::sync::atomic::Ordering;
    stats::record_probe();
    if LEGACY_PROVISIONING.load(Ordering::Relaxed) {
        let mut kernel = Kernel::with_flavor(flavor);
        kernel.space.set_eager_zero(true);
        return kernel;
    }
    TEMPLATES.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(pos) = cache.iter().position(|(f, _)| *f == flavor) {
            let kernel = cache[pos].1.restore();
            if kernel.is_alive() {
                return kernel;
            }
            cache.remove(pos);
            stats::TEMPLATE_INVALIDATIONS.fetch_add(1, Ordering::Relaxed);
        }
        let snap = Rc::new(MachineSnapshot::boot(flavor));
        let kernel = snap.restore();
        cache.push((flavor, snap));
        kernel
    })
}

/// Drops this thread's cached boot templates. Quarantine logic calls this
/// after a contained worker panic: whatever state the panic left behind,
/// the retry starts from templates rebuilt by the deterministic boot
/// sequence.
pub fn invalidate_templates() {
    TEMPLATES.with(|cache| cache.borrow_mut().clear());
}

fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Batched per-MuT case executor: keeps one **resident machine** across
/// cases and resets it *in place* between them instead of cloning the
/// boot template per case.
///
/// The reset is O(touched): the address space rolls back only the
/// regions its dirty journal recorded, and each kernel subsystem carries
/// a generation stamp that lets [`MachineSnapshot::restore_into`] skip
/// the deep clone entirely when the case never structurally touched it.
/// Both the dirty journal and the generation stamps are written *before*
/// the mutation they cover, so the reset stays sound even when a case
/// panics mid-call and unwinds through the harness fence — the next
/// provision simply rolls back everything the case could have dirtied.
///
/// The first provision on a runner (and any provision after the resident
/// machine restored dead, which invalidates the template) deep-clones the
/// template and is counted as a *full* restore; every later one is a
/// *fast* in-place reset. Under [`LEGACY_PROVISIONING`] the runner boots
/// a machine per case exactly like [`fresh_machine`] does, so the
/// calibration benchmark still measures the real before/after.
#[derive(Debug, Default)]
pub struct CaseRunner {
    /// The resident machine and the flavour it was provisioned for.
    resident: Option<(MachineFlavor, Kernel)>,
    /// The boot template the resident machine was provisioned from
    /// (`None` under legacy provisioning). Holding the `Rc` here lets the
    /// per-case reset skip the thread-local template cache entirely.
    template: Option<Rc<MachineSnapshot>>,
    /// In-place resets performed but not yet flushed to [`stats`]. The
    /// hot path batches counter updates locally (only while telemetry is
    /// off) and flushes on drop, so per-case cost is one increment
    /// instead of five atomics plus a thread-local borrow.
    fast_pending: u64,
    /// Sampled host nanoseconds attributed to the pending resets: one
    /// reset in [`TIMING_SAMPLE`] is timed and scaled up, keeping the
    /// per-case clock reads off the hot path while `restore_nanos`
    /// stays statistically honest.
    fast_nanos: u64,
}

/// One in-place reset per this many is wall-clock timed on the batched
/// stats path; the measured value stands in for the whole stride.
const TIMING_SAMPLE: u64 = 64;

/// Pending in-place resets are flushed to the global counters at least
/// this often, bounding how far mid-campaign readers can lag.
const STATS_FLUSH_EVERY: u64 = 4096;

impl Drop for CaseRunner {
    fn drop(&mut self) {
        self.flush_stats();
    }
}

impl CaseRunner {
    /// A runner with no resident machine yet; the first case provisions
    /// one from the thread's boot-template cache.
    #[must_use]
    pub fn new() -> Self {
        CaseRunner::default()
    }

    /// Flushes locally batched in-place-reset counters to [`stats`].
    /// Runs on drop (a runner lives for exactly one MuT's case loop, so
    /// campaign-level accounting stays exact) and before any slow-path
    /// provisioning.
    fn flush_stats(&mut self) {
        if self.fast_pending > 0 {
            stats::record_fast_restores(self.fast_pending, self.fast_nanos);
            self.fast_pending = 0;
            self.fast_nanos = 0;
        }
    }

    /// Provisions the resident machine for the next case: in-place reset
    /// when possible, template clone or legacy boot otherwise.
    fn provision(&mut self, flavor: MachineFlavor) -> &mut Kernel {
        use std::sync::atomic::Ordering;
        if LEGACY_PROVISIONING.load(Ordering::Relaxed) {
            let start = std::time::Instant::now();
            let mut kernel = Kernel::with_flavor(flavor);
            kernel.space.set_eager_zero(true);
            stats::record_boot(elapsed_ns(start));
            self.template = None;
            return &mut self.resident.insert((flavor, kernel)).1;
        }
        // Fast path: the resident machine resets in place from the very
        // template it was provisioned from — no thread-local traffic.
        // A resident from a *different* flavour (a runner reused across
        // variants) has a meaningless dirty journal for this template,
        // so it falls through to a full clone instead.
        enum FastReset {
            NotApplicable,
            Alive,
            Dead,
        }
        let CaseRunner { resident, template, fast_pending, fast_nanos } = self;
        let fast = match (resident.as_mut(), template.as_deref()) {
            (Some((f, machine)), Some(snap)) if *f == flavor => {
                if crate::telemetry::enabled() {
                    // Precise per-reset timing and hub hooks when the
                    // observability layer is watching.
                    let start = std::time::Instant::now();
                    snap.restore_into(machine);
                    if machine.is_alive() {
                        stats::record_restore(elapsed_ns(start), true);
                        FastReset::Alive
                    } else {
                        FastReset::Dead
                    }
                } else {
                    let start =
                        (*fast_pending % TIMING_SAMPLE == 0).then(std::time::Instant::now);
                    snap.restore_into(machine);
                    if machine.is_alive() {
                        if let Some(s) = start {
                            *fast_nanos += elapsed_ns(s) * TIMING_SAMPLE;
                        }
                        *fast_pending += 1;
                        if *fast_pending >= STATS_FLUSH_EVERY {
                            stats::record_fast_restores(*fast_pending, *fast_nanos);
                            *fast_pending = 0;
                            *fast_nanos = 0;
                        }
                        FastReset::Alive
                    } else {
                        FastReset::Dead
                    }
                }
            }
            _ => FastReset::NotApplicable,
        };
        match fast {
            FastReset::Alive => return &mut self.resident.as_mut().expect("reset above").1,
            FastReset::Dead => {
                self.flush_stats();
                // Restoring produced a dead machine: the template itself
                // is corrupted (e.g. snapshotted after a crash latch).
                // Drop it everywhere and re-provision from a clean boot.
                TEMPLATES.with(|cache| cache.borrow_mut().retain(|(cf, _)| *cf != flavor));
                stats::TEMPLATE_INVALIDATIONS.fetch_add(1, Ordering::Relaxed);
                self.resident = None;
                self.template = None;
            }
            FastReset::NotApplicable => {}
        }
        TEMPLATES.with(|cache| {
            let mut cache = cache.borrow_mut();
            loop {
                let Some(pos) = cache.iter().position(|(f, _)| *f == flavor) else {
                    let start = std::time::Instant::now();
                    cache.push((flavor, Rc::new(MachineSnapshot::boot(flavor))));
                    stats::record_boot(elapsed_ns(start));
                    continue;
                };
                let snap = &cache[pos].1;
                let start = std::time::Instant::now();
                let machine = snap.restore();
                if machine.is_alive() {
                    self.template = Some(Rc::clone(snap));
                    self.resident = Some((flavor, machine));
                    stats::record_restore(elapsed_ns(start), false);
                    break;
                }
                // Corrupted template: drop it and boot a replacement on
                // the next pass.
                cache.remove(pos);
                stats::TEMPLATE_INVALIDATIONS.fetch_add(1, Ordering::Relaxed);
            }
        });
        &mut self.resident.as_mut().expect("provisioned above").1
    }

    /// Executes one case on the resident machine — same observable
    /// semantics as [`execute_case_budgeted`], which the proptest and
    /// engine-equivalence suites assert.
    #[must_use]
    pub fn execute(
        &mut self,
        os: OsVariant,
        mut_: &Mut,
        pools: &[Vec<TestValue>],
        combo: &[usize],
        session: &mut Session,
        fuel_budget: u64,
    ) -> CaseResult {
        let kernel = self.provision(os.machine_flavor());
        kernel.fuel = sim_kernel::clock::FuelMeter::with_budget(fuel_budget);
        kernel.residue = session.residue;
        let (raw, any_exceptional) = run_on(kernel, os, mut_, pools, combo);
        session.note(raw, any_exceptional);
        if crate::telemetry::enabled() {
            crate::telemetry::on_case_executed();
            crate::telemetry::on_case_profile(os, mut_.group.label(), &kernel.subsys);
        }
        CaseResult {
            raw,
            class: classify(raw, any_exceptional),
            any_exceptional,
            residue_probed: kernel.residue_probed,
            fuel_used: kernel.fuel.consumed(),
        }
    }

    /// [`CaseRunner::execute`] with the filesystem's crash-op recorder
    /// switched on for the duration of the case: returns the case result
    /// plus the drained [`FsOp`](sim_kernel::fs::FsOp) log (and whether
    /// the [`sim_kernel::fs::MAX_OPLOG`] bound truncated it). Recording is
    /// (re-)enabled per case because the in-place reset replaces the
    /// whole filesystem — recorder state included — whenever the previous
    /// case structurally touched it.
    #[must_use]
    pub fn execute_recorded(
        &mut self,
        os: OsVariant,
        mut_: &Mut,
        pools: &[Vec<TestValue>],
        combo: &[usize],
        session: &mut Session,
        fuel_budget: u64,
    ) -> (CaseResult, Vec<sim_kernel::fs::FsOp>, bool) {
        let kernel = self.provision(os.machine_flavor());
        kernel.fuel = sim_kernel::clock::FuelMeter::with_budget(fuel_budget);
        kernel.residue = session.residue;
        kernel.fs.set_crash_recording(true);
        let (raw, any_exceptional) = run_on(kernel, os, mut_, pools, combo);
        let (ops, truncated) = kernel.fs.take_oplog();
        kernel.fs.set_crash_recording(false);
        session.note(raw, any_exceptional);
        if crate::telemetry::enabled() {
            crate::telemetry::on_case_executed();
            crate::telemetry::on_case_profile(os, mut_.group.label(), &kernel.subsys);
        }
        let result = CaseResult {
            raw,
            class: classify(raw, any_exceptional),
            any_exceptional,
            residue_probed: kernel.residue_probed,
            fuel_used: kernel.fuel.consumed(),
        };
        (result, ops, truncated)
    }
}

/// Cross-case state for one campaign run on one OS.
#[derive(Debug, Clone, Default)]
pub struct Session {
    /// Accumulated uncleaned state. Rises on Abort outcomes, resets when
    /// the machine crashes (the "reboot").
    pub residue: u32,
}

impl Session {
    /// A clean session (freshly booted test machine).
    #[must_use]
    pub fn new() -> Self {
        Session::default()
    }

    /// Folds one observed case into the session, raising or resetting
    /// residue. `execute_case` calls this itself; the parallel engine's
    /// replay pass calls it directly when it reuses a recorded clean
    /// outcome instead of re-executing.
    pub fn note(&mut self, raw: RawOutcome, any_exceptional: bool) {
        match raw {
            // Aborted tasks never ran their cleanup; silently-accepted
            // garbage (e.g. a bogus handle "closed" successfully) leaves
            // kernel state behind too. Both feed the interference the
            // paper observed.
            RawOutcome::TaskAbort => self.residue += 1,
            RawOutcome::ReturnedSuccess if any_exceptional => self.residue += 1,
            RawOutcome::SystemCrash => self.residue = 0,
            _ => {}
        }
    }
}

/// The outcome of one executed test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseResult {
    /// What the harness observed.
    pub raw: RawOutcome,
    /// CRASH classification (ground-truth Silent via the oracle bit).
    pub class: FailureClass,
    /// Whether any selected test value was exceptional.
    pub any_exceptional: bool,
    /// Whether the simulated OS consulted the machine's residue counter
    /// while deciding this outcome ([`Kernel::probe_residue`]). Cases
    /// that never probe are provably independent of session history —
    /// the parallel campaign engine runs them out of order.
    pub residue_probed: bool,
    /// Fuel the case burned (simulated work units) — a pure function of
    /// the case, so identical on every host and engine. The telemetry
    /// trace uses cumulative fuel as its deterministic time axis. For a
    /// replayed (not re-executed) case the engines restore this from
    /// the clean-pass side channel or the journal record.
    pub fuel_used: u64,
}

/// Default per-case watchdog fuel budget (simulated work units; one unit
/// ≈ one simulated millisecond). Generously above anything a legitimate
/// case consumes — a case makes a handful of calls at one unit each, and
/// the longest benign timed wait burns 60 000 — while still catching a
/// hostile near-`INFINITE` duration (4.29 billion units) instantly.
pub const DEFAULT_FUEL_BUDGET: u64 = 2_000_000;

/// Executes one test case: fresh machine, constructors, call,
/// classification.
///
/// `pools` holds the resolved value pool per parameter; `combo` selects
/// one value index per parameter. Runs under [`DEFAULT_FUEL_BUDGET`];
/// campaigns with a configured budget use [`execute_case_budgeted`].
#[must_use]
pub fn execute_case(
    os: OsVariant,
    mut_: &Mut,
    pools: &[Vec<TestValue>],
    combo: &[usize],
    session: &mut Session,
) -> CaseResult {
    execute_case_budgeted(os, mut_, pools, combo, session, DEFAULT_FUEL_BUDGET)
}

/// [`execute_case`] with an explicit watchdog fuel budget for the case.
/// Fuel consumed is a pure function of the case (simulated work only, no
/// wall clock), so a given budget yields the same outcome on every host,
/// at every parallelism, and on every resumed run.
#[must_use]
pub fn execute_case_budgeted(
    os: OsVariant,
    mut_: &Mut,
    pools: &[Vec<TestValue>],
    combo: &[usize],
    session: &mut Session,
    fuel_budget: u64,
) -> CaseResult {
    let mut kernel = fresh_machine(os.machine_flavor());
    kernel.fuel = sim_kernel::clock::FuelMeter::with_budget(fuel_budget);
    kernel.residue = session.residue;
    let raw_and_exc = run_on(&mut kernel, os, mut_, pools, combo);
    session.note(raw_and_exc.0, raw_and_exc.1);
    if crate::telemetry::enabled() {
        crate::telemetry::on_case_executed();
        crate::telemetry::on_case_profile(os, mut_.group.label(), &kernel.subsys);
    }
    CaseResult {
        raw: raw_and_exc.0,
        class: classify(raw_and_exc.0, raw_and_exc.1),
        any_exceptional: raw_and_exc.1,
        residue_probed: kernel.residue_probed,
        fuel_used: kernel.fuel.consumed(),
    }
}

/// Runs constructors + dispatch on a given machine and reports (raw
/// outcome, any-exceptional-input).
fn run_on(
    kernel: &mut Kernel,
    os: OsVariant,
    mut_: &Mut,
    pools: &[Vec<TestValue>],
    combo: &[usize],
) -> (RawOutcome, bool) {
    debug_assert_eq!(pools.len(), combo.len());
    kernel.residue_probed = false; // per-case flag, even on reused machines
    let mut any_exceptional = false;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut args = Vec::with_capacity(combo.len());
        for (pool, &idx) in pools.iter().zip(combo) {
            let value = &pool[idx];
            any_exceptional |= value.exceptional;
            args.push((value.make)(kernel, os));
        }
        (mut_.dispatch)(kernel, os, &args)
    }));
    // The crash latch outranks whatever the call returned: a dead machine
    // is Catastrophic even if the call "succeeded".
    if !kernel.is_alive() {
        return (RawOutcome::SystemCrash, any_exceptional);
    }
    // The watchdog outranks everything but a crash: a case that exhausted
    // its fuel budget ran past the harness's patience, even if the call
    // eventually "returned" — the real harness would have killed and
    // restarted the task long before.
    if kernel.fuel.exhausted() {
        return (RawOutcome::TaskHang, any_exceptional);
    }
    let raw = match outcome {
        Ok(Ok(ret)) => {
            if ret.reported_error() {
                RawOutcome::ReturnedError
            } else {
                RawOutcome::ReturnedSuccess
            }
        }
        Ok(Err(ApiAbort::Hang)) => RawOutcome::TaskHang,
        Ok(Err(_)) => RawOutcome::TaskAbort,
        // A harness-level panic is treated like the paper's top-level
        // exception filter: an Abort, never a harness death.
        Err(_) => RawOutcome::TaskAbort,
    };
    (raw, any_exceptional)
}

/// Executes a test case **on an existing machine** without rebooting it —
/// the building block of the sequence-dependent testing extension
/// ([`crate::sequence`]), where a second call runs in whatever state the
/// first left behind.
#[must_use]
pub fn execute_case_on(
    kernel: &mut Kernel,
    os: OsVariant,
    mut_: &Mut,
    pools: &[Vec<TestValue>],
    combo: &[usize],
) -> CaseResult {
    let (raw, any_exceptional) = run_on(kernel, os, mut_, pools, combo);
    CaseResult {
        raw,
        class: classify(raw, any_exceptional),
        any_exceptional,
        residue_probed: kernel.residue_probed,
        // The machine is reused across calls, so this is the meter's
        // cumulative reading — callers sequencing several calls diff it.
        fuel_used: kernel.fuel.consumed(),
    }
}

/// Re-runs a case on a pristine machine (zero residue) and reports whether
/// it still crashes the system — the paper's single-test reproduction
/// check. `false` for a crash that only reproduces inside the harness is
/// what earns a Table 3 `*`.
#[must_use]
pub fn reproduce_in_isolation(
    os: OsVariant,
    mut_: &Mut,
    pools: &[Vec<TestValue>],
    combo: &[usize],
) -> bool {
    let mut kernel = probe_machine(os.machine_flavor());
    kernel.fuel = sim_kernel::clock::FuelMeter::with_budget(DEFAULT_FUEL_BUDGET);
    kernel.residue = 0;
    let (raw, _) = run_on(&mut kernel, os, mut_, pools, combo);
    raw == RawOutcome::SystemCrash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::muts::{arg, FunctionGroup};
    use std::sync::Arc;

    fn null_and_valid_ctx_pools() -> Vec<Vec<TestValue>> {
        vec![
            vec![TestValue::constant("current thread", false, (u32::MAX - 1) as u64)],
            vec![
                TestValue::constant("NULL", true, 0),
                TestValue::with("valid CONTEXT buffer", false, |k, _| {
                    k.alloc_user(64, "ctx").addr()
                }),
            ],
        ]
    }

    fn get_thread_context_mut() -> Mut {
        Mut {
            name: "GetThreadContext",
            group: FunctionGroup::ProcessPrimitives,
            params: vec!["HANDLE", "buffer"],
            dispatch: Arc::new(|k, os, a| {
                let p = sim_win32::Win32Profile::for_os(os);
                sim_win32::threadapi::GetThreadContext(k, p, arg::handle(a[0]), arg::ptr(a[1]))
            }),
        }
    }

    #[test]
    fn listing1_classified_catastrophic_on_98_abort_on_nt() {
        let m = get_thread_context_mut();
        let pools = null_and_valid_ctx_pools();
        let mut session = Session::new();
        // combo [0,0] = (current thread, NULL) — Listing 1.
        let r98 = execute_case(OsVariant::Win98, &m, &pools, &[0, 0], &mut session);
        assert_eq!(r98.class, FailureClass::Catastrophic);
        let rnt = execute_case(OsVariant::WinNt4, &m, &pools, &[0, 0], &mut session);
        assert_eq!(rnt.class, FailureClass::Abort);
        // combo [0,1] = valid buffer: passes everywhere.
        let ok = execute_case(OsVariant::Win98, &m, &pools, &[0, 1], &mut session);
        assert_eq!(ok.class, FailureClass::Pass);
    }

    #[test]
    fn deterministic_crash_reproduces_in_isolation() {
        let m = get_thread_context_mut();
        let pools = null_and_valid_ctx_pools();
        assert!(reproduce_in_isolation(OsVariant::Win98, &m, &pools, &[0, 0]));
        assert!(!reproduce_in_isolation(OsVariant::WinNt4, &m, &pools, &[0, 0]));
    }

    #[test]
    fn residue_rises_on_aborts_and_resets_on_crash() {
        let m = get_thread_context_mut();
        let pools = null_and_valid_ctx_pools();
        let mut session = Session::new();
        let _ = execute_case(OsVariant::WinNt4, &m, &pools, &[0, 0], &mut session);
        let _ = execute_case(OsVariant::WinNt4, &m, &pools, &[0, 0], &mut session);
        assert_eq!(session.residue, 2);
        let _ = execute_case(OsVariant::Win98, &m, &pools, &[0, 0], &mut session);
        assert_eq!(session.residue, 0, "crash reboots the machine");
    }

    #[test]
    fn interference_dependent_crash_needs_session_history() {
        // DuplicateHandle on 98: only crashes once residue accumulated.
        let m = Mut {
            name: "DuplicateHandle",
            group: FunctionGroup::IoPrimitives,
            params: vec!["HANDLE"],
            dispatch: Arc::new(|k, os, a| {
                let p = sim_win32::Win32Profile::for_os(os);
                let out = k.alloc_user(4, "dup-out");
                sim_win32::handleapi::DuplicateHandle(
                    k,
                    p,
                    sim_kernel::objects::Handle::CURRENT_PROCESS,
                    arg::handle(a[0]),
                    sim_kernel::objects::Handle::CURRENT_PROCESS,
                    out,
                    0,
                    0,
                    0,
                )
            }),
        };
        let pools = vec![vec![TestValue::constant("garbage handle", true, 0x7777)]];
        let mut session = Session::new();
        // Clean session: silent success, no crash.
        let r = execute_case(OsVariant::Win98, &m, &pools, &[0], &mut session);
        assert_eq!(r.class, FailureClass::Silent);
        // Accumulate residue, then it kills the machine…
        session.residue = 5;
        let r = execute_case(OsVariant::Win98, &m, &pools, &[0], &mut session);
        assert_eq!(r.class, FailureClass::Catastrophic);
        // …but not in isolation: the paper's `*`.
        assert!(!reproduce_in_isolation(OsVariant::Win98, &m, &pools, &[0]));
    }

    #[test]
    fn silent_oracle_via_exceptional_bit() {
        // CloseHandle(garbage) on 98 reports success: ground-truth Silent.
        let m = Mut {
            name: "CloseHandle",
            group: FunctionGroup::IoPrimitives,
            params: vec!["HANDLE"],
            dispatch: Arc::new(|k, os, a| {
                let p = sim_win32::Win32Profile::for_os(os);
                sim_win32::handleapi::CloseHandle(k, p, arg::handle(a[0]))
            }),
        };
        let pools = vec![vec![TestValue::constant("garbage handle", true, 0xABCD)]];
        let mut session = Session::new();
        let r98 = execute_case(OsVariant::Win98, &m, &pools, &[0], &mut session);
        assert_eq!(r98.raw, RawOutcome::ReturnedSuccess);
        assert_eq!(r98.class, FailureClass::Silent);
        let rnt = execute_case(OsVariant::WinNt4, &m, &pools, &[0], &mut session);
        assert_eq!(rnt.raw, RawOutcome::ReturnedError);
        assert_eq!(rnt.class, FailureClass::Pass);
    }

    fn sleep_ex_mut() -> Mut {
        Mut {
            name: "SleepEx",
            group: FunctionGroup::ProcessPrimitives,
            params: vec!["msec"],
            dispatch: Arc::new(|k, os, a| {
                let p = sim_win32::Win32Profile::for_os(os);
                sim_win32::threadapi::SleepEx(k, p, arg::uint(a[0]), 0)
            }),
        }
    }

    #[test]
    fn fuel_exhaustion_classified_restart() {
        let m = sleep_ex_mut();
        // 0xFFFFFFFE ms: not INFINITE, but far beyond any sane budget.
        let pools = vec![vec![TestValue::constant(
            "0xFFFFFFFE",
            true,
            (u32::MAX - 1) as u64,
        )]];
        let mut session = Session::new();
        let r = execute_case(OsVariant::Win2000, &m, &pools, &[0], &mut session);
        assert_eq!(r.raw, RawOutcome::TaskHang);
        assert_eq!(
            r.class,
            FailureClass::Restart,
            "the watchdog converts a runaway case into Restart, not Abort"
        );
        assert_eq!(session.residue, 0, "hangs leave no residue");
        // A benign duration sails through on the same budget.
        let pools = vec![vec![TestValue::constant("100ms", false, 100)]];
        let r = execute_case(OsVariant::Win2000, &m, &pools, &[0], &mut session);
        assert_eq!(r.class, FailureClass::Pass);
    }

    #[test]
    fn tight_budget_trips_watchdog_on_benign_case() {
        // The budget is the knob: the same benign case hangs when the
        // campaign config starves it.
        let m = sleep_ex_mut();
        let pools = vec![vec![TestValue::constant("100ms", false, 100)]];
        let mut session = Session::new();
        let r = execute_case_budgeted(OsVariant::WinNt4, &m, &pools, &[0], &mut session, 10);
        assert_eq!(r.class, FailureClass::Restart);
        let r = execute_case_budgeted(OsVariant::WinNt4, &m, &pools, &[0], &mut session, 10_000);
        assert_eq!(r.class, FailureClass::Pass);
    }

    #[test]
    fn corrupted_template_is_invalidated_not_propagated() {
        use std::sync::atomic::Ordering;
        // Plant a template that restores to a dead machine, as a worker
        // panic mid-snapshot could leave behind.
        let flavor = MachineFlavor::WindowsStrictAlign;
        invalidate_templates();
        let mut poisoned = Kernel::with_flavor(flavor);
        poisoned.crash.panic("test", "planted corruption", None);
        let snap = poisoned.snapshot();
        TEMPLATES.with(|cache| cache.borrow_mut().push((flavor, Rc::new(snap))));
        let before = stats::TEMPLATE_INVALIDATIONS.load(Ordering::Relaxed);
        let k = fresh_machine(flavor);
        assert!(k.is_alive(), "fresh_machine must never hand out a dead machine");
        assert!(stats::TEMPLATE_INVALIDATIONS.load(Ordering::Relaxed) > before);
        // The replacement template is healthy from here on.
        assert!(fresh_machine(flavor).is_alive());
        invalidate_templates();
    }

    #[test]
    fn stats_sink_records_only_while_installed() {
        let sink = Arc::new(stats::Counters::default());
        invalidate_templates();
        stats::install_sink(Arc::clone(&sink));
        let _ = fresh_machine(MachineFlavor::Posix); // boot
        let _ = fresh_machine(MachineFlavor::Posix); // restore
        stats::clear_sink();
        let _ = fresh_machine(MachineFlavor::Posix);
        let (boots, restores, _, _) = sink.snapshot();
        assert_eq!(boots, 1);
        assert_eq!(restores, 1, "post-clear provisioning must not reach the sink");
        invalidate_templates();
    }

    #[test]
    fn case_runner_matches_per_case_provisioning() {
        // The batched runner and the clone-per-case path must agree on
        // every outcome and on the session residue they leave behind,
        // including across crash (Win98) and abort (NT) sequences.
        let m = get_thread_context_mut();
        let pools = null_and_valid_ctx_pools();
        let combos: [&[usize]; 6] = [&[0, 1], &[0, 0], &[0, 1], &[0, 0], &[0, 1], &[0, 0]];
        for os in [OsVariant::Win98, OsVariant::WinNt4] {
            let mut batched = Session::new();
            let mut per_case = Session::new();
            let mut runner = CaseRunner::new();
            for combo in combos {
                let a = runner.execute(os, &m, &pools, combo, &mut batched, DEFAULT_FUEL_BUDGET);
                let b = execute_case_budgeted(os, &m, &pools, combo, &mut per_case, DEFAULT_FUEL_BUDGET);
                assert_eq!(a, b, "{os}: batched and per-case outcomes diverged");
                assert_eq!(batched.residue, per_case.residue, "{os}: residue diverged");
            }
        }
    }

    #[test]
    fn case_runner_counts_one_restore_per_case_mostly_fast() {
        use std::sync::atomic::Ordering;
        let sink = Arc::new(stats::Counters::default());
        invalidate_templates();
        stats::install_sink(Arc::clone(&sink));
        let m = get_thread_context_mut();
        let pools = null_and_valid_ctx_pools();
        let mut session = Session::new();
        let mut runner = CaseRunner::new();
        for _ in 0..5 {
            let _ = runner.execute(
                OsVariant::WinNt4,
                &m,
                &pools,
                &[0, 1],
                &mut session,
                DEFAULT_FUEL_BUDGET,
            );
        }
        // Batched fast-reset counters flush when the runner drops (the
        // campaign engines drop theirs at the end of each MuT's loop,
        // before any sink is read).
        drop(runner);
        stats::clear_sink();
        let (boots, restores, _, _) = sink.snapshot();
        assert_eq!(boots, 1, "one template boot for a cold cache");
        assert_eq!(restores, 5, "exactly one restore per executed case");
        assert_eq!(sink.restores_full.load(Ordering::Relaxed), 1, "first case clones");
        assert_eq!(sink.restores_fast.load(Ordering::Relaxed), 4, "the rest reset in place");
        invalidate_templates();
    }

    #[test]
    fn isolation_probes_not_billed_as_restores() {
        use std::sync::atomic::Ordering;
        let sink = Arc::new(stats::Counters::default());
        invalidate_templates();
        stats::install_sink(Arc::clone(&sink));
        let m = get_thread_context_mut();
        let pools = null_and_valid_ctx_pools();
        assert!(reproduce_in_isolation(OsVariant::Win98, &m, &pools, &[0, 0]));
        stats::clear_sink();
        let (_, restores, _, _) = sink.snapshot();
        assert_eq!(restores, 0, "probe machines must not count as restores");
        assert_eq!(sink.probe_provisions.load(Ordering::Relaxed), 1);
        invalidate_templates();
    }

    #[test]
    fn fault_injection_latch_fires_exactly_n_times() {
        fault::disarm();
        fault::arm_worker_panic("VictimCall", 2);
        fault::maybe_panic("SomeOtherCall"); // no match, no panic
        for _ in 0..2 {
            let r = std::panic::catch_unwind(|| fault::maybe_panic("VictimCall"));
            assert!(r.is_err(), "armed injection must fire");
        }
        fault::maybe_panic("VictimCall"); // exhausted: silent
        fault::disarm();
    }

    #[test]
    fn hang_classified_restart() {
        let m = Mut {
            name: "Sleep",
            group: FunctionGroup::ProcessPrimitives,
            params: vec!["msec"],
            dispatch: Arc::new(|k, os, a| {
                let p = sim_win32::Win32Profile::for_os(os);
                sim_win32::threadapi::Sleep(k, p, arg::uint(a[0]))
            }),
        };
        let pools = vec![vec![TestValue::constant("INFINITE", false, u32::MAX as u64)]];
        let mut session = Session::new();
        let r = execute_case(OsVariant::WinNt4, &m, &pools, &[0], &mut session);
        assert_eq!(r.class, FailureClass::Restart);
    }
}
