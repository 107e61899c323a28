//! The [`Kernel`] facade: one simulated machine per test case.
//!
//! A `Kernel` bundles every subsystem into the unit of isolation the
//! Ballista executor creates and discards per test case — the simulator's
//! analog of the paper's process-per-test harness. It also carries the
//! *residue* counter that models the inter-test interference behind the
//! paper's `*`-marked Catastrophic failures (crashes reproducible only when
//! running the full test harness, not a single isolated case).

use crate::clock::{Clock, FuelMeter};
use crate::crash::CrashLatch;
use crate::outcome::ApiAbort;
use crate::subsystem::{Subsystem, SubsystemFuel};
use crate::env::Environment;
use crate::fs::FileSystem;
use crate::heap::{HeapId, HeapManager};
use crate::objects::{Handle, ObjectKind, ObjectTable};
use crate::process::ProcessTable;
use sim_core::memory::{AddressSpace, Protection};
use sim_core::SimPtr;

/// Filesystem / path personality of a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineFlavor {
    /// Case-sensitive paths, lenient alignment (the Linux target).
    Posix,
    /// Case-insensitive paths, lenient alignment (desktop Windows).
    Windows,
    /// Case-insensitive paths, strict alignment (the Windows CE device).
    WindowsStrictAlign,
}

/// The complete simulated machine.
///
/// Fields are public by design: the API personality crates *are* the kernel
/// code and manipulate the subsystems directly, the way kernel modules
/// share a single address space.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// The checked flat address space.
    pub space: AddressSpace,
    /// Kernel objects + handle table.
    pub objects: ObjectTable,
    /// The in-memory filesystem.
    pub fs: FileSystem,
    /// Processes and threads.
    pub procs: ProcessTable,
    /// All heaps.
    pub heaps: HeapManager,
    /// Simulated wall clock.
    pub clock: Clock,
    /// The watchdog's execution-fuel meter. Boots unlimited; the test
    /// executor installs a per-case budget so runaway calls surface as
    /// deterministic hangs instead of wedging a harness worker.
    pub fuel: FuelMeter,
    /// Per-subsystem attribution of the fuel burned on this machine.
    /// Zeroed at boot (machines are fresh per test case), so after a case
    /// it holds exactly that case's subsystem breakdown — the raw data
    /// behind the telemetry layer's flamegraph profile.
    pub subsys: SubsystemFuel,
    /// Environment block.
    pub env: Environment,
    /// The kernel-panic latch (Catastrophic outcomes).
    pub crash: CrashLatch,
    /// Accumulated uncleaned state from earlier test cases in the same
    /// harness run. Zero on a fresh machine; the executor raises it when
    /// cleanup between cases is imperfect. Vulnerabilities marked
    /// "interference-dependent" only fire above a threshold, reproducing
    /// the paper's `*` entries.
    pub residue: u32,
    /// Set when a simulated API consulted [`Kernel::residue`] through
    /// [`Kernel::probe_residue`] while deciding an outcome. The parallel
    /// campaign engine uses this to know which cases may depend on
    /// cross-case interference (and so must be replayed in session
    /// order); everything else is provably order-independent.
    pub residue_probed: bool,
    /// The process default heap (`GetProcessHeap` / `malloc` arena).
    pub default_heap: HeapId,
    /// Standard-stream handles (`GetStdHandle`).
    pub std_handles: [Handle; 3],
    /// Scratch state for user-space runtime libraries built on this kernel
    /// (e.g. the C library's `strtok` saved pointer or `tmpnam` counter),
    /// keyed by a library-chosen name.
    pub scratch: std::collections::BTreeMap<String, u64>,
}

impl Kernel {
    /// Boots a POSIX-flavoured machine.
    #[must_use]
    pub fn new() -> Self {
        Self::with_flavor(MachineFlavor::Posix)
    }

    /// Boots a machine with the given flavour.
    #[must_use]
    pub fn with_flavor(flavor: MachineFlavor) -> Self {
        let space = match flavor {
            MachineFlavor::WindowsStrictAlign => AddressSpace::with_strict_alignment(),
            _ => AddressSpace::new(),
        };
        let fs = match flavor {
            MachineFlavor::Posix => FileSystem::new_posix(),
            _ => FileSystem::new_windows(),
        };
        let mut heaps = HeapManager::new();
        let default_heap = heaps.create(0, 0).expect("growable heap is always valid");
        let mut objects = ObjectTable::new();
        let std_handles = [
            objects.insert(ObjectKind::ConsoleStream { stream: 0 }),
            objects.insert(ObjectKind::ConsoleStream { stream: 1 }),
            objects.insert(ObjectKind::ConsoleStream { stream: 2 }),
        ];
        let mut kernel = Kernel {
            space,
            objects,
            fs,
            procs: ProcessTable::new(),
            heaps,
            clock: Clock::new(),
            fuel: FuelMeter::unlimited(),
            subsys: SubsystemFuel::new(),
            env: Environment::with_defaults(),
            crash: CrashLatch::new(),
            residue: 0,
            residue_probed: false,
            default_heap,
            std_handles,
            scratch: std::collections::BTreeMap::new(),
        };
        kernel.populate_fs(flavor);
        kernel
    }

    fn populate_fs(&mut self, flavor: MachineFlavor) {
        // A minimal world for path-based calls to act on.
        let dirs: &[&str] = match flavor {
            MachineFlavor::Posix => &["/tmp", "/home", "/home/ballista", "/etc"],
            _ => &["C:\\TEMP", "C:\\WINDOWS", "C:\\WINDOWS\\SYSTEM"],
        };
        for d in dirs {
            self.fs.mkdir(d).expect("fresh filesystem");
        }
        let readme = match flavor {
            MachineFlavor::Posix => "/etc/motd",
            _ => "C:\\WINDOWS\\README.TXT",
        };
        self.fs
            .create_file(readme, b"simulated machine for ballista testing\n".to_vec())
            .expect("fresh filesystem");
    }

    /// Allocates scratch user memory (helper for test-value constructors).
    ///
    /// # Panics
    ///
    /// Panics when the simulated address space is exhausted, which a
    /// fresh-per-test machine never hits.
    pub fn alloc_user(&mut self, len: u64, tag: &'static str) -> SimPtr {
        self.space
            .map(len, Protection::READ_WRITE, tag)
            .expect("fresh machine never exhausts user space")
    }

    /// Keeps the clock moving: every simulated call costs a tick, so
    /// timestamps and `GetTickCount` behave plausibly. The tick also
    /// burns one unit of watchdog fuel — a call-count bound on cases
    /// whose individual calls are all cheap. The unit is attributed to
    /// [`Subsystem::Other`]; subsystem entry points use
    /// [`Kernel::charge_call_to`] instead.
    pub fn charge_call(&mut self) {
        self.charge_call_to(Subsystem::Other);
    }

    /// [`Kernel::charge_call`] with an explicit subsystem attribution —
    /// the telemetry taps the API personality crates call at the top of
    /// every heap/fs/sync/process/time entry point.
    pub fn charge_call_to(&mut self, sub: Subsystem) {
        self.fuel.consume(1);
        self.subsys.charge(sub, 1);
        self.clock.advance_ms(1);
        let now = self.clock.tick_count_ms();
        self.fs.set_now_ms(now);
    }

    /// Burns `units` of watchdog fuel, attributed to
    /// [`Subsystem::Wait`] (bulk burns model blocked or sleeping time).
    ///
    /// # Errors
    ///
    /// [`ApiAbort::Hang`] once the per-case budget is exhausted: the
    /// simulated call has been running longer than the harness tolerates,
    /// and the watchdog converts it into the paper's Restart outcome.
    pub fn burn(&mut self, units: u64) -> Result<(), ApiAbort> {
        self.subsys.charge(Subsystem::Wait, units);
        if self.fuel.consume(units) {
            Ok(())
        } else {
            Err(ApiAbort::Hang)
        }
    }

    /// Runs the machine forward `ms` simulated milliseconds: burns the
    /// equivalent fuel, then advances the clock (capped at one minute so
    /// hostile durations cannot warp timestamps into the far future).
    ///
    /// # Errors
    ///
    /// [`ApiAbort::Hang`] when the fuel budget cannot cover `ms` — the
    /// watchdog fires *before* time moves, so a timed-out case leaves the
    /// clock where the hang was detected.
    pub fn step_for(&mut self, ms: u64) -> Result<(), ApiAbort> {
        self.burn(ms)?;
        self.clock.advance_ms(ms.min(60_000));
        let now = self.clock.tick_count_ms();
        self.fs.set_now_ms(now);
        Ok(())
    }

    /// Whether the machine is still alive (no Catastrophic event yet).
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.crash.is_alive()
    }

    /// Reads the residue counter *and records that the outcome now
    /// depends on it*. Simulated APIs must use this — never the field
    /// directly — when residue feeds an outcome decision, so the
    /// campaign engine can tell interference-sensitive cases apart.
    pub fn probe_residue(&mut self) -> u32 {
        self.residue_probed = true;
        self.residue
    }

    /// Captures this machine as a reusable boot image. The image's dirty
    /// journals (memory regions and filesystem nodes) are cleared:
    /// machines later reset against this snapshot track their deltas
    /// relative to *this* state.
    #[must_use]
    pub fn snapshot(&self) -> MachineSnapshot {
        let mut image = self.clone();
        image.space.mark_clean();
        image.fs.mark_clean();
        MachineSnapshot { image }
    }
}

/// A captured machine image. Restoring is a structural clone — much
/// cheaper than re-running the boot sequence — and, because booting is
/// fully deterministic (no hashing, no time, no randomness anywhere in
/// the machine state), `snapshot().restore()` of a freshly booted
/// machine is indistinguishable from another fresh boot.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    image: Kernel,
}

impl MachineSnapshot {
    /// A pre-booted snapshot for the given flavour.
    #[must_use]
    pub fn boot(flavor: MachineFlavor) -> Self {
        Kernel::with_flavor(flavor).snapshot()
    }

    /// Materializes a fresh machine from the image.
    #[must_use]
    pub fn restore(&self) -> Kernel {
        self.image.clone()
    }

    /// Resets `machine` — which must have started as a clone of this image
    /// (via [`MachineSnapshot::restore`] or an earlier `restore_into`) —
    /// back to the image state, undoing only what was touched.
    ///
    /// The address space rolls back its dirty-region journal and the
    /// filesystem its dirty-node journal, both in O(touched); every other
    /// kernel subsystem is reset only when its generation stamp says a
    /// structural mutator ran since the image was captured, the object
    /// and process tables with `clone_from` so their buffers are reused;
    /// the scalar state (clock, fuel, attribution ledger, crash latch,
    /// residue, handles, scratch) is restored unconditionally. The result
    /// equals a fresh [`MachineSnapshot::restore`]: the ballista suite
    /// `restore_equivalence.rs` checks that state by state after every
    /// case of every MuT's plan, and the campaign engines' cross-engine
    /// bit-identity checks enforce it on the tallies.
    pub fn restore_into(&self, machine: &mut Kernel) {
        let img = &self.image;
        machine.space.reset_from(&img.space);
        if machine.fs.generation() != img.fs.generation() {
            // Node-tree dirt: copy back the journaled nodes.
            machine.fs.reset_from(&img.fs);
        } else {
            if machine.fs.open_generation() != img.fs.open_generation() {
                // Descriptor-table dirt only (opens, closes, offset moves):
                // reset the tiny open table, leave the node tree alone.
                machine.fs.reset_open_from(&img.fs);
            }
            // The timestamp source is fed on every simulated call and is
            // restored as a scalar exactly because it must not count as
            // structural dirt.
            machine.fs.set_now_ms(img.fs.now_ms());
        }
        if machine.objects.generation() != img.objects.generation() {
            machine.objects.clone_from(&img.objects);
        }
        if machine.heaps.generation() != img.heaps.generation() {
            machine.heaps = img.heaps.clone();
        }
        if machine.procs.generation() != img.procs.generation() {
            machine.procs.clone_from(&img.procs);
        }
        if machine.env.generation() != img.env.generation() {
            machine.env = img.env.clone();
        }
        machine.clock = img.clock.clone();
        machine.fuel = img.fuel;
        machine.subsys = img.subsys;
        if machine.crash != img.crash {
            machine.crash = img.crash.clone();
        }
        machine.residue = img.residue;
        machine.residue_probed = img.residue_probed;
        machine.default_heap = img.default_heap;
        machine.std_handles = img.std_handles;
        if !machine.scratch.is_empty() || !img.scratch.is_empty() {
            machine.scratch.clear();
            machine.scratch.extend(img.scratch.iter().map(|(k, v)| (k.clone(), *v)));
        }
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boots_alive_with_world() {
        let k = Kernel::new();
        assert!(k.is_alive());
        assert!(k.fs.exists("/tmp"));
        assert!(k.fs.exists("/etc/motd"));
        assert_eq!(k.residue, 0);
        assert!(k.heaps.exists(k.default_heap));
    }

    #[test]
    fn windows_flavor_world() {
        let k = Kernel::with_flavor(MachineFlavor::Windows);
        assert!(k.fs.exists("c:\\temp"));
        assert!(k.fs.exists("C:\\WINDOWS\\README.TXT"));
        assert!(!k.space.strict_alignment());
    }

    #[test]
    fn ce_flavor_is_strict_aligned() {
        let k = Kernel::with_flavor(MachineFlavor::WindowsStrictAlign);
        assert!(k.space.strict_alignment());
    }

    #[test]
    fn std_handles_resolve() {
        let k = Kernel::with_flavor(MachineFlavor::Windows);
        for (i, h) in k.std_handles.iter().enumerate() {
            match k.objects.get(*h).unwrap() {
                ObjectKind::ConsoleStream { stream } => assert_eq!(*stream as usize, i),
                other => panic!("expected console stream, got {other:?}"),
            }
        }
    }

    #[test]
    fn charge_call_advances_clock_and_fs_time() {
        let mut k = Kernel::new();
        let t0 = k.clock.tick_count_ms();
        k.charge_call();
        k.charge_call();
        assert_eq!(k.clock.tick_count_ms(), t0 + 2);
        k.fs.create_file("/tmp/stamped", vec![]).unwrap();
        assert_eq!(k.fs.stat("/tmp/stamped").unwrap().attrs.created_ms, t0 + 2);
    }

    #[test]
    fn alloc_user_is_usable() {
        let mut k = Kernel::new();
        let p = k.alloc_user(16, "scratch");
        k.space.write_u32(p, 5).unwrap();
        assert_eq!(k.space.read_u32(p).unwrap(), 5);
    }

    #[test]
    fn probe_residue_sets_flag() {
        let mut k = Kernel::new();
        k.residue = 7;
        assert!(!k.residue_probed);
        assert_eq!(k.probe_residue(), 7);
        assert!(k.residue_probed);
    }

    #[test]
    fn fuel_watchdog_converts_runaway_steps_into_hang() {
        let mut k = Kernel::new();
        k.fuel = FuelMeter::with_budget(1_000);
        assert_eq!(k.step_for(900), Ok(()));
        assert_eq!(k.clock.tick_count_ms(), 900);
        // The next big step blows the budget: hang, clock frozen.
        assert_eq!(k.step_for(500_000), Err(ApiAbort::Hang));
        assert_eq!(k.clock.tick_count_ms(), 900, "time stops where the watchdog fired");
        assert!(k.fuel.exhausted());
        assert!(k.is_alive(), "a hang is a task outcome, not a machine crash");
    }

    #[test]
    fn step_for_caps_clock_advance_not_fuel() {
        let mut k = Kernel::new();
        k.fuel = FuelMeter::with_budget(10_000_000);
        assert_eq!(k.step_for(2_000_000), Ok(()));
        assert_eq!(k.clock.tick_count_ms(), 60_000, "clock advance is capped");
        assert_eq!(k.fuel.consumed(), 2_000_000, "fuel is charged in full");
    }

    #[test]
    fn charge_call_burns_one_fuel_unit() {
        let mut k = Kernel::new();
        k.fuel = FuelMeter::with_budget(100);
        let before = k.fuel.consumed();
        k.charge_call();
        assert_eq!(k.fuel.consumed(), before + 1);
    }

    #[test]
    fn snapshot_restore_matches_fresh_boot() {
        for flavor in [
            MachineFlavor::Posix,
            MachineFlavor::Windows,
            MachineFlavor::WindowsStrictAlign,
        ] {
            let snap = MachineSnapshot::boot(flavor);
            let restored = snap.restore();
            let booted = Kernel::with_flavor(flavor);
            assert!(restored.is_alive());
            assert_eq!(restored.residue, 0);
            assert!(!restored.residue_probed);
            assert_eq!(
                restored.clock.tick_count_ms(),
                booted.clock.tick_count_ms()
            );
            // The boot-time world is present and identical.
            let probe = match flavor {
                MachineFlavor::Posix => "/etc/motd",
                _ => "C:\\WINDOWS\\README.TXT",
            };
            assert!(restored.fs.exists(probe));
            assert_eq!(
                restored.fs.stat(probe).unwrap().attrs,
                booted.fs.stat(probe).unwrap().attrs
            );
            assert_eq!(restored.std_handles, booted.std_handles);
        }
    }

    #[test]
    fn restore_into_matches_fresh_restore_after_heavy_mutation() {
        for flavor in [
            MachineFlavor::Posix,
            MachineFlavor::Windows,
            MachineFlavor::WindowsStrictAlign,
        ] {
            let snap = MachineSnapshot::boot(flavor);
            let mut m = snap.restore();
            // Touch every subsystem the way a hostile test case would.
            m.fuel = FuelMeter::with_budget(10_000);
            m.residue = 3;
            let p = m.alloc_user(64, "case-buf");
            m.space.write_u32(p, 0xDEAD_BEEF).unwrap();
            let hp = m.heaps.create(0, 0).unwrap();
            let q = m.heaps.alloc(hp, 32, &mut m.space).unwrap();
            m.space.write_u8(q, 1).unwrap();
            let dir = match flavor {
                MachineFlavor::Posix => "/tmp/newdir",
                _ => "C:\\TEMP\\NEWDIR",
            };
            m.fs.mkdir(dir).unwrap();
            let h = m.objects.insert(ObjectKind::Heap(hp));
            m.env.set("CASE", "1").unwrap();
            let pid = m.procs.spawn_process(m.procs.current_pid(), "child");
            m.procs.terminate(pid, 1).unwrap();
            m.charge_call();
            m.probe_residue();
            m.scratch.insert("strtok".into(), 42);
            m.crash.panic("call", "reason", None);
            assert!(m.objects.get(h).is_ok());

            snap.restore_into(&mut m);
            assert_eq!(m, snap.restore(), "reset-in-place == fresh restore");
            assert!(m.is_alive());
            assert!(!m.fs.exists(dir));
            assert!(m.space.read_u32(p).is_err());
        }
    }

    #[test]
    fn restore_into_untouched_machine_skips_subsystem_clones() {
        let snap = MachineSnapshot::boot(MachineFlavor::Windows);
        let mut m = snap.restore();
        // A read-only case: charges calls but mutates nothing structural.
        m.fuel = FuelMeter::with_budget(100);
        m.charge_call();
        let fs_gen = m.fs.generation();
        snap.restore_into(&mut m);
        assert_eq!(m, snap.restore());
        assert_eq!(m.fs.generation(), fs_gen, "no clone: generation stamp kept");
    }

    #[test]
    fn restore_into_is_reusable_across_many_cases() {
        let snap = MachineSnapshot::boot(MachineFlavor::Posix);
        let mut m = snap.restore();
        for i in 0..10 {
            let p = m.alloc_user(16, "loop");
            m.space.write_u64(p, i).unwrap();
            m.fs.create_file("/tmp/f", vec![1, 2, 3]).unwrap();
            snap.restore_into(&mut m);
        }
        assert_eq!(m, snap.restore());
    }

    #[test]
    fn restored_machines_are_independent() {
        let snap = MachineSnapshot::boot(MachineFlavor::Posix);
        let mut a = snap.restore();
        a.fs.create_file("/tmp/only-in-a", vec![]).unwrap();
        let b = snap.restore();
        assert!(!b.fs.exists("/tmp/only-in-a"));
    }
}
