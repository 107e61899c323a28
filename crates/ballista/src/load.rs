//! Heavy-load robustness testing — the paper's other future-work item
//! ("looking for dependability problems caused by heavy load conditions").
//!
//! A [`LoadProfile`] pre-stresses every fresh test machine before the call
//! under test runs: thousands of live kernel objects and open files (up
//! against a descriptor limit), a populated filesystem, and most of the
//! heap budget consumed. Failure distributions under load are then
//! comparable against the unloaded campaign: resource-exhaustion errors
//! (`EMFILE` / `ERROR_TOO_MANY_OPEN_FILES`, `ENOMEM`) appear on the
//! descriptor- and allocation-creating calls, while the Abort/Catastrophic
//! structure stays put — load changes *which* robust errors appear, not
//! who crashes.

use crate::crash::{FailureClass, RawOutcome};
use crate::datatype::TypeRegistry;
use crate::exec::{execute_case_on, Session};
use crate::muts::Mut;
use crate::value::TestValue;
use serde::{Deserialize, Serialize};
use sim_kernel::fs::OpenOptions;
use sim_kernel::objects::ObjectKind;
use sim_kernel::sync::SyncState;
use sim_kernel::variant::OsVariant;
use sim_kernel::Kernel;

/// How hard to stress each fresh machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadProfile {
    /// Files created in the filesystem.
    pub files: usize,
    /// Open-file descriptions held open.
    pub open_files: usize,
    /// Descriptor limit installed (`None` = unlimited).
    pub open_limit: Option<usize>,
    /// Live kernel objects (events) inserted.
    pub handles: usize,
    /// Heap blocks allocated and held.
    pub heap_blocks: usize,
}

impl LoadProfile {
    /// A machine *at* its descriptor limit with a busy object table — the
    /// profile the experiment binary uses.
    #[must_use]
    pub fn heavy() -> Self {
        LoadProfile {
            files: 64,
            open_files: 256,
            open_limit: Some(256),
            handles: 512,
            heap_blocks: 128,
        }
    }
}

/// Applies the load to a fresh machine.
pub fn apply_load(k: &mut Kernel, load: &LoadProfile, os: OsVariant) {
    let dir = if os == OsVariant::Linux { "/tmp" } else { "C:\\TEMP" };
    for i in 0..load.files {
        let _ = k.fs.create_file(&format!("{dir}/load-{i:04}"), vec![0u8; 64]);
    }
    for i in 0..load.open_files {
        let path = format!("{dir}/load-{:04}", i % load.files.max(1));
        let _ = k.fs.open(&path, OpenOptions::read_only());
    }
    // The limit goes in *after* the warm descriptors so the machine sits
    // just below exhaustion.
    k.fs.set_open_limit(load.open_limit);
    for _ in 0..load.handles {
        let _ = k.objects.insert(ObjectKind::Event(SyncState::event(false, false)));
    }
    let heap = k.default_heap;
    for _ in 0..load.heap_blocks {
        let Kernel { heaps, space, .. } = k;
        let _ = heaps.alloc(heap, 4096, space);
    }
}

/// Per-MuT comparison of the loaded and unloaded runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadDelta {
    /// The call.
    pub name: String,
    /// Functional group.
    pub group: crate::muts::FunctionGroup,
    /// Cases compared.
    pub cases: usize,
    /// Cases whose raw outcome changed under load.
    pub changed: usize,
    /// Changes that *worsened* (new aborts/hangs/crashes under load).
    pub worsened: usize,
    /// Changes where a previously "successful" case now reports a
    /// resource error — the graceful load response.
    pub new_errors: usize,
    /// Cases excluded because the *test scaffolding* degraded: a pool
    /// constructor could not obtain its resource on the exhausted machine
    /// (e.g. the "open rw fd" value fell back to −1), so the two runs are
    /// not comparing the same inputs.
    pub scaffold_degraded: usize,
}

/// A "degenerate" constructed value: the fallback the pools emit when a
/// resource-producing constructor fails on an exhausted machine.
fn is_degenerate(value: u64) -> bool {
    value == 0 || value == u64::from(u32::MAX)
}

/// Runs the same sampled cases with and without load and diffs the raw
/// outcomes per case. Cases whose pool constructors degraded on the
/// loaded machine (fell back to NULL/−1 where the pristine machine built
/// a live resource) are excluded from the outcome diff — those compare
/// scaffolding, not the implementation.
#[must_use]
pub fn run_load_comparison(
    os: OsVariant,
    muts: &[Mut],
    registry: &TypeRegistry,
    load: &LoadProfile,
    cap: usize,
) -> Vec<LoadDelta> {
    let mut out = Vec::new();
    for m in muts {
        let pools: Vec<Vec<TestValue>> = m.params.iter().map(|ty| registry.pool(ty)).collect();
        let plan = crate::campaign::plan_of(m, &pools, cap);
        let mut delta = LoadDelta {
            name: m.name.to_owned(),
            group: m.group,
            cases: 0,
            changed: 0,
            worsened: 0,
            new_errors: 0,
            scaffold_degraded: 0,
        };
        let mut cases = plan.cases();
        for c_idx in 0..plan.len() {
            let combo = cases.get(c_idx);
            delta.cases += 1;
            // Detect scaffold degradation: run the constructors alone on
            // both machine states and compare degeneracy.
            let mut probe_fresh = Kernel::with_flavor(os.machine_flavor());
            let fresh_args: Vec<u64> = combo
                .iter()
                .zip(&pools)
                .map(|(&i, pool)| (pool[i].make)(&mut probe_fresh, os))
                .collect();
            let mut probe_loaded = Kernel::with_flavor(os.machine_flavor());
            apply_load(&mut probe_loaded, load, os);
            let loaded_args: Vec<u64> = combo
                .iter()
                .zip(&pools)
                .map(|(&i, pool)| (pool[i].make)(&mut probe_loaded, os))
                .collect();
            let degraded = fresh_args
                .iter()
                .zip(&loaded_args)
                .any(|(&f, &l)| is_degenerate(l) && !is_degenerate(f));
            if degraded {
                delta.scaffold_degraded += 1;
                continue;
            }
            // Unloaded baseline (standard per-case isolation).
            let baseline =
                crate::exec::execute_case(os, m, &pools, combo, &mut Session::new());
            // Loaded run.
            let mut kernel = Kernel::with_flavor(os.machine_flavor());
            apply_load(&mut kernel, load, os);
            let loaded = execute_case_on(&mut kernel, os, m, &pools, combo);
            if loaded.raw != baseline.raw {
                delta.changed += 1;
                let worse = matches!(
                    loaded.class,
                    FailureClass::Abort | FailureClass::Restart | FailureClass::Catastrophic
                ) && !matches!(
                    baseline.class,
                    FailureClass::Abort | FailureClass::Restart | FailureClass::Catastrophic
                );
                if worse {
                    delta.worsened += 1;
                }
                if loaded.raw == RawOutcome::ReturnedError
                    && baseline.raw == RawOutcome::ReturnedSuccess
                {
                    delta.new_errors += 1;
                }
            }
        }
        if delta.changed > 0 || delta.scaffold_degraded > 0 {
            out.push(delta);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn loaded_machine_hits_descriptor_limit() {
        let mut k = Kernel::new();
        apply_load(&mut k, &LoadProfile::heavy(), OsVariant::Linux);
        assert!(k.fs.open_count() >= 256);
        assert_eq!(
            k.fs.open("/etc/motd", OpenOptions::read_only()).unwrap_err(),
            sim_kernel::fs::FsError::TooManyOpen
        );
    }

    #[test]
    fn load_changes_open_calls_gracefully() {
        let os = OsVariant::Linux;
        let registry = catalog::registry_for(os);
        let muts: Vec<Mut> = catalog::catalog_for(os)
            .into_iter()
            .filter(|m| ["open", "creat", "dup", "pipe"].contains(&m.name))
            .collect();
        let deltas = run_load_comparison(os, &muts, &registry, &LoadProfile::heavy(), 80);
        let open_delta = deltas
            .iter()
            .find(|d| d.name == "open")
            .expect("open must change under descriptor exhaustion");
        assert!(open_delta.new_errors > 0, "{open_delta:?}");
        // Load never *worsens* open into aborts/crashes.
        assert_eq!(open_delta.worsened, 0, "{open_delta:?}");
    }

    #[test]
    fn load_does_not_create_new_crashes_on_nt() {
        let os = OsVariant::WinNt4;
        let registry = catalog::registry_for(os);
        let muts: Vec<Mut> = catalog::catalog_for(os).into_iter().take(30).collect();
        let deltas = run_load_comparison(os, &muts, &registry, &LoadProfile::heavy(), 40);
        for d in &deltas {
            assert_eq!(d.worsened, 0, "{}: load worsened outcomes on NT", d.name);
        }
    }
}
