//! Resetting the resident machine in place must leave exactly the state a
//! fresh restore of the boot image has. `MachineSnapshot::restore_into`
//! rolls back only what a case touched: memory regions and filesystem
//! nodes by their dirty journals, the other subsystems by their
//! generation stamps. A mutator that forgets its journal note or its
//! stamp leaves residue that the next case on the same machine sees, and
//! the tallies drift without any test comparing outcomes noticing. So
//! this suite runs every case of every MuT's cap-200 plan on every
//! variant on one machine, as the batched engines do, and compares the
//! whole machine with a fresh restore after every reset. No planned case
//! writes to a file of the boot image, so a second test writes to each
//! of them directly.

use ballista::campaign::resolve_pools;
use ballista::exec::{self, Session, DEFAULT_FUEL_BUDGET};
use ballista::{catalog, sampling};
use sim_kernel::clock::FuelMeter;
use sim_kernel::fs::{FileSystem, OpenOptions};
use sim_kernel::kernel::MachineSnapshot;
use sim_kernel::variant::OsVariant;
use sim_kernel::{Kernel, MachineFlavor};

const CAP: usize = 200;

/// The subsystems in which `a` and `b` differ.
fn differing(a: &Kernel, b: &Kernel) -> Vec<&'static str> {
    let fields = [
        ("space", a.space == b.space),
        ("objects", a.objects == b.objects),
        ("fs", a.fs == b.fs),
        ("procs", a.procs == b.procs),
        ("heaps", a.heaps == b.heaps),
        ("clock", a.clock == b.clock),
        ("fuel", a.fuel == b.fuel),
        ("subsys", a.subsys == b.subsys),
        ("env", a.env == b.env),
        ("crash", a.crash == b.crash),
        ("residue", a.residue == b.residue),
        ("residue_probed", a.residue_probed == b.residue_probed),
        ("default_heap", a.default_heap == b.default_heap),
        ("std_handles", a.std_handles == b.std_handles),
        ("scratch", a.scratch == b.scratch),
    ];
    fields
        .iter()
        .filter(|(_, same)| !same)
        .map(|(name, _)| *name)
        .collect()
}

#[test]
fn reset_in_place_matches_fresh_restore_after_every_planned_case() {
    let mut cases = 0usize;
    let mut mismatches = Vec::new();
    for os in OsVariant::ALL {
        let registry = catalog::registry_for(os);
        let snap = MachineSnapshot::boot(os.machine_flavor());
        let fresh = snap.restore();
        let mut machine = snap.restore();
        let mut session = Session::new();
        for m in catalog::catalog_for(os) {
            let pools = resolve_pools(&registry, &m);
            let plan = if pools.is_empty() {
                sampling::Plan::single()
            } else {
                let dims: Vec<usize> = pools.iter().map(Vec::len).collect();
                sampling::plan(&dims, CAP, m.name)
            };
            let mut walk = plan.cases();
            for i in 0..plan.len() {
                machine.fuel = FuelMeter::with_budget(DEFAULT_FUEL_BUDGET);
                machine.residue = session.residue;
                let r = exec::execute_case_on(&mut machine, os, &m, &pools, walk.get(i));
                session.note(r.raw, r.any_exceptional);
                snap.restore_into(&mut machine);
                cases += 1;
                if machine != fresh {
                    mismatches.push(format!(
                        "{os:?} {} case {i}: {}",
                        m.name,
                        differing(&machine, &fresh).join(", ")
                    ));
                    // Start the next case from a clean machine, so one
                    // leak is reported once.
                    machine = snap.restore();
                }
            }
        }
    }
    assert_eq!(cases, 138_263, "every case of every cap-{CAP} plan ran");
    assert!(
        mismatches.is_empty(),
        "{} resets differ from a fresh restore; first ones:\n{}",
        mismatches.len(),
        mismatches[..mismatches.len().min(20)].join("\n")
    );
}

/// The regular files under `dir`, walked with `list_dir`.
fn files_under(fs: &FileSystem, dir: &str, out: &mut Vec<String>) {
    for name in fs.list_dir(dir).expect("a directory lists") {
        let path = format!("{}/{name}", dir.trim_end_matches('/'));
        if fs.stat(&path).expect("a listed name resolves").is_dir {
            files_under(fs, &path, out);
        } else {
            out.push(path);
        }
    }
}

#[test]
fn a_write_to_any_boot_image_file_resets_to_a_fresh_restore() {
    for flavor in [
        MachineFlavor::Posix,
        MachineFlavor::Windows,
        MachineFlavor::WindowsStrictAlign,
    ] {
        let snap = MachineSnapshot::boot(flavor);
        let fresh = snap.restore();
        let mut machine = snap.restore();
        let mut files = Vec::new();
        files_under(&fresh.fs, "/", &mut files);
        assert!(!files.is_empty(), "{flavor:?}: the boot image holds a file");
        for path in &files {
            let ofd = machine
                .fs
                .open(path, OpenOptions::write_only())
                .unwrap_or_else(|e| panic!("{flavor:?}: open {path} for writing: {e:?}"));
            machine.fs.write(ofd, b"residue").expect("write");
            snap.restore_into(&mut machine);
            assert!(
                machine == fresh,
                "{flavor:?}: writing {path} leaks through the reset: {}",
                differing(&machine, &fresh).join(", ")
            );
        }
    }
}
