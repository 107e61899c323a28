//! The harness's own heap allocations per test case. A case's arguments
//! live in a stack array, the resident machine resets its filesystem node
//! by node and its object and process tables in their own buffers, and
//! path walks fold names on the stack, so what is left per case is the
//! simulated APIs' own allocations. This binary counts allocation calls
//! with its own global allocator; every test in a binary shares that
//! allocator, so the binary holds a single test.

use ballista::campaign::{run_campaign, CampaignConfig};
use ballista::{catalog, exec};
use sim_kernel::kernel::{MachineFlavor, MachineSnapshot};
use sim_kernel::variant::OsVariant;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls: `alloc`, `alloc_zeroed` and `realloc`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds bookkeeping on an atomic, so `System`'s
// guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// Dirties a machine the way a typical test case does, as
/// `bench_restore`'s case of the same name: a file created, opened and
/// unlinked, a handle inserted and closed, a 4 KiB region filled.
fn dirty_typical(k: &mut sim_kernel::Kernel) {
    let _ = k.fs.create_file("C:\\TEMP\\case.bin", vec![0xA5; 512]);
    if let Ok(ofd) = k.fs.open(
        "C:\\TEMP\\case.bin",
        sim_kernel::fs::OpenOptions::read_only(),
    ) {
        let h = k.objects.insert(sim_kernel::objects::ObjectKind::File(ofd));
        let _ = k.objects.close(h);
    }
    let buf = k.alloc_user(4096, "bench");
    k.space
        .fill(buf, 0x00, 4096, sim_core::addr::PrivilegeLevel::User)
        .expect("mapped");
    let _ = k.fs.unlink("C:\\TEMP\\case.bin");
}

/// Allocation calls per executed case of a serial classic campaign at
/// cap 1000, counted on a second run so plan streams, boot templates and
/// catalog tables exist already.
fn allocs_per_case(os: OsVariant) -> f64 {
    let cfg = CampaignConfig {
        cap: 1000,
        parallelism: 1,
        ..CampaignConfig::default()
    };
    black_box(run_campaign(os, &cfg));
    let before = allocs();
    let report = run_campaign(os, &cfg);
    let made = allocs() - before;
    made as f64 / report.total_cases as f64
}

#[test]
fn the_case_loop_leaves_allocation_to_the_simulated_apis() {
    // Every catalog MuT's arguments fit the stack array a case builds.
    for os in OsVariant::ALL {
        for m in catalog::catalog_for(os) {
            assert!(
                m.params.len() <= exec::MAX_ARITY,
                "{os:?} {} takes {} parameters, MAX_ARITY is {}",
                m.name,
                m.params.len(),
                exec::MAX_ARITY
            );
        }
    }

    // Resetting after a typical case reuses every buffer: the regions'
    // spare pool, the directory the case created its file in, the
    // descriptor and object tables. The first reset grows those buffers
    // to size; the second must allocate nothing.
    let snap = MachineSnapshot::boot(MachineFlavor::Windows);
    let mut machine = snap.restore();
    dirty_typical(&mut machine);
    snap.restore_into(&mut machine);
    dirty_typical(&mut machine);
    let before = allocs();
    snap.restore_into(&mut machine);
    let made = allocs() - before;
    assert_eq!(
        made, 0,
        "restore_into allocated {made} times after a typical case"
    );
    assert_eq!(machine, snap.restore());

    // The serial engine at cap 1000 makes at most half the allocations
    // per case it made with a per-case argument vector, whole-filesystem
    // clones, table clones and a `String` per folded path component
    // (debug build: win98 3.289, linux 3.877, winnt 3.293; 0.845, 1.011
    // and 0.800 without them).
    for (os, bound) in [
        (OsVariant::Win98, 1.644),
        (OsVariant::Linux, 1.938),
        (OsVariant::WinNt4, 1.646),
    ] {
        let per_case = allocs_per_case(os);
        println!("{os:?}: {per_case:.3} allocations per case");
        assert!(
            per_case <= bound,
            "{os:?} made {per_case:.3} allocations per case, bound {bound}"
        );
    }
}
