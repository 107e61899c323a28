//! The memory bound of plans by prefix. A capped plan is a prefix of its
//! signature's sample stream, so planning a cap below the largest one
//! asked stores nothing new, and a fingerprint reads planned counts off
//! the variant's prepared catalog without planning at all. This binary counts live
//! heap bytes with its own global allocator; every test in a binary
//! shares that allocator, so the binary holds a single test.

use ballista::campaign::{fingerprint, resolve_pools, CampaignConfig};
use ballista::{catalog, sampling};
use sim_kernel::variant::OsVariant;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes: allocated minus freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds bookkeeping on an atomic, so `System`'s
// guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, which is `System`, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::SeqCst);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::SeqCst)
}

/// One variant's catalog as `(name, dims)`, parameterless MuTs left out.
fn signatures(os: OsVariant) -> Vec<(&'static str, Vec<usize>)> {
    let registry = catalog::registry_for(os);
    catalog::catalog_for(os)
        .iter()
        .map(|m| {
            let dims = resolve_pools(&registry, m).iter().map(Vec::len).collect();
            (m.name, dims)
        })
        .filter(|(_, dims): &(_, Vec<usize>)| !dims.is_empty())
        .collect()
}

fn plan_all(signatures: &[(&'static str, Vec<usize>)], cap: usize) {
    for (name, dims) in signatures {
        black_box(sampling::plan(dims, cap, name));
    }
}

fn cfg(cap: usize) -> CampaignConfig {
    CampaignConfig {
        cap,
        ..CampaignConfig::default()
    }
}

#[test]
fn distinct_caps_and_fingerprints_leave_the_live_heap_bounded() {
    let variants: Vec<_> = OsVariant::ALL.into_iter().map(signatures).collect();

    // Plans at cap 1000 exist on every variant; then every MuT is planned
    // at 60 distinct caps in 150–250, round-robin over the variants — the
    // shape of a served session's first-seen specs. Each is a slice of a
    // stream already drawn past it, or a short new stream for a MuT whose
    // product lies between the two caps.
    for signatures in &variants {
        plan_all(signatures, 1000);
    }
    let before = live();
    for k in 0..60 {
        plan_all(&variants[k % variants.len()], 150 + (k * 37) % 101);
    }
    let grown = live() - before;
    assert!(
        grown < 1 << 20,
        "60 distinct caps grew the live heap by {grown} bytes"
    );

    // Once the prepared catalog exists, a fingerprint at a cap never
    // planned stores nothing.
    for os in OsVariant::ALL {
        black_box(fingerprint(os, &cfg(1000)));
    }
    let before = live();
    for os in OsVariant::ALL {
        black_box(fingerprint(os, &cfg(4321)));
    }
    assert_eq!(live() - before, 0, "a fingerprint changed the live heap");
}
