//! Verifies the paper's cross-variant protocol: "the same pseudorandom
//! sampling of test cases was performed in the same order for each system
//! call or C function tested across the different Windows variants" — the
//! precondition for the Figure 2 voting.

use ballista::campaign::{resolve_pools, run_mut_campaign, CampaignConfig};
use ballista::catalog;
use ballista::sampling;
use sim_kernel::variant::OsVariant;

#[test]
fn identical_case_lists_across_desktop_windows() {
    // For every shared C-library MuT, the selected case list must be
    // byte-identical on every desktop Windows variant.
    let registries: Vec<_> = OsVariant::DESKTOP_WINDOWS
        .iter()
        .map(|&os| (os, catalog::registry_for(os), catalog::catalog_for(os)))
        .collect();
    let (_, ref_registry, ref_muts) = &registries[0];
    for m in ref_muts.iter().filter(|m| m.group.is_c_library()).take(25) {
        let dims: Vec<usize> = resolve_pools(ref_registry, m).iter().map(Vec::len).collect();
        if dims.is_empty() {
            continue;
        }
        let reference = sampling::enumerate(&dims, 300, m.name);
        for (os, registry, muts) in &registries[1..] {
            let peer = muts
                .iter()
                .find(|p| p.name == m.name)
                .unwrap_or_else(|| panic!("{} missing on {os}", m.name));
            let peer_dims: Vec<usize> =
                resolve_pools(registry, peer).iter().map(Vec::len).collect();
            assert_eq!(peer_dims, dims, "{}: pool sizes differ on {os}", m.name);
            let sample = sampling::enumerate(&peer_dims, 300, peer.name);
            assert_eq!(sample, reference, "{}: case order differs on {os}", m.name);
        }
    }
}

#[test]
fn raw_outcome_streams_align_for_voting() {
    // Run the same MuT with raw recording on two variants and confirm the
    // streams are index-aligned (same length, and the NT stream really
    // reflects validation where 98's reflects silence).
    let cfg = CampaignConfig {
        cap: 200,
        record_raw: true,
        isolation_probe: false,
        perfect_cleanup: false,
        parallelism: 1,
        fuel_budget: 0,
    };
    let find = |os: OsVariant| {
        let muts = catalog::catalog_for(os);
        let m = muts.iter().find(|m| m.name == "CloseHandle").unwrap().clone();
        run_mut_campaign(os, &m, &cfg)
    };
    let t98 = find(OsVariant::Win98);
    let tnt = find(OsVariant::WinNt4);
    assert_eq!(t98.raw_outcomes.len(), tnt.raw_outcomes.len());
    assert!(!t98.raw_outcomes.is_empty());
    // 98 accepts garbage silently; NT rejects it: ground truth must show
    // far more Silent on 98.
    assert!(
        t98.silents > tnt.silents * 2,
        "98 silents = {}, NT silents = {}",
        t98.silents,
        tnt.silents
    );
    assert!(tnt.error_reports > t98.error_reports);
}

#[test]
fn sampling_respects_cap_at_paper_scale() {
    for os in [OsVariant::Win98, OsVariant::Linux] {
        let registry = catalog::registry_for(os);
        for m in catalog::catalog_for(os) {
            let pools = resolve_pools(&registry, &m);
            if pools.is_empty() {
                continue;
            }
            let dims: Vec<usize> = pools.iter().map(Vec::len).collect();
            let set = sampling::enumerate(&dims, sampling::PAPER_CAP, m.name);
            assert!(
                set.cases.len() <= sampling::PAPER_CAP,
                "{}: {} cases",
                m.name,
                set.cases.len()
            );
            assert_eq!(
                set.exhaustive,
                sampling::combination_count(&dims) <= sampling::PAPER_CAP as u64,
                "{}",
                m.name
            );
        }
    }
}

/// Plans by prefix are the reference sampler's plans. Every signature of
/// every variant's catalog is planned at caps asked in a mixed order —
/// down, up, just below, at and just above its product — so its sample
/// stream is sliced, grown from its saved state, and bypassed by the
/// lexicographic range. Each plan must equal `sampling::enumerate` at its
/// cap, case for case, exhaustive flag included.
#[test]
fn plans_equal_the_reference_sampler_in_any_request_order() {
    let mut signatures = std::collections::BTreeSet::new();
    for os in OsVariant::ALL {
        let registry = catalog::registry_for(os);
        for m in catalog::catalog_for(os) {
            let dims: Vec<usize> = resolve_pools(&registry, &m).iter().map(Vec::len).collect();
            if !dims.is_empty() {
                signatures.insert((m.name, dims));
            }
        }
    }
    for (name, dims) in &signatures {
        let product = sampling::combination_count(dims) as usize;
        for cap in [5000, 1, 200, 1000, 150, 4999, product - 1, product, product + 1] {
            let plan = sampling::plan(dims, cap, name);
            assert_eq!(
                plan.to_case_set(),
                sampling::enumerate(dims, cap, name),
                "{name} {dims:?} at cap {cap}"
            );
            assert_eq!(plan.exhaustive(), product <= cap, "{name} at cap {cap}");
        }
    }
}
