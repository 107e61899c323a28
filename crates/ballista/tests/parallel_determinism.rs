//! Parallel-engine behaviour not covered by the cross-engine equivalence
//! matrix (`engine_equivalence.rs`, which asserts serial/parallel/journaled
//! bit-identity through the conformance oracle): the legacy provisioning
//! cost model must remain behaviour-preserving, because it is the
//! independent reference the batched loop's tallies are held to.

use ballista::campaign::{run_campaign, CampaignConfig, CampaignReport};
use sim_kernel::variant::OsVariant;

fn run(os: OsVariant, parallelism: usize) -> CampaignReport {
    run_campaign(
        os,
        &CampaignConfig {
            cap: 200,
            record_raw: true,
            isolation_probe: true,
            perfect_cleanup: false,
            parallelism,
            fuel_budget: 0,
        },
    )
}

#[test]
fn legacy_provisioning_mode_is_behaviour_preserving() {
    let os = OsVariant::Win98;
    ballista::exec::LEGACY_PROVISIONING.store(true, std::sync::atomic::Ordering::SeqCst);
    let legacy = run(os, 1);
    ballista::exec::LEGACY_PROVISIONING.store(false, std::sync::atomic::Ordering::SeqCst);
    let current = run(os, 1);
    assert_eq!(
        serde_json::to_string(&legacy.muts).expect("serializable"),
        serde_json::to_string(&current.muts).expect("serializable"),
        "legacy provisioning changed campaign results"
    );
    // (Provisioning counters are process-wide and other tests run
    // concurrently, so no per-mode counter assertions here.)
}
