//! The views over the one host counter set agree: the hub's counters
//! (the host half of `metrics.json`) equal the sums of the campaigns'
//! `CampaignStats`, and a fleet campaign's caller-held set ends with
//! every shard done and every clean-pass case counted.
//!
//! Its own test binary, because the hub is process-wide: nothing else
//! may count into it while the campaigns run.

use ballista::campaign::{run_campaign, CampaignConfig, CampaignStats};
use ballista::catalog;
use ballista::crashcon::run_crashcon;
use ballista::fleet::{
    execute_shard, run_campaign_fleet_observed, FleetConfig, FleetProgressSnapshot, ShardSpec,
};
use ballista::telemetry::{Counter, Counters, Hub, TelemetryConfig};
use sim_kernel::variant::OsVariant;
use std::sync::Arc;

fn cfg(cap: usize, parallelism: usize) -> CampaignConfig {
    CampaignConfig {
        cap,
        parallelism,
        ..CampaignConfig::default()
    }
}

#[test]
fn hub_campaign_stats_and_fleet_progress_read_the_same_counts() {
    let hub = Hub::install(TelemetryConfig::default());
    // Win98 crashes (isolation probes) and replays residue-probing cases.
    let classic = run_campaign(OsVariant::Win98, &cfg(100, 2));
    let crashcon = run_crashcon(OsVariant::Win95, &cfg(60, 1));
    let host = hub.metrics_snapshot().host;
    Hub::uninstall();

    let stats: Vec<CampaignStats> = [classic.stats, crashcon.stats]
        .into_iter()
        .map(|s| s.expect("every engine reports stats"))
        .collect();
    let sum = |field: fn(&CampaignStats) -> u64| stats.iter().map(field).sum::<u64>();
    assert!(
        !classic.catastrophic_muts().is_empty(),
        "the probes must run"
    );
    assert!(
        stats[0].replayed_cases > 0,
        "the replay pass must re-execute"
    );
    assert_eq!(host[Counter::CasesExecuted], sum(|s| s.restores));
    for (counter, field) in [
        (Counter::Boots, (|s| s.boots) as fn(&CampaignStats) -> u64),
        (Counter::Restores, |s| s.restores),
        (Counter::RestoresFast, |s| s.restores_fast),
        (Counter::RestoresFull, |s| s.restores_full),
        (Counter::ProbeProvisions, |s| s.probe_provisions),
        (Counter::CrashconSnapshots, |s| s.crashcon_snapshots),
        (Counter::CrashconRemounts, |s| s.crashcon_remounts),
    ] {
        assert!(host[counter] > 0, "{}: nothing counted", counter.key());
        assert_eq!(host[counter], sum(field), "{}", counter.key());
    }
    assert_eq!(host[Counter::CampaignsBegun], 2);
    assert_eq!(host[Counter::CampaignsFinished], 2);

    // A fleet campaign counting into a set the caller holds.
    let os = OsVariant::Win95;
    let set = Arc::new(Counters::default());
    let fleet = FleetConfig {
        shards: 6,
        workers: 2,
        ..FleetConfig::default()
    };
    let report = run_campaign_fleet_observed(os, &cfg(80, 0), &fleet, Some(&set));
    let progress = FleetProgressSnapshot::of(&set);
    assert_eq!(progress.shards_total, 6);
    assert_eq!(progress.shards_done, progress.shards_total);
    assert!(!progress.degraded);
    let clean_pass = execute_shard(&ShardSpec {
        os,
        cfg: cfg(80, 0),
        mut_start: 0,
        mut_end: catalog::catalog_for(os).len(),
        capture_fuel: false,
        crashcon: false,
        adaptive: None,
    });
    let clean_cases: u64 = clean_pass
        .muts
        .iter()
        .flatten()
        .map(|m| m.records.len() as u64)
        .sum();
    assert_eq!(progress.cases_done, clean_cases);
    let stats = report.stats.expect("fleet stats");
    assert_eq!(stats.restores, set.get(Counter::Restores));
    assert_eq!(set.get(Counter::CampaignsFinished), 1);
}
