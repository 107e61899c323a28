//! Workspace-level snapshot test against the golden CRASH corpus: the
//! serial engine on every variant at cap 200 must serialize to exactly
//! the pinned per-variant tallies under `results/golden/`. The corpus is
//! regenerable only through `conformance --bless`; an unexpected diff
//! here means a kernel, catalog, pool or sampling change silently moved
//! observed robustness behaviour. The crash-consistency corpus
//! (`crashcon_<os>.json`, blessed by `crashcon --bless`) is pinned the
//! same way, and so are the adaptive explore ledgers
//! (`adaptive_<os>.json`, blessed by `adaptive --bless`) together with
//! the digest of every variant's pinned plan.

use ballista::adaptive::{explore, AdaptiveConfig, RoundStats};
use ballista::campaign::{run_campaign, CampaignConfig, MutTally};
use ballista::coverage::Coverage;
use ballista::crashcon::{run_crashcon, CrashTally};
use ballista::telemetry::{Counter, Hub, TelemetryConfig};
use serde::Deserialize;
use sim_kernel::variant::OsVariant;
use std::fs;
use std::path::PathBuf;

/// The corpus cap — must match `GOLDEN_CAP` in the conformance binary.
const GOLDEN_CAP: usize = 200;

#[derive(Deserialize)]
struct GoldenEntry {
    cap: usize,
    muts: Vec<MutTally>,
}

#[derive(Deserialize)]
struct CrashconGoldenEntry {
    cap: usize,
    muts: Vec<CrashTally>,
}

/// The explore ledger fields of `results/adaptive_<os>.json`.
#[derive(Deserialize)]
struct AdaptiveGoldenEntry {
    cap: usize,
    rounds: Vec<RoundStats>,
    explore_cases: u64,
    pinned_cases: u64,
}

/// `PinnedPlan::digest()` of each variant's default-knob pin at
/// [`GOLDEN_CAP`]. The adaptive goldens record the ledger but not the
/// plan, so these pin the case list itself: an explorer change that
/// keeps every count but draws different cases must bump `MODE_TAG`
/// and re-pin these together with the goldens.
const PINNED_DIGESTS: [(OsVariant, u64); 7] = [
    (OsVariant::Linux, 0xcd52_9a7d_c670_336a),
    (OsVariant::Win95, 0xbd31_417f_03af_efce),
    (OsVariant::Win98, 0x5a0f_12e0_2f46_a6f1),
    (OsVariant::Win98Se, 0x6b85_9bb2_0aad_437f),
    (OsVariant::WinNt4, 0x4706_4c3f_3e01_f6a4),
    (OsVariant::Win2000, 0xb749_ea6a_bf74_5bcc),
    (OsVariant::WinCe, 0x09dd_881a_4991_9810),
];

fn golden_path(os: OsVariant) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/golden")
        .join(format!("{}.json", os.short_name()))
}

fn crashcon_golden_path(os: OsVariant) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/golden")
        .join(format!("crashcon_{}.json", os.short_name()))
}

#[test]
fn serial_tallies_match_golden_corpus_on_every_variant() {
    let cfg = CampaignConfig {
        cap: GOLDEN_CAP,
        record_raw: true,
        isolation_probe: true,
        perfect_cleanup: false,
        parallelism: 1,
        fuel_budget: 0,
    };
    for os in OsVariant::ALL {
        let name = os.short_name();
        let path = golden_path(os);
        let text = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden corpus {} ({e}); regenerate with \
                 `cargo run --release -p experiments --bin conformance -- --bless`",
                path.display()
            )
        });
        let golden: GoldenEntry =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: corrupt corpus: {e}"));
        assert_eq!(golden.cap, GOLDEN_CAP, "{name}: corpus blessed at a different cap");

        let report = run_campaign(os, &cfg);
        let live = serde_json::to_string(&report.muts).expect("serialize");
        let pinned = serde_json::to_string(&golden.muts).expect("serialize");
        if live != pinned {
            let diverged: Vec<&str> = report
                .muts
                .iter()
                .zip(&golden.muts)
                .filter(|(a, b)| {
                    serde_json::to_string(a).unwrap() != serde_json::to_string(b).unwrap()
                })
                .map(|(a, _)| a.name.as_str())
                .collect();
            panic!(
                "{name}: live tallies drifted from the golden corpus \
                 (diverged MuTs: {diverged:?}); if the behaviour change is \
                 intentional, re-bless with `conformance -- --bless`"
            );
        }
    }
}

#[test]
fn crashcon_tallies_match_golden_corpus_on_every_variant() {
    let cfg = CampaignConfig {
        cap: GOLDEN_CAP,
        record_raw: true,
        isolation_probe: true,
        perfect_cleanup: false,
        parallelism: 1,
        fuel_budget: 0,
    };
    for os in OsVariant::ALL {
        let name = os.short_name();
        let path = crashcon_golden_path(os);
        let text = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing crashcon golden corpus {} ({e}); regenerate with \
                 `cargo run --release -p experiments --bin crashcon -- --bless`",
                path.display()
            )
        });
        let golden: CrashconGoldenEntry =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: corrupt corpus: {e}"));
        assert_eq!(golden.cap, GOLDEN_CAP, "{name}: corpus blessed at a different cap");

        let report = run_crashcon(os, &cfg);
        assert!(
            report.consistent(),
            "{name}: the unbroken filesystem must pass every bounded crash point"
        );
        let live = serde_json::to_string(&report.muts).expect("serialize");
        let pinned = serde_json::to_string(&golden.muts).expect("serialize");
        if live != pinned {
            let diverged: Vec<&str> = report
                .muts
                .iter()
                .zip(&golden.muts)
                .filter(|(a, b)| a != b)
                .map(|(a, _)| a.name.as_str())
                .collect();
            panic!(
                "{name}: live crashcon tallies drifted from the golden corpus \
                 (diverged MuTs: {diverged:?}); if the behaviour change is \
                 intentional, re-bless with `crashcon -- --bless`"
            );
        }
    }
}

/// The pooled explore pins the same plan as the serial one: at
/// parallelism 1, 2 and 3 (explore runs the last on its two-thread
/// limit) every variant reproduces its golden ledger, explore case
/// count and [`PINNED_DIGESTS`] value, and its explore coverage equals
/// the serial explore's. The speculative half must
/// really have rolled back draws, or the equality proves little.
#[test]
fn adaptive_explore_matches_golden_on_every_variant() {
    let cfg = CampaignConfig {
        cap: GOLDEN_CAP,
        record_raw: false,
        isolation_probe: true,
        perfect_cleanup: false,
        parallelism: 1,
        fuel_budget: 0,
    };
    // Metrics only: traces and profiles stay off, so the other tests in
    // this binary run exactly as without a hub.
    let hub = Hub::install(TelemetryConfig {
        trace: false,
        profile: false,
    });
    assert_eq!(PINNED_DIGESTS.len(), OsVariant::ALL.len());
    for (os, digest) in PINNED_DIGESTS {
        let name = os.short_name();
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../results")
            .join(format!("adaptive_{name}.json"));
        let text = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing adaptive golden {} ({e}); regenerate with \
                 `cargo run --release -p experiments --bin adaptive -- --bless`",
                path.display()
            )
        });
        let golden: AdaptiveGoldenEntry =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: corrupt golden: {e}"));
        assert_eq!(
            golden.cap, GOLDEN_CAP,
            "{name}: golden blessed at a different cap"
        );

        let mut serial: Option<Coverage> = None;
        for parallelism in [1, 2, 3] {
            let pin = explore(
                os,
                &CampaignConfig { parallelism, ..cfg },
                &AdaptiveConfig::default(),
            );
            assert_eq!(
                pin.rounds, golden.rounds,
                "{name} at parallelism {parallelism}: explore ledger drifted"
            );
            assert_eq!(
                pin.explore_cases, golden.explore_cases,
                "{name} at parallelism {parallelism}: explore cases"
            );
            assert_eq!(
                pin.pinned_cases(),
                golden.pinned_cases,
                "{name} at parallelism {parallelism}: pinned cases"
            );
            assert_eq!(
                pin.digest(),
                digest,
                "{name} at parallelism {parallelism}: pinned plan digest {:#018x} drifted",
                pin.digest()
            );
            match &serial {
                None => serial = Some(pin.explore_coverage),
                Some(cov) => assert!(
                    *cov == pin.explore_coverage,
                    "{name} at parallelism {parallelism}: explore coverage differs from serial"
                ),
            }
        }
    }
    let host = hub.metrics_snapshot().host;
    Hub::uninstall();
    assert!(
        host[Counter::AdaptiveRollbacks] > 0,
        "no pooled explore rolled back a draw: {host:?}"
    );
}
