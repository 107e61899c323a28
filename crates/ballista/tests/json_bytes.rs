//! The JSON writer's bytes are pinned: every checked-in artifact under
//! `results/` reprints byte for byte from its parsed form, through a
//! `Value` tree and through the typed corpora, and each type that
//! crosses a process or HTTP boundary reads back to the bytes it was
//! written as, typed and as a `Value`. Goldens, cache entries, the fleet
//! wire and fingerprints all depend on these bytes never moving.

use ballista::adaptive::AdaptiveConfig;
use ballista::campaign::{run_campaign, CampaignConfig, MutTally};
use ballista::crashcon::CrashTally;
use ballista::fleet::{Heartbeat, ShardResult, ShardSpec, WireCleanMut};
use ballista::server::{CampaignSpec, ServerMetrics};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use sim_kernel::variant::OsVariant;
use std::path::{Path, PathBuf};

#[derive(Serialize, Deserialize)]
struct GoldenEntry {
    cap: usize,
    muts: Vec<MutTally>,
}

#[derive(Serialize, Deserialize)]
struct CrashconGoldenEntry {
    cap: usize,
    muts: Vec<CrashTally>,
}

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Parses `text` as `T` and requires `to_string_pretty` to reprint it.
fn reprints<T: Serialize + Deserialize>(path: &Path, text: &str) {
    let parsed: T = serde_json::from_str(text)
        .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
    let printed = serde_json::to_string_pretty(&parsed).expect("serializes");
    if printed != text {
        let at = printed
            .bytes()
            .zip(text.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(printed.len().min(text.len()));
        panic!(
            "{} reprints differently from byte {at}: {:?} vs {:?}",
            path.display(),
            &printed[at.saturating_sub(40)..(at + 40).min(printed.len())],
            &text[at.saturating_sub(40)..(at + 40).min(text.len())],
        );
    }
}

/// The 24 generated artifacts: per-variant classic, crashcon and adaptive
/// pins, plus the coverage, crashcon and metrics reports. The
/// hand-written `golden/coverage_floor.json` is not writer output.
#[test]
fn checked_in_artifacts_reprint_byte_for_byte() {
    let dir = results();
    let mut files = Vec::new();
    for os in OsVariant::ALL {
        let short = os.short_name();
        let classic = dir.join(format!("golden/{short}.json"));
        let crashcon = dir.join(format!("golden/crashcon_{short}.json"));
        reprints::<GoldenEntry>(&classic, &read(&classic));
        reprints::<CrashconGoldenEntry>(&crashcon, &read(&crashcon));
        files.extend([
            classic,
            crashcon,
            dir.join(format!("adaptive_{short}.json")),
        ]);
    }
    files.extend(["coverage.json", "crashcon.json", "metrics.json"].map(|f| dir.join(f)));
    assert_eq!(files.len(), 24);
    for path in &files {
        reprints::<Value>(path, &read(path));
    }
}

/// `to_vec` of what `from_slice` read, typed and as a `Value`, is the
/// bytes it read.
fn round_trips<T: Serialize + Deserialize>(value: &T) {
    let bytes = serde_json::to_vec(value).expect("serializes");
    let typed: T = serde_json::from_slice(&bytes).expect("reads back typed");
    assert_eq!(serde_json::to_vec(&typed).expect("serializes"), bytes);
    let tree: Value = serde_json::from_slice(&bytes).expect("reads back as a Value");
    assert_eq!(serde_json::to_vec(&tree).expect("serializes"), bytes);
}

#[test]
fn boundary_types_round_trip_compact() {
    round_trips(&CampaignSpec {
        cap: 200,
        isolation_probe: Some(false),
        adaptive_rounds: 3,
        adaptive_seed: u64::MAX,
        ..CampaignSpec::new(OsVariant::Win98)
    });
    round_trips(&CampaignSpec::new(OsVariant::WinCe));
    let cfg = CampaignConfig {
        cap: 20,
        record_raw: true,
        ..CampaignConfig::default()
    };
    round_trips(&ShardSpec {
        os: OsVariant::Win95,
        cfg,
        mut_start: 3,
        mut_end: 9,
        capture_fuel: true,
        crashcon: false,
        adaptive: Some(AdaptiveConfig::default()),
    });
    round_trips(&ShardResult {
        mut_start: 3,
        muts: vec![
            Some(WireCleanMut {
                records: vec![0, 1, 2, 255],
                fuel: Some(vec![10, 20, u64::MAX]),
            }),
            None,
            Some(WireCleanMut {
                records: Vec::new(),
                fuel: None,
            }),
        ],
        warnings: vec!["quarantined \"strcpy\"\n\u{1}".to_owned()],
        quarantine_retries: 1,
    });
    round_trips(&Heartbeat {
        muts_done: 4,
        cases_done: 1_000_000,
    });
    let report = run_campaign(OsVariant::Win98, &cfg);
    assert!(report.stats.is_some(), "the report carries float stats");
    round_trips(&report);
    round_trips(&ServerMetrics {
        uptime_ms: 12,
        rejected_specs: 5,
        ..ServerMetrics::default()
    });
}
