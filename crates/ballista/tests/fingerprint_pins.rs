//! Content addresses stay put. A campaign fingerprint keys the result
//! cache and stamps every journal header, so a change that moves one
//! silently re-keys the cache and orphans every journal on disk. These
//! pins hold the classic, adaptive and crashcon addresses at their
//! recorded values; moving one on purpose means updating the pin here
//! and saying why in the change log.

use ballista::adaptive::{fingerprint_adaptive, AdaptiveConfig};
use ballista::campaign::{fingerprint, CampaignConfig};
use ballista::crashcon::run_crashcon_journaled;
use sim_kernel::variant::OsVariant;

fn cap200() -> CampaignConfig {
    CampaignConfig {
        cap: 200,
        ..CampaignConfig::default()
    }
}

#[test]
fn classic_fingerprints_are_pinned() {
    let cfg = cap200();
    assert_eq!(
        fingerprint(OsVariant::Win95, &cfg).to_string(),
        "31e020b6406e521a"
    );
    assert_eq!(
        fingerprint(OsVariant::Linux, &cfg).to_string(),
        "b8b24b69c13d13d8"
    );
}

#[test]
fn adaptive_fingerprint_is_pinned() {
    let fp = fingerprint_adaptive(OsVariant::Win95, &cap200(), &AdaptiveConfig::default());
    assert_eq!(fp.to_string(), "188a6e82f8ced5a9");
}

#[test]
fn crashcon_journal_header_hash_is_pinned() {
    let cfg = CampaignConfig {
        cap: 5,
        parallelism: 1,
        ..CampaignConfig::default()
    };
    let dir = std::env::temp_dir().join("ballista-fingerprint-pins");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("crashcon-win95.jrn");
    run_crashcon_journaled(OsVariant::Win95, &cfg, &path, false).expect("journaled run");
    let bytes = std::fs::read(&path).expect("journal readable");
    let _ = std::fs::remove_file(&path);
    let hash = u64::from_le_bytes(bytes[8..16].try_into().expect("16-byte header"));
    assert_eq!(format!("{hash:016x}"), "af000e485d1c1d1c");
}
