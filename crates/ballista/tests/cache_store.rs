//! Result-cache contract tests: byte-identical round-trips, fingerprint
//! key sensitivity (the invalidation-by-construction argument), LRU
//! front behavior, and corruption tolerance (a damaged entry is a miss,
//! never a crash or a wrong answer).

use ballista::cache::ResultCache;
use ballista::campaign::{fingerprint, run_campaign, CampaignConfig, CampaignFingerprint};
use proptest::prelude::*;
use sim_kernel::variant::OsVariant;
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ballista-cache-store").join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cfg(cap: usize) -> CampaignConfig {
    CampaignConfig {
        cap,
        record_raw: true,
        ..CampaignConfig::default()
    }
}

/// One small real report, shared across tests (campaigns are the
/// expensive part).
fn base_report() -> &'static ballista::campaign::CampaignReport {
    static REPORT: OnceLock<ballista::campaign::CampaignReport> = OnceLock::new();
    REPORT.get_or_init(|| run_campaign(OsVariant::Win95, &cfg(60)))
}

#[test]
fn round_trip_is_byte_identical() {
    let cache = ResultCache::new(scratch("round-trip"), 8).expect("cache");
    let report = base_report();
    let fp = fingerprint(report.os, &cfg(60));
    let stored = cache.store(fp, report).expect("store");

    // Memory-front hit: the very same bytes.
    let via_front = cache.lookup(fp).expect("front hit");
    assert_eq!(*stored, *via_front);

    // Disk hit (fresh cache instance, same directory): still the same
    // bytes, and they parse back to an equal report.
    let cold = ResultCache::new(cache.dir(), 8).expect("reopen");
    let via_disk = cold.lookup(fp).expect("disk hit");
    assert_eq!(*stored, *via_disk);
    let parsed = cold.lookup_report(fp).expect("parse");
    assert_eq!(parsed.muts, report.muts);
    assert_eq!(parsed.total_cases, report.total_cases);
}

#[test]
fn key_sensitivity_every_knob_changes_the_fingerprint() {
    let base = cfg(200);
    let fp = fingerprint(OsVariant::Win95, &base);

    // Flipping any result-relevant knob must change the key, so a
    // cache filled under one config can never serve another.
    let variations = [
        ("cap", CampaignConfig { cap: 201, ..base }),
        (
            "record_raw",
            CampaignConfig {
                record_raw: false,
                ..base
            },
        ),
        (
            "isolation_probe",
            CampaignConfig {
                isolation_probe: false,
                ..base
            },
        ),
        (
            "perfect_cleanup",
            CampaignConfig {
                perfect_cleanup: true,
                ..base
            },
        ),
        (
            "parallelism",
            CampaignConfig {
                parallelism: 2,
                ..base
            },
        ),
        (
            "fuel_budget",
            CampaignConfig {
                fuel_budget: 123_456,
                ..base
            },
        ),
    ];
    for (knob, changed) in variations {
        assert_ne!(
            fingerprint(OsVariant::Win95, &changed),
            fp,
            "{knob} must be part of the cache key"
        );
    }

    // And so must the variant.
    assert_ne!(fingerprint(OsVariant::WinNt4, &base), fp);

    // While recomputing under an equal config is the same key.
    assert_eq!(fingerprint(OsVariant::Win95, &{ base }), fp);
}

#[test]
fn corrupted_entries_are_misses_not_crashes() {
    let cache = ResultCache::new(scratch("corrupt"), 0).expect("cache");
    let report = base_report();
    let fp = fingerprint(report.os, &cfg(60));
    cache.store(fp, report).expect("store");
    let path = cache.entry_path(fp);
    let pristine = fs::read(&path).expect("entry bytes");

    // Flip one byte at every interesting offset: magic, fingerprint,
    // length, checksum, payload head, payload middle, payload tail.
    let probes = [
        0usize,
        9,
        17,
        25,
        32,
        32 + (pristine.len() - 32) / 2,
        pristine.len() - 1,
    ];
    for at in probes {
        let mut damaged = pristine.clone();
        damaged[at] ^= 0x40;
        fs::write(&path, &damaged).expect("write damaged");
        assert!(
            cache.lookup(fp).is_none(),
            "flipped byte at {at} must invalidate the entry"
        );
    }

    // Truncations: empty file, half a header, half an entry.
    for keep in [0usize, 16, pristine.len() / 2] {
        fs::write(&path, &pristine[..keep]).expect("truncate");
        assert!(
            cache.lookup(fp).is_none(),
            "truncation to {keep} bytes must be a miss"
        );
    }

    // Restoring the pristine bytes restores the hit.
    fs::write(&path, &pristine).expect("restore");
    assert!(cache.lookup(fp).is_some());
}

/// A well-formed `BLSTCCH1` entry whose checksummed payload is 10 000
/// `[`: the header passes, and the payload goes through the same JSON
/// parser as specs and worker replies, which stops at its nesting limit
/// instead of overflowing the stack. The entry is a miss.
#[test]
fn a_deeply_nested_payload_is_a_miss_not_a_stack_overflow() {
    let cache = ResultCache::new(scratch("deep-nesting"), 0).expect("cache");
    let fp = CampaignFingerprint::from_u64(0xdee9);
    let payload = "[".repeat(10_000).into_bytes();
    // The entry layout of `cache.rs`: magic, fingerprint, payload length
    // and the payload's FNV-1a, each a little-endian u64, then the
    // payload.
    let fnv1a64 = payload.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut entry = b"BLSTCCH1".to_vec();
    for word in [fp.as_u64(), payload.len() as u64, fnv1a64] {
        entry.extend_from_slice(&word.to_le_bytes());
    }
    entry.extend_from_slice(&payload);
    fs::write(cache.entry_path(fp), &entry).expect("write entry");
    assert!(
        cache.lookup(fp).is_some(),
        "the header and checksum are valid"
    );
    assert!(
        cache.lookup_report(fp).is_none(),
        "the payload must not parse"
    );
}

#[test]
fn lru_front_evicts_oldest_but_disk_still_serves() {
    let cache = ResultCache::new(scratch("lru"), 2).expect("cache");
    let report = base_report();
    let fps: Vec<_> = (0..3)
        .map(|i| CampaignFingerprint::from_u64(0x1000 + i))
        .collect();
    for &fp in &fps {
        cache.store(fp, report).expect("store");
    }
    // Capacity 2: storing the third evicted the least-recently-used
    // first entry from memory…
    assert_eq!(cache.memory_len(), 2);
    // …but the disk entry still serves (and repopulates the front).
    assert!(cache.lookup(fps[0]).is_some());
    assert_eq!(cache.memory_len(), 2);
}

proptest! {
    /// Any mutation anywhere in a stored entry file — position and
    /// XOR mask both arbitrary — either leaves the entry byte-valid
    /// (mask 0) or turns the lookup into a miss. Never a panic, never
    /// corrupt bytes served.
    #[test]
    fn arbitrary_corruption_never_serves_damaged_bytes(
        offset in any::<u64>(),
        mask in any::<u8>(),
    ) {
        let report = base_report();
        let fp = fingerprint(report.os, &cfg(60));
        let dir = std::env::temp_dir()
            .join("ballista-cache-store")
            .join(format!("prop-{mask:02x}"));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir, 0).expect("cache");
        let stored = cache.store(fp, report).expect("store");
        let path = cache.entry_path(fp);
        let mut bytes = fs::read(&path).expect("entry bytes");
        let at = usize::try_from(offset).unwrap_or(usize::MAX) % bytes.len();
        bytes[at] ^= mask;
        fs::write(&path, &bytes).expect("write mutated");
        match cache.lookup(fp) {
            Some(served) => prop_assert_eq!(&*served, &*stored, "a hit must be byte-exact"),
            None => prop_assert_ne!(mask, 0, "an unmutated entry must hit"),
        }
    }
}
