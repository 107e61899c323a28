//! Determinism suite for the crash-consistency (crashcon) engine: on a
//! representative variant set at the golden cap, the serial engine, the
//! parallel engine at 2 and 8 workers, a fresh journaled run, and a
//! journaled run split at the mid-case boundary and resumed must all
//! produce **bit-identical** per-MuT tallies, and a journal record
//! carrying an impossible verdict is re-executed rather than folded; a
//! per-case verdict is a commutative fold over independent crash-point
//! judgements, so any evaluation order over the enumerated points —
//! including orders over proptest-generated workloads — yields the
//! identical verdict, and the verifier's memo answers a repeated log
//! with the verdict a fresh judgement gives.

use ballista::campaign::CampaignConfig;
use ballista::crashcon::{run_crashcon, run_crashcon_journaled, CaseVerdict, Verifier};
use ballista::journal::{CaseRecord, HEADER_LEN, RECORD_LEN};
use proptest::prelude::*;
use sim_kernel::fs::{FileSystem, OpenOptions, MAX_OPLOG};
use sim_kernel::variant::OsVariant;
use sim_kernel::MachineFlavor;
use std::fs;
use std::path::PathBuf;

/// Must match `GOLDEN_CAP` in the crashcon binary.
const CAP: usize = 200;

/// Win95 (9x line), NT4 (NT line), CE (embedded line) — one variant per
/// kernel family keeps the suite's wall clock in check while still
/// crossing every personality's flush/close barrier wiring.
const VARIANTS: [OsVariant; 3] = [OsVariant::Win95, OsVariant::WinNt4, OsVariant::WinCe];

fn cfg(parallelism: usize) -> CampaignConfig {
    CampaignConfig {
        cap: CAP,
        record_raw: true,
        isolation_probe: true,
        perfect_cleanup: false,
        parallelism,
        fuel_budget: 0,
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ballista-crashcon-determinism");
    fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn crashcon_engines_bit_identical_across_serial_parallel_and_resume() {
    for os in VARIANTS {
        let name = os.short_name();
        let serial = run_crashcon(os, &cfg(1));
        assert!(
            serial.consistent(),
            "{name}: the unbroken filesystem must pass every bounded crash point"
        );

        for workers in [2usize, 8] {
            let parallel = run_crashcon(os, &cfg(workers));
            assert_eq!(
                serial.muts, parallel.muts,
                "{name}: parallel-{workers} tallies diverged from serial"
            );
        }

        let journal = scratch(&format!("{name}.jrn"));
        let _ = fs::remove_file(&journal);
        let journaled =
            run_crashcon_journaled(os, &cfg(1), &journal, false).expect("journaled run");
        assert_eq!(
            serial.muts, journaled.muts,
            "{name}: journaled tallies diverged from serial"
        );

        // Truncate at the mid-case record boundary — the byte-exact state
        // a SIGKILL between two appends leaves — and resume.
        let bytes = fs::read(&journal).expect("journal readable");
        let boundary = HEADER_LEN + (journaled.total_cases / 2) * RECORD_LEN;
        fs::write(&journal, &bytes[..boundary]).expect("truncate journal");
        let resumed = run_crashcon_journaled(os, &cfg(1), &journal, true).expect("resume");
        assert_eq!(
            serial.muts, resumed.muts,
            "{name}: split-resume tallies diverged from serial"
        );
        assert!(
            resumed.warnings.iter().any(|w| w.contains("resumed from journal")),
            "{name}: split-resume did not actually replay the journal"
        );
        let _ = fs::remove_file(&journal);
    }
}

/// A journal record whose checksum is valid but whose aux word no
/// verifier produces (here: no crash point at all) must end replay at
/// that record — everything from it on is executed afresh — instead of
/// folding garbage into the tally.
#[test]
fn journal_record_with_an_impossible_verdict_is_re_executed() {
    let os = OsVariant::Win95;
    let cfg = CampaignConfig { cap: 40, ..cfg(1) };
    let journal = scratch("impossible-aux.jrn");
    let _ = fs::remove_file(&journal);
    let fresh = run_crashcon_journaled(os, &cfg, &journal, false).expect("journaled run");

    let mut bytes = fs::read(&journal).expect("journal readable");
    let at = fresh.total_cases / 2;
    let slot = HEADER_LEN + at * RECORD_LEN..HEADER_LEN + (at + 1) * RECORD_LEN;
    let rec = CaseRecord::decode(&bytes[slot.clone()]).expect("checksummed record");
    assert!(
        CaseVerdict::decode(rec.packed, rec.fuel).is_some(),
        "the engine wrote a possible verdict"
    );
    let garbled = CaseRecord { fuel: 0, ..rec };
    assert!(CaseVerdict::decode(garbled.packed, garbled.fuel).is_none());
    bytes[slot].copy_from_slice(&garbled.encode());
    fs::write(&journal, &bytes).expect("rewrite journal");

    let resumed = run_crashcon_journaled(os, &cfg, &journal, true).expect("resume");
    assert_eq!(
        fresh.muts, resumed.muts,
        "resumed tallies diverged from a fresh run"
    );
    assert!(
        resumed
            .warnings
            .iter()
            .any(|w| w.contains(&format!("diverged from the plan at record {at}"))),
        "replay must stop at the garbled record: {:?}",
        resumed.warnings
    );
    let stats = resumed.stats.expect("journaled runs report stats");
    assert_eq!(stats.replayed_cases, at);
    let _ = fs::remove_file(&journal);
}

/// The workload alphabet the proptest strategy draws from: a small fixed
/// path set plus an op-code, applied to a recording filesystem. Failed
/// calls record nothing, so every generated sequence yields a valid log.
const PATHS: [&str; 6] = ["/a", "/b", "/d", "/d/x", "/d/y", "/e"];

fn apply_step(fs: &mut FileSystem, code: u8, p: usize, q: usize, byte: u8) {
    let (p, q) = (PATHS[p % PATHS.len()], PATHS[q % PATHS.len()]);
    match code % 7 {
        0 => {
            let _ = fs.mkdir(p);
        }
        1 => {
            let _ = fs.create_file(p, vec![byte]);
        }
        2 => {
            // Open for write, write, close: records Write plus the
            // close-of-write-descriptor Barrier.
            if let Ok(ofd) = fs.open(p, OpenOptions::write_only()) {
                let _ = fs.write(ofd, &[byte, byte]);
                let _ = fs.close(ofd);
            }
        }
        3 => {
            let _ = fs.rename(p, q);
        }
        4 => {
            let _ = fs.unlink(p);
        }
        5 => {
            let _ = fs.rmdir(p);
        }
        _ => {
            // Explicit flush barrier through an open descriptor.
            if let Ok(ofd) = fs.open(p, OpenOptions::write_only()) {
                let _ = fs.write(ofd, &[byte]);
                let _ = fs.flush(ofd);
                let _ = fs.close(ofd);
            }
        }
    }
}

/// Fisher–Yates driven by proptest-supplied randoms: a deterministic
/// permutation of `0..n` for any seed vector.
fn permutation(n: usize, seed: &[usize]) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = seed.get(n - 1 - i).copied().unwrap_or(i * 7 + 3) % (i + 1);
        perm.swap(i, j);
    }
    perm
}

proptest! {
    /// For arbitrary recorded workloads, the verdict is independent of
    /// the order crash points are judged in: enumeration order and a
    /// seeded shuffle must agree bit for bit, on both a POSIX and a
    /// Windows (case-folding) filesystem personality. The memo answers a
    /// repeat, with either truncation flag, exactly as a fresh verifier
    /// judges the log, and every verdict packs to a record the decode
    /// check accepts — except a truncation flag on a log shorter than
    /// the recording bound, which no recorder produces.
    #[test]
    fn verdicts_are_independent_of_crash_point_order(
        steps in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>(), any::<u8>()), 1..24),
        seed in proptest::collection::vec(any::<usize>(), 0..64),
    ) {
        for flavor in [MachineFlavor::Posix, MachineFlavor::Windows] {
            let mut verifier = Verifier::new(flavor);
            let mut fs = match flavor {
                MachineFlavor::Posix => FileSystem::new_posix(),
                _ => FileSystem::new_windows(),
            };
            fs.set_crash_recording(true);
            for &(code, p, q, byte) in &steps {
                apply_step(&mut fs, code, p, q, byte);
            }
            let (ops, truncated) = fs.take_oplog();

            let reference = verifier.evaluate(&ops, truncated);
            let n = reference.points as usize;
            let shuffled = verifier.evaluate_ordered(&ops, truncated, Some(&permutation(n, &seed)));
            prop_assert_eq!(reference, shuffled);
            prop_assert_eq!(reference.pack(), shuffled.pack());

            let repeat = verifier.evaluate(&ops, truncated);
            let flipped = verifier.evaluate(&ops, !truncated);
            let fresh = Verifier::new(flavor).evaluate(&ops, truncated);
            prop_assert_eq!(repeat, reference);
            prop_assert_eq!(fresh, reference);
            prop_assert_eq!(flipped.truncated, !truncated);
            prop_assert_eq!(CaseVerdict { truncated, ..flipped }, reference);
            for v in [reference, shuffled, repeat, fresh, flipped] {
                let (packed, aux) = v.pack();
                let possible = !v.truncated || ops.len() == MAX_OPLOG;
                prop_assert_eq!(CaseVerdict::decode(packed, aux), possible.then_some(v));
            }
        }
    }
}
