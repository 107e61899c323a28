//! The write-ahead campaign journal behind checkpoint/resume.
//!
//! Long fault-injection campaigns die for mundane reasons — OOM kills,
//! preempted CI runners, a tripped power strip — and before this module a
//! dead campaign meant rerunning every variant from scratch. The journal
//! appends one fixed-width record per executed test case (the same packed
//! byte [`crate::crash::pack_case`] produces, plus the case's catalog
//! position) and a resumed campaign replays the prefix to rebuild the
//! session state bit for bit, then continues from the first unrecorded
//! case.
//!
//! # On-disk format (version 2)
//!
//! ```text
//! header  := magic "BLSTJRN2" (8) | plan_hash u64 LE (8)
//! record  := tag 0xA5 (1) | mut_idx u32 LE (4) | case_idx u32 LE (4)
//!            | packed_case (1) | fuel u64 LE (8)
//!            | fnv1a32 of the preceding 18 bytes (4)
//! journal := header record*
//! ```
//!
//! `plan_hash` fingerprints everything that determines the case sequence
//! (variant, config knobs, and the MuT plan — which folds in the per-MuT
//! sampling seeds; adaptive campaigns stamp their mode-tagged
//! fingerprint, which additionally pins the explore knobs the pinned
//! plan was derived from); a journal whose hash disagrees with the
//! resuming campaign is ignored rather than misapplied. Fixed-width records make
//! torn-write recovery trivial: on open, the journal truncates itself to
//! the longest prefix of checksum-valid records, so a case is either
//! fully recorded or not recorded at all — never half-counted.
//!
//! Version 2 added the `fuel` field so a resumed campaign can rebuild
//! the telemetry trace's deterministic fuel timeline without
//! re-executing replayed cases. Version-1 journals fail the magic check
//! and are treated like any other foreign journal: the campaign
//! restarts fresh with a warning instead of misreading them.

use crate::telemetry::{self, Counter};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Crash-injection trigger for the resume tests: when armed, the process
/// aborts — no unwinding, no flushing, the harshest in-process stand-in
/// for SIGKILL — once this many more records have been appended. `0`
/// (the default) disarms it.
static KILL_AFTER: AtomicU64 = AtomicU64::new(0);

/// Arms the crash trigger: the process aborts after `n` more journal
/// appends. Used by the `resumable` binary's `--kill-after` flag so CI
/// can die at a deterministic case boundary instead of racing a timer.
pub fn arm_kill_after(n: u64) {
    KILL_AFTER.store(n, Ordering::SeqCst);
}

fn kill_tick() {
    // fetch_update so concurrent appends cannot double-decrement past 0.
    let fire = KILL_AFTER
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
        .is_ok_and(|prev| prev == 1);
    if fire {
        std::process::abort();
    }
}

/// Journal file magic (version 2: records carry the case's fuel).
pub const MAGIC: [u8; 8] = *b"BLSTJRN2";
/// Bytes in the journal header.
pub const HEADER_LEN: usize = 16;
/// Bytes in one case record.
pub const RECORD_LEN: usize = 22;
/// Leading tag byte of every record.
pub const RECORD_TAG: u8 = 0xA5;
/// Records between durability syncs: the journal `fsync`s every this many
/// appends (and on [`Journal::sync`]), bounding what power loss can undo
/// while keeping the per-case cost at a buffered write.
pub const SYNC_INTERVAL: u64 = 256;

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV32_OFFSET: u32 = 0x811c_9dc5;
const FNV32_PRIME: u32 = 0x0100_0193;

/// Incremental FNV-1a (64-bit) used to fingerprint a campaign plan.
#[derive(Debug, Clone)]
pub struct PlanHasher(u64);

impl PlanHasher {
    /// A hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        PlanHasher(FNV64_OFFSET)
    }

    /// Folds `bytes` into the fingerprint.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV64_PRIME);
        }
    }

    /// Folds a length-prefixed byte string (so `"ab","c"` and `"a","bc"`
    /// fingerprint differently).
    pub fn write_str(&mut self, s: &str) {
        self.write(&(s.len() as u64).to_le_bytes());
        self.write(s.as_bytes());
    }

    /// Folds an integer.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The fingerprint.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for PlanHasher {
    fn default() -> Self {
        Self::new()
    }
}

fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h = FNV32_OFFSET;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(FNV32_PRIME);
    }
    h
}

/// One journaled test case: its catalog position plus the packed outcome
/// byte ([`crate::crash::pack_case`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseRecord {
    /// Index of the MuT in catalog order.
    pub mut_idx: u32,
    /// Index of the case within the MuT's sampling plan.
    pub case_idx: u32,
    /// The packed outcome byte.
    pub packed: u8,
    /// Fuel the case burned — deterministic, so replaying the journal
    /// rebuilds the telemetry trace's fuel timeline exactly.
    pub fuel: u64,
}

impl CaseRecord {
    /// Serializes to the fixed on-disk representation.
    #[must_use]
    pub fn encode(self) -> [u8; RECORD_LEN] {
        let mut buf = [0u8; RECORD_LEN];
        buf[0] = RECORD_TAG;
        buf[1..5].copy_from_slice(&self.mut_idx.to_le_bytes());
        buf[5..9].copy_from_slice(&self.case_idx.to_le_bytes());
        buf[9] = self.packed;
        buf[10..18].copy_from_slice(&self.fuel.to_le_bytes());
        let sum = fnv1a32(&buf[..18]);
        buf[18..22].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Deserializes and verifies one record; `None` for a short, untagged
    /// or checksum-mismatched buffer (a torn or corrupted write).
    #[must_use]
    pub fn decode(buf: &[u8]) -> Option<CaseRecord> {
        if buf.len() < RECORD_LEN || buf[0] != RECORD_TAG {
            return None;
        }
        let sum = u32::from_le_bytes(buf[18..22].try_into().ok()?);
        if sum != fnv1a32(&buf[..18]) {
            return None;
        }
        Some(CaseRecord {
            mut_idx: u32::from_le_bytes(buf[1..5].try_into().ok()?),
            case_idx: u32::from_le_bytes(buf[5..9].try_into().ok()?),
            packed: buf[9],
            fuel: u64::from_le_bytes(buf[10..18].try_into().ok()?),
        })
    }
}

/// What [`Journal::open_resume`] recovered from an existing file.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The checksum-valid record prefix, in file order.
    pub records: Vec<CaseRecord>,
    /// Bytes discarded past the last valid record (0 for a clean file).
    pub truncated_bytes: u64,
    /// `true` when no usable journal existed (absent, unreadable header,
    /// or a plan-hash mismatch) and the file was started over.
    pub fresh: bool,
}

/// An append-only campaign journal (see the module docs for the format).
#[derive(Debug)]
pub struct Journal {
    file: File,
    records: u64,
    unsynced: u64,
    fsyncs: u64,
}

impl Journal {
    /// Creates (or truncates) a journal for the given plan fingerprint.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating or writing the file.
    pub fn create(path: &Path, plan_hash: u64) -> io::Result<Journal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&MAGIC)?;
        file.write_all(&plan_hash.to_le_bytes())?;
        file.sync_all()?;
        Ok(Journal {
            file,
            records: 0,
            unsynced: 0,
            fsyncs: 0,
        })
    }

    /// Opens `path` for resumption: verifies the header against
    /// `plan_hash`, recovers the longest valid record prefix, truncates
    /// any torn tail, and positions the journal to append after the
    /// prefix. A missing or foreign journal is replaced by a fresh one
    /// (reported via [`Recovery::fresh`]) — resuming against the wrong
    /// plan would corrupt tallies, so it is never attempted.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors reading, truncating or rewriting the file.
    pub fn open_resume(path: &Path, plan_hash: u64) -> io::Result<(Journal, Recovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let header_ok = bytes.len() >= HEADER_LEN
            && bytes[..8] == MAGIC
            && bytes[8..16] == plan_hash.to_le_bytes();
        if !header_ok {
            drop(file);
            let journal = Journal::create(path, plan_hash)?;
            let recovery = Recovery {
                records: Vec::new(),
                truncated_bytes: bytes.len() as u64,
                fresh: true,
            };
            return Ok((journal, recovery));
        }
        let mut records = Vec::new();
        let mut offset = HEADER_LEN;
        while let Some(rec) = CaseRecord::decode(&bytes[offset..]) {
            records.push(rec);
            offset += RECORD_LEN;
        }
        let truncated_bytes = (bytes.len() - offset) as u64;
        if truncated_bytes > 0 {
            file.set_len(offset as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(offset as u64))?;
        let journal = Journal {
            file,
            records: records.len() as u64,
            unsynced: 0,
            fsyncs: 0,
        };
        Ok((
            journal,
            Recovery {
                records,
                truncated_bytes,
                fresh: false,
            },
        ))
    }

    /// Appends one case record, syncing every [`SYNC_INTERVAL`] appends.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors writing or syncing.
    pub fn append(&mut self, rec: CaseRecord) -> io::Result<()> {
        self.file.write_all(&rec.encode())?;
        self.records += 1;
        self.unsynced += 1;
        telemetry::count(Counter::JournalAppends, 1);
        if self.unsynced >= SYNC_INTERVAL {
            self.sync()?;
        }
        kill_tick();
        Ok(())
    }

    /// Forces appended records to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `fsync` error.
    pub fn sync(&mut self) -> io::Result<()> {
        let start = std::time::Instant::now();
        self.file.sync_data()?;
        self.unsynced = 0;
        self.fsyncs += 1;
        telemetry::on_journal_fsync(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        Ok(())
    }

    /// Durability syncs issued since this handle was opened.
    #[must_use]
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Discards every record past the first `n` — used when a recovered
    /// suffix fails the resuming campaign's semantic checks (records out
    /// of plan order) and execution must restart from the last trusted
    /// point.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors truncating or seeking.
    pub fn truncate_to(&mut self, n: u64) -> io::Result<()> {
        let end = HEADER_LEN as u64 + n * RECORD_LEN as u64;
        self.file.set_len(end)?;
        self.file.sync_all()?;
        self.file.seek(SeekFrom::Start(end))?;
        self.records = n;
        self.unsynced = 0;
        Ok(())
    }

    /// Records currently in the journal.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.records
    }

    /// Whether the journal holds no records yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }
}

/// The resume cursor every journaled engine walks its plan with: it
/// hands back the recovered record for each `(mut, case)` position while
/// the trusted prefix lasts, appends freshly executed cases after it,
/// and collects the recovery warnings.
pub(crate) struct Resume {
    journal: Journal,
    recovered: Vec<CaseRecord>,
    /// Recovered records accepted so far, all folded by the caller.
    accepted: usize,
    /// Whether replay is still live (no record has diverged yet).
    live: bool,
    warnings: Vec<String>,
}

impl Resume {
    /// Creates the journal at `path` for `plan_hash`, or with `resume`
    /// recovers its valid prefix (a missing or foreign journal starts
    /// fresh, with a warning).
    pub(crate) fn open(path: &Path, plan_hash: u64, resume: bool) -> io::Result<Resume> {
        let mut warnings = Vec::new();
        let (journal, recovered) = if resume {
            let (journal, recovery) = Journal::open_resume(path, plan_hash)?;
            if recovery.fresh {
                warnings.push(
                    "resume requested but no usable journal was found (missing, foreign plan, or unreadable header); running from scratch".to_owned(),
                );
            } else {
                if recovery.truncated_bytes > 0 {
                    warnings.push(format!(
                        "journal recovery dropped {} torn trailing byte(s); resuming from the last valid record",
                        recovery.truncated_bytes
                    ));
                }
                warnings.push(format!(
                    "resumed from journal: {} case(s) replayed instead of re-executed",
                    recovery.records.len()
                ));
            }
            (journal, recovery.records)
        } else {
            (Journal::create(path, plan_hash)?, Vec::new())
        };
        Ok(Resume {
            live: !recovered.is_empty(),
            journal,
            recovered,
            accepted: 0,
            warnings,
        })
    }

    /// The recorded outcome and fuel of case `case` of MuT `mut_idx`, if
    /// the next recovered record sits at exactly that position and
    /// `decode` accepts its packed byte and fuel word. The first record
    /// that fails either check ends replay for good: the journal is
    /// truncated back to the accepted prefix and every later case
    /// executes.
    pub(crate) fn replay<T>(
        &mut self,
        mut_idx: usize,
        case: usize,
        decode: impl FnOnce(u8, u64) -> Option<T>,
    ) -> io::Result<Option<(T, u64)>> {
        if !self.live {
            return Ok(None);
        }
        if let Some(rec) = self.recovered.get(self.accepted) {
            if rec.mut_idx as usize == mut_idx && rec.case_idx as usize == case {
                if let Some(v) = decode(rec.packed, rec.fuel) {
                    self.accepted += 1;
                    return Ok(Some((v, rec.fuel)));
                }
            }
        }
        self.live = false;
        self.discard_rest(|n, at| {
            format!(
                "journal diverged from the plan at record {at}; discarding {n} unusable record(s) and re-executing from there"
            )
        })?;
        Ok(None)
    }

    /// Appends one freshly executed case.
    pub(crate) fn append(
        &mut self,
        mut_idx: usize,
        case: usize,
        packed: u8,
        fuel: u64,
    ) -> io::Result<()> {
        self.journal.append(CaseRecord {
            mut_idx: mut_idx as u32,
            case_idx: case as u32,
            packed,
            fuel,
        })
    }

    /// Ends the walk: drops recovered records the completed plan never
    /// reached and syncs. Returns the replayed case count and the
    /// warnings.
    pub(crate) fn finish(mut self) -> io::Result<(usize, Vec<String>)> {
        self.discard_rest(|n, _| {
            format!("journal held {n} record(s) beyond the completed plan; discarded")
        })?;
        self.journal.sync()?;
        Ok((self.accepted, self.warnings))
    }

    /// Truncates unaccepted recovered records, if any, with a warning.
    fn discard_rest(&mut self, warning: impl FnOnce(usize, usize) -> String) -> io::Result<()> {
        let rest = self.recovered.len() - self.accepted;
        if rest > 0 {
            self.warnings.push(warning(rest, self.accepted));
            self.recovered.truncate(self.accepted);
            self.journal.truncate_to(self.accepted as u64)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ballista-journal-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn sample(n: u32) -> Vec<CaseRecord> {
        (0..n)
            .map(|i| CaseRecord {
                mut_idx: i / 3,
                case_idx: i % 3,
                packed: (i % 7) as u8,
                fuel: u64::from(i) * 11 + 5,
            })
            .collect()
    }

    #[test]
    fn record_encode_decode_roundtrip() {
        for rec in sample(50) {
            let buf = rec.encode();
            assert_eq!(CaseRecord::decode(&buf), Some(rec));
        }
        // Any single-byte flip is caught.
        let buf = sample(1)[0].encode();
        for i in 0..RECORD_LEN {
            let mut bad = buf;
            bad[i] ^= 0x40;
            assert_eq!(CaseRecord::decode(&bad), None, "flip at byte {i} undetected");
        }
        assert_eq!(CaseRecord::decode(&buf[..RECORD_LEN - 1]), None, "short buffer");
    }

    #[test]
    fn write_then_resume_recovers_all_records() {
        let path = scratch("clean.journal");
        let recs = sample(10);
        let mut j = Journal::create(&path, 42).expect("create");
        for &r in &recs {
            j.append(r).expect("append");
        }
        j.sync().expect("sync");
        drop(j);
        let (j, rec) = Journal::open_resume(&path, 42).expect("resume");
        assert_eq!(rec.records, recs);
        assert!(!rec.fresh);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(j.len(), 10);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_to_last_valid_record() {
        let path = scratch("torn.journal");
        let recs = sample(6);
        let mut j = Journal::create(&path, 7).expect("create");
        for &r in &recs {
            j.append(r).expect("append");
        }
        j.sync().expect("sync");
        drop(j);
        // Simulate a torn final write: lop 5 bytes off the last record.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("tear");
        let (mut j, rec) = Journal::open_resume(&path, 7).expect("resume");
        assert_eq!(rec.records, recs[..5]);
        assert_eq!(rec.truncated_bytes, (RECORD_LEN - 5) as u64);
        // Appending after recovery lands exactly after the valid prefix.
        j.append(recs[5]).expect("append");
        j.sync().expect("sync");
        drop(j);
        let (_, rec) = Journal::open_resume(&path, 7).expect("reopen");
        assert_eq!(rec.records, recs);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn plan_hash_mismatch_starts_fresh() {
        let path = scratch("mismatch.journal");
        let mut j = Journal::create(&path, 1).expect("create");
        for &r in &sample(4) {
            j.append(r).expect("append");
        }
        drop(j);
        let (j, rec) = Journal::open_resume(&path, 2).expect("resume");
        assert!(rec.fresh, "a foreign journal must never be replayed");
        assert!(rec.records.is_empty());
        assert!(j.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_to_discards_suffix() {
        let path = scratch("truncate.journal");
        let recs = sample(8);
        let mut j = Journal::create(&path, 9).expect("create");
        for &r in &recs {
            j.append(r).expect("append");
        }
        j.truncate_to(3).expect("truncate");
        assert_eq!(j.len(), 3);
        j.append(recs[3]).expect("append after truncate");
        j.sync().expect("sync");
        drop(j);
        let (_, rec) = Journal::open_resume(&path, 9).expect("resume");
        assert_eq!(rec.records, recs[..4]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn plan_hasher_separates_boundaries() {
        let mut a = PlanHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = PlanHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
        assert_eq!(PlanHasher::new().finish(), PlanHasher::default().finish());
    }
}
