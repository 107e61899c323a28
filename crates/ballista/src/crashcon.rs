//! Bounded crash-consistency campaigns over the simulated filesystem.
//!
//! This is the ballista half of the B3 port ("Finding Crash-Consistency
//! Bugs with Bounded Black-Box Crash Testing", OSDI '18), grafted onto
//! the paper's robustness-campaign protocol: every catalog MuT runs its
//! sampled cases on a pristine machine with the filesystem op recorder
//! armed ([`sim_kernel::fs::FileSystem::set_crash_recording`]); for each
//! bounded crash point of the recorded log
//! ([`sim_kernel::crashfs::crash_points`]) the engine materializes the
//! post-crash image, "remounts" it into a resident verification kernel,
//! and judges four consistency oracles:
//!
//! 1. **well-formed** — the remounted node tree is structurally sound
//!    (every reachable node live and visited once, no stray live nodes);
//! 2. **open-table** — a freshly remounted image has no open-file
//!    descriptors, and none that dangle onto dead nodes;
//! 3. **durability** — the image agrees with the independent flat model
//!    ([`sim_kernel::crashfs::spec_of_ops`]) of the surviving op
//!    sequence everywhere outside rename-involved paths; because
//!    drop-one reordering never reaches at or before the last
//!    [`sim_kernel::fs::FsOp::Barrier`], this subsumes prefix
//!    durability of flushed writes;
//! 4. **rename** — the same image-versus-model comparison restricted to
//!    paths a surviving rename touched, so a torn two-step rename (see
//!    [`crate::exec::fault::arm_broken_rename`]) is attributed to the
//!    operation that lost the data.
//!
//! On the paper's CRASH scale an inconsistent case is a **Silent**
//! failure: the API reported success while quietly leaving state that a
//! crash would corrupt. [`CrashTally::inconsistent_cases`] is therefore
//! the mode's Silent count.
//!
//! Crashcon cases are **residue-free**: every case runs at session
//! residue zero, so per-case verdicts are pure functions of the case and
//! the per-MuT tallies fold commutatively. That is what buys the engine
//! matrix — serial, parallel, journaled-resume, and fleet all produce
//! **bit-identical** tallies (asserted by `tests/crashcon_determinism.rs`
//! and the engine-equivalence suite), and verdicts are independent of
//! the order crash points are evaluated in
//! ([`Verifier::evaluate_ordered`]).
//!
//! A verdict is a pure function of the pristine image, the op log and
//! the broken-rename latch, and most cases repeat a log their MuT has
//! already recorded (above all the empty log of a call that failed
//! argument validation), so [`Verifier::evaluate`] judges each distinct
//! log once and answers every repeat from a memo. The engines keep one
//! verifier, and so one memo, per MuT.
//!
//! Machine accounting: a crash-point image clone is **not** a machine
//! restore. Snapshots and remounts count under the dedicated
//! `crashcon_snapshots` / `crashcon_remounts` counters
//! ([`Counter::CrashconSnapshots`]), leaving the
//! `restores == executed cases` invariant of the classic engines intact.
//! They count the images actually materialized — one per *judged* crash
//! point — so a run's snapshots fall short of its enumerated
//! `crash_points` by the points its memo answered.

use crate::campaign::{self, CampaignConfig, CampaignStats, Epoch, Mode, PreparedMut};
use crate::exec::{fault, CaseRunner, Session};
use crate::fleet::{ShardResult, WireCleanMut};
use crate::journal::Resume;
use crate::muts::FunctionGroup;
use crate::telemetry::{self, Counter};
use serde::{Deserialize, Serialize};
use sim_kernel::crashfs::{self, CrashPoint, SpecNode, SpecTree};
use sim_kernel::fs::{FileSystem, FsOp, MAX_OPLOG};
use sim_kernel::variant::OsVariant;
use sim_kernel::{Kernel, MachineFlavor};
use std::collections::HashMap;

/// Engine-mode tag folded into the crashcon plan fingerprint, so a
/// crashcon journal or cache entry can never collide with a classic
/// campaign over the same plan.
pub const MODE_TAG: &str = "crashcon/1";

/// Packed-byte bit: the case recorded at least one filesystem op.
pub const PACK_ACTIVE: u8 = 1 << 0;
/// Packed-byte bit: some crash point failed the well-formedness oracle.
pub const PACK_WELL_FORMED: u8 = 1 << 1;
/// Packed-byte bit: some crash point failed the open-table oracle.
pub const PACK_OPEN_TABLE: u8 = 1 << 2;
/// Packed-byte bit: some crash point failed the durability oracle.
pub const PACK_DURABILITY: u8 = 1 << 3;
/// Packed-byte bit: some crash point failed the rename oracle.
pub const PACK_RENAME: u8 = 1 << 4;
/// Packed-byte bit: the op log hit [`sim_kernel::fs::MAX_OPLOG`] and was
/// truncated (crash points cover only the recorded prefix).
pub const PACK_TRUNCATED: u8 = 1 << 5;
/// Every flag a verdict byte can carry.
const PACK_FLAGS: u8 = PACK_ACTIVE
    | PACK_WELL_FORMED
    | PACK_OPEN_TABLE
    | PACK_DURABILITY
    | PACK_RENAME
    | PACK_TRUNCATED;

/// One case's crash-consistency verdict: what the recorder captured and
/// what the oracles found across every bounded crash point.
///
/// Packs to a `(u8, u64)` pair that rides the same per-case channels the
/// classic engines use for `(packed outcome, fuel)` — the journal's
/// [`CaseRecord`](crate::journal::CaseRecord) and the fleet's wire
/// records — so the crashcon mode reuses the journal format and shard
/// protocol unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CaseVerdict {
    /// Filesystem ops the case recorded (bounded by
    /// [`sim_kernel::fs::MAX_OPLOG`]).
    pub ops: u32,
    /// Whether the op log was truncated at the recording bound.
    pub truncated: bool,
    /// Bounded crash points enumerated for the log.
    pub points: u32,
    /// Crash points failing at least one oracle.
    pub inconsistent: u32,
    /// Any crash point failed the well-formedness oracle.
    pub viol_well_formed: bool,
    /// Any crash point failed the open-table oracle.
    pub viol_open_table: bool,
    /// Any crash point failed the durability oracle.
    pub viol_durability: bool,
    /// Any crash point failed the rename oracle.
    pub viol_rename: bool,
}

impl CaseVerdict {
    /// Packs into the `(packed, aux)` pair: flag bits in the byte,
    /// `ops << 40 | points << 20 | inconsistent` in the aux word. All
    /// three counts fit with room to spare — ops are bounded by
    /// [`sim_kernel::fs::MAX_OPLOG`] (256) and points by roughly
    /// `ops × (REORDER_WINDOW + 1)`.
    #[must_use]
    pub fn pack(&self) -> (u8, u64) {
        let mut packed = 0u8;
        if self.ops > 0 {
            packed |= PACK_ACTIVE;
        }
        if self.viol_well_formed {
            packed |= PACK_WELL_FORMED;
        }
        if self.viol_open_table {
            packed |= PACK_OPEN_TABLE;
        }
        if self.viol_durability {
            packed |= PACK_DURABILITY;
        }
        if self.viol_rename {
            packed |= PACK_RENAME;
        }
        if self.truncated {
            packed |= PACK_TRUNCATED;
        }
        let aux = (u64::from(self.ops) << 40)
            | (u64::from(self.points) << 20)
            | u64::from(self.inconsistent);
        (packed, aux)
    }

    /// Inverse of [`pack`](Self::pack). Lossless except for the exact op
    /// count of an inactive case (zero either way).
    #[must_use]
    pub fn unpack(packed: u8, aux: u64) -> CaseVerdict {
        CaseVerdict {
            ops: ((aux >> 40) & 0xFF_FFFF) as u32,
            truncated: packed & PACK_TRUNCATED != 0,
            points: ((aux >> 20) & 0xF_FFFF) as u32,
            inconsistent: (aux & 0xF_FFFF) as u32,
            viol_well_formed: packed & PACK_WELL_FORMED != 0,
            viol_open_table: packed & PACK_OPEN_TABLE != 0,
            viol_durability: packed & PACK_DURABILITY != 0,
            viol_rename: packed & PACK_RENAME != 0,
        }
    }

    /// [`unpack`](Self::unpack) for a record from outside the process (a
    /// worker reply, a journal): `None` unless `(packed, aux)` is a
    /// verdict the verifier can produce — no bit beyond the six flags,
    /// at most [`MAX_OPLOG`] ops, at least one crash point more than ops
    /// (every prefix is one), no more inconsistent points than points,
    /// [`PACK_ACTIVE`] exactly when ops were recorded, a violation flag
    /// exactly when some point was inconsistent, and [`PACK_TRUNCATED`]
    /// only on a full log.
    #[must_use]
    pub fn decode(packed: u8, aux: u64) -> Option<CaseVerdict> {
        let v = CaseVerdict::unpack(packed, aux);
        let violated =
            v.viol_well_formed || v.viol_open_table || v.viol_durability || v.viol_rename;
        let full = v.ops as usize == MAX_OPLOG;
        let possible = packed & !PACK_FLAGS == 0
            && v.ops as usize <= MAX_OPLOG
            && v.ops < v.points
            && v.inconsistent <= v.points
            && (packed & PACK_ACTIVE != 0) == (v.ops > 0)
            && violated == (v.inconsistent > 0)
            && (full || !v.truncated);
        possible.then_some(v)
    }
}

/// Per-MuT crash-consistency tally. Every field is a sum or count over
/// per-case verdicts, so folding is commutative: any partition of the
/// cases, folded in any order, produces the same tally — the keystone of
/// the cross-engine bit-identity contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashTally {
    /// Call name.
    pub name: String,
    /// Functional grouping.
    pub group: FunctionGroup,
    /// Cases executed.
    pub cases: usize,
    /// Cases that recorded at least one filesystem op.
    pub active_cases: usize,
    /// Cases whose op log hit the recording bound.
    pub truncated_cases: usize,
    /// Total filesystem ops recorded.
    pub ops_recorded: u64,
    /// Total bounded crash points enumerated.
    pub crash_points: u64,
    /// Crash points failing at least one oracle.
    pub inconsistent_points: u64,
    /// Cases with at least one inconsistent crash point — the mode's
    /// Silent count on the CRASH scale.
    pub inconsistent_cases: usize,
    /// Cases where some point failed the well-formedness oracle.
    pub viol_well_formed: usize,
    /// Cases where some point failed the open-table oracle.
    pub viol_open_table: usize,
    /// Cases where some point failed the durability oracle.
    pub viol_durability: usize,
    /// Cases where some point failed the rename oracle.
    pub viol_rename: usize,
}

impl CrashTally {
    /// An empty tally for one MuT.
    #[must_use]
    pub fn new(name: &str, group: FunctionGroup) -> CrashTally {
        CrashTally {
            name: name.to_owned(),
            group,
            cases: 0,
            active_cases: 0,
            truncated_cases: 0,
            ops_recorded: 0,
            crash_points: 0,
            inconsistent_points: 0,
            inconsistent_cases: 0,
            viol_well_formed: 0,
            viol_open_table: 0,
            viol_durability: 0,
            viol_rename: 0,
        }
    }

    /// Folds one packed per-case record into the tally — the single
    /// source of tally semantics for every engine (live execution,
    /// journal replay, and fleet merge all call this), so they cannot
    /// drift apart.
    pub fn fold(&mut self, packed: u8, aux: u64) {
        let v = CaseVerdict::unpack(packed, aux);
        self.cases += 1;
        self.active_cases += usize::from(packed & PACK_ACTIVE != 0);
        self.truncated_cases += usize::from(v.truncated);
        self.ops_recorded += u64::from(v.ops);
        self.crash_points += u64::from(v.points);
        self.inconsistent_points += u64::from(v.inconsistent);
        self.inconsistent_cases += usize::from(v.inconsistent > 0);
        self.viol_well_formed += usize::from(v.viol_well_formed);
        self.viol_open_table += usize::from(v.viol_open_table);
        self.viol_durability += usize::from(v.viol_durability);
        self.viol_rename += usize::from(v.viol_rename);
    }

    /// Whether every crash point of every case passed every oracle.
    #[must_use]
    pub fn consistent(&self) -> bool {
        self.inconsistent_cases == 0
    }
}

/// A full crashcon campaign's results on one OS.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrashconReport {
    /// The OS under test.
    pub os: OsVariant,
    /// Per-MuT tallies, in catalog order.
    pub muts: Vec<CrashTally>,
    /// Total cases executed.
    pub total_cases: usize,
    /// Total bounded crash points judged.
    pub total_points: u64,
    /// Total inconsistent crash points.
    pub total_inconsistent: u64,
    /// Timing/provisioning counters (never part of the tally
    /// bit-identity contract).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stats: Option<CampaignStats>,
    /// Resume/recovery and quarantine notes (never part of the
    /// bit-identity contract).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub warnings: Vec<String>,
    /// `true` when a MuT was quarantined after repeated harness faults:
    /// its tally is empty and the report is partial.
    #[serde(default, skip_serializing_if = "campaign::is_false")]
    pub degraded: bool,
}

impl CrashconReport {
    /// Whether every crash point of every case on every MuT passed.
    #[must_use]
    pub fn consistent(&self) -> bool {
        self.muts.iter().all(CrashTally::consistent)
    }
}

/// Verdicts one [`Verifier`] keeps before it forgets them all. The
/// engines keep a verifier for one MuT, whose cases repeat a few logs
/// (every MuT of all seven variants together writes 1 088 distinct logs
/// at cap 1000), so this only bounds a verifier fed an endless stream of
/// new ones.
const MEMO_CAP: usize = 4096;

/// A resident crash-image verification harness for one machine flavour:
/// a pristine boot filesystem to clone images from and a kernel to
/// remount them into. Reused across all crash points of all cases of a
/// MuT so the per-point cost is one tree clone plus the oracle walk.
pub struct Verifier {
    kernel: Kernel,
    pristine: FileSystem,
    /// Flat model of the pristine boot image, the base every per-point
    /// spec folds on top of — so ops over pre-existing paths (a MuT
    /// renaming a boot file, say) are inside the oracle's domain.
    base_spec: SpecTree,
    baseline_dirty: usize,
    /// Verdicts of the logs [`evaluate`](Self::evaluate) has judged,
    /// one map per state of the broken-rename latch (indexed by
    /// `usize::from(armed)`), keyed by the whole log.
    memo: [HashMap<Vec<FsOp>, CaseVerdict>; 2],
}

impl Verifier {
    /// Boots the verification kernel and captures the pristine
    /// filesystem image for the flavour.
    #[must_use]
    pub fn new(flavor: MachineFlavor) -> Verifier {
        let kernel = Kernel::with_flavor(flavor);
        let pristine = kernel.fs.clone();
        let base_spec = crashfs::flatten_all(&pristine);
        let baseline_dirty = kernel.space.dirty_bases().len();
        Verifier {
            kernel,
            pristine,
            base_spec,
            baseline_dirty,
            memo: Default::default(),
        }
    }

    /// The verdict over every bounded crash point of one case's op log.
    /// A verdict is a pure function of the pristine image, the log and
    /// the broken-rename latch, so each distinct log is judged once (in
    /// enumeration order) and every repeat is answered from the memo
    /// without materializing an image; `truncated` is taken from the
    /// call either way.
    ///
    /// # Panics
    ///
    /// As [`evaluate_ordered`](Self::evaluate_ordered).
    pub fn evaluate(&mut self, ops: &[FsOp], truncated: bool) -> CaseVerdict {
        self.memoized(ops, truncated, fault::broken_rename_armed())
    }

    /// [`evaluate`](Self::evaluate) under the latch state `armed`.
    fn memoized(&mut self, ops: &[FsOp], truncated: bool, armed: bool) -> CaseVerdict {
        if let Some(&verdict) = self.memo[usize::from(armed)].get(ops) {
            return CaseVerdict {
                truncated,
                ..verdict
            };
        }
        let verdict = self.judge_points(ops, truncated, armed, None);
        let memo = &mut self.memo[usize::from(armed)];
        if memo.len() >= MEMO_CAP {
            memo.clear();
        }
        memo.insert(ops.to_vec(), verdict);
        verdict
    }

    /// Judges every bounded crash point of one case's op log in an
    /// explicit order (`order` must be a permutation of `0..points`;
    /// `None` is enumeration order), never consulting the memo. The
    /// verdict is a commutative fold over independent per-point
    /// judgements, so every order produces the identical verdict — the
    /// determinism suite asserts exactly that.
    ///
    /// # Panics
    ///
    /// If `order` is not a permutation of the crash points, or if
    /// remounting ever dirties the verification kernel's memory (images
    /// are swapped in as filesystem state only — the address space must
    /// stay untouched).
    pub fn evaluate_ordered(
        &mut self,
        ops: &[FsOp],
        truncated: bool,
        order: Option<&[usize]>,
    ) -> CaseVerdict {
        self.judge_points(ops, truncated, fault::broken_rename_armed(), order)
    }

    /// Materializes and judges the crash image of every point, under the
    /// broken-rename latch state `armed`.
    fn judge_points(
        &mut self,
        ops: &[FsOp],
        truncated: bool,
        armed: bool,
        order: Option<&[usize]>,
    ) -> CaseVerdict {
        let points = crashfs::crash_points(ops);
        let mut verdict = CaseVerdict {
            ops: ops.len() as u32,
            truncated,
            points: points.len() as u32,
            ..CaseVerdict::default()
        };
        let indices: Vec<usize> = match order {
            Some(o) => {
                assert!(
                    is_permutation(o, points.len()),
                    "`order` must be a permutation of the {} crash points",
                    points.len()
                );
                o.to_vec()
            }
            None => (0..points.len()).collect(),
        };
        for &i in &indices {
            let [wf, ot, dur, ren] = self.judge(ops, points[i], armed);
            if wf || ot || dur || ren {
                verdict.inconsistent += 1;
            }
            verdict.viol_well_formed |= wf;
            verdict.viol_open_table |= ot;
            verdict.viol_durability |= dur;
            verdict.viol_rename |= ren;
        }
        let n = indices.len() as u64;
        telemetry::count_each(&[
            (Counter::CrashconSnapshots, n),
            (Counter::CrashconRemounts, n),
        ]);
        assert_eq!(
            self.kernel.space.dirty_bases().len(),
            self.baseline_dirty,
            "remounting a crash image must not dirty kernel memory"
        );
        verdict
    }

    /// Builds and judges one crash image: clone the pristine tree
    /// (a crashcon *snapshot*), replay the surviving ops through the
    /// real mutators, remount into the verification kernel (a crashcon
    /// *remount*), and run the four oracles. Returns
    /// `[well_formed, open_table, durability, rename]` violation flags.
    fn judge(&mut self, ops: &[FsOp], point: CrashPoint, broken_rename: bool) -> [bool; 4] {
        let mut image = self.pristine.clone();
        crashfs::apply_ops(&mut image, ops, point, broken_rename);
        self.kernel.fs = image;
        let fs = &self.kernel.fs;

        let wf = match fs.validate_tree() {
            Ok(reachable) => reachable != fs.live_node_count(),
            Err(_) => true,
        };
        let ot = fs.open_count() != 0 || !fs.open_table_valid();

        // Image-versus-model comparison over everything the workload
        // could have left behind: the model of the surviving sequence
        // plus the model of the flushed prefix (so a lost flushed path
        // is still *visited*, not silently skipped).
        let spec = crashfs::spec_of_ops_from(self.base_spec.clone(), ops, point);
        let flushed_len = crashfs::last_barrier_in_prefix(ops, point.keep).map_or(0, |b| b + 1);
        let spec_flushed = crashfs::spec_of_ops_from(
            self.base_spec.clone(),
            ops,
            CrashPoint {
                keep: flushed_len,
                dropped: None,
            },
        );
        let mut domain: SpecTree = spec.clone();
        for (k, v) in &spec_flushed {
            domain.entry(k.clone()).or_insert_with(|| v.clone());
        }
        let rename_pairs: Vec<(&str, &str)> = ops[..point.keep]
            .iter()
            .enumerate()
            .filter(|(i, _)| point.dropped != Some(*i))
            .filter_map(|(_, op)| match op {
                FsOp::Rename { from, to, .. } => Some((from.as_str(), to.as_str())),
                _ => None,
            })
            .collect();
        let mut dur = false;
        let mut ren = false;
        for path in domain.keys() {
            let expected = spec.get(path);
            let actual: Option<SpecNode> = match fs.stat(path) {
                Ok(st) if st.is_dir => Some(SpecNode::Dir),
                Ok(_) => fs.read_file(path).ok().map(SpecNode::File),
                Err(_) => None,
            };
            if actual.as_ref() != expected {
                if rename_involved(path, &rename_pairs) {
                    ren = true;
                } else {
                    dur = true;
                }
            }
        }
        [wf, ot, dur, ren]
    }
}

/// Whether `order` lists each of `0..n` exactly once.
fn is_permutation(order: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    order.len() == n
        && order
            .iter()
            .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
}

/// Whether `path` is (or lies under) the source or destination of any
/// surviving rename — such divergences are attributed to the rename
/// oracle rather than the durability oracle.
fn rename_involved(path: &str, pairs: &[(&str, &str)]) -> bool {
    pairs.iter().any(|(from, to)| {
        [from, to].iter().any(|p| {
            path == **p || (path.len() > p.len() && path.starts_with(*p) && path.as_bytes()[p.len()] == b'/')
        })
    })
}

/// One thread's crashcon rig: a case runner, a residue-zero session and
/// a resident verifier for the variant's machine flavour.
struct Judge {
    runner: CaseRunner,
    session: Session,
    verifier: Verifier,
}

impl Judge {
    fn new(os: OsVariant) -> Judge {
        Judge {
            runner: CaseRunner::new(),
            session: Session::new(),
            verifier: Verifier::new(os.machine_flavor()),
        }
    }

    /// Executes `combo`, a case of `prep`'s plan, with the op recorder
    /// armed and judges every bounded crash point of its log: the case's
    /// packed `(verdict, aux)` record.
    fn case(
        &mut self,
        os: OsVariant,
        prep: &PreparedMut<'_>,
        combo: &[usize],
        fuel_budget: u64,
    ) -> (u8, u64) {
        // Crashcon cases are residue-free: verdicts must be pure
        // functions of the case so tallies fold commutatively.
        self.session.residue = 0;
        let (_result, ops, truncated) = self.runner.execute_recorded(
            os,
            prep.mut_,
            prep.pools,
            combo,
            &mut self.session,
            fuel_budget,
        );
        self.verifier.evaluate(&ops, truncated).pack()
    }
}

/// Executes one MuT's crashcon cases and returns the per-case
/// `(packed, aux)` records in plan order — crashcon's residue-zero pass
/// ([`Mode::clean_mut`]), with the aux counts on the fuel channel.
pub(crate) fn crash_mut_records(
    os: OsVariant,
    prep: &PreparedMut<'_>,
    fuel_budget: u64,
) -> WireCleanMut {
    let mut judge = Judge::new(os);
    let mut cases = prep.plan.cases();
    let (records, aux) = (0..prep.plan.len())
        .map(|c_idx| judge.case(os, prep, cases.get(c_idx), fuel_budget))
        .unzip();
    WireCleanMut {
        records,
        fuel: Some(aux),
    }
}

/// Assembles a crashcon report, its stats closed over the executed case
/// total.
fn crash_report(
    os: OsVariant,
    muts: Vec<CrashTally>,
    warnings: Vec<String>,
    degraded: bool,
    stats: impl FnOnce(usize) -> Option<CampaignStats>,
) -> CrashconReport {
    let total_cases = muts.iter().map(|t| t.cases).sum();
    CrashconReport {
        os,
        total_points: muts.iter().map(|t| t.crash_points).sum(),
        total_inconsistent: muts.iter().map(|t| t.inconsistent_points).sum(),
        muts,
        total_cases,
        stats: stats(total_cases),
        warnings,
        degraded,
    }
}

/// Folds a merged residue-zero pass — in-process or from the fleet —
/// into per-MuT tallies and closes the report. Records are pure per-case
/// verdicts, so the fold is order-free and the partition into workers or
/// shards is invisible; a quarantined MuT keeps an empty tally and marks
/// the report degraded.
pub(crate) fn pass_report(
    os: OsVariant,
    preps: &[PreparedMut<'_>],
    pass: ShardResult,
    epoch: Epoch,
    workers: usize,
) -> CrashconReport {
    let degraded = pass.muts.iter().any(Option::is_none);
    let tallies = preps
        .iter()
        .zip(&pass.muts)
        .map(|(prep, clean)| {
            let (name, group) = (prep.mut_.name, prep.mut_.group);
            clean.as_ref().map_or_else(
                || CrashTally::new(name, group),
                |c| {
                    fold_records(
                        name,
                        group,
                        &c.records,
                        c.fuel.as_deref().unwrap_or_default(),
                    )
                },
            )
        })
        .collect();
    crash_report(os, tallies, pass.warnings, degraded, |total| {
        epoch.close(workers, total, 0, pass.quarantine_retries)
    })
}

/// Runs a crashcon campaign: every catalog MuT's sampled cases with the
/// op recorder armed, every bounded crash point judged by the four
/// oracles. `cfg.parallelism` sizes the worker pool exactly as for the
/// classic campaign — `1` runs every MuT in order on the calling thread,
/// anything else shards at MuT granularity (sound because crashcon cases
/// are residue-free); tallies are bit-identical at every setting. Each
/// MuT runs under the engines' quarantine fence: a harness fault earns
/// one rerun, a second one quarantines the MuT and marks the report
/// `degraded`.
///
/// # Example
///
/// ```no_run
/// use ballista::campaign::CampaignConfig;
/// use ballista::crashcon::run_crashcon;
/// use sim_kernel::variant::OsVariant;
///
/// let cfg = CampaignConfig { cap: 200, parallelism: 1, ..CampaignConfig::default() };
/// let report = run_crashcon(OsVariant::Win95, &cfg);
/// assert!(report.consistent(), "the simulated fs should survive every bounded crash");
/// ```
#[must_use]
pub fn run_crashcon(os: OsVariant, cfg: &CampaignConfig) -> CrashconReport {
    let preps = Mode::Crashcon.preps(os, cfg, 0..usize::MAX);
    let epoch = Epoch::open(None);
    let workers = cfg.workers().min(preps.len().max(1));
    let pass = campaign::clean_pass(Mode::Crashcon, os, cfg, &preps, workers, true, &epoch);
    pass_report(os, &preps, pass, epoch, workers)
}

/// Runs (or resumes) a **journaled** crashcon campaign: every judged
/// case is appended to the same write-ahead journal format the classic
/// engine uses — the packed byte carries the verdict flags and the
/// `fuel` word carries the `ops/points/inconsistent` counts (verdicts
/// are deterministic, so a replayed record equals a re-execution). The
/// journal's plan hash folds in [`MODE_TAG`], so a classic journal can
/// never be misapplied to a crashcon resume or vice versa.
///
/// # Errors
///
/// Propagates journal I/O failures.
pub fn run_crashcon_journaled(
    os: OsVariant,
    cfg: &CampaignConfig,
    journal_path: &std::path::Path,
    resume: bool,
) -> std::io::Result<CrashconReport> {
    let preps = Mode::Crashcon.preps(os, cfg, 0..usize::MAX);
    let hash = Mode::Crashcon.fingerprint(os, cfg).as_u64();
    let epoch = Epoch::open(None);
    let mut cursor = Resume::open(journal_path, hash, resume)?;
    let fuel_budget = cfg.effective_fuel_budget();
    let mut tallies = Vec::with_capacity(preps.len());
    for (m_idx, prep) in preps.iter().enumerate() {
        telemetry::count(Counter::CasesPlanned, prep.plan.len() as u64);
        let mut tally = CrashTally::new(prep.mut_.name, prep.mut_.group);
        // One rig (and so one verdict memo) per MuT, as in the clean
        // pass; a MuT replayed whole never boots one.
        let mut judge = None;
        let mut cases = prep.plan.cases();
        for c_idx in 0..prep.plan.len() {
            let replayed =
                cursor.replay(m_idx, c_idx, |p, a| CaseVerdict::decode(p, a).map(|_| p))?;
            let (packed, aux) = match replayed {
                Some(rec) => rec,
                None => {
                    let judge = judge.get_or_insert_with(|| Judge::new(os));
                    let (p, a) = judge.case(os, prep, cases.get(c_idx), fuel_budget);
                    cursor.append(m_idx, c_idx, p, a)?;
                    (p, a)
                }
            };
            tally.fold(packed, aux);
        }
        tallies.push(tally);
    }
    let (replayed, warnings) = cursor.finish()?;
    Ok(crash_report(os, tallies, warnings, false, |total| {
        epoch.close(1, total, replayed, 0)
    }))
}

/// Fold a wire/journal record stream for one MuT into a tally —
/// shared by the engines' merge and tests that want to re-fold raw
/// records in arbitrary partitions.
#[must_use]
pub fn fold_records(
    name: &str,
    group: FunctionGroup,
    packed: &[u8],
    aux: &[u64],
) -> CrashTally {
    let mut tally = CrashTally::new(name, group);
    for (p, a) in packed.iter().zip(aux) {
        tally.fold(*p, *a);
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips() {
        let v = CaseVerdict {
            ops: 256,
            truncated: true,
            points: 1021,
            inconsistent: 17,
            viol_well_formed: false,
            viol_open_table: true,
            viol_durability: true,
            viol_rename: false,
        };
        let (p, a) = v.pack();
        assert_eq!(CaseVerdict::unpack(p, a), v);
        let quiet = CaseVerdict::default();
        let (p, a) = quiet.pack();
        assert_eq!(p, 0);
        assert_eq!(a, 0);
        assert_eq!(CaseVerdict::unpack(p, a), quiet);
    }

    #[test]
    fn fold_is_partition_independent() {
        let packed = [
            PACK_ACTIVE,
            PACK_ACTIVE | PACK_RENAME,
            0,
            PACK_ACTIVE | PACK_DURABILITY | PACK_TRUNCATED,
        ];
        let aux = [
            (3u64 << 40) | (4 << 20),
            (5u64 << 40) | (9 << 20) | 2,
            0,
            (256u64 << 40) | (600 << 20) | 31,
        ];
        let all = fold_records("X", FunctionGroup::FileDirAccess, &packed, &aux);
        let mut split = fold_records("X", FunctionGroup::FileDirAccess, &packed[..1], &aux[..1]);
        for (p, a) in packed[1..].iter().zip(&aux[1..]).rev() {
            split.fold(*p, *a);
        }
        // Reversed order within the second partition: same tally.
        assert_eq!(all, split);
        assert_eq!(all.cases, 4);
        assert_eq!(all.active_cases, 3);
        assert_eq!(all.inconsistent_cases, 2);
        assert_eq!(all.viol_rename, 1);
    }

    #[test]
    fn verifier_passes_clean_log_and_flags_broken_rename() {
        let ops = vec![
            FsOp::Mkdir { path: "/w".into(), at_ms: 1 },
            FsOp::CreateFile { path: "/w/a".into(), content: b"v1".to_vec(), at_ms: 2 },
            FsOp::Barrier { at_ms: 3 },
            FsOp::CreateFile { path: "/w/a.tmp".into(), content: b"v2".to_vec(), at_ms: 4 },
            FsOp::Unlink { path: "/w/a".into(), at_ms: 5 },
            FsOp::Rename { from: "/w/a.tmp".into(), to: "/w/a".into(), at_ms: 6 },
        ];
        let mut verifier = Verifier::new(MachineFlavor::Posix);
        let clean = verifier.evaluate(&ops, false);
        assert_eq!(clean.inconsistent, 0, "correct fs survives every bounded crash");
        assert!(clean.points > ops.len() as u32, "drop-one points enumerated");

        fault::arm_broken_rename(true);
        let broken = verifier.evaluate(&ops, false);
        fault::arm_broken_rename(false);
        assert!(broken.viol_rename, "torn rename must be attributed to the rename oracle");
        assert!(broken.inconsistent > 0);
    }

    #[test]
    fn verdicts_are_order_independent() {
        let ops = vec![
            FsOp::Mkdir { path: "/w".into(), at_ms: 1 },
            FsOp::CreateFile { path: "/w/a".into(), content: b"v1".to_vec(), at_ms: 2 },
            FsOp::CreateFile { path: "/w/b".into(), content: b"v2".to_vec(), at_ms: 3 },
            FsOp::Barrier { at_ms: 4 },
            FsOp::Unlink { path: "/w/b".into(), at_ms: 5 },
        ];
        let mut verifier = Verifier::new(MachineFlavor::Posix);
        let forward = verifier.evaluate(&ops, false);
        let n = crashfs::crash_points(&ops).len();
        let reversed: Vec<usize> = (0..n).rev().collect();
        let backward = verifier.evaluate_ordered(&ops, false, Some(&reversed));
        assert_eq!(forward, backward);
    }

    /// A repeated log is answered from the memo: no crash image is
    /// materialized (the snapshot and remount counters stay put), while
    /// an explicit order judges every point again. The latch state is
    /// passed in, so a test arming the global latch meanwhile cannot
    /// turn the repeat into a miss.
    #[test]
    fn repeated_log_materializes_no_image() {
        let ops = vec![
            FsOp::CreateFile {
                path: "/a".into(),
                content: Vec::new(),
                at_ms: 1,
            },
            FsOp::Barrier { at_ms: 2 },
        ];
        let set = std::sync::Arc::new(telemetry::Counters::default());
        let images = || {
            (
                set.get(Counter::CrashconSnapshots),
                set.get(Counter::CrashconRemounts),
            )
        };
        let counting = telemetry::CountingFor::new(&set);
        let mut verifier = Verifier::new(MachineFlavor::Windows);
        let first = verifier.memoized(&ops, false, false);
        let judged = u64::from(first.points);
        assert_eq!(images(), (judged, judged), "a miss judges every point");
        assert_eq!(verifier.memoized(&ops, false, false), first);
        assert_eq!(
            verifier.memoized(&ops, true, false),
            CaseVerdict {
                truncated: true,
                ..first
            }
        );
        assert_eq!(images(), (judged, judged), "a repeat materializes no image");
        assert_eq!(
            verifier.memoized(&ops, false, true),
            first,
            "the armed latch is its own key"
        );
        assert_eq!(images(), (2 * judged, 2 * judged));
        assert_eq!(verifier.evaluate_ordered(&ops, false, None), first);
        assert_eq!(
            images(),
            (3 * judged, 3 * judged),
            "an explicit evaluation bypasses the memo"
        );
        drop(counting);
    }

    #[test]
    fn evaluate_ordered_rejects_an_order_that_is_not_a_permutation() {
        let ops = vec![FsOp::Mkdir {
            path: "/w".into(),
            at_ms: 1,
        }];
        let n = crashfs::crash_points(&ops).len();
        assert_eq!(n, 2);
        for order in [&[0, 0][..], &[1], &[0, 1, 1], &[0, 2], &[]] {
            let mut verifier = Verifier::new(MachineFlavor::Posix);
            let judged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                verifier.evaluate_ordered(&ops, false, Some(order))
            }));
            assert!(
                judged.is_err(),
                "order {order:?} over {n} points must panic"
            );
        }
        let mut verifier = Verifier::new(MachineFlavor::Posix);
        assert_eq!(
            verifier.evaluate_ordered(&ops, false, Some(&[1, 0])).points,
            2
        );
    }
}
