//! Coverage-guided adaptive sampling: explore → pin → replay.
//!
//! The paper's fixed cap-5000 plans are a *blind* pseudo-random sample:
//! identical across variants (which the comparative tables need), but
//! indifferent to what the campaign has already learned. This module
//! adds the campaign mode ROADMAP calls "coverage-guided adaptive
//! sampling", following the coverage-level-guided blackbox idea
//! (arXiv:2112.15485): feed live coverage back into case selection, at
//! the same per-MuT case budget as the fixed plan.
//!
//! # Explore, then pin
//!
//! The mode runs in two phases:
//!
//! 1. **Explore** ([`explore`]): budgeted rounds draw cases from a
//!    weighted sampler. Every case folds back into the weights at once —
//!    under-touched pool values get heavier, values that participated
//!    in rare outcomes (Silent / Restart / Catastrophic) earn a standing
//!    bonus — and a MuT whose observed CRASH-class distribution changed
//!    last round gets its per-round quota doubled. After every round the
//!    live [`Coverage`] snapshot is diffed ([`Coverage::gain_since`])
//!    into the round ledger. Exploration runs at residue zero, so it
//!    observes each case's *clean* outcome (the same record the parallel
//!    engine's clean pass would produce).
//! 2. **Pin** ([`PinnedPlan`]): the explored case list is frozen into an
//!    explicit per-MuT [`Plan`] of linear indices. Pinning is what keeps replay
//!    deterministic: the adaptive *choice* happens once, and every
//!    engine afterwards executes a plain, fixed plan — so the serial,
//!    parallel, journaled, and fleet engines produce **bit-identical**
//!    tallies for the same pinned plan, by exactly the argument that
//!    already covers the classic campaign (asserted by
//!    `tests/adaptive_determinism.rs`).
//!
//! Cases that went Catastrophic at residue zero during exploration are
//! handled specially: every engine stops a MuT at its first
//! Catastrophic case, so anything pinned after a crash is dead weight
//! at replay. The explorer therefore keeps exactly **one** crash case
//! per steerable MuT — the first discovered, pinned last so the replay
//! still reports the MuT Catastrophic without truncating the rest of
//! the plan — and *re-draws* later crash draws instead of pinning them
//! (they still execute during explore, feeding the weights and the
//! rare-value set; the discard budget is bounded so exploration always
//! terminates). The replayed prefix is thus essentially the whole
//! budget, where the fixed plan crashes wherever its blind sample
//! happens to place the first crash case.
//!
//! # Determinism and addressability
//!
//! The explorer draws from one `StdRng` seeded by
//! (mode tag, variant, [`AdaptiveConfig::seed`]) and consults only
//! deterministic state, so the pinned plan is a pure function of
//! `(os, cap, fuel budget, rounds, seed, rare_bonus)`. That purity is
//! what lets the campaign fingerprint fold a mode **tag** instead of
//! the plan itself: [`fingerprint_adaptive`] hashes `adaptive/1` plus
//! the adaptive knobs over the catalog plans (mirroring `crashcon/1`),
//! and two adaptive campaigns share a fingerprint iff they would pin
//! the same plan. Journals, the result cache, and the fleet server all
//! address adaptive campaigns by that fingerprint.
//!
//! # Exploring on the pool
//!
//! Explore is the serial part of every adaptive campaign, so [`explore`]
//! runs its cases on up to `cfg.workers()` threads without changing a
//! draw. One coordinator draws, folds and steps the generator in the
//! serial order. Fixed MuTs (exhaustive, or taking no parameters) do not
//! depend on feedback, so [`campaign::claim_each`] runs each to its first
//! crash before round 0 and the coordinator reads their outcomes in
//! cursor order.
//! Steerable cases run speculatively: the coordinator draws a window
//! ahead, applying at draw time what does not depend on an outcome
//! (touch counts, weights, the taken set), and commits outcomes in draw
//! order. A commit that sets a value's rare flag for the first time
//! changes weights later draws read, so they are undone, the generator
//! is rewound to its state after the committed draw, and the cases are
//! redrawn; a discarded crash adds a draw to its MuT's round, so the
//! draws of later MuTs are redrawn. An outcome is a pure function of the
//! MuT and the case, so a redrawn case the pool already ran reuses its
//! outcome. The pinned plan, the ledger and the explore coverage are
//! bit-identical at every parallelism, which is why `adaptive/1` stands.

use crate::campaign::{self, CampaignConfig, CampaignFingerprint, CampaignReport, Mode};
use crate::catalog::{self, ResolvedMut};
use crate::coverage::{class_index, Coverage, CLASS_LABELS};
use crate::crash::FailureClass;
use crate::exec::{CaseRunner, Session, MAX_ARITY};
use crate::journal::PlanHasher;
use crate::sampling::{self, Plan};
use crate::telemetry::{self, Counter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use sim_kernel::variant::OsVariant;
use sim_kernel::SubsystemFuel;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Thread;

/// The mode tag folded into adaptive fingerprints, journal hashes, and
/// cache keys (versioned like `crashcon/1`; bump on any change to the
/// explore algorithm, since the pinned plan is derived from it).
pub const MODE_TAG: &str = "adaptive/1";

/// Default explore rounds when [`AdaptiveConfig::rounds`] is 0.
pub const DEFAULT_ROUNDS: usize = 8;

/// Default rare-outcome weight bonus when [`AdaptiveConfig::rare_bonus`]
/// is 0.
pub const DEFAULT_RARE_BONUS: u64 = 32;

/// Largest effective round count [`AdaptiveConfig::check_bounds`]
/// accepts. The explorer reserves its ledger and snapshots coverage once
/// per round, so an unbounded count from a campaign spec is an unbounded
/// allocation; far fewer rounds already exhaust every MuT's budget.
pub const MAX_ROUNDS: usize = 1024;

/// Largest effective rare bonus [`AdaptiveConfig::check_bounds`]
/// accepts: 2^32, so a value's weight (at most `64 + 2^32`) summed over
/// a pool of fewer than 2^31 values cannot overflow `u64`.
pub const MAX_RARE_BONUS: u64 = 1 << 32;

/// Weight-collision retries before the explorer falls back to a linear
/// probe over the combination space.
const DRAW_RETRIES: usize = 8;

/// Adaptive-mode knobs. All three are folded into the adaptive campaign
/// fingerprint, so changing any of them re-addresses the campaign.
///
/// Like [`CampaignConfig`], `0` means "default" for every knob so that
/// deserializing an old (or sparse) config yields the standard
/// behaviour: `rounds: 0` resolves to [`DEFAULT_ROUNDS`] and
/// `rare_bonus: 0` to [`DEFAULT_RARE_BONUS`]. The `seed` is taken
/// literally (0 is a fine seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct AdaptiveConfig {
    /// Explore rounds; `0` resolves to [`DEFAULT_ROUNDS`]. More rounds
    /// mean more feedback foldings at the same total case budget.
    #[serde(default)]
    pub rounds: usize,
    /// Explore RNG seed. Different seeds pin different (equally valid)
    /// plans; the default campaign uses seed 0.
    #[serde(default)]
    pub seed: u64,
    /// Additive weight bonus for pool values that participated in a
    /// Silent, Restart, or Catastrophic case; `0` resolves to
    /// [`DEFAULT_RARE_BONUS`].
    #[serde(default)]
    pub rare_bonus: u64,
}

impl AdaptiveConfig {
    /// The effective round count (`rounds`, with 0 → [`DEFAULT_ROUNDS`]).
    #[must_use]
    pub fn effective_rounds(&self) -> usize {
        match self.rounds {
            0 => DEFAULT_ROUNDS,
            n => n,
        }
    }

    /// The effective rare bonus (`rare_bonus`, with 0 →
    /// [`DEFAULT_RARE_BONUS`]).
    #[must_use]
    pub fn effective_rare_bonus(&self) -> u64 {
        match self.rare_bonus {
            0 => DEFAULT_RARE_BONUS,
            n => n,
        }
    }

    /// Checks the knobs against [`MAX_ROUNDS`] and [`MAX_RARE_BONUS`],
    /// the bounds a config from outside the process (a `POST /campaign`
    /// spec) must meet before anything explores it.
    ///
    /// # Errors
    ///
    /// Names the first knob out of bounds.
    pub fn check_bounds(&self) -> Result<(), String> {
        if self.rounds > MAX_ROUNDS {
            return Err(format!(
                "adaptive rounds {} above the maximum {MAX_ROUNDS}",
                self.rounds
            ));
        }
        if self.rare_bonus > MAX_RARE_BONUS {
            return Err(format!(
                "adaptive rare bonus {} above the maximum {MAX_RARE_BONUS}",
                self.rare_bonus
            ));
        }
        Ok(())
    }
}

/// One explore round's ledger entry — the coverage-gain curve an
/// operator reads to judge when exploration went dry (see
/// EXPERIMENTS.md, "Reading a coverage curve").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: usize,
    /// Cases executed this round.
    pub explored_cases: u64,
    /// Pool values first touched this round.
    pub new_values: u64,
    /// Primary outcome classes first observed this round.
    pub new_classes: u64,
}

/// One MuT's pinned case list.
#[derive(Debug, Clone)]
pub struct PinnedMut {
    /// MuT name (catalog key).
    pub name: String,
    /// The frozen plan: explored cases in pin order, with at most the
    /// first discovered Catastrophic (residue-zero) case deferred to
    /// the tail (later crash draws were executed for feedback but
    /// re-drawn rather than pinned). For exhaustive and zero-parameter
    /// MuTs this is exactly the fixed plan — adaptive selection cannot
    /// beat "all of them".
    pub plan: Plan,
}

/// The frozen result of an explore phase: per-MuT pinned plans (catalog
/// order) plus the explore ledger. Everything downstream — the four
/// engines, coverage reconstruction, the goldens — works from this.
#[derive(Debug, Clone)]
pub struct PinnedPlan {
    /// Variant the plan was explored on.
    pub os: OsVariant,
    /// Pinned per-MuT plans, in catalog order.
    pub muts: Vec<PinnedMut>,
    /// Per-round explore ledger (the coverage-gain curve).
    pub rounds: Vec<RoundStats>,
    /// Total cases executed during exploration.
    pub explore_cases: u64,
    /// Coverage observed during exploration (residue-zero outcomes).
    pub explore_coverage: Coverage,
}

impl PinnedPlan {
    /// Total pinned cases across MuTs (equals the fixed plans' total at
    /// the same cap — the equal-budget invariant).
    #[must_use]
    pub fn pinned_cases(&self) -> u64 {
        self.muts.iter().map(|m| m.plan.len() as u64).sum()
    }

    /// Stable FNV-1a digest of the full pinned case list — what the
    /// determinism tests compare across processes and engines.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = PlanHasher::new();
        h.write_str(self.os.short_name());
        for m in &self.muts {
            h.write_str(&m.name);
            h.write_u64(m.plan.len() as u64);
            for i in 0..m.plan.len() {
                h.write_u64(m.plan.linear(i));
            }
        }
        h.finish()
    }

    /// The pinned plans keyed by MuT name — the shape
    /// [`Coverage::from_report_with_plans`] consumes.
    #[must_use]
    pub fn plans_by_name(&self) -> BTreeMap<String, Plan> {
        self.muts
            .iter()
            .map(|m| (m.name.clone(), m.plan.clone()))
            .collect()
    }
}

/// The explorer's feedback on one parameter type, dense over the
/// type's pool. Pools are shared across MuTs by type name, so the
/// feedback crosses MuTs too; every MuT taking the type indexes the
/// same table.
struct TypeFeedback {
    /// Data-type name (the [`Coverage`] pool key).
    ty: &'static str,
    /// Cases each value took part in, counted when a case is drawn.
    touches: Vec<u64>,
    /// Values that took part in a Silent, Restart or Catastrophic case,
    /// flagged when that case commits.
    rare: Vec<bool>,
    /// Each value's draw weight, kept equal to [`weight`] of its touch
    /// count and rare flag on every change, so a draw reads it as is.
    weights: Vec<u64>,
    /// The sum of `weights`, kept current with them, so a draw does not
    /// sum the pool.
    total: u64,
    rare_bonus: u64,
}

impl TypeFeedback {
    /// The index of `ty`'s table in `tables`, appending a fresh table
    /// (every value untouched) the first time the type is seen.
    fn id_of(
        tables: &mut Vec<TypeFeedback>,
        ty: &'static str,
        pool_len: usize,
        rare_bonus: u64,
    ) -> usize {
        if let Some(id) = tables.iter().position(|t| t.ty == ty) {
            assert_eq!(
                tables[id].weights.len(),
                pool_len,
                "{ty}: one pool per type"
            );
            return id;
        }
        let untouched = weight(0, false, rare_bonus);
        tables.push(TypeFeedback {
            ty,
            touches: vec![0; pool_len],
            rare: vec![false; pool_len],
            weights: vec![untouched; pool_len],
            total: untouched * pool_len as u64,
            rare_bonus,
        });
        tables.len() - 1
    }

    /// Counts one more case for value `idx`. Returns `true` on the
    /// value's first touch.
    fn touch(&mut self, idx: usize) -> bool {
        self.touches[idx] += 1;
        self.reweigh(idx);
        self.touches[idx] == 1
    }

    /// Takes back a touch of a drawn case that was rolled back.
    fn untouch(&mut self, idx: usize) {
        self.touches[idx] -= 1;
        self.reweigh(idx);
    }

    /// Flags value `idx` as a rare participant. Returns `true` if it was
    /// not flagged yet.
    fn mark_rare(&mut self, idx: usize) -> bool {
        if self.rare[idx] {
            return false;
        }
        self.rare[idx] = true;
        self.reweigh(idx);
        true
    }

    fn reweigh(&mut self, idx: usize) {
        let w = weight(self.touches[idx], self.rare[idx], self.rare_bonus);
        self.total = self.total - self.weights[idx] + w;
        self.weights[idx] = w;
    }
}

/// The draw weight of a pool value: an untouched value weighs `64`, a
/// value touched `t` times weighs `max(1, 64 >> min(t, 6))`, and rare
/// participants add `rare_bonus` on top.
fn weight(touches: u64, rare: bool, rare_bonus: u64) -> u64 {
    let w = 1u64.max(64 >> touches.min(6));
    if rare {
        w + rare_bonus
    } else {
        w
    }
}

/// [`CLASS_LABELS`] index of Catastrophic.
const CATASTROPHIC: usize = 0;

/// Which [`CLASS_LABELS`] are rare outcomes: Silent, Restart and
/// Catastrophic.
const RARE_CLASS: [bool; CLASS_LABELS.len()] = [true, true, false, true, false, false];

/// Per-MuT explorer state, owned by the coordinator.
struct MutState {
    /// Index into the explorer's [`TypeFeedback`] tables, per parameter.
    type_ids: Vec<usize>,
    dims: &'static [usize],
    /// The fixed plan (budget source; pinned verbatim for `fixed` MuTs).
    fixed_plan: Plan,
    /// `true` when the fixed plan is exhaustive (or the MuT takes no
    /// parameters): there is nothing to steer, the pin *is* the plan.
    fixed: bool,
    /// For a `fixed` MuT, the class index of every case explore runs:
    /// its plan in order, up to and including the first Catastrophic
    /// one. Filled by `claim_each` before round 0.
    fixed_classes: Vec<u8>,
    /// Linear indices pinned so far, and the deferred crash case.
    pinned: Vec<u64>,
    deferred: Vec<u64>,
    /// Every linear index drawn, the cases still in the window included.
    taken: Taken,
    /// Total combinations (pre-computed; steerable MuTs only need it).
    total: u64,
    /// Crash draws executed but re-drawn rather than pinned. Bounded by
    /// the budget (and by combination-space headroom), so exploration
    /// terminates even on crash-dense MuTs.
    discards: usize,
    /// Progress cursor for `fixed` MuTs: the next case index into
    /// `fixed_plan`, advanced when a case is drawn.
    cursor: usize,
    /// Primary outcome classes observed so far, one bit per
    /// [`CLASS_LABELS`] index.
    classes_seen: u8,
    new_class_this_round: bool,
    new_class_last_round: bool,
}

impl MutState {
    fn budget(&self) -> usize {
        self.fixed_plan.len()
    }

    fn spent(&self) -> usize {
        if self.fixed {
            self.cursor
        } else {
            self.pinned.len() + self.deferred.len()
        }
    }

    /// Cases left to explore. A `fixed` MuT that has run its first
    /// Catastrophic case has none: replay stops there too.
    fn remaining(&self) -> usize {
        if self.fixed && self.cursor == self.fixed_classes.len() {
            0
        } else {
            self.budget() - self.spent()
        }
    }

    /// This round's quota: an even share of what's left, doubled while
    /// the MuT's class distribution is still moving. The final round has
    /// quota == remaining, so the budget always completes.
    fn quota(&self, remaining_rounds: usize) -> usize {
        let remaining = self.remaining();
        let quota = remaining.div_ceil(remaining_rounds);
        if self.new_class_last_round {
            (quota * 2).min(remaining)
        } else {
            quota
        }
    }
}

/// Runs the explore phase and pins the result. Deterministic: same
/// `(os, cfg.cap, cfg fuel budget, acfg)` ⇒ identical [`PinnedPlan`]
/// (same digest, same order, same ledger and coverage), on every host
/// and at every `cfg.parallelism`. Exploration executes `Σ planned`
/// cases at residue zero — the same per-MuT budget the pinned plan will
/// spend again at replay.
///
/// One coordinator draws, folds and steps the generator in exactly the
/// serial order; case execution runs on up to `cfg.workers()` threads,
/// the coordinator included, and never more than two. Fixed MuTs run to
/// their first crash on [`campaign::claim_each`] before round 0;
/// steerable cases run speculatively in a window drawn ahead of the
/// commit point and are committed in draw order, and a commit that
/// changes what a later draw reads rolls the later draws back
/// (DESIGN.md §15).
///
/// Prefer [`pinned_plan_shared`], which memoizes per process.
#[must_use]
pub fn explore(os: OsVariant, cfg: &CampaignConfig, acfg: &AdaptiveConfig) -> PinnedPlan {
    let muts = &catalog::prepared(os).muts;
    let rounds_n = acfg.effective_rounds();
    let rare_bonus = acfg.effective_rare_bonus();
    let fuel_budget = cfg.effective_fuel_budget();

    // One feedback table per parameter type, numbered in order of first
    // appearance in the catalog.
    let mut feedback: Vec<TypeFeedback> = Vec::new();
    let mut states = Vec::with_capacity(muts.len());
    for (mi, m) in muts.iter().enumerate() {
        let fixed_plan = m.plan(cfg.cap);
        let fixed = fixed_plan.exhaustive();
        let dims = &m.dims[..];
        assert!(
            mi <= usize::from(u16::MAX)
                && dims.len() <= MAX_ARITY
                && dims.iter().all(|&d| d <= 1 << 16),
            "{}: a case must pack into 16-bit pool indices",
            m.mut_.name
        );
        let total = sampling::combination_count(dims);
        assert!(
            total <= TAKEN_BITMAP_MAX,
            "{}: {total} combinations overflow the taken bitmap",
            m.mut_.name
        );
        let type_ids = m
            .mut_
            .params
            .iter()
            .zip(dims)
            .map(|(&ty, &len)| TypeFeedback::id_of(&mut feedback, ty, len, rare_bonus))
            .collect();
        states.push(MutState {
            type_ids,
            total,
            dims,
            fixed_plan,
            fixed,
            fixed_classes: Vec::new(),
            pinned: Vec::new(),
            deferred: Vec::new(),
            taken: Taken::new(if fixed { 0 } else { total }),
            discards: 0,
            cursor: 0,
            classes_seen: 0,
            new_class_this_round: false,
            new_class_last_round: false,
        });
    }

    let threads = cfg.workers().clamp(1, MAX_EXPLORE_THREADS);
    let fixed: Vec<usize> = (0..states.len()).filter(|&mi| states[mi].fixed).collect();
    let classes = campaign::claim_each(fixed.len(), threads, Executor::default, |exec, j| {
        let mi = fixed[j];
        exec.run_fixed(os, &muts[mi], &states[mi].fixed_plan, fuel_budget)
    });
    for (mi, classes) in fixed.into_iter().zip(classes) {
        states[mi].fixed_classes = classes;
    }
    let pool = Pool::new(muts, os, fuel_budget, 1 + (threads - 1) * WINDOW_PER_HELPER);
    // One RNG stream for the whole explore: the draw sequence depends
    // only on (tag, variant, seed) and the deterministic outcomes that
    // shape the weights.
    let rng = StdRng::seed_from_u64(sampling::seed_from_name(&format!(
        "{MODE_TAG}/{}/{}",
        os.short_name(),
        acfg.seed
    )));
    let mut ex = Explorer {
        states,
        feedback,
        rng,
        window: VecDeque::with_capacity(pool.slots.len()),
        reuse: Vec::new(),
        cov: Coverage::default(),
        class_counts: [0; CLASS_LABELS.len()],
        explore_cases: 0,
        rollbacks: 0,
        reexecuted: 0,
        next_ticket: 0,
        exec: Executor::default(),
    };
    let rounds = std::thread::scope(|s| {
        let pool = &pool;
        let helpers: Vec<Thread> = (1..threads)
            .map(|_| s.spawn(move || pool.help()).thread().clone())
            .collect();
        let _stop = StopOnDrop {
            pool,
            helpers: &helpers,
        };
        (0..rounds_n)
            .map(|round| {
                pool.wake(&helpers);
                let stats = ex.round(pool, round, rounds_n - round);
                pool.live.store(false, Ordering::Release);
                stats
            })
            .collect::<Vec<_>>()
    });
    telemetry::count_each(&[
        (Counter::AdaptiveRollbacks, ex.rollbacks),
        (Counter::AdaptiveReexecutedCases, ex.reexecuted),
    ]);

    let muts_pinned: Vec<PinnedMut> = ex
        .states
        .into_iter()
        .zip(muts)
        .map(|(st, m)| {
            let plan = if st.fixed {
                st.fixed_plan
            } else {
                let mut pins = st.pinned;
                pins.extend(st.deferred);
                debug_assert_eq!(pins.len(), st.fixed_plan.len());
                Plan::pinned(st.dims, &pins)
            };
            PinnedMut {
                name: m.mut_.name.to_owned(),
                plan,
            }
        })
        .collect();
    let plan = PinnedPlan {
        os,
        muts: muts_pinned,
        rounds,
        explore_cases: ex.explore_cases,
        explore_coverage: ex.cov,
    };
    telemetry::count(Counter::AdaptivePinnedCases, plan.pinned_cases());
    plan
}

/// Most threads one explore runs on, the coordinator included. The
/// coordinator's draw and commit take about as long as running a case,
/// so it keeps about one pool thread busy; wider explores were never
/// timed, and `parallelism` may come from an outside campaign spec.
const MAX_EXPLORE_THREADS: usize = 2;

/// Drawn cases the window holds per pool thread beside the coordinator
/// (plus one). A deeper window hides more hand-off jitter and throws
/// away more draws on a rollback.
const WINDOW_PER_HELPER: usize = 8;

/// Busy-wait rounds before a waiting thread starts yielding its CPU.
const SPINS: u32 = 64;

/// Where the round's next draw goes: a MuT and the draws made in its
/// block of the round so far.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    mi: usize,
    drawn: usize,
}

impl Cursor {
    /// This cursor, or the start of the first later block with draws
    /// left; `mi` is `blocks.len()` once the round has drawn everything.
    fn settled(mut self, blocks: &[usize]) -> Cursor {
        while self.mi < blocks.len() && self.drawn >= blocks[self.mi] {
            self.mi += 1;
            self.drawn = 0;
        }
        self
    }
}

/// What a commit changed that the draws after it read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Commit {
    /// Nothing: every later draw stands.
    Kept,
    /// A crash the explorer discards: its MuT's block grows by one draw,
    /// so the draws of later MuTs move behind it.
    Discarded,
    /// A value's first rare flag: its weight changes, so every later
    /// draw may.
    NewRare,
}

/// A steerable case's outcome as the coordinator commits it: its
/// [`CLASS_LABELS`] index and its subsystem-fuel ledger (for the
/// telemetry profile).
#[derive(Debug, Clone, Copy)]
struct Ran {
    class: usize,
    subsys: SubsystemFuel,
}

/// A drawn case's outcome, as far as the coordinator has it.
#[derive(Debug)]
enum Outcome {
    /// A fixed MuT's case: its class index, from the run before round 0.
    Fixed(u8),
    /// A steerable case the pool already ran before a rollback.
    Ran(Box<Ran>),
    /// A steerable case posted to the pool under this ticket.
    Posted(u64),
}

/// A drawn case waiting in the window for its commit: everything the
/// commit folds, and everything a rollback must undo.
#[derive(Debug)]
struct Drawn {
    /// The cursor the case was drawn at.
    at: Cursor,
    /// Pool index per parameter (the first `dims.len()` entries).
    combo: [u16; MAX_ARITY],
    /// Linear index (steerable MuTs only).
    linear: u64,
    /// Parameters whose value this case touched first, one bit each.
    first: u8,
    /// The generator state after the draw.
    rng: StdRng,
    /// `taken.len()` after the draw (steerable MuTs only).
    taken: u64,
    outcome: Outcome,
}

/// The coordinator: the one thread that draws, folds and steps the
/// generator, in exactly the order of a serial explore.
struct Explorer {
    states: Vec<MutState>,
    feedback: Vec<TypeFeedback>,
    rng: StdRng,
    /// Drawn cases not yet committed, oldest first.
    window: VecDeque<Drawn>,
    /// Outcomes of rolled-back cases the pool had already run, by MuT
    /// and linear index, for a redraw of the same case to reuse.
    reuse: Vec<(usize, u64, Ran)>,
    cov: Coverage,
    /// Case counts per class this round, folded into `cov` at its end.
    class_counts: [u64; CLASS_LABELS.len()],
    explore_cases: u64,
    rollbacks: u64,
    reexecuted: u64,
    next_ticket: u64,
    exec: Executor,
}

impl Explorer {
    /// Runs one round: draws ahead up to the window, commits in draw
    /// order, and drains the window before returning, because the next
    /// round's quotas read what this round's commits observed.
    fn round(&mut self, pool: &Pool, round: usize, remaining_rounds: usize) -> RoundStats {
        let snapshot = self.cov.clone();
        let explored_before = self.explore_cases;
        // Draws per MuT this round: its quota, plus one per crash it
        // discards.
        let mut blocks: Vec<usize> = self
            .states
            .iter()
            .map(|st| st.quota(remaining_rounds))
            .collect();
        let mut at = Cursor { mi: 0, drawn: 0 }.settled(&blocks);
        loop {
            while self.window.len() < pool.slots.len() && at.mi < blocks.len() {
                at = self.draw(pool, at, &blocks);
            }
            let Some(d) = self.window.pop_front() else {
                break;
            };
            let keep = match self.commit(pool, &d, &mut blocks) {
                Commit::Kept => continue,
                Commit::Discarded => self
                    .window
                    .iter()
                    .take_while(|later| later.at.mi == d.at.mi)
                    .count(),
                Commit::NewRare => 0,
            };
            self.rollback(pool, keep);
            // Draw on from the last case kept.
            let last = self.window.back().unwrap_or(&d);
            self.rng = last.rng.clone();
            at = self.after(last.at, &blocks);
        }
        self.reexecuted += self.reuse.len() as u64;
        self.reuse.clear();
        for st in &mut self.states {
            st.new_class_last_round = st.new_class_this_round;
            st.new_class_this_round = false;
        }
        for (label, n) in CLASS_LABELS.iter().zip(&mut self.class_counts) {
            self.cov.observe_class(label, std::mem::take(n));
        }
        let gain = self.cov.gain_since(&snapshot);
        telemetry::count_each(&[
            (Counter::AdaptiveRounds, 1),
            (Counter::AdaptiveCoverageGain, gain.new_values),
        ]);
        RoundStats {
            round,
            explored_cases: self.explore_cases - explored_before,
            new_values: gain.new_values,
            new_classes: gain.new_classes,
        }
    }

    /// The cursor after a case drawn at `at`: the MuT's next case, or
    /// the next MuT once a fixed MuT has run its last case.
    fn after(&self, at: Cursor, blocks: &[usize]) -> Cursor {
        let st = &self.states[at.mi];
        let next = if st.fixed && st.cursor == st.fixed_classes.len() {
            Cursor {
                mi: at.mi + 1,
                drawn: 0,
            }
        } else {
            Cursor {
                mi: at.mi,
                drawn: at.drawn + 1,
            }
        };
        next.settled(blocks)
    }

    /// Draws the case at `at` into the window, applies what does not
    /// depend on its outcome (touch counts, weights, `taken`, a fixed
    /// MuT's cursor) and posts a steerable case to the pool. Returns the
    /// cursor after it.
    fn draw(&mut self, pool: &Pool, at: Cursor, blocks: &[usize]) -> Cursor {
        let st = &mut self.states[at.mi];
        let k = st.dims.len();
        let mut combo = [0; MAX_ARITY];
        let (linear, taken, outcome) = if st.fixed {
            // A fixed MuT's plan is the lexicographic range: case
            // `cursor` is the combination with that linear index.
            sampling::decode_into(st.cursor as u64, st.dims, &mut combo[..k]);
            let class = st.fixed_classes[st.cursor];
            st.cursor += 1;
            (0, 0, Outcome::Fixed(class))
        } else {
            let linear = draw_combo(&mut self.rng, st, &self.feedback, &mut combo[..k]);
            st.taken.insert(linear);
            let reused = self
                .reuse
                .iter()
                .position(|&(mi, l, _)| mi == at.mi && l == linear);
            let outcome = match reused {
                Some(i) => Outcome::Ran(Box::new(self.reuse.swap_remove(i).2)),
                None => {
                    let ticket = self.next_ticket;
                    self.next_ticket += 1;
                    pool.post(ticket, at.mi, &combo[..k]);
                    Outcome::Posted(ticket)
                }
            };
            (linear, st.taken.len(), outcome)
        };
        let mut first = 0u8;
        for (j, (&id, &idx)) in st.type_ids.iter().zip(&combo).enumerate() {
            if self.feedback[id].touch(idx) {
                first |= 1 << j;
            }
        }
        self.window.push_back(Drawn {
            at,
            combo: combo.map(|c| c as u16),
            linear,
            first,
            rng: self.rng.clone(),
            taken,
            outcome,
        });
        self.after(at, blocks)
    }

    /// Commits the oldest drawn case: rare flags, coverage first touches,
    /// class counts, and the pin or deferred crash, or a discard, which
    /// grows the MuT's block in `blocks`. Returns what that changed for
    /// the draws after it.
    fn commit(&mut self, pool: &Pool, d: &Drawn, blocks: &mut [usize]) -> Commit {
        let (class, ran) = match d.outcome {
            Outcome::Fixed(class) => (usize::from(class), None),
            Outcome::Ran(ref ran) => (ran.class, Some(**ran)),
            Outcome::Posted(ticket) => {
                let ran = pool.take(ticket, self.next_ticket, &mut self.exec);
                (ran.class, Some(ran))
            }
        };
        let run = &pool.runs[d.at.mi];
        if let Some(ran) = ran.filter(|_| pool.observed) {
            // Profiled at commit, so a rolled-back execution never
            // reaches the profile (fixed cases are profiled as they run).
            telemetry::on_case_profile(pool.os, run.mut_.group.label(), &ran.subsys);
        }
        let st = &mut self.states[d.at.mi];
        let mut new_rare = false;
        for (j, (&id, &idx)) in st.type_ids.iter().zip(&d.combo).enumerate() {
            let idx = usize::from(idx);
            let fb = &mut self.feedback[id];
            new_rare |= RARE_CLASS[class] && fb.mark_rare(idx);
            // Coverage only needs a value's first touch: later touches
            // of it change nothing there.
            if d.first & (1 << j) != 0 {
                let pool_j = &run.pools[j];
                self.cov
                    .touch_value(fb.ty, pool_j[idx].name, pool_j.len() as u64);
            }
        }
        self.class_counts[class] += 1;
        if st.classes_seen & (1 << class) == 0 {
            st.classes_seen |= 1 << class;
            st.new_class_this_round = true;
        }
        self.explore_cases += 1;
        if !st.fixed {
            if class == CATASTROPHIC {
                // Keep the first crash (pinned last, so replay still
                // reports the MuT Catastrophic); re-draw later ones —
                // anything pinned after the first crash would never
                // execute at replay. Guards: the discard budget bounds
                // exploration, and the headroom check keeps enough free
                // combinations to fill the remaining pins.
                let free = st.total - d.taken;
                let remaining_pins = (st.budget() - st.spent()) as u64;
                if !st.deferred.is_empty() && st.discards < st.budget() && free >= remaining_pins {
                    st.discards += 1;
                    blocks[d.at.mi] += 1;
                    return if new_rare {
                        Commit::NewRare
                    } else {
                        Commit::Discarded
                    };
                }
                st.deferred.push(d.linear);
            } else {
                st.pinned.push(d.linear);
            }
        }
        if new_rare {
            Commit::NewRare
        } else {
            Commit::Kept
        }
    }

    /// Undoes the drawn cases in the window after its first `keep`,
    /// newest first: touch counts, `taken` and fixed cursors. Outcomes
    /// the pool already produced are kept for a redraw of the same case.
    /// The withdrawn cases' tickets are posted again, so the tickets of
    /// the cases in the window stay one run no longer than the ring.
    fn rollback(&mut self, pool: &Pool, keep: usize) {
        if self.window.len() == keep {
            return;
        }
        self.rollbacks += 1;
        while self.window.len() > keep {
            let d = self.window.pop_back().expect("longer than keep");
            let st = &mut self.states[d.at.mi];
            for (&id, &idx) in st.type_ids.iter().zip(&d.combo) {
                self.feedback[id].untouch(usize::from(idx));
            }
            let ran = match d.outcome {
                Outcome::Fixed(_) => {
                    st.cursor -= 1;
                    continue;
                }
                Outcome::Ran(ran) => Some(*ran),
                Outcome::Posted(ticket) => {
                    self.next_ticket = ticket;
                    pool.abandon(ticket)
                }
            };
            st.taken.remove(d.linear);
            if let Some(ran) = ran {
                self.reuse.push((d.at.mi, d.linear, ran));
            }
        }
    }
}

/// Draws one not-yet-taken combination for a steerable MuT into
/// `combo` and returns its linear index: per parameter, a draw by the
/// current [`weight`]s of the parameter type's pool. Collisions with
/// already-taken cases retry a few times, then fall back to a linear
/// probe. The probe always lands: combinations strictly exceed the
/// budget for steerable MuTs (else the plan would be exhaustive), and
/// the explorer's crash-discard guard never takes a combination unless
/// enough free ones remain to fill every outstanding pin.
fn draw_combo(
    rng: &mut StdRng,
    st: &MutState,
    feedback: &[TypeFeedback],
    combo: &mut [usize],
) -> u64 {
    let mut linear = 0;
    for _ in 0..=DRAW_RETRIES {
        for (slot, &id) in combo.iter_mut().zip(&st.type_ids) {
            let fb = &feedback[id];
            *slot = sampling::weighted_index_in(rng, &fb.weights, fb.total);
        }
        linear = sampling::encode(combo, st.dims);
        if !st.taken.contains(linear) {
            return linear;
        }
    }
    // Weighted retries keep colliding (the hot region is dense): walk
    // linearly from the last collision until a free slot.
    loop {
        linear += 1;
        if linear == st.total {
            linear = 0;
        }
        if !st.taken.contains(linear) {
            sampling::decode_into(linear, st.dims, combo);
            return linear;
        }
    }
}

/// Largest combination space a [`Taken`] bitmap covers: 2 MiB of bits.
/// The largest product in any catalog is 262 656 cases (32 KiB).
const TAKEN_BITMAP_MAX: u64 = 1 << 24;

/// The linear indices a steerable MuT has drawn: a bitmap over its
/// combination space, so a draw's lookup reads one word.
struct Taken {
    words: Vec<u64>,
    len: u64,
}

impl Taken {
    fn new(total: u64) -> Taken {
        Taken {
            words: vec![0; total.div_ceil(64) as usize],
            len: 0,
        }
    }

    fn contains(&self, linear: u64) -> bool {
        self.words[(linear / 64) as usize] >> (linear % 64) & 1 == 1
    }

    /// Adds `linear`, which must not be taken yet.
    fn insert(&mut self, linear: u64) {
        debug_assert!(!self.contains(linear));
        self.words[(linear / 64) as usize] |= 1 << (linear % 64);
        self.len += 1;
    }

    /// Drops `linear`, which must be taken.
    fn remove(&mut self, linear: u64) {
        debug_assert!(self.contains(linear));
        self.words[(linear / 64) as usize] &= !(1 << (linear % 64));
        self.len -= 1;
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// One thread's case runner: a resident machine and a residue-zero
/// session.
#[derive(Default)]
struct Executor {
    runner: CaseRunner,
    session: Session,
}

impl Executor {
    /// Runs a fixed MuT's `plan` in order up to and including its first
    /// Catastrophic case, and returns each case's class index. Every
    /// case here is kept, so it is profiled as it runs.
    fn run_fixed(
        &mut self,
        os: OsVariant,
        m: &ResolvedMut,
        plan: &Plan,
        fuel_budget: u64,
    ) -> Vec<u8> {
        let mut classes = Vec::with_capacity(plan.len());
        let mut cases = plan.cases();
        for i in 0..plan.len() {
            self.session.residue = 0;
            let r = self.runner.execute(
                os,
                &m.mut_,
                &m.pools,
                cases.get(i),
                &mut self.session,
                fuel_budget,
            );
            classes.push(class_index(r.class, r.raw) as u8);
            if r.class == FailureClass::Catastrophic {
                break;
            }
        }
        classes
    }
}

/// Slot state tags: the low three bits of a slot's state word. A slot
/// not yet posted under a ticket holds an older ticket, or ticket 0
/// `EMPTY`; a case withdrawn unrun is `DROPPED`.
const EMPTY: u64 = 0;
const READY: u64 = 1;
const CLAIMED: u64 = 2;
const DONE: u64 = 3;
const DROPPED: u64 = 4;
const TAG: u64 = 7;

/// A value on cache lines of its own.
#[repr(align(128))]
struct Padded<T>(T);

/// One case's place in the [`Pool`] ring, on cache lines of its own so
/// the coordinator posting one case and a pool thread finishing the
/// next do not contend.
#[repr(align(128))]
struct Slot {
    /// `ticket << 8 | class << 3 | tag`: the ticket of the case the
    /// slot holds, its class index once `DONE`, and its state.
    state: AtomicU64,
    /// The case: MuT index and pool indices, 16 bits each.
    job: [AtomicU64; 2],
    /// The case's subsystem-fuel ledger, written only while telemetry
    /// is on.
    subsys: Mutex<SubsystemFuel>,
}

/// The explore pool: a ring of case slots the coordinator posts drawn
/// cases into, one ticket per case, and pool threads claim in ticket
/// order, run and mark done. Its threads serve the ring for every round
/// of the explore; the fixed runs before round 0 go through
/// [`campaign::claim_each`]. A claim is a compare-exchange on the slot's
/// state word, which carries the ticket and the state, so no one runs a
/// withdrawn case or the wrong one. A rollback posts the withdrawn
/// tickets again for the redrawn cases; a pool thread that has passed
/// them leaves them to the coordinator, which runs any case it finds
/// unclaimed. Pool threads spin on the ring while a round runs, because
/// a blocking hand-off costs about forty cases, and park between rounds.
struct Pool {
    runs: &'static [ResolvedMut],
    os: OsVariant,
    fuel_budget: u64,
    /// Whether telemetry was on when explore began; outcomes then carry
    /// their subsystem ledgers to the commit, which profiles them.
    observed: bool,
    slots: Box<[Slot]>,
    /// The next ticket a pool thread tries to claim, on a cache line of
    /// its own: pool threads write it on every claim, and the fields
    /// above are read on every draw and commit.
    next: Padded<AtomicU64>,
    /// Set while a round runs; pool threads park while it is clear.
    live: AtomicBool,
    stop: AtomicBool,
    /// Set when a pool thread panicked, so no one waits on it forever.
    poisoned: AtomicBool,
}

impl Pool {
    fn new(runs: &'static [ResolvedMut], os: OsVariant, fuel_budget: u64, window: usize) -> Pool {
        Pool {
            runs,
            os,
            fuel_budget,
            observed: telemetry::enabled(),
            slots: (0..window)
                .map(|_| Slot {
                    state: AtomicU64::new(EMPTY),
                    job: [AtomicU64::new(0), AtomicU64::new(0)],
                    subsys: Mutex::default(),
                })
                .collect(),
            next: Padded(AtomicU64::new(0)),
            live: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        }
    }

    fn slot(&self, ticket: u64) -> &Slot {
        &self.slots[(ticket % self.slots.len() as u64) as usize]
    }

    /// Posts case `combo` of MuT `mi` under `ticket`. The tickets of the
    /// window's cases are one run no longer than the ring, so the slot's
    /// previous case is committed or withdrawn.
    fn post(&self, ticket: u64, mi: usize, combo: &[usize]) {
        let mut digits = [0u64; MAX_ARITY];
        for (d, &c) in digits.iter_mut().zip(combo) {
            *d = c as u64;
        }
        let slot = self.slot(ticket);
        slot.job[0].store(
            mi as u64 | digits[0] << 16 | digits[1] << 32 | digits[2] << 48,
            Ordering::Relaxed,
        );
        slot.job[1].store(digits[3] | digits[4] << 16, Ordering::Relaxed);
        slot.state.store(ticket << 8 | READY, Ordering::Release);
    }

    /// Claims the posted case under `ticket` if no one has.
    fn claim(&self, ticket: u64) -> bool {
        let state = &self.slot(ticket).state;
        state.load(Ordering::Relaxed) == ticket << 8 | READY
            && state
                .compare_exchange(
                    ticket << 8 | READY,
                    ticket << 8 | CLAIMED,
                    Ordering::Acquire,
                    Ordering::Relaxed,
                )
                .is_ok()
    }

    /// Runs the claimed case under `ticket` and marks it done.
    fn run(&self, ticket: u64, exec: &mut Executor) -> Ran {
        let slot = self.slot(ticket);
        let lo = slot.job[0].load(Ordering::Relaxed);
        let hi = slot.job[1].load(Ordering::Relaxed);
        let digit = |word: u64, at: u32| (word >> at & 0xffff) as usize;
        let run = &self.runs[digit(lo, 0)];
        let combo = [
            digit(lo, 16),
            digit(lo, 32),
            digit(lo, 48),
            digit(hi, 0),
            digit(hi, 16),
        ];
        exec.session.residue = 0;
        let r = exec.runner.execute_as::<false>(
            self.os,
            &run.mut_,
            &run.pools,
            &combo[..run.pools.len()],
            &mut exec.session,
            self.fuel_budget,
        );
        let ran = Ran {
            class: class_index(r.class, r.raw),
            subsys: *exec.runner.ledger(),
        };
        if self.observed {
            *slot.subsys.lock().expect("pool slot poisoned") = ran.subsys;
        }
        slot.state.store(
            ticket << 8 | (ran.class as u64) << 3 | DONE,
            Ordering::Release,
        );
        ran
    }

    /// A done slot's outcome.
    fn done(&self, slot: &Slot, state: u64) -> Ran {
        Ran {
            class: (state >> 3 & 7) as usize,
            subsys: if self.observed {
                *slot.subsys.lock().expect("pool slot poisoned")
            } else {
                SubsystemFuel::default()
            },
        }
    }

    /// The outcome of the posted case under `ticket`, for its commit:
    /// read when a pool thread has run it, run here when no one has
    /// claimed it. While a pool thread runs it, the coordinator runs the
    /// newest unclaimed case below `posted` instead of waiting idle.
    fn take(&self, ticket: u64, posted: u64, exec: &mut Executor) -> Ran {
        let slot = self.slot(ticket);
        let mut spins = 0;
        loop {
            let state = slot.state.load(Ordering::Acquire);
            match state & TAG {
                DONE => return self.done(slot, state),
                READY if self.claim(ticket) => return self.run(ticket, exec),
                _ => {}
            }
            match (ticket + 1..posted).rev().find(|&t| self.claim(t)) {
                Some(t) => {
                    self.run(t, exec);
                }
                None => self.backoff(&mut spins),
            }
        }
    }

    /// Withdraws the posted case under `ticket` from a rolled-back draw:
    /// unclaimed, it never runs; claimed, its outcome is waited for and
    /// returned, for a redraw of the same case to reuse.
    fn abandon(&self, ticket: u64) -> Option<Ran> {
        let slot = self.slot(ticket);
        let mut spins = 0;
        loop {
            let state = slot.state.load(Ordering::Acquire);
            match state & TAG {
                READY => {
                    if slot
                        .state
                        .compare_exchange(
                            state,
                            ticket << 8 | DROPPED,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                    {
                        return None;
                    }
                }
                DONE => return Some(self.done(slot, state)),
                _ => self.backoff(&mut spins),
            }
        }
    }

    /// Spins a while, then yields the CPU; panics when a pool thread has
    /// died, since what it held will never be done.
    fn backoff(&self, spins: &mut u32) {
        assert!(
            !self.poisoned.load(Ordering::Relaxed),
            "an explore pool thread panicked"
        );
        if *spins < SPINS {
            *spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }

    /// Starts a round: pool threads stop parking.
    fn wake(&self, helpers: &[Thread]) {
        self.live.store(true, Ordering::Release);
        for h in helpers {
            h.unpark();
        }
    }

    /// A pool thread's life: posted cases until explore ends.
    fn help(&self) {
        let served = catch_unwind(AssertUnwindSafe(|| {
            let mut exec = Executor::default();
            let mut spins = 0;
            while !self.stop.load(Ordering::Acquire) {
                // Wait on the slot of the next ticket: it is posted once
                // the slot holds that ticket, and settled (run, taken by
                // the coordinator or dropped) once it holds a later one or
                // a state past `READY`.
                let next = self.next.0.load(Ordering::Relaxed);
                let state = self.slot(next).state.load(Ordering::Acquire);
                let posted = state >> 8 > next || (state >> 8 == next && state & TAG != EMPTY);
                if !posted {
                    if self.live.load(Ordering::Acquire) {
                        self.backoff(&mut spins);
                    } else {
                        std::thread::park();
                    }
                } else if self
                    .next
                    .0
                    .compare_exchange_weak(next, next + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                    && self.claim(next)
                {
                    self.run(next, &mut exec);
                    spins = 0;
                }
            }
        }));
        if served.is_err() {
            self.poisoned.store(true, Ordering::Release);
        }
    }
}

/// Ends the pool threads when the coordinator leaves the scope, also by
/// a panic, so the scope's join never waits on a spinning thread.
struct StopOnDrop<'p> {
    pool: &'p Pool,
    helpers: &'p [Thread],
}

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.pool.stop.store(true, Ordering::Release);
        for h in self.helpers {
            h.unpark();
        }
    }
}

type PinKey = (String, usize, u64, usize, u64, u64);

fn pin_cache() -> &'static Mutex<BTreeMap<PinKey, Arc<PinnedPlan>>> {
    static CACHE: OnceLock<Mutex<BTreeMap<PinKey, Arc<PinnedPlan>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// [`explore`] through a process-wide memo keyed by everything the
/// pinned plan depends on: `(variant, cap, effective fuel budget,
/// rounds, seed, rare bonus)`. The explore phase runs **once** per key
/// per process; every engine (and every fleet worker, in its own
/// process) re-derives the identical plan from the same key.
#[must_use]
pub fn pinned_plan_shared(
    os: OsVariant,
    cfg: &CampaignConfig,
    acfg: &AdaptiveConfig,
) -> Arc<PinnedPlan> {
    let key: PinKey = (
        os.short_name().to_owned(),
        cfg.cap,
        cfg.effective_fuel_budget(),
        acfg.effective_rounds(),
        acfg.seed,
        acfg.effective_rare_bonus(),
    );
    if let Some(plan) = pin_cache().lock().expect("pin cache poisoned").get(&key) {
        return Arc::clone(plan);
    }
    // Explore outside the lock: it executes real cases and can take a
    // while; a concurrent explorer computes the identical plan, so the
    // race is benign (last insert wins, both Arcs are equal).
    let plan = Arc::new(explore(os, cfg, acfg));
    pin_cache()
        .lock()
        .expect("pin cache poisoned")
        .insert(key, Arc::clone(&plan));
    plan
}

/// The adaptive-mode campaign fingerprint: the classic plan fingerprint
/// with the `adaptive/1` mode tag and the adaptive knobs folded in
/// front, mirroring `crashcon/1`. The pinned plan itself is **not**
/// hashed — it is a pure function of everything already folded (see the
/// module docs), so the tag form is both cheap (no explore needed to
/// address a campaign) and exact.
#[must_use]
pub fn fingerprint_adaptive(
    os: OsVariant,
    cfg: &CampaignConfig,
    acfg: &AdaptiveConfig,
) -> CampaignFingerprint {
    Mode::Adaptive(*acfg).fingerprint(os, cfg)
}

/// Runs an adaptive campaign through the in-process engine (serial or
/// parallel per [`CampaignConfig::parallelism`], like
/// [`campaign::run_campaign`]): derives (or reuses) the pinned plan,
/// then replays it — tallies are bit-identical across both paths and
/// the journaled/fleet runners below.
///
/// # Example
///
/// ```
/// use ballista::adaptive::{run_adaptive, AdaptiveConfig};
/// use ballista::campaign::CampaignConfig;
/// use sim_kernel::variant::OsVariant;
///
/// let cfg = CampaignConfig { cap: 40, parallelism: 1, ..CampaignConfig::default() };
/// let acfg = AdaptiveConfig { rounds: 2, ..AdaptiveConfig::default() };
/// let report = run_adaptive(OsVariant::Linux, &cfg, &acfg);
/// assert!(report.total_cases > 0);
/// ```
#[must_use]
pub fn run_adaptive(os: OsVariant, cfg: &CampaignConfig, acfg: &AdaptiveConfig) -> CampaignReport {
    campaign::run_mode(Mode::Adaptive(*acfg), os, cfg)
}

/// Journaled adaptive campaign: identical write-ahead/resume semantics
/// to [`campaign::run_campaign_journaled`], with the journal header
/// stamped by the **adaptive** fingerprint — an adaptive journal can
/// never be resumed by a classic campaign or vice versa.
///
/// # Errors
///
/// Propagates journal I/O failures, like the classic journaled engine.
pub fn run_adaptive_journaled(
    os: OsVariant,
    cfg: &CampaignConfig,
    acfg: &AdaptiveConfig,
    journal_path: &Path,
    resume: bool,
) -> std::io::Result<CampaignReport> {
    campaign::run_journaled(Mode::Adaptive(*acfg), os, cfg, journal_path, resume)
}

/// Adaptive campaign on the supervised fleet: the same shard dispatch,
/// supervision, and degradation machinery as
/// [`crate::fleet::run_campaign_fleet`], with every shard executing the
/// pinned plan (workers re-derive it deterministically from the knobs
/// in their [`crate::fleet::ShardSpec`]). Tallies are bit-identical to
/// [`run_adaptive`] on every shard/worker split.
#[must_use]
pub fn run_adaptive_fleet(
    os: OsVariant,
    cfg: &CampaignConfig,
    acfg: &AdaptiveConfig,
    fleet: &crate::fleet::FleetConfig,
) -> CampaignReport {
    crate::fleet::run_fleet_engine(Mode::Adaptive(*acfg), os, cfg, fleet, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cfg(cap: usize) -> CampaignConfig {
        CampaignConfig {
            cap,
            record_raw: false,
            isolation_probe: false,
            perfect_cleanup: false,
            parallelism: 1,
            fuel_budget: 0,
        }
    }

    #[test]
    fn explore_is_deterministic_and_budget_exact() {
        let c = cfg(60);
        let a = explore(OsVariant::Win95, &c, &AdaptiveConfig::default());
        let b = explore(OsVariant::Win95, &c, &AdaptiveConfig::default());
        assert_eq!(a.digest(), b.digest(), "same knobs ⇒ same pin");
        // Equal budget: every MuT pins exactly its fixed planned count.
        let registry = catalog::registry_for(OsVariant::Win95);
        let muts = catalog::catalog_for(OsVariant::Win95);
        for (m, pm) in muts.iter().zip(&a.muts) {
            assert_eq!(m.name, pm.name, "catalog order preserved");
            let fixed = campaign::plan_of(m, &campaign::resolve_pools(&registry, m), c.cap);
            assert_eq!(
                pm.plan.len(),
                fixed.len(),
                "{}: adaptive budget must equal the fixed plan's",
                m.name
            );
        }
        // The explore ledger is consistent: crash re-draws can push the
        // executed count past the pinned budget (bounded by one extra
        // budget per MuT), fixed-MuT crash skips can pull it below.
        assert!(a.explore_cases > 0 && a.explore_cases <= 2 * a.pinned_cases());
        assert_eq!(
            a.explore_cases,
            a.rounds.iter().map(|r| r.explored_cases).sum::<u64>()
        );
        assert_eq!(a.rounds.len(), AdaptiveConfig::default().effective_rounds());
        // A different seed pins a different plan.
        let other = explore(
            OsVariant::Win95,
            &c,
            &AdaptiveConfig {
                seed: 7,
                ..AdaptiveConfig::default()
            },
        );
        assert_ne!(a.digest(), other.digest());
    }

    #[test]
    fn check_bounds_accepts_the_maxima_and_rejects_beyond() {
        let at = |rounds, rare_bonus| AdaptiveConfig {
            rounds,
            seed: u64::MAX,
            rare_bonus,
        };
        assert!(AdaptiveConfig::default().check_bounds().is_ok());
        assert!(at(MAX_ROUNDS, MAX_RARE_BONUS).check_bounds().is_ok());
        assert!(at(MAX_ROUNDS + 1, 0).check_bounds().is_err());
        assert!(at(0, MAX_RARE_BONUS + 1).check_bounds().is_err());
        // The bound keeps every weight sum in range: a whole pool of
        // rare, untouched values.
        assert!(weight(0, true, MAX_RARE_BONUS)
            .checked_mul(1 << 31)
            .is_some());
    }

    #[test]
    fn pinned_cases_are_distinct_per_mut() {
        let pin = explore(OsVariant::Win98, &cfg(50), &AdaptiveConfig::default());
        for pm in &pin.muts {
            let distinct: HashSet<u64> = (0..pm.plan.len()).map(|i| pm.plan.linear(i)).collect();
            assert_eq!(distinct.len(), pm.plan.len(), "{}", pm.name);
        }
    }

    #[test]
    fn adaptive_fingerprint_is_mode_and_knob_distinct() {
        let c = cfg(100);
        let classic = campaign::fingerprint(OsVariant::Win95, &c);
        let adaptive = fingerprint_adaptive(OsVariant::Win95, &c, &AdaptiveConfig::default());
        assert_ne!(classic, adaptive, "mode tag separates the address spaces");
        let reseeded = fingerprint_adaptive(
            OsVariant::Win95,
            &c,
            &AdaptiveConfig {
                seed: 1,
                ..AdaptiveConfig::default()
            },
        );
        assert_ne!(adaptive, reseeded);
        // Effective-default equivalence: explicit defaults hash the same.
        let explicit = fingerprint_adaptive(
            OsVariant::Win95,
            &c,
            &AdaptiveConfig {
                rounds: DEFAULT_ROUNDS,
                seed: 0,
                rare_bonus: DEFAULT_RARE_BONUS,
            },
        );
        assert_eq!(adaptive, explicit);
    }

    #[test]
    fn deferred_crashes_extend_the_executed_prefix() {
        // GetThreadContext on win95 crashes under the fixed plan well
        // before its cap; the adaptive pin defers residue-zero crash
        // cases to the tail, so its executed prefix must be at least as
        // long.
        let c = cfg(120);
        let fixed = campaign::run_campaign(OsVariant::Win95, &c);
        let adapt = run_adaptive(OsVariant::Win95, &c, &AdaptiveConfig::default());
        let f = fixed
            .muts
            .iter()
            .find(|t| t.name == "GetThreadContext")
            .expect("in catalog");
        let a = adapt
            .muts
            .iter()
            .find(|t| t.name == "GetThreadContext")
            .expect("in catalog");
        assert!(f.catastrophic && a.catastrophic);
        assert!(
            a.cases >= f.cases,
            "deferral must not shorten the executed prefix: {} < {}",
            a.cases,
            f.cases
        );
    }
}
