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
//!    explicit per-MuT [`CaseSet`]. Pinning is what keeps replay
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

use crate::campaign::{self, prepare, CampaignConfig, CampaignFingerprint, CampaignReport, Mode};
use crate::catalog;
use crate::coverage::{class_index, Coverage, CLASS_LABELS};
use crate::crash::FailureClass;
use crate::exec::{CaseRunner, Session};
use crate::journal::PlanHasher;
use crate::muts::Mut;
use crate::sampling::{self, CaseSet, Combo};
use crate::telemetry;
use crate::value::TestValue;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use sim_kernel::variant::OsVariant;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
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
    pub plan: Arc<CaseSet>,
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
        self.muts.iter().map(|m| m.plan.cases.len() as u64).sum()
    }

    /// Stable FNV-1a digest of the full pinned case list — what the
    /// determinism tests compare across processes and engines.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = PlanHasher::new();
        h.write_str(self.os.short_name());
        for m in &self.muts {
            h.write_str(&m.name);
            h.write_u64(m.plan.cases.len() as u64);
            for combo in &m.plan.cases {
                h.write_u64(sampling::encode(combo, &m.plan.dims));
            }
        }
        h.finish()
    }

    /// The pinned plans keyed by MuT name — the shape
    /// [`Coverage::from_report_with_plans`] consumes.
    #[must_use]
    pub fn plans_by_name(&self) -> BTreeMap<String, Arc<CaseSet>> {
        self.muts
            .iter()
            .map(|m| (m.name.clone(), Arc::clone(&m.plan)))
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
    /// Cases each value took part in.
    touches: Vec<u64>,
    /// Values that took part in a Silent, Restart or Catastrophic case.
    rare: Vec<bool>,
    /// Each value's draw weight, kept equal to [`weight`] of its touch
    /// count and rare flag on every touch, so a draw reads it as is.
    weights: Vec<u64>,
}

impl TypeFeedback {
    /// The index of `ty`'s table in `tables`, appending a fresh table
    /// (every value untouched) the first time the type is seen.
    fn id_of(tables: &mut Vec<TypeFeedback>, ty: &'static str, pool_len: usize) -> usize {
        if let Some(id) = tables.iter().position(|t| t.ty == ty) {
            assert_eq!(
                tables[id].weights.len(),
                pool_len,
                "{ty}: one pool per type"
            );
            return id;
        }
        tables.push(TypeFeedback {
            ty,
            touches: vec![0; pool_len],
            rare: vec![false; pool_len],
            weights: vec![weight(0, false, 0); pool_len],
        });
        tables.len() - 1
    }

    /// Records that value `idx` took part in one case (a `rare` one if
    /// its outcome was Silent, Restart or Catastrophic) and refreshes
    /// its weight. Returns `true` on the value's first touch.
    fn touch(&mut self, idx: usize, rare: bool, rare_bonus: u64) -> bool {
        let first = self.touches[idx] == 0;
        self.touches[idx] += 1;
        self.rare[idx] |= rare;
        self.weights[idx] = weight(self.touches[idx], self.rare[idx], rare_bonus);
        first
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

/// Per-MuT explorer state.
struct MutState<'a> {
    mut_: &'a Mut,
    pools: Vec<Vec<TestValue>>,
    /// Index into the explorer's [`TypeFeedback`] tables, per parameter.
    type_ids: Vec<usize>,
    dims: Vec<usize>,
    /// The fixed plan (budget source; pinned verbatim for `fixed` MuTs).
    fixed_plan: Arc<CaseSet>,
    /// `true` when the fixed plan is exhaustive (or the MuT takes no
    /// parameters): there is nothing to steer, the pin *is* the plan.
    fixed: bool,
    pinned: Vec<Combo>,
    deferred: Vec<Combo>,
    taken: HashSet<u64>,
    /// Total combinations (pre-computed; steerable MuTs only need it).
    total: u64,
    /// Crash draws executed but re-drawn rather than pinned. Bounded by
    /// the budget (and by combination-space headroom), so exploration
    /// terminates even on crash-dense MuTs.
    discards: usize,
    /// Progress cursor for `fixed` MuTs (index into `fixed_plan.cases`).
    cursor: usize,
    /// `true` once a `fixed` MuT crashed at residue zero — remaining
    /// cases are skipped (replay will stop at the same point anyway).
    fixed_crashed: bool,
    /// Primary outcome classes observed so far, one bit per
    /// [`CLASS_LABELS`] index.
    classes_seen: u8,
    new_class_this_round: bool,
    new_class_last_round: bool,
}

impl MutState<'_> {
    fn budget(&self) -> usize {
        self.fixed_plan.cases.len()
    }

    fn spent(&self) -> usize {
        if self.fixed {
            self.cursor
        } else {
            self.pinned.len() + self.deferred.len()
        }
    }

    fn remaining(&self) -> usize {
        if self.fixed && self.fixed_crashed {
            0
        } else {
            self.budget() - self.spent()
        }
    }
}

/// Runs the explore phase and pins the result. Deterministic: same
/// `(os, cfg.cap, cfg fuel budget, acfg)` ⇒ identical [`PinnedPlan`]
/// (same digest, same order), on every host. Exploration executes
/// `Σ planned` cases at residue zero — the same per-MuT budget the
/// pinned plan will spend again at replay.
///
/// Prefer [`pinned_plan_shared`], which memoizes per process.
#[must_use]
pub fn explore(os: OsVariant, cfg: &CampaignConfig, acfg: &AdaptiveConfig) -> PinnedPlan {
    let registry = catalog::registry_for(os);
    let muts = catalog::catalog_for(os);
    let rounds_n = acfg.effective_rounds();
    let rare_bonus = acfg.effective_rare_bonus();
    let fuel_budget = cfg.effective_fuel_budget();

    // One feedback table per parameter type, numbered in order of first
    // appearance in the catalog.
    let mut feedback: Vec<TypeFeedback> = Vec::new();
    let mut states: Vec<MutState<'_>> = muts
        .iter()
        .map(|m| {
            let prep = prepare(&registry, m, cfg);
            let fixed = prep.plan.exhaustive || prep.pools.is_empty();
            let dims: Vec<usize> = prep.pools.iter().map(Vec::len).collect();
            let total = sampling::combination_count(&dims);
            let type_ids = m
                .params
                .iter()
                .zip(&dims)
                .map(|(&ty, &len)| TypeFeedback::id_of(&mut feedback, ty, len))
                .collect();
            MutState {
                mut_: m,
                pools: prep.pools,
                type_ids,
                dims,
                fixed_plan: prep.plan,
                fixed,
                pinned: Vec::new(),
                deferred: Vec::new(),
                taken: HashSet::new(),
                total,
                discards: 0,
                cursor: 0,
                fixed_crashed: false,
                classes_seen: 0,
                new_class_this_round: false,
                new_class_last_round: false,
            }
        })
        .collect();

    // One RNG stream for the whole explore: the draw sequence depends
    // only on (tag, variant, seed) and the deterministic outcomes that
    // shape the weights.
    let mut rng = StdRng::seed_from_u64(sampling::seed_from_name(&format!(
        "{MODE_TAG}/{}/{}",
        os.short_name(),
        acfg.seed
    )));
    let rare_class = CLASS_LABELS.map(|l| matches!(l, "Silent" | "Restart" | "Catastrophic"));
    // Case counts per class this round, folded into `cov` at its end.
    let mut class_counts = [0u64; CLASS_LABELS.len()];
    let mut cov = Coverage::default();
    let mut session = Session::new();
    let mut runner = CaseRunner::new();
    let mut rounds = Vec::with_capacity(rounds_n);
    let mut explore_cases = 0u64;

    for round in 0..rounds_n {
        let snapshot = cov.clone();
        let remaining_rounds = rounds_n - round;
        let mut explored_this_round = 0u64;
        for st in &mut states {
            let remaining = st.remaining();
            if remaining == 0 {
                continue;
            }
            // Quota: an even share of what's left, doubled while the
            // MuT's class distribution is still moving. The final round
            // has quota == remaining, so the budget always completes.
            let mut quota = remaining.div_ceil(remaining_rounds);
            if st.new_class_last_round {
                quota = (quota * 2).min(remaining);
            }
            let mut progress = 0;
            while progress < quota {
                let combo = if st.fixed {
                    let c = st.fixed_plan.cases[st.cursor].clone();
                    st.cursor += 1;
                    c
                } else {
                    draw_combo(&mut rng, st, &feedback)
                };
                session.residue = 0;
                let result =
                    runner.execute(os, st.mut_, &st.pools, &combo, &mut session, fuel_budget);
                explore_cases += 1;
                explored_this_round += 1;
                let class = class_index(result.class, result.raw);
                for ((&id, pool), &idx) in st.type_ids.iter().zip(&st.pools).zip(&combo) {
                    let fb = &mut feedback[id];
                    // Coverage only needs a value's first touch: later
                    // touches of it change nothing there.
                    if fb.touch(idx, rare_class[class], rare_bonus) {
                        cov.touch_value(fb.ty, pool[idx].name, pool.len() as u64);
                    }
                }
                class_counts[class] += 1;
                if st.classes_seen & (1 << class) == 0 {
                    st.classes_seen |= 1 << class;
                    st.new_class_this_round = true;
                }
                if st.fixed {
                    progress += 1;
                    if result.class == FailureClass::Catastrophic {
                        // Replay stops here too; skip the unreachable rest.
                        st.fixed_crashed = true;
                        break;
                    }
                } else {
                    st.taken.insert(sampling::encode(&combo, &st.dims));
                    if result.class == FailureClass::Catastrophic {
                        // Keep the first crash (pinned last, so replay
                        // still reports the MuT Catastrophic); re-draw
                        // later ones — anything pinned after the first
                        // crash would never execute at replay. Guards:
                        // the discard budget bounds exploration, and the
                        // headroom check keeps enough free combinations
                        // to fill the remaining pins.
                        let free = st.total - st.taken.len() as u64;
                        let remaining_pins = (st.budget() - st.spent()) as u64;
                        if !st.deferred.is_empty()
                            && st.discards < st.budget()
                            && free >= remaining_pins
                        {
                            st.discards += 1;
                            continue;
                        }
                        st.deferred.push(combo);
                    } else {
                        st.pinned.push(combo);
                    }
                    progress += 1;
                }
            }
        }
        for st in &mut states {
            st.new_class_last_round = st.new_class_this_round;
            st.new_class_this_round = false;
        }
        for (label, n) in CLASS_LABELS.iter().zip(&mut class_counts) {
            cov.observe_class(label, std::mem::take(n));
        }
        let gain = cov.gain_since(&snapshot);
        telemetry::on_adaptive_round(gain.new_values);
        rounds.push(RoundStats {
            round,
            explored_cases: explored_this_round,
            new_values: gain.new_values,
            new_classes: gain.new_classes,
        });
    }

    let muts_pinned: Vec<PinnedMut> = states
        .into_iter()
        .map(|st| {
            let plan = if st.fixed {
                Arc::clone(&st.fixed_plan)
            } else {
                let mut cases = st.pinned;
                cases.extend(st.deferred);
                debug_assert_eq!(cases.len(), st.fixed_plan.cases.len());
                Arc::new(CaseSet {
                    dims: st.dims,
                    cases,
                    exhaustive: false,
                })
            };
            PinnedMut {
                name: st.mut_.name.to_owned(),
                plan,
            }
        })
        .collect();
    let plan = PinnedPlan {
        os,
        muts: muts_pinned,
        rounds,
        explore_cases,
        explore_coverage: cov,
    };
    telemetry::on_adaptive_pinned(plan.pinned_cases());
    plan
}

/// Draws one not-yet-taken combination for a steerable MuT: per
/// parameter, a draw by the current [`weight`]s of the parameter type's
/// pool. Collisions with already-pinned cases retry a few times, then
/// fall back to a linear probe. The probe always lands: combinations
/// strictly exceed the budget for steerable MuTs (else the plan would be
/// exhaustive), and the explorer's crash-discard guard never takes a
/// combination unless enough free ones remain to fill every outstanding
/// pin.
fn draw_combo(rng: &mut StdRng, st: &MutState<'_>, feedback: &[TypeFeedback]) -> Combo {
    for attempt in 0..=DRAW_RETRIES {
        let combo: Combo = st
            .type_ids
            .iter()
            .map(|&id| sampling::weighted_index(rng, &feedback[id].weights))
            .collect();
        let linear = sampling::encode(&combo, &st.dims);
        if !st.taken.contains(&linear) {
            return combo;
        }
        if attempt == DRAW_RETRIES {
            // Weighted retries keep colliding (the hot region is dense):
            // walk linearly from the collision until a free slot.
            let mut probe = linear;
            loop {
                probe = (probe + 1) % st.total;
                if !st.taken.contains(&probe) {
                    return sampling::decode(probe, &st.dims);
                }
            }
        }
    }
    unreachable!("draw loop returns from its last attempt");
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
            let fixed = prepare(&registry, m, &c);
            assert_eq!(
                pm.plan.cases.len(),
                fixed.plan.cases.len(),
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
            let distinct: HashSet<u64> = pm
                .plan
                .cases
                .iter()
                .map(|c| sampling::encode(c, &pm.plan.dims))
                .collect();
            assert_eq!(distinct.len(), pm.plan.cases.len(), "{}", pm.name);
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
