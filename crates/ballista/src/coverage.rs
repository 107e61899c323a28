//! Coverage accounting for campaign runs.
//!
//! A campaign's tallies say *what happened*; this module says *what was
//! exercised*: which catalog MuTs ran (and whether their full sampling
//! plan completed), which parameter pools and individual test values were
//! actually drawn, and which CRASH outcome classes were observed. The
//! paper's comparative claims rest on every variant seeing the same
//! stimulus — coverage accounting makes "the same stimulus" a measured,
//! regression-checked quantity instead of an assumption (cf. the
//! coverage-level-guided black-box work, arXiv:2112.15485).
//!
//! [`Coverage`] is reconstructed from a [`CampaignReport`] plus the
//! deterministic sampling plans (no extra instrumentation in the hot
//! path), merged across variants or workers with order-independent
//! semantics, and checked against a [`CoverageFloor`] so a future change
//! that silently shrinks the exercised surface fails the conformance
//! gate instead of shipping.

use crate::campaign::{CampaignConfig, CampaignReport, MutTally};
use crate::catalog;
use crate::crash::{FailureClass, RawOutcome};
use crate::sampling::{self, CaseSet};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Labels for the outcome-class counters, in severity order. `ErrorReport`
/// is the robust-error column (not a CRASH failure); `SuspectedHindering`
/// is its cried-wolf subset and is excluded from the per-case sum.
pub const CLASS_LABELS: [&str; 6] = [
    "Catastrophic",
    "Restart",
    "Abort",
    "Silent",
    "ErrorReport",
    "Pass",
];

/// Coverage of one MuT's sampling plan.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MutCoverage {
    /// Cases the sampling plan(s) scheduled for this MuT.
    pub planned: u64,
    /// Cases actually executed (a Catastrophic failure truncates a MuT's
    /// plan — the paper: "the set of test cases run for that function is
    /// incomplete").
    pub executed: u64,
    /// Variants on which this MuT ran.
    pub variants: BTreeSet<String>,
}

/// Coverage of one parameter pool (keyed by data-type name).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolCoverage {
    /// Names of the test values actually drawn at least once.
    pub touched: BTreeSet<String>,
    /// Pool size (distinct values registered for the type; the max across
    /// merged worlds when registries disagree).
    pub size: u64,
}

/// What a run (or a merged set of runs) exercised.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Coverage {
    /// Variants contributing to this coverage map.
    pub variants: BTreeSet<String>,
    /// Per-MuT plan coverage, keyed by MuT name.
    pub muts: BTreeMap<String, MutCoverage>,
    /// Per-pool value coverage, keyed by data-type name.
    pub pools: BTreeMap<String, PoolCoverage>,
    /// Observed CRASH-class case counts, keyed by [`CLASS_LABELS`] (plus
    /// `SuspectedHindering`, a subset of `ErrorReport`).
    pub classes: BTreeMap<String, u64>,
    /// Total planned cases across MuTs.
    pub planned_cases: u64,
    /// Total executed cases across MuTs.
    pub executed_cases: u64,
}

/// The [`CLASS_LABELS`] index one case result folds into — the exact
/// mapping the engines' tally fold uses: `Hindering` and a `Pass` whose
/// raw outcome was a reported error both land in the robust-error
/// column, everything else keeps its class name.
#[must_use]
pub fn class_index(class: FailureClass, raw: RawOutcome) -> usize {
    match class {
        FailureClass::Catastrophic => 0,
        FailureClass::Restart => 1,
        FailureClass::Abort => 2,
        FailureClass::Silent => 3,
        FailureClass::Hindering => 4,
        FailureClass::Pass => {
            if raw == RawOutcome::ReturnedError {
                4
            } else {
                5
            }
        }
    }
}

/// Coverage gained between two [`Coverage`] snapshots — the per-round
/// feedback signal of the adaptive explorer and the y-axis of the
/// coverage curve in `results/adaptive_<os>.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct CoverageGain {
    /// Pool values touched now that were untouched before.
    pub new_values: u64,
    /// Primary outcome classes observed now that were unobserved before.
    pub new_classes: u64,
}

impl Coverage {
    /// Reconstructs what `report` exercised. The sampling plans are
    /// deterministic (seeded from MuT names), so the executed prefix of
    /// each plan — `tally.cases` combos — identifies exactly which pool
    /// values every case drew, with no hot-path instrumentation.
    #[must_use]
    pub fn from_report(report: &CampaignReport, cfg: &CampaignConfig) -> Self {
        Self::from_report_inner(report, cfg, None)
    }

    /// [`Coverage::from_report`] for a report executed under **explicit
    /// plans** (e.g. an adaptive campaign's pinned plan, keyed by MuT
    /// name) instead of the fixed name-seeded samples. A MuT missing
    /// from `plans` falls back to its fixed plan, so a partially pinned
    /// catalog still reconstructs.
    #[must_use]
    pub fn from_report_with_plans(
        report: &CampaignReport,
        cfg: &CampaignConfig,
        plans: &BTreeMap<String, Arc<CaseSet>>,
    ) -> Self {
        Self::from_report_inner(report, cfg, Some(plans))
    }

    fn from_report_inner(
        report: &CampaignReport,
        cfg: &CampaignConfig,
        plans: Option<&BTreeMap<String, Arc<CaseSet>>>,
    ) -> Self {
        let registry = catalog::registry_for(report.os);
        let muts = catalog::catalog_for(report.os);
        let mut cov = Coverage::default();
        let variant = report.os.short_name().to_owned();
        cov.variants.insert(variant.clone());
        for tally in &report.muts {
            let Some(mut_) = muts.iter().find(|m| m.name == tally.name) else {
                continue; // foreign tally (not in this variant's catalog)
            };
            let pools = crate::campaign::resolve_pools(&registry, mut_);
            let pinned = plans.and_then(|p| p.get(&tally.name)).cloned();
            let plan = match pinned {
                Some(plan) => plan,
                None if pools.is_empty() => Arc::new(sampling::single_case()),
                None => {
                    let dims: Vec<usize> = pools.iter().map(Vec::len).collect();
                    sampling::enumerate_shared(&dims, cfg.cap, mut_.name)
                }
            };
            let entry = cov.muts.entry(tally.name.clone()).or_default();
            entry.planned += tally.planned as u64;
            entry.executed += tally.cases as u64;
            entry.variants.insert(variant.clone());
            cov.planned_cases += tally.planned as u64;
            cov.executed_cases += tally.cases as u64;
            for (ty, pool) in mut_.params.iter().zip(&pools) {
                let slot = cov.pools.entry((*ty).to_owned()).or_default();
                slot.size = slot.size.max(pool.len() as u64);
            }
            for combo in plan.cases.iter().take(tally.cases) {
                for ((ty, pool), &idx) in mut_.params.iter().zip(&pools).zip(combo) {
                    let slot = cov.pools.entry((*ty).to_owned()).or_default();
                    slot.touched.insert(pool[idx].name.to_owned());
                }
            }
            cov.fold_classes(tally);
        }
        cov
    }

    /// Folds one tally's outcome-class counts in.
    fn fold_classes(&mut self, tally: &MutTally) {
        let mut add = |label: &str, n: u64| {
            if n > 0 {
                *self.classes.entry(label.to_owned()).or_default() += n;
            }
        };
        add("Catastrophic", u64::from(tally.catastrophic));
        add("Restart", tally.restarts as u64);
        add("Abort", tally.aborts as u64);
        add("Silent", tally.silents as u64);
        add("ErrorReport", tally.error_reports as u64);
        add("Pass", tally.passes as u64);
        add("SuspectedHindering", tally.suspected_hindering as u64);
    }

    /// Merges another coverage map in. Counts add, sets union, pool sizes
    /// take the max — every operation is commutative and associative, so
    /// per-worker (or per-variant) maps merge to the same totals **in any
    /// order** (asserted by `tests/coverage_merge.rs`).
    pub fn merge(&mut self, other: &Coverage) {
        self.variants.extend(other.variants.iter().cloned());
        for (name, mc) in &other.muts {
            let entry = self.muts.entry(name.clone()).or_default();
            entry.planned += mc.planned;
            entry.executed += mc.executed;
            entry.variants.extend(mc.variants.iter().cloned());
        }
        for (ty, pc) in &other.pools {
            let entry = self.pools.entry(ty.clone()).or_default();
            entry.touched.extend(pc.touched.iter().cloned());
            entry.size = entry.size.max(pc.size);
        }
        for (label, n) in &other.classes {
            *self.classes.entry(label.clone()).or_default() += n;
        }
        self.planned_cases += other.planned_cases;
        self.executed_cases += other.executed_cases;
    }

    /// Records one pool-value draw incrementally — the explore-phase
    /// path, where coverage is observed case by case instead of being
    /// reconstructed from a finished report. `pool_size` keeps the
    /// denominator honest on first touch (sizes take the max, like
    /// [`Coverage::merge`]).
    pub fn touch_value(&mut self, ty: &str, value: &str, pool_size: u64) {
        let slot = self.pools.entry(ty.to_owned()).or_default();
        slot.size = slot.size.max(pool_size);
        if !slot.touched.contains(value) {
            slot.touched.insert(value.to_owned());
        }
    }

    /// Records `n` cases of one observed outcome class (a
    /// [`CLASS_LABELS`] entry, see [`class_index`]). `n == 0` records
    /// nothing, so the map never holds a zero count.
    pub fn observe_class(&mut self, label: &str, n: u64) {
        if n > 0 {
            *self.classes.entry(label.to_owned()).or_default() += n;
        }
    }

    /// What this snapshot covers that `prev` did not: the incremental
    /// coverage-gain metric the adaptive explorer folds back into its
    /// sampling weights after every round. `prev` must be an earlier
    /// snapshot of the same growing map (gain is counted, not negative
    /// drift — a value in `prev` but not in `self` contributes nothing).
    #[must_use]
    pub fn gain_since(&self, prev: &Coverage) -> CoverageGain {
        let new_values = self
            .pools
            .iter()
            .map(|(ty, pc)| match prev.pools.get(ty) {
                Some(old) => pc.touched.difference(&old.touched).count() as u64,
                None => pc.touched.len() as u64,
            })
            .sum();
        let new_classes = CLASS_LABELS
            .iter()
            .filter(|l| {
                self.classes.get(**l).copied().unwrap_or(0) > 0
                    && prev.classes.get(**l).copied().unwrap_or(0) == 0
            })
            .count() as u64;
        CoverageGain {
            new_values,
            new_classes,
        }
    }

    /// Distinct test values drawn at least once, across all pools.
    #[must_use]
    pub fn values_touched(&self) -> u64 {
        self.pools.values().map(|p| p.touched.len() as u64).sum()
    }

    /// Total registered values across all pools (merged-world sizes).
    #[must_use]
    pub fn values_total(&self) -> u64 {
        self.pools.values().map(|p| p.size).sum()
    }

    /// Fraction of registered values drawn at least once (1.0 when no
    /// pools are registered).
    #[must_use]
    pub fn value_fraction(&self) -> f64 {
        let total = self.values_total();
        if total == 0 {
            1.0
        } else {
            self.values_touched() as f64 / total as f64
        }
    }

    /// Primary outcome classes observed (of [`CLASS_LABELS`]).
    #[must_use]
    pub fn classes_observed(&self) -> u64 {
        CLASS_LABELS
            .iter()
            .filter(|l| self.classes.get(**l).copied().unwrap_or(0) > 0)
            .count() as u64
    }

    /// MuTs with at least one executed case.
    #[must_use]
    pub fn muts_exercised(&self) -> u64 {
        self.muts.values().filter(|m| m.executed > 0).count() as u64
    }

    /// Checks this coverage against a floor; returns one human-readable
    /// shortfall per violated dimension (empty ⇒ the floor holds).
    #[must_use]
    pub fn check_floor(&self, floor: &CoverageFloor) -> Vec<String> {
        let mut shortfalls = Vec::new();
        let mut need = |label: &str, got: u64, min: u64| {
            if got < min {
                shortfalls.push(format!("{label}: {got} < floor {min}"));
            }
        };
        need("MuTs exercised", self.muts_exercised(), floor.min_muts);
        need("executed cases", self.executed_cases, floor.min_executed_cases);
        need("pools drawn from", self.pools.len() as u64, floor.min_pools);
        need("outcome classes", self.classes_observed(), floor.min_classes);
        if self.value_fraction() < floor.min_value_fraction {
            shortfalls.push(format!(
                "value coverage: {:.3} < floor {:.3} ({} of {} pool values drawn)",
                self.value_fraction(),
                floor.min_value_fraction,
                self.values_touched(),
                self.values_total()
            ));
        }
        shortfalls
    }
}

/// The checked-in minimum a conformance run must exercise. Regenerating
/// the golden corpus does **not** touch the floor — it is hand-set below
/// the measured coverage so only a real regression (a vanished catalog
/// entry, a pool that stopped being drawn, a class that stopped firing)
/// trips it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageFloor {
    /// Minimum distinct MuTs with at least one executed case.
    pub min_muts: u64,
    /// Minimum total executed cases.
    pub min_executed_cases: u64,
    /// Minimum distinct parameter pools drawn from.
    pub min_pools: u64,
    /// Minimum primary outcome classes observed (max 6).
    pub min_classes: u64,
    /// Minimum fraction of registered pool values drawn at least once.
    pub min_value_fraction: f64,
}

impl Default for CoverageFloor {
    /// A permissive floor (anything non-empty passes); conformance runs
    /// load the checked-in floor from `results/golden/coverage_floor.json`.
    fn default() -> Self {
        CoverageFloor {
            min_muts: 1,
            min_executed_cases: 1,
            min_pools: 1,
            min_classes: 1,
            min_value_fraction: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use sim_kernel::variant::OsVariant;

    fn small_cfg() -> CampaignConfig {
        CampaignConfig {
            cap: 30,
            record_raw: false,
            isolation_probe: false,
            perfect_cleanup: false,
            parallelism: 1,
            fuel_budget: 0,
        }
    }

    #[test]
    fn coverage_accounts_a_real_campaign() {
        let cfg = small_cfg();
        let report = run_campaign(OsVariant::Win98, &cfg);
        let cov = Coverage::from_report(&report, &cfg);
        assert_eq!(cov.executed_cases, report.total_cases as u64);
        assert_eq!(cov.muts.len(), report.muts.len());
        assert!(cov.muts_exercised() > 0);
        assert!(cov.pools.len() > 5, "win32 catalog draws from many pools");
        assert!(cov.values_touched() <= cov.values_total());
        assert!(cov.value_fraction() > 0.5, "cap 30 already draws most values");
        // Win98 at any cap observes crashes, aborts, passes and errors.
        for class in ["Catastrophic", "Abort", "Pass", "ErrorReport"] {
            assert!(
                cov.classes.get(class).copied().unwrap_or(0) > 0,
                "{class} expected at cap 30 on win98: {:?}",
                cov.classes
            );
        }
        // Executed classes sum back to the executed case count
        // (SuspectedHindering is a subset of ErrorReport, not a class).
        let sum: u64 = CLASS_LABELS
            .iter()
            .map(|l| cov.classes.get(*l).copied().unwrap_or(0))
            .sum();
        assert_eq!(sum, cov.executed_cases);
    }

    #[test]
    fn truncated_mut_covers_only_its_executed_prefix() {
        let cfg = small_cfg();
        let report = run_campaign(OsVariant::Win98, &cfg);
        let gtc = report
            .muts
            .iter()
            .find(|t| t.name == "GetThreadContext")
            .expect("in catalog");
        assert!(gtc.catastrophic && gtc.cases < gtc.planned);
        let cov = Coverage::from_report(&report, &cfg);
        let mc = &cov.muts["GetThreadContext"];
        assert_eq!(mc.executed, gtc.cases as u64);
        assert_eq!(mc.planned, gtc.planned as u64);
    }

    #[test]
    fn merge_is_order_independent_for_two_variants() {
        let cfg = small_cfg();
        let a = Coverage::from_report(&run_campaign(OsVariant::Win98, &cfg), &cfg);
        let b = Coverage::from_report(&run_campaign(OsVariant::Linux, &cfg), &cfg);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.executed_cases, a.executed_cases + b.executed_cases);
        assert!(ab.variants.contains("win98") && ab.variants.contains("linux"));
    }

    #[test]
    fn floor_flags_each_dimension() {
        let cfg = small_cfg();
        let cov = Coverage::from_report(&run_campaign(OsVariant::Linux, &cfg), &cfg);
        assert!(cov.check_floor(&CoverageFloor::default()).is_empty());
        let impossible = CoverageFloor {
            min_muts: u64::MAX,
            min_executed_cases: u64::MAX,
            min_pools: u64::MAX,
            min_classes: 6,
            min_value_fraction: 1.1,
        };
        let shortfalls = cov.check_floor(&impossible);
        assert!(shortfalls.len() >= 4, "{shortfalls:?}");
        assert!(shortfalls.iter().any(|s| s.contains("value coverage")));
    }

    #[test]
    fn incremental_recording_and_gain() {
        let mut cov = Coverage::default();
        cov.touch_value("HANDLE", "NULL", 9);
        cov.touch_value("HANDLE", "NULL", 9); // idempotent
        cov.observe_class("Abort", 1);
        let before = cov.clone();
        cov.touch_value("HANDLE", "closed", 9);
        cov.touch_value("DWORD", "MAXDWORD", 5);
        cov.observe_class("Abort", 1);
        cov.observe_class("Silent", 1);
        cov.observe_class("Pass", 0); // a zero count records nothing
        let gain = cov.gain_since(&before);
        assert_eq!(gain.new_values, 2);
        assert_eq!(gain.new_classes, 1, "Silent is new, Abort is not");
        assert!(!cov.classes.contains_key("Pass"));
        assert_eq!(cov.gain_since(&cov).new_values, 0);
        assert_eq!(cov.values_touched(), 3);
        assert_eq!(cov.values_total(), 14);
    }

    #[test]
    fn class_label_matches_tally_fold() {
        use crate::crash::{FailureClass as F, RawOutcome as R};
        for (class, raw, label) in [
            (F::Pass, R::ReturnedError, "ErrorReport"),
            (F::Pass, R::ReturnedSuccess, "Pass"),
            (F::Hindering, R::ReturnedError, "ErrorReport"),
            (F::Silent, R::ReturnedSuccess, "Silent"),
            (F::Catastrophic, R::SystemCrash, "Catastrophic"),
            (F::Restart, R::TaskHang, "Restart"),
            (F::Abort, R::TaskAbort, "Abort"),
        ] {
            assert_eq!(
                CLASS_LABELS[class_index(class, raw)],
                label,
                "{class:?}/{raw:?}"
            );
        }
    }
}
