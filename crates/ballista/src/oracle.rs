//! The conformance oracle: machine-checkable invariants over campaign
//! results.
//!
//! The paper's headline results are *comparative* — the same sampling
//! plan replayed across seven OS variants — so the tallies only mean
//! something if the harness itself is trustworthy. This module turns the
//! one-off assertions scattered through the test suite into a standing
//! oracle with three invariant families:
//!
//! * **Cross-engine** — the serial, parallel and journaled-resume engines
//!   must produce bit-identical per-MuT tallies ([`check_cross_engine`]).
//! * **Cross-variant** — paper-mandated relations over a seven-variant
//!   run: the NT family and Linux never record Catastrophic; each 9x
//!   variant records at least as many ground-truth Silent failures as
//!   each NT variant over their shared MuTs; every variant samples each
//!   shared MuT in the identical order ([`check_cross_variant`],
//!   [`check_sampling_identity`]); and the paper's one-line crash program
//!   `GetThreadContext(GetCurrentThread(), NULL)` splits the families
//!   exactly as Listing 1 reports ([`check_gtc_null_context`]).
//! * **Per-tally** — internal consistency of every tally both engines
//!   emit: class counts sum to executed cases, executed never exceeds
//!   planned, recorded outcomes line up one byte per case
//!   ([`check_tally`], enforced live via [`selfcheck`] hooks in
//!   `campaign.rs`).
//!
//! Metamorphic variations (worker-count permutation, template-cache
//! re-seeding, journal splitting) reduce to [`check_cross_engine`] over
//! reruns; the `experiments` crate's `conformance` binary drives them
//! across all seven variants and fails on any violation.

use crate::campaign::{CampaignReport, MutTally};
use crate::catalog;
use crate::crash::RawOutcome;
use crate::exec::{execute_case, Session};
use crate::sampling::Plan;
use serde::{Deserialize, Serialize};
use sim_kernel::variant::OsVariant;

/// One named invariant's outcome: how many facts were checked and every
/// violation found (empty ⇒ the invariant holds).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Check {
    /// Stable kebab-case invariant name (what CI greps for).
    pub invariant: String,
    /// Individual facts examined (tallies compared, cases executed, …).
    pub checked: u64,
    /// Human-readable violation details.
    pub violations: Vec<String>,
}

impl Check {
    fn new(invariant: &str) -> Self {
        Check {
            invariant: invariant.to_owned(),
            checked: 0,
            violations: Vec::new(),
        }
    }
}

/// An accumulated conformance verdict across many invariants.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conformance {
    /// Every invariant checked, in execution order.
    pub checks: Vec<Check>,
}

impl Conformance {
    /// Adds one invariant outcome.
    pub fn push(&mut self, check: Check) {
        self.checks.push(check);
    }

    /// Folds another verdict in (order preserved).
    pub fn extend(&mut self, other: Conformance) {
        self.checks.extend(other.checks);
    }

    /// Whether every invariant held.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.checks.iter().all(|c| c.violations.is_empty())
    }

    /// Total violations across invariants.
    #[must_use]
    pub fn violation_count(&self) -> usize {
        self.checks.iter().map(|c| c.violations.len()).sum()
    }
}

/// Internal-consistency check for one tally (both engines emit tallies
/// through the same fold, so any inconsistency is a harness bug, never a
/// test outcome). Returns one message per violated relation.
#[must_use]
pub fn check_tally(tally: &MutTally) -> Vec<String> {
    let mut v = Vec::new();
    let mut fail = |msg: String| v.push(format!("{}: {msg}", tally.name));
    let classified = tally.aborts
        + tally.restarts
        + tally.silents
        + tally.error_reports
        + tally.passes
        + usize::from(tally.catastrophic);
    if classified != tally.cases {
        fail(format!(
            "class counts sum to {classified} but {} cases executed",
            tally.cases
        ));
    }
    if tally.cases > tally.planned {
        fail(format!(
            "{} cases executed out of {} planned",
            tally.cases, tally.planned
        ));
    }
    if tally.suspected_hindering > tally.error_reports {
        fail(format!(
            "{} suspected-Hindering exceeds {} error reports",
            tally.suspected_hindering, tally.error_reports
        ));
    }
    if !tally.raw_outcomes.is_empty() && tally.raw_outcomes.len() != tally.cases {
        fail(format!(
            "{} recorded outcome bytes for {} cases",
            tally.raw_outcomes.len(),
            tally.cases
        ));
    }
    if tally.crash_reproducible_in_isolation.is_some() && !tally.catastrophic {
        fail("isolation-probe verdict on a non-Catastrophic tally".to_owned());
    }
    if tally.catastrophic && tally.cases == 0 {
        fail("Catastrophic with zero executed cases".to_owned());
    }
    v
}

/// Per-tally consistency over a whole report, plus the report-level sums.
#[must_use]
pub fn check_report(report: &CampaignReport) -> Check {
    let mut check = Check::new("tally-internal-consistency");
    let os = report.os.short_name();
    for tally in &report.muts {
        check.checked += 1;
        check
            .violations
            .extend(check_tally(tally).into_iter().map(|m| format!("[{os}] {m}")));
    }
    let sum: usize = report.muts.iter().map(|t| t.cases).sum();
    check.checked += 1;
    if sum != report.total_cases {
        check.violations.push(format!(
            "[{os}] total_cases {} but tallies sum to {sum}",
            report.total_cases
        ));
    }
    if report.degraded && report.warnings.is_empty() {
        check
            .violations
            .push(format!("[{os}] degraded report carries no warnings"));
    }
    check
}

/// Cross-engine bit-identity: two engines' reports for the same (variant,
/// config) must serialize to identical per-MuT tallies. `reference` and
/// `candidate` label the engines in violation messages.
#[must_use]
pub fn check_cross_engine(
    reference: &str,
    a: &CampaignReport,
    candidate: &str,
    b: &CampaignReport,
) -> Check {
    let mut check = Check::new("cross-engine-bit-identity");
    let os = a.os.short_name();
    if a.os != b.os {
        check.violations.push(format!(
            "comparing different variants: {reference}={os}, {candidate}={}",
            b.os.short_name()
        ));
        return check;
    }
    if a.muts.len() != b.muts.len() {
        check.violations.push(format!(
            "[{os}] {reference} has {} tallies, {candidate} has {}",
            a.muts.len(),
            b.muts.len()
        ));
    }
    for (ta, tb) in a.muts.iter().zip(&b.muts) {
        check.checked += 1;
        let ja = serde_json::to_string(ta).expect("tally serializes");
        let jb = serde_json::to_string(tb).expect("tally serializes");
        if ja != jb {
            check.violations.push(format!(
                "[{os}] {} diverged between {reference} and {candidate}: {ja} vs {jb}",
                ta.name
            ));
        }
    }
    check.checked += 1;
    if a.total_cases != b.total_cases {
        check.violations.push(format!(
            "[{os}] total cases {} ({reference}) vs {} ({candidate})",
            a.total_cases, b.total_cases
        ));
    }
    check
}

/// The paper-mandated cross-variant relations over one multi-variant run:
///
/// * `nt-linux-never-catastrophic` — NT 4.0, 2000 and Linux record no
///   Catastrophic failure (Table 1's zero column).
/// * `9x-silent-dominates-nt` — each 9x variant records at least as many
///   ground-truth Silent failures as each NT variant, summed over their
///   shared MuTs (the family gap behind the paper's Figure 2 estimate).
/// * `identical-sampling-order` — every shared MuT plans the same case
///   count on every variant (full plan identity is checked by
///   [`check_sampling_identity`]).
#[must_use]
pub fn check_cross_variant(reports: &[CampaignReport]) -> Conformance {
    let mut out = Conformance::default();

    let mut never_cat = Check::new("nt-linux-never-catastrophic");
    for r in reports {
        if r.os.is_nt() || r.os == OsVariant::Linux {
            for t in &r.muts {
                never_cat.checked += 1;
                if t.catastrophic {
                    never_cat.violations.push(format!(
                        "[{}] {} recorded Catastrophic",
                        r.os.short_name(),
                        t.name
                    ));
                }
            }
        }
    }
    out.push(never_cat);

    let mut silent = Check::new("9x-silent-dominates-nt");
    for nine_x in reports.iter().filter(|r| r.os.is_9x()) {
        for nt in reports.iter().filter(|r| r.os.is_nt()) {
            let shared: Vec<&str> = nine_x
                .muts
                .iter()
                .filter(|t| nt.muts.iter().any(|u| u.name == t.name))
                .map(|t| t.name.as_str())
                .collect();
            let sum = |r: &CampaignReport| -> usize {
                r.muts
                    .iter()
                    .filter(|t| shared.contains(&t.name.as_str()))
                    .map(|t| t.silents)
                    .sum()
            };
            silent.checked += 1;
            let (s9, snt) = (sum(nine_x), sum(nt));
            if s9 < snt {
                silent.violations.push(format!(
                    "{} records {s9} Silent failures over shared MuTs but {} records {snt}",
                    nine_x.os.short_name(),
                    nt.os.short_name()
                ));
            }
        }
    }
    out.push(silent);

    let mut order = Check::new("identical-sampling-order");
    if let Some((first, rest)) = reports.split_first() {
        for t in &first.muts {
            for other in rest {
                if let Some(u) = other.muts.iter().find(|u| u.name == t.name) {
                    order.checked += 1;
                    if t.planned != u.planned {
                        order.violations.push(format!(
                            "{} plans {} cases on {} but {} on {}",
                            t.name,
                            t.planned,
                            first.os.short_name(),
                            u.planned,
                            other.os.short_name()
                        ));
                    }
                }
            }
        }
    }
    out.push(order);

    out
}

/// Verifies that the sampling plans themselves — not just their sizes —
/// are identical across variants for every shared MuT with matching pool
/// dimensions ("identical pseudo-random sampling order on every OS
/// variant"). Pure catalog check: no campaign needs to have run.
#[must_use]
pub fn check_sampling_identity(cap: usize) -> Check {
    type MutPlans = Vec<(&'static str, Plan)>;
    let mut check = Check::new("identical-sampling-order");
    let plans: Vec<(OsVariant, MutPlans)> = OsVariant::ALL
        .into_iter()
        .map(|os| {
            let registry = catalog::registry_for(os);
            let per_mut = catalog::catalog_for(os)
                .into_iter()
                .map(|m| {
                    let pools = crate::campaign::resolve_pools(&registry, &m);
                    (m.name, crate::campaign::plan_of(&m, &pools, cap))
                })
                .collect();
            (os, per_mut)
        })
        .collect();
    let (first, rest) = plans.split_first().expect("seven variants");
    for (name, plan) in &first.1 {
        for (os, other) in rest {
            if let Some((_, other_plan)) = other.iter().find(|(n, _)| n == name) {
                if plan.dims() != other_plan.dims() {
                    continue; // different pool worlds; sizes may differ
                }
                check.checked += 1;
                // Linear index for linear index.
                if plan != other_plan {
                    check.violations.push(format!(
                        "{name}: sampling order diverges between {} and {}",
                        first.0.short_name(),
                        os.short_name()
                    ));
                }
            }
        }
    }
    check
}

/// The paper's one-line crash program, pinned as a named invariant:
/// `GetThreadContext(GetCurrentThread(), NULL)` must classify
/// Catastrophic on the 9x family and CE, and non-Catastrophic on the NT
/// family — executed live against each variant's catalog entry with the
/// exact pool values (`pseudo current thread`, `NULL`).
#[must_use]
pub fn check_gtc_null_context() -> Check {
    let mut check = Check::new("gtc-null-context-family-split");
    for os in OsVariant::ALL {
        let muts = catalog::catalog_for(os);
        let Some(gtc) = muts.iter().find(|m| m.name == "GetThreadContext") else {
            continue; // absent from this catalog (Linux)
        };
        let registry = catalog::registry_for(os);
        let pools = crate::campaign::resolve_pools(&registry, gtc);
        let find = |pool: &[crate::value::TestValue], name: &str| {
            pool.iter().position(|v| v.name == name)
        };
        let (Some(handle_idx), Some(null_idx)) = (
            find(&pools[0], "pseudo current thread"),
            find(&pools[1], "NULL"),
        ) else {
            check.violations.push(format!(
                "[{}] pinned pool values missing for GetThreadContext",
                os.short_name()
            ));
            continue;
        };
        check.checked += 1;
        let result = execute_case(os, gtc, &pools, &[handle_idx, null_idx], &mut Session::new());
        let crashed = result.raw == RawOutcome::SystemCrash;
        let expect_crash = os.is_9x() || os.is_ce();
        if crashed != expect_crash {
            check.violations.push(format!(
                "[{}] GetThreadContext(GetCurrentThread(), NULL) => {:?}; the paper reports {}",
                os.short_name(),
                result.raw,
                if expect_crash {
                    "a system crash on this family"
                } else {
                    "no crash on this family"
                }
            ));
        }
    }
    check
}

/// Live per-tally self-checking, installed by the conformance runner and
/// the oracle tests: when enabled, both campaign engines route every
/// finished tally through [`check_tally`] and park violations here. Off
/// by default (zero cost beyond one relaxed atomic load per tally).
pub mod selfcheck {
    use super::check_tally;
    use crate::campaign::MutTally;
    use crate::telemetry::{self, Counter};
    use sim_kernel::variant::OsVariant;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static VIOLATIONS: Mutex<Vec<String>> = Mutex::new(Vec::new());

    /// Turns live tally checking on or off (process-wide).
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::SeqCst);
    }

    /// Drains every violation observed since the last call.
    #[must_use]
    pub fn take_violations() -> Vec<String> {
        std::mem::take(&mut *VIOLATIONS.lock().expect("selfcheck sink poisoned"))
    }

    /// Hook called by both engines for every finished tally.
    pub(crate) fn observe_tally(os: OsVariant, tally: &MutTally) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        let found = check_tally(tally);
        if !found.is_empty() {
            telemetry::count(Counter::SelfcheckFailures, found.len() as u64);
            let mut sink = VIOLATIONS.lock().expect("selfcheck sink poisoned");
            sink.extend(
                found
                    .into_iter()
                    .map(|m| format!("[{}] {m}", os.short_name())),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            cap: 40,
            record_raw: true,
            isolation_probe: true,
            perfect_cleanup: false,
            parallelism: 1,
            fuel_budget: 0,
        }
    }

    #[test]
    fn real_campaign_reports_are_internally_consistent() {
        for os in [OsVariant::Win98, OsVariant::Linux] {
            let report = run_campaign(os, &cfg());
            let check = check_report(&report);
            assert!(check.violations.is_empty(), "{:?}", check.violations);
            assert!(check.checked > report.muts.len() as u64);
        }
    }

    #[test]
    fn check_tally_catches_planted_inconsistencies() {
        let report = run_campaign(OsVariant::Linux, &cfg());
        let mut bad = report.muts[0].clone();
        bad.passes += 1; // class counts no longer sum to cases
        assert!(!check_tally(&bad).is_empty());
        let mut bad = report.muts[0].clone();
        bad.planned = 0; // executed beyond plan
        assert!(!check_tally(&bad).is_empty());
        let mut bad = report.muts[0].clone();
        bad.crash_reproducible_in_isolation = Some(true); // probe without crash
        assert!(!check_tally(&bad).is_empty());
    }

    #[test]
    fn cross_engine_check_flags_a_planted_divergence() {
        let a = run_campaign(OsVariant::Win98, &cfg());
        let mut b = a.clone();
        let clean = check_cross_engine("serial", &a, "clone", &b);
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);
        b.muts[3].aborts += 1;
        b.muts[3].passes -= 1;
        let dirty = check_cross_engine("serial", &a, "tampered", &b);
        assert_eq!(dirty.violations.len(), 1);
        assert!(dirty.violations[0].contains(&a.muts[3].name));
    }

    #[test]
    fn sampling_identity_holds_at_small_cap() {
        let check = check_sampling_identity(50);
        assert!(check.violations.is_empty(), "{:?}", check.violations);
        assert!(check.checked > 100, "many shared MuTs compared");
    }

    #[test]
    fn gtc_invariant_holds() {
        let check = check_gtc_null_context();
        assert!(check.violations.is_empty(), "{:?}", check.violations);
        assert_eq!(check.checked, 6, "all six Windows variants carry it");
    }

    #[test]
    fn selfcheck_hook_observes_engine_tallies() {
        selfcheck::set_enabled(true);
        let _ = selfcheck::take_violations();
        let _ = run_campaign(OsVariant::Linux, &cfg());
        let violations = selfcheck::take_violations();
        selfcheck::set_enabled(false);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
