//! Rendering for crash-consistency (crashcon) campaign results.
//!
//! One table per OS variant: a row per MuT that exercised the
//! filesystem, the four oracle violation columns, and a PASS/FAIL
//! footer over the whole campaign — FAIL meaning some bounded crash
//! image diverged from the independent flat model (or arrived
//! structurally broken), i.e. a Silent-class crash-consistency defect.

use ballista::crashcon::{CrashTally, CrashconReport};
use std::fmt::Write as _;

/// Renders the per-MuT crashcon table for one campaign.
///
/// MuTs that never touched the filesystem are folded into a single
/// summary line rather than listed row by row — a crashcon table's
/// interesting rows are the ones with crash points to judge.
#[must_use]
pub fn crashcon_table(report: &CrashconReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Crash-consistency campaign — {} (bounded B3-style crash testing).",
        report.os
    );
    let _ = writeln!(
        out,
        "{:<26} {:>6} {:>7} {:>8} {:>7} {:>5} {:>5} {:>5} {:>5}  status",
        "MuT", "cases", "ops", "points", "incon", "wf", "open", "dur", "ren"
    );
    let _ = writeln!(out, "{}", "-".repeat(92));
    let mut quiet = 0usize;
    for t in &report.muts {
        if t.active_cases == 0 {
            quiet += 1;
            continue;
        }
        let _ = writeln!(
            out,
            "{:<26} {:>6} {:>7} {:>8} {:>7} {:>5} {:>5} {:>5} {:>5}  {}",
            t.name,
            t.cases,
            t.ops_recorded,
            t.crash_points,
            t.inconsistent_points,
            t.viol_well_formed,
            t.viol_open_table,
            t.viol_durability,
            t.viol_rename,
            if t.consistent() { "PASS" } else { "FAIL" }
        );
    }
    if quiet > 0 {
        let _ = writeln!(out, "({quiet} MuT(s) recorded no filesystem activity)");
    }
    let _ = writeln!(out, "{}", "-".repeat(92));
    let truncated: usize = report.muts.iter().map(|t| t.truncated_cases).sum();
    let _ = writeln!(
        out,
        "{} cases, {} crash points judged, {} inconsistent{} — {}",
        report.total_cases,
        report.total_points,
        report.total_inconsistent,
        if truncated > 0 {
            format!(" ({truncated} op log(s) truncated at the recording bound)")
        } else {
            String::new()
        },
        if report.consistent() {
            "PASS: every bounded crash image was consistent"
        } else {
            "FAIL: some crash image diverged from the model"
        }
    );
    if let Some(stats) = &report.stats {
        let _ = writeln!(
            out,
            "{} snapshots, {} remounts ({} restores stayed case-accurate)",
            stats.crashcon_snapshots, stats.crashcon_remounts, stats.restores
        );
    }
    // Same banner as the classic tables: a quarantined MuT's tally is
    // empty, so the PASS/FAIL line above covers only part of the catalog.
    if report.degraded {
        let _ = writeln!(
            out,
            "!! PARTIAL DATA: degraded variant(s) {} — see report warnings",
            report.os.short_name()
        );
    }
    out
}

/// One-line summary for a MuT tally (used by progress displays).
#[must_use]
pub fn summary_line(t: &CrashTally) -> String {
    format!(
        "{}: {} cases, {} points, {} inconsistent",
        t.name, t.cases, t.crash_points, t.inconsistent_points
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ballista::muts::FunctionGroup;
    use sim_kernel::variant::OsVariant;

    #[test]
    fn degraded_reports_carry_the_partial_data_banner() {
        let mut report = CrashconReport {
            os: OsVariant::Win95,
            muts: vec![CrashTally::new("CreateFileA", FunctionGroup::FileDirAccess)],
            total_cases: 0,
            total_points: 0,
            total_inconsistent: 0,
            stats: None,
            warnings: Vec::new(),
            degraded: false,
        };
        assert!(
            !crashcon_table(&report).contains("PARTIAL DATA"),
            "intact runs are unflagged"
        );
        report.degraded = true;
        let table = crashcon_table(&report);
        assert!(
            table.contains("!! PARTIAL DATA"),
            "degraded runs carry the banner"
        );
        assert!(table.contains("win95"), "names the degraded variant");
    }
}
