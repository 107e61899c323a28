//! Worker panic containment and quarantine, end to end. The fault latch
//! (`exec::fault`) is process-global, so every scenario lives in this one
//! test function (integration tests in other binaries run in other
//! processes and never see the latch).
//!
//! Scenarios, on both the sequential and the parallel engine:
//!
//! 1. One injected panic: contained, the MuT reruns on fresh templates,
//!    tallies are identical to an unfaulted run, report is not degraded.
//! 2. Panic on the retry too: the MuT is quarantined with an empty
//!    tally and the report is explicitly `degraded`. A quarantined MuT
//!    contributes nothing to the shared session (it is treated as
//!    absent), so MuTs *before* it in catalog order must still match the
//!    unfaulted reference, and the two engines must agree bit for bit on
//!    the whole degraded report.
//!
//! With tracing on, the sequential engine's trace stays whole: one panic
//! leaves it byte-identical to the unfaulted trace, and a quarantined MuT
//! keeps an empty span in its catalog slot.
//!
//! Crashcon runs under the same fence, serial and on the pool: one panic
//! leaves the tallies unmoved; two quarantine the MuT with an empty tally
//! and a `degraded` report, and — crashcon cases being residue-free —
//! leave every other MuT's tally equal to the reference.

use ballista::campaign::{run_campaign, CampaignConfig, CampaignReport, MutTally};
use ballista::crashcon::{run_crashcon, CrashTally, CrashconReport};
use ballista::exec;
use ballista::telemetry::{chrome_trace_bytes, CampaignTrace, Hub, TelemetryConfig};
use sim_kernel::variant::OsVariant;

const OS: OsVariant = OsVariant::Win98;
const TARGET: &str = "GetThreadContext";

fn cfg(parallelism: usize) -> CampaignConfig {
    CampaignConfig {
        cap: 40,
        record_raw: true,
        isolation_probe: true,
        perfect_cleanup: false,
        parallelism,
        fuel_budget: 0,
    }
}

fn json(tallies: &[MutTally]) -> String {
    serde_json::to_string(tallies).expect("serialize")
}

fn check_contained_retry(parallelism: usize, reference: &CampaignReport) {
    exec::fault::arm_worker_panic(TARGET, 1);
    let report = run_campaign(OS, &cfg(parallelism));
    exec::fault::disarm();
    assert!(
        !report.degraded,
        "parallelism {parallelism}: one contained panic must not degrade the report"
    );
    assert_eq!(
        json(&report.muts),
        json(&reference.muts),
        "parallelism {parallelism}: the retried run must match the unfaulted run bit for bit"
    );
    assert!(
        report
            .warnings
            .iter()
            .any(|w| w.contains("contained worker panic") && w.contains(TARGET)),
        "parallelism {parallelism}: containment is surfaced: {:?}",
        report.warnings
    );
}

fn check_quarantine(parallelism: usize, reference: &CampaignReport) -> CampaignReport {
    // Two faults: the initial run and the single retry both die.
    exec::fault::arm_worker_panic(TARGET, 2);
    let report = run_campaign(OS, &cfg(parallelism));
    exec::fault::disarm();
    assert!(
        report.degraded,
        "parallelism {parallelism}: a quarantined MuT must mark the report degraded"
    );
    assert!(
        report
            .warnings
            .iter()
            .any(|w| w.contains("quarantined") && w.contains(TARGET)),
        "parallelism {parallelism}: quarantine is surfaced: {:?}",
        report.warnings
    );
    let pos = report
        .muts
        .iter()
        .position(|t| t.name == TARGET)
        .expect("quarantined MuT keeps its catalog slot");
    let tally = &report.muts[pos];
    assert_eq!(tally.cases, 0, "a quarantined tally is empty");
    assert!(tally.planned > 0, "the plan size is still reported");
    assert!(!tally.catastrophic);
    // Session state is identical up to the quarantined MuT, so the
    // catalog prefix must match the unfaulted reference exactly. (MuTs
    // after it may legitimately differ: the quarantined MuT's residue
    // never entered the session.)
    assert_eq!(
        json(&report.muts[..pos]),
        json(&reference.muts[..pos]),
        "parallelism {parallelism}: quarantine disturbed MuTs before the target"
    );
    report
}

/// Runs the sequential engine under a tracing hub with `faults` armed
/// panics on the target, returning the report and its one trace.
fn traced_run(faults: u32) -> (CampaignReport, CampaignTrace) {
    let hub = Hub::install(TelemetryConfig::tracing());
    if faults > 0 {
        exec::fault::arm_worker_panic(TARGET, faults);
    }
    let report = run_campaign(OS, &cfg(1));
    exec::fault::disarm();
    let mut traces = hub.take_traces();
    Hub::uninstall();
    assert_eq!(traces.len(), 1, "exactly one campaign trace submitted");
    (report, traces.remove(0))
}

fn check_traces() {
    let (reference, clean) = traced_run(0);
    let (retried, retried_trace) = traced_run(1);
    assert_eq!(json(&retried.muts), json(&reference.muts));
    assert_eq!(
        chrome_trace_bytes(&retried_trace),
        chrome_trace_bytes(&clean),
        "a contained panic must leave the trace byte-identical"
    );
    let (_, quarantined) = traced_run(2);
    let names = |t: &CampaignTrace| t.muts.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
    assert_eq!(
        names(&quarantined),
        names(&clean),
        "every MuT keeps its span"
    );
    let span = quarantined
        .muts
        .iter()
        .find(|m| m.name == TARGET)
        .expect("the quarantined MuT keeps its span");
    assert!(span.cases.is_empty(), "a quarantined MuT's span is empty");
}

fn check_crashcon(parallelism: usize, reference: &CrashconReport) {
    exec::fault::arm_worker_panic(TARGET, 1);
    let retried = run_crashcon(OS, &cfg(parallelism));
    exec::fault::disarm();
    assert!(
        !retried.degraded,
        "crashcon parallelism {parallelism}: one contained panic must not degrade the report"
    );
    assert_eq!(
        retried.muts, reference.muts,
        "crashcon parallelism {parallelism}: the retried run must match the unfaulted run"
    );
    assert!(
        retried
            .warnings
            .iter()
            .any(|w| w.contains("contained worker panic") && w.contains(TARGET)),
        "crashcon parallelism {parallelism}: containment is surfaced: {:?}",
        retried.warnings
    );

    exec::fault::arm_worker_panic(TARGET, 2);
    let quarantined = run_crashcon(OS, &cfg(parallelism));
    exec::fault::disarm();
    assert!(
        quarantined.degraded,
        "crashcon parallelism {parallelism}: a quarantined MuT must mark the report degraded"
    );
    assert!(
        quarantined
            .warnings
            .iter()
            .any(|w| w.contains("quarantined") && w.contains(TARGET)),
        "crashcon parallelism {parallelism}: quarantine is surfaced: {:?}",
        quarantined.warnings
    );
    assert_eq!(quarantined.muts.len(), reference.muts.len());
    for (got, want) in quarantined.muts.iter().zip(&reference.muts) {
        if got.name == TARGET {
            assert_eq!(
                *got,
                CrashTally::new(TARGET, want.group),
                "crashcon parallelism {parallelism}: a quarantined tally is empty"
            );
        } else {
            assert_eq!(
                got, want,
                "crashcon parallelism {parallelism}: quarantine disturbed {}",
                got.name
            );
        }
    }
}

#[test]
fn worker_panics_are_contained_then_quarantined() {
    let reference = run_campaign(OS, &cfg(1));
    assert!(!reference.degraded);
    assert!(reference.warnings.is_empty());
    check_contained_retry(1, &reference);
    check_contained_retry(4, &reference);
    let q1 = check_quarantine(1, &reference);
    let q4 = check_quarantine(4, &reference);
    assert_eq!(
        json(&q1.muts),
        json(&q4.muts),
        "both engines must agree bit for bit on the degraded report"
    );

    check_traces();

    let crash_reference = run_crashcon(OS, &cfg(1));
    assert!(!crash_reference.degraded);
    assert!(crash_reference.warnings.is_empty());
    check_crashcon(1, &crash_reference);
    check_crashcon(4, &crash_reference);
}
