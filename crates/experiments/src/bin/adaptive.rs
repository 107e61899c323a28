//! Adaptive runner: compares the coverage-guided adaptive campaign
//! (`ballista::adaptive`) against the fixed blind-sample plan at the
//! **same per-MuT case budget**, writes the per-variant golden
//! `results/adaptive_<os>.json` (coverage-gain curve, fixed-vs-adaptive
//! coverage, rare-class yield), and exits non-zero if adaptive ever
//! covers less than fixed or the goldens drift.
//!
//! ```text
//! adaptive                        # all seven variants at cap 200
//! adaptive --os win95 --os wince  # a subset (CI smoke)
//! adaptive --cap 100              # smaller stimulus (golden diff skipped
//! #                                 unless the goldens were blessed at 100)
//! adaptive --bless                # regenerate results/adaptive_<os>.json
//! ```
//!
//! Per variant it runs the fixed campaign and the adaptive campaign
//! (explore → pin → replay) at the same cap, exploring on the machine's
//! parallelism (the pooled explore pins the serial plan bit for bit, so
//! the golden diff checks it too), reconstructs both
//! coverages — the adaptive one against the **pinned** plans — and
//! asserts the ISSUE's acceptance bar: adaptive pool-value coverage
//! ≥ fixed, and adaptive distinct-CRASH-class count ≥ fixed. The
//! per-MuT rare classes (Silent / Restart / Catastrophic) the fixed
//! plan missed but adaptive hit are listed in the golden so the
//! EXPERIMENTS.md walkthrough can point at a concrete case.

use ballista::adaptive::{pinned_plan_shared, run_adaptive, AdaptiveConfig, RoundStats};
use ballista::campaign::{run_campaign, CampaignConfig, CampaignReport};
use ballista::coverage::Coverage;
use ballista::persist::atomic_write;
use serde::{Deserialize, Serialize};
use sim_kernel::variant::OsVariant;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;

/// The cap the checked-in goldens are pinned at.
const GOLDEN_CAP: usize = 200;

fn cfg(cap: usize) -> CampaignConfig {
    CampaignConfig {
        cap,
        record_raw: false,
        isolation_probe: true,
        perfect_cleanup: false,
        parallelism: 1,
        fuel_budget: 0,
    }
}

/// One campaign mode's coverage summary (fields chosen to be fully
/// deterministic: no wall-clock, no throughput).
#[derive(Serialize, Deserialize)]
struct ModeSummary {
    /// Cases actually executed (crashes truncate MuT plans).
    cases: u64,
    /// Distinct pool values drawn at least once.
    values_touched: u64,
    /// Registered pool values (the denominator).
    values_total: u64,
    /// Distinct primary CRASH classes observed (max 6).
    classes_observed: u64,
    /// Per-class case counts.
    classes: BTreeMap<String, u64>,
}

impl ModeSummary {
    fn from_coverage(cov: &Coverage) -> ModeSummary {
        ModeSummary {
            cases: cov.executed_cases,
            values_touched: cov.values_touched(),
            values_total: cov.values_total(),
            classes_observed: cov.classes_observed(),
            classes: cov.classes.clone(),
        }
    }
}

/// A rare outcome class the adaptive plan surfaced on a MuT where the
/// fixed plan saw none at the same budget.
#[derive(Serialize, Deserialize)]
struct RareGain {
    mut_name: String,
    class: String,
    adaptive_count: u64,
}

/// The `results/adaptive_<os>.json` golden: everything in here is a pure
/// function of (variant, cap, adaptive knobs), so the file is
/// bit-reproducible on every host.
#[derive(Serialize, Deserialize)]
struct AdaptiveGolden {
    cap: usize,
    rounds: Vec<RoundStats>,
    explore_cases: u64,
    pinned_cases: u64,
    fixed: ModeSummary,
    adaptive: ModeSummary,
    rare_gains: Vec<RareGain>,
}

/// Per-MuT rare classes adaptive hit that fixed missed entirely.
fn rare_gains(fixed: &CampaignReport, adaptive: &CampaignReport) -> Vec<RareGain> {
    let mut gains = Vec::new();
    for (f, a) in fixed.muts.iter().zip(&adaptive.muts) {
        debug_assert_eq!(f.name, a.name);
        let pairs = [
            ("Silent", f.silents as u64, a.silents as u64),
            ("Restart", f.restarts as u64, a.restarts as u64),
            (
                "Catastrophic",
                u64::from(f.catastrophic),
                u64::from(a.catastrophic),
            ),
        ];
        for (class, fixed_n, adaptive_n) in pairs {
            if fixed_n == 0 && adaptive_n > 0 {
                gains.push(RareGain {
                    mut_name: a.name.clone(),
                    class: class.to_owned(),
                    adaptive_count: adaptive_n,
                });
            }
        }
    }
    gains
}

fn render(name: &str, golden: &AdaptiveGolden) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "[{name}] coverage curve (cap {}):", golden.cap);
    let _ = writeln!(out, "  round  cases  new-values  new-classes");
    for r in &golden.rounds {
        let _ = writeln!(
            out,
            "  {:>5}  {:>5}  {:>10}  {:>11}",
            r.round, r.explored_cases, r.new_values, r.new_classes
        );
    }
    let _ = writeln!(
        out,
        "  fixed:    {:>4}/{} values, {} classes, {} cases",
        golden.fixed.values_touched,
        golden.fixed.values_total,
        golden.fixed.classes_observed,
        golden.fixed.cases
    );
    let _ = writeln!(
        out,
        "  adaptive: {:>4}/{} values, {} classes, {} cases",
        golden.adaptive.values_touched,
        golden.adaptive.values_total,
        golden.adaptive.classes_observed,
        golden.adaptive.cases
    );
    for g in &golden.rare_gains {
        let _ = writeln!(
            out,
            "  rare gain: {} {} x{} (fixed plan: none)",
            g.mut_name, g.class, g.adaptive_count
        );
    }
    out
}

fn main() -> ExitCode {
    let mut bless = false;
    let mut cap = std::env::var("BALLISTA_CAP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(GOLDEN_CAP);
    let mut selected: Vec<OsVariant> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--bless" => bless = true,
            "--cap" => {
                cap = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("usage: adaptive [--cap N] [--os NAME]... [--bless]");
                    std::process::exit(2)
                });
            }
            "--os" => {
                let name = it.next().unwrap_or_default();
                match OsVariant::from_short_name(&name) {
                    Some(os) => selected.push(os),
                    None => {
                        eprintln!("unknown OS variant {name:?}");
                        return ExitCode::from(2);
                    }
                }
            }
            _ => {
                eprintln!("usage: adaptive [--cap N] [--os NAME]... [--bless]");
                return ExitCode::from(2);
            }
        }
    }
    if selected.is_empty() {
        selected = OsVariant::ALL.to_vec();
    }
    eprintln!("=== Adaptive vs fixed sampling (cap = {cap}, equal budget) ===");
    let run_cfg = cfg(cap);
    let acfg = AdaptiveConfig::default();
    let mut failures = Vec::new();
    let mut rendered = String::new();

    // Explore on the machine's parallelism; the pin it memoizes is the
    // one `run_adaptive` replays (the pin key leaves parallelism out), so
    // the golden diff below also checks the pooled explore.
    let explore_cfg = CampaignConfig {
        parallelism: 0,
        ..run_cfg
    };
    for os in selected {
        let name = os.short_name();
        let fixed = run_campaign(os, &run_cfg);
        let fixed_cov = Coverage::from_report(&fixed, &run_cfg);
        let pin = pinned_plan_shared(os, &explore_cfg, &acfg);
        let adaptive = run_adaptive(os, &run_cfg, &acfg);
        let adaptive_cov =
            Coverage::from_report_with_plans(&adaptive, &run_cfg, &pin.plans_by_name());

        let golden = AdaptiveGolden {
            cap,
            rounds: pin.rounds.clone(),
            explore_cases: pin.explore_cases,
            pinned_cases: pin.pinned_cases(),
            fixed: ModeSummary::from_coverage(&fixed_cov),
            adaptive: ModeSummary::from_coverage(&adaptive_cov),
            rare_gains: rare_gains(&fixed, &adaptive),
        };

        // The acceptance bar: at equal budget, adaptive must cover at
        // least as many pool values and distinct CRASH classes as fixed.
        if golden.adaptive.values_touched < golden.fixed.values_touched {
            failures.push(format!(
                "[{name}] adaptive touched {} pool values < fixed's {}",
                golden.adaptive.values_touched, golden.fixed.values_touched
            ));
        }
        if golden.adaptive.classes_observed < golden.fixed.classes_observed {
            failures.push(format!(
                "[{name}] adaptive observed {} classes < fixed's {}",
                golden.adaptive.classes_observed, golden.fixed.classes_observed
            ));
        }
        if golden.pinned_cases != fixed_cov.planned_cases {
            failures.push(format!(
                "[{name}] pinned {} cases but the fixed plan budgets {}",
                golden.pinned_cases, fixed_cov.planned_cases
            ));
        }

        let path = experiments::results_dir().join(format!("adaptive_{name}.json"));
        let json = serde_json::to_string_pretty(&golden).expect("golden serializes");
        if bless {
            fs::create_dir_all(experiments::results_dir()).expect("results dir");
            atomic_write(&path, json.as_bytes()).expect("golden must be writable");
            eprintln!("  blessed {}", path.display());
        } else {
            match fs::read(&path) {
                Ok(bytes) => match serde_json::from_slice::<AdaptiveGolden>(&bytes) {
                    Ok(want) if want.cap != cap => failures.push(format!(
                        "[{name}] golden pinned at cap {}, run used cap {cap}",
                        want.cap
                    )),
                    Ok(want) => {
                        let want_json =
                            serde_json::to_string_pretty(&want).expect("golden serializes");
                        if json != want_json {
                            failures.push(format!(
                                "[{name}] adaptive results drifted from {}; rerun with \
                                 --bless only if the change is intended",
                                path.display()
                            ));
                        }
                    }
                    Err(e) => failures.push(format!("[{name}] unparsable golden: {e}")),
                },
                Err(_) => failures.push(format!(
                    "[{name}] no golden at {}; run adaptive --bless",
                    path.display()
                )),
            }
        }

        let table = render(name, &golden);
        eprint!("{table}");
        rendered.push_str(&table);
        rendered.push('\n');
    }

    experiments::write_artifact("adaptive.txt", &rendered);
    if failures.is_empty() {
        eprintln!("adaptive: coverage bar held on every variant, goldens clean");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("adaptive: FAIL {f}");
        }
        ExitCode::FAILURE
    }
}
