//! Shared driver for the experiment binaries: runs (or loads cached)
//! campaigns for all seven OS targets and writes results under
//! `results/`.
//!
//! Environment knobs:
//!
//! * `BALLISTA_CAP` — per-MuT test-case cap (default: the paper's 5000).
//! * `BALLISTA_RESULTS_DIR` — cache/output directory (default `results`).
//! * `BALLISTA_FRESH` — set to any value to ignore a cached campaign.
//! * `BALLISTA_TELEMETRY` — set to any non-`0` value to enable the
//!   telemetry hub: structured traces (`trace_<os>.json`), the metrics
//!   registry (`metrics.json`) and the live progress ticker. See
//!   `OBSERVABILITY.md`.
//! * `TELEMETRY_PROFILE` — additionally attribute simulated-kernel fuel
//!   to subsystems and write a flamegraph-ready `profile.folded`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use ballista::campaign::{claim_each, run_campaign, CampaignConfig, CampaignReport};
use ballista::telemetry::{chrome_trace_bytes, Hub, TelemetryConfig};
use report::MultiOsResults;
use sim_kernel::variant::OsVariant;
use std::fs;
use std::io::IsTerminal;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Reads the per-MuT cap from `BALLISTA_CAP` (default 5000).
#[must_use]
pub fn cap_from_env() -> usize {
    std::env::var("BALLISTA_CAP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(ballista::sampling::PAPER_CAP)
}

/// The results/cache directory.
#[must_use]
pub fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("BALLISTA_RESULTS_DIR").unwrap_or_else(|_| "results".into()))
}

fn cache_path(cap: usize) -> PathBuf {
    results_dir().join(format!("campaign-cap{cap}.json"))
}

/// Divides the machine's cores between variant-level fan-out and
/// per-campaign workers: `(concurrent variants, workers per campaign)`.
fn split_parallelism(variants: usize) -> (usize, usize) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let fan_out = cores.min(variants).max(1);
    (fan_out, (cores / fan_out).max(1))
}

/// A placeholder report for a variant whose campaign died even after the
/// engine's own containment: no tallies, explicitly `degraded` so every
/// renderer flags the hole instead of silently presenting six variants
/// as seven.
fn degraded_placeholder(os: OsVariant) -> CampaignReport {
    CampaignReport {
        os,
        muts: Vec::new(),
        total_cases: 0,
        stats: None,
        warnings: vec![format!(
            "campaign for {} panicked past containment; variant dropped from this run",
            os.short_name()
        )],
        degraded: true,
        fleet_degraded: false,
    }
}

/// Runs the full seven-OS campaign at `cap`, printing one progress line
/// per variant and a total line.
///
/// Variants fan out on `claim_each` (campaign order and results are
/// position-stable, so the output is identical to the sequential
/// driver); remaining cores go to each campaign's clean pass. Raw
/// per-case outcomes are recorded for the desktop Windows variants (the
/// Figure 2 voting set).
///
/// A variant whose campaign panics past the engine's own containment no
/// longer aborts the fleet: it yields an empty `degraded` report with an
/// explicit warning, and the remaining variants complete normally.
#[must_use]
pub fn run_all_oses(cap: usize) -> MultiOsResults {
    let t0 = Instant::now();
    let telemetry = Telemetry::from_env();
    let oses = OsVariant::ALL;
    let (fan_out, per_campaign) = split_parallelism(oses.len());
    let run_variant = |_: &mut (), i: usize| {
        let os = oses[i];
        let cfg = CampaignConfig {
            cap,
            record_raw: OsVariant::DESKTOP_WINDOWS.contains(&os),
            isolation_probe: true,
            perfect_cleanup: false,
            parallelism: per_campaign,
            fuel_budget: 0,
        };
        let report = std::panic::catch_unwind(|| run_campaign(os, &cfg))
            .unwrap_or_else(|_| degraded_placeholder(os));
        let stats = report.stats.unwrap_or_default();
        eprintln!(
            "  [{}] {} MuTs, {} cases, {} catastrophic, {:.1}s ({:.0} cases/s, {} restores, {} boots, {} replayed){}",
            os.short_name(),
            report.muts.len(),
            report.total_cases,
            report.catastrophic_muts().len(),
            stats.wall_ms / 1e3,
            stats.cases_per_sec,
            stats.restores,
            stats.boots,
            stats.replayed_cases,
            if report.degraded { " [DEGRADED]" } else { "" },
        );
        report
    };
    let reports = claim_each(oses.len(), fan_out, || (), run_variant);
    telemetry.finish();
    let total_wall_s = t0.elapsed().as_secs_f64();
    let total_cases: usize = reports.iter().map(|r| r.total_cases).sum();
    eprintln!(
        "  total: {} cases in {:.1}s ({:.0} cases/s)",
        total_cases,
        total_wall_s,
        total_cases as f64 / total_wall_s.max(1e-9)
    );
    let warnings: Vec<String> = reports
        .iter()
        .flat_map(|r| {
            let os = r.os.short_name();
            r.warnings.iter().map(move |w| format!("[{os}] {w}"))
        })
        .collect();
    for w in &warnings {
        eprintln!("  warning: {w}");
    }
    MultiOsResults { reports, warnings }
}

/// Loads the cached campaign for `cap`, or runs it and caches the result.
///
/// # Panics
///
/// Panics when the results directory is not writable — the experiment
/// cannot record its outputs, which is fatal for reproduction runs.
#[must_use]
pub fn load_or_run(cap: usize) -> MultiOsResults {
    let path = cache_path(cap);
    if std::env::var("BALLISTA_FRESH").is_err() {
        if let Ok(bytes) = fs::read(&path) {
            if let Ok(results) = serde_json::from_slice::<MultiOsResults>(&bytes) {
                eprintln!("loaded cached campaign from {}", path.display());
                return results;
            }
        }
    }
    eprintln!("running full campaign (cap = {cap}) …");
    let results = run_all_oses(cap);
    fs::create_dir_all(results_dir()).expect("results dir must be creatable");
    ballista::persist::atomic_write(&path, &serde_json::to_vec(&results).expect("serializable"))
        .expect("results cache must be writable");
    eprintln!("cached campaign to {}", path.display());
    results
}

/// The experiment-side handle on a `ballista::telemetry` hub: installs
/// the hub from the environment, runs the live progress ticker while
/// campaigns execute, and writes every observability artifact on
/// [`Telemetry::finish`].
///
/// Constructed by every experiment binary via [`Telemetry::from_env`];
/// when neither `BALLISTA_TELEMETRY` nor `TELEMETRY_PROFILE` is set this
/// is a no-op handle and the campaign engines run their zero-cost
/// disabled path.
pub struct Telemetry {
    hub: Option<std::sync::Arc<Hub>>,
    ticker: Option<(std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>)>,
    started: Instant,
}

impl Telemetry {
    /// Installs a telemetry hub if `BALLISTA_TELEMETRY` /
    /// `TELEMETRY_PROFILE` ask for one, and starts the single-line
    /// progress ticker when stderr is a terminal.
    #[must_use]
    pub fn from_env() -> Telemetry {
        let Some(cfg) = TelemetryConfig::from_env() else {
            return Telemetry { hub: None, ticker: None, started: Instant::now() };
        };
        let hub = Hub::install(cfg);
        let started = Instant::now();
        let ticker = std::io::stderr().is_terminal().then(|| {
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let hub = std::sync::Arc::clone(&hub);
            let handle = std::thread::spawn(move || {
                // Redraw until told to stop; `recv_timeout` doubles as
                // the frame clock.
                while rx.recv_timeout(Duration::from_millis(250)).is_err() {
                    let line = report::progress::render_progress(
                        &hub.metrics.counters.snapshot(),
                        started.elapsed().as_secs_f64(),
                    );
                    eprint!("\r\x1b[2K  {line}");
                }
                eprint!("\r\x1b[2K");
            });
            (tx, handle)
        });
        Telemetry { hub: Some(hub), ticker, started }
    }

    /// Whether a hub is installed (telemetry was requested).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.hub.is_some()
    }

    /// Stops the ticker, writes `metrics.json`, one `trace_<os>.json`
    /// per traced campaign and (under `TELEMETRY_PROFILE`)
    /// `profile.folded`, prints the human metrics table, and uninstalls
    /// the hub.
    ///
    /// # Panics
    ///
    /// Panics when an observability artifact cannot be written (same
    /// policy as every other artifact in this driver).
    pub fn finish(self) {
        if let Some((tx, handle)) = self.ticker {
            // The ticker exits on channel disconnect too; ignore a
            // send-after-death.
            let _ = tx.send(());
            let _ = handle.join();
        }
        let Some(hub) = self.hub else { return };
        for trace in hub.take_traces() {
            let name = format!("trace_{}.json", trace.os);
            let bytes = chrome_trace_bytes(&trace);
            write_artifact(&name, &String::from_utf8(bytes).expect("trace is UTF-8"));
        }
        if hub.profiling() {
            write_artifact("profile.folded", &hub.collapsed_stacks());
        }
        let snapshot = hub.metrics_snapshot();
        write_artifact(
            "metrics.json",
            &serde_json::to_string_pretty(&snapshot).expect("serializable"),
        );
        eprint!("{}", report::progress::render_metrics(&snapshot));
        eprintln!(
            "  telemetry: {:.1}s observed wall time",
            self.started.elapsed().as_secs_f64()
        );
        Hub::uninstall();
    }
}

/// Writes a named artifact (table text / CSV) under the results dir,
/// atomically — a crash mid-write never leaves a torn artifact.
///
/// # Panics
///
/// Panics when the artifact cannot be written.
pub fn write_artifact(name: &str, contents: &str) {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("results dir must be creatable");
    let path = dir.join(name);
    ballista::persist::atomic_write(&path, contents.as_bytes()).expect("artifact must be writable");
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_default_is_paper_cap() {
        // (Environment-dependent overrides are exercised by the binaries.)
        if std::env::var("BALLISTA_CAP").is_err() {
            assert_eq!(cap_from_env(), 5000);
        }
    }
}
