//! Chaos suite for the supervised process fleet: workers are killed at
//! deterministic (env-latched) shard boundaries, with real SIGKILLs,
//! with garbled replies, with hangs, and with spawn forced to fail —
//! and in every case the merged tallies must stay **bit-identical** to
//! the serial engine, every death must leave a warning, and the
//! campaign must complete instead of aborting.
//!
//! All tests serialize on one mutex: the fault latches are process
//! environment variables, inherited by every worker the supervisor
//! spawns.

use ballista::adaptive::{run_adaptive, run_adaptive_fleet, AdaptiveConfig};
use ballista::campaign::{fingerprint, run_campaign, CampaignConfig};
use ballista::crashcon::run_crashcon;
use ballista::fleet::{
    live_worker_pids, run_campaign_fleet_observed, run_crashcon_fleet, FleetConfig,
};
use ballista::server::{CampaignSpec, Server, ServerConfig};
use ballista::telemetry::{Counter, Counters, Hub, TelemetryConfig};
use sim_kernel::variant::OsVariant;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

static ENV_GUARD: Mutex<()> = Mutex::new(());

const WORKER: &str = env!("CARGO_BIN_EXE_fleet_worker");

/// RAII environment latch: sets the vars, restores the previous values
/// on drop so a panicking test cannot leak chaos into its neighbors.
struct EnvLatch {
    saved: Vec<(&'static str, Option<String>)>,
}

impl EnvLatch {
    fn set(vars: &[(&'static str, &str)]) -> EnvLatch {
        let saved = vars
            .iter()
            .map(|(k, _)| (*k, std::env::var(*k).ok()))
            .collect();
        for (k, v) in vars {
            std::env::set_var(k, v);
        }
        EnvLatch { saved }
    }
}

impl Drop for EnvLatch {
    fn drop(&mut self) {
        for (k, v) in &self.saved {
            match v {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
    }
}

fn cfg(cap: usize) -> CampaignConfig {
    CampaignConfig {
        cap,
        ..CampaignConfig::default()
    }
}

/// Tally bytes: the bit-identity unit of comparison (stats and
/// warnings are host-dependent by contract; the tallies are not).
fn tally_json(report: &ballista::campaign::CampaignReport) -> String {
    serde_json::to_string(&report.muts).expect("tallies serialize")
}

fn fleet(shards: usize, workers: usize) -> FleetConfig {
    FleetConfig {
        shards,
        workers,
        process: true,
    }
}

/// Warnings recording a worker death all share this prefix — the
/// supervisor emits exactly one per death.
fn death_warnings(report: &ballista::campaign::CampaignReport) -> usize {
    report
        .warnings
        .iter()
        .filter(|w| w.starts_with("fleet worker"))
        .count()
}

/// Env-latched worker self-kill at a deterministic shard boundary, on
/// three variants at cap 200 — the ISSUE's chaos-determinism gate. The
/// per-variant kill schedule is seeded from the variant index, so every
/// run kills workers at the same shard boundaries; the merged tallies
/// must not move a bit, and every death must be warned.
#[test]
fn seeded_worker_deaths_keep_tallies_bit_identical() {
    let _guard = ENV_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let variants = [OsVariant::Win95, OsVariant::WinNt4, OsVariant::WinCe];
    let mut total_deaths = 0u64;
    for (i, os) in variants.into_iter().enumerate() {
        // xorshift over the variant index: a deterministic, seeded
        // schedule of which shard each worker lifetime dies on.
        let mut seed = 0x5EED_u64 ^ ((i as u64 + 1) * 0x9E37_79B9);
        seed ^= seed << 13;
        seed ^= seed >> 7;
        let die_at = 2 + (seed % 2); // die on the 2nd or 3rd shard received
        let latch = EnvLatch::set(&[
            ("BALLISTA_WORKER_CMD", WORKER),
            ("BALLISTA_FLEET_FAULT", &format!("die:{die_at}")),
        ]);
        let serial = run_campaign(os, &cfg(200));
        let progress = Arc::new(Counters::default());
        let report =
            run_campaign_fleet_observed(os, &cfg(200), &fleet(12, 3), Some(&progress));
        drop(latch);

        assert_eq!(
            tally_json(&serial),
            tally_json(&report),
            "{}: tallies must be bit-identical to serial under worker deaths",
            os.short_name()
        );
        let deaths = progress.get(Counter::WorkerDeaths);
        assert!(deaths >= 1, "{}: the latch must kill workers", os.short_name());
        assert_eq!(
            death_warnings(&report),
            deaths as usize,
            "{}: one warning per death",
            os.short_name()
        );
        assert!(
            progress.get(Counter::ShardRetries) >= 1,
            "{}: dead workers' shards must be retried",
            os.short_name()
        );
        total_deaths += deaths;
    }
    assert!(
        total_deaths >= 3,
        "the schedule must kill at least 3 workers across the variants, got {total_deaths}"
    );
}

/// Crashcon and adaptive campaigns on real worker processes: each mode
/// crosses the wire (its flags in the spec, its records in the reply)
/// and must merge to the serial engine's tallies without degrading.
#[test]
fn crashcon_and_adaptive_run_on_worker_processes() {
    let _guard = ENV_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let latch = EnvLatch::set(&[("BALLISTA_WORKER_CMD", WORKER)]);
    let os = OsVariant::Win95;
    let serial = CampaignConfig {
        parallelism: 1,
        ..cfg(120)
    };
    let acfg = AdaptiveConfig::default();
    let crash_serial = run_crashcon(os, &serial);
    let crash_fleet = run_crashcon_fleet(os, &cfg(120), &fleet(6, 2));
    let adaptive_serial = run_adaptive(os, &serial, &acfg);
    let adaptive_fleet = run_adaptive_fleet(os, &cfg(120), &acfg, &fleet(6, 2));
    drop(latch);

    assert_eq!(
        crash_serial.muts, crash_fleet.muts,
        "crashcon fleet tallies must equal the serial engine's"
    );
    assert!(
        !crash_fleet.degraded && !crash_fleet.warnings.iter().any(|w| w.contains("degraded")),
        "the crashcon fleet must not degrade: {:?}",
        crash_fleet.warnings
    );
    assert_eq!(
        tally_json(&adaptive_serial),
        tally_json(&adaptive_fleet),
        "adaptive fleet tallies must equal the serial engine's"
    );
    assert!(
        !adaptive_fleet.fleet_degraded
            && !adaptive_fleet.warnings.iter().any(|w| w.contains("degraded")),
        "the adaptive fleet must not degrade: {:?}",
        adaptive_fleet.warnings
    );
}

/// A worker that answers with a garbled result frame is treated exactly
/// like a dead one: protocol fault counted, shard retried elsewhere,
/// tallies unmoved.
#[test]
fn garbled_reply_counts_a_protocol_fault_and_retries() {
    let _guard = ENV_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let hub = Hub::install(TelemetryConfig::default());
    let latch = EnvLatch::set(&[
        ("BALLISTA_WORKER_CMD", WORKER),
        ("BALLISTA_FLEET_FAULT", "garble:2"),
    ]);
    let os = OsVariant::Win98;
    let serial = run_campaign(os, &cfg(120));
    let progress = Arc::new(Counters::default());
    let report = run_campaign_fleet_observed(os, &cfg(120), &fleet(8, 2), Some(&progress));
    drop(latch);
    let metrics = hub.metrics_snapshot();
    Hub::uninstall();

    assert_eq!(tally_json(&serial), tally_json(&report));
    assert!(
        metrics.host[Counter::WireProtocolFaults] >= 1,
        "garbled replies must count protocol faults"
    );
    assert!(
        metrics.host[Counter::WorkerDeaths] >= 1,
        "a garbling worker is replaced like a dead one"
    );
    assert!(
        report.warnings.iter().any(|w| w.contains("malformed")),
        "the malformed reply must be warned: {:?}",
        report.warnings
    );
}

/// A worker that goes silent past the heartbeat deadline is killed and
/// its shard re-executed — hang detection in milliseconds via the env
/// deadline override.
#[test]
fn hung_worker_hits_the_heartbeat_deadline_and_is_replaced() {
    let _guard = ENV_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let latch = EnvLatch::set(&[
        ("BALLISTA_WORKER_CMD", WORKER),
        ("BALLISTA_FLEET_FAULT", "hang:2"),
        ("BALLISTA_FLEET_DEADLINE_MS", "400"),
    ]);
    let os = OsVariant::Win95;
    let serial = run_campaign(os, &cfg(100));
    let progress = Arc::new(Counters::default());
    let report = run_campaign_fleet_observed(os, &cfg(100), &fleet(6, 2), Some(&progress));
    drop(latch);

    assert_eq!(tally_json(&serial), tally_json(&report));
    assert!(
        progress.get(Counter::WorkerDeaths) >= 1,
        "the hang must be detected"
    );
    assert!(
        report
            .warnings
            .iter()
            .any(|w| w.contains("heartbeat deadline")),
        "the hang must be warned as a missed deadline: {:?}",
        report.warnings
    );
}

/// Zero-worker degradation (the ISSUE's acceptance gate): with spawn
/// forced to fail, the campaign completes on the in-process pool with
/// the degraded marker — never an abort or panic.
#[test]
fn unspawnable_workers_degrade_to_the_thread_pool() {
    let _guard = ENV_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let latch = EnvLatch::set(&[(
        "BALLISTA_WORKER_CMD",
        "/nonexistent/fleet_worker_that_cannot_spawn",
    )]);
    let os = OsVariant::Win98Se;
    let serial = run_campaign(os, &cfg(120));
    let progress = Arc::new(Counters::default());
    let report = run_campaign_fleet_observed(os, &cfg(120), &fleet(8, 2), Some(&progress));
    drop(latch);

    assert_eq!(tally_json(&serial), tally_json(&report));
    assert!(report.fleet_degraded, "the report must carry the degraded marker");
    assert!(
        !report.degraded,
        "fleet degradation must not claim the tallies are partial"
    );
    assert!(
        report.warnings.iter().any(|w| w.contains("degraded")),
        "degradation must be warned: {:?}",
        report.warnings
    );
}

/// The quarantine rung: every worker dies on its first shard, so a slot
/// that claims a shard loses two workers in a row, is quarantined, and
/// finishes its shards in-process. The campaign completes degraded, with
/// the serial engine's tallies and one warning per death.
#[test]
fn quarantined_slots_finish_in_process() {
    let _guard = ENV_GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let latch = EnvLatch::set(&[
        ("BALLISTA_WORKER_CMD", WORKER),
        ("BALLISTA_FLEET_FAULT", "die:1"),
    ]);
    let os = OsVariant::Win95;
    let serial = run_campaign(os, &cfg(100));
    let progress = Arc::new(Counters::default());
    let report = run_campaign_fleet_observed(os, &cfg(100), &fleet(8, 2), Some(&progress));
    drop(latch);

    assert_eq!(tally_json(&serial), tally_json(&report));
    assert!(
        report.fleet_degraded && !report.degraded,
        "a quarantined slot loses isolation, not data: {:?}",
        report.warnings
    );
    let quarantined = progress.get(Counter::WorkersQuarantined);
    assert!(
        (1..=2).contains(&quarantined),
        "{quarantined} slots quarantined"
    );
    let deaths = progress.get(Counter::WorkerDeaths);
    assert_eq!(deaths, 2 * quarantined, "two deaths quarantine a slot");
    let warned = report
        .warnings
        .iter()
        .filter(|w| w.starts_with("fleet worker pid"))
        .count();
    assert_eq!(
        warned as u64, deaths,
        "one warning per death: {:?}",
        report.warnings
    );
}

/// Real SIGKILLs, not latches: an external killer shoots live worker
/// PIDs mid-campaign and the supervisor recovers to the identical
/// tallies.
#[cfg(unix)]
#[test]
fn real_sigkill_mid_campaign_recovers_bit_identically() {
    let _guard = ENV_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let latch = EnvLatch::set(&[
        ("BALLISTA_WORKER_CMD", WORKER),
        ("BALLISTA_FLEET_SHARD_DELAY_MS", "60"),
    ]);
    let os = OsVariant::Win95;
    let serial = run_campaign(os, &cfg(150));
    let progress = Arc::new(Counters::default());
    let mut kills = 0;
    let report = std::thread::scope(|s| {
        let progress = &progress;
        let handle = s.spawn(move || {
            run_campaign_fleet_observed(os, &cfg(150), &fleet(16, 2), Some(progress))
        });
        // Kill up to two workers as soon as their PIDs surface; the
        // 60ms shard delay guarantees a window where the victim is
        // mid-shard.
        for _ in 0..200 {
            if kills >= 2 || handle.is_finished() {
                break;
            }
            if let Some(&pid) = live_worker_pids().first() {
                let killed = std::process::Command::new("kill")
                    .args(["-9", &pid.to_string()])
                    .status()
                    .map(|s| s.success())
                    .unwrap_or(false);
                if killed {
                    kills += 1;
                    // Give the supervisor time to notice and respawn so
                    // the second kill hits a different process.
                    std::thread::sleep(std::time::Duration::from_millis(150));
                    continue;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        handle.join().expect("supervised campaign must not panic")
    });
    drop(latch);

    assert!(kills >= 1, "the test must land at least one real SIGKILL");
    assert_eq!(
        tally_json(&serial),
        tally_json(&report),
        "real SIGKILLs must not move a tally bit"
    );
    assert!(
        progress.get(Counter::WorkerDeaths) >= 1,
        "the SIGKILL must be observed as a worker death"
    );
}

/// Minimal HTTP client for the in-flight progress test.
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    stream.write_all(body.as_bytes()).expect("send body");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let status: u16 = std::str::from_utf8(&response[..split])
        .expect("header utf8")
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, response[split + 4..].to_vec())
}

/// `GET /campaign/<fp>` while the campaign is in flight answers with
/// structured progress (shards done/total, cases, degraded flag) fed
/// from the fleet, then flips to the full report once done.
#[test]
fn inflight_campaign_get_streams_structured_progress() {
    let _guard = ENV_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Stretch every shard so the campaign is observably in flight.
    let latch = EnvLatch::set(&[("BALLISTA_FLEET_SHARD_DELAY_MS", "60")]);
    let dir = std::env::temp_dir().join("ballista-fleet-chaos-progress");
    let _ = std::fs::remove_dir_all(&dir);
    let addr = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: dir,
        cache_capacity: 8,
    })
    .expect("bind server")
    .spawn()
    .addr;

    let os = OsVariant::Win2000;
    let spec = CampaignSpec {
        cap: 150,
        shards: 24,
        workers: 2,
        ..CampaignSpec::new(os)
    };
    let fp = fingerprint(os, &spec.config());
    let body = serde_json::to_string(&spec).expect("spec serializes");

    let (seen_running, post_status) = std::thread::scope(|s| {
        let post = s.spawn(|| http(addr, "POST", "/campaign", &body).0);
        let mut seen = None;
        while !post.is_finished() {
            let (status, body) = http(addr, "GET", &format!("/campaign/{fp}"), "");
            if status == 202 {
                let text = String::from_utf8(body).expect("progress is utf8");
                assert!(text.contains("\"status\":\"running\""), "{text}");
                assert!(text.contains("\"shards_done\":"), "{text}");
                assert!(text.contains("\"cases_done\":"), "{text}");
                assert!(text.contains("\"degraded\":"), "{text}");
                // The leader registers the shard count a moment after
                // election; only a populated snapshot counts as seen.
                if text.contains("\"shards_total\":24") {
                    seen = Some(text);
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(15));
        }
        (seen, post.join().expect("post thread"))
    });
    drop(latch);

    assert_eq!(post_status, 200);
    let progress = seen_running.expect("the campaign must be observable in flight");
    assert!(progress.contains("\"worker_deaths\":0"), "{progress}");
    // Once complete, the same URL serves the cached report.
    let (status, report) = http(addr, "GET", &format!("/campaign/{fp}"), "");
    assert_eq!(status, 200);
    let report: ballista::campaign::CampaignReport =
        serde_json::from_slice(&report).expect("report parses");
    assert_eq!(report.os, os);
}
