//! The other campaign modes over the same catalog: crashcon, adaptive
//! explore→pin→replay, and both journal-resume loops with a torn tail.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ballista::adaptive::{explore, pinned_plan_shared, run_adaptive, AdaptiveConfig};
use ballista::campaign::{self, run_campaign, run_campaign_journaled, CampaignConfig, MutTally};
use ballista::catalog;
use ballista::crash::{pack_case, FailureClass};
use ballista::crashcon::{
    run_crashcon, run_crashcon_journaled, CrashTally, CrashconReport, Verifier,
};
use ballista::exec::{CaseRunner, Session, DEFAULT_FUEL_BUDGET};
use ballista::journal::{CaseRecord, Journal, HEADER_LEN, RECORD_LEN};
use serde::{Content, Deserialize};
use sim_kernel::variant::OsVariant;

use crate::calib::Readings;
use crate::classic::{self, GOLDEN_CAP};
use crate::{derive_seed, splitmix, stats, Ctx, Phase, Size, Slot, THREADS};

/// Per-MuT caps of the four mode loops.
struct Caps {
    crashcon: usize,
    adaptive: usize,
    journal_classic: usize,
    journal_crashcon: usize,
}

fn caps(size: Size) -> Caps {
    match size {
        Size::Full => Caps {
            crashcon: 1000,
            adaptive: 1000,
            journal_classic: 5000,
            journal_crashcon: 1000,
        },
        Size::Lite => Caps {
            crashcon: 100,
            adaptive: 100,
            journal_classic: 500,
            journal_crashcon: 100,
        },
    }
}

/// The journal loops' variants.
const JOURNAL_CLASSIC_OS: OsVariant = OsVariant::Win95;
const JOURNAL_CRASHCON_OS: OsVariant = OsVariant::Win98;

/// Every (variant, cap) whose plans the modes execute.
pub fn plan_pairs(size: Size) -> Vec<(OsVariant, usize)> {
    let c = caps(size);
    let mut pairs: Vec<(OsVariant, usize)> = OsVariant::ALL
        .iter()
        .flat_map(|&os| [(os, c.crashcon), (os, c.adaptive)])
        .collect();
    pairs.push((JOURNAL_CLASSIC_OS, c.journal_classic));
    pairs.push((JOURNAL_CRASHCON_OS, c.journal_crashcon));
    pairs
}

/// Config of the crashcon and adaptive loops.
fn mode_cfg(cap: usize, parallelism: usize) -> CampaignConfig {
    CampaignConfig {
        cap,
        record_raw: false,
        isolation_probe: true,
        perfect_cleanup: false,
        parallelism,
        fuel_budget: 0,
    }
}

/// The explore knobs: defaults, with the explore seed drawn from the
/// workload seed.
fn adaptive_cfg(seed: u64) -> AdaptiveConfig {
    AdaptiveConfig {
        rounds: 0,
        seed: derive_seed(seed, "modes.adaptive"),
        rare_bonus: 0,
    }
}

#[derive(Deserialize)]
struct CrashconGolden {
    cap: usize,
    muts: Vec<CrashTally>,
}

fn field_u64(content: &Content, key: &str) -> Option<u64> {
    content
        .as_map()?
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            Content::U64(n) => Some(*n),
            _ => None,
        })
}

/// Crashcon at the golden cap must reproduce
/// `results/golden/crashcon_<os>.json` with no inconsistent point, and
/// adaptive explore at cap 200 with the default knobs must reproduce the
/// explore and pinned case counts of `results/adaptive_<os>.json`.
pub fn check_golden(ctx: &mut Ctx) {
    let cfg = CampaignConfig {
        record_raw: true,
        ..mode_cfg(GOLDEN_CAP, 1)
    };
    for os in OsVariant::ALL {
        let path = ctx
            .root
            .join(format!("results/golden/crashcon_{}.json", os.short_name()));
        let golden: Result<CrashconGolden, String> = std::fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|b| serde_json::from_slice(&b).map_err(|e| e.to_string()));
        let report = run_crashcon(os, &cfg);
        let same = golden.as_ref().is_ok_and(|g| {
            g.cap == GOLDEN_CAP
                && serde_json::to_string(&g.muts).ok() == serde_json::to_string(&report.muts).ok()
        });
        ctx.check(same && report.total_inconsistent == 0, || {
            format!(
                "{os}: crashcon cap-{GOLDEN_CAP} tallies differ from {}",
                path.display()
            )
        });
    }
    let cfg = mode_cfg(GOLDEN_CAP, 1);
    for os in OsVariant::ALL {
        let path = ctx
            .root
            .join(format!("results/adaptive_{}.json", os.short_name()));
        let pinned: Option<(u64, u64)> = std::fs::read(&path)
            .ok()
            .and_then(|b| serde_json::from_slice::<Content>(&b).ok())
            .and_then(|c| {
                Some((
                    field_u64(&c, "explore_cases")?,
                    field_u64(&c, "pinned_cases")?,
                ))
            });
        let pin = explore(os, &cfg, &AdaptiveConfig::default());
        ctx.check(
            pinned == Some((pin.explore_cases, pin.pinned_cases())),
            || {
                format!(
                    "{os}: adaptive explore/pinned cases {}/{} differ from {}",
                    pin.explore_cases,
                    pin.pinned_cases(),
                    path.display()
                )
            },
        );
    }
}

/// Cuts `path` at a seeded byte offset 45–55% into its records, leaving
/// a torn tail for the resume to recover from. The band is narrow so the
/// resumed share of the work, and with it the pass rate, barely moves
/// with the seed.
fn cut(path: &Path, seed: u64) -> std::io::Result<u64> {
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    let len = file.metadata()?.len();
    let body = len.saturating_sub(HEADER_LEN as u64);
    let frac = 0.45 + 0.1 * (splitmix(seed) >> 11) as f64 / (1u64 << 53) as f64;
    let offset = HEADER_LEN as u64 + (body as f64 * frac) as u64;
    file.set_len(offset)?;
    file.sync_all()?;
    Ok(offset)
}

/// The three mode phases, sharing `share` of the measured time 8:9:3.
/// The journaled phase feeds only per-layer metrics, so the gated
/// crashcon and adaptive rates get the passes.
pub fn slots(ctx: &Ctx, size: Size, share: f64) -> Vec<Slot> {
    let c = caps(size);
    let primary = size == Size::Full;
    vec![
        Slot::new(
            Box::new(Crashcon {
                cap: c.crashcon,
                first: None,
                rates: Readings::default(),
            }),
            share * 0.4,
            2,
            primary,
        ),
        Slot::new(
            Box::new(Adaptive {
                cap: c.adaptive,
                acfg: adaptive_cfg(ctx.seed),
                first: None,
                rates: Readings::default(),
                explore_ms: Vec::new(),
                replay_ms: Vec::new(),
            }),
            share * 0.45,
            2,
            primary,
        ),
        Slot::new(
            Box::new(Journaled {
                classic_cap: c.journal_classic,
                crashcon_cap: c.journal_crashcon,
                first_classic: None,
                first_crashcon: None,
                rates: Vec::new(),
            }),
            share * 0.15,
            3,
            primary,
        ),
    ]
}

/// Crashcon on seven variants per pass; `crashcon_points_per_s` is the
/// median pass rate of crash points judged.
struct Crashcon {
    cap: usize,
    first: Option<Vec<Vec<CrashTally>>>,
    rates: Readings,
}

impl Phase for Crashcon {
    fn name(&self) -> &'static str {
        "crashcon"
    }

    fn pass(&mut self, ctx: &mut Ctx, n: u64) -> Duration {
        let t = Instant::now();
        let reports: Vec<CrashconReport> = OsVariant::ALL
            .iter()
            .map(|&os| {
                ctx.span("run_crashcon", n, |_| {
                    run_crashcon(os, &mode_cfg(self.cap, THREADS))
                })
            })
            .collect();
        let wall = t.elapsed();
        let points: u64 = reports.iter().map(|r| r.total_points).sum();
        self.rates
            .push(points as f64 / wall.as_secs_f64(), t, t + wall);
        if ctx.tracer.is_some() && !ctx.metrics.contains_key("crashcon.points") {
            let sum = |f: fn(&campaign::CampaignStats) -> u64| -> f64 {
                reports
                    .iter()
                    .filter_map(|r| r.stats.as_ref())
                    .map(f)
                    .sum::<u64>() as f64
            };
            ctx.metric("crashcon.points", points as f64, "count", 1);
            ctx.metric(
                "crashcon.snapshots",
                sum(|s| s.crashcon_snapshots),
                "count",
                1,
            );
            ctx.metric(
                "crashcon.remounts",
                sum(|s| s.crashcon_remounts),
                "count",
                1,
            );
        }
        for r in &reports {
            ctx.check(r.total_inconsistent == 0 && r.consistent(), || {
                format!(
                    "{}: {} inconsistent crash points",
                    r.os, r.total_inconsistent
                )
            });
            ctx.op(r.warnings.is_empty(), || {
                format!("{}: crashcon warnings {:?}", r.os, r.warnings)
            });
        }
        let tallies: Vec<Vec<CrashTally>> = reports.into_iter().map(|r| r.muts).collect();
        match &self.first {
            Some(first) => ctx.check(*first == tallies, || {
                format!("crashcon pass {n} tallies differ from pass 0")
            }),
            None => self.first = Some(tallies),
        }
        wall
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx) {
        let rate = ctx.calib.rate(crate::calib::CRASHCON, &self.rates);
        ctx.scaled("crashcon_points_per_s", rate, "points/s", self.rates.len());
    }
}

/// Adaptive explore, pin and pinned replay on seven variants per pass;
/// `adaptive_cases_per_s` is the median pass rate of explored plus
/// replayed cases.
struct Adaptive {
    cap: usize,
    acfg: AdaptiveConfig,
    first: Option<Vec<(u64, Vec<MutTally>)>>,
    rates: Readings,
    explore_ms: Vec<f64>,
    replay_ms: Vec<f64>,
}

impl Phase for Adaptive {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn pass(&mut self, ctx: &mut Ctx, n: u64) -> Duration {
        let start = Instant::now();
        let cfg = mode_cfg(self.cap, THREADS);
        let first_pass = self.first.is_none();
        let mut outputs = Vec::with_capacity(OsVariant::ALL.len());
        let (mut cases, mut explore_t, mut replay_t) = (0u64, Duration::ZERO, Duration::ZERO);
        let (mut explored, mut pinned) = (0u64, 0u64);
        for os in OsVariant::ALL {
            let t = Instant::now();
            // The first pass pins through the process-wide memo, so the
            // replay below never explores again; later passes re-explore.
            let pin = ctx.span("explore", n, |_| {
                if first_pass {
                    pinned_plan_shared(os, &cfg, &self.acfg)
                } else {
                    Arc::new(explore(os, &cfg, &self.acfg))
                }
            });
            let t1 = Instant::now();
            let report = ctx.span("run_adaptive", n, |_| run_adaptive(os, &cfg, &self.acfg));
            let t2 = Instant::now();
            explore_t += t1 - t;
            replay_t += t2 - t1;
            cases += pin.explore_cases + report.total_cases as u64;
            explored += pin.explore_cases;
            pinned += pin.pinned_cases();
            ctx.op(!report.degraded && report.warnings.is_empty(), || {
                format!("{os}: degraded adaptive campaign: {:?}", report.warnings)
            });
            outputs.push((pin.digest(), report.muts));
        }
        let wall = explore_t + replay_t;
        self.rates
            .push(cases as f64 / wall.as_secs_f64(), start, Instant::now());
        if ctx.tracer.is_some() {
            self.explore_ms.push(explore_t.as_secs_f64() * 1e3);
            self.replay_ms.push(replay_t.as_secs_f64() * 1e3);
            ctx.metric("adaptive.explore_cases", explored as f64, "count", 1);
            ctx.metric("adaptive.pinned_cases", pinned as f64, "count", 1);
        }
        match &self.first {
            Some(first) => {
                for (os, (a, b)) in OsVariant::ALL.iter().zip(first.iter().zip(&outputs)) {
                    ctx.check(a.0 == b.0, || {
                        format!("{os}: pinned-plan digest changed in pass {n}")
                    });
                    ctx.check(a.1 == b.1, || {
                        format!("{os}: pinned replay tallies changed in pass {n}")
                    });
                }
            }
            None => self.first = Some(outputs),
        }
        wall
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx) {
        let rate = ctx.calib.rate(crate::calib::ADAPTIVE, &self.rates);
        ctx.scaled("adaptive_cases_per_s", rate, "cases/s", self.rates.len());
        if ctx.traced {
            ctx.metric(
                "adaptive.explore_ms",
                stats::median(&self.explore_ms),
                "ms",
                self.explore_ms.len(),
            );
            ctx.metric(
                "adaptive.replay_ms",
                stats::median(&self.replay_ms),
                "ms",
                self.replay_ms.len(),
            );
        }
    }
}

/// Both journal loops per pass, each written fresh, torn at a seeded
/// offset and resumed; `journaled_cases_per_s` is the median pass rate of
/// the cases the four runs report over their wall.
struct Journaled {
    classic_cap: usize,
    crashcon_cap: usize,
    first_classic: Option<Vec<MutTally>>,
    first_crashcon: Option<Vec<CrashTally>>,
    rates: Vec<f64>,
}

/// Runs `f` in a span, adding its wall time to `wall`.
fn timed<R>(ctx: &mut Ctx, name: &str, n: u64, wall: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = ctx.span(name, n, |_| f());
    *wall += t.elapsed();
    r
}

impl Phase for Journaled {
    fn name(&self) -> &'static str {
        "journal"
    }

    fn pass(&mut self, ctx: &mut Ctx, n: u64) -> Duration {
        let classic_cfg = classic::cfg(JOURNAL_CLASSIC_OS, self.classic_cap, 1);
        let crash_cfg = mode_cfg(self.crashcon_cap, 1);
        let classic_path = ctx.scratch.join("classic.journal");
        let crash_path = ctx.scratch.join("crashcon.journal");
        let cut_seed = |kind: &str| derive_seed(ctx.seed, kind) ^ n;
        let (seed_a, seed_b) = (
            cut_seed("modes.cut.classic"),
            cut_seed("modes.cut.crashcon"),
        );
        let mut cases = 0usize;
        let mut wall = Duration::ZERO;

        let os = JOURNAL_CLASSIC_OS;
        let fresh = timed(ctx, "run_campaign_journaled", n, &mut wall, || {
            run_campaign_journaled(os, &classic_cfg, &classic_path, false)
        });
        let torn = cut(&classic_path, seed_a);
        let resumed = timed(ctx, "run_campaign_journaled", n, &mut wall, || {
            run_campaign_journaled(os, &classic_cfg, &classic_path, true)
        });
        match (fresh, torn, resumed) {
            (Ok(a), Ok(_), Ok(b)) => {
                cases += a.total_cases + b.total_cases;
                let replayed = b.stats.map_or(0, |s| s.replayed_cases);
                ctx.check(a.muts == b.muts && replayed > 0, || {
                    format!("journaled classic: resumed tallies differ from fresh (replayed {replayed})")
                });
                match &self.first_classic {
                    Some(first) => ctx.check(*first == a.muts, || {
                        format!("journaled classic pass {n} differs")
                    }),
                    None => self.first_classic = Some(a.muts),
                }
            }
            (a, c, b) => ctx.op(false, || {
                format!(
                    "journaled classic I/O: {:?} {:?} {:?}",
                    a.err(),
                    c.err(),
                    b.err()
                )
            }),
        }

        let os = JOURNAL_CRASHCON_OS;
        let fresh = timed(ctx, "run_crashcon_journaled", n, &mut wall, || {
            run_crashcon_journaled(os, &crash_cfg, &crash_path, false)
        });
        let torn = cut(&crash_path, seed_b);
        let resumed = timed(ctx, "run_crashcon_journaled", n, &mut wall, || {
            run_crashcon_journaled(os, &crash_cfg, &crash_path, true)
        });
        match (fresh, torn, resumed) {
            (Ok(a), Ok(_), Ok(b)) => {
                cases += a.total_cases + b.total_cases;
                let replayed = b.stats.map_or(0, |s| s.replayed_cases);
                ctx.check(a.muts == b.muts && replayed > 0 && b.total_inconsistent == 0, || {
                    format!("journaled crashcon: resumed tallies differ from fresh (replayed {replayed})")
                });
                match &self.first_crashcon {
                    Some(first) => ctx.check(*first == a.muts, || {
                        format!("journaled crashcon pass {n} differs")
                    }),
                    None => self.first_crashcon = Some(a.muts),
                }
            }
            (a, c, b) => ctx.op(false, || {
                format!(
                    "journaled crashcon I/O: {:?} {:?} {:?}",
                    a.err(),
                    c.err(),
                    b.err()
                )
            }),
        }
        self.rates.push(cases as f64 / wall.as_secs_f64());
        wall
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx) {
        // The journaled and resumed tallies must equal the in-memory engines'.
        let os = JOURNAL_CLASSIC_OS;
        let reference = run_campaign(os, &classic::cfg(os, self.classic_cap, THREADS));
        ctx.check(self.first_classic.as_ref() == Some(&reference.muts), || {
            "journaled classic tallies differ from the in-memory engine's".to_owned()
        });
        let reference = run_crashcon(JOURNAL_CRASHCON_OS, &mode_cfg(self.crashcon_cap, THREADS));
        ctx.check(
            self.first_crashcon.as_ref() == Some(&reference.muts),
            || "journaled crashcon tallies differ from the in-memory engine's".to_owned(),
        );
        ctx.metric(
            "journaled_cases_per_s",
            stats::median(&self.rates),
            "cases/s",
            self.rates.len(),
        );
    }
}

/// The traced per-case replicas of the modes: crashcon record + verify,
/// and the classic journal loop's appends, fsyncs and recovery.
pub fn trace_layers(ctx: &mut Ctx, size: Size) {
    let c = caps(size);
    ctx.span("replica.crashcon", 0, |ctx| {
        crashcon_replica(ctx, c.crashcon)
    });
    ctx.span("replica.journal", 0, |ctx| {
        journal_replica(ctx, c.journal_classic)
    });
}

/// `CaseRunner::execute_recorded` then `Verifier::evaluate` per case, as
/// the crashcon engine does, over the phase's plans.
fn crashcon_replica(ctx: &mut Ctx, cap: usize) {
    let (mut record, mut verify) = (Duration::ZERO, Duration::ZERO);
    let (mut cases, mut points, mut ops, mut inconsistent) = (0u64, 0u64, 0u64, 0u64);
    for os in OsVariant::ALL {
        let registry = catalog::registry_for(os);
        let muts = catalog::catalog_for(os);
        let mut verifier = Verifier::new(os.machine_flavor());
        let mut runner = CaseRunner::new();
        let mut session = Session::new();
        for (m_idx, m) in muts.iter().enumerate() {
            let pools = campaign::resolve_pools(&registry, m);
            let plan = classic::plan_shared(&pools, cap, m.name);
            ctx.span("replica.crashcon.mut", m_idx as u64, |ctx| {
                let (mut rec_t, mut ver_t) = (Duration::ZERO, Duration::ZERO);
                let start = Instant::now();
                for combo in &plan.cases {
                    session.residue = 0;
                    let t0 = Instant::now();
                    let (_, log, truncated) = runner.execute_recorded(
                        os,
                        m,
                        &pools,
                        combo,
                        &mut session,
                        DEFAULT_FUEL_BUDGET,
                    );
                    let t1 = Instant::now();
                    let verdict = verifier.evaluate(&log, truncated);
                    let t2 = Instant::now();
                    rec_t += t1 - t0;
                    ver_t += t2 - t1;
                    points += u64::from(verdict.points);
                    inconsistent += u64::from(verdict.inconsistent);
                    ops += log.len() as u64;
                }
                let k = plan.cases.len() as u64;
                ctx.rollup("execute_recorded", start, k, rec_t);
                ctx.rollup("verify", start, k, ver_t);
                cases += k;
                record += rec_t;
                verify += ver_t;
            });
        }
    }
    let engine_points = ctx.metrics.get("crashcon.points").map_or(-1.0, |m| m.value);
    ctx.check(points as f64 == engine_points && inconsistent == 0, || {
        format!("crashcon replica judged {points} points ({inconsistent} inconsistent), the engine {engine_points}")
    });
    ctx.metric(
        "crashcon.record_ns_per_case",
        record.as_nanos() as f64 / cases.max(1) as f64,
        "ns",
        cases as usize,
    );
    ctx.metric(
        "crashcon.verify_ns_per_point",
        verify.as_nanos() as f64 / points.max(1) as f64,
        "ns",
        points as usize,
    );
    ctx.metric("crashcon.ops", ops as f64, "count", 1);
}

/// Samples of one journal replica.
#[derive(Default)]
struct JournalSamples {
    appends_ns: Vec<f64>,
    fsyncs_us: Vec<f64>,
}

/// The classic journal loop driven from outside: `Journal::append` per
/// executed case (every 256th append carries the fsync), then a torn
/// tail and `Journal::open_resume`.
fn journal_replica(ctx: &mut Ctx, cap: usize) {
    let os = JOURNAL_CLASSIC_OS;
    let cfg = classic::cfg(os, cap, 1);
    let hash = campaign::fingerprint(os, &cfg).as_u64();
    let path = ctx.scratch.join("replica.journal");
    let mut samples = JournalSamples::default();
    let result =
        journal_loop(ctx, os, cap, hash, &path, &mut samples).and_then(|(written, synced)| {
            let offset = cut(&path, derive_seed(ctx.seed, "modes.cut.replica"))?;
            let t = Instant::now();
            let (_, recovery) = Journal::open_resume(&path, hash)?;
            let recover_ms = t.elapsed().as_secs_f64() * 1e3;
            let expect = (offset - HEADER_LEN as u64) / RECORD_LEN as u64;
            Ok((
                written,
                synced,
                recover_ms,
                recovery.records.len() as u64,
                expect,
            ))
        });
    let _ = std::fs::remove_file(&path);
    match result {
        Ok((written, synced, recover_ms, replayed, expect)) => {
            ctx.check(replayed == expect, || {
                format!("journal recovery kept {replayed} records, expected {expect}")
            });
            let appended = samples.appends_ns.len() + samples.fsyncs_us.len();
            ctx.check(written as usize == appended, || {
                format!("journal holds {written} records, {appended} appended")
            });
            let a = stats::summarize(&samples.appends_ns);
            let f = stats::summarize(&samples.fsyncs_us);
            ctx.metric("journal.append_ns_p50", a.p50, "ns", a.n);
            ctx.metric("journal.append_ns_p99", a.p99, "ns", a.n);
            ctx.metric("journal.fsync_us_p50", f.p50, "us", f.n);
            ctx.metric("journal.fsync_us_p99", f.p99, "us", f.n);
            ctx.metric("journal.fsyncs", synced as f64, "count", 1);
            ctx.metric("journal.recover_ms", recover_ms, "ms", 1);
            ctx.metric("journal.replayed_records", replayed as f64, "count", 1);
        }
        Err(e) => ctx.op(false, || format!("journal replica I/O: {e}")),
    }
}

/// Executes the plan through a `CaseRunner` and appends every case to a
/// fresh journal, as the journaled engine does: (records, fsyncs).
fn journal_loop(
    ctx: &mut Ctx,
    os: OsVariant,
    cap: usize,
    hash: u64,
    path: &Path,
    samples: &mut JournalSamples,
) -> std::io::Result<(u64, u64)> {
    let mut journal = Journal::create(path, hash)?;
    let registry = catalog::registry_for(os);
    let muts = catalog::catalog_for(os);
    let mut runner = CaseRunner::new();
    let mut session = Session::new();
    for (m_idx, m) in muts.iter().enumerate() {
        let pools = campaign::resolve_pools(&registry, m);
        let plan = classic::plan_shared(&pools, cap, m.name);
        ctx.span(
            "replica.journal.mut",
            m_idx as u64,
            |ctx| -> std::io::Result<()> {
                let (mut exec_t, mut append_t) = (Duration::ZERO, Duration::ZERO);
                let start = Instant::now();
                let mut k = 0u64;
                for (c_idx, combo) in plan.cases.iter().enumerate() {
                    let t0 = Instant::now();
                    let r = runner.execute(os, m, &pools, combo, &mut session, DEFAULT_FUEL_BUDGET);
                    let rec = CaseRecord {
                        mut_idx: m_idx as u32,
                        case_idx: c_idx as u32,
                        packed: pack_case(r.raw, r.any_exceptional, r.residue_probed),
                        fuel: r.fuel_used,
                    };
                    let synced = journal.fsyncs();
                    let t1 = Instant::now();
                    journal.append(rec)?;
                    let t2 = Instant::now();
                    exec_t += t1 - t0;
                    append_t += t2 - t1;
                    k += 1;
                    if journal.fsyncs() > synced {
                        samples.fsyncs_us.push((t2 - t1).as_secs_f64() * 1e6);
                    } else {
                        samples.appends_ns.push((t2 - t1).as_nanos() as f64);
                    }
                    // The engine stops a MuT at its first Catastrophic case.
                    if r.class == FailureClass::Catastrophic {
                        break;
                    }
                }
                ctx.rollup("execute", start, k, exec_t);
                ctx.rollup("append", start, k, append_t);
                Ok(())
            },
        )?;
    }
    journal.sync()?;
    Ok((journal.len(), journal.fsyncs()))
}
