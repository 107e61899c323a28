//! The classic campaign path: the paper's seven-variant sweep on the
//! parallel engine, its checks, and the traced per-case replica.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ballista::campaign::{
    self, fingerprint, run_campaign, CampaignConfig, CampaignReport, MutTally,
};
use ballista::crash::{classify, pack_case};
use ballista::exec::{self, DEFAULT_FUEL_BUDGET};
use ballista::fleet::{execute_shard, ShardSpec};
use ballista::sampling::{self, CaseSet};
use ballista::{catalog, Mut, RawOutcome};
use serde::Deserialize;
use sim_kernel::clock::FuelMeter;
use sim_kernel::variant::OsVariant;
use sim_kernel::{MachineFlavor, MachineSnapshot};

use crate::calib::Readings;
use crate::{stats, Ctx, Phase, Size, THREADS};

/// The golden corpus cap (`results/golden/<os>.json`).
pub const GOLDEN_CAP: usize = 200;

/// Per-MuT cap of the sweep: the paper's 5000 at full size.
pub fn cap(size: Size) -> usize {
    match size {
        Size::Full => 5000,
        Size::Lite => 1000,
    }
}

/// The sweep's campaign config, as `run_all` runs it: isolation probes
/// on, raw outcomes recorded for desktop Windows.
pub fn cfg(os: OsVariant, cap: usize, parallelism: usize) -> CampaignConfig {
    CampaignConfig {
        cap,
        record_raw: OsVariant::DESKTOP_WINDOWS.contains(&os),
        isolation_probe: true,
        perfect_cleanup: false,
        parallelism,
        fuel_budget: 0,
    }
}

/// Every (variant, cap) whose plans the sweep executes.
pub fn plan_pairs(size: Size) -> Vec<(OsVariant, usize)> {
    OsVariant::ALL.iter().map(|&os| (os, cap(size))).collect()
}

/// One MuT's plan, computed without the process-wide plan cache.
fn plan_uncached(pools: &[Vec<ballista::value::TestValue>], cap: usize, name: &str) -> CaseSet {
    if pools.is_empty() {
        sampling::single_case()
    } else {
        let dims: Vec<usize> = pools.iter().map(Vec::len).collect();
        sampling::enumerate(&dims, cap, name)
    }
}

/// One MuT's plan through the engine's shared plan cache.
pub(crate) fn plan_shared(
    pools: &[Vec<ballista::value::TestValue>],
    cap: usize,
    name: &str,
) -> Arc<CaseSet> {
    if pools.is_empty() {
        Arc::new(sampling::single_case())
    } else {
        let dims: Vec<usize> = pools.iter().map(Vec::len).collect();
        sampling::enumerate_shared(&dims, cap, name)
    }
}

/// Builds catalogs, registries, pools and plans for `pairs` from scratch
/// (bypassing the plan cache), returning the time and the planned cases.
pub fn build_plans(pairs: &[(OsVariant, usize)]) -> (Duration, usize) {
    let t = Instant::now();
    let unique: BTreeSet<(OsVariant, usize)> = pairs.iter().copied().collect();
    let mut cases = 0;
    for (os, cap) in unique {
        let registry = catalog::registry_for(os);
        let muts = catalog::catalog_for(os);
        for m in &muts {
            let pools = campaign::resolve_pools(&registry, m);
            cases += black_box(plan_uncached(&pools, cap, m.name)).cases.len();
        }
    }
    (t.elapsed(), cases)
}

/// Boots one machine template per flavour.
pub fn boot_templates() {
    for flavor in [
        MachineFlavor::Posix,
        MachineFlavor::Windows,
        MachineFlavor::WindowsStrictAlign,
    ] {
        black_box(MachineSnapshot::boot(flavor));
    }
}

/// Fills the engine's plan cache for `pairs`, as a first campaign would.
pub fn warm(pairs: &[(OsVariant, usize)]) {
    for &(os, cap) in pairs {
        black_box(fingerprint(
            os,
            &CampaignConfig {
                cap,
                ..CampaignConfig::default()
            },
        ));
    }
}

#[derive(Deserialize)]
struct GoldenEntry {
    cap: usize,
    muts: Vec<MutTally>,
}

/// The serial engine at the golden cap must reproduce
/// `results/golden/<os>.json` on every variant.
pub fn check_golden(ctx: &mut Ctx) {
    let cfg = CampaignConfig {
        cap: GOLDEN_CAP,
        record_raw: true,
        isolation_probe: true,
        perfect_cleanup: false,
        parallelism: 1,
        fuel_budget: 0,
    };
    for os in OsVariant::ALL {
        let path = ctx
            .root
            .join(format!("results/golden/{}.json", os.short_name()));
        let golden: Result<GoldenEntry, String> = std::fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|b| serde_json::from_slice(&b).map_err(|e| e.to_string()));
        let report = run_campaign(os, &cfg);
        let same = golden.as_ref().is_ok_and(|g| {
            g.cap == GOLDEN_CAP
                && serde_json::to_string(&g.muts).ok() == serde_json::to_string(&report.muts).ok()
        });
        ctx.check(same, || {
            format!(
                "{os}: cap-{GOLDEN_CAP} tallies differ from {}",
                path.display()
            )
        });
    }
}

/// The sweep: each pass runs all seven variants in table order on the
/// parallel engine. Every pass must reproduce the first pass's tallies,
/// and the first pass must equal the serial reference engine's.
pub struct Classic {
    cap: usize,
    first: Option<Vec<CampaignReport>>,
    rates: Readings,
}

impl Classic {
    pub fn new(size: Size) -> Classic {
        Classic {
            cap: cap(size),
            first: None,
            rates: Readings::default(),
        }
    }
}

impl Phase for Classic {
    fn name(&self) -> &'static str {
        "classic"
    }

    fn pass(&mut self, ctx: &mut Ctx, n: u64) -> Duration {
        let cap = self.cap;
        let t = Instant::now();
        let mut cases = 0;
        let mut reports = Vec::with_capacity(OsVariant::ALL.len());
        for os in OsVariant::ALL {
            let report = ctx.span("run_campaign", n, |_| {
                run_campaign(os, &cfg(os, cap, THREADS))
            });
            cases += report.total_cases;
            reports.push(report);
        }
        let wall = t.elapsed();
        self.rates
            .push(cases as f64 / wall.as_secs_f64(), t, t + wall);
        if ctx.tracer.is_some() && !ctx.metrics.contains_key("restores_fast") {
            record_engine_stats(ctx, &reports);
        }
        for (i, r) in reports.iter().enumerate() {
            ctx.op(!r.degraded && r.warnings.is_empty(), || {
                format!("{}: degraded sweep campaign: {:?}", r.os, r.warnings)
            });
            if let Some(first) = &self.first {
                ctx.check(r.muts == first[i].muts, || {
                    format!("{}: pass {n} tallies differ from pass 0", r.os)
                });
            }
        }
        self.first.get_or_insert(reports);
        wall
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx) {
        let cap = self.cap;
        let first = self.first.expect("at least one pass ran");
        for (os, reference) in OsVariant::ALL.into_iter().zip(&first) {
            let serial = run_campaign(os, &cfg(os, cap, 1));
            ctx.check(serial.muts == reference.muts, || {
                format!(
                    "{os}: parallel-engine tallies differ from the serial reference at cap {cap}"
                )
            });
        }
        let rate = ctx.calib.rate(crate::calib::CLASSIC, &self.rates);
        ctx.scaled("classic_cases_per_s", rate, "cases/s", self.rates.len());
    }
}

/// Engine-reported provisioning and replay counts of one traced pass.
fn record_engine_stats(ctx: &mut Ctx, reports: &[CampaignReport]) {
    let sum = |f: fn(&ballista::campaign::CampaignStats) -> u64| -> f64 {
        reports
            .iter()
            .filter_map(|r| r.stats.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let fast = sum(|s| s.restores_fast);
    let full = sum(|s| s.restores_full);
    let boots = sum(|s| s.boots);
    let replayed = sum(|s| s.replayed_cases as u64);
    let probes = sum(|s| s.probe_provisions);
    ctx.metric("restores_fast", fast, "count", 1);
    ctx.metric("restores_full", full, "count", 1);
    ctx.metric("boots", boots, "count", 1);
    ctx.metric("replayed_cases", replayed, "count", 1);
    ctx.metric("probe_provisions", probes, "count", 1);
}

/// Per-layer totals of the replica pass.
#[derive(Default)]
struct Layers {
    cases: u64,
    restore: Duration,
    execute: Duration,
    classify: Duration,
    fuel: u64,
}

/// The traced per-case replica: the residue-zero clean pass driven from
/// outside — `MachineSnapshot::restore_into`, then `exec::execute_case_on`,
/// then `crash::classify` and `crash::pack_case` — over the sweep's plans
/// and fuel budget. Its records must equal `fleet::execute_shard`'s.
pub fn trace_layers(ctx: &mut Ctx, size: Size) {
    let cap = cap(size);
    let mut total = Layers::default();
    let mut wall = Duration::ZERO;
    for os in OsVariant::ALL {
        let t = Instant::now();
        let (layers, records) = ctx.span(&format!("replica.{}", os.short_name()), 0, |ctx| {
            replica(ctx, os, cap)
        });
        wall += t.elapsed();
        ctx.metric(
            format!("execute.ns_per_case.{}", os.short_name()),
            layers.execute.as_nanos() as f64 / layers.cases.max(1) as f64,
            "ns",
            layers.cases as usize,
        );
        let muts = catalog::catalog_for(os);
        let shard = execute_shard(&ShardSpec {
            os,
            cfg: cfg(os, cap, 1),
            mut_start: 0,
            mut_end: muts.len(),
            capture_fuel: true,
            crashcon: false,
            adaptive: None,
        });
        let same = shard.muts.len() == records.len()
            && shard
                .muts
                .iter()
                .zip(&records)
                .all(|(w, r)| w.as_ref().is_some_and(|w| &w.records == r));
        ctx.check(same, || {
            format!("{os}: replica records differ from fleet::execute_shard")
        });
        let shard_fuel: u64 = shard
            .muts
            .iter()
            .flatten()
            .filter_map(|w| w.fuel.as_ref())
            .flatten()
            .sum();
        ctx.check(shard_fuel == layers.fuel, || {
            format!(
                "{os}: replica fuel {} differs from execute_shard's {shard_fuel}",
                layers.fuel
            )
        });
        total.cases += layers.cases;
        total.restore += layers.restore;
        total.execute += layers.execute;
        total.classify += layers.classify;
        total.fuel += layers.fuel;
    }
    let per_case = |d: Duration| d.as_nanos() as f64 / total.cases.max(1) as f64;
    let n = total.cases as usize;
    ctx.metric("restore.ns_per_case", per_case(total.restore), "ns", n);
    ctx.metric("execute.ns_per_case", per_case(total.execute), "ns", n);
    ctx.metric("classify.ns_per_case", per_case(total.classify), "ns", n);
    ctx.metric(
        "restore.share",
        total.restore.as_secs_f64() / wall.as_secs_f64(),
        "ratio",
        n,
    );
    let attributed = (total.restore + total.execute + total.classify).as_secs_f64();
    ctx.metric(
        "campaign.unattributed_share",
        1.0 - attributed / wall.as_secs_f64(),
        "ratio",
        n,
    );
    ctx.metric("fuel.units", total.fuel as f64, "count", n);
    trace_fingerprint(ctx);
}

fn replica(ctx: &mut Ctx, os: OsVariant, cap: usize) -> (Layers, Vec<Vec<u8>>) {
    let registry = catalog::registry_for(os);
    let muts = catalog::catalog_for(os);
    let template = MachineSnapshot::boot(os.machine_flavor());
    let mut machine = template.restore();
    let mut layers = Layers::default();
    let mut records = Vec::with_capacity(muts.len());
    for (m_idx, m) in muts.iter().enumerate() {
        let pools = campaign::resolve_pools(&registry, m);
        let plan = plan_shared(&pools, cap, m.name);
        let recs = ctx.span("replica.mut", m_idx as u64, |ctx| {
            replica_mut(
                ctx,
                os,
                m,
                &pools,
                &plan,
                &template,
                &mut machine,
                &mut layers,
            )
        });
        records.push(recs);
    }
    (layers, records)
}

#[allow(clippy::too_many_arguments)]
fn replica_mut(
    ctx: &mut Ctx,
    os: OsVariant,
    m: &Mut,
    pools: &[Vec<ballista::value::TestValue>],
    plan: &CaseSet,
    template: &MachineSnapshot,
    machine: &mut sim_kernel::Kernel,
    layers: &mut Layers,
) -> Vec<u8> {
    let mut outcomes = Vec::with_capacity(plan.cases.len());
    let (mut restore, mut execute) = (Duration::ZERO, Duration::ZERO);
    let start = Instant::now();
    let mut t = start;
    for combo in &plan.cases {
        template.restore_into(machine);
        if !machine.is_alive() {
            *machine = template.restore();
        }
        machine.fuel = FuelMeter::with_budget(DEFAULT_FUEL_BUDGET);
        machine.residue = 0;
        let t1 = Instant::now();
        let r = exec::execute_case_on(machine, os, m, pools, combo);
        let t2 = Instant::now();
        restore += t1 - t;
        execute += t2 - t1;
        t = t2;
        layers.fuel += machine.fuel.consumed();
        outcomes.push((r.raw, r.any_exceptional, r.residue_probed));
        // The clean pass stops where the replay pass provably stops.
        if r.raw == RawOutcome::SystemCrash && !r.residue_probed {
            break;
        }
    }
    let n = outcomes.len() as u64;
    ctx.rollup("restore", start, n, restore);
    ctx.rollup("execute", start, n, execute);
    let tc = Instant::now();
    let records: Vec<u8> = outcomes
        .iter()
        .map(|&(raw, exc, probed)| {
            black_box(classify(raw, exc));
            pack_case(raw, exc, probed)
        })
        .collect();
    let classify_time = tc.elapsed();
    ctx.rollup("classify", tc, n, classify_time);
    layers.cases += n;
    layers.restore += restore;
    layers.execute += execute;
    layers.classify += classify_time;
    records
}

/// Cold (plan cache empty for the cap) and warm `campaign::fingerprint`.
fn trace_fingerprint(ctx: &mut Ctx) {
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    ctx.span("fingerprint", 0, |ctx| {
        for (k, os) in OsVariant::ALL.into_iter().enumerate() {
            let cfg = cfg(os, 4001 + k, THREADS);
            let t = Instant::now();
            let a = black_box(fingerprint(os, &cfg));
            cold.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let b = black_box(fingerprint(os, &cfg));
            warm.push(t.elapsed().as_secs_f64() * 1e6);
            ctx.check(a == b, || format!("{os}: fingerprint is not stable"));
        }
    });
    ctx.metric(
        "fingerprint.cold_ms",
        stats::median(&cold),
        "ms",
        cold.len(),
    );
    ctx.metric(
        "fingerprint.warm_us",
        stats::median(&warm),
        "us",
        warm.len(),
    );
}
