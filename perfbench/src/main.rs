//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <sweep|modes|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run executes the three campaign paths a user waits on — the
//! classic sweep, the other campaign modes (crashcon, adaptive,
//! journaled) and the campaign server — so that every end-to-end metric
//! is measured on every workload. The workload picks which path runs at
//! full size; the other two run beside it at probe size. Every
//! end-to-end timing is reported at a reference host speed (see
//! `calib.rs`), with its raw reading printed beside it. With `--trace 1`
//! the run also drives each layer's public calls from this benchmark's
//! own code and reports the per-layer metrics instead. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See README.md.

mod calib;
mod classic;
mod host;
mod modes;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::{Calibrator, Readings, Scaled};
use sim_kernel::variant::OsVariant;
use trace::{Span, Tracer};

/// Worker threads of the parallel and crashcon engines.
pub const THREADS: usize = 2;
/// Keep-alive client connections driving the server.
pub const CLIENTS: usize = 2;
/// Fleet workers per served campaign.
pub const FLEET_WORKERS: usize = 2;

/// Share of the measured window that repeats the set-up.
const SETUP_SHARE: f64 = 0.06;

/// Shares of the measured window of the workload's own path and of each
/// of the other two. Every metric is gated on every workload, so the
/// probes get about as many passes as the own path.
const OWN_SHARE: f64 = 0.44;
const PROBE_SHARE: f64 = 0.25;

/// How large a phase runs in this workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The workload's own phase, at the sizes README.md lists.
    Full,
    /// A small reference probe of another workload's phase.
    Lite,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sweep,
    Modes,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "sweep" => Some(Workload::Sweep),
            "modes" => Some(Workload::Modes),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn size_of(self, phase: Workload) -> Size {
        if self == phase {
            Size::Full
        } else {
            Size::Lite
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// The raw reading of a timing scaled to the reference host.
    pub raw: Option<f64>,
}

/// Run-wide state every phase reports into.
pub struct Ctx {
    pub seed: u64,
    pub traced: bool,
    pub t0: Instant,
    /// Host-speed samples taken between passes.
    pub calib: Calibrator,
    pub tracer: Option<Tracer>,
    /// Spans recorded on other threads (the serve clients); their
    /// top-level spans belong under the `serve.pass` of the same group.
    pub thread_spans: Vec<Vec<Span>>,
    /// The traced serving session, for the cache replay.
    pub serve_log: Option<serve::SessionOut>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check mismatches; any makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Failed operations that are not output mismatches (a degraded
    /// report, a non-200 response, a worker death).
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
    /// Tracing overhead of each primary phase (traced wall over untraced
    /// wall, minus one).
    pub overheads: Vec<f64>,
    /// The repository root (the benchmark's checkout).
    pub root: PathBuf,
    /// Scratch directory for this run, removed at exit.
    pub scratch: PathBuf,
}

impl Ctx {
    /// Counts one output check as an attempted operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches.push(what());
        }
    }

    /// Counts one operation that can fail without a wrong output.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.insert(
            name.into(),
            Metric {
                value,
                unit,
                samples,
                raw: None,
            },
        );
    }

    /// Records a timing scaled to the reference host with its raw reading.
    pub fn scaled(
        &mut self,
        name: impl Into<String>,
        s: Scaled,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.insert(
            name.into(),
            Metric {
                value: s.value,
                unit,
                samples,
                raw: Some(s.raw),
            },
        );
    }

    /// Runs `f` inside a span when tracing.
    pub fn span<R>(&mut self, name: &str, group: u64, f: impl FnOnce(&mut Ctx) -> R) -> R {
        let id = self.tracer.as_mut().map(|t| t.begin(name, group));
        let out = f(self);
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), id) {
            t.end(id);
        }
        out
    }

    /// Folds `count` calls totalling `dur` into the `name` rollup of the
    /// innermost open span when tracing.
    pub fn rollup(&mut self, name: &'static str, start: Instant, count: u64, dur: Duration) {
        if let Some(t) = self.tracer.as_mut() {
            t.rollup(name, start, count, dur);
        }
    }
}

/// A 64-bit mix of the workload seed and a stream label, so every seeded
/// input (serve mix, explore seed, journal cuts) draws independently.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut h = splitmix(seed);
    for b in label.bytes() {
        h = splitmix(h ^ u64::from(b));
    }
    h
}

/// One step of SplitMix64.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One measured campaign path, run pass by pass by [`interleave`].
pub trait Phase {
    /// The span and metric label of the phase.
    fn name(&self) -> &'static str;
    /// Runs one pass and returns the wall time of its timed region.
    fn pass(&mut self, ctx: &mut Ctx, n: u64) -> Duration;
    /// Post-run checks (outside every timed region) and metrics.
    fn finish(self: Box<Self>, ctx: &mut Ctx);
}

/// The set-up: catalogs, registries, pools and plans from scratch, one
/// template boot per flavour and a server bind over an empty cache
/// directory. It runs once before the measured window and then repeats
/// inside it as a phase of its own, so `setup_s`, the median of every
/// set-up scaled to the reference host, has many samples.
struct Setup {
    pairs: Vec<(OsVariant, usize)>,
    secs: Readings,
    plan_ms: Vec<f64>,
    plan_cases: usize,
    last: Duration,
}

impl Setup {
    fn once(&mut self, ctx: &Ctx) -> ballista::server::Server {
        let t = Instant::now();
        let (plan_time, cases) = classic::build_plans(&self.pairs);
        classic::boot_templates();
        let server = serve::bind(ctx, self.secs.len());
        self.last = t.elapsed();
        self.secs.push(self.last.as_secs_f64(), t, Instant::now());
        self.plan_ms.push(plan_time.as_secs_f64() * 1e3);
        self.plan_cases = cases;
        server
    }
}

impl Phase for Setup {
    fn name(&self) -> &'static str {
        "setup"
    }

    fn pass(&mut self, ctx: &mut Ctx, _n: u64) -> Duration {
        drop(self.once(ctx));
        self.last
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx) {
        let setup = ctx.calib.time(calib::SETUP, &self.secs);
        ctx.scaled("setup_s", setup, "s", self.secs.len());
        if ctx.traced {
            ctx.metric(
                "plan.ms",
                stats::median(&self.plan_ms),
                "ms",
                self.plan_ms.len(),
            );
            ctx.metric("plan.cases", self.plan_cases as f64, "count", 1);
        }
    }
}

/// A phase with its share of the measured time.
pub struct Slot {
    pub phase: Box<dyn Phase>,
    /// Fraction of `--seconds` the phase should get.
    pub share: f64,
    /// Passes each round must run at least.
    pub min: usize,
    /// Whether this is the workload's own phase (used for the tracing
    /// overhead).
    pub primary: bool,
    used: Duration,
    passes: u64,
    walls: [Vec<f64>; 2],
}

impl Slot {
    pub fn new(phase: Box<dyn Phase>, share: f64, min: usize, primary: bool) -> Slot {
        Slot {
            phase,
            share,
            min,
            primary,
            used: Duration::ZERO,
            passes: 0,
            walls: [Vec::new(), Vec::new()],
        }
    }
}

/// Runs the slots' passes interleaved for `budget`: the next pass goes to
/// the slot furthest behind its share (deficit round-robin), so every
/// phase samples the whole measured window and a burst of host noise
/// hits all of them alike. A host-speed sample precedes every pass and
/// follows the last. Each slot runs at least `min` passes. In a
/// traced run every other pass of a slot runs untraced; the primary
/// slots' median traced and untraced pass walls give the tracing
/// overhead, from samples spread over the same window.
pub fn interleave(ctx: &mut Ctx, mut slots: Vec<Slot>, budget: Duration) {
    let mut tracer = ctx.tracer.take();
    let start = Instant::now();
    loop {
        let pending = slots.iter().position(|s| s.passes < s.min as u64);
        let next = match pending {
            Some(i) => i,
            None if start.elapsed() >= budget => break,
            None => (0..slots.len())
                .min_by(|&a, &b| {
                    let da = slots[a].used.as_secs_f64() / slots[a].share;
                    let db = slots[b].used.as_secs_f64() / slots[b].share;
                    da.total_cmp(&db)
                })
                .expect("at least one slot"),
        };
        ctx.calib.sample();
        let slot = &mut slots[next];
        let n = slot.passes;
        let traced = tracer.is_some() && n % 2 == 1;
        if traced {
            ctx.tracer = tracer.take();
        }
        let t = Instant::now();
        let name = format!("{}.pass", slot.phase.name());
        let wall = ctx.span(&name, n, |ctx| slot.phase.pass(ctx, n));
        slot.used += t.elapsed();
        slot.passes += 1;
        slot.walls[usize::from(traced)].push(wall.as_secs_f64());
        if traced {
            tracer = ctx.tracer.take();
        }
    }
    ctx.calib.sample();
    ctx.tracer = tracer;
    for slot in slots {
        if ctx.traced && slot.primary {
            let share = stats::median(&slot.walls[1]) / stats::median(&slot.walls[0]) - 1.0;
            ctx.overheads.push(share);
        }
        slot.phase.finish(ctx);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <sweep|modes|serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf();
    if !root.join("results/golden").is_dir() {
        eprintln!(
            "perfbench: no results/golden under {}; run from a full checkout",
            root.display()
        );
        return ExitCode::from(2);
    }
    let scratch = root
        .join("perfbench/out")
        .join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let t0 = Instant::now();
    let mut ctx = Ctx {
        seed: args.seed,
        traced: args.trace,
        t0,
        calib: Calibrator::default(),
        tracer: args.trace.then(|| Tracer::new(t0, 0)),
        thread_spans: Vec::new(),
        serve_log: None,
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
        failures: Vec::new(),
        metrics: BTreeMap::new(),
        overheads: Vec::new(),
        root,
        scratch: scratch.clone(),
    };
    run(&mut ctx, &args);
    let _ = std::fs::remove_dir_all(&scratch);
    emit(&ctx, &args);
    ExitCode::SUCCESS
}

fn run(ctx: &mut Ctx, args: &Args) {
    let w = args.workload;
    let sizes = (
        w.size_of(Workload::Sweep),
        w.size_of(Workload::Modes),
        w.size_of(Workload::Serve),
    );
    let cpu0 = host::cpu_seconds();
    let jiffies0 = host::cpu_jiffies();
    let wall0 = Instant::now();

    // Set-up; this first one's server serves the run.
    let pairs = classic::plan_pairs(sizes.0)
        .into_iter()
        .chain(modes::plan_pairs(sizes.1))
        .collect::<Vec<_>>();
    let mut setup = Setup {
        pairs,
        secs: Readings::default(),
        plan_ms: Vec::new(),
        plan_cases: 0,
        last: Duration::ZERO,
    };
    ctx.calib.sample();
    let server = setup.once(ctx);
    ctx.calib.sample();

    // Output checks against the pinned references, outside every timed
    // region; then the engine's own plan cache is warmed for the phases.
    ctx.span("checks.golden", 0, |ctx| {
        classic::check_golden(ctx);
        modes::check_golden(ctx);
    });
    classic::warm(&setup.pairs);

    // The measured region: the workload's own path gets 44% of it, each
    // probe 25% and the repeated set-up 6%, all interleaved pass by pass
    // over the whole window.
    let total = Duration::from_secs(args.seconds);
    let share = |size: Size| {
        if size == Size::Full {
            OWN_SHARE
        } else {
            PROBE_SHARE
        }
    };
    let mut slots = vec![Slot::new(
        Box::new(classic::Classic::new(sizes.0)),
        share(sizes.0),
        2,
        sizes.0 == Size::Full,
    )];
    slots.extend(modes::slots(ctx, sizes.1, share(sizes.1)));
    let serve = serve::Serve::new(ctx, server);
    slots.push(Slot::new(
        Box::new(serve),
        share(sizes.2),
        2,
        sizes.2 == Size::Full,
    ));
    slots.push(Slot::new(Box::new(setup), SETUP_SHARE, 1, false));
    interleave(ctx, slots, total);

    if ctx.traced {
        ctx.metric(
            "trace.overhead_share",
            stats::median(&ctx.overheads),
            "ratio",
            ctx.overheads.len(),
        );
        classic::trace_layers(ctx, sizes.0);
        modes::trace_layers(ctx, sizes.1);
        serve::trace_layers(ctx);
        let cpu = host::cpu_seconds() - cpu0;
        let wall = wall0.elapsed().as_secs_f64();
        let jiffies = host::cpu_jiffies();
        let total_j = jiffies.1.saturating_sub(jiffies0.1).max(1);
        let (one_ms, all_ms, n) = ctx.calib.medians();
        ctx.metric("host.kernel_one_ms", one_ms, "ms", n);
        ctx.metric("host.kernel_all_ms", all_ms, "ms", n);
        ctx.metric("cpu_s", cpu, "s", 1);
        ctx.metric("cpu_per_wall", cpu / wall, "ratio", 1);
        ctx.metric(
            "host.steal_share",
            jiffies.0.saturating_sub(jiffies0.0) as f64 / total_j as f64,
            "ratio",
            1,
        );
        write_trace(ctx, args);
    } else {
        ctx.metric("peak_rss_mb", host::peak_rss_mb(), "MiB", 1);
    }
}

/// Writes the Chrome trace and the self-time table under `perfbench/out/`
/// and reports each phase's unattributed remainder.
fn write_trace(ctx: &mut Ctx, args: &Args) {
    let main = ctx.tracer.take().expect("traced run").into_spans();
    let spans = trace::merge(main, std::mem::take(&mut ctx.thread_spans), "serve.pass");
    let table = trace::self_time_table(&spans);
    for (phase, span) in [
        ("classic", "classic.pass"),
        ("crashcon", "crashcon.pass"),
        ("adaptive", "adaptive.pass"),
        ("journal", "journal.pass"),
        ("serve", "serve.pass"),
    ] {
        let row = table.get(span).copied().unwrap_or_default();
        let share = row.self_ns as f64 / row.total_ns.max(1) as f64;
        ctx.metric(
            format!("unattributed.{phase}_share"),
            share,
            "ratio",
            row.calls as usize,
        );
    }
    let dir = ctx.root.join("perfbench/out");
    let stem = format!("trace-{}-{}", workload_name(args.workload), args.seed);
    let chrome = dir.join(format!("{stem}.json"));
    let text = dir.join(format!("{stem}.selftime.txt"));
    if let Err(e) = std::fs::write(&chrome, trace::chrome_trace(&spans))
        .and_then(|()| std::fs::write(&text, trace::render_table(&table)))
    {
        eprintln!("perfbench: could not write the trace: {e}");
    } else {
        println!(
            "trace: {} ({} spans), self times: {}",
            chrome.display(),
            spans.len(),
            text.display()
        );
    }
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::Sweep => "sweep",
        Workload::Modes => "modes",
        Workload::Serve => "serve",
    }
}

/// Every end-to-end metric, in the order `BENCHMARK.json` lists them.
/// `journaled_cases_per_s` is reported with the per-layer set: its
/// fsync-bound path swings with the shared disk far beyond any bound.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "peak_rss_mb",
    "classic_cases_per_s",
    "crashcon_points_per_s",
    "adaptive_cases_per_s",
    "hit_p50_us",
    "hit_p90_us",
    "miss_p50_ms",
    "serve_requests_per_s",
];

fn emit(ctx: &Ctx, args: &Args) {
    for m in &ctx.mismatches {
        println!("MISMATCH: {m}");
    }
    for f in &ctx.failures {
        println!("FAILED OP: {f}");
    }
    let keys: Vec<&String> = if args.trace {
        ctx.metrics
            .keys()
            .filter(|k| !END_TO_END.contains(&k.as_str()))
            .collect()
    } else {
        ctx.metrics
            .keys()
            .filter(|k| END_TO_END.contains(&k.as_str()))
            .collect()
    };
    let (one_ms, all_ms, n) = ctx.calib.medians();
    println!("host: reference kernel {one_ms:.4} ms on one thread, {all_ms:.4} ms on all (medians of {n})");
    println!(
        "workload {} seed {} seconds {} trace {}: {} ops attempted, {} failed",
        workload_name(args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.attempted,
        ctx.failed
    );
    let mut finite = true;
    let mut json = String::new();
    for k in &keys {
        let m = &ctx.metrics[*k];
        let raw = m.raw.map(|r| format!(", raw {r:.4}")).unwrap_or_default();
        println!(
            "  {k:<34} {:>16.4} {:<8} (n={}{raw})",
            m.value, m.unit, m.samples
        );
        finite &= m.value.is_finite();
        if !json.is_empty() {
            json.push(',');
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        json.push_str(&format!(
            "\"{k}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.unit
        ));
    }
    if !finite {
        println!("MISMATCH: a metric could not be measured (non-finite value)");
    }
    let correct = ctx.mismatches.is_empty() && finite;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        ctx.attempted.max(1),
        ctx.failed
    );
}
