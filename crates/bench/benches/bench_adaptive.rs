//! Micro-benchmark of the adaptive explore phase: one full
//! `adaptive::explore` on win95 at cap 200 with the default knobs
//! (8 rounds, 20 786 explore cases). Explore is single-threaded and
//! runs once per adaptive campaign — in process, in every fleet worker
//! and on every adaptive server miss — so its per-case bookkeeping
//! (weighted draws, feedback fold, coverage) sits on top of the
//! simulated work `bench_restore` measures. Divide the per-iteration
//! time by the explore case count for the cost per case.

use ballista::adaptive::{explore, AdaptiveConfig};
use ballista::campaign::CampaignConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use sim_kernel::variant::OsVariant;
use std::hint::black_box;

fn bench_adaptive(c: &mut Criterion) {
    let cfg = CampaignConfig {
        cap: 200,
        record_raw: false,
        isolation_probe: false,
        perfect_cleanup: false,
        parallelism: 1,
        fuel_budget: 0,
    };
    let acfg = AdaptiveConfig::default();
    let mut group = c.benchmark_group("adaptive");
    group.sample_size(10);
    group.bench_function("explore_win95_cap200", |b| {
        b.iter(|| black_box(explore(OsVariant::Win95, black_box(&cfg), &acfg)))
    });
    group.finish();
}

criterion_group!(benches, bench_adaptive);
criterion_main!(benches);
