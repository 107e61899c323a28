//! Micro-benchmarks of the crashcon layer: one serial win95
//! `run_crashcon` at cap 200, and the crash-image verifier alone.
//!
//! The verifier benches time a batch of [`BATCH`] evaluations of one log
//! with `Verifier::evaluate` (each distinct log judged once, repeats
//! answered from the verdict memo) against `evaluate_ordered(.., None)`
//! (every crash point materialized and judged on every call). The two
//! logs are the commonest a campaign records: the empty log of a call
//! that failed argument validation, and `create, barrier`. The
//! `distinct` pair evaluates [`BATCH`] logs never seen before, so
//! `evaluate` misses on every one: the gap between the pair is the cost
//! of a miss (one hash of the log and one clone of it into the memo),
//! which a workload without repeated logs would pay on every case.

use ballista::campaign::CampaignConfig;
use ballista::crashcon::{run_crashcon, Verifier};
use criterion::{criterion_group, criterion_main, Criterion};
use sim_kernel::fs::FsOp;
use sim_kernel::variant::OsVariant;
use std::hint::black_box;

/// Evaluations per timed iteration of a verifier bench.
const BATCH: usize = 256;

/// `BATCH` logs of one create and a barrier each, distinct from every
/// other call's through the `stamp` in their timestamps.
fn distinct_logs(stamp: u64) -> Vec<Vec<FsOp>> {
    (0..BATCH)
        .map(|i| {
            vec![
                FsOp::CreateFile {
                    path: format!("/f{i}"),
                    content: Vec::new(),
                    at_ms: stamp,
                },
                FsOp::Barrier { at_ms: stamp + 1 },
            ]
        })
        .collect()
}

fn bench_crashcon(c: &mut Criterion) {
    let cfg = CampaignConfig {
        cap: 200,
        record_raw: false,
        isolation_probe: false,
        perfect_cleanup: false,
        parallelism: 1,
        fuel_budget: 0,
    };
    let os = OsVariant::Win95;
    let mut group = c.benchmark_group("crashcon");
    group.sample_size(10);
    group.bench_function("run_crashcon_win95_cap200", |b| {
        b.iter(|| black_box(run_crashcon(os, black_box(&cfg))))
    });

    let create_barrier = distinct_logs(1).swap_remove(0);
    for (name, log) in [("empty", Vec::new()), ("create_barrier", create_barrier)] {
        let mut verifier = Verifier::new(os.machine_flavor());
        group.bench_function(&format!("evaluate_{name}_x{BATCH}"), |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    black_box(verifier.evaluate(black_box(&log), false));
                }
            })
        });
        group.bench_function(&format!("evaluate_ordered_{name}_x{BATCH}"), |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    black_box(verifier.evaluate_ordered(black_box(&log), false, None));
                }
            })
        });
    }

    let mut verifier = Verifier::new(os.machine_flavor());
    let mut stamp = 0;
    group.bench_function(&format!("evaluate_distinct_x{BATCH}"), |b| {
        b.iter(|| {
            stamp += 2;
            for log in distinct_logs(stamp) {
                black_box(verifier.evaluate(&log, false));
            }
        })
    });
    group.bench_function(&format!("evaluate_ordered_distinct_x{BATCH}"), |b| {
        b.iter(|| {
            stamp += 2;
            for log in distinct_logs(stamp) {
                black_box(verifier.evaluate_ordered(&log, false, None));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_crashcon);
criterion_main!(benches);
