//! Micro-benchmarks of the JSON layer on the paths a user waits on: the
//! campaign spec every `POST /campaign` parses (its serialize is what a
//! client pays), the `/metrics` body, a cap-200 Win98 campaign report
//! (serialized on every cache miss and stored, parsed by clients), and
//! one fleet shard's result on the worker wire.

use ballista::campaign::{run_campaign, CampaignConfig, CampaignReport};
use ballista::fleet::{execute_shard, ShardResult, ShardSpec};
use ballista::server::{CampaignSpec, ServerMetrics};
use criterion::{criterion_group, criterion_main, Criterion};
use sim_kernel::variant::OsVariant;
use std::hint::black_box;

fn bench_json(c: &mut Criterion) {
    let mut group = c.benchmark_group("json");

    // A full spec as perfbench's serve clients post it (199 bytes).
    let spec = CampaignSpec {
        cap: 200,
        ..CampaignSpec::new(OsVariant::Win98)
    };
    let spec_bytes = serde_json::to_vec(&spec).expect("spec serializes");
    group.sample_size(100_000);
    group.bench_function("spec_parse", |b| {
        b.iter(|| serde_json::from_slice::<CampaignSpec>(black_box(&spec_bytes)).expect("parses"))
    });
    group.bench_function("spec_serialize", |b| {
        b.iter(|| serde_json::to_vec(black_box(&spec)).expect("serializes"))
    });
    let metrics = ServerMetrics {
        uptime_ms: 123_456,
        campaign_posts: 98_765,
        cache_hits: 97_000,
        ..ServerMetrics::default()
    };
    group.bench_function("server_metrics_serialize", |b| {
        b.iter(|| serde_json::to_vec(black_box(&metrics)).expect("serializes"))
    });

    // The report a cap-200 Win98 miss serializes (about 53 KB).
    let report = run_campaign(
        OsVariant::Win98,
        &CampaignConfig {
            cap: 200,
            ..CampaignConfig::default()
        },
    );
    let report_bytes = serde_json::to_vec(&report).expect("report serializes");
    group.sample_size(300);
    group.bench_function("report_serialize_win98_cap200", |b| {
        b.iter(|| serde_json::to_vec(black_box(&report)).expect("serializes"))
    });
    group.bench_function("report_parse_win98_cap200", |b| {
        b.iter(|| {
            serde_json::from_slice::<CampaignReport>(black_box(&report_bytes)).expect("parses")
        })
    });

    // One shard of eight Win98 MuTs at cap 200, as a worker returns it.
    let shard = execute_shard(&ShardSpec {
        os: OsVariant::Win98,
        cfg: CampaignConfig {
            cap: 200,
            ..CampaignConfig::default()
        },
        mut_start: 0,
        mut_end: 8,
        capture_fuel: false,
        crashcon: false,
        adaptive: None,
    });
    let shard_bytes = shard.to_wire();
    group.sample_size(3_000);
    group.bench_function("shard_result_to_wire", |b| {
        b.iter(|| black_box(&shard).to_wire())
    });
    group.bench_function("shard_result_from_wire", |b| {
        b.iter(|| ShardResult::from_wire(black_box(&shard_bytes)).expect("parses"))
    });

    group.finish();
    println!(
        "bench: json sizes: spec {} B, report {} B, shard {} B",
        spec_bytes.len(),
        report_bytes.len(),
        shard_bytes.len()
    );
}

criterion_group!(benches, bench_json);
criterion_main!(benches);
