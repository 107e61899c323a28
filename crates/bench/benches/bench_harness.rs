//! Micro-benchmarks of the testing machinery itself: machine boot,
//! test-case enumeration and planning, campaign fingerprints, pool
//! construction, single-case execution and the hot simulated-API paths.

use ballista::campaign::{fingerprint, resolve_pools, CampaignConfig};
use ballista::exec::Session;
use ballista::sampling;
use criterion::{criterion_group, criterion_main, Criterion};
use sim_kernel::variant::OsVariant;
use sim_kernel::Kernel;
use std::hint::black_box;

fn bench_harness(c: &mut Criterion) {
    let mut group = c.benchmark_group("harness");

    // Per-test isolation cost: booting a fresh simulated machine.
    group.bench_function("kernel_boot_posix", |b| {
        b.iter(|| black_box(Kernel::new()))
    });
    group.bench_function("kernel_boot_windows", |b| {
        b.iter(|| black_box(Kernel::with_flavor(sim_kernel::kernel::MachineFlavor::Windows)))
    });

    // Case enumeration: exhaustive and capped sampling.
    group.bench_function("enumerate_exhaustive_3k", |b| {
        b.iter(|| black_box(sampling::enumerate(black_box(&[14, 14, 8]), 5000, "bench")))
    });
    group.bench_function("enumerate_sampled_5k_of_60k", |b| {
        b.iter(|| {
            black_box(sampling::enumerate(
                black_box(&[9, 9, 9, 9, 9]),
                sampling::PAPER_CAP,
                "bench",
            ))
        })
    });

    // Plans by prefix: every win98 MuT planned at cap 200 once cap 1000
    // has drawn its sample streams (each plan a slice), and the cap-200
    // fingerprint (a fold over the prepared catalog, no plan drawn).
    let registry = ballista::catalog::registry_for(OsVariant::Win98);
    let muts = ballista::catalog::catalog_for(OsVariant::Win98);
    let signatures: Vec<(&str, Vec<usize>)> = muts
        .iter()
        .map(|m| {
            let dims = resolve_pools(&registry, m).iter().map(Vec::len).collect();
            (m.name, dims)
        })
        .filter(|(_, dims): &(_, Vec<usize>)| !dims.is_empty())
        .collect();
    for (name, dims) in &signatures {
        black_box(sampling::plan(dims, 1000, name));
    }
    group.bench_function("plan_slice_warm", |b| {
        b.iter(|| {
            for (name, dims) in &signatures {
                black_box(sampling::plan(dims, black_box(200), name));
            }
        })
    });
    let cap200 = CampaignConfig {
        cap: 200,
        ..CampaignConfig::default()
    };
    group.bench_function("fingerprint_win98_cap200", |b| {
        b.iter(|| black_box(fingerprint(OsVariant::Win98, black_box(&cap200))))
    });

    // Pool resolution (constructor closures + inheritance).
    group.bench_function("resolve_handle_pool", |b| {
        b.iter(|| black_box(registry.pool(black_box("HANDLE"))))
    });

    // One full test case end-to-end (the campaign inner loop).
    let strlen = muts.iter().find(|m| m.name == "strlen").expect("in catalog");
    let pools = resolve_pools(&registry, strlen);
    group.bench_function("execute_case_strlen", |b| {
        let mut session = Session::new();
        b.iter(|| {
            black_box(ballista::exec::execute_case(
                OsVariant::Win98,
                strlen,
                &pools,
                &[0],
                &mut session,
            ))
        })
    });

    // Hot simulated-API paths.
    group.bench_function("simulated_readfile_4k", |b| {
        let mut k = Kernel::with_flavor(sim_kernel::kernel::MachineFlavor::Windows);
        let profile = sim_win32::Win32Profile::for_os(OsVariant::WinNt4);
        k.fs.create_file("C:\\TEMP\\bench.bin", vec![0xA5; 4096]).expect("fresh fs");
        let ofd = k
            .fs
            .open("C:\\TEMP\\bench.bin", sim_kernel::fs::OpenOptions::read_only())
            .expect("exists");
        let h = k.objects.insert(sim_kernel::objects::ObjectKind::File(ofd));
        let buf = k.alloc_user(4096, "bench");
        let nread = k.alloc_user(4, "nread");
        b.iter(|| {
            let _ = k
                .fs
                .seek(ofd, sim_kernel::fs::SeekFrom::Start(0))
                .expect("seekable");
            black_box(
                sim_win32::fileapi::ReadFile(&mut k, profile, h, buf, 4096, nread, sim_core::SimPtr::NULL)
                    .expect("robust call"),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_harness);
criterion_main!(benches);
