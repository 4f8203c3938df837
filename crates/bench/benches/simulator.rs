//! Microbenches of the GPU-simulator substrate: kernel timing, trace
//! execution, trace generation, and full-epoch profiling throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::gemm::GemmShape;
use gpu_sim::{AutotuneTable, Device, GpuConfig, KernelTrace};
use sqnn::models::{ds2, gnmt};
use sqnn::IterationShape;
use sqnn_data::{BatchPolicy, Corpus, EpochPlan};
use sqnn_profiler::Profiler;
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    let cfg = GpuConfig::vega_fe();
    let mut tuner = AutotuneTable::new();
    let kernel = tuner.gemm(&cfg, GemmShape::new(4096, 1024, 6400));
    group.bench_function("kernel_time", |b| {
        b.iter(|| black_box(gpu_sim::kernel_time(&cfg, &kernel).time_s))
    });
    group.bench_function("gemm_autotune_cold", |b| {
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let mut t = AutotuneTable::new();
            black_box(t.gemm(&cfg, GemmShape::new(4096, 1024, 64 + n)))
        })
    });
    group.bench_function("energy_model", |b| {
        let device = Device::new(cfg.clone());
        let profile = device.run_trace(&KernelTrace::from(vec![kernel.clone()]));
        let model = gpu_sim::energy::EnergyModel::default();
        b.iter(|| black_box(model.trace_energy_j(&cfg, &profile)))
    });
    group.bench_function("trace_format_round_trip", |b| {
        let mut t = AutotuneTable::new();
        let trace: Vec<_> = (0..100)
            .map(|i| t.gemm(&cfg, GemmShape::new(256 + i, 256, 256)))
            .collect();
        b.iter(|| {
            let mut buf = Vec::new();
            gpu_sim::trace_format::write_trace(&mut buf, &trace).expect("write");
            black_box(
                gpu_sim::trace_format::read_trace(&buf[..])
                    .expect("read")
                    .len(),
            )
        })
    });
    group.finish();
}

fn bench_traces(c: &mut Criterion) {
    let mut group = c.benchmark_group("traces");
    group.sample_size(20);
    let cfg = GpuConfig::vega_fe();
    let device = Device::new(cfg.clone());
    for (name, net) in [("gnmt", gnmt()), ("ds2", ds2())] {
        let mut tuner = AutotuneTable::new();
        let shape = IterationShape::new(64, 100);
        let trace = net.iteration_trace(&shape, &cfg, &mut tuner);
        group.bench_with_input(
            BenchmarkId::new("generate_iteration_trace", name),
            &net,
            |b, net| {
                let mut tuner = AutotuneTable::new();
                b.iter(|| black_box(net.iteration_trace(&shape, &cfg, &mut tuner).len()))
            },
        );
        group.bench_with_input(BenchmarkId::new("run_trace", name), &trace, |b, trace| {
            b.iter(|| black_box(device.run_trace(trace).total_time_s()))
        });
    }
    // One whole DS2 iteration at a long SL: trace build plus timing, the
    // per-shape cost of the streaming fold (~40k launches, a few dozen
    // distinct kernels).
    let profiler = Profiler::new();
    let net = ds2();
    let shape = IterationShape::new(32, 1600);
    group.bench_function("profile_iteration/ds2_sl1600", |b| {
        b.iter(|| black_box(profiler.profile_iteration(&net, &shape, &device).time_s))
    });
    group.finish();
}

fn bench_epoch_profiling(c: &mut Criterion) {
    let mut group = c.benchmark_group("profiling");
    group.sample_size(10);
    let corpus = Corpus::iwslt15_like(3_000, 5);
    let plan = EpochPlan::new(&corpus, BatchPolicy::bucketed(64, 16), 5).expect("non-empty");
    let device = Device::new(GpuConfig::vega_fe());
    let net = gnmt();
    group.bench_function("profile_epoch_gnmt_3k", |b| {
        b.iter(|| {
            black_box(
                Profiler::new()
                    .profile_epoch(&net, &plan, &device)
                    .expect("non-empty")
                    .training_time_s(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_traces, bench_epoch_profiling);
criterion_main!(benches);
