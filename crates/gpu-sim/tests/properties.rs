//! Property-based invariants of the GPU timing model.
//!
//! These protect the relationships every experiment depends on: more
//! hardware never makes a kernel slower, caches never hurt, traffic never
//! drops below the compulsory footprint, and timing is deterministic.

use gpu_sim::gemm::{self, GemmShape};
use gpu_sim::{
    kernel_time, AutotuneTable, CacheModel, Device, GpuConfig, KernelDesc, KernelKind, KernelTrace,
};
use proptest::prelude::*;

fn arb_kernel() -> impl Strategy<Value = KernelDesc> {
    (
        0u8..8,
        1.0e3..1.0e12_f64,
        0.0..1.0e9_f64,
        0.0..1.0e9_f64,
        0.0..1.0_f64,
        1.0..1.0e7_f64,
        0.0..1.0_f64,
        1.0..1.0e8_f64,
        1.0..1.0e5_f64,
        0.05..1.0_f64,
    )
        .prop_map(
            |(kind_idx, flops, reads, writes, l1_loc, l1_ws, l2_loc, l2_ws, wgs, eff)| {
                let kind = KernelKind::all()[kind_idx as usize % KernelKind::all().len()];
                KernelDesc::builder(format!("prop_{}", kind.label()), kind)
                    .flops(flops)
                    .read_bytes(reads)
                    .write_bytes(writes)
                    .l1_reuse(l1_loc, l1_ws)
                    .l2_reuse(l2_loc, l2_ws)
                    .workgroups(wgs)
                    .efficiency(eff)
                    .build()
            },
        )
}

fn arb_gemm_shape() -> impl Strategy<Value = GemmShape> {
    (1u64..8192, 1u64..8192, 1u64..65536).prop_map(|(m, k, n)| GemmShape::new(m, k, n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn time_is_positive_and_finite(k in arb_kernel()) {
        for cfg in GpuConfig::table2_configs() {
            let t = kernel_time(&cfg, &k);
            prop_assert!(t.time_s.is_finite());
            prop_assert!(t.time_s >= cfg.launch_overhead_s());
        }
    }

    #[test]
    fn faster_clock_never_slower(k in arb_kernel()) {
        let base = GpuConfig::vega_fe();
        let slow = GpuConfig::builder("slow").gclk_ghz(0.852).build().unwrap();
        prop_assert!(kernel_time(&slow, &k).time_s >= kernel_time(&base, &k).time_s - 1e-15);
    }

    #[test]
    fn more_cus_never_slower(k in arb_kernel()) {
        let base = GpuConfig::vega_fe();
        let few = GpuConfig::builder("cu16").cu_count(16).build().unwrap();
        prop_assert!(kernel_time(&few, &k).time_s >= kernel_time(&base, &k).time_s - 1e-15);
    }

    #[test]
    fn disabling_caches_never_faster(k in arb_kernel()) {
        let base = GpuConfig::vega_fe();
        let no_l1 = GpuConfig::builder("nl1").l1_kib_per_cu(0).build().unwrap();
        let no_l2 = GpuConfig::builder("nl2").l2_mib(0).build().unwrap();
        let t = kernel_time(&base, &k).time_s;
        prop_assert!(kernel_time(&no_l1, &k).time_s >= t - 1e-15);
        prop_assert!(kernel_time(&no_l2, &k).time_s >= t - 1e-15);
    }

    #[test]
    fn dram_traffic_at_least_footprint(k in arb_kernel()) {
        for cfg in GpuConfig::table2_configs() {
            let cm = CacheModel::evaluate(&cfg, &k);
            prop_assert!(cm.dram_bytes + 1e-9 >= k.footprint_bytes());
            prop_assert!(cm.dram_bytes <= k.read_bytes() + k.write_bytes() + 1e-9);
            prop_assert!((0.0..=1.0).contains(&cm.l1_hit_rate));
            prop_assert!((0.0..=1.0).contains(&cm.l2_hit_rate));
        }
    }

    #[test]
    fn trace_time_is_sum_of_kernels(k in arb_kernel(), copies in 1usize..20) {
        let device = Device::new(GpuConfig::vega_fe());
        let trace: Vec<KernelDesc> = std::iter::repeat_with(|| k.clone()).take(copies).collect();
        let profile = device.run_trace(&KernelTrace::from(trace));
        let single = device.run_kernel(&k).0.time_s;
        prop_assert!((profile.total_time_s() - single * copies as f64).abs()
                     <= 1e-9 * profile.total_time_s().max(1e-30));
        prop_assert_eq!(profile.launches(), copies as u64);
    }

    #[test]
    fn gemm_flops_preserved_by_every_variant(shape in arb_gemm_shape()) {
        for v in gemm::VARIANTS {
            let k = gemm::kernel_for(shape, "nn", v);
            prop_assert!((k.flops() - shape.flops()).abs() < 1e-6 * shape.flops().max(1.0));
            prop_assert!(k.footprint_bytes() <= k.read_bytes() + k.write_bytes() + 1e-9);
        }
    }

    #[test]
    fn autotune_is_idempotent(shape in arb_gemm_shape()) {
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let first = tuner.gemm(&cfg, shape);
        let cost = tuner.tuning_cost_s();
        let second = tuner.gemm(&cfg, shape);
        prop_assert_eq!(first, second);
        prop_assert_eq!(tuner.tuning_cost_s(), cost);
    }

    #[test]
    fn gemm_runtime_monotone_in_n(m in 1u64..4096, k in 1u64..4096, n in 1u64..16384) {
        // Same layer at a longer sequence length (larger N) never runs
        // faster — the basis of the paper's Fig. 9 linearity.
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let small = tuner.gemm(&cfg, GemmShape::new(m, k, n));
        let large = tuner.gemm(&cfg, GemmShape::new(m, k, n * 2));
        prop_assert!(kernel_time(&cfg, &large).time_s
                     >= kernel_time(&cfg, &small).time_s - 1e-12);
    }
}
