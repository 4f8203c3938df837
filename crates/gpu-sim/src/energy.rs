//! A first-order GPU energy model.
//!
//! The paper notes SeqPoint works with "any other statistic (or
//! collection of statistics) that varies with SL" (Section V-C). Energy
//! is the statistic hardware architects care about next after time; this
//! module derives per-kernel and per-trace energy from the quantities the
//! timing model already produces — compute work, cache/DRAM traffic, and
//! runtime (for static power).
//!
//! The coefficients are first-order public numbers for a 14 nm-class
//! GPU: ~10 pJ/flop core energy, ~15 pJ/B for DRAM (HBM2), ~1.5 pJ/B for
//! on-chip L2 transfers, and a static floor scaled by the active CU
//! count.

use serde::{Deserialize, Serialize};

use crate::{GpuConfig, KernelCounters, TraceProfile};

/// Energy coefficients. Construct with [`EnergyModel::default`] (14 nm
/// GPU-class numbers) or customize the fields directly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Core (ALU + register + LDS) energy per flop, in picojoules.
    pub pj_per_flop: f64,
    /// DRAM access energy per byte, in picojoules.
    pub pj_per_dram_byte: f64,
    /// L2/on-chip interconnect energy per byte, in picojoules.
    pub pj_per_l2_byte: f64,
    /// Static (leakage + always-on) power per compute unit, in watts.
    pub static_w_per_cu: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            pj_per_flop: 10.0,
            pj_per_dram_byte: 15.0,
            pj_per_l2_byte: 1.5,
            static_w_per_cu: 0.9,
        }
    }
}

impl EnergyModel {
    /// Energy of work summarized by `counters` executed over
    /// `wall_time_s` on `cfg`, in joules.
    ///
    /// Flops are recovered from the VALU instruction count (one
    /// lane-wide FMA per instruction).
    pub fn energy_j(&self, cfg: &GpuConfig, counters: &KernelCounters, wall_time_s: f64) -> f64 {
        let flops = counters.valu_insts * 2.0 * f64::from(cfg.lanes_per_cu());
        let dynamic = (flops * self.pj_per_flop
            + counters.dram_bytes * self.pj_per_dram_byte
            + counters.l2_bytes * self.pj_per_l2_byte)
            * 1e-12;
        let static_e = self.static_w_per_cu * f64::from(cfg.cu_count()) * wall_time_s.max(0.0);
        dynamic + static_e
    }

    /// Energy of a whole executed trace, in joules.
    pub fn trace_energy_j(&self, cfg: &GpuConfig, profile: &TraceProfile) -> f64 {
        self.energy_j(cfg, &profile.counters(), profile.total_time_s())
    }

    /// Average power of a trace, in watts (0 for an empty trace).
    pub fn trace_power_w(&self, cfg: &GpuConfig, profile: &TraceProfile) -> f64 {
        let t = profile.total_time_s();
        if t <= 0.0 {
            return 0.0;
        }
        self.trace_energy_j(cfg, profile) / t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::GemmShape;
    use crate::{AutotuneTable, Device, KernelTrace};

    fn gemm_profile(cfg: &GpuConfig, n: u64) -> TraceProfile {
        let device = Device::new(cfg.clone());
        let mut tuner = AutotuneTable::new();
        let k = tuner.gemm(cfg, GemmShape::new(2048, 1024, n));
        device.run_trace(&KernelTrace::from(vec![k]))
    }

    #[test]
    fn energy_is_positive_and_scales_with_work() {
        let cfg = GpuConfig::vega_fe();
        let model = EnergyModel::default();
        let small = model.trace_energy_j(&cfg, &gemm_profile(&cfg, 1024));
        let large = model.trace_energy_j(&cfg, &gemm_profile(&cfg, 8192));
        assert!(small > 0.0);
        assert!(large > 4.0 * small, "large {large} vs small {small}");
    }

    #[test]
    fn average_power_is_gpu_plausible() {
        // A large compute-bound GEMM on a 64-CU part should land in the
        // 100–400 W envelope of a real board.
        let cfg = GpuConfig::vega_fe();
        let model = EnergyModel::default();
        let power = model.trace_power_w(&cfg, &gemm_profile(&cfg, 16384));
        assert!((100.0..400.0).contains(&power), "power = {power} W");
    }

    #[test]
    fn disabling_l2_costs_energy_not_just_time() {
        let base = GpuConfig::vega_fe();
        let no_l2 = GpuConfig::builder("nl2").l2_mib(0).build().unwrap();
        let model = EnergyModel::default();
        // A streaming-with-forwarding kernel: loses its L2 hits.
        let k = crate::elementwise::map("add", 1 << 18, 1.0, 2);
        let device_a = Device::new(base.clone());
        let device_b = Device::new(no_l2.clone());
        let e_with = model.trace_energy_j(
            &base,
            &device_a.run_trace(&KernelTrace::from(vec![k.clone()])),
        );
        let e_without =
            model.trace_energy_j(&no_l2, &device_b.run_trace(&KernelTrace::from(vec![k])));
        assert!(e_without > e_with, "{e_without} vs {e_with}");
    }

    #[test]
    fn empty_trace_has_zero_power() {
        let cfg = GpuConfig::vega_fe();
        let model = EnergyModel::default();
        assert_eq!(model.trace_power_w(&cfg, &TraceProfile::new()), 0.0);
    }

    #[test]
    fn static_power_grows_with_cu_count() {
        let model = EnergyModel::default();
        let small = GpuConfig::builder("cu16").cu_count(16).build().unwrap();
        let big = GpuConfig::vega_fe();
        let counters = KernelCounters::default();
        assert!(model.energy_j(&big, &counters, 1.0) > model.energy_j(&small, &counters, 1.0));
    }
}
