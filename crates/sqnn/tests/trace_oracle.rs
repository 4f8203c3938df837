//! `Device::run_trace` times each distinct kernel once and folds the
//! launches afterwards. This suite pins it against the per-launch
//! reference — time and record every launch on its own — bit for bit,
//! for every model on every Table II configuration, with and without
//! jitter.

use gpu_sim::{AutotuneTable, Device, GpuConfig, JitterModel, KernelTrace, TraceProfile};
use sqnn::models::{cnn_reference, conv_s2s, ds2, gnmt, seq2seq, transformer_base};
use sqnn::{IterationShape, Network};

/// The per-launch reference.
fn run_per_launch(device: &Device, trace: &KernelTrace) -> TraceProfile {
    let mut profile = TraceProfile::new();
    for (idx, kernel) in trace.iter().enumerate() {
        let (timing, counters) = device.run_kernel(kernel);
        let factor = match device.jitter() {
            Some(j) => j.factor(kernel.name(), idx as u64),
            None => 1.0,
        };
        profile.record(kernel, timing.time_s * factor, counters);
    }
    profile
}

fn models() -> Vec<Network> {
    vec![
        gnmt(),
        ds2(),
        cnn_reference(),
        conv_s2s(),
        seq2seq(),
        transformer_base(),
    ]
}

#[test]
fn run_trace_matches_the_per_launch_loop_bit_for_bit() {
    let shapes = [
        IterationShape::new(1, 1),
        IterationShape::with_lengths(4, 23, 31),
        IterationShape::new(8, 60),
    ];
    for net in models() {
        for cfg in GpuConfig::table2_configs() {
            let mut tuner = AutotuneTable::new();
            for shape in &shapes {
                let trace = net.iteration_trace(shape, &cfg, &mut tuner);
                assert!(trace.distinct() <= trace.len());
                for device in [
                    Device::new(cfg.clone()),
                    Device::with_jitter(cfg.clone(), JitterModel::new(0.02, 5)),
                ] {
                    let fast = device.run_trace(&trace);
                    let oracle = run_per_launch(&device, &trace);
                    let at = format!(
                        "{} on {} at {shape:?}, jitter {}",
                        net.name(),
                        cfg.name(),
                        device.jitter().is_some()
                    );
                    assert_eq!(
                        fast.total_time_s().to_bits(),
                        oracle.total_time_s().to_bits(),
                        "{at}"
                    );
                    // Debug prints each f64 in its shortest round-trip
                    // form, so equal dumps mean bit-equal profiles.
                    assert_eq!(format!("{fast:?}"), format!("{oracle:?}"), "{at}");
                }
            }
        }
    }
}

#[test]
fn unrolled_loops_intern_to_a_few_distinct_kernels() {
    let cfg = GpuConfig::vega_fe();
    let mut tuner = AutotuneTable::new();
    let trace = ds2().iteration_trace(&IterationShape::new(32, 400), &cfg, &mut tuner);
    assert!(trace.len() > 10_000, "{} launches", trace.len());
    assert!(
        trace.distinct() < 100,
        "{} distinct kernels",
        trace.distinct()
    );
}
