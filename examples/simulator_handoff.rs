//! Section VII-A: hand SeqPoint iterations to an architecture simulator.
//!
//! Detailed cycle-level simulators cannot run hours of SQNN training, but
//! they can replay a handful of kernel traces. This example identifies
//! DS2's SeqPoints, exports one trace file per SeqPoint plus a weighted
//! manifest, then plays the role of the downstream simulator: it reads
//! the bundle back and reconstructs whole-training statistics via Eq. 1.
//!
//! ```text
//! cargo run --release --example simulator_handoff
//! ```

use seqpoint::prelude::*;
use seqpoint::sqnn_profiler::export::export_seqpoint_traces;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = Corpus::librispeech100_like(13);
    let small = Corpus::from_lengths("ls-demo", corpus.lengths()[..6_000].to_vec(), 29);
    let plan = EpochPlan::new(&small, BatchPolicy::sorted_first_epoch(64), 13)?;
    let network = ds2();
    let device = Device::new(GpuConfig::vega_fe());

    // Identify SeqPoints from one profiled epoch.
    let profile = Profiler::new().profile_epoch(&network, &plan, &device)?;
    let analysis = SeqPointPipeline::new().run(&profile.to_epoch_log())?;
    let points = analysis.seqpoints();
    println!(
        "{} SeqPoints represent {} iterations ({:.1} s of training)",
        points.len(),
        plan.iterations(),
        profile.training_time_s()
    );

    // Export the bundle a simulator would consume.
    let dir = std::env::temp_dir().join("seqpoint-handoff");
    let bundle =
        export_seqpoint_traces(&dir, &network, plan.batch_size(), points, device.config())?;
    println!("\nexported to {}:", dir.display());
    for path in &bundle.traces {
        let bytes = std::fs::metadata(path)?.len();
        println!(
            "  {} ({} KiB)",
            path.file_name().unwrap().to_string_lossy(),
            bytes / 1024
        );
    }

    // ---- The "simulator" side: replay traces, apply manifest weights.
    let manifest = std::fs::read_to_string(&bundle.manifest)?;
    let mut reconstructed = 0.0;
    println!("\nreplaying traces:");
    for line in manifest.lines() {
        let mut fields = line.split('\t');
        let file = fields.next().expect("manifest line has a file");
        let seq_len: u32 = fields.next().expect("has seq_len").parse()?;
        let weight: f64 = fields.next().expect("has weight").parse()?;
        let trace: seqpoint::gpu_sim::KernelTrace =
            seqpoint::gpu_sim::trace_format::read_trace(std::fs::File::open(dir.join(file))?)?
                .into();
        let t = device.run_trace(&trace).total_time_s();
        println!(
            "  SL {seq_len:>4}: {:>6} kernels, {t:.4} s x weight {weight}",
            trace.len()
        );
        reconstructed += t * weight;
    }
    println!(
        "\nreconstructed training time: {reconstructed:.2} s (measured {:.2} s, {:+.3}%)",
        profile.training_time_s(),
        (reconstructed / profile.training_time_s() - 1.0) * 100.0
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
