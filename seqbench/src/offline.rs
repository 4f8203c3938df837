//! Offline jobs: the untraced `seqpoint stream` path, the traced graph
//! assembly, and the operator and simulator passes over a traced job.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use seqpoint::gpu_sim::{AutotuneTable, Device};
use seqpoint::seqpoint_core::stream::StreamingSelector;
use seqpoint::seqpoint_service::spec;
use seqpoint::sqnn::{IterationShape, Network};
use seqpoint::sqnn_data::{BatchPolicy, EpochPlan};
use seqpoint::sqnn_profiler::pipeline::{
    CheckpointSink, Gate, KeyedMerge, NoopMeter, SaturationGate, StreamGraph,
};
use seqpoint::sqnn_profiler::stream::{
    stream_fingerprint, CheckpointOptions, RoundExecutor, ShardChunk, ShardReport, StreamOptions,
    StreamOutcome, StreamedEpochProfile, ThreadExecutor,
};
use seqpoint::sqnn_profiler::{IterationProfile, ProfileError, Profiler};

use crate::specs::{Job, CONFIG};
use crate::trace::Tracer;

/// A fresh checkpoint policy for `job` at `path` (any earlier file
/// removed, so the job starts from scratch), or `None` for jobs that do
/// not checkpoint.
pub fn fresh_checkpoint(
    job: &Job,
    path: &Path,
    max_rounds: Option<u64>,
) -> Option<CheckpointOptions> {
    let every_rounds = job.checkpoint_every?;
    remove_checkpoint(path);
    Some(CheckpointOptions {
        path: path.to_path_buf(),
        every_rounds,
        max_rounds,
    })
}

pub fn remove_checkpoint(path: &Path) {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(PathBuf::from(tmp));
}

/// Run `job` through `seqpoint stream`'s entry point: spec in, rendered
/// selection out.
pub fn run_untraced(job: &Job, checkpoint: Option<&CheckpointOptions>) -> Result<String, String> {
    seqpoint::cli::stream(
        job.model,
        job.dataset,
        job.samples,
        CONFIG as usize,
        job.seed,
        job.batch,
        &job.options(),
        checkpoint,
    )
    .map_err(|e| e.to_string())
}

/// One executed fold round, as the timing executor saw it.
pub struct RoundRecord {
    pub start_us: u64,
    pub end_us: u64,
    pub iterations: usize,
    pub reports: Vec<ShardReport>,
}

/// One on-demand shape measurement of the replay phase.
pub struct OnDemand {
    pub start_us: u64,
    pub end_us: u64,
    pub profile: IterationProfile,
}

/// A [`RoundExecutor`] that runs rounds on a [`ThreadExecutor`] and
/// records a span, the reports, and the per-shard memo misses of every
/// call the graph makes into it.
struct TimingExecutor<'t, 'a> {
    inner: ThreadExecutor<'a>,
    tracer: &'t Tracer,
    parent: Option<u64>,
    job: u64,
    /// Shapes each shard's memo holds, mirrored from the chunks it ran.
    shard_seen: Vec<HashSet<(u32, u32)>>,
    shape_sims: u64,
    rounds: Vec<RoundRecord>,
    on_demand: Vec<OnDemand>,
}

impl RoundExecutor for TimingExecutor<'_, '_> {
    fn execute_round(&mut self, chunks: &[ShardChunk]) -> Result<Vec<ShardReport>, ProfileError> {
        let open = self.tracer.open();
        let result = self.inner.execute_round(chunks);
        let span = self.tracer.close(open, "fold.round", self.parent, self.job);
        if let Ok(reports) = &result {
            for chunk in chunks {
                if self.shard_seen.len() <= chunk.shard {
                    self.shard_seen.resize_with(chunk.shard + 1, HashSet::new);
                }
                for batch in &chunk.batches {
                    if self.shard_seen[chunk.shard].insert((batch.seq_len, batch.samples)) {
                        self.shape_sims += 1;
                    }
                }
            }
            self.rounds.push(RoundRecord {
                start_us: span.start_us,
                end_us: span.end_us,
                iterations: chunks.iter().map(|c| c.batches.len()).sum(),
                reports: reports.clone(),
            });
        }
        result
    }

    fn profile_shape(&mut self, shape: IterationShape) -> Result<IterationProfile, ProfileError> {
        let open = self.tracer.open();
        let result = self.inner.profile_shape(shape);
        let span = self
            .tracer
            .close(open, "replay.on_demand", self.parent, self.job);
        if let Ok(profile) = &result {
            self.on_demand.push(OnDemand {
                start_us: span.start_us,
                end_us: span.end_us,
                profile: profile.clone(),
            });
        }
        result
    }

    fn seed_shapes(&mut self, shapes: &[IterationProfile]) {
        self.inner.seed_shapes(shapes);
        for seen in &mut self.shard_seen {
            seen.extend(shapes.iter().map(|p| (p.seq_len, p.samples)));
        }
    }
}

/// Everything a traced job leaves behind for the ledger and the passes.
pub struct TracedJob {
    pub id: u64,
    pub spec: Job,
    pub output: String,
    pub streamed: StreamedEpochProfile,
    pub network: Network,
    pub device: Device,
    pub plan: EpochPlan,
    pub options: StreamOptions,
    pub fingerprint: u64,
    pub rounds: Vec<RoundRecord>,
    pub on_demand: Vec<OnDemand>,
    pub shape_sims: u64,
    pub distinct_shapes: usize,
    pub graph_end_us: u64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Run `job` through the same graph `seqpoint stream` assembles, with a
/// span around each layer call: corpus and plan build, fingerprint,
/// the graph (fold rounds and on-demand shapes inside it), and render.
pub fn run_traced(
    job: &Job,
    checkpoint: Option<&CheckpointOptions>,
    tracer: &Tracer,
    id: u64,
) -> Result<TracedJob, String> {
    let root = tracer.open();
    let parent = Some(root.id);
    let network = spec::model_by_name(job.model).map_err(err)?;
    let device = spec::device_by_config(CONFIG).map_err(err)?;
    let profiler = Profiler::new();
    let corpus = tracer
        .time("dataset.corpus", parent, id, || {
            spec::corpus_by_name(job.dataset, job.samples, job.seed)
        })
        .map_err(err)?;
    let plan = tracer
        .time("dataset.plan", parent, id, || {
            EpochPlan::new(&corpus, BatchPolicy::shuffled(job.batch), job.seed)
        })
        .map_err(err)?;
    let options = job.options();
    let fingerprint = tracer.time("stream.fingerprint", parent, id, || {
        stream_fingerprint(&network, &plan, &device, &options)
    });
    let graph = tracer.open();
    let mut executor = TimingExecutor {
        inner: ThreadExecutor::new(
            &profiler,
            &network,
            device.clone(),
            options.stat,
            options.shards,
        ),
        tracer,
        parent: Some(graph.id),
        job: id,
        shard_seen: Vec::new(),
        shape_sims: 0,
        rounds: Vec::new(),
        on_demand: Vec::new(),
    };
    let mut assembled = StreamGraph::new(&mut executor, &plan, &options, fingerprint);
    if let Some(policy) = checkpoint {
        assembled = assembled.with_checkpoint(policy);
    }
    let outcome = assembled.run();
    let graph_span = tracer.close(graph, "graph.run", parent, id);
    let streamed = match outcome.map_err(err)? {
        StreamOutcome::Complete(profile) => profile,
        StreamOutcome::Paused(_) => return Err("traced job paused".to_owned()),
    };
    let output = tracer.time("render", parent, id, || {
        spec::render_streamed(job.model, job.dataset, CONFIG, &streamed)
    });
    tracer.close(root, "job", None, id);
    let distinct_shapes = executor
        .shard_seen
        .iter()
        .flatten()
        .collect::<HashSet<_>>()
        .len();
    let TimingExecutor {
        rounds,
        on_demand,
        shape_sims,
        ..
    } = executor;
    Ok(TracedJob {
        id,
        spec: job.clone(),
        output,
        streamed,
        network,
        device,
        plan,
        options,
        fingerprint,
        rounds,
        on_demand,
        shape_sims,
        distinct_shapes,
        graph_end_us: graph_span.end_us,
    })
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// µs spent in each operator while re-running a traced job's recorded
/// rounds outside the graph, totalled over the job.
#[derive(Debug)]
pub struct OperatorPass {
    pub absorb_us: f64,
    pub after_round_us: f64,
    pub on_round_us: f64,
    /// The replay loop: shape lookups and `observe_*` calls.
    pub observe_us: f64,
    pub finalize_us: f64,
    /// Iterations of the rounds merged before the gate stopped.
    pub merged_iterations: usize,
    /// Whether the pass selected exactly what the graph selected.
    pub same_selection: bool,
}

/// Feed a traced job's recorded [`ShardReport`]s through the public
/// operators in the graph's order — merge, gate and sink per round until
/// the gate stops, then the replay with the recorded on-demand profiles,
/// then the final selection — timing each call.
pub fn operator_pass(
    job: &TracedJob,
    checkpoint: Option<&CheckpointOptions>,
) -> Result<OperatorPass, String> {
    let meter = NoopMeter;
    let total = job.plan.iterations();
    let mut merge = KeyedMerge::new(&meter);
    let mut gate =
        SaturationGate::resume(StreamingSelector::with_config(job.options.stream), &meter);
    let mut sink = CheckpointSink::new(checkpoint, job.fingerprint, total, &meter);
    let mut absorb = Duration::ZERO;
    let mut after_round = Duration::ZERO;
    let mut on_round = Duration::ZERO;
    let mut observe = Duration::ZERO;
    if !gate.should_stop() {
        for round in &job.rounds {
            let started = Instant::now();
            let tracker = merge.absorb(&round.reports, round.iterations);
            absorb += started.elapsed();
            let started = Instant::now();
            let decision = gate.after_round(&tracker);
            after_round += started.elapsed();
            let started = Instant::now();
            sink.on_round(gate.selector(), &merge).map_err(err)?;
            on_round += started.elapsed();
            if decision.stop {
                break;
            }
        }
    }
    let merged_iterations = merge.consumed();
    let on_demand: HashMap<(u32, u32), &IterationProfile> = job
        .on_demand
        .iter()
        .map(|d| ((d.profile.seq_len, d.profile.samples), &d.profile))
        .collect();
    let stat = job.options.stat;
    while merge.consumed() < total {
        let start = merge.consumed();
        let end = (start + job.options.round_len).min(total);
        let started = Instant::now();
        for batch in job.plan.batches().get(start..end).unwrap_or_default() {
            let key = (batch.seq_len, batch.samples);
            match merge.lookup(key) {
                Some(profile) => gate.observe_replayed(profile.seq_len, profile.stat(stat)),
                None => {
                    let profile = (*on_demand
                        .get(&key)
                        .ok_or("replay needs a shape the graph never measured")?)
                    .clone();
                    gate.observe_measured(profile.seq_len, profile.stat(stat));
                    merge.record_on_demand(profile);
                }
            }
        }
        merge.set_consumed(end);
        observe += started.elapsed();
        let started = Instant::now();
        sink.on_round(gate.selector(), &merge).map_err(err)?;
        on_round += started.elapsed();
    }
    let started = Instant::now();
    let selection = gate.finalize().map_err(err)?;
    let finalize = started.elapsed();
    Ok(OperatorPass {
        absorb_us: micros(absorb),
        after_round_us: micros(after_round),
        on_round_us: micros(on_round),
        observe_us: micros(observe),
        finalize_us: micros(finalize),
        merged_iterations,
        same_selection: selection == job.streamed.selection,
    })
}

/// Per-shape cost of the simulator layers over one job's distinct
/// shapes.
#[derive(Debug, Default)]
pub struct SimulatorPass {
    pub trace_build_ms: Vec<f64>,
    pub run_trace_ms: Vec<f64>,
    pub profile_iteration_ms: Vec<f64>,
    pub kernels: Vec<f64>,
    pub distinct_kernel_names: Vec<f64>,
    /// Shapes whose fresh profile differs from the one the job used.
    pub mismatches: usize,
}

/// Time `Network::iteration_trace`, `Device::run_trace` and
/// `Profiler::profile_iteration` on every distinct shape a traced job
/// measured, and check each fresh profile against the job's.
pub fn simulator_pass(job: &TracedJob) -> SimulatorPass {
    let mut recorded: HashMap<(u32, u32), &IterationProfile> = HashMap::new();
    for round in &job.rounds {
        for report in &round.reports {
            for profile in &report.shapes {
                recorded.insert((profile.seq_len, profile.samples), profile);
            }
        }
    }
    for d in &job.on_demand {
        recorded.insert((d.profile.seq_len, d.profile.samples), &d.profile);
    }
    let mut keys: Vec<(u32, u32)> = recorded.keys().copied().collect();
    keys.sort_unstable();
    let profiler = Profiler::new();
    let mut pass = SimulatorPass::default();
    for key in keys {
        let shape = IterationShape::new(key.1, key.0);
        let started = Instant::now();
        let mut tuner = AutotuneTable::new();
        let trace = job
            .network
            .iteration_trace(&shape, job.device.config(), &mut tuner);
        pass.trace_build_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        std::hint::black_box(job.device.run_trace(std::hint::black_box(&trace)));
        pass.run_trace_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let profile = profiler.profile_iteration(&job.network, &shape, &job.device);
        pass.profile_iteration_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        pass.kernels.push(trace.len() as f64);
        let names: HashSet<&str> = trace.iter().map(|k| k.name()).collect();
        pass.distinct_kernel_names.push(names.len() as f64);
        if recorded.get(&key).map(|p| p.time_s.to_bits()) != Some(profile.time_s.to_bits()) {
            pass.mismatches += 1;
        }
    }
    pass
}
