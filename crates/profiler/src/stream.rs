//! Streaming epoch profiling with sharded logs, saturation early stop,
//! and checkpoint/resume.
//!
//! [`crate::Profiler::profile_epoch`] materializes the whole epoch in
//! memory on one device. This module is the scalable counterpart: the
//! epoch plan is consumed in rounds ([`sqnn_data::EpochPlan::rounds`]),
//! each round's iterations are dealt round-robin to worker shards that
//! profile concurrently on their own thread (one simulated device each,
//! as in [`crate::parallel`]), and the per-shard
//! [`OnlineSlTracker`] states are merged into a
//! [`StreamingSelector`] after every round, before the next round is
//! dealt, so a stop or pause never wastes a measured round. Once the
//! sequence-length space saturates, the harness stops *executing*
//! iterations and keeps consuming the rest of the plan as free shape
//! metadata: an iteration whose `(seq_len, samples)` shape was already
//! profiled is replayed against the recorded statistic (the paper's key
//! observation 4 — identical shapes behave identically), and a
//! never-seen shape is profiled on demand. Whole-epoch counts *and*
//! per-SL statistic sums stay exact, so the selection matches the
//! full-epoch path while only a fraction of the iterations were ever
//! executed — and the full per-iteration epoch log never exists
//! anywhere.
//!
//! # Placement abstraction
//!
//! *Where* a round's shard chunks execute is behind the
//! [`RoundExecutor`] trait: [`ThreadExecutor`] runs one scoped thread
//! per shard in this process (the classic `seqpoint stream` path), and
//! `seqpoint_service` provides a subprocess implementation that ships
//! each [`ShardChunk`] to a `seqpoint worker` process over a Unix
//! socket and collects [`ShardReport`]s serialized in the checkpoint
//! interchange format. Selection is executor independent: chunks are
//! dealt by [`deal_round`]'s global round-robin rule and merged in
//! shard order, so any two executors produce bit-identical selections.
//!
//! # Fault tolerance
//!
//! [`profile_epoch_streaming_checkpointed`] persists the complete run
//! state — selector (compensated statistic sums included), consumed
//! position, memoized shape profiles, and cost accounting — to a JSON
//! checkpoint file, atomically (write-temp-then-rename) every
//! [`CheckpointOptions::every_rounds`] rounds. When the file already
//! exists the run resumes from it instead of starting over, and the
//! resumed run's stop decision, selection, and cost totals are
//! bit-identical to an uninterrupted run's. The checkpoint embeds a
//! fingerprint of the plan/network/device/options, so a stale file from
//! a different run configuration is rejected instead of silently
//! corrupting the selection. The worker shard count is deliberately
//! *not* fingerprinted: selection is shard-count independent, so a run
//! may resume on a machine with more or fewer workers. A stale
//! `<path>.tmp` sibling left by a crash between write and rename is
//! removed on startup before the resume check.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use gpu_sim::Device;
use seqpoint_core::online::OnlineSlTracker;
use seqpoint_core::stream::{StreamConfig, StreamingAnalysis, StreamingSelector};
use serde::{Deserialize, Serialize};
use sqnn::{IterationShape, Network};
use sqnn_data::{BatchShape, EpochPlan};

use crate::pipeline::StreamGraph;
use crate::{IterationProfile, ProfileError, Profiler, StatKind};

/// How the streaming harness shards and paces ingestion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamOptions {
    /// Worker shards profiling concurrently (≥ 1).
    pub shards: usize,
    /// Iterations ingested per round before the merged early-stop check
    /// (≥ 1).
    pub round_len: usize,
    /// Which per-iteration statistic feeds the selection.
    pub stat: StatKind,
    /// Early-stop thresholds and the selection pipeline configuration.
    pub stream: StreamConfig,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            shards: 4,
            round_len: 64,
            stat: StatKind::Runtime,
            stream: StreamConfig::default(),
        }
    }
}

/// Checkpoint policy for [`profile_epoch_streaming_checkpointed`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointOptions {
    /// Checkpoint file. Resumed from automatically when it exists;
    /// written atomically (`<path>.tmp` + rename) during the run.
    pub path: PathBuf,
    /// Write the checkpoint every this many processed rounds (≥ 1).
    pub every_rounds: u32,
    /// Stop after this many rounds processed *in this invocation*,
    /// persisting state and returning [`StreamOutcome::Paused`] — a
    /// cooperative preemption hook (and the test harness's kill switch).
    pub max_rounds: Option<u64>,
}

impl CheckpointOptions {
    /// Checkpoint to `path` every 8 rounds, with no pause limit.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointOptions {
            path: path.into(),
            every_rounds: 8,
            max_rounds: None,
        }
    }
}

/// Format version of [`StreamCheckpoint`] files.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The persisted state of a streamed profiling run: everything needed to
/// resume bit-identically after a crash or preemption.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamCheckpoint {
    pub(crate) version: u32,
    pub(crate) fingerprint: u64,
    pub(crate) selector: StreamingSelector,
    pub(crate) consumed: u64,
    pub(crate) shapes: Vec<IterationProfile>,
    pub(crate) profiled_serial_s: f64,
    pub(crate) profiled_wall_s: f64,
}

impl StreamCheckpoint {
    /// The selector state at the checkpoint.
    pub fn selector(&self) -> &StreamingSelector {
        &self.selector
    }

    /// Plan iterations fully processed (measured or replayed) so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Distinct `(seq_len, samples)` shapes profiled so far.
    pub fn shapes_profiled(&self) -> usize {
        self.shapes.len()
    }
}

/// The outcome of one streamed profiling run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedEpochProfile {
    /// The selection over the streamed counts, with measured/total
    /// iteration accounting.
    pub selection: StreamingAnalysis,
    /// Worker shards used.
    pub shards: usize,
    /// Profiling cost when the measured iterations run back to back on
    /// one machine, in (simulated) seconds.
    pub profiled_serial_s: f64,
    /// Profiling wall time with the shards running concurrently: per
    /// round, the slowest shard bounds the round; on-demand measurements
    /// in the replay phase run serially.
    pub profiled_wall_s: f64,
}

impl StreamedEpochProfile {
    /// Speedup of sharding the profiling itself (serial ÷ wall).
    pub fn shard_speedup(&self) -> f64 {
        if self.profiled_wall_s <= 0.0 {
            return 1.0;
        }
        self.profiled_serial_s / self.profiled_wall_s
    }
}

/// Where a checkpointed run stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamPause {
    /// Rounds merged into the selector so far (across all invocations).
    pub rounds_ingested: u32,
    /// Plan iterations fully processed so far.
    pub iterations_consumed: u64,
    /// Iterations in the whole plan.
    pub iterations_total: u64,
    /// The checkpoint file holding the persisted state.
    pub path: PathBuf,
}

/// Result of a checkpointed streaming run: finished, or paused with
/// state persisted for a later resume.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum StreamOutcome {
    /// The run finished; the selection is final.
    Complete(StreamedEpochProfile),
    /// [`CheckpointOptions::max_rounds`] was reached (or an interrupt
    /// fired); re-run with the same checkpoint path to continue.
    Paused(StreamPause),
}

/// One shard's slice of a round, as dealt by the global round-robin rule
/// ([`deal_round`]). This is the unit of work a [`RoundExecutor`] places
/// on a thread, a subprocess, or (eventually) a remote node.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardChunk {
    /// Shard index within the round (0-based, dense).
    pub shard: usize,
    /// The batches this shard must profile, in stream order.
    pub batches: Vec<BatchShape>,
}

/// What one shard reports back after executing its chunk. Reports are
/// merged in shard order, so two executors that produce identical
/// per-chunk trackers produce bit-identical selections.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Per-SL observations over the chunk (one [`OnlineSlTracker`]
    /// `observe` per batch, in chunk order).
    pub tracker: OnlineSlTracker,
    /// Simulated seconds the chunk's iterations take back to back
    /// (memoized iterations still charge their full runtime, as the
    /// paper's cost accounting does).
    pub chunk_time_s: f64,
    /// The distinct `(seq_len, samples)` shapes appearing in the chunk,
    /// with their profiles — the runner unions these into the replay
    /// memo and the checkpoint.
    pub shapes: Vec<IterationProfile>,
}

/// Placement abstraction for the streaming harness: something that can
/// execute one round's shard chunks and profile a single shape on
/// demand. Implementations must be deterministic per shape — the same
/// `(seq_len, samples)` must always produce the same profile — which
/// holds for the simulated device and is what makes executor placement
/// invisible to the selection.
pub trait RoundExecutor {
    /// Execute every chunk of one round and return the reports in shard
    /// order (`reports[i]` answers `chunks[i]`).
    ///
    /// # Errors
    ///
    /// [`ProfileError::Executor`] when the placement layer loses a
    /// worker or cannot complete the round; the caller may retry from
    /// its last checkpoint.
    fn execute_round(&mut self, chunks: &[ShardChunk]) -> Result<Vec<ShardReport>, ProfileError>;

    /// Profile one iteration shape (the replay phase's on-demand path
    /// for shapes never seen during the measured rounds).
    ///
    /// # Errors
    ///
    /// [`ProfileError::Executor`] when the placement layer cannot
    /// complete the measurement.
    fn profile_shape(&mut self, shape: IterationShape) -> Result<IterationProfile, ProfileError>;

    /// Seed already-profiled shapes (from a resumed checkpoint) into the
    /// executor's memo, so resuming avoids re-simulating them. Profiles
    /// are deterministic per shape, so ignoring the seeds changes cost
    /// and selection by nothing — only wall-clock time.
    fn seed_shapes(&mut self, shapes: &[IterationProfile]) {
        let _ = shapes;
    }
}

/// The in-process [`RoundExecutor`]: one scoped thread per shard, each
/// with its own `(seq_len, samples)` profile memo, all on clones of one
/// simulated device — exactly the placement `seqpoint stream` has always
/// used.
pub struct ThreadExecutor<'a> {
    profiler: &'a Profiler,
    network: &'a Network,
    device: Device,
    stat: StatKind,
    memos: Vec<HashMap<(u32, u32), IterationProfile>>,
}

impl<'a> ThreadExecutor<'a> {
    /// An executor running `shards` concurrent worker threads.
    pub fn new(
        profiler: &'a Profiler,
        network: &'a Network,
        device: Device,
        stat: StatKind,
        shards: usize,
    ) -> Self {
        ThreadExecutor {
            profiler,
            network,
            device,
            stat,
            memos: vec![HashMap::new(); shards.max(1)],
        }
    }
}

impl RoundExecutor for ThreadExecutor<'_> {
    fn execute_round(&mut self, chunks: &[ShardChunk]) -> Result<Vec<ShardReport>, ProfileError> {
        if chunks.len() != self.memos.len() {
            return Err(ProfileError::Executor {
                message: format!(
                    "round has {} chunks but the executor holds {} shards",
                    chunks.len(),
                    self.memos.len()
                ),
            });
        }
        let profiler = self.profiler;
        let network = self.network;
        let device = &self.device;
        let stat = self.stat;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .memos
                .iter_mut()
                .zip(chunks)
                .map(|(memo, chunk)| {
                    let device = device.clone();
                    scope
                        .spawn(move || execute_chunk(profiler, network, &device, stat, memo, chunk))
                })
                .collect();
            // Join every shard before looking at any result: a handle left
            // unjoined would re-raise its panic when the scope ends.
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            joined
                .into_iter()
                .map(|result| {
                    result.map_err(|_| ProfileError::Executor {
                        message: "profiling shard panicked".to_owned(),
                    })
                })
                .collect()
        })
    }

    fn profile_shape(&mut self, shape: IterationShape) -> Result<IterationProfile, ProfileError> {
        Ok(self
            .profiler
            .profile_iteration(self.network, &shape, &self.device))
    }

    fn seed_shapes(&mut self, shapes: &[IterationProfile]) {
        for memo in &mut self.memos {
            memo.extend(shapes.iter().map(|p| ((p.seq_len, p.samples), p.clone())));
        }
    }
}

/// Profile one shard chunk against a memo: the shared leaf both the
/// thread executor and `seqpoint worker` subprocesses run, so their
/// reports are bit-identical by construction.
pub fn execute_chunk(
    profiler: &Profiler,
    network: &Network,
    device: &Device,
    stat: StatKind,
    memo: &mut HashMap<(u32, u32), IterationProfile>,
    chunk: &ShardChunk,
) -> ShardReport {
    let mut tracker = OnlineSlTracker::new();
    let mut chunk_time_s = 0.0;
    let mut shape_keys: Vec<(u32, u32)> = Vec::new();
    let mut shapes: Vec<IterationProfile> = Vec::new();
    for batch in &chunk.batches {
        let key = (batch.seq_len, batch.samples);
        let profile = memo.entry(key).or_insert_with(|| {
            let shape = IterationShape::new(batch.samples, batch.seq_len);
            profiler.profile_iteration(network, &shape, device)
        });
        tracker.observe(profile.seq_len, profile.stat(stat));
        chunk_time_s += profile.time_s;
        if !shape_keys.contains(&key) {
            shape_keys.push(key);
            shapes.push(profile.clone());
        }
    }
    ShardReport {
        tracker,
        chunk_time_s,
        shapes,
    }
}

/// Deal one round block to `shards` chunks by **global** iteration index
/// (`index % shards` — exactly [`sqnn_data::EpochPlan::shard`]'s rule),
/// where `consumed` is the global index of the block's first iteration.
/// Worker `s`'s chunk is a contiguous slice of `plan.shard(s, shards)`,
/// and the union of all chunks is the block itself.
pub fn deal_round(block: &[BatchShape], consumed: usize, shards: usize) -> Vec<ShardChunk> {
    let shards = shards.max(1);
    (0..shards)
        .map(|shard| {
            // First block index dealt to this shard under the global
            // round-robin rule.
            let start = (shard + shards - consumed % shards) % shards;
            ShardChunk {
                shard,
                batches: block.iter().skip(start).step_by(shards).copied().collect(),
            }
        })
        .collect()
}

/// FNV-1a accumulation helper for the run fingerprint.
fn fnv_mix(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Fingerprint of everything that determines a streamed run's results —
/// plan contents, network, device, statistic, round length, and stop
/// thresholds — but *not* the shard count (selection is shard-count
/// independent, so resumes may reshard).
pub fn stream_fingerprint(
    network: &Network,
    plan: &EpochPlan,
    device: &Device,
    options: &StreamOptions,
) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    fnv_mix(&mut hash, network.name().as_bytes());
    fnv_mix(&mut hash, plan.dataset().as_bytes());
    fnv_mix(&mut hash, &plan.batch_size().to_le_bytes());
    for batch in plan.batches() {
        fnv_mix(&mut hash, &batch.seq_len.to_le_bytes());
        fnv_mix(&mut hash, &batch.samples.to_le_bytes());
    }
    let device_json = serde::json::to_string(device).expect("device serialization is infallible");
    fnv_mix(&mut hash, device_json.as_bytes());
    let stream_json =
        serde::json::to_string(&options.stream).expect("config serialization is infallible");
    fnv_mix(&mut hash, stream_json.as_bytes());
    fnv_mix(&mut hash, options.stat.label().as_bytes());
    fnv_mix(&mut hash, &(options.round_len as u64).to_le_bytes());
    hash
}

pub(crate) fn checkpoint_error(path: &Path, message: impl Into<String>) -> ProfileError {
    ProfileError::Checkpoint {
        path: path.display().to_string(),
        message: message.into(),
    }
}

/// The `<path>.tmp` sibling used for atomic checkpoint writes.
pub(crate) fn tmp_sibling(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Atomically persist a checkpoint: write the JSON to `<path>.tmp`, then
/// rename over `path`, so a crash mid-write never leaves a torn file.
pub(crate) fn write_checkpoint(
    path: &Path,
    checkpoint: &StreamCheckpoint,
) -> Result<(), ProfileError> {
    let json =
        serde::json::to_string(checkpoint).map_err(|e| checkpoint_error(path, e.to_string()))?;
    let tmp = tmp_sibling(path);
    std::fs::write(&tmp, json)
        .map_err(|e| checkpoint_error(path, format!("writing temp file: {e}")))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| checkpoint_error(path, format!("renaming into place: {e}")))?;
    Ok(())
}

pub(crate) fn read_checkpoint(path: &Path) -> Result<StreamCheckpoint, ProfileError> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| checkpoint_error(path, format!("reading: {e}")))?;
    let checkpoint: StreamCheckpoint =
        serde::json::from_str(&json).map_err(|e| checkpoint_error(path, e.to_string()))?;
    // A parseable but internally inconsistent file (hand-edited, or from
    // a buggy writer) must fail here, not panic later mid-run.
    checkpoint.selector.validate().map_err(|reason| {
        checkpoint_error(path, format!("inconsistent selector state: {reason}"))
    })?;
    Ok(checkpoint)
}

/// Profile an epoch plan in streaming mode: sharded, round-paced, and
/// early-stopped once the SL space saturates.
///
/// Iterations are dealt to shards round-robin by **global** iteration
/// index (`index % shards` — exactly [`sqnn_data::EpochPlan::shard`]'s
/// rule, so worker `s`'s measured sub-stream is a prefix of
/// `plan.shard(s, shards)`), and the union measured after `r` rounds is
/// the plan's first `r * round_len` iterations regardless of the shard
/// count — sharded and unsharded runs select the same SeqPoints.
/// Per-shard `(seq_len, samples)` memoization mirrors
/// [`Profiler::profile_epoch`]; memoized iterations still charge their
/// full simulated runtime to the profiling cost, as the paper does.
///
/// # Errors
///
/// * [`ProfileError::EmptyPlan`] — the plan has no iterations.
/// * [`ProfileError::InvalidStream`] — zero `shards`/`round_len`/
///   `quantization`, or a negative/non-finite unseen threshold.
/// * [`ProfileError::Selection`] — the selection pipeline rejected the
///   streamed counts (e.g. unmet error threshold at `max_k`).
pub fn profile_epoch_streaming(
    profiler: &Profiler,
    network: &Network,
    plan: &EpochPlan,
    device: &Device,
    options: &StreamOptions,
) -> Result<StreamedEpochProfile, ProfileError> {
    let mut executor = ThreadExecutor::new(
        profiler,
        network,
        device.clone(),
        options.stat,
        options.shards,
    );
    let fingerprint = stream_fingerprint(network, plan, device, options);
    match profile_epoch_streaming_with(&mut executor, plan, options, fingerprint, None, None)? {
        StreamOutcome::Complete(profile) => Ok(profile),
        // Pausing needs a checkpoint policy, and this entry point has none.
        StreamOutcome::Paused(pause) => Err(checkpoint_error(
            &pause.path,
            "cannot pause without a checkpoint policy",
        )),
    }
}

/// [`profile_epoch_streaming`] with crash tolerance: state is persisted
/// to [`CheckpointOptions::path`] every
/// [`CheckpointOptions::every_rounds`] rounds, and a run whose
/// checkpoint file already exists resumes from it — reaching the exact
/// `stopped_at`, selection, and cost totals of an uninterrupted run.
///
/// # Errors
///
/// As [`profile_epoch_streaming`], plus
/// [`ProfileError::Checkpoint`] for unreadable, torn, version-skewed, or
/// configuration-mismatched checkpoint files, and
/// [`ProfileError::InvalidStream`] for a zero `every_rounds`.
pub fn profile_epoch_streaming_checkpointed(
    profiler: &Profiler,
    network: &Network,
    plan: &EpochPlan,
    device: &Device,
    options: &StreamOptions,
    checkpoint: &CheckpointOptions,
) -> Result<StreamOutcome, ProfileError> {
    let mut executor = ThreadExecutor::new(
        profiler,
        network,
        device.clone(),
        options.stat,
        options.shards,
    );
    let fingerprint = stream_fingerprint(network, plan, device, options);
    profile_epoch_streaming_with(
        &mut executor,
        plan,
        options,
        fingerprint,
        Some(checkpoint),
        None,
    )
}

/// The placement-generic streaming runner: everything
/// [`profile_epoch_streaming_checkpointed`] does, but rounds execute on
/// the given [`RoundExecutor`] — threads, subprocess workers, or
/// anything else that honors the determinism contract.
///
/// `fingerprint` guards checkpoint resume compatibility; compute it with
/// [`stream_fingerprint`] so in-process and service runs can exchange
/// checkpoints.
///
/// `interrupt` is polled at round boundaries; when it returns `true`
/// *and* a checkpoint policy is present, the run persists its state and
/// returns [`StreamOutcome::Paused`] — the graceful-drain hook
/// `seqpoint serve` uses on SIGTERM. Without a checkpoint policy the
/// hook is ignored (there is nowhere to persist the pause).
///
/// Rounds run one at a time on the calling thread: each round is
/// executed, merged, checked against the stop rule, and checkpointed
/// before the pause check for the next one, so every `execute_round`
/// call lands in the persisted state and a resumed run starts with the
/// plan's next block.
///
/// This is a thin assembly wrapper over the canonical operator graph,
/// [`crate::pipeline::StreamGraph`]; callers that want per-stage
/// metrics or custom operators assemble the graph directly.
///
/// # Errors
///
/// As [`profile_epoch_streaming_checkpointed`], plus
/// [`ProfileError::Executor`] from the placement layer.
pub fn profile_epoch_streaming_with(
    executor: &mut dyn RoundExecutor,
    plan: &EpochPlan,
    options: &StreamOptions,
    fingerprint: u64,
    checkpoint: Option<&CheckpointOptions>,
    interrupt: Option<&dyn Fn() -> bool>,
) -> Result<StreamOutcome, ProfileError> {
    let mut graph = StreamGraph::new(executor, plan, options, fingerprint);
    if let Some(ckpt) = checkpoint {
        graph = graph.with_checkpoint(ckpt);
    }
    if let Some(hook) = interrupt {
        graph = graph.with_interrupt(hook);
    }
    graph.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;
    use seqpoint_core::SeqPointPipeline;
    use sqnn::models::gnmt_with;
    use sqnn_data::{BatchPolicy, Corpus};

    fn device() -> Device {
        Device::new(GpuConfig::vega_fe())
    }

    /// A steady-state (shuffled) epoch large enough to saturate: 12k
    /// sentences at batch 16 → 750 full batches.
    fn big_workload() -> (Network, EpochPlan) {
        let corpus = Corpus::iwslt15_like(12_000, 13);
        let plan = EpochPlan::new(&corpus, BatchPolicy::shuffled(16), 13).unwrap();
        (gnmt_with(400, 48), plan)
    }

    /// A small epoch for the exhaustive (no early stop) comparisons.
    fn small_workload() -> (Network, EpochPlan) {
        let corpus = Corpus::iwslt15_like(3_000, 13);
        let plan = EpochPlan::new(&corpus, BatchPolicy::bucketed(16, 12), 13).unwrap();
        (gnmt_with(400, 48), plan)
    }

    /// A unique, self-cleaning checkpoint path under the target tmp dir.
    struct TempCheckpoint(PathBuf);

    impl TempCheckpoint {
        fn new(tag: &str) -> Self {
            let mut path = std::env::temp_dir();
            path.push(format!("seqpoint-ckpt-{}-{tag}.json", std::process::id()));
            let _ = std::fs::remove_file(&path);
            TempCheckpoint(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempCheckpoint {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_file(tmp_sibling(&self.0));
        }
    }

    #[test]
    fn early_stop_measures_fewer_iterations_and_selects_identically() {
        let (net, plan) = big_workload();
        let device = device();
        let options = StreamOptions {
            shards: 3,
            round_len: 25,
            ..StreamOptions::default()
        };
        let profiler = Profiler::new();
        let streamed = profile_epoch_streaming(&profiler, &net, &plan, &device, &options).unwrap();
        assert!(streamed.selection.early_stopped());
        assert!(
            (streamed.selection.iterations_measured() as usize) < plan.iterations(),
            "measured {} of {}",
            streamed.selection.iterations_measured(),
            plan.iterations()
        );
        assert_eq!(
            streamed.selection.iterations_total() as usize,
            plan.iterations()
        );
        assert!(streamed.profiled_wall_s > 0.0);
        assert!(streamed.profiled_wall_s <= streamed.profiled_serial_s + 1e-12);
        assert!(streamed.shard_speedup() >= 1.0);
        // Exact counts ⇒ the streamed selection equals the full-epoch
        // selection, weights included.
        let full_log = profiler
            .profile_epoch(&net, &plan, &device)
            .unwrap()
            .to_epoch_log();
        let full = SeqPointPipeline::new().run(&full_log).unwrap();
        assert_eq!(
            streamed.selection.seqpoints().seq_lens(),
            full.seqpoints().seq_lens()
        );
        let weights = |s: &seqpoint_core::SeqPointSet| -> Vec<u64> {
            s.points().iter().map(|p| p.weight).collect()
        };
        assert_eq!(
            weights(streamed.selection.seqpoints()),
            weights(full.seqpoints())
        );
    }

    #[test]
    fn partial_batch_after_the_stop_is_measured_on_demand() {
        // 12,010 sentences at batch 16: the final batch has 10 samples —
        // a (seq_len, samples) shape the rounds never profiled. It must
        // be measured, not imputed, so per-SL statistics stay exact.
        let corpus = Corpus::iwslt15_like(12_010, 13);
        let plan = EpochPlan::new(&corpus, BatchPolicy::shuffled(16), 13).unwrap();
        let net = gnmt_with(400, 48);
        let device = device();
        let profiler = Profiler::new();
        let options = StreamOptions {
            shards: 3,
            round_len: 25,
            ..StreamOptions::default()
        };
        let streamed = profile_epoch_streaming(&profiler, &net, &plan, &device, &options).unwrap();
        assert!(streamed.selection.early_stopped());
        // At least the short final batch was measured after the stop.
        assert!(
            streamed.selection.iterations_measured() > streamed.selection.stopped_at().unwrap()
        );
        // Exact per-shape replay ⇒ the streamed selection matches the
        // full-epoch path in SLs, weights, AND statistics.
        let full_log = profiler
            .profile_epoch(&net, &plan, &device)
            .unwrap()
            .to_epoch_log();
        let full = SeqPointPipeline::new().run(&full_log).unwrap();
        let streamed_points = streamed.selection.seqpoints().points();
        let full_points = full.seqpoints().points();
        assert_eq!(streamed_points.len(), full_points.len());
        for (s, f) in streamed_points.iter().zip(full_points) {
            assert_eq!(s.seq_len, f.seq_len);
            assert_eq!(s.weight, f.weight);
            assert!((s.stat - f.stat).abs() < 1e-9 * f.stat.abs().max(1.0));
        }
    }

    #[test]
    fn exhaustive_stream_matches_the_full_epoch_selection() {
        let (net, plan) = small_workload();
        let device = device();
        // A window no epoch reaches: ingestion never stops measuring.
        let options = StreamOptions {
            shards: 4,
            round_len: 32,
            stream: StreamConfig {
                saturation_window: u64::MAX,
                ..StreamConfig::default()
            },
            ..StreamOptions::default()
        };
        let profiler = Profiler::new();
        let streamed = profile_epoch_streaming(&profiler, &net, &plan, &device, &options).unwrap();
        assert!(!streamed.selection.early_stopped());
        assert_eq!(
            streamed.selection.iterations_measured() as usize,
            plan.iterations()
        );
        let full_log = profiler
            .profile_epoch(&net, &plan, &device)
            .unwrap()
            .to_epoch_log();
        let full = SeqPointPipeline::new().run(&full_log).unwrap();
        assert_eq!(
            streamed.selection.seqpoints().seq_lens(),
            full.seqpoints().seq_lens()
        );
    }

    #[test]
    fn shard_count_does_not_change_the_selection() {
        let (net, plan) = big_workload();
        let device = device();
        let profiler = Profiler::new();
        let run = |shards: usize| {
            let options = StreamOptions {
                shards,
                round_len: 25,
                ..StreamOptions::default()
            };
            profile_epoch_streaming(&profiler, &net, &plan, &device, &options).unwrap()
        };
        let single = run(1);
        assert!(single.selection.early_stopped());
        for shards in [2, 5] {
            let sharded = run(shards);
            assert_eq!(
                sharded.selection.iterations_measured(),
                single.selection.iterations_measured(),
                "shards = {shards}"
            );
            assert_eq!(
                sharded.selection.stopped_at(),
                single.selection.stopped_at()
            );
            assert_eq!(
                sharded.selection.seqpoints().seq_lens(),
                single.selection.seqpoints().seq_lens(),
                "shards = {shards}"
            );
            // Serial profiling cost is the same work, just dealt out.
            assert!(
                (sharded.profiled_serial_s - single.profiled_serial_s).abs()
                    < 1e-9 * single.profiled_serial_s
            );
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let (net, plan) = small_workload();
        let device = device();
        let empty = EpochPlan::from_batches("e", 1, 1, Vec::new());
        let profiler = Profiler::new();
        assert_eq!(
            profile_epoch_streaming(&profiler, &net, &empty, &device, &StreamOptions::default()),
            Err(ProfileError::EmptyPlan)
        );
        for bad in [
            StreamOptions {
                shards: 0,
                ..StreamOptions::default()
            },
            StreamOptions {
                round_len: 0,
                ..StreamOptions::default()
            },
            StreamOptions {
                stream: StreamConfig {
                    unseen_threshold: -0.05,
                    ..StreamConfig::default()
                },
                ..StreamOptions::default()
            },
            StreamOptions {
                stream: StreamConfig {
                    quantization: 0,
                    ..StreamConfig::default()
                },
                ..StreamOptions::default()
            },
        ] {
            assert!(matches!(
                profile_epoch_streaming(&profiler, &net, &plan, &device, &bad),
                Err(ProfileError::InvalidStream { .. })
            ));
        }
        // Checkpointed flavor: every_rounds must be positive, and a
        // zero max_rounds budget (pause before any work — an infinite
        // requeue loop for a served job) is rejected too.
        let ckpt = TempCheckpoint::new("degenerate");
        for policy in [
            CheckpointOptions {
                every_rounds: 0,
                ..CheckpointOptions::new(ckpt.path())
            },
            CheckpointOptions {
                max_rounds: Some(0),
                ..CheckpointOptions::new(ckpt.path())
            },
        ] {
            assert!(matches!(
                profile_epoch_streaming_checkpointed(
                    &profiler,
                    &net,
                    &plan,
                    &device,
                    &StreamOptions::default(),
                    &policy
                ),
                Err(ProfileError::InvalidStream { .. })
            ));
        }
    }

    #[test]
    fn interrupted_and_resumed_run_matches_the_uninterrupted_run() {
        let (net, plan) = big_workload();
        let device = device();
        let profiler = Profiler::new();
        let options = StreamOptions {
            shards: 3,
            round_len: 25,
            ..StreamOptions::default()
        };
        let uninterrupted =
            profile_epoch_streaming(&profiler, &net, &plan, &device, &options).unwrap();

        let ckpt = TempCheckpoint::new("resume");
        // "Kill" the run every 2 rounds until it completes; every
        // invocation resumes from the previous one's persisted state.
        let mut invocations = 0;
        let completed = loop {
            invocations += 1;
            assert!(invocations < 1_000, "checkpointed run never finished");
            let policy = CheckpointOptions {
                every_rounds: 1,
                max_rounds: Some(2),
                ..CheckpointOptions::new(ckpt.path())
            };
            match profile_epoch_streaming_checkpointed(
                &profiler, &net, &plan, &device, &options, &policy,
            )
            .unwrap()
            {
                StreamOutcome::Complete(profile) => break profile,
                StreamOutcome::Paused(pause) => {
                    assert!(pause.iterations_consumed < pause.iterations_total);
                    assert!(ckpt.path().exists());
                }
            }
        };
        assert!(
            invocations > 2,
            "expected several pauses, got {invocations} invocation(s)"
        );
        // Bit-identical outcome: selection, accounting, and cost totals.
        assert_eq!(completed, uninterrupted);

        // A further re-run resumes from the completed checkpoint and
        // reproduces the same result without re-profiling.
        let rerun = match profile_epoch_streaming_checkpointed(
            &profiler,
            &net,
            &plan,
            &device,
            &options,
            &CheckpointOptions::new(ckpt.path()),
        )
        .unwrap()
        {
            StreamOutcome::Complete(profile) => profile,
            StreamOutcome::Paused(_) => panic!("completed checkpoint must not pause"),
        };
        assert_eq!(rerun, uninterrupted);
    }

    #[test]
    fn resume_may_reshard_the_workers() {
        let (net, plan) = big_workload();
        let device = device();
        let profiler = Profiler::new();
        let options = |shards| StreamOptions {
            shards,
            round_len: 25,
            ..StreamOptions::default()
        };
        let uninterrupted =
            profile_epoch_streaming(&profiler, &net, &plan, &device, &options(3)).unwrap();

        let ckpt = TempCheckpoint::new("reshard");
        let paused = profile_epoch_streaming_checkpointed(
            &profiler,
            &net,
            &plan,
            &device,
            &options(3),
            &CheckpointOptions {
                every_rounds: 1,
                max_rounds: Some(3),
                ..CheckpointOptions::new(ckpt.path())
            },
        )
        .unwrap();
        assert!(matches!(paused, StreamOutcome::Paused(_)));
        // Resume with a different worker count: the selection is
        // shard-count independent, so the outcome still matches.
        let resumed = match profile_epoch_streaming_checkpointed(
            &profiler,
            &net,
            &plan,
            &device,
            &options(5),
            &CheckpointOptions::new(ckpt.path()),
        )
        .unwrap()
        {
            StreamOutcome::Complete(profile) => profile,
            StreamOutcome::Paused(_) => panic!("no max_rounds, must complete"),
        };
        assert_eq!(resumed.selection, uninterrupted.selection);
    }

    #[test]
    fn checkpoint_from_a_different_configuration_is_rejected() {
        let (net, plan) = small_workload();
        let device = device();
        let profiler = Profiler::new();
        let options = StreamOptions {
            shards: 2,
            round_len: 32,
            ..StreamOptions::default()
        };
        let ckpt = TempCheckpoint::new("mismatch");
        let outcome = profile_epoch_streaming_checkpointed(
            &profiler,
            &net,
            &plan,
            &device,
            &options,
            &CheckpointOptions::new(ckpt.path()),
        )
        .unwrap();
        assert!(matches!(outcome, StreamOutcome::Complete(_)));
        // Same path, different round length ⇒ different stop decisions ⇒
        // the fingerprint must refuse the resume.
        let different = StreamOptions {
            round_len: 16,
            ..options
        };
        assert!(matches!(
            profile_epoch_streaming_checkpointed(
                &profiler,
                &net,
                &plan,
                &device,
                &different,
                &CheckpointOptions::new(ckpt.path()),
            ),
            Err(ProfileError::Checkpoint { .. })
        ));
    }

    #[test]
    fn torn_or_garbage_checkpoints_are_rejected() {
        let (net, plan) = small_workload();
        let device = device();
        let profiler = Profiler::new();
        let ckpt = TempCheckpoint::new("torn");
        std::fs::write(ckpt.path(), "{\"version\":1,\"truncat").unwrap();
        assert!(matches!(
            profile_epoch_streaming_checkpointed(
                &profiler,
                &net,
                &plan,
                &device,
                &StreamOptions::default(),
                &CheckpointOptions::new(ckpt.path()),
            ),
            Err(ProfileError::Checkpoint { .. })
        ));
    }

    #[test]
    fn stale_tmp_sibling_is_cleaned_on_startup() {
        let (net, plan) = small_workload();
        let device = device();
        let profiler = Profiler::new();
        let options = StreamOptions {
            shards: 2,
            round_len: 32,
            ..StreamOptions::default()
        };

        // Case 1: a crash between temp write and rename left only the
        // `.tmp` sibling (possibly torn). The run must remove it, start
        // fresh, and complete.
        let ckpt = TempCheckpoint::new("staletmp");
        let tmp = tmp_sibling(ckpt.path());
        std::fs::write(&tmp, "{\"version\":1,\"torn mid-wri").unwrap();
        let outcome = profile_epoch_streaming_checkpointed(
            &profiler,
            &net,
            &plan,
            &device,
            &options,
            &CheckpointOptions::new(ckpt.path()),
        )
        .unwrap();
        assert!(matches!(outcome, StreamOutcome::Complete(_)));
        assert!(!tmp.exists(), "stale .tmp must be cleaned on startup");
        assert!(ckpt.path().exists());

        // Case 2: the crash happened on a later write, so a valid
        // checkpoint AND a stale tmp coexist. The resume must use the
        // checkpoint and still clear the sibling.
        std::fs::write(&tmp, "stale garbage from a killed writer").unwrap();
        let rerun = profile_epoch_streaming_checkpointed(
            &profiler,
            &net,
            &plan,
            &device,
            &options,
            &CheckpointOptions::new(ckpt.path()),
        )
        .unwrap();
        assert!(!tmp.exists());
        let (StreamOutcome::Complete(a), StreamOutcome::Complete(b)) = (outcome, rerun) else {
            panic!("both runs must complete");
        };
        assert_eq!(a, b);
    }

    #[test]
    fn interrupt_hook_pauses_at_the_next_round_boundary() {
        use std::sync::atomic::{AtomicU32, Ordering};

        let (net, plan) = big_workload();
        let device = device();
        let profiler = Profiler::new();
        let options = StreamOptions {
            shards: 3,
            round_len: 25,
            ..StreamOptions::default()
        };
        let uninterrupted =
            profile_epoch_streaming(&profiler, &net, &plan, &device, &options).unwrap();

        // Interrupt fires once 2 boundary checks have happened — the
        // drain signal `seqpoint serve` raises on SIGTERM.
        let ckpt = TempCheckpoint::new("interrupt");
        let polls = AtomicU32::new(0);
        let interrupt = || polls.fetch_add(1, Ordering::SeqCst) >= 2;
        let mut executor = ThreadExecutor::new(
            &profiler,
            &net,
            device.clone(),
            options.stat,
            options.shards,
        );
        let fingerprint = stream_fingerprint(&net, &plan, &device, &options);
        let policy = CheckpointOptions {
            every_rounds: 1,
            ..CheckpointOptions::new(ckpt.path())
        };
        let outcome = profile_epoch_streaming_with(
            &mut executor,
            &plan,
            &options,
            fingerprint,
            Some(&policy),
            Some(&interrupt),
        )
        .unwrap();
        let StreamOutcome::Paused(pause) = outcome else {
            panic!("interrupt must pause the run");
        };
        assert_eq!(pause.rounds_ingested, 2);
        assert!(ckpt.path().exists());

        // Resuming without the interrupt completes bit-identically —
        // including through the public checkpointed entry point, proving
        // the service and CLI paths share checkpoint compatibility.
        let resumed = match profile_epoch_streaming_checkpointed(
            &profiler,
            &net,
            &plan,
            &device,
            &options,
            &CheckpointOptions::new(ckpt.path()),
        )
        .unwrap()
        {
            StreamOutcome::Complete(profile) => profile,
            StreamOutcome::Paused(_) => panic!("no interrupt, must complete"),
        };
        assert_eq!(resumed, uninterrupted);
    }

    #[test]
    fn deal_round_partitions_the_block_and_matches_plan_shard() {
        let (_, plan) = small_workload();
        let round_len = 32;
        let shards = 3;
        let mut consumed = 0;
        let mut per_shard: Vec<Vec<BatchShape>> = vec![Vec::new(); shards];
        for block in plan.rounds(round_len) {
            let chunks = deal_round(block, consumed, shards);
            assert_eq!(chunks.len(), shards);
            // The chunks partition the block.
            let total: usize = chunks.iter().map(|c| c.batches.len()).sum();
            assert_eq!(total, block.len());
            for chunk in chunks {
                per_shard[chunk.shard].extend(chunk.batches);
            }
            consumed += block.len();
        }
        // Concatenated per-shard chunks reproduce EpochPlan::shard.
        for (shard, batches) in per_shard.iter().enumerate() {
            let expected: Vec<BatchShape> = plan.shard(shard, shards).collect();
            assert_eq!(batches, &expected, "shard {shard}");
        }
    }

    #[test]
    fn checkpoint_reports_its_contents() {
        let (net, plan) = small_workload();
        let device = device();
        let profiler = Profiler::new();
        let ckpt = TempCheckpoint::new("contents");
        let outcome = profile_epoch_streaming_checkpointed(
            &profiler,
            &net,
            &plan,
            &device,
            &StreamOptions {
                shards: 2,
                round_len: 32,
                ..StreamOptions::default()
            },
            &CheckpointOptions {
                every_rounds: 1,
                max_rounds: Some(2),
                ..CheckpointOptions::new(ckpt.path())
            },
        )
        .unwrap();
        let StreamOutcome::Paused(pause) = outcome else {
            panic!("max_rounds = 2 must pause on this workload");
        };
        assert_eq!(pause.iterations_consumed, 64);
        let state = read_checkpoint(ckpt.path()).unwrap();
        assert_eq!(state.consumed(), 64);
        assert!(state.shapes_profiled() > 0);
        assert_eq!(state.selector().rounds(), pause.rounds_ingested);
    }

    /// A [`ThreadExecutor`] wrapper recording the (sorted) batch
    /// multiset of every `execute_round` call — the witness of which
    /// rounds a run executed, and in what order.
    struct RecordingExecutor<'a> {
        inner: ThreadExecutor<'a>,
        rounds: Vec<Vec<BatchShape>>,
    }

    impl<'a> RecordingExecutor<'a> {
        fn new(
            profiler: &'a Profiler,
            network: &'a Network,
            device: Device,
            options: &StreamOptions,
        ) -> Self {
            RecordingExecutor {
                inner: ThreadExecutor::new(profiler, network, device, options.stat, options.shards),
                rounds: Vec::new(),
            }
        }
    }

    impl RoundExecutor for RecordingExecutor<'_> {
        fn execute_round(
            &mut self,
            chunks: &[ShardChunk],
        ) -> Result<Vec<ShardReport>, ProfileError> {
            let mut batches: Vec<BatchShape> = chunks
                .iter()
                .flat_map(|c| c.batches.iter().copied())
                .collect();
            batches.sort_by_key(|b| (b.seq_len, b.samples));
            self.rounds.push(batches);
            self.inner.execute_round(chunks)
        }

        fn profile_shape(
            &mut self,
            shape: IterationShape,
        ) -> Result<IterationProfile, ProfileError> {
            self.inner.profile_shape(shape)
        }

        fn seed_shapes(&mut self, shapes: &[IterationProfile]) {
            self.inner.seed_shapes(shapes);
        }
    }

    /// A [`ThreadExecutor`] wrapper that loses its workers on the
    /// `fail_on`-th round.
    struct FlakyExecutor<'a> {
        inner: ThreadExecutor<'a>,
        calls: u32,
        fail_on: u32,
    }

    impl RoundExecutor for FlakyExecutor<'_> {
        fn execute_round(
            &mut self,
            chunks: &[ShardChunk],
        ) -> Result<Vec<ShardReport>, ProfileError> {
            self.calls += 1;
            if self.calls == self.fail_on {
                return Err(ProfileError::Executor {
                    message: "injected worker loss".to_owned(),
                });
            }
            self.inner.execute_round(chunks)
        }

        fn profile_shape(
            &mut self,
            shape: IterationShape,
        ) -> Result<IterationProfile, ProfileError> {
            self.inner.profile_shape(shape)
        }

        fn seed_shapes(&mut self, shapes: &[IterationProfile]) {
            self.inner.seed_shapes(shapes);
        }
    }

    #[test]
    fn every_round_boundary_resumes_bit_identically() {
        // A 6k-sentence epoch saturates in a handful of rounds, keeping
        // the boundary sweep (a full resume per boundary) affordable.
        let corpus = Corpus::iwslt15_like(6_000, 13);
        let plan = EpochPlan::new(&corpus, BatchPolicy::shuffled(16), 13).unwrap();
        let net = gnmt_with(400, 48);
        let device = device();
        let profiler = Profiler::new();
        let options = StreamOptions {
            shards: 3,
            round_len: 25,
            ..StreamOptions::default()
        };
        let fingerprint = stream_fingerprint(&net, &plan, &device, &options);
        let uninterrupted =
            profile_epoch_streaming(&profiler, &net, &plan, &device, &options).unwrap();

        // Kill at every round boundary in turn (fresh checkpoint each
        // time). Every boundary of the measure phase is exercised; once
        // the pauses move into the replay phase, two more suffice.
        let mut boundary: u64 = 0;
        let mut replay_pauses = 0;
        loop {
            boundary += 1;
            assert!(boundary < 100, "the kill loop never exhausted the run");
            if replay_pauses >= 2 {
                break;
            }
            let ckpt = TempCheckpoint::new(&format!("boundary{boundary}"));
            let mut killed = RecordingExecutor::new(&profiler, &net, device.clone(), &options);
            let outcome = profile_epoch_streaming_with(
                &mut killed,
                &plan,
                &options,
                fingerprint,
                Some(&CheckpointOptions {
                    every_rounds: 1,
                    max_rounds: Some(boundary),
                    ..CheckpointOptions::new(ckpt.path())
                }),
                None,
            )
            .unwrap();
            let StreamOutcome::Paused(pause) = outcome else {
                break; // budget outlived the run: every boundary covered
            };
            // Replay blocks count against the budget but ingest no
            // rounds, so a replay-phase pause has merged fewer rounds
            // than the budget allowed.
            if u64::from(pause.rounds_ingested) < boundary {
                replay_pauses += 1;
            }
            // Nothing runs ahead of the merge: every executed round is
            // in the persisted state.
            assert_eq!(
                killed.rounds.len(),
                pause.rounds_ingested as usize,
                "boundary {boundary}: the executor ran exactly rounds_ingested rounds"
            );
            let still_measuring = read_checkpoint(ckpt.path())
                .unwrap()
                .selector()
                .stopped_at()
                .is_none();
            let mut resumed_exec =
                RecordingExecutor::new(&profiler, &net, device.clone(), &options);
            let resumed = match profile_epoch_streaming_with(
                &mut resumed_exec,
                &plan,
                &options,
                fingerprint,
                Some(&CheckpointOptions::new(ckpt.path())),
                None,
            )
            .unwrap()
            {
                StreamOutcome::Complete(profile) => profile,
                StreamOutcome::Paused(_) => panic!("resume without a budget must complete"),
            };
            assert_eq!(resumed, uninterrupted, "boundary {boundary}");
            // A resumed run that still measures picks up with the plan's
            // next block; one past the stop executes no rounds at all.
            if still_measuring {
                let start = pause.iterations_consumed as usize;
                let end = (start + options.round_len).min(plan.iterations());
                // Flattened and sorted as `RecordingExecutor` records it.
                let mut next: Vec<BatchShape> =
                    deal_round(&plan.batches()[start..end], start, options.shards)
                        .into_iter()
                        .flat_map(|c| c.batches)
                        .collect();
                next.sort_by_key(|b| (b.seq_len, b.samples));
                assert_eq!(
                    resumed_exec.rounds.first(),
                    Some(&next),
                    "boundary {boundary}: the resumed run starts at the next block"
                );
            } else {
                assert!(resumed_exec.rounds.is_empty(), "boundary {boundary}");
            }
        }
        assert!(boundary > 3, "expected several boundaries, got {boundary}");
    }

    #[test]
    fn round_failure_past_a_pause_never_runs_and_otherwise_keeps_the_last_checkpoint() {
        let (net, plan) = big_workload();
        let device = device();
        let profiler = Profiler::new();
        let options = StreamOptions {
            shards: 3,
            round_len: 25,
            ..StreamOptions::default()
        };
        let fingerprint = stream_fingerprint(&net, &plan, &device, &options);
        let uninterrupted =
            profile_epoch_streaming(&profiler, &net, &plan, &device, &options).unwrap();
        let executor = |fail_on| FlakyExecutor {
            inner: ThreadExecutor::new(
                &profiler,
                &net,
                device.clone(),
                options.stat,
                options.shards,
            ),
            calls: 0,
            fail_on,
        };

        // With a 2-round budget the run pauses before the 3rd round is
        // executed, so its injected failure never happens — the pause
        // wins, not the error.
        let ckpt = TempCheckpoint::new("flaky-paused");
        let outcome = profile_epoch_streaming_with(
            &mut executor(3),
            &plan,
            &options,
            fingerprint,
            Some(&CheckpointOptions {
                every_rounds: 1,
                max_rounds: Some(2),
                ..CheckpointOptions::new(ckpt.path())
            }),
            None,
        )
        .unwrap();
        assert!(matches!(outcome, StreamOutcome::Paused(_)));

        // Without the budget the same failure surfaces as an executor
        // error from the 3rd round — after round 2's checkpoint landed,
        // so the state on disk is still consistent.
        let ckpt2 = TempCheckpoint::new("flaky-error");
        let err = profile_epoch_streaming_with(
            &mut executor(3),
            &plan,
            &options,
            fingerprint,
            Some(&CheckpointOptions {
                every_rounds: 1,
                ..CheckpointOptions::new(ckpt2.path())
            }),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, ProfileError::Executor { .. }));

        // Both leftovers resume to the uninterrupted result.
        for path in [ckpt.path(), ckpt2.path()] {
            let mut healthy = ThreadExecutor::new(
                &profiler,
                &net,
                device.clone(),
                options.stat,
                options.shards,
            );
            let resumed = match profile_epoch_streaming_with(
                &mut healthy,
                &plan,
                &options,
                fingerprint,
                Some(&CheckpointOptions::new(path)),
                None,
            )
            .unwrap()
            {
                StreamOutcome::Complete(profile) => profile,
                StreamOutcome::Paused(_) => panic!("resume without a budget must complete"),
            };
            assert_eq!(resumed, uninterrupted);
        }
    }
}
