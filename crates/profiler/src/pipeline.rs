//! The streaming harness as composable dataflow operators.
//!
//! [`crate::stream`] defines the *contract* of streamed profiling —
//! rounds, shard chunks, checkpoints, the early stop. This module
//! defines its *structure*: a small operator algebra wired into one
//! canonical graph by [`StreamGraph`], replacing the bespoke round loop
//! that used to live inside `profile_epoch_streaming_with`.
//!
//! ```text
//!   ┌─────────┐   ┌───────────┐   ┌────────────┐   ┌──────┐   ┌──────┐
//!   │ Round-  │──▶│ ShardFold │──▶│ KeyedMerge │──▶│ Gate │──▶│ Sink │
//!   │ Source  │   │ (executor)│   │            │   │      │   │      │
//!   └─────────┘   └───────────┘   └────────────┘   └──────┘   └──────┘
//! ```
//!
//! * [`RoundSource`] walks the epoch plan in `round_len` blocks and
//!   deals each block to per-shard [`ShardChunk`]s.
//! * [`ShardFold`] executes one round's chunks through the
//!   [`RoundExecutor`] seam, so a placement layer leases workers exactly
//!   at the fold stage boundary.
//! * [`KeyedMerge`] folds the per-shard reports into the SL-keyed
//!   round tracker, the shape memo, and the cost accounting.
//! * [`Gate`] is the round-boundary stop decision: the Good–Turing
//!   saturation rule ([`SaturationGate`]) decides *stop*, and the
//!   max-rounds/interrupt budget ([`BudgetGate`]) decides *pause*.
//! * [`CheckpointSink`] renders the merged state into the periodic,
//!   pause, and final checkpoint writes.
//!
//! [`StreamGraph::run`] drives every stage on the calling thread, one
//! round at a time: fold, merge, gate, sink, in that order. The fold is
//! almost all of a round's time and parallelizes across shards inside
//! the executor; merge, gate, and sink take well under a millisecond
//! apiece, so nothing is gained by overlapping them with the next fold.
//!
//! Every operator records a [`StageSample`] per item into a caller-
//! provided [`StageMeter`], giving per-stage observability (items
//! in/out, stage wall-ms) for free at construction time — `seqpoint
//! serve` plugs its metrics registry in here.
//!
//! Adding a new fold or gate is implementing one trait; see
//! `docs/architecture.md` for the extension walkthrough.

use std::collections::HashMap;
use std::sync::PoisonError;
use std::time::Instant;

use seqpoint_core::online::OnlineSlTracker;
use seqpoint_core::stream::StreamingSelector;
use sqnn::IterationShape;
use sqnn_data::{BatchShape, EpochPlan};

use crate::stream::{
    checkpoint_error, deal_round, read_checkpoint, tmp_sibling, write_checkpoint,
    CheckpointOptions, RoundExecutor, ShardChunk, ShardReport, StreamCheckpoint, StreamOptions,
    StreamOutcome, StreamPause, StreamedEpochProfile, CHECKPOINT_VERSION,
};
use crate::{IterationProfile, ProfileError};

/// The stages of the canonical streaming graph, in dataflow order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageId {
    /// [`RoundSource`]: plan blocks dealt into shard chunks.
    Source,
    /// [`ShardFold`]: chunk execution through the [`RoundExecutor`].
    Fold,
    /// [`KeyedMerge`]: SL-keyed report merge and cost accounting.
    Merge,
    /// [`Gate`]: the round-boundary stop/pause decision.
    Gate,
    /// [`CheckpointSink`]: checkpoint rendering and persistence.
    Sink,
}

impl StageId {
    /// Every stage, in dataflow order.
    pub const ALL: [StageId; 5] = [
        StageId::Source,
        StageId::Fold,
        StageId::Merge,
        StageId::Gate,
        StageId::Sink,
    ];

    /// Stable lowercase label (metrics label value, docs).
    pub fn label(self) -> &'static str {
        match self {
            StageId::Source => "source",
            StageId::Fold => "fold",
            StageId::Merge => "merge",
            StageId::Gate => "gate",
            StageId::Sink => "sink",
        }
    }

    /// Dense index in [`Self::ALL`] order.
    pub fn index(self) -> usize {
        match self {
            StageId::Source => 0,
            StageId::Fold => 1,
            StageId::Merge => 2,
            StageId::Gate => 3,
            StageId::Sink => 4,
        }
    }
}

/// One metered unit of stage work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSample {
    /// Items the stage consumed (iterations for source/fold, reports
    /// for merge, rounds for gate/sink).
    pub items_in: u64,
    /// Items the stage produced.
    pub items_out: u64,
    /// Wall-clock milliseconds the stage spent on this unit.
    pub wall_ms: u64,
}

/// Observability hook attached at operator construction: each operator
/// reports a [`StageSample`] per unit of work. Implementations must be
/// cheap and non-blocking — one meter may serve concurrent runs (the
/// service shares its registry across job runners).
pub trait StageMeter: Sync {
    /// Record one unit of work for `stage`.
    fn record(&self, stage: StageId, sample: StageSample);
}

/// The do-nothing meter unmetered graphs run with.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopMeter;

impl StageMeter for NoopMeter {
    fn record(&self, _stage: StageId, _sample: StageSample) {}
}

static NOOP_METER: NoopMeter = NoopMeter;

/// Aggregate of every [`StageSample`] a stage reported.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTally {
    /// Total items consumed.
    pub items_in: u64,
    /// Total items produced.
    pub items_out: u64,
    /// Total wall-clock milliseconds.
    pub wall_ms: u64,
    /// Samples recorded.
    pub samples: u64,
}

/// An in-memory aggregating [`StageMeter`] (tests and the experiments
/// harness); `seqpoint serve` uses its metrics registry instead.
#[derive(Debug, Default)]
pub struct TallyMeter {
    slots: std::sync::Mutex<[StageTally; 5]>,
}

impl TallyMeter {
    /// A meter with all tallies at zero.
    pub fn new() -> Self {
        TallyMeter::default()
    }

    /// The aggregate recorded for `stage` so far.
    pub fn tally(&self, stage: StageId) -> StageTally {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.get(stage.index()).copied().unwrap_or_default()
    }
}

impl StageMeter for TallyMeter {
    fn record(&self, stage: StageId, sample: StageSample) {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = slots.get_mut(stage.index()) {
            slot.items_in += sample.items_in;
            slot.items_out += sample.items_out;
            slot.wall_ms += sample.wall_ms;
            slot.samples += 1;
        }
    }
}

fn elapsed_ms(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// The `Source` operator: walks an [`EpochPlan`] in `round_len` blocks
/// from a resume position and deals each block into per-shard
/// [`ShardChunk`]s by the global round-robin rule ([`deal_round`]).
pub struct RoundSource<'p, 'm> {
    blocks: std::iter::Skip<std::slice::Chunks<'p, BatchShape>>,
    dealt: usize,
    shards: usize,
    meter: &'m dyn StageMeter,
}

impl<'p, 'm> RoundSource<'p, 'm> {
    /// A source over `plan` starting at iteration `consumed` (which
    /// must lie on a round boundary, as checkpoints guarantee).
    pub fn new(
        plan: &'p EpochPlan,
        round_len: usize,
        consumed: usize,
        shards: usize,
        meter: &'m dyn StageMeter,
    ) -> Self {
        let round_len = round_len.max(1);
        RoundSource {
            blocks: plan
                .batches()
                .chunks(round_len)
                .skip(consumed.div_ceil(round_len)),
            dealt: consumed,
            shards,
            meter,
        }
    }

    /// Deal the next round: `(chunks, block_len)`, or `None` when the
    /// plan is exhausted.
    pub fn next_round(&mut self) -> Option<(Vec<ShardChunk>, usize)> {
        let block = self.blocks.next()?;
        let started = Instant::now();
        let chunks = deal_round(block, self.dealt, self.shards);
        self.dealt += block.len();
        self.meter.record(
            StageId::Source,
            StageSample {
                items_in: block.len() as u64,
                items_out: chunks.len() as u64,
                wall_ms: elapsed_ms(started),
            },
        );
        Some((chunks, block.len()))
    }
}

/// The `ShardFold` operator: per-shard measurement fold through the
/// [`RoundExecutor`] seam. Each placement leases its workers at this
/// stage boundary, one `run_round` at a time.
pub struct ShardFold<'e, 'm> {
    executor: &'e mut dyn RoundExecutor,
    shards: usize,
    meter: &'m dyn StageMeter,
}

impl<'e, 'm> ShardFold<'e, 'm> {
    /// A fold placing rounds on `executor`, expecting `shards` reports
    /// per round.
    pub fn new(
        executor: &'e mut dyn RoundExecutor,
        shards: usize,
        meter: &'m dyn StageMeter,
    ) -> Self {
        ShardFold {
            executor,
            shards,
            meter,
        }
    }

    /// Execute one round's chunks and validate the report count.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Executor`] from the placement layer, or when the
    /// executor answers the wrong number of chunks.
    pub fn run_round(&mut self, chunks: &[ShardChunk]) -> Result<Vec<ShardReport>, ProfileError> {
        let items_in: u64 = chunks.iter().map(|c| c.batches.len() as u64).sum();
        let started = Instant::now();
        let result = self.executor.execute_round(chunks);
        self.meter.record(
            StageId::Fold,
            StageSample {
                items_in,
                items_out: result.as_ref().map_or(0, |r| r.len() as u64),
                wall_ms: elapsed_ms(started),
            },
        );
        let reports = result?;
        if reports.len() != self.shards {
            return Err(ProfileError::Executor {
                message: format!(
                    "executor answered {} of {} chunks",
                    reports.len(),
                    self.shards
                ),
            });
        }
        Ok(reports)
    }

    /// Profile one shape on demand (the replay phase's miss path).
    ///
    /// # Errors
    ///
    /// [`ProfileError::Executor`] from the placement layer.
    pub fn profile_shape(
        &mut self,
        shape: IterationShape,
    ) -> Result<IterationProfile, ProfileError> {
        self.executor.profile_shape(shape)
    }

    /// Seed the executor's memo with already-profiled shapes (resume).
    pub fn seed_shapes(&mut self, shapes: &[IterationProfile]) {
        self.executor.seed_shapes(shapes);
    }
}

/// The `KeyedMerge` operator: folds per-shard [`ShardReport`]s into the
/// SL-keyed round tracker, the `(seq_len, samples)` shape memo, the
/// consumed position, and the serial/wall cost accounting.
pub struct KeyedMerge<'m> {
    shapes: HashMap<(u32, u32), IterationProfile>,
    consumed: usize,
    profiled_serial_s: f64,
    profiled_wall_s: f64,
    meter: &'m dyn StageMeter,
}

impl<'m> KeyedMerge<'m> {
    /// An empty merge state (a fresh, non-resumed run).
    pub fn new(meter: &'m dyn StageMeter) -> Self {
        KeyedMerge::resume(HashMap::new(), 0, 0.0, 0.0, meter)
    }

    /// A merge state adopted from a checkpoint.
    pub fn resume(
        shapes: HashMap<(u32, u32), IterationProfile>,
        consumed: usize,
        profiled_serial_s: f64,
        profiled_wall_s: f64,
        meter: &'m dyn StageMeter,
    ) -> Self {
        KeyedMerge {
            shapes,
            consumed,
            profiled_serial_s,
            profiled_wall_s,
            meter,
        }
    }

    /// Merge one round's reports **in shard order** (the determinism
    /// contract: shard-ordered merges make executor placement invisible
    /// to the selection) and advance the consumed position by the
    /// round's block length. Returns the merged round tracker for the
    /// gate.
    pub fn absorb(&mut self, reports: &[ShardReport], block_len: usize) -> OnlineSlTracker {
        let started = Instant::now();
        let mut round = OnlineSlTracker::new();
        let mut slowest_shard_s = 0.0;
        for report in reports {
            round.merge(&report.tracker);
            self.profiled_serial_s += report.chunk_time_s;
            slowest_shard_s = f64::max(slowest_shard_s, report.chunk_time_s);
            for profile in &report.shapes {
                self.shapes
                    .entry((profile.seq_len, profile.samples))
                    .or_insert_with(|| profile.clone());
            }
        }
        self.profiled_wall_s += slowest_shard_s;
        self.consumed += block_len;
        self.meter.record(
            StageId::Merge,
            StageSample {
                items_in: reports.len() as u64,
                items_out: 1,
                wall_ms: elapsed_ms(started),
            },
        );
        round
    }

    /// The recorded profile for a shape, if any (the replay hit path).
    pub fn lookup(&self, key: (u32, u32)) -> Option<&IterationProfile> {
        self.shapes.get(&key)
    }

    /// Record an on-demand measurement from the replay phase: the shape
    /// joins the memo and its runtime charges both cost totals (the
    /// measurement ran serially, nothing overlapped it).
    pub fn record_on_demand(&mut self, profile: IterationProfile) {
        self.profiled_serial_s += profile.time_s;
        self.profiled_wall_s += profile.time_s;
        self.shapes
            .insert((profile.seq_len, profile.samples), profile);
    }

    /// Advance the consumed position to `consumed` (replay blocks).
    pub fn set_consumed(&mut self, consumed: usize) {
        self.consumed = consumed;
    }

    /// Plan iterations fully processed so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Back-to-back simulated seconds of every measured iteration.
    pub fn serial_s(&self) -> f64 {
        self.profiled_serial_s
    }

    /// Wall seconds with shards concurrent (slowest shard per round).
    pub fn wall_s(&self) -> f64 {
        self.profiled_wall_s
    }

    /// Distinct shapes profiled so far.
    pub fn shapes_profiled(&self) -> usize {
        self.shapes.len()
    }

    /// The shape memo sorted by `(seq_len, samples)` — the canonical
    /// checkpoint order.
    pub(crate) fn sorted_shapes(&self) -> Vec<IterationProfile> {
        let mut shapes: Vec<IterationProfile> = self.shapes.values().cloned().collect();
        shapes.sort_by_key(|p| (p.seq_len, p.samples));
        shapes
    }
}

/// What a [`Gate`] decided at a round boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateDecision {
    /// Measurement stops now; the rest of the plan replays.
    pub stop: bool,
}

/// A round-boundary stop operator. [`SaturationGate`] implements the
/// paper's Good–Turing stop; a changepoint detector would be a second
/// implementation slotted into the same graph position.
pub trait Gate {
    /// Absorb one merged round tracker and decide whether measurement
    /// stops.
    fn after_round(&mut self, round: &OnlineSlTracker) -> GateDecision;
}

/// The Good–Turing saturation [`Gate`]: owns the
/// [`StreamingSelector`] and stops measurement once the SL space
/// saturates, exactly as the sequential loop did.
pub struct SaturationGate<'m> {
    selector: StreamingSelector,
    meter: &'m dyn StageMeter,
}

impl<'m> SaturationGate<'m> {
    /// A gate around `selector` (fresh, or restored from a checkpoint).
    pub fn resume(selector: StreamingSelector, meter: &'m dyn StageMeter) -> Self {
        SaturationGate { selector, meter }
    }

    /// The selector state (checkpoint snapshots, pause accounting).
    pub fn selector(&self) -> &StreamingSelector {
        &self.selector
    }

    /// Whether the stop rule currently holds (may latch the stop).
    pub fn should_stop(&mut self) -> bool {
        self.selector.should_stop()
    }

    /// Record a replayed iteration (replay phase hit path).
    pub fn observe_replayed(&mut self, seq_len: u32, stat: f64) {
        self.selector.observe_replayed(seq_len, stat);
    }

    /// Record an out-of-round measured iteration (replay miss path).
    pub fn observe_measured(&mut self, seq_len: u32, stat: f64) {
        self.selector.observe_measured(seq_len, stat);
    }

    /// Run the selection pipeline over the streamed aggregates.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Selection`] when the pipeline rejects the counts.
    pub fn finalize(&self) -> Result<seqpoint_core::stream::StreamingAnalysis, ProfileError> {
        self.selector
            .finalize()
            .map_err(|e| ProfileError::Selection {
                message: e.to_string(),
            })
    }
}

impl Gate for SaturationGate<'_> {
    fn after_round(&mut self, round: &OnlineSlTracker) -> GateDecision {
        let started = Instant::now();
        let decision = GateDecision {
            stop: self.selector.ingest_round(round),
        };
        self.meter.record(
            StageId::Gate,
            StageSample {
                items_in: 1,
                items_out: 1,
                wall_ms: elapsed_ms(started),
            },
        );
        decision
    }
}

/// The pause budget: trips after [`CheckpointOptions::max_rounds`]
/// blocks or when the interrupt hook reports true — but only when a
/// checkpoint policy exists (without one there is nowhere to persist a
/// pause, so the hook is ignored, as the sequential loop did). The
/// max-rounds check short-circuits the hook, preserving the exact
/// poll-count contract the round-boundary pause tests pin.
pub struct BudgetGate<'a> {
    max_rounds: Option<u64>,
    interrupt: Option<&'a dyn Fn() -> bool>,
    armed: bool,
}

impl<'a> BudgetGate<'a> {
    /// A budget gate for this invocation's checkpoint policy and
    /// interrupt hook.
    pub fn new(
        checkpoint: Option<&CheckpointOptions>,
        interrupt: Option<&'a dyn Fn() -> bool>,
    ) -> Self {
        BudgetGate {
            max_rounds: checkpoint.and_then(|c| c.max_rounds),
            interrupt,
            armed: checkpoint.is_some(),
        }
    }

    /// Whether the run should pause at this round boundary, given how
    /// many blocks this invocation has processed.
    pub fn pause_now(&mut self, blocks_this_run: u64) -> bool {
        self.armed
            && (self.max_rounds.is_some_and(|m| blocks_this_run >= m)
                || self.interrupt.is_some_and(|f| f()))
    }
}

/// The `Sink` operator: renders the merged state into [`StreamCheckpoint`]
/// writes — periodic (every `every_rounds` blocks), pause, and final.
/// With no checkpoint policy every write is a no-op, and pausing is
/// impossible.
pub struct CheckpointSink<'a, 'm> {
    policy: Option<&'a CheckpointOptions>,
    fingerprint: u64,
    total_iterations: usize,
    since_checkpoint: u32,
    meter: &'m dyn StageMeter,
}

impl<'a, 'm> CheckpointSink<'a, 'm> {
    /// A sink writing under `policy` (or swallowing writes when `None`).
    pub fn new(
        policy: Option<&'a CheckpointOptions>,
        fingerprint: u64,
        total_iterations: usize,
        meter: &'m dyn StageMeter,
    ) -> Self {
        CheckpointSink {
            policy,
            fingerprint,
            total_iterations,
            since_checkpoint: 0,
            meter,
        }
    }

    fn snapshot(&self, selector: &StreamingSelector, merge: &KeyedMerge) -> StreamCheckpoint {
        StreamCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: self.fingerprint,
            selector: selector.clone(),
            consumed: merge.consumed() as u64,
            shapes: merge.sorted_shapes(),
            profiled_serial_s: merge.serial_s(),
            profiled_wall_s: merge.wall_s(),
        }
    }

    fn write(&self, selector: &StreamingSelector, merge: &KeyedMerge) -> Result<(), ProfileError> {
        let Some(policy) = self.policy else {
            return Ok(());
        };
        let started = Instant::now();
        write_checkpoint(&policy.path, &self.snapshot(selector, merge))?;
        self.meter.record(
            StageId::Sink,
            StageSample {
                items_in: 1,
                items_out: 1,
                wall_ms: elapsed_ms(started),
            },
        );
        Ok(())
    }

    /// One block (measured round or replay block) finished: advance the
    /// checkpoint cadence and write when it comes due.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Checkpoint`] from the periodic write.
    pub fn on_round(
        &mut self,
        selector: &StreamingSelector,
        merge: &KeyedMerge,
    ) -> Result<(), ProfileError> {
        self.since_checkpoint += 1;
        if let Some(policy) = self.policy {
            if self.since_checkpoint >= policy.every_rounds {
                self.write(selector, merge)?;
                self.since_checkpoint = 0;
            }
        }
        Ok(())
    }

    /// Persist the state unconditionally and describe the pause point.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Checkpoint`] from the write, or when no policy
    /// exists ([`BudgetGate`] only arms with one, so the graph never
    /// asks).
    pub fn pause(
        &mut self,
        selector: &StreamingSelector,
        merge: &KeyedMerge,
    ) -> Result<StreamPause, ProfileError> {
        let Some(policy) = self.policy else {
            return Err(ProfileError::Checkpoint {
                path: String::new(),
                message: "cannot pause without a checkpoint policy".to_owned(),
            });
        };
        self.write(selector, merge)?;
        Ok(StreamPause {
            rounds_ingested: selector.rounds(),
            iterations_consumed: merge.consumed() as u64,
            iterations_total: self.total_iterations as u64,
            path: policy.path.clone(),
        })
    }

    /// Persist the completed run's final state (resume short-circuit).
    ///
    /// # Errors
    ///
    /// [`ProfileError::Checkpoint`] from the write.
    pub fn finish(
        &mut self,
        selector: &StreamingSelector,
        merge: &KeyedMerge,
    ) -> Result<(), ProfileError> {
        self.write(selector, merge)
    }
}

/// The canonical operator-graph assembly of streamed profiling:
/// [`RoundSource`] → [`ShardFold`] → [`KeyedMerge`] →
/// [`SaturationGate`]/[`BudgetGate`] → [`CheckpointSink`], preserving
/// every contract of the sequential loop it replaced bit for bit
/// (selection bytes, checkpoint bytes, executor call sequence,
/// interrupt poll cadence).
///
/// ```no_run
/// use sqnn_profiler::pipeline::{StreamGraph, TallyMeter, StageId};
/// use sqnn_profiler::stream::{stream_fingerprint, StreamOptions, ThreadExecutor};
/// # fn demo(profiler: &sqnn_profiler::Profiler, network: &sqnn::Network,
/// #        plan: &sqnn_data::EpochPlan, device: &gpu_sim::Device)
/// #        -> Result<(), sqnn_profiler::ProfileError> {
/// let options = StreamOptions::default();
/// let mut executor =
///     ThreadExecutor::new(profiler, network, device.clone(), options.stat, options.shards);
/// let meter = TallyMeter::new();
/// let fingerprint = stream_fingerprint(network, plan, device, &options);
/// let outcome = StreamGraph::new(&mut executor, plan, &options, fingerprint)
///     .with_meter(&meter)
///     .run()?;
/// assert!(meter.tally(StageId::Fold).items_in > 0);
/// # let _ = outcome;
/// # Ok(())
/// # }
/// ```
pub struct StreamGraph<'e, 'p, 'x, 'm> {
    executor: &'e mut dyn RoundExecutor,
    plan: &'p EpochPlan,
    options: &'p StreamOptions,
    fingerprint: u64,
    checkpoint: Option<&'x CheckpointOptions>,
    interrupt: Option<&'x dyn Fn() -> bool>,
    meter: &'m dyn StageMeter,
}

impl<'e, 'p, 'x, 'm> StreamGraph<'e, 'p, 'x, 'm> {
    /// A graph over `plan` placing rounds on `executor`; `fingerprint`
    /// guards checkpoint compatibility ([`crate::stream::stream_fingerprint`]).
    pub fn new(
        executor: &'e mut dyn RoundExecutor,
        plan: &'p EpochPlan,
        options: &'p StreamOptions,
        fingerprint: u64,
    ) -> Self {
        StreamGraph {
            executor,
            plan,
            options,
            fingerprint,
            checkpoint: None,
            interrupt: None,
            meter: &NOOP_METER,
        }
    }

    /// Attach a checkpoint policy: resume-from-file, periodic writes,
    /// and the max-rounds pause budget.
    pub fn with_checkpoint(mut self, checkpoint: &'x CheckpointOptions) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Attach an interrupt hook, polled at round boundaries (ignored
    /// without a checkpoint policy — there is nowhere to persist).
    pub fn with_interrupt(mut self, interrupt: &'x dyn Fn() -> bool) -> Self {
        self.interrupt = Some(interrupt);
        self
    }

    /// Attach a per-stage observability meter.
    pub fn with_meter(mut self, meter: &'m dyn StageMeter) -> Self {
        self.meter = meter;
        self
    }

    /// Assemble and run the graph to completion or pause.
    ///
    /// # Errors
    ///
    /// Exactly [`crate::stream::profile_epoch_streaming_with`]'s error
    /// surface: invalid options, checkpoint problems, executor
    /// failures, selection failures.
    pub fn run(self) -> Result<StreamOutcome, ProfileError> {
        if self.plan.iterations() == 0 {
            return Err(ProfileError::EmptyPlan);
        }
        if self.options.shards == 0 || self.options.round_len == 0 {
            return Err(ProfileError::InvalidStream {
                message: "shards and round_len must be positive".to_owned(),
            });
        }
        if self.options.stream.unseen_threshold < 0.0
            || !self.options.stream.unseen_threshold.is_finite()
        {
            return Err(ProfileError::InvalidStream {
                message: "unseen_threshold must be non-negative and finite".to_owned(),
            });
        }
        if self.options.stream.quantization == 0 {
            return Err(ProfileError::InvalidStream {
                message: "quantization must be positive".to_owned(),
            });
        }
        if self.checkpoint.is_some_and(|c| c.every_rounds == 0) {
            return Err(ProfileError::InvalidStream {
                message: "checkpoint every_rounds must be positive".to_owned(),
            });
        }
        // A zero budget would pause before any work — for a served job
        // that means an infinite pause/requeue loop, so reject it up
        // front.
        if self.checkpoint.is_some_and(|c| c.max_rounds == Some(0)) {
            return Err(ProfileError::InvalidStream {
                message: "checkpoint max_rounds must be positive when set".to_owned(),
            });
        }

        let total_iterations = self.plan.iterations();
        let mut selector = StreamingSelector::with_config(self.options.stream);
        let mut shapes: HashMap<(u32, u32), IterationProfile> = HashMap::new();
        let mut consumed: usize = 0;
        let mut profiled_serial_s = 0.0;
        let mut profiled_wall_s = 0.0;
        let mut seeds: Vec<IterationProfile> = Vec::new();

        // Resume: adopt the persisted state when a checkpoint exists.
        if let Some(ckpt) = self.checkpoint {
            // A crash between the temp write and the rename leaves a
            // stale `.tmp` sibling behind; it is dead weight (possibly
            // torn) and must never be read, so clear it first.
            let tmp = tmp_sibling(&ckpt.path);
            if tmp.exists() {
                std::fs::remove_file(&tmp).map_err(|e| {
                    checkpoint_error(&ckpt.path, format!("removing stale temp file: {e}"))
                })?;
            }
            if ckpt.path.exists() {
                let loaded = read_checkpoint(&ckpt.path)?;
                if loaded.version != CHECKPOINT_VERSION {
                    return Err(checkpoint_error(
                        &ckpt.path,
                        format!(
                            "version {} is not the supported {CHECKPOINT_VERSION}",
                            loaded.version
                        ),
                    ));
                }
                if loaded.fingerprint != self.fingerprint {
                    return Err(checkpoint_error(
                        &ckpt.path,
                        "checkpoint was written by a different run configuration \
                         (plan, network, device, statistic, round length, or thresholds differ)",
                    ));
                }
                if loaded.consumed as usize > total_iterations {
                    return Err(checkpoint_error(
                        &ckpt.path,
                        "checkpoint is ahead of the plan it claims to match",
                    ));
                }
                selector = loaded.selector;
                consumed = loaded.consumed as usize;
                shapes = loaded
                    .shapes
                    .iter()
                    .map(|p| ((p.seq_len, p.samples), p.clone()))
                    .collect();
                seeds = loaded.shapes;
                profiled_serial_s = loaded.profiled_serial_s;
                profiled_wall_s = loaded.profiled_wall_s;
            }
        }

        // Operator construction: this is the whole graph.
        let mut fold = ShardFold::new(self.executor, self.options.shards, self.meter);
        if !seeds.is_empty() {
            // Seed the executor with the profiled shapes: deterministic
            // per shape, so this only avoids re-simulating.
            fold.seed_shapes(&seeds);
        }
        let mut merge = KeyedMerge::resume(
            shapes,
            consumed,
            profiled_serial_s,
            profiled_wall_s,
            self.meter,
        );
        let mut gate = SaturationGate::resume(selector, self.meter);
        let mut sink = CheckpointSink::new(
            self.checkpoint,
            self.fingerprint,
            total_iterations,
            self.meter,
        );
        let mut budget = BudgetGate::new(self.checkpoint, self.interrupt);
        let mut blocks_this_run: u64 = 0;

        // Measure phase: fold, merge, gate and sink each round in turn,
        // polling the pause budget before each fold.
        if !gate.should_stop() {
            let mut source = RoundSource::new(
                self.plan,
                self.options.round_len,
                merge.consumed(),
                self.options.shards,
                self.meter,
            );
            while let Some((chunks, block_len)) = source.next_round() {
                if budget.pause_now(blocks_this_run) {
                    let pause = sink.pause(gate.selector(), &merge)?;
                    return Ok(StreamOutcome::Paused(pause));
                }
                let reports = fold.run_round(&chunks)?;
                let round = merge.absorb(&reports, block_len);
                let decision = gate.after_round(&round);
                sink.on_round(gate.selector(), &merge)?;
                blocks_this_run += 1;
                if decision.stop {
                    break;
                }
            }
        }

        // Replay phase: batch shapes are free metadata from the data
        // pipeline; a shape profiled during the rounds replays its
        // recorded statistic, and only a never-seen shape costs a
        // measurement. Paced in round-sized blocks so checkpoints keep
        // landing.
        let stat = self.options.stat;
        while merge.consumed() < total_iterations {
            if budget.pause_now(blocks_this_run) {
                let pause = sink.pause(gate.selector(), &merge)?;
                return Ok(StreamOutcome::Paused(pause));
            }
            let start = merge.consumed();
            let end = (start + self.options.round_len).min(total_iterations);
            for batch in self.plan.batches().get(start..end).unwrap_or_default() {
                let key = (batch.seq_len, batch.samples);
                match merge.lookup(key) {
                    Some(profile) => {
                        gate.observe_replayed(profile.seq_len, profile.stat(stat));
                    }
                    None => {
                        let shape = IterationShape::new(batch.samples, batch.seq_len);
                        let profile = fold.profile_shape(shape)?;
                        gate.observe_measured(profile.seq_len, profile.stat(stat));
                        merge.record_on_demand(profile);
                    }
                }
            }
            merge.set_consumed(end);
            blocks_this_run += 1;
            sink.on_round(gate.selector(), &merge)?;
        }

        let selection = gate.finalize()?;
        // Final state: a re-run with the same path resumes straight to
        // this completed selection without re-profiling anything.
        sink.finish(gate.selector(), &merge)?;
        Ok(StreamOutcome::Complete(StreamedEpochProfile {
            selection,
            shards: self.options.shards,
            profiled_serial_s: merge.serial_s(),
            profiled_wall_s: merge.wall_s(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};
    use std::sync::OnceLock;

    use gpu_sim::{Device, GpuConfig};
    use proptest::prelude::*;
    use seqpoint_core::stream::StreamConfig;
    use sqnn::models::gnmt_with;
    use sqnn::Network;
    use sqnn_data::{BatchPolicy, Corpus};

    use crate::stream::{profile_epoch_streaming, stream_fingerprint, ThreadExecutor};
    use crate::Profiler;

    fn device() -> Device {
        Device::new(GpuConfig::vega_fe())
    }

    /// A small steady-state epoch shared by the operator tests: 2k
    /// sentences at batch 16 → 125 batches.
    fn graph_workload() -> (Network, EpochPlan) {
        let corpus = Corpus::iwslt15_like(2_000, 13);
        let plan = EpochPlan::new(&corpus, BatchPolicy::shuffled(16), 13).unwrap();
        (gnmt_with(400, 48), plan)
    }

    /// Stream options that saturate on `graph_workload`.
    fn graph_options(shards: usize) -> StreamOptions {
        StreamOptions {
            shards,
            round_len: 32,
            stream: StreamConfig {
                saturation_window: 128,
                unseen_threshold: 0.05,
                quantization: 8,
                ..StreamConfig::default()
            },
            ..StreamOptions::default()
        }
    }

    /// A unique, self-cleaning checkpoint path under the tmp dir.
    struct TempCheckpoint(PathBuf);

    impl TempCheckpoint {
        fn new(tag: &str) -> Self {
            let mut path = std::env::temp_dir();
            path.push(format!("seqpoint-pipe-{}-{tag}.json", std::process::id()));
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
    fn stage_ids_are_dense_and_distinctly_labeled() {
        for (i, stage) in StageId::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        let labels: std::collections::HashSet<&str> =
            StageId::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), StageId::ALL.len());
    }

    #[test]
    fn tally_meter_accumulates_per_stage() {
        let meter = TallyMeter::new();
        meter.record(
            StageId::Merge,
            StageSample {
                items_in: 3,
                items_out: 1,
                wall_ms: 7,
            },
        );
        meter.record(
            StageId::Merge,
            StageSample {
                items_in: 2,
                items_out: 1,
                wall_ms: 1,
            },
        );
        let merge = meter.tally(StageId::Merge);
        assert_eq!(merge.items_in, 5);
        assert_eq!(merge.items_out, 2);
        assert_eq!(merge.wall_ms, 8);
        assert_eq!(merge.samples, 2);
        assert_eq!(meter.tally(StageId::Sink), StageTally::default());
    }

    #[test]
    fn source_rechunks_exactly_like_the_dealt_plan() {
        let (_, plan) = graph_workload();
        let meter = TallyMeter::new();
        let (round_len, shards) = (7, 3);
        let mut source = RoundSource::new(&plan, round_len, 0, shards, &meter);
        let mut consumed = 0;
        for block in plan.batches().chunks(round_len) {
            let (chunks, len) = source.next_round().unwrap();
            assert_eq!(len, block.len());
            assert_eq!(chunks, deal_round(block, consumed, shards));
            consumed += block.len();
        }
        assert!(source.next_round().is_none());
        assert_eq!(consumed, plan.iterations());
        assert_eq!(
            meter.tally(StageId::Source).items_in,
            plan.iterations() as u64
        );

        // A resumed source picks up at the exact round boundary with the
        // same global deal positions a never-interrupted source used.
        let mut resumed = RoundSource::new(&plan, round_len, 2 * round_len, shards, &meter);
        let (chunks, _) = resumed.next_round().unwrap();
        let third = plan.batches().chunks(round_len).nth(2).unwrap();
        assert_eq!(chunks, deal_round(third, 2 * round_len, shards));
    }

    #[test]
    fn fold_is_deterministic_and_validates_the_report_count() {
        let (net, plan) = graph_workload();
        let device = device();
        let profiler = Profiler::new();
        let options = graph_options(3);
        let meter = TallyMeter::new();
        let block = plan.batches().get(..48).unwrap();
        let chunks = deal_round(block, 0, 3);
        let mut executor = ThreadExecutor::new(
            &profiler,
            &net,
            device.clone(),
            options.stat,
            options.shards,
        );
        let mut fold = ShardFold::new(&mut executor, 3, &meter);
        let first = fold.run_round(&chunks).unwrap();
        let second = fold.run_round(&chunks).unwrap();
        assert_eq!(first.len(), 3);
        assert_eq!(first, second, "same chunks must fold to identical reports");
        assert_eq!(meter.tally(StageId::Fold).items_in, 96);

        // An executor that drops a chunk is caught at the fold boundary.
        struct ShortExecutor;
        impl RoundExecutor for ShortExecutor {
            fn execute_round(
                &mut self,
                _chunks: &[ShardChunk],
            ) -> Result<Vec<ShardReport>, ProfileError> {
                Ok(vec![ShardReport {
                    tracker: OnlineSlTracker::new(),
                    chunk_time_s: 0.0,
                    shapes: Vec::new(),
                }])
            }
            fn profile_shape(
                &mut self,
                _shape: IterationShape,
            ) -> Result<IterationProfile, ProfileError> {
                Err(ProfileError::Executor {
                    message: "unused".to_owned(),
                })
            }
        }
        let mut short = ShortExecutor;
        let mut fold = ShardFold::new(&mut short, 3, &meter);
        let err = fold.run_round(&chunks).unwrap_err();
        assert!(
            matches!(err, ProfileError::Executor { ref message }
                if message.contains("answered 1 of 3")),
            "{err:?}"
        );
    }

    #[test]
    fn merge_is_invariant_to_the_shard_partition() {
        let (net, plan) = graph_workload();
        let device = device();
        let profiler = Profiler::new();
        let options = graph_options(1);
        let block = plan.batches().get(..48).unwrap();
        let meter = TallyMeter::new();
        let absorb = |shards: usize| {
            let mut executor =
                ThreadExecutor::new(&profiler, &net, device.clone(), options.stat, shards);
            let chunks = deal_round(block, 0, shards);
            let reports = executor.execute_round(&chunks).unwrap();
            let mut merge = KeyedMerge::new(&meter);
            let round = merge.absorb(&reports, block.len());
            (merge, round)
        };
        let (single, single_round) = absorb(1);
        assert_eq!(single.consumed(), 48);
        for shards in [2, 3, 5] {
            let (merged, round) = absorb(shards);
            assert_eq!(merged.consumed(), single.consumed(), "shards = {shards}");
            assert_eq!(
                merged.shapes_profiled(),
                single.shapes_profiled(),
                "shards = {shards}"
            );
            // Same work, just dealt out: identical serial cost, and the
            // round tracker aggregates the same observations.
            assert!((merged.serial_s() - single.serial_s()).abs() <= 1e-9 * single.serial_s());
            assert!(merged.wall_s() <= merged.serial_s() + 1e-12);
            assert_eq!(round.iterations(), single_round.iterations());
            assert_eq!(round.unique_count(), single_round.unique_count());
            for (sl, count) in single_round.sl_counts() {
                let mean = round.mean_stat_of(sl).unwrap();
                let reference = single_round.mean_stat_of(sl).unwrap();
                assert!(
                    (mean - reference).abs() <= 1e-9 * reference.abs().max(1.0),
                    "sl {sl} ({count} iterations) diverged"
                );
            }
        }

        // An on-demand replay measurement charges both cost totals and
        // joins the memo.
        let (mut merged, _) = absorb(1);
        let mut executor = ThreadExecutor::new(&profiler, &net, device.clone(), options.stat, 1);
        let profile = executor
            .profile_shape(IterationShape::new(16, 999))
            .unwrap();
        let (serial, wall) = (merged.serial_s(), merged.wall_s());
        merged.record_on_demand(profile.clone());
        assert!((merged.serial_s() - serial - profile.time_s).abs() < 1e-12);
        assert!((merged.wall_s() - wall - profile.time_s).abs() < 1e-12);
        assert_eq!(
            merged.lookup((profile.seq_len, profile.samples)),
            Some(&profile)
        );
    }

    #[test]
    fn saturation_gate_stops_a_saturated_stream() {
        let config = StreamConfig {
            saturation_window: 300,
            unseen_threshold: 0.0,
            quantization: 1,
            ..StreamConfig::default()
        };
        let meter = TallyMeter::new();
        let mut gate = SaturationGate::resume(StreamingSelector::with_config(config), &meter);
        let mut stopped = false;
        for _ in 0..100 {
            let mut round = OnlineSlTracker::new();
            round.observe_n(40, 1.5, 30);
            if gate.after_round(&round).stop {
                stopped = true;
                break;
            }
        }
        assert!(stopped, "a saturated stream must stop within the window");
        assert_eq!(
            meter.tally(StageId::Gate).items_in,
            meter.tally(StageId::Gate).samples
        );
    }

    #[test]
    fn budget_gate_arms_only_with_a_checkpoint_policy() {
        let polls = std::cell::Cell::new(0u32);
        let hook = || {
            polls.set(polls.get() + 1);
            false
        };
        // Without a checkpoint there is nowhere to persist a pause: the
        // gate never trips and never even polls the hook.
        let mut unarmed = BudgetGate::new(None, Some(&hook));
        assert!(!unarmed.pause_now(1_000));
        assert_eq!(polls.get(), 0);

        let ckpt = TempCheckpoint::new("budget");
        let policy = CheckpointOptions {
            max_rounds: Some(3),
            ..CheckpointOptions::new(ckpt.path())
        };
        let mut armed = BudgetGate::new(Some(&policy), Some(&hook));
        assert!(!armed.pause_now(2));
        assert_eq!(polls.get(), 1, "below budget the hook is polled once");
        assert!(armed.pause_now(3));
        assert_eq!(
            polls.get(),
            1,
            "the max-rounds trip must short-circuit the hook"
        );

        // Hook-only pausing (the serve drain path) works without a
        // round budget.
        let tripping = || true;
        let drain_policy = CheckpointOptions::new(ckpt.path());
        let mut draining = BudgetGate::new(Some(&drain_policy), Some(&tripping));
        assert!(draining.pause_now(0));
    }

    #[test]
    fn sink_writes_on_cadence_pause_and_finish() {
        let meter = TallyMeter::new();
        let ckpt = TempCheckpoint::new("sink");
        let policy = CheckpointOptions {
            every_rounds: 2,
            ..CheckpointOptions::new(ckpt.path())
        };
        let selector = StreamingSelector::with_config(StreamConfig::default());
        let merge = KeyedMerge::new(&meter);
        let mut sink = CheckpointSink::new(Some(&policy), 99, 640, &meter);
        sink.on_round(&selector, &merge).unwrap();
        assert!(!ckpt.path().exists(), "one round is below the cadence");
        sink.on_round(&selector, &merge).unwrap();
        assert!(ckpt.path().exists(), "the second round comes due");
        let loaded = read_checkpoint(ckpt.path()).unwrap();
        assert_eq!(loaded.fingerprint, 99);
        assert_eq!(loaded.consumed, 0);

        let pause = sink.pause(&selector, &merge).unwrap();
        assert_eq!(pause.iterations_total, 640);
        assert_eq!(pause.path.as_path(), ckpt.path());
        sink.finish(&selector, &merge).unwrap();
        assert_eq!(meter.tally(StageId::Sink).samples, 3);

        // No policy: writes are no-ops and pausing is impossible.
        let mut silent = CheckpointSink::new(None, 0, 10, &meter);
        silent.on_round(&selector, &merge).unwrap();
        assert!(silent.pause(&selector, &merge).is_err());
        assert_eq!(meter.tally(StageId::Sink).samples, 3);
    }

    /// Wraps the in-process executor and fails one `execute_round` call
    /// (1-based `fail_on`; `0` never fails).
    struct FlakyExecutor<'a> {
        inner: ThreadExecutor<'a>,
        calls: usize,
        fail_on: usize,
        tripped: bool,
    }

    impl RoundExecutor for FlakyExecutor<'_> {
        fn execute_round(
            &mut self,
            chunks: &[ShardChunk],
        ) -> Result<Vec<ShardReport>, ProfileError> {
            self.calls += 1;
            if !self.tripped && self.calls == self.fail_on {
                self.tripped = true;
                return Err(ProfileError::Executor {
                    message: "injected shard loss".to_owned(),
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

    /// Assemble and run the canonical graph over `graph_workload`.
    fn run_graph(
        options: &StreamOptions,
        checkpoint: Option<&CheckpointOptions>,
        fail_on: usize,
    ) -> Result<StreamOutcome, ProfileError> {
        let (net, plan) = graph_workload();
        let device = device();
        let profiler = Profiler::new();
        let fingerprint = stream_fingerprint(&net, &plan, &device, options);
        let inner = ThreadExecutor::new(
            &profiler,
            &net,
            device.clone(),
            options.stat,
            options.shards,
        );
        let run = |executor: &mut dyn RoundExecutor| {
            let mut graph = StreamGraph::new(executor, &plan, options, fingerprint);
            if let Some(ckpt) = checkpoint {
                graph = graph.with_checkpoint(ckpt);
            }
            graph.run()
        };
        if fail_on > 0 {
            let mut flaky = FlakyExecutor {
                inner,
                calls: 0,
                fail_on,
                tripped: false,
            };
            run(&mut flaky)
        } else {
            let mut inner = inner;
            run(&mut inner)
        }
    }

    /// The canonical single-shard streamed run every property case is
    /// measured against, computed once.
    fn reference_profile() -> &'static StreamedEpochProfile {
        static REFERENCE: OnceLock<StreamedEpochProfile> = OnceLock::new();
        REFERENCE.get_or_init(|| {
            let (net, plan) = graph_workload();
            let device = device();
            let profiler = Profiler::new();
            profile_epoch_streaming(&profiler, &net, &plan, &device, &graph_options(1)).unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The graph's output is pinned to the canonical run across
        /// shard counts, checkpoint cadences, kill-and-resume points,
        /// and injected executor failures.
        #[test]
        fn graph_output_survives_shards_checkpoints_and_failures(
            shards in 1usize..5,
            every in 1u32..5,
            kill in 1u64..6,
            fail_on in 0usize..8,
        ) {
            let options = graph_options(shards);
            let plain = match run_graph(&options, None, 0).unwrap() {
                StreamOutcome::Complete(profile) => profile,
                StreamOutcome::Paused(_) => unreachable!("no checkpoint, cannot pause"),
            };

            // Across shard counts: the same stop point and selection
            // (weights exact, statistics to rounding), same serial cost.
            let reference = reference_profile();
            prop_assert_eq!(
                plain.selection.iterations_measured(),
                reference.selection.iterations_measured()
            );
            prop_assert_eq!(plain.selection.stopped_at(), reference.selection.stopped_at());
            prop_assert_eq!(
                plain.selection.seqpoints().seq_lens(),
                reference.selection.seqpoints().seq_lens()
            );
            for (p, r) in plain
                .selection
                .seqpoints()
                .points()
                .iter()
                .zip(reference.selection.seqpoints().points())
            {
                prop_assert_eq!(p.weight, r.weight);
                prop_assert!((p.stat - r.stat).abs() <= 1e-9 * r.stat.abs().max(1.0));
            }
            prop_assert!(
                (plain.profiled_serial_s - reference.profiled_serial_s).abs()
                    <= 1e-9 * reference.profiled_serial_s
            );

            // Kill-and-resume at a `kill`-block budget: however many
            // times the run is preempted, the finished profile is
            // byte-identical to the uninterrupted one, costs included.
            let ckpt = TempCheckpoint::new(&format!("prop-kill-{shards}-{every}-{kill}-{fail_on}"));
            let budget = CheckpointOptions {
                every_rounds: every,
                max_rounds: Some(kill),
                ..CheckpointOptions::new(ckpt.path())
            };
            let mut finished = None;
            for _ in 0..200 {
                match run_graph(&options, Some(&budget), 0).unwrap() {
                    StreamOutcome::Complete(profile) => {
                        finished = Some(profile);
                        break;
                    }
                    StreamOutcome::Paused(_) => {}
                }
            }
            let finished = finished.expect("kill-and-resume never completed");
            prop_assert_eq!(&finished, &plain);

            // An injected executor failure surfaces as an error whose
            // checkpoint resumes to the byte-identical profile.
            let ckpt = TempCheckpoint::new(&format!("prop-flaky-{shards}-{every}-{kill}-{fail_on}"));
            let policy = CheckpointOptions {
                every_rounds: every,
                ..CheckpointOptions::new(ckpt.path())
            };
            let recovered = match run_graph(&options, Some(&policy), fail_on) {
                Ok(StreamOutcome::Complete(profile)) => profile,
                Ok(StreamOutcome::Paused(_)) => unreachable!("no budget, cannot pause"),
                Err(_) => match run_graph(&options, Some(&policy), 0).unwrap() {
                    StreamOutcome::Complete(profile) => profile,
                    StreamOutcome::Paused(_) => unreachable!("no budget, cannot pause"),
                },
            };
            prop_assert_eq!(&recovered, &plain);
        }
    }
}
