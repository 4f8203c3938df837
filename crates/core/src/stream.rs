//! Streaming, sharded SeqPoint selection.
//!
//! [`crate::online`] tracks one shard's sequence-length space; this
//! module scales that to a production-shaped ingestion path. The
//! iteration stream arrives in **rounds** (fixed-size contiguous blocks),
//! each round is dealt round-robin across worker shards, and the
//! per-shard [`OnlineSlTracker`] states are merged after every round.
//!
//! The cost model mirrors the paper's: an iteration's *sequence length*
//! is free (it is batch-shape metadata from the data pipeline), but its
//! *statistic* — runtime, counters — requires actually profiling the
//! iteration. Ingestion therefore runs in two phases:
//!
//! 1. **Measure** — every iteration is profiled and observed, until the
//!    SL space **saturates**: at least a full window ingested, and either
//!    no new SL within the window or a Good–Turing unseen-SL probability
//!    at or below the configured threshold.
//! 2. **Replay** — for the remaining stream only the (free) shape
//!    metadata is consumed: iterations whose shape was already profiled
//!    are *replayed* against the recorded statistic without re-executing
//!    anything (the paper's key observation 4 — identical shapes behave
//!    identically), and a genuinely new shape is measured on demand.
//!
//! Both counts and per-SL statistic sums therefore stay exact for the
//! whole epoch, so the selection the merged state feeds into
//! [`crate::SeqPointPipeline::run_profiles`] matches the full-epoch path
//! while only a fraction of the iterations were ever executed — and the
//! full per-iteration epoch log is never materialized: selection runs on
//! the per-SL aggregates the trackers already hold.
//!
//! The phase-1 stop decision depends only on the stream prefix and the
//! round boundaries — never on the shard count — so sharded and
//! unsharded runs select the same SeqPoints ([`select_streaming`]'s key
//! invariant, enforced by the workspace property tests).

use serde::{Deserialize, Serialize};

use crate::online::OnlineSlTracker;
use crate::{CoreError, EpochLog, SeqPointAnalysis, SeqPointConfig, SeqPointPipeline, SeqPointSet};

/// Thresholds of the streaming early-stop rule, plus the pipeline
/// configuration applied to the streamed counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Measurement may only stop once at least this many iterations have
    /// been ingested, and (for the no-new-SL criterion) no new SL
    /// appeared within this many iterations.
    pub saturation_window: u64,
    /// Good–Turing ceiling: measurement may also stop while the
    /// estimated probability of the next iteration showing an unseen SL
    /// is at most this. Long-tailed SL spaces rarely go a full window
    /// without a new singleton, so this is the criterion that fires on
    /// realistic corpora; new SLs appearing after the stop are still
    /// measured on demand.
    pub unseen_threshold: f64,
    /// SL granularity of the novelty tracking behind the stop rule:
    /// SLs are bucketed into ranges of this width (1 = exact SLs). The
    /// paper's Fig. 8 observation — close SLs have near-identical
    /// execution profiles — means a fresh SL right next to a measured
    /// one is not real novelty; wide-SL-space workloads (LibriSpeech
    /// spans ~50–450) saturate at bucket granularity long before every
    /// individual SL has been seen. Statistics stay exact per SL
    /// regardless: this only decides when measurement may stop.
    pub quantization: u32,
    /// Thresholds for the selection pipeline run on the streamed counts.
    pub pipeline: SeqPointConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            saturation_window: 256,
            unseen_threshold: 0.05,
            quantization: 1,
            pipeline: SeqPointConfig::default(),
        }
    }
}

/// Merges per-shard tracker state round by round, decides when the SL
/// space has saturated, and absorbs the replayed remainder of the
/// stream.
///
/// ```
/// use seqpoint_core::online::OnlineSlTracker;
/// use seqpoint_core::stream::{StreamConfig, StreamingSelector};
///
/// let mut selector = StreamingSelector::with_config(StreamConfig {
///     saturation_window: 8,
///     ..StreamConfig::default()
/// });
/// // Each round: merge whatever the worker shards measured.
/// while !selector.should_stop() {
///     let mut shard = OnlineSlTracker::new();
///     for sl in [10, 20, 30, 20] {
///         shard.observe(sl, 0.1);
///     }
///     selector.ingest_round(&shard);
/// }
/// // 3 SLs, closed space: measurement stops; the rest of the epoch is
/// // replayed against already-recorded statistics, execution-free.
/// assert!(selector.tracker().contains(20));
/// selector.observe_replayed(20, 0.1);
/// assert_eq!(selector.iterations_seen(), selector.iterations_measured() + 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingSelector {
    config: StreamConfig,
    measured: OnlineSlTracker,
    replayed: OnlineSlTracker,
    novelty: OnlineSlTracker,
    last_new_at: u64,
    rounds: u32,
    stopped_at: Option<u64>,
}

impl Default for StreamingSelector {
    fn default() -> Self {
        StreamingSelector::with_config(StreamConfig::default())
    }
}

impl StreamingSelector {
    /// A selector with the default thresholds.
    pub fn new() -> Self {
        StreamingSelector::default()
    }

    /// A selector with custom thresholds.
    pub fn with_config(config: StreamConfig) -> Self {
        StreamingSelector {
            config,
            measured: OnlineSlTracker::new(),
            replayed: OnlineSlTracker::new(),
            novelty: OnlineSlTracker::new(),
            last_new_at: 0,
            rounds: 0,
            stopped_at: None,
        }
    }

    fn bucket(config: &StreamConfig, seq_len: u32) -> u32 {
        seq_len / config.quantization.max(1)
    }

    /// The active configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Merge one round's worth of measured observations (typically the
    /// union of all worker shards' chunk trackers for that round) and
    /// return whether measurement may stop now.
    ///
    /// New-SL bookkeeping is at round granularity: a new SL anywhere in
    /// the round resets the saturation clock to the round's *end*, which
    /// can only delay the stop relative to exact per-iteration tracking.
    pub fn ingest_round(&mut self, round: &OnlineSlTracker) -> bool {
        if round.iterations() > 0 {
            let unique_before = self.novelty.unique_count();
            self.measured.merge(round);
            for (sl, count) in round.sl_counts() {
                let bucket = Self::bucket(&self.config, sl);
                self.novelty.observe_n(bucket, 0.0, count);
            }
            self.rounds += 1;
            if self.novelty.unique_count() > unique_before {
                self.last_new_at = self.novelty.iterations();
            }
        }
        self.should_stop()
    }

    /// Whether the early-stop rule currently holds: at least a full
    /// saturation window measured, and either no new SL within the last
    /// window or a Good–Turing unseen probability at or below the
    /// threshold.
    pub fn should_stop(&mut self) -> bool {
        if self.stopped_at.is_some() {
            return true;
        }
        let window = self.config.saturation_window.max(1);
        let ingested = self.novelty.iterations();
        let saturated = ingested >= window
            && (ingested - self.last_new_at >= window
                || self.novelty.unseen_probability() <= self.config.unseen_threshold);
        if saturated {
            self.stopped_at = Some(ingested);
        }
        saturated
    }

    /// Record a measured iteration outside the round flow (a shape never
    /// profiled before surfacing during the replay phase).
    pub fn observe_measured(&mut self, seq_len: u32, stat: f64) {
        self.measured.observe(seq_len, stat);
        let bucket = Self::bucket(&self.config, seq_len);
        self.novelty.observe(bucket, 0.0);
    }

    /// Count an iteration by replaying a statistic already recorded for
    /// its shape, without charging a measurement. Replayed iterations
    /// weigh into the selection with the exact statistic given, so the
    /// streamed aggregates match the full-epoch log's.
    pub fn observe_replayed(&mut self, seq_len: u32, stat: f64) {
        self.replayed.observe(seq_len, stat);
        let bucket = Self::bucket(&self.config, seq_len);
        self.novelty.observe(bucket, 0.0);
    }

    /// The merged tracker of measured observations.
    pub fn tracker(&self) -> &OnlineSlTracker {
        &self.measured
    }

    /// Iterations actually measured (profiled).
    pub fn iterations_measured(&self) -> u64 {
        self.measured.iterations()
    }

    /// Iterations seen in total: measured plus replayed.
    pub fn iterations_seen(&self) -> u64 {
        self.measured.iterations() + self.replayed.iterations()
    }

    /// Rounds merged during the measurement phase.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Measured iterations at the moment the early stop fired, if it has.
    pub fn stopped_at(&self) -> Option<u64> {
        self.stopped_at
    }

    /// Serialize the selector's complete state — configuration, measured/
    /// replayed/novelty trackers (compensation terms included), round
    /// count, and stop state — to a JSON checkpoint string.
    ///
    /// [`Self::restore`] rebuilds a selector that continues *bit-for-bit*
    /// identically to the original: every float is written with
    /// round-trip-exact formatting, so a run interrupted at any round
    /// boundary and resumed from its checkpoint reaches the same
    /// [`Self::stopped_at`] and the same [`Self::finalize`] selection as
    /// an uninterrupted run (enforced by the workspace property tests).
    pub fn checkpoint(&self) -> String {
        serde::json::to_string(self).expect("selector serialization is infallible")
    }

    /// Rebuild a selector from a [`Self::checkpoint`] string.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when the checkpoint is malformed
    /// or structurally incompatible ([`Self::validate`]).
    pub fn restore(checkpoint: &str) -> Result<Self, CoreError> {
        let selector: StreamingSelector = serde::json::from_str(checkpoint)
            .map_err(|e| CoreError::invalid("checkpoint", e.to_string()))?;
        selector
            .validate()
            .map_err(|reason| CoreError::invalid("checkpoint", reason))?;
        Ok(selector)
    }

    /// Structural consistency of state adopted from a checkpoint: each
    /// tracker's internal invariants ([`OnlineSlTracker::validate`]) and
    /// a stop marker that lies inside the ingested stream. A corrupt but
    /// parseable checkpoint fails here, at the restore boundary, instead
    /// of panicking later inside an accessor.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (name, tracker) in [
            ("measured", &self.measured),
            ("replayed", &self.replayed),
            ("novelty", &self.novelty),
        ] {
            tracker
                .validate()
                .map_err(|reason| format!("{name} tracker: {reason}"))?;
        }
        let seen = self.measured.iterations() + self.replayed.iterations();
        if self.novelty.iterations() != seen {
            return Err(format!(
                "novelty tracker covers {} iterations but measured + replayed is {seen}",
                self.novelty.iterations()
            ));
        }
        if let Some(stopped_at) = self.stopped_at {
            if stopped_at > self.novelty.iterations() {
                return Err(format!(
                    "stop marker at {stopped_at} lies beyond the {}-iteration stream",
                    self.novelty.iterations()
                ));
            }
        }
        Ok(())
    }

    /// Run the selection pipeline on the streamed aggregates: exact
    /// per-SL counts and statistic sums from the measured and replayed
    /// trackers, with no per-iteration log ever materialized
    /// ([`SeqPointPipeline::run_profiles`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyLog`] when nothing was ingested; otherwise
    /// whatever [`SeqPointPipeline::run_profiles`] reports.
    pub fn finalize(&self) -> Result<StreamingAnalysis, CoreError> {
        let mut combined = self.measured.clone();
        combined.merge(&self.replayed);
        let analysis = SeqPointPipeline::with_config(self.config.pipeline)
            .run_profiles(&combined.to_sl_profiles())?;
        Ok(StreamingAnalysis {
            analysis,
            iterations_measured: self.measured.iterations(),
            iterations_total: self.iterations_seen(),
            rounds: self.rounds,
            stopped_at: self.stopped_at,
            unseen_probability: self.novelty.unseen_probability(),
        })
    }
}

/// The outcome of a streamed selection: the ordinary pipeline analysis
/// plus how much of the epoch actually had to be profiled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingAnalysis {
    analysis: SeqPointAnalysis,
    iterations_measured: u64,
    iterations_total: u64,
    rounds: u32,
    stopped_at: Option<u64>,
    unseen_probability: f64,
}

impl StreamingAnalysis {
    /// The pipeline analysis over the streamed counts.
    pub fn analysis(&self) -> &SeqPointAnalysis {
        &self.analysis
    }

    /// The selected representative iterations.
    pub fn seqpoints(&self) -> &SeqPointSet {
        self.analysis.seqpoints()
    }

    /// Iterations actually profiled before/despite the early stop.
    pub fn iterations_measured(&self) -> u64 {
        self.iterations_measured
    }

    /// Iterations in the epoch (measured + replayed).
    pub fn iterations_total(&self) -> u64 {
        self.iterations_total
    }

    /// Iterations whose measurement the early stop skipped.
    pub fn iterations_skipped(&self) -> u64 {
        self.iterations_total - self.iterations_measured
    }

    /// Whether measurement stopped before exhausting the epoch.
    pub fn early_stopped(&self) -> bool {
        self.iterations_measured < self.iterations_total
    }

    /// Measured iterations at the moment the stop rule fired, if it did.
    pub fn stopped_at(&self) -> Option<u64> {
        self.stopped_at
    }

    /// Rounds merged during the measurement phase.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// The Good–Turing unseen probability over the whole ingested
    /// stream, at the stop rule's bucket granularity
    /// ([`StreamConfig::quantization`]).
    pub fn unseen_probability(&self) -> f64 {
        self.unseen_probability
    }

    /// Fraction of the epoch that was profiled, in `(0, 1]`.
    pub fn measured_fraction(&self) -> f64 {
        if self.iterations_total == 0 {
            return 1.0;
        }
        self.iterations_measured as f64 / self.iterations_total as f64
    }

    /// Epoch iterations per profiled iteration — the epoch-logging cost
    /// reduction the early stop buys on top of the SeqPoint reduction.
    pub fn logging_speedup(&self) -> f64 {
        if self.iterations_measured == 0 {
            return 1.0;
        }
        self.iterations_total as f64 / self.iterations_measured as f64
    }
}

/// Run the full streaming selection over an in-memory iteration stream:
/// deal each `round_len`-iteration block round-robin across `num_shards`
/// worker trackers, merge, stop measuring on saturation, replay the
/// rest, and select.
///
/// The selection is **shard-count independent**: for any `num_shards`,
/// the merged state after round `r` covers exactly the stream's first
/// `r * round_len` iterations, so the stop point and the resulting
/// SeqPoints match the unsharded (`num_shards = 1`) run.
///
/// ```
/// use seqpoint_core::stream::{select_streaming, StreamConfig};
/// use seqpoint_core::EpochLog;
///
/// # fn main() -> Result<(), seqpoint_core::CoreError> {
/// // A closed SL space: 40 lengths cycling over 4000 iterations.
/// let log = EpochLog::from_pairs(
///     (0..4000u32).map(|i| (10 + (i * 7) % 40, 1.0 + f64::from((i * 7) % 40))),
/// );
/// let streamed = select_streaming(&log, 4, 64, &StreamConfig::default())?;
/// assert!(streamed.early_stopped());
/// assert!(streamed.logging_speedup() > 2.0);
/// assert_eq!(streamed.iterations_total(), 4000);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] for zero `num_shards`/`round_len` or a
/// negative/non-finite unseen threshold; otherwise whatever
/// [`StreamingSelector::finalize`] reports.
pub fn select_streaming(
    log: &EpochLog,
    num_shards: usize,
    round_len: usize,
    config: &StreamConfig,
) -> Result<StreamingAnalysis, CoreError> {
    if num_shards == 0 {
        return Err(CoreError::invalid("num_shards", "must be positive"));
    }
    if round_len == 0 {
        return Err(CoreError::invalid("round_len", "must be positive"));
    }
    if config.unseen_threshold < 0.0 || !config.unseen_threshold.is_finite() {
        return Err(CoreError::invalid(
            "unseen_threshold",
            "must be non-negative and finite",
        ));
    }
    if config.quantization == 0 {
        return Err(CoreError::invalid("quantization", "must be positive"));
    }
    let mut selector = StreamingSelector::with_config(*config);
    let mut consumed = 0;
    for block in log.records().chunks(round_len) {
        // Deal by global iteration index — the same round-robin rule as
        // `sqnn_data::EpochPlan::shard` — then merge shard order.
        let mut chunks = vec![OnlineSlTracker::new(); num_shards];
        for (offset, record) in block.iter().enumerate() {
            chunks[(consumed + offset) % num_shards].observe(record.seq_len, record.stat);
        }
        let mut round = OnlineSlTracker::new();
        for chunk in &chunks {
            round.merge(chunk);
        }
        consumed += block.len();
        if selector.ingest_round(&round) {
            break;
        }
    }
    // Replay phase: the log already holds every statistic, so nothing
    // after the stop costs a measurement.
    for record in &log.records()[consumed..] {
        selector.observe_replayed(record.seq_len, record.stat);
    }
    selector.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream with a closed SL space that saturates well before its end.
    fn cyclic_log(iterations: u32, sls: u32) -> EpochLog {
        EpochLog::from_pairs((0..iterations).map(|i| {
            let sl = 10 + (i * 13) % sls;
            (sl, 0.2 + f64::from(sl) * 0.01)
        }))
    }

    /// Selection equality across *different algorithms* (streamed per-SL
    /// sums vs the full path's incremental per-SL averages): structure
    /// and weights exact, statistics tolerant to last-ulp rounding.
    fn assert_same_selection(a: &SeqPointSet, b: &SeqPointSet) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.points().iter().zip(b.points()) {
            assert_eq!(x.seq_len, y.seq_len);
            assert_eq!(x.weight, y.weight);
            let tolerance = 1e-9 * y.stat.abs().max(1.0);
            assert!((x.stat - y.stat).abs() < tolerance);
        }
    }

    /// Bit-exact selection equality, for runs of the *same* streaming
    /// algorithm (different shard counts, or interrupted/resumed): the
    /// compensated per-SL sums make the statistics order-independent.
    fn assert_identical_selection(a: &SeqPointSet, b: &SeqPointSet) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.points().iter().zip(b.points()) {
            assert_eq!(x.seq_len, y.seq_len);
            assert_eq!(x.weight, y.weight);
            assert_eq!(
                x.stat.to_bits(),
                y.stat.to_bits(),
                "SL {}: {} vs {}",
                x.seq_len,
                x.stat,
                y.stat
            );
        }
    }

    #[test]
    fn early_stop_measures_a_fraction_and_still_selects_exactly() {
        let log = cyclic_log(5_000, 60);
        let streamed = select_streaming(&log, 4, 50, &StreamConfig::default()).unwrap();
        assert!(streamed.early_stopped());
        assert!(streamed.iterations_measured() < 1_000);
        assert_eq!(streamed.iterations_total(), 5_000);
        assert_eq!(
            streamed.iterations_skipped(),
            5_000 - streamed.iterations_measured()
        );
        assert!(streamed.logging_speedup() > 5.0);
        // Counts are exact, so the selection matches the full-epoch run
        // (weights included), despite measuring a fraction of it.
        let full = SeqPointPipeline::new().run(&log).unwrap();
        assert_same_selection(streamed.seqpoints(), full.seqpoints());
        assert_eq!(streamed.analysis().iterations(), log.len());
    }

    #[test]
    fn long_tail_stream_matches_full_selection_via_replay() {
        // Rare new SLs keep appearing past the stop: the replay phase
        // still lands them in the streamed aggregates with exact stats.
        let mut pairs: Vec<(u32, f64)> = (0..3_000u32)
            .map(|i| {
                let sl = 10 + (i * 13) % 40;
                (sl, 0.2 + f64::from(sl) * 0.01)
            })
            .collect();
        // Inject tail singletons well past saturation.
        pairs[2_500] = (500, 9.0);
        pairs[2_900] = (600, 11.0);
        let log = EpochLog::from_pairs(pairs);
        let streamed = select_streaming(&log, 3, 50, &StreamConfig::default()).unwrap();
        assert!(streamed.early_stopped());
        let full = SeqPointPipeline::new().run(&log).unwrap();
        assert_same_selection(streamed.seqpoints(), full.seqpoints());
        assert_eq!(streamed.analysis().unique_sls(), 42);
        // Nothing after the stop charged a measurement.
        assert_eq!(
            streamed.iterations_measured(),
            streamed.stopped_at().unwrap()
        );
    }

    #[test]
    fn sharded_runs_match_the_unsharded_run() {
        let log = cyclic_log(3_000, 55);
        let config = StreamConfig::default();
        let unsharded = select_streaming(&log, 1, 40, &config).unwrap();
        for shards in [2, 3, 5, 8] {
            let sharded = select_streaming(&log, shards, 40, &config).unwrap();
            assert_eq!(
                sharded.iterations_measured(),
                unsharded.iterations_measured(),
                "shards = {shards}"
            );
            assert_eq!(sharded.stopped_at(), unsharded.stopped_at());
            assert_identical_selection(sharded.seqpoints(), unsharded.seqpoints());
        }
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_garbage() {
        let log = cyclic_log(500, 30);
        let mut selector = StreamingSelector::with_config(StreamConfig::default());
        let mut round = OnlineSlTracker::new();
        for record in &log.records()[..200] {
            round.observe(record.seq_len, record.stat);
        }
        selector.ingest_round(&round);
        let restored = StreamingSelector::restore(&selector.checkpoint()).unwrap();
        assert_eq!(restored, selector);
        assert!(StreamingSelector::restore("not json").is_err());
        assert!(StreamingSelector::restore("{\"config\":3}").is_err());
    }

    #[test]
    fn restore_rejects_parseable_but_inconsistent_state() {
        // A hand-edited checkpoint whose measured tracker has counts but
        // empty statistic sums: parseable, structurally wrong. Without
        // validation this would panic later in `finalize`/`mean_stat_of`
        // instead of erroring at the restore boundary.
        let empty =
            "{\"counts\":{},\"stat_sums\":{},\"stat_sq_sums\":{},\"iterations\":0,\"last_new_sl_at\":0}";
        let corrupt_measured =
            "{\"counts\":{\"5\":2},\"stat_sums\":{},\"stat_sq_sums\":{},\"iterations\":2,\"last_new_sl_at\":1}";
        let config = "{\"saturation_window\":256,\"unseen_threshold\":0.05,\"quantization\":1,\
             \"pipeline\":{\"sl_threshold_n\":10,\"initial_k\":5,\"error_threshold_pct\":1.0,\"max_k\":64}}";
        let build = |measured: &str, stopped_at: &str| {
            format!(
                "{{\"config\":{config},\"measured\":{measured},\"replayed\":{empty},\
                 \"novelty\":{empty},\"last_new_at\":0,\"rounds\":1,\"stopped_at\":{stopped_at}}}"
            )
        };
        assert!(matches!(
            StreamingSelector::restore(&build(corrupt_measured, "null")),
            Err(CoreError::InvalidParameter {
                parameter: "checkpoint",
                ..
            })
        ));
        // A stop marker beyond the ingested stream is equally rejected.
        assert!(matches!(
            StreamingSelector::restore(&build(empty, "100")),
            Err(CoreError::InvalidParameter {
                parameter: "checkpoint",
                ..
            })
        ));
        // The well-formed variant of the same JSON restores fine.
        assert!(StreamingSelector::restore(&build(empty, "null")).is_ok());
    }

    /// The ISSUE's kill-and-resume property: for every round boundary k,
    /// checkpointing after round k and finishing in a fresh selector
    /// produces exactly the uninterrupted run's outcome.
    #[test]
    fn resume_from_any_round_matches_the_uninterrupted_run() {
        let log = cyclic_log(2_000, 48);
        let config = StreamConfig {
            saturation_window: 200,
            ..StreamConfig::default()
        };
        let round_len = 64;
        let uninterrupted = select_streaming(&log, 3, round_len, &config).unwrap();
        let total_rounds = uninterrupted.rounds() as usize;
        assert!(total_rounds >= 3, "need several rounds to interrupt");
        for kill_after in 1..=total_rounds {
            // Run the measurement phase up to the kill point...
            let mut selector = StreamingSelector::with_config(config);
            let mut consumed = 0;
            for block in log.records().chunks(round_len).take(kill_after) {
                let mut round = OnlineSlTracker::new();
                for record in block {
                    round.observe(record.seq_len, record.stat);
                }
                consumed += block.len();
                if selector.ingest_round(&round) {
                    break;
                }
            }
            // ... persist, "crash", restore into a fresh selector ...
            let mut resumed = StreamingSelector::restore(&selector.checkpoint()).unwrap();
            drop(selector);
            // ... and finish the stream from the same position.
            if !resumed.should_stop() {
                for block in log.records()[consumed..].chunks(round_len) {
                    let mut round = OnlineSlTracker::new();
                    for record in block {
                        round.observe(record.seq_len, record.stat);
                    }
                    consumed += block.len();
                    if resumed.ingest_round(&round) {
                        break;
                    }
                }
            }
            for record in &log.records()[consumed..] {
                resumed.observe_replayed(record.seq_len, record.stat);
            }
            let finished = resumed.finalize().unwrap();
            assert_eq!(
                finished.stopped_at(),
                uninterrupted.stopped_at(),
                "kill after round {kill_after}"
            );
            assert_eq!(
                finished.iterations_measured(),
                uninterrupted.iterations_measured()
            );
            assert_eq!(
                finished.iterations_total(),
                uninterrupted.iterations_total()
            );
            assert_eq!(finished.rounds(), uninterrupted.rounds());
            assert_identical_selection(finished.seqpoints(), uninterrupted.seqpoints());
        }
    }

    #[test]
    fn stop_requires_the_full_window_to_elapse() {
        // One SL only: Good–Turing hits 0 almost immediately, but the
        // window still has to pass before the stop may fire.
        let window = 100;
        let config = StreamConfig {
            saturation_window: window,
            ..StreamConfig::default()
        };
        let mut selector = StreamingSelector::with_config(config);
        for _round in 0..25 {
            let mut round = OnlineSlTracker::new();
            for _ in 0..8 {
                round.observe(42, 1.0);
            }
            let stop = selector.ingest_round(&round);
            assert!(
                !stop || selector.iterations_measured() >= window,
                "stop fired at {} iterations (window {window})",
                selector.iterations_measured()
            );
        }
        // 200 iterations of one SL: well past the window, stop holds.
        assert!(selector.should_stop());
        assert!(selector.stopped_at().unwrap() >= window);
    }

    #[test]
    fn open_ended_stream_never_stops_measuring() {
        // Every iteration a fresh SL: neither criterion can fire, and
        // the count-only phase never runs.
        let log = EpochLog::from_pairs((0..500u32).map(|i| (i, 1.0)));
        let streamed = select_streaming(
            &log,
            2,
            25,
            &StreamConfig {
                saturation_window: 50,
                unseen_threshold: 0.05,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        assert!(!streamed.early_stopped());
        assert_eq!(streamed.iterations_measured(), 500);
        assert!(streamed.unseen_probability() > 0.9);
    }

    #[test]
    fn good_turing_criterion_fires_on_long_tails() {
        // 30 hot SLs plus a slow drip of fresh singletons: the strict
        // no-new-SL window never elapses, but Good–Turing does.
        let log = EpochLog::from_pairs((0..4_000u32).map(|i| {
            if i % 40 == 39 {
                (1_000 + i, 5.0) // a new singleton every 40 iterations
            } else {
                (10 + i % 30, 1.0)
            }
        }));
        let config = StreamConfig {
            saturation_window: 64,
            unseen_threshold: 0.04,
            ..StreamConfig::default()
        };
        let streamed = select_streaming(&log, 4, 32, &config).unwrap();
        assert!(streamed.early_stopped());
        // Stop fired once singletons/iterations fell to the threshold,
        // far before the stream ended.
        let stopped = streamed.stopped_at().unwrap();
        assert!((64..2_000).contains(&stopped), "stopped at {stopped}");
    }

    #[test]
    fn quantization_stops_earlier_on_wide_sl_spaces() {
        // A wide space of 300 near-adjacent SLs over 2000 iterations:
        // at exact granularity singletons abound, but at bucket width 16
        // the space closes quickly.
        let log = EpochLog::from_pairs((0..2_000u32).map(|i| {
            let sl = 50 + (i * 97) % 300;
            (sl, 0.5 + f64::from(sl) * 0.002)
        }));
        let exact = StreamConfig {
            saturation_window: 128,
            unseen_threshold: 0.02,
            ..StreamConfig::default()
        };
        let bucketed = StreamConfig {
            quantization: 16,
            ..exact
        };
        let with_exact = select_streaming(&log, 4, 32, &exact).unwrap();
        let with_buckets = select_streaming(&log, 4, 32, &bucketed).unwrap();
        assert!(with_buckets.early_stopped());
        assert!(
            with_buckets.iterations_measured() < with_exact.iterations_measured(),
            "bucketed {} vs exact {}",
            with_buckets.iterations_measured(),
            with_exact.iterations_measured()
        );
        // Quantization only gates the stop — the selection still matches
        // the full-epoch pipeline because counts stay exact per SL.
        let full = SeqPointPipeline::new().run(&log).unwrap();
        assert_same_selection(with_buckets.seqpoints(), full.seqpoints());
    }

    #[test]
    fn rejects_invalid_parameters() {
        let log = cyclic_log(100, 10);
        assert!(select_streaming(&log, 0, 10, &StreamConfig::default()).is_err());
        assert!(select_streaming(&log, 1, 0, &StreamConfig::default()).is_err());
        let bad = StreamConfig {
            unseen_threshold: -0.1,
            ..StreamConfig::default()
        };
        assert!(select_streaming(&log, 1, 10, &bad).is_err());
        let bad_q = StreamConfig {
            quantization: 0,
            ..StreamConfig::default()
        };
        assert!(select_streaming(&log, 1, 10, &bad_q).is_err());
        assert_eq!(
            select_streaming(&EpochLog::new(), 1, 10, &StreamConfig::default()),
            Err(CoreError::EmptyLog)
        );
    }
}
