//! The metric catalog and the per-layer ledger built from a traced run.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::offline::{OperatorPass, SimulatorPass, TracedJob};
use crate::stats::{median_or_zero, Metric};
use crate::trace::{self_times, Span};

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("job_ms.p50", "ms"),
    ("job_ms.tail", "ms"),
    ("iterations_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("measured_share", "ratio"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("fold.rounds", "count"),
    ("fold.iterations", "count"),
    ("fold.busy_ms", "ms"),
    ("fold.round_ms.p50", "ms"),
    ("fold.shape_sims", "count"),
    ("fold.distinct_shapes", "count"),
    ("fold.useful_sim_share", "ratio"),
    ("graph.driver_wait_ms", "ms"),
    ("replay.iterations", "count"),
    ("replay.on_demand_shapes", "count"),
    ("replay.on_demand_ms", "ms"),
    ("replay.tail_ms", "ms"),
    ("merge.absorb_us", "us"),
    ("gate.after_round_us", "us"),
    ("sink.on_round_us", "us"),
    ("replay.observe_us", "us"),
    ("select.finalize_us", "us"),
    ("select.self_error_pct", "%"),
    ("sqnn.trace_build_ms", "ms"),
    ("sqnn.kernels_per_iteration", "count"),
    ("sqnn.distinct_kernel_names", "count"),
    ("gpu_sim.run_trace_ms", "ms"),
    ("profiler.profile_iteration_ms", "ms"),
    ("dataset.corpus_ms", "ms"),
    ("dataset.plan_ms", "ms"),
    ("stream.fingerprint_ms", "ms"),
    ("service.submit_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.round_ms", "ms"),
    ("service.cache_served_share", "ratio"),
    ("service.wire_bytes_per_job", "bytes"),
    ("service.worker_bytes_per_round", "bytes"),
    ("service.leases", "count/job"),
    ("self.job_ms", "ms"),
    ("self.dataset_ms", "ms"),
    ("self.stream_ms", "ms"),
    ("self.graph_ms", "ms"),
    ("self.fold_ms", "ms"),
    ("self.replay_ms", "ms"),
    ("self.render_ms", "ms"),
    ("self.service_ms", "ms"),
    ("trace.job_unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Values by metric name, turned into the catalog's order and units.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Every metric of `catalog`, 0 for those no layer reported (a
    /// layer the workload does not cross).
    pub fn metrics(&self, catalog: &[(&'static str, &'static str)]) -> Vec<Metric> {
        catalog
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// Sum that reads 0 (not -0) for no terms.
fn total(terms: impl Iterator<Item = f64>) -> f64 {
    terms.fold(0.0, |a, b| a + b)
}

/// Fold, replay and operator metrics: medians per job over the traced
/// jobs, except the round time, a median over every round.
pub fn record_graph_layers(values: &mut Values, jobs: &[TracedJob], ops: &[OperatorPass]) {
    let per_job = |f: &dyn Fn(&TracedJob) -> f64| -> f64 {
        median_or_zero(&jobs.iter().map(f).collect::<Vec<_>>())
    };
    values.set("fold.rounds", per_job(&|j| j.rounds.len() as f64));
    values.set(
        "fold.iterations",
        per_job(&|j| j.rounds.iter().map(|r| r.iterations).sum::<usize>() as f64),
    );
    values.set(
        "fold.busy_ms",
        per_job(&|j| total(j.rounds.iter().map(|r| ms(r.end_us - r.start_us)))),
    );
    let rounds: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.rounds.iter().map(|r| ms(r.end_us - r.start_us)))
        .collect();
    values.set("fold.round_ms.p50", median_or_zero(&rounds));
    values.set("fold.shape_sims", per_job(&|j| j.shape_sims as f64));
    values.set(
        "fold.distinct_shapes",
        per_job(&|j| j.distinct_shapes as f64),
    );
    values.set(
        "fold.useful_sim_share",
        per_job(&|j| j.distinct_shapes as f64 / j.shape_sims.max(1) as f64),
    );
    values.set(
        "graph.driver_wait_ms",
        per_job(&|j| {
            total(
                j.rounds
                    .windows(2)
                    .map(|w| ms(w[1].start_us.saturating_sub(w[0].end_us))),
            )
        }),
    );
    values.set(
        "replay.on_demand_shapes",
        per_job(&|j| j.on_demand.len() as f64),
    );
    values.set(
        "replay.on_demand_ms",
        per_job(&|j| total(j.on_demand.iter().map(|d| ms(d.end_us - d.start_us)))),
    );
    values.set(
        "replay.tail_ms",
        per_job(&|j| {
            let last_fold = j.rounds.last().map_or(j.graph_end_us, |r| r.end_us);
            ms(j.graph_end_us.saturating_sub(last_fold))
        }),
    );
    let replayed: Vec<f64> = jobs
        .iter()
        .zip(ops)
        .map(|(j, o)| (j.plan.iterations() - o.merged_iterations) as f64)
        .collect();
    values.set("replay.iterations", median_or_zero(&replayed));
    let per_pass =
        |f: fn(&OperatorPass) -> f64| median_or_zero(&ops.iter().map(f).collect::<Vec<_>>());
    values.set("merge.absorb_us", per_pass(|o| o.absorb_us));
    values.set("gate.after_round_us", per_pass(|o| o.after_round_us));
    values.set("sink.on_round_us", per_pass(|o| o.on_round_us));
    values.set("replay.observe_us", per_pass(|o| o.observe_us));
    values.set("select.finalize_us", per_pass(|o| o.finalize_us));
}

/// Simulator metrics: means per distinct shape.
pub fn record_simulator(values: &mut Values, sim: &SimulatorPass) {
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            total(v.iter().copied()) / v.len() as f64
        }
    };
    values.set("sqnn.trace_build_ms", mean(&sim.trace_build_ms));
    values.set("sqnn.kernels_per_iteration", mean(&sim.kernels));
    values.set(
        "sqnn.distinct_kernel_names",
        mean(&sim.distinct_kernel_names),
    );
    values.set("gpu_sim.run_trace_ms", mean(&sim.run_trace_ms));
    values.set(
        "profiler.profile_iteration_ms",
        mean(&sim.profile_iteration_ms),
    );
}

/// Which self-time metric a span's self time counts toward.
fn self_metric(span: &str) -> Option<&'static str> {
    Some(match span {
        "job" => "self.job_ms",
        "dataset.corpus" | "dataset.plan" => "self.dataset_ms",
        "stream.fingerprint" => "self.stream_ms",
        "graph.run" => "self.graph_ms",
        "fold.round" => "self.fold_ms",
        "replay.on_demand" => "self.replay_ms",
        "render" => "self.render_ms",
        "service.submit" | "service.wait" => "self.service_ms",
        _ => return None,
    })
}

/// Span-derived metrics: each layer's self time and the layer call
/// times, medians per job over the jobs that have such spans; the job
/// span's unattributed share over the `timed` jobs.
pub fn record_spans(values: &mut Values, spans: &[Span], timed: &HashSet<u64>) {
    let selfs = self_times(spans);
    let mut per_job: HashMap<(&'static str, u64), f64> = HashMap::new();
    let mut unattributed = Vec::new();
    for span in spans {
        // Root spans count only for the timed jobs (a served run also
        // traces its offline reference jobs).
        let root = span.parent.is_none();
        if let Some(metric) = self_metric(span.name).filter(|_| !root || timed.contains(&span.job))
        {
            *per_job.entry((metric, span.job)).or_default() += ms(selfs[&span.id]);
        }
        let call = match span.name {
            "dataset.corpus" => Some("dataset.corpus_ms"),
            "dataset.plan" => Some("dataset.plan_ms"),
            "stream.fingerprint" => Some("stream.fingerprint_ms"),
            _ => None,
        };
        if let Some(metric) = call {
            *per_job.entry((metric, span.job)).or_default() += ms(span.duration_us());
        }
        if span.name == "job" && root && timed.contains(&span.job) {
            let share = selfs[&span.id] as f64 / span.duration_us().max(1) as f64;
            unattributed.push(100.0 * share);
        }
    }
    let mut by_metric: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((metric, _), value) in per_job {
        by_metric.entry(metric).or_default().push(value);
    }
    for (metric, samples) in by_metric {
        values.set(metric, median_or_zero(&samples));
    }
    values.set("trace.job_unattributed_pct", median_or_zero(&unattributed));
    values.set("trace.spans", spans.len() as f64);
}

/// Service metrics read from the daemon's metrics exposition.
pub fn record_service(values: &mut Values, text: &str, submit_ms: &[f64]) {
    use crate::served::metric_sum;
    let get = |name: &str| metric_sum(text, name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let submitted = get("seqpoint_jobs_submitted_total");
    let rounds = get("seqpoint_rounds_total");
    values.set("service.submit_ms", median_or_zero(submit_ms));
    values.set(
        "service.queue_wait_ms",
        ratio(
            get("seqpoint_queue_wait_ms_total"),
            get("seqpoint_queue_dequeued_total"),
        ),
    );
    values.set(
        "service.round_ms",
        ratio(get("seqpoint_round_wall_ms_total"), rounds),
    );
    values.set(
        "service.cache_served_share",
        ratio(
            get("seqpoint_cache_hits_total") + get("seqpoint_cache_followers_total"),
            submitted,
        ),
    );
    values.set(
        "service.wire_bytes_per_job",
        ratio(
            get("seqpoint_bytes_in_total") + get("seqpoint_bytes_out_total"),
            submitted,
        ),
    );
    values.set(
        "service.worker_bytes_per_round",
        ratio(
            get("seqpoint_worker_bytes_in_total") + get("seqpoint_worker_bytes_out_total"),
            rounds,
        ),
    );
    values.set(
        "service.leases",
        ratio(get("seqpoint_fleet_leases_total"), submitted),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn catalog_names_are_valid_and_unique() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(
                BENCHMARK_JSON.matches(&entry).count(),
                1,
                "{name} in BENCHMARK.json"
            );
        }
        let declared = BENCHMARK_JSON.matches("\"unit\": ").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn unreported_metrics_read_zero_in_catalog_order() {
        let mut values = Values::default();
        values.set("job_ms.p50", 2.5);
        let metrics = values.metrics(&END_TO_END);
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[1].name, "job_ms.p50");
        assert_eq!(metrics[1].value, 2.5);
        assert_eq!(metrics[0].value, 0.0);
    }
}
