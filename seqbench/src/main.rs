//! The SeqPoint benchmark: closed-loop workloads over the offline
//! `seqpoint stream` path and a `seqpoint serve` daemon, with an
//! end-to-end result line per run and, with `--trace 1`, a per-layer
//! ledger built from spans recorded around each layer's public calls.
//!
//! ```text
//! cargo run --release --offline --manifest-path seqbench/Cargo.toml -- \
//!     --workload gnmt-saturating --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object; the lines
//! before it are a human-readable summary. The exit code is 1 when a
//! correctness check failed and 2 when the run could not be made.

mod ledger;
mod offline;
mod served;
mod specs;
mod stats;
mod trace;

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use seqpoint::seqpoint_service::spec;
use seqpoint::sqnn_profiler::stream::ThreadExecutor;
use seqpoint::sqnn_profiler::{Profiler, StatKind};

use ledger::{Values, END_TO_END, PER_LAYER};
use offline::{fresh_checkpoint, OperatorPass, TracedJob};
use specs::{offline_job, reference_job, Job, Workload, CONFIG, REFERENCE_IDENTITY};
use stats::{median, median_or_zero, tail};
use trace::Tracer;

/// Jobs at the start of every run whose selections give
/// `measured_share` and `select.self_error_pct`; per client on the
/// served path. The loop runs at least this many, so both metrics are a
/// pure function of the seed.
const PANEL: u64 = 4;

/// Set-up repetitions whose median is `setup_s`.
const OFFLINE_SETUP_REPS: usize = 21;
const SERVED_SETUP_REPS: usize = 7;

/// Single-job processes, running the loop's first jobs, whose median
/// peak RSS is the offline `peak_rss_mb`.
const PEAK_REPS: u64 = 7;

/// Closed-loop clients on the served path.
const CLIENTS: u64 = 2;

/// Slices of the served timed window, with the offline checks of each
/// slice's submissions in between.
const SERVED_SLICES: u32 = 4;

/// Submissions per client that hold at least [`PANEL`] primaries.
const MIN_SUBMISSIONS: u64 = PANEL + PANEL.div_ceil(specs::REPEAT_EVERY - 1);

/// Where runs keep checkpoints, the daemon's state, and traces,
/// relative to the checkout root the benchmark runs from.
const WORK_DIR: &str = ".seqbench-work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or(format!(
                    "unknown workload `{value}` (expected {})",
                    Workload::ALL.map(Workload::name).join("|")
                ))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Counts operations and the ones that failed, with a note per failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// A `name,value` field of a rendered selection.
fn field(output: &str, name: &str) -> Option<f64> {
    output.lines().find_map(|l| {
        let (key, value) = l.split_once(',')?;
        if key != name {
            return None;
        }
        match value {
            "true" => Some(1.0),
            "false" => Some(0.0),
            v => v.parse().ok(),
        }
    })
}

/// `(iterations measured, iterations total)` of a rendered selection.
fn accounting(output: &str) -> Option<(f64, f64)> {
    Some((
        field(output, "iterations_measured")?,
        field(output, "iterations_total")?,
    ))
}

/// A rendered selection without the lines that depend on the shard
/// count: the header, the concurrent wall cost, and its speedup.
fn shard_independent(output: &str) -> String {
    output
        .lines()
        .filter(|l| {
            !l.starts_with("# streaming selection:")
                && !l.starts_with("profiled_wall_s,")
                && !l.starts_with("shard_speedup,")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn setup_summary(samples: &[f64]) -> String {
    let ms: Vec<String> = samples.iter().map(|s| format!("{:.3}", s * 1e3)).collect();
    format!("setup_s samples (ms): {}", ms.join(" "))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Seconds from spawning this executable in `ready` mode to its ready
/// line: process start plus resolving the job-independent state.
fn probe_setup(job: &Job) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .arg("ready")
        .arg(job.model)
        .arg(job.shards.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning the set-up probe: {e}"))?;
    let mut line = String::new();
    let read = match child.stdout.take() {
        Some(out) => BufReader::new(out).read_line(&mut line),
        None => Ok(0),
    };
    let seconds = started.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    match read {
        Ok(_) if line == "ready\n" && status.success() => Ok(seconds),
        _ => Err(format!("set-up probe failed: {status}, `{}`", line.trim())),
    }
}

/// `ready MODEL SHARDS`: build what a job needs before its spec
/// arrives, then report ready.
fn ready(model: &str, shards: &str) -> Result<(), String> {
    let network = spec::model_by_name(model).map_err(|e| e.to_string())?;
    let device = spec::device_by_config(CONFIG).map_err(|e| e.to_string())?;
    let shards: usize = shards.parse().map_err(|_| "bad shard count")?;
    let profiler = Profiler::new();
    let executor = ThreadExecutor::new(&profiler, &network, device, StatKind::Runtime, shards);
    std::hint::black_box(&executor);
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())
}

/// Peak RSS in MiB of a fresh process of this executable running the
/// workload's `index`-th job, as a `seqpoint stream` process would.
fn probe_peak_rss(args: &Args, index: u64, work: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("peak")
        .arg(args.workload.name())
        .arg(args.seed.to_string())
        .arg(index.to_string())
        .arg(work)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the peak-RSS probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.strip_prefix("peak ")
        .and_then(|v| v.trim().parse().ok())
        .filter(|_| out.status.success())
        .ok_or(format!(
            "peak-RSS probe failed: {}, `{}`",
            out.status,
            text.trim()
        ))
}

/// `peak WORKLOAD SEED INDEX DIR`: run one job of the workload, then
/// report this process's peak RSS.
fn peak(workload: &str, seed: &str, index: &str, dir: &str) -> Result<(), String> {
    let workload = Workload::by_name(workload).ok_or("unknown workload")?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
    let index: u64 = index.parse().map_err(|_| "bad job index")?;
    let job = offline_job(workload, seed, index);
    let policy = fresh_checkpoint(&job, &Path::new(dir).join("peak.ckpt"), None);
    offline::run_untraced(&job, policy.as_ref())?;
    let peak = served::peak_rss_mb("/proc/self/status").ok_or("no VmHWM")?;
    println!("peak {peak}");
    Ok(())
}

/// What a run reports.
struct Report {
    tally: Tally,
    values: Values,
    summary: Vec<String>,
    /// The spans of a traced run.
    trace: Option<Tracer>,
}

/// The untimed checks every run makes: the pinned reference job, plus
/// the workload's own invariance check on its first job.
fn common_checks(
    workload: Workload,
    work: &Path,
    first: Option<&(Job, String)>,
    tally: &mut Tally,
) {
    let reference = offline::run_untraced(&reference_job(), None);
    let identity = reference.as_ref().ok().and_then(|out| {
        Some((
            field(out, "iterations_total")? as u64,
            field(out, "iterations_measured")? as u64,
            field(out, "rounds")? as u64,
            field(out, "early_stopped")? == 1.0,
        ))
    });
    tally.check(identity == Some(REFERENCE_IDENTITY), || {
        format!("reference job identity {identity:?} != {REFERENCE_IDENTITY:?} ({reference:?})")
    });
    let Some((job, output)) = first else {
        return;
    };
    match workload {
        Workload::GnmtSaturating => {
            let one_shard = Job {
                shards: 1,
                ..job.clone()
            };
            let single = offline::run_untraced(&one_shard, None);
            tally.check(
                single
                    .as_ref()
                    .is_ok_and(|s| shard_independent(s) == shard_independent(output)),
                || format!("1-shard selection differs from 2-shard: {single:?}"),
            );
        }
        Workload::Ds2ExhaustiveCkpt => {
            let path = work.join("resume.ckpt");
            let killed = fresh_checkpoint(job, &path, Some(2));
            let paused = offline::run_untraced(job, killed.as_ref());
            let policy = killed.map(|k| seqpoint::sqnn_profiler::stream::CheckpointOptions {
                max_rounds: None,
                ..k
            });
            let resumed = offline::run_untraced(job, policy.as_ref());
            tally.check(
                paused.as_ref().is_ok_and(|p| p.contains("paused"))
                    && resumed.as_ref().is_ok_and(|r| r == output),
                || format!("killed-and-resumed job differs: {paused:?} / {resumed:?}"),
            );
            offline::remove_checkpoint(&path);
        }
        Workload::ServedMix => {}
    }
}

/// Run each traced job's operator pass (and the simulator pass over the
/// first job), checking both against what the graph did.
fn passes(
    jobs: &[TracedJob],
    work: &Path,
    tracer: &Tracer,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<(), String> {
    let mut ops: Vec<OperatorPass> = Vec::new();
    let path = work.join("operator-pass.ckpt");
    for job in jobs {
        let policy = fresh_checkpoint(&job.spec, &path, None);
        let pass = tracer.time("pass.operator", None, job.id, || {
            offline::operator_pass(job, policy.as_ref())
        })?;
        tally.check(pass.same_selection, || {
            format!(
                "operator pass selection differs from the graph's (job {})",
                job.id
            )
        });
        ops.push(pass);
    }
    offline::remove_checkpoint(&path);
    ledger::record_graph_layers(values, jobs, &ops);
    if let Some(first) = jobs.first() {
        let sim = tracer.time("pass.simulator", None, first.id, || {
            offline::simulator_pass(first)
        });
        tally.check(sim.mismatches == 0, || {
            format!("{} shapes re-simulated differently", sim.mismatches)
        });
        ledger::record_simulator(values, &sim);
    }
    Ok(())
}

fn offline_run(args: &Args, work: &Path) -> Result<Report, String> {
    let w = args.workload;
    let mut tally = Tally::default();
    let mut values = Values::default();
    let mut summary = Vec::new();
    let ckpt = work.join("job.ckpt");
    let tracer = Tracer::new();

    if !args.trace {
        let samples = (0..OFFLINE_SETUP_REPS)
            .map(|_| probe_setup(&offline_job(w, args.seed, 0)))
            .collect::<Result<Vec<f64>, String>>()?;
        values.set("setup_s", median_or_zero(&samples));
        summary.push(setup_summary(&samples));
    }

    // The timed closed loop. Traced runs time each job twice, traced
    // and untraced in alternating order, for the overhead comparison.
    let mut job_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut outputs: Vec<(Job, String)> = Vec::new();
    let mut traced_jobs: Vec<TracedJob> = Vec::new();
    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs(args.seconds);
    let mut i = 0;
    while i < PANEL || Instant::now() < deadline {
        let job = offline_job(w, args.seed, i);
        let untraced = |ms: &mut Vec<f64>| {
            let policy = fresh_checkpoint(&job, &ckpt, None);
            let t = Instant::now();
            let out = offline::run_untraced(&job, policy.as_ref());
            ms.push(ms_since(t));
            out
        };
        let output = if args.trace {
            let traced = |ms: &mut Vec<f64>| {
                let policy = fresh_checkpoint(&job, &ckpt, None);
                let t = Instant::now();
                let out = offline::run_traced(&job, policy.as_ref(), &tracer, i);
                ms.push(ms_since(t));
                out
            };
            let (t, u) = if i % 2 == 0 {
                let t = traced(&mut traced_ms);
                (t, untraced(&mut job_ms))
            } else {
                let u = untraced(&mut job_ms);
                (traced(&mut traced_ms), u)
            };
            let same = matches!((&t, &u), (Ok(t), Ok(u)) if t.output == *u);
            tally.check(same, || {
                format!("traced job {i} output differs from untraced")
            });
            if let Ok(t) = t {
                traced_jobs.push(t);
            }
            u
        } else {
            untraced(&mut job_ms)
        };
        tally.check(output.is_ok(), || format!("job {i} failed: {output:?}"));
        if let Ok(out) = output {
            outputs.push((job, out));
        }
        i += 1;
    }
    let window_s = started.elapsed().as_secs_f64();
    offline::remove_checkpoint(&ckpt);
    let peak = if args.trace {
        0.0
    } else {
        let samples = (0..PEAK_REPS)
            .map(|index| probe_peak_rss(args, index, work))
            .collect::<Result<Vec<f64>, String>>()?;
        median_or_zero(&samples)
    };

    // Only completed jobs count as iterations characterised.
    let iterations: f64 = outputs
        .iter()
        .filter_map(|(_, o)| field(o, "iterations_total"))
        .sum();
    let panel: Vec<&String> = outputs
        .iter()
        .take(PANEL as usize)
        .map(|(_, o)| o)
        .collect();
    record_end_to_end(
        &mut values,
        &mut summary,
        &job_ms,
        iterations / window_s,
        peak,
        &panel,
    );

    if args.trace {
        passes(&traced_jobs, work, &tracer, &mut tally, &mut values)?;
        let timed: HashSet<u64> = traced_jobs.iter().map(|j| j.id).collect();
        ledger::record_spans(&mut values, &tracer.spans(), &timed);
        let overhead = match (median(&traced_ms), median(&job_ms)) {
            (Some(t), Some(u)) if u > 0.0 => 100.0 * (t - u) / u,
            _ => 0.0,
        };
        values.set("trace.overhead_pct", overhead);
        summary.push(format!(
            "traced job_ms.p50 {:.3} vs untraced {:.3} ({overhead:+.2}%)",
            median_or_zero(&traced_ms),
            median_or_zero(&job_ms)
        ));
    }
    common_checks(w, work, outputs.first(), &mut tally);
    Ok(Report {
        tally,
        values,
        summary,
        trace: args.trace.then_some(tracer),
    })
}

/// Set the end-to-end metrics shared by both paths, and summarise the
/// ones the result line leaves out.
fn record_end_to_end(
    values: &mut Values,
    summary: &mut Vec<String>,
    job_ms: &[f64],
    iterations_per_s: f64,
    peak_rss_mb: f64,
    panel: &[&String],
) {
    values.set("job_ms.p50", median_or_zero(job_ms));
    match tail(job_ms) {
        Some(t) => {
            values.set("job_ms.tail", t.value);
            summary.push(format!(
                "job_ms.tail is p{} of n={} jobs: {:.3} ms",
                t.percentile, t.n, t.value
            ));
        }
        None => {
            // Too few jobs for ten beyond any percentile: report the
            // slowest, and say so.
            let max = job_ms.iter().copied().fold(0.0, f64::max);
            values.set("job_ms.tail", max);
            summary.push(format!(
                "job_ms.tail is the maximum of only n={} jobs: {max:.3} ms",
                job_ms.len()
            ));
        }
    }
    values.set("iterations_per_s", iterations_per_s);
    values.set("peak_rss_mb", peak_rss_mb);
    let (measured, total) = panel
        .iter()
        .filter_map(|o| accounting(o))
        .fold((0.0, 0.0), |(m, t), (a, b)| (m + a, t + b));
    values.set(
        "measured_share",
        if total > 0.0 { measured / total } else { 0.0 },
    );
    let errors: Vec<f64> = panel
        .iter()
        .filter_map(|o| {
            let line = o.lines().find(|l| l.contains("self error "))?;
            line.rsplit("self error ")
                .next()?
                .trim_end_matches('%')
                .parse()
                .ok()
        })
        .collect();
    values.set("select.self_error_pct", median_or_zero(&errors));
    summary.push(format!(
        "quality over the first {} jobs: measured_share {:.6}, median self_error_pct {:.4}",
        panel.len(),
        if total > 0.0 { measured / total } else { 0.0 },
        median_or_zero(&errors)
    ));
}

fn served_run(args: &Args, work: &Path) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut values = Values::default();
    let mut summary = Vec::new();
    let tracer = Tracer::new();

    // Every set-up but the last is drained again; the last one serves.
    let mut setups = Vec::new();
    for _ in 1..SERVED_SETUP_REPS {
        let (daemon, seconds) = served::Daemon::start(work)?;
        setups.push(seconds);
        daemon.stop()?;
    }
    let (daemon, seconds) = served::Daemon::start(work)?;
    setups.push(seconds);
    values.set("setup_s", median_or_zero(&setups));
    summary.push(setup_summary(&setups));

    // The timed window is cut into slices, and each slice's new
    // primaries are checked against the offline path before the next
    // slice starts: the checks cost twice the window, so this spreads
    // the measured submissions over the whole run at no extra cost.
    let slice = std::time::Duration::from_secs_f64(args.seconds as f64 / SERVED_SLICES as f64);
    let traced = args.trace.then_some(&tracer);
    let mut submissions: Vec<served::Submission> = Vec::new();
    let mut traced_jobs = Vec::new();
    let mut window_s = 0.0;
    for n in 0..SERVED_SLICES {
        let min_jobs = if n == 0 { MIN_SUBMISSIONS } else { 0 };
        let next: Vec<u64> = (0..CLIENTS)
            .map(|c| submissions.iter().filter(|s| s.client == c).count() as u64)
            .collect();
        let started = Instant::now();
        let deadline = started + slice;
        let results: Vec<Result<Vec<served::Submission>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .zip(&next)
                .map(|(c, &first)| {
                    let socket = daemon.socket();
                    s.spawn(move || {
                        served::client_loop(socket, args.seed, c, first, deadline, min_jobs, traced)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
                })
                .collect()
        });
        window_s += started.elapsed().as_secs_f64();
        let checked = submissions.len();
        for r in results {
            submissions.extend(r?);
        }
        for s in &submissions[checked..] {
            let (Ok(served_out), None) = (&s.output, s.repeat_of) else {
                continue;
            };
            let offline_out = if args.trace {
                let id = 10_000_000 + traced_jobs.len() as u64;
                offline::run_traced(&s.job, None, &tracer, id).map(|t| {
                    let out = t.output.clone();
                    traced_jobs.push(t);
                    out
                })
            } else {
                offline::run_untraced(&s.job, None)
            };
            tally.check(offline_out.as_ref() == Ok(served_out), || {
                format!(
                    "served output of client {} job {} differs from offline: {offline_out:?}",
                    s.client, s.k
                )
            });
        }
    }
    let peak = daemon.peak_rss_mb().unwrap_or(0.0);
    let metrics_text = daemon.metrics();
    let stopped = daemon.stop();
    tally.check(stopped.is_ok(), || format!("daemon drain: {stopped:?}"));

    // Every submission answered, and every repeat matches its primary.
    let mut primaries: HashMap<(u64, u64), &String> = HashMap::new();
    for s in &submissions {
        tally.check(s.output.is_ok(), || {
            format!("client {} job {} failed: {:?}", s.client, s.k, s.output)
        });
        if let (Ok(out), None) = (&s.output, s.repeat_of) {
            primaries.insert((s.client, s.k), out);
        }
    }
    for s in &submissions {
        if let (Ok(out), Some(p)) = (&s.output, s.repeat_of) {
            tally.check(primaries.get(&(s.client, p)) == Some(&out), || {
                format!(
                    "client {} repeat {} differs from primary {p}",
                    s.client, s.k
                )
            });
        }
    }
    let mut keys: Vec<&(u64, u64)> = primaries.keys().collect();
    keys.sort_unstable();

    let ok: Vec<&served::Submission> = submissions.iter().filter(|s| s.output.is_ok()).collect();
    let job_ms: Vec<f64> = ok.iter().map(|s| s.job_ms).collect();
    let iterations: f64 = ok
        .iter()
        .filter_map(|s| field(s.output.as_ref().ok()?, "iterations_total"))
        .sum();
    let panel: Vec<&String> = (0..CLIENTS)
        .flat_map(|c| keys.iter().filter(move |k| k.0 == c).take(PANEL as usize))
        .map(|key| primaries[*key])
        .collect();
    record_end_to_end(
        &mut values,
        &mut summary,
        &job_ms,
        iterations / window_s,
        peak,
        &panel,
    );
    summary.push(format!(
        "served {} submissions over {CLIENTS} clients in {window_s:.2} s",
        submissions.len()
    ));

    if args.trace {
        passes(&traced_jobs, work, &tracer, &mut tally, &mut values)?;
        let text = metrics_text?;
        let submit_ms: Vec<f64> = submissions.iter().map(|s| s.submit_ms).collect();
        ledger::record_service(&mut values, &text, &submit_ms);
        let timed: HashSet<u64> = submissions
            .iter()
            .filter(|s| s.traced)
            .map(|s| s.client * 1_000_000 + s.k)
            .collect();
        ledger::record_spans(&mut values, &tracer.spans(), &timed);
        let side = |t: bool| -> Vec<f64> {
            ok.iter()
                .filter(|s| s.traced == t)
                .map(|s| s.job_ms)
                .collect()
        };
        let overhead = match (median(&side(true)), median(&side(false))) {
            (Some(t), Some(u)) if u > 0.0 => 100.0 * (t - u) / u,
            _ => 0.0,
        };
        values.set("trace.overhead_pct", overhead);
    }
    common_checks(Workload::ServedMix, work, None, &mut tally);
    Ok(Report {
        tally,
        values,
        summary,
        trace: args.trace.then_some(tracer),
    })
}

fn bench(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(argv)?;
    let root = PathBuf::from(WORK_DIR);
    let work = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let report = match args.workload {
        Workload::ServedMix => served_run(&args, &work),
        _ => offline_run(&args, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    let report = report?;
    if let Some(spans) = &report.trace {
        let path = root.join(format!(
            "trace-{}-seed{}.ndjson",
            args.workload.name(),
            args.seed
        ));
        spans
            .write_ndjson(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = report.values.metrics(catalog);
    let tally = &report.tally;
    let correct = tally.failed == 0;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.summary {
        println!("{line}");
    }
    println!(
        "failed_share {:.6} ({} of {} operations)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for note in &tally.notes {
        println!("FAILED: {note}");
    }
    for m in &metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        stats::result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        // The daemon and its workers are this executable, running the
        // same entry points as `seqpoint serve` and `seqpoint worker`.
        Some("serve") if argv.len() == 3 => seqpoint::cli::serve(&seqpoint::cli::ServeArgs {
            socket: argv[1].clone().into(),
            tcp: None,
            token_file: None,
            state_dir: argv[2].clone().into(),
            jobs: 1,
            queue_cap: 16,
            retain_jobs: None,
            retain_for: None,
            placement: "subprocess".to_owned(),
            workers: served::WORKERS,
            fair: true,
            quota: None,
            metrics_addr: None,
        })
        .map(|_| ExitCode::SUCCESS)
        .map_err(|e| e.to_string()),
        Some("worker") if argv.len() == 3 && argv[1] == "--socket" => {
            seqpoint::cli::worker(&seqpoint::cli::ConnectArgs {
                endpoint: seqpoint::seqpoint_service::Endpoint::unix(&argv[2]),
                token_file: None,
                io_timeout_secs: None,
                client: None,
            })
            .map(|_| ExitCode::SUCCESS)
            .map_err(|e| e.to_string())
        }
        Some("ready") if argv.len() == 3 => ready(&argv[1], &argv[2]).map(|()| ExitCode::SUCCESS),
        Some("peak") if argv.len() == 5 => {
            peak(&argv[1], &argv[2], &argv[3], &argv[4]).map(|()| ExitCode::SUCCESS)
        }
        _ => bench(&argv),
    };
    result.unwrap_or_else(|e| {
        eprintln!("seqbench: {e}");
        ExitCode::from(2)
    })
}
