//! The `seqpoint` command-line tool: simulate SQNN training epochs,
//! identify SeqPoints from epoch-log CSVs, compare baselines, and
//! project whole-training statistics.
//!
//! ```text
//! seqpoint simulate --model gnmt --dataset iwslt15 --samples 20000 --config 1 > epoch.csv
//! seqpoint identify --log epoch.csv --error 0.1
//! seqpoint baselines --log epoch.csv
//! seqpoint project --log epoch.csv --restats new_hw_stats.csv
//! seqpoint stream   --model gnmt --dataset iwslt15 --samples 20000 --shards 4
//! seqpoint serve    --socket /tmp/sp.sock --state-dir /tmp/sp-state --jobs 2
//! seqpoint submit   --socket /tmp/sp.sock --model gnmt --dataset iwslt15
//! seqpoint worker   --socket /tmp/sp.sock
//! ```

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use seqpoint::cli::{self, CliError};
use seqpoint::seqpoint_core::SeqPointConfig;

const USAGE: &str = "\
seqpoint — representative iterations of sequence-based neural networks

USAGE:
  seqpoint simulate  --model <gnmt|ds2|cnn|transformer|convs2s|seq2seq>
                     --dataset <iwslt15|wmt16|librispeech100>
                     [--samples N] [--config 1..5] [--seed S]
  seqpoint identify  --log <epoch.csv> [--error PCT] [--k0 K] [--n N] [--max-k K]
  seqpoint baselines --log <epoch.csv> [--error PCT]
  seqpoint project   --log <epoch.csv> --restats <sl_stats.csv> [--error PCT]
  seqpoint stream    --model <...> --dataset <...> [--samples N] [--config 1..5]
                     [--seed S] [--batch B] [--shards K] [--round R]
                     [--window W] [--unseen P] [--quant Q] [pipeline flags]
                     [--checkpoint FILE] [--checkpoint-every N] [--max-rounds M]
  seqpoint serve     --socket PATH --state-dir DIR [--jobs N] [--queue-cap N]
                     [--placement thread|subprocess] [--workers N]
                     [--tcp HOST:PORT --token-file FILE] [--retain-jobs N]
                     [--retain-for SECS] [--fair | --fifo] [--quota N]
                     [--metrics-addr HOST:PORT]
  seqpoint submit    (--socket PATH | --connect HOST:PORT)
                     [--token-file FILE] [--io-timeout SECS] [--client NAME]
                     --model <...> --dataset <...> [stream flags]
                     [--job ID] [--class interactive|batch] [--max-rounds M]
                     [--throttle-ms MS] [--detach] [--stats]
  seqpoint submit    (--socket PATH | --connect HOST:PORT) [--token-file FILE]
                     (--ping | --status ID | --result ID |
                     --cancel ID | --shutdown)
  seqpoint worker    (--socket PATH | --connect HOST:PORT) [--token-file FILE]
  seqpoint lint      [--root DIR] [--pass lock-order,panics,protocol]
                     [--github] [--bless-protocol]

`stream` profiles a steady-state (shuffled) epoch with K worker shards,
stops measuring once the SL space saturates (no new SL bucket within W
iterations, or Good-Turing unseen probability at most P at bucket width
Q), replays the rest of the epoch from already-profiled shapes (only
never-seen shapes are measured on demand), and selects SeqPoints from
the streamed aggregates.

With --checkpoint FILE the run persists its state to FILE atomically
every N rounds (default 8) and **resumes from FILE automatically when it
exists** — an interrupted run re-invoked with the same flags finishes
with the exact selection of an uninterrupted one. --max-rounds M stops
after M rounds in this invocation (writing the checkpoint), simulating
preemption for tests and batch schedulers.

`serve` runs the async profiling service: jobs arrive as NDJSON over the
Unix socket, wait in a bounded queue (submissions beyond --queue-cap are
rejected with backpressure), and execute on --jobs concurrent runners.
Every round checkpoints into --state-dir; SIGTERM (or `submit
--shutdown`) drains gracefully and a restart resumes unfinished jobs
with bit-identical results. --placement subprocess spawns --workers
`seqpoint worker` processes and ships shard chunks to them over the
socket, exchanging checkpoint-format shard state (a dead worker is
respawned and its job resumes from the last per-round checkpoint; pass
--workers 0 to rely solely on externally started workers).

--tcp HOST:PORT adds a TCP listener next to the Unix socket, making
remote clients and remote shard workers a pure config change. It
requires --token-file: every TCP connection must present the
single-line shared secret in its handshake (constant-time compared;
unauthenticated frames get one error line and a close). The bound
address — useful with port 0 — is written to STATE_DIR/serve.tcp. The
NDJSON itself is plaintext: tunnel it (TLS, SSH) on untrusted networks.
--retain-jobs N keeps at most N finished/failed/cancelled jobs (memory
and state files), evicting oldest-first; recovery applies the bound.
--retain-for SECS additionally evicts terminal jobs older than SECS
seconds (0 disables the TTL); whichever bound trips first evicts.

The server is multi-tenant: submissions carry a job class (--class
interactive|batch) and a client identity (--client NAME, or the TCP
handshake identity). Weighted-fair queueing (on by default; --fifo
restores strict FIFO) gives interactive jobs 4 slots for every batch
slot under contention and serves clients round-robin within a class;
--quota N rejects a client's submissions beyond N in-flight jobs.
Identical specs are served from a selection result cache: a duplicate
of an in-flight job attaches to it (single-flight, one profiling run),
a duplicate of a retained result returns immediately — byte-identical
either way. `submit --stats` prints a `stats,<job>,state=…,cache_hit=…`
line followed by the server's live metrics to stderr; `submit --ping`
reports cache and worker-fleet counters. --metrics-addr HOST:PORT adds
a plaintext scrape endpoint serving the same metrics to any GET request
(port 0 publishes the bound address to STATE_DIR/serve.metrics); see
docs/metrics.md for the catalog.

`submit` is the client: by default it submits and blocks for the result,
which is byte-identical to `seqpoint stream` with the same flags —
whichever transport carried it. --io-timeout SECS bounds every socket
read/write (default 600, 0 disables) so a wedged daemon fails the
command instead of hanging it.

`worker` connects to a daemon and serves shard rounds: `--socket` for a
local daemon, `--connect HOST:PORT --token-file FILE` for one on
another machine.

`lint` runs the workspace's own static analysis (the `seqpoint-lint`
binary behind a subcommand): lock-order simulation against
analysis/lock_order.toml, the justified-waiver panic-path lint, and
the protocol frame-digest drift check. Findings make the command fail;
--github renders them as workflow annotations, --bless-protocol
re-records the frame digest after a deliberate PROTOCOL_VERSION bump.

Epoch-log CSV format: one `seq_len,stat` pair per line (header optional).";

/// Every subcommand, as `seqpoint help CMD` accepts it.
const COMMANDS: &[&str] = &[
    "simulate",
    "identify",
    "baselines",
    "project",
    "stream",
    "serve",
    "submit",
    "worker",
    "lint",
];

fn unknown_command(name: &str) -> CliError {
    CliError::Usage(format!("unknown command `{name}`\n\n{USAGE}"))
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &[
    "detach",
    "ping",
    "shutdown",
    "stats",
    "fair",
    "fifo",
    "github",
    "bless-protocol",
];

struct Flags {
    args: Vec<(String, String)>,
}

impl Flags {
    fn parse(argv: &[String]) -> Result<Flags, CliError> {
        let mut args = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(CliError::Usage(format!("unexpected argument `{flag}`")));
            };
            if BOOL_FLAGS.contains(&name) {
                args.push((name.to_owned(), String::from("true")));
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("--{name} needs a value")))?;
            args.push((name.to_owned(), value.clone()));
        }
        Ok(Flags { args })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::Usage(format!("--{name} is required")))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name}: cannot parse `{v}`"))),
        }
    }
}

fn pipeline_config(flags: &Flags) -> Result<SeqPointConfig, CliError> {
    Ok(SeqPointConfig {
        error_threshold_pct: flags.num("error", 1.0)?,
        initial_k: flags.num("k0", 5)?,
        sl_threshold_n: flags.num("n", 10)?,
        max_k: flags.num("max-k", 64)?,
    })
}

fn open_log(flags: &Flags) -> Result<seqpoint::seqpoint_core::EpochLog, CliError> {
    let path = flags.required("log")?;
    cli::parse_epoch_log(BufReader::new(File::open(path)?))
}

/// Resolve the client-side connection flags: exactly one of `--socket
/// PATH` (Unix) or `--connect HOST:PORT` (TCP), plus the optional
/// credential and patience flags.
fn connect_args(flags: &Flags) -> Result<cli::ConnectArgs, CliError> {
    let endpoint = match (flags.get("socket"), flags.get("connect")) {
        (Some(path), None) => seqpoint::seqpoint_service::Endpoint::unix(path),
        (None, Some(addr)) => seqpoint::seqpoint_service::Endpoint::tcp(addr),
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "give either --socket PATH or --connect HOST:PORT, not both".to_owned(),
            ))
        }
        (None, None) => {
            return Err(CliError::Usage(
                "--socket PATH or --connect HOST:PORT is required".to_owned(),
            ))
        }
    };
    Ok(cli::ConnectArgs {
        endpoint,
        token_file: flags.get("token-file").map(std::path::PathBuf::from),
        io_timeout_secs: match flags.get("io-timeout") {
            Some(_) => Some(flags.num("io-timeout", 600u64)?),
            None => None,
        },
        client: flags.get("client").map(str::to_owned),
    })
}

fn run() -> Result<String, CliError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(CliError::Usage(USAGE.to_owned()));
    };
    // `help [CMD]`, `CMD --help` and `CMD -h` print the usage.
    let help_flag = |arg: &String| arg == "--help" || arg == "-h";
    let help_cmd = cmd == "help" || help_flag(cmd);
    if help_cmd || rest.iter().any(help_flag) {
        let topic = if help_cmd { rest.first() } else { Some(cmd) };
        return match topic {
            Some(name) if !COMMANDS.contains(&name.as_str()) => Err(unknown_command(name)),
            _ => Ok(USAGE.to_owned()),
        };
    }
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "simulate" => cli::simulate(
            flags.required("model")?,
            flags.required("dataset")?,
            flags.num("samples", 20_000usize)?,
            flags.num("config", 1usize)?,
            flags.num("seed", 7u64)?,
        ),
        "stream" => {
            let stream_config = seqpoint::seqpoint_core::stream::StreamConfig {
                saturation_window: flags.num("window", 256u64)?,
                unseen_threshold: flags.num("unseen", 0.05f64)?,
                quantization: flags.num("quant", 8u32)?,
                pipeline: pipeline_config(&flags)?,
            };
            let options = seqpoint::sqnn_profiler::stream::StreamOptions {
                shards: flags.num("shards", 4usize)?,
                round_len: flags.num("round", 64usize)?,
                stream: stream_config,
                ..Default::default()
            };
            let checkpoint = match flags.get("checkpoint") {
                Some(path) => Some(seqpoint::sqnn_profiler::stream::CheckpointOptions {
                    path: path.into(),
                    every_rounds: flags.num("checkpoint-every", 8u32)?,
                    max_rounds: if flags.get("max-rounds").is_some() {
                        Some(flags.num("max-rounds", 0u64)?)
                    } else {
                        None
                    },
                }),
                None if flags.get("checkpoint-every").is_some()
                    || flags.get("max-rounds").is_some() =>
                {
                    return Err(CliError::Usage(
                        "--checkpoint-every/--max-rounds need --checkpoint FILE".to_owned(),
                    ));
                }
                None => None,
            };
            cli::stream(
                flags.required("model")?,
                flags.required("dataset")?,
                flags.num("samples", 20_000usize)?,
                flags.num("config", 1usize)?,
                flags.num("seed", 7u64)?,
                flags.num("batch", 64u32)?,
                &options,
                checkpoint.as_ref(),
            )
        }
        "serve" => {
            let args = cli::ServeArgs {
                socket: flags.required("socket")?.into(),
                tcp: flags.get("tcp").map(str::to_owned),
                token_file: flags.get("token-file").map(std::path::PathBuf::from),
                state_dir: flags.required("state-dir")?.into(),
                jobs: flags.num("jobs", 2usize)?,
                queue_cap: flags.num("queue-cap", 16usize)?,
                retain_jobs: match flags.get("retain-jobs") {
                    Some(_) => Some(flags.num("retain-jobs", 0usize)?),
                    None => None,
                },
                retain_for: match flags.get("retain-for") {
                    Some(_) => Some(flags.num("retain-for", 0u64)?),
                    None => None,
                },
                placement: flags.get("placement").unwrap_or("thread").to_owned(),
                workers: flags.num("workers", 2usize)?,
                fair: match (flags.get("fair"), flags.get("fifo")) {
                    (Some(_), Some(_)) => {
                        return Err(CliError::Usage(
                            "give either --fair or --fifo, not both".to_owned(),
                        ))
                    }
                    (_, Some(_)) => false,
                    _ => true,
                },
                quota: match flags.get("quota") {
                    Some(_) => Some(flags.num("quota", 0usize)?),
                    None => None,
                },
                metrics_addr: flags.get("metrics-addr").map(str::to_owned),
            };
            cli::serve(&args)
        }
        "worker" => cli::worker(&connect_args(&flags)?),
        "submit" => {
            let conn = connect_args(&flags)?;
            let action = if flags.get("ping").is_some() {
                cli::SubmitAction::Ping
            } else if flags.get("shutdown").is_some() {
                cli::SubmitAction::Shutdown
            } else if let Some(job) = flags.get("status") {
                cli::SubmitAction::Status(job.to_owned())
            } else if let Some(job) = flags.get("result") {
                cli::SubmitAction::Result(job.to_owned())
            } else if let Some(job) = flags.get("cancel") {
                cli::SubmitAction::Cancel(job.to_owned())
            } else {
                let spec = seqpoint::seqpoint_core::protocol::JobSpec {
                    model: flags.required("model")?.to_owned(),
                    dataset: flags.required("dataset")?.to_owned(),
                    samples: flags.num("samples", 20_000u64)?,
                    config: flags.num("config", 1u32)?,
                    seed: flags.num("seed", 7u64)?,
                    batch: flags.num("batch", 64u32)?,
                    shards: flags.num("shards", 4u32)?,
                    round_len: flags.num("round", 64u32)?,
                    stream: seqpoint::seqpoint_core::stream::StreamConfig {
                        saturation_window: flags.num("window", 256u64)?,
                        unseen_threshold: flags.num("unseen", 0.05f64)?,
                        quantization: flags.num("quant", 8u32)?,
                        pipeline: pipeline_config(&flags)?,
                    },
                    max_rounds: if flags.get("max-rounds").is_some() {
                        Some(flags.num("max-rounds", 0u64)?)
                    } else {
                        None
                    },
                    throttle_ms: flags.num("throttle-ms", 0u64)?,
                    class: match flags.get("class") {
                        None => seqpoint::seqpoint_core::protocol::JobClass::Interactive,
                        Some(label) => seqpoint::seqpoint_core::protocol::JobClass::parse(label)
                            .ok_or_else(|| {
                                CliError::Usage(format!(
                                    "--class: unknown class `{label}` \
                                         (expected interactive|batch)"
                                ))
                            })?,
                    },
                    client: flags.get("client").unwrap_or("").to_owned(),
                };
                cli::SubmitAction::Job {
                    job: flags.get("job").map(str::to_owned),
                    spec,
                    detach: flags.get("detach").is_some(),
                    stats: flags.get("stats").is_some(),
                }
            };
            cli::submit(&conn, action)
        }
        "lint" => cli::lint(
            std::path::Path::new(flags.get("root").unwrap_or(".")),
            flags.get("pass"),
            flags.get("github").is_some(),
            flags.get("bless-protocol").is_some(),
        ),
        "identify" => cli::identify(&open_log(&flags)?, pipeline_config(&flags)?),
        "baselines" => cli::baselines(&open_log(&flags)?, pipeline_config(&flags)?),
        "project" => {
            let restats =
                cli::parse_sl_stats(BufReader::new(File::open(flags.required("restats")?)?))?;
            cli::project(&open_log(&flags)?, &restats, pipeline_config(&flags)?)
        }
        other => Err(unknown_command(other)),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
