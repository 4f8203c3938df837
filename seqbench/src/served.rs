//! The served path: a `seqpoint serve` daemon with subprocess workers,
//! and closed-loop clients submitting through `client::Client`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use seqpoint::seqpoint_core::protocol::{Request, Response};
use seqpoint::seqpoint_service::client::{Client, ClientOptions};
use seqpoint::seqpoint_service::Endpoint;

use crate::specs::{served_job, Job, REPEAT_EVERY};
use crate::trace::Tracer;

/// Subprocess workers the daemon runs.
pub const WORKERS: usize = 2;

/// How long a daemon may take to become ready or to drain.
const PATIENCE: Duration = Duration::from_secs(60);

/// A running daemon, killed and reaped on drop if not stopped cleanly.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Spawn `<this executable> serve` under `dir` and wait until a ping
    /// answers with all workers registered. Returns the daemon and the
    /// seconds from spawn to ready.
    pub fn start(dir: &Path) -> Result<(Daemon, f64), String> {
        let socket = dir.join("sock");
        let state = dir.join("state");
        let _ = std::fs::remove_file(&socket);
        let _ = std::fs::remove_dir_all(&state);
        let log = std::fs::File::create(dir.join("serve.log")).map_err(|e| e.to_string())?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let started = Instant::now();
        let child = Command::new(exe)
            .arg("serve")
            .arg(&socket)
            .arg(&state)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let daemon = Daemon {
            child: Some(child),
            socket,
        };
        daemon.wait_ready(started)?;
        Ok((daemon, started.elapsed().as_secs_f64()))
    }

    /// Connect as soon as the socket accepts, then ping on that one
    /// connection until every worker has registered.
    fn wait_ready(&self, started: Instant) -> Result<(), String> {
        let endpoint = Endpoint::unix(&self.socket);
        let mut last = String::from("no answer");
        let mut client = None;
        while started.elapsed() < PATIENCE {
            if client.is_none() {
                match Client::open(&endpoint, &ClientOptions::default()) {
                    Ok(c) => client = Some(c),
                    Err(e) => last = e.to_string(),
                }
            }
            if let Some(c) = client.as_mut() {
                match c.request(&Request::Ping) {
                    Ok(Response::Pong { fleet_idle, .. }) if fleet_idle.len() >= WORKERS => {
                        return Ok(())
                    }
                    Ok(other) => last = format!("{other:?}"),
                    Err(e) => {
                        last = e.to_string();
                        client = None;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err(format!("daemon not ready after {PATIENCE:?}: {last}"))
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The daemon process's peak resident set, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        peak_rss_mb(&format!("/proc/{pid}/status"))
    }

    /// The daemon's metrics exposition, fetched over the protocol.
    pub fn metrics(&self) -> Result<String, String> {
        let mut client = Client::open(&Endpoint::unix(&self.socket), &ClientOptions::default())
            .map_err(|e| e.to_string())?;
        match client
            .request(&Request::Metrics)
            .map_err(|e| e.to_string())?
        {
            Response::Metrics { text } => Ok(text),
            other => Err(format!("unexpected metrics reply: {other:?}")),
        }
    }

    /// Drain the daemon and wait for it (and so its workers) to exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.drain()
    }

    /// Ask for a drain, which stops the workers too, and wait for the
    /// daemon to exit; kill it if it does not drain in time.
    fn drain(&mut self) -> Result<(), String> {
        let mut child = self.child.take().ok_or("daemon already stopped")?;
        let requested = Client::open(&Endpoint::unix(&self.socket), &ClientOptions::default())
            .and_then(|mut c| c.request(&Request::Shutdown));
        let started = Instant::now();
        while requested.is_ok() && started.elapsed() < PATIENCE {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        let _ = child.kill();
        let _ = child.wait();
        Err(format!("daemon did not drain: {requested:?}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.child.is_some() {
            let _ = self.drain();
        }
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One submission of a served client.
pub struct Submission {
    pub client: u64,
    pub k: u64,
    pub job: Job,
    pub repeat_of: Option<u64>,
    pub traced: bool,
    pub submit_ms: f64,
    pub job_ms: f64,
    pub output: Result<String, String>,
}

/// The closed loop of client `client` from its `first`-th submission:
/// submit, wait for the result, submit the next, until `deadline` has
/// passed and at least `min_jobs` were submitted. With a tracer, every
/// other block of [`REPEAT_EVERY`] submissions is traced (the same mix
/// of primaries and repeats on both sides, for the overhead comparison).
pub fn client_loop(
    socket: &Path,
    seed: u64,
    client: u64,
    first: u64,
    deadline: Instant,
    min_jobs: u64,
    tracer: Option<&Tracer>,
) -> Result<Vec<Submission>, String> {
    let name = format!("bench-{client}");
    let options = ClientOptions::default()
        .with_client(name.clone())
        .with_io_timeout(Some(Duration::from_secs(120)));
    let mut conn = Client::open(&Endpoint::unix(socket), &options).map_err(|e| e.to_string())?;
    let mut done = Vec::new();
    let mut k = first;
    while k - first < min_jobs || Instant::now() < deadline {
        let (job, repeat_of) = served_job(seed, client, k);
        let spec = job.job_spec(&name);
        let tracer = tracer.filter(|_| (k / REPEAT_EVERY).is_multiple_of(2));
        let id = client * 1_000_000 + k;
        let root = tracer.map(Tracer::open);
        let parent = root.map(|r| r.id);
        let started = Instant::now();
        let submitted = match tracer {
            Some(t) => t.time("service.submit", parent, id, || conn.submit(None, spec)),
            None => conn.submit(None, spec),
        };
        let submit_ms = started.elapsed().as_secs_f64() * 1e3;
        let output = submitted.and_then(|job_id| match tracer {
            Some(t) => t.time("service.wait", parent, id, || conn.wait_result(&job_id)),
            None => conn.wait_result(&job_id),
        });
        let job_ms = started.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(r)) = (tracer, root) {
            t.close(r, "job", None, id);
        }
        done.push(Submission {
            client,
            k,
            job,
            repeat_of,
            traced: tracer.is_some(),
            submit_ms,
            job_ms,
            output: output.map_err(|e| e.to_string()),
        });
        k += 1;
    }
    Ok(done)
}

/// Sum of every sample of `name` (all label sets) in a metrics
/// exposition.
pub fn metric_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            let base = key.split('{').next()?;
            (base == name).then(|| value.parse::<f64>().ok()).flatten()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_sum_adds_every_label_set() {
        let text = "# HELP seqpoint_queue_wait_ms_total x\n\
                    seqpoint_queue_wait_ms_total{class=\"interactive\"} 12\n\
                    seqpoint_queue_wait_ms_total{class=\"batch\"} 3\n\
                    seqpoint_queue_wait_ms_total_other 99\n\
                    seqpoint_rounds_total 7\n";
        assert_eq!(metric_sum(text, "seqpoint_queue_wait_ms_total"), 15.0);
        assert_eq!(metric_sum(text, "seqpoint_rounds_total"), 7.0);
        assert_eq!(metric_sum(text, "seqpoint_missing"), 0.0);
    }
}
