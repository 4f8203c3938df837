//! Lock-light metrics registry for the profiling service.
//!
//! One [`MetricsRegistry`] lives in the server's shared state and is
//! threaded through every subsystem: the connection loop counts
//! messages and bytes per direction (globally, per client, and per
//! connection), the scheduler tracks queue depth and wait time per
//! fairness class, the cache admission path counts hits, misses, and
//! followers, the worker pool counts leases and reclaims plus worker
//! wire traffic, and the streaming graph's per-stage meter records
//! every stage's items and wall time, each fold that returned reports
//! counting as one round.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cost ~zero.** Every per-message / per-round update is
//!    a handful of `Relaxed` atomic adds — no locks, no allocation, no
//!    clock reads beyond one `Instant::elapsed` for the time buckets.
//! 2. **One leaf lock.** The only mutex guards the per-client /
//!    per-connection maps and is taken at connection open/close,
//!    client-identity resolution, and render time — never per message.
//!    It is registered last in `analysis/lock_order.toml`, so holding
//!    any other service lock while touching a counter is legal, and
//!    nothing may be acquired while holding it.
//! 3. **No drift.** A [`CATALOG`] row is the only place a metric is
//!    spelled: its name, kind, and help text, plus a private source
//!    that tells [`MetricsRegistry::render`] where to read the value
//!    and so which labels its samples carry. A unit test pins the
//!    rendered text, and another asserts every row is documented in
//!    `docs/metrics.md` with its type and labels.
//!
//! The rendered form is Prometheus-style text exposition; the same
//! string is served by the `Request::Metrics` protocol frame, the
//! `seqpoint submit --stats` view, and the optional
//! `serve --metrics-addr` scrape endpoint.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use seqpoint_core::protocol::JobClass;
use sqnn_profiler::pipeline::{StageId, StageMeter, StageSample};

use crate::sync::LockExt;

/// Exposition type of a metric family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing count since daemon start.
    Counter,
    /// Point-in-time value that can go up and down.
    Gauge,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// A plain (unlabeled) counter of the registry, bumped with
/// [`MetricsRegistry::add`] and read with [`MetricsRegistry::get`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Count {
    /// Client connections accepted.
    ConnectionsOpened,
    /// Client connections that have ended.
    ConnectionsClosed,
    /// Jobs accepted into the queue.
    JobsSubmitted,
    /// Jobs that reached the Done state.
    JobsCompleted,
    /// Jobs that reached the Failed state.
    JobsFailed,
    /// Jobs that reached the Cancelled state.
    JobsCancelled,
    /// Folds that returned shard reports (rounds).
    Rounds,
    /// Wall milliseconds of those folds.
    RoundWallMsTotal,
    /// Wall milliseconds of the latest such fold (the meter stores it).
    RoundWallMsLast,
    /// Iterations those folds consumed.
    Items,
    /// Submissions answered from a retained result.
    CacheHits,
    /// Submissions that ran as a cache primary.
    CacheMisses,
    /// Submissions attached to an in-flight primary.
    CacheFollowers,
    /// Worker leases granted by the fleet pool.
    FleetLeases,
    /// Dead worker connections reclaimed by the fleet pool.
    FleetReclaims,
}

/// One wire direction: the four series every wire scope keeps, the
/// index into a [`WireCounters`] array and into the client windows.
#[derive(Clone, Copy, Debug)]
enum Dir {
    MessagesIn,
    MessagesOut,
    BytesIn,
    BytesOut,
}

/// Where [`MetricsRegistry::render`] reads a catalog row's samples.
/// The row's label set follows from it.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// A plain count; unlabeled.
    Count(Count),
    /// All client traffic in one direction; unlabeled.
    Wire(Dir),
    /// Leased-worker traffic in one direction; unlabeled.
    WorkerWire(Dir),
    /// Client traffic in one direction, labeled `client`.
    ClientWire(Dir),
    /// Jobs submitted, labeled `client`.
    ClientJobs,
    /// Traffic on each open connection, labeled `conn,client`.
    ConnWire(Dir),
    /// Client traffic in the trailing 60 s window; unlabeled.
    Window(Dir),
    /// Rounds in the trailing 60 s window; unlabeled.
    RoundsWindow,
    /// A per-class field, labeled `class`.
    Class(fn(&ClassCounters) -> &AtomicU64),
    /// A per-stage field, labeled `stage`.
    Stage(fn(&StageCounters) -> &AtomicU64),
    /// A value sampled from another subsystem at render time.
    Gauge(fn(&RenderGauges) -> u64),
    /// Seconds since the registry was created.
    Uptime,
    /// Connections opened minus connections closed.
    OpenConnections,
}

/// One documented entry of the metric catalog.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Exposition name (all names share the `seqpoint_` prefix).
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Where the samples are read, and so which labels they carry.
    source: Source,
    /// One-line meaning, emitted verbatim as the `# HELP` text.
    pub help: &'static str,
}

const fn counter(name: &'static str, source: Source, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        kind: MetricKind::Counter,
        source,
        help,
    }
}

const fn gauge(name: &'static str, source: Source, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        kind: MetricKind::Gauge,
        source,
        help,
    }
}

/// Every metric family the registry exports, in exposition order.
///
/// `docs/metrics.md` documents exactly this list; a test fails when a
/// name is added here without a matching row there (or vice versa), or
/// when a row's type or labels disagree with the rendered samples.
pub const CATALOG: &[MetricDef] = &[
    gauge(
        "seqpoint_uptime_seconds",
        Source::Uptime,
        "Seconds since this daemon process started.",
    ),
    counter(
        "seqpoint_connections_opened_total",
        Source::Count(Count::ConnectionsOpened),
        "Client connections accepted (Unix socket and TCP).",
    ),
    counter(
        "seqpoint_connections_closed_total",
        Source::Count(Count::ConnectionsClosed),
        "Client connections that have ended.",
    ),
    gauge(
        "seqpoint_connections_open",
        Source::OpenConnections,
        "Client connections currently open.",
    ),
    counter(
        "seqpoint_messages_in_total",
        Source::Wire(Dir::MessagesIn),
        "Protocol frames received from clients.",
    ),
    counter(
        "seqpoint_messages_out_total",
        Source::Wire(Dir::MessagesOut),
        "Protocol frames sent to clients.",
    ),
    counter(
        "seqpoint_bytes_in_total",
        Source::Wire(Dir::BytesIn),
        "Wire bytes received from clients (NDJSON lines incl. newline).",
    ),
    counter(
        "seqpoint_bytes_out_total",
        Source::Wire(Dir::BytesOut),
        "Wire bytes sent to clients (NDJSON lines incl. newline).",
    ),
    counter(
        "seqpoint_client_messages_in_total",
        Source::ClientWire(Dir::MessagesIn),
        "Protocol frames received, by announced client identity.",
    ),
    counter(
        "seqpoint_client_messages_out_total",
        Source::ClientWire(Dir::MessagesOut),
        "Protocol frames sent, by announced client identity.",
    ),
    counter(
        "seqpoint_client_bytes_in_total",
        Source::ClientWire(Dir::BytesIn),
        "Wire bytes received, by announced client identity.",
    ),
    counter(
        "seqpoint_client_bytes_out_total",
        Source::ClientWire(Dir::BytesOut),
        "Wire bytes sent, by announced client identity.",
    ),
    counter(
        "seqpoint_client_jobs_submitted_total",
        Source::ClientJobs,
        "Jobs accepted into the queue, by announced client identity.",
    ),
    counter(
        "seqpoint_conn_messages_in_total",
        Source::ConnWire(Dir::MessagesIn),
        "Protocol frames received on each currently open connection.",
    ),
    counter(
        "seqpoint_conn_messages_out_total",
        Source::ConnWire(Dir::MessagesOut),
        "Protocol frames sent on each currently open connection.",
    ),
    counter(
        "seqpoint_conn_bytes_in_total",
        Source::ConnWire(Dir::BytesIn),
        "Wire bytes received on each currently open connection.",
    ),
    counter(
        "seqpoint_conn_bytes_out_total",
        Source::ConnWire(Dir::BytesOut),
        "Wire bytes sent on each currently open connection.",
    ),
    counter(
        "seqpoint_jobs_submitted_total",
        Source::Count(Count::JobsSubmitted),
        "Jobs accepted into the queue (cache followers included).",
    ),
    counter(
        "seqpoint_jobs_completed_total",
        Source::Count(Count::JobsCompleted),
        "Jobs that reached the Done state.",
    ),
    counter(
        "seqpoint_jobs_failed_total",
        Source::Count(Count::JobsFailed),
        "Jobs that reached the Failed state.",
    ),
    counter(
        "seqpoint_jobs_cancelled_total",
        Source::Count(Count::JobsCancelled),
        "Jobs that reached the Cancelled state.",
    ),
    gauge(
        "seqpoint_jobs_running",
        Source::Gauge(|g| g.jobs_running),
        "Jobs executing rounds right now (sampled at render time).",
    ),
    counter(
        "seqpoint_rounds_total",
        Source::Count(Count::Rounds),
        "Profiling rounds completed across all jobs.",
    ),
    counter(
        "seqpoint_round_wall_ms_total",
        Source::Count(Count::RoundWallMsTotal),
        "Cumulative wall-clock milliseconds spent executing rounds.",
    ),
    gauge(
        "seqpoint_round_wall_ms_last",
        Source::Count(Count::RoundWallMsLast),
        "Wall-clock milliseconds of the most recently completed round.",
    ),
    counter(
        "seqpoint_items_total",
        Source::Count(Count::Items),
        "Iterations (batch items) measured across all completed rounds.",
    ),
    counter(
        "seqpoint_stage_items_in_total",
        Source::Stage(|s| &s.items_in),
        "Items consumed per streaming-pipeline stage (operator-graph runs).",
    ),
    counter(
        "seqpoint_stage_items_out_total",
        Source::Stage(|s| &s.items_out),
        "Items produced per streaming-pipeline stage (operator-graph runs).",
    ),
    counter(
        "seqpoint_stage_wall_ms_total",
        Source::Stage(|s| &s.wall_ms),
        "Wall milliseconds spent per streaming-pipeline stage.",
    ),
    gauge(
        "seqpoint_queue_depth",
        Source::Class(|c| &c.queue_depth),
        "Jobs waiting in the scheduler queue, per fairness class.",
    ),
    counter(
        "seqpoint_queue_wait_ms_total",
        Source::Class(|c| &c.queue_wait_ms_total),
        "Cumulative milliseconds jobs waited in queue, per class.",
    ),
    counter(
        "seqpoint_queue_dequeued_total",
        Source::Class(|c| &c.dequeued_total),
        "Jobs dispatched from the queue to a runner, per class.",
    ),
    counter(
        "seqpoint_cache_hits_total",
        Source::Count(Count::CacheHits),
        "Submissions answered from a retained result (Admission::Ready).",
    ),
    counter(
        "seqpoint_cache_misses_total",
        Source::Count(Count::CacheMisses),
        "Submissions that had to run as a cache primary.",
    ),
    counter(
        "seqpoint_cache_followers_total",
        Source::Count(Count::CacheFollowers),
        "Submissions attached to an in-flight primary (single-flight).",
    ),
    gauge(
        "seqpoint_cache_entries",
        Source::Gauge(|g| g.cache_entries),
        "Retained ready results in the cache (sampled at render time).",
    ),
    counter(
        "seqpoint_fleet_leases_total",
        Source::Count(Count::FleetLeases),
        "Worker leases granted to rounds by the fleet pool.",
    ),
    counter(
        "seqpoint_fleet_reclaims_total",
        Source::Count(Count::FleetReclaims),
        "Dead worker connections reclaimed by the fleet pool.",
    ),
    gauge(
        "seqpoint_fleet_idle",
        Source::Gauge(|g| g.fleet_idle),
        "Idle workers in the fleet pool (sampled at render time).",
    ),
    counter(
        "seqpoint_worker_messages_in_total",
        Source::WorkerWire(Dir::MessagesIn),
        "Round replies received from leased workers.",
    ),
    counter(
        "seqpoint_worker_messages_out_total",
        Source::WorkerWire(Dir::MessagesOut),
        "Round tasks sent to leased workers.",
    ),
    counter(
        "seqpoint_worker_bytes_in_total",
        Source::WorkerWire(Dir::BytesIn),
        "Wire bytes received from leased workers.",
    ),
    counter(
        "seqpoint_worker_bytes_out_total",
        Source::WorkerWire(Dir::BytesOut),
        "Wire bytes sent to leased workers.",
    ),
    gauge(
        "seqpoint_messages_in_60s",
        Source::Window(Dir::MessagesIn),
        "Client frames received in the trailing 60-second window.",
    ),
    gauge(
        "seqpoint_messages_out_60s",
        Source::Window(Dir::MessagesOut),
        "Client frames sent in the trailing 60-second window.",
    ),
    gauge(
        "seqpoint_bytes_in_60s",
        Source::Window(Dir::BytesIn),
        "Client bytes received in the trailing 60-second window.",
    ),
    gauge(
        "seqpoint_bytes_out_60s",
        Source::Window(Dir::BytesOut),
        "Client bytes sent in the trailing 60-second window.",
    ),
    gauge(
        "seqpoint_rounds_60s",
        Source::RoundsWindow,
        "Rounds completed in the trailing 60-second window.",
    ),
];

/// Directional message/byte counters shared by the global, worker,
/// per-client, and per-connection scopes, indexed by [`Dir`].
type WireCounters = [AtomicU64; 4];

/// Add `n` to slot `i` of a counter array.
fn bump(slots: &[AtomicU64], i: usize, n: u64) {
    if let Some(slot) = slots.get(i) {
        slot.fetch_add(n, Ordering::Relaxed);
    }
}

/// Slot `i` of a counter array.
fn read(slots: &[AtomicU64], i: usize) -> u64 {
    slots.get(i).map_or(0, |slot| slot.load(Ordering::Relaxed))
}

/// Number of one-second buckets in a [`Window`].
const WINDOW_SLOTS: u64 = 60;

#[derive(Debug, Default)]
struct WindowSlot {
    /// Absolute second-since-start **plus one** (0 = never written).
    tag: AtomicU64,
    value: AtomicU64,
}

/// A fixed 60-second ring of one-second buckets. Writers tag the
/// current slot with the absolute second and add to it; readers sum
/// the slots whose tags fall inside the trailing window. A write that
/// races a second rollover can be attributed to the wrong bucket —
/// the window is an operator signal, not an invoice — but the total
/// counters it accompanies are always exact.
#[derive(Debug)]
struct Window {
    slots: Vec<WindowSlot>,
}

impl Default for Window {
    fn default() -> Self {
        let mut slots = Vec::with_capacity(WINDOW_SLOTS as usize);
        slots.resize_with(WINDOW_SLOTS as usize, WindowSlot::default);
        Window { slots }
    }
}

impl Window {
    fn record(&self, now_s: u64, value: u64) {
        let tag = now_s + 1;
        let idx = (now_s % WINDOW_SLOTS) as usize;
        if let Some(slot) = self.slots.get(idx) {
            if slot.tag.swap(tag, Ordering::Relaxed) != tag {
                // First write of this second: retire the stale bucket.
                slot.value.store(0, Ordering::Relaxed);
            }
            slot.value.fetch_add(value, Ordering::Relaxed);
        }
    }

    fn sum(&self, now_s: u64) -> u64 {
        let newest = now_s + 1;
        let oldest = newest.saturating_sub(WINDOW_SLOTS - 1);
        self.slots
            .iter()
            .map(|slot| {
                let tag = slot.tag.load(Ordering::Relaxed);
                if tag >= oldest && tag <= newest {
                    slot.value.load(Ordering::Relaxed)
                } else {
                    0
                }
            })
            .sum()
    }
}

/// Per-fairness-class queue counters, updated by the scheduler.
#[derive(Debug, Default)]
pub struct ClassCounters {
    queue_depth: AtomicU64,
    queue_wait_ms_total: AtomicU64,
    dequeued_total: AtomicU64,
}

impl ClassCounters {
    /// A job entered this class's queue.
    pub fn enqueued(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A job left the queue for a runner after waiting `wait_ms`.
    pub fn dequeued(&self, wait_ms: u64) {
        self.removed();
        self.queue_wait_ms_total
            .fetch_add(wait_ms, Ordering::Relaxed);
        self.dequeued_total.fetch_add(1, Ordering::Relaxed);
    }

    /// A queued job was removed without dispatch (cancel, drain).
    pub fn removed(&self) {
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }
}

/// Per-pipeline-stage accumulation, fed by the [`StageMeter`] hook the
/// round runner attaches at operator construction.
#[derive(Debug, Default)]
struct StageCounters {
    items_in: AtomicU64,
    items_out: AtomicU64,
    wall_ms: AtomicU64,
}

/// Per-client accumulation (wire traffic + job submissions).
#[derive(Debug, Default)]
struct ClientScope {
    wire: WireCounters,
    jobs_submitted: AtomicU64,
}

/// A currently open connection, as the registry tracks it.
#[derive(Debug)]
struct ConnEntry {
    wire: Arc<WireCounters>,
    client: Option<String>,
}

/// The maps behind the registry's single (leaf) lock.
#[derive(Debug, Default)]
struct Dynamic {
    clients: HashMap<String, Arc<ClientScope>>,
    conns: HashMap<u64, ConnEntry>,
}

/// Point-in-time values sampled from the other subsystems immediately
/// before rendering (never while holding any metrics lock).
#[derive(Clone, Copy, Debug, Default)]
pub struct RenderGauges {
    /// Jobs currently executing rounds.
    pub jobs_running: u64,
    /// Retained ready results in the cache.
    pub cache_entries: u64,
    /// Idle workers in the fleet pool.
    pub fleet_idle: u64,
}

/// The service-wide metrics registry. See the module docs for the
/// design; construct one per daemon with [`MetricsRegistry::new`] and
/// share it via `Arc`.
#[derive(Debug)]
pub struct MetricsRegistry {
    start: Instant,
    next_conn: AtomicU64,
    /// The plain counters, indexed by [`Count`].
    counts: [AtomicU64; Count::FleetReclaims as usize + 1],
    wire: WireCounters,
    worker_wire: WireCounters,
    stages: [StageCounters; 5],
    interactive: ClassCounters,
    batch: ClassCounters,
    /// Trailing windows of client traffic, indexed by [`Dir`].
    windows: [Window; 4],
    rounds_window: Window,
    inner: Mutex<Dynamic>,
}

impl MetricsRegistry {
    /// A fresh registry; all counters start at zero and the 60-second
    /// windows are empty. Metrics are in-memory only and deliberately
    /// do **not** survive a daemon restart.
    pub fn new() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry {
            start: Instant::now(),
            next_conn: AtomicU64::new(1),
            counts: Default::default(),
            wire: Default::default(),
            worker_wire: Default::default(),
            stages: Default::default(),
            interactive: ClassCounters::default(),
            batch: ClassCounters::default(),
            windows: Default::default(),
            rounds_window: Window::default(),
            inner: Mutex::new(Dynamic::default()),
        })
    }

    fn now_s(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Add `n` to a plain counter.
    pub fn add(&self, count: Count, n: u64) {
        bump(&self.counts, count as usize, n);
    }

    /// The current value of a plain counter.
    pub fn get(&self, count: Count) -> u64 {
        read(&self.counts, count as usize)
    }

    /// Register a new client connection; the returned handle counts
    /// wire traffic for it and unregisters on drop.
    pub fn conn_opened(self: &Arc<MetricsRegistry>) -> ConnMetrics {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        self.add(Count::ConnectionsOpened, 1);
        let wire = Arc::new(WireCounters::default());
        self.inner.lock_recover().conns.insert(
            id,
            ConnEntry {
                wire: Arc::clone(&wire),
                client: None,
            },
        );
        ConnMetrics {
            registry: Arc::clone(self),
            id,
            conn: wire,
            client: OnceLock::new(),
        }
    }

    /// The per-class counter block the scheduler updates.
    pub fn class(&self, class: JobClass) -> &ClassCounters {
        match class {
            JobClass::Interactive => &self.interactive,
            JobClass::Batch => &self.batch,
        }
    }

    /// A job was accepted into the queue, attributed to `client`.
    pub fn job_submitted(&self, client: &str) {
        self.add(Count::JobsSubmitted, 1);
        self.client_scope(client)
            .jobs_submitted
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Submissions answered without their own profiling run: retained
    /// results plus single-flight followers (the `Ping` count).
    pub fn cache_hits(&self) -> u64 {
        self.get(Count::CacheHits) + self.get(Count::CacheFollowers)
    }

    /// A reply of `bytes` arrived from a leased worker.
    pub fn worker_in(&self, bytes: u64) {
        bump(&self.worker_wire, Dir::MessagesIn as usize, 1);
        bump(&self.worker_wire, Dir::BytesIn as usize, bytes);
    }

    /// A task of `bytes` was sent to a leased worker.
    pub fn worker_out(&self, bytes: u64) {
        bump(&self.worker_wire, Dir::MessagesOut as usize, 1);
        bump(&self.worker_wire, Dir::BytesOut as usize, bytes);
    }

    fn client_scope(&self, name: &str) -> Arc<ClientScope> {
        let mut inner = self.inner.lock_recover();
        match inner.clients.get(name) {
            Some(scope) => Arc::clone(scope),
            None => {
                let scope = Arc::new(ClientScope::default());
                inner.clients.insert(name.to_owned(), Arc::clone(&scope));
                scope
            }
        }
    }

    fn conn_closed(&self, id: u64) {
        self.add(Count::ConnectionsClosed, 1);
        self.inner.lock_recover().conns.remove(&id);
    }

    fn label_conn(&self, id: u64, client: &str) {
        if let Some(entry) = self.inner.lock_recover().conns.get_mut(&id) {
            entry.client = Some(client.to_owned());
        }
    }

    /// Render the full Prometheus-style text exposition. `gauges`
    /// carries the point-in-time values owned by other subsystems;
    /// sample them **before** calling (this method takes the registry
    /// lock briefly and must stay a lock-order leaf).
    pub fn render(&self, gauges: &RenderGauges) -> String {
        let now_s = self.now_s();
        // Snapshot the dynamic maps once, then render without the lock.
        let (mut clients, mut conns): (Vec<_>, Vec<_>) = {
            let inner = self.inner.lock_recover();
            let clients = inner.clients.iter();
            let conns = inner.conns.iter();
            (
                clients.map(|(k, v)| (k.clone(), Arc::clone(v))).collect(),
                conns
                    .map(|(id, e)| (*id, e.client.clone(), Arc::clone(&e.wire)))
                    .collect(),
            )
        };
        clients.sort_by(|a, b| a.0.cmp(&b.0));
        conns.sort_by_key(|c| c.0);
        let client_label = |name: &str| format!("{{client=\"{}\"}}", escape_label(name));
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut out = String::new();
        for def in CATALOG {
            let name = def.name;
            let _ = writeln!(out, "# HELP {name} {}", def.help);
            let _ = writeln!(out, "# TYPE {name} {}", def.kind.keyword());
            let mut sample = |labels: &str, value: u64| {
                let _ = writeln!(out, "{name}{labels} {value}");
            };
            match def.source {
                Source::Count(count) => sample("", self.get(count)),
                Source::Wire(dir) => sample("", read(&self.wire, dir as usize)),
                Source::WorkerWire(dir) => sample("", read(&self.worker_wire, dir as usize)),
                Source::ClientWire(dir) => {
                    for (who, scope) in &clients {
                        sample(&client_label(who), read(&scope.wire, dir as usize));
                    }
                }
                Source::ClientJobs => {
                    for (who, scope) in &clients {
                        sample(&client_label(who), load(&scope.jobs_submitted));
                    }
                }
                Source::ConnWire(dir) => {
                    for (id, who, wire) in &conns {
                        let who = escape_label(who.as_deref().unwrap_or(""));
                        let labels = format!("{{conn=\"{id}\",client=\"{who}\"}}");
                        sample(&labels, read(wire.as_ref(), dir as usize));
                    }
                }
                Source::Window(dir) => {
                    let window = self.windows.get(dir as usize);
                    sample("", window.map_or(0, |w| w.sum(now_s)));
                }
                Source::RoundsWindow => sample("", self.rounds_window.sum(now_s)),
                Source::Class(pick) => {
                    for class in [JobClass::Interactive, JobClass::Batch] {
                        let labels = format!("{{class=\"{}\"}}", class.label());
                        sample(&labels, load(pick(self.class(class))));
                    }
                }
                Source::Stage(pick) => {
                    for (stage, slot) in StageId::ALL.iter().zip(&self.stages) {
                        let labels = format!("{{stage=\"{}\"}}", stage.label());
                        sample(&labels, load(pick(slot)));
                    }
                }
                Source::Gauge(pick) => sample("", pick(gauges)),
                Source::Uptime => sample("", now_s),
                Source::OpenConnections => {
                    let open = self.get(Count::ConnectionsOpened);
                    sample("", open.saturating_sub(self.get(Count::ConnectionsClosed)));
                }
            }
        }
        out
    }
}

/// The registry doubles as the streaming pipeline's per-stage meter:
/// `run_job` attaches it at operator construction, so every served
/// round's source/fold/merge/gate/sink work lands in the `stage`-labeled
/// families — atomic adds only, preserving the hot-path-cost rule. A
/// fold that returned reports is also one completed round.
impl StageMeter for MetricsRegistry {
    fn record(&self, stage: StageId, sample: StageSample) {
        if let Some(slot) = self.stages.get(stage.index()) {
            slot.items_in.fetch_add(sample.items_in, Ordering::Relaxed);
            slot.items_out
                .fetch_add(sample.items_out, Ordering::Relaxed);
            slot.wall_ms.fetch_add(sample.wall_ms, Ordering::Relaxed);
        }
        if stage == StageId::Fold && sample.items_out > 0 {
            self.add(Count::Rounds, 1);
            self.add(Count::RoundWallMsTotal, sample.wall_ms);
            if let Some(last) = self.counts.get(Count::RoundWallMsLast as usize) {
                last.store(sample.wall_ms, Ordering::Relaxed);
            }
            self.add(Count::Items, sample.items_in);
            self.rounds_window.record(self.now_s(), 1);
        }
    }
}

/// Escape a label value for the text exposition (`\`, `"`, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Wire-accounting handle for one client connection. Created by
/// [`MetricsRegistry::conn_opened`]; dropping it marks the connection
/// closed and retires its per-connection series.
#[derive(Debug)]
pub struct ConnMetrics {
    registry: Arc<MetricsRegistry>,
    id: u64,
    conn: Arc<WireCounters>,
    client: OnceLock<Arc<ClientScope>>,
}

impl ConnMetrics {
    /// Attribute this connection (and its traffic from here on) to the
    /// announced client identity. First call wins; later calls only
    /// relabel the per-connection series.
    pub fn set_client(&self, name: &str) {
        let scope = self.registry.client_scope(name);
        let _ = self.client.set(scope);
        self.registry.label_conn(self.id, name);
    }

    /// One protocol frame of `bytes` arrived on this connection.
    pub fn record_in(&self, bytes: u64) {
        self.record([(Dir::MessagesIn, 1), (Dir::BytesIn, bytes)]);
    }

    /// One protocol frame of `bytes` was sent on this connection.
    pub fn record_out(&self, bytes: u64) {
        self.record([(Dir::MessagesOut, 1), (Dir::BytesOut, bytes)]);
    }

    /// Count each `(direction, amount)` globally, in its window, on
    /// this connection, and for its client once one is announced.
    fn record(&self, amounts: [(Dir, u64); 2]) {
        let registry = &self.registry;
        let now_s = registry.now_s();
        for (dir, n) in amounts {
            bump(&registry.wire, dir as usize, n);
            if let Some(window) = registry.windows.get(dir as usize) {
                window.record(now_s, n);
            }
            bump(self.conn.as_ref(), dir as usize, n);
            if let Some(scope) = self.client.get() {
                bump(&scope.wire, dir as usize, n);
            }
        }
    }
}

impl Drop for ConnMetrics {
    fn drop(&mut self) {
        self.registry.conn_closed(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A registry after a fixed event script that gives every scope
    /// data: two live connections (one client name needs escaping) and
    /// one closed, every [`Count`], one stage sample, one sample per
    /// class. The handles keep the per-connection series alive.
    fn sample_registry() -> (Arc<MetricsRegistry>, [ConnMetrics; 2]) {
        let registry = MetricsRegistry::new();
        let a = registry.conn_opened();
        a.record_in(64);
        a.set_client("tester");
        a.record_in(100);
        a.record_out(500);
        let odd = "odd \"name\"\\\n2";
        let b = registry.conn_opened();
        b.set_client(odd);
        b.record_in(7);
        b.record_out(9);
        drop(registry.conn_opened());
        registry.job_submitted("tester");
        registry.job_submitted(odd);
        registry.add(Count::JobsCompleted, 4);
        registry.add(Count::JobsFailed, 2);
        registry.add(Count::JobsCancelled, 1);
        registry.add(Count::CacheHits, 1);
        registry.add(Count::CacheMisses, 3);
        registry.add(Count::CacheFollowers, 2);
        registry.add(Count::FleetLeases, 5);
        registry.add(Count::FleetReclaims, 2);
        registry.worker_in(40);
        registry.worker_out(80);
        let interactive = registry.class(JobClass::Interactive);
        interactive.enqueued();
        interactive.enqueued();
        interactive.dequeued(7);
        let batch = registry.class(JobClass::Batch);
        batch.enqueued();
        batch.dequeued(3);
        batch.enqueued();
        batch.removed();
        registry.record(
            StageId::Fold,
            StageSample {
                items_in: 64,
                items_out: 3,
                wall_ms: 9,
            },
        );
        (registry, [a, b])
    }

    fn render_sample(registry: &MetricsRegistry) -> String {
        registry.render(&RenderGauges {
            jobs_running: 2,
            cache_entries: 5,
            fleet_idle: 1,
        })
    }

    /// The exposition of [`sample_registry`] is pinned byte for byte:
    /// every name, `# HELP`, `# TYPE`, label set, sample order, and
    /// value. The fixture was rendered before catalog rows carried
    /// their sources; only the uptime value is masked.
    #[test]
    fn exposition_matches_the_pinned_text() {
        let started = Instant::now();
        let (registry, _conns) = sample_registry();
        let text = render_sample(&registry);
        let mut masked = String::new();
        for line in text.lines() {
            let uptime = line.strip_prefix("seqpoint_uptime_seconds ");
            if let Some(value) = uptime {
                let value: u64 = value.parse().expect("uptime is an integer");
                assert!(value <= started.elapsed().as_secs());
                masked.push_str("seqpoint_uptime_seconds UPTIME");
            } else {
                masked.push_str(line);
            }
            masked.push('\n');
        }
        let pinned = include_str!("../tests/fixtures/metrics_exposition.txt");
        assert_eq!(masked, pinned);
    }

    /// Stage samples accumulate into the `stage`-labeled families, and
    /// every stage renders a series even before it has recorded work.
    #[test]
    fn stage_samples_land_in_labeled_families() {
        let registry = MetricsRegistry::new();
        registry.record(
            StageId::Merge,
            StageSample {
                items_in: 4,
                items_out: 1,
                wall_ms: 2,
            },
        );
        registry.record(
            StageId::Merge,
            StageSample {
                items_in: 0,
                items_out: 0,
                wall_ms: 0,
            },
        );
        registry.record(
            StageId::Merge,
            StageSample {
                items_in: 4,
                items_out: 1,
                wall_ms: 1,
            },
        );
        let text = registry.render(&RenderGauges::default());
        assert!(text.contains("seqpoint_stage_items_in_total{stage=\"merge\"} 8"));
        assert!(text.contains("seqpoint_stage_items_out_total{stage=\"merge\"} 2"));
        assert!(text.contains("seqpoint_stage_wall_ms_total{stage=\"merge\"} 3"));
        // Idle stages still expose their series at zero.
        assert!(text.contains("seqpoint_stage_items_in_total{stage=\"sink\"} 0"));
    }

    /// Every catalog entry must produce at least one sample line when
    /// every scope has data — i.e. the render match can't silently
    /// drop a documented metric.
    #[test]
    fn render_covers_every_catalog_entry() {
        let (registry, _conns) = sample_registry();
        let text = render_sample(&registry);
        for def in CATALOG {
            let has_sample = text.lines().any(|l| {
                l.strip_prefix(def.name)
                    .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
            });
            assert!(has_sample, "no sample rendered for {}", def.name);
            assert!(
                text.contains(&format!("# TYPE {} {}", def.name, def.kind.keyword())),
                "no TYPE line for {}",
                def.name
            );
        }
    }

    /// Catalog names are unique and uniformly prefixed.
    #[test]
    fn catalog_names_are_unique_and_prefixed() {
        let mut seen = std::collections::HashSet::new();
        for def in CATALOG {
            assert!(def.name.starts_with("seqpoint_"), "{}", def.name);
            assert!(seen.insert(def.name), "duplicate catalog name {}", def.name);
            assert!(!def.help.is_empty(), "{} has no help text", def.name);
        }
    }

    /// Label names of one sample line of `name`, joined by `,` (empty
    /// for an unlabeled sample); `None` if the line is not a sample of
    /// `name`.
    fn label_names(line: &str, name: &str) -> Option<String> {
        let rest = line.strip_prefix(name)?;
        if rest.starts_with(' ') {
            return Some(String::new());
        }
        let mut rest = rest.strip_prefix('{')?;
        let mut names = Vec::new();
        loop {
            let (label, value) = rest.split_once("=\"")?;
            names.push(label);
            let mut chars = value.char_indices();
            let end = loop {
                match chars.next()? {
                    (_, '\\') => {
                        chars.next();
                    }
                    (i, '"') => break i,
                    _ => {}
                }
            };
            rest = &value[end + 1..];
            if let Some(more) = rest.strip_prefix(',') {
                rest = more;
            } else {
                return rest.starts_with('}').then(|| names.join(","));
            }
        }
    }

    /// `docs/metrics.md` documents exactly the catalog: every exported
    /// name has a table row whose Type column is the row's kind and
    /// whose Labels column lists the label names its rendered samples
    /// carry, and every `seqpoint_`-prefixed name the doc mentions
    /// exists in the catalog. An undocumented counter, a stale doc
    /// row, or a wrong Type or Labels cell fails here.
    #[test]
    fn docs_metrics_md_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/metrics.md");
        let doc =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let (registry, _conns) = sample_registry();
        let text = render_sample(&registry);
        for def in CATALOG {
            let prefix = format!("| `{}` |", def.name);
            let row = doc.lines().find(|l| l.starts_with(&prefix));
            let row = row.unwrap_or_else(|| {
                panic!("{} is exported but has no row in docs/metrics.md", def.name)
            });
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            assert_eq!(cells[2], def.kind.keyword(), "Type of {}", def.name);
            let mut rendered: Vec<String> = text
                .lines()
                .filter_map(|l| label_names(l, def.name))
                .collect();
            rendered.dedup();
            assert_eq!(
                rendered.len(),
                1,
                "label sets of {}: {rendered:?}",
                def.name
            );
            let documented = match cells[3] {
                "—" => String::new(),
                cell => cell.replace('`', ""),
            };
            assert_eq!(documented, rendered[0], "Labels of {}", def.name);
        }
        let known: std::collections::HashSet<&str> = CATALOG.iter().map(|d| d.name).collect();
        for token in doc.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
            if let Some(rest) = token.strip_prefix("seqpoint_") {
                // Skip non-metric identifiers (binary name etc.): a
                // metric token is exactly a catalog-style name.
                if rest.is_empty() {
                    continue;
                }
                assert!(
                    known.contains(token),
                    "docs/metrics.md mentions unknown metric `{token}`"
                );
            }
        }
    }

    #[test]
    fn window_sums_only_the_trailing_sixty_seconds() {
        let w = Window::default();
        w.record(0, 5);
        w.record(1, 7);
        assert_eq!(w.sum(1), 12);
        // 59 seconds later both are still visible...
        assert_eq!(w.sum(59), 12);
        // ...at 60 the second-0 bucket ages out...
        assert_eq!(w.sum(60), 7);
        // ...and a wrapped write retires the stale bucket it lands on.
        w.record(60, 1);
        assert_eq!(w.sum(60), 8);
        // One second on, the second-1 bucket ages out too.
        assert_eq!(w.sum(61), 1);
        assert_eq!(w.sum(200), 0);
    }

    #[test]
    fn conn_drop_retires_the_connection_series() {
        let registry = MetricsRegistry::new();
        let conn = registry.conn_opened();
        conn.record_in(10);
        let live = registry.render(&RenderGauges::default());
        assert!(live.contains("seqpoint_conn_bytes_in_total{conn=\"1\""));
        drop(conn);
        let gone = registry.render(&RenderGauges::default());
        assert!(!gone.contains("seqpoint_conn_bytes_in_total{conn=\"1\""));
        assert!(gone.contains("seqpoint_connections_closed_total 1"));
    }

    #[test]
    fn client_attribution_starts_at_set_client() {
        let registry = MetricsRegistry::new();
        let conn = registry.conn_opened();
        conn.record_in(100); // pre-identity: global + conn only
        conn.set_client("c1");
        conn.record_in(11);
        conn.record_out(22);
        let text = registry.render(&RenderGauges::default());
        assert!(text.contains("seqpoint_client_bytes_in_total{client=\"c1\"} 11"));
        assert!(text.contains("seqpoint_client_bytes_out_total{client=\"c1\"} 22"));
        assert!(text.contains("seqpoint_bytes_in_total 111"));
        assert!(text.contains("seqpoint_conn_bytes_in_total{conn=\"1\",client=\"c1\"} 111"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
