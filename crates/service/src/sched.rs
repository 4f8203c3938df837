//! Multi-tenant job scheduler: weighted-fair queueing across
//! [`JobClass`]es with round-robin service among clients inside a
//! class, plus a plain FIFO mode (`--fair` off) that reproduces the
//! original bounded-queue behavior bit for bit.
//!
//! # Fairness model
//!
//! Each class keeps a **virtual time** that advances by `SCALE /
//! class.weight()` per dispatched job. The scheduler always serves the
//! backlogged class with the smallest virtual time, so under contention
//! a weight-4 `interactive` class gets four slots for every one a
//! weight-1 `batch` class gets — a batch flood delays interactive work
//! by a bounded factor instead of starving it behind the whole flood.
//! When a class goes from idle to backlogged its virtual time is caught
//! up to the minimum of the other active classes, so accumulated idle
//! credit cannot let it monopolize slots afterwards.
//!
//! Within a class, clients are served round-robin (one job per turn),
//! so one client's burst cannot starve another client in the same
//! class; within a client, jobs stay FIFO by arrival.
//!
//! The scheduler owns its own lock, acquired strictly **after** the
//! server's `jobs` lock (never the other way around).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use seqpoint_core::protocol::JobClass;

use crate::metrics::MetricsRegistry;
use crate::sync::{CondvarExt, LockExt};

/// Fixed-point scale for class virtual time; divisible by every class
/// weight so the arithmetic stays exact.
const SCALE: u64 = 840;

/// Service order across classes when virtual times tie (and the
/// iteration order for deterministic scans).
const CLASSES: [JobClass; 2] = [JobClass::Interactive, JobClass::Batch];

/// One queued job and the arrival stamp that orders FIFO mode.
struct QueuedJob {
    seq: u64,
    id: String,
    /// Arrival instant, for the queue-wait metric at dispatch.
    queued_at: Instant,
}

/// A class's backlog: one FIFO per client, served round-robin.
struct ClassQueue {
    /// Virtual time (scaled); smallest backlogged class is served next.
    vtime: u64,
    /// Round-robin ring of clients with pending jobs.
    ring: VecDeque<String>,
    /// Per-client FIFO backlogs.
    by_client: HashMap<String, VecDeque<QueuedJob>>,
}

impl ClassQueue {
    fn new() -> Self {
        ClassQueue {
            vtime: 0,
            ring: VecDeque::new(),
            by_client: HashMap::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    fn push(&mut self, client: &str, job: QueuedJob) {
        let backlog = self.by_client.entry(client.to_owned()).or_default();
        if backlog.is_empty() {
            self.ring.push_back(client.to_owned());
        }
        backlog.push_back(job);
    }

    /// Pop the next job round-robin across clients.
    fn pop_fair(&mut self) -> Option<QueuedJob> {
        let client = self.ring.pop_front()?;
        let backlog = self.by_client.get_mut(&client)?;
        let job = backlog.pop_front();
        if backlog.is_empty() {
            self.by_client.remove(&client);
        } else {
            self.ring.push_back(client);
        }
        job
    }

    /// Arrival stamp of the oldest job in this class (FIFO mode).
    fn oldest_seq(&self) -> Option<u64> {
        self.by_client
            .values()
            .filter_map(|q| q.front().map(|j| j.seq))
            .min()
    }

    /// Pop the oldest job by arrival (FIFO mode).
    fn pop_oldest(&mut self) -> Option<QueuedJob> {
        let client = self
            .by_client
            .iter()
            .filter_map(|(c, q)| q.front().map(|j| (j.seq, c.clone())))
            .min()?
            .1;
        let backlog = self.by_client.get_mut(&client)?;
        let job = backlog.pop_front();
        if backlog.is_empty() {
            self.by_client.remove(&client);
            self.ring.retain(|c| *c != client);
        }
        job
    }

    fn remove(&mut self, id: &str) -> bool {
        let mut found = false;
        let mut emptied: Option<String> = None;
        for (client, backlog) in self.by_client.iter_mut() {
            let before = backlog.len();
            backlog.retain(|j| j.id != id);
            if backlog.len() != before {
                found = true;
                if backlog.is_empty() {
                    emptied = Some(client.clone());
                }
                break;
            }
        }
        if let Some(client) = emptied {
            self.by_client.remove(&client);
            self.ring.retain(|c| *c != client);
        }
        found
    }
}

struct SchedInner {
    classes: HashMap<JobClass, ClassQueue>,
    arrivals: u64,
    len: usize,
    /// Server virtual clock: the virtual time of the last class served.
    /// A class waking from idle catches up to it (no banked credit for
    /// idle periods, in either direction).
    vclock: u64,
}

/// The shared scheduler: a bounded multi-tenant queue the runner
/// threads pop from. See the module docs for the fairness model.
pub struct Scheduler {
    fair: bool,
    cap: usize,
    inner: Mutex<SchedInner>,
    cv: Condvar,
    /// Receives per-class queue depth, wait time, and dispatch counts.
    metrics: Arc<MetricsRegistry>,
}

impl Scheduler {
    /// A scheduler bounded at `cap` queued jobs. `fair` selects
    /// weighted-fair queueing; otherwise service is global FIFO.
    /// Queue metrics are recorded in `metrics`.
    pub fn new(fair: bool, cap: usize, metrics: Arc<MetricsRegistry>) -> Self {
        Scheduler {
            fair,
            cap,
            inner: Mutex::new(SchedInner {
                classes: HashMap::new(),
                arrivals: 0,
                len: 0,
                vclock: 0,
            }),
            cv: Condvar::new(),
            metrics,
        }
    }

    /// Enqueue a new submission. Returns `false` when the queue is at
    /// capacity (admission control: the caller rejects the submission).
    pub fn push(&self, id: &str, class: JobClass, client: &str) -> bool {
        let mut inner = self.inner.lock_recover();
        if inner.len >= self.cap {
            return false;
        }
        self.enqueue(&mut inner, id, class, client);
        drop(inner);
        self.cv.notify_all();
        true
    }

    /// Re-enqueue a preempted/retrying/recovered job, bypassing the
    /// capacity bound — the job was already admitted once; dropping it
    /// now would strand a client that was told `Submitted`.
    pub fn requeue(&self, id: &str, class: JobClass, client: &str) {
        let mut inner = self.inner.lock_recover();
        self.enqueue(&mut inner, id, class, client);
        drop(inner);
        self.cv.notify_all();
    }

    fn enqueue(&self, inner: &mut SchedInner, id: &str, class: JobClass, client: &str) {
        inner.arrivals += 1;
        let seq = inner.arrivals;
        // A class waking from idle catches up to the server's virtual
        // clock: it gets no credit for time it had nothing to run, and
        // is not penalized for the work others did meanwhile.
        let vclock = inner.vclock;
        let queue = inner.classes.entry(class).or_insert_with(ClassQueue::new);
        if queue.is_empty() {
            queue.vtime = queue.vtime.max(vclock);
        }
        queue.push(
            client,
            QueuedJob {
                seq,
                id: id.to_owned(),
                queued_at: Instant::now(),
            },
        );
        inner.len += 1;
        self.metrics.class(class).enqueued();
    }

    /// Pop the next job to run, waiting up to `timeout` for one to
    /// arrive. Returns `None` on timeout; the runner loop re-checks its
    /// drain flag and calls again.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<String> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock_recover();
        loop {
            if let Some(id) = self.pop_locked(&mut inner) {
                return Some(id);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.cv.wait_timeout_recover(inner, deadline - now);
            inner = guard;
        }
    }

    fn pop_locked(&self, inner: &mut SchedInner) -> Option<String> {
        let pick = if self.fair {
            // Smallest virtual time among backlogged classes; CLASSES
            // order breaks ties (interactive first) because min_by_key
            // keeps the first of equal minima.
            CLASSES
                .iter()
                .copied()
                .filter_map(|c| {
                    inner
                        .classes
                        .get(&c)
                        .filter(|q| !q.is_empty())
                        .map(|q| (c, q.vtime))
                })
                .min_by_key(|(_, vtime)| *vtime)
                .map(|(c, _)| c)?
        } else {
            // Global FIFO: the class holding the oldest arrival.
            // Ties on seq (impossible — seq is unique) would break by
            // CLASSES order, as above.
            CLASSES
                .iter()
                .copied()
                .filter_map(|c| {
                    inner
                        .classes
                        .get(&c)
                        .and_then(ClassQueue::oldest_seq)
                        .map(|s| (c, s))
                })
                .min_by_key(|(_, seq)| *seq)
                .map(|(c, _)| c)?
        };
        let queue = inner.classes.get_mut(&pick)?;
        let vclock = queue.vtime;
        let job = if self.fair {
            let job = queue.pop_fair();
            queue.vtime += SCALE / pick.weight();
            job
        } else {
            queue.pop_oldest()
        }?;
        inner.vclock = vclock;
        inner.len -= 1;
        self.metrics
            .class(pick)
            .dequeued(job.queued_at.elapsed().as_millis() as u64);
        Some(job.id)
    }

    /// Remove a queued job (cancellation). Returns whether it was
    /// queued.
    pub fn remove(&self, id: &str) -> bool {
        let mut inner = self.inner.lock_recover();
        for class in CLASSES {
            if let Some(queue) = inner.classes.get_mut(&class) {
                if queue.remove(id) {
                    inner.len -= 1;
                    self.metrics.class(class).removed();
                    return true;
                }
            }
        }
        false
    }

    /// Queued jobs across all classes and clients.
    pub fn len(&self) -> usize {
        self.inner.lock_recover().len
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wake every blocked `pop_timeout` (drain: the runners observe the
    /// drain flag and exit).
    pub fn notify_all(&self) {
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(sched: &Scheduler) -> Vec<String> {
        let mut order = Vec::new();
        while let Some(id) = sched.pop_timeout(Duration::from_millis(1)) {
            order.push(id);
        }
        order
    }

    #[test]
    fn fifo_mode_preserves_arrival_order_across_classes_and_clients() {
        let sched = Scheduler::new(false, 16, MetricsRegistry::new());
        assert!(sched.push("a1", JobClass::Batch, "a"));
        assert!(sched.push("b1", JobClass::Interactive, "b"));
        assert!(sched.push("a2", JobClass::Batch, "a"));
        assert!(sched.push("c1", JobClass::Interactive, "c"));
        assert_eq!(drain_order(&sched), vec!["a1", "b1", "a2", "c1"]);
    }

    #[test]
    fn capacity_is_enforced_on_push_but_not_requeue() {
        let sched = Scheduler::new(true, 2, MetricsRegistry::new());
        assert!(sched.push("j1", JobClass::Batch, "a"));
        assert!(sched.push("j2", JobClass::Batch, "a"));
        assert!(!sched.push("j3", JobClass::Batch, "a"), "over capacity");
        sched.requeue("j3", JobClass::Batch, "a");
        assert_eq!(sched.len(), 3, "requeue bypasses the bound");
    }

    #[test]
    fn interactive_overtakes_a_batch_flood() {
        let sched = Scheduler::new(true, 64, MetricsRegistry::new());
        for i in 0..10 {
            assert!(sched.push(&format!("b{i}"), JobClass::Batch, "bulk"));
        }
        assert!(sched.push("urgent", JobClass::Interactive, "human"));
        let order = drain_order(&sched);
        let pos = order.iter().position(|id| id == "urgent").unwrap();
        assert!(
            pos <= 1,
            "interactive job waited behind {pos} batch jobs: {order:?}"
        );
    }

    #[test]
    fn weights_ration_slots_under_sustained_contention() {
        let sched = Scheduler::new(true, 64, MetricsRegistry::new());
        for i in 0..20 {
            assert!(sched.push(&format!("i{i}"), JobClass::Interactive, "x"));
            assert!(sched.push(&format!("b{i}"), JobClass::Batch, "y"));
        }
        // In the first 10 dispatches, interactive (weight 4) should get
        // ~4 of every 5 slots.
        let mut interactive = 0;
        for _ in 0..10 {
            let id = sched.pop_timeout(Duration::from_millis(1)).unwrap();
            if id.starts_with('i') {
                interactive += 1;
            }
        }
        assert!(
            (7..=9).contains(&interactive),
            "expected ~8/10 interactive dispatches, got {interactive}"
        );
    }

    #[test]
    fn clients_within_a_class_are_served_round_robin() {
        let sched = Scheduler::new(true, 64, MetricsRegistry::new());
        for i in 0..3 {
            assert!(sched.push(&format!("a{i}"), JobClass::Batch, "alice"));
        }
        assert!(sched.push("b0", JobClass::Batch, "bob"));
        let order = drain_order(&sched);
        let pos = order.iter().position(|id| id == "b0").unwrap();
        assert!(
            pos <= 1,
            "bob's first job waited behind alice's whole burst: {order:?}"
        );
    }

    #[test]
    fn idle_class_gets_no_retroactive_credit() {
        let sched = Scheduler::new(true, 64, MetricsRegistry::new());
        // Batch runs alone for a while, advancing its vtime.
        for i in 0..8 {
            assert!(sched.push(&format!("b{i}"), JobClass::Batch, "y"));
        }
        for _ in 0..8 {
            sched.pop_timeout(Duration::from_millis(1)).unwrap();
        }
        // Interactive wakes up: it must not be starved later when batch
        // returns, nor may batch bank its head start.
        assert!(sched.push("i0", JobClass::Interactive, "x"));
        assert!(sched.push("b8", JobClass::Batch, "y"));
        let first = sched.pop_timeout(Duration::from_millis(1)).unwrap();
        assert_eq!(first, "i0");
    }

    #[test]
    fn remove_unlinks_a_queued_job() {
        let sched = Scheduler::new(true, 16, MetricsRegistry::new());
        assert!(sched.push("j1", JobClass::Batch, "a"));
        assert!(sched.push("j2", JobClass::Batch, "a"));
        assert!(sched.remove("j1"));
        assert!(!sched.remove("j1"), "already removed");
        assert!(!sched.remove("nope"));
        assert_eq!(drain_order(&sched), vec!["j2"]);
        assert!(sched.is_empty());
    }
}
