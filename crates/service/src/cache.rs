//! Selection result cache with single-flight deduplication.
//!
//! SeqPoint's premise is that profiling work is massively redundant —
//! and the same insight applies one level up: two submissions of the
//! same corpus/config are the *same experiment* and should cost one
//! profiling run. The cache keys on [`CacheKey`]: the
//! `stream_fingerprint` (model, dataset-derived batch shapes, device,
//! stat, round length, early-stop thresholds) plus the shard count
//! (rendered output states it) and the corpus seed (the fingerprint
//! only sees the seed through the shuffled batch order, which a
//! uniform-length corpus can make seed-invariant — the key makes seed
//! identity explicit). Scheduling metadata — class, client, throttle,
//! preemption budget — is deliberately *not* part of the key.
//!
//! Two maps implement single-flight:
//!
//! * `ready`: key → the job id holding a retained rendered result. A
//!   hit is answered immediately, byte-identical to a fresh run.
//! * `inflight`: key → the **primary** job id currently queued or
//!   running for that key. A hit attaches the submission as a follower
//!   of the primary: it gets the primary's result (or failure) the
//!   moment the primary finishes, without its own profiling run. When a
//!   primary is cancelled, the server promotes a follower to primary
//!   and the map is repointed here.
//!
//! The cache has its own lock, acquired strictly **after** the server's
//! `jobs` lock. Eviction is driven by the server's `--retain-jobs` GC:
//! when the job holding a `ready` entry is evicted, the mapping goes
//! with it.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::sync::LockExt;

/// Identity of one selection experiment (see the module docs for why
/// shards and seed ride alongside the fingerprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// `sqnn_profiler::stream::stream_fingerprint` of the resolved job.
    pub fingerprint: u64,
    /// Worker shard count (part of the rendered output).
    pub shards: u32,
    /// Corpus/shuffle seed (semantic corpus identity).
    pub seed: u64,
}

/// How a submission relates to the work already known for its key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// A retained result exists on this job: answer immediately.
    Ready(String),
    /// This key is being profiled by this primary job right now:
    /// attach as a follower.
    InFlight(String),
    /// First flight: the candidate was registered as the key's primary
    /// and must be scheduled.
    Miss,
}

#[derive(Default)]
struct CacheInner {
    ready: HashMap<CacheKey, String>,
    inflight: HashMap<CacheKey, String>,
}

/// The shared result cache (see the module docs).
#[derive(Default)]
pub struct ResultCache {
    inner: Mutex<CacheInner>,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Admit one submission: a `Ready`/`InFlight` hit, or a `Miss` that
    /// registers `candidate` as the key's in-flight primary.
    pub fn admit(&self, key: CacheKey, candidate: &str) -> Admission {
        let mut inner = self.inner.lock_recover();
        if let Some(done) = inner.ready.get(&key) {
            return Admission::Ready(done.clone());
        }
        if let Some(primary) = inner.inflight.get(&key) {
            return Admission::InFlight(primary.clone());
        }
        inner.inflight.insert(key, candidate.to_owned());
        Admission::Miss
    }

    /// Job `id` finished with a result: retire its in-flight
    /// registration and point the key's retained result at it.
    pub fn complete(&self, key: CacheKey, id: &str) {
        let mut inner = self.inner.lock_recover();
        if inner.inflight.get(&key).is_some_and(|p| p == id) {
            inner.inflight.remove(&key);
        }
        inner.ready.insert(key, id.to_owned());
    }

    /// The primary `id` ended without a reusable result (failure, or
    /// cancellation with no follower to promote): drop its in-flight
    /// registration so the next submission profiles fresh.
    pub fn abandon(&self, key: CacheKey, id: &str) {
        let mut inner = self.inner.lock_recover();
        if inner.inflight.get(&key).is_some_and(|p| p == id) {
            inner.inflight.remove(&key);
        }
    }

    /// Repoint a key's in-flight registration from a cancelled primary
    /// to the follower promoted in its place.
    pub fn promote(&self, key: CacheKey, old: &str, new: &str) {
        let mut inner = self.inner.lock_recover();
        if inner.inflight.get(&key).is_none_or(|p| p == old) {
            inner.inflight.insert(key, new.to_owned());
        }
    }

    /// The retention GC evicted job `id`: drop the retained mapping if
    /// it still points at that job.
    pub fn evict(&self, key: CacheKey, id: &str) {
        let mut inner = self.inner.lock_recover();
        if inner.ready.get(&key).is_some_and(|p| p == id) {
            inner.ready.remove(&key);
        }
    }

    /// Retained results, for `Ping` and the `seqpoint_cache_entries`
    /// gauge.
    pub fn entries(&self) -> u64 {
        self.inner.lock_recover().ready.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            fingerprint: n,
            shards: 3,
            seed: 7,
        }
    }

    #[test]
    fn single_flight_admission_sequence() {
        let cache = ResultCache::new();
        assert_eq!(cache.admit(key(1), "j1"), Admission::Miss);
        assert_eq!(cache.admit(key(1), "j2"), Admission::InFlight("j1".into()));
        assert_eq!(cache.admit(key(2), "j3"), Admission::Miss, "other key");
        cache.complete(key(1), "j1");
        assert_eq!(cache.admit(key(1), "j4"), Admission::Ready("j1".into()));
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn keys_differ_by_fingerprint_shards_and_seed() {
        let cache = ResultCache::new();
        assert_eq!(cache.admit(key(1), "a"), Admission::Miss);
        let resharded = CacheKey {
            shards: 4,
            ..key(1)
        };
        let reseeded = CacheKey { seed: 8, ..key(1) };
        assert_eq!(cache.admit(resharded, "b"), Admission::Miss);
        assert_eq!(cache.admit(reseeded, "c"), Admission::Miss);
    }

    #[test]
    fn abandon_and_promote_manage_the_inflight_slot() {
        let cache = ResultCache::new();
        assert_eq!(cache.admit(key(1), "j1"), Admission::Miss);
        cache.promote(key(1), "j1", "j2");
        assert_eq!(cache.admit(key(1), "x"), Admission::InFlight("j2".into()));
        cache.abandon(key(1), "j1");
        assert_eq!(
            cache.admit(key(1), "y"),
            Admission::InFlight("j2".into()),
            "abandon by a stale primary is a no-op"
        );
        cache.abandon(key(1), "j2");
        assert_eq!(cache.admit(key(1), "j3"), Admission::Miss);
    }

    #[test]
    fn evict_only_drops_the_matching_job() {
        let cache = ResultCache::new();
        cache.complete(key(1), "old");
        cache.evict(key(1), "other");
        assert_eq!(cache.admit(key(1), "x"), Admission::Ready("old".into()));
        cache.evict(key(1), "old");
        assert_eq!(cache.admit(key(1), "y"), Admission::Miss);
    }
}
