//! The workloads and the derivation of every job spec from the workload
//! seed. The program receives only the generated specs.

use seqpoint::seqpoint_core::protocol::{JobClass, JobSpec};
use seqpoint::seqpoint_core::stream::StreamConfig;
use seqpoint::sqnn_profiler::stream::StreamOptions;
use seqpoint::sqnn_profiler::StatKind;

/// The benchmark's workloads; see `BENCHMARK.json` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GNMT jobs the saturation gate stops early; most of the epoch is
    /// replayed and unseen shapes are simulated on demand.
    GnmtSaturating,
    /// DS2 jobs that never saturate: every iteration is folded, with a
    /// checkpoint written every round and no replay.
    Ds2ExhaustiveCkpt,
    /// Small GNMT jobs served by a daemon with subprocess workers to
    /// two client connections, one submission in four a repeat.
    ServedMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GnmtSaturating,
        Workload::Ds2ExhaustiveCkpt,
        Workload::ServedMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GnmtSaturating => "gnmt-saturating",
            Workload::Ds2ExhaustiveCkpt => "ds2-exhaustive-ckpt",
            Workload::ServedMix => "served-mix",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Salt separating the per-job seed streams of the workloads.
    fn salt(self) -> u64 {
        match self {
            Workload::GnmtSaturating => 0x676e_6d74,
            Workload::Ds2ExhaustiveCkpt => 0x0064_7332,
            Workload::ServedMix => 0x7365_7276,
        }
    }
}

/// One streaming job: the flags of `seqpoint stream`, with the
/// Table II config fixed at 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub model: &'static str,
    pub dataset: &'static str,
    pub samples: usize,
    pub seed: u64,
    pub batch: u32,
    pub shards: usize,
    pub round: usize,
    pub window: u64,
    pub unseen: f64,
    pub quant: u32,
    /// Checkpoint cadence in rounds, for jobs that checkpoint.
    pub checkpoint_every: Option<u32>,
}

/// Table II hardware configuration every job runs on.
pub const CONFIG: u32 = 1;

impl Job {
    pub fn stream_config(&self) -> StreamConfig {
        StreamConfig {
            saturation_window: self.window,
            unseen_threshold: self.unseen,
            quantization: self.quant,
            ..StreamConfig::default()
        }
    }

    pub fn options(&self) -> StreamOptions {
        StreamOptions {
            shards: self.shards,
            round_len: self.round,
            stat: StatKind::Runtime,
            stream: self.stream_config(),
        }
    }

    /// The same job as a service submission from `client`.
    pub fn job_spec(&self, client: &str) -> JobSpec {
        JobSpec {
            model: self.model.to_owned(),
            dataset: self.dataset.to_owned(),
            samples: self.samples as u64,
            config: CONFIG,
            seed: self.seed,
            batch: self.batch,
            shards: self.shards as u32,
            round_len: self.round as u32,
            stream: self.stream_config(),
            max_rounds: None,
            throttle_ms: 0,
            class: JobClass::Interactive,
            client: client.to_owned(),
        }
    }
}

/// The pinned reference job of `BENCH_stream.json`: `gnmt`/`iwslt15`,
/// 6,000 sentences, seed 20, 3 shards.
pub fn reference_job() -> Job {
    Job {
        model: "gnmt",
        dataset: "iwslt15",
        samples: 6_000,
        seed: 20,
        batch: 16,
        shards: 3,
        round: 32,
        window: 128,
        unseen: 0.05,
        quant: 8,
        checkpoint_every: None,
    }
}

/// Identity fields `BENCH_stream.json` records for [`reference_job`]:
/// iterations total and measured, rounds, early stop.
pub const REFERENCE_IDENTITY: (u64, u64, u64, bool) = (375, 152, 4, true);

/// splitmix64's output function.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A value derived from the workload seed for `(stream, index)`.
fn derive(workload: Workload, seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(mix(seed ^ workload.salt()) ^ stream) ^ index)
}

/// Per-job corpus seeds stay below 2^32 so they print compactly.
fn job_seed(workload: Workload, seed: u64, stream: u64, index: u64) -> u64 {
    derive(workload, seed, stream, index) >> 32
}

/// The `index`-th job of an offline workload's closed loop.
pub fn offline_job(workload: Workload, seed: u64, index: u64) -> Job {
    let seed = job_seed(workload, seed, 0, index);
    match workload {
        Workload::Ds2ExhaustiveCkpt => Job {
            model: "ds2",
            dataset: "librispeech100",
            samples: 5_000,
            seed,
            batch: 32,
            shards: 2,
            round: 4,
            window: 1_000_000,
            unseen: 0.0,
            quant: 8,
            checkpoint_every: Some(1),
        },
        Workload::GnmtSaturating | Workload::ServedMix => Job {
            model: "gnmt",
            dataset: "iwslt15",
            samples: if workload == Workload::ServedMix {
                6_000
            } else {
                60_000
            },
            seed,
            batch: 16,
            shards: 2,
            round: 32,
            window: 128,
            unseen: 0.05,
            quant: 8,
            checkpoint_every: None,
        },
    }
}

/// Submissions per repeat in the served mix: every fourth one repeats
/// an earlier spec of the same client.
pub const REPEAT_EVERY: u64 = 4;

/// The `k`-th submission of served client `client`: its job, and for a
/// repeat the index of the primary submission it repeats.
pub fn served_job(seed: u64, client: u64, k: u64) -> (Job, Option<u64>) {
    if k % REPEAT_EVERY == REPEAT_EVERY - 1 {
        // Repeat one of the earlier primaries of this client.
        let primaries: Vec<u64> = (0..k)
            .filter(|j| j % REPEAT_EVERY != REPEAT_EVERY - 1)
            .collect();
        let pick = derive(Workload::ServedMix, seed, 2 * client + 1, k) % primaries.len() as u64;
        let primary = primaries[pick as usize];
        (served_job(seed, client, primary).0, Some(primary))
    } else {
        let mut job = offline_job(Workload::ServedMix, seed, 0);
        job.seed = job_seed(Workload::ServedMix, seed, 2 * client + 2, k);
        (job, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_a_pure_function_of_the_seed() {
        for w in [Workload::GnmtSaturating, Workload::Ds2ExhaustiveCkpt] {
            for i in 0..8 {
                assert_eq!(offline_job(w, 42, i), offline_job(w, 42, i));
            }
        }
        for c in 0..2 {
            for k in 0..16 {
                assert_eq!(served_job(42, c, k), served_job(42, c, k));
            }
        }
        // Pinned values: a change here changes every workload's inputs.
        assert_eq!(
            offline_job(Workload::GnmtSaturating, 1, 0).seed,
            2_013_247_136
        );
        assert_eq!(
            offline_job(Workload::Ds2ExhaustiveCkpt, 1, 0).seed,
            3_011_715_975
        );
        assert_eq!(served_job(1, 0, 0).0.seed, 4_173_774_816);
    }

    #[test]
    fn seeds_differ_across_jobs_clients_workloads_and_runs() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..4 {
            for i in 0..32 {
                assert!(seen.insert(offline_job(Workload::GnmtSaturating, seed, i).seed));
                assert!(seen.insert(offline_job(Workload::Ds2ExhaustiveCkpt, seed, i).seed));
            }
            for c in 0..2 {
                for k in (0..32).filter(|k| k % REPEAT_EVERY != REPEAT_EVERY - 1) {
                    assert!(seen.insert(served_job(seed, c, k).0.seed));
                }
            }
        }
    }

    #[test]
    fn every_fourth_submission_repeats_an_earlier_primary() {
        for k in 0..64 {
            let (job, repeat) = served_job(9, 1, k);
            if k % REPEAT_EVERY == REPEAT_EVERY - 1 {
                let primary = repeat.expect("a repeat names its primary");
                assert!(primary < k && primary % REPEAT_EVERY != REPEAT_EVERY - 1);
                assert_eq!(served_job(9, 1, primary), (job, None));
            } else {
                assert_eq!(repeat, None);
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }
}
