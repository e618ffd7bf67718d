//! High-level drivers: generate → sort → validate in one call.

use bytes::Bytes;
use cts_mapreduce::{run, EngineConfig, JobOutcome, Result};

use crate::partition::SampledPartitioner;
use crate::record::{key_of, records, KEY_LEN};
use crate::sort::SortKernel;
use crate::validate::{validate, ValidationError};
use crate::workload::TeraSortWorkload;

/// How the key domain is partitioned across reducers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PartitionerKind {
    /// Equal-width key ranges (the paper's setting; exact for TeraGen's
    /// uniform keys).
    #[default]
    Range,
    /// Quantile boundaries from a coordinator-side key sample taken every
    /// `sample_every` records — Hadoop's TotalOrderPartitioner approach,
    /// required for skewed inputs.
    Sampled {
        /// Sampling stride (1 = every record).
        sample_every: usize,
    },
}

/// Configuration of one TeraSort / CodedTeraSort run: what the sort adds
/// to the engine's own configuration. Everything else — `K`, `r`, pods,
/// fabric, NIC, field, decode, threads, recovery — is set on `engine`.
#[derive(Clone, Debug)]
pub struct SortJob {
    /// Reduce-stage sort kernel.
    pub kernel: SortKernel,
    /// Key-domain partitioning strategy.
    pub partitioner: PartitionerKind,
    /// Engine/cluster configuration.
    pub engine: EngineConfig,
}

impl SortJob {
    /// A sort over `engine`'s cluster and layout.
    pub fn new(engine: EngineConfig) -> Self {
        SortJob {
            kernel: SortKernel::default(),
            partitioner: PartitionerKind::default(),
            engine,
        }
    }

    /// A local in-memory job.
    pub fn local(k: usize, r: usize) -> Self {
        SortJob::new(EngineConfig::local(k, r))
    }

    /// Overrides the sort kernel.
    pub fn with_kernel(mut self, kernel: SortKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Uses quantile sampling instead of uniform ranges.
    pub fn with_sampling(mut self, sample_every: usize) -> Self {
        assert!(sample_every >= 1, "sampling stride must be >= 1");
        self.partitioner = PartitionerKind::Sampled { sample_every };
        self
    }

    /// The job's workload: the partitioner it names, built over `input`,
    /// and its sort kernel.
    fn workload(&self, input: &Bytes) -> TeraSortWorkload {
        let w = match self.partitioner {
            PartitionerKind::Range => TeraSortWorkload::range(self.engine.k),
            PartitionerKind::Sampled { sample_every } => {
                // The paper's coordinator creates the key partitions
                // (§V-A); here it samples the input before the timed run.
                let samples: Vec<[u8; KEY_LEN]> = records(input)
                    .step_by(sample_every)
                    .map(|rec| key_of(rec).try_into().expect("key width"))
                    .collect();
                let samples = if samples.is_empty() {
                    vec![[0u8; KEY_LEN]]
                } else {
                    samples
                };
                TeraSortWorkload::sampled(SampledPartitioner::from_samples(samples, self.engine.k))
            }
        };
        w.with_kernel(self.kernel)
    }
}

/// A finished sort with its input retained for validation.
#[derive(Debug)]
pub struct SortRun {
    /// Engine results: outputs, stats, trace, wall times.
    pub outcome: JobOutcome,
    /// The input that was sorted.
    pub input: Bytes,
}

impl SortRun {
    /// Runs TeraValidate over the outputs.
    pub fn validate(&self) -> std::result::Result<(), ValidationError> {
        validate(&self.input, &self.outcome.outputs)
    }
}

/// Runs conventional TeraSort (paper §III) on `input`: `job` at `r = 1`
/// on the flat layout, whatever its engine configuration says.
pub fn run_terasort(input: Bytes, job: &SortJob) -> Result<SortRun> {
    let mut job = job.clone();
    (job.engine.r, job.engine.pods) = (1, 0);
    run_coded_terasort(input, &job)
}

/// Runs `job` on `input` as its engine configuration lays it out —
/// CodedTeraSort (paper §IV) at redundancy `job.engine.r`.
pub fn run_coded_terasort(input: Bytes, job: &SortJob) -> Result<SortRun> {
    let outcome = run(&job.workload(&input), input.clone(), &job.engine)?;
    Ok(SortRun { outcome, input })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::teragen::generate;

    #[test]
    fn terasort_validates() {
        let input = generate(600, 71);
        let run = run_terasort(input, &SortJob::local(4, 1)).unwrap();
        run.validate().unwrap();
    }

    #[test]
    fn run_terasort_runs_at_r_one_whatever_the_job_says() {
        let input = generate(600, 71);
        let run = run_terasort(input, &SortJob::local(4, 3)).unwrap();
        run.validate().unwrap();
        assert_eq!(run.outcome.stats.num_groups, 0);
        use cts_mapreduce::stage::stages::SHUFFLE;
        assert_eq!(run.outcome.trace.stage_wire_sends(SHUFFLE), 12);
    }

    #[test]
    fn coded_terasort_validates_and_matches() {
        let input = generate(600, 72);
        let coded = run_coded_terasort(input.clone(), &SortJob::local(4, 2)).unwrap();
        coded.validate().unwrap();
        let plain = run_terasort(input, &SortJob::local(4, 1)).unwrap();
        assert_eq!(coded.outcome.outputs, plain.outcome.outputs);
    }

    #[test]
    fn coded_shuffles_fewer_bytes() {
        let input = generate(3000, 73);
        let plain = run_terasort(input.clone(), &SortJob::local(6, 1)).unwrap();
        let coded = run_coded_terasort(input, &SortJob::local(6, 3)).unwrap();
        let gain =
            plain.outcome.stats.shuffle_bytes() as f64 / coded.outcome.stats.shuffle_bytes() as f64;
        // Theory: uncoded (5/6) vs coded (1/6) → 5×; headers shave a bit.
        assert!(gain > 3.0, "gain {gain}");
    }

    #[test]
    fn key_index_kernel_validates_too() {
        let input = generate(500, 74);
        let run = run_coded_terasort(
            input,
            &SortJob::local(4, 2).with_kernel(SortKernel::KeyIndex),
        )
        .unwrap();
        run.validate().unwrap();
    }

    #[test]
    fn sampled_partitioner_balances_skewed_sort() {
        use crate::teragen::generate_skewed;
        let input = generate_skewed(4_000, 75, 0.6, 16);
        // Range partitioning overloads one reducer …
        let ranged = run_coded_terasort(input.clone(), &SortJob::local(4, 2)).unwrap();
        ranged.validate().unwrap();
        let ranged_max = ranged
            .outcome
            .outputs
            .iter()
            .map(|o| o.len())
            .max()
            .unwrap();
        // … sampling balances it, with identical global output.
        let sampled =
            run_coded_terasort(input.clone(), &SortJob::local(4, 2).with_sampling(16)).unwrap();
        sampled.validate().unwrap();
        let sampled_max = sampled
            .outcome
            .outputs
            .iter()
            .map(|o| o.len())
            .max()
            .unwrap();
        assert!(ranged_max > input.len() / 2);
        assert!(sampled_max < input.len() / 3, "max {sampled_max}");
        let a: Vec<u8> = ranged.outcome.outputs.into_iter().flatten().collect();
        let b: Vec<u8> = sampled.outcome.outputs.into_iter().flatten().collect();
        assert_eq!(a, b, "partitioning must not change the sorted list");
    }

    #[test]
    fn sampled_uncoded_and_coded_agree() {
        use crate::teragen::generate_skewed;
        let input = generate_skewed(2_000, 76, 0.5, 12);
        let job = SortJob::local(5, 2).with_sampling(8);
        let coded = run_coded_terasort(input.clone(), &job).unwrap();
        let plain = run_terasort(input, &SortJob::local(5, 1).with_sampling(8)).unwrap();
        assert_eq!(coded.outcome.outputs, plain.outcome.outputs);
    }

    #[test]
    fn sampling_on_empty_input_is_safe() {
        let run = run_terasort(Bytes::new(), &SortJob::local(3, 1).with_sampling(4)).unwrap();
        run.validate().unwrap();
    }
}
