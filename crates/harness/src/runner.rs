//! The iteration runner: executes a litmus test thousands of times on a
//! simulated chip, in parallel batches, and histograms the outcomes.
//!
//! # Reproducibility
//!
//! A run's iterations are split into [`STREAM_CHUNKS`] logical chunks
//! whose RNG streams derive purely from the base seed and the chunk
//! index. Worker threads run groups of chunks (work items, see
//! [`crate::campaign`]) in any order, and chunk counts merge
//! commutatively — so the full histogram is a pure function of
//! `(test, chip, incantations, iterations, seed)`: bit-identical on any
//! machine, at any `parallelism` setting.

use std::fmt;

use weakgpu_litmus::{LitmusTest, Outcome};
use weakgpu_sim::chip::{Chip, Incantations};
use weakgpu_sim::machine::RunError;
use weakgpu_sim::program::CompileError;

use crate::campaign::{run_campaign, CampaignConfig, CellSpec};
use crate::histogram::Histogram;

/// Number of logical RNG streams a run is split into. Fixed (never
/// derived from the host's core count) so histograms are
/// machine-independent; larger than any plausible worker count so the
/// pool still load-balances.
pub const STREAM_CHUNKS: usize = 64;

/// The per-chunk iteration counts for a run of `iterations`: at most
/// [`STREAM_CHUNKS`] chunks, sizes differing by at most one, depending
/// only on `iterations`.
pub(crate) fn chunk_sizes(iterations: usize) -> impl Iterator<Item = usize> {
    let n = iterations.min(STREAM_CHUNKS);
    let (base, rem) = match n {
        0 => (0, 0),
        n => (iterations / n, iterations % n),
    };
    (0..n).map(move |i| base + usize::from(i < rem))
}

/// The RNG seed of logical chunk `idx` for base seed `seed` (a golden-ratio
/// stride keeps neighbouring streams decorrelated).
pub(crate) fn chunk_seed(seed: u64, idx: usize) -> u64 {
    seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(idx as u64 + 1))
}

/// Configuration of one harness invocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunConfig {
    /// Number of runs (the paper uses 100 000).
    pub iterations: usize,
    /// Incantation combination.
    pub incantations: Incantations,
    /// Base RNG seed; logical chunk streams derive from it independently
    /// of worker count.
    pub seed: u64,
    /// Worker threads (`None` = all available cores). Affects wall-clock
    /// time only, never the histogram.
    pub parallelism: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            iterations: 100_000,
            incantations: Incantations::all_on(),
            seed: 0x5eed,
            parallelism: None,
        }
    }
}

impl RunConfig {
    /// Paper-scale config: 100k iterations at the given incantations.
    pub fn paper(incantations: Incantations) -> Self {
        RunConfig {
            incantations,
            ..RunConfig::default()
        }
    }

    /// A quick config for tests and examples.
    pub fn quick(iterations: usize) -> Self {
        RunConfig {
            iterations,
            ..RunConfig::default()
        }
    }
}

/// Harness failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HarnessError {
    /// The test failed to compile for the simulator.
    Compile(CompileError),
    /// A run failed.
    Run(RunError),
    /// A cell observed an outcome that no candidate execution of its
    /// test has. The verdict's outcomes cover every candidate, so this is
    /// a fault of the simulator, the enumerator or a verdict cache, never
    /// a finding about the model.
    OutOfDomain {
        /// Test name.
        test: String,
        /// The chip the cell ran on.
        chip: Chip,
        /// The lowest such outcome of the cell, in canonical order.
        outcome: Outcome,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Compile(e) => write!(f, "compile error: {e}"),
            HarnessError::Run(e) => write!(f, "run error: {e}"),
            HarnessError::OutOfDomain {
                test,
                chip,
                outcome,
            } => write!(
                f,
                "{test} on {}: observed outcome \"{}\", which no candidate execution \
                 of the test has (a simulator, enumerator or verdict-cache fault, \
                 not a model finding)",
                chip.short(),
                outcome.to_string().trim_end()
            ),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<CompileError> for HarnessError {
    fn from(e: CompileError) -> Self {
        HarnessError::Compile(e)
    }
}

impl From<RunError> for HarnessError {
    fn from(e: RunError) -> Self {
        HarnessError::Run(e)
    }
}

/// The result of running one test on one chip.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TestReport {
    /// Test name.
    pub test: String,
    /// Chip it ran on.
    pub chip: Chip,
    /// Incantations used.
    pub incantations: Incantations,
    /// Full outcome histogram.
    pub histogram: Histogram,
    /// Runs witnessing the final condition (the paper's `obs` number).
    pub witnesses: u64,
}

impl TestReport {
    /// Witnesses normalised to the paper's `obs/100k` scale.
    pub fn obs_per_100k(&self) -> u64 {
        let total = self.histogram.total();
        if total == 0 {
            0
        } else {
            (self.witnesses as u128 * 100_000 / total as u128) as u64
        }
    }
}

/// Runs `test` on `chip` for `cfg.iterations` runs and histograms the
/// outcomes.
///
/// A single-cell campaign (see [`crate::campaign`]): the iterations are
/// split into [`STREAM_CHUNKS`] seed-derived logical chunks, grouped into
/// work items that a worker pool drains, so the histogram is
/// bit-identical for a fixed seed on any machine and at any
/// `parallelism`.
///
/// # Errors
///
/// Returns a [`HarnessError`] if the test cannot be compiled or a run
/// fails (e.g. a livelocked spin loop).
pub fn run_test(
    test: &LitmusTest,
    chip: Chip,
    cfg: &RunConfig,
) -> Result<TestReport, HarnessError> {
    let cells = [CellSpec::from_config(test.clone(), chip, cfg)];
    let mut reports = run_campaign(
        &cells,
        &CampaignConfig {
            parallelism: cfg.parallelism,
        },
    )?;
    Ok(reports.pop().expect("one report per cell"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakgpu_litmus::corpus;
    use weakgpu_litmus::ThreadScope;

    #[test]
    fn totals_match_iterations() {
        let cfg = RunConfig::quick(1234);
        let r = run_test(&corpus::corr(), Chip::GtxTitan, &cfg).unwrap();
        assert_eq!(r.histogram.total(), 1234);
        assert_eq!(r.test, "coRR");
        assert_eq!(r.chip, Chip::GtxTitan);
    }

    #[test]
    fn reproducible_across_invocations() {
        let cfg = RunConfig {
            iterations: 3000,
            parallelism: Some(4),
            ..RunConfig::default()
        };
        let test = corpus::mp(ThreadScope::InterCta, None);
        let a = run_test(&test, Chip::GtxTitan, &cfg).unwrap();
        let b = run_test(&test, Chip::GtxTitan, &cfg).unwrap();
        assert_eq!(a.histogram, b.histogram);
    }

    #[test]
    fn obs_normalisation() {
        let cfg = RunConfig {
            iterations: 50_000,
            incantations: Incantations::all_on(),
            ..RunConfig::default()
        };
        let r = run_test(&corpus::corr(), Chip::GtxTitan, &cfg).unwrap();
        assert!(r.witnesses > 0);
        let per100k = r.obs_per_100k();
        assert!(per100k >= r.witnesses, "normalising 50k to 100k doubles");
    }

    #[test]
    fn zero_iterations_is_empty() {
        let cfg = RunConfig::quick(0);
        let r = run_test(&corpus::corr(), Chip::Gtx280, &cfg).unwrap();
        assert_eq!(r.histogram.total(), 0);
        assert_eq!(r.obs_per_100k(), 0);
    }

    #[test]
    fn single_worker_matches_multi_worker_totals() {
        // Strengthened from totals to full histograms: RNG streams are
        // per logical chunk, not per worker, so worker count must not
        // shift a single outcome count.
        let test = corpus::sb(ThreadScope::InterCta, None);
        let mk = |par| RunConfig {
            iterations: 2000,
            parallelism: Some(par),
            ..RunConfig::default()
        };
        let one = run_test(&test, Chip::GtxTitan, &mk(1)).unwrap();
        let four = run_test(&test, Chip::GtxTitan, &mk(4)).unwrap();
        assert_eq!(one.histogram.total(), four.histogram.total());
        assert_eq!(one.histogram, four.histogram);
    }

    #[test]
    fn chunk_sizes_partition_iterations() {
        for iterations in [0usize, 1, 7, 63, 64, 65, 1000, 100_000] {
            let sizes: Vec<usize> = chunk_sizes(iterations).collect();
            assert_eq!(sizes.iter().sum::<usize>(), iterations);
            assert!(sizes.len() <= STREAM_CHUNKS);
            if iterations > 0 {
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "{iterations}: uneven chunks {sizes:?}");
                assert!(*min >= 1);
            }
        }
    }

    #[test]
    fn chunk_seeds_are_distinct() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..STREAM_CHUNKS).map(|i| chunk_seed(0x5eed, i)).collect();
        assert_eq!(seeds.len(), STREAM_CHUNKS);
    }
}
