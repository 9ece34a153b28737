//! diy-style automatic litmus-test generation (paper Sec. 4.1).
//!
//! The paper extends the `diy` tool of Alglave et al.: non-SC executions
//! are cycles of *relaxation edges*; enumerating cycles over an edge
//! alphabet and synthesising one litmus test per cycle yields systematic
//! test families (10 930 tests in the paper's validation).
//!
//! * [`edge::Edge`] — the GPU edge alphabet: external communication edges
//!   (`Rfe`, `Fre`, `Coe`), program-order edges (same/different location,
//!   each direction pair), fenced edges at the three PTX scopes, and
//!   manufactured dependency edges (address/data/control);
//! * [`cycle`] — enumeration of well-formed cycles up to a length bound,
//!   canonicalised up to rotation;
//! * [`synth`] — synthesis of a [`weakgpu_litmus::LitmusTest`] from a
//!   cycle, including register allocation, value assignment, the final
//!   condition characterising the cycle's non-SC execution, and the
//!   GPU dimensions: scope-tree placement and memory region.
//!
//! Every sweep (and every shard of one) generates its whole family, so
//! generation handles no strings until it names a test: cycles are
//! validated on the walk's edge stack and kept only as their own least
//! rotation, a cycle's name is built once when it is kept, each cycle is
//! analysed once for all its placements, and the tests of one synthesis
//! job share one set of pre-made register and location names. The walks
//! share no state, so [`generate_parallel`] splits them, and then the
//! synthesis of their cycles, over worker threads; each synthesis job
//! makes its own names, so the workers do not contend on the names'
//! reference counts.
//!
//! ```
//! use weakgpu_diy::{generate, GenConfig};
//!
//! let tests = generate(&GenConfig::small());
//! assert!(tests.len() > 50);
//! // Every generated test is a valid litmus test with ≥ 2 threads.
//! assert!(tests.iter().all(|t| t.num_threads() >= 2));
//! ```

pub mod cycle;
pub mod edge;
pub mod synth;

pub use cycle::{enumerate_cycles, Cycle};
pub use edge::{DepKind, Dir, Edge};
pub use synth::{synthesise, GenConfig, SynthError};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use weakgpu_litmus::LitmusTest;

/// Generates the full test family for a configuration: every cycle over
/// the alphabet, synthesised at every requested placement and region.
/// The same as [`generate_parallel`] on one worker.
///
/// The returned family is in **canonical order** — sorted by test name,
/// which is unique within a family (cycle names are canonical up to
/// rotation and each placement/region appends a distinct suffix). The
/// order is therefore a pure function of the configuration: bit-identical
/// across calls, processes, and machines. Sharded sweeps rely on this to
/// partition the family deterministically by index.
pub fn generate(cfg: &GenConfig) -> Vec<LitmusTest> {
    generate_parallel(cfg, 1)
}

/// [`generate`] on `workers` threads, with the same result at any worker
/// count.
///
/// The cycle walks, one per length and first edge, split further by
/// second edge from three edges up, are shared by the workers, the
/// longest first, and their cycles are concatenated in
/// [`enumerate_cycles`] order. The synthesis of those cycles is then
/// split into jobs of consecutive cycles, each with its own set of
/// names, and the jobs' tests are concatenated in order before the name
/// sort.
pub fn generate_parallel(cfg: &GenConfig, workers: usize) -> Vec<LitmusTest> {
    let walk = cycle::Walk::new(&cfg.alphabet);
    let roots = walk.roots(cfg.max_edges);
    let mut cycles = Vec::new();
    // Roots are ordered by length, and longer walks cost more, so
    // claiming from the end balances the tail.
    run_jobs(
        roots.len(),
        workers,
        |k| roots.len() - 1 - k,
        |j| {
            let mut cycles = Vec::new();
            walk.for_each_cycle(&roots[j], |c| cycles.push(c));
            cycles
        },
        |part| cycles.extend(part),
    );
    let slices: Vec<&[Cycle]> = cycles.chunks(EXPAND_SLICE).collect();
    let mut tests = Vec::new();
    run_jobs(
        slices.len(),
        workers,
        |k| k,
        |j| {
            let names = synth::Names::new();
            let mut tests = Vec::new();
            for cycle in slices[j] {
                synth::expand(cycle, cfg, &names, &mut tests);
            }
            tests
        },
        |mut part| tests.append(&mut part),
    );
    tests.sort_unstable_by(|a, b| a.name().cmp(b.name()));
    tests
}

/// Cycles per synthesis job of [`generate_parallel`]: small enough that
/// workers finish together, large enough that claiming costs nothing.
const EXPAND_SLICE: usize = 128;

/// Runs `job(0..jobs)` on up to `workers` threads, which claim job
/// `claim(k)` as the `k`-th, and hands the results to `take` in job
/// order on the calling thread. A result is taken as soon as every
/// earlier one has been, so the jobs' outputs are not all held at once.
fn run_jobs<T: Send>(
    jobs: usize,
    workers: usize,
    claim: impl Fn(usize) -> usize + Sync,
    job: impl Fn(usize) -> T + Sync,
    mut take: impl FnMut(T),
) {
    if workers <= 1 {
        (0..jobs).map(job).for_each(take);
        return;
    }
    let claimed = AtomicUsize::new(0);
    let (claimed, claim, job) = (&claimed, &claim, &job);
    let (done, results) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(jobs) {
            let done = done.clone();
            scope.spawn(move || loop {
                let k = claimed.fetch_add(1, Ordering::Relaxed);
                if k >= jobs {
                    break;
                }
                let j = claim(k);
                if done.send((j, job(j))).is_err() {
                    break;
                }
            });
        }
        drop(done);
        let mut waiting: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
        let mut next = 0;
        for (j, result) in results {
            waiting[j] = Some(result);
            while let Some(result) = waiting.get_mut(next).and_then(Option::take) {
                take(result);
                next += 1;
            }
        }
        assert_eq!(next, jobs, "every job ran");
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_family_is_nontrivial_and_valid() {
        let tests = generate(&GenConfig::small());
        assert!(tests.len() > 50, "got {}", tests.len());
        for t in &tests {
            assert!(t.num_threads() >= 2, "{}", t.name());
            assert!(!t.observed().is_empty(), "{}", t.name());
        }
        // Names are unique.
        let mut names: Vec<&str> = tests.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), tests.len(), "duplicate test names");
    }

    #[test]
    fn every_generated_test_is_sc_forbidden() {
        // The defining property of diy cycles: each test's final condition
        // characterises a non-SC execution, so SC must forbid it on every
        // test of the family (and the synthesis must have pinned the
        // coherence order tightly enough to enforce that).
        use weakgpu_axiom::enumerate::model_outcomes;
        use weakgpu_models::sc_model;
        let sc = sc_model();
        for t in generate(&GenConfig::small()) {
            let v = model_outcomes(&t, &sc, &Default::default())
                .unwrap_or_else(|e| panic!("{}: {e}", t.name()));
            assert!(
                !v.condition_witnessed,
                "{}: SC satisfies the cycle condition",
                t.name()
            );
        }
    }

    #[test]
    fn paper_scale_family_reaches_thousands() {
        let cfg = GenConfig::paper();
        let cycles = enumerate_cycles(&cfg.alphabet, cfg.max_edges);
        // The synthesis expands each cycle across placements/regions.
        let per_cycle = 2; // at least intra/inter placements
        assert!(
            cycles.len() * per_cycle > 2_000,
            "only {} cycles",
            cycles.len()
        );
    }
}
