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
//! validated on the walk's edge stack and deduplicated on their least
//! rotation, a cycle's name is built once when it is kept, each cycle is
//! analysed once for all its placements, and synthesised tests share
//! one set of pre-made register and location names.
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

use weakgpu_litmus::LitmusTest;

/// Generates the full test family for a configuration: every cycle over
/// the alphabet, synthesised at every requested placement and region.
///
/// The returned family is in **canonical order** — sorted by test name,
/// which is unique within a family (cycle names are canonical up to
/// rotation and each placement/region appends a distinct suffix). The
/// order is therefore a pure function of the configuration: bit-identical
/// across calls, processes, and machines. Sharded sweeps rely on this to
/// partition the family deterministically by index.
pub fn generate(cfg: &GenConfig) -> Vec<LitmusTest> {
    let cycles = enumerate_cycles(&cfg.alphabet, cfg.max_edges);
    let mut tests = Vec::new();
    for cycle in &cycles {
        tests.extend(synth::expand(cycle, cfg));
    }
    tests.sort_unstable_by(|a, b| a.name().cmp(b.name()));
    tests
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
