//! Generation determinism at paper scale: sharded validation sweeps
//! partition the family by canonical index, so `generate` must be a pure
//! function of the configuration — same tests, same order, no duplicates,
//! on every call and every machine.

use std::sync::OnceLock;

use weakgpu_diy::{generate, generate_parallel, GenConfig};
use weakgpu_litmus::LitmusTest;

/// The paper family, generated once per test binary (each generation is
/// cheap in release but adds up under the dev profile).
fn paper_family() -> &'static [LitmusTest] {
    static FAMILY: OnceLock<Vec<LitmusTest>> = OnceLock::new();
    FAMILY.get_or_init(|| generate(&GenConfig::paper()))
}

#[test]
fn paper_family_has_no_duplicate_canonical_tests() {
    let tests = paper_family();
    assert!(
        tests.len() > 10_000,
        "paper family too small: {}",
        tests.len()
    );
    let mut names: Vec<&str> = tests.iter().map(|t| t.name()).collect();
    let before = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), before, "duplicate canonical test names");
    // Duplicate *shapes* under different names would also defeat the
    // canonical ordering; the printed form (threads, scope tree, memory,
    // condition) must be unique too once the name line is dropped.
    let mut shapes: Vec<String> = tests
        .iter()
        .map(|t| {
            let s = t.to_string();
            s.splitn(3, '\n').nth(2).unwrap_or(&s).to_owned()
        })
        .collect();
    let before = shapes.len();
    shapes.sort_unstable();
    shapes.dedup();
    assert_eq!(shapes.len(), before, "structurally duplicate tests");
}

#[test]
fn paper_family_is_bit_identical_across_calls() {
    let a = paper_family();
    let b = generate(&GenConfig::paper());
    assert_eq!(a.len(), b.len());
    // LitmusTest is structural PartialEq: this compares every thread,
    // instruction, scope tree, memory cell, and condition.
    assert!(a == &b[..], "generate(paper) is not deterministic");
}

#[test]
fn families_are_canonically_ordered() {
    let small = generate(&GenConfig::small());
    assert!(
        small.windows(2).all(|w| w[0].name() < w[1].name()),
        "small family is not in strict canonical (name-sorted) order"
    );
    let paper = paper_family();
    assert!(
        paper.windows(2).all(|w| w[0].name() < w[1].name()),
        "paper family is not in strict canonical (name-sorted) order"
    );
}

#[test]
fn family_lookup_by_name() {
    assert!(GenConfig::named("small").is_some());
    assert!(GenConfig::named("paper").is_some());
    assert!(GenConfig::named("huge").is_none());
    assert!(GenConfig::named("").is_none());
    for name in GenConfig::FAMILY_NAMES {
        assert!(GenConfig::named(name).is_some(), "unknown family {name}");
    }
    // The paper family is strictly larger than the small one.
    let small = generate(&GenConfig::named("small").unwrap());
    assert!(paper_family().len() > small.len());
}

/// FNV-1a (64-bit) over every test's printed form, in canonical order.
fn family_digest(tests: &[LitmusTest]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tests {
        for b in t.to_string().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Pins both named families to their printed form: a change that
/// renames, reorders or rewrites any generated test shifts every
/// per-test seed and shard, so it must show up here (and, if intended,
/// update these constants).
#[test]
fn generated_families_match_their_recorded_digests() {
    let small = generate(&GenConfig::small());
    assert_eq!(
        (small.len(), family_digest(&small)),
        (SMALL_COUNT, SMALL_DIGEST),
        "small family changed"
    );
    let paper = paper_family();
    assert_eq!(
        (paper.len(), family_digest(paper)),
        (PAPER_COUNT, PAPER_DIGEST),
        "paper family changed"
    );
}

/// Parallel generation splits the cycle walks and their synthesis over
/// workers; the family must not depend on how many.
#[test]
fn parallel_generation_matches_the_recorded_digests() {
    for workers in [1, 2, 3] {
        let small = generate_parallel(&GenConfig::small(), workers);
        assert_eq!(
            (small.len(), family_digest(&small)),
            (SMALL_COUNT, SMALL_DIGEST),
            "small family changed at {workers} workers"
        );
        let paper = generate_parallel(&GenConfig::paper(), workers);
        assert_eq!(
            (paper.len(), family_digest(&paper)),
            (PAPER_COUNT, PAPER_DIGEST),
            "paper family changed at {workers} workers"
        );
    }
}

const SMALL_COUNT: usize = 112;
const SMALL_DIGEST: u64 = 16_097_358_439_293_305_742;
const PAPER_COUNT: usize = 16_632;
const PAPER_DIGEST: u64 = 2_313_359_946_700_436_094;
