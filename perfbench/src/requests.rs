//! Seeded `serve-mixed` request stream.
//!
//! The stream replays the verdict-cache traffic of the repository's CI
//! validation shards: `weakgpu sweep --family paper` on the five tabled
//! Nvidia chips, warm-started from a cache file of the small family. The
//! sweep looks up one verdict per (test, chip) cell, and the cells of a
//! test are consecutive, so every test drawn here sends
//! [`LOOKUPS_PER_TEST`] requests in a row:
//!
//! * a test whose shape the small family also has is answered from the
//!   cache file every time (*warm* hits);
//! * any other test misses once (a *first sighting*: judge and publish)
//!   and then hits the entry it published (*repeats*).
//!
//! The class mix therefore follows from the two families. With `w` the
//! share of paper tests whose shape is in the small family, `w` of the
//! requests are warm hits, `(1 - w) / 5` first sightings and
//! `4 (1 - w) / 5` repeats. The warm test count is the exact rounded
//! quota, so every seed's stream has the same mix; the seed picks the
//! tests and their order. The stream is a pure function of the seed and
//! the two families. Every request carries inline litmus source rendered
//! by the litmus printer, so the daemon's parser runs on every request.

use std::collections::HashSet;

use weakgpu_axiom::cache::shape_key;
use weakgpu_harness::json;
use weakgpu_litmus::LitmusTest;

/// Verdict lookups per test: one per chip of the sweep's default chip
/// set, the five tabled Nvidia chips.
pub const LOOKUPS_PER_TEST: usize = 5;

/// Which cache path a request should take in the daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Never seen before: a miss, a judgement and a publish.
    First,
    /// A later lookup of a first sighting: a hit on a fresh entry.
    Repeat,
    /// A small-family shape: a hit on an entry loaded from disk.
    Warm,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::First, Class::Repeat, Class::Warm];

    pub fn name(self) -> &'static str {
        match self {
            Class::First => "first",
            Class::Repeat => "repeat",
            Class::Warm => "warm",
        }
    }

    /// The `cached` flag the daemon must answer with.
    pub fn cached(self) -> bool {
        self != Class::First
    }
}

/// One verdict request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub class: Class,
    /// Index into [`Stream::tests`].
    pub slot: usize,
    /// The JSON request line, without the newline.
    pub line: String,
}

/// A request stream plus the distinct tests it references.
#[derive(Clone, Debug, PartialEq)]
pub struct Stream {
    pub tests: Vec<LitmusTest>,
    pub requests: Vec<Request>,
}

impl Stream {
    /// The shutdown request that ends every session.
    pub fn shutdown_line(&self) -> String {
        format!("{{\"id\": {}, \"op\": \"shutdown\"}}", self.requests.len())
    }

    /// Every byte a session sends, shutdown included.
    pub fn bytes(&self) -> String {
        let mut out = String::new();
        for r in &self.requests {
            out.push_str(&r.line);
            out.push('\n');
        }
        out.push_str(&self.shutdown_line());
        out.push('\n');
        out
    }

    pub fn count(&self, class: Class) -> usize {
        self.requests.iter().filter(|r| r.class == class).count()
    }
}

/// SplitMix64: a tiny, fully specified generator, so the stream does not
/// depend on any library's RNG.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Builds `count` verdict requests from the tests of `paper`, warm where
/// `small` has their shape. The stream opens with a warm test, so set-up
/// (spawn to first response) covers the cache-file and model loads and
/// nothing else; the other tests follow in a seeded order.
///
/// # Panics
///
/// If `count` is 0, no paper test has a small-family shape, or either
/// kind of test runs out before the stream is complete.
pub fn generate(seed: u64, paper: &[LitmusTest], small: &[LitmusTest], count: usize) -> Stream {
    let small_keys: HashSet<String> = small.iter().map(shape_key).collect();
    let (mut warm, mut fresh): (Vec<&LitmusTest>, Vec<&LitmusTest>) = paper
        .iter()
        .partition(|t| small_keys.contains(&shape_key(t)));
    assert!(
        count > 0 && !warm.is_empty(),
        "need requests and warm shapes"
    );
    let num_tests = count.div_ceil(LOOKUPS_PER_TEST);
    // The warm share of the paper family, rounded to whole tests; at
    // least the opening one.
    let num_warm = ((num_tests * warm.len() + paper.len() / 2) / paper.len()).max(1);
    assert!(
        num_warm <= warm.len() && num_tests - num_warm <= fresh.len(),
        "family too small for {count} requests"
    );
    let mut rng = SplitMix64::new(seed);
    // Draw without replacement.
    let mut drawn: Vec<(bool, &LitmusTest)> = Vec::with_capacity(num_tests);
    for _ in 0..num_warm {
        drawn.push((true, warm.swap_remove(rng.below(warm.len()))));
    }
    for _ in num_warm..num_tests {
        drawn.push((false, fresh.swap_remove(rng.below(fresh.len()))));
    }
    // Fisher–Yates over all but the opening warm test.
    for i in (2..drawn.len()).rev() {
        drawn.swap(i, 1 + rng.below(i));
    }
    let mut tests = Vec::with_capacity(num_tests);
    let mut requests = Vec::with_capacity(count);
    for (slot, (is_warm, test)) in drawn.into_iter().enumerate() {
        let source = json::escape(&test.to_string());
        for lookup in 0..LOOKUPS_PER_TEST.min(count - requests.len()) {
            let class = match (is_warm, lookup) {
                (true, _) => Class::Warm,
                (false, 0) => Class::First,
                (false, _) => Class::Repeat,
            };
            let id = requests.len();
            requests.push(Request {
                class,
                slot,
                line: format!("{{\"id\": {id}, \"litmus\": {source}}}"),
            });
        }
        tests.push(test.clone());
    }
    Stream { tests, requests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakgpu_diy::{generate as diy_generate, GenConfig};

    /// The small family stands in for the paper family, and its first
    /// quarter for the family the warm cache holds.
    fn families() -> (Vec<LitmusTest>, Vec<LitmusTest>) {
        let all = diy_generate(&GenConfig::small());
        let warm = all[..all.len() / 4].to_vec();
        (all, warm)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let (paper, small) = families();
        let a = generate(11, &paper, &small, 60);
        let b = generate(11, &paper, &small, 60);
        let c = generate(12, &paper, &small, 60);
        assert_eq!(a.bytes(), b.bytes());
        assert_eq!(a, b);
        assert_ne!(a.bytes(), c.bytes());
    }

    #[test]
    fn stream_replays_the_sweep_lookups_of_each_test() {
        let (paper, small) = families();
        let small_keys: HashSet<String> = small.iter().map(shape_key).collect();
        let s = generate(3, &paper, &small, 80);
        assert_eq!(s.requests.len(), 80);
        assert_eq!(s.tests.len(), 80 / LOOKUPS_PER_TEST);
        assert_eq!(s.requests[0].class, Class::Warm);
        // The exact quota: a quarter of the tests are warm.
        let warm_tests = s
            .tests
            .iter()
            .filter(|t| small_keys.contains(&shape_key(t)));
        assert_eq!(warm_tests.count(), 4);
        assert_eq!(s.count(Class::Warm), 4 * LOOKUPS_PER_TEST);
        assert_eq!(s.count(Class::First), 12);
        assert_eq!(s.count(Class::Repeat), 12 * (LOOKUPS_PER_TEST - 1));
        for (slot, lookups) in s.requests.chunks(LOOKUPS_PER_TEST).enumerate() {
            let key = shape_key(&s.tests[slot]);
            let classes: Vec<Class> = lookups.iter().map(|r| r.class).collect();
            if small_keys.contains(&key) {
                assert_eq!(classes, [Class::Warm; LOOKUPS_PER_TEST]);
            } else {
                assert_eq!(classes[0], Class::First);
                assert!(classes[1..].iter().all(|c| *c == Class::Repeat));
            }
            for r in lookups {
                assert_eq!(r.slot, slot);
                // Every line is one JSON object whose source parses back
                // to the test's shape.
                let v = json::parse(&r.line).unwrap();
                let src = v.get("litmus").and_then(json::Json::as_str).unwrap();
                let parsed = weakgpu_litmus::parser::parse(src).unwrap();
                assert_eq!(shape_key(&parsed), key);
            }
        }
        let distinct: HashSet<String> = s.tests.iter().map(shape_key).collect();
        assert_eq!(distinct.len(), s.tests.len(), "a test drawn twice");
        assert!(s.bytes().ends_with("\"op\": \"shutdown\"}\n"));
    }

    #[test]
    fn a_partial_last_test_keeps_the_count() {
        let (paper, small) = families();
        let s = generate(5, &paper, &small, 12);
        assert_eq!(s.requests.len(), 12);
        assert_eq!(s.tests.len(), 3);
    }

    #[test]
    fn splitmix_is_pinned() {
        // Reference values of SplitMix64 seeded with 0.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }
}
