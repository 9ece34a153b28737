//! The verdict cache's key is a differential twin of `shape_key`: two
//! judgements share a [`Fingerprint`] exactly when their tests share a
//! `shape_key` (under one model and one set of bounds). A split would
//! run a warm cache cold; a collision would hand one shape another's
//! verdict. Checked over every shipped test source, the printer→parser
//! round trips that `serve` and the CI warm shards look up, and renamed
//! and re-documented copies. Three pinned fingerprints catch drift of the
//! hash across hosts and toolchains, which would silently run every
//! persisted cache cold.

use std::collections::HashMap;

use weakgpu_axiom::cache::{shape_key, Fingerprint};
use weakgpu_axiom::enumerate::EnumConfig;
use weakgpu_axiom::model::sc_model;
use weakgpu_axiom::{CatModel, Model};
use weakgpu_diy::{generate, GenConfig};
use weakgpu_litmus::{corpus, corpus_extra, parser, LitmusTest, ThreadScope};

/// Both directions of the twin property, accumulated over every test
/// added.
#[derive(Default)]
struct Twins {
    by_key: HashMap<String, Fingerprint>,
    by_fp: HashMap<Fingerprint, String>,
}

impl Twins {
    fn add(&mut self, test: &LitmusTest, model: &dyn Model, cfg: &EnumConfig) -> Fingerprint {
        let key = shape_key(test);
        let fp = Fingerprint::of(test, model, cfg);
        if let Some(seen) = self.by_key.get(&key) {
            assert_eq!(
                *seen,
                fp,
                "{}: one shape_key, two fingerprints",
                test.name()
            );
        }
        if let Some(seen) = self.by_fp.get(&fp) {
            assert_eq!(
                *seen,
                key,
                "{}: one fingerprint, two shape_keys",
                test.name()
            );
        }
        self.by_key.insert(key.clone(), fp);
        self.by_fp.insert(fp, key);
        fp
    }
}

#[test]
fn fingerprints_are_equal_exactly_when_shape_keys_are() {
    let model = sc_model();
    let cfg = EnumConfig::default();
    let small = generate(&GenConfig::small());
    let paper = generate(&GenConfig::paper());
    let mut twins = Twins::default();

    let shipped: Vec<LitmusTest> = corpus::all()
        .into_iter()
        .chain(corpus_extra::all_extra())
        .collect();
    for test in &shipped {
        let fp = twins.add(test, &model, &cfg);
        let renamed = test
            .clone()
            .with_name(format!("{}-renamed", test.name()))
            .with_doc("a different doc string");
        assert_eq!(twins.add(&renamed, &model, &cfg), fp, "{}", test.name());
    }
    for test in small.iter().chain(&paper) {
        let fp = twins.add(test, &model, &cfg);
        // What a warm lookup sees: the test as printed and parsed back.
        let back = parser::parse(&test.to_string()).unwrap();
        assert_eq!(shape_key(&back), shape_key(test), "{}", test.name());
        assert_eq!(twins.add(&back, &model, &cfg), fp, "{}", test.name());
    }

    // No two paper-family tests share a shape, so each is its own
    // fingerprint.
    assert_eq!(twins.by_key.len(), twins.by_fp.len());
    assert!(twins.by_key.len() >= paper.len());
}

#[test]
fn model_name_and_every_bound_are_part_of_the_fingerprint() {
    let test = corpus::mp(ThreadScope::InterCta, None);
    let cfg = EnumConfig::default();
    // Two models with the same (empty) semantics, told apart by name.
    let a = CatModel::new("a", "").unwrap();
    let b = CatModel::new("b", "").unwrap();
    let base = Fingerprint::of(&test, &a, &cfg);
    assert_ne!(Fingerprint::of(&test, &b, &cfg), base);

    let bump = |f: fn(&mut EnumConfig) -> &mut usize| {
        let mut changed = cfg;
        *f(&mut changed) += 1;
        Fingerprint::of(&test, &a, &changed)
    };
    let bumped = [
        bump(|c| &mut c.max_backward_jumps_per_thread),
        bump(|c| &mut c.domain_iters),
        bump(|c| &mut c.max_traces_per_thread),
        bump(|c| &mut c.max_executions),
    ];
    for (i, fp) in bumped.iter().enumerate() {
        assert_ne!(*fp, base, "bound {i}");
        assert!(!bumped[..i].contains(fp), "bound {i}");
    }
}

#[test]
fn fingerprints_are_pinned() {
    // The PTX model at the default bounds, as every sweep and serve
    // session keys its verdicts. A change here invalidates every
    // persisted cache: if it is intended, bump `persist::SCHEMA` too.
    let ptx = weakgpu_models::ptx_model();
    let cfg = EnumConfig::default();
    let pinned = [
        (
            corpus::mp(ThreadScope::InterCta, None),
            "0992d696e5ea8e5d44ce215ed08d28c1",
        ),
        (
            corpus::sb(ThreadScope::IntraCta, None),
            "c4fd1ac1a7759c1e26b15d00d77dc792",
        ),
        (corpus::corr(), "c53c17f34ebaa8d609202e6ed4a945d6"),
    ];
    let got: Vec<(String, String)> = pinned
        .iter()
        .map(|(t, _)| {
            (
                t.name().to_owned(),
                Fingerprint::of(t, &*ptx, &cfg).to_string(),
            )
        })
        .collect();
    let want: Vec<(String, String)> = pinned
        .iter()
        .map(|(t, hex)| (t.name().to_owned(), (*hex).to_owned()))
        .collect();
    assert_eq!(got, want);
}
