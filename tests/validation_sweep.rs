//! A reduced version of the paper's Sec. 5.4 validation (the `--full`
//! variant lives in the `tab_validation` bench binary, CI runs the paper
//! family through the sharded `weakgpu sweep` matrix): a diy-generated
//! family, run on weak and strong chip profiles through the sweep
//! subsystem, with every observation checked against the paper's PTX
//! model.

use weakgpu::diy::{generate, GenConfig};
use weakgpu::harness::sweep::{run_sweep, Shard, SweepConfig, SweepReport};
use weakgpu::sim::chip::Chip;

#[test]
fn generated_family_observations_are_model_sound() {
    let tests = generate(&GenConfig::small());
    assert!(tests.len() > 80);
    // Several profiles (weak Kepler/Fermi, AMD, and the strong GTX 280)
    // in one sweep; per-cell soundness is checked inside run_sweep.
    let cfg = SweepConfig {
        family: "small".to_owned(),
        shard: None,
        chips: vec![
            Chip::GtxTitan,
            Chip::TeslaC2075,
            Chip::RadeonHd7970,
            Chip::Gtx280,
        ],
        iterations: 1_000,
        seed: 0x7a11,
        parallelism: None,
        cache_file: None,
        cache_readonly: false,
    };
    let report = run_sweep(&tests, &cfg).unwrap();
    assert!(
        report.is_sound(),
        "model forbids observed outcomes: {:?}",
        report.unsound
    );
    assert_eq!(report.tests_run as usize, tests.len());
    assert_eq!(report.total_runs(), (tests.len() * 4 * 1_000) as u64);
    // The family must actually exercise weak behaviour, not just pass
    // vacuously.
    assert!(
        report.weak_tests > 5,
        "only {} tests showed their weak outcome",
        report.weak_tests
    );
    // The verdict cache collapsed the four chip columns into exactly
    // one judgement per test shape.
    assert_eq!(report.cache.entries as usize, tests.len());
    assert_eq!(report.cache.misses as usize, tests.len());
    assert_eq!(
        (report.cache.hits + report.cache.misses) as usize,
        tests.len() * 4
    );
}

#[test]
fn strong_chip_never_witnesses_any_generated_cycle() {
    let tests = generate(&GenConfig::small());
    let cfg = SweepConfig {
        family: "small".to_owned(),
        shard: None,
        chips: vec![Chip::Gtx280],
        iterations: 800,
        seed: 0x57,
        parallelism: None,
        cache_file: None,
        cache_readonly: false,
    };
    let report = run_sweep(&tests, &cfg).unwrap();
    assert_eq!(
        report.total_witnesses(),
        0,
        "GTX 280 must behave sequentially on the whole family"
    );
    assert_eq!(report.weak_tests, 0);
}

#[test]
fn sharded_validation_recombines_exactly() {
    // The CI matrix in miniature: four shards at bounded iterations,
    // merged, must equal the unsharded sweep at the same seed.
    let tests = generate(&GenConfig::small());
    let cfg = |shard| SweepConfig {
        family: "small".to_owned(),
        shard,
        chips: vec![Chip::GtxTitan, Chip::Gtx660],
        iterations: 250,
        seed: 0xc1,
        parallelism: None,
        cache_file: None,
        cache_readonly: false,
    };
    let whole = run_sweep(&tests, &cfg(None)).unwrap();
    let shards: Vec<SweepReport> = (1..=4)
        .map(|index| run_sweep(&tests, &cfg(Some(Shard { index, count: 4 }))).unwrap())
        .collect();
    let merged = SweepReport::merge(&shards).unwrap();
    assert!(merged.totals_match(&whole));
    // Round-tripping every shard through its JSON form (as the CI
    // artifact path does) must not change the merge.
    let reparsed: Vec<SweepReport> = shards
        .iter()
        .map(|s| SweepReport::from_json(&s.to_json()).unwrap())
        .collect();
    let merged2 = SweepReport::merge(&reparsed).unwrap();
    assert_eq!(merged, merged2);
}

#[test]
fn small_family_shapes_are_contained_in_the_paper_family() {
    // The CI warm-start contract: the `cache-warm` job judges the small
    // family once and ships the cache to the paper-family shards. That
    // only produces warm hits if every small-family shape key (the
    // name-independent canonical form the verdict cache keys on) also
    // appears in the paper family — asserted here so a generator change
    // that breaks the containment fails in `cargo test`, not as a
    // silent cold CI run.
    use std::collections::HashSet;
    use weakgpu::axiom::cache::shape_key;

    let paper: HashSet<String> = generate(&GenConfig::paper())
        .iter()
        .map(shape_key)
        .collect();
    let missing: Vec<String> = generate(&GenConfig::small())
        .iter()
        .filter(|t| !paper.contains(&shape_key(t)))
        .map(|t| t.name().to_owned())
        .collect();
    assert!(
        missing.is_empty(),
        "small-family tests absent from the paper family: {missing:?}"
    );
}
