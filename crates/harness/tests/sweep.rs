//! Integration tests for the sharded validation sweep: partition
//! correctness over the real generated families, shard/merge identity
//! with an unsharded run, the model-verdict cache's bookkeeping, cell
//! records against each cell's histogram, and verdicts that have lost an
//! observed outcome.

use std::collections::HashSet;
use std::sync::Mutex;

use weakgpu_axiom::cache::{Fingerprint, VerdictCache};
use weakgpu_axiom::enumerate::{model_outcomes, EnumConfig, EnumError};
use weakgpu_axiom::persist;
use weakgpu_axiom::symbolic::SymError;
use weakgpu_diy::{generate, GenConfig};
use weakgpu_harness::campaign::{default_incantations, run_campaign, CampaignConfig, CellSpec};
use weakgpu_harness::runner::HarnessError;
use weakgpu_harness::sweep::{
    run_sweep, run_sweep_with, CellRecord, Shard, SweepConfig, SweepError, SweepReport,
};
use weakgpu_litmus::build::{bra, imm, label, ld, reg, setp_eq, st};
use weakgpu_litmus::{corpus, FenceScope, LitmusTest, Predicate, ThreadScope};
use weakgpu_models::ptx_model;
use weakgpu_sim::chip::Chip;
use weakgpu_sim::program::CompileError;

fn small_cfg(shard: Option<Shard>) -> SweepConfig {
    SweepConfig {
        family: "small".to_owned(),
        shard,
        chips: vec![Chip::GtxTitan, Chip::Gtx280],
        iterations: 300,
        seed: 0xabcd,
        parallelism: None,
        cache_file: None,
        cache_readonly: false,
    }
}

/// A record sink that keeps a copy of every record.
fn collect<'r, 'a: 'r>(
    records: &'r Mutex<Vec<CellRecord<'a>>>,
) -> impl Fn(&CellRecord<'a>) + Sync + 'r {
    move |rec| records.lock().unwrap().push(rec.clone())
}

#[test]
fn shard_partitions_cover_the_paper_family_exactly() {
    // Satellite requirement: for N in {1, 2, 4, 7} the shards are
    // disjoint and cover the family exactly. Checked on the real paper
    // family via the same selection the sweep uses.
    let family = generate(&GenConfig::paper());
    for count in [1usize, 2, 4, 7] {
        let mut owner = vec![0usize; family.len()];
        let mut sizes = Vec::new();
        for index in 1..=count {
            let shard = Shard { index, count };
            let mine: Vec<usize> = (0..family.len()).filter(|&i| shard.selects(i)).collect();
            for &i in &mine {
                owner[i] += 1;
            }
            sizes.push(mine.len());
        }
        assert!(
            owner.iter().all(|&n| n == 1),
            "{count} shards: some test owned {:?} times",
            owner.iter().filter(|&&n| n != 1).collect::<Vec<_>>()
        );
        assert_eq!(sizes.iter().sum::<usize>(), family.len());
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "{count} shards unbalanced: {sizes:?}");
    }
}

#[test]
fn merged_shards_match_unsharded_run() {
    // The acceptance criterion at small scale: run the family in 4
    // shards and unsharded at the same seed; the merged report's totals
    // must be identical.
    let family = generate(&GenConfig::small());
    let whole = run_sweep(&family, &small_cfg(None)).unwrap();
    let shards: Vec<SweepReport> = (1..=4)
        .map(|index| run_sweep(&family, &small_cfg(Some(Shard { index, count: 4 }))).unwrap())
        .collect();
    // Shards are proper subsets.
    for s in &shards {
        assert!(s.tests_run < whole.tests_run);
        assert!(s.total_runs() < whole.total_runs());
    }
    let merged = SweepReport::merge(&shards).unwrap();
    assert!(
        merged.totals_match(&whole),
        "merged != unsharded:\n{}\nvs\n{}",
        merged.to_json(),
        whole.to_json()
    );
    // And the JSON forms agree on everything but the cache statistics.
    let mut whole_adjusted = whole.clone();
    whole_adjusted.cache = merged.cache;
    assert_eq!(merged.to_json(), whole_adjusted.to_json());
}

#[test]
fn reports_whose_totals_disagree_with_their_columns_do_not_parse_or_merge() {
    // A report's five totals are printed but derived from its per-chip
    // columns, and `unsound_cells` also counts the unsound cells listed.
    // A shard whose printed totals were edited by hand is rejected when
    // read back, so it cannot merge.
    let family: Vec<_> = generate(&GenConfig::small()).into_iter().take(10).collect();
    let shard = |index| {
        let cfg = SweepConfig {
            chips: vec![Chip::GtxTitan],
            iterations: 20,
            ..small_cfg(Some(Shard { index, count: 2 }))
        };
        run_sweep(&family, &cfg).unwrap().to_json()
    };
    let (one, two) = (shard(1), shard(2));
    let parse = |text: &str| SweepReport::from_json(text);
    let merged = SweepReport::merge(&[parse(&one).unwrap(), parse(&two).unwrap()]).unwrap();
    assert_eq!(merged.total_runs(), 200);
    let doctored = |from: &str, to: &str| {
        assert!(two.contains(from), "{from}");
        let err = parse(&two.replace(from, to)).unwrap_err();
        assert!(matches!(err, SweepError::Json(_)), "{err}");
        err.to_string()
    };
    let report = parse(&two).unwrap();
    for (key, n) in [
        ("cells", report.cells()),
        ("witnessed_cells", report.witnessed_cells()),
        ("total_runs", report.total_runs()),
        ("total_witnesses", report.total_witnesses()),
        ("unsound_cells", report.unsound_cells()),
    ] {
        let err = doctored(
            &format!("\"{key}\": {n},\n"),
            &format!("\"{key}\": {},\n", n + 1),
        );
        assert!(err.contains(&format!("{key} is {}, but", n + 1)), "{err}");
    }
    // Columns that agree with the total, but not with the cell list.
    let err = doctored("\"unsound_cells\": 0", "\"unsound_cells\": 1");
    assert!(
        err.contains("unsound_cells is 1, but the report's cells give 0"),
        "{err}"
    );
}

#[test]
fn sweep_reports_are_model_sound_and_witness_weak_behaviour() {
    let family = generate(&GenConfig::small());
    let cfg = SweepConfig {
        family: "small".to_owned(),
        shard: None,
        chips: vec![Chip::GtxTitan],
        iterations: 1_000,
        seed: 0x7a11,
        parallelism: None,
        cache_file: None,
        cache_readonly: false,
    };
    let records = Mutex::new(Vec::new());
    let report = run_sweep_with(&family, &cfg, collect(&records))
        .unwrap()
        .report;
    // Sec. 5.4's claim at test scale: every observation is PTX-allowed.
    assert!(report.is_sound(), "unsound cells: {:?}", report.unsound);
    // The family actually exercises weak behaviour on Kepler.
    assert!(
        report.weak_tests > 5,
        "only {} tests witnessed weakly",
        report.weak_tests
    );
    // Streaming callback saw every cell exactly once.
    let records = records.into_inner().unwrap();
    assert_eq!(records.len() as u64, report.cells());
    assert_eq!(report.cells(), report.tests_run);
    // Single-chip sweep: every shape is looked up exactly once, so
    // nothing hits.
    assert_eq!(report.cache.misses, report.tests_run);
    assert_eq!(report.cache.hits, 0);
    assert_eq!(report.cache.entries, report.tests_run);
    // Totals agree between the streamed records and the aggregate.
    let runs: u64 = records.iter().map(|r| r.runs).sum();
    assert_eq!(runs, report.total_runs());
    let witnesses: u64 = records.iter().map(|r| r.witnesses).sum();
    assert_eq!(witnesses, report.total_witnesses());
}

#[test]
fn verdict_cache_collapses_chip_columns() {
    // With C chips, each test shape is judged exactly once and the
    // remaining cells hit the cache.
    let family: Vec<_> = generate(&GenConfig::small()).into_iter().take(24).collect();
    let cfg = SweepConfig {
        family: "small-prefix".to_owned(),
        shard: None,
        chips: Chip::NVIDIA_TABLED.to_vec(),
        iterations: 50,
        seed: 1,
        parallelism: None,
        cache_file: None,
        cache_readonly: false,
    };
    let report = run_sweep(&family, &cfg).unwrap();
    let chips = Chip::NVIDIA_TABLED.len() as u64;
    assert_eq!(report.cache.entries, 24);
    assert_eq!(report.cache.misses, 24, "{:?}", report.cache);
    assert_eq!(report.cache.hits, 24 * (chips - 1), "{:?}", report.cache);
}

#[test]
fn cache_counters_are_exact_at_every_parallelism() {
    // Renamed copies share their originals' shapes, so some shapes are
    // looked up by several tests. The judge pass judges each shape once
    // and counts each shape once for all its tests' cells, so the
    // counters, and every cell record, are the same at any worker count.
    let small = generate(&GenConfig::small());
    let mut family: Vec<LitmusTest> = small.iter().take(20).cloned().collect();
    family.extend(
        small
            .iter()
            .take(20)
            .step_by(2)
            .map(|t| t.clone().with_name(format!("{}-copy", t.name()))),
    );
    family.sort_by(|a, b| a.name().cmp(b.name()));
    let model = ptx_model();
    let distinct: HashSet<Fingerprint> = family
        .iter()
        .map(|t| Fingerprint::of(t, &model, &EnumConfig::default()))
        .collect();
    assert!(distinct.len() < family.len());
    let run = |par: usize| {
        let cfg = SweepConfig {
            family: "small-copies".to_owned(),
            shard: None,
            chips: Chip::NVIDIA_TABLED.to_vec(),
            iterations: 20,
            seed: 3,
            parallelism: Some(par),
            cache_file: None,
            cache_readonly: false,
        };
        let records = Mutex::new(Vec::new());
        let report = run_sweep_with(&family, &cfg, collect(&records))
            .unwrap()
            .report;
        let cache = report.cache;
        assert_eq!(cache.misses, distinct.len() as u64, "parallelism {par}");
        assert_eq!(cache.entries, cache.misses, "parallelism {par}");
        assert_eq!(
            cache.hits + cache.misses,
            report.cells(),
            "parallelism {par}"
        );
        let mut recs = records.into_inner().unwrap();
        recs.sort_by_key(|r| (r.index, r.chip));
        recs
    };
    let serial = run(1);
    assert_eq!(serial.len(), family.len() * Chip::NVIDIA_TABLED.len());
    for par in [2, 4] {
        assert_eq!(run(par), serial, "parallelism {par}");
    }
}

#[test]
fn strong_chip_never_witnesses_any_generated_cycle() {
    // GTX 280 is the paper's one fully strong chip: zero witnesses over
    // the whole generated family.
    let family = generate(&GenConfig::small());
    let cfg = SweepConfig {
        family: "small".to_owned(),
        shard: None,
        chips: vec![Chip::Gtx280],
        iterations: 400,
        seed: 0x57,
        parallelism: None,
        cache_file: None,
        cache_readonly: false,
    };
    let report = run_sweep(&family, &cfg).unwrap();
    assert_eq!(
        report.total_witnesses(),
        0,
        "GTX 280 must behave sequentially"
    );
    assert_eq!(report.weak_tests, 0);
    assert!(report.is_sound());
}

#[test]
fn unsorted_family_is_rejected() {
    let mut family = generate(&GenConfig::small());
    family.swap(0, 1);
    let err = run_sweep(&family, &small_cfg(None)).unwrap_err();
    assert!(err.to_string().contains("canonical order"), "{err}");
}

#[test]
fn sharded_cells_equal_their_unsharded_counterparts() {
    // Stronger than totals: each shard's per-cell records must be
    // bit-identical to the corresponding cells of the unsharded run
    // (same per-test seeds, thus same histograms).
    let family: Vec<_> = generate(&GenConfig::small()).into_iter().take(30).collect();
    let collect = |shard| {
        let records = Mutex::new(Vec::new());
        run_sweep_with(&family, &small_cfg(shard), collect(&records)).unwrap();
        let mut recs = records.into_inner().unwrap();
        recs.sort_by_key(|a| (a.index, a.chip));
        recs
    };
    let whole = collect(None);
    let mut sharded = Vec::new();
    for index in 1..=3 {
        sharded.extend(collect(Some(Shard { index, count: 3 })));
    }
    sharded.sort_by_key(|a| (a.index, a.chip));
    assert_eq!(whole, sharded);
}

#[test]
fn warm_cache_run_is_bit_identical_to_cold() {
    // The persistent-cache acceptance criterion at small scale: a cold
    // run persists its verdict cache; a warm run restored from that
    // file must re-derive nothing (0 misses, every hit warm) and report
    // bit-identically in every semantic field.
    let family: Vec<_> = generate(&GenConfig::small()).into_iter().take(40).collect();
    let dir = std::env::temp_dir().join(format!("weakgpu-sweep-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("verdicts.wgc");

    let cold_cfg = SweepConfig {
        cache_file: Some(path.clone()),
        ..small_cfg(None)
    };
    let cold = run_sweep(&family, &cold_cfg).unwrap();
    assert_eq!(cold.cache.warm_entries, 0, "nothing preloaded on disk yet");
    assert_eq!(cold.cache.misses as usize, family.len());

    let warm_cfg = SweepConfig {
        cache_file: Some(path.clone()),
        cache_readonly: true,
        ..small_cfg(None)
    };
    let warm = run_sweep(&family, &warm_cfg).unwrap();
    assert_eq!(warm.cache.misses, 0, "warm run must not re-enumerate");
    assert_eq!(warm.cache.warm_entries as usize, family.len());
    assert_eq!(warm.cache.warm_hits, warm.cache.hits);
    assert!(warm.cache.warm_hits > 0);
    assert!(warm.totals_match(&cold));
    // Field-for-field identity outside the cache statistics.
    let mut cold_adjusted = cold.clone();
    cold_adjusted.cache = warm.cache;
    assert_eq!(warm.to_json(), cold_adjusted.to_json());

    // A read-only warm start with no file is an error, not a silent
    // cold run.
    std::fs::remove_file(&path).unwrap();
    let err = run_sweep(&family, &warm_cfg).unwrap_err();
    assert!(err.to_string().contains("read-only cache file"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spin-wait on `x`: the simulator runs it to completion, but judging
/// it unrolls the loop on the path that always reads 0 and exceeds the
/// per-thread bound on backward jumps. With `observe` naming a register thread 1
/// never writes, it also fails to compile.
fn spin(name: &str, observe: &str) -> LitmusTest {
    LitmusTest::builder(name)
        .global("x", 0)
        .thread([st("x", 1)])
        .thread([
            label("L"),
            ld("r1", "x"),
            setp_eq("p", reg("r1"), imm(0)),
            bra("L").guarded("p", true),
        ])
        .exists(Predicate::reg_eq(1, observe, 1))
        .build()
        .unwrap()
}

#[test]
fn lowest_failing_cell_wins_whatever_failed() {
    // A cell fails on compile, then run, then its test's judgement, and
    // the sweep reports the lowest failing cell, in cell order, at any
    // parallelism, although every judgement precedes every run.
    let ok = |name: &str| corpus::sb(ThreadScope::InterCta, None).with_name(name);
    let unjudgeable = || spin("c-spin", "r1");
    let uncompilable = || spin("c-spin", "r8");
    let judge_err = SweepError::Enum(
        "c-spin".to_owned(),
        EnumError::Sym(SymError::StepLimit { tid: 1 }),
    );
    let compile_err = SweepError::Harness(HarnessError::Compile(CompileError::UnknownObservedReg(
        1,
        "r8".into(),
    )));
    let cases = [
        // Judgement fails before a later test fails to compile.
        (
            vec![
                ok("a"),
                ok("b"),
                unjudgeable(),
                ok("d"),
                spin("e-bad", "r8"),
            ],
            judge_err.clone(),
        ),
        // A compile failure before a later test fails judgement.
        (
            vec![
                ok("a"),
                ok("b"),
                uncompilable(),
                ok("d"),
                spin("e-spin", "r1"),
            ],
            compile_err.clone(),
        ),
        // One test failing both: the compile failure is its cells'.
        (vec![ok("a"), uncompilable(), ok("d")], compile_err),
    ];
    for (family, want) in cases {
        for par in [1, 3] {
            let cfg = SweepConfig {
                family: "errors".to_owned(),
                iterations: 40,
                parallelism: Some(par),
                ..small_cfg(None)
            };
            let got = run_sweep(&family, &cfg).unwrap_err();
            assert_eq!(got, want, "parallelism {par}");
        }
    }
}

#[test]
fn cell_records_match_the_histogram_of_each_cell() {
    // A sweep judges each cell from its distinct observation vectors,
    // without building a histogram. Every record must say what the cell's
    // histogram says: runs, witnesses, distinct outcomes and, in canonical
    // order, the observed outcomes the model forbids. The `.ca` tests
    // observe stale L1 values on the Tesla C2075, which the model leaves
    // out of scope (Sec. 5.5), so some cells are unsound.
    let mut family = vec![
        corpus::mp_l1(Some(FenceScope::Sys)),
        corpus::mp_l1(None),
        corpus::corr_l2_l1(Some(FenceScope::Sys)),
        corpus::corr(),
        corpus::mp(ThreadScope::InterCta, None),
        corpus::sb(ThreadScope::InterCta, None),
    ];
    family.sort_by(|a, b| a.name().cmp(b.name()));
    let cfg = SweepConfig {
        family: "ca".to_owned(),
        shard: None,
        chips: vec![Chip::TeslaC2075, Chip::GtxTitan],
        iterations: 3_000,
        seed: 0x11,
        parallelism: Some(2),
        cache_file: None,
        cache_readonly: false,
    };
    let records = Mutex::new(Vec::new());
    let report = run_sweep_with(&family, &cfg, collect(&records))
        .unwrap()
        .report;
    let mut records = records.into_inner().unwrap();
    records.sort_by_key(|r| (r.index, r.chip != "TesC"));
    assert!(!report.is_sound(), "stale .ca reads must show");

    let model = ptx_model();
    let mut unsound = 0;
    for (rec, (i, chip)) in records
        .iter()
        .zip((0..family.len()).flat_map(|i| cfg.chips.iter().map(move |&c| (i, c))))
    {
        let test = &family[i];
        let cell = CellSpec::new(test.clone(), chip)
            .incantations(default_incantations(test))
            .iterations(cfg.iterations)
            .seed(cfg.seed ^ i as u64);
        let cell_report = run_campaign(&[cell], &CampaignConfig::with_parallelism(1))
            .unwrap()
            .remove(0);
        let histogram = &cell_report.histogram;
        let verdict = model_outcomes(test, &model, &EnumConfig::default()).unwrap();
        let forbidden: Vec<String> = histogram
            .outcomes()
            .filter(|o| !verdict.allowed_outcomes.contains(*o))
            .map(|o| o.to_string())
            .collect();
        assert_eq!((rec.index, rec.chip), (i, chip.short()));
        assert_eq!(rec.runs, histogram.total(), "{} on {chip}", test.name());
        assert_eq!(rec.witnesses, cell_report.witnesses, "{}", test.name());
        assert_eq!(rec.distinct, histogram.distinct(), "{}", test.name());
        assert_eq!(rec.unsound, forbidden, "{} on {chip}", test.name());
        unsound += usize::from(!forbidden.is_empty());
    }
    assert_eq!(report.unsound_cells(), unsound as u64);
}

#[test]
fn a_verdict_that_lost_an_observed_outcome_fails_as_a_tool_error() {
    // A verdict's `all_outcomes` holds the outcome of every candidate
    // execution, so an observation outside it is a fault of the
    // simulator, the enumerator or the cache, never a model finding. A
    // warm cache is doctored so that one shape's verdict has lost an
    // outcome its cells observe: the sweep fails with `OutOfDomain` at
    // the lowest cell observing it, at any parallelism. If the verdict
    // only loses the outcome's allowed mark, the outcome is forbidden but
    // in the domain, and every cell observing it is reported unsound.
    let family: Vec<_> = generate(&GenConfig::small()).into_iter().take(12).collect();
    let dir = std::env::temp_dir().join(format!("weakgpu-sweep-domain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("verdicts.wgc");
    let cfg = |par| SweepConfig {
        family: "domain".to_owned(),
        iterations: 100,
        parallelism: Some(par),
        cache_file: Some(path.clone()),
        cache_readonly: true,
        ..small_cfg(None)
    };
    let cold = SweepConfig {
        cache_readonly: false,
        ..cfg(1)
    };
    assert!(run_sweep(&family, &cold).unwrap().is_sound());
    let cold = persist::load(&path).unwrap();

    // The doctored shape is that of test 5, and the outcome is the most
    // frequent one of its last cell.
    let model = ptx_model();
    let key_of = |test: &LitmusTest| Fingerprint::of(test, &model, &EnumConfig::default());
    let chips = cfg(1).chips;
    let cells: Vec<(usize, Chip)> = (0..family.len())
        .flat_map(|i| chips.iter().map(move |&chip| (i, chip)))
        .collect();
    let histogram = |&(i, chip): &(usize, Chip)| {
        let test = &family[i];
        let cell = CellSpec::new(test.clone(), chip)
            .incantations(default_incantations(test))
            .iterations(100)
            .seed(cfg(1).seed ^ i as u64);
        run_campaign(&[cell], &CampaignConfig::with_parallelism(1))
            .unwrap()
            .remove(0)
            .histogram
    };
    let key = key_of(&family[5]);
    let last = cells.iter().rposition(|&(i, _)| i == 5).unwrap();
    let lost = histogram(&cells[last])
        .iter()
        .max_by_key(|&(_, n)| n)
        .unwrap()
        .0
        .clone();
    // Every cell of the doctored shape that observes the outcome.
    let observing: Vec<(usize, Chip)> = cells
        .iter()
        .filter(|&&(i, _)| key_of(&family[i]) == key)
        .filter(|cell| histogram(cell).count(&lost) > 0)
        .copied()
        .collect();
    let write_doctored = |drop_from_domain: bool| {
        let mut doctored = VerdictCache::new();
        for (k, verdict) in cold.entries() {
            let mut verdict = verdict.clone();
            if k == key {
                assert!(verdict.allowed_outcomes.remove(&lost));
                if drop_from_domain {
                    assert!(verdict.all_outcomes.remove(&lost));
                }
            }
            doctored.insert_warm(k, verdict);
        }
        persist::save(&path, &doctored).unwrap();
    };

    write_doctored(true);
    let (i, chip) = observing[0];
    let want = SweepError::Harness(HarnessError::OutOfDomain {
        test: family[i].name().to_owned(),
        chip,
        outcome: lost.clone(),
    });
    for par in [1, 3] {
        let err = run_sweep(&family, &cfg(par)).unwrap_err();
        assert_eq!(err, want, "parallelism {par}");
        assert!(err.to_string().contains("no candidate execution"), "{err}");
    }

    write_doctored(false);
    let rendered = [lost.to_string()];
    for par in [1, 3] {
        let report = run_sweep(&family, &cfg(par)).unwrap();
        let unsound: Vec<(usize, &str, &[String])> = report
            .unsound
            .iter()
            .map(|u| (u.index, u.chip.as_str(), &u.outcomes[..]))
            .collect();
        let want: Vec<(usize, &str, &[String])> = observing
            .iter()
            .map(|&(i, chip)| (i, chip.short(), &rendered[..]))
            .collect();
        assert_eq!(unsound, want, "parallelism {par}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
