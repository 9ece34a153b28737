//! Integration tests for the campaign engine and the harness's
//! machine-independence guarantee: for a fixed seed, histograms are a
//! pure function of the cell spec — independent of worker count, host
//! core count, and whether cells run alone or batched in a campaign —
//! and equal to an independent record of them (a golden file and a
//! chunk-by-chunk oracle).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use weakgpu_axiom::enumerate::{model_outcomes, EnumConfig, ModelOutcomes};
use weakgpu_diy::{generate, GenConfig};
use weakgpu_harness::campaign::{
    default_incantations, run_campaign, run_campaign_with, CampaignConfig, CellSpec,
};
use weakgpu_harness::runner::{run_test, HarnessError, RunConfig, TestReport};
use weakgpu_harness::{Histogram, STREAM_CHUNKS};
use weakgpu_litmus::build::{ld, st};
use weakgpu_litmus::{corpus, corpus_extra, CacheOp, Instr, LitmusTest, Predicate, ThreadScope};
use weakgpu_models::ptx_model;
use weakgpu_sim::chip::{Chip, Incantations};
use weakgpu_sim::machine::{ObsCounts, RunParams, Simulator};
use weakgpu_sim::program::CompileError;

fn config(parallelism: Option<usize>) -> RunConfig {
    RunConfig {
        iterations: 4_000,
        incantations: Incantations::best_inter_cta(),
        seed: 0xdead_5eed,
        parallelism,
    }
}

#[test]
fn histograms_identical_across_parallelism() {
    // The headline bugfix: 1, 4, 16 and "all cores" workers must produce
    // the same histogram bit for bit, because RNG streams derive from
    // seed-indexed logical chunks, never from the worker layout.
    let test = corpus::mp(ThreadScope::InterCta, None);
    let baseline = run_test(&test, Chip::GtxTitan, &config(Some(1))).unwrap();
    assert!(baseline.witnesses > 0, "mp must be weak on the Titan");
    for par in [Some(4), Some(16), None] {
        let r = run_test(&test, Chip::GtxTitan, &config(par)).unwrap();
        assert_eq!(
            baseline.histogram, r.histogram,
            "histogram differs at parallelism {par:?}"
        );
        assert_eq!(baseline.witnesses, r.witnesses);
    }
}

#[test]
fn campaign_matches_sequential_run_test() {
    // One campaign over 3 corpus tests × 2 chips must reproduce exactly
    // what running each cell alone through run_test produces.
    let tests: [LitmusTest; 3] = [
        corpus::mp(ThreadScope::InterCta, None),
        corpus::sb(ThreadScope::InterCta, None),
        corpus::lb(ThreadScope::InterCta, None),
    ];
    let chips = [Chip::GtxTitan, Chip::Gtx280];
    let cfg = config(None);

    let cells: Vec<CellSpec> = tests
        .iter()
        .flat_map(|t| {
            chips
                .iter()
                .map(|&c| CellSpec::from_config(t.clone(), c, &cfg))
        })
        .collect();
    let campaign = run_campaign(&cells, &CampaignConfig::default()).unwrap();
    assert_eq!(campaign.len(), 6);

    let mut i = 0;
    for test in &tests {
        for &chip in &chips {
            let solo = run_test(test, chip, &cfg).unwrap();
            assert_eq!(campaign[i].test, solo.test);
            assert_eq!(campaign[i].chip, chip);
            assert_eq!(
                campaign[i].histogram, solo.histogram,
                "campaign vs sequential mismatch for {} on {chip}",
                solo.test
            );
            assert_eq!(campaign[i].witnesses, solo.witnesses);
            i += 1;
        }
    }
}

#[test]
fn campaign_results_independent_of_worker_count() {
    let cells: Vec<CellSpec> = [Chip::GtxTitan, Chip::TeslaC2075]
        .into_iter()
        .map(|chip| {
            CellSpec::new(corpus::corr(), chip)
                .iterations(3_000)
                .seed(42)
        })
        .collect();
    let one = run_campaign(&cells, &CampaignConfig::with_parallelism(1)).unwrap();
    let many = run_campaign(&cells, &CampaignConfig::with_parallelism(16)).unwrap();
    for (a, b) in one.iter().zip(&many) {
        assert_eq!(a.histogram, b.histogram);
    }
}

#[test]
fn progress_streams_each_cell_exactly_once() {
    let cells: Vec<CellSpec> = Chip::TABLED
        .into_iter()
        .map(|chip| CellSpec::new(corpus::sb(ThreadScope::InterCta, None), chip).iterations(500))
        .collect();
    let seen = Mutex::new(Vec::new());
    let calls = AtomicUsize::new(0);
    run_campaign_with(&cells, &CampaignConfig::default(), |idx, report| {
        calls.fetch_add(1, Ordering::Relaxed);
        seen.lock().unwrap().push((idx, report.histogram.total()));
        Ok(())
    })
    .unwrap();
    assert_eq!(calls.load(Ordering::Relaxed), cells.len());
    let mut seen = seen.into_inner().unwrap();
    seen.sort_unstable();
    let expected: Vec<(usize, u64)> = (0..cells.len()).map(|i| (i, 500)).collect();
    assert_eq!(seen, expected);
}

#[test]
fn lowest_callback_error_wins_at_any_parallelism() {
    // A callback error aborts the campaign like a compile error; the
    // payload carries the failing cell's index.
    let cells: Vec<CellSpec> = (0..6)
        .map(|i| {
            CellSpec::new(corpus::corr(), Chip::GtxTitan)
                .iterations(40)
                .seed(i)
        })
        .collect();
    let refusal =
        |ci: usize| HarnessError::Compile(CompileError::UnknownObservedReg(ci, "r".into()));
    for par in [1, 4] {
        let got = run_campaign_with(&cells, &CampaignConfig::with_parallelism(par), |ci, _| {
            if ci >= 2 {
                Err(refusal(ci))
            } else {
                Ok(())
            }
        });
        assert_eq!(got, Err(refusal(2)), "parallelism {par}");
    }
}

#[test]
fn zero_iteration_cells_complete_empty() {
    let cells = [
        CellSpec::new(corpus::corr(), Chip::GtxTitan).iterations(0),
        CellSpec::new(corpus::corr(), Chip::GtxTitan).iterations(100),
    ];
    let reports = run_campaign(&cells, &CampaignConfig::default()).unwrap();
    assert_eq!(reports[0].histogram.total(), 0);
    assert_eq!(reports[0].witnesses, 0);
    assert_eq!(reports[1].histogram.total(), 100);
}

#[test]
fn shared_simulator_cache_keeps_cells_independent() {
    // Two cells over the same (test, chip) at different incantations
    // share a compiled Simulator but get their own weights and streams.
    let test = corpus::mp(ThreadScope::InterCta, None);
    let weak = CellSpec::new(test.clone(), Chip::GtxTitan)
        .incantations(Incantations::best_inter_cta())
        .iterations(5_000);
    let strong = CellSpec::new(test, Chip::GtxTitan)
        .incantations(Incantations::none())
        .iterations(5_000);
    let reports = run_campaign(&[weak, strong], &CampaignConfig::default()).unwrap();
    assert!(reports[0].witnesses > 0, "incantations must provoke mp");
    assert_eq!(reports[1].witnesses, 0, "no incantations, no weakness");
}

/// The RNG-stream contract, restated independently of the engine:
/// `min(iterations, STREAM_CHUNKS)` chunks whose sizes differ by at most
/// one (the larger ones first), chunk `k` seeded with
/// `seed + 0x9e37_79b9_7f4a_7c15 * (k + 1)` and run one after another
/// through `Simulator::run_batch`.
fn chunk_by_chunk_oracle(cell: &CellSpec) -> Histogram {
    let sim = Simulator::compile(&cell.test, cell.chip).unwrap();
    let params = RunParams::of(cell.chip, &cell.incantations);
    let mut state = sim.new_state();
    let mut counts = ObsCounts::new();
    let n = cell.iterations.min(STREAM_CHUNKS);
    for k in 0..n {
        let len = cell.iterations / n + usize::from(k < cell.iterations % n);
        let seed = cell
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(k as u64 + 1));
        let mut rng = SmallRng::seed_from_u64(seed);
        sim.run_batch(len, &params, &mut rng, &mut state, &mut counts)
            .unwrap();
    }
    let mut histogram = Histogram::new();
    for (obs, n) in counts.iter() {
        histogram.add(sim.program().layout.outcome(obs), n);
    }
    histogram
}

#[test]
fn campaign_matches_chunk_by_chunk_oracle() {
    // Around the chunk-count boundary (63/64/65 runs: fewer runs than
    // chunks, one run each, one chunk of two) and across the work-item
    // boundary (2049 runs: two items of 32 chunks).
    for iterations in [1, 63, 64, 65, 2049] {
        let cell = CellSpec::new(corpus::mp(ThreadScope::InterCta, None), Chip::GtxTitan)
            .incantations(Incantations::best_inter_cta())
            .iterations(iterations)
            .seed(0xc0ffee);
        let want = chunk_by_chunk_oracle(&cell);
        assert_eq!(want.total(), iterations as u64);
        for par in [1, 3] {
            let got = run_campaign(
                std::slice::from_ref(&cell),
                &CampaignConfig::with_parallelism(par),
            )
            .unwrap();
            assert_eq!(
                got[0].histogram, want,
                "{iterations} iterations at parallelism {par}"
            );
        }
    }
    // Several cells: a work item takes consecutive small cells of one
    // test whole and splits a cell of 1024 runs or more. Tests interleave
    // (A, B, A), small cells sit on both sides of split ones, and one
    // test runs on several chips and incantation columns.
    let a = corpus::mp(ThreadScope::InterCta, None);
    let b = corpus::sb(ThreadScope::InterCta, None);
    let cell = |test: &LitmusTest, chip, iterations, seed| {
        CellSpec::new(test.clone(), chip)
            .incantations(Incantations::best_inter_cta())
            .iterations(iterations)
            .seed(seed)
    };
    let cells = vec![
        cell(&a, Chip::GtxTitan, 40, 1),
        cell(&a, Chip::Gtx660, 40, 1),
        cell(&b, Chip::GtxTitan, 40, 2),
        cell(&a, Chip::GtxTitan, 40, 3),
        cell(&a, Chip::GtxTitan, 1_500, 3),
        cell(&a, Chip::TeslaC2075, 40, 3),
        cell(&b, Chip::Gtx660, 5_000, 4),
        cell(&b, Chip::Gtx660, 40, 4).incantations(Incantations::all_on()),
        cell(&b, Chip::GtxTitan, 1_500, 4),
        cell(&a, Chip::Gtx750, 5_000, 5),
        cell(&a, Chip::Gtx750, 40, 5),
    ];
    let want: Vec<Histogram> = cells.iter().map(chunk_by_chunk_oracle).collect();
    for par in [1, 3] {
        let got = run_campaign(&cells, &CampaignConfig::with_parallelism(par)).unwrap();
        assert_eq!(got.len(), cells.len());
        for (ci, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(got.test, cells[ci].test.name(), "cell {ci}");
            assert_eq!(got.chip, cells[ci].chip, "cell {ci}");
            assert_eq!(got.histogram, *want, "cell {ci} at parallelism {par}");
        }
    }
}

/// `corr` with its condition on a register thread 1 never writes, which
/// builds but does not compile.
fn uncompilable(reg: &str) -> LitmusTest {
    LitmusTest::builder(format!("coRR-bad-{reg}"))
        .global("x", 0)
        .thread([st("x", 1)])
        .thread([ld("r1", "x"), ld("r2", "x")])
        .exists(Predicate::reg_eq(1, reg, 1))
        .build()
        .unwrap()
}

#[test]
fn lowest_compile_error_wins_at_any_parallelism() {
    // Simulators compile lazily on the workers, yet the reported error
    // is the first failing cell in cell order, as when everything
    // compiled up front.
    let mut cells: Vec<CellSpec> = (0..12)
        .map(|i| {
            CellSpec::new(corpus::sb(ThreadScope::InterCta, None), Chip::GtxTitan)
                .iterations(2_500)
                .seed(i)
        })
        .collect();
    cells[5] = CellSpec::new(uncompilable("r8"), Chip::GtxTitan).iterations(2_500);
    cells[9] = CellSpec::new(uncompilable("r9"), Chip::Gtx280).iterations(10);
    let want = HarnessError::Compile(CompileError::UnknownObservedReg(1, "r8".into()));
    for par in [1, 4] {
        let got = run_campaign(&cells, &CampaignConfig::with_parallelism(par));
        assert_eq!(got, Err(want.clone()), "parallelism {par}");
    }
}

// ------------------------------------------------ golden histograms

/// Every per-cell histogram of the `small` family (one cell per test ×
/// tabled Nvidia chip, 40 iterations, the sweep's cell seeds for base
/// seed 1), first recorded from the campaign engine that split every
/// cell into one work item per RNG chunk. Matching it pins the chunk-seed
/// contract to an independent record, not to another path through the
/// same engine. It was re-recorded only where the simulator's streams
/// shifted with the same distribution: the lone-thread finish, and the
/// runs of tests without a `.ca` load that stopped drawing for the L1
/// model. Regenerate with
/// `WEAKGPU_BLESS=1 cargo test -p weakgpu-harness --test campaign` only
/// after an intended change to the simulator or the seeding, and review
/// the diff.
const GOLDEN: &str = "../../tests/golden/campaign_small.txt";

fn small_family_cells() -> Vec<CellSpec> {
    let family = generate(&GenConfig::small());
    family
        .iter()
        .enumerate()
        .flat_map(|(i, test)| {
            let inc = default_incantations(test);
            Chip::NVIDIA_TABLED.into_iter().map(move |chip| {
                CellSpec::new(test.clone(), chip)
                    .incantations(inc)
                    .iterations(40)
                    .seed(1 ^ i as u64)
            })
        })
        .collect()
}

fn golden_lines(reports: &[TestReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&format!(
            "{} {} {} {} {}",
            r.test,
            r.chip.short(),
            r.histogram.total(),
            r.witnesses,
            r.histogram.distinct()
        ));
        for (outcome, n) in r.histogram.iter() {
            out.push_str(&format!(" [{}]:{n}", outcome.to_string().trim_end()));
        }
        out.push('\n');
    }
    out
}

#[test]
fn small_family_histograms_match_golden() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let cells = small_family_cells();
    if std::env::var_os("WEAKGPU_BLESS").is_some() {
        let reports = run_campaign(&cells, &CampaignConfig::with_parallelism(1)).unwrap();
        std::fs::write(&path, golden_lines(&reports)).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{GOLDEN}: {e}"));
    for par in [1, 3] {
        let reports = run_campaign(&cells, &CampaignConfig::with_parallelism(par)).unwrap();
        let got = golden_lines(&reports);
        assert_eq!(want.lines().count(), got.lines().count(), "cell count");
        for (w, g) in want.lines().zip(got.lines()) {
            assert_eq!(w, g, "parallelism {par}: cell differs from {GOLDEN}");
        }
    }
}

/// FNV-1a, 64-bit: a fixed, dependency-free hash for the digest below.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The digest of every per-cell histogram of a sample of the `paper`
/// family: every 8th test × tabled Nvidia chip, 40 iterations, the
/// sweep's cell seeds for base seed 11, each cell rendered as a line of
/// the golden file above. Re-recorded, as the golden file was, when runs
/// of tests without a `.ca` load (every generated test) stopped drawing
/// for the L1 model; a change to the run loop must reproduce it exactly.
const PAPER_SAMPLE_DIGEST: u64 = 0x6a95_b69a_1ea8_6ced;

#[test]
fn paper_sample_histograms_match_recorded_digest() {
    let family = generate(&GenConfig::paper());
    assert_eq!(family.len(), 16632);
    let cells: Vec<CellSpec> = family
        .iter()
        .enumerate()
        .step_by(8)
        .flat_map(|(i, test)| {
            let inc = default_incantations(test);
            Chip::NVIDIA_TABLED.into_iter().map(move |chip| {
                CellSpec::new(test.clone(), chip)
                    .incantations(inc)
                    .iterations(40)
                    .seed(11 ^ i as u64)
            })
        })
        .collect();
    for par in [1, 3] {
        let reports = run_campaign(&cells, &CampaignConfig::with_parallelism(par)).unwrap();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        fnv1a(&mut hash, golden_lines(&reports).as_bytes());
        assert_eq!(
            hash, PAPER_SAMPLE_DIGEST,
            "parallelism {par}: paper-sample histogram digest changed: {hash:#018x}"
        );
    }
}

/// Whether `test` has a `.ca` load: a load that reads the per-SM L1.
fn has_ca_load(test: &LitmusTest) -> bool {
    fn ca(instr: &Instr) -> bool {
        match instr {
            Instr::Ld { cache, .. } => *cache == CacheOp::Ca,
            Instr::Guard { inner, .. } => ca(inner),
            _ => false,
        }
    }
    test.threads().iter().flatten().any(ca)
}

/// The digests of every per-cell histogram of the hand-written tests
/// (`corpus::all` then `corpus_extra::all_extra`) on every chip, two
/// digests per chip: one over the tests with a `.ca` load, one over the
/// rest. 300 iterations under each test's default incantations, cell
/// seeds `7 ^ index`, each cell rendered as a line of the golden file
/// above. The generated families never run `.ca` loads, shared memory,
/// RMWs or spin loops; these tests do, so a change to those paths shows
/// here, and on which chip.
///
/// The `.ca` digests were recorded on the simulator that kept the L1
/// model in every run, and must never move: a run of a test with a `.ca`
/// load keeps the model and draws for it exactly as then.
const CORPUS_CA_DIGESTS: [(Chip, u64); 8] = [
    (Chip::Gtx280, 0xf0a2_c2dc_c13b_96f8),
    (Chip::Gtx540m, 0x998d_88a9_1dab_520f),
    (Chip::TeslaC2075, 0x4db5_feb2_b4c3_589a),
    (Chip::Gtx660, 0x7220_4803_fdf9_0eae),
    (Chip::GtxTitan, 0xbbc1_7166_11a4_eb90),
    (Chip::Gtx750, 0xdd8c_9354_4de2_a838),
    (Chip::RadeonHd6570, 0x0935_bd3e_654f_a910),
    (Chip::RadeonHd7970, 0xd54f_65a9_df5e_9e0a),
];

/// The digests of the hand-written tests without a `.ca` load, as
/// [`CORPUS_CA_DIGESTS`]. Re-recorded when their runs stopped keeping the
/// L1 model and drawing for it.
const CORPUS_DIGESTS: [(Chip, u64); 8] = [
    (Chip::Gtx280, 0x6054_f111_80f8_027c),
    (Chip::Gtx540m, 0xe467_b530_62e9_b628),
    (Chip::TeslaC2075, 0xebb6_44d8_64b3_754d),
    (Chip::Gtx660, 0x7b1c_4166_9ec8_29b1),
    (Chip::GtxTitan, 0x2804_ee8a_fd94_371c),
    (Chip::Gtx750, 0xe8fb_38ec_93ff_ad8a),
    (Chip::RadeonHd6570, 0xe5f2_311b_d937_872c),
    (Chip::RadeonHd7970, 0x0b94_70c6_6f71_3d34),
];

#[test]
fn corpus_histograms_match_recorded_digests() {
    let mut tests = corpus::all();
    tests.extend(corpus_extra::all_extra());
    let cells: Vec<CellSpec> = tests
        .iter()
        .enumerate()
        .flat_map(|(i, test)| {
            let inc = default_incantations(test);
            Chip::ALL.into_iter().map(move |chip| {
                CellSpec::new(test.clone(), chip)
                    .incantations(inc)
                    .iterations(300)
                    .seed(7 ^ i as u64)
            })
        })
        .collect();
    for digests in [CORPUS_CA_DIGESTS, CORPUS_DIGESTS] {
        assert_eq!(
            digests.map(|(chip, _)| chip),
            Chip::ALL,
            "one digest per chip, in chip order"
        );
    }
    // Every outcome a cell observes is an outcome of some candidate
    // execution of its test, so an out-of-domain error is never a false
    // alarm on the corpus (the `.ca` cells' stale reads included).
    let model = ptx_model();
    let verdicts: Vec<ModelOutcomes> = tests
        .iter()
        .map(|test| model_outcomes(test, &model, &EnumConfig::default()).unwrap())
        .collect();
    for par in [1, 3] {
        let reports = run_campaign(&cells, &CampaignConfig::with_parallelism(par)).unwrap();
        // Cells are judged on observation vectors; the named condition
        // over each cell's histogram is the oracle.
        for (ci, (cell, r)) in cells.iter().zip(&reports).enumerate() {
            assert_eq!(
                r.witnesses,
                r.histogram.witnesses(cell.test.cond()),
                "{} on {}",
                r.test,
                r.chip
            );
            let domain = &verdicts[ci / Chip::ALL.len()].all_outcomes;
            if let Some(o) = r.histogram.outcomes().find(|o| !domain.contains(*o)) {
                panic!("{} on {}: {o}is no candidate's outcome", r.test, r.chip);
            }
        }
        let mut changed: Vec<String> = Vec::new();
        for (ca, digests) in [(true, CORPUS_CA_DIGESTS), (false, CORPUS_DIGESTS)] {
            for (chip, want) in digests {
                let mine: Vec<TestReport> = cells
                    .iter()
                    .zip(&reports)
                    .filter(|(cell, r)| r.chip == chip && has_ca_load(&cell.test) == ca)
                    .map(|(_, r)| r.clone())
                    .collect();
                let mut hash = 0xcbf2_9ce4_8422_2325u64;
                fnv1a(&mut hash, golden_lines(&mine).as_bytes());
                if hash != want {
                    let set = if ca { ".ca" } else { "other" };
                    changed.push(format!("{set} {}: {hash:#018x}", chip.short()));
                }
            }
        }
        assert!(
            changed.is_empty(),
            "parallelism {par}: corpus histogram digests changed: {changed:?}"
        );
    }
}
