//! End-to-end integration tests: the ten findings of the paper's Tab. 2,
//! each established through the full pipeline (corpus → simulator/harness
//! → axiomatic model → optcheck), at CI-friendly iteration counts.

use weakgpu::harness::campaign::{run_campaign, CampaignConfig, CellSpec};
use weakgpu::harness::default_incantations;
use weakgpu::harness::runner::{run_test, RunConfig};
use weakgpu::litmus::{corpus, FenceScope, LitmusTest, ThreadScope};
use weakgpu::models::{operational_baseline, ptx_model};
use weakgpu::optcheck::deps::{dependency_survives, load_load_dep, DepScheme};
use weakgpu::optcheck::{amd_compile, AmdTarget, CompilerBug, CompilerConfig};
use weakgpu::sim::chip::{Chip, Incantations};
use weakgpu::Session;

fn obs(test: &LitmusTest, chip: Chip, iterations: usize) -> u64 {
    run_test(
        test,
        chip,
        &RunConfig {
            iterations,
            incantations: default_incantations(test),
            seed: 0xf1d1,
            parallelism: None,
        },
    )
    .unwrap()
    .witnesses
}

#[test]
fn finding_1_corr_on_fermi_and_kepler() {
    for chip in [
        Chip::Gtx540m,
        Chip::TeslaC2075,
        Chip::Gtx660,
        Chip::GtxTitan,
    ] {
        assert!(obs(&corpus::corr(), chip, 5_000) > 0, "{chip}");
    }
    for chip in [
        Chip::Gtx280,
        Chip::Gtx750,
        Chip::RadeonHd6570,
        Chip::RadeonHd7970,
    ] {
        assert_eq!(obs(&corpus::corr(), chip, 5_000), 0, "{chip}");
    }
}

#[test]
fn finding_2_fermi_l1_ignores_fences() {
    // Tesla C2075: mp-L1 and coRR-L2-L1 survive even membar.sys.
    assert!(
        obs(
            &corpus::mp_l1(Some(FenceScope::Sys)),
            Chip::TeslaC2075,
            80_000
        ) > 0
    );
    assert!(
        obs(
            &corpus::corr_l2_l1(Some(FenceScope::Sys)),
            Chip::TeslaC2075,
            50_000
        ) > 0
    );
    // Whereas membar.gl restores mp-L1 on the GTX Titan.
    assert_eq!(
        obs(&corpus::mp_l1(Some(FenceScope::Gl)), Chip::GtxTitan, 50_000),
        0
    );
}

#[test]
fn finding_3_volatile_does_not_restore_sc() {
    assert!(obs(&corpus::mp_volatile(), Chip::Gtx540m, 10_000) > 0);
    assert!(obs(&corpus::mp_volatile(), Chip::TeslaC2075, 10_000) > 0);
}

#[test]
fn finding_4_deque_loses_tasks_without_fences() {
    assert!(obs(&corpus::dlb_lb(false), Chip::GtxTitan, 30_000) > 0);
    assert_eq!(obs(&corpus::dlb_lb(true), Chip::GtxTitan, 30_000), 0);
    assert_eq!(obs(&corpus::dlb_mp(true), Chip::TeslaC2075, 30_000), 0);
}

#[test]
fn finding_5_and_6_spin_locks_read_stale_values() {
    for test in [corpus::cas_sl(false), corpus::exch_sl(false)] {
        assert!(obs(&test, Chip::GtxTitan, 60_000) > 0, "{}", test.name());
    }
    for test in [corpus::cas_sl(true), corpus::exch_sl(true)] {
        assert_eq!(obs(&test, Chip::GtxTitan, 60_000), 0, "{}", test.name());
    }
}

#[test]
fn finding_7_he_yu_lock_reads_future_values() {
    assert!(obs(&corpus::sl_future(false), Chip::TeslaC2075, 20_000) > 0);
    assert_eq!(obs(&corpus::sl_future(true), Chip::TeslaC2075, 20_000), 0);
}

#[test]
fn finding_8_cuda55_reorders_volatile_loads() {
    use weakgpu::litmus::{build::*, Predicate};
    let volatile_corr = LitmusTest::builder("coRR-volatile")
        .global("x", 0)
        .thread([st("x", 1)])
        .thread([ld_volatile("r1", "x"), ld_volatile("r2", "x")])
        .scope(ThreadScope::IntraCta)
        .exists(Predicate::reg_eq(1, "r1", 1).and(Predicate::reg_eq(1, "r2", 0)))
        .build()
        .unwrap();
    let report = weakgpu::optcheck::check_test(
        &volatile_corr,
        &CompilerConfig::o3().with_bug(CompilerBug::ReorderVolatileLoads),
    );
    assert!(!report.consistent);
}

#[test]
fn finding_9_gcn_removes_fences_between_loads() {
    let fenced = corpus::mp(ThreadScope::InterCta, Some(FenceScope::Gl));
    let (compiled, report) = amd_compile(&fenced, AmdTarget::Gcn10);
    assert_eq!(report.fences_removed, 1);
    // And the compiled program still exhibits mp on the HD7970.
    assert!(obs(&compiled, Chip::RadeonHd7970, 60_000) > 0);
    // TeraScale keeps the fences and the behaviour vanishes.
    let (kept, _) = amd_compile(&fenced, AmdTarget::TeraScale2);
    assert_eq!(obs(&kept, Chip::RadeonHd6570, 30_000), 0);
}

#[test]
fn finding_10_terascale_reorders_load_and_cas() {
    let (_, report) = amd_compile(&corpus::dlb_lb(false), AmdTarget::TeraScale2);
    assert_eq!(report.load_cas_reordered, 1);
    assert!(!report.test_is_meaningful());
}

#[test]
fn sec_4_5_dependency_schemes() {
    assert!(!dependency_survives(
        &load_load_dep(DepScheme::Xor),
        &CompilerConfig::o3()
    ));
    assert!(dependency_survives(
        &load_load_dep(DepScheme::AndHighBit),
        &CompilerConfig::o3()
    ));
}

#[test]
fn sec_6_operational_model_unsound_axiomatic_sound() {
    let test = corpus::lb(ThreadScope::InterCta, Some(FenceScope::Cta));
    let session = Session::new()
        .iterations(150_000)
        .incantations(Incantations::best_inter_cta());
    let report = session.run(&test).unwrap();
    assert!(report.witnesses > 0, "lb+membar.ctas must be observable");
    let ptx = session
        .check_soundness_against(&test, &ptx_model())
        .unwrap();
    assert!(ptx.is_sound());
    let op = session
        .check_soundness_against(&test, &operational_baseline())
        .unwrap();
    assert!(!op.is_sound());
}

/// Tab. 6: the incantation columns that provoke each idiom, from one
/// campaign over all 16 columns for three rows. On the Titan, coRR peaks
/// in a column with thread randomisation and memory stress or bank
/// conflicts; inter-CTA sb peaks in a memory-stress column without bank
/// conflicts, and its first 8 columns (no memory stress) witness
/// nothing. The GTX 280 witnesses coRR in no column.
#[test]
fn tab_6_incantation_columns() {
    let columns = Incantations::all_combinations();
    let rows = [
        (corpus::corr(), Chip::GtxTitan, 4_000, 7),
        (
            corpus::sb(ThreadScope::InterCta, None),
            Chip::GtxTitan,
            4_000,
            11,
        ),
        (corpus::corr(), Chip::Gtx280, 1_000, 3),
    ];
    let cells: Vec<CellSpec> = rows
        .iter()
        .flat_map(|(test, chip, iterations, seed)| {
            columns.iter().enumerate().map(move |(i, &inc)| {
                CellSpec::new(test.clone(), *chip)
                    .incantations(inc)
                    .iterations(*iterations)
                    .seed(seed + i as u64)
            })
        })
        .collect();
    let reports = run_campaign(&cells, &CampaignConfig::default()).unwrap();
    let witnesses: Vec<Vec<u64>> = reports
        .chunks(columns.len())
        .map(|row| row.iter().map(|r| r.witnesses).collect())
        .collect();
    // The most effective column; ties go to the earliest, as in the paper.
    let best = |row: &[u64]| {
        let i = (0..row.len())
            .max_by_key(|&i| (row[i], usize::MAX - i))
            .unwrap();
        (columns[i], row[i])
    };

    let (corr, hits) = best(&witnesses[0]);
    assert!(hits > 0);
    assert!(corr.thread_rand, "thread randomisation drives coRR");
    assert!(corr.memory_stress || corr.bank_conflicts);

    let (sb, _) = best(&witnesses[1]);
    assert!(sb.memory_stress);
    assert!(!sb.bank_conflicts, "bank conflicts dampen inter-CTA sb");
    assert!(witnesses[1][..8].iter().all(|&w| w == 0));

    assert!(witnesses[2].iter().all(|&w| w == 0), "GTX 280 stays strong");
}
