//! One cell end to end through the `weakgpu` facade: configure a
//! `CellSpec`, run a corpus test on the simulated chip, and check
//! everything observed for soundness against the paper's PTX model.

use weakgpu::axiom::enumerate::{model_outcomes, EnumConfig};
use weakgpu::harness::{check_soundness, run_campaign, run_test, CampaignConfig, CellSpec};
use weakgpu::litmus::corpus;
use weakgpu::models::ptx_model;
use weakgpu::sim::chip::Incantations;
use weakgpu::sim::Chip;

fn titan_corr() -> CellSpec {
    CellSpec::new(corpus::corr(), Chip::GtxTitan).iterations(5_000)
}

#[test]
fn doc_example_run_and_soundness() {
    // Exactly the crate-level doc example, with its assertions.
    let cell = titan_corr();
    let cfg = CampaignConfig::default();
    let report = run_test(&cell, &cfg).unwrap();
    assert_eq!(report.histogram.total(), 5_000);

    let verdict = model_outcomes(&cell.test, &ptx_model(), &EnumConfig::default()).unwrap();
    assert!(check_soundness(&cell, &cfg, &verdict).unwrap().is_sound());
}

#[test]
fn run_config_reflects_builder_settings() {
    let cell = CellSpec::new(corpus::corr(), Chip::TeslaC2075)
        .iterations(123)
        .seed(99)
        .incantations(Incantations::none());
    assert_eq!(cell.chip, Chip::TeslaC2075);
    let CellSpec {
        incantations,
        iterations,
        seed,
        ..
    } = cell;
    assert_eq!(incantations, Incantations::none());
    assert_eq!(iterations, 123);
    assert_eq!(seed, 99);
    assert_eq!(CampaignConfig::with_parallelism(3).parallelism, Some(3));
    assert_eq!(CampaignConfig::default().parallelism, None);
}

#[test]
fn same_seed_same_histogram() {
    let cfg = CampaignConfig::default();
    let a = run_test(&titan_corr().seed(7), &cfg).unwrap();
    let b = run_test(&titan_corr().seed(7), &cfg).unwrap();
    assert_eq!(a.histogram, b.histogram, "fixed-seed cells must agree");
}

#[test]
fn soundness_holds_across_the_tabled_chips() {
    // Every chip the paper tabulates must stay inside the PTX model's
    // allowed outcomes for the coherence shape.
    let cfg = CampaignConfig::default();
    let cells: Vec<CellSpec> = [Chip::GtxTitan, Chip::Gtx280]
        .into_iter()
        .map(|chip| CellSpec::new(corpus::corr(), chip).iterations(2_000))
        .collect();
    for report in run_campaign(&cells, &cfg).unwrap() {
        assert_eq!(report.histogram.total(), 2_000);
    }
    let verdict = model_outcomes(&corpus::corr(), &ptx_model(), &EnumConfig::default()).unwrap();
    for cell in &cells {
        let sound = check_soundness(cell, &cfg, &verdict).unwrap();
        assert!(
            sound.is_sound(),
            "{:?} produced model-forbidden outcomes",
            cell.chip
        );
    }
}
