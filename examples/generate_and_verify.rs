//! diy-style test generation and model validation in miniature (paper
//! Secs. 4.1 and 5.4): enumerate relaxation cycles, synthesise litmus
//! tests, classify them under the PTX model vs SC, run a sample on the
//! simulator (one `CellSpec` per test) and verify soundness.
//!
//! ```sh
//! cargo run --release --example generate_and_verify
//! ```

use weakgpu::axiom::enumerate::model_outcomes;
use weakgpu::diy::{generate, GenConfig};
use weakgpu::harness::{check_soundness, run_test, CampaignConfig, CellSpec};
use weakgpu::models::{ptx_model, sc_model};
use weakgpu::sim::chip::Chip;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = GenConfig::small();
    let tests = generate(&cfg);
    println!(
        "generated {} tests from {} cycles\n",
        tests.len(),
        cfg.cycles().len()
    );

    // Classify under the models.
    let ptx = ptx_model();
    let sc = sc_model();
    let mut ptx_allows = 0;
    let mut sc_allows = 0;
    for test in &tests {
        let enum_cfg = Default::default();
        if model_outcomes(test, &ptx, &enum_cfg)?.condition_witnessed {
            ptx_allows += 1;
        }
        if model_outcomes(test, &sc, &enum_cfg)?.condition_witnessed {
            sc_allows += 1;
        }
    }
    println!(
        "PTX model allows the cycle outcome in {ptx_allows}/{} tests",
        tests.len()
    );
    println!(
        "SC allows it in {sc_allows}/{} (cycles are non-SC by construction)\n",
        tests.len()
    );
    assert_eq!(sc_allows, 0);

    // Run a sample on the Titan profile and verify soundness: every
    // observation must be PTX-allowed (the paper's Sec. 5.4 validation).
    let cfg = CampaignConfig::default();
    let mut weak_observed = 0;
    for test in tests.iter().take(40) {
        let cell = CellSpec::new(test.clone(), Chip::GtxTitan).iterations(3_000);
        let report = run_test(&cell, &cfg)?;
        let verdict = model_outcomes(test, &ptx, &Default::default())?;
        let soundness = check_soundness(&cell, &cfg, &verdict)?;
        assert!(
            soundness.is_sound(),
            "{}: forbidden observation {:?}",
            test.name(),
            soundness.violations
        );
        if report.witnesses > 0 {
            weak_observed += 1;
        }
    }
    println!("ran 40 tests on GTX Titan: all sound; {weak_observed} exhibited their weak outcome");

    // Show one generated test in full: the mp shape (write pair vs read
    // pair joined by Rfe/Fre), whatever rotation named it.
    let show = tests
        .iter()
        .find(|t| {
            let n = t.name();
            n.contains("PodWW") && n.contains("PodRR") && n.contains("Rfe") && n.contains("Fre")
        })
        .expect("the mp cycle is generated");
    println!("\nexample generated test:\n\n{show}");
    Ok(())
}
