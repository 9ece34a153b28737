//! Ablation (paper Secs. 5.2 and 6) — which of the PTX model's relaxations are
//! *forced* by hardware observations?
//!
//! Three variants of the model face the simulated-chip observations:
//!
//! * the full paper model (Figs. 15+16) — sound everywhere;
//! * the model without the load-load hazard — goes unsound on `coRR`,
//!   so excluding read-read pairs from SC-per-location is necessary;
//! * unscoped RMO / the operational baseline — goes unsound on the
//!   inter-CTA `lb+membar.ctas`, so the per-scope stratification is
//!   necessary (the paper's Sec. 6 argument).

use weakgpu_axiom::enumerate::{model_outcomes, EnumConfig};
use weakgpu_axiom::Model;
use weakgpu_bench::BenchArgs;
use weakgpu_harness::campaign::{default_incantations, CampaignConfig, CellSpec};
use weakgpu_harness::soundness::check_soundness;
use weakgpu_litmus::{corpus, FenceScope, LitmusTest, ThreadScope};
use weakgpu_models::{operational_baseline, ptx_model, ptx_model_without_llh, rmo_model};
use weakgpu_sim::chip::Chip;

fn main() {
    let args = BenchArgs::parse();
    let witnesses: Vec<(&str, LitmusTest)> = vec![
        ("coRR (Fig. 1)", corpus::corr()),
        (
            "lb+membar.ctas (Sec. 6)",
            corpus::lb(ThreadScope::InterCta, Some(FenceScope::Cta)),
        ),
        ("mp unfenced", corpus::mp(ThreadScope::InterCta, None)),
    ];
    let models: Vec<Box<dyn Model>> = vec![
        Box::new(ptx_model()),
        Box::new(ptx_model_without_llh()),
        Box::new(rmo_model()),
        Box::new(operational_baseline()),
    ];

    println!("== Ablation: axiom necessity (observations on GTX Titan) ==\n");
    print!("{:<26}", "observation \\ model");
    for m in &models {
        print!("  {:>22}", m.name());
    }
    println!();
    let enum_cfg = EnumConfig::default();
    let mut necessity_shown = [false; 2];
    for (label, test) in &witnesses {
        // Every model faces the same runs: one seed, one cell.
        let spec = CellSpec::new(test.clone(), Chip::GtxTitan)
            .iterations(args.iterations.max(150_000))
            .incantations(default_incantations(test))
            .seed(args.seed);
        print!("{label:<26}");
        for (mi, model) in models.iter().enumerate() {
            let outcomes = model_outcomes(test, model.as_ref(), &enum_cfg).unwrap();
            let verdict = check_soundness(&spec, &CampaignConfig::default(), &outcomes).unwrap();
            let cell = if verdict.is_sound() {
                "sound"
            } else {
                "UNSOUND"
            };
            print!("  {cell:>22}");
            if !verdict.is_sound() && mi == 1 && label.starts_with("coRR") {
                necessity_shown[0] = true;
            }
            if !verdict.is_sound() && mi >= 2 && label.starts_with("lb+") {
                necessity_shown[1] = true;
            }
        }
        println!();
    }
    println!(
        "\n=> the load-load hazard is necessary (coRR): {}",
        necessity_shown[0]
    );
    println!(
        "=> the scope stratification is necessary (lb+membar.ctas): {}",
        necessity_shown[1]
    );
    assert!(necessity_shown[0] && necessity_shown[1]);
}
