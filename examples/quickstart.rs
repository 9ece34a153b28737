//! Quickstart: write a litmus test, run it on simulated GPUs, and check it
//! against the paper's PTX memory model. Each run is one cell, a
//! `CellSpec` (test, chip, incantations, iterations, seed), handed to
//! `harness::run_test`; `harness::check_soundness` runs the same cell and
//! judges its observations against a model's verdict.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use weakgpu::axiom::enumerate::{model_outcomes, EnumConfig};
use weakgpu::harness::{check_soundness, run_test, CampaignConfig, CellSpec};
use weakgpu::litmus::{build::*, LitmusTest, Predicate, ScopeTree};
use weakgpu::models::{ptx_model, sc_model};
use weakgpu::sim::chip::Chip;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the message-passing test of the paper's Fig. 14: T0
    //    publishes data `x` then sets flag `y` behind a cta-scope fence;
    //    T1 reads the flag then the data behind a gl-scope fence.
    let mp = LitmusTest::builder("mp+membar.cta+membar.gl")
        .doc("the mp execution drawn in the paper's Fig. 14")
        .global("x", 0)
        .global("y", 0)
        .thread([st("x", 1), membar_cta(), st("y", 1)])
        .thread([ld("r0", "y"), membar_gl(), ld("r2", "x")])
        .scope_tree(ScopeTree::intra_cta(2))
        .exists(Predicate::reg_eq(1, "r0", 1).and(Predicate::reg_eq(1, "r2", 0)))
        .build()?;

    // The textual litmus format (parseable with litmus::parser::parse).
    println!("{mp}\n");

    // 2. Ask the axiomatic models about it. Intra-CTA, with a cta fence on
    //    the write side and a gl fence on the read side, the cycle closes
    //    in rmo-cta: the PTX model forbids the weak outcome.
    let enum_cfg = EnumConfig::default();
    for model in [ptx_model(), sc_model()] {
        let verdict = model_outcomes(&mp, &model, &enum_cfg)?;
        println!(
            "{:<16} {} candidate executions, {} allowed — weak outcome {}",
            weakgpu::axiom::Model::name(&model),
            verdict.num_candidates,
            verdict.num_allowed,
            if verdict.condition_witnessed {
                "ALLOWED"
            } else {
                "FORBIDDEN"
            }
        );
    }

    // 3. Run it on simulated chips, one cell each at the paper's setup
    //    (100k iterations, every incantation on): nothing should show up.
    println!();
    let cfg = CampaignConfig::default();
    for chip in [Chip::GtxTitan, Chip::TeslaC2075, Chip::RadeonHd7970] {
        let report = run_test(&CellSpec::new(mp.clone(), chip), &cfg)?;
        println!(
            "{:<16} obs {:>6}/100k    ({} distinct outcomes)",
            chip.short(),
            report.obs_per_100k(),
            report.histogram.distinct()
        );
    }

    // 4. Now drop the fences: the weak outcome appears on weak chips, and
    //    the PTX model (which must stay sound) allows it.
    let unfenced = weakgpu::litmus::corpus::mp(weakgpu::litmus::ThreadScope::IntraCta, None);
    let verdict = model_outcomes(&unfenced, &ptx_model(), &enum_cfg)?;
    println!("\nwithout fences:");
    for chip in [Chip::GtxTitan, Chip::Gtx280] {
        let cell = CellSpec::new(unfenced.clone(), chip);
        let report = run_test(&cell, &cfg)?;
        let soundness = check_soundness(&cell, &cfg, &verdict)?;
        println!(
            "{:<16} obs {:>6}/100k    model-sound: {}",
            chip.short(),
            report.obs_per_100k(),
            soundness.is_sound()
        );
    }
    Ok(())
}
