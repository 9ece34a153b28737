//! Ablation — mechanism vs naive outcome sampling (README, "Reproduce the
//! paper").
//!
//! Replacing the operational machine with a uniform sampler over value
//! domains produces outcomes the PTX model forbids (it knows nothing of
//! coherence, atomicity or fences), while the machine's observations stay
//! inside the model. This justifies simulating the *mechanism*.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use weakgpu_axiom::enumerate::model_outcomes;
use weakgpu_bench::naive::naive_outcome;
use weakgpu_bench::BenchArgs;
use weakgpu_harness::campaign::{CampaignConfig, CellSpec};
use weakgpu_harness::soundness::check_soundness;
use weakgpu_litmus::{corpus, ThreadScope};
use weakgpu_models::ptx_model;
use weakgpu_sim::chip::{Chip, Incantations};

fn main() {
    let args = BenchArgs::parse();
    let n = args.iterations.min(20_000);
    let model = ptx_model();
    println!("== Ablation: operational machine vs naive sampler ({n} runs/test) ==\n");
    // The machine's forbidden outcomes, judged as every sweep cell is,
    // against the naive sampler's violating runs.
    println!(
        "{:<22} {:>22} {:>22}",
        "test", "machine violations", "naive violations"
    );
    let mut machine_total = 0u64;
    let mut naive_total = 0u64;
    for test in [
        corpus::corr(),
        corpus::mp(ThreadScope::InterCta, None),
        corpus::cas_sl(true),
        corpus::sl_future(true),
        corpus::dlb_lb(true),
    ] {
        let verdict = model_outcomes(&test, &model, &Default::default()).unwrap();
        // Machine.
        let cell = CellSpec::new(test.clone(), Chip::GtxTitan)
            .iterations(n)
            .incantations(Incantations::best_inter_cta())
            .seed(args.seed);
        let sound = check_soundness(&cell, &CampaignConfig::default(), &verdict).unwrap();
        let machine_viol = sound.violations.len() as u64;
        // Naive sampler.
        let mut rng = SmallRng::seed_from_u64(args.seed);
        let naive_viol = (0..n)
            .filter(|_| {
                let o = naive_outcome(&test, &mut rng);
                !verdict.allowed_outcomes.contains(&o)
            })
            .count() as u64;
        machine_total += machine_viol;
        naive_total += naive_viol;
        println!("{:<22} {machine_viol:>22} {naive_viol:>22}", test.name());
    }
    println!("\nTOTAL machine violations: {machine_total}  |  naive violations: {naive_total}");
    assert_eq!(machine_total, 0, "the machine must stay model-sound");
    assert!(naive_total > 0, "the naive sampler must violate the model");
}
