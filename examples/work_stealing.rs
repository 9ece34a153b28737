//! The Cederman–Tsigas work-stealing deque study (paper Sec. 3.2.1):
//! the two fenceless bugs (`dlb-mp`: a steal reads a stale task;
//! `dlb-lb`: a steal reads a task pushed after the pop that emptied the
//! deque), plus the TeraScale 2 compiler making the test itself
//! meaningless. Every chip column is one `CellSpec` of 100k iterations
//! at the best inter-CTA incantations.
//!
//! ```sh
//! cargo run --release --example work_stealing
//! ```

use weakgpu::axiom::enumerate::{model_outcomes, EnumConfig};
use weakgpu::harness::{run_test, CampaignConfig, CellSpec};
use weakgpu::litmus::{corpus, LitmusTest};
use weakgpu::optcheck::{amd_compile, AmdTarget};
use weakgpu::sim::chip::{Chip, Incantations};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Every cell: 100k iterations at the best inter-CTA column.
    let obs = |test: &LitmusTest, chip| {
        let cell = CellSpec::new(test.clone(), chip).incantations(Incantations::best_inter_cta());
        run_test(&cell, &CampaignConfig::default()).map(|r| r.obs_per_100k())
    };

    println!("deque bug 1 — dlb-mp (steal sees incremented tail, stale task):\n");
    for fenced in [false, true] {
        let test = corpus::dlb_mp(fenced);
        print!("{:<22}", test.name());
        for chip in [Chip::TeslaC2075, Chip::Gtx660, Chip::GtxTitan, Chip::Gtx750] {
            print!("  {}:{:>5}", chip.short(), obs(&test, chip)?);
        }
        println!();
    }

    println!("\ndeque bug 2 — dlb-lb (steal reads a later push; a task is lost):\n");
    for fenced in [false, true] {
        let test = corpus::dlb_lb(fenced);
        print!("{:<22}", test.name());
        for chip in [Chip::TeslaC2075, Chip::GtxTitan, Chip::RadeonHd7970] {
            print!("  {}:{:>6}", chip.short(), obs(&test, chip)?);
        }
        println!();
    }

    // On the HD6570 the OpenCL compiler reorders the steal's load and CAS:
    // the binary no longer measures dlb-lb at all (the paper's "n/a").
    let (compiled, report) = amd_compile(&corpus::dlb_lb(false), AmdTarget::TeraScale2);
    println!(
        "\nHD6570: compiler reordered {} load/CAS pair(s); test meaningful: {}",
        report.load_cas_reordered,
        report.test_is_meaningful()
    );
    println!(
        "  (the compiled T1 begins with {:?})",
        compiled.threads()[1][0]
    );

    // The model agrees with the fix: fenced variants are forbidden.
    let model = weakgpu::models::ptx_model();
    for fenced in [false, true] {
        let t = corpus::dlb_lb(fenced);
        let v = model_outcomes(&t, &model, &EnumConfig::default())?;
        println!(
            "model verdict for {:<22} {}",
            t.name(),
            if v.condition_witnessed {
                "ALLOWED"
            } else {
                "FORBIDDEN"
            }
        );
    }
    Ok(())
}
