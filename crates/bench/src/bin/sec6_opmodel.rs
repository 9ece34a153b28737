//! Sec. 6 — the operational model of Sorensen et al. is unsound: it
//! forbids inter-CTA `lb+membar.ctas`, which hardware exhibits (586/100k
//! on GTX Titan, 19/100k on GTX 660). The paper's axiomatic model allows
//! it.

use weakgpu_axiom::enumerate::model_outcomes;
use weakgpu_bench::paper::{Cell, SEC6};
use weakgpu_bench::{run_cells, BenchArgs};
use weakgpu_models::{operational_baseline, ptx_model};

fn main() {
    let args = BenchArgs::parse();
    let test = (SEC6.rows[0].test)();
    println!("== {} ==\n", SEC6.title);

    let ptx = model_outcomes(&test, &ptx_model(), &Default::default()).unwrap();
    let op = model_outcomes(&test, &operational_baseline(), &Default::default()).unwrap();
    println!(
        "paper's axiomatic model: {}",
        if ptx.condition_witnessed {
            "ALLOWED"
        } else {
            "FORBIDDEN"
        }
    );
    println!(
        "operational baseline:    {}",
        if op.condition_witnessed {
            "ALLOWED"
        } else {
            "FORBIDDEN"
        }
    );

    println!("\nobservations (obs/100k):");
    let cells: Vec<Cell> = SEC6.cells().collect();
    for (cell, measured) in cells.iter().zip(run_cells(&cells, &args)) {
        let (name, paper) = (cell.chip.short(), cell.paper);
        println!("  {name:<8} paper {paper:>6}   sim {measured:>6}");
    }
    println!(
        "\n=> the behaviour is observed, so the operational baseline is unsound \
         (paper model allows it: {})",
        ptx.condition_witnessed
    );
    assert!(ptx.condition_witnessed && !op.condition_witnessed);
}
