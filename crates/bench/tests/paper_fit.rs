//! How closely the simulator fits the paper: every table cell with a
//! paper count runs at 10,000 iterations and one fixed seed, in one
//! campaign, and the test prints paper, sim and ln(sim/paper) per cell
//! (`cargo test -p weakgpu-bench --test paper_fit -- --nocapture`).
//!
//! Two figures are held to bounds recorded from the first run, which
//! later changes may only tighten:
//!
//! * the worst |ln(sim/paper)| over the cells where the paper counts at
//!   least 100;
//! * the largest sim count over the cells where the paper counts 0.
//!
//! A sim count of 0 against a nonzero paper count is scored as half a
//! witnessing run, 0.5 × 100,000 / 10,000 = 5 obs/100k, so the ratio stays
//! finite and a missing behaviour still scores as a large misfit.

use weakgpu_bench::paper::{Cell, Paper, FIGURES};
use weakgpu_bench::{run_cells, BenchArgs};

const ITERATIONS: usize = 10_000;

/// Worst |ln(sim/paper)| where the paper counts ≥ 100, at the first run.
const MAX_LN_RATIO: f64 = 3.39;

/// Largest sim count where the paper counts 0, at the first run.
const MAX_SIM_WHERE_PAPER_IS_ZERO: u64 = 5170;

#[test]
fn simulator_fits_the_paper_within_recorded_bounds() {
    let (figures, cells): (Vec<&str>, Vec<Cell>) = FIGURES
        .iter()
        .flat_map(|fig| fig.cells().map(|cell| (fig.title, cell)))
        .filter(|(_, cell)| matches!(cell.paper, Paper::Count(_)))
        .unzip();
    let args = BenchArgs {
        iterations: ITERATIONS,
        seed: 0x5eed,
        parallelism: None,
        full: false,
    };
    let zero_score = 0.5 * 100_000.0 / ITERATIONS as f64;
    let mut worst_ratio = (0.0_f64, String::new());
    let mut worst_zero = (0_u64, String::new());
    let measured = run_cells(&cells, &args);
    for ((title, cell), measured) in figures.iter().zip(&cells).zip(measured) {
        let Paper::Count(paper) = cell.paper else {
            unreachable!()
        };
        let sim = measured.obs.expect("every cell with a paper count runs");
        let figure = title.split(':').next().unwrap();
        let name = format!(
            "{figure} / {} / {} c{}",
            cell.row.label,
            cell.chip.short(),
            cell.column
        );
        let ln = if paper == 0 {
            None
        } else {
            let sim = if sim == 0 { zero_score } else { sim as f64 };
            Some((sim / paper as f64).ln())
        };
        match ln {
            Some(ln) => println!("{name:<52} paper {paper:>6}  sim {sim:>6}  ln {ln:+.2}"),
            None => println!("{name:<52} paper {paper:>6}  sim {sim:>6}"),
        }
        if let Some(ln) = ln.filter(|_| paper >= 100) {
            if ln.abs() > worst_ratio.0 {
                worst_ratio = (ln.abs(), name.clone());
            }
        }
        if paper == 0 && sim > worst_zero.0 {
            worst_zero = (sim, name);
        }
    }
    println!(
        "worst |ln(sim/paper)| where the paper counts >= 100: {:.3} ({})",
        worst_ratio.0, worst_ratio.1
    );
    println!(
        "largest sim count where the paper counts 0: {} ({})",
        worst_zero.0, worst_zero.1
    );
    assert!(
        worst_ratio.0 <= MAX_LN_RATIO,
        "|ln(sim/paper)| {:.3} at {} exceeds the recorded {MAX_LN_RATIO}",
        worst_ratio.0,
        worst_ratio.1
    );
    assert!(
        worst_zero.0 <= MAX_SIM_WHERE_PAPER_IS_ZERO,
        "sim count {} at {} where the paper counts 0 exceeds the recorded {MAX_SIM_WHERE_PAPER_IS_ZERO}",
        worst_zero.0,
        worst_zero.1
    );
}
