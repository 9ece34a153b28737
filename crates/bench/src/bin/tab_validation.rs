//! Sec. 5.4 — validation of the PTX model: run a diy-generated test
//! family on the Nvidia chip profiles and verify that every observed
//! behaviour is allowed by the model ("experimentally sound w.r.t. our
//! 10 930 tests").
//!
//! Default: the small family (hundreds of tests) at reduced iteration
//! counts. `--full` escalates to the paper-scale family (≈ 17k tests).
//!
//! This binary is a thin front end over the `weakgpu_harness::sweep`
//! subsystem — the same engine behind `weakgpu sweep` and the CI shard
//! matrix: one campaign over all (test, chip) cells, per-cell soundness
//! against the PTX model with verdicts cached by test shape, and a
//! machine-checkable verdict (exit status 1 on any forbidden
//! observation).

use std::sync::atomic::{AtomicUsize, Ordering};

use weakgpu_bench::BenchArgs;
use weakgpu_diy::{generate, GenConfig};
use weakgpu_harness::sweep::{run_sweep_with, CellRecord, SweepConfig};
use weakgpu_sim::chip::Chip;

fn main() {
    let args = BenchArgs::parse();
    let family = if args.full { "paper" } else { "small" };
    let tests = generate(&GenConfig::named(family).expect("built-in family"));
    let iterations = if args.full {
        args.iterations
    } else {
        args.iterations.min(2_000)
    };
    let cfg = SweepConfig {
        family: family.to_owned(),
        shard: None,
        chips: Chip::NVIDIA_TABLED.to_vec(),
        iterations,
        seed: args.seed,
        parallelism: args.parallelism,
        cache_file: None,
        cache_readonly: false,
    };
    let total = tests.len() * cfg.chips.len();
    println!(
        "== Sec. 5.4: model validation — {} generated tests × {} runs × {} chips ==",
        tests.len(),
        iterations,
        cfg.chips.len()
    );

    let done = AtomicUsize::new(0);
    let report = run_sweep_with(&tests, &cfg, |_: &CellRecord| {
        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(2_000) {
            println!("  … {n}/{total} cells run");
        }
    })
    .unwrap_or_else(|e| panic!("sweep failed: {e}"))
    .report;

    let unsound_tests: std::collections::BTreeSet<&str> =
        report.unsound.iter().map(|u| u.test.as_str()).collect();
    println!(
        "\nsound: {}/{} tests ({} total runs; verdict cache {} hits / {} misses)",
        report.tests_run - unsound_tests.len() as u64,
        report.tests_run,
        report.total_runs(),
        report.cache.hits,
        report.cache.misses,
    );
    if report.is_sound() {
        println!("RESULT: the PTX model is experimentally sound w.r.t. this family");
    } else {
        println!(
            "RESULT: UNSOUND — {} cells with forbidden observations:",
            report.unsound_cells()
        );
        for u in report.unsound.iter().take(20) {
            println!("  {} on {}: {:?}", u.test, u.chip, u.outcomes);
        }
        std::process::exit(1);
    }
}
