//! Runs every experiment binary's logic in sequence (at reduced default
//! iteration counts unless `--full`), regenerating all the paper's tables
//! and figures in one go (README, "Reproduce the paper").
//!
//! All common flags (`--iterations`/`-n`, `--seed`, `--parallelism`,
//! `--full` — see `weakgpu_bench::cli::USAGE`) are forwarded verbatim to
//! every experiment; the underlying binaries run their cells on the
//! harness's campaign engine, so for a fixed seed the regenerated numbers
//! are bit-identical on any machine at any `--parallelism`.

use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("runs every experiment binary in sequence, forwarding flags:");
        println!("{}", weakgpu_bench::cli::USAGE);
        return;
    }
    let exe = std::env::current_exe().expect("current exe path");
    let dir = exe.parent().expect("bin directory");
    let experiments = [
        "fig01_corr",
        "fig03_mp_l1",
        "fig04_corr_l2_l1",
        "fig05_mp_volatile",
        "fig07_dlb_mp",
        "fig08_dlb_lb",
        "fig09_cas_sl",
        "fig11_sl_future",
        "tab02_summary",
        "tab06_incantations",
        "sec6_opmodel",
        "fig13_deps",
        "ablation_naive",
        "ablation_axioms",
        "tab_validation",
    ];
    for name in experiments {
        let path = dir.join(name);
        println!("\n########## {name} ##########\n");
        let status = Command::new(&path)
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        if !status.success() {
            eprintln!("{name} FAILED with {status}");
            std::process::exit(1);
        }
    }
    println!("\nAll experiments completed.");
}
