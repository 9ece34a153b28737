//! Smoke tests keeping the figure/table reproduction binaries runnable:
//! a binary must produce its table and exit 0 at a CI-friendly iteration
//! count.

use std::process::Command;

#[test]
fn fig01_corr_runs_and_prints_its_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig01_corr"))
        .args(["--iterations", "500", "--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success(), "fig01_corr exited {:?}", out.status);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Fig. 1"), "missing table header:\n{text}");
    assert!(text.contains("coRR"), "missing coRR row:\n{text}");
}

#[test]
fn fig01_corr_help_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig01_corr"))
        .arg("--help")
        .output()
        .unwrap();
    assert!(out.status.success(), "--help exited {:?}", out.status);
}

#[test]
fn fig03_prints_no_paper_count_for_the_hd7970_fenced_mp() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig03_mp_l1"))
        .args(["--iterations", "200", "--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success(), "fig03_mp_l1 exited {:?}", out.status);
    let text = String::from_utf8(out.stdout).unwrap();
    // The GCN 1.0 compiler drops the fence between the loads; the paper
    // says the behaviour remains but gives no count.
    let row = text
        .lines()
        .find(|l| l.starts_with("HD7970 fenced (1 fences removed by compiler) (paper)"))
        .unwrap_or_else(|| panic!("missing the HD7970 fenced paper row:\n{text}"));
    assert!(row.trim_end().ends_with("n/a"), "{row}");
    assert!(
        text.contains("HD6570 fenced (0 fences removed by compiler) (sim)"),
        "{text}"
    );
}
