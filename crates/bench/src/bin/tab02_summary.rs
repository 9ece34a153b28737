//! Tab. 2 — the ten issues revealed by the study, re-established
//! end-to-end: each row names the affected component, the witnessing
//! experiment, and whether this reproduction confirms it.

use weakgpu_bench::paper::{Cell, Figure, FIG1, FIG11, FIG3, FIG4, FIG5, FIG7, FIG8, FIG9};
use weakgpu_bench::{run_cells, BenchArgs};
use weakgpu_litmus::FenceScope;
use weakgpu_litmus::{corpus, ThreadScope};
use weakgpu_optcheck::deps::{dependency_survives, load_load_dep, DepScheme};
use weakgpu_optcheck::{amd_compile, AmdTarget, CompilerBug, CompilerConfig};
use weakgpu_sim::chip::Chip;

fn main() {
    let args = BenchArgs::parse();
    println!("== Tab. 2: summary of the issues revealed by the study ==\n");
    let mut confirmed = 0;
    let mut total = 0;
    let mut row = |affected: &str, test: &str, comment: &str, ok: bool| {
        total += 1;
        confirmed += ok as usize;
        println!(
            "{:<28} {:<18} {:<46} {}",
            affected,
            test,
            comment,
            if ok { "CONFIRMED" } else { "NOT REPRODUCED" }
        );
    };

    // Issues 1–7 are confirmed by simulated runs of paper-table cells, all
    // in one campaign: an issue holds when any of its cells witnesses it
    // (issue 2: every cell, one per fence-immune test).
    let cell = |figure: &'static Figure, label: &str, chip: Chip| {
        let mut cells = figure.cells();
        cells
            .find(|c| c.row.label == label && c.chip == chip)
            .expect("a paper-table cell")
    };
    let (tesc, titan) = (Chip::TeslaC2075, Chip::GtxTitan);
    #[rustfmt::skip]
    let observed = [
        ("Fermi/Kepler architectures", "coRR", "sparks debate for CPUs", false,
         Vec::from([Chip::Gtx540m, tesc, Chip::Gtx660, titan].map(|c| cell(&FIG1, "coRR", c)))),
        ("Fermi architecture", "mp-L1, coRR-L2-L1", "fences do not restore orderings", true,
         vec![cell(&FIG3, "membar.sys", tesc), cell(&FIG4, "membar.sys", tesc)]),
        ("PTX ISA", "mp-volatile", "volatile documentation disagrees with testing", false,
         vec![cell(&FIG5, "mp-volatile", Chip::Gtx540m)]),
        ("GPU Computing Gems", "dlb-lb, dlb-mp", "fenceless deque allows items to be skipped",
         false, vec![cell(&FIG8, "dlb-lb", titan), cell(&FIG7, "dlb-mp", titan)]),
        ("CUDA by Example", "cas-sl", "fenceless lock allows stale values to be read", false,
         vec![cell(&FIG9, "cas-sl", titan)]),
        ("Stuart-Owens lock", "exch-sl", "fenceless lock allows stale values to be read", false,
         vec![cell(&FIG9, "exch-sl", titan)]),
        ("He-Yu lock", "sl-future", "lock allows future values to be read", false,
         vec![cell(&FIG11, "sl-future", tesc)]),
    ];
    let cells: Vec<Cell> = observed.iter().flat_map(|issue| issue.4.clone()).collect();
    let mut obs = run_cells(&cells, &args).into_iter();
    for (affected, test, comment, every, cells) in &observed {
        let witnessed: Vec<bool> = obs
            .by_ref()
            .take(cells.len())
            .map(|m| m.obs > Some(0))
            .collect();
        let ok = if *every {
            witnessed.iter().all(|&w| w)
        } else {
            witnessed.contains(&true)
        };
        row(affected, test, comment, ok);
    }

    // 8. CUDA 5.5 compiler reorders volatile loads to the same address —
    // caught by optcheck on a volatile coRR (Sec. 4.4).
    let volatile_corr = {
        use weakgpu_litmus::build::*;
        use weakgpu_litmus::{LitmusTest, Predicate};
        LitmusTest::builder("coRR-volatile")
            .global("x", 0)
            .thread([st("x", 1)])
            .thread([ld_volatile("r1", "x"), ld_volatile("r2", "x")])
            .scope(ThreadScope::IntraCta)
            .exists(Predicate::reg_eq(1, "r1", 1).and(Predicate::reg_eq(1, "r2", 0)))
            .build()
            .expect("volatile coRR is valid")
    };
    let vol_report = weakgpu_optcheck::check_test(
        &volatile_corr,
        &CompilerConfig::o3().with_bug(CompilerBug::ReorderVolatileLoads),
    );
    row(
        "CUDA 5.5",
        "coRR",
        "compiler reorders volatile loads (optcheck)",
        !vol_report.consistent,
    );

    // 9. AMD GCN 1.0 compiler removes fences between loads.
    let fenced_mp = corpus::mp(ThreadScope::InterCta, Some(FenceScope::Gl));
    let (_, gcn) = amd_compile(&fenced_mp, AmdTarget::Gcn10);
    row(
        "AMD GCN 1.0",
        "mp",
        "compiler removes fences between loads",
        gcn.fences_removed > 0,
    );

    // 10. TeraScale 2 compiler reorders load and CAS.
    let (_, ts) = amd_compile(&corpus::dlb_lb(false), AmdTarget::TeraScale2);
    row(
        "AMD TeraScale 2",
        "dlb-lb",
        "compiler reorders load and CAS",
        ts.load_cas_reordered > 0,
    );

    // Bonus: Fig. 13a — ptxas -O3 erases xor-manufactured dependencies.
    let xor_dep = load_load_dep(DepScheme::Xor);
    row(
        "ptxas -O3 (Sec. 4.5)",
        "fig13a",
        "xor false dependencies optimised away",
        !dependency_survives(&xor_dep, &CompilerConfig::o3()),
    );

    println!("\n{confirmed}/{total} issues confirmed");
}
