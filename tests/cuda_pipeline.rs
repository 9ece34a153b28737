//! End-to-end: the paper's Fig. 2 CUDA lock, expressed in the mini-CUDA
//! layer, compiled through the Tab. 5 mapping, and run on the simulator —
//! reproducing the cas-sl result from source-level CUDA rather than from
//! the hand-distilled PTX.

use weakgpu::harness::{run_test, CampaignConfig, CellSpec};
use weakgpu::litmus::cuda::{
    compile_thread, cuda_by_example_lock, cuda_by_example_unlock, var_register, CudaExpr, CudaStmt,
};
use weakgpu::litmus::{FinalExpr, LitmusTest, Loc, Predicate, ThreadScope};
use weakgpu::sim::chip::{Chip, Incantations};

/// Builds the critical-section test from CUDA source: T0 writes data and
/// unlocks; T1 locks and reads the data. Weak outcome: lock acquired yet
/// stale data read.
fn lock_test(fenced: bool) -> LitmusTest {
    let mut t0 = vec![CudaStmt::Store {
        loc: Loc::new("x"),
        value: CudaExpr::Lit(1),
        volatile: false,
    }];
    t0.extend(cuda_by_example_unlock(fenced));

    let mut t1 = cuda_by_example_lock(fenced);
    t1.push(CudaStmt::Load {
        var: "data".into(),
        loc: Loc::new("x"),
        volatile: false,
    });
    let regs = var_register(&t1);
    let data = regs["data"].clone();

    LitmusTest::builder(if fenced {
        "fig2-lock+fences"
    } else {
        "fig2-lock"
    })
    .global("x", 0)
    .global("mutex", 1) // T0 holds the lock initially, as in cas-sl
    .thread(compile_thread(&t0))
    .thread(compile_thread(&t1))
    .scope(ThreadScope::InterCta)
    .exists(Predicate::Eq(FinalExpr::Reg(1, data), 0))
    .build()
    .unwrap()
}

fn stale_reads(test: &LitmusTest, chip: Chip) -> u64 {
    let cell = CellSpec::new(test.clone(), chip)
        .iterations(60_000)
        .incantations(Incantations::best_inter_cta())
        .seed(0xcdaa);
    run_test(&cell, &CampaignConfig::default())
        .unwrap()
        .witnesses
}

#[test]
fn fig2_lock_from_cuda_source_reads_stale_data() {
    // The spin loop means T1 only finishes once it *has* the lock, so any
    // witness is a stale read inside the critical section.
    let buggy = lock_test(false);
    assert!(
        stale_reads(&buggy, Chip::GtxTitan) > 0,
        "the Fig. 2 lock must read stale data on Kepler"
    );
    assert!(stale_reads(&buggy, Chip::RadeonHd7970) > 0);
    assert_eq!(
        stale_reads(&buggy, Chip::Gtx280),
        0,
        "no weak behaviour on the GTX 280"
    );
}

#[test]
fn fig2_lock_with_erratum_fences_is_correct() {
    let fixed = lock_test(true);
    for chip in [Chip::GtxTitan, Chip::TeslaC2075, Chip::RadeonHd7970] {
        assert_eq!(
            stale_reads(&fixed, chip),
            0,
            "{chip}: the erratum's fences must fix the lock"
        );
    }
}

#[test]
fn compiled_lock_passes_optcheck() {
    // The Tab. 5 output survives a clean -O3 compile untouched.
    let report =
        weakgpu::optcheck::check_test(&lock_test(true), &weakgpu::optcheck::CompilerConfig::o3());
    assert!(report.consistent, "{:?}", report.issues);
}
