//! The spin-lock study of the paper's Secs. 1 and 3.2 as a *running
//! program*, not just a distilled litmus test: a CUDA-by-Example-style
//! lock protects a shared counter; without fences the increments get lost
//! on weak chips (the wrong dot product of Sec. 3.2.2), with the erratum's
//! fences they never do. Each kernel on each chip is one `CellSpec`.
//!
//! ```sh
//! cargo run --release --example spinlock
//! ```

use weakgpu::harness::{run_test, CampaignConfig, CellSpec};
use weakgpu::litmus::{build::*, Instr, LitmusTest, Predicate, ThreadScope};
use weakgpu::sim::chip::{Chip, Incantations};

/// Builds an `n`-thread kernel where every thread acquires a global spin
/// lock, increments a shared counter with plain loads/stores, and
/// releases. The final condition checks the counter holds `n`.
fn lock_kernel(n: usize, fenced: bool) -> LitmusTest {
    let mut builder = LitmusTest::builder(if fenced {
        "lock-counter+fences"
    } else {
        "lock-counter"
    })
    .global("m", 0) // mutex, 0 = free
    .global("c", 0); // the protected counter
    for _ in 0..n {
        let mut code: Vec<Instr> = vec![
            label("SPIN"),
            cas("r0", "m", 0, 1), // while (atomicCAS(m,0,1) != 0);
            setp_ne("p", reg("r0"), imm(0)),
            bra("SPIN").guarded("p", true),
        ];
        if fenced {
            code.push(membar_gl()); // __threadfence() after acquire (+)
        }
        code.extend([
            ld("r1", "c"), // critical section: c = c + 1
            add("r1", reg("r1"), imm(1)),
            st_reg("c", "r1"),
        ]);
        if fenced {
            code.push(membar_gl()); // __threadfence() before release (+)
        }
        code.push(exch("r2", "m", 0)); // atomicExch(m, 0)
        builder = builder.thread(code);
    }
    builder
        .scope(ThreadScope::InterCta)
        .exists(Predicate::mem_eq("c", n as i64))
        .build()
        .expect("kernel is a valid litmus program")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const THREADS: usize = 4;
    const RUNS: usize = 20_000;
    println!(
        "{} threads, each: lock; c++; unlock — final c must be {THREADS}\n",
        THREADS
    );
    println!(
        "{:<14} {:>18} {:>18}",
        "chip", "lost-update runs", "with (+) fences"
    );
    for chip in [
        Chip::Gtx280,
        Chip::TeslaC2075,
        Chip::GtxTitan,
        Chip::RadeonHd6570,
        Chip::RadeonHd7970,
    ] {
        let run = |fenced| {
            let cell = CellSpec::new(lock_kernel(THREADS, fenced), chip)
                .iterations(RUNS)
                .incantations(Incantations::best_inter_cta())
                .seed(0x10c4);
            run_test(&cell, &CampaignConfig::default())
        };
        let buggy = run(false)?;
        let fixed = run(true)?;
        // `witnesses` counts runs where c == THREADS; losses are the rest.
        let lost = RUNS as u64 - buggy.witnesses;
        let lost_fixed = RUNS as u64 - fixed.witnesses;
        println!(
            "{:<14} {:>14}/{RUNS} {:>14}/{RUNS}",
            chip.short(),
            lost,
            lost_fixed
        );
        assert_eq!(lost_fixed, 0, "the erratum's fences must fix the lock");
    }
    println!(
        "\nNvidia's erratum (after this paper): the lock \"did not consider\n\
         [weak behaviours] and requires the addition of __threadfence()\n\
         instructions … to ensure stale values are not read\""
    );
    Ok(())
}
