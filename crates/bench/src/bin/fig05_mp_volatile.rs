//! Fig. 5 — `mp-volatile`: `.volatile` accesses in shared memory,
//! intra-CTA.
//!
//! Shape to reproduce: contrary to the PTX manual, `.volatile` does not
//! restore SC — Fermi and Kepler exhibit the weak outcome by the
//! thousands; Maxwell does not.

use weakgpu_bench::{paper, print_figure, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    print_figure(&paper::FIG5, &args);
}
