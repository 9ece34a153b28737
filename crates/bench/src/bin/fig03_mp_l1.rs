//! Fig. 3 — `mp-L1`: message passing with `.ca` loads, per fence scope,
//! on the Nvidia chips; plus the Sec. 3.1.2 AMD OpenCL mp results.
//!
//! Shape to reproduce: no fence suppresses the weak behaviour on the
//! Tesla C2075 (its L1 ignores fences); `membar.gl` suppresses it on every
//! other Nvidia chip; on AMD, fences work on TeraScale 2 but the GCN 1.0
//! compiler removes the fence between the loads, so the behaviour remains.

use weakgpu_bench::{paper, print_figure, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    print_figure(&paper::FIG3, &args);
    print_figure(&paper::SEC3_1_2, &args);
}
