//! Fig. 9 — `cas-sl`: the CUDA-by-Example spin lock reads stale values
//! inside its critical section; the Stuart–Owens `exch-sl` variant fails
//! the same way (Tab. 2).
//!
//! Shape to reproduce: stale reads on Fermi/Kepler and both AMD chips;
//! none on GTX5/Maxwell; the added fences eliminate them (the erratum
//! Nvidia published).

use weakgpu_bench::{paper, print_figure, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    print_figure(&paper::FIG9, &args);
}
