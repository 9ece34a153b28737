//! Fig. 4 — `coRR-L2-L1`: mixed cache operators, per fence scope.
//!
//! Shape to reproduce: on the Tesla C2075 no fence restores reliable L1
//! reads after an L2 read; on the GTX 540m only `membar.gl` does; Kepler
//! chips show a small unfenced residue; Maxwell shows nothing.

use weakgpu_bench::{paper, print_figure, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    print_figure(&paper::FIG4, &args);
}
