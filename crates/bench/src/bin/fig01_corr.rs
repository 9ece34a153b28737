//! Fig. 1 — the `coRR` read-read coherence test across all chips.
//!
//! Shape to reproduce: Fermi and Kepler exhibit thousands of violations
//! per 100k; Maxwell and both AMD chips exhibit none.

use weakgpu_bench::{paper, print_figure, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    print_figure(&paper::FIG1, &args);
}
