//! Fig. 8 — `dlb-lb`: the load-buffering bug in the Cederman–Tsigas
//! deque. A steal reads a task pushed *after* the pop that emptied the
//! deque.
//!
//! Shape to reproduce: observed on Fermi/Kepler and massively on GCN 1.0;
//! the HD6570 column is `n/a` because the TeraScale 2 OpenCL compiler
//! reorders the load and the CAS (detected here by `optcheck`/the AMD
//! compile report); the fences forbid it everywhere.

use weakgpu_bench::{paper, print_figure, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    print_figure(&paper::FIG8, &args);
}
