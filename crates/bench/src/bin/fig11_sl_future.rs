//! Fig. 11 — `sl-future`: the He–Yu transaction lock lets a critical
//! section read a value written by the *next* critical section, breaking
//! isolation.
//!
//! Shape to reproduce: future reads on Fermi (TesC) and Kepler; none on
//! GTX5/Maxwell; AMD untestable (the OpenCL compiler places fences
//! automatically); the corrected lock (fences at entry/exit, exchange
//! release) eliminates the behaviour.

use weakgpu_bench::{paper, print_figure, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    print_figure(&paper::FIG11, &args);
}
