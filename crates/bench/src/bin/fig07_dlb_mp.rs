//! Fig. 7 — `dlb-mp`: the message-passing bug distilled from the
//! Cederman–Tsigas work-stealing deque. A steal can observe the
//! incremented `tail` yet read a stale task — the deque loses a task.
//!
//! Shape to reproduce: observed on Fermi (TesC) and Kepler (GTX6, Titan)
//! at tens per 100k; absent on GTX5, Maxwell and AMD; the `(+)` fences
//! eliminate it everywhere.

use weakgpu_bench::{paper, print_figure, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    print_figure(&paper::FIG7, &args);
}
