//! Shared machinery for the experiment binaries in `src/bin/`: the table
//! of the paper's numbers, a tiny CLI, and the figure runner.
//!
//! Every binary regenerates one table or figure of the paper. Absolute
//! counts come from the simulator's calibrated chip profiles; the claims
//! to check are the *shapes* — which chips exhibit a behaviour, which
//! fences suppress it, and rough orders of magnitude (README, "Reproduce
//! the paper").

pub mod cli;
pub mod naive;
pub mod paper;
pub mod run;

pub use cli::BenchArgs;
pub use run::{print_figure, run_cells, Measured};
