//! Tab. 6 — the incantation ablation: observations for all 16
//! combinations of {memory stress, general bank conflicts, thread sync,
//! thread randomisation}, for coRR (intra-CTA) and lb/mp/sb (inter-CTA),
//! on the GTX Titan and the Radeon HD 7970.
//!
//! Shapes to reproduce (Sec. 4.3): on Nvidia, no inter-CTA weak behaviour
//! without memory stress; column 12 (stress+sync+rand) peaks for
//! inter-CTA tests; bank conflicts dampen them (col 12 vs 16); thread
//! randomisation boosts coRR dramatically (col 15 vs 16). On AMD, lb is
//! weak in every column, sb is vanishingly rare and bank-conflict-gated.

use weakgpu_bench::{paper, print_figure, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    print_figure(&paper::TAB6_TITAN, &args);
    print_figure(&paper::TAB6_HD7970, &args);
}
