//! Incantation tuning checks (paper Sec. 4.3, Tab. 6): one test's row of
//! 16 incantation columns, run through one campaign, peaks in the column
//! the paper reports as most effective.

use weakgpu_litmus::LitmusTest;
use weakgpu_sim::chip::{Chip, Incantations};

use crate::campaign::{run_campaign, CampaignConfig, CellSpec};

/// Witness counts of `test` on `chip` under each of the 16 columns, in
/// Tab. 6 order; column `i` runs with seed `seed + i`.
fn row(test: &LitmusTest, chip: Chip, iterations: usize, seed: u64) -> Vec<(Incantations, u64)> {
    let cells: Vec<CellSpec> = Incantations::all_combinations()
        .into_iter()
        .enumerate()
        .map(|(i, inc)| {
            CellSpec::new(test.clone(), chip)
                .incantations(inc)
                .iterations(iterations)
                .seed(seed + i as u64)
        })
        .collect();
    let reports = run_campaign(&cells, &CampaignConfig::default()).unwrap();
    reports
        .iter()
        .map(|r| (r.incantations, r.witnesses))
        .collect()
}

/// The most effective column; ties go to the earliest, as in the paper.
fn best(row: &[(Incantations, u64)]) -> (Incantations, u64) {
    (0..row.len())
        .max_by_key(|&i| (row[i].1, usize::MAX - i))
        .map(|i| row[i])
        .unwrap()
}

mod tests {
    use super::*;
    use weakgpu_litmus::{corpus, ThreadScope};

    #[test]
    fn corr_tunes_to_an_all_on_style_column() {
        // Tab. 6: coRR peaks in column 16 (all incantations) on the Titan.
        let row = row(&corpus::corr(), Chip::GtxTitan, 4_000, 7);
        assert_eq!(row.len(), 16);
        let (best, hits) = best(&row);
        assert!(best.memory_stress || best.bank_conflicts);
        assert!(best.thread_rand, "thread randomisation drives coRR");
        assert!(hits > 0);
    }

    #[test]
    fn inter_cta_tests_tune_to_memory_stress_columns() {
        // Tab. 6: sb/mp need memory stress; column 12 peaks.
        let test = corpus::sb(ThreadScope::InterCta, None);
        let row = row(&test, Chip::GtxTitan, 4_000, 11);
        let (best, _) = best(&row);
        assert!(best.memory_stress);
        assert!(!best.bank_conflicts, "bank conflicts dampen inter-CTA sb");
        // The first eight columns (no stress) witness nothing.
        assert!(row[..8].iter().all(|&(_, w)| w == 0));
    }

    #[test]
    fn strong_chips_tune_to_zero_everywhere() {
        let row = row(&corpus::corr(), Chip::Gtx280, 1_000, 3);
        assert_eq!(best(&row).1, 0);
        assert!(row.iter().all(|&(_, w)| w == 0));
    }
}
