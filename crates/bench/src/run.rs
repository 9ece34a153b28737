//! Runs the paper table's cells on the harness's campaign engine and
//! prints them beside the paper's counts. A figure's cells share one
//! campaign: one worker pool and compiled simulators.

use std::fmt;

use weakgpu_harness::campaign::{run_campaign, CampaignConfig, CellSpec};
use weakgpu_harness::report::ObsTable;

use crate::cli::BenchArgs;
use crate::paper::{Cell, Figure, Layout};

/// What a table cell measured.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Measured {
    /// The witnesses per 100k runs; `None` when the cell was not run.
    pub obs: Option<u64>,
    /// The fences the AMD compiler removed from the cell's test.
    pub fences_removed: usize,
}

impl fmt::Display for Measured {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.obs {
            Some(n) => n.fmt(f),
            None => f.pad("n/a"),
        }
    }
}

/// Runs table cells as one campaign at the args' iterations and seed; a
/// cell the table does not run (see [`crate::paper`]) measures `None`. A
/// cell's count depends only on its own test, chip, column, iterations and
/// seed, whatever else the campaign runs.
///
/// # Panics
///
/// Panics on harness errors — experiment binaries treat those as fatal.
pub fn run_cells(cells: &[Cell], args: &BenchArgs) -> Vec<Measured> {
    let mut specs = Vec::new();
    let mut removed = Vec::new();
    for cell in cells {
        let test = cell.test();
        removed.push(test.as_ref().map(|t| t.1));
        if let Some((test, _)) = test {
            specs.push(
                CellSpec::new(test, cell.chip)
                    .incantations(cell.incantations())
                    .iterations(args.iterations)
                    .seed(args.seed),
            );
        }
    }
    let cfg = CampaignConfig {
        parallelism: args.parallelism,
    };
    let mut reports = run_campaign(&specs, &cfg)
        .unwrap_or_else(|e| panic!("{e}"))
        .into_iter();
    removed
        .into_iter()
        .map(|removed| Measured {
            obs: removed
                .and_then(|_| reports.next())
                .map(|r| r.obs_per_100k()),
            fences_removed: removed.unwrap_or(0),
        })
        .collect()
}

/// Runs a figure's cells as one campaign and prints, row by row, the
/// paper's counts and the measured ones.
pub fn print_figure(figure: &'static Figure, args: &BenchArgs) {
    let cells: Vec<Cell> = figure.cells().collect();
    let measured = run_cells(&cells, args);
    println!("== {} ==", figure.title);
    let mut table;
    match figure.layout {
        Layout::Grid => {
            let columns: Vec<String> = match figure.chips {
                [_] => figure.rows[0]
                    .columns
                    .iter()
                    .map(|c| format!("c{c}"))
                    .collect(),
                chips => chips.iter().map(|c| c.short().to_owned()).collect(),
            };
            let width = columns.len();
            table = ObsTable::new("obs/100k", columns);
            for ((row, cells), measured) in figure
                .rows
                .iter()
                .zip(cells.chunks(width))
                .zip(measured.chunks(width))
            {
                table.row(
                    format!("{} (paper)", row.label),
                    cells.iter().map(|c| c.paper),
                );
                table.row(format!("{} (sim)", row.label), measured);
            }
        }
        Layout::PerChip => {
            table = ObsTable::new("obs/100k", ["obs".to_owned()]);
            for &chip in figure.chips {
                for (cell, m) in cells.iter().zip(&measured) {
                    if cell.chip != chip {
                        continue;
                    }
                    let removed = m.fences_removed.to_string();
                    let label = format!(
                        "{} {}",
                        chip.short(),
                        cell.row.label.replace("{removed}", &removed)
                    );
                    table.row(format!("{label} (paper)"), [cell.paper]);
                    table.row(format!("{label} (sim)"), [m]);
                }
            }
        }
    }
    println!("{table}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{self, Paper};
    use weakgpu_harness::campaign::{CampaignConfig, CellSpec};
    use weakgpu_harness::default_incantations;
    use weakgpu_harness::runner::run_test;
    use weakgpu_litmus::corpus;
    use weakgpu_sim::chip::{Chip, Incantations};

    #[test]
    fn obs_cell_runs() {
        let args = BenchArgs {
            iterations: 500,
            ..BenchArgs::default()
        };
        let cell = Cell {
            row: &paper::FIG1.rows[0],
            chip: Chip::Gtx280,
            column: 16,
            paper: Paper::Count(0),
        };
        assert_eq!(run_cells(&[cell], &args)[0].obs, Some(0));
    }

    #[test]
    fn default_incantations_by_placement() {
        assert_eq!(
            default_incantations(&corpus::corr()),
            Incantations::all_on()
        );
        assert_eq!(
            default_incantations(&corpus::cas_sl(false)),
            Incantations::best_inter_cta()
        );
        // Every figure runs its rows at the placement's column, but for
        // Sec. 3.1.2's AMD column and Tab. 6's sweep of all 16.
        for fig in paper::FIGURES {
            if fig.title.starts_with("Sec. 3.1.2") || fig.title.starts_with("Tab. 6") {
                continue;
            }
            for cell in fig.cells() {
                assert_eq!(
                    cell.incantations(),
                    default_incantations(&(cell.row.test)()),
                    "{}: {}",
                    fig.title,
                    cell.row.label
                );
            }
        }
    }

    #[test]
    fn obs_row_matches_per_cell_runs() {
        // A figure's campaign must reproduce exactly what running each
        // cell alone produces; Fig. 8 has an AMD-compiled cell and one
        // the compiler leaves unrun.
        let args = BenchArgs {
            iterations: 1_000,
            ..BenchArgs::default()
        };
        let cells: Vec<Cell> = paper::FIG8.cells().collect();
        let solo: Vec<Option<u64>> = cells
            .iter()
            .map(|cell| {
                let (test, _) = cell.test()?;
                let spec = CellSpec::new(test, cell.chip)
                    .iterations(args.iterations)
                    .incantations(cell.incantations())
                    .seed(args.seed);
                let report = run_test(&spec, &CampaignConfig::with_parallelism(1)).unwrap();
                Some(report.obs_per_100k())
            })
            .collect();
        let together: Vec<Option<u64>> = run_cells(&cells, &args).iter().map(|m| m.obs).collect();
        assert_eq!(together, solo);
        assert_eq!(solo.iter().filter(|o| o.is_none()).count(), 1);
    }

    #[test]
    fn cells_render() {
        assert_eq!(Paper::Count(42).to_string(), "42");
        assert_eq!(Paper::NoCount.to_string(), "n/a");
        assert_eq!(format!("{:>5}", Paper::Untestable), "  n/a");
        let m = |obs| Measured {
            obs,
            fences_removed: 0,
        };
        assert_eq!(m(Some(7)).to_string(), "7");
        assert_eq!(format!("{:>4}", m(None)), " n/a");
    }
}
