//! The paper's `obs/100k` numbers, in one table that every figure binary
//! and the fit test (`tests/paper_fit.rs`) read.
//!
//! A [`Figure`] is one of the paper's figures or tables: its title, its
//! chip columns, its layout and its [`Row`]s. A row names its label, its
//! test (a corpus constructor; with `amd` set, the AMD chips run the test
//! as [`amd_compile`] emits it for their target), its incantation columns
//! (Tab. 6 numbering: 12 is the best inter-CTA column, 16 the best
//! intra-CTA one) and the paper's value for each of its cells, chip by
//! chip and, within a chip, column by column. A cell's value is one of
//! three kinds, read as a [`Paper`]:
//!
//! * a count: the paper's `obs/100k`. The cell runs.
//! * [`NA`]: the paper prints no count (`exch-sl`; the HD 7970 fenced
//!   OpenCL `mp`, which the paper says is still observed). The cell runs,
//!   and the paper row prints `n/a`.
//! * [`UNTESTABLE`]: the paper could not test this column (Fig. 11 on
//!   AMD, whose OpenCL compiler places fences itself). The cell is not
//!   run, and both rows print `n/a`.
//!
//! An AMD-compiled cell is not run either when the compile report says
//! the compiled test no longer measures the original: TeraScale 2
//! reorders `dlb-lb`'s load and CAS, so Fig. 8's HD6570 `dlb-lb` cell
//! prints `n/a`, as in the paper.
//!
//! To add a row, append a [`Row`] to its figure with one paper value per
//! chip and column; a new figure also goes in [`FIGURES`]. Its binary
//! prints it with [`print_figure`](crate::print_figure), and the fit test
//! picks up every cell with a count.

use weakgpu_litmus::FenceScope::{Cta, Gl, Sys};
use weakgpu_litmus::ThreadScope::InterCta;
use weakgpu_litmus::{corpus, LitmusTest};
use weakgpu_optcheck::{amd_compile, AmdTarget};
use weakgpu_sim::chip::{Chip, Incantations};

use self::Paper::{Count, NoCount, Untestable};

/// A paper value: the paper gives no count for this cell, which still runs.
pub const NA: u64 = u64::MAX;

/// A paper value: the paper could not test this column, whose cell is not
/// run.
pub const UNTESTABLE: u64 = u64::MAX - 1;

/// What the paper reports for one cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Paper {
    /// An observation count per 100k runs.
    Count(u64),
    /// The paper gives no count; the cell still runs.
    NoCount,
    /// The paper could not test this column; the cell is not run.
    Untestable,
}

impl std::fmt::Display for Paper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Count(n) => n.fmt(f),
            NoCount | Untestable => f.pad("n/a"),
        }
    }
}

/// How a figure prints.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layout {
    /// A paper line and a sim line per row, with a column per chip or,
    /// in a one-chip figure (Tab. 6), per incantation column.
    Grid,
    /// One `obs` column, with a paper line and a sim line per chip and
    /// row, labelled with the chip (Sec. 3.1.2).
    PerChip,
}

/// One of the paper's figures or tables.
#[derive(Debug)]
pub struct Figure {
    /// The printed title.
    pub title: &'static str,
    /// The chip columns, in the paper's order.
    pub chips: &'static [Chip],
    /// How the figure prints.
    pub layout: Layout,
    /// The rows, in the paper's order.
    pub rows: &'static [Row],
}

/// One row of a figure.
#[derive(Debug)]
pub struct Row {
    /// The row label.
    pub label: &'static str,
    /// The test, as a corpus constructor.
    pub test: fn() -> LitmusTest,
    /// Whether the AMD chips run the test compiled by [`amd_compile`].
    pub amd: bool,
    /// The Tab. 6 incantation columns (1–16) the cells run at.
    pub columns: &'static [usize],
    /// The paper's value per cell, chip-major, then per column: a count,
    /// [`NA`] or [`UNTESTABLE`].
    pub paper: &'static [u64],
}

impl Row {
    /// A row whose test runs unchanged on every chip.
    const fn new(
        label: &'static str,
        test: fn() -> LitmusTest,
        columns: &'static [usize],
        paper: &'static [u64],
    ) -> Row {
        Row {
            label,
            test,
            amd: false,
            columns,
            paper,
        }
    }

    /// The row with its AMD cells compiled by [`amd_compile`].
    const fn amd(self) -> Row {
        Row { amd: true, ..self }
    }
}

/// One cell of the table: a row's test on one chip at one incantation
/// column, with the paper's value for it.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// The row the cell belongs to.
    pub row: &'static Row,
    /// The chip the cell runs on.
    pub chip: Chip,
    /// The Tab. 6 incantation column the cell runs at.
    pub column: usize,
    /// What the paper reports.
    pub paper: Paper,
}

impl Figure {
    /// The figure's cells, row by row in the order of each row's `paper`.
    pub fn cells(&'static self) -> impl Iterator<Item = Cell> {
        self.rows.iter().flat_map(move |row| {
            self.chips
                .iter()
                .flat_map(|&chip| row.columns.iter().map(move |&column| (chip, column)))
                .zip(row.paper)
                .map(move |((chip, column), &paper)| Cell {
                    row,
                    chip,
                    column,
                    paper: match paper {
                        NA => NoCount,
                        UNTESTABLE => Untestable,
                        n => Count(n),
                    },
                })
        })
    }
}

impl Cell {
    /// The incantations of the cell's column.
    pub fn incantations(&self) -> Incantations {
        Incantations::all_combinations()[self.column - 1]
    }

    /// The test the cell runs, with the number of fences the AMD compiler
    /// removed from it; `None` when the cell is not run.
    pub fn test(&self) -> Option<(LitmusTest, usize)> {
        if self.paper == Untestable {
            return None;
        }
        let test = (self.row.test)();
        let target = match self.chip {
            Chip::RadeonHd6570 if self.row.amd => AmdTarget::TeraScale2,
            Chip::RadeonHd7970 if self.row.amd => AmdTarget::Gcn10,
            _ => return Some((test, 0)),
        };
        let (compiled, report) = amd_compile(&test, target);
        report
            .test_is_meaningful()
            .then_some((compiled, report.fences_removed))
    }
}

/// The best inter-CTA column (stress+sync+rand), on Nvidia.
const INTER: &[usize] = &[12];

/// The best intra-CTA column (all four incantations).
const INTRA: &[usize] = &[16];

/// The Tab. 6 columns, in order.
const TAB6: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];

/// Fig. 1: coRR.
#[rustfmt::skip]
pub static FIG1: Figure = Figure {
    title: "Fig. 1: coRR (intra-CTA, global memory)",
    chips: &Chip::TABLED,
    layout: Layout::Grid,
    rows: &[Row::new("coRR", corpus::corr, INTRA, &[11642, 8879, 9599, 9787, 0, 0, 0])],
};

/// Fig. 3: mp-L1, per fence.
#[rustfmt::skip]
pub static FIG3: Figure = Figure {
    title: "Fig. 3: mp-L1 (inter-CTA, .ca loads) per fence",
    chips: &Chip::NVIDIA_TABLED,
    layout: Layout::Grid,
    rows: &[
        Row::new("no-op",      || corpus::mp_l1(None),      INTER, &[4979, 10581, 3635, 6011, 3]),
        Row::new("membar.cta", || corpus::mp_l1(Some(Cta)), INTER, &[0, 308, 14, 1696, 0]),
        Row::new("membar.gl",  || corpus::mp_l1(Some(Gl)),  INTER, &[0, 187, 0, 0, 0]),
        Row::new("membar.sys", || corpus::mp_l1(Some(Sys)), INTER, &[0, 162, 0, 0, 0]),
    ],
};

/// Sec. 3.1.2: OpenCL mp on AMD, compiled by the vendor compiler, which
/// drops the load-side fence on GCN 1.0. AMD's best mp column is 15
/// (stress+gbc+sync), Tab. 6. A label's `{removed}` prints the number of
/// fences the compiler removed.
#[rustfmt::skip]
pub static SEC3_1_2: Figure = Figure {
    title: "Sec. 3.1.2: OpenCL mp on AMD",
    chips: &[Chip::RadeonHd6570, Chip::RadeonHd7970],
    layout: Layout::PerChip,
    rows: &[
        Row::new("unfenced", || corpus::mp(InterCta, None), &[15], &[9327, 2956]).amd(),
        Row::new("fenced ({removed} fences removed by compiler)",
                 || corpus::mp(InterCta, Some(Gl)), &[15], &[0, NA]).amd(),
    ],
};

/// Fig. 4: coRR-L2-L1, per fence.
#[rustfmt::skip]
pub static FIG4: Figure = Figure {
    title: "Fig. 4: coRR-L2-L1 (intra-CTA, .cg then .ca load) per fence",
    chips: &Chip::NVIDIA_TABLED,
    layout: Layout::Grid,
    rows: &[
        Row::new("no-op",      || corpus::corr_l2_l1(None),      INTRA, &[2556, 2982, 2, 141, 0]),
        Row::new("membar.cta", || corpus::corr_l2_l1(Some(Cta)), INTRA, &[1934, 2180, 0, 0, 0]),
        Row::new("membar.gl",  || corpus::corr_l2_l1(Some(Gl)),  INTRA, &[0, 1496, 0, 0, 0]),
        Row::new("membar.sys", || corpus::corr_l2_l1(Some(Sys)), INTRA, &[0, 1428, 0, 0, 0]),
    ],
};

/// Fig. 5: mp-volatile.
#[rustfmt::skip]
pub static FIG5: Figure = Figure {
    title: "Fig. 5: mp-volatile (intra-CTA, shared memory)",
    chips: &Chip::NVIDIA_TABLED,
    layout: Layout::Grid,
    rows: &[Row::new("mp-volatile", corpus::mp_volatile, INTRA, &[6301, 4977, 2753, 2188, 0])],
};

/// Fig. 7: dlb-mp, and with the `(+)` fences.
#[rustfmt::skip]
pub static FIG7: Figure = Figure {
    title: "Fig. 7: dlb-mp (inter-CTA) — deque loses a pushed task",
    chips: &Chip::TABLED,
    layout: Layout::Grid,
    rows: &[
        Row::new("dlb-mp",            || corpus::dlb_mp(false), INTER, &[0, 4, 36, 65, 0, 0, 0]),
        Row::new("dlb-mp+membar.gls", || corpus::dlb_mp(true),  INTER, &[0; 7]),
    ],
};

/// Fig. 8: dlb-lb, and with the `(+)` fences. The paper's HD6570 column
/// is `n/a`: the TeraScale 2 compiler reorders the load and the CAS.
#[rustfmt::skip]
pub static FIG8: Figure = Figure {
    title: "Fig. 8: dlb-lb (inter-CTA) — steal reads a later push",
    chips: &Chip::TABLED,
    layout: Layout::Grid,
    rows: &[
        Row::new("dlb-lb", || corpus::dlb_lb(false), INTER,
                 &[0, 750, 399, 2292, 0, NA, 13591]).amd(),
        Row::new("dlb-lb+membar.gls", || corpus::dlb_lb(true), INTER,
                 &[0, 0, 0, 0, 0, NA, 0]).amd(),
    ],
};

/// Fig. 9: cas-sl, with the erratum's fences, and the Stuart–Owens
/// `exch-sl`, which fails the same way (Sec. 3.2.2; no per-chip counts).
#[rustfmt::skip]
pub static FIG9: Figure = Figure {
    title: "Fig. 9: cas-sl (inter-CTA) — spin lock reads stale data",
    chips: &Chip::TABLED,
    layout: Layout::Grid,
    rows: &[
        Row::new("cas-sl", || corpus::cas_sl(false), INTER, &[0, 47, 43, 512, 0, 508, 748]),
        Row::new("cas-sl+membar.gls", || corpus::cas_sl(true), INTER, &[0; 7]),
        Row::new("exch-sl", || corpus::exch_sl(false), INTER, &[NA; 7]),
    ],
};

/// Fig. 11: sl-future, and the corrected lock. AMD is untestable: the
/// OpenCL compiler places fences automatically (Sec. 3.2).
#[rustfmt::skip]
pub static FIG11: Figure = Figure {
    title: "Fig. 11: sl-future (inter-CTA) — lock reads future values",
    chips: &Chip::TABLED,
    layout: Layout::Grid,
    rows: &[
        Row::new("sl-future", || corpus::sl_future(false), INTER,
                 &[0, 99, 41, 58, 0, UNTESTABLE, UNTESTABLE]),
        Row::new("sl-future (fixed)", || corpus::sl_future(true), INTER,
                 &[0, 0, 0, 0, 0, UNTESTABLE, UNTESTABLE]),
    ],
};

/// Sec. 6: inter-CTA `lb+membar.ctas`, observed although the operational
/// model forbids it. `sec6_opmodel` prints it in its own format.
#[rustfmt::skip]
pub static SEC6: Figure = Figure {
    title: "Sec. 6: inter-CTA lb+membar.ctas",
    chips: &[Chip::GtxTitan, Chip::Gtx660],
    layout: Layout::PerChip,
    rows: &[Row::new("lb+membar.ctas", || corpus::lb(InterCta, Some(Cta)), INTER, &[586, 19])],
};

/// Tab. 6: the incantation ablation on the GTX Titan.
#[rustfmt::skip]
pub static TAB6_TITAN: Figure = Figure {
    title: "Tab. 6 (GTX Titan)",
    chips: &[Chip::GtxTitan],
    layout: Layout::Grid,
    rows: &[
        Row::new("coRR (intra-CTA)", corpus::corr, TAB6,
                 &[0, 0, 0, 0, 0, 1235, 0, 9774, 161, 118, 847, 362, 632, 3384, 3993, 9985]),
        Row::new("lb (inter-CTA)", || corpus::lb(InterCta, None), TAB6,
                 &[0, 0, 0, 0, 0, 0, 0, 0, 181, 1067, 1555, 2247, 4, 37, 83, 486]),
        Row::new("mp (inter-CTA)", || corpus::mp(InterCta, None), TAB6,
                 &[0, 0, 0, 0, 0, 621, 0, 2921, 315, 1128, 2372, 4347, 7, 94, 442, 2888]),
        Row::new("sb (inter-CTA)", || corpus::sb(InterCta, None), TAB6,
                 &[0, 0, 0, 0, 0, 0, 0, 0, 462, 1403, 3308, 6673, 3, 50, 88, 749]),
    ],
};

/// Tab. 6: the incantation ablation on the Radeon HD 7970.
#[rustfmt::skip]
pub static TAB6_HD7970: Figure = Figure {
    title: "Tab. 6 (Radeon HD 7970)",
    chips: &[Chip::RadeonHd7970],
    layout: Layout::Grid,
    rows: &[
        Row::new("coRR (intra-CTA)", corpus::corr, TAB6, &[0; 16]),
        Row::new("lb (inter-CTA)", || corpus::lb(InterCta, None), TAB6,
                 &[10959, 8979, 31895, 29092, 13510, 12729, 29779, 26737,
                   5094, 9360, 37624, 38664, 5321, 10054, 32796, 34196]),
        Row::new("mp (inter-CTA)", || corpus::mp(InterCta, None), TAB6,
                 &[212, 31, 243, 158, 277, 46, 318, 247,
                   473, 217, 1289, 563, 611, 339, 2542, 1628]),
        Row::new("sb (inter-CTA)", || corpus::sb(InterCta, None), TAB6,
                 &[0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ],
};

/// Every figure and table, in the paper's order.
pub static FIGURES: [&Figure; 12] = [
    &FIG1,
    &FIG3,
    &SEC3_1_2,
    &FIG4,
    &FIG5,
    &FIG7,
    &FIG8,
    &FIG9,
    &FIG11,
    &SEC6,
    &TAB6_TITAN,
    &TAB6_HD7970,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_data_shapes() {
        for fig in FIGURES {
            for row in fig.rows {
                assert_eq!(
                    row.paper.len(),
                    fig.chips.len() * row.columns.len(),
                    "{}: {}",
                    fig.title,
                    row.label
                );
                assert!(row.columns.iter().all(|c| (1..=16).contains(c)));
                // A grid shares its columns between rows.
                if fig.layout == Layout::Grid {
                    assert_eq!(row.columns, fig.rows[0].columns, "{}", fig.title);
                }
            }
        }
        assert_eq!(FIG3.rows.len(), 4);
        // Known headline numbers.
        let paper = |fig: &'static Figure, i: usize| fig.cells().nth(i).unwrap().paper;
        assert_eq!(paper(&FIG1, 0), Count(11642));
        assert_eq!(paper(&FIG8, 5), NoCount);
        assert_eq!(paper(&FIG11, 6), Untestable);
        assert_eq!(paper(&TAB6_TITAN, 3 * 16 + 11), Count(6673));
        assert_eq!(paper(&SEC3_1_2, 3), NoCount);
    }
}
