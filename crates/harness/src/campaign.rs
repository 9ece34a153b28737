//! The campaign engine: many `(test, chip, incantations)` cells — the
//! paper's unit of measurement, one `obs/100k` number each — scheduled
//! over a single shared worker pool.
//!
//! Two units divide a cell's iterations, and only the first is
//! observable:
//!
//! * **Chunks** fix the histogram. A cell is split into the same
//!   machine-independent, seed-derived chunks
//!   [`run_test`](crate::runner::run_test) uses (see
//!   [`runner::STREAM_CHUNKS`](crate::runner::STREAM_CHUNKS)): each
//!   chunk's RNG stream is a pure function of the cell's seed and the
//!   chunk index, and chunk counts merge by commutative addition.
//! * **Work items** are what the pool schedules, and fix nothing
//!   observable. A cell of fewer than 1024 runs is run whole, together
//!   with the consecutive cells of the same test: a 40-iteration sweep
//!   over five chips is one item per test. A larger cell is split into
//!   items of its own, each the shortest run of consecutive chunks that
//!   holds at least 1024 runs, or the rest of the cell: a 100k-iteration
//!   cell is 64 items that workers share. A worker runs a cell's chunks
//!   of an item into one count of observation vectors ([`ObsCounts`]). A
//!   whole cell's count is the cell's result as it stands; the items of
//!   a split cell add their counts into the cell's.
//!
//! So a campaign's reports are bit-identical for a fixed seed regardless
//! of worker count, scheduling, or host machine, and identical to running
//! each cell alone through `run_test`.
//!
//! Nothing is materialised ahead of the workers or kept behind them, and
//! workers share nothing per cell. An item compiles its own test, shares
//! the program among its cells on every chip and frees it when it ends;
//! a split cell is compiled once per item, which is negligible next to
//! its 1024 or more runs. A worker keeps one [`MachineState`] and one
//! [`ObsCounts`], refitted in place as it moves between programs, so runs
//! allocate nothing, and the run parameters of each chip and incantation
//! column it meets. Only the items of a split cell meet, under the lock
//! of the cell's count. Each finished cell's [`TestReport`] is handed to
//! the caller by value, its [`Histogram`] built from the cell's count
//! once, one [`Outcome`] per distinct observation vector; `run_campaign`
//! collects the reports per worker and puts them in cell order at the
//! end. The sweep takes the count itself instead: a sound cell's record
//! needs no outcome at all, and each worker tallies its own cells.
//!
//! Every comparison of a cell's observations with a verdict (paper
//! Sec. 5.4) is one function, `CellCounts::judge`, which the sweep and
//! [`check_soundness`](crate::soundness::check_soundness) share; see
//! [`crate::soundness`] for its three classes of observation.
//!
//! Progress callbacks run on the worker threads, and a worker runs no
//! other item while its callback runs. A callback should therefore do
//! little and never wait: the sweep resolves every verdict before its
//! campaign starts, so its callback only compares a cell's observations
//! with a verdict it already holds (see `crate::sweep`).
//!
//! ```
//! use weakgpu_harness::campaign::{run_campaign, CampaignConfig, CellSpec};
//! use weakgpu_litmus::corpus;
//! use weakgpu_sim::chip::{Chip, Incantations};
//!
//! let cells = vec![
//!     CellSpec::new(corpus::corr(), Chip::GtxTitan).iterations(2_000),
//!     CellSpec::new(corpus::corr(), Chip::Gtx280).iterations(2_000),
//! ];
//! let reports = run_campaign(&cells, &CampaignConfig::default()).unwrap();
//! assert!(reports[0].witnesses > 0); // Kepler coRR (Fig. 1)
//! assert_eq!(reports[1].witnesses, 0); // GTX 280 stays strong
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use weakgpu_axiom::enumerate::ModelOutcomes;
use weakgpu_litmus::{LitmusTest, Outcome, ThreadScope};
use weakgpu_sim::chip::{Chip, Incantations};
use weakgpu_sim::machine::{MachineState, ObsCounts, RunParams, Simulator};
use weakgpu_sim::program::SimProgram;

use crate::histogram::Histogram;
use crate::runner::{chunk_seed, chunk_sizes, HarnessError, TestReport, STREAM_CHUNKS};

/// The fewest runs for which a cell is split into items of its own, and
/// the fewest a split cell's item holds unless it is the rest of its
/// cell: enough to amortise the item's claim, compile and count merge,
/// small enough that a 100k-iteration cell still splits into one item
/// per chunk.
const ITEM_RUNS: usize = 1024;

/// The paper's "most effective incantations" for a test's placement:
/// the best inter-CTA column for inter-CTA tests, everything on for
/// intra-CTA (the choice behind every figure's default column).
pub fn default_incantations(test: &LitmusTest) -> Incantations {
    match test.thread_scope() {
        Some(ThreadScope::InterCta) => Incantations::best_inter_cta(),
        _ => Incantations::all_on(),
    }
}

/// One campaign cell: a litmus test bound to a chip and incantation
/// combination, with its own iteration count and base seed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellSpec {
    /// The litmus test to run.
    pub test: LitmusTest,
    /// The chip profile to run it on.
    pub chip: Chip,
    /// Incantation combination.
    pub incantations: Incantations,
    /// Number of runs (the paper uses 100 000 per cell).
    pub iterations: usize,
    /// Base RNG seed; chunk streams derive from it machine-independently.
    pub seed: u64,
}

impl CellSpec {
    /// A cell with the paper's setup for its figures: 100k iterations,
    /// every incantation on, the default seed `0x5eed`.
    pub fn new(test: LitmusTest, chip: Chip) -> Self {
        CellSpec {
            test,
            chip,
            incantations: Incantations::all_on(),
            iterations: 100_000,
            seed: 0x5eed,
        }
    }

    /// Sets the incantation combination.
    #[must_use]
    pub fn incantations(mut self, inc: Incantations) -> Self {
        self.incantations = inc;
        self
    }

    /// Sets the iteration count.
    #[must_use]
    pub fn iterations(mut self, n: usize) -> Self {
        self.iterations = n;
        self
    }

    /// Sets the base seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub(crate) fn cell(&self) -> Cell<'_> {
        Cell {
            test: &self.test,
            chip: self.chip,
            incantations: self.incantations,
            iterations: self.iterations,
            seed: self.seed,
        }
    }
}

/// Campaign-wide knobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CampaignConfig {
    /// Worker threads (`None` = all available cores). Affects wall-clock
    /// time only, never results.
    pub parallelism: Option<usize>,
}

impl CampaignConfig {
    /// A config with an explicit worker count.
    pub fn with_parallelism(workers: usize) -> Self {
        CampaignConfig {
            parallelism: Some(workers),
        }
    }
}

/// A cell as the engine reads it. The test is borrowed, so a caller that
/// derives its cells from a test family (the sweep) runs them without
/// cloning a test per cell.
#[derive(Clone, Copy)]
pub(crate) struct Cell<'a> {
    pub(crate) test: &'a LitmusTest,
    pub(crate) chip: Chip,
    pub(crate) incantations: Incantations,
    pub(crate) iterations: usize,
    pub(crate) seed: u64,
}

/// The scheduling unit of the pool: consecutive cells of one test, each
/// run whole, or some consecutive chunks of one cell.
struct WorkItem {
    cells: Range<usize>,
    /// The chunks this item runs of a cell split into several items, and
    /// the index of that cell's accumulator; `None` for whole cells.
    split: Option<(Range<usize>, usize)>,
}

/// What a pool worker keeps from item to item: the caller's state, one
/// run state and one count, refitted in place, and the run parameters
/// of each (chip, incantations) it has met: a sweep has ten, however
/// many cells it runs.
struct Worker<W> {
    w: W,
    state: Option<MachineState>,
    counts: ObsCounts,
    params: Vec<(Chip, Incantations, RunParams)>,
}

/// The counts so far of a cell split into several items.
struct CellAcc {
    counts: ObsCounts,
    items_left: usize,
}

/// A finished cell as the engine hands it over: its test, the simulator
/// that ran it and the count of every distinct observation vector its
/// runs made.
pub(crate) struct CellCounts<'a> {
    pub(crate) test: &'a LitmusTest,
    pub(crate) sim: &'a Simulator,
    pub(crate) counts: &'a ObsCounts,
}

impl CellCounts<'_> {
    /// The cell's witnessing runs and, when given its test's verdict, the
    /// outcomes the cell observed that the verdict forbids, in canonical
    /// order. Both are judged on observation vectors, by value: the
    /// verdict was judged in the same [`ObsLayout`], so its outcomes bind
    /// exactly the layout's expressions, in order. Only vectors the
    /// verdict does not allow are built into outcomes, and looked up in
    /// its `all_outcomes`.
    ///
    /// # Errors
    ///
    /// [`HarnessError::OutOfDomain`], naming the lowest such outcome, when
    /// the cell observed an outcome of no candidate execution.
    ///
    /// [`ObsLayout`]: weakgpu_litmus::ObsLayout
    pub(crate) fn judge(
        &self,
        verdict: Option<&ModelOutcomes>,
    ) -> Result<(u64, Vec<Outcome>), HarnessError> {
        let layout = &self.sim.program().layout;
        let mut witnesses = 0;
        let mut forbidden = Vec::new();
        for (obs, n) in self.counts.iter_unordered() {
            if layout.witnessed_by(obs) {
                witnesses += n;
            }
            let is_allowed = verdict.is_none_or(|verdict| {
                verdict
                    .allowed_outcomes
                    .iter()
                    .any(|o| o.iter().map(|(_, v)| v).eq(obs.iter().copied()))
            });
            if !is_allowed {
                forbidden.push(layout.outcome(obs));
            }
        }
        forbidden.sort_unstable();
        let outside = verdict.and_then(|v| forbidden.iter().find(|o| !v.all_outcomes.contains(*o)));
        if let Some(outcome) = outside {
            return Err(HarnessError::OutOfDomain {
                test: self.test.name().to_owned(),
                chip: self.sim.chip(),
                outcome: outcome.clone(),
            });
        }
        Ok((witnesses, forbidden))
    }
}

/// Runs every cell and returns one [`TestReport`] per cell, in cell
/// order. Results are bit-identical for fixed cell specs regardless of
/// `cfg.parallelism` or the host's core count.
///
/// # Errors
///
/// See [`run_campaign_with`].
pub fn run_campaign(
    cells: &[CellSpec],
    cfg: &CampaignConfig,
) -> Result<Vec<TestReport>, HarnessError> {
    let done = run_cells(
        cells.len(),
        |ci| cells[ci].cell(),
        cfg,
        Vec::new,
        |reports: &mut Vec<(usize, TestReport)>, ci, done| {
            reports.push((ci, finish_cell(cells[ci].cell(), done)?));
            Ok::<_, HarnessError>(())
        },
    )?;
    let mut reports = vec![None; cells.len()];
    for (ci, report) in done.into_iter().flatten() {
        reports[ci] = Some(report);
    }
    Ok(reports
        .into_iter()
        .map(|r| r.expect("every cell completed"))
        .collect())
}

/// Runs every cell, handing each cell's report to `on_cell(cell_index,
/// report)` as the cell completes. Cells finish out of order on the
/// worker threads, so the callback must be thread-safe; it sees each cell
/// exactly once, and the engine keeps nothing of a cell after it.
///
/// # Errors
///
/// Returns the error of the lowest failing cell, in cell order and at
/// any parallelism: a compile or run error, or an error the callback
/// returned. Remaining work is abandoned.
pub fn run_campaign_with<F>(
    cells: &[CellSpec],
    cfg: &CampaignConfig,
    on_cell: F,
) -> Result<(), HarnessError>
where
    F: Fn(usize, TestReport) -> Result<(), HarnessError> + Sync,
{
    run_cells(
        cells.len(),
        |ci| cells[ci].cell(),
        cfg,
        || (),
        |(), ci, done| on_cell(ci, finish_cell(cells[ci].cell(), done)?),
    )
    .map(drop)
}

/// The engine behind [`run_campaign_with`], over the `n` cells
/// `cell_at(0..n)` and any error type a compile or run error converts
/// into. Each worker starts with its own `worker()` state, and each
/// finished cell is handed as its counts to `on_cell`, with the state of
/// the worker that finished it. The worker states are returned, in no
/// particular order, for the caller to merge.
pub(crate) fn run_cells<'a, C, W, F, E>(
    n: usize,
    cell_at: C,
    cfg: &CampaignConfig,
    worker: impl Fn() -> W + Sync,
    on_cell: F,
) -> Result<Vec<W>, E>
where
    C: Fn(usize) -> Cell<'a> + Sync,
    W: Send,
    F: Fn(&mut W, usize, CellCounts<'_>) -> Result<(), E> + Sync,
    E: From<HarnessError> + Send,
{
    // Plan the items in cell order. Consecutive cells of one test with
    // fewer than `ITEM_RUNS` runs each share an item; a larger cell is
    // split into items of its own. Tests are compared by address first,
    // so a caller that borrows its cells' tests (the sweep) never
    // compares two tests deeply.
    let mut items: Vec<WorkItem> = Vec::new();
    let mut accs: Vec<Mutex<CellAcc>> = Vec::new();
    // The test of the last item while it may take more whole cells.
    let mut open: Option<&LitmusTest> = None;
    for ci in 0..n {
        let cell = cell_at(ci);
        if cell.iterations < ITEM_RUNS {
            match (open, items.last_mut()) {
                (Some(test), Some(item))
                    if std::ptr::eq(test, cell.test) || *test == *cell.test =>
                {
                    item.cells.end = ci + 1;
                }
                _ => {
                    items.push(WorkItem {
                        cells: ci..ci + 1,
                        split: None,
                    });
                    open = Some(cell.test);
                }
            }
            continue;
        }
        open = None;
        let first = items.len();
        let (mut start, mut runs, mut end) = (0, 0, 0);
        for len in chunk_sizes(cell.iterations) {
            (runs, end) = (runs + len, end + 1);
            if runs >= ITEM_RUNS {
                items.push(WorkItem {
                    cells: ci..ci + 1,
                    split: Some((start..end, accs.len())),
                });
                (start, runs) = (end, 0);
            }
        }
        if start < end {
            items.push(WorkItem {
                cells: ci..ci + 1,
                split: Some((start..end, accs.len())),
            });
        }
        match items.len() - first {
            1 => items[first].split = None,
            cell_items => accs.push(Mutex::new(CellAcc {
                counts: ObsCounts::new(),
                items_left: cell_items,
            })),
        }
    }

    // Runs one item: compiles its test, runs its chunks of each of its
    // cells and reports each cell it completes.
    let run_item = |item: &WorkItem, worker: &mut Worker<W>| -> Result<(), E> {
        let Worker {
            w,
            state,
            counts,
            params,
        } = worker;
        let first = cell_at(item.cells.start);
        let program = Arc::new(
            SimProgram::compile(first.test).map_err(|e| E::from(HarnessError::Compile(e)))?,
        );
        // A state's shape depends on the program alone, so one fit
        // serves every cell of the item.
        let st = {
            let sim = Simulator::from_program(Arc::clone(&program), first.chip);
            let st = state.get_or_insert_with(|| sim.new_state());
            sim.fit_state(st);
            st
        };
        for ci in item.cells.clone() {
            let cell = cell_at(ci);
            let test = cell.test;
            let sim = &Simulator::from_program(Arc::clone(&program), cell.chip);
            let params = match params
                .iter()
                .position(|(chip, inc, _)| *chip == cell.chip && *inc == cell.incantations)
            {
                Some(i) => &params[i].2,
                None => {
                    let p = RunParams::of(cell.chip, &cell.incantations);
                    params.push((cell.chip, cell.incantations, p));
                    &params[params.len() - 1].2
                }
            };
            let chunks = match &item.split {
                Some((chunks, _)) => chunks.clone(),
                None => 0..STREAM_CHUNKS,
            };
            counts.clear();
            for (k, len) in chunk_sizes(cell.iterations)
                .enumerate()
                .take(chunks.end)
                .skip(chunks.start)
            {
                let mut rng = SmallRng::seed_from_u64(chunk_seed(cell.seed, k));
                sim.run_batch(len, params, &mut rng, st, counts)
                    .map_err(|e| E::from(HarnessError::Run(e)))?;
            }
            let Some((_, acc)) = item.split else {
                on_cell(w, ci, CellCounts { test, sim, counts })?;
                continue;
            };
            let finished = {
                let mut acc = accs[acc].lock().expect("no poisoned locks");
                acc.counts.merge(counts);
                acc.items_left -= 1;
                (acc.items_left == 0).then(|| std::mem::take(&mut acc.counts))
            };
            if let Some(counts) = &finished {
                on_cell(w, ci, CellCounts { test, sim, counts })?;
            }
        }
        Ok(())
    };

    let workers = run_pool(
        items.len(),
        cfg.parallelism,
        || Worker {
            w: worker(),
            state: None,
            counts: ObsCounts::new(),
            params: Vec::new(),
        },
        |worker, i| run_item(&items[i], worker),
    )?;
    Ok(workers.into_iter().map(|worker| worker.w).collect())
}

/// Runs `job(state, i)` for every job `i` in `0..jobs` on up to
/// [`worker_count`]`(parallelism, jobs)` scoped threads, which claim the
/// jobs in index order from one shared cursor. Each worker starts from
/// its own `init()` state, and the states are returned, in no particular
/// order, for the caller to merge.
///
/// # Errors
///
/// Once a job fails no job is claimed, and the error returned is that of
/// the lowest failing job, the same at any parallelism: a claimed job
/// always runs to its end, and when a job fails every lower job has been
/// claimed.
pub(crate) fn run_pool<W, E>(
    jobs: usize,
    parallelism: Option<usize>,
    init: impl Fn() -> W + Sync,
    job: impl Fn(&mut W, usize) -> Result<(), E> + Sync,
) -> Result<Vec<W>, E>
where
    W: Send,
    E: Send,
{
    let cursor = AtomicUsize::new(0);
    // Publishes nothing: the error itself is under its mutex.
    let abort = AtomicBool::new(false);
    let error: Mutex<Option<(usize, E)>> = Mutex::new(None);

    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..worker_count(parallelism, jobs))
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    while !abort.load(Ordering::Relaxed) {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        if let Err(e) = job(&mut state, i) {
                            let mut slot = error.lock().expect("no poisoned locks");
                            if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                                *slot = Some((i, e));
                            }
                            abort.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool workers do not panic"))
            .collect()
    });

    match error.into_inner().expect("no poisoned locks") {
        Some((_, e)) => Err(e),
        None => Ok(states),
    }
}

/// The threads to run `jobs` independent jobs on: `parallelism` (`None`
/// = all available cores), but at least 1 and no more than the jobs.
pub fn worker_count(parallelism: Option<usize>, jobs: usize) -> usize {
    parallelism
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, jobs.max(1))
}

fn finish_cell(cell: Cell<'_>, done: CellCounts<'_>) -> Result<TestReport, HarnessError> {
    let layout = &done.sim.program().layout;
    let mut histogram = Histogram::new();
    for (obs, n) in done.counts.iter_unordered() {
        histogram.add(layout.outcome(obs), n);
    }
    let (witnesses, _) = done.judge(None)?;
    Ok(TestReport {
        test: cell.test.name().to_owned(),
        chip: cell.chip,
        incantations: cell.incantations,
        histogram,
        witnesses,
    })
}
