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
//!   observable. An item is the shortest run of consecutive chunks of one
//!   cell that holds at least 1024 runs, or the rest of the cell: a
//!   100k-iteration cell is 64 items that workers share, a 40- or
//!   1000-iteration cell is one. A worker runs an item's chunks into one
//!   count of observation vectors ([`ObsCounts`]). A one-item cell's
//!   count is the cell's result as it stands; the items of a larger cell
//!   add their counts into the cell's.
//!
//! So a campaign's reports are bit-identical for a fixed seed regardless
//! of worker count, scheduling, or host machine, and identical to running
//! each cell alone through `run_test`.
//!
//! Nothing is materialised ahead of the workers or kept behind them. Each
//! distinct test is compiled once, on the worker that first claims one
//! of its items, and the program is shared by the test's cells on every
//! chip and freed when its last item completes; a worker keeps one
//! [`MachineState`] and one [`ObsCounts`], refitted in place as it moves
//! between simulators, so runs allocate nothing. Each finished cell's
//! [`TestReport`] is handed to the caller by value, its [`Histogram`]
//! built from the cell's count once, one [`Outcome`] per distinct
//! observation vector. The sweep takes the count itself instead: a sound
//! cell's record needs no outcome at all.
//!
//! Progress callbacks run on the worker threads, and a worker runs no
//! other item while its callback runs. A callback should therefore do
//! little and never wait: the sweep resolves every verdict before its
//! campaign starts, so its callback only compares a cell's observations
//! with a verdict it already holds (see `crate::sweep`).
//!
//! [`Outcome`]: weakgpu_litmus::Outcome
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

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use weakgpu_litmus::{LitmusTest, ThreadScope};
use weakgpu_sim::chip::{Chip, Incantations};
use weakgpu_sim::machine::{MachineState, ObsCounts, RunParams, Simulator};
use weakgpu_sim::program::SimProgram;

use crate::histogram::Histogram;
use crate::runner::{chunk_seed, chunk_sizes, HarnessError, RunConfig, TestReport};

/// Fewest runs a work item holds unless it is the rest of its cell:
/// enough to amortise the per-item claim, seeding and histogram merge,
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
    /// A cell with the default harness configuration (100k iterations,
    /// all incantations, the default seed).
    pub fn new(test: LitmusTest, chip: Chip) -> Self {
        let d = RunConfig::default();
        CellSpec {
            test,
            chip,
            incantations: d.incantations,
            iterations: d.iterations,
            seed: d.seed,
        }
    }

    /// A cell mirroring `cfg` — running it in a campaign produces the
    /// same report `run_test(test, chip, cfg)` would.
    pub fn from_config(test: LitmusTest, chip: Chip, cfg: &RunConfig) -> Self {
        CellSpec {
            test,
            chip,
            incantations: cfg.incantations,
            iterations: cfg.iterations,
            seed: cfg.seed,
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

    fn cell(&self) -> Cell<'_> {
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

/// The scheduling unit of the pool: consecutive chunks of one cell.
struct WorkItem {
    cell: usize,
    /// The index of the cell's test in the program slots.
    slot: usize,
    chunks: Range<usize>,
    /// The index of the cell's chip and incantations in the run
    /// parameters.
    params: usize,
    /// The accumulator of a cell split into several items; `None` when
    /// this item is the whole cell.
    acc: Option<usize>,
}

/// One distinct test's compiled program, kept while some item still
/// needs it.
struct ProgramSlot {
    program: Option<Arc<SimProgram>>,
    items_left: usize,
}

/// The counts so far of a cell split into several items.
struct CellAcc {
    counts: ObsCounts,
    items_left: usize,
}

/// A finished cell as the engine hands it over: the simulator that ran
/// it and the count of every distinct observation vector its runs made.
pub(crate) struct CellCounts<'a> {
    pub(crate) sim: &'a Simulator,
    pub(crate) counts: &'a ObsCounts,
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
    let reports = Mutex::new(vec![None; cells.len()]);
    run_campaign_with(cells, cfg, |ci, report| {
        reports.lock().expect("no poisoned locks")[ci] = Some(report);
        Ok(())
    })?;
    Ok(reports
        .into_inner()
        .expect("no poisoned locks")
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
        |ci, done| on_cell(ci, finish_cell(cells[ci].cell(), done)),
    )
}

/// The engine behind [`run_campaign_with`], over the `n` cells
/// `cell_at(0..n)` and any error type a compile or run error converts
/// into. Each finished cell is handed to `on_cell` as its counts.
pub(crate) fn run_cells<'a, C, F, E>(
    n: usize,
    cell_at: C,
    cfg: &CampaignConfig,
    on_cell: F,
) -> Result<(), E>
where
    C: Fn(usize) -> Cell<'a> + Sync,
    F: Fn(usize, CellCounts<'_>) -> Result<(), E> + Sync,
    E: From<HarnessError> + Send,
{
    // Plan the items, cell-major, and give each distinct test one
    // program slot. Cells of the same test (on several chips, or at
    // several incantation columns) share it. Buckets are keyed by name
    // for O(cells) lookup, with a structural equality check inside the
    // bucket so two different tests that happen to share a name never
    // share a program.
    let mut items: Vec<WorkItem> = Vec::new();
    let mut accs: Vec<Mutex<CellAcc>> = Vec::new();
    let mut slots: Vec<Mutex<ProgramSlot>> = Vec::new();
    let mut slot_rep: Vec<&LitmusTest> = Vec::new();
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    // One set of run parameters per distinct (chip, incantations): a
    // sweep has ten, however many cells it runs.
    let mut params: Vec<(Chip, Incantations, RunParams)> = Vec::new();
    for ci in 0..n {
        let cell = cell_at(ci);
        let param = match params
            .iter()
            .position(|(chip, inc, _)| *chip == cell.chip && *inc == cell.incantations)
        {
            Some(i) => i,
            None => {
                let p = RunParams::of(cell.chip, &cell.incantations);
                params.push((cell.chip, cell.incantations, p));
                params.len() - 1
            }
        };
        let bucket = by_name.entry(cell.test.name()).or_default();
        let same = |s: usize| std::ptr::eq(slot_rep[s], cell.test) || *slot_rep[s] == *cell.test;
        let slot = match bucket.iter().copied().find(|&s| same(s)) {
            Some(s) => s,
            None => {
                slots.push(Mutex::new(ProgramSlot {
                    program: None,
                    items_left: 0,
                }));
                slot_rep.push(cell.test);
                bucket.push(slots.len() - 1);
                slots.len() - 1
            }
        };
        let first = items.len();
        let (mut start, mut runs, mut end) = (0, 0, 0);
        for len in chunk_sizes(cell.iterations) {
            (runs, end) = (runs + len, end + 1);
            if runs >= ITEM_RUNS {
                items.push(WorkItem {
                    cell: ci,
                    slot,
                    chunks: start..end,
                    params: param,
                    acc: None,
                });
                (start, runs) = (end, 0);
            }
        }
        // The rest of the cell; a zero-iteration cell is one empty item,
        // so it completes (and compiles) like any other.
        if start < end || end == 0 {
            items.push(WorkItem {
                cell: ci,
                slot,
                chunks: start..end,
                params: param,
                acc: None,
            });
        }
        let cell_items = items.len() - first;
        slots[slot].get_mut().expect("no poisoned locks").items_left += cell_items;
        if cell_items > 1 {
            for item in &mut items[first..] {
                item.acc = Some(accs.len());
            }
            accs.push(Mutex::new(CellAcc {
                counts: ObsCounts::new(),
                items_left: cell_items,
            }));
        }
    }
    drop(by_name);

    // Runs one item and, if it completes its cell, reports the cell.
    let run_item = |item: &WorkItem,
                    state: &mut Option<MachineState>,
                    counts: &mut ObsCounts|
     -> Result<(), E> {
        let cell = cell_at(item.cell);
        let slot = &slots[item.slot];
        let program = {
            let mut slot = slot.lock().expect("no poisoned locks");
            match &slot.program {
                Some(program) => Arc::clone(program),
                None => {
                    let program = SimProgram::compile(cell.test)
                        .map_err(|e| E::from(HarnessError::Compile(e)))?;
                    Arc::clone(slot.program.insert(Arc::new(program)))
                }
            }
        };
        let sim = Simulator::from_program(program, cell.chip);
        let st = state.get_or_insert_with(|| sim.new_state());
        sim.fit_state(st);
        let params = &params[item.params].2;
        counts.clear();
        let chunks = chunk_sizes(cell.iterations).enumerate();
        for (k, len) in chunks.take(item.chunks.end).skip(item.chunks.start) {
            let mut rng = SmallRng::seed_from_u64(chunk_seed(cell.seed, k));
            sim.run_batch(len, params, &mut rng, st, counts)
                .map_err(|e| E::from(HarnessError::Run(e)))?;
        }
        // The last item of a test frees its program, once `sim` is gone.
        {
            let mut slot = slot.lock().expect("no poisoned locks");
            slot.items_left -= 1;
            if slot.items_left == 0 {
                slot.program = None;
            }
        }

        let Some(acc) = item.acc else {
            return on_cell(item.cell, CellCounts { sim: &sim, counts });
        };
        let finished = {
            let mut acc = accs[acc].lock().expect("no poisoned locks");
            acc.counts.merge(counts);
            acc.items_left -= 1;
            (acc.items_left == 0).then(|| std::mem::take(&mut acc.counts))
        };
        match finished {
            Some(counts) => on_cell(
                item.cell,
                CellCounts {
                    sim: &sim,
                    counts: &counts,
                },
            ),
            None => Ok(()),
        }
    };

    let workers = worker_count(cfg.parallelism, items.len());
    let cursor = AtomicUsize::new(0);
    // Publishes nothing: the error itself is under its mutex.
    let abort = AtomicBool::new(false);
    let error: Mutex<Option<(usize, E)>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = None;
                let mut counts = ObsCounts::new();
                // Abort is honoured only before claiming: a claimed item
                // is always compiled and run to its end. Items are
                // claimed in order, so when an item fails every lower
                // item has been claimed and will finish, and the lowest
                // failure is the same at any parallelism.
                while !abort.load(Ordering::Relaxed) {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    if let Err(e) = run_item(item, &mut state, &mut counts) {
                        let mut slot = error.lock().expect("no poisoned locks");
                        if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                            *slot = Some((i, e));
                        }
                        abort.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });

    match error.into_inner().expect("no poisoned locks") {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// The threads to run `jobs` independent jobs on: `parallelism` (`None`
/// = all available cores), but at least 1 and no more than the jobs.
pub(crate) fn worker_count(parallelism: Option<usize>, jobs: usize) -> usize {
    parallelism
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, jobs.max(1))
}

fn finish_cell(cell: Cell<'_>, done: CellCounts<'_>) -> TestReport {
    let mut histogram = Histogram::new();
    for (obs, n) in done.counts.iter_unordered() {
        histogram.add(done.sim.outcome_from_obs(obs), n);
    }
    let witnesses = histogram.witnesses(cell.test.cond());
    TestReport {
        test: cell.test.name().to_owned(),
        chip: cell.chip,
        incantations: cell.incantations,
        histogram,
        witnesses,
    }
}
