//! Enumeration of candidate executions (paper Sec. 5.1.2).
//!
//! A litmus test's candidate executions are generated in three stages,
//! all on dense ids. The test is first loaded into reusable scratch:
//! its locations become ids (memory-map locations in name order), its
//! threads compiled programs, its initial memory and thread placement
//! id-indexed vectors, and its final condition an [`ObsLayout`], each
//! observed expression resolved to a register index or location id.
//!
//! 1. **Value domains** — a small fixed point computes, per location id,
//!    the values a read could possibly return (the initial value plus
//!    every value any write could produce, iterated to cover
//!    value-chained RMWs), as a sorted vector.
//! 2. **Thread traces** — each thread is unwound symbolically under every
//!    oracle drawn from the domains, into one flat trace arena
//!    ([`crate::symbolic`]).
//! 3. **Communication** — for every combination of traces, every consistent
//!    read-from assignment (each read sourced from a same-location,
//!    same-value write, or the initial state) and every coherence order per
//!    location is enumerated.
//!
//! Stage 3 is **streaming**: each trace combination becomes one immutable
//! [`ExecutionSkeleton`] and each rf×co
//! choice a lightweight in-place [`Overlay`];
//! [`for_each_execution`] visits every candidate as a borrowed
//! [`ExecutionView`] without materialising a `Vec<Candidate>` — once the
//! per-thread scratch is warm, no heap allocation per candidate nor per
//! test, and visitors can stop early (first witness
//! found, forbidden outcome observed) via [`ControlFlow::Break`].
//! [`enumerate_executions`] is a thin materialising wrapper over that
//! stream, kept as the test oracle that judges owned executions.
//!
//! Verdicts ([`model_outcomes_with`]) come from that same stream: every
//! candidate is judged on its own by
//! [`crate::model::Model::allows_view`] (for `.cat` models, the compiled
//! plan over the view) and folded into a [`ModelOutcomes`] by its
//! observation vector: the layout judges each distinct vector against
//! the final condition, and each distinct [`Outcome`] is built once, at
//! the end. Candidates
//! are judged one at a time; what they share is shared through the
//! skeleton and the evaluation context's skeleton-derived registers.
//! Litmus shapes are small (the largest shipped test has 120 candidates,
//! the paper family's median is 6), so no work is shared across
//! candidates beyond that.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::ControlFlow;

use weakgpu_litmus::{FinalExpr, Instr, LitmusTest, ObsLayout, Operand, Outcome, Reg};

use crate::exec::Execution;
use crate::model::Model;
use crate::plan::EvalContext;
use crate::skeleton::{ExecutionSkeleton, ExecutionView, ObservedSrc, Overlay, TestTables};
use crate::symbolic::{walk_thread, Program, SymError, TraceArena, Walker};

/// Bounds for the enumeration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EnumConfig {
    /// Bound on the backward jumps (to the jumping instruction or an
    /// earlier one) a path through one thread may take, so loops unroll
    /// this often before [`SymError::StepLimit`]; a loop-free thread of any
    /// length is never cut off. It once counted instructions, at the same
    /// default: every verdict that gave is unchanged, and failures are
    /// never cached, so cache keys and files need no new schema.
    pub max_backward_jumps_per_thread: usize,
    /// Fixed-point iterations for read-value domains. 3 covers every paper
    /// test (constant stores plus one RMW increment chain).
    pub domain_iters: usize,
    /// Bound on the traces enumerated per thread.
    pub max_traces_per_thread: usize,
    /// Bound on the number of candidates handed to the visitor of
    /// [`for_each_execution`], and so on the candidates a verdict judges:
    /// a test with more candidates fails with
    /// [`EnumError::TooManyExecutions`]. The default (1M) is far above
    /// any shipped test (the largest has 120). A visitor that exits
    /// early (via [`ControlFlow::Break`]) before the limit never trips
    /// it.
    pub max_executions: usize,
}

impl Default for EnumConfig {
    fn default() -> Self {
        EnumConfig {
            max_backward_jumps_per_thread: 128,
            domain_iters: 3,
            max_traces_per_thread: 4096,
            max_executions: 1_000_000,
        }
    }
}

/// Enumeration failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EnumError {
    /// Symbolic execution failed.
    Sym(SymError),
    /// More than [`EnumConfig::max_executions`] candidates visited.
    TooManyExecutions,
}

impl fmt::Display for EnumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnumError::Sym(e) => write!(f, "symbolic execution failed: {e}"),
            EnumError::TooManyExecutions => write!(f, "too many candidate executions"),
        }
    }
}

impl std::error::Error for EnumError {}

impl From<SymError> for EnumError {
    fn from(e: SymError) -> Self {
        EnumError::Sym(e)
    }
}

/// Inserts `v` into the ascending, duplicate-free `domain`; returns
/// whether it was new.
fn insert_value(domain: &mut Vec<i64>, v: i64) -> bool {
    match domain.binary_search(&v) {
        Ok(_) => false,
        Err(pos) => {
            domain.insert(pos, v);
            true
        }
    }
}

impl EnumScratch {
    /// Loads `test`'s tables and compiles its threads: location ids
    /// (memory-map locations first, in name order), initial memory,
    /// thread placement, the observed expressions resolved to register
    /// indices and location ids, and one [`Program`] per thread.
    fn load_test(&mut self, test: &LitmusTest) {
        let t = &mut self.tables;
        t.locs.clear();
        t.init.clear();
        for (loc, mi) in test.memory().iter() {
            t.locs.id(loc);
            t.init.push(mi.init);
        }
        t.memory_locs = t.init.len();
        let nthreads = test.num_threads();
        if self.programs.len() < nthreads {
            self.programs.resize_with(nthreads, Program::default);
        }
        for (tid, code) in test.threads().iter().enumerate() {
            let init = |r: &Reg| test.reg_init_value(tid, r);
            self.programs[tid].compile(code, &init, &mut t.locs);
        }
        t.layout.load(test.cond());
        t.observed_src.clear();
        for expr in t.layout.exprs() {
            t.observed_src.push(match expr {
                FinalExpr::Reg(tid, reg) => ObservedSrc::Reg {
                    tid: *tid,
                    reg: self.programs[..nthreads]
                        .get(*tid)
                        .and_then(|p| p.reg_index(reg)),
                },
                FinalExpr::Mem(loc) => ObservedSrc::Mem(t.locs.id(loc)),
            });
        }
        let nlocs = t.locs.len();
        t.init.resize(nlocs, 0);
        t.thread_cta.clear();
        t.thread_cta
            .extend((0..nthreads).map(|tid| test.scope_tree().placement(tid).cta));
        if self.domains.len() < nlocs {
            self.domains.resize(nlocs, Vec::new());
        }
    }

    /// Resets the read-value domains to each location's initial value:
    /// the domains before any write is taken into account.
    fn initial_domains(&mut self) {
        let t = &self.tables;
        for (l, d) in self.domains[..t.locs.len()].iter_mut().enumerate() {
            d.clear();
            if l < t.memory_locs {
                d.push(t.init[l]);
            }
        }
    }

    /// Adds the statically known write values to the domains: when every
    /// store in `test` writes an immediate constant to a named location
    /// *unconditionally* (no read-modify-writes, no predicated stores),
    /// the values memory can ever hold are the initial values plus those
    /// constants — no symbolic iteration needed. Returns `false` (with
    /// the domains half-updated) when any write's value, address or
    /// *execution* is data-dependent: a guarded store only contributes
    /// its value in traces where the guard fires, a reachability
    /// question only the iterated fixed point answers (adding it
    /// unconditionally would let such a store justify its own guard —
    /// out-of-thin-air candidates).
    fn static_domains(&mut self, test: &LitmusTest) -> bool {
        for instr in test.threads().iter().flatten() {
            // A guard is fine around anything that writes nothing; a
            // guarded write bails to the fixed point.
            let guarded = matches!(instr, Instr::Guard { .. });
            match instr.unguarded() {
                Instr::St {
                    addr: Operand::Sym(loc),
                    src: Operand::Imm(n),
                    ..
                } if !guarded => {
                    let l = self.tables.locs.find(loc).expect("symbols are loaded");
                    insert_value(&mut self.domains[l as usize], *n);
                }
                Instr::St { .. } | Instr::Cas { .. } | Instr::Exch { .. } | Instr::Inc { .. } => {
                    return false
                }
                _ => {}
            }
        }
        true
    }

    /// Walks every thread at the current domains into a fresh arena.
    fn walk_all(&mut self, cfg: &EnumConfig) -> Result<(), SymError> {
        self.arena.clear();
        for (tid, prog) in self.programs[..self.tables.thread_cta.len()]
            .iter()
            .enumerate()
        {
            walk_thread(
                tid,
                prog,
                &self.domains,
                (cfg.max_backward_jumps_per_thread, cfg.max_traces_per_thread),
                &mut self.walker,
                &mut self.arena,
            )?;
        }
        Ok(())
    }

    /// Fills the arena with every thread's traces at the read-value
    /// fixed point.
    ///
    /// Immediate-store tests (the whole generated paper family) take the
    /// static fast path: their domains are closed under
    /// [`EnumScratch::static_domains`], so a single walk suffices. The
    /// static set can exceed the iterated one only by values of stores
    /// that never execute — reads of such values have no matching write
    /// event, so the candidate set is unchanged.
    ///
    /// Otherwise the per-location read-value domains are iterated to a
    /// fixed point (at most [`EnumConfig::domain_iters`] updates); the
    /// traces of the first iteration that adds nothing new are already
    /// the fixed-point traces, so they are kept instead of being walked
    /// again.
    fn fixed_point(&mut self, test: &LitmusTest, cfg: &EnumConfig) -> Result<(), SymError> {
        self.initial_domains();
        if cfg.domain_iters == 0 || self.static_domains(test) {
            return self.walk_all(cfg);
        }
        self.initial_domains();
        let mut iterations = 0usize;
        loop {
            // One fixed-point iteration, updating the domains thread by
            // thread (later threads see earlier threads' new writes).
            self.arena.clear();
            let mut changed = false;
            for (tid, prog) in self.programs[..self.tables.thread_cta.len()]
                .iter()
                .enumerate()
            {
                walk_thread(
                    tid,
                    prog,
                    &self.domains,
                    (cfg.max_backward_jumps_per_thread, cfg.max_traces_per_thread),
                    &mut self.walker,
                    &mut self.arena,
                )?;
                let (first, end) = self.arena.threads()[tid];
                for t in first..end {
                    for e in self.arena.events(t) {
                        if e.kind.is_write() {
                            changed |= insert_value(&mut self.domains[e.loc as usize], e.value);
                        }
                    }
                }
            }
            iterations += 1;
            if !changed {
                // Fixed point: nothing moved this iteration, so every
                // thread's traces were walked at the final domains.
                return Ok(());
            }
            if iterations >= cfg.domain_iters {
                // Budget spent mid-change: the collected traces are stale
                // mixtures, so walk once more at the final domains.
                return self.walk_all(cfg);
            }
        }
    }
}

/// One candidate execution together with its observable outcome, in the
/// legacy materialised form (see [`enumerate_executions`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Candidate {
    /// The execution graph.
    pub execution: Execution,
    /// The values of the test's observed registers/locations.
    pub outcome: Outcome,
}

/// Streams every candidate execution of `test` through `f` as a borrowed
/// [`ExecutionView`], sharing one [`ExecutionSkeleton`] per thread-trace
/// combination and rewriting one rf/co [`Overlay`] in place per
/// candidate — the steady-state loop performs **no heap allocation per
/// candidate**.
///
/// Returning [`ControlFlow::Break`] from `f` stops the enumeration
/// immediately; the break value comes back as `Ok(Some(value))`, and
/// `Ok(None)` means the candidate space was exhausted. Candidates are
/// visited in the same deterministic order [`enumerate_executions`]
/// materialises them.
///
/// ```
/// use std::ops::ControlFlow;
/// use weakgpu_axiom::enumerate::{for_each_execution, EnumConfig};
/// use weakgpu_litmus::{corpus, ThreadScope};
///
/// let test = corpus::sb(ThreadScope::IntraCta, None);
/// // Count candidates without materialising any of them …
/// let mut count = 0usize;
/// let done = for_each_execution(&test, &EnumConfig::default(), |_view| {
///     count += 1;
///     ControlFlow::<()>::Continue(())
/// })
/// .unwrap();
/// assert!(done.is_none() && count > 0);
///
/// // … or stop at the first candidate witnessing the weak outcome.
/// let witness = for_each_execution(&test, &EnumConfig::default(), |view| {
///     if test.cond().witnessed_by(&view.outcome()) {
///         ControlFlow::Break(view.to_execution())
///     } else {
///         ControlFlow::Continue(())
///     }
/// })
/// .unwrap();
/// assert!(witness.is_some());
/// ```
///
/// # Errors
///
/// Fails if symbolic execution fails (bad addresses, unbounded loops) or
/// more than [`EnumConfig::max_executions`] candidates are visited.
pub fn for_each_execution<B, F>(
    test: &LitmusTest,
    cfg: &EnumConfig,
    mut f: F,
) -> Result<Option<B>, EnumError>
where
    F: FnMut(&ExecutionView<'_>) -> ControlFlow<B>,
{
    with_scratch(|scratch| for_each_combination(test, cfg, &mut scratch.enumeration, false, &mut f))
}

/// Everything a judge pass reuses from one test to the next: the
/// enumeration buffers and the outcome fold's.
#[derive(Default)]
struct Scratch {
    enumeration: EnumScratch,
    fold: FoldScratch,
}

// The scratch is kept per thread so consecutive tests reuse one warm
// buffer set.
thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

/// Runs `f` on this thread's scratch, or on a fresh one when a visitor
/// enumerates from inside an enumeration.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut Scratch::default()),
    })
}

/// Streams the candidates of every realisable trace combination of
/// `test` through `f`: loads the test's tables, fills the trace arena at
/// the read-value fixed point, then prepares each combination's skeleton
/// and working set in `scratch` (see [`prepare_combination`]) and counts
/// visits against [`EnumConfig::max_executions`]. An `exhaustive` visitor
/// never breaks, so a combination whose candidates would pass the budget
/// fails before any of them is visited; any other visitor may break first
/// and is charged visit by visit.
fn for_each_combination<B, F>(
    test: &LitmusTest,
    cfg: &EnumConfig,
    scratch: &mut EnumScratch,
    exhaustive: bool,
    f: &mut F,
) -> Result<Option<B>, EnumError>
where
    F: FnMut(&ExecutionView<'_>) -> ControlFlow<B>,
{
    scratch.load_test(test);
    scratch.fixed_point(test, cfg)?;

    // A thread with no trace at all (every path read a location with no
    // candidate value) leaves no combination.
    if scratch
        .arena
        .threads()
        .iter()
        .any(|&(first, end)| first == end)
    {
        return Ok(None);
    }
    scratch.combo.clear();
    scratch
        .combo
        .extend(scratch.arena.threads().iter().map(|&(first, _)| first));
    let mut visited = 0usize;
    'combos: loop {
        if prepare_combination(scratch) {
            if exhaustive
                && visited.saturating_add(combination_candidates(scratch)) > cfg.max_executions
            {
                return Err(EnumError::TooManyExecutions);
            }
            if let ControlFlow::Break(b) = visit_combination(cfg, scratch, &mut visited, f)? {
                return Ok(Some(b));
            }
        }

        // Advance the mixed-radix counter over thread traces.
        for t in (0..scratch.combo.len()).rev() {
            let (first, end) = scratch.arena.threads()[t];
            scratch.combo[t] += 1;
            if scratch.combo[t] < end {
                continue 'combos;
            }
            scratch.combo[t] = first;
        }
        break;
    }
    Ok(None)
}

/// Buffers reused across tests and their trace combinations: the test's
/// tables and compiled threads, the read-value domains, the trace walk
/// and its arena, the skeleton, the overlay, and the rf-choice working
/// set. Once warm, a test allocates nothing here beyond growth to a new
/// high-water mark.
#[derive(Default)]
struct EnumScratch {
    tables: TestTables,
    /// One compiled program per thread. Grow-only; entries past the
    /// test's thread count are stale spares.
    programs: Vec<Program>,
    /// Read-value domain per location id, ascending. Grow-only; entries
    /// past the test's location count are stale spares.
    domains: Vec<Vec<i64>>,
    walker: Walker,
    arena: TraceArena,
    /// The current combination: one arena trace index per thread.
    combo: Vec<usize>,
    skel: ExecutionSkeleton,
    overlay: Overlay,
    /// Read event ids of the current skeleton.
    reads: Vec<usize>,
    /// Per read: its candidate rf sources. Grow-only; entries past the
    /// current read count are stale spares.
    rf_choices: Vec<Vec<Option<usize>>>,
    rf_idx: Vec<usize>,
    /// Skeleton stamp for which the overlay was last sized (0 = never).
    working_set_skel: u64,
}

/// Rearranges `order` into the next of its permutations in lexicographic
/// order and returns `true`; after the last one, rearranges it back into
/// the first (ascending) and returns `false`. Steps in place, so stepping
/// through all `n!` orders takes no memory beyond `order` itself.
fn next_permutation(order: &mut [usize]) -> bool {
    // The longest descending suffix is already its own last arrangement.
    let Some(i) = (1..order.len()).rev().find(|&i| order[i - 1] < order[i]) else {
        order.reverse();
        return false;
    };
    // Swap the element before it with the suffix's smallest larger
    // element (the suffix stays descending), then make it ascending.
    let j = (i..order.len())
        .rev()
        .find(|&j| order[i - 1] < order[j])
        .expect("order[i] is larger");
    order.swap(i - 1, j);
    order[i..].reverse();
    true
}

/// Fills the current combination's skeleton and working set
/// (rf-candidate lists, overlay sizing) in `scratch`. Returns `false`
/// when the combination is unrealisable — some read's value matches
/// neither the initial state nor any same-location write — in which case
/// the working set is left untouched and the combination contributes no
/// candidates.
fn prepare_combination(scratch: &mut EnumScratch) -> bool {
    scratch
        .skel
        .fill(&scratch.arena, &scratch.combo, &scratch.tables);
    let skel = &scratch.skel;
    let events = skel.events();

    // Read-from candidates per read.
    scratch.reads.clear();
    scratch.reads.extend(
        events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind.is_read())
            .map(|(id, _)| id),
    );
    let reads = &scratch.reads;
    if scratch.rf_choices.len() < reads.len() {
        scratch.rf_choices.resize(reads.len(), Vec::new());
    }
    for cands in &mut scratch.rf_choices[..reads.len()] {
        cands.clear();
    }
    for (k, &r) in reads.iter().enumerate() {
        let v = events[r].value;
        let cands = &mut scratch.rf_choices[k];
        let li = skel.loc_index(r);
        if li == usize::MAX {
            // The location is never written: the read can only see init.
            if scratch.tables.init[events[r].loc as usize] == v {
                cands.push(None);
            }
        } else {
            if skel.init_value(li) == v {
                cands.push(None);
            }
            for &w in &skel.writes_per_loc()[li] {
                if events[w].value == v {
                    cands.push(Some(w));
                }
            }
        }
        if cands.is_empty() {
            return false; // unrealisable combination
        }
    }

    // The overlay sizing depends only on the skeleton's structure, so
    // it is redone only when the skeleton identity changed since it was
    // last done (value-only combination changes reuse it).
    if scratch.working_set_skel != skel.id() {
        scratch.overlay.reset(skel);
        scratch.working_set_skel = skel.id();
    }
    true
}

/// The candidates of the prepared combination, saturating: the product of
/// each read's rf choices and each written location's coherence orders,
/// the factorial of its write count.
fn combination_candidates(scratch: &EnumScratch) -> usize {
    let rf = scratch.rf_choices[..scratch.reads.len()]
        .iter()
        .fold(1usize, |n, choices| n.saturating_mul(choices.len()));
    scratch.skel.writes_per_loc().iter().fold(rf, |n, ws| {
        (2..=ws.len()).fold(n, |n, k| n.saturating_mul(k))
    })
}

/// Streams one prepared combination's rf×co overlays through `f`,
/// rewriting the overlay in place.
fn visit_combination<B, F>(
    cfg: &EnumConfig,
    scratch: &mut EnumScratch,
    visited: &mut usize,
    f: &mut F,
) -> Result<ControlFlow<B>, EnumError>
where
    F: FnMut(&ExecutionView<'_>) -> ControlFlow<B>,
{
    let skel = &scratch.skel;
    let reads = &scratch.reads;
    let writes_per_loc = skel.writes_per_loc();

    // Product: rf assignment × co choice, rewriting the overlay in place.
    // Each location's coherence order steps through the permutations of
    // its writes, which are listed by ascending event id, so the orders
    // come lexicographically by position: permutations starting with the
    // first write first, then the second, and so on.
    scratch.rf_idx.clear();
    scratch.rf_idx.resize(reads.len(), 0);
    'rf: loop {
        for (k, &r) in reads.iter().enumerate() {
            scratch
                .overlay
                .set_rf(r, scratch.rf_choices[k][scratch.rf_idx[k]]);
        }

        for (li, ws) in writes_per_loc.iter().enumerate() {
            scratch.overlay.set_co(li, ws);
        }
        'co: loop {
            scratch.overlay.stamp();
            charge(visited, cfg)?;
            let view = ExecutionView::new(skel, &scratch.overlay, &scratch.tables);
            if let ControlFlow::Break(b) = f(&view) {
                return Ok(ControlFlow::Break(b));
            }

            // Advance in place, touching only the coherence axes that
            // move; an axis that wraps is back at its first order.
            for li in (0..writes_per_loc.len()).rev() {
                if next_permutation(scratch.overlay.co_mut(li)) {
                    continue 'co;
                }
            }
            break;
        }

        for k in (0..scratch.rf_idx.len()).rev() {
            scratch.rf_idx[k] += 1;
            if scratch.rf_idx[k] < scratch.rf_choices[k].len() {
                continue 'rf;
            }
            scratch.rf_idx[k] = 0;
        }
        break;
    }
    Ok(ControlFlow::Continue(()))
}

/// Charges one visit against [`EnumConfig::max_executions`].
fn charge(visited: &mut usize, cfg: &EnumConfig) -> Result<(), EnumError> {
    *visited += 1;
    if *visited > cfg.max_executions {
        Err(EnumError::TooManyExecutions)
    } else {
        Ok(())
    }
}

/// Materialises all candidate executions of `test` — a thin wrapper over
/// [`for_each_execution`] kept as the materialise-then-judge test oracle:
/// its owned [`Execution`]s are judged by [`Model::allows`] (for `.cat`
/// models, the tree-walking interpreter), against the compiled plan that
/// judges the stream. Everything else should use [`model_outcomes`] (or
/// the visitor directly, materialising only the candidates it keeps):
/// this clones the shared skeleton into an owned [`Execution`] per
/// candidate.
///
/// # Errors
///
/// Fails if symbolic execution fails (bad addresses, unbounded loops) or
/// the candidate count exceeds [`EnumConfig::max_executions`], before
/// materialising the trace combination that passes it.
pub fn enumerate_executions(
    test: &LitmusTest,
    cfg: &EnumConfig,
) -> Result<Vec<Candidate>, EnumError> {
    let mut out = Vec::new();
    with_scratch(|scratch| {
        for_each_combination(test, cfg, &mut scratch.enumeration, true, &mut |view| {
            out.push(Candidate {
                execution: view.to_execution(),
                outcome: view.outcome(),
            });
            ControlFlow::<()>::Continue(())
        })
    })?;
    Ok(out)
}

/// The model-level verdict on a litmus test.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ModelOutcomes {
    /// Every outcome of every candidate execution.
    pub all_outcomes: BTreeSet<Outcome>,
    /// Outcomes of model-allowed executions.
    pub allowed_outcomes: BTreeSet<Outcome>,
    /// Number of candidate executions examined.
    pub num_candidates: usize,
    /// Number of allowed executions.
    pub num_allowed: usize,
    /// `true` if the final condition is witnessed by some *allowed*
    /// execution (for `exists`: the model permits the listed outcome).
    pub condition_witnessed: bool,
}

/// Runs `model` over all candidates of `test`.
///
/// # Errors
///
/// Propagates [`EnumError`]s from the enumeration.
pub fn model_outcomes(
    test: &LitmusTest,
    model: &dyn Model,
    cfg: &EnumConfig,
) -> Result<ModelOutcomes, EnumError> {
    model_outcomes_with(test, model, cfg, &mut EvalContext::new())
}

/// [`model_outcomes`] with a caller-owned [`EvalContext`]: streams every
/// candidate through [`for_each_execution`], judges each one with
/// [`crate::model::Model::allows_view`] and folds the verdicts into a
/// [`ModelOutcomes`]. For plan-backed models the loop performs no heap
/// allocation per candidate. Sweep workers hold one context each and
/// pass it here on verdict-cache misses.
///
/// # Errors
///
/// Propagates [`EnumError`]s from the enumeration.
pub fn model_outcomes_with(
    test: &LitmusTest,
    model: &dyn Model,
    cfg: &EnumConfig,
    ctx: &mut EvalContext,
) -> Result<ModelOutcomes, EnumError> {
    model_outcomes_counted(test, model, cfg, ctx).map(|(outcomes, _)| outcomes)
}

/// [`model_outcomes_with`] plus the number of trace combinations the
/// stream visited (each contributes at least one candidate).
///
/// # Errors
///
/// Propagates [`EnumError`]s from the enumeration.
pub fn model_outcomes_counted(
    test: &LitmusTest,
    model: &dyn Model,
    cfg: &EnumConfig,
    ctx: &mut EvalContext,
) -> Result<(ModelOutcomes, usize), EnumError> {
    with_scratch(|scratch| {
        let mut fold = OutcomeFold::new(&mut scratch.fold);
        let (mut combinations, mut last_combination) = (0usize, 0u64);
        for_each_combination(test, cfg, &mut scratch.enumeration, true, &mut |view| {
            if view.combination_id() != last_combination {
                last_combination = view.combination_id();
                combinations += 1;
            }
            let allowed = model.allows_view(ctx, view);
            fold.candidate(view, allowed);
            ControlFlow::<()>::Continue(())
        })?;
        Ok((
            fold.finish(&scratch.enumeration.tables.layout),
            combinations,
        ))
    })
}

/// The fold's buffers, reused from one test to the next.
#[derive(Default)]
struct FoldScratch {
    /// The current candidate's observed values.
    vals: Vec<i64>,
    /// The distinct observed-value vectors seen so far, `width` values
    /// each, in first-seen order: entry `i` is
    /// `seen[i * width..][..width]`.
    seen: Vec<i64>,
    /// Entry indices sorted by value vector, for a binary-search probe.
    order: Vec<usize>,
    /// Per entry: whether it witnesses the final condition, and whether
    /// some allowed candidate has it.
    entries: Vec<(bool, bool)>,
}

/// The fold of [`model_outcomes_counted`]: accumulates a
/// [`ModelOutcomes`] one `(candidate, verdict)` pair at a time.
///
/// Dedup is by observation vector, in the test's [`ObsLayout`]: `vals`
/// is refilled per candidate and matched against the distinct vectors
/// seen so far (a handful per test, so a sorted probe beats hashing).
/// Each distinct vector is judged against the final condition once, when
/// first seen, and built into its [`Outcome`] once, in `finish`, which
/// moves it into the all-outcomes set and clones it only into the
/// allowed set. Two
/// memos answer most probes without a search: when a test observes
/// only registers the outcome is fixed per trace combination (`fixed`
/// answers with one stamp comparison), and for memory-observing tests
/// consecutive candidates usually share their outcome (`last`).
struct OutcomeFold<'t> {
    buf: &'t mut FoldScratch,
    /// Observed values per candidate.
    width: usize,
    num_candidates: usize,
    num_allowed: usize,
    witnessed: bool,
    fixed: Option<(u64, usize)>,
    last: Option<usize>,
}

impl<'t> OutcomeFold<'t> {
    fn new(buf: &'t mut FoldScratch) -> Self {
        buf.seen.clear();
        buf.order.clear();
        buf.entries.clear();
        OutcomeFold {
            buf,
            width: 0,
            num_candidates: 0,
            num_allowed: 0,
            witnessed: false,
            fixed: None,
            last: None,
        }
    }

    /// Entry `i`'s observed values.
    fn seen(&self, i: usize) -> &[i64] {
        &self.buf.seen[i * self.width..][..self.width]
    }

    /// Folds one candidate with its verdict into the running totals.
    fn candidate(&mut self, view: &ExecutionView<'_>, is_allowed: bool) {
        self.num_candidates += 1;
        let idx = match self.fixed {
            Some((combo, i)) if combo == view.combination_id() => i,
            _ => {
                view.fill_observed(&mut self.buf.vals);
                self.width = self.buf.vals.len();
                let i = match self.last {
                    Some(i) if self.seen(i) == self.buf.vals => i,
                    _ => {
                        let i = match self
                            .buf
                            .order
                            .binary_search_by(|&k| self.seen(k).cmp(self.buf.vals.as_slice()))
                        {
                            Ok(pos) => self.buf.order[pos],
                            Err(pos) => {
                                let witnesses = view.layout().witnessed_by(&self.buf.vals);
                                let i = self.buf.entries.len();
                                self.buf.entries.push((witnesses, false));
                                self.buf.seen.extend_from_slice(&self.buf.vals);
                                self.buf.order.insert(pos, i);
                                i
                            }
                        };
                        self.last = Some(i);
                        i
                    }
                };
                if view.observed_is_skeleton_fixed() {
                    self.fixed = Some((view.combination_id(), i));
                }
                i
            }
        };
        if is_allowed {
            self.num_allowed += 1;
            let (witnesses, allowed) = &mut self.buf.entries[idx];
            self.witnessed |= *witnesses;
            *allowed = true;
        }
    }

    /// The verdict, naming each distinct vector in `layout`, the layout
    /// the candidates were filled in.
    fn finish(self, layout: &ObsLayout) -> ModelOutcomes {
        let mut all_outcomes = BTreeSet::new();
        let mut allowed_outcomes = BTreeSet::new();
        for (i, &(_, allowed)) in self.buf.entries.iter().enumerate() {
            let outcome = layout.outcome(self.seen(i));
            if allowed {
                allowed_outcomes.insert(outcome.clone());
            }
            all_outcomes.insert(outcome);
        }
        ModelOutcomes {
            all_outcomes,
            allowed_outcomes,
            num_candidates: self.num_candidates,
            num_allowed: self.num_allowed,
            condition_witnessed: self.witnessed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakgpu_litmus::corpus;
    use weakgpu_litmus::ThreadScope;

    /// Every order `next_permutation` steps `items` (ascending) through,
    /// from `items` until it wraps back to them.
    fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
        let mut order = items.to_vec();
        let mut out = vec![order.clone()];
        while next_permutation(&mut order) {
            out.push(order.clone());
        }
        assert_eq!(order, items, "a wrap restores the first order");
        out
    }

    #[test]
    fn permutations_count() {
        assert_eq!(permutations(&[]).len(), 1);
        assert_eq!(permutations(&[1]).len(), 1);
        assert_eq!(permutations(&[1, 2, 3]).len(), 6);
        let ps = permutations(&[1, 2]);
        assert!(ps.contains(&vec![1, 2]) && ps.contains(&vec![2, 1]));
    }

    #[test]
    fn next_permutation_keeps_the_recursive_order() {
        // The recursive emission it replaces put the permutations that
        // start with the first write first, then the second, and so on:
        // all n! orders, lexicographically by position. Event ids ascend
        // with position, so the stepper must emit every order once, in
        // ascending order, for candidate order and verdicts to stay put.
        for n in 0..=6 {
            let items: Vec<usize> = (0..n).map(|i| 3 * i + 1).collect();
            let orders = permutations(&items);
            assert_eq!(orders.len(), (1..=n).product::<usize>(), "{n} writes");
            assert!(orders.windows(2).all(|w| w[0] < w[1]), "{n} writes");
        }
        assert_eq!(permutations(&[1, 2, 3])[1], vec![1, 3, 2]);
    }

    #[test]
    fn corr_candidates_include_weak_outcome() {
        let test = corpus::corr();
        let cands = enumerate_executions(&test, &EnumConfig::default()).unwrap();
        assert!(!cands.is_empty());
        // The weak outcome r1=1, r2=0 appears among candidates.
        let weak = cands.iter().any(|c| test.cond().witnessed_by(&c.outcome));
        assert!(weak);
        // And the SC outcome r1=1, r2=1 too.
        let mut sc = Outcome::new();
        sc.set(FinalExpr::reg(1, "r1"), 1);
        sc.set(FinalExpr::reg(1, "r2"), 1);
        assert!(cands.iter().any(|c| c.outcome == sc));
    }

    #[test]
    fn domains_cover_increment_chains() {
        // dlb-mp has `t := load t + 1`, needing iterated domains.
        let test = corpus::dlb_mp(false);
        let cfg = EnumConfig::default();
        let mut s = EnumScratch::default();
        s.load_test(&test);
        s.fixed_point(&test, &cfg).unwrap();
        let t = s.tables.locs.find(&weakgpu_litmus::Loc::new("t")).unwrap();
        let t = &s.domains[t as usize];
        assert!(t.contains(&0) && t.contains(&1));
        assert_eq!(s.arena.threads().len(), test.num_threads());
        assert!(s.arena.threads().iter().all(|&(first, end)| first < end));
    }

    #[test]
    fn reused_skeletons_equal_rebuilt_ones() {
        // A skeleton keeps its relations when every thread's trace has
        // the shape of the one it was built from. Threads 1 and 2 each
        // have two traces of the same length: thread 1's store to
        // different locations, thread 2's store data-depends on its
        // read in one trace only. Only a shape comparison tells them
        // apart.
        use weakgpu_litmus::build::{imm, ld, mov, reg, setp_eq, st, st_reg};
        use weakgpu_litmus::{FenceScope, Predicate};
        let branchy = LitmusTest::builder("branchy")
            .global("x", 0)
            .global("y", 0)
            .global("z", 0)
            .global("w", 0)
            .thread([st("x", 1)])
            .thread([
                ld("r0", "x"),
                setp_eq("p", reg("r0"), imm(0)),
                st("y", 1).guarded("p", true),
                st("z", 1).guarded("p", false),
            ])
            .thread([
                ld("r0", "x"),
                setp_eq("p", reg("r0"), imm(0)),
                mov("r1", reg("r0")).guarded("p", true),
                mov("r1", imm(1)).guarded("p", false),
                st_reg("w", "r1"),
            ])
            .exists(Predicate::reg_eq(1, "r0", 1))
            .build()
            .unwrap();
        let cfg = EnumConfig::default();
        let mut tests = corpus::all();
        tests.push(corpus::mp(ThreadScope::IntraCta, Some(FenceScope::Cta)));
        tests.push(branchy);
        let mut s = EnumScratch::default();
        let mut reuses = 0usize;
        for test in &tests {
            s.load_test(test);
            s.fixed_point(test, &cfg).unwrap();
            let threads = s.arena.threads().to_vec();
            let mut combo: Vec<usize> = threads.iter().map(|&(first, _)| first).collect();
            'combos: loop {
                reuses += usize::from(s.skel.fill(&s.arena, &combo, &s.tables));
                let mut fresh = ExecutionSkeleton::default();
                fresh.fill(&s.arena, &combo, &s.tables);
                assert_eq!(s.skel.derived(), fresh.derived(), "{}", test.name());
                for t in (0..combo.len()).rev() {
                    combo[t] += 1;
                    if combo[t] < threads[t].1 {
                        continue 'combos;
                    }
                    combo[t] = threads[t].0;
                }
                break;
            }
        }
        assert!(reuses > 0, "some combination keeps its skeleton");
    }

    #[test]
    fn unrealisable_reads_prune_candidates() {
        // sb: reads of x/y can only be 0 or 1; no candidate gives r2=7.
        let test = corpus::sb(ThreadScope::InterCta, None);
        let cands = enumerate_executions(&test, &EnumConfig::default()).unwrap();
        assert!(cands
            .iter()
            .all(|c| c.outcome.iter().all(|(_, v)| v == 0 || v == 1)));
    }

    #[test]
    fn rf_sources_match_location_and_value() {
        let test = corpus::corr();
        for c in enumerate_executions(&test, &EnumConfig::default()).unwrap() {
            let ex = &c.execution;
            for (r, src) in ex.rf.iter().enumerate() {
                if let Some(w) = src {
                    assert!(ex.events[*w].is_write());
                    assert_eq!(ex.events[*w].loc, ex.events[r].loc);
                    assert_eq!(ex.events[*w].value, ex.events[r].value);
                }
            }
        }
    }

    #[test]
    fn execution_count_is_bounded_and_deterministic() {
        let test = corpus::corr();
        let a = enumerate_executions(&test, &EnumConfig::default()).unwrap();
        let b = enumerate_executions(&test, &EnumConfig::default()).unwrap();
        assert_eq!(a.len(), b.len());
        let tiny = EnumConfig {
            max_executions: 1,
            ..EnumConfig::default()
        };
        assert_eq!(
            enumerate_executions(&test, &tiny).unwrap_err(),
            EnumError::TooManyExecutions
        );
    }

    #[test]
    fn visitor_counts_match_materialised_candidates() {
        for test in [
            corpus::corr(),
            corpus::mp(ThreadScope::InterCta, None),
            corpus::dlb_lb(false),
        ] {
            let cands = enumerate_executions(&test, &EnumConfig::default()).unwrap();
            let mut visits = 0usize;
            for_each_execution(&test, &EnumConfig::default(), |_| {
                visits += 1;
                ControlFlow::<()>::Continue(())
            })
            .unwrap();
            assert_eq!(visits, cands.len(), "{}", test.name());
        }
    }

    #[test]
    fn the_judge_rejects_a_write_fan_before_judging_any_candidate() {
        use crate::exec::Execution;
        use std::cell::Cell;
        use weakgpu_litmus::build::st;
        use weakgpu_litmus::Predicate;

        /// Allows every candidate and counts how many it was asked about.
        struct Counting(Cell<usize>);
        impl Model for Counting {
            fn name(&self) -> &str {
                "counting"
            }
            fn allows(&self, _: &Execution) -> bool {
                self.0.set(self.0.get() + 1);
                true
            }
        }

        // Ten stores to one location: 10! = 3,628,800 coherence orders.
        let test = LitmusTest::builder("ten-stores")
            .global("x", 0)
            .thread((1..=10).map(|v| st("x", v)))
            .exists(Predicate::mem_eq("x", 1))
            .build()
            .unwrap();
        let cfg = EnumConfig {
            max_executions: 1_000,
            ..EnumConfig::default()
        };
        let model = Counting(Cell::new(0));
        let err = model_outcomes(&test, &model, &cfg).unwrap_err();
        assert_eq!(err, EnumError::TooManyExecutions);
        assert_eq!(model.0.get(), 0, "views judged before the budget check");
        // Materialising the candidates fails the same way.
        assert_eq!(
            enumerate_executions(&test, &cfg).unwrap_err(),
            EnumError::TooManyExecutions
        );

        // Within the budget the count is exact: the same fan of four
        // stores has 4! candidates, all of them judged.
        let four = LitmusTest::builder("four-stores")
            .global("x", 0)
            .thread((1..=4).map(|v| st("x", v)))
            .exists(Predicate::mem_eq("x", 1))
            .build()
            .unwrap();
        let tight = EnumConfig {
            max_executions: 24,
            ..EnumConfig::default()
        };
        let out = model_outcomes(&four, &model, &tight).unwrap();
        assert_eq!((out.num_candidates, model.0.get()), (24, 24));
        let tighter = EnumConfig {
            max_executions: 23,
            ..EnumConfig::default()
        };
        assert_eq!(
            model_outcomes(&four, &model, &tighter).unwrap_err(),
            EnumError::TooManyExecutions
        );
        assert_eq!(model.0.get(), 24, "no view judged past the budget");
    }

    #[test]
    fn candidate_limit_counts_visits_not_materialisations() {
        let test = corpus::corr();
        let total = enumerate_executions(&test, &EnumConfig::default())
            .unwrap()
            .len();
        assert!(total > 2);
        let tight = EnumConfig {
            max_executions: 2,
            ..EnumConfig::default()
        };
        // Visiting everything trips the limit …
        let err = for_each_execution(&test, &tight, |_| ControlFlow::<()>::Continue(()));
        assert_eq!(err.unwrap_err(), EnumError::TooManyExecutions);
        // … but an early-exiting visitor stays under it.
        let broke = for_each_execution(&test, &tight, |_| ControlFlow::Break(42)).unwrap();
        assert_eq!(broke, Some(42));
        // Breaking exactly at the limit is still within bounds.
        let mut visits = 0usize;
        let broke = for_each_execution(&test, &tight, |_| {
            visits += 1;
            if visits == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap();
        assert!(broke.is_some() && visits == 2);
    }
}
