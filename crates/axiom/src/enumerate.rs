//! Enumeration of candidate executions (paper Sec. 5.1.2).
//!
//! A litmus test's candidate executions are generated in three stages:
//!
//! 1. **Value domains** — a small fixed point computes, per location, the
//!    values a read could possibly return (the initial value plus every
//!    value any write could produce, iterated to cover value-chained RMWs).
//! 2. **Thread traces** — each thread is unwound symbolically under every
//!    oracle drawn from the domains ([`crate::symbolic`]).
//! 3. **Communication** — for every combination of traces, every consistent
//!    read-from assignment (each read sourced from a same-location,
//!    same-value write, or the initial state) and every coherence order per
//!    location is enumerated.
//!
//! Stage 3 is **streaming**: each trace combination becomes one immutable
//! [`ExecutionSkeleton`] and each rf×co
//! choice a lightweight in-place [`Overlay`];
//! [`for_each_execution`] visits every candidate as a borrowed
//! [`ExecutionView`] without materialising a `Vec<Candidate>` — no heap
//! allocation per candidate, and visitors can stop early (first witness
//! found, forbidden outcome observed) via [`ControlFlow::Break`].
//! [`enumerate_executions`] is a thin materialising wrapper over that
//! stream for rendering and diagnostics.
//!
//! Verdicts ([`model_outcomes_with`], [`model_outcomes_counted`],
//! [`condition_witnessed_with`]) come from one production path, the
//! decision-tree walk [`for_each_execution_pruned`]. Its rf slots and
//! coherence axes are the levels of a tree, and three mechanisms are
//! always on:
//!
//! * **Interval cuts.** A subtree is cut whenever the partially-filled
//!   overlay already forces the model's verdict
//!   ([`crate::model::Model::partial_verdict`], a three-valued interval
//!   evaluation over the compiled plan). A cut subtree is reported as one
//!   [`PrunedClass`] spanning all its candidates.
//! * **Push/pop delta evaluation.** The interval state is kept along the
//!   tree path and moved between nodes by word-level undo and row-local
//!   updates, never refilled from scratch.
//! * **64-lane leaf batches.** A trailing subtree of 2–64 sibling
//!   candidates is judged in one bit-plane pass: each sibling becomes a
//!   lane of an [`OverlayBatch`] and every relational operation of the
//!   compiled plan covers all lanes per machine word
//!   ([`crate::plan::Plan::allows_batch`]).
//!
//! Plans that are not row-local (`;`, `^-1`, `+` or `*` over an rf/co/fr
//! operand) never cut: they walk with batched leaves only.
//! [`model_outcomes_exhaustive`] — every candidate of the scalar stream
//! judged one at a time — is the test oracle the walk is checked against;
//! verdicts are bit-identical.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::ControlFlow;

use weakgpu_litmus::{FinalExpr, Instr, LitmusTest, Loc, Operand, Outcome, Reg};

use crate::exec::Execution;
use crate::model::Model;
use crate::plan::EvalContext;
use crate::skeleton::{
    ExecutionSkeleton, ExecutionView, LaneMask, Overlay, OverlayBatch, PartialView,
};
use crate::symbolic::{enumerate_thread_traces, SymError, ThreadTrace};

/// Bounds for the enumeration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EnumConfig {
    /// Instruction budget per thread (loops unroll up to this).
    pub max_steps_per_thread: usize,
    /// Fixed-point iterations for read-value domains. 3 covers every paper
    /// test (constant stores plus one RMW increment chain).
    pub domain_iters: usize,
    /// Bound on the traces enumerated per thread.
    pub max_traces_per_thread: usize,
    /// Bound on the number of classes **visited**: the verdict walk
    /// ([`for_each_execution_pruned`]) charges one visit per
    /// [`PrunedClass`] it hands to its visitor — a forced-cut class, a
    /// uniform batch or a single leaf — so a budget that the exhaustive
    /// stream exceeds can still complete when cuts and batches collapse
    /// the space. The scalar stream ([`for_each_execution`]) charges one
    /// visit per candidate handed to its callback. A visitor that exits
    /// early (via [`ControlFlow::Break`]) before the limit never trips
    /// it.
    pub max_executions: usize,
}

impl Default for EnumConfig {
    fn default() -> Self {
        EnumConfig {
            max_steps_per_thread: 128,
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

/// Collects the statically known write-value domains: when every store
/// in `test` writes an immediate constant to a named location
/// *unconditionally* (no read-modify-writes, no predicated stores), the
/// values memory can ever hold are the initial values plus those
/// constants — no symbolic iteration needed. Returns `None` when any
/// write's value, address or *execution* is data-dependent: a guarded
/// store only contributes its value in traces where the guard fires, a
/// reachability question only the iterated fixed point answers (adding
/// it unconditionally would let such a store justify its own guard —
/// out-of-thin-air candidates).
fn static_domains(test: &LitmusTest) -> Option<BTreeMap<Loc, BTreeSet<i64>>> {
    fn collect(instr: &Instr, domains: &mut BTreeMap<Loc, BTreeSet<i64>>) -> bool {
        match instr {
            // A guard is fine around anything that writes nothing; a
            // guarded write bails to the fixed point.
            Instr::Guard { inner, .. } => match &**inner {
                Instr::St { .. } | Instr::Cas { .. } | Instr::Exch { .. } | Instr::Inc { .. } => {
                    false
                }
                other => collect(other, domains),
            },
            Instr::St {
                addr: Operand::Sym(loc),
                src: Operand::Imm(n),
                ..
            } => {
                domains.entry(loc.clone()).or_default().insert(*n);
                true
            }
            Instr::St { .. } | Instr::Cas { .. } | Instr::Exch { .. } | Instr::Inc { .. } => false,
            _ => true,
        }
    }
    let mut domains: BTreeMap<Loc, BTreeSet<i64>> = test
        .memory()
        .iter()
        .map(|(l, mi)| (l.clone(), [mi.init].into_iter().collect()))
        .collect();
    for thread in test.threads() {
        for instr in thread {
            if !collect(instr, &mut domains) {
                return None;
            }
        }
    }
    Some(domains)
}

/// Enumerates every thread's traces at the read-value fixed point.
///
/// Immediate-store tests (the whole generated paper family) take the
/// static fast path: their domains are closed under
/// [`static_domains`], so a single enumeration pass suffices. The
/// static set can exceed the iterated one only by values of stores that
/// never execute — reads of such values have no matching write event,
/// so the candidate set is unchanged.
///
/// Otherwise the per-location read-value domains are iterated to a
/// fixed point (at most [`EnumConfig::domain_iters`] updates); the
/// traces of the first iteration that adds nothing new are already the
/// fixed-point traces, so they are returned directly instead of being
/// re-enumerated. Returns the final domains alongside for inspection.
#[allow(clippy::type_complexity)]
fn fixed_point_traces(
    test: &LitmusTest,
    cfg: &EnumConfig,
) -> Result<(BTreeMap<Loc, BTreeSet<i64>>, Vec<Vec<ThreadTrace>>), EnumError> {
    let mut domains: BTreeMap<Loc, BTreeSet<i64>> = test
        .memory()
        .iter()
        .map(|(l, mi)| (l.clone(), [mi.init].into_iter().collect()))
        .collect();
    let enumerate_all = |domains: &BTreeMap<Loc, BTreeSet<i64>>| {
        test.threads()
            .iter()
            .enumerate()
            .map(|(tid, code)| {
                let init = |r: &Reg| test.reg_init_value(tid, r);
                enumerate_thread_traces(
                    tid,
                    code,
                    &init,
                    domains,
                    cfg.max_steps_per_thread,
                    cfg.max_traces_per_thread,
                )
            })
            .collect::<Result<Vec<_>, _>>()
    };
    if cfg.domain_iters == 0 {
        let per_thread = enumerate_all(&domains)?;
        return Ok((domains, per_thread));
    }
    if let Some(domains) = static_domains(test) {
        let per_thread = enumerate_all(&domains)?;
        return Ok((domains, per_thread));
    }
    let mut iterations = 0usize;
    loop {
        // One fixed-point iteration, updating the domains thread by
        // thread (later threads see earlier threads' new writes, exactly
        // like the original two-phase computation).
        let mut per_thread = Vec::with_capacity(test.num_threads());
        let mut changed = false;
        for (tid, code) in test.threads().iter().enumerate() {
            let init = |r: &Reg| test.reg_init_value(tid, r);
            let traces = enumerate_thread_traces(
                tid,
                code,
                &init,
                &domains,
                cfg.max_steps_per_thread,
                cfg.max_traces_per_thread,
            )?;
            for tr in &traces {
                for e in &tr.events {
                    if e.kind.is_write() {
                        let loc = e.loc.clone().expect("writes have locations");
                        if domains.entry(loc).or_default().insert(e.value) {
                            changed = true;
                        }
                    }
                }
            }
            per_thread.push(traces);
        }
        iterations += 1;
        if !changed {
            // Fixed point: nothing moved this iteration, so every
            // thread's traces were enumerated at the final domains —
            // reuse them instead of enumerating again.
            return Ok((domains, per_thread));
        }
        if iterations >= cfg.domain_iters {
            // Budget spent mid-change: the collected traces are stale
            // mixtures, so enumerate once more at the final domains.
            let per_thread = enumerate_all(&domains)?;
            return Ok((domains, per_thread));
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
    with_scratch(|scratch| {
        for_each_combination(test, cfg, scratch, |scratch, visited| {
            visit_combination(cfg, scratch, visited, &mut f)
        })
    })
}

// The enumeration scratch (skeleton, overlay, rf/co working set) is
// kept per thread so consecutive tests reuse one warm buffer set.
thread_local! {
    static ENUM_SCRATCH: std::cell::RefCell<EnumScratch> =
        std::cell::RefCell::new(EnumScratch::new());
}

/// Runs `f` on this thread's enumeration scratch, or on a fresh one
/// when a visitor enumerates from inside an enumeration.
fn with_scratch<R>(f: impl FnOnce(&mut EnumScratch) -> R) -> R {
    ENUM_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut EnumScratch::new()),
    })
}

/// One memoised [`fixed_point_traces`] result. Trace enumeration
/// depends only on the test and the enumeration caps, yet every
/// judgement pass re-derived it from scratch — in a sweep each
/// (test, model) cell pays it again, and on small-tree workloads it
/// rivals the walk itself. A single-entry cache keyed by test equality
/// covers the hot pattern (consecutive passes over one test) without
/// growing per extra test.
struct TraceCache {
    test: LitmusTest,
    max_steps: usize,
    max_traces: usize,
    domain_iters: usize,
    domains: std::rc::Rc<BTreeMap<Loc, BTreeSet<i64>>>,
    per_thread: std::rc::Rc<Vec<Vec<ThreadTrace>>>,
}

thread_local! {
    static TRACE_CACHE: std::cell::RefCell<Option<TraceCache>> =
        const { std::cell::RefCell::new(None) };
}

/// [`fixed_point_traces`] behind the thread-local single-entry cache:
/// a hit is one `LitmusTest` equality check instead of a full
/// enumeration. The caps are part of the key — a budget change must
/// re-enumerate (and re-raise any budget error).
#[allow(clippy::type_complexity)]
fn fixed_point_traces_cached(
    test: &LitmusTest,
    cfg: &EnumConfig,
) -> Result<
    (
        std::rc::Rc<BTreeMap<Loc, BTreeSet<i64>>>,
        std::rc::Rc<Vec<Vec<ThreadTrace>>>,
    ),
    EnumError,
> {
    TRACE_CACHE.with(|cell| {
        let mut cached = cell.borrow_mut();
        if let Some(e) = cached.as_ref() {
            if e.max_steps == cfg.max_steps_per_thread
                && e.max_traces == cfg.max_traces_per_thread
                && e.domain_iters == cfg.domain_iters
                && e.test == *test
            {
                return Ok((e.domains.clone(), e.per_thread.clone()));
            }
        }
        let (domains, per_thread) = fixed_point_traces(test, cfg)?;
        let domains = std::rc::Rc::new(domains);
        let per_thread = std::rc::Rc::new(per_thread);
        *cached = Some(TraceCache {
            test: test.clone(),
            max_steps: cfg.max_steps_per_thread,
            max_traces: cfg.max_traces_per_thread,
            domain_iters: cfg.domain_iters,
            domains: domains.clone(),
            per_thread: per_thread.clone(),
        });
        Ok((domains, per_thread))
    })
}

/// Drives `visit` over every realisable trace combination of `test`,
/// with the combination's skeleton and working set prepared in
/// `scratch` (see [`prepare_combination`]). `visit` also gets the
/// running visit count that [`EnumConfig::max_executions`] bounds.
fn for_each_combination<B>(
    test: &LitmusTest,
    cfg: &EnumConfig,
    scratch: &mut EnumScratch,
    mut visit: impl FnMut(&mut EnumScratch, &mut usize) -> Result<ControlFlow<B>, EnumError>,
) -> Result<Option<B>, EnumError> {
    let (_domains, per_thread) = fixed_point_traces_cached(test, cfg)?;

    let thread_cta: Vec<usize> = (0..test.num_threads())
        .map(|t| test.scope_tree().placement(t).cta)
        .collect();
    let init_mem: BTreeMap<Loc, i64> = test
        .memory()
        .iter()
        .map(|(l, mi)| (l.clone(), mi.init))
        .collect();
    let observed = test.observed();

    let mut visited = 0usize;
    let mut traces: Vec<&ThreadTrace> = Vec::with_capacity(per_thread.len());
    let mut combo = vec![0usize; per_thread.len()];
    'combos: loop {
        traces.clear();
        traces.extend(combo.iter().zip(&*per_thread).map(|(&i, ts)| &ts[i]));
        if prepare_combination(&traces, &thread_cta, &init_mem, &observed, scratch) {
            if let ControlFlow::Break(b) = visit(scratch, &mut visited)? {
                return Ok(Some(b));
            }
        }

        // Advance the mixed-radix counter over thread traces.
        for t in (0..combo.len()).rev() {
            combo[t] += 1;
            if combo[t] < per_thread[t].len() {
                continue 'combos;
            }
            combo[t] = 0;
        }
        break;
    }
    Ok(None)
}

/// Buffers reused across a [`for_each_execution`] call's trace
/// combinations: the skeleton, the overlay, and the rf-choice /
/// coherence-permutation working set. After the first combination has
/// sized them, later combinations (and every candidate) allocate
/// nothing beyond growth to a new high-water mark.
struct EnumScratch {
    skel: ExecutionSkeleton,
    overlay: Overlay,
    /// Read event ids of the current skeleton.
    reads: Vec<usize>,
    /// Per read: its candidate rf sources. Grow-only; entries past the
    /// current read count are stale spares.
    rf_choices: Vec<Vec<Option<usize>>>,
    /// Per written location: every permutation of its writes. Grow-only
    /// nested buffers; `co_perm_counts` holds the live permutation
    /// count per location.
    co_perms: Vec<Vec<Vec<usize>>>,
    co_perm_counts: Vec<usize>,
    perm_scratch: Vec<usize>,
    perm_used: Vec<bool>,
    rf_idx: Vec<usize>,
    co_idx: Vec<usize>,
    /// Pruned-walk scratch: `suffix[d]` = candidates spanned by the
    /// subtree below tree level `d` (product of the branch factors at
    /// levels `>= d`).
    suffix: Vec<usize>,
    /// Bit-plane batch buffer of the verdict walk; grow-only lane
    /// planes reused across batches and combinations.
    batch: OverlayBatch,
    /// Skeleton stamp for which `co_perms` and the overlay sizing were
    /// last built (0 = never).
    working_set_skel: u64,
}

impl EnumScratch {
    fn new() -> Self {
        EnumScratch {
            skel: ExecutionSkeleton::empty(),
            overlay: Overlay::new(),
            reads: Vec::new(),
            rf_choices: Vec::new(),
            co_perms: Vec::new(),
            co_perm_counts: Vec::new(),
            perm_scratch: Vec::new(),
            perm_used: Vec::new(),
            rf_idx: Vec::new(),
            co_idx: Vec::new(),
            suffix: Vec::new(),
            batch: OverlayBatch::new(),
            working_set_skel: 0,
        }
    }
}

/// Writes every permutation of `items` into `out`, reusing `out`'s
/// buffers (`out` is truncated to the permutation count). Emission
/// order matches the classical recursive formulation: permutations
/// starting with `items[0]` first, then `items[1]`, and so on.
/// Returns the permutation count; `out` is grow-only (entries past the
/// count are stale spares kept for their allocations).
fn fill_permutations(
    items: &[usize],
    out: &mut Vec<Vec<usize>>,
    scratch: &mut Vec<usize>,
    used: &mut Vec<bool>,
) -> usize {
    scratch.clear();
    used.clear();
    used.resize(items.len(), false);
    let mut count = 0usize;
    emit_permutations(items, scratch, used, out, &mut count);
    count
}

fn emit_permutations(
    items: &[usize],
    scratch: &mut Vec<usize>,
    used: &mut [bool],
    out: &mut Vec<Vec<usize>>,
    count: &mut usize,
) {
    if scratch.len() == items.len() {
        if *count < out.len() {
            out[*count].clear();
            out[*count].extend_from_slice(scratch);
        } else {
            out.push(scratch.clone());
        }
        *count += 1;
        return;
    }
    for i in 0..items.len() {
        if used[i] {
            continue;
        }
        used[i] = true;
        scratch.push(items[i]);
        emit_permutations(items, scratch, used, out, count);
        scratch.pop();
        used[i] = false;
    }
}

/// Fills one trace combination's skeleton and working set (rf-candidate
/// lists, coherence permutations, overlay sizing) into `scratch`.
/// Returns `false` when the combination is unrealisable — some read's
/// value matches neither the initial state nor any same-location write —
/// in which case the working set is left untouched and the combination
/// contributes no candidates. Shared prologue of the scalar stream and
/// the verdict walk.
fn prepare_combination(
    traces: &[&ThreadTrace],
    thread_cta: &[usize],
    init_mem: &BTreeMap<Loc, i64>,
    observed: &[FinalExpr],
    scratch: &mut EnumScratch,
) -> bool {
    scratch.skel.fill(traces, thread_cta, init_mem, observed);
    let skel = &scratch.skel;
    let events = skel.events();

    // Read-from candidates per read.
    scratch.reads.clear();
    scratch
        .reads
        .extend(events.iter().filter(|e| e.is_read()).map(|e| e.id));
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
            let loc = events[r].loc.as_ref().expect("reads have locations");
            if init_mem.get(loc).copied().unwrap_or(0) == v {
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

    // Coherence: permutations of writes per location, aligned with the
    // skeleton's written-location axes. Both the permutations and the
    // overlay sizing depend only on the skeleton's structure, so they
    // are rebuilt only when the skeleton identity changed since they
    // were last built (value-only combination changes reuse them).
    let num_locs = skel.writes_per_loc().len();
    if scratch.working_set_skel != skel.id() {
        if scratch.co_perms.len() < num_locs {
            scratch.co_perms.resize_with(num_locs, Vec::new);
        }
        scratch.co_perm_counts.clear();
        scratch.co_perm_counts.resize(num_locs, 0);
        for (li, ws) in skel.writes_per_loc().iter().enumerate() {
            scratch.co_perm_counts[li] = fill_permutations(
                ws,
                &mut scratch.co_perms[li],
                &mut scratch.perm_scratch,
                &mut scratch.perm_used,
            );
        }
        scratch.overlay.reset(skel);
        scratch.working_set_skel = skel.id();
    }
    true
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
    let num_locs = skel.writes_per_loc().len();

    // Product: rf assignment × co choice, rewriting the overlay in place.
    scratch.rf_idx.clear();
    scratch.rf_idx.resize(reads.len(), 0);
    'rf: loop {
        for (k, &r) in reads.iter().enumerate() {
            scratch
                .overlay
                .set_rf(r, scratch.rf_choices[k][scratch.rf_idx[k]]);
        }

        scratch.co_idx.clear();
        scratch.co_idx.resize(num_locs, 0);
        for (li, perms) in scratch.co_perms[..num_locs].iter().enumerate() {
            scratch.overlay.set_co(li, &perms[0]);
        }
        'co: loop {
            scratch.overlay.stamp();
            charge(visited, cfg)?;
            let view = ExecutionView::new(skel, &scratch.overlay);
            if let ControlFlow::Break(b) = f(&view) {
                return Ok(ControlFlow::Break(b));
            }

            // Advance, rewriting only the coherence axes that moved.
            for i in (0..scratch.co_idx.len()).rev() {
                scratch.co_idx[i] += 1;
                if scratch.co_idx[i] < scratch.co_perm_counts[i] {
                    scratch
                        .overlay
                        .set_co(i, &scratch.co_perms[i][scratch.co_idx[i]]);
                    continue 'co;
                }
                scratch.co_idx[i] = 0;
                scratch.overlay.set_co(i, &scratch.co_perms[i][0]);
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

/// Minimum subtree size (in candidates spanned) for which a tree node
/// attempts the three-valued partial check. Below this the check costs
/// more than the candidates it could skip: a partial evaluation is
/// roughly as expensive as one concrete evaluation, so cutting must
/// save at least a few leaves to pay for itself (and for the wasted
/// checks at nodes whose verdict is not yet forced).
const CUT_MIN: usize = 4;

/// Counters reported by the verdict walk: how many candidates it
/// judged and how many forced-verdict cuts skipped.
/// `classes_visited + candidates_pruned` equals the exhaustive candidate
/// count — cut classes and judged leaves partition the candidate space
/// exactly.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct PruneStats {
    /// Forced-cut classes plus judged leaves; a leaf counts once whether
    /// it was judged alone or as a lane of a batch. (The walk's budget,
    /// [`EnumConfig::max_executions`], counts a uniform batch once.)
    pub classes_visited: u64,
    /// Candidates subsumed by forced-cut classes beyond the one
    /// evaluation each cut performed.
    pub candidates_pruned: u64,
}

/// One class of the verdict walk handed to the visitor: a **leaf** (a
/// single fully-assigned candidate), a **uniform batch** (a trailing
/// subtree of 2–64 leaves judged in one bit-plane pass, every lane with
/// the same verdict) or a **forced class** (a subtree whose verdict the
/// three-valued partial check already decided for *every* extension).
/// Either way the class spans [`PrunedClass::size`] candidates, all
/// sharing the verdict [`PrunedClass::allowed`], and its observable
/// outcomes are spanned exactly by [`PrunedClass::observed_combos`] /
/// [`PrunedClass::fill_observed`] — which is why folding classes
/// reproduces the exhaustive [`ModelOutcomes`] bit for bit.
pub struct PrunedClass<'a> {
    partial: PartialView<'a>,
    size: usize,
    allowed: bool,
    forced: bool,
}

impl<'a> PrunedClass<'a> {
    /// Number of candidate executions this class spans (1 for a leaf).
    pub fn size(&self) -> usize {
        self.size
    }

    /// The model's verdict, shared by every candidate in the class.
    pub fn allowed(&self) -> bool {
        self.allowed
    }

    /// `true` when the verdict was forced by the partial check (the
    /// subtree was cut); `false` for judged leaves and uniform batches.
    pub fn is_forced(&self) -> bool {
        self.forced
    }

    /// The underlying partially-assigned view.
    pub fn partial(&self) -> &PartialView<'a> {
        &self.partial
    }

    /// The trace combination's stamp (see
    /// [`ExecutionView::combination_id`]).
    pub fn combination_id(&self) -> u64 {
        self.partial.combination_id()
    }

    /// How many distinct observed-value vectors the class spans.
    pub fn observed_combos(&self) -> usize {
        self.partial.observed_combos()
    }

    /// Fills `out` with observed combination `combo`
    /// (`0..observed_combos()`), in `LitmusTest::observed` order.
    pub fn fill_observed(&self, combo: usize, out: &mut Vec<i64>) {
        self.partial.fill_observed_combo(combo, out);
    }

    /// Zips a value vector from [`PrunedClass::fill_observed`] with the
    /// observed expressions into an [`Outcome`].
    pub fn outcome_from_vals(&self, vals: &[i64]) -> Outcome {
        self.partial.outcome_from_vals(vals)
    }
}

/// Streams `test`'s candidate space through `f` as a sequence of
/// [`PrunedClass`]es — the verdict walk behind every production verdict.
///
/// The rf slots and coherence axes of each skeleton become the levels
/// of a decision tree (rf outer, co inner, matching the exhaustive
/// stream's lexicographic order). At each node spanning at least a few
/// candidates the model's three-valued partial verdict
/// ([`crate::model::Model::partial_verdict`]) is consulted: `Some(v)`
/// means *every* extension of the node's partially-filled overlay gets
/// verdict `v`, so the subtree is emitted as one forced class and never
/// descended. A trailing subtree of 2–64 leaves is judged in one
/// bit-plane pass ([`crate::model::Model::allows_batch`]) and emitted
/// as one class when every lane agrees, leaf by leaf otherwise; the
/// remaining leaves are judged one at a time. Models without a partial
/// check or a batched evaluator (the trait defaults return `None`)
/// degrade to per-leaf evaluation with identical results.
///
/// Classes partition the candidate space: summing [`PrunedClass::size`]
/// over all visited classes reproduces the exhaustive candidate count,
/// and folding each class's spanned outcomes reproduces the exhaustive
/// outcome sets — [`model_outcomes_counted`] relies on exactly this.
///
/// `stats` accumulates the visited-class / pruned-candidate counters.
/// Returning [`ControlFlow::Break`] from `f` stops the walk; the break
/// value comes back as `Ok(Some(value))`.
///
/// # Errors
///
/// Fails if symbolic execution fails or the walk hands more than
/// [`EnumConfig::max_executions`] classes to the visitor.
pub fn for_each_execution_pruned<B, F>(
    test: &LitmusTest,
    model: &dyn Model,
    cfg: &EnumConfig,
    ctx: &mut EvalContext,
    stats: &mut PruneStats,
    mut f: F,
) -> Result<Option<B>, EnumError>
where
    F: FnMut(&PrunedClass<'_>) -> ControlFlow<B>,
{
    with_scratch(|scratch| {
        for_each_combination(test, cfg, scratch, |scratch, visited| {
            visit_combination_pruned(model, ctx, cfg, scratch, visited, stats, &mut f)
        })
    })
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

/// Adds read `r`'s fr edges for one (rf source, coherence order)
/// combination to `batch` under `mask`: with no source (reading the
/// initial state) the read precedes every write of the order; with a
/// source it precedes exactly the writes after it.
fn add_fr_axis(batch: &mut OverlayBatch, src: Option<usize>, order: &[usize], r: usize, mask: u64) {
    if mask == 0 {
        return;
    }
    match src {
        None => {
            for &w in order {
                batch.add_fr_masked(r, w, mask);
            }
        }
        Some(s) => {
            let pos = order
                .iter()
                .position(|&w| w == s)
                .expect("rf source is in co");
            for &w in &order[pos + 1..] {
                batch.add_fr_masked(r, w, mask);
            }
        }
    }
}

/// Borrowed working set of one combination's walk — the immutable
/// slices [`PruneWalk::descend`] threads through the recursion, leaving
/// only the overlay and contexts mutable.
struct PruneWalk<'a, 'm> {
    skel: &'a ExecutionSkeleton,
    reads: &'a [usize],
    rf_choices: &'a [Vec<Option<usize>>],
    co_perms: &'a [Vec<Vec<usize>>],
    co_perm_counts: &'a [usize],
    /// `suffix[d]` = candidates spanned below tree level `d`.
    suffix: &'a [usize],
    model: &'m dyn Model,
    cfg: &'m EnumConfig,
}

impl PruneWalk<'_, '_> {
    /// Number of tree levels: one per rf slot, then one per coherence
    /// axis.
    fn levels(&self) -> usize {
        self.reads.len() + self.co_perms.len()
    }

    /// The partial view of the node at tree level `depth` (all slots
    /// above it committed).
    fn partial_at<'v>(&'v self, overlay: &'v Overlay, depth: usize) -> PartialView<'v> {
        let num_reads = self.reads.len();
        PartialView::new(
            self.skel,
            overlay,
            self.reads,
            self.rf_choices,
            depth.min(num_reads),
            depth.saturating_sub(num_reads),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn descend<B, F>(
        &self,
        overlay: &mut Overlay,
        batch: &mut OverlayBatch,
        ctx: &mut EvalContext,
        depth: usize,
        visited: &mut usize,
        stats: &mut PruneStats,
        f: &mut F,
    ) -> Result<ControlFlow<B>, EnumError>
    where
        F: FnMut(&PrunedClass<'_>) -> ControlFlow<B>,
    {
        let num_reads = self.reads.len();
        if depth == self.levels() {
            // Leaf: every slot committed. Once the combination has
            // attempted a cut (its root spans at least CUT_MIN
            // candidates), the maintained path state already holds the
            // leaf, so a plan-backed model's partial verdict is definite
            // and costs one level delta. A smaller combination has no
            // path state, and building it would cost more than judging
            // the view concretely, as models without a partial path do.
            overlay.stamp();
            charge(visited, self.cfg)?;
            stats.classes_visited += 1;
            let partial = self.partial_at(overlay, depth);
            let allowed = (self.suffix[0] >= CUT_MIN)
                .then(|| self.model.partial_verdict(ctx, &partial))
                .flatten()
                .unwrap_or_else(|| {
                    let view = ExecutionView::new(self.skel, overlay);
                    self.model.allows_view(ctx, &view)
                });
            let class = PrunedClass {
                partial,
                size: 1,
                allowed,
                forced: false,
            };
            return Ok(f(&class));
        }

        if (2..=64).contains(&self.suffix[depth]) {
            // The trailing subtree fits the lane budget: judge all of
            // its leaves in one bit-plane pass. The parent's cut already
            // had its chance (cuts fire before descending), so batches
            // only see subtrees the cuts kept.
            return self.batch_subtree(overlay, batch, ctx, depth, visited, stats, f);
        }

        for choice in 0..self.branch_count(depth) {
            if depth < num_reads {
                overlay.set_rf(self.reads[depth], self.rf_choices[depth][choice]);
            } else {
                let li = depth - num_reads;
                overlay.set_co(li, &self.co_perms[li][choice]);
            }
            let remaining = self.suffix[depth + 1];
            if remaining >= CUT_MIN {
                overlay.stamp();
                let partial = self.partial_at(overlay, depth + 1);
                if let Some(allowed) = self.model.partial_verdict(ctx, &partial) {
                    // Forced: no extension can change the verdict — cut
                    // the subtree and report it as one class.
                    charge(visited, self.cfg)?;
                    stats.classes_visited += 1;
                    stats.candidates_pruned += (remaining - 1) as u64;
                    let class = PrunedClass {
                        partial,
                        size: remaining,
                        allowed,
                        forced: true,
                    };
                    if let ControlFlow::Break(b) = f(&class) {
                        return Ok(ControlFlow::Break(b));
                    }
                    continue;
                }
            }
            if let ControlFlow::Break(b) =
                self.descend(overlay, batch, ctx, depth + 1, visited, stats, f)?
            {
                return Ok(ControlFlow::Break(b));
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// Walks every leaf of the subtree rooted at tree level `depth` in
    /// lexicographic order — the exhaustive stream's order — rewriting
    /// `overlay`'s trailing slots in place and calling `g` at each
    /// leaf. Both passes of the batch protocol use this walker, so the
    /// lane order of pass 1 provably matches the report order of
    /// pass 2.
    fn for_each_leaf<T>(
        &self,
        overlay: &mut Overlay,
        depth: usize,
        g: &mut impl FnMut(&mut Overlay) -> ControlFlow<T>,
    ) -> ControlFlow<T> {
        let num_reads = self.reads.len();
        if depth == self.levels() {
            return g(overlay);
        }
        for choice in 0..self.branch_count(depth) {
            if depth < num_reads {
                overlay.set_rf(self.reads[depth], self.rf_choices[depth][choice]);
            } else {
                let li = depth - num_reads;
                overlay.set_co(li, &self.co_perms[li][choice]);
            }
            if let ControlFlow::Break(b) = self.for_each_leaf(overlay, depth + 1, g) {
                return ControlFlow::Break(b);
            }
        }
        ControlFlow::Continue(())
    }

    /// Branching factor of tree level `level` (rf choices for read
    /// axes, permutation count for coherence axes).
    fn branch_count(&self, level: usize) -> usize {
        if level < self.reads.len() {
            self.rf_choices[level].len()
        } else {
            self.co_perm_counts[level - self.reads.len()]
        }
    }

    /// Axis-masked packing: fills `batch` with every leaf of the
    /// subtree rooted at tree level `depth` without walking the leaves.
    ///
    /// Lane `j` is the subtree's `j`-th leaf in lexicographic order —
    /// exactly [`PruneWalk::for_each_leaf`]'s order, so pass 2's lane
    /// counter still lines up. Because that order is a mixed-radix
    /// count over the trailing axes, the leaves sharing choice `c` of
    /// an axis form a periodic lane mask (`stride` = product of the
    /// later axes' spans): each trailing edge is added **once per
    /// (axis, choice)** under that mask, and each committed prefix edge
    /// once under the all-lanes mask, instead of once per lane. Packing
    /// cost drops from O(lanes × edges) scalar adds to O(choices ×
    /// edges) word ORs — on read-fan shapes this is the difference
    /// between packing dominating the batch pass and packing being
    /// noise.
    fn pack_axes(&self, overlay: &Overlay, batch: &mut OverlayBatch, depth: usize) {
        let span = self.suffix[depth];
        let num_reads = self.reads.len();
        debug_assert!((2..=64).contains(&span));
        debug_assert_eq!(self.suffix.len(), num_reads + self.co_perms.len() + 1);
        batch.set_lane_count(span);
        let live = LaneMask::all(span).bits();
        // The lanes taking choice `choice` at `level`: a `stride`-wide
        // block repeating with the axis's period. Both divide `span`,
        // so the blocks tile the live lanes exactly.
        let axis_mask = |level: usize, choice: usize| -> u64 {
            let stride = self.suffix[level + 1];
            let period = stride * self.branch_count(level);
            let block = if stride >= 64 {
                !0u64
            } else {
                (1u64 << stride) - 1
            };
            let mut mask = 0u64;
            let mut start = choice * stride;
            while start < span {
                mask |= block << start;
                start += period;
            }
            mask
        };
        // rf planes: prefix reads carry the overlay's committed source
        // in every lane; trailing reads one masked edge per choice.
        for (k, &r) in self.reads.iter().enumerate() {
            if k < depth {
                if let Some(w) = overlay.rf_of(r) {
                    batch.add_rf_masked(w, r, live);
                }
            } else {
                for (c, &src) in self.rf_choices[k].iter().enumerate() {
                    if let Some(w) = src {
                        batch.add_rf_masked(w, r, axis_mask(k, c));
                    }
                }
            }
        }
        // co planes: transitive pairs of the committed order (prefix
        // axes) or of each permutation (trailing axes).
        for li in 0..self.co_perms.len() {
            let level = num_reads + li;
            if level < depth {
                let order = overlay.co_order(li);
                for i in 0..order.len() {
                    for j in (i + 1)..order.len() {
                        batch.add_co_pair_masked(order[i], order[j], live);
                    }
                }
            } else {
                for p in 0..self.co_perm_counts[li] {
                    let order: &[usize] = &self.co_perms[li][p];
                    let mask = axis_mask(level, p);
                    for i in 0..order.len() {
                        for j in (i + 1)..order.len() {
                            batch.add_co_pair_masked(order[i], order[j], mask);
                        }
                    }
                }
            }
        }
        // fr planes: a read's fr edges depend on its rf choice and its
        // location's coherence order — each may be committed (prefix)
        // or a trailing axis, giving four mask combinations.
        for (k, &r) in self.reads.iter().enumerate() {
            let li = self.skel.loc_index(r);
            if li == usize::MAX {
                continue; // the location is never written: no fr edges
            }
            let lc = num_reads + li;
            match (k < depth, lc < depth) {
                (true, true) => {
                    add_fr_axis(batch, overlay.rf_of(r), overlay.co_order(li), r, live);
                }
                (true, false) => {
                    let src = overlay.rf_of(r);
                    for p in 0..self.co_perm_counts[li] {
                        add_fr_axis(batch, src, &self.co_perms[li][p], r, axis_mask(lc, p));
                    }
                }
                (false, true) => {
                    let order = overlay.co_order(li);
                    for (c, &src) in self.rf_choices[k].iter().enumerate() {
                        add_fr_axis(batch, src, order, r, axis_mask(k, c));
                    }
                }
                (false, false) => {
                    for (c, &src) in self.rf_choices[k].iter().enumerate() {
                        let rf_mask = axis_mask(k, c);
                        for p in 0..self.co_perm_counts[li] {
                            add_fr_axis(
                                batch,
                                src,
                                &self.co_perms[li][p],
                                r,
                                rf_mask & axis_mask(lc, p),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Pass 1 of the two-pass batch protocol: packs every leaf of the
    /// subtree rooted at `depth` into `batch` (lexicographic order, one
    /// lane per leaf) and evaluates the model once over all lanes.
    /// Returns the per-lane verdict mask, or `None` when the model has
    /// no batched evaluator — pass 2 then judges each leaf scalar.
    fn batch_verdicts(
        &self,
        overlay: &mut Overlay,
        batch: &mut OverlayBatch,
        ctx: &mut EvalContext,
        depth: usize,
    ) -> Option<LaneMask> {
        batch.begin(self.skel);
        if batch.needs_lane_walk() {
            // RMW exclusivity is a per-lane verdict: pack by walking
            // the leaves (the closure always continues, so the walk
            // never breaks).
            let _ = self.for_each_leaf(overlay, depth, &mut |ov: &mut Overlay| {
                let view = ExecutionView::new(self.skel, ov);
                batch.push_lane(&view);
                ControlFlow::<()>::Continue(())
            });
        } else {
            self.pack_axes(overlay, batch, depth);
        }
        // The view only feeds skeleton-derived queries in the batched
        // evaluator; its overlay (left at the last leaf's state) is
        // never read — lanes carry the per-leaf rf/co planes.
        let view = ExecutionView::new(self.skel, overlay);
        self.model.allows_batch(ctx, &view, batch)
    }

    /// Judges the whole subtree rooted at `depth` as one bit-plane
    /// batch. When every lane agrees the subtree is reported as a
    /// single multi-candidate [`PrunedClass`]; a mixed batch reports
    /// each leaf as a size-1 class in the exact order the scalar walk
    /// would have produced, with per-leaf budget accounting.
    #[allow(clippy::too_many_arguments)]
    fn batch_subtree<B, F>(
        &self,
        overlay: &mut Overlay,
        batch: &mut OverlayBatch,
        ctx: &mut EvalContext,
        depth: usize,
        visited: &mut usize,
        stats: &mut PruneStats,
        f: &mut F,
    ) -> Result<ControlFlow<B>, EnumError>
    where
        F: FnMut(&PrunedClass<'_>) -> ControlFlow<B>,
    {
        let mask = self.batch_verdicts(overlay, batch, ctx, depth);
        let span = self.suffix[depth];
        if let Some(m) = mask {
            let live = LaneMask::all(span).bits();
            let bits = m.bits() & live;
            if bits == live || bits == 0 {
                // Every lane agrees: report the subtree as one class —
                // the fold expands a class's observed combinations
                // without per-candidate views, so a uniform batch skips
                // the whole per-leaf report walk.
                overlay.stamp();
                charge(visited, self.cfg)?;
                stats.classes_visited += span as u64;
                let class = PrunedClass {
                    partial: self.partial_at(overlay, depth),
                    size: span,
                    allowed: bits == live,
                    forced: false,
                };
                return Ok(f(&class));
            }
        }
        let mut lane = 0usize;
        let mut err = None;
        let flow = self.for_each_leaf(overlay, depth, &mut |ov: &mut Overlay| {
            ov.stamp();
            if let Err(e) = charge(visited, self.cfg) {
                err = Some(e);
                return ControlFlow::Break(None);
            }
            stats.classes_visited += 1;
            let allowed = match mask {
                Some(m) => m.contains(lane),
                None => {
                    let view = ExecutionView::new(self.skel, ov);
                    self.model.allows_view(ctx, &view)
                }
            };
            lane += 1;
            let class = PrunedClass {
                partial: self.partial_at(ov, self.levels()),
                size: 1,
                allowed,
                forced: false,
            };
            match f(&class) {
                ControlFlow::Break(b) => ControlFlow::Break(Some(b)),
                ControlFlow::Continue(()) => ControlFlow::Continue(()),
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        Ok(match flow {
            ControlFlow::Break(Some(b)) => ControlFlow::Break(b),
            _ => ControlFlow::Continue(()),
        })
    }
}

/// Runs the verdict walk over one prepared combination (see
/// [`prepare_combination`]).
#[allow(clippy::too_many_arguments)]
fn visit_combination_pruned<B, F>(
    model: &dyn Model,
    ctx: &mut EvalContext,
    cfg: &EnumConfig,
    scratch: &mut EnumScratch,
    visited: &mut usize,
    stats: &mut PruneStats,
    f: &mut F,
) -> Result<ControlFlow<B>, EnumError>
where
    F: FnMut(&PrunedClass<'_>) -> ControlFlow<B>,
{
    let (num_reads, num_locs) = fill_suffix(scratch);

    let EnumScratch {
        skel,
        overlay,
        reads,
        rf_choices,
        co_perms,
        co_perm_counts,
        suffix,
        batch,
        ..
    } = scratch;
    let walk = PruneWalk {
        skel,
        reads,
        rf_choices: &rf_choices[..num_reads],
        co_perms: &co_perms[..num_locs],
        co_perm_counts: &co_perm_counts[..num_locs],
        suffix,
        model,
        cfg,
    };

    // Root check: the combination may be forced before anything is
    // committed (e.g. single-candidate rf slots inducing a definite
    // conflict) — then the whole combination is one class.
    if walk.suffix[0] >= CUT_MIN {
        overlay.stamp();
        let partial = walk.partial_at(overlay, 0);
        if let Some(allowed) = model.partial_verdict(ctx, &partial) {
            charge(visited, cfg)?;
            stats.classes_visited += 1;
            stats.candidates_pruned += (walk.suffix[0] - 1) as u64;
            let class = PrunedClass {
                partial,
                size: walk.suffix[0],
                allowed,
                forced: true,
            };
            return Ok(f(&class));
        }
    }
    walk.descend(overlay, batch, ctx, 0, visited, stats, f)
}

/// Computes `scratch.suffix` — subtree sizes per tree level, saturating
/// (only compared against thresholds and added into u64 counters after
/// subtraction of the one candidate actually evaluated) — for the
/// prepared combination. Returns `(num_reads, num_locs)`.
fn fill_suffix(scratch: &mut EnumScratch) -> (usize, usize) {
    let num_reads = scratch.reads.len();
    let num_locs = scratch.skel.writes_per_loc().len();
    let num_levels = num_reads + num_locs;
    scratch.suffix.clear();
    scratch.suffix.resize(num_levels + 1, 1);
    for d in (0..num_levels).rev() {
        let branch = if d < num_reads {
            scratch.rf_choices[d].len()
        } else {
            scratch.co_perm_counts[d - num_reads]
        };
        scratch.suffix[d] = scratch.suffix[d + 1].saturating_mul(branch);
    }
    (num_reads, num_locs)
}

/// Materialises all candidate executions of `test` — a thin wrapper over
/// [`for_each_execution`] kept for rendering, diagnostics and as the
/// differential oracle of the streaming path. Verdict code should use
/// [`model_outcomes`] (or the visitor directly) instead: this clones the
/// shared skeleton into an owned [`Execution`] per candidate.
///
/// # Errors
///
/// Fails if symbolic execution fails (bad addresses, unbounded loops) or
/// the candidate count exceeds [`EnumConfig::max_executions`].
pub fn enumerate_executions(
    test: &LitmusTest,
    cfg: &EnumConfig,
) -> Result<Vec<Candidate>, EnumError> {
    let mut out = Vec::new();
    for_each_execution(test, cfg, |view| {
        out.push(Candidate {
            execution: view.to_execution(),
            outcome: view.outcome(),
        });
        ControlFlow::<()>::Continue(())
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

impl ModelOutcomes {
    /// `true` if `outcome` is allowed by the model.
    pub fn allows(&self, outcome: &Outcome) -> bool {
        self.allowed_outcomes.contains(outcome)
    }
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

/// [`model_outcomes`] with a caller-owned [`EvalContext`], judged by the
/// verdict walk ([`for_each_execution_pruned`]): forced subtrees and
/// uniform batches fold in as classes, and for plan-backed models the
/// judgement loop performs no heap allocation per candidate. Sweep
/// workers hold one context each and pass it here on verdict-cache
/// misses. Callers that want the walk counters use
/// [`model_outcomes_counted`].
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

/// [`model_outcomes_with`] plus the [`PruneStats`] of the walk.
///
/// # Errors
///
/// Propagates [`EnumError`]s from the enumeration.
pub fn model_outcomes_counted(
    test: &LitmusTest,
    model: &dyn Model,
    cfg: &EnumConfig,
    ctx: &mut EvalContext,
) -> Result<(ModelOutcomes, PruneStats), EnumError> {
    let cond = test.cond();
    let mut all = BTreeSet::new();
    let mut allowed: BTreeSet<Outcome> = BTreeSet::new();
    let mut num_candidates = 0usize;
    let mut num_allowed = 0usize;
    let mut witnessed = false;
    let mut vals: Vec<i64> = Vec::new();
    let mut seen = SeenOutcomes::new();
    let mut allowed_seen: Vec<bool> = Vec::new();
    let mut stats = PruneStats::default();
    for_each_execution_pruned(test, model, cfg, ctx, &mut stats, |class| {
        num_candidates += class.size();
        if class.allowed() {
            num_allowed += class.size();
        }
        // Fold the class's spanned outcomes: each observed combination
        // occurs in at least one candidate of the class, and candidates
        // outside the class contribute their outcomes via their own
        // classes — the union over classes is exactly the exhaustive
        // outcome set.
        for combo in 0..class.observed_combos() {
            class.fill_observed(combo, &mut vals);
            let idx = match seen.find(&vals) {
                Some(i) => i,
                None => {
                    let outcome = class.outcome_from_vals(&vals);
                    let witnesses = cond.witnessed_by(&outcome);
                    all.insert(outcome.clone());
                    allowed_seen.push(false);
                    seen.insert(&vals, outcome, witnesses)
                }
            };
            if class.allowed() {
                if seen.witnesses(idx) {
                    witnessed = true;
                }
                if !allowed_seen[idx] {
                    allowed_seen[idx] = true;
                    allowed.insert(seen.get(idx).0.clone());
                }
            }
        }
        ControlFlow::<()>::Continue(())
    })?;
    Ok((
        ModelOutcomes {
            all_outcomes: all,
            allowed_outcomes: allowed,
            num_candidates,
            num_allowed,
            condition_witnessed: witnessed,
        },
        stats,
    ))
}

/// The test oracle for the verdict walk: streams every candidate of
/// `test` through [`for_each_execution`] and judges each one alone with
/// [`crate::model::Model::allows_view`] — no cuts, no batches, no delta
/// state. Production code uses [`model_outcomes_with`]; the
/// differential suites assert that both return the same
/// [`ModelOutcomes`], bit for bit (its
/// [`ModelOutcomes::condition_witnessed`] is also the oracle for
/// [`condition_witnessed_with`]).
///
/// # Errors
///
/// Propagates [`EnumError`]s from the enumeration; here
/// [`EnumConfig::max_executions`] bounds the candidate count.
pub fn model_outcomes_exhaustive(
    test: &LitmusTest,
    model: &dyn Model,
    cfg: &EnumConfig,
    ctx: &mut EvalContext,
) -> Result<ModelOutcomes, EnumError> {
    let mut fold = OutcomeFold::new(test.cond());
    for_each_execution(test, cfg, |view| {
        let allowed = model.allows_view(ctx, view);
        fold.candidate(view, allowed);
        ControlFlow::<()>::Continue(())
    })?;
    Ok(fold.finish())
}

/// The fold of [`model_outcomes_exhaustive`]: accumulates a
/// [`ModelOutcomes`] one `(candidate, verdict)` pair at a time.
///
/// Dedup is by observed-value vector: `vals` is refilled per candidate
/// and matched against the distinct vectors seen so far (a handful per
/// test, so a sorted probe beats hashing). Two memos keep the
/// steady-state loop allocation-free: when a test observes only
/// registers the outcome is fixed per trace combination (`fixed`
/// answers with one stamp comparison), and for memory-observing tests a
/// single-entry memo (`last`) still answers most probes — consecutive
/// candidates usually share their outcome.
struct OutcomeFold<'t> {
    cond: &'t weakgpu_litmus::FinalCond,
    all: BTreeSet<Outcome>,
    allowed: BTreeSet<Outcome>,
    num_candidates: usize,
    num_allowed: usize,
    witnessed: bool,
    vals: Vec<i64>,
    seen: SeenOutcomes,
    allowed_seen: Vec<bool>,
    fixed: Option<(u64, usize)>,
    last: Option<(Vec<i64>, usize)>,
}

impl<'t> OutcomeFold<'t> {
    fn new(cond: &'t weakgpu_litmus::FinalCond) -> Self {
        OutcomeFold {
            cond,
            all: BTreeSet::new(),
            allowed: BTreeSet::new(),
            num_candidates: 0,
            num_allowed: 0,
            witnessed: false,
            vals: Vec::new(),
            seen: SeenOutcomes::new(),
            allowed_seen: Vec::new(),
            fixed: None,
            last: None,
        }
    }

    /// Folds one candidate with its verdict into the running totals.
    fn candidate(&mut self, view: &ExecutionView<'_>, is_allowed: bool) {
        self.num_candidates += 1;
        let idx = match self.fixed {
            Some((combo, i)) if combo == view.combination_id() => i,
            _ => {
                view.fill_observed(&mut self.vals);
                let i = match &self.last {
                    Some((lv, li)) if *lv == self.vals => *li,
                    _ => {
                        let i = match self.seen.find(&self.vals) {
                            Some(i) => i,
                            None => {
                                let outcome = view.outcome();
                                let witnesses = self.cond.witnessed_by(&outcome);
                                self.all.insert(outcome.clone());
                                self.allowed_seen.push(false);
                                self.seen.insert(&self.vals, outcome, witnesses)
                            }
                        };
                        match &mut self.last {
                            Some((lv, li)) => {
                                lv.clear();
                                lv.extend_from_slice(&self.vals);
                                *li = i;
                            }
                            None => self.last = Some((self.vals.clone(), i)),
                        }
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
            let (outcome, witnesses) = self.seen.get(idx);
            if witnesses {
                self.witnessed = true;
            }
            if !self.allowed_seen[idx] {
                self.allowed_seen[idx] = true;
                let outcome = outcome.clone();
                self.allowed.insert(outcome);
            }
        }
    }

    fn finish(self) -> ModelOutcomes {
        ModelOutcomes {
            all_outcomes: self.all,
            allowed_outcomes: self.allowed,
            num_candidates: self.num_candidates,
            num_allowed: self.num_allowed,
            condition_witnessed: self.witnessed,
        }
    }
}

/// Interner over observed-value vectors: entries are kept sorted by
/// value vector, so the per-candidate probe is a binary search (a
/// test's distinct outcomes number at most a few dozen — cheaper than
/// hashing, log-cost on the RMW-heavy tests with many outcomes).
struct SeenOutcomes {
    /// `(values, entry index)` sorted by values.
    order: Vec<(Vec<i64>, usize)>,
    entries: Vec<(Outcome, bool)>,
}

impl SeenOutcomes {
    fn new() -> Self {
        SeenOutcomes {
            order: Vec::new(),
            entries: Vec::new(),
        }
    }

    fn find(&self, vals: &[i64]) -> Option<usize> {
        self.order
            .binary_search_by(|(v, _)| v.as_slice().cmp(vals))
            .ok()
            .map(|pos| self.order[pos].1)
    }

    fn insert(&mut self, vals: &[i64], outcome: Outcome, witnesses: bool) -> usize {
        let idx = self.entries.len();
        self.entries.push((outcome, witnesses));
        let pos = self
            .order
            .binary_search_by(|(v, _)| v.as_slice().cmp(vals))
            .unwrap_err();
        self.order.insert(pos, (vals.to_vec(), idx));
        idx
    }

    fn get(&self, idx: usize) -> (&Outcome, bool) {
        let (outcome, witnesses) = &self.entries[idx];
        (outcome, *witnesses)
    }

    fn witnesses(&self, idx: usize) -> bool {
        self.entries[idx].1
    }
}

/// `true` iff some model-allowed candidate witnesses the test's final
/// condition — the early-exit form of
/// [`ModelOutcomes::condition_witnessed`]: the walk stops at the first
/// allowed class that spans a witnessing outcome instead of covering
/// the full candidate space.
///
/// # Errors
///
/// Propagates [`EnumError`]s from the enumeration. Because the visit
/// count stops at the first witness, this can succeed where
/// [`model_outcomes`] exceeds [`EnumConfig::max_executions`].
pub fn condition_witnessed_with(
    test: &LitmusTest,
    model: &dyn Model,
    cfg: &EnumConfig,
    ctx: &mut EvalContext,
) -> Result<bool, EnumError> {
    let cond = test.cond();
    let mut vals: Vec<i64> = Vec::new();
    let mut stats = PruneStats::default();
    let hit = for_each_execution_pruned(test, model, cfg, ctx, &mut stats, |class| {
        if class.allowed() {
            for combo in 0..class.observed_combos() {
                class.fill_observed(combo, &mut vals);
                if cond.witnessed_by(&class.outcome_from_vals(&vals)) {
                    return ControlFlow::Break(());
                }
            }
        }
        ControlFlow::Continue(())
    })?;
    Ok(hit.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakgpu_litmus::corpus;
    use weakgpu_litmus::ThreadScope;

    fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let count = fill_permutations(items, &mut out, &mut Vec::new(), &mut Vec::new());
        out.truncate(count);
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
    fn fill_permutations_reuses_buffers_and_keeps_order() {
        // Buffer reuse across calls must not leak stale entries into the
        // live prefix, and the emission order must stay the classical
        // recursive one (first element varies slowest).
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let mut used = Vec::new();
        assert_eq!(
            fill_permutations(&[1, 2, 3], &mut out, &mut scratch, &mut used),
            6
        );
        assert_eq!(out[0], vec![1, 2, 3]);
        assert_eq!(out[1], vec![1, 3, 2]);
        assert_eq!(out[5], vec![3, 2, 1]);
        // A smaller follow-up call reports a smaller live count while
        // keeping the spare buffers (and their allocations) behind it.
        assert_eq!(
            fill_permutations(&[7], &mut out, &mut scratch, &mut used),
            1
        );
        assert_eq!(out[0], vec![7]);
        assert_eq!(out.len(), 6, "spares are kept, not dropped");
        assert_eq!(fill_permutations(&[], &mut out, &mut scratch, &mut used), 1);
        assert_eq!(out[0], Vec::<usize>::new());
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
        let (domains, per_thread) = fixed_point_traces(&test, &cfg).unwrap();
        let t = domains.get(&Loc::new("t")).unwrap();
        assert!(t.contains(&0) && t.contains(&1));
        assert_eq!(per_thread.len(), test.num_threads());
        assert!(per_thread.iter().all(|ts| !ts.is_empty()));
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

    #[test]
    fn pruned_classes_partition_the_candidate_space() {
        let model = crate::model::sc_model();
        for test in [
            corpus::corr(),
            corpus::mp(ThreadScope::InterCta, None),
            corpus::sb(ThreadScope::IntraCta, None),
            corpus::dlb_lb(false),
            weakgpu_litmus::corpus_extra::corr_fan(2, 4),
        ] {
            let cfg = EnumConfig::default();
            let exhaustive = enumerate_executions(&test, &cfg).unwrap().len();
            let mut ctx = EvalContext::new();
            let mut stats = PruneStats::default();
            let mut spanned = 0usize;
            let mut charged = 0u64;
            for_each_execution_pruned(&test, &model, &cfg, &mut ctx, &mut stats, |class| {
                spanned += class.size();
                // Cuts only fire on subtrees of at least CUT_MIN
                // candidates and count once; judged classes (leaves and
                // uniform batches of at most 64 lanes) count per leaf.
                if class.is_forced() {
                    assert!(class.size() >= CUT_MIN);
                    charged += 1;
                } else {
                    assert!((1..=64).contains(&class.size()));
                    charged += class.size() as u64;
                }
                ControlFlow::<()>::Continue(())
            })
            .unwrap();
            assert_eq!(
                spanned,
                exhaustive,
                "{}: classes must partition",
                test.name()
            );
            assert_eq!(charged, stats.classes_visited, "{}", test.name());
            assert_eq!(
                stats.classes_visited + stats.candidates_pruned,
                exhaustive as u64,
                "{}: counters must account for every candidate",
                test.name()
            );
        }
    }

    #[test]
    fn pruned_outcomes_match_exhaustive() {
        let model = crate::model::sc_model();
        let cfg = EnumConfig::default();
        for test in [
            corpus::corr(),
            corpus::mp(ThreadScope::InterCta, None),
            corpus::dlb_mp(false),
        ] {
            let mut ctx = EvalContext::new();
            let exhaustive = model_outcomes_exhaustive(&test, &model, &cfg, &mut ctx).unwrap();
            let (walked, stats) = model_outcomes_counted(&test, &model, &cfg, &mut ctx).unwrap();
            assert_eq!(walked, exhaustive, "{}", test.name());
            assert_eq!(
                stats.classes_visited + stats.candidates_pruned,
                exhaustive.num_candidates as u64,
                "{}",
                test.name()
            );
            assert_eq!(
                condition_witnessed_with(&test, &model, &cfg, &mut ctx).unwrap(),
                exhaustive.condition_witnessed,
                "{}",
                test.name()
            );
        }
    }

    #[test]
    fn pruned_limit_counts_classes_not_candidates() {
        // The read-fan shape under SC prunes heavily: most value
        // patterns embed a forbidden new-then-old read pair, so the
        // class count falls far below the candidate count and a budget
        // the exhaustive stream exceeds still completes on the walk.
        // (Eight reads: with six, every value pattern spans at most 64
        // candidates and goes straight to a batch, with no cut.)
        let model = crate::model::sc_model();
        let test = weakgpu_litmus::corpus_extra::corr_fan(2, 8);
        let candidates = enumerate_executions(&test, &EnumConfig::default())
            .unwrap()
            .len();
        let mut ctx = EvalContext::new();
        let walk = |cfg: &EnumConfig, ctx: &mut EvalContext| {
            let mut stats = PruneStats::default();
            let mut classes = 0u64;
            for_each_execution_pruned(&test, &model, cfg, ctx, &mut stats, |_| {
                classes += 1;
                ControlFlow::<()>::Continue(())
            })
            .map(|_| classes)
        };
        let classes = walk(&EnumConfig::default(), &mut ctx).unwrap();
        assert!(
            (classes as usize) < candidates,
            "cuts must collapse the fan's candidate space ({classes} vs {candidates})"
        );
        // A budget of exactly the class count completes on the walk but
        // trips the exhaustive stream.
        let between = EnumConfig {
            max_executions: classes as usize,
            ..EnumConfig::default()
        };
        assert_eq!(walk(&between, &mut ctx), Ok(classes));
        assert_eq!(
            for_each_execution(&test, &between, |_| ControlFlow::<()>::Continue(())).unwrap_err(),
            EnumError::TooManyExecutions
        );
        // One class fewer trips the walk too …
        let tight = EnumConfig {
            max_executions: classes as usize - 1,
            ..EnumConfig::default()
        };
        assert_eq!(
            walk(&tight, &mut ctx).unwrap_err(),
            EnumError::TooManyExecutions
        );
        // … unless the visitor exits before reaching it.
        let mut stats = PruneStats::default();
        let broke = for_each_execution_pruned(&test, &model, &tight, &mut ctx, &mut stats, |_| {
            ControlFlow::Break(7)
        })
        .unwrap();
        assert_eq!(broke, Some(7));
    }

    /// SC spelled with a transitive closure over the communication
    /// relations: not row-local, so the walk never cuts and every
    /// subtree of at most 64 leaves goes through a batch.
    fn sc_closure_model() -> crate::CatModel {
        crate::CatModel::new("sc+", "acyclic (po | rf | co | fr)+ as sc")
            .unwrap()
            .with_rmw_atomicity(crate::RmwAtomicity::Full)
    }

    #[test]
    fn batched_outcomes_match_exhaustive() {
        let cfg = EnumConfig::default();
        for model in [crate::model::sc_model(), sc_closure_model()] {
            for test in [
                corpus::corr(),
                corpus::mp(ThreadScope::InterCta, None),
                corpus::dlb_mp(false),
                weakgpu_litmus::corpus_extra::corr_fan(2, 4),
            ] {
                let name = format!("{} under {}", test.name(), crate::Model::name(&model));
                let mut ctx = EvalContext::new();
                let exhaustive = model_outcomes_exhaustive(&test, &model, &cfg, &mut ctx).unwrap();
                let (got, stats) = model_outcomes_counted(&test, &model, &cfg, &mut ctx).unwrap();
                assert_eq!(got, exhaustive, "{name}");
                assert_eq!(
                    stats.classes_visited + stats.candidates_pruned,
                    exhaustive.num_candidates as u64,
                    "{name}"
                );
                assert_eq!(
                    condition_witnessed_with(&test, &model, &cfg, &mut ctx).unwrap(),
                    exhaustive.condition_witnessed,
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn batched_limit_counts_visits_including_mid_batch() {
        // With no cuts every candidate is a judged leaf; a uniform batch
        // is one visit, a mixed batch one visit per leaf, so a budget
        // one short of the visit count errs mid-walk.
        let model = sc_closure_model();
        let test = weakgpu_litmus::corpus_extra::corr_fan(2, 6);
        let candidates = enumerate_executions(&test, &EnumConfig::default())
            .unwrap()
            .len();
        let mut ctx = EvalContext::new();
        let mut stats = PruneStats::default();
        let (mut classes, mut uniform, mut leaves) = (0usize, 0usize, 0usize);
        for_each_execution_pruned(
            &test,
            &model,
            &EnumConfig::default(),
            &mut ctx,
            &mut stats,
            |class| {
                assert!(!class.is_forced(), "non-row-local plans never cut");
                classes += 1;
                uniform += usize::from(class.size() > 1);
                leaves += usize::from(class.size() == 1);
                ControlFlow::<()>::Continue(())
            },
        )
        .unwrap();
        assert_eq!(stats.classes_visited, candidates as u64);
        assert_eq!(stats.candidates_pruned, 0);
        assert!(uniform > 0, "fan tests must form uniform batches");
        assert!(leaves > 0, "fan tests must form mixed batches");
        assert!(classes < candidates);

        let exact = EnumConfig {
            max_executions: classes,
            ..EnumConfig::default()
        };
        let mut stats = PruneStats::default();
        assert!(
            for_each_execution_pruned(&test, &model, &exact, &mut ctx, &mut stats, |_| {
                ControlFlow::<()>::Continue(())
            })
            .is_ok()
        );
        let tight = EnumConfig {
            max_executions: classes - 1,
            ..EnumConfig::default()
        };
        let mut stats = PruneStats::default();
        assert_eq!(
            for_each_execution_pruned(&test, &model, &tight, &mut ctx, &mut stats, |_| {
                ControlFlow::<()>::Continue(())
            })
            .unwrap_err(),
            EnumError::TooManyExecutions
        );
        // … unless the visitor breaks first.
        let mut stats = PruneStats::default();
        let mut visits = 0usize;
        let broke = for_each_execution_pruned(&test, &model, &tight, &mut ctx, &mut stats, |_| {
            visits += 1;
            if visits == 3 {
                ControlFlow::Break(9)
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap();
        assert_eq!(broke, Some(9));
        assert_eq!(visits, 3);
    }
}
