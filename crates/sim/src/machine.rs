//! The operational GPU machine: issues instructions in program order and
//! performs pending memory operations — possibly out of order, within the
//! chip's sanctioned reordering classes — against an L2 point of coherence
//! and per-SM L1 lines.
//!
//! # Soundness invariants (w.r.t. the paper's axiomatic model)
//!
//! * No operation performs before an operand it depends on is available
//!   (issue stalls on pending registers) — preserves `no-thin-air`.
//! * Same-location write→write, read→write and write→read pairs never
//!   reorder (write→read bypasses forward the pending value) — preserves
//!   SC-per-location minus the load-load hazard.
//! * A non-leaked fence is an ordering barrier for the whole window; only
//!   cta-scope fences on cross-CTA tests may leak — exactly the relaxation
//!   `rmo-cta` sanctions.
//! * Atomics read-modify-write the point of coherence in one step.
//!
//! `.ca` loads may additionally return stale per-SM L1 values — behaviour
//! the paper's model deliberately leaves out of scope (Sec. 5.5), matching
//! the fence-immune `mp-L1`/`coRR-L2-L1` results of Figs. 3 and 4.
//!
//! # What a run costs
//!
//! A paper-family run is about 17 scheduler steps, so its fixed costs
//! matter as much as its steps, and everything that does not change
//! between runs is computed once:
//!
//! * **per test**, by [`SimProgram::compile`]: the memory image a run
//!   starts from (in the L2 and, when the test has shared locations, in
//!   each CTA's shared memory), the global locations L1 preload draws
//!   for, the registers each instruction reads as a bit mask, the owning
//!   CTA of each shared location, and the final condition resolved to
//!   positions in the observation vector;
//! * **per chip and incantations**, by [`RunParams::new`]: the bypass
//!   probability of every pair of pending-op classes, so choosing which
//!   op performs is a table lookup and a same-location test per pair.
//!   Each op is classified once, when it issues, by kind, region, cache
//!   operator and fence leak.
//!
//! A run then resets its [`MachineState`] by copying the image and the
//! register inits (the RNG draws of SM placement and L1 preload are the
//! historical ones, in the historical order). An instruction is ready to issue when its read
//! mask misses the thread's mask of awaited registers. Each thread keeps
//! its pending ops in an inline window of 8 slots, oldest first, and a
//! run records its observation vector into an [`ObsCounts`] by a linear
//! probe over the few distinct vectors seen so far. None of it allocates
//! once the state and the counts are warm.

use std::fmt;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;
use weakgpu_litmus::{CacheOp, FenceScope, LitmusTest, Outcome, Region};

use crate::chip::{Chip, Incantations, RunWeights};
use crate::program::{reg_bit, CompileError, ObsTarget, SimOp, SimOperand, SimProgram, SimValue};

/// Maximum scheduler steps per run, against runaway spin loops.
const MAX_STEPS: usize = 200_000;

/// Maximum pending operations per thread window.
const WINDOW: usize = 8;

/// A run-time failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunError {
    /// The run exceeded the step budget (livelocked spin loop).
    StepLimit,
    /// An address operand did not hold a pointer.
    BadAddress {
        /// Thread id.
        tid: usize,
        /// Program counter.
        pc: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::StepLimit => write!(f, "run exceeded {MAX_STEPS} scheduler steps"),
            RunError::BadAddress { tid, pc } => {
                write!(f, "thread {tid} pc {pc}: address operand is not a pointer")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// A pending (issued, not yet performed) memory operation.
#[derive(Clone, Copy, Debug)]
enum Pending {
    Store { loc: u32, value: i64 },
    Load { loc: u32, dst: u32, cache: CacheOp },
    Rmw { loc: u32, dst: u32, rmw: RmwOp },
    Fence { scope: FenceScope, leaked: bool },
}

#[derive(Clone, Copy, Debug)]
enum RmwOp {
    Cas { expected: i64, desired: i64 },
    Exch(i64),
    Inc,
}

/// The bypass classes of pending ops. An access's class is its kind
/// (store, `.ca` load, `.cg` load, RMW) plus [`SHARED`] when its location
/// is in shared memory; fences are leaked or solid.
const STORE: u8 = 0;
const LOAD_CA: u8 = 2;
const LOAD_CG: u8 = 4;
const RMW: u8 = 6;
const SHARED: u8 = 1;
const LEAKED_FENCE: u8 = 8;
const SOLID_FENCE: u8 = 9;
const CLASSES: usize = 10;

/// The location of a fence's slot: no access's location.
const NO_LOC: u32 = u32::MAX;

/// The probability that an op of class `later` may perform before one of
/// class `earlier` (`None` = never), the two on the same location or not.
fn class_bypass(earlier: u8, later: u8, same_loc: bool, w: &RunWeights) -> Option<f64> {
    if earlier >= LEAKED_FENCE {
        return (earlier == LEAKED_FENCE).then_some(1.0);
    }
    if later >= LEAKED_FENCE {
        return None; // fences retire in order
    }
    let (ek, lk) = (earlier & !SHARED, later & !SHARED);
    let is_load = |k: u8| k == LOAD_CA || k == LOAD_CG;
    if same_loc {
        // Same-location load-load hazard (coRR). Mixed cache operators
        // reorder far more rarely (Fig. 4 vs Fig. 1).
        if is_load(ek) && is_load(lk) {
            if earlier & SHARED != 0 {
                return None;
            }
            let p = if ek == lk { w.rr_same } else { w.rr_same_mixed };
            return (p > 0.0).then_some(p);
        }
        // A later load may run ahead of a pending same-location store by
        // forwarding its value (rfi) — coherence-safe.
        if ek == STORE && is_load(lk) {
            return (w.wr > 0.0).then_some(w.wr);
        }
        // coWW / coRW / anything through an RMW: never.
        return None;
    }
    // Different locations.
    let p = if (earlier | later) & SHARED != 0 {
        w.shared
    } else {
        // Plain pairs take their class directly; pairs involving an RMW
        // take the class of the RMW's *ordering-relevant* aspect (its read
        // when it is the delayed op — the dlb-lb mechanism; its write when
        // it is the bypassing op — the cas-sl mechanism), scaled by the
        // chip's RMW factor. The hardware data forces this asymmetry: on
        // the HD6570, sb (plain write→read) is unobservable while cas-sl
        // is frequent.
        match (ek, lk) {
            (STORE, LOAD_CA | LOAD_CG) => w.wr,
            (STORE, STORE) => w.wwrr,
            (LOAD_CA | LOAD_CG, STORE) => w.rw,
            (LOAD_CA | LOAD_CG, LOAD_CA | LOAD_CG) => w.wwrr,
            (STORE, RMW) => w.wwrr * w.rmw_second_factor,
            (RMW, STORE) => w.rw * w.rmw_first_factor,
            (RMW, LOAD_CA | LOAD_CG) => w.wr * w.rmw_first_factor,
            // Acquire-side atomics do not run ahead of earlier loads: no
            // paper-observed behaviour requires it, and allowing it would
            // let `dlb-lb` fire from the stealing thread too, far beyond
            // the observed rates.
            (LOAD_CA | LOAD_CG, RMW) => 0.0,
            (RMW, RMW) => w.rw.min(w.wwrr) * w.rmw_first_factor.min(w.rmw_second_factor),
            _ => unreachable!("access kinds only"),
        }
    };
    (p > 0.0 && p.is_finite()).then_some(p.min(1.0))
}

/// The constants of a cell's batches of runs: the incantation-scaled
/// weights, whether thread placement is randomised, and the bypass
/// probability of every pair of pending-op classes, derived from the
/// weights once instead of once per pair and step.
#[derive(Clone, Debug)]
pub struct RunParams {
    w: RunWeights,
    thread_rand: bool,
    /// `bypass[same_loc][earlier][later]`: [`class_bypass`], with 0 for
    /// never (every allowed bypass has a positive probability).
    bypass: [[[f64; CLASSES]; CLASSES]; 2],
}

impl RunParams {
    /// The parameters of runs under weights `w`, with thread placement
    /// randomised when `thread_rand` is set.
    pub fn new(w: &RunWeights, thread_rand: bool) -> Self {
        let mut bypass = [[[0.0; CLASSES]; CLASSES]; 2];
        for (same, table) in bypass.iter_mut().enumerate() {
            for (earlier, row) in table.iter_mut().enumerate() {
                for (later, p) in row.iter_mut().enumerate() {
                    *p = class_bypass(earlier as u8, later as u8, same == 1, w).unwrap_or(0.0);
                }
            }
        }
        RunParams {
            w: *w,
            thread_rand,
            bypass,
        }
    }

    /// The parameters of runs of `chip` under `inc`.
    pub fn of(chip: Chip, inc: &Incantations) -> Self {
        RunParams::new(&chip.profile().weights(inc), inc.thread_rand)
    }
}

#[derive(Clone, Copy, Debug)]
struct L1Line {
    value: i64,
    stale: bool,
    /// Kept by a `.cg` load that should have evicted it: the next `.ca`
    /// load reads it even though it is stale.
    sticky: bool,
}

/// One window slot: the pending op, its location and bypass class, plus
/// a lingering delay. When a younger op bypasses older ones, the skipped
/// ops are delayed for several of the thread's subsequent perform
/// attempts, holding the reordering window open long enough for other
/// threads to observe it (as real store buffers and in-flight queues do).
#[derive(Clone, Copy, Debug)]
struct Slot {
    op: Pending,
    /// The accessed location, or [`NO_LOC`] for a fence.
    loc: u32,
    class: u8,
    delay: u8,
}

/// A thread's pending ops, oldest first, held inline.
#[derive(Clone, Copy, Debug)]
struct Window {
    slots: [Slot; WINDOW],
    len: usize,
}

impl Window {
    const EMPTY: Window = Window {
        slots: [Slot {
            op: Pending::Fence {
                scope: FenceScope::Cta,
                leaked: false,
            },
            loc: NO_LOC,
            class: SOLID_FENCE,
            delay: 0,
        }; WINDOW],
        len: 0,
    };

    fn as_slice(&self) -> &[Slot] {
        &self.slots[..self.len]
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `slot`; the issue logic never overfills the window.
    fn push(&mut self, slot: Slot) {
        self.slots[self.len] = slot;
        self.len += 1;
    }

    /// Removes and returns slot `i`, shifting the younger slots down.
    fn remove(&mut self, i: usize) -> Slot {
        let slot = self.slots[i];
        if i + 1 < self.len {
            self.slots.copy_within(i + 1..self.len, i);
        }
        self.len -= 1;
        slot
    }
}

#[derive(Clone, Debug)]
struct ThreadCtx {
    pc: usize,
    /// Register values; `None` while an issued load or RMW owes one.
    regs: Vec<Option<SimValue>>,
    /// The registers that are `None`, as [`reg_bit`]s.
    pending: u64,
    queue: Window,
}

impl ThreadCtx {
    fn done(&self, code_len: usize) -> bool {
        self.pc >= code_len && self.queue.is_empty()
    }

    /// Makes register `r` available, holding `v`.
    fn set(&mut self, r: u32, v: SimValue) {
        self.regs[r as usize] = Some(v);
        self.pending &= !reg_bit(r);
    }

    /// Makes register `r` await the issued op that writes it.
    fn owe(&mut self, r: u32) {
        self.regs[r as usize] = None;
        self.pending |= reg_bit(r);
    }
}

/// Reusable per-worker run state: every buffer a run needs, allocated once
/// and reset in place, so batched runs ([`Simulator::run_batch`]) pay no
/// per-iteration allocation. Obtain one from [`Simulator::new_state`]; a
/// state is only valid for the simulator that created it or last fitted
/// it ([`Simulator::fit_state`]).
#[derive(Clone, Debug)]
pub struct MachineState {
    /// Location count — the stride of the flattened `shared`/`l1` planes.
    nlocs: usize,
    /// SM hosting each CTA this run.
    sm_of_cta: Vec<usize>,
    /// The `l1` row of each CTA this run: the row of the lowest CTA on
    /// the same SM, so CTAs sharing an SM share its L1.
    l1_row: Vec<usize>,
    /// The L2 point of coherence, indexed by location.
    l2: Vec<i64>,
    /// Per-CTA shared memory, flattened `cta * nlocs + loc` (empty when
    /// the test has no shared location).
    shared: Vec<i64>,
    /// The L1 lines of the SMs hosting the test, one row per CTA (only
    /// the rows named in `l1_row` are used), flattened `row * nlocs +
    /// loc`. An SM hosting no CTA is never read, so it has no row.
    l1: Vec<Option<L1Line>>,
    /// Per-thread execution contexts.
    threads: Vec<ThreadCtx>,
    /// Indices of the unfinished threads, in increasing order.
    active: Vec<usize>,
    /// Observed values of the last completed run, in the compiled
    /// program's `observed` order.
    obs: Vec<i64>,
}

impl MachineState {
    /// The observed values of the last completed run, in the order of the
    /// program's final-condition expressions. Convert to an [`Outcome`]
    /// with [`Simulator::outcome_from_obs`].
    pub fn observed(&self) -> &[i64] {
        &self.obs
    }
}

/// An indexed outcome collector: counts distinct observation vectors
/// (`MachineState::observed`) without materialising an [`Outcome`] — and
/// its per-expression `FinalExpr` clones — per iteration. Convert each
/// distinct vector once at the end via [`Simulator::outcome_from_obs`].
///
/// A cell sees a handful of distinct vectors, so they are kept flat, in
/// first-recorded order, and a record is a linear probe over them. All
/// vectors recorded between two [`ObsCounts::clear`]s have one length:
/// they come from one simulator.
#[derive(Clone, Debug, Default)]
pub struct ObsCounts {
    /// The length of every recorded vector.
    width: usize,
    /// The distinct vectors, `width` values each.
    values: Vec<i64>,
    /// The count of each distinct vector.
    counts: Vec<u64>,
}

impl ObsCounts {
    /// An empty collector.
    pub fn new() -> Self {
        ObsCounts::default()
    }

    /// Records one observation vector. Allocates only when a distinct
    /// vector outgrows the buffers it had before its last clear.
    ///
    /// # Panics
    ///
    /// If `obs` is not as long as the vectors already recorded.
    pub fn record(&mut self, obs: &[i64]) {
        self.add(obs, 1);
    }

    /// Records `n` observations of `obs` at once.
    fn add(&mut self, obs: &[i64], n: u64) {
        if self.counts.is_empty() {
            self.width = obs.len();
        }
        assert_eq!(
            obs.len(),
            self.width,
            "one collector counts vectors of one length"
        );
        let found = if self.width == 0 {
            (!self.counts.is_empty()).then_some(0)
        } else {
            // Element by element: the vectors are a few values long,
            // shorter than a call to compare them as bytes.
            self.values
                .chunks_exact(self.width)
                .position(|v| v.iter().zip(obs).all(|(a, b)| a == b))
        };
        match found {
            Some(i) => self.counts[i] += n,
            None => {
                self.values.extend_from_slice(obs);
                self.counts.push(n);
            }
        }
    }

    /// Adds every count of `other`.
    pub fn merge(&mut self, other: &ObsCounts) {
        for (obs, n) in other.iter_unordered() {
            self.add(obs, n);
        }
    }

    fn vector(&self, i: usize) -> &[i64] {
        &self.values[i * self.width..(i + 1) * self.width]
    }

    /// Iterates `(observation vector, count)` in canonical order: the
    /// vectors ascending, compared element by element.
    pub fn iter(&self) -> impl Iterator<Item = (&[i64], u64)> {
        let mut order: Vec<usize> = (0..self.counts.len()).collect();
        order.sort_unstable_by(|&a, &b| self.vector(a).cmp(self.vector(b)));
        order.into_iter().map(|i| (self.vector(i), self.counts[i]))
    }

    /// Iterates `(observation vector, count)` in first-recorded order,
    /// for folds that do not depend on the order.
    pub fn iter_unordered(&self) -> impl Iterator<Item = (&[i64], u64)> {
        (0..self.counts.len()).map(|i| (self.vector(i), self.counts[i]))
    }

    /// Total recorded runs.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of distinct observation vectors.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Drops all recorded counts, keeping the buffers.
    pub fn clear(&mut self) {
        self.values.clear();
        self.counts.clear();
    }
}

impl PartialEq for ObsCounts {
    /// Equal when they hold the same counts, whatever the recording order.
    fn eq(&self, other: &Self) -> bool {
        self.distinct() == other.distinct() && self.iter().eq(other.iter())
    }
}

impl Eq for ObsCounts {}

/// A compiled litmus test bound to a chip, ready to run.
#[derive(Clone, Debug)]
pub struct Simulator {
    program: Arc<SimProgram>,
    chip: Chip,
    /// The chip's SM count, over which thread randomisation scatters CTAs.
    num_sms: usize,
}

impl Simulator {
    /// Compiles `test` for `chip`.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`]s from [`SimProgram::compile`].
    pub fn compile(test: &LitmusTest, chip: Chip) -> Result<Self, CompileError> {
        Ok(Simulator::from_program(
            Arc::new(SimProgram::compile(test)?),
            chip,
        ))
    }

    /// Binds an already compiled program to `chip`. Compilation does not
    /// depend on the chip, so one program can back the simulators of a
    /// test on every chip, and binding copies nothing.
    pub fn from_program(program: Arc<SimProgram>, chip: Chip) -> Self {
        Simulator {
            program,
            chip,
            num_sms: chip.profile().num_sms,
        }
    }

    /// The compiled program.
    pub fn program(&self) -> &SimProgram {
        &self.program
    }

    /// The chip this simulator models.
    pub fn chip(&self) -> Chip {
        self.chip
    }

    /// Runs the test once under the given incantations.
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn run_once(&self, inc: &Incantations, rng: &mut SmallRng) -> Result<Outcome, RunError> {
        let weights = self.chip.profile().weights(inc);
        self.run_once_with_weights(&weights, inc.thread_rand, rng)
    }

    /// Runs the test once with explicit weights.
    ///
    /// Allocates a fresh [`MachineState`] and [`RunParams`] per call; hot
    /// loops should hold both and use [`Simulator::run_batch`] (or
    /// [`Simulator::run_once_into`]) instead.
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn run_once_with_weights(
        &self,
        w: &RunWeights,
        thread_rand: bool,
        rng: &mut SmallRng,
    ) -> Result<Outcome, RunError> {
        let mut state = self.new_state();
        self.run_once_into(&RunParams::new(w, thread_rand), rng, &mut state)?;
        Ok(self.outcome_from_obs(state.observed()))
    }

    /// A reusable run state sized for this simulator's program and chip.
    pub fn new_state(&self) -> MachineState {
        let mut st = MachineState {
            nlocs: 0,
            sm_of_cta: Vec::new(),
            l1_row: Vec::new(),
            l2: Vec::new(),
            shared: Vec::new(),
            l1: Vec::new(),
            threads: Vec::new(),
            active: Vec::new(),
            obs: Vec::new(),
        };
        self.fit_state(&mut st);
        st
    }

    /// Re-sizes a state made for any simulator to fit this one, keeping
    /// its buffers: a worker that moves between simulators reuses one
    /// state instead of allocating a fresh one per simulator.
    pub fn fit_state(&self, st: &mut MachineState) {
        let p = &self.program;
        st.nlocs = p.locs.len();
        st.sm_of_cta.resize(p.num_ctas, 0);
        st.l1_row.resize(p.num_ctas, 0);
        st.l2.resize(p.mem_init.len(), 0);
        st.shared.resize(
            if p.has_shared {
                p.num_ctas * st.nlocs
            } else {
                0
            },
            0,
        );
        st.l1.resize(p.num_ctas * st.nlocs, None);
        st.threads.resize_with(p.threads.len(), || ThreadCtx {
            pc: 0,
            regs: Vec::new(),
            pending: 0,
            queue: Window::EMPTY,
        });
        for (ctx, inits) in st.threads.iter_mut().zip(&p.reg_init) {
            ctx.regs.resize(inits.len(), None);
        }
        st.obs.resize(p.observed.len(), 0);
    }

    /// Resets a fitted `st` to a fresh run: SM placement, memory images,
    /// L1 preload and thread contexts. The images are copied from the
    /// program; the RNG draws are the historical ones, in the historical
    /// order (one SM per CTA, then one preload draw per CTA and global
    /// location).
    fn reset(&self, params: &RunParams, rng: &mut SmallRng, st: &mut MachineState) {
        let p = &self.program;
        let nlocs = st.nlocs;

        // SM placement: one SM per CTA by default; thread randomisation
        // scatters CTAs over the chip (they may then collide on an SM,
        // sharing an L1 — which suppresses stale-line effects, as on
        // hardware). A CTA uses the L1 row of the lowest CTA on its SM.
        for c in 0..p.num_ctas {
            let sm = if params.thread_rand {
                rng.random_range(0..self.num_sms)
            } else {
                c % self.num_sms
            };
            st.sm_of_cta[c] = sm;
            st.l1_row[c] = st.sm_of_cta[..c].iter().position(|&s| s == sm).unwrap_or(c);
        }

        // Memory.
        st.l2.copy_from_slice(&p.mem_init);
        if p.has_shared {
            for image in st.shared.chunks_exact_mut(nlocs) {
                image.copy_from_slice(&p.mem_init);
            }
        }
        st.l1.fill(None);
        let preload = params.w.l1_preload;
        if preload > 0.0 {
            for &row in &st.l1_row {
                for &l in &p.global_locs {
                    if rng.random_bool(preload) {
                        st.l1[row * nlocs + l as usize] = Some(L1Line {
                            value: p.mem_init[l as usize],
                            stale: false,
                            sticky: false,
                        });
                    }
                }
            }
        }

        for (ctx, inits) in st.threads.iter_mut().zip(&p.reg_init) {
            ctx.pc = 0;
            ctx.queue.len = 0;
            for (reg, &v) in ctx.regs.iter_mut().zip(inits) {
                *reg = Some(v);
            }
            ctx.pending = 0;
        }
    }

    /// Runs the test once into a reusable state, leaving the observed
    /// values in [`MachineState::observed`].
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn run_once_into(
        &self,
        params: &RunParams,
        rng: &mut SmallRng,
        st: &mut MachineState,
    ) -> Result<(), RunError> {
        let p = &self.program;
        self.reset(params, rng, st);

        // Only the thread that acts in a step can finish in it, so the
        // list is built once and a thread leaves it when it finishes.
        st.active.clear();
        st.active
            .extend((0..st.threads.len()).filter(|&t| !st.threads[t].done(p.threads[t].len())));
        let mut steps = 0usize;
        while !st.active.is_empty() {
            steps += 1;
            if steps > MAX_STEPS {
                return Err(RunError::StepLimit);
            }
            let a = rng.random_range(0..st.active.len());
            let t = st.active[a];
            let (can_issue, stalled) = self.issue_status(t, &st.threads[t]);
            let can_perform = !st.threads[t].queue.is_empty();
            let do_issue = match (can_issue, can_perform) {
                // Favour issuing: real front-ends run ahead of the memory
                // system, which is what fills the window with reorderable
                // work.
                (true, true) => rng.random_bool(0.8),
                (true, false) => true,
                (false, true) => false,
                (false, false) => {
                    debug_assert!(!stalled, "stalled thread with empty queue");
                    continue;
                }
            };
            if do_issue {
                self.issue(t, &mut st.threads, &params.w, rng)?;
            } else {
                self.perform(t, st, params, rng);
            }
            if st.threads[t].done(p.threads[t].len()) {
                st.active.remove(a);
            }
        }

        // Collect the observed values.
        for ((_, target), v) in p.observed.iter().zip(&mut st.obs) {
            *v = match target {
                ObsTarget::Reg(t, r) => st.threads[*t].regs[*r as usize]
                    .expect("all ops performed at termination")
                    .as_int(),
                ObsTarget::Mem(l) => match p.locs[*l as usize].region {
                    Region::Global => st.l2[*l as usize],
                    Region::Shared => {
                        let cta = p.shared_owner[*l as usize];
                        st.shared[cta * st.nlocs + *l as usize]
                    }
                },
            };
        }
        Ok(())
    }

    /// Runs `n` iterations through a reusable state, recording each
    /// observation vector into `counts`. This is the amortised hot path:
    /// a warm state and warm counts allocate nothing.
    ///
    /// # Errors
    ///
    /// See [`RunError`]. Iterations completed before the error remain
    /// recorded in `counts`.
    pub fn run_batch(
        &self,
        n: usize,
        params: &RunParams,
        rng: &mut SmallRng,
        st: &mut MachineState,
        counts: &mut ObsCounts,
    ) -> Result<(), RunError> {
        for _ in 0..n {
            self.run_once_into(params, rng, st)?;
            counts.record(&st.obs);
        }
        Ok(())
    }

    /// Materialises an [`Outcome`] from an observation vector produced by
    /// this simulator ([`MachineState::observed`] / [`ObsCounts`] keys).
    pub fn outcome_from_obs(&self, obs: &[i64]) -> Outcome {
        debug_assert_eq!(obs.len(), self.program.observed.len());
        let mut outcome = Outcome::new();
        for ((expr, _), v) in self.program.observed.iter().zip(obs) {
            outcome.set(expr.clone(), *v);
        }
        outcome
    }

    /// `(can_issue, stalled_on_operand)` for the thread's next instruction.
    fn issue_status(&self, t: usize, ctx: &ThreadCtx) -> (bool, bool) {
        let code = &self.program.threads[t];
        if ctx.pc >= code.len() {
            return (false, false);
        }
        if ctx.queue.len() >= WINDOW {
            return (false, true);
        }
        let instr = &code[ctx.pc];
        let ready = if self.program.narrow {
            instr.reads & ctx.pending == 0
        } else {
            instr.read_regs().all(|r| ctx.regs[r as usize].is_some())
        };
        (ready, !ready)
    }

    fn eval(&self, o: SimOperand, ctx: &ThreadCtx) -> SimValue {
        match o {
            SimOperand::Reg(r) => ctx.regs[r as usize].expect("checked ready"),
            SimOperand::Imm(n) => SimValue::Int(n),
            SimOperand::Sym(l) => SimValue::Ptr(l),
        }
    }

    fn eval_int(&self, o: SimOperand, ctx: &ThreadCtx) -> i64 {
        self.eval(o, ctx).as_int()
    }

    fn resolve_loc(&self, o: SimOperand, ctx: &ThreadCtx, tid: usize) -> Result<u32, RunError> {
        match self.eval(o, ctx) {
            SimValue::Ptr(l) => Ok(l),
            SimValue::Int(_) => Err(RunError::BadAddress { tid, pc: ctx.pc }),
        }
    }

    /// The window slot of an access `op` to `loc` of bypass kind `kind`.
    fn access(&self, op: Pending, loc: u32, kind: u8) -> Slot {
        let shared = self.program.locs[loc as usize].region == Region::Shared;
        Slot {
            op,
            loc,
            class: if shared { kind | SHARED } else { kind },
            delay: 0,
        }
    }

    fn issue(
        &self,
        t: usize,
        threads: &mut [ThreadCtx],
        w: &RunWeights,
        rng: &mut SmallRng,
    ) -> Result<(), RunError> {
        let instr = self.program.threads[t][threads[t].pc];
        let ctx = &mut threads[t];

        // Guard check (operands already known ready).
        if let Some((p, expect)) = instr.guard {
            let truth = matches!(ctx.regs[p as usize], Some(SimValue::Int(n)) if n != 0);
            if truth != expect {
                ctx.pc += 1;
                return Ok(());
            }
        }

        match instr.op {
            SimOp::Nop => ctx.pc += 1,
            SimOp::Bra(target) => ctx.pc = target as usize,
            SimOp::Mov { dst, src } | SimOp::Cvt { dst, src } => {
                let v = self.eval(src, ctx);
                ctx.set(dst, v);
                ctx.pc += 1;
            }
            SimOp::Add { dst, a, b } => {
                let v = match (self.eval(a, ctx), self.eval(b, ctx)) {
                    (SimValue::Int(x), SimValue::Int(y)) => SimValue::Int(x.wrapping_add(y)),
                    // Pointer arithmetic: offsets other than 0 would leave
                    // the litmus location set; tests only add 0.
                    (SimValue::Ptr(l), SimValue::Int(_)) | (SimValue::Int(_), SimValue::Ptr(l)) => {
                        SimValue::Ptr(l)
                    }
                    (SimValue::Ptr(l), SimValue::Ptr(_)) => SimValue::Ptr(l),
                };
                ctx.set(dst, v);
                ctx.pc += 1;
            }
            SimOp::And { dst, a, b } => {
                let v = self.eval_int(a, ctx) & self.eval_int(b, ctx);
                ctx.set(dst, SimValue::Int(v));
                ctx.pc += 1;
            }
            SimOp::Xor { dst, a, b } => {
                let v = self.eval_int(a, ctx) ^ self.eval_int(b, ctx);
                ctx.set(dst, SimValue::Int(v));
                ctx.pc += 1;
            }
            SimOp::SetpEq { dst, a, b } => {
                let v = (self.eval(a, ctx) == self.eval(b, ctx)) as i64;
                ctx.set(dst, SimValue::Int(v));
                ctx.pc += 1;
            }
            SimOp::SetpNe { dst, a, b } => {
                let v = (self.eval(a, ctx) != self.eval(b, ctx)) as i64;
                ctx.set(dst, SimValue::Int(v));
                ctx.pc += 1;
            }
            SimOp::Membar(scope) => {
                let leaked = scope == FenceScope::Cta
                    && self.program.spans_ctas
                    && w.cta_fence_leak > 0.0
                    && rng.random_bool(w.cta_fence_leak);
                ctx.queue.push(Slot {
                    op: Pending::Fence { scope, leaked },
                    loc: NO_LOC,
                    class: if leaked { LEAKED_FENCE } else { SOLID_FENCE },
                    delay: 0,
                });
                ctx.pc += 1;
            }
            SimOp::Ld {
                dst, addr, cache, ..
            } => {
                let loc = self.resolve_loc(addr, ctx, t)?;
                let kind = match cache {
                    CacheOp::Ca => LOAD_CA,
                    CacheOp::Cg => LOAD_CG,
                };
                ctx.queue
                    .push(self.access(Pending::Load { loc, dst, cache }, loc, kind));
                ctx.owe(dst);
                ctx.pc += 1;
            }
            SimOp::St { addr, src, .. } => {
                let loc = self.resolve_loc(addr, ctx, t)?;
                let value = self.eval_int(src, ctx);
                ctx.queue
                    .push(self.access(Pending::Store { loc, value }, loc, STORE));
                ctx.pc += 1;
            }
            SimOp::Cas {
                dst,
                addr,
                expected,
                desired,
            } => {
                let loc = self.resolve_loc(addr, ctx, t)?;
                let rmw = RmwOp::Cas {
                    expected: self.eval_int(expected, ctx),
                    desired: self.eval_int(desired, ctx),
                };
                ctx.queue
                    .push(self.access(Pending::Rmw { loc, dst, rmw }, loc, RMW));
                ctx.owe(dst);
                ctx.pc += 1;
            }
            SimOp::Exch { dst, addr, src } => {
                let loc = self.resolve_loc(addr, ctx, t)?;
                let rmw = RmwOp::Exch(self.eval_int(src, ctx));
                ctx.queue
                    .push(self.access(Pending::Rmw { loc, dst, rmw }, loc, RMW));
                ctx.owe(dst);
                ctx.pc += 1;
            }
            SimOp::Inc { dst, addr } => {
                let loc = self.resolve_loc(addr, ctx, t)?;
                let rmw = RmwOp::Inc;
                ctx.queue
                    .push(self.access(Pending::Rmw { loc, dst, rmw }, loc, RMW));
                ctx.owe(dst);
                ctx.pc += 1;
            }
        }
        Ok(())
    }

    fn perform(&self, t: usize, st: &mut MachineState, params: &RunParams, rng: &mut SmallRng) {
        let w = &params.w;
        let nlocs = st.nlocs;
        let cta = self.program.thread_cta[t];
        let row = st.l1_row[cta];

        // Choose which queue entry performs: the first younger op that
        // may bypass every older one and wins the draw of the product of
        // those pairs' probabilities.
        let idx = {
            let queue = st.threads[t].queue.as_slice();
            let mut chosen = 0;
            for (j, later) in queue.iter().enumerate().skip(1) {
                let mut p = 1.0;
                let mut ok = true;
                for earlier in &queue[..j] {
                    let same = usize::from(earlier.loc == later.loc);
                    let q =
                        params.bypass[same][usize::from(earlier.class)][usize::from(later.class)];
                    if q == 0.0 {
                        ok = false;
                        break;
                    }
                    p *= q;
                }
                if ok && p > 0.0 && rng.random_bool(p.min(1.0)) {
                    chosen = j;
                    break;
                }
            }
            chosen
        };

        let queue = &mut st.threads[t].queue;
        if idx > 0 {
            // Hold the bypassed ops back so the reordering window stays
            // open for other threads to observe.
            let extra = rng.random_range(24..=64);
            for slot in &mut queue.slots[..idx] {
                slot.delay = slot.delay.max(extra);
            }
        } else if queue.slots[0].delay > 0 {
            // A delayed front op skips this perform attempt.
            queue.slots[0].delay -= 1;
            return;
        }

        // Forwarding source for a bypassing load: the newest earlier
        // pending same-location store.
        let forward: Option<i64> = match queue.slots[idx].op {
            Pending::Load { loc, .. } => {
                queue.slots[..idx]
                    .iter()
                    .rev()
                    .find_map(|slot| match slot.op {
                        Pending::Store { loc: l, value } if l == loc => Some(value),
                        _ => None,
                    })
            }
            _ => None,
        };

        let op = queue.remove(idx).op;

        match op {
            Pending::Fence { scope, leaked } => {
                if !leaked {
                    if let Some(min) = w.l1_invalidate_scope {
                        if scope.at_least(min) {
                            for line in st.l1[row * nlocs..(row + 1) * nlocs].iter_mut() {
                                *line = None;
                            }
                        }
                    }
                }
            }
            Pending::Store { loc, value } => {
                let li = loc as usize;
                match self.program.locs[li].region {
                    Region::Shared => st.shared[cta * nlocs + li] = value,
                    Region::Global => {
                        st.l2[li] = value;
                        // Fermi-style write-around: `.cg` stores bypass the
                        // L1, leaving any present line — including the
                        // issuing SM's own — stale.
                        for sml1 in st.l1.chunks_mut(nlocs) {
                            if let Some(line) = &mut sml1[li] {
                                line.stale = true;
                            }
                        }
                    }
                }
            }
            Pending::Load { loc, dst, cache } => {
                let li = loc as usize;
                let v = if let Some(fwd) = forward {
                    fwd
                } else {
                    match self.program.locs[li].region {
                        Region::Shared => st.shared[cta * nlocs + li],
                        Region::Global => match cache {
                            CacheOp::Cg => {
                                let v = st.l2[li];
                                // `.cg` evicts a matching L1 line — except
                                // with the keep-stale quirk, which leaves a
                                // sticky stale line behind (Fig. 4).
                                if let Some(line) = st.l1[row * nlocs + li] {
                                    if line.stale
                                        && w.keep_stale_after_cg > 0.0
                                        && rng.random_bool(w.keep_stale_after_cg)
                                    {
                                        st.l1[row * nlocs + li] = Some(L1Line {
                                            sticky: true,
                                            ..line
                                        });
                                    } else {
                                        st.l1[row * nlocs + li] = None;
                                    }
                                }
                                v
                            }
                            CacheOp::Ca => match st.l1[row * nlocs + li] {
                                Some(line) if line.sticky => line.value,
                                Some(line)
                                    if line.stale
                                        && w.l1_stale_read > 0.0
                                        && rng.random_bool(w.l1_stale_read) =>
                                {
                                    line.value
                                }
                                Some(line) => line.value,
                                None => {
                                    let v = st.l2[li];
                                    st.l1[row * nlocs + li] = Some(L1Line {
                                        value: v,
                                        stale: false,
                                        sticky: false,
                                    });
                                    v
                                }
                            },
                        },
                    }
                };
                st.threads[t].set(dst, SimValue::Int(v));
            }
            Pending::Rmw { loc, dst, rmw } => {
                let li = loc as usize;
                let is_shared = self.program.locs[li].region == Region::Shared;
                let old = if is_shared {
                    st.shared[cta * nlocs + li]
                } else {
                    st.l2[li]
                };
                let new = match rmw {
                    RmwOp::Cas { expected, desired } => (old == expected).then_some(desired),
                    RmwOp::Exch(v) => Some(v),
                    RmwOp::Inc => Some(old.wrapping_add(1)),
                };
                if let Some(n) = new {
                    if is_shared {
                        st.shared[cta * nlocs + li] = n;
                    } else {
                        st.l2[li] = n;
                        // Atomics act at the L2; present L1 lines go stale.
                        for sml1 in st.l1.chunks_mut(nlocs) {
                            if let Some(line) = &mut sml1[li] {
                                line.stale = true;
                            }
                        }
                    }
                }
                st.threads[t].set(dst, SimValue::Int(old));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use weakgpu_litmus::{corpus, ThreadScope};

    /// Runs `test` `n` times and counts how often its final condition is
    /// witnessed.
    fn witnesses(test: &LitmusTest, chip: Chip, inc: &Incantations, n: usize) -> usize {
        let sim = Simulator::compile(test, chip).unwrap();
        let mut rng = SmallRng::seed_from_u64(0xfeed);
        let mut state = sim.new_state();
        let mut counts = ObsCounts::new();
        sim.run_batch(
            n,
            &RunParams::of(chip, inc),
            &mut rng,
            &mut state,
            &mut counts,
        )
        .unwrap();
        counts
            .iter_unordered()
            .filter(|(obs, _)| sim.program().witnessed_by(obs))
            .map(|(_, n)| n as usize)
            .sum()
    }

    #[test]
    fn sequential_weights_give_sc_outcomes_only() {
        // On GTX 280 (all-zero weights) the weak outcomes never appear.
        let inc = Incantations::all_on();
        for test in [
            corpus::corr(),
            corpus::mp(ThreadScope::InterCta, None),
            corpus::sb(ThreadScope::InterCta, None),
            corpus::lb(ThreadScope::InterCta, None),
            corpus::cas_sl(false),
            corpus::sl_future(false),
        ] {
            assert_eq!(
                witnesses(&test, Chip::Gtx280, &inc, 3000),
                0,
                "GTX 280 must stay strong on {}",
                test.name()
            );
        }
    }

    #[test]
    fn titan_exhibits_the_weak_idioms() {
        let inc = Incantations::best_inter_cta();
        let n = 20_000;
        for (test, min_hits) in [
            (corpus::mp(ThreadScope::InterCta, None), 100),
            (corpus::sb(ThreadScope::InterCta, None), 200),
            (corpus::lb(ThreadScope::InterCta, None), 50),
        ] {
            let hits = witnesses(&test, Chip::GtxTitan, &inc, n);
            assert!(
                hits >= min_hits,
                "{}: expected ≥{min_hits} weak outcomes in {n}, got {hits}",
                test.name()
            );
        }
        let corr_hits = witnesses(&corpus::corr(), Chip::GtxTitan, &Incantations::all_on(), n);
        assert!(corr_hits > 500, "coRR: got {corr_hits}");
    }

    #[test]
    fn gl_fences_suppress_weak_behaviour_on_titan() {
        use weakgpu_litmus::FenceScope;
        let inc = Incantations::best_inter_cta();
        let n = 20_000;
        for test in [
            corpus::mp(ThreadScope::InterCta, Some(FenceScope::Gl)),
            corpus::sb(ThreadScope::InterCta, Some(FenceScope::Gl)),
            corpus::lb(ThreadScope::InterCta, Some(FenceScope::Gl)),
            corpus::dlb_mp(true),
            corpus::dlb_lb(true),
            corpus::cas_sl(true),
            corpus::sl_future(true),
        ] {
            assert_eq!(
                witnesses(&test, Chip::GtxTitan, &inc, n),
                0,
                "gl fences must suppress {}",
                test.name()
            );
        }
    }

    #[test]
    fn cta_fences_leak_across_ctas_on_titan() {
        use weakgpu_litmus::FenceScope;
        let inc = Incantations::best_inter_cta();
        let n = 50_000;
        let inter = witnesses(
            &corpus::mp(ThreadScope::InterCta, Some(FenceScope::Cta)),
            Chip::GtxTitan,
            &inc,
            n,
        );
        assert!(
            inter > 10,
            "inter-CTA mp+membar.ctas must leak, got {inter}"
        );
        // Within a CTA the cta fence is solid.
        let intra = witnesses(
            &corpus::mp(ThreadScope::IntraCta, Some(FenceScope::Cta)),
            Chip::GtxTitan,
            &inc,
            n,
        );
        assert_eq!(intra, 0, "intra-CTA mp+membar.ctas must not leak");
    }

    #[test]
    fn nvidia_needs_incantations() {
        let n = 10_000;
        for test in [
            corpus::mp(ThreadScope::InterCta, None),
            corpus::sb(ThreadScope::InterCta, None),
            corpus::corr(),
        ] {
            assert_eq!(
                witnesses(&test, Chip::GtxTitan, &Incantations::none(), n),
                0,
                "{} must not be weak without incantations on Nvidia",
                test.name()
            );
        }
    }

    #[test]
    fn amd_weak_without_incantations() {
        let n = 10_000;
        let lb_hits = witnesses(
            &corpus::lb(ThreadScope::InterCta, None),
            Chip::RadeonHd7970,
            &Incantations::none(),
            n,
        );
        assert!(lb_hits > 500, "HD7970 lb with no incantations: {lb_hits}");
        // And no coRR on AMD ever.
        let corr_hits = witnesses(
            &corpus::corr(),
            Chip::RadeonHd7970,
            &Incantations::all_on(),
            n,
        );
        assert_eq!(corr_hits, 0);
    }

    #[test]
    fn tesc_mp_l1_survives_all_fences() {
        use weakgpu_litmus::FenceScope;
        let inc = Incantations::best_inter_cta();
        let n = 50_000;
        for fence in [FenceScope::Cta, FenceScope::Gl, FenceScope::Sys] {
            let hits = witnesses(&corpus::mp_l1(Some(fence)), Chip::TeslaC2075, &inc, n);
            assert!(
                hits > 0,
                "TesC mp-L1 must stay weak under membar{} (Fig. 3)",
                fence.suffix()
            );
        }
        // Whereas on the Titan, the gl fence suppresses mp-L1 entirely.
        let titan = witnesses(
            &corpus::mp_l1(Some(FenceScope::Gl)),
            Chip::GtxTitan,
            &inc,
            n,
        );
        assert_eq!(titan, 0);
    }

    #[test]
    fn corr_l2_l1_fence_immune_on_tesc() {
        use weakgpu_litmus::FenceScope;
        let inc = Incantations::all_on();
        let n = 50_000;
        let hits = witnesses(
            &corpus::corr_l2_l1(Some(FenceScope::Sys)),
            Chip::TeslaC2075,
            &inc,
            n,
        );
        assert!(hits > 0, "TesC coRR-L2-L1 must survive membar.sys (Fig. 4)");
        let gtx6 = witnesses(
            &corpus::corr_l2_l1(Some(FenceScope::Gl)),
            Chip::Gtx660,
            &inc,
            n,
        );
        assert_eq!(gtx6, 0, "GTX 660 coRR-L2-L1 is fence-suppressed");
    }

    #[test]
    fn volatile_does_not_restore_sc_on_fermi() {
        let hits = witnesses(
            &corpus::mp_volatile(),
            Chip::Gtx540m,
            &Incantations::all_on(),
            30_000,
        );
        assert!(hits > 100, "mp-volatile must be weak on Fermi: {hits}");
    }

    #[test]
    fn spin_lock_kernel_terminates() {
        use weakgpu_litmus::build::*;
        use weakgpu_litmus::{LitmusTest, Predicate};
        // A thread spinning on a mutex that another thread releases.
        let test = LitmusTest::builder("spin")
            .global("m", 1)
            .global("x", 0)
            .thread([st("x", 1), exch("r0", "m", 0)])
            .thread([
                label("SPIN"),
                cas("r1", "m", 0, 1),
                setp_ne("p", reg("r1"), imm(0)),
                bra("SPIN").guarded("p", true),
                ld("r3", "x"),
            ])
            .scope(ThreadScope::InterCta)
            .exists(Predicate::reg_eq(1, "r1", 0).and(Predicate::reg_eq(1, "r3", 1)))
            .build()
            .unwrap();
        let hits = witnesses(&test, Chip::Gtx280, &Incantations::none(), 500);
        // Strong chip: the lock always works and x is always seen.
        assert_eq!(hits, 500);
    }

    #[test]
    fn run_batch_matches_repeated_run_once() {
        // The amortised batch path (one reused MachineState) must be
        // observationally identical to repeated fresh-state runs under
        // the same RNG stream.
        let test = corpus::mp(ThreadScope::InterCta, None);
        let sim = Simulator::compile(&test, Chip::GtxTitan).unwrap();
        let inc = Incantations::best_inter_cta();
        let weights = Chip::GtxTitan.profile().weights(&inc);
        let n = 2_000;

        let mut batch_rng = SmallRng::seed_from_u64(0xabcd);
        let mut state = sim.new_state();
        let mut counts = ObsCounts::new();
        sim.run_batch(
            n,
            &RunParams::new(&weights, inc.thread_rand),
            &mut batch_rng,
            &mut state,
            &mut counts,
        )
        .unwrap();
        let mut batch: std::collections::BTreeMap<Outcome, u64> = Default::default();
        for (obs, c) in counts.iter() {
            *batch.entry(sim.outcome_from_obs(obs)).or_insert(0) += c;
        }

        let mut naive_rng = SmallRng::seed_from_u64(0xabcd);
        let mut naive: std::collections::BTreeMap<Outcome, u64> = Default::default();
        for _ in 0..n {
            let outcome = sim
                .run_once_with_weights(&weights, inc.thread_rand, &mut naive_rng)
                .unwrap();
            *naive.entry(outcome).or_insert(0) += 1;
        }

        assert_eq!(counts.total(), n as u64);
        assert_eq!(batch, naive);
        // Multiple distinct outcomes, so the comparison is non-trivial.
        assert!(counts.distinct() > 1);
    }

    #[test]
    fn outcome_from_obs_round_trips() {
        let test = corpus::sb(ThreadScope::InterCta, None);
        let sim = Simulator::compile(&test, Chip::GtxTitan).unwrap();
        let params = RunParams::of(Chip::GtxTitan, &Incantations::all_on());
        let mut rng = SmallRng::seed_from_u64(7);
        let mut state = sim.new_state();
        sim.run_once_into(&params, &mut rng, &mut state).unwrap();
        // The materialised outcome binds exactly the observed expressions,
        // each to the value the state recorded for it.
        let outcome = sim.outcome_from_obs(state.observed());
        assert_eq!(outcome.len(), state.observed().len());
        for ((expr, _), v) in sim.program().observed.iter().zip(state.observed()) {
            assert_eq!(outcome.get(expr), Some(*v));
        }
    }

    #[test]
    fn wide_threads_check_their_operands_one_by_one() {
        use weakgpu_litmus::build::*;
        use weakgpu_litmus::{LitmusTest, Predicate};
        // 72 registers in thread 0: too many for exact read masks. After
        // the load into r70 issues, `mov r6` writes a register whose mask
        // bit r70 shares, and the add must still wait for the load.
        let mut t0: Vec<_> = (0..70).map(|i| mov(&format!("r{i}"), imm(i))).collect();
        t0.extend([
            ld("r70", "x"),
            mov("r6", imm(6)),
            add("r71", reg("r70"), reg("r6")),
            st_reg("y", "r71"),
        ]);
        let test = LitmusTest::builder("wide")
            .global("x", 0)
            .global("y", 0)
            .thread(t0)
            .thread([st("x", 1)])
            .scope(ThreadScope::InterCta)
            .exists(Predicate::mem_eq("y", 7))
            .build()
            .unwrap();
        let sim = Simulator::compile(&test, Chip::GtxTitan).unwrap();
        assert!(!sim.program().narrow);
        let mut state = sim.new_state();
        let mut counts = ObsCounts::new();
        let params = RunParams::of(Chip::GtxTitan, &Incantations::all_on());
        let mut rng = SmallRng::seed_from_u64(3);
        sim.run_batch(2_000, &params, &mut rng, &mut state, &mut counts)
            .unwrap();
        assert_eq!(counts.total(), 2_000);
        for (obs, _) in counts.iter() {
            assert!(matches!(obs, [6 | 7]), "y is the loaded x plus 6: {obs:?}");
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let test = corpus::mp(ThreadScope::InterCta, None);
        let a = witnesses(&test, Chip::GtxTitan, &Incantations::best_inter_cta(), 5000);
        let b = witnesses(&test, Chip::GtxTitan, &Incantations::best_inter_cta(), 5000);
        assert_eq!(a, b);
    }

    #[test]
    fn atomics_are_atomic() {
        use weakgpu_litmus::build::*;
        use weakgpu_litmus::{LitmusTest, Predicate};
        // Two increments on the same counter: the final value must be 2 on
        // every chip (atomics RMW the point of coherence in one step).
        let test = LitmusTest::builder("inc2")
            .global("c", 0)
            .thread([inc("r0", "c")])
            .thread([inc("r0", "c")])
            .scope(ThreadScope::InterCta)
            .exists(Predicate::mem_eq("c", 2))
            .build()
            .unwrap();
        for chip in [Chip::GtxTitan, Chip::RadeonHd7970] {
            let hits = witnesses(&test, chip, &Incantations::all_on(), 2000);
            assert_eq!(hits, 2000, "lost increment on {chip}");
        }
    }
}
