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
//! A paper-family run is about 7 scheduler steps, so its fixed costs
//! matter as much as its steps, and everything that does not change
//! between runs is computed once:
//!
//! * **per test**, by [`SimProgram::compile`]: the memory image a run
//!   starts from (in the L2 and, when the test has shared locations, in
//!   each CTA's shared memory), whether the test has a `.ca` load, the
//!   global locations L1 preload draws for, the registers each
//!   instruction reads as a bit mask, the owning CTA of each shared
//!   location, and the test's [`ObsLayout`](weakgpu_litmus::ObsLayout)
//!   with the register or location each observed value is read from;
//! * **per chip and incantations**, by [`RunParams::new`]: the bypass
//!   probability of every pair of pending-op classes, so choosing which
//!   op performs is a table lookup and a same-location test per pair.
//!   Each op is classified once, when it issues, by kind, region, cache
//!   operator and fence leak.
//!
//! A run then resets its [`MachineState`] by copying the image and the
//! register inits. An instruction is ready to issue when its read
//! mask misses the thread's mask of awaited registers. Each thread keeps
//! its pending ops in an inline window of 8 slots, oldest first, and a
//! run records its observation vector into an [`ObsCounts`] by a linear
//! probe over the few distinct vectors seen so far. None of it allocates
//! once the state and the counts are warm.
//!
//! Only a `.ca` load reads an L1 line, so a test without one (every
//! generated test, and all hand-written ones but the `mp-L1` and
//! `coRR-L2-L1` families) keeps no L1 model: its state has no SM
//! placement and no L1 plane, a reset draws no SM and no preload, a
//! store marks no line stale, a `.cg` load evicts nothing and draws no
//! keep-stale, and a fence invalidates nothing. A test with a `.ca` load
//! keeps the model, and its runs are bit-identical to those of the
//! simulator that kept the model in every run.
//!
//! Steps are spent only while two or more threads run. Once one thread
//! is left and it is *order-free* (no backward branch, no `.ca` load, no
//! register written both by a load or RMW and by another instruction), no
//! order in which its pending ops could perform changes the outcome: the
//! run performs its window oldest first and then its remaining
//! instructions in program order, drawing no random numbers. That tail
//! was 56 % of the steps of the paper family (16.2 steps per run before,
//! 7.2 after, on 5 Nvidia chips × 40 iterations).
//!
//! # What a run draws
//!
//! Every random decision of a run goes through one [`Chooser`] and is
//! named by a [`Draw`]. The sampler's chooser is a [`SmallRng`], drawn
//! in the order a run meets the decisions:
//!
//! * [`Draw::SmPlacement`]: at reset, under thread randomisation, the SM
//!   hosting each CTA;
//! * [`Draw::Preload`]: at reset, whether each CTA's L1 starts out
//!   holding each global location;
//! * [`Draw::Thread`]: each step, which unfinished thread acts;
//! * [`Draw::Issue`]: whether a thread that could both issue and perform
//!   issues (p = 0.8);
//! * [`Draw::FenceLeak`]: whether a cta-scope fence of a test spanning
//!   CTAs leaks as it issues;
//! * [`Draw::Bypass`]: for each younger pending op in turn, whether it
//!   performs ahead of all older ones;
//! * [`Draw::Delay`]: for how many of the thread's perform attempts
//!   (24 to 64) the bypassed ops are held back;
//! * [`Draw::KeepStale`]: whether a `.cg` load leaves a stale L1 line in
//!   place (Fig. 4).

use std::fmt;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;
use weakgpu_litmus::{CacheOp, FenceScope, LitmusTest, Outcome, Region};

use crate::chip::{Chip, Incantations, Weights};
use crate::program::{reg_bit, CompileError, ObsTarget, SimOp, SimOperand, SimProgram, SimValue};

/// Maximum scheduler steps per run, against runaway spin loops. A lone
/// order-free thread finishes without steps; it has no loop to run away.
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

/// One kind of random decision of a run (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Draw {
    SmPlacement,
    Preload,
    Thread,
    Issue,
    FenceLeak,
    Bypass,
    Delay,
    KeepStale,
}

/// The source of every random decision of a run.
pub trait Chooser {
    /// A uniform draw from `0..n`.
    fn pick(&mut self, draw: Draw, n: usize) -> usize;
    /// `true` with probability `p`.
    fn flip(&mut self, draw: Draw, p: f64) -> bool;
}

impl Chooser for SmallRng {
    #[inline(always)]
    fn pick(&mut self, _: Draw, n: usize) -> usize {
        self.random_range(0..n)
    }
    #[inline(always)]
    fn flip(&mut self, _: Draw, p: f64) -> bool {
        self.random_bool(p)
    }
}

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
fn class_bypass(earlier: u8, later: u8, same_loc: bool, w: &Weights) -> Option<f64> {
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
/// weights, whether thread placement is randomised (which only a state
/// that keeps the L1 model sees), and the bypass
/// probability of every pair of pending-op classes, derived from the
/// weights once instead of once per pair and step.
#[derive(Clone, Debug)]
pub struct RunParams {
    w: Weights,
    thread_rand: bool,
    /// `bypass[same_loc][earlier][later]`: [`class_bypass`], with 0 for
    /// never (every allowed bypass has a positive probability).
    bypass: [[[f64; CLASSES]; CLASSES]; 2],
}

impl RunParams {
    /// The parameters of runs under weights `w`, with thread placement
    /// randomised when `thread_rand` is set.
    pub fn new(w: &Weights, thread_rand: bool) -> Self {
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
    /// Written around since it was filled: a `.ca` load still reads it,
    /// and a `.cg` load evicts it unless the keep-stale quirk fires.
    stale: bool,
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
    /// SM hosting each CTA this run; empty, like `l1_row` and `l1`, when
    /// the program has no `.ca` load ([`SimProgram`]'s `l1_live`).
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
    /// Observed values of the last completed run: its observation vector,
    /// in the order of the program's layout.
    obs: Vec<i64>,
}

impl MachineState {
    /// The observation vector of the last completed run: one value per
    /// expression of [`SimProgram::layout`], in its order. Judge it and
    /// convert it to an [`Outcome`] with that layout.
    pub fn observed(&self) -> &[i64] {
        &self.obs
    }
}

/// An indexed outcome collector: counts distinct observation vectors
/// (`MachineState::observed`) without materialising an [`Outcome`] — and
/// its per-expression `FinalExpr` clones — per iteration. Convert each
/// distinct vector once at the end with the program's
/// [`ObsLayout::outcome`](weakgpu_litmus::ObsLayout::outcome).
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
    /// Allocates a fresh [`MachineState`] and [`RunParams`] per call; hot
    /// loops should hold both and use [`Simulator::run_batch`] (or
    /// [`Simulator::run_once_into`]) instead.
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn run_once(&self, inc: &Incantations, rng: &mut SmallRng) -> Result<Outcome, RunError> {
        let mut state = self.new_state();
        self.run_once_into(&RunParams::of(self.chip, inc), rng, &mut state)?;
        Ok(self.program.layout.outcome(state.observed()))
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
        let l1_ctas = if p.l1_live { p.num_ctas } else { 0 };
        st.sm_of_cta.resize(l1_ctas, 0);
        st.l1_row.resize(l1_ctas, 0);
        st.l2.resize(p.mem_init.len(), 0);
        st.shared.resize(
            if p.has_shared {
                p.num_ctas * st.nlocs
            } else {
                0
            },
            0,
        );
        st.l1.resize(l1_ctas * st.nlocs, None);
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

    /// Resets a fitted `st` to a fresh run: memory images, SM placement,
    /// L1 preload and thread contexts. The images are copied from the
    /// program; only a program with a `.ca` load draws, for the L1 model.
    fn reset<C: Chooser>(&self, params: &RunParams, rng: &mut C, st: &mut MachineState) {
        let p = &self.program;
        let nlocs = st.nlocs;

        st.l2.copy_from_slice(&p.mem_init);
        if p.has_shared {
            for image in st.shared.chunks_exact_mut(nlocs) {
                image.copy_from_slice(&p.mem_init);
            }
        }

        if p.l1_live {
            // SM placement: one SM per CTA by default; thread
            // randomisation scatters CTAs over the chip (they may then
            // collide on an SM, sharing an L1 — which suppresses
            // stale-line effects, as on hardware). A CTA uses the L1 row
            // of the lowest CTA on its SM.
            for c in 0..p.num_ctas {
                let sm = if params.thread_rand {
                    rng.pick(Draw::SmPlacement, self.num_sms)
                } else {
                    c % self.num_sms
                };
                st.sm_of_cta[c] = sm;
                st.l1_row[c] = st.sm_of_cta[..c].iter().position(|&s| s == sm).unwrap_or(c);
            }
            st.l1.fill(None);
            let preload = params.w.l1_preload;
            if preload > 0.0 {
                for &row in &st.l1_row {
                    for &l in &p.global_locs {
                        if rng.flip(Draw::Preload, preload) {
                            st.l1[row * nlocs + l as usize] = Some(L1Line {
                                value: p.mem_init[l as usize],
                                stale: false,
                            });
                        }
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
    /// values in [`MachineState::observed`]. Once one unfinished thread is
    /// left and it is order-free, the run finishes it in program order
    /// (see the module docs).
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn run_once_into<C: Chooser>(
        &self,
        params: &RunParams,
        rng: &mut C,
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
        while let Some(&first) = st.active.first() {
            if st.active.len() == 1 && p.order_free[first] {
                self.finish_in_order(first, st)?;
                break;
            }
            steps += 1;
            if steps > MAX_STEPS {
                return Err(RunError::StepLimit);
            }
            let a = rng.pick(Draw::Thread, st.active.len());
            let t = st.active[a];
            let (can_issue, stalled) = self.issue_status(t, &st.threads[t]);
            let can_perform = !st.threads[t].queue.is_empty();
            let do_issue = match (can_issue, can_perform) {
                // Favour issuing: real front-ends run ahead of the memory
                // system, which is what fills the window with reorderable
                // work.
                (true, true) => rng.flip(Draw::Issue, 0.8),
                (true, false) => true,
                (false, true) => false,
                (false, false) => {
                    debug_assert!(!stalled, "stalled thread with empty queue");
                    continue;
                }
            };
            if do_issue {
                self.issue(t, &mut st.threads[t], &params.w, rng)?;
            } else {
                self.perform(t, st, params, rng);
            }
            if st.threads[t].done(p.threads[t].len()) {
                st.active.remove(a);
            }
        }

        // Collect the observed values.
        for (target, v) in p.observed.iter().zip(&mut st.obs) {
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
    pub fn run_batch<C: Chooser>(
        &self,
        n: usize,
        params: &RunParams,
        rng: &mut C,
        st: &mut MachineState,
        counts: &mut ObsCounts,
    ) -> Result<(), RunError> {
        for _ in 0..n {
            self.run_once_into(params, rng, st)?;
            counts.record(&st.obs);
        }
        Ok(())
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

    /// Executes thread `t`'s instruction at its pc up to its issue:
    /// checks the guard, applies a register op or a branch, advances the
    /// pc, and returns the memory op the instruction issues, if any, with
    /// its store value or RMW operands captured (a fence as solid; whether
    /// it leaks is drawn at issue).
    #[inline(always)]
    fn advance(&self, t: usize, ctx: &mut ThreadCtx) -> Result<Option<Pending>, RunError> {
        let instr = self.program.threads[t][ctx.pc];

        // Guard check (operands already known ready).
        if let Some((p, expect)) = instr.guard {
            let truth = matches!(ctx.regs[p as usize], Some(SimValue::Int(n)) if n != 0);
            if truth != expect {
                ctx.pc += 1;
                return Ok(None);
            }
        }

        let op = match instr.op {
            SimOp::Nop => None,
            SimOp::Bra(target) => {
                ctx.pc = target as usize;
                return Ok(None);
            }
            SimOp::Mov { dst, src } | SimOp::Cvt { dst, src } => {
                let v = self.eval(src, ctx);
                ctx.set(dst, v);
                None
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
                None
            }
            SimOp::And { dst, a, b } => {
                let v = self.eval_int(a, ctx) & self.eval_int(b, ctx);
                ctx.set(dst, SimValue::Int(v));
                None
            }
            SimOp::Xor { dst, a, b } => {
                let v = self.eval_int(a, ctx) ^ self.eval_int(b, ctx);
                ctx.set(dst, SimValue::Int(v));
                None
            }
            SimOp::SetpEq { dst, a, b } => {
                let v = (self.eval(a, ctx) == self.eval(b, ctx)) as i64;
                ctx.set(dst, SimValue::Int(v));
                None
            }
            SimOp::SetpNe { dst, a, b } => {
                let v = (self.eval(a, ctx) != self.eval(b, ctx)) as i64;
                ctx.set(dst, SimValue::Int(v));
                None
            }
            SimOp::Membar(scope) => Some(Pending::Fence {
                scope,
                leaked: false,
            }),
            SimOp::Ld {
                dst, addr, cache, ..
            } => Some(Pending::Load {
                loc: self.resolve_loc(addr, ctx, t)?,
                dst,
                cache,
            }),
            SimOp::St { addr, src, .. } => Some(Pending::Store {
                loc: self.resolve_loc(addr, ctx, t)?,
                value: self.eval_int(src, ctx),
            }),
            SimOp::Cas {
                dst,
                addr,
                expected,
                desired,
            } => Some(Pending::Rmw {
                loc: self.resolve_loc(addr, ctx, t)?,
                dst,
                rmw: RmwOp::Cas {
                    expected: self.eval_int(expected, ctx),
                    desired: self.eval_int(desired, ctx),
                },
            }),
            SimOp::Exch { dst, addr, src } => Some(Pending::Rmw {
                loc: self.resolve_loc(addr, ctx, t)?,
                dst,
                rmw: RmwOp::Exch(self.eval_int(src, ctx)),
            }),
            SimOp::Inc { dst, addr } => Some(Pending::Rmw {
                loc: self.resolve_loc(addr, ctx, t)?,
                dst,
                rmw: RmwOp::Inc,
            }),
        };
        ctx.pc += 1;
        Ok(op)
    }

    /// Issues thread `t`'s next instruction: [`Simulator::advance`], then
    /// the memory op it issues joins the window, its destination register
    /// awaiting it.
    fn issue<C: Chooser>(
        &self,
        t: usize,
        ctx: &mut ThreadCtx,
        w: &Weights,
        rng: &mut C,
    ) -> Result<(), RunError> {
        let Some(op) = self.advance(t, ctx)? else {
            return Ok(());
        };
        let slot = match op {
            Pending::Fence { scope, .. } => {
                let leaked = scope == FenceScope::Cta
                    && self.program.spans_ctas
                    && w.cta_fence_leak > 0.0
                    && rng.flip(Draw::FenceLeak, w.cta_fence_leak);
                Slot {
                    op: Pending::Fence { scope, leaked },
                    loc: NO_LOC,
                    class: if leaked { LEAKED_FENCE } else { SOLID_FENCE },
                    delay: 0,
                }
            }
            Pending::Store { loc, .. } => self.access(op, loc, STORE),
            Pending::Load { loc, dst, cache } => {
                ctx.owe(dst);
                let kind = match cache {
                    CacheOp::Ca => LOAD_CA,
                    CacheOp::Cg => LOAD_CG,
                };
                self.access(op, loc, kind)
            }
            Pending::Rmw { loc, dst, .. } => {
                ctx.owe(dst);
                self.access(op, loc, RMW)
            }
        };
        ctx.queue.push(slot);
        Ok(())
    }

    fn perform<C: Chooser>(
        &self,
        t: usize,
        st: &mut MachineState,
        params: &RunParams,
        rng: &mut C,
    ) {
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
                if ok && p > 0.0 && rng.flip(Draw::Bypass, p.min(1.0)) {
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
            let extra = 24 + rng.pick(Draw::Delay, 41) as u8;
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
        let l1 = self.program.l1_live.then_some((&params.w, rng));
        self.apply(t, st, op, forward, l1);
    }

    /// Performs thread `t`'s pending `op`: its effect on memory and on the
    /// register it writes. A load reads `forward` when given, the value of
    /// the newest earlier same-location store it bypassed. `l1` holds the
    /// weights and chooser that maintain the L1 model; without it (a
    /// program without a `.ca` load, or the in-order finish of an
    /// order-free thread, which has none) loads read the point of
    /// coherence and fences leave the L1 as it is.
    ///
    /// This, [`Simulator::advance`] and the memory helpers are inlined
    /// into the sampler and the in-order finish alike, so sharing them
    /// costs no call per op (calls cost ~10 % of the run loop).
    #[inline(always)]
    fn apply<C: Chooser>(
        &self,
        t: usize,
        st: &mut MachineState,
        op: Pending,
        forward: Option<i64>,
        l1: Option<(&Weights, &mut C)>,
    ) {
        let cta = self.program.thread_cta[t];
        match op {
            Pending::Fence { scope, leaked } => {
                let Some((w, _)) = l1 else { return };
                if !leaked && w.l1_invalidate_scope.is_some_and(|min| scope.at_least(min)) {
                    let (row, nlocs) = (st.l1_row[cta], st.nlocs);
                    st.l1[row * nlocs..(row + 1) * nlocs].fill(None);
                }
            }
            Pending::Store { loc, value } => self.write(st, cta, loc, value),
            Pending::Load { loc, dst, cache } => {
                let v = match forward {
                    Some(v) => v,
                    None => self.read(st, cta, loc, cache, l1),
                };
                st.threads[t].set(dst, SimValue::Int(v));
            }
            Pending::Rmw { loc, dst, rmw } => {
                let old = self.coherent(st, cta, loc);
                let new = match rmw {
                    RmwOp::Cas { expected, desired } => (old == expected).then_some(desired),
                    RmwOp::Exch(v) => Some(v),
                    RmwOp::Inc => Some(old.wrapping_add(1)),
                };
                if let Some(n) = new {
                    // Atomics act at the point of coherence.
                    self.write(st, cta, loc, n);
                }
                st.threads[t].set(dst, SimValue::Int(old));
            }
        }
    }

    /// The value of `loc` at its point of coherence for CTA `cta`: the
    /// CTA's shared memory or the L2.
    #[inline(always)]
    fn coherent(&self, st: &MachineState, cta: usize, loc: u32) -> i64 {
        let li = loc as usize;
        match self.program.locs[li].region {
            Region::Shared => st.shared[cta * st.nlocs + li],
            Region::Global => st.l2[li],
        }
    }

    /// Writes `value` to `loc` at its point of coherence for CTA `cta`.
    #[inline(always)]
    fn write(&self, st: &mut MachineState, cta: usize, loc: u32, value: i64) {
        let (li, nlocs) = (loc as usize, st.nlocs);
        match self.program.locs[li].region {
            Region::Shared => st.shared[cta * nlocs + li] = value,
            Region::Global => {
                st.l2[li] = value;
                // Fermi-style write-around: writes bypass the L1, leaving
                // any present line — including the issuing SM's own —
                // stale.
                if self.program.l1_live {
                    for sml1 in st.l1.chunks_mut(nlocs) {
                        if let Some(line) = &mut sml1[li] {
                            line.stale = true;
                        }
                    }
                }
            }
        }
    }

    /// The value a load of `loc` with cache operator `cache` reads from
    /// memory for CTA `cta`, maintaining the CTA's L1 line when `l1` is
    /// given (see [`Simulator::apply`]).
    #[inline(always)]
    fn read<C: Chooser>(
        &self,
        st: &mut MachineState,
        cta: usize,
        loc: u32,
        cache: CacheOp,
        l1: Option<(&Weights, &mut C)>,
    ) -> i64 {
        let v = self.coherent(st, cta, loc);
        let Some((w, rng)) = l1 else {
            debug_assert_eq!(cache, CacheOp::Cg, "a .ca load needs the L1 model");
            return v;
        };
        if self.program.locs[loc as usize].region == Region::Shared {
            return v;
        }
        let line = &mut st.l1[st.l1_row[cta] * st.nlocs + loc as usize];
        match cache {
            CacheOp::Cg => {
                // `.cg` evicts a matching L1 line — except with the
                // keep-stale quirk, which leaves a stale line behind
                // (Fig. 4).
                if let Some(held) = *line {
                    *line = (held.stale
                        && w.keep_stale_after_cg > 0.0
                        && rng.flip(Draw::KeepStale, w.keep_stale_after_cg))
                    .then_some(held);
                }
                v
            }
            // `.ca` reads the line it finds, stale or not.
            CacheOp::Ca => match *line {
                Some(held) => held.value,
                None => {
                    *line = Some(L1Line {
                        value: v,
                        stale: false,
                    });
                    v
                }
            },
        }
    }

    /// Finishes thread `t`, the only unfinished one, in program order:
    /// performs its pending window oldest first, then runs each remaining
    /// instruction to completion in turn. Draws no random numbers and
    /// takes no scheduler steps.
    ///
    /// When `t` is order-free ([`SimProgram::order_free`]), every
    /// continuation the sampler could take gives this outcome:
    ///
    /// * the other threads are done, so they have no pending ops and
    ///   write nothing more;
    /// * same-location write→write, read→write and anything through an
    ///   RMW never reorder, so each location's writes land in program
    ///   order and every read or RMW sees the writes program order puts
    ///   before it;
    /// * a load that bypasses an earlier same-location store is forwarded
    ///   the newest such store's value, which is the value it reads in
    ///   order;
    /// * different-location pairs do not interact;
    /// * store values and CAS operands are captured at issue, and with no
    ///   register written both at perform time and by another instruction,
    ///   every register an instruction reads at issue holds its
    ///   program-order value;
    /// * without `.ca` loads the L1 is dead state, so it is not
    ///   maintained, and without backward branches the thread cannot spin,
    ///   so the step bound never applies.
    fn finish_in_order(&self, t: usize, st: &mut MachineState) -> Result<(), RunError> {
        for i in 0..st.threads[t].queue.len() {
            let op = st.threads[t].queue.slots[i].op;
            self.apply(t, st, op, None, None::<(_, &mut SmallRng)>);
        }
        st.threads[t].queue.len = 0;
        while st.threads[t].pc < self.program.threads[t].len() {
            if let Some(op) = self.advance(t, &mut st.threads[t])? {
                self.apply(t, st, op, None, None::<(_, &mut SmallRng)>);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::ops::Range;
    use weakgpu_litmus::{corpus, Instr, ThreadScope};

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
            .filter(|(obs, _)| sim.program().layout.witnessed_by(obs))
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
        let n = 2_000;

        let mut batch_rng = SmallRng::seed_from_u64(0xabcd);
        let mut state = sim.new_state();
        let mut counts = ObsCounts::new();
        sim.run_batch(
            n,
            &RunParams::of(Chip::GtxTitan, &inc),
            &mut batch_rng,
            &mut state,
            &mut counts,
        )
        .unwrap();
        let mut batch: std::collections::BTreeMap<Outcome, u64> = Default::default();
        for (obs, c) in counts.iter() {
            *batch.entry(sim.program().layout.outcome(obs)).or_insert(0) += c;
        }

        let mut naive_rng = SmallRng::seed_from_u64(0xabcd);
        let mut naive: std::collections::BTreeMap<Outcome, u64> = Default::default();
        for _ in 0..n {
            let outcome = sim.run_once(&inc, &mut naive_rng).unwrap();
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
        let layout = &sim.program().layout;
        let outcome = layout.outcome(state.observed());
        assert_eq!(outcome.len(), state.observed().len());
        for (expr, v) in layout.exprs().iter().zip(state.observed()) {
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

    /// The draws that maintain the L1 model.
    const L1_DRAWS: [Draw; 3] = [Draw::SmPlacement, Draw::Preload, Draw::KeepStale];

    /// A chooser over `SmallRng` that counts its draws of each kind and,
    /// given an `l1` stream, takes the L1 model's draws from it.
    struct Tally {
        rng: SmallRng,
        l1: Option<SmallRng>,
        drawn: [u64; 8],
    }

    impl Tally {
        fn new(seed: u64) -> Self {
            Tally {
                rng: SmallRng::seed_from_u64(seed),
                l1: None,
                drawn: [0; 8],
            }
        }

        /// Draws made for the L1 model.
        fn l1_draws(&self) -> u64 {
            L1_DRAWS.iter().map(|&d| self.drawn[d as usize]).sum()
        }

        fn stream(&mut self, draw: Draw) -> &mut SmallRng {
            self.drawn[draw as usize] += 1;
            match &mut self.l1 {
                Some(l1) if L1_DRAWS.contains(&draw) => l1,
                _ => &mut self.rng,
            }
        }
    }

    impl Chooser for Tally {
        fn pick(&mut self, draw: Draw, n: usize) -> usize {
            self.stream(draw).pick(draw, n)
        }

        fn flip(&mut self, draw: Draw, p: f64) -> bool {
            self.stream(draw).flip(draw, p)
        }
    }

    /// `sim` with its program changed by `edit`.
    fn variant(sim: &Simulator, edit: impl FnOnce(&mut SimProgram)) -> Simulator {
        let mut program = sim.program().clone();
        edit(&mut program);
        Simulator::from_program(Arc::new(program), sim.chip())
    }

    /// The runs of `sim` under `params`, one per seed in `seeds`, that end
    /// differently with the in-order finish of a lone order-free thread
    /// than with the sampler run to the end, as a copy of the program with
    /// no order-free thread runs. Each pair of runs starts from the same
    /// RNG state.
    fn differing_runs(sim: &Simulator, params: &RunParams, seeds: Range<u64>) -> usize {
        let oracle = variant(sim, |p| p.order_free.fill(false));
        let (mut fast, mut full) = (sim.new_state(), oracle.new_state());
        seeds
            .filter(|&seed| {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut oracle_rng = rng.clone();
                let a = sim.run_once_into(params, &mut rng, &mut fast);
                let b = oracle.run_once_into(params, &mut oracle_rng, &mut full);
                a != b || (a.is_ok() && fast.observed() != full.observed())
            })
            .count()
    }

    /// The incantation columns the exactness tests cover.
    fn incantation_columns() -> [Incantations; 3] {
        [
            Incantations::none(),
            Incantations::all_on(),
            Incantations::best_inter_cta(),
        ]
    }

    /// The runs of `sim` under `params`, one per seed in `seeds`, that end
    /// differently without the L1 model, as a program without a `.ca` load
    /// runs, than with the full model, as a copy of the program marked
    /// `l1_live` runs, its draws for the model taken from a second,
    /// independent stream. Each pair of runs takes its other draws from
    /// the same stream. Also returns how many full-model runs drew for the
    /// model, so a caller can tell that the model was exercised.
    fn l1_differing_runs(sim: &Simulator, params: &RunParams, seeds: Range<u64>) -> (usize, u64) {
        assert!(
            !sim.program().l1_live,
            "the oracle is for tests without .ca"
        );
        let oracle = variant(sim, |p| p.l1_live = true);
        let (mut lean, mut full) = (sim.new_state(), oracle.new_state());
        let mut drew = 0;
        let differing = seeds
            .filter(|&seed| {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut oracle_rng = Tally::new(seed);
                oracle_rng.l1 = Some(SmallRng::seed_from_u64(!seed));
                let a = sim.run_once_into(params, &mut rng, &mut lean);
                let b = oracle.run_once_into(params, &mut oracle_rng, &mut full);
                drew += u64::from(oracle_rng.l1_draws() > 0);
                a != b || (a.is_ok() && lean.observed() != full.observed())
            })
            .count();
        (differing, drew)
    }

    /// Checks every test of `tests` on every chip and incantation column,
    /// `runs` run pairs each, by the oracle `differing` (the number of
    /// differing runs of a simulator under parameters over seeds). Returns
    /// how many run pairs were compared.
    fn assert_exact(
        tests: &[LitmusTest],
        runs: u64,
        mut differing: impl FnMut(&Simulator, &RunParams, Range<u64>) -> usize,
    ) -> u64 {
        let mut compared = 0;
        for (i, test) in tests.iter().enumerate() {
            let program = Arc::new(SimProgram::compile(test).unwrap());
            for chip in Chip::ALL {
                let sim = Simulator::from_program(Arc::clone(&program), chip);
                for inc in incantation_columns() {
                    let seeds = (i as u64) << 32..((i as u64) << 32) + runs;
                    let n = differing(&sim, &RunParams::of(chip, &inc), seeds);
                    assert_eq!(n, 0, "{} on {chip} under {inc:?}", test.name());
                    compared += runs;
                }
            }
        }
        compared
    }

    /// [`assert_exact`] by the dead-L1 oracle, on every test of `tests`
    /// without a `.ca` load. Returns the run pairs compared and how many
    /// of the full-model runs drew from the L1 stream.
    fn assert_l1_dead(tests: &[LitmusTest], runs: u64) -> (u64, u64) {
        let l1_free: Vec<LitmusTest> = tests
            .iter()
            .filter(|t| !SimProgram::compile(t).unwrap().l1_live)
            .cloned()
            .collect();
        let mut drew = 0;
        let compared = assert_exact(&l1_free, runs, |sim, params, seeds| {
            let (differing, d) = l1_differing_runs(sim, params, seeds);
            drew += d;
            differing
        });
        (compared, drew)
    }

    /// Run pairs per test, chip and incantation column: a release build
    /// (`cargo test --release -p weakgpu-sim`) runs fifteen times as many
    /// as a debug one.
    const PAIRS: u64 = if cfg!(debug_assertions) { 40 } else { 600 };

    /// The hand-written tests and the small family.
    fn corpus_and_small_family() -> Vec<LitmusTest> {
        let mut tests = corpus::all();
        tests.extend(weakgpu_litmus::corpus_extra::all_extra());
        tests.extend(weakgpu_diy::generate(&weakgpu_diy::GenConfig::small()));
        tests
    }

    /// Every 97th test of the paper family.
    fn paper_sample() -> Vec<LitmusTest> {
        let family = weakgpu_diy::generate(&weakgpu_diy::GenConfig::paper());
        family.into_iter().step_by(97).collect()
    }

    #[test]
    fn lone_thread_finish_is_exact_on_the_corpus() {
        assert!(assert_exact(&corpus_and_small_family(), PAIRS, differing_runs) > 0);
    }

    #[test]
    fn lone_thread_finish_is_exact_on_a_paper_sample() {
        assert!(assert_exact(&paper_sample(), PAIRS, differing_runs) > 0);
    }

    #[test]
    fn dead_l1_is_exact_on_the_corpus() {
        let (compared, drew) = assert_l1_dead(&corpus_and_small_family(), PAIRS);
        assert!(compared > 0 && drew > 0, "{compared} pairs, {drew} drew");
    }

    #[test]
    fn dead_l1_is_exact_on_a_paper_sample() {
        let (compared, drew) = assert_l1_dead(&paper_sample(), PAIRS);
        assert!(compared > 0 && drew > 0, "{compared} pairs, {drew} drew");
    }

    #[test]
    fn only_the_l1_tests_keep_the_l1_model() {
        // The Figs. 3–4 tests are the only hand-written ones with a `.ca`
        // load; every other test runs without the L1 model and draws
        // nothing for it on any chip or incantation column.
        let mut live = 0;
        for test in corpus_and_small_family() {
            let l1_test = test.name().starts_with("mp-L1") || test.name().starts_with("coRR-L2-L1");
            let program = Arc::new(SimProgram::compile(&test).unwrap());
            assert_eq!(program.l1_live, l1_test, "{}", test.name());
            live += usize::from(l1_test);
            let mut l1_draws = 0;
            for chip in Chip::ALL {
                let sim = Simulator::from_program(Arc::clone(&program), chip);
                let mut st = sim.new_state();
                assert_eq!(st.l1.is_empty(), !l1_test, "{}", test.name());
                for inc in incantation_columns() {
                    let (params, mut tally) = (RunParams::of(chip, &inc), Tally::new(5));
                    for _ in 0..PAIRS {
                        sim.run_once_into(&params, &mut tally, &mut st).unwrap();
                    }
                    let (name, drawn) = (test.name(), tally.drawn);
                    assert!(
                        l1_test || tally.l1_draws() == 0,
                        "{name} on {chip} under {inc:?}: {drawn:?}"
                    );
                    l1_draws += tally.l1_draws();
                }
            }
            assert_eq!(l1_draws > 0, l1_test, "{}", test.name());
        }
        assert_eq!(live, 8);
    }

    #[test]
    fn the_corpus_idioms_have_order_free_threads() {
        // The finish must engage on the paper's idioms, or it saves
        // nothing.
        for test in [
            corpus::mp(ThreadScope::InterCta, None),
            corpus::sb(ThreadScope::InterCta, Some(weakgpu_litmus::FenceScope::Gl)),
            corpus::lb(ThreadScope::InterCta, None),
            corpus::cas_sl(true),
        ] {
            let p = SimProgram::compile(&test).unwrap();
            assert!(p.order_free.iter().all(|&f| f), "{}", test.name());
        }
    }

    #[test]
    fn a_lone_order_free_thread_draws_nothing() {
        use weakgpu_litmus::build::*;
        use weakgpu_litmus::{LitmusTest, Predicate};
        let test = LitmusTest::builder("alone")
            .global("x", 0)
            .global("y", 0)
            .thread([st("x", 1), ld("r0", "y"), st("y", 2), ld("r1", "x")])
            .scope(ThreadScope::InterCta)
            .exists(Predicate::reg_eq(0, "r0", 0).and(Predicate::reg_eq(0, "r1", 1)))
            .build()
            .unwrap();
        let sim = Simulator::compile(&test, Chip::GtxTitan).unwrap();
        let params = RunParams::of(Chip::GtxTitan, &Incantations::all_on());
        let mut st = sim.new_state();
        let mut tally = Tally::new(9);
        sim.run_once_into(&params, &mut tally, &mut st).unwrap();
        assert_eq!(st.observed(), [0, 1]);
        assert_eq!(tally.drawn, [0; 8]);
    }

    /// `ld r1,[x]; mov r1,2` beside a thread storing 1 to `x`.
    fn load_then_mov() -> LitmusTest {
        use weakgpu_litmus::build::*;
        use weakgpu_litmus::{LitmusTest, Predicate};
        LitmusTest::builder("ld-mov")
            .global("x", 0)
            .thread([ld("r1", "x"), mov("r1", imm(2))])
            .thread([st("x", 1)])
            .scope(ThreadScope::InterCta)
            .exists(Predicate::reg_eq(0, "r1", 2))
            .build()
            .unwrap()
    }

    #[test]
    fn a_register_written_at_perform_and_at_issue_is_not_order_free() {
        // The `mov` may issue before the load performs, so when the load
        // performs last `r1` keeps the loaded value even with the thread
        // alone.
        let sim = Simulator::compile(&load_then_mov(), Chip::GtxTitan).unwrap();
        assert_eq!(sim.program().order_free, [false, true]);
        let params = RunParams::of(Chip::GtxTitan, &Incantations::all_on());
        assert_eq!(differing_runs(&sim, &params, 0..20_000), 0);
        // Both orders occur, so the test would catch a finish that forced
        // program order on the load thread.
        let mut rng = SmallRng::seed_from_u64(1);
        let (mut st, mut counts) = (sim.new_state(), ObsCounts::new());
        sim.run_batch(20_000, &params, &mut rng, &mut st, &mut counts)
            .unwrap();
        let twos = counts
            .iter()
            .find(|(obs, _)| obs == &[2])
            .map_or(0, |c| c.1);
        assert!(twos > 1_000 && counts.total() - twos > 1_000, "{counts:?}");
    }

    #[test]
    fn a_ca_reader_is_not_order_free() {
        use weakgpu_litmus::build::*;
        use weakgpu_litmus::{LitmusTest, Predicate};
        // The Fig. 4 keep-stale quirk: a `.ca` load after a `.cg` one may
        // still read a stale line, so the L1 is live state.
        let test = LitmusTest::builder("ca-reader")
            .global("x", 0)
            .thread([ld_ca("r0", "x"), ld("r1", "x"), ld_ca("r2", "x")])
            .thread([st("x", 1)])
            .scope(ThreadScope::InterCta)
            .exists(Predicate::reg_eq(0, "r1", 1).and(Predicate::reg_eq(0, "r2", 0)))
            .build()
            .unwrap();
        let sim = Simulator::compile(&test, Chip::TeslaC2075).unwrap();
        assert_eq!(sim.program().order_free, [false, true]);
        for inc in incantation_columns() {
            let params = RunParams::of(Chip::TeslaC2075, &inc);
            assert_eq!(differing_runs(&sim, &params, 0..5_000), 0);
        }
    }

    #[test]
    fn a_spin_loop_is_not_order_free() {
        use weakgpu_litmus::build::*;
        use weakgpu_litmus::{LitmusTest, Predicate};
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
            .exists(Predicate::reg_eq(1, "r3", 1))
            .build()
            .unwrap();
        let sim = Simulator::compile(&test, Chip::GtxTitan).unwrap();
        assert_eq!(sim.program().order_free, [true, false]);
        let params = RunParams::of(Chip::GtxTitan, &Incantations::all_on());
        assert_eq!(differing_runs(&sim, &params, 0..2_000), 0);

        // Alone on a lock nobody frees, the spinning thread still meets
        // the step bound.
        let stuck = LitmusTest::builder("stuck")
            .global("m", 1)
            .thread(test.threads()[1].clone())
            .global("x", 0)
            .scope(ThreadScope::IntraCta)
            .exists(Predicate::reg_eq(0, "r3", 1))
            .build()
            .unwrap();
        let sim = Simulator::compile(&stuck, Chip::GtxTitan).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut st = sim.new_state();
        let run = sim.run_once_into(&params, &mut rng, &mut st);
        assert_eq!(run, Err(RunError::StepLimit));
    }

    /// One random instruction over locations `x`, `y` and the registers
    /// `r0`, `r1`, so that registers get reused; `None` is a guarded
    /// forward branch to the end of the thread. Without `ca`, loads that
    /// would be `.ca` are `.cg`.
    fn arb_instr(ca: bool) -> impl Strategy<Value = Option<Instr>> {
        use weakgpu_litmus::build::*;
        let r = |i: usize| ["r0", "r1"][i];
        let l = |i: usize| ["x", "y"][i];
        let plain = prop_oneof![
            (0..2usize, 0..2usize).prop_map(move |(d, a)| ld(r(d), l(a))),
            (0..2usize, 0..2usize).prop_map(move |(d, a)| if ca {
                ld_ca(r(d), l(a))
            } else {
                ld(r(d), l(a))
            }),
            (0..2usize, 1..3i64).prop_map(move |(a, v)| st(l(a), v)),
            (0..2usize, 0..2usize).prop_map(move |(a, s)| st_reg(l(a), r(s))),
            (0..2usize, 0..2usize, 0..2i64).prop_map(move |(d, a, e)| cas(r(d), l(a), e, e + 1)),
            (0..2usize, 0..2usize).prop_map(move |(d, a)| exch(r(d), l(a), 3)),
            (0..2usize, 0..2usize).prop_map(move |(d, a)| inc(r(d), l(a))),
            prop_oneof![Just(membar_cta()), Just(membar_gl())],
            (0..2usize, 0..3i64).prop_map(move |(d, v)| mov(r(d), imm(v))),
            (0..2usize, 0..2usize).prop_map(move |(d, s)| add(r(d), reg(r(s)), imm(1))),
        ];
        let guarded = (plain, 0..4usize, prop::bool::ANY).prop_map(move |(i, g, expect)| {
            if g < 2 {
                Some(i.guarded(r(g), expect))
            } else {
                Some(i)
            }
        });
        prop_oneof![6 => guarded, 1 => Just(None)]
    }

    /// A 2–3-thread test of random threads, observing every register a
    /// thread mentions and both locations, with a random thread scope;
    /// with `.ca` loads only when `ca` is set.
    fn arb_test(ca: bool) -> impl Strategy<Value = LitmusTest> {
        use weakgpu_litmus::build::*;
        use weakgpu_litmus::Predicate;
        let thread = prop::collection::vec(arb_instr(ca), 1..6usize);
        (prop::collection::vec(thread, 2..4usize), prop::bool::ANY).prop_map(|(threads, intra)| {
            let mut b = LitmusTest::builder("random").global("x", 0).global("y", 0);
            let mut pred = Predicate::mem_eq("x", 1).and(Predicate::mem_eq("y", 1));
            for (t, code) in threads.into_iter().enumerate() {
                let mut instrs: Vec<Instr> = code
                    .into_iter()
                    .map(|i| i.unwrap_or_else(|| bra("END").guarded("r0", true)))
                    .collect();
                instrs.push(label("END"));
                for r in ["r0", "r1"] {
                    if instrs.iter().any(|i| format!("{i:?}").contains(r)) {
                        pred = pred.or(Predicate::reg_eq(t, r, 1));
                    }
                }
                b = b.thread(instrs);
            }
            b.scope(if intra {
                ThreadScope::IntraCta
            } else {
                ThreadScope::InterCta
            })
            .exists(pred)
            .build()
            .unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn lone_thread_finish_is_exact_on_random_programs(test in arb_test(true)) {
            let program = Arc::new(SimProgram::compile(&test).unwrap());
            for chip in [Chip::TeslaC2075, Chip::GtxTitan, Chip::RadeonHd7970] {
                let sim = Simulator::from_program(Arc::clone(&program), chip);
                for inc in incantation_columns() {
                    let differing = differing_runs(&sim, &RunParams::of(chip, &inc), 0..40);
                    prop_assert_eq!(differing, 0, "{} on {:?}", test, chip);
                }
            }
        }

        #[test]
        fn dead_l1_is_exact_on_random_programs(test in arb_test(false)) {
            let program = Arc::new(SimProgram::compile(&test).unwrap());
            for chip in Chip::ALL {
                let sim = Simulator::from_program(Arc::clone(&program), chip);
                for inc in incantation_columns() {
                    let (differing, _) = l1_differing_runs(&sim, &RunParams::of(chip, &inc), 0..40);
                    prop_assert_eq!(differing, 0, "{} on {:?}", test, chip);
                }
            }
        }
    }
}
