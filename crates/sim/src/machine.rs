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

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use weakgpu_litmus::{CacheOp, FenceScope, LitmusTest, Outcome, Region};

use crate::chip::{Chip, Incantations, RunWeights};
use crate::program::{CompileError, ObsTarget, SimInstr, SimOp, SimOperand, SimProgram, SimValue};

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

impl Pending {
    fn loc(&self) -> Option<u32> {
        match self {
            Pending::Store { loc, .. } | Pending::Load { loc, .. } | Pending::Rmw { loc, .. } => {
                Some(*loc)
            }
            Pending::Fence { .. } => None,
        }
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

/// One window slot: the pending op plus a lingering delay. When a younger
/// op bypasses older ones, the skipped ops are delayed for several of the
/// thread's subsequent perform attempts, holding the reordering window
/// open long enough for other threads to observe it (as real store
/// buffers and in-flight queues do).
#[derive(Clone, Copy, Debug)]
struct Slot {
    op: Pending,
    delay: u8,
}

#[derive(Clone, Debug)]
struct ThreadCtx {
    pc: usize,
    regs: Vec<Option<SimValue>>,
    queue: VecDeque<Slot>,
}

impl ThreadCtx {
    fn done(&self, code_len: usize) -> bool {
        self.pc >= code_len && self.queue.is_empty()
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
    /// Per-CTA shared memory, flattened `cta * nlocs + loc`.
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
/// distinct key once at the end via [`Simulator::outcome_from_obs`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ObsCounts {
    counts: std::collections::BTreeMap<Vec<i64>, u64>,
}

impl ObsCounts {
    /// An empty collector.
    pub fn new() -> Self {
        ObsCounts::default()
    }

    /// Records one observation vector. Allocates only on the first
    /// occurrence of a distinct vector.
    pub fn record(&mut self, obs: &[i64]) {
        if let Some(n) = self.counts.get_mut(obs) {
            *n += 1;
        } else {
            self.counts.insert(obs.to_vec(), 1);
        }
    }

    /// Iterates `(observation vector, count)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&[i64], u64)> {
        self.counts.iter().map(|(k, n)| (k.as_slice(), *n))
    }

    /// Total recorded runs.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of distinct observation vectors.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Drops all recorded counts, keeping the map's allocation strategy.
    pub fn clear(&mut self) {
        self.counts.clear();
    }
}

/// A compiled litmus test bound to a chip, ready to run.
#[derive(Clone, Debug)]
pub struct Simulator {
    program: Arc<SimProgram>,
    chip: Chip,
    /// Owning CTA of each location's shared-memory instance (meaningful
    /// for `Region::Shared` locations only), precomputed at compile time.
    shared_owner: Vec<usize>,
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
    /// test on every chip.
    pub fn from_program(program: Arc<SimProgram>, chip: Chip) -> Self {
        let shared_owner = (0..program.locs.len() as u32)
            .map(|l| shared_owner_cta(&program, l))
            .collect();
        Simulator {
            program,
            chip,
            shared_owner,
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

    /// Runs the test once with explicit weights (used by the harness,
    /// which resolves weights once per batch).
    ///
    /// Allocates a fresh [`MachineState`] per call; hot loops should hold
    /// a state and use [`Simulator::run_batch`] (or
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
        self.run_once_into(w, thread_rand, rng, &mut state)?;
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
        st.nlocs = self.program.locs.len();
        st.threads
            .resize_with(self.program.threads.len(), || ThreadCtx {
                pc: 0,
                regs: Vec::new(),
                queue: VecDeque::with_capacity(WINDOW),
            });
    }

    /// Resets `st` to a fresh run: SM placement, memory images, L1
    /// preload and thread contexts. Consumes the same RNG draws, in the
    /// same order, as the historical allocate-per-run path.
    fn reset(&self, w: &RunWeights, thread_rand: bool, rng: &mut SmallRng, st: &mut MachineState) {
        let p = &self.program;
        let profile = self.chip.profile();
        let nlocs = st.nlocs;

        // SM placement: one SM per CTA by default; thread randomisation
        // scatters CTAs over the chip (they may then collide on an SM,
        // sharing an L1 — which suppresses stale-line effects, as on
        // hardware).
        st.sm_of_cta.clear();
        st.sm_of_cta.extend((0..p.num_ctas).map(|c| {
            if thread_rand {
                rng.random_range(0..profile.num_sms)
            } else {
                c % profile.num_sms
            }
        }));
        st.l1_row.clear();
        st.l1_row.extend(st.sm_of_cta.iter().map(|sm| {
            st.sm_of_cta
                .iter()
                .position(|s| s == sm)
                .expect("the CTA's own SM is in the list")
        }));

        // Memory.
        st.l2.clear();
        st.l2.extend(p.locs.iter().map(|l| l.init));
        st.shared.clear();
        for _ in 0..p.num_ctas {
            st.shared.extend(p.locs.iter().map(|l| l.init));
        }
        st.l1.clear();
        st.l1.resize(p.num_ctas * nlocs, None);
        if w.l1_preload > 0.0 {
            for row in st.l1_row.iter().copied() {
                for (i, loc) in p.locs.iter().enumerate() {
                    if loc.region == Region::Global && rng.random_bool(w.l1_preload) {
                        st.l1[row * nlocs + i] = Some(L1Line {
                            value: loc.init,
                            stale: false,
                            sticky: false,
                        });
                    }
                }
            }
        }

        for (ctx, inits) in st.threads.iter_mut().zip(&p.reg_init) {
            ctx.pc = 0;
            ctx.queue.clear();
            ctx.regs.clear();
            ctx.regs.extend(inits.iter().map(|v| Some(*v)));
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
        w: &RunWeights,
        thread_rand: bool,
        rng: &mut SmallRng,
        st: &mut MachineState,
    ) -> Result<(), RunError> {
        let p = &self.program;
        self.reset(w, thread_rand, rng, st);

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
                self.issue(t, &mut st.threads, w, rng)?;
            } else {
                self.perform(t, st, w, rng);
            }
            if st.threads[t].done(p.threads[t].len()) {
                st.active.remove(a);
            }
        }

        // Collect the observed values.
        st.obs.clear();
        for (_, target) in &p.observed {
            let v = match target {
                ObsTarget::Reg(t, r) => st.threads[*t].regs[*r as usize]
                    .expect("all ops performed at termination")
                    .as_int(),
                ObsTarget::Mem(l) => match p.locs[*l as usize].region {
                    Region::Global => st.l2[*l as usize],
                    Region::Shared => {
                        let cta = self.shared_owner[*l as usize];
                        st.shared[cta * st.nlocs + *l as usize]
                    }
                },
            };
            st.obs.push(v);
        }
        Ok(())
    }

    /// Runs `n` iterations through a reusable state, recording each
    /// observation vector into `counts`. This is the amortised hot path:
    /// no per-iteration allocation beyond first-occurrence outcome keys.
    ///
    /// # Errors
    ///
    /// See [`RunError`]. Iterations completed before the error remain
    /// recorded in `counts`.
    pub fn run_batch(
        &self,
        n: usize,
        w: &RunWeights,
        thread_rand: bool,
        rng: &mut SmallRng,
        st: &mut MachineState,
        counts: &mut ObsCounts,
    ) -> Result<(), RunError> {
        for _ in 0..n {
            self.run_once_into(w, thread_rand, rng, st)?;
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
        let ready = self.operands_ready(instr, ctx);
        (ready, !ready)
    }

    fn operands_ready(&self, instr: &SimInstr, ctx: &ThreadCtx) -> bool {
        let reg_ready = |r: u32| ctx.regs[r as usize].is_some();
        let op_ready = |o: SimOperand| match o {
            SimOperand::Reg(r) => reg_ready(r),
            SimOperand::Imm(_) | SimOperand::Sym(_) => true,
        };
        if let Some((p, _)) = instr.guard {
            if !reg_ready(p) {
                return false;
            }
        }
        match instr.op {
            SimOp::Ld { addr, .. } | SimOp::Inc { addr, .. } => op_ready(addr),
            SimOp::St { addr, src, .. } => op_ready(addr) && op_ready(src),
            SimOp::Cas {
                addr,
                expected,
                desired,
                ..
            } => op_ready(addr) && op_ready(expected) && op_ready(desired),
            SimOp::Exch { addr, src, .. } => op_ready(addr) && op_ready(src),
            SimOp::Mov { src, .. } | SimOp::Cvt { src, .. } => op_ready(src),
            SimOp::Add { a, b, .. }
            | SimOp::And { a, b, .. }
            | SimOp::Xor { a, b, .. }
            | SimOp::SetpEq { a, b, .. }
            | SimOp::SetpNe { a, b, .. } => op_ready(a) && op_ready(b),
            SimOp::Membar(_) | SimOp::Bra(_) | SimOp::Nop => true,
        }
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
                ctx.regs[dst as usize] = Some(v);
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
                ctx.regs[dst as usize] = Some(v);
                ctx.pc += 1;
            }
            SimOp::And { dst, a, b } => {
                let v = self.eval_int(a, ctx) & self.eval_int(b, ctx);
                ctx.regs[dst as usize] = Some(SimValue::Int(v));
                ctx.pc += 1;
            }
            SimOp::Xor { dst, a, b } => {
                let v = self.eval_int(a, ctx) ^ self.eval_int(b, ctx);
                ctx.regs[dst as usize] = Some(SimValue::Int(v));
                ctx.pc += 1;
            }
            SimOp::SetpEq { dst, a, b } => {
                let v = (self.eval(a, ctx) == self.eval(b, ctx)) as i64;
                ctx.regs[dst as usize] = Some(SimValue::Int(v));
                ctx.pc += 1;
            }
            SimOp::SetpNe { dst, a, b } => {
                let v = (self.eval(a, ctx) != self.eval(b, ctx)) as i64;
                ctx.regs[dst as usize] = Some(SimValue::Int(v));
                ctx.pc += 1;
            }
            SimOp::Membar(scope) => {
                let leaked = scope == FenceScope::Cta
                    && self.program.spans_ctas
                    && w.cta_fence_leak > 0.0
                    && rng.random_bool(w.cta_fence_leak);
                ctx.queue.push_back(Slot {
                    op: Pending::Fence { scope, leaked },
                    delay: 0,
                });
                ctx.pc += 1;
            }
            SimOp::Ld {
                dst, addr, cache, ..
            } => {
                let loc = self.resolve_loc(addr, ctx, t)?;
                ctx.queue.push_back(Slot {
                    op: Pending::Load { loc, dst, cache },
                    delay: 0,
                });
                ctx.regs[dst as usize] = None;
                ctx.pc += 1;
            }
            SimOp::St { addr, src, .. } => {
                let loc = self.resolve_loc(addr, ctx, t)?;
                let value = self.eval_int(src, ctx);
                ctx.queue.push_back(Slot {
                    op: Pending::Store { loc, value },
                    delay: 0,
                });
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
                ctx.queue.push_back(Slot {
                    op: Pending::Rmw { loc, dst, rmw },
                    delay: 0,
                });
                ctx.regs[dst as usize] = None;
                ctx.pc += 1;
            }
            SimOp::Exch { dst, addr, src } => {
                let loc = self.resolve_loc(addr, ctx, t)?;
                let rmw = RmwOp::Exch(self.eval_int(src, ctx));
                ctx.queue.push_back(Slot {
                    op: Pending::Rmw { loc, dst, rmw },
                    delay: 0,
                });
                ctx.regs[dst as usize] = None;
                ctx.pc += 1;
            }
            SimOp::Inc { dst, addr } => {
                let loc = self.resolve_loc(addr, ctx, t)?;
                ctx.queue.push_back(Slot {
                    op: Pending::Rmw {
                        loc,
                        dst,
                        rmw: RmwOp::Inc,
                    },
                    delay: 0,
                });
                ctx.regs[dst as usize] = None;
                ctx.pc += 1;
            }
        }
        Ok(())
    }

    /// The probability that `later` may perform before `earlier`
    /// (`None` = never).
    fn bypass_prob(&self, earlier: &Pending, later: &Pending, w: &RunWeights) -> Option<f64> {
        if let Pending::Fence { leaked, .. } = earlier {
            return leaked.then_some(1.0);
        }
        if matches!(later, Pending::Fence { .. }) {
            return None; // fences retire in order
        }
        let (le, ll) = (
            earlier.loc().expect("accesses"),
            later.loc().expect("accesses"),
        );
        if le == ll {
            return match (earlier, later) {
                // Same-location load-load hazard (coRR). Mixed cache
                // operators reorder far more rarely (Fig. 4 vs Fig. 1).
                (Pending::Load { cache: c1, .. }, Pending::Load { cache: c2, .. }) => {
                    let region = self.program.locs[le as usize].region;
                    if region != Region::Global {
                        return None;
                    }
                    let p = if c1 == c2 { w.rr_same } else { w.rr_same_mixed };
                    (p > 0.0).then_some(p)
                }
                // A later load may run ahead of a pending same-location
                // store by forwarding its value (rfi) — coherence-safe.
                (Pending::Store { .. }, Pending::Load { .. }) => (w.wr > 0.0).then_some(w.wr),
                // coWW / coRW / anything through an RMW: never.
                _ => None,
            };
        }
        // Different locations.
        let region = self.program.locs[le as usize].region;
        let lregion = self.program.locs[ll as usize].region;
        let p = if region == Region::Shared || lregion == Region::Shared {
            w.shared
        } else {
            // Plain pairs take their class directly; pairs involving an
            // RMW take the class of the RMW's *ordering-relevant* aspect
            // (its read when it is the delayed op — the dlb-lb mechanism;
            // its write when it is the bypassing op — the cas-sl
            // mechanism), scaled by the chip's RMW factor. The hardware
            // data forces this asymmetry: on the HD6570, sb (plain
            // write→read) is unobservable while cas-sl is frequent.
            match (earlier, later) {
                (Pending::Store { .. }, Pending::Load { .. }) => w.wr,
                (Pending::Store { .. }, Pending::Store { .. }) => w.wwrr,
                (Pending::Load { .. }, Pending::Store { .. }) => w.rw,
                (Pending::Load { .. }, Pending::Load { .. }) => w.wwrr,
                (Pending::Store { .. }, Pending::Rmw { .. }) => w.wwrr * w.rmw_second_factor,
                (Pending::Rmw { .. }, Pending::Store { .. }) => w.rw * w.rmw_first_factor,
                (Pending::Rmw { .. }, Pending::Load { .. }) => w.wr * w.rmw_first_factor,
                // Acquire-side atomics do not run ahead of earlier loads:
                // no paper-observed behaviour requires it, and allowing it
                // would let `dlb-lb` fire from the stealing thread too,
                // far beyond the observed rates.
                (Pending::Load { .. }, Pending::Rmw { .. }) => 0.0,
                (Pending::Rmw { .. }, Pending::Rmw { .. }) => {
                    w.rw.min(w.wwrr) * w.rmw_first_factor.min(w.rmw_second_factor)
                }
                (Pending::Fence { .. }, _) | (_, Pending::Fence { .. }) => {
                    unreachable!("fences handled above")
                }
            }
        };
        (p > 0.0 && p.is_finite()).then_some(p.min(1.0))
    }

    fn perform(&self, t: usize, st: &mut MachineState, w: &RunWeights, rng: &mut SmallRng) {
        let nlocs = st.nlocs;
        let cta = self.program.thread_cta[t];
        let row = st.l1_row[cta];

        // Choose which queue entry performs.
        let idx = {
            let queue = &st.threads[t].queue;
            let mut chosen = 0;
            for j in 1..queue.len() {
                let mut p = 1.0;
                let mut ok = true;
                for i in 0..j {
                    match self.bypass_prob(&queue[i].op, &queue[j].op, w) {
                        None => {
                            ok = false;
                            break;
                        }
                        Some(q) => p *= q,
                    }
                }
                if ok && p > 0.0 && rng.random_bool(p.min(1.0)) {
                    chosen = j;
                    break;
                }
            }
            chosen
        };

        if idx > 0 {
            // Hold the bypassed ops back so the reordering window stays
            // open for other threads to observe.
            let extra = rng.random_range(24..=64);
            for i in 0..idx {
                let d = &mut st.threads[t].queue[i].delay;
                *d = (*d).max(extra);
            }
        } else if st.threads[t].queue[0].delay > 0 {
            // A delayed front op skips this perform attempt.
            st.threads[t].queue[0].delay -= 1;
            return;
        }

        // Forwarding source for a bypassing load: the newest earlier
        // pending same-location store.
        let forward: Option<i64> = match st.threads[t].queue[idx].op {
            Pending::Load { loc, .. } => {
                (0..idx)
                    .rev()
                    .find_map(|i| match st.threads[t].queue[i].op {
                        Pending::Store { loc: l, value } if l == loc => Some(value),
                        _ => None,
                    })
            }
            _ => None,
        };

        let op = st.threads[t]
            .queue
            .remove(idx)
            .expect("index chosen from queue")
            .op;

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
                st.threads[t].regs[dst as usize] = Some(SimValue::Int(v));
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
                st.threads[t].regs[dst as usize] = Some(SimValue::Int(old));
            }
        }
    }
}

/// The CTA whose shared-memory instance of `loc` the test uses
/// (validation guarantees a single CTA accesses each shared location).
fn shared_owner_cta(program: &SimProgram, loc: u32) -> usize {
    for (tid, code) in program.threads.iter().enumerate() {
        for instr in code {
            let addr = match instr.op {
                SimOp::Ld { addr, .. } | SimOp::St { addr, .. } => Some(addr),
                SimOp::Cas { addr, .. } | SimOp::Exch { addr, .. } | SimOp::Inc { addr, .. } => {
                    Some(addr)
                }
                _ => None,
            };
            if addr == Some(SimOperand::Sym(loc)) {
                return program.thread_cta[tid];
            }
        }
    }
    0
}

/// Convenience: run a test `iterations` times and count how often the
/// final condition is witnessed. The harness crate provides the full
/// histogram machinery; this is the minimal entry point.
///
/// # Errors
///
/// Propagates compile and run errors.
pub fn count_witnesses(
    test: &LitmusTest,
    chip: Chip,
    inc: &Incantations,
    iterations: usize,
    seed: u64,
) -> Result<usize, Box<dyn std::error::Error>> {
    let sim = Simulator::compile(test, chip)?;
    let weights = chip.profile().weights(inc);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut state = sim.new_state();
    let mut counts = ObsCounts::new();
    sim.run_batch(
        iterations,
        &weights,
        inc.thread_rand,
        &mut rng,
        &mut state,
        &mut counts,
    )?;
    let hits = counts
        .iter()
        .filter(|(obs, _)| test.cond().witnessed_by(&sim.outcome_from_obs(obs)))
        .map(|(_, n)| n as usize)
        .sum();
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakgpu_litmus::{corpus, ThreadScope};

    fn witnesses(
        test: &weakgpu_litmus::LitmusTest,
        chip: Chip,
        inc: &Incantations,
        n: usize,
    ) -> usize {
        count_witnesses(test, chip, inc, n, 0xfeed).unwrap()
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
            &weights,
            inc.thread_rand,
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
        let weights = Chip::GtxTitan.profile().weights(&Incantations::all_on());
        let mut rng = SmallRng::seed_from_u64(7);
        let mut state = sim.new_state();
        sim.run_once_into(&weights, true, &mut rng, &mut state)
            .unwrap();
        // The materialised outcome binds exactly the observed expressions,
        // each to the value the state recorded for it.
        let outcome = sim.outcome_from_obs(state.observed());
        assert_eq!(outcome.len(), state.observed().len());
        for ((expr, _), v) in sim.program().observed.iter().zip(state.observed()) {
            assert_eq!(outcome.get(expr), Some(*v));
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
