//! Symbolic per-thread execution.
//!
//! To enumerate candidate executions (paper Sec. 5.1.2) each thread's code
//! is unwound into a sequence of memory events. Loads receive their values
//! from an **oracle** (a list of integers consumed in order); given an
//! oracle, execution is deterministic, so enumerating oracles enumerates the
//! thread's possible event sequences — including which predicated
//! instructions execute and whether a CAS succeeds.
//!
//! Everything here runs on dense ids. A `Program` numbers a thread's
//! registers, resolves its labels to instruction indices and its symbols
//! to location ids (a `LocTable`), so the interpreter never compares,
//! clones or allocates a name. The enumerator's walk (`walk_thread`)
//! visits a thread's oracles depth-first in one pass: it checkpoints the
//! thread at each pending read and runs each candidate value on from the
//! checkpoint, so a prefix that many oracles share executes once. Every
//! completed trace lands in one flat `TraceArena`: an event holds its
//! location id, kind, value and attributes, and its dependencies are
//! ranges into a shared index pool, so a trace has no width limit and a
//! warm arena takes new traces without allocating.
//!
//! During execution we track, per register, the set of load events whose
//! values flowed into it; this yields the address (`addr`), data (`data`)
//! and control (`ctrl`) dependency edges of the paper's model (Sec. 5.1.1).
//!
//! [`ThreadTrace`], [`run_thread`] and [`enumerate_thread_traces`] are the
//! named form of the same interpreter, kept as the test oracle: they run
//! the dense code and convert its traces back to names.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use weakgpu_litmus::{CacheOp, FenceScope, Instr, Loc, Operand, Reg, Value};

use crate::event::EventKind;

/// A thread-local event: like [`crate::Event`] but with thread-local ids
/// and explicit dependency edges.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThreadEvent {
    /// Read, write or fence.
    pub kind: EventKind,
    /// Accessed location (`None` for fences).
    pub loc: Option<Loc>,
    /// Value read/written.
    pub value: i64,
    /// Cache operator.
    pub cache: CacheOp,
    /// `.volatile` marker.
    pub volatile: bool,
    /// From an atomic instruction.
    pub atomic: bool,
    /// Originating instruction index.
    pub instr_idx: usize,
    /// Local indices of read events this event address-depends on.
    pub addr_deps: Vec<usize>,
    /// Local indices of read events this event data-depends on.
    pub data_deps: Vec<usize>,
    /// Local indices of read events this event control-depends on.
    pub ctrl_deps: Vec<usize>,
}

/// The result of unwinding one thread under one oracle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThreadTrace {
    /// Thread id.
    pub tid: usize,
    /// Events in program order.
    pub events: Vec<ThreadEvent>,
    /// Read/write event pairs of successful atomics.
    pub rmw_pairs: Vec<(usize, usize)>,
    /// Final register file, sorted by register name.
    pub final_regs: Vec<(Reg, Value)>,
    /// The oracle consumed (one entry per read event, in order).
    pub oracle: Vec<i64>,
}

impl ThreadTrace {
    /// The final integer value of `reg` (pointers and unset registers
    /// read as 0, the hardware reset value).
    pub fn final_int(&self, reg: &Reg) -> i64 {
        match self
            .final_regs
            .binary_search_by(|e| e.0.cmp(reg))
            .map(|i| &self.final_regs[i].1)
        {
            Ok(Value::Int(n)) => *n,
            _ => 0,
        }
    }

    /// Read events (location, local index) in order — the oracle's shape.
    pub fn reads(&self) -> impl Iterator<Item = (usize, &Loc)> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind.is_read())
            .map(|(i, e)| (i, e.loc.as_ref().expect("reads have locations")))
    }
}

/// Why a symbolic run could not complete.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SymError {
    /// A memory access's address operand did not evaluate to a location.
    BadAddress {
        /// Thread id.
        tid: usize,
        /// Offending instruction index.
        instr_idx: usize,
    },
    /// A store attempted to write a pointer value.
    StoreOfPointer {
        /// Thread id.
        tid: usize,
        /// Offending instruction index.
        instr_idx: usize,
    },
    /// A path took more backward jumps than its bound allows (an
    /// unbounded loop).
    StepLimit {
        /// Thread id.
        tid: usize,
    },
    /// Trace enumeration exceeded its configured bound.
    TooManyTraces,
}

impl fmt::Display for SymError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymError::BadAddress { tid, instr_idx } => {
                write!(
                    f,
                    "thread {tid}, instruction {instr_idx}: address is not a location"
                )
            }
            SymError::StoreOfPointer { tid, instr_idx } => {
                write!(
                    f,
                    "thread {tid}, instruction {instr_idx}: cannot store a pointer"
                )
            }
            SymError::StepLimit { tid } => write!(f, "thread {tid}: loop bound exceeded"),
            SymError::TooManyTraces => write!(f, "trace enumeration limit exceeded"),
        }
    }
}

impl std::error::Error for SymError {}

/// Outcome of [`run_thread`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SymResult {
    /// The thread ran to completion.
    Complete(ThreadTrace),
    /// The oracle is too short: the next read (of the given location) needs
    /// a value.
    NeedValue {
        /// Location the pending read accesses.
        loc: Loc,
    },
    /// The run failed.
    Error(SymError),
}

/// The location id of events without a location (fences).
pub(crate) const NO_LOC: u32 = u32::MAX;

/// Location names by dense id: a location's id is its index.
#[derive(Default, Debug)]
pub(crate) struct LocTable {
    names: Vec<Loc>,
}

impl LocTable {
    pub(crate) fn clear(&mut self) {
        self.names.clear();
    }

    pub(crate) fn find(&self, loc: &Loc) -> Option<u32> {
        self.names.iter().position(|l| l == loc).map(|i| i as u32)
    }

    /// The id of `loc`, appending it when new.
    pub(crate) fn id(&mut self, loc: &Loc) -> u32 {
        self.find(loc).unwrap_or_else(|| {
            self.names.push(loc.clone());
            self.names.len() as u32 - 1
        })
    }

    pub(crate) fn name(&self, id: u32) -> &Loc {
        &self.names[id as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }
}

/// A runtime value on dense ids: [`Value`] with its location resolved
/// through a [`LocTable`]. The arithmetic mirrors [`Value`]'s.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Val {
    Int(i64),
    Ptr { loc: u32, offset: i64 },
}

impl Val {
    fn of(v: &Value, locs: &mut LocTable) -> Val {
        match v {
            Value::Int(n) => Val::Int(*n),
            Value::Ptr { loc, offset } => Val::Ptr {
                loc: locs.id(loc),
                offset: *offset,
            },
        }
    }

    fn to_value(self, locs: &LocTable) -> Value {
        match self {
            Val::Int(n) => Value::Int(n),
            Val::Ptr { loc, offset } => Value::Ptr {
                loc: locs.name(loc).clone(),
                offset,
            },
        }
    }

    /// The final integer value of a register holding `self`: pointers
    /// read as 0, like [`ThreadTrace::final_int`].
    pub(crate) fn final_int(self) -> i64 {
        match self {
            Val::Int(n) => n,
            Val::Ptr { .. } => 0,
        }
    }

    fn wrapping_add(self, rhs: Val) -> Val {
        match (self, rhs) {
            (Val::Int(a), Val::Int(b)) => Val::Int(a.wrapping_add(b)),
            (Val::Ptr { loc, offset }, Val::Int(n)) | (Val::Int(n), Val::Ptr { loc, offset }) => {
                Val::Ptr {
                    loc,
                    offset: offset.wrapping_add(n),
                }
            }
            (Val::Ptr { loc, offset }, Val::Ptr { .. }) => Val::Ptr { loc, offset },
        }
    }

    fn bitand(self, rhs: Val) -> Val {
        Val::Int(self.to_bits() & rhs.to_bits())
    }

    fn bitxor(self, rhs: Val) -> Val {
        Val::Int(self.to_bits() ^ rhs.to_bits())
    }

    fn to_bits(self) -> i64 {
        match self {
            Val::Int(n) => n,
            Val::Ptr { offset, .. } => offset,
        }
    }
}

/// A set of read-event indices: the loads a value derives from. Bit `i`
/// of `lo` is event `i`; indices from 64 up (only long loops reach
/// them) spill into `hi`, so the common set is one word and cloning it
/// never allocates.
#[derive(Clone, Default)]
struct Taint {
    lo: u64,
    hi: Vec<u64>,
}

impl Taint {
    fn single(i: usize) -> Self {
        let mut t = Taint::default();
        t.insert(i);
        t
    }

    fn insert(&mut self, i: usize) {
        match i / 64 {
            0 => self.lo |= 1 << i,
            w => {
                if self.hi.len() < w {
                    self.hi.resize(w, 0);
                }
                self.hi[w - 1] |= 1 << (i % 64);
            }
        }
    }

    fn union(&mut self, other: &Taint) {
        self.lo |= other.lo;
        if self.hi.len() < other.hi.len() {
            self.hi.resize(other.hi.len(), 0);
        }
        for (a, b) in self.hi.iter_mut().zip(&other.hi) {
            *a |= b;
        }
    }

    /// Appends the indices in ascending order to `pool`.
    fn push_into(&self, pool: &mut Vec<u32>) {
        for (w, &word) in std::iter::once(&self.lo).chain(&self.hi).enumerate() {
            let mut bits = word;
            while bits != 0 {
                pool.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

/// A range of one of a [`TraceArena`]'s pools (or of a walker's
/// dependency pool): the read indices one event depends on, or one
/// trace's events, RMW pairs or final register values.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The span of `pool[start..]`, as far as `pool` now reaches.
    fn since<T>(start: usize, pool: &[T]) -> Span {
        Span {
            start: start as u32,
            len: (pool.len() - start) as u32,
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    fn shifted(self, by: u32) -> Span {
        Span {
            start: self.start + by,
            len: self.len,
        }
    }
}

/// One event of a thread trace, on dense ids.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct TraceEvent {
    pub(crate) kind: EventKind,
    /// Location id, [`NO_LOC`] for fences.
    pub(crate) loc: u32,
    pub(crate) value: i64,
    pub(crate) cache: CacheOp,
    pub(crate) volatile: bool,
    pub(crate) atomic: bool,
    pub(crate) instr_idx: u32,
    addr: Span,
    data: Span,
    ctrl: Span,
}

impl TraceEvent {
    /// `true` when `self` and `other` differ at most in their values:
    /// same kind, location, attributes and dependency ranges' contents.
    fn same_shape(&self, other: &TraceEvent, pool: &[u32]) -> bool {
        self.kind == other.kind
            && self.loc == other.loc
            && self.cache == other.cache
            && self.volatile == other.volatile
            && self.atomic == other.atomic
            && self.instr_idx == other.instr_idx
            && pool[self.addr.range()] == pool[other.addr.range()]
            && pool[self.data.range()] == pool[other.data.range()]
            && pool[self.ctrl.range()] == pool[other.ctrl.range()]
    }
}

/// Where one trace's pieces sit in a [`TraceArena`].
#[derive(Clone, Copy, Debug)]
struct TraceSpan {
    tid: usize,
    events: Span,
    rmw: Span,
    finals: Span,
}

/// Every trace of every thread of one test, flat: events, a shared
/// dependency pool, RMW pairs and final register values, each trace a
/// set of ranges into them. Traces of one thread are contiguous and in
/// lexicographic oracle order; threads come in the order they were
/// walked. Cleared and refilled in place, so a warm arena allocates
/// nothing.
#[derive(Default, Debug)]
pub(crate) struct TraceArena {
    /// Process-unique stamp of the current contents, renewed by
    /// [`TraceArena::clear`]: trace indices are meaningful only within
    /// one generation.
    gen: u64,
    events: Vec<TraceEvent>,
    deps: Vec<u32>,
    rmw: Vec<(u32, u32)>,
    finals: Vec<Val>,
    traces: Vec<TraceSpan>,
    /// Per walked thread, the range of its trace indices.
    threads: Vec<(usize, usize)>,
}

impl TraceArena {
    pub(crate) fn clear(&mut self) {
        self.gen = crate::skeleton::next_stamp();
        self.events.clear();
        self.deps.clear();
        self.rmw.clear();
        self.finals.clear();
        self.traces.clear();
        self.threads.clear();
    }

    pub(crate) fn gen(&self) -> u64 {
        self.gen
    }

    /// The trace index ranges of the walked threads, in walk order.
    pub(crate) fn threads(&self) -> &[(usize, usize)] {
        &self.threads
    }

    /// Trace `t`'s events, in program order.
    pub(crate) fn events(&self, t: usize) -> &[TraceEvent] {
        &self.events[self.traces[t].events.range()]
    }

    /// Trace `t`'s RMW pairs, as local event indices.
    pub(crate) fn rmw(&self, t: usize) -> &[(u32, u32)] {
        &self.rmw[self.traces[t].rmw.range()]
    }

    /// Trace `t`'s final register values, by dense register index.
    pub(crate) fn finals(&self, t: usize) -> &[Val] {
        &self.finals[self.traces[t].finals.range()]
    }

    /// The local read indices `e` address-depends on.
    pub(crate) fn addr(&self, e: &TraceEvent) -> &[u32] {
        &self.deps[e.addr.range()]
    }

    /// The local read indices `e` data-depends on.
    pub(crate) fn data(&self, e: &TraceEvent) -> &[u32] {
        &self.deps[e.data.range()]
    }

    /// The local read indices `e` control-depends on.
    pub(crate) fn ctrl(&self, e: &TraceEvent) -> &[u32] {
        &self.deps[e.ctrl.range()]
    }

    /// `true` when traces `a` and `b` differ at most in event values:
    /// then every relation a skeleton derives from them is the same.
    pub(crate) fn same_shape(&self, a: usize, b: usize) -> bool {
        let (ea, eb) = (self.events(a), self.events(b));
        ea.len() == eb.len()
            && self.rmw(a) == self.rmw(b)
            && ea.iter().zip(eb).all(|(x, y)| x.same_shape(y, &self.deps))
    }

    /// Appends the walker's completed trace.
    fn push(&mut self, tid: usize, w: &Walker) {
        let shift = self.deps.len() as u32;
        self.deps.extend_from_slice(&w.deps);
        let events = self.events.len();
        self.events.extend(w.events.iter().map(|e| TraceEvent {
            addr: e.addr.shifted(shift),
            data: e.data.shifted(shift),
            ctrl: e.ctrl.shifted(shift),
            ..*e
        }));
        let rmw = self.rmw.len();
        self.rmw.extend_from_slice(&w.rmw);
        let finals = self.finals.len();
        self.finals.extend(w.regs.iter().map(|r| r.value));
        self.traces.push(TraceSpan {
            tid,
            events: Span::since(events, &self.events),
            rmw: Span::since(rmw, &self.rmw),
            finals: Span::since(finals, &self.finals),
        });
    }

    /// Trace `t` in the named form.
    fn to_trace(&self, t: usize, prog: &Program, locs: &LocTable) -> ThreadTrace {
        let idx = |d: &[u32]| d.iter().map(|&i| i as usize).collect();
        let events = self.events(t);
        let finals = self.finals(t);
        let mut by_name: Vec<usize> = (0..prog.regs.len()).collect();
        by_name.sort_unstable_by(|&a, &b| prog.regs[a].cmp(&prog.regs[b]));
        ThreadTrace {
            tid: self.traces[t].tid,
            events: events
                .iter()
                .map(|e| ThreadEvent {
                    kind: e.kind,
                    loc: (e.loc != NO_LOC).then(|| locs.name(e.loc).clone()),
                    value: e.value,
                    cache: e.cache,
                    volatile: e.volatile,
                    atomic: e.atomic,
                    instr_idx: e.instr_idx as usize,
                    addr_deps: idx(self.addr(e)),
                    data_deps: idx(self.data(e)),
                    ctrl_deps: idx(self.ctrl(e)),
                })
                .collect(),
            rmw_pairs: self
                .rmw(t)
                .iter()
                .map(|&(r, w)| (r as usize, w as usize))
                .collect(),
            final_regs: by_name
                .iter()
                .map(|&r| (prog.regs[r].clone(), finals[r].to_value(locs)))
                .collect(),
            // Every read consumed exactly one oracle value, its own.
            oracle: events
                .iter()
                .filter(|e| e.kind.is_read())
                .map(|e| e.value)
                .collect(),
        }
    }
}

/// A register's value plus the read events it derives from.
#[derive(Clone)]
struct Tainted {
    value: Val,
    taint: Taint,
}

/// An operand with its register resolved to a dense index and its
/// symbol to a location id.
#[derive(Clone, Copy)]
enum Src {
    Reg(usize),
    Imm(i64),
    Ptr(u32),
}

/// One instruction compiled for the interpreter (see [`Program`]),
/// minus its guards.
#[derive(Clone, Copy)]
enum Op {
    /// A label definition.
    Nop,
    /// `bra`; `None` for an undefined label, which only a hand-built
    /// instruction list can contain.
    Jump(Option<usize>),
    Ld {
        dst: usize,
        addr: Src,
        cache: CacheOp,
        volatile: bool,
    },
    St {
        addr: Src,
        src: Src,
        cache: CacheOp,
        volatile: bool,
    },
    Cas {
        dst: usize,
        addr: Src,
        expected: Src,
        desired: Src,
    },
    Exch {
        dst: usize,
        addr: Src,
        src: Src,
    },
    Inc {
        dst: usize,
        addr: Src,
    },
    Fence(FenceScope),
    /// `mov` and `cvt`.
    Mov {
        dst: usize,
        src: Src,
    },
    /// `add`, `and` and `xor`.
    Alu {
        dst: usize,
        a: Src,
        b: Src,
        f: fn(Val, Val) -> Val,
    },
    Setp {
        dst: usize,
        a: Src,
        b: Src,
        eq: bool,
    },
}

/// An instruction: its guards (outermost first, a range of
/// [`Program::guards`]) and the guarded operation.
#[derive(Clone, Copy)]
struct Step {
    guards: Span,
    op: Op,
}

/// One thread's code compiled for the interpreter: registers become
/// dense indices (in order of first mention), labels become instruction
/// indices and symbols become location ids, so the interpreter never
/// compares or allocates a name. Recompiled in place for each test, so
/// a warm program allocates nothing.
#[derive(Default)]
pub(crate) struct Program {
    steps: Vec<Step>,
    /// `(predicate register, expected truth)` per guard.
    guards: Vec<(usize, bool)>,
    regs: Vec<Reg>,
    /// Initial value per register.
    init: Vec<Val>,
}

impl Program {
    /// Compiles `instrs`, resolving symbols (and pointer-valued register
    /// initialisations) through `locs`.
    pub(crate) fn compile(
        &mut self,
        instrs: &[Instr],
        reg_init: &dyn Fn(&Reg) -> Value,
        locs: &mut LocTable,
    ) {
        self.steps.clear();
        self.guards.clear();
        self.regs.clear();
        for instr in instrs {
            let start = self.guards.len();
            let mut inner = instr;
            while let Instr::Guard {
                pred,
                expect,
                inner: i,
            } = inner
            {
                let pred = self.reg(pred);
                self.guards.push((pred, *expect));
                inner = i;
            }
            let op = self.op(inner, instrs, locs);
            self.steps.push(Step {
                guards: Span::since(start, &self.guards),
                op,
            });
        }
        self.init.clear();
        for r in &self.regs {
            self.init.push(Val::of(&reg_init(r), locs));
        }
    }

    /// The dense index of `r`, if the code mentions it.
    pub(crate) fn reg_index(&self, r: &Reg) -> Option<usize> {
        self.regs.iter().position(|x| x == r)
    }

    fn reg(&mut self, r: &Reg) -> usize {
        self.reg_index(r).unwrap_or_else(|| {
            self.regs.push(r.clone());
            self.regs.len() - 1
        })
    }

    fn src(&mut self, o: &Operand, locs: &mut LocTable) -> Src {
        match o {
            Operand::Reg(r) => Src::Reg(self.reg(r)),
            Operand::Imm(n) => Src::Imm(*n),
            Operand::Sym(l) => Src::Ptr(locs.id(l)),
        }
    }

    fn op(&mut self, instr: &Instr, instrs: &[Instr], locs: &mut LocTable) -> Op {
        match instr {
            Instr::LabelDef(_) | Instr::Guard { .. } => Op::Nop,
            // The last definition of a label wins, as in a map keyed by
            // label.
            Instr::Bra { target } => Op::Jump(
                instrs
                    .iter()
                    .rposition(|i| matches!(i, Instr::LabelDef(l) if l == target)),
            ),
            Instr::Ld {
                dst,
                addr,
                cache,
                volatile,
            } => Op::Ld {
                dst: self.reg(dst),
                addr: self.src(addr, locs),
                cache: *cache,
                volatile: *volatile,
            },
            Instr::St {
                addr,
                src,
                cache,
                volatile,
            } => Op::St {
                addr: self.src(addr, locs),
                src: self.src(src, locs),
                cache: *cache,
                volatile: *volatile,
            },
            Instr::Cas {
                dst,
                addr,
                expected,
                desired,
            } => Op::Cas {
                dst: self.reg(dst),
                addr: self.src(addr, locs),
                expected: self.src(expected, locs),
                desired: self.src(desired, locs),
            },
            Instr::Exch { dst, addr, src } => Op::Exch {
                dst: self.reg(dst),
                addr: self.src(addr, locs),
                src: self.src(src, locs),
            },
            Instr::Inc { dst, addr } => Op::Inc {
                dst: self.reg(dst),
                addr: self.src(addr, locs),
            },
            Instr::Membar { scope } => Op::Fence(*scope),
            Instr::Mov { dst, src } | Instr::Cvt { dst, src } => Op::Mov {
                dst: self.reg(dst),
                src: self.src(src, locs),
            },
            Instr::Add { dst, a, b } | Instr::And { dst, a, b } | Instr::Xor { dst, a, b } => {
                Op::Alu {
                    dst: self.reg(dst),
                    a: self.src(a, locs),
                    b: self.src(b, locs),
                    f: match instr {
                        Instr::Add { .. } => Val::wrapping_add,
                        Instr::And { .. } => Val::bitand,
                        _ => Val::bitxor,
                    },
                }
            }
            Instr::SetpEq { dst, a, b } | Instr::SetpNe { dst, a, b } => Op::Setp {
                dst: self.reg(dst),
                a: self.src(a, locs),
                b: self.src(b, locs),
                eq: matches!(instr, Instr::SetpEq { .. }),
            },
        }
    }
}

/// Where the walker stood at a pending read, minus its register file
/// (kept in one stack for all checkpoints). Events, dependencies, RMW
/// pairs and oracle only grow along a path, so their lengths suffice to
/// restore them.
struct Checkpoint {
    pc: usize,
    back_jumps: usize,
    path_taint: Taint,
    events: usize,
    deps: usize,
    rmw: usize,
    oracle: usize,
}

/// A pending read on the current path: its checkpoint, the location it
/// reads and the index of the next domain value to try.
struct Frame {
    cp: Checkpoint,
    loc: u32,
    next: usize,
}

/// The interpreter state of one thread plus the depth-first walk's
/// frame stack. Reused across threads and tests: once warm, a walk
/// allocates nothing.
#[derive(Default)]
pub(crate) struct Walker {
    pc: usize,
    /// Backward jumps taken so far: jumps to the instruction that jumps
    /// or an earlier one.
    back_jumps: usize,
    /// The register file, by dense index.
    regs: Vec<Tainted>,
    /// Reads that every subsequent event control-depends on (conditional
    /// branches taken so far).
    path_taint: Taint,
    events: Vec<TraceEvent>,
    /// The dependency pool of `events`.
    deps: Vec<u32>,
    rmw: Vec<(u32, u32)>,
    oracle: Vec<i64>,
    oracle_pos: usize,
    /// One frame per pending read on the current path, deepest last;
    /// frame `k`'s register file is `saved_regs[k * nregs..][..nregs]`.
    frames: Vec<Frame>,
    saved_regs: Vec<Tainted>,
}

enum Flow {
    Next,
    Jump(usize),
}

enum StepFail {
    /// The oracle has no value for the pending read of this location.
    NeedValue(u32),
    Error(SymError),
}

impl From<SymError> for StepFail {
    fn from(e: SymError) -> Self {
        StepFail::Error(e)
    }
}

/// The dependency ranges an atomic's read and write events share.
struct Atomic {
    loc: u32,
    instr_idx: u32,
    addr: Span,
    ctrl: Span,
}

impl Walker {
    /// Resets to pc 0 of `prog` with an empty oracle: every register the
    /// code mentions starts at its initial value.
    fn start(&mut self, prog: &Program) {
        self.pc = 0;
        self.back_jumps = 0;
        self.regs.clear();
        self.regs.extend(prog.init.iter().map(|&value| Tainted {
            value,
            taint: Taint::default(),
        }));
        self.path_taint = Taint::default();
        self.events.clear();
        self.deps.clear();
        self.rmw.clear();
        self.oracle.clear();
        self.oracle_pos = 0;
        self.frames.clear();
        self.saved_regs.clear();
    }

    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            pc: self.pc,
            back_jumps: self.back_jumps,
            path_taint: self.path_taint.clone(),
            events: self.events.len(),
            deps: self.deps.len(),
            rmw: self.rmw.len(),
            oracle: self.oracle.len(),
        }
    }

    /// Runs until the thread completes, fails, or reaches a read the
    /// oracle has no value for. A pending read leaves the state exactly
    /// as it was before that read: supplying a value and calling `run`
    /// again continues the thread as a run from pc 0 under the longer
    /// oracle would, backward-jump count included. A path runs at most
    /// `max_back_jumps + 1` times the thread's length.
    fn run(&mut self, prog: &Program, tid: usize, max_back_jumps: usize) -> Result<(), StepFail> {
        while self.pc < prog.steps.len() {
            match self.step(prog, tid, self.pc)? {
                Flow::Next => self.pc += 1,
                Flow::Jump(target) => {
                    if target <= self.pc {
                        if self.back_jumps == max_back_jumps {
                            return Err(SymError::StepLimit { tid }.into());
                        }
                        self.back_jumps += 1;
                    }
                    self.pc = target;
                }
            }
        }
        Ok(())
    }

    fn eval(&self, src: Src) -> Tainted {
        match src {
            Src::Reg(r) => self.regs[r].clone(),
            Src::Imm(n) => Tainted {
                value: Val::Int(n),
                taint: Taint::default(),
            },
            Src::Ptr(loc) => Tainted {
                value: Val::Ptr { loc, offset: 0 },
                taint: Taint::default(),
            },
        }
    }

    fn resolve_addr(&self, src: Src, tid: usize, pc: usize) -> Result<(u32, Taint), SymError> {
        let t = self.eval(src);
        match t.value {
            Val::Ptr { loc, offset: 0 } => Ok((loc, t.taint)),
            _ => Err(SymError::BadAddress { tid, instr_idx: pc }),
        }
    }

    fn int_operand(&self, src: Src, tid: usize, pc: usize) -> Result<(i64, Taint), SymError> {
        let t = self.eval(src);
        match t.value {
            Val::Int(n) => Ok((n, t.taint)),
            Val::Ptr { .. } => Err(SymError::StoreOfPointer { tid, instr_idx: pc }),
        }
    }

    /// The oracle's value for the next read of `loc`.
    fn next_value(&mut self, loc: u32) -> Result<i64, StepFail> {
        let v = *self
            .oracle
            .get(self.oracle_pos)
            .ok_or(StepFail::NeedValue(loc))?;
        self.oracle_pos += 1;
        Ok(v)
    }

    /// Pushes `t`'s indices to the dependency pool.
    fn deps_of(&mut self, t: &Taint) -> Span {
        let start = self.deps.len();
        t.push_into(&mut self.deps);
        Span::since(start, &self.deps)
    }

    /// The reads the next event control-depends on.
    fn ctrl_now(&mut self, guard_taint: &Taint) -> Span {
        let mut t = self.path_taint.clone();
        t.union(guard_taint);
        self.deps_of(&t)
    }

    /// Appends an event; returns its local index.
    fn push_event(
        &mut self,
        kind: EventKind,
        loc: u32,
        value: i64,
        (cache, volatile, atomic): (CacheOp, bool, bool),
        instr_idx: u32,
        (addr, data, ctrl): (Span, Span, Span),
    ) -> u32 {
        self.events.push(TraceEvent {
            kind,
            loc,
            value,
            cache,
            volatile,
            atomic,
            instr_idx,
            addr,
            data,
            ctrl,
        });
        self.events.len() as u32 - 1
    }

    fn atomic(&mut self, loc: u32, addr_taint: &Taint, pc: usize, guard_taint: &Taint) -> Atomic {
        Atomic {
            loc,
            instr_idx: pc as u32,
            addr: self.deps_of(addr_taint),
            ctrl: self.ctrl_now(guard_taint),
        }
    }

    /// Appends one event of an atomic; returns its local index.
    fn push_atomic(&mut self, a: &Atomic, kind: EventKind, value: i64, data: Span) -> u32 {
        self.push_event(
            kind,
            a.loc,
            value,
            (CacheOp::Cg, false, true),
            a.instr_idx,
            (a.addr, data, a.ctrl),
        )
    }

    /// Sets `dst` to the old value an atomic's read event `ridx` returned.
    fn set_old(&mut self, dst: usize, old: i64, ridx: u32) {
        self.regs[dst] = Tainted {
            value: Val::Int(old),
            taint: Taint::single(ridx as usize),
        };
    }

    fn step(&mut self, prog: &Program, tid: usize, pc: usize) -> Result<Flow, StepFail> {
        let Step { guards, op } = prog.steps[pc];
        let mut guard_taint = Taint::default();
        let guards = &prog.guards[guards.range()];
        for (k, &(pred, expect)) in guards.iter().enumerate() {
            let p = self.regs[pred].clone();
            // A conditional *branch* taints the suffix whether or not it
            // is taken (the decision was made either way).
            if k + 1 == guards.len() && matches!(op, Op::Jump(_)) {
                self.path_taint.union(&p.taint);
            }
            let truth = matches!(p.value, Val::Int(n) if n != 0);
            if truth != expect {
                return Ok(Flow::Next);
            }
            guard_taint.union(&p.taint);
        }
        let none = Span::default();
        match op {
            Op::Nop => Ok(Flow::Next),
            Op::Jump(target) => Ok(Flow::Jump(target.expect("labels validated at build time"))),
            Op::Ld {
                dst,
                addr,
                cache,
                volatile,
            } => {
                let (loc, addr_taint) = self.resolve_addr(addr, tid, pc)?;
                let v = self.next_value(loc)?;
                let addr = self.deps_of(&addr_taint);
                let ctrl = self.ctrl_now(&guard_taint);
                let idx = self.push_event(
                    EventKind::Read,
                    loc,
                    v,
                    (cache, volatile, false),
                    pc as u32,
                    (addr, none, ctrl),
                );
                self.regs[dst] = Tainted {
                    value: Val::Int(v),
                    taint: Taint::single(idx as usize),
                };
                Ok(Flow::Next)
            }
            Op::St {
                addr,
                src,
                cache,
                volatile,
            } => {
                let (loc, addr_taint) = self.resolve_addr(addr, tid, pc)?;
                let (n, data_taint) = self.int_operand(src, tid, pc)?;
                let addr = self.deps_of(&addr_taint);
                let data = self.deps_of(&data_taint);
                let ctrl = self.ctrl_now(&guard_taint);
                self.push_event(
                    EventKind::Write,
                    loc,
                    n,
                    (cache, volatile, false),
                    pc as u32,
                    (addr, data, ctrl),
                );
                Ok(Flow::Next)
            }
            Op::Cas {
                dst,
                addr,
                expected,
                desired,
            } => {
                let (loc, addr_taint) = self.resolve_addr(addr, tid, pc)?;
                let old = self.next_value(loc)?;
                let (exp_n, exp_taint) = self.int_operand(expected, tid, pc)?;
                let (des_n, des_taint) = self.int_operand(desired, tid, pc)?;
                let mut a = self.atomic(loc, &addr_taint, pc, &guard_taint);
                let ridx = self.push_atomic(&a, EventKind::Read, old, none);
                if old == exp_n {
                    // The write is conditional on the read's value, the
                    // latest read so far.
                    let start = self.deps.len();
                    self.deps.extend_from_within(a.ctrl.range());
                    self.deps.push(ridx);
                    a.ctrl = Span::since(start, &self.deps);
                    // Data: the desired value's reads, then the expected
                    // value's.
                    let start = self.deps.len();
                    des_taint.push_into(&mut self.deps);
                    exp_taint.push_into(&mut self.deps);
                    let data = Span::since(start, &self.deps);
                    let widx = self.push_atomic(&a, EventKind::Write, des_n, data);
                    self.rmw.push((ridx, widx));
                }
                self.set_old(dst, old, ridx);
                Ok(Flow::Next)
            }
            Op::Exch { dst, addr, src } => {
                let (loc, addr_taint) = self.resolve_addr(addr, tid, pc)?;
                let old = self.next_value(loc)?;
                let (n, data_taint) = self.int_operand(src, tid, pc)?;
                let a = self.atomic(loc, &addr_taint, pc, &guard_taint);
                let ridx = self.push_atomic(&a, EventKind::Read, old, none);
                let data = self.deps_of(&data_taint);
                let widx = self.push_atomic(&a, EventKind::Write, n, data);
                self.rmw.push((ridx, widx));
                self.set_old(dst, old, ridx);
                Ok(Flow::Next)
            }
            Op::Inc { dst, addr } => {
                let (loc, addr_taint) = self.resolve_addr(addr, tid, pc)?;
                let old = self.next_value(loc)?;
                let a = self.atomic(loc, &addr_taint, pc, &guard_taint);
                let ridx = self.push_atomic(&a, EventKind::Read, old, none);
                // The written value is derived from the read.
                let data = self.deps_of(&Taint::single(ridx as usize));
                let widx = self.push_atomic(&a, EventKind::Write, old.wrapping_add(1), data);
                self.rmw.push((ridx, widx));
                self.set_old(dst, old, ridx);
                Ok(Flow::Next)
            }
            Op::Fence(scope) => {
                let ctrl = self.ctrl_now(&guard_taint);
                self.push_event(
                    EventKind::Fence(scope),
                    NO_LOC,
                    0,
                    (CacheOp::Cg, false, false),
                    pc as u32,
                    (none, none, ctrl),
                );
                Ok(Flow::Next)
            }
            Op::Mov { dst, src } => {
                self.regs[dst] = self.eval(src);
                Ok(Flow::Next)
            }
            Op::Alu { dst, a, b, f } => {
                let ta = self.eval(a);
                let tb = self.eval(b);
                let mut taint = ta.taint;
                taint.union(&tb.taint);
                self.regs[dst] = Tainted {
                    value: f(ta.value, tb.value),
                    taint,
                };
                Ok(Flow::Next)
            }
            Op::Setp { dst, a, b, eq } => {
                let ta = self.eval(a);
                let tb = self.eval(b);
                let truth = (ta.value == tb.value) == eq;
                let mut taint = ta.taint;
                taint.union(&tb.taint);
                self.regs[dst] = Tainted {
                    value: Val::Int(truth as i64),
                    taint,
                };
                Ok(Flow::Next)
            }
        }
    }
}

/// Appends every trace of thread `tid` to `arena`, in one depth-first
/// walk over its oracles, and records the thread's trace range.
///
/// `domains` gives, per location id, the candidate values a read of that
/// location may return, ascending (the enumerator computes these from
/// the test's writes; see [`crate::enumerate`]); a location without
/// values ends the path with no trace. At each pending read the walk
/// checkpoints the thread and runs it on once per domain value, smallest
/// first, so the traces come out in lexicographic oracle order and each
/// shared prefix executes once. The result equals running the thread
/// from pc 0 on every oracle in that order: the same traces, the same
/// backward-jump counts against `max_back_jumps`, the same first error.
///
/// # Errors
///
/// Propagates [`SymError`]s; reports [`SymError::TooManyTraces`] if more
/// than `max_traces` complete traces arise.
pub(crate) fn walk_thread(
    tid: usize,
    prog: &Program,
    domains: &[Vec<i64>],
    (max_back_jumps, max_traces): (usize, usize),
    w: &mut Walker,
    arena: &mut TraceArena,
) -> Result<(), SymError> {
    let nregs = prog.regs.len();
    let first = arena.traces.len();
    w.start(prog);
    loop {
        match w.run(prog, tid, max_back_jumps) {
            Ok(()) => {
                arena.push(tid, w);
                if arena.traces.len() - first > max_traces {
                    return Err(SymError::TooManyTraces);
                }
            }
            Err(StepFail::NeedValue(loc)) => {
                if domains.get(loc as usize).is_some_and(|d| !d.is_empty()) {
                    let cp = w.checkpoint();
                    w.saved_regs.extend_from_slice(&w.regs);
                    w.frames.push(Frame { cp, loc, next: 0 });
                }
            }
            Err(StepFail::Error(e)) => return Err(e),
        }
        // Resume the deepest pending read with its next value.
        loop {
            let depth = w.frames.len();
            let Some(frame) = w.frames.last_mut() else {
                arena.threads.push((first, arena.traces.len()));
                return Ok(());
            };
            if let Some(&v) = domains[frame.loc as usize].get(frame.next) {
                frame.next += 1;
                let cp = &frame.cp;
                w.pc = cp.pc;
                w.back_jumps = cp.back_jumps;
                w.path_taint.clone_from(&cp.path_taint);
                w.events.truncate(cp.events);
                w.deps.truncate(cp.deps);
                w.rmw.truncate(cp.rmw);
                w.oracle.truncate(cp.oracle);
                w.oracle_pos = cp.oracle;
                w.regs
                    .clone_from_slice(&w.saved_regs[(depth - 1) * nregs..][..nregs]);
                w.oracle.push(v);
                break;
            }
            w.frames.pop();
            w.saved_regs.truncate(w.frames.len() * nregs);
        }
    }
}

/// Unwinds thread `tid` under the given oracle.
///
/// `reg_init` supplies initial register values (default integer 0);
/// `max_back_jumps` bounds the backward jumps taken (loops unroll up to
/// this many iterations, after which [`SymError::StepLimit`] is
/// reported).
pub fn run_thread(
    tid: usize,
    instrs: &[Instr],
    reg_init: &dyn Fn(&Reg) -> Value,
    oracle: &[i64],
    max_back_jumps: usize,
) -> SymResult {
    let mut locs = LocTable::default();
    let mut prog = Program::default();
    prog.compile(instrs, reg_init, &mut locs);
    let mut w = Walker::default();
    w.start(&prog);
    w.oracle.extend_from_slice(oracle);
    match w.run(&prog, tid, max_back_jumps) {
        Ok(()) => {
            let mut arena = TraceArena::default();
            arena.push(tid, &w);
            SymResult::Complete(arena.to_trace(0, &prog, &locs))
        }
        Err(StepFail::NeedValue(loc)) => SymResult::NeedValue {
            loc: locs.name(loc).clone(),
        },
        Err(StepFail::Error(e)) => SymResult::Error(e),
    }
}

/// Every trace of a thread, in the named form: `walk_thread` over the
/// given per-location domains (a location without a domain ends the
/// path with no trace), converted to [`ThreadTrace`]s. The production
/// enumerator walks into a `TraceArena` directly; this is the test
/// oracle's view of that walk.
///
/// # Errors
///
/// Propagates [`SymError`]s; reports [`SymError::TooManyTraces`] if more
/// than `max_traces` complete traces arise.
pub fn enumerate_thread_traces(
    tid: usize,
    instrs: &[Instr],
    reg_init: &dyn Fn(&Reg) -> Value,
    domains: &BTreeMap<Loc, BTreeSet<i64>>,
    max_back_jumps: usize,
    max_traces: usize,
) -> Result<Vec<ThreadTrace>, SymError> {
    let mut locs = LocTable::default();
    let mut prog = Program::default();
    prog.compile(instrs, reg_init, &mut locs);
    let mut dense: Vec<Vec<i64>> = Vec::new();
    for (loc, values) in domains {
        let id = locs.id(loc) as usize;
        if dense.len() <= id {
            dense.resize(id + 1, Vec::new());
        }
        dense[id].extend(values);
    }
    let mut arena = TraceArena::default();
    walk_thread(
        tid,
        &prog,
        &dense,
        (max_back_jumps, max_traces),
        &mut Walker::default(),
        &mut arena,
    )?;
    Ok((0..arena.traces.len())
        .map(|t| arena.to_trace(t, &prog, &locs))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakgpu_litmus::build::*;
    use weakgpu_litmus::FenceScope;

    fn zero_init(_: &Reg) -> Value {
        Value::Int(0)
    }

    fn domains(pairs: &[(&str, &[i64])]) -> BTreeMap<Loc, BTreeSet<i64>> {
        pairs
            .iter()
            .map(|(l, vs)| (Loc::new(l), vs.iter().copied().collect()))
            .collect()
    }

    #[test]
    fn straight_line_store_thread() {
        let code = vec![st("x", 1), membar(FenceScope::Gl), st("y", 1)];
        let r = run_thread(0, &code, &zero_init, &[], 64);
        let tr = match r {
            SymResult::Complete(tr) => tr,
            other => panic!("{other:?}"),
        };
        assert_eq!(tr.events.len(), 3);
        assert!(tr.events[0].kind.is_write());
        assert!(matches!(
            tr.events[1].kind,
            EventKind::Fence(FenceScope::Gl)
        ));
        assert_eq!(tr.events[2].value, 1);
        assert!(tr.rmw_pairs.is_empty());
    }

    #[test]
    fn load_requests_oracle_value() {
        let code = vec![ld("r1", "x")];
        match run_thread(0, &code, &zero_init, &[], 64) {
            SymResult::NeedValue { loc } => assert_eq!(loc, Loc::new("x")),
            other => panic!("{other:?}"),
        }
        match run_thread(0, &code, &zero_init, &[7], 64) {
            SymResult::Complete(tr) => {
                assert_eq!(tr.events[0].value, 7);
                assert_eq!(tr.final_int(&Reg::new("r1")), 7);
                assert_eq!(tr.oracle, vec![7]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn data_dependency_tracked() {
        // r2 := load x; store y := r2 + 1  ⇒ data dep from read to write.
        let code = vec![
            ld("r2", "x"),
            add("r2", reg("r2"), imm(1)),
            st_reg("y", "r2"),
        ];
        let tr = match run_thread(0, &code, &zero_init, &[3], 64) {
            SymResult::Complete(tr) => tr,
            other => panic!("{other:?}"),
        };
        assert_eq!(tr.events[1].value, 4);
        assert_eq!(tr.events[1].data_deps, vec![0]);
    }

    #[test]
    fn address_dependency_tracked() {
        // Manufactured address dependency (paper Fig. 13b).
        let code = vec![
            ld("r1", "x"),
            and("r2", reg("r1"), imm(0x8000_0000)),
            cvt("r3", reg("r2")),
            add("r4", reg("r4"), reg("r3")),
            ld("r5", reg("r4")),
        ];
        let init = |r: &Reg| {
            if r.as_str() == "r4" {
                Value::ptr("y")
            } else {
                Value::Int(0)
            }
        };
        let tr = match run_thread(0, &code, &init, &[1, 9], 64) {
            SymResult::Complete(tr) => tr,
            other => panic!("{other:?}"),
        };
        assert_eq!(tr.events.len(), 2);
        assert_eq!(tr.events[1].loc, Some(Loc::new("y")));
        assert_eq!(tr.events[1].addr_deps, vec![0]);
        assert_eq!(tr.events[1].value, 9);
    }

    #[test]
    fn control_dependency_from_guard() {
        // setp from a load, guarded load ⇒ ctrl dep.
        let code = vec![
            ld("r0", "t"),
            setp_eq("p4", reg("r0"), imm(0)),
            membar_gl().guarded("p4", false),
            ld("r1", "d").guarded("p4", false),
        ];
        // r0 = 1 ⇒ p4 false ⇒ @!p4 executes.
        let tr = match run_thread(1, &code, &zero_init, &[1, 0], 64) {
            SymResult::Complete(tr) => tr,
            other => panic!("{other:?}"),
        };
        assert_eq!(tr.events.len(), 3);
        assert_eq!(tr.events[1].kind, EventKind::Fence(FenceScope::Gl));
        assert_eq!(tr.events[2].ctrl_deps, vec![0]);
        // r0 = 0 ⇒ guarded instructions skipped.
        let tr2 = match run_thread(1, &code, &zero_init, &[0], 64) {
            SymResult::Complete(tr) => tr,
            other => panic!("{other:?}"),
        };
        assert_eq!(tr2.events.len(), 1);
    }

    #[test]
    fn cas_success_and_failure() {
        let code = vec![cas("r1", "m", 0, 1)];
        // Success: reads 0, writes 1, rmw pair.
        let tr = match run_thread(0, &code, &zero_init, &[0], 64) {
            SymResult::Complete(tr) => tr,
            other => panic!("{other:?}"),
        };
        assert_eq!(tr.events.len(), 2);
        assert_eq!(tr.rmw_pairs, vec![(0, 1)]);
        assert_eq!(tr.events[1].value, 1);
        assert!(tr.events[1].ctrl_deps.contains(&0));
        assert_eq!(tr.final_int(&Reg::new("r1")), 0);
        // Failure: reads 1, no write.
        let tr2 = match run_thread(0, &code, &zero_init, &[1], 64) {
            SymResult::Complete(tr) => tr,
            other => panic!("{other:?}"),
        };
        assert_eq!(tr2.events.len(), 1);
        assert!(tr2.rmw_pairs.is_empty());
        assert_eq!(tr2.final_int(&Reg::new("r1")), 1);
    }

    #[test]
    fn exch_and_inc() {
        let code = vec![exch("r0", "m", 5)];
        let tr = match run_thread(0, &code, &zero_init, &[2], 64) {
            SymResult::Complete(tr) => tr,
            other => panic!("{other:?}"),
        };
        assert_eq!(tr.events[1].value, 5);
        assert_eq!(tr.rmw_pairs.len(), 1);

        let code = vec![inc("r0", "c")];
        let tr = match run_thread(0, &code, &zero_init, &[9], 64) {
            SymResult::Complete(tr) => tr,
            other => panic!("{other:?}"),
        };
        assert_eq!(tr.events[1].value, 10);
        assert_eq!(tr.events[1].data_deps, vec![0]);
    }

    #[test]
    fn loop_hits_step_limit() {
        let code = vec![label("L"), bra("L")];
        match run_thread(0, &code, &zero_init, &[], 32) {
            SymResult::Error(SymError::StepLimit { tid: 0 }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spin_loop_terminates_when_oracle_allows() {
        // while (CAS(m,0,1) != 0) {} — succeeds on second try.
        let code = vec![
            label("SPIN"),
            cas("r0", "m", 0, 1),
            setp_ne("p", reg("r0"), imm(0)),
            bra("SPIN").guarded("p", true),
        ];
        let tr = match run_thread(0, &code, &zero_init, &[1, 0], 256) {
            SymResult::Complete(tr) => tr,
            other => panic!("{other:?}"),
        };
        // Two CAS reads, one successful write.
        assert_eq!(tr.events.len(), 3);
        assert_eq!(tr.rmw_pairs, vec![(1, 2)]);
        // The suffix is control-tainted by the first (failed) CAS read.
        assert!(tr.events[2].ctrl_deps.contains(&0));
    }

    #[test]
    fn bad_address_reported() {
        let code = vec![ld("r1", reg("r9"))]; // r9 = 0, not a pointer
        match run_thread(3, &code, &zero_init, &[0], 64) {
            SymResult::Error(SymError::BadAddress {
                tid: 3,
                instr_idx: 0,
            }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn enumerate_traces_of_corr_reader() {
        let code = vec![ld("r1", "x"), ld("r2", "x")];
        let traces =
            enumerate_thread_traces(1, &code, &zero_init, &domains(&[("x", &[0, 1])]), 64, 1024)
                .unwrap();
        // 2 × 2 oracle choices.
        assert_eq!(traces.len(), 4);
        let weird: Vec<_> = traces.iter().filter(|t| t.oracle == vec![1, 0]).collect();
        assert_eq!(weird.len(), 1);
    }

    #[test]
    fn enumerate_traces_with_guards_varies_event_count() {
        let code = vec![
            cas("r1", "m", 0, 1),
            setp_eq("p", reg("r1"), imm(0)),
            ld("r3", "x").guarded("p", true),
        ];
        let traces = enumerate_thread_traces(
            1,
            &code,
            &zero_init,
            &domains(&[("m", &[0, 1]), ("x", &[0, 1])]),
            64,
            1024,
        )
        .unwrap();
        // m=0 ⇒ CAS succeeds ⇒ guarded load runs (x ∈ {0,1}): 2 traces.
        // m=1 ⇒ CAS fails ⇒ no load: 1 trace. Total 3.
        assert_eq!(traces.len(), 3);
    }
}
