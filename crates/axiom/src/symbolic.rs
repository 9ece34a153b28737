//! Symbolic per-thread execution.
//!
//! To enumerate candidate executions (paper Sec. 5.1.2) each thread's code
//! is unwound into a sequence of memory events. Loads receive their values
//! from an **oracle** (a list of integers consumed in order); given an
//! oracle, execution is deterministic, so enumerating oracles enumerates the
//! thread's possible event sequences — including which predicated
//! instructions execute and whether a CAS succeeds.
//! [`enumerate_thread_traces`] walks those oracles depth-first in one
//! pass: it checkpoints the thread at each pending read and runs each
//! candidate value on from the checkpoint, so a prefix that many oracles
//! share executes once.
//!
//! During execution we track, per register, the set of load events whose
//! values flowed into it; this yields the address (`addr`), data (`data`)
//! and control (`ctrl`) dependency edges of the paper's model (Sec. 5.1.1).

use std::collections::{btree_set, BTreeMap, BTreeSet};
use std::fmt;

use weakgpu_litmus::{CacheOp, FenceScope, Instr, Label, Loc, Operand, Reg, Value};

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
    /// The step limit was exceeded (unbounded loop).
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
            SymError::StepLimit { tid } => write!(f, "thread {tid}: step limit exceeded"),
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

    /// The indices in ascending order, as [`ThreadEvent`] lists them.
    fn to_vec(&self) -> Vec<usize> {
        let mut v = Vec::new();
        for (w, &word) in std::iter::once(&self.lo).chain(&self.hi).enumerate() {
            let mut bits = word;
            while bits != 0 {
                v.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        v
    }
}

/// A register's value plus the read events it derives from.
#[derive(Clone)]
struct Tainted {
    value: Value,
    taint: Taint,
}

/// An operand with its register resolved to a dense index and its
/// symbol to a ready-made pointer.
enum Src {
    Reg(usize),
    Imm(i64),
    Ptr(Value),
}

/// One instruction compiled for the interpreter (see [`Program`]).
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
        f: fn(&Value, &Value) -> Value,
    },
    Setp {
        dst: usize,
        a: Src,
        b: Src,
        eq: bool,
    },
    Guard {
        pred: usize,
        expect: bool,
        inner: Box<Op>,
    },
}

/// One thread's code compiled once per enumeration: registers become
/// dense indices, labels become instruction indices and symbols become
/// pointer values, so the interpreter never compares or allocates a
/// name.
struct Program {
    ops: Vec<Op>,
    /// Every register the code mentions, in order of first mention (the
    /// dense index order).
    regs: Vec<Reg>,
    /// Dense indices sorted by register name: the order of
    /// [`ThreadTrace::final_regs`].
    by_name: Vec<usize>,
}

/// Builds a [`Program`], numbering registers as it meets them.
struct Compiler<'a> {
    labels: BTreeMap<&'a Label, usize>,
    regs: Vec<Reg>,
}

impl Compiler<'_> {
    fn reg(&mut self, r: &Reg) -> usize {
        self.regs.iter().position(|x| x == r).unwrap_or_else(|| {
            self.regs.push(r.clone());
            self.regs.len() - 1
        })
    }

    fn src(&mut self, o: &Operand) -> Src {
        match o {
            Operand::Reg(r) => Src::Reg(self.reg(r)),
            Operand::Imm(n) => Src::Imm(*n),
            Operand::Sym(l) => Src::Ptr(Value::Ptr {
                loc: l.clone(),
                offset: 0,
            }),
        }
    }

    fn op(&mut self, instr: &Instr) -> Op {
        match instr {
            Instr::LabelDef(_) => Op::Nop,
            Instr::Bra { target } => Op::Jump(self.labels.get(target).copied()),
            Instr::Ld {
                dst,
                addr,
                cache,
                volatile,
            } => Op::Ld {
                dst: self.reg(dst),
                addr: self.src(addr),
                cache: *cache,
                volatile: *volatile,
            },
            Instr::St {
                addr,
                src,
                cache,
                volatile,
            } => Op::St {
                addr: self.src(addr),
                src: self.src(src),
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
                addr: self.src(addr),
                expected: self.src(expected),
                desired: self.src(desired),
            },
            Instr::Exch { dst, addr, src } => Op::Exch {
                dst: self.reg(dst),
                addr: self.src(addr),
                src: self.src(src),
            },
            Instr::Inc { dst, addr } => Op::Inc {
                dst: self.reg(dst),
                addr: self.src(addr),
            },
            Instr::Membar { scope } => Op::Fence(*scope),
            Instr::Mov { dst, src } | Instr::Cvt { dst, src } => Op::Mov {
                dst: self.reg(dst),
                src: self.src(src),
            },
            Instr::Add { dst, a, b } | Instr::And { dst, a, b } | Instr::Xor { dst, a, b } => {
                Op::Alu {
                    dst: self.reg(dst),
                    a: self.src(a),
                    b: self.src(b),
                    f: match instr {
                        Instr::Add { .. } => Value::wrapping_add,
                        Instr::And { .. } => Value::bitand,
                        _ => Value::bitxor,
                    },
                }
            }
            Instr::SetpEq { dst, a, b } | Instr::SetpNe { dst, a, b } => Op::Setp {
                dst: self.reg(dst),
                a: self.src(a),
                b: self.src(b),
                eq: matches!(instr, Instr::SetpEq { .. }),
            },
            Instr::Guard {
                pred,
                expect,
                inner,
            } => Op::Guard {
                pred: self.reg(pred),
                expect: *expect,
                inner: Box::new(self.op(inner)),
            },
        }
    }
}

impl Program {
    fn new(instrs: &[Instr]) -> Self {
        let mut c = Compiler {
            labels: BTreeMap::new(),
            regs: Vec::new(),
        };
        for (i, instr) in instrs.iter().enumerate() {
            if let Instr::LabelDef(l) = instr {
                c.labels.insert(l, i);
            }
        }
        let ops = instrs.iter().map(|i| c.op(i)).collect();
        let regs = c.regs;
        let mut by_name: Vec<usize> = (0..regs.len()).collect();
        by_name.sort_unstable_by(|&a, &b| regs[a].cmp(&regs[b]));
        Program { ops, regs, by_name }
    }

    /// A thread about to run from pc 0 under `oracle`. Every register
    /// the code mentions starts at its initial value, so `final_regs` is
    /// total over them.
    fn start(&self, reg_init: &dyn Fn(&Reg) -> Value, oracle: Vec<i64>) -> ThreadState {
        ThreadState {
            pc: 0,
            steps: 0,
            regs: self
                .regs
                .iter()
                .map(|r| Tainted {
                    value: reg_init(r),
                    taint: Taint::default(),
                })
                .collect(),
            path_taint: Taint::default(),
            events: Vec::new(),
            rmw_pairs: Vec::new(),
            oracle,
            oracle_pos: 0,
        }
    }

    /// The trace of a thread that ran to completion.
    fn trace(&self, tid: usize, st: &ThreadState) -> ThreadTrace {
        ThreadTrace {
            tid,
            events: st.events.clone(),
            rmw_pairs: st.rmw_pairs.clone(),
            final_regs: self
                .by_name
                .iter()
                .map(|&r| (self.regs[r].clone(), st.regs[r].value.clone()))
                .collect(),
            oracle: st.oracle[..st.oracle_pos].to_vec(),
        }
    }

    /// Runs `st` until it completes, fails, or reaches a read the oracle
    /// has no value for. A pending read leaves `st` exactly as it was
    /// before that read: supplying a value and calling `run` again
    /// continues the thread as a run from pc 0 under the longer oracle
    /// would, step count included.
    fn run(&self, tid: usize, st: &mut ThreadState, max_steps: usize) -> Result<(), StepFail> {
        while st.pc < self.ops.len() {
            if st.steps >= max_steps {
                return Err(SymError::StepLimit { tid }.into());
            }
            let flow = st.step(tid, &self.ops[st.pc], st.pc, &Taint::default())?;
            st.steps += 1;
            match flow {
                Flow::Next => st.pc += 1,
                Flow::Jump(target) => st.pc = target,
            }
        }
        Ok(())
    }
}

/// The interpreter state of one thread.
struct ThreadState {
    pc: usize,
    /// Instructions executed so far.
    steps: usize,
    /// The register file, by dense index.
    regs: Vec<Tainted>,
    /// Reads that every subsequent event control-depends on (conditional
    /// branches taken so far).
    path_taint: Taint,
    events: Vec<ThreadEvent>,
    rmw_pairs: Vec<(usize, usize)>,
    oracle: Vec<i64>,
    oracle_pos: usize,
}

/// The fields an atomic instruction's read and write events share.
struct Atomic {
    loc: Loc,
    instr_idx: usize,
    addr_deps: Vec<usize>,
    ctrl_deps: Vec<usize>,
}

/// Where a [`ThreadState`] stood at a pending read, minus its register
/// file (which [`enumerate_thread_traces`] keeps in one stack for all
/// checkpoints). Events, RMW pairs and oracle only grow along a path, so
/// their lengths suffice to restore them.
struct Checkpoint {
    pc: usize,
    steps: usize,
    path_taint: Taint,
    events: usize,
    rmw_pairs: usize,
    oracle: usize,
}

impl ThreadState {
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            pc: self.pc,
            steps: self.steps,
            path_taint: self.path_taint.clone(),
            events: self.events.len(),
            rmw_pairs: self.rmw_pairs.len(),
            oracle: self.oracle.len(),
        }
    }

    fn restore(&mut self, cp: &Checkpoint, regs: &[Tainted]) {
        self.pc = cp.pc;
        self.steps = cp.steps;
        self.path_taint.clone_from(&cp.path_taint);
        self.events.truncate(cp.events);
        self.rmw_pairs.truncate(cp.rmw_pairs);
        self.oracle.truncate(cp.oracle);
        self.oracle_pos = cp.oracle;
        self.regs.clone_from_slice(regs);
    }

    fn eval(&self, src: &Src) -> Tainted {
        match src {
            Src::Reg(r) => self.regs[*r].clone(),
            Src::Imm(n) => Tainted {
                value: Value::Int(*n),
                taint: Taint::default(),
            },
            Src::Ptr(p) => Tainted {
                value: p.clone(),
                taint: Taint::default(),
            },
        }
    }

    fn resolve_addr(
        &self,
        src: &Src,
        tid: usize,
        instr_idx: usize,
    ) -> Result<(Loc, Taint), SymError> {
        let t = self.eval(src);
        match t.value {
            Value::Ptr { loc, offset: 0 } => Ok((loc, t.taint)),
            _ => Err(SymError::BadAddress { tid, instr_idx }),
        }
    }

    /// The oracle's value for the next read of `loc`.
    fn next_value(&mut self, loc: &Loc) -> Result<i64, StepFail> {
        let v = *self
            .oracle
            .get(self.oracle_pos)
            .ok_or_else(|| StepFail::NeedValue(loc.clone()))?;
        self.oracle_pos += 1;
        Ok(v)
    }

    /// The reads the next event control-depends on.
    fn ctrl_now(&self, guard_taint: &Taint) -> Taint {
        let mut t = self.path_taint.clone();
        t.union(guard_taint);
        t
    }

    fn int_operand(
        &self,
        src: &Src,
        tid: usize,
        instr_idx: usize,
    ) -> Result<(i64, Taint), SymError> {
        let t = self.eval(src);
        match t.value {
            Value::Int(n) => Ok((n, t.taint)),
            Value::Ptr { .. } => Err(SymError::StoreOfPointer { tid, instr_idx }),
        }
    }

    /// The fields an atomic's read and write events share.
    fn atomic(
        &self,
        loc: Loc,
        addr_taint: &Taint,
        instr_idx: usize,
        guard_taint: &Taint,
    ) -> Atomic {
        Atomic {
            loc,
            instr_idx,
            addr_deps: addr_taint.to_vec(),
            ctrl_deps: self.ctrl_now(guard_taint).to_vec(),
        }
    }

    /// Appends one event of an atomic; returns its local index.
    fn push_atomic(
        &mut self,
        a: &Atomic,
        kind: EventKind,
        value: i64,
        data_deps: Vec<usize>,
    ) -> usize {
        self.events.push(ThreadEvent {
            kind,
            loc: Some(a.loc.clone()),
            value,
            cache: CacheOp::Cg,
            volatile: false,
            atomic: true,
            instr_idx: a.instr_idx,
            addr_deps: a.addr_deps.clone(),
            data_deps,
            ctrl_deps: a.ctrl_deps.clone(),
        });
        self.events.len() - 1
    }

    /// Sets `dst` to the old value an atomic's read event `ridx` returned.
    fn set_old(&mut self, dst: usize, old: i64, ridx: usize) {
        self.regs[dst] = Tainted {
            value: Value::Int(old),
            taint: Taint::single(ridx),
        };
    }

    fn step(
        &mut self,
        tid: usize,
        op: &Op,
        pc: usize,
        guard_taint: &Taint,
    ) -> Result<Flow, StepFail> {
        match op {
            Op::Guard {
                pred,
                expect,
                inner,
            } => {
                let p = self.regs[*pred].clone();
                // A conditional *branch* taints the suffix whether or
                // not it is taken (the decision was made either way).
                if matches!(**inner, Op::Jump(_)) {
                    self.path_taint.union(&p.taint);
                }
                let truth = matches!(p.value, Value::Int(n) if n != 0);
                if truth != *expect {
                    return Ok(Flow::Next);
                }
                let mut gt = guard_taint.clone();
                gt.union(&p.taint);
                self.step(tid, inner, pc, &gt)
            }
            Op::Nop => Ok(Flow::Next),
            Op::Jump(target) => Ok(Flow::Jump(target.expect("labels validated at build time"))),
            Op::Ld {
                dst,
                addr,
                cache,
                volatile,
            } => {
                let (loc, addr_taint) = self.resolve_addr(addr, tid, pc)?;
                let v = self.next_value(&loc)?;
                let idx = self.events.len();
                self.events.push(ThreadEvent {
                    kind: EventKind::Read,
                    loc: Some(loc),
                    value: v,
                    cache: *cache,
                    volatile: *volatile,
                    atomic: false,
                    instr_idx: pc,
                    addr_deps: addr_taint.to_vec(),
                    data_deps: Vec::new(),
                    ctrl_deps: self.ctrl_now(guard_taint).to_vec(),
                });
                self.regs[*dst] = Tainted {
                    value: Value::Int(v),
                    taint: Taint::single(idx),
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
                let (n, data) = self.int_operand(src, tid, pc)?;
                self.events.push(ThreadEvent {
                    kind: EventKind::Write,
                    loc: Some(loc),
                    value: n,
                    cache: *cache,
                    volatile: *volatile,
                    atomic: false,
                    instr_idx: pc,
                    addr_deps: addr_taint.to_vec(),
                    data_deps: data.to_vec(),
                    ctrl_deps: self.ctrl_now(guard_taint).to_vec(),
                });
                Ok(Flow::Next)
            }
            Op::Cas {
                dst,
                addr,
                expected,
                desired,
            } => {
                let (loc, addr_taint) = self.resolve_addr(addr, tid, pc)?;
                let old = self.next_value(&loc)?;
                let (exp_n, exp_taint) = self.int_operand(expected, tid, pc)?;
                let (des_n, des_taint) = self.int_operand(desired, tid, pc)?;
                let mut a = self.atomic(loc, &addr_taint, pc, guard_taint);
                let ridx = self.push_atomic(&a, EventKind::Read, old, Vec::new());
                if old == exp_n {
                    // The write is conditional on the read's value, the
                    // latest read so far.
                    a.ctrl_deps.push(ridx);
                    let mut data = des_taint.to_vec();
                    data.extend(exp_taint.to_vec());
                    let widx = self.push_atomic(&a, EventKind::Write, des_n, data);
                    self.rmw_pairs.push((ridx, widx));
                }
                self.set_old(*dst, old, ridx);
                Ok(Flow::Next)
            }
            Op::Exch { dst, addr, src } => {
                let (loc, addr_taint) = self.resolve_addr(addr, tid, pc)?;
                let old = self.next_value(&loc)?;
                let (n, data) = self.int_operand(src, tid, pc)?;
                let a = self.atomic(loc, &addr_taint, pc, guard_taint);
                let ridx = self.push_atomic(&a, EventKind::Read, old, Vec::new());
                let widx = self.push_atomic(&a, EventKind::Write, n, data.to_vec());
                self.rmw_pairs.push((ridx, widx));
                self.set_old(*dst, old, ridx);
                Ok(Flow::Next)
            }
            Op::Inc { dst, addr } => {
                let (loc, addr_taint) = self.resolve_addr(addr, tid, pc)?;
                let old = self.next_value(&loc)?;
                let a = self.atomic(loc, &addr_taint, pc, guard_taint);
                let ridx = self.push_atomic(&a, EventKind::Read, old, Vec::new());
                // The written value is derived from the read.
                let widx = self.push_atomic(&a, EventKind::Write, old.wrapping_add(1), vec![ridx]);
                self.rmw_pairs.push((ridx, widx));
                self.set_old(*dst, old, ridx);
                Ok(Flow::Next)
            }
            Op::Fence(scope) => {
                self.events.push(ThreadEvent {
                    kind: EventKind::Fence(*scope),
                    loc: None,
                    value: 0,
                    cache: CacheOp::Cg,
                    volatile: false,
                    atomic: false,
                    instr_idx: pc,
                    addr_deps: Vec::new(),
                    data_deps: Vec::new(),
                    ctrl_deps: self.ctrl_now(guard_taint).to_vec(),
                });
                Ok(Flow::Next)
            }
            Op::Mov { dst, src } => {
                self.regs[*dst] = self.eval(src);
                Ok(Flow::Next)
            }
            Op::Alu { dst, a, b, f } => {
                let ta = self.eval(a);
                let tb = self.eval(b);
                let mut taint = ta.taint;
                taint.union(&tb.taint);
                self.regs[*dst] = Tainted {
                    value: f(&ta.value, &tb.value),
                    taint,
                };
                Ok(Flow::Next)
            }
            Op::Setp { dst, a, b, eq } => {
                let ta = self.eval(a);
                let tb = self.eval(b);
                let truth = (ta.value == tb.value) == *eq;
                let mut taint = ta.taint;
                taint.union(&tb.taint);
                self.regs[*dst] = Tainted {
                    value: Value::Int(truth as i64),
                    taint,
                };
                Ok(Flow::Next)
            }
        }
    }
}

enum Flow {
    Next,
    Jump(usize),
}

enum StepFail {
    /// The oracle has no value for the pending read of this location.
    NeedValue(Loc),
    Error(SymError),
}

impl From<SymError> for StepFail {
    fn from(e: SymError) -> Self {
        StepFail::Error(e)
    }
}

/// Unwinds thread `tid` under the given oracle.
///
/// `reg_init` supplies initial register values (default integer 0);
/// `max_steps` bounds the number of executed instructions (loops unroll up
/// to this bound, after which [`SymError::StepLimit`] is reported).
pub fn run_thread(
    tid: usize,
    instrs: &[Instr],
    reg_init: &dyn Fn(&Reg) -> Value,
    oracle: &[i64],
    max_steps: usize,
) -> SymResult {
    let prog = Program::new(instrs);
    let mut st = prog.start(reg_init, oracle.to_vec());
    match prog.run(tid, &mut st, max_steps) {
        Ok(()) => SymResult::Complete(prog.trace(tid, &st)),
        Err(StepFail::NeedValue(loc)) => SymResult::NeedValue { loc },
        Err(StepFail::Error(e)) => SymResult::Error(e),
    }
}

/// Enumerates every trace of a thread in one depth-first walk over its
/// oracles.
///
/// `domains` gives, per location, the candidate values a read of that
/// location may return (the enumerator computes these from the test's
/// writes; see [`crate::enumerate`]); a location without a domain ends
/// the path with no trace. At each pending read the walk checkpoints the
/// thread and runs it on once per domain value, smallest first, so the
/// traces come out in lexicographic oracle order and each shared prefix
/// executes once. The result equals running [`run_thread`] from pc 0 on
/// every oracle in that order: the same traces, the same step counts
/// against `max_steps`, the same first error.
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
    max_steps: usize,
    max_traces: usize,
) -> Result<Vec<ThreadTrace>, SymError> {
    let prog = Program::new(instrs);
    let nregs = prog.regs.len();
    let mut st = prog.start(reg_init, Vec::new());
    let mut traces = Vec::new();
    // One frame per pending read on the current path, deepest last: the
    // checkpoint and the domain values still to try there. Frame `k`'s
    // register file is `saved_regs[k * nregs..][..nregs]`.
    let mut frames: Vec<(Checkpoint, btree_set::Iter<'_, i64>)> = Vec::new();
    let mut saved_regs: Vec<Tainted> = Vec::new();
    loop {
        match prog.run(tid, &mut st, max_steps) {
            Ok(()) => {
                traces.push(prog.trace(tid, &st));
                if traces.len() > max_traces {
                    return Err(SymError::TooManyTraces);
                }
            }
            Err(StepFail::NeedValue(loc)) => {
                if let Some(dom) = domains.get(&loc) {
                    saved_regs.extend_from_slice(&st.regs);
                    frames.push((st.checkpoint(), dom.iter()));
                }
            }
            Err(StepFail::Error(e)) => return Err(e),
        }
        // Resume the deepest pending read with its next value.
        loop {
            let depth = frames.len();
            let Some((cp, values)) = frames.last_mut() else {
                return Ok(traces);
            };
            if let Some(&v) = values.next() {
                st.restore(cp, &saved_regs[(depth - 1) * nregs..][..nregs]);
                st.oracle.push(v);
                break;
            }
            frames.pop();
            saved_regs.truncate(frames.len() * nregs);
        }
    }
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
