//! Compilation of a [`LitmusTest`] into the simulator's internal form:
//! registers and locations resolved to dense indices, labels resolved to
//! instruction offsets, each observed expression of the test's
//! [`ObsLayout`] resolved to the register or location a run reads it
//! from, and the start-of-run images every run copies.

use std::collections::BTreeMap;
use std::fmt;

use weakgpu_litmus::{
    CacheOp, FenceScope, FinalExpr, Instr, Label, LitmusTest, ObsLayout, Operand, Reg, Region,
    Value,
};

/// A compile-time-resolved value: integer or location pointer. `Copy`, for
/// the 100k-iteration hot loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimValue {
    /// An integer.
    Int(i64),
    /// The address of location `LocId`.
    Ptr(u32),
}

impl SimValue {
    /// The integer payload, or 0 for pointers (hardware register readout).
    pub fn as_int(self) -> i64 {
        match self {
            SimValue::Int(n) => n,
            SimValue::Ptr(_) => 0,
        }
    }
}

/// A resolved operand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimOperand {
    /// Register index (within the thread).
    Reg(u32),
    /// Immediate.
    Imm(i64),
    /// Address of a location.
    Sym(u32),
}

/// A resolved instruction. Mirrors [`weakgpu_litmus::Instr`] with indices
/// instead of names; `Bra` targets are instruction offsets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimOp {
    /// Load.
    Ld {
        /// Destination register.
        dst: u32,
        /// Address operand.
        addr: SimOperand,
        /// Cache operator.
        cache: CacheOp,
        /// Volatile marker.
        volatile: bool,
    },
    /// Store.
    St {
        /// Address operand.
        addr: SimOperand,
        /// Source operand.
        src: SimOperand,
        /// Volatile marker.
        volatile: bool,
    },
    /// Compare-and-swap.
    Cas {
        /// Destination (old value).
        dst: u32,
        /// Address operand.
        addr: SimOperand,
        /// Expected value.
        expected: SimOperand,
        /// Swapped-in value.
        desired: SimOperand,
    },
    /// Atomic exchange.
    Exch {
        /// Destination (old value).
        dst: u32,
        /// Address operand.
        addr: SimOperand,
        /// New value.
        src: SimOperand,
    },
    /// Atomic increment.
    Inc {
        /// Destination (old value).
        dst: u32,
        /// Address operand.
        addr: SimOperand,
    },
    /// Fence.
    Membar(FenceScope),
    /// Register move.
    Mov {
        /// Destination register.
        dst: u32,
        /// Source.
        src: SimOperand,
    },
    /// Addition (pointer-aware).
    Add {
        /// Destination register.
        dst: u32,
        /// Left operand.
        a: SimOperand,
        /// Right operand.
        b: SimOperand,
    },
    /// Bitwise and.
    And {
        /// Destination register.
        dst: u32,
        /// Left operand.
        a: SimOperand,
        /// Right operand.
        b: SimOperand,
    },
    /// Bitwise xor.
    Xor {
        /// Destination register.
        dst: u32,
        /// Left operand.
        a: SimOperand,
        /// Right operand.
        b: SimOperand,
    },
    /// Width conversion (value-preserving).
    Cvt {
        /// Destination register.
        dst: u32,
        /// Source.
        src: SimOperand,
    },
    /// Set predicate if equal.
    SetpEq {
        /// Destination predicate register.
        dst: u32,
        /// Left operand.
        a: SimOperand,
        /// Right operand.
        b: SimOperand,
    },
    /// Set predicate if not equal.
    SetpNe {
        /// Destination predicate register.
        dst: u32,
        /// Left operand.
        a: SimOperand,
        /// Right operand.
        b: SimOperand,
    },
    /// Jump to instruction offset.
    Bra(u32),
    /// No-op (label definitions compile to this).
    Nop,
}

/// One instruction slot: the op plus an optional predicate guard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimInstr {
    /// The operation.
    pub op: SimOp,
    /// Guard: `(pred register, expected truth)`.
    pub guard: Option<(u32, bool)>,
    /// The registers the instruction reads (its guard and operands), as
    /// [`reg_bit`]s: the machine issues it when none of them awaits a
    /// value. Exact when the program is [`SimProgram::narrow`].
    pub(crate) reads: u64,
}

impl SimInstr {
    /// The registers the instruction reads: its guard, then its operands.
    pub(crate) fn read_regs(&self) -> impl Iterator<Item = u32> {
        let reg = |o: SimOperand| match o {
            SimOperand::Reg(r) => Some(r),
            SimOperand::Imm(_) | SimOperand::Sym(_) => None,
        };
        let operands = match self.op {
            SimOp::Ld { addr, .. } | SimOp::Inc { addr, .. } => [reg(addr), None, None],
            SimOp::St { addr, src, .. } | SimOp::Exch { addr, src, .. } => {
                [reg(addr), reg(src), None]
            }
            SimOp::Cas {
                addr,
                expected,
                desired,
                ..
            } => [reg(addr), reg(expected), reg(desired)],
            SimOp::Mov { src, .. } | SimOp::Cvt { src, .. } => [reg(src), None, None],
            SimOp::Add { a, b, .. }
            | SimOp::And { a, b, .. }
            | SimOp::Xor { a, b, .. }
            | SimOp::SetpEq { a, b, .. }
            | SimOp::SetpNe { a, b, .. } => [reg(a), reg(b), None],
            SimOp::Membar(_) | SimOp::Bra(_) | SimOp::Nop => [None; 3],
        };
        self.guard
            .map(|(p, _)| p)
            .into_iter()
            .chain(operands.into_iter().flatten())
    }
}

/// The bit of register `r` in a register mask. Registers past 63 share
/// bits, so masks are exact only for threads of at most 64 registers.
pub(crate) fn reg_bit(r: u32) -> u64 {
    1 << (r % 64)
}

/// A location's static properties.
#[derive(Clone, Debug)]
pub struct LocInfo {
    /// Region.
    pub region: Region,
    /// Initial value.
    pub init: i64,
}

/// What to record after a run.
#[derive(Clone, Debug)]
pub enum ObsTarget {
    /// `(thread, register index)`.
    Reg(usize, u32),
    /// Location id.
    Mem(u32),
}

/// A compiled litmus test.
#[derive(Clone, Debug)]
pub struct SimProgram {
    /// Per-thread code.
    pub threads: Vec<Vec<SimInstr>>,
    /// Per-thread register initial values.
    pub reg_init: Vec<Vec<SimValue>>,
    /// Location table.
    pub locs: Vec<LocInfo>,
    /// CTA index per thread.
    pub thread_cta: Vec<usize>,
    /// Number of CTAs in the scope tree.
    pub num_ctas: usize,
    /// The test's observation layout: a run's observation vector holds
    /// one value per expression of `layout.exprs()`.
    pub layout: ObsLayout,
    /// Where a run reads each observed value, aligned with
    /// `layout.exprs()`.
    pub observed: Vec<ObsTarget>,
    /// `true` when the test's threads span multiple CTAs (controls the
    /// cta-fence leak sampling).
    pub spans_ctas: bool,
    /// Whether every thread has at most 64 registers, so that
    /// [`SimInstr`]'s read masks are exact. The machine tests the operands
    /// of a wider program one by one instead.
    pub(crate) narrow: bool,
    /// Whether each thread is [order-free](order_free): once it is the
    /// only unfinished thread, the order in which its pending ops perform
    /// cannot change the outcome, so the machine finishes it in program
    /// order.
    pub(crate) order_free: Vec<bool>,
    /// Whether some location is in shared memory; without one, a run
    /// keeps no shared-memory image.
    pub(crate) has_shared: bool,
    /// Whether some load is `.ca`; without one, no load reads an L1 line,
    /// so a run keeps no L1 model and draws nothing for it.
    pub(crate) l1_live: bool,
    /// The CTA whose shared-memory instance of each location the test
    /// uses (meaningful for `Region::Shared` locations only).
    pub(crate) shared_owner: Vec<usize>,
    /// Every location's initial value, by location id: the memory image
    /// a run starts from, in the L2 and in each CTA's shared memory.
    pub(crate) mem_init: Vec<i64>,
    /// The ids of the global locations, in id order: the candidates for
    /// L1 preload.
    pub(crate) global_locs: Vec<u32>,
}

/// Compilation failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// The condition observes a register never used by its thread.
    UnknownObservedReg(usize, String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownObservedReg(t, r) => {
                write!(f, "final condition observes unused register {t}:{r}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl SimProgram {
    /// Compiles a validated litmus test.
    ///
    /// # Errors
    ///
    /// Fails if the final condition observes a register its thread never
    /// mentions (the value would be meaningless).
    pub fn compile<'a>(test: &'a LitmusTest) -> Result<SimProgram, CompileError> {
        // Locations and registers are keyed by the test's own names,
        // borrowed.
        let mut loc_ids: BTreeMap<&str, u32> = BTreeMap::new();
        let mut locs: Vec<LocInfo> = Vec::new();
        for (loc, mi) in test.memory().iter() {
            loc_ids.insert(loc.as_str(), locs.len() as u32);
            locs.push(LocInfo {
                region: mi.region,
                init: mi.init,
            });
        }

        let mut threads = Vec::new();
        let mut reg_init = Vec::new();
        let mut reg_maps: Vec<BTreeMap<&str, u32>> = Vec::new();
        for (tid, code) in test.threads().iter().enumerate() {
            let mut regs: BTreeMap<&str, u32> = BTreeMap::new();
            let mut inits: Vec<SimValue> = Vec::new();
            let reg_id = |name: &'a Reg,
                          regs: &mut BTreeMap<&'a str, u32>,
                          inits: &mut Vec<SimValue>|
             -> u32 {
                if let Some(&id) = regs.get(name.as_str()) {
                    return id;
                }
                let id = inits.len() as u32;
                regs.insert(name.as_str(), id);
                let v = test.reg_init_value(tid, name);
                inits.push(match v {
                    Value::Int(n) => SimValue::Int(n),
                    Value::Ptr { loc, .. } => {
                        SimValue::Ptr(*loc_ids.get(loc.as_str()).expect("validated pointer target"))
                    }
                });
                id
            };

            // Label offsets (on the original instruction indexing, which we
            // preserve one-to-one with Nop for label defs).
            let mut label_off: BTreeMap<&Label, u32> = BTreeMap::new();
            for (i, instr) in code.iter().enumerate() {
                if let Instr::LabelDef(l) = instr {
                    label_off.insert(l, i as u32);
                }
            }

            let mut compiled = Vec::with_capacity(code.len());
            for instr in code {
                let mut instr = compile_instr(
                    instr,
                    &mut |n| reg_id(n, &mut regs, &mut inits),
                    &loc_ids,
                    &label_off,
                );
                instr.reads = instr.read_regs().fold(0, |m, r| m | reg_bit(r));
                compiled.push(instr);
            }
            threads.push(compiled);
            reg_init.push(inits);
            reg_maps.push(regs);
        }

        let thread_cta: Vec<usize> = (0..test.num_threads())
            .map(|t| test.scope_tree().placement(t).cta)
            .collect();
        let num_ctas = test.scope_tree().num_ctas();

        let layout = ObsLayout::new(test.cond());
        let mut observed = Vec::with_capacity(layout.exprs().len());
        for expr in layout.exprs() {
            let target = match expr {
                FinalExpr::Reg(t, r) => {
                    let id = reg_maps
                        .get(*t)
                        .and_then(|m| m.get(r.as_str()))
                        .copied()
                        .ok_or_else(|| {
                            CompileError::UnknownObservedReg(*t, r.as_str().to_owned())
                        })?;
                    ObsTarget::Reg(*t, id)
                }
                FinalExpr::Mem(l) => ObsTarget::Mem(
                    *loc_ids
                        .get(l.as_str())
                        .expect("condition locations validated"),
                ),
            };
            observed.push(target);
        }

        let shared_owner = (0..locs.len() as u32)
            .map(|l| shared_owner_cta(&threads, &thread_cta, l))
            .collect();
        let mem_init: Vec<i64> = locs.iter().map(|l| l.init).collect();
        let global_locs = (0..locs.len() as u32)
            .filter(|&l| locs[l as usize].region == Region::Global)
            .collect();

        let l1_live = threads.iter().flatten().any(|i| {
            matches!(
                i.op,
                SimOp::Ld {
                    cache: CacheOp::Ca,
                    ..
                }
            )
        });

        Ok(SimProgram {
            order_free: threads.iter().map(|code| order_free(code)).collect(),
            threads,
            narrow: reg_init.iter().all(|regs| regs.len() <= 64),
            reg_init,
            has_shared: locs.iter().any(|l| l.region == Region::Shared),
            l1_live,
            mem_init,
            locs,
            spans_ctas: num_ctas > 1,
            thread_cta,
            num_ctas,
            layout,
            observed,
            shared_owner,
            global_locs,
        })
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }
}

/// Whether a thread of code `code` is order-free: once it runs alone,
/// every order in which its pending ops may perform gives the same
/// outcome. That holds when it has
///
/// * no backward branch, so it cannot spin;
/// * no `.ca` load, so L1 contents are dead state to it;
/// * no register that is the destination both of an asynchronous op (a
///   load or an RMW, which write their register when they perform) and of
///   any other instruction. An instruction issues once the registers it
///   *reads* are ready, so in `ld r1,[x]; mov r1,2` the `mov` may issue
///   before the load performs, and the final `r1` depends on that order.
///
/// With these, each register an instruction reads holds its program-order
/// value when the instruction issues. Registers are compared by
/// [`reg_bit`], so on a thread of more than 64 registers two of them may
/// look like one: the test errs towards "not order-free".
fn order_free(code: &[SimInstr]) -> bool {
    // The registers written at all, written twice, and written late.
    let (mut written, mut twice, mut late) = (0u64, 0u64, 0u64);
    for (i, instr) in code.iter().enumerate() {
        let (dst, is_late) = match instr.op {
            SimOp::Ld {
                cache: CacheOp::Ca, ..
            } => return false,
            SimOp::Bra(target) if target as usize <= i => return false,
            SimOp::Ld { dst, .. }
            | SimOp::Cas { dst, .. }
            | SimOp::Exch { dst, .. }
            | SimOp::Inc { dst, .. } => (dst, true),
            SimOp::Mov { dst, .. }
            | SimOp::Cvt { dst, .. }
            | SimOp::Add { dst, .. }
            | SimOp::And { dst, .. }
            | SimOp::Xor { dst, .. }
            | SimOp::SetpEq { dst, .. }
            | SimOp::SetpNe { dst, .. } => (dst, false),
            SimOp::St { .. } | SimOp::Membar(_) | SimOp::Bra(_) | SimOp::Nop => continue,
        };
        let bit = reg_bit(dst);
        twice |= written & bit;
        written |= bit;
        if is_late {
            late |= bit;
        }
    }
    twice & late == 0
}

/// The CTA whose shared-memory instance of `loc` the test uses
/// (validation guarantees a single CTA accesses each shared location).
fn shared_owner_cta(threads: &[Vec<SimInstr>], thread_cta: &[usize], loc: u32) -> usize {
    for (tid, code) in threads.iter().enumerate() {
        for instr in code {
            let addr = match instr.op {
                SimOp::Ld { addr, .. } | SimOp::St { addr, .. } => Some(addr),
                SimOp::Cas { addr, .. } | SimOp::Exch { addr, .. } | SimOp::Inc { addr, .. } => {
                    Some(addr)
                }
                _ => None,
            };
            if addr == Some(SimOperand::Sym(loc)) {
                return thread_cta[tid];
            }
        }
    }
    0
}

fn compile_operand<'a>(
    op: &'a Operand,
    reg: &mut dyn FnMut(&'a Reg) -> u32,
    locs: &BTreeMap<&str, u32>,
) -> SimOperand {
    match op {
        Operand::Reg(r) => SimOperand::Reg(reg(r)),
        Operand::Imm(n) => SimOperand::Imm(*n),
        Operand::Sym(l) => SimOperand::Sym(*locs.get(l.as_str()).expect("validated location")),
    }
}

fn compile_instr<'a>(
    instr: &'a Instr,
    reg: &mut dyn FnMut(&'a Reg) -> u32,
    locs: &BTreeMap<&str, u32>,
    labels: &BTreeMap<&Label, u32>,
) -> SimInstr {
    match instr {
        Instr::Guard {
            pred,
            expect,
            inner,
        } => {
            let mut compiled = compile_instr(inner, reg, locs, labels);
            compiled.guard = Some((reg(pred), *expect));
            compiled
        }
        other => SimInstr {
            guard: None,
            op: compile_op(other, reg, locs, labels),
            reads: 0,
        },
    }
}

fn compile_op<'a>(
    instr: &'a Instr,
    reg: &mut dyn FnMut(&'a Reg) -> u32,
    locs: &BTreeMap<&str, u32>,
    labels: &BTreeMap<&Label, u32>,
) -> SimOp {
    let operand =
        |o: &'a Operand, reg: &mut dyn FnMut(&'a Reg) -> u32| compile_operand(o, reg, locs);
    match instr {
        Instr::Ld {
            dst,
            addr,
            cache,
            volatile,
        } => SimOp::Ld {
            dst: reg(dst),
            addr: operand(addr, reg),
            cache: *cache,
            volatile: *volatile,
        },
        Instr::St {
            addr,
            src,
            volatile,
            ..
        } => SimOp::St {
            addr: operand(addr, reg),
            src: operand(src, reg),
            volatile: *volatile,
        },
        Instr::Cas {
            dst,
            addr,
            expected,
            desired,
        } => SimOp::Cas {
            dst: reg(dst),
            addr: operand(addr, reg),
            expected: operand(expected, reg),
            desired: operand(desired, reg),
        },
        Instr::Exch { dst, addr, src } => SimOp::Exch {
            dst: reg(dst),
            addr: operand(addr, reg),
            src: operand(src, reg),
        },
        Instr::Inc { dst, addr } => SimOp::Inc {
            dst: reg(dst),
            addr: operand(addr, reg),
        },
        Instr::Membar { scope } => SimOp::Membar(*scope),
        Instr::Mov { dst, src } => SimOp::Mov {
            dst: reg(dst),
            src: operand(src, reg),
        },
        Instr::Add { dst, a, b } => SimOp::Add {
            dst: reg(dst),
            a: operand(a, reg),
            b: operand(b, reg),
        },
        Instr::And { dst, a, b } => SimOp::And {
            dst: reg(dst),
            a: operand(a, reg),
            b: operand(b, reg),
        },
        Instr::Xor { dst, a, b } => SimOp::Xor {
            dst: reg(dst),
            a: operand(a, reg),
            b: operand(b, reg),
        },
        Instr::Cvt { dst, src } => SimOp::Cvt {
            dst: reg(dst),
            src: operand(src, reg),
        },
        Instr::SetpEq { dst, a, b } => SimOp::SetpEq {
            dst: reg(dst),
            a: operand(a, reg),
            b: operand(b, reg),
        },
        Instr::SetpNe { dst, a, b } => SimOp::SetpNe {
            dst: reg(dst),
            a: operand(a, reg),
            b: operand(b, reg),
        },
        Instr::Bra { target } => SimOp::Bra(*labels.get(target).expect("validated label")),
        Instr::LabelDef(_) => SimOp::Nop,
        Instr::Guard { .. } => unreachable!("guards handled by compile_instr"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakgpu_litmus::corpus;

    #[test]
    fn compiles_corr() {
        let p = SimProgram::compile(&corpus::corr()).unwrap();
        assert_eq!(p.num_threads(), 2);
        assert_eq!(p.locs.len(), 1);
        assert_eq!(p.locs[0].region, Region::Global);
        assert!(!p.spans_ctas); // intra-CTA
        assert_eq!(p.observed.len(), 2);
        // T1 has two loads into distinct registers.
        assert_eq!(p.threads[1].len(), 2);
        assert!(matches!(p.threads[1][0].op, SimOp::Ld { .. }));
    }

    #[test]
    fn compiles_guards_and_labels() {
        let p = SimProgram::compile(&corpus::cas_sl(true)).unwrap();
        // T1: cas, setp, @p membar, @p ld.
        let t1 = &p.threads[1];
        assert_eq!(t1.len(), 4);
        assert!(t1[2].guard.is_some());
        assert!(t1[3].guard.is_some());
        assert!(matches!(t1[0].op, SimOp::Cas { .. }));
        assert!(p.spans_ctas);
    }

    #[test]
    fn pointer_reg_init_resolved() {
        use weakgpu_litmus::ThreadScope;
        let t = corpus::mp_dep(ThreadScope::InterCta, weakgpu_litmus::FenceScope::Gl);
        let p = SimProgram::compile(&t).unwrap();
        // T1's r4 starts as a pointer to x.
        let has_ptr = p.reg_init[1].iter().any(|v| matches!(v, SimValue::Ptr(_)));
        assert!(has_ptr);
    }

    #[test]
    fn whole_corpus_compiles() {
        for t in corpus::all() {
            let p = SimProgram::compile(&t).unwrap_or_else(|e| panic!("{}: {e}", t.name()));
            assert_eq!(p.num_threads(), t.num_threads());
        }
    }

    #[test]
    fn shared_region_recorded() {
        let p = SimProgram::compile(&corpus::mp_volatile()).unwrap();
        assert!(p.locs.iter().all(|l| l.region == Region::Shared));
    }
}
