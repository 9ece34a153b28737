//! Compiled relational evaluation plans for `.cat` programs.
//!
//! [`CatProgram::check`](crate::cat::CatProgram::check) interprets the
//! `.cat` AST afresh for every execution: every identifier goes through a
//! `String`-keyed map, every `let` binding is cloned at each use, and
//! every operator allocates a new bit matrix. That is fine for a single
//! verdict and ruinous for the paper's Sec. 5.4 workload, where one model
//! is evaluated over thousands of candidate executions per test.
//!
//! [`Plan::compile`] lowers a parsed program into a register machine
//! once:
//!
//! * **Names become slots.** Base relations (`po`, `rf`, …) are interned
//!   into dense base slots, each resolved to the relation of the
//!   candidate it reads; `let` bindings and subexpressions become
//!   numbered registers. No string lookup survives to evaluation time
//!   (an unknown base name still fails there, when a check needs it).
//! * **Bindings are shared.** Every `let` is compiled exactly once, and
//!   common subexpressions are eliminated across the *whole* program
//!   (union/intersection operands are order-normalised first), so a
//!   binding referenced by three checks is computed once per execution.
//! * **Functions are inlined.** `f(e)` applications are expanded at
//!   compile time with the parameter bound to the argument's register,
//!   mirroring the interpreter's dynamic scoping.
//! * **Checks are scheduled cheapest-first.** Each check records the
//!   registers it transitively needs and a cost estimate;
//!   [`Plan::allows_view`] evaluates checks in ascending cost order,
//!   materialising only the registers (and base relations) the next check
//!   needs, and short-circuits on the first failure. The full-outcome
//!   mode ([`Plan::check_view`]) keeps the program's own order and
//!   evaluates everything, matching the interpreter statement for
//!   statement.
//!
//! The plan judges streamed candidates ([`ExecutionView`]s, the form
//! [`crate::enumerate::for_each_execution`] hands out) and, for the
//! differential tests, the interpreter's own name-keyed environment
//! ([`Plan::allows_in_env`]). An owned [`crate::Execution`] is judged by
//! the interpreter ([`crate::CatModel::check`]), which shares no
//! evaluation code with the plan.
//!
//! Evaluation happens inside an [`EvalContext`]: an arena of
//! [`Relation`]/[`EventSet`] buffers (plus DFS scratch for acyclicity
//! over more than 64 events) that is reused across candidates. The
//! context keys its arena on the view's skeleton and overlay stamps:
//! registers that read only skeleton-derived relations are computed once
//! per skeleton, and only the rf/co-derived bases and the registers
//! above them are recomputed for each candidate. Once the arena is warm,
//! evaluating the next candidate performs **zero heap allocation**.
//!
//! ```
//! use std::ops::ControlFlow;
//! use weakgpu_axiom::plan::{EvalContext, Plan};
//! use weakgpu_axiom::cat::CatProgram;
//! use weakgpu_axiom::enumerate::{for_each_execution, EnumConfig};
//! use weakgpu_litmus::{corpus, ThreadScope};
//!
//! let program = CatProgram::parse("let com = rf | co | fr\nacyclic (po | com) as sc").unwrap();
//! let plan = Plan::compile(&program).unwrap();
//! let mut ctx = EvalContext::new();
//! let test = corpus::sb(ThreadScope::IntraCta, None);
//! let (mut candidates, mut allowed) = (0, 0);
//! for_each_execution(&test, &EnumConfig::default(), |view| {
//!     candidates += 1;
//!     allowed += usize::from(plan.allows_view(&mut ctx, view).unwrap());
//!     ControlFlow::<()>::Continue(())
//! })
//! .unwrap();
//! assert!(allowed > 0 && allowed < candidates);
//! ```

use std::collections::{BTreeMap, HashMap};
use std::mem;

use weakgpu_front::MAX_DEPTH;
use weakgpu_litmus::FenceScope;

use crate::cat::{CatError, CatProgram, CheckKind, CheckOutcome, Expr, Stmt};
use crate::relation::{EventSet, Relation};
use crate::skeleton::{next_stamp, ExecutionView};

/// An operand: a base-relation slot or the result register of an op.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum Src {
    /// An interned base relation, filled from the execution (or
    /// environment) once per evaluation.
    Base(usize),
    /// The result of `ops[i]`.
    Reg(usize),
}

/// Event sorts for the `WW`/`WR`/`RW`/`RR` filters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Sort {
    Reads,
    Writes,
}

/// One register-machine instruction; instruction `i` writes register `i`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Op {
    /// The empty relation.
    Zero,
    /// `a ∪ b` (operands order-normalised at compile time).
    Union(Src, Src),
    /// An n-ary union: `len` operands starting at `start` in the plan's
    /// operand table (sorted and deduplicated, so structurally equal
    /// unions intern to the same table slice and CSE applies). Union
    /// *trees* (`a | b | c | …`) fuse into one instruction instead of a
    /// chain of intermediate registers.
    UnionN { start: u32, len: u32 },
    /// `a ∩ b` (operands order-normalised at compile time).
    Inter(Src, Src),
    /// `a \ b`.
    Diff(Src, Src),
    /// `a ; b`.
    Seq(Src, Src),
    /// `a^-1`.
    Inverse(Src),
    /// `a+`.
    Plus(Src),
    /// `a*`.
    Star(Src),
    /// `a?`.
    Opt(Src),
    /// Sort filter: pairs of `a` from `dom`-events to `rng`-events.
    Restrict(Src, Sort, Sort),
}

impl Op {
    /// Rough per-evaluation cost, used to order checks cheapest-first.
    fn cost(self) -> u64 {
        match self {
            Op::Zero => 0,
            Op::Union(..) | Op::Inter(..) | Op::Diff(..) | Op::Opt(_) | Op::Restrict(..) => 1,
            Op::UnionN { len, .. } => u64::from(len.saturating_sub(1)).max(1),
            Op::Inverse(_) => 2,
            Op::Seq(..) => 4,
            Op::Plus(_) | Op::Star(_) => 16,
        }
    }

    /// Calls `f` for every operand source. `operands` is the plan's
    /// n-ary operand table.
    fn for_each_src(self, operands: &[Src], mut f: impl FnMut(Src)) {
        match self {
            Op::Zero => {}
            Op::Union(a, b) | Op::Inter(a, b) | Op::Diff(a, b) | Op::Seq(a, b) => {
                f(a);
                f(b);
            }
            Op::UnionN { start, len } => {
                for &s in &operands[start as usize..(start + len) as usize] {
                    f(s);
                }
            }
            Op::Inverse(a) | Op::Plus(a) | Op::Star(a) | Op::Opt(a) | Op::Restrict(a, ..) => {
                f(a);
            }
        }
    }
}

/// One compiled check.
#[derive(Clone, Debug)]
struct PlanCheck {
    name: String,
    kind: CheckKind,
    src: Src,
    /// Registers this check transitively needs, ascending (= topological)
    /// order.
    deps: Vec<usize>,
    /// Estimated evaluation cost (see [`Op::cost`]).
    cost: u64,
}

/// A `.cat` program compiled to a reusable evaluation plan.
///
/// Compile once per model (e.g. in [`CatModel::new`](crate::CatModel)),
/// then evaluate over any number of streamed candidates through a
/// shared [`EvalContext`].
#[derive(Clone, Debug)]
pub struct Plan {
    /// Process-unique plan identity, for [`EvalContext`] cache keying
    /// (cloned plans share semantics, so they share the id).
    id: u64,
    /// Interned base-relation names, indexed by slot.
    base_names: Vec<String>,
    /// What each base slot reads, resolved from its name at compile
    /// time, so evaluation never matches a string.
    bases: Vec<BaseRel>,
    ops: Vec<Op>,
    /// Operand table for n-ary instructions ([`Op::UnionN`]).
    operands: Vec<Src>,
    checks: Vec<PlanCheck>,
    /// Check indices in ascending cost order (the `allows` schedule).
    fast_order: Vec<usize>,
    /// Per op: `true` iff it transitively reads an overlay base.
    op_overlay: Vec<bool>,
    /// For an `rfe`/`rfi`/`coe`/`coi`/`fre`/`fri` slot: the slot of the
    /// plain `rf`/`co`/`fr` base, when the plan also reads it. On the
    /// view path the variant is then one intersection off the plain
    /// relation instead of a fresh fill.
    plain_slot: Vec<Option<usize>>,
}

/// A communication relation: the rf/co overlay and what derives from it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Comm {
    Rf,
    Co,
    Fr,
}

/// Where a base relation comes from, resolved from its `.cat` name once
/// by [`Plan::compile`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BaseRel {
    Po,
    PoLoc,
    Addr,
    Data,
    Ctrl,
    Rmw,
    Ext,
    Int,
    Loc,
    Id,
    Fence(FenceScope),
    Cta,
    /// `gl` and `sys`: every pair.
    Full,
    /// `rf`, `co` or `fr`.
    Comm(Comm),
    /// `rfe`/`coe`/`fre` (`external`) or `rfi`/`coi`/`fri`: a
    /// communication relation restricted to external or internal pairs.
    Split {
        comm: Comm,
        external: bool,
    },
    /// A name the execution layer does not define: evaluating it fails
    /// with an `unbound identifier` error, as the interpreter's would.
    Unknown,
}

impl BaseRel {
    fn resolve(name: &str) -> BaseRel {
        let split = |comm, external| BaseRel::Split { comm, external };
        match name {
            "po" => BaseRel::Po,
            "po-loc" => BaseRel::PoLoc,
            "addr" => BaseRel::Addr,
            "data" => BaseRel::Data,
            "ctrl" => BaseRel::Ctrl,
            "rmw" => BaseRel::Rmw,
            "ext" => BaseRel::Ext,
            "int" => BaseRel::Int,
            "loc" => BaseRel::Loc,
            "id" => BaseRel::Id,
            "membar.cta" => BaseRel::Fence(FenceScope::Cta),
            "membar.gl" => BaseRel::Fence(FenceScope::Gl),
            "membar.sys" => BaseRel::Fence(FenceScope::Sys),
            "cta" => BaseRel::Cta,
            "gl" | "sys" => BaseRel::Full,
            "rf" => BaseRel::Comm(Comm::Rf),
            "co" => BaseRel::Comm(Comm::Co),
            "fr" => BaseRel::Comm(Comm::Fr),
            "rfe" => split(Comm::Rf, true),
            "rfi" => split(Comm::Rf, false),
            "coe" => split(Comm::Co, true),
            "coi" => split(Comm::Co, false),
            "fre" => split(Comm::Fr, true),
            "fri" => split(Comm::Fr, false),
            _ => BaseRel::Unknown,
        }
    }

    /// `true` for base relations derived from the rf/co overlay, which
    /// every candidate of a skeleton redefines.
    fn is_overlay(self) -> bool {
        matches!(self, BaseRel::Comm(_) | BaseRel::Split { .. })
    }
}

/// Where base relations come from during one evaluation.
enum EnvSource<'a> {
    /// Copy from a name-keyed environment (the interpreter's input
    /// format; used by the differential tests).
    Map(&'a BTreeMap<String, Relation>),
    /// Fill from a streamed skeleton/overlay view: skeleton-derived
    /// bases are borrowed from the shared skeleton (and survive overlay
    /// changes), rf/co-derived ones are refilled per candidate.
    View(&'a ExecutionView<'a>),
}

/// The reusable evaluation arena: registers, base-relation buffers, the
/// read/write event sets and DFS scratch. One context serves any number
/// of plans and candidates; buffers grow to the high-water mark and are
/// then reused, so steady-state evaluation allocates nothing.
#[derive(Default, Debug)]
pub struct EvalContext {
    /// Evaluation generation, bumped per candidate; an overlay-dependent
    /// register/base is valid iff its recorded epoch equals this.
    epoch: u64,
    /// The epoch at which the current skeleton was entered;
    /// skeleton-derived registers/bases are valid iff their recorded
    /// epoch is `>= skel_epoch`, so they survive overlay changes.
    skel_epoch: u64,
    /// Identity of the plan whose slots currently populate the arena
    /// (slot numbering is per-plan); 0 = none.
    plan_id: u64,
    /// Stamp of the skeleton currently materialised; 0 = none.
    skel_id: u64,
    /// Stamp of the overlay last evaluated; 0 = none.
    overlay_gen: u64,
    /// Universe size of the current evaluation.
    n: usize,
    bases: Vec<Relation>,
    base_epoch: Vec<u64>,
    regs: Vec<Relation>,
    reg_epoch: Vec<u64>,
    reads: EventSet,
    writes: EventSet,
    scratch_a: Relation,
    colour: Vec<u8>,
    stack: Vec<(usize, usize)>,
    /// Adaptive check schedule for the fast path: starts as the plan's
    /// static cheapest-first order, then failing checks move to the
    /// front — the check that forbids one candidate of a test usually
    /// forbids the next one too, so it is tried first.
    fast_order: Vec<usize>,
    /// The plan `fast_order` belongs to (0 = none).
    fast_order_plan: u64,
}

impl EvalContext {
    /// An empty context; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        EvalContext::default()
    }

    /// Starts a fresh evaluation: bumps the epoch (invalidating all
    /// cached registers and bases, skeleton-derived ones included) and
    /// sizes the arena for `plan` and universe `n`.
    fn begin(&mut self, plan: &Plan, n: usize) {
        self.epoch += 1;
        self.skel_epoch = self.epoch;
        self.plan_id = 0;
        self.skel_id = 0;
        self.overlay_gen = 0;
        self.n = n;
        if self.bases.len() < plan.bases.len() {
            self.bases.resize_with(plan.bases.len(), Relation::default);
        }
        self.base_epoch.resize(self.bases.len(), 0);
        if self.regs.len() < plan.ops.len() {
            self.regs.resize_with(plan.ops.len(), Relation::default);
        }
        self.reg_epoch.resize(self.regs.len(), 0);
    }

    fn src_rel(&self, s: Src) -> &Relation {
        match s {
            Src::Base(i) => &self.bases[i],
            Src::Reg(i) => &self.regs[i],
        }
    }
}

// ---------------------------------------------------------------- compile

#[derive(Clone)]
enum Binding {
    Rel(Src),
    Fun { param: String, body: Expr },
}

struct Compiler {
    base_names: Vec<String>,
    base_slots: HashMap<String, usize>,
    ops: Vec<Op>,
    operands: Vec<Src>,
    /// Interns sorted n-ary operand lists, so structurally equal unions
    /// share one table slice (and therefore CSE to one register).
    operand_intern: HashMap<Vec<Src>, (u32, u32)>,
    cse: HashMap<Op, usize>,
    lets: HashMap<String, Binding>,
    /// Levels of the expression being compiled, counting those of every
    /// inlined body (see [`Compiler::deeper`]).
    depth: usize,
}

impl Compiler {
    fn base(&mut self, name: &str) -> Src {
        if let Some(&slot) = self.base_slots.get(name) {
            return Src::Base(slot);
        }
        let slot = self.base_names.len();
        self.base_names.push(name.to_owned());
        self.base_slots.insert(name.to_owned(), slot);
        Src::Base(slot)
    }

    /// Emits `op`, reusing an existing register for a structurally
    /// identical instruction (common-subexpression elimination).
    fn emit(&mut self, op: Op) -> Src {
        if let Some(&reg) = self.cse.get(&op) {
            return Src::Reg(reg);
        }
        self.ops.push(op);
        let reg = self.ops.len() - 1;
        self.cse.insert(op, reg);
        Src::Reg(reg)
    }

    /// Emits a commutative op with order-normalised operands, so `a | b`
    /// and `b | a` share one register.
    fn emit_comm(&mut self, mk: fn(Src, Src) -> Op, a: Src, b: Src) -> Src {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.emit(mk(lo, hi))
    }

    /// One level deeper, or an error past [`MAX_DEPTH`]. Parsed
    /// expressions are within it, and an inlined body's levels add to
    /// those of its application site, so a chain of inlined functions or a
    /// recursive one cannot overflow the stack.
    fn deeper(&mut self) -> Result<(), CatError> {
        if self.depth == MAX_DEPTH {
            return Err(CatError::new(format!(
                "expression nests deeper than {MAX_DEPTH} levels with its functions inlined"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    /// Compiles the leaves of a union tree (`a | b | c | …`) at the
    /// union's level in source order.
    fn union_leaves(&mut self, e: &Expr, out: &mut Vec<Src>) -> Result<(), CatError> {
        if let Expr::Union(a, b) = e {
            self.deeper()?;
            self.union_leaves(a, out)?;
            self.union_leaves(b, out)?;
            self.depth -= 1;
        } else {
            out.push(self.node(e)?);
        }
        Ok(())
    }

    /// Emits a fused union over `leaves` (sorted and deduplicated): one
    /// [`Op::UnionN`] instruction instead of a chain of binary unions
    /// and intermediate registers. Two-operand unions keep the binary
    /// form.
    fn emit_union(&mut self, mut leaves: Vec<Src>) -> Src {
        leaves.sort_unstable();
        leaves.dedup();
        match leaves.len() {
            0 => self.emit(Op::Zero),
            1 => leaves[0],
            2 => self.emit(Op::Union(leaves[0], leaves[1])),
            _ => {
                let (start, len) = match self.operand_intern.get(&leaves) {
                    Some(&slice) => slice,
                    None => {
                        let slice = (self.operands.len() as u32, leaves.len() as u32);
                        self.operands.extend_from_slice(&leaves);
                        self.operand_intern.insert(leaves, slice);
                        slice
                    }
                };
                self.emit(Op::UnionN { start, len })
            }
        }
    }

    /// Compiles `e` one level below the current one.
    fn expr(&mut self, e: &Expr) -> Result<Src, CatError> {
        self.deeper()?;
        let src = self.node(e);
        self.depth -= 1;
        src
    }

    /// Compiles `e` at the current level.
    fn node(&mut self, e: &Expr) -> Result<Src, CatError> {
        match e {
            Expr::Zero => Ok(self.emit(Op::Zero)),
            Expr::Id(name) => match self.lets.get(name.as_str()) {
                Some(Binding::Rel(src)) => Ok(*src),
                Some(Binding::Fun { .. }) => Err(CatError::new(format!(
                    "{name:?} is a function, not a relation"
                ))),
                None => Ok(self.base(name)),
            },
            Expr::App(name, arg) => {
                let argv = self.expr(arg)?;
                match name.as_str() {
                    "WW" => Ok(self.emit(Op::Restrict(argv, Sort::Writes, Sort::Writes))),
                    "WR" => Ok(self.emit(Op::Restrict(argv, Sort::Writes, Sort::Reads))),
                    "RW" => Ok(self.emit(Op::Restrict(argv, Sort::Reads, Sort::Writes))),
                    "RR" => Ok(self.emit(Op::Restrict(argv, Sort::Reads, Sort::Reads))),
                    _ => match self.lets.get(name.as_str()).cloned() {
                        Some(Binding::Fun { param, body }) => {
                            // Bind the parameter, compile the body at this
                            // application site, restore — the compile-time
                            // image of the interpreter's dynamic scoping.
                            let saved = self.lets.insert(param.clone(), Binding::Rel(argv));
                            let result = self.expr(&body);
                            match saved {
                                Some(v) => {
                                    self.lets.insert(param, v);
                                }
                                None => {
                                    self.lets.remove(&param);
                                }
                            }
                            result
                        }
                        Some(Binding::Rel(_)) => Err(CatError::new(format!(
                            "{name:?} is a relation, cannot be applied"
                        ))),
                        // A base relation can never be a function, so an
                        // application of an unknown name is an error
                        // either way; report it like the interpreter
                        // would on a missing base.
                        None => Err(CatError::new(format!(
                            "{name:?} is not a function, cannot be applied"
                        ))),
                    },
                }
            }
            Expr::Union(..) => {
                let mut leaves = Vec::new();
                self.union_leaves(e, &mut leaves)?;
                Ok(self.emit_union(leaves))
            }
            Expr::Inter(a, b) => {
                let (sa, sb) = (self.expr(a)?, self.expr(b)?);
                Ok(self.emit_comm(Op::Inter, sa, sb))
            }
            Expr::Diff(a, b) => {
                let (sa, sb) = (self.expr(a)?, self.expr(b)?);
                Ok(self.emit(Op::Diff(sa, sb)))
            }
            Expr::Seq(a, b) => {
                let (sa, sb) = (self.expr(a)?, self.expr(b)?);
                Ok(self.emit(Op::Seq(sa, sb)))
            }
            Expr::Inverse(a) => {
                let s = self.expr(a)?;
                Ok(self.emit(Op::Inverse(s)))
            }
            Expr::Plus(a) => {
                let s = self.expr(a)?;
                Ok(self.emit(Op::Plus(s)))
            }
            Expr::Star(a) => {
                let s = self.expr(a)?;
                Ok(self.emit(Op::Star(s)))
            }
            Expr::Opt(a) => {
                let s = self.expr(a)?;
                Ok(self.emit(Op::Opt(s)))
            }
        }
    }
}

impl Plan {
    /// Compiles `program` into a plan.
    ///
    /// # Errors
    ///
    /// Returns a [`CatError`] for applying a non-function, using a
    /// function as a relation, or an expression nested deeper than
    /// [`MAX_DEPTH`] levels once its functions are inlined, which any
    /// recursive function definition is.
    pub fn compile(program: &CatProgram) -> Result<Plan, CatError> {
        let mut c = Compiler {
            base_names: Vec::new(),
            base_slots: HashMap::new(),
            ops: Vec::new(),
            operands: Vec::new(),
            operand_intern: HashMap::new(),
            cse: HashMap::new(),
            lets: HashMap::new(),
            depth: 0,
        };
        let mut checks = Vec::new();
        for stmt in program.stmts() {
            match stmt {
                Stmt::Let {
                    name,
                    param: None,
                    body,
                } => {
                    let src = c.expr(body)?;
                    c.lets.insert(name.clone(), Binding::Rel(src));
                }
                Stmt::Let {
                    name,
                    param: Some(p),
                    body,
                } => {
                    c.lets.insert(
                        name.clone(),
                        Binding::Fun {
                            param: p.clone(),
                            body: body.clone(),
                        },
                    );
                }
                Stmt::Check { kind, expr, name } => {
                    let src = c.expr(expr)?;
                    checks.push(PlanCheck {
                        name: name.clone(),
                        kind: *kind,
                        src,
                        deps: Vec::new(),
                        cost: 0,
                    });
                }
            }
        }

        // Dependency closure and cost per check. Operand registers are
        // always lower-numbered, so a reverse sweep over a seen-set
        // yields the deps in topological (ascending) order.
        for check in &mut checks {
            let mut need = vec![false; c.ops.len()];
            let mut bases = vec![false; c.base_names.len()];
            let mark = |s: Src, need: &mut Vec<bool>, bases: &mut Vec<bool>| match s {
                Src::Reg(i) => need[i] = true,
                Src::Base(i) => bases[i] = true,
            };
            mark(check.src, &mut need, &mut bases);
            for i in (0..c.ops.len()).rev() {
                if !need[i] {
                    continue;
                }
                c.ops[i].for_each_src(&c.operands, |s| mark(s, &mut need, &mut bases));
            }
            check.deps = (0..c.ops.len()).filter(|&i| need[i]).collect();
            let kind_cost = match check.kind {
                CheckKind::Acyclic => 4,
                CheckKind::Irreflexive | CheckKind::Empty => 1,
            };
            check.cost = kind_cost
                + check.deps.iter().map(|&i| c.ops[i].cost()).sum::<u64>()
                + bases.iter().filter(|&&b| b).count() as u64;
        }

        let mut fast_order: Vec<usize> = (0..checks.len()).collect();
        fast_order.sort_by_key(|&i| checks[i].cost);

        // Overlay classification: an op is overlay-dependent iff it
        // transitively reads an rf/co-derived base. Operand registers
        // are always lower-numbered, so one forward sweep suffices.
        let bases: Vec<BaseRel> = c.base_names.iter().map(|n| BaseRel::resolve(n)).collect();
        let mut op_overlay = vec![false; c.ops.len()];
        for i in 0..c.ops.len() {
            let mut overlay = false;
            c.ops[i].for_each_src(&c.operands, |s| {
                overlay |= match s {
                    Src::Base(b) => bases[b].is_overlay(),
                    Src::Reg(r) => op_overlay[r],
                };
            });
            op_overlay[i] = overlay;
        }
        let plain_slot: Vec<Option<usize>> = c
            .base_names
            .iter()
            .zip(&bases)
            .map(|(n, b)| match b {
                BaseRel::Split { .. } => c.base_slots.get(&n[..2]).copied(),
                _ => None,
            })
            .collect();

        Ok(Plan {
            id: next_stamp(),
            base_names: c.base_names,
            bases,
            ops: c.ops,
            operands: c.operands,
            checks,
            fast_order,
            op_overlay,
            plain_slot,
        })
    }

    /// Number of compiled instructions (after CSE).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Names of the base relations the plan reads.
    pub fn base_names(&self) -> impl Iterator<Item = &str> {
        self.base_names.iter().map(String::as_str)
    }

    // ------------------------------------------------------------- eval

    /// Materialises base slot `i` unless still valid: overlay-dependent
    /// bases are valid for the current candidate only, skeleton-derived
    /// ones for the whole skeleton.
    fn ensure_base(
        &self,
        ctx: &mut EvalContext,
        slot: usize,
        env: &EnvSource<'_>,
    ) -> Result<(), CatError> {
        let base = self.bases[slot];
        let required = if base.is_overlay() {
            ctx.epoch
        } else {
            ctx.skel_epoch
        };
        if ctx.base_epoch[slot] >= required {
            return Ok(());
        }
        let mut dst = mem::take(&mut ctx.bases[slot]);
        let filled = match env {
            EnvSource::Map(map) => match map.get(&self.base_names[slot]) {
                Some(r) => {
                    dst.copy_from(r);
                    true
                }
                None => false,
            },
            // On the view path (and only there — a map environment may
            // bind `rfe` to anything) an internal/external variant is
            // one intersection off the plain relation, when the plan
            // also reads that plain base.
            EnvSource::View(view) => match (self.plain_slot[slot], base) {
                (Some(plain), BaseRel::Split { external, .. }) => {
                    self.ensure_base(ctx, plain, env)?;
                    let other = if external { view.ext() } else { view.int() };
                    dst.inter_from(&ctx.bases[plain], other);
                    true
                }
                _ => fill_base_from_view(view, base, &mut dst, ctx),
            },
        };
        ctx.bases[slot] = dst;
        if !filled {
            let name = &self.base_names[slot];
            return Err(CatError::new(format!("unbound identifier {name:?}")));
        }
        ctx.base_epoch[slot] = ctx.epoch;
        Ok(())
    }

    fn ensure_src(
        &self,
        ctx: &mut EvalContext,
        s: Src,
        env: &EnvSource<'_>,
    ) -> Result<(), CatError> {
        if let Src::Base(slot) = s {
            self.ensure_base(ctx, slot, env)?;
        }
        Ok(())
    }

    /// Executes instruction `i` unless its register is still valid —
    /// for the current candidate if overlay-dependent, for the current
    /// skeleton otherwise. Register operands must have been executed
    /// earlier (deps are topologically ordered); base operands are
    /// materialised on demand.
    fn run_op(&self, ctx: &mut EvalContext, i: usize, env: &EnvSource<'_>) -> Result<(), CatError> {
        let required = if self.op_overlay[i] {
            ctx.epoch
        } else {
            ctx.skel_epoch
        };
        if ctx.reg_epoch[i] >= required {
            return Ok(());
        }
        let op = self.ops[i];
        let mut src_err = Ok(());
        op.for_each_src(&self.operands, |s| {
            if src_err.is_ok() {
                src_err = self.ensure_src(ctx, s, env);
            }
        });
        src_err?;
        let mut dst = mem::take(&mut ctx.regs[i]);
        match op {
            Op::Zero => dst.reset(ctx.n),
            Op::Union(a, b) => dst.union_from(ctx.src_rel(a), ctx.src_rel(b)),
            Op::UnionN { start, len } => {
                let operands = &self.operands[start as usize..(start + len) as usize];
                dst.copy_from(ctx.src_rel(operands[0]));
                for &s in &operands[1..] {
                    dst.or_in_place(ctx.src_rel(s));
                }
            }
            Op::Inter(a, b) => dst.inter_from(ctx.src_rel(a), ctx.src_rel(b)),
            Op::Diff(a, b) => dst.diff_from(ctx.src_rel(a), ctx.src_rel(b)),
            Op::Seq(a, b) => dst.seq_from(ctx.src_rel(a), ctx.src_rel(b)),
            Op::Inverse(a) => dst.inverse_from(ctx.src_rel(a)),
            Op::Opt(a) => dst.opt_from(ctx.src_rel(a)),
            Op::Plus(a) => {
                let mut scratch = mem::take(&mut ctx.scratch_a);
                dst.plus_from(ctx.src_rel(a), &mut scratch);
                ctx.scratch_a = scratch;
            }
            Op::Star(a) => {
                let mut scratch = mem::take(&mut ctx.scratch_a);
                dst.star_from(ctx.src_rel(a), &mut scratch);
                ctx.scratch_a = scratch;
            }
            Op::Restrict(a, dom, rng) => {
                let dom = match dom {
                    Sort::Reads => &ctx.reads,
                    Sort::Writes => &ctx.writes,
                };
                let rng = match rng {
                    Sort::Reads => &ctx.reads,
                    Sort::Writes => &ctx.writes,
                };
                dst.restrict_from(ctx.src_rel(a), dom, rng);
            }
        }
        ctx.regs[i] = dst;
        ctx.reg_epoch[i] = ctx.epoch;
        Ok(())
    }

    fn check_passes(&self, ctx: &mut EvalContext, check: &PlanCheck) -> bool {
        let mut colour = mem::take(&mut ctx.colour);
        let mut stack = mem::take(&mut ctx.stack);
        let rel = ctx.src_rel(check.src);
        let passed = match check.kind {
            CheckKind::Acyclic => rel.is_acyclic_with(&mut colour, &mut stack),
            CheckKind::Irreflexive => rel.is_irreflexive(),
            CheckKind::Empty => rel.is_empty(),
        };
        ctx.colour = colour;
        ctx.stack = stack;
        passed
    }

    /// The fast path: `true` iff every check passes on the streamed
    /// candidate `view`, evaluating checks cheapest-first and stopping at
    /// the first failure. Only the base relations and registers the
    /// verdict actually needs are materialised. This is the cache-miss
    /// hot path of the skeleton/overlay enumerator. The context keys its
    /// arena on (plan, skeleton, overlay) stamps:
    /// moving to the next overlay of the same skeleton invalidates only
    /// the rf/co-derived bases and the registers that transitively read
    /// them; everything skeleton-derived is evaluated once per skeleton.
    ///
    /// A context interleaving *different* plans over one skeleton falls
    /// back to full invalidation per call (slot numbering is per-plan);
    /// use one context per model to keep skeleton sharing effective.
    ///
    /// # Errors
    ///
    /// Returns a [`CatError`] if the program references a base relation
    /// the view does not define. (Unlike the interpreter, bindings no
    /// check depends on are never evaluated here, so errors confined to
    /// dead bindings do not surface.)
    pub fn allows_view(
        &self,
        ctx: &mut EvalContext,
        view: &ExecutionView<'_>,
    ) -> Result<bool, CatError> {
        self.begin_view(ctx, view);
        self.allows_inner(ctx, &EnvSource::View(view))
    }

    /// Full-outcome mode: evaluates every statement (in program order,
    /// like the interpreter — including bindings no check uses) over the
    /// streamed candidate `view` and reports each named check.
    ///
    /// # Errors
    ///
    /// Returns a [`CatError`] for unbound base relations, even in unused
    /// bindings.
    pub fn check_view(
        &self,
        ctx: &mut EvalContext,
        view: &ExecutionView<'_>,
    ) -> Result<Vec<CheckOutcome>, CatError> {
        self.begin_view(ctx, view);
        self.check_inner(ctx, &EnvSource::View(view))
    }

    /// Prologue of the view entry points: full invalidation on a new
    /// plan or skeleton, epoch-only bump on a new overlay of the same
    /// skeleton, nothing when re-evaluating the same candidate.
    fn begin_view(&self, ctx: &mut EvalContext, view: &ExecutionView<'_>) {
        if ctx.plan_id != self.id || ctx.skel_id != view.skeleton_id() {
            ctx.begin(self, view.len());
            ctx.plan_id = self.id;
            ctx.skel_id = view.skeleton_id();
            ctx.reads.copy_from(view.read_set());
            ctx.writes.copy_from(view.write_set());
        } else if ctx.overlay_gen != view.overlay_gen() {
            ctx.epoch += 1;
        }
        ctx.overlay_gen = view.overlay_gen();
    }

    /// [`Plan::allows_view`] over a name-keyed environment — the same
    /// inputs [`CatProgram::check`] takes, for differential testing. The
    /// universe is taken from the environment's first relation.
    ///
    /// # Errors
    ///
    /// See [`Plan::allows_view`].
    pub fn allows_in_env(
        &self,
        ctx: &mut EvalContext,
        base: &BTreeMap<String, Relation>,
        reads: &EventSet,
        writes: &EventSet,
    ) -> Result<bool, CatError> {
        self.begin_env(ctx, base, reads, writes);
        self.allows_inner(ctx, &EnvSource::Map(base))
    }

    /// [`Plan::check_view`] over a name-keyed environment.
    ///
    /// # Errors
    ///
    /// See [`Plan::check_view`].
    pub fn check_in_env(
        &self,
        ctx: &mut EvalContext,
        base: &BTreeMap<String, Relation>,
        reads: &EventSet,
        writes: &EventSet,
    ) -> Result<Vec<CheckOutcome>, CatError> {
        self.begin_env(ctx, base, reads, writes);
        self.check_inner(ctx, &EnvSource::Map(base))
    }

    /// Shared prologue of the `*_in_env` entry points: universe from the
    /// environment's first relation (the interpreter's rule), then the
    /// event sorts copied into the arena.
    fn begin_env(
        &self,
        ctx: &mut EvalContext,
        base: &BTreeMap<String, Relation>,
        reads: &EventSet,
        writes: &EventSet,
    ) {
        let n = base.values().next().map(Relation::universe).unwrap_or(0);
        ctx.begin(self, n);
        ctx.reads.copy_from(reads);
        ctx.writes.copy_from(writes);
    }

    fn allows_inner(&self, ctx: &mut EvalContext, env: &EnvSource<'_>) -> Result<bool, CatError> {
        if ctx.fast_order_plan != self.id {
            ctx.fast_order.clear();
            ctx.fast_order.extend_from_slice(&self.fast_order);
            ctx.fast_order_plan = self.id;
        }
        for pos in 0..ctx.fast_order.len() {
            let ci = ctx.fast_order[pos];
            let check = &self.checks[ci];
            for &op in &check.deps {
                self.run_op(ctx, op, env)?;
            }
            self.ensure_src(ctx, check.src, env)?;
            if !self.check_passes(ctx, check) {
                // Move the failing check to the front of the adaptive
                // schedule: the next candidate of this test will most
                // likely fail the same axiom.
                ctx.fast_order[..=pos].rotate_right(1);
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn check_inner(
        &self,
        ctx: &mut EvalContext,
        env: &EnvSource<'_>,
    ) -> Result<Vec<CheckOutcome>, CatError> {
        for i in 0..self.ops.len() {
            self.run_op(ctx, i, env)?;
        }
        let mut out = Vec::with_capacity(self.checks.len());
        for check in &self.checks {
            self.ensure_src(ctx, check.src, env)?;
            out.push(CheckOutcome {
                name: check.name.clone(),
                kind: check.kind,
                passed: self.check_passes(ctx, check),
            });
        }
        Ok(out)
    }
}

/// Fills `dst` with the base relation `base` of a skeleton/overlay
/// `view`; returns `false` for [`BaseRel::Unknown`]. Skeleton-derived
/// relations are copied from the (already built) skeleton; only
/// rf/co-derived ones compute anything.
fn fill_base_from_view(
    view: &ExecutionView<'_>,
    base: BaseRel,
    dst: &mut Relation,
    ctx: &mut EvalContext,
) -> bool {
    let fill_comm = |comm, r: &mut Relation| match comm {
        Comm::Rf => view.fill_rf_rel(r),
        Comm::Co => view.fill_co_rel(r),
        Comm::Fr => view.fill_fr(r),
    };
    match base {
        BaseRel::Po => dst.copy_from(view.po()),
        BaseRel::PoLoc => dst.copy_from(view.po_loc()),
        BaseRel::Addr => dst.copy_from(view.addr()),
        BaseRel::Data => dst.copy_from(view.data()),
        BaseRel::Ctrl => dst.copy_from(view.ctrl()),
        BaseRel::Rmw => dst.copy_from(view.rmw()),
        BaseRel::Comm(comm) => fill_comm(comm, dst),
        BaseRel::Ext => dst.copy_from(view.ext()),
        BaseRel::Int => dst.copy_from(view.int()),
        BaseRel::Loc => dst.copy_from(view.same_loc()),
        BaseRel::Id => {
            dst.reset(view.len());
            dst.add_identity();
        }
        BaseRel::Fence(scope) => dst.copy_from(view.fence(scope)),
        BaseRel::Cta => dst.copy_from(view.scope_cta()),
        BaseRel::Full => {
            dst.reset(view.len());
            dst.fill_full();
        }
        BaseRel::Split { comm, external } => {
            fill_comm(comm, &mut ctx.scratch_a);
            let other = if external { view.ext() } else { view.int() };
            dst.inter_from(&ctx.scratch_a, other);
        }
        BaseRel::Unknown => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{for_each_execution, EnumConfig};
    use std::ops::ControlFlow;
    use weakgpu_litmus::{corpus, ThreadScope};

    fn env3() -> (BTreeMap<String, Relation>, EventSet, EventSet) {
        let mut m = BTreeMap::new();
        m.insert(
            "po".to_string(),
            Relation::from_pairs(3, [(0, 1), (1, 2), (0, 2)]),
        );
        m.insert("rf".to_string(), Relation::from_pairs(3, [(2, 1)]));
        let writes = EventSet::from_iter_n(3, [0, 2]);
        let reads = EventSet::from_iter_n(3, [1]);
        (m, reads, writes)
    }

    fn plan_of(src: &str) -> Plan {
        Plan::compile(&CatProgram::parse(src).unwrap()).unwrap()
    }

    #[test]
    fn cse_shares_lets_across_checks() {
        // `com` is referenced by both checks; the rf|co|fr union tree
        // must fuse into ONE n-ary instruction, compiled once, and the
        // second check must alias its register.
        let p =
            plan_of("let com = rf | co | fr\nacyclic (po | com) as a\nirreflexive (com ; po) as b");
        // UnionN[rf,co,fr], po|com, com;po — and nothing duplicated.
        assert_eq!(p.num_ops(), 3, "{:?}", p.ops);
    }

    #[test]
    fn union_trees_fuse_and_intern() {
        // Structurally equal union trees (any association/order) fuse to
        // one shared n-ary instruction; a subset union is a separate op.
        let p = plan_of("empty (rf | (co | fr)) as a\nempty ((fr | co) | rf) as b");
        assert_eq!(p.num_ops(), 1, "{:?}", p.ops);
        let q = plan_of("empty (rf | co | fr) as a\nempty (rf | co) as b");
        assert_eq!(q.num_ops(), 2, "{:?}", q.ops);
        // Duplicate operands collapse: `rf | rf` is just `rf`.
        let r = plan_of("empty (rf | rf) as a");
        assert_eq!(r.num_ops(), 0, "{:?}", r.ops);
    }

    #[test]
    fn commutative_operands_are_normalised() {
        let p = plan_of("empty (po | rf) as a\nempty (rf | po) as b");
        assert_eq!(p.num_ops(), 1);
        let q = plan_of("empty (po & rf) as a\nempty (rf & po) as b");
        assert_eq!(q.num_ops(), 1);
        // Difference is NOT commutative.
        let r = plan_of("empty (po \\ rf) as a\nempty (rf \\ po) as b");
        assert_eq!(r.num_ops(), 2);
    }

    #[test]
    fn function_inlining_matches_interpreter() {
        let (base, reads, writes) = env3();
        let src = "let f(x) = x | rf\nacyclic f(po) as c";
        let prog = CatProgram::parse(src).unwrap();
        let plan = Plan::compile(&prog).unwrap();
        let mut ctx = EvalContext::new();
        let ours = plan.check_in_env(&mut ctx, &base, &reads, &writes).unwrap();
        let theirs = prog.check(&base, &reads, &writes).unwrap();
        assert_eq!(ours, theirs);
        assert!(!ours[0].passed);
    }

    #[test]
    fn compile_rejects_bad_applications() {
        let parse = |s| CatProgram::parse(s).unwrap();
        assert!(Plan::compile(&parse("let f(x) = x\nacyclic f as c")).is_err());
        assert!(Plan::compile(&parse("let r = po\nacyclic r(rf) as c")).is_err());
        assert!(Plan::compile(&parse("acyclic po(rf) as c")).is_err());
        assert!(Plan::compile(&parse("let f(x) = f(x)\nacyclic f(po) as c")).is_err());
    }

    #[test]
    fn unbound_base_is_an_eval_error() {
        let (base, reads, writes) = env3();
        let plan = plan_of("acyclic nosuch as c");
        let mut ctx = EvalContext::new();
        let err = plan
            .check_in_env(&mut ctx, &base, &reads, &writes)
            .unwrap_err();
        assert!(err.message.contains("unbound"), "{err}");
        assert!(plan
            .allows_in_env(&mut ctx, &base, &reads, &writes)
            .is_err());
    }

    #[test]
    fn unbound_base_fails_on_executions_and_views_alike() {
        // Names resolve at compile time, but an unknown one still fails
        // only when a check needs it, with the interpreter's message: the
        // plan over a view fails as the interpreter over its execution.
        let src = "empty 0 as fine\nacyclic po | nosuch as c";
        let prog = CatProgram::parse(src).unwrap();
        let plan = plan_of(src);
        let mut ctx = EvalContext::new();
        for_each_execution(&corpus::corr(), &EnumConfig::default(), |view| {
            let exec = view.to_execution();
            let interp = prog
                .check(&exec.base_relations(), &exec.read_set(), &exec.write_set())
                .unwrap_err();
            assert_eq!(interp.message, "unbound identifier \"nosuch\"");
            let err = plan.allows_view(&mut ctx, view).unwrap_err();
            assert_eq!(err.message, interp.message);
            ControlFlow::Break(())
        })
        .unwrap();
    }

    #[test]
    fn fast_order_puts_cheap_checks_first() {
        let p = plan_of("acyclic (po ; rf)+ as expensive\nempty 0 as cheap");
        assert_eq!(p.fast_order, vec![1, 0]);
    }

    #[test]
    fn env_eval_matches_interpreter_on_operators() {
        let (base, reads, writes) = env3();
        let mut ctx = EvalContext::new();
        for src in [
            "empty po & rf as c",
            "empty po \\ po as c",
            "empty (po ; rf) as c",
            "irreflexive (po ; rf) as c",
            "empty rf^-1 as c",
            "acyclic po+ as c",
            "irreflexive po* as c",
            "empty 0 as c",
            "acyclic po? as c",
            "empty WW(po) as c",
            "empty RR(po) as c",
            "irreflexive RW(po) | WR(rf) as c",
        ] {
            let prog = CatProgram::parse(src).unwrap();
            let plan = Plan::compile(&prog).unwrap();
            assert_eq!(
                plan.check_in_env(&mut ctx, &base, &reads, &writes).unwrap(),
                prog.check(&base, &reads, &writes).unwrap(),
                "{src}"
            );
        }
    }

    #[test]
    fn view_eval_matches_interpreter_on_candidates() {
        // The plan over each streamed view must agree with evaluating the
        // same program over its execution's `base_relations()` through
        // the interpreter, in both modes.
        let src = "\
let com = rf | co | fr
let po-loc-llh = WW(po-loc) | WR(po-loc) | RW(po-loc)
acyclic (po-loc-llh | com) as sc-per-loc-llh
acyclic (po | com) as sc
irreflexive (fre ; coe) as aux
";
        let prog = CatProgram::parse(src).unwrap();
        let plan = Plan::compile(&prog).unwrap();
        let mut ctx = EvalContext::new();
        let test = corpus::sb(ThreadScope::IntraCta, None);
        for_each_execution(&test, &EnumConfig::default(), |view| {
            let exec = view.to_execution();
            let interp = prog
                .check(&exec.base_relations(), &exec.read_set(), &exec.write_set())
                .unwrap();
            assert_eq!(plan.check_view(&mut ctx, view).unwrap(), interp);
            assert_eq!(
                plan.allows_view(&mut ctx, view).unwrap(),
                interp.iter().all(|c| c.passed)
            );
            ControlFlow::<()>::Continue(())
        })
        .unwrap();
    }

    #[test]
    fn context_survives_plan_and_universe_changes() {
        let (base, reads, writes) = env3();
        let p1 = plan_of("acyclic po as c");
        let p2 = plan_of("let com = rf | co | fr\nacyclic (po | com) as sc");
        let mut ctx = EvalContext::new();
        let test = corpus::mp(ThreadScope::InterCta, None);
        for _ in 0..2 {
            // Alternate between a 3-event map environment and a larger
            // view, and between two different plans, through one
            // context: epoch bumps must prevent any stale-buffer reuse.
            assert!(p1.allows_in_env(&mut ctx, &base, &reads, &writes).unwrap());
            for_each_execution(&test, &EnumConfig::default(), |view| {
                for p in [&p2, &p1] {
                    assert_eq!(
                        p.allows_view(&mut ctx, view).unwrap(),
                        p.allows_view(&mut EvalContext::new(), view).unwrap()
                    );
                }
                ControlFlow::Break(())
            })
            .unwrap();
        }
    }

    #[test]
    fn let_shadowing_matches_interpreter() {
        // A let can shadow a base relation for subsequent statements.
        let (base, reads, writes) = env3();
        let src = "empty po & rf as before\nlet po = 0\nempty po as after";
        let prog = CatProgram::parse(src).unwrap();
        let plan = Plan::compile(&prog).unwrap();
        let mut ctx = EvalContext::new();
        let ours = plan.check_in_env(&mut ctx, &base, &reads, &writes).unwrap();
        assert_eq!(ours, prog.check(&base, &reads, &writes).unwrap());
        assert!(ours[1].passed, "shadowed po is empty");
    }
}
