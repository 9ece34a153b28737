//! Synthesis of litmus tests from relaxation cycles.
//!
//! The walk over a [`Cycle`] (whose final edge is external) assigns each
//! event a thread, a location and — for writes — a value; reads receive
//! fresh registers and the final condition pins exactly the read-from and
//! coherence choices that make the cycle's non-SC execution the witnessed
//! outcome. Manufactured dependency edges expand to the `-O3`-robust
//! and-high-bit instruction chains of the paper's Fig. 13b.

use std::fmt;

use weakgpu_litmus::build;
use weakgpu_litmus::{
    CacheOp, FinalExpr, Instr, LitmusTest, Loc, Operand, Predicate, Reg, ScopeTree, ThreadScope,
    Value,
};

use crate::cycle::{enumerate_cycles, Cycle};
use crate::edge::{DepKind, Dir, Edge};

/// Generation configuration: the edge alphabet, cycle-length bound, and
/// the GPU dimensions each cycle is expanded over.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Edge alphabet.
    pub alphabet: Vec<Edge>,
    /// Maximum edges per cycle (= events per test).
    pub max_edges: usize,
    /// Thread placements to emit.
    pub placements: Vec<ThreadScope>,
    /// Also emit a shared-memory variant for intra-CTA placements.
    pub shared_variants: bool,
}

impl GenConfig {
    /// The named families: `small` (tests/examples) and `paper`
    /// (the Sec. 5.4 validation scale). See [`GenConfig::named`].
    pub const FAMILY_NAMES: [&'static str; 2] = ["small", "paper"];

    /// Looks a family configuration up by name (`"small"` or `"paper"`),
    /// the vocabulary of `weakgpu sweep --family`.
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "small" => Some(GenConfig::small()),
            "paper" => Some(GenConfig::paper()),
            _ => None,
        }
    }

    /// A compact configuration for tests and examples (hundreds of tests).
    pub fn small() -> Self {
        GenConfig {
            alphabet: Edge::small_alphabet(),
            max_edges: 4,
            placements: vec![ThreadScope::IntraCta, ThreadScope::InterCta],
            shared_variants: false,
        }
    }

    /// Paper-scale configuration: 9 234 cycles over the full alphabet at
    /// up to five edges, ≈ 18k tests over the two placements (cf. the
    /// 10 930 of Sec. 5.4).
    pub fn paper() -> Self {
        GenConfig {
            alphabet: Edge::full_alphabet(),
            max_edges: 5,
            placements: vec![ThreadScope::IntraCta, ThreadScope::InterCta],
            shared_variants: false,
        }
    }

    /// All cycles of this configuration.
    pub fn cycles(&self) -> Vec<Cycle> {
        enumerate_cycles(&self.alphabet, self.max_edges)
    }
}

/// Why a cycle cannot be synthesised.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SynthError {
    /// A read is constrained to two different values by its incident
    /// edges (e.g. an `Rfe` in and an `Fre` out that disagree).
    InconsistentRead,
    /// The cycle's coherence edges contradict each other (e.g. a pure
    /// `Coe` loop on one location) — no execution can witness it.
    CyclicCoherence,
    /// The placement is incompatible (shared memory requires intra-CTA).
    SharedNeedsIntraCta,
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::InconsistentRead => {
                write!(f, "cycle constrains a read to two different values")
            }
            SynthError::CyclicCoherence => {
                write!(f, "cycle's coherence edges contradict each other")
            }
            SynthError::SharedNeedsIntraCta => {
                write!(f, "shared-memory tests require intra-CTA placement")
            }
        }
    }
}

impl std::error::Error for SynthError {}

const LOC_NAMES: [&str; 8] = ["x", "y", "z", "w", "a", "b", "c", "d"];

/// The register families of a synthesised thread, each numbered by the
/// thread's register counter.
#[derive(Clone, Copy)]
enum Prefix {
    /// Read results.
    R,
    /// And-high-bit temporaries.
    T,
    /// Converted temporaries (address dependencies).
    U,
    /// Pointer registers (address dependencies).
    A,
    /// Store values (data and address dependencies).
    V,
    /// Predicates (control dependencies).
    P,
}

const PREFIX_NAMES: [char; 6] = ['r', 't', 'u', 'a', 'v', 'p'];

/// Registers made up front per prefix; a thread's counter stays below
/// twice its event count, so only cycles far longer than the paper's
/// ever name one on the fly.
const PREMADE_REGS: usize = 16;

/// The locations and registers synthesised tests are built from, made
/// up front so synthesis clones names instead of formatting and
/// validating them per test. A clone bumps the name's reference count,
/// and threads bumping the same counts wait on each other: with one set
/// for the whole paper family, synthesis gained 1.3× from a second
/// worker, and 1.6× with a set per job. So a caller that synthesises on
/// several threads makes one set per job.
pub(crate) struct Names {
    locs: Vec<Loc>,
    regs: Vec<Vec<Reg>>,
}

impl Names {
    pub(crate) fn new() -> Names {
        Names {
            locs: LOC_NAMES.iter().map(Loc::new).collect(),
            regs: PREFIX_NAMES
                .iter()
                .map(|p| {
                    (0..PREMADE_REGS)
                        .map(|k| Reg::new(format!("{p}{k}")))
                        .collect()
                })
                .collect(),
        }
    }

    fn reg(&self, prefix: Prefix, k: usize) -> Reg {
        match self.regs[prefix as usize].get(k) {
            Some(r) => r.clone(),
            None => Reg::new(format!("{}{k}", PREFIX_NAMES[prefix as usize])),
        }
    }
}

/// Post-increments a register counter.
fn bump(counter: &mut usize) -> usize {
    *counter += 1;
    *counter - 1
}

/// A plain `.cg` store.
fn store(addr: Operand, src: Operand) -> Instr {
    Instr::St {
        addr,
        src,
        cache: CacheOp::Cg,
        volatile: false,
    }
}

/// Synthesises one litmus test from `cycle` at the given placement.
///
/// # Errors
///
/// See [`SynthError`].
pub fn synthesise(
    cycle: &Cycle,
    placement: ThreadScope,
    shared: bool,
) -> Result<LitmusTest, SynthError> {
    if shared && placement != ThreadScope::IntraCta {
        return Err(SynthError::SharedNeedsIntraCta);
    }
    let names = Names::new();
    Ok(analyse(cycle, &names)?.place(cycle, placement, shared, &names))
}

/// What a cycle synthesises to before it is placed: threads, register
/// initialisation and final condition, which no placement or region
/// changes.
struct Unplaced {
    num_locs: usize,
    threads: Vec<Vec<Instr>>,
    reg_inits: Vec<(usize, Reg, Value)>,
    cond: Predicate,
}

/// Analyses `cycle` into its [`Unplaced`] test.
fn analyse(cycle: &Cycle, names: &Names) -> Result<Unplaced, SynthError> {
    let edges = cycle.edges();
    let n = edges.len();

    // Event i is the source of edge i; its direction comes from the edge.
    let dirs: Vec<Dir> = edges.iter().map(|e| e.from_dir()).collect();

    // Thread assignment: a new thread after each external edge; the final
    // edge is external, so event 0 opens thread 0.
    let mut thread_of = vec![0usize; n];
    let mut t = 0;
    for i in 0..n {
        thread_of[i] = t;
        if edges[i].is_external() {
            t += 1;
        }
    }
    let num_threads = t;

    // Location classes via union-find over same-location edges.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    for (i, e) in edges.iter().enumerate() {
        if e.same_loc() {
            let (a, b) = (find(&mut parent, i), find(&mut parent, (i + 1) % n));
            parent[a] = b;
        }
    }
    let mut loc_of = vec![usize::MAX; n];
    let mut num_locs = 0;
    for i in 0..n {
        let root = find(&mut parent, i);
        if loc_of[root] == usize::MAX {
            loc_of[root] = num_locs;
            num_locs += 1;
        }
        loc_of[i] = loc_of[root];
    }
    assert!(num_locs <= LOC_NAMES.len(), "cycle uses too many locations");

    // Write values: per location, in walk order (values identify writes;
    // the *coherence* order is pinned separately below).
    let mut value_of = vec![0i64; n];
    let mut writes_per_loc = vec![0i64; num_locs];
    for i in 0..n {
        if dirs[i] == Dir::W {
            writes_per_loc[loc_of[i]] += 1;
            value_of[i] = writes_per_loc[loc_of[i]];
        }
    }

    // Pin each location's coherence order: a topological sort of its
    // writes under the cycle's Coe constraints (including one that wraps
    // around the cycle, as in 2+2W shapes), tie-broken by walk order.
    // A cyclic constraint set means the cycle is unsatisfiable as a
    // coherence witness.
    let mut co_order: Vec<Vec<usize>> = vec![Vec::new(); num_locs];
    for (l, slot) in co_order.iter_mut().enumerate() {
        let writes: Vec<usize> = (0..n)
            .filter(|&i| dirs[i] == Dir::W && loc_of[i] == l)
            .collect();
        let mut constraints: Vec<(usize, usize)> = Vec::new();
        for (i, e) in edges.iter().enumerate() {
            if *e == Edge::Coe && loc_of[i] == l {
                constraints.push((i, (i + 1) % n));
            }
        }
        let mut order: Vec<usize> = Vec::with_capacity(writes.len());
        let mut remaining = writes;
        while !remaining.is_empty() {
            let next = remaining.iter().position(|&w| {
                constraints
                    .iter()
                    .all(|&(a, b)| b != w || !remaining.contains(&a))
            });
            match next {
                Some(pos) => order.push(remaining.remove(pos)),
                None => return Err(SynthError::CyclicCoherence),
            }
        }
        *slot = order;
    }

    // Read constraints from incident communication edges.
    let mut read_value: Vec<Option<i64>> = vec![None; n];
    for i in 0..n {
        if dirs[i] != Dir::R {
            continue;
        }
        let incoming = edges[(i + n - 1) % n];
        let outgoing = edges[i];
        let mut require = |v: i64| -> Result<(), SynthError> {
            match read_value[i] {
                Some(existing) if existing != v => Err(SynthError::InconsistentRead),
                _ => {
                    read_value[i] = Some(v);
                    Ok(())
                }
            }
        };
        if incoming == Edge::Rfe {
            let w = (i + n - 1) % n;
            require(value_of[w])?;
        }
        if outgoing == Edge::Fre {
            // The read sees the coherence-predecessor of the target write
            // (or the initial 0 if the target is coherence-first).
            let w = (i + 1) % n;
            let order = &co_order[loc_of[w]];
            let pos = order.iter().position(|&x| x == w).expect("w is a write");
            let v = if pos == 0 {
                0
            } else {
                value_of[order[pos - 1]]
            };
            require(v)?;
        }
    }

    // Emit instructions.
    let mut threads: Vec<Vec<Instr>> = vec![Vec::new(); num_threads];
    let mut reg_counter = vec![0usize; num_threads];
    let mut read_reg: Vec<Option<Reg>> = vec![None; n];
    let mut reg_inits: Vec<(usize, Reg, Value)> = Vec::new();

    for i in 0..n {
        let tid = thread_of[i];
        let loc = &names.locs[loc_of[i]];
        let code = &mut threads[tid];

        // The incoming edge, when internal, may add fences or dependency
        // chains before this event.
        let incoming = edges[(i + n - 1) % n];
        let mut dep_addr_reg: Option<Reg> = None;
        let mut dep_data_reg: Option<Reg> = None;
        let mut dep_pred: Option<Reg> = None;
        match incoming {
            Edge::Fenced { scope, .. } if thread_of[(i + n - 1) % n] == tid => {
                code.push(build::membar(scope));
            }
            Edge::Dp { dep, .. } if thread_of[(i + n - 1) % n] == tid => {
                let src = Operand::Reg(
                    read_reg[(i + n - 1) % n]
                        .clone()
                        .expect("dependency source is a read"),
                );
                let k = bump(&mut reg_counter[tid]);
                match dep {
                    DepKind::Addr => {
                        // Fig. 13b: and-high-bit, convert, add into a
                        // pointer register initialised to the target.
                        let (tmp, cvt, areg) = (
                            names.reg(Prefix::T, k),
                            names.reg(Prefix::U, k),
                            names.reg(Prefix::A, k),
                        );
                        code.push(Instr::And {
                            dst: tmp.clone(),
                            a: src,
                            b: Operand::Imm(0x8000_0000),
                        });
                        code.push(Instr::Cvt {
                            dst: cvt.clone(),
                            src: Operand::Reg(tmp),
                        });
                        code.push(Instr::Add {
                            dst: areg.clone(),
                            a: Operand::Reg(areg.clone()),
                            b: Operand::Reg(cvt),
                        });
                        reg_inits.push((tid, areg.clone(), Value::ptr(loc.clone())));
                        dep_addr_reg = Some(areg);
                    }
                    DepKind::Data => {
                        let (tmp, vreg) = (names.reg(Prefix::T, k), names.reg(Prefix::V, k));
                        code.push(Instr::And {
                            dst: tmp.clone(),
                            a: src,
                            b: Operand::Imm(0x8000_0000),
                        });
                        code.push(Instr::Add {
                            dst: vreg.clone(),
                            a: Operand::Reg(tmp),
                            b: Operand::Imm(value_of[i]),
                        });
                        dep_data_reg = Some(vreg);
                    }
                    DepKind::Ctrl => {
                        // A predicate that is always true but carries the
                        // read's taint: values never reach i32::MAX.
                        let p = names.reg(Prefix::P, k);
                        code.push(Instr::SetpNe {
                            dst: p.clone(),
                            a: src,
                            b: Operand::Imm(0x7fff_ffff),
                        });
                        dep_pred = Some(p);
                    }
                }
            }
            _ => {}
        }

        let instr = match dirs[i] {
            Dir::W => {
                if let Some(a) = dep_addr_reg {
                    // Address-dependent stores need the value in a register.
                    let vreg = names.reg(Prefix::V, bump(&mut reg_counter[tid]));
                    code.push(Instr::Mov {
                        dst: vreg.clone(),
                        src: Operand::Imm(value_of[i]),
                    });
                    store(Operand::Reg(a), Operand::Reg(vreg))
                } else if let Some(v) = dep_data_reg {
                    store(Operand::Sym(loc.clone()), Operand::Reg(v))
                } else {
                    store(Operand::Sym(loc.clone()), Operand::Imm(value_of[i]))
                }
            }
            Dir::R => {
                let r = names.reg(Prefix::R, bump(&mut reg_counter[tid]));
                read_reg[i] = Some(r.clone());
                let addr = match dep_addr_reg {
                    Some(a) => Operand::Reg(a),
                    None => Operand::Sym(loc.clone()),
                };
                Instr::Ld {
                    dst: r,
                    addr,
                    cache: CacheOp::Cg,
                    volatile: false,
                }
            }
        };
        let instr = match dep_pred {
            Some(p) => instr.guarded(p, true),
            None => instr,
        };
        code.push(instr);
    }

    // Final condition.
    let mut terms: Vec<Predicate> = Vec::new();
    for i in 0..n {
        if let (Some(v), Some(r)) = (read_value[i], &read_reg[i]) {
            terms.push(Predicate::Eq(FinalExpr::Reg(thread_of[i], r.clone()), v));
        }
    }
    for (l, order) in co_order.iter().enumerate() {
        if order.len() > 1 {
            // Pin the coherence-last write via the final memory value.
            let last = *order.last().expect("non-empty order");
            terms.push(Predicate::mem_eq(names.locs[l].clone(), value_of[last]));
        }
    }
    let cond = Predicate::all(terms);
    Ok(Unplaced {
        num_locs,
        threads,
        reg_inits,
        cond,
    })
}

impl Unplaced {
    /// The test at `placement`, in global or (for `shared`) shared
    /// memory.
    fn place(
        &self,
        cycle: &Cycle,
        placement: ThreadScope,
        shared: bool,
        names: &Names,
    ) -> LitmusTest {
        let suffix = match (placement, shared) {
            (ThreadScope::InterCta, _) => "+inter",
            (ThreadScope::IntraCta, false) => "+intra",
            (ThreadScope::IntraCta, true) => "+intra+shared",
            (ThreadScope::IntraWarp, _) => "+warp",
        };
        let mut builder = LitmusTest::builder(format!("{}{suffix}", cycle.name()))
            .doc(format!("diy-generated from cycle {}", cycle.name()));
        for loc in &names.locs[..self.num_locs] {
            builder = if shared {
                builder.shared(loc.clone(), 0)
            } else {
                builder.global(loc.clone(), 0)
            };
        }
        for code in &self.threads {
            builder = builder.thread(code.iter().cloned());
        }
        for (tid, reg, v) in &self.reg_inits {
            builder = builder.reg_init(*tid, reg.clone(), v.clone());
        }
        builder
            .scope_tree(ScopeTree::for_scope(placement, self.threads.len()))
            .exists(self.cond.clone())
            .build()
            .expect("synthesised tests are structurally valid")
    }
}

/// Appends to `out` the expansion of a cycle over every placement/region
/// in the configuration, named from `names`, silently skipping
/// infeasible combinations.
pub(crate) fn expand(cycle: &Cycle, cfg: &GenConfig, names: &Names, out: &mut Vec<LitmusTest>) {
    // A cycle that fails to synthesise fails at every placement.
    let Ok(unplaced) = analyse(cycle, names) else {
        return;
    };
    for &placement in &cfg.placements {
        out.push(unplaced.place(cycle, placement, false, names));
        if cfg.shared_variants && placement == ThreadScope::IntraCta {
            out.push(unplaced.place(cycle, placement, true, names));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakgpu_axiom::{model_outcomes, EnumConfig};
    use weakgpu_models::{ptx_model, sc_model};

    fn pod(from: Dir, to: Dir) -> Edge {
        Edge::Po {
            same_loc: false,
            from,
            to,
        }
    }

    fn mp_cycle() -> Cycle {
        Cycle::new(vec![
            pod(Dir::W, Dir::W),
            Edge::Rfe,
            pod(Dir::R, Dir::R),
            Edge::Fre,
        ])
        .unwrap()
    }

    #[test]
    fn mp_synthesis_shape() {
        let t = synthesise(&mp_cycle(), ThreadScope::InterCta, false).unwrap();
        assert_eq!(t.num_threads(), 2);
        assert_eq!(t.memory().len(), 2);
        // Two stores on one thread, two loads on the other.
        let stores: usize = t.threads()[0]
            .iter()
            .filter(|i| matches!(i, Instr::St { .. }))
            .count()
            + t.threads()[1]
                .iter()
                .filter(|i| matches!(i, Instr::St { .. }))
                .count();
        assert_eq!(stores, 2);
        // Condition pins both reads.
        assert_eq!(t.observed().len(), 2);
    }

    #[test]
    fn synthesised_mp_is_sc_forbidden_ptx_allowed() {
        let t = synthesise(&mp_cycle(), ThreadScope::InterCta, false).unwrap();
        let cfg = EnumConfig::default();
        let sc = model_outcomes(&t, &sc_model(), &cfg).unwrap();
        assert!(!sc.condition_witnessed, "cycle outcome must be non-SC");
        let ptx = model_outcomes(&t, &ptx_model(), &cfg).unwrap();
        assert!(ptx.condition_witnessed, "unfenced mp is PTX-allowed");
    }

    #[test]
    fn fenced_cycles_are_ptx_forbidden() {
        use weakgpu_litmus::FenceScope;
        // mp with gl fences on both sides.
        let c = Cycle::new(vec![
            Edge::Fenced {
                scope: FenceScope::Gl,
                from: Dir::W,
                to: Dir::W,
            },
            Edge::Rfe,
            Edge::Fenced {
                scope: FenceScope::Gl,
                from: Dir::R,
                to: Dir::R,
            },
            Edge::Fre,
        ])
        .unwrap();
        let t = synthesise(&c, ThreadScope::InterCta, false).unwrap();
        let ptx = model_outcomes(&t, &ptx_model(), &EnumConfig::default()).unwrap();
        assert!(!ptx.condition_witnessed);
    }

    use weakgpu_litmus::FenceScope;

    #[test]
    fn dependency_chains_emitted() {
        // mp with an address dependency on the read side.
        let c = Cycle::new(vec![
            Edge::Fenced {
                scope: FenceScope::Gl,
                from: Dir::W,
                to: Dir::W,
            },
            Edge::Rfe,
            Edge::Dp {
                dep: DepKind::Addr,
                to: Dir::R,
            },
            Edge::Fre,
        ])
        .unwrap();
        let t = synthesise(&c, ThreadScope::InterCta, false).unwrap();
        // The reader thread contains the and/cvt/add chain.
        let reader = &t.threads()[1];
        assert!(reader.iter().any(|i| matches!(i, Instr::And { .. })));
        assert!(reader.iter().any(|i| matches!(i, Instr::Cvt { .. })));
        // And the model forbids the outcome (fence + dependency).
        let ptx = model_outcomes(&t, &ptx_model(), &EnumConfig::default()).unwrap();
        assert!(!ptx.condition_witnessed);
    }

    #[test]
    fn ctrl_dependency_guards_target() {
        let c = Cycle::new(vec![
            Edge::Fenced {
                scope: FenceScope::Gl,
                from: Dir::W,
                to: Dir::W,
            },
            Edge::Rfe,
            Edge::Dp {
                dep: DepKind::Ctrl,
                to: Dir::R,
            },
            Edge::Fre,
        ])
        .unwrap();
        let t = synthesise(&c, ThreadScope::InterCta, false).unwrap();
        assert!(t.threads()[1]
            .iter()
            .any(|i| matches!(i, Instr::Guard { .. })));
    }

    #[test]
    fn coe_cycles_pin_final_memory() {
        // 2+2w-style: W x=1 — coe → W x=2 … needs final memory values.
        let c = Cycle::new(vec![
            pod(Dir::W, Dir::W),
            Edge::Coe,
            pod(Dir::W, Dir::W),
            Edge::Coe,
        ])
        .unwrap();
        let t = synthesise(&c, ThreadScope::InterCta, false).unwrap();
        let mem_terms: Vec<_> = t
            .observed()
            .into_iter()
            .filter(|e| matches!(e, FinalExpr::Mem(_)))
            .collect();
        assert_eq!(mem_terms.len(), 2, "both locations have two writes");
    }

    #[test]
    fn shared_requires_intra_cta() {
        assert_eq!(
            synthesise(&mp_cycle(), ThreadScope::InterCta, true).unwrap_err(),
            SynthError::SharedNeedsIntraCta
        );
        let t = synthesise(&mp_cycle(), ThreadScope::IntraCta, true).unwrap();
        assert_eq!(
            t.memory().region(&"x".into()),
            Some(weakgpu_litmus::Region::Shared)
        );
    }

    #[test]
    fn three_thread_cycles() {
        // wrc-like: Rfe — PodRR — Rfe? Use: W x — rfe → R x; (po) R y? Build
        // isa-style 3-thread: Rfe, DpCtrl? Simply: Rfe, PodRR, Rfe, PodRR, Fre…
        let c = Cycle::new(vec![
            Edge::Rfe,
            pod(Dir::R, Dir::W),
            Edge::Rfe,
            pod(Dir::R, Dir::R),
            Edge::Fre,
        ])
        .unwrap();
        assert_eq!(c.num_threads(), 3);
        let t = synthesise(&c, ThreadScope::InterCta, false).unwrap();
        assert_eq!(t.num_threads(), 3);
        assert_eq!(t.scope_tree().num_ctas(), 3);
    }
}
