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
//!   into dense base slots; `let` bindings and subexpressions become
//!   numbered registers. No string lookup survives to evaluation time.
//! * **Bindings are shared.** Every `let` is compiled exactly once, and
//!   common subexpressions are eliminated across the *whole* program
//!   (union/intersection operands are order-normalised first), so a
//!   binding referenced by three checks is computed once per execution.
//! * **Functions are inlined.** `f(e)` applications are expanded at
//!   compile time with the parameter bound to the argument's register,
//!   mirroring the interpreter's dynamic scoping.
//! * **Checks are scheduled cheapest-first.** Each check records the
//!   registers it transitively needs and a cost estimate;
//!   [`Plan::allows_exec`] evaluates checks in ascending cost order,
//!   materialising only the registers (and base relations) the next check
//!   needs, and short-circuits on the first failure. The full-outcome
//!   mode ([`Plan::check_exec`]) keeps the program's own order and
//!   evaluates everything, matching the interpreter statement for
//!   statement.
//!
//! Evaluation happens inside an [`EvalContext`]: an arena of
//! [`Relation`]/[`EventSet`] buffers (plus DFS scratch for acyclicity)
//! that is reused across executions. After the first execution of a given
//! universe size has warmed the arena, evaluating the next execution
//! performs **zero heap allocation**.
//!
//! ```
//! use weakgpu_axiom::plan::{EvalContext, Plan};
//! use weakgpu_axiom::cat::CatProgram;
//! use weakgpu_axiom::enumerate::{enumerate_executions, EnumConfig};
//! use weakgpu_litmus::{corpus, ThreadScope};
//!
//! let program = CatProgram::parse("let com = rf | co | fr\nacyclic (po | com) as sc").unwrap();
//! let plan = Plan::compile(&program).unwrap();
//! let mut ctx = EvalContext::new();
//! let test = corpus::sb(ThreadScope::IntraCta, None);
//! let execs = enumerate_executions(&test, &EnumConfig::default()).unwrap();
//! let allowed = execs
//!     .iter()
//!     .filter(|c| plan.allows_exec(&mut ctx, &c.execution).unwrap())
//!     .count();
//! assert!(allowed > 0 && allowed < execs.len());
//! ```

use std::collections::{BTreeMap, HashMap};
use std::mem;

use weakgpu_litmus::FenceScope;

use crate::cat::{CatError, CatProgram, CheckKind, CheckOutcome, Expr, Stmt};
use crate::exec::Execution;
use crate::relation::{EdgeJournal, EventSet, LaneRel, Relation};
use crate::skeleton::{next_stamp, ExecutionView, LaneMask, OverlayBatch, PartialView};

/// Maximum function-inlining depth; beyond this the program is assumed to
/// be (mutually) recursive, which the interpreter cannot evaluate either.
const MAX_INLINE_DEPTH: usize = 64;

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
/// then evaluate over any number of executions through a shared
/// [`EvalContext`].
#[derive(Clone, Debug)]
pub struct Plan {
    /// Process-unique plan identity, for [`EvalContext`] cache keying
    /// (cloned plans share semantics, so they share the id).
    id: u64,
    /// Interned base-relation names, indexed by slot.
    base_names: Vec<String>,
    ops: Vec<Op>,
    /// Operand table for n-ary instructions ([`Op::UnionN`]).
    operands: Vec<Src>,
    checks: Vec<PlanCheck>,
    /// Check indices in ascending cost order (the `allows` schedule).
    fast_order: Vec<usize>,
    /// Per base slot: `true` iff the relation depends on the rf/co
    /// overlay (and must be refilled per candidate); `false` for
    /// skeleton-derived relations reused across a skeleton's overlays.
    base_overlay: Vec<bool>,
    /// Per op: `true` iff it transitively reads an overlay base.
    op_overlay: Vec<bool>,
    /// For an `rfe`/`rfi`/`coe`/`coi`/`fre`/`fri` slot: the slot of the
    /// plain `rf`/`co`/`fr` base, when the plan also reads it. On the
    /// view path the variant is then one intersection off the plain
    /// relation instead of a fresh fill.
    plain_slot: Vec<Option<usize>>,
    /// Per base slot: which overlay family ([`FAM_RF_M`]/[`FAM_CO_M`]/
    /// [`FAM_FR_M`]) it derives from; 0 for skeleton-derived bases.
    base_fam: Vec<u8>,
    /// Per op: the overlay families it transitively reads (OR of the
    /// operand masks; nonzero exactly when `op_overlay` holds).
    op_fam: Vec<u8>,
    /// OR of `base_fam` — the families the incremental evaluator must
    /// maintain for this plan.
    fam_used: u8,
    /// Overlay ops reachable from some check, ascending — the ops the
    /// incremental evaluator maintains (dead bindings are skipped; their
    /// operands may never be materialised).
    inc_ops: Vec<u32>,
    /// `true` iff every (live) overlay op is row-local (union /
    /// intersection / difference / `?` / sort filters): a changed
    /// operand row changes only the same row downstream, which is what
    /// lets an axis commit update `O(dirty rows)` instead of the whole
    /// register tier. Plans using `;`/`^-1`/`+`/`*` on overlay operands
    /// have no partial evaluation ([`Plan::check_partial_view`] answers
    /// `None`), so the verdict walk never cuts them.
    row_local: bool,
}

/// `true` for base relations derived from the rf/co overlay, which every
/// candidate of a skeleton redefines.
fn is_overlay_base(name: &str) -> bool {
    matches!(
        name,
        "rf" | "rfe" | "rfi" | "co" | "coe" | "coi" | "fr" | "fre" | "fri"
    )
}

/// Family indices of the maintained incremental base intervals.
const FAM_RF: usize = 0;
const FAM_CO: usize = 1;
const FAM_FR: usize = 2;
/// Family bit masks (`1 << FAM_*`).
const FAM_RF_M: u8 = 1 << FAM_RF;
const FAM_CO_M: u8 = 1 << FAM_CO;
const FAM_FR_M: u8 = 1 << FAM_FR;

/// The overlay family of a base-relation name (`None` for
/// skeleton-derived bases).
fn base_family(name: &str) -> Option<usize> {
    match name {
        "rf" | "rfe" | "rfi" => Some(FAM_RF),
        "co" | "coe" | "coi" => Some(FAM_CO),
        "fr" | "fre" | "fri" => Some(FAM_FR),
        _ => None,
    }
}

/// Journal-tag kinds identifying which maintained relation a word-undo
/// record belongs to; the tag is `kind << 28 | index`.
const KIND_FAM_LO: u32 = 0;
const KIND_FAM_HI: u32 = 1;
const KIND_VAR_LO: u32 = 2;
const KIND_VAR_HI: u32 = 3;
const KIND_REG_LO: u32 = 4;
const KIND_REG_HI: u32 = 5;

const fn inc_tag(kind: u32, idx: usize) -> u32 {
    (kind << 28) | idx as u32
}

/// `rf_choice` encoding of an [`IncLevel`]: the chosen write, or
/// `u32::MAX` for a read from the initial state.
fn enc_rf(choice: Option<usize>) -> u32 {
    match choice {
        Some(w) => w as u32,
        None => u32::MAX,
    }
}

/// Where base relations come from during one evaluation.
enum EnvSource<'a> {
    /// Fill from an [`Execution`]'s event structure.
    Exec(&'a Execution),
    /// Copy from a name-keyed environment (the interpreter's input
    /// format; used by the differential tests).
    Map(&'a BTreeMap<String, Relation>),
    /// Fill from a streamed skeleton/overlay view: skeleton-derived
    /// bases are borrowed from the shared skeleton (and survive overlay
    /// changes), rf/co-derived ones are refilled per candidate.
    View(&'a ExecutionView<'a>),
}

/// One committed tree level of the incremental evaluator's path. Levels
/// `0..reads.len()` are rf slots (in read order), the rest are coherence
/// axes (in location order) — the same canonical order the verdict walk
/// descends, so a path is always "all rf levels, then a co prefix".
#[derive(Clone, Copy, Default, Debug)]
struct IncLevel {
    /// Journal length when this level was pushed; popping replays the
    /// records from here on, reversed.
    jmark: usize,
    /// `ord_journal` length when this level was pushed.
    omark: usize,
    /// `co_arena` length when this level was pushed (doubles as the
    /// slice start for co levels).
    co_start: usize,
    /// Committed co order length (0 for rf levels).
    co_len: usize,
    /// The committed rf choice (see [`enc_rf`]; unused for co levels).
    rf_choice: u32,
}

/// The maintained `[lo, hi]` interval relations of the incremental
/// evaluator — separate from the epoch-gated arena so interleaved
/// concrete and batched evaluations never clobber path state.
#[derive(Default, Debug)]
struct IncRels {
    /// Plain rf/co/fr bounds, indexed by family ([`FAM_RF`]…).
    fam_lo: Vec<Relation>,
    fam_hi: Vec<Relation>,
    /// Internal/external variant bounds, indexed by base slot (only
    /// `rfe`-style slots are used: `fam ∩ ext/int`).
    var_lo: Vec<Relation>,
    var_hi: Vec<Relation>,
    /// Overlay register bounds, indexed by op.
    reg_lo: Vec<Relation>,
    reg_hi: Vec<Relation>,
}

/// Per-check incremental state: the maintained topological order of the
/// `lo` bound (Pearce–Kelly, Acyclic checks only) and monotone verdict
/// memos. Along a path `lo` only grows and `hi` only shrinks, so "lo
/// cyclic", "hi acyclic/empty/irreflexive" and "lo nonempty/reflexive"
/// are all monotone: once established at some depth they hold at every
/// deeper node, and popping above that depth resets them.
#[derive(Default, Debug)]
struct IncCheck {
    /// Maintained topological order of the `lo` bound (Acyclic only).
    order: Vec<u32>,
    /// Inverse of `order`.
    pos: Vec<u32>,
    /// `lo` known cyclic (⇒ definite fail) from this path depth on;
    /// `usize::MAX` = not known. While set, Pearce–Kelly updates pause
    /// (the order is stale until the path pops back above it).
    cyclic_since: usize,
    /// `hi` known passing (⇒ definite pass) from this depth on.
    pass_since: usize,
    /// `lo` known failing (Empty/Irreflexive) from this depth on.
    fail_since: usize,
    /// Last cycle found in `hi`, as edges: while every edge persists in
    /// `hi`, the check is still indefinite and the DFS is skipped.
    witness: Vec<(u32, u32)>,
    /// 0 = overlay-dependent; 1/2 = skeleton-derived check that passed /
    /// failed (judged once per combination at reset).
    fixed: u8,
}

/// Maintained state of the incremental (path-delta) partial evaluator:
/// every overlay-dependent interval relation, one tagged word-level
/// undo journal across all of them, the committed path levels, and
/// per-check cycle state. Keyed on (plan, skeleton, trace combination);
/// a mismatch rebuilds from the root, and within a key the state
/// self-syncs to whatever node the walk asks about by popping to the
/// divergence level and pushing the missing commitments.
#[derive(Default, Debug)]
struct IncState {
    plan_id: u64,
    skel_id: u64,
    combo_id: u64,
    /// Last `(plan, skeleton, skel_epoch)` whose non-overlay operands
    /// were ensured resident; lets steady-state calls skip the
    /// deps walk entirely.
    ensured_plan: u64,
    ensured_skel: u64,
    ensured_epoch: u64,
    journal: EdgeJournal,
    /// Undo log of topological-order slot writes: `(check, idx, old)`.
    ord_journal: Vec<(u32, u32, u32)>,
    levels: Vec<IncLevel>,
    /// Flattened committed co orders (indexed by
    /// [`IncLevel::co_start`]/[`IncLevel::co_len`]), kept to detect
    /// sibling moves on a co axis.
    co_arena: Vec<u32>,
    rels: IncRels,
    checks: Vec<IncCheck>,
    /// A skeleton-derived check failed: every node of this combination
    /// is definite-false.
    fixed_failed: bool,
    // Scratch buffers (persistent so steady-state pushes are
    // allocation-free).
    dirty_rf: Vec<u32>,
    dirty_co: Vec<u32>,
    dirty_fr: Vec<u32>,
    row_lo: Vec<u64>,
    row_hi: Vec<u64>,
    row_mark: Vec<u64>,
    rows_buf: Vec<u32>,
    seen_words: Vec<u32>,
    pk_visited: Vec<u64>,
    pk_found: Vec<u32>,
    pk_stack: Vec<(u32, u32)>,
    pk_window: Vec<u32>,
}

/// Resolves a journal tag back to its maintained relation (the pop
/// dispatch).
fn inc_rel_mut(rels: &mut IncRels, tag: u32) -> &mut Relation {
    let idx = (tag & 0x0FFF_FFFF) as usize;
    match tag >> 28 {
        KIND_FAM_LO => &mut rels.fam_lo[idx],
        KIND_FAM_HI => &mut rels.fam_hi[idx],
        KIND_VAR_LO => &mut rels.var_lo[idx],
        KIND_VAR_HI => &mut rels.var_hi[idx],
        KIND_REG_LO => &mut rels.reg_lo[idx],
        _ => &mut rels.reg_hi[idx],
    }
}

/// Pops maintained state back to `keep` levels: journalled relation
/// words and topological-order slots replay in reverse, the coherence
/// arena truncates, and any verdict memo taken below `keep` is voided.
fn inc_pop_to(inc: &mut IncState, keep: usize) {
    let lvl = inc.levels[keep];
    let IncState {
        journal,
        ord_journal,
        rels,
        levels,
        co_arena,
        checks,
        ..
    } = inc;
    // Word-level undo, newest first. Entries record the value *before*
    // the mutation, so replaying in reverse lands every word back on its
    // state at the level's mark.
    for &(tag, word, old) in journal.entries_from(lvl.jmark).iter().rev() {
        inc_rel_mut(rels, tag).set_word(word as usize, old);
    }
    journal.truncate(lvl.jmark);
    // Topological-order undo. For each node the earliest surviving entry
    // restores its pre-pop slot; replaying newest-first applies that one
    // last, so `order`/`pos` land mutually consistent.
    while ord_journal.len() > lvl.omark {
        let (ci, idx, old) = ord_journal.pop().unwrap();
        let st = &mut checks[ci as usize];
        st.order[idx as usize] = old;
        st.pos[old as usize] = idx;
    }
    co_arena.truncate(lvl.co_start);
    levels.truncate(keep);
    for st in checks.iter_mut() {
        if st.cyclic_since != usize::MAX && st.cyclic_since > keep {
            st.cyclic_since = usize::MAX;
        }
        if st.pass_since != usize::MAX && st.pass_since > keep {
            st.pass_since = usize::MAX;
        }
        if st.fail_since != usize::MAX && st.fail_since > keep {
            st.fail_since = usize::MAX;
        }
        // Witness cycles are *not* invalidated: they are re-verified
        // edge-by-edge against the current `hi` before being trusted.
    }
}

/// Seeds an acyclicity check's maintained topological order from its
/// root `lo` bound (iterative DFS, reverse postorder). Returns `true`
/// when `lo` is already cyclic; the order is then an arbitrary
/// permutation, which is fine — it is never consulted for insertions
/// while `cyclic_since` is set.
fn pk_topo_init(
    lo: &Relation,
    n: usize,
    st: &mut IncCheck,
    colour: &mut Vec<u8>,
    stack: &mut Vec<(usize, usize)>,
) -> bool {
    st.order.clear();
    st.order.resize(n, 0);
    st.pos.clear();
    st.pos.resize(n, 0);
    colour.clear();
    colour.resize(n, 0);
    stack.clear();
    let mut cyclic = false;
    let mut next = n;
    for root in 0..n {
        if colour[root] != 0 {
            continue;
        }
        colour[root] = 1;
        stack.push((root, 0));
        while let Some(&mut (node, ref mut from)) = stack.last_mut() {
            if let Some(succ) = lo.next_succ(node, *from) {
                *from = succ + 1;
                match colour[succ] {
                    0 => {
                        colour[succ] = 1;
                        stack.push((succ, 0));
                    }
                    1 => cyclic = true,
                    _ => {}
                }
            } else {
                colour[node] = 2;
                stack.pop();
                next -= 1;
                st.order[next] = node as u32;
                st.pos[node] = next as u32;
            }
        }
    }
    debug_assert_eq!(next, 0);
    cyclic
}

/// Pearce–Kelly single-edge insertion `x -> y` into the maintained
/// order. Returns `true` when the edge closes a cycle (the order is
/// left valid for the graph *without* the offending reachability, and
/// the caller freezes further maintenance via `cyclic_since`).
///
/// One-way variant: only the affected region `[pos[y], pos[x]]` is
/// searched forward from `y`; nodes found reachable (the set `F`) are
/// compacted to the back of the window, preserving relative order —
/// which keeps every constraint, since non-`F` in-window nodes cannot
/// be forward-reachable from any `F` node without `x` itself being
/// reachable.
#[allow(clippy::too_many_arguments)]
fn pk_insert(
    lo: &Relation,
    st: &mut IncCheck,
    ord_journal: &mut Vec<(u32, u32, u32)>,
    ci: u32,
    x: usize,
    y: usize,
    visited: &mut Vec<u64>,
    found: &mut Vec<u32>,
    stack: &mut Vec<(u32, u32)>,
    window: &mut Vec<u32>,
) -> bool {
    if x == y {
        return true;
    }
    let px = st.pos[x];
    let py = st.pos[y];
    if px < py {
        return false; // already consistent
    }
    let words = st.order.len().div_ceil(64);
    visited.clear();
    visited.resize(words, 0);
    found.clear();
    stack.clear();
    visited[y / 64] |= 1 << (y % 64);
    found.push(y as u32);
    stack.push((y as u32, 0));
    while let Some(&mut (node, ref mut from)) = stack.last_mut() {
        match lo.next_succ(node as usize, *from as usize) {
            Some(succ) => {
                *from = succ as u32 + 1;
                if succ == x {
                    return true; // y reaches x: the new edge closes a cycle
                }
                if st.pos[succ] < px && visited[succ / 64] & (1 << (succ % 64)) == 0 {
                    visited[succ / 64] |= 1 << (succ % 64);
                    found.push(succ as u32);
                    stack.push((succ as u32, 0));
                }
            }
            None => {
                stack.pop();
            }
        }
    }
    // Reorder the window [py, px]: non-F nodes first (relative order
    // kept), then the F set, preserving its relative order. Collect F
    // up-front — the write cursor trails the read cursor, so reading
    // `order` in place stays safe for the non-F pass.
    window.clear();
    for idx in py..=px {
        let node = st.order[idx as usize];
        if visited[node as usize / 64] & (1 << (node % 64)) != 0 {
            window.push(node);
        }
    }
    let mut w = py;
    for idx in py..=px {
        let node = st.order[idx as usize];
        if visited[node as usize / 64] & (1 << (node % 64)) == 0 {
            if w != idx {
                ord_journal.push((ci, w, st.order[w as usize]));
                st.order[w as usize] = node;
                st.pos[node as usize] = w;
            }
            w += 1;
        }
    }
    for &node in window.iter() {
        if st.order[w as usize] != node {
            ord_journal.push((ci, w, st.order[w as usize]));
            st.order[w as usize] = node;
            st.pos[node as usize] = w;
        }
        w += 1;
    }
    debug_assert_eq!(w, px + 1);
    false
}

/// Collects the deduplicated union of the dirty family rows selected by
/// `need` into `rows`. `mark` is a reusable bitset.
fn mark_rows(
    mark: &mut Vec<u64>,
    rows: &mut Vec<u32>,
    n: usize,
    need: u8,
    dirty_rf: &[u32],
    dirty_co: &[u32],
    dirty_fr: &[u32],
) {
    mark.clear();
    mark.resize(n.div_ceil(64), 0);
    let mut take = |list: &[u32]| {
        for &row in list {
            let (w, b) = (row as usize / 64, 1u64 << (row % 64));
            if mark[w] & b == 0 {
                mark[w] |= b;
                rows.push(row);
            }
        }
    };
    if need & FAM_RF_M != 0 {
        take(dirty_rf);
    }
    if need & FAM_CO_M != 0 {
        take(dirty_co);
    }
    if need & FAM_FR_M != 0 {
        take(dirty_fr);
    }
}

/// Journaled single-word store: the `words_per_row() == 1` fast path's
/// replacement for [`Relation::set_row_journaled`] (flat index == row).
#[inline]
fn store_word(journal: &mut EdgeJournal, rel: &mut Relation, tag: u32, idx: u32, val: u64) -> bool {
    let old = rel.word_at(idx as usize);
    if old != val {
        journal.record(tag, idx, old);
        rel.set_word(idx as usize, val);
        true
    } else {
        false
    }
}

/// Single-word variant of [`fr_row_fill`] (`n <= 64`): the `[lo, hi]`
/// fr bound of rf slot `k`'s read row as a pair of words.
#[inline]
fn fr_row_word(
    partial: &PartialView<'_>,
    k: usize,
    rf_depth: usize,
    co_depth: usize,
) -> (u64, u64) {
    let (mut lo, mut hi) = (0u64, 0u64);
    partial.fr_slot_each(k, rf_depth, co_depth, |w, definite| {
        let bit = 1u64 << w;
        hi |= bit;
        if definite {
            lo |= bit;
        }
    });
    (lo, hi)
}

/// Fills the `[lo, hi]` fr bound words of rf slot `k`'s read row at the
/// given explicit depths into `out_lo`/`out_hi`.
fn fr_row_fill(
    partial: &PartialView<'_>,
    k: usize,
    rf_depth: usize,
    co_depth: usize,
    words: usize,
    out_lo: &mut Vec<u64>,
    out_hi: &mut Vec<u64>,
) {
    out_lo.clear();
    out_lo.resize(words, 0);
    out_hi.clear();
    out_hi.resize(words, 0);
    partial.fr_slot_each(k, rf_depth, co_depth, |w, definite| {
        let (wi, bit) = (w / 64, 1u64 << (w % 64));
        out_hi[wi] |= bit;
        if definite {
            out_lo[wi] |= bit;
        }
    });
}

/// The reusable evaluation arena: registers, base-relation buffers, the
/// read/write event sets and DFS scratch. One context serves any number
/// of plans and executions; buffers grow to the high-water mark and are
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
    /// Bit-plane companions of `bases`/`regs` for batched evaluation
    /// ([`Plan::allows_batch`]): overlay-dependent slots hold one lane
    /// per batched candidate, skeleton-derived ones hold the scalar
    /// relation broadcast into all lanes (filled once per skeleton and
    /// shared by every batch of it). Sized lazily on the first batched
    /// evaluation; separate epoch vectors because the scalar and lane
    /// fills of one slot are independent.
    lane_bases: Vec<LaneRel>,
    lane_base_epoch: Vec<u64>,
    lane_regs: Vec<LaneRel>,
    lane_reg_epoch: Vec<u64>,
    lane_scratch: LaneRel,
    /// Per-node active-lane masks for the lane-parallel acyclicity check.
    lane_active: Vec<u64>,
    /// Stamp of the overlay batch last evaluated; 0 = none.
    batch_gen: u64,
    reads: EventSet,
    writes: EventSet,
    scratch_a: Relation,
    scratch_b: Relation,
    colour: Vec<u8>,
    stack: Vec<(usize, usize)>,
    /// Adaptive check schedule for the fast path: starts as the plan's
    /// static cheapest-first order, then failing checks move to the
    /// front — the check that forbids one candidate of a test usually
    /// forbids the next one too, so it is tried first.
    fast_order: Vec<usize>,
    /// The plan `fast_order` belongs to (0 = none).
    fast_order_plan: u64,
    /// Maintained path-indexed state of [`Plan::check_partial_view`].
    inc: IncState,
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
        self.batch_gen = 0;
        self.n = n;
        if self.bases.len() < plan.base_names.len() {
            self.bases
                .resize_with(plan.base_names.len(), Relation::default);
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

    /// Grows the bit-plane buffers to `plan`'s slot counts (no-op once
    /// warm).
    fn size_lanes(&mut self, plan: &Plan) {
        if self.lane_bases.len() < plan.base_names.len() {
            self.lane_bases
                .resize_with(plan.base_names.len(), LaneRel::default);
        }
        self.lane_base_epoch.resize(self.lane_bases.len(), 0);
        if self.lane_regs.len() < plan.ops.len() {
            self.lane_regs.resize_with(plan.ops.len(), LaneRel::default);
        }
        self.lane_reg_epoch.resize(self.lane_regs.len(), 0);
    }

    /// The bit-plane operand buffer of `s` (valid only after the slot's
    /// lane fill or broadcast this batch/skeleton).
    fn lane_src(&self, s: Src) -> &LaneRel {
        match s {
            Src::Base(i) => &self.lane_bases[i],
            Src::Reg(i) => &self.lane_regs[i],
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

    /// Compiles the leaves of a union tree (`a | b | c | …`) in source
    /// order.
    fn union_leaves(&mut self, e: &Expr, out: &mut Vec<Src>) -> Result<(), CatError> {
        if let Expr::Union(a, b) = e {
            self.union_leaves(a, out)?;
            self.union_leaves(b, out)?;
        } else {
            out.push(self.expr(e)?);
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

    fn expr(&mut self, e: &Expr) -> Result<Src, CatError> {
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
                            if self.depth >= MAX_INLINE_DEPTH {
                                return Err(CatError::new(format!(
                                    "function {name:?} recurses deeper than {MAX_INLINE_DEPTH}"
                                )));
                            }
                            self.depth += 1;
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
                            self.depth -= 1;
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
    /// Returns a [`CatError`] for programs the interpreter could not
    /// evaluate either: applying a non-function, using a function as a
    /// relation, or unboundedly recursive function definitions.
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
        let base_overlay: Vec<bool> = c.base_names.iter().map(|n| is_overlay_base(n)).collect();
        let mut op_overlay = vec![false; c.ops.len()];
        for i in 0..c.ops.len() {
            let mut overlay = false;
            c.ops[i].for_each_src(&c.operands, |s| {
                overlay |= match s {
                    Src::Base(b) => base_overlay[b],
                    Src::Reg(r) => op_overlay[r],
                };
            });
            op_overlay[i] = overlay;
        }
        let plain_slot: Vec<Option<usize>> = c
            .base_names
            .iter()
            .map(|n| match n.as_str() {
                "rfe" | "rfi" | "coe" | "coi" | "fre" | "fri" => c.base_slots.get(&n[..2]).copied(),
                _ => None,
            })
            .collect();

        // Family masks and row-locality for the incremental evaluator:
        // another forward sweep, plus the set of overlay ops some check
        // actually reaches (dead bindings are never maintained — their
        // scalar operands may never be materialised).
        let base_fam: Vec<u8> = c
            .base_names
            .iter()
            .map(|n| base_family(n).map_or(0, |f| 1 << f))
            .collect();
        let mut op_fam = vec![0u8; c.ops.len()];
        for i in 0..c.ops.len() {
            let mut fam = 0u8;
            c.ops[i].for_each_src(&c.operands, |s| {
                fam |= match s {
                    Src::Base(b) => base_fam[b],
                    Src::Reg(r) => op_fam[r],
                };
            });
            op_fam[i] = fam;
        }
        let fam_used = base_fam.iter().fold(0, |m, &f| m | f);
        let mut live = vec![false; c.ops.len()];
        for check in &checks {
            for &op in &check.deps {
                live[op] = true;
            }
        }
        let inc_ops: Vec<u32> = (0..c.ops.len())
            .filter(|&i| live[i] && op_fam[i] != 0)
            .map(|i| i as u32)
            .collect();
        let row_local = inc_ops.iter().all(|&i| {
            matches!(
                c.ops[i as usize],
                Op::Zero
                    | Op::Union(..)
                    | Op::UnionN { .. }
                    | Op::Inter(..)
                    | Op::Diff(..)
                    | Op::Opt(_)
                    | Op::Restrict(..)
            )
        });

        Ok(Plan {
            id: next_stamp(),
            base_names: c.base_names,
            ops: c.ops,
            operands: c.operands,
            checks,
            fast_order,
            base_overlay,
            op_overlay,
            plain_slot,
            base_fam,
            op_fam,
            fam_used,
            inc_ops,
            row_local,
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
        let required = if self.base_overlay[slot] {
            ctx.epoch
        } else {
            ctx.skel_epoch
        };
        if ctx.base_epoch[slot] >= required {
            return Ok(());
        }
        let name = self.base_names[slot].as_str();
        let mut dst = mem::take(&mut ctx.bases[slot]);
        let filled = match env {
            EnvSource::Map(map) => match map.get(name) {
                Some(r) => {
                    dst.copy_from(r);
                    true
                }
                None => false,
            },
            EnvSource::Exec(exec) => fill_base_from_exec(exec, name, &mut dst, ctx),
            // On the view path (and only there — a map environment may
            // bind `rfe` to anything) an internal/external variant is
            // one intersection off the plain relation, when the plan
            // also reads that plain base.
            EnvSource::View(view) => match self.plain_slot[slot] {
                Some(plain) => {
                    self.ensure_base(ctx, plain, env)?;
                    let other = if name.ends_with('e') {
                        view.ext()
                    } else {
                        view.int()
                    };
                    dst.inter_from(&ctx.bases[plain], other);
                    true
                }
                None => fill_base_from_view(view, name, &mut dst, ctx),
            },
        };
        ctx.bases[slot] = dst;
        if !filled {
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

    /// The fast path: `true` iff every check passes on `exec`, evaluating
    /// checks cheapest-first and stopping at the first failure. Only the
    /// base relations and registers the verdict actually needs are
    /// materialised.
    ///
    /// # Errors
    ///
    /// Returns a [`CatError`] if the program references a base relation
    /// the execution does not define. (Unlike the interpreter, bindings
    /// no check depends on are never evaluated here, so errors confined
    /// to dead bindings do not surface.)
    pub fn allows_exec(&self, ctx: &mut EvalContext, exec: &Execution) -> Result<bool, CatError> {
        ctx.begin(self, exec.len());
        exec.fill_read_set(&mut ctx.reads);
        exec.fill_write_set(&mut ctx.writes);
        let env = EnvSource::Exec(exec);
        self.allows_inner(ctx, &env)
    }

    /// Full-outcome mode: evaluates every statement (in program order,
    /// like the interpreter — including bindings no check uses) and
    /// reports each named check.
    ///
    /// # Errors
    ///
    /// Returns a [`CatError`] for unbound base relations, even in unused
    /// bindings.
    pub fn check_exec(
        &self,
        ctx: &mut EvalContext,
        exec: &Execution,
    ) -> Result<Vec<CheckOutcome>, CatError> {
        ctx.begin(self, exec.len());
        exec.fill_read_set(&mut ctx.reads);
        exec.fill_write_set(&mut ctx.writes);
        let env = EnvSource::Exec(exec);
        self.check_inner(ctx, &env)
    }

    /// [`Plan::allows_exec`] over a streamed [`ExecutionView`] — the
    /// cache-miss hot path of the skeleton/overlay enumerator. The
    /// context keys its arena on (plan, skeleton, overlay) stamps:
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
    /// See [`Plan::allows_exec`].
    pub fn allows_view(
        &self,
        ctx: &mut EvalContext,
        view: &ExecutionView<'_>,
    ) -> Result<bool, CatError> {
        self.begin_view(ctx, view);
        self.allows_inner(ctx, &EnvSource::View(view))
    }

    /// [`Plan::check_exec`] over a streamed [`ExecutionView`].
    ///
    /// # Errors
    ///
    /// See [`Plan::check_exec`].
    pub fn check_view(
        &self,
        ctx: &mut EvalContext,
        view: &ExecutionView<'_>,
    ) -> Result<Vec<CheckOutcome>, CatError> {
        self.begin_view(ctx, view);
        self.check_inner(ctx, &EnvSource::View(view))
    }

    /// Three-valued evaluation over a partially committed candidate:
    /// `Ok(Some(v))` when every concrete extension of `partial`'s open
    /// rf slots and coherence axes yields verdict `v`, `Ok(None)` when
    /// extensions may disagree (or the bounds are too loose to tell) —
    /// the conflict-driven cutoff of
    /// [`crate::enumerate::for_each_execution_pruned`].
    ///
    /// Every overlay-dependent base relation and register is evaluated
    /// as an interval `[lo, hi]` with `lo ⊆ R ⊆ hi` for every extension
    /// `R` (`PartialView::fill_rf_bounds` and friends supply the base
    /// intervals). All operators are monotone in both operands except
    /// difference, which is antitone in its right operand and swaps
    /// bounds there (`lo = a.lo \ b.hi`, `hi = a.hi \ b.lo`). A check is
    /// definite when the bound that could still change it already
    /// cannot: `empty`/`irreflexive`/`acyclic` pass for every extension
    /// when `hi` passes, and fail for every extension when `lo` fails.
    /// A definite failure short-circuits (any failing check forbids the
    /// whole subtree); `Some(true)` requires every check definite-true.
    ///
    /// The intervals are not refilled per call. The walk asks about
    /// nodes that share all but the deepest committed axis, so the
    /// context keeps the intervals of the current tree *path* and moves
    /// between nodes by popping to the divergence level (word-level undo
    /// journal) and pushing the newly committed axes (edge deltas,
    /// row-local register recomputes, Pearce–Kelly order maintenance
    /// for acyclicity). Along a path `lo` only grows and `hi` only
    /// shrinks, and every verdict memo leans on that monotonicity.
    ///
    /// Only plans whose overlay operators are row-local
    /// ([`Plan::is_row_local`]) have this evaluation; for any other plan
    /// the answer is always `Ok(None)`, which never cuts.
    ///
    /// # Errors
    ///
    /// See [`Plan::allows_exec`].
    pub fn check_partial_view(
        &self,
        ctx: &mut EvalContext,
        partial: &PartialView<'_>,
    ) -> Result<Option<bool>, CatError> {
        if !self.row_local {
            return Ok(None);
        }
        let view = partial.as_view();
        self.begin_view(ctx, &view);
        // Skeleton-derived operands first: epoch-gated, so once warm
        // this is a few integer compares per node. (The maintained
        // relations read scalar rows of non-overlay operands during row
        // recomputes, and an interleaved foreign plan may have evicted
        // them.)
        // `EvalContext::begin` bumps `skel_epoch` whenever the plan or
        // skeleton switches, so a matching triple means nothing could
        // have evicted the scalar slots since the last ensure.
        if ctx.inc.ensured_plan != self.id
            || ctx.inc.ensured_skel != view.skeleton_id()
            || ctx.inc.ensured_epoch != ctx.skel_epoch
        {
            let env = EnvSource::View(&view);
            for check in &self.checks {
                for &op in &check.deps {
                    if self.op_overlay[op] {
                        let mut src_err = Ok(());
                        self.ops[op].for_each_src(&self.operands, |s| {
                            if src_err.is_ok() {
                                if let Src::Base(b) = s {
                                    if !self.base_overlay[b] {
                                        src_err = self.ensure_base(ctx, b, &env);
                                    }
                                }
                            }
                        });
                        src_err?;
                    } else {
                        self.run_op(ctx, op, &env)?;
                    }
                }
                if let Src::Base(b) = check.src {
                    if !self.base_overlay[b] {
                        self.ensure_base(ctx, b, &env)?;
                    }
                }
            }
            ctx.inc.ensured_plan = self.id;
            ctx.inc.ensured_skel = view.skeleton_id();
            ctx.inc.ensured_epoch = ctx.skel_epoch;
        }
        if ctx.inc.plan_id != self.id
            || ctx.inc.skel_id != view.skeleton_id()
            || ctx.inc.combo_id != partial.combination_id()
        {
            self.inc_reset(ctx, partial, &view)?;
        }
        let full = partial.rf_depth() == partial.reads_list().len()
            && partial.co_depth() == partial.skel().writes_per_loc().len();
        self.inc_sync(ctx, partial, &view, full);
        Ok(self.inc_verdict(ctx, full))
    }

    /// `true` iff every overlay-dependent operator the checks reach is
    /// row-local (`|`, `&`, `\`, `?` and the sort filters) — the plans
    /// [`Plan::check_partial_view`] can bound.
    pub fn is_row_local(&self) -> bool {
        self.row_local
    }

    // -------------------------------------------------- path state
    //
    // The maintained path of `check_partial_view`: `inc_reset` rebuilds
    // it at a combination's root, `inc_sync` pops and pushes it to the
    // asked node, `inc_verdict` reads the verdict off it. `walk_diff.rs`
    // checks the walk built on it against the exhaustive oracle.

    /// Rebuilds the maintained state at the root of a new (plan,
    /// skeleton, combination): baseline interval fills at depths
    /// `(0, 0)`, one scalar verdict per skeleton-derived check, and a
    /// topological order per overlay acyclicity check.
    fn inc_reset(
        &self,
        ctx: &mut EvalContext,
        partial: &PartialView<'_>,
        view: &ExecutionView<'_>,
    ) -> Result<(), CatError> {
        let n = ctx.n;
        {
            let inc = &mut ctx.inc;
            inc.plan_id = 0; // invalid until fully built
            inc.journal.clear();
            inc.ord_journal.clear();
            inc.levels.clear();
            inc.co_arena.clear();
            inc.fixed_failed = false;
            if inc.rels.fam_lo.len() < 3 {
                inc.rels.fam_lo.resize_with(3, Relation::default);
                inc.rels.fam_hi.resize_with(3, Relation::default);
            }
            if inc.rels.var_lo.len() < self.base_names.len() {
                inc.rels
                    .var_lo
                    .resize_with(self.base_names.len(), Relation::default);
                inc.rels
                    .var_hi
                    .resize_with(self.base_names.len(), Relation::default);
            }
            if inc.rels.reg_lo.len() < self.ops.len() {
                inc.rels
                    .reg_lo
                    .resize_with(self.ops.len(), Relation::default);
                inc.rels
                    .reg_hi
                    .resize_with(self.ops.len(), Relation::default);
            }
            if inc.checks.len() < self.checks.len() {
                inc.checks.resize_with(self.checks.len(), IncCheck::default);
            }
        }
        // Family bounds at the root.
        let root = partial.at_depth(0, 0);
        {
            let inc = &mut ctx.inc;
            if self.fam_used & FAM_RF_M != 0 {
                root.fill_rf_bounds(&mut inc.rels.fam_lo[FAM_RF], &mut inc.rels.fam_hi[FAM_RF]);
            }
            if self.fam_used & FAM_CO_M != 0 {
                root.fill_co_bounds(&mut inc.rels.fam_lo[FAM_CO], &mut inc.rels.fam_hi[FAM_CO]);
            }
            if self.fam_used & FAM_FR_M != 0 {
                root.fill_fr_bounds(&mut inc.rels.fam_lo[FAM_FR], &mut inc.rels.fam_hi[FAM_FR]);
            }
        }
        // Variant bounds: `fam ∩ ext/int`, componentwise.
        for slot in 0..self.base_names.len() {
            let fam = self.base_fam[slot];
            if fam == 0 || self.base_names[slot].len() == 2 {
                continue;
            }
            let f = fam.trailing_zeros() as usize;
            let other = if self.base_names[slot].ends_with('e') {
                view.ext()
            } else {
                view.int()
            };
            let rels = &mut ctx.inc.rels;
            let mut lo = mem::take(&mut rels.var_lo[slot]);
            let mut hi = mem::take(&mut rels.var_hi[slot]);
            lo.inter_from(&rels.fam_lo[f], other);
            hi.inter_from(&rels.fam_hi[f], other);
            rels.var_lo[slot] = lo;
            rels.var_hi[slot] = hi;
        }
        // Overlay registers: full row-by-row compute through the same
        // row kernel the pushes use.
        for idx in 0..self.inc_ops.len() {
            let i = self.inc_ops[idx] as usize;
            let EvalContext {
                inc,
                bases,
                regs,
                reads,
                writes,
                ..
            } = ctx;
            let IncState {
                rels,
                row_lo,
                row_hi,
                rows_buf,
                journal,
                ..
            } = inc;
            let mut lo = mem::take(&mut rels.reg_lo[i]);
            let mut hi = mem::take(&mut rels.reg_hi[i]);
            lo.reset(n);
            hi.reset(n);
            let words = lo.words_per_row();
            if words == 1 {
                // Same single-word kernel the pushes use; the handful
                // of journal entries it records sit below the first
                // level's mark and are never replayed.
                rows_buf.clear();
                rows_buf.extend(0..n as u32);
                self.inc_op_rows_1(
                    rels, bases, regs, reads, writes, i, rows_buf, journal, &mut lo, &mut hi, false,
                );
            } else {
                for row in 0..n {
                    self.inc_op_row(
                        rels, bases, regs, reads, writes, i, row, words, row_lo, row_hi,
                    );
                    lo.set_row(row, row_lo);
                    hi.set_row(row, row_hi);
                }
            }
            rels.reg_lo[i] = lo;
            rels.reg_hi[i] = hi;
        }
        // Checks: skeleton-derived ones get one scalar verdict for the
        // whole combination; overlay acyclicity checks get a maintained
        // topological order of their root `lo` bound.
        let env = EnvSource::View(view);
        for ci in 0..self.checks.len() {
            let check = &self.checks[ci];
            if !self.src_is_overlay(check.src) {
                for &op in &check.deps {
                    self.run_op(ctx, op, &env)?;
                }
                self.ensure_src(ctx, check.src, &env)?;
                let passed = self.check_passes(ctx, check);
                let inc = &mut ctx.inc;
                inc.checks[ci].fixed = if passed { 1 } else { 2 };
                if !passed {
                    inc.fixed_failed = true;
                }
                continue;
            }
            let mut colour = mem::take(&mut ctx.colour);
            let mut stack = mem::take(&mut ctx.stack);
            {
                let EvalContext {
                    inc, bases, regs, ..
                } = &mut *ctx;
                let IncState {
                    rels,
                    checks: states,
                    ..
                } = inc;
                let st = &mut states[ci];
                st.fixed = 0;
                st.cyclic_since = usize::MAX;
                st.pass_since = usize::MAX;
                st.fail_since = usize::MAX;
                st.witness.clear();
                if check.kind == CheckKind::Acyclic {
                    let lo = self.inc_src_lo(rels, bases, regs, check.src);
                    if pk_topo_init(lo, n, st, &mut colour, &mut stack) {
                        // Cyclic already at the root: every node of the
                        // combination is definite-false, and the order
                        // (an arbitrary permutation) is never consulted
                        // for insertions.
                        st.cyclic_since = 0;
                    }
                }
            }
            ctx.colour = colour;
            ctx.stack = stack;
        }
        let inc = &mut ctx.inc;
        inc.plan_id = self.id;
        inc.skel_id = view.skeleton_id();
        inc.combo_id = partial.combination_id();
        Ok(())
    }

    /// Moves the maintained path to `partial`'s node: finds the longest
    /// recorded level prefix still matching the overlay's commitments,
    /// pops everything deeper, and pushes the missing levels. Keying on
    /// the *commitments* (not on walk callbacks) makes the state robust
    /// to any visit order.
    fn inc_sync(
        &self,
        ctx: &mut EvalContext,
        partial: &PartialView<'_>,
        view: &ExecutionView<'_>,
        full: bool,
    ) {
        let reads = partial.reads_list();
        let rl = reads.len();
        let target = partial.rf_depth() + partial.co_depth();
        let overlay = partial.overlay();
        let keep = {
            let inc = &ctx.inc;
            let mut keep = 0;
            while keep < inc.levels.len() && keep < target {
                let ok = if keep < rl {
                    inc.levels[keep].rf_choice == enc_rf(overlay.rf_of(reads[keep]))
                } else {
                    let lvl = &inc.levels[keep];
                    let stored = &inc.co_arena[lvl.co_start..lvl.co_start + lvl.co_len];
                    let cur = overlay.co_order(keep - rl);
                    stored.len() == cur.len()
                        && stored.iter().zip(cur).all(|(&a, &b)| a as usize == b)
                };
                if !ok {
                    break;
                }
                keep += 1;
            }
            keep
        };
        if ctx.inc.levels.len() > keep {
            inc_pop_to(&mut ctx.inc, keep);
        }
        for d in keep..target {
            // The final push of a full-depth sync commits the last open
            // axis: every interval collapses (`lo == hi`), so the level
            // can skip `hi` maintenance entirely — nothing reads the
            // overlay `hi` tier at a fully-definite node, and the undo
            // journal replays exactly the words that were written.
            self.inc_push_level(ctx, partial, view, d, full && d + 1 == target);
        }
        debug_assert_eq!(ctx.inc.levels.len(), target);
    }

    /// Pushes tree level `d`: applies the newly committed axis's edge
    /// deltas to the family bounds, recomputes exactly the dirty rows of
    /// the variant and register intervals, and feeds the `lo` insertions
    /// to each acyclicity check's maintained topological order.
    fn inc_push_level(
        &self,
        ctx: &mut EvalContext,
        partial: &PartialView<'_>,
        view: &ExecutionView<'_>,
        d: usize,
        definite: bool,
    ) {
        let reads = partial.reads_list();
        let rl = reads.len();
        let skel = partial.skel();
        let overlay = partial.overlay();

        let EvalContext {
            inc,
            bases,
            regs,
            reads: read_set,
            writes: write_set,
            n,
            ..
        } = ctx;
        let n = *n;
        let IncState {
            journal,
            ord_journal,
            rels,
            levels,
            co_arena,
            checks,
            dirty_rf,
            dirty_co,
            dirty_fr,
            row_lo,
            row_hi,
            row_mark,
            rows_buf,
            seen_words,
            pk_visited,
            pk_found,
            pk_stack,
            pk_window,
            ..
        } = inc;

        let words = n.div_ceil(64);
        let skip_hi = definite && words == 1;
        dirty_rf.clear();
        dirty_co.clear();
        dirty_fr.clear();
        let mut lvl = IncLevel {
            jmark: journal.mark(),
            omark: ord_journal.len(),
            co_start: co_arena.len(),
            co_len: 0,
            rf_choice: u32::MAX,
        };

        if d < rl {
            // An rf slot commits. Paths are canonical (rf levels before
            // co levels), so no co axis is committed yet and the fr row
            // is recomputed at depths `(d + 1, 0)`.
            let r = reads[d];
            let cands = partial.rf_candidates(d);
            let choice = overlay.rf_of(r);
            lvl.rf_choice = enc_rf(choice);
            if cands.len() > 1 {
                if self.fam_used & FAM_RF_M != 0 {
                    if let Some(w) = choice {
                        rels.fam_lo[FAM_RF].push_edges(
                            journal,
                            inc_tag(KIND_FAM_LO, FAM_RF),
                            std::iter::once((w, r)),
                        );
                    }
                    if !skip_hi {
                        rels.fam_hi[FAM_RF].clear_edges(
                            journal,
                            inc_tag(KIND_FAM_HI, FAM_RF),
                            cands
                                .iter()
                                .flatten()
                                .filter(|&&w| Some(w) != choice)
                                .map(|&w| (w, r)),
                        );
                    }
                    // Exactly the rows whose bounds moved: the chosen
                    // source's `lo` row, and (unless `hi` is skipped)
                    // each non-chosen candidate's `hi` row.
                    if let Some(w) = choice {
                        dirty_rf.push(w as u32);
                    }
                    if !skip_hi {
                        dirty_rf.extend(
                            cands
                                .iter()
                                .flatten()
                                .filter(|&&w| Some(w) != choice)
                                .map(|&w| w as u32),
                        );
                    }
                }
                if self.fam_used & FAM_FR_M != 0 && skel.loc_index(r) != usize::MAX {
                    let changed = if words == 1 {
                        let (lw, hw) = fr_row_word(partial, d, d + 1, 0);
                        let mut ch = store_word(
                            journal,
                            &mut rels.fam_lo[FAM_FR],
                            inc_tag(KIND_FAM_LO, FAM_FR),
                            r as u32,
                            lw,
                        );
                        if !skip_hi {
                            ch |= store_word(
                                journal,
                                &mut rels.fam_hi[FAM_FR],
                                inc_tag(KIND_FAM_HI, FAM_FR),
                                r as u32,
                                hw,
                            );
                        }
                        ch
                    } else {
                        fr_row_fill(partial, d, d + 1, 0, words, row_lo, row_hi);
                        rels.fam_lo[FAM_FR].set_row_journaled(
                            journal,
                            inc_tag(KIND_FAM_LO, FAM_FR),
                            r,
                            row_lo,
                        ) | rels.fam_hi[FAM_FR].set_row_journaled(
                            journal,
                            inc_tag(KIND_FAM_HI, FAM_FR),
                            r,
                            row_hi,
                        )
                    };
                    if changed {
                        dirty_fr.push(r as u32);
                    }
                }
            }
        } else {
            // A coherence axis commits (every rf slot is already
            // committed: `rf_depth == rl` here).
            let li = d - rl;
            let order = overlay.co_order(li);
            lvl.co_len = order.len();
            co_arena.extend(order.iter().map(|&w| w as u32));
            let ws = &skel.writes_per_loc()[li];
            if ws.len() > 1 {
                if self.fam_used & FAM_CO_M != 0 {
                    // Open axis held every ordered pair both ways in
                    // `hi`; committing keeps the forward transitive
                    // pairs (into `lo` too) and drops the anti-pairs.
                    rels.fam_lo[FAM_CO].push_edges(
                        journal,
                        inc_tag(KIND_FAM_LO, FAM_CO),
                        (0..order.len()).flat_map(|i| {
                            ((i + 1)..order.len()).map(move |j| (order[i], order[j]))
                        }),
                    );
                    if !skip_hi {
                        rels.fam_hi[FAM_CO].clear_edges(
                            journal,
                            inc_tag(KIND_FAM_HI, FAM_CO),
                            (0..order.len()).flat_map(|i| {
                                ((i + 1)..order.len()).map(move |j| (order[j], order[i]))
                            }),
                        );
                    }
                    dirty_co.extend(ws.iter().map(|&w| w as u32));
                }
                if self.fam_used & FAM_FR_M != 0 {
                    if words == 1 {
                        // Every rf slot is committed here (canonical
                        // paths), so a read's fr row is exactly the
                        // order's suffix after its source — read off
                        // per-write suffix masks instead of per-read
                        // candidate scans.
                        let mut after = [0u64; 64];
                        let mut all_ws = 0u64;
                        for &w in order.iter().rev() {
                            after[w] = all_ws;
                            all_ws |= 1 << w;
                        }
                        for &r in reads {
                            if skel.loc_index(r) != li {
                                continue;
                            }
                            let row = match overlay.rf_of(r) {
                                None => all_ws,
                                Some(src) => after[src],
                            };
                            let mut ch = store_word(
                                journal,
                                &mut rels.fam_lo[FAM_FR],
                                inc_tag(KIND_FAM_LO, FAM_FR),
                                r as u32,
                                row,
                            );
                            if !skip_hi {
                                ch |= store_word(
                                    journal,
                                    &mut rels.fam_hi[FAM_FR],
                                    inc_tag(KIND_FAM_HI, FAM_FR),
                                    r as u32,
                                    row,
                                );
                            }
                            if ch {
                                dirty_fr.push(r as u32);
                            }
                        }
                    } else {
                        for (k, &r) in reads.iter().enumerate() {
                            if skel.loc_index(r) != li {
                                continue;
                            }
                            fr_row_fill(partial, k, rl, li + 1, words, row_lo, row_hi);
                            let changed = rels.fam_lo[FAM_FR].set_row_journaled(
                                journal,
                                inc_tag(KIND_FAM_LO, FAM_FR),
                                r,
                                row_lo,
                            ) | rels.fam_hi[FAM_FR].set_row_journaled(
                                journal,
                                inc_tag(KIND_FAM_HI, FAM_FR),
                                r,
                                row_hi,
                            );
                            if changed {
                                dirty_fr.push(r as u32);
                            }
                        }
                    }
                }
            }
        }
        levels.push(lvl);
        let depth = levels.len();

        let mut dirty_mask = 0u8;
        if !dirty_rf.is_empty() {
            dirty_mask |= FAM_RF_M;
        }
        if !dirty_co.is_empty() {
            dirty_mask |= FAM_CO_M;
        }
        if !dirty_fr.is_empty() {
            dirty_mask |= FAM_FR_M;
        }
        if dirty_mask != 0 {
            // Variants riding the dirty families.
            for slot in 0..self.base_names.len() {
                let fam = self.base_fam[slot];
                if fam & dirty_mask == 0 || self.base_names[slot].len() == 2 {
                    continue;
                }
                let f = fam.trailing_zeros() as usize;
                let other = if self.base_names[slot].ends_with('e') {
                    view.ext()
                } else {
                    view.int()
                };
                let rows: &[u32] = match f {
                    FAM_RF => dirty_rf,
                    FAM_CO => dirty_co,
                    _ => dirty_fr,
                };
                let mut lo = mem::take(&mut rels.var_lo[slot]);
                let mut hi = mem::take(&mut rels.var_hi[slot]);
                if words == 1 {
                    for &row in rows {
                        let o = other.word_at(row as usize);
                        store_word(
                            journal,
                            &mut lo,
                            inc_tag(KIND_VAR_LO, slot),
                            row,
                            rels.fam_lo[f].word_at(row as usize) & o,
                        );
                        if !skip_hi {
                            store_word(
                                journal,
                                &mut hi,
                                inc_tag(KIND_VAR_HI, slot),
                                row,
                                rels.fam_hi[f].word_at(row as usize) & o,
                            );
                        }
                    }
                } else {
                    for &row in rows {
                        let row = row as usize;
                        row_lo.clear();
                        row_lo.extend(
                            rels.fam_lo[f]
                                .row(row)
                                .iter()
                                .zip(other.row(row))
                                .map(|(&a, &b)| a & b),
                        );
                        row_hi.clear();
                        row_hi.extend(
                            rels.fam_hi[f]
                                .row(row)
                                .iter()
                                .zip(other.row(row))
                                .map(|(&a, &b)| a & b),
                        );
                        lo.set_row_journaled(journal, inc_tag(KIND_VAR_LO, slot), row, row_lo);
                        hi.set_row_journaled(journal, inc_tag(KIND_VAR_HI, slot), row, row_hi);
                    }
                }
                rels.var_lo[slot] = lo;
                rels.var_hi[slot] = hi;
            }
            // Row-local register recomputes, in instruction order
            // (operand registers are always lower-numbered). Consecutive
            // ops often share a dirty-family mask, so the deduplicated
            // row list is memoized per mask.
            let mut rows_for: u8 = 0;
            for &i in &self.inc_ops {
                let i = i as usize;
                let need = self.op_fam[i] & dirty_mask;
                if need == 0 {
                    continue;
                }
                if rows_for != need {
                    rows_buf.clear();
                    mark_rows(row_mark, rows_buf, n, need, dirty_rf, dirty_co, dirty_fr);
                    rows_for = need;
                }
                let mut lo = mem::take(&mut rels.reg_lo[i]);
                let mut hi = mem::take(&mut rels.reg_hi[i]);
                if words == 1 {
                    self.inc_op_rows_1(
                        rels, bases, regs, read_set, write_set, i, rows_buf, journal, &mut lo,
                        &mut hi, skip_hi,
                    );
                } else {
                    for &row in rows_buf.iter() {
                        let row = row as usize;
                        self.inc_op_row(
                            rels, bases, regs, read_set, write_set, i, row, words, row_lo, row_hi,
                        );
                        lo.set_row_journaled(journal, inc_tag(KIND_REG_LO, i), row, row_lo);
                        hi.set_row_journaled(journal, inc_tag(KIND_REG_HI, i), row, row_hi);
                    }
                }
                rels.reg_lo[i] = lo;
                rels.reg_hi[i] = hi;
            }
        }

        // Pearce–Kelly maintenance: feed this level's `lo` insertions of
        // each acyclicity check's source to its topological order. The
        // insertions are read straight off the journal (first record per
        // word holds the pre-level value).
        for ci in 0..self.checks.len() {
            let check = &self.checks[ci];
            if check.kind != CheckKind::Acyclic || !self.src_is_overlay(check.src) {
                continue;
            }
            let st = &mut checks[ci];
            if st.cyclic_since != usize::MAX {
                continue;
            }
            let want = self.src_lo_tag(check.src);
            let lo = self.inc_src_lo(rels, bases, regs, check.src);
            seen_words.clear();
            let mut cyclic = false;
            'edges: for &(tag, word, old) in journal.entries_from(lvl.jmark) {
                if tag != want || seen_words.contains(&word) {
                    continue;
                }
                seen_words.push(word);
                let mut ins = lo.word_at(word as usize) & !old;
                let wpr = lo.words_per_row();
                let row = word as usize / wpr;
                let base_col = (word as usize % wpr) * 64;
                while ins != 0 {
                    let col = base_col + ins.trailing_zeros() as usize;
                    ins &= ins - 1;
                    if pk_insert(
                        lo,
                        st,
                        ord_journal,
                        ci as u32,
                        row,
                        col,
                        pk_visited,
                        pk_found,
                        pk_stack,
                        pk_window,
                    ) {
                        cyclic = true;
                        break 'edges;
                    }
                }
            }
            if cyclic {
                st.cyclic_since = depth;
            }
        }
    }

    /// The verdict at the synced node, combining fixed memos, the
    /// maintained cycle state and direct interval probes. Equivalent to
    /// the scalar combine: any definite failure forces `Some(false)`,
    /// all-definite-pass forces `Some(true)`.
    fn inc_verdict(&self, ctx: &mut EvalContext, definite: bool) -> Option<bool> {
        let EvalContext {
            inc,
            bases,
            regs,
            colour,
            stack,
            ..
        } = ctx;
        let IncState {
            rels,
            checks,
            levels,
            fixed_failed,
            ..
        } = inc;
        if *fixed_failed {
            return Some(false);
        }
        let depth = levels.len();
        let mut all_definite = true;
        for ci in 0..self.checks.len() {
            let check = &self.checks[ci];
            let st = &mut checks[ci];
            let verdict = match st.fixed {
                1 => Some(true),
                2 => Some(false),
                _ => match check.kind {
                    CheckKind::Acyclic => {
                        if st.cyclic_since <= depth {
                            Some(false)
                        } else if st.pass_since <= depth {
                            Some(true)
                        } else if definite {
                            // Every axis is committed: the source is
                            // exactly its `lo`, which Pearce–Kelly
                            // certifies acyclic (a cycle would have set
                            // `cyclic_since`) — no search, and the
                            // (possibly unmaintained) `hi` is not read.
                            Some(true)
                        } else {
                            // `lo` is acyclic (Pearce–Kelly would have
                            // flagged it); the verdict hangs on `hi`.
                            // A cached witness cycle whose edges all
                            // survive proves `hi` still cyclic without
                            // a search — `hi` only shrinks, so the
                            // probe is sound at any depth.
                            let hi = self.inc_src_hi(rels, bases, regs, check.src);
                            let witness_holds = !st.witness.is_empty()
                                && st
                                    .witness
                                    .iter()
                                    .all(|&(a, b)| hi.contains(a as usize, b as usize));
                            if witness_holds || hi.find_cycle_with(colour, stack, &mut st.witness) {
                                None
                            } else {
                                st.pass_since = depth;
                                Some(true)
                            }
                        }
                    }
                    CheckKind::Empty => {
                        if st.fail_since <= depth {
                            Some(false)
                        } else if st.pass_since <= depth {
                            Some(true)
                        } else if definite {
                            // `lo` is the whole (definite) source here.
                            let lo = self.inc_src_lo(rels, bases, regs, check.src);
                            Some(lo.is_empty())
                        } else {
                            let lo = self.inc_src_lo(rels, bases, regs, check.src);
                            let hi = self.inc_src_hi(rels, bases, regs, check.src);
                            if hi.is_empty() {
                                st.pass_since = depth;
                                Some(true)
                            } else if !lo.is_empty() {
                                st.fail_since = depth;
                                Some(false)
                            } else {
                                None
                            }
                        }
                    }
                    CheckKind::Irreflexive => {
                        if st.fail_since <= depth {
                            Some(false)
                        } else if st.pass_since <= depth {
                            Some(true)
                        } else if definite {
                            let lo = self.inc_src_lo(rels, bases, regs, check.src);
                            Some(lo.is_irreflexive())
                        } else {
                            let lo = self.inc_src_lo(rels, bases, regs, check.src);
                            let hi = self.inc_src_hi(rels, bases, regs, check.src);
                            if hi.is_irreflexive() {
                                st.pass_since = depth;
                                Some(true)
                            } else if !lo.is_irreflexive() {
                                st.fail_since = depth;
                                Some(false)
                            } else {
                                None
                            }
                        }
                    }
                },
            };
            match verdict {
                Some(false) => return Some(false),
                Some(true) => {}
                None => all_definite = false,
            }
        }
        if all_definite {
            Some(true)
        } else {
            None
        }
    }

    /// The maintained `lo` bound of `s` (scalar buffers for
    /// skeleton-derived operands, where `lo == hi`).
    fn inc_src_lo<'a>(
        &self,
        rels: &'a IncRels,
        bases: &'a [Relation],
        regs: &'a [Relation],
        s: Src,
    ) -> &'a Relation {
        match s {
            Src::Base(i) => {
                if self.base_fam[i] == 0 {
                    &bases[i]
                } else if self.base_names[i].len() == 2 {
                    &rels.fam_lo[self.base_fam[i].trailing_zeros() as usize]
                } else {
                    &rels.var_lo[i]
                }
            }
            Src::Reg(i) => {
                if self.op_fam[i] == 0 {
                    &regs[i]
                } else {
                    &rels.reg_lo[i]
                }
            }
        }
    }

    /// The maintained `hi` bound of `s`.
    fn inc_src_hi<'a>(
        &self,
        rels: &'a IncRels,
        bases: &'a [Relation],
        regs: &'a [Relation],
        s: Src,
    ) -> &'a Relation {
        match s {
            Src::Base(i) => {
                if self.base_fam[i] == 0 {
                    &bases[i]
                } else if self.base_names[i].len() == 2 {
                    &rels.fam_hi[self.base_fam[i].trailing_zeros() as usize]
                } else {
                    &rels.var_hi[i]
                }
            }
            Src::Reg(i) => {
                if self.op_fam[i] == 0 {
                    &regs[i]
                } else {
                    &rels.reg_hi[i]
                }
            }
        }
    }

    /// The journal tag of the `lo` relation behind overlay source `s`
    /// (what Pearce–Kelly scans the journal for).
    fn src_lo_tag(&self, s: Src) -> u32 {
        match s {
            Src::Base(i) => {
                if self.base_names[i].len() == 2 {
                    inc_tag(KIND_FAM_LO, self.base_fam[i].trailing_zeros() as usize)
                } else {
                    inc_tag(KIND_VAR_LO, i)
                }
            }
            Src::Reg(i) => inc_tag(KIND_REG_LO, i),
        }
    }

    /// Recomputes one row of overlay op `i`'s `[lo, hi]` interval into
    /// `out_lo`/`out_hi`. Every op here is row-local (guaranteed by
    /// `row_local`): the row depends only on the same row of the
    /// operands, with `Diff` swapping bounds on its antitone side.
    #[allow(clippy::too_many_arguments)]
    fn inc_op_row(
        &self,
        rels: &IncRels,
        bases: &[Relation],
        regs: &[Relation],
        reads: &EventSet,
        writes: &EventSet,
        i: usize,
        row: usize,
        words: usize,
        out_lo: &mut Vec<u64>,
        out_hi: &mut Vec<u64>,
    ) {
        out_lo.clear();
        out_lo.resize(words, 0);
        out_hi.clear();
        out_hi.resize(words, 0);
        let or_row = |s: Src, out_lo: &mut Vec<u64>, out_hi: &mut Vec<u64>| {
            let lo = self.inc_src_lo(rels, bases, regs, s);
            let hi = self.inc_src_hi(rels, bases, regs, s);
            for (o, &w) in out_lo.iter_mut().zip(lo.row(row)) {
                *o |= w;
            }
            for (o, &w) in out_hi.iter_mut().zip(hi.row(row)) {
                *o |= w;
            }
        };
        match self.ops[i] {
            Op::Union(a, b) => {
                or_row(a, out_lo, out_hi);
                or_row(b, out_lo, out_hi);
            }
            Op::UnionN { start, len } => {
                for &s in &self.operands[start as usize..(start + len) as usize] {
                    or_row(s, out_lo, out_hi);
                }
            }
            Op::Inter(a, b) => {
                let (al, ah) = (
                    self.inc_src_lo(rels, bases, regs, a).row(row),
                    self.inc_src_hi(rels, bases, regs, a).row(row),
                );
                let (bl, bh) = (
                    self.inc_src_lo(rels, bases, regs, b).row(row),
                    self.inc_src_hi(rels, bases, regs, b).row(row),
                );
                for w in 0..words {
                    out_lo[w] = al[w] & bl[w];
                    out_hi[w] = ah[w] & bh[w];
                }
            }
            Op::Diff(a, b) => {
                let (al, ah) = (
                    self.inc_src_lo(rels, bases, regs, a).row(row),
                    self.inc_src_hi(rels, bases, regs, a).row(row),
                );
                let (bl, bh) = (
                    self.inc_src_lo(rels, bases, regs, b).row(row),
                    self.inc_src_hi(rels, bases, regs, b).row(row),
                );
                for w in 0..words {
                    out_lo[w] = al[w] & !bh[w];
                    out_hi[w] = ah[w] & !bl[w];
                }
            }
            Op::Opt(a) => {
                or_row(a, out_lo, out_hi);
                let bit = 1u64 << (row % 64);
                out_lo[row / 64] |= bit;
                out_hi[row / 64] |= bit;
            }
            Op::Restrict(a, dom, rng) => {
                let dom = match dom {
                    Sort::Reads => reads,
                    Sort::Writes => writes,
                };
                let rng = match rng {
                    Sort::Reads => reads,
                    Sort::Writes => writes,
                };
                if dom.contains(row) {
                    let (al, ah) = (
                        self.inc_src_lo(rels, bases, regs, a).row(row),
                        self.inc_src_hi(rels, bases, regs, a).row(row),
                    );
                    for w in 0..words {
                        out_lo[w] = al[w] & rng.word(w);
                        out_hi[w] = ah[w] & rng.word(w);
                    }
                }
            }
            Op::Zero | Op::Seq(..) | Op::Inverse(_) | Op::Plus(_) | Op::Star(_) => {
                unreachable!("incremental plans maintain row-local overlay ops only")
            }
        }
    }

    /// Single-word-universe (`n <= 64`) batch variant of
    /// [`Plan::inc_op_row`]: operand bounds resolve once per op instead
    /// of once per row, each dirty row is one `u64`, and changed words
    /// are journaled in place with no row buffers. With `skip_hi` (the
    /// final fully-definite level of a full-depth sync) only `lo` is
    /// maintained, and `Diff`'s antitone side reads the operand's `lo`
    /// — equal to its true upper bound once every axis is committed.
    #[allow(clippy::too_many_arguments)]
    fn inc_op_rows_1(
        &self,
        rels: &IncRels,
        bases: &[Relation],
        regs: &[Relation],
        reads: &EventSet,
        writes: &EventSet,
        i: usize,
        rows: &[u32],
        journal: &mut EdgeJournal,
        lo: &mut Relation,
        hi: &mut Relation,
        skip_hi: bool,
    ) {
        debug_assert!(rows.len() <= 64);
        let (tlo, thi) = (inc_tag(KIND_REG_LO, i), inc_tag(KIND_REG_HI, i));
        let mut acc_lo = [0u64; 64];
        let mut acc_hi = [0u64; 64];
        match self.ops[i] {
            Op::Union(..) | Op::UnionN { .. } | Op::Opt(_) => {
                let mut each = |s: Src| {
                    let sl = self.inc_src_lo(rels, bases, regs, s);
                    for (k, &row) in rows.iter().enumerate() {
                        acc_lo[k] |= sl.word_at(row as usize);
                    }
                    if !skip_hi {
                        let sh = self.inc_src_hi(rels, bases, regs, s);
                        for (k, &row) in rows.iter().enumerate() {
                            acc_hi[k] |= sh.word_at(row as usize);
                        }
                    }
                };
                match self.ops[i] {
                    Op::Union(a, b) => {
                        each(a);
                        each(b);
                    }
                    Op::UnionN { start, len } => {
                        for &s in &self.operands[start as usize..(start + len) as usize] {
                            each(s);
                        }
                    }
                    Op::Opt(a) => {
                        each(a);
                        for (k, &row) in rows.iter().enumerate() {
                            let bit = 1u64 << row;
                            acc_lo[k] |= bit;
                            acc_hi[k] |= bit;
                        }
                    }
                    _ => unreachable!(),
                }
            }
            Op::Inter(a, b) => {
                let al = self.inc_src_lo(rels, bases, regs, a);
                let bl = self.inc_src_lo(rels, bases, regs, b);
                for (k, &row) in rows.iter().enumerate() {
                    acc_lo[k] = al.word_at(row as usize) & bl.word_at(row as usize);
                }
                if !skip_hi {
                    let ah = self.inc_src_hi(rels, bases, regs, a);
                    let bh = self.inc_src_hi(rels, bases, regs, b);
                    for (k, &row) in rows.iter().enumerate() {
                        acc_hi[k] = ah.word_at(row as usize) & bh.word_at(row as usize);
                    }
                }
            }
            Op::Diff(a, b) => {
                let al = self.inc_src_lo(rels, bases, regs, a);
                let banti = if skip_hi {
                    self.inc_src_lo(rels, bases, regs, b)
                } else {
                    self.inc_src_hi(rels, bases, regs, b)
                };
                for (k, &row) in rows.iter().enumerate() {
                    acc_lo[k] = al.word_at(row as usize) & !banti.word_at(row as usize);
                }
                if !skip_hi {
                    let ah = self.inc_src_hi(rels, bases, regs, a);
                    let bl = self.inc_src_lo(rels, bases, regs, b);
                    for (k, &row) in rows.iter().enumerate() {
                        acc_hi[k] = ah.word_at(row as usize) & !bl.word_at(row as usize);
                    }
                }
            }
            Op::Restrict(a, dom, rng) => {
                let dom = match dom {
                    Sort::Reads => reads,
                    Sort::Writes => writes,
                };
                let rng = match rng {
                    Sort::Reads => reads,
                    Sort::Writes => writes,
                };
                let rw = rng.word(0);
                let al = self.inc_src_lo(rels, bases, regs, a);
                let ah = self.inc_src_hi(rels, bases, regs, a);
                for (k, &row) in rows.iter().enumerate() {
                    if dom.contains(row as usize) {
                        acc_lo[k] = al.word_at(row as usize) & rw;
                        if !skip_hi {
                            acc_hi[k] = ah.word_at(row as usize) & rw;
                        }
                    }
                }
            }
            Op::Zero | Op::Seq(..) | Op::Inverse(_) | Op::Plus(_) | Op::Star(_) => {
                unreachable!("incremental plans maintain row-local overlay ops only")
            }
        }
        for (k, &row) in rows.iter().enumerate() {
            store_word(journal, lo, tlo, row, acc_lo[k]);
        }
        if !skip_hi {
            for (k, &row) in rows.iter().enumerate() {
                store_word(journal, hi, thi, row, acc_hi[k]);
            }
        }
    }

    /// `true` when `s` depends on the rf/co overlay (and therefore
    /// varies across a batch's lanes).
    fn src_is_overlay(&self, s: Src) -> bool {
        match s {
            Src::Base(i) => self.base_overlay[i],
            Src::Reg(i) => self.op_overlay[i],
        }
    }

    /// Bit-plane variant of [`Plan::ensure_base`]: overlay bases copy
    /// (or derive) their lane planes from the batch, skeleton-derived
    /// ones are evaluated scalar once per skeleton and broadcast into
    /// all lanes (the broadcast itself is also reused across batches of
    /// one skeleton).
    fn ensure_lane_base(
        &self,
        ctx: &mut EvalContext,
        slot: usize,
        batch: &OverlayBatch,
        view: &ExecutionView<'_>,
    ) -> Result<(), CatError> {
        let required = if self.base_overlay[slot] {
            ctx.epoch
        } else {
            ctx.skel_epoch
        };
        if ctx.lane_base_epoch[slot] >= required {
            return Ok(());
        }
        let name = self.base_names[slot].as_str();
        let mut dst = mem::take(&mut ctx.lane_bases[slot]);
        if self.base_overlay[slot] {
            match name {
                "rf" => dst.copy_from(batch.rf_planes()),
                "co" => dst.copy_from(batch.co_planes()),
                "fr" => dst.copy_from(batch.fr_planes()),
                "rfe" | "rfi" | "coe" | "coi" | "fre" | "fri" => {
                    let planes = match &name[..2] {
                        "rf" => batch.rf_planes(),
                        "co" => batch.co_planes(),
                        _ => batch.fr_planes(),
                    };
                    let other = if name.ends_with('e') {
                        view.ext()
                    } else {
                        view.int()
                    };
                    dst.inter_rel_from(planes, other);
                }
                _ => unreachable!("overlay bases are rf/co/fr and their variants"),
            }
        } else {
            self.ensure_base(ctx, slot, &EnvSource::View(view))?;
            dst.broadcast_from(&ctx.bases[slot]);
        }
        ctx.lane_bases[slot] = dst;
        ctx.lane_base_epoch[slot] = ctx.epoch;
        Ok(())
    }

    /// Makes operand `s` available as bit-planes: overlay registers must
    /// already have been run through [`Plan::run_op_batch`] (deps are
    /// topologically ordered); skeleton-derived registers are broadcast
    /// from their (already computed) scalar value on first lane use.
    fn ensure_lane_operand(
        &self,
        ctx: &mut EvalContext,
        s: Src,
        batch: &OverlayBatch,
        view: &ExecutionView<'_>,
    ) -> Result<(), CatError> {
        match s {
            Src::Base(slot) => self.ensure_lane_base(ctx, slot, batch, view),
            Src::Reg(r) => {
                if self.op_overlay[r] {
                    debug_assert!(ctx.lane_reg_epoch[r] >= ctx.epoch, "deps run in topo order");
                } else if ctx.lane_reg_epoch[r] < ctx.skel_epoch {
                    self.run_op(ctx, r, &EnvSource::View(view))?;
                    let mut dst = mem::take(&mut ctx.lane_regs[r]);
                    dst.broadcast_from(&ctx.regs[r]);
                    ctx.lane_regs[r] = dst;
                    ctx.lane_reg_epoch[r] = ctx.epoch;
                }
                Ok(())
            }
        }
    }

    /// Bit-plane variant of [`Plan::run_op`], for overlay-dependent
    /// instructions only: computes register `i` in every lane at once.
    /// Skeleton-derived instructions keep their scalar evaluation (one
    /// run per skeleton serves all lanes of all batches).
    fn run_op_batch(
        &self,
        ctx: &mut EvalContext,
        i: usize,
        batch: &OverlayBatch,
        view: &ExecutionView<'_>,
    ) -> Result<(), CatError> {
        debug_assert!(self.op_overlay[i], "scalar ops run through run_op");
        if ctx.lane_reg_epoch[i] >= ctx.epoch {
            return Ok(());
        }
        let op = self.ops[i];
        let mut src_err = Ok(());
        op.for_each_src(&self.operands, |s| {
            if src_err.is_ok() {
                src_err = self.ensure_lane_operand(ctx, s, batch, view);
            }
        });
        src_err?;
        let mut dst = mem::take(&mut ctx.lane_regs[i]);
        match op {
            Op::Zero => dst.reset(ctx.n),
            Op::Union(a, b) => dst.union_from(ctx.lane_src(a), ctx.lane_src(b)),
            Op::UnionN { start, len } => {
                let operands = &self.operands[start as usize..(start + len) as usize];
                dst.copy_from(ctx.lane_src(operands[0]));
                for &s in &operands[1..] {
                    dst.or_in_place(ctx.lane_src(s));
                }
            }
            Op::Inter(a, b) => dst.inter_from(ctx.lane_src(a), ctx.lane_src(b)),
            Op::Diff(a, b) => dst.diff_from(ctx.lane_src(a), ctx.lane_src(b)),
            Op::Seq(a, b) => dst.seq_from(ctx.lane_src(a), ctx.lane_src(b)),
            Op::Inverse(a) => dst.inverse_from(ctx.lane_src(a)),
            Op::Opt(a) => dst.opt_from(ctx.lane_src(a)),
            Op::Plus(a) => {
                let mut scratch = mem::take(&mut ctx.lane_scratch);
                dst.plus_from(ctx.lane_src(a), &mut scratch);
                ctx.lane_scratch = scratch;
            }
            Op::Star(a) => {
                let mut scratch = mem::take(&mut ctx.lane_scratch);
                dst.star_from(ctx.lane_src(a), &mut scratch);
                ctx.lane_scratch = scratch;
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
                dst.restrict_from(ctx.lane_src(a), dom, rng);
            }
        }
        ctx.lane_regs[i] = dst;
        ctx.lane_reg_epoch[i] = ctx.epoch;
        Ok(())
    }

    /// Per-lane check verdict: bit `i` set iff lane `i` passes `check`.
    /// Bits of dead lanes are garbage (broadcasts fill all 64 lanes);
    /// the caller masks with the live mask.
    fn check_passes_batch(&self, ctx: &mut EvalContext, ci: usize, live: u64) -> u64 {
        let check = &self.checks[ci];
        match check.kind {
            CheckKind::Empty => !ctx.lane_src(check.src).nonempty_lanes(),
            CheckKind::Irreflexive => !ctx.lane_src(check.src).reflexive_lanes(),
            CheckKind::Acyclic => {
                let mut active = mem::take(&mut ctx.lane_active);
                // When the walk's path state already maintains a
                // topological order for this check at this skeleton,
                // seed the per-lane elimination sweep with it — the
                // fixpoint converges in one pass on the (common) lanes
                // whose extra edges respect the maintained order. The
                // fixpoint itself is order-independent, so the verdict
                // is identical either way.
                let seeded = ctx.inc.plan_id == self.id
                    && ctx.inc.skel_id == ctx.skel_id
                    && ci < ctx.inc.checks.len()
                    && ctx.inc.checks[ci].order.len() == ctx.n;
                let cyclic = if seeded {
                    let lanes = ctx.lane_src(check.src);
                    let order = &ctx.inc.checks[ci].order;
                    lanes.cyclic_lanes_seeded(live, &mut active, order)
                } else {
                    ctx.lane_src(check.src).cyclic_lanes(live, &mut active)
                };
                ctx.lane_active = active;
                !cyclic
            }
        }
    }

    /// Prologue of the batch entry point, mirroring [`Plan::begin_view`]:
    /// full invalidation on a new plan or skeleton, epoch-only bump on a
    /// new batch of the same skeleton (batches and overlays share one
    /// stamp space, so the generations never collide).
    fn begin_batch(&self, ctx: &mut EvalContext, view: &ExecutionView<'_>, batch: &OverlayBatch) {
        if ctx.plan_id != self.id || ctx.skel_id != view.skeleton_id() {
            ctx.begin(self, view.len());
            ctx.plan_id = self.id;
            ctx.skel_id = view.skeleton_id();
            ctx.reads.copy_from(view.read_set());
            ctx.writes.copy_from(view.write_set());
        } else if ctx.batch_gen != batch.gen() {
            ctx.epoch += 1;
        }
        ctx.batch_gen = batch.gen();
        ctx.overlay_gen = 0;
        ctx.size_lanes(self);
    }

    /// Judges up to 64 sibling candidates in one pass: bit `i` of the
    /// returned mask is set iff lane `i` of `batch` passes every check.
    ///
    /// Skeleton-derived registers are evaluated scalar (once per
    /// skeleton, exactly as on the view path) and broadcast into lanes
    /// only where an overlay-dependent instruction consumes them;
    /// checks that do not depend on the overlay at all are judged
    /// scalar, one verdict covering every lane. Overlay-dependent
    /// registers are computed as bit-planes, one word op covering all
    /// 64 lanes. The check schedule is the plan's static cheapest-first
    /// order (the adaptive rotation of the scalar path buys nothing
    /// when one evaluation already covers the whole sibling set), and
    /// evaluation stops as soon as every live lane has failed some
    /// check.
    ///
    /// `view` must borrow the same skeleton the batch was
    /// [`begun`](OverlayBatch::begin) on; its overlay contents are only
    /// read by skeleton-derived queries, so any lane's (or a stale)
    /// overlay is fine.
    ///
    /// # Errors
    ///
    /// See [`Plan::allows_exec`].
    pub fn allows_batch(
        &self,
        ctx: &mut EvalContext,
        view: &ExecutionView<'_>,
        batch: &OverlayBatch,
    ) -> Result<LaneMask, CatError> {
        self.begin_batch(ctx, view, batch);
        let live = batch.live_mask().bits();
        let mut allowed = live;
        let env = EnvSource::View(view);
        for &ci in &self.fast_order {
            let check = &self.checks[ci];
            if !self.src_is_overlay(check.src) {
                // A communication-independent check: one scalar verdict
                // covers every lane of every batch of this skeleton.
                for &op in &check.deps {
                    self.run_op(ctx, op, &env)?;
                }
                self.ensure_src(ctx, check.src, &env)?;
                if !self.check_passes(ctx, check) {
                    return Ok(LaneMask::EMPTY);
                }
                continue;
            }
            for &op in &check.deps {
                if self.op_overlay[op] {
                    self.run_op_batch(ctx, op, batch, view)?;
                } else {
                    self.run_op(ctx, op, &env)?;
                }
            }
            self.ensure_lane_operand(ctx, check.src, batch, view)?;
            allowed &= self.check_passes_batch(ctx, ci, live);
            if allowed == 0 {
                return Ok(LaneMask::EMPTY);
            }
        }
        Ok(LaneMask::from_bits(allowed))
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

    /// [`Plan::allows_exec`] over a name-keyed environment — the same
    /// inputs [`CatProgram::check`] takes, for differential testing. The
    /// universe is taken from the environment's first relation.
    ///
    /// # Errors
    ///
    /// See [`Plan::allows_exec`].
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

    /// [`Plan::check_exec`] over a name-keyed environment.
    ///
    /// # Errors
    ///
    /// See [`Plan::check_exec`].
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

/// Fills `dst` with the base relation `name` of `exec`; returns `false`
/// for names [`Execution::base_relations`] does not define.
fn fill_base_from_exec(
    exec: &Execution,
    name: &str,
    dst: &mut Relation,
    ctx: &mut EvalContext,
) -> bool {
    match name {
        "po" => exec.fill_po(dst),
        "po-loc" => exec.fill_po_loc(dst),
        "addr" => dst.copy_from(&exec.addr),
        "data" => dst.copy_from(&exec.data),
        "ctrl" => dst.copy_from(&exec.ctrl),
        "rmw" => dst.copy_from(&exec.rmw),
        "rf" => exec.fill_rf_rel(dst),
        "co" => exec.fill_co_rel(dst),
        "fr" => exec.fill_fr(dst),
        "ext" => exec.fill_ext(dst),
        "int" => exec.fill_int(dst),
        "loc" => exec.fill_same_loc(dst),
        "id" => {
            dst.reset(exec.len());
            dst.add_identity();
        }
        "membar.cta" => exec.fill_fence_rel(FenceScope::Cta, dst),
        "membar.gl" => exec.fill_fence_rel(FenceScope::Gl, dst),
        "membar.sys" => exec.fill_fence_rel(FenceScope::Sys, dst),
        "cta" => exec.fill_scope_cta(dst),
        "gl" | "sys" => {
            dst.reset(exec.len());
            dst.fill_full();
        }
        "rfe" | "rfi" | "coe" | "coi" | "fre" | "fri" => {
            match &name[..2] {
                "rf" => exec.fill_rf_rel(&mut ctx.scratch_a),
                "co" => exec.fill_co_rel(&mut ctx.scratch_a),
                _ => exec.fill_fr(&mut ctx.scratch_a),
            }
            if name.ends_with('e') {
                exec.fill_ext(&mut ctx.scratch_b);
            } else {
                exec.fill_int(&mut ctx.scratch_b);
            }
            dst.inter_from(&ctx.scratch_a, &ctx.scratch_b);
        }
        _ => return false,
    }
    true
}

/// Fills `dst` with the base relation `name` of a skeleton/overlay
/// `view`; returns `false` for names the execution layer does not
/// define. Skeleton-derived relations are copied from the (already
/// built) skeleton; only rf/co-derived ones compute anything.
fn fill_base_from_view(
    view: &ExecutionView<'_>,
    name: &str,
    dst: &mut Relation,
    ctx: &mut EvalContext,
) -> bool {
    match name {
        "po" => dst.copy_from(view.po()),
        "po-loc" => dst.copy_from(view.po_loc()),
        "addr" => dst.copy_from(view.addr()),
        "data" => dst.copy_from(view.data()),
        "ctrl" => dst.copy_from(view.ctrl()),
        "rmw" => dst.copy_from(view.rmw()),
        "rf" => view.fill_rf_rel(dst),
        "co" => view.fill_co_rel(dst),
        "fr" => view.fill_fr(dst),
        "ext" => dst.copy_from(view.ext()),
        "int" => dst.copy_from(view.int()),
        "loc" => dst.copy_from(view.same_loc()),
        "id" => {
            dst.reset(view.len());
            dst.add_identity();
        }
        "membar.cta" => dst.copy_from(view.fence(FenceScope::Cta)),
        "membar.gl" => dst.copy_from(view.fence(FenceScope::Gl)),
        "membar.sys" => dst.copy_from(view.fence(FenceScope::Sys)),
        "cta" => dst.copy_from(view.scope_cta()),
        "gl" | "sys" => {
            dst.reset(view.len());
            dst.fill_full();
        }
        "rfe" | "rfi" | "coe" | "coi" | "fre" | "fri" => {
            match &name[..2] {
                "rf" => view.fill_rf_rel(&mut ctx.scratch_a),
                "co" => view.fill_co_rel(&mut ctx.scratch_a),
                _ => view.fill_fr(&mut ctx.scratch_a),
            }
            let other = if name.ends_with('e') {
                view.ext()
            } else {
                view.int()
            };
            dst.inter_from(&ctx.scratch_a, other);
        }
        _ => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate_executions, EnumConfig};
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
    fn exec_eval_matches_env_eval_on_candidates() {
        // The execution fast path must agree with evaluating the same
        // program over `base_relations()` through the interpreter.
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
        for cand in enumerate_executions(&test, &EnumConfig::default()).unwrap() {
            let exec = &cand.execution;
            let interp = prog
                .check(&exec.base_relations(), &exec.read_set(), &exec.write_set())
                .unwrap();
            assert_eq!(plan.check_exec(&mut ctx, exec).unwrap(), interp);
            assert_eq!(
                plan.allows_exec(&mut ctx, exec).unwrap(),
                interp.iter().all(|c| c.passed)
            );
        }
    }

    #[test]
    fn context_survives_plan_and_universe_changes() {
        let (base, reads, writes) = env3();
        let p1 = plan_of("acyclic po as c");
        let p2 = plan_of("let com = rf | co | fr\nacyclic (po | com) as sc");
        let mut ctx = EvalContext::new();
        let test = corpus::mp(ThreadScope::InterCta, None);
        let cands = enumerate_executions(&test, &EnumConfig::default()).unwrap();
        for _ in 0..2 {
            // Alternate between a 3-event map environment and a larger
            // execution, and between two different plans, through one
            // context: epoch bumps must prevent any stale-buffer reuse.
            assert!(p1.allows_in_env(&mut ctx, &base, &reads, &writes).unwrap());
            let _ = p2.allows_exec(&mut ctx, &cands[0].execution).unwrap();
            let _ = p1.allows_exec(&mut ctx, &cands[0].execution).unwrap();
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
