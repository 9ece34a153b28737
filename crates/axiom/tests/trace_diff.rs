//! Differential oracle for trace enumeration: the depth-first walk that
//! fills the enumerator's trace arena, read back as named traces through
//! [`enumerate_thread_traces`], must return exactly what re-running
//! [`run_thread`] from pc 0 on every oracle returns — the same traces
//! in the same (lexicographic oracle) order, or the same first error —
//! on every shipped and generated test, on random programs with guards,
//! RMWs and loops, and on dependency sets wider than one word.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use weakgpu_axiom::symbolic::{
    enumerate_thread_traces, run_thread, SymError, SymResult, ThreadTrace,
};
use weakgpu_diy::{generate, GenConfig};
use weakgpu_litmus::build::*;
use weakgpu_litmus::{
    corpus, corpus_extra, FenceScope, Instr, LitmusTest, Loc, Operand, Reg, Value,
};

type Domains = BTreeMap<Loc, BTreeSet<i64>>;

/// The restart loop: runs the thread from pc 0 under each oracle, and
/// on a pending read pushes one extension per domain value (in reverse,
/// so the smallest runs first).
fn replay(
    tid: usize,
    instrs: &[Instr],
    reg_init: &dyn Fn(&Reg) -> Value,
    domains: &Domains,
    max_jumps: usize,
    max_traces: usize,
) -> Result<Vec<ThreadTrace>, SymError> {
    let mut traces = Vec::new();
    let mut stack: Vec<Vec<i64>> = vec![Vec::new()];
    while let Some(oracle) = stack.pop() {
        match run_thread(tid, instrs, reg_init, &oracle, max_jumps) {
            SymResult::Complete(tr) => {
                traces.push(tr);
                if traces.len() > max_traces {
                    return Err(SymError::TooManyTraces);
                }
            }
            SymResult::NeedValue { loc } => {
                for &v in domains.get(&loc).into_iter().flatten().rev() {
                    let mut ext = oracle.clone();
                    ext.push(v);
                    stack.push(ext);
                }
            }
            SymResult::Error(e) => return Err(e),
        }
    }
    Ok(traces)
}

/// Compares the walk with the replay on one thread; returns how many
/// traces both produced (0 on a shared error).
fn check_thread(
    what: &str,
    tid: usize,
    instrs: &[Instr],
    reg_init: &dyn Fn(&Reg) -> Value,
    domains: &Domains,
    max_jumps: usize,
    max_traces: usize,
) -> usize {
    let walked = enumerate_thread_traces(tid, instrs, reg_init, domains, max_jumps, max_traces);
    let replayed = replay(tid, instrs, reg_init, domains, max_jumps, max_traces);
    assert_eq!(
        walked, replayed,
        "{what}, thread {tid}, max_jumps {max_jumps}, max_traces {max_traces}"
    );
    walked.map_or(0, |t| t.len())
}

/// Read domains for a test: each location's initial value, every
/// immediate it is stored, and one value nothing stores.
fn test_domains(test: &LitmusTest) -> Domains {
    let mut d: Domains = test
        .memory()
        .iter()
        .map(|(l, mi)| (l.clone(), [mi.init, 7].into_iter().collect()))
        .collect();
    for thread in test.threads() {
        for instr in thread {
            if let Instr::St {
                addr: Operand::Sym(l),
                src: Operand::Imm(n),
                ..
            } = instr.unguarded()
            {
                d.entry(l.clone()).or_default().insert(*n);
            }
        }
    }
    d
}

/// Checks every thread of every test under the default caps and under
/// caps tight enough to raise `StepLimit` (on the tests that loop) and
/// `TooManyTraces`.
fn check_tests<'a>(tests: impl IntoIterator<Item = &'a LitmusTest>) -> usize {
    let mut traces = 0;
    for test in tests {
        let domains = test_domains(test);
        for (tid, code) in test.threads().iter().enumerate() {
            let init = |r: &Reg| test.reg_init_value(tid, r);
            for (max_jumps, max_traces) in [(128, 4096), (3, 4096), (128, 2)] {
                traces += check_thread(
                    test.name(),
                    tid,
                    code,
                    &init,
                    &domains,
                    max_jumps,
                    max_traces,
                );
            }
        }
    }
    traces
}

#[test]
fn walk_matches_replay_on_the_corpus() {
    let mut tests = corpus::all();
    tests.extend(corpus_extra::all_extra());
    assert!(check_tests(&tests) > 0);
}

#[test]
fn walk_matches_replay_on_the_small_family() {
    assert!(check_tests(&generate(&GenConfig::small())) > 0);
}

#[test]
fn walk_matches_replay_on_the_paper_family() {
    let family = generate(&GenConfig::paper());
    // Every test in release builds; an even sample under the dev profile.
    let stride = if cfg!(debug_assertions) { 41 } else { 1 };
    assert!(check_tests(family.iter().step_by(stride)) > 0);
}

#[test]
fn walk_matches_replay_on_a_spin_lock() {
    // while (CAS(m, 0, 1) != 0) {} with a guarded critical section: one
    // trace per number of failed attempts until the backward-jump bound runs out.
    let code = vec![
        label("SPIN"),
        cas("r0", "m", 0, 1),
        setp_ne("p0", reg("r0"), imm(0)),
        bra("SPIN").guarded("p0", true),
        ld("r1", "x").guarded("p0", false),
        exch("r2", "m", 0),
    ];
    let domains: Domains = [
        (Loc::new("m"), [0, 1].into_iter().collect()),
        (Loc::new("x"), [0, 1].into_iter().collect()),
    ]
    .into_iter()
    .collect();
    let zero = |_: &Reg| Value::Int(0);
    for max_jumps in [1, 4, 9, 16, 64] {
        for max_traces in [1, 3, 4096] {
            check_thread("spin", 0, &code, &zero, &domains, max_jumps, max_traces);
        }
    }
}

#[test]
fn walk_matches_replay_past_one_word_of_reads() {
    // 70 loads feed one accumulator that is stored and branched on: the
    // store's data and the guarded store's control dependencies span
    // read indices past 63, where the taint spills into extra words and
    // the arena's dependency ranges run longer than a word.
    let mut code = vec![ld("r9", "w")];
    for _ in 0..70 {
        code.push(ld("r0", "x"));
        code.push(add("acc", reg("acc"), reg("r0")));
    }
    code.push(st_reg("y", "acc"));
    code.push(setp_eq("p0", reg("acc"), imm(0)));
    code.push(st("z", 1).guarded("p0", true));
    let domains: Domains = [
        (Loc::new("w"), [0, 1].into_iter().collect()),
        (Loc::new("x"), [0].into_iter().collect()),
    ]
    .into_iter()
    .collect();
    let zero = |_: &Reg| Value::Int(0);
    assert_eq!(
        check_thread("wide", 0, &code, &zero, &domains, 512, 4096),
        2
    );
    let traces = enumerate_thread_traces(0, &code, &zero, &domains, 512, 4096).unwrap();
    let last = traces[0].events.last().unwrap();
    assert_eq!(last.ctrl_deps, (1..=70).collect::<Vec<_>>());
}

/// Registers, locations and labels the random programs draw from. `a0`
/// starts as a pointer to `x`, so loads through it resolve; through any
/// other register they fail with `BadAddress`.
const REGS: [&str; 4] = ["r0", "r1", "p0", "a0"];
const LOCS: [&str; 3] = ["x", "y", "z"];

fn arb_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        3 => (0..REGS.len()).prop_map(|r| reg(REGS[r])),
        3 => (0i64..3).prop_map(imm),
        1 => (0..2usize).prop_map(|l| sym(LOCS[l])),
    ]
}

fn arb_addr() -> impl Strategy<Value = Operand> {
    prop_oneof![
        4 => (0..LOCS.len()).prop_map(|l| sym(LOCS[l])),
        1 => Just(reg("a0")),
        1 => Just(reg("r1")),
    ]
}

fn arb_dst() -> impl Strategy<Value = Reg> {
    (0..3usize).prop_map(|r| Reg::new(REGS[r]))
}

fn arb_plain_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        3 => (arb_dst(), arb_addr()).prop_map(|(dst, addr)| Instr::Ld {
            dst,
            addr,
            cache: Default::default(),
            volatile: false,
        }),
        2 => (arb_addr(), arb_operand()).prop_map(|(addr, src)| Instr::St {
            addr,
            src,
            cache: Default::default(),
            volatile: false,
        }),
        2 => (arb_dst(), arb_addr(), arb_operand(), arb_operand()).prop_map(
            |(dst, addr, expected, desired)| Instr::Cas {
                dst,
                addr,
                expected,
                desired,
            }
        ),
        1 => (arb_dst(), arb_addr(), arb_operand())
            .prop_map(|(dst, addr, src)| Instr::Exch { dst, addr, src }),
        1 => (arb_dst(), arb_addr()).prop_map(|(dst, addr)| Instr::Inc { dst, addr }),
        1 => Just(membar(FenceScope::Gl)),
        1 => (arb_dst(), arb_operand()).prop_map(|(dst, src)| Instr::Mov { dst, src }),
        1 => (arb_dst(), arb_operand(), arb_operand())
            .prop_map(|(dst, a, b)| Instr::Add { dst, a, b }),
        1 => (arb_dst(), arb_operand(), arb_operand())
            .prop_map(|(dst, a, b)| Instr::And { dst, a, b }),
        1 => (arb_dst(), arb_operand(), arb_operand())
            .prop_map(|(dst, a, b)| Instr::Xor { dst, a, b }),
        2 => (arb_dst(), arb_operand(), arb_operand())
            .prop_map(|(dst, a, b)| Instr::SetpEq { dst, a, b }),
        2 => (arb_dst(), arb_operand(), arb_operand())
            .prop_map(|(dst, a, b)| Instr::SetpNe { dst, a, b }),
        2 => (0..2usize).prop_map(|l| bra(["L0", "L1"][l])),
    ]
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        3 => arb_plain_instr(),
        2 => (arb_plain_instr(), 0..3usize, prop::bool::ANY)
            .prop_map(|(i, p, expect)| i.guarded(REGS[p], expect)),
    ]
}

/// A thread body with both labels placed somewhere in it, so branches
/// jump forwards and backwards (loops).
fn arb_program() -> impl Strategy<Value = Vec<Instr>> {
    (
        prop::collection::vec(arb_instr(), 1..9),
        0..9usize,
        0..9usize,
    )
        .prop_map(|(mut code, l0, l1)| {
            code.insert(l0.min(code.len()), label("L0"));
            code.insert(l1.min(code.len()), label("L1"));
            code
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn walk_matches_replay_on_random_programs(
        code in arb_program(),
        max_jumps in 1usize..40,
        max_traces in 1usize..40,
    ) {
        // `z` has no domain: a read of it ends its path without a trace.
        let domains: Domains = [
            (Loc::new("x"), [0, 1, 2].into_iter().collect()),
            (Loc::new("y"), [0, 1].into_iter().collect()),
        ]
        .into_iter()
        .collect();
        let init = |r: &Reg| {
            if r.as_str() == "a0" {
                Value::ptr("x")
            } else {
                Value::Int(0)
            }
        };
        let walked = enumerate_thread_traces(3, &code, &init, &domains, max_jumps, max_traces);
        let replayed = replay(3, &code, &init, &domains, max_jumps, max_traces);
        prop_assert_eq!(walked, replayed);
    }
}
