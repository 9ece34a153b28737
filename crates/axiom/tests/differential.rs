//! Differential tests: the compiled evaluation plan ([`Plan`]) against
//! the legacy tree-walking interpreter ([`CatProgram::check`]), which is
//! retained exactly as the oracle for this suite.
//!
//! Random `.cat` programs (operators, filters, `let` bindings, function
//! definitions and applications) are evaluated over random relation
//! environments, and shipped-style programs over the streamed candidates
//! of corpus tests (the interpreter judging each one's materialised
//! execution), asserting the two evaluators return identical check
//! outcomes.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use weakgpu_axiom::cat::{CatProgram, Expr};
use weakgpu_axiom::enumerate::{for_each_execution, EnumConfig};
use weakgpu_axiom::plan::{EvalContext, Plan};
use weakgpu_axiom::relation::{EventSet, Relation};
use weakgpu_litmus::{corpus, FenceScope, ThreadScope};

const N: usize = 6;

/// Identifiers guaranteed bound: either in the random environment (env
/// strategy below) or by `Execution::base_relations`.
const BASE_IDS: [&str; 10] = [
    "po",
    "po-loc",
    "rf",
    "co",
    "fr",
    "rfe",
    "ext",
    "int",
    "membar.gl",
    "id",
];

fn arb_ident() -> impl Strategy<Value = String> {
    (0..BASE_IDS.len()).prop_map(|i| BASE_IDS[i].to_owned())
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        4 => arb_ident().prop_map(Expr::Id),
        1 => Just(Expr::Zero),
        // References to let-bound relations and functions that the
        // program strategy below defines up front.
        2 => Just(Expr::Id("d0".to_owned())),
        2 => (Just("f0".to_owned()), arb_ident().prop_map(Expr::Id))
            .prop_map(|(n, a)| Expr::App(n, Box::new(a))),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Union(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Inter(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Diff(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Seq(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Expr::Inverse(Box::new(a))),
            inner.clone().prop_map(|a| Expr::Plus(Box::new(a))),
            inner.clone().prop_map(|a| Expr::Star(Box::new(a))),
            inner.clone().prop_map(|a| Expr::Opt(Box::new(a))),
            (Just("WW".to_owned()), inner.clone()).prop_map(|(n, a)| Expr::App(n, Box::new(a))),
            (Just("RR".to_owned()), inner.clone()).prop_map(|(n, a)| Expr::App(n, Box::new(a))),
            (Just("WR".to_owned()), inner.clone()).prop_map(|(n, a)| Expr::App(n, Box::new(a))),
            (Just("f0".to_owned()), inner).prop_map(|(n, a)| Expr::App(n, Box::new(a))),
        ]
    })
}

/// Expressions for the body of the `f0` function definition: never apply
/// `f0` itself, so inlining (and the interpreter's substitution)
/// terminates.
fn arb_fun_body() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![arb_ident().prop_map(Expr::Id), Just(Expr::Zero)];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Union(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Seq(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Expr::Plus(Box::new(a))),
        ]
    })
}

/// A random program: a relation binding `d0`, a function binding `f0`,
/// then a mix of further bindings and checks over them.
fn arb_program() -> impl Strategy<Value = CatProgram> {
    (
        arb_fun_body(),
        prop::collection::vec((arb_expr(), 0..4usize), 1..5),
    )
        .prop_map(|(fun_body_seed, items)| {
            let mut src = String::new();
            src.push_str("let d0 = po | rfe\n");
            // The function body mixes its parameter into a random
            // expression so application sites genuinely substitute.
            src.push_str(&format!("let f0(x) = (x ; {fun_body_seed}) | RW(x)\n"));
            for (i, (expr, kind)) in items.iter().enumerate() {
                let stmt = match kind {
                    0 => format!("let e{i} = {expr}"),
                    1 => format!("acyclic {expr} as c{i}"),
                    2 => format!("irreflexive {expr} as c{i}"),
                    _ => format!("empty {expr} as c{i}"),
                };
                src.push_str(&stmt);
                src.push('\n');
            }
            CatProgram::parse(&src).expect("generated statements parse")
        })
}

/// A random environment binding every identifier in [`BASE_IDS`].
fn arb_env() -> impl Strategy<Value = (BTreeMap<String, Relation>, EventSet, EventSet)> {
    let arb_rel =
        prop::collection::vec((0..N, 0..N), 0..8).prop_map(|pairs| Relation::from_pairs(N, pairs));
    (
        prop::collection::vec(arb_rel, BASE_IDS.len()),
        prop::collection::vec(prop::bool::ANY, N),
    )
        .prop_map(|(rels, read_mask)| {
            let base: BTreeMap<String, Relation> =
                BASE_IDS.iter().map(|n| n.to_string()).zip(rels).collect();
            let reads = EventSet::from_iter_n(N, (0..N).filter(|&i| read_mask[i]));
            let writes = EventSet::from_iter_n(N, (0..N).filter(|&i| !read_mask[i]));
            (base, reads, writes)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The headline differential property: over random programs and
    /// random environments, the compiled plan and the tree-walk
    /// interpreter produce identical named check outcomes, and the
    /// short-circuiting fast path agrees with their conjunction.
    #[test]
    fn plan_matches_tree_walk_on_random_programs(
        prog in arb_program(),
        (base, reads, writes) in arb_env(),
    ) {
        let plan = Plan::compile(&prog)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{prog}")))?;
        let mut ctx = EvalContext::new();
        let oracle = prog.check(&base, &reads, &writes).unwrap();
        let ours = plan.check_in_env(&mut ctx, &base, &reads, &writes).unwrap();
        prop_assert_eq!(&ours, &oracle, "program:\n{}", prog);
        let fast = plan.allows_in_env(&mut ctx, &base, &reads, &writes).unwrap();
        prop_assert_eq!(fast, oracle.iter().all(|c| c.passed), "program:\n{}", prog);
    }

    /// One shared context across many programs must never leak state
    /// between evaluations (regression guard for the epoch machinery).
    #[test]
    fn shared_context_is_state_free(
        progs in prop::collection::vec(arb_program(), 2..4),
        (base, reads, writes) in arb_env(),
    ) {
        let mut shared = EvalContext::new();
        for prog in &progs {
            let plan = Plan::compile(prog).unwrap();
            let with_shared = plan.check_in_env(&mut shared, &base, &reads, &writes).unwrap();
            let with_fresh = plan
                .check_in_env(&mut EvalContext::new(), &base, &reads, &writes)
                .unwrap();
            prop_assert_eq!(with_shared, with_fresh);
        }
    }
}

/// Every streamed candidate of the corpus idioms, judged through the
/// plan over its view and through the tree-walk oracle over its
/// materialised execution, must get the same verdict — and the
/// full-outcome mode must match check by check. One context serves
/// every program and test, so plan and skeleton changes are crossed too.
#[test]
fn plan_matches_tree_walk_on_corpus_executions() {
    let programs = [
        "let com = rf | co | fr\nacyclic (po | com) as sc",
        "let com = rf | co | fr\nlet po-loc-llh = WW(po-loc) | WR(po-loc) | RW(po-loc)\n\
         acyclic (po-loc-llh | com) as sc-per-loc-llh\n\
         let dp = addr | data | ctrl\nacyclic (dp | rf) as no-thin-air\n\
         let rmo(fence) = dp | fence | rfe | co | fr\n\
         let cta-fence = membar.cta | membar.gl | membar.sys\n\
         acyclic rmo(cta-fence) & cta as cta-constraint\n\
         acyclic rmo(membar.sys) & sys as sys-constraint",
        // The same shape over the internal/external splits of every
        // overlay-derived relation.
        "let com = rf | co | fr\nlet po-loc-llh = WW(po-loc) | WR(po-loc) | RW(po-loc)\n\
         acyclic (po-loc-llh | com) as sc-per-loc-llh\n\
         let dp = addr | data | ctrl\nacyclic (dp | rf) as no-thin-air\n\
         let rmo(fence) = dp | fence | rfe | coe | fre\n\
         let cta-fence = membar.cta | membar.gl | membar.sys\n\
         acyclic rmo(cta-fence) & cta as cta-constraint\n\
         acyclic rmo(membar.sys) & sys as sys-constraint",
        "irreflexive (fre ; coe ; rfi?) as scratchy\nempty rmw \\ rmw as trivially",
    ];
    let cfg = EnumConfig::default();
    let mut ctx = EvalContext::new();
    let tests = [
        corpus::corr(),
        corpus::mp(ThreadScope::InterCta, None),
        corpus::mp(ThreadScope::InterCta, Some(FenceScope::Cta)),
        corpus::sb(ThreadScope::IntraCta, None),
        corpus::lb(ThreadScope::InterCta, Some(FenceScope::Gl)),
        corpus::cas_sl(false),
    ];
    for src in programs {
        let prog = CatProgram::parse(src).unwrap();
        let plan = Plan::compile(&prog).unwrap();
        for test in &tests {
            let mut i = 0usize;
            for_each_execution(test, &cfg, |view| {
                let exec = view.to_execution();
                let oracle = prog
                    .check(&exec.base_relations(), &exec.read_set(), &exec.write_set())
                    .unwrap();
                assert_eq!(
                    plan.check_view(&mut ctx, view).unwrap(),
                    oracle,
                    "{}: candidate {i} of {src:?}",
                    test.name()
                );
                assert_eq!(
                    plan.allows_view(&mut ctx, view).unwrap(),
                    oracle.iter().all(|c| c.passed),
                    "{}: candidate {i} fast path of {src:?}",
                    test.name()
                );
                i += 1;
                ControlFlow::<()>::Continue(())
            })
            .unwrap();
        }
    }
}
