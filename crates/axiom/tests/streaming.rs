//! Differential tests for the skeleton/overlay streaming enumerator:
//! [`for_each_execution`] must visit exactly the candidate set the
//! materialising wrapper produces (same count, same order, same
//! executions, same outcomes), per-candidate verdicts through the view
//! fast path must agree with judging the materialised
//! [`weakgpu_axiom::Execution`] (for `.cat` models, through the
//! tree-walking interpreter),
//! early exit must stop the stream, and the candidate limit must count
//! visits rather than materialisations.
//!
//! The verdict function ([`model_outcomes_with`]) is checked against the
//! materialise-then-judge oracle for every shipped model (the
//! natively implemented PTX model included) over the hand-written
//! corpus, `corpus_extra` and the whole generated `small` family.

use std::ops::ControlFlow;

use proptest::prelude::*;
use std::collections::BTreeSet;

use weakgpu_axiom::enumerate::{
    enumerate_executions, for_each_execution, model_outcomes, model_outcomes_with, EnumConfig,
    EnumError, ModelOutcomes,
};
use weakgpu_axiom::model::sc_model;
use weakgpu_axiom::plan::EvalContext;
use weakgpu_axiom::{CatModel, Model, RmwAtomicity};
use weakgpu_diy::{generate, GenConfig};
use weakgpu_litmus::{corpus, corpus_extra, FenceScope, LitmusTest, ThreadScope};
use weakgpu_models::{all_models, native::NativePtxModel, ptx_model_without_llh};

/// A PTX-shaped scoped model exercising every overlay-dependent base
/// relation class (rf/co/fr and their internal/external splits).
fn scoped_model() -> CatModel {
    CatModel::new(
        "scoped-test",
        "let com = rf | co | fr\n\
         let po-loc-llh = WW(po-loc) | WR(po-loc) | RW(po-loc)\n\
         acyclic (po-loc-llh | com) as sc-per-loc-llh\n\
         let dp = addr | data | ctrl\n\
         acyclic (dp | rf) as no-thin-air\n\
         let rmo(fence) = dp | fence | rfe | coe | fre\n\
         let cta-fence = membar.cta | membar.gl | membar.sys\n\
         acyclic rmo(cta-fence) & cta as cta-constraint\n\
         acyclic rmo(membar.sys) & sys as sys-constraint",
    )
    .unwrap()
    .with_rmw_atomicity(RmwAtomicity::AmongAtomics)
}

/// The oracle: materialise every candidate as an owned
/// [`weakgpu_axiom::Execution`] and judge it with [`Model::allows`].
fn materialised_outcomes(test: &LitmusTest, model: &dyn Model, cfg: &EnumConfig) -> ModelOutcomes {
    let cands = enumerate_executions(test, cfg).unwrap();
    let mut out = ModelOutcomes {
        all_outcomes: BTreeSet::new(),
        allowed_outcomes: BTreeSet::new(),
        num_candidates: cands.len(),
        num_allowed: 0,
        condition_witnessed: false,
    };
    for c in &cands {
        out.all_outcomes.insert(c.outcome.clone());
        if model.allows(&c.execution) {
            out.num_allowed += 1;
            out.condition_witnessed |= test.cond().witnessed_by(&c.outcome);
            out.allowed_outcomes.insert(c.outcome.clone());
        }
    }
    out
}

fn test_suite() -> Vec<LitmusTest> {
    let mut tests = corpus::all();
    tests.push(corpus::mp(ThreadScope::IntraCta, Some(FenceScope::Cta)));
    tests.push(corpus::lb(ThreadScope::InterCta, Some(FenceScope::Gl)));
    tests
}

#[test]
fn streamed_views_materialise_to_the_candidate_vector() {
    // The visitor's views, converted through `to_execution`/`outcome`,
    // must reproduce `enumerate_executions` element by element — same
    // candidates, same deterministic order.
    let cfg = EnumConfig::default();
    for test in test_suite() {
        let materialised = enumerate_executions(&test, &cfg).unwrap();
        let mut i = 0usize;
        for_each_execution(&test, &cfg, |view| {
            assert!(i < materialised.len(), "{}: extra candidate", test.name());
            assert_eq!(
                view.to_execution(),
                materialised[i].execution,
                "{}: candidate {i} execution",
                test.name()
            );
            assert_eq!(
                view.outcome(),
                materialised[i].outcome,
                "{}: candidate {i} outcome",
                test.name()
            );
            let mut vals = Vec::new();
            view.fill_observed(&mut vals);
            let from_outcome: Vec<i64> = view.outcome().iter().map(|(_, v)| v).collect();
            let mut sorted_vals = vals.clone();
            sorted_vals.sort_unstable();
            let mut sorted_outcome = from_outcome.clone();
            sorted_outcome.sort_unstable();
            assert_eq!(
                sorted_vals,
                sorted_outcome,
                "{}: observed values",
                test.name()
            );
            i += 1;
            ControlFlow::<()>::Continue(())
        })
        .unwrap();
        assert_eq!(i, materialised.len(), "{}: candidate count", test.name());
    }
}

#[test]
fn view_verdicts_match_execution_verdicts_per_candidate() {
    // The view fast path (skeleton-cached bases + overlay refills, one
    // shared context) must give the same verdict as judging the
    // materialised execution, candidate by candidate.
    let cfg = EnumConfig::default();
    for model in [scoped_model(), sc_model()] {
        let mut view_ctx = EvalContext::new();
        for test in test_suite() {
            let mut i = 0usize;
            for_each_execution(&test, &cfg, |view| {
                let via_view = model.allows_view(&mut view_ctx, view);
                let via_exec = model.allows(&view.to_execution());
                assert_eq!(
                    via_view,
                    via_exec,
                    "{} candidate {i} under {}",
                    test.name(),
                    Model::name(&model)
                );
                i += 1;
                ControlFlow::<()>::Continue(())
            })
            .unwrap();
        }
    }
}

#[test]
fn guarded_immediate_stores_do_not_self_justify() {
    // lb+ctrl: each thread stores 1 only if it read 1 — the classic
    // out-of-thin-air shape. The static write-value fast path must NOT
    // add a guarded store's constant to the read domains (the store only
    // executes in traces where its guard fired), or each store would
    // justify the other's guard and a thin-air (r0=1, r1=1) candidate
    // would appear. The iterated fixed point yields exactly one
    // candidate: both reads see 0, nothing is stored.
    use weakgpu_litmus::build::{imm, ld, reg, setp_eq, st};
    use weakgpu_litmus::{FinalExpr, LitmusTest, Predicate};
    let test = LitmusTest::builder("lb+ctrl")
        .global("x", 0)
        .global("y", 0)
        .thread([
            ld("r0", "x"),
            setp_eq("p", reg("r0"), imm(1)),
            st("y", 1).guarded("p", true),
        ])
        .thread([
            ld("r1", "y"),
            setp_eq("q", reg("r1"), imm(1)),
            st("x", 1).guarded("q", true),
        ])
        .exists(Predicate::And(
            Box::new(Predicate::Eq(FinalExpr::reg(0, "r0"), 1)),
            Box::new(Predicate::Eq(FinalExpr::reg(1, "r1"), 1)),
        ))
        .build()
        .unwrap();
    let cands = enumerate_executions(&test, &EnumConfig::default()).unwrap();
    assert_eq!(cands.len(), 1, "only the all-zero candidate is reachable");
    assert!(
        !cands.iter().any(|c| test.cond().witnessed_by(&c.outcome)),
        "no candidate may witness the thin-air outcome"
    );
}

#[test]
fn long_loop_free_threads_are_not_cut_off() {
    // 299 moves and a store: 300 instructions, no backward jump, so the
    // default bound on backward jumps never fails them.
    use weakgpu_litmus::build::{imm, mov, st_reg};
    use weakgpu_litmus::Predicate;
    let mut code = vec![mov("r0", imm(1)); 299];
    code.push(st_reg("x", "r0"));
    let test = LitmusTest::builder("long")
        .global("x", 0)
        .thread(code)
        .exists(Predicate::mem_eq("x", 1))
        .build()
        .unwrap();
    let verdict = model_outcomes(&test, &sc_model(), &EnumConfig::default()).unwrap();
    assert_eq!(verdict.num_candidates, 1);
    assert!(verdict.condition_witnessed);
}

#[test]
fn wide_tests_stream_like_the_materialised_oracle() {
    // More than 64 events (multi-word relations, the DFS acyclicity
    // path) over more than 255 locations (location ids past one byte):
    // thread 0 stores to 260 locations, thread 1 reads the first and the
    // last of them.
    use weakgpu_litmus::build::{ld, st};
    use weakgpu_litmus::{FinalExpr, Predicate};
    const LOCS: usize = 260;
    let name = |i: usize| format!("x{i}");
    let mut builder = LitmusTest::builder("wide");
    for i in 0..LOCS {
        builder = builder.global(name(i).as_str(), 0);
    }
    let test = builder
        .thread((0..LOCS).map(|i| st(name(i).as_str(), 1)))
        .thread([
            ld("r0", name(0).as_str()),
            ld("r1", name(LOCS - 1).as_str()),
        ])
        .exists(
            Predicate::Eq(FinalExpr::reg(1, "r0"), 1)
                .and(Predicate::Eq(FinalExpr::mem(name(LOCS - 1).as_str()), 1)),
        )
        .build()
        .unwrap();
    // Thread 0 runs 260 instructions and no loop: the default bound on
    // backward jumps does not cut it off.
    let cfg = EnumConfig::default();
    let cands = enumerate_executions(&test, &cfg).unwrap();
    // Each read sees the initial state or the one store: 2 × 2.
    assert_eq!(cands.len(), 4);
    for c in &cands {
        assert_eq!(c.execution.len(), LOCS + 2);
        assert_eq!(c.execution.co.len(), LOCS);
    }
    for model in [scoped_model(), sc_model()] {
        let mut ctx = EvalContext::new();
        let streamed = model_outcomes_with(&test, &model, &cfg, &mut ctx).unwrap();
        let oracle = materialised_outcomes(&test, &model, &cfg);
        assert_eq!(streamed, oracle, "{}", Model::name(&model));
        assert_eq!(streamed.num_candidates, 4);
    }
}

#[test]
fn early_exit_stops_the_stream() {
    let test = corpus::corr();
    let cfg = EnumConfig::default();
    let total = enumerate_executions(&test, &cfg).unwrap().len();
    assert!(total > 3);
    for stop_at in [1usize, 2, total] {
        let mut visits = 0usize;
        let out = for_each_execution(&test, &cfg, |_| {
            visits += 1;
            if visits == stop_at {
                ControlFlow::Break(visits)
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap();
        assert_eq!(out, Some(stop_at));
        assert_eq!(visits, stop_at, "the visitor ran past its break");
    }
}

/// Every shipped model, over every shipped hand-written test and the
/// whole `small` family: [`model_outcomes_with`] equals the oracle bit
/// for bit.
/// One context serves every (test, model) pair, interleaving models on
/// each test, so no evaluation state may leak between them.
#[test]
fn stream_verdicts_match_the_materialised_oracle_for_every_model() {
    let cfg = EnumConfig::default();
    let mut models: Vec<Box<dyn Model>> = all_models()
        .into_iter()
        .map(|m| Box::new(m) as Box<dyn Model>)
        .collect();
    models.push(Box::new(ptx_model_without_llh()));
    models.push(Box::new(NativePtxModel::new()));
    let mut tests = corpus::all();
    tests.extend(corpus_extra::all_extra());
    tests.extend(generate(&GenConfig::small()));
    let mut shared = EvalContext::new();
    for test in &tests {
        for model in &models {
            let name = format!("{} under {}", test.name(), model.name());
            let oracle = materialised_outcomes(test, &**model, &cfg);
            let streamed = model_outcomes_with(test, &**model, &cfg, &mut shared)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(streamed, oracle, "{name}");
        }
    }
}

/// A stream that runs past [`EnumConfig::max_executions`] fails with
/// [`EnumError::TooManyExecutions`]: the budget counts every candidate
/// handed to the visitor.
#[test]
fn a_stream_over_budget_is_an_error() {
    let test = corpus_extra::corr_fan(2, 8);
    let budget = EnumConfig {
        max_executions: 10_000,
        ..EnumConfig::default()
    };
    let mut candidates = 0usize;
    for_each_execution(&test, &EnumConfig::default(), |_| {
        candidates += 1;
        ControlFlow::<()>::Continue(())
    })
    .unwrap();
    assert!(candidates > budget.max_executions, "{candidates}");
    let sc = sc_model();
    let mut ctx = EvalContext::new();
    assert_eq!(
        model_outcomes_with(&test, &sc, &budget, &mut ctx).unwrap_err(),
        EnumError::TooManyExecutions
    );
}

/// Random corpus variant: idiom × scope × fence.
fn arb_corpus_test() -> impl Strategy<Value = LitmusTest> {
    let scopes = [ThreadScope::IntraCta, ThreadScope::InterCta];
    let fences = [
        None,
        Some(FenceScope::Cta),
        Some(FenceScope::Gl),
        Some(FenceScope::Sys),
    ];
    (0..6usize, 0..2usize, 0..4usize).prop_map(move |(idiom, s, f)| {
        let (scope, fence) = (scopes[s], fences[f]);
        match idiom {
            0 => corpus::mp(scope, fence),
            1 => corpus::sb(scope, fence),
            2 => corpus::lb(scope, fence),
            3 => match fence {
                Some(fs) => corpus::corr_fenced(fs),
                None => corpus::corr(),
            },
            4 => corpus_extra::corr_fan(2, 3 + f),
            _ => corpus::dlb_mp(f % 2 == 0),
        }
    })
}

/// A random scoped `.cat` model over overlay- and skeleton-derived
/// bases alike, including a difference and sequences and closures over
/// communication relations.
fn arb_model() -> impl Strategy<Value = CatModel> {
    let axioms = [
        "acyclic (po | rf | co | fr) as sc",
        "acyclic (po-loc | rf | co | fr) as coherence",
        "irreflexive (fre ; coe ; rfi?) as obs",
        "acyclic ((addr | data | ctrl) | rfe | membar.gl) & cta as scoped",
        "empty rmw \\ rmw as trivial",
        "irreflexive ((rf | co) \\ po) ; fr as mixed",
        "acyclic (po-loc | fr)+ | rf as closure",
    ];
    prop::collection::vec(0..axioms.len(), 1..3).prop_map(move |picks| {
        let src: Vec<&str> = picks.iter().map(|&i| axioms[i]).collect();
        // Duplicate axiom names are fine for `allows`; rename per line.
        let src = src
            .iter()
            .enumerate()
            .map(|(i, a)| a.replace(" as ", &format!(" as a{i}-")))
            .collect::<Vec<_>>()
            .join("\n");
        CatModel::new("random", &src).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The headline streaming property over random corpus variants and
    /// random models: `model_outcomes` (streamed, view-judged) is
    /// bit-identical to the materialise-then-judge loop.
    #[test]
    fn streaming_model_outcomes_match_materialised(
        test in arb_corpus_test(),
        model in arb_model(),
    ) {
        let cfg = EnumConfig::default();
        let streamed = model_outcomes(&test, &model, &cfg).unwrap();

        let oracle = materialised_outcomes(&test, &model, &cfg);
        prop_assert_eq!(streamed, oracle);
    }

    /// One shared context across interleaved tests must never leak
    /// skeleton-cached state between enumerations (regression guard for
    /// the two-level epoch machinery).
    #[test]
    fn shared_context_across_tests_is_state_free(
        tests in prop::collection::vec(arb_corpus_test(), 2..4),
    ) {
        let model = scoped_model();
        let cfg = EnumConfig::default();
        let mut shared = EvalContext::new();
        for test in &tests {
            let with_shared =
                weakgpu_axiom::model_outcomes_with(test, &model, &cfg, &mut shared).unwrap();
            let with_fresh = model_outcomes(test, &model, &cfg).unwrap();
            prop_assert_eq!(with_shared, with_fresh, "{}", test.name());
        }
    }
}
