//! The verdict walk ≡ the exhaustive oracle, proven differentially.
//!
//! Every production verdict comes from the decision-tree walk behind
//! [`model_outcomes_counted`]: interval cuts, push/pop delta evaluation
//! along the tree path and 64-lane leaf batches, all at once. The oracle
//! [`model_outcomes_exhaustive`] streams every candidate and judges it
//! alone. For every built-in model (PTX, SC, TSO, RMO, the operational
//! baseline, the no-LLH ablation, and the natively implemented PTX
//! model, which exercises the trait's default `partial_verdict` and
//! `allows_batch`), over the hand-written corpus, `corpus_extra` and
//! the whole generated `small` family, both must return the same
//! [`ModelOutcomes`] — outcome sets, candidate/allowed counts and
//! witness flag alike — and the early-exit [`condition_witnessed_with`]
//! must agree with the oracle's witness flag. Proptests extend the
//! battery to random corpus variants × random `.cat` programs, including
//! programs that are not row-local, which must never cut. A gated
//! oversized read fan shows what the walk is for: its candidate space
//! blows the exhaustive stream's budget, yet the walk completes.

use std::ops::ControlFlow;

use proptest::prelude::*;
use weakgpu_axiom::enumerate::{
    condition_witnessed_with, for_each_execution, for_each_execution_pruned,
    model_outcomes_counted, model_outcomes_exhaustive, EnumConfig, EnumError, PruneStats,
};
use weakgpu_axiom::plan::EvalContext;
use weakgpu_axiom::{CatModel, Model};
use weakgpu_diy::{generate, GenConfig};
use weakgpu_litmus::{corpus, corpus_extra, FenceScope, LitmusTest, ThreadScope};
use weakgpu_models::{all_models, native::NativePtxModel, ptx_model_without_llh};

/// Asserts the headline property for one (test, model) pair and returns
/// the walk counters for invariant checks on top.
fn assert_walk_matches_oracle(
    test: &LitmusTest,
    model: &dyn Model,
    cfg: &EnumConfig,
    ctx: &mut EvalContext,
) -> PruneStats {
    let name = format!("{} under {}", test.name(), model.name());
    let oracle =
        model_outcomes_exhaustive(test, model, cfg, ctx).unwrap_or_else(|e| panic!("{name}: {e}"));
    let (walked, stats) =
        model_outcomes_counted(test, model, cfg, ctx).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(walked, oracle, "{name}: walk and oracle diverge");
    assert_eq!(
        stats.classes_visited + stats.candidates_pruned,
        oracle.num_candidates as u64,
        "{name}: classes and cuts must partition the candidate space"
    );
    let witnessed = condition_witnessed_with(test, model, cfg, ctx).unwrap();
    assert_eq!(
        witnessed, oracle.condition_witnessed,
        "{name}: witness query"
    );
    stats
}

fn test_suite() -> Vec<LitmusTest> {
    let mut tests = corpus::all();
    tests.extend(corpus_extra::all_extra());
    tests.extend([
        corpus::mp(ThreadScope::IntraCta, Some(FenceScope::Cta)),
        corpus::sb(ThreadScope::IntraCta, None),
        corpus::lb(ThreadScope::InterCta, Some(FenceScope::Cta)),
        corpus::mp_dep(ThreadScope::InterCta, FenceScope::Gl),
        corpus_extra::corr_fan(2, 5),
    ]);
    tests
}

#[test]
fn walk_matches_oracle_for_every_builtin_model() {
    let cfg = EnumConfig::default();
    let mut ctx = EvalContext::new();
    for model in all_models() {
        for test in test_suite() {
            assert_walk_matches_oracle(&test, &model, &cfg, &mut ctx);
        }
    }
}

#[test]
fn walk_matches_oracle_for_the_ablation_and_native_models() {
    let cfg = EnumConfig::default();
    let mut ctx = EvalContext::new();
    for test in test_suite() {
        assert_walk_matches_oracle(&test, &ptx_model_without_llh(), &cfg, &mut ctx);
        // The native model has no plan: no partial verdicts and no
        // batched evaluator, so the walk judges every leaf alone and
        // must still agree bit for bit, with nothing cut.
        let stats = assert_walk_matches_oracle(&test, &NativePtxModel::new(), &cfg, &mut ctx);
        assert_eq!(stats.candidates_pruned, 0, "{}", test.name());
    }
}

#[test]
fn walk_matches_oracle_over_the_small_family() {
    let family = generate(&GenConfig::small());
    assert!(!family.is_empty());
    let cfg = EnumConfig::default();
    let mut ctx = EvalContext::new();
    for model in all_models() {
        for test in &family {
            assert_walk_matches_oracle(test, &model, &cfg, &mut ctx);
        }
    }
}

/// The capability gate: `corr-fan-2w12r` spans over a million
/// candidates, beyond the budget given here, so the exhaustive stream
/// fails. The walk visits a few tens of thousands of classes and
/// completes under both judges: SC cuts most of the space, and PTX,
/// which allows load-load hazards and so cuts nothing, folds it into
/// uniform 64-lane batches. A smaller sibling that both paths can afford
/// is bit-identical.
#[test]
fn oversized_fan_completes_only_on_the_walk() {
    let test = corpus_extra::corr_fan(2, 12);
    let budget = EnumConfig {
        max_traces_per_thread: 1 << 13,
        max_executions: 100_000,
        ..EnumConfig::default()
    };
    let err = for_each_execution(&test, &budget, |_| ControlFlow::<()>::Continue(()));
    assert_eq!(err.unwrap_err(), EnumError::TooManyExecutions);

    let mut ctx = EvalContext::new();
    for (model, witnessed) in [
        (weakgpu_models::sc_model(), false),
        (weakgpu_models::ptx_model(), true),
    ] {
        let (outcomes, stats) = model_outcomes_counted(&test, &*model, &budget, &mut ctx).unwrap();
        assert_eq!(outcomes.num_candidates, 1_062_882);
        assert_eq!(
            stats.classes_visited + stats.candidates_pruned,
            outcomes.num_candidates as u64
        );
        // SC forbids the long-distance new-then-old coRR pattern; PTX
        // allows it.
        assert_eq!(outcomes.condition_witnessed, witnessed, "{}", model.name());
        let sibling = corpus_extra::corr_fan(2, 7);
        assert_walk_matches_oracle(&sibling, &*model, &EnumConfig::default(), &mut ctx);
    }
}

#[test]
fn early_exit_stops_the_walk() {
    let model = weakgpu_models::sc_model();
    let test = corpus_extra::corr_fan(2, 8);
    let cfg = EnumConfig::default();
    let mut ctx = EvalContext::new();
    let mut stats = PruneStats::default();
    let mut total = 0u64;
    for_each_execution_pruned(&test, &model, &cfg, &mut ctx, &mut stats, |_| {
        total += 1;
        ControlFlow::<()>::Continue(())
    })
    .unwrap();
    assert!(total > 3);
    for stop_at in [1u64, 2, total] {
        let mut stats = PruneStats::default();
        let mut visits = 0u64;
        let out = for_each_execution_pruned(&test, &model, &cfg, &mut ctx, &mut stats, |_| {
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

/// One evaluation context serving interleaved walks over *different*
/// models must never leak state: the maintained path state is keyed on
/// (plan, skeleton, combination) and rebuilds itself on any mismatch.
#[test]
fn shared_context_survives_interleaved_models() {
    let cfg = EnumConfig::default();
    let models = all_models();
    let mut shared = EvalContext::new();
    for test in test_suite() {
        for model in &models {
            let mut fresh = EvalContext::new();
            let want = model_outcomes_counted(&test, model, &cfg, &mut fresh).unwrap();
            let got = model_outcomes_counted(&test, model, &cfg, &mut shared).unwrap();
            assert_eq!(
                got,
                want,
                "{} under {} diverged on a shared context",
                test.name(),
                model.name()
            );
        }
    }
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

/// A random `.cat` model over overlay- and skeleton-derived bases
/// alike: row-local axioms (including a `Diff`, the one non-monotone
/// operator of the interval evaluation, and an `empty` check), mixed
/// with sequencing axioms that make the whole plan non-row-local.
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
        // Duplicate axiom names are fine for `allows`; rename per line.
        let src = picks
            .iter()
            .enumerate()
            .map(|(i, &a)| axioms[a].replace(" as ", &format!(" as a{i}-")))
            .collect::<Vec<_>>()
            .join("\n");
        CatModel::new("random", &src).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The headline property over random corpus variants × random
    /// models: the walk is bit-identical to the oracle, and a plan that
    /// is not row-local never cuts.
    #[test]
    fn walk_matches_oracle_on_random_pairs(
        test in arb_corpus_test(),
        model in arb_model(),
    ) {
        let mut ctx = EvalContext::new();
        let stats = assert_walk_matches_oracle(&test, &model, &EnumConfig::default(), &mut ctx);
        if !model.plan().is_row_local() {
            prop_assert_eq!(stats.candidates_pruned, 0);
        }
    }
}
