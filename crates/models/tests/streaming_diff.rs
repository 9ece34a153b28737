//! Streaming ≡ materialised enumeration across every built-in model.
//!
//! [`model_outcomes`] streams candidates through the skeleton/overlay
//! visitor and judges borrowed views; the oracle below materialises the
//! full `Vec<Candidate>` and judges each owned execution with
//! [`Model::allows`] (for `.cat` models, the tree-walking interpreter).
//! The two must
//! produce bit-identical [`ModelOutcomes`] — outcome sets, counts and
//! witness flag — for PTX, SC, TSO, RMO, the operational baseline, the
//! no-LLH ablation, and the natively-implemented PTX model (which
//! exercises the visitor's materialising fallback path).

use weakgpu_axiom::enumerate::{enumerate_executions, EnumConfig, ModelOutcomes};
use weakgpu_axiom::{model_outcomes, Model};
use weakgpu_litmus::{corpus, FenceScope, LitmusTest, ThreadScope};
use weakgpu_models::{all_models, native::NativePtxModel, ptx_model_without_llh};

/// The pre-streaming judgement loop, kept as the differential oracle.
fn materialised_outcomes(test: &LitmusTest, model: &dyn Model, cfg: &EnumConfig) -> ModelOutcomes {
    let candidates = enumerate_executions(test, cfg).unwrap();
    let mut all = std::collections::BTreeSet::new();
    let mut allowed = std::collections::BTreeSet::new();
    let mut num_allowed = 0;
    let mut witnessed = false;
    for c in &candidates {
        all.insert(c.outcome.clone());
        if model.allows(&c.execution) {
            num_allowed += 1;
            if test.cond().witnessed_by(&c.outcome) {
                witnessed = true;
            }
            allowed.insert(c.outcome.clone());
        }
    }
    ModelOutcomes {
        all_outcomes: all,
        allowed_outcomes: allowed,
        num_candidates: candidates.len(),
        num_allowed,
        condition_witnessed: witnessed,
    }
}

fn test_suite() -> Vec<LitmusTest> {
    let mut tests = corpus::all();
    tests.extend([
        corpus::mp(ThreadScope::IntraCta, Some(FenceScope::Cta)),
        corpus::sb(ThreadScope::IntraCta, None),
        corpus::lb(ThreadScope::InterCta, Some(FenceScope::Cta)),
        corpus::mp_dep(ThreadScope::InterCta, FenceScope::Gl),
    ]);
    tests
}

#[test]
fn streaming_matches_materialised_for_every_builtin_model() {
    let cfg = EnumConfig::default();
    for model in all_models() {
        for test in test_suite() {
            let streamed = model_outcomes(&test, &model, &cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", test.name()));
            let materialised = materialised_outcomes(&test, &model, &cfg);
            assert_eq!(
                streamed,
                materialised,
                "{} under {}",
                test.name(),
                Model::name(&model)
            );
        }
    }
}

#[test]
fn streaming_matches_materialised_for_the_ablation_model() {
    let cfg = EnumConfig::default();
    let model = ptx_model_without_llh();
    for test in test_suite() {
        assert_eq!(
            model_outcomes(&test, &model, &cfg).unwrap(),
            materialised_outcomes(&test, &model, &cfg),
            "{}",
            test.name()
        );
    }
}

#[test]
fn streaming_matches_materialised_for_native_models() {
    // NativePtxModel has no compiled plan, so the streaming path judges
    // it through the default `allows_view` (materialise + `allows`) —
    // the fallback every third-party `Model` impl gets.
    let cfg = EnumConfig::default();
    let model = NativePtxModel::new();
    for test in test_suite() {
        assert_eq!(
            model_outcomes(&test, &model, &cfg).unwrap(),
            materialised_outcomes(&test, &model, &cfg),
            "{}",
            test.name()
        );
    }
}
