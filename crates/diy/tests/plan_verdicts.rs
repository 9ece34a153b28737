//! Corpus-wide differential assertions for the axiomatic engine, over
//! the whole `small` generated family:
//!
//! * **plan over the stream vs interpreter over materialised
//!   candidates** — per-test [`ModelOutcomes`] computed by
//!   [`model_outcomes`] (the skeleton/overlay stream, judged by the
//!   compiled plan) must be bit-identical to judging a fully
//!   materialised `Vec<Candidate>` candidate by candidate with
//!   [`Model::allows`] (the tree-walking interpreter);
//! * **pinned paper verdicts** — every paper-family test's PTX
//!   [`ModelOutcomes`] hashes to a digest recorded before the judge
//!   pass moved to dense ids, so any change to a verdict shows.

use weakgpu_axiom::enumerate::{enumerate_executions, model_outcomes, EnumConfig, ModelOutcomes};
use weakgpu_axiom::plan::EvalContext;
use weakgpu_axiom::Model;
use weakgpu_diy::{generate, GenConfig};
use weakgpu_litmus::LitmusTest;
use weakgpu_models::{ptx_model, sc_model};

/// The materialise-then-judge oracle: materialise every candidate and
/// judge each owned [`weakgpu_axiom::Execution`] with [`Model::allows`].
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

#[test]
fn small_family_verdicts_bit_identical_to_tree_walk() {
    let family = generate(&GenConfig::small());
    assert!(!family.is_empty());
    let cfg = EnumConfig::default();
    for model in [ptx_model(), sc_model()] {
        for test in &family {
            let streamed = model_outcomes(test, &model, &cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", test.name()));
            let materialised = materialised_outcomes(test, &model, &cfg);
            assert_eq!(
                streamed,
                materialised,
                "{} under {}: the plan over the stream and the interpreter over \
                 materialised candidates diverge",
                test.name(),
                Model::name(&model)
            );
        }
    }
}

/// FNV-1a, 64-bit: a fixed, dependency-free hash for the digest below.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The digest of every paper-family test's PTX verdict, in generation
/// order: each rendered outcome of both sets, the candidate and allowed
/// counts and the witness flag. Recorded on the enumerator that built
/// named per-thread traces; a refactor of the judge pass must reproduce
/// it exactly.
const PAPER_FAMILY_VERDICT_DIGEST: u64 = 0xfdbd_1e83_1adf_8d53;

#[test]
fn paper_family_verdicts_match_recorded_digest() {
    let family = generate(&GenConfig::paper());
    assert_eq!(family.len(), 16632);
    let model = ptx_model();
    let cfg = EnumConfig::default();
    let mut ctx = EvalContext::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for test in &family {
        let out = weakgpu_axiom::enumerate::model_outcomes_with(test, &model, &cfg, &mut ctx)
            .unwrap_or_else(|e| panic!("{}: {e}", test.name()));
        let mut rendered = format!(
            "{}|{}|{}|{}|",
            test.name(),
            out.num_candidates,
            out.num_allowed,
            out.condition_witnessed
        );
        for o in &out.all_outcomes {
            rendered.push_str(&format!("{o}|"));
        }
        rendered.push('*');
        for o in &out.allowed_outcomes {
            rendered.push_str(&format!("{o}|"));
        }
        fnv1a(&mut hash, rendered.as_bytes());
    }
    assert_eq!(
        hash, PAPER_FAMILY_VERDICT_DIGEST,
        "paper-family verdict digest changed: {hash:#018x}"
    );
}
