//! Property-based tests across the whole pipeline.
//!
//! The central property mirrors the paper's validation: for *arbitrary*
//! straight-line litmus programs, every outcome the simulator produces
//! must appear among the axiomatic engine's candidate outcomes and be
//! allowed by the PTX model (simulator ⊆ model).

use proptest::prelude::*;

use weakgpu::axiom::enumerate::{enumerate_executions, model_outcomes, EnumConfig};
use weakgpu::harness::{run_test, CampaignConfig, CellSpec};
use weakgpu::litmus::{build, FinalExpr, Instr, LitmusTest, Predicate, ThreadScope};
use weakgpu::models::ptx_model;
use weakgpu::sim::chip::{Chip, Incantations};

const LOCS: [&str; 2] = ["x", "y"];

/// One random instruction over two locations, writing registers named
/// after `(thread, index)` so they are unique.
fn arb_instr(tid: usize, idx: usize) -> impl Strategy<Value = Instr> {
    let reg = format!("r{tid}_{idx}");
    prop_oneof![
        // ld
        (0..2usize).prop_map({
            let reg = reg.clone();
            move |l| build::ld(&reg, LOCS[l])
        }),
        // st of a small constant
        (0..2usize, 1..3i64).prop_map(|(l, v)| build::st(LOCS[l], v)),
        // membar.gl / membar.cta
        Just(build::membar_gl()),
        Just(build::membar_cta()),
        // cas
        (0..2usize, 0..2i64, 1..3i64).prop_map({
            let reg = reg.clone();
            move |(l, e, d)| build::cas(&reg, LOCS[l], e, d)
        }),
        // exch
        (0..2usize, 1..3i64).prop_map({
            let reg = reg.clone();
            move |(l, v)| build::exch(&reg, LOCS[l], v)
        }),
        // inc
        (0..2usize).prop_map(move |l| build::inc(&reg, LOCS[l])),
    ]
}

fn arb_thread(tid: usize) -> impl Strategy<Value = Vec<Instr>> {
    prop::collection::vec(Just(()), 1..=3).prop_flat_map(move |slots| {
        slots
            .into_iter()
            .enumerate()
            .map(|(i, ())| arb_instr(tid, i))
            .collect::<Vec<_>>()
    })
}

fn arb_test() -> impl Strategy<Value = LitmusTest> {
    (arb_thread(0), arb_thread(1), prop::bool::ANY).prop_map(|(t0, t1, inter)| {
        // Observe every register any instruction writes.
        let mut terms = Vec::new();
        for (tid, thread) in [&t0, &t1].into_iter().enumerate() {
            for instr in thread {
                if let Some(r) = instr.written_reg() {
                    terms.push(Predicate::Eq(FinalExpr::Reg(tid, r.clone()), 0));
                }
            }
        }
        for l in LOCS {
            terms.push(Predicate::mem_eq(l, 0));
        }
        let scope = if inter {
            ThreadScope::InterCta
        } else {
            ThreadScope::IntraCta
        };
        LitmusTest::builder("random")
            .global("x", 0)
            .global("y", 0)
            .thread(t0)
            .thread(t1)
            .scope(scope)
            .exists(Predicate::all(terms))
            .build()
            .expect("random straight-line tests are valid")
    })
}

/// Randomly generated programs can explode combinatorially (several
/// same-location RMWs multiply oracle, rf and co choices); such cases are
/// discarded rather than ground through — the property is about the
/// tractable universe the paper's tests live in.
fn tractable_enum_config() -> EnumConfig {
    EnumConfig {
        max_executions: 60_000,
        max_traces_per_thread: 512,
        ..EnumConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// The flagship property: hardware-simulator outcomes ⊆ model-allowed
    /// outcomes, for arbitrary programs (cf. paper Sec. 5.4).
    #[test]
    fn simulator_is_sound_wrt_ptx_model(test in arb_test(), seed in 0u64..1_000) {
        let verdict = match model_outcomes(&test, &ptx_model(), &tractable_enum_config()) {
            Ok(v) => v,
            Err(_) => return Err(TestCaseError::reject("candidate explosion")),
        };
        let cell = CellSpec::new(test.clone(), Chip::GtxTitan)
            .iterations(120)
            .incantations(Incantations::best_inter_cta())
            .seed(seed);
        let report = run_test(&cell, &CampaignConfig::with_parallelism(1)).unwrap();
        for (outcome, _) in report.histogram.iter() {
            prop_assert!(
                verdict.allowed_outcomes.contains(outcome),
                "simulator produced model-forbidden outcome {outcome} for\n{test}"
            );
        }
    }

    /// Every simulator outcome is a candidate outcome (the enumerator's
    /// universe covers the operational machine), even on a strong chip.
    #[test]
    fn simulator_outcomes_are_candidates(test in arb_test(), seed in 0u64..1_000) {
        let cands = match enumerate_executions(&test, &tractable_enum_config()) {
            Ok(c) => c,
            Err(_) => return Err(TestCaseError::reject("candidate explosion")),
        };
        let all: std::collections::BTreeSet<_> = cands
            .into_iter()
            .map(|c| c.outcome)
            .collect();
        for chip in [Chip::Gtx280, Chip::RadeonHd7970] {
            let cell = CellSpec::new(test.clone(), chip)
                .iterations(60)
                .incantations(Incantations::all_on())
                .seed(seed);
            let report = run_test(&cell, &CampaignConfig::with_parallelism(1)).unwrap();
            for (outcome, _) in report.histogram.iter() {
                prop_assert!(
                    all.contains(outcome),
                    "{chip}: outcome {outcome} not among {} candidates for\n{test}",
                    all.len()
                );
            }
        }
    }

    /// Printing and re-parsing a random test preserves it.
    #[test]
    fn print_parse_roundtrip(test in arb_test()) {
        let text = test.to_string();
        let reparsed = weakgpu::litmus::parser::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
        prop_assert_eq!(test.threads(), reparsed.threads());
        prop_assert_eq!(test.cond(), reparsed.cond());
        prop_assert_eq!(test.scope_tree(), reparsed.scope_tree());
        prop_assert_eq!(test.memory(), reparsed.memory());
    }

    /// Fixed seeds make harness runs reproducible bit-for-bit.
    #[test]
    fn harness_is_deterministic(test in arb_test(), seed in 0u64..1_000) {
        let cell = CellSpec::new(test, Chip::TeslaC2075)
            .iterations(50)
            .incantations(Incantations::best_inter_cta())
            .seed(seed);
        let cfg = CampaignConfig::with_parallelism(2);
        let a = run_test(&cell, &cfg).unwrap();
        let b = run_test(&cell, &cfg).unwrap();
        prop_assert_eq!(a.histogram, b.histogram);
    }
}
