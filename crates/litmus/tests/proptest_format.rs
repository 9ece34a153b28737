//! Property tests for the litmus representation layer: the textual format
//! round-trips, predicates behave like boolean algebra, compiled
//! conditions judge observation vectors as the named conditions judge
//! outcomes, scope trees classify consistently, and outcomes behave as
//! the `BTreeMap` they replace.

use std::collections::BTreeMap;
use std::hash::BuildHasher;

use proptest::prelude::*;
use weakgpu_litmus::{
    build, parser, printer, FinalCond, FinalExpr, Instr, LitmusTest, ObsLayout, Outcome, Predicate,
    Quantifier, ScopeTree, ThreadScope,
};

fn arb_operand_reg() -> impl Strategy<Value = String> {
    (0..6u32).prop_map(|i| format!("r{i}"))
}

fn arb_loc() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("x"), Just("y"), Just("z")]
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (arb_operand_reg(), arb_loc()).prop_map(|(r, l)| build::ld(&r, l)),
        (arb_operand_reg(), arb_loc()).prop_map(|(r, l)| build::ld_ca(&r, l)),
        (arb_operand_reg(), arb_loc()).prop_map(|(r, l)| build::ld_volatile(&r, l)),
        (arb_loc(), -4i64..5).prop_map(|(l, v)| build::st(l, v)),
        (arb_loc(), -4i64..5).prop_map(|(l, v)| build::st_volatile(l, v)),
        Just(build::membar_cta()),
        Just(build::membar_gl()),
        Just(build::membar_sys()),
        (arb_operand_reg(), arb_loc(), 0i64..3, 1i64..4)
            .prop_map(|(r, l, e, d)| build::cas(&r, l, e, d)),
        (arb_operand_reg(), arb_loc(), 0i64..4).prop_map(|(r, l, v)| build::exch(&r, l, v)),
        (arb_operand_reg(), arb_loc()).prop_map(|(r, l)| build::inc(&r, l)),
        (arb_operand_reg(), -4i64..5).prop_map(|(r, v)| build::mov(&r, v)),
        (arb_operand_reg(), arb_operand_reg(), -4i64..5).prop_map(|(d, a, b)| build::add(
            &d,
            build::reg(&a),
            build::imm(b)
        )),
        (arb_operand_reg(), arb_operand_reg(), 0i64..3).prop_map(|(d, a, b)| build::setp_eq(
            &d,
            build::reg(&a),
            build::imm(b)
        )),
    ]
}

fn arb_program() -> impl Strategy<Value = LitmusTest> {
    (
        prop::collection::vec(arb_instr(), 1..5),
        prop::collection::vec(arb_instr(), 1..5),
        prop::bool::ANY,
    )
        .prop_map(|(t0, t1, inter)| {
            let mut pred = Predicate::True;
            for (tid, thread) in [&t0, &t1].into_iter().enumerate() {
                for i in thread {
                    if let Some(r) = i.written_reg() {
                        pred = pred.and(Predicate::Eq(FinalExpr::Reg(tid, r.clone()), 0));
                    }
                }
            }
            LitmusTest::builder("prop")
                .global("x", 0)
                .global("y", 1)
                .global("z", 0)
                .thread(t0)
                .thread(t1)
                .scope(if inter {
                    ThreadScope::InterCta
                } else {
                    ThreadScope::IntraCta
                })
                .exists(pred)
                .build()
                .expect("generated programs are structurally valid")
        })
}

/// The expressions outcome bindings are drawn from: registers of two
/// threads (one with a two-digit id) and two locations.
fn expr_pool() -> Vec<FinalExpr> {
    vec![
        FinalExpr::reg(0, "r0"),
        FinalExpr::reg(0, "r1"),
        FinalExpr::reg(1, "r0"),
        FinalExpr::reg(10, "r2"),
        FinalExpr::mem("x"),
        FinalExpr::mem("y"),
    ]
}

/// A binding sequence over [`expr_pool`], duplicate expressions likely.
fn arb_bindings() -> impl Strategy<Value = Vec<(FinalExpr, i64)>> {
    prop::collection::vec((0..6usize, -3i64..4), 0..9).prop_map(|picks| {
        let pool = expr_pool();
        picks
            .into_iter()
            .map(|(i, v)| (pool[i].clone(), v))
            .collect()
    })
}

/// The reference: a map fed the same sequence, so later bindings win.
fn reference(bindings: &[(FinalExpr, i64)]) -> BTreeMap<FinalExpr, i64> {
    bindings.iter().cloned().collect()
}

/// A random condition body over [`expr_pool`]: `e=n`, `e!=n` and `true`
/// leaves under up to three levels of `/\`, `\/` and `not`, with values
/// from a small range so that leaves often hold.
fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let leaf = prop_oneof![
        (0..6usize, -2i64..3).prop_map(|(i, n)| Predicate::Eq(expr_pool()[i].clone(), n)),
        (0..6usize, -2i64..3).prop_map(|(i, n)| Predicate::Ne(expr_pool()[i].clone(), n)),
        Just(Predicate::True),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Predicate::negate),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The compiled condition judges an observation vector as the named
    /// condition judges the outcome the vector stands for, under every
    /// quantifier, and the layout's outcomes round-trip and order as
    /// their vectors do.
    #[test]
    fn compiled_conditions_judge_vectors_as_named_conditions_do(
        pred in arb_predicate(),
        quantifier in 0..3usize,
        a in prop::collection::vec(-2i64..3, 6),
        b in prop::collection::vec(-2i64..3, 6),
    ) {
        let quantifier = [Quantifier::Exists, Quantifier::NotExists, Quantifier::Forall][quantifier];
        let cond = FinalCond { quantifier, pred };
        let layout = ObsLayout::new(&cond);
        let exprs = layout.exprs();
        let mut mentioned = cond.pred.exprs();
        mentioned.sort();
        prop_assert_eq!(exprs, &mentioned[..]);

        let (a, b) = (&a[..exprs.len()], &b[..exprs.len()]);
        let outcome = layout.outcome(a);
        let named: Outcome = exprs.iter().cloned().zip(a.iter().copied()).collect();
        prop_assert_eq!(&outcome, &named);
        let values: Vec<i64> = outcome.iter().map(|(_, v)| v).collect();
        prop_assert_eq!(&values[..], a);
        prop_assert_eq!(layout.witnessed_by(a), cond.witnessed_by(&outcome));
        prop_assert_eq!(layout.witnessed_by(b), cond.witnessed_by(&layout.outcome(b)));
        prop_assert_eq!(a.cmp(b), outcome.cmp(&layout.outcome(b)));
    }
}

proptest! {
    // Build/print/parse round-trips are cheap but not free; 64 keeps the
    // suite CI-friendly (PROPTEST_CASES caps this further if set).
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn tests_roundtrip_through_the_textual_format(test in arb_program()) {
        let text = test.to_string();
        let back = parser::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
        prop_assert_eq!(test.threads(), back.threads());
        prop_assert_eq!(test.memory(), back.memory());
        prop_assert_eq!(test.scope_tree(), back.scope_tree());
        prop_assert_eq!(test.cond(), back.cond());
        prop_assert_eq!(test.reg_init().count(), back.reg_init().count());
    }

    #[test]
    fn individual_instructions_roundtrip(instr in arb_instr()) {
        // Render one instruction and re-parse it in a one-thread skeleton.
        let text = format!(
            "GPU_PTX one\n{{0:.reg .s32 r0; 0:.reg .s32 r1; 0:.reg .s32 r2; \
             0:.reg .s32 r3; 0:.reg .s32 r4; 0:.reg .s32 r5}}\nT0 ;\n{} ;\n\
             x: global, y: global, z: global\nexists (true)\n",
            printer::render_instr(&instr)
        );
        let parsed = parser::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
        prop_assert_eq!(&parsed.threads()[0][0], &instr);
    }

    #[test]
    fn predicate_negation_flips_eval(
        vals in prop::collection::vec(-3i64..4, 3),
        probe in -3i64..4,
    ) {
        let mut outcome = Outcome::new();
        for (i, v) in vals.iter().enumerate() {
            outcome.set(FinalExpr::reg(0, format!("r{i}").as_str()), *v);
        }
        let p = Predicate::reg_eq(0, "r0", probe)
            .or(Predicate::reg_eq(0, "r1", probe));
        prop_assert_eq!(p.eval(&outcome), !p.clone().negate().eval(&outcome));
        // De Morgan against the other connective.
        let q = Predicate::Ne(FinalExpr::reg(0, "r0"), probe)
            .and(Predicate::Ne(FinalExpr::reg(0, "r1"), probe));
        prop_assert_eq!(p.eval(&outcome), !q.eval(&outcome));
    }

    #[test]
    fn scope_trees_classify_consistently(n in 2usize..6, scope_kind in 0..3usize) {
        let scope = [ThreadScope::IntraWarp, ThreadScope::IntraCta, ThreadScope::InterCta][scope_kind];
        let tree = ScopeTree::for_scope(scope, n);
        prop_assert_eq!(tree.num_threads(), n);
        for a in 0..n {
            for b in 0..n {
                // same_warp ⊆ same_cta.
                if tree.same_warp(a, b) {
                    prop_assert!(tree.same_cta(a, b));
                }
            }
        }
        match scope {
            ThreadScope::IntraWarp => prop_assert!(tree.same_warp(0, n - 1)),
            ThreadScope::IntraCta => {
                prop_assert!(tree.same_cta(0, n - 1));
                prop_assert!(!tree.same_warp(0, n - 1));
            }
            ThreadScope::InterCta => prop_assert!(!tree.same_cta(0, n - 1)),
        }
        // Display round-trips through the parser as part of a test.
        if n == 2 {
            prop_assert_eq!(tree.classify(), Some(scope));
        }
    }

    #[test]
    fn outcome_ordering_is_total_and_stable(
        a in prop::collection::btree_map(0..4usize, -3i64..4, 1..4),
        b in prop::collection::btree_map(0..4usize, -3i64..4, 1..4),
    ) {
        let mk = |m: &std::collections::BTreeMap<usize, i64>| -> Outcome {
            m.iter()
                .map(|(i, v)| (FinalExpr::reg(0, format!("r{i}").as_str()), *v))
                .collect()
        };
        let (oa, ob) = (mk(&a), mk(&b));
        // Total order: exactly one of <, ==, > holds.
        let lt = oa < ob;
        let gt = oa > ob;
        let eq = oa == ob;
        prop_assert_eq!(lt as u8 + gt as u8 + eq as u8, 1);
        // Display keys canonically: equal outcomes render identically.
        if eq {
            prop_assert_eq!(oa.to_string(), ob.to_string());
        }
    }
    #[test]
    fn outcomes_agree_with_a_btree_map_reference(a in arb_bindings(), b in arb_bindings()) {
        let (ma, mb) = (reference(&a), reference(&b));
        let collected: Outcome = a.iter().cloned().collect();
        let mut set = Outcome::new();
        for (e, v) in &a {
            set.set(e.clone(), *v);
        }
        prop_assert_eq!(&collected, &set);
        let oa = collected;
        let ob: Outcome = b.iter().cloned().collect();

        for e in expr_pool() {
            prop_assert_eq!(oa.get(&e), ma.get(&e).copied());
        }
        prop_assert_eq!(oa.len(), ma.len());
        prop_assert_eq!(oa.is_empty(), ma.is_empty());
        let pairs: Vec<(FinalExpr, i64)> = oa.iter().map(|(e, v)| (e.clone(), v)).collect();
        let want: Vec<(FinalExpr, i64)> = ma.iter().map(|(e, v)| (e.clone(), *v)).collect();
        prop_assert_eq!(pairs, want);
        let rendered: String = ma.iter().map(|(e, v)| format!("{e}={v}; ")).collect();
        prop_assert_eq!(oa.to_string(), rendered);

        // Pairwise: equality and order are the map's, and so is the hash.
        prop_assert_eq!(oa == ob, ma == mb);
        prop_assert_eq!(oa.cmp(&ob), ma.cmp(&mb));
        prop_assert_eq!(oa.partial_cmp(&ob), ma.partial_cmp(&mb));
        let state = std::collections::hash_map::RandomState::new();
        prop_assert_eq!(state.hash_one(&oa), state.hash_one(&ma));
        prop_assert_eq!(state.hash_one(&ob), state.hash_one(&mb));
    }
}
