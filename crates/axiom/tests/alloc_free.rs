//! Proves the allocation bounds of the two production loops: the
//! steady-state streaming visitor loop performs **zero heap allocation
//! per candidate**, and so does the verdict loop, which judges each
//! streamed candidate with the model's compiled plan. Per test, a warm
//! enumeration (tables, trace walk, arena, skeletons) allocates nothing
//! at all, and a warm verdict allocates only for the [`ModelOutcomes`]
//! it returns. A verdict-cache hit through [`VerdictCache::lookup`]
//! allocates nothing either: its key is a fingerprint hashed from the
//! test's structure.
//!
//! A counting global allocator wraps the system allocator and counts
//! into a per-thread counter, so allocations of tests running on other
//! threads never land in a measurement. After the enumeration scratch
//! has warmed, the measuring thread reads its counter inside the
//! visitor at the first and at the last visit: every inter-visit step
//! (overlay rewrites, skeleton refills for later trace combinations,
//! rf/co advancement and plan evaluation) lies between those two reads, so their equality is exactly the
//! claim. The measurement harness is shared by both tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::ControlFlow;

struct Counting;

thread_local! {
    // Const-initialised with no destructor: reading it never allocates
    // and stays valid during thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs_so_far() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: delegates directly to the system allocator; the counter has
// no effect on allocation behaviour.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

use weakgpu_axiom::cache::VerdictCache;
use weakgpu_axiom::enumerate::{for_each_execution, model_outcomes_with, EnumConfig, EnumError};
use weakgpu_axiom::model::sc_model;
use weakgpu_axiom::plan::EvalContext;
use weakgpu_axiom::Model;
use weakgpu_diy::{synthesise, Cycle, Dir, Edge};
use weakgpu_litmus::build::st;
use weakgpu_litmus::{corpus, corpus_extra, FenceScope, LitmusTest, Predicate, ThreadScope};

/// The shared measurement harness: `enumerate` must invoke the passed
/// hook once per candidate. Returns the visit
/// count and the allocations this thread made between the first and the
/// last visit — zero is the steady-state claim both tests assert.
fn allocs_across_visits(enumerate: impl FnOnce(&mut dyn FnMut())) -> (usize, u64) {
    let mut visits = 0usize;
    let mut at_first = 0u64;
    let mut at_last = 0u64;
    enumerate(&mut || {
        let now = allocs_so_far();
        if visits == 0 {
            at_first = now;
        }
        at_last = now;
        visits += 1;
    });
    (visits, at_last - at_first)
}

#[test]
fn steady_state_visitor_loop_is_allocation_free() {
    let cfg = EnumConfig::default();
    for test in [
        corpus::corr(),
        corpus::mp(ThreadScope::InterCta, None),
        corpus::sb(ThreadScope::IntraCta, None),
        corpus::dlb_lb(false),
    ] {
        // Warm the thread-local enumeration scratch and the symbolic
        // layer's buffers for this test's shapes.
        for _ in 0..2 {
            for_each_execution(&test, &cfg, |_| ControlFlow::<()>::Continue(())).unwrap();
        }

        let (candidates, allocs) = allocs_across_visits(|visit| {
            for_each_execution(&test, &cfg, |_| {
                visit();
                ControlFlow::<()>::Continue(())
            })
            .unwrap();
        });

        assert!(
            candidates > 1,
            "{} must have several candidates",
            test.name()
        );
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations across {candidates} candidates \
             in the steady-state visitor loop",
            test.name()
        );
    }
}

/// The paper family's largest shape: `PosWW-Coe-PosWW-PosWW-Coe+intra`,
/// 120 candidates (five writes to one location).
fn largest_paper_test() -> LitmusTest {
    let pos_ww = Edge::Po {
        same_loc: true,
        from: Dir::W,
        to: Dir::W,
    };
    let cycle = Cycle::new(vec![pos_ww, Edge::Coe, pos_ww, pos_ww, Edge::Coe]).unwrap();
    let test = synthesise(&cycle, ThreadScope::IntraCta, false).unwrap();
    assert_eq!(test.name(), "PosWW-Coe-PosWW-PosWW-Coe+intra");
    test
}

/// The production verdict loop: every streamed candidate judged by
/// [`Model::allows_view`], as `model_outcomes_with` does.
#[test]
fn steady_state_verdict_loop_is_allocation_free() {
    let cfg = EnumConfig::default();
    for model in [sc_model(), (*weakgpu_models::ptx_model()).clone()] {
        let mut ctx = EvalContext::new();
        for test in [
            corpus::corr(),
            corpus::mp(ThreadScope::InterCta, None),
            corpus::dlb_lb(false),
            largest_paper_test(),
        ] {
            let judge = |ctx: &mut EvalContext, visit: &mut dyn FnMut()| {
                for_each_execution(&test, &cfg, |view| {
                    std::hint::black_box(model.allows_view(ctx, view));
                    visit();
                    ControlFlow::<()>::Continue(())
                })
                .unwrap();
            };
            // Warm the enumeration scratch and the evaluation arena for
            // this test's shapes. Each judgement enumerates its traces
            // afresh, all before the first visit, so they never count.
            for _ in 0..2 {
                judge(&mut ctx, &mut || {});
            }

            let (candidates, allocs) = allocs_across_visits(|visit| judge(&mut ctx, visit));
            assert!(
                candidates > 1,
                "{} must have several candidates",
                test.name()
            );
            assert_eq!(
                allocs,
                0,
                "{} under {}: {allocs} heap allocations across {candidates} \
                 candidates in the steady-state verdict loop",
                test.name(),
                model.name()
            );
        }
    }
}

/// The paper's shapes the per-test bounds are checked on: the largest
/// generated test, a four-thread test (`iriw+membar.gls`) and an RMW test
/// (the compare-and-swap spin lock).
fn per_test_shapes() -> [LitmusTest; 3] {
    [
        largest_paper_test(),
        corpus_extra::iriw(ThreadScope::InterCta, Some(FenceScope::Gl)),
        corpus::cas_sl(false),
    ]
}

/// Allocations this thread makes during `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocs_so_far();
    let r = f();
    (r, allocs_so_far() - before)
}

/// A warm enumeration allocates nothing for a whole test: loading its
/// tables, compiling its threads, the trace walk into the arena, every
/// skeleton fill and every overlay.
#[test]
fn warm_enumeration_of_a_test_is_allocation_free() {
    let cfg = EnumConfig::default();
    let tests = per_test_shapes();
    // Warm on every shape first, so each measured call follows a
    // different test, as in a sweep.
    for test in &tests {
        for_each_execution(test, &cfg, |_| ControlFlow::<()>::Continue(())).unwrap();
    }
    for test in &tests {
        let (_, allocs) = allocs_during(|| {
            for_each_execution(test, &cfg, |_| ControlFlow::<()>::Continue(())).unwrap()
        });
        assert_eq!(allocs, 0, "{}: warm enumeration", test.name());
    }
}

/// A warm verdict allocates only for what it returns: one `Vec` per
/// outcome in each set plus the sets' tree nodes, within
/// `2·(|all| + |allowed|) + 8`.
#[test]
fn warm_verdicts_allocate_only_their_outcomes() {
    let cfg = EnumConfig::default();
    let model = weakgpu_models::ptx_model();
    let mut ctx = EvalContext::new();
    let tests = per_test_shapes();
    for test in &tests {
        model_outcomes_with(test, &model, &cfg, &mut ctx).unwrap();
    }
    for test in &tests {
        let (out, allocs) = allocs_during(|| model_outcomes_with(test, &model, &cfg, &mut ctx));
        let out = out.unwrap();
        let bound = 2 * (out.all_outcomes.len() + out.allowed_outcomes.len()) as u64 + 8;
        assert!(
            allocs <= bound,
            "{}: {allocs} allocations for {} + {} outcomes (bound {bound})",
            test.name(),
            out.all_outcomes.len(),
            out.allowed_outcomes.len()
        );
    }
}

/// A location's coherence orders are stepped through in place, never
/// materialised: ten stores to one location have 10! = 3,628,800 orders,
/// and a cold enumeration that gives up after 1,000 candidates allocates
/// a bounded working set, not one buffer per order.
#[test]
fn coherence_orders_are_stepped_not_materialised() {
    let test = LitmusTest::builder("ten-stores")
        .global("x", 0)
        .thread((1..=10).map(|v| st("x", v)))
        .exists(Predicate::mem_eq("x", 1))
        .build()
        .unwrap();
    let cfg = EnumConfig {
        max_executions: 1_000,
        ..EnumConfig::default()
    };
    // A fresh thread, so that the enumeration's scratch starts cold.
    let (result, allocs) = std::thread::spawn(move || {
        allocs_during(|| for_each_execution(&test, &cfg, |_| ControlFlow::<()>::Continue(())))
    })
    .join()
    .unwrap();
    assert_eq!(result, Err(EnumError::TooManyExecutions));
    assert!(allocs < 10_000, "{allocs} allocations");
}

#[test]
fn verdict_cache_lookups_are_allocation_free() {
    let cfg = EnumConfig::default();
    let model = (*weakgpu_models::ptx_model()).clone();
    let tests = [
        corpus::corr(),
        corpus::mp(ThreadScope::InterCta, None),
        corpus::dlb_lb(false),
        largest_paper_test(),
    ];
    let mut cache = VerdictCache::new();
    for test in &tests {
        cache.outcomes(test, &model, &cfg).unwrap();
    }
    for test in &tests {
        let before = allocs_so_far();
        let hit = cache.lookup(test, &model, &cfg);
        let allocs = allocs_so_far() - before;
        assert!(hit.is_some(), "{}", test.name());
        assert_eq!(allocs, 0, "{}: VerdictCache::lookup hit", test.name());
    }
}
