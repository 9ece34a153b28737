//! Proves the allocation bounds of the two enumeration loops: the
//! steady-state streaming visitor loop performs **zero heap allocation
//! per candidate**, and the verdict walk performs **zero heap
//! allocation per visited class** — interval cuts, delta-state pushes
//! and pops, and 64-lane batches included.
//!
//! A counting global allocator wraps the system allocator and counts
//! into a per-thread counter, so allocations of tests running on other
//! threads never land in a measurement. After the enumeration scratch
//! has warmed, the measuring thread reads its counter inside the
//! visitor at the first and at the last visit: every inter-visit step
//! (overlay rewrites, skeleton refills for later trace combinations,
//! rf/co advancement, partial checks, batch packing and evaluation)
//! lies between those two reads, so their equality is exactly the
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

use weakgpu_axiom::enumerate::{
    for_each_execution, for_each_execution_pruned, EnumConfig, PruneStats,
};
use weakgpu_axiom::model::sc_model;
use weakgpu_axiom::plan::EvalContext;
use weakgpu_litmus::{corpus, corpus_extra, ThreadScope};

/// The shared measurement harness: `enumerate` must invoke the passed
/// hook once per visited node (candidate or class). Returns the visit
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

/// The production verdict walk. (Named for the walk's interval cuts;
/// it batches and evaluates by path delta as well.)
#[test]
fn steady_state_pruned_walk_is_allocation_free() {
    let model = sc_model();
    let cfg = EnumConfig::default();
    let mut ctx = EvalContext::new();
    for test in [
        // Eight reads give real subtree cuts plus batches below them;
        // six reads go straight to dense batches; the corpus tests cover
        // small batches mixed with single leaves.
        corpus_extra::corr_fan(2, 8),
        corpus_extra::corr_fan(2, 6),
        corpus::corr(),
        corpus::mp(ThreadScope::InterCta, None),
        corpus::dlb_lb(false),
    ] {
        // Warm the enumeration scratch, the trace cache, the lane planes
        // and the path-delta journal.
        let walk = |ctx: &mut EvalContext, visit: &mut dyn FnMut()| {
            let mut stats = PruneStats::default();
            for_each_execution_pruned(&test, &model, &cfg, ctx, &mut stats, |_| {
                visit();
                ControlFlow::<()>::Continue(())
            })
            .unwrap();
        };
        for _ in 0..2 {
            walk(&mut ctx, &mut || {});
        }

        let (classes, allocs) = allocs_across_visits(|visit| walk(&mut ctx, visit));
        assert!(classes > 1, "{} must visit several classes", test.name());
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations across {classes} classes \
             in the steady-state walk",
            test.name()
        );
    }
}
