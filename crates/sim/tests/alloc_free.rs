//! A warm batch of simulated runs allocates nothing: once a
//! `MachineState` is fitted and an `ObsCounts` has held the cell's
//! distinct observation vectors, `Simulator::run_batch` resets the state
//! by copying the program's images, keeps each window inline and records
//! each run by probing the counts it already has.
//!
//! A counting global allocator wraps the system allocator and counts
//! into a per-thread counter, so allocations of tests running on other
//! threads never land in a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use weakgpu_litmus::{corpus, FenceScope, ThreadScope};
use weakgpu_sim::chip::{Chip, Incantations};
use weakgpu_sim::machine::{MachineState, ObsCounts, RunParams, Simulator};

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

#[test]
fn a_warm_batch_allocates_nothing() {
    // Global and shared memory, `.ca` loads and L1 preload, fences and
    // atomics, on chips with and without L1 effects.
    let tests = [
        corpus::mp(ThreadScope::InterCta, None),
        corpus::mp_l1(Some(FenceScope::Gl)),
        corpus::corr(),
        corpus::mp_volatile(),
        corpus::cas_sl(true),
        corpus::dlb_lb(false),
    ];
    let inc = Incantations::all_on();
    for test in &tests {
        for chip in [Chip::GtxTitan, Chip::TeslaC2075, Chip::RadeonHd7970] {
            let sim = Simulator::compile(test, chip).unwrap();
            let params = RunParams::of(chip, &inc);
            let mut state = sim.new_state();
            let mut counts = ObsCounts::new();
            // Warm on the very stream the measured batch replays, so every
            // distinct vector has been held once.
            let batch = |state: &mut MachineState, counts: &mut ObsCounts| {
                let mut rng = SmallRng::seed_from_u64(0x5eed);
                sim.run_batch(2_000, &params, &mut rng, state, counts)
                    .unwrap();
            };
            batch(&mut state, &mut counts);
            counts.clear();
            let before = allocs_so_far();
            batch(&mut state, &mut counts);
            let allocs = allocs_so_far() - before;
            assert_eq!(
                allocs,
                0,
                "{} on {chip}: a warm batch allocated",
                test.name()
            );
            assert_eq!(counts.total(), 2_000);
        }
    }
}
