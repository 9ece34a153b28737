//! Criterion benchmark for the campaign engine's amortised hot path: the
//! historical per-run-allocation path (`run_once_with_weights`, which
//! builds a fresh `MachineState` and materialises an `Outcome` every
//! iteration) against the batch path (`run_batch` over one reused state
//! plus the indexed `ObsCounts` collector).
//!
//! Besides the criterion numbers, a JSON summary with runs/sec for both
//! paths is written to `BENCH_campaign.json` at the repository root so
//! later PRs can track the trajectory (skipped under `--test`).

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

use weakgpu_harness::Histogram;
use weakgpu_litmus::{corpus, ThreadScope};
use weakgpu_sim::chip::{Chip, Incantations, RunWeights};
use weakgpu_sim::machine::{ObsCounts, RunParams, Simulator};

const BATCH: usize = 500;

fn setup() -> (Simulator, RunWeights, bool) {
    let test = corpus::mp(ThreadScope::InterCta, None);
    let sim = Simulator::compile(&test, Chip::GtxTitan).unwrap();
    let inc = Incantations::best_inter_cta();
    let weights = Chip::GtxTitan.profile().weights(&inc);
    (sim, weights, inc.thread_rand)
}

/// The pre-campaign path: allocate run state and clone `FinalExpr`s into
/// an `Outcome` on every iteration.
fn naive_batch(
    sim: &Simulator,
    w: &RunWeights,
    thread_rand: bool,
    rng: &mut SmallRng,
    n: usize,
) -> Histogram {
    let mut h = Histogram::new();
    for _ in 0..n {
        let outcome = sim.run_once_with_weights(w, thread_rand, rng).unwrap();
        h.record(outcome);
    }
    h
}

/// The campaign path: one reused state, indexed outcome counts, and one
/// `Outcome` materialisation per distinct observation vector.
fn amortised_batch(
    sim: &Simulator,
    w: &RunWeights,
    thread_rand: bool,
    rng: &mut SmallRng,
    n: usize,
) -> Histogram {
    let mut state = sim.new_state();
    let mut counts = ObsCounts::new();
    let params = RunParams::new(w, thread_rand);
    sim.run_batch(n, &params, rng, &mut state, &mut counts)
        .unwrap();
    let mut h = Histogram::new();
    for (obs, c) in counts.iter() {
        h.add(sim.outcome_from_obs(obs), c);
    }
    h
}

fn bench_naive_vs_batch(c: &mut Criterion) {
    let (sim, weights, thread_rand) = setup();
    let mut g = c.benchmark_group("campaign_path");
    g.bench_function("naive_per_run_alloc_500", |b| {
        let mut rng = SmallRng::seed_from_u64(11);
        b.iter(|| black_box(naive_batch(&sim, &weights, thread_rand, &mut rng, BATCH)));
    });
    g.bench_function("batch_reused_state_500", |b| {
        let mut rng = SmallRng::seed_from_u64(11);
        b.iter(|| {
            black_box(amortised_batch(
                &sim,
                &weights,
                thread_rand,
                &mut rng,
                BATCH,
            ))
        });
    });
    g.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_naive_vs_batch
}

/// Measures runs/sec over a fixed iteration count (outside criterion, so
/// the two numbers are directly comparable) and writes the JSON summary.
fn write_bench_json() {
    let (sim, weights, thread_rand) = setup();
    let n = 30_000usize;

    let mut rng = SmallRng::seed_from_u64(99);
    let t0 = Instant::now();
    black_box(naive_batch(&sim, &weights, thread_rand, &mut rng, n));
    let naive_rps = n as f64 / t0.elapsed().as_secs_f64();

    let mut rng = SmallRng::seed_from_u64(99);
    let t0 = Instant::now();
    black_box(amortised_batch(&sim, &weights, thread_rand, &mut rng, n));
    let batch_rps = n as f64 / t0.elapsed().as_secs_f64();

    let json = format!(
        "{{\n  \"bench\": \"campaign\",\n  \"test\": \"mp\",\n  \"chip\": \"titan\",\n  \"iterations\": {n},\n  \"naive_runs_per_sec\": {naive_rps:.0},\n  \"batch_runs_per_sec\": {batch_rps:.0},\n  \"batch_speedup\": {:.3}\n}}\n",
        batch_rps / naive_rps
    );
    // CARGO_MANIFEST_DIR is crates/bench; the summary lives at the repo
    // root regardless of the invoking working directory.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    std::fs::write(path, &json).expect("write BENCH_campaign.json");
    println!("wrote {path}:\n{json}");
}

fn main() {
    benches();
    // `cargo test --benches` smoke-runs with `--test`: skip the timing
    // sweep there, it would measure a debug build.
    if !std::env::args().any(|a| a == "--test") {
        write_bench_json();
    }
}
