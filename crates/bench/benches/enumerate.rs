//! Criterion benchmark for the **end-to-end cache-miss verdict path**:
//! everything a sweep worker does the first time it meets a test shape —
//! enumerate the candidate executions *and* judge them through the PTX
//! model's compiled plan.
//!
//! The workload is `model_outcomes_with`, the production verdict path,
//! over the corpus plus a sample of the paper family: the shapes the
//! paper actually validates, a handful of candidates each.
//!
//! Besides the criterion numbers, a JSON summary with end-to-end
//! verdicts/sec is written to `BENCH_enumerate.json` at the repository
//! root (skipped under `--test`).

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use weakgpu_axiom::enumerate::{model_outcomes_with, EnumConfig};
use weakgpu_axiom::plan::EvalContext;
use weakgpu_axiom::Model;
use weakgpu_diy::{generate, GenConfig};
use weakgpu_litmus::{corpus, LitmusTest};
use weakgpu_models::ptx_model;

/// The benchmark workload: every corpus idiom plus a deterministic
/// sample of the paper-scale generated family (every `stride`-th test,
/// so the sample spans the family's shape variety instead of one
/// prefix's).
fn workload() -> Vec<LitmusTest> {
    let mut tests = corpus::all();
    let paper = generate(&GenConfig::paper());
    let stride = (paper.len() / 40).max(1);
    tests.extend(paper.into_iter().step_by(stride).take(40));
    tests
}

/// The streaming cache-miss path, exactly as the sweep worker runs it.
fn streaming_pass(
    tests: &[LitmusTest],
    model: &dyn Model,
    ctx: &mut EvalContext,
    cfg: &EnumConfig,
) -> (usize, usize) {
    let mut candidates = 0usize;
    let mut allowed = 0usize;
    for test in tests {
        let out = model_outcomes_with(test, model, cfg, ctx).unwrap();
        candidates += out.num_candidates;
        allowed += out.num_allowed;
    }
    (candidates, allowed)
}

fn bench_enumerators(c: &mut Criterion) {
    let tests = workload();
    let model = ptx_model();
    let cfg = EnumConfig::default();
    let mut ctx = EvalContext::new();
    let mut g = c.benchmark_group("cache_miss_enumeration");
    g.bench_function("streaming", |b| {
        b.iter(|| black_box(streaming_pass(&tests, &model, &mut ctx, &cfg)));
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
    targets = bench_enumerators
}

/// Measures end-to-end verdicts/sec (outside criterion) and writes the
/// JSON summary: the median of 16 rounds, so one noisy window does not
/// set the figure.
fn write_bench_json() {
    let tests = workload();
    let model = ptx_model();
    let cfg = EnumConfig::default();
    let mut ctx = EvalContext::new();
    let rounds = 16;
    let mut stream = (0usize, 0usize);
    let mut stream_times = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        stream = black_box(streaming_pass(&tests, &model, &mut ctx, &cfg));
        stream_times.push(t0.elapsed().as_secs_f64());
    }
    stream_times.sort_by(f64::total_cmp);
    let streaming_vps = stream.0 as f64 / stream_times[rounds / 2];

    let json = format!(
        "{{\n  \"bench\": \"enumerate\",\n  \"model\": \"ptx-rmo-scoped\",\n  \"workload\": \"corpus + paper-family sample, end-to-end cache-miss verdicts\",\n  \"tests\": {},\n  \"candidates_per_pass\": {},\n  \"streaming_verdicts_per_sec\": {streaming_vps:.0},\n  \"note\": \"median of {rounds} rounds\"\n}}\n",
        tests.len(),
        stream.0,
    );
    // CARGO_MANIFEST_DIR is crates/bench; the summary lives at the repo
    // root regardless of the invoking working directory.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_enumerate.json");
    std::fs::write(path, &json).expect("write BENCH_enumerate.json");
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
