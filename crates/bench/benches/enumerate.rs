//! Criterion benchmark for the **end-to-end cache-miss verdict path**:
//! everything a sweep worker does the first time it meets a test shape —
//! enumerate the candidate executions *and* judge them through the PTX
//! model's compiled plan.
//!
//! Two workloads:
//!
//! * **streaming** — `model_outcomes_with`, the production verdict walk,
//!   over the corpus plus a sample of the paper family: the shapes the
//!   paper actually validates, a handful of candidates each;
//! * **fan** — `corr-fan-2w12r`, a read fan of over a million candidates,
//!   judged by the exhaustive oracle (`model_outcomes_exhaustive`, every
//!   candidate alone) and by the walk, under SC and under PTX. SC cuts
//!   most of the fan with interval checks; PTX allows load-load hazards,
//!   so nothing about the fan is forbidden, no cut fires, and the walk's
//!   64-lane batches carry it alone.
//!
//! Besides the criterion numbers, a JSON summary with end-to-end
//! verdicts/sec for every arm is written to `BENCH_enumerate.json` at
//! the repository root (skipped under `--test`). Every arm judges the
//! same candidate space, so verdicts/sec divides the candidate count by
//! wall time: the walk's figure is the effective judging rate its cuts
//! and batches buy.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use weakgpu_axiom::enumerate::{
    model_outcomes_counted, model_outcomes_exhaustive, model_outcomes_with, EnumConfig, PruneStats,
};
use weakgpu_axiom::plan::EvalContext;
use weakgpu_axiom::Model;
use weakgpu_diy::{generate, GenConfig};
use weakgpu_litmus::{corpus, corpus_extra, LitmusTest};
use weakgpu_models::{ptx_model, sc_model};

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

/// The fan shape and a budget the exhaustive oracle can finish in:
/// `(2, 12)` spans 1,062,882 candidates.
fn fan_setup() -> (LitmusTest, EnumConfig) {
    let test = corpus_extra::corr_fan(2, 12);
    let cfg = EnumConfig {
        max_traces_per_thread: 1 << 14,
        max_executions: 3_000_000,
        ..EnumConfig::default()
    };
    (test, cfg)
}

/// One full cache-miss verdict of `test`, by the exhaustive oracle or by
/// the walk. Returns `(candidates, walk stats)`; the oracle reports
/// default stats.
fn fan_pass(
    test: &LitmusTest,
    model: &dyn Model,
    cfg: &EnumConfig,
    ctx: &mut EvalContext,
    walk: bool,
) -> (usize, PruneStats) {
    if walk {
        let (out, stats) = model_outcomes_counted(test, model, cfg, ctx).unwrap();
        (out.num_candidates, stats)
    } else {
        let out = model_outcomes_exhaustive(test, model, cfg, ctx).unwrap();
        (out.num_candidates, PruneStats::default())
    }
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

    // A criterion-friendly fan; the JSON summary times the full 2w12r
    // shape.
    let fan = corpus_extra::corr_fan(2, 8);
    let (_, fan_cfg) = fan_setup();
    let sc = sc_model();
    let mut g = c.benchmark_group("fan_2w8r");
    for (judge, m) in [("sc", &sc), ("ptx", &model)] {
        for (arm, walk) in [("exhaustive", false), ("walk", true)] {
            g.bench_function(&format!("{judge}_{arm}"), |b| {
                b.iter(|| black_box(fan_pass(&fan, &**m, &fan_cfg, &mut ctx, walk)));
            });
        }
    }
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
/// JSON summary. The fan arms run in strictly alternating rounds and
/// each reports its **median** round time, so a noisy-neighbour or
/// thermal-throttling window hits every arm alike instead of whichever
/// one happened to be running.
fn write_bench_json() {
    let median = |times: &mut Vec<f64>| {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
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
    let streaming_vps = stream.0 as f64 / median(&mut stream_times);

    let (fan, fan_cfg) = fan_setup();
    let sc = sc_model();
    let judges: [(&str, &dyn Model); 2] = [("sc", &*sc), ("ptx", &*model)];
    let fan_rounds = 8;
    // Per judge: exhaustive times, walk times, walk stats.
    let mut times: [(Vec<f64>, Vec<f64>, PruneStats); 2] = Default::default();
    let mut candidates = 0usize;
    for _ in 0..fan_rounds {
        for ((_, judge), (ex_times, walk_times, stats)) in judges.iter().zip(&mut times) {
            let t0 = Instant::now();
            let (ex, _) = black_box(fan_pass(&fan, *judge, &fan_cfg, &mut ctx, false));
            ex_times.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let (walked, walk_stats) = black_box(fan_pass(&fan, *judge, &fan_cfg, &mut ctx, true));
            walk_times.push(t0.elapsed().as_secs_f64());
            assert_eq!(ex, walked, "both arms must span the same candidate space");
            candidates = ex;
            *stats = walk_stats;
        }
    }
    let mut fan_fields = String::new();
    for ((name, _), (ex_times, walk_times, stats)) in judges.iter().zip(&mut times) {
        let ex_vps = candidates as f64 / median(ex_times);
        let walk_vps = candidates as f64 / median(walk_times);
        fan_fields.push_str(&format!(
            "  \"{name}_exhaustive_verdicts_per_sec\": {ex_vps:.0},\n  \"{name}_walk_verdicts_per_sec\": {walk_vps:.0},\n  \"{name}_walk_speedup\": {:.3},\n  \"{name}_classes_visited\": {},\n  \"{name}_candidates_pruned\": {},\n",
            walk_vps / ex_vps,
            stats.classes_visited,
            stats.candidates_pruned,
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"enumerate\",\n  \"model\": \"ptx-rmo-scoped\",\n  \"workload\": \"corpus + paper-family sample, end-to-end cache-miss verdicts\",\n  \"tests\": {},\n  \"candidates_per_pass\": {},\n  \"streaming_verdicts_per_sec\": {streaming_vps:.0},\n  \"fan_test\": \"{}\",\n  \"fan_candidates\": {candidates},\n{fan_fields}  \"fan_note\": \"exhaustive oracle vs the verdict walk on the same fan, median of {fan_rounds} alternating rounds; SC cuts most of the fan, PTX allows load-load hazards so no cut fires and the walk's 64-lane batches carry it alone\"\n}}\n",
        tests.len(),
        stream.0,
        fan.name(),
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
