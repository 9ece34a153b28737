//! Criterion benchmark for the persistence + serving layer: the verdict
//! phase of a `--cache-file` sweep run cold (every shape enumerated,
//! cache persisted to disk) versus warm (cache restored from disk,
//! every cell answered by lookup), plus the request throughput of a
//! warm `serve` session. Simulation time is identical on both arms and
//! is excluded — cells/sec here is the verdict work the cache file
//! actually amortises across CI shards and serve restarts.
//!
//! Besides the criterion numbers, a JSON summary is written to
//! `BENCH_serve.json` at the repository root so the warm-over-cold
//! speedup and serving throughput are tracked across PRs (skipped under
//! `--test`).

use std::io::Cursor;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use weakgpu_axiom::cache::VerdictCache;
use weakgpu_axiom::enumerate::EnumConfig;
use weakgpu_axiom::persist;
use weakgpu_axiom::plan::EvalContext;
use weakgpu_diy::{generate, GenConfig};
use weakgpu_harness::serve::{serve, ServeConfig};
use weakgpu_litmus::LitmusTest;
use weakgpu_models::ptx_model;
use weakgpu_sim::chip::Chip;

/// Chips per test: the Sec. 5.4 validation columns.
const CHIPS: usize = Chip::NVIDIA_TABLED.len();

fn family(n: usize) -> Vec<LitmusTest> {
    generate(&GenConfig::small()).into_iter().take(n).collect()
}

fn cache_path() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("weakgpu-bench-serve-{}.wgc", std::process::id()))
}

/// Cold arm: a fresh cache judges every (test, chip) cell and persists
/// the result — the first CI shard's verdict work.
fn cold_cells(tests: &[LitmusTest]) -> usize {
    let model = ptx_model();
    let cfg = EnumConfig::default();
    let mut ctx = EvalContext::new();
    let mut cache = VerdictCache::new();
    let mut allowed = 0usize;
    for test in tests {
        for _chip in 0..CHIPS {
            let v = cache.outcomes_with(test, &model, &cfg, &mut ctx).unwrap();
            allowed += v.allowed_outcomes.len();
        }
    }
    persist::save(&cache_path(), &cache).unwrap();
    allowed
}

/// Warm arm: the persisted cache is restored and answers every cell —
/// the later shards' (and restarted daemons') verdict work.
fn warm_cells(tests: &[LitmusTest]) -> usize {
    let model = ptx_model();
    let cfg = EnumConfig::default();
    let mut ctx = EvalContext::new();
    let mut cache = persist::load(&cache_path()).unwrap();
    let mut allowed = 0usize;
    for test in tests {
        for _chip in 0..CHIPS {
            let v = cache.outcomes_with(test, &model, &cfg, &mut ctx).unwrap();
            allowed += v.allowed_outcomes.len();
        }
    }
    assert_eq!(cache.misses(), 0, "a warm run must not enumerate");
    allowed
}

/// One JSONL batch cycling through the family's corpus-independent
/// inline requests by test name order — what a serve client streams.
fn request_batch(tests: &[LitmusTest], requests: usize) -> String {
    let mut batch = String::new();
    for i in 0..requests {
        let name = tests[i % tests.len()].name();
        batch.push_str(&format!("{{\"id\": {i}, \"test\": \"{name}\"}}\n",));
    }
    batch
}

/// Answers `batch` through a serve session over a warm cache; returns
/// the number of responses written.
fn serve_batch(batch: &str, cache: &mut VerdictCache) -> usize {
    let mut out = Vec::new();
    let summary = serve(Cursor::new(batch), &mut out, &ServeConfig::default(), cache).unwrap();
    assert_eq!(summary.errors, 0);
    summary.requests as usize
}

fn bench_serve_paths(c: &mut Criterion) {
    let tests = family(30);
    cold_cells(&tests); // seed the disk cache for the warm arm
    let mut g = c.benchmark_group("serve_verdicts");
    g.bench_function("cold_sweep_cells_30x5", |b| {
        b.iter(|| black_box(cold_cells(&tests)));
    });
    g.bench_function("warm_sweep_cells_30x5", |b| {
        b.iter(|| black_box(warm_cells(&tests)));
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
    targets = bench_serve_paths
}

/// Measures both arms plus serve throughput over fixed workloads
/// (outside criterion, so the numbers are directly comparable) and
/// writes the JSON summary.
fn write_bench_json() {
    // Corpus-named requests only exist for corpus tests; the sweep arms
    // use the generated family, the serve arm the full named corpus.
    let tests = family(100);
    let cells = tests.len() * CHIPS;

    let t0 = Instant::now();
    let a = black_box(cold_cells(&tests));
    let cold_cps = cells as f64 / t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let b = black_box(warm_cells(&tests));
    let warm_cps = cells as f64 / t0.elapsed().as_secs_f64();
    assert_eq!(a, b, "both arms must agree on every verdict");

    // Serve throughput: a warmed daemon answering a large batch of
    // repeat requests (the steady state of a verdict service).
    let corpus = weakgpu_litmus::corpus::all();
    let requests = 2_000;
    let batch = request_batch(&corpus, requests);
    let mut cache = VerdictCache::new();
    serve_batch(&batch, &mut cache); // warm the cache
    let t0 = Instant::now();
    let answered = black_box(serve_batch(&batch, &mut cache));
    let rps = answered as f64 / t0.elapsed().as_secs_f64();

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"family\": \"small[..100]\",\n  \"chips\": {CHIPS},\n  \"cells\": {cells},\n  \"cold_cells_per_sec\": {cold_cps:.0},\n  \"warm_cells_per_sec\": {warm_cps:.0},\n  \"warm_speedup\": {:.3},\n  \"serve_requests\": {requests},\n  \"serve_requests_per_sec\": {rps:.0}\n}}\n",
        warm_cps / cold_cps
    );
    // CARGO_MANIFEST_DIR is crates/bench; the summary lives at the repo
    // root regardless of the invoking working directory.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("wrote {path}:\n{json}");
    let _ = std::fs::remove_file(cache_path());
}

fn main() {
    benches();
    // `cargo test --benches` smoke-runs with `--test`: skip the timing
    // sweep there, it would measure a debug build.
    if !std::env::args().any(|a| a == "--test") {
        write_bench_json();
    }
}
