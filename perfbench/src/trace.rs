//! The tracer: calls each layer's public functions in the order
//! the sweep and the serve loop call them, with a span around each call.
//!
//! It runs single-threaded; only `run_campaign` uses the workload's
//! worker pool, as the sweep's campaign does. Two calls are extra work
//! that the untraced program does not do, and they count in the trace
//! overhead: `for_each_execution` with a counting visitor (to split the
//! stream from plan evaluation), and `Simulator::compile` on every cell
//! (`run_campaign` compiles the same cells again inside, where the
//! benchmark cannot put a span, so `sim.run_s` is the campaign span
//! minus the measured compile time).

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Arc;

use weakgpu_axiom::cache::{shape_key, VerdictCache};
use weakgpu_axiom::enumerate::{
    for_each_execution, model_outcomes_counted, EnumConfig, ModelOutcomes,
};
use weakgpu_axiom::persist;
use weakgpu_axiom::plan::EvalContext;
use weakgpu_axiom::Model;
use weakgpu_diy::{generate, GenConfig};
use weakgpu_harness::campaign::{default_incantations, run_campaign, CampaignConfig, CellSpec};
use weakgpu_harness::json;
use weakgpu_litmus::{parser, LitmusTest};
use weakgpu_sim::chip::Chip;
use weakgpu_sim::machine::Simulator;

use crate::requests::{Class, Stream};
use crate::spans::{self_seconds_by_name, Recorder};

/// Every per-layer metric a traced run reports, in output order. Layers
/// a workload does not exercise report 0.
pub const LAYER_METRICS: &[&str] = &[
    "diy.generate_s",
    "models.load_s",
    "front.parse_s",
    "front.parses",
    "harness.json.parse_s",
    "axiom.cache.shape_key_s",
    "axiom.cache.lookup_s",
    "axiom.cache.publish_s",
    "axiom.cache.lookups",
    "axiom.cache.hit_ratio",
    "axiom.stream_s",
    "axiom.candidates",
    "axiom.evaluate_s",
    "axiom.judge_us_per_shape",
    "axiom.allowed_ratio",
    "axiom.persist.load_s",
    "axiom.persist.save_s",
    "axiom.persist.bytes",
    "sim.compile_s",
    "sim.compiles",
    "sim.run_s",
    "sim.runs",
    "sim.ns_per_run",
    "sim.witness_ratio",
    "harness.campaign.self_s",
    "harness.sweep.soundness_s",
    "unattributed_s",
];

/// Work counted at the same boundaries the spans mark.
#[derive(Default)]
struct Counts {
    parses: u64,
    lookups: u64,
    hits: u64,
    judged: u64,
    streamed: u64,
    judged_candidates: u64,
    judged_allowed: u64,
    compiles: u64,
    runs: u64,
    witnesses: u64,
    persist_bytes: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Folds spans and counts into the [`LAYER_METRICS`] values.
fn layer_metrics(rec: &Recorder, root: &'static str, c: &Counts) -> BTreeMap<&'static str, f64> {
    let s = self_seconds_by_name(rec.spans());
    let t = |name: &str| s.get(name).copied().unwrap_or(0.0);
    let sim_run_s = (t("sim.run") - t("sim.compile")).max(0.0);
    let values = [
        t("diy.generate"),
        t("models.load"),
        t("front.parse"),
        c.parses as f64,
        t("harness.json.parse"),
        t("axiom.cache.shape_key"),
        t("axiom.cache.lookup"),
        t("axiom.cache.publish"),
        c.lookups as f64,
        ratio(c.hits as f64, c.lookups as f64),
        t("axiom.stream"),
        c.streamed as f64,
        (t("axiom.judge") - t("axiom.stream")).max(0.0),
        ratio(t("axiom.judge") * 1e6, c.judged as f64),
        ratio(c.judged_allowed as f64, c.judged_candidates as f64),
        t("axiom.persist.load"),
        t("axiom.persist.save"),
        c.persist_bytes as f64,
        t("sim.compile"),
        c.compiles as f64,
        sim_run_s,
        c.runs as f64,
        ratio(sim_run_s * 1e9, c.runs as f64),
        ratio(c.witnesses as f64, c.runs as f64),
        t("harness.campaign"),
        t("harness.sweep.soundness"),
        t(root),
    ];
    LAYER_METRICS.iter().copied().zip(values).collect()
}

/// The candidate stream alone — symbolic execution, skeletons and
/// overlays with a counting visitor and no model — in its own span.
///
/// The engine memoises the traces of the last test it enumerated, so
/// the stream runs in a loop of its own: a stream and a judgement of the
/// same test back to back would hand the second one warm traces.
fn stream_tests<'t>(
    rec: &mut Recorder,
    c: &mut Counts,
    tests: impl Iterator<Item = &'t LitmusTest>,
) -> Result<(), String> {
    let cfg = EnumConfig::default();
    for test in tests {
        let streamed = rec.time("axiom.stream", |_| {
            let mut n = 0u64;
            for_each_execution(test, &cfg, |view| {
                std::hint::black_box(view);
                n += 1;
                ControlFlow::<()>::Continue(())
            })
            .map(|_| n)
        });
        c.streamed += streamed.map_err(|e| format!("{}: {e}", test.name()))?;
    }
    Ok(())
}

/// The axiomatic path of one lookup: probe, and on a miss judge and
/// publish, each in its own span.
fn judge_cell(
    rec: &mut Recorder,
    c: &mut Counts,
    cache: &mut VerdictCache,
    ctx: &mut EvalContext,
    test: &LitmusTest,
    model: &dyn Model,
) -> Result<(Arc<ModelOutcomes>, bool), String> {
    let cfg = EnumConfig::default();
    c.lookups += 1;
    if let Some(v) = rec.time("axiom.cache.lookup", |_| cache.lookup(test, model, &cfg)) {
        c.hits += 1;
        return Ok((v, true));
    }
    let (verdict, _) = rec
        .time("axiom.judge", |_| {
            model_outcomes_counted(test, model, &cfg, ctx)
        })
        .map_err(|e| format!("{}: {e}", test.name()))?;
    c.judged += 1;
    c.judged_candidates += verdict.num_candidates as u64;
    c.judged_allowed += verdict.num_allowed as u64;
    let v = rec.time("axiom.cache.publish", |_| {
        cache.publish(test, model, &cfg, verdict)
    });
    Ok((v, false))
}

/// One row of a sweep report's `per_chip` table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChipRow {
    pub chip: String,
    pub cells: u64,
    pub runs: u64,
    pub witnessed_cells: u64,
    pub witnesses: u64,
    pub unsound_cells: u64,
}

/// What a traced sweep reports.
pub struct SweepTrace {
    pub recorder: Recorder,
    pub layers: BTreeMap<&'static str, f64>,
    pub wall_s: f64,
    pub cells: u64,
    pub unsound_cells: u64,
    pub total_runs: u64,
    pub total_witnesses: u64,
    pub witnessed_cells: u64,
    pub per_chip: Vec<ChipRow>,
}

/// The sweep, layer by layer: generate, load the model, judge every cell
/// through the verdict cache, compile and run the campaign, compare.
///
/// # Errors
///
/// On an unknown family or a failed enumeration or campaign.
pub fn trace_sweep(
    family: &str,
    chips: &[Chip],
    iterations: usize,
    seed: u64,
    workers: usize,
) -> Result<SweepTrace, String> {
    let gen_cfg = GenConfig::named(family).ok_or_else(|| format!("unknown family {family:?}"))?;
    let mut rec = Recorder::new();
    let mut c = Counts::default();
    let root = rec.enter("harness.sweep");
    let tests = rec.time("diy.generate", |_| generate(&gen_cfg));
    let model = rec.time("models.load", |_| weakgpu_models::ptx_model());
    let mut cache = VerdictCache::new();
    let mut ctx = EvalContext::new();
    stream_tests(&mut rec, &mut c, tests.iter())?;
    let mut verdicts = Vec::with_capacity(tests.len());
    for test in &tests {
        rec.time("axiom.cache.shape_key", |_| {
            std::hint::black_box(shape_key(test))
        });
        // One lookup per cell, as the sweep's workers do; the first
        // misses and the other chips hit.
        let mut verdict = None;
        for _ in chips {
            let (v, _) = judge_cell(&mut rec, &mut c, &mut cache, &mut ctx, test, &*model)?;
            verdict = Some(v);
        }
        verdicts.push(verdict.expect("at least one chip"));
    }

    let reports = rec.time("harness.campaign", |rec| {
        let cells: Vec<CellSpec> = tests
            .iter()
            .enumerate()
            .flat_map(|(i, test)| {
                let inc = default_incantations(test);
                chips.iter().map(move |&chip| {
                    CellSpec::new(test.clone(), chip)
                        .incantations(inc)
                        .iterations(iterations)
                        .seed(seed ^ (i as u64))
                })
            })
            .collect();
        let compiled = rec.time("sim.compile", |_| {
            cells
                .iter()
                .map(|cell| Simulator::compile(&cell.test, cell.chip).map(std::hint::black_box))
                .filter(Result::is_ok)
                .count() as u64
        });
        c.compiles += compiled;
        rec.time("sim.run", |_| {
            run_campaign(&cells, &CampaignConfig::with_parallelism(workers))
        })
    });
    let reports = reports.map_err(|e| e.to_string())?;

    let mut per_chip: Vec<ChipRow> = chips
        .iter()
        .map(|chip| ChipRow {
            chip: chip.short().to_owned(),
            ..ChipRow::default()
        })
        .collect();
    let unsound_cells = rec.time("harness.sweep.soundness", |_| {
        let mut unsound_cells = 0u64;
        for (ci, report) in reports.iter().enumerate() {
            let verdict = &verdicts[ci / chips.len()];
            let unsound: Vec<String> = report
                .histogram
                .outcomes()
                .filter(|o| !verdict.allowed_outcomes.contains(*o))
                .map(|o| o.to_string())
                .collect();
            let row = &mut per_chip[ci % chips.len()];
            row.cells += 1;
            row.runs += report.histogram.total();
            row.witnesses += report.witnesses;
            row.witnessed_cells += u64::from(report.witnesses > 0);
            if !unsound.is_empty() {
                row.unsound_cells += 1;
                unsound_cells += 1;
            }
        }
        unsound_cells
    });
    rec.exit(root);

    c.runs = per_chip.iter().map(|r| r.runs).sum();
    c.witnesses = per_chip.iter().map(|r| r.witnesses).sum();
    let layers = layer_metrics(&rec, "harness.sweep", &c);
    let wall_s = rec.spans()[root].duration_ns() as f64 / 1e9;
    Ok(SweepTrace {
        layers,
        wall_s,
        cells: reports.len() as u64,
        unsound_cells,
        total_runs: c.runs,
        total_witnesses: c.witnesses,
        witnessed_cells: per_chip.iter().map(|r| r.witnessed_cells).sum(),
        per_chip,
        recorder: rec,
    })
}

/// What a traced replay of the serve stream reports.
pub struct ServeTrace {
    pub recorder: Recorder,
    pub layers: BTreeMap<&'static str, f64>,
    pub wall_s: f64,
    /// In-process time of each request (the `harness.serve.request`
    /// span), in microseconds.
    pub request_us: Vec<f64>,
    /// The verdict and whether the cache answered, per request.
    pub answers: Vec<(Arc<ModelOutcomes>, bool)>,
}

/// The serve loop's work on `stream`, in process and in request order:
/// load the cache file, then per request parse the JSON, parse the
/// litmus source, key, probe and (on a miss) judge and publish; finally
/// save the cache. The candidate stream of each miss is timed after
/// that, outside the requests.
///
/// # Errors
///
/// On an unreadable cache file or a request the serve loop would
/// answer with an error.
pub fn trace_serve(
    stream: &Stream,
    cache_file: &Path,
    saved_file: &Path,
) -> Result<ServeTrace, String> {
    let mut rec = Recorder::new();
    let mut c = Counts::default();
    let root = rec.enter("harness.serve");
    let model = rec.time("models.load", |_| weakgpu_models::ptx_model());
    let mut cache = rec
        .time("axiom.persist.load", |_| persist::load(cache_file))
        .map_err(|e| format!("{}: {e}", cache_file.display()))?;
    let mut ctx = EvalContext::new();
    let mut request_us = Vec::with_capacity(stream.requests.len());
    let mut answers = Vec::with_capacity(stream.requests.len());
    for req in &stream.requests {
        let span = rec.enter("harness.serve.request");
        let request = rec
            .time("harness.json.parse", |_| json::parse(&req.line))
            .map_err(|e| format!("request JSON: {e}"))?;
        let src = request
            .get("litmus")
            .and_then(json::Json::as_str)
            .ok_or("request without litmus source")?;
        let test = rec
            .time("front.parse", |_| parser::parse(src))
            .map_err(|e| format!("litmus parse: {e}"))?;
        c.parses += 1;
        rec.time("axiom.cache.shape_key", |_| {
            std::hint::black_box(shape_key(&test))
        });
        answers.push(judge_cell(
            &mut rec, &mut c, &mut cache, &mut ctx, &test, &*model,
        )?);
        rec.exit(span);
        let s = &rec.spans()[span];
        request_us.push(s.duration_ns() as f64 / 1e3);
    }
    rec.time("axiom.persist.save", |_| persist::save(saved_file, &cache))
        .map_err(|e| format!("{}: {e}", saved_file.display()))?;
    let misses = stream
        .requests
        .iter()
        .filter(|r| r.class == Class::First)
        .map(|r| &stream.tests[r.slot]);
    stream_tests(&mut rec, &mut c, misses)?;
    rec.exit(root);
    c.persist_bytes = std::fs::metadata(saved_file).map(|m| m.len()).unwrap_or(0);
    let layers = layer_metrics(&rec, "harness.serve", &c);
    let wall_s = rec.spans()[root].duration_ns() as f64 / 1e9;
    Ok(ServeTrace {
        recorder: rec,
        layers,
        wall_s,
        request_us,
        answers,
    })
}

/// Self time by span name plus the raw spans, as written to the spans
/// file.
pub fn render_spans(rec: &Recorder) -> String {
    let mut out = rec.render();
    out.push_str("# self_s by span name\n");
    for (name, secs) in self_seconds_by_name(rec.spans()) {
        out.push_str(&format!("# self_s {name} {secs:.9}\n"));
    }
    out
}
