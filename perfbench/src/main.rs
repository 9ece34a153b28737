//! `perfbench` — the compiled half of the benchmark (`run.py` is the
//! other half). Subcommands print one JSON object per line:
//!
//! ```text
//! perfbench serve --weakgpu BIN --cache FILE --work-dir DIR --seed N --requests K --seconds S
//! perfbench trace --workload sweep-validate|sweep-judge --family small|paper --iterations N
//!                 --workers N --seed N [--chips SHORT,..] --spans-out FILE
//! perfbench trace --workload serve-mixed --weakgpu BIN --cache FILE --work-dir DIR --seed N
//!                 --requests K --spans-out FILE
//! ```

mod client;
mod requests;
mod spans;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use weakgpu_axiom::enumerate::{model_outcomes_with, EnumConfig};
use weakgpu_axiom::plan::EvalContext;
use weakgpu_diy::{generate, GenConfig};
use weakgpu_harness::json;
use weakgpu_sim::chip::Chip;

use client::{run_session, Expected, Session};
use requests::{Class, Stream};

/// Minimum sessions per `serve` run, however short `--seconds` is.
const MIN_SESSIONS: usize = 3;

struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key.to_owned(), value.clone());
        }
        Ok(Args(map))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("--{key} must be a number"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.str(key).map(PathBuf::from)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("serve") => Args::parse(&raw[1..]).and_then(|a| cmd_serve(&a)),
        Some("trace") => Args::parse(&raw[1..]).and_then(|a| cmd_trace(&a)),
        _ => Err("usage: perfbench serve|trace --flag value ...".to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The `serve-mixed` stream: paper-family tests, warm where the small
/// family has their shape.
fn serve_stream(seed: u64, requests: usize) -> Stream {
    let paper = generate(&GenConfig::paper());
    let small = generate(&GenConfig::small());
    requests::generate(seed, &paper, &small, requests)
}

/// The in-process verdict of every test the stream references.
fn expected_verdicts(stream: &Stream) -> Result<Vec<Expected>, String> {
    let model = weakgpu_models::ptx_model();
    let mut ctx = EvalContext::new();
    stream
        .tests
        .iter()
        .map(|t| {
            model_outcomes_with(t, &*model, &EnumConfig::default(), &mut ctx)
                .map(|v| Expected::new(t.name(), &v))
                .map_err(|e| format!("{}: {e}", t.name()))
        })
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn stream_json(stream: &Stream) -> String {
    let bytes = stream.bytes();
    format!(
        "{{\"requests\": {}, \"first\": {}, \"repeat\": {}, \"warm\": {}, \"bytes\": {}, \"fnv1a\": \"{:016x}\"}}",
        stream.requests.len(),
        stream.count(Class::First),
        stream.count(Class::Repeat),
        stream.count(Class::Warm),
        bytes.len(),
        fnv1a(bytes.as_bytes())
    )
}

fn num_list(values: impl Iterator<Item = f64>) -> String {
    let items: Vec<String> = values.map(|v| format!("{v:.3}")).collect();
    format!("[{}]", items.join(","))
}

fn session_json(s: &Session) -> String {
    let mut out = format!(
        "{{\"setup_s\": {}, \"wall_s\": {}, \"peak_rss_kb\": {}, \"attempted\": {}, \"failed\": {}, \"first_error\": {}",
        s.setup_s,
        s.wall_s,
        s.peak_rss_kb,
        s.attempted,
        s.failed,
        s.first_error.as_deref().map_or_else(|| "null".to_owned(), json::escape)
    );
    for class in Class::ALL {
        let lat = s
            .latencies_us
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, us)| *us);
        let _ = write!(out, ", \"latency_us_{}\": {}", class.name(), num_list(lat));
    }
    out.push('}');
    out
}

fn cmd_serve(a: &Args) -> Result<(), String> {
    let weakgpu = a.path("weakgpu")?;
    let cache = a.path("cache")?;
    let work_cache = a.path("work-dir")?.join("serve-session.wgc");
    let stream = serve_stream(a.num("seed")?, a.num("requests")?);
    let expected = expected_verdicts(&stream)?;
    println!("{{\"stream\": {}}}", stream_json(&stream));
    let seconds: f64 = a.num("seconds")?;
    let start = Instant::now();
    let mut sessions = 0;
    while sessions < MIN_SESSIONS || start.elapsed().as_secs_f64() < seconds {
        let s = run_session(&weakgpu, &cache, &work_cache, &stream, &expected)?;
        println!("{{\"session\": {}}}", session_json(&s));
        sessions += 1;
    }
    Ok(())
}

fn chips_arg(a: &Args) -> Result<Vec<Chip>, String> {
    match a.0.get("chips") {
        None => Ok(Chip::NVIDIA_TABLED.to_vec()),
        Some(list) => list
            .split(',')
            .map(|s| {
                Chip::ALL
                    .into_iter()
                    .find(|c| c.short().eq_ignore_ascii_case(s))
                    .ok_or_else(|| format!("unknown chip {s:?}"))
            })
            .collect(),
    }
}

fn layers_json(layers: &BTreeMap<&'static str, f64>) -> String {
    let items: Vec<String> = trace::LAYER_METRICS
        .iter()
        .map(|name| format!("{}: {}", json::escape(name), layers[name]))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn write_spans(path: &Path, rec: &spans::Recorder) -> Result<(), String> {
    std::fs::write(path, trace::render_spans(rec)).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_trace(a: &Args) -> Result<(), String> {
    let spans_out = a.path("spans-out")?;
    match a.str("workload")? {
        "sweep-validate" | "sweep-judge" => {
            let chips = chips_arg(a)?;
            let t = trace::trace_sweep(
                a.str("family")?,
                &chips,
                a.num("iterations")?,
                a.num("seed")?,
                a.num("workers")?,
            )?;
            write_spans(&spans_out, &t.recorder)?;
            let rows: Vec<String> = t
                .per_chip
                .iter()
                .map(|r| {
                    format!(
                        "{{\"chip\": {}, \"cells\": {}, \"runs\": {}, \"witnessed_cells\": {}, \"witnesses\": {}, \"unsound_cells\": {}}}",
                        json::escape(&r.chip),
                        r.cells,
                        r.runs,
                        r.witnessed_cells,
                        r.witnesses,
                        r.unsound_cells
                    )
                })
                .collect();
            println!(
                "{{\"wall_s\": {}, \"attempted\": {}, \"failed\": {}, \"totals\": {{\"cells\": {}, \"unsound_cells\": {}, \"total_runs\": {}, \"total_witnesses\": {}, \"witnessed_cells\": {}, \"per_chip\": [{}]}}, \"layers\": {}}}",
                t.wall_s,
                t.cells,
                t.unsound_cells,
                t.cells,
                t.unsound_cells,
                t.total_runs,
                t.total_witnesses,
                t.witnessed_cells,
                rows.join(", "),
                layers_json(&t.layers)
            );
            Ok(())
        }
        "serve-mixed" => {
            let work_dir = a.path("work-dir")?;
            let cache = a.path("cache")?;
            let stream = serve_stream(a.num("seed")?, a.num("requests")?);
            // The replay runs first, in a process that has not loaded
            // the model yet, so `models.load_s` is the cold load.
            let replay_cache = work_dir.join("serve-replay.wgc");
            std::fs::copy(&cache, &replay_cache).map_err(|e| format!("copy cache: {e}"))?;
            let t = trace::trace_serve(
                &stream,
                &replay_cache,
                &work_dir.join("serve-replay-saved.wgc"),
            )?;
            write_spans(&spans_out, &t.recorder)?;
            let expected = expected_verdicts(&stream)?;
            let mut failed = 0u64;
            let mut first_error: Option<String> = None;
            for (i, (req, (verdict, cached))) in stream.requests.iter().zip(&t.answers).enumerate()
            {
                let got = Expected::new(stream.tests[req.slot].name(), verdict);
                if got != expected[req.slot] || *cached != req.class.cached() {
                    failed += 1;
                    first_error.get_or_insert(format!("replayed request {i} disagrees"));
                }
            }
            let s = run_session(
                &a.path("weakgpu")?,
                &cache,
                &work_dir.join("serve-session.wgc"),
                &stream,
                &expected,
            )?;
            println!(
                "{{\"wall_s\": {}, \"attempted\": {}, \"failed\": {}, \"first_error\": {}, \"stream\": {}, \"session\": {}, \"classes\": [{}], \"traced_us\": {}, \"layers\": {}}}",
                t.wall_s,
                stream.requests.len(),
                failed,
                first_error.as_deref().map_or_else(|| "null".to_owned(), json::escape),
                stream_json(&stream),
                session_json(&s),
                stream
                    .requests
                    .iter()
                    .map(|r| json::escape(r.class.name()))
                    .collect::<Vec<_>>()
                    .join(","),
                num_list(t.request_us.iter().copied()),
                layers_json(&t.layers)
            );
            Ok(())
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}
