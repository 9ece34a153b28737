//! `weakgpu serve` — a long-running verdict daemon (JSONL over stdio).
//!
//! The axiomatic verdict of a litmus shape never changes, the models are
//! compiled once per process ([`weakgpu_models`]'s lazy registry), and
//! the verdict cache ([`VerdictCache`]) answers repeats in a hash lookup
//! — everything a stateless checker-as-a-service needs. This module is the serving
//! loop: each input line is one JSON request, each output line one JSON
//! response, so a client can stream arbitrarily large batches through a
//! pipe without framing beyond newlines.
//!
//! # Protocol (`weakgpu-serve/1`)
//!
//! Requests are JSON objects, one per line:
//!
//! | field     | meaning                                                    |
//! |-----------|------------------------------------------------------------|
//! | `op`      | `"verdict"` (default), `"stats"`, or `"shutdown"`          |
//! | `id`      | scalar echoed back verbatim, for correlating responses     |
//! | `test`    | corpus test name, or inline litmus source if it has a `\n` |
//! | `litmus`  | inline litmus source (always parsed, never name-looked-up) |
//! | `model`   | model name (default from [`ServeConfig::default_model`])   |
//!
//! Model names are those of [`weakgpu_models::NAMES`].
//!
//! Unknown fields are ignored, so requests written for older versions
//! (which could carry `pruning` or `incremental` flags) are still served.
//!
//! A `verdict` response carries `ok`, the resolved `test`/`model` names,
//! `num_candidates`, `num_allowed`, `condition_witnessed`, the rendered
//! `allowed_outcomes`, and `cached` (whether the cache answered without
//! enumerating). Malformed lines (not UTF-8, or not JSON), unknown names
//! and requests nested deeper than [`weakgpu_front::MAX_DEPTH`] (the
//! JSON itself, or an inline test's condition) produce `{"ok": false,
//! "error": …}` responses — the daemon itself keeps serving; only I/O
//! failure stops it. `stats` reports the session
//! cache's counters; `shutdown` answers then ends the loop, and EOF on
//! the input is an implicit shutdown. The caller persists the cache
//! afterwards ([`weakgpu_axiom::persist`]) — that is the flush-on-
//! graceful-shutdown contract the CLI front end implements.
//!
//! Requests are answered one at a time: each one is a
//! [`VerdictCache::lookup`], or on a miss a judgement that
//! [`VerdictCache::publish`] stores for the requests after it.

use std::io::{BufRead, Write};

use weakgpu_axiom::cache::VerdictCache;
use weakgpu_axiom::enumerate::{model_outcomes_with, EnumConfig};
use weakgpu_axiom::plan::EvalContext;
use weakgpu_axiom::Model;
use weakgpu_front::{render_all, SourceFile};
use weakgpu_litmus::{corpus, corpus_extra, parser, LitmusTest};

use crate::json::{self, Json};

/// Version tag of the request/response protocol.
pub const PROTOCOL: &str = "weakgpu-serve/1";

/// Configuration of one serving session.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ServeConfig {
    /// Model judging requests that name none (`"ptx"` for the paper's
    /// validation semantics).
    pub default_model: String,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            default_model: "ptx".to_owned(),
        }
    }
}

/// What one serving session did, for the operator's log line.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServeSummary {
    /// Input lines processed (blank lines are skipped, not counted).
    pub requests: u64,
    /// Requests answered `ok: false`.
    pub errors: u64,
    /// `true` when a `shutdown` request ended the loop (rather than
    /// EOF).
    pub shutdown_requested: bool,
}

/// Runs the serving loop over `input`/`output` with one cache.
///
/// Every request is answered on its own line, in request order. The
/// function returns at EOF or after answering a `shutdown` request; the
/// caller owns persisting `cache` afterwards.
///
/// # Errors
///
/// Only transport failures (reading `input`, writing `output`) abort
/// the loop; per-request problems become error *responses*.
pub fn serve<R: BufRead, W: Write>(
    mut input: R,
    mut output: W,
    cfg: &ServeConfig,
    cache: &mut VerdictCache,
) -> std::io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    let mut ctx = EvalContext::new();
    // Built on the first by-name request, reused for the session — a
    // daemon must not rebuild the corpus per request.
    let corpus_index = std::cell::OnceCell::new();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if input.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        // The line without its `\n` or `\r\n`, as `BufRead::lines` gives it.
        let bytes = match buf.strip_suffix(b"\n") {
            Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
            None => &buf,
        };
        let (response, shutdown) = match std::str::from_utf8(bytes) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => answer(line, cfg, cache, &mut ctx, &corpus_index),
            Err(e) => (
                error_response("null", &format!("bad request: not UTF-8 ({e})")),
                false,
            ),
        };
        summary.requests += 1;
        if response.contains("\"ok\": false") {
            summary.errors += 1;
        }
        writeln!(output, "{response}")?;
        output.flush()?;
        if shutdown {
            summary.shutdown_requested = true;
            break;
        }
    }
    Ok(summary)
}

/// Lazily-built name → test index shared by a session's requests.
type CorpusIndex = std::cell::OnceCell<std::collections::HashMap<String, LitmusTest>>;

/// Answers one request line; the bool asks the loop to stop.
fn answer(
    line: &str,
    cfg: &ServeConfig,
    cache: &mut VerdictCache,
    ctx: &mut EvalContext,
    corpus_index: &CorpusIndex,
) -> (String, bool) {
    let request = match json::parse(line) {
        Ok(v @ Json::Obj(_)) => v,
        Ok(_) => {
            return (
                error_response("null", "request must be a JSON object"),
                false,
            )
        }
        Err(e) => {
            return (
                error_response("null", &format!("bad request JSON: {e}")),
                false,
            )
        }
    };
    let id = match request.get("id") {
        None => "null".to_owned(),
        Some(Json::Null) => "null".to_owned(),
        Some(Json::UInt(n)) => n.to_string(),
        Some(Json::Num(n)) => n.to_string(),
        Some(Json::Str(s)) => json::escape(s),
        Some(Json::Bool(b)) => b.to_string(),
        Some(_) => return (error_response("null", "id must be a scalar"), false),
    };
    match request
        .get("op")
        .and_then(Json::as_str)
        .unwrap_or("verdict")
    {
        "verdict" => (
            verdict_response(&id, &request, cfg, cache, ctx, corpus_index),
            false,
        ),
        "stats" => (
            format!(
                "{{\"id\": {id}, \"ok\": true, \"protocol\": {}, \"entries\": {}, \"hits\": {}, \"misses\": {}, \"warm_entries\": {}, \"warm_hits\": {}}}",
                json::escape(PROTOCOL),
                cache.len(),
                cache.hits(),
                cache.misses(),
                cache.warm_entries(),
                cache.warm_hits()
            ),
            false,
        ),
        "shutdown" => (
            format!("{{\"id\": {id}, \"ok\": true, \"shutting_down\": true}}"),
            true,
        ),
        other => (
            error_response(
                &id,
                &format!("unknown op {other:?} (expected verdict, stats or shutdown)"),
            ),
            false,
        ),
    }
}

fn error_response(id: &str, message: &str) -> String {
    format!(
        "{{\"id\": {id}, \"ok\": false, \"error\": {}}}",
        json::escape(message)
    )
}

fn verdict_response(
    id: &str,
    request: &Json,
    cfg: &ServeConfig,
    cache: &mut VerdictCache,
    ctx: &mut EvalContext,
    corpus_index: &CorpusIndex,
) -> String {
    let test = match resolve_test(request, corpus_index) {
        Ok(t) => t,
        Err(msg) => return error_response(id, &msg),
    };
    let model_name = request
        .get("model")
        .and_then(Json::as_str)
        .unwrap_or(&cfg.default_model);
    let model = match weakgpu_models::by_name(model_name) {
        Ok(m) => m,
        Err(msg) => return error_response(id, &msg),
    };
    let enum_cfg = EnumConfig::default();
    let (verdict, cached) = match cache.lookup(&test, &model, &enum_cfg) {
        Some(hit) => (hit, true),
        None => match model_outcomes_with(&test, &model, &enum_cfg, ctx) {
            Ok(fresh) => (cache.publish(&test, &model, &enum_cfg, fresh), false),
            Err(e) => return error_response(id, &format!("enumeration failed: {e}")),
        },
    };
    let outcomes = verdict
        .allowed_outcomes
        .iter()
        .map(|o| json::escape(&o.to_string()))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"id\": {id}, \"ok\": true, \"test\": {}, \"model\": {}, \"num_candidates\": {}, \"num_allowed\": {}, \"condition_witnessed\": {}, \"allowed_outcomes\": [{outcomes}], \"cached\": {cached}}}",
        json::escape(test.name()),
        json::escape(model.name()),
        verdict.num_candidates,
        verdict.num_allowed,
        verdict.condition_witnessed
    )
}

/// Resolves the request's test: inline `litmus` source wins, then
/// `test` as a corpus name (or inline source if it contains a newline
/// — no test *name* does).
fn resolve_test(request: &Json, corpus_index: &CorpusIndex) -> Result<LitmusTest, String> {
    if let Some(src) = request.get("litmus").and_then(Json::as_str) {
        return parse_litmus(src);
    }
    let name = request
        .get("test")
        .and_then(Json::as_str)
        .ok_or("request needs a \"test\" (corpus name) or \"litmus\" (source) string")?;
    if name.contains('\n') {
        return parse_litmus(name);
    }
    corpus_index
        .get_or_init(|| {
            corpus::all()
                .into_iter()
                .chain(corpus_extra::all_extra())
                .map(|t| (t.name().to_owned(), t))
                .collect()
        })
        .get(name)
        .cloned()
        .ok_or_else(|| format!("no corpus test named {name:?} (try \"litmus\" with inline source)"))
}

fn parse_litmus(src: &str) -> Result<LitmusTest, String> {
    let file = SourceFile::new("<request>", src);
    parser::parse_with_diagnostics(&file)
        .into_result()
        .map_err(|diags| format!("litmus parse failed: {}", render_all(&diags, &file)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn run(lines: &str, cfg: &ServeConfig) -> (ServeSummary, Vec<Json>) {
        run_with_cache(lines, cfg, &mut VerdictCache::new())
    }

    fn run_with_cache(
        lines: &str,
        cfg: &ServeConfig,
        cache: &mut VerdictCache,
    ) -> (ServeSummary, Vec<Json>) {
        let mut out = Vec::new();
        let summary = serve(Cursor::new(lines), &mut out, cfg, cache).unwrap();
        let text = String::from_utf8(out).unwrap();
        let responses = text
            .lines()
            .map(|l| json::parse(l).expect("every response line is valid JSON"))
            .collect();
        (summary, responses)
    }

    #[test]
    fn answers_a_batch_of_verdict_requests() {
        let batch = r#"{"id": 1, "test": "mp+inter-CTA"}
{"id": 2, "test": "sb+inter-CTA", "model": "sc"}
{"id": 3, "test": "mp+inter-CTA", "pruning": true, "incremental": true}
"#;
        let (summary, rs) = run(batch, &ServeConfig::default());
        assert_eq!((summary.requests, summary.errors), (3, 0));
        assert!(!summary.shutdown_requested, "EOF is not a shutdown op");
        assert_eq!(rs.len(), 3);
        // mp is PTX-allowed (weak), sb is SC-forbidden.
        assert_eq!(rs[0].get("id").unwrap().as_u64(), Some(1));
        assert_eq!(rs[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(rs[0].get("condition_witnessed"), Some(&Json::Bool(true)));
        assert_eq!(rs[0].get("cached"), Some(&Json::Bool(false)));
        assert_eq!(rs[1].get("condition_witnessed"), Some(&Json::Bool(false)));
        assert_eq!(rs[1].get("model").unwrap().as_str(), Some("sc"));
        // Retired walk flags are ignored: the same verdict, from the
        // cache.
        assert_eq!(rs[2].get("num_candidates"), rs[0].get("num_candidates"));
        assert_eq!(rs[2].get("cached"), Some(&Json::Bool(true)));
        assert!(
            !rs[0]
                .get("allowed_outcomes")
                .unwrap()
                .as_arr()
                .unwrap()
                .is_empty(),
            "mp has allowed outcomes"
        );
    }

    #[test]
    fn repeats_hit_the_shared_cache() {
        let batch = "{\"id\": 1, \"test\": \"mp+inter-CTA\"}\n{\"id\": 2, \"test\": \"mp+inter-CTA\"}\n{\"op\": \"stats\", \"id\": 3}\n";
        let (_, rs) = run(batch, &ServeConfig::default());
        assert_eq!(rs[0].get("cached"), Some(&Json::Bool(false)));
        assert_eq!(rs[1].get("cached"), Some(&Json::Bool(true)));
        assert_eq!(rs[2].get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(rs[2].get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(rs[2].get("entries").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn inline_litmus_source_is_judged() {
        let src = "GPU_PTX inline-mp\nT0 | T1 ;\nst.cg [x],1 | ld.cg r1,[y] ;\nst.cg [y],1 | ld.cg r2,[x] ;\nx: global, y: global\nexists (1:r1=1 /\\ 1:r2=0)\n";
        let request = format!(
            "{{\"id\": 9, \"litmus\": {}, \"model\": \"sc\"}}\n",
            json::escape(src)
        );
        let (summary, rs) = run(&request, &ServeConfig::default());
        assert_eq!(summary.errors, 0, "{rs:?}");
        assert_eq!(rs[0].get("test").unwrap().as_str(), Some("inline-mp"));
        // SC forbids message-passing reordering.
        assert_eq!(rs[0].get("condition_witnessed"), Some(&Json::Bool(false)));
    }

    #[test]
    fn bad_requests_answer_errors_and_keep_serving() {
        let batch = "not json at all\n{\"id\": 1}\n{\"id\": 2, \"test\": \"no-such-test\"}\n{\"id\": 3, \"test\": \"mp+inter-CTA\", \"model\": \"m6502\"}\n{\"id\": 4, \"op\": \"frobnicate\"}\n{\"id\": 5, \"test\": \"mp+inter-CTA\"}\n";
        let (summary, rs) = run(batch, &ServeConfig::default());
        assert_eq!((summary.requests, summary.errors), (6, 5));
        for r in &rs[..5] {
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r:?}");
        }
        assert!(rs[3]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("ptx"));
        // The daemon survived every error and answered the last request.
        assert_eq!(rs[5].get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn deep_requests_answer_errors_and_keep_serving() {
        // A JSON line nested 100,000 deep, then an inline test whose
        // condition chains 100,000 conjuncts: each is answered with an
        // error at the depth bound, and the session goes on.
        let deep_json = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let conjuncts = vec!["0:r1=0"; 100_000].join(" /\\ ");
        let src = format!("GPU_PTX deep\nT0 ;\nld.cg r1,[x] ;\nexists ({conjuncts})\n");
        let batch = format!(
            "{deep_json}\n{{\"id\": 2, \"litmus\": {}}}\n{{\"id\": 3, \"test\": \"coRR\"}}\n",
            json::escape(&src)
        );
        let (summary, rs) = run(&batch, &ServeConfig::default());
        assert_eq!((summary.requests, summary.errors), (3, 2));
        assert_eq!(rs.len(), 3);
        for r in &rs[..2] {
            let error = r.get("error").and_then(Json::as_str).unwrap_or_default();
            assert!(error.contains("nests deeper than"), "{r:?}");
        }
        assert_eq!(rs[2].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(rs[2].get("test").unwrap().as_str(), Some("coRR"));
    }

    #[test]
    fn a_line_that_is_not_utf8_answers_an_error_and_keeps_serving() {
        let mut out = Vec::new();
        let batch = &b"\xff\n{\"id\": 2, \"test\": \"coRR\"}\n"[..];
        let cfg = ServeConfig::default();
        let summary = serve(batch, &mut out, &cfg, &mut VerdictCache::new()).unwrap();
        assert_eq!((summary.requests, summary.errors), (2, 1));
        let rs: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| json::parse(l).unwrap())
            .collect();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].get("id"), Some(&Json::Null));
        let error = rs[0]
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(error.starts_with("bad request: not UTF-8"), "{error}");
        assert_eq!(rs[1].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(rs[1].get("id").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn shutdown_op_ends_the_loop_early() {
        let batch = "{\"id\": 1, \"op\": \"shutdown\"}\n{\"id\": 2, \"test\": \"mp+inter-CTA\"}\n";
        let (summary, rs) = run(batch, &ServeConfig::default());
        assert!(summary.shutdown_requested);
        assert_eq!(summary.requests, 1, "nothing after shutdown is read");
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].get("shutting_down"), Some(&Json::Bool(true)));
    }

    #[test]
    fn warm_cache_answers_without_enumerating() {
        // Session 1 judges and its cache is persisted; session 2 starts
        // from the restored cache and its first lookup is a warm hit.
        let mut cache = VerdictCache::new();
        let (_, rs) = run_with_cache(
            "{\"id\": 1, \"test\": \"mp+inter-CTA\"}\n",
            &ServeConfig::default(),
            &mut cache,
        );
        assert_eq!(rs[0].get("cached"), Some(&Json::Bool(false)));
        let rendered = weakgpu_axiom::persist::render(&cache);
        let mut warm = weakgpu_axiom::persist::parse(&rendered).unwrap();
        let (_, rs) = run_with_cache(
            "{\"id\": 1, \"test\": \"mp+inter-CTA\"}\n{\"op\": \"stats\", \"id\": 2}\n",
            &ServeConfig::default(),
            &mut warm,
        );
        assert_eq!(rs[0].get("cached"), Some(&Json::Bool(true)));
        assert_eq!(rs[1].get("misses").unwrap().as_u64(), Some(0));
        assert_eq!(rs[1].get("warm_hits").unwrap().as_u64(), Some(1));
        assert_eq!(rs[1].get("warm_entries").unwrap().as_u64(), Some(1));
    }
}
