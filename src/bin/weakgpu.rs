//! `weakgpu` — a command-line front end in the spirit of the paper's
//! `litmus` (run tests against "hardware") and `herd` (simulate a model)
//! tools.
//!
//! ```text
//! weakgpu run <file.litmus> [--chip SHORT] [--iterations N] [--seed N] [--parallelism N]
//! weakgpu campaign [NAME|FILE ...] [--chips SHORT,..] [--iterations N] [--seed N] [--parallelism N]
//! weakgpu sweep [--family small|paper] [--shard K/N] [--out FILE.json] [--chips ..] [..]
//! weakgpu sweep --merge a.json b.json ... [--out FILE.json]
//! weakgpu serve [--cache-file FILE.wgc] [--cache-readonly] [--model NAME]
//! weakgpu check <file.litmus> [--model NAME]
//! weakgpu check <file ...> [--builtin]
//! weakgpu show <file.litmus> [--dot]
//! weakgpu corpus [NAME]
//! ```
//!
//! Parse errors are reported as caret diagnostics with the offending
//! source line, via the shared [`weakgpu::front`] infrastructure. A
//! malformed command line prints its error and then the usage; a command
//! that fails while it runs prints its error alone. Either exits
//! non-zero.

use std::io::Write as _;
use std::ops::ControlFlow;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use weakgpu::axiom::cat::CatProgram;
use weakgpu::axiom::enumerate::{for_each_execution, model_outcomes, Candidate, EnumConfig};
use weakgpu::axiom::render;
use weakgpu::axiom::{ExecutionView, Model, Plan};
use weakgpu::diy::{generate_parallel, GenConfig};
use weakgpu::front::{has_errors, render_all, Diagnostic, SourceFile};
use weakgpu::harness::campaign::{run_campaign_with, worker_count, CampaignConfig, CellSpec};
use weakgpu::harness::report::ObsTable;
use weakgpu::harness::runner::run_test;
use weakgpu::harness::sweep::{
    run_sweep_with, CellRecord, RecordSink, Shard, SweepConfig, SweepReport,
};
use weakgpu::litmus::{corpus, corpus_extra, parser, LitmusTest};
use weakgpu::models;
use weakgpu::sim::chip::Chip;

/// The usage text; `MODELS` stands for the model names.
const USAGE: &str = "usage:
  weakgpu run <file.litmus> [--chip SHORT] [--iterations N] [--seed N] [--parallelism N]
  weakgpu campaign [NAME|FILE ...] [--chips SHORT[,SHORT...]] [--iterations N] [--seed N] [--parallelism N]
  weakgpu sweep [--family small|paper] [--shard K/N] [--out FILE.json]
                [--chips SHORT[,SHORT...]] [--iterations N] [--seed N] [--parallelism N]
                [--cache-file FILE.wgc] [--cache-readonly]
  weakgpu sweep --merge FILE.json FILE.json ... [--out FILE.json]
  weakgpu serve [--cache-file FILE.wgc] [--cache-readonly] [--model NAME]
  weakgpu check <file.litmus> [--model MODELS]
  weakgpu check <file ...> [--builtin]
  weakgpu show <file.litmus> [--dot]
  weakgpu corpus [NAME]

`run` histograms one test; `campaign` schedules many (test, chip) cells
over one shared worker pool, streaming per-cell results as they finish
(default: the whole built-in corpus on the paper's tabled chips).

`sweep` is the paper's Sec. 5.4 validation as a subsystem: a generated
family (--family small|paper) runs on the tabled Nvidia chips and every
observation is checked against the PTX model. --shard K/N runs the K-th
of N deterministic, disjoint slices of the family (per-test seeds depend
only on the test's canonical index, so shards recombine exactly);
--out FILE.json writes the aggregate report there and streams one JSONL
record per cell to FILE.jsonl. --merge recombines shard reports, failing
on a missing shard or any model-forbidden observation. Each test shape
is judged once: its candidate executions are streamed one at a time,
and each candidate is judged by the model's compiled plan.
--cache-file FILE.wgc warm-starts the verdict cache from a
persisted `weakgpu-cache/3` file (created by an earlier sweep or serve;
older `/1` and `/2` files are rejected, not converted) and writes the
updated cache back afterwards; --cache-readonly loads without writing
back, and fails if the file is missing rather than silently running
cold. Exit status is non-zero if any observation is unsound.

`serve` is a long-running verdict daemon: each stdin line is one JSON
request ({\"op\": \"verdict\"|\"stats\"|\"shutdown\", \"id\": .., \"test\":
NAME, \"litmus\": SOURCE, \"model\": NAME}), each stdout line the
matching JSON response. All requests share one verdict cache;
--cache-file warm-starts it and persists it on shutdown/EOF (unless
--cache-readonly). --model picks the default model (ptx).

`check` with one .litmus file judges its condition against a model.
With several files, any .cat file, or --builtin it is a linter instead:
each file is parsed with the diagnostics frontend, every error is shown
as a path:line:col caret diagnostic, and the exit status is non-zero if
any file has errors. --builtin also lints the shipped model sources.

--parallelism N pins the worker-thread count (default: all cores). It
affects wall-clock time only: for a fixed --seed the full histogram is
bit-identical on any machine at any parallelism.";

/// [`USAGE`] with the model names filled in.
fn usage_text() -> String {
    USAGE.replace("MODELS", &models::NAMES.join("|"))
}

/// Why a command failed.
enum CliError {
    /// The command line is malformed: an unknown command, or a flag or
    /// value that is missing or bad. The usage follows the message.
    Usage(String),
    /// The command failed while it ran. The message stands alone.
    Failed(String),
}

/// Errors of running a command, which are runtime failures unless the
/// caller marks them as usage errors.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failed(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Failed(msg.to_owned())
    }
}

type CliResult = Result<(), CliError>;

/// A usage error.
fn usage<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(msg.into()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", usage_text());
            ExitCode::FAILURE
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> CliResult {
    // `--help` wins anywhere on the line, so `weakgpu run --help` works too.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage_text());
        return Ok(());
    }
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("show") => cmd_show(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("help") => {
            println!("{}", usage_text());
            Ok(())
        }
        Some(other) => usage(format!("unknown command {other:?}")),
        None => usage("missing command"),
    }
}

fn load(path: &str) -> Result<LitmusTest, String> {
    // Corpus names are accepted anywhere a file is.
    if let Some(test) = corpus_by_name(path) {
        return Ok(test);
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = SourceFile::new(path, &text);
    match parser::parse_with_diagnostics(&file).into_result() {
        Ok(test) => Ok(test),
        Err(diags) => {
            // Full caret diagnostics (with the offending source lines)
            // go to stderr; the returned error stays a one-liner.
            eprintln!("{}", render_all(&diags, &file));
            let n = diags.iter().filter(|d| d.is_error()).count();
            Err(format!(
                "{path}: {n} parse error{}",
                if n == 1 { "" } else { "s" }
            ))
        }
    }
}

fn corpus_by_name(name: &str) -> Option<LitmusTest> {
    all_corpus().into_iter().find(|t| t.name() == name)
}

fn all_corpus() -> Vec<LitmusTest> {
    let mut v = corpus::all();
    v.extend(corpus_extra::all_extra());
    v
}

fn chip_by_short(short: &str) -> Result<Chip, CliError> {
    match Chip::ALL
        .into_iter()
        .find(|c| c.short().eq_ignore_ascii_case(short))
    {
        Some(chip) => Ok(chip),
        None => usage(format!(
            "unknown chip {short:?} (expected one of {})",
            Chip::ALL.map(|c| c.short()).join(", ")
        )),
    }
}

/// The chips of a comma-separated `--chips` value.
fn chips_by_short(list: &str) -> Result<Vec<Chip>, CliError> {
    list.split(',').map(chip_by_short).collect()
}

/// Takes `flag` and its value out of `args`; a flag without a value is a
/// usage error.
fn take_opt(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return usage(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

/// Takes `flag`'s value and parses it; a malformed value is a usage
/// error.
fn take_parsed<T>(args: &mut Vec<String>, flag: &str) -> Result<Option<T>, CliError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match take_opt(args, flag)? {
        Some(s) => match s.parse() {
            Ok(v) => Ok(Some(v)),
            Err(e) => usage(format!("{flag} {s:?}: {e}")),
        },
        None => Ok(None),
    }
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

/// Classic dynamic-programming edit distance, for "did you mean" hints.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = diag + usize::from(ca != cb);
            diag = row[j + 1];
            row[j + 1] = sub.min(diag + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

/// Usage error for a leftover argument, naming the closest valid flag
/// when the argument looks like a misspelt one.
fn unexpected_arg<T>(cmd: &str, arg: &str, flags: &[&str]) -> Result<T, CliError> {
    let nearest = flags
        .iter()
        .map(|f| (edit_distance(arg, f), *f))
        .min()
        .filter(|&(d, f)| arg.starts_with('-') && d <= f.len() / 2);
    usage(match nearest {
        Some((_, flag)) => format!("{cmd}: unexpected argument {arg:?} (did you mean {flag:?}?)"),
        None => format!("{cmd}: unexpected argument {arg:?}"),
    })
}

/// The one litmus file `cmd` takes, once its flags are taken: a missing
/// file, a leftover flag or a second file is a usage error.
fn sole_file<'a>(cmd: &str, args: &'a [String], flags: &[&str]) -> Result<&'a String, CliError> {
    if let Some(extra) = args.iter().find(|a| a.starts_with('-')) {
        return unexpected_arg(cmd, extra, flags);
    }
    match args {
        [path] => Ok(path),
        [] => usage(format!("{cmd}: missing litmus file")),
        [_, extra, ..] => unexpected_arg(cmd, extra, flags),
    }
}

/// The flag vocabulary of `run`, for "did you mean" hints.
const RUN_FLAGS: &[&str] = &["--chip", "--iterations", "--seed", "--parallelism"];

fn cmd_run(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let chip = match take_opt(&mut args, "--chip")? {
        Some(s) => Some(chip_by_short(&s)?),
        None => None,
    };
    let iterations = take_parsed(&mut args, "--iterations")?.unwrap_or(100_000);
    let seed = take_parsed(&mut args, "--seed")?.unwrap_or(0x5eed);
    let parallelism = take_parsed(&mut args, "--parallelism")?;
    let path = sole_file("run", &args, RUN_FLAGS)?;
    let test = load(path)?;
    let inc = weakgpu::harness::default_incantations(&test);
    let chips: Vec<Chip> = match chip {
        Some(c) => vec![c],
        None => Chip::TABLED.to_vec(),
    };
    println!(
        "Test {} ({} runs, incantations {inc})",
        test.name(),
        iterations
    );
    println!("{}\n", test.cond());
    for chip in chips {
        let cell = CellSpec::new(test.clone(), chip)
            .incantations(inc)
            .iterations(iterations)
            .seed(seed);
        let report = run_test(&cell, &CampaignConfig { parallelism }).map_err(|e| e.to_string())?;
        println!("{} ({}):", chip, chip.profile().arch);
        print!("{}", report.histogram);
        println!(
            "{} of {} runs witness the condition ({}/100k)\n",
            report.witnesses,
            iterations,
            report.obs_per_100k()
        );
    }
    Ok(())
}

/// The flag vocabulary of `campaign`, for "did you mean" hints.
const CAMPAIGN_FLAGS: &[&str] = &["--chips", "--iterations", "--seed", "--parallelism"];

fn cmd_campaign(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let chips: Vec<Chip> = match take_opt(&mut args, "--chips")? {
        Some(list) => chips_by_short(&list)?,
        None => Chip::TABLED.to_vec(),
    };
    let iterations = take_parsed(&mut args, "--iterations")?.unwrap_or(10_000);
    let seed = take_parsed(&mut args, "--seed")?.unwrap_or(0x5eed);
    let parallelism = take_parsed(&mut args, "--parallelism")?;
    // Leftovers are test names/files; anything still dashed is a
    // misspelt flag that would otherwise fail as a missing file.
    if let Some(extra) = args.iter().find(|a| a.starts_with('-')) {
        return unexpected_arg("campaign", extra, CAMPAIGN_FLAGS);
    }

    let tests: Vec<LitmusTest> = if args.is_empty() {
        all_corpus()
    } else {
        args.iter().map(|a| load(a)).collect::<Result<_, _>>()?
    };

    // Test-major cells: one row per test, one column per chip.
    let cells: Vec<CellSpec> = tests
        .iter()
        .flat_map(|test| {
            let inc = weakgpu::harness::default_incantations(test);
            chips.iter().map(move |&chip| {
                CellSpec::new(test.clone(), chip)
                    .incantations(inc)
                    .iterations(iterations)
                    .seed(seed)
            })
        })
        .collect();

    println!(
        "Campaign: {} tests × {} chips = {} cells × {} runs (seed {seed})",
        tests.len(),
        chips.len(),
        cells.len(),
        iterations
    );
    let obs: Vec<AtomicU64> = cells.iter().map(|_| AtomicU64::new(0)).collect();
    run_campaign_with(&cells, &CampaignConfig { parallelism }, |ci, report| {
        // Streamed as cells complete (possibly out of order).
        println!(
            "  done {:<28} {:<8} {:>8} witnesses ({}/100k)",
            report.test,
            report.chip.short(),
            report.witnesses,
            report.obs_per_100k()
        );
        obs[ci].store(report.obs_per_100k(), Ordering::Relaxed);
        Ok(())
    })
    .map_err(|e| e.to_string())?;

    // Summary grid in deterministic test-major order.
    let mut table = ObsTable::new("obs/100k", chips.iter().map(|c| c.short().to_owned()));
    for (t, test) in tests.iter().enumerate() {
        table.row(
            test.name().to_owned(),
            obs[t * chips.len()..(t + 1) * chips.len()]
                .iter()
                .map(|o| o.load(Ordering::Relaxed)),
        );
    }
    println!("\n{table}");
    Ok(())
}

/// The flag vocabulary of `sweep`, for "did you mean" hints.
const SWEEP_FLAGS: &[&str] = &[
    "--family",
    "--shard",
    "--out",
    "--chips",
    "--iterations",
    "--seed",
    "--parallelism",
    "--cache-file",
    "--cache-readonly",
    "--merge",
];

fn cmd_sweep(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    if take_flag(&mut args, "--merge") {
        return cmd_sweep_merge(args);
    }
    let family_name = take_opt(&mut args, "--family")?.unwrap_or_else(|| "small".into());
    let Some(gen_cfg) = GenConfig::named(&family_name) else {
        return usage(format!(
            "unknown family {family_name:?} (expected one of {})",
            GenConfig::FAMILY_NAMES.join(", ")
        ));
    };
    let shard = match take_opt(&mut args, "--shard")? {
        Some(s) => Some(Shard::parse(&s).map_err(CliError::Usage)?),
        None => None,
    };
    let out = take_opt(&mut args, "--out")?;
    let chips: Vec<Chip> = match take_opt(&mut args, "--chips")? {
        Some(list) => chips_by_short(&list)?,
        None => Chip::NVIDIA_TABLED.to_vec(),
    };
    let iterations = take_parsed(&mut args, "--iterations")?.unwrap_or(1_000);
    let seed = take_parsed(&mut args, "--seed")?.unwrap_or(0x5eed);
    let parallelism = take_parsed(&mut args, "--parallelism")?;
    let cache_file = take_opt(&mut args, "--cache-file")?.map(std::path::PathBuf::from);
    let cache_readonly = take_flag(&mut args, "--cache-readonly");
    if let Some(extra) = args.first() {
        return unexpected_arg("sweep", extra, SWEEP_FLAGS);
    }

    let workers = worker_count(parallelism, usize::MAX);
    let started = Instant::now();
    let tests = generate_parallel(&gen_cfg, workers);
    let generate_s = started.elapsed().as_secs_f64();
    let cfg = SweepConfig {
        family: family_name.clone(),
        shard,
        chips,
        iterations,
        seed,
        parallelism,
        cache_file,
        cache_readonly,
    };
    let shard_tests = (0..tests.len())
        .filter(|&i| shard.is_none_or(|sh| sh.selects(i)))
        .count();
    let total_cells = shard_tests * cfg.chips.len();
    eprintln!(
        "sweep: family {family_name} ({} tests{}), {} chips × {iterations} runs = {total_cells} cells (seed {seed})",
        tests.len(),
        match shard {
            Some(sh) => format!(", shard {sh}: {shard_tests} tests"),
            None => String::new(),
        },
        cfg.chips.len(),
    );

    let jsonl = match &out {
        Some(path) => {
            let jsonl_path = std::path::Path::new(path).with_extension("jsonl");
            let file = std::fs::File::create(&jsonl_path)
                .map_err(|e| format!("{}: {e}", jsonl_path.display()))?;
            eprintln!("sweep: streaming cell records to {}", jsonl_path.display());
            Some(Mutex::new(file))
        }
        None => None,
    };
    let done = AtomicUsize::new(0);
    let write_error = OnceLock::new();
    let run = run_sweep_with(
        &tests,
        &cfg,
        CellLines {
            jsonl: jsonl.as_ref(),
            done: &done,
            total: total_cells,
            error: &write_error,
        },
    )
    .map_err(|e| e.to_string())?;
    let reported = Instant::now();
    if let Some(e) = write_error.into_inner() {
        return Err(CliError::Failed(format!("sweep: cell records: {e}")));
    }
    let report = &run.report;
    if let Some(path) = &out {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("sweep: wrote aggregate report to {path}");
    }
    print_sweep_summary(report, false);
    let p = &run.phases;
    eprintln!(
        "sweep: phases generate {generate_s:.3} fingerprint {:.3} judge {:.3} run {:.3} report {:.3} s ({workers} workers)",
        p.fingerprint.as_secs_f64(),
        p.judge.as_secs_f64(),
        p.run.as_secs_f64(),
        (p.report + reported.elapsed()).as_secs_f64(),
    );
    let result = sound_or_failed(report);
    // The process exits next: the family and the verdict cache are left
    // to it, rather than freed one allocation at a time.
    std::mem::forget(tests);
    std::mem::forget(run);
    result
}

/// Cell records as `weakgpu sweep` takes them: each worker formats its
/// records as JSONL lines into its own buffer and writes them, and
/// counts them towards the progress lines, a block of whole lines at a
/// time.
struct CellLines<'w> {
    /// The JSONL file, if the run has `--out`.
    jsonl: Option<&'w Mutex<std::fs::File>>,
    /// Cells counted so far.
    done: &'w AtomicUsize,
    total: usize,
    /// The first failed write; later blocks are still attempted.
    error: &'w OnceLock<std::io::Error>,
}

/// One worker's records not yet written.
struct LineBlock {
    lines: String,
    cells: usize,
}

impl CellLines<'_> {
    /// Cells per block: ~50 KB of JSONL.
    const BLOCK_CELLS: usize = 256;

    fn write(&self, block: &mut LineBlock) {
        if let Some(file) = self.jsonl {
            let mut file = file.lock().expect("no poisoned locks");
            if let Err(e) = file.write_all(block.lines.as_bytes()) {
                let _ = self.error.set(e);
            }
        }
        let before = self.done.fetch_add(block.cells, Ordering::Relaxed);
        for k in before / 2_000 + 1..=(before + block.cells) / 2_000 {
            eprintln!("  … {}/{} cells", k * 2_000, self.total);
        }
        block.lines.clear();
        block.cells = 0;
    }
}

impl<'a> RecordSink<'a> for CellLines<'_> {
    type Buffer = LineBlock;

    fn buffer(&self) -> LineBlock {
        LineBlock {
            lines: String::new(),
            cells: 0,
        }
    }

    fn record(&self, block: &mut LineBlock, record: &CellRecord<'a>) {
        if self.jsonl.is_some() {
            record.write_jsonl(&mut block.lines);
        }
        block.cells += 1;
        if block.cells == Self::BLOCK_CELLS {
            self.write(block);
        }
    }

    fn finish(&self, mut block: LineBlock) {
        self.write(&mut block);
    }
}

/// A runtime failure when any cell of `report` observed an outcome the
/// model forbids.
fn sound_or_failed(report: &SweepReport) -> CliResult {
    if report.is_sound() {
        Ok(())
    } else {
        Err(CliError::Failed(format!(
            "{} cells observed model-forbidden outcomes",
            report.unsound_cells()
        )))
    }
}

fn cmd_sweep_merge(args: Vec<String>) -> CliResult {
    let mut args = args;
    let out = take_opt(&mut args, "--out")?;
    if args.is_empty() {
        return usage("sweep --merge: no report files given");
    }
    let reports: Vec<SweepReport> = args
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            SweepReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect::<Result<_, String>>()?;
    let merged = SweepReport::merge(&reports).map_err(|e| e.to_string())?;
    match &out {
        Some(path) => {
            std::fs::write(path, merged.to_json()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("sweep: wrote merged report to {path}");
            print_sweep_summary(&merged, false);
        }
        None => {
            // Without --out the JSON document IS stdout (so
            // `... --merge a.json b.json > merged.json` stays parseable);
            // the human-readable summary goes to stderr.
            print!("{}", merged.to_json());
            print_sweep_summary(&merged, true);
        }
    }
    sound_or_failed(&merged)
}

/// The flag vocabulary of `serve`, for "did you mean" hints.
const SERVE_FLAGS: &[&str] = &["--cache-file", "--cache-readonly", "--model"];

fn cmd_serve(args: &[String]) -> CliResult {
    use weakgpu::axiom::persist;
    use weakgpu::harness::serve::{serve, ServeConfig};

    let mut args = args.to_vec();
    let cache_file = take_opt(&mut args, "--cache-file")?.map(std::path::PathBuf::from);
    let cache_readonly = take_flag(&mut args, "--cache-readonly");
    let default_model = take_opt(&mut args, "--model")?.unwrap_or_else(|| "ptx".into());
    if let Some(extra) = args.first() {
        return unexpected_arg("serve", extra, SERVE_FLAGS);
    }
    // Fail on a bad default model before reading any requests.
    if let Err(e) = models::by_name(&default_model) {
        return usage(format!("serve: {e}"));
    }

    let mut cache = persist::open(cache_file.as_deref(), cache_readonly)
        .map_err(|e| format!("serve: verdict cache: {e}"))?;
    eprintln!(
        "serve: ready ({} cached verdicts, default model {default_model}); one JSON request per line",
        cache.len()
    );
    let cfg = ServeConfig { default_model };
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let summary =
        serve(stdin.lock(), stdout.lock(), &cfg, &mut cache).map_err(|e| format!("serve: {e}"))?;
    // Graceful shutdown flushes the cache for the next warm start.
    if let Some(path) = &cache_file {
        if !cache_readonly {
            persist::save(path, &cache).map_err(|e| format!("serve: verdict cache: {e}"))?;
        }
    }
    eprintln!(
        "serve: {} requests ({} errors), {}; cache {} entries, {} hits ({} warm) / {} misses",
        summary.requests,
        summary.errors,
        if summary.shutdown_requested {
            "shutdown requested"
        } else {
            "input closed"
        },
        cache.len(),
        cache.hits(),
        cache.warm_hits(),
        cache.misses()
    );
    Ok(())
}

/// Renders the human-readable summary to stdout, or to stderr when
/// stdout is carrying the JSON report itself.
fn print_sweep_summary(report: &SweepReport, to_stderr: bool) {
    let mut text = String::new();
    let mut line = |s: String| {
        text.push_str(&s);
        text.push('\n');
    };
    line(format!(
        "\n== sweep: family {} ({} tests), {} ==",
        report.family,
        report.family_size,
        match report.shard {
            Some(sh) => format!("shard {sh} ({} tests)", report.tests_run),
            None => format!("{} tests run", report.tests_run),
        }
    ));
    let mut table = ObsTable::new("validation", report.chips.iter().cloned());
    table.row("cells", report.per_chip.iter().map(|c| c.cells));
    table.row("runs", report.per_chip.iter().map(|c| c.runs));
    table.row(
        "witnessed cells",
        report.per_chip.iter().map(|c| c.witnessed_cells),
    );
    table.row("witnesses", report.per_chip.iter().map(|c| c.witnesses));
    table.row(
        "unsound cells",
        report.per_chip.iter().map(|c| c.unsound_cells),
    );
    line(format!("{table}"));
    line(format!(
        "{} of {} tests witnessed their weak outcome on >=1 chip; {} total runs",
        report.weak_tests,
        report.tests_run,
        report.total_runs()
    ));
    line(format!(
        "verdict cache: {} entries ({} preloaded), {} hits ({} warm) / {} misses, {:.1} ms enumerating",
        report.cache.entries,
        report.cache.warm_entries,
        report.cache.hits,
        report.cache.warm_hits,
        report.cache.misses,
        report.cache.enum_micros as f64 / 1_000.0
    ));
    if report.is_sound() {
        line("RESULT: sound — every observation is allowed by the PTX model".to_owned());
    } else {
        line(format!(
            "RESULT: UNSOUND — {} cells observed forbidden outcomes:",
            report.unsound_cells()
        ));
        for u in report.unsound.iter().take(20) {
            line(format!("  {} on {}: {:?}", u.test, u.chip, u.outcomes));
        }
    }
    if to_stderr {
        eprint!("{text}");
    } else {
        print!("{text}");
    }
}

/// The flag vocabulary of `check`, for "did you mean" hints.
const CHECK_FLAGS: &[&str] = &["--builtin", "--model"];

fn cmd_check(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let builtin = take_flag(&mut args, "--builtin");
    let model_opt = take_opt(&mut args, "--model")?;
    // Leftovers are file paths; anything still dashed is a misspelt
    // flag that would otherwise fail as a missing file.
    if let Some(extra) = args.iter().find(|a| a.starts_with('-')) {
        return unexpected_arg("check", extra, CHECK_FLAGS);
    }
    // Lint mode: several files, any .cat file, or --builtin.
    if builtin || args.len() > 1 || args.iter().any(|a| a.ends_with(".cat")) {
        if model_opt.is_some() {
            return usage("check: --model only applies to a single-file verdict");
        }
        return lint(&args, builtin);
    }
    let model = models::by_name(model_opt.as_deref().unwrap_or("ptx")).map_err(CliError::Usage)?;
    let path = sole_file("check", &args, CHECK_FLAGS)?;
    let test = load(path)?;
    let verdict =
        model_outcomes(&test, model.as_ref(), &EnumConfig::default()).map_err(|e| e.to_string())?;
    println!("Test {}  Model {}", test.name(), model.name());
    println!(
        "{} candidate executions, {} allowed",
        verdict.num_candidates, verdict.num_allowed
    );
    println!("allowed outcomes:");
    for o in &verdict.allowed_outcomes {
        let mark = if test.cond().witnessed_by(o) {
            "  *>"
        } else {
            "    "
        };
        println!("{mark} {o}");
    }
    println!(
        "condition {}: {}",
        test.cond(),
        if verdict.condition_witnessed {
            "Sometimes (allowed)"
        } else {
            "Never (forbidden)"
        }
    );
    Ok(())
}

/// Diagnostics-only `check`: parses every file (and, with `builtin`, the
/// shipped model sources), printing caret diagnostics for every problem
/// found; exits non-zero if any error diagnostic was produced.
fn lint(paths: &[String], builtin: bool) -> CliResult {
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        sources.push((path.clone(), text));
    }
    if builtin {
        for &(name, src) in weakgpu::models::sources::ALL {
            sources.push((format!("<builtin:{name}.cat>"), src.to_owned()));
        }
    }
    if sources.is_empty() {
        return usage("check: no files to lint");
    }
    let mut errors = 0usize;
    for (name, text) in &sources {
        let file = SourceFile::new(name, text);
        let diags = if name.ends_with(".cat") || name.ends_with(".cat>") {
            lint_cat(&file)
        } else {
            parser::parse_with_diagnostics(&file).diagnostics
        };
        if diags.is_empty() {
            println!("{name}: ok");
        } else {
            println!("{}", render_all(&diags, &file));
        }
        errors += diags.iter().filter(|d| d.is_error()).count();
    }
    if errors > 0 {
        return Err(CliError::Failed(format!(
            "check: {errors} error{} in {} file{}",
            if errors == 1 { "" } else { "s" },
            sources.len(),
            if sources.len() == 1 { "" } else { "s" }
        )));
    }
    println!("check: {} file(s) ok", sources.len());
    Ok(())
}

/// Lints one `.cat` source: parse diagnostics, then (when the parse was
/// clean) compile-stage problems reported as unspanned diagnostics.
fn lint_cat(file: &SourceFile) -> Vec<Diagnostic> {
    let parsed = CatProgram::parse_with_diagnostics(file);
    let mut diags = parsed.diagnostics;
    if !has_errors(&diags) {
        if let Some(program) = parsed.value {
            if let Err(e) = Plan::compile(&program) {
                diags.push(Diagnostic::error(e.message));
            }
        }
    }
    diags
}

fn cmd_show(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let want_dot = take_flag(&mut args, "--dot");
    let path = sole_file("show", &args, &["--dot"])?;
    let test = load(path)?;
    // Show the first witnessing candidate if one exists, else the first
    // candidate. The stream stops at the one it shows and materialises
    // only that one.
    let cfg = EnumConfig::default();
    let materialise = |view: &ExecutionView<'_>| Candidate {
        execution: view.to_execution(),
        outcome: view.outcome(),
    };
    let mut vals = Vec::new();
    let witness = for_each_execution(&test, &cfg, |view| {
        view.fill_observed(&mut vals);
        if view.layout().witnessed_by(&vals) {
            ControlFlow::Break(materialise(view))
        } else {
            ControlFlow::Continue(())
        }
    })
    .map_err(|e| e.to_string())?;
    let cand = match witness {
        Some(cand) => cand,
        None => for_each_execution(&test, &cfg, |view| ControlFlow::Break(materialise(view)))
            .map_err(|e| e.to_string())?
            .ok_or("no candidate executions")?,
    };
    println!("{test}\n");
    if want_dot {
        println!("{}", render::dot(&cand.execution, test.name()));
    } else {
        println!("candidate execution with outcome {}:", cand.outcome);
        println!("{}", render::ascii(&cand.execution));
        let ptx = models::ptx_model();
        let reasons = render::explain_verdict(&ptx, &cand.execution);
        if reasons.is_empty() {
            println!("PTX model: allowed");
        } else {
            println!("PTX model: forbidden —");
            for r in reasons {
                println!("  {r}");
            }
        }
    }
    Ok(())
}

fn cmd_corpus(args: &[String]) -> CliResult {
    match args.first() {
        None => {
            for t in all_corpus() {
                println!("{:<28} {}", t.name(), t.doc());
            }
            Ok(())
        }
        Some(name) => {
            let t = corpus_by_name(name).ok_or_else(|| format!("no corpus test {name:?}"))?;
            println!("{t}");
            Ok(())
        }
    }
}
