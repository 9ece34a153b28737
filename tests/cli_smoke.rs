//! Smoke tests for the `weakgpu` command-line binary: the entry points the
//! README advertises must keep exiting 0.

use std::process::Command;

use weakgpu::harness::json::{self, Json};

fn weakgpu() -> Command {
    Command::new(env!("CARGO_BIN_EXE_weakgpu"))
}

#[test]
fn help_exits_zero() {
    let out = weakgpu().arg("--help").output().unwrap();
    assert!(out.status.success(), "--help exited {:?}", out.status);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("usage:"), "help text missing usage: {text}");
}

#[test]
fn help_documents_the_verdict_walk() {
    // One verdict path, no arms to choose: the help text describes it
    // and the retired walk flags are unknown arguments.
    let out = weakgpu().arg("--help").output().unwrap();
    assert!(out.status.success(), "--help exited {:?}", out.status);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("candidate executions are streamed"), "{text}");
    assert!(text.contains("compiled plan"), "{text}");
    for flag in ["--pruned", "--batched", "--incremental"] {
        assert!(
            !text.contains(flag),
            "help text still offers {flag}: {text}"
        );
        let out = weakgpu().args(["sweep", flag]).output().unwrap();
        assert!(!out.status.success(), "sweep {flag} was accepted");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("unexpected argument"), "{err}");
    }
}

#[test]
fn sweep_jsonl_has_no_walk_counters() {
    // One tiny shard: exits 0, streams one JSONL record per cell, and
    // each record carries the cell's results alone: no cache counters,
    // no timing and no retired walk counters.
    let dir = std::env::temp_dir().join(format!("weakgpu-jsonl-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("sweep.json");
    let out = weakgpu()
        .args([
            "sweep",
            "--shard",
            "1/4",
            "--chips",
            "titan",
            "--iterations",
            "60",
            "--out",
        ])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "sweep exited {:?}", out.status);
    let jsonl = std::fs::read_to_string(out_path.with_extension("jsonl")).unwrap();
    assert!(jsonl.lines().count() > 0);
    for line in jsonl.lines() {
        let Json::Obj(fields) = json::parse(line).unwrap() else {
            panic!("not an object: {line}");
        };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "chip",
                "distinct",
                "index",
                "runs",
                "test",
                "unsound",
                "witnesses"
            ],
            "{line}"
        );
    }
    let report = std::fs::read_to_string(&out_path).unwrap();
    assert!(!report.contains("\"registers_refilled\""), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `weakgpu sweep` on the small family at 40 iterations over the
/// default chips with `--parallelism par`, and returns its report, its
/// JSONL records as parsed, and its stderr.
fn small_sweep(dir: &std::path::Path, par: usize) -> (Json, Vec<Json>, String) {
    let out_path = dir.join(format!("par-{par}.json"));
    let out = weakgpu()
        .args([
            "sweep",
            "--family",
            "small",
            "--iterations",
            "40",
            "--seed",
            "1",
        ])
        .args(["--parallelism", &par.to_string(), "--out"])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "sweep at {par} exited {:?}",
        out.status
    );
    let report = json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    let jsonl = std::fs::read_to_string(out_path.with_extension("jsonl")).unwrap();
    assert!(jsonl.ends_with('\n'), "the last record is cut short");
    let records = jsonl
        .lines()
        .map(|line| {
            let rec = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert!(matches!(rec, Json::Obj(_)), "{line}");
            rec
        })
        .collect();
    (report, records, String::from_utf8(out.stderr).unwrap())
}

#[test]
fn parallel_sweep_writes_every_record_once_and_whole() {
    // Workers format their records into their own buffers and write them
    // in blocks of whole lines: at 3 workers the JSONL must still hold
    // one whole record per cell, the same records as at 1 worker.
    let dir = std::env::temp_dir().join(format!("weakgpu-par-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let key = |rec: &Json| {
        let field = |k: &str| rec.get(k).unwrap_or_else(|| panic!("no {k}: {rec:?}"));
        (
            field("index").as_u64().unwrap(),
            field("chip").as_str().unwrap().to_owned(),
        )
    };
    let sorted = |mut records: Vec<Json>| {
        records.sort_by_key(key);
        records
    };
    let (report, serial, err) = small_sweep(&dir, 1);
    let cells = report.get("cells").unwrap().as_u64().unwrap();
    assert_eq!(serial.len() as u64, cells);
    assert!(err.contains("sweep: phases generate "), "{err}");
    let (report, parallel, err) = small_sweep(&dir, 3);
    assert_eq!(report.get("cells").unwrap().as_u64(), Some(cells));
    assert_eq!(parallel.len() as u64, cells, "one JSONL line per cell");
    let phases = err
        .lines()
        .find(|l| l.starts_with("sweep: phases"))
        .unwrap();
    assert!(phases.ends_with("s (3 workers)"), "{phases}");
    let family_line = err.find("sweep: family").unwrap();
    assert!(family_line < err.find("sweep: phases").unwrap(), "{err}");
    let mut pairs: Vec<(u64, String)> = parallel.iter().map(key).collect();
    pairs.sort_unstable();
    pairs.dedup();
    assert_eq!(pairs.len() as u64, cells, "some (index, chip) pair repeats");
    assert_eq!(sorted(parallel), sorted(serial));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corpus_listing_exits_zero() {
    let out = weakgpu().arg("corpus").output().unwrap();
    assert!(out.status.success(), "corpus exited {:?}", out.status);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("coRR"), "corpus listing missing coRR: {text}");
}

#[test]
fn check_runs_on_a_corpus_file() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/litmus/sb.litmus");
    let out = weakgpu()
        .args(["check", path, "--model", "ptx"])
        .output()
        .unwrap();
    assert!(out.status.success(), "check exited {:?}", out.status);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("Sometimes (allowed)"),
        "sb must be PTX-allowed: {text}"
    );
}

#[test]
fn check_judges_a_long_loop_free_thread() {
    // 300 instructions and no loop: the bound on backward jumps does not
    // cut the thread off, however long it is.
    let dir = std::env::temp_dir().join(format!("weakgpu-long-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("long.litmus");
    let mut src = String::from("GPU_PTX long\n{0:.reg .s32 r0}\nT0 ;\n");
    for _ in 0..299 {
        src.push_str("mov r0,1 ;\n");
    }
    src.push_str("st.cg [x],r0 ;\nScopeTree(grid(cta(warp T0)))\nx: global\nexists (x=1)\n");
    std::fs::write(&path, src).unwrap();
    let out = weakgpu()
        .arg("check")
        .arg(&path)
        .args(["--model", "ptx"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "check exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Sometimes (allowed)"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn show_prints_a_candidate_and_its_ptx_verdict() {
    let out = weakgpu().args(["show", "coRR"]).output().unwrap();
    assert!(out.status.success(), "show exited {:?}", out.status);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("candidate execution with outcome"), "{text}");
    assert!(text.contains("--rf-->"), "{text}");
    assert!(text.contains("PTX model: "), "{text}");
}

#[test]
fn show_dot_prints_a_digraph() {
    let out = weakgpu().args(["show", "coRR", "--dot"]).output().unwrap();
    assert!(out.status.success(), "show --dot exited {:?}", out.status);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("digraph \"coRR\" {"), "{text}");
    assert!(text.contains("subgraph cluster_t0"), "{text}");
    assert!(text.trim_end().ends_with('}'), "{text}");
}

#[test]
fn show_stops_at_the_first_witness_of_a_write_fan() {
    // Ten stores to one location have 10! coherence orders, over the
    // candidate budget; the first candidate already witnesses, and
    // `show` prints it without enumerating the rest.
    let dir = std::env::temp_dir().join(format!("weakgpu-show-fan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fan.litmus");
    let mut src = String::from("GPU_PTX fan\n{}\nT0 ;\n");
    for i in 1..=10 {
        src.push_str(&format!("st.cg [x],{i} ;\n"));
    }
    src.push_str("ScopeTree(grid(cta(warp T0)))\nx: global\nexists (x=10)\n");
    std::fs::write(&path, src).unwrap();
    let out = weakgpu().arg("show").arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "show exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("candidate execution with outcome x=10;"),
        "{text}"
    );
    assert!(text.contains("PTX model: allowed"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_accepts_every_listed_model_name() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/litmus/sb.litmus");
    for name in weakgpu::models::NAMES {
        let out = weakgpu()
            .args(["check", path, "--model", name])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "check --model {name} exited {:?}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // An unknown name is a usage error that lists every accepted name.
    let out = weakgpu()
        .args(["check", path, "--model", "ptx-native"])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "check --model ptx-native was accepted"
    );
    let err = String::from_utf8(out.stderr).unwrap();
    let first = err.lines().next().unwrap_or_default();
    assert!(first.contains("unknown model \"ptx-native\""), "{err}");
    for name in weakgpu::models::NAMES {
        assert!(first.contains(name), "{name} missing from: {first}");
    }
    // The usage lists the same names.
    assert!(
        err.contains(&format!("--model {}", weakgpu::models::NAMES.join("|"))),
        "{err}"
    );
}

#[test]
fn check_lints_every_shipped_source() {
    // Lint mode: every on-disk .litmus file plus (via --builtin) every
    // shipped .cat model source must be diagnostic-free.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("litmus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "litmus"))
        .collect();
    files.sort();
    assert!(files.len() >= 6);
    let out = weakgpu()
        .arg("check")
        .args(&files)
        .arg("--builtin")
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "check lint exited {:?}\n{stdout}",
        out.status
    );
    assert!(stdout.contains("sb.litmus: ok"), "{stdout}");
    assert!(stdout.contains("<builtin:ptx.cat>: ok"), "{stdout}");
}

#[test]
fn check_lint_reports_carets_and_exits_nonzero() {
    let dir = std::env::temp_dir().join(format!("weakgpu-lint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad_lit = dir.join("bad.litmus");
    std::fs::write(
        &bad_lit,
        "GPU_PTX bad\n{0:.reg .s32 r1}\nT0 ;\nfrobnicate r1 ;\nexists (0:r1=0)\n",
    )
    .unwrap();
    let bad_cat = dir.join("bad.cat");
    std::fs::write(&bad_cat, "let = po\nacyclic po rf as c\n").unwrap();
    let out = weakgpu()
        .arg("check")
        .arg(&bad_lit)
        .arg(&bad_cat)
        .output()
        .unwrap();
    assert!(!out.status.success(), "lint of bad files must fail");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Caret diagnostics with path:line:col and the offending line.
    assert!(stdout.contains("bad.litmus:4:1"), "{stdout}");
    assert!(stdout.contains("frobnicate r1 ;"), "{stdout}");
    assert!(stdout.contains('^'), "{stdout}");
    assert!(stdout.contains("bad.cat:1:5"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deep_inputs_fail_with_a_caret_not_a_stack_overflow() {
    // Each of these nests far past the readers' bound; before it, each
    // aborted the process on a stack overflow.
    let dir = std::env::temp_dir().join(format!("weakgpu-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sb = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("litmus/sb.litmus"),
    )
    .unwrap();
    let head = sb.trim_end().rsplit_once('\n').unwrap().0;
    let nested = |open: &str, inner: &str, close: &str, n: usize| {
        format!("{}{inner}{}", open.repeat(n), close.repeat(n))
    };
    let conjuncts = vec!["0:r2=0"; 100_000].join(" /\\ ");
    let inputs = [
        (
            "deep.cat",
            format!("let x = {}\n", nested("(", "po", ")", 5_000)),
        ),
        (
            "parens.litmus",
            format!("{head}\nexists {}\n", nested("(", "0:r2=0", ")", 10_000)),
        ),
        ("chain.litmus", format!("{head}\nexists ({conjuncts})\n")),
    ];
    for (name, text) in &inputs {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let out = weakgpu().arg("check").arg(&path).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}: {:?}", out.status);
        // Lint mode (`.cat`) prints to stdout, a single test to stderr.
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        assert!(
            text.contains("error: input nests deeper than 128 levels"),
            "{name}: {}",
            &text[..text.len().min(500)]
        );
        assert!(text.contains(&format!("{name}:")), "{name}");
    }
    // A sweep report nested as deep fails to merge, with the byte.
    let report = dir.join("deep.json");
    std::fs::write(&report, nested("[", "", "]", 100_000)).unwrap();
    let out = weakgpu()
        .args(["sweep", "--merge"])
        .arg(&report)
        .arg(&report)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("nests deeper than 128 levels at byte 128"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_exits_nonzero() {
    let out = weakgpu().arg("frobnicate").output().unwrap();
    assert!(!out.status.success(), "unknown command must fail");
}

#[test]
fn sweep_shard_and_merge_roundtrip() {
    // The CI pipeline in miniature: two shards at tiny scale, written to
    // JSON, then merged; the merged report must cover the whole family
    // and exit 0 (sound).
    let dir = std::env::temp_dir().join(format!("weakgpu-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut outs = Vec::new();
    for k in 1..=2 {
        let out_path = dir.join(format!("shard-{k}.json"));
        let out = weakgpu()
            .args([
                "sweep",
                "--shard",
                &format!("{k}/2"),
                "--chips",
                "titan",
                "--iterations",
                "60",
                "--out",
            ])
            .arg(&out_path)
            .output()
            .unwrap();
        assert!(out.status.success(), "shard {k} exited {:?}", out.status);
        // The streaming JSONL sits next to the aggregate.
        let jsonl = std::fs::read_to_string(out_path.with_extension("jsonl")).unwrap();
        assert!(!jsonl.trim().is_empty(), "shard {k} streamed no records");
        outs.push(out_path);
    }
    let merged_path = dir.join("merged.json");
    let out = weakgpu()
        .arg("sweep")
        .arg("--merge")
        .args(&outs)
        .arg("--out")
        .arg(&merged_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "merge exited {:?}", out.status);
    let merged = std::fs::read_to_string(&merged_path).unwrap();
    assert!(merged.contains("\"shard\": null"), "{merged}");
    assert!(merged.contains("\"unsound_cells\": 0"), "{merged}");

    // Merging with a shard missing must fail loudly.
    let out = weakgpu()
        .arg("sweep")
        .arg("--merge")
        .arg(&outs[0])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "merge with a missing shard must fail"
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("missing shard"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_answers_a_jsonl_batch_and_persists_its_cache() {
    use std::io::Write as _;

    let dir = std::env::temp_dir().join(format!("weakgpu-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("verdicts.wgc");
    let batch = concat!(
        "{\"id\": 1, \"test\": \"mp+inter-CTA\"}\n",
        "{\"id\": 2, \"test\": \"mp+inter-CTA\", \"model\": \"sc\"}\n",
        "{\"id\": 3, \"op\": \"shutdown\"}\n",
    );
    let run = |readonly: bool| {
        let mut cmd = weakgpu();
        cmd.arg("serve").arg("--cache-file").arg(&cache);
        if readonly {
            cmd.arg("--cache-readonly");
        }
        let mut child = cmd
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        child
            .stdin
            .take()
            .unwrap()
            .write_all(batch.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "serve exited {:?}", out.status);
        let stdout = String::from_utf8(out.stdout).unwrap();
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 3, "one response per request: {stdout}");
        // mp is PTX-allowed and SC-forbidden; shutdown is acknowledged.
        assert!(
            lines[0].contains("\"condition_witnessed\": true"),
            "{stdout}"
        );
        assert!(
            lines[1].contains("\"condition_witnessed\": false"),
            "{stdout}"
        );
        assert!(lines[2].contains("\"shutting_down\": true"), "{stdout}");
        stdout
    };

    let cold = run(false);
    assert!(cold.contains("\"cached\": false"), "{cold}");
    assert!(
        std::fs::read_to_string(&cache)
            .unwrap()
            .starts_with("weakgpu-cache/3"),
        "shutdown must flush a versioned cache file"
    );
    // Second daemon warm-starts from the flushed file: same verdicts,
    // no enumeration.
    let warm = run(true);
    assert!(!warm.contains("\"cached\": false"), "{warm}");
    assert!(warm.contains("\"cached\": true"), "{warm}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn misspelt_flags_get_a_did_you_mean_hint() {
    let out = weakgpu()
        .args(["sweep", "--cache-fiel", "x"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("did you mean \"--cache-file\"?"), "{err}");

    let out = weakgpu()
        .args(["serve", "--cache-redonly"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("did you mean \"--cache-readonly\"?"), "{err}");

    // `campaign` and `check` take positional names/paths, so only
    // dashed leftovers are treated as misspelt flags.
    let out = weakgpu()
        .args(["campaign", "--iterashuns", "10"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("did you mean \"--iterations\"?"), "{err}");

    let out = weakgpu().args(["check", "--bultin"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("did you mean \"--builtin\"?"), "{err}");

    let out = weakgpu()
        .args(["sweep", "--shrad", "1/2", "--family", "small"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("did you mean \"--shard\"?"), "{err}");
}

#[test]
fn usage_errors_print_the_usage() {
    // A malformed command line: an unknown command, a missing or bad
    // value, a misspelt or valueless flag.
    for args in [
        &["frobnicate"][..],
        &["run"],
        &["sweep", "--iterations", "many"],
        &["campaign", "--chips", "titan,gtx9000"],
        &["sweep", "--family", "paper", "--shrad", "1/2"],
        &["run", "coRR", "--iterations", "10", "--chp", "titan"],
        &["run", "coRR", "--iterations", "10", "--seed"],
        &["show", "coRR", "--dto"],
    ] {
        let out = weakgpu().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(
            err.contains("usage:"),
            "{args:?} must print the usage: {err}"
        );
    }
}

#[test]
fn runtime_failures_print_the_error_alone() {
    let dir = std::env::temp_dir().join(format!("weakgpu-fail-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A thread that loops forever: judging it exceeds the bound on
    // backward jumps after the command line was read correctly.
    let spin = dir.join("spin.litmus");
    std::fs::write(
        &spin,
        "GPU_PTX spin\n{0:.reg .s32 r0}\nT0 ;\nL: ;\nst.cg [x],1 ;\nbra L ;\n\
         ScopeTree(grid(cta(warp T0)))\nx: global\nexists (x=1)\n",
    )
    .unwrap();
    let missing = dir.join("missing.litmus");
    for args in [
        vec!["run".to_owned(), missing.display().to_string()],
        vec![
            "check".to_owned(),
            spin.display().to_string(),
            "--model".to_owned(),
            "ptx".to_owned(),
        ],
    ] {
        let out = weakgpu().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(!err.contains("usage:"), "{args:?} printed the usage: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
