//! Integration suite for the shared diagnostics frontend
//! (`weakgpu::front`): caret diagnostics with `path:line:col`,
//! multi-error recovery, golden parses of every shipped input,
//! printer/parser round-trips over the corpora and generated families,
//! and no-panic fuzzing of both grammars.

use proptest::prelude::*;

use weakgpu::axiom::cat::CatProgram;
use weakgpu::diy::{generate, GenConfig};
use weakgpu::front::{render_all, SourceFile};
use weakgpu::litmus::{corpus, corpus_extra, parser, LitmusTest};
use weakgpu::models::sources;

/// Every built-in test, printed back to its textual form.
fn corpus_texts() -> Vec<(String, String)> {
    corpus::all()
        .into_iter()
        .chain(corpus_extra::all_extra())
        .map(|t| (t.name().to_owned(), t.to_string()))
        .collect()
}

/// The shipped on-disk `.litmus` files.
fn litmus_files() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("litmus");
    let mut v = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "litmus") {
            v.push((
                path.display().to_string(),
                std::fs::read_to_string(&path).unwrap(),
            ));
        }
    }
    assert!(v.len() >= 6, "shipped corpus missing: {} files", v.len());
    v
}

// ------------------------------------------------ caret diagnostics

#[test]
fn malformed_litmus_yields_path_line_col_caret() {
    let src = "GPU_PTX bad\n{ 0:r1=x; }\nfrobnicate r1 ;\nexists (x == 1)\n";
    let file = SourceFile::new("tests/bad.litmus", src);
    let parsed = parser::parse_with_diagnostics(&file);
    assert!(parsed.has_errors());
    let rendered = render_all(&parsed.diagnostics, &file);
    assert!(rendered.contains("tests/bad.litmus:3:1"), "{rendered}");
    assert!(rendered.contains("frobnicate r1 ;"), "{rendered}");
    assert!(rendered.contains("^^^^^^^^^^"), "{rendered}");
}

#[test]
fn malformed_cat_yields_path_line_col_caret() {
    let src = "let com = rf | co\nacyclic (com | as oops\n";
    let file = SourceFile::new("models/bad.cat", src);
    let parsed = CatProgram::parse_with_diagnostics(&file);
    assert!(parsed.has_errors());
    let rendered = render_all(&parsed.diagnostics, &file);
    assert!(rendered.contains("models/bad.cat:2:"), "{rendered}");
    assert!(rendered.contains("acyclic (com | as oops"), "{rendered}");
    assert!(rendered.contains('^'), "{rendered}");
}

#[test]
fn multi_error_files_report_every_problem_in_one_pass() {
    // Two bad opcodes on one row, in different columns.
    let lit = "GPU_PTX multi\n\
        {0:.reg .s32 r1; 1:.reg .s32 r2}\n\
        T0 | T1 ;\n\
        frobnicate r1 | zorble r2 ;\n\
        ScopeTree(grid(cta(warp T0)(warp T1)))\n\
        exists (0:r1=0)\n";
    let file = SourceFile::new("multi.litmus", lit);
    let parsed = parser::parse_with_diagnostics(&file);
    let errors: Vec<_> = parsed.diagnostics.iter().filter(|d| d.is_error()).collect();
    assert!(errors.len() >= 2, "{:?}", parsed.diagnostics);

    // Three bad statements in one .cat file.
    let cat = "let = po\nacyclic po rf as c\nlet y = ~po\n";
    let file = SourceFile::new("multi.cat", cat);
    let parsed = CatProgram::parse_with_diagnostics(&file);
    let errors: Vec<_> = parsed.diagnostics.iter().filter(|d| d.is_error()).collect();
    assert!(errors.len() >= 2, "{:?}", parsed.diagnostics);
}

// ------------------------------------------------ golden parses

/// The committed parse of every built-in test, every shipped `.litmus`
/// file and every shipped `.cat` model: one `== kind name` header and
/// one `Debug` line per input. The file was recorded from the original
/// single-error parsers before they were retired, so matching it proves
/// the unified parser still builds the ASTs they built. Regenerate with
/// `WEAKGPU_BLESS=1 cargo test --test frontend_diagnostics` after an
/// intended AST change, and review the diff.
const GOLDEN: &str = "tests/golden/parse.txt";

fn golden_section(kind: &str, name: &str, ast: &dyn std::fmt::Debug, out: &mut String) {
    out.push_str(&format!("== {kind} {name}\n{ast:?}\n"));
}

fn golden_litmus() -> String {
    let mut texts = corpus_texts();
    let mut files: Vec<(String, String)> = litmus_files()
        .into_iter()
        .map(|(path, text)| {
            let file = std::path::Path::new(&path).file_name().unwrap();
            (format!("litmus/{}", file.to_string_lossy()), text)
        })
        .collect();
    files.sort();
    texts.extend(files);
    let mut out = String::new();
    for (name, text) in &texts {
        let test = parser::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        golden_section("litmus", name, &test, &mut out);
    }
    out
}

fn golden_cat() -> String {
    let mut out = String::new();
    for &(name, src) in sources::ALL {
        let program = CatProgram::parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        golden_section("cat", name, &program, &mut out);
    }
    out
}

/// Checks the `kind` entries of the golden file against today's
/// parses, or rewrites the whole file under `WEAKGPU_BLESS=1`.
fn check_golden(kind: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let got = golden_litmus() + &golden_cat();
    if std::env::var_os("WEAKGPU_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{GOLDEN}: {e}"));
    let header = format!("== {kind} ");
    let entries = |text: &str| -> Vec<(String, String)> {
        let lines: Vec<&str> = text.lines().collect();
        lines
            .chunks(2)
            .filter(|e| e[0].starts_with(&header))
            .map(|e| (e[0].to_owned(), e.get(1).copied().unwrap_or("").to_owned()))
            .collect()
    };
    let (want, got) = (entries(&want), entries(&got));
    assert_eq!(
        want.len(),
        got.len(),
        "{GOLDEN}: {kind} entry count differs"
    );
    for ((wh, w), (gh, g)) in want.iter().zip(&got) {
        assert_eq!(wh, gh, "{GOLDEN}: entries out of order");
        assert_eq!(w, g, "{GOLDEN}: {wh}: parse differs");
    }
}

#[test]
fn litmus_parses_match_the_golden_file_on_all_corpora() {
    check_golden("litmus");
}

#[test]
fn cat_parses_match_the_golden_file_on_shipped_models() {
    check_golden("cat");
}

// ------------------------------------------------ round-trips

fn assert_roundtrip(name: &str, test: &LitmusTest) {
    let printed = test.to_string();
    let reparsed = parser::parse(&printed)
        .unwrap_or_else(|e| panic!("{name}: reparse failed: {e}\n{printed}"));
    // Compare everything semantic; `doc` is builder-only metadata that the
    // textual format carries as a comment, which parsing (rightly) drops.
    assert_eq!(test.name(), reparsed.name(), "{name}");
    assert_eq!(test.threads(), reparsed.threads(), "{name}");
    assert_eq!(test.memory(), reparsed.memory(), "{name}");
    assert_eq!(test.scope_tree(), reparsed.scope_tree(), "{name}");
    assert_eq!(test.cond(), reparsed.cond(), "{name}");
    let init = |t: &LitmusTest| {
        t.reg_init()
            .map(|(tid, r, v)| (tid, r.clone(), v.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(init(test), init(&reparsed), "{name}");
    // The diagnostics entry point agrees and is silent on good input.
    let file = SourceFile::new(name, &printed);
    let parsed = parser::parse_with_diagnostics(&file);
    assert!(parsed.diagnostics.is_empty(), "{:?}", parsed.diagnostics);
}

#[test]
fn printer_parser_roundtrip_over_corpora() {
    for test in corpus::all().iter().chain(corpus_extra::all_extra().iter()) {
        assert_roundtrip(test.name(), test);
    }
}

#[test]
fn printer_parser_roundtrip_over_generated_family() {
    let family = generate(&GenConfig::named("small").unwrap());
    assert!(!family.is_empty());
    // A deterministic sample: every 7th test keeps the suite fast while
    // spanning the family's shapes.
    for test in family.iter().step_by(7) {
        assert_roundtrip(test.name(), test);
    }
}

#[test]
fn cat_display_roundtrip_over_shipped_models() {
    for &(name, src) in sources::ALL {
        let p = CatProgram::parse(src).unwrap();
        let reparsed = CatProgram::parse(&p.to_string())
            .unwrap_or_else(|e| panic!("{name}: reparse failed: {e}"));
        assert_eq!(p, reparsed, "{name}");
    }
}

// ------------------------------------------------ no-panic fuzzing

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary bytes never panic either frontend — they produce
    /// diagnostics (or succeed) instead.
    #[test]
    fn parsers_never_panic_on_arbitrary_bytes(bytes in prop::collection::vec(0u8..=255u8, 0..200)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let file = SourceFile::new("<fuzz>", &*text);
        let _ = parser::parse_with_diagnostics(&file);
        let _ = CatProgram::parse_with_diagnostics(&file);
        let _ = parser::parse(&text);
        let _ = CatProgram::parse(&text);
    }

    /// Mutated corpus text never panics the parser, and whenever the
    /// parser accepts a mutation, printing and re-parsing it gives the
    /// same test.
    #[test]
    fn mutated_corpus_never_panics_and_stays_equivalent(
        which in 0usize..6,
        edits in prop::collection::vec((0usize..4096, 0u8..=127u8), 1..8),
    ) {
        let texts = corpus_texts();
        let (_, base) = &texts[which % texts.len()];
        let mut bytes = base.clone().into_bytes();
        for &(pos, byte) in &edits {
            let i = pos % bytes.len();
            bytes[i] = byte;
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let file = SourceFile::new("<mutated>", &text);
        let _ = parser::parse_with_diagnostics(&file);
        if let Ok(test) = parser::parse(&text) {
            let reparsed = parser::parse(&test.to_string());
            prop_assert!(reparsed.is_ok(), "printed mutation rejects: {:?}\n{text}", reparsed.err());
            prop_assert_eq!(test, reparsed.unwrap());
        }
    }

    /// Same property for the `.cat` grammar: mutations never panic, and
    /// accepted mutations survive a print/parse round trip unchanged.
    #[test]
    fn mutated_cat_sources_never_panic_and_stay_equivalent(
        which in 0usize..6,
        edits in prop::collection::vec((0usize..1024, 0u8..=127u8), 1..8),
    ) {
        let (_, base) = sources::ALL[which % sources::ALL.len()];
        let mut bytes = base.as_bytes().to_vec();
        for &(pos, byte) in &edits {
            let i = pos % bytes.len();
            bytes[i] = byte;
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let file = SourceFile::new("<mutated>", &text);
        let _ = CatProgram::parse_with_diagnostics(&file);
        if let Ok(program) = CatProgram::parse(&text) {
            let reparsed = CatProgram::parse(&program.to_string());
            prop_assert!(reparsed.is_ok(), "printed mutation rejects: {:?}\n{text}", reparsed.err());
            prop_assert_eq!(program, reparsed.unwrap());
        }
    }
}
