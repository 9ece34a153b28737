//! The on-disk `.litmus` corpus parses, runs, and gets the expected model
//! verdicts — exercising the same file-based workflow as the paper's
//! `litmus`/`herd` tools (and the `weakgpu` CLI).

use std::path::Path;

use weakgpu::axiom::enumerate::{model_outcomes, EnumConfig};
use weakgpu::harness::{run_test, CampaignConfig, CellSpec};
use weakgpu::litmus::parser;
use weakgpu::models::{operational_baseline, ptx_model};
use weakgpu::sim::chip::{Chip, Incantations};

fn load(name: &str) -> weakgpu::litmus::LitmusTest {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("litmus")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    parser::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

#[test]
fn all_files_parse_and_roundtrip() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("litmus");
    let mut count = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "litmus") {
            continue;
        }
        count += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let test = parser::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let reparsed = parser::parse(&test.to_string()).unwrap();
        assert_eq!(test.threads(), reparsed.threads(), "{path:?}");
        assert_eq!(test.cond(), reparsed.cond(), "{path:?}");
    }
    assert!(
        count >= 6,
        "expected the shipped corpus, found {count} files"
    );
}

#[test]
fn file_corpus_model_verdicts() {
    let cfg = EnumConfig::default();
    let ptx = ptx_model();
    let expectations = [
        ("sb.litmus", true),
        ("corr.litmus", true),
        ("lb+membar.ctas.litmus", true),
        ("cas-sl.litmus", true),
        ("mp+fences.litmus", false),
        ("iriw+membar.gls.litmus", false),
    ];
    for (file, allowed) in expectations {
        let test = load(file);
        let verdict = model_outcomes(&test, &ptx, &cfg).unwrap();
        assert_eq!(
            verdict.condition_witnessed, allowed,
            "{file}: PTX verdict mismatch"
        );
    }
    // The Sec. 6 file distinguishes the models.
    let lb = load("lb+membar.ctas.litmus");
    let op = model_outcomes(&lb, &operational_baseline(), &cfg).unwrap();
    assert!(!op.condition_witnessed);
}

#[test]
fn file_corpus_runs_on_the_simulator() {
    let test = load("sb.litmus");
    let run = |chip| {
        let cell = CellSpec::new(test.clone(), chip)
            .iterations(20_000)
            .incantations(Incantations::all_on()) // intra-CTA file
            .seed(0xf11e);
        run_test(&cell, &CampaignConfig::default()).unwrap()
    };
    let report = run(Chip::GtxTitan);
    assert!(report.witnesses > 0, "sb must be observable on the Titan");
    let strong = run(Chip::Gtx280);
    assert_eq!(strong.witnesses, 0);
}
