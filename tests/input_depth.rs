//! The nesting bound of the readers (`weakgpu::front::MAX_DEPTH`): every
//! input family exactly at the bound parses, prints, re-parses, is
//! judged and is dropped inside a 2 MB thread; one level past it is a
//! caret diagnostic at the token that crossed; and every shipped or
//! generated input stays far below it.

use weakgpu::axiom::cat::{CatProgram, Expr, Stmt};
use weakgpu::axiom::enumerate::{model_outcomes, EnumConfig};
use weakgpu::axiom::model::sc_model;
use weakgpu::axiom::{CatModel, VerdictCache};
use weakgpu::diy::{generate, GenConfig};
use weakgpu::front::{SourceFile, MAX_DEPTH};
use weakgpu::litmus::{corpus, corpus_extra, parser, LitmusTest, Predicate};
use weakgpu::models::sources;

/// Levels of a condition tree, counting the leaf.
fn pred_levels(p: &Predicate) -> usize {
    match p {
        Predicate::And(a, b) | Predicate::Or(a, b) => 1 + pred_levels(a).max(pred_levels(b)),
        Predicate::Not(a) => 1 + pred_levels(a),
        Predicate::Eq(..) | Predicate::Ne(..) | Predicate::True => 1,
    }
}

/// Levels of a `.cat` expression tree, counting the leaf.
fn expr_levels(e: &Expr) -> usize {
    match e {
        Expr::Id(_) | Expr::Zero => 1,
        Expr::App(_, a) | Expr::Inverse(a) | Expr::Plus(a) | Expr::Star(a) | Expr::Opt(a) => {
            1 + expr_levels(a)
        }
        Expr::Union(a, b) | Expr::Inter(a, b) | Expr::Diff(a, b) | Expr::Seq(a, b) => {
            1 + expr_levels(a).max(expr_levels(b))
        }
    }
}

fn program_levels(p: &CatProgram) -> usize {
    p.stmts()
        .iter()
        .map(|s| match s {
            Stmt::Let { body: e, .. } | Stmt::Check { expr: e, .. } => expr_levels(e),
        })
        .max()
        .unwrap_or(0)
}

/// Runs `f` on a thread with the default 2 MB stack of a test thread.
fn on_2mb_thread(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap();
}

/// A `.cat` model whose one binding nests `n` times in the given form.
fn deep_cat(form: &str, n: usize) -> String {
    let body = match form {
        "parens" => format!("{}po{}", "(".repeat(n), ")".repeat(n)),
        "union" => vec!["po"; n].join(" | "),
        "seq" => vec!["po"; n].join(" ; "),
        "inter" => vec!["po"; n].join(" & "),
        "diff" => vec!["po"; n].join(" \\ "),
        "postfix" => format!("po{}", "+".repeat(n)),
        "app" => format!("{}po{}", "f(".repeat(n), ")".repeat(n)),
        _ => unreachable!("{form}"),
    };
    format!("let f(e) = e\nlet x = {body}\nacyclic x as deep\n")
}

/// The shipped `sb` test with a condition nesting `n` times in the given
/// form.
fn deep_litmus(form: &str, n: usize) -> String {
    let body = match form {
        "parens" => format!("{}0:r2=0{}", "(".repeat(n), ")".repeat(n)),
        "and" => format!("({})", vec!["0:r2=0"; n].join(" /\\ ")),
        "or" => format!("({})", vec!["0:r2=0"; n].join(" \\/ ")),
        "not" => format!("({}0:r2=0)", "not ".repeat(n)),
        _ => unreachable!("{form}"),
    };
    let sb =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/litmus/sb.litmus")).unwrap();
    let head = sb.trim_end().rsplit_once('\n').unwrap().0;
    format!("{head}\nexists {body}\n")
}

/// How many units of each form reach exactly [`MAX_DEPTH`]: a
/// parenthesis is one on the parser's count, an operator one level of
/// the tree, whose leaf is a level too. So are the parentheses of the
/// condition around a run of `not`s.
fn at_bound(form: &str) -> usize {
    match form {
        "postfix" | "app" | "not" => MAX_DEPTH - 1,
        // n parentheses, or n operands under n - 1 operators.
        _ => MAX_DEPTH,
    }
}

const CAT_FORMS: [&str; 7] = ["parens", "union", "seq", "inter", "diff", "postfix", "app"];
const LITMUS_FORMS: [&str; 4] = ["parens", "and", "or", "not"];

#[test]
fn cat_models_at_the_bound_parse_print_and_compile() {
    for form in CAT_FORMS {
        on_2mb_thread(move || {
            let src = deep_cat(form, at_bound(form));
            let program = CatProgram::parse(&src).unwrap_or_else(|e| panic!("{form}: {e}"));
            let printed = program.to_string();
            let again = CatProgram::parse(&printed).unwrap_or_else(|e| panic!("{form}: {e}"));
            assert_eq!(again, program, "{form}");
            let model = CatModel::new(form, &printed).unwrap_or_else(|e| panic!("{form}: {e}"));
            let sb = corpus::sb(weakgpu::litmus::ThreadScope::InterCta, None);
            model_outcomes(&sb, &model, &EnumConfig::default()).unwrap();
        });
    }
}

#[test]
fn inlined_function_bodies_count_into_the_bound() {
    // Every body is at the bound, so the bodies of `f16(po)` inlined
    // into one another nest sixteen times past it.
    on_2mb_thread(|| {
        let mut src = String::from("let f0(x) = x\n");
        for k in 1..=16 {
            src += &format!("let f{k}(x) = f{}(x){}\n", k - 1, "+".repeat(126));
        }
        src += "acyclic f16(po) as deep\n";
        assert_eq!(program_levels(&CatProgram::parse(&src).unwrap()), MAX_DEPTH);
        let err = CatModel::new("inlined", &src).unwrap_err().to_string();
        assert!(
            err.contains(&format!("nests deeper than {MAX_DEPTH} levels")),
            "{err}"
        );
    });
}

#[test]
fn cat_models_past_the_bound_get_a_caret_at_the_crossing_token() {
    for form in CAT_FORMS {
        let src = deep_cat(form, at_bound(form) + 1);
        let file = SourceFile::new("deep.cat", src.as_str());
        let diags = CatProgram::parse_with_diagnostics(&file).diagnostics;
        assert_eq!(diags.len(), 1, "{form}: {diags:?}");
        assert_eq!(
            diags[0].message,
            format!("input nests deeper than {MAX_DEPTH} levels"),
            "{form}"
        );
        let span = diags[0].span.unwrap();
        let at = &src[span.start as usize..span.end as usize];
        let line = src.lines().nth(1).unwrap();
        let offset = span.start as usize - src.find(line).unwrap();
        let expected = match form {
            // The parenthesis one past the bound.
            "parens" => ("(", 8 + MAX_DEPTH),
            // The outermost application, which sits on the tallest arg.
            "app" => ("f", 8),
            "postfix" => ("+", 10 + MAX_DEPTH - 1),
            // The last operator of the chain.
            _ => {
                let op = line.rsplit(' ').nth(1).unwrap();
                (op, line.rfind(op).unwrap())
            }
        };
        assert_eq!((at, offset), expected, "{form}");
    }
}

#[test]
fn litmus_conditions_at_the_bound_parse_print_and_judge() {
    for form in LITMUS_FORMS {
        on_2mb_thread(move || {
            let test = parser::parse(&deep_litmus(form, at_bound(form)))
                .unwrap_or_else(|e| panic!("{form}: {e}"));
            let again = parser::parse(&test.to_string()).unwrap_or_else(|e| panic!("{form}: {e}"));
            assert_eq!(again.cond(), test.cond(), "{form}");
            let model = sc_model();
            let cfg = EnumConfig::default();
            let verdict = model_outcomes(&again, &model, &cfg).unwrap();
            let cached = VerdictCache::new().outcomes(&again, &model, &cfg).unwrap();
            assert_eq!(*cached, verdict, "{form}");
        });
    }
}

#[test]
fn litmus_conditions_past_the_bound_get_a_caret_at_the_crossing_token() {
    for form in LITMUS_FORMS {
        let src = deep_litmus(form, at_bound(form) + 1);
        let file = SourceFile::new("deep.litmus", src.as_str());
        let diags = parser::parse_with_diagnostics(&file).diagnostics;
        assert_eq!(diags.len(), 1, "{form}: {diags:?}");
        assert_eq!(
            diags[0].message,
            format!("input nests deeper than {MAX_DEPTH} levels"),
            "{form}"
        );
        let span = diags[0].span.unwrap();
        let at = &src[span.start as usize..span.end as usize];
        let line = src.lines().last().unwrap();
        let offset = span.start as usize - src.rfind(line).unwrap();
        let expected = match form {
            // `exists `, then the parenthesis one past the bound.
            "parens" => ("(", 7 + MAX_DEPTH),
            // The outermost `not`, which sits on the tallest operand.
            "not" => ("not", 8),
            // The last operator of the chain.
            _ => {
                let op = line.rsplit(' ').nth(1).unwrap();
                (op, line.rfind(op).unwrap())
            }
        };
        assert_eq!((at, offset), expected, "{form}");
    }
}

#[test]
fn a_diagnostic_echoes_a_window_of_a_long_line() {
    let src = deep_litmus("and", 100_000);
    let file = SourceFile::new("chain.litmus", src.as_str());
    let rendered = parser::parse_with_diagnostics(&file).diagnostics[0].render(&file);
    assert!(rendered.len() < 1024, "{} bytes", rendered.len());
    assert!(
        rendered.contains("--> chain.litmus:10:1286\n"),
        "{rendered}"
    );
    // The echo is cut at both ends, and the caret sits under the `/\`
    // that crossed the bound.
    let lines: Vec<&str> = rendered.lines().collect();
    let (echo, carets) = (lines[3], lines[4]);
    assert!(echo.starts_with("10 | …") && echo.ends_with('…'), "{echo}");
    let col = carets.find('^').unwrap();
    let under: String = echo.chars().skip(col).take(2).collect();
    assert_eq!(
        (under.as_str(), &carets[col..]),
        ("/\\", "^^"),
        "{rendered}"
    );
}

#[test]
fn shipped_and_generated_inputs_stay_a_quarter_below_the_bound() {
    let mut deepest = (0, String::new());
    let mut see = |levels: usize, what: &str| {
        if levels > deepest.0 {
            deepest = (levels, what.to_owned());
        }
    };
    let mut litmus: Vec<LitmusTest> = corpus::all();
    litmus.extend(corpus_extra::all_extra());
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("litmus");
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "litmus") {
            litmus.push(parser::parse(&std::fs::read_to_string(&path).unwrap()).unwrap());
        }
    }
    for cfg in [GenConfig::small(), GenConfig::paper()] {
        litmus.extend(generate(&cfg));
    }
    for test in &litmus {
        // As built, and as a client sends it: printed and re-parsed.
        let reparsed = parser::parse(&test.to_string()).unwrap();
        for t in [test, &reparsed] {
            see(pred_levels(&t.cond().pred), t.name());
        }
    }
    for &(name, src) in sources::ALL {
        see(program_levels(&CatProgram::parse(src).unwrap()), name);
    }
    let (levels, name) = deepest;
    println!("deepest input: {name}, {levels} levels (bound {MAX_DEPTH})");
    assert!(
        levels <= MAX_DEPTH / 4,
        "{name} nests {levels} levels, over a quarter of the bound {MAX_DEPTH}"
    );
}
