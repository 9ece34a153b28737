//! A `.cat` relational DSL, sufficient for the paper's model files
//! (Figs. 15 and 16) and widened toward the herd7 surface syntax.
//!
//! Supported statements:
//!
//! ```text
//! "Model title"                    (optional leading title, herd7-style;
//! PTX                               a bare identifier works too)
//! let name = expr                  (relation definition)
//! let name(param) = expr           (parameterised definition)
//! acyclic expr as name             (acyclicity check)
//! irreflexive expr as name         (irreflexivity check)
//! empty expr as name               (emptiness check)
//! acyclic expr                     (unnamed check — auto-named check-N)
//! show expr / unshow expr          (parsed and ignored, with a warning)
//! ```
//!
//! Expressions combine identifiers with union `|`, intersection `&`,
//! difference `\`, sequence `;`, inverse `^-1`, closures `+` `*` `?`,
//! function application `f(e)`, and the sort filters `WW(e)`, `WR(e)`,
//! `RW(e)`, `RR(e)` which restrict a relation to write→write, write→read,
//! read→write and read→read pairs respectively. Line comments start with
//! `//`; `(* … *)` block comments nest and are accepted anywhere.
//!
//! herd7 syntax this subset deliberately rejects — each with a targeted
//! diagnostic rather than a generic parse error: `include "…"` (the
//! compiler is include-free), `let rec` (no fixpoints), and the
//! complement operator `~`.
//!
//! Parsing is plain recursive descent on [`weakgpu_front`]: a spanned
//! lexer feeds a token [`Cursor`] with expected-set accumulation, and
//! statement-level recovery reports every error in one pass
//! ([`CatProgram::parse_with_diagnostics`]). An expression nested deeper
//! than [`weakgpu_front::MAX_DEPTH`] — in parentheses or in tree levels —
//! is rejected with a caret at the token that crossed the bound.
//!
//! A model *allows* an execution iff every check passes
//! ([`CatProgram::check`]).

use std::collections::BTreeMap;
use std::fmt;

use weakgpu_front::{
    binary_chain, deeper, BinaryOp, Cursor, Diagnostic, LineCol, Parsed, SourceFile, Span, Token,
    TokenKind,
};

use crate::relation::{EventSet, Relation};

/// Expressions of the `.cat` language.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Expr {
    /// A named relation (base or `let`-bound).
    Id(String),
    /// `f(e)` — user function or builtin filter application.
    App(String, Box<Expr>),
    /// `a | b`.
    Union(Box<Expr>, Box<Expr>),
    /// `a & b`.
    Inter(Box<Expr>, Box<Expr>),
    /// `a \ b`.
    Diff(Box<Expr>, Box<Expr>),
    /// `a ; b`.
    Seq(Box<Expr>, Box<Expr>),
    /// `e^-1`.
    Inverse(Box<Expr>),
    /// `e+`.
    Plus(Box<Expr>),
    /// `e*`.
    Star(Box<Expr>),
    /// `e?`.
    Opt(Box<Expr>),
    /// `0` — the empty relation.
    Zero,
}

/// The three check forms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckKind {
    /// `acyclic e as n` — `e` must have no cycles.
    Acyclic,
    /// `irreflexive e as n` — `e` must have no self-pairs.
    Irreflexive,
    /// `empty e as n` — `e` must have no pairs.
    Empty,
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckKind::Acyclic => write!(f, "acyclic"),
            CheckKind::Irreflexive => write!(f, "irreflexive"),
            CheckKind::Empty => write!(f, "empty"),
        }
    }
}

/// One statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Stmt {
    /// `let name[(param)] = body`.
    Let {
        /// Bound name.
        name: String,
        /// Parameter, for function definitions.
        param: Option<String>,
        /// Right-hand side.
        body: Expr,
    },
    /// A named check.
    Check {
        /// Which property.
        kind: CheckKind,
        /// The relation expression checked.
        expr: Expr,
        /// The check's name (after `as`).
        name: String,
    },
}

/// A parsed `.cat` program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CatProgram {
    title: Option<String>,
    stmts: Vec<Stmt>,
}

/// Result of one named check on one execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckOutcome {
    /// The check's name.
    pub name: String,
    /// Which property was checked.
    pub kind: CheckKind,
    /// Whether the execution satisfied it.
    pub passed: bool,
}

/// `.cat` parse or evaluation failure.
///
/// The compact error of the original API, now carrying the source
/// position when one is attributable. The diagnostics-first entry point
/// [`CatProgram::parse_with_diagnostics`] reports rich spanned
/// [`Diagnostic`]s instead; this type is the projection of the first
/// error for callers that only want a one-liner.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CatError {
    /// What went wrong.
    pub message: String,
    /// 1-based `line:col`, when attributable.
    pub pos: Option<LineCol>,
}

impl CatError {
    /// An error with no position.
    pub fn new(message: impl Into<String>) -> Self {
        CatError {
            message: message.into(),
            pos: None,
        }
    }

    /// An error at a 1-based `line:col`.
    pub fn at(message: impl Into<String>, pos: LineCol) -> Self {
        CatError {
            message: message.into(),
            pos: Some(pos),
        }
    }
}

impl fmt::Display for CatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "cat error at {p}: {}", self.message),
            None => write!(f, "cat error: {}", self.message),
        }
    }
}

impl std::error::Error for CatError {}

// ---------------------------------------------------------------- lexing

#[derive(Clone, PartialEq, Eq, Debug)]
enum CatK {
    Ident(String),
    Str(String),
    Let,
    As,
    Acyclic,
    Irreflexive,
    Empty,
    Pipe,
    Amp,
    Backslash,
    Semi,
    Comma,
    LParen,
    RParen,
    Eq,
    Inv,
    Plus,
    Star,
    Question,
    Zero,
    Tilde,
}

impl TokenKind for CatK {
    fn describe(&self) -> String {
        match self {
            CatK::Ident(s) => format!("`{s}`"),
            CatK::Str(_) => "string literal".into(),
            CatK::Let => "`let`".into(),
            CatK::As => "`as`".into(),
            CatK::Acyclic => "`acyclic`".into(),
            CatK::Irreflexive => "`irreflexive`".into(),
            CatK::Empty => "`empty`".into(),
            CatK::Pipe => "`|`".into(),
            CatK::Amp => "`&`".into(),
            CatK::Backslash => "`\\`".into(),
            CatK::Semi => "`;`".into(),
            CatK::Comma => "`,`".into(),
            CatK::LParen => "`(`".into(),
            CatK::RParen => "`)`".into(),
            CatK::Eq => "`=`".into(),
            CatK::Inv => "`^-1`".into(),
            CatK::Plus => "`+`".into(),
            CatK::Star => "`*`".into(),
            CatK::Question => "`?`".into(),
            CatK::Zero => "`0`".into(),
            CatK::Tilde => "`~`".into(),
        }
    }
}

/// Lexes with spans, recovering from bad characters (each is reported
/// once and skipped). Block comments `(* … *)` nest, herd7-style.
fn lex(file: &SourceFile) -> (Vec<Token<CatK>>, Vec<Diagnostic>) {
    let src = file.text();
    let mut toks = Vec::new();
    let mut diags = Vec::new();
    let b: Vec<(usize, char)> = src.char_indices().collect();
    let len = src.len();
    let mut i = 0;
    let mut push = |kind: CatK, a: usize, e: usize| toks.push(Token::new(kind, Span::new(a, e)));
    while i < b.len() {
        let (at, c) = b[i];
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '/' if b.get(i + 1).map(|t| t.1) == Some('/') => {
                while i < b.len() && b[i].1 != '\n' {
                    i += 1;
                }
            }
            '(' if b.get(i + 1).map(|t| t.1) == Some('*') => {
                let open = at;
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i].1 == '(' && b.get(i + 1).map(|t| t.1) == Some('*') {
                        depth += 1;
                        i += 2;
                    } else if b[i].1 == '*' && b.get(i + 1).map(|t| t.1) == Some(')') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                if depth > 0 {
                    diags.push(
                        Diagnostic::error("unterminated block comment")
                            .with_span(Span::new(open, open + 2)),
                    );
                }
            }
            '"' => {
                let open = at;
                i += 1;
                let start = i;
                while i < b.len() && b[i].1 != '"' && b[i].1 != '\n' {
                    i += 1;
                }
                if i < b.len() && b[i].1 == '"' {
                    let text: String = b[start..i].iter().map(|t| t.1).collect();
                    push(CatK::Str(text), open, b[i].0 + 1);
                    i += 1;
                } else {
                    diags.push(
                        Diagnostic::error("unterminated string literal")
                            .with_span(Span::new(open, open + 1)),
                    );
                }
            }
            '|' | '&' | '\\' | ';' | ',' | '(' | ')' | '=' | '+' | '*' | '?' | '~' => {
                let kind = match c {
                    '|' => CatK::Pipe,
                    '&' => CatK::Amp,
                    '\\' => CatK::Backslash,
                    ';' => CatK::Semi,
                    ',' => CatK::Comma,
                    '(' => CatK::LParen,
                    ')' => CatK::RParen,
                    '=' => CatK::Eq,
                    '+' => CatK::Plus,
                    '*' => CatK::Star,
                    '?' => CatK::Question,
                    _ => CatK::Tilde,
                };
                push(kind, at, at + c.len_utf8());
                i += 1;
            }
            '^' => {
                if b.get(i + 1).map(|t| t.1) == Some('-') && b.get(i + 2).map(|t| t.1) == Some('1')
                {
                    push(CatK::Inv, at, at + 3);
                    i += 3;
                } else {
                    diags.push(
                        Diagnostic::error("stray '^' (the inverse operator is written `^-1`)")
                            .with_span(Span::new(at, at + 1)),
                    );
                    i += 1;
                }
            }
            '0' if !b
                .get(i + 1)
                .is_some_and(|t| t.1.is_alphanumeric() || t.1 == '.' || t.1 == '-') =>
            {
                push(CatK::Zero, at, at + 1);
                i += 1;
            }
            c if c.is_alphanumeric() || c == '_' || c == '.' => {
                let start = i;
                while i < b.len()
                    && (b[i].1.is_alphanumeric() || b[i].1 == '_' || b[i].1 == '.' || b[i].1 == '-')
                {
                    i += 1;
                }
                let end = b.get(i).map_or(len, |t| t.0);
                let word: String = b[start..i].iter().map(|t| t.1).collect();
                let kind = match word.as_str() {
                    "let" => CatK::Let,
                    "as" => CatK::As,
                    "acyclic" => CatK::Acyclic,
                    "irreflexive" => CatK::Irreflexive,
                    "empty" => CatK::Empty,
                    _ => CatK::Ident(word),
                };
                push(kind, at, end);
            }
            other => {
                diags.push(
                    Diagnostic::error(format!("unexpected character {other:?}"))
                        .with_span(Span::new(at, at + other.len_utf8())),
                );
                i += 1;
            }
        }
    }
    (toks, diags)
}

// ---------------------------------------------------------------- parsing

type PCur<'t> = Cursor<'t, CatK>;

/// A parsed expression and its levels (see [`weakgpu_front::MAX_DEPTH`]).
type Leveled = Result<(Expr, usize), Diagnostic>;

fn is_stmt_start(k: &CatK) -> bool {
    matches!(
        k,
        CatK::Let | CatK::Acyclic | CatK::Irreflexive | CatK::Empty
    ) || matches!(k, CatK::Ident(w) if w == "include" || w == "show" || w == "unshow")
}

fn eat_ident(cur: &mut PCur<'_>) -> Option<(String, Span)> {
    cur.eat_map("identifier", |k| match k {
        CatK::Ident(s) => Some(s.clone()),
        _ => None,
    })
}

fn expect_ident(cur: &mut PCur<'_>) -> Result<(String, Span), Diagnostic> {
    eat_ident(cur).ok_or_else(|| cur.expected_error())
}

/// The binary operators, from the tightest-binding.
const BINARY: [BinaryOp<CatK, Expr>; 4] = [
    (CatK::Amp, |a, b| Expr::Inter(Box::new(a), Box::new(b))),
    (CatK::Backslash, |a, b| Expr::Diff(Box::new(a), Box::new(b))),
    (CatK::Semi, |a, b| Expr::Seq(Box::new(a), Box::new(b))),
    (CatK::Pipe, |a, b| Expr::Union(Box::new(a), Box::new(b))),
];

/// The expression rule at `nest` enclosing parentheses.
fn expr(cur: &mut PCur<'_>, nest: usize) -> Leveled {
    binary_chain(cur, &BINARY, |cur| postfix_expr(cur, nest))
}

fn postfix_expr(cur: &mut PCur<'_>, nest: usize) -> Leveled {
    let (mut e, mut levels) = atom(cur, nest)?;
    loop {
        let (t, node): (_, fn(Box<Expr>) -> Expr) = if let Some(t) = cur.eat(&CatK::Inv) {
            (t, Expr::Inverse)
        } else if let Some(t) = cur.eat(&CatK::Plus) {
            (t, Expr::Plus)
        } else if let Some(t) = cur.eat(&CatK::Star) {
            (t, Expr::Star)
        } else if let Some(t) = cur.eat(&CatK::Question) {
            (t, Expr::Opt)
        } else {
            return Ok((e, levels));
        };
        levels = deeper(levels, t.span)?;
        e = node(Box::new(e));
    }
}

fn atom(cur: &mut PCur<'_>, nest: usize) -> Leveled {
    if let Some((name, span)) = eat_ident(cur) {
        if let Some(open) = cur.eat(&CatK::LParen) {
            let (arg, levels) = expr(cur, deeper(nest, open.span)?)?;
            cur.expect(&CatK::RParen)?;
            return Ok((Expr::App(name, Box::new(arg)), deeper(levels, span)?));
        }
        return Ok((Expr::Id(name), 1));
    }
    if let Some(open) = cur.eat(&CatK::LParen) {
        let inner = expr(cur, deeper(nest, open.span)?)?;
        cur.expect(&CatK::RParen)?;
        return Ok(inner);
    }
    if cur.eat(&CatK::Zero).is_some() {
        return Ok((Expr::Zero, 1));
    }
    if let Some(t) = cur.eat(&CatK::Tilde) {
        return Err(
            Diagnostic::error("the complement operator `~` is not supported")
                .with_span(t.span)
                .with_note("this .cat subset has no complement; rewrite with `\\` set difference"),
        );
    }
    Err(cur.expected_error())
}

/// One statement, or `None` for directives that are consumed without
/// producing a statement (`show` / `unshow`).
fn stmt(
    cur: &mut PCur<'_>,
    diags: &mut Vec<Diagnostic>,
    auto_checks: &mut usize,
) -> Result<Option<Stmt>, Diagnostic> {
    // herd7 directives this subset rejects or ignores, with targeted
    // diagnostics.
    if let Some(CatK::Ident(w)) = cur.peek_kind() {
        match w.as_str() {
            "include" => {
                let t = cur.bump().expect("peeked");
                let span = match cur.peek_kind() {
                    Some(CatK::Str(_)) => cur.bump().expect("peeked").span.join(t.span),
                    _ => t.span,
                };
                return Err(Diagnostic::error(
                    "`include` is not supported: this .cat subset is include-free",
                )
                .with_span(span)
                .with_note("inline the included definitions instead"));
            }
            "show" | "unshow" => {
                let directive = w.clone();
                let t = cur.bump().expect("peeked");
                diags.push(
                    Diagnostic::warning(format!(
                        "`{directive}` is a display directive; parsed and ignored"
                    ))
                    .with_span(t.span),
                );
                // Swallow the directive's operands: idents, commas and
                // `as` renames up to the next statement.
                while let Some(k) = cur.peek_kind() {
                    if is_stmt_start(k) {
                        break;
                    }
                    match k {
                        CatK::Ident(_) | CatK::Comma | CatK::As => {
                            cur.bump();
                        }
                        _ => break,
                    }
                }
                return Ok(None);
            }
            _ => {}
        }
    }
    if let Some(t) = cur.eat(&CatK::Let) {
        // `let rec` fixpoints are out of scope — report them clearly
        // rather than parsing `rec` as the bound name.
        let mark = cur.mark();
        if let Some((w, span)) = eat_ident(cur) {
            if w == "rec" && matches!(cur.peek_kind(), Some(CatK::Ident(_))) {
                return Err(Diagnostic::error(
                    "`let rec` is not supported: no recursive definitions",
                )
                .with_span(span.join(t.span))
                .with_note("unfold the recursion or use `+`/`*` closures"));
            }
            cur.rewind(mark);
        }
        let (name, _) = expect_ident(cur)?;
        let param = if cur.eat(&CatK::LParen).is_some() {
            let (p, _) = expect_ident(cur)?;
            cur.expect(&CatK::RParen)?;
            Some(p)
        } else {
            None
        };
        cur.expect(&CatK::Eq)?;
        let (body, _) = expr(cur, 0)?;
        return Ok(Some(Stmt::Let { name, param, body }));
    }
    for (tok, kind) in [
        (CatK::Acyclic, CheckKind::Acyclic),
        (CatK::Irreflexive, CheckKind::Irreflexive),
        (CatK::Empty, CheckKind::Empty),
    ] {
        if cur.eat(&tok).is_some() {
            let (e, _) = expr(cur, 0)?;
            let name = if cur.eat(&CatK::As).is_some() {
                expect_ident(cur)?.0
            } else {
                // herd7 allows unnamed checks; give them stable names.
                *auto_checks += 1;
                format!("check-{auto_checks}")
            };
            return Ok(Some(Stmt::Check {
                kind,
                expr: e,
                name,
            }));
        }
    }
    let found = cur
        .peek_kind()
        .map_or("end of input".to_string(), CatK::describe);
    Err(Diagnostic::error(format!(
        "expected a statement (`let`, `acyclic`, `irreflexive` or `empty`), found {found}"
    ))
    .with_span(cur.here()))
}

impl CatProgram {
    /// Parses a `.cat` source text.
    ///
    /// Compatibility wrapper over [`CatProgram::parse_with_diagnostics`]:
    /// reports only the first error, as a [`CatError`] with its
    /// `line:col` preserved.
    ///
    /// # Errors
    ///
    /// Returns a [`CatError`] on lexical or syntactic problems.
    pub fn parse(src: &str) -> Result<Self, CatError> {
        let file = SourceFile::new("<cat>", src);
        match Self::parse_with_diagnostics(&file).into_result() {
            Ok(p) => Ok(p),
            Err(diags) => {
                let first = diags
                    .iter()
                    .find(|d| d.is_error())
                    .cloned()
                    .unwrap_or_else(|| Diagnostic::error("parse failed"));
                Err(CatError {
                    pos: first.span.map(|s| file.pos(s)),
                    message: first.message,
                })
            }
        }
    }

    /// Parses a `.cat` source, collecting *all* diagnostics in one pass.
    ///
    /// Recovery is statement-level: after an error the parser
    /// resynchronises on the next statement keyword, so a file with three
    /// broken statements yields three diagnostics. The value is `Some`
    /// when at least the well-formed statements could be kept, but
    /// [`Parsed::into_result`] still fails if any *error* was reported.
    pub fn parse_with_diagnostics(file: &SourceFile) -> Parsed<CatProgram> {
        let (toks, mut diags) = lex(file);
        let mut cur = Cursor::new(&toks, file.text().len());
        // Optional herd7-style model title: a leading string literal or a
        // bare identifier (anything a statement cannot start with).
        let title = match cur.peek_kind() {
            Some(CatK::Str(s)) => {
                let s = s.clone();
                cur.bump();
                Some(s)
            }
            Some(CatK::Ident(w)) if !is_stmt_start(&CatK::Ident(w.clone())) => {
                let s = w.clone();
                cur.bump();
                Some(s)
            }
            _ => None,
        };
        let mut stmts = Vec::new();
        let mut auto_checks = 0usize;
        while !cur.at_end() {
            let start = cur.pos();
            match stmt(&mut cur, &mut diags, &mut auto_checks) {
                Ok(Some(s)) => stmts.push(s),
                Ok(None) => {}
                Err(d) => {
                    diags.push(d);
                    // Resynchronise on the next statement keyword.
                    if cur.pos() == start {
                        cur.bump();
                    }
                    cur.skip_until(is_stmt_start);
                }
            }
        }
        // Lexer diagnostics were collected up front; interleave them with
        // the parser's in source order.
        diags.sort_by_key(|d| d.span.map_or(u32::MAX, |s| s.start));
        Parsed {
            value: Some(CatProgram { title, stmts }),
            diagnostics: diags,
        }
    }

    /// The model's title, when the source carried one.
    pub fn title(&self) -> Option<&str> {
        self.title.as_deref()
    }

    /// The parsed statements.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// Names of all checks, in order.
    pub fn check_names(&self) -> Vec<&str> {
        self.stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Check { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Evaluates every check against the given base relations and event
    /// sorts.
    ///
    /// # Errors
    ///
    /// Returns a [`CatError`] for unbound identifiers, applying a
    /// non-function, or using a function where a relation is expected.
    pub fn check(
        &self,
        base: &BTreeMap<String, Relation>,
        reads: &EventSet,
        writes: &EventSet,
    ) -> Result<Vec<CheckOutcome>, CatError> {
        let n = base.values().next().map(Relation::universe).unwrap_or(0);
        let mut env = Env {
            base,
            lets: BTreeMap::new(),
            reads,
            writes,
            n,
        };
        let mut outcomes = Vec::new();
        for stmt in &self.stmts {
            match stmt {
                Stmt::Let { name, param, body } => {
                    let v = match param {
                        None => Binding::Rel(env.eval(body)?),
                        Some(p) => Binding::Fun {
                            param: p.clone(),
                            body: body.clone(),
                        },
                    };
                    env.lets.insert(name.clone(), v);
                }
                Stmt::Check { kind, expr, name } => {
                    let rel = env.eval(expr)?;
                    let passed = match kind {
                        CheckKind::Acyclic => rel.is_acyclic(),
                        CheckKind::Irreflexive => rel.is_irreflexive(),
                        CheckKind::Empty => rel.is_empty(),
                    };
                    outcomes.push(CheckOutcome {
                        name: name.clone(),
                        kind: *kind,
                        passed,
                    });
                }
            }
        }
        Ok(outcomes)
    }

    /// `true` iff every check passes.
    ///
    /// # Errors
    ///
    /// See [`CatProgram::check`].
    pub fn allows(
        &self,
        base: &BTreeMap<String, Relation>,
        reads: &EventSet,
        writes: &EventSet,
    ) -> Result<bool, CatError> {
        Ok(self.check(base, reads, writes)?.iter().all(|c| c.passed))
    }
}

#[derive(Clone)]
enum Binding {
    Rel(Relation),
    Fun { param: String, body: Expr },
}

struct Env<'a> {
    base: &'a BTreeMap<String, Relation>,
    lets: BTreeMap<String, Binding>,
    reads: &'a EventSet,
    writes: &'a EventSet,
    n: usize,
}

impl Env<'_> {
    fn lookup(&self, name: &str) -> Result<Binding, CatError> {
        if let Some(b) = self.lets.get(name) {
            return Ok(b.clone());
        }
        if let Some(r) = self.base.get(name) {
            return Ok(Binding::Rel(r.clone()));
        }
        Err(CatError::new(format!("unbound identifier {name:?}")))
    }

    fn eval(&mut self, e: &Expr) -> Result<Relation, CatError> {
        match e {
            Expr::Zero => Ok(Relation::empty(self.n)),
            Expr::Id(name) => match self.lookup(name)? {
                Binding::Rel(r) => Ok(r),
                Binding::Fun { .. } => Err(CatError::new(format!(
                    "{name:?} is a function, not a relation"
                ))),
            },
            Expr::App(name, arg) => {
                let argv = self.eval(arg)?;
                match name.as_str() {
                    // Sort filters.
                    "WW" => Ok(argv.restrict(self.writes, self.writes)),
                    "WR" => Ok(argv.restrict(self.writes, self.reads)),
                    "RW" => Ok(argv.restrict(self.reads, self.writes)),
                    "RR" => Ok(argv.restrict(self.reads, self.reads)),
                    _ => match self.lookup(name)? {
                        Binding::Fun { param, body } => {
                            // Bind the parameter, evaluate, restore.
                            let saved = self.lets.insert(param.clone(), Binding::Rel(argv));
                            let result = self.eval(&body);
                            match saved {
                                Some(v) => {
                                    self.lets.insert(param, v);
                                }
                                None => {
                                    self.lets.remove(&param);
                                }
                            }
                            result
                        }
                        Binding::Rel(_) => Err(CatError::new(format!(
                            "{name:?} is a relation, cannot be applied"
                        ))),
                    },
                }
            }
            Expr::Union(a, b) => Ok(self.eval(a)?.union(&self.eval(b)?)),
            Expr::Inter(a, b) => Ok(self.eval(a)?.inter(&self.eval(b)?)),
            Expr::Diff(a, b) => Ok(self.eval(a)?.diff(&self.eval(b)?)),
            Expr::Seq(a, b) => Ok(self.eval(a)?.seq(&self.eval(b)?)),
            Expr::Inverse(a) => Ok(self.eval(a)?.inverse()),
            Expr::Plus(a) => Ok(self.eval(a)?.transitive_closure()),
            Expr::Star(a) => Ok(self.eval(a)?.reflexive_transitive_closure()),
            Expr::Opt(a) => Ok(self.eval(a)?.optional()),
        }
    }
}

impl fmt::Display for Expr {
    /// Pretty-prints with explicit parentheses around every binary
    /// operation, so output re-parses to the same tree regardless of
    /// precedence.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Zero => write!(f, "0"),
            Expr::Id(name) => write!(f, "{name}"),
            Expr::App(name, arg) => write!(f, "{name}({arg})"),
            Expr::Union(a, b) => write!(f, "({a} | {b})"),
            Expr::Inter(a, b) => write!(f, "({a} & {b})"),
            Expr::Diff(a, b) => write!(f, "({a} \\ {b})"),
            Expr::Seq(a, b) => write!(f, "({a} ; {b})"),
            Expr::Inverse(a) => write!(f, "({a})^-1"),
            Expr::Plus(a) => write!(f, "({a})+"),
            Expr::Star(a) => write!(f, "({a})*"),
            Expr::Opt(a) => write!(f, "({a})?"),
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stmt::Let {
                name,
                param: None,
                body,
            } => write!(f, "let {name} = {body}"),
            Stmt::Let {
                name,
                param: Some(p),
                body,
            } => write!(f, "let {name}({p}) = {body}"),
            Stmt::Check { kind, expr, name } => write!(f, "{kind} {expr} as {name}"),
        }
    }
}

impl fmt::Display for CatProgram {
    /// Renders the program one statement per line (with its title first,
    /// when present); the output re-parses to an equal program.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(t) = &self.title {
            writeln!(f, "\"{t}\"")?;
        }
        for stmt in &self.stmts {
            writeln!(f, "{stmt}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakgpu_front::render_all;

    fn base3() -> (BTreeMap<String, Relation>, EventSet, EventSet) {
        // Universe {0,1,2}: 0 is a write, 1 a read, 2 a write.
        let mut m = BTreeMap::new();
        m.insert(
            "po".to_string(),
            Relation::from_pairs(3, [(0, 1), (1, 2), (0, 2)]),
        );
        m.insert("rf".to_string(), Relation::from_pairs(3, [(2, 1)]));
        let writes = EventSet::from_iter_n(3, [0, 2]);
        let reads = EventSet::from_iter_n(3, [1]);
        (m, reads, writes)
    }

    #[test]
    fn parses_paper_fig15() {
        let src = "
let com = rf | co | fr
let po-loc-llh = WW(po-loc) | WR(po-loc) | RW(po-loc)
acyclic (po-loc-llh | com) as sc-per-loc-llh
let dp = addr | data | ctrl
acyclic (dp | rf) as no-thin-air
let rmo(fence) = dp | fence | rfe | co | fr
";
        let p = CatProgram::parse(src).unwrap();
        assert_eq!(p.stmts().len(), 6);
        assert_eq!(p.check_names(), vec!["sc-per-loc-llh", "no-thin-air"]);
        // `rmo` is a function definition.
        assert!(matches!(
            &p.stmts()[5],
            Stmt::Let {
                name,
                param: Some(param),
                ..
            } if name == "rmo" && param == "fence"
        ));
    }

    #[test]
    fn comments_are_skipped() {
        let src = "// line comment\n(* block *) let x = po\nacyclic x as c1";
        let p = CatProgram::parse(src).unwrap();
        assert_eq!(p.stmts().len(), 2);
    }

    #[test]
    fn block_comments_nest_and_appear_anywhere() {
        let src = "let x = po (* outer (* inner *) still out *) | rf\nacyclic x as c";
        let p = CatProgram::parse(src).unwrap();
        assert_eq!(p.stmts().len(), 2);
        assert!(matches!(
            &p.stmts()[0],
            Stmt::Let {
                body: Expr::Union(..),
                ..
            }
        ));
    }

    #[test]
    fn model_titles_are_accepted() {
        let p = CatProgram::parse("\"PTX model\"\nacyclic po as c").unwrap();
        assert_eq!(p.title(), Some("PTX model"));
        assert_eq!(p.stmts().len(), 1);
        let p2 = CatProgram::parse("PTX\nacyclic po as c").unwrap();
        assert_eq!(p2.title(), Some("PTX"));
        // Round trip through Display keeps the title.
        let p3 = CatProgram::parse(&p.to_string()).unwrap();
        assert_eq!(p3, p);
    }

    #[test]
    fn unnamed_checks_are_auto_named() {
        let p = CatProgram::parse("acyclic po\nempty rf\nacyclic co as named").unwrap();
        assert_eq!(p.check_names(), vec!["check-1", "check-2", "named"]);
    }

    #[test]
    fn show_is_ignored_with_warning() {
        let file = SourceFile::new("m.cat", "show po, rf\nlet x = po\nacyclic x as c\n");
        let parsed = CatProgram::parse_with_diagnostics(&file);
        assert!(!parsed.has_errors());
        assert_eq!(parsed.diagnostics.len(), 1);
        assert!(parsed.diagnostics[0].message.contains("ignored"));
        assert_eq!(parsed.value.unwrap().stmts().len(), 2);
    }

    #[test]
    fn include_and_let_rec_and_complement_are_clearly_rejected() {
        let file = SourceFile::new(
            "m.cat",
            "include \"cos.cat\"\nlet rec r = po\nlet y = ~po\nacyclic y as c\n",
        );
        let parsed = CatProgram::parse_with_diagnostics(&file);
        let msgs: Vec<_> = parsed
            .diagnostics
            .iter()
            .filter(|d| d.is_error())
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(msgs.len(), 3, "{msgs:?}");
        assert!(msgs[0].contains("`include` is not supported"), "{msgs:?}");
        assert!(msgs[1].contains("`let rec` is not supported"), "{msgs:?}");
        assert!(msgs[2].contains("`~` is not supported"), "{msgs:?}");
    }

    #[test]
    fn recovery_reports_every_broken_statement() {
        let file = SourceFile::new(
            "m.cat",
            "let = po\nlet good = rf\nacyclic po rf as c\nempty good as ok\n",
        );
        let parsed = CatProgram::parse_with_diagnostics(&file);
        let errors: Vec<_> = parsed.diagnostics.iter().filter(|d| d.is_error()).collect();
        assert!(errors.len() >= 2, "{:?}", parsed.diagnostics);
        // The good statements survived recovery.
        let p = parsed.value.unwrap();
        assert!(p
            .stmts()
            .iter()
            .any(|s| matches!(s, Stmt::Let { name, .. } if name == "good")));
        assert!(p.check_names().contains(&"ok"));
    }

    #[test]
    fn diagnostics_carry_line_and_col() {
        let file = SourceFile::new("m.cat", "let x = po\nlet y = po ^ 2\n");
        let parsed = CatProgram::parse_with_diagnostics(&file);
        assert!(parsed.has_errors());
        let rendered = render_all(&parsed.diagnostics, &file);
        assert!(rendered.contains("m.cat:2:12"), "{rendered}");
        assert!(rendered.contains("^ 2"), "{rendered}");
        // And the compact CatError keeps the position.
        let err = CatProgram::parse(file.text()).unwrap_err();
        assert_eq!(err.pos.map(|p| (p.line, p.col)), Some((2, 12)));
    }

    #[test]
    fn expected_sets_accumulate() {
        let err = CatProgram::parse("let x po").unwrap_err();
        // After `let x` either `(`, `=` would continue the statement.
        assert!(err.message.contains("expected"), "{err}");
        assert!(err.message.contains("`=`"), "{err}");
    }

    #[test]
    fn filters_restrict_by_sort() {
        let (base, reads, writes) = base3();
        let p = CatProgram::parse("empty WW(po) as onlyww").unwrap();
        // po pairs: (0,1) W→R, (1,2) R→W, (0,2) W→W ⇒ WW(po) nonempty.
        let out = p.check(&base, &reads, &writes).unwrap();
        assert!(!out[0].passed);
        let p2 = CatProgram::parse("empty RR(po) as onlyrr").unwrap();
        assert!(p2.check(&base, &reads, &writes).unwrap()[0].passed);
    }

    #[test]
    fn function_application_substitutes() {
        let (base, reads, writes) = base3();
        let src = "
let f(x) = x | rf
acyclic f(po) as c
";
        let p = CatProgram::parse(src).unwrap();
        // po ∪ rf has cycle 1→2→1.
        let out = p.check(&base, &reads, &writes).unwrap();
        assert!(!out[0].passed);
    }

    #[test]
    fn operators_and_postfix() {
        let (base, reads, writes) = base3();
        let checks = [
            ("empty po & rf as c", true),    // disjoint
            ("empty po \\ po as c", true),   // difference with self
            ("empty (po ; rf) as c", false), // (0,1);(… ) — po;rf has (1,1)? po(1,2), rf(2,1) ⇒ (1,1)
            ("irreflexive (po ; rf) as c", false),
            ("empty rf^-1 as c", false),
            ("acyclic po+ as c", true),
            ("irreflexive po* as c", false), // reflexive closure has self-pairs
            ("empty 0 as c", true),
            ("acyclic po? as c", false), // id pairs are self-loops
        ];
        for (src, expect) in checks {
            let p = CatProgram::parse(src).unwrap();
            let out = p.check(&base, &reads, &writes).unwrap();
            assert_eq!(out[0].passed, expect, "{src}");
        }
    }

    #[test]
    fn unbound_identifier_reported() {
        let (base, reads, writes) = base3();
        let p = CatProgram::parse("acyclic nosuch as c").unwrap();
        let err = p.check(&base, &reads, &writes).unwrap_err();
        assert!(err.message.contains("unbound"), "{err}");
    }

    #[test]
    fn applying_relation_is_an_error() {
        let (base, reads, writes) = base3();
        let p = CatProgram::parse("acyclic po(rf) as c").unwrap();
        assert!(p.check(&base, &reads, &writes).is_err());
    }

    #[test]
    fn function_as_relation_is_an_error() {
        let (base, reads, writes) = base3();
        let p = CatProgram::parse("let f(x) = x\nacyclic f as c").unwrap();
        assert!(p.check(&base, &reads, &writes).is_err());
    }

    #[test]
    fn hyphenated_and_dotted_identifiers() {
        let src = "let cta-fence = membar.cta | membar.gl\nacyclic cta-fence as c";
        let p = CatProgram::parse(src).unwrap();
        let mut base = BTreeMap::new();
        base.insert("membar.cta".to_string(), Relation::from_pairs(2, [(0, 1)]));
        base.insert("membar.gl".to_string(), Relation::empty(2));
        let out = p
            .check(&base, &EventSet::empty(2), &EventSet::empty(2))
            .unwrap();
        assert!(out[0].passed);
    }

    #[test]
    fn allows_requires_all_checks() {
        let (base, reads, writes) = base3();
        let src = "acyclic po as good\nacyclic (po | rf) as bad";
        let p = CatProgram::parse(src).unwrap();
        assert!(!p.allows(&base, &reads, &writes).unwrap());
        let out = p.check(&base, &reads, &writes).unwrap();
        assert!(out[0].passed && !out[1].passed);
    }

    #[test]
    fn parse_errors() {
        assert!(CatProgram::parse("let = po").is_err());
        assert!(CatProgram::parse("let f(x = x").is_err());
        assert!(CatProgram::parse("bogus po as c").is_err());
        assert!(CatProgram::parse("let x = po ^ 2").is_err()); // stray ^
    }
}
