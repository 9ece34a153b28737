//! Parser for the textual GPU litmus format (paper Fig. 12).
//!
//! The accepted grammar, line-oriented:
//!
//! ```text
//! GPU_PTX <name>
//! (* optional comment lines *)
//! { 0:.reg .s32 r0; 0:.reg .b64 r1 = x; … }      (optional, may span lines)
//! T0 | T1 ;
//! <instr> | <instr> ;                              (cells may be empty)
//! …
//! ScopeTree(grid(cta(warp T0)(warp T1)))
//! x: shared, y: global=1                           (optional; default global)
//! exists (0:r2=0 /\ 1:r2=0)                        (or ~exists / forall)
//! ```
//!
//! The implementation sits on [`weakgpu_front`]: the line-oriented outer
//! grammar derives precise [`Span`]s from borrowed slices via
//! [`SourceFile::span_of`], while the condition and scope-tree
//! sub-grammars run on a token [`Cursor`] with expected-set accumulation.
//! A condition nested deeper than [`weakgpu_front::MAX_DEPTH`] — in
//! parentheses or in tree levels — gets a caret at the token that crossed
//! the bound.
//! Errors are collected as [`Diagnostic`]s with per-cell / per-entry
//! recovery, so one pass over a broken file reports *every* problem:
//!
//! ```text
//! error: unknown opcode "frobnicate"
//!  --> tests/bad.litmus:3:1
//!   |
//! 3 | frobnicate r1 ;
//!   | ^^^^^^^^^^
//! ```
//!
//! [`parse`] is the classic single-error entry point, kept for existing
//! callers; [`parse_with_diagnostics`] is the full-fidelity one.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use weakgpu_front::{
    binary_chain, deeper, BinaryOp, Cursor, Diagnostic, Parsed, SourceFile, Span, Token, TokenKind,
};

use crate::cond::{FinalCond, FinalExpr, Predicate, Quantifier};
use crate::instr::{CacheOp, FenceScope, Instr, Label, Operand, Reg};
use crate::program::{LitmusTest, ValidateError};
use crate::scope::ScopeTree;
use crate::value::{Loc, Value};

/// A parse failure, with a human-readable message and (1-based) line number
/// where available.
///
/// This is the compact error of the original API. The diagnostics-first
/// entry point [`parse_with_diagnostics`] reports rich spanned
/// [`Diagnostic`]s instead; this type survives as the projection of the
/// first error for callers that only want a one-liner.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based source line, when attributable.
    pub line: Option<usize>,
}

impl ParseError {
    fn new(message: impl Into<String>, line: Option<usize>) -> Self {
        ParseError {
            message: message.into(),
            line,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(l) => write!(f, "line {l}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ValidateError> for ParseError {
    fn from(e: ValidateError) -> Self {
        ParseError::new(e.to_string(), None)
    }
}

/// Parses a litmus test from its textual form.
///
/// Compatibility wrapper over [`parse_with_diagnostics`]: reports only the
/// first error, as a [`ParseError`].
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed syntax, and converts any
/// [`ValidateError`] raised while assembling the final test.
///
/// ```
/// let src = "\
/// GPU_PTX corr
/// {1:.reg .s32 r1; 1:.reg .s32 r2}
/// T0 | T1 ;
/// st.cg [x],1 | ld.cg r1,[x] ;
///             | ld.cg r2,[x] ;
/// ScopeTree(grid(cta(warp T0)(warp T1)))
/// x: global
/// exists (1:r1=1 /\\ 1:r2=0)
/// ";
/// let t = weakgpu_litmus::parser::parse(src).unwrap();
/// assert_eq!(t.name(), "corr");
/// assert_eq!(t.num_threads(), 2);
/// ```
pub fn parse(src: &str) -> Result<LitmusTest, ParseError> {
    let file = SourceFile::new("<litmus>", src);
    match parse_with_diagnostics(&file).into_result() {
        Ok(t) => Ok(t),
        Err(diags) => {
            let first = diags
                .iter()
                .find(|d| d.is_error())
                .cloned()
                .unwrap_or_else(|| Diagnostic::error("parse failed"));
            let line = first.line_in(&file);
            Err(ParseError::new(first.message, line))
        }
    }
}

/// Parses a litmus test, collecting *all* diagnostics in one pass.
///
/// Recovery is per instruction cell, per register-block entry and per
/// memory-map entry: a broken cell poisons only itself, so a file with
/// three bad opcodes yields three diagnostics. The value is `Some` when
/// enough of the test survived to assemble one, but
/// [`Parsed::into_result`] still fails if any *error* was reported.
pub fn parse_with_diagnostics(file: &SourceFile) -> Parsed<LitmusTest> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let sp = |s: &str| file.span_of(s).unwrap_or_else(|| file.eof_span());

    let rest_all: Vec<&str> = file
        .text()
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("(*") && !l.starts_with("//"))
        .collect();

    // Header.
    let Some(header) = rest_all.first().copied() else {
        diags.push(Diagnostic::error("empty litmus source").with_span(file.eof_span()));
        return Parsed::failure(diags);
    };
    let mut hparts = header.split_whitespace();
    let arch = hparts.next().unwrap_or_default();
    if arch != "GPU_PTX" {
        diags.push(
            Diagnostic::error(format!("expected GPU_PTX header, found {arch:?}"))
                .with_span(sp(if arch.is_empty() { header } else { arch })),
        );
        return Parsed::failure(diags);
    }
    let Some(name) = hparts.next().map(str::to_owned) else {
        diags.push(Diagnostic::error("missing test name in header").with_span(sp(header)));
        return Parsed::failure(diags);
    };

    let rest = &rest_all[1..];
    let mut idx = 0;

    // Optional register block (may span multiple physical lines). The
    // block is concatenated into one string before splitting on `;`, so a
    // parallel byte→source-offset map keeps entry spans exact even for
    // entries that cross physical lines.
    let mut reg_decls: BTreeMap<usize, BTreeSet<Reg>> = BTreeMap::new();
    let mut reg_inits: Vec<(usize, Reg, Value)> = Vec::new();
    if idx < rest.len() && rest[idx].starts_with('{') {
        let open = rest[idx];
        let mut body = String::new();
        let mut offs: Vec<u32> = Vec::new();
        let mut closed = false;
        while idx < rest.len() {
            let l = rest[idx];
            let base = sp(l).start;
            body.push_str(l);
            offs.extend((0..l.len()).map(|j| base + u32::try_from(j).expect("line fits u32")));
            body.push(' ');
            offs.push(base + u32::try_from(l.len()).expect("line fits u32"));
            idx += 1;
            if l.contains('}') {
                closed = true;
                break;
            }
        }
        if !closed {
            diags.push(Diagnostic::error("unterminated register block").with_span(sp(open)));
        } else {
            let entry_span = |e: &str| -> Span {
                let a = e.as_ptr() as usize - body.as_ptr() as usize;
                let b = a + e.len();
                Span {
                    start: offs[a],
                    end: offs[b - 1] + 1,
                }
            };
            let inner = body.trim().trim_start_matches('{').trim_end_matches('}');
            for entry in inner.split(';') {
                let entry = entry.trim();
                if entry.is_empty() {
                    continue;
                }
                match parse_reg_decl(entry) {
                    Ok((tid, reg, value)) => {
                        reg_decls.entry(tid).or_default().insert(reg.clone());
                        if let Some(v) = value {
                            reg_inits.push((tid, reg, v));
                        }
                    }
                    Err(m) => diags.push(Diagnostic::error(m).with_span(entry_span(entry))),
                }
            }
        }
    }

    // Thread header row: `T0 | T1 ;`.
    if idx >= rest.len() {
        diags.push(Diagnostic::error("missing thread header row").with_span(file.eof_span()));
        return Parsed::failure(diags);
    }
    let throw_raw = rest[idx];
    idx += 1;
    let throw = throw_raw.trim_end_matches(';').trim();
    let mut tids = Vec::new();
    let mut header_ok = true;
    for cell in throw.split('|') {
        let cell = cell.trim();
        match cell.strip_prefix('T').and_then(|s| s.parse::<usize>().ok()) {
            Some(t) => tids.push(t),
            None => {
                diags.push(
                    Diagnostic::error(format!("bad thread header cell {cell:?}"))
                        .with_span(sp(if cell.is_empty() { throw_raw } else { cell })),
                );
                header_ok = false;
            }
        }
    }
    if header_ok && tids.iter().enumerate().any(|(i, &t)| i != t) {
        diags.push(
            Diagnostic::error(format!("thread header must be T0 | T1 | …, got {throw:?}"))
                .with_span(sp(throw)),
        );
        header_ok = false;
    }
    if !header_ok {
        return Parsed::failure(diags);
    }
    let nthreads = tids.len();

    // Instruction rows until the ScopeTree line. Per-cell recovery: a bad
    // cell is reported and skipped, the rest of the row still parses.
    let mut threads: Vec<Vec<Instr>> = vec![Vec::new(); nthreads];
    let classifier = RegClassifier { decls: &reg_decls };
    while idx < rest.len() {
        let l = rest[idx];
        if l.starts_with("ScopeTree") || is_cond_line(l) || is_memmap_line(l) {
            break;
        }
        idx += 1;
        let row = l.trim_end_matches(';').trim_end();
        let cells: Vec<&str> = row.split('|').collect();
        if cells.len() > nthreads {
            diags.push(
                Diagnostic::error(format!(
                    "row has {} cells but there are {nthreads} threads",
                    cells.len()
                ))
                .with_span(sp(row)),
            );
        }
        for (tid, cell) in cells.iter().take(nthreads).enumerate() {
            let cell = cell.trim();
            if cell.is_empty() {
                continue;
            }
            match parse_instr(file, cell, tid, &classifier) {
                Ok(instr) => threads[tid].push(instr),
                Err(d) => diags.push(d),
            }
        }
    }

    // ScopeTree line (optional; defaults to inter-CTA).
    let mut scope_tree = None;
    if idx < rest.len() && rest[idx].starts_with("ScopeTree") {
        let l = rest[idx];
        idx += 1;
        match parse_scope_tree(file, l) {
            Ok(t) => scope_tree = Some(t),
            Err(d) => diags.push(d),
        }
    }

    // Memory map line (optional): `x: shared, y: global=1`. Per-entry
    // recovery.
    let mut mem: Vec<(Loc, crate::memmap::Region, i64)> = Vec::new();
    if idx < rest.len() && !is_cond_line(rest[idx]) {
        let l = rest[idx];
        idx += 1;
        for entry in l.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            match parse_memmap_entry(entry) {
                Ok(e) => mem.push(e),
                Err(m) => diags.push(Diagnostic::error(m).with_span(sp(entry))),
            }
        }
    }

    // Final condition.
    let mut cond = None;
    if idx >= rest.len() {
        diags.push(Diagnostic::error("missing final condition").with_span(file.eof_span()));
    } else {
        let cline = rest[idx];
        idx += 1;
        match parse_cond(file, cline) {
            Ok(c) => cond = Some(c),
            Err(d) => diags.push(d),
        }
    }
    for l in &rest[idx.min(rest.len())..] {
        diags.push(Diagnostic::error(format!("unexpected trailing line {l:?}")).with_span(sp(l)));
    }

    // Assemble. Locations referenced but not mapped default to global=0, as
    // in the paper's format where the memory map only lists exceptions.
    let Some(cond) = cond else {
        return Parsed::failure(diags);
    };
    let mut builder = LitmusTest::builder(name);
    for thread in threads {
        builder = builder.thread(thread);
    }
    for (tid, reg, v) in reg_inits {
        builder = builder.reg_init(tid, reg, v);
    }
    let mapped: BTreeSet<Loc> = mem.iter().map(|(l, _, _)| l.clone()).collect();
    for (loc, region, init) in mem {
        builder = match region {
            crate::memmap::Region::Global => builder.global(loc, init),
            crate::memmap::Region::Shared => builder.shared(loc, init),
        };
    }
    if let Some(tree) = scope_tree {
        builder = builder.scope_tree(tree);
    }
    builder = builder.cond(cond);
    let probe = builder.clone().build();
    let built = if let Err(ValidateError::UnmappedLoc(_)) = probe {
        let mut b2 = builder.clone();
        for loc in referenced_locs_of_builder(&builder) {
            if !mapped.contains(&loc) {
                b2 = b2.global(loc, 0);
            }
        }
        b2.build()
    } else {
        probe
    };
    match built {
        Ok(t) => Parsed {
            value: Some(t),
            diagnostics: diags,
        },
        Err(e) => {
            diags.push(Diagnostic::error(e.to_string()));
            Parsed::failure(diags)
        }
    }
}

fn referenced_locs_of_builder(builder: &crate::program::LitmusTestBuilder) -> BTreeSet<Loc> {
    // Re-parse is avoided: we conservatively rebuild from a clone with a
    // dummy condition to extract referenced locations.
    let clone = builder.clone();
    match clone.build() {
        Ok(t) => t.referenced_locs(),
        Err(_) => {
            // Fall back: build incrementally by adding global mappings for
            // every UnmappedLoc error until it validates or fails otherwise.
            let mut b = builder.clone();
            let mut locs = BTreeSet::new();
            for _ in 0..64 {
                match b.clone().build() {
                    Err(ValidateError::UnmappedLoc(l)) => {
                        locs.insert(l.clone());
                        b = b.global(l, 0);
                    }
                    Ok(t) => {
                        locs.extend(t.referenced_locs());
                        break;
                    }
                    Err(_) => break,
                }
            }
            locs
        }
    }
}

fn is_cond_line(l: &str) -> bool {
    l.starts_with("exists") || l.starts_with("~exists") || l.starts_with("forall")
}

/// `true` for lines of the shape `x: shared, y: global=1` — every
/// comma-separated entry must be `name: region[=init]`.
fn is_memmap_line(l: &str) -> bool {
    !l.is_empty()
        && l.split(',').all(|e| {
            let e = e.trim();
            match e.split_once(':') {
                Some((name, spec)) => {
                    let region = spec.trim().split('=').next().unwrap_or_default().trim();
                    !name.trim().is_empty() && (region == "global" || region == "shared")
                }
                None => false,
            }
        })
}

/// Parses one `name: region[=init]` memory-map entry.
fn parse_memmap_entry(entry: &str) -> Result<(Loc, crate::memmap::Region, i64), String> {
    let (loc, spec) = entry
        .split_once(':')
        .ok_or_else(|| format!("bad memory-map entry {entry:?}"))?;
    let spec = spec.trim();
    let (region_str, init) = match spec.split_once('=') {
        Some((r, v)) => (
            r.trim(),
            v.trim()
                .parse::<i64>()
                .map_err(|_| format!("bad initial value in {entry:?}"))?,
        ),
        None => (spec, 0),
    };
    let region = match region_str {
        "global" => crate::memmap::Region::Global,
        "shared" => crate::memmap::Region::Shared,
        other => return Err(format!("unknown region {other:?}")),
    };
    let loc = loc.trim();
    if !valid_loc_name(loc) {
        return Err(format!("bad location name {loc:?}"));
    }
    Ok((Loc::new(loc), region, init))
}

/// Parses `0:.reg .s32 r0`, `0:.reg .b64 r1 = x`, or `0:r1 = x`.
fn parse_reg_decl(entry: &str) -> Result<(usize, Reg, Option<Value>), String> {
    let (tid_str, rest) = entry
        .split_once(':')
        .ok_or_else(|| format!("bad register declaration {entry:?}"))?;
    let tid: usize = tid_str
        .trim()
        .parse()
        .map_err(|_| format!("bad thread id in declaration {entry:?}"))?;
    let (lhs, init) = match rest.split_once('=') {
        Some((l, r)) => (l, Some(r.trim())),
        None => (rest, None),
    };
    let mut name = None;
    for tok in lhs.split_whitespace() {
        if tok.starts_with('.') || tok == "reg" {
            continue; // type / .reg keywords
        }
        name = Some(tok);
    }
    let name = name.ok_or_else(|| format!("missing register name in {entry:?}"))?;
    let value = match init {
        None => None,
        Some(v) => Some(if let Ok(n) = v.parse::<i64>() {
            Value::Int(n)
        } else if let Some((base, off)) = v.split_once('+') {
            let base = base.trim();
            if !valid_loc_name(base) {
                return Err(format!("bad location name in {entry:?}"));
            }
            Value::Ptr {
                loc: Loc::new(base),
                offset: off
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad pointer offset in {entry:?}"))?,
            }
        } else {
            if !valid_loc_name(v) {
                return Err(format!("bad location name in {entry:?}"));
            }
            Value::ptr(v)
        }),
    };
    if !valid_reg_name(name) {
        return Err(format!("bad register name in {entry:?}"));
    }
    Ok((tid, Reg::new(name), value))
}

/// Name validity as enforced (with panics) by the [`Loc`] constructor;
/// checked before construction so bad names become diagnostics.
fn valid_loc_name(name: &str) -> bool {
    !name.is_empty()
        && !name
            .chars()
            .any(|c| c.is_whitespace() || "[],:;()=".contains(c))
}

/// Same, for the [`Reg`] and [`Label`] constructors.
fn valid_reg_name(name: &str) -> bool {
    !name.is_empty()
        && !name
            .chars()
            .any(|c| c.is_whitespace() || "[],:;()=@!".contains(c))
}

struct RegClassifier<'a> {
    decls: &'a BTreeMap<usize, BTreeSet<Reg>>,
}

impl RegClassifier<'_> {
    /// Is `name` a register of thread `tid`? Uses declarations when present,
    /// else the `r0`/`p0` naming heuristic.
    fn is_reg(&self, tid: usize, name: &str) -> bool {
        if let Some(set) = self.decls.get(&tid) {
            if !set.is_empty() {
                return set.iter().any(|r| r.as_str() == name);
            }
        }
        let mut chars = name.chars();
        matches!(chars.next(), Some('r') | Some('p')) && chars.all(|c| c.is_ascii_digit())
    }
}

fn parse_operand(
    file: &SourceFile,
    tok: &str,
    tid: usize,
    cls: &RegClassifier<'_>,
) -> Result<Operand, Diagnostic> {
    let tok = tok.trim();
    if tok.is_empty() {
        return Err(Diagnostic::error("empty operand").with_span(span_or_eof(file, tok)));
    }
    if let Ok(n) = tok.parse::<i64>() {
        return Ok(Operand::Imm(n));
    }
    if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        if let Ok(n) = i64::from_str_radix(hex, 16) {
            return Ok(Operand::Imm(n));
        }
    }
    if cls.is_reg(tid, tok) {
        Ok(Operand::Reg(Reg::new(tok)))
    } else if valid_loc_name(tok) {
        Ok(Operand::Sym(Loc::new(tok)))
    } else {
        Err(Diagnostic::error(format!("bad operand {tok:?}")).with_span(span_or_eof(file, tok)))
    }
}

fn parse_addr(
    file: &SourceFile,
    tok: &str,
    tid: usize,
    cls: &RegClassifier<'_>,
) -> Result<Operand, Diagnostic> {
    let inner = tok
        .trim()
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| {
            Diagnostic::error(format!("expected [address], found {tok:?}"))
                .with_span(span_or_eof(file, tok.trim()))
        })?;
    parse_operand(file, inner, tid, cls)
}

fn span_or_eof(file: &SourceFile, slice: &str) -> Span {
    file.span_of(slice).unwrap_or_else(|| file.eof_span())
}

/// Parses one instruction cell, e.g. `@!p4 ld.cg r1,[d]`. Errors carry
/// the span of the offending token (opcode, operand, …) where one can be
/// pinned down, else the whole cell.
fn parse_instr(
    file: &SourceFile,
    cell: &str,
    tid: usize,
    cls: &RegClassifier<'_>,
) -> Result<Instr, Diagnostic> {
    let cell = cell.trim();
    let cell_span = span_or_eof(file, cell);
    // Guards.
    if let Some(rest) = cell.strip_prefix('@') {
        let (guard, body) = rest.split_once(char::is_whitespace).ok_or_else(|| {
            Diagnostic::error(format!("guard without instruction in {cell:?}")).with_span(cell_span)
        })?;
        let (expect, pred) = match guard.strip_prefix('!') {
            Some(p) => (false, p),
            None => (true, guard),
        };
        if !valid_reg_name(pred) {
            return Err(Diagnostic::error(format!("bad guard register {pred:?}"))
                .with_span(span_or_eof(file, guard)));
        }
        let inner = parse_instr(file, body, tid, cls)?;
        if matches!(inner, Instr::Guard { .. } | Instr::LabelDef(_)) {
            return Err(Diagnostic::error(format!("cannot guard {body:?}"))
                .with_span(span_or_eof(file, body)));
        }
        return Ok(Instr::Guard {
            pred: Reg::new(pred),
            expect,
            inner: Box::new(inner),
        });
    }
    // Labels. (Names with separator characters fall through to the opcode
    // path, which reports them as unknown opcodes.)
    if let Some(name) = cell.strip_suffix(':') {
        if valid_reg_name(name) {
            return Ok(Instr::LabelDef(Label::new(name)));
        }
    }

    let (opcode, rest) = match cell.split_once(char::is_whitespace) {
        Some((o, r)) => (o, r.trim()),
        None => (cell, ""),
    };
    let parts: Vec<&str> = opcode.split('.').collect();
    let base = parts[0];
    let opcode_span = span_or_eof(file, opcode);
    let mods: BTreeSet<&str> = parts[1..].iter().copied().collect();
    let volatile = mods.contains("volatile");
    let cache = if mods.contains("ca") {
        CacheOp::Ca
    } else {
        CacheOp::Cg
    };

    // Split operands at top level on commas; `[…]` groups contain no commas
    // in this fragment.
    let ops: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(str::trim).collect()
    };
    let nops = ops.len();
    let want = |n: usize| -> Result<(), Diagnostic> {
        if nops == n {
            Ok(())
        } else {
            Err(Diagnostic::error(format!(
                "{base} expects {n} operands, found {nops} in {cell:?}"
            ))
            .with_span(cell_span))
        }
    };
    let regop = |i: usize| -> Result<Reg, Diagnostic> {
        match parse_operand(file, ops[i], tid, cls)? {
            Operand::Reg(r) => Ok(r),
            other => Err(Diagnostic::error(format!(
                "operand {i} of {cell:?} must be a register, found {other}"
            ))
            .with_span(span_or_eof(file, ops[i]))),
        }
    };

    match base {
        "ld" => {
            want(2)?;
            Ok(Instr::Ld {
                dst: regop(0)?,
                addr: parse_addr(file, ops[1], tid, cls)?,
                cache,
                volatile,
            })
        }
        "st" => {
            want(2)?;
            Ok(Instr::St {
                addr: parse_addr(file, ops[0], tid, cls)?,
                src: parse_operand(file, ops[1], tid, cls)?,
                cache,
                volatile,
            })
        }
        "atom" => {
            if mods.contains("cas") {
                want(4)?;
                Ok(Instr::Cas {
                    dst: regop(0)?,
                    addr: parse_addr(file, ops[1], tid, cls)?,
                    expected: parse_operand(file, ops[2], tid, cls)?,
                    desired: parse_operand(file, ops[3], tid, cls)?,
                })
            } else if mods.contains("exch") {
                want(3)?;
                Ok(Instr::Exch {
                    dst: regop(0)?,
                    addr: parse_addr(file, ops[1], tid, cls)?,
                    src: parse_operand(file, ops[2], tid, cls)?,
                })
            } else if mods.contains("inc") {
                want(2)?;
                Ok(Instr::Inc {
                    dst: regop(0)?,
                    addr: parse_addr(file, ops[1], tid, cls)?,
                })
            } else {
                Err(Diagnostic::error(format!("unsupported atomic {opcode:?}"))
                    .with_span(opcode_span))
            }
        }
        "membar" => {
            want(0)?;
            let scope = if mods.contains("cta") {
                FenceScope::Cta
            } else if mods.contains("gl") {
                FenceScope::Gl
            } else if mods.contains("sys") {
                FenceScope::Sys
            } else {
                return Err(
                    Diagnostic::error(format!("membar needs a scope in {cell:?}"))
                        .with_span(opcode_span),
                );
            };
            Ok(Instr::Membar { scope })
        }
        "mov" => {
            want(2)?;
            Ok(Instr::Mov {
                dst: regop(0)?,
                src: parse_operand(file, ops[1], tid, cls)?,
            })
        }
        "add" | "and" | "xor" => {
            want(3)?;
            let (dst, a, b) = (
                regop(0)?,
                parse_operand(file, ops[1], tid, cls)?,
                parse_operand(file, ops[2], tid, cls)?,
            );
            Ok(match base {
                "add" => Instr::Add { dst, a, b },
                "and" => Instr::And { dst, a, b },
                _ => Instr::Xor { dst, a, b },
            })
        }
        "cvt" => {
            want(2)?;
            Ok(Instr::Cvt {
                dst: regop(0)?,
                src: parse_operand(file, ops[1], tid, cls)?,
            })
        }
        "setp" => {
            want(3)?;
            let (dst, a, b) = (
                regop(0)?,
                parse_operand(file, ops[1], tid, cls)?,
                parse_operand(file, ops[2], tid, cls)?,
            );
            if mods.contains("ne") {
                Ok(Instr::SetpNe { dst, a, b })
            } else {
                Ok(Instr::SetpEq { dst, a, b })
            }
        }
        "bra" => {
            want(1)?;
            if !valid_reg_name(ops[0]) {
                return Err(Diagnostic::error(format!("bad label {:?}", ops[0]))
                    .with_span(span_or_eof(file, ops[0])));
            }
            Ok(Instr::Bra {
                target: Label::new(ops[0]),
            })
        }
        other => Err(
            Diagnostic::error(format!("unknown opcode {other:?}")).with_span(span_or_eof(
                file,
                if other.is_empty() { cell } else { other },
            )),
        ),
    }
}

// ---------------------------------------------------------------------------
// Scope trees, on the generic token cursor.
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq, Debug)]
enum TreeK {
    Open,
    Close,
    Word(String),
}

impl TokenKind for TreeK {
    fn describe(&self) -> String {
        match self {
            TreeK::Open => "`(`".into(),
            TreeK::Close => "`)`".into(),
            TreeK::Word(w) => format!("`{w}`"),
        }
    }
}

fn lex_tree(file: &SourceFile, s: &str) -> Vec<Token<TreeK>> {
    let base = span_or_eof(file, s).start as usize;
    let mut toks = Vec::new();
    let mut word_start = None::<usize>;
    let flush = |toks: &mut Vec<Token<TreeK>>, start: Option<usize>, end: usize| {
        if let Some(a) = start {
            toks.push(Token::new(
                TreeK::Word(s[a..end].to_string()),
                Span::new(base + a, base + end),
            ));
        }
    };
    for (i, c) in s.char_indices() {
        match c {
            '(' | ')' => {
                flush(&mut toks, word_start.take(), i);
                let kind = if c == '(' { TreeK::Open } else { TreeK::Close };
                toks.push(Token::new(kind, Span::new(base + i, base + i + 1)));
            }
            c if c.is_whitespace() => flush(&mut toks, word_start.take(), i),
            _ => {
                if word_start.is_none() {
                    word_start = Some(i);
                }
            }
        }
    }
    flush(&mut toks, word_start.take(), s.len());
    toks
}

fn eat_keyword(cur: &mut Cursor<'_, TreeK>, w: &str) -> Result<(), Diagnostic> {
    cur.expect(&TreeK::Word(w.to_string())).map(|_| ())
}

/// Parses `ScopeTree(grid(cta(warp T0)(warp T1))(cta(warp T2)))`.
fn parse_scope_tree(file: &SourceFile, l: &str) -> Result<ScopeTree, Diagnostic> {
    let l = l.trim();
    let inner = l
        .strip_prefix("ScopeTree")
        .map(str::trim)
        .and_then(|s| s.strip_prefix('('))
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| {
            Diagnostic::error("malformed ScopeTree line").with_span(span_or_eof(file, l))
        })?;
    let toks = lex_tree(file, inner);
    let eof_at = span_or_eof(file, l).end as usize;
    let mut cur = Cursor::new(&toks, eof_at);
    eat_keyword(&mut cur, "grid")?;
    let mut ctas = Vec::new();
    while cur.eat(&TreeK::Open).is_some() {
        eat_keyword(&mut cur, "cta")?;
        let mut warps = Vec::new();
        while cur.eat(&TreeK::Open).is_some() {
            eat_keyword(&mut cur, "warp")?;
            let mut threads = Vec::new();
            while let Some((w, span)) = cur.eat_map("thread name", |k| match k {
                TreeK::Word(w) => Some(w.clone()),
                _ => None,
            }) {
                let t: usize = w
                    .strip_prefix('T')
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| {
                        Diagnostic::error(format!("bad thread name {w:?} in scope tree"))
                            .with_span(span)
                    })?;
                threads.push(t);
            }
            cur.expect(&TreeK::Close)?;
            warps.push(threads);
        }
        cur.expect(&TreeK::Close)?;
        ctas.push(warps);
    }
    if !cur.at_end() {
        return Err(cur.expected_error());
    }
    if ctas.is_empty() {
        return Err(Diagnostic::error("scope tree has no CTAs").with_span(span_or_eof(file, l)));
    }
    Ok(ScopeTree::new(ctas))
}

// ---------------------------------------------------------------------------
// Final conditions, on the generic token cursor.
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq, Debug)]
enum CondK {
    LPar,
    RPar,
    And,
    Or,
    Not,
    True,
    Eq,
    Ne,
    Word(String),
}

impl TokenKind for CondK {
    fn describe(&self) -> String {
        match self {
            CondK::LPar => "`(`".into(),
            CondK::RPar => "`)`".into(),
            CondK::And => "`/\\`".into(),
            CondK::Or => "`\\/`".into(),
            CondK::Not => "`not`".into(),
            CondK::True => "`true`".into(),
            CondK::Eq => "`=`".into(),
            CondK::Ne => "`!=`".into(),
            CondK::Word(w) => format!("`{w}`"),
        }
    }
}

fn lex_cond(file: &SourceFile, s: &str) -> Vec<Token<CondK>> {
    let base = span_or_eof(file, s).start as usize;
    let mut toks = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    let mut push = |kind: CondK, a: usize, b: usize| {
        toks.push(Token::new(kind, Span::new(base + a, base + b)));
    };
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' => i += 1,
            '(' => {
                push(CondK::LPar, i, i + 1);
                i += 1;
            }
            ')' => {
                push(CondK::RPar, i, i + 1);
                i += 1;
            }
            '/' if s[i..].starts_with("/\\") => {
                push(CondK::And, i, i + 2);
                i += 2;
            }
            '\\' if s[i..].starts_with("\\/") => {
                push(CondK::Or, i, i + 2);
                i += 2;
            }
            '!' if s[i..].starts_with("!=") => {
                push(CondK::Ne, i, i + 2);
                i += 2;
            }
            '=' => {
                push(CondK::Eq, i, i + 1);
                i += 1;
            }
            _ => {
                let start = i;
                while i < bytes.len()
                    && !" \t()=!".contains(bytes[i] as char)
                    && !s[i..].starts_with("/\\")
                    && !s[i..].starts_with("\\/")
                {
                    i += 1;
                }
                if i == start {
                    // A stray delimiter byte that forms no token (e.g. `!`
                    // without `=`): consume it as a one-byte word so the
                    // lexer always advances.
                    i += 1;
                }
                let kind = match &s[start..i] {
                    "not" => CondK::Not,
                    "true" => CondK::True,
                    w => CondK::Word(w.to_string()),
                };
                push(kind, start, i);
            }
        }
    }
    toks
}

/// Parses the final-condition line.
fn parse_cond(file: &SourceFile, l: &str) -> Result<FinalCond, Diagnostic> {
    let (quant, rest) = if let Some(r) = l.strip_prefix("~exists") {
        (Quantifier::NotExists, r)
    } else if let Some(r) = l.strip_prefix("exists") {
        (Quantifier::Exists, r)
    } else if let Some(r) = l.strip_prefix("forall") {
        (Quantifier::Forall, r)
    } else {
        return Err(
            Diagnostic::error(format!("expected exists/~exists/forall, found {l:?}"))
                .with_span(span_or_eof(file, l)),
        );
    };
    let toks = lex_cond(file, rest.trim());
    let eof_at = span_or_eof(file, l).end as usize;
    let mut cur = Cursor::new(&toks, eof_at);
    let (pred, _) = parse_or(&mut cur, 0)?;
    if !cur.at_end() {
        // `parse_or` already recorded `/\` and `\/` as legal here, so the
        // accumulated error reads "expected `/\` or `\/`, found …".
        return Err(cur.expected_error());
    }
    Ok(FinalCond {
        quantifier: quant,
        pred,
    })
}

/// A parsed predicate and its levels (see [`weakgpu_front::MAX_DEPTH`]).
type Leveled = Result<(Predicate, usize), Diagnostic>;

/// The condition's binary operators, from the tightest-binding.
const BINARY: [BinaryOp<CondK, Predicate>; 2] =
    [(CondK::And, Predicate::and), (CondK::Or, Predicate::or)];

/// The disjunction rule at `nest` enclosing parentheses.
fn parse_or(cur: &mut Cursor<'_, CondK>, nest: usize) -> Leveled {
    binary_chain(cur, &BINARY, |cur| parse_unary(cur, nest))
}

fn parse_unary(cur: &mut Cursor<'_, CondK>, nest: usize) -> Leveled {
    // A run of `not`s is read in a loop, so no length of it recurses.
    let mut nots = Vec::new();
    while let Some(t) = cur.eat(&CondK::Not) {
        nots.push(t.span);
    }
    let (mut p, mut levels) = if let Some(open) = cur.eat(&CondK::LPar) {
        let inner = parse_or(cur, deeper(nest, open.span)?)?;
        cur.expect(&CondK::RPar)?;
        inner
    } else if cur.eat(&CondK::True).is_some() {
        (Predicate::True, 1)
    } else {
        (parse_atom(cur)?, 1)
    };
    for span in nots.into_iter().rev() {
        levels = deeper(levels, span)?;
        p = p.negate();
    }
    Ok((p, levels))
}

fn parse_atom(cur: &mut Cursor<'_, CondK>) -> Result<Predicate, Diagnostic> {
    let word = |k: &CondK| match k {
        CondK::Word(w) => Some(w.clone()),
        _ => None,
    };
    let Some((lhs, lhs_span)) = cur.eat_map("register or memory location", word) else {
        return Err(cur.expected_error());
    };
    let eq = if cur.eat(&CondK::Eq).is_some() {
        true
    } else if cur.eat(&CondK::Ne).is_some() {
        false
    } else {
        return Err(cur.expected_error());
    };
    let Some((rhs, rhs_span)) = cur.eat_map("value", word) else {
        return Err(cur.expected_error());
    };
    let n: i64 = rhs.parse().map_err(|_| {
        Diagnostic::error(format!("bad value {rhs:?} in condition")).with_span(rhs_span)
    })?;
    let expr = match lhs.split_once(':') {
        Some((t, r)) => {
            let tid: usize = t.parse().map_err(|_| {
                Diagnostic::error(format!("bad thread id in {lhs:?}")).with_span(lhs_span)
            })?;
            if !valid_reg_name(r) {
                return Err(
                    Diagnostic::error(format!("bad register name in {lhs:?}")).with_span(lhs_span)
                );
            }
            FinalExpr::Reg(tid, Reg::new(r))
        }
        None => {
            if !valid_loc_name(&lhs) {
                return Err(
                    Diagnostic::error(format!("bad location name {lhs:?}")).with_span(lhs_span)
                );
            }
            FinalExpr::Mem(Loc::new(&lhs))
        }
    };
    Ok(if eq {
        Predicate::Eq(expr, n)
    } else {
        Predicate::Ne(expr, n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::ThreadScope;
    use weakgpu_front::render_all;

    const SB: &str = "\
GPU_PTX sb
{0:.reg .s32 r0; 0:.reg .s32 r2; 0:.reg .b64 r1 = x; 0:.reg .b64 r3 = y;
 1:.reg .s32 r0; 1:.reg .s32 r2; 1:.reg .b64 r1 = y; 1:.reg .b64 r3 = x;}
T0 | T1 ;
mov r0,1 | mov r0,1 ;
st.cg [r1],r0 | st.cg [r1],r0 ;
ld.cg r2,[r3] | ld.cg r2,[r3] ;
ScopeTree(grid(cta(warp T0)(warp T1)))
x: shared, y: global
exists (0:r2=0 /\\ 1:r2=0)
";

    #[test]
    fn parses_fig12_sb() {
        let t = parse(SB).unwrap();
        assert_eq!(t.name(), "sb");
        assert_eq!(t.num_threads(), 2);
        assert_eq!(t.thread_scope(), Some(ThreadScope::IntraCta));
        assert_eq!(t.memory().region(&"x".into()), Some(crate::Region::Shared));
        assert_eq!(t.memory().region(&"y".into()), Some(crate::Region::Global));
        assert_eq!(t.reg_init_value(0, &Reg::new("r1")), Value::ptr("x"),);
        assert_eq!(t.threads()[0].len(), 3);
        assert_eq!(t.cond().to_string(), "exists (0:r2=0 /\\ 1:r2=0)");
    }

    #[test]
    fn parses_guards_atomics_and_labels() {
        let src = "\
GPU_PTX casdemo
{1:.reg .s32 r1; 1:.reg .pred p; 1:.reg .s32 r3}
T0 | T1 ;
st.cg [x],1 | atom.cas r1,[m],0,1 ;
membar.gl | setp.eq p,r1,0 ;
atom.exch r0,[m],0 | @p membar.gl ;
 | @p ld.cg r3,[x] ;
x: global, m: global=1
exists (1:r1=0 /\\ 1:r3=0)
";
        let t = parse(src).unwrap();
        assert_eq!(t.threads()[1].len(), 4);
        assert!(matches!(
            t.threads()[1][2],
            Instr::Guard { expect: true, .. }
        ));
        assert_eq!(t.memory().init(&"m".into()), Some(1));
        // Default scope tree when the line is omitted.
        assert_eq!(t.thread_scope(), Some(ThreadScope::InterCta));
    }

    #[test]
    fn register_addresses_vs_locations() {
        let src = "\
GPU_PTX addr
{0:.reg .b64 r9 = x; 0:.reg .s32 r1}
T0 ;
ld.cg r1,[r9] ;
st.cg [y],1 ;
exists (0:r1=0)
";
        let t = parse(src).unwrap();
        match &t.threads()[0][0] {
            Instr::Ld { addr, .. } => assert_eq!(addr, &Operand::Reg(Reg::new("r9"))),
            other => panic!("unexpected {other:?}"),
        }
        match &t.threads()[0][1] {
            Instr::St { addr, .. } => assert_eq!(addr, &Operand::Sym(Loc::new("y"))),
            other => panic!("unexpected {other:?}"),
        }
        // y was defaulted to global=0.
        assert_eq!(t.memory().region(&"y".into()), Some(crate::Region::Global));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse("X86 sb\nT0 ;\nexists (0:r1=0)\n").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn rejects_unknown_opcode() {
        let src = "GPU_PTX t\nT0 ;\nfrobnicate r1 ;\nexists (0:r1=0)\n";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("unknown opcode"), "{err}");
        assert_eq!(err.line, Some(3));
    }

    #[test]
    fn unknown_opcode_caret_diagnostic() {
        let file = SourceFile::new(
            "bad.litmus",
            "GPU_PTX t\nT0 ;\nfrobnicate r1 ;\nexists (0:r1=0)\n",
        );
        let parsed = parse_with_diagnostics(&file);
        assert!(parsed.has_errors());
        let rendered = render_all(&parsed.diagnostics, &file);
        assert!(rendered.contains("bad.litmus:3:1"), "{rendered}");
        assert!(rendered.contains("frobnicate r1 ;"), "{rendered}");
        assert!(rendered.contains("^^^^^^^^^^"), "{rendered}");
    }

    #[test]
    fn reports_multiple_errors_in_one_pass() {
        let file = SourceFile::new(
            "multi.litmus",
            "GPU_PTX t\nT0 | T1 ;\nfrobnicate r1 | zorble r2 ;\nexists (0:r1=0)\n",
        );
        let parsed = parse_with_diagnostics(&file);
        let errors: Vec<_> = parsed.diagnostics.iter().filter(|d| d.is_error()).collect();
        assert!(errors.len() >= 2, "{:?}", parsed.diagnostics);
        assert!(errors[0].message.contains("frobnicate"));
        assert!(errors[1].message.contains("zorble"));
        // Both land on line 3, different columns.
        assert_eq!(errors[0].line_in(&file), Some(3));
        assert_eq!(errors[1].line_in(&file), Some(3));
        assert_ne!(
            file.pos(errors[0].span.unwrap()).col,
            file.pos(errors[1].span.unwrap()).col
        );
    }

    #[test]
    fn condition_errors_list_expectations() {
        let file = SourceFile::new(
            "c.litmus",
            "GPU_PTX t\nT0 ;\nmov r1,1 ;\nexists (0:r1=0 ;\n",
        );
        let parsed = parse_with_diagnostics(&file);
        assert!(parsed.has_errors());
        let msg = &parsed.diagnostics[0].message;
        assert!(msg.contains("expected"), "{msg}");
        assert!(msg.contains("`)`"), "{msg}");
    }

    #[test]
    fn rejects_too_many_cells() {
        let src = "GPU_PTX t\nT0 ;\nmov r1,1 | mov r1,1 ;\nexists (0:r1=1)\n";
        assert!(parse(src).is_err());
    }

    #[test]
    fn parses_not_exists_and_forall() {
        let src = "GPU_PTX t\nT0 ;\nmov r1,1 ;\n~exists (0:r1=0)\n";
        assert_eq!(parse(src).unwrap().cond().quantifier, Quantifier::NotExists);
        let src = "GPU_PTX t\nT0 ;\nmov r1,1 ;\nforall (0:r1=1)\n";
        assert_eq!(parse(src).unwrap().cond().quantifier, Quantifier::Forall);
    }

    #[test]
    fn parses_ne_or_and_not() {
        let src = "GPU_PTX t\nT0 ;\nmov r1,1 ;\nexists (0:r1!=0 /\\ (0:r1=1 \\/ not (0:r1=2)))\n";
        let t = parse(src).unwrap();
        let mut o = crate::Outcome::new();
        o.set(FinalExpr::reg(0, "r1"), 1);
        assert!(t.cond().pred.eval(&o));
    }

    #[test]
    fn parses_three_cta_scope_tree() {
        let src = "\
GPU_PTX t3
T0 | T1 | T2 ;
st.cg [x],1 | ld.cg r1,[x] | ld.cg r1,[x] ;
ScopeTree(grid(cta(warp T0)(warp T1))(cta(warp T2)))
x: global
exists (1:r1=1 /\\ 2:r1=0)
";
        let t = parse(src).unwrap();
        assert!(t.scope_tree().same_cta(0, 1));
        assert!(!t.scope_tree().same_cta(0, 2));
    }

    #[test]
    fn roundtrip_through_printer() {
        let t = parse(SB).unwrap();
        let printed = t.to_string();
        let t2 = parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(t, t2);
    }
}
