//! Diagnostics: severity, message, span, notes — and the caret renderer.

use std::fmt;

use crate::source::SourceFile;
use crate::span::Span;

/// How bad a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Informational — never affects exit status.
    Note,
    /// Suspicious but accepted input.
    Warning,
    /// The input is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One problem (or remark) found in a source file.
///
/// Rendered with [`Diagnostic::render`] as the familiar compiler shape:
///
/// ```text
/// error: unknown opcode "frobnicate"
///   --> tests/bad.litmus:3:1
///    |
///  3 | frobnicate r1 ;
///    | ^^^^^^^^^^
///    = note: opcodes are ld, st, atom, membar, mov, …
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Error, warning or note.
    pub severity: Severity,
    /// The primary message.
    pub message: String,
    /// The primary position, when attributable.
    pub span: Option<Span>,
    /// Secondary remarks, rendered as `= note: …` lines.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// An error with no span yet.
    pub fn error(message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            message: message.into(),
            span: None,
            notes: Vec::new(),
        }
    }

    /// A warning with no span yet.
    pub fn warning(message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(message)
        }
    }

    /// Attaches the primary span.
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Appends a note.
    #[must_use]
    pub fn with_note(mut self, message: impl Into<String>) -> Self {
        self.notes.push(message.into());
        self
    }

    /// `true` for error severity.
    #[must_use]
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// The 1-based line of the primary span in `file`, when spanned.
    #[must_use]
    pub fn line_in(&self, file: &SourceFile) -> Option<usize> {
        self.span.map(|s| file.pos(s).line as usize)
    }

    /// Renders the full caret-underline form (see the type-level example).
    #[must_use]
    pub fn render(&self, file: &SourceFile) -> String {
        let mut out = format!("{}: {}\n", self.severity, self.message);
        if let Some(span) = self.span {
            let pos = file.pos(span);
            let line_text = file.line_text(pos.line);
            let gutter = pos.line.to_string();
            let pad = " ".repeat(gutter.len());
            out.push_str(&format!("{pad}--> {}:{pos}\n", file.name()));
            out.push_str(&format!("{pad} |\n"));
            // The span's first line, cut to a window around the caret.
            let line_start = file.line_start(pos.line);
            let col = |b: u32| (b as usize).saturating_sub(line_start).min(line_text.len());
            let (start, end) = (col(span.start), col(span.end).max(col(span.start)));
            let (lo, hi) = window(line_text, start);
            let open = if lo > 0 { "…" } else { "" };
            let close = if hi < line_text.len() { "…" } else { "" };
            let echo = format!("{open}{}", &line_text[lo..hi]);
            let at = |b: usize| b - lo + open.len();
            let carets = caret_line(&echo, at(start), at(end.min(hi)));
            out.push_str(&format!("{gutter} | {echo}{close}\n"));
            out.push_str(&format!("{pad} | {carets}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("  = note: {note}\n"));
        }
        out
    }
}

/// Characters of a source line a diagnostic echoes: a longer line is cut
/// to this many around the caret.
const ECHO_CHARS: usize = 120;

/// The byte range of `line` that a diagnostic with its caret at byte
/// `start` echoes: all of it, or [`ECHO_CHARS`] characters with the
/// caret at most half of them from the start.
fn window(line: &str, start: usize) -> (usize, usize) {
    let chars = line.chars().count();
    if chars <= ECHO_CHARS {
        return (0, line.len());
    }
    let from = line[..start]
        .chars()
        .count()
        .saturating_sub(ECHO_CHARS / 2)
        .min(chars - ECHO_CHARS);
    let byte = |k: usize| line.char_indices().nth(k).map_or(line.len(), |(i, _)| i);
    (byte(from), byte(from + ECHO_CHARS))
}

/// The `^^^^` underline of bytes `start..end` of `text`. Tabs in the
/// leading text are preserved so the carets stay aligned in terminals.
fn caret_line(text: &str, start: usize, end: usize) -> String {
    let lead = text[..start]
        .chars()
        .map(|c| if c == '\t' { '\t' } else { ' ' });
    let width = text[start..end].chars().count().max(1);
    lead.chain(std::iter::repeat_n('^', width)).collect()
}

/// Renders every diagnostic in order, blank-line separated.
#[must_use]
pub fn render_all(diags: &[Diagnostic], file: &SourceFile) -> String {
    let mut out = String::new();
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&d.render(file));
    }
    out
}

/// `true` if any diagnostic is an error.
#[must_use]
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(Diagnostic::is_error)
}

/// The outcome of a diagnosing parse: possibly a value, plus everything
/// the parser had to say. A parser with error recovery can report many
/// errors in one pass, and can produce warnings alongside a success.
#[derive(Clone, Debug)]
pub struct Parsed<T> {
    /// The parsed value — `Some` only if parsing recovered enough to
    /// build one (there may still be *warnings* in `diagnostics`).
    pub value: Option<T>,
    /// All diagnostics, in source order.
    pub diagnostics: Vec<Diagnostic>,
}

impl<T> Parsed<T> {
    /// A clean success.
    pub fn success(value: T) -> Self {
        Parsed {
            value: Some(value),
            diagnostics: Vec::new(),
        }
    }

    /// A failure carrying its diagnostics.
    pub fn failure(diagnostics: Vec<Diagnostic>) -> Self {
        Parsed {
            value: None,
            diagnostics,
        }
    }

    /// `true` if any diagnostic is an error.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        has_errors(&self.diagnostics)
    }

    /// Collapses to `Ok(value)` iff a value was produced *and* no error
    /// diagnostics were emitted; otherwise `Err(all diagnostics)`.
    ///
    /// # Errors
    ///
    /// Returns every collected diagnostic (an "empty input" error is
    /// synthesised if a parser produced neither value nor diagnostics).
    pub fn into_result(self) -> Result<T, Vec<Diagnostic>> {
        if has_errors(&self.diagnostics) {
            return Err(self.diagnostics);
        }
        match self.value {
            Some(v) => Ok(v),
            None => {
                let mut diags = self.diagnostics;
                if diags.is_empty() {
                    diags.push(Diagnostic::error("empty input"));
                }
                Err(diags)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caret_spans_the_token() {
        let f = SourceFile::new("a.litmus", "GPU_PTX t\nfrobnicate r1 ;\n");
        let span = f.span_of_substr("frobnicate").unwrap();
        let d = Diagnostic::error("unknown opcode").with_span(span);
        let r = d.render(&f);
        assert!(r.contains("error: unknown opcode"), "{r}");
        assert!(r.contains("--> a.litmus:2:1"), "{r}");
        assert!(r.contains("2 | frobnicate r1 ;"), "{r}");
        assert!(r.contains("| ^^^^^^^^^^\n"), "{r}");
    }

    #[test]
    fn caret_mid_line_alignment() {
        let f = SourceFile::new("f", "let x = po ^ 2\n");
        let span = f.span_of_substr("^").unwrap();
        let r = Diagnostic::error("stray '^'").with_span(span).render(&f);
        let caret_row = r.lines().nth(4).unwrap();
        let src_row = r.lines().nth(3).unwrap();
        // The caret column in the underline row matches '^' in the source row.
        assert_eq!(
            caret_row.find('^').unwrap(),
            src_row.find("^ 2").unwrap(),
            "{r}"
        );
    }

    #[test]
    fn eof_spans_render() {
        let f = SourceFile::new("f", "acyclic po");
        let d = Diagnostic::error("expected 'as'").with_span(f.eof_span());
        let r = d.render(&f);
        assert!(r.contains("f:1:11"), "{r}");
        assert!(r.contains('^'), "{r}");
    }

    #[test]
    fn notes_render_after_the_caret() {
        let f = SourceFile::new("m.cat", "let x = po\n");
        let span = f.span_of_substr("po").unwrap();
        let d = Diagnostic::warning("shadowed binding")
            .with_span(span)
            .with_note("previous definition here");
        let r = d.render(&f);
        assert!(r.contains("= note: previous definition here"), "{r}");
        assert!(r.find('^').unwrap() < r.find("= note").unwrap(), "{r}");
    }

    #[test]
    fn parsed_result_semantics() {
        let ok: Parsed<i32> = Parsed::success(7);
        assert_eq!(ok.into_result().unwrap(), 7);

        let warned = Parsed {
            value: Some(7),
            diagnostics: vec![Diagnostic::warning("meh")],
        };
        assert_eq!(warned.into_result().unwrap(), 7);

        let failed: Parsed<i32> = Parsed::failure(vec![Diagnostic::error("no")]);
        assert_eq!(failed.into_result().unwrap_err().len(), 1);

        let empty: Parsed<i32> = Parsed {
            value: None,
            diagnostics: vec![],
        };
        assert!(empty.into_result().is_err());
    }

    #[test]
    fn render_all_separates() {
        let f = SourceFile::new("f", "a\nb\n");
        let ds = vec![
            Diagnostic::error("one").with_span(Span::new(0, 1)),
            Diagnostic::error("two").with_span(Span::new(2, 3)),
        ];
        let r = render_all(&ds, &f);
        assert!(r.contains("error: one"), "{r}");
        assert!(r.contains("error: two"), "{r}");
        assert!(has_errors(&ds));
        assert!(!has_errors(&[Diagnostic::warning("w")]));
    }
}
