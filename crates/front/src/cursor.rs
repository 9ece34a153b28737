//! A recursive-descent token cursor with expected-set accumulation.
//!
//! The cursor owns no grammar: callers [`Cursor::eat`] / [`Cursor::expect`]
//! token kinds and [`Cursor::rewind`] to backtrack. Every failed match at
//! the *furthest position reached so far* is recorded, so when the whole
//! parse fails the error lists everything that would have been legal there
//! — "expected `;`, `|` or end of line, found `^-1`" — instead of whatever
//! the last alternative happened to want.

use crate::diag::Diagnostic;
use crate::span::Span;

/// What a token kind must provide: equality for matching and a short
/// human name for "expected …" lists (e.g. `` `;` `` or `identifier`).
pub trait TokenKind: Clone + PartialEq {
    /// How the kind reads inside an "expected …" message.
    fn describe(&self) -> String;
}

/// One token: a kind plus where it came from.
#[derive(Clone, PartialEq, Debug)]
pub struct Token<K> {
    /// The token's kind (usually carrying its text).
    pub kind: K,
    /// Its source span.
    pub span: Span,
}

impl<K> Token<K> {
    /// Bundles a kind with its span.
    pub fn new(kind: K, span: Span) -> Self {
        Token { kind, span }
    }
}

/// A cursor over a token slice.
///
/// Positions returned by [`Cursor::mark`] are plain indices; [`Cursor::rewind`]
/// restores them, for the rare rule that must look one token ahead.
pub struct Cursor<'t, K: TokenKind> {
    tokens: &'t [Token<K>],
    pos: usize,
    /// Zero-width position just past the last token (for EOF spans).
    eof: Span,
    /// Furthest position any match was attempted at.
    furthest: usize,
    /// Descriptions of kinds that failed to match at `furthest`.
    expected: Vec<String>,
}

impl<'t, K: TokenKind> Cursor<'t, K> {
    /// A cursor at the start of `tokens`. `eof_at` is the byte offset used
    /// for errors reported past the last token.
    pub fn new(tokens: &'t [Token<K>], eof_at: usize) -> Self {
        Cursor {
            tokens,
            pos: 0,
            eof: Span::point(eof_at),
            furthest: 0,
            expected: Vec::new(),
        }
    }

    /// Current index into the token stream.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Saves the current position for a later [`Cursor::rewind`].
    #[must_use]
    pub fn mark(&self) -> usize {
        self.pos
    }

    /// Restores a position saved by [`Cursor::mark`]. The expected-set
    /// bookkeeping is *not* rewound — that is the point: failures at the
    /// furthest position survive backtracking.
    pub fn rewind(&mut self, mark: usize) {
        self.pos = mark;
    }

    /// `true` once every token is consumed.
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// The current token, if any.
    #[must_use]
    pub fn peek(&self) -> Option<&Token<K>> {
        self.tokens.get(self.pos)
    }

    /// The current token's kind, if any.
    #[must_use]
    pub fn peek_kind(&self) -> Option<&K> {
        self.peek().map(|t| &t.kind)
    }

    /// The span of the current token, or the EOF point.
    #[must_use]
    pub fn here(&self) -> Span {
        self.peek().map_or(self.eof, |t| t.span)
    }

    /// Consumes and returns the current token unconditionally.
    pub fn bump(&mut self) -> Option<&'t Token<K>> {
        let t = self.tokens.get(self.pos)?;
        self.pos += 1;
        if self.pos > self.furthest {
            self.furthest = self.pos;
            self.expected.clear();
        }
        t.into()
    }

    /// Consumes the current token iff its kind equals `kind`; records the
    /// expectation on failure.
    pub fn eat(&mut self, kind: &K) -> Option<&'t Token<K>> {
        if self.peek_kind() == Some(kind) {
            self.bump()
        } else {
            self.note_expected(kind.describe());
            None
        }
    }

    /// Consumes the current token iff `f` maps its kind to `Some`; records
    /// `wanted` as the expectation on failure. This is the hook for token
    /// classes ("identifier", "number") rather than exact kinds.
    pub fn eat_map<R>(&mut self, wanted: &str, f: impl Fn(&K) -> Option<R>) -> Option<(R, Span)> {
        match self.peek() {
            Some(t) => match f(&t.kind) {
                Some(r) => {
                    let span = t.span;
                    self.bump();
                    Some((r, span))
                }
                None => {
                    self.note_expected(wanted.to_string());
                    None
                }
            },
            None => {
                self.note_expected(wanted.to_string());
                None
            }
        }
    }

    /// Like [`Cursor::eat`] but produces the accumulated "expected …"
    /// diagnostic on failure.
    ///
    /// # Errors
    ///
    /// Returns the furthest-failure diagnostic when the kinds differ.
    pub fn expect(&mut self, kind: &K) -> Result<&'t Token<K>, Diagnostic> {
        match self.eat(kind) {
            Some(t) => Ok(t),
            None => Err(self.expected_error()),
        }
    }

    /// Records that `what` would have been legal at the current position,
    /// feeding the furthest-failure expected set.
    pub fn note_expected(&mut self, what: String) {
        if self.pos > self.furthest {
            self.furthest = self.pos;
            self.expected.clear();
        }
        if self.pos == self.furthest && !self.expected.contains(&what) {
            self.expected.push(what);
        }
    }

    /// The diagnostic for the accumulated furthest failure: "expected X, Y
    /// or Z, found W", spanned at the furthest token reached.
    #[must_use]
    pub fn expected_error(&self) -> Diagnostic {
        let at = self.furthest.max(self.pos);
        let (found, span) = match self.tokens.get(at) {
            Some(t) => (format!("found {}", t.kind.describe()), t.span),
            None => ("found end of input".to_string(), self.eof),
        };
        let msg = if self.expected.is_empty() {
            format!("unexpected input; {found}")
        } else {
            format!("expected {}, {found}", join_or(&self.expected))
        };
        Diagnostic::error(msg).with_span(span)
    }

    /// Skips tokens until `stop` matches or the stream ends; used for
    /// error recovery (resynchronise on `;`, a keyword, …). Returns how
    /// many tokens were skipped.
    pub fn skip_until(&mut self, stop: impl Fn(&K) -> bool) -> usize {
        let from = self.pos;
        while let Some(k) = self.peek_kind() {
            if stop(k) {
                break;
            }
            self.pos += 1;
        }
        if self.pos > self.furthest {
            self.furthest = self.pos;
            self.expected.clear();
        }
        self.pos - from
    }
}

/// "a", "a or b", "a, b or c".
fn join_or(items: &[String]) -> String {
    match items {
        [] => String::new(),
        [one] => one.clone(),
        [init @ .., last] => format!("{} or {}", init.join(", "), last),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, PartialEq, Debug)]
    enum K {
        Ident(String),
        Sym(char),
    }

    impl TokenKind for K {
        fn describe(&self) -> String {
            match self {
                K::Ident(s) => format!("identifier `{s}`"),
                K::Sym(c) => format!("`{c}`"),
            }
        }
    }

    fn toks(spec: &str) -> Vec<Token<K>> {
        // Each whitespace-separated word is a token; single punctuation
        // chars become Sym, everything else Ident. Spans are synthetic.
        let mut out = Vec::new();
        let mut at = 0usize;
        for w in spec.split_whitespace() {
            let kind = if w.len() == 1 && !w.chars().next().unwrap().is_alphanumeric() {
                K::Sym(w.chars().next().unwrap())
            } else {
                K::Ident(w.to_string())
            };
            out.push(Token::new(kind, Span::new(at, at + w.len())));
            at += w.len() + 1;
        }
        out
    }

    #[test]
    fn eat_and_expect() {
        let ts = toks("let x = y");
        let mut c = Cursor::new(&ts, 9);
        assert!(c.eat(&K::Ident("let".into())).is_some());
        assert!(c.eat(&K::Sym('=')).is_none()); // actually `x`
        assert!(c.eat(&K::Ident("x".into())).is_some());
        assert!(c.expect(&K::Sym('=')).is_ok());
        assert!(c.eat(&K::Ident("y".into())).is_some());
        assert!(c.at_end());
    }

    #[test]
    fn furthest_failure_wins_over_backtracking() {
        let ts = toks("a b !");
        let mut c = Cursor::new(&ts, 5);
        // Alternative 1: a b c — fails at position 2 wanting `c`.
        let m = c.mark();
        assert!(c.eat(&K::Ident("a".into())).is_some());
        assert!(c.eat(&K::Ident("b".into())).is_some());
        assert!(c.eat(&K::Ident("c".into())).is_none());
        c.rewind(m);
        // Alternative 2: x — fails immediately at position 0.
        assert!(c.eat(&K::Ident("x".into())).is_none());
        // The error reports the *furthest* failure (position 2), not the
        // most recent one, and lists what was expected there.
        let err = c.expected_error();
        assert!(err.message.contains("expected identifier `c`"), "{err:?}");
        assert!(err.message.contains("found `!`"), "{err:?}");
        assert_eq!(err.span, Some(Span::new(4, 5)));
    }

    #[test]
    fn expected_set_accumulates_alternatives() {
        let ts = toks("q");
        let mut c = Cursor::new(&ts, 1);
        assert!(c.eat(&K::Ident("a".into())).is_none());
        assert!(c.eat(&K::Ident("b".into())).is_none());
        assert!(c.eat(&K::Ident("a".into())).is_none()); // duplicate — deduped
        let err = c.expected_error();
        assert!(
            err.message
                .contains("expected identifier `a` or identifier `b`"),
            "{err:?}"
        );
    }

    #[test]
    fn eat_map_classes() {
        let ts = toks("x 7"); // both Idents under this toy lexer
        let mut c = Cursor::new(&ts, 3);
        let (name, span) = c
            .eat_map("identifier", |k| match k {
                K::Ident(s) if !s.chars().next().unwrap().is_ascii_digit() => Some(s.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(name, "x");
        assert_eq!(span, Span::new(0, 1));
        assert!(c
            .eat_map("identifier", |k| match k {
                K::Ident(s) if !s.chars().next().unwrap().is_ascii_digit() => Some(s.clone()),
                _ => None,
            })
            .is_none());
    }

    #[test]
    fn skip_until_recovers() {
        let ts = toks("junk junk ; next");
        let mut c = Cursor::new(&ts, 16);
        let skipped = c.skip_until(|k| *k == K::Sym(';'));
        assert_eq!(skipped, 2);
        assert_eq!(c.peek_kind(), Some(&K::Sym(';')));
    }

    #[test]
    fn eof_error() {
        let ts = toks("a");
        let mut c = Cursor::new(&ts, 1);
        c.bump();
        assert!(c.eat(&K::Sym(';')).is_none());
        let err = c.expected_error();
        assert!(err.message.contains("found end of input"), "{err:?}");
        assert_eq!(err.span, Some(Span::point(1)));
    }
}
