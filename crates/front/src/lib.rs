//! Shared parsing frontend for the `weakgpu` textual formats.
//!
//! Both front doors of the system — the GPU litmus format (paper Fig. 12)
//! and the `.cat` model language (paper Figs. 15–16) — parse through this
//! crate, by plain recursive descent. It provides:
//!
//! * [`SourceFile`] — a named source text with byte-offset → `line:col`
//!   mapping and line extraction,
//! * [`Span`] — half-open byte ranges attached to tokens and diagnostics,
//! * [`Diagnostic`] — severity + message + span + notes, rendered as a
//!   compiler-style caret underline ([`Diagnostic::render`]),
//! * [`Cursor`] — a recursive-descent cursor over a spanned token stream
//!   with *expected-token-set accumulation*: every failed [`Cursor::eat`]
//!   at the furthest point reached is remembered, so the eventual error
//!   reads "expected X, Y or Z, found W at line:col",
//! * [`binary_chain`] — left-associative binary operators of several
//!   precedences, read in one loop,
//! * [`MAX_DEPTH`] and [`deeper`] — the one bound on how deep any input
//!   may nest, shared with the JSON reader of `weakgpu-harness`.
//!
//! The crate is deliberately dependency-free and knows nothing about
//! litmus tests or `.cat` programs; the language crates build their
//! grammars on top of it.
//!
//! # Example
//!
//! ```
//! use weakgpu_front::{Diagnostic, SourceFile};
//!
//! let file = SourceFile::new("demo.litmus", "GPU_PTX t\nfrobnicate r1 ;\n");
//! let span = file.span_of_substr("frobnicate").unwrap();
//! let diag = Diagnostic::error("unknown opcode \"frobnicate\"").with_span(span);
//! let rendered = diag.render(&file);
//! assert!(rendered.contains("demo.litmus:2:1"));
//! assert!(rendered.contains("^^^^^^^^^^"));
//! ```

pub mod cursor;
pub mod diag;
pub mod source;
pub mod span;

pub use cursor::{Cursor, Token, TokenKind};
pub use diag::{has_errors, render_all, Diagnostic, Parsed, Severity};
pub use source::{LineCol, SourceFile};
pub use span::Span;

/// How deep any parsed input may nest.
///
/// It bounds two counts, each at this value:
///
/// * **levels of the tree a parser returns**, counting the leaf: every
///   binary operator of a chain, `not`, a postfix operator and a `.cat`
///   function application adds one. Printing, judging, fingerprinting
///   and dropping a tree recurse once per level;
/// * **parentheses around a token** (a function application's included),
///   each of which costs the parser one recursion.
///
/// Every printer in the workspace writes at most one parenthesis per
/// level (a condition's `exists (…)` is paid for by the leaf's level),
/// so no tree within the bound prints parentheses nested past it.
///
/// The JSON reader counts nested arrays and objects against it.
///
/// Measured with no bound in a 2 MB debug test thread, on inputs that
/// are parsed, printed, re-parsed, judged and dropped
/// (`tests/input_depth.rs`): `.cat` expressions of every form overflow
/// between 348 and 352 levels (each prints one parenthesis per level,
/// and a parenthesis costs the parser about 6 KB of debug stack);
/// conditions in parentheses, `\/` chains or `not` runs between 478 and
/// 485; `/\` chains between 2,769 and 2,773. 128 is under 40 % of the
/// shallowest, and 25 times the deepest shipped or generated input
/// (`ptx.cat`, 5 levels).
pub const MAX_DEPTH: usize = 128;

/// One level deeper than `levels`, or the diagnostic at `span` — the
/// token that would cross [`MAX_DEPTH`].
///
/// # Errors
///
/// Returns the "nests deeper than" error when `levels` is already at
/// the bound.
pub fn deeper(levels: usize, span: Span) -> Result<usize, Diagnostic> {
    if levels < MAX_DEPTH {
        Ok(levels + 1)
    } else {
        Err(
            Diagnostic::error(format!("input nests deeper than {MAX_DEPTH} levels"))
                .with_span(span),
        )
    }
}

/// A binary operator: its token and the node it builds from its two
/// operands.
pub type BinaryOp<K, T> = (K, fn(T, T) -> T);

/// Parses `operand (op operand)*` over the binary operators `ops`, listed
/// from the tightest-binding, all associating to the left; returns the
/// tree and its levels.
///
/// Every operator is tried after each operand, in the order listed, so
/// the expected set names them all. Operators wait on an explicit stack
/// until their precedence is settled: a chain of any length and any mix
/// of precedences costs one frame of this function, and a caller that
/// recurses through it for parentheses pays one frame per parenthesis,
/// not one per precedence level.
///
/// # Errors
///
/// Returns the first error of `operand`, or [`deeper`]'s at the
/// operator whose node would cross [`MAX_DEPTH`].
pub fn binary_chain<K: TokenKind, T>(
    cur: &mut Cursor<'_, K>,
    ops: &[BinaryOp<K, T>],
    mut operand: impl FnMut(&mut Cursor<'_, K>) -> Result<(T, usize), Diagnostic>,
) -> Result<(T, usize), Diagnostic> {
    let mut operands = vec![operand(cur)?];
    // Operators still waiting for their right operand: index, span.
    let mut pending: Vec<(usize, Span)> = Vec::new();
    loop {
        let next = ops
            .iter()
            .enumerate()
            .find_map(|(i, (k, _))| cur.eat(k).map(|t| (i, t.span)));
        // Settle the pending operators that bind at least as tightly.
        let bind = next.map_or(ops.len(), |(i, _)| i);
        while let Some(&(i, span)) = pending.last().filter(|(i, _)| *i <= bind) {
            pending.pop();
            let (b, b_levels) = operands.pop().expect("an operand per operator");
            let (a, a_levels) = operands.pop().expect("an operand per operator");
            let levels = deeper(a_levels.max(b_levels), span)?;
            operands.push((ops[i].1(a, b), levels));
        }
        match next {
            Some(op) => {
                pending.push(op);
                operands.push(operand(cur)?);
            }
            None => return Ok(operands.pop().expect("one operand left")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-character tokens: `a` is an operand, `*` and `+` operators.
    #[derive(Clone, PartialEq, Debug)]
    struct Ch(char);

    impl TokenKind for Ch {
        fn describe(&self) -> String {
            format!("`{}`", self.0)
        }
    }

    const OPS: [BinaryOp<Ch, String>; 2] = [
        (Ch('*'), |a, b| format!("({a}*{b})")),
        (Ch('+'), |a, b| format!("({a}+{b})")),
    ];

    /// Parses `src` and returns the tree, its levels, and whether every
    /// token was consumed.
    fn chain(src: &str) -> (Result<(String, usize), Diagnostic>, Diagnostic, bool) {
        let toks: Vec<_> = src
            .char_indices()
            .map(|(i, c)| Token::new(Ch(c), Span::new(i, i + 1)))
            .collect();
        let mut cur = Cursor::new(&toks, src.len());
        let out = binary_chain(&mut cur, &OPS, |cur| match cur.eat(&Ch('a')) {
            Some(_) => Ok(("a".to_owned(), 1)),
            None => Err(cur.expected_error()),
        });
        (out, cur.expected_error(), cur.at_end())
    }

    #[test]
    fn chains_group_by_precedence_then_to_the_left() {
        let (out, _, done) = chain("a+a*a*a+a");
        assert_eq!(out.unwrap(), ("((a+((a*a)*a))+a)".to_owned(), 5));
        assert!(done);
    }

    #[test]
    fn every_operator_is_expected_after_an_operand() {
        let (out, expected, done) = chain("a+aa");
        assert_eq!(out.unwrap().0, "(a+a)");
        assert!(!done);
        assert_eq!(expected.message, "expected `*` or `+`, found `a`");
    }

    #[test]
    fn a_chain_past_the_bound_fails_at_its_crossing_operator() {
        let at_bound = vec!["a"; MAX_DEPTH].join("+");
        assert_eq!(chain(&at_bound).0.unwrap().1, MAX_DEPTH);
        let past = vec!["a"; MAX_DEPTH + 1].join("+");
        let err = chain(&past).0.unwrap_err();
        assert_eq!(
            err.message,
            format!("input nests deeper than {MAX_DEPTH} levels")
        );
        // The last `+`, one byte before the last operand.
        assert_eq!(err.span, Some(Span::new(past.len() - 2, past.len() - 1)));
    }
}
