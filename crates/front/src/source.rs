//! Source files and byte-offset → `line:col` mapping.

use std::fmt;

use crate::span::Span;

/// A 1-based line/column position.
///
/// Columns count *characters* (not bytes), matching what an editor shows.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LineCol {
    /// 1-based line number.
    pub line: u32,
    /// 1-based character column.
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One named source text with a precomputed line index.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourceFile {
    name: String,
    text: String,
    /// Byte offset of the start of each line (line 1 starts at 0).
    line_starts: Vec<u32>,
}

impl SourceFile {
    /// Wraps `text` under display name `name` (usually the path).
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> Self {
        let text = text.into();
        let mut line_starts = vec![0u32];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(u32::try_from(i + 1).expect("source fits u32"));
            }
        }
        SourceFile {
            name: name.into(),
            text,
            line_starts,
        }
    }

    /// The display name (path) of the file.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full source text.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The 1-based line containing byte `offset` (clamped to the last
    /// line for out-of-range offsets).
    #[must_use]
    pub fn line_of(&self, offset: usize) -> u32 {
        let offset = u32::try_from(offset.min(self.text.len())).expect("source fits u32");
        match self.line_starts.binary_search(&offset) {
            Ok(i) => u32::try_from(i + 1).expect("line count fits u32"),
            Err(i) => u32::try_from(i).expect("line count fits u32"),
        }
    }

    /// Maps a byte offset to its 1-based [`LineCol`].
    #[must_use]
    pub fn line_col(&self, offset: usize) -> LineCol {
        let offset = offset.min(self.text.len());
        let line = self.line_of(offset);
        let start = self.line_starts[(line - 1) as usize] as usize;
        let col = self.text[start..offset].chars().count() + 1;
        LineCol {
            line,
            col: u32::try_from(col).expect("column fits u32"),
        }
    }

    /// The [`LineCol`] of a span's start.
    #[must_use]
    pub fn pos(&self, span: Span) -> LineCol {
        self.line_col(span.start as usize)
    }

    /// The text of 1-based line `line`, without its trailing newline.
    /// Empty for out-of-range lines.
    #[must_use]
    pub fn line_text(&self, line: u32) -> &str {
        let Some(&start) = self.line_starts.get((line.max(1) - 1) as usize) else {
            return "";
        };
        let rest = &self.text[start as usize..];
        rest.lines().next().unwrap_or("")
    }

    /// The byte offset where 1-based `line` starts.
    #[must_use]
    pub fn line_start(&self, line: u32) -> usize {
        self.line_starts
            .get((line.max(1) - 1) as usize)
            .copied()
            .unwrap_or_else(|| u32::try_from(self.text.len()).expect("source fits u32"))
            as usize
    }

    /// The span of a `&str` that *borrows from this file's text* —
    /// pointer arithmetic turns any slice produced by `split`, `trim`,
    /// `strip_prefix` … back into positions, so line-oriented grammars
    /// get precise spans without a separate tokenizer.
    ///
    /// Returns `None` if `slice` does not point into this file.
    #[must_use]
    pub fn span_of(&self, slice: &str) -> Option<Span> {
        let base = self.text.as_ptr() as usize;
        let p = slice.as_ptr() as usize;
        if p < base || p + slice.len() > base + self.text.len() {
            return None;
        }
        let start = p - base;
        Some(Span::new(start, start + slice.len()))
    }

    /// The span of the first occurrence of `needle` in the text —
    /// convenience for tests and synthetic sources.
    #[must_use]
    pub fn span_of_substr(&self, needle: &str) -> Option<Span> {
        let start = self.text.find(needle)?;
        Some(Span::new(start, start + needle.len()))
    }

    /// A zero-width span at end of file.
    #[must_use]
    pub fn eof_span(&self) -> Span {
        Span::point(self.text.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_mapping() {
        let f = SourceFile::new("t", "ab\ncdef\n\nx");
        assert_eq!(f.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(f.line_col(1), LineCol { line: 1, col: 2 });
        assert_eq!(f.line_col(3), LineCol { line: 2, col: 1 });
        assert_eq!(f.line_col(6), LineCol { line: 2, col: 4 });
        assert_eq!(f.line_col(8), LineCol { line: 3, col: 1 });
        assert_eq!(f.line_col(9), LineCol { line: 4, col: 1 });
        // Past-the-end clamps to EOF.
        assert_eq!(f.line_col(999), LineCol { line: 4, col: 2 });
    }

    #[test]
    fn line_text_extraction() {
        let f = SourceFile::new("t", "first\nsecond\nthird");
        assert_eq!(f.line_text(1), "first");
        assert_eq!(f.line_text(2), "second");
        assert_eq!(f.line_text(3), "third");
        assert_eq!(f.line_text(9), "");
    }

    #[test]
    fn columns_count_chars_not_bytes() {
        let f = SourceFile::new("t", "é x");
        // 'é' is two bytes; 'x' is at byte 3 but char column 3.
        assert_eq!(f.line_col(3), LineCol { line: 1, col: 3 });
    }

    #[test]
    fn span_of_borrowed_slices() {
        let f = SourceFile::new("t", "GPU_PTX name\nrow | cell ;\n");
        let line2 = f.text().lines().nth(1).unwrap();
        let cell = line2.split('|').nth(1).unwrap().trim();
        let span = f.span_of(cell).unwrap();
        assert_eq!(&f.text()[span.start as usize..span.end as usize], "cell ;");
        assert_eq!(f.pos(span), LineCol { line: 2, col: 7 });
        // A slice from elsewhere is rejected.
        assert_eq!(f.span_of("not from this file"), None);
    }
}
