//! Byte-offset spans.

use std::fmt;

/// A half-open byte range `[start, end)` into one [`crate::SourceFile`].
///
/// Spans are plain offsets — they carry no file identity. All the
/// grammars in this workspace parse one file at a time, so the file is
/// threaded separately (e.g. into [`crate::Diagnostic::render`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Span {
    /// Inclusive start byte offset.
    pub start: u32,
    /// Exclusive end byte offset.
    pub end: u32,
}

impl Span {
    /// A span over `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the offsets exceed `u32::MAX` — source files are bounded
    /// well below 4 GiB.
    #[must_use]
    pub fn new(start: usize, end: usize) -> Self {
        Span {
            start: u32::try_from(start).expect("source offset fits u32"),
            end: u32::try_from(end.max(start)).expect("source offset fits u32"),
        }
    }

    /// A zero-width span at `at` (e.g. an end-of-file position).
    #[must_use]
    pub fn point(at: usize) -> Self {
        Span::new(at, at)
    }

    /// The smallest span covering both `self` and `other`.
    #[must_use]
    pub fn join(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// `true` for zero-width spans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_covers_both() {
        let a = Span::new(3, 7);
        let b = Span::new(5, 12);
        assert_eq!(a.join(b), Span::new(3, 12));
        assert_eq!(b.join(a), Span::new(3, 12));
    }

    #[test]
    fn point_is_empty() {
        let p = Span::point(4);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn new_clamps_inverted_ranges() {
        let s = Span::new(5, 2);
        assert_eq!(s.start, 5);
        assert_eq!(s.end, 5);
    }
}
