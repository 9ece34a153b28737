//! Finite binary relations over event ids, as dense bit matrices, plus the
//! relational algebra the `.cat` language needs: union, intersection,
//! difference, composition, inverse, closures, sort filters and acyclicity.
//!
//! Litmus executions have at most a few dozen events, so an `n × n` bit
//! matrix (one `u64` row segment per 64 events) is both the simplest and the
//! fastest representation.
//!
//! Every operator comes in two forms: an allocating method (`union`,
//! `seq`, …) returning a fresh [`Relation`], and an in-place `*_from`
//! variant writing into an existing buffer (`union_from`, `seq_from`, …).
//! The in-place forms reuse the destination's allocation whenever the
//! universe fits its capacity, which is what lets the compiled-plan
//! evaluator ([`crate::plan`]) judge thousands of candidate executions,
//! one at a time, without touching the heap.

use std::fmt;

/// A set of event ids in `0..n`, as a bitset.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct EventSet {
    n: usize,
    bits: Vec<u64>,
}

impl Default for EventSet {
    /// The empty set over the empty universe.
    fn default() -> Self {
        EventSet::empty(0)
    }
}

impl EventSet {
    /// The empty set over a universe of `n` events.
    pub fn empty(n: usize) -> Self {
        EventSet {
            n,
            bits: vec![0; n.div_ceil(64)],
        }
    }

    /// The full set over a universe of `n` events: whole words are set at
    /// once and the tail word masked, rather than inserting bit by bit.
    pub fn full(n: usize) -> Self {
        let mut bits = vec![!0u64; n.div_ceil(64)];
        if let Some(last) = bits.last_mut() {
            *last &= tail_mask(n);
        }
        EventSet { n, bits }
    }

    /// Builds a set from the ids yielded by `iter`.
    pub fn from_iter_n(n: usize, iter: impl IntoIterator<Item = usize>) -> Self {
        let mut s = EventSet::empty(n);
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// Reinitialises to the empty set over `n` events, reusing the
    /// allocation when the capacity suffices.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.bits.clear();
        self.bits.resize(n.div_ceil(64), 0);
    }

    /// Becomes a copy of `src`, reusing the allocation.
    pub fn copy_from(&mut self, src: &EventSet) {
        self.n = src.n;
        self.bits.clear();
        self.bits.extend_from_slice(&src.bits);
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Inserts `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.n, "event id {i} out of universe {}", self.n);
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        i < self.n && self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no members.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterates members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(|&i| self.contains(i))
    }

    /// The `w`-th 64-bit word of the membership mask (0 past the end).
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.bits.get(w).copied().unwrap_or(0)
    }
}

/// The mask selecting the valid bits of the last word of an `n`-bit row.
fn tail_mask(n: usize) -> u64 {
    match n % 64 {
        0 => !0,
        k => (1u64 << k) - 1,
    }
}

/// A binary relation over event ids `0..n`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Relation {
    n: usize,
    words: usize,
    rows: Vec<u64>,
}

impl Default for Relation {
    /// The empty relation over the empty universe.
    fn default() -> Self {
        Relation::empty(0)
    }
}

impl Relation {
    /// The empty relation over `n` events.
    pub fn empty(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        Relation {
            n,
            words,
            rows: vec![0; n * words],
        }
    }

    /// The identity relation over `n` events.
    pub fn identity(n: usize) -> Self {
        let mut r = Relation::empty(n);
        r.add_identity();
        r
    }

    /// The full (universal) relation over `n` events: each row is written
    /// as whole words with a masked tail, not bit by bit.
    pub fn full(n: usize) -> Self {
        let mut r = Relation::empty(n);
        r.fill_full();
        r
    }

    /// Builds a relation from pairs.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut r = Relation::empty(n);
        for (a, b) in pairs {
            r.add(a, b);
        }
        r
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Reinitialises to the empty relation over `n` events, reusing the
    /// allocation when the capacity suffices.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.words = n.div_ceil(64).max(1);
        self.rows.clear();
        self.rows.resize(n * self.words, 0);
    }

    /// Makes this the full relation over its current universe.
    pub fn fill_full(&mut self) {
        let mask = tail_mask(self.n);
        for row in self.rows.chunks_mut(self.words) {
            let full_words = self.n / 64;
            for w in row.iter_mut().take(full_words) {
                *w = !0;
            }
            if !self.n.is_multiple_of(64) {
                row[full_words] = mask;
            }
        }
    }

    /// Adds every pair `(i, i)`.
    pub fn add_identity(&mut self) {
        for i in 0..self.n {
            self.rows[i * self.words + i / 64] |= 1 << (i % 64);
        }
    }

    /// ORs the successor range `[lo, hi)` into row `a`, whole words at a
    /// time — the workhorse of the skeleton's relation fills, where
    /// thread blocks are contiguous id ranges.
    ///
    /// # Panics
    ///
    /// Panics if `a` is outside the universe or `hi > n`.
    pub(crate) fn or_range(&mut self, a: usize, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        assert!(a < self.n && hi <= self.n, "range row out of universe");
        let row = &mut self.rows[a * self.words..(a + 1) * self.words];
        let (wl, wh) = (lo / 64, (hi - 1) / 64);
        let start_mask = !0u64 << (lo % 64);
        let end_mask = tail_mask(hi);
        if wl == wh {
            row[wl] |= start_mask & end_mask;
        } else {
            row[wl] |= start_mask;
            for w in &mut row[wl + 1..wh] {
                *w = !0;
            }
            row[wh] |= end_mask;
        }
    }

    /// ORs `mask` (a word bitmap over the universe) into row `a`.
    pub(crate) fn or_mask(&mut self, a: usize, mask: &[u64]) {
        let row = &mut self.rows[a * self.words..(a + 1) * self.words];
        for (w, &m) in row.iter_mut().zip(mask) {
            *w |= m;
        }
    }

    /// ORs `mask` restricted to the range `[lo, hi)` into row `a`.
    pub(crate) fn or_mask_range(&mut self, a: usize, mask: &[u64], lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        let row = &mut self.rows[a * self.words..(a + 1) * self.words];
        let (wl, wh) = (lo / 64, (hi - 1) / 64);
        let start_mask = !0u64 << (lo % 64);
        let end_mask = tail_mask(hi);
        if wl == wh {
            row[wl] |= mask[wl] & start_mask & end_mask;
        } else {
            row[wl] |= mask[wl] & start_mask;
            for w in wl + 1..wh {
                row[w] |= mask[w];
            }
            row[wh] |= mask[wh] & end_mask;
        }
    }

    /// Adds the pair `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is outside the universe.
    pub fn add(&mut self, a: usize, b: usize) {
        assert!(
            a < self.n && b < self.n,
            "pair ({a},{b}) out of universe {}",
            self.n
        );
        self.rows[a * self.words + b / 64] |= 1 << (b % 64);
    }

    /// Membership test.
    pub fn contains(&self, a: usize, b: usize) -> bool {
        a < self.n && b < self.n && self.rows[a * self.words + b / 64] & (1 << (b % 64)) != 0
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.rows.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no pairs.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(|&w| w == 0)
    }

    /// Iterates pairs in row-major order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |a| {
            (0..self.n)
                .filter(move |&b| self.contains(a, b))
                .map(move |b| (a, b))
        })
    }

    /// Calls `f(a, b)` for every pair in row-major order, scanning whole
    /// words instead of probing every `(a, b)` combination.
    pub fn for_each_pair(&self, mut f: impl FnMut(usize, usize)) {
        for a in 0..self.n {
            let row = &self.rows[a * self.words..(a + 1) * self.words];
            for (w, &word) in row.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    f(a, w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        }
    }

    /// The smallest successor of `node` that is `>= from`, scanning words.
    pub(crate) fn next_succ(&self, node: usize, from: usize) -> Option<usize> {
        if from >= self.n {
            return None;
        }
        let row = &self.rows[node * self.words..(node + 1) * self.words];
        let mut w = from / 64;
        let mut bits = row.get(w)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *row.get(w)?;
        }
    }

    fn zip_with(&self, rhs: &Relation, f: impl Fn(u64, u64) -> u64) -> Relation {
        let mut out = Relation::default();
        out.zip_from(self, rhs, f);
        out
    }

    fn zip_from(&mut self, a: &Relation, b: &Relation, f: impl Fn(u64, u64) -> u64) {
        assert_eq!(a.n, b.n, "relation universes differ");
        self.n = a.n;
        self.words = a.words;
        self.rows.clear();
        self.rows
            .extend(a.rows.iter().zip(&b.rows).map(|(&x, &y)| f(x, y)));
    }

    /// Union.
    pub fn union(&self, rhs: &Relation) -> Relation {
        self.zip_with(rhs, |a, b| a | b)
    }

    /// Intersection.
    pub fn inter(&self, rhs: &Relation) -> Relation {
        self.zip_with(rhs, |a, b| a & b)
    }

    /// Difference (`self \ rhs`).
    pub fn diff(&self, rhs: &Relation) -> Relation {
        self.zip_with(rhs, |a, b| a & !b)
    }

    /// In-place union: `self = a ∪ b`.
    pub fn union_from(&mut self, a: &Relation, b: &Relation) {
        self.zip_from(a, b, |x, y| x | y);
    }

    /// In-place intersection: `self = a ∩ b`.
    pub fn inter_from(&mut self, a: &Relation, b: &Relation) {
        self.zip_from(a, b, |x, y| x & y);
    }

    /// In-place difference: `self = a \ b`.
    pub fn diff_from(&mut self, a: &Relation, b: &Relation) {
        self.zip_from(a, b, |x, y| x & !y);
    }

    /// Becomes a copy of `src`, reusing the allocation.
    pub fn copy_from(&mut self, src: &Relation) {
        self.n = src.n;
        self.words = src.words;
        self.rows.clear();
        self.rows.extend_from_slice(&src.rows);
    }

    /// ORs `rhs` into `self`, reporting whether any new pair appeared.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn or_in_place(&mut self, rhs: &Relation) -> bool {
        assert_eq!(self.n, rhs.n, "relation universes differ");
        let mut changed = false;
        for (d, &s) in self.rows.iter_mut().zip(&rhs.rows) {
            let next = *d | s;
            changed |= next != *d;
            *d = next;
        }
        changed
    }

    /// Relational composition `self ; rhs`.
    pub fn seq(&self, rhs: &Relation) -> Relation {
        let mut out = Relation::default();
        out.seq_from(self, rhs);
        out
    }

    /// In-place composition: `self = a ; b`.
    pub fn seq_from(&mut self, a: &Relation, b: &Relation) {
        assert_eq!(a.n, b.n, "relation universes differ");
        self.reset(a.n);
        for x in 0..a.n {
            // self[x] = ⋃ { b[y] : (x,y) ∈ a }, one word-OR sweep per y.
            let row = &a.rows[x * a.words..(x + 1) * a.words];
            for (w, &word) in row.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let y = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let (dst, src) = (x * self.words, y * b.words);
                    for k in 0..self.words {
                        self.rows[dst + k] |= b.rows[src + k];
                    }
                }
            }
        }
    }

    /// Inverse (`r^-1`).
    pub fn inverse(&self) -> Relation {
        let mut out = Relation::default();
        out.inverse_from(self);
        out
    }

    /// In-place inverse: `self = a^-1`.
    pub fn inverse_from(&mut self, a: &Relation) {
        self.reset(a.n);
        a.for_each_pair(|x, y| {
            self.rows[y * self.words + x / 64] |= 1 << (x % 64);
        });
    }

    /// Transitive closure (`r+`).
    pub fn transitive_closure(&self) -> Relation {
        let mut out = Relation::default();
        out.plus_from(self, &mut Relation::default());
        out
    }

    /// In-place transitive closure: `self = a+`, by repeated squaring to a
    /// fixpoint. `scratch` holds the intermediate products.
    pub fn plus_from(&mut self, a: &Relation, scratch: &mut Relation) {
        self.copy_from(a);
        loop {
            scratch.seq_from(self, self);
            if !self.or_in_place(scratch) {
                return;
            }
        }
    }

    /// Reflexive-transitive closure (`r*`).
    pub fn reflexive_transitive_closure(&self) -> Relation {
        let mut out = Relation::default();
        out.star_from(self, &mut Relation::default());
        out
    }

    /// In-place reflexive-transitive closure: `self = a*`.
    pub fn star_from(&mut self, a: &Relation, scratch: &mut Relation) {
        self.plus_from(a, scratch);
        self.add_identity();
    }

    /// Optional closure (`r?` = r ∪ id).
    pub fn optional(&self) -> Relation {
        let mut out = Relation::default();
        out.opt_from(self);
        out
    }

    /// In-place optional closure: `self = a ∪ id`.
    pub fn opt_from(&mut self, a: &Relation) {
        self.copy_from(a);
        self.add_identity();
    }

    /// Restriction to pairs with source in `dom` and target in `rng`.
    pub fn restrict(&self, dom: &EventSet, rng: &EventSet) -> Relation {
        let mut out = Relation::default();
        out.restrict_from(self, dom, rng);
        out
    }

    /// In-place restriction: `self = { (a,b) ∈ src : a ∈ dom, b ∈ rng }`.
    /// Each kept row is ANDed against the range mask word by word.
    pub fn restrict_from(&mut self, src: &Relation, dom: &EventSet, rng: &EventSet) {
        self.reset(src.n);
        for a in 0..src.n {
            if !dom.contains(a) {
                continue;
            }
            let base = a * src.words;
            for w in 0..src.words {
                self.rows[base + w] = src.rows[base + w] & rng.word(w);
            }
        }
    }

    /// `true` if the relation contains no cycle (self-loops are cycles).
    pub fn is_acyclic(&self) -> bool {
        self.is_acyclic_with(&mut Vec::new(), &mut Vec::new())
    }

    /// [`Relation::is_acyclic`] with caller-owned scratch buffers, so a
    /// loop over many relations never reallocates.
    ///
    /// The method is chosen by universe size. When every row is one word
    /// (`n ≤ 64`, which covers every shipped litmus skeleton), sinks are
    /// peeled with bitmasks: each round removes every live node with no
    /// live successor, and the relation is acyclic iff every node peels.
    /// A self-loop keeps its node from ever being a sink. Wider universes
    /// use an iterative depth-first search, the only user of the scratch
    /// buffers: both are cleared and regrown as needed, their previous
    /// contents ignored.
    pub fn is_acyclic_with(&self, colour: &mut Vec<u8>, stack: &mut Vec<(usize, usize)>) -> bool {
        if self.words == 1 {
            self.is_acyclic_peel()
        } else {
            self.is_acyclic_dfs(colour, stack)
        }
    }

    /// Sink peeling over one-word rows (`n ≤ 64`).
    fn is_acyclic_peel(&self) -> bool {
        let mut live = match self.n {
            0 => return true,
            n => tail_mask(n),
        };
        loop {
            let mut sinks = 0u64;
            let mut bits = live;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.rows[i] & live == 0 {
                    sinks |= 1 << i;
                }
            }
            if sinks == 0 {
                return live == 0;
            }
            live &= !sinks;
        }
    }

    /// Acyclicity by an iterative depth-first search with
    /// white/grey/black colouring; `stack` holds `(node, next successor
    /// to examine)` frames.
    fn is_acyclic_dfs(&self, colour: &mut Vec<u8>, stack: &mut Vec<(usize, usize)>) -> bool {
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        colour.clear();
        colour.resize(self.n, WHITE);
        stack.clear();
        for start in 0..self.n {
            if colour[start] != WHITE {
                continue;
            }
            colour[start] = GREY;
            stack.push((start, 0));
            while let Some(&(node, frame_next)) = stack.last() {
                let mut next = frame_next;
                let mut pushed = false;
                while let Some(succ) = self.next_succ(node, next) {
                    next = succ + 1;
                    match colour[succ] {
                        GREY => return false,
                        WHITE => {
                            colour[succ] = GREY;
                            stack.last_mut().expect("frame exists").1 = next;
                            stack.push((succ, 0));
                            pushed = true;
                            break;
                        }
                        _ => {}
                    }
                }
                if !pushed {
                    colour[node] = BLACK;
                    stack.pop();
                }
            }
        }
        true
    }

    /// `true` if no pair `(a, a)` is present.
    pub fn is_irreflexive(&self) -> bool {
        (0..self.n).all(|i| !self.contains(i, i))
    }

    /// Finds one cycle, as the list of nodes along it (first node not
    /// repeated), or `None` if the relation is acyclic. Used to explain
    /// *why* a model forbids an execution.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        // DFS with an explicit path stack.
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let mut colour = vec![WHITE; self.n];
        let mut path: Vec<usize> = Vec::new();

        fn dfs(
            rel: &Relation,
            node: usize,
            colour: &mut [u8],
            path: &mut Vec<usize>,
        ) -> Option<Vec<usize>> {
            colour[node] = GREY;
            path.push(node);
            for succ in 0..rel.n {
                if !rel.contains(node, succ) {
                    continue;
                }
                match colour[succ] {
                    GREY => {
                        // Cycle: the path suffix from succ's position.
                        let start = path
                            .iter()
                            .position(|&x| x == succ)
                            .expect("grey nodes are on the path");
                        return Some(path[start..].to_vec());
                    }
                    WHITE => {
                        if let Some(c) = dfs(rel, succ, colour, path) {
                            return Some(c);
                        }
                    }
                    _ => {}
                }
            }
            colour[node] = BLACK;
            path.pop();
            None
        }

        for s in 0..self.n {
            if colour[s] == WHITE {
                if let Some(c) = dfs(self, s, &mut colour, &mut path) {
                    return Some(c);
                }
            }
        }
        None
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Relation(n={}, {:?})",
            self.n,
            self.iter_pairs().collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_basics() {
        let mut s = EventSet::empty(70);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(69);
        assert!(s.contains(0) && s.contains(69) && !s.contains(33));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 69]);
        assert_eq!(EventSet::full(70).len(), 70);
    }

    #[test]
    fn full_set_masks_the_tail_word() {
        // Word-filled construction must not set ghost bits past n.
        for n in [0usize, 1, 63, 64, 65, 127, 128, 130] {
            let s = EventSet::full(n);
            assert_eq!(s.len(), n, "n={n}");
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
            assert!(!s.contains(n));
        }
    }

    #[test]
    fn full_relation_masks_the_tail_word() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let r = Relation::full(n);
            assert_eq!(r.len(), n * n, "n={n}");
            if n > 0 {
                assert!(r.contains(n - 1, n - 1));
                assert!(!r.contains(n - 1, n));
            }
        }
    }

    #[test]
    fn set_reset_reuses_and_clears() {
        let mut s = EventSet::full(100);
        s.reset(70);
        assert!(s.is_empty());
        assert_eq!(s.universe(), 70);
        s.insert(69);
        assert!(s.contains(69));
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn set_insert_out_of_range() {
        EventSet::empty(3).insert(3);
    }

    #[test]
    fn relation_ops() {
        let a = Relation::from_pairs(4, [(0, 1), (1, 2)]);
        let b = Relation::from_pairs(4, [(1, 2), (2, 3)]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.inter(&b).len(), 1);
        assert!(a.inter(&b).contains(1, 2));
        assert_eq!(a.diff(&b).iter_pairs().collect::<Vec<_>>(), vec![(0, 1)]);
    }

    #[test]
    fn composition() {
        let a = Relation::from_pairs(4, [(0, 1), (1, 2)]);
        let b = Relation::from_pairs(4, [(1, 3), (2, 3)]);
        let c = a.seq(&b);
        assert_eq!(c.iter_pairs().collect::<Vec<_>>(), vec![(0, 3), (1, 3)]);
    }

    #[test]
    fn inverse_and_closures() {
        let a = Relation::from_pairs(4, [(0, 1), (1, 2)]);
        assert_eq!(
            a.inverse().iter_pairs().collect::<Vec<_>>(),
            vec![(1, 0), (2, 1)]
        );
        let t = a.transitive_closure();
        assert!(t.contains(0, 2));
        assert_eq!(t.len(), 3);
        let rt = a.reflexive_transitive_closure();
        assert!(rt.contains(3, 3));
        assert_eq!(a.optional().len(), 2 + 4);
    }

    #[test]
    fn in_place_ops_match_allocating_ones() {
        let a = Relation::from_pairs(70, [(0, 1), (1, 65), (65, 2), (69, 69)]);
        let b = Relation::from_pairs(70, [(1, 65), (2, 3), (65, 0)]);
        let dom = EventSet::from_iter_n(70, [0, 1, 65]);
        let rng = EventSet::from_iter_n(70, [2, 3, 65]);
        // Start from a dirty buffer of a different universe to prove the
        // reset path.
        let mut out = Relation::full(3);
        let mut scratch = Relation::full(5);
        out.union_from(&a, &b);
        assert_eq!(out, a.union(&b));
        out.inter_from(&a, &b);
        assert_eq!(out, a.inter(&b));
        out.diff_from(&a, &b);
        assert_eq!(out, a.diff(&b));
        out.seq_from(&a, &b);
        assert_eq!(out, a.seq(&b));
        out.inverse_from(&a);
        assert_eq!(out, a.inverse());
        out.plus_from(&a, &mut scratch);
        assert_eq!(out, a.transitive_closure());
        out.star_from(&a, &mut scratch);
        assert_eq!(out, a.reflexive_transitive_closure());
        out.opt_from(&a);
        assert_eq!(out, a.optional());
        out.restrict_from(&a, &dom, &rng);
        assert_eq!(out, a.restrict(&dom, &rng));
        out.copy_from(&b);
        assert_eq!(out, b);
    }

    #[test]
    fn or_in_place_reports_change() {
        let mut a = Relation::from_pairs(4, [(0, 1)]);
        let b = Relation::from_pairs(4, [(1, 2)]);
        assert!(a.or_in_place(&b));
        assert!(!a.or_in_place(&b), "second OR adds nothing");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn for_each_pair_matches_iter_pairs() {
        let r = Relation::from_pairs(130, [(0, 129), (64, 64), (129, 0), (5, 63)]);
        let mut seen = Vec::new();
        r.for_each_pair(|a, b| seen.push((a, b)));
        assert_eq!(seen, r.iter_pairs().collect::<Vec<_>>());
    }

    #[test]
    fn acyclicity() {
        assert!(Relation::from_pairs(4, [(0, 1), (1, 2), (2, 3)]).is_acyclic());
        assert!(!Relation::from_pairs(4, [(0, 1), (1, 2), (2, 0)]).is_acyclic());
        assert!(!Relation::from_pairs(4, [(2, 2)]).is_acyclic());
        assert!(Relation::empty(0).is_acyclic());
        assert!(Relation::empty(4).is_acyclic());
        // Two disjoint components, one cyclic.
        assert!(!Relation::from_pairs(6, [(0, 1), (4, 5), (5, 4)]).is_acyclic());
    }

    #[test]
    fn acyclicity_with_reused_scratch() {
        let mut colour = Vec::new();
        let mut stack = Vec::new();
        let acyclic = Relation::from_pairs(70, [(0, 69), (69, 65)]);
        let cyclic = Relation::from_pairs(70, [(0, 69), (69, 0)]);
        for _ in 0..3 {
            assert!(acyclic.is_acyclic_with(&mut colour, &mut stack));
            assert!(!cyclic.is_acyclic_with(&mut colour, &mut stack));
        }
    }

    #[test]
    fn peeling_handles_word_edges() {
        // A 64-node chain is acyclic; closing it through node 63, or a
        // self-loop on the last bit, makes it cyclic.
        let chain = Relation::from_pairs(64, (0..63).map(|i| (i, i + 1)));
        assert!(chain.is_acyclic());
        let mut closed = chain.clone();
        closed.add(63, 0);
        assert!(!closed.is_acyclic());
        let mut looped = chain;
        looped.add(63, 63);
        assert!(!looped.is_acyclic());
        assert!(!Relation::full(1).is_acyclic());
        assert!(Relation::empty(64).is_acyclic());
    }

    /// A relation over `n` events: `forward` edges oriented low → high
    /// (acyclic on their own) plus a few unoriented `extra` edges,
    /// self-loops included, which may close cycles.
    fn arb_relation() -> impl Strategy<Value = Relation> {
        (0usize..=130)
            .prop_flat_map(|n| {
                let node = 0..n.max(1);
                (
                    Just(n),
                    prop::collection::vec((node.clone(), node.clone()), 0..3 * n + 1),
                    prop::collection::vec((node.clone(), node), 0..3),
                )
            })
            .prop_map(|(n, forward, extra)| {
                let mut r = Relation::empty(n);
                if n > 0 {
                    for (a, b) in forward {
                        if a != b {
                            r.add(a.min(b), a.max(b));
                        }
                    }
                    for (a, b) in extra {
                        r.add(a, b);
                    }
                }
                r
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn acyclicity_matches_dfs(rel in arb_relation()) {
            prop_assert_eq!(
                rel.is_acyclic_with(&mut Vec::new(), &mut Vec::new()),
                rel.is_acyclic_dfs(&mut Vec::new(), &mut Vec::new())
            );
        }
    }

    #[test]
    fn irreflexivity() {
        assert!(Relation::from_pairs(3, [(0, 1)]).is_irreflexive());
        assert!(!Relation::from_pairs(3, [(0, 1), (1, 1)]).is_irreflexive());
    }

    #[test]
    fn restriction() {
        let r = Relation::full(3);
        let dom = EventSet::from_iter_n(3, [0]);
        let rng = EventSet::from_iter_n(3, [1, 2]);
        let s = r.restrict(&dom, &rng);
        assert_eq!(s.iter_pairs().collect::<Vec<_>>(), vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn large_universe_crosses_word_boundaries() {
        let mut r = Relation::empty(130);
        r.add(0, 129);
        r.add(129, 64);
        assert!(r.contains(0, 129) && r.contains(129, 64));
        assert_eq!(r.len(), 2);
        let t = r.transitive_closure();
        assert!(t.contains(0, 64));
        assert!(t.is_acyclic());
    }
}
