//! Enumeration of relaxation cycles.
//!
//! A cycle is a sequence of edges where each edge's target direction
//! matches the next edge's source direction (cyclically), at least one
//! edge is external (so ≥ 2 threads arise), and location constraints are
//! satisfiable. Cycles are deduplicated up to rotation without any
//! record of what has been seen: a closed walk is kept only when it is
//! its own least rotation in alphabet order (see [`enumerate_cycles`]).
//! A kept cycle is rotated so that the walk starts at the beginning of a
//! thread (i.e. the final edge is external).

use crate::edge::{Dir, Edge};

/// A well-formed relaxation cycle.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Cycle {
    edges: Vec<Edge>,
    name: String,
}

impl Cycle {
    /// Wraps an edge sequence as a cycle after validating it.
    ///
    /// Returns `None` if directions do not chain, no edge is external, or
    /// the location constraints are contradictory.
    pub fn new(edges: Vec<Edge>) -> Option<Cycle> {
        is_valid(&edges).then(|| Cycle::rotated(edges))
    }

    /// Rotates a valid edge sequence so the final edge is external: the
    /// walk then starts at a thread boundary. Prefers ending on a
    /// read-from/from-read edge — a trailing Coe wraps a coherence
    /// constraint around the cycle, which the synthesiser pins less
    /// directly.
    fn rotated(mut edges: Vec<Edge>) -> Cycle {
        let last_ext = edges
            .iter()
            .rposition(|e| matches!(e, Edge::Rfe | Edge::Fre))
            .or_else(|| edges.iter().rposition(|e| e.is_external()))
            .expect("valid cycles contain an external edge");
        let shift = (last_ext + 1) % edges.len();
        edges.rotate_left(shift);
        let name = canonical_name(&edges);
        Cycle { edges, name }
    }

    /// The edges in walk order (final edge external).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of edges (= number of events).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Cycles are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of threads the synthesised test will have.
    pub fn num_threads(&self) -> usize {
        self.edges.iter().filter(|e| e.is_external()).count()
    }

    /// The canonical name: edge names joined by `-` over the
    /// lexicographically-least rotation that ends in an external edge.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// See [`Cycle::name`].
fn canonical_name(edges: &[Edge]) -> String {
    let n = edges.len();
    let names: Vec<String> = edges.iter().map(|e| e.name()).collect();
    let names = &names;
    let rotation = move |r: usize| (0..n).map(move |i| &names[(r + i) % n]);
    let best = (0..n)
        .filter(|&r| edges[(r + n - 1) % n].is_external())
        .min_by(|&a, &b| rotation(a).cmp(rotation(b)))
        .expect("cycles contain an external edge");
    let parts: Vec<&str> = rotation(best).map(String::as_str).collect();
    parts.join("-")
}

/// Whether `edges` form a well-formed cycle (see [`Cycle::new`]).
fn is_valid(edges: &[Edge]) -> bool {
    // At least two external edges: communication must leave the first
    // thread and come back, otherwise the "external" edge would relate
    // events of a single thread.
    !edges.is_empty()
        && directions_chain(edges)
        && edges.iter().filter(|e| e.is_external()).count() >= 2
        && locations_consistent(edges)
}

fn directions_chain(edges: &[Edge]) -> bool {
    let n = edges.len();
    (0..n).all(|i| edges[i].to_dir() == edges[(i + 1) % n].from_dir())
}

/// Checks location constraints with union-find: same-location edges merge
/// endpoint classes; different-location edges must separate them.
fn locations_consistent(edges: &[Edge]) -> bool {
    let n = edges.len();
    // Event i is the target of edge i-1 and source of edge i; classes over
    // events 0..n where edge i links event i to event (i+1) % n.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    for (i, e) in edges.iter().enumerate() {
        if e.same_loc() {
            let (a, b) = (find(&mut parent, i), find(&mut parent, (i + 1) % n));
            parent[a] = b;
        }
    }
    for (i, e) in edges.iter().enumerate() {
        if !e.same_loc() && find(&mut parent, i) == find(&mut parent, (i + 1) % n) {
            return false;
        }
    }
    true
}

/// Enumerates all cycles over `alphabet` with between 2 and `max_edges`
/// edges, deduplicated up to rotation: of each rotation class, the first
/// sequence the walk meets is kept.
///
/// The walk meets sequences in lexicographic order of their edges'
/// alphabet positions, so that first sequence is the class's least
/// rotation in that order, and whether a sequence is kept depends on the
/// sequence alone: the walk keeps no set of what it has seen. That makes
/// every walk from a given length and opening edges independent of the
/// others: [`crate::generate_parallel`] splits them over workers, and the
/// cycles returned here are those of each walk in turn, by length, then
/// by first edge, then (from three edges up) by second edge.
pub fn enumerate_cycles(alphabet: &[Edge], max_edges: usize) -> Vec<Cycle> {
    let walk = Walk::new(alphabet);
    let mut cycles = Vec::new();
    for root in walk.roots(max_edges) {
        walk.for_each_cycle(&root, |c| cycles.push(c));
    }
    cycles
}

/// One independent walk of [`enumerate_cycles`]: the cycles of `len`
/// edges that open with the alphabet positions in `opening`.
pub(crate) struct Root {
    len: usize,
    opening: Vec<usize>,
}

/// The edges the depth-first walk behind [`enumerate_cycles`] may take.
pub(crate) struct Walk {
    /// The alphabet, each edge once, in order of first occurrence.
    alphabet: Vec<Edge>,
    /// The positions of the alphabet's edges split by source direction,
    /// in alphabet order: the edges that may follow an edge ending in
    /// that direction.
    successors: [Vec<usize>; 2],
}

/// The walk's current edge sequence, as edges and as alphabet positions.
struct Stack {
    edges: Vec<Edge>,
    at: Vec<usize>,
}

impl Walk {
    pub(crate) fn new(alphabet: &[Edge]) -> Walk {
        // A repeated edge would only repeat sequences the walk has
        // already met under its first occurrence.
        let mut edges: Vec<Edge> = Vec::with_capacity(alphabet.len());
        for &e in alphabet {
            if !edges.contains(&e) {
                edges.push(e);
            }
        }
        let successors = [Dir::R, Dir::W].map(|d| {
            (0..edges.len())
                .filter(|&i| edges[i].from_dir() == d)
                .collect()
        });
        Walk {
            alphabet: edges,
            successors,
        }
    }

    /// The independent walks up to `max_edges` edges, in the order
    /// [`enumerate_cycles`] concatenates them: by length, then by first
    /// edge, then, for walks of three or more edges, by second edge in
    /// the order the walk would take it. Splitting by the second edge
    /// keeps any one walk from holding most of a family.
    pub(crate) fn roots(&self, max_edges: usize) -> Vec<Root> {
        let mut roots = Vec::new();
        for len in 2..=max_edges {
            for first in 0..self.alphabet.len() {
                if len == 2 {
                    roots.push(Root {
                        len,
                        opening: vec![first],
                    });
                    continue;
                }
                for &second in self.successors_of(first, first) {
                    roots.push(Root {
                        len,
                        opening: vec![first, second],
                    });
                }
            }
        }
        roots
    }

    /// Hands `keep` every cycle of `root`, in walk order.
    pub(crate) fn for_each_cycle(&self, root: &Root, mut keep: impl FnMut(Cycle)) {
        let mut stack = Stack {
            edges: Vec::with_capacity(root.len),
            at: Vec::with_capacity(root.len),
        };
        for &i in &root.opening {
            stack.edges.push(self.alphabet[i]);
            stack.at.push(i);
        }
        self.extend(root.len, &mut stack, &mut keep);
    }

    /// The positions of the edges that may follow the edge at position
    /// `last` in a walk from the edge at position `first`: an edge before
    /// the first one in the alphabet would start a smaller rotation, so
    /// no sequence through it is kept.
    fn successors_of(&self, last: usize, first: usize) -> &[usize] {
        let candidates = &self.successors[self.alphabet[last].to_dir() as usize];
        &candidates[candidates.partition_point(|&i| i < first)..]
    }

    /// Extends `stack` to every sequence of `target_len` chained edges
    /// that may be a least rotation, keeping each valid cycle.
    fn extend(&self, target_len: usize, stack: &mut Stack, keep: &mut impl FnMut(Cycle)) {
        let last = *stack.at.last().expect("walks start from their first edge");
        let candidates = self.successors_of(last, stack.at[0]);
        // The closing edge must also chain back into the first edge and
        // leave at least two external edges; a sequence that passes
        // needs only the location and rotation checks to be kept.
        let closing = stack.edges.len() + 1 == target_len;
        let externals = stack.edges.iter().filter(|e| e.is_external()).count();
        for &i in candidates {
            let e = self.alphabet[i];
            if closing
                && (e.to_dir() != stack.edges[0].from_dir()
                    || externals + usize::from(e.is_external()) < 2)
            {
                continue;
            }
            stack.edges.push(e);
            stack.at.push(i);
            if !closing {
                self.extend(target_len, stack, keep);
            } else if is_least_rotation(&stack.at) && locations_consistent(&stack.edges) {
                debug_assert!(is_valid(&stack.edges));
                keep(Cycle::rotated(stack.edges.clone()));
            }
            stack.edges.pop();
            stack.at.pop();
        }
    }
}

/// Whether no rotation of `seq` is lexicographically smaller than `seq`.
fn is_least_rotation(seq: &[usize]) -> bool {
    let n = seq.len();
    (1..n).all(|r| {
        (0..n)
            .map(|i| seq[(r + i) % n])
            .cmp(seq.iter().copied())
            .is_ge()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Dir;

    fn pod(from: Dir, to: Dir) -> Edge {
        Edge::Po {
            same_loc: false,
            from,
            to,
        }
    }

    #[test]
    fn mp_cycle_is_valid() {
        // mp: W x; W y (po) — rfe — R y; R x (po) — fre back.
        let c = Cycle::new(vec![
            pod(Dir::W, Dir::W),
            Edge::Rfe,
            pod(Dir::R, Dir::R),
            Edge::Fre,
        ])
        .expect("mp cycle");
        assert_eq!(c.num_threads(), 2);
        assert_eq!(c.len(), 4);
        // Rotated to end on an external edge.
        assert!(c.edges().last().unwrap().is_external());
    }

    #[test]
    fn direction_mismatch_rejected() {
        // Rfe ends at R, Coe starts at W: mismatch.
        assert!(Cycle::new(vec![Edge::Rfe, Edge::Coe]).is_none());
    }

    #[test]
    fn internal_only_rejected() {
        assert!(Cycle::new(vec![pod(Dir::W, Dir::W), pod(Dir::W, Dir::W)]).is_none());
    }

    #[test]
    fn contradictory_locations_rejected() {
        // Rfe (same loc) then Fre (same loc) closing a 2-cycle is fine,
        // but a 2-cycle of Rfe with PodRW (different loc) is impossible:
        // the two events must be both same and different location.
        assert!(Cycle::new(vec![Edge::Rfe, pod(Dir::R, Dir::W)]).is_none());
        assert!(Cycle::new(vec![Edge::Rfe, Edge::Fre]).is_some());
    }

    #[test]
    fn corr_cycle_with_same_loc_po() {
        // coRR: W x — rfe → R x — pos(RR) → R x — fre → W x.
        let c = Cycle::new(vec![
            Edge::Rfe,
            Edge::Po {
                same_loc: true,
                from: Dir::R,
                to: Dir::R,
            },
            Edge::Fre,
        ])
        .expect("coRR cycle");
        assert_eq!(c.num_threads(), 2);
    }

    #[test]
    fn rotation_deduplication() {
        let cycles = enumerate_cycles(&[Edge::Rfe, Edge::Fre], 2);
        // Rfe-Fre and Fre-Rfe are the same cycle up to rotation.
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].name(), "Fre-Rfe");
    }

    #[test]
    fn enumeration_counts_grow() {
        let small = Edge::small_alphabet();
        let c3 = enumerate_cycles(&small, 3);
        let c4 = enumerate_cycles(&small, 4);
        assert!(!c3.is_empty());
        assert!(c4.len() > c3.len());
        // All enumerated cycles are valid and distinct by name.
        let mut names: Vec<&str> = c4.iter().map(Cycle::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), c4.len());
    }

    /// Every sequence of 2..=`max_edges` alphabet edges, in lexicographic
    /// order of alphabet positions, keeping each valid (so chained) one
    /// whose rotation class (by least rotation in the edge order) is new:
    /// the first-met rotation of each class, found by brute force.
    fn first_met_rotations(alphabet: &[Edge], max_edges: usize) -> Vec<Cycle> {
        fn least_rotation(edges: &[Edge]) -> Vec<Edge> {
            let n = edges.len();
            (0..n)
                .map(|r| (0..n).map(|i| edges[(r + i) % n]).collect::<Vec<_>>())
                .min()
                .expect("cycles are non-empty")
        }
        let mut seen = std::collections::HashSet::new();
        let mut cycles = Vec::new();
        for len in 2..=max_edges {
            let mut at = vec![0; len];
            loop {
                let edges: Vec<Edge> = at.iter().map(|&i| alphabet[i]).collect();
                if is_valid(&edges) && seen.insert(least_rotation(&edges)) {
                    cycles.push(Cycle::rotated(edges));
                }
                // The next sequence in lexicographic order, if any.
                let Some(k) = at.iter().rposition(|&i| i + 1 < alphabet.len()) else {
                    break;
                };
                at[k] += 1;
                at[k + 1..].fill(0);
            }
        }
        cycles
    }

    #[test]
    fn enumeration_keeps_the_first_met_rotation_of_each_class() {
        let small = Edge::small_alphabet();
        for max_edges in 2..=5 {
            let want = first_met_rotations(&small, max_edges);
            let got = enumerate_cycles(&small, max_edges);
            assert!(!want.is_empty());
            assert_eq!(got, want, "up to {max_edges} edges");
        }
        // A repeated edge repeats no cycle.
        let twice: Vec<Edge> = small.iter().chain(&small).copied().collect();
        assert_eq!(enumerate_cycles(&twice, 4), first_met_rotations(&small, 4));
    }

    #[test]
    fn no_walk_holds_most_of_the_paper_family() {
        // `generate_parallel` shares the walks between workers, so no one
        // walk may hold half the family.
        let cfg = crate::GenConfig::paper();
        let walk = Walk::new(&cfg.alphabet);
        let sizes: Vec<usize> = walk
            .roots(cfg.max_edges)
            .iter()
            .map(|root| {
                let mut n = 0;
                walk.for_each_cycle(root, |_| n += 1);
                n
            })
            .collect();
        let total: usize = sizes.iter().sum();
        let largest = *sizes.iter().max().unwrap();
        let share = largest as f64 / total as f64;
        println!(
            "largest of {} walks: {largest} of {total} cycles ({:.1} %)",
            sizes.len(),
            100.0 * share
        );
        assert_eq!(total, enumerate_cycles(&cfg.alphabet, cfg.max_edges).len());
        assert!(share < 0.5, "one walk holds {:.1} %", 100.0 * share);
    }

    #[test]
    fn sb_cycle_enumerated() {
        let cycles = enumerate_cycles(&Edge::small_alphabet(), 4);
        // sb: PodWR Fre PodWR Fre.
        assert!(
            cycles.iter().any(|c| c.name() == "PodWR-Fre-PodWR-Fre"),
            "sb cycle missing"
        );
        // lb: PodRW Rfe PodRW Rfe.
        assert!(
            cycles.iter().any(|c| c.name() == "PodRW-Rfe-PodRW-Rfe"),
            "lb cycle missing"
        );
    }
}
