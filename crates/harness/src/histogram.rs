//! Outcome histograms — the per-test result of a harness run, mirroring
//! the complete histograms the paper publishes in its online material.

use std::collections::BTreeMap;
use std::fmt;

use weakgpu_litmus::{FinalCond, Outcome};

/// Counts of each observed final state.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Histogram {
    counts: BTreeMap<Outcome, u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation of `outcome`.
    pub fn record(&mut self, outcome: Outcome) {
        self.add(outcome, 1);
    }

    /// Records `n` observations of `outcome` at once (batch collection).
    pub fn add(&mut self, outcome: Outcome, n: u64) {
        *self.counts.entry(outcome).or_insert(0) += n;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: Histogram) {
        for (o, n) in other.counts {
            *self.counts.entry(o).or_insert(0) += n;
        }
    }

    /// Total number of recorded runs.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of distinct outcomes.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Count of a particular outcome.
    pub fn count(&self, outcome: &Outcome) -> u64 {
        self.counts.get(outcome).copied().unwrap_or(0)
    }

    /// Number of runs witnessing the final condition (the paper's `obs`).
    pub fn witnesses(&self, cond: &FinalCond) -> u64 {
        self.counts
            .iter()
            .filter(|(o, _)| cond.witnessed_by(o))
            .map(|(_, n)| n)
            .sum()
    }

    /// Iterates `(outcome, count)` in canonical outcome order.
    pub fn iter(&self) -> impl Iterator<Item = (&Outcome, u64)> {
        self.counts.iter().map(|(o, n)| (o, *n))
    }

    /// The distinct outcomes observed.
    pub fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.counts.keys()
    }
}

impl FromIterator<Outcome> for Histogram {
    fn from_iter<I: IntoIterator<Item = Outcome>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for o in iter {
            h.record(o);
        }
        h
    }
}

impl fmt::Display for Histogram {
    /// Renders in the litmus-tool style: one `count  :> outcome` per line,
    /// most frequent first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rows: Vec<_> = self.counts.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        for (o, n) in rows {
            writeln!(f, "{n:>8}  :> {o}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakgpu_litmus::{FinalExpr, Predicate};

    fn outcome(r1: i64, r2: i64) -> Outcome {
        [(FinalExpr::reg(1, "r1"), r1), (FinalExpr::reg(1, "r2"), r2)]
            .into_iter()
            .collect()
    }

    #[test]
    fn record_and_count() {
        let mut h = Histogram::new();
        h.record(outcome(0, 0));
        h.record(outcome(0, 0));
        h.record(outcome(1, 0));
        assert_eq!(h.total(), 3);
        assert_eq!(h.distinct(), 2);
        assert_eq!(h.count(&outcome(0, 0)), 2);
        assert_eq!(h.count(&outcome(1, 1)), 0);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a: Histogram = [outcome(0, 0), outcome(1, 0)].into_iter().collect();
        let b: Histogram = [outcome(1, 0), outcome(1, 1)].into_iter().collect();
        a.merge(b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.count(&outcome(1, 0)), 2);
    }

    #[test]
    fn witnesses_counts_condition_hits() {
        let h: Histogram = [outcome(1, 0), outcome(1, 0), outcome(1, 1), outcome(0, 0)]
            .into_iter()
            .collect();
        let cond =
            FinalCond::exists(Predicate::reg_eq(1, "r1", 1).and(Predicate::reg_eq(1, "r2", 0)));
        assert_eq!(h.witnesses(&cond), 2);
    }

    #[test]
    fn display_sorted_by_frequency() {
        let h: Histogram = [outcome(0, 0), outcome(0, 0), outcome(1, 1)]
            .into_iter()
            .collect();
        let s = h.to_string();
        let first = s.lines().next().unwrap();
        assert!(first.contains("2"), "{s}");
        assert!(first.contains("1:r1=0"), "{s}");
    }
}
