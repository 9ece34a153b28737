//! `ObsCounts` keeps its distinct observation vectors flat, in
//! first-recorded order, and sorts them only when iterated. These
//! properties check it against the `BTreeMap<Vec<i64>, u64>` it
//! replaced: the same canonical iteration order, totals and distinct
//! counts, through clears and reuse, and for zero-width vectors (a test
//! whose condition inspects nothing).

use std::collections::BTreeMap;

use proptest::prelude::*;
use weakgpu_sim::ObsCounts;

/// Batches of observation vectors of one width (0 to 3), each batch
/// recorded after a clear. Values come from a small range so vectors
/// repeat.
fn arb_batches() -> impl Strategy<Value = Vec<Vec<Vec<i64>>>> {
    (0..4usize).prop_flat_map(|width| {
        prop::collection::vec(
            prop::collection::vec(prop::collection::vec(-1i64..2, width), 0..40),
            1..4,
        )
    })
}

fn reference(batch: &[Vec<i64>]) -> BTreeMap<Vec<i64>, u64> {
    let mut map = BTreeMap::new();
    for obs in batch {
        *map.entry(obs.clone()).or_insert(0) += 1;
    }
    map
}

fn assert_matches(counts: &ObsCounts, want: &BTreeMap<Vec<i64>, u64>) {
    let got: Vec<(Vec<i64>, u64)> = counts.iter().map(|(o, n)| (o.to_vec(), n)).collect();
    let want_pairs: Vec<(Vec<i64>, u64)> = want.iter().map(|(o, n)| (o.clone(), *n)).collect();
    assert_eq!(got, want_pairs, "canonical iteration order and counts");
    assert_eq!(counts.total(), want.values().sum::<u64>());
    assert_eq!(counts.distinct(), want.len());
    let mut unordered: Vec<(Vec<i64>, u64)> = counts
        .iter_unordered()
        .map(|(o, n)| (o.to_vec(), n))
        .collect();
    unordered.sort();
    assert_eq!(
        unordered, want_pairs,
        "unordered iteration holds the same counts"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn flat_counts_match_a_btreemap(batches in arb_batches()) {
        let mut counts = ObsCounts::new();
        for batch in &batches {
            counts.clear();
            for obs in batch {
                counts.record(obs);
            }
            assert_matches(&counts, &reference(batch));
        }
    }

    #[test]
    fn merging_adds_counts(batches in arb_batches()) {
        let mut merged = ObsCounts::new();
        let mut all = Vec::new();
        for batch in &batches {
            let mut part = ObsCounts::new();
            for obs in batch {
                part.record(obs);
            }
            merged.merge(&part);
            all.extend(batch.iter().cloned());
        }
        assert_matches(&merged, &reference(&all));
        // Equality ignores the order vectors were first recorded in.
        let mut reversed = ObsCounts::new();
        for obs in all.iter().rev() {
            reversed.record(obs);
        }
        prop_assert_eq!(merged, reversed);
    }
}

#[test]
fn zero_width_vectors_count_as_one_outcome() {
    let mut counts = ObsCounts::new();
    assert_eq!(counts.distinct(), 0);
    assert_eq!(counts.iter().count(), 0);
    for _ in 0..3 {
        counts.record(&[]);
    }
    let got: Vec<(&[i64], u64)> = counts.iter().collect();
    assert_eq!(got, vec![(&[][..], 3)]);
    assert_eq!(counts.total(), 3);
    // A cleared collector takes vectors of another width.
    counts.clear();
    counts.record(&[4, 2]);
    assert_eq!(counts.distinct(), 1);
    assert_eq!(counts.total(), 1);
}

#[test]
#[should_panic(expected = "one collector counts vectors of one length")]
fn mixed_widths_are_refused() {
    let mut counts = ObsCounts::new();
    counts.record(&[1]);
    counts.record(&[1, 2]);
}
