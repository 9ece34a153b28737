//! Classic litmus idioms beyond the paper's figures, at GPU scopes —
//! the wider families the paper's generated validation covers
//! (write-to-read causality, independent-reads-independent-writes,
//! 2+2W, S and R shapes), useful for model exploration and as extra
//! validation fodder.

use crate::build::*;
use crate::cond::Predicate;
use crate::instr::FenceScope;
use crate::program::LitmusTest;
use crate::scope::{ScopeTree, ThreadScope};

fn fences(fence: Option<FenceScope>) -> Vec<crate::instr::Instr> {
    fence.map(membar).into_iter().collect()
}

/// `wrc` — write-to-read causality: T0 writes `x`; T1 reads it and then
/// writes `y`; T2 reads `y` then `x`. Weak outcome: T2 sees `y` but not
/// the causally-earlier `x`.
pub fn wrc(scope: ThreadScope, fence: Option<FenceScope>) -> LitmusTest {
    let mut t1 = vec![ld("r1", "x")];
    t1.extend(fences(fence));
    t1.push(st("y", 1));
    let mut t2 = vec![ld("r2", "y")];
    t2.extend(fences(fence));
    t2.push(ld("r3", "x"));
    LitmusTest::builder(match fence {
        None => "wrc".to_owned(),
        Some(s) => format!("wrc+membar{}s", s.suffix()),
    })
    .doc("write-to-read causality")
    .global("x", 0)
    .global("y", 0)
    .thread([st("x", 1)])
    .thread(t1)
    .thread(t2)
    .scope_tree(ScopeTree::for_scope(scope, 3))
    .exists(
        Predicate::reg_eq(1, "r1", 1)
            .and(Predicate::reg_eq(2, "r2", 1))
            .and(Predicate::reg_eq(2, "r3", 0)),
    )
    .build()
    .expect("corpus test is valid")
}

/// `isa2` — a three-thread handshake: T0 writes data and flag 1, T1
/// forwards flag 1 into flag 2, T2 reads flag 2 then the data.
pub fn isa2(scope: ThreadScope, fence: Option<FenceScope>) -> LitmusTest {
    let mut t0 = vec![st("x", 1)];
    t0.extend(fences(fence));
    t0.push(st("y", 1));
    let mut t1 = vec![ld("r1", "y")];
    t1.extend(fences(fence));
    t1.push(st("z", 1));
    let mut t2 = vec![ld("r2", "z")];
    t2.extend(fences(fence));
    t2.push(ld("r3", "x"));
    LitmusTest::builder(match fence {
        None => "isa2".to_owned(),
        Some(s) => format!("isa2+membar{}s", s.suffix()),
    })
    .doc("three-thread message passing chain")
    .global("x", 0)
    .global("y", 0)
    .global("z", 0)
    .thread(t0)
    .thread(t1)
    .thread(t2)
    .scope_tree(ScopeTree::for_scope(scope, 3))
    .exists(
        Predicate::reg_eq(1, "r1", 1)
            .and(Predicate::reg_eq(2, "r2", 1))
            .and(Predicate::reg_eq(2, "r3", 0)),
    )
    .build()
    .expect("corpus test is valid")
}

/// `iriw` — independent reads of independent writes: two writers to
/// different locations; two readers observe them in opposite orders.
pub fn iriw(scope: ThreadScope, fence: Option<FenceScope>) -> LitmusTest {
    let reader = |first: &str, second: &str, ra: &str, rb: &str| {
        let mut v = vec![ld(ra, first)];
        v.extend(fences(fence));
        v.push(ld(rb, second));
        v
    };
    LitmusTest::builder(match fence {
        None => "iriw".to_owned(),
        Some(s) => format!("iriw+membar{}s", s.suffix()),
    })
    .doc("independent reads of independent writes")
    .global("x", 0)
    .global("y", 0)
    .thread([st("x", 1)])
    .thread([st("y", 1)])
    .thread(reader("x", "y", "r1", "r2"))
    .thread(reader("y", "x", "r3", "r4"))
    .scope_tree(ScopeTree::for_scope(scope, 4))
    .exists(
        Predicate::reg_eq(2, "r1", 1)
            .and(Predicate::reg_eq(2, "r2", 0))
            .and(Predicate::reg_eq(3, "r3", 1))
            .and(Predicate::reg_eq(3, "r4", 0)),
    )
    .build()
    .expect("corpus test is valid")
}

/// `rwc` — read-to-write causality: T1 reads T0's write of `x`, then
/// reads `y`; T2 writes `y` then `x`… here in the classic shape where T2
/// stores `y` and then T0's `x` is overwritten is folded into `fr` edges.
pub fn rwc(scope: ThreadScope, fence: Option<FenceScope>) -> LitmusTest {
    let mut t1 = vec![ld("r1", "x")];
    t1.extend(fences(fence));
    t1.push(ld("r2", "y"));
    let mut t2 = vec![st("y", 1)];
    t2.extend(fences(fence));
    t2.push(st("x", 2));
    LitmusTest::builder(match fence {
        None => "rwc".to_owned(),
        Some(s) => format!("rwc+membar{}s", s.suffix()),
    })
    .doc("read-to-write causality")
    .global("x", 0)
    .global("y", 0)
    .thread([st("x", 1)])
    .thread(t1)
    .thread(t2)
    .scope_tree(ScopeTree::for_scope(scope, 3))
    .exists(
        Predicate::reg_eq(1, "r1", 1)
            .and(Predicate::reg_eq(1, "r2", 0))
            .and(Predicate::mem_eq("x", 1)),
    )
    .build()
    .expect("corpus test is valid")
}

/// `2+2w` — two threads, each writing both locations in opposite orders;
/// the weak outcome has each location's *first* writer win coherence.
pub fn two_plus_two_w(scope: ThreadScope, fence: Option<FenceScope>) -> LitmusTest {
    let side = |a: &str, b: &str| {
        let mut v = vec![st(a, 2)];
        v.extend(fences(fence));
        v.push(st(b, 1));
        v
    };
    LitmusTest::builder(match fence {
        None => "2+2w".to_owned(),
        Some(s) => format!("2+2w+membar{}s", s.suffix()),
    })
    .doc("double write-write coherence shape")
    .global("x", 0)
    .global("y", 0)
    .thread(side("x", "y"))
    .thread(side("y", "x"))
    .scope_tree(ScopeTree::for_scope(scope, 2))
    .exists(Predicate::mem_eq("x", 2).and(Predicate::mem_eq("y", 2)))
    .build()
    .expect("corpus test is valid")
}

/// `s` — write, write / read, write on the same data: the read observes
/// the first write, yet its thread's write loses coherence to it.
pub fn s_shape(scope: ThreadScope, fence: Option<FenceScope>) -> LitmusTest {
    let mut t0 = vec![st("x", 2)];
    t0.extend(fences(fence));
    t0.push(st("y", 1));
    let mut t1 = vec![ld("r1", "y")];
    t1.extend(fences(fence));
    t1.push(st("x", 1));
    LitmusTest::builder(match fence {
        None => "s".to_owned(),
        Some(sc) => format!("s+membar{}s", sc.suffix()),
    })
    .doc("the S shape (coherence against message passing)")
    .global("x", 0)
    .global("y", 0)
    .thread(t0)
    .thread(t1)
    .scope_tree(ScopeTree::for_scope(scope, 2))
    .exists(Predicate::reg_eq(1, "r1", 1).and(Predicate::mem_eq("x", 2)))
    .build()
    .expect("corpus test is valid")
}

/// `r` — write, write / write, read: store buffering against coherence.
pub fn r_shape(scope: ThreadScope, fence: Option<FenceScope>) -> LitmusTest {
    let mut t0 = vec![st("x", 1)];
    t0.extend(fences(fence));
    t0.push(st("y", 1));
    let mut t1 = vec![st("y", 2)];
    t1.extend(fences(fence));
    t1.push(ld("r1", "x"));
    LitmusTest::builder(match fence {
        None => "r".to_owned(),
        Some(s) => format!("r+membar{}s", s.suffix()),
    })
    .doc("the R shape (store buffering against coherence)")
    .global("x", 0)
    .global("y", 0)
    .thread(t0)
    .thread(t1)
    .scope_tree(ScopeTree::for_scope(scope, 2))
    .exists(Predicate::mem_eq("y", 2).and(Predicate::reg_eq(1, "r1", 0)))
    .build()
    .expect("corpus test is valid")
}

/// `corr-fan` — an oversized coherence shape beyond the paper family:
/// `writers` threads each store 1 to `x`, and one reader thread issues
/// `reads` back-to-back loads of `x`. The candidate space is
/// `(writers+1)^reads · writers!` — exponential in the reader length —
/// so a short fan already outgrows any shipped test and a longer one
/// outgrows the axiomatic engine's candidate budget. The weak
/// condition is the long-distance coRR pattern: the first load sees a
/// write, the last load sees the initial state.
pub fn corr_fan(writers: usize, reads: usize) -> LitmusTest {
    assert!(writers >= 1 && reads >= 2, "corr-fan needs a fan");
    let mut b = LitmusTest::builder(format!("corr-fan-{writers}w{reads}r"))
        .doc("oversized read-fan coherence shape (candidate-budget stress)")
        .global("x", 0);
    for _ in 0..writers {
        b = b.thread([st("x", 1)]);
    }
    b = b.thread((1..=reads).map(|i| ld(&format!("r{i}"), "x")));
    b.scope_tree(ScopeTree::for_scope(ThreadScope::InterCta, writers + 1))
        .exists(Predicate::reg_eq(writers, "r1", 1).and(Predicate::reg_eq(
            writers,
            format!("r{reads}").as_str(),
            0,
        )))
        .build()
        .expect("corpus test is valid")
}

/// All extra idioms, unfenced and gl-fenced, at both placements.
pub fn all_extra() -> Vec<LitmusTest> {
    let mut v = Vec::new();
    for scope in [ThreadScope::IntraCta, ThreadScope::InterCta] {
        for fence in [None, Some(FenceScope::Gl)] {
            let suffix = format!("+{scope}");
            v.push(wrc(scope, fence).with_name(format!("{}{}", wrc(scope, fence).name(), suffix)));
            v.push(isa2(scope, fence).with_name(format!(
                "{}{}",
                isa2(scope, fence).name(),
                suffix
            )));
            v.push(iriw(scope, fence).with_name(format!(
                "{}{}",
                iriw(scope, fence).name(),
                suffix
            )));
            v.push(rwc(scope, fence).with_name(format!("{}{}", rwc(scope, fence).name(), suffix)));
            v.push(two_plus_two_w(scope, fence).with_name(format!(
                "{}{}",
                two_plus_two_w(scope, fence).name(),
                suffix
            )));
            v.push(s_shape(scope, fence).with_name(format!(
                "{}{}",
                s_shape(scope, fence).name(),
                suffix
            )));
            v.push(r_shape(scope, fence).with_name(format!(
                "{}{}",
                r_shape(scope, fence).name(),
                suffix
            )));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;

    #[test]
    fn all_extra_build_and_roundtrip() {
        let tests = all_extra();
        assert_eq!(tests.len(), 28);
        for t in tests {
            let printed = t.to_string();
            let reparsed =
                parser::parse(&printed).unwrap_or_else(|e| panic!("{}: {e}\n{printed}", t.name()));
            assert_eq!(t.threads(), reparsed.threads(), "{}", t.name());
        }
    }

    #[test]
    fn corr_fan_shape_and_roundtrip() {
        let t = corr_fan(2, 4);
        assert_eq!(t.num_threads(), 3);
        assert_eq!(t.threads()[2].len(), 4);
        // Only the first and last reader registers are observed.
        assert_eq!(t.observed().len(), 2);
        let printed = t.to_string();
        let reparsed = parser::parse(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        assert_eq!(t.threads(), reparsed.threads());
    }

    #[test]
    fn shapes() {
        assert_eq!(wrc(ThreadScope::InterCta, None).num_threads(), 3);
        assert_eq!(isa2(ThreadScope::InterCta, None).num_threads(), 3);
        assert_eq!(iriw(ThreadScope::InterCta, None).num_threads(), 4);
        assert_eq!(two_plus_two_w(ThreadScope::IntraCta, None).num_threads(), 2);
        // iriw observes four registers.
        assert_eq!(iriw(ThreadScope::InterCta, None).observed().len(), 4);
        // 2+2w observes final memory only.
        assert!(two_plus_two_w(ThreadScope::InterCta, None)
            .observed()
            .iter()
            .all(|e| matches!(e, crate::FinalExpr::Mem(_))));
    }
}
