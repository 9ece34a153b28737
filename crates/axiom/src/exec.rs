//! Candidate executions: events plus the relations of the paper's
//! Sec. 5.1.1 (program order, dependencies, fences, scopes, read-from,
//! coherence), with the derived relations (`fr`, `rfe`, `po-loc`, …) the
//! `.cat` models consume.

use std::collections::BTreeMap;

use weakgpu_litmus::{FenceScope, Loc};

use crate::event::{Event, EventKind};
use crate::relation::{EventSet, Relation};

/// How strictly read-modify-writes exclude interfering writes.
///
/// The PTX manual "annuls the guarantees afforded to atomic operations if
/// other stores access the same location" (paper Sec. 3.2.3), so the
/// paper-faithful mode only guarantees atomicity against other *atomics*.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum RmwAtomicity {
    /// No write whatsoever may intervene between an RMW's source and its
    /// write (the classical definition; used by the SC/TSO baselines).
    Full,
    /// Only other *atomic* writes are excluded (PTX semantics).
    #[default]
    AmongAtomics,
    /// RMW pairs get no exclusivity at all.
    None,
}

/// A complete candidate execution of a litmus test.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Execution {
    /// All events, with `Event::id` equal to the index.
    pub events: Vec<Event>,
    /// CTA index of each thread (from the scope tree).
    pub thread_cta: Vec<usize>,
    /// Read-from: for each read event id, its source write id (`None` =
    /// the initial state). `None` for non-read events.
    pub rf: Vec<Option<usize>>,
    /// Coherence: per location, the write event ids in coherence order
    /// (the initial state implicitly precedes all of them).
    pub co: BTreeMap<Loc, Vec<usize>>,
    /// Initial memory values.
    pub init: BTreeMap<Loc, i64>,
    /// Address dependencies (read → dependent access).
    pub addr: Relation,
    /// Data dependencies (read → dependent write).
    pub data: Relation,
    /// Control dependencies (read → dependent event).
    pub ctrl: Relation,
    /// Successful atomic read/write pairs.
    pub rmw: Relation,
}

impl Execution {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when there are no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The ids of the events satisfying `keep`.
    fn events_where(&self, keep: impl Fn(&Event) -> bool) -> EventSet {
        EventSet::from_iter_n(
            self.len(),
            self.events.iter().filter(|e| keep(e)).map(|e| e.id),
        )
    }

    /// The pairs of events satisfying `keep`.
    fn pairs_where(&self, keep: impl Fn(&Event, &Event) -> bool) -> Relation {
        let mut r = Relation::empty(self.len());
        for a in &self.events {
            for b in &self.events {
                if keep(a, b) {
                    r.add(a.id, b.id);
                }
            }
        }
        r
    }

    /// Event ids of reads.
    pub fn read_set(&self) -> EventSet {
        self.events_where(Event::is_read)
    }

    /// Event ids of writes.
    pub fn write_set(&self) -> EventSet {
        self.events_where(Event::is_write)
    }

    /// Event ids of fences.
    pub fn fence_set(&self) -> EventSet {
        self.events_where(Event::is_fence)
    }

    /// Program order: intra-thread, by position.
    pub fn po(&self) -> Relation {
        self.pairs_where(|a, b| a.tid == b.tid && a.po_idx < b.po_idx)
    }

    /// Program order restricted to accesses of the same location.
    pub fn po_loc(&self) -> Relation {
        self.pairs_where(|a, b| {
            a.tid == b.tid && a.po_idx < b.po_idx && a.loc.is_some() && a.loc == b.loc
        })
    }

    /// Read-from as a relation (init edges have no source, so they do not
    /// appear; `fr` accounts for them).
    pub fn rf_rel(&self) -> Relation {
        let mut r = Relation::empty(self.len());
        for (read, src) in self.rf.iter().enumerate() {
            if let Some(w) = src {
                r.add(*w, read);
            }
        }
        r
    }

    /// Coherence as a relation (transitive over each location's order).
    pub fn co_rel(&self) -> Relation {
        let mut r = Relation::empty(self.len());
        for order in self.co.values() {
            for i in 0..order.len() {
                for j in (i + 1)..order.len() {
                    r.add(order[i], order[j]);
                }
            }
        }
        r
    }

    /// From-read: read `r` to every write coherence-after `r`'s source.
    pub fn fr(&self) -> Relation {
        let mut rel = Relation::empty(self.len());
        for e in &self.events {
            if !e.is_read() {
                continue;
            }
            let loc = e.loc.as_ref().expect("reads have locations");
            let order = match self.co.get(loc) {
                Some(o) => o,
                None => continue,
            };
            match self.rf[e.id] {
                None => {
                    // Reads from init: all writes overwrite it.
                    for &w in order {
                        rel.add(e.id, w);
                    }
                }
                Some(src) => {
                    let pos = order
                        .iter()
                        .position(|&w| w == src)
                        .expect("rf source is in co");
                    for &w in &order[pos + 1..] {
                        rel.add(e.id, w);
                    }
                }
            }
        }
        rel
    }

    /// Pairs of events from different threads.
    pub fn ext(&self) -> Relation {
        self.pairs_where(|a, b| a.tid != b.tid)
    }

    /// Pairs of events from the same thread (including identical events).
    pub fn int(&self) -> Relation {
        self.pairs_where(|a, b| a.tid == b.tid)
    }

    /// Pairs of accesses to the same location.
    pub fn same_loc(&self) -> Relation {
        self.pairs_where(|a, b| a.loc.is_some() && a.loc == b.loc)
    }

    /// The fence relation for scope `scope`: pairs `(a, b)` with a fence of
    /// exactly that scope po-between them.
    pub fn fence_rel(&self, scope: FenceScope) -> Relation {
        let mut r = Relation::empty(self.len());
        for f in &self.events {
            if f.kind != EventKind::Fence(scope) {
                continue;
            }
            for a in &self.events {
                if a.tid != f.tid || a.po_idx >= f.po_idx {
                    continue;
                }
                for b in &self.events {
                    if b.tid == f.tid && b.po_idx > f.po_idx {
                        r.add(a.id, b.id);
                    }
                }
            }
        }
        r
    }

    /// Scope relation `cta`: pairs of events whose threads share a CTA.
    pub fn scope_cta(&self) -> Relation {
        self.pairs_where(|a, b| self.thread_cta[a.tid] == self.thread_cta[b.tid])
    }

    /// Scope relation `gl`: a single grid, so all pairs.
    pub fn scope_gl(&self) -> Relation {
        Relation::full(self.len())
    }

    /// Scope relation `sys`: the universal relation (paper Sec. 5.1.1).
    pub fn scope_sys(&self) -> Relation {
        Relation::full(self.len())
    }

    /// All base relations by their `.cat` names, for the evaluator's
    /// environment.
    pub fn base_relations(&self) -> BTreeMap<String, Relation> {
        let rf = self.rf_rel();
        let co = self.co_rel();
        let fr = self.fr();
        let ext = self.ext();
        let int = self.int();
        let mut m = BTreeMap::new();
        m.insert("po".into(), self.po());
        m.insert("po-loc".into(), self.po_loc());
        m.insert("addr".into(), self.addr.clone());
        m.insert("data".into(), self.data.clone());
        m.insert("ctrl".into(), self.ctrl.clone());
        m.insert("rmw".into(), self.rmw.clone());
        m.insert("rfe".into(), rf.inter(&ext));
        m.insert("rfi".into(), rf.inter(&int));
        m.insert("rf".into(), rf);
        m.insert("coe".into(), co.inter(&ext));
        m.insert("coi".into(), co.inter(&int));
        m.insert("co".into(), co);
        m.insert("fre".into(), fr.inter(&ext));
        m.insert("fri".into(), fr.inter(&int));
        m.insert("fr".into(), fr);
        m.insert("ext".into(), ext);
        m.insert("int".into(), int);
        m.insert("loc".into(), self.same_loc());
        m.insert("id".into(), Relation::identity(self.len()));
        m.insert("membar.cta".into(), self.fence_rel(FenceScope::Cta));
        m.insert("membar.gl".into(), self.fence_rel(FenceScope::Gl));
        m.insert("membar.sys".into(), self.fence_rel(FenceScope::Sys));
        m.insert("cta".into(), self.scope_cta());
        m.insert("gl".into(), self.scope_gl());
        m.insert("sys".into(), self.scope_sys());
        m
    }

    /// The final value of `loc`: the coherence-last write, or the initial
    /// value if never written.
    pub fn final_memory(&self, loc: &Loc) -> i64 {
        match self.co.get(loc).and_then(|o| o.last()) {
            Some(&w) => self.events[w].value,
            None => self.init.get(loc).copied().unwrap_or(0),
        }
    }

    /// Checks RMW exclusivity under the given mode: for every `rmw` pair
    /// `(r, w)`, no (qualifying) write to the same location lies strictly
    /// coherence-between `r`'s source and `w`.
    pub fn rmw_atomicity_holds(&self, mode: RmwAtomicity) -> bool {
        if mode == RmwAtomicity::None || self.rmw.is_empty() {
            return true;
        }
        for (r, w) in self.rmw.iter_pairs() {
            let loc = self.events[r]
                .loc
                .as_ref()
                .expect("rmw reads have locations");
            let order = match self.co.get(loc) {
                Some(o) => o,
                None => continue,
            };
            let wpos = order
                .iter()
                .position(|&x| x == w)
                .expect("rmw write is in co");
            let start = match self.rf[r] {
                None => 0,
                Some(src) => match order.iter().position(|&x| x == src) {
                    Some(p) => p + 1,
                    None => continue,
                },
            };
            if start >= wpos {
                // The source is the write itself or coherence-after it;
                // nothing lies strictly between (such candidates are
                // rejected by the per-location checks anyway).
                continue;
            }
            for &mid in &order[start..wpos] {
                let interferes = match mode {
                    RmwAtomicity::Full => true,
                    RmwAtomicity::AmongAtomics => self.events[mid].atomic,
                    RmwAtomicity::None => false,
                };
                if interferes {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakgpu_litmus::CacheOp;

    /// Hand-builds the mp execution of the paper's Fig. 14:
    /// T0: W x=1, F.cta, W y=1 — T1: R y=1, F.gl, R x=0.
    fn fig14() -> Execution {
        let mk = |id, tid, po_idx, kind, loc: Option<&str>, value| Event {
            id,
            tid,
            po_idx,
            kind,
            loc: loc.map(Loc::new),
            value,
            cache: CacheOp::Cg,
            volatile: false,
            atomic: false,
            instr_idx: po_idx,
        };
        let events = vec![
            mk(0, 0, 0, EventKind::Write, Some("x"), 1),
            mk(1, 0, 1, EventKind::Fence(FenceScope::Cta), None, 0),
            mk(2, 0, 2, EventKind::Write, Some("y"), 1),
            mk(3, 1, 0, EventKind::Read, Some("y"), 1),
            mk(4, 1, 1, EventKind::Fence(FenceScope::Gl), None, 0),
            mk(5, 1, 2, EventKind::Read, Some("x"), 0),
        ];
        let n = events.len();
        Execution {
            events,
            thread_cta: vec![0, 0], // intra-CTA
            rf: vec![None, None, None, Some(2), None, None],
            co: [(Loc::new("x"), vec![0]), (Loc::new("y"), vec![2])]
                .into_iter()
                .collect(),
            init: [(Loc::new("x"), 0), (Loc::new("y"), 0)]
                .into_iter()
                .collect(),
            addr: Relation::empty(n),
            data: Relation::empty(n),
            ctrl: Relation::empty(n),
            rmw: Relation::empty(n),
        }
    }

    #[test]
    fn sets_and_po() {
        let e = fig14();
        assert_eq!(e.read_set().len(), 2);
        assert_eq!(e.write_set().len(), 2);
        assert_eq!(e.fence_set().len(), 2);
        let po = e.po();
        assert!(po.contains(0, 2) && po.contains(3, 5));
        assert!(!po.contains(0, 3));
        assert!(!po.contains(2, 0));
    }

    #[test]
    fn rf_fr_and_co() {
        let e = fig14();
        let rf = e.rf_rel();
        assert!(rf.contains(2, 3));
        assert_eq!(rf.len(), 1);
        // R x=0 reads init, so fr to W x=1.
        let fr = e.fr();
        assert!(fr.contains(5, 0));
        assert_eq!(fr.len(), 1);
        assert!(e.co_rel().is_empty()); // one write per location
    }

    #[test]
    fn fence_relations() {
        let e = fig14();
        let cta = e.fence_rel(FenceScope::Cta);
        assert!(cta.contains(0, 2));
        assert_eq!(cta.len(), 1);
        let gl = e.fence_rel(FenceScope::Gl);
        assert!(gl.contains(3, 5));
        assert_eq!(gl.len(), 1);
        assert!(e.fence_rel(FenceScope::Sys).is_empty());
    }

    #[test]
    fn scope_relations_intra_cta() {
        let e = fig14();
        assert_eq!(e.scope_cta().len(), 36); // all pairs, same CTA
        let mut inter = fig14();
        inter.thread_cta = vec![0, 1];
        let cta = inter.scope_cta();
        assert!(cta.contains(0, 2) && !cta.contains(0, 3));
        assert_eq!(inter.scope_gl().len(), 36);
    }

    #[test]
    fn the_fig14_cycle_exists_in_rmo_cta_for_intra_cta() {
        // membar.cta ∪ membar.gl ∪ rfe ∪ fr, restricted to cta, is cyclic:
        // a →fence b →rfe c →fence d →fr a (the cycle the paper draws).
        let e = fig14();
        let rels = e.base_relations();
        let cyc = rels["membar.cta"]
            .union(&rels["membar.gl"])
            .union(&rels["rfe"])
            .union(&rels["fr"])
            .inter(&rels["cta"]);
        assert!(!cyc.is_acyclic());
    }

    #[test]
    fn final_memory_values() {
        let e = fig14();
        assert_eq!(e.final_memory(&Loc::new("x")), 1);
        assert_eq!(e.final_memory(&Loc::new("y")), 1);
        assert_eq!(e.final_memory(&Loc::new("zz")), 0);
    }

    #[test]
    fn rmw_atomicity_detects_intervening_write() {
        // T0: RMW on m (reads init, writes 1). T1: plain write m=2 that
        // sits co-between init and the RMW write.
        let mk = |id, tid, po_idx, kind, value, atomic| Event {
            id,
            tid,
            po_idx,
            kind,
            loc: Some(Loc::new("m")),
            value,
            cache: CacheOp::Cg,
            volatile: false,
            atomic,
            instr_idx: po_idx,
        };
        let events = vec![
            mk(0, 0, 0, EventKind::Read, 0, true),
            mk(1, 0, 1, EventKind::Write, 1, true),
            mk(2, 1, 0, EventKind::Write, 2, false),
        ];
        let n = events.len();
        let mut rmw = Relation::empty(n);
        rmw.add(0, 1);
        let exec = Execution {
            events,
            thread_cta: vec![0, 1],
            rf: vec![None, None, None],
            co: [(Loc::new("m"), vec![2, 1])].into_iter().collect(),
            init: [(Loc::new("m"), 0)].into_iter().collect(),
            addr: Relation::empty(n),
            data: Relation::empty(n),
            ctrl: Relation::empty(n),
            rmw,
        };
        // The intervening write is *not* atomic: PTX-style atomicity holds,
        // full atomicity does not.
        assert!(exec.rmw_atomicity_holds(RmwAtomicity::AmongAtomics));
        assert!(!exec.rmw_atomicity_holds(RmwAtomicity::Full));
        assert!(exec.rmw_atomicity_holds(RmwAtomicity::None));

        // Make the interferer atomic: both modes reject.
        let mut exec2 = exec.clone();
        exec2.events[2].atomic = true;
        assert!(!exec2.rmw_atomicity_holds(RmwAtomicity::AmongAtomics));
    }

    #[test]
    fn base_relations_complete() {
        let e = fig14();
        let rels = e.base_relations();
        for name in [
            "po",
            "po-loc",
            "addr",
            "data",
            "ctrl",
            "rmw",
            "rf",
            "rfe",
            "rfi",
            "co",
            "coe",
            "coi",
            "fr",
            "fre",
            "fri",
            "ext",
            "int",
            "loc",
            "id",
            "membar.cta",
            "membar.gl",
            "membar.sys",
            "cta",
            "gl",
            "sys",
        ] {
            assert!(rels.contains_key(name), "missing {name}");
        }
        // rfe ∪ rfi = rf.
        assert_eq!(
            rels["rfe"]
                .union(&rels["rfi"])
                .iter_pairs()
                .collect::<Vec<_>>(),
            rels["rf"].iter_pairs().collect::<Vec<_>>()
        );
    }
}
