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

/// Fills `r` with program order over `events`: intra-thread, by position.
pub(crate) fn po_into(events: &[Event], r: &mut Relation) {
    r.reset(events.len());
    for a in events {
        for b in events {
            if a.tid == b.tid && a.po_idx < b.po_idx {
                r.add(a.id, b.id);
            }
        }
    }
}

/// Fills `r` with program order restricted to same-location accesses.
pub(crate) fn po_loc_into(events: &[Event], r: &mut Relation) {
    r.reset(events.len());
    for a in events {
        for b in events {
            if a.tid == b.tid && a.po_idx < b.po_idx && a.loc.is_some() && a.loc == b.loc {
                r.add(a.id, b.id);
            }
        }
    }
}

/// Fills `r` with pairs of events from different threads.
pub(crate) fn ext_into(events: &[Event], r: &mut Relation) {
    r.reset(events.len());
    for a in events {
        for b in events {
            if a.tid != b.tid {
                r.add(a.id, b.id);
            }
        }
    }
}

/// Fills `r` with pairs of events from the same thread.
pub(crate) fn int_into(events: &[Event], r: &mut Relation) {
    r.reset(events.len());
    for a in events {
        for b in events {
            if a.tid == b.tid {
                r.add(a.id, b.id);
            }
        }
    }
}

/// Fills `r` with pairs of accesses to the same location.
pub(crate) fn same_loc_into(events: &[Event], r: &mut Relation) {
    r.reset(events.len());
    for a in events {
        for b in events {
            if a.loc.is_some() && a.loc == b.loc {
                r.add(a.id, b.id);
            }
        }
    }
}

/// Fills `r` with the fence relation for `scope`: pairs `(a, b)` with a
/// fence of exactly that scope po-between them.
pub(crate) fn fence_rel_into(events: &[Event], scope: FenceScope, r: &mut Relation) {
    r.reset(events.len());
    for f in events {
        if f.kind != EventKind::Fence(scope) {
            continue;
        }
        for a in events {
            if a.tid != f.tid || a.po_idx >= f.po_idx {
                continue;
            }
            for b in events {
                if b.tid == f.tid && b.po_idx > f.po_idx {
                    r.add(a.id, b.id);
                }
            }
        }
    }
}

/// Fills `r` with pairs of events whose threads share a CTA.
pub(crate) fn scope_cta_into(events: &[Event], thread_cta: &[usize], r: &mut Relation) {
    r.reset(events.len());
    for a in events {
        for b in events {
            if thread_cta[a.tid] == thread_cta[b.tid] {
                r.add(a.id, b.id);
            }
        }
    }
}

/// Fills `s` with the ids of the read events.
fn read_set_into(events: &[Event], s: &mut EventSet) {
    s.reset(events.len());
    for e in events.iter().filter(|e| e.is_read()) {
        s.insert(e.id);
    }
}

/// Fills `s` with the ids of the write events.
fn write_set_into(events: &[Event], s: &mut EventSet) {
    s.reset(events.len());
    for e in events.iter().filter(|e| e.is_write()) {
        s.insert(e.id);
    }
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

    /// Event ids of reads.
    pub fn read_set(&self) -> EventSet {
        let mut s = EventSet::default();
        self.fill_read_set(&mut s);
        s
    }

    /// In-place [`Execution::read_set`].
    pub fn fill_read_set(&self, s: &mut EventSet) {
        read_set_into(&self.events, s);
    }

    /// Event ids of writes.
    pub fn write_set(&self) -> EventSet {
        let mut s = EventSet::default();
        self.fill_write_set(&mut s);
        s
    }

    /// In-place [`Execution::write_set`].
    pub fn fill_write_set(&self, s: &mut EventSet) {
        write_set_into(&self.events, s);
    }

    /// Event ids of fences.
    pub fn fence_set(&self) -> EventSet {
        EventSet::from_iter_n(
            self.len(),
            self.events.iter().filter(|e| e.is_fence()).map(|e| e.id),
        )
    }

    /// Program order: intra-thread, by position.
    pub fn po(&self) -> Relation {
        let mut r = Relation::default();
        self.fill_po(&mut r);
        r
    }

    /// In-place [`Execution::po`].
    pub fn fill_po(&self, r: &mut Relation) {
        po_into(&self.events, r);
    }

    /// Program order restricted to accesses of the same location.
    pub fn po_loc(&self) -> Relation {
        let mut r = Relation::default();
        self.fill_po_loc(&mut r);
        r
    }

    /// In-place [`Execution::po_loc`].
    pub fn fill_po_loc(&self, r: &mut Relation) {
        po_loc_into(&self.events, r);
    }

    /// Read-from as a relation (init edges have no source, so they do not
    /// appear; `fr` accounts for them).
    pub fn rf_rel(&self) -> Relation {
        let mut r = Relation::default();
        self.fill_rf_rel(&mut r);
        r
    }

    /// In-place [`Execution::rf_rel`].
    pub fn fill_rf_rel(&self, r: &mut Relation) {
        r.reset(self.len());
        for (read, src) in self.rf.iter().enumerate() {
            if let Some(w) = src {
                r.add(*w, read);
            }
        }
    }

    /// Coherence as a relation (transitive over each location's order).
    pub fn co_rel(&self) -> Relation {
        let mut r = Relation::default();
        self.fill_co_rel(&mut r);
        r
    }

    /// In-place [`Execution::co_rel`].
    pub fn fill_co_rel(&self, r: &mut Relation) {
        r.reset(self.len());
        for order in self.co.values() {
            for i in 0..order.len() {
                for j in (i + 1)..order.len() {
                    r.add(order[i], order[j]);
                }
            }
        }
    }

    /// From-read: read `r` to every write coherence-after `r`'s source.
    pub fn fr(&self) -> Relation {
        let mut r = Relation::default();
        self.fill_fr(&mut r);
        r
    }

    /// In-place [`Execution::fr`].
    pub fn fill_fr(&self, rel: &mut Relation) {
        rel.reset(self.len());
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
    }

    /// Pairs of events from different threads.
    pub fn ext(&self) -> Relation {
        let mut r = Relation::default();
        self.fill_ext(&mut r);
        r
    }

    /// In-place [`Execution::ext`].
    pub fn fill_ext(&self, r: &mut Relation) {
        ext_into(&self.events, r);
    }

    /// Pairs of events from the same thread (including identical events).
    pub fn int(&self) -> Relation {
        let mut r = Relation::default();
        self.fill_int(&mut r);
        r
    }

    /// In-place [`Execution::int`].
    pub fn fill_int(&self, r: &mut Relation) {
        int_into(&self.events, r);
    }

    /// Pairs of accesses to the same location.
    pub fn same_loc(&self) -> Relation {
        let mut r = Relation::default();
        self.fill_same_loc(&mut r);
        r
    }

    /// In-place [`Execution::same_loc`].
    pub fn fill_same_loc(&self, r: &mut Relation) {
        same_loc_into(&self.events, r);
    }

    /// The fence relation for scope `scope`: pairs `(a, b)` with a fence of
    /// exactly that scope po-between them.
    pub fn fence_rel(&self, scope: FenceScope) -> Relation {
        let mut r = Relation::default();
        self.fill_fence_rel(scope, &mut r);
        r
    }

    /// In-place [`Execution::fence_rel`].
    pub fn fill_fence_rel(&self, scope: FenceScope, r: &mut Relation) {
        fence_rel_into(&self.events, scope, r);
    }

    /// Scope relation `cta`: pairs of events whose threads share a CTA.
    pub fn scope_cta(&self) -> Relation {
        let mut r = Relation::default();
        self.fill_scope_cta(&mut r);
        r
    }

    /// In-place [`Execution::scope_cta`].
    pub fn fill_scope_cta(&self, r: &mut Relation) {
        scope_cta_into(&self.events, &self.thread_cta, r);
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
