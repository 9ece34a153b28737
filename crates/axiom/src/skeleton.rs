//! Skeleton/overlay decomposition of candidate executions.
//!
//! All candidate executions of one thread-trace combination share their
//! events, program order and dependency relations; they differ only in
//! the read-from assignment and per-location coherence orders. The
//! materialising enumerator used to clone that shared structure into an
//! independent [`Execution`] per rf×co choice — the dominant cost of the
//! cache-miss verdict path once evaluation itself became allocation-free.
//!
//! This module splits a candidate into:
//!
//! * an immutable [`ExecutionSkeleton`] — events, dependencies and every
//!   communication-independent relation (`po`, `ext`, fences, scopes, …),
//!   built **once** per trace combination;
//! * a mutable [`Overlay`] — just the rf assignment and the chosen
//!   coherence orders, rewritten in place for each candidate (no heap
//!   allocation per candidate after the buffers have warmed);
//! * a borrowed [`ExecutionView`] pairing the two, which is what the
//!   streaming visitor ([`crate::enumerate::for_each_execution`]) hands
//!   to its callback and what [`crate::plan::Plan::allows_view`]
//!   evaluates — refilling only the rf/co-derived base relations per
//!   candidate while reusing everything skeleton-derived.
//!
//! Views are identified by process-unique stamps ([`ExecutionView::skeleton_id`],
//! [`ExecutionView::overlay_gen`]) so an [`crate::plan::EvalContext`] can
//! tell "same skeleton, new overlay" from "new skeleton" and invalidate
//! the minimum. [`ExecutionView::combination_id`] changes with every
//! trace combination, so value-sensitive caches (the observed outcome of
//! register-only tests) can key on it.
//!
//! A view always describes one complete candidate: every read has its rf
//! source and every written location its coherence order.

use std::collections::BTreeMap;
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};

use weakgpu_litmus::{FenceScope, FinalExpr, Loc, Outcome};

use crate::event::Event;
use crate::exec::{self, Execution, RmwAtomicity};
use crate::relation::{EventSet, Relation};
use crate::symbolic::ThreadTrace;

/// Process-unique stamps for skeletons, overlays and compiled plans.
static STAMP: AtomicU64 = AtomicU64::new(1);

/// The next process-unique stamp (never 0, so 0 can mean "none").
pub(crate) fn next_stamp() -> u64 {
    STAMP.fetch_add(1, Ordering::Relaxed)
}

/// How one observed [`FinalExpr`] resolves for candidates of a skeleton.
#[derive(Clone, Copy, Debug)]
enum ObservedSlot {
    /// The value is fixed by the trace combination (final register
    /// values, and locations no candidate writes).
    Fixed(i64),
    /// The final value of the location with this index in
    /// `ExecutionSkeleton::locs`: the last write of the overlay's chosen
    /// coherence order.
    Mem(usize),
}

/// The communication-independent part of a candidate execution: built
/// once per thread-trace combination and shared by every rf×co overlay.
/// The enumerator keeps **one** skeleton buffer and refills it in place
/// per combination (`fill`), so after the first
/// combination has sized the buffers, moving to the next allocates
/// almost nothing.
#[derive(Debug, Default)]
pub struct ExecutionSkeleton {
    id: u64,
    /// Stamp of the trace *combination* currently buffered: unlike `id`
    /// (which survives value-only changes so evaluation caches persist),
    /// this changes on every `fill` — key
    /// value-sensitive caches (observed outcomes) on it.
    combo_gen: u64,
    events: Vec<Event>,
    thread_cta: Vec<usize>,
    init: BTreeMap<Loc, i64>,
    addr: Relation,
    data: Relation,
    ctrl: Relation,
    rmw: Relation,
    po: Relation,
    po_loc: Relation,
    ext: Relation,
    int: Relation,
    same_loc: Relation,
    fence_cta: Relation,
    fence_gl: Relation,
    fence_sys: Relation,
    scope_cta: Relation,
    reads: EventSet,
    writes: EventSet,
    /// Written locations, in `BTreeMap` (sorted) order — the coherence
    /// axes of every overlay.
    locs: Vec<Loc>,
    /// Write event ids per location, aligned with `locs`.
    writes_by_loc: Vec<Vec<usize>>,
    /// Per event id: index into `locs` of its location, or `usize::MAX`
    /// when the event has no location or the location is never written.
    loc_idx: Vec<usize>,
    /// Initial memory value per written location, aligned with `locs`.
    init_of: Vec<i64>,
    /// The observed expressions, in `LitmusTest::observed` order.
    observed_exprs: Vec<FinalExpr>,
    /// How each observed expression resolves, aligned with
    /// `observed_exprs`.
    observed_slots: Vec<ObservedSlot>,
    /// Fill scratch: distinct locations of *any* event (first-seen
    /// order) and their membership bitmaps, `words` u64s per location.
    all_locs: Vec<Loc>,
    loc_mask_buf: Vec<u64>,
    /// Fill scratch: per thread, the `(offset, len)` of its contiguous
    /// event-id block.
    blocks: Vec<(usize, usize)>,
    /// Fill scratch: the incoming combination's events and dependency
    /// relations, built here first so they can be compared against the
    /// buffer's current contents before anything is overwritten.
    events_tmp: Vec<Event>,
    addr_tmp: Relation,
    data_tmp: Relation,
    ctrl_tmp: Relation,
    rmw_tmp: Relation,
}

/// `true` when two event lists agree on everything but the read/write
/// *values*: same ids, threads, program order, kinds, locations and
/// attributes. Combinations that differ only in values share every
/// skeleton relation (none of them reads a value), so the skeleton —
/// and with it an [`crate::plan::EvalContext`]'s cached
/// skeleton-derived registers — can be reused wholesale.
fn same_structure(a: &[Event], b: &[Event]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.id == y.id
                && x.tid == y.tid
                && x.po_idx == y.po_idx
                && x.kind == y.kind
                && x.loc == y.loc
                && x.cache == y.cache
                && x.volatile == y.volatile
                && x.atomic == y.atomic
                && x.instr_idx == y.instr_idx
        })
}

impl ExecutionSkeleton {
    /// An empty skeleton buffer, to be [`fill`](ExecutionSkeleton::fill)ed.
    pub(crate) fn empty() -> ExecutionSkeleton {
        ExecutionSkeleton::default()
    }

    /// Refills this buffer as the skeleton of one thread-trace
    /// combination: global event ids, dependency relations, and every
    /// communication-independent base relation. All buffers are reused.
    ///
    /// When the incoming combination differs from the buffered one only
    /// in event *values* (the common case — trace combinations of a
    /// branchless test vary read values, never structure), the skeleton
    /// **keeps its identity stamp**: every relation is value-independent
    /// and therefore still valid, and evaluation contexts keep their
    /// cached skeleton-derived registers too. Otherwise the buffer is
    /// rebuilt under a fresh stamp.
    /// Returns `true` when the buffer's identity (and with it every
    /// relation, set and table) was reused, `false` when it was rebuilt.
    pub(crate) fn fill(
        &mut self,
        traces: &[&ThreadTrace],
        thread_cta: &[usize],
        init: &BTreeMap<Loc, i64>,
        observed: &[FinalExpr],
    ) -> bool {
        self.events_tmp.clear();
        for tr in traces {
            for (i, e) in tr.events.iter().enumerate() {
                self.events_tmp.push(Event {
                    id: self.events_tmp.len(),
                    tid: tr.tid,
                    po_idx: i,
                    kind: e.kind,
                    loc: e.loc.clone(),
                    value: e.value,
                    cache: e.cache,
                    volatile: e.volatile,
                    atomic: e.atomic,
                    instr_idx: e.instr_idx,
                });
            }
        }
        let n = self.events_tmp.len();
        self.addr_tmp.reset(n);
        self.data_tmp.reset(n);
        self.ctrl_tmp.reset(n);
        self.rmw_tmp.reset(n);
        let mut off = 0usize;
        for tr in traces {
            for (i, e) in tr.events.iter().enumerate() {
                for &d in &e.addr_deps {
                    self.addr_tmp.add(off + d, off + i);
                }
                for &d in &e.data_deps {
                    self.data_tmp.add(off + d, off + i);
                }
                for &d in &e.ctrl_deps {
                    self.ctrl_tmp.add(off + d, off + i);
                }
            }
            for &(r, w) in &tr.rmw_pairs {
                self.rmw_tmp.add(off + r, off + w);
            }
            off += tr.events.len();
        }

        self.combo_gen = next_stamp();
        let structural_match = self.id != 0
            && self.thread_cta == thread_cta
            && self.init == *init
            && same_structure(&self.events, &self.events_tmp)
            && self.addr == self.addr_tmp
            && self.data == self.data_tmp
            && self.ctrl == self.ctrl_tmp
            && self.rmw == self.rmw_tmp;
        mem::swap(&mut self.events, &mut self.events_tmp);
        if structural_match {
            // Same structure, new values: relations, sets, location and
            // block tables all still hold; only the observable slots
            // (recomputed below) depend on values.
            self.refill_observed(traces, init, observed);
            return true;
        }

        self.id = next_stamp();
        mem::swap(&mut self.addr, &mut self.addr_tmp);
        mem::swap(&mut self.data, &mut self.data_tmp);
        mem::swap(&mut self.ctrl, &mut self.ctrl_tmp);
        mem::swap(&mut self.rmw, &mut self.rmw_tmp);
        let events = &self.events;

        self.thread_cta.clear();
        self.thread_cta.extend_from_slice(thread_cta);
        if self.init != *init {
            self.init.clone_from(init);
        }

        // A trace combination's event ids are contiguous per thread and
        // po-ordered within each block, so the pair relations reduce to
        // word-level range/mask fills instead of O(n²) pair loops.
        self.blocks.clear();
        self.blocks.resize(thread_cta.len(), (0, 0));
        let mut off = 0usize;
        for tr in traces {
            self.blocks[tr.tid] = (off, tr.events.len());
            off += tr.events.len();
        }
        let words = n.div_ceil(64).max(1);

        // Location membership bitmaps (all locations, read-only included).
        self.all_locs.clear();
        for e in events {
            if let Some(loc) = &e.loc {
                if !self.all_locs.contains(loc) {
                    self.all_locs.push(loc.clone());
                }
            }
        }
        self.loc_mask_buf.clear();
        self.loc_mask_buf.resize(self.all_locs.len() * words, 0);
        for e in events {
            if let Some(loc) = &e.loc {
                let li = self
                    .all_locs
                    .iter()
                    .position(|l| l == loc)
                    .expect("loc was recorded");
                self.loc_mask_buf[li * words + e.id / 64] |= 1 << (e.id % 64);
            }
        }

        self.po.reset(n);
        self.po_loc.reset(n);
        self.ext.reset(n);
        self.int.reset(n);
        self.same_loc.reset(n);
        for &(off, len) in &self.blocks {
            for a in off..off + len {
                self.po.or_range(a, a + 1, off + len);
                self.int.or_range(a, off, off + len);
                self.ext.or_range(a, 0, off);
                self.ext.or_range(a, off + len, n);
            }
        }
        for e in events {
            if let Some(loc) = &e.loc {
                let li = self
                    .all_locs
                    .iter()
                    .position(|l| l == loc)
                    .expect("loc was recorded");
                let mask = &self.loc_mask_buf[li * words..(li + 1) * words];
                self.same_loc.or_mask(e.id, mask);
                let (off, len) = self.blocks[e.tid];
                self.po_loc.or_mask_range(e.id, mask, e.id + 1, off + len);
            }
        }
        self.fence_cta.reset(n);
        self.fence_gl.reset(n);
        self.fence_sys.reset(n);
        for f in events {
            if let crate::event::EventKind::Fence(scope) = f.kind {
                let rel = match scope {
                    FenceScope::Cta => &mut self.fence_cta,
                    FenceScope::Gl => &mut self.fence_gl,
                    FenceScope::Sys => &mut self.fence_sys,
                };
                let (off, len) = self.blocks[f.tid];
                for a in off..f.id {
                    rel.or_range(a, f.id + 1, off + len);
                }
            }
        }
        self.scope_cta.reset(n);
        for &(off, len) in &self.blocks {
            for a in off..off + len {
                for (u, &(uoff, ulen)) in self.blocks.iter().enumerate() {
                    if thread_cta[events[a].tid] == thread_cta[u] {
                        self.scope_cta.or_range(a, uoff, uoff + ulen);
                    }
                }
            }
        }
        exec::read_set_into(events, &mut self.reads);
        exec::write_set_into(events, &mut self.writes);

        // Written locations and their writes, in sorted location order,
        // rebuilt without a temporary map: the distinct locations of a
        // litmus test are few, so insertion into the sorted `locs` list
        // is effectively free.
        self.locs.clear();
        for e in events {
            if e.is_write() {
                let loc = e.loc.as_ref().expect("writes have locations");
                if let Err(pos) = self.locs.binary_search(loc) {
                    self.locs.insert(pos, loc.clone());
                }
            }
        }
        // Grow-only: never drop inner buffers, so refills stay
        // allocation-free once warm. Only the first `locs.len()`
        // entries are live (`writes_per_loc` slices accordingly).
        if self.writes_by_loc.len() < self.locs.len() {
            self.writes_by_loc.resize(self.locs.len(), Vec::new());
        }
        for ws in &mut self.writes_by_loc[..self.locs.len()] {
            ws.clear();
        }
        for e in events {
            if e.is_write() {
                let loc = e.loc.as_ref().expect("writes have locations");
                let li = self.locs.binary_search(loc).expect("loc was inserted");
                self.writes_by_loc[li].push(e.id);
            }
        }
        self.loc_idx.clear();
        self.loc_idx.resize(n, usize::MAX);
        for e in events {
            if let Some(loc) = &e.loc {
                if let Ok(i) = self.locs.binary_search(loc) {
                    self.loc_idx[e.id] = i;
                }
            }
        }
        self.init_of.clear();
        self.init_of
            .extend(self.locs.iter().map(|l| init.get(l).copied().unwrap_or(0)));

        self.refill_observed(traces, init, observed);
        false
    }

    /// Recomputes the observable slots: the one piece of skeleton data
    /// that depends on trace *values* (final register contents).
    fn refill_observed(
        &mut self,
        traces: &[&ThreadTrace],
        init: &BTreeMap<Loc, i64>,
        observed: &[FinalExpr],
    ) {
        if self.observed_exprs != observed {
            self.observed_exprs.clear();
            self.observed_exprs.extend_from_slice(observed);
        }
        self.observed_slots.clear();
        self.observed_slots
            .extend(observed.iter().map(|expr| match expr {
                FinalExpr::Reg(tid, reg) => {
                    ObservedSlot::Fixed(traces.get(*tid).map(|tr| tr.final_int(reg)).unwrap_or(0))
                }
                FinalExpr::Mem(loc) => match self.locs.binary_search(loc) {
                    Ok(i) => ObservedSlot::Mem(i),
                    Err(_) => ObservedSlot::Fixed(init.get(loc).copied().unwrap_or(0)),
                },
            }));
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when there are no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The skeleton's process-unique stamp (see
    /// [`ExecutionView::skeleton_id`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The global event list (ids equal indices).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Write event ids per written location, in sorted location order.
    pub(crate) fn writes_per_loc(&self) -> &[Vec<usize>] {
        &self.writes_by_loc[..self.locs.len()]
    }

    /// Index of event `e`'s location in the written-location table
    /// (`usize::MAX` when `e` has no location or it is never written).
    pub(crate) fn loc_index(&self, e: usize) -> usize {
        self.loc_idx[e]
    }

    /// Initial value of written location `li`.
    pub(crate) fn init_value(&self, li: usize) -> i64 {
        self.init_of[li]
    }
}

/// The per-candidate half of an execution: the rf assignment and one
/// coherence permutation per written location. One overlay is rewritten
/// in place for every candidate of a skeleton; after the first candidate
/// has sized the buffers, advancing to the next candidate allocates
/// nothing.
#[derive(Debug, Default)]
pub struct Overlay {
    gen: u64,
    /// Per event id: the rf source write (`None` = initial state); `None`
    /// for non-reads.
    rf: Vec<Option<usize>>,
    /// Chosen coherence order per location, aligned with the skeleton's
    /// written-location list. Grow-only (never truncated, so inner
    /// buffers keep their allocations across skeletons); only the first
    /// `co_active` entries are meaningful.
    co: Vec<Vec<usize>>,
    co_active: usize,
}

impl Overlay {
    /// A fresh overlay with empty buffers.
    pub fn new() -> Self {
        Overlay::default()
    }

    /// Re-sizes the buffers for `skel`, clearing previous contents.
    pub(crate) fn reset(&mut self, skel: &ExecutionSkeleton) {
        self.rf.clear();
        self.rf.resize(skel.len(), None);
        self.co_active = skel.locs.len();
        if self.co.len() < self.co_active {
            self.co.resize(self.co_active, Vec::new());
        }
        for order in &mut self.co[..self.co_active] {
            order.clear();
        }
    }

    /// Sets read `r`'s source.
    pub(crate) fn set_rf(&mut self, r: usize, src: Option<usize>) {
        self.rf[r] = src;
    }

    /// Sets location `loc_idx`'s coherence order.
    pub(crate) fn set_co(&mut self, loc_idx: usize, order: &[usize]) {
        self.co[loc_idx].clear();
        self.co[loc_idx].extend_from_slice(order);
    }

    /// Stamps this overlay as a new candidate, invalidating any cached
    /// rf/co-derived state in evaluation contexts.
    pub(crate) fn stamp(&mut self) {
        self.gen = next_stamp();
    }
}

/// A borrowed candidate execution: a skeleton plus the overlay currently
/// describing one rf×co choice. Everything an [`Execution`] can answer,
/// without owning (or copying) anything.
#[derive(Clone, Copy, Debug)]
pub struct ExecutionView<'a> {
    skel: &'a ExecutionSkeleton,
    overlay: &'a Overlay,
}

impl<'a> ExecutionView<'a> {
    /// Pairs a skeleton with an overlay.
    pub(crate) fn new(skel: &'a ExecutionSkeleton, overlay: &'a Overlay) -> Self {
        ExecutionView { skel, overlay }
    }

    /// The shared skeleton.
    pub fn skeleton(&self) -> &'a ExecutionSkeleton {
        self.skel
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.skel.len()
    }

    /// `true` when there are no events.
    pub fn is_empty(&self) -> bool {
        self.skel.is_empty()
    }

    /// The skeleton's process-unique stamp. Stable across trace
    /// combinations that differ only in event values — evaluation
    /// caches of value-independent data key on this.
    pub fn skeleton_id(&self) -> u64 {
        self.skel.id
    }

    /// The trace combination's stamp: changes whenever any event value
    /// (and with it the observable outcome) may have changed, even when
    /// [`ExecutionView::skeleton_id`] is stable.
    pub fn combination_id(&self) -> u64 {
        self.skel.combo_gen
    }

    /// The overlay's candidate stamp (changes for every candidate).
    pub fn overlay_gen(&self) -> u64 {
        self.overlay.gen
    }

    /// The rf source of event `e` (`None` = initial state or non-read).
    pub fn rf(&self, e: usize) -> Option<usize> {
        self.overlay.rf[e]
    }

    /// Read event ids.
    pub fn read_set(&self) -> &'a EventSet {
        &self.skel.reads
    }

    /// Write event ids.
    pub fn write_set(&self) -> &'a EventSet {
        &self.skel.writes
    }

    /// Skeleton-derived base relations, by plan-facing accessor.
    pub(crate) fn po(&self) -> &'a Relation {
        &self.skel.po
    }

    pub(crate) fn po_loc(&self) -> &'a Relation {
        &self.skel.po_loc
    }

    pub(crate) fn ext(&self) -> &'a Relation {
        &self.skel.ext
    }

    pub(crate) fn int(&self) -> &'a Relation {
        &self.skel.int
    }

    pub(crate) fn same_loc(&self) -> &'a Relation {
        &self.skel.same_loc
    }

    pub(crate) fn addr(&self) -> &'a Relation {
        &self.skel.addr
    }

    pub(crate) fn data(&self) -> &'a Relation {
        &self.skel.data
    }

    pub(crate) fn ctrl(&self) -> &'a Relation {
        &self.skel.ctrl
    }

    pub(crate) fn rmw(&self) -> &'a Relation {
        &self.skel.rmw
    }

    pub(crate) fn fence(&self, scope: FenceScope) -> &'a Relation {
        match scope {
            FenceScope::Cta => &self.skel.fence_cta,
            FenceScope::Gl => &self.skel.fence_gl,
            FenceScope::Sys => &self.skel.fence_sys,
        }
    }

    pub(crate) fn scope_cta(&self) -> &'a Relation {
        &self.skel.scope_cta
    }

    /// Fills `r` with the overlay's read-from relation (init edges have
    /// no source write, so they do not appear; `fr` accounts for them).
    pub fn fill_rf_rel(&self, r: &mut Relation) {
        r.reset(self.len());
        for (read, src) in self.overlay.rf.iter().enumerate() {
            if let Some(w) = src {
                r.add(*w, read);
            }
        }
    }

    /// Fills `r` with the overlay's coherence relation (transitive over
    /// each location's chosen order).
    pub fn fill_co_rel(&self, r: &mut Relation) {
        r.reset(self.len());
        for order in &self.overlay.co[..self.overlay.co_active] {
            for i in 0..order.len() {
                for j in (i + 1)..order.len() {
                    r.add(order[i], order[j]);
                }
            }
        }
    }

    /// Fills `rel` with from-read: each read to every write
    /// coherence-after its source.
    pub fn fill_fr(&self, rel: &mut Relation) {
        rel.reset(self.len());
        for e in &self.skel.events {
            if !e.is_read() {
                continue;
            }
            let li = self.skel.loc_idx[e.id];
            if li == usize::MAX {
                continue; // the location is never written: no fr edges
            }
            let order = &self.overlay.co[li];
            match self.overlay.rf[e.id] {
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

    /// Checks RMW exclusivity under `mode`, like
    /// [`Execution::rmw_atomicity_holds`].
    pub fn rmw_atomicity_holds(&self, mode: RmwAtomicity) -> bool {
        if mode == RmwAtomicity::None || self.skel.rmw.is_empty() {
            return true;
        }
        for (r, w) in self.skel.rmw.iter_pairs() {
            let li = self.skel.loc_idx[r];
            if li == usize::MAX {
                continue;
            }
            let order = &self.overlay.co[li];
            let wpos = order
                .iter()
                .position(|&x| x == w)
                .expect("rmw write is in co");
            let start = match self.overlay.rf[r] {
                None => 0,
                Some(src) => match order.iter().position(|&x| x == src) {
                    Some(p) => p + 1,
                    None => continue,
                },
            };
            if start >= wpos {
                continue;
            }
            for &mid in &order[start..wpos] {
                let interferes = match mode {
                    RmwAtomicity::Full => true,
                    RmwAtomicity::AmongAtomics => self.skel.events[mid].atomic,
                    RmwAtomicity::None => false,
                };
                if interferes {
                    return false;
                }
            }
        }
        true
    }

    /// The value one observed slot takes under this overlay.
    fn slot_value(&self, slot: ObservedSlot) -> i64 {
        match slot {
            ObservedSlot::Fixed(v) => v,
            ObservedSlot::Mem(li) => {
                let w = *self.overlay.co[li]
                    .last()
                    .expect("written locations have non-empty coherence orders");
                self.skel.events[w].value
            }
        }
    }

    /// `true` iff the observed values are fixed by the skeleton (no
    /// observed expression reads final memory): every candidate of this
    /// skeleton then shares one outcome, so consumers can dedup once per
    /// skeleton instead of once per candidate.
    pub fn observed_is_skeleton_fixed(&self) -> bool {
        self.skel
            .observed_slots
            .iter()
            .all(|s| matches!(s, ObservedSlot::Fixed(_)))
    }

    /// Fills `out` with the observed values, in
    /// [`weakgpu_litmus::LitmusTest::observed`] order — the
    /// allocation-free form of [`ExecutionView::outcome`], for
    /// per-candidate dedup against previously seen value vectors.
    pub fn fill_observed(&self, out: &mut Vec<i64>) {
        out.clear();
        out.extend(self.skel.observed_slots.iter().map(|&s| self.slot_value(s)));
    }

    /// The candidate's observable [`Outcome`] (allocates; prefer
    /// [`ExecutionView::fill_observed`] in per-candidate loops).
    pub fn outcome(&self) -> Outcome {
        self.skel
            .observed_exprs
            .iter()
            .cloned()
            .zip(self.skel.observed_slots.iter().map(|&s| self.slot_value(s)))
            .collect()
    }

    /// Materialises an owned [`Execution`] — the bridge to the legacy
    /// API for `render`, diagnostics and differential testing. This is
    /// the one place the old per-candidate cloning survives; the
    /// streaming verdict paths never call it.
    pub fn to_execution(&self) -> Execution {
        Execution {
            events: self.skel.events.clone(),
            thread_cta: self.skel.thread_cta.clone(),
            rf: self.overlay.rf.clone(),
            co: self
                .skel
                .locs
                .iter()
                .cloned()
                .zip(self.overlay.co[..self.overlay.co_active].iter().cloned())
                .collect(),
            init: self.skel.init.clone(),
            addr: self.skel.addr.clone(),
            data: self.skel.data.clone(),
            ctrl: self.skel.ctrl.clone(),
            rmw: self.skel.rmw.clone(),
        }
    }
}
