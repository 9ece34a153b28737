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
//! the minimum.

use std::collections::BTreeMap;
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};

use weakgpu_litmus::{FenceScope, FinalExpr, Loc, Outcome};

use crate::event::Event;
use crate::exec::{self, Execution, RmwAtomicity};
use crate::relation::{EventSet, LaneRel, Relation};
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

    /// Read `r`'s current rf source (`None` = initial state).
    pub(crate) fn rf_of(&self, r: usize) -> Option<usize> {
        self.rf[r]
    }

    /// Location `loc_idx`'s current coherence order.
    pub(crate) fn co_order(&self, loc_idx: usize) -> &[usize] {
        &self.co[loc_idx]
    }
}

/// A set of lanes in a candidate batch: one bit per lane, lane `i` at
/// bit `i`. Lanes index the up-to-64 sibling candidates packed into an
/// [`OverlayBatch`]; masks flow through the bit-plane evaluation path
/// ([`crate::plan::Plan::allows_batch`]) as plain `u64` words, with this
/// newtype marking the API boundaries.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct LaneMask(u64);

impl LaneMask {
    /// The empty lane set.
    pub const EMPTY: LaneMask = LaneMask(0);

    /// The mask with the low `lanes` bits set (`lanes <= 64`).
    pub fn all(lanes: usize) -> LaneMask {
        debug_assert!(lanes <= 64);
        if lanes >= 64 {
            LaneMask(!0)
        } else {
            LaneMask((1u64 << lanes) - 1)
        }
    }

    /// Wraps a raw bit mask.
    pub fn from_bits(bits: u64) -> LaneMask {
        LaneMask(bits)
    }

    /// The raw bit mask.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// `true` iff lane `lane` is in the set.
    pub fn contains(self, lane: usize) -> bool {
        lane < 64 && (self.0 >> lane) & 1 != 0
    }

    /// Number of lanes in the set.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// `true` when no lane is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Up to 64 sibling candidates of one skeleton packed as bit-planes:
/// lane `i` of every [`LaneRel`] plane holds candidate `i`'s edge bit.
/// The batched enumeration driver fills one lane per surviving leaf of
/// a subtree (candidates that share an rf/co prefix and differ only in
/// the trailing choices), then judges all of them in one
/// [`crate::plan::Plan::allows_batch`] pass — skeleton-derived
/// registers are shared across lanes as broadcasts, and every word-level
/// relational op covers all 64 lanes at once.
///
/// Like [`Overlay`], one batch buffer is rewritten in place for every
/// batch ([`OverlayBatch::begin`] + [`OverlayBatch::push_lane`]); after
/// the first batch has sized the planes, refills allocate nothing.
#[derive(Debug, Default)]
pub struct OverlayBatch {
    gen: u64,
    n: usize,
    lanes: usize,
    rf: LaneRel,
    co: LaneRel,
    fr: LaneRel,
    /// Per-lane RMW exclusivity verdicts, precomputed at
    /// [`OverlayBatch::push_lane`] time for both checking modes (the
    /// batch former does not know which model will judge the batch).
    rmw_full: u64,
    rmw_atomics: u64,
    has_rmw: bool,
}

impl OverlayBatch {
    /// A fresh batch buffer with empty planes.
    pub fn new() -> OverlayBatch {
        OverlayBatch::default()
    }

    /// Re-arms the buffer for a new batch of candidates of `skel`:
    /// clears every plane, resets the lane count and stamps a fresh
    /// batch generation (shared stamp space with overlays and
    /// skeletons, so evaluation contexts can key cached lane planes on
    /// it without colliding with per-candidate stamps).
    pub fn begin(&mut self, skel: &ExecutionSkeleton) {
        self.gen = next_stamp();
        self.n = skel.len();
        self.lanes = 0;
        self.rf.reset(self.n);
        self.co.reset(self.n);
        self.fr.reset(self.n);
        self.has_rmw = !skel.rmw.is_empty();
        self.rmw_full = 0;
        self.rmw_atomics = 0;
    }

    /// Packs the candidate currently described by `view` into the next
    /// free lane: its rf edges, transitive coherence edges and from-read
    /// edges land in lane `i` of the respective planes, and its RMW
    /// exclusivity verdicts (when the skeleton has RMW pairs at all) in
    /// bit `i` of the per-mode masks. Returns the lane index.
    ///
    /// Panics when the batch is full (64 lanes) or `view` belongs to a
    /// different skeleton than [`OverlayBatch::begin`] saw.
    pub fn push_lane(&mut self, view: &ExecutionView<'_>) -> usize {
        assert!(self.lanes < 64, "OverlayBatch is full");
        assert_eq!(view.len(), self.n, "view belongs to a different skeleton");
        let lane = self.lanes;
        self.lanes += 1;
        let skel = view.skel;
        let overlay = view.overlay;
        for (read, src) in overlay.rf.iter().enumerate() {
            if let Some(w) = src {
                self.rf.add(*w, read, lane);
            }
        }
        for order in &overlay.co[..overlay.co_active] {
            for i in 0..order.len() {
                for j in (i + 1)..order.len() {
                    self.co.add(order[i], order[j], lane);
                }
            }
        }
        for e in &skel.events {
            if !e.is_read() {
                continue;
            }
            let li = skel.loc_idx[e.id];
            if li == usize::MAX {
                continue; // the location is never written: no fr edges
            }
            let order = &overlay.co[li];
            match overlay.rf[e.id] {
                None => {
                    for &w in order {
                        self.fr.add(e.id, w, lane);
                    }
                }
                Some(src) => {
                    let pos = order
                        .iter()
                        .position(|&w| w == src)
                        .expect("rf source is in co");
                    for &w in &order[pos + 1..] {
                        self.fr.add(e.id, w, lane);
                    }
                }
            }
        }
        if self.has_rmw {
            if view.rmw_atomicity_holds(RmwAtomicity::Full) {
                self.rmw_full |= 1 << lane;
            }
            if view.rmw_atomicity_holds(RmwAtomicity::AmongAtomics) {
                self.rmw_atomics |= 1 << lane;
            }
        }
        lane
    }

    /// `true` when batches of this skeleton must be packed by walking
    /// leaves ([`OverlayBatch::push_lane`]): RMW exclusivity is a
    /// per-lane verdict the axis-masked packing path cannot derive from
    /// edge masks alone.
    pub(crate) fn needs_lane_walk(&self) -> bool {
        self.has_rmw
    }

    /// Declares the batch's lane count without per-lane pushes. The
    /// axis-masked packing path fills whole planes with
    /// [`OverlayBatch::add_rf_masked`]-family bulk ORs and then claims
    /// all `lanes` lanes at once.
    pub(crate) fn set_lane_count(&mut self, lanes: usize) {
        debug_assert!(lanes <= 64, "OverlayBatch holds at most 64 lanes");
        self.lanes = lanes;
    }

    /// ORs `mask` into the rf plane at `(w, r)`: read `r` takes write
    /// `w` as its source in every lane of `mask`.
    pub(crate) fn add_rf_masked(&mut self, w: usize, r: usize, mask: u64) {
        self.rf.or_pair(w, r, mask);
    }

    /// ORs `mask` into the coherence plane at `(a, b)` (`a` before `b`
    /// in their location's order, transitively).
    pub(crate) fn add_co_pair_masked(&mut self, a: usize, b: usize, mask: u64) {
        self.co.or_pair(a, b, mask);
    }

    /// ORs `mask` into the from-read plane at `(r, w)`: read `r`
    /// precedes write `w` in coherence in every lane of `mask`.
    pub(crate) fn add_fr_masked(&mut self, r: usize, w: usize, mask: u64) {
        self.fr.or_pair(r, w, mask);
    }

    /// The batch's stamp: changes on every [`OverlayBatch::begin`].
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// Number of events of the batched skeleton.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when no lane has been pushed.
    pub fn is_empty(&self) -> bool {
        self.lanes == 0
    }

    /// Number of filled lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The filled lanes as a mask (lanes `0..lanes()`).
    pub fn live_mask(&self) -> LaneMask {
        LaneMask::all(self.lanes)
    }

    /// The lanes whose candidate satisfies RMW exclusivity under
    /// `mode`. All-ones (every lane passes) when the skeleton has no
    /// RMW pairs or the mode never fails.
    pub fn rmw_mask(&self, mode: RmwAtomicity) -> LaneMask {
        if !self.has_rmw || mode == RmwAtomicity::None {
            return LaneMask::from_bits(!0);
        }
        match mode {
            RmwAtomicity::Full => LaneMask::from_bits(self.rmw_full),
            RmwAtomicity::AmongAtomics => LaneMask::from_bits(self.rmw_atomics),
            RmwAtomicity::None => unreachable!(),
        }
    }

    /// The read-from planes (lane `i` = lane `i`'s rf edges).
    pub(crate) fn rf_planes(&self) -> &LaneRel {
        &self.rf
    }

    /// The coherence planes (transitive per-location orders).
    pub(crate) fn co_planes(&self) -> &LaneRel {
        &self.co
    }

    /// The from-read planes.
    pub(crate) fn fr_planes(&self) -> &LaneRel {
        &self.fr
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

/// A *partially* assigned candidate: the first `rf_depth` read slots and
/// the first `co_depth` coherence axes of the overlay are committed, the
/// rest are still open. This is the node type of the verdict walk's
/// decision tree ([`crate::enumerate::for_each_execution_pruned`]): rf
/// slots form the outer tree levels (in ascending read-event order),
/// coherence axes the inner ones (in sorted location order), matching
/// the exhaustive stream's lexicographic candidate order exactly.
///
/// The partial view answers *interval* questions — for each overlay
/// base relation it can produce a lower bound (pairs present in every
/// extension) and an upper bound (pairs present in some extension),
/// which [`crate::plan::Plan::check_partial_view`] turns into a
/// three-valued verdict. It also spans the observable outcomes of the
/// subtree ([`PartialView::observed_combos`]): outcomes depend only on
/// fixed register values and the last write of each observed location,
/// so the open axes contribute a mixed-radix product of "which write is
/// last", independent of the open rf slots.
#[derive(Clone, Copy, Debug)]
pub struct PartialView<'a> {
    skel: &'a ExecutionSkeleton,
    overlay: &'a Overlay,
    /// Read event ids with at least one rf candidate, ascending — the
    /// tree's rf levels.
    reads: &'a [usize],
    /// Per read slot: its value-consistent rf candidates.
    rf_choices: &'a [Vec<Option<usize>>],
    rf_depth: usize,
    co_depth: usize,
}

impl<'a> PartialView<'a> {
    /// Pairs a skeleton/overlay with a committed prefix: the first
    /// `rf_depth` reads and `co_depth` coherence axes of the overlay are
    /// live, everything beyond may hold stale data and is never read.
    pub(crate) fn new(
        skel: &'a ExecutionSkeleton,
        overlay: &'a Overlay,
        reads: &'a [usize],
        rf_choices: &'a [Vec<Option<usize>>],
        rf_depth: usize,
        co_depth: usize,
    ) -> Self {
        PartialView {
            skel,
            overlay,
            reads,
            rf_choices,
            rf_depth,
            co_depth,
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.skel.len()
    }

    /// `true` when there are no events.
    pub fn is_empty(&self) -> bool {
        self.skel.is_empty()
    }

    /// The skeleton's process-unique stamp.
    pub fn skeleton_id(&self) -> u64 {
        self.skel.id
    }

    /// The trace combination's stamp (see
    /// [`ExecutionView::combination_id`]).
    pub fn combination_id(&self) -> u64 {
        self.skel.combo_gen
    }

    /// The overlay's candidate stamp: every tree node is stamped before
    /// evaluation, so partial and concrete evaluations never share one.
    pub fn overlay_gen(&self) -> u64 {
        self.overlay.gen
    }

    /// How many read slots are committed.
    pub fn rf_depth(&self) -> usize {
        self.rf_depth
    }

    /// How many coherence axes are committed.
    pub fn co_depth(&self) -> usize {
        self.co_depth
    }

    /// `true` when every slot is committed — the node is a leaf and the
    /// view describes exactly one candidate.
    pub fn is_complete(&self) -> bool {
        self.rf_depth == self.reads.len() && self.co_depth == self.skel.locs.len()
    }

    /// The same skeleton/overlay pair as a concrete view — only valid
    /// for skeleton-derived (communication-independent) queries unless
    /// [`PartialView::is_complete`].
    pub(crate) fn as_view(&self) -> ExecutionView<'a> {
        ExecutionView::new(self.skel, self.overlay)
    }

    /// The underlying skeleton.
    pub(crate) fn skel(&self) -> &'a ExecutionSkeleton {
        self.skel
    }

    /// The underlying overlay.
    pub(crate) fn overlay(&self) -> &'a Overlay {
        self.overlay
    }

    /// The tree's read slots (ascending read-event order).
    pub(crate) fn reads_list(&self) -> &'a [usize] {
        self.reads
    }

    /// Read slot `k`'s value-consistent rf candidates.
    pub(crate) fn rf_candidates(&self, k: usize) -> &'a [Option<usize>] {
        &self.rf_choices[k]
    }

    /// A copy of this view re-rooted at explicit depths — how the
    /// incremental evaluator replays fills for intermediate tree levels
    /// while syncing its maintained state to a deeper node.
    pub(crate) fn at_depth(&self, rf_depth: usize, co_depth: usize) -> PartialView<'a> {
        PartialView {
            rf_depth,
            co_depth,
            ..*self
        }
    }

    /// Bounds on the read-from relation: `lo` holds edges of committed
    /// slots (plus forced single-candidate open slots), `hi` adds every
    /// candidate edge of the open slots.
    pub(crate) fn fill_rf_bounds(&self, lo: &mut Relation, hi: &mut Relation) {
        let n = self.skel.len();
        lo.reset(n);
        hi.reset(n);
        for (k, &r) in self.reads.iter().enumerate() {
            if k < self.rf_depth {
                if let Some(w) = self.overlay.rf[r] {
                    lo.add(w, r);
                    hi.add(w, r);
                }
            } else {
                let cands = &self.rf_choices[k];
                for w in cands.iter().flatten() {
                    hi.add(*w, r);
                }
                if cands.len() == 1 {
                    if let Some(w) = cands[0] {
                        lo.add(w, r);
                    }
                }
            }
        }
    }

    /// Bounds on coherence: committed axes contribute their transitive
    /// order to both bounds; open axes contribute every ordered pair of
    /// same-location writes (both directions) to `hi` only.
    pub(crate) fn fill_co_bounds(&self, lo: &mut Relation, hi: &mut Relation) {
        let n = self.skel.len();
        lo.reset(n);
        hi.reset(n);
        for li in 0..self.skel.locs.len() {
            if li < self.co_depth {
                let order = &self.overlay.co[li];
                for i in 0..order.len() {
                    for j in (i + 1)..order.len() {
                        lo.add(order[i], order[j]);
                        hi.add(order[i], order[j]);
                    }
                }
            } else {
                let ws = &self.skel.writes_by_loc[li];
                for &a in ws {
                    for &b in ws {
                        if a != b {
                            hi.add(a, b);
                        }
                    }
                }
            }
        }
    }

    /// Bounds on from-read. A committed init read precedes every write
    /// of its location under *any* coherence order — those edges are
    /// definite even while the axis is open, which is the main source of
    /// early conflict cuts. Open rf slots contribute an edge to `lo`
    /// only when every candidate source implies it.
    pub(crate) fn fill_fr_bounds(&self, lo: &mut Relation, hi: &mut Relation) {
        let n = self.skel.len();
        lo.reset(n);
        hi.reset(n);
        for (k, &r) in self.reads.iter().enumerate() {
            self.fr_slot_each(k, self.rf_depth, self.co_depth, |w, definite| {
                if definite {
                    lo.add(r, w);
                }
                hi.add(r, w);
            });
        }
    }

    /// Read slot `k`'s contribution to the from-read bounds at explicit
    /// depths: calls `edge(w, definite)` for every write `w` the slot's
    /// read may precede — `definite` when the edge is in every extension
    /// (the `lo` bound), otherwise `hi`-only. All of a slot's fr edges
    /// share the read as source, so one callback sweep rebuilds exactly
    /// one row — which is how the incremental evaluator recomputes only
    /// the rows an axis commit touched while [`fill_fr_bounds`] (the
    /// full fill, looping this helper over every slot) stays the single
    /// source of the fr semantics.
    ///
    /// [`fill_fr_bounds`]: PartialView::fill_fr_bounds
    pub(crate) fn fr_slot_each(
        &self,
        k: usize,
        rf_depth: usize,
        co_depth: usize,
        mut edge: impl FnMut(usize, bool),
    ) {
        let r = self.reads[k];
        let li = self.skel.loc_idx[r];
        if li == usize::MAX {
            return; // the location is never written: no fr edges
        }
        let ws = &self.skel.writes_by_loc[li];
        if k < rf_depth {
            match self.overlay.rf[r] {
                None => {
                    for &w in ws {
                        edge(w, true);
                    }
                }
                Some(src) => {
                    if li < co_depth {
                        let order = &self.overlay.co[li];
                        let pos = order
                            .iter()
                            .position(|&w| w == src)
                            .expect("rf source is in co");
                        for &w in &order[pos + 1..] {
                            edge(w, true);
                        }
                    } else {
                        for &w in ws {
                            if w != src {
                                edge(w, false);
                            }
                        }
                    }
                }
            }
        } else {
            let cands = &self.rf_choices[k];
            for &w in ws {
                let mut in_all = true;
                let mut in_any = false;
                for c in cands {
                    let (all, any) = match c {
                        None => (true, true),
                        Some(src) if *src == w => (false, false),
                        Some(src) => {
                            if li < co_depth {
                                let order = &self.overlay.co[li];
                                let spos = order
                                    .iter()
                                    .position(|&x| x == *src)
                                    .expect("rf source is in co");
                                let wpos =
                                    order.iter().position(|&x| x == w).expect("write is in co");
                                let after = spos < wpos;
                                (after, after)
                            } else {
                                (false, true)
                            }
                        }
                    };
                    in_all &= all;
                    in_any |= any;
                }
                if in_any {
                    edge(w, in_all);
                }
            }
        }
    }

    /// Three-valued RMW exclusivity: `Some(v)` when every extension
    /// agrees on `v`, `None` otherwise. A pair is only judged once both
    /// its read's rf slot and its location's coherence axis are
    /// committed; a committed violation forces `Some(false)` regardless
    /// of other pairs.
    pub fn rmw_atomicity_partial(&self, mode: RmwAtomicity) -> Option<bool> {
        if mode == RmwAtomicity::None || self.skel.rmw.is_empty() {
            return Some(true);
        }
        let mut definite = true;
        for (r, w) in self.skel.rmw.iter_pairs() {
            let li = self.skel.loc_idx[r];
            if li == usize::MAX {
                continue;
            }
            let k = match self.reads.binary_search(&r) {
                Ok(k) => k,
                Err(_) => continue, // no rf candidate: the slot never opens
            };
            if k >= self.rf_depth || li >= self.co_depth {
                definite = false;
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
                    return Some(false);
                }
            }
        }
        if definite {
            Some(true)
        } else {
            None
        }
    }

    /// How many distinct observed-value vectors the subtree under this
    /// node spans: a mixed-radix product over the *open* observed memory
    /// locations (each contributes "which write lands last"), saturating
    /// on overflow. Duplicate observations of one location share an
    /// axis; committed axes and fixed slots contribute nothing. The open
    /// rf slots contribute nothing either — rf choices never change an
    /// observed value.
    pub fn observed_combos(&self) -> usize {
        let mut combos = 1usize;
        for (j, slot) in self.skel.observed_slots.iter().enumerate() {
            if let ObservedSlot::Mem(li) = *slot {
                if li >= self.co_depth && self.first_mem_occurrence(li) == j {
                    combos = combos.saturating_mul(self.skel.writes_by_loc[li].len());
                }
            }
        }
        combos
    }

    /// Index of the first observed slot naming location `li`.
    fn first_mem_occurrence(&self, li: usize) -> usize {
        self.skel
            .observed_slots
            .iter()
            .position(|s| matches!(s, ObservedSlot::Mem(l) if *l == li))
            .expect("li comes from an observed slot")
    }

    /// Fills `out` with the observed values of combination `combo`
    /// (`0..observed_combos()`), in `LitmusTest::observed` order. Each
    /// open observed location decodes one mixed-radix digit of `combo`
    /// selecting which of its writes lands last.
    pub fn fill_observed_combo(&self, mut combo: usize, out: &mut Vec<i64>) {
        out.clear();
        for (j, slot) in self.skel.observed_slots.iter().enumerate() {
            let v = match *slot {
                ObservedSlot::Fixed(v) => v,
                ObservedSlot::Mem(li) => {
                    if li < self.co_depth {
                        let w = *self.overlay.co[li]
                            .last()
                            .expect("written locations have non-empty coherence orders");
                        self.skel.events[w].value
                    } else {
                        let fj = self.first_mem_occurrence(li);
                        if fj == j {
                            let ws = &self.skel.writes_by_loc[li];
                            let d = combo % ws.len();
                            combo /= ws.len();
                            self.skel.events[ws[d]].value
                        } else {
                            out[fj] // one `out` entry per slot: already decoded
                        }
                    }
                }
            };
            out.push(v);
        }
    }

    /// Zips a value vector (from [`PartialView::fill_observed_combo`])
    /// with the observed expressions into an [`Outcome`].
    pub fn outcome_from_vals(&self, vals: &[i64]) -> Outcome {
        self.skel
            .observed_exprs
            .iter()
            .cloned()
            .zip(vals.iter().copied())
            .collect()
    }
}
