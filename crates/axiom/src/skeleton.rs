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
//!   built **once** per trace combination, straight from the trace
//!   arena of [`crate::symbolic`] and on dense ids: an event names its
//!   location by id, and deciding whether a new combination can keep the
//!   skeleton compares trace shapes, never names;
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
//! source and every written location its coherence order. Names come
//! back only when a view is materialised ([`ExecutionView::outcome`],
//! [`ExecutionView::to_execution`]), through the test's tables.

use std::sync::atomic::{AtomicU64, Ordering};

use weakgpu_litmus::{CacheOp, FenceScope, ObsLayout, Outcome};

use crate::event::{Event, EventKind};
use crate::exec::{Execution, RmwAtomicity};
use crate::relation::{EventSet, Relation};
use crate::symbolic::{LocTable, TraceArena, NO_LOC};

/// Process-unique stamps for skeletons, overlays and compiled plans.
static STAMP: AtomicU64 = AtomicU64::new(1);

/// The next process-unique stamp (never 0, so 0 can mean "none").
pub(crate) fn next_stamp() -> u64 {
    STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Where one observed [`FinalExpr`](weakgpu_litmus::FinalExpr) takes its value
/// from, on dense ids.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ObservedSrc {
    /// A final register of thread `tid`: the dense index in its program,
    /// `None` when the code never mentions it (it then reads 0).
    Reg { tid: usize, reg: Option<usize> },
    /// The final memory value of a location id.
    Mem(u32),
}

/// The per-test tables a skeleton and its views read, on dense ids:
/// location names (id = index; the memory map's locations come first, in
/// name order, and a validated test has no others), initial memory, thread
/// placement and the observation layout. Filled once per test in
/// place; names are only read to materialise named values
/// ([`ExecutionView::outcome`], [`ExecutionView::to_execution`]).
#[derive(Default, Debug)]
pub(crate) struct TestTables {
    pub(crate) locs: LocTable,
    /// How many locations the memory map declares: ids below this.
    pub(crate) memory_locs: usize,
    /// Initial value per location id (0 when off the memory map).
    pub(crate) init: Vec<i64>,
    /// CTA per thread.
    pub(crate) thread_cta: Vec<usize>,
    /// The test's observation layout: the observed expressions, in
    /// outcome order, and the final condition compiled over them.
    pub(crate) layout: ObsLayout,
    /// Where each observed expression's value comes from, aligned with
    /// `layout.exprs()`.
    pub(crate) observed_src: Vec<ObservedSrc>,
}

/// How one observed expression resolves for candidates of a skeleton.
#[derive(Clone, Copy, Debug)]
enum ObservedSlot {
    /// The value is fixed by the trace combination (final register
    /// values, and locations no candidate writes).
    Fixed(i64),
    /// The final value of the written location with this index in
    /// `ExecutionSkeleton::locs`: the last write of the overlay's chosen
    /// coherence order.
    Mem(usize),
}

/// One event of a skeleton, on dense ids; its id is its index.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SkelEvent {
    pub(crate) tid: u32,
    /// Position in the thread's events (program order).
    pub(crate) po_idx: u32,
    pub(crate) kind: EventKind,
    /// Location id, [`NO_LOC`] for fences.
    pub(crate) loc: u32,
    pub(crate) value: i64,
    pub(crate) cache: CacheOp,
    pub(crate) volatile: bool,
    pub(crate) atomic: bool,
    pub(crate) instr_idx: u32,
}

/// The communication-independent part of a candidate execution: built
/// once per thread-trace combination and shared by every rf×co overlay.
/// The enumerator keeps **one** skeleton buffer and refills it in place
/// per combination (`fill`) straight from the trace arena, comparing
/// ids, never names; after the first combination has sized the
/// buffers, moving to the next allocates nothing.
#[derive(Debug, Default)]
pub struct ExecutionSkeleton {
    id: u64,
    /// Stamp of the trace *combination* currently buffered: unlike `id`
    /// (which survives value-only changes so evaluation caches persist),
    /// this changes on every `fill` — key
    /// value-sensitive caches (observed outcomes) on it.
    combo_gen: u64,
    events: Vec<SkelEvent>,
    /// The arena generation and per-thread trace indices the relations
    /// were built from.
    built_gen: u64,
    built: Vec<usize>,
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
    /// Written location ids, ascending (name order for a validated
    /// test) — the coherence axes of every overlay.
    locs: Vec<u32>,
    /// Write event ids per written location, aligned with `locs`.
    writes_by_loc: Vec<Vec<usize>>,
    /// Per event id: index into `locs` of its location, or `usize::MAX`
    /// when the event has no location or the location is never written.
    loc_idx: Vec<usize>,
    /// Per location id: its index into `locs`, or `usize::MAX`.
    written_of: Vec<usize>,
    /// Initial memory value per written location, aligned with `locs`.
    init_of: Vec<i64>,
    /// How each observed expression resolves, aligned with
    /// [`TestTables::observed`].
    observed_slots: Vec<ObservedSlot>,
    /// Fill scratch: per location id, its membership bitmap, `words`
    /// u64s each.
    loc_mask_buf: Vec<u64>,
    /// Fill scratch: per thread, the `(offset, len)` of its contiguous
    /// event-id block.
    blocks: Vec<(usize, usize)>,
}

impl ExecutionSkeleton {
    /// Refills this buffer as the skeleton of one thread-trace
    /// combination: `combo[t]` is thread `t`'s trace in `arena`.
    ///
    /// When every thread's trace has the same shape as the one the
    /// relations were built from (the common case — trace combinations
    /// of a branchless test vary read values, never structure), the
    /// skeleton **keeps its identity stamp**: every relation is
    /// value-independent and therefore still valid, and evaluation
    /// contexts keep their cached skeleton-derived registers too. Only
    /// the events' values and the observed slots are refreshed.
    /// Otherwise the buffer is rebuilt under a fresh stamp. A new arena
    /// generation (a new test) always rebuilds.
    /// Returns `true` when the buffer's identity (and with it every
    /// relation, set and table) was reused, `false` when it was rebuilt.
    pub(crate) fn fill(
        &mut self,
        arena: &TraceArena,
        combo: &[usize],
        tables: &TestTables,
    ) -> bool {
        self.combo_gen = next_stamp();
        let reuse = self.id != 0
            && self.built_gen == arena.gen()
            && self.built.len() == combo.len()
            && self
                .built
                .iter()
                .zip(combo)
                .all(|(&a, &b)| a == b || arena.same_shape(a, b));
        self.built_gen = arena.gen();
        self.built.clear();
        self.built.extend_from_slice(combo);
        self.events.clear();
        self.blocks.clear();
        for (tid, &t) in combo.iter().enumerate() {
            let trace = arena.events(t);
            self.blocks.push((self.events.len(), trace.len()));
            self.events
                .extend(trace.iter().enumerate().map(|(i, e)| SkelEvent {
                    tid: tid as u32,
                    po_idx: i as u32,
                    kind: e.kind,
                    loc: e.loc,
                    value: e.value,
                    cache: e.cache,
                    volatile: e.volatile,
                    atomic: e.atomic,
                    instr_idx: e.instr_idx,
                }));
        }
        if !reuse {
            self.rebuild(arena, combo, tables);
        }
        self.refill_observed(arena, combo, tables);
        reuse
    }

    /// Rebuilds every relation, set and location table from the
    /// buffered events, under a fresh stamp.
    fn rebuild(&mut self, arena: &TraceArena, combo: &[usize], tables: &TestTables) {
        self.id = next_stamp();
        let n = self.events.len();
        self.addr.reset(n);
        self.data.reset(n);
        self.ctrl.reset(n);
        self.rmw.reset(n);
        for (&t, &(off, _)) in combo.iter().zip(&self.blocks) {
            for (i, e) in arena.events(t).iter().enumerate() {
                for &d in arena.addr(e) {
                    self.addr.add(off + d as usize, off + i);
                }
                for &d in arena.data(e) {
                    self.data.add(off + d as usize, off + i);
                }
                for &d in arena.ctrl(e) {
                    self.ctrl.add(off + d as usize, off + i);
                }
            }
            for &(r, w) in arena.rmw(t) {
                self.rmw.add(off + r as usize, off + w as usize);
            }
        }
        let events = &self.events;

        // A trace combination's event ids are contiguous per thread and
        // po-ordered within each block, so the pair relations reduce to
        // word-level range/mask fills instead of O(n²) pair loops.
        let words = n.div_ceil(64).max(1);
        let nlocs = tables.locs.len();
        self.loc_mask_buf.clear();
        self.loc_mask_buf.resize(nlocs * words, 0);
        for (id, e) in events.iter().enumerate() {
            if e.loc != NO_LOC {
                self.loc_mask_buf[e.loc as usize * words + id / 64] |= 1 << (id % 64);
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
        for (id, e) in events.iter().enumerate() {
            if e.loc != NO_LOC {
                let l = e.loc as usize;
                let mask = &self.loc_mask_buf[l * words..(l + 1) * words];
                self.same_loc.or_mask(id, mask);
                let (off, len) = self.blocks[e.tid as usize];
                self.po_loc.or_mask_range(id, mask, id + 1, off + len);
            }
        }
        self.fence_cta.reset(n);
        self.fence_gl.reset(n);
        self.fence_sys.reset(n);
        for (id, f) in events.iter().enumerate() {
            if let EventKind::Fence(scope) = f.kind {
                let rel = match scope {
                    FenceScope::Cta => &mut self.fence_cta,
                    FenceScope::Gl => &mut self.fence_gl,
                    FenceScope::Sys => &mut self.fence_sys,
                };
                let (off, len) = self.blocks[f.tid as usize];
                for a in off..id {
                    rel.or_range(a, id + 1, off + len);
                }
            }
        }
        let thread_cta = &tables.thread_cta;
        self.scope_cta.reset(n);
        for &(off, len) in &self.blocks {
            for a in off..off + len {
                for (u, &(uoff, ulen)) in self.blocks.iter().enumerate() {
                    if thread_cta[events[a].tid as usize] == thread_cta[u] {
                        self.scope_cta.or_range(a, uoff, uoff + ulen);
                    }
                }
            }
        }
        self.reads.reset(n);
        self.writes.reset(n);
        for (id, e) in events.iter().enumerate() {
            match e.kind {
                EventKind::Read => self.reads.insert(id),
                EventKind::Write => self.writes.insert(id),
                EventKind::Fence(_) => {}
            }
        }

        // Written locations in id (= name) order, and their writes.
        self.written_of.clear();
        self.written_of.resize(nlocs, usize::MAX);
        for e in events {
            if e.kind.is_write() {
                self.written_of[e.loc as usize] = 0;
            }
        }
        self.locs.clear();
        for (l, w) in self.written_of.iter_mut().enumerate() {
            if *w == 0 {
                *w = self.locs.len();
                self.locs.push(l as u32);
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
        self.loc_idx.clear();
        for (id, e) in events.iter().enumerate() {
            let li = match e.loc {
                NO_LOC => usize::MAX,
                l => self.written_of[l as usize],
            };
            if e.kind.is_write() {
                self.writes_by_loc[li].push(id);
            }
            self.loc_idx.push(li);
        }
        self.init_of.clear();
        self.init_of
            .extend(self.locs.iter().map(|&l| tables.init[l as usize]));
    }

    /// Recomputes the observable slots: the one piece of skeleton data
    /// that depends on trace *values* (final register contents).
    fn refill_observed(&mut self, arena: &TraceArena, combo: &[usize], tables: &TestTables) {
        self.observed_slots.clear();
        for &src in &tables.observed_src {
            self.observed_slots.push(match src {
                ObservedSrc::Reg { tid, reg } => ObservedSlot::Fixed(match (combo.get(tid), reg) {
                    (Some(&t), Some(r)) => arena.finals(t)[r].final_int(),
                    _ => 0,
                }),
                ObservedSrc::Mem(l) => match self.written_of[l as usize] {
                    usize::MAX => ObservedSlot::Fixed(tables.init[l as usize]),
                    li => ObservedSlot::Mem(li),
                },
            });
        }
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

    /// The event list (ids equal indices).
    pub(crate) fn events(&self) -> &[SkelEvent] {
        &self.events
    }

    /// Write event ids per written location, in location order.
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

    /// Everything a rebuild derives from the combination's shape, so a
    /// test can compare a reused skeleton with a freshly built one.
    #[cfg(test)]
    #[allow(clippy::type_complexity)]
    pub(crate) fn derived(
        &self,
    ) -> (
        [&Relation; 13],
        (
            &EventSet,
            &EventSet,
            &[u32],
            &[Vec<usize>],
            &[usize],
            &[i64],
        ),
    ) {
        (
            [
                &self.addr,
                &self.data,
                &self.ctrl,
                &self.rmw,
                &self.po,
                &self.po_loc,
                &self.ext,
                &self.int,
                &self.same_loc,
                &self.fence_cta,
                &self.fence_gl,
                &self.fence_sys,
                &self.scope_cta,
            ],
            (
                &self.reads,
                &self.writes,
                &self.locs,
                self.writes_per_loc(),
                &self.loc_idx,
                &self.init_of,
            ),
        )
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

    /// Location `loc_idx`'s coherence order, to rewrite in place.
    pub(crate) fn co_mut(&mut self, loc_idx: usize) -> &mut [usize] {
        &mut self.co[loc_idx]
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
    tables: &'a TestTables,
}

impl<'a> ExecutionView<'a> {
    /// Pairs a skeleton with an overlay; `tables` names the test's
    /// locations and observed expressions.
    pub(crate) fn new(
        skel: &'a ExecutionSkeleton,
        overlay: &'a Overlay,
        tables: &'a TestTables,
    ) -> Self {
        ExecutionView {
            skel,
            overlay,
            tables,
        }
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
        for r in self.skel.reads.iter() {
            let li = self.skel.loc_idx[r];
            if li == usize::MAX {
                continue; // the location is never written: no fr edges
            }
            let order = &self.overlay.co[li];
            match self.overlay.rf[r] {
                None => {
                    // Reads from init: all writes overwrite it.
                    for &w in order {
                        rel.add(r, w);
                    }
                }
                Some(src) => {
                    let pos = order
                        .iter()
                        .position(|&w| w == src)
                        .expect("rf source is in co");
                    for &w in &order[pos + 1..] {
                        rel.add(r, w);
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

    /// The test's observation layout, which judges and names the vectors
    /// [`ExecutionView::fill_observed`] fills.
    pub fn layout(&self) -> &ObsLayout {
        &self.tables.layout
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

    /// Fills `out` with the candidate's observation vector, in the order
    /// of [`ExecutionView::layout`] — the allocation-free form of
    /// [`ExecutionView::outcome`], for per-candidate dedup against
    /// previously seen value vectors.
    pub fn fill_observed(&self, out: &mut Vec<i64>) {
        out.clear();
        out.extend(self.skel.observed_slots.iter().map(|&s| self.slot_value(s)));
    }

    /// The candidate's observable [`Outcome`] (allocates; prefer
    /// [`ExecutionView::fill_observed`] in per-candidate loops).
    pub fn outcome(&self) -> Outcome {
        self.tables
            .layout
            .exprs()
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
        let locs = &self.tables.locs;
        Execution {
            events: self
                .skel
                .events
                .iter()
                .enumerate()
                .map(|(id, e)| Event {
                    id,
                    tid: e.tid as usize,
                    po_idx: e.po_idx as usize,
                    kind: e.kind,
                    loc: (e.loc != NO_LOC).then(|| locs.name(e.loc).clone()),
                    value: e.value,
                    cache: e.cache,
                    volatile: e.volatile,
                    atomic: e.atomic,
                    instr_idx: e.instr_idx as usize,
                })
                .collect(),
            thread_cta: self.tables.thread_cta.clone(),
            rf: self.overlay.rf.clone(),
            co: self
                .skel
                .locs
                .iter()
                .map(|&l| locs.name(l).clone())
                .zip(self.overlay.co[..self.overlay.co_active].iter().cloned())
                .collect(),
            init: (0..self.tables.memory_locs)
                .map(|l| (locs.name(l as u32).clone(), self.tables.init[l]))
                .collect(),
            addr: self.skel.addr.clone(),
            data: self.skel.data.clone(),
            ctrl: self.skel.ctrl.clone(),
            rmw: self.skel.rmw.clone(),
        }
    }
}
