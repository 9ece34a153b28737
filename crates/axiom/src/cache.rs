//! Model-verdict caching for large test families.
//!
//! A paper-scale validation sweep judges ~18k generated tests against a
//! model, and each test is run on several chips — but the axiomatic
//! verdict depends only on the test's *shape* (instructions, register
//! initialisation, scope tree, memory regions and condition), never on
//! the chip. [`shape_key`] extracts a canonical serialisation of exactly
//! the inputs [`model_outcomes`](crate::enumerate::model_outcomes) consumes, and [`VerdictCache`] memoises
//! enumeration results by that key, so re-judging the same shape — the
//! same test on another chip, or structurally identical tests under
//! different names — is a hash lookup instead of a fresh enumeration.
//!
//! ```
//! use weakgpu_axiom::cache::{shape_key, VerdictCache};
//! use weakgpu_axiom::enumerate::EnumConfig;
//! use weakgpu_axiom::model::sc_model;
//! use weakgpu_litmus::{corpus, ThreadScope};
//!
//! let mp = corpus::mp(ThreadScope::InterCta, None);
//! // The key ignores name and doc: a renamed copy shares the verdict.
//! let renamed = mp.clone().with_name("mp-renamed").with_doc("other");
//! assert_eq!(shape_key(&mp), shape_key(&renamed));
//!
//! let mut cache = VerdictCache::new();
//! let model = sc_model();
//! let a = cache.outcomes(&mp, &model, &EnumConfig::default()).unwrap();
//! let b = cache.outcomes(&renamed, &model, &EnumConfig::default()).unwrap();
//! assert_eq!(cache.hits(), 1);
//! assert!(std::sync::Arc::ptr_eq(&a, &b));
//! ```
//!
//! Concurrent workers share one [`SharedCache`], whose
//! [`SharedCache::get_or_judge`] judges every shape exactly once.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use weakgpu_litmus::{printer, LitmusTest};

use crate::enumerate::{model_outcomes_with, EnumConfig, EnumError, ModelOutcomes};
use crate::model::Model;
use crate::plan::EvalContext;

/// A canonical serialisation of everything that determines a test's
/// axiomatic verdict: per-thread instructions, register initialisations,
/// the scope tree, the memory map (locations, regions, initial values)
/// and the final condition. The test's name and doc string are excluded,
/// so structurally identical tests share a key.
pub fn shape_key(test: &LitmusTest) -> String {
    let mut key = String::new();
    for (tid, thread) in test.threads().iter().enumerate() {
        let _ = write!(key, "T{tid}:");
        for instr in thread {
            let _ = write!(key, "{};", printer::render_instr(instr));
        }
        key.push('|');
    }
    for (tid, reg, value) in test.reg_init() {
        let _ = write!(key, "{tid}:{reg}={value:?};");
    }
    let _ = write!(
        key,
        "|{}|{}|{}",
        test.scope_tree(),
        test.memory(),
        test.cond()
    );
    key
}

/// A memoising wrapper around [`model_outcomes`](crate::enumerate::model_outcomes), keyed by
/// `(model name, enumeration bounds, shape_key)`.
///
/// The key covers the whole [`EnumConfig`] debug form. Every field of
/// it is a bound that can change a verdict (or turn it into a budget
/// error); there is only one verdict path, so nothing in the key names
/// how the verdict was computed.
///
/// The model contributes only its **name** to the key: the cache assumes
/// distinct model semantics carry distinct names (true of every model in
/// `weakgpu-models`). Do not share one cache across two differently-built
/// models that answer to the same name — they would share verdicts.
///
/// Verdicts are returned as [`Arc`]s so callers can hold them without
/// cloning the (potentially large) allowed-outcome sets, and so the cache
/// can be used behind a short-lived lock: clone the `Arc` out, drop the
/// lock, then inspect the verdict. For concurrent fill, use
/// [`SharedCache`], which judges outside its lock and never judges one
/// shape twice.
#[derive(Default, Debug)]
pub struct VerdictCache {
    map: HashMap<String, Entry>,
    hits: u64,
    misses: u64,
    warm_entries: u64,
    warm_hits: u64,
}

/// One cached verdict plus its provenance: entries judged in this
/// process are *fresh*; entries restored from a persisted cache file
/// ([`crate::persist`]) are *warm*, and hits on them are counted
/// separately so a warm-started run can prove the preloaded cache
/// actually paid off.
#[derive(Debug)]
struct Entry {
    verdict: Arc<ModelOutcomes>,
    warm: bool,
}

impl VerdictCache {
    /// An empty cache.
    pub fn new() -> Self {
        VerdictCache::default()
    }

    /// The full cache key of one judgement: model name, the
    /// [`EnumConfig`] bounds, and the test's [`shape_key`]. This is
    /// also the key persisted by [`crate::persist`] — it contains no
    /// process-specific state, so a key computed in one process answers
    /// lookups in another.
    pub fn entry_key(test: &LitmusTest, model: &dyn Model, cfg: &EnumConfig) -> String {
        format!("{}\u{0}{cfg:?}\u{0}{}", model.name(), shape_key(test))
    }

    /// The verdict under `key`, counting `lookups` hits (and as many
    /// warm hits when the entry was restored from a file).
    fn get(&mut self, key: &str, lookups: u64) -> Option<Arc<ModelOutcomes>> {
        let entry = self.map.get(key)?;
        self.hits += lookups;
        if entry.warm {
            self.warm_hits += lookups;
        }
        Some(Arc::clone(&entry.verdict))
    }

    /// Stores a fresh verdict under `key` and counts a miss, plus
    /// `repeats` hits on the stored entry; an entry already present wins
    /// and is returned.
    fn publish_key(
        &mut self,
        key: String,
        verdict: ModelOutcomes,
        repeats: u64,
    ) -> Arc<ModelOutcomes> {
        self.misses += 1;
        let entry = self.map.entry(key).or_insert_with(|| Entry {
            verdict: Arc::new(verdict),
            warm: false,
        });
        self.hits += repeats;
        if entry.warm {
            self.warm_hits += repeats;
        }
        Arc::clone(&entry.verdict)
    }

    /// The verdict of `model` on `test`, enumerating executions only if
    /// no structurally identical test has been judged before.
    ///
    /// # Errors
    ///
    /// Propagates [`EnumError`]s from the enumeration; failures are not
    /// cached.
    pub fn outcomes(
        &mut self,
        test: &LitmusTest,
        model: &dyn Model,
        cfg: &EnumConfig,
    ) -> Result<Arc<ModelOutcomes>, EnumError> {
        self.outcomes_with(test, model, cfg, &mut EvalContext::new())
    }

    /// [`VerdictCache::outcomes`] with a caller-owned [`EvalContext`] for
    /// the miss path, so repeated misses (the first judgement of each
    /// shape in a sweep) reuse one evaluation arena. Misses stream the
    /// candidate space through the skeleton/overlay visitor — no
    /// `Vec<Candidate>` is ever materialised.
    ///
    /// # Errors
    ///
    /// Propagates [`EnumError`]s from the enumeration; failures are not
    /// cached.
    pub fn outcomes_with(
        &mut self,
        test: &LitmusTest,
        model: &dyn Model,
        cfg: &EnumConfig,
        ctx: &mut EvalContext,
    ) -> Result<Arc<ModelOutcomes>, EnumError> {
        let key = Self::entry_key(test, model, cfg);
        if let Some(hit) = self.get(&key, 1) {
            return Ok(hit);
        }
        let verdict = model_outcomes_with(test, model, cfg, ctx)?;
        Ok(self.publish_key(key, verdict, 0))
    }

    /// The cached verdict, if this shape has been judged (counts a hit).
    /// A miss counts nothing; [`VerdictCache::publish`] records it.
    pub fn lookup(
        &mut self,
        test: &LitmusTest,
        model: &dyn Model,
        cfg: &EnumConfig,
    ) -> Option<Arc<ModelOutcomes>> {
        self.get(&Self::entry_key(test, model, cfg), 1)
    }

    /// Stores `verdict` for this shape and counts a miss (the caller did
    /// the enumeration work). An entry already present wins and is
    /// returned.
    pub fn publish(
        &mut self,
        test: &LitmusTest,
        model: &dyn Model,
        cfg: &EnumConfig,
        verdict: ModelOutcomes,
    ) -> Arc<ModelOutcomes> {
        self.publish_key(Self::entry_key(test, model, cfg), verdict, 0)
    }

    /// Installs a verdict restored from a persisted cache
    /// ([`crate::persist`]) under its full [`VerdictCache::entry_key`].
    /// Warm entries count neither a hit nor a miss at insertion; later
    /// lookups that they answer are tallied in
    /// [`VerdictCache::warm_hits`] as well as [`VerdictCache::hits`].
    /// An already-present key is left untouched (a fresh judgement or an
    /// earlier restore wins), so absorbing the same file twice is
    /// idempotent.
    pub fn insert_warm(&mut self, key: String, verdict: ModelOutcomes) {
        if let std::collections::hash_map::Entry::Vacant(slot) = self.map.entry(key) {
            slot.insert(Entry {
                verdict: Arc::new(verdict),
                warm: true,
            });
            self.warm_entries += 1;
        }
    }

    /// Every cached entry as `(full key, verdict)`, in hash order — the
    /// persistence layer sorts before writing, so file output stays
    /// deterministic regardless.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &ModelOutcomes)> {
        self.map.iter().map(|(k, e)| (k.as_str(), &*e.verdict))
    }

    /// Number of distinct shapes judged so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if nothing has been judged yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that had to enumerate.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of entries restored from a persisted cache file (via
    /// [`VerdictCache::insert_warm`]) rather than judged in this
    /// process.
    pub fn warm_entries(&self) -> u64 {
        self.warm_entries
    }

    /// Number of hits answered by a warm (restored) entry — the measure
    /// of what preloading the cache actually saved.
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits
    }

    /// Unions `other` into `self`: entries already present in `self`
    /// win (for identical keys the verdicts are identical anyway — the
    /// enumeration is deterministic — so which side wins only matters
    /// for the warm flag). Counters other than the warm-entry count are
    /// not transferred: hits and misses describe a run, not a cache.
    pub fn absorb(&mut self, other: VerdictCache) {
        for (key, entry) in other.map {
            if let std::collections::hash_map::Entry::Vacant(slot) = self.map.entry(key) {
                if entry.warm {
                    self.warm_entries += 1;
                }
                slot.insert(entry);
            }
        }
    }
}

/// A [`VerdictCache`] shared by concurrent workers, with single-flight
/// judgement.
///
/// [`SharedCache::get_or_judge`] probes under the lock and, on a miss,
/// judges with no lock held, so distinct shapes are judged in parallel.
/// A worker that asks for a shape another worker is judging waits for
/// that judgement instead of repeating it. Every shape is therefore
/// judged at most once per successful judgement, and a cold cache ends
/// with `misses() == len()`.
#[derive(Debug, Default)]
pub struct SharedCache {
    state: Mutex<Shared>,
    published: Condvar,
}

#[derive(Debug, Default)]
struct Shared {
    cache: VerdictCache,
    /// Keys some worker is judging right now.
    in_flight: HashSet<String>,
    /// Workers blocked on an in-flight key, so tests can wait for them.
    #[cfg(test)]
    waiting: usize,
}

/// The answer of [`SharedCache::get_or_judge`].
#[derive(Clone, Debug)]
pub struct Lookup {
    /// The verdict.
    pub verdict: Arc<ModelOutcomes>,
    /// `true` when this call ran the judgement; `false` when the cache
    /// (possibly after waiting for another worker) answered.
    pub judged: bool,
    /// The cache's hit counter right after this lookup.
    pub hits: u64,
    /// The cache's miss counter right after this lookup.
    pub misses: u64,
}

/// Clears an in-flight key and wakes its waiters when the judging
/// worker leaves [`SharedCache::get_or_judge`] by any path, a panic
/// included, so no waiter can block forever.
struct InFlight<'a> {
    shared: &'a SharedCache,
    key: Option<String>,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.shared.state().in_flight.remove(&key);
            self.shared.published.notify_all();
        }
    }
}

impl SharedCache {
    /// Shares `cache` (for example one restored by [`crate::persist`]).
    pub fn new(cache: VerdictCache) -> Self {
        SharedCache {
            state: Mutex::new(Shared {
                cache,
                ..Shared::default()
            }),
            published: Condvar::new(),
        }
    }

    fn state(&self) -> MutexGuard<'_, Shared> {
        // A panicking judge holds no lock, so the state is never left
        // half-updated.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The verdict of `model` on `test`: from the cache when the shape
    /// is known, from another worker's judgement when one is running,
    /// and otherwise from `judge`, which runs with no lock held and
    /// whose result is published.
    ///
    /// # Errors
    ///
    /// Returns `judge`'s error. Errors are not cached: the key is
    /// released and waiting workers wake up and judge it themselves.
    pub fn get_or_judge<E>(
        &self,
        test: &LitmusTest,
        model: &dyn Model,
        cfg: &EnumConfig,
        judge: impl FnOnce() -> Result<ModelOutcomes, E>,
    ) -> Result<Lookup, E> {
        self.get_or_judge_for(1, test, model, cfg, judge)
    }

    /// [`SharedCache::get_or_judge`] on behalf of `lookups` (at least 1)
    /// lookups of the same shape, such as the cells of one test on
    /// several chips. The first counts as a hit or a miss, as a lone
    /// lookup would; every other one counts as a hit on the entry the
    /// first resolved (a warm hit when that entry was restored from a
    /// file), as if it had been made afterwards. A failed judgement
    /// counts nothing.
    ///
    /// # Errors
    ///
    /// As [`SharedCache::get_or_judge`].
    pub fn get_or_judge_for<E>(
        &self,
        lookups: u64,
        test: &LitmusTest,
        model: &dyn Model,
        cfg: &EnumConfig,
        judge: impl FnOnce() -> Result<ModelOutcomes, E>,
    ) -> Result<Lookup, E> {
        debug_assert!(lookups >= 1, "a lookup stands for at least itself");
        let key = VerdictCache::entry_key(test, model, cfg);
        let mut state = self.state();
        loop {
            if let Some(verdict) = state.cache.get(&key, lookups) {
                return Ok(Lookup {
                    verdict,
                    judged: false,
                    hits: state.cache.hits(),
                    misses: state.cache.misses(),
                });
            }
            if state.in_flight.insert(key.clone()) {
                break;
            }
            #[cfg(test)]
            {
                state.waiting += 1;
            }
            state = self
                .published
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            #[cfg(test)]
            {
                state.waiting -= 1;
            }
        }
        drop(state);
        let mut flight = InFlight {
            shared: self,
            key: Some(key),
        };
        let verdict = judge()?;
        let key = flight.key.take().expect("the key is still in flight");
        let mut state = self.state();
        state.in_flight.remove(&key);
        let verdict = state.cache.publish_key(key, verdict, lookups - 1);
        let lookup = Lookup {
            verdict,
            judged: true,
            hits: state.cache.hits(),
            misses: state.cache.misses(),
        };
        drop(state);
        self.published.notify_all();
        Ok(lookup)
    }

    /// Runs `f` on the cache under the lock (counters, persistence).
    pub fn read<R>(&self, f: impl FnOnce(&VerdictCache) -> R) -> R {
        f(&self.state().cache)
    }

    /// The cache, for persisting after the workers are done.
    pub fn into_inner(self) -> VerdictCache {
        self.state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::model_outcomes;
    use crate::model::sc_model as sc;
    use crate::CatModel;
    use weakgpu_litmus::{corpus, ThreadScope};

    #[test]
    fn shape_key_ignores_name_and_doc() {
        let t = corpus::sb(ThreadScope::InterCta, None);
        let renamed = t.clone().with_name("other").with_doc("different doc");
        assert_eq!(shape_key(&t), shape_key(&renamed));
    }

    #[test]
    fn shape_key_distinguishes_structure() {
        let inter = corpus::sb(ThreadScope::InterCta, None);
        let intra = corpus::sb(ThreadScope::IntraCta, None);
        assert_ne!(
            shape_key(&inter),
            shape_key(&intra),
            "scope tree must matter"
        );
        let mp = corpus::mp(ThreadScope::InterCta, None);
        assert_ne!(shape_key(&inter), shape_key(&mp));
    }

    #[test]
    fn cached_verdict_matches_uncached() {
        let t = corpus::mp(ThreadScope::InterCta, None);
        let model = sc();
        let cfg = EnumConfig::default();
        let fresh = model_outcomes(&t, &model, &cfg).unwrap();
        let mut cache = VerdictCache::new();
        let cached = cache.outcomes(&t, &model, &cfg).unwrap();
        assert_eq!(*cached, fresh);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Second lookup hits and returns the same allocation.
        let again = cache.outcomes(&t, &model, &cfg).unwrap();
        assert!(Arc::ptr_eq(&cached, &again));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lookup_publish_protocol_matches_outcomes() {
        let t = corpus::mp(ThreadScope::InterCta, None);
        let model = sc();
        let cfg = EnumConfig::default();
        let mut cache = VerdictCache::new();
        assert!(cache.lookup(&t, &model, &cfg).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "probe miss is free");
        let fresh = model_outcomes(&t, &model, &cfg).unwrap();
        let published = cache.publish(&t, &model, &cfg, fresh.clone());
        assert_eq!(*published, fresh);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // A racing publish loses: the first entry wins, the miss is
        // still counted.
        let racing = cache.publish(&t, &model, &cfg, fresh);
        assert!(Arc::ptr_eq(&published, &racing));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 2, 1));
        let hit = cache.lookup(&t, &model, &cfg).expect("now cached");
        assert!(Arc::ptr_eq(&published, &hit));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn enum_config_is_part_of_the_key() {
        let t = corpus::sb(ThreadScope::InterCta, None);
        let model = sc();
        let mut cache = VerdictCache::new();
        let a = EnumConfig::default();
        let b = EnumConfig {
            max_traces_per_thread: 2048,
            ..EnumConfig::default()
        };
        cache.outcomes(&t, &model, &a).unwrap();
        cache.outcomes(&t, &model, &b).unwrap();
        assert_eq!(cache.len(), 2, "different bounds must not share verdicts");
    }

    #[test]
    fn different_models_do_not_share_entries() {
        let t = corpus::sb(ThreadScope::InterCta, None);
        let cfg = EnumConfig::default();
        let mut cache = VerdictCache::new();
        // A model with no axioms: everything is allowed.
        let weak = CatModel::new("weak", "").unwrap();
        let a = cache.outcomes(&t, &sc(), &cfg).unwrap();
        let b = cache.outcomes(&t, &weak, &cfg).unwrap();
        assert_eq!(cache.len(), 2, "sc and weak verdicts must not collide");
        // sb's weak outcome: forbidden under SC, allowed with no axioms.
        assert!(!a.condition_witnessed);
        assert!(b.condition_witnessed);
    }

    #[test]
    fn shared_cache_judges_each_shape_once() {
        let t = corpus::mp(ThreadScope::InterCta, None);
        let model = sc();
        let cfg = EnumConfig::default();
        let shared = SharedCache::default();
        let (shared, t, model, cfg) = (&shared, &t, &model, &cfg);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            // The first worker takes the key and holds it until released.
            let first = s.spawn(move || {
                shared
                    .get_or_judge(t, model, cfg, || {
                        started_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        model_outcomes(t, model, cfg)
                    })
                    .unwrap()
            });
            started_rx.recv().unwrap();
            // Three more ask for the same shape while it is in flight.
            let racers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(move || {
                        shared
                            .get_or_judge(t, model, cfg, || -> Result<_, EnumError> {
                                unreachable!("the first worker judges this shape")
                            })
                            .unwrap()
                    })
                })
                .collect();
            while shared.state().waiting < 3 {
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
            let first = first.join().unwrap();
            assert!(first.judged);
            for racer in racers {
                let lookup = racer.join().unwrap();
                assert!(!lookup.judged);
                assert!(Arc::ptr_eq(&lookup.verdict, &first.verdict));
            }
        });
        let counts = shared.read(|c| (c.hits(), c.misses(), c.len()));
        assert_eq!(counts, (3, 1, 1));
    }

    #[test]
    fn one_lookup_for_several_cells_counts_each_cell() {
        let t = corpus::mp(ThreadScope::InterCta, None);
        let model = sc();
        let cfg = EnumConfig::default();
        let shared = SharedCache::default();
        let failed = shared.get_or_judge_for(5, &t, &model, &cfg, || Err("budget"));
        assert_eq!(failed.unwrap_err(), "budget");
        assert_eq!(shared.read(|c| (c.hits(), c.misses())), (0, 0));
        // A miss and four sibling hits on the fresh entry.
        let first = shared
            .get_or_judge_for(5, &t, &model, &cfg, || model_outcomes(&t, &model, &cfg))
            .unwrap();
        assert!(first.judged);
        assert_eq!((first.hits, first.misses), (4, 1));
        let again = shared
            .get_or_judge_for(3, &t, &model, &cfg, || -> Result<_, ()> {
                unreachable!("cached")
            })
            .unwrap();
        assert!(!again.judged && Arc::ptr_eq(&first.verdict, &again.verdict));
        assert_eq!((again.hits, again.misses), (7, 1));
        assert_eq!(shared.read(VerdictCache::warm_hits), 0);
        // Every sibling of a restored entry is a warm hit.
        let mut restored = VerdictCache::new();
        restored.insert_warm(
            VerdictCache::entry_key(&t, &model, &cfg),
            model_outcomes(&t, &model, &cfg).unwrap(),
        );
        let warm = SharedCache::new(restored);
        let lookup = warm
            .get_or_judge_for(5, &t, &model, &cfg, || -> Result<_, ()> {
                unreachable!("restored")
            })
            .unwrap();
        assert_eq!((lookup.hits, lookup.misses), (5, 0));
        assert_eq!(warm.read(VerdictCache::warm_hits), 5);
    }

    #[test]
    fn shared_cache_does_not_cache_errors() {
        let t = corpus::mp(ThreadScope::InterCta, None);
        let model = sc();
        let cfg = EnumConfig::default();
        let shared = SharedCache::default();
        let failed = shared.get_or_judge(&t, &model, &cfg, || Err("budget"));
        assert_eq!(failed.unwrap_err(), "budget");
        let lookup = shared
            .get_or_judge(&t, &model, &cfg, || model_outcomes(&t, &model, &cfg))
            .unwrap();
        assert!(lookup.judged, "a failed judgement leaves the key free");
        assert_eq!((lookup.hits, lookup.misses), (0, 1));
        let again = shared
            .get_or_judge(&t, &model, &cfg, || -> Result<_, ()> {
                unreachable!("cached")
            })
            .unwrap();
        assert!(!again.judged && Arc::ptr_eq(&lookup.verdict, &again.verdict));
    }
}
