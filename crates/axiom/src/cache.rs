//! Model-verdict caching for large test families.
//!
//! A paper-scale validation sweep judges ~18k generated tests against a
//! model, and each test is run on several chips — but the axiomatic
//! verdict depends only on the test's *shape* (instructions, register
//! initialisation, scope tree, memory regions and condition), never on
//! the chip. [`VerdictCache`] memoises enumeration results by a
//! [`Fingerprint`]: a 128-bit SipHash of the model name, the
//! [`EnumConfig`] bounds and exactly the shape that [`shape_key`]
//! renders, hashed straight from the test's structure with no text in
//! between. Re-judging the same shape — the same test on another chip,
//! or structurally identical tests under different names — is a hash
//! lookup instead of a fresh enumeration, and a lookup allocates
//! nothing. [`shape_key`] stays as the readable canonical form; the
//! fingerprint is equal exactly when it is (`tests/fingerprint.rs`).
//!
//! ```
//! use weakgpu_axiom::cache::{shape_key, Fingerprint, VerdictCache};
//! use weakgpu_axiom::enumerate::EnumConfig;
//! use weakgpu_axiom::model::sc_model;
//! use weakgpu_litmus::{corpus, ThreadScope};
//!
//! let mp = corpus::mp(ThreadScope::InterCta, None);
//! let model = sc_model();
//! let cfg = EnumConfig::default();
//! // The key ignores name and doc: a renamed copy shares the verdict.
//! let renamed = mp.clone().with_name("mp-renamed").with_doc("other");
//! assert_eq!(shape_key(&mp), shape_key(&renamed));
//! assert_eq!(
//!     Fingerprint::of(&mp, &model, &cfg),
//!     Fingerprint::of(&renamed, &model, &cfg)
//! );
//!
//! let mut cache = VerdictCache::new();
//! let a = cache.outcomes(&mp, &model, &cfg).unwrap();
//! let b = cache.outcomes(&renamed, &model, &cfg).unwrap();
//! assert_eq!(cache.hits(), 1);
//! assert!(std::sync::Arc::ptr_eq(&a, &b));
//! ```
//!
//! A caller that judges many tests at once (the sweep's judge pass)
//! works on fingerprints: it probes with [`VerdictCache::contains`],
//! judges each distinct unknown shape once, and then counts each test
//! with [`VerdictCache::get`] or [`VerdictCache::publish_key`], both of
//! which stand for any number of lookups of one shape.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::mem;
use std::str::FromStr;
use std::sync::Arc;

use weakgpu_litmus::{printer, CacheOp, Instr, LitmusTest, Predicate};

use crate::enumerate::{model_outcomes, EnumConfig, EnumError, ModelOutcomes};
use crate::model::Model;

/// A canonical serialisation of everything that determines a test's
/// axiomatic verdict: per-thread instructions, register initialisations,
/// the scope tree, the memory map (locations, regions, initial values)
/// and the final condition. The test's name and doc string are excluded,
/// so structurally identical tests share a key.
///
/// This is the readable form of what a [`Fingerprint`] hashes; the cache
/// itself never renders it.
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

/// The key of one judgement: a 128-bit fingerprint of the model name,
/// every [`EnumConfig`] bound and the test's shape — exactly what
/// [`shape_key`] renders, so name and doc are excluded.
///
/// The fingerprint is SipHash-2-4 in its 128-bit output mode with fixed
/// keys, fed the structure directly: integers as fixed-width
/// little-endian bytes (`usize` widened to 64 bits), names as their bytes
/// and a terminator. It contains no process-specific state, so every
/// host computes the same value and a fingerprint computed in one process
/// answers lookups in another ([`crate::persist`] stores it as 32
/// lowercase hex digits). Where [`shape_key`] renders two structures
/// alike, the fingerprint hashes them alike too: a `.volatile` access
/// renders without its cache operator, and `/\` chains render without
/// their nesting.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fingerprint(pub(crate) u128);

impl Fingerprint {
    /// The fingerprint of judging `test` under `model` within `cfg`.
    pub fn of(test: &LitmusTest, model: &dyn Model, cfg: &EnumConfig) -> Fingerprint {
        let mut h = Sip128::new(Sip128::KEYS);
        model.name().hash(&mut h);
        // Destructured, so that a new bound fails to compile here
        // instead of being left out of the key.
        let EnumConfig {
            max_backward_jumps_per_thread,
            domain_iters,
            max_traces_per_thread,
            max_executions,
        } = *cfg;
        for bound in [
            max_backward_jumps_per_thread,
            domain_iters,
            max_traces_per_thread,
            max_executions,
        ] {
            h.write_usize(bound);
        }
        h.write_usize(test.threads().len());
        for thread in test.threads() {
            h.write_usize(thread.len());
            for instr in thread {
                hash_instr(instr, &mut h);
            }
        }
        for (tid, reg, value) in test.reg_init() {
            h.write_u8(1);
            (tid, reg, value).hash(&mut h);
        }
        h.write_u8(0);
        // Through its triples: the derived `Hash` of the tree's `usize`
        // slices would write them as native-endian bytes.
        for (cta, warp, tid) in test.scope_tree().iter() {
            h.write_u8(1);
            (cta, warp, tid).hash(&mut h);
        }
        h.write_u8(0);
        test.memory().hash(&mut h);
        test.cond().quantifier.hash(&mut h);
        hash_pred(&test.cond().pred, &mut h);
        Fingerprint(h.finish128())
    }
}

/// Hashes `instr` as its derived `Hash` would, except that a `.volatile`
/// access hashes the default cache operator in place of its own: the
/// textual form drops the operator, so [`shape_key`] cannot tell them
/// apart either.
fn hash_instr(instr: &Instr, h: &mut Sip128) {
    match instr {
        Instr::Ld {
            dst,
            addr,
            volatile: true,
            ..
        } => {
            mem::discriminant(instr).hash(h);
            (dst, addr, CacheOp::default(), true).hash(h);
        }
        Instr::St {
            addr,
            src,
            volatile: true,
            ..
        } => {
            mem::discriminant(instr).hash(h);
            (addr, src, CacheOp::default(), true).hash(h);
        }
        Instr::Guard {
            pred,
            expect,
            inner,
        } => {
            mem::discriminant(instr).hash(h);
            (pred, expect).hash(h);
            hash_instr(inner, h);
        }
        _ => instr.hash(h),
    }
}

/// Hashes `pred` as its derived `Hash` would, except that a conjunction
/// hashes its flattened list of conjuncts: `a /\ b /\ c` renders the
/// same whichever way it nests.
fn hash_pred(pred: &Predicate, h: &mut Sip128) {
    fn conjuncts<'p>(p: &'p Predicate, f: &mut impl FnMut(&'p Predicate)) {
        match p {
            Predicate::And(a, b) => {
                conjuncts(a, f);
                conjuncts(b, f);
            }
            other => f(other),
        }
    }
    match pred {
        Predicate::And(..) => {
            mem::discriminant(pred).hash(h);
            let mut n = 0usize;
            conjuncts(pred, &mut |_| n += 1);
            h.write_usize(n);
            conjuncts(pred, &mut |p| hash_pred(p, h));
        }
        Predicate::Or(a, b) => {
            mem::discriminant(pred).hash(h);
            hash_pred(a, h);
            hash_pred(b, h);
        }
        Predicate::Not(p) => {
            mem::discriminant(pred).hash(h);
            hash_pred(p, h);
        }
        Predicate::Eq(..) | Predicate::Ne(..) | Predicate::True => pred.hash(h),
    }
}

impl fmt::Display for Fingerprint {
    /// 32 lowercase hex digits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl FromStr for Fingerprint {
    type Err = String;

    /// Parses exactly 32 lowercase hex digits, the [`fmt::Display`] form.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let hex = s.len() == 32 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        match u128::from_str_radix(s, 16) {
            Ok(v) if hex => Ok(Fingerprint(v)),
            _ => Err(format!("{s:?} is not 32 lowercase hex digits")),
        }
    }
}

/// SipHash-2-4 with 128-bit output (Aumasson and Bernstein) under fixed
/// keys. Every integer write is little-endian and `usize`/`isize` are
/// widened to 64 bits, so the output does not depend on the host.
#[derive(Clone)]
struct Sip128 {
    v: [u64; 4],
    /// Pending message bytes, little-endian, `ntail` of them.
    tail: u64,
    ntail: u32,
    /// Message length in bytes, modulo 2^64.
    len: u64,
}

impl Sip128 {
    /// The fingerprint's keys: the bytes of `weakgpu-cache/fp`.
    const KEYS: (u64, u64) = (
        u64::from_le_bytes(*b"weakgpu-"),
        u64::from_le_bytes(*b"cache/fp"),
    );

    fn new((k0, k1): (u64, u64)) -> Self {
        Sip128 {
            v: [
                k0 ^ 0x736f_6d65_7073_6575,
                // The 128-bit mode tweaks v1 at set-up.
                k1 ^ 0x646f_7261_6e64_6f6d ^ 0xee,
                k0 ^ 0x6c79_6765_6e65_7261,
                k1 ^ 0x7465_6462_7974_6573,
            ],
            tail: 0,
            ntail: 0,
            len: 0,
        }
    }

    fn round(&mut self) {
        let [mut v0, mut v1, mut v2, mut v3] = self.v;
        v0 = v0.wrapping_add(v1);
        v1 = v1.rotate_left(13) ^ v0;
        v0 = v0.rotate_left(32);
        v2 = v2.wrapping_add(v3);
        v3 = v3.rotate_left(16) ^ v2;
        v0 = v0.wrapping_add(v3);
        v3 = v3.rotate_left(21) ^ v0;
        v2 = v2.wrapping_add(v1);
        v1 = v1.rotate_left(17) ^ v2;
        v2 = v2.rotate_left(32);
        self.v = [v0, v1, v2, v3];
    }

    fn compress(&mut self, m: u64) {
        self.v[3] ^= m;
        self.round();
        self.round();
        self.v[0] ^= m;
    }

    fn finish128(&self) -> u128 {
        let mut s = self.clone();
        s.compress((s.len << 56) | s.tail);
        s.v[2] ^= 0xee;
        for _ in 0..4 {
            s.round();
        }
        let lo = s.v.iter().fold(0, |acc, v| acc ^ v);
        s.v[1] ^= 0xdd;
        for _ in 0..4 {
            s.round();
        }
        let hi = s.v.iter().fold(0, |acc, v| acc ^ v);
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

impl Hasher for Sip128 {
    fn write(&mut self, bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        for &b in bytes {
            self.tail |= u64::from(b) << (8 * self.ntail);
            self.ntail += 1;
            if self.ntail == 8 {
                let m = mem::take(&mut self.tail);
                self.compress(m);
                self.ntail = 0;
            }
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }

    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }

    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }

    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }

    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as i64 as u64);
    }

    /// The low half of the 128-bit output.
    fn finish(&self) -> u64 {
        self.finish128() as u64
    }
}

/// A memoising wrapper around [`model_outcomes`], keyed by
/// the [`Fingerprint`] of `(model name, enumeration bounds, shape)`.
///
/// The key covers every [`EnumConfig`] field. Each is a bound that can
/// change a verdict (or turn it into a budget error); there is only one
/// verdict path, so nothing in the key names how the verdict was
/// computed.
///
/// The model contributes only its **name** to the key: the cache assumes
/// distinct model semantics carry distinct names (true of every model in
/// `weakgpu-models`). Do not share one cache across two differently-built
/// models that answer to the same name — they would share verdicts.
///
/// Verdicts are returned as [`Arc`]s so callers can hold them without
/// cloning the (potentially large) allowed-outcome sets.
#[derive(Default, Debug)]
pub struct VerdictCache {
    map: HashMap<Fingerprint, Entry>,
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

    /// Makes room for `additional` more entries, such as the fresh shapes
    /// a judge pass is about to publish.
    pub fn reserve(&mut self, additional: usize) {
        self.map.reserve(additional);
    }

    /// `true` if a verdict is stored under `key`. Counts nothing.
    pub fn contains(&self, key: Fingerprint) -> bool {
        self.map.contains_key(&key)
    }

    /// The verdict under `key`, counting `lookups` hits (and as many
    /// warm hits when the entry was restored from a file), such as one
    /// per chip cell of a test. A miss counts nothing;
    /// [`VerdictCache::publish_key`] records it.
    pub fn get(&mut self, key: Fingerprint, lookups: u64) -> Option<Arc<ModelOutcomes>> {
        let entry = self.map.get(&key)?;
        self.hits += lookups;
        if entry.warm {
            self.warm_hits += lookups;
        }
        Some(Arc::clone(&entry.verdict))
    }

    /// Stores a fresh verdict under `key` and counts a miss, plus
    /// `repeats` hits on the stored entry (lookups of the same shape made
    /// on behalf of the judging one, such as a test's other chip cells);
    /// an entry already present wins and is returned. The verdict comes
    /// shared already, so a pool of judges can wrap it off the thread
    /// that publishes.
    pub fn publish_key(
        &mut self,
        key: Fingerprint,
        verdict: Arc<ModelOutcomes>,
        repeats: u64,
    ) -> Arc<ModelOutcomes> {
        self.misses += 1;
        let entry = self.map.entry(key).or_insert(Entry {
            verdict,
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
        let key = Fingerprint::of(test, model, cfg);
        if let Some(hit) = self.get(key, 1) {
            return Ok(hit);
        }
        let verdict = model_outcomes(test, model, cfg)?;
        Ok(self.publish_key(key, Arc::new(verdict), 0))
    }

    /// The cached verdict, if this shape has been judged (counts a hit).
    /// A miss counts nothing; [`VerdictCache::publish`] records it.
    pub fn lookup(
        &mut self,
        test: &LitmusTest,
        model: &dyn Model,
        cfg: &EnumConfig,
    ) -> Option<Arc<ModelOutcomes>> {
        self.get(Fingerprint::of(test, model, cfg), 1)
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
        self.publish_key(Fingerprint::of(test, model, cfg), Arc::new(verdict), 0)
    }

    /// Installs a verdict restored from a persisted cache
    /// ([`crate::persist`]) under its [`Fingerprint`].
    /// Warm entries count neither a hit nor a miss at insertion; later
    /// lookups that they answer are tallied in
    /// [`VerdictCache::warm_hits`] as well as [`VerdictCache::hits`].
    /// An already-present key is left untouched (a fresh judgement or an
    /// earlier restore wins), so restoring the same file twice is
    /// idempotent.
    pub fn insert_warm(&mut self, key: Fingerprint, verdict: ModelOutcomes) {
        if let std::collections::hash_map::Entry::Vacant(slot) = self.map.entry(key) {
            slot.insert(Entry {
                verdict: Arc::new(verdict),
                warm: true,
            });
            self.warm_entries += 1;
        }
    }

    /// Every cached entry as `(key, verdict)`, in hash order — the
    /// persistence layer sorts before writing, so file output stays
    /// deterministic regardless.
    pub fn entries(&self) -> impl Iterator<Item = (Fingerprint, &ModelOutcomes)> {
        self.map.iter().map(|(k, e)| (*k, &*e.verdict))
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::sc_model as sc;
    use crate::CatModel;
    use weakgpu_litmus::{corpus, ThreadScope};

    #[test]
    fn sip128_matches_the_reference_vector() {
        // The first 128-bit test vector of the SipHash reference code:
        // key 00 01 … 0f, empty message.
        let key = (0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908);
        let out = Sip128::new(key).finish128().to_le_bytes();
        assert_eq!(
            out,
            [
                0xa3, 0x81, 0x7f, 0x04, 0xba, 0x25, 0xa8, 0xe6, 0x6d, 0xf6, 0x72, 0x14, 0xc7, 0x55,
                0x02, 0x93
            ]
        );
        // Split writes hash as one.
        let mut whole = Sip128::new(key);
        whole.write(b"weak behaviours and programming assumptions");
        let mut parts = Sip128::new(key);
        parts.write(b"weak behav");
        parts.write(b"iours and programming assum");
        parts.write(b"ptions");
        assert_eq!(whole.finish128(), parts.finish128());
    }

    #[test]
    fn fingerprint_follows_what_shape_key_renders() {
        use weakgpu_litmus::build;
        let model = sc();
        let cfg = EnumConfig::default();
        let test = |instr: Instr, pred: Predicate| {
            LitmusTest::builder("t")
                .thread(vec![instr, build::ld("r2", "y")])
                .global("x", 0)
                .global("y", 0)
                .exists(pred)
                .build()
                .unwrap()
        };
        let (a, b, c) = (
            Predicate::reg_eq(0, "r1", 0),
            Predicate::reg_eq(0, "r2", 0),
            Predicate::mem_eq("x", 1),
        );
        let left = a.clone().and(b.clone()).and(c.clone());
        let right = a.clone().and(b.clone().and(c.clone()));
        let volatile = |cache| Instr::Ld {
            dst: "r1".into(),
            addr: build::sym("x"),
            cache,
            volatile: true,
        };
        let pairs = [
            // Both render `a /\ b /\ c`.
            (
                test(build::ld("r1", "x"), left.clone()),
                test(build::ld("r1", "x"), right),
            ),
            // Both render `ld.volatile r1,[x]`.
            (
                test(volatile(CacheOp::Ca), left.clone()),
                test(volatile(CacheOp::Cg), left.clone()),
            ),
        ];
        for (x, y) in &pairs {
            assert_eq!(shape_key(x), shape_key(y));
            assert_eq!(
                Fingerprint::of(x, &model, &cfg),
                Fingerprint::of(y, &model, &cfg)
            );
        }
        // Non-volatile cache operators and `\/` nesting do render.
        let distinct = [
            (
                test(build::ld("r1", "x"), left.clone()),
                test(build::ld_ca("r1", "x"), left),
            ),
            (
                test(build::ld("r1", "x"), a.clone().or(b.clone()).or(c.clone())),
                test(build::ld("r1", "x"), a.or(b.or(c))),
            ),
        ];
        for (x, y) in &distinct {
            assert_ne!(shape_key(x), shape_key(y));
            assert_ne!(
                Fingerprint::of(x, &model, &cfg),
                Fingerprint::of(y, &model, &cfg)
            );
        }
    }

    #[test]
    fn fingerprint_text_roundtrips() {
        let fp = Fingerprint::of(&corpus::corr(), &sc(), &EnumConfig::default());
        let hex = fp.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(hex.parse::<Fingerprint>(), Ok(fp));
        assert_eq!("0".repeat(32).parse::<Fingerprint>(), Ok(Fingerprint(0)));
        for bad in [
            "",
            "k",
            &hex[1..],
            &hex.to_uppercase(),
            &format!("+{}", &hex[1..]),
        ] {
            assert!(bad.parse::<Fingerprint>().is_err(), "{bad:?}");
        }
    }

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
    fn one_lookup_for_several_cells_counts_each_cell() {
        let t = corpus::mp(ThreadScope::InterCta, None);
        let model = sc();
        let cfg = EnumConfig::default();
        let key = Fingerprint::of(&t, &model, &cfg);
        let mut cache = VerdictCache::new();
        assert!(cache.get(key, 5).is_none());
        assert!(!cache.contains(key));
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "a miss is free");
        // A miss and four sibling hits on the fresh entry.
        let verdict = Arc::new(model_outcomes(&t, &model, &cfg).unwrap());
        let first = cache.publish_key(key, verdict, 4);
        assert_eq!((cache.hits(), cache.misses()), (4, 1));
        assert!(cache.contains(key));
        assert_eq!((cache.hits(), cache.misses()), (4, 1), "probes are free");
        let again = cache.get(key, 3).expect("published");
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((cache.hits(), cache.misses()), (7, 1));
        assert_eq!(cache.warm_hits(), 0);
        // Every sibling of a restored entry is a warm hit.
        let mut warm = VerdictCache::new();
        warm.insert_warm(key, model_outcomes(&t, &model, &cfg).unwrap());
        assert!(warm.get(key, 5).is_some());
        assert_eq!((warm.hits(), warm.misses(), warm.warm_hits()), (5, 0, 5));
    }
}
