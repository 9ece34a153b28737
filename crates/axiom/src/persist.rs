//! Persistent, shareable verdict caches (the `weakgpu-cache/3` format).
//!
//! A [`VerdictCache`] pays the cache-miss
//! enumeration cost once per process — and then throws the result away
//! at exit. This module serialises the cache to a versioned on-disk
//! format so the *next* process (another CI shard, tomorrow's sweep, a
//! long-running `weakgpu serve` daemon) starts warm:
//!
//! * **Versioned** — the first line is the schema tag
//!   [`SCHEMA`] (`weakgpu-cache/3`); a loader that meets any other tag
//!   refuses with a diagnostic instead of misreading the records.
//!   Version 3 keys records by [`Fingerprint`] instead of the key text of
//!   version 2 (which in turn dropped the walk flags of version 1). A
//!   text key is a rendering, not the test it was rendered from, so it
//!   cannot be turned into a fingerprint: `/1` and `/2` files are
//!   rejected, not converted. Rerun the sweep or serve session that
//!   wrote them.
//! * **Line-oriented** — after the header, each line is one complete
//!   `key → ModelOutcomes` record, and a truncated or damaged record is
//!   *detected*: every record carries its own field and outcome counts,
//!   and a record whose counts contradict its outcome list (an allowed
//!   count with no outcome marked allowed, more outcomes than candidates,
//!   a witness with nothing allowed, …) is rejected.
//! * **Deterministic** — [`save`] writes records sorted by key, so two
//!   caches with the same entries produce byte-identical files.
//!
//! Records are keyed by the [`Fingerprint`] of model name, enumeration
//! bounds and test shape, written as 32 lowercase hex digits, so one file
//! can hold verdicts for several models and bounds side by side. The key
//! is opaque to this module: a change upstream (say a new `EnumConfig`
//! field) simply stops old entries from being hit — it can never make
//! them answer the wrong question.
//!
//! ```
//! use weakgpu_axiom::cache::VerdictCache;
//! use weakgpu_axiom::enumerate::EnumConfig;
//! use weakgpu_axiom::model::sc_model;
//! use weakgpu_axiom::persist;
//! use weakgpu_litmus::{corpus, ThreadScope};
//!
//! let mp = corpus::mp(ThreadScope::InterCta, None);
//! let model = sc_model();
//! let cfg = EnumConfig::default();
//! let mut cache = VerdictCache::new();
//! cache.outcomes(&mp, &model, &cfg).unwrap();
//!
//! // Serialise, restore, and the warm cache answers without enumerating.
//! let file = persist::render(&cache);
//! let mut warm = persist::parse(&file).unwrap();
//! let verdict = warm.outcomes(&mp, &model, &cfg).unwrap();
//! assert_eq!((warm.hits(), warm.warm_hits(), warm.misses()), (1, 1, 0));
//! assert!(!verdict.condition_witnessed);
//! ```

use std::collections::BTreeSet;
use std::fmt;
use std::fs::File;
use std::io::Read as _;
use std::path::Path;

use weakgpu_litmus::{FinalExpr, Outcome};

use crate::cache::{Fingerprint, VerdictCache};
use crate::enumerate::ModelOutcomes;

/// Version tag of the on-disk cache format; the file's first line.
pub const SCHEMA: &str = "weakgpu-cache/3";

/// Why a cache file could not be written or restored.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PersistError {
    /// The underlying file operation failed.
    Io(String),
    /// The file's schema tag is not [`SCHEMA`].
    Version(String),
    /// A record is malformed (wrong field count, bad number, truncated
    /// outcome list, counts that contradict the outcomes, …). Carries the
    /// 1-based line number.
    Format(usize, String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(msg) => write!(f, "cache file: {msg}"),
            PersistError::Version(found) => write!(
                f,
                "cache file has schema {found:?}, expected {SCHEMA:?} — refusing to load"
            ),
            PersistError::Format(line, msg) => {
                write!(f, "cache file line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

fn io_err(path: &Path, e: std::io::Error) -> PersistError {
    PersistError::Io(format!("{}: {e}", path.display()))
}

/// Escapes the characters that would break the line/tab framing.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\u{0}' => out.push_str("\\0"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str, line: usize) -> Result<String, PersistError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('0') => out.push('\u{0}'),
            other => {
                return Err(PersistError::Format(
                    line,
                    format!("bad escape {other:?} (truncated or corrupt record)"),
                ))
            }
        }
    }
    Ok(out)
}

/// Renders one outcome in its canonical display form (`0:r1=1; x=2; `),
/// which [`parse_outcome`] inverts exactly: register and location names
/// exclude `:`, `=` and `;`, so the rendering is unambiguous.
fn render_outcome(o: &Outcome) -> String {
    o.to_string()
}

fn parse_outcome(s: &str, line: usize) -> Result<Outcome, PersistError> {
    let mut out = Outcome::new();
    for binding in s.split_terminator("; ") {
        let (expr, value) = binding.split_once('=').ok_or_else(|| {
            PersistError::Format(line, format!("outcome binding {binding:?} has no '='"))
        })?;
        let value: i64 = value.parse().map_err(|_| {
            PersistError::Format(line, format!("outcome value {value:?} is not an integer"))
        })?;
        let expr = match expr.split_once(':') {
            // `t:r` — locations cannot contain ':', so this form is
            // always a register.
            Some((tid, reg)) if !reg.is_empty() => {
                let tid: usize = tid.parse().map_err(|_| {
                    PersistError::Format(line, format!("bad thread id in {expr:?}"))
                })?;
                FinalExpr::reg(tid, reg)
            }
            Some(_) => {
                return Err(PersistError::Format(
                    line,
                    format!("bad final expression {expr:?}"),
                ))
            }
            None => {
                if expr.is_empty() {
                    return Err(PersistError::Format(line, "empty final expression".into()));
                }
                FinalExpr::mem(expr)
            }
        };
        out.set(expr, value);
    }
    Ok(out)
}

/// Renders one `key → verdict` record as a single line (no trailing
/// newline): tab-separated `key` (32 hex digits), `num_candidates`,
/// `num_allowed`, `condition_witnessed`, `outcome count`, then one field
/// per outcome in `all_outcomes` order, `*`-prefixed when the outcome is
/// also allowed.
fn render_record(key: Fingerprint, v: &ModelOutcomes) -> String {
    let mut line = format!(
        "{key}\t{}\t{}\t{}\t{}",
        v.num_candidates,
        v.num_allowed,
        u8::from(v.condition_witnessed),
        v.all_outcomes.len()
    );
    for o in &v.all_outcomes {
        line.push('\t');
        if v.allowed_outcomes.contains(o) {
            line.push('*');
        }
        line.push_str(&esc(&render_outcome(o)));
    }
    line
}

fn parse_record(text: &str, line: usize) -> Result<(Fingerprint, ModelOutcomes), PersistError> {
    let fields: Vec<&str> = text.split('\t').collect();
    if fields.len() < 5 {
        return Err(PersistError::Format(
            line,
            format!(
                "record has {} fields, expected at least 5 (truncated?)",
                fields.len()
            ),
        ));
    }
    let key: Fingerprint = fields[0]
        .parse()
        .map_err(|e| PersistError::Format(line, format!("key {e}")))?;
    let parse_count = |s: &str, what: &str| -> Result<usize, PersistError> {
        s.parse().map_err(|_| {
            PersistError::Format(line, format!("{what} {s:?} is not a non-negative integer"))
        })
    };
    let num_candidates = parse_count(fields[1], "candidate count")?;
    let num_allowed = parse_count(fields[2], "allowed count")?;
    let condition_witnessed = match fields[3] {
        "0" => false,
        "1" => true,
        other => {
            return Err(PersistError::Format(
                line,
                format!("witness flag {other:?} is neither 0 nor 1"),
            ))
        }
    };
    let n_outcomes = parse_count(fields[4], "outcome count")?;
    // `fields.len() >= 5`, and a corrupt count may be near `usize::MAX`.
    if fields.len() - 5 != n_outcomes {
        return Err(PersistError::Format(
            line,
            format!(
                "record declares {n_outcomes} outcomes but carries {} (truncated?)",
                fields.len() - 5
            ),
        ));
    }
    let mut all_outcomes = BTreeSet::new();
    let mut allowed_outcomes = BTreeSet::new();
    for field in &fields[5..] {
        let (allowed, text) = match field.strip_prefix('*') {
            Some(rest) => (true, rest),
            None => (false, *field),
        };
        let outcome = parse_outcome(&unesc(text, line)?, line)?;
        if allowed {
            allowed_outcomes.insert(outcome.clone());
        }
        all_outcomes.insert(outcome);
    }
    // Each outcome is some candidate's and each allowed outcome some
    // allowed candidate's, so the counts bound the lists; a record that
    // breaks this was not written by `render_record`.
    let marked = allowed_outcomes.len();
    let contradiction = if (num_allowed == 0) != (marked == 0) {
        Some(format!(
            "allowed count {num_allowed} but {marked} outcomes marked allowed"
        ))
    } else if marked > num_allowed {
        Some(format!(
            "{marked} outcomes marked allowed but allowed count {num_allowed}"
        ))
    } else if num_allowed > num_candidates {
        Some(format!(
            "allowed count {num_allowed} exceeds candidate count {num_candidates}"
        ))
    } else if n_outcomes > num_candidates {
        Some(format!(
            "{n_outcomes} outcomes exceed candidate count {num_candidates}"
        ))
    } else if condition_witnessed && num_allowed == 0 {
        Some("witness flag set but no candidate is allowed".to_owned())
    } else {
        None
    };
    if let Some(msg) = contradiction {
        return Err(PersistError::Format(
            line,
            format!("record contradicts itself: {msg}"),
        ));
    }
    Ok((
        key,
        ModelOutcomes {
            all_outcomes,
            allowed_outcomes,
            num_candidates,
            num_allowed,
            condition_witnessed,
        },
    ))
}

/// Serialises `cache` to the `weakgpu-cache/3` text format: the schema
/// header, then one record per entry, sorted by key so equal caches
/// render byte-identically.
pub fn render(cache: &VerdictCache) -> String {
    let mut entries: Vec<(Fingerprint, &ModelOutcomes)> = cache.entries().collect();
    entries.sort_by_key(|(k, _)| *k);
    let mut out = String::with_capacity(64 * (entries.len() + 1));
    out.push_str(SCHEMA);
    out.push('\n');
    for (key, v) in entries {
        out.push_str(&render_record(key, v));
        out.push('\n');
    }
    out
}

/// Parses a `weakgpu-cache/3` document into a cache of warm entries.
///
/// Duplicate keys are allowed: the **last** record wins. Restored
/// entries count as warm — see
/// [`VerdictCache::warm_hits`](crate::cache::VerdictCache::warm_hits).
///
/// # Errors
///
/// [`PersistError::Version`] when the header is not [`SCHEMA`];
/// [`PersistError::Format`] (with the line number) for any malformed or
/// truncated record. Never panics on corrupt input.
pub fn parse(src: &str) -> Result<VerdictCache, PersistError> {
    let mut lines = src.lines();
    let header = lines.next().unwrap_or("").trim_end();
    if header != SCHEMA {
        return Err(PersistError::Version(
            header.chars().take(64).collect::<String>(),
        ));
    }
    // Later duplicates must win, but `insert_warm` keeps the first
    // occupant — so collect last-wins into a map first.
    let mut records: std::collections::BTreeMap<Fingerprint, ModelOutcomes> = Default::default();
    for (i, text) in lines.enumerate() {
        if text.is_empty() {
            continue;
        }
        let (key, outcomes) = parse_record(text, i + 2)?;
        records.insert(key, outcomes);
    }
    let mut cache = VerdictCache::new();
    for (key, outcomes) in records {
        cache.insert_warm(key, outcomes);
    }
    Ok(cache)
}

/// Writes `cache` to `path` (atomically: a temp file in the same
/// directory, then rename), replacing any previous contents.
///
/// # Errors
///
/// [`PersistError::Io`] with the failing path.
pub fn save(path: &Path, cache: &VerdictCache) -> Result<(), PersistError> {
    let tmp = path.with_extension("wgc.tmp");
    std::fs::write(&tmp, render(cache)).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Loads a cache file written by [`save`].
///
/// # Errors
///
/// [`PersistError::Io`] when the file cannot be read, otherwise as
/// [`parse`].
pub fn load(path: &Path) -> Result<VerdictCache, PersistError> {
    let mut src = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut src))
        .map_err(|e| io_err(path, e))?;
    parse(&src)
}

/// The cache a run keeping its verdicts in `path`, if any, starts from:
/// the file's contents when it exists, else an empty cache, unless the
/// run only reads the file (`readonly`).
///
/// # Errors
///
/// [`PersistError::Io`] for a missing read-only file, otherwise as
/// [`load`].
pub fn open(path: Option<&Path>, readonly: bool) -> Result<VerdictCache, PersistError> {
    match path {
        Some(path) if path.exists() => load(path),
        Some(path) if readonly => Err(PersistError::Io(format!(
            "{}: read-only cache file does not exist (a warm-start run must not silently go cold)",
            path.display()
        ))),
        _ => Ok(VerdictCache::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::EnumConfig;
    use crate::model::sc_model;
    use weakgpu_litmus::{corpus, ThreadScope};

    fn judged_cache() -> VerdictCache {
        let mut cache = VerdictCache::new();
        let model = sc_model();
        let cfg = EnumConfig::default();
        for test in [
            corpus::mp(ThreadScope::InterCta, None),
            corpus::sb(ThreadScope::InterCta, None),
            corpus::corr(),
        ] {
            cache.outcomes(&test, &model, &cfg).unwrap();
        }
        cache
    }

    #[test]
    fn outcome_rendering_roundtrips() {
        let o: Outcome = [
            (FinalExpr::reg(0, "r1"), 1),
            (FinalExpr::reg(10, "r2"), -7),
            (FinalExpr::mem("x"), 42),
        ]
        .into_iter()
        .collect();
        assert_eq!(parse_outcome(&render_outcome(&o), 1).unwrap(), o);
        assert_eq!(parse_outcome("", 1).unwrap(), Outcome::new());
    }

    #[test]
    fn render_is_deterministic_and_parses_back() {
        let cache = judged_cache();
        let a = render(&cache);
        let b = render(&judged_cache());
        assert_eq!(a, b, "equal caches must render byte-identically");
        let restored = parse(&a).unwrap();
        assert_eq!(restored.len(), cache.len());
        assert_eq!(restored.warm_entries(), cache.len() as u64);
        // Re-rendering the restored cache is a fixed point.
        assert_eq!(render(&restored), a);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let err = parse("weakgpu-cache/9\n").unwrap_err();
        assert!(matches!(err, PersistError::Version(_)), "{err}");
        assert!(err.to_string().contains("weakgpu-cache/3"), "{err}");
        // Version 1 and 2 records are keyed by text; they are not read.
        for old in ["weakgpu-cache/1\n", "weakgpu-cache/2\n"] {
            let err = parse(old).unwrap_err();
            assert!(matches!(err, PersistError::Version(_)), "{err}");
        }
        assert!(parse("").is_err());
        assert!(parse("garbage").is_err());
    }

    #[test]
    fn truncated_records_are_rejected_with_a_line_number() {
        let full = render(&judged_cache());
        // Cut the file mid-record: drop the last 10 bytes.
        let cut = &full[..full.len() - 10];
        let err = parse(cut).unwrap_err();
        match &err {
            PersistError::Format(line, msg) => {
                assert!(*line >= 2, "line {line}");
                assert!(!msg.is_empty());
            }
            other => panic!("expected Format, got {other:?}"),
        }
        // A record claiming more outcomes than it carries is caught.
        let key = Fingerprint(7);
        let lying = format!("{SCHEMA}\n{key}\t4\t2\t1\t3\t*0:r1=1; \n");
        let err = parse(&lying).unwrap_err();
        assert!(err.to_string().contains("declares 3 outcomes"), "{err}");
        // So is a text key, such as a version 2 record's.
        let text_key = format!("{SCHEMA}\nkey\t4\t2\t1\t1\t*0:r1=1; \n");
        let err = parse(&text_key).unwrap_err();
        assert!(err.to_string().contains("hex digits"), "{err}");
    }

    #[test]
    fn self_contradicting_records_are_rejected() {
        let key = Fingerprint(7);
        for (record, complaint) in [
            // Four allowed candidates and a witness, but no outcomes.
            ("4\t4\t1\t0", "allowed count 4 but 0 outcomes"),
            // An allowed outcome, but no allowed candidate.
            ("4\t0\t0\t1\t*0:r1=1; ", "allowed count 0 but 1 outcomes"),
            (
                "4\t1\t0\t2\t*0:r1=0; \t*0:r1=1; ",
                "2 outcomes marked allowed but allowed count 1",
            ),
            ("1\t2\t0\t1\t*0:r1=1; ", "exceeds candidate count 1"),
            (
                "1\t1\t0\t2\t*0:r1=0; \t0:r1=1; ",
                "2 outcomes exceed candidate count 1",
            ),
            ("2\t0\t1\t1\t0:r1=1; ", "witness flag set"),
        ] {
            let err = parse(&format!("{SCHEMA}\n{key}\t{record}\n")).unwrap_err();
            assert!(matches!(err, PersistError::Format(2, _)), "{err}");
            assert!(err.to_string().contains(complaint), "{record}: {err}");
        }
        // The consistent neighbours load.
        for record in ["4\t1\t1\t2\t*0:r1=0; \t0:r1=1; ", "2\t0\t0\t1\t0:r1=1; "] {
            assert!(
                parse(&format!("{SCHEMA}\n{key}\t{record}\n")).is_ok(),
                "{record}"
            );
        }
    }

    #[test]
    fn appended_records_load_and_last_wins() {
        // A hand-written file records K1 twice; the later record loads.
        let (k1, k2) = (Fingerprint(0x11), Fingerprint(0x22));
        let dir = std::env::temp_dir().join(format!("weakgpu-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("duplicate.wgc");
        std::fs::write(
            &path,
            format!("{SCHEMA}\n{k1}\t1\t0\t0\t0\n{k2}\t1\t0\t0\t0\n{k1}\t9\t0\t0\t0\n"),
        )
        .unwrap();
        let cache = load(&path).unwrap();
        assert_eq!((cache.len(), cache.warm_entries()), (2, 2));
        let k1_candidates = cache
            .entries()
            .find(|(k, _)| *k == k1)
            .map(|(_, v)| v.num_candidates);
        assert_eq!(k1_candidates, Some(9), "the later record must win");
        std::fs::remove_dir_all(&dir).ok();
    }
}
