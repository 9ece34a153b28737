//! File-level integration tests for the persistent verdict cache: real
//! verdicts from the generated `small` family survive a save/load
//! roundtrip bit-identically, and on-disk damage is rejected with a
//! line-numbered diagnostic rather than a panic.

use std::path::PathBuf;

use weakgpu_axiom::cache::VerdictCache;
use weakgpu_axiom::enumerate::EnumConfig;
use weakgpu_axiom::persist::{load, open, parse, render, save, PersistError, SCHEMA};
use weakgpu_diy::{generate, GenConfig};
use weakgpu_litmus::LitmusTest;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("weakgpu-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A cache holding real PTX verdicts for `tests`.
fn judged(tests: &[LitmusTest]) -> VerdictCache {
    let model = weakgpu_models::ptx_model();
    let cfg = EnumConfig::default();
    let mut cache = VerdictCache::new();
    for t in tests {
        cache.outcomes(t, &model, &cfg).unwrap();
    }
    cache
}

#[test]
fn real_family_survives_a_disk_roundtrip_bit_identically() {
    let family: Vec<_> = generate(&GenConfig::small()).into_iter().take(25).collect();
    let cache = judged(&family);
    let path = scratch("roundtrip.wgc");
    save(&path, &cache).unwrap();
    let restored = load(&path).unwrap();

    assert_eq!(restored.len(), cache.len());
    assert_eq!(restored.warm_entries() as usize, cache.len());
    let originals: std::collections::BTreeMap<_, _> =
        cache.entries().map(|(k, v)| (k, v.clone())).collect();
    for (key, verdict) in restored.entries() {
        let original = &originals[&key];
        assert_eq!(verdict.all_outcomes, original.all_outcomes, "{key}");
        assert_eq!(verdict.allowed_outcomes, original.allowed_outcomes);
        assert_eq!(verdict.num_candidates, original.num_candidates);
        assert_eq!(verdict.num_allowed, original.num_allowed);
        assert_eq!(verdict.condition_witnessed, original.condition_witnessed);
    }
    // Render of the restored cache is byte-identical: a stable disk
    // fixed point, so re-saving a loaded cache never churns the file.
    assert_eq!(render(&restored), render(&cache));
}

#[test]
fn damaged_files_are_rejected_with_diagnostics() {
    let family: Vec<_> = generate(&GenConfig::small()).into_iter().take(3).collect();
    let path = scratch("damaged.wgc");
    save(&path, &judged(&family)).unwrap();
    let good = std::fs::read_to_string(&path).unwrap();

    // Wrong version: neither an older format-1 or format-2 file nor a
    // future format-4 file may be half-read by this loader.
    for other in ["weakgpu-cache/1", "weakgpu-cache/2", "weakgpu-cache/4"] {
        let foreign = good.replacen(SCHEMA, other, 1);
        std::fs::write(&path, &foreign).unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, PersistError::Version(_)), "{err}");
        // The human-facing diagnostic names both tags.
        assert!(err.to_string().contains(other), "{err}");
        assert!(err.to_string().contains(SCHEMA), "{err}");
    }

    // Truncation mid-record: the damaged line is named, 1-based,
    // counting the header.
    let cut = good.len() - good.trim_end().len() + 10;
    std::fs::write(&path, &good[..good.len() - cut]).unwrap();
    match load(&path).unwrap_err() {
        PersistError::Format(line, _) => assert_eq!(line, 1 + family.len()),
        other => panic!("expected Format error, got {other}"),
    }

    // An outcome count near `usize::MAX` is a Format error, not an
    // overflow in the field-count check.
    let huge = format!(
        "{SCHEMA}\n{}\t1\t1\t0\t18446744073709551615\n",
        "0".repeat(32)
    );
    std::fs::write(&path, huge).unwrap();
    match load(&path).unwrap_err() {
        PersistError::Format(line, msg) => {
            assert_eq!(line, 2, "{msg}");
            assert!(
                msg.contains("declares 18446744073709551615 outcomes"),
                "{msg}"
            );
        }
        other => panic!("expected Format error, got {other}"),
    }

    // A missing file is Io, and the message carries the path.
    let gone = scratch("no-such.wgc");
    match load(&gone).unwrap_err() {
        PersistError::Io(msg) => assert!(msg.contains("no-such.wgc"), "{msg}"),
        other => panic!("expected Io error, got {other}"),
    }
}

#[test]
fn parse_never_panics_on_mutilated_input() {
    let family: Vec<_> = generate(&GenConfig::small()).into_iter().take(2).collect();
    let good = render(&judged(&family));
    // Every prefix and every single-byte deletion either parses or
    // errors — no slicing panics, no unwraps on attacker-shaped input.
    for end in 0..good.len() {
        if good.is_char_boundary(end) {
            let _ = parse(&good[..end]);
        }
    }
    for i in 0..good.len() {
        if good.is_char_boundary(i) && good.is_char_boundary(i + 1) {
            let mut s = String::with_capacity(good.len());
            s.push_str(&good[..i]);
            s.push_str(&good[i + 1..]);
            let _ = parse(&s);
        }
    }
}

#[test]
fn open_starts_empty_only_when_it_may_write() {
    let path = scratch("opened.wgc");
    let _ = std::fs::remove_file(&path);
    assert!(open(None, true).unwrap().is_empty());
    assert!(open(Some(&path), false).unwrap().is_empty());
    let err = open(Some(&path), true).unwrap_err();
    assert!(err.to_string().contains("read-only cache file"), "{err}");
    let family: Vec<_> = generate(&GenConfig::small()).into_iter().take(3).collect();
    let cache = judged(&family);
    save(&path, &cache).unwrap();
    for readonly in [false, true] {
        assert_eq!(open(Some(&path), readonly).unwrap().len(), cache.len());
    }
    std::fs::remove_file(&path).ok();
}
