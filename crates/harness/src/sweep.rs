//! Paper-scale sharded validation sweeps (paper Sec. 5.4).
//!
//! The paper's headline validation runs a generated family of ~11k tests
//! against hardware and checks every observation against the axiomatic
//! model. This module turns that from a one-off binary into a subsystem:
//!
//! * **Deterministic sharding** — the canonically-ordered family is
//!   partitioned by global index ([`Shard::selects`]): shard `K/N` takes
//!   tests whose index `i` satisfies `i % N == K-1`, so the `N` shards
//!   are disjoint, exhaustive, and identical on every machine. Per-test
//!   seeds derive from the *global* index, so a sharded run's cells are
//!   bit-identical to the same cells of an unsharded run.
//! * **Judge, then run** — soundness is checked per cell against the
//!   model, but the axiomatic verdict depends only on the test's shape.
//!   So a sweep runs in two passes, and every phase spreads its jobs over
//!   one worker pool. The judge pass fingerprints every selected test on
//!   the pool and maps each test to its shape, in selection order. The
//!   pool judges each shape the [`VerdictCache`] does not know exactly
//!   once, through the model's compiled plan with one [`EvalContext`]
//!   per worker; then the calling thread counts each shape once, on
//!   behalf of all its tests' chip cells. The run pass then runs the
//!   campaign; a finished cell only compares its observations with its
//!   shape's verdict, so no worker ever waits on another's judgement.
//!   An outcome of no candidate execution fails the sweep with
//!   [`HarnessError::OutOfDomain`] (see [`crate::soundness`]).
//! * **Nothing shared per cell** — a run-pass worker tallies the cells
//!   it finishes itself and hands their records to its own share of the
//!   [`RecordSink`], so a sound cell's record takes no lock and allocates
//!   nothing. The tallies are merged once the last cell has run, and
//!   [`SweepRun::phases`] says how long each phase took.
//! * **Machine-readable reports** — each completed cell streams a JSONL
//!   [`CellRecord`] of its results alone, the same at any parallelism and
//!   in any shard; the aggregate [`SweepReport`] serialises to JSON,
//!   parses back, and [`SweepReport::merge`]s across shards into totals
//!   identical to an unsharded run at the same seed. Its totals are
//!   derived from its per-chip columns, so a report cannot disagree with
//!   itself.

use std::collections::{BTreeSet, HashMap};
use std::convert::Infallible;
use std::fmt::{self, Write as _};
use std::sync::Arc;
use std::time::{Duration, Instant};

use weakgpu_axiom::cache::{Fingerprint, VerdictCache};
use weakgpu_axiom::enumerate::{model_outcomes_with, EnumConfig, EnumError, ModelOutcomes};
use weakgpu_axiom::persist;
use weakgpu_axiom::plan::EvalContext;
use weakgpu_axiom::CatModel;
use weakgpu_litmus::LitmusTest;
use weakgpu_models::ptx_model;
use weakgpu_sim::chip::{Chip, Incantations};

use crate::campaign::{default_incantations, run_cells, run_pool, CampaignConfig, Cell};
use crate::json::{self, Json};
use crate::runner::HarnessError;

/// Version tag of the JSON report schema.
pub const SCHEMA: &str = "weakgpu-sweep/1";

/// One shard of a sweep: `index` of `count`, 1-based.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Shard {
    /// 1-based shard index.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Parses the CLI syntax `K/N`.
    ///
    /// # Errors
    ///
    /// Describes the malformed input.
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (k, n) = s
            .split_once('/')
            .ok_or_else(|| format!("shard must be K/N, got {s:?}"))?;
        let index: usize = k.parse().map_err(|_| format!("bad shard index {k:?}"))?;
        let count: usize = n.parse().map_err(|_| format!("bad shard count {n:?}"))?;
        let shard = Shard { index, count };
        shard.validate()?;
        Ok(shard)
    }

    /// Checks `1 <= index <= count`.
    ///
    /// # Errors
    ///
    /// Describes the violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if self.count == 0 {
            return Err("shard count must be >= 1".to_owned());
        }
        if self.index == 0 || self.index > self.count {
            return Err(format!(
                "shard index must be in 1..={}, got {}",
                self.count, self.index
            ));
        }
        Ok(())
    }

    /// `true` iff this shard owns global test index `i`. Round-robin, so
    /// shard sizes differ by at most one and every index has exactly one
    /// owner.
    pub fn selects(&self, i: usize) -> bool {
        i % self.count == self.index - 1
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Configuration of one sweep invocation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SweepConfig {
    /// Family label recorded in reports (`"small"`, `"paper"`, …). Merge
    /// refuses to combine reports with different labels.
    pub family: String,
    /// The shard to run (`None` = the whole family).
    pub shard: Option<Shard>,
    /// Chips to run every test on.
    pub chips: Vec<Chip>,
    /// Iterations per (test, chip) cell.
    pub iterations: usize,
    /// Base seed; each test's cell seed is `seed ^ global_index`.
    pub seed: u64,
    /// Worker threads (`None` = all cores). Wall-clock only.
    pub parallelism: Option<usize>,
    /// Warm-start the verdict cache from this `weakgpu-cache/3` file
    /// ([`weakgpu_axiom::persist`]) before the run, and write the
    /// updated cache back after it. Files of an older schema (`/1`,
    /// `/2`) fail the run with a diagnostic naming both tags; they are
    /// never converted. A missing file starts the run cold
    /// and is created at the end (unless [`SweepConfig::cache_readonly`]
    /// is set, in which case a missing file is an error — a warm-start
    /// contract that silently ran cold would hide a broken pipeline).
    /// Preloaded verdicts are semantically invisible: a warm run's
    /// report is bit-identical in every semantic field to a cold run's
    /// ([`SweepReport::totals_match`]); only [`CacheStats`] differ.
    pub cache_file: Option<std::path::PathBuf>,
    /// With [`SweepConfig::cache_file`]: load only, never write the
    /// updated cache back — for consumers of a shared cache artifact
    /// (CI shards) that must not race on the file.
    pub cache_readonly: bool,
}

/// Sweep failure.
#[derive(Clone, PartialEq, Debug)]
pub enum SweepError {
    /// A cell failed to compile or run.
    Harness(HarnessError),
    /// The axiomatic enumeration failed for some test.
    Enum(String, EnumError),
    /// The configuration or input family is invalid.
    Config(String),
    /// Reports could not be merged.
    Merge(String),
    /// A report failed to parse.
    Json(String),
    /// The persistent verdict cache could not be loaded or saved.
    Cache(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Harness(e) => write!(f, "{e}"),
            SweepError::Enum(test, e) => write!(f, "{test}: {e}"),
            SweepError::Config(msg) => write!(f, "invalid sweep config: {msg}"),
            SweepError::Merge(msg) => write!(f, "cannot merge reports: {msg}"),
            SweepError::Json(msg) => write!(f, "invalid report JSON: {msg}"),
            SweepError::Cache(msg) => write!(f, "verdict cache: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<HarnessError> for SweepError {
    fn from(e: HarnessError) -> Self {
        SweepError::Harness(e)
    }
}

/// One completed cell, as streamed to JSONL. A record borrows its test's
/// name from the family, and a sound cell's record allocates nothing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellRecord<'a> {
    /// Test name.
    pub test: &'a str,
    /// Global index of the test in the canonical family.
    pub index: usize,
    /// Chip short name.
    pub chip: &'static str,
    /// Runs executed.
    pub runs: u64,
    /// Runs witnessing the final condition.
    pub witnesses: u64,
    /// Distinct outcomes observed.
    pub distinct: usize,
    /// Observed outcomes the model forbids (rendered; empty = sound).
    pub unsound: Vec<String>,
}

impl CellRecord<'_> {
    /// Appends this record to `out` as one JSONL line, newline included.
    pub fn write_jsonl(&self, out: &mut String) {
        out.push_str("{\"test\": ");
        json::escape_into(out, self.test);
        let _ = write!(out, ", \"index\": {}, \"chip\": ", self.index);
        json::escape_into(out, self.chip);
        let _ = write!(
            out,
            ", \"runs\": {}, \"witnesses\": {}, \"distinct\": {}, \"unsound\": [",
            self.runs, self.witnesses, self.distinct
        );
        for (i, o) in self.unsound.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::escape_into(out, o);
        }
        out.push_str("]}\n");
    }
}

/// Where a sweep hands its cell records. Records arrive on the worker
/// threads as cells finish, and each worker collects them into its own
/// [`RecordSink::Buffer`], so a sink needs no lock per record. Once every
/// cell has run, each worker's buffer is handed back to
/// [`RecordSink::finish`] on the calling thread; a failed sweep hands
/// back none.
///
/// Any `Fn(&CellRecord)` is a sink without a buffer.
pub trait RecordSink<'a>: Sync {
    /// One worker's share of the sink.
    type Buffer: Send;
    /// The buffer of a worker that starts.
    fn buffer(&self) -> Self::Buffer;
    /// Takes a finished cell's record, on the worker that ran the cell.
    fn record(&self, buffer: &mut Self::Buffer, record: &CellRecord<'a>);
    /// Takes back a worker's buffer after the last cell.
    fn finish(&self, buffer: Self::Buffer);
}

impl<'a, F: Fn(&CellRecord<'a>) + Sync> RecordSink<'a> for F {
    type Buffer = ();
    fn buffer(&self) {}
    fn record(&self, (): &mut (), record: &CellRecord<'a>) {
        self(record);
    }
    fn finish(&self, (): ()) {}
}

/// Totals for one chip column (comparable to the paper's validation
/// table rows).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChipTotals {
    /// Chip short name.
    pub chip: String,
    /// Cells run on this chip.
    pub cells: u64,
    /// Total runs.
    pub runs: u64,
    /// Cells with at least one witness.
    pub witnessed_cells: u64,
    /// Total witnessing runs.
    pub witnesses: u64,
    /// Cells with model-forbidden observations.
    pub unsound_cells: u64,
}

impl ChipTotals {
    /// Zero totals for the chip named `chip`.
    fn new(chip: &str) -> ChipTotals {
        ChipTotals {
            chip: chip.to_owned(),
            cells: 0,
            runs: 0,
            witnessed_cells: 0,
            witnesses: 0,
            unsound_cells: 0,
        }
    }

    /// Adds `other`'s counts to these (same chip).
    fn add(&mut self, other: &ChipTotals) {
        debug_assert_eq!(self.chip, other.chip);
        self.cells += other.cells;
        self.runs += other.runs;
        self.witnessed_cells += other.witnessed_cells;
        self.witnesses += other.witnesses;
        self.unsound_cells += other.unsound_cells;
    }
}

/// One unsound cell in the aggregate report.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct UnsoundCell {
    /// Global index of the test in the canonical family.
    pub index: usize,
    /// Test name.
    pub test: String,
    /// Chip short name.
    pub chip: String,
    /// The forbidden outcomes observed.
    pub outcomes: Vec<String>,
}

/// Verdict-cache statistics, plus the enumeration time they saved.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Distinct shapes enumerated.
    pub entries: u64,
    /// Lookups answered without enumeration.
    pub hits: u64,
    /// Lookups that enumerated.
    pub misses: u64,
    /// Wall-clock microseconds spent streaming candidates through the
    /// model, summed over the shapes judged (this shard; merge sums
    /// shards).
    pub enum_micros: u64,
    /// Entries preloaded from a persistent cache file
    /// ([`SweepConfig::cache_file`]) rather than judged in this run.
    pub warm_entries: u64,
    /// Hits answered by a preloaded entry — the warm-cache contract: a
    /// shard handed a warm cache artifact must record a nonzero count
    /// here, or the artifact did nothing.
    pub warm_hits: u64,
}

/// The aggregate result of one sweep (or of merging shard sweeps).
#[derive(Clone, PartialEq, Debug)]
pub struct SweepReport {
    /// Family label.
    pub family: String,
    /// Size of the full family (all shards).
    pub family_size: u64,
    /// The shard this report covers (`None` = whole family / merged).
    pub shard: Option<Shard>,
    /// Base seed.
    pub seed: u64,
    /// Iterations per cell.
    pub iterations: u64,
    /// Chip short names, in column order.
    pub chips: Vec<String>,
    /// Tests run (this shard).
    pub tests_run: u64,
    /// Tests witnessing their weak outcome on at least one chip.
    pub weak_tests: u64,
    /// The unsound cells, in canonical (test-major) order.
    pub unsound: Vec<UnsoundCell>,
    /// Per-chip totals, in chip column order: the one source of the
    /// report's cell, run and witness totals.
    pub per_chip: Vec<ChipTotals>,
    /// Verdict-cache statistics (informational; not part of
    /// [`SweepReport::totals_match`]).
    pub cache: CacheStats,
}

impl SweepReport {
    /// `true` iff no cell observed a model-forbidden outcome.
    pub fn is_sound(&self) -> bool {
        self.unsound.is_empty()
    }

    /// Cells run.
    pub fn cells(&self) -> u64 {
        self.per_chip.iter().map(|c| c.cells).sum()
    }

    /// Cells with at least one witness.
    pub fn witnessed_cells(&self) -> u64 {
        self.per_chip.iter().map(|c| c.witnessed_cells).sum()
    }

    /// Total runs.
    pub fn total_runs(&self) -> u64 {
        self.per_chip.iter().map(|c| c.runs).sum()
    }

    /// Total witnessing runs.
    pub fn total_witnesses(&self) -> u64 {
        self.per_chip.iter().map(|c| c.witnesses).sum()
    }

    /// Cells with model-forbidden observations: in a report that a sweep
    /// returns or [`SweepReport::from_json`] accepts, the length of
    /// [`SweepReport::unsound`] too.
    pub fn unsound_cells(&self) -> u64 {
        self.per_chip.iter().map(|c| c.unsound_cells).sum()
    }

    /// `true` iff every semantic field matches `other` — everything
    /// except the shard designation and the cache statistics (which
    /// depend on how the work was split, not on what was measured).
    /// Merging all shards of a family must yield a report whose totals
    /// match the unsharded run at the same seed.
    pub fn totals_match(&self, other: &SweepReport) -> bool {
        let semantic = |r: &SweepReport| SweepReport {
            shard: None,
            cache: CacheStats::default(),
            ..r.clone()
        };
        semantic(self) == semantic(other)
    }

    /// Serialises to the `weakgpu-sweep/1` JSON schema (pretty-printed,
    /// deterministic member order, trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": {},\n", json::escape(SCHEMA)));
        s.push_str(&format!("  \"family\": {},\n", json::escape(&self.family)));
        s.push_str(&format!("  \"family_size\": {},\n", self.family_size));
        match self.shard {
            Some(sh) => s.push_str(&format!(
                "  \"shard\": {{\"index\": {}, \"count\": {}}},\n",
                sh.index, sh.count
            )),
            None => s.push_str("  \"shard\": null,\n"),
        }
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"iterations\": {},\n", self.iterations));
        s.push_str(&format!(
            "  \"chips\": [{}],\n",
            self.chips
                .iter()
                .map(|c| json::escape(c))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str(&format!("  \"tests_run\": {},\n", self.tests_run));
        s.push_str(&format!("  \"weak_tests\": {},\n", self.weak_tests));
        for (key, total) in self.totals() {
            s.push_str(&format!("  \"{key}\": {total},\n"));
        }
        s.push_str("  \"unsound\": [");
        for (i, u) in self.unsound.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"index\": {}, \"test\": {}, \"chip\": {}, \"outcomes\": [{}]}}",
                u.index,
                json::escape(&u.test),
                json::escape(&u.chip),
                u.outcomes
                    .iter()
                    .map(|o| json::escape(o))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        if !self.unsound.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");
        s.push_str("  \"per_chip\": [");
        for (i, c) in self.per_chip.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"chip\": {}, \"cells\": {}, \"runs\": {}, \"witnessed_cells\": {}, \"witnesses\": {}, \"unsound_cells\": {}}}",
                json::escape(&c.chip),
                c.cells,
                c.runs,
                c.witnessed_cells,
                c.witnesses,
                c.unsound_cells
            ));
        }
        if !self.per_chip.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");
        s.push_str(&format!(
            "  \"cache\": {{\"entries\": {}, \"hits\": {}, \"misses\": {}, \"enum_micros\": {}, \"warm_entries\": {}, \"warm_hits\": {}}}\n",
            self.cache.entries,
            self.cache.hits,
            self.cache.misses,
            self.cache.enum_micros,
            self.cache.warm_entries,
            self.cache.warm_hits
        ));
        s.push_str("}\n");
        s
    }

    /// The totals [`SweepReport::to_json`] prints, by key.
    fn totals(&self) -> [(&'static str, u64); 5] {
        [
            ("cells", self.cells()),
            ("witnessed_cells", self.witnessed_cells()),
            ("total_runs", self.total_runs()),
            ("total_witnesses", self.total_witnesses()),
            ("unsound_cells", self.unsound_cells()),
        ]
    }

    /// Parses a `weakgpu-sweep/1` JSON report. The totals it prints are
    /// not read back but checked: each must equal its sum over
    /// `per_chip`, and `unsound_cells` must also count the `unsound`
    /// list, so a hand-edited report whose totals disagree with its
    /// columns is rejected rather than merged.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Json`] describing the first problem.
    pub fn from_json(src: &str) -> Result<SweepReport, SweepError> {
        let v = json::parse(src).map_err(SweepError::Json)?;
        let schema = str_field(&v, "schema")?;
        if schema != SCHEMA {
            return Err(SweepError::Json(format!(
                "unsupported schema {schema:?} (expected {SCHEMA:?})"
            )));
        }
        let shard = match v.get("shard") {
            None => return Err(SweepError::Json("missing field shard".to_owned())),
            Some(Json::Null) => None,
            Some(sh) => {
                let shard = Shard {
                    index: u64_field(sh, "index")? as usize,
                    count: u64_field(sh, "count")? as usize,
                };
                shard.validate().map_err(SweepError::Json)?;
                Some(shard)
            }
        };
        let chips = str_arr_field(&v, "chips")?;
        let mut unsound = Vec::new();
        for u in arr_field(&v, "unsound")? {
            unsound.push(UnsoundCell {
                index: u64_field(u, "index")? as usize,
                test: str_field(u, "test")?.to_owned(),
                chip: str_field(u, "chip")?.to_owned(),
                outcomes: str_arr_field(u, "outcomes")?,
            });
        }
        let mut per_chip = Vec::new();
        for c in arr_field(&v, "per_chip")? {
            per_chip.push(ChipTotals {
                chip: str_field(c, "chip")?.to_owned(),
                cells: u64_field(c, "cells")?,
                runs: u64_field(c, "runs")?,
                witnessed_cells: u64_field(c, "witnessed_cells")?,
                witnesses: u64_field(c, "witnesses")?,
                unsound_cells: u64_field(c, "unsound_cells")?,
            });
        }
        let cache = match v.get("cache") {
            Some(c) => CacheStats {
                entries: u64_field(c, "entries")?,
                hits: u64_field(c, "hits")?,
                misses: u64_field(c, "misses")?,
                // Absent in pre-streaming reports; default rather than
                // reject so old shard artifacts still merge.
                enum_micros: c.get("enum_micros").and_then(Json::as_u64).unwrap_or(0),
                // Absent in pre-persistence reports, same treatment.
                warm_entries: c.get("warm_entries").and_then(Json::as_u64).unwrap_or(0),
                warm_hits: c.get("warm_hits").and_then(Json::as_u64).unwrap_or(0),
                // Counters of retired walk flags in older reports
                // (`cut_attempt_micros`, `registers_refilled`) are
                // ignored like any other unknown field.
            },
            None => CacheStats::default(),
        };
        let report = SweepReport {
            family: str_field(&v, "family")?.to_owned(),
            family_size: u64_field(&v, "family_size")?,
            shard,
            seed: u64_field(&v, "seed")?,
            iterations: u64_field(&v, "iterations")?,
            chips,
            tests_run: u64_field(&v, "tests_run")?,
            weak_tests: u64_field(&v, "weak_tests")?,
            unsound,
            per_chip,
            cache,
        };
        let listed = ("unsound_cells", report.unsound.len() as u64);
        for (key, derived) in report.totals().into_iter().chain([listed]) {
            let printed = u64_field(&v, key)?;
            if printed != derived {
                return Err(SweepError::Json(format!(
                    "{key} is {printed}, but the report's cells give {derived}"
                )));
            }
        }
        Ok(report)
    }

    /// Merges shard reports back into one whole-family report.
    ///
    /// Every input must be a shard of the same sweep (same family, size,
    /// seed, iterations and chips; same shard count) and the shard
    /// indices must cover `1..=count` exactly once — a missing or
    /// duplicated shard is an error, not a silent undercount.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Merge`] naming the first inconsistency.
    pub fn merge(reports: &[SweepReport]) -> Result<SweepReport, SweepError> {
        let first = reports
            .first()
            .ok_or_else(|| SweepError::Merge("no reports given".to_owned()))?;
        let count = match first.shard {
            Some(sh) => sh.count,
            None => {
                return Err(SweepError::Merge(
                    "report 1 is not a shard (shard: null)".to_owned(),
                ))
            }
        };
        // The declared count comes from the input: track only the
        // indices present, at most one per report.
        let mut seen = BTreeSet::new();
        for (i, r) in reports.iter().enumerate() {
            let sh = r.shard.ok_or_else(|| {
                SweepError::Merge(format!("report {} is not a shard (shard: null)", i + 1))
            })?;
            sh.validate()
                .map_err(|e| SweepError::Merge(format!("report {}: {e}", i + 1)))?;
            if sh.count != count {
                return Err(SweepError::Merge(format!(
                    "report {} has shard count {}, expected {count}",
                    i + 1,
                    sh.count
                )));
            }
            let mismatch = if r.family != first.family {
                Some("family")
            } else if r.family_size != first.family_size {
                Some("family_size")
            } else if r.seed != first.seed {
                Some("seed")
            } else if r.iterations != first.iterations {
                Some("iterations")
            } else if r.chips != first.chips {
                Some("chips")
            } else {
                None
            };
            if let Some(what) = mismatch {
                return Err(SweepError::Merge(format!(
                    "report {} disagrees with report 1 on {what}",
                    i + 1
                )));
            }
            // The per_chip columns must line up with the chips list —
            // a truncated or reordered array would otherwise misattribute
            // the column sums below.
            if r.per_chip.len() != r.chips.len()
                || r.per_chip.iter().zip(&r.chips).any(|(p, c)| &p.chip != c)
            {
                return Err(SweepError::Merge(format!(
                    "report {}'s per_chip entries do not match its chips list",
                    i + 1
                )));
            }
            if !seen.insert(sh.index) {
                return Err(SweepError::Merge(format!("duplicate shard {sh}")));
            }
        }
        let missing = count - seen.len();
        if missing > 0 {
            // Name the first few; within the first `seen.len() + LISTED`
            // indices at least that many are missing, so the scan stays
            // bounded by the number of reports.
            const LISTED: usize = 8;
            let mut names: Vec<String> = (1..=count)
                .filter(|k| !seen.contains(k))
                .take(LISTED)
                .map(|k| format!("{k}/{count}"))
                .collect();
            if missing > LISTED {
                names.push(format!("and {} more", missing - LISTED));
            }
            return Err(SweepError::Merge(format!(
                "missing shard(s) {}",
                names.join(", ")
            )));
        }

        let mut out = SweepReport {
            family: first.family.clone(),
            family_size: first.family_size,
            shard: None,
            seed: first.seed,
            iterations: first.iterations,
            chips: first.chips.clone(),
            tests_run: 0,
            weak_tests: 0,
            unsound: Vec::new(),
            per_chip: first.chips.iter().map(|c| ChipTotals::new(c)).collect(),
            cache: CacheStats::default(),
        };
        for r in reports {
            out.tests_run += r.tests_run;
            out.weak_tests += r.weak_tests;
            out.unsound.extend(r.unsound.iter().cloned());
            for (acc, c) in out.per_chip.iter_mut().zip(&r.per_chip) {
                acc.add(c);
            }
            out.cache.entries += r.cache.entries;
            out.cache.hits += r.cache.hits;
            out.cache.misses += r.cache.misses;
            out.cache.enum_micros += r.cache.enum_micros;
            out.cache.warm_entries += r.cache.warm_entries;
            out.cache.warm_hits += r.cache.warm_hits;
        }
        if out.tests_run != out.family_size {
            return Err(SweepError::Merge(format!(
                "shards cover {} tests, family has {}",
                out.tests_run, out.family_size
            )));
        }
        // Canonical (test-major, chip-minor) order, matching an unsharded
        // run's report.
        let chip_pos = |chip: &str| {
            out.chips
                .iter()
                .position(|c| c == chip)
                .unwrap_or(usize::MAX)
        };
        out.unsound.sort_by_key(|a| (a.index, chip_pos(&a.chip)));
        Ok(out)
    }
}

fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], SweepError> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| SweepError::Json(format!("missing or non-array field {key}")))
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, SweepError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| SweepError::Json(format!("missing or non-string field {key}")))
}

fn str_arr_field(v: &Json, key: &str) -> Result<Vec<String>, SweepError> {
    arr_field(v, key)?
        .iter()
        .map(|x| {
            x.as_str()
                .map(str::to_owned)
                .ok_or_else(|| SweepError::Json(format!("non-string element in {key}")))
        })
        .collect()
}

fn u64_field(v: &Json, key: &str) -> Result<u64, SweepError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| SweepError::Json(format!("missing or non-integer field {key}")))
}

/// A finished sweep: its report, the wall time of each of its phases,
/// and the verdict cache it ended with (already saved when
/// [`SweepConfig::cache_file`] names a writable file), which a caller
/// about to exit may leave unfreed.
#[derive(Debug)]
pub struct SweepRun {
    /// The aggregate report.
    pub report: SweepReport,
    /// Where the sweep's wall time went.
    pub phases: SweepPhases,
    /// The verdict cache after the judge pass.
    pub cache: VerdictCache,
}

/// Wall-clock time of each phase of a sweep, after its family is given.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SweepPhases {
    /// Fingerprinting every selected test, on the workers.
    pub fingerprint: Duration,
    /// Loading the cache file, if any, and the judge pass: mapping tests
    /// to shapes, judging each unknown shape on the workers, and
    /// counting each shape.
    pub judge: Duration,
    /// The run pass: every cell compiled, run and judged on the workers.
    pub run: Duration,
    /// Merging the workers' tallies, saving the cache and building the
    /// report.
    pub report: Duration,
}

/// Runs the sweep. `family` must be the **complete** canonically-ordered
/// test family (strictly increasing names — `weakgpu_diy::generate`
/// guarantees this); when `cfg.shard` is set, this function selects the
/// shard's subset itself so global indices (and with them per-test
/// seeds) are shard-invariant.
///
/// # Errors
///
/// See [`run_sweep_with`].
pub fn run_sweep(family: &[LitmusTest], cfg: &SweepConfig) -> Result<SweepReport, SweepError> {
    run_sweep_with(family, cfg, |_: &CellRecord<'_>| {}).map(|run| run.report)
}

/// Like [`run_sweep`], handing each cell's record to `sink` as the cell
/// completes, on the worker that ran it. Cells finish out of order; each
/// record carries its test's global index, and the aggregate report is
/// always assembled in canonical order regardless of completion order.
///
/// # Errors
///
/// Returns a configuration error, or else the compile, run or
/// enumeration error of the lowest failing cell (see
/// [`run_campaign_with`](crate::campaign::run_campaign_with)).
pub fn run_sweep_with<'a, S>(
    family: &'a [LitmusTest],
    cfg: &SweepConfig,
    sink: S,
) -> Result<SweepRun, SweepError>
where
    S: RecordSink<'a>,
{
    if cfg.chips.is_empty() {
        return Err(SweepError::Config("no chips given".to_owned()));
    }
    if let Some(sh) = cfg.shard {
        sh.validate().map_err(SweepError::Config)?;
    }
    if let Some(w) = family.windows(2).find(|w| w[0].name() >= w[1].name()) {
        return Err(SweepError::Config(format!(
            "family is not in canonical order: {:?} before {:?}",
            w[0].name(),
            w[1].name()
        )));
    }

    let start = Instant::now();
    let selected: Vec<(usize, &LitmusTest)> = family
        .iter()
        .enumerate()
        .filter(|(i, _)| cfg.shard.is_none_or(|sh| sh.selects(*i)))
        .collect();
    let model = ptx_model();
    let enum_cfg = EnumConfig::default();
    // Each test's shape key and placement, one test per job, so that the
    // run pass plans its cells without touching a test.
    let (keys, incantations): (Vec<Fingerprint>, Vec<Incantations>) = map_on_pool(
        selected.len(),
        cfg.parallelism,
        || (),
        |(), t| {
            let test = selected[t].1;
            (
                Fingerprint::of(test, &*model, &enum_cfg),
                default_incantations(test),
            )
        },
    )
    .into_iter()
    .unzip();
    let fingerprinted = Instant::now();

    let num_chips = cfg.chips.len();
    let mut cache = persist::open(cfg.cache_file.as_deref(), cfg.cache_readonly)
        .map_err(|e| SweepError::Cache(e.to_string()))?;
    let (shape_of, verdicts, enum_micros) = judge_all(
        &selected,
        &keys,
        num_chips,
        &mut cache,
        (&*model, &enum_cfg),
        cfg.parallelism,
    );
    let judged_at = Instant::now();

    // Cell `ci` is test `ci / num_chips` of the selection on chip
    // `ci % num_chips` (test-major); cells borrow the family's tests.
    let workers = run_cells(
        selected.len() * num_chips,
        |ci| {
            let (gi, test) = selected[ci / num_chips];
            Cell {
                test,
                chip: cfg.chips[ci % num_chips],
                incantations: incantations[ci / num_chips],
                iterations: cfg.iterations,
                seed: cfg.seed ^ (gi as u64),
            }
        },
        &CampaignConfig {
            parallelism: cfg.parallelism,
        },
        || SweepWorker {
            tally: Tally::new(&cfg.chips, selected.len()),
            buffer: sink.buffer(),
        },
        |w: &mut SweepWorker<S::Buffer>, ci, done| -> Result<(), SweepError> {
            let (gi, test) = selected[ci / num_chips];
            // A cell whose shape failed judgement fails here, after its
            // compile and runs succeeded, so the campaign reports the
            // lowest failing cell whatever made it fail.
            let verdict = verdicts[shape_of[ci / num_chips]]
                .as_ref()
                .map_err(|e| SweepError::Enum(test.name().to_owned(), e.clone()))?;
            let (witnesses, forbidden) = done.judge(Some(&**verdict))?;
            let record = CellRecord {
                test: test.name(),
                index: gi,
                chip: done.sim.chip().short(),
                runs: done.counts.total(),
                witnesses,
                distinct: done.counts.distinct(),
                unsound: forbidden.iter().map(ToString::to_string).collect(),
            };
            sink.record(&mut w.buffer, &record);
            w.tally.add(ci, num_chips, record);
            Ok(())
        },
    )?;
    let ran = Instant::now();

    let mut tally = Tally::new(&cfg.chips, selected.len());
    for w in workers {
        tally.merge(w.tally);
        sink.finish(w.buffer);
    }
    let Tally {
        per_chip,
        weak,
        mut unsound,
    } = tally;
    unsound.sort_unstable_by_key(|(ci, _)| *ci);
    let unsound: Vec<UnsoundCell> = unsound.into_iter().map(|(_, u)| u).collect();
    if let Some(path) = &cfg.cache_file {
        if !cfg.cache_readonly {
            persist::save(path, &cache).map_err(|e| SweepError::Cache(e.to_string()))?;
        }
    }
    let report = SweepReport {
        family: cfg.family.clone(),
        family_size: family.len() as u64,
        shard: cfg.shard,
        seed: cfg.seed,
        iterations: cfg.iterations as u64,
        chips: cfg.chips.iter().map(|c| c.short().to_owned()).collect(),
        tests_run: selected.len() as u64,
        weak_tests: weak.iter().filter(|&&w| w).count() as u64,
        unsound,
        per_chip,
        cache: CacheStats {
            entries: cache.len() as u64,
            hits: cache.hits(),
            misses: cache.misses(),
            enum_micros,
            warm_entries: cache.warm_entries(),
            warm_hits: cache.warm_hits(),
        },
    };
    let phases = SweepPhases {
        fingerprint: fingerprinted - start,
        judge: judged_at - fingerprinted,
        run: ran - judged_at,
        report: ran.elapsed(),
    };
    Ok(SweepRun {
        report,
        phases,
        cache,
    })
}

/// `f(state, i)` for every `i` in `0..n`, in index order, computed on
/// the worker pool with one `init()` state per worker.
fn map_on_pool<S: Send, T: Send>(
    n: usize,
    parallelism: Option<usize>,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let workers = run_pool(
        n,
        parallelism,
        || (init(), Vec::new()),
        |(state, out): &mut (S, Vec<(usize, T)>), i| {
            out.push((i, f(state, i)));
            Ok::<_, Infallible>(())
        },
    )
    .unwrap_or_else(|never| match never {});
    // Each worker's share is in index order already: the sort merges
    // one run per worker.
    let mut done: Vec<(usize, T)> = workers.into_iter().flat_map(|(_, out)| out).collect();
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

/// A shape's verdict, or the error of its judgement, which the cells of
/// its tests report in cell order.
type Verdict = Result<Arc<ModelOutcomes>, EnumError>;

/// The judge pass after fingerprinting: returns the shape of each test
/// in `selected` (whose shape keys are `keys`), the verdict of each shape
/// and the microseconds the judgements took.
///
/// The pool judges each shape `cache` does not know once; then the
/// calling thread counts each shape once, serially, for the `k ·
/// num_chips` cells of its `k` tests: a known shape counts that many
/// hits, a fresh one is published as one miss and one hit fewer, and a
/// failed one counts nothing.
fn judge_all(
    selected: &[(usize, &LitmusTest)],
    keys: &[Fingerprint],
    num_chips: usize,
    cache: &mut VerdictCache,
    (model, enum_cfg): (&CatModel, &EnumConfig),
    parallelism: Option<usize>,
) -> (Vec<usize>, Vec<Verdict>, u64) {
    // Each shape's key, first test and number of tests, in order of
    // first appearance.
    let mut shapes: Vec<(Fingerprint, usize, u64)> = Vec::new();
    let mut index = HashMap::with_capacity(keys.len());
    let shape_of: Vec<usize> = keys
        .iter()
        .enumerate()
        .map(|(t, &key)| {
            let s = *index.entry(key).or_insert_with(|| {
                shapes.push((key, t, 0));
                shapes.len() - 1
            });
            shapes[s].2 += 1;
            s
        })
        .collect();

    // Judge and time each shape `cache` does not know, wrapping each
    // fresh verdict for sharing on the worker that judged it.
    let known = &*cache;
    let judged = map_on_pool(shapes.len(), parallelism, EvalContext::new, |ctx, s| {
        let (key, t, _) = shapes[s];
        (!known.contains(key)).then(|| {
            let t0 = Instant::now();
            let verdict = model_outcomes_with(selected[t].1, model, enum_cfg, ctx).map(Arc::new);
            (verdict, t0.elapsed().as_micros() as u64)
        })
    });
    let enum_micros = judged.iter().flatten().map(|(_, micros)| micros).sum();
    cache.reserve(
        judged
            .iter()
            .flatten()
            .filter(|(verdict, _)| verdict.is_ok())
            .count(),
    );

    let verdicts = shapes
        .iter()
        .zip(judged)
        .map(|(&(key, _, tests), judged)| {
            let lookups = tests * num_chips as u64;
            match judged {
                Some((verdict, _)) => {
                    verdict.map(|fresh| cache.publish_key(key, fresh, lookups - 1))
                }
                None => Ok(cache.get(key, lookups).expect("a known shape hits")),
            }
        })
        .collect();
    (shape_of, verdicts, enum_micros)
}

/// What one run-pass worker keeps: its share of the tally and of the
/// record sink.
struct SweepWorker<B> {
    tally: Tally,
    buffer: B,
}

/// The aggregate of the cells one worker completed. Each cell's record
/// is folded in as it completes and then dropped; the workers' tallies
/// are merged once every cell has run.
struct Tally {
    /// Per-chip totals, in chip column order.
    per_chip: Vec<ChipTotals>,
    /// Whether each selected test witnessed its condition on some chip.
    weak: Vec<bool>,
    /// Unsound cells tagged with their cell index (canonical order once
    /// sorted).
    unsound: Vec<(usize, UnsoundCell)>,
}

impl Tally {
    fn new(chips: &[Chip], tests: usize) -> Tally {
        Tally {
            per_chip: chips.iter().map(|c| ChipTotals::new(c.short())).collect(),
            weak: vec![false; tests],
            unsound: Vec::new(),
        }
    }

    fn add(&mut self, ci: usize, num_chips: usize, record: CellRecord<'_>) {
        let totals = &mut self.per_chip[ci % num_chips];
        debug_assert_eq!(record.chip, totals.chip);
        totals.cells += 1;
        totals.runs += record.runs;
        totals.witnesses += record.witnesses;
        if record.witnesses > 0 {
            totals.witnessed_cells += 1;
            self.weak[ci / num_chips] = true;
        }
        if !record.unsound.is_empty() {
            totals.unsound_cells += 1;
            self.unsound.push((
                ci,
                UnsoundCell {
                    index: record.index,
                    test: record.test.to_owned(),
                    chip: record.chip.to_owned(),
                    outcomes: record.unsound,
                },
            ));
        }
    }

    /// Adds `other`'s counts to these.
    fn merge(&mut self, other: Tally) {
        for (totals, o) in self.per_chip.iter_mut().zip(&other.per_chip) {
            totals.add(o);
        }
        for (weak, o) in self.weak.iter_mut().zip(other.weak) {
            *weak |= o;
        }
        self.unsound.extend(other.unsound);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parsing() {
        assert_eq!(Shard::parse("1/4").unwrap(), Shard { index: 1, count: 4 });
        assert_eq!(Shard::parse("7/7").unwrap(), Shard { index: 7, count: 7 });
        assert!(Shard::parse("0/4").is_err());
        assert!(Shard::parse("5/4").is_err());
        assert!(Shard::parse("1/0").is_err());
        assert!(Shard::parse("1-4").is_err());
        assert!(Shard::parse("a/b").is_err());
        assert_eq!(Shard::parse("2/4").unwrap().to_string(), "2/4");
    }

    #[test]
    fn shard_partition_is_disjoint_and_exhaustive() {
        for count in [1usize, 2, 4, 7] {
            for i in 0..1000 {
                let owners: Vec<usize> = (1..=count)
                    .filter(|&k| Shard { index: k, count }.selects(i))
                    .collect();
                assert_eq!(owners.len(), 1, "index {i} with {count} shards: {owners:?}");
            }
        }
    }

    fn tiny_report(index: usize, count: usize) -> SweepReport {
        SweepReport {
            family: "small".to_owned(),
            family_size: 10,
            shard: Some(Shard { index, count }),
            seed: 7,
            iterations: 100,
            chips: vec!["Titan".to_owned()],
            tests_run: 10 / count as u64 + u64::from(index <= 10 % count),
            weak_tests: 1,
            unsound: Vec::new(),
            per_chip: vec![ChipTotals {
                chip: "Titan".to_owned(),
                cells: 5,
                runs: 500,
                witnessed_cells: 2,
                witnesses: 3,
                unsound_cells: 0,
            }],
            cache: CacheStats {
                entries: 5,
                hits: 0,
                misses: 5,
                enum_micros: 120,
                warm_entries: 2,
                warm_hits: 1,
            },
        }
    }

    #[test]
    fn json_roundtrip() {
        let mut r = tiny_report(2, 4);
        r.unsound = vec![UnsoundCell {
            index: 3,
            test: "PodWR-Fre-PodWR-Fre+inter".to_owned(),
            chip: "Titan".to_owned(),
            outcomes: vec!["0:r0=1; 1:r0=1; ".to_owned()],
        }];
        r.per_chip[0].unsound_cells = 1;
        let parsed = SweepReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // And an unsharded report.
        let mut u = tiny_report(1, 1);
        u.shard = None;
        assert_eq!(SweepReport::from_json(&u.to_json()).unwrap(), u);
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        assert!(SweepReport::from_json("not json").is_err());
        assert!(SweepReport::from_json("{}").is_err());
        let wrong_schema = tiny_report(1, 2).to_json().replace(SCHEMA, "other/9");
        assert!(SweepReport::from_json(&wrong_schema).is_err());
    }

    #[test]
    fn merge_requires_all_shards() {
        let r1 = tiny_report(1, 2);
        let err = SweepReport::merge(std::slice::from_ref(&r1)).unwrap_err();
        assert!(err.to_string().contains("missing shard(s) 2/2"), "{err}");
        let err = SweepReport::merge(&[r1.clone(), r1.clone()]).unwrap_err();
        assert!(err.to_string().contains("duplicate shard"), "{err}");
        let err = SweepReport::merge(&[]).unwrap_err();
        assert!(err.to_string().contains("no reports"), "{err}");
        let mut unsharded = r1.clone();
        unsharded.shard = None;
        assert!(SweepReport::merge(&[unsharded]).is_err());
    }

    #[test]
    fn merge_bounds_its_work_by_the_reports_given() {
        // A declared shard count far beyond the reports given is a
        // missing-shard error, found without a slot per declared shard.
        let count = 1_000_000_000_000_000_000;
        let huge = tiny_report(1, count);
        let parsed = SweepReport::from_json(&huge.to_json()).unwrap();
        let err = SweepReport::merge(&[parsed]).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, SweepError::Merge(_)), "{err}");
        assert!(
            msg.contains(&format!("missing shard(s) 2/{count}, 3/{count}")),
            "{msg}"
        );
        assert!(msg.contains(&format!("and {} more", count - 9)), "{msg}");
        // A shard index beyond its count is rejected, not indexed.
        let bad = tiny_report(3, 2);
        let err = SweepReport::merge(&[tiny_report(1, 2), bad]).unwrap_err();
        assert!(err.to_string().contains("shard index"), "{err}");
    }

    #[test]
    fn merge_rejects_misaligned_per_chip() {
        let r1 = tiny_report(1, 2);
        let mut r2 = tiny_report(2, 2);
        r2.per_chip[0].chip = "GTX7".to_owned();
        let err = SweepReport::merge(&[r1.clone(), r2]).unwrap_err();
        assert!(err.to_string().contains("per_chip"), "{err}");
        let mut r3 = tiny_report(2, 2);
        r3.per_chip.clear();
        let err = SweepReport::merge(&[r1, r3]).unwrap_err();
        assert!(err.to_string().contains("per_chip"), "{err}");
    }

    #[test]
    fn merge_rejects_mismatched_runs() {
        let r1 = tiny_report(1, 2);
        let mut r2 = tiny_report(2, 2);
        r2.seed = 8;
        let err = SweepReport::merge(&[r1, r2]).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
    }

    #[test]
    fn merge_sums_and_unshards() {
        let merged = SweepReport::merge(&[tiny_report(2, 2), tiny_report(1, 2)]).unwrap();
        assert_eq!(merged.shard, None);
        assert_eq!(merged.tests_run, 10);
        assert_eq!(merged.cells(), 10);
        assert_eq!(merged.total_runs(), 1000);
        assert_eq!(merged.total_witnesses(), 6);
        assert_eq!(merged.per_chip[0].runs, 1000);
        assert_eq!(merged.cache.misses, 10);
        assert_eq!(merged.cache.enum_micros, 240);
        assert_eq!(merged.cache.warm_entries, 4);
        assert_eq!(merged.cache.warm_hits, 2);
        assert!(merged.is_sound());
    }

    #[test]
    fn cell_record_jsonl_is_valid_json() {
        let rec = CellRecord {
            test: "Fre-Rfe+inter \"quoted\"",
            index: 12,
            chip: "Titan",
            runs: 100,
            witnesses: 1,
            distinct: 3,
            unsound: vec!["1:r1=7; ".to_owned(), "1:r1=8; ".to_owned()],
        };
        let mut lines = String::new();
        rec.write_jsonl(&mut lines);
        let first = lines.clone();
        rec.write_jsonl(&mut lines);
        assert_eq!(
            lines,
            format!("{first}{first}"),
            "records append whole lines"
        );
        assert_eq!(
            first,
            "{\"test\": \"Fre-Rfe+inter \\\"quoted\\\"\", \"index\": 12, \"chip\": \"Titan\", \
             \"runs\": 100, \"witnesses\": 1, \"distinct\": 3, \
             \"unsound\": [\"1:r1=7; \", \"1:r1=8; \"]}\n"
        );
        let v = json::parse(&first).unwrap();
        assert_eq!(v.get("index").unwrap().as_u64(), Some(12));
        assert_eq!(v.get("test").unwrap().as_str(), Some(rec.test));
        assert_eq!(v.get("unsound").unwrap().as_arr().unwrap().len(), 2);
        assert!(v.get("enum_micros").is_none());
        assert!(v.get("classes_visited").is_none());
        assert!(v.get("candidates_pruned").is_none());
        assert!(v.get("registers_refilled").is_none());
    }

    #[test]
    fn cache_stats_survive_json_and_tolerate_old_reports() {
        let r = tiny_report(1, 2);
        let parsed = SweepReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.cache.enum_micros, 120);
        assert_eq!(parsed.cache.warm_entries, 2);
        assert_eq!(parsed.cache.warm_hits, 1);
        // A pre-streaming report without the timing or warm fields
        // still parses.
        let legacy = r
            .to_json()
            .replace(", \"enum_micros\": 120", "")
            .replace(", \"warm_entries\": 2, \"warm_hits\": 1", "");
        let parsed = SweepReport::from_json(&legacy).unwrap();
        assert_eq!(parsed.cache.enum_micros, 0);
        assert_eq!(parsed.cache.warm_entries, 0);
        assert_eq!(parsed.cache.warm_hits, 0);
        assert_eq!(parsed.cache.misses, 5);
        // So does a report that still carries the counters of the
        // retired walk flags.
        let old = r.to_json().replace(
            "\"warm_hits\": 1}",
            "\"warm_hits\": 1, \"cut_attempt_micros\": 30, \"registers_refilled\": 9}",
        );
        assert_ne!(old, r.to_json());
        assert_eq!(SweepReport::from_json(&old).unwrap(), r);
    }
}
