//! The [`Session`] API: one object holding chip, incantations, iteration
//! count and seed, against which tests are run, model-checked and
//! soundness-verified.

use std::fmt;

use weakgpu_axiom::enumerate::{model_outcomes, EnumConfig, EnumError, ModelOutcomes};
use weakgpu_axiom::model::Model;
use weakgpu_harness::campaign::{run_campaign, CampaignConfig, CellSpec};
use weakgpu_harness::runner::{run_test, HarnessError, RunConfig, TestReport};
use weakgpu_harness::soundness::{check_soundness, SoundnessReport};
use weakgpu_litmus::LitmusTest;
use weakgpu_models::ptx_model;
use weakgpu_sim::chip::{Chip, Incantations};

/// A configured testing session.
///
/// Defaults: GTX Titan, all incantations, 100k iterations (the paper's
/// setup for its figures), all cores.
#[derive(Clone, Debug)]
pub struct Session {
    chip: Chip,
    incantations: Incantations,
    iterations: usize,
    seed: u64,
    parallelism: Option<usize>,
    enum_config: EnumConfig,
}

impl Default for Session {
    fn default() -> Self {
        Session {
            chip: Chip::GtxTitan,
            incantations: Incantations::all_on(),
            iterations: 100_000,
            seed: 0x5eed,
            parallelism: None,
            enum_config: EnumConfig::default(),
        }
    }
}

/// Errors surfaced by [`Session`] methods.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SessionError {
    /// Running on the simulator failed.
    Harness(HarnessError),
    /// Enumerating candidate executions failed.
    Enumeration(EnumError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Harness(e) => write!(f, "{e}"),
            SessionError::Enumeration(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<HarnessError> for SessionError {
    fn from(e: HarnessError) -> Self {
        SessionError::Harness(e)
    }
}

impl From<EnumError> for SessionError {
    fn from(e: EnumError) -> Self {
        SessionError::Enumeration(e)
    }
}

impl Session {
    /// A session with the default configuration.
    pub fn new() -> Self {
        Session::default()
    }

    /// Selects the chip profile.
    pub fn chip(mut self, chip: Chip) -> Self {
        self.chip = chip;
        self
    }

    /// Selects the incantation combination.
    pub fn incantations(mut self, inc: Incantations) -> Self {
        self.incantations = inc;
        self
    }

    /// Sets the iteration count.
    pub fn iterations(mut self, n: usize) -> Self {
        self.iterations = n;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins the worker-thread count (default: all available cores).
    /// Affects wall-clock time only — histograms are bit-identical for a
    /// fixed seed at any parallelism.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = Some(workers);
        self
    }

    /// The configured chip.
    pub fn chip_in_use(&self) -> Chip {
        self.chip
    }

    /// The harness configuration this session resolves to.
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            iterations: self.iterations,
            incantations: self.incantations,
            seed: self.seed,
            parallelism: self.parallelism,
        }
    }

    /// Runs `test` on the configured chip, histogramming outcomes.
    ///
    /// # Errors
    ///
    /// Propagates harness failures.
    pub fn run(&self, test: &LitmusTest) -> Result<TestReport, SessionError> {
        Ok(run_test(test, self.chip, &self.run_config())?)
    }

    /// Runs `test` on several chips (e.g. [`Chip::TABLED`]), producing one
    /// report per chip — a row of the paper's figures. A single-test
    /// campaign: cells share the worker pool, and results match per-chip
    /// [`Session::run`] calls exactly.
    ///
    /// # Errors
    ///
    /// Propagates harness failures.
    pub fn run_on_chips(
        &self,
        test: &LitmusTest,
        chips: &[Chip],
    ) -> Result<Vec<TestReport>, SessionError> {
        self.run_campaign(std::slice::from_ref(test), chips)
    }

    /// Runs the full `tests × chips` grid as one campaign over a shared
    /// worker pool, returning reports in test-major order (`tests[0]` on
    /// every chip, then `tests[1]`, …). Every cell uses this session's
    /// incantations, iteration count and seed, so each report is
    /// bit-identical to a standalone [`Session::run`] of that cell.
    ///
    /// # Errors
    ///
    /// Propagates harness failures.
    pub fn run_campaign(
        &self,
        tests: &[LitmusTest],
        chips: &[Chip],
    ) -> Result<Vec<TestReport>, SessionError> {
        let cfg = self.run_config();
        let cells: Vec<CellSpec> = tests
            .iter()
            .flat_map(|t| {
                chips
                    .iter()
                    .map(|&c| CellSpec::from_config(t.clone(), c, &cfg))
            })
            .collect();
        Ok(run_campaign(
            &cells,
            &CampaignConfig {
                parallelism: self.parallelism,
            },
        )?)
    }

    /// Enumerates `test`'s candidate executions under `model`.
    ///
    /// # Errors
    ///
    /// Propagates enumeration failures.
    pub fn model_check(
        &self,
        test: &LitmusTest,
        model: &dyn Model,
    ) -> Result<ModelOutcomes, SessionError> {
        Ok(model_outcomes(test, model, &self.enum_config)?)
    }

    /// Runs `test` and verifies every observation is allowed by the
    /// paper's PTX model.
    ///
    /// # Errors
    ///
    /// Propagates harness and enumeration failures, including
    /// [`HarnessError::OutOfDomain`] for an observation that no candidate
    /// execution of `test` has.
    pub fn check_soundness(&self, test: &LitmusTest) -> Result<SoundnessReport, SessionError> {
        self.check_soundness_against(test, &ptx_model())
    }

    /// Like [`Session::check_soundness`], against an arbitrary model.
    ///
    /// # Errors
    ///
    /// Propagates harness and enumeration failures.
    pub fn check_soundness_against(
        &self,
        test: &LitmusTest,
        model: &dyn Model,
    ) -> Result<SoundnessReport, SessionError> {
        let verdict = self.model_check(test, model)?;
        Ok(check_soundness(
            test,
            self.chip,
            &self.run_config(),
            &verdict,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakgpu_litmus::{corpus, ThreadScope};
    use weakgpu_models::operational_baseline;

    #[test]
    fn defaults_and_builders() {
        let s = Session::new()
            .chip(Chip::TeslaC2075)
            .iterations(42)
            .seed(1)
            .parallelism(3)
            .incantations(Incantations::none());
        assert_eq!(s.chip_in_use(), Chip::TeslaC2075);
        let cfg = s.run_config();
        assert_eq!(cfg.iterations, 42);
        assert_eq!(cfg.seed, 1);
        assert_eq!(cfg.parallelism, Some(3));
    }

    #[test]
    fn campaign_grid_matches_standalone_runs() {
        let s = Session::new().iterations(1_500);
        let tests = [corpus::mp(ThreadScope::InterCta, None), corpus::corr()];
        let chips = [Chip::GtxTitan, Chip::Gtx280];
        let grid = s.run_campaign(&tests, &chips).unwrap();
        assert_eq!(grid.len(), 4);
        let mut i = 0;
        for test in &tests {
            for &chip in &chips {
                let solo = run_test(test, chip, &s.run_config()).unwrap();
                assert_eq!(grid[i].histogram, solo.histogram, "{} on {chip}", solo.test);
                i += 1;
            }
        }
    }

    #[test]
    fn run_and_model_check() {
        let s = Session::new().iterations(3_000);
        let test = corpus::mp(ThreadScope::InterCta, None);
        let report = s.run(&test).unwrap();
        assert_eq!(report.histogram.total(), 3_000);
        let outcomes = s.model_check(&test, &ptx_model()).unwrap();
        assert!(outcomes.condition_witnessed);
    }

    #[test]
    fn run_on_chips_produces_rows() {
        let s = Session::new().iterations(1_000);
        let rows = s
            .run_on_chips(&corpus::corr(), &[Chip::Gtx280, Chip::GtxTitan])
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].witnesses, 0, "GTX 280 stays strong");
    }

    #[test]
    fn soundness_against_both_models() {
        use weakgpu_litmus::FenceScope;
        let s = Session::new()
            .iterations(150_000)
            .incantations(Incantations::best_inter_cta());
        let test = corpus::lb(ThreadScope::InterCta, Some(FenceScope::Cta));
        let ptx = s.check_soundness(&test).unwrap();
        assert!(ptx.is_sound());
        let op = s
            .check_soundness_against(&test, &operational_baseline())
            .unwrap();
        assert!(!op.is_sound(), "Sec. 6 witness");
    }
}
