//! Soundness comparison: are all hardware(-simulator) observations allowed
//! by a memory model? (Paper Sec. 5.4: "whenever the hardware exhibits a
//! behaviour, our model allows it".)

use weakgpu_axiom::enumerate::{model_outcomes, EnumConfig, EnumError};
use weakgpu_axiom::model::Model;
use weakgpu_litmus::{LitmusTest, Outcome};

use crate::histogram::Histogram;

/// The verdict of one soundness check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SoundnessReport {
    /// Test name.
    pub test: String,
    /// Model name.
    pub model: String,
    /// Observed outcomes that the model forbids (empty = sound).
    pub violations: Vec<Outcome>,
    /// Number of distinct outcomes observed.
    pub observed: usize,
    /// Number of distinct outcomes the model allows.
    pub allowed: usize,
}

impl SoundnessReport {
    /// `true` iff every observation is model-allowed.
    pub fn is_sound(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks that every outcome in `observations` is allowed by `model`.
///
/// # Errors
///
/// Propagates enumeration failures from the axiomatic engine.
pub fn check_soundness(
    test: &LitmusTest,
    observations: &Histogram,
    model: &dyn Model,
    cfg: &EnumConfig,
) -> Result<SoundnessReport, EnumError> {
    let verdict = model_outcomes(test, model, cfg)?;
    let violations: Vec<Outcome> = observations.forbidden_by(&verdict).cloned().collect();
    Ok(SoundnessReport {
        test: test.name().to_owned(),
        model: model.name().to_owned(),
        violations,
        observed: observations.distinct(),
        allowed: verdict.allowed_outcomes.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_test, RunConfig};
    use weakgpu_litmus::{corpus, FinalExpr, ThreadScope};
    use weakgpu_models::{operational_baseline, ptx_model};
    use weakgpu_sim::chip::{Chip, Incantations};

    #[test]
    fn titan_observations_are_ptx_sound() {
        let cfg = RunConfig {
            iterations: 20_000,
            incantations: Incantations::best_inter_cta(),
            ..RunConfig::default()
        };
        let model = ptx_model();
        for test in [
            corpus::corr(),
            corpus::mp(ThreadScope::InterCta, None),
            corpus::sb(ThreadScope::InterCta, None),
            corpus::lb(ThreadScope::InterCta, None),
            corpus::cas_sl(false),
            corpus::cas_sl(true),
            corpus::sl_future(false),
            corpus::dlb_lb(false),
        ] {
            let report = run_test(&test, Chip::GtxTitan, &cfg).unwrap();
            let sound =
                check_soundness(&test, &report.histogram, &model, &Default::default()).unwrap();
            assert!(
                sound.is_sound(),
                "{}: observed forbidden outcomes {:?}",
                test.name(),
                sound.violations
            );
        }
    }

    #[test]
    fn operational_baseline_unsound_on_lb_ctas() {
        use weakgpu_litmus::FenceScope;
        // Sec. 6: inter-CTA lb+membar.ctas is observed on Kepler but
        // forbidden by the operational baseline — the soundness check must
        // flag it.
        let test = corpus::lb(ThreadScope::InterCta, Some(FenceScope::Cta));
        let cfg = RunConfig {
            iterations: 200_000,
            incantations: Incantations::best_inter_cta(),
            seed: 0xcafe,
            ..RunConfig::default()
        };
        let report = run_test(&test, Chip::GtxTitan, &cfg).unwrap();
        assert!(report.witnesses > 0, "the leak must manifest at 200k runs");
        let sound = check_soundness(
            &test,
            &report.histogram,
            &operational_baseline(),
            &Default::default(),
        )
        .unwrap();
        assert!(!sound.is_sound(), "operational model must be unsound here");
        // And the paper's model covers the same observations.
        let ptx =
            check_soundness(&test, &report.histogram, &ptx_model(), &Default::default()).unwrap();
        assert!(ptx.is_sound());
    }

    #[test]
    fn soundness_report_matches_the_exhaustive_oracle() {
        let cfg = RunConfig {
            iterations: 10_000,
            incantations: Incantations::best_inter_cta(),
            ..RunConfig::default()
        };
        let enum_cfg = EnumConfig::default();
        for model in [ptx_model(), operational_baseline()] {
            for test in [
                corpus::corr(),
                corpus::mp(ThreadScope::InterCta, None),
                corpus::dlb_lb(false),
            ] {
                let report = run_test(&test, Chip::GtxTitan, &cfg).unwrap();
                let sound = check_soundness(&test, &report.histogram, &model, &enum_cfg).unwrap();
                let oracle = model_outcomes(&test, &model, &enum_cfg).unwrap();
                let violations: Vec<Outcome> = report
                    .histogram
                    .outcomes()
                    .filter(|o| !oracle.allowed_outcomes.contains(*o))
                    .cloned()
                    .collect();
                assert_eq!(sound.violations, violations, "{}", test.name());
                assert_eq!(
                    sound.allowed,
                    oracle.allowed_outcomes.len(),
                    "{}",
                    test.name()
                );
            }
        }
    }

    #[test]
    fn fabricated_violation_detected() {
        // An impossible outcome (r1=7) must be flagged by any model.
        let test = corpus::corr();
        let mut h = Histogram::new();
        let mut o = Outcome::new();
        o.set(FinalExpr::reg(1, "r1"), 7);
        o.set(FinalExpr::reg(1, "r2"), 7);
        h.record(o);
        let sound = check_soundness(&test, &h, &ptx_model(), &Default::default()).unwrap();
        assert!(!sound.is_sound());
        assert_eq!(sound.violations.len(), 1);
    }
}
