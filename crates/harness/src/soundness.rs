//! Soundness checks: are all hardware(-simulator) observations allowed
//! by a memory model? (Paper Sec. 5.4: "whenever the hardware exhibits a
//! behaviour, our model allows it".)
//!
//! A cell's observations are judged on observation vectors against a
//! verdict, by the one function the sweep uses too. Each distinct
//! observation is allowed; forbidden, the outcome of some candidate
//! execution the model rejects (a model finding, listed in
//! [`SoundnessReport::violations`]); or outside the domain, the outcome
//! of no candidate execution. The verdict holds every candidate's
//! outcome, so the last is a simulator, enumerator or cache fault, and
//! fails the cell with [`HarnessError::OutOfDomain`].

use weakgpu_axiom::enumerate::ModelOutcomes;
use weakgpu_litmus::{LitmusTest, Outcome};
use weakgpu_sim::chip::Chip;

use crate::campaign::{run_cells, CampaignConfig, CellSpec};
use crate::runner::{HarnessError, RunConfig};

/// The verdict of one soundness check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SoundnessReport {
    /// Test name.
    pub test: String,
    /// Observed outcomes that the model forbids, in canonical order
    /// (empty = sound).
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

/// Runs `test` on `chip` as configured by `cfg`, the same runs
/// [`run_test`](crate::runner::run_test) makes, and checks every
/// observation against `verdict`, the test's verdict under some model.
///
/// # Errors
///
/// A compile or run error of the cell, or
/// [`HarnessError::OutOfDomain`] when the cell observed an outcome that
/// no candidate execution in `verdict` has.
pub fn check_soundness(
    test: &LitmusTest,
    chip: Chip,
    cfg: &RunConfig,
    verdict: &ModelOutcomes,
) -> Result<SoundnessReport, HarnessError> {
    let spec = CellSpec::from_config(test.clone(), chip, cfg);
    let workers = run_cells(
        1,
        |_| spec.cell(),
        &CampaignConfig {
            parallelism: cfg.parallelism,
        },
        || None,
        |report: &mut Option<SoundnessReport>, _, done| {
            let (_, violations) = done.judge(Some(verdict))?;
            *report = Some(SoundnessReport {
                test: test.name().to_owned(),
                violations,
                observed: done.counts.distinct(),
                allowed: verdict.allowed_outcomes.len(),
            });
            Ok::<_, HarnessError>(())
        },
    )?;
    Ok(workers
        .into_iter()
        .flatten()
        .next()
        .expect("the one cell completed"))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::campaign::CellCounts;
    use crate::runner::run_test;
    use weakgpu_axiom::enumerate::{model_outcomes, EnumConfig};
    use weakgpu_axiom::model::{sc_model, Model};
    use weakgpu_litmus::{corpus, ThreadScope};
    use weakgpu_models::{operational_baseline, ptx_model};
    use weakgpu_sim::chip::Incantations;
    use weakgpu_sim::machine::{ObsCounts, Simulator};
    use weakgpu_sim::program::SimProgram;

    fn verdict(test: &LitmusTest, model: &dyn Model) -> ModelOutcomes {
        model_outcomes(test, model, &EnumConfig::default()).unwrap()
    }

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
            let sound =
                check_soundness(&test, Chip::GtxTitan, &cfg, &verdict(&test, &model)).unwrap();
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
        let op = verdict(&test, &operational_baseline());
        let sound = check_soundness(&test, Chip::GtxTitan, &cfg, &op).unwrap();
        assert!(
            sound.violations.iter().any(|o| test.cond().witnessed_by(o)),
            "the leak must manifest at 200k runs, and the operational model forbid it"
        );
        // And the paper's model covers the same observations.
        let ptx =
            check_soundness(&test, Chip::GtxTitan, &cfg, &verdict(&test, &ptx_model())).unwrap();
        assert!(ptx.is_sound());
    }

    #[test]
    fn soundness_report_matches_the_exhaustive_oracle() {
        let cfg = RunConfig {
            iterations: 10_000,
            incantations: Incantations::best_inter_cta(),
            ..RunConfig::default()
        };
        for model in [ptx_model(), operational_baseline()] {
            for test in [
                corpus::corr(),
                corpus::mp(ThreadScope::InterCta, None),
                corpus::dlb_lb(false),
            ] {
                let oracle = verdict(&test, &model);
                let sound = check_soundness(&test, Chip::GtxTitan, &cfg, &oracle).unwrap();
                // The named oracle: the histogram's outcomes the verdict
                // does not allow, compared by name.
                let report = run_test(&test, Chip::GtxTitan, &cfg).unwrap();
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
        // Hand-made counts for coRR, judged against SC, which forbids
        // reading the new value before the old one.
        let test = corpus::corr();
        let sc = verdict(&test, &sc_model());
        let program = Arc::new(SimProgram::compile(&test).unwrap());
        let sim = Simulator::from_program(program, Chip::GtxTitan);
        let judge = |obs: &[i64]| {
            let mut counts = ObsCounts::new();
            counts.record(obs);
            CellCounts {
                test: &test,
                sim: &sim,
                counts: &counts,
            }
            .judge(Some(&sc))
        };
        // r1 = r2 = 7 is an outcome of no candidate execution: a tool
        // fault, whatever the model.
        let expect = HarnessError::OutOfDomain {
            test: test.name().to_owned(),
            chip: Chip::GtxTitan,
            outcome: sim.program().layout.outcome(&[7, 7]),
        };
        assert_eq!(judge(&[7, 7]), Err(expect));
        // An outcome of some candidate that SC rejects is a violation.
        let forbidden: Vec<&Outcome> = sc.all_outcomes.difference(&sc.allowed_outcomes).collect();
        assert_eq!(forbidden.len(), 1, "coRR's one SC-forbidden outcome");
        let obs: Vec<i64> = forbidden[0].iter().map(|(_, v)| v).collect();
        assert_eq!(judge(&obs), Ok((1, vec![forbidden[0].clone()])));
    }
}
