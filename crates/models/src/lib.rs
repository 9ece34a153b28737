//! Memory consistency models for GPU litmus tests.
//!
//! The centrepiece is the paper's **PTX model** ([`ptx_model`]): SPARC RMO
//! restructured along the GPU scope hierarchy (paper Sec. 5, Figs. 15–16),
//! duplicating the RMO acyclicity constraint at the CTA, GPU (`gl`) and
//! system scopes. Alongside it:
//!
//! * [`sc_model`] — Lamport sequential consistency;
//! * [`tso_model`] — x86-TSO-style total store order;
//! * [`rmo_model`] — plain (unscoped) SPARC RMO;
//! * [`operational_baseline`] — an axiomatic rendering of the operational
//!   model of Sorensen et al., which the paper shows is **unsound**: it
//!   forbids the inter-CTA `lb+membar.ctas` behaviour that hardware
//!   exhibits (Sec. 6);
//! * [`native::NativePtxModel`] — the PTX model implemented directly
//!   against the relation algebra (no `.cat` interpretation), used to
//!   cross-check the interpreter.
//!
//! ```
//! use weakgpu_models::ptx_model;
//! use weakgpu_axiom::{model_outcomes, EnumConfig};
//! use weakgpu_litmus::corpus;
//!
//! // The PTX model allows coRR (read-read coherence violations) …
//! let out = model_outcomes(&corpus::corr(), &ptx_model(), &EnumConfig::default()).unwrap();
//! assert!(out.condition_witnessed);
//! ```

pub mod native;
pub mod sources;

use std::sync::{Arc, OnceLock};

use weakgpu_axiom::{CatModel, RmwAtomicity};

/// Builds (once) and shares a registry-backed model: the `.cat` source
/// is parsed and compiled into its evaluation plan on the first call in
/// the process; every later call — from any thread, worker or sweep —
/// clones the same [`Arc`].
macro_rules! registry_model {
    ($build:expr) => {{
        static MODEL: OnceLock<Arc<CatModel>> = OnceLock::new();
        Arc::clone(MODEL.get_or_init(|| Arc::new($build)))
    }};
}

/// The paper's PTX model: RMO per scope (Figs. 15 and 16), with
/// PTX-semantics RMW atomicity (atomics are only atomic against other
/// atomics, Sec. 3.2.3).
///
/// Parsed and compiled once per process; subsequent calls return the
/// shared [`Arc`] from the lazy registry.
pub fn ptx_model() -> Arc<CatModel> {
    registry_model!(CatModel::new("ptx-rmo-scoped", sources::PTX_CAT)
        .expect("embedded PTX model parses")
        .with_rmw_atomicity(RmwAtomicity::AmongAtomics))
}

/// Sequential consistency (Lamport): all communication and program order
/// embed into one total order.
pub fn sc_model() -> Arc<CatModel> {
    registry_model!(CatModel::new("sc", sources::SC_CAT)
        .expect("embedded SC model parses")
        .with_rmw_atomicity(RmwAtomicity::Full))
}

/// Total store order in the x86-TSO style: only write→read pairs may
/// reorder, and any `membar` restores them.
pub fn tso_model() -> Arc<CatModel> {
    registry_model!(CatModel::new("tso", sources::TSO_CAT)
        .expect("embedded TSO model parses")
        .with_rmw_atomicity(RmwAtomicity::Full))
}

/// Plain SPARC RMO (Fig. 15 alone, with every fence scope treated as a
/// full fence): the CPU model the paper's GPU model generalises.
pub fn rmo_model() -> Arc<CatModel> {
    registry_model!(CatModel::new("rmo", sources::RMO_CAT)
        .expect("embedded RMO model parses")
        .with_rmw_atomicity(RmwAtomicity::AmongAtomics))
}

/// The PTX model with the load-load hazard *removed* (read-read pairs
/// back in SC-per-location) — an unsound ablation variant showing the
/// hazard exclusion is forced by the `coRR` observations (Fig. 1).
pub fn ptx_model_without_llh() -> Arc<CatModel> {
    registry_model!(
        CatModel::new("ptx-no-llh (ablation)", sources::PTX_NO_LLH_CAT)
            .expect("embedded ablation model parses")
            .with_rmw_atomicity(RmwAtomicity::AmongAtomics)
    )
}

/// An axiomatic rendering of the operational GPU model of Sorensen et
/// al. (paper Sec. 6): like RMO, but fences order accesses for *all*
/// observers regardless of scope.
///
/// The paper shows this model is unsound w.r.t. hardware: it forbids
/// inter-CTA `lb+membar.ctas`, observed 586 times on GTX Titan.
pub fn operational_baseline() -> Arc<CatModel> {
    registry_model!(
        CatModel::new("operational-baseline", sources::OPERATIONAL_CAT)
            .expect("embedded operational model parses")
            .with_rmw_atomicity(RmwAtomicity::AmongAtomics)
    )
}

/// The model names [`by_name`] accepts: the vocabulary of `weakgpu check
/// --model`, `weakgpu serve --model` and a serve request's `model` field.
pub const NAMES: [&str; 6] = ["ptx", "ptx-no-llh", "sc", "tso", "rmo", "operational"];

/// The registry model called `name`, one of [`NAMES`].
///
/// # Errors
///
/// Names the unknown model and every accepted name.
pub fn by_name(name: &str) -> Result<Arc<CatModel>, String> {
    Ok(match name {
        "ptx" => ptx_model(),
        "ptx-no-llh" => ptx_model_without_llh(),
        "sc" => sc_model(),
        "tso" => tso_model(),
        "rmo" => rmo_model(),
        "operational" => operational_baseline(),
        other => {
            return Err(format!(
                "unknown model {other:?} (expected one of {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// Every registry model, for sweeps.
pub fn all_models() -> Vec<Arc<CatModel>> {
    vec![
        ptx_model(),
        sc_model(),
        tso_model(),
        rmo_model(),
        operational_baseline(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakgpu_axiom::{model_outcomes, EnumConfig, Model};
    use weakgpu_litmus::{corpus, FenceScope, LitmusTest, ThreadScope};

    fn witnessed(test: &LitmusTest, model: &dyn Model) -> bool {
        model_outcomes(test, model, &EnumConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", test.name()))
            .condition_witnessed
    }

    // ---------------------------------------------------------- PTX model

    #[test]
    fn ptx_allows_corr() {
        assert!(witnessed(&corpus::corr(), &ptx_model()));
    }

    #[test]
    fn ptx_forbids_corr_with_gl_fence() {
        // With `.cg` loads, a gl fence between the reads closes the
        // rmo-gl cycle (W →rfe r1 →fence r2 →fr W), so the model forbids
        // fenced coRR. (The paper's Fig. 4 hardware counterexample uses an
        // `.ca` second load, which the model deliberately excludes —
        // Sec. 5.5.)
        assert!(!witnessed(
            &corpus::corr_fenced(FenceScope::Gl),
            &ptx_model()
        ));
        // Unfenced coRR stays allowed — the load-load hazard.
        assert!(witnessed(&corpus::corr(), &ptx_model()));
    }

    #[test]
    fn ptx_allows_unfenced_idioms() {
        let m = ptx_model();
        for test in [
            corpus::mp(ThreadScope::InterCta, None),
            corpus::mp(ThreadScope::IntraCta, None),
            corpus::sb(ThreadScope::InterCta, None),
            corpus::lb(ThreadScope::InterCta, None),
            corpus::dlb_mp(false),
            corpus::dlb_lb(false),
            corpus::cas_sl(false),
            corpus::exch_sl(false),
            corpus::sl_future(false),
        ] {
            assert!(witnessed(&test, &m), "PTX model must allow {}", test.name());
        }
    }

    #[test]
    fn ptx_forbids_gl_fenced_idioms() {
        let m = ptx_model();
        for test in [
            corpus::mp(ThreadScope::InterCta, Some(FenceScope::Gl)),
            corpus::mp(ThreadScope::InterCta, Some(FenceScope::Sys)),
            corpus::sb(ThreadScope::InterCta, Some(FenceScope::Gl)),
            corpus::lb(ThreadScope::InterCta, Some(FenceScope::Gl)),
            corpus::dlb_mp(true),
            corpus::dlb_lb(true),
            corpus::cas_sl(true),
            corpus::exch_sl(true),
            corpus::sl_future(true),
        ] {
            assert!(
                !witnessed(&test, &m),
                "PTX model must forbid {}",
                test.name()
            );
        }
    }

    #[test]
    fn ptx_scope_sensitivity_of_cta_fences() {
        let m = ptx_model();
        // membar.cta suffices within a CTA …
        assert!(!witnessed(
            &corpus::mp(ThreadScope::IntraCta, Some(FenceScope::Cta)),
            &m
        ));
        // … but not across CTAs (the paper's hardware shows mp with cta
        // fences on Titan, 1696/100k; the model must allow it).
        assert!(witnessed(
            &corpus::mp(ThreadScope::InterCta, Some(FenceScope::Cta)),
            &m
        ));
    }

    #[test]
    fn ptx_allows_inter_cta_lb_with_cta_fences() {
        // The Sec. 6 distinguishing test: observed on hardware, must be
        // allowed by the paper's model.
        let test = corpus::lb(ThreadScope::InterCta, Some(FenceScope::Cta));
        assert!(witnessed(&test, &ptx_model()));
    }

    #[test]
    fn ptx_fence_plus_dependency_fixes_mp() {
        let m = ptx_model();
        assert!(!witnessed(
            &corpus::mp_dep(ThreadScope::InterCta, FenceScope::Gl),
            &m
        ));
        // A cta-scoped fence with the dependency still leaks across CTAs.
        assert!(witnessed(
            &corpus::mp_dep(ThreadScope::InterCta, FenceScope::Cta),
            &m
        ));
    }

    // ------------------------------------------------------- baselines

    #[test]
    fn sc_forbids_everything_weak() {
        let m = sc_model();
        for test in [
            corpus::corr(),
            corpus::mp(ThreadScope::InterCta, None),
            corpus::sb(ThreadScope::InterCta, None),
            corpus::lb(ThreadScope::InterCta, None),
            corpus::cas_sl(false),
            corpus::sl_future(false),
        ] {
            assert!(!witnessed(&test, &m), "SC must forbid {}", test.name());
        }
    }

    #[test]
    fn tso_allows_only_store_buffering() {
        let m = tso_model();
        assert!(witnessed(&corpus::sb(ThreadScope::InterCta, None), &m));
        assert!(!witnessed(&corpus::mp(ThreadScope::InterCta, None), &m));
        assert!(!witnessed(&corpus::lb(ThreadScope::InterCta, None), &m));
        assert!(!witnessed(&corpus::corr(), &m));
        // Fences restore sb under TSO.
        assert!(!witnessed(
            &corpus::sb(ThreadScope::InterCta, Some(FenceScope::Cta)),
            &m
        ));
    }

    #[test]
    fn rmo_ignores_scopes() {
        let m = rmo_model();
        // Plain RMO: any fence forbids mp, even cta-scoped inter-CTA —
        // exactly the scope-blindness the paper's model fixes.
        assert!(!witnessed(
            &corpus::mp(ThreadScope::InterCta, Some(FenceScope::Cta)),
            &m
        ));
        assert!(witnessed(&corpus::mp(ThreadScope::InterCta, None), &m));
        assert!(witnessed(&corpus::corr(), &m));
    }

    #[test]
    fn llh_ablation_forbids_corr_but_matches_elsewhere() {
        let ablated = ptx_model_without_llh();
        // Without the load-load hazard, coRR is forbidden …
        assert!(!witnessed(&corpus::corr(), &ablated));
        // … while everything not involving same-location read pairs keeps
        // the full model's verdicts.
        assert_eq!(
            witnessed(&corpus::mp(ThreadScope::InterCta, None), &ablated),
            witnessed(&corpus::mp(ThreadScope::InterCta, None), &ptx_model())
        );
        assert_eq!(
            witnessed(
                &corpus::lb(ThreadScope::InterCta, Some(FenceScope::Cta)),
                &ablated
            ),
            witnessed(
                &corpus::lb(ThreadScope::InterCta, Some(FenceScope::Cta)),
                &ptx_model()
            )
        );
    }

    #[test]
    fn operational_baseline_is_stronger_than_ptx_on_lb_ctas() {
        // The unsoundness witness of Sec. 6.
        let test = corpus::lb(ThreadScope::InterCta, Some(FenceScope::Cta));
        assert!(witnessed(&test, &ptx_model()));
        assert!(!witnessed(&test, &operational_baseline()));
    }

    #[test]
    fn all_models_ship_precompiled_plans() {
        // Every shipped model compiles its `.cat` source into an
        // evaluation plan at construction; the plan's instruction stream
        // is non-trivial (CSE notwithstanding) and reads only base
        // relations the execution layer defines.
        use std::collections::BTreeSet;
        let known: BTreeSet<&str> = [
            "po",
            "po-loc",
            "addr",
            "data",
            "ctrl",
            "rmw",
            "rf",
            "rfe",
            "rfi",
            "co",
            "coe",
            "coi",
            "fr",
            "fre",
            "fri",
            "ext",
            "int",
            "loc",
            "id",
            "membar.cta",
            "membar.gl",
            "membar.sys",
            "cta",
            "gl",
            "sys",
        ]
        .into_iter()
        .collect();
        for m in all_models() {
            let plan = m.plan();
            assert!(plan.num_ops() > 0, "{} has an empty plan", Model::name(&m));
            for base in plan.base_names() {
                assert!(
                    known.contains(base),
                    "{} reads unknown base {base:?}",
                    Model::name(&m)
                );
            }
        }
    }

    #[test]
    fn all_models_allow_sc_outcomes() {
        // Sanity: every model allows the trivially sequential outcome of mp
        // (r1=1, r2=1).
        let test = corpus::mp(ThreadScope::InterCta, None);
        for m in all_models() {
            let out = model_outcomes(&test, &m, &EnumConfig::default()).unwrap();
            assert!(out.num_allowed > 0, "{} allows nothing", Model::name(&m));
            let strong: Vec<_> = out
                .allowed_outcomes
                .iter()
                .filter(|o| o.iter().all(|(_, v)| v == 1))
                .collect();
            assert!(
                !strong.is_empty(),
                "{} forbids the SC outcome",
                Model::name(&m)
            );
        }
    }

    #[test]
    fn model_strength_ordering_on_corpus() {
        // SC ⊆ TSO ⊆ RMO ⊆ PTX in terms of allowed outcomes, on the
        // two-thread corpus idioms.
        let cfg = EnumConfig::default();
        for test in [
            corpus::corr(),
            corpus::mp(ThreadScope::InterCta, None),
            corpus::sb(ThreadScope::InterCta, None),
            corpus::lb(ThreadScope::InterCta, None),
        ] {
            let sc = model_outcomes(&test, &sc_model(), &cfg).unwrap();
            let tso = model_outcomes(&test, &tso_model(), &cfg).unwrap();
            let rmo = model_outcomes(&test, &rmo_model(), &cfg).unwrap();
            let ptx = model_outcomes(&test, &ptx_model(), &cfg).unwrap();
            assert!(
                sc.allowed_outcomes.is_subset(&tso.allowed_outcomes),
                "SC ⊄ TSO on {}",
                test.name()
            );
            assert!(
                tso.allowed_outcomes.is_subset(&rmo.allowed_outcomes),
                "TSO ⊄ RMO on {}",
                test.name()
            );
            assert!(
                rmo.allowed_outcomes.is_subset(&ptx.allowed_outcomes),
                "RMO ⊄ PTX on {}",
                test.name()
            );
        }
    }
}
