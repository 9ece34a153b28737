//! A native implementation of the paper's PTX model, built directly on the
//! relation algebra instead of interpreting `.cat` source.
//!
//! It exists for cross-validation: tests assert it agrees with the `.cat`
//! interpretation on every candidate execution of the corpus, guarding
//! both the interpreter and the transliteration of Figs. 15–16.

use weakgpu_axiom::relation::Relation;
use weakgpu_axiom::{Execution, Model, RmwAtomicity};
use weakgpu_litmus::FenceScope;

/// The PTX model of Figs. 15–16, hard-coded.
#[derive(Clone, Copy, Debug, Default)]
pub struct NativePtxModel;

impl NativePtxModel {
    /// Creates the model.
    pub fn new() -> Self {
        NativePtxModel
    }

    fn dp(exec: &Execution) -> Relation {
        exec.addr.union(&exec.data).union(&exec.ctrl)
    }

    fn rmo(exec: &Execution, fence: &Relation) -> Relation {
        let rf = exec.rf_rel();
        let ext = exec.ext();
        Self::dp(exec)
            .union(fence)
            .union(&rf.inter(&ext))
            .union(&exec.co_rel())
            .union(&exec.fr())
    }
}

impl Model for NativePtxModel {
    fn name(&self) -> &str {
        "ptx-rmo-scoped (native)"
    }

    fn allows(&self, exec: &Execution) -> bool {
        if !exec.rmw_atomicity_holds(RmwAtomicity::AmongAtomics) {
            return false;
        }
        let reads = exec.read_set();
        let writes = exec.write_set();
        let po_loc = exec.po_loc();
        let com = exec.rf_rel().union(&exec.co_rel()).union(&exec.fr());

        // sc-per-loc-llh: program order per location minus read-read pairs.
        let po_loc_llh = po_loc
            .restrict(&writes, &writes)
            .union(&po_loc.restrict(&writes, &reads))
            .union(&po_loc.restrict(&reads, &writes));
        if !po_loc_llh.union(&com).is_acyclic() {
            return false;
        }

        // no-thin-air.
        if !Self::dp(exec).union(&exec.rf_rel()).is_acyclic() {
            return false;
        }

        // RMO per scope.
        let sys_fence = exec.fence_rel(FenceScope::Sys);
        let gl_fence = exec.fence_rel(FenceScope::Gl).union(&sys_fence);
        let cta_fence = exec.fence_rel(FenceScope::Cta).union(&gl_fence);

        let rmo_cta = Self::rmo(exec, &cta_fence).inter(&exec.scope_cta());
        let rmo_gl = Self::rmo(exec, &gl_fence).inter(&exec.scope_gl());
        let rmo_sys = Self::rmo(exec, &sys_fence).inter(&exec.scope_sys());
        rmo_cta.is_acyclic() && rmo_gl.is_acyclic() && rmo_sys.is_acyclic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptx_model;
    use weakgpu_axiom::enumerate::enumerate_executions;
    use weakgpu_axiom::EnumConfig;
    use weakgpu_litmus::{corpus, FenceScope as FS, ThreadScope};

    #[test]
    fn native_agrees_with_cat_on_whole_corpus() {
        let cat = ptx_model();
        let native = NativePtxModel::new();
        let cfg = EnumConfig::default();
        for test in corpus::all() {
            let cands = enumerate_executions(&test, &cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", test.name()));
            for (i, c) in cands.iter().enumerate() {
                assert_eq!(
                    cat.allows(&c.execution),
                    native.allows(&c.execution),
                    "{}: divergence on candidate {i} ({})",
                    test.name(),
                    c.outcome
                );
            }
        }
    }

    #[test]
    fn native_verdicts_on_key_tests() {
        use weakgpu_axiom::model_outcomes;
        let m = NativePtxModel::new();
        let cfg = EnumConfig::default();
        assert!(
            model_outcomes(&corpus::corr(), &m, &cfg)
                .unwrap()
                .condition_witnessed
        );
        assert!(
            !model_outcomes(&corpus::mp(ThreadScope::InterCta, Some(FS::Gl)), &m, &cfg)
                .unwrap()
                .condition_witnessed
        );
        assert!(
            model_outcomes(&corpus::lb(ThreadScope::InterCta, Some(FS::Cta)), &m, &cfg)
                .unwrap()
                .condition_witnessed
        );
    }
}
