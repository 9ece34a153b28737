//! The [`Model`] trait and the `.cat`-backed [`CatModel`] implementation.
//!
//! Concrete models (the paper's PTX model, SC, TSO, RMO, the operational
//! baseline) live in the `weakgpu-models` crate; this module provides the
//! machinery plus a minimal [`sc_model`] used in documentation and tests.
//!
//! A [`CatModel`] judges each candidate form with its own evaluator. A
//! streamed [`ExecutionView`] (the form every verdict in the pipeline
//! judges) goes through the [`Plan`] compiled at construction,
//! allocation-free when callers thread a shared [`EvalContext`] via
//! [`Model::allows_view`]. An owned [`Execution`] (the materialising
//! test oracles, [`crate::render::explain_verdict`]) goes through the
//! tree-walking interpreter ([`CatProgram::check`]) over
//! [`Execution::base_relations`]. The two share no evaluation code, so
//! each is the other's differential oracle.

use crate::cat::{CatError, CatProgram, CheckOutcome};
use crate::exec::Execution;
pub use crate::exec::RmwAtomicity;
use crate::plan::{EvalContext, Plan};
use crate::skeleton::ExecutionView;

/// A memory consistency model: a predicate on candidate executions
/// (paper Sec. 5.2).
pub trait Model {
    /// Human-readable model name.
    fn name(&self) -> &str;

    /// `true` iff the model allows this execution.
    fn allows(&self, exec: &Execution) -> bool;

    /// The verdict on a streamed skeleton/overlay candidate
    /// ([`ExecutionView`]), the form the streaming enumerator hands out.
    /// The default materialises an owned [`Execution`] and defers to
    /// [`Model::allows`] — correct for any model; plan-backed models
    /// override it to evaluate the view directly, reusing `ctx`'s arena
    /// and refilling only rf/co-derived base relations per candidate.
    fn allows_view(&self, ctx: &mut EvalContext, view: &ExecutionView<'_>) -> bool {
        let _ = ctx;
        self.allows(&view.to_execution())
    }
}

/// Models pass through [`std::sync::Arc`], so registry-shared models
/// (`weakgpu-models`' lazy statics) can be used anywhere a model is
/// expected, including as `&dyn Model`.
impl<M: Model + ?Sized> Model for std::sync::Arc<M> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn allows(&self, exec: &Execution) -> bool {
        (**self).allows(exec)
    }

    fn allows_view(&self, ctx: &mut EvalContext, view: &ExecutionView<'_>) -> bool {
        (**self).allows_view(ctx, view)
    }
}

/// A model defined by a `.cat` program plus an RMW-atomicity mode.
///
/// ```
/// use weakgpu_axiom::{CatModel, RmwAtomicity};
///
/// let sc = CatModel::new("sc", "acyclic (po | rf | co | fr) as sc")
///     .unwrap()
///     .with_rmw_atomicity(RmwAtomicity::Full);
/// assert_eq!(weakgpu_axiom::Model::name(&sc), "sc");
/// ```
#[derive(Clone, Debug)]
pub struct CatModel {
    name: String,
    program: CatProgram,
    plan: Plan,
    rmw: RmwAtomicity,
}

impl CatModel {
    /// Parses `src` as a `.cat` program, compiles it into an evaluation
    /// [`Plan`], and wraps both as a model with
    /// [`RmwAtomicity::AmongAtomics`] (the PTX default).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`CatError`] if `src` does not parse or
    /// does not compile (e.g. applies a relation as a function).
    pub fn new(name: impl Into<String>, src: &str) -> Result<Self, CatError> {
        let program = CatProgram::parse(src)?;
        let plan = Plan::compile(&program)?;
        Ok(CatModel {
            name: name.into(),
            program,
            plan,
            rmw: RmwAtomicity::AmongAtomics,
        })
    }

    /// Sets the RMW-atomicity mode.
    pub fn with_rmw_atomicity(mut self, rmw: RmwAtomicity) -> Self {
        self.rmw = rmw;
        self
    }

    /// The underlying program.
    pub fn program(&self) -> &CatProgram {
        &self.program
    }

    /// The compiled evaluation plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The RMW-atomicity mode.
    pub fn rmw_atomicity(&self) -> RmwAtomicity {
        self.rmw
    }

    /// Evaluates all named checks on `exec` (without the RMW side
    /// condition) through the tree-walking interpreter — the
    /// full-outcome mode used by `render`/diagnostics.
    ///
    /// # Errors
    ///
    /// Returns a [`CatError`] if the program references unbound relations.
    pub fn check(&self, exec: &Execution) -> Result<Vec<CheckOutcome>, CatError> {
        self.program
            .check(&exec.base_relations(), &exec.read_set(), &exec.write_set())
    }

    /// The streamed verdict: the RMW side condition evaluated against
    /// the overlay's coherence orders, then the compiled plan over the
    /// view — skeleton-derived relations and registers are reused across
    /// all of a skeleton's candidates.
    ///
    /// # Panics
    ///
    /// Panics if the `.cat` program references relations the execution
    /// layer does not define — a defect in the model source.
    pub fn allows_view(&self, ctx: &mut EvalContext, view: &ExecutionView<'_>) -> bool {
        if !view.rmw_atomicity_holds(self.rmw) {
            return false;
        }
        self.plan
            .allows_view(ctx, view)
            .unwrap_or_else(|e| panic!("model {:?} failed to evaluate: {e}", self.name))
    }
}

impl Model for CatModel {
    fn name(&self) -> &str {
        &self.name
    }

    /// The RMW side condition plus the tree-walking interpreter
    /// ([`CatProgram::allows`]) over [`Execution::base_relations`].
    ///
    /// # Panics
    ///
    /// Panics if the `.cat` program references relations that are not in
    /// the base environment — a defect in the model source, not in the
    /// execution under test.
    fn allows(&self, exec: &Execution) -> bool {
        exec.rmw_atomicity_holds(self.rmw)
            && self
                .program
                .allows(&exec.base_relations(), &exec.read_set(), &exec.write_set())
                .unwrap_or_else(|e| panic!("model {:?} failed to evaluate: {e}", self.name))
    }

    fn allows_view(&self, ctx: &mut EvalContext, view: &ExecutionView<'_>) -> bool {
        CatModel::allows_view(self, ctx, view)
    }
}

/// A plain sequential-consistency model: `acyclic (po | rf | co | fr)`,
/// with full RMW atomicity.
pub fn sc_model() -> CatModel {
    CatModel::new("SC", "let com = rf | co | fr\nacyclic (po | com) as sc")
        .expect("embedded model parses")
        .with_rmw_atomicity(RmwAtomicity::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate_executions, model_outcomes, EnumConfig};
    use weakgpu_litmus::{corpus, ThreadScope};

    #[test]
    fn sc_forbids_all_weak_idioms() {
        let sc = sc_model();
        let cfg = EnumConfig::default();
        for test in [
            corpus::corr(),
            corpus::mp(ThreadScope::InterCta, None),
            corpus::sb(ThreadScope::InterCta, None),
            corpus::lb(ThreadScope::InterCta, None),
        ] {
            let out = model_outcomes(&test, &sc, &cfg).unwrap();
            assert!(
                !out.condition_witnessed,
                "SC must forbid the weak outcome of {}",
                test.name()
            );
            assert!(
                out.num_allowed > 0,
                "SC allows some execution of {}",
                test.name()
            );
        }
    }

    #[test]
    fn sc_allows_the_mp_strong_outcomes() {
        let sc = sc_model();
        let test = corpus::mp(ThreadScope::InterCta, None);
        let out = model_outcomes(&test, &sc, &EnumConfig::default()).unwrap();
        // r1=1 ∧ r2=1, r1=0 outcomes are all SC; only r1=1 ∧ r2=0 is weak.
        assert_eq!(out.allowed_outcomes.len(), 3);
        assert_eq!(out.all_outcomes.len(), 4);
    }

    #[test]
    fn cat_model_counts_candidate_verdicts() {
        let sc = sc_model();
        let test = corpus::corr();
        let cands = enumerate_executions(&test, &EnumConfig::default()).unwrap();
        let allowed = cands.iter().filter(|c| sc.allows(&c.execution)).count();
        assert!(allowed > 0 && allowed < cands.len());
    }

    #[test]
    fn check_reports_named_outcomes() {
        let sc = sc_model();
        let test = corpus::corr();
        let cands = enumerate_executions(&test, &EnumConfig::default()).unwrap();
        let outcomes = sc.check(&cands[0].execution).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].name, "sc");
    }

    #[test]
    fn rmw_atomicity_mode_matters() {
        // dlb-lb uses CASes; under None vs Full the allowed sets differ in
        // general. This is a smoke test that the mode is plumbed through.
        let relaxed = CatModel::new("r", "acyclic rf & 0 as trivial")
            .unwrap()
            .with_rmw_atomicity(RmwAtomicity::None);
        let strict = CatModel::new("s", "acyclic rf & 0 as trivial")
            .unwrap()
            .with_rmw_atomicity(RmwAtomicity::Full);
        let test = corpus::dlb_lb(false);
        let out_relaxed = model_outcomes(&test, &relaxed, &EnumConfig::default()).unwrap();
        let out_strict = model_outcomes(&test, &strict, &EnumConfig::default()).unwrap();
        assert!(out_relaxed.num_allowed >= out_strict.num_allowed);
        assert!(out_strict.num_allowed > 0);
    }
}
