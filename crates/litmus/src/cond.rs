//! Final conditions and outcomes.
//!
//! A litmus test ends with a quantified assertion over the final state of
//! registers and memory, e.g. `exists (0:r2=0 /\ 1:r2=0)` (paper Fig. 12,
//! line 12). Running a test produces an [`Outcome`] — the observed values of
//! the inspected registers/locations — and the harness counts how often the
//! condition's body holds. An [`ObsLayout`] is the one compiled form of a
//! condition: the simulator, the axiomatic judge and the harness record
//! and judge observations as vectors in its order.

use std::fmt;

use crate::instr::Reg;
use crate::value::Loc;

/// Something inspected by a final condition: a thread's register or a
/// memory location.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FinalExpr {
    /// `t:r` — register `r` of thread `t` after the test.
    Reg(usize, Reg),
    /// `x` — the final value of memory location `x`.
    Mem(Loc),
}

impl FinalExpr {
    /// Convenience constructor for `t:r`.
    pub fn reg(tid: usize, r: impl Into<Reg>) -> Self {
        FinalExpr::Reg(tid, r.into())
    }

    /// Convenience constructor for a memory location.
    pub fn mem(loc: impl Into<Loc>) -> Self {
        FinalExpr::Mem(loc.into())
    }
}

impl fmt::Display for FinalExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FinalExpr::Reg(t, r) => write!(f, "{t}:{r}"),
            FinalExpr::Mem(l) => write!(f, "{l}"),
        }
    }
}

/// A boolean combination of equalities over final values.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Predicate {
    /// `expr = n`.
    Eq(FinalExpr, i64),
    /// `expr != n`.
    Ne(FinalExpr, i64),
    /// Conjunction, `/\`.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction, `\/`.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation, `not (…)`.
    Not(Box<Predicate>),
    /// The trivially true predicate.
    True,
}

impl Predicate {
    /// `t:r = n`.
    pub fn reg_eq(tid: usize, r: impl Into<Reg>, n: i64) -> Self {
        Predicate::Eq(FinalExpr::reg(tid, r), n)
    }

    /// `loc = n` (final memory value).
    pub fn mem_eq(loc: impl Into<Loc>, n: i64) -> Self {
        Predicate::Eq(FinalExpr::mem(loc), n)
    }

    /// `self /\ rhs`.
    pub fn and(self, rhs: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(rhs))
    }

    /// `self \/ rhs`.
    pub fn or(self, rhs: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(rhs))
    }

    /// `not (self)`.
    pub fn negate(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Conjunction of an iterator of predicates ([`Predicate::True`] when
    /// empty).
    pub fn all(preds: impl IntoIterator<Item = Predicate>) -> Self {
        preds
            .into_iter()
            .reduce(Predicate::and)
            .unwrap_or(Predicate::True)
    }

    /// Evaluates the predicate against an outcome.
    ///
    /// Inspected values missing from the outcome are treated as 0, the
    /// hardware's register/memory reset value — this matches the behaviour
    /// of the paper's harness for threads whose predicated instructions did
    /// not execute.
    pub fn eval(&self, outcome: &Outcome) -> bool {
        match self {
            Predicate::Eq(e, n) => outcome.get(e).unwrap_or(0) == *n,
            Predicate::Ne(e, n) => outcome.get(e).unwrap_or(0) != *n,
            Predicate::And(a, b) => a.eval(outcome) && b.eval(outcome),
            Predicate::Or(a, b) => a.eval(outcome) || b.eval(outcome),
            Predicate::Not(p) => !p.eval(outcome),
            Predicate::True => true,
        }
    }

    /// All [`FinalExpr`]s mentioned, in first-mention order without
    /// duplicates. These are the values a harness must record.
    pub fn exprs(&self) -> Vec<FinalExpr> {
        let mut out = Vec::new();
        self.exprs_into(&mut out);
        out
    }

    /// [`Predicate::exprs`] appended to `out` (skipping any expression
    /// `out` already holds), so a caller can reuse one buffer.
    pub fn exprs_into(&self, out: &mut Vec<FinalExpr>) {
        match self {
            Predicate::Eq(e, _) | Predicate::Ne(e, _) => {
                if !out.contains(e) {
                    out.push(e.clone());
                }
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.exprs_into(out);
                b.exprs_into(out);
            }
            Predicate::Not(p) => p.exprs_into(out),
            Predicate::True => {}
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Eq(e, n) => write!(f, "{e}={n}"),
            Predicate::Ne(e, n) => write!(f, "{e}!={n}"),
            Predicate::And(a, b) => write!(f, "{a} /\\ {b}"),
            Predicate::Or(a, b) => write!(f, "({a} \\/ {b})"),
            Predicate::Not(p) => write!(f, "not ({p})"),
            Predicate::True => write!(f, "true"),
        }
    }
}

/// The quantifier of a final condition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Quantifier {
    /// `exists` — the interesting (often weak) outcome is reachable.
    #[default]
    Exists,
    /// `~exists` — the outcome must never be observed.
    NotExists,
    /// `forall` — every execution satisfies the body.
    Forall,
}

impl fmt::Display for Quantifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Quantifier::Exists => write!(f, "exists"),
            Quantifier::NotExists => write!(f, "~exists"),
            Quantifier::Forall => write!(f, "forall"),
        }
    }
}

/// A quantified final condition.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FinalCond {
    /// The quantifier.
    pub quantifier: Quantifier,
    /// The body predicate.
    pub pred: Predicate,
}

impl FinalCond {
    /// `exists (pred)`, the common case.
    pub fn exists(pred: Predicate) -> Self {
        FinalCond {
            quantifier: Quantifier::Exists,
            pred,
        }
    }

    /// `~exists (pred)`.
    pub fn not_exists(pred: Predicate) -> Self {
        FinalCond {
            quantifier: Quantifier::NotExists,
            pred,
        }
    }

    /// `forall (pred)`.
    pub fn forall(pred: Predicate) -> Self {
        FinalCond {
            quantifier: Quantifier::Forall,
            pred,
        }
    }

    /// `true` if this outcome is a *witness* for the condition body
    /// (the outcome the paper's `obs` counts tally).
    ///
    /// For `exists`/`~exists`, a witness satisfies the body; for `forall`, a
    /// witness *violates* it.
    pub fn witnessed_by(&self, outcome: &Outcome) -> bool {
        match self.quantifier {
            Quantifier::Exists | Quantifier::NotExists => self.pred.eval(outcome),
            Quantifier::Forall => !self.pred.eval(outcome),
        }
    }
}

impl fmt::Display for FinalCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.quantifier, self.pred)
    }
}

/// One observed final state: values of the inspected registers/locations.
///
/// Outcomes order and render canonically (`0:r1=1; 1:r2=0;`), so they can
/// key histograms. The bindings are a slice sorted by expression with
/// unique keys: an outcome binds a handful of values, so a binary search
/// beats a map, and the derived `Ord`, `Eq` and `Hash` compare the sorted
/// pairs lexicographically, as they would over a `BTreeMap`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Outcome {
    values: Vec<(FinalExpr, i64)>,
}

impl Outcome {
    /// An empty outcome.
    pub fn new() -> Self {
        Outcome::default()
    }

    fn find(&self, expr: &FinalExpr) -> Result<usize, usize> {
        self.values.binary_search_by(|(e, _)| e.cmp(expr))
    }

    /// Records `expr = value`, replacing any previous binding.
    pub fn set(&mut self, expr: FinalExpr, value: i64) -> &mut Self {
        match self.find(&expr) {
            Ok(i) => self.values[i].1 = value,
            Err(i) => self.values.insert(i, (expr, value)),
        }
        self
    }

    /// The recorded value of `expr`, if present.
    pub fn get(&self, expr: &FinalExpr) -> Option<i64> {
        self.find(expr).ok().map(|i| self.values[i].1)
    }

    /// Number of recorded bindings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates bindings in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&FinalExpr, i64)> {
        self.values.iter().map(|(e, v)| (e, *v))
    }
}

impl FromIterator<(FinalExpr, i64)> for Outcome {
    /// Collects bindings; of duplicate expressions the last one wins.
    fn from_iter<I: IntoIterator<Item = (FinalExpr, i64)>>(iter: I) -> Self {
        let mut values: Vec<(FinalExpr, i64)> = iter.into_iter().collect();
        // A stable sort keeps duplicates in input order; each later one
        // hands its value to the first of its run and is dropped.
        values.sort_by(|(a, _), (b, _)| a.cmp(b));
        values.dedup_by(|(e, v), (kept, kept_v)| {
            let dup = e == kept;
            if dup {
                *kept_v = *v;
            }
            dup
        });
        Outcome { values }
    }
}

/// The observation layout of a final condition: the expressions it
/// inspects, in [`Outcome`] order, and its body compiled over their
/// positions.
///
/// An *observation vector* holds one value per expression, in this
/// order. The simulator records one per run and the axiomatic judge one
/// per candidate; both, and the harness comparing them, judge vectors
/// here ([`ObsLayout::witnessed_by`]) and build the [`Outcome`] a vector
/// stands for only where an outcome is needed ([`ObsLayout::outcome`]).
/// Because the layout is in outcome order, two vectors compare as the
/// outcomes they stand for do.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ObsLayout {
    exprs: Vec<FinalExpr>,
    /// The condition body over positions in `exprs`, flat in prefix
    /// order: an operator comes before its operands.
    body: Vec<Node>,
    /// Whether a vector witnesses the condition by violating its body
    /// (`forall`) rather than by satisfying it.
    negated: bool,
}

/// One node of a compiled condition body.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Node {
    Eq(usize, i64),
    Ne(usize, i64),
    /// Both operands hold; the first one spans the next `n` nodes.
    And(usize),
    /// Either operand holds; the first one spans the next `n` nodes.
    Or(usize),
    Not,
    True,
}

impl ObsLayout {
    /// The layout of `cond`.
    pub fn new(cond: &FinalCond) -> Self {
        let mut layout = ObsLayout::default();
        layout.load(cond);
        layout
    }

    /// Makes this the layout of `cond`, reusing its buffers.
    pub fn load(&mut self, cond: &FinalCond) {
        self.exprs.clear();
        cond.pred.exprs_into(&mut self.exprs);
        self.exprs.sort_unstable();
        self.body.clear();
        self.compile(&cond.pred);
        self.negated = cond.quantifier == Quantifier::Forall;
    }

    /// Appends `pred` to the body.
    fn compile(&mut self, pred: &Predicate) {
        let mut binary = |a: &Predicate, b: &Predicate, op: fn(usize) -> Node| {
            let at = self.body.len();
            self.body.push(op(0));
            self.compile(a);
            self.body[at] = op(self.body.len() - at - 1);
            self.compile(b);
        };
        match pred {
            Predicate::Eq(e, n) => self.body.push(Node::Eq(self.position(e), *n)),
            Predicate::Ne(e, n) => self.body.push(Node::Ne(self.position(e), *n)),
            Predicate::And(a, b) => binary(a, b, Node::And),
            Predicate::Or(a, b) => binary(a, b, Node::Or),
            Predicate::Not(p) => {
                self.body.push(Node::Not);
                self.compile(p);
            }
            Predicate::True => self.body.push(Node::True),
        }
    }

    fn position(&self, e: &FinalExpr) -> usize {
        self.exprs
            .binary_search(e)
            .expect("the layout holds every expression of its condition")
    }

    /// The observed expressions, in [`Outcome`] order: the meaning of
    /// each position of an observation vector.
    pub fn exprs(&self) -> &[FinalExpr] {
        &self.exprs
    }

    /// Whether the observation vector `obs` witnesses the condition:
    /// [`FinalCond::witnessed_by`] on the outcome it stands for, without
    /// building it.
    pub fn witnessed_by(&self, obs: &[i64]) -> bool {
        debug_assert_eq!(obs.len(), self.exprs.len());
        eval(&self.body, obs) != self.negated
    }

    /// The outcome the observation vector `obs` stands for.
    pub fn outcome(&self, obs: &[i64]) -> Outcome {
        debug_assert_eq!(obs.len(), self.exprs.len());
        Outcome {
            values: self
                .exprs
                .iter()
                .cloned()
                .zip(obs.iter().copied())
                .collect(),
        }
    }
}

/// The value of the body starting at `body[0]`.
fn eval(body: &[Node], obs: &[i64]) -> bool {
    match body[0] {
        Node::Eq(k, n) => obs[k] == n,
        Node::Ne(k, n) => obs[k] != n,
        Node::And(first) => eval(&body[1..], obs) && eval(&body[1 + first..], obs),
        Node::Or(first) => eval(&body[1..], obs) || eval(&body[1 + first..], obs),
        Node::Not => !eval(&body[1..], obs),
        Node::True => true,
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (e, v) in &self.values {
            write!(f, "{e}={v}; ")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mp_outcome(r1: i64, r2: i64) -> Outcome {
        [(FinalExpr::reg(1, "r1"), r1), (FinalExpr::reg(1, "r2"), r2)]
            .into_iter()
            .collect()
    }

    #[test]
    fn eval_conjunction() {
        let cond = Predicate::reg_eq(1, "r1", 1).and(Predicate::reg_eq(1, "r2", 0));
        assert!(cond.eval(&mp_outcome(1, 0)));
        assert!(!cond.eval(&mp_outcome(1, 1)));
        assert!(!cond.eval(&mp_outcome(0, 0)));
    }

    #[test]
    fn missing_values_default_to_zero() {
        let cond = Predicate::reg_eq(0, "r9", 0);
        assert!(cond.eval(&Outcome::new()));
        let ne = Predicate::Ne(FinalExpr::reg(0, "r9"), 0);
        assert!(!ne.eval(&Outcome::new()));
    }

    #[test]
    fn not_and_or() {
        let p = Predicate::reg_eq(1, "r1", 1)
            .or(Predicate::reg_eq(1, "r2", 1))
            .negate();
        assert!(p.eval(&mp_outcome(0, 0)));
        assert!(!p.eval(&mp_outcome(1, 0)));
    }

    #[test]
    fn exprs_deduplicated_in_order() {
        let p = Predicate::reg_eq(1, "r1", 1)
            .and(Predicate::reg_eq(1, "r2", 0))
            .and(Predicate::reg_eq(1, "r1", 0));
        let exprs = p.exprs();
        assert_eq!(
            exprs,
            vec![FinalExpr::reg(1, "r1"), FinalExpr::reg(1, "r2")]
        );
    }

    #[test]
    fn witness_semantics() {
        let body = Predicate::reg_eq(1, "r1", 1);
        let exists = FinalCond::exists(body.clone());
        let forall = FinalCond::forall(body);
        assert!(exists.witnessed_by(&mp_outcome(1, 0)));
        assert!(!exists.witnessed_by(&mp_outcome(0, 0)));
        // forall witnesses are violations.
        assert!(!forall.witnessed_by(&mp_outcome(1, 0)));
        assert!(forall.witnessed_by(&mp_outcome(0, 0)));
    }

    #[test]
    fn display_round_readable() {
        let cond =
            FinalCond::exists(Predicate::reg_eq(0, "r2", 0).and(Predicate::reg_eq(1, "r2", 0)));
        assert_eq!(cond.to_string(), "exists (0:r2=0 /\\ 1:r2=0)");
        assert_eq!(mp_outcome(1, 0).to_string(), "1:r1=1; 1:r2=0; ");
    }

    #[test]
    fn all_combines_predicates() {
        let p = Predicate::all(vec![
            Predicate::reg_eq(0, "r0", 1),
            Predicate::reg_eq(1, "r1", 2),
        ]);
        let mut o = Outcome::new();
        o.set(FinalExpr::reg(0, "r0"), 1);
        o.set(FinalExpr::reg(1, "r1"), 2);
        assert!(p.eval(&o));
        assert_eq!(Predicate::all(vec![]), Predicate::True);
    }

    #[test]
    fn mem_exprs() {
        let p = Predicate::mem_eq("x", 2);
        let mut o = Outcome::new();
        o.set(FinalExpr::mem("x"), 2);
        assert!(p.eval(&o));
        assert_eq!(p.exprs(), vec![FinalExpr::mem("x")]);
    }
}
