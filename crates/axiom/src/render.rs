//! Rendering candidate executions — the graphs the paper draws (Fig. 14),
//! as ASCII summaries or Graphviz DOT, plus "why forbidden" diagnostics
//! naming a model's failing checks, each with a cycle of
//! `rf | co | fr | po` as its witness.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::cat::CheckOutcome;
use crate::exec::Execution;
use crate::model::CatModel;
use crate::relation::Relation;

/// Edge kinds drawn in an execution graph.
const DRAWN: [&str; 7] = [
    "po",
    "rf",
    "co",
    "fr",
    "membar.cta",
    "membar.gl",
    "membar.sys",
];

/// An ASCII rendering: one line per event, then one line per edge of the
/// communication and ordering relations (po restricted to immediate
/// successors for readability).
pub fn ascii(exec: &Execution) -> String {
    let mut out = String::new();
    for e in &exec.events {
        let _ = writeln!(out, "{}", e.label());
    }
    let rels = exec.base_relations();
    for name in DRAWN {
        let rel = &rels[name];
        let rel = if name == "po" {
            immediate(rel)
        } else {
            rel.clone()
        };
        for (a, b) in rel.iter_pairs() {
            let _ = writeln!(out, "  {} --{name}--> {}", letter(a), letter(b));
        }
    }
    // Init reads: rf edges with no source (the paper draws a sourceless
    // arrow into the read).
    for (r, src) in exec.rf.iter().enumerate() {
        if src.is_none() && exec.events.get(r).is_some_and(|e| e.is_read()) {
            let _ = writeln!(out, "  (init) --rf--> {}", letter(r));
        }
    }
    out
}

/// A Graphviz DOT rendering, one cluster per thread.
pub fn dot(exec: &Execution, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{title}\" {{");
    let _ = writeln!(out, "  rankdir=TB; node [shape=box, fontname=monospace];");
    let mut by_thread: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for e in &exec.events {
        by_thread.entry(e.tid).or_default().push(e.id);
    }
    for (tid, ids) in &by_thread {
        let _ = writeln!(out, "  subgraph cluster_t{tid} {{");
        let _ = writeln!(out, "    label=\"T{tid}\";");
        for &id in ids {
            let _ = writeln!(
                out,
                "    e{id} [label=\"{}\"];",
                exec.events[id].label().replace('"', "'")
            );
        }
        let _ = writeln!(out, "  }}");
    }
    let rels = exec.base_relations();
    let styles: BTreeMap<&str, &str> = [
        ("po", "color=gray"),
        ("rf", "color=red"),
        ("co", "color=blue"),
        ("fr", "color=orange"),
        ("membar.cta", "color=green,style=dashed"),
        ("membar.gl", "color=darkgreen,style=dashed"),
        ("membar.sys", "color=black,style=dashed"),
    ]
    .into_iter()
    .collect();
    for name in DRAWN {
        let rel = &rels[name];
        let rel = if name == "po" {
            immediate(rel)
        } else {
            rel.clone()
        };
        for (a, b) in rel.iter_pairs() {
            let _ = writeln!(out, "  e{a} -> e{b} [label=\"{name}\", {}];", styles[name]);
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Reduces a (transitive) order to immediate-successor edges for drawing.
fn immediate(rel: &Relation) -> Relation {
    let n = rel.universe();
    let mut out = Relation::empty(n);
    for (a, b) in rel.iter_pairs() {
        let has_mid = (0..n).any(|m| m != a && m != b && rel.contains(a, m) && rel.contains(m, b));
        if !has_mid {
            out.add(a, b);
        }
    }
    out
}

fn letter(id: usize) -> char {
    (b'a' + (id % 26) as u8) as char
}

/// Why a `.cat` model forbids an execution: a lost RMW exclusivity, and
/// each failing check, named with a cycle of `rf | co | fr | po` rendered
/// through event labels.
///
/// The checks come from the interpreter's full-outcome mode
/// ([`CatModel::check`]), so every failing check is named even when an
/// earlier one already decides the verdict. The witness is not the
/// checked relation's own cycle, which is not recovered here: it is the
/// same cycle of `rf | co | fr | po` for every failing check (a failing
/// acyclicity check over a subset of that union, as each of the PTX
/// model's is, always leaves one), or a note that the union is acyclic.
///
/// Returns an empty vector when the model allows the execution.
pub fn explain_verdict(model: &CatModel, exec: &Execution) -> Vec<String> {
    let mut reasons = Vec::new();
    if !exec.rmw_atomicity_holds(model.rmw_atomicity()) {
        reasons.push("an atomic read-modify-write lost its exclusivity".to_owned());
    }
    let outcomes: Vec<CheckOutcome> = match model.check(exec) {
        Ok(o) => o,
        Err(e) => return vec![format!("model evaluation failed: {e}")],
    };
    for check in outcomes.into_iter().filter(|c| !c.passed) {
        let rels = exec.base_relations();
        let com_po = rels["rf"]
            .union(&rels["co"])
            .union(&rels["fr"])
            .union(&rels["po"]);
        let witness = com_po
            .find_cycle()
            .map(|cycle| {
                cycle
                    .iter()
                    .map(|&id| exec.events[id].label())
                    .collect::<Vec<_>>()
                    .join("  →  ")
            })
            .unwrap_or_else(|| "(no com∪po cycle; ordering is scope-internal)".to_owned());
        reasons.push(format!("check `{}` fails: {witness}", check.name));
    }
    reasons
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate_executions, EnumConfig};
    use weakgpu_litmus::{corpus, ThreadScope};

    fn forbidden_sb_execution() -> Execution {
        // Find the sb weak candidate (both reads 0).
        let test = corpus::sb(ThreadScope::IntraCta, None);
        enumerate_executions(&test, &EnumConfig::default())
            .unwrap()
            .into_iter()
            .find(|c| test.cond().witnessed_by(&c.outcome))
            .expect("weak candidate exists")
            .execution
    }

    #[test]
    fn ascii_lists_events_and_edges() {
        let exec = forbidden_sb_execution();
        let s = ascii(&exec);
        assert!(s.contains("W.cg x=1"), "{s}");
        assert!(s.contains("--fr-->"), "{s}");
        assert!(s.contains("(init) --rf-->"), "{s}");
    }

    #[test]
    fn dot_is_valid_shaped() {
        let exec = forbidden_sb_execution();
        let d = dot(&exec, "sb");
        assert!(d.starts_with("digraph"));
        assert!(d.contains("subgraph cluster_t0"));
        assert!(d.contains("subgraph cluster_t1"));
        assert!(d.trim_end().ends_with('}'));
        assert_eq!(d.matches("label=\"fr\"").count(), 2);
    }

    #[test]
    fn immediate_reduction_drops_transitive_edges() {
        let r = Relation::from_pairs(3, [(0, 1), (1, 2), (0, 2)]);
        let m = immediate(&r);
        assert!(m.contains(0, 1) && m.contains(1, 2));
        assert!(!m.contains(0, 2));
    }

    #[test]
    fn explain_names_the_failing_check() {
        use crate::model::sc_model;
        let exec = forbidden_sb_execution();
        let sc = sc_model();
        let reasons = explain_verdict(&sc, &exec);
        assert_eq!(reasons.len(), 1, "{reasons:?}");
        assert!(reasons[0].contains("check `sc` fails"), "{reasons:?}");
        assert!(reasons[0].contains("→"), "{reasons:?}");
    }

    #[test]
    fn explain_is_empty_for_allowed_executions() {
        use crate::model::{sc_model, Model};
        let test = corpus::sb(ThreadScope::IntraCta, None);
        let sc = sc_model();
        let allowed = enumerate_executions(&test, &EnumConfig::default())
            .unwrap()
            .into_iter()
            .find(|c| sc.allows(&c.execution))
            .expect("some SC execution exists")
            .execution;
        assert!(explain_verdict(&sc, &allowed).is_empty());
    }
}
