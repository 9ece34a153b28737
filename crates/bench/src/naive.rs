//! The naive-sampler ablation baseline (the `ablation_naive` binary).
//!
//! Instead of the operational machine, sample each observed register
//! uniformly from the values any write (or the initial state) could give
//! its location. This "hardware" is what you would get from a simulator
//! without a memory-system mechanism — the `ablation_naive` binary shows it
//! immediately violates SC-per-location and the PTX model, which is why
//! the operational machine exists.

use rand::rngs::SmallRng;
use rand::Rng;
use weakgpu_litmus::{FinalExpr, Instr, LitmusTest, Operand, Outcome};

/// Samples one outcome by drawing every observed value uniformly from the
/// location's statically-written value set (plus the initial value).
pub fn naive_outcome(test: &LitmusTest, rng: &mut SmallRng) -> Outcome {
    let mut outcome = Outcome::new();
    for expr in test.observed() {
        let domain: Vec<i64> = match &expr {
            FinalExpr::Mem(loc) => value_domain(test, loc),
            FinalExpr::Reg(tid, reg) => {
                // Values any load into this register could see: union over
                // the locations the thread loads into it.
                let mut d = vec![0];
                for instr in &test.threads()[*tid] {
                    if let Instr::Ld { dst, addr, .. } = instr.unguarded() {
                        if dst == reg {
                            if let Operand::Sym(loc) = addr {
                                d.extend(value_domain(test, loc));
                            }
                        }
                    }
                }
                d.sort_unstable();
                d.dedup();
                d
            }
        };
        let v = domain[rng.random_range(0..domain.len())];
        outcome.set(expr, v);
    }
    outcome
}

fn value_domain(test: &LitmusTest, loc: &weakgpu_litmus::Loc) -> Vec<i64> {
    let mut d = vec![test.memory().init(loc).unwrap_or(0)];
    for thread in test.threads() {
        for instr in thread {
            if let Instr::St { addr, src, .. } = instr.unguarded() {
                if let (Operand::Sym(l), Operand::Imm(v)) = (addr, src) {
                    if l == loc {
                        d.push(*v);
                    }
                }
            }
        }
    }
    d.sort_unstable();
    d.dedup();
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use weakgpu_litmus::corpus;

    #[test]
    fn naive_sampler_produces_model_violations() {
        use weakgpu_axiom::enumerate::model_outcomes;
        use weakgpu_models::ptx_model;
        // The coRR test observes r1, r2 from loads of x ∈ {0, 1}: the
        // naive sampler hits every combination, including outcomes no
        // coherent machine can produce for *other* tests; here even the
        // PTX model allows all four, so use sl-future where r0=1 ∧ r2=1
        // (lock never acquired but future value read) is unreachable.
        let test = corpus::sl_future(true);
        let verdict = model_outcomes(&test, &ptx_model(), &Default::default()).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut violations = 0;
        for _ in 0..500 {
            let o = naive_outcome(&test, &mut rng);
            if !verdict.allowed_outcomes.contains(&o) {
                violations += 1;
            }
        }
        assert!(
            violations > 0,
            "the naive sampler must produce model-forbidden outcomes"
        );
    }

    #[test]
    fn domains_cover_writes_and_init() {
        let test = corpus::cas_sl(false);
        let d = value_domain(&test, &"x".into());
        assert_eq!(d, vec![0, 1]);
        let m = value_domain(&test, &"m".into());
        assert!(m.contains(&1)); // init
    }
}
