//! The PTX instruction fragment used by GPU litmus tests.
//!
//! This covers exactly the instructions the paper's framework supports
//! (Sec. 2.3): loads (`ld`), stores (`st`), ALU operations (`mov`, `add`,
//! `and`, `xor`, `cvt`), fences (`membar`) parameterised by scope,
//! unconditional jumps (`bra`), predicate setting (`setp.eq`/`setp.ne`),
//! predicated instructions (`@p …` / `@!p …`), and the read-modify-write
//! atomics `atom.cas`, `atom.exch` and `atom.inc` used by the programming-
//! assumption studies (Sec. 3.2).

use std::fmt;
use std::sync::Arc;

use crate::value::Loc;

/// A PTX register name (`r0`, `p1`, …). Cheap to clone.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(Arc<str>);

impl Reg {
    /// Creates a register with the given name.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty or contains separators used by the
    /// textual format.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        assert!(
            !name.is_empty()
                && !name
                    .chars()
                    .any(|c| c.is_whitespace() || "[],:;()=@!".contains(c)),
            "invalid register name {name:?}"
        );
        Reg(Arc::from(name))
    }

    /// The register's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reg({})", self.0)
    }
}

impl From<&str> for Reg {
    fn from(s: &str) -> Self {
        Reg::new(s)
    }
}

/// A branch target label.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(Arc<str>);

impl Label {
    /// Creates a label with the given name.
    ///
    /// # Panics
    ///
    /// Panics on names that the textual format could not represent.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        assert!(
            !name.is_empty()
                && !name
                    .chars()
                    .any(|c| c.is_whitespace() || "[],:;()=@!".contains(c)),
            "invalid label name {name:?}"
        );
        Label(Arc::from(name))
    }

    /// The label's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({})", self.0)
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

/// PTX cache operators on memory accesses (paper Sec. 2.3 and 3.1.2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum CacheOp {
    /// `.ca` — cache at all levels; loads may hit the (per-SM) L1.
    Ca,
    /// `.cg` — cache at the global level; accesses target the shared L2.
    ///
    /// This is the operator the paper's formal model assumes for all
    /// accesses (Sec. 5.5) and the default used by the corpus, matching the
    /// paper's `-Xptxas -dlcm=cg` compilation setup.
    #[default]
    Cg,
}

impl CacheOp {
    /// The textual suffix, e.g. `".ca"`.
    pub fn suffix(self) -> &'static str {
        match self {
            CacheOp::Ca => ".ca",
            CacheOp::Cg => ".cg",
        }
    }
}

impl fmt::Display for CacheOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// The scope of a `membar` fence (paper Sec. 2.3).
///
/// `membar.cta` orders accesses for observers in the same CTA, `membar.gl`
/// for the whole GPU, and `membar.sys` also with the host.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FenceScope {
    /// `membar.cta`.
    Cta,
    /// `membar.gl`.
    Gl,
    /// `membar.sys`.
    Sys,
}

impl FenceScope {
    /// All scopes, weakest first.
    pub const ALL: [FenceScope; 3] = [FenceScope::Cta, FenceScope::Gl, FenceScope::Sys];

    /// `true` if `self` is at least as strong as `other`
    /// (`sys` ≥ `gl` ≥ `cta`).
    pub fn at_least(self, other: FenceScope) -> bool {
        self >= other
    }

    /// The textual suffix, e.g. `".gl"`.
    pub fn suffix(self) -> &'static str {
        match self {
            FenceScope::Cta => ".cta",
            FenceScope::Gl => ".gl",
            FenceScope::Sys => ".sys",
        }
    }
}

impl fmt::Display for FenceScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// An instruction operand: a register, an immediate, or the address of a
/// named location (`[x]` in the litmus syntax when used directly).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A register read.
    Reg(Reg),
    /// An immediate constant.
    Imm(i64),
    /// The address of a named location.
    Sym(Loc),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(n) => write!(f, "{n}"),
            Operand::Sym(l) => write!(f, "{l}"),
        }
    }
}

impl From<&str> for Operand {
    fn from(s: &str) -> Self {
        Operand::Reg(Reg::new(s))
    }
}

impl From<i64> for Operand {
    fn from(n: i64) -> Self {
        Operand::Imm(n)
    }
}

/// One PTX instruction of the litmus fragment.
///
/// Construct these with the [`crate::build`] helpers; e.g.
/// `build::st("x", 1)` for `st.cg [x],1`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// `ld{.volatile}{.ca|.cg} dst,[addr]`.
    Ld {
        /// Destination register.
        dst: Reg,
        /// Address operand (`Sym` or a pointer-holding register).
        addr: Operand,
        /// Cache operator (ignored when `volatile`).
        cache: CacheOp,
        /// `.volatile` marker.
        volatile: bool,
    },
    /// `st{.volatile}{.cg} [addr],src`.
    St {
        /// Address operand.
        addr: Operand,
        /// Value to store.
        src: Operand,
        /// Cache operator (stores cannot target the L1; `.cg` in practice).
        cache: CacheOp,
        /// `.volatile` marker.
        volatile: bool,
    },
    /// `atom.cas dst,[addr],expected,desired` — compare-and-swap; `dst`
    /// receives the old value; the store happens iff old = `expected`.
    Cas {
        /// Receives the old memory value.
        dst: Reg,
        /// Address operand.
        addr: Operand,
        /// Comparison value.
        expected: Operand,
        /// Value written on success.
        desired: Operand,
    },
    /// `atom.exch dst,[addr],src` — unconditional atomic exchange.
    Exch {
        /// Receives the old memory value.
        dst: Reg,
        /// Address operand.
        addr: Operand,
        /// Value written.
        src: Operand,
    },
    /// `atom.inc dst,[addr]` — atomic increment (the paper's mapping of
    /// `atomicAdd(…, 1)`, Tab. 5). `dst` receives the old value.
    Inc {
        /// Receives the old memory value.
        dst: Reg,
        /// Address operand.
        addr: Operand,
    },
    /// `membar.{cta,gl,sys}`.
    Membar {
        /// Fence scope.
        scope: FenceScope,
    },
    /// `mov dst,src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `add dst,a,b`.
    Add {
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `and dst,a,b` (bitwise).
    And {
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `xor dst,a,b` (bitwise).
    Xor {
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `cvt dst,src` — width conversion; value-preserving in this fragment.
    Cvt {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `setp.eq dst,a,b` — set predicate `dst` to (a = b).
    SetpEq {
        /// Destination predicate register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `setp.ne dst,a,b` — set predicate `dst` to (a ≠ b).
    SetpNe {
        /// Destination predicate register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `bra target` — unconditional jump (combine with predication for
    /// conditional control flow, as the CUDA compiler does, Tab. 5).
    Bra {
        /// Jump target.
        target: Label,
    },
    /// `@p inner` or `@!p inner` — predicated execution.
    Guard {
        /// Predicate register consulted.
        pred: Reg,
        /// Execute `inner` when the predicate equals this value.
        expect: bool,
        /// The guarded instruction (never itself a `Guard` or `Label`).
        inner: Box<Instr>,
    },
    /// A label definition, `NAME:`.
    LabelDef(Label),
}

impl Instr {
    /// Registers read by this instruction (including address registers and
    /// guard predicates).
    pub fn read_regs(&self) -> Vec<Reg> {
        fn op(v: &mut Vec<Reg>, o: &Operand) {
            if let Operand::Reg(r) = o {
                v.push(r.clone());
            }
        }
        let mut v = Vec::new();
        match self {
            Instr::Ld { addr, .. } => op(&mut v, addr),
            Instr::St { addr, src, .. } => {
                op(&mut v, addr);
                op(&mut v, src);
            }
            Instr::Cas {
                addr,
                expected,
                desired,
                ..
            } => {
                op(&mut v, addr);
                op(&mut v, expected);
                op(&mut v, desired);
            }
            Instr::Exch { addr, src, .. } => {
                op(&mut v, addr);
                op(&mut v, src);
            }
            Instr::Inc { addr, .. } => op(&mut v, addr),
            Instr::Membar { .. } | Instr::Bra { .. } | Instr::LabelDef(_) => {}
            Instr::Mov { src, .. } | Instr::Cvt { src, .. } => op(&mut v, src),
            Instr::Add { a, b, .. }
            | Instr::And { a, b, .. }
            | Instr::Xor { a, b, .. }
            | Instr::SetpEq { a, b, .. }
            | Instr::SetpNe { a, b, .. } => {
                op(&mut v, a);
                op(&mut v, b);
            }
            Instr::Guard { pred, inner, .. } => {
                v.push(pred.clone());
                v.extend(inner.read_regs());
            }
        }
        v
    }

    /// The register written by this instruction, if any.
    pub fn written_reg(&self) -> Option<&Reg> {
        match self {
            Instr::Ld { dst, .. }
            | Instr::Cas { dst, .. }
            | Instr::Exch { dst, .. }
            | Instr::Inc { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Add { dst, .. }
            | Instr::And { dst, .. }
            | Instr::Xor { dst, .. }
            | Instr::Cvt { dst, .. }
            | Instr::SetpEq { dst, .. }
            | Instr::SetpNe { dst, .. } => Some(dst),
            Instr::Guard { inner, .. } => inner.written_reg(),
            Instr::St { .. } | Instr::Membar { .. } | Instr::Bra { .. } | Instr::LabelDef(_) => {
                None
            }
        }
    }

    /// `true` for instructions that access memory (loads, stores, atomics),
    /// looking through guards.
    pub fn is_memory_access(&self) -> bool {
        match self {
            Instr::Ld { .. }
            | Instr::St { .. }
            | Instr::Cas { .. }
            | Instr::Exch { .. }
            | Instr::Inc { .. } => true,
            Instr::Guard { inner, .. } => inner.is_memory_access(),
            _ => false,
        }
    }

    /// `true` for atomics (`atom.cas`, `atom.exch`, `atom.inc`), looking
    /// through guards.
    pub fn is_atomic(&self) -> bool {
        match self {
            Instr::Cas { .. } | Instr::Exch { .. } | Instr::Inc { .. } => true,
            Instr::Guard { inner, .. } => inner.is_atomic(),
            _ => false,
        }
    }

    /// `true` for `membar` fences, looking through guards.
    pub fn is_fence(&self) -> bool {
        match self {
            Instr::Membar { .. } => true,
            Instr::Guard { inner, .. } => inner.is_fence(),
            _ => false,
        }
    }

    /// The innermost instruction, unwrapping any guard.
    pub fn unguarded(&self) -> &Instr {
        match self {
            Instr::Guard { inner, .. } => inner.unguarded(),
            other => other,
        }
    }

    /// The address operand of a memory access, looking through guards.
    pub fn address(&self) -> Option<&Operand> {
        match self {
            Instr::Ld { addr, .. }
            | Instr::St { addr, .. }
            | Instr::Cas { addr, .. }
            | Instr::Exch { addr, .. }
            | Instr::Inc { addr, .. } => Some(addr),
            Instr::Guard { inner, .. } => inner.address(),
            _ => None,
        }
    }

    /// Wraps this instruction in a predicate guard.
    ///
    /// # Panics
    ///
    /// Panics when attempting to guard a `Guard` or a label definition.
    pub fn guarded(self, pred: impl Into<Reg>, expect: bool) -> Instr {
        assert!(
            !matches!(self, Instr::Guard { .. } | Instr::LabelDef(_)),
            "cannot guard a guard or a label"
        );
        Instr::Guard {
            pred: pred.into(),
            expect,
            inner: Box::new(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;

    #[test]
    fn fence_strength_order() {
        assert!(FenceScope::Sys.at_least(FenceScope::Gl));
        assert!(FenceScope::Gl.at_least(FenceScope::Cta));
        assert!(FenceScope::Cta.at_least(FenceScope::Cta));
        assert!(!FenceScope::Cta.at_least(FenceScope::Gl));
    }

    #[test]
    fn read_and_written_regs() {
        let i = build::ld("r1", "x");
        assert!(i.read_regs().is_empty());
        assert_eq!(i.written_reg().unwrap().as_str(), "r1");

        let st = build::st_reg("x", "r2");
        assert_eq!(st.read_regs(), vec![Reg::new("r2")]);
        assert!(st.written_reg().is_none());

        let cas = build::cas("r0", "m", 0, 1);
        assert_eq!(cas.written_reg().unwrap().as_str(), "r0");
        assert!(cas.is_atomic());
        assert!(cas.is_memory_access());
    }

    #[test]
    fn guard_reads_predicate() {
        let g = build::ld("r3", "x").guarded("p", true);
        assert!(g.read_regs().contains(&Reg::new("p")));
        assert!(g.is_memory_access());
        assert!(!g.is_fence());
        assert_eq!(g.written_reg().unwrap().as_str(), "r3");
    }

    #[test]
    #[should_panic(expected = "cannot guard")]
    fn double_guard_panics() {
        let g = build::ld("r3", "x").guarded("p", true);
        let _ = g.guarded("q", false);
    }

    #[test]
    fn membar_is_fence_not_memory() {
        let f = build::membar(FenceScope::Gl);
        assert!(f.is_fence());
        assert!(!f.is_memory_access());
        assert!(f.read_regs().is_empty());
    }
}
