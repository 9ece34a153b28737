//! GPU litmus tests in the style of Alglave et al., *GPU concurrency: Weak
//! behaviours and programming assumptions* (ASPLOS 2015).
//!
//! A [`LitmusTest`] is a short concurrent PTX program together with
//!
//! * a **memory map** ([`MemMap`]) assigning each shared location a region
//!   (global or shared) and an initial value,
//! * a **scope tree** ([`ScopeTree`]) placing the threads into the GPU
//!   execution hierarchy (warps inside CTAs inside a grid), and
//! * a **final condition** ([`FinalCond`]) — a quantified predicate over the
//!   final register and memory state, e.g. `exists (0:r2=0 /\ 1:r2=0)`.
//!
//! The crate provides the instruction AST ([`Instr`]), a parser and printer
//! for the textual litmus format of the paper's Fig. 12, and the
//! [`corpus`] of named tests from the paper (`coRR`, `mp-L1`, `dlb-lb`,
//! `cas-sl`, `sl-future`, …).
//!
//! # Example
//!
//! Build the store-buffering test of the paper's Fig. 12 and print it:
//!
//! ```
//! use weakgpu_litmus::{corpus, parser, ThreadScope};
//!
//! let sb = corpus::sb(ThreadScope::IntraCta, None);
//! let text = sb.to_string();
//! let reparsed = parser::parse(&text).expect("round trip");
//! assert_eq!(reparsed.name(), "sb");
//! ```

pub mod build;
pub mod cond;
pub mod corpus;
pub mod corpus_extra;
pub mod cuda;
pub mod instr;
pub mod memmap;
pub mod parser;
pub mod printer;
pub mod program;
pub mod scope;
pub mod value;

pub use cond::{FinalCond, FinalExpr, ObsLayout, Outcome, Predicate, Quantifier};
pub use instr::{CacheOp, FenceScope, Instr, Label, Operand, Reg};
pub use memmap::{MemMap, Region};
pub use program::{LitmusTest, LitmusTestBuilder, ValidateError};
pub use scope::{ScopeTree, ThreadPlacement, ThreadScope};
pub use value::{Loc, Value};
