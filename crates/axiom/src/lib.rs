//! Herd-style axiomatic engine for GPU litmus tests (paper Sec. 5).
//!
//! Given a [`weakgpu_litmus::LitmusTest`], this crate
//!
//! 1. **unwinds** each thread symbolically into memory [`event::Event`]s,
//!    using a read-value oracle and tracking address/data/control
//!    dependencies ([`symbolic`]);
//! 2. **streams candidate executions** — every consistent choice of
//!    read-from (`rf`) and coherence (`co`) relations, decomposed into one
//!    shared [`skeleton::ExecutionSkeleton`] per trace combination plus an
//!    in-place rf/co [`skeleton::Overlay`] per candidate
//!    ([`enumerate::for_each_execution`]);
//! 3. **evaluates a memory model** over each candidate, either written in
//!    the [`cat`] relational DSL (the format of the paper's Figs. 15–16) or
//!    implemented natively via the [`model::Model`] trait.
//!
//! The partition of candidates into *allowed* and *forbidden* executions,
//! restricted to the registers a test observes, yields the set of outcomes a
//! model permits ([`enumerate::ModelOutcomes`]) — what the paper's
//! validation compares against hardware observations (Sec. 5.4).
//!
//! # Example
//!
//! ```
//! use weakgpu_axiom::{enumerate::enumerate_executions, model::sc_model};
//! use weakgpu_litmus::{corpus, ThreadScope};
//!
//! let test = corpus::sb(ThreadScope::IntraCta, None);
//! let execs = enumerate_executions(&test, &Default::default()).unwrap();
//! let sc = sc_model();
//! let outcomes = weakgpu_axiom::enumerate::model_outcomes(&test, &sc, &Default::default()).unwrap();
//! // SC forbids the store-buffering outcome …
//! assert!(!outcomes.condition_witnessed);
//! // … but there are executions (they are just not all allowed).
//! assert!(!execs.is_empty());
//! ```

pub mod cache;
pub mod cat;
pub mod enumerate;
pub mod event;
pub mod exec;
pub mod model;
pub mod persist;
pub mod plan;
pub mod relation;
pub mod render;
pub mod skeleton;
pub mod symbolic;

pub use cache::{shape_key, VerdictCache};
pub use enumerate::{
    enumerate_executions, for_each_execution, model_outcomes, model_outcomes_counted,
    model_outcomes_with, EnumConfig, ModelOutcomes,
};
pub use event::{Event, EventKind};
pub use exec::Execution;
pub use model::{CatModel, Model, RmwAtomicity};
pub use plan::{EvalContext, Plan};
pub use relation::{EventSet, Relation};
pub use skeleton::{ExecutionSkeleton, ExecutionView, Overlay};
