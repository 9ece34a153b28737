//! A stochastic operational simulator of GPU memory systems — the
//! hardware substitute for the paper's testbed of deployed chips (Tab. 1).
//!
//! # Why a simulator
//!
//! The paper runs litmus tests on real Nvidia and AMD silicon. This
//! reproduction has no GPUs (and Rust's kernel-level GPU control is too
//! thin for litmus-grade codegen control), so the role of "ground truth
//! hardware" is played by [`machine::Simulator`]: an operational model
//! with
//!
//! * per-thread **in-flight memory-op windows** whose out-of-order
//!   completion is governed by per-chip probabilities for each reordering
//!   class (write-write, write-read, read-write, read-read, and the
//!   same-location read-read hazard behind `coRR`),
//! * a shared **L2** point of coherence and per-SM **L1** lines that can
//!   go stale, reproducing the `.ca`-operator behaviours of Sec. 3.1.2
//!   (`mp-L1`, `coRR-L2-L1`), including the Tesla C2075's
//!   fence-ineffective L1,
//! * scoped **fences**, with cta-scope fences probabilistically failing to
//!   order inter-CTA communication (the model-sanctioned leak the paper
//!   observes on Kepler),
//! * **atomics** performed in one step at the point of coherence.
//!
//! The design guarantees that, for `.cg`/global-memory programs, every
//! reachable outcome is allowed by the paper's axiomatic model: ops never
//! bypass dependencies, effective fences, or same-location write-write /
//! read-write / write-read pairs. The validation suite asserts exactly
//! this (simulated observations ⊆ model-allowed outcomes).
//!
//! [`chip::Chip`] provides profiles for all eight chips of Tab. 1, with
//! reordering rates calibrated to the `obs/100k` magnitudes of the paper's
//! figures, and [`chip::Incantations`] scales them with the Tab. 6 effect
//! tables.
//!
//! ```
//! use weakgpu_sim::{chip::{Chip, Incantations}, machine::Simulator};
//! use weakgpu_litmus::corpus;
//!
//! let sim = Simulator::compile(&corpus::corr(), Chip::GtxTitan).unwrap();
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
//! use rand::SeedableRng;
//! let outcome = sim.run_once(&Incantations::all_on(), &mut rng).unwrap();
//! assert_eq!(outcome.len(), 2); // r1 and r2 observed
//! ```

pub mod chip;
pub mod machine;
pub mod program;

pub use chip::{Chip, ChipProfile, Incantations, Vendor};
pub use machine::{Chooser, Draw, MachineState, ObsCounts, RunError, RunParams, Simulator};
pub use program::SimProgram;
