//! `weakgpu` — a reproduction of *GPU concurrency: Weak behaviours and
//! programming assumptions* (Alglave et al., ASPLOS 2015).
//!
//! This crate re-exports the subsystem crates under short names:
//!
//! * [`litmus`] — GPU litmus tests (PTX AST, scope trees, parser, paper
//!   corpus),
//! * [`front`] — the shared parsing and diagnostics frontend,
//! * [`axiom`] — herd-style axiomatic engine and `.cat` DSL,
//! * [`models`] — the paper's PTX memory model and baselines,
//! * [`sim`] — the stochastic GPU hardware simulator,
//! * [`harness`] — the litmus-running harness with incantations,
//! * [`diy`] — cycle-based litmus test generation,
//! * [`optcheck`] — the compiled-code optimisation checker.
//!
//! A run is one cell — a test on a chip under an incantation column for
//! some iterations — configured by a [`harness::CellSpec`]:
//!
//! ```
//! use weakgpu::axiom::enumerate::{model_outcomes, EnumConfig};
//! use weakgpu::harness::{check_soundness, run_test, CampaignConfig, CellSpec};
//! use weakgpu::litmus::corpus;
//! use weakgpu::models::ptx_model;
//! use weakgpu::sim::Chip;
//!
//! let cell = CellSpec::new(corpus::corr(), Chip::GtxTitan).iterations(5_000);
//! let cfg = CampaignConfig::default();
//! let report = run_test(&cell, &cfg).unwrap();
//! assert_eq!(report.histogram.total(), 5_000);
//!
//! // The paper's PTX model allows everything the chip exhibited.
//! let verdict = model_outcomes(&cell.test, &ptx_model(), &EnumConfig::default()).unwrap();
//! let soundness = check_soundness(&cell, &cfg, &verdict).unwrap();
//! assert!(soundness.is_sound());
//! ```
//!
//! See `examples/quickstart.rs` for a tour.

pub use weakgpu_axiom as axiom;
pub use weakgpu_diy as diy;
pub use weakgpu_front as front;
pub use weakgpu_harness as harness;
pub use weakgpu_litmus as litmus;
pub use weakgpu_models as models;
pub use weakgpu_optcheck as optcheck;
pub use weakgpu_sim as sim;
