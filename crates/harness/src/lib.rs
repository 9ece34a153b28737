//! The litmus-testing harness (paper Sec. 4): run a test many times on a
//! simulated chip under chosen incantations, histogram the outcomes, and
//! compare observations against a memory model.
//!
//! ```
//! use weakgpu_harness::{RunConfig, run_test};
//! use weakgpu_sim::chip::{Chip, Incantations};
//! use weakgpu_litmus::corpus;
//!
//! let cfg = RunConfig {
//!     iterations: 2_000,
//!     incantations: Incantations::all_on(),
//!     seed: 7,
//!     ..RunConfig::default()
//! };
//! let report = run_test(&corpus::corr(), Chip::GtxTitan, &cfg).unwrap();
//! assert_eq!(report.histogram.total(), 2_000);
//! // Kepler exhibits read-read coherence violations (Fig. 1).
//! assert!(report.witnesses > 0);
//! ```

pub mod campaign;
pub mod histogram;
pub mod json;
pub mod report;
pub mod runner;
pub mod serve;
pub mod soundness;
pub mod sweep;
#[cfg(test)]
mod tuning;

pub use campaign::{
    default_incantations, run_campaign, run_campaign_with, CampaignConfig, CellSpec,
};
pub use histogram::Histogram;
pub use report::ObsTable;
pub use runner::{run_test, RunConfig, TestReport, STREAM_CHUNKS};
pub use serve::{serve, ServeConfig, ServeSummary};
pub use soundness::{check_soundness, SoundnessReport};
pub use sweep::{
    run_sweep, run_sweep_with, CellRecord, RecordSink, Shard, SweepConfig, SweepError, SweepPhases,
    SweepReport, SweepRun,
};
