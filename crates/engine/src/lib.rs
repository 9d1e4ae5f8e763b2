//! # mbcr-engine — batch analysis engine for PUB + TAC + MBPTA campaigns
//!
//! The paper's evaluation (Tables 1–2, Figures 2–5) is a *batch*: many
//! benchmarks × inputs × cache geometries × seeds, each cell running the
//! one-shot pipeline from [`mbcr`]. This crate turns that batch into a
//! first-class, resumable system:
//!
//! * [`SweepSpec`] — a declarative, JSON-round-trippable campaign
//!   description;
//! * [`expand`] — spec → stage-granular job DAG ([`JobGraph`]): one node
//!   per pipeline stage (`mbcr::stage`), deduplicated by content digest,
//!   with real data dependencies — campaign nodes wait on their converge
//!   and TAC nodes, multipath Corollary 2 combinations on their cell's
//!   per-input fit nodes. Long campaigns therefore overlap TAC discovery
//!   of later cells;
//! * [`execute_dag`] — a work-stealing thread pool executing the DAG;
//! * [`ArtifactStore`] — a content-addressed run directory (manifest,
//!   per-job JSON, sample CSVs, Table 2 CSV, per-stage artifacts). Stage
//!   digests hash exactly the knobs each stage consumes, so a warm re-run
//!   resumes mid-analysis: after a `max_campaign_runs` change only the
//!   campaign and fit stages re-execute;
//! * [`run_sweep`] — the end-to-end driver, with per-analysis seeds
//!   derived deterministically via [`mbcr_rng::derive_seed`] so results
//!   are bit-identical at any thread count or scheduling order.
//!
//! The `mbcr` binary in this crate exposes it all on the command line
//! (`analyze`, `sweep`, `report`, `list-benchmarks`).
//!
//! # Examples
//!
//! ```no_run
//! use mbcr_engine::{run_sweep, ArtifactStore, Registry, RunOptions, SweepSpec};
//!
//! let spec = SweepSpec::new("demo").benchmarks(["bs", "cnt"]);
//! let store = ArtifactStore::open("mbcr-runs/demo")?;
//! let outcome = run_sweep(&spec, &Registry::malardalen(), &store, &RunOptions::default())?;
//! println!("{} executed, {} cached", outcome.executed, outcome.skipped);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

mod job;
mod pool;
mod registry;
mod sched;
mod service;
mod spec;
mod store;
mod sweep;

pub use job::{JobGraph, JobKind, JobSpec, JobSummary, SCHEMA};
pub use mbcr::stage::{StageKind, StageStatus, StageStore};
pub use pool::execute_dag;
pub use registry::Registry;
pub use sched::JobScheduler;
pub use service::{
    campaign_progress_for, RegistryMetrics, ServiceClaim, SubmitOptions, SweepMetrics,
    SweepRegistry, SweepSnapshot, SweepState, SweepStatus,
};
pub use spec::{AnalysisKind, AnalysisKnobs, GeometrySpec, InputSelection, SweepSpec};
pub use store::{ArtifactStore, CampaignProgress, SampleLog, SampleLogContents, Table2Row};
pub use sweep::{
    aggregate_rows, execute_combine, execute_stage, expand, finalize_sweep, render_rows, run_sweep,
    JobRecord, JobStatus, RunOptions, StageOutcome, SweepOutcome, SweepPlan,
};

/// Any failure of the batch engine.
#[derive(Debug)]
pub enum EngineError {
    /// Filesystem failure in the artifact store.
    Io(std::io::Error),
    /// A spec, manifest or artifact did not parse as JSON.
    Parse(mbcr_json::ParseError),
    /// The spec is malformed (bad geometry, empty dimension, …).
    Spec(String),
    /// A benchmark name did not resolve against the registry.
    UnknownBenchmark(String),
    /// An input-vector name did not resolve against its benchmark.
    UnknownInput {
        /// The benchmark searched.
        benchmark: String,
        /// The missing vector name.
        input: String,
    },
    /// The underlying analysis failed for one job.
    Analysis(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io(e) => write!(f, "artifact store I/O failed: {e}"),
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Spec(message) => write!(f, "invalid sweep spec: {message}"),
            EngineError::UnknownBenchmark(name) => {
                write!(f, "unknown benchmark '{name}' (see `mbcr list-benchmarks`)")
            }
            EngineError::UnknownInput { benchmark, input } => {
                write!(f, "benchmark '{benchmark}' has no input vector '{input}'")
            }
            EngineError::Analysis(message) => write!(f, "analysis failed: {message}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Io(e) => Some(e),
            EngineError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl From<mbcr_json::ParseError> for EngineError {
    fn from(e: mbcr_json::ParseError) -> Self {
        EngineError::Parse(e)
    }
}
