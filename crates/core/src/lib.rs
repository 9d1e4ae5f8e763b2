//! # mbcr — Measurement-Based Cache Representativeness on Multipath Programs
//!
//! A library implementation of Milutinovic, Abella, Mezzetti & Cazorla,
//! *"Measurement-Based Cache Representativeness on Multipath Programs"*
//! (DAC 2018): the first method achieving **full path coverage** and
//! **cache-layout representativeness** simultaneously in measurement-based
//! probabilistic timing analysis (MBPTA).
//!
//! The pipeline (paper Figure 3):
//!
//! ```text
//! P_orig ──PUB──▶ P_pub ──execute(input v_j)──▶ address sequence M_pub^j
//!                                                      │
//!                                              TAC ────┴──▶ R_pub+tac
//!                                                      │
//!                    R randomized measurement runs ◀───┘
//!                                │
//!                            MBPTA (EVT) ──▶ pWCET upper-bounding *all*
//!                                            paths under *all* relevant
//!                                            cache layouts
//! ```
//!
//! * [`analyze_original`] — the baseline: plain MBPTA on one path of the
//!   original program;
//! * [`analyze_pub_tac`] — the paper's contribution: PUB + TAC + MBPTA on a
//!   pubbed path;
//! * [`analyze_multipath`] — several pubbed paths combined per Corollary 2
//!   (the per-exceedance minimum, trading analysis cost for tightness).
//!
//! All three are thin wrappers over the **stage graph** in [`stage`]: the
//! pipeline decomposed into typed, digest-keyed, resumable stages
//! (PUB → trace → TAC per cache → convergence → campaign → fit) driven by
//! [`stage::AnalysisSession`]. Batch drivers schedule and cache at stage
//! granularity; the wrappers and the staged path are bit-identical.
//!
//! The substrate crates are re-exported under [`prelude`] and as modules:
//! the time-randomized cache simulator (`mbcr-cache`), the in-order CPU
//! timing model (`mbcr-cpu`), the program IR (`mbcr-ir`), PUB (`mbcr-pub`),
//! TAC (`mbcr-tac`) and the EVT statistics (`mbcr-evt`).
//!
//! # Examples
//!
//! ```
//! use mbcr::prelude::*;
//! use mbcr_ir::{Expr, ProgramBuilder, Stmt};
//!
//! // A toy two-path program…
//! let mut b = ProgramBuilder::new("toy");
//! let table = b.array("table", 64);
//! let (x, y, i) = (b.var("x"), b.var("y"), b.var("i"));
//! b.push(Stmt::for_(i, Expr::c(0), Expr::c(16), 16, vec![
//!     Stmt::Assign(y, Expr::var(y).add(Expr::load(table, Expr::var(i).mul(Expr::c(4))))),
//! ]));
//! b.push(Stmt::if_(
//!     Expr::var(x).gt(Expr::c(0)),
//!     vec![Stmt::Assign(y, Expr::load(table, Expr::c(0)))],
//!     vec![],
//! ));
//! let program = b.build()?;
//!
//! // …analysed with the full PUB + TAC + MBPTA pipeline.
//! let cfg = AnalysisConfig::builder().seed(1).quick().build();
//! let analysis = analyze_pub_tac(&program, &Inputs::new().with_var(x, 1), &cfg).unwrap();
//! assert!(analysis.pwcet_pub_tac >= analysis.sample.iter().copied().max().unwrap() as f64 * 0.9);
//! # Ok::<(), mbcr_ir::ProgramError>(())
//! ```

mod config;
mod error;
mod pipeline;
mod report;
pub mod stage;

pub use config::{AnalysisConfig, AnalysisConfigBuilder, TacTuning};
pub use error::AnalyzeError;
pub use pipeline::{
    analyze_multipath, analyze_original, analyze_pub_tac, multipath_min, MultipathAnalysis,
    OriginalAnalysis, PubTacAnalysis,
};
pub use report::{render_curve, render_report};
pub use stage::{
    campaign_runs_for, AnalysisSession, AnalysisStage, PipelineKind, StageDigests, StageKind,
    StageStatus, StageStore,
};

/// One-stop imports for the typical analysis session.
pub mod prelude {
    pub use crate::{
        analyze_multipath, analyze_original, analyze_pub_tac, AnalysisConfig, AnalyzeError,
        MultipathAnalysis, OriginalAnalysis, PubTacAnalysis, TacTuning,
    };
    pub use mbcr_cache::{Cache, CacheGeometry, PlacementPolicy, ReplacementPolicy};
    pub use mbcr_cpu::{
        campaign_slice_with, CompiledCampaign, LatencyConfig, Parallelism, Platform, PlatformConfig,
    };
    pub use mbcr_evt::{ConvergenceConfig, Dither, Eccdf, FitMethod, Pwcet, TailConfig};
    pub use mbcr_ir::{execute, Expr, Inputs, Program, ProgramBuilder, Stmt};
    pub use mbcr_pub::{pub_transform, PubConfig};
    pub use mbcr_tac::{analyze_lines as tac_analyze_lines, TacConfig};
}
