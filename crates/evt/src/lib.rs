//! MBPTA statistics: ECCDFs, EVT tail fits, i.i.d. tests and the
//! convergence procedure.
//!
//! Measurement-Based Probabilistic Timing Analysis (paper Section 2)
//! "applies Extreme Value Theory on a set of execution time measurements,
//! which must meet certain statistical properties (e.g. independence and
//! identical distribution), and determines the best set of maxima values of
//! the sample to be used to estimate the pWCET". This crate implements each
//! ingredient:
//!
//! * [`Eccdf`] — empirical complementary CDFs (Figures 2 and 4);
//! * [`fit_exp_tail`] — the coefficient-of-variation exponential-tail
//!   method (Abella et al., TODAES'17), the MBPTA engine the paper builds
//!   on;
//! * [`fit_gumbel`] — classical block-maxima Gumbel fitting for
//!   comparison (Palma et al., RTSS'17);
//! * [`Pwcet`] — the combined estimate: empirical body + extrapolated tail,
//!   queried at any exceedance probability (the paper reports 10⁻¹²);
//! * [`IidReport`] — Kolmogorov–Smirnov, Ljung–Box and runs tests;
//! * [`converge`] — the iterative campaign-sizing procedure producing
//!   `R_orig` / `R_pub`. It refits after every step without starting
//!   from scratch: it keeps one dithered sample, sorted, merges each
//!   step's new runs into it, and runs the i.i.d. tests only where their
//!   verdict is read. Each refit is bit for bit a fresh [`Pwcet::fit`]
//!   of the sample so far, and each verdict a fresh
//!   [`IidReport::evaluate`];
//! * [`stats`] — the underlying special functions (own implementations —
//!   no external statistics dependency, bit-stable results).
//!
//! # Examples
//!
//! ```
//! use mbcr_evt::{converge, ConvergenceConfig};
//! use mbcr_rng::{Rng64, Xoshiro256PlusPlus};
//!
//! // A synthetic MBPTA campaign over an exponential-tailed platform.
//! let mut rng = Xoshiro256PlusPlus::from_seed(1);
//! let outcome = converge(
//!     |count| (0..count).map(|_| 2000 + rng.exponential(0.01) as u64).collect(),
//!     &ConvergenceConfig::default(),
//! )?;
//! assert!(outcome.converged);
//! println!(
//!     "R = {} runs, pWCET@1e-12 = {:.0} cycles",
//!     outcome.runs,
//!     outcome.pwcet.quantile(1e-12),
//! );
//! # Ok::<(), mbcr_evt::EvtError>(())
//! ```

mod convergence;
mod eccdf;
mod exp_tail;
mod gumbel;
pub mod iid;
#[cfg(test)]
mod oracle;
mod pwcet;
pub mod stats;

pub use convergence::{converge, ConvergenceConfig, ConvergenceOutcome};
pub use eccdf::Eccdf;
pub use exp_tail::{fit_exp_tail, EvtError, ExpTailFit, TailConfig};
pub use gumbel::{fit_gumbel, GumbelFit};
pub use iid::IidReport;
pub use pwcet::{Dither, FitMethod, Pwcet, TailModel};
