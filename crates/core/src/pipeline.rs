//! The combined PUB + TAC + MBPTA pipeline (paper Figure 3).
//!
//! The entry points here are thin wrappers over the stage graph in
//! [`crate::stage`]: each runs an [`AnalysisSession`] to completion with no
//! stage store attached. Drivers that want stage-granular scheduling,
//! caching or resume use the session API directly — both paths produce
//! bit-identical results.

use mbcr_evt::{IidReport, Pwcet};
use mbcr_ir::{Inputs, Program};
use mbcr_pub::PubReport;
use mbcr_tac::TacAnalysis;

use crate::stage::AnalysisSession;
use crate::{AnalysisConfig, AnalyzeError};

/// Plain-MBPTA analysis of the original program (the paper's baseline:
/// "the direct application of MBPTA with neither PUB nor TAC").
#[derive(Debug, Clone)]
pub struct OriginalAnalysis {
    /// Runs until MBPTA convergence (`R_orig`).
    pub r_orig: usize,
    /// Whether convergence was reached within the configured cap.
    pub converged: bool,
    /// The pWCET estimate at the configured exceedance probability.
    pub pwcet_at_exceedance: f64,
    /// The full pWCET curve.
    pub pwcet: Pwcet,
    /// i.i.d. evidence for the final sample.
    pub iid: IidReport,
    /// The trace replayed by the campaign (one path of the original
    /// program).
    pub trace_len: usize,
}

/// Full PUB + TAC analysis of one pubbed path (paper Figure 3).
#[derive(Debug, Clone)]
pub struct PubTacAnalysis {
    /// What PUB inserted.
    pub pub_report: PubReport,
    /// Runs until MBPTA convergence on the pubbed path (`R_pub`).
    pub r_pub: usize,
    /// TAC's requirement over the instruction-cache line stream.
    pub tac_il1: TacAnalysis,
    /// TAC's requirement over the data-cache line stream.
    pub tac_dl1: TacAnalysis,
    /// `R_tac = max(IL1, DL1)` requirement.
    pub r_tac: u64,
    /// `R_pub+tac = max(R_pub, R_tac)` — the paper's combined requirement.
    pub r_pub_tac: u64,
    /// The campaign length actually executed
    /// (`min(R_pub+tac, max_campaign_runs)`, at least `R_pub`).
    pub campaign_runs: usize,
    /// `true` if the campaign was truncated by `max_campaign_runs`.
    pub campaign_capped: bool,
    /// pWCET at the configured exceedance from the `R_pub`-run sample
    /// (the paper's "PUB" column).
    pub pwcet_pub: f64,
    /// pWCET at the configured exceedance from the full campaign
    /// (the paper's "P+T" column).
    pub pwcet_pub_tac: f64,
    /// The pWCET curve of the full campaign.
    pub pwcet: Pwcet,
    /// i.i.d. evidence for the full campaign.
    pub iid: IidReport,
    /// The execution times of the full campaign (for ECCDF plots).
    pub sample: Vec<u64>,
    /// Length of the pubbed path's trace.
    pub trace_len: usize,
}

/// Multipath analysis: several pubbed paths, combined per Corollary 2.
#[derive(Debug, Clone)]
pub struct MultipathAnalysis {
    /// Per-input analyses, in input order.
    pub per_input: Vec<(String, PubTacAnalysis)>,
    /// The per-exceedance minimum across paths (Corollary 2: every pubbed
    /// path's estimate is reliable, so the lowest is the tightest).
    pub best_pwcet: f64,
    /// Name of the input achieving the minimum.
    pub best_input: String,
}

/// Analyses the original program with plain MBPTA (no PUB, no TAC): runs
/// the convergence procedure on the path exercised by `input`.
///
/// # Errors
///
/// See [`AnalyzeError`].
pub fn analyze_original(
    program: &Program,
    input: &Inputs,
    cfg: &AnalysisConfig,
) -> Result<OriginalAnalysis, AnalyzeError> {
    AnalysisSession::original(program, input, cfg).finish_original()
}

/// Runs the paper's full pipeline (Figure 3) on the path of the *pubbed*
/// program selected by `input`:
///
/// 1. apply PUB;
/// 2. execute the pubbed program once to obtain the path's address
///    sequence;
/// 3. apply TAC to the IL1 and DL1 line streams → `R_tac`;
/// 4. run the MBPTA convergence procedure → `R_pub`;
/// 5. execute `max(R_pub, R_tac)` randomized measurement runs (capped by
///    [`AnalysisConfig::max_campaign_runs`]);
/// 6. fit the pWCET.
///
/// # Errors
///
/// See [`AnalyzeError`].
pub fn analyze_pub_tac(
    program: &Program,
    input: &Inputs,
    cfg: &AnalysisConfig,
) -> Result<PubTacAnalysis, AnalyzeError> {
    AnalysisSession::pub_tac(program, input, cfg).finish_pub_tac()
}

/// Analyses several pubbed paths and combines them per Corollary 2: every
/// path's estimate upper-bounds all original paths, so the tightest (lowest)
/// is kept.
///
/// # Errors
///
/// See [`AnalyzeError`]; in particular [`AnalyzeError::EmptyInputs`] when
/// `inputs` is empty (Corollary 2 has nothing to combine).
pub fn analyze_multipath(
    program: &Program,
    inputs: &[(String, Inputs)],
    cfg: &AnalysisConfig,
) -> Result<MultipathAnalysis, AnalyzeError> {
    if inputs.is_empty() {
        return Err(AnalyzeError::EmptyInputs);
    }
    let mut per_input = Vec::with_capacity(inputs.len());
    for (name, input) in inputs {
        let analysis = analyze_pub_tac(program, input, cfg)?;
        per_input.push((name.clone(), analysis));
    }
    let (best, best_pwcet) =
        multipath_min(per_input.iter().map(|(_, a)| a.pwcet_pub_tac)).expect("non-empty inputs");
    Ok(MultipathAnalysis {
        best_input: per_input[best].0.clone(),
        per_input,
        best_pwcet,
    })
}

/// Corollary 2 over per-input pWCETs: every pubbed path's estimate
/// upper-bounds all original paths, so a multipath program's pWCET is the
/// lowest. Returns the position and value of that minimum — the first one
/// on ties, in [`f64::total_cmp`] order — or `None` when `pwcets` is empty.
/// [`analyze_multipath`] and the sweep engine's combine node both call it.
#[must_use]
pub fn multipath_min(pwcets: impl IntoIterator<Item = f64>) -> Option<(usize, f64)> {
    pwcets
        .into_iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbcr_ir::{Expr, ProgramBuilder, Stmt};

    /// A small two-path program with enough cache footprint to vary.
    fn demo_program() -> (Program, mbcr_ir::Var) {
        let mut b = ProgramBuilder::new("demo");
        let big = b.array("big", 256);
        let x = b.var("x");
        let acc = b.var("acc");
        let i = b.var("i");
        b.push(Stmt::for_(
            i,
            Expr::c(0),
            Expr::c(32),
            32,
            vec![Stmt::Assign(
                acc,
                Expr::var(acc).add(Expr::load(big, Expr::var(i).mul(Expr::c(8)))),
            )],
        ));
        b.push(Stmt::if_(
            Expr::var(x).gt(Expr::c(0)),
            vec![Stmt::Assign(
                acc,
                Expr::var(acc).add(Expr::load(big, Expr::c(7))),
            )],
            vec![Stmt::Assign(acc, Expr::var(acc).sub(Expr::c(1)))],
        ));
        (b.build().unwrap(), x)
    }

    fn quick_cfg() -> AnalysisConfig {
        AnalysisConfig::builder()
            .seed(99)
            .quick()
            .threads(2)
            .build()
    }

    #[test]
    fn original_analysis_converges() {
        let (p, x) = demo_program();
        let cfg = quick_cfg();
        let a = analyze_original(&p, &Inputs::new().with_var(x, 1), &cfg).unwrap();
        assert!(a.r_orig >= 200);
        assert!(a.pwcet_at_exceedance > 0.0);
        assert!(a.trace_len > 0);
    }

    #[test]
    fn pub_tac_analysis_is_complete_and_consistent() {
        let (p, x) = demo_program();
        let cfg = quick_cfg();
        let a = analyze_pub_tac(&p, &Inputs::new().with_var(x, 1), &cfg).unwrap();
        assert_eq!(a.sample.len(), a.campaign_runs);
        assert!(a.r_pub_tac >= a.r_pub as u64);
        assert!(a.r_pub_tac >= a.r_tac);
        assert!(a.pwcet_pub_tac > 0.0);
        // The pubbed program inflated the conditional.
        assert_eq!(a.pub_report.constructs.len(), 1);
    }

    #[test]
    fn campaign_cap_is_honoured() {
        let (p, x) = demo_program();
        let cfg = AnalysisConfig::builder()
            .seed(3)
            .quick()
            .max_campaign_runs(800)
            .build();
        let a = analyze_pub_tac(&p, &Inputs::new().with_var(x, 1), &cfg).unwrap();
        assert!(a.campaign_runs <= 800);
        if a.r_pub_tac > 800 {
            assert!(a.campaign_capped);
        }
    }

    #[test]
    fn multipath_takes_the_minimum() {
        let (p, x) = demo_program();
        let cfg = quick_cfg();
        let inputs = vec![
            ("pos".to_string(), Inputs::new().with_var(x, 1)),
            ("neg".to_string(), Inputs::new().with_var(x, -1)),
        ];
        let m = analyze_multipath(&p, &inputs, &cfg).unwrap();
        assert_eq!(m.per_input.len(), 2);
        let min = m
            .per_input
            .iter()
            .map(|(_, a)| a.pwcet_pub_tac)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(m.best_pwcet, min);
        assert!(m.per_input.iter().any(|(n, _)| *n == m.best_input));
    }

    #[test]
    fn multipath_min_keeps_the_first_minimum() {
        assert_eq!(multipath_min([3.0, 1.0, 2.0, 1.0]), Some((1, 1.0)));
        assert_eq!(
            multipath_min([f64::NAN, 2.0]),
            Some((1, 2.0)),
            "NaN sorts last"
        );
        assert_eq!(multipath_min([]), None);
    }

    #[test]
    fn multipath_rejects_empty_inputs() {
        let (p, _) = demo_program();
        let cfg = quick_cfg();
        assert!(matches!(
            analyze_multipath(&p, &[], &cfg),
            Err(AnalyzeError::EmptyInputs)
        ));
    }

    #[test]
    fn deterministic_across_invocations() {
        let (p, x) = demo_program();
        let cfg = quick_cfg();
        let a = analyze_pub_tac(&p, &Inputs::new().with_var(x, 1), &cfg).unwrap();
        let b = analyze_pub_tac(&p, &Inputs::new().with_var(x, 1), &cfg).unwrap();
        assert_eq!(a.sample, b.sample);
        assert_eq!(a.pwcet_pub_tac, b.pwcet_pub_tac);
        assert_eq!(a.r_pub, b.r_pub);
    }
}

mbcr_json::impl_serialize_struct!(OriginalAnalysis {
    r_orig,
    converged,
    pwcet_at_exceedance,
    pwcet,
    iid,
    trace_len,
});
mbcr_json::impl_serialize_struct!(PubTacAnalysis {
    pub_report,
    r_pub,
    tac_il1,
    tac_dl1,
    r_tac,
    r_pub_tac,
    campaign_runs,
    campaign_capped,
    pwcet_pub,
    pwcet_pub_tac,
    pwcet,
    iid,
    trace_len,
} skip {
    sample
});
mbcr_json::impl_serialize_struct!(MultipathAnalysis {
    per_input,
    best_pwcet,
    best_input
});
