//! Exponential-tail pWCET fitting via the coefficient of variation — the
//! MBPTA-CV method (Abella et al., ACM TODAES'17) referenced by the paper as
//! its MBPTA engine.
//!
//! The method models the distribution's tail above a threshold `u` as
//! exponential: `P(X > u + y | X > u) = exp(−y/σ)`. For excesses of an
//! exponential distribution the coefficient of variation (CV = std/mean)
//! equals 1; the fit therefore scans candidate tail sizes and selects the
//! largest one whose excesses have CV within the ±1.96/√n asymptotic
//! confidence band around 1. An exponential tail is the recommended
//! (stable, over-approximating) model for pWCET estimation [Abella'17,
//! Palma RTSS'17].

use crate::stats::{mean, std_dev};

/// Error fitting a tail model.
#[derive(Debug, Clone, PartialEq)]
pub enum EvtError {
    /// Fewer samples than the method needs.
    NotEnoughData {
        /// Minimum required sample size.
        needed: usize,
        /// Provided sample size.
        got: usize,
    },
    /// The sample has (near-)zero variance: a deterministic platform.
    /// pWCET estimation degenerates to the observed constant — represent it
    /// with [`crate::TailModel::Degenerate`] instead of a fit.
    DegenerateSample,
}

impl std::fmt::Display for EvtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvtError::NotEnoughData { needed, got } => {
                write!(
                    f,
                    "not enough data: need at least {needed} samples, got {got}"
                )
            }
            EvtError::DegenerateSample => {
                write!(
                    f,
                    "sample variance is zero: execution time is deterministic"
                )
            }
        }
    }
}

impl std::error::Error for EvtError {}

/// Configuration of the CV tail search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailConfig {
    /// Smallest tail size considered.
    pub min_tail: usize,
    /// Largest tail fraction of the sample considered (e.g. 0.25 → top
    /// quarter).
    pub max_tail_fraction: f64,
    /// Confidence multiplier for the CV acceptance band (1.96 ≈ 95%).
    pub z: f64,
}

impl Default for TailConfig {
    fn default() -> Self {
        Self {
            min_tail: 25,
            max_tail_fraction: 0.25,
            z: 1.96,
        }
    }
}

/// A fitted exponential tail: `P(X > x) = ζ · exp(−(x − u)/σ)` for `x ≥ u`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpTailFit {
    /// Tail threshold (an order statistic of the sample).
    pub u: f64,
    /// Tail scale (mean excess over `u`).
    pub sigma: f64,
    /// Empirical exceedance probability of `u` (tail fraction).
    pub zeta: f64,
    /// Number of tail samples used.
    pub n_tail: usize,
    /// CV of the excesses at the selected threshold.
    pub cv: f64,
    /// `true` if no threshold passed the CV test and the closest-to-1
    /// candidate was used (estimate flagged, not rejected — consistent with
    /// MBPTA practice of reporting the fit quality).
    pub forced: bool,
}

impl ExpTailFit {
    /// The pWCET value at per-run exceedance probability `p`.
    ///
    /// For `p ≥ ζ` the threshold itself is returned (callers combine the
    /// fit with the empirical body via [`crate::Pwcet`]).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            p > 0.0 && p < 1.0,
            "exceedance probability must be in (0, 1)"
        );
        if p >= self.zeta {
            return self.u;
        }
        self.u + self.sigma * (self.zeta / p).ln()
    }

    /// The modelled exceedance probability of value `x`.
    #[must_use]
    pub fn exceedance(&self, x: f64) -> f64 {
        if x <= self.u {
            return self.zeta;
        }
        self.zeta * (-(x - self.u) / self.sigma).exp()
    }
}

/// Fits an exponential tail to a sample by the CV method.
///
/// # Errors
///
/// * [`EvtError::NotEnoughData`] if the sample has fewer than
///   `4 * cfg.min_tail` values;
/// * [`EvtError::DegenerateSample`] if the candidate tails have zero
///   variance (deterministic execution times).
pub fn fit_exp_tail(sample: &[f64], cfg: &TailConfig) -> Result<ExpTailFit, EvtError> {
    let mut sorted = sample.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    fit_sorted_exp_tail(&sorted, cfg)
}

/// [`fit_exp_tail`] over a sample already sorted ascending by
/// [`f64::total_cmp`]: the core that [`crate::Pwcet::fit`] and
/// [`crate::converge`] share with it.
pub(crate) fn fit_sorted_exp_tail(
    sorted: &[f64],
    cfg: &TailConfig,
) -> Result<ExpTailFit, EvtError> {
    let n = sorted.len();
    let needed = cfg.min_tail * 4;
    if n < needed {
        return Err(EvtError::NotEnoughData { needed, got: n });
    }

    let max_tail = ((n as f64 * cfg.max_tail_fraction) as usize).max(cfg.min_tail);
    // Geometric sweep of candidate tail sizes, largest first (more tail data
    // preferred when accepted).
    let mut candidates = Vec::new();
    let mut t = max_tail;
    while t >= cfg.min_tail {
        candidates.push(t);
        t = (t * 4) / 5;
        if t == 0 {
            break;
        }
    }

    let mut best: Option<ExpTailFit> = None;
    let mut all_degenerate = true;
    let mut excesses = Vec::with_capacity(max_tail);
    for &nt in &candidates {
        // Threshold just below the tail (nt <= n/4, so the index is valid).
        let u = sorted[n - nt - 1];
        // Each candidate sums its own excesses from the threshold up:
        // prefix sums over the sorted sample would round differently and
        // can flip a CV acceptance.
        excesses.clear();
        excesses.extend(sorted[n - nt..].iter().map(|&x| x - u));
        let m = mean(&excesses);
        if m <= 0.0 {
            continue; // all tail values tied with the threshold
        }
        all_degenerate = false;
        let cv = std_dev(&excesses) / m;
        let band = cfg.z / (nt as f64).sqrt();
        let fit = ExpTailFit {
            u,
            sigma: m,
            zeta: nt as f64 / n as f64,
            n_tail: nt,
            cv,
            forced: false,
        };
        if (cv - 1.0).abs() <= band {
            return Ok(fit);
        }
        match &best {
            Some(b) if (b.cv - 1.0).abs() <= (cv - 1.0).abs() => {}
            _ => {
                best = Some(ExpTailFit {
                    forced: true,
                    ..fit
                })
            }
        }
    }
    if all_degenerate {
        return Err(EvtError::DegenerateSample);
    }
    best.ok_or(EvtError::DegenerateSample)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbcr_rng::{Rng64, Xoshiro256PlusPlus};

    fn exp_sample(n: usize, rate: f64, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256PlusPlus::from_seed(seed);
        (0..n).map(|_| 100.0 + rng.exponential(rate)).collect()
    }

    #[test]
    fn recovers_exponential_quantiles() {
        // Pure shifted exponential: quantile at p is 100 + ln(1/p)/rate.
        let rate = 0.05;
        let sample = exp_sample(20_000, rate, 42);
        let fit = fit_exp_tail(&sample, &TailConfig::default()).unwrap();
        assert!(!fit.forced, "CV test should accept an exponential tail");
        for p in [1e-6, 1e-9, 1e-12] {
            let estimated = fit.quantile(p);
            let truth = 100.0 + (1.0 / p).ln() / rate;
            let rel = (estimated - truth).abs() / truth;
            assert!(rel < 0.15, "p={p}: est {estimated:.1} vs truth {truth:.1}");
        }
    }

    #[test]
    fn quantile_is_monotone_in_p() {
        let sample = exp_sample(5_000, 0.1, 7);
        let fit = fit_exp_tail(&sample, &TailConfig::default()).unwrap();
        let q9 = fit.quantile(1e-9);
        let q12 = fit.quantile(1e-12);
        assert!(q12 > q9);
        assert!(fit.quantile(0.9) <= q9);
    }

    #[test]
    fn exceedance_inverts_quantile() {
        let sample = exp_sample(5_000, 0.1, 9);
        let fit = fit_exp_tail(&sample, &TailConfig::default()).unwrap();
        for p in [1e-4, 1e-7, 1e-10] {
            let x = fit.quantile(p);
            assert!((fit.exceedance(x) - p).abs() / p < 1e-9);
        }
    }

    #[test]
    fn not_enough_data_error() {
        let err = fit_exp_tail(&[1.0; 10], &TailConfig::default()).unwrap_err();
        assert!(matches!(err, EvtError::NotEnoughData { .. }));
        assert!(err.to_string().contains("not enough data"));
    }

    #[test]
    fn degenerate_sample_error() {
        let sample = vec![500.0; 1000];
        let err = fit_exp_tail(&sample, &TailConfig::default()).unwrap_err();
        assert_eq!(err, EvtError::DegenerateSample);
    }

    #[test]
    fn heavy_tail_is_flagged_forced() {
        // A very heavy (Pareto-like) tail: CV of excesses > 1 at all sizes.
        let mut rng = Xoshiro256PlusPlus::from_seed(3);
        let sample: Vec<f64> = (0..20_000)
            .map(|_| {
                let u = (1.0 - rng.next_f64()).max(1e-12);
                100.0 * u.powf(-2.0) // alpha = 0.5: infinite variance
            })
            .collect();
        let fit = fit_exp_tail(&sample, &TailConfig::default()).unwrap();
        assert!(fit.forced, "CV = {} should fail the band", fit.cv);
        assert!(fit.cv > 1.0);
    }

    #[test]
    fn matches_the_from_scratch_reference() {
        let mut rng = Xoshiro256PlusPlus::from_seed(13);
        let tied: Vec<f64> = exp_sample(3_000, 0.02, 5)
            .iter()
            .map(|x| (x / 30.0).floor() * 30.0)
            .collect();
        let heavy: Vec<f64> = (0..2_000)
            .map(|_| 100.0 * (1.0 - rng.next_f64()).max(1e-12).powf(-2.0))
            .collect();
        let configs = [
            TailConfig::default(),
            TailConfig {
                min_tail: 2,
                ..TailConfig::default()
            },
        ];
        for (label, sample) in [
            ("exponential", exp_sample(5_001, 0.1, 17)),
            ("tied", tied),
            ("heavy", heavy),
            ("constant", vec![500.0; 400]),
            ("short", exp_sample(9, 0.1, 3)),
        ] {
            for cfg in &configs {
                assert_eq!(
                    format!("{:?}", fit_exp_tail(&sample, cfg)),
                    format!("{:?}", crate::oracle::fit_exp_tail(&sample, cfg)),
                    "{label}, min_tail {}",
                    cfg.min_tail
                );
            }
        }
    }

    #[test]
    fn fit_is_deterministic() {
        let sample = exp_sample(5_000, 0.2, 11);
        let a = fit_exp_tail(&sample, &TailConfig::default()).unwrap();
        let b = fit_exp_tail(&sample, &TailConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}

mbcr_json::impl_serialize_struct!(ExpTailFit {
    u,
    sigma,
    zeta,
    n_tail,
    cv,
    forced
});
