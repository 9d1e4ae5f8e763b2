//! Independence and identical-distribution tests.
//!
//! MBPTA requires its input measurements to be i.i.d. (paper Section 2);
//! on the simulated platform this holds by construction (independent
//! placement seeds per run), and these tests provide the standard evidence:
//!
//! * [`ks_two_sample`] — identical distribution (first half vs second half);
//! * [`ljung_box`] — absence of autocorrelation;
//! * [`runs_test`] — Wald–Wolfowitz randomness above/below the median.

use crate::stats::{chi2_sf, kolmogorov_sf, mean, normal_two_sided_p, variance};

/// Result of a single statistical test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The test statistic.
    pub statistic: f64,
    /// Asymptotic p-value.
    pub p_value: f64,
}

/// Two-sample Kolmogorov–Smirnov test.
///
/// Returns the KS statistic (max CDF distance) and its asymptotic p-value.
/// Used split-half to check that early and late measurements follow the
/// same distribution.
///
/// # Panics
///
/// Panics if either sample is empty.
#[must_use]
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> TestResult {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "KS test needs non-empty samples"
    );
    // Values that `total_cmp` calls equal have equal bits, so an unstable
    // sort orders them exactly as a stable one.
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_unstable_by(f64::total_cmp);
    sb.sort_unstable_by(f64::total_cmp);
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < sa.len() && j < sb.len() {
        let x = sa[i].min(sb[j]);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    let ne = (na * nb / (na + nb)).sqrt();
    // Asymptotic p-value with the standard small-sample correction.
    let lambda = (ne + 0.12 + 0.11 / ne) * d;
    TestResult {
        statistic: d,
        p_value: kolmogorov_sf(lambda),
    }
}

/// Ljung–Box portmanteau test for autocorrelation up to `lags`.
///
/// The statistic is `n(n+2) Σ_k ρ_k²/(n−k)`, chi-square with `lags` degrees
/// of freedom under independence.
///
/// # Panics
///
/// Panics if `lags == 0` or the sample is shorter than `lags + 2`.
#[must_use]
pub fn ljung_box(sample: &[f64], lags: usize) -> TestResult {
    assert!(lags > 0, "ljung_box needs at least one lag");
    assert!(
        sample.len() > lags + 1,
        "sample too short for the requested lags"
    );
    let n = sample.len() as f64;
    let m = mean(sample);
    // Centred once for every lag; each sum keeps its index order.
    let centred: Vec<f64> = sample.iter().map(|x| x - m).collect();
    let denom: f64 = centred.iter().map(|c| c * c).sum();
    if denom == 0.0 {
        // Constant series: no evidence of autocorrelation.
        return TestResult {
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    let mut q = 0.0;
    for k in 1..=lags {
        let num: f64 = centred.iter().zip(&centred[k..]).map(|(a, b)| a * b).sum();
        let rho = num / denom;
        q += rho * rho / (n - k as f64);
    }
    q *= n * (n + 2.0);
    TestResult {
        statistic: q,
        p_value: chi2_sf(q, lags as u32),
    }
}

/// Wald–Wolfowitz runs test: counts runs above/below the median and
/// compares with the normal approximation of the run-count distribution.
///
/// Values equal to the median are dropped (standard practice). Samples with
/// fewer than two non-median values carry no evidence either way and report
/// a p-value of 1.
///
/// # Panics
///
/// Panics if the sample is empty.
#[must_use]
pub fn runs_test(sample: &[f64]) -> TestResult {
    assert!(!sample.is_empty(), "runs test needs a non-empty sample");
    // The upper median: the value a sort would put at index n / 2.
    let mut scratch = sample.to_vec();
    let (_, &mut median, _) = scratch.select_nth_unstable_by(sample.len() / 2, f64::total_cmp);
    let signs: Vec<bool> = sample
        .iter()
        .filter(|&&x| x != median)
        .map(|&x| x > median)
        .collect();
    if signs.len() < 2 {
        return TestResult {
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    let n1 = signs.iter().filter(|&&s| s).count() as f64;
    let n2 = signs.len() as f64 - n1;
    if n1 == 0.0 || n2 == 0.0 {
        // After dropping median ties only one side remains — common for
        // heavily discrete samples whose mode is the median. The run
        // structure is degenerate and carries no evidence of dependence.
        return TestResult {
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    let runs = 1.0 + signs.windows(2).filter(|w| w[0] != w[1]).count() as f64;
    let expected = 2.0 * n1 * n2 / (n1 + n2) + 1.0;
    let var = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2) / ((n1 + n2) * (n1 + n2) * (n1 + n2 - 1.0));
    if var <= 0.0 {
        return TestResult {
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    let z = (runs - expected) / var.sqrt();
    TestResult {
        statistic: z,
        p_value: normal_two_sided_p(z),
    }
}

/// The smallest sample [`IidReport::evaluate`] accepts.
pub(crate) const MIN_SAMPLES: usize = 12;

/// Combined i.i.d. evidence for one measurement sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IidReport {
    /// Split-half KS test (identical distribution).
    pub ks: TestResult,
    /// Ljung–Box test (independence).
    pub ljung_box: TestResult,
    /// Runs test (randomness).
    pub runs: TestResult,
}

impl IidReport {
    /// Runs all three tests on a sample (KS on first vs second half,
    /// Ljung–Box with 20 lags or n/5 if smaller).
    ///
    /// # Panics
    ///
    /// Panics if the sample has fewer than 12 values.
    #[must_use]
    pub fn evaluate(sample: &[f64]) -> Self {
        assert!(
            sample.len() >= MIN_SAMPLES,
            "IID evaluation needs at least {MIN_SAMPLES} samples"
        );
        let half = sample.len() / 2;
        let lags = (sample.len() / 5).clamp(2, 20);
        // A constant sample is trivially i.i.d.: every test reports "no
        // evidence against".
        if variance(sample) == 0.0 {
            let pass = TestResult {
                statistic: 0.0,
                p_value: 1.0,
            };
            return Self {
                ks: pass,
                ljung_box: pass,
                runs: pass,
            };
        }
        Self {
            ks: ks_two_sample(&sample[..half], &sample[half..]),
            ljung_box: ljung_box(sample, lags),
            runs: runs_test(sample),
        }
    }

    /// `true` if no test rejects at significance `alpha`.
    #[must_use]
    pub fn passed(&self, alpha: f64) -> bool {
        self.ks.p_value >= alpha && self.ljung_box.p_value >= alpha && self.runs.p_value >= alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbcr_rng::{Rng64, Xoshiro256PlusPlus};

    fn iid_sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256PlusPlus::from_seed(seed);
        (0..n).map(|_| rng.gaussian()).collect()
    }

    #[test]
    fn ks_accepts_same_distribution() {
        let a = iid_sample(2000, 1);
        let b = iid_sample(2000, 2);
        let r = ks_two_sample(&a, &b);
        assert!(r.p_value > 0.01, "p = {}", r.p_value);
    }

    #[test]
    fn ks_rejects_shifted_distribution() {
        let a = iid_sample(2000, 1);
        let b: Vec<f64> = iid_sample(2000, 2).iter().map(|x| x + 1.0).collect();
        let r = ks_two_sample(&a, &b);
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
        assert!(r.statistic > 0.3);
    }

    #[test]
    fn ljung_box_accepts_iid() {
        let r = ljung_box(&iid_sample(3000, 3), 20);
        assert!(r.p_value > 0.01, "p = {}", r.p_value);
    }

    #[test]
    fn ljung_box_rejects_autocorrelated() {
        // AR(1) with strong coefficient.
        let mut rng = Xoshiro256PlusPlus::from_seed(4);
        let mut x = 0.0;
        let sample: Vec<f64> = (0..2000)
            .map(|_| {
                x = 0.8 * x + rng.gaussian();
                x
            })
            .collect();
        let r = ljung_box(&sample, 10);
        assert!(r.p_value < 1e-9, "p = {}", r.p_value);
    }

    #[test]
    fn runs_test_accepts_random_rejects_trend() {
        let r = runs_test(&iid_sample(1000, 5));
        assert!(r.p_value > 0.01, "p = {}", r.p_value);
        // A monotone ramp has exactly 2 runs.
        let ramp: Vec<f64> = (0..1000).map(f64::from).collect();
        let r = runs_test(&ramp);
        assert!(r.p_value < 1e-9, "p = {}", r.p_value);
    }

    #[test]
    fn iid_report_on_good_sample() {
        let rep = IidReport::evaluate(&iid_sample(2000, 6));
        assert!(rep.passed(0.01));
    }

    #[test]
    fn iid_report_on_constant_sample() {
        let rep = IidReport::evaluate(&vec![42.0; 100]);
        assert!(rep.passed(0.05), "constant sample is trivially iid");
    }

    #[test]
    fn false_positive_rate_is_calibrated() {
        // At alpha = 5%, each test should reject roughly 5% of truly iid
        // samples; the combined report at most ~15%. Check it's not wildly
        // off (which would indicate broken p-values).
        let trials = 200;
        let rejections = (0..trials)
            .filter(|&t| !IidReport::evaluate(&iid_sample(400, 100 + t)).passed(0.05))
            .count();
        let rate = rejections as f64 / f64::from(trials as u32);
        assert!(rate < 0.30, "rejection rate = {rate}");
    }

    #[test]
    fn kernels_match_the_reference_bodies() {
        use crate::oracle;
        let mut rng = Xoshiro256PlusPlus::from_seed(21);
        for n in [12usize, 13, 400, 401] {
            let random = iid_sample(n, n as u64);
            let tied: Vec<f64> = (0..n).map(|_| (rng.below(4) * 30) as f64).collect();
            let constant = vec![7.0; n];
            for (label, s) in [("random", random), ("tied", tied), ("constant", constant)] {
                let half = n / 2;
                let lags = (n / 5).clamp(2, 20);
                let pairs = [
                    (
                        ks_two_sample(&s[..half], &s[half..]),
                        oracle::ks_two_sample(&s[..half], &s[half..]),
                    ),
                    (ljung_box(&s, lags), oracle::ljung_box(&s, lags)),
                    (runs_test(&s), oracle::runs_test(&s)),
                ];
                for (new, old) in pairs {
                    assert_eq!(format!("{new:?}"), format!("{old:?}"), "{label}, n = {n}");
                }
                assert_eq!(
                    format!("{:?}", IidReport::evaluate(&s)),
                    format!("{:?}", oracle::iid_evaluate(&s)),
                    "{label}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn discrete_samples_do_not_crash() {
        let mut rng = Xoshiro256PlusPlus::from_seed(8);
        let sample: Vec<f64> = (0..500).map(|_| (rng.below(3) * 100) as f64).collect();
        let rep = IidReport::evaluate(&sample);
        // Just sanity: p-values are probabilities.
        for r in [rep.ks, rep.ljung_box, rep.runs] {
            assert!((0.0..=1.0).contains(&r.p_value));
        }
    }
}

mbcr_json::impl_serialize_struct!(TestResult { statistic, p_value });
mbcr_json::impl_serialize_struct!(IidReport {
    ks,
    ljung_box,
    runs
});
