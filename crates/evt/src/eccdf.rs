//! Empirical Complementary Cumulative Distribution Functions — the curves of
//! the paper's Figures 2 and 4.

/// An ECCDF over a sample of execution times.
///
/// `eccdf(x) = #{ samples > x } / n` — the empirical per-run exceedance
/// probability.
///
/// # Examples
///
/// ```
/// use mbcr_evt::Eccdf;
/// let e = Eccdf::from_u64(&[10, 20, 20, 40]);
/// assert_eq!(e.exceedance(9.0), 1.0);
/// assert_eq!(e.exceedance(20.0), 0.25);
/// assert_eq!(e.exceedance(40.0), 0.0);
/// assert_eq!(e.max(), 40.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Eccdf {
    sorted: Vec<f64>,
}

impl Eccdf {
    /// Builds an ECCDF from a sample (values are copied and sorted).
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains NaN.
    #[must_use]
    pub fn new(sample: &[f64]) -> Self {
        assert!(!sample.is_empty(), "ECCDF needs a non-empty sample");
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in ECCDF sample"));
        Self { sorted }
    }

    /// Builds an ECCDF from cycle counts.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty.
    #[must_use]
    pub fn from_u64(sample: &[u64]) -> Self {
        assert!(!sample.is_empty(), "ECCDF needs a non-empty sample");
        let mut sorted: Vec<f64> = sample.iter().map(|&v| v as f64).collect();
        sorted.sort_by(f64::total_cmp);
        Self { sorted }
    }

    /// Wraps values already sorted ascending by [`f64::total_cmp`].
    pub(crate) fn from_sorted(sorted: Vec<f64>) -> Self {
        debug_assert!(sorted.is_sorted_by(|a, b| a.total_cmp(b).is_le()));
        Self { sorted }
    }

    /// Merges `fresh`, sorted ascending by [`f64::total_cmp`], into the
    /// sample: one binary search and one block move per fresh value, no
    /// re-sort. Values that `total_cmp` calls equal have equal bits, so the
    /// result is the sorted union bit for bit.
    pub(crate) fn merge(&mut self, fresh: Vec<f64>) {
        if self.sorted.is_empty() {
            self.sorted = fresh;
            return;
        }
        let mut end = self.sorted.len();
        self.sorted.resize(end + fresh.len(), 0.0);
        for (k, &x) in fresh.iter().enumerate().rev() {
            // Old values above x move past it and the k fresh values below it.
            let at = self.sorted[..end].partition_point(|v| v.total_cmp(&x).is_le());
            self.sorted.copy_within(at..end, at + k + 1);
            self.sorted[at + k] = x;
            end = at;
        }
    }

    /// Sample size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false` (construction rejects empty samples); provided for
    /// API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Empirical exceedance probability `P(X > x)`.
    #[must_use]
    pub fn exceedance(&self, x: f64) -> f64 {
        // partition_point gives the count of samples <= x.
        let le = self.sorted.partition_point(|&v| v <= x);
        (self.sorted.len() - le) as f64 / self.sorted.len() as f64
    }

    /// The value at exceedance probability `p`: the smallest sample value
    /// `x` with `eccdf(x) <= p`. For `p` below `1/n` this is the sample
    /// maximum (the empirical curve cannot extrapolate — that is EVT's job).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            p > 0.0 && p <= 1.0,
            "exceedance probability must be in (0, 1]"
        );
        let n = self.sorted.len();
        // Need #{ > x } <= p*n: the largest count k with k/n <= p may
        // leave more than k samples above x only if x is too small, so
        // index n - k is the answer. `floor(p * n)` alone under-counts k
        // when the product lands one ULP below an integer (0.29 * 100 ==
        // 28.999999999999996), so correct the seed by the exact k/n <= p
        // comparison in both directions.
        let mut allowed_above = ((p * n as f64).floor() as usize).min(n);
        while allowed_above < n && (allowed_above + 1) as f64 / n as f64 <= p {
            allowed_above += 1;
        }
        while allowed_above > 0 && allowed_above as f64 / n as f64 > p {
            allowed_above -= 1;
        }
        let idx = n - allowed_above;
        self.sorted[idx.min(n - 1)]
    }

    /// Minimum observed value.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum observed value.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// Sample mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// The sorted sample (ascending).
    #[must_use]
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }

    /// At most `max_points` (x, eccdf(x)) pairs for plotting, always
    /// including the extremes.
    #[must_use]
    pub fn points(&self, max_points: usize) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let max_points = max_points.max(2);
        // Reserve one slot for the appended maximum: ceil(n / step) sampled
        // points never exceed max_points - 1, so the total honors the cap.
        let step = n.div_ceil(max_points - 1).max(1);
        let mut out = Vec::with_capacity(max_points);
        let mut i = 0;
        while i < n {
            out.push((self.sorted[i], (n - i - 1) as f64 / n as f64));
            i += step;
        }
        let last = (self.sorted[n - 1], 0.0);
        if out.last() != Some(&last) {
            out.push(last);
        }
        out
    }

    /// Returns `true` if `self` upper-bounds `other` at every probed
    /// exceedance probability: for each probability `p` in `probes`,
    /// `self.quantile(p) >= other.quantile(p) - slack`.
    ///
    /// This is the empirical check of the paper's Equation 1 / Figure 2
    /// (each pubbed path's ECCDF lies right of every original path's).
    #[must_use]
    pub fn dominates(&self, other: &Eccdf, probes: &[f64], slack: f64) -> bool {
        probes
            .iter()
            .all(|&p| self.quantile(p) >= other.quantile(p) - slack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exceedance_steps() {
        let e = Eccdf::from_u64(&[1, 2, 3, 4]);
        assert_eq!(e.exceedance(0.0), 1.0);
        assert_eq!(e.exceedance(1.0), 0.75);
        assert_eq!(e.exceedance(2.5), 0.5);
        assert_eq!(e.exceedance(4.0), 0.0);
    }

    #[test]
    fn quantile_inverts_exceedance() {
        let e = Eccdf::from_u64(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(e.quantile(1.0), 10.0);
        assert_eq!(e.quantile(0.5), 60.0);
        assert_eq!(e.quantile(0.1), 100.0);
        // Below 1/n resolution: the maximum.
        assert_eq!(e.quantile(0.01), 100.0);
        // Consistency: eccdf(quantile(p)) <= p.
        for p in [1.0, 0.7, 0.5, 0.2, 0.1] {
            assert!(e.exceedance(e.quantile(p)) <= p + 1e-12);
        }
    }

    #[test]
    fn quantile_survives_floats_that_land_just_below_an_integer() {
        // 0.29 * 100 == 28.999999999999996: a plain floor would allow only
        // 28 samples above and return sorted[72] instead of sorted[71].
        let sample: Vec<u64> = (1..=100).collect();
        let e = Eccdf::from_u64(&sample);
        assert_eq!(e.quantile(0.29), 72.0, "29 samples (73..=100) may exceed");
        assert_eq!(e.exceedance(72.0), 0.28);

        // Adversarial (p, n) pairs checked against an exact integer
        // reference: the largest k with k/n <= p, found by linear search.
        for n in [1usize, 3, 7, 10, 50, 100, 1000] {
            let sample: Vec<u64> = (0..n as u64).collect();
            let e = Eccdf::from_u64(&sample);
            for p in [0.01, 0.07, 0.1, 0.13, 0.29, 0.3, 0.58, 0.7, 0.999, 1.0] {
                let k = (0..=n)
                    .rev()
                    .find(|&k| k as f64 / n as f64 <= p)
                    .expect("k = 0 always qualifies");
                let expected = e.sorted_values()[(n - k).min(n - 1)];
                assert_eq!(e.quantile(p), expected, "p={p}, n={n}");
                // The defining inequality, on the nose.
                assert!(e.exceedance(e.quantile(p)) <= p, "p={p}, n={n}");
            }
        }
    }

    #[test]
    fn quantile_with_ties() {
        let e = Eccdf::from_u64(&[5, 5, 5, 9]);
        assert_eq!(e.quantile(0.25), 9.0);
        assert_eq!(e.quantile(1.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sample_panics() {
        let _ = Eccdf::from_u64(&[]);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn zero_probability_panics() {
        let e = Eccdf::from_u64(&[1]);
        let _ = e.quantile(0.0);
    }

    #[test]
    fn summary_stats() {
        let e = Eccdf::from_u64(&[4, 1, 3, 2]);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 4.0);
        assert!((e.mean() - 2.5).abs() < 1e-12);
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
    }

    #[test]
    fn points_cover_extremes() {
        let sample: Vec<u64> = (0..1000).collect();
        let e = Eccdf::from_u64(&sample);
        let pts = e.points(50);
        assert!(pts.len() <= 50, "the documented cap is a hard bound");
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts.last().unwrap().0, 999.0);
        assert_eq!(pts.last().unwrap().1, 0.0);
        // Probabilities non-increasing.
        assert!(pts.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn points_honor_the_cap_for_awkward_sizes() {
        // Sizes that used to produce max_points + 2 (step truncation plus
        // the appended extreme), across a spread of caps.
        for n in [1usize, 2, 3, 49, 50, 51, 52, 100, 101, 999, 1000, 1001] {
            let sample: Vec<u64> = (0..n as u64).collect();
            let e = Eccdf::from_u64(&sample);
            for cap in [2usize, 3, 5, 50, 52] {
                let pts = e.points(cap);
                assert!(
                    pts.len() <= cap,
                    "n={n}, cap={cap}: got {} points",
                    pts.len()
                );
                assert_eq!(pts[0].0, 0.0, "n={n}, cap={cap}");
                assert_eq!(pts.last().unwrap().0, (n - 1) as f64, "n={n}, cap={cap}");
                assert_eq!(pts.last().unwrap().1, 0.0);
            }
        }
    }

    #[test]
    fn merge_equals_a_full_sort() {
        use mbcr_rng::{Rng64, Xoshiro256PlusPlus};
        let mut rng = Xoshiro256PlusPlus::from_seed(3);
        // Heavy ties, fresh values below, between and above the old ones.
        let mut all: Vec<f64> = (0..40).map(|_| rng.below(9) as f64).collect();
        let mut e = Eccdf::from_sorted(Vec::new());
        for cut in [0, 1, 7, 7, 20, 40] {
            let mut fresh = all[e.len()..cut].to_vec();
            fresh.sort_by(f64::total_cmp);
            e.merge(fresh);
            let mut expected = all[..cut].to_vec();
            expected.sort_by(f64::total_cmp);
            assert_eq!(e.sorted_values(), &expected[..], "after {cut} values");
        }
        all.sort_by(f64::total_cmp);
        assert_eq!(e.sorted_values(), &all[..]);
    }

    #[test]
    fn dominance() {
        let lo = Eccdf::from_u64(&[10, 20, 30]);
        let hi = Eccdf::from_u64(&[15, 25, 35]);
        let probes = [1.0, 0.6, 0.3];
        assert!(hi.dominates(&lo, &probes, 0.0));
        assert!(!lo.dominates(&hi, &probes, 0.0));
        assert!(lo.dominates(&hi, &probes, 5.0), "slack absorbs the gap");
        assert!(lo.dominates(&lo, &probes, 0.0), "reflexive");
    }
}
