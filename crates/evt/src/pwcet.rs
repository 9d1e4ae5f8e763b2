//! pWCET curves: empirical body + fitted tail.

use crate::eccdf::Eccdf;
use crate::exp_tail::{fit_sorted_exp_tail, EvtError, ExpTailFit, TailConfig};
use crate::gumbel::{fit_gumbel, GumbelFit};
use mbcr_rng::{Rng64, SplitMix64};

/// Which EVT model to fit to the tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitMethod {
    /// Exponential tail selected by the coefficient-of-variation method
    /// (the paper's MBPTA engine; recommended).
    ExpTailCv,
    /// Gumbel via block maxima + probability-weighted moments.
    Gumbel {
        /// Block size for the maxima.
        block_size: usize,
    },
}

/// Optional dithering applied before fitting.
///
/// Simulated execution times are highly discrete (multiples of the miss
/// latency); adding sub-cycle uniform noise removes ties without changing
/// any cycle-resolution quantile, in the spirit of Lima & Bate (RTAS'17)
/// "randomised measurements".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dither {
    /// Use the raw values.
    None,
    /// Add deterministic U[0, 1) noise derived from the given seed.
    Uniform {
        /// Seed for the noise stream.
        seed: u64,
    },
}

/// The fitted tail model of a [`Pwcet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TailModel {
    /// Exponential tail (CV method).
    ExpTail(ExpTailFit),
    /// Gumbel block-maxima fit.
    Gumbel(GumbelFit),
    /// The sample was deterministic: the pWCET is the observed constant.
    Degenerate,
}

/// A pWCET estimate: empirical distribution for the body, EVT model for the
/// extrapolated tail.
///
/// # Examples
///
/// ```
/// use mbcr_evt::{Dither, FitMethod, Pwcet, TailConfig};
/// use mbcr_rng::{Rng64, Xoshiro256PlusPlus};
///
/// let mut rng = Xoshiro256PlusPlus::from_seed(1);
/// let sample: Vec<u64> = (0..5000).map(|_| 1000 + (rng.exponential(0.05) as u64)).collect();
/// let pwcet = Pwcet::fit(
///     &sample,
///     FitMethod::ExpTailCv,
///     &TailConfig::default(),
///     Dither::Uniform { seed: 7 },
/// )?;
/// let q = pwcet.quantile(1e-12);
/// assert!(q > 1000.0);
/// # Ok::<(), mbcr_evt::EvtError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pwcet {
    eccdf: Eccdf,
    tail: TailModel,
}

impl Pwcet {
    /// Fits a pWCET estimate to a sample of execution times (cycles).
    ///
    /// A degenerate (constant) sample yields [`TailModel::Degenerate`]
    /// rather than an error: on a deterministic platform the pWCET *is* the
    /// constant.
    ///
    /// # Errors
    ///
    /// [`EvtError::NotEnoughData`] if the sample is too small for the
    /// requested method.
    pub fn fit(
        sample: &[u64],
        method: FitMethod,
        tail_cfg: &TailConfig,
        dither: Dither,
    ) -> Result<Pwcet, EvtError> {
        let mut sorted = SortedSample::new(dither);
        sorted.extend(sample);
        let tail = sorted.fit(method, tail_cfg)?;
        Ok(sorted.into_pwcet(tail))
    }

    /// The underlying empirical distribution.
    #[must_use]
    pub fn eccdf(&self) -> &Eccdf {
        &self.eccdf
    }

    /// The fitted tail model.
    #[must_use]
    pub fn tail(&self) -> &TailModel {
        &self.tail
    }

    /// The pWCET at per-run exceedance probability `p` (e.g. `1e-12`):
    /// empirical value where the sample resolves `p`, EVT extrapolation
    /// below that.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        quantile(&self.eccdf, &self.tail, p)
    }

    /// Modelled exceedance probability of `x`.
    #[must_use]
    pub fn exceedance(&self, x: f64) -> f64 {
        match &self.tail {
            TailModel::Degenerate => {
                if x >= self.eccdf.max() {
                    0.0
                } else {
                    1.0
                }
            }
            TailModel::ExpTail(f) => {
                if x <= f.u {
                    self.eccdf.exceedance(x)
                } else {
                    f.exceedance(x)
                }
            }
            TailModel::Gumbel(g) => {
                let emp = self.eccdf.exceedance(x);
                if emp > 10.0 / self.eccdf.len() as f64 {
                    emp
                } else {
                    g.exceedance(x)
                }
            }
        }
    }

    /// Assembles a fit from its parts, for the from-scratch reference.
    #[cfg(test)]
    pub(crate) fn from_parts(eccdf: Eccdf, tail: TailModel) -> Pwcet {
        Pwcet { eccdf, tail }
    }
}

/// [`Pwcet::quantile`] of an ECCDF body and a tail model.
fn quantile(eccdf: &Eccdf, tail: &TailModel, p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "exceedance probability must be in (0, 1)"
    );
    match tail {
        TailModel::Degenerate => eccdf.max(),
        TailModel::ExpTail(f) => {
            if p >= f.zeta {
                eccdf.quantile(p)
            } else {
                // A pWCET estimate must never undercut what was already
                // observed at the same exceedance probability.
                f.quantile(p).max(eccdf.quantile(p))
            }
        }
        TailModel::Gumbel(g) => {
            // Use the empirical body where the sample still resolves p.
            let resolvable = 10.0 / eccdf.len() as f64;
            if p >= resolvable {
                eccdf.quantile(p).max(g.quantile(p).min(eccdf.max()))
            } else {
                g.quantile(p)
            }
        }
    }
}

/// A growing sample of execution times, kept dithered and sorted so that a
/// refit after each append costs no full sort.
///
/// [`Pwcet::fit`] fills one in a single append; [`crate::converge`] appends
/// every step's new runs to one it carries across steps. An append dithers
/// only the new runs (run i's noise is the i-th draw of one `SplitMix64`
/// stream, whatever the appends before it), sorts them and merges them into
/// the sorted copy, so the state after any sequence of appends is bit for
/// bit the state one append of the whole sample builds.
#[derive(Debug)]
pub(crate) struct SortedSample {
    noise: Option<SplitMix64>,
    /// The first raw cycle count, and whether every run so far equals it.
    first: Option<u64>,
    all_equal: bool,
    /// Dithered values in run order: Gumbel's block maxima need it.
    values: Vec<f64>,
    /// The same values ascending, shared by the ECCDF and the CV tail fit.
    sorted: Eccdf,
}

impl SortedSample {
    pub(crate) fn new(dither: Dither) -> Self {
        Self {
            noise: match dither {
                Dither::None => None,
                Dither::Uniform { seed } => Some(SplitMix64::new(seed)),
            },
            first: None,
            all_equal: true,
            values: Vec::new(),
            sorted: Eccdf::from_sorted(Vec::new()),
        }
    }

    /// Appends runs (cycle counts) to the sample.
    pub(crate) fn extend(&mut self, runs: &[u64]) {
        if let Some(&head) = runs.first() {
            let first = *self.first.get_or_insert(head);
            self.all_equal &= runs.iter().all(|&v| v == first);
        }
        let start = self.values.len();
        let noise = &mut self.noise;
        self.values.extend(runs.iter().map(|&v| match noise {
            None => v as f64,
            Some(rng) => v as f64 + rng.next_f64(),
        }));
        let mut fresh = self.values[start..].to_vec();
        fresh.sort_unstable_by(f64::total_cmp);
        self.sorted.merge(fresh);
    }

    /// Fits `method`'s tail to the sample so far.
    pub(crate) fn fit(
        &self,
        method: FitMethod,
        tail_cfg: &TailConfig,
    ) -> Result<TailModel, EvtError> {
        if self.values.is_empty() {
            return Err(EvtError::NotEnoughData { needed: 1, got: 0 });
        }
        // Degeneracy is decided on the raw cycle counts: dithering a
        // constant sample must not manufacture a synthetic tail.
        if self.all_equal {
            return Ok(TailModel::Degenerate);
        }
        let fit = match method {
            FitMethod::ExpTailCv => {
                fit_sorted_exp_tail(self.sorted.sorted_values(), tail_cfg).map(TailModel::ExpTail)
            }
            FitMethod::Gumbel { block_size } => {
                fit_gumbel(&self.values, block_size).map(TailModel::Gumbel)
            }
        };
        match fit {
            Err(EvtError::DegenerateSample) => Ok(TailModel::Degenerate),
            fit => fit,
        }
    }

    /// The raw cycle count of a constant sample, whose ECCDF is that count
    /// rather than the dithered values.
    fn constant(&self) -> Option<u64> {
        self.first.filter(|_| self.all_equal)
    }

    /// [`Pwcet::quantile`] of the fit `tail` (from [`Self::fit`]), without
    /// building the [`Pwcet`].
    pub(crate) fn quantile(&self, tail: &TailModel, p: f64) -> f64 {
        match self.constant() {
            // Every quantile of a constant ECCDF is its one value.
            Some(c) => quantile(&Eccdf::from_sorted(vec![c as f64]), tail, p),
            None => quantile(&self.sorted, tail, p),
        }
    }

    /// The [`Pwcet`] of the fit `tail` (from [`Self::fit`]).
    pub(crate) fn into_pwcet(self, tail: TailModel) -> Pwcet {
        let eccdf = match self.constant() {
            Some(c) => Eccdf::from_sorted(vec![c as f64; self.values.len()]),
            None => self.sorted,
        };
        Pwcet { eccdf, tail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbcr_rng::Xoshiro256PlusPlus;

    fn sample(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256PlusPlus::from_seed(seed);
        (0..n)
            .map(|_| 1000 + rng.exponential(0.02) as u64)
            .collect()
    }

    #[test]
    fn body_matches_empirical_tail_extrapolates() {
        let s = sample(10_000, 3);
        let p = Pwcet::fit(
            &s,
            FitMethod::ExpTailCv,
            &TailConfig::default(),
            Dither::None,
        )
        .unwrap();
        // Body: median must equal the empirical median.
        assert_eq!(p.quantile(0.5), p.eccdf().quantile(0.5));
        // Tail: beyond the sample resolution the estimate exceeds the max.
        assert!(p.quantile(1e-9) > p.eccdf().max());
    }

    #[test]
    fn degenerate_sample_yields_constant() {
        let s = vec![777u64; 500];
        let p = Pwcet::fit(
            &s,
            FitMethod::ExpTailCv,
            &TailConfig::default(),
            Dither::None,
        )
        .unwrap();
        assert_eq!(*p.tail(), TailModel::Degenerate);
        assert_eq!(p.quantile(1e-12), 777.0);
        assert_eq!(p.exceedance(777.0), 0.0);
        assert_eq!(p.exceedance(700.0), 1.0);
    }

    #[test]
    fn dither_breaks_ties_without_moving_quantiles_much() {
        let mut s = sample(5_000, 5);
        // Quantize heavily to force ties.
        for v in &mut s {
            *v = (*v / 100) * 100;
        }
        let dithered = Pwcet::fit(
            &s,
            FitMethod::ExpTailCv,
            &TailConfig::default(),
            Dither::Uniform { seed: 9 },
        )
        .unwrap();
        let q = dithered.quantile(1e-9);
        assert!(q > 1000.0 && q < 5000.0, "q = {q}");
    }

    #[test]
    fn gumbel_method_also_extrapolates() {
        let s = sample(10_000, 7);
        let p = Pwcet::fit(
            &s,
            FitMethod::Gumbel { block_size: 20 },
            &TailConfig::default(),
            Dither::None,
        )
        .unwrap();
        assert!(p.quantile(1e-12) > p.quantile(1e-6));
    }

    #[test]
    fn empty_sample_is_an_error() {
        assert!(matches!(
            Pwcet::fit(
                &[],
                FitMethod::ExpTailCv,
                &TailConfig::default(),
                Dither::None
            ),
            Err(EvtError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn fit_matches_the_from_scratch_composition() {
        let tied: Vec<u64> = sample(3_000, 5).iter().map(|v| v / 50 * 50).collect();
        let mut late_change = vec![900u64; 500];
        late_change.push(901);
        for (label, s) in [
            ("exponential", sample(4_001, 3)),
            ("tied", tied),
            ("constant", vec![777u64; 500]),
            ("late change", late_change),
            ("short", sample(30, 1)),
            ("empty", Vec::new()),
        ] {
            for method in [FitMethod::ExpTailCv, FitMethod::Gumbel { block_size: 20 }] {
                for dither in [Dither::None, Dither::Uniform { seed: 0xD17 }] {
                    let cfg = TailConfig::default();
                    assert_eq!(
                        format!("{:?}", Pwcet::fit(&s, method, &cfg, dither)),
                        format!("{:?}", crate::oracle::pwcet_fit(&s, method, &cfg, dither)),
                        "{label}, {method:?}, {dither:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn appends_in_steps_equal_one_append() {
        let s = sample(2_000, 9);
        for dither in [Dither::None, Dither::Uniform { seed: 4 }] {
            let mut stepped = SortedSample::new(dither);
            for chunk in s.chunks(300) {
                stepped.extend(chunk);
            }
            let mut whole = SortedSample::new(dither);
            whole.extend(&s);
            assert_eq!(format!("{stepped:?}"), format!("{whole:?}"), "{dither:?}");
        }
    }

    #[test]
    fn exceedance_and_quantile_are_consistent() {
        let s = sample(8_000, 11);
        let p = Pwcet::fit(
            &s,
            FitMethod::ExpTailCv,
            &TailConfig::default(),
            Dither::None,
        )
        .unwrap();
        for prob in [1e-6, 1e-9] {
            let x = p.quantile(prob);
            let back = p.exceedance(x);
            assert!(
                (back - prob).abs() / prob < 0.01,
                "prob = {prob}, back = {back}"
            );
        }
    }
}

mbcr_json::impl_serialize_struct!(Pwcet { tail } skip { eccdf });

impl mbcr_json::Serialize for TailModel {
    fn to_json(&self) -> mbcr_json::Json {
        use mbcr_json::Json;
        match self {
            TailModel::ExpTail(fit) => Json::Obj(vec![
                ("kind".to_string(), "exp_tail".into()),
                ("fit".to_string(), mbcr_json::Serialize::to_json(fit)),
            ]),
            TailModel::Gumbel(fit) => Json::Obj(vec![
                ("kind".to_string(), "gumbel".into()),
                ("fit".to_string(), mbcr_json::Serialize::to_json(fit)),
            ]),
            TailModel::Degenerate => Json::Obj(vec![("kind".to_string(), "degenerate".into())]),
        }
    }
}
