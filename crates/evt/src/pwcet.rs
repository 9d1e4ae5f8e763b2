//! pWCET curves: empirical body + fitted tail.

use crate::eccdf::Eccdf;
use crate::exp_tail::{fit_exp_tail, EvtError, ExpTailFit, TailConfig};
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
        if sample.is_empty() {
            return Err(EvtError::NotEnoughData { needed: 1, got: 0 });
        }
        // Degeneracy is decided on the raw cycle counts: dithering a
        // constant sample must not manufacture a synthetic tail.
        if sample.windows(2).all(|w| w[0] == w[1]) {
            return Ok(Pwcet {
                eccdf: Eccdf::from_u64(sample),
                tail: TailModel::Degenerate,
            });
        }
        let values: Vec<f64> = match dither {
            Dither::None => sample.iter().map(|&v| v as f64).collect(),
            Dither::Uniform { seed } => {
                let mut rng = SplitMix64::new(seed);
                sample.iter().map(|&v| v as f64 + rng.next_f64()).collect()
            }
        };
        let eccdf = Eccdf::new(&values);
        let tail = match method {
            FitMethod::ExpTailCv => match fit_exp_tail(&values, tail_cfg) {
                Ok(f) => TailModel::ExpTail(f),
                Err(EvtError::DegenerateSample) => TailModel::Degenerate,
                Err(e) => return Err(e),
            },
            FitMethod::Gumbel { block_size } => match fit_gumbel(&values, block_size) {
                Ok(f) => TailModel::Gumbel(f),
                Err(EvtError::DegenerateSample) => TailModel::Degenerate,
                Err(e) => return Err(e),
            },
        };
        Ok(Pwcet { eccdf, tail })
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
        assert!(
            p > 0.0 && p < 1.0,
            "exceedance probability must be in (0, 1)"
        );
        match &self.tail {
            TailModel::Degenerate => self.eccdf.max(),
            TailModel::ExpTail(f) => {
                if p >= f.zeta {
                    self.eccdf.quantile(p)
                } else {
                    // A pWCET estimate must never undercut what was already
                    // observed at the same exceedance probability.
                    f.quantile(p).max(self.eccdf.quantile(p))
                }
            }
            TailModel::Gumbel(g) => {
                // Use the empirical body where the sample still resolves p.
                let resolvable = 10.0 / self.eccdf.len() as f64;
                if p >= resolvable {
                    self.eccdf
                        .quantile(p)
                        .max(g.quantile(p).min(self.eccdf.max()))
                } else {
                    g.quantile(p)
                }
            }
        }
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
