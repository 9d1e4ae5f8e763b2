//! The MBPTA convergence procedure: how many runs until the pWCET estimate
//! stabilizes.
//!
//! This produces the paper's `R_orig` and `R_pub` (Table 2): starting from
//! an initial sample, measurements are added in steps; after each step the
//! pWCET at a check probability is re-estimated, and the campaign stops when
//! the last few estimates agree within a tolerance and the i.i.d. tests
//! pass. TAC then potentially *increases* that number to
//! `R_pub+tac = max(R_pub, R_tac)` to reach cache representativeness.

use crate::exp_tail::{EvtError, TailConfig};
use crate::iid::{self, IidReport};
use crate::pwcet::{Dither, FitMethod, Pwcet, SortedSample};

/// Configuration of the convergence procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceConfig {
    /// Runs collected before the first estimate.
    pub initial: usize,
    /// Runs added per step.
    pub step: usize,
    /// Hard cap on the campaign length.
    pub max_runs: usize,
    /// Exceedance probability at which stability is checked.
    pub p_check: f64,
    /// Maximum relative spread of the last estimates to declare stability.
    pub epsilon: f64,
    /// Number of consecutive estimates that must agree.
    pub stable_windows: usize,
    /// Significance level for the i.i.d. tests.
    pub alpha_iid: f64,
    /// Tail-fit configuration.
    pub tail: TailConfig,
    /// Fit method.
    pub method: FitMethod,
    /// Dithering for the discrete cycle counts.
    pub dither: Dither,
}

impl Default for ConvergenceConfig {
    fn default() -> Self {
        Self {
            initial: 300,
            step: 100,
            max_runs: 100_000,
            p_check: 1e-12,
            epsilon: 0.02,
            stable_windows: 4,
            alpha_iid: 0.01,
            tail: TailConfig::default(),
            method: FitMethod::ExpTailCv,
            dither: Dither::Uniform { seed: 0xD17 },
        }
    }
}

/// Result of a convergence campaign.
#[derive(Debug, Clone)]
pub struct ConvergenceOutcome {
    /// Runs collected when the procedure stopped.
    pub runs: usize,
    /// The final pWCET estimate.
    pub pwcet: Pwcet,
    /// i.i.d. evidence on the final sample.
    pub iid: IidReport,
    /// `(runs, pWCET@p_check)` after each step.
    pub history: Vec<(usize, f64)>,
    /// `false` if `max_runs` was reached without stabilizing.
    pub converged: bool,
}

/// Runs the convergence procedure, pulling measurements from `sampler`.
///
/// `sampler(count)` must return `count` *new* execution times (cycles); it
/// is called repeatedly and its outputs are accumulated.
///
/// After every step the pWCET is refitted and its value at `p_check`
/// recorded in the history. The i.i.d. tests run only where their verdict
/// is read: once the last `stable_windows` estimates agree, or at
/// `max_runs`. They need at least 12 runs, so a sample that is stable
/// sooner keeps sampling until it has them.
///
/// The refits carry their state from step to step instead of starting
/// from scratch: the raw runs (the i.i.d. tests' input), the dithered
/// runs in run order (Gumbel's block maxima) and the same values sorted
/// (shared by the ECCDF and the CV tail fit). Each step dithers only its
/// new runs, sorts them and merges them into the sorted copy. Every
/// refit is bit for bit a fresh [`Pwcet::fit`] of the sample so far: the
/// dither of run i depends only on i, values that sort as equal have
/// equal bits, and each tail candidate sums its moments in the same order.
///
/// # Errors
///
/// [`EvtError::NotEnoughData`] if even `max_runs` measurements cannot
/// support a fit, or if the campaign stops at `max_runs` with fewer than
/// the 12 runs the i.i.d. tests need (`needed: 12`). Degenerate
/// (deterministic) samples are no error: they converge to their constant.
///
/// # Panics
///
/// Panics if `initial` or `step` is zero.
pub fn converge(
    mut sampler: impl FnMut(usize) -> Vec<u64>,
    cfg: &ConvergenceConfig,
) -> Result<ConvergenceOutcome, EvtError> {
    assert!(
        cfg.initial > 0 && cfg.step > 0,
        "initial and step must be positive"
    );
    let mut runs: Vec<u64> = sampler(cfg.initial);
    let mut sample = SortedSample::new(cfg.dither);
    sample.extend(&runs);
    let mut history: Vec<(usize, f64)> = Vec::new();

    loop {
        let at_cap = runs.len() >= cfg.max_runs;
        match sample.fit(cfg.method, &cfg.tail) {
            Ok(tail) => {
                history.push((runs.len(), sample.quantile(&tail, cfg.p_check)));
                let stable = history.len() >= cfg.stable_windows && {
                    let window = &history[history.len() - cfg.stable_windows..];
                    let lo = window.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
                    let hi = window
                        .iter()
                        .map(|&(_, v)| v)
                        .fold(f64::NEG_INFINITY, f64::max);
                    hi > 0.0 && (hi - lo) / hi <= cfg.epsilon
                };
                if (stable || at_cap) && runs.len() >= iid::MIN_SAMPLES {
                    let float_sample: Vec<f64> = runs.iter().map(|&v| v as f64).collect();
                    let iid = IidReport::evaluate(&float_sample);
                    let converged = stable && iid.passed(cfg.alpha_iid);
                    if converged || at_cap {
                        return Ok(ConvergenceOutcome {
                            runs: runs.len(),
                            pwcet: sample.into_pwcet(tail),
                            iid,
                            history,
                            converged,
                        });
                    }
                } else if at_cap {
                    return Err(EvtError::NotEnoughData {
                        needed: iid::MIN_SAMPLES,
                        got: runs.len(),
                    });
                }
            }
            Err(e) => {
                if at_cap {
                    return Err(e);
                }
            }
        }
        let fresh = sampler(cfg.step);
        sample.extend(&fresh);
        runs.extend(fresh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbcr_rng::{Rng64, Xoshiro256PlusPlus};

    fn exp_sampler(seed: u64) -> impl FnMut(usize) -> Vec<u64> {
        let mut rng = Xoshiro256PlusPlus::from_seed(seed);
        move |count| {
            (0..count)
                .map(|_| 2000 + rng.exponential(0.01) as u64)
                .collect()
        }
    }

    #[test]
    fn converges_on_well_behaved_sample() {
        let out = converge(exp_sampler(1), &ConvergenceConfig::default()).unwrap();
        assert!(out.converged);
        assert!(out.runs >= 300);
        assert!(out.runs < 20_000, "runs = {}", out.runs);
        assert!(out.iid.passed(0.01));
        // History is recorded at every successful step.
        assert_eq!(out.history.last().unwrap().0, out.runs);
        assert!(out.pwcet.quantile(1e-12) > 2000.0);
    }

    #[test]
    fn deterministic_sample_converges_to_constant() {
        let out = converge(|count| vec![4242u64; count], &ConvergenceConfig::default()).unwrap();
        assert!(out.converged);
        assert_eq!(out.pwcet.quantile(1e-12), 4242.0);
        assert_eq!(out.runs, 300 + 3 * 100, "stable_windows steps past initial");
    }

    #[test]
    fn max_runs_caps_non_converging_campaign() {
        // A drifting sampler never stabilizes.
        let mut base = 0u64;
        let mut rng = Xoshiro256PlusPlus::from_seed(2);
        let cfg = ConvergenceConfig {
            max_runs: 1500,
            ..ConvergenceConfig::default()
        };
        let out = converge(
            |count| {
                (0..count)
                    .map(|_| {
                        base += 40;
                        base + rng.exponential(0.001) as u64
                    })
                    .collect()
            },
            &cfg,
        )
        .unwrap();
        assert!(!out.converged);
        assert!(out.runs >= 1500);
    }

    #[test]
    fn stricter_epsilon_needs_more_runs() {
        let loose = ConvergenceConfig {
            epsilon: 0.10,
            ..ConvergenceConfig::default()
        };
        let strict = ConvergenceConfig {
            epsilon: 0.005,
            ..ConvergenceConfig::default()
        };
        let r_loose = converge(exp_sampler(5), &loose).unwrap().runs;
        let r_strict = converge(exp_sampler(5), &strict).unwrap().runs;
        assert!(r_strict >= r_loose, "strict {r_strict} vs loose {r_loose}");
    }

    #[test]
    fn history_is_monotone_in_runs() {
        let out = converge(exp_sampler(9), &ConvergenceConfig::default()).unwrap();
        assert!(out.history.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn short_constant_sample_converges_once_the_iid_tests_can_run() {
        let cfg = ConvergenceConfig {
            initial: 5,
            ..ConvergenceConfig::default()
        };
        let out = converge(|count| vec![4242u64; count], &cfg).unwrap();
        assert!(out.converged);
        assert_eq!(out.pwcet.quantile(1e-12), 4242.0);
        assert_eq!(out.runs, 5 + 3 * 100);

        // Stable at 8 runs, but the i.i.d. verdict waits for 12.
        let cfg = ConvergenceConfig { step: 1, ..cfg };
        let out = converge(|count| vec![4242u64; count], &cfg).unwrap();
        assert!(out.converged);
        assert_eq!(out.runs, 12);
        assert_eq!(out.history.len(), 8);
    }

    #[test]
    fn tail_fit_below_twelve_runs_takes_no_iid_verdict() {
        let cfg = ConvergenceConfig {
            initial: 8,
            step: 1,
            max_runs: 2_000,
            tail: TailConfig {
                min_tail: 2,
                ..TailConfig::default()
            },
            ..ConvergenceConfig::default()
        };
        let out = converge(exp_sampler(3), &cfg).unwrap();
        assert_eq!(out.history[0].0, 8, "the first fit is at 8 runs");
        assert!(out.runs >= 12);
    }

    #[test]
    fn max_runs_below_the_iid_minimum_is_an_error() {
        let cfg = ConvergenceConfig {
            initial: 5,
            step: 1,
            max_runs: 10,
            ..ConvergenceConfig::default()
        };
        let err = converge(|count| vec![4242u64; count], &cfg).unwrap_err();
        assert_eq!(
            err,
            EvtError::NotEnoughData {
                needed: 12,
                got: 10
            }
        );
    }

    /// Fresh samplers of the reference matrix, one per kind and seed.
    fn matrix_sampler(kind: &str, seed: u64) -> Box<dyn FnMut(usize) -> Vec<u64>> {
        let mut rng = Xoshiro256PlusPlus::from_seed(seed);
        match kind {
            "exponential" => Box::new(exp_sampler(seed)),
            // Whole numbers of 30-cycle misses over a fixed base: heavy ties.
            "simulator" => Box::new(move |count| {
                (0..count)
                    .map(|_| 1200 + 30 * (0..24).filter(|_| rng.next_f64() < 0.25).count() as u64)
                    .collect()
            }),
            "constant" => Box::new(|count| vec![4242u64; count]),
            "drifting" => {
                let mut base = 0u64;
                Box::new(move |count| {
                    (0..count)
                        .map(|_| {
                            base += 40;
                            base + rng.exponential(0.001) as u64
                        })
                        .collect()
                })
            }
            // Stable estimates that the Ljung–Box test rejects.
            "ar1" => {
                let mut x = 0.0;
                Box::new(move |count| {
                    (0..count)
                        .map(|_| {
                            x = 0.8 * x + rng.gaussian();
                            (3000.0 + 40.0 * x) as u64
                        })
                        .collect()
                })
            }
            _ => unreachable!("unknown sampler {kind}"),
        }
    }

    #[test]
    fn matches_the_from_scratch_reference() {
        let kinds = ["exponential", "simulator", "constant", "drifting", "ar1"];
        let mut stable_but_not_iid = 0;
        for (k, kind) in kinds.into_iter().enumerate() {
            for dither in [Dither::None, Dither::Uniform { seed: 0xD17 }] {
                for method in [FitMethod::ExpTailCv, FitMethod::Gumbel { block_size: 20 }] {
                    for stable_windows in [1, 4] {
                        for (step, max_runs) in [(1, 450), (100, 2_500)] {
                            let cfg = ConvergenceConfig {
                                step,
                                max_runs,
                                stable_windows,
                                method,
                                dither,
                                ..ConvergenceConfig::default()
                            };
                            let label = format!("{kind}, {cfg:?}");
                            let seed = 40 + k as u64;
                            let new = converge(matrix_sampler(kind, seed), &cfg);
                            let old = crate::oracle::converge(matrix_sampler(kind, seed), &cfg);
                            let (new, old) = match (new, old) {
                                (Ok(new), Ok(old)) => (new, old),
                                (new, old) => {
                                    assert_eq!(new.err(), old.err(), "{label}");
                                    continue;
                                }
                            };
                            assert_eq!(new.runs, old.runs, "{label}");
                            assert_eq!(new.converged, old.converged, "{label}");
                            let bits = |h: &[(usize, f64)]| {
                                h.iter().map(|&(r, q)| (r, q.to_bits())).collect::<Vec<_>>()
                            };
                            assert_eq!(bits(&new.history), bits(&old.history), "{label}");
                            assert_eq!(
                                format!("{:?}", new.pwcet),
                                format!("{:?}", old.pwcet),
                                "{label}"
                            );
                            assert_eq!(
                                format!("{:?}", new.iid),
                                format!("{:?}", old.iid),
                                "{label}"
                            );
                            match kind {
                                "constant" => assert!(new.converged, "{label}"),
                                "drifting" => assert!(!new.converged, "{label}"),
                                _ => {}
                            }
                            // One-estimate windows are stable at every step.
                            stable_but_not_iid +=
                                usize::from(stable_windows == 1 && !new.iid.passed(cfg.alpha_iid));
                        }
                    }
                }
            }
        }
        assert!(
            stable_but_not_iid > 0,
            "some stable steps must fail the i.i.d. tests"
        );
    }
}
