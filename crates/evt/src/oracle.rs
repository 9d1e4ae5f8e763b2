//! From-scratch references for the incremental EVT paths. Every step of
//! the reference convergence loop refits the whole sample (dither, sort
//! for the ECCDF, sort again for the tail) and runs all three i.i.d. tests
//! after every good fit. The tests check the crate's own paths against
//! these bit for bit.

use crate::convergence::{ConvergenceConfig, ConvergenceOutcome};
use crate::eccdf::Eccdf;
use crate::exp_tail::{EvtError, ExpTailFit, TailConfig};
use crate::gumbel::fit_gumbel;
use crate::iid::{IidReport, TestResult};
use crate::pwcet::{Dither, FitMethod, Pwcet, TailModel};
use crate::stats::{chi2_sf, kolmogorov_sf, mean, normal_two_sided_p, std_dev, variance};
use mbcr_rng::{Rng64, SplitMix64};

pub(crate) fn fit_exp_tail(sample: &[f64], cfg: &TailConfig) -> Result<ExpTailFit, EvtError> {
    let n = sample.len();
    let needed = cfg.min_tail * 4;
    if n < needed {
        return Err(EvtError::NotEnoughData { needed, got: n });
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);

    let max_tail = ((n as f64 * cfg.max_tail_fraction) as usize).max(cfg.min_tail);
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
    for &nt in &candidates {
        let u = sorted[n - nt - 1];
        let excesses: Vec<f64> = sorted[n - nt..].iter().map(|&x| x - u).collect();
        let m = mean(&excesses);
        if m <= 0.0 {
            continue;
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

/// `Pwcet::fit` as the composition of `Eccdf::new` and [`fit_exp_tail`].
pub(crate) fn pwcet_fit(
    sample: &[u64],
    method: FitMethod,
    tail_cfg: &TailConfig,
    dither: Dither,
) -> Result<Pwcet, EvtError> {
    if sample.is_empty() {
        return Err(EvtError::NotEnoughData { needed: 1, got: 0 });
    }
    if sample.windows(2).all(|w| w[0] == w[1]) {
        return Ok(Pwcet::from_parts(
            Eccdf::from_u64(sample),
            TailModel::Degenerate,
        ));
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
    Ok(Pwcet::from_parts(eccdf, tail))
}

pub(crate) fn ks_two_sample(a: &[f64], b: &[f64]) -> TestResult {
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
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
    let lambda = (ne + 0.12 + 0.11 / ne) * d;
    TestResult {
        statistic: d,
        p_value: kolmogorov_sf(lambda),
    }
}

pub(crate) fn ljung_box(sample: &[f64], lags: usize) -> TestResult {
    let n = sample.len() as f64;
    let m = mean(sample);
    let denom: f64 = sample.iter().map(|x| (x - m) * (x - m)).sum();
    if denom == 0.0 {
        return TestResult {
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    let mut q = 0.0;
    for k in 1..=lags {
        let num: f64 = sample.windows(k + 1).map(|w| (w[0] - m) * (w[k] - m)).sum();
        let rho = num / denom;
        q += rho * rho / (n - k as f64);
    }
    q *= n * (n + 2.0);
    TestResult {
        statistic: q,
        p_value: chi2_sf(q, lags as u32),
    }
}

pub(crate) fn runs_test(sample: &[f64]) -> TestResult {
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let signs: Vec<bool> = sample
        .iter()
        .filter(|&&x| x != median)
        .map(|&x| x > median)
        .collect();
    let none = TestResult {
        statistic: 0.0,
        p_value: 1.0,
    };
    if signs.len() < 2 {
        return none;
    }
    let n1 = signs.iter().filter(|&&s| s).count() as f64;
    let n2 = signs.len() as f64 - n1;
    if n1 == 0.0 || n2 == 0.0 {
        return none;
    }
    let runs = 1.0 + signs.windows(2).filter(|w| w[0] != w[1]).count() as f64;
    let expected = 2.0 * n1 * n2 / (n1 + n2) + 1.0;
    let var = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2) / ((n1 + n2) * (n1 + n2) * (n1 + n2 - 1.0));
    if var <= 0.0 {
        return none;
    }
    let z = (runs - expected) / var.sqrt();
    TestResult {
        statistic: z,
        p_value: normal_two_sided_p(z),
    }
}

pub(crate) fn iid_evaluate(sample: &[f64]) -> IidReport {
    assert!(
        sample.len() >= 12,
        "IID evaluation needs at least 12 samples"
    );
    let half = sample.len() / 2;
    let lags = (sample.len() / 5).clamp(2, 20);
    if variance(sample) == 0.0 {
        let pass = TestResult {
            statistic: 0.0,
            p_value: 1.0,
        };
        return IidReport {
            ks: pass,
            ljung_box: pass,
            runs: pass,
        };
    }
    IidReport {
        ks: ks_two_sample(&sample[..half], &sample[half..]),
        ljung_box: ljung_box(sample, lags),
        runs: runs_test(sample),
    }
}

/// The convergence loop that refits from scratch and runs the i.i.d. tests
/// after every good fit. It panics where its samples are too short for the
/// i.i.d. tests.
pub(crate) fn converge(
    mut sampler: impl FnMut(usize) -> Vec<u64>,
    cfg: &ConvergenceConfig,
) -> Result<ConvergenceOutcome, EvtError> {
    let mut sample: Vec<u64> = sampler(cfg.initial);
    let mut history: Vec<(usize, f64)> = Vec::new();
    loop {
        match pwcet_fit(&sample, cfg.method, &cfg.tail, cfg.dither) {
            Ok(pwcet) => {
                let q = pwcet.quantile(cfg.p_check);
                history.push((sample.len(), q));
                let stable = history.len() >= cfg.stable_windows && {
                    let tail = &history[history.len() - cfg.stable_windows..];
                    let lo = tail.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
                    let hi = tail
                        .iter()
                        .map(|&(_, v)| v)
                        .fold(f64::NEG_INFINITY, f64::max);
                    hi > 0.0 && (hi - lo) / hi <= cfg.epsilon
                };
                let float_sample: Vec<f64> = sample.iter().map(|&v| v as f64).collect();
                let iid = iid_evaluate(&float_sample);
                if stable && iid.passed(cfg.alpha_iid) {
                    return Ok(ConvergenceOutcome {
                        runs: sample.len(),
                        pwcet,
                        iid,
                        history,
                        converged: true,
                    });
                }
                if sample.len() >= cfg.max_runs {
                    return Ok(ConvergenceOutcome {
                        runs: sample.len(),
                        pwcet,
                        iid,
                        history,
                        converged: false,
                    });
                }
            }
            Err(e) => {
                if sample.len() >= cfg.max_runs {
                    return Err(e);
                }
            }
        }
        sample.extend(sampler(cfg.step));
    }
}
