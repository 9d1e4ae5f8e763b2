//! Criterion performance benches for the EVT statistics.

use criterion::{criterion_group, criterion_main, Criterion};
use mbcr_evt::{
    converge, fit_exp_tail, fit_gumbel, ConvergenceConfig, Eccdf, IidReport, Pwcet, TailConfig,
};
use mbcr_json::Json;
use mbcr_rng::{Rng64, Xoshiro256PlusPlus};
use std::hint::black_box;
use std::time::Instant;

fn sample(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Xoshiro256PlusPlus::from_seed(seed);
    (0..n).map(|_| 2000.0 + rng.exponential(0.01)).collect()
}

fn bench_fits(c: &mut Criterion) {
    let s = sample(10_000, 1);
    c.bench_function("fit_exp_tail_10k", |b| {
        b.iter(|| black_box(fit_exp_tail(&s, &TailConfig::default()).expect("fit")));
    });
    c.bench_function("fit_gumbel_10k_b50", |b| {
        b.iter(|| black_box(fit_gumbel(&s, 50).expect("fit")));
    });
}

fn bench_eccdf(c: &mut Criterion) {
    let s = sample(100_000, 2);
    c.bench_function("eccdf_build_100k", |b| {
        b.iter(|| black_box(Eccdf::new(&s)));
    });
    let e = Eccdf::new(&s);
    c.bench_function("eccdf_quantile", |b| {
        b.iter(|| black_box(e.quantile(1e-3)));
    });
}

fn bench_iid(c: &mut Criterion) {
    let s = sample(5_000, 3);
    c.bench_function("iid_report_5k", |b| {
        b.iter(|| black_box(IidReport::evaluate(&s)));
    });
}

/// Simulator-like execution times: a fixed base plus a whole number of
/// 30-cycle misses, now and then a burst of 25 more. The sample is heavily
/// tied, as campaign samples are, and its tail settles after about two
/// thousand runs.
fn simulator_like(runs: usize, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256PlusPlus::from_seed(seed);
    (0..runs)
        .map(|_| {
            let misses = (0..24).filter(|_| rng.next_f64() < 0.25).count() as u64;
            let rare = if rng.next_f64() < 0.004 { 25 } else { 0 };
            1_200 + 30 * (misses + rare)
        })
        .collect()
}

/// Convergence the way the benchmark probe replays it: public
/// [`Pwcet::fit`] over each step's whole sample, then
/// [`IidReport::evaluate`] after every good fit, with [`converge`]'s
/// stopping rule. Returns the runs and the history.
fn converge_per_step(sample: &[u64], cfg: &ConvergenceConfig) -> (usize, Vec<(usize, f64)>) {
    let mut n = cfg.initial;
    let mut history = Vec::new();
    loop {
        let at_cap = n >= cfg.max_runs;
        if let Ok(pwcet) = Pwcet::fit(&sample[..n], cfg.method, &cfg.tail, cfg.dither) {
            history.push((n, pwcet.quantile(cfg.p_check)));
            let window = &history[history.len().saturating_sub(cfg.stable_windows)..];
            let lo = window.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
            let hi = window
                .iter()
                .map(|&(_, v)| v)
                .fold(f64::NEG_INFINITY, f64::max);
            let stable =
                history.len() >= cfg.stable_windows && hi > 0.0 && (hi - lo) / hi <= cfg.epsilon;
            let float_sample: Vec<f64> = sample[..n].iter().map(|&v| v as f64).collect();
            let iid = IidReport::evaluate(&float_sample);
            if (stable && iid.passed(cfg.alpha_iid)) || at_cap {
                return (n, history);
            }
        } else if at_cap {
            panic!("no fit at max_runs");
        }
        n += cfg.step;
    }
}

/// [`converge`] (default config: 300 runs, then 100-run steps) against
/// [`converge_per_step`] over simulator-like campaigns, written to
/// `BENCH_evt.json` at the workspace root.
///
/// Timing is best-of-`reps` wall clock over all campaigns. Each campaign
/// is drawn up front, so both sides time EVT alone. Under
/// `MBCR_PERF_SMOKE=1` the row shrinks to CI size and the process exits
/// non-zero if `converge` is slower than the per-step loop.
fn bench_converge(_c: &mut Criterion) {
    let smoke = std::env::var("MBCR_PERF_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    let seeds: Vec<u64> = (1..=if smoke { 2 } else { 8 }).collect();
    let reps = 5;
    let cfg = ConvergenceConfig::default();
    let campaigns: Vec<Vec<u64>> = seeds
        .iter()
        .map(|&seed| simulator_like(cfg.max_runs, seed))
        .collect();
    let carried = |sample: &[u64]| {
        let mut at = 0;
        let out = converge(
            |count| {
                at += count;
                sample[at - count..at].to_vec()
            },
            &cfg,
        )
        .expect("converge");
        (out.runs, out.history)
    };

    let (mut runs, mut steps) = (0, 0);
    for sample in &campaigns {
        let (n, history) = carried(sample);
        let (ref_n, ref_history) = converge_per_step(sample, &cfg);
        let bits =
            |h: &[(usize, f64)]| h.iter().map(|&(r, q)| (r, q.to_bits())).collect::<Vec<_>>();
        assert_eq!(n, ref_n, "converge must stop where the per-step loop does");
        assert_eq!(
            bits(&history),
            bits(&ref_history),
            "history must be bit-identical"
        );
        runs += n;
        steps += history.len();
    }
    let best_of = |f: &dyn Fn(&[u64])| {
        (0..reps)
            .map(|_| {
                let start = Instant::now();
                for sample in &campaigns {
                    f(black_box(sample));
                }
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let per_step_s = best_of(&|s| {
        black_box(converge_per_step(s, &cfg));
    });
    let converge_s = best_of(&|s| {
        black_box(carried(s));
    });
    let speedup = per_step_s / converge_s;
    println!(
        "converge_evt/simulator_{}_campaigns      per-step {:.0} steps/s, converge {:.0} steps/s, \
         speedup {speedup:.2}x ({runs} runs, {steps} steps)",
        campaigns.len(),
        steps as f64 / per_step_s,
        steps as f64 / converge_s,
    );

    let record = Json::Obj(vec![
        ("sampler".into(), Json::Str("simulator_like".into())),
        ("initial".into(), Json::UInt(cfg.initial as u64)),
        ("step".into(), Json::UInt(cfg.step as u64)),
        ("campaigns".into(), Json::UInt(campaigns.len() as u64)),
        ("runs".into(), Json::UInt(runs as u64)),
        ("steps".into(), Json::UInt(steps as u64)),
        ("reps".into(), Json::UInt(reps as u64)),
        ("smoke".into(), Json::Bool(smoke)),
        ("per_step_s".into(), Json::Num(per_step_s)),
        ("converge_s".into(), Json::Num(converge_s)),
        ("speedup".into(), Json::Num(speedup)),
    ]);
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_evt.json");
    std::fs::write(&path, record.to_pretty() + "\n").expect("write BENCH_evt.json");
    println!("wrote {}", path.display());

    if smoke && speedup < 1.0 {
        eprintln!(
            "perf-smoke FAILED: converge ({converge_s:.3} s) slower than the per-step \
             Pwcet::fit + IidReport::evaluate loop ({per_step_s:.3} s)"
        );
        std::process::exit(1);
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fits, bench_eccdf, bench_iid, bench_converge
}
criterion_main!(benches);
