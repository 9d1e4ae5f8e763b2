//! Calibration of the MBPTA statistics against the simulated platform:
//! does the fitted pWCET actually upper-bound what very long campaigns
//! observe, without being absurdly pessimistic?

use mbcr::prelude::*;
use mbcr_ir::execute;
use mbcr_pub::pub_transform;

fn fit(sample: &[u64]) -> Pwcet {
    Pwcet::fit(
        sample,
        FitMethod::ExpTailCv,
        &TailConfig::default(),
        Dither::Uniform { seed: 3 },
    )
    .expect("fit")
}

/// The central calibration: fit on a TAC-sized prefix, validate against a
/// 10x longer campaign. The pWCET at the long campaign's resolution must
/// cover its empirical quantiles.
#[test]
fn fitted_pwcet_covers_long_run_quantiles() {
    let platform = PlatformConfig::paper_default();
    let b = mbcr_malardalen::bs::benchmark();
    let pubbed = pub_transform(&b.program, &PubConfig::paper()).expect("pub");
    let trace = execute(&pubbed.program, &b.default_input)
        .expect("run")
        .trace;

    let long = campaign_slice_with(
        &platform,
        &trace,
        0,
        120_000,
        0xCAFE,
        &Parallelism::with_threads(4),
    );
    let pwcet = fit(&long[..20_000]);
    let reference = Eccdf::from_u64(&long);

    for p in [1e-2, 1e-3, 1e-4, 3e-5] {
        let bound = pwcet.quantile(p);
        let observed = reference.quantile(p);
        assert!(
            bound >= observed * 0.98,
            "p={p}: bound {bound:.0} vs observed {observed:.0}"
        );
        assert!(
            bound <= observed * 3.0,
            "p={p}: bound {bound:.0} is absurdly pessimistic vs {observed:.0}"
        );
    }
}

/// Exceedance coverage: the modelled exceedance probability of the observed
/// maximum must not be wildly optimistic (no "this can't happen" verdicts
/// about things that did happen).
#[test]
fn observed_extremes_are_not_ruled_out() {
    let platform = PlatformConfig::paper_default();
    let b = mbcr_malardalen::janne::benchmark();
    let pubbed = pub_transform(&b.program, &PubConfig::paper()).expect("pub");
    let trace = execute(&pubbed.program, &b.default_input)
        .expect("run")
        .trace;

    let sample = campaign_slice_with(
        &platform,
        &trace,
        0,
        50_000,
        0xBEEF,
        &Parallelism::with_threads(4),
    );
    let pwcet = fit(&sample[..10_000]);
    let max = *sample.iter().max().expect("non-empty") as f64;
    // The max of 50k draws sits around the 1/50k quantile; a sound model
    // must give it an exceedance probability not far below that.
    let modelled = pwcet.exceedance(max);
    assert!(
        modelled > 1e-9,
        "modelled exceedance {modelled:e} for an event observed in 50k runs"
    );
}

/// The i.i.d. tests accept genuine platform campaigns across benchmarks.
#[test]
fn platform_campaigns_are_iid() {
    let platform = PlatformConfig::paper_default();
    for name in ["bs", "cnt", "matmult"] {
        let b = mbcr_malardalen::by_name(name).expect("bench");
        let trace = execute(&b.program, &b.default_input).expect("run").trace;
        let sample = campaign_slice_with(
            &platform,
            &trace,
            0,
            3_000,
            0xD0,
            &Parallelism::with_threads(4),
        );
        let float: Vec<f64> = sample.iter().map(|&v| v as f64).collect();
        let report = mbcr_evt::IidReport::evaluate(&float);
        assert!(
            report.passed(0.001),
            "{name}: ks={:.4} lb={:.4} runs={:.4}",
            report.ks.p_value,
            report.ljung_box.p_value,
            report.runs.p_value
        );
    }
}

/// The paper's central motivation, as a statistical test: pWCET estimates
/// from *convergence-sized* campaigns are seed-unstable on conflictive
/// workloads (the campaign may or may not catch the rare damaging layouts),
/// while estimates from *TAC-sized* campaigns are reproducible across
/// seeds.
#[test]
fn tac_sized_campaigns_stabilize_the_estimate() {
    let platform = PlatformConfig::paper_default();
    let b = mbcr_malardalen::cnt::benchmark();
    let pubbed = pub_transform(&b.program, &PubConfig::paper()).expect("pub");
    let trace = execute(&pubbed.program, &b.default_input)
        .expect("run")
        .trace;

    // TAC requirement for this trace (cnt: ~9k runs, see Table 2).
    let tac = mbcr_tac::analyze_lines(&trace.instr_lines(32), &mbcr_tac::TacConfig::paper_l1());
    let r_tac = usize::try_from(tac.runs_required)
        .unwrap_or(usize::MAX)
        .clamp(2_000, 40_000);

    let estimate = |seed: u64, runs: usize| {
        let sample = campaign_slice_with(
            &platform,
            &trace,
            0,
            runs,
            seed,
            &Parallelism::with_threads(4),
        );
        fit(&sample).quantile(1e-6)
    };

    let seeds = [111u64, 222, 333, 444];
    let spread = |runs: usize| {
        let qs: Vec<f64> = seeds.iter().map(|&s| estimate(s, runs)).collect();
        let lo = qs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = qs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (hi - lo) / hi
    };

    let small = spread(700); // convergence-scale campaign
    let large = spread(r_tac); // TAC-scale campaign
    assert!(
        large <= small,
        "TAC-sized campaigns must not be less stable: small-spread {small:.2}, \
         large-spread {large:.2}"
    );
    assert!(
        large < 0.40,
        "TAC-sized campaigns should agree across seeds: spread {large:.2}"
    );
}
