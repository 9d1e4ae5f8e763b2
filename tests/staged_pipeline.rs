//! Bit-identity and resume semantics of the stage-graph API.
//!
//! The staged [`AnalysisSession`] must reproduce the seed's monolithic
//! pipeline exactly — same samples, same pWCET, same R-values — whether it
//! runs cold, warm from a stage store, or resumed after a knob change. The
//! reference below is a line-for-line port of the seed's monolithic
//! `analyze_pub_tac`, kept alive in this test so the equivalence claim is
//! checked against the original algorithm, not against the wrapper that
//! now shares code with the session.

use mbcr::stage::{AnalysisSession, MemoryStageStore, StageKind, StageStatus};
use mbcr::{analyze_original, analyze_pub_tac, AnalysisConfig};
use mbcr_cpu::{campaign_slice_with, Parallelism};
use mbcr_evt::{converge, IidReport, Pwcet};
use mbcr_ir::{execute, Inputs, Program};
use mbcr_pub::pub_transform;
use mbcr_rng::derive_seed;
use mbcr_tac::analyze_lines;

/// The seed repository's monolithic `analyze_pub_tac`, verbatim modulo
/// visibility: the ground truth the staged API must match bit-for-bit.
fn reference_pub_tac(
    program: &Program,
    input: &Inputs,
    cfg: &AnalysisConfig,
) -> (usize, u64, u64, usize, Vec<u64>, f64, f64) {
    let campaign_seed = derive_seed(cfg.seed, 0xCA);
    let pubbed = pub_transform(program, &cfg.pub_cfg).expect("pub");
    let run = execute(&pubbed.program, input).expect("execute");

    let il1_stream = run.trace.instr_lines(cfg.platform.il1.line_size());
    let dl1_stream = run.trace.data_lines(cfg.platform.dl1.line_size());
    let tac_il1 = analyze_lines(
        &il1_stream,
        &cfg.tac
            .for_cache(&cfg.platform.il1, derive_seed(cfg.seed, 1)),
    );
    let tac_dl1 = analyze_lines(
        &dl1_stream,
        &cfg.tac
            .for_cache(&cfg.platform.dl1, derive_seed(cfg.seed, 2)),
    );
    let r_tac = tac_il1.runs_required.max(tac_dl1.runs_required);

    let serial = Parallelism::serial().batch_width(1);
    let mut next = 0usize;
    let outcome = converge(
        |count| {
            let out = campaign_slice_with(
                &cfg.platform,
                &run.trace,
                next,
                count,
                campaign_seed,
                &serial,
            );
            next += count;
            out
        },
        &cfg.convergence,
    )
    .expect("converge");
    let r_pub = outcome.runs;
    let pwcet_pub = outcome.pwcet.quantile(cfg.exceedance);

    let r_pub_tac = r_tac.max(r_pub as u64);
    let campaign_runs = usize::try_from(r_pub_tac)
        .unwrap_or(usize::MAX)
        .min(cfg.max_campaign_runs)
        .max(r_pub.min(cfg.max_campaign_runs));

    let sample = campaign_slice_with(
        &cfg.platform,
        &run.trace,
        0,
        campaign_runs,
        campaign_seed,
        &Parallelism::with_threads(cfg.threads),
    );
    let pwcet = Pwcet::fit(
        &sample,
        cfg.convergence.method,
        &cfg.convergence.tail,
        cfg.convergence.dither,
    )
    .expect("fit");
    let float_sample: Vec<f64> = sample.iter().map(|&v| v as f64).collect();
    let _iid = IidReport::evaluate(&float_sample);
    let pwcet_pub_tac = pwcet.quantile(cfg.exceedance);

    (
        r_pub,
        r_tac,
        r_pub_tac,
        campaign_runs,
        sample,
        pwcet_pub,
        pwcet_pub_tac,
    )
}

/// The seed repository's monolithic `analyze_original`, verbatim modulo
/// visibility: `(r_orig, converged, pwcet_at_exceedance, trace_len)`.
fn reference_original(
    program: &Program,
    input: &Inputs,
    cfg: &AnalysisConfig,
) -> (usize, bool, f64, usize) {
    let campaign_seed = derive_seed(cfg.seed, 0xCA);
    let run = execute(program, input).expect("execute");
    let serial = Parallelism::serial().batch_width(1);
    let mut next = 0usize;
    let outcome = converge(
        |count| {
            let out = campaign_slice_with(
                &cfg.platform,
                &run.trace,
                next,
                count,
                campaign_seed,
                &serial,
            );
            next += count;
            out
        },
        &cfg.convergence,
    )
    .expect("converge");
    (
        outcome.runs,
        outcome.converged,
        outcome.pwcet.quantile(cfg.exceedance),
        run.trace.len(),
    )
}

fn quick_cfg(seed: u64) -> AnalysisConfig {
    AnalysisConfig::builder()
        .seed(seed)
        .quick()
        .threads(2)
        .build()
}

#[test]
fn staged_session_is_bit_identical_to_the_seed_monolith() {
    let b = mbcr_malardalen::bs::benchmark();
    for seed in [1, 42, 0xDEAD] {
        let cfg = quick_cfg(seed);
        let (r_pub, r_tac, r_pub_tac, campaign_runs, sample, pwcet_pub, pwcet_pub_tac) =
            reference_pub_tac(&b.program, &b.default_input, &cfg);

        // The thin wrapper (a storeless session).
        let wrapped = analyze_pub_tac(&b.program, &b.default_input, &cfg).expect("wrapper");
        assert_eq!(wrapped.r_pub, r_pub, "seed {seed}");
        assert_eq!(wrapped.r_tac, r_tac);
        assert_eq!(wrapped.r_pub_tac, r_pub_tac);
        assert_eq!(wrapped.campaign_runs, campaign_runs);
        assert_eq!(wrapped.sample, sample, "samples must be bit-identical");
        assert_eq!(wrapped.pwcet_pub, pwcet_pub);
        assert_eq!(wrapped.pwcet_pub_tac, pwcet_pub_tac);

        // A stored session, cold.
        let store = MemoryStageStore::default();
        let cold = AnalysisSession::pub_tac(&b.program, &b.default_input, &cfg)
            .with_store(&store)
            .finish_pub_tac()
            .expect("cold session");
        assert_eq!(cold.sample, sample);
        assert_eq!(cold.pwcet_pub_tac, pwcet_pub_tac);

        // The same session warm: every stage loads, results unchanged.
        let warm = AnalysisSession::pub_tac(&b.program, &b.default_input, &cfg)
            .with_store(&store)
            .finish_pub_tac()
            .expect("warm session");
        assert_eq!(warm.sample, sample);
        assert_eq!(warm.pwcet_pub, pwcet_pub);
        assert_eq!(warm.pwcet_pub_tac, pwcet_pub_tac);
        assert_eq!(warm.r_pub, r_pub);
        assert_eq!(warm.r_tac, r_tac);
    }
}

#[test]
fn staged_original_matches_the_seed_monolith() {
    let b = mbcr_malardalen::insertsort::benchmark();
    let cfg = quick_cfg(7);
    let (r_orig, converged, pwcet_at_exceedance, trace_len) =
        reference_original(&b.program, &b.default_input, &cfg);

    // The wrapper is itself a session, so additionally pin it to the
    // independent reference port of the seed monolith.
    let direct = analyze_original(&b.program, &b.default_input, &cfg).expect("direct");
    assert_eq!(direct.r_orig, r_orig);
    assert_eq!(direct.converged, converged);
    assert_eq!(direct.pwcet_at_exceedance, pwcet_at_exceedance);
    assert_eq!(direct.trace_len, trace_len);

    let store = MemoryStageStore::default();
    let cold = AnalysisSession::original(&b.program, &b.default_input, &cfg)
        .with_store(&store)
        .finish_original()
        .expect("cold");
    let warm = AnalysisSession::original(&b.program, &b.default_input, &cfg)
        .with_store(&store)
        .finish_original()
        .expect("warm");
    for analysis in [&cold, &warm] {
        assert_eq!(analysis.r_orig, direct.r_orig);
        assert_eq!(analysis.converged, direct.converged);
        assert_eq!(analysis.pwcet_at_exceedance, direct.pwcet_at_exceedance);
        assert_eq!(analysis.trace_len, direct.trace_len);
    }
}

/// A warm re-run after changing only `max_campaign_runs` must reuse the
/// cached PUB/trace/TAC/converge stages and recompute only campaign + fit
/// — and the resumed sample must still be bit-identical to a cold run
/// under the new cap (the campaign tail restarts from the convergence
/// boundary of the seed stream).
#[test]
fn cap_change_resumes_from_the_converge_boundary() {
    let b = mbcr_malardalen::bs::benchmark();
    let base = quick_cfg(3);
    let store = MemoryStageStore::default();

    let cold = AnalysisSession::pub_tac(&b.program, &b.default_input, &base)
        .with_store(&store)
        .finish_pub_tac()
        .expect("cold");
    assert!(
        cold.campaign_runs > cold.r_pub,
        "the demo cell must have a TAC-extended campaign for this test"
    );

    let recapped = AnalysisConfig::builder()
        .seed(3)
        .quick()
        .threads(2)
        .max_campaign_runs(cold.r_pub + 50)
        .build();
    let mut resumed =
        AnalysisSession::pub_tac(&b.program, &b.default_input, &recapped).with_store(&store);
    resumed.advance(StageKind::Fit).expect("resume");
    for stage in [
        StageKind::Trace,
        StageKind::TacIl1,
        StageKind::TacDl1,
        StageKind::Converge,
    ] {
        assert_eq!(
            resumed.status(stage),
            Some(StageStatus::Cached),
            "{} must be reused after a cap change",
            stage.name()
        );
    }
    for stage in [StageKind::Campaign, StageKind::Fit] {
        assert_eq!(
            resumed.status(stage),
            Some(StageStatus::Computed),
            "{} must re-execute after a cap change",
            stage.name()
        );
    }
    let resumed = resumed.finish_pub_tac().expect("finish");

    // Ground truth: a cold, storeless run under the new cap.
    let direct = analyze_pub_tac(&b.program, &b.default_input, &recapped).expect("direct");
    assert_eq!(
        resumed.sample, direct.sample,
        "resume must be bit-identical"
    );
    assert_eq!(resumed.pwcet_pub_tac, direct.pwcet_pub_tac);
    assert_eq!(resumed.campaign_runs, direct.campaign_runs);
    assert!(resumed.campaign_capped);

    // And the resumed sample extends the cold prefix of the seed stream.
    assert_eq!(
        &resumed.sample[..cold.r_pub],
        &cold.sample[..cold.r_pub],
        "shared seed-stream prefix"
    );
}
