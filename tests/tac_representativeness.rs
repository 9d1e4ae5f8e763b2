//! TAC behaves as the paper describes: the Section 3.1 numbers, and — the
//! core representativeness claim — campaigns of the TAC-derived length
//! actually observe the conflictive layouts.

use mbcr::prelude::*;
use mbcr_tac::{analyze_symbolic, comapping_probability, runs_for_probability};
use mbcr_trace::SymSeq;

fn seq(s: &str) -> SymSeq {
    s.parse().expect("valid sequence")
}

#[test]
fn section_31_numbers_match_paper() {
    let cfg = TacConfig::paper_example();
    assert_eq!(
        analyze_symbolic(&seq("ABCA").repeat(1000), &cfg).runs_required,
        0
    );
    let r1 = analyze_symbolic(&seq("ABCDEA").repeat(1000), &cfg).runs_required;
    let r2 = analyze_symbolic(&seq("ABCDEFA").repeat(1000), &cfg).runs_required;
    // Paper: > 84 875 and > 14 138 (rounded probabilities).
    assert!((r1 as f64 - 84_875.0).abs() / 84_875.0 < 1e-3, "r1 = {r1}");
    assert!((r2 as f64 - 14_138.0).abs() / 14_138.0 < 1e-3, "r2 = {r2}");
}

/// The probability math: with R = runs_for_probability(p, target) runs, the
/// chance of observing at least one event of per-run probability p is at
/// least 1 - target. Validate empirically at a testable scale.
#[test]
fn derived_run_counts_observe_the_event() {
    // Event: 3 specific lines co-mapped in an S=8 set -> p = 1/64.
    let p_event = comapping_probability(3, 8);
    let r = runs_for_probability(p_event, 0.01); // 1% miss chance for testability
    assert!(r > 0);

    // Simulate: count campaigns (of length r) that never see the event.
    let mut misses = 0u32;
    let trials: u64 = 400;
    for t in 0..trials {
        let mut seen = false;
        for i in 0..r {
            let seed = t * 1_000_003 + i;
            let s0 = PlacementPolicy::RandomHash.set_of(mbcr_trace::LineId(1), 8, seed);
            let s1 = PlacementPolicy::RandomHash.set_of(mbcr_trace::LineId(2), 8, seed);
            let s2 = PlacementPolicy::RandomHash.set_of(mbcr_trace::LineId(3), 8, seed);
            if s0 == s1 && s1 == s2 {
                seen = true;
                break;
            }
        }
        if !seen {
            misses += 1;
        }
    }
    let miss_rate = f64::from(misses) / trials as f64;
    // Expected miss rate <= 1%; allow generous sampling slack.
    assert!(miss_rate <= 0.04, "miss rate = {miss_rate}");
}

/// End-to-end Figure 4 logic: a TAC-sized campaign captures execution times
/// that a convergence-sized campaign misses.
#[test]
fn tac_sized_campaign_sees_the_knee() {
    let platform = PlatformConfig::paper_default();
    // {ABCDEA}-style stress: 5 lines that overflow a 4-way set... on the
    // paper L1 (2-way, 64 sets), 3 round-robin lines suffice.
    let trace = seq("ABC").repeat(400).to_trace(32);

    let small = campaign_slice_with(&platform, &trace, 0, 300, 99, &Parallelism::with_threads(2));
    let large = campaign_slice_with(
        &platform,
        &trace,
        0,
        90_000,
        99,
        &Parallelism::with_threads(4),
    );

    let max_small = *small.iter().max().expect("non-empty");
    let max_large = *large.iter().max().expect("non-empty");
    // The conflictive layout (all 3 lines in one set) occurs with
    // p = (1/64)^2 ~ 2.4e-4: almost surely absent in 300 runs, almost
    // surely present in 90 000.
    assert!(
        max_large as f64 >= 1.5 * max_small as f64,
        "knee not visible: small max {max_small}, large max {max_large}"
    );
}

#[test]
fn tac_requirement_scales_with_cache_and_pattern() {
    // More sets -> rarer co-mapping -> more runs.
    let s8 = analyze_symbolic(&seq("ABCDEA").repeat(500), &TacConfig::new(8, 4));
    let s16 = analyze_symbolic(&seq("ABCDEA").repeat(500), &TacConfig::new(16, 4));
    assert!(s16.runs_required > s8.runs_required);

    // More equally-damaging groups -> higher aggregate probability -> fewer
    // runs (the paper's 3.1.2 effect).
    let five = analyze_symbolic(&seq("ABCDEA").repeat(500), &TacConfig::paper_example());
    let six = analyze_symbolic(&seq("ABCDEFA").repeat(500), &TacConfig::paper_example());
    assert!(six.runs_required < five.runs_required);
}

#[test]
fn pipeline_r_combines_pub_and_tac() {
    let b = mbcr_malardalen::bs::benchmark();
    let cfg = AnalysisConfig::builder().seed(42).quick().build();
    let a = analyze_pub_tac(&b.program, &b.default_input, &cfg).expect("analyze");
    assert_eq!(
        a.r_pub_tac,
        a.r_tac.max(a.r_pub as u64),
        "R_p+t = max(R_pub, R_tac)"
    );
}
