//! Ablation benches for the design choices called out in `DESIGN.md` §5:
//!
//! 1. loop padding on/off (PUB extension);
//! 2. exponential-tail vs Gumbel pWCET models;
//! 3. TAC impact-threshold sweep;
//! 4. randomized vs deterministic platform (why MBPTA needs the former).

use mbcr::{analyze_pub_tac, AnalysisConfig};
use mbcr_bench::{banner, harness_config, scaled, Table};
use mbcr_cpu::{campaign_slice_with, Parallelism, PlatformConfig};
use mbcr_evt::{Dither, FitMethod, Pwcet, TailConfig};
use mbcr_ir::execute;
use mbcr_pub::{pub_transform, PubConfig};
use mbcr_tac::{analyze_symbolic, TacConfig};
use mbcr_trace::SymSeq;

fn main() {
    banner("Ablations: loop padding, tail model, TAC thresholds, platform randomization");
    let cfg = harness_config(0xAB1A);

    ablate_loop_padding(&cfg);
    ablate_tail_model(&cfg);
    ablate_tac_threshold();
    ablate_platform(&cfg);
}

fn ablate_loop_padding(cfg: &AnalysisConfig) {
    println!("\n--- 1. PUB loop padding (extension beyond the paper) ---");
    let mut t = Table::new(&["benchmark", "padding", "touch stmts", "pWCET P+T"]);
    for name in ["bs", "insertsort"] {
        let b = mbcr_malardalen::by_name(name).expect("benchmark exists");
        for (label, pub_cfg) in [
            ("off (paper)", PubConfig::paper()),
            ("on", PubConfig::with_loop_padding()),
        ] {
            let mut c = cfg.clone();
            c.pub_cfg = pub_cfg;
            let a = analyze_pub_tac(&b.program, &b.default_input, &c).expect("analyze");
            t.row(&[
                name,
                label,
                &a.pub_report.total_inserted_instrs().to_string(),
                &format!("{:.0}", a.pwcet_pub_tac),
            ]);
        }
    }
    t.print();
    println!("expected: padding inflates inserted instructions and (usually) the pWCET —");
    println!("the price of dropping the max-loop-bound input assumption.");
}

fn ablate_tail_model(cfg: &AnalysisConfig) {
    println!("\n--- 2. exponential tail (CV) vs Gumbel block maxima ---");
    let b = mbcr_malardalen::bs::benchmark();
    let pubbed = pub_transform(&b.program, &PubConfig::paper()).expect("pub");
    let trace = execute(&pubbed.program, &b.default_input)
        .expect("run")
        .trace;
    let sample = campaign_slice_with(
        &cfg.platform,
        &trace,
        0,
        scaled(50_000),
        0xAB2B,
        &Parallelism::with_threads(cfg.threads),
    );

    let mut t = Table::new(&["model", "pWCET@1e-9", "pWCET@1e-12"]);
    for (label, method) in [
        ("exp tail (CV)", FitMethod::ExpTailCv),
        ("Gumbel b=50", FitMethod::Gumbel { block_size: 50 }),
        ("Gumbel b=200", FitMethod::Gumbel { block_size: 200 }),
    ] {
        let pw = Pwcet::fit(
            &sample,
            method,
            &TailConfig::default(),
            Dither::Uniform { seed: 3 },
        )
        .expect("fit");
        t.row(&[
            label,
            &format!("{:.0}", pw.quantile(1e-9)),
            &format!("{:.0}", pw.quantile(1e-12)),
        ]);
    }
    t.print();
    println!("expected: comparable orders; the exponential tail is the stable choice");
    println!("recommended by the MBPTA literature the paper builds on.");
}

fn ablate_tac_threshold() {
    println!("\n--- 3. TAC impact threshold and probability floor ---");
    let seq: SymSeq = "ABCDEA".parse().expect("valid");
    let stream = seq.repeat(1000);
    let mut t = Table::new(&["min_extra_misses", "relevant groups", "R_tac"]);
    for thr in [1.0, 4.0, 64.0, 1024.0, 1e6] {
        let mut cfg = TacConfig::paper_example();
        cfg.min_extra_misses = thr;
        let a = analyze_symbolic(&stream, &cfg);
        t.row(&[
            &format!("{thr}"),
            &a.relevant_groups.len().to_string(),
            &a.runs_required.to_string(),
        ]);
    }
    t.print();
    let mut t = Table::new(&["prob_floor", "classes", "R_tac"]);
    for floor in [1e-12, 1e-6, 1e-3] {
        let mut cfg = TacConfig::paper_example();
        cfg.prob_floor = floor;
        let a = analyze_symbolic(&stream, &cfg);
        t.row(&[
            &format!("{floor:e}"),
            &a.classes.len().to_string(),
            &a.runs_required.to_string(),
        ]);
    }
    t.print();
    println!("expected: R is stable until the threshold crosses the group's impact,");
    println!("then drops to 0 — the knobs gate *which* layouts count, not the math.");
}

fn ablate_platform(cfg: &AnalysisConfig) {
    println!("\n--- 4. randomized vs deterministic platform ---");
    let b = mbcr_malardalen::bs::benchmark();
    let trace = execute(&b.program, &b.default_input).expect("run").trace;

    let mut t = Table::new(&["platform", "distinct times in 1000 runs", "min", "max"]);
    for (label, platform) in [
        (
            "random placement+replacement",
            PlatformConfig::paper_default(),
        ),
        (
            "modulo + LRU (deterministic)",
            PlatformConfig::deterministic(),
        ),
    ] {
        let times = campaign_slice_with(
            &platform,
            &trace,
            0,
            1000,
            0xAB4D,
            &Parallelism::with_threads(cfg.threads),
        );
        let distinct: std::collections::HashSet<u64> = times.iter().copied().collect();
        t.row(&[
            label,
            &distinct.len().to_string(),
            &times.iter().min().expect("non-empty").to_string(),
            &times.iter().max().expect("non-empty").to_string(),
        ]);
    }
    t.print();
    println!("expected: the deterministic platform shows exactly 1 distinct time —");
    println!("no layout exploration, so MBPTA/TAC have nothing to work with (paper §2).");
}
