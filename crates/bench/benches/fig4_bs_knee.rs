//! Paper Figure 4 — the ECCDF "knee": pWCET of `bs` with vector v9 from
//! `R_pub` vs `R_pub+tac` runs.
//!
//! A small campaign (`R_pub = 1 000`) misses the abrupt ECCDF change caused
//! by a low-probability conflictive cache placement; the TAC-sized campaign
//! (paper: 70 000 runs) observes it and the resulting pWCET upper-bounds
//! the long-run empirical curve (paper: 6 000 000 runs; harness default
//! 600 000 = 10× scaled).

use mbcr_bench::{banner, harness_config, scaled, write_csv, Table};
use mbcr_cpu::{campaign_slice_with, Parallelism};
use mbcr_evt::{Dither, Eccdf, FitMethod, Pwcet, TailConfig};
use mbcr_ir::execute;
use mbcr_pub::{pub_transform, PubConfig};
use mbcr_tac::analyze_lines;

fn main() {
    banner("Figure 4: pWCET for bs v9 with R_pub vs R_pub+tac runs");
    let cfg = harness_config(0xF164);
    let seed = 0xF164;

    let program = mbcr_malardalen::bs::program();
    let pubbed = pub_transform(&program, &PubConfig::paper()).expect("pub bs");
    let v9 = mbcr_malardalen::bs::input_vectors()
        .into_iter()
        .find(|v| v.name == "v9")
        .expect("v9 exists");
    let trace = execute(&pubbed.program, &v9.inputs)
        .expect("run bs_pub")
        .trace;

    // TAC requirement for this path.
    let il1 = analyze_lines(
        &trace.instr_lines(cfg.platform.il1.line_size()),
        &cfg.tac.for_cache(&cfg.platform.il1, seed),
    );
    let dl1 = analyze_lines(
        &trace.data_lines(cfg.platform.dl1.line_size()),
        &cfg.tac.for_cache(&cfg.platform.dl1, seed ^ 1),
    );
    let r_tac = il1.runs_required.max(dl1.runs_required);
    println!(
        "TAC: IL1 requires {} runs ({} groups), DL1 requires {} runs ({} groups)",
        il1.runs_required,
        il1.relevant_groups.len(),
        dl1.runs_required,
        dl1.relevant_groups.len()
    );
    println!("paper: R_pub = 1 000, R_p+t = 70 000; ours: R_tac = {r_tac}\n");

    // Campaigns: R_pub-sized, TAC-sized (capped) and the long reference.
    let r_pub = 1_000;
    let r_pt = usize::try_from(r_tac)
        .unwrap_or(usize::MAX)
        .clamp(r_pub, scaled(100_000));
    let long = scaled(600_000);

    let times_long = campaign_slice_with(
        &cfg.platform,
        &trace,
        0,
        long,
        seed,
        &Parallelism::with_threads(cfg.threads),
    );
    let times_pub = &times_long[..r_pub];
    let times_pt = &times_long[..r_pt];

    let fit = |sample: &[u64]| {
        Pwcet::fit(
            sample,
            FitMethod::ExpTailCv,
            &TailConfig::default(),
            Dither::Uniform { seed: 7 },
        )
        .expect("fit")
    };
    let pw_pub = fit(times_pub);
    let pw_pt = fit(times_pt);
    let reference = Eccdf::from_u64(&times_long);

    let mut t = Table::new(&[
        "exceedance",
        "pWCET (R_pub runs)",
        "pWCET (R_p+t runs)",
        "long-run ECCDF",
    ]);
    for exp in [3, 6, 9, 12] {
        let p = 10f64.powi(-exp);
        let emp = if p >= 1.0 / long as f64 {
            format!("{:.0}", reference.quantile(p))
        } else {
            "-".to_string()
        };
        t.row(&[
            &format!("1e-{exp}"),
            &format!("{:.0}", pw_pub.quantile(p)),
            &format!("{:.0}", pw_pt.quantile(p)),
            &emp,
        ]);
    }
    t.print();

    // The knee: does the small campaign even see the conflictive layouts?
    // Probe at the exceedance level the TAC-sized campaign is designed to
    // resolve (~2 expected observations in R_p+t runs, ~2·R_pub/R_p+t in
    // R_pub runs).
    let knee_threshold = reference.quantile((2.0 / r_pt as f64).max(5.0 / long as f64));
    let seen_pub = times_pub
        .iter()
        .filter(|&&t| t as f64 >= knee_threshold)
        .count();
    let seen_pt = times_pt
        .iter()
        .filter(|&&t| t as f64 >= knee_threshold)
        .count();
    println!(
        "\nknee region (>= {knee_threshold:.0} cycles): {seen_pub} observations in R_pub runs, \
         {seen_pt} in R_p+t runs"
    );
    let covered = pw_pt.quantile(1e-12) >= reference.max();
    println!(
        "pWCET@1e-12 from R_p+t runs ({:.0}) upper-bounds the long-run maximum ({:.0}): {}",
        pw_pt.quantile(1e-12),
        reference.max(),
        if covered {
            "YES (Figure 4 REPRODUCED)"
        } else {
            "NO"
        }
    );
    assert!(
        seen_pt >= seen_pub,
        "more runs cannot see fewer knee events"
    );
    assert!(covered, "the TAC-sized campaign must cover the knee");

    // CSV: both fitted curves + the reference ECCDF.
    let mut rows = Vec::new();
    for (x, p) in reference.points(500) {
        rows.push(format!("eccdf_long,{x},{p:e}"));
    }
    for exp in 1..=12 {
        let p = 10f64.powi(-exp);
        rows.push(format!("pwcet_rpub,{},{p:e}", pw_pub.quantile(p)));
        rows.push(format!("pwcet_rpt,{},{p:e}", pw_pt.quantile(p)));
    }
    let path = write_csv("fig4_bs_knee.csv", "series,cycles,probability", &rows);
    println!("series written to {}", path.display());
}
