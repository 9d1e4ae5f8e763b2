//! Paper Figure 2 — ECCDFs of `bs`'s 8 maximum-iteration paths, before and
//! after PUB: **every pubbed path upper-bounds all original paths**
//! (Corollary 1's empirical evidence).
//!
//! The paper collects 1 000 000 execution times per path; the harness
//! default is 100 000 (10× scaled; `MBCR_SCALE=10` restores the paper
//! size). Writes `fig2_bs_eccdf.csv` with the full curves.

use mbcr_bench::{banner, harness_config, scaled, write_csv, Table};
use mbcr_cpu::{campaign_slice_with, Parallelism};
use mbcr_evt::Eccdf;
use mbcr_ir::execute;
use mbcr_pub::{pub_transform, PubConfig};

fn main() {
    banner("Figure 2: ECCDF of bs original vs pubbed paths");
    let runs = scaled(100_000);
    let cfg = harness_config(0xF162);

    let program = mbcr_malardalen::bs::program();
    let pubbed = pub_transform(&program, &PubConfig::paper()).expect("pub bs");
    let vectors = mbcr_malardalen::bs::input_vectors();

    let mut orig_curves: Vec<(String, Eccdf)> = Vec::new();
    let mut pub_curves: Vec<(String, Eccdf)> = Vec::new();
    for v in &vectors {
        let orig_trace = execute(&program, &v.inputs).expect("run bs").trace;
        let pub_trace = execute(&pubbed.program, &v.inputs)
            .expect("run bs_pub")
            .trace;
        let orig_times = campaign_slice_with(
            &cfg.platform,
            &orig_trace,
            0,
            runs,
            0xF162,
            &Parallelism::with_threads(cfg.threads),
        );
        let pub_times = campaign_slice_with(
            &cfg.platform,
            &pub_trace,
            0,
            runs,
            0xF162,
            &Parallelism::with_threads(cfg.threads),
        );
        orig_curves.push((v.name.clone(), Eccdf::from_u64(&orig_times)));
        pub_curves.push((v.name.clone(), Eccdf::from_u64(&pub_times)));
    }

    // Summary table: quantiles per curve.
    let probes = [1e-1, 1e-2, 1e-3, 1.0 / runs as f64];
    let mut t = Table::new(&["path", "kind", "q@1e-1", "q@1e-2", "q@1e-3", "q@1/R", "max"]);
    for (curves, kind) in [(&orig_curves, "orig"), (&pub_curves, "pub")] {
        for (name, e) in curves {
            let cells: Vec<String> = probes
                .iter()
                .map(|&p| format!("{:.0}", e.quantile(p)))
                .collect();
            t.row(&[
                name,
                kind,
                &cells[0],
                &cells[1],
                &cells[2],
                &cells[3],
                &format!("{:.0}", e.max()),
            ]);
        }
    }
    t.print();

    // The paper's claim: each pubbed path upper-bounds ALL original paths.
    let mut all_dominate = true;
    for (pname, p) in &pub_curves {
        for (oname, o) in &orig_curves {
            if !p.dominates(o, &probes, 0.0) {
                all_dominate = false;
                println!("VIOLATION: pubbed {pname} does not dominate original {oname}");
            }
        }
    }
    let max_orig = orig_curves
        .iter()
        .map(|(_, e)| e.max())
        .fold(f64::NEG_INFINITY, f64::max);
    let min_pub_tail = pub_curves
        .iter()
        .map(|(_, e)| e.quantile(1.0 / runs as f64))
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nhighest observed original execution time: {max_orig:.0} cycles \
         (paper: < 2 000 cycles)"
    );
    println!(
        "lowest pubbed quantile at 1/R exceedance  : {min_pub_tail:.0} cycles \
         (paper: 2 297 cycles for v9)"
    );
    println!(
        "every pubbed path upper-bounds every original path: {}",
        if all_dominate {
            "YES (Figure 2 REPRODUCED)"
        } else {
            "NO"
        }
    );
    assert!(all_dominate, "Figure 2 dominance must hold");

    // CSV with decimated curves for plotting.
    let mut rows = Vec::new();
    for (curves, kind) in [(&orig_curves, "orig"), (&pub_curves, "pub")] {
        for (name, e) in curves {
            for (x, p) in e.points(400) {
                rows.push(format!("{kind},{name},{x},{p:e}"));
            }
        }
    }
    let path = write_csv("fig2_bs_eccdf.csv", "kind,path,cycles,eccdf", &rows);
    println!("curves written to {}", path.display());
}
