//! Cross-crate evidence for PUB's soundness claims (paper Equation 1,
//! Observations 1–3): every path of the pubbed program upper-bounds every
//! path of the original program on the time-randomized platform.

use mbcr::prelude::*;
use mbcr_ir::{classify, execute, validate_classification, verify_balance, PathSpace};
use mbcr_malardalen::Benchmark;
use mbcr_pub::shape::{data_shape, shape_summary};

const PROBES: [f64; 4] = [0.5, 0.1, 0.01, 0.001];

fn eccdf_of(cfg: &PlatformConfig, trace: &mbcr_trace::Trace, runs: usize, seed: u64) -> Eccdf {
    let par = Parallelism::with_threads(4);
    Eccdf::from_u64(&campaign_slice_with(cfg, trace, 0, runs, seed, &par))
}

/// Figure 2 in miniature: every pubbed bs path dominates every original bs
/// path at the probed exceedance levels.
#[test]
fn every_pubbed_bs_path_dominates_every_original_path() {
    let platform = PlatformConfig::paper_default();
    let program = mbcr_malardalen::bs::program();
    let pubbed = pub_transform(&program, &PubConfig::paper()).expect("pub");
    let vectors = mbcr_malardalen::bs::input_vectors();
    let runs = 4_000;

    let orig: Vec<Eccdf> = vectors
        .iter()
        .map(|v| {
            eccdf_of(
                &platform,
                &execute(&program, &v.inputs).unwrap().trace,
                runs,
                11,
            )
        })
        .collect();
    let pubs: Vec<Eccdf> = vectors
        .iter()
        .map(|v| {
            eccdf_of(
                &platform,
                &execute(&pubbed.program, &v.inputs).unwrap().trace,
                runs,
                11,
            )
        })
        .collect();

    for (i, p) in pubs.iter().enumerate() {
        for (j, o) in orig.iter().enumerate() {
            assert!(
                p.dominates(o, &PROBES, 0.0),
                "pubbed path {i} must dominate original path {j}"
            );
        }
    }
}

/// All pubbed paths emit the same data-array shape and the same instruction
/// count — the structural half of the exchangeability argument.
#[test]
fn pubbed_paths_share_one_architectural_shape() {
    let program = mbcr_malardalen::bs::program();
    let pubbed = pub_transform(&program, &PubConfig::paper()).expect("pub");
    let runs: Vec<_> = mbcr_malardalen::bs::input_vectors()
        .iter()
        .map(|v| execute(&pubbed.program, &v.inputs).unwrap())
        .collect();

    let first_shape = data_shape(&runs[0].trace, &pubbed.program);
    let first_summary = shape_summary(&runs[0].trace, &pubbed.program);
    for r in &runs[1..] {
        assert_eq!(data_shape(&r.trace, &pubbed.program), first_shape);
        let s = shape_summary(&r.trace, &pubbed.program);
        assert_eq!(
            s.fetches, first_summary.fetches,
            "equalized instruction counts"
        );
        assert_eq!(s.per_array, first_summary.per_array);
    }
}

/// Per-path supersequence: the pubbed trace of a path embeds the original
/// trace of the *same* path (Equation 2: pub = chain of insertions).
#[test]
fn pubbed_trace_embeds_original_trace_per_path() {
    for name in ["bs", "cnt", "fir", "janne", "crc"] {
        let b = mbcr_malardalen::by_name(name).expect("benchmark");
        let pubbed = pub_transform(&b.program, &PubConfig::paper()).expect("pub");
        for v in &b.input_vectors {
            let orig = execute(&b.program, &v.inputs).unwrap().trace;
            let pubt = execute(&pubbed.program, &v.inputs).unwrap().trace;
            // Data-line subsequence check (instruction addresses legitimately
            // differ — branch bodies move when code is inserted).
            let ol = orig.data_lines(32);
            let pl = pubt.data_lines(32);
            let mut it = ol.iter();
            let mut need = it.next();
            for l in &pl {
                if Some(l) == need {
                    need = it.next();
                }
            }
            assert!(
                need.is_none(),
                "{name}:{} pubbed data must embed original",
                v.name
            );
            assert!(
                pubt.len() >= orig.len(),
                "{name}:{} pub never shrinks",
                v.name
            );
        }
    }
}

/// Mean execution time of the pubbed program is at least the original's for
/// every path of every multipath benchmark (first-moment dominance).
#[test]
fn pubbed_mean_time_dominates_original_per_benchmark() {
    let platform = PlatformConfig::paper_default();
    for name in ["bs", "cnt", "fir", "janne", "crc"] {
        let b = mbcr_malardalen::by_name(name).expect("benchmark");
        let pubbed = pub_transform(&b.program, &PubConfig::paper()).expect("pub");
        for v in &b.input_vectors {
            let orig = execute(&b.program, &v.inputs).unwrap().trace;
            let pubt = execute(&pubbed.program, &v.inputs).unwrap().trace;
            let mo = eccdf_of(&platform, &orig, 3_000, 23).mean();
            let mp = eccdf_of(&platform, &pubt, 3_000, 23).mean();
            // 0.5% slack: the two campaigns draw different placements, so
            // the comparison carries Monte-Carlo error of about sigma/sqrt(n).
            assert!(
                mp >= mo * 0.995,
                "{name}:{}: pubbed mean {mp:.1} must be >= original mean {mo:.1}",
                v.name
            );
        }
    }
}

/// Single-path programs are (nearly) untouched by PUB: no conditionals, no
/// widening, identical traces.
#[test]
fn single_path_programs_are_untouched() {
    for name in ["edn", "jfdc", "matmult", "fdct"] {
        let b = mbcr_malardalen::by_name(name).expect("benchmark");
        let pubbed = pub_transform(&b.program, &PubConfig::paper()).expect("pub");
        assert_eq!(
            pubbed.report.widened_touches, 0,
            "{name}: no taint, no widening"
        );
        assert_eq!(
            pubbed.report.total_inserted_instrs(),
            0,
            "{name}: no conditionals, nothing to equalize"
        );
        let orig = execute(&b.program, &b.default_input).unwrap().trace;
        let pubt = execute(&pubbed.program, &b.default_input).unwrap().trace;
        assert_eq!(orig.len(), pubt.len(), "{name}: trace length preserved");
    }
}

/// The pubbed program still computes the same results (touches are
/// functionally innocuous).
#[test]
fn pub_preserves_functional_semantics() {
    // bs: the found value must be identical.
    let program = mbcr_malardalen::bs::program();
    let pubbed = pub_transform(&program, &PubConfig::paper()).expect("pub");
    let fvalue = program.var_by_name("fvalue").expect("fvalue");
    for v in mbcr_malardalen::bs::input_vectors() {
        let o = execute(&program, &v.inputs).unwrap();
        let p = execute(&pubbed.program, &v.inputs).unwrap();
        assert_eq!(o.state.var(fvalue), p.state.var(fvalue), "{}", v.name);
    }
    // insertsort: the array must still be sorted.
    let b = mbcr_malardalen::insertsort::benchmark();
    let pubbed = pub_transform(&b.program, &PubConfig::paper()).expect("pub");
    let arr = b.program.array_by_name("a").expect("a");
    for v in &b.input_vectors {
        let p = execute(&pubbed.program, &v.inputs).unwrap();
        let out = p.state.array(arr);
        assert!(out.windows(2).all(|w| w[0] <= w[1]), "{}: {out:?}", v.name);
    }
}

/// Padding leaves a loop whose constant bounds span its declared bound as
/// it is: matmult's and edn's loops all do, so their padded traces are
/// their paper-PUB traces on every input vector, with no loop rewritten.
#[test]
fn padding_skips_loops_that_always_run_their_bound() {
    for b in [
        mbcr_malardalen::matmult::benchmark(),
        mbcr_malardalen::edn::benchmark(),
    ] {
        let padded = pub_transform(&b.program, &PubConfig::with_loop_padding()).expect("pub");
        let paper = pub_transform(&b.program, &PubConfig::paper()).expect("pub");
        assert_eq!(padded.report.loops_padded, 0, "{}", b.name);
        for v in &b.input_vectors {
            assert_eq!(
                execute(&padded.program, &v.inputs).unwrap().trace,
                execute(&paper.program, &v.inputs).unwrap().trace,
                "{} {}",
                b.name,
                v.name
            );
        }
    }
}

/// Loop padding extends dominance to inputs that do NOT trigger max loop
/// bounds (the documented extension). On every benchmark the padded
/// program is branch-balanced, and every input vector runs the same
/// number of accesses and of instruction fetches. On insertsort, whose
/// sorted and reversed inputs iterate least and most, the two padded runs
/// are also identically distributed.
#[test]
fn loop_padding_equalizes_short_paths() {
    for b in mbcr_malardalen::suite() {
        let padded = pub_transform(&b.program, &PubConfig::with_loop_padding()).expect("pub");
        let balance = verify_balance(&padded.program);
        assert!(balance.is_empty(), "{}: {balance}", b.name);
        let sizes: Vec<(usize, usize)> = b
            .input_vectors
            .iter()
            .map(|v| {
                let trace = execute(&padded.program, &v.inputs).unwrap().trace;
                (trace.len(), trace.instr_fetches().count())
            })
            .collect();
        assert!(
            sizes.iter().all(|&s| s == sizes[0]),
            "{}: padded (accesses, fetches) differ across inputs: {sizes:?}",
            b.name
        );
    }

    let platform = PlatformConfig::paper_default();
    let b = mbcr_malardalen::insertsort::benchmark();
    let padded = pub_transform(&b.program, &PubConfig::with_loop_padding()).expect("pub");
    // Sorted input (minimal iterations) vs reversed (maximal).
    let sorted = &b.input_vectors[1];
    let reversed = &b.input_vectors[0];
    let t_sorted = execute(&padded.program, &sorted.inputs).unwrap().trace;
    let t_rev = execute(&padded.program, &reversed.inputs).unwrap().trace;
    let e_sorted = eccdf_of(&platform, &t_sorted, 2_000, 31);
    let e_rev = eccdf_of(&platform, &t_rev, 2_000, 31);
    // Identical shapes -> identically distributed; allow small MC slack.
    for p in PROBES {
        let (a, bq) = (e_sorted.quantile(p), e_rev.quantile(p));
        assert!((a - bq).abs() / bq < 0.05, "p={p}: {a} vs {bq}");
    }
}

/// The three forms of a benchmark the analyses read: the original, the
/// paper-PUB program and the loop-padded program.
fn forms(b: &Benchmark) -> [(&'static str, Program); 3] {
    let pubbed = |cfg| pub_transform(&b.program, &cfg).expect("pub").program;
    [
        ("original", b.program.clone()),
        ("paper", pubbed(PubConfig::paper())),
        ("padded", pubbed(PubConfig::with_loop_padding())),
    ]
}

/// The footprint model against the interpreter, path by path: on every
/// benchmark form and input vector, the Ball–Larus signature of the run's
/// path is exactly its instruction-fetch count and trace length.
#[test]
fn path_signatures_match_every_benchmark_run() {
    for b in mbcr_malardalen::suite() {
        for (form, program) in forms(&b) {
            let space = PathSpace::of(&program);
            for v in &b.input_vectors {
                let run = execute(&program, &v.inputs).unwrap();
                let sig = space
                    .signature_of(&run.path)
                    .unwrap_or_else(|e| panic!("{} {form} {}: {e}", b.name, v.name));
                assert_eq!(
                    (sig.instr_fetches, sig.instr_fetches + sig.data_accesses),
                    (
                        run.trace.instr_fetches().count() as u64,
                        run.trace.len() as u64
                    ),
                    "{} {form} {}",
                    b.name,
                    v.name
                );
            }
        }
    }
}

/// The footprint model against the interpreter, access by access: on
/// every benchmark form, the cache analysis at the paper L1 attributes
/// every access of every input vector's run to one of its sites, and the
/// simulator contradicts none of its classifications.
#[test]
fn cache_classification_validates_on_every_benchmark_form() {
    let l1 = CacheGeometry::paper_l1();
    for b in mbcr_malardalen::suite() {
        let inputs: Vec<Inputs> = b.input_vectors.iter().map(|v| v.inputs.clone()).collect();
        for (form, program) in forms(&b) {
            let cls = classify(&program, l1, l1);
            let diags = validate_classification(&program, &inputs, &cls).expect("runs");
            assert!(diags.is_empty(), "{} {form}: {diags}", b.name);
        }
    }
}
