//! Criterion performance benches for the two analyses: PUB transformation
//! and TAC conflict-group discovery.

use criterion::{criterion_group, criterion_main, Criterion};
use mbcr_ir::{execute, Inputs};
use mbcr_json::Json;
use mbcr_malardalen::Benchmark;
use mbcr_pub::{pub_transform, PubConfig};
use mbcr_tac::{analyze_lines, TacConfig};
use mbcr_trace::LineId;
use std::hint::black_box;
use std::time::Instant;

fn bench_pub(c: &mut Criterion) {
    let suite = mbcr_malardalen::suite();
    c.bench_function("pub_transform_suite", |b| {
        b.iter(|| {
            for bench in &suite {
                black_box(pub_transform(&bench.program, &PubConfig::paper()).expect("pub"));
            }
        });
    });
    let bs = mbcr_malardalen::bs::benchmark();
    c.bench_function("pub_transform_bs_padded", |b| {
        b.iter(|| {
            black_box(pub_transform(&bs.program, &PubConfig::with_loop_padding()).expect("pub"))
        });
    });
}

/// One `tac_suite` geometry: the pubbed streams TAC analyses in a sweep.
struct TacSuite {
    name: &'static str,
    geometry: &'static str,
    cfg: TacConfig,
    /// `[il1, dl1]` line streams, one pair per input vector.
    streams: Vec<[Vec<LineId>; 2]>,
}

const CACHES: [&str; 2] = ["il1", "dl1"];

/// Pubbed line streams of `inputs` on 32-byte lines.
fn pubbed_streams(inputs: &[(&Benchmark, &Inputs)]) -> Vec<[Vec<LineId>; 2]> {
    inputs
        .iter()
        .map(|(bench, input)| {
            let pubbed = pub_transform(&bench.program, &PubConfig::paper()).expect("pub");
            let trace = execute(&pubbed.program, input).expect("run").trace;
            [trace.instr_lines(32), trace.data_lines(32)]
        })
        .collect()
}

/// TAC over the streams two sweeps analyse: the paper spec's 31 input
/// vectors at the paper L1 (4096:2:32, 8 Monte-Carlo reps) and
/// `assoc4_quick`'s default inputs of every benchmark but fdct and jfdc at
/// 4096:4:32 (quick preset, 4 reps). Written to `BENCH_tac.json` at the workspace root with seconds
/// (best of 3), groups evaluated and groups/s per geometry and cache.
///
/// The row uses only public API, so the same file runs at an older commit.
/// A `parent` entry of an existing `BENCH_tac.json` (the same row measured
/// at an earlier commit) is kept. Under `MBCR_PERF_SMOKE=1` the row runs
/// once instead of best of 3.
fn bench_tac_suite(_c: &mut Criterion) {
    let smoke = std::env::var("MBCR_PERF_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    let reps = if smoke { 1 } else { 3 };
    let suite = mbcr_malardalen::suite();
    let every_vector: Vec<(&Benchmark, &Inputs)> = suite
        .iter()
        .flat_map(|b| b.input_vectors.iter().map(move |v| (b, &v.inputs)))
        .collect();
    let assoc4_defaults: Vec<(&Benchmark, &Inputs)> = suite
        .iter()
        .filter(|b| !matches!(b.name, "fdct" | "jfdc"))
        .map(|b| (b, &b.default_input))
        .collect();
    let mut quick = TacConfig::new(32, 4);
    quick.mc_reps = 4;
    let suites = [
        TacSuite {
            name: "paper",
            geometry: "4096:2:32",
            cfg: TacConfig::paper_l1(),
            streams: pubbed_streams(&every_vector),
        },
        TacSuite {
            name: "assoc4_quick",
            geometry: "4096:4:32",
            cfg: quick,
            streams: pubbed_streams(&assoc4_defaults),
        },
    ];

    let mut rows = Vec::new();
    for s in &suites {
        let mut caches = Vec::new();
        for (c, cache) in CACHES.into_iter().enumerate() {
            let groups: usize = s
                .streams
                .iter()
                .map(|p| analyze_lines(&p[c], &s.cfg).groups_evaluated)
                .sum();
            let seconds = (0..reps)
                .map(|_| {
                    let start = Instant::now();
                    for p in &s.streams {
                        black_box(analyze_lines(black_box(&p[c]), &s.cfg));
                    }
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            println!(
                "tac_suite/{}/{} {cache}: {seconds:.3} s, {groups} groups, {:.0} groups/s",
                s.name,
                s.geometry,
                groups as f64 / seconds
            );
            caches.push((
                cache.to_string(),
                Json::Obj(vec![
                    ("seconds".into(), Json::Num(seconds)),
                    ("groups_evaluated".into(), Json::UInt(groups as u64)),
                    ("groups_per_s".into(), Json::Num(groups as f64 / seconds)),
                ]),
            ));
        }
        let mut row = vec![
            ("name".into(), Json::Str(s.name.into())),
            ("geometry".into(), Json::Str(s.geometry.into())),
            ("mc_reps".into(), Json::UInt(u64::from(s.cfg.mc_reps))),
            ("streams".into(), Json::UInt(s.streams.len() as u64)),
        ];
        row.extend(caches);
        rows.push(Json::Obj(row));
    }

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_tac.json");
    let parent = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| mbcr_json::parse(&text).ok())
        .and_then(|doc| doc.get("parent").cloned());
    let mut record = vec![
        ("row".into(), Json::Str("tac_suite".into())),
        ("reps".into(), Json::UInt(reps as u64)),
        ("smoke".into(), Json::Bool(smoke)),
        ("suites".into(), Json::Arr(rows)),
    ];
    record.extend(parent.map(|p| ("parent".to_string(), p)));
    std::fs::write(&path, Json::Obj(record).to_pretty() + "\n").expect("write BENCH_tac.json");
    println!("wrote {}", path.display());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pub, bench_tac_suite
}
criterion_main!(benches);
