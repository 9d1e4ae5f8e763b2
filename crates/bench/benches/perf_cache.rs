//! Criterion performance benches for the cache simulator — the innermost
//! loop of every measurement campaign.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mbcr_cache::{Cache, CacheGeometry, PlacementPolicy, ReplacementPolicy};
use mbcr_cpu::{
    campaign_slice_with, BatchPlatform, CompiledCampaign, Parallelism, Platform, PlatformConfig,
    ResolvedTrace, DEFAULT_BATCH_WIDTH,
};
use mbcr_engine::{GeometrySpec, JobKind, JobSpec, StageKind};
use mbcr_ir::execute;
use mbcr_json::Json;
use mbcr_pub::{pub_transform, PubConfig};
use mbcr_rng::derive_seed;
use mbcr_trace::{LineId, Trace};
use std::hint::black_box;
use std::time::Instant;

fn line_stream(n: usize) -> Vec<LineId> {
    // A mix of reuse and streaming, 64 distinct lines.
    (0..n).map(|i| LineId(((i * 17) % 64) as u64)).collect()
}

fn bench_cache_access(c: &mut Criterion) {
    let stream = line_stream(100_000);
    let mut group = c.benchmark_group("cache_access");
    group.throughput(Throughput::Elements(stream.len() as u64));
    for (label, placement, replacement) in [
        (
            "random_random",
            PlacementPolicy::RandomHash,
            ReplacementPolicy::Random,
        ),
        (
            "modulo_lru",
            PlacementPolicy::Modulo,
            ReplacementPolicy::Lru,
        ),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || Cache::new(CacheGeometry::paper_l1(), placement, replacement, 42),
                |mut cache| {
                    for &l in &stream {
                        black_box(cache.access_line(l));
                    }
                    cache
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_campaign(c: &mut Criterion) {
    let bench = mbcr_malardalen::bs::benchmark();
    let trace = execute(&bench.program, &bench.default_input)
        .expect("run bs")
        .trace;
    let cfg = PlatformConfig::paper_default();
    let par = Parallelism::serial();
    let mut group = c.benchmark_group("campaign");
    group.throughput(Throughput::Elements(100 * trace.len() as u64));
    group.bench_function("bs_100_runs", |b| {
        b.iter(|| black_box(campaign_slice_with(&cfg, &trace, 0, 100, 7, &par)));
    });
    group.finish();
}

/// Best-of-`reps` wall-clock seconds of `f`.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Draws `runs` runs the way MBPTA convergence does — an initial block of
/// `initial`, then `step`-run extensions — from `draw(start, count)`.
fn converge_shaped(
    runs: usize,
    initial: usize,
    step: usize,
    mut draw: impl FnMut(usize, usize) -> Vec<u64>,
) -> Vec<u64> {
    let mut sample = draw(0, initial.min(runs));
    while sample.len() < runs {
        let count = step.min(runs - sample.len());
        sample.extend(draw(sample.len(), count));
    }
    sample
}

/// The reference campaign path: the one-layout-at-a-time `Platform` loop
/// over a freshly resolved trace, runs `start .. start + runs` of the seed
/// stream `master_seed`.
fn platform_loop(
    cfg: &PlatformConfig,
    trace: &Trace,
    start: usize,
    runs: usize,
    master_seed: u64,
) -> Vec<u64> {
    let rt = ResolvedTrace::resolve(cfg, trace);
    let mut platform = Platform::for_run(cfg, 0);
    (start..start + runs)
        .map(|i| platform.run_randomized_resolved(&rt, derive_seed(master_seed, i as u64)))
        .collect()
}

/// `BatchPlatform` over runs `0 .. runs`, `width` layouts per trace pass.
fn batch_platform(
    cfg: &PlatformConfig,
    trace: &Trace,
    runs: usize,
    master_seed: u64,
    width: usize,
) -> Vec<u64> {
    let rt = ResolvedTrace::resolve(cfg, trace);
    let seeds = |at: usize| -> Vec<u64> {
        (at..(at + width).min(runs))
            .map(|i| derive_seed(master_seed, i as u64))
            .collect()
    };
    let mut batch = BatchPlatform::new(cfg, &seeds(0));
    let mut out = Vec::with_capacity(runs);
    while out.len() < runs {
        batch.reseed(&seeds(out.len()));
        out.extend_from_slice(batch.run_resolved(&rt));
    }
    out
}

/// The pubbed trace of `benchmark` on input vector `input`, as the sweep's
/// trace stage builds it.
fn pubbed_trace(benchmark: &str, input: &str) -> Trace {
    let bench = mbcr_malardalen::by_name(benchmark).expect("a Mälardalen benchmark");
    let inputs = if input == "default" {
        &bench.default_input
    } else {
        &bench
            .input_vectors
            .iter()
            .find(|v| v.name == input)
            .expect("a named input vector")
            .inputs
    };
    let pubbed = pub_transform(&bench.program, &PubConfig::paper()).expect("pub transform");
    execute(&pubbed.program, inputs).expect("run").trace
}

/// The compiled campaign against the width-1 `Platform` loop on a
/// `table2_runs`-shaped workload (bs trace, paper-default geometry), plus
/// a convergence-shaped row (300 runs, then 100-run steps) comparing one
/// [`CompiledCampaign`] with the `Platform` loop over a trace resolved
/// anew at each step, plus a row on three pubbed sweep campaigns at two
/// geometries that also times `BatchPlatform` at W = 16. Everything is
/// written to `BENCH_campaign.json` at the workspace root.
///
/// Timing is best-of-`reps` wall clock over the full slice, not
/// criterion samples, so the JSON record carries runs/sec directly.
/// Under `MBCR_PERF_SMOKE=1` the campaigns shrink to CI-sized run counts
/// and the process exits non-zero if the compiled path is slower than the
/// `Platform` loop in either of the first two rows — the perf regression
/// gate.
fn bench_campaign_batched(_c: &mut Criterion) {
    let smoke = std::env::var("MBCR_PERF_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    let runs = if smoke { 300 } else { 2_000 };
    let (converge_initial, converge_step) = (300, 100);
    let converge_runs = if smoke { 800 } else { 2_000 };
    let reps = 3;
    let bench = mbcr_malardalen::bs::benchmark();
    let trace = execute(&bench.program, &bench.default_input)
        .expect("run bs")
        .trace;
    let cfg = PlatformConfig::paper_default();
    let par = Parallelism::serial();

    // Warm-up doubles as the bit-identity check.
    let a = platform_loop(&cfg, &trace, 0, runs, 7);
    let b = campaign_slice_with(&cfg, &trace, 0, runs, 7, &par);
    assert_eq!(
        a, b,
        "the compiled campaign must be bit-identical to the Platform loop"
    );

    let reference_s = best_of(reps, || {
        black_box(platform_loop(&cfg, &trace, 0, runs, 7));
    });
    let compiled_s = best_of(reps, || {
        black_box(campaign_slice_with(&cfg, &trace, 0, runs, 7, &par));
    });
    let reference_rps = runs as f64 / reference_s;
    let compiled_rps = runs as f64 / compiled_s;
    let speedup = reference_s / compiled_s;
    println!(
        "campaign_batched/bs_{runs}_runs             Platform loop {reference_rps:.0} runs/s, \
         compiled {compiled_rps:.0} runs/s, speedup {speedup:.2}x"
    );

    // The convergence shape: the reference resolves the trace and runs the
    // Platform loop on every step; the compiled side is built once per
    // campaign, inside the timed region, as the converge stage does.
    let per_step = || {
        converge_shaped(converge_runs, converge_initial, converge_step, |at, n| {
            platform_loop(&cfg, &trace, at, n, 7)
        })
    };
    let compiled = || {
        let mut campaign = CompiledCampaign::new(&cfg, &trace, 7, &par);
        converge_shaped(converge_runs, converge_initial, converge_step, |at, n| {
            campaign.slice(at, n)
        })
    };
    assert_eq!(
        per_step(),
        compiled(),
        "compiled convergence steps must be bit-identical to the Platform loop"
    );
    let step_reference_s = best_of(reps, || {
        black_box(per_step());
    });
    let step_compiled_s = best_of(reps, || {
        black_box(compiled());
    });
    let step_reference_rps = converge_runs as f64 / step_reference_s;
    let step_compiled_rps = converge_runs as f64 / step_compiled_s;
    let step_speedup = step_reference_s / step_compiled_s;
    println!(
        "campaign_batched/bs_converge_{converge_runs}_runs    per-step Platform loop \
         {step_reference_rps:.0} runs/s, compiled {step_compiled_rps:.0} runs/s, \
         speedup {step_speedup:.2}x"
    );

    // Three campaigns of the paper sweep at master seed 2: ns `last` and
    // matmult are its two 84 873-run campaigns, fdct its densest trace
    // (the most accesses in sets holding more than W of its lines). Each
    // runs at the paper L1 and at the assoc4 workload's 4096:4:32, with
    // the job seed the sweep derives for that cell.
    let width = DEFAULT_BATCH_WIDTH;
    let mut trace_rows = Vec::new();
    for (benchmark, input, sweep_runs) in [
        ("ns", "last", 84_873),
        ("matmult", "default", 84_873),
        ("fdct", "default", 21_211),
    ] {
        let trace = pubbed_trace(benchmark, input);
        let runs = if smoke { 1_000 } else { sweep_runs };
        for geometry in [
            GeometrySpec::paper_l1(),
            GeometrySpec::parse("4096:4:32").expect("a valid geometry"),
        ] {
            let cache = geometry.geometry().expect("a valid geometry");
            let cfg = PlatformConfig {
                il1: cache,
                dl1: cache,
                ..PlatformConfig::paper_default()
            };
            let job = JobSpec {
                benchmark: benchmark.into(),
                geometry,
                master_seed: 2,
                kind: JobKind::pub_tac_stage(StageKind::Campaign, input),
            };
            let seed = derive_seed(job.job_seed(), 0xCA);
            let want = campaign_slice_with(&cfg, &trace, 0, runs, seed, &par);
            assert_eq!(want, batch_platform(&cfg, &trace, runs, seed, width));
            assert_eq!(want, platform_loop(&cfg, &trace, 0, runs, seed));
            let compiled_s = best_of(reps, || {
                black_box(campaign_slice_with(&cfg, &trace, 0, runs, seed, &par));
            });
            let batch_s = best_of(reps, || {
                black_box(batch_platform(&cfg, &trace, runs, seed, width));
            });
            let loop_s = best_of(reps, || {
                black_box(platform_loop(&cfg, &trace, 0, runs, seed));
            });
            let label = format!("{benchmark}:{input}/{}", geometry.label());
            println!(
                "campaign_batched/{label:<28} {runs} runs: compiled {:.0} runs/s, \
                 BatchPlatform(W={width}) {:.0} runs/s ({:.2}x), Platform loop {:.0} runs/s \
                 ({:.2}x)",
                runs as f64 / compiled_s,
                runs as f64 / batch_s,
                batch_s / compiled_s,
                runs as f64 / loop_s,
                loop_s / compiled_s,
            );
            trace_rows.push(Json::Obj(vec![
                ("campaign".into(), Json::Str(label)),
                ("trace_len".into(), Json::UInt(trace.len() as u64)),
                ("runs".into(), Json::UInt(runs as u64)),
                (
                    "compiled_runs_per_sec".into(),
                    Json::Num(runs as f64 / compiled_s),
                ),
                (
                    "batch_platform_runs_per_sec".into(),
                    Json::Num(runs as f64 / batch_s),
                ),
                (
                    "platform_loop_runs_per_sec".into(),
                    Json::Num(runs as f64 / loop_s),
                ),
                (
                    "speedup_vs_batch_platform".into(),
                    Json::Num(batch_s / compiled_s),
                ),
                (
                    "speedup_vs_platform_loop".into(),
                    Json::Num(loop_s / compiled_s),
                ),
            ]));
        }
    }

    let record = Json::Obj(vec![
        ("benchmark".into(), Json::Str("bs".into())),
        ("geometry".into(), Json::Str("paper_l1".into())),
        ("trace_ops".into(), Json::UInt(trace.len() as u64)),
        ("runs".into(), Json::UInt(runs as u64)),
        ("reps".into(), Json::UInt(reps as u64)),
        ("smoke".into(), Json::Bool(smoke)),
        (
            "reference".into(),
            Json::Str(
                "ResolvedTrace::resolve + Platform::for_run / run_randomized_resolved".into(),
            ),
        ),
        ("reference_runs_per_sec".into(), Json::Num(reference_rps)),
        ("compiled_runs_per_sec".into(), Json::Num(compiled_rps)),
        ("speedup".into(), Json::Num(speedup)),
        (
            "converge".into(),
            Json::Obj(vec![
                ("initial".into(), Json::UInt(converge_initial as u64)),
                ("step".into(), Json::UInt(converge_step as u64)),
                ("runs".into(), Json::UInt(converge_runs as u64)),
                (
                    "per_step_reference_runs_per_sec".into(),
                    Json::Num(step_reference_rps),
                ),
                ("compiled_runs_per_sec".into(), Json::Num(step_compiled_rps)),
                ("speedup".into(), Json::Num(step_speedup)),
            ]),
        ),
        ("batch_platform_width".into(), Json::UInt(width as u64)),
        ("sweep_campaigns".into(), Json::Arr(trace_rows)),
    ]);
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_campaign.json");
    std::fs::write(&path, record.to_pretty() + "\n").expect("write BENCH_campaign.json");
    println!("wrote {}", path.display());

    if smoke && speedup < 1.0 {
        eprintln!(
            "perf-smoke FAILED: compiled campaign ({compiled_rps:.0} runs/s) slower than \
             the Platform loop ({reference_rps:.0} runs/s)"
        );
        std::process::exit(1);
    }
    if smoke && step_speedup < 1.0 {
        eprintln!(
            "perf-smoke FAILED: compiled convergence steps ({step_compiled_rps:.0} runs/s) \
             slower than the per-step Platform loop ({step_reference_rps:.0} runs/s)"
        );
        std::process::exit(1);
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cache_access, bench_campaign, bench_campaign_batched
}
criterion_main!(benches);
