//! Criterion performance benches for the cache simulator — the innermost
//! loop of every measurement campaign.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mbcr_cache::{Cache, CacheGeometry, PlacementPolicy, ReplacementPolicy};
use mbcr_cpu::{
    campaign_slice_with, CompiledCampaign, Parallelism, PlatformConfig, DEFAULT_BATCH_WIDTH,
};
use mbcr_ir::execute;
use mbcr_json::Json;
use mbcr_trace::LineId;
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
    let serial = Parallelism::serial().batch_width(1);
    let mut group = c.benchmark_group("campaign");
    group.throughput(Throughput::Elements(100 * trace.len() as u64));
    group.bench_function("bs_100_runs", |b| {
        b.iter(|| black_box(campaign_slice_with(&cfg, &trace, 0, 100, 7, &serial)));
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

/// Serial vs batched campaign throughput on a `table2_runs`-shaped
/// workload (bs trace, paper-default geometry), plus a convergence-shaped
/// row (300 runs, then 100-run steps) comparing one [`CompiledCampaign`]
/// with a one-shot width-1 [`campaign_slice_with`] per step (the trace
/// resolved and the serial kernel built anew each step), written to
/// `BENCH_campaign.json` at the workspace root.
///
/// Timing is best-of-`reps` wall clock over the full slice, not
/// criterion samples, so the JSON record carries runs/sec directly.
/// Under `MBCR_PERF_SMOKE=1` the campaigns shrink to CI-sized run counts
/// and the process exits non-zero if the batched or compiled path is
/// slower than its serial counterpart — the perf regression gate.
fn bench_campaign_batched(_c: &mut Criterion) {
    let smoke = std::env::var("MBCR_PERF_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    let runs = if smoke { 300 } else { 2_000 };
    let (converge_initial, converge_step) = (300, 100);
    let converge_runs = if smoke { 800 } else { 2_000 };
    let reps = 3;
    let width = DEFAULT_BATCH_WIDTH;
    let bench = mbcr_malardalen::bs::benchmark();
    let trace = execute(&bench.program, &bench.default_input)
        .expect("run bs")
        .trace;
    let cfg = PlatformConfig::paper_default();
    let serial = Parallelism::serial().batch_width(1);
    let batched = Parallelism::serial().batch_width(width);

    // Warm-up doubles as the bit-identity check the batched path promises.
    let a = campaign_slice_with(&cfg, &trace, 0, runs, 7, &serial);
    let b = campaign_slice_with(&cfg, &trace, 0, runs, 7, &batched);
    assert_eq!(a, b, "batched campaign must be bit-identical to serial");

    let time_slice = |par: &Parallelism| {
        best_of(reps, || {
            black_box(campaign_slice_with(&cfg, &trace, 0, runs, 7, par));
        })
    };
    let serial_s = time_slice(&serial);
    let batched_s = time_slice(&batched);
    let serial_rps = runs as f64 / serial_s;
    let batched_rps = runs as f64 / batched_s;
    let speedup = serial_s / batched_s;
    println!(
        "campaign_batched/bs_{runs}_runs             serial {serial_rps:.0} runs/s, \
         batched(W={width}) {batched_rps:.0} runs/s, speedup {speedup:.2}x"
    );

    // The convergence shape: the serial side resolves the trace and runs
    // the one-layout loop on every step; the compiled side is built once
    // per campaign, inside the timed region, as the converge stage does.
    let per_step = || {
        converge_shaped(converge_runs, converge_initial, converge_step, |at, n| {
            campaign_slice_with(&cfg, &trace, at, n, 7, &serial)
        })
    };
    let compiled = || {
        let mut campaign = CompiledCampaign::new(&cfg, &trace, 7, &batched);
        converge_shaped(converge_runs, converge_initial, converge_step, |at, n| {
            campaign.slice(at, n)
        })
    };
    assert_eq!(
        per_step(),
        compiled(),
        "compiled convergence steps must be bit-identical to serial slices"
    );
    let step_serial_s = best_of(reps, || {
        black_box(per_step());
    });
    let step_compiled_s = best_of(reps, || {
        black_box(compiled());
    });
    let step_serial_rps = converge_runs as f64 / step_serial_s;
    let step_compiled_rps = converge_runs as f64 / step_compiled_s;
    let step_speedup = step_serial_s / step_compiled_s;
    println!(
        "campaign_batched/bs_converge_{converge_runs}_runs    per-step serial \
         {step_serial_rps:.0} runs/s, compiled(W={width}) {step_compiled_rps:.0} runs/s, \
         speedup {step_speedup:.2}x"
    );

    let record = Json::Obj(vec![
        ("benchmark".into(), Json::Str("bs".into())),
        ("geometry".into(), Json::Str("paper_l1".into())),
        ("trace_ops".into(), Json::UInt(trace.len() as u64)),
        ("runs".into(), Json::UInt(runs as u64)),
        ("batch_width".into(), Json::UInt(width as u64)),
        ("reps".into(), Json::UInt(reps as u64)),
        ("smoke".into(), Json::Bool(smoke)),
        ("serial_runs_per_sec".into(), Json::Num(serial_rps)),
        ("batched_runs_per_sec".into(), Json::Num(batched_rps)),
        ("speedup".into(), Json::Num(speedup)),
        (
            "converge".into(),
            Json::Obj(vec![
                ("initial".into(), Json::UInt(converge_initial as u64)),
                ("step".into(), Json::UInt(converge_step as u64)),
                ("runs".into(), Json::UInt(converge_runs as u64)),
                (
                    "per_step_serial_runs_per_sec".into(),
                    Json::Num(step_serial_rps),
                ),
                ("compiled_runs_per_sec".into(), Json::Num(step_compiled_rps)),
                ("speedup".into(), Json::Num(step_speedup)),
            ]),
        ),
    ]);
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_campaign.json");
    std::fs::write(&path, record.to_pretty() + "\n").expect("write BENCH_campaign.json");
    println!("wrote {}", path.display());

    if smoke && speedup < 1.0 {
        eprintln!(
            "perf-smoke FAILED: batched campaign ({batched_rps:.0} runs/s) slower than \
             serial ({serial_rps:.0} runs/s)"
        );
        std::process::exit(1);
    }
    if smoke && step_speedup < 1.0 {
        eprintln!(
            "perf-smoke FAILED: compiled convergence steps ({step_compiled_rps:.0} runs/s) \
             slower than per-step serial slices ({step_serial_rps:.0} runs/s)"
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
