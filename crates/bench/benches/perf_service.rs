//! The service plane's recorded number: one sharded sweep served by
//! `mbcr_shard::serve` to two in-process workers, against the same sweep
//! run in process.

use criterion::{criterion_group, criterion_main, Criterion};
use mbcr_engine::{run_sweep, AnalysisKind, ArtifactStore, Registry, RunOptions, SweepSpec};
use mbcr_json::Json;
use mbcr_shard::{run_worker, serve, CoordSettings};
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Instant;

/// The service storm's sweep shape: a quick pub_tac sweep of bs at the
/// storm's shared seed and one seed of its own, campaigns capped at 600
/// runs, checkpoints every 200.
fn storm_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("service-oneshot");
    spec.benchmarks = vec!["bs".to_string()];
    spec.seeds = vec![1, 100];
    spec.analyses = vec![AnalysisKind::PubTac];
    spec.max_campaign_runs = Some(600);
    spec
}

const CHECKPOINT_INTERVAL: usize = 200;
const WORKERS: usize = 2;

/// A fresh, empty store directory for one sweep.
fn fresh_store(tag: &str, rep: usize) -> (PathBuf, ArtifactStore) {
    let dir = std::env::temp_dir().join(format!(
        "mbcr-perf-service-{}-{tag}-{rep}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).expect("open store");
    (dir, store)
}

/// One sharded sweep: bind an ephemeral listener, start the workers and
/// serve until the sweep is finalized, which is what `mbcr sweep
/// --shards` waits for. The workers are joined after the clock stops and
/// the listener is closed: a worker that connected only after the sweep
/// finished is never served, and leaves with a handshake error.
/// Returns the wall time and Table 2.
fn sharded(spec: &SweepSpec, registry: &Registry, rep: usize) -> (f64, Vec<u8>) {
    let (dir, store) = fresh_store("sharded", rep);
    let settings = CoordSettings {
        run: RunOptions {
            checkpoint_interval: Some(CHECKPOINT_INTERVAL),
            ..RunOptions::default()
        },
        ..CoordSettings::default()
    };
    let start = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || run_worker(&addr, 1))
        })
        .collect();
    let outcome = serve(spec, registry, &store, &settings, &listener).expect("sharded sweep");
    let seconds = start.elapsed().as_secs_f64();
    drop(listener);
    for worker in workers {
        let _ = worker.join().expect("worker panicked");
    }
    assert_eq!(outcome.failed, 0, "sharded sweep had failed jobs");
    let table = std::fs::read(dir.join("table2.csv")).expect("table2.csv");
    let _ = std::fs::remove_dir_all(&dir);
    (seconds, table)
}

/// The same sweep in process, one pool thread per worker.
fn in_process(spec: &SweepSpec, registry: &Registry, rep: usize) -> (f64, Vec<u8>) {
    let (dir, store) = fresh_store("in-process", rep);
    let opts = RunOptions {
        threads: WORKERS,
        checkpoint_interval: Some(CHECKPOINT_INTERVAL),
        ..RunOptions::default()
    };
    let start = Instant::now();
    let outcome = run_sweep(spec, registry, &store, &opts).expect("in-process sweep");
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(outcome.failed, 0, "in-process sweep had failed jobs");
    let table = std::fs::read(dir.join("table2.csv")).expect("table2.csv");
    let _ = std::fs::remove_dir_all(&dir);
    (seconds, table)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// `service_oneshot`: the median wall time of `reps` sharded sweeps and
/// of `reps` in-process sweeps of [`storm_spec`], each into a fresh
/// store, alternating sides, after one unmeasured sweep of each. Every
/// sharded Table 2 must equal the in-process one. Written to
/// `BENCH_service.json` at the workspace root.
///
/// The row uses only public API, so the same file runs at an older
/// commit; a `parent` entry of an existing `BENCH_service.json` (the
/// same row measured there) is kept. Under `MBCR_PERF_SMOKE=1` the row
/// runs 11 sweeps a side instead of 21, and the process exits non-zero
/// when the sharded median exceeds 4× the in-process median.
fn bench_service_oneshot(_c: &mut Criterion) {
    let smoke = std::env::var("MBCR_PERF_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    let reps = if smoke { 11 } else { 21 };
    let spec = storm_spec();
    let registry = Registry::malardalen();

    let (_, reference) = in_process(&spec, &registry, 0);
    let (_, table) = sharded(&spec, &registry, 0);
    assert_eq!(table, reference, "sharded Table 2 differs from in-process");
    let (mut sharded_s, mut in_process_s) = (Vec::new(), Vec::new());
    for rep in 1..=reps {
        let (seconds, table) = sharded(&spec, &registry, rep);
        assert_eq!(table, reference, "sharded Table 2 differs from in-process");
        sharded_s.push(seconds);
        let (seconds, table) = in_process(&spec, &registry, rep);
        assert_eq!(table, reference, "in-process Table 2 differs between runs");
        in_process_s.push(seconds);
    }
    let sharded_median = median(sharded_s);
    let in_process_median = median(in_process_s);
    let ratio = sharded_median / in_process_median;
    println!(
        "service_oneshot: sharded ({WORKERS} workers) {:.1} ms, in-process {:.1} ms, \
         ratio {ratio:.2} (medians of {reps})",
        sharded_median * 1e3,
        in_process_median * 1e3,
    );

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_service.json");
    let parent = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| mbcr_json::parse(&text).ok())
        .and_then(|doc| doc.get("parent").cloned());
    let mut record = vec![
        ("row".into(), Json::Str("service_oneshot".into())),
        ("spec".into(), spec.to_json()),
        (
            "checkpoint_interval".into(),
            Json::UInt(CHECKPOINT_INTERVAL as u64),
        ),
        ("workers".into(), Json::UInt(WORKERS as u64)),
        ("reps".into(), Json::UInt(reps as u64)),
        ("smoke".into(), Json::Bool(smoke)),
        ("sharded_median_s".into(), Json::Num(sharded_median)),
        ("in_process_median_s".into(), Json::Num(in_process_median)),
        ("ratio".into(), Json::Num(ratio)),
    ];
    record.extend(parent.map(|p| ("parent".to_string(), p)));
    std::fs::write(&path, Json::Obj(record).to_pretty() + "\n").expect("write BENCH_service.json");
    println!("wrote {}", path.display());

    if smoke && ratio > 4.0 {
        eprintln!(
            "perf-smoke FAILED: the sharded sweep ({:.1} ms) took more than 4x the \
             in-process sweep ({:.1} ms)",
            sharded_median * 1e3,
            in_process_median * 1e3,
        );
        std::process::exit(1);
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_service_oneshot
}
criterion_main!(benches);
