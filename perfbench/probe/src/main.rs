//! `perfbench-probe`: the traced half of the repository benchmark
//! (`perfbench/run.py`).
//!
//! The end-to-end metrics come from running the real `mbcr` binary with
//! telemetry off. This program gives the per-layer split without
//! instrumenting the program: it drives the engine's public seams itself
//! and times every call into a layer.
//!
//! ```text
//! perfbench-probe sweep --spec SPEC.json --store DIR [--replay]
//! perfbench-probe reference --specs SPECS.json --store DIR
//! ```
//!
//! Both run on [`THREADS`] threads, as the benchmark's sweeps do.
//!
//! `sweep` plans the spec with `SweepPlan::new` and runs it on the engine's
//! own pool exactly as `run_sweep` does — cache probe
//! (`SweepPlan::cached_summary`), `execute_stage` / `execute_combine` per
//! node against a timing `StageStore` wrapper, `ArtifactStore::write_job`,
//! `finalize_sweep` — so the store it leaves is the one `mbcr sweep`
//! leaves. It then parses every stored JSON artifact with `mbcr_json`, and
//! with `--replay` re-derives each analysis through the crates' public
//! functions (`converge` over the converge stage's sampler with its
//! `ResolvedTrace::resolve` and run loop timed apart, `analyze_lines`,
//! `Pwcet::fit`,
//! `IidReport::evaluate`), failing when a replay does not reproduce the
//! stored artifact. It ends with layer micro rows measured on the store's
//! own traces and samples. The result is one JSON object on
//! stdout: `{"metrics": {..}, "checks": {..}}`.
//!
//! `reference` runs each `{"id", "spec"}` entry of SPECS.json through
//! `run_sweep` into the run scope `sweeps/<id>/` of one store: the
//! in-process reference a daemon-executed sweep must reproduce.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mbcr::stage::{
    campaign_runs_for, sample_checksum, stage_artifact_data, AnalysisStage, StageDigests,
    StageKind, StageStore, TraceStage,
};
use mbcr::{AnalysisConfig, PipelineKind};
use mbcr_cache::CacheGeometry;
use mbcr_cpu::ResolvedTrace;
use mbcr_cpu::{campaign_slice_with, BatchPlatform, Parallelism, Platform, PlatformConfig};
use mbcr_engine::{
    execute_combine, execute_dag, execute_stage, finalize_sweep, run_sweep, AnalysisKind,
    AnalysisKnobs, ArtifactStore, JobKind, JobRecord, JobSpec, JobStatus, JobSummary, Registry,
    RunOptions, SampleLog, SweepPlan, SweepSpec,
};
use mbcr_evt::{converge, IidReport, Pwcet};
use mbcr_ir::Inputs;
use mbcr_json::Json;
use mbcr_malardalen::Benchmark;
use mbcr_rng::derive_seed;
use mbcr_shard::protocol::{self, Message, WireJob};
use mbcr_trace::Trace;

/// How long each micro row measures, at least.
const MICRO_SECS: f64 = 0.25;

/// Pool threads of every sweep, replay and JSON pass.
const THREADS: usize = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sweep") => Flags::parse(&args[1..]).and_then(|f| sweep(&f)),
        Some("reference") => Flags::parse(&args[1..]).and_then(|f| reference(&f)),
        _ => Err("usage: perfbench-probe sweep|reference [options]".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The command-line options of both subcommands.
struct Flags {
    spec: Option<PathBuf>,
    specs: Option<PathBuf>,
    store: PathBuf,
    replay: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = Flags {
            spec: None,
            specs: None,
            store: PathBuf::new(),
            replay: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--spec" => flags.spec = Some(value()?.into()),
                "--specs" => flags.specs = Some(value()?.into()),
                "--store" => flags.store = value()?.into(),
                "--replay" => flags.replay = true,
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        if flags.store.as_os_str().is_empty() {
            return Err("--store is required".into());
        }
        Ok(flags)
    }
}

/// Named per-layer accumulators, shared by every pool thread.
#[derive(Default)]
struct Metrics(Mutex<BTreeMap<String, f64>>);

impl Metrics {
    fn add(&self, name: &str, value: f64) {
        *self
            .0
            .lock()
            .expect("metrics poisoned")
            .entry(name.to_string())
            .or_insert(0.0) += value;
    }

    fn set(&self, name: &str, value: f64) {
        self.0
            .lock()
            .expect("metrics poisoned")
            .insert(name.to_string(), value);
    }

    fn max(&self, name: &str, value: f64) {
        let mut map = self.0.lock().expect("metrics poisoned");
        let slot = map.entry(name.to_string()).or_insert(0.0);
        *slot = slot.max(value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .lock()
            .expect("metrics poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// `numerator / denominator`, or 0 when nothing was measured.
    fn ratio(&self, name: &str, numerator: f64, denominator: f64) {
        let value = if denominator > 0.0 {
            numerator / denominator
        } else {
            0.0
        };
        self.set(name, value);
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Repeats `step` (which reports the work units it did) until at least
/// [`MICRO_SECS`] have passed; returns units per second.
fn rate(mut step: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let mut units = 0usize;
    loop {
        units += step();
        let secs = start.elapsed().as_secs_f64();
        if secs >= MICRO_SECS {
            return units as f64 / secs;
        }
    }
}

thread_local! {
    /// Seconds this thread spent inside store calls, so a stage's self
    /// time can exclude the store time it caused.
    static STORE_SECS: Cell<f64> = const { Cell::new(0.0) };
}

/// A [`StageStore`] that times every call into the wrapped store.
struct TimedStore<'a> {
    inner: &'a ArtifactStore,
    metrics: &'a Metrics,
}

impl TimedStore<'_> {
    fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let (value, secs) = timed(f);
        STORE_SECS.with(|c| c.set(c.get() + secs));
        self.metrics.add(name, secs);
        value
    }
}

impl StageStore for TimedStore<'_> {
    fn load_stage(&self, digest: u64) -> Option<Json> {
        self.time("store.load_stage_s", || self.inner.load_stage(digest))
    }

    fn save_stage(&self, digest: u64, artifact: &Json) -> std::io::Result<()> {
        self.time("store.save_stage_s", || {
            self.inner.save_stage(digest, artifact)
        })
    }

    fn load_samples(&self, digest: u64) -> Option<Vec<u64>> {
        self.time("store.load_samples_s", || self.inner.load_samples(digest))
    }

    fn append_samples(
        &self,
        digest: u64,
        start: usize,
        total: usize,
        samples: &[u64],
    ) -> std::io::Result<()> {
        self.time("store.append_samples_s", || {
            self.inner.append_samples(digest, start, total, samples)
        })
    }

    fn reset_samples(&self, digest: u64) -> std::io::Result<()> {
        self.time("store.append_samples_s", || {
            self.inner.reset_samples(digest)
        })
    }
}

/// The per-layer metric a node's self time accrues to.
fn stage_metric(job: &JobSpec) -> String {
    match &job.kind {
        JobKind::Stage {
            analysis, stage, ..
        } => format!("stage.{}.{}_s", analysis.name(), stage.name()),
        JobKind::MultipathCombine => "stage.multipath.combine_s".to_string(),
    }
}

/// What one node of the traced pool produced.
struct Node {
    record: JobRecord,
    secs: f64,
}

/// `perfbench-probe sweep`: the traced sweep, the JSON pass, the optional
/// replay and the micro rows.
fn sweep(flags: &Flags) -> Result<(), String> {
    let spec_path = flags.spec.as_ref().ok_or("--spec is required")?;
    let spec = SweepSpec::load(spec_path).map_err(|e| e.to_string())?;
    let registry = Registry::malardalen();
    let store = ArtifactStore::open(&flags.store).map_err(|e| e.to_string())?;
    let opts = RunOptions {
        threads: THREADS,
        ..RunOptions::default()
    };
    let metrics = Metrics::default();
    zero_metrics(&metrics);
    let start = Instant::now();

    let (plan, plan_s) = timed(|| SweepPlan::new(&spec, &registry, &opts));
    let plan = plan.map_err(|e| e.to_string())?;
    metrics.set("engine.plan_s", plan_s);

    let timed_store = TimedStore {
        inner: &store,
        metrics: &metrics,
    };
    let slots: Vec<Mutex<Option<JobSummary>>> = (0..plan.len()).map(|_| Mutex::new(None)).collect();
    // The runner mirrors `run_sweep`'s, with a clock around each seam.
    let runner = |i: usize| -> Node {
        let node_start = Instant::now();
        let job = &plan.graph.jobs[i];
        let key = &plan.keys[i];
        let record = |status, error, summary: Option<JobSummary>| JobRecord {
            key: key.clone(),
            label: job.label(),
            status,
            error,
            summary,
        };
        let (cached, probe_s) = timed(|| plan.cached_summary(i, &store));
        metrics.add("engine.probe_s", probe_s);
        if let Some(summary) = cached {
            *slots[i].lock().expect("slot poisoned") = Some(summary.clone());
            return Node {
                record: record(JobStatus::Skipped, None, Some(summary)),
                secs: node_start.elapsed().as_secs_f64(),
            };
        }
        let store_before = STORE_SECS.with(Cell::get);
        let exec_start = Instant::now();
        let outcome = match &job.kind {
            JobKind::Stage { .. } => {
                let cfg = plan.cfgs[i].as_ref().expect("stage jobs carry a config");
                execute_stage(job, key, cfg, &registry, &timed_store, false).map(|out| {
                    let exec_s = exec_start.elapsed().as_secs_f64();
                    (out.summary, out.fit, exec_s)
                })
            }
            JobKind::MultipathCombine => {
                let deps: Vec<Option<JobSummary>> = plan.graph.deps[i]
                    .iter()
                    .map(|&dep| slots[dep].lock().expect("slot poisoned").clone())
                    .collect();
                execute_combine(job, key, &deps).map(|(summary, result)| {
                    let exec_s = exec_start.elapsed().as_secs_f64();
                    (summary, Some((result, None)), exec_s)
                })
            }
        };
        let store_s = STORE_SECS.with(Cell::get) - store_before;
        let record = match outcome {
            Ok((summary, fit, exec_s)) => {
                metrics.add(&stage_metric(job), exec_s - store_s);
                let written = match fit {
                    Some((result, sample)) => {
                        let (written, write_s) =
                            timed(|| store.write_job(key, &summary, result, sample.as_deref()));
                        metrics.add("store.write_job_s", write_s);
                        written
                    }
                    None => Ok(()),
                };
                match written {
                    Ok(()) => {
                        *slots[i].lock().expect("slot poisoned") = Some(summary.clone());
                        record(JobStatus::Executed, None, Some(summary))
                    }
                    Err(e) => record(JobStatus::Failed, Some(e.to_string()), None),
                }
            }
            Err(e) => record(JobStatus::Failed, Some(e.to_string()), None),
        };
        Node {
            record,
            secs: node_start.elapsed().as_secs_f64(),
        }
    };
    let (nodes, pool_s) = timed(|| execute_dag(&plan.graph.deps, THREADS, runner));
    let node_secs: Vec<f64> = nodes.iter().map(|n| n.secs).collect();
    let records: Vec<JobRecord> = nodes.into_iter().map(|n| n.record).collect();
    let (outcome, finalize_s) =
        timed(|| finalize_sweep(&spec, records, &registry, &store, start.elapsed()));
    let outcome = outcome.map_err(|e| e.to_string())?;
    let sweep_s = start.elapsed().as_secs_f64();
    metrics.set("engine.finalize_s", finalize_s);
    metrics.set(
        "engine.critical_path_s",
        critical_path(&plan.graph.deps, &node_secs),
    );
    let busy: f64 = node_secs.iter().sum();
    metrics.set(
        "engine.pool_idle_frac",
        (1.0 - busy / (THREADS as f64 * pool_s)).max(0.0),
    );

    let docs = json_pass(&store, &metrics).map_err(|e| format!("json pass: {e}"))?;
    store_sizes(store.root(), &metrics).map_err(|e| format!("store sizes: {e}"))?;
    let (mut replayed, mut mismatches) = (0, Vec::new());
    if flags.replay {
        let units = replay_units(&plan, &registry)?;
        replayed = units.len();
        mismatches = replay(&units, &docs, &metrics);
    }
    let m = &metrics;
    m.ratio(
        "cpu.campaign_runs_per_s",
        m.get("cpu.campaign_runs"),
        m.get("cpu.campaign_sim_s"),
    );
    m.ratio(
        "cpu.ns_per_access",
        (m.get("cpu.converge_sim_s") + m.get("cpu.campaign_sim_s")) * 1e9,
        m.get("cpu.sim_accesses"),
    );
    m.ratio(
        "tac.groups_per_s",
        m.get("tac.groups_evaluated"),
        m.get("tac.analyze_s"),
    );
    micro(&plan, &spec, &store, &docs, &metrics)?;

    let checks = Json::Obj(vec![
        ("executed".to_string(), Json::UInt(outcome.executed as u64)),
        ("skipped".to_string(), Json::UInt(outcome.skipped as u64)),
        ("failed".to_string(), Json::UInt(outcome.failed as u64)),
        ("sweep_s".to_string(), Json::Num(sweep_s)),
        ("replayed".to_string(), Json::UInt(replayed as u64)),
        (
            "replay_mismatches".to_string(),
            Json::Arr(mismatches.iter().map(|m| m.as_str().into()).collect()),
        ),
    ]);
    let values = metrics.0.lock().expect("metrics poisoned").clone();
    let doc = Json::Obj(vec![
        (
            "metrics".to_string(),
            Json::Obj(values.into_iter().map(|(k, v)| (k, Json::Num(v))).collect()),
        ),
        ("checks".to_string(), checks),
    ]);
    println!("{}", doc.to_compact());
    Ok(())
}

/// The longest chain of node wall times through the DAG.
fn critical_path(deps: &[Vec<usize>], secs: &[f64]) -> f64 {
    fn finish(i: usize, deps: &[Vec<usize>], secs: &[f64], memo: &mut [Option<f64>]) -> f64 {
        if let Some(done) = memo[i] {
            return done;
        }
        let mut ready = 0.0f64;
        for &dep in &deps[i] {
            ready = ready.max(finish(dep, deps, secs, memo));
        }
        let done = ready + secs[i];
        memo[i] = Some(done);
        done
    }
    let mut memo = vec![None; secs.len()];
    (0..secs.len())
        .map(|i| finish(i, deps, secs, &mut memo))
        .fold(0.0, f64::max)
}

/// Runs `work(k)` for every `k < count` on [`THREADS`] threads.
fn parallel(count: usize, work: impl Fn(usize) + Sync) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= count {
                    break;
                }
                work(k);
            });
        }
    });
}

/// Parses every JSON artifact in the store with `mbcr_json` (timed per
/// file) and re-emits it; returns the parsed stage documents by digest.
fn json_pass(store: &ArtifactStore, metrics: &Metrics) -> std::io::Result<HashMap<u64, Json>> {
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in ["stages", "jobs"] {
        for entry in fs::read_dir(store.root().join(dir))? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "json") {
                files.push(path);
            }
        }
    }
    if store.manifest_path().is_file() {
        files.push(store.manifest_path());
    }
    files.sort();
    let docs = Mutex::new(HashMap::new());
    let failure = Mutex::new(None);
    let bytes = AtomicUsize::new(0);
    parallel(files.len(), |k| {
        let path = &files[k];
        let parsed = fs::read_to_string(path).and_then(|text| {
            bytes.fetch_add(text.len(), Ordering::Relaxed);
            let (parsed, secs) = timed(|| mbcr_json::parse(&text));
            metrics.add("json.parse_s", secs);
            metrics.max("json.parse_max_s", secs);
            parsed.map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })
        });
        let doc = match parsed {
            Ok(doc) => doc,
            Err(e) => {
                *failure.lock().expect("failure poisoned") = Some(e);
                return;
            }
        };
        let (_, emit_s) = timed(|| doc.to_pretty());
        metrics.add("json.emit_s", emit_s);
        let digest = path
            .parent()
            .filter(|dir| dir.ends_with("stages"))
            .and(path.file_stem())
            .and_then(|stem| u64::from_str_radix(&stem.to_string_lossy(), 16).ok());
        if let Some(digest) = digest {
            docs.lock().expect("docs poisoned").insert(digest, doc);
        }
    });
    if let Some(e) = failure.into_inner().expect("failure poisoned") {
        return Err(e);
    }
    let bytes = bytes.into_inner();
    metrics.ratio(
        "json.parse_mb_per_s",
        bytes as f64 / 1e6,
        metrics.get("json.parse_s"),
    );
    Ok(docs.into_inner().expect("docs poisoned"))
}

/// Bytes on disk by artifact class: job JSON, stage JSON, sample logs.
fn store_sizes(root: &Path, metrics: &Metrics) -> std::io::Result<()> {
    let (mut jobs, mut stages, mut slog) = (0u64, 0u64, 0u64);
    for (dir, json_total) in [("jobs", &mut jobs), ("stages", &mut stages)] {
        for entry in fs::read_dir(root.join(dir))? {
            let entry = entry?;
            let len = entry.metadata()?.len();
            match entry.path().extension().and_then(|e| e.to_str()) {
                Some("json") => *json_total += len,
                Some("slog") => slog += len,
                _ => {}
            }
        }
    }
    metrics.set("store.jobs_mb", jobs as f64 / 1e6);
    metrics.set("store.stages_mb", stages as f64 / 1e6);
    metrics.set("store.slog_mb", slog as f64 / 1e6);
    Ok(())
}

/// One analysis to replay: a converge node plus everything needed to
/// re-derive its stages.
struct Unit<'a> {
    label: String,
    pipeline: PipelineKind,
    digests: StageDigests,
    cfg: &'a AnalysisConfig,
    benchmark: &'a Benchmark,
    inputs: &'a Inputs,
}

fn replay_units<'a>(plan: &'a SweepPlan, registry: &'a Registry) -> Result<Vec<Unit<'a>>, String> {
    let mut units = Vec::new();
    for (i, job) in plan.graph.jobs.iter().enumerate() {
        let JobKind::Stage {
            analysis,
            stage: StageKind::Converge,
            input,
        } = &job.kind
        else {
            continue;
        };
        let benchmark = registry
            .get(&job.benchmark)
            .ok_or_else(|| format!("unknown benchmark {}", job.benchmark))?;
        let inputs = match input.as_deref() {
            None | Some("default") => &benchmark.default_input,
            Some(name) => {
                &benchmark
                    .input_vectors
                    .iter()
                    .find(|v| v.name == name)
                    .ok_or_else(|| format!("unknown input {name}"))?
                    .inputs
            }
        };
        let digests = plan
            .stage_digests(i, registry)
            .map_err(|e| e.to_string())?
            .ok_or("converge nodes carry digests")?;
        units.push(Unit {
            label: job.label(),
            pipeline: if *analysis == AnalysisKind::Original {
                PipelineKind::Original
            } else {
                PipelineKind::PubTac
            },
            digests,
            cfg: plan.cfgs[i].as_ref().ok_or("stage jobs carry a config")?,
            benchmark,
            inputs,
        });
    }
    Ok(units)
}

/// Zero-initialises every metric a run may not touch (a warm sweep
/// executes no stage; a run without `--replay` replays nothing), so each
/// name is always reported.
fn zero_metrics(metrics: &Metrics) {
    for stage in [
        "original.trace",
        "original.converge",
        "original.fit",
        "pub_tac.pub",
        "pub_tac.trace",
        "pub_tac.tac_il1",
        "pub_tac.tac_dl1",
        "pub_tac.converge",
        "pub_tac.campaign",
        "pub_tac.fit",
        "multipath.combine",
    ] {
        metrics.add(&format!("stage.{stage}_s"), 0.0);
    }
    for name in [
        "store.load_stage_s",
        "store.save_stage_s",
        "store.write_job_s",
        "store.load_samples_s",
        "store.append_samples_s",
        "pub.transform_s",
        "ir.execute_s",
        "ir.cache_class_s",
        "ir.path_coverage_s",
        "cpu.sim_runs",
        "cpu.sim_accesses",
        "cpu.converge_sim_s",
        "cpu.campaign_sim_s",
        "cpu.campaign_runs",
        "cpu.resolve_s",
        "cpu.resolve_calls",
        "evt.converge_refits",
        "evt.converge_fit_s",
        "evt.converge_iid_s",
        "evt.fit_s",
        "tac.analyze_s",
        "tac.groups_evaluated",
        "tac.relevant_groups",
    ] {
        metrics.add(name, 0.0);
    }
}

/// Replays every unit on [`THREADS`] threads; returns the mismatches.
fn replay(units: &[Unit<'_>], docs: &HashMap<u64, Json>, metrics: &Metrics) -> Vec<String> {
    let errors = Mutex::new(Vec::new());
    parallel(units.len(), |k| {
        if let Err(e) = replay_unit(&units[k], docs, metrics) {
            errors.lock().expect("errors poisoned").push(e);
        }
    });
    // The static passes finalize_sweep runs per swept benchmark, timed
    // without a store so they compute.
    let mut benchmarks: BTreeMap<&str, (&Unit<'_>, Vec<Inputs>)> = BTreeMap::new();
    for unit in units.iter().filter(|u| u.pipeline == PipelineKind::PubTac) {
        let entry = benchmarks
            .entry(unit.benchmark.name)
            .or_insert((unit, Vec::new()));
        entry.1.push(unit.inputs.clone());
    }
    for (unit, inputs) in benchmarks.values() {
        let program = &unit.benchmark.program;
        let (_, secs) = timed(|| mbcr::stage::path_coverage(program, inputs, None));
        metrics.add("ir.path_coverage_s", secs);
        let g = unit.cfg.platform.il1;
        let (_, secs) = timed(|| mbcr::stage::cache_class(program, g, g, None));
        metrics.add("ir.cache_class_s", secs);
    }
    errors.into_inner().expect("errors poisoned")
}

/// Runs `start .. start + runs` of the seed stream `master_seed` on a
/// resolved trace: `campaign_slice` without its resolve, through the
/// public `Platform` calls it makes.
fn serial_runs(
    cfg: &PlatformConfig,
    rt: &ResolvedTrace,
    start: usize,
    runs: usize,
    master_seed: u64,
) -> Vec<u64> {
    let mut out = Vec::with_capacity(runs);
    if runs == 0 {
        return out;
    }
    let mut platform = Platform::for_run(cfg, derive_seed(master_seed, start as u64));
    out.push(platform.run_resolved(rt));
    for i in start + 1..start + runs {
        out.push(platform.run_randomized_resolved(rt, derive_seed(master_seed, i as u64)));
    }
    out
}

/// Two numbers are the same stored number when they print identically.
fn same_number(a: f64, stored: Option<&Json>) -> bool {
    stored.is_some_and(|s| Json::Num(a).to_compact() == s.to_compact())
}

/// Re-derives one analysis through the crates' public functions and
/// checks it against the stored artifacts.
fn replay_unit(unit: &Unit<'_>, docs: &HashMap<u64, Json>, m: &Metrics) -> Result<(), String> {
    let label = &unit.label;
    let cfg = unit.cfg;
    let data = |stage: StageKind| -> Result<&Json, String> {
        let digest = unit
            .digests
            .get(stage)
            .ok_or_else(|| format!("{label}: no {} digest", stage.name()))?;
        docs.get(&digest)
            .and_then(|doc| stage_artifact_data(doc, stage, digest))
            .ok_or_else(|| format!("{label}: no stored {} artifact", stage.name()))
    };
    let pub_tac = unit.pipeline == PipelineKind::PubTac;

    // PUB + IR: what the trace node computes.
    let trace = TraceStage {
        pipeline: unit.pipeline,
    }
    .decode(data(StageKind::Trace)?)
    .ok_or_else(|| format!("{label}: undecodable trace artifact"))?;
    let program = if pub_tac {
        let (pubbed, secs) =
            timed(|| mbcr_pub::pub_transform(&unit.benchmark.program, &cfg.pub_cfg));
        m.add("pub.transform_s", secs);
        pubbed.map_err(|e| format!("{label}: pub: {e}"))?.program
    } else {
        unit.benchmark.program.clone()
    };
    let (run, secs) = timed(|| mbcr_ir::execute(&program, unit.inputs));
    m.add("ir.execute_s", secs);
    let run = run.map_err(|e| format!("{label}: execute: {e}"))?;
    if run.trace != trace {
        return Err(format!(
            "{label}: re-executed trace differs from the stored one"
        ));
    }

    // Convergence: the sampler is the converge stage's own `campaign_slice`,
    // split into its two halves so each is timed once: the resolve, then
    // the serial run loop over the resolved trace.
    let platform = &cfg.platform;
    let seed = derive_seed(cfg.seed, 0xCA);
    let conv = &cfg.convergence;
    let mut collected: Vec<u64> = Vec::new();
    let (mut sim_s, mut resolve_s, mut calls) = (0.0f64, 0.0f64, 0usize);
    let outcome = converge(
        |count| {
            let (rt, secs) = timed(|| ResolvedTrace::resolve(platform, &trace));
            resolve_s += secs;
            let (out, secs) = timed(|| serial_runs(platform, &rt, collected.len(), count, seed));
            sim_s += secs;
            calls += 1;
            collected.extend_from_slice(&out);
            out
        },
        conv,
    )
    .map_err(|e| format!("{label}: converge: {e}"))?;
    let stored = data(StageKind::Converge)?;
    let stored_sample: Option<Vec<u64>> = stored
        .get("sample")
        .and_then(Json::as_array)
        .and_then(|a| a.iter().map(Json::as_u64).collect());
    if stored.get("runs").and_then(Json::as_u64) != Some(outcome.runs as u64)
        || stored_sample.map(|s| sample_checksum(&s)) != Some(sample_checksum(&collected))
    {
        return Err(format!(
            "{label}: converge replay differs (runs {})",
            outcome.runs
        ));
    }
    m.add("cpu.converge_sim_s", sim_s);
    m.add("cpu.resolve_s", resolve_s);
    m.add("cpu.resolve_calls", calls as f64);
    m.add("cpu.sim_runs", collected.len() as f64);
    m.add("cpu.sim_accesses", (collected.len() * trace.len()) as f64);
    m.add("evt.converge_refits", calls as f64);
    // The EVT half of convergence, step by step: one fit per sampler call
    // over the sample so far, and the i.i.d. tests after each good fit.
    for k in 0..calls {
        let n = (conv.initial + k * conv.step).min(collected.len());
        let (fit, secs) =
            timed(|| Pwcet::fit(&collected[..n], conv.method, &conv.tail, conv.dither));
        m.add("evt.converge_fit_s", secs);
        if fit.is_ok() {
            let (_, secs) = timed(|| {
                let float_sample: Vec<f64> = collected[..n].iter().map(|&v| v as f64).collect();
                IidReport::evaluate(&float_sample)
            });
            m.add("evt.converge_iid_s", secs);
        }
    }

    let fit_cfg = |sample: &[u64]| Pwcet::fit(sample, conv.method, &conv.tail, conv.dither);
    if !pub_tac {
        let (fit, secs) = timed(|| fit_cfg(&collected));
        m.add("evt.fit_s", secs);
        let q = fit
            .map_err(|e| format!("{label}: fit: {e}"))?
            .quantile(cfg.exceedance);
        if !same_number(q, data(StageKind::Fit)?.get("pwcet_at_exceedance")) {
            return Err(format!("{label}: fit replay pWCET {q} differs"));
        }
        return Ok(());
    }

    // TAC on both L1 line streams.
    let mut r_tac = 0u64;
    for (stage, salt, geometry) in [
        (StageKind::TacIl1, 1, &platform.il1),
        (StageKind::TacDl1, 2, &platform.dl1),
    ] {
        let tac_cfg = cfg.tac.for_cache(geometry, derive_seed(cfg.seed, salt));
        let lines = if stage == StageKind::TacIl1 {
            trace.instr_lines(geometry.line_size())
        } else {
            trace.data_lines(geometry.line_size())
        };
        let (tac, secs) = timed(|| mbcr_tac::analyze_lines(&lines, &tac_cfg));
        m.add("tac.analyze_s", secs);
        let stored = data(stage)?;
        if stored.get("runs_required").and_then(Json::as_u64) != Some(tac.runs_required)
            || stored.get("groups_evaluated").and_then(Json::as_usize) != Some(tac.groups_evaluated)
        {
            return Err(format!("{label}: {} replay differs", stage.name()));
        }
        m.add("tac.groups_evaluated", tac.groups_evaluated as f64);
        m.add("tac.relevant_groups", tac.relevant_groups.len() as f64);
        r_tac = r_tac.max(tac.runs_required);
    }

    // The campaign tail past the convergence prefix.
    let r_pub = outcome.runs;
    let runs = campaign_runs_for(r_tac.max(r_pub as u64), r_pub, cfg.max_campaign_runs);
    let take = collected.len().min(runs);
    let par = Parallelism::serial().batch_width(cfg.batch_width);
    let (tail, secs) =
        timed(|| campaign_slice_with(platform, &trace, take, runs - take, seed, &par));
    m.add("cpu.campaign_sim_s", secs);
    m.add("cpu.campaign_runs", tail.len() as f64);
    m.add("cpu.sim_runs", tail.len() as f64);
    m.add("cpu.sim_accesses", (tail.len() * trace.len()) as f64);
    let mut sample = collected[..take].to_vec();
    sample.extend_from_slice(&tail);
    let stored = data(StageKind::Campaign)?;
    if stored.get("runs").and_then(Json::as_usize) != Some(sample.len())
        || stored.get("checksum").and_then(Json::as_u64) != Some(sample_checksum(&sample))
    {
        return Err(format!(
            "{label}: campaign replay differs ({} runs)",
            sample.len()
        ));
    }

    // The fit node: the final fit plus the R_pub-run refit.
    let (fit, secs) = timed(|| fit_cfg(&sample));
    m.add("evt.fit_s", secs);
    let (pub_fit, secs) = timed(|| fit_cfg(&collected));
    m.add("evt.fit_s", secs);
    let q = fit
        .map_err(|e| format!("{label}: fit: {e}"))?
        .quantile(cfg.exceedance);
    let q_pub = pub_fit
        .map_err(|e| format!("{label}: fit: {e}"))?
        .quantile(cfg.exceedance);
    let stored = data(StageKind::Fit)?;
    if !same_number(q, stored.get("pwcet_at_exceedance"))
        || !same_number(q_pub, stored.get("pwcet_pub"))
    {
        return Err(format!("{label}: fit replay pWCET {q} differs"));
    }
    Ok(())
}

/// Layer micro rows, measured on the store's own traces and samples.
fn micro(
    plan: &SweepPlan,
    spec: &SweepSpec,
    store: &ArtifactStore,
    docs: &HashMap<u64, Json>,
    m: &Metrics,
) -> Result<(), String> {
    let registry = Registry::malardalen();
    // The median-length pub_tac trace of the sweep.
    let mut traces: Vec<(usize, u64, Trace)> = Vec::new();
    let mut fit_samples: Vec<Vec<u64>> = Vec::new();
    let mut wire_job: Option<usize> = None;
    let mut base: Option<PlatformConfig> = None;
    for (i, job) in plan.graph.jobs.iter().enumerate() {
        let JobKind::Stage {
            analysis: AnalysisKind::PubTac,
            stage,
            ..
        } = &job.kind
        else {
            continue;
        };
        base.get_or_insert(
            plan.cfgs[i]
                .as_ref()
                .ok_or("stage jobs carry a config")?
                .platform,
        );
        match stage {
            StageKind::Trace => {
                let digest = plan.graph.digests[i].ok_or("stage nodes carry digests")?;
                let trace = docs
                    .get(&digest)
                    .and_then(|doc| stage_artifact_data(doc, StageKind::Trace, digest))
                    .and_then(|data| {
                        TraceStage {
                            pipeline: PipelineKind::PubTac,
                        }
                        .decode(data)
                    })
                    .ok_or("micro rows: missing trace artifact")?;
                traces.push((trace.len(), digest, trace));
            }
            StageKind::Campaign => {
                wire_job.get_or_insert(i);
            }
            StageKind::Fit => {
                if let Some(sample) = store.load_job_sample(&plan.keys[i]) {
                    fit_samples.push(sample);
                }
            }
            _ => {}
        }
    }
    traces.sort_by_key(|(len, digest, _)| (*len, *digest));
    let (_, _, trace) = traces
        .get(traces.len() / 2)
        .ok_or("micro rows need a pub_tac trace")?;
    let base = base.ok_or("micro rows need a pub_tac node")?;
    // The fit rows read prefixes of the sweep's samples, richest first: a
    // near-constant prefix would time the fit's degenerate shortcut.
    let variety = |s: &Vec<u64>| {
        s[..s.len().min(1_000)]
            .iter()
            .collect::<BTreeSet<_>>()
            .len()
    };
    fit_samples.sort_by_key(|s| std::cmp::Reverse(variety(s)));
    let mut samples: Vec<u64> = fit_samples.concat();
    if samples.is_empty() {
        return Err("micro rows need a campaign sample".into());
    }
    while samples.len() < 100_000 {
        samples.extend_from_within(..samples.len().min(100_000 - samples.len()));
    }

    // Campaign engines × associativity.
    let seed = 0x5EED;
    let serial = Parallelism {
        threads: 1,
        min_parallel_runs: usize::MAX,
        batch_width: 1,
    };
    for ways in [2u32, 4, 8] {
        let g = base.il1;
        let geometry = CacheGeometry::new(g.size_bytes(), ways, g.line_size())
            .map_err(|e| format!("micro geometry: {e}"))?;
        let platform = PlatformConfig {
            il1: geometry,
            dl1: geometry,
            ..base
        };
        let mut at = 0usize;
        let per_s = rate(|| {
            let out = campaign_slice_with(&platform, trace, at, 64, seed, &serial);
            at += out.len();
            black_box(out).len()
        });
        m.set(&format!("cpu.serial.{ways}w.runs_per_s"), per_s);
        let rt = ResolvedTrace::resolve(&platform, trace);
        let width = mbcr_cpu::DEFAULT_BATCH_WIDTH;
        let mut pass = 0u64;
        let seeds = |pass: u64| -> Vec<u64> {
            (0..width as u64)
                .map(|k| derive_seed(seed, pass * width as u64 + k))
                .collect()
        };
        let mut batch = BatchPlatform::new(&platform, &seeds(0));
        let per_s = rate(|| {
            pass += 1;
            batch.reseed(&seeds(pass));
            black_box(batch.run_resolved(&rt)).len()
        });
        m.set(&format!("cpu.batched.{ways}w.runs_per_s"), per_s);
        if ways == 2 {
            // The engine's own batched entry point: the AVX-512 kernel on
            // hosts that have it, the generic batch engine elsewhere.
            let mut at = 0usize;
            let par = Parallelism::serial();
            let per_s = rate(|| {
                let out = campaign_slice_with(&platform, trace, at, 256, seed, &par);
                at += out.len();
                black_box(out).len()
            });
            m.set("cpu.fastpath.2w.runs_per_s", per_s);
        }
    }

    // Pwcet::fit at three sample sizes.
    let conv = &base_convergence(plan)?;
    for (n, name) in [(1_000, "1k"), (10_000, "10k"), (100_000, "100k")] {
        let per_s = rate(|| {
            let fit = Pwcet::fit(
                black_box(&samples[..n]),
                conv.method,
                &conv.tail,
                conv.dither,
            );
            black_box(fit).map_or(0, |_| 1)
        });
        m.set(&format!("evt.fit.{name}.per_s"), per_s);
    }

    // SampleLog append, in the job-artifact chunk size.
    let path = store.root().join("perfbench-append.slog");
    let log = SampleLog::at(&path);
    let mut result = Ok(());
    let per_s = rate(|| {
        let mut at = 0;
        result = result
            .clone()
            .and_then(|()| log.reset().map_err(|e| e.to_string()));
        while at < samples.len() && result.is_ok() {
            let end = (at + ArtifactStore::JOB_SAMPLE_CHUNK).min(samples.len());
            result = log
                .append(at, samples.len(), &samples[at..end])
                .map_err(|e| e.to_string());
            at = end;
        }
        samples.len() * 8
    });
    result.map_err(|e| format!("sample log append: {e}"))?;
    let _ = fs::remove_file(&path);
    m.set("store.append_mb_per_s", per_s / 1e6);

    // Wire-frame round trip of a real campaign job with its upstream
    // artifacts.
    let i = wire_job.ok_or("micro rows need a campaign node")?;
    let digests = plan
        .stage_digests(i, &registry)
        .map_err(|e| e.to_string())?
        .ok_or("campaign nodes carry digests")?;
    let artifacts: Vec<Json> = [
        StageKind::Trace,
        StageKind::TacIl1,
        StageKind::TacDl1,
        StageKind::Converge,
    ]
    .iter()
    .filter_map(|&stage| docs.get(&digests.get(stage)?).cloned())
    .collect();
    let message = Message::Job(Box::new(WireJob {
        sweep: spec.name.clone(),
        job: i,
        key: plan.keys[i].clone(),
        spec: plan.graph.jobs[i].clone(),
        knobs: AnalysisKnobs::from_spec(spec, None, None),
        artifacts,
        prefix: None,
    }));
    let mut frame: Vec<u8> = Vec::new();
    let mut bad = None;
    let per_s = rate(|| {
        frame.clear();
        let back = protocol::send(&mut frame, &message)
            .and_then(|()| protocol::receive(&mut frame.as_slice()));
        if !matches!(back, Ok(Some(Message::Job(_)))) {
            bad = Some(format!("{back:?}"));
        }
        1
    });
    if let Some(bad) = bad {
        return Err(format!("wire round trip failed: {bad}"));
    }
    m.set("shard.frame_roundtrip_us", 1e6 / per_s);
    Ok(())
}

/// The convergence settings of the plan's first stage node.
fn base_convergence(plan: &SweepPlan) -> Result<mbcr_evt::ConvergenceConfig, String> {
    plan.cfgs
        .iter()
        .flatten()
        .map(|cfg| cfg.convergence)
        .next()
        .ok_or_else(|| "the plan has no stage node".to_string())
}

/// `perfbench-probe reference`: every spec through `run_sweep`, each into
/// its own run scope of one store.
fn reference(flags: &Flags) -> Result<(), String> {
    let path = flags.specs.as_ref().ok_or("--specs is required")?;
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = mbcr_json::parse(&text).map_err(|e| e.to_string())?;
    let registry = Registry::malardalen();
    let store = ArtifactStore::open(&flags.store).map_err(|e| e.to_string())?;
    let opts = RunOptions {
        threads: THREADS,
        ..RunOptions::default()
    };
    let mut failed = 0usize;
    for entry in doc.as_array().ok_or("--specs must hold an array")? {
        let id = entry
            .get("id")
            .and_then(Json::as_str)
            .ok_or("each entry needs an 'id'")?;
        let spec = SweepSpec::from_json(entry.get("spec").ok_or("each entry needs a 'spec'")?)
            .map_err(|e| e.to_string())?;
        let scope = store.run_scope(id).map_err(|e| e.to_string())?;
        let outcome = run_sweep(&spec, &registry, &scope, &opts).map_err(|e| e.to_string())?;
        failed += outcome.failed;
    }
    println!(
        "{}",
        Json::Obj(vec![("failed".to_string(), Json::UInt(failed as u64))]).to_compact()
    );
    Ok(())
}
