//! Sweep execution: spec → stage-granular job DAG → work-stealing pool →
//! artifact store.
//!
//! Since the stage-graph redesign, [`expand`] emits one DAG node per
//! pipeline stage with real data dependencies: a campaign node depends on
//! its converge and per-cache TAC nodes, a fit node on its campaign, and a
//! multipath combine node on its cell's per-input fit nodes. Long
//! campaigns therefore overlap TAC discovery of later cells, and a warm
//! re-run resumes from the last stage a spec change did not invalidate.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mbcr::stage::{
    cache_class, into_stage_artifact_data, path_coverage, rollup_to_json, AnalysisSession,
    PipelineKind, StageDigests, StageKind, StageStore,
};
use mbcr::AnalysisConfig;
use mbcr_ir::Inputs;
use mbcr_json::{Json, Serialize};
use mbcr_malardalen::Benchmark;

use crate::{
    execute_dag, AnalysisKind, ArtifactStore, EngineError, GeometrySpec, InputSelection, JobGraph,
    JobKind, JobSpec, JobSummary, Registry, SweepSpec, Table2Row,
};

/// Execution options orthogonal to the spec (they never affect results,
/// only scheduling, durability and caching).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunOptions {
    /// Worker threads for the job pool; `0` means one per core.
    pub threads: usize,
    /// Re-execute jobs even when a cached artifact exists.
    pub force: bool,
    /// Override [`mbcr::AnalysisConfig::checkpoint_interval`]: checkpoint
    /// running campaigns to their chunk log every this many runs (`0`
    /// checkpoints only at completion). `None` keeps the config default.
    pub checkpoint_interval: Option<usize>,
    /// Override [`mbcr::AnalysisConfig::batch_width`]. Campaigns simulate
    /// one layout at a time whatever the width, so it changes neither the
    /// kernel nor the bit-identical samples, and is digest-neutral. `None`
    /// keeps the config default.
    pub batch_width: Option<usize>,
}

/// Terminal state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran in this invocation.
    Executed,
    /// Satisfied from the artifact store.
    Skipped,
    /// The analysis (or a dependency) failed.
    Failed,
}

impl JobStatus {
    /// Stable spelling for manifests.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Executed => "executed",
            JobStatus::Skipped => "skipped",
            JobStatus::Failed => "failed",
        }
    }

    /// Inverse of [`JobStatus::name`].
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "executed" => Some(JobStatus::Executed),
            "skipped" => Some(JobStatus::Skipped),
            "failed" => Some(JobStatus::Failed),
            _ => None,
        }
    }
}

/// Per-job outcome, as recorded in the manifest.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Artifact key.
    pub key: String,
    /// Human-readable job identity.
    pub label: String,
    /// Terminal state.
    pub status: JobStatus,
    /// Failure message, when failed.
    pub error: Option<String>,
    /// The result summary, when not failed.
    pub summary: Option<JobSummary>,
}

impl Serialize for JobRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("key".to_string(), self.key.as_str().into()),
            ("label".to_string(), self.label.as_str().into()),
            ("status".to_string(), self.status.name().into()),
            ("error".to_string(), Serialize::to_json(&self.error)),
            ("summary".to_string(), Serialize::to_json(&self.summary)),
        ])
    }
}

impl JobRecord {
    /// Inverse of the [`Serialize`] form (manifests, record journals).
    /// `None` on malformed input — a torn journal line is skipped, never
    /// trusted.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            key: v.get("key")?.as_str()?.to_string(),
            label: v.get("label")?.as_str()?.to_string(),
            status: JobStatus::parse(v.get("status")?.as_str()?)?,
            error: match v.get("error") {
                None | Some(Json::Null) => None,
                Some(other) => Some(other.as_str()?.to_string()),
            },
            summary: match v.get("summary") {
                None | Some(Json::Null) => None,
                Some(other) => Some(JobSummary::from_json(other)?),
            },
        })
    }
}

/// What a whole sweep produced.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Jobs executed in this invocation.
    pub executed: usize,
    /// Jobs satisfied from the artifact store.
    pub skipped: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Per-job records, in expansion order.
    pub records: Vec<JobRecord>,
    /// The Table 2 aggregation, one row per (benchmark, input, geometry,
    /// seed) cell.
    pub rows: Vec<Table2Row>,
    /// Wall-clock time of this invocation.
    pub elapsed: Duration,
}

fn resolve_input<'b>(benchmark: &'b Benchmark, name: &str) -> Result<&'b Inputs, EngineError> {
    if name == "default" {
        return Ok(&benchmark.default_input);
    }
    benchmark
        .input_vectors
        .iter()
        .find(|v| v.name == name)
        .map(|v| &v.inputs)
        .ok_or_else(|| EngineError::UnknownInput {
            benchmark: benchmark.name.to_string(),
            input: name.to_string(),
        })
}

fn selected_inputs(spec: &SweepSpec, benchmark: &Benchmark) -> Result<Vec<String>, EngineError> {
    match &spec.inputs {
        // Always the benchmark's `default_input` — the same input the cell's
        // Original job analyses, so the R_orig and R_pub columns of one
        // Table 2 row never come from different inputs.
        InputSelection::Default => Ok(vec!["default".to_string()]),
        InputSelection::All => {
            if benchmark.input_vectors.is_empty() {
                Ok(vec!["default".to_string()])
            } else {
                Ok(benchmark
                    .input_vectors
                    .iter()
                    .map(|v| v.name.clone())
                    .collect())
            }
        }
        InputSelection::Named(names) => {
            for name in names {
                resolve_input(benchmark, name)?;
            }
            Ok(names.clone())
        }
    }
}

fn dedup_preserving<T: PartialEq + Clone>(items: &[T]) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(items.len());
    for item in items {
        if !out.contains(item) {
            out.push(item.clone());
        }
    }
    out
}

/// Expansion-time node index: content digest plus the input-vector name.
/// Keying by name keeps two *named* inputs that happen to resolve to the
/// same vector as separate pipelines (each keeps its Table 2 row; the
/// content-addressed stage store still dedups the underlying work), while
/// the digest part collapses identical stages across seeds and geometries.
type NodeIndex = HashMap<(u64, Option<String>), usize>;

/// Pushes a stage node, or returns the index of an existing node with the
/// same content digest and input name — seed-free stages (PUB transform,
/// path trace) are shared across every seed and geometry of the sweep.
fn push_stage(
    graph: &mut JobGraph,
    by_digest: &mut NodeIndex,
    job: JobSpec,
    digest: u64,
    deps: Vec<usize>,
) -> usize {
    let slot = (digest, job.kind.input().map(str::to_string));
    if let Some(&at) = by_digest.get(&slot) {
        return at;
    }
    let at = graph.jobs.len();
    graph.jobs.push(job);
    graph.deps.push(deps);
    graph.digests.push(Some(digest));
    by_digest.insert(slot, at);
    at
}

/// Expands a spec into its stage-granular job DAG: for every cell of the
/// benchmarks × inputs × geometries × seeds cross product, one node per
/// pipeline stage (trace → converge → fit for the original baseline;
/// pub → trace → tac×2 → converge → campaign → fit per pubbed path), plus
/// one `MultipathCombine` node per cell with at least two pubbed paths
/// (Corollary 2 is the identity on a single path). Nodes are deduplicated
/// by stage digest, so input-invariant stages collapse across cells.
///
/// # Errors
///
/// [`EngineError::UnknownBenchmark`] / [`EngineError::UnknownInput`] /
/// [`EngineError::Spec`] on names that do not resolve.
pub fn expand(spec: &SweepSpec, registry: &Registry) -> Result<JobGraph, EngineError> {
    let benchmarks: Vec<String> = if spec.benchmarks.is_empty() {
        registry.names().iter().map(ToString::to_string).collect()
    } else {
        dedup_preserving(&spec.benchmarks)
    };
    if benchmarks.is_empty() {
        return Err(EngineError::Spec("no benchmarks to sweep".into()));
    }
    let geometries = dedup_preserving(&spec.geometries);
    let seeds = dedup_preserving(&spec.seeds);
    let wants = |kind: AnalysisKind| spec.analyses.contains(&kind);
    let mut graph = JobGraph::default();
    let mut by_digest: NodeIndex = HashMap::new();
    for name in &benchmarks {
        let benchmark = registry
            .get(name)
            .ok_or_else(|| EngineError::UnknownBenchmark(name.clone()))?;
        let inputs = dedup_preserving(&selected_inputs(spec, benchmark)?);
        for geometry in &geometries {
            for &master_seed in &seeds {
                let cell = |kind: JobKind| JobSpec {
                    benchmark: name.clone(),
                    geometry: *geometry,
                    master_seed,
                    kind,
                };
                if wants(AnalysisKind::Original) {
                    let probe = cell(JobKind::original_stage(StageKind::Trace));
                    let cfg = spec.analysis_config(geometry, probe.job_seed())?;
                    let digests = StageDigests::compute(
                        &benchmark.program,
                        &benchmark.default_input,
                        &cfg,
                        PipelineKind::Original,
                    );
                    let d = |s: StageKind| digests.get(s).expect("original stage");
                    let node =
                        |g: &mut JobGraph, bd: &mut NodeIndex, s: StageKind, deps: Vec<usize>| {
                            push_stage(g, bd, cell(JobKind::original_stage(s)), d(s), deps)
                        };
                    let t = node(&mut graph, &mut by_digest, StageKind::Trace, vec![]);
                    let c = node(&mut graph, &mut by_digest, StageKind::Converge, vec![t]);
                    node(&mut graph, &mut by_digest, StageKind::Fit, vec![c]);
                }
                let mut fit_ids = Vec::new();
                if wants(AnalysisKind::PubTac) || wants(AnalysisKind::Multipath) {
                    for input_name in &inputs {
                        let input = resolve_input(benchmark, input_name)?;
                        let probe =
                            cell(JobKind::pub_tac_stage(StageKind::Trace, input_name.clone()));
                        let cfg = spec.analysis_config(geometry, probe.job_seed())?;
                        let digests = StageDigests::compute(
                            &benchmark.program,
                            input,
                            &cfg,
                            PipelineKind::PubTac,
                        );
                        let d = |s: StageKind| digests.get(s).expect("pub_tac stage");
                        let node = |g: &mut JobGraph,
                                    bd: &mut NodeIndex,
                                    s: StageKind,
                                    deps: Vec<usize>| {
                            push_stage(
                                g,
                                bd,
                                cell(JobKind::pub_tac_stage(s, input_name.clone())),
                                d(s),
                                deps,
                            )
                        };
                        // The PUB transform is input-independent: one node
                        // per benchmark × pub-config, shared by every path.
                        let p = push_stage(
                            &mut graph,
                            &mut by_digest,
                            cell(JobKind::Stage {
                                analysis: AnalysisKind::PubTac,
                                stage: StageKind::Pub,
                                input: None,
                            }),
                            d(StageKind::Pub),
                            vec![],
                        );
                        let t = node(&mut graph, &mut by_digest, StageKind::Trace, vec![p]);
                        let ti = node(&mut graph, &mut by_digest, StageKind::TacIl1, vec![t]);
                        let td = node(&mut graph, &mut by_digest, StageKind::TacDl1, vec![t]);
                        let cv = node(&mut graph, &mut by_digest, StageKind::Converge, vec![t]);
                        let cp = node(
                            &mut graph,
                            &mut by_digest,
                            StageKind::Campaign,
                            vec![cv, ti, td],
                        );
                        fit_ids.push(node(&mut graph, &mut by_digest, StageKind::Fit, vec![cp]));
                    }
                }
                if wants(AnalysisKind::Multipath) && fit_ids.len() >= 2 {
                    graph.jobs.push(cell(JobKind::MultipathCombine));
                    graph.deps.push(fit_ids);
                    graph.digests.push(None);
                }
            }
        }
    }
    Ok(graph)
}

/// The executable form of one sweep: the expanded stage DAG plus each
/// node's content key and fully-instantiated analysis config. This is the
/// shared planning step of every executor — the in-process pool
/// ([`run_sweep`]) and the `mbcr-shard` coordinator both build one, so a
/// sharded sweep schedules *exactly* the jobs, keys and configs a
/// single-process sweep would.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// The stage-granular job DAG.
    pub graph: JobGraph,
    /// Per-job content-hash artifact keys, parallel to the graph.
    pub keys: Vec<String>,
    /// Per-job analysis configs (`None` for combine nodes).
    pub cfgs: Vec<Option<AnalysisConfig>>,
}

impl SweepPlan {
    /// Expands `spec` and computes every node's key and config.
    ///
    /// Stage jobs are keyed by their stage digest (so a spec change
    /// invalidates exactly the affected stages); combine jobs have no
    /// config of their own: their key hashes the dependency keys, so
    /// invalidation cascades.
    ///
    /// # Errors
    ///
    /// Expansion errors ([`expand`]) and invalid geometries.
    pub fn new(
        spec: &SweepSpec,
        registry: &Registry,
        opts: &RunOptions,
    ) -> Result<Self, EngineError> {
        let graph = expand(spec, registry)?;
        let mut cfgs: Vec<Option<AnalysisConfig>> = Vec::with_capacity(graph.len());
        let mut keys: Vec<String> = Vec::with_capacity(graph.len());
        for (i, job) in graph.jobs.iter().enumerate() {
            match job.kind {
                JobKind::MultipathCombine => {
                    let mut digest = mbcr_json::FNV_OFFSET;
                    for &dep in &graph.deps[i] {
                        digest = mbcr_json::fnv1a(digest, &keys[dep]);
                    }
                    cfgs.push(None);
                    keys.push(job.key(digest));
                }
                JobKind::Stage { .. } => {
                    let mut cfg = spec.analysis_config(&job.geometry, job.job_seed())?;
                    if let Some(interval) = opts.checkpoint_interval {
                        cfg.checkpoint_interval = interval;
                    }
                    if let Some(width) = opts.batch_width {
                        cfg.batch_width = width.max(1);
                    }
                    let digest = graph.digests[i].expect("stage nodes carry digests");
                    keys.push(job.key(digest));
                    cfgs.push(Some(cfg));
                }
            }
        }
        Ok(Self { graph, keys, cfgs })
    }

    /// Number of jobs in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the plan has no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// The full per-stage digest set of stage node `i` — what a
    /// distributed executor needs to locate the node's upstream artifacts
    /// in a store. `None` for combine nodes.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownBenchmark`] / [`EngineError::UnknownInput`]
    /// on names that do not resolve.
    pub fn stage_digests(
        &self,
        i: usize,
        registry: &Registry,
    ) -> Result<Option<StageDigests>, EngineError> {
        let job = &self.graph.jobs[i];
        let JobKind::Stage {
            analysis, input, ..
        } = &job.kind
        else {
            return Ok(None);
        };
        let benchmark = registry
            .get(&job.benchmark)
            .ok_or_else(|| EngineError::UnknownBenchmark(job.benchmark.clone()))?;
        let inputs = match input {
            Some(name) => resolve_input(benchmark, name)?,
            None => &benchmark.default_input,
        };
        let cfg = self.cfgs[i].as_ref().expect("stage jobs carry a config");
        let pipeline = match analysis {
            AnalysisKind::Original => PipelineKind::Original,
            AnalysisKind::PubTac => PipelineKind::PubTac,
            AnalysisKind::Multipath => unreachable!("combine jobs are not stage nodes"),
        };
        Ok(Some(StageDigests::compute(
            &benchmark.program,
            inputs,
            cfg,
            pipeline,
        )))
    }

    /// The cached summary of job `i`, when `store` already holds a valid
    /// artifact for it — the whole skip-if-cached policy, shared by every
    /// executor.
    ///
    /// Stage jobs are cached by their content-addressed stage artifact;
    /// combine jobs by their job artifact. A fit node must additionally
    /// have its full result under `jobs/` — a job artifact of this schema
    /// whose summary parses and, for a pub_tac fit, a job sample log
    /// covering the campaign ([`ArtifactStore::has_job_result`]); a store
    /// shipped with only the `stages/` dir, or with a stale, foreign or
    /// pruned job artifact, regenerates them instead of reporting cached.
    /// A campaign completion marker without a chunk log that covers it
    /// and matches its checksum (torn, truncated, pruned, or divergent)
    /// is not cached — the node re-executes and resumes from whatever
    /// valid log prefix exists. The validation is the session's own
    /// ([`mbcr::stage::campaign_marker_sample`]), so the scheduler and
    /// the session can never disagree on what a campaign cache hit is.
    #[must_use]
    pub fn cached_summary(&self, i: usize, store: &ArtifactStore) -> Option<JobSummary> {
        let job = &self.graph.jobs[i];
        let key = &self.keys[i];
        match (&job.kind, self.graph.digests[i]) {
            (JobKind::Stage { stage, .. }, Some(digest)) => load_valid_stage(store, *stage, digest)
                .filter(|data| {
                    *stage != StageKind::Campaign
                        || mbcr::stage::campaign_marker_sample(data, store, digest).is_some()
                })
                .map(|data| summary_from_stage_artifact(job, key, *stage, &data))
                .filter(|summary| {
                    *stage != StageKind::Fit || store.has_job_result(key, summary.campaign_runs)
                }),
            _ => store.load_summary(key),
        }
    }
}

/// Runs a sweep end-to-end: plan, schedule on the in-process pool,
/// persist artifacts, aggregate Table 2, write the manifest.
///
/// Completed stages found in `store` are skipped unless
/// [`RunOptions::force`]; a second invocation with an unchanged spec
/// therefore executes nothing and still reproduces every row, and an
/// invocation after a partial knob change (say, a new
/// `max_campaign_runs`) resumes mid-analysis, re-executing only the
/// campaign and fit stages whose digests the change invalidated.
///
/// # Errors
///
/// Spec/expansion errors and store I/O errors fail the sweep as a whole.
/// *Analysis* failures do not: they mark the affected job (and its
/// dependents) failed in the outcome and manifest.
pub fn run_sweep(
    spec: &SweepSpec,
    registry: &Registry,
    store: &ArtifactStore,
    opts: &RunOptions,
) -> Result<SweepOutcome, EngineError> {
    let start = Instant::now();
    let plan = SweepPlan::new(spec, registry, opts)?;

    let threads = if opts.threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        opts.threads
    };

    // Completed summaries, readable by dependents while the pool runs.
    let slots: Vec<Mutex<Option<JobSummary>>> = (0..plan.len()).map(|_| Mutex::new(None)).collect();

    let records = execute_dag(&plan.graph.deps, threads, |i: usize| {
        let job = &plan.graph.jobs[i];
        let key = &plan.keys[i];
        let record = |status, error, summary: Option<JobSummary>| JobRecord {
            key: key.clone(),
            label: job.label(),
            status,
            error,
            summary,
        };
        if !opts.force {
            if let Some(summary) = plan.cached_summary(i, store) {
                *slots[i].lock().expect("slot poisoned") = Some(summary.clone());
                return record(JobStatus::Skipped, None, Some(summary));
            }
        }
        let outcome = match &job.kind {
            JobKind::Stage { .. } => execute_stage(
                job,
                key,
                plan.cfgs[i].as_ref().expect("stage jobs carry a config"),
                registry,
                store,
                opts.force,
            )
            .and_then(|out| {
                if let Some((result, sample)) = out.fit {
                    store.write_job(key, &out.summary, result, sample.as_deref())?;
                }
                Ok(out.summary)
            }),
            JobKind::MultipathCombine => {
                let dep_summaries: Vec<Option<JobSummary>> = plan.graph.deps[i]
                    .iter()
                    .map(|&dep| slots[dep].lock().expect("slot poisoned").clone())
                    .collect();
                execute_combine(job, key, &dep_summaries).and_then(|(summary, result)| {
                    store.write_job(key, &summary, result, None)?;
                    Ok(summary)
                })
            }
        };
        match outcome {
            Ok(summary) => {
                *slots[i].lock().expect("slot poisoned") = Some(summary.clone());
                record(JobStatus::Executed, None, Some(summary))
            }
            Err(e) => record(JobStatus::Failed, Some(e.to_string()), None),
        }
    });

    finalize_sweep(spec, records, registry, store, start.elapsed())
}

/// Computes the manifest's static-path-coverage block: one entry per swept
/// benchmark relating the Ball–Larus static path count to the distinct paths
/// the spec's selected input vectors actually exercise. The underlying
/// [`mbcr::stage::PathCoverage`] artifacts are digest-keyed in the store, so
/// warm re-runs (and shard coordinators merging the same sweep) reuse them.
fn coverage_block(
    spec: &SweepSpec,
    registry: &Registry,
    store: &ArtifactStore,
) -> Result<Json, EngineError> {
    let names: Vec<String> = if spec.benchmarks.is_empty() {
        registry.names().iter().map(ToString::to_string).collect()
    } else {
        dedup_preserving(&spec.benchmarks)
    };
    let mut entries = Vec::with_capacity(names.len());
    for name in names {
        // Unknown names already failed expansion; a registry that shrank
        // between planning and finalization just drops the entry.
        let Some(benchmark) = registry.get(&name) else {
            continue;
        };
        let mut inputs = Vec::new();
        for input in selected_inputs(spec, benchmark)? {
            inputs.push(resolve_input(benchmark, &input)?.clone());
        }
        let coverage = path_coverage(&benchmark.program, &inputs, Some(store))
            .map_err(|e| EngineError::Analysis(format!("{name}: path coverage: {e}")))?;
        entries.push((name, coverage.to_json()));
    }
    Ok(Json::Obj(entries))
}

/// Computes the manifest's static cache-classification block: one entry per
/// swept benchmark × geometry with the abstract-interpretation hit/miss
/// rollup ([`mbcr::stage::cache_class`]). Digest-keyed in the store like
/// the coverage artifacts, so warm re-runs reuse them.
fn cache_class_block(
    spec: &SweepSpec,
    registry: &Registry,
    store: &ArtifactStore,
) -> Result<Json, EngineError> {
    let names: Vec<String> = if spec.benchmarks.is_empty() {
        registry.names().iter().map(ToString::to_string).collect()
    } else {
        dedup_preserving(&spec.benchmarks)
    };
    let mut geometries: Vec<&GeometrySpec> = Vec::new();
    for g in &spec.geometries {
        if !geometries.contains(&g) {
            geometries.push(g);
        }
    }
    let mut entries = Vec::with_capacity(names.len());
    for name in names {
        // Unknown names already failed expansion; a registry that shrank
        // between planning and finalization just drops the entry.
        let Some(benchmark) = registry.get(&name) else {
            continue;
        };
        let mut per_geometry = Vec::with_capacity(geometries.len());
        for gspec in &geometries {
            let g = gspec.geometry()?;
            let rollup = cache_class(&benchmark.program, g, g, Some(store))
                .map_err(|e| EngineError::Analysis(format!("{name}: cache class: {e}")))?;
            per_geometry.push((gspec.label(), rollup_to_json(&rollup)));
        }
        entries.push((name, Json::Obj(per_geometry)));
    }
    Ok(Json::Obj(entries))
}

/// Aggregates per-job records into the sweep outcome and persists the
/// run-level artifacts: the Table 2 CSV and the manifest (including its
/// static-path-coverage block, resolved against `registry`). Shared by the
/// in-process pool and the `mbcr-shard` coordinator, so a sharded sweep
/// writes a manifest and table byte-identical to a single-process one.
///
/// # Errors
///
/// [`EngineError::Io`] on store failures.
pub fn finalize_sweep(
    spec: &SweepSpec,
    records: Vec<JobRecord>,
    registry: &Registry,
    store: &ArtifactStore,
    elapsed: Duration,
) -> Result<SweepOutcome, EngineError> {
    let executed = records
        .iter()
        .filter(|r| r.status == JobStatus::Executed)
        .count();
    let skipped = records
        .iter()
        .filter(|r| r.status == JobStatus::Skipped)
        .count();
    let failed = records
        .iter()
        .filter(|r| r.status == JobStatus::Failed)
        .count();

    let summaries: Vec<JobSummary> = records.iter().filter_map(|r| r.summary.clone()).collect();
    let rows = aggregate_rows(&summaries);
    store.write_table2(&rows)?;
    store.write_manifest(&Json::Obj(vec![
        ("schema".to_string(), crate::SCHEMA.into()),
        ("spec".to_string(), spec.to_json()),
        (
            "counts".to_string(),
            Json::Obj(vec![
                ("executed".to_string(), Json::UInt(executed as u64)),
                ("skipped".to_string(), Json::UInt(skipped as u64)),
                ("failed".to_string(), Json::UInt(failed as u64)),
            ]),
        ),
        (
            "path_coverage".to_string(),
            coverage_block(spec, registry, store)?,
        ),
        (
            "cache_class".to_string(),
            cache_class_block(spec, registry, store)?,
        ),
        ("jobs".to_string(), Serialize::to_json(&records)),
    ]))?;

    Ok(SweepOutcome {
        executed,
        skipped,
        failed,
        records,
        rows,
        elapsed,
    })
}

/// Loads and validates a content-addressed stage artifact; a torn or
/// foreign file is never a cache hit.
fn load_valid_stage(store: &ArtifactStore, stage: StageKind, digest: u64) -> Option<Json> {
    into_stage_artifact_data(StageStore::load_stage(store, digest)?, stage, digest)
}

/// Synthesizes the result summary of a cached stage job from its stage
/// artifact alone (fit artifacts carry every cross-stage number).
fn summary_from_stage_artifact(
    job: &JobSpec,
    key: &str,
    stage: StageKind,
    data: &Json,
) -> JobSummary {
    let mut s = JobSummary::empty(key.to_string(), job);
    let original = job.kind.analysis() == AnalysisKind::Original;
    match stage {
        StageKind::Pub => {}
        StageKind::Trace => s.trace_len = data.get("len").and_then(Json::as_u64),
        StageKind::TacIl1 | StageKind::TacDl1 => {
            s.r_tac = data.get("runs_required").and_then(Json::as_u64);
        }
        StageKind::Converge => {
            let runs = data.get("runs").and_then(Json::as_u64);
            if original {
                s.r_orig = runs;
                s.converged = data.get("converged").and_then(Json::as_bool);
            } else {
                s.r_pub = runs;
            }
        }
        StageKind::Campaign => s.campaign_runs = data.get("runs").and_then(Json::as_u64),
        StageKind::PathCoverage | StageKind::CacheClass => {}
        StageKind::Fit => {
            s.pwcet = data
                .get("pwcet_at_exceedance")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            s.trace_len = data.get("trace_len").and_then(Json::as_u64);
            let converge_runs = data.get("converge_runs").and_then(Json::as_u64);
            if original {
                s.r_orig = converge_runs;
                s.converged = data.get("converged").and_then(Json::as_bool);
            } else {
                s.r_pub = converge_runs;
                s.r_tac = data.get("r_tac").and_then(Json::as_u64);
                s.r_pub_tac = data.get("r_pub_tac").and_then(Json::as_u64);
                s.campaign_runs = data.get("campaign_runs").and_then(Json::as_u64);
                s.campaign_capped = data.get("campaign_capped").and_then(Json::as_bool);
                s.pwcet_pub = data.get("pwcet_pub").and_then(Json::as_f64);
            }
        }
    }
    s
}

/// What executing one stage node produced: the summary for the manifest,
/// plus — for terminal fit nodes — the full-result document and final
/// sample that belong in the job-artifact layout (`jobs/<key>.json` +
/// sample log). The *caller* persists those: the in-process pool writes
/// them into its own store, a shard worker ships them back to the
/// coordinator.
#[derive(Debug, Clone)]
pub struct StageOutcome {
    /// The flat result summary.
    pub summary: JobSummary,
    /// `(full result document, final campaign sample)` for fit nodes.
    pub fit: Option<(Json, Option<Vec<u64>>)>,
}

/// Executes one stage node against any [`StageStore`] — the single
/// definition of what a stage job *does*, shared by the in-process pool
/// and `mbcr-shard` workers (whose store is an in-memory mirror seeded
/// with the shipped upstream artifacts).
///
/// With `force`, only this node's own stage recomputes: the DAG already
/// re-executed (and re-saved) every upstream node, so the session loads
/// those fresh artifacts instead of re-deriving the whole chain
/// in-process.
///
/// # Errors
///
/// [`EngineError::UnknownBenchmark`] / [`EngineError::UnknownInput`] on
/// names that do not resolve, [`EngineError::Analysis`] when the
/// underlying analysis fails.
///
/// # Panics
///
/// Panics if `job` is not a stage node.
pub fn execute_stage(
    job: &JobSpec,
    key: &str,
    cfg: &AnalysisConfig,
    registry: &Registry,
    store: &dyn StageStore,
    force: bool,
) -> Result<StageOutcome, EngineError> {
    let JobKind::Stage {
        analysis,
        stage,
        input,
    } = &job.kind
    else {
        panic!("execute_stage needs a stage node, got {}", job.label());
    };
    // Telemetry side channel: the span name is the low-cardinality stage
    // kind (one histogram series per kind); the job identity rides along
    // as fields for the trace timeline only.
    let _span = mbcr_obs::span(mbcr_obs::SpanKind::StageExecute, job.kind.name())
        .field("job", job.label())
        .field("key", key);
    let benchmark = registry
        .get(&job.benchmark)
        .ok_or_else(|| EngineError::UnknownBenchmark(job.benchmark.clone()))?;
    let mut summary = JobSummary::empty(key.to_string(), job);
    let inputs = match input {
        Some(name) => resolve_input(benchmark, name)?,
        None => &benchmark.default_input,
    };
    let mut session = match analysis {
        AnalysisKind::Original => AnalysisSession::original(&benchmark.program, inputs, cfg),
        AnalysisKind::PubTac => AnalysisSession::pub_tac(&benchmark.program, inputs, cfg),
        AnalysisKind::Multipath => {
            unreachable!("combine jobs are not stage nodes")
        }
    }
    .with_store(store);
    if force {
        session = session.with_force_stage(*stage);
    }
    let fail = |e: mbcr::AnalyzeError| EngineError::Analysis(format!("{}: {e}", job.label()));
    session.advance(*stage).map_err(fail)?;
    let mut fit = None;
    match stage {
        StageKind::Fit if *analysis == AnalysisKind::PubTac => {
            // The terminal node: assemble the complete analysis (upstream
            // stages load from the store) for the legacy full-result
            // layout.
            let analysis = session.finish_pub_tac().map_err(fail)?;
            summary.r_pub = Some(analysis.r_pub as u64);
            summary.r_tac = Some(analysis.r_tac);
            summary.r_pub_tac = Some(analysis.r_pub_tac);
            summary.campaign_runs = Some(analysis.campaign_runs as u64);
            summary.campaign_capped = Some(analysis.campaign_capped);
            summary.pwcet = analysis.pwcet_pub_tac;
            summary.pwcet_pub = Some(analysis.pwcet_pub);
            summary.trace_len = Some(analysis.trace_len as u64);
            let sample = analysis.sample.clone();
            fit = Some((analysis.to_json(), Some(sample)));
        }
        StageKind::Fit => {
            let analysis = session.finish_original().map_err(fail)?;
            summary.r_orig = Some(analysis.r_orig as u64);
            summary.converged = Some(analysis.converged);
            summary.pwcet = analysis.pwcet_at_exceedance;
            summary.trace_len = Some(analysis.trace_len as u64);
            fit = Some((analysis.to_json(), None));
        }
        StageKind::Trace => {
            summary.trace_len = session.trace_len().map(|l| l as u64);
        }
        StageKind::TacIl1 | StageKind::TacDl1 => {
            summary.r_tac = session.tac_analysis(*stage).map(|t| t.runs_required);
        }
        StageKind::Converge => {
            let output = session.converge_output().expect("converge advanced");
            if *analysis == AnalysisKind::Original {
                summary.r_orig = Some(output.runs as u64);
                summary.converged = Some(output.converged);
            } else {
                summary.r_pub = Some(output.runs as u64);
            }
        }
        StageKind::Campaign => {
            summary.campaign_runs = session.campaign_sample().map(|s| s.len() as u64);
            summary.campaign_resumed = session.campaign_resumed_runs().map(|n| n as u64);
        }
        StageKind::Pub => {}
        StageKind::PathCoverage | StageKind::CacheClass => {
            unreachable!("side stages are never session stages; sweeps never plan them")
        }
    }
    Ok(StageOutcome { summary, fit })
}

/// Executes a multipath combine node over its dependencies' summaries
/// (Corollary 2: every pubbed path upper-bounds all original paths, so
/// the tightest — lowest — estimate is kept). Returns the summary plus
/// the result document for the job artifact. Shared by the in-process
/// pool and the coordinator, which runs combines inline — they are a
/// `min` over numbers already in hand, never worth a network round trip.
///
/// # Errors
///
/// [`EngineError::Analysis`] when a dependency failed (its summary slot
/// is `None`).
pub fn execute_combine(
    job: &JobSpec,
    key: &str,
    dep_summaries: &[Option<JobSummary>],
) -> Result<(JobSummary, Json), EngineError> {
    let _span = mbcr_obs::span(mbcr_obs::SpanKind::StageExecute, job.kind.name())
        .field("job", job.label())
        .field("key", key);
    let mut summary = JobSummary::empty(key.to_string(), job);
    let mut per_input: Vec<(String, f64)> = Vec::with_capacity(dep_summaries.len());
    for dep_summary in dep_summaries {
        let dep_summary = dep_summary.clone().ok_or_else(|| {
            EngineError::Analysis(format!(
                "{}: dependency failed, nothing to combine",
                job.label()
            ))
        })?;
        per_input.push((dep_summary.input.unwrap_or_default(), dep_summary.pwcet));
    }
    let (best, best_pwcet) = mbcr::multipath_min(per_input.iter().map(|(_, pwcet)| *pwcet))
        .expect("combine jobs have at least two dependencies");
    let best_input = per_input[best].0.clone();
    summary.pwcet = best_pwcet;
    summary.best_input = Some(best_input.clone());
    let result = Json::Obj(vec![
        (
            "per_input".to_string(),
            Json::Obj(
                per_input
                    .iter()
                    .map(|(name, pwcet)| (name.clone(), Json::Num(*pwcet)))
                    .collect(),
            ),
        ),
        ("best_input".to_string(), best_input.into()),
        ("best_pwcet".to_string(), Json::Num(best_pwcet)),
    ]);
    Ok((summary, result))
}

/// Collapses job summaries into the paper's Table 2 layout: one row per
/// (benchmark, input, geometry, seed) cell, with the `R_orig` baseline and
/// the multipath combination attached to every input row of their cell.
/// Works from summaries alone, so `mbcr report` can rebuild the table from
/// a manifest without re-running anything.
#[must_use]
pub fn aggregate_rows(summaries: &[JobSummary]) -> Vec<Table2Row> {
    let mut rows: Vec<Table2Row> = Vec::new();
    let same_cell = |r: &Table2Row, s: &JobSummary| {
        r.benchmark == s.benchmark && r.geometry == s.geometry && r.seed == s.master_seed
    };
    let ensure_row = |rows: &mut Vec<Table2Row>, s: &JobSummary, input: &str| -> usize {
        if let Some(at) = rows
            .iter()
            .position(|r| same_cell(r, s) && r.input == input)
        {
            return at;
        }
        rows.push(Table2Row {
            benchmark: s.benchmark.clone(),
            input: input.to_string(),
            geometry: s.geometry.clone(),
            seed: s.master_seed,
            r_orig: None,
            r_pub: None,
            r_tac: None,
            r_pub_tac: None,
            pwcet_orig: None,
            pwcet_pub: None,
            pwcet_pub_tac: None,
            pwcet_multipath: None,
        });
        rows.len() - 1
    };

    // Input rows first, then cell-wide columns onto every row of the cell.
    for s in summaries.iter().filter(|s| s.kind == "pub_tac") {
        let input = s.input.clone().unwrap_or_else(|| "default".to_string());
        let at = ensure_row(&mut rows, s, &input);
        rows[at].r_pub = s.r_pub;
        rows[at].r_tac = s.r_tac;
        rows[at].r_pub_tac = s.r_pub_tac;
        rows[at].pwcet_pub = s.pwcet_pub;
        rows[at].pwcet_pub_tac = Some(s.pwcet);
    }
    for s in summaries {
        match s.kind.as_str() {
            "original" => {
                let mut hit = false;
                for row in rows.iter_mut().filter(|r| same_cell(r, s)) {
                    row.r_orig = s.r_orig;
                    row.pwcet_orig = Some(s.pwcet);
                    hit = true;
                }
                if !hit {
                    let at = ensure_row(&mut rows, s, "default");
                    rows[at].r_orig = s.r_orig;
                    rows[at].pwcet_orig = Some(s.pwcet);
                }
            }
            "multipath" => {
                for row in rows.iter_mut().filter(|r| same_cell(r, s)) {
                    row.pwcet_multipath = Some(s.pwcet);
                }
            }
            _ => {}
        }
    }
    rows
}

/// Renders rows as an aligned text table for terminals.
#[must_use]
pub fn render_rows(rows: &[Table2Row]) -> String {
    let headers = [
        "benchmark",
        "input",
        "geometry",
        "seed",
        "R_orig",
        "R_pub",
        "R_tac",
        "R_p+t",
        "pWCET_orig",
        "pWCET_pub",
        "pWCET_p+t",
        "pWCET_multi",
    ];
    let mut cells: Vec<Vec<String>> = vec![headers.iter().map(ToString::to_string).collect()];
    for row in rows {
        cells.push(row.cells().to_vec());
    }
    let widths: Vec<usize> = (0..headers.len())
        .map(|c| {
            cells
                .iter()
                .map(|r| r.get(c).map_or(0, String::len))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut out = String::new();
    for (i, row) in cells.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>width$}", width = widths[c]));
        }
        out.push('\n');
        if i == 0 {
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeometrySpec;

    fn two_geometry_spec() -> SweepSpec {
        SweepSpec::new("expand-test")
            .benchmarks(["bs"])
            .geometries([
                GeometrySpec::paper_l1(),
                GeometrySpec {
                    size_bytes: 2048,
                    ways: 2,
                    line_size: 32,
                },
            ])
            .seeds([1, 2])
    }

    fn count_stage(graph: &crate::JobGraph, stage: StageKind) -> usize {
        graph
            .jobs
            .iter()
            .filter(|j| j.kind.stage() == Some(stage))
            .count()
    }

    #[test]
    fn expansion_covers_the_cross_product_at_stage_granularity() {
        let registry = Registry::malardalen();
        let graph = expand(&two_geometry_spec(), &registry).unwrap();
        // 2 geometries × 2 seeds = 4 cells. Seed- and geometry-dependent
        // stages appear once per cell; the seed-free PUB transform and
        // path traces deduplicate to one node each (per pipeline).
        assert_eq!(count_stage(&graph, StageKind::Pub), 1);
        assert_eq!(count_stage(&graph, StageKind::Trace), 2, "orig + pubbed");
        assert_eq!(count_stage(&graph, StageKind::TacIl1), 4);
        assert_eq!(count_stage(&graph, StageKind::TacDl1), 4);
        assert_eq!(
            count_stage(&graph, StageKind::Converge),
            8,
            "orig + pub_tac"
        );
        assert_eq!(count_stage(&graph, StageKind::Campaign), 4);
        assert_eq!(count_stage(&graph, StageKind::Fit), 8, "orig + pub_tac");
        assert_eq!(graph.len(), 31);
        // Real data dependencies: every campaign node waits for its
        // converge and both TAC nodes.
        for (i, job) in graph.jobs.iter().enumerate() {
            if job.kind.stage() == Some(StageKind::Campaign) {
                assert_eq!(graph.deps[i].len(), 3, "converge + tac_il1 + tac_dl1");
            }
        }
    }

    #[test]
    fn multipath_cells_gain_combine_nodes_with_fit_deps() {
        let registry = Registry::malardalen();
        let spec = SweepSpec::new("mp")
            .benchmarks(["bs"])
            .inputs(InputSelection::All)
            .seeds([7]);
        let graph = expand(&spec, &registry).unwrap();
        let n_inputs = registry.get("bs").unwrap().input_vectors.len();
        assert!(n_inputs >= 2, "bs is multipath");
        // original stages (3) + shared pub (1) + 6 stages per input +
        // combine (1).
        assert_eq!(graph.len(), 3 + 1 + 6 * n_inputs + 1);
        let combine = graph.len() - 1;
        assert_eq!(graph.jobs[combine].kind, JobKind::MultipathCombine);
        assert_eq!(graph.deps[combine].len(), n_inputs);
        for &dep in &graph.deps[combine] {
            assert_eq!(
                graph.jobs[dep].kind.stage(),
                Some(StageKind::Fit),
                "combine depends on per-input fit nodes"
            );
        }
    }

    #[test]
    fn duplicate_dimensions_are_deduplicated() {
        let registry = Registry::malardalen();
        let spec = SweepSpec::new("dup")
            .benchmarks(["bs", "bs"])
            .geometries([GeometrySpec::paper_l1(), GeometrySpec::paper_l1()])
            .seeds([1, 1])
            .analyses([AnalysisKind::PubTac]);
        let graph = expand(&spec, &registry).unwrap();
        assert_eq!(
            graph.len(),
            7,
            "identical cells must collapse to one stage pipeline"
        );
    }

    #[test]
    fn default_selection_analyzes_the_default_input() {
        let registry = Registry::malardalen();
        let spec = SweepSpec::new("d")
            .benchmarks(["bs"])
            .seeds([1])
            .analyses([AnalysisKind::PubTac]);
        let graph = expand(&spec, &registry).unwrap();
        let trace = graph
            .jobs
            .iter()
            .find(|j| j.kind.stage() == Some(StageKind::Trace))
            .expect("trace node");
        assert_eq!(
            trace.kind.input(),
            Some("default"),
            "Default selection must use the same input as Original jobs"
        );
    }

    #[test]
    fn stage_digests_are_recorded_for_stage_nodes_only() {
        let registry = Registry::malardalen();
        let spec = SweepSpec::new("mp")
            .benchmarks(["bs"])
            .inputs(InputSelection::All)
            .seeds([7]);
        let graph = expand(&spec, &registry).unwrap();
        for (i, job) in graph.jobs.iter().enumerate() {
            match job.kind {
                JobKind::MultipathCombine => assert!(graph.digests[i].is_none()),
                JobKind::Stage { .. } => assert!(graph.digests[i].is_some()),
            }
        }
    }

    #[test]
    fn render_rows_survives_commas_in_names() {
        let row = Table2Row {
            benchmark: "ecu,task".into(),
            input: "v\"1".into(),
            geometry: "4096B-2w-32B".into(),
            seed: 1,
            r_orig: None,
            r_pub: Some(300),
            r_tac: Some(400),
            r_pub_tac: Some(400),
            pwcet_orig: None,
            pwcet_pub: None,
            pwcet_pub_tac: Some(9000.0),
            pwcet_multipath: None,
        };
        let text = render_rows(std::slice::from_ref(&row));
        assert!(
            text.contains("ecu,task"),
            "terminal table shows the raw name"
        );
        assert!(row.csv_line().starts_with("\"ecu,task\","), "CSV quotes it");
    }

    #[test]
    fn manifest_carries_a_cache_class_block() {
        let registry = Registry::malardalen();
        let mut spec = SweepSpec::new("cache-class-manifest")
            .benchmarks(["bs"])
            .seeds([1])
            .analyses([AnalysisKind::PubTac]);
        spec.max_campaign_runs = Some(600);
        let dir = std::env::temp_dir().join(format!("mbcr-ccmanifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).expect("open store");
        run_sweep(&spec, &registry, &store, &RunOptions::default()).expect("sweep");
        let manifest = store.load_manifest().expect("manifest");
        let block = manifest
            .get("cache_class")
            .expect("manifest has a cache_class block");
        let rollup = block
            .get("bs")
            .and_then(|b| b.get(&GeometrySpec::paper_l1().label()))
            .expect("bs × paper geometry entry");
        let sites = rollup
            .get("il1")
            .and_then(|s| s.get("sites"))
            .and_then(Json::as_u64)
            .expect("il1 site count");
        assert!(sites > 0, "bs fetches instructions");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expansion_rejects_unknown_names() {
        let registry = Registry::malardalen();
        let unknown_bench = SweepSpec::new("x").benchmarks(["nope"]);
        assert!(matches!(
            expand(&unknown_bench, &registry),
            Err(EngineError::UnknownBenchmark(_))
        ));
        let unknown_input = SweepSpec::new("x")
            .benchmarks(["bs"])
            .inputs(InputSelection::Named(vec!["v999".into()]));
        assert!(matches!(
            expand(&unknown_input, &registry),
            Err(EngineError::UnknownInput { .. })
        ));
    }

    #[test]
    fn render_rows_aligns_columns() {
        let rows = vec![Table2Row {
            benchmark: "bs".into(),
            input: "default".into(),
            geometry: "4096B-2w-32B".into(),
            seed: 42,
            r_orig: Some(310),
            r_pub: Some(300),
            r_tac: Some(17_000),
            r_pub_tac: Some(17_000),
            pwcet_orig: Some(9170.0),
            pwcet_pub: Some(9426.0),
            pwcet_pub_tac: Some(9468.0),
            pwcet_multipath: None,
        }];
        let text = render_rows(&rows);
        assert!(text.contains("R_tac"));
        assert!(text.contains("17000"));
        assert_eq!(text.lines().count(), 3);
    }
}
