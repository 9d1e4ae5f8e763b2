//! The stage graph: the Figure 3 pipeline as first-class, resumable stages.
//!
//! The paper's pipeline is inherently staged — PUB transform, path trace,
//! per-cache TAC requirement, MBPTA convergence, measurement campaign,
//! pWCET fit — but the classic entry points ([`crate::analyze_original`],
//! [`crate::analyze_pub_tac`]) expose it as one monolithic call. This
//! module breaks it into typed stages so batch drivers can schedule,
//! cache and resume at stage granularity:
//!
//! * [`AnalysisStage`] — the stage contract: typed input/output, a stable
//!   chained digest, and a JSON-serializable intermediate artifact;
//! * concrete stages [`PubStage`], [`TraceStage`], [`TacStage`] (one per
//!   cache), [`ConvergeStage`], [`CampaignStage`], [`FitStage`];
//! * [`AnalysisSession`] — the driver that composes the stages of one
//!   analysis, memoizes their outputs, and — when given a [`StageStore`] —
//!   persists/loads artifacts keyed by stage digest so a warm re-run
//!   resumes mid-analysis;
//! * [`StageDigests`] — the per-stage content digests, computable without
//!   executing anything, so schedulers can key jobs up front.
//!
//! # Digests and resume semantics
//!
//! Every stage digest chains over the *upstream* digest plus exactly the
//! knobs that stage consumes. Changing [`AnalysisConfig::max_campaign_runs`]
//! therefore invalidates only the campaign and fit stages — PUB, trace,
//! TAC and convergence artifacts stay valid and a warm re-run reuses them,
//! re-executing only the campaign tail and the fit. Changing the master
//! seed invalidates TAC/convergence/campaign (their seed streams change)
//! but not the PUB transform or the trace, which are seed-free.
//!
//! Artifacts fall in three classes:
//!
//! * **expensive, rehydratable** (trace, TAC, convergence): the full
//!   output round-trips through JSON, so a resumed session never
//!   recomputes them;
//! * **stream-backed** (campaign): the sample lives in the store's
//!   append-only chunk log ([`StageStore::append_samples`]), written one
//!   [`AnalysisConfig::checkpoint_interval`] at a time; the JSON artifact
//!   is only a completion marker (`runs` + `checksum`) validated against
//!   the log on load;
//! * **cheap, recomputed** (PUB, fit): the artifact records the result for
//!   reporting and cross-process sharing, but a resumed session re-derives
//!   the in-memory value (a deterministic transform or a fit over a cached
//!   sample) because the full output does not round-trip economically.
//!
//! The campaign stage is restart-safe at two granularities. Runs are
//! seeded by absolute index ([`mbcr_cpu::CompiledCampaign`]), so it
//! prepends the cached convergence sample and simulates only the tail;
//! and because it checkpoints completed chunks to the sample log as it
//! goes, a killed campaign resumes from its last checkpoint — losing at
//! most one interval of simulation — with a final sample bit-identical to
//! a one-shot campaign.
//!
//! # Examples
//!
//! ```
//! use mbcr::stage::{AnalysisSession, MemoryStageStore, StageKind, StageStatus};
//! use mbcr::AnalysisConfig;
//! use mbcr_ir::{Expr, Inputs, ProgramBuilder, Stmt};
//!
//! let mut b = ProgramBuilder::new("toy");
//! let a = b.array("a", 64);
//! let (x, i) = (b.var("x"), b.var("i"));
//! b.push(Stmt::for_(i, Expr::c(0), Expr::c(8), 8, vec![
//!     Stmt::Assign(x, Expr::var(x).add(Expr::load(a, Expr::var(i)))),
//! ]));
//! let program = b.build()?;
//! let input = Inputs::new();
//! let cfg = AnalysisConfig::builder().seed(7).quick().build();
//! let store = MemoryStageStore::default();
//!
//! let cold = AnalysisSession::pub_tac(&program, &input, &cfg)
//!     .with_store(&store)
//!     .finish_pub_tac()
//!     .unwrap();
//! // A second session resumes from the store: the expensive stages load.
//! let mut warm = AnalysisSession::pub_tac(&program, &input, &cfg).with_store(&store);
//! warm.advance(StageKind::Campaign).unwrap();
//! assert_eq!(warm.status(StageKind::Campaign), Some(StageStatus::Cached));
//! let resumed = warm.finish_pub_tac().unwrap();
//! assert_eq!(resumed.sample, cold.sample);
//! # Ok::<(), mbcr_ir::ProgramError>(())
//! ```

use std::collections::HashMap;
use std::sync::Mutex;

use mbcr_cache::CacheGeometry;
use mbcr_cpu::{CompiledCampaign, Parallelism, PlatformConfig};
use mbcr_evt::{converge, ConvergenceConfig, IidReport, Pwcet};
use mbcr_ir::{
    classify, execute, group_inputs_by_path, Inputs, PathSpace, Program, Rollup, RollupSide,
};
use mbcr_json::{fnv1a, Json, Serialize, FNV_OFFSET};
use mbcr_pub::{pub_transform, ConstructReport, PubConfig, PubReport, PubResult};
use mbcr_rng::derive_seed;
use mbcr_tac::{analyze_lines, ConflictGroup, ImpactClass, TacAnalysis, TacConfig};
use mbcr_trace::{Access, AccessKind, LineId, Trace};

use crate::{AnalysisConfig, AnalyzeError, OriginalAnalysis, PubTacAnalysis};

/// Schema tag baked into stage artifacts; bump on layout changes to
/// invalidate old stage stores wholesale.
pub const STAGE_SCHEMA: &str = "mbcr-stage/2";

/// The stages of the Figure 3 pipeline, in dataflow order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// PUB transform of the original program.
    Pub,
    /// One execution of the (pubbed) program: the path's address trace.
    Trace,
    /// TAC requirement over the instruction-cache line stream.
    TacIl1,
    /// TAC requirement over the data-cache line stream.
    TacDl1,
    /// MBPTA convergence procedure (`R_pub` / `R_orig`).
    Converge,
    /// The full measurement campaign (`min(R_pub+tac, cap)` runs).
    Campaign,
    /// The pWCET fit plus i.i.d. evidence over the final sample.
    Fit,
    /// Measured-vs-static path coverage over an input set (a per-benchmark
    /// side stage — not part of either per-analysis pipeline).
    PathCoverage,
    /// Abstract-interpretation hit/miss classification of every access
    /// site against one L1 geometry pair (a per-benchmark × geometry side
    /// stage — not part of either per-analysis pipeline).
    CacheClass,
}

impl StageKind {
    /// Stable spelling used in artifacts, job labels and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Pub => "pub",
            StageKind::Trace => "trace",
            StageKind::TacIl1 => "tac_il1",
            StageKind::TacDl1 => "tac_dl1",
            StageKind::Converge => "converge",
            StageKind::Campaign => "campaign",
            StageKind::Fit => "fit",
            StageKind::PathCoverage => "path_coverage",
            StageKind::CacheClass => "cache_class",
        }
    }

    /// Inverse of [`StageKind::name`] — the wire/manifest deserialization
    /// used by distributed executors. `None` for unknown spellings.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        Some(match text {
            "pub" => StageKind::Pub,
            "trace" => StageKind::Trace,
            "tac_il1" => StageKind::TacIl1,
            "tac_dl1" => StageKind::TacDl1,
            "converge" => StageKind::Converge,
            "campaign" => StageKind::Campaign,
            "fit" => StageKind::Fit,
            "path_coverage" => StageKind::PathCoverage,
            "cache_class" => StageKind::CacheClass,
            _ => return None,
        })
    }
}

/// Which stage set an analysis runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineKind {
    /// Plain MBPTA on the original program: trace → converge → fit.
    Original,
    /// The paper's full pipeline: pub → trace → tac×2 → converge →
    /// campaign → fit.
    PubTac,
}

impl PipelineKind {
    /// The pipeline's stages, in dataflow order.
    #[must_use]
    pub fn stages(self) -> &'static [StageKind] {
        match self {
            PipelineKind::Original => &[StageKind::Trace, StageKind::Converge, StageKind::Fit],
            PipelineKind::PubTac => &[
                StageKind::Pub,
                StageKind::Trace,
                StageKind::TacIl1,
                StageKind::TacDl1,
                StageKind::Converge,
                StageKind::Campaign,
                StageKind::Fit,
            ],
        }
    }

    /// Stable spelling (matches the engine's analysis-kind names).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PipelineKind::Original => "original",
            PipelineKind::PubTac => "pub_tac",
        }
    }
}

/// How a session satisfied one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// Executed in this session.
    Computed,
    /// Satisfied from the stage store.
    Cached,
}

impl StageStatus {
    /// Stable spelling for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StageStatus::Computed => "computed",
            StageStatus::Cached => "cached",
        }
    }
}

/// Persistence for per-stage intermediate artifacts, keyed by stage
/// digest. Implementations must tolerate concurrent writers of the *same*
/// digest (content-addressing makes such writes idempotent).
///
/// Beyond whole artifacts, a store may support **streaming sample logs**
/// (the campaign stage's intra-stage checkpoints): `append_samples` /
/// `load_samples` stream a campaign's execution times as append-only,
/// contiguous chunks keyed by the campaign stage's digest. The default
/// implementations opt out (no partial state is ever kept), which also
/// means completed campaigns cannot be *cached* by such a store — the
/// campaign artifact is only a completion marker referencing the log.
pub trait StageStore: Sync {
    /// Loads the artifact stored under `digest`, if present and parsable.
    fn load_stage(&self, digest: u64) -> Option<Json>;

    /// Persists an artifact under `digest`.
    ///
    /// # Errors
    ///
    /// I/O failures of the backing medium.
    fn save_stage(&self, digest: u64, artifact: &Json) -> std::io::Result<()>;

    /// Loads the valid, contiguous prefix of the sample log stored under
    /// `digest`; `None` when there is no log (or the store does not
    /// support streaming samples — the default). A torn tail is never
    /// part of the returned prefix.
    fn load_samples(&self, digest: u64) -> Option<Vec<u64>> {
        let _ = digest;
        None
    }

    /// Appends `samples` — runs `start .. start + samples.len()` of a
    /// campaign whose resolved length is `total` — to the sample log under
    /// `digest`. Must be idempotent under replay: an append entirely
    /// covered by already-logged runs is a no-op, one partially covered
    /// keeps the durable prefix and appends only the uncovered tail
    /// (content-addressing guarantees the overlap carries identical
    /// values — this is what lets a resume under a *different*
    /// `checkpoint_interval` extend an existing log), and an append that
    /// would leave a gap is an error.
    ///
    /// # Errors
    ///
    /// I/O failures of the backing medium, or a non-contiguous append.
    fn append_samples(
        &self,
        digest: u64,
        start: usize,
        total: usize,
        samples: &[u64],
    ) -> std::io::Result<()> {
        let _ = (digest, start, total, samples);
        Ok(())
    }

    /// Discards the sample log under `digest` wholesale — the recovery
    /// path when its content diverges from what the digest demands
    /// (corruption that slipped past the integrity checks): the rewriting
    /// campaign recreates it from scratch instead of extending poisoned
    /// data.
    ///
    /// # Errors
    ///
    /// I/O failures of the backing medium.
    fn reset_samples(&self, digest: u64) -> std::io::Result<()> {
        let _ = digest;
        Ok(())
    }
}

/// An in-memory [`StageStore`] for tests and single-process resume.
#[derive(Debug, Default)]
pub struct MemoryStageStore {
    map: Mutex<HashMap<u64, Json>>,
    samples: Mutex<HashMap<u64, Vec<u64>>>,
}

impl MemoryStageStore {
    /// Number of stored artifacts.
    ///
    /// # Panics
    ///
    /// Panics if the inner lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().expect("store poisoned").len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether an artifact exists for `digest`.
    ///
    /// # Panics
    ///
    /// Panics if the inner lock is poisoned.
    #[must_use]
    pub fn contains(&self, digest: u64) -> bool {
        self.map
            .lock()
            .expect("store poisoned")
            .contains_key(&digest)
    }
}

impl StageStore for MemoryStageStore {
    fn load_stage(&self, digest: u64) -> Option<Json> {
        self.map
            .lock()
            .expect("store poisoned")
            .get(&digest)
            .cloned()
    }

    fn save_stage(&self, digest: u64, artifact: &Json) -> std::io::Result<()> {
        self.map
            .lock()
            .expect("store poisoned")
            .insert(digest, artifact.clone());
        Ok(())
    }

    fn load_samples(&self, digest: u64) -> Option<Vec<u64>> {
        self.samples
            .lock()
            .expect("store poisoned")
            .get(&digest)
            .cloned()
    }

    fn append_samples(
        &self,
        digest: u64,
        start: usize,
        _total: usize,
        samples: &[u64],
    ) -> std::io::Result<()> {
        let mut map = self.samples.lock().expect("store poisoned");
        let log = map.entry(digest).or_default();
        let have = log.len();
        if have >= start + samples.len() {
            return Ok(()); // replayed append, already durable
        }
        if have < start {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("sample-log gap: have {have} runs, append starts at {start}"),
            ));
        }
        log.extend_from_slice(&samples[have - start..]);
        Ok(())
    }

    fn reset_samples(&self, digest: u64) -> std::io::Result<()> {
        self.samples.lock().expect("store poisoned").remove(&digest);
        Ok(())
    }
}

/// One stage of the pipeline: typed input/output, a stable digest chained
/// over the upstream digest, and a JSON artifact for the output.
///
/// `decode` is best-effort: stages whose output does not round-trip
/// economically (the PUB transform carries a whole program; the fit
/// carries a full pWCET curve that a cheap refit over the cached campaign
/// sample reproduces exactly) return `None`, and the session recomputes.
pub trait AnalysisStage<'i> {
    /// What the stage consumes (borrowed from the session).
    type Input: 'i;
    /// What the stage produces.
    type Output;

    /// Which stage this is.
    fn kind(&self) -> StageKind;

    /// Chains the stage's result-affecting knobs onto `upstream`.
    fn digest(&self, upstream: u64) -> u64;

    /// Executes the stage.
    ///
    /// # Errors
    ///
    /// See [`AnalyzeError`].
    fn run(&self, input: Self::Input) -> Result<Self::Output, AnalyzeError>;

    /// The output's JSON artifact (the `data` member of the stored doc).
    fn encode(&self, output: &Self::Output) -> Json;

    /// Rehydrates an output from its artifact; `None` if the artifact is
    /// malformed or the stage does not round-trip.
    fn decode(&self, artifact: &Json) -> Option<Self::Output>;
}

/// The PUB transform stage. Output: the inflation report (the pubbed
/// program itself is re-derived on demand — the transform is cheap and
/// deterministic).
#[derive(Debug, Clone, Copy)]
pub struct PubStage<'c> {
    /// PUB options.
    pub pub_cfg: &'c PubConfig,
}

impl<'i, 'c> AnalysisStage<'i> for PubStage<'c> {
    type Input = &'i Program;
    type Output = PubReport;

    fn kind(&self) -> StageKind {
        StageKind::Pub
    }

    fn digest(&self, upstream: u64) -> u64 {
        fnv1a(upstream, &format!("|pub|{:?}", self.pub_cfg))
    }

    fn run(&self, input: Self::Input) -> Result<Self::Output, AnalyzeError> {
        Ok(pub_transform(input, self.pub_cfg)?.report)
    }

    fn encode(&self, output: &Self::Output) -> Json {
        output.to_json()
    }

    fn decode(&self, artifact: &Json) -> Option<Self::Output> {
        pub_report_from_json(artifact)
    }
}

/// The path-trace stage: one execution of the (pubbed) program under the
/// session's input vector.
#[derive(Debug, Clone, Copy)]
pub struct TraceStage {
    /// Whether the traced program is the original or the pubbed one (part
    /// of the digest: the two traces are different artifacts).
    pub pipeline: PipelineKind,
}

/// Input of [`TraceStage`]: the program to execute and its input vector.
#[derive(Debug, Clone, Copy)]
pub struct TraceInput<'i> {
    /// The (pubbed) program.
    pub program: &'i Program,
    /// The input vector selecting the path.
    pub inputs: &'i Inputs,
}

impl<'i> AnalysisStage<'i> for TraceStage {
    type Input = TraceInput<'i>;
    type Output = Trace;

    fn kind(&self) -> StageKind {
        StageKind::Trace
    }

    fn digest(&self, upstream: u64) -> u64 {
        fnv1a(upstream, &format!("|trace|{}", self.pipeline.name()))
    }

    fn run(&self, input: Self::Input) -> Result<Self::Output, AnalyzeError> {
        Ok(execute(input.program, input.inputs)?.trace)
    }

    fn encode(&self, output: &Self::Output) -> Json {
        let mut kinds = String::with_capacity(output.len());
        let mut addrs = Vec::with_capacity(output.len());
        for access in output {
            kinds.push(match access.kind {
                AccessKind::InstrFetch => 'f',
                AccessKind::Read => 'r',
                AccessKind::Write => 'w',
            });
            addrs.push(Json::UInt(access.addr.0));
        }
        Json::Obj(vec![
            ("len".to_string(), Json::UInt(output.len() as u64)),
            ("kinds".to_string(), Json::Str(kinds)),
            ("addrs".to_string(), Json::Arr(addrs)),
        ])
    }

    fn decode(&self, artifact: &Json) -> Option<Self::Output> {
        let len = artifact.get("len")?.as_usize()?;
        let kinds = artifact.get("kinds")?.as_str()?;
        let addrs = artifact.get("addrs")?.as_array()?;
        if kinds.len() != len || addrs.len() != len {
            return None;
        }
        let mut trace = Trace::with_capacity(len);
        for (kind, addr) in kinds.chars().zip(addrs) {
            let addr = addr.as_u64()?;
            trace.push(match kind {
                'f' => Access::fetch(addr),
                'r' => Access::read(addr),
                'w' => Access::write(addr),
                _ => return None,
            });
        }
        Some(trace)
    }
}

/// A per-cache TAC stage over a line stream.
#[derive(Debug, Clone)]
pub struct TacStage {
    /// Which cache's stream this analyses ([`StageKind::TacIl1`] or
    /// [`StageKind::TacDl1`]).
    pub stage: StageKind,
    /// The fully-instantiated TAC configuration (geometry + seed).
    pub cfg: TacConfig,
    /// Line size used to project the trace onto this cache's lines.
    pub line_size: u64,
}

impl<'i> AnalysisStage<'i> for TacStage {
    type Input = &'i [LineId];
    type Output = TacAnalysis;

    fn kind(&self) -> StageKind {
        self.stage
    }

    fn digest(&self, upstream: u64) -> u64 {
        fnv1a(
            upstream,
            &format!("|{}|{}|{:?}", self.stage.name(), self.line_size, self.cfg),
        )
    }

    fn run(&self, input: Self::Input) -> Result<Self::Output, AnalyzeError> {
        Ok(analyze_lines(input, &self.cfg))
    }

    fn encode(&self, output: &Self::Output) -> Json {
        output.to_json()
    }

    fn decode(&self, artifact: &Json) -> Option<Self::Output> {
        tac_from_json(artifact)
    }
}

/// Output of [`ConvergeStage`]: the convergence verdict plus the collected
/// sample (the campaign stage resumes from this prefix).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergeOutput {
    /// Runs collected when the procedure stopped (`R_pub` / `R_orig`).
    pub runs: usize,
    /// Whether convergence was reached within the configured cap.
    pub converged: bool,
    /// `(runs, pWCET@p_check)` after each step.
    pub history: Vec<(usize, f64)>,
    /// The execution times collected, in run-index order.
    pub sample: Vec<u64>,
}

/// The MBPTA convergence stage. Every step extends one compiled campaign
/// ([`CompiledCampaign`]), so the trace resolves and the kernel is set up
/// once per stage, not once per step.
#[derive(Debug, Clone, Copy)]
pub struct ConvergeStage<'c> {
    /// The simulated platform.
    pub platform: &'c PlatformConfig,
    /// Convergence procedure settings.
    pub convergence: &'c ConvergenceConfig,
    /// Master seed of the campaign's run-seed stream.
    pub campaign_seed: u64,
    /// Passed on as `mbcr_cpu::Parallelism::batch_width`, which changes
    /// neither results nor the kernel (so not part of the digest).
    pub batch_width: usize,
}

impl<'i, 'c> AnalysisStage<'i> for ConvergeStage<'c> {
    type Input = &'i Trace;
    type Output = ConvergeOutput;

    fn kind(&self) -> StageKind {
        StageKind::Converge
    }

    fn digest(&self, upstream: u64) -> u64 {
        fnv1a(
            upstream,
            &format!(
                "|converge|{:?}|{:?}|{}",
                self.platform, self.convergence, self.campaign_seed
            ),
        )
    }

    fn run(&self, input: Self::Input) -> Result<Self::Output, AnalyzeError> {
        let par = Parallelism::serial().batch_width(self.batch_width);
        let mut campaign = CompiledCampaign::new(self.platform, input, self.campaign_seed, &par);
        let mut collected: Vec<u64> = Vec::new();
        let outcome = converge(
            |count| {
                let out = campaign.slice(collected.len(), count);
                collected.extend_from_slice(&out);
                out
            },
            self.convergence,
        )?;
        Ok(ConvergeOutput {
            runs: outcome.runs,
            converged: outcome.converged,
            history: outcome.history,
            sample: collected,
        })
    }

    fn encode(&self, output: &Self::Output) -> Json {
        Json::Obj(vec![
            ("runs".to_string(), Json::UInt(output.runs as u64)),
            ("converged".to_string(), Json::Bool(output.converged)),
            (
                "history".to_string(),
                Json::Arr(
                    output
                        .history
                        .iter()
                        .map(|&(r, q)| Json::Arr(vec![Json::UInt(r as u64), Json::Num(q)]))
                        .collect(),
                ),
            ),
            (
                "sample".to_string(),
                Json::Arr(output.sample.iter().map(|&v| Json::UInt(v)).collect()),
            ),
        ])
    }

    fn decode(&self, artifact: &Json) -> Option<Self::Output> {
        let runs = artifact.get("runs")?.as_usize()?;
        let converged = artifact.get("converged")?.as_bool()?;
        let history = artifact
            .get("history")?
            .as_array()?
            .iter()
            .map(|pair| {
                let pair = pair.as_array()?;
                Some((pair.first()?.as_usize()?, pair.get(1)?.as_f64()?))
            })
            .collect::<Option<Vec<_>>>()?;
        let sample = artifact
            .get("sample")?
            .as_array()?
            .iter()
            .map(Json::as_u64)
            .collect::<Option<Vec<_>>>()?;
        if sample.len() != runs {
            return None;
        }
        Some(ConvergeOutput {
            runs,
            converged,
            history,
            sample,
        })
    }
}

/// Input of [`CampaignStage`]: the trace to replay, the convergence-stage
/// prefix to reuse, and the resolved campaign length.
#[derive(Debug, Clone, Copy)]
pub struct CampaignInput<'i> {
    /// The trace every run replays.
    pub trace: &'i Trace,
    /// The convergence stage's sample — runs `0..prefix.len()` of the same
    /// seed stream, reused instead of re-simulated.
    pub prefix: &'i [u64],
    /// Total campaign length (see [`campaign_runs_for`]).
    pub runs: usize,
}

/// Intra-stage checkpointing of a running campaign: where to stream
/// completed sample chunks so an interrupted campaign resumes from its
/// last checkpoint instead of the convergence boundary.
///
/// Purely a durability policy — the sample is bit-identical with or
/// without it, at any interval — so none of these fields enter the stage
/// digest.
#[derive(Clone, Copy)]
pub struct CampaignCheckpoint<'c> {
    /// The store receiving sample chunks (and consulted for a resumable
    /// prefix before simulating anything).
    pub store: &'c dyn StageStore,
    /// The campaign stage's content digest — the log's address.
    pub digest: u64,
    /// Checkpoint every this many runs; `0` checkpoints only when the
    /// campaign completes.
    pub interval: usize,
    /// Whether to *read* the log for a resumable prefix. Forced stages
    /// set this `false` — force means re-simulate, not rehydrate — while
    /// still streaming their checkpoints, so the log ends complete and
    /// the completion marker they save stays honorable by later runs.
    pub resume: bool,
}

impl std::fmt::Debug for CampaignCheckpoint<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignCheckpoint")
            .field("digest", &format_args!("{:016x}", self.digest))
            .field("interval", &self.interval)
            .finish_non_exhaustive()
    }
}

/// Output of [`CampaignStage`]: the full sample plus how much of it was
/// restored from the checkpoint log rather than simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOutput {
    /// The campaign's execution times, in run-index order.
    pub sample: Vec<u64>,
    /// Leading runs restored from the checkpoint sample log (`0` when the
    /// campaign started from the convergence boundary).
    pub resumed_runs: usize,
}

/// The measurement-campaign stage. Restart-safe at two granularities:
/// runs are seeded by absolute index, so the stage resumes from the
/// convergence boundary (the cached converge sample is the prefix) and —
/// when a [`CampaignCheckpoint`] is attached — from the last checkpointed
/// chunk of a previously interrupted campaign. Either way the final
/// sample is bit-identical to a one-shot campaign.
///
/// The stage's JSON artifact is a completion marker (`runs` + `checksum`)
/// — the sample itself lives in the store's chunk log, appended one
/// interval at a time and never rewritten whole.
#[derive(Debug, Clone, Copy)]
pub struct CampaignStage<'c> {
    /// The simulated platform.
    pub platform: &'c PlatformConfig,
    /// Master seed of the campaign's run-seed stream.
    pub campaign_seed: u64,
    /// The configured campaign cap (part of the digest; the resolved run
    /// count is derived data).
    pub max_campaign_runs: usize,
    /// Intra-campaign parallelism (never affects results).
    pub parallelism: Parallelism,
    /// Intra-stage checkpointing (never affects results); `None` keeps the
    /// whole campaign in memory until the stage completes.
    pub checkpoint: Option<CampaignCheckpoint<'c>>,
}

/// Streams grid-aligned sample chunks into a checkpoint log as simulation
/// produces them. Chunk frames cover `[k·interval, (k+1)·interval)` in
/// absolute run-index space (the final frame ends at the campaign length),
/// so the log's layout is identical whether the campaign ran once or was
/// interrupted and resumed at any point.
struct CheckpointWriter<'c> {
    checkpoint: Option<CampaignCheckpoint<'c>>,
    /// Resolved campaign length.
    runs: usize,
    /// Absolute index of the first run in `pending`.
    start: usize,
    /// Runs not yet durable in the log.
    pending: Vec<u64>,
    /// First append failure (appends stop; simulation continues).
    error: Option<std::io::Error>,
}

impl<'c> CheckpointWriter<'c> {
    fn new(
        checkpoint: Option<CampaignCheckpoint<'c>>,
        runs: usize,
        start: usize,
        backlog: &[u64],
    ) -> Self {
        let mut w = Self {
            checkpoint,
            runs,
            start,
            // Without a checkpoint the writer is inert — don't copy (and
            // hold) the whole convergence prefix for nothing.
            pending: if checkpoint.is_some() {
                backlog.to_vec()
            } else {
                Vec::new()
            },
            error: None,
        };
        w.flush();
        w
    }

    fn push(&mut self, chunk: &[u64]) {
        if self.checkpoint.is_some() && self.error.is_none() {
            self.pending.extend_from_slice(chunk);
            self.flush();
        }
    }

    fn flush(&mut self) {
        let Some(cp) = self.checkpoint else { return };
        while self.error.is_none() && self.start < self.runs {
            // Framing and simulation share one grid definition — that is
            // what makes resumed logs byte-identical.
            let end = mbcr_cpu::next_chunk_boundary(self.start, cp.interval, self.runs);
            let len = end - self.start;
            if self.pending.len() < len {
                break; // incomplete grid cell; wait for more runs
            }
            match cp
                .store
                .append_samples(cp.digest, self.start, self.runs, &self.pending[..len])
            {
                Ok(()) => {
                    self.pending.drain(..len);
                    self.start = end;
                }
                Err(e) => self.error = Some(e),
            }
        }
    }
}

impl<'i, 'c> AnalysisStage<'i> for CampaignStage<'c> {
    type Input = CampaignInput<'i>;
    type Output = CampaignOutput;

    fn kind(&self) -> StageKind {
        StageKind::Campaign
    }

    fn digest(&self, upstream: u64) -> u64 {
        fnv1a(
            upstream,
            &format!(
                "|campaign|{}|{}|{:?}",
                self.max_campaign_runs, self.campaign_seed, self.platform
            ),
        )
    }

    fn run(&self, input: Self::Input) -> Result<Self::Output, AnalyzeError> {
        let runs = input.runs;
        let take = input.prefix.len().min(runs);
        let mut sample: Vec<u64> = Vec::with_capacity(runs);
        let mut resumed_runs = 0;
        // Durable-prefix resume: the checkpoint log wins when it reaches
        // beyond the convergence boundary (its content is digest-addressed
        // — the same deterministic seed stream — but cross-check the
        // overlap against the converge sample anyway and fall back to
        // re-simulation on any mismatch).
        let mut durable = 0;
        if let Some(cp) = self.checkpoint.filter(|cp| !cp.resume) {
            // A forced run never reads the log — but it must not append
            // *over* one either (appends covered by existing content are
            // no-ops, so a divergent log would survive under the fresh
            // marker). Discard it and rewrite from scratch: --force is
            // the repair tool of last resort.
            cp.store
                .reset_samples(cp.digest)
                .map_err(|e| AnalyzeError::Store(format!("campaign checkpoint reset: {e}")))?;
        }
        if let Some(cp) = self.checkpoint.filter(|cp| cp.resume) {
            if let Some(logged) = cp.store.load_samples(cp.digest) {
                let n = logged.len().min(runs);
                let overlap = n.min(take);
                if logged[..overlap] != input.prefix[..overlap] {
                    // Divergent content under this digest (corruption
                    // that slipped past the CRC, or a foreign log).
                    // Appends would skip the already-"durable" bad
                    // prefix, so discard the log wholesale and let the
                    // re-simulation rewrite it from scratch.
                    cp.store.reset_samples(cp.digest).map_err(|e| {
                        AnalyzeError::Store(format!("campaign checkpoint reset: {e}"))
                    })?;
                } else if n > take {
                    sample.extend_from_slice(&logged[..n]);
                    resumed_runs = n;
                    durable = n;
                }
            }
        }
        if sample.is_empty() {
            sample.extend_from_slice(&input.prefix[..take]);
        }
        let mut writer = CheckpointWriter::new(self.checkpoint, runs, durable, &sample[durable..]);
        if writer.error.is_none() && sample.len() < runs {
            let interval = self.checkpoint.map_or(0, |c| c.interval);
            let tail = CompiledCampaign::new(
                self.platform,
                input.trace,
                self.campaign_seed,
                &self.parallelism,
            )
            .slice_chunked(
                sample.len(),
                runs - sample.len(),
                interval,
                // An append failure aborts the simulation right away — a
                // paper-scale campaign must not burn hours producing a
                // result the error forces us to discard anyway.
                |_, chunk| {
                    writer.push(chunk);
                    writer.error.is_none()
                },
            );
            sample.extend_from_slice(&tail);
        }
        if let Some(e) = writer.error {
            return Err(AnalyzeError::Store(format!("campaign checkpoint: {e}")));
        }
        Ok(CampaignOutput {
            sample,
            resumed_runs,
        })
    }

    fn encode(&self, output: &Self::Output) -> Json {
        Json::Obj(vec![
            ("runs".to_string(), Json::UInt(output.sample.len() as u64)),
            (
                "checksum".to_string(),
                Json::UInt(sample_checksum(&output.sample)),
            ),
        ])
    }

    fn decode(&self, _artifact: &Json) -> Option<Self::Output> {
        // The artifact is a completion marker; the sample lives in the
        // store's chunk log, which the session loads and validates.
        None
    }
}

/// FNV-1a over the little-endian bytes of a sample — the integrity check
/// a campaign completion marker carries for its chunk log.
#[must_use]
pub fn sample_checksum(sample: &[u64]) -> u64 {
    sample.iter().fold(FNV_OFFSET, |h, &v| {
        mbcr_json::fnv1a_bytes(h, &v.to_le_bytes())
    })
}

/// Rehydrates a completed campaign from its completion-marker payload
/// (the `data` member of the stage artifact) plus the store's chunk log:
/// the log must cover the marker's run count and match its checksum — a
/// torn, short or divergent log is never a cache hit, and the caller then
/// re-runs the stage, which itself resumes from whatever valid log prefix
/// exists.
///
/// This is the *only* definition of what a campaign cache hit is: both
/// [`AnalysisSession`] and the engine scheduler call it, so the two can
/// never disagree.
#[must_use]
pub fn campaign_marker_sample(
    data: &Json,
    store: &dyn StageStore,
    digest: u64,
) -> Option<Vec<u64>> {
    let runs = data.get("runs")?.as_usize()?;
    let checksum = data.get("checksum")?.as_u64()?;
    let mut logged = store.load_samples(digest)?;
    if logged.len() < runs {
        return None;
    }
    logged.truncate(runs);
    (sample_checksum(&logged) == checksum).then_some(logged)
}

/// Cross-stage numbers the fit stage carries into the final report (and
/// into its artifact, so a scheduler can synthesize a result summary from
/// the fit artifact alone).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitMeta {
    /// Convergence-stage run count (`R_pub` / `R_orig`).
    pub converge_runs: usize,
    /// Whether convergence was reached.
    pub converged: bool,
    /// Length of the replayed trace.
    pub trace_len: usize,
    /// `R_tac = max(IL1, DL1)` (pub_tac pipeline only).
    pub r_tac: Option<u64>,
    /// `R_pub+tac = max(R_pub, R_tac)` (pub_tac pipeline only).
    pub r_pub_tac: Option<u64>,
    /// Executed campaign length (pub_tac pipeline only).
    pub campaign_runs: Option<usize>,
    /// Whether the campaign was truncated by the cap.
    pub campaign_capped: Option<bool>,
    /// pWCET at the reporting exceedance from the `R_pub`-run sample.
    pub pwcet_pub: Option<f64>,
}

/// Input of [`FitStage`]: the final sample plus the cross-stage numbers.
#[derive(Debug, Clone, Copy)]
pub struct FitInput<'i> {
    /// The sample to fit (campaign sample, or the convergence sample for
    /// the original pipeline).
    pub sample: &'i [u64],
    /// Cross-stage numbers forwarded into the output.
    pub meta: FitMeta,
}

/// Output of [`FitStage`].
#[derive(Debug, Clone)]
pub struct FitOutput {
    /// The fitted pWCET curve.
    pub pwcet: Pwcet,
    /// i.i.d. evidence over the sample.
    pub iid: IidReport,
    /// pWCET at the configured reporting exceedance.
    pub pwcet_at_exceedance: f64,
    /// Cross-stage numbers, forwarded.
    pub meta: FitMeta,
}

/// The pWCET-fit stage.
#[derive(Debug, Clone, Copy)]
pub struct FitStage<'c> {
    /// Convergence settings (fit method, tail, dither).
    pub convergence: &'c ConvergenceConfig,
    /// Reporting exceedance probability.
    pub exceedance: f64,
}

impl<'i, 'c> AnalysisStage<'i> for FitStage<'c> {
    type Input = FitInput<'i>;
    type Output = FitOutput;

    fn kind(&self) -> StageKind {
        StageKind::Fit
    }

    fn digest(&self, upstream: u64) -> u64 {
        fnv1a(
            upstream,
            &format!(
                "|fit|{:?}|{:?}|{:?}|{}",
                self.convergence.method,
                self.convergence.tail,
                self.convergence.dither,
                self.exceedance
            ),
        )
    }

    fn run(&self, input: Self::Input) -> Result<Self::Output, AnalyzeError> {
        let pwcet = Pwcet::fit(
            input.sample,
            self.convergence.method,
            &self.convergence.tail,
            self.convergence.dither,
        )?;
        let float_sample: Vec<f64> = input.sample.iter().map(|&v| v as f64).collect();
        let iid = IidReport::evaluate(&float_sample);
        let pwcet_at_exceedance = pwcet.quantile(self.exceedance);
        Ok(FitOutput {
            pwcet,
            iid,
            pwcet_at_exceedance,
            meta: input.meta,
        })
    }

    fn encode(&self, output: &Self::Output) -> Json {
        let meta = &output.meta;
        Json::Obj(vec![
            (
                "pwcet_at_exceedance".to_string(),
                Json::Num(output.pwcet_at_exceedance),
            ),
            (
                "converge_runs".to_string(),
                Json::UInt(meta.converge_runs as u64),
            ),
            ("converged".to_string(), Json::Bool(meta.converged)),
            ("trace_len".to_string(), Json::UInt(meta.trace_len as u64)),
            ("r_tac".to_string(), Serialize::to_json(&meta.r_tac)),
            ("r_pub_tac".to_string(), Serialize::to_json(&meta.r_pub_tac)),
            (
                "campaign_runs".to_string(),
                Serialize::to_json(&meta.campaign_runs),
            ),
            (
                "campaign_capped".to_string(),
                Serialize::to_json(&meta.campaign_capped),
            ),
            ("pwcet_pub".to_string(), Serialize::to_json(&meta.pwcet_pub)),
        ])
    }

    fn decode(&self, _artifact: &Json) -> Option<Self::Output> {
        // The full pWCET curve does not round-trip; a refit over the cached
        // campaign sample reproduces it exactly.
        None
    }
}

/// The executed campaign length: the combined PUB + TAC requirement capped
/// at `max_campaign_runs`, but never below the measurements the convergence
/// stage already collected (themselves capped).
///
/// # Examples
///
/// ```
/// use mbcr::stage::campaign_runs_for;
/// assert_eq!(campaign_runs_for(17_000, 300, 200_000), 17_000);
/// assert_eq!(campaign_runs_for(17_000, 300, 800), 800); // capped
/// assert_eq!(campaign_runs_for(250, 300, 200_000), 300); // floor: R_pub
/// ```
#[must_use]
pub fn campaign_runs_for(r_pub_tac: u64, r_pub: usize, max_campaign_runs: usize) -> usize {
    let capped_requirement = usize::try_from(r_pub_tac)
        .unwrap_or(usize::MAX)
        .min(max_campaign_runs);
    let convergence_floor = r_pub.min(max_campaign_runs);
    capped_requirement.max(convergence_floor)
}

/// The per-stage content digests of one analysis, computable without
/// executing anything. Each digest chains over its upstream digest plus
/// the knobs the stage consumes, so a knob change invalidates exactly the
/// downstream stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageDigests {
    pipeline: PipelineKind,
    pub_stage: u64,
    trace: u64,
    tac_il1: u64,
    tac_dl1: u64,
    converge: u64,
    campaign: u64,
    fit: u64,
}

impl StageDigests {
    /// Computes every stage digest for one (program, input, config)
    /// analysis.
    #[must_use]
    pub fn compute(
        program: &Program,
        input: &Inputs,
        cfg: &AnalysisConfig,
        pipeline: PipelineKind,
    ) -> Self {
        let program_d = fnv1a(FNV_OFFSET, &format!("{STAGE_SCHEMA}|program|{program:?}"));
        let input_d = fnv1a(FNV_OFFSET, &format!("{STAGE_SCHEMA}|input|{input:?}"));
        let pub_stage = PubStage {
            pub_cfg: &cfg.pub_cfg,
        }
        .digest(program_d);
        let trace_base = match pipeline {
            PipelineKind::Original => program_d,
            PipelineKind::PubTac => pub_stage,
        };
        let trace = TraceStage { pipeline }.digest(fnv1a(trace_base, &format!("|{input_d:016x}")));
        let tac_il1 = tac_stage(cfg, StageKind::TacIl1).digest(trace);
        let tac_dl1 = tac_stage(cfg, StageKind::TacDl1).digest(trace);
        let converge = ConvergeStage {
            platform: &cfg.platform,
            convergence: &cfg.convergence,
            campaign_seed: campaign_seed(cfg),
            batch_width: cfg.batch_width,
        }
        .digest(trace);
        let campaign = CampaignStage {
            platform: &cfg.platform,
            campaign_seed: campaign_seed(cfg),
            max_campaign_runs: cfg.max_campaign_runs,
            parallelism: Parallelism::serial(),
            checkpoint: None,
        }
        .digest(fnv1a(converge, &format!("|{tac_il1:016x}|{tac_dl1:016x}")));
        let fit_base = match pipeline {
            PipelineKind::Original => converge,
            PipelineKind::PubTac => campaign,
        };
        let fit = FitStage {
            convergence: &cfg.convergence,
            exceedance: cfg.exceedance,
        }
        .digest(fit_base);
        Self {
            pipeline,
            pub_stage,
            trace,
            tac_il1,
            tac_dl1,
            converge,
            campaign,
            fit,
        }
    }

    /// The digest of `stage`, or `None` when the pipeline lacks it.
    #[must_use]
    pub fn get(&self, stage: StageKind) -> Option<u64> {
        if !self.pipeline.stages().contains(&stage) {
            return None;
        }
        Some(match stage {
            StageKind::Pub => self.pub_stage,
            StageKind::Trace => self.trace,
            StageKind::TacIl1 => self.tac_il1,
            StageKind::TacDl1 => self.tac_dl1,
            StageKind::Converge => self.converge,
            StageKind::Campaign => self.campaign,
            StageKind::Fit => self.fit,
            StageKind::PathCoverage | StageKind::CacheClass => return None,
        })
    }

    /// The pipeline these digests describe.
    #[must_use]
    pub fn pipeline(&self) -> PipelineKind {
        self.pipeline
    }
}

/// Measured-vs-static path coverage of one program over an input set.
///
/// `static_paths` comes from Ball–Larus path numbering
/// ([`mbcr_ir::PathSpace`]); `observed_paths` from grouping the input
/// vectors by traversed path. `covered` certifies that every observed path
/// lies in the static path space — the static analysis is a sound superset
/// of what actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathCoverage {
    /// Static path count (`u128::MAX` when `saturated`).
    pub static_paths: u128,
    /// `true` when the exact static count exceeds 128-bit arithmetic.
    pub saturated: bool,
    /// Distinct paths observed over the input set.
    pub observed_paths: u64,
    /// Every observed path is a member of the static path space.
    pub covered: bool,
}

impl PathCoverage {
    /// `observed / static` as a float, or `None` when the static count
    /// saturates (the fraction would round to 0 and mislead).
    #[must_use]
    pub fn fraction(&self) -> Option<f64> {
        if self.saturated || self.static_paths == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        Some(self.observed_paths as f64 / self.static_paths as f64)
    }

    /// The JSON shape used in stage artifacts, sweep manifests and
    /// `/v1/metrics` (`static_paths` as a decimal string — it can exceed
    /// `u64`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "static_paths".to_string(),
                Json::Str(self.static_paths.to_string()),
            ),
            ("saturated".to_string(), Json::Bool(self.saturated)),
            (
                "observed_paths".to_string(),
                Json::UInt(self.observed_paths),
            ),
            ("covered".to_string(), Json::Bool(self.covered)),
            (
                "fraction".to_string(),
                self.fraction().map_or(Json::Null, Json::Num),
            ),
        ])
    }

    /// Inverse of [`PathCoverage::to_json`].
    #[must_use]
    pub fn from_json(v: &Json) -> Option<PathCoverage> {
        Some(PathCoverage {
            static_paths: v.get("static_paths")?.as_str()?.parse().ok()?,
            saturated: v.get("saturated")?.as_bool()?,
            observed_paths: v.get("observed_paths")?.as_u64()?,
            covered: v.get("covered")?.as_bool()?,
        })
    }
}

/// Input of [`PathCoverageStage`]: a program and the input vectors whose
/// paths are measured against the static path space.
#[derive(Debug, Clone, Copy)]
pub struct PathCoverageInput<'i> {
    /// The program (normally the *original* — coverage is a property of
    /// the source path structure).
    pub program: &'i Program,
    /// The input vectors to group by path.
    pub inputs: &'i [Inputs],
}

/// The path-coverage side stage: static Ball–Larus path count vs paths
/// observed over an input set, digest-keyed like every pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathCoverageStage;

impl<'i> AnalysisStage<'i> for PathCoverageStage {
    type Input = PathCoverageInput<'i>;
    type Output = PathCoverage;

    fn kind(&self) -> StageKind {
        StageKind::PathCoverage
    }

    fn digest(&self, upstream: u64) -> u64 {
        fnv1a(upstream, "|path_coverage|v1")
    }

    fn run(&self, input: Self::Input) -> Result<Self::Output, AnalyzeError> {
        let space = PathSpace::of(input.program);
        let groups = group_inputs_by_path(input.program, input.inputs)?;
        let covered = groups.iter().all(|(record, _)| space.contains(record));
        Ok(PathCoverage {
            static_paths: space.num_paths(),
            saturated: space.is_saturated(),
            observed_paths: groups.len() as u64,
            covered,
        })
    }

    fn encode(&self, output: &Self::Output) -> Json {
        output.to_json()
    }

    fn decode(&self, artifact: &Json) -> Option<Self::Output> {
        PathCoverage::from_json(artifact)
    }
}

/// The content digest keying a program + input set's coverage artifact.
#[must_use]
pub fn path_coverage_digest(program: &Program, inputs: &[Inputs]) -> u64 {
    let base = fnv1a(
        FNV_OFFSET,
        &format!("{STAGE_SCHEMA}|program|{program:?}|inputs|{inputs:?}"),
    );
    PathCoverageStage.digest(base)
}

/// Computes (or loads) the path coverage of `program` over `inputs`,
/// persisting the artifact under [`path_coverage_digest`] when a store is
/// given — the digest-keyed entry point sweep drivers use.
///
/// # Errors
///
/// Interpreter failures, or a store write failure.
pub fn path_coverage(
    program: &Program,
    inputs: &[Inputs],
    store: Option<&dyn StageStore>,
) -> Result<PathCoverage, AnalyzeError> {
    load_or_run(
        &PathCoverageStage,
        path_coverage_digest(program, inputs),
        PathCoverageInput { program, inputs },
        store,
    )
}

/// The JSON shape of a classification [`Rollup`] used in stage artifacts,
/// sweep manifests and `/v1/metrics` — per-cache site counts by class.
#[must_use]
pub fn rollup_to_json(rollup: &Rollup) -> Json {
    Json::Obj(vec![
        ("il1".to_string(), rollup_side_to_json(&rollup.il1)),
        ("dl1".to_string(), rollup_side_to_json(&rollup.dl1)),
    ])
}

/// Inverse of [`rollup_to_json`].
#[must_use]
pub fn rollup_from_json(v: &Json) -> Option<Rollup> {
    Some(Rollup {
        il1: rollup_side_from_json(v.get("il1")?)?,
        dl1: rollup_side_from_json(v.get("dl1")?)?,
    })
}

fn rollup_side_to_json(side: &RollupSide) -> Json {
    Json::Obj(vec![
        ("sites".to_string(), Json::UInt(side.sites as u64)),
        ("always_hit".to_string(), Json::UInt(side.always_hit as u64)),
        (
            "always_miss".to_string(),
            Json::UInt(side.always_miss as u64),
        ),
        ("first_miss".to_string(), Json::UInt(side.first_miss as u64)),
        (
            "not_classified".to_string(),
            Json::UInt(side.not_classified as u64),
        ),
    ])
}

fn rollup_side_from_json(v: &Json) -> Option<RollupSide> {
    Some(RollupSide {
        sites: v.get("sites")?.as_usize()?,
        always_hit: v.get("always_hit")?.as_usize()?,
        always_miss: v.get("always_miss")?.as_usize()?,
        first_miss: v.get("first_miss")?.as_usize()?,
        not_classified: v.get("not_classified")?.as_usize()?,
    })
}

/// Input of [`CacheClassStage`]: a program and the L1 geometry pair its
/// access sites are classified against.
#[derive(Debug, Clone, Copy)]
pub struct CacheClassInput<'i> {
    /// The program (normally the *original* — classification is a property
    /// of the source access structure, like path coverage).
    pub program: &'i Program,
    /// Instruction-cache geometry.
    pub il1: CacheGeometry,
    /// Data-cache geometry.
    pub dl1: CacheGeometry,
}

/// The cache-classification side stage: the abstract-interpretation
/// must/may/persistence rollup of one program against one geometry pair
/// ([`mbcr_ir::classify`]), digest-keyed like every pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheClassStage;

impl<'i> AnalysisStage<'i> for CacheClassStage {
    type Input = CacheClassInput<'i>;
    type Output = Rollup;

    fn kind(&self) -> StageKind {
        StageKind::CacheClass
    }

    fn digest(&self, upstream: u64) -> u64 {
        fnv1a(upstream, "|cache_class|v1")
    }

    fn run(&self, input: Self::Input) -> Result<Self::Output, AnalyzeError> {
        Ok(classify(input.program, input.il1, input.dl1).rollup)
    }

    fn encode(&self, output: &Self::Output) -> Json {
        rollup_to_json(output)
    }

    fn decode(&self, artifact: &Json) -> Option<Self::Output> {
        rollup_from_json(artifact)
    }
}

/// The content digest keying a program + geometry pair's classification
/// artifact. [`CacheGeometry`]'s `Display` spells out size, ways, line
/// size and set count, so any geometry change re-keys the artifact.
#[must_use]
pub fn cache_class_digest(program: &Program, il1: CacheGeometry, dl1: CacheGeometry) -> u64 {
    let base = fnv1a(
        FNV_OFFSET,
        &format!("{STAGE_SCHEMA}|program|{program:?}|il1|{il1}|dl1|{dl1}"),
    );
    CacheClassStage.digest(base)
}

/// Computes (or loads) the hit/miss classification rollup of `program`
/// under the `il1`/`dl1` geometries, persisting the artifact under
/// [`cache_class_digest`] when a store is given — the digest-keyed entry
/// point sweep drivers use (the metrics scrape passes no store).
///
/// # Errors
///
/// A store write failure (the analysis itself is total).
pub fn cache_class(
    program: &Program,
    il1: CacheGeometry,
    dl1: CacheGeometry,
    store: Option<&dyn StageStore>,
) -> Result<Rollup, AnalyzeError> {
    load_or_run(
        &CacheClassStage,
        cache_class_digest(program, il1, dl1),
        CacheClassInput { program, il1, dl1 },
        store,
    )
}

/// Loads `stage`'s artifact stored under `digest`, or runs the stage on
/// `input` and persists the artifact there (without a store it just runs).
fn load_or_run<'i, S: AnalysisStage<'i>>(
    stage: &S,
    digest: u64,
    input: S::Input,
    store: Option<&dyn StageStore>,
) -> Result<S::Output, AnalyzeError> {
    let Some(store) = store else {
        return stage.run(input);
    };
    let kind = stage.kind();
    if let Some(out) = store
        .load_stage(digest)
        .and_then(|doc| stage.decode(stage_artifact_data(&doc, kind, digest)?))
    {
        return Ok(out);
    }
    let out = stage.run(input)?;
    store
        .save_stage(digest, &envelope(kind, digest, stage.encode(&out)))
        .map_err(|e| AnalyzeError::Store(format!("{}: {e}", kind.name())))?;
    Ok(out)
}

/// The stored document of a stage artifact: the `data` payload in the
/// schema/stage/digest envelope that [`stage_artifact_data`] validates.
fn envelope(stage: StageKind, digest: u64, data: Json) -> Json {
    Json::Obj(vec![
        ("schema".to_string(), STAGE_SCHEMA.into()),
        ("stage".to_string(), stage.name().into()),
        ("digest".to_string(), Json::UInt(digest)),
        ("data".to_string(), data),
    ])
}

/// Extracts the payload of a stored stage artifact after validating its
/// schema, stage name and digest — a torn or foreign file is never a hit.
#[must_use]
pub fn stage_artifact_data(doc: &Json, stage: StageKind, digest: u64) -> Option<&Json> {
    if doc.get("schema")?.as_str()? != STAGE_SCHEMA {
        return None;
    }
    if doc.get("stage")?.as_str()? != stage.name() {
        return None;
    }
    if doc.get("digest")?.as_u64()? != digest {
        return None;
    }
    doc.get("data")
}

/// [`stage_artifact_data`] for an owned document: validates the envelope
/// the same way, then moves the payload out instead of copying it.
#[must_use]
pub fn into_stage_artifact_data(doc: Json, stage: StageKind, digest: u64) -> Option<Json> {
    stage_artifact_data(&doc, stage, digest)?;
    let Json::Obj(members) = doc else {
        return None;
    };
    members
        .into_iter()
        .find_map(|(key, value)| (key == "data").then_some(value))
}

fn campaign_seed(cfg: &AnalysisConfig) -> u64 {
    derive_seed(cfg.seed, 0xCA)
}

fn tac_stage(cfg: &AnalysisConfig, stage: StageKind) -> TacStage {
    let (geometry, salt) = match stage {
        StageKind::TacIl1 => (&cfg.platform.il1, 1),
        StageKind::TacDl1 => (&cfg.platform.dl1, 2),
        other => unreachable!("{} is not a TAC stage", other.name()),
    };
    TacStage {
        stage,
        cfg: cfg.tac.for_cache(geometry, derive_seed(cfg.seed, salt)),
        line_size: geometry.line_size(),
    }
}

fn pub_report_from_json(v: &Json) -> Option<PubReport> {
    let constructs = v
        .get("constructs")?
        .as_array()?
        .iter()
        .map(|c| {
            Some(ConstructReport {
                construct_id: u32::try_from(c.get("construct_id")?.as_u64()?).ok()?,
                then_inserted: c.get("then_inserted")?.as_usize()?,
                else_inserted: c.get("else_inserted")?.as_usize()?,
                inserted_instrs: c.get("inserted_instrs")?.as_u64()?,
                inserted_data_refs: c.get("inserted_data_refs")?.as_u64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(PubReport {
        constructs,
        loops_padded: v.get("loops_padded")?.as_usize()?,
        widened_touches: v.get("widened_touches")?.as_usize()?,
    })
}

fn tac_from_json(v: &Json) -> Option<TacAnalysis> {
    let relevant_groups = v
        .get("relevant_groups")?
        .as_array()?
        .iter()
        .map(|g| {
            Some(ConflictGroup {
                lines: g
                    .get("lines")?
                    .as_array()?
                    .iter()
                    .map(|l| l.as_u64().map(LineId))
                    .collect::<Option<Vec<_>>>()?,
                prob: g.get("prob")?.as_f64()?,
                extra_misses: g.get("extra_misses")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let classes = v
        .get("classes")?
        .as_array()?
        .iter()
        .map(|c| {
            Some(ImpactClass {
                impact: c.get("impact")?.as_f64()?,
                prob: c.get("prob")?.as_f64()?,
                group_count: c.get("group_count")?.as_usize()?,
                runs: c.get("runs")?.as_u64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(TacAnalysis {
        unique_lines: v.get("unique_lines")?.as_usize()?,
        groups_evaluated: v.get("groups_evaluated")?.as_usize()?,
        relevant_groups,
        classes,
        runs_required: v.get("runs_required")?.as_u64()?,
    })
}

/// Drives the stages of one analysis: memoizes outputs, loads/persists
/// stage artifacts through an optional [`StageStore`], and assembles the
/// classic result structs — bit-identical to the monolithic entry points.
pub struct AnalysisSession<'a> {
    program: &'a Program,
    input: &'a Inputs,
    cfg: &'a AnalysisConfig,
    pipeline: PipelineKind,
    store: Option<&'a dyn StageStore>,
    /// The one stage whose cached artifact is ignored
    /// ([`AnalysisSession::with_force_stage`]).
    force: Option<StageKind>,
    digests: StageDigests,
    pub_result: Option<PubResult>,
    pub_report: Option<PubReport>,
    trace: Option<Trace>,
    tac_il1: Option<TacAnalysis>,
    tac_dl1: Option<TacAnalysis>,
    converge: Option<ConvergeOutput>,
    campaign: Option<Vec<u64>>,
    campaign_resumed: Option<usize>,
    fit: Option<FitOutput>,
    statuses: Vec<(StageKind, StageStatus)>,
}

impl<'a> AnalysisSession<'a> {
    fn new(
        program: &'a Program,
        input: &'a Inputs,
        cfg: &'a AnalysisConfig,
        pipeline: PipelineKind,
    ) -> Self {
        Self {
            program,
            input,
            cfg,
            pipeline,
            store: None,
            force: None,
            digests: StageDigests::compute(program, input, cfg, pipeline),
            pub_result: None,
            pub_report: None,
            trace: None,
            tac_il1: None,
            tac_dl1: None,
            converge: None,
            campaign: None,
            campaign_resumed: None,
            fit: None,
            statuses: Vec::new(),
        }
    }

    /// A session for the paper's full PUB + TAC + MBPTA pipeline.
    #[must_use]
    pub fn pub_tac(program: &'a Program, input: &'a Inputs, cfg: &'a AnalysisConfig) -> Self {
        Self::new(program, input, cfg, PipelineKind::PubTac)
    }

    /// A session for the plain-MBPTA baseline on the original program.
    #[must_use]
    pub fn original(program: &'a Program, input: &'a Inputs, cfg: &'a AnalysisConfig) -> Self {
        Self::new(program, input, cfg, PipelineKind::Original)
    }

    /// Attaches a stage store: computed stages persist their artifacts,
    /// and stages whose artifact is already present load instead of
    /// recomputing.
    #[must_use]
    pub fn with_store(mut self, store: &'a dyn StageStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Ignores the cached artifact of `stage` only: that one stage
    /// recomputes and overwrites its artifact while upstream stages still
    /// load from the store. This is what a stage-granular scheduler wants
    /// under `--force` — its DAG already guarantees every upstream node
    /// re-executed first, so re-deriving the whole chain inside each
    /// node's session would multiply the expensive stages.
    #[must_use]
    pub fn with_force_stage(mut self, stage: StageKind) -> Self {
        self.force = Some(stage);
        self
    }

    /// Which pipeline this session runs.
    #[must_use]
    pub fn pipeline(&self) -> PipelineKind {
        self.pipeline
    }

    /// The session's stage digests.
    #[must_use]
    pub fn digests(&self) -> &StageDigests {
        &self.digests
    }

    /// The digest of `stage`, when the pipeline has it.
    #[must_use]
    pub fn digest(&self, stage: StageKind) -> Option<u64> {
        self.digests.get(stage)
    }

    /// How `stage` was satisfied, if the session has touched it.
    #[must_use]
    pub fn status(&self, stage: StageKind) -> Option<StageStatus> {
        self.statuses
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|&(_, status)| status)
    }

    /// Every stage touched so far, in completion order.
    #[must_use]
    pub fn statuses(&self) -> &[(StageKind, StageStatus)] {
        &self.statuses
    }

    /// Ensures `stage` (and its upstream stages, transitively) is
    /// available, loading from the store where possible.
    ///
    /// # Errors
    ///
    /// See [`AnalyzeError`].
    ///
    /// # Panics
    ///
    /// Panics if `stage` is not part of the session's pipeline.
    pub fn advance(&mut self, stage: StageKind) -> Result<(), AnalyzeError> {
        assert!(
            self.pipeline.stages().contains(&stage),
            "stage '{}' is not part of the '{}' pipeline",
            stage.name(),
            self.pipeline.name()
        );
        match stage {
            StageKind::Pub => self.ensure_pub(),
            StageKind::Trace => self.ensure_trace(),
            StageKind::TacIl1 | StageKind::TacDl1 => self.ensure_tac(stage),
            StageKind::Converge => self.ensure_converge(),
            StageKind::Campaign => self.ensure_campaign(),
            StageKind::Fit => self.ensure_fit(),
            // Guarded by the assert above: the side stages belong to no
            // per-analysis pipeline.
            StageKind::PathCoverage => unreachable!("path_coverage is not a session stage"),
            StageKind::CacheClass => unreachable!("cache_class is not a session stage"),
        }
    }

    /// The replayed trace's length, once the trace stage has run.
    #[must_use]
    pub fn trace_len(&self) -> Option<usize> {
        self.trace.as_ref().map(Trace::len)
    }

    /// A TAC analysis, once its stage has run.
    #[must_use]
    pub fn tac_analysis(&self, stage: StageKind) -> Option<&TacAnalysis> {
        match stage {
            StageKind::TacIl1 => self.tac_il1.as_ref(),
            StageKind::TacDl1 => self.tac_dl1.as_ref(),
            _ => None,
        }
    }

    /// The convergence output, once its stage has run.
    #[must_use]
    pub fn converge_output(&self) -> Option<&ConvergeOutput> {
        self.converge.as_ref()
    }

    /// The campaign sample, once its stage has run.
    #[must_use]
    pub fn campaign_sample(&self) -> Option<&[u64]> {
        self.campaign.as_deref()
    }

    /// How many leading campaign runs were restored from an intra-stage
    /// checkpoint log instead of simulated — `Some` only when this session
    /// *computed* the campaign stage (a fully cached campaign has no
    /// resume notion).
    #[must_use]
    pub fn campaign_resumed_runs(&self) -> Option<usize> {
        self.campaign_resumed
    }

    /// The fit output, once its stage has run.
    #[must_use]
    pub fn fit_output(&self) -> Option<&FitOutput> {
        self.fit.as_ref()
    }

    /// The PUB report, once its stage has run.
    #[must_use]
    pub fn pub_report(&self) -> Option<&PubReport> {
        self.pub_report.as_ref()
    }

    /// Runs the original-program pipeline to completion.
    ///
    /// # Errors
    ///
    /// See [`AnalyzeError`].
    ///
    /// # Panics
    ///
    /// Panics if the session was constructed for the pub_tac pipeline.
    pub fn finish_original(mut self) -> Result<OriginalAnalysis, AnalyzeError> {
        assert_eq!(
            self.pipeline,
            PipelineKind::Original,
            "finish_original needs an original-pipeline session"
        );
        self.ensure_fit()?;
        let fit = self.fit.take().expect("fit ensured");
        Ok(OriginalAnalysis {
            r_orig: fit.meta.converge_runs,
            converged: fit.meta.converged,
            pwcet_at_exceedance: fit.pwcet_at_exceedance,
            pwcet: fit.pwcet,
            iid: fit.iid,
            trace_len: fit.meta.trace_len,
        })
    }

    /// Runs the PUB + TAC pipeline to completion.
    ///
    /// # Errors
    ///
    /// See [`AnalyzeError`].
    ///
    /// # Panics
    ///
    /// Panics if the session was constructed for the original pipeline.
    pub fn finish_pub_tac(mut self) -> Result<PubTacAnalysis, AnalyzeError> {
        assert_eq!(
            self.pipeline,
            PipelineKind::PubTac,
            "finish_pub_tac needs a pub_tac-pipeline session"
        );
        self.ensure_fit()?;
        self.ensure_pub()?;
        let fit = self.fit.take().expect("fit ensured");
        let meta = fit.meta;
        Ok(PubTacAnalysis {
            pub_report: self.pub_report.take().expect("pub ensured"),
            r_pub: meta.converge_runs,
            tac_il1: self.tac_il1.take().expect("tac ensured"),
            tac_dl1: self.tac_dl1.take().expect("tac ensured"),
            r_tac: meta.r_tac.expect("pub_tac meta"),
            r_pub_tac: meta.r_pub_tac.expect("pub_tac meta"),
            campaign_runs: meta.campaign_runs.expect("pub_tac meta"),
            campaign_capped: meta.campaign_capped.expect("pub_tac meta"),
            pwcet_pub: meta.pwcet_pub.expect("pub_tac meta"),
            pwcet_pub_tac: fit.pwcet_at_exceedance,
            pwcet: fit.pwcet,
            iid: fit.iid,
            sample: self.campaign.take().expect("campaign ensured"),
            trace_len: meta.trace_len,
        })
    }

    fn record(&mut self, stage: StageKind, status: StageStatus) {
        if !self.statuses.iter().any(|(s, _)| *s == stage) {
            self.statuses.push((stage, status));
        }
    }

    fn is_forced(&self, stage: StageKind) -> bool {
        self.force == Some(stage)
    }

    fn load_artifact(&self, stage: StageKind) -> Option<Json> {
        if self.is_forced(stage) {
            return None;
        }
        let store = self.store?;
        let digest = self.digests.get(stage)?;
        into_stage_artifact_data(store.load_stage(digest)?, stage, digest)
    }

    fn save_artifact(&mut self, stage: StageKind, data: Json) -> Result<(), AnalyzeError> {
        let Some(store) = self.store else {
            return Ok(());
        };
        let Some(digest) = self.digests.get(stage) else {
            return Ok(());
        };
        store
            .save_stage(digest, &envelope(stage, digest, data))
            .map_err(|e| AnalyzeError::Store(format!("{}: {e}", stage.name())))
    }

    /// The pubbed program, deriving it on demand (cheap, deterministic —
    /// never persisted).
    fn pubbed_program(&mut self) -> Result<&Program, AnalyzeError> {
        if self.pub_result.is_none() {
            self.pub_result = Some(pub_transform(self.program, &self.cfg.pub_cfg)?);
        }
        Ok(&self.pub_result.as_ref().expect("just set").program)
    }

    fn ensure_pub(&mut self) -> Result<(), AnalyzeError> {
        if self.pub_report.is_some() {
            return Ok(());
        }
        let cfg = self.cfg;
        let stage = PubStage {
            pub_cfg: &cfg.pub_cfg,
        };
        if let Some(data) = self.load_artifact(StageKind::Pub) {
            if let Some(report) = stage.decode(&data) {
                self.pub_report = Some(report);
                self.record(StageKind::Pub, StageStatus::Cached);
                return Ok(());
            }
        }
        let report = match &self.pub_result {
            Some(r) => r.report.clone(),
            None => {
                self.pubbed_program()?;
                self.pub_result.as_ref().expect("just set").report.clone()
            }
        };
        self.save_artifact(StageKind::Pub, stage.encode(&report))?;
        self.record(StageKind::Pub, StageStatus::Computed);
        self.pub_report = Some(report);
        Ok(())
    }

    fn ensure_trace(&mut self) -> Result<(), AnalyzeError> {
        if self.trace.is_some() {
            return Ok(());
        }
        let stage = TraceStage {
            pipeline: self.pipeline,
        };
        if let Some(data) = self.load_artifact(StageKind::Trace) {
            if let Some(trace) = stage.decode(&data) {
                self.trace = Some(trace);
                self.record(StageKind::Trace, StageStatus::Cached);
                return Ok(());
            }
        }
        let input = self.input;
        let trace = match self.pipeline {
            PipelineKind::Original => stage.run(TraceInput {
                program: self.program,
                inputs: input,
            })?,
            PipelineKind::PubTac => {
                self.ensure_pub()?;
                let program = self.pubbed_program()?;
                stage.run(TraceInput {
                    program,
                    inputs: input,
                })?
            }
        };
        self.save_artifact(StageKind::Trace, stage.encode(&trace))?;
        self.record(StageKind::Trace, StageStatus::Computed);
        self.trace = Some(trace);
        Ok(())
    }

    fn ensure_tac(&mut self, stage_kind: StageKind) -> Result<(), AnalyzeError> {
        let present = match stage_kind {
            StageKind::TacIl1 => self.tac_il1.is_some(),
            StageKind::TacDl1 => self.tac_dl1.is_some(),
            other => unreachable!("{} is not a TAC stage", other.name()),
        };
        if present {
            return Ok(());
        }
        let stage = tac_stage(self.cfg, stage_kind);
        let analysis = if let Some(decoded) = self
            .load_artifact(stage_kind)
            .and_then(|data| stage.decode(&data))
        {
            self.record(stage_kind, StageStatus::Cached);
            decoded
        } else {
            self.ensure_trace()?;
            let trace = self.trace.as_ref().expect("trace ensured");
            let lines = match stage_kind {
                StageKind::TacIl1 => trace.instr_lines(stage.line_size),
                _ => trace.data_lines(stage.line_size),
            };
            let analysis = stage.run(&lines)?;
            self.save_artifact(stage_kind, stage.encode(&analysis))?;
            self.record(stage_kind, StageStatus::Computed);
            analysis
        };
        match stage_kind {
            StageKind::TacIl1 => self.tac_il1 = Some(analysis),
            _ => self.tac_dl1 = Some(analysis),
        }
        Ok(())
    }

    fn ensure_converge(&mut self) -> Result<(), AnalyzeError> {
        if self.converge.is_some() {
            return Ok(());
        }
        let cfg = self.cfg;
        let stage = ConvergeStage {
            platform: &cfg.platform,
            convergence: &cfg.convergence,
            campaign_seed: campaign_seed(cfg),
            batch_width: cfg.batch_width,
        };
        if let Some(data) = self.load_artifact(StageKind::Converge) {
            if let Some(output) = stage.decode(&data) {
                self.converge = Some(output);
                self.record(StageKind::Converge, StageStatus::Cached);
                return Ok(());
            }
        }
        self.ensure_trace()?;
        let output = stage.run(self.trace.as_ref().expect("trace ensured"))?;
        self.save_artifact(StageKind::Converge, stage.encode(&output))?;
        self.record(StageKind::Converge, StageStatus::Computed);
        self.converge = Some(output);
        Ok(())
    }

    fn ensure_campaign(&mut self) -> Result<(), AnalyzeError> {
        if self.campaign.is_some() {
            return Ok(());
        }
        let cfg = self.cfg;
        if let Some(data) = self.load_artifact(StageKind::Campaign) {
            let sample = self
                .store
                .zip(self.digests.get(StageKind::Campaign))
                .and_then(|(store, digest)| campaign_marker_sample(&data, store, digest));
            if let Some(sample) = sample {
                self.campaign = Some(sample);
                self.record(StageKind::Campaign, StageStatus::Cached);
                return Ok(());
            }
        }
        let checkpoint = match (self.store, self.digests.get(StageKind::Campaign)) {
            (Some(store), Some(digest)) => Some(CampaignCheckpoint {
                store,
                digest,
                interval: cfg.checkpoint_interval,
                // Force means re-simulate, not rehydrate — but the fresh
                // run still streams its checkpoints, so the log backs the
                // completion marker it saves.
                resume: !self.is_forced(StageKind::Campaign),
            }),
            _ => None,
        };
        let stage = CampaignStage {
            platform: &cfg.platform,
            campaign_seed: campaign_seed(cfg),
            max_campaign_runs: cfg.max_campaign_runs,
            parallelism: Parallelism::with_threads(cfg.threads).batch_width(cfg.batch_width),
            checkpoint,
        };
        self.ensure_tac(StageKind::TacIl1)?;
        self.ensure_tac(StageKind::TacDl1)?;
        self.ensure_converge()?;
        // Cached TAC/converge stages do not pull the trace in; the
        // campaign tail replays it, so ensure it explicitly.
        self.ensure_trace()?;
        let r_tac = self.r_tac().expect("tac ensured");
        let converge = self.converge.as_ref().expect("converge ensured");
        let r_pub = converge.runs;
        let runs = campaign_runs_for(r_tac.max(r_pub as u64), r_pub, cfg.max_campaign_runs);
        let trace = self.trace.as_ref().expect("trace ensured");
        let output = stage.run(CampaignInput {
            trace,
            prefix: &converge.sample,
            runs,
        })?;
        self.save_artifact(StageKind::Campaign, stage.encode(&output))?;
        self.record(StageKind::Campaign, StageStatus::Computed);
        self.campaign_resumed = Some(output.resumed_runs);
        self.campaign = Some(output.sample);
        Ok(())
    }

    /// `R_tac = max(IL1, DL1)`, once both TAC stages have run.
    #[must_use]
    pub fn r_tac(&self) -> Option<u64> {
        Some(
            self.tac_il1
                .as_ref()?
                .runs_required
                .max(self.tac_dl1.as_ref()?.runs_required),
        )
    }

    fn ensure_fit(&mut self) -> Result<(), AnalyzeError> {
        if self.fit.is_some() {
            return Ok(());
        }
        // The fit does not rehydrate from its artifact (see FitStage); a
        // present artifact still marks the stage cached for schedulers.
        let cached = self.load_artifact(StageKind::Fit).is_some();
        let cfg = self.cfg;
        let meta = match self.pipeline {
            PipelineKind::Original => {
                self.ensure_converge()?;
                self.ensure_trace()?;
                let converge = self.converge.as_ref().expect("converge ensured");
                FitMeta {
                    converge_runs: converge.runs,
                    converged: converge.converged,
                    trace_len: self.trace.as_ref().expect("trace ensured").len(),
                    r_tac: None,
                    r_pub_tac: None,
                    campaign_runs: None,
                    campaign_capped: None,
                    pwcet_pub: None,
                }
            }
            PipelineKind::PubTac => {
                self.ensure_campaign()?;
                self.ensure_tac(StageKind::TacIl1)?;
                self.ensure_tac(StageKind::TacDl1)?;
                self.ensure_converge()?;
                self.ensure_trace()?;
                let converge = self.converge.as_ref().expect("converge ensured");
                let r_pub = converge.runs;
                let r_tac = self.r_tac().expect("tac ensured");
                let r_pub_tac = r_tac.max(r_pub as u64);
                let campaign_runs = self.campaign.as_ref().expect("campaign ensured").len();
                // The R_pub-run estimate (the paper's "PUB" column): refit
                // over the convergence sample — identical to the final fit
                // the convergence procedure performed.
                let pub_fit = Pwcet::fit(
                    &converge.sample,
                    cfg.convergence.method,
                    &cfg.convergence.tail,
                    cfg.convergence.dither,
                )?;
                FitMeta {
                    converge_runs: r_pub,
                    converged: converge.converged,
                    trace_len: self.trace.as_ref().expect("trace ensured").len(),
                    r_tac: Some(r_tac),
                    r_pub_tac: Some(r_pub_tac),
                    campaign_runs: Some(campaign_runs),
                    campaign_capped: Some((campaign_runs as u64) < r_pub_tac),
                    pwcet_pub: Some(pub_fit.quantile(cfg.exceedance)),
                }
            }
        };
        let stage = FitStage {
            convergence: &cfg.convergence,
            exceedance: cfg.exceedance,
        };
        let sample = match self.pipeline {
            PipelineKind::Original => &self.converge.as_ref().expect("converge ensured").sample,
            PipelineKind::PubTac => self.campaign.as_ref().expect("campaign ensured"),
        };
        let output = stage.run(FitInput { sample, meta })?;
        if cached {
            self.record(StageKind::Fit, StageStatus::Cached);
        } else {
            let encoded = stage.encode(&output);
            self.save_artifact(StageKind::Fit, encoded)?;
            self.record(StageKind::Fit, StageStatus::Computed);
        }
        self.fit = Some(output);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbcr_ir::{Expr, ProgramBuilder, Stmt};

    fn demo_program() -> (Program, mbcr_ir::Var) {
        let mut b = ProgramBuilder::new("stage-demo");
        let big = b.array("big", 256);
        let x = b.var("x");
        let acc = b.var("acc");
        let i = b.var("i");
        b.push(Stmt::for_(
            i,
            Expr::c(0),
            Expr::c(32),
            32,
            vec![Stmt::Assign(
                acc,
                Expr::var(acc).add(Expr::load(big, Expr::var(i).mul(Expr::c(8)))),
            )],
        ));
        b.push(Stmt::if_(
            Expr::var(x).gt(Expr::c(0)),
            vec![Stmt::Assign(
                acc,
                Expr::var(acc).add(Expr::load(big, Expr::c(7))),
            )],
            vec![Stmt::Assign(acc, Expr::var(acc).sub(Expr::c(1)))],
        ));
        (b.build().unwrap(), x)
    }

    fn quick_cfg(seed: u64) -> AnalysisConfig {
        AnalysisConfig::builder()
            .seed(seed)
            .quick()
            .threads(2)
            .build()
    }

    #[test]
    fn campaign_runs_for_matches_the_legacy_clamp() {
        // Uncapped: the combined requirement wins.
        assert_eq!(campaign_runs_for(17_000, 300, 200_000), 17_000);
        // Cap below the requirement but above R_pub.
        assert_eq!(campaign_runs_for(17_000, 300, 800), 800);
        // Cap below R_pub: the campaign still stops at the cap.
        assert_eq!(campaign_runs_for(17_000, 300, 200), 200);
        // Requirement below R_pub (TAC asked for less): floor at R_pub.
        assert_eq!(campaign_runs_for(250, 300, 200_000), 300);
        // A requirement beyond usize (u64::MAX on 32-bit targets; the
        // unwrap_or path) still clamps to the cap.
        assert_eq!(campaign_runs_for(u64::MAX, 300, 800), 800);
        // Degenerate zero cap.
        assert_eq!(campaign_runs_for(0, 0, 0), 0);
    }

    #[test]
    fn digests_are_stable_and_stage_sensitive() {
        let (p, _) = demo_program();
        let cfg = quick_cfg(1);
        let input = Inputs::new();
        let a = StageDigests::compute(&p, &input, &cfg, PipelineKind::PubTac);
        let b = StageDigests::compute(&p, &input, &cfg, PipelineKind::PubTac);
        assert_eq!(a, b, "digests must be deterministic");
        let all: Vec<u64> = PipelineKind::PubTac
            .stages()
            .iter()
            .map(|&s| a.get(s).unwrap())
            .collect();
        let distinct: std::collections::HashSet<u64> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len(), "stage digests must differ");
    }

    #[test]
    fn max_campaign_runs_invalidates_only_campaign_and_fit() {
        let (p, _) = demo_program();
        let input = Inputs::new();
        let base = quick_cfg(1);
        let recapped = AnalysisConfig {
            max_campaign_runs: base.max_campaign_runs + 1,
            ..base.clone()
        };
        let a = StageDigests::compute(&p, &input, &base, PipelineKind::PubTac);
        let b = StageDigests::compute(&p, &input, &recapped, PipelineKind::PubTac);
        for stage in [
            StageKind::Pub,
            StageKind::Trace,
            StageKind::TacIl1,
            StageKind::TacDl1,
            StageKind::Converge,
        ] {
            assert_eq!(a.get(stage), b.get(stage), "{} must survive", stage.name());
        }
        assert_ne!(a.get(StageKind::Campaign), b.get(StageKind::Campaign));
        assert_ne!(a.get(StageKind::Fit), b.get(StageKind::Fit));
    }

    #[test]
    fn seed_change_preserves_pub_and_trace_only() {
        let (p, _) = demo_program();
        let input = Inputs::new();
        let a = StageDigests::compute(&p, &input, &quick_cfg(1), PipelineKind::PubTac);
        let b = StageDigests::compute(&p, &input, &quick_cfg(2), PipelineKind::PubTac);
        assert_eq!(a.get(StageKind::Pub), b.get(StageKind::Pub));
        assert_eq!(a.get(StageKind::Trace), b.get(StageKind::Trace));
        for stage in [
            StageKind::TacIl1,
            StageKind::TacDl1,
            StageKind::Converge,
            StageKind::Campaign,
            StageKind::Fit,
        ] {
            assert_ne!(a.get(stage), b.get(stage), "{} must reseed", stage.name());
        }
    }

    #[test]
    fn original_pipeline_has_no_pub_or_campaign_digest() {
        let (p, _) = demo_program();
        let cfg = quick_cfg(1);
        let d = StageDigests::compute(&p, &Inputs::new(), &cfg, PipelineKind::Original);
        assert!(d.get(StageKind::Pub).is_none());
        assert!(d.get(StageKind::TacIl1).is_none());
        assert!(d.get(StageKind::Campaign).is_none());
        assert!(d.get(StageKind::Trace).is_some());
        assert!(d.get(StageKind::Fit).is_some());
    }

    #[test]
    fn trace_artifact_roundtrips() {
        let stage = TraceStage {
            pipeline: PipelineKind::PubTac,
        };
        let trace: Trace = [
            Access::fetch(0x40),
            Access::read(0x8000),
            Access::write(0x80),
        ]
        .into_iter()
        .collect();
        let decoded = stage.decode(&stage.encode(&trace)).expect("roundtrip");
        assert_eq!(decoded, trace);
        assert!(stage.decode(&Json::Obj(vec![])).is_none(), "torn artifact");
    }

    #[test]
    fn session_statuses_track_cold_and_warm_runs() {
        let (p, x) = demo_program();
        let cfg = quick_cfg(99);
        let input = Inputs::new().with_var(x, 1);
        let store = MemoryStageStore::default();

        let mut cold = AnalysisSession::pub_tac(&p, &input, &cfg).with_store(&store);
        cold.advance(StageKind::Fit).unwrap();
        for &(_, status) in cold.statuses() {
            assert_eq!(status, StageStatus::Computed);
        }
        assert_eq!(store.len(), 7, "one artifact per pub_tac stage");

        let mut warm = AnalysisSession::pub_tac(&p, &input, &cfg).with_store(&store);
        warm.advance(StageKind::Fit).unwrap();
        for stage in [
            StageKind::Trace,
            StageKind::TacIl1,
            StageKind::TacDl1,
            StageKind::Converge,
            StageKind::Campaign,
            StageKind::Fit,
        ] {
            assert_eq!(
                warm.status(stage),
                Some(StageStatus::Cached),
                "{} must load from the store",
                stage.name()
            );
        }
    }

    /// Clones a store's JSON artifacts (not its sample logs) through the
    /// public trait — the shape an interrupted process leaves behind when
    /// its log is torn or partial.
    fn clone_artifacts(from: &MemoryStageStore, digests: &StageDigests) -> MemoryStageStore {
        let to = MemoryStageStore::default();
        for &stage in PipelineKind::PubTac.stages() {
            let digest = digests.get(stage).unwrap();
            if let Some(doc) = from.load_stage(digest) {
                to.save_stage(digest, &doc).unwrap();
            }
        }
        to
    }

    #[test]
    fn campaign_stage_checkpoints_stream_to_the_log_and_resume_mid_campaign() {
        let platform = PlatformConfig::paper_default();
        let trace: Trace = (0..48).map(|i| Access::read(i * 32)).collect();
        let seed = 7;
        let runs = 500;
        let serial = Parallelism::serial();
        let prefix = mbcr_cpu::campaign_slice_with(&platform, &trace, 0, 120, seed, &serial);
        let reference = mbcr_cpu::campaign_slice_with(&platform, &trace, 0, runs, seed, &serial);
        fn stage_at<'c>(
            platform: &'c PlatformConfig,
            store: &'c dyn StageStore,
            seed: u64,
            runs: usize,
            interval: usize,
        ) -> CampaignStage<'c> {
            CampaignStage {
                platform,
                campaign_seed: seed,
                max_campaign_runs: runs,
                parallelism: Parallelism::serial(),
                checkpoint: Some(CampaignCheckpoint {
                    store,
                    digest: 0xD1,
                    interval,
                    resume: true,
                }),
            }
        }

        // Cold: the whole sample streams into the log, chunk by chunk.
        let store = MemoryStageStore::default();
        let cold = stage_at(&platform, &store, seed, runs, 64)
            .run(CampaignInput {
                trace: &trace,
                prefix: &prefix,
                runs,
            })
            .unwrap();
        assert_eq!(
            cold.sample, reference,
            "checkpointing never affects results"
        );
        assert_eq!(cold.resumed_runs, 0);
        assert_eq!(store.load_samples(0xD1).unwrap(), reference);

        // Interrupted after 5 checkpoints (320 runs, past the convergence
        // prefix): the resumed stage re-simulates only runs 320..500.
        for (partial_runs, expect_resumed) in [(320, 320), (64, 0)] {
            let partial = MemoryStageStore::default();
            partial
                .append_samples(0xD1, 0, runs, &reference[..partial_runs])
                .unwrap();
            let resumed = stage_at(&platform, &partial, seed, runs, 64)
                .run(CampaignInput {
                    trace: &trace,
                    prefix: &prefix,
                    runs,
                })
                .unwrap();
            assert_eq!(resumed.sample, reference, "resume must be bit-identical");
            assert_eq!(
                resumed.resumed_runs, expect_resumed,
                "a log shorter than the convergence prefix resumes from the \
                 prefix instead"
            );
            assert_eq!(
                partial.load_samples(0xD1).unwrap(),
                reference,
                "the log is completed by appends, never rewritten"
            );
        }
    }

    #[test]
    fn session_campaign_log_matches_the_sample_and_partial_markers_recompute() {
        let (p, x) = demo_program();
        let cfg = AnalysisConfig::builder()
            .seed(99)
            .quick()
            .threads(2)
            .checkpoint_interval(64)
            .build();
        let input = Inputs::new().with_var(x, 1);
        let store = MemoryStageStore::default();
        let cold = AnalysisSession::pub_tac(&p, &input, &cfg)
            .with_store(&store)
            .finish_pub_tac()
            .unwrap();
        let digests = StageDigests::compute(&p, &input, &cfg, PipelineKind::PubTac);
        let digest = digests.get(StageKind::Campaign).unwrap();
        let logged = store.load_samples(digest).expect("campaign log written");
        assert_eq!(logged, cold.sample, "the log is the sample");

        // A junk completion marker over a complete log: recomputed, and
        // the recomputation costs no simulation (the log covers it all).
        let partial = clone_artifacts(&store, &digests);
        partial.save_stage(digest, &Json::Null).unwrap();
        partial
            .append_samples(digest, 0, cold.sample.len(), &logged)
            .unwrap();
        let mut resumed = AnalysisSession::pub_tac(&p, &input, &cfg).with_store(&partial);
        resumed.advance(StageKind::Campaign).unwrap();
        assert_eq!(
            resumed.status(StageKind::Campaign),
            Some(StageStatus::Computed),
            "a junk marker is never a cache hit"
        );
        assert_eq!(resumed.campaign_sample(), Some(cold.sample.as_slice()));
    }

    #[test]
    fn campaign_artifact_is_a_completion_marker_not_the_sample() {
        let (p, x) = demo_program();
        let cfg = quick_cfg(42);
        let input = Inputs::new().with_var(x, 1);
        let store = MemoryStageStore::default();
        let mut session = AnalysisSession::pub_tac(&p, &input, &cfg).with_store(&store);
        session.advance(StageKind::Campaign).unwrap();
        let sample = session.campaign_sample().unwrap().to_vec();
        let digests = StageDigests::compute(&p, &input, &cfg, PipelineKind::PubTac);
        let doc = store
            .load_stage(digests.get(StageKind::Campaign).unwrap())
            .unwrap();
        let data = stage_artifact_data(
            &doc,
            StageKind::Campaign,
            digests.get(StageKind::Campaign).unwrap(),
        )
        .unwrap();
        assert_eq!(data.get("runs").unwrap().as_usize(), Some(sample.len()));
        assert_eq!(
            data.get("checksum").unwrap().as_u64(),
            Some(sample_checksum(&sample))
        );
        assert!(
            data.get("sample").is_none(),
            "the sample lives in the chunk log, not the JSON artifact"
        );
    }

    #[test]
    fn short_log_under_a_completion_marker_is_not_a_cache_hit() {
        let (p, x) = demo_program();
        let cfg = quick_cfg(5);
        let input = Inputs::new().with_var(x, 1);
        let store = MemoryStageStore::default();
        let cold = AnalysisSession::pub_tac(&p, &input, &cfg)
            .with_store(&store)
            .finish_pub_tac()
            .unwrap();
        let digests = StageDigests::compute(&p, &input, &cfg, PipelineKind::PubTac);
        let digest = digests.get(StageKind::Campaign).unwrap();

        // Keep every JSON artifact (including the campaign completion
        // marker) but hand the session a log that stops short of it.
        let torn = clone_artifacts(&store, &digests);
        torn.append_samples(
            digest,
            0,
            cold.sample.len(),
            &cold.sample[..cold.sample.len() - 1],
        )
        .unwrap();
        let mut warm = AnalysisSession::pub_tac(&p, &input, &cfg).with_store(&torn);
        warm.advance(StageKind::Campaign).unwrap();
        assert_eq!(
            warm.status(StageKind::Campaign),
            Some(StageStatus::Computed),
            "a short log must force re-execution of the tail"
        );
        assert_eq!(warm.campaign_sample(), Some(cold.sample.as_slice()));
    }

    #[test]
    fn forced_campaign_still_streams_its_checkpoints() {
        let (p, x) = demo_program();
        let cfg = quick_cfg(31);
        let input = Inputs::new().with_var(x, 1);
        let store = MemoryStageStore::default();
        let cold = AnalysisSession::pub_tac(&p, &input, &cfg)
            .with_store(&store)
            .finish_pub_tac()
            .unwrap();
        let digests = StageDigests::compute(&p, &input, &cfg, PipelineKind::PubTac);
        let digest = digests.get(StageKind::Campaign).unwrap();
        store.reset_samples(digest).unwrap();

        // Force re-executes without rehydrating — but must still stream
        // the log, or the completion marker it saves would be orphaned
        // and every later warm run a permanent cache miss.
        let mut forced = AnalysisSession::pub_tac(&p, &input, &cfg)
            .with_store(&store)
            .with_force_stage(StageKind::Campaign);
        forced.advance(StageKind::Campaign).unwrap();
        assert_eq!(forced.campaign_resumed_runs(), Some(0), "no rehydration");
        assert_eq!(
            store.load_samples(digest).unwrap(),
            cold.sample,
            "the forced run must regrow the log"
        );
        let mut warm = AnalysisSession::pub_tac(&p, &input, &cfg).with_store(&store);
        warm.advance(StageKind::Campaign).unwrap();
        assert_eq!(
            warm.status(StageKind::Campaign),
            Some(StageStatus::Cached),
            "the marker saved by a forced run must stay honorable"
        );
    }

    #[test]
    fn sample_checksum_is_order_and_value_sensitive() {
        assert_eq!(sample_checksum(&[]), sample_checksum(&[]));
        assert_eq!(sample_checksum(&[1, 2, 3]), sample_checksum(&[1, 2, 3]));
        assert_ne!(sample_checksum(&[1, 2, 3]), sample_checksum(&[3, 2, 1]));
        assert_ne!(sample_checksum(&[1, 2, 3]), sample_checksum(&[1, 2]));
        assert_ne!(sample_checksum(&[0]), sample_checksum(&[]));
    }

    #[test]
    fn corrupt_stage_artifact_is_recomputed_not_trusted() {
        let (p, x) = demo_program();
        let cfg = quick_cfg(5);
        let input = Inputs::new().with_var(x, 1);
        let store = MemoryStageStore::default();
        let digests = StageDigests::compute(&p, &input, &cfg, PipelineKind::PubTac);
        // Poison the converge slot with a torn/foreign document.
        store
            .save_stage(
                digests.get(StageKind::Converge).unwrap(),
                &mbcr_json::parse(r#"{"schema": "other/9"}"#).unwrap(),
            )
            .unwrap();
        let mut session = AnalysisSession::pub_tac(&p, &input, &cfg).with_store(&store);
        session.advance(StageKind::Converge).unwrap();
        assert_eq!(
            session.status(StageKind::Converge),
            Some(StageStatus::Computed),
            "a torn artifact must not be a cache hit"
        );
    }

    #[test]
    fn path_coverage_counts_and_roundtrips() {
        let (p, x) = demo_program();
        let inputs = vec![
            Inputs::new().with_var(x, 1),
            Inputs::new().with_var(x, -1),
            Inputs::new().with_var(x, 2),
        ];
        let cov = path_coverage(&p, &inputs, None).unwrap();
        assert!(cov.covered);
        assert_eq!(cov.observed_paths, 2);
        assert!(!cov.saturated);
        assert_eq!(
            PathCoverage::from_json(&cov.to_json()),
            Some(cov),
            "artifact must round-trip"
        );
        // A digest-keyed store caches the artifact.
        let store = MemoryStageStore::default();
        let first = path_coverage(&p, &inputs, Some(&store)).unwrap();
        assert!(store
            .load_stage(path_coverage_digest(&p, &inputs))
            .is_some());
        let second = path_coverage(&p, &inputs, Some(&store)).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn cache_class_rollup_roundtrips_and_caches() {
        let (p, _) = demo_program();
        let g = CacheGeometry::paper_l1();
        let rollup = cache_class(&p, g, g, None).unwrap();
        assert!(rollup.il1.sites > 0, "the demo program fetches code");
        assert!(rollup.dl1.sites > 0, "the demo program loads data");
        assert_eq!(
            rollup.il1.always_hit
                + rollup.il1.always_miss
                + rollup.il1.first_miss
                + rollup.il1.not_classified,
            rollup.il1.sites,
            "classes partition the il1 sites"
        );
        assert_eq!(
            rollup_from_json(&rollup_to_json(&rollup)),
            Some(rollup),
            "artifact must round-trip"
        );
        // A digest-keyed store caches the artifact; a different geometry
        // re-keys it.
        let store = MemoryStageStore::default();
        let first = cache_class(&p, g, g, Some(&store)).unwrap();
        assert!(store.load_stage(cache_class_digest(&p, g, g)).is_some());
        let second = cache_class(&p, g, g, Some(&store)).unwrap();
        assert_eq!(first, second);
        let small = CacheGeometry::new(64, 2, 32).unwrap();
        assert_ne!(
            cache_class_digest(&p, g, g),
            cache_class_digest(&p, small, small)
        );
    }
}
