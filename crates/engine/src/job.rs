//! Jobs: the unit of scheduling, keying and caching.
//!
//! A [`JobSpec`] is one analysis of one benchmark under one geometry and
//! seed. Its [`key`](JobSpec::key) is a content hash over everything that
//! affects the result — benchmark, input, kind, and the full
//! [`AnalysisConfig` digest](mbcr::AnalysisConfig::digest) — so a cached
//! artifact is reusable exactly when a re-run would reproduce it
//! bit-for-bit, and any knob change invalidates it.

use mbcr::stage::StageKind;
use mbcr_json::{fnv1a, impl_serialize_struct, Json, FNV_OFFSET};
use mbcr_rng::derive_seed;

use crate::{AnalysisKind, GeometrySpec};

/// Schema tag baked into job keys and artifacts; bump on layout changes to
/// invalidate old artifact stores wholesale.
pub const SCHEMA: &str = "mbcr-engine/4";

/// What one job computes. Since the stage-graph redesign the engine
/// schedules at *stage* granularity: one node per pipeline stage, plus the
/// cross-input Corollary 2 combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// One stage of one analysis.
    Stage {
        /// Which analysis the stage belongs to ([`AnalysisKind::Original`]
        /// or [`AnalysisKind::PubTac`]).
        analysis: AnalysisKind,
        /// The pipeline stage.
        stage: StageKind,
        /// Input-vector name (`None` for input-independent stages — the
        /// PUB transform and every original-pipeline stage, which analyses
        /// the benchmark default input).
        input: Option<String>,
    },
    /// Corollary 2 min-combination over the cell's per-input fit results.
    MultipathCombine,
}

impl JobKind {
    /// A stage node of the pub_tac pipeline for one input vector.
    #[must_use]
    pub fn pub_tac_stage(stage: StageKind, input: impl Into<String>) -> Self {
        JobKind::Stage {
            analysis: AnalysisKind::PubTac,
            stage,
            input: Some(input.into()),
        }
    }

    /// A stage node of the original-program pipeline.
    #[must_use]
    pub fn original_stage(stage: StageKind) -> Self {
        JobKind::Stage {
            analysis: AnalysisKind::Original,
            stage,
            input: None,
        }
    }

    /// Stable spelling for keys, manifests and reports
    /// (`"pub_tac:campaign"`, `"original:converge"`, `"multipath"`).
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            JobKind::Stage {
                analysis, stage, ..
            } => format!("{}:{}", analysis.name(), stage.name()),
            JobKind::MultipathCombine => AnalysisKind::Multipath.name().to_string(),
        }
    }

    /// The kind recorded in result summaries: terminal fit stages report
    /// as their analysis (their summary *is* the complete analysis result,
    /// which the Table 2 aggregation consumes), everything else as its
    /// stage-qualified name.
    #[must_use]
    pub fn summary_kind(&self) -> String {
        match self {
            JobKind::Stage {
                analysis,
                stage: StageKind::Fit,
                ..
            } => analysis.name().to_string(),
            other => other.name(),
        }
    }

    /// The logical analysis a stage node belongs to.
    #[must_use]
    pub fn analysis(&self) -> AnalysisKind {
        match self {
            JobKind::Stage { analysis, .. } => *analysis,
            JobKind::MultipathCombine => AnalysisKind::Multipath,
        }
    }

    /// The pipeline stage, for stage nodes.
    #[must_use]
    pub fn stage(&self) -> Option<StageKind> {
        match self {
            JobKind::Stage { stage, .. } => Some(*stage),
            JobKind::MultipathCombine => None,
        }
    }

    /// The input-vector name, when the kind has one.
    #[must_use]
    pub fn input(&self) -> Option<&str> {
        match self {
            JobKind::Stage { input, .. } => input.as_deref(),
            JobKind::MultipathCombine => None,
        }
    }
}

/// One schedulable analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Benchmark name (resolved against the registry at execution time).
    pub benchmark: String,
    /// Cache geometry of this cell.
    pub geometry: GeometrySpec,
    /// The sweep's master seed for this cell.
    pub master_seed: u64,
    /// What to compute.
    pub kind: JobKind,
}

impl JobSpec {
    /// Human-readable identity, unique within a sweep
    /// (`"pub_tac:campaign/bs:v3/4096B-2w-32B/s42"`).
    #[must_use]
    pub fn label(&self) -> String {
        let input = self
            .kind
            .input()
            .map(|i| format!(":{i}"))
            .unwrap_or_default();
        format!(
            "{}/{}{}/{}/s{}",
            self.kind.name(),
            self.benchmark,
            input,
            self.geometry.label(),
            self.master_seed
        )
    }

    /// The job's campaign seed: derived from the master seed and the job's
    /// *analysis* identity with [`mbcr_rng::derive_seed`], so every logical
    /// analysis draws a decorrelated, reproducible seed stream no matter
    /// how the sweep is scheduled or partitioned. Every stage node of one
    /// analysis shares this seed — that is what makes their stage digests
    /// line up into one resumable pipeline.
    #[must_use]
    pub fn job_seed(&self) -> u64 {
        let identity = format!(
            "{}/{}{}{}",
            self.kind.analysis().name(),
            self.benchmark,
            self.kind
                .input()
                .map(|i| format!(":{i}"))
                .unwrap_or_default(),
            self.geometry.label(),
        );
        derive_seed(self.master_seed, fnv1a(FNV_OFFSET, &identity))
    }

    /// Content-hash artifact key: 32 hex chars over the schema tag, the
    /// job label and `config_digest`. Two jobs share a key exactly when
    /// they would produce identical artifacts.
    #[must_use]
    pub fn key(&self, config_digest: u64) -> String {
        let canonical = format!("{SCHEMA}|{}|{config_digest:016x}", self.label());
        let lo = fnv1a(FNV_OFFSET, &canonical);
        let hi = fnv1a(0x6C62_272E_07BB_0142, &canonical);
        format!("{hi:016x}{lo:016x}")
    }

    /// The job's wire form — everything a remote executor needs to
    /// reconstruct the `JobSpec` (and therefore its
    /// [`job_seed`](JobSpec::job_seed) and digests) exactly.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("benchmark".to_string(), self.benchmark.as_str().into()),
            (
                "geometry".to_string(),
                mbcr_json::Serialize::to_json(&self.geometry),
            ),
            ("master_seed".to_string(), Json::UInt(self.master_seed)),
            ("analysis".to_string(), self.kind.analysis().name().into()),
        ];
        if let JobKind::Stage { stage, input, .. } = &self.kind {
            members.push(("stage".to_string(), stage.name().into()));
            members.push(("input".to_string(), mbcr_json::Serialize::to_json(input)));
        }
        Json::Obj(members)
    }

    /// Inverse of [`JobSpec::to_json`]. `None` on missing or malformed
    /// fields — the receiver treats such a frame as a protocol error.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<Self> {
        let benchmark = v.get("benchmark")?.as_str()?.to_string();
        let geometry = crate::GeometrySpec::from_json(v.get("geometry")?).ok()?;
        let master_seed = v.get("master_seed")?.as_u64()?;
        let analysis = crate::AnalysisKind::parse(v.get("analysis")?.as_str()?).ok()?;
        let kind = match analysis {
            crate::AnalysisKind::Multipath => JobKind::MultipathCombine,
            analysis => JobKind::Stage {
                analysis,
                stage: StageKind::parse(v.get("stage")?.as_str()?)?,
                input: match v.get("input") {
                    None | Some(Json::Null) => None,
                    Some(other) => Some(other.as_str()?.to_string()),
                },
            },
        };
        Some(Self {
            benchmark,
            geometry,
            master_seed,
            kind,
        })
    }
}

/// The DAG a [`crate::SweepSpec`] expands into: `deps[i]` lists the job
/// indices that must complete before job `i` may run (a campaign node
/// depends on its converge and TAC nodes; a multipath combine node on its
/// cell's per-input fit nodes).
///
/// The graph is **content-addressed and deduplicated**: `digests[i]` holds
/// a stage node's content digest (see [`mbcr::stage::StageDigests`]), and
/// two would-be nodes with the same digest collapse into one — seed-free
/// stages (the PUB transform, the path trace) are shared across every seed
/// and geometry of a sweep.
#[derive(Debug, Clone, Default)]
pub struct JobGraph {
    /// The jobs, in deterministic expansion order.
    pub jobs: Vec<JobSpec>,
    /// Dependency edges, parallel to `jobs`.
    pub deps: Vec<Vec<usize>>,
    /// Per-job stage digest (`None` for combine nodes, whose identity is
    /// the hash of their dependencies' keys).
    pub digests: Vec<Option<u64>>,
}

impl JobGraph {
    /// Number of jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// The flat, numeric summary of one finished job — what the manifest, the
/// Table 2 aggregation and downstream combine jobs consume without
/// re-reading full artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Artifact key.
    pub key: String,
    /// Job kind name (the analysis name for terminal fit/combine nodes,
    /// which carry complete results; stage-qualified otherwise).
    pub kind: String,
    /// The pipeline stage, for stage nodes.
    pub stage: Option<String>,
    /// Benchmark name.
    pub benchmark: String,
    /// Input-vector name, when the kind has one.
    pub input: Option<String>,
    /// Geometry label.
    pub geometry: String,
    /// The sweep's master seed.
    pub master_seed: u64,
    /// The derived per-job campaign seed.
    pub job_seed: u64,
    /// `R_orig` (original jobs).
    pub r_orig: Option<u64>,
    /// `R_pub` (pub_tac jobs).
    pub r_pub: Option<u64>,
    /// `R_tac` (pub_tac jobs).
    pub r_tac: Option<u64>,
    /// `R_pub+tac` (pub_tac jobs).
    pub r_pub_tac: Option<u64>,
    /// Executed campaign length (pub_tac jobs).
    pub campaign_runs: Option<u64>,
    /// Whether the campaign hit the configured cap.
    pub campaign_capped: Option<bool>,
    /// Leading campaign runs restored from a checkpoint log instead of
    /// simulated (campaign stage nodes that executed; `0` when the
    /// campaign started from the convergence boundary).
    pub campaign_resumed: Option<u64>,
    /// Whether MBPTA convergence was reached (original jobs).
    pub converged: Option<bool>,
    /// Headline pWCET at the spec's exceedance probability.
    pub pwcet: f64,
    /// PUB-only pWCET (pub_tac jobs — the paper's "PUB" column).
    pub pwcet_pub: Option<f64>,
    /// Input achieving the combined minimum (multipath jobs).
    pub best_input: Option<String>,
    /// Replayed trace length.
    pub trace_len: Option<u64>,
}

impl_serialize_struct!(JobSummary {
    key,
    kind,
    stage,
    benchmark,
    input,
    geometry,
    master_seed,
    job_seed,
    r_orig,
    r_pub,
    r_tac,
    r_pub_tac,
    campaign_runs,
    campaign_capped,
    campaign_resumed,
    converged,
    pwcet,
    pwcet_pub,
    best_input,
    trace_len,
});

impl JobSummary {
    /// An all-`None` summary for `kind` (callers fill in what they have).
    #[must_use]
    pub fn empty(key: String, job: &JobSpec) -> Self {
        Self {
            key,
            kind: job.kind.summary_kind(),
            stage: job.kind.stage().map(|s| s.name().to_string()),
            benchmark: job.benchmark.clone(),
            input: job.kind.input().map(str::to_string),
            geometry: job.geometry.label(),
            master_seed: job.master_seed,
            job_seed: job.job_seed(),
            r_orig: None,
            r_pub: None,
            r_tac: None,
            r_pub_tac: None,
            campaign_runs: None,
            campaign_capped: None,
            campaign_resumed: None,
            converged: None,
            pwcet: f64::NAN,
            pwcet_pub: None,
            best_input: None,
            trace_len: None,
        }
    }

    /// Reads a summary back from its JSON form.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<Self> {
        let str_field = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        let opt_u64 = |k: &str| v.get(k).and_then(Json::as_u64);
        Some(Self {
            key: str_field("key")?,
            kind: str_field("kind")?,
            stage: str_field("stage"),
            benchmark: str_field("benchmark")?,
            input: str_field("input"),
            geometry: str_field("geometry")?,
            master_seed: opt_u64("master_seed")?,
            job_seed: opt_u64("job_seed")?,
            r_orig: opt_u64("r_orig"),
            r_pub: opt_u64("r_pub"),
            r_tac: opt_u64("r_tac"),
            r_pub_tac: opt_u64("r_pub_tac"),
            campaign_runs: opt_u64("campaign_runs"),
            campaign_capped: v.get("campaign_capped").and_then(Json::as_bool),
            campaign_resumed: opt_u64("campaign_resumed"),
            converged: v.get("converged").and_then(Json::as_bool),
            pwcet: v.get("pwcet").and_then(Json::as_f64).unwrap_or(f64::NAN),
            pwcet_pub: v.get("pwcet_pub").and_then(Json::as_f64),
            best_input: str_field("best_input"),
            trace_len: opt_u64("trace_len"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(kind: JobKind) -> JobSpec {
        JobSpec {
            benchmark: "bs".into(),
            geometry: GeometrySpec::paper_l1(),
            master_seed: 42,
            kind,
        }
    }

    #[test]
    fn labels_are_unique_per_dimension() {
        let a = job(JobKind::pub_tac_stage(StageKind::Campaign, "v1"));
        let mut b = a.clone();
        b.benchmark = "crc".into();
        let mut c = a.clone();
        c.geometry = GeometrySpec {
            size_bytes: 2048,
            ways: 2,
            line_size: 32,
        };
        let mut d = a.clone();
        d.kind = JobKind::pub_tac_stage(StageKind::Campaign, "v3");
        let mut e = a.clone();
        e.kind = JobKind::pub_tac_stage(StageKind::Fit, "v1");
        let labels: std::collections::HashSet<String> =
            [&a, &b, &c, &d, &e].iter().map(|j| j.label()).collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn job_seed_is_deterministic_and_identity_sensitive() {
        let a = job(JobKind::original_stage(StageKind::Converge));
        assert_eq!(a.job_seed(), a.job_seed());
        let mut other_bench = a.clone();
        other_bench.benchmark = "fir".into();
        assert_ne!(a.job_seed(), other_bench.job_seed());
        let mut other_seed = a.clone();
        other_seed.master_seed = 43;
        assert_ne!(a.job_seed(), other_seed.job_seed());
    }

    #[test]
    fn stage_nodes_of_one_analysis_share_the_seed() {
        // Every stage of one logical analysis must see the same campaign
        // seed — that is what lines their digests up into one pipeline.
        let converge = job(JobKind::pub_tac_stage(StageKind::Converge, "v1"));
        let campaign = job(JobKind::pub_tac_stage(StageKind::Campaign, "v1"));
        assert_eq!(converge.job_seed(), campaign.job_seed());
        // ...but a different input is a different analysis.
        let other = job(JobKind::pub_tac_stage(StageKind::Converge, "v3"));
        assert_ne!(converge.job_seed(), other.job_seed());
    }

    #[test]
    fn key_tracks_config_digest() {
        let a = job(JobKind::original_stage(StageKind::Fit));
        assert_eq!(a.key(1), a.key(1));
        assert_ne!(a.key(1), a.key(2));
        assert_eq!(a.key(7).len(), 32);
        assert!(a.key(7).bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn summary_kind_reports_fit_nodes_as_their_analysis() {
        assert_eq!(
            JobKind::pub_tac_stage(StageKind::Fit, "v1").summary_kind(),
            "pub_tac"
        );
        assert_eq!(
            JobKind::original_stage(StageKind::Fit).summary_kind(),
            "original"
        );
        assert_eq!(
            JobKind::pub_tac_stage(StageKind::Campaign, "v1").summary_kind(),
            "pub_tac:campaign"
        );
        assert_eq!(JobKind::MultipathCombine.summary_kind(), "multipath");
    }

    #[test]
    fn summary_json_roundtrip() {
        let j = job(JobKind::pub_tac_stage(StageKind::Fit, "v1"));
        let mut s = JobSummary::empty(j.key(9), &j);
        s.r_pub = Some(300);
        s.r_tac = Some(17_000);
        s.pwcet = 12_345.5;
        s.campaign_capped = Some(true);
        let text = mbcr_json::Serialize::to_json(&s).to_compact();
        let back = JobSummary::from_json(&mbcr_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn nan_pwcet_survives_roundtrip_as_nan() {
        let j = job(JobKind::original_stage(StageKind::Fit));
        let s = JobSummary::empty(j.key(1), &j);
        let text = mbcr_json::Serialize::to_json(&s).to_compact();
        let back = JobSummary::from_json(&mbcr_json::parse(&text).unwrap()).unwrap();
        assert!(back.pwcet.is_nan());
    }
}
