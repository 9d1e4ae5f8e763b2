//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names *what* to analyse — benchmarks × inputs × cache
//! geometries × seeds × analysis kinds — without saying how to schedule it.
//! Specs round-trip through JSON so campaigns are reviewable, diffable
//! artifacts; [`crate::run_sweep`] expands one into a job DAG and executes
//! it.

use mbcr::AnalysisConfig;
use mbcr_cache::CacheGeometry;
use mbcr_json::{Json, Serialize};

use crate::EngineError;

/// A cache geometry named by its parameters (both L1s get this shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometrySpec {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_size: u64,
}

impl GeometrySpec {
    /// The paper's platform: 4 KB, 2-way, 32 B lines.
    #[must_use]
    pub fn paper_l1() -> Self {
        Self {
            size_bytes: 4096,
            ways: 2,
            line_size: 32,
        }
    }

    /// Stable label used in job keys, artifact rows and the CLI
    /// (`"4096B-2w-32B"`).
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}B-{}w-{}B", self.size_bytes, self.ways, self.line_size)
    }

    /// Validates and instantiates the simulator geometry.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] if the parameters are inconsistent (size not a
    /// power-of-two multiple of `ways * line_size`, …).
    pub fn geometry(&self) -> Result<CacheGeometry, EngineError> {
        CacheGeometry::new(self.size_bytes, self.ways, self.line_size)
            .map_err(|e| EngineError::Spec(format!("geometry {}: {e}", self.label())))
    }

    /// Parses `"SIZE:WAYS:LINE"` (e.g. `"4096:2:32"`) or `"paper"`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] on malformed input.
    pub fn parse(text: &str) -> Result<Self, EngineError> {
        if text == "paper" {
            return Ok(Self::paper_l1());
        }
        let parts: Vec<&str> = text.split(':').collect();
        let bad = || EngineError::Spec(format!("bad geometry '{text}', want SIZE:WAYS:LINE"));
        if parts.len() != 3 {
            return Err(bad());
        }
        let spec = Self {
            size_bytes: parts[0].parse().map_err(|_| bad())?,
            ways: parts[1].parse().map_err(|_| bad())?,
            line_size: parts[2].parse().map_err(|_| bad())?,
        };
        spec.geometry()?;
        Ok(spec)
    }

    /// Reads a geometry from its [`Serialize`] form (the spec/wire
    /// layout).
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] on missing or malformed fields.
    pub fn from_json(v: &Json) -> Result<Self, EngineError> {
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| EngineError::Spec(format!("geometry needs integer '{k}'")))
        };
        Ok(Self {
            size_bytes: field("size_bytes")?,
            ways: u32::try_from(field("ways")?)
                .map_err(|_| EngineError::Spec("geometry 'ways' out of range".into()))?,
            line_size: field("line_size")?,
        })
    }
}

impl Serialize for GeometrySpec {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("size_bytes".to_string(), Json::UInt(self.size_bytes)),
            ("ways".to_string(), Json::UInt(u64::from(self.ways))),
            ("line_size".to_string(), Json::UInt(self.line_size)),
        ])
    }
}

/// Which input vectors of each benchmark a sweep covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputSelection {
    /// The default input only (the paper's Table 2 baseline).
    Default,
    /// Every exploratory input vector the benchmark ships.
    All,
    /// Specific vectors by name (unknown names fail expansion).
    Named(Vec<String>),
}

impl InputSelection {
    fn to_json(&self) -> Json {
        match self {
            InputSelection::Default => "default".into(),
            InputSelection::All => "all".into(),
            InputSelection::Named(names) => {
                Json::Arr(names.iter().map(|n| n.as_str().into()).collect())
            }
        }
    }

    fn from_json(v: &Json) -> Result<Self, EngineError> {
        match v {
            Json::Str(s) if s == "default" => Ok(InputSelection::Default),
            Json::Str(s) if s == "all" => Ok(InputSelection::All),
            Json::Arr(items) => {
                let names = items
                    .iter()
                    .map(|i| i.as_str().map(str::to_string))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| EngineError::Spec("input names must be strings".into()))?;
                Ok(InputSelection::Named(names))
            }
            _ => Err(EngineError::Spec(
                "inputs must be \"default\", \"all\" or a name array".into(),
            )),
        }
    }
}

/// The analysis kinds a sweep runs per (benchmark, geometry, seed) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisKind {
    /// Plain MBPTA on the original program (`R_orig` baseline).
    Original,
    /// The paper's PUB + TAC + MBPTA pipeline, one job per input vector.
    PubTac,
    /// Corollary 2 combination over every pubbed path (depends on the
    /// `PubTac` jobs of the same cell).
    Multipath,
}

impl AnalysisKind {
    /// Stable spelling used in specs, manifests and the CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AnalysisKind::Original => "original",
            AnalysisKind::PubTac => "pub_tac",
            AnalysisKind::Multipath => "multipath",
        }
    }

    /// Inverse of [`AnalysisKind::name`] (also accepts `pub-tac`).
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] on an unknown kind.
    pub fn parse(text: &str) -> Result<Self, EngineError> {
        match text {
            "original" => Ok(AnalysisKind::Original),
            "pub_tac" | "pub-tac" => Ok(AnalysisKind::PubTac),
            "multipath" => Ok(AnalysisKind::Multipath),
            other => Err(EngineError::Spec(format!(
                "unknown analysis kind '{other}'"
            ))),
        }
    }
}

/// The result-affecting analysis knobs of one sweep, detached from its
/// dimensions — everything a sweep-agnostic executor (a shard worker)
/// needs, together with a job's geometry and derived seed, to rebuild the
/// exact [`AnalysisConfig`] the sweep's planner used. Ships inside each
/// wire job so one worker fleet can serve many concurrent sweeps without
/// per-sweep handshakes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisKnobs {
    /// Use the shrunk `quick()` campaign preset.
    pub quick: bool,
    /// Campaign-length cap override.
    pub max_campaign_runs: Option<usize>,
    /// Exceedance probability for headline pWCET values.
    pub exceedance: f64,
    /// Checkpoint-interval override (digest-neutral; see
    /// [`crate::RunOptions::checkpoint_interval`]).
    pub checkpoint_interval: Option<usize>,
    /// Layouts-per-pass override for convergence and campaigns
    /// (digest-neutral; see [`crate::RunOptions::batch_width`]).
    pub batch_width: Option<usize>,
}

impl AnalysisKnobs {
    /// Extracts the knobs of `spec`, folding in a run's digest-neutral
    /// checkpoint and batching overrides.
    #[must_use]
    pub fn from_spec(
        spec: &SweepSpec,
        checkpoint_interval: Option<usize>,
        batch_width: Option<usize>,
    ) -> Self {
        Self {
            quick: spec.quick,
            max_campaign_runs: spec.max_campaign_runs,
            exceedance: spec.exceedance,
            checkpoint_interval,
            batch_width,
        }
    }

    /// Instantiates the per-job analysis configuration — the single
    /// definition shared by the planner ([`crate::SweepPlan`]) and remote
    /// executors, so their stage digests can never disagree.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] if the geometry is invalid.
    pub fn config(
        &self,
        geometry: &GeometrySpec,
        job_seed: u64,
    ) -> Result<AnalysisConfig, EngineError> {
        let mut b = AnalysisConfig::builder()
            .seed(job_seed)
            .l1_geometry(geometry.geometry()?)
            .exceedance(self.exceedance)
            .threads(1);
        if self.quick {
            b = b.quick();
        }
        if let Some(cap) = self.max_campaign_runs {
            b = b.max_campaign_runs(cap);
        }
        let mut cfg = b.build();
        if let Some(interval) = self.checkpoint_interval {
            cfg.checkpoint_interval = interval;
        }
        if let Some(width) = self.batch_width {
            cfg.batch_width = width.max(1);
        }
        Ok(cfg)
    }

    /// The knobs' wire form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("quick".to_string(), Json::Bool(self.quick)),
            (
                "max_campaign_runs".to_string(),
                Serialize::to_json(&self.max_campaign_runs),
            ),
            ("exceedance".to_string(), Json::Num(self.exceedance)),
            (
                "checkpoint_interval".to_string(),
                Serialize::to_json(&self.checkpoint_interval.map(|v| v as u64)),
            ),
            (
                "batch_width".to_string(),
                Serialize::to_json(&self.batch_width.map(|v| v as u64)),
            ),
        ])
    }

    /// Inverse of [`AnalysisKnobs::to_json`]. `None` on malformed input.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<Self> {
        let opt_usize = |k: &str| match v.get(k) {
            None | Some(Json::Null) => Some(None),
            Some(other) => other.as_usize().map(Some),
        };
        Some(Self {
            quick: v.get("quick")?.as_bool()?,
            max_campaign_runs: opt_usize("max_campaign_runs")?,
            exceedance: v
                .get("exceedance")?
                .as_f64()
                .filter(|p| *p > 0.0 && *p < 1.0)?,
            checkpoint_interval: opt_usize("checkpoint_interval")?,
            // Absent on frames from pre-batching peers: the tuned default.
            batch_width: opt_usize("batch_width")?,
        })
    }
}

/// A declarative batch campaign: the cross product the engine expands into
/// a job DAG.
///
/// # Examples
///
/// ```
/// use mbcr_engine::{GeometrySpec, SweepSpec};
///
/// let spec = SweepSpec::new("demo")
///     .benchmarks(["bs", "cnt"])
///     .geometries([GeometrySpec::paper_l1()])
///     .seeds([42]);
/// let text = spec.to_json().to_pretty();
/// assert_eq!(SweepSpec::from_json_text(&text).unwrap(), spec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Campaign name (also the default run-directory name).
    pub name: String,
    /// Benchmarks to analyse; empty means every benchmark in the registry.
    pub benchmarks: Vec<String>,
    /// Input vectors per benchmark.
    pub inputs: InputSelection,
    /// Cache geometries to sweep.
    pub geometries: Vec<GeometrySpec>,
    /// Master seeds; each gets a full copy of the campaign.
    pub seeds: Vec<u64>,
    /// Analysis kinds per cell.
    pub analyses: Vec<AnalysisKind>,
    /// Use the shrunk `quick()` campaign preset (tests, laptops).
    pub quick: bool,
    /// Overrides the campaign-length cap when set.
    pub max_campaign_runs: Option<usize>,
    /// Exceedance probability for headline pWCET values.
    pub exceedance: f64,
}

impl SweepSpec {
    /// A spec with the paper's defaults: all benchmarks, default inputs,
    /// the paper L1, one seed, all three analyses, quick campaigns.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            benchmarks: Vec::new(),
            inputs: InputSelection::Default,
            geometries: vec![GeometrySpec::paper_l1()],
            seeds: vec![0x6D62_6372],
            analyses: vec![
                AnalysisKind::Original,
                AnalysisKind::PubTac,
                AnalysisKind::Multipath,
            ],
            quick: true,
            max_campaign_runs: None,
            exceedance: 1e-12,
        }
    }

    /// Replaces the benchmark list.
    #[must_use]
    pub fn benchmarks<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.benchmarks = names.into_iter().map(Into::into).collect();
        self
    }

    /// Replaces the geometry list.
    #[must_use]
    pub fn geometries(mut self, geometries: impl IntoIterator<Item = GeometrySpec>) -> Self {
        self.geometries = geometries.into_iter().collect();
        self
    }

    /// Replaces the seed list.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Replaces the analysis kinds.
    #[must_use]
    pub fn analyses(mut self, kinds: impl IntoIterator<Item = AnalysisKind>) -> Self {
        self.analyses = kinds.into_iter().collect();
        self
    }

    /// Replaces the input selection.
    #[must_use]
    pub fn inputs(mut self, inputs: InputSelection) -> Self {
        self.inputs = inputs;
        self
    }

    /// The per-job analysis configuration for one sweep cell. `job_seed`
    /// comes from [`crate::JobSpec::job_seed`]; campaigns run serially
    /// inside a job because the engine already parallelises across jobs.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] if the geometry is invalid.
    pub fn analysis_config(
        &self,
        geometry: &GeometrySpec,
        job_seed: u64,
    ) -> Result<AnalysisConfig, EngineError> {
        AnalysisKnobs::from_spec(self, None, None).config(geometry, job_seed)
    }

    /// Serializes the spec (round-trips through [`SweepSpec::from_json`]).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_string(), self.name.as_str().into()),
            (
                "benchmarks".to_string(),
                Json::Arr(self.benchmarks.iter().map(|b| b.as_str().into()).collect()),
            ),
            ("inputs".to_string(), self.inputs.to_json()),
            (
                "geometries".to_string(),
                Serialize::to_json(&self.geometries),
            ),
            (
                "seeds".to_string(),
                Json::Arr(self.seeds.iter().map(|&s| Json::UInt(s)).collect()),
            ),
            (
                "analyses".to_string(),
                Json::Arr(self.analyses.iter().map(|a| a.name().into()).collect()),
            ),
            ("quick".to_string(), Json::Bool(self.quick)),
            (
                "max_campaign_runs".to_string(),
                Serialize::to_json(&self.max_campaign_runs),
            ),
            ("exceedance".to_string(), Json::Num(self.exceedance)),
        ])
    }

    /// Reads a spec from a parsed JSON document. Absent optional fields
    /// take the [`SweepSpec::new`] defaults.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] on missing/malformed fields.
    pub fn from_json(v: &Json) -> Result<Self, EngineError> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| EngineError::Spec("spec needs a string 'name'".into()))?;
        let mut spec = SweepSpec::new(name);
        if let Some(benchmarks) = v.get("benchmarks") {
            let items = benchmarks
                .as_array()
                .ok_or_else(|| EngineError::Spec("'benchmarks' must be an array".into()))?;
            spec.benchmarks = items
                .iter()
                .map(|i| i.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| EngineError::Spec("benchmark names must be strings".into()))?;
        }
        if let Some(inputs) = v.get("inputs") {
            spec.inputs = InputSelection::from_json(inputs)?;
        }
        if let Some(geometries) = v.get("geometries") {
            let items = geometries
                .as_array()
                .ok_or_else(|| EngineError::Spec("'geometries' must be an array".into()))?;
            spec.geometries = items
                .iter()
                .map(GeometrySpec::from_json)
                .collect::<Result<Vec<_>, _>>()?;
        }
        if let Some(seeds) = v.get("seeds") {
            let items = seeds
                .as_array()
                .ok_or_else(|| EngineError::Spec("'seeds' must be an array".into()))?;
            spec.seeds = items
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| EngineError::Spec("seeds must be non-negative integers".into()))?;
        }
        if let Some(analyses) = v.get("analyses") {
            let items = analyses
                .as_array()
                .ok_or_else(|| EngineError::Spec("'analyses' must be an array".into()))?;
            spec.analyses = items
                .iter()
                .map(|i| {
                    i.as_str()
                        .ok_or_else(|| EngineError::Spec("analysis kinds must be strings".into()))
                        .and_then(AnalysisKind::parse)
                })
                .collect::<Result<Vec<_>, _>>()?;
        }
        if let Some(quick) = v.get("quick") {
            spec.quick = quick
                .as_bool()
                .ok_or_else(|| EngineError::Spec("'quick' must be a boolean".into()))?;
        }
        if let Some(cap) = v.get("max_campaign_runs") {
            spec.max_campaign_runs = match cap {
                Json::Null => None,
                other => Some(other.as_usize().ok_or_else(|| {
                    EngineError::Spec("'max_campaign_runs' must be an integer".into())
                })?),
            };
        }
        if let Some(p) = v.get("exceedance") {
            spec.exceedance = p
                .as_f64()
                .filter(|p| *p > 0.0 && *p < 1.0)
                .ok_or_else(|| EngineError::Spec("'exceedance' must be in (0, 1)".into()))?;
        }
        if spec.geometries.is_empty() {
            return Err(EngineError::Spec("spec needs at least one geometry".into()));
        }
        if spec.seeds.is_empty() {
            return Err(EngineError::Spec("spec needs at least one seed".into()));
        }
        if spec.analyses.is_empty() {
            return Err(EngineError::Spec(
                "spec needs at least one analysis kind".into(),
            ));
        }
        Ok(spec)
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// [`EngineError::Parse`] / [`EngineError::Spec`].
    pub fn from_json_text(text: &str) -> Result<Self, EngineError> {
        Self::from_json(&mbcr_json::parse(text)?)
    }

    /// Loads a spec from a JSON file.
    ///
    /// # Errors
    ///
    /// [`EngineError::Io`] / [`EngineError::Parse`] / [`EngineError::Spec`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, EngineError> {
        Self::from_json_text(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_label_and_parse_roundtrip() {
        let g = GeometrySpec {
            size_bytes: 2048,
            ways: 4,
            line_size: 16,
        };
        assert_eq!(g.label(), "2048B-4w-16B");
        assert_eq!(GeometrySpec::parse("2048:4:16").unwrap(), g);
        assert_eq!(
            GeometrySpec::parse("paper").unwrap(),
            GeometrySpec::paper_l1()
        );
        assert!(GeometrySpec::parse("2048:4").is_err());
        assert!(
            GeometrySpec::parse("2048:3:32").is_err(),
            "non-power-of-two sets"
        );
    }

    #[test]
    fn spec_json_roundtrip_preserves_everything() {
        let spec = SweepSpec::new("t2")
            .benchmarks(["bs", "crc"])
            .inputs(InputSelection::Named(vec!["v1".into(), "v3".into()]))
            .geometries([
                GeometrySpec::paper_l1(),
                GeometrySpec::parse("2048:2:32").unwrap(),
            ])
            .seeds([1, u64::MAX])
            .analyses([AnalysisKind::PubTac, AnalysisKind::Multipath]);
        let text = spec.to_json().to_pretty();
        assert_eq!(SweepSpec::from_json_text(&text).unwrap(), spec);
    }

    #[test]
    fn spec_defaults_apply_for_absent_fields() {
        let spec = SweepSpec::from_json_text(r#"{"name": "min"}"#).unwrap();
        assert_eq!(spec, SweepSpec::new("min"));
    }

    #[test]
    fn spec_rejects_bad_fields() {
        for bad in [
            r#"{}"#,
            r#"{"name": "x", "seeds": []}"#,
            r#"{"name": "x", "geometries": []}"#,
            r#"{"name": "x", "analyses": ["nope"]}"#,
            r#"{"name": "x", "exceedance": 2.0}"#,
            r#"{"name": "x", "inputs": 7}"#,
        ] {
            assert!(
                SweepSpec::from_json_text(bad).is_err(),
                "should reject {bad}"
            );
        }
    }

    #[test]
    fn knobs_roundtrip_and_rebuild_the_planner_config() {
        let spec = SweepSpec {
            max_campaign_runs: Some(1234),
            quick: true,
            ..SweepSpec::new("k")
        };
        let knobs = AnalysisKnobs::from_spec(&spec, Some(500), Some(32));
        let back =
            AnalysisKnobs::from_json(&mbcr_json::parse(&knobs.to_json().to_compact()).unwrap())
                .unwrap();
        assert_eq!(back, knobs);
        let geometry = GeometrySpec::paper_l1();
        let cfg = back.config(&geometry, 77).unwrap();
        assert_eq!(cfg.checkpoint_interval, 500);
        assert_eq!(cfg.max_campaign_runs, 1234);
        // Without the interval override, the knobs' config equals the
        // spec's (same digest — the resumability contract).
        let plain = AnalysisKnobs::from_spec(&spec, None, None).config(&geometry, 77);
        assert_eq!(
            plain.unwrap().digest(),
            spec.analysis_config(&geometry, 77).unwrap().digest()
        );
        for bad in [
            r#"{"quick": true, "exceedance": 0.0}"#,
            r#"{"quick": 1, "exceedance": 1e-12}"#,
            r#"{"exceedance": 1e-12}"#,
        ] {
            assert!(AnalysisKnobs::from_json(&mbcr_json::parse(bad).unwrap()).is_none());
        }
    }

    #[test]
    fn analysis_config_applies_spec_knobs() {
        let spec = SweepSpec::new("cfg");
        let geometry = GeometrySpec::parse("2048:2:32").unwrap();
        let cfg = spec.analysis_config(&geometry, 77).unwrap();
        assert_eq!(cfg.seed, 77);
        assert_eq!(cfg.platform.il1.size_bytes(), 2048);
        assert_eq!(cfg.platform.dl1.size_bytes(), 2048);
        assert_eq!(cfg.threads, 1);
        assert!(cfg.max_campaign_runs <= 3_000, "quick preset");
        let capped = SweepSpec {
            max_campaign_runs: Some(500),
            ..spec
        }
        .analysis_config(&geometry, 1);
        assert_eq!(capped.unwrap().max_campaign_runs, 500);
    }
}
