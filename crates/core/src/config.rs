//! Analysis configuration: platform, PUB, TAC tuning and MBPTA settings.

use mbcr_cache::CacheGeometry;
use mbcr_cpu::PlatformConfig;
use mbcr_evt::ConvergenceConfig;
use mbcr_pub::PubConfig;
use mbcr_tac::TacConfig;

/// TAC tuning knobs that are independent of the cache geometry (the
/// geometry — sets and ways — is taken from the platform's caches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TacTuning {
    /// Maximum acceptable probability of missing a relevant layout
    /// (paper: 10⁻⁹).
    pub p_target: f64,
    /// Ignore conflict classes rarer than this per run.
    pub prob_floor: f64,
    /// Minimum expected extra misses for a group to matter.
    pub min_extra_misses: f64,
    /// Impact-clustering tolerance.
    pub impact_tolerance: f64,
    /// Hot-line cap.
    pub max_hot_lines: usize,
    /// Neighbour cap per anchor line.
    pub max_neighbors: usize,
    /// Minimum mutual interleaving for conflict candidacy.
    pub min_interleave: u32,
    /// Cap on enumerated groups.
    pub max_groups: usize,
    /// Monte-Carlo repetitions per impact estimate.
    pub mc_reps: u32,
}

impl Default for TacTuning {
    fn default() -> Self {
        let d = TacConfig::new(64, 2);
        Self {
            p_target: d.p_target,
            prob_floor: d.prob_floor,
            min_extra_misses: d.min_extra_misses,
            impact_tolerance: d.impact_tolerance,
            max_hot_lines: d.max_hot_lines,
            max_neighbors: d.max_neighbors,
            min_interleave: d.min_interleave,
            max_groups: d.max_groups,
            mc_reps: d.mc_reps,
        }
    }
}

impl TacTuning {
    /// Instantiates a full [`TacConfig`] for one cache.
    #[must_use]
    pub fn for_cache(&self, geometry: &CacheGeometry, seed: u64) -> TacConfig {
        TacConfig {
            sets: geometry.sets(),
            ways: geometry.ways(),
            p_target: self.p_target,
            prob_floor: self.prob_floor,
            min_extra_misses: self.min_extra_misses,
            impact_tolerance: self.impact_tolerance,
            max_hot_lines: self.max_hot_lines,
            max_neighbors: self.max_neighbors,
            min_interleave: self.min_interleave,
            max_groups: self.max_groups,
            mc_reps: self.mc_reps,
            seed,
        }
    }
}

/// Full configuration of the Figure 3 pipeline.
///
/// Build with [`AnalysisConfig::builder`]:
///
/// ```
/// use mbcr::AnalysisConfig;
/// let cfg = AnalysisConfig::builder().seed(42).quick().build();
/// assert_eq!(cfg.seed, 42);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisConfig {
    /// The simulated platform (caches + latencies).
    pub platform: PlatformConfig,
    /// PUB transformation options.
    pub pub_cfg: PubConfig,
    /// TAC tuning.
    pub tac: TacTuning,
    /// MBPTA convergence procedure settings.
    pub convergence: ConvergenceConfig,
    /// Exceedance probability at which pWCET values are reported
    /// (paper: 10⁻¹²).
    pub exceedance: f64,
    /// Master seed of every campaign.
    pub seed: u64,
    /// Hard cap on measurement-campaign length (scaled experiments trim the
    /// paper's 500k-run campaigns; the raw TAC requirement is still
    /// reported).
    pub max_campaign_runs: usize,
    /// Worker threads for the final campaigns.
    pub threads: usize,
    /// Checkpoint a running measurement campaign to its stage store every
    /// this many runs (`0`: only when the campaign completes). Purely a
    /// durability/scheduling knob: the sample is bit-identical at any
    /// interval, so — like `threads` — it is excluded from
    /// [`AnalysisConfig::digest`].
    pub checkpoint_interval: usize,
    /// Cache layouts simulated per trace pass, in the convergence stage's
    /// steps and in measurement campaigns alike
    /// (`mbcr_cpu::Parallelism::batch_width`). Samples are bit-identical at
    /// every width, so — like `threads` — this is a pure throughput knob,
    /// excluded from [`AnalysisConfig::digest`].
    pub batch_width: usize,
}

impl AnalysisConfig {
    /// Starts a builder with the paper's defaults.
    #[must_use]
    pub fn builder() -> AnalysisConfigBuilder {
        AnalysisConfigBuilder::default()
    }

    /// A stable digest over every knob that affects analysis *results*
    /// (`threads` is excluded: campaigns are bit-identical at any thread
    /// count). Batch drivers key cached artifacts on this, so re-runs with
    /// an unchanged configuration can skip completed jobs while any knob
    /// change invalidates them.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let canonical = format!(
            "{:?}|{:?}|{:?}|{:?}|{}|{}|{}",
            self.platform,
            self.pub_cfg,
            self.tac,
            self.convergence,
            self.exceedance,
            self.seed,
            self.max_campaign_runs,
        );
        mbcr_json::fnv1a(mbcr_json::FNV_OFFSET, &canonical)
    }
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self::builder().build()
    }
}

/// Builder for [`AnalysisConfig`].
#[derive(Debug, Clone)]
pub struct AnalysisConfigBuilder {
    cfg: AnalysisConfig,
}

impl Default for AnalysisConfigBuilder {
    fn default() -> Self {
        Self {
            cfg: AnalysisConfig {
                platform: PlatformConfig::paper_default(),
                pub_cfg: PubConfig::paper(),
                tac: TacTuning::default(),
                convergence: ConvergenceConfig::default(),
                exceedance: 1e-12,
                seed: 0x6D62_6372, // "mbcr"
                max_campaign_runs: 200_000,
                threads: default_threads(),
                checkpoint_interval: 10_000,
                batch_width: mbcr_cpu::DEFAULT_BATCH_WIDTH,
            },
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl AnalysisConfigBuilder {
    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the simulated platform.
    #[must_use]
    pub fn platform(mut self, platform: PlatformConfig) -> Self {
        self.cfg.platform = platform;
        self
    }

    /// Sets both L1 geometries at once — the knob a cache-geometry sweep
    /// varies per job.
    #[must_use]
    pub fn l1_geometry(mut self, geometry: CacheGeometry) -> Self {
        self.cfg.platform.il1 = geometry;
        self.cfg.platform.dl1 = geometry;
        self
    }

    /// Sets the PUB options.
    #[must_use]
    pub fn pub_cfg(mut self, pub_cfg: PubConfig) -> Self {
        self.cfg.pub_cfg = pub_cfg;
        self
    }

    /// Sets the TAC tuning.
    #[must_use]
    pub fn tac(mut self, tac: TacTuning) -> Self {
        self.cfg.tac = tac;
        self
    }

    /// Sets the convergence procedure options.
    #[must_use]
    pub fn convergence(mut self, convergence: ConvergenceConfig) -> Self {
        self.cfg.convergence = convergence;
        self
    }

    /// Sets the reporting exceedance probability.
    #[must_use]
    pub fn exceedance(mut self, p: f64) -> Self {
        self.cfg.exceedance = p;
        self
    }

    /// Caps measurement campaigns at `runs`.
    #[must_use]
    pub fn max_campaign_runs(mut self, runs: usize) -> Self {
        self.cfg.max_campaign_runs = runs;
        self
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads.max(1);
        self
    }

    /// Checkpoints running campaigns every `runs` measurements (`0`
    /// disables intra-campaign checkpoints). Never affects results.
    #[must_use]
    pub fn checkpoint_interval(mut self, runs: usize) -> Self {
        self.cfg.checkpoint_interval = runs;
        self
    }

    /// Sets the layouts-per-pass width of convergence and campaigns
    /// (clamped to at least 1). Never affects results.
    #[must_use]
    pub fn batch_width(mut self, width: usize) -> Self {
        self.cfg.batch_width = width.max(1);
        self
    }

    /// Shrinks every campaign for tests and examples: convergence capped at
    /// a few thousand runs, final campaigns at 3 000.
    #[must_use]
    pub fn quick(mut self) -> Self {
        self.cfg.convergence.initial = 200;
        self.cfg.convergence.step = 100;
        self.cfg.convergence.max_runs = 4_000;
        self.cfg.convergence.epsilon = 0.05;
        self.cfg.convergence.stable_windows = 3;
        self.cfg.max_campaign_runs = 3_000;
        self.cfg.tac.mc_reps = 4;
        self
    }

    /// Finalizes the configuration.
    #[must_use]
    pub fn build(self) -> AnalysisConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper() {
        let cfg = AnalysisConfig::default();
        assert_eq!(cfg.exceedance, 1e-12);
        assert_eq!(cfg.tac.p_target, 1e-9);
        assert!(cfg.platform.is_mbpta_compliant());
    }

    #[test]
    fn builder_setters_apply() {
        let cfg = AnalysisConfig::builder()
            .seed(7)
            .exceedance(1e-9)
            .threads(2)
            .max_campaign_runs(500)
            .build();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.exceedance, 1e-9);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.max_campaign_runs, 500);
    }

    #[test]
    fn quick_preset_shrinks_campaigns() {
        let cfg = AnalysisConfig::builder().quick().build();
        assert!(cfg.convergence.max_runs <= 4_000);
        assert!(cfg.max_campaign_runs <= 3_000);
    }

    #[test]
    fn digest_tracks_result_affecting_knobs_only() {
        let base = AnalysisConfig::builder().seed(1).build();
        let same = AnalysisConfig::builder().seed(1).threads(7).build();
        assert_eq!(
            base.digest(),
            same.digest(),
            "threads must not affect the digest"
        );
        let checkpointed = AnalysisConfig::builder()
            .seed(1)
            .checkpoint_interval(123)
            .build();
        assert_eq!(
            base.digest(),
            checkpointed.digest(),
            "checkpoint interval is durability-only and must not affect the digest"
        );
        let batched = AnalysisConfig::builder().seed(1).batch_width(64).build();
        assert_eq!(
            base.digest(),
            batched.digest(),
            "batch width is throughput-only and must not affect the digest"
        );
        let reseeded = AnalysisConfig::builder().seed(2).build();
        assert_ne!(base.digest(), reseeded.digest());
        let regeo = AnalysisConfig::builder()
            .seed(1)
            .l1_geometry(CacheGeometry::new(2048, 2, 32).unwrap())
            .build();
        assert_ne!(base.digest(), regeo.digest());
    }

    #[test]
    fn l1_geometry_sets_both_caches() {
        let g = CacheGeometry::new(2048, 4, 32).unwrap();
        let cfg = AnalysisConfig::builder().l1_geometry(g).build();
        assert_eq!(cfg.platform.il1, g);
        assert_eq!(cfg.platform.dl1, g);
    }

    #[test]
    fn tac_tuning_instantiates_for_geometry() {
        let tac = TacTuning::default();
        let g = CacheGeometry::paper_l1();
        let c = tac.for_cache(&g, 9);
        assert_eq!(c.sets, 64);
        assert_eq!(c.ways, 2);
        assert_eq!(c.seed, 9);
    }
}
