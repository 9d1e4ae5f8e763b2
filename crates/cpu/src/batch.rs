//! One-pass multi-layout simulation.
//!
//! [`BatchPlatform`] pairs two [`BatchCache`]s (IL1 + DL1) so one walk of a
//! resolved trace produces the execution times of `W` independent
//! measurement runs. Each layout in the batch consumes exactly the RNG
//! stream its standalone counterpart would, so the `W`-wide output is
//! bit-identical to the serial stream for every `W`. Campaigns no longer
//! run it ([`CompiledCampaign`](crate::CompiledCampaign) simulates only the
//! cache sets that can evict); the benchmark probe still times it.

use mbcr_cache::BatchCache;
use mbcr_rng::derive_seed;

use crate::{LatencyConfig, PlatformConfig, ResolvedTrace};

/// `W` independent measurement runs (IL1 + DL1 layouts) advanced per trace
/// access in one pass.
///
/// # Examples
///
/// ```
/// use mbcr_cpu::{campaign_slice_with, BatchPlatform, Parallelism, PlatformConfig, ResolvedTrace};
/// use mbcr_rng::derive_seed;
/// use mbcr_trace::{Access, Trace};
///
/// let cfg = PlatformConfig::paper_default();
/// let trace: Trace = [Access::fetch(0x0), Access::read(0x8000)].into_iter().collect();
/// let rt = ResolvedTrace::resolve(&cfg, &trace);
/// let seeds: Vec<u64> = (0..8).map(|i| derive_seed(42, i)).collect();
/// let mut batch = BatchPlatform::new(&cfg, &seeds);
/// let par = Parallelism::serial();
/// assert_eq!(batch.run_resolved(&rt), campaign_slice_with(&cfg, &trace, 0, 8, 42, &par));
/// ```
#[derive(Debug, Clone)]
pub struct BatchPlatform {
    il1: BatchCache,
    dl1: BatchCache,
    latency: LatencyConfig,
    cycles: Vec<u64>,
    seed_scratch: Vec<u64>,
}

impl BatchPlatform {
    /// Builds a batch of `run_seeds.len()` flushed, reseeded platforms;
    /// layout `l` is state-identical to a standalone
    /// [`Platform`](crate::Platform) after `reseed(run_seeds[l])`.
    #[must_use]
    pub fn new(cfg: &PlatformConfig, run_seeds: &[u64]) -> Self {
        let il1_seeds: Vec<u64> = run_seeds.iter().map(|&s| derive_seed(s, 0)).collect();
        let dl1_seeds: Vec<u64> = run_seeds.iter().map(|&s| derive_seed(s, 1)).collect();
        Self {
            il1: BatchCache::new(cfg.il1, cfg.placement, cfg.replacement, &il1_seeds),
            dl1: BatchCache::new(cfg.dl1, cfg.placement, cfg.replacement, &dl1_seeds),
            latency: cfg.latency,
            cycles: vec![0; run_seeds.len()],
            seed_scratch: Vec::with_capacity(run_seeds.len()),
        }
    }

    /// Re-randomizes the batch for the next pass (any width); allocations
    /// are reused, so a campaign driver builds one `BatchPlatform` and
    /// reseeds it per pass.
    pub fn reseed(&mut self, run_seeds: &[u64]) {
        self.seed_scratch.clear();
        self.seed_scratch
            .extend(run_seeds.iter().map(|&s| derive_seed(s, 0)));
        self.il1.reseed(&self.seed_scratch);
        self.seed_scratch.clear();
        self.seed_scratch
            .extend(run_seeds.iter().map(|&s| derive_seed(s, 1)));
        self.dl1.reseed(&self.seed_scratch);
        self.cycles.clear();
        self.cycles.resize(run_seeds.len(), 0);
    }

    /// Number of layouts in the batch.
    #[must_use]
    pub fn width(&self) -> usize {
        self.il1.width()
    }

    /// Executes the resolved trace once, advancing every layout, and
    /// returns the per-layout execution times in seed order. Call after
    /// [`new`](Self::new) or [`reseed`](Self::reseed): entry `l` then equals
    /// `Platform::run_randomized(trace, run_seeds[l])` bit for bit. The
    /// same-line repeats the resolution dropped are charged their hit cost
    /// up front, not simulated.
    ///
    /// # Panics
    ///
    /// Panics if `rt` was resolved for different cache line sizes.
    pub fn run_resolved(&mut self, rt: &ResolvedTrace) -> &[u64] {
        assert!(
            rt.matches(
                self.il1.geometry().line_size(),
                self.dl1.geometry().line_size()
            ),
            "trace resolved for a different geometry"
        );
        let lat = self.latency;
        self.cycles.fill(rt.repeat_cycles(&lat));
        for op in rt.ops() {
            if op.instr {
                self.il1.access_line_accum(
                    op.line,
                    lat.issue_cycles + lat.il1_hit,
                    lat.issue_cycles + lat.il1_miss,
                    &mut self.cycles,
                );
            } else {
                self.dl1
                    .access_line_accum(op.line, lat.dl1_hit, lat.dl1_miss, &mut self.cycles);
            }
        }
        &self.cycles
    }
}
