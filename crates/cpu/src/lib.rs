//! In-order processor timing model with IL1/DL1 caches.
//!
//! The paper's evaluation platform (Section 4) is a "pipelined in-order
//! processor with first level instruction (IL1) and data (DL1) caches …
//! implementing random placement and replacement policies. The content of
//! cache memories is flushed before each run of a program."
//!
//! This crate reproduces those timing semantics:
//!
//! * every instruction fetch goes through the IL1, every load/store through
//!   the DL1;
//! * an access costs a constant hit or miss latency ([`LatencyConfig`]); the
//!   in-order pipeline makes execution time additive in those latencies;
//! * a *measurement run* replays a fixed [`Trace`] after flushing and
//!   re-randomizing both caches ([`Platform::run_randomized`]), so all
//!   run-to-run execution-time variability comes from the random cache
//!   layout — exactly the MBPTA setting;
//! * a *campaign* collects `R` execution times with run `i` seeded
//!   `derive_seed(master_seed, i)`, so any slice of the seed stream can be
//!   simulated on its own and slices concatenate to the full campaign;
//! * every campaign compiles its seed stream once ([`CompiledCampaign`]):
//!   the trace resolves to line ids ([`ResolvedTrace`]), minus the
//!   same-line repeats that hit in every layout, and one kernel
//!   sweeps up to [`Parallelism::batch_width`] layouts per trace pass
//!   ([`BatchPlatform`]), optionally split across
//!   [`Parallelism::threads`] — pure throughput knobs: the sample is
//!   bit-identical at every thread count and batch width.
//!   [`campaign_slice_with`] is the one-shot form, and
//!   [`CompiledCampaign::slice_chunked`] the checkpointing one.
//!
//! # Examples
//!
//! ```
//! use mbcr_cpu::{campaign_slice_with, Parallelism, PlatformConfig};
//! use mbcr_trace::{Access, Trace};
//!
//! let cfg = PlatformConfig::paper_default();
//! let trace: Trace = [Access::fetch(0x0), Access::read(0x8000)].into_iter().collect();
//! let times = campaign_slice_with(&cfg, &trace, 0, 10, 42, &Parallelism::serial());
//! assert_eq!(times.len(), 10);
//! // Two cold misses on every run: both accesses miss once each.
//! let expected = 2 * cfg.latency.il1_miss.max(cfg.latency.dl1_miss);
//! assert!(times.iter().all(|&t| t == expected));
//! ```

use mbcr_cache::{Cache, CacheGeometry, PlacementPolicy, ReplacementPolicy};
use mbcr_rng::derive_seed;
use mbcr_trace::{AccessKind, Trace};

mod batch;
mod fastpath;
mod resolved;

pub use batch::BatchPlatform;
pub use resolved::{ResolvedOp, ResolvedTrace};

/// Access latencies (cycles) of the in-order pipeline.
///
/// With an in-order single-issue core and blocking caches, execution time is
/// the sum of per-access latencies; `issue_cycles` adds a fixed per-
/// instruction cost on top of the fetch latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyConfig {
    /// Fixed cycles per instruction besides memory (decode/execute).
    pub issue_cycles: u64,
    /// IL1 hit latency.
    pub il1_hit: u64,
    /// IL1 miss latency (includes the memory round-trip).
    pub il1_miss: u64,
    /// DL1 hit latency.
    pub dl1_hit: u64,
    /// DL1 miss latency (includes the memory round-trip).
    pub dl1_miss: u64,
}

impl LatencyConfig {
    /// LEON3-like defaults: 1-cycle hits, 100-cycle misses — large enough
    /// that conflictive cache placements produce the abrupt execution-time
    /// "knees" the paper studies.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            issue_cycles: 0,
            il1_hit: 1,
            il1_miss: 100,
            dl1_hit: 1,
            dl1_miss: 100,
        }
    }
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Full platform configuration: cache geometries, policies and latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatformConfig {
    /// Instruction-cache geometry.
    pub il1: CacheGeometry,
    /// Data-cache geometry.
    pub dl1: CacheGeometry,
    /// Placement policy for both caches.
    pub placement: PlacementPolicy,
    /// Replacement policy for both caches.
    pub replacement: ReplacementPolicy,
    /// Pipeline/memory latencies.
    pub latency: LatencyConfig,
}

impl PlatformConfig {
    /// The paper's platform: 4 KB 2-way 32 B/line IL1 and DL1, random
    /// placement and replacement, caches flushed before each run.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            il1: CacheGeometry::paper_l1(),
            dl1: CacheGeometry::paper_l1(),
            placement: PlacementPolicy::RandomHash,
            replacement: ReplacementPolicy::Random,
            latency: LatencyConfig::paper_default(),
        }
    }

    /// A time-deterministic variant (modulo + LRU) used as the contrast in
    /// Section 2 experiments — *not* MBPTA-compliant.
    #[must_use]
    pub fn deterministic() -> Self {
        Self {
            placement: PlacementPolicy::Modulo,
            replacement: ReplacementPolicy::Lru,
            ..Self::paper_default()
        }
    }

    /// Returns `true` if both policies are time-randomized, i.e. the
    /// platform is MBPTA-compliant.
    #[must_use]
    pub fn is_mbpta_compliant(&self) -> bool {
        self.placement.is_randomized() && self.replacement.is_randomized()
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The simulated platform: one IL1, one DL1 and the latency model.
#[derive(Debug, Clone)]
pub struct Platform {
    il1: Cache,
    dl1: Cache,
    latency: LatencyConfig,
}

impl Platform {
    /// Builds a platform already flushed and seeded for measurement run
    /// `run_seed`: IL1 and DL1 receive independent streams derived from
    /// it. Campaign drivers build their platform this way from the first
    /// run seed and [`reseed`](Platform::reseed) for every later run —
    /// `for_run(a)` followed by `reseed(b)` is state-identical to
    /// `for_run(b)`.
    #[must_use]
    pub fn for_run(cfg: &PlatformConfig, run_seed: u64) -> Self {
        Self {
            il1: Cache::new(
                cfg.il1,
                cfg.placement,
                cfg.replacement,
                derive_seed(run_seed, 0),
            ),
            dl1: Cache::new(
                cfg.dl1,
                cfg.placement,
                cfg.replacement,
                derive_seed(run_seed, 1),
            ),
            latency: cfg.latency,
        }
    }

    /// The instruction cache.
    #[must_use]
    pub fn il1(&self) -> &Cache {
        &self.il1
    }

    /// The data cache.
    #[must_use]
    pub fn dl1(&self) -> &Cache {
        &self.dl1
    }

    /// Executes a trace with the *current* cache state (no flush), returning
    /// elapsed cycles. Useful for warm-cache experiments.
    pub fn run(&mut self, trace: &Trace) -> u64 {
        let mut cycles = 0u64;
        for access in trace {
            match access.kind {
                AccessKind::InstrFetch => {
                    cycles += self.latency.issue_cycles;
                    cycles += if self.il1.access(access.addr).is_hit() {
                        self.latency.il1_hit
                    } else {
                        self.latency.il1_miss
                    };
                }
                AccessKind::Read | AccessKind::Write => {
                    cycles += if self.dl1.access(access.addr).is_hit() {
                        self.latency.dl1_hit
                    } else {
                        self.latency.dl1_miss
                    };
                }
            }
        }
        cycles
    }

    /// Executes a pre-resolved trace with the *current* cache state (no
    /// flush) — the hot-loop form of [`run`](Platform::run), with every
    /// `Address → LineId` division already paid by
    /// [`ResolvedTrace::resolve`]. It returns the same cycles as `run`; the
    /// same-line repeats the resolution dropped are charged their hit cost
    /// without touching the caches, so the caches' hit counters
    /// ([`Cache::stats`]) exclude them.
    ///
    /// # Panics
    ///
    /// Panics if `rt` was resolved for different cache line sizes.
    pub fn run_resolved(&mut self, rt: &ResolvedTrace) -> u64 {
        assert!(
            rt.matches(
                self.il1.geometry().line_size(),
                self.dl1.geometry().line_size()
            ),
            "trace resolved for a different geometry"
        );
        let mut cycles = rt.repeat_cycles(&self.latency);
        for op in rt.ops() {
            if op.instr {
                cycles += self.latency.issue_cycles;
                cycles += if self.il1.access_line(op.line).is_hit() {
                    self.latency.il1_hit
                } else {
                    self.latency.il1_miss
                };
            } else {
                cycles += if self.dl1.access_line(op.line).is_hit() {
                    self.latency.dl1_hit
                } else {
                    self.latency.dl1_miss
                };
            }
        }
        cycles
    }

    /// Flushes both caches and re-randomizes their placement/replacement
    /// streams for measurement run `run_seed` (IL1 and DL1 receive
    /// independent derived streams).
    pub fn reseed(&mut self, run_seed: u64) {
        self.il1.reseed(derive_seed(run_seed, 0));
        self.dl1.reseed(derive_seed(run_seed, 1));
    }

    /// One *measurement run* in the paper's sense: flush both caches,
    /// re-randomize their placement with streams derived from `run_seed`,
    /// then execute the trace and return its execution time in cycles.
    pub fn run_randomized(&mut self, trace: &Trace, run_seed: u64) -> u64 {
        self.reseed(run_seed);
        self.run(trace)
    }

    /// [`run_randomized`](Platform::run_randomized) over a pre-resolved
    /// trace (see [`run_resolved`](Platform::run_resolved)).
    pub fn run_randomized_resolved(&mut self, rt: &ResolvedTrace, run_seed: u64) -> u64 {
        self.reseed(run_seed);
        self.run_resolved(rt)
    }
}

/// One seed stream compiled for repeated slicing: the trace resolved to
/// line ids once ([`ResolvedTrace`]) and the simulation kernel picked
/// once — the specialized 2-way random-replacement kernel where the
/// configuration allows it, the general [`BatchPlatform`] otherwise, and
/// the serial [`Platform`] loop at batch width 1. The kernel's state is
/// reused from slice to slice, so a driver that draws many short slices
/// (MBPTA convergence extends its sample 100 runs at a time) pays the
/// set-up once, not per slice.
///
/// Run `i` is always seeded `derive_seed(master_seed, i)`, so every slice
/// is bit-identical to the one-layout-at-a-time [`Platform`] loop at any
/// [`Parallelism`] setting, and slices taken in any order concatenate to
/// the same stream.
///
/// # Examples
///
/// ```
/// use mbcr_cpu::{campaign_slice_with, CompiledCampaign, Parallelism, PlatformConfig};
/// use mbcr_trace::{Access, Trace};
///
/// let cfg = PlatformConfig::paper_default();
/// let trace: Trace = [Access::fetch(0x0), Access::read(0x8000)].into_iter().collect();
/// let par = Parallelism::serial();
/// let mut compiled = CompiledCampaign::new(&cfg, &trace, 42, &par);
/// let mut sample = compiled.slice(0, 300);
/// sample.extend(compiled.slice(300, 100));
/// assert_eq!(sample, campaign_slice_with(&cfg, &trace, 0, 400, 42, &par));
/// ```
#[derive(Debug, Clone)]
pub struct CompiledCampaign {
    cfg: PlatformConfig,
    rt: ResolvedTrace,
    master_seed: u64,
    par: Parallelism,
    kernel: Kernel,
    /// Run seeds of the current pass (reused allocation).
    seeds: Vec<u64>,
}

/// The kernel a [`CompiledCampaign`] runs, holding its reusable state
/// (built by the first pass).
#[derive(Debug, Clone)]
enum Kernel {
    /// Width 1: one layout per trace walk on a platform reseeded in place.
    Serial(Option<Platform>),
    /// Paper-shaped configurations: [`fastpath::FastCampaign`].
    Fast(fastpath::FastCampaign),
    /// Everything else: the general batched engine.
    Batch(Option<BatchPlatform>),
}

impl CompiledCampaign {
    /// Resolves `trace` for `cfg` and picks the kernel for
    /// `par.batch_width` layouts per pass; `par.threads` and
    /// `par.min_parallel_runs` then govern every [`slice`](Self::slice).
    #[must_use]
    pub fn new(cfg: &PlatformConfig, trace: &Trace, master_seed: u64, par: &Parallelism) -> Self {
        let rt = ResolvedTrace::resolve(cfg, trace);
        let par = Parallelism {
            batch_width: par.batch_width.max(1),
            ..*par
        };
        let kernel = if par.batch_width == 1 {
            Kernel::Serial(None)
        } else {
            fastpath::FastCampaign::try_new(cfg, &rt)
                .filter(|fast| fast.supports_width(par.batch_width))
                .map_or(Kernel::Batch(None), Kernel::Fast)
        };
        Self {
            cfg: *cfg,
            rt,
            master_seed,
            par,
            kernel,
            seeds: Vec::with_capacity(par.batch_width),
        }
    }

    /// The execution times of runs `start .. start + runs`, in run-index
    /// order. Slices of at least `min_parallel_runs` runs split into one
    /// contiguous part per thread, each simulated on its own copy of the
    /// kernel.
    #[must_use]
    pub fn slice(&mut self, start: usize, runs: usize) -> Vec<u64> {
        let mut out = vec![0u64; runs];
        let threads = self.par.threads.max(1).min(runs.max(1));
        if threads <= 1 || runs < self.par.min_parallel_runs.max(2) {
            self.run_passes(start, &mut out);
            return out;
        }
        let part = runs.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, slot) in out.chunks_mut(part).enumerate() {
                let mut worker = self.clone();
                scope.spawn(move || worker.run_passes(start + t * part, slot));
            }
        });
        out
    }

    /// [`slice`](Self::slice) driven in chunks, for drivers that persist
    /// partial campaigns: simulates runs `start .. start + runs`, invoking
    /// `sink` after each completed chunk with the chunk's absolute start
    /// index and its execution times, and returns the whole slice. `sink`
    /// returns whether to keep going — returning `false` (say, the
    /// checkpoint medium failed) stops the simulation immediately instead
    /// of burning through the rest of a possibly enormous campaign, and
    /// the truncated slice is returned as-is for the caller to discard or
    /// salvage.
    ///
    /// Chunk boundaries land on multiples of `chunk_runs` in *absolute*
    /// run-index space ([`next_chunk_boundary`]; the final chunk is
    /// whatever remains), so a checkpoint log fed by `sink` has the same
    /// chunk layout no matter where the slice starts — an
    /// interrupted-then-resumed campaign replays the grid, not an offset
    /// of it. `chunk_runs == 0` simulates the slice as one chunk. Layout
    /// batches never straddle a chunk boundary, so
    /// [`Parallelism::batch_width`] clamps to the checkpoint grid for
    /// free. The returned sample equals [`slice`](Self::slice) for every
    /// chunking (when the sink never aborts).
    pub fn slice_chunked(
        &mut self,
        start: usize,
        runs: usize,
        chunk_runs: usize,
        mut sink: impl FnMut(usize, &[u64]) -> bool,
    ) -> Vec<u64> {
        let mut out = Vec::with_capacity(runs);
        let end = start + runs;
        let mut at = start;
        while at < end {
            let next = next_chunk_boundary(at, chunk_runs, end);
            let slice = {
                // Spans the chunk's simulation; `batch_width` is the
                // realized layouts-per-pass after clamping to the chunk.
                let _span = mbcr_obs::span(mbcr_obs::SpanKind::CampaignChunk, "simulate-chunk")
                    .field("start", at.to_string())
                    .field("runs", (next - at).to_string())
                    .field(
                        "batch_width",
                        self.par.batch_width.min(next - at).to_string(),
                    );
                self.slice(at, next - at)
            };
            let keep_going = sink(at, &slice);
            out.extend_from_slice(&slice);
            at = next;
            if !keep_going {
                break;
            }
        }
        out
    }

    /// Fills `out` with runs `start .. start + out.len()` in passes of up
    /// to `batch_width` layouts, recording each batched pass's realized
    /// width in the `mbcr_campaign_layouts_per_pass` histogram.
    fn run_passes(&mut self, start: usize, out: &mut [u64]) {
        let Self {
            cfg,
            rt,
            master_seed,
            par,
            kernel,
            seeds,
        } = self;
        let mut at = start;
        for pass in out.chunks_mut(par.batch_width) {
            seeds.clear();
            seeds.extend((at..at + pass.len()).map(|i| derive_seed(*master_seed, i as u64)));
            at += pass.len();
            match kernel {
                Kernel::Serial(platform) => {
                    let seed = seeds[0];
                    let platform = match platform {
                        Some(platform) => {
                            platform.reseed(seed);
                            platform
                        }
                        None => platform.insert(Platform::for_run(cfg, seed)),
                    };
                    pass[0] = platform.run_resolved(rt);
                }
                Kernel::Fast(fast) => {
                    mbcr_obs::observe("mbcr_campaign_layouts_per_pass", &[], pass.len() as u64);
                    fast.run_pass(seeds, pass);
                }
                Kernel::Batch(platform) => {
                    mbcr_obs::observe("mbcr_campaign_layouts_per_pass", &[], pass.len() as u64);
                    let batch = match platform {
                        Some(batch) => {
                            batch.reseed(seeds);
                            batch
                        }
                        None => platform.insert(BatchPlatform::new(cfg, seeds)),
                    };
                    pass.copy_from_slice(batch.run_resolved(rt));
                }
            }
        }
    }
}

/// Campaign parallelism knobs, exposed so batch drivers (the sweep engine)
/// can trade scheduling overhead against intra-campaign parallelism
/// explicitly instead of relying on hard-coded thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads per campaign (clamped to at least 1).
    pub threads: usize,
    /// Campaigns shorter than this run serially: below a few hundred runs
    /// the thread spawn cost dominates the simulation itself.
    pub min_parallel_runs: usize,
    /// Layouts simulated per trace pass ([`BatchPlatform`]), clamped to at
    /// least 1; `1` is the classic one-layout-at-a-time loop. Output is
    /// bit-identical for every width, so this is a pure throughput knob —
    /// digest-neutral in every campaign driver.
    pub batch_width: usize,
}

/// Default [`Parallelism::batch_width`]: wide enough to amortize the trace
/// walk, small enough that the batched IL1+DL1 state of the paper-default
/// geometry stays cache-resident (~`2 × 4 KB × 2 × 16` = 256 KB of
/// tags+meta).
pub const DEFAULT_BATCH_WIDTH: usize = 16;

impl Parallelism {
    /// Single-threaded campaigns — what a batch engine wants when it
    /// already runs one job per core. Layout batching stays on (it needs no
    /// extra threads and changes no output).
    #[must_use]
    pub fn serial() -> Self {
        Self {
            threads: 1,
            min_parallel_runs: usize::MAX,
            batch_width: DEFAULT_BATCH_WIDTH,
        }
    }

    /// A fixed thread count with the default serial cut-off (256 runs).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            min_parallel_runs: 256,
            batch_width: DEFAULT_BATCH_WIDTH,
        }
    }

    /// Replaces the layouts-per-pass width (clamped to at least 1).
    #[must_use]
    pub fn batch_width(mut self, width: usize) -> Self {
        self.batch_width = width.max(1);
        self
    }
}

/// The one-shot campaign: runs `start .. start + runs` of the seed stream
/// defined by `master_seed`, in run-index order, under `par` — one
/// [`CompiledCampaign`] sliced once. The sample is bit-identical at every
/// knob setting.
///
/// Because every run is seeded from its absolute index, a campaign can be
/// restarted from any boundary: a prefix collected by one process (e.g. a
/// convergence stage) concatenated with this slice equals the full
/// campaign. Staged drivers rely on this to resume mid-analysis.
#[must_use]
pub fn campaign_slice_with(
    cfg: &PlatformConfig,
    trace: &Trace,
    start: usize,
    runs: usize,
    master_seed: u64,
    par: &Parallelism,
) -> Vec<u64> {
    CompiledCampaign::new(cfg, trace, master_seed, par).slice(start, runs)
}

/// The absolute index ending the chunk that contains run `at`: the next
/// multiple of `chunk_runs`, capped at `end`; `chunk_runs == 0` means one
/// single chunk (`end`). This is the one definition of the checkpoint
/// grid — [`CompiledCampaign::slice_chunked`] simulates on it and
/// checkpoint writers frame on it, which is what makes
/// interrupted-then-resumed logs byte-identical to uninterrupted ones.
#[must_use]
pub fn next_chunk_boundary(at: usize, chunk_runs: usize, end: usize) -> usize {
    match at.checked_div(chunk_runs) {
        None => end,
        Some(cell) => ((cell + 1) * chunk_runs).min(end),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbcr_trace::{Access, SymSeq};

    fn sym_trace(s: &str, reps: usize) -> Trace {
        s.parse::<SymSeq>().unwrap().repeat(reps).to_trace(32)
    }

    /// The reference stream every campaign driver must reproduce: runs
    /// `start .. start + runs`, one [`Platform`] run per seed
    /// `derive_seed(master_seed, i)`.
    fn oracle(
        cfg: &PlatformConfig,
        trace: &Trace,
        start: usize,
        runs: usize,
        master_seed: u64,
    ) -> Vec<u64> {
        let mut platform = Platform::for_run(cfg, 0);
        (start..start + runs)
            .map(|i| platform.run_randomized(trace, derive_seed(master_seed, i as u64)))
            .collect()
    }

    #[test]
    fn deterministic_platform_has_zero_variability() {
        let cfg = PlatformConfig::deterministic();
        let trace = sym_trace("ABCDEFGH", 50);
        let times = oracle(&cfg, &trace, 0, 20, 7);
        assert!(times.windows(2).all(|w| w[0] == w[1]), "{times:?}");
    }

    #[test]
    fn randomized_platform_varies_across_runs() {
        let cfg = PlatformConfig::paper_default();
        // Footprint > 2 ways in some sets with non-trivial probability:
        // 40 distinct lines in 64 sets.
        let s: SymSeq = ('A'..='Z')
            .chain('A'..='N')
            .collect::<String>()
            .parse()
            .unwrap();
        let trace = s.repeat(30).to_trace(32);
        let times = oracle(&cfg, &trace, 0, 50, 9);
        let distinct: std::collections::HashSet<u64> = times.iter().copied().collect();
        assert!(distinct.len() > 1, "expected layout-induced variability");
    }

    #[test]
    fn campaign_is_reproducible() {
        let cfg = PlatformConfig::paper_default();
        let par = Parallelism::serial();
        let trace = sym_trace("ABCAD", 40);
        assert_eq!(
            campaign_slice_with(&cfg, &trace, 0, 25, 3, &par),
            campaign_slice_with(&cfg, &trace, 0, 25, 3, &par)
        );
        // A footprint large enough that layouts (and thus times) must differ
        // between master seeds.
        let wide: SymSeq = ('A'..='Z').collect::<String>().parse().unwrap();
        let wide_trace = wide.repeat(10).to_trace(32);
        assert_ne!(
            campaign_slice_with(&cfg, &wide_trace, 0, 25, 3, &par),
            campaign_slice_with(&cfg, &wide_trace, 0, 25, 4, &par)
        );
    }

    #[test]
    fn thread_splits_match_the_oracle() {
        let cfg = PlatformConfig::paper_default();
        let trace = sym_trace("ABCDEFGHIJ", 20);
        // From run 0 and from mid-stream, with parts the width need not
        // divide.
        for (start, runs) in [(0, 500), (170, 330)] {
            let want = oracle(&cfg, &trace, start, runs, 11);
            for threads in [2, 3, 8] {
                for par in [
                    Parallelism::with_threads(threads),
                    Parallelism {
                        threads,
                        min_parallel_runs: 100,
                        batch_width: threads * 3,
                    },
                ] {
                    assert_eq!(
                        campaign_slice_with(&cfg, &trace, start, runs, 11, &par),
                        want,
                        "start={start} {par:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn min_parallel_runs_cut_offs_match_the_oracle() {
        // Slices on both sides of the cut-off: below it the slice runs
        // serially, at or above it the threads split it.
        let cfg = PlatformConfig::paper_default();
        let trace = sym_trace("ABCDEFGHIJ", 20);
        let want = oracle(&cfg, &trace, 0, 400, 5);
        for min_parallel_runs in [0, 2, 100, 399, 400, 401, usize::MAX] {
            let par = Parallelism {
                threads: 4,
                min_parallel_runs,
                batch_width: 5,
            };
            assert_eq!(
                campaign_slice_with(&cfg, &trace, 0, 400, 5, &par),
                want,
                "min_parallel_runs={min_parallel_runs}"
            );
        }
    }

    #[test]
    fn prefix_plus_parallel_tail_equals_the_full_stream() {
        // The stage-boundary restart contract: a converge-phase prefix plus
        // a parallel tail slice must reproduce the one-shot campaign.
        let cfg = PlatformConfig::paper_default();
        let trace = sym_trace("ABCDEFGH", 15);
        let par = Parallelism {
            threads: 4,
            min_parallel_runs: 2,
            batch_width: 7,
        };
        let mut pieced = oracle(&cfg, &trace, 0, 140, 23);
        pieced.extend(campaign_slice_with(&cfg, &trace, 140, 360, 23, &par));
        assert_eq!(pieced, oracle(&cfg, &trace, 0, 500, 23));
    }

    #[test]
    fn every_width_matches_the_oracle() {
        let cfg = PlatformConfig::paper_default();
        let trace = sym_trace("ABCDEFGHIJKLMNOPQRST", 15);
        let want = oracle(&cfg, &trace, 40, 100, 77);
        for width in [1, 2, 3, 7, 16, 64, 1000] {
            let par = Parallelism::serial().batch_width(width);
            assert_eq!(
                campaign_slice_with(&cfg, &trace, 40, 100, 77, &par),
                want,
                "width={width}"
            );
        }
    }

    #[test]
    fn chunked_slice_matches_the_oracle_and_aligns_chunks_to_the_grid() {
        let cfg = PlatformConfig::paper_default();
        let trace = sym_trace("ABCDEFGH", 10);
        let want = oracle(&cfg, &trace, 130, 470, 17);
        for (chunk_runs, threads, batch_width) in [
            (0, 1, 1),
            (100, 1, 16),
            (100, 3, 4),
            (64, 4, 64),
            (1000, 2, 3),
        ] {
            let par = Parallelism {
                threads,
                min_parallel_runs: 50,
                batch_width,
            };
            let mut seen: Vec<(usize, usize)> = Vec::new();
            let out = CompiledCampaign::new(&cfg, &trace, 17, &par).slice_chunked(
                130,
                470,
                chunk_runs,
                |at, chunk| {
                    seen.push((at, chunk.len()));
                    true
                },
            );
            assert_eq!(
                out, want,
                "chunk={chunk_runs} threads={threads} width={batch_width}"
            );
            // The sink covers the slice contiguously and, beyond the first
            // chunk, starts on absolute multiples of the chunk size.
            let mut at = 130;
            for (i, &(chunk_at, len)) in seen.iter().enumerate() {
                assert_eq!(chunk_at, at);
                if i > 0 && chunk_runs > 0 {
                    assert_eq!(chunk_at % chunk_runs, 0, "grid-aligned");
                }
                at += len;
            }
            assert_eq!(at, 600);
        }
    }

    #[test]
    fn chunked_slice_aborts_when_the_sink_says_stop() {
        let cfg = PlatformConfig::paper_default();
        let trace = sym_trace("ABCDEFGH", 10);
        let mut calls = 0;
        let out = CompiledCampaign::new(&cfg, &trace, 17, &Parallelism::serial()).slice_chunked(
            0,
            500,
            100,
            |_, _| {
                calls += 1;
                calls < 2
            },
        );
        assert_eq!(calls, 2, "the sink is not called after it aborts");
        assert_eq!(out.len(), 200, "simulation stops at the aborting chunk");
        assert_eq!(out, oracle(&cfg, &trace, 0, 200, 17));
    }

    #[test]
    fn for_run_then_reseed_equals_for_run_of_the_new_seed() {
        let cfg = PlatformConfig::paper_default();
        let trace = sym_trace("ABCDEFGHIJKLMNOP", 25);
        let (a, b) = (derive_seed(99, 0), derive_seed(99, 1));
        let mut reseeded = Platform::for_run(&cfg, a);
        reseeded.reseed(b);
        let mut direct = Platform::for_run(&cfg, b);
        assert_eq!(reseeded.run(&trace), direct.run(&trace));
    }

    /// Fetch runs and data runs interleaved across the two caches: eight
    /// 4-byte fetches per 32-byte line with loads and stores between them,
    /// data runs split by fetches, and some lines revisited later, so the
    /// resolution drops repeats of both caches that are not adjacent in the
    /// trace.
    fn interleaved_repeats(blocks: u64) -> Trace {
        let mut t = Trace::new();
        for b in 0..blocks {
            let code = (b * 7 % 23) * 32;
            let data = 0x8000 + (b * 5 % 37) * 32;
            for k in 0..8 {
                t.push(Access::fetch(code + 4 * k));
                match k % 3 {
                    0 => t.push(Access::read(data + k)),
                    1 => t.push(Access::write(data + 8)),
                    _ => {}
                }
            }
            t.push(Access::read(data + 16));
            t.push(Access::read(data + 0x40));
        }
        t
    }

    /// Latencies under which a wrongly charged repeat shows: issue cycles on
    /// every fetch and different hit costs in the two caches.
    fn uneven_latency(cfg: PlatformConfig) -> PlatformConfig {
        PlatformConfig {
            latency: LatencyConfig {
                issue_cycles: 3,
                il1_hit: 2,
                il1_miss: 90,
                dl1_hit: 5,
                dl1_miss: 70,
            },
            ..cfg
        }
    }

    #[test]
    fn resolved_run_matches_unresolved() {
        let cfg = PlatformConfig::paper_default();
        let trace = interleaved_repeats(40);
        let rt = ResolvedTrace::resolve(&cfg, &trace);
        // Every access is either simulated or counted as a dropped repeat:
        // per block, 7 of 8 fetches and 6 of 8 data accesses repeat.
        assert_eq!(rt.il1_repeats(), 40 * 7);
        assert_eq!(rt.dl1_repeats(), 40 * 6);
        assert_eq!(
            rt.len() as u64 + rt.il1_repeats() + rt.dl1_repeats(),
            trace.len() as u64
        );
        let mut a = Platform::for_run(&cfg, 4);
        let mut b = Platform::for_run(&cfg, 4);
        for seed in [0u64, 7, u64::MAX] {
            assert_eq!(
                a.run_randomized(&trace, seed),
                b.run_randomized_resolved(&rt, seed)
            );
        }
    }

    #[test]
    fn dropped_repeats_cost_their_hits_in_every_kernel() {
        // Width 1 is the serial loop; on the 2-way random configs wider
        // passes run fastpath, on the 4-way ones the general batch engine
        // (random and LRU replacement). The small caches make conflict
        // misses, and so RNG draws and LRU victims, common.
        let two_way = CacheGeometry::new(512, 2, 32).unwrap();
        let four_way = CacheGeometry::new(1024, 4, 32).unwrap();
        let configs = [
            PlatformConfig::paper_default(),
            PlatformConfig {
                il1: two_way,
                dl1: two_way,
                ..PlatformConfig::paper_default()
            },
            PlatformConfig {
                il1: four_way,
                dl1: four_way,
                ..PlatformConfig::paper_default()
            },
            PlatformConfig {
                il1: four_way,
                dl1: four_way,
                ..PlatformConfig::deterministic()
            },
        ];
        let trace = interleaved_repeats(150);
        for cfg in configs.map(uneven_latency) {
            let want = oracle(&cfg, &trace, 0, 90, 13);
            for width in [1, 7, 16] {
                let par = Parallelism::serial().batch_width(width);
                let mut compiled = CompiledCampaign::new(&cfg, &trace, 13, &par);
                let mut stepped = compiled.slice(0, 40);
                stepped.extend(compiled.slice(40, 50));
                assert_eq!(stepped, want, "{cfg:?} width={width}");
            }
        }
    }

    #[test]
    fn a_trace_of_repeats_simulates_one_access_per_cache() {
        let cfg = uneven_latency(PlatformConfig::paper_default());
        let mut trace = Trace::new();
        for k in 0..8 {
            trace.push(Access::fetch(0x200 + 4 * k));
            trace.push(Access::write(0x9000 + k));
            trace.push(Access::read(0x9010));
        }
        let rt = ResolvedTrace::resolve(&cfg, &trace);
        assert_eq!(rt.len(), 2);
        assert_eq!((rt.il1_repeats(), rt.dl1_repeats()), (7, 15));
        let lat = cfg.latency;
        let cold = lat.issue_cycles + lat.il1_miss + lat.dl1_miss;
        let repeats = 7 * (lat.issue_cycles + lat.il1_hit) + 15 * lat.dl1_hit;
        let want = oracle(&cfg, &trace, 0, 20, 3);
        assert!(want.iter().all(|&t| t == cold + repeats), "{want:?}");
        for width in [1, 7, 16] {
            let par = Parallelism::serial().batch_width(width);
            assert_eq!(
                campaign_slice_with(&cfg, &trace, 0, 20, 3, &par),
                want,
                "width={width}"
            );
        }
    }

    #[test]
    fn warm_resolved_run_matches_warm_run() {
        // No flush between runs: the second and third runs start from the
        // state the previous one left, so the first access of each cache
        // may hit, and LRU stamps carry over.
        let trace = interleaved_repeats(60);
        let (two_way, four_way) = (
            CacheGeometry::new(512, 2, 32).unwrap(),
            CacheGeometry::new(1024, 4, 32).unwrap(),
        );
        for (geometry, placement, replacement) in [
            (
                two_way,
                PlacementPolicy::RandomHash,
                ReplacementPolicy::Random,
            ),
            (two_way, PlacementPolicy::Modulo, ReplacementPolicy::Lru),
            (
                four_way,
                PlacementPolicy::RandomHash,
                ReplacementPolicy::Lru,
            ),
            (
                four_way,
                PlacementPolicy::RandomHash,
                ReplacementPolicy::Fifo,
            ),
        ] {
            let cfg = uneven_latency(PlatformConfig {
                il1: geometry,
                dl1: geometry,
                placement,
                replacement,
                ..PlatformConfig::paper_default()
            });
            let rt = ResolvedTrace::resolve(&cfg, &trace);
            let mut plain = Platform::for_run(&cfg, 8);
            let mut resolved = Platform::for_run(&cfg, 8);
            for _ in 0..3 {
                assert_eq!(plain.run(&trace), resolved.run_resolved(&rt), "{cfg:?}");
            }
            // Same misses; the hit counters skip the dropped repeats.
            for (p, r, dropped) in [
                (plain.il1(), resolved.il1(), rt.il1_repeats()),
                (plain.dl1(), resolved.dl1(), rt.dl1_repeats()),
            ] {
                assert_eq!(p.stats().misses, r.stats().misses);
                assert_eq!(p.stats().hits, r.stats().hits + 3 * dropped);
            }
        }
    }

    #[test]
    #[should_panic(expected = "different geometry")]
    fn resolved_trace_rejects_mismatched_geometry() {
        let cfg = PlatformConfig::paper_default();
        let trace = sym_trace("AB", 1);
        let rt = ResolvedTrace::resolve(&cfg, &trace);
        let mut other = cfg;
        other.dl1 = CacheGeometry::new(4096, 2, 64).unwrap();
        Platform::for_run(&other, 0).run_resolved(&rt);
    }

    #[test]
    fn batch_platform_matches_serial_runs() {
        let cfg = PlatformConfig::paper_default();
        let trace = sym_trace("ABCDEFGHIJKLMNOPQRSTUVWXYZ", 12);
        let rt = ResolvedTrace::resolve(&cfg, &trace);
        let seeds: Vec<u64> = (0..9).map(|i| derive_seed(31, i)).collect();
        let mut batch = BatchPlatform::new(&cfg, &seeds);
        let batched = batch.run_resolved(&rt).to_vec();
        assert_eq!(batched, oracle(&cfg, &trace, 0, 9, 31));
        // Reseeding the same batch for the next pass stays equivalent.
        let seeds2: Vec<u64> = (9..12).map(|i| derive_seed(31, i)).collect();
        batch.reseed(&seeds2);
        assert_eq!(batch.width(), 3);
        let batched2 = batch.run_resolved(&rt).to_vec();
        assert_eq!(batched2, oracle(&cfg, &trace, 9, 3, 31));
    }

    #[test]
    fn compiled_campaign_steps_match_the_oracle() {
        // Convergence-shaped draws (an initial block, then short
        // extensions) on every kernel: fastpath (2-way random), the
        // general batch engine (4-way, LRU) and the serial loop (width 1).
        let trace = sym_trace("ABCDEFGHIJKLMNOPQRSTUVWXYZ", 12);
        let four_way = PlatformConfig {
            il1: CacheGeometry::new(4096, 4, 32).unwrap(),
            dl1: CacheGeometry::new(4096, 4, 32).unwrap(),
            ..PlatformConfig::paper_default()
        };
        for cfg in [
            PlatformConfig::paper_default(),
            four_way,
            PlatformConfig::deterministic(),
        ] {
            let want = oracle(&cfg, &trace, 0, 733, 61);
            for width in [1, 2, 7, 16, 64] {
                let par = Parallelism::serial().batch_width(width);
                let mut compiled = CompiledCampaign::new(&cfg, &trace, 61, &par);
                let mut stepped = compiled.slice(0, 300);
                while stepped.len() < want.len() {
                    let step = 100.min(want.len() - stepped.len());
                    stepped.extend(compiled.slice(stepped.len(), step));
                }
                assert_eq!(stepped, want, "{cfg:?} width={width}");
                // Slices need not be contiguous: every pass reseeds.
                assert_eq!(compiled.slice(17, 5), want[17..22], "width={width}");
            }
        }
    }

    #[test]
    fn batch_width_builder_clamps_to_one() {
        assert_eq!(Parallelism::serial().batch_width(0).batch_width, 1);
        assert_eq!(Parallelism::serial().batch_width, DEFAULT_BATCH_WIDTH);
    }

    #[test]
    fn run_separates_instruction_and_data() {
        // One instruction fetch and one read to the same line id: they go to
        // different caches, so both miss.
        let cfg = PlatformConfig::paper_default();
        let mut p = Platform::for_run(&cfg, 1);
        let t: Trace = [Access::fetch(0x100), Access::read(0x100)]
            .into_iter()
            .collect();
        let cycles = p.run_randomized(&t, 5);
        assert_eq!(cycles, 200, "two cold misses at 100 cycles each");
        assert_eq!(p.il1().stats().misses, 1);
        assert_eq!(p.dl1().stats().misses, 1);
    }

    #[test]
    fn hits_cost_hit_latency() {
        let cfg = PlatformConfig::paper_default();
        let mut p = Platform::for_run(&cfg, 1);
        let t: Trace = [Access::read(0x40), Access::read(0x40), Access::read(0x40)]
            .into_iter()
            .collect();
        let cycles = p.run_randomized(&t, 5);
        assert_eq!(cycles, 100 + 1 + 1);
    }

    #[test]
    fn issue_cycles_add_per_instruction() {
        let mut cfg = PlatformConfig::paper_default();
        cfg.latency.issue_cycles = 3;
        let mut p = Platform::for_run(&cfg, 1);
        let t: Trace = [Access::fetch(0x0), Access::fetch(0x4)]
            .into_iter()
            .collect();
        // First fetch misses (100), second hits same line (1), plus 2*3 issue.
        assert_eq!(p.run_randomized(&t, 5), 100 + 1 + 6);
    }

    #[test]
    fn warm_run_is_faster_than_cold() {
        let cfg = PlatformConfig::paper_default();
        let mut p = Platform::for_run(&cfg, 1);
        let trace = sym_trace("ABCD", 10);
        let cold = p.run_randomized(&trace, 77);
        let warm = p.run(&trace); // no flush
        assert!(warm < cold, "warm {warm} vs cold {cold}");
    }

    #[test]
    fn mbpta_compliance_flag() {
        assert!(PlatformConfig::paper_default().is_mbpta_compliant());
        assert!(!PlatformConfig::deterministic().is_mbpta_compliant());
    }
}
