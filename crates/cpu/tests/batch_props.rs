//! Property test for the campaign invariant: the compiled campaign must be
//! bit-identical to the serial reference stream (one `Platform` run per
//! seed) across random geometries × placement/replacement policies ×
//! latencies × batch widths × chunk cut points — including widths that do
//! not divide the chunk, chunks that do not divide the campaign, unaligned
//! slice starts, and one compiled campaign sliced step by step. Traces mix
//! in runs of same-line accesses, which the resolution drops and charges as
//! hits, so the reference replays the unresolved trace. Footprints range
//! from below the cache's line count, where few sets hold more lines than
//! ways, to three times it, and mix in lines accessed only once, so the
//! kernel's every branch (no replay, a skipped replay, a replay gathered or
//! filtered) is reached.
//!
//! Each case derives everything (geometries, policies, trace, campaign
//! shape) from one generated seed via SplitMix64, so a failing case
//! reproduces from the reported seed alone.

use mbcr_cache::{CacheGeometry, PlacementPolicy, ReplacementPolicy};
use mbcr_cpu::{campaign_slice_with, CompiledCampaign, Parallelism, Platform, PlatformConfig};
use mbcr_rng::{derive_seed, Rng64, SplitMix64};
use mbcr_trace::{Access, AccessKind, Trace};
use proptest::prelude::*;

fn gen_geometry(g: &mut SplitMix64) -> CacheGeometry {
    let sets = 1u64 << (g.next_u64() % 6); // 1..32 sets
    let ways = 1 + (g.next_u64() % 4); // 1..4 ways
    let line = 32u64 << (g.next_u64() % 2); // 32 or 64 B lines
    CacheGeometry::new(sets * ways * line, ways as u32, line).expect("sets are a power of two")
}

fn gen_config(g: &mut SplitMix64) -> PlatformConfig {
    let placement = if g.next_u64().is_multiple_of(2) {
        PlacementPolicy::Modulo
    } else {
        PlacementPolicy::RandomHash
    };
    let replacement = match g.next_u64() % 3 {
        0 => ReplacementPolicy::Random,
        1 => ReplacementPolicy::Lru,
        _ => ReplacementPolicy::Fifo,
    };
    let mut cfg = PlatformConfig::paper_default();
    cfg.il1 = gen_geometry(g);
    cfg.dl1 = gen_geometry(g);
    cfg.placement = placement;
    cfg.replacement = replacement;
    // Issue cycles and unequal hit costs, so a dropped repeat charged the
    // wrong cost shows in the cycle counts; now and then a miss costs less
    // than a hit.
    let lat = &mut cfg.latency;
    lat.issue_cycles = g.next_u64() % 4;
    lat.il1_hit = 1 + g.next_u64() % 4;
    lat.dl1_hit = 1 + g.next_u64() % 4;
    lat.il1_miss = miss_cost(g, lat.il1_hit);
    lat.dl1_miss = miss_cost(g, lat.dl1_hit);
    cfg
}

/// A miss latency: usually well above `hit`, one time in four below it.
fn miss_cost(g: &mut SplitMix64, hit: u64) -> u64 {
    if g.next_u64().is_multiple_of(4) {
        g.next_u64() % hit
    } else {
        hit + 20 + g.next_u64() % 80
    }
}

fn gen_trace(g: &mut SplitMix64, cfg: &PlatformConfig) -> Trace {
    // From one line to three times the larger cache's lines: below its
    // line count few sets overflow, above it conflict misses (and thus
    // replacement RNG draws) are common.
    let lines = cfg.il1.lines().max(cfg.dl1.lines());
    let foot = 1 + g.next_u64() % (3 * lines);
    let len = 100 + (g.next_u64() % 400) as usize;
    let mut trace = Trace::new();
    // Lines past the footprint, each accessed once.
    let mut fresh = foot;
    while trace.len() < len {
        if g.next_u64().is_multiple_of(5) {
            trace.push(if g.next_u64().is_multiple_of(2) {
                Access::fetch(fresh * 64)
            } else {
                Access::read(fresh * 64)
            });
            fresh += 1;
            continue;
        }
        // Sub-line offsets exercise the Address → LineId quantization.
        let addr = (g.next_u64() % foot) * 32 + g.next_u64() % 32;
        let access = match g.next_u64() % 3 {
            0 => Access::fetch(addr),
            1 => Access::read(addr),
            _ => Access::write(addr),
        };
        trace.push(access);
        if g.next_u64().is_multiple_of(3) {
            // A run of same-line accesses of the same cache, at other
            // offsets within the 32-byte line, sometimes with accesses of
            // the other cache in between.
            let line = addr & !31;
            for _ in 0..1 + g.next_u64() % 8 {
                if g.next_u64().is_multiple_of(4) {
                    let other = (g.next_u64() % foot) * 32;
                    trace.push(if access.kind == AccessKind::InstrFetch {
                        Access::read(other)
                    } else {
                        Access::fetch(other)
                    });
                }
                let addr = line + g.next_u64() % 32;
                trace.push(match access.kind {
                    AccessKind::InstrFetch => Access::fetch(addr),
                    _ if g.next_u64().is_multiple_of(2) => Access::read(addr),
                    _ => Access::write(addr),
                });
            }
        }
    }
    trace
}

/// The serial reference stream: runs `start .. start + runs`, one
/// `Platform` run per seed `derive_seed(master_seed, i)`.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_campaigns_match_the_serial_stream(case_seed in 0u64..u64::MAX,) {
        let mut g = SplitMix64::new(case_seed);
        let cfg = gen_config(&mut g);
        let trace = gen_trace(&mut g, &cfg);
        let master_seed = g.next_u64();
        let start = (g.next_u64() % 300) as usize;
        let runs = 20 + (g.next_u64() % 120) as usize;

        let serial = oracle(&cfg, &trace, start, runs, master_seed);

        for width in [1usize, 3, 7, 64] {
            // Plain batched slice (threads = 1 isolates the width knob).
            let par = Parallelism::serial().batch_width(width);
            let batched = campaign_slice_with(&cfg, &trace, start, runs, master_seed, &par);
            prop_assert!(
                batched == serial,
                "slice mismatch width={} seed={}", width, case_seed
            );

            // One compiled stream drawn in convergence-shaped steps (a
            // first block, then short extensions): kernel state carried
            // across slices must not leak into the stream.
            let mut compiled = CompiledCampaign::new(&cfg, &trace, master_seed, &par);
            let mut stepped = compiled.slice(start, runs / 3);
            while stepped.len() < runs {
                let step = (1 + (g.next_u64() % 40) as usize).min(runs - stepped.len());
                stepped.extend(compiled.slice(start + stepped.len(), step));
            }
            prop_assert!(stepped == serial, "stepped mismatch width={} seed={}", width, case_seed);

            // Chunked through the checkpoint grid, with a cut the width
            // need not divide; the sink must see contiguous grid-aligned
            // chunks that concatenate to the same stream.
            let chunk_runs = 1 + (g.next_u64() % (runs as u64 + 20)) as usize;
            let mut sunk: Vec<u64> = Vec::new();
            let mut next_at = start;
            let mut grid_ok = true;
            let chunked = CompiledCampaign::new(&cfg, &trace, master_seed, &par).slice_chunked(
                start,
                runs,
                chunk_runs,
                |at, chunk| {
                    grid_ok &= at == next_at;
                    next_at = at + chunk.len();
                    sunk.extend_from_slice(chunk);
                    true
                },
            );
            prop_assert!(grid_ok, "contiguous chunks width={} seed={}", width, case_seed);
            prop_assert!(
                chunked == serial,
                "chunked mismatch width={} chunk_runs={} seed={}", width, chunk_runs, case_seed
            );
            prop_assert!(sunk == serial, "sink mismatch width={} seed={}", width, case_seed);

            // Batching composes with intra-campaign threading.
            let par = Parallelism {
                threads: 2 + (g.next_u64() % 3) as usize,
                min_parallel_runs: 2,
                batch_width: width,
            };
            let threaded = campaign_slice_with(&cfg, &trace, start, runs, master_seed, &par);
            prop_assert!(
                threaded == serial,
                "threaded mismatch width={} seed={}", width, case_seed
            );
        }
    }
}
