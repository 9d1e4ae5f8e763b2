//! The campaign kernel: one layout at a time, simulating only the cache
//! sets that can evict.
//!
//! Under a run's placement seed every line of the trace maps to one set.
//! A set that holds at most W of the trace's lines (W = ways) never
//! evicts: each of its lines misses on its first access and hits ever
//! after, and no victim is ever drawn. Only the *over-full* sets, holding
//! more than W lines, can evict, so only their accesses are simulated.
//! They share the cache's one replacement RNG stream, so they replay
//! together in trace order, which keeps every draw where
//! `Cache::access_line` makes it. When no over-full set holds a line
//! accessed twice, every access to them misses whatever the draws, and
//! nothing is replayed at all.
//!
//! Each cache compiles its share of the resolved trace once per campaign
//! ([`CompiledCache`]): dense line ids, its own op list, and each line's
//! access positions. Per run it hashes each distinct line once with
//! `PlacementPolicy::set_of`, counts lines per set, and replays the
//! over-full sets if it must: from the position lists when their accesses
//! are few, by one filtered pass over the op list otherwise.

use std::collections::HashMap;

use mbcr_cache::{PlacementPolicy, ReplacementPolicy};
use mbcr_rng::{derive_seed, Rng64, Xoshiro256PlusPlus};
use mbcr_trace::LineId;

use crate::{PlatformConfig, ResolvedTrace};

/// `replay_set` entry of a line whose set never evicts.
const NO_REPLAY: usize = usize::MAX;

/// An empty way in the replayed sets' tag store (never a dense id).
const EMPTY: u32 = u32::MAX;

/// A replay gathers its accesses from the position lists when they are
/// fewer than one in `GATHER_BELOW` of the cache's ops; sorting them then
/// costs less than one filtered pass over the whole op list.
const GATHER_BELOW: usize = 8;

/// How a run's misses were counted, one variant per branch of the kernel,
/// so the tests can pin each branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Replay {
    /// No set held more than W lines.
    NoOverfullSet,
    /// No over-full set held a line accessed twice: every access to one
    /// misses.
    NoReuse,
    /// Over-full sets replayed from their lines' position lists.
    Gathered,
    /// Over-full sets replayed by one filtered pass over the op list.
    Filtered,
}

/// One cache's share of a resolved trace, compiled once per campaign,
/// with the scratch state its runs reuse.
#[derive(Debug, Clone)]
pub(crate) struct CompiledCache {
    sets: u64,
    placement: PlacementPolicy,
    /// This cache's index in a run's seed derivation (0 = IL1, 1 = DL1),
    /// as in `Platform::for_run`.
    salt: u64,
    /// Distinct lines, by dense id.
    lines: Vec<LineId>,
    /// This cache's accesses as dense ids, in trace order.
    ops: Vec<u32>,
    /// Line `id` is accessed at `ops` positions
    /// `positions[starts[id]..starts[id + 1]]`, in ascending order.
    starts: Vec<usize>,
    positions: Vec<u32>,
    /// The lines accessed more than once: only a set holding one of them
    /// ever replays.
    reused: Vec<u32>,
    /// Each line's set in the current run.
    set_of: Vec<usize>,
    /// Lines per set in the current run; all zero between runs.
    lines_in_set: Vec<u32>,
    /// Each line's set when that set is over-full, else [`NO_REPLAY`].
    replay_set: Vec<usize>,
    /// The accesses a run replays, as dense ids in trace order.
    replayed: Vec<u32>,
    ways: Ways,
}

/// The tag store of the sets a run replays.
#[derive(Debug, Clone)]
struct Ways {
    ways: usize,
    replacement: ReplacementPolicy,
    /// `tags[set * ways + way]`: a dense id or [`EMPTY`].
    tags: Vec<u32>,
    /// When each way was last stamped, in replay order: its fill under
    /// FIFO, its last access under LRU.
    stamps: Vec<u32>,
}

impl Ways {
    /// `Cache::access_line` on dense line `id` of `set`, at replay index
    /// `stamp`: a hit, or a miss that fills the first empty way, else the
    /// way a Random draw or the smallest LRU/FIFO stamp picks. Returns
    /// whether it missed.
    #[inline]
    fn access(&mut self, rng: &mut Xoshiro256PlusPlus, id: u32, set: usize, stamp: u32) -> bool {
        let base = set * self.ways;
        let tags = &mut self.tags[base..base + self.ways];
        if let Some(way) = tags.iter().position(|&t| t == id) {
            if self.replacement == ReplacementPolicy::Lru {
                self.stamps[base + way] = stamp;
            }
            return false;
        }
        let victim = match tags.iter().position(|&t| t == EMPTY) {
            Some(way) => way,
            None => match self.replacement {
                ReplacementPolicy::Random => rng.below_usize(self.ways),
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    let stamps = &self.stamps[base..base + self.ways];
                    (0..self.ways)
                        .min_by_key(|&way| stamps[way])
                        .expect("ways > 0")
                }
            },
        };
        tags[victim] = id;
        self.stamps[base + victim] = stamp;
        true
    }
}

impl CompiledCache {
    /// Compiles the IL1 (`instr`) or DL1 share of `rt` for that cache of
    /// `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the cache's share of the trace reaches 2^32 accesses.
    pub(crate) fn new(cfg: &PlatformConfig, rt: &ResolvedTrace, instr: bool) -> Self {
        let mut ids: HashMap<LineId, u32> = HashMap::new();
        let mut lines = Vec::new();
        let ops: Vec<u32> = rt
            .ops()
            .iter()
            .filter(|op| op.instr == instr)
            .map(|op| {
                *ids.entry(op.line).or_insert_with(|| {
                    lines.push(op.line);
                    (lines.len() - 1) as u32
                })
            })
            .collect();
        // Positions and dense ids are u32, and EMPTY stays above every id.
        assert!(
            ops.len() < EMPTY as usize,
            "a cache's share of the trace must stay below 2^32 accesses"
        );
        let mut starts = vec![0usize; lines.len() + 1];
        for &id in &ops {
            starts[id as usize + 1] += 1;
        }
        for id in 0..lines.len() {
            starts[id + 1] += starts[id];
        }
        let mut next = starts.clone();
        let mut positions = vec![0u32; ops.len()];
        for (pos, &id) in ops.iter().enumerate() {
            positions[next[id as usize]] = pos as u32;
            next[id as usize] += 1;
        }
        let reused = (0..lines.len())
            .filter(|&id| starts[id + 1] - starts[id] > 1)
            .map(|id| id as u32)
            .collect();
        let geometry = if instr { cfg.il1 } else { cfg.dl1 };
        let sets = geometry.sets();
        let ways = geometry.ways() as usize;
        Self {
            sets,
            placement: cfg.placement,
            salt: u64::from(!instr),
            set_of: vec![0; lines.len()],
            lines_in_set: vec![0; sets as usize],
            replay_set: vec![NO_REPLAY; lines.len()],
            replayed: Vec::new(),
            ways: Ways {
                ways,
                replacement: cfg.replacement,
                tags: vec![EMPTY; sets as usize * ways],
                stamps: vec![0; sets as usize * ways],
            },
            lines,
            ops,
            starts,
            positions,
            reused,
        }
    }

    /// Accesses this cache simulates per run.
    pub(crate) fn len(&self) -> u64 {
        self.ops.len() as u64
    }

    /// This cache's misses in the run seeded `run_seed`: exactly those of
    /// its flushed `Cache` in `Platform::for_run(cfg, run_seed)` replaying
    /// the resolved trace.
    ///
    /// Without a replay every line misses exactly once: a line whose set
    /// holds at most W lines misses on its first access only, and a line
    /// accessed once misses once wherever it maps.
    pub(crate) fn misses(&mut self, run_seed: u64) -> (u64, Replay) {
        let lines = self.lines.len() as u64;
        if self.reused.is_empty() {
            return (lines, Replay::NoReuse);
        }
        let cache_seed = derive_seed(run_seed, self.salt);
        let placement_seed = derive_seed(cache_seed, 0);
        let ways = self.ways.ways as u32;
        let mut overfull = false;
        for (set, &line) in self.set_of.iter_mut().zip(&self.lines) {
            *set = self.placement.set_of(line, self.sets, placement_seed);
            let count = self.lines_in_set[*set] + 1;
            self.lines_in_set[*set] = count;
            overfull |= count > ways;
        }
        let replay = overfull
            && self
                .reused
                .iter()
                .any(|&id| self.lines_in_set[self.set_of[id as usize]] > ways);
        if !replay {
            for &set in &self.set_of {
                self.lines_in_set[set] = 0;
            }
            let why = if overfull {
                Replay::NoReuse
            } else {
                Replay::NoOverfullSet
            };
            return (lines, why);
        }

        let (mut misses, mut replayed) = (0u64, 0usize);
        for (id, &set) in self.set_of.iter().enumerate() {
            let over = self.lines_in_set[set] > ways;
            misses += u64::from(!over);
            replayed += usize::from(over) * (self.starts[id + 1] - self.starts[id]);
            self.replay_set[id] = if over { set } else { NO_REPLAY };
        }
        for &set in &self.set_of {
            self.lines_in_set[set] = 0;
        }
        // The replayed accesses' dense ids, in trace order.
        self.replayed.clear();
        let gather = replayed * GATHER_BELOW < self.ops.len();
        if gather {
            for (id, &set) in self.replay_set.iter().enumerate() {
                if set != NO_REPLAY {
                    self.replayed
                        .extend_from_slice(&self.positions[self.starts[id]..self.starts[id + 1]]);
                }
            }
            self.replayed.sort_unstable();
            for at in &mut self.replayed {
                *at = self.ops[*at as usize];
            }
        } else {
            // Branch-free: every id is written, and kept when it replays.
            self.replayed.resize(self.ops.len(), 0);
            let mut kept = 0;
            for &id in &self.ops {
                self.replayed[kept] = id;
                kept += usize::from(self.replay_set[id as usize] != NO_REPLAY);
            }
            self.replayed.truncate(kept);
        }
        let mut rng = Xoshiro256PlusPlus::from_seed(derive_seed(cache_seed, 1));
        let ways = &mut self.ways;
        for &set in self.replay_set.iter().filter(|&&set| set != NO_REPLAY) {
            ways.tags[set * ways.ways..(set + 1) * ways.ways].fill(EMPTY);
        }
        // An access's index in the replay orders it like its trace position.
        for (stamp, &id) in self.replayed.iter().enumerate() {
            let set = self.replay_set[id as usize];
            misses += u64::from(ways.access(&mut rng, id, set, stamp as u32));
        }
        let how = if gather {
            Replay::Gathered
        } else {
            Replay::Filtered
        };
        (misses, how)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledCampaign, LatencyConfig, Parallelism, Platform};
    use mbcr_cache::CacheGeometry;
    use mbcr_trace::{Access, Trace};

    /// The reference stream: runs `0 .. runs`, one `Platform` run per seed
    /// `derive_seed(master_seed, i)` on the unresolved trace.
    fn oracle(cfg: &PlatformConfig, trace: &Trace, runs: usize, master_seed: u64) -> Vec<u64> {
        let mut platform = Platform::for_run(cfg, 0);
        (0..runs as u64)
            .map(|i| platform.run_randomized(trace, derive_seed(master_seed, i)))
            .collect()
    }

    /// `len` accesses over `footprint` byte addresses, one fetch, read or
    /// write in turn.
    fn mixed_trace(len: usize, footprint: u64, seed: u64) -> Trace {
        let mut x = seed | 1;
        let mut t = Trace::new();
        for i in 0..len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x % footprint) * 8;
            match i % 3 {
                0 => t.push(Access::fetch(addr)),
                1 => t.push(Access::read(addr)),
                _ => t.push(Access::write(addr)),
            }
        }
        t
    }

    /// A DL1-only trace: each entry reads line `id` (32-byte lines).
    fn reads(ids: impl IntoIterator<Item = u64>) -> Trace {
        ids.into_iter().map(|id| Access::read(id * 32)).collect()
    }

    /// Modulo placement on the paper geometry (64 sets, 2 ways): line `id`
    /// maps to set `id % 64` in every run, so a test picks its over-full
    /// sets, while Random replacement still draws from each run's stream.
    fn modulo_random() -> PlatformConfig {
        PlatformConfig {
            placement: PlacementPolicy::Modulo,
            ..PlatformConfig::paper_default()
        }
    }

    /// Asserts that every one of `runs` runs counts its DL1 misses by
    /// `branch`, and that the campaign matches the oracle.
    fn assert_branch(cfg: &PlatformConfig, trace: &Trace, runs: usize, branch: Replay) {
        let rt = ResolvedTrace::resolve(cfg, trace);
        let mut dl1 = CompiledCache::new(cfg, &rt, false);
        for i in 0..runs as u64 {
            assert_eq!(dl1.misses(derive_seed(5, i)).1, branch, "run {i}");
        }
        let mut compiled = CompiledCampaign::new(cfg, trace, 5, &Parallelism::serial());
        assert_eq!(compiled.slice(0, runs), oracle(cfg, trace, runs, 5));
    }

    #[test]
    fn no_overfull_set_charges_one_miss_per_line() {
        // 64 reused lines, one per set.
        let cfg = modulo_random();
        let trace = reads((0..5).flat_map(|_| 0..64));
        assert_branch(&cfg, &trace, 32, Replay::NoOverfullSet);
        let rt = ResolvedTrace::resolve(&cfg, &trace);
        let mut dl1 = CompiledCache::new(&cfg, &rt, false);
        assert_eq!(dl1.misses(1).0, 64);
        // Two lines never fill a 2-way set, wherever they map.
        let pair = reads((0..50).flat_map(|_| [3, 900]));
        assert_branch(
            &PlatformConfig::paper_default(),
            &pair,
            64,
            Replay::NoOverfullSet,
        );
    }

    #[test]
    fn overfull_sets_without_reuse_skip_the_replay() {
        // Set 0 holds lines 0, 64 and 128, each read once; lines 1..=10 are
        // reused in sets of their own.
        let mut ids: Vec<u64> = (0..20).flat_map(|_| 1..=10).collect();
        ids.splice(30..30, [0, 64]);
        ids.push(128);
        assert_branch(&modulo_random(), &reads(ids), 32, Replay::NoReuse);
        // No line read twice at all: every access misses in every layout.
        assert_branch(
            &PlatformConfig::paper_default(),
            &reads(0..300),
            32,
            Replay::NoReuse,
        );
    }

    /// Sets 0 and 1 each hold three lines, reused and interleaved, so the
    /// two sets' victim draws alternate in the cache's one RNG stream.
    fn two_thrashing_sets(rounds: usize) -> Vec<u64> {
        (0..rounds)
            .flat_map(|r| {
                let a = [0, 64, 128][r % 3];
                let b = [1, 65, 129][(r * 2) % 3];
                [a, b]
            })
            .collect()
    }

    #[test]
    fn few_replayed_accesses_are_gathered_from_their_positions() {
        // 24 accesses in the over-full sets among ~2 000 to sets 2..64.
        let mut ids: Vec<u64> = (0..32).flat_map(|_| 2..64).collect();
        for (k, id) in two_thrashing_sets(12).into_iter().enumerate() {
            ids.insert(k * 80, id);
        }
        assert_branch(&modulo_random(), &reads(ids), 64, Replay::Gathered);
    }

    #[test]
    fn many_replayed_accesses_are_filtered_from_the_op_list() {
        let mut ids = two_thrashing_sets(300);
        ids.extend(2..20);
        assert_branch(&modulo_random(), &reads(ids), 64, Replay::Filtered);
    }

    #[test]
    fn matches_the_platform_oracle_exactly() {
        let four_way = CacheGeometry::new(4096, 4, 32).expect("valid geometry");
        let configs = [
            PlatformConfig::paper_default(),
            PlatformConfig {
                replacement: ReplacementPolicy::Lru,
                ..PlatformConfig::paper_default()
            },
            PlatformConfig {
                replacement: ReplacementPolicy::Fifo,
                ..PlatformConfig::paper_default()
            },
            PlatformConfig {
                il1: four_way,
                dl1: four_way,
                ..PlatformConfig::paper_default()
            },
        ];
        for base in configs {
            for (placement, footprint) in [
                (PlacementPolicy::RandomHash, 40u64),
                (PlacementPolicy::RandomHash, 900),
                (PlacementPolicy::Modulo, 300),
            ] {
                let cfg = PlatformConfig { placement, ..base };
                let trace = mixed_trace(400, footprint * 32, 11);
                let want = oracle(&cfg, &trace, 99, 99);
                for width in [1usize, 2, 7, 8, 9, 16, 33] {
                    let par = Parallelism::serial().batch_width(width);
                    let mut compiled = CompiledCampaign::new(&cfg, &trace, 99, &par);
                    let mut got = Vec::new();
                    while got.len() < want.len() {
                        let runs = width.min(want.len() - got.len());
                        got.extend(compiled.slice(got.len(), runs));
                    }
                    assert_eq!(got, want, "{cfg:?} footprint={footprint} width={width}");
                }
            }
        }
    }

    #[test]
    fn line_ids_beyond_u32_and_misses_cheaper_than_hits_stay_exact() {
        // Lines at and above 2^32, in a trace whose sets overflow.
        let mut trace = mixed_trace(300, 900 * 32, 3);
        for k in 0..200u64 {
            let line = (1u64 << 32) + (k * 7) % 150;
            trace.push(if k % 2 == 0 {
                Access::fetch(line * 32)
            } else {
                Access::read(line * 32)
            });
        }
        trace.push(Access::read(u64::MAX));
        let inverted = LatencyConfig {
            issue_cycles: 2,
            il1_hit: 9,
            il1_miss: 3,
            dl1_hit: 40,
            dl1_miss: 0,
        };
        for latency in [LatencyConfig::paper_default(), inverted] {
            let cfg = PlatformConfig {
                latency,
                ..PlatformConfig::paper_default()
            };
            let mut compiled = CompiledCampaign::new(&cfg, &trace, 8, &Parallelism::serial());
            assert_eq!(
                compiled.slice(0, 64),
                oracle(&cfg, &trace, 64, 8),
                "{latency:?}"
            );
        }
    }
}
