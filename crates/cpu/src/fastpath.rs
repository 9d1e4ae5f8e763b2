//! Specialized one-pass campaign kernel for the paper-shaped platform.
//!
//! The general batched engine ([`BatchPlatform`](crate::BatchPlatform))
//! replays a resolved trace against `W` layouts with full `Cache` semantics
//! per layout. For the configuration every paper experiment uses — 2-way
//! set-associative caches with random replacement — almost all of that
//! per-access work can be precomputed or packed away:
//!
//! * **Placement hashes move out of the access loop.** A trace touches a
//!   small set of distinct lines, and under a fixed placement seed each
//!   line's set index is a constant. Per pass, a `distinct-lines × W` table
//!   of set indices is built once, and the access loop just reads it.
//! * **A 2-way set packs into one `u64`.** Tags are stored as two `u32`
//!   halves (`u32::MAX` = invalid way), so the whole set loads with a
//!   single read and the hit/empty tests are plain integer compares. The
//!   pack is valid whenever every line id fits in a `u32` — checked up
//!   front, and with 32-byte lines that holds for any address below 128 GB.
//! * **Cycles reduce to miss counts.** A run's execution time is an affine
//!   function of its per-cache miss counts (`base + Σ misses × (miss_cost −
//!   hit_cost)`), so the loop only increments one counter per layout and
//!   the times materialize at the end of the pass. `base` charges every
//!   access its hit cost (plus issue cycles for fetches), including the
//!   same-line repeats [`ResolvedTrace`] dropped, which the loop never
//!   sees.
//!
//! On x86-64 hosts with AVX-512 (F+DQ+VL+BMI2) the inner loop additionally
//! processes 8 layouts per instruction batch: one gather fetches 8 packed
//! sets, one dword compare tests all 16 ways, and an all-hit batch — the
//! common case — retires with no stores at all. Misses fall back to a
//! scalar fixup that draws each conflicted layout's RNG in layout order,
//! which is what keeps the output bit-identical to the serial stream (see
//! the equivalence tests below and the property suite in `tests/`).
//!
//! Everything observable — hit/miss decisions, RNG stream consumption,
//! returned cycle counts — matches `Platform::run_randomized` exactly;
//! [`FastCampaign::try_new`] simply refuses configurations where the
//! specialization does not apply and the caller stays on the general
//! engine.

use std::collections::HashMap;

use mbcr_rng::{derive_seed, mix64, Rng64, Xoshiro256PlusPlus};

use mbcr_cache::{PlacementPolicy, ReplacementPolicy};

use crate::{PlatformConfig, ResolvedTrace};

/// Invalid-way marker in the packed `u32` tag representation. `Cache` uses
/// `u64::MAX`; a line id never reaches it, and `try_new` guarantees ids
/// also stay below `u32::MAX` so the truncated marker stays unambiguous.
const INV32: u32 = u32::MAX;

/// High bit of a packed op: set for instruction fetches.
const INSTR_BIT: u32 = 1 << 31;

/// Per-cache state of one campaign pass: the packed sets of all `W`
/// layouts, their replacement RNG streams, and the per-layout miss tally.
#[derive(Debug, Clone)]
struct SideState {
    /// Distinct line ids of this cache, indexed by dense id.
    lines: Vec<u32>,
    sets: usize,
    /// Seed-derivation index of this cache (0 = IL1, 1 = DL1).
    salt: u64,
    /// Per-pass placement table: `table[id * width + l]` is the packed-set
    /// index (`l * sets + set`) of dense line `id` in layout `l`.
    table: Vec<u32>,
    /// Packed 2-way sets, layout-major: way 0 in the low half, way 1 in
    /// the high half, [`INV32`] marking an empty way.
    pairs: Vec<u64>,
    rngs: Vec<Xoshiro256PlusPlus>,
    misses: Vec<u64>,
}

impl SideState {
    /// Rebuilds this cache's state for a pass over layouts seeded by
    /// `run_seeds`: flushed sets, fresh RNG streams, and the placement
    /// table under each layout's derived placement seed — all
    /// allocation-reusing, matching a standalone `Cache::reseed` chain.
    fn reseed(&mut self, placement: PlacementPolicy, run_seeds: &[u64]) {
        let width = run_seeds.len();
        let mask = (self.sets - 1) as u64;
        self.rngs.clear();
        self.table.clear();
        self.table.resize(self.lines.len() * width, 0);
        for (l, &run_seed) in run_seeds.iter().enumerate() {
            let cache_seed = derive_seed(run_seed, self.salt);
            let placement_seed = derive_seed(cache_seed, 0);
            self.rngs
                .push(Xoshiro256PlusPlus::from_seed(derive_seed(cache_seed, 1)));
            let layout_base = (l * self.sets) as u32;
            match placement {
                PlacementPolicy::Modulo => {
                    for (id, &line) in self.lines.iter().enumerate() {
                        let set = (u64::from(line) & mask) as u32;
                        self.table[id * width + l] = layout_base + set;
                    }
                }
                PlacementPolicy::RandomHash => {
                    for (id, &line) in self.lines.iter().enumerate() {
                        let set = (mix64(u64::from(line) ^ placement_seed) & mask) as u32;
                        self.table[id * width + l] = layout_base + set;
                    }
                }
            }
        }
        self.pairs.clear();
        self.pairs.resize(width * self.sets, u64::MAX);
        self.misses.clear();
        self.misses.resize(width, 0);
    }

    /// Accesses dense line `id` in every layout, counting misses and
    /// filling victims exactly as `Cache::access_line` would (empty way
    /// first, then a random draw from that layout's stream).
    #[inline]
    fn access_scalar(&mut self, id: usize, width: usize) {
        let line = self.lines[id];
        let row = &self.table[id * width..id * width + width];
        for (l, &idx) in row.iter().enumerate() {
            let pair = self.pairs[idx as usize];
            let (t0, t1) = (pair as u32, (pair >> 32) as u32);
            if t0 == line || t1 == line {
                continue;
            }
            let victim = if t0 == INV32 {
                0u32
            } else if t1 == INV32 {
                1
            } else {
                self.rngs[l].below_usize(2) as u32
            };
            let shift = victim * 32;
            let cleared = pair & !(0xFFFF_FFFFu64 << shift);
            self.pairs[idx as usize] = cleared | (u64::from(line) << shift);
            self.misses[l] += 1;
        }
    }
}

/// AVX-512 inner loop: 8 layouts per instruction batch.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{SideState, INV32};
    use mbcr_rng::Rng64;
    use std::arch::x86_64::{
        __m256i, __m512i, _mm256_loadu_si256, _mm512_cmpeq_epi32_mask, _mm512_cvtepu32_epi64,
        _mm512_mask_i64gather_epi64, _mm512_set1_epi32, _mm512_storeu_si512, _pext_u32,
    };

    /// Runtime gate for [`access`]: all four feature sets the kernel uses.
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("bmi2")
    }

    /// Vector twin of [`SideState::access_scalar`]: gathers 8 packed sets,
    /// tests all 16 ways with one dword compare, and touches memory again
    /// only for layouts that missed. Inactive lanes of a partial batch are
    /// masked out of the gather and fed the accessed line as passthrough,
    /// which classifies them as hits — no store, no RNG draw, no miss.
    ///
    /// # Safety
    ///
    /// Caller must ensure [`available`] returned `true`, and that `side`'s
    /// invariants hold (table entries index `pairs`, one RNG and miss slot
    /// per layout) — guaranteed by `SideState::reseed`.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,bmi2")]
    pub unsafe fn access(side: &mut SideState, id: usize, width: usize) {
        let SideState {
            lines,
            table,
            pairs,
            rngs,
            misses,
            ..
        } = side;
        let line = lines[id];
        let row = &table[id * width..id * width + width];
        let pairs_ptr = pairs.as_mut_ptr();
        let linev = _mm512_set1_epi32(line as i32);
        let invv = _mm512_set1_epi32(INV32 as i32);
        let mut l0 = 0usize;
        while l0 < width {
            let lanes = (width - l0).min(8);
            let kmask = if lanes == 8 { 0xff } else { (1u8 << lanes) - 1 };
            let idx: __m512i = if lanes == 8 {
                _mm512_cvtepu32_epi64(_mm256_loadu_si256(row.as_ptr().add(l0).cast::<__m256i>()))
            } else {
                let mut buf = [0u32; 8];
                buf[..lanes].copy_from_slice(&row[l0..]);
                _mm512_cvtepu32_epi64(_mm256_loadu_si256(buf.as_ptr().cast::<__m256i>()))
            };
            let pairv = _mm512_mask_i64gather_epi64(linev, kmask, idx, pairs_ptr.cast(), 8);
            // 16 dword compares; bit pair (2l, 2l+1) is layout l's two ways.
            let hitd = u32::from(_mm512_cmpeq_epi32_mask(pairv, linev));
            let hit8 = _pext_u32(hitd | (hitd >> 1), 0x5555) as u8;
            if hit8 == 0xff {
                l0 += 8;
                continue;
            }
            let emptyd = u32::from(_mm512_cmpeq_epi32_mask(pairv, invv));
            let mut miss = !hit8;
            let mut bases = [0u64; 8];
            _mm512_storeu_si512(bases.as_mut_ptr().cast(), idx);
            // Scalar fixup in ascending layout order, so each conflicted
            // layout draws from its RNG stream exactly when the serial
            // simulation would.
            while miss != 0 {
                let lane = miss.trailing_zeros() as usize;
                miss &= miss - 1;
                let l = l0 + lane;
                let victim = if (emptyd >> (2 * lane)) & 1 != 0 {
                    0usize
                } else if (emptyd >> (2 * lane + 1)) & 1 != 0 {
                    1
                } else {
                    rngs[l].below_usize(2)
                };
                // Little-endian pack: way 0 is the low dword of the pair.
                *pairs_ptr
                    .cast::<u32>()
                    .add(bases[lane] as usize * 2 + victim) = line;
                misses[l] += 1;
            }
            l0 += 8;
        }
    }
}

/// Which inner loop a [`FastCampaign`] runs. Both produce bit-identical
/// results; the choice is made once per campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

fn detect_kernel() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    if avx512::available() {
        return Kernel::Avx512;
    }
    Kernel::Scalar
}

/// A campaign compiled for the specialized 2-way random-replacement
/// kernel: dense line ids, packed op stream, and reusable per-pass state.
#[derive(Debug, Clone)]
pub(crate) struct FastCampaign {
    placement: PlacementPolicy,
    il1: SideState,
    dl1: SideState,
    /// Packed trace: [`INSTR_BIT`] selects the cache, low bits are the
    /// dense line id within it.
    ops: Vec<u32>,
    /// Cycles every run pays regardless of layout (issue + hit costs of
    /// the simulated ops and of the dropped same-line repeats).
    base_cycles: u64,
    /// Extra cycles per IL1 / DL1 miss.
    il1_miss_weight: u64,
    dl1_miss_weight: u64,
    kernel: Kernel,
}

impl FastCampaign {
    /// Compiles `rt` for the specialized kernel, or `None` when the
    /// configuration needs the general engine: any replacement policy but
    /// random, associativity other than 2, hit costs above miss costs, or
    /// line ids too large for the packed `u32` representation.
    pub fn try_new(cfg: &PlatformConfig, rt: &ResolvedTrace) -> Option<Self> {
        if cfg.replacement != ReplacementPolicy::Random
            || cfg.il1.ways() != 2
            || cfg.dl1.ways() != 2
            || cfg.latency.il1_miss < cfg.latency.il1_hit
            || cfg.latency.dl1_miss < cfg.latency.dl1_hit
        {
            return None;
        }
        let mut il1_map: HashMap<u64, u32> = HashMap::new();
        let mut dl1_map: HashMap<u64, u32> = HashMap::new();
        let mut il1_lines = Vec::new();
        let mut dl1_lines = Vec::new();
        let mut ops = Vec::with_capacity(rt.len());
        let mut instr_ops = 0u64;
        for op in rt.ops() {
            // INV32 stays reserved for empty ways, INSTR_BIT for the
            // cache select.
            if op.line.0 >= u64::from(u32::MAX) {
                return None;
            }
            let (map, lines, flag) = if op.instr {
                instr_ops += 1;
                (&mut il1_map, &mut il1_lines, INSTR_BIT)
            } else {
                (&mut dl1_map, &mut dl1_lines, 0)
            };
            let next = lines.len() as u32;
            let id = *map.entry(op.line.0).or_insert_with(|| {
                lines.push(op.line.0 as u32);
                next
            });
            if id >= INSTR_BIT {
                return None;
            }
            ops.push(id | flag);
        }
        let lat = cfg.latency;
        let data_ops = rt.len() as u64 - instr_ops;
        Some(Self {
            placement: cfg.placement,
            il1: SideState {
                lines: il1_lines,
                sets: cfg.il1.sets() as usize,
                salt: 0,
                table: Vec::new(),
                pairs: Vec::new(),
                rngs: Vec::new(),
                misses: Vec::new(),
            },
            dl1: SideState {
                lines: dl1_lines,
                sets: cfg.dl1.sets() as usize,
                salt: 1,
                table: Vec::new(),
                pairs: Vec::new(),
                rngs: Vec::new(),
                misses: Vec::new(),
            },
            ops,
            base_cycles: instr_ops * (lat.issue_cycles + lat.il1_hit)
                + data_ops * lat.dl1_hit
                + rt.repeat_cycles(&lat),
            il1_miss_weight: lat.il1_miss - lat.il1_hit,
            dl1_miss_weight: lat.dl1_miss - lat.dl1_hit,
            kernel: detect_kernel(),
        })
    }

    /// Whether a pass of `width` layouts keeps every packed-set index
    /// within the `u32` placement table entries.
    pub fn supports_width(&self, width: usize) -> bool {
        let sets = self.il1.sets.max(self.dl1.sets) as u64;
        (width as u64).saturating_mul(sets) <= u64::from(u32::MAX)
    }

    /// Simulates runs seeded by `run_seeds` in one trace pass, writing
    /// execution times to `out` in seed order — entry `l` is bit-identical
    /// to `Platform::run_randomized(trace, run_seeds[l])`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != run_seeds.len()`.
    pub fn run_pass(&mut self, run_seeds: &[u64], out: &mut [u64]) {
        assert_eq!(out.len(), run_seeds.len(), "one time slot per run seed");
        let width = run_seeds.len();
        self.il1.reseed(self.placement, run_seeds);
        self.dl1.reseed(self.placement, run_seeds);
        match self.kernel {
            Kernel::Scalar => self.walk_scalar(width),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detect_kernel` only selects Avx512 when every
            // feature the kernel enables is present at runtime.
            Kernel::Avx512 => unsafe { self.walk_avx512(width) },
        }
        for (l, slot) in out.iter_mut().enumerate() {
            *slot = self.base_cycles
                + self.il1_miss_weight * self.il1.misses[l]
                + self.dl1_miss_weight * self.dl1.misses[l];
        }
    }

    fn walk_scalar(&mut self, width: usize) {
        for &op in &self.ops {
            if op & INSTR_BIT != 0 {
                self.il1.access_scalar((op & !INSTR_BIT) as usize, width);
            } else {
                self.dl1.access_scalar(op as usize, width);
            }
        }
    }

    /// # Safety
    ///
    /// Caller must ensure [`avx512::available`] returned `true`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,bmi2")]
    unsafe fn walk_avx512(&mut self, width: usize) {
        for &op in &self.ops {
            if op & INSTR_BIT != 0 {
                avx512::access(&mut self.il1, (op & !INSTR_BIT) as usize, width);
            } else {
                avx512::access(&mut self.dl1, op as usize, width);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LatencyConfig, Platform};
    use mbcr_cache::CacheGeometry;
    use mbcr_trace::{Access, Trace};

    fn paper_cfg() -> PlatformConfig {
        PlatformConfig::paper_default()
    }

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

    #[test]
    fn refuses_non_specializable_configs() {
        let trace = mixed_trace(50, 64, 7);
        let lru = PlatformConfig {
            replacement: ReplacementPolicy::Lru,
            ..paper_cfg()
        };
        assert!(FastCampaign::try_new(&lru, &ResolvedTrace::resolve(&lru, &trace)).is_none());
        let four_way = PlatformConfig {
            il1: CacheGeometry::new(4096, 4, 32).unwrap(),
            ..paper_cfg()
        };
        assert!(
            FastCampaign::try_new(&four_way, &ResolvedTrace::resolve(&four_way, &trace)).is_none()
        );
        let inverted = PlatformConfig {
            latency: LatencyConfig {
                il1_miss: 0,
                ..LatencyConfig::paper_default()
            },
            ..paper_cfg()
        };
        assert!(
            FastCampaign::try_new(&inverted, &ResolvedTrace::resolve(&inverted, &trace)).is_none()
        );
        // A line id at u32::MAX would collide with the empty-way marker.
        let mut big = Trace::new();
        big.push(Access::read(u64::from(u32::MAX) * 32));
        assert!(
            FastCampaign::try_new(&paper_cfg(), &ResolvedTrace::resolve(&paper_cfg(), &big))
                .is_none()
        );
    }

    #[test]
    fn matches_serial_platform_exactly() {
        for (placement, footprint) in [
            (PlacementPolicy::RandomHash, 40u64),
            (PlacementPolicy::RandomHash, 900),
            (PlacementPolicy::Modulo, 300),
        ] {
            let cfg = PlatformConfig {
                placement,
                ..paper_cfg()
            };
            let trace = mixed_trace(400, footprint * 32, 11);
            let rt = ResolvedTrace::resolve(&cfg, &trace);
            let mut fast = FastCampaign::try_new(&cfg, &rt).expect("paper config specializes");
            for width in [1usize, 2, 7, 8, 9, 16, 33] {
                let seeds: Vec<u64> = (0..width as u64)
                    .map(|i| mbcr_rng::derive_seed(99, i))
                    .collect();
                let mut got = vec![0u64; width];
                fast.run_pass(&seeds, &mut got);
                let mut platform = Platform::for_run(&cfg, 0);
                let want: Vec<u64> = seeds
                    .iter()
                    .map(|&s| platform.run_randomized_resolved(&rt, s))
                    .collect();
                assert_eq!(got, want, "{placement:?} footprint={footprint} W={width}");
            }
        }
    }

    #[test]
    fn scalar_and_vector_kernels_agree() {
        let cfg = paper_cfg();
        let trace = mixed_trace(600, 6000, 5);
        let rt = ResolvedTrace::resolve(&cfg, &trace);
        let mut auto = FastCampaign::try_new(&cfg, &rt).expect("specializes");
        let mut scalar = FastCampaign::try_new(&cfg, &rt).expect("specializes");
        scalar.kernel = Kernel::Scalar;
        let seeds: Vec<u64> = (0..19).map(|i| mbcr_rng::derive_seed(3, i)).collect();
        let (mut a, mut b) = (vec![0u64; 19], vec![0u64; 19]);
        auto.run_pass(&seeds, &mut a);
        scalar.run_pass(&seeds, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn pass_results_match_unresolved_platform_runs() {
        let cfg = paper_cfg();
        let trace = mixed_trace(229, 2048, 21);
        let rt = ResolvedTrace::resolve(&cfg, &trace);
        let mut fast = FastCampaign::try_new(&cfg, &rt).expect("specializes");
        let seeds: Vec<u64> = (5..21).map(|i| mbcr_rng::derive_seed(42, i)).collect();
        let mut got = vec![0u64; seeds.len()];
        fast.run_pass(&seeds, &mut got);
        let mut platform = Platform::for_run(&cfg, 0);
        let want: Vec<u64> = seeds
            .iter()
            .map(|&s| platform.run_randomized(&trace, s))
            .collect();
        assert_eq!(got, want);
    }
}
