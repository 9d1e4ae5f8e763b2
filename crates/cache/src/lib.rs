//! Set-associative cache simulator for MBPTA experiments.
//!
//! The platform evaluated in the paper (Section 4) pairs a pipelined in-order
//! core with first-level instruction and data caches that implement **random
//! placement** and **random replacement** — the "MBPTA-compliant" design of
//! Kosmidis et al. This crate simulates such caches, plus the deterministic
//! configurations (modulo placement, LRU/FIFO replacement) needed for the
//! paper's Section 2 contrast: PUB is *unsound* on time-deterministic caches.
//!
//! * [`CacheGeometry`] — size / ways / line size (default: 4 KB, 2-way, 32 B,
//!   as in the paper).
//! * [`PlacementPolicy`] — [`Modulo`](PlacementPolicy::Modulo) or
//!   [`RandomHash`](PlacementPolicy::RandomHash) (a per-run seeded avalanche
//!   hash, giving every line an independent uniform set).
//! * [`ReplacementPolicy`] — [`Random`](ReplacementPolicy::Random),
//!   [`Lru`](ReplacementPolicy::Lru) or [`Fifo`](ReplacementPolicy::Fifo).
//! * [`Cache`] — the simulator; [`Cache::reseed`] flushes and re-randomizes
//!   between runs, exactly like the paper's per-run cache flush + new memory
//!   layout.
//! * [`BatchCache`] — W independent layouts in struct-of-arrays state,
//!   advanced in lockstep so one walk of a line stream serves W runs
//!   (campaigns no longer use it; the benchmark probe times it).
//! * [`single_set`] — the focused one-set simulation TAC uses to estimate the
//!   miss impact of a conflict group.
//!
//! # Examples
//!
//! The Section 2 counter-example, deterministic part: under a 2-way LRU cache
//! `{ABCA}` misses 4 times but its "upper-bound" `{ABACA}` only 3 — inserting
//! an access *reduced* the execution time, which is why PUB requires
//! time-randomized caches:
//!
//! ```
//! use mbcr_cache::{Cache, CacheGeometry, PlacementPolicy, ReplacementPolicy};
//! use mbcr_trace::SymSeq;
//!
//! let tiny = CacheGeometry::new(64, 2, 32).unwrap(); // one 2-way set
//! let mut lru = Cache::new(tiny, PlacementPolicy::Modulo, ReplacementPolicy::Lru, 0);
//!
//! let orig: SymSeq = "ABCA".parse().unwrap();
//! let pubbed: SymSeq = "ABACA".parse().unwrap();
//!
//! let misses_orig = lru.run_lines(&orig.to_lines()).misses;
//! lru.flush();
//! let misses_pub = lru.run_lines(&pubbed.to_lines()).misses;
//! assert_eq!((misses_orig, misses_pub), (4, 3)); // inserting A *helped* LRU
//! ```

mod batch;
mod cache;
mod geometry;
mod placement;
pub mod single_set;

pub use batch::BatchCache;
pub use cache::{AccessOutcome, Cache, CacheStats};
pub use geometry::{CacheGeometry, GeometryError};
pub use placement::PlacementPolicy;

/// Replacement policy of a cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Uniformly random victim way (MBPTA-compliant).
    Random,
    /// Least-recently-used victim (time-deterministic).
    Lru,
    /// First-in-first-out victim (time-deterministic).
    Fifo,
}

impl ReplacementPolicy {
    /// Returns `true` if the policy is time-randomized (usable for MBPTA).
    #[must_use]
    pub fn is_randomized(self) -> bool {
        matches!(self, ReplacementPolicy::Random)
    }
}
