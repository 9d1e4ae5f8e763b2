//! Traces pre-resolved to cache lines.
//!
//! Every access in a [`Trace`] names a byte [`Address`](mbcr_trace::Address);
//! the simulator only ever needs the [`LineId`] it maps to, and that
//! conversion is an integer division by the cache line size. A campaign
//! replays the same trace `R` times, so doing the division inside the run
//! loop pays it `R × len` times. [`ResolvedTrace`] does it once per campaign
//! — fetches quantized by the IL1 line size, loads/stores by the DL1's —
//! and both the serial and batched campaign paths replay the resolved
//! stream.
//!
//! # Same-line repeats
//!
//! Resolution also drops every access whose line equals the line of the
//! previous access *to the same cache* (IL1 fetches and DL1 loads/stores
//! are tracked apart), keeping only a per-cache count of what it dropped.
//! Such a repeat — eight 4-byte fetches share a 32-byte line — hits in
//! every layout: the previous access left its line resident, and no other
//! access to that cache came in between. The replay kernels charge each
//! dropped access its hit cost once per run instead of simulating it.
//!
//! This is exact as long as a hit on the cache's most recently accessed
//! line leaves the order in which victims are chosen unchanged, which holds
//! for every current [`ReplacementPolicy`](mbcr_cache::ReplacementPolicy):
//! under `Random` a hit draws no RNG value and changes no state, under
//! `Fifo` a hit changes nothing, and under `Lru` it re-stamps the line that
//! already holds the newest stamp of its set. Miss counts, cycle counts and
//! RNG consumption therefore match the unresolved replay
//! ([`Platform::run`](crate::Platform::run)) bit for bit, from a flushed
//! cache or a warm one; only the caches' hit counters no longer see the
//! dropped accesses.

use mbcr_trace::{AccessKind, LineId, Trace};

use crate::{LatencyConfig, PlatformConfig};

/// One trace access quantized to the cache line it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedOp {
    /// The line the access maps to (IL1 lines for fetches, DL1 for data).
    pub line: LineId,
    /// `true` for instruction fetches (IL1), `false` for loads/stores (DL1).
    pub instr: bool,
}

/// A [`Trace`] with every `Address → LineId` conversion done up front for a
/// specific pair of cache geometries, minus the accesses that repeat the
/// line their cache accessed last: those hit in every layout without
/// changing which way a later miss evicts, so the kernels charge their hit
/// cost instead of simulating them.
#[derive(Debug, Clone)]
pub struct ResolvedTrace {
    ops: Vec<ResolvedOp>,
    il1_repeats: u64,
    dl1_repeats: u64,
    il1_line_size: u64,
    dl1_line_size: u64,
}

impl ResolvedTrace {
    /// Resolves `trace` against `cfg`'s IL1/DL1 line sizes, dropping each
    /// access whose line equals the previous line of the same cache.
    #[must_use]
    pub fn resolve(cfg: &PlatformConfig, trace: &Trace) -> Self {
        let il1_line_size = cfg.il1.line_size();
        let dl1_line_size = cfg.dl1.line_size();
        let mut ops = Vec::new();
        let (mut il1_last, mut dl1_last) = (None, None);
        let (mut il1_repeats, mut dl1_repeats) = (0, 0);
        for access in trace {
            let (instr, line, last, repeats) = match access.kind {
                AccessKind::InstrFetch => (
                    true,
                    access.addr.line(il1_line_size),
                    &mut il1_last,
                    &mut il1_repeats,
                ),
                AccessKind::Read | AccessKind::Write => (
                    false,
                    access.addr.line(dl1_line_size),
                    &mut dl1_last,
                    &mut dl1_repeats,
                ),
            };
            if *last == Some(line) {
                *repeats += 1;
            } else {
                *last = Some(line);
                ops.push(ResolvedOp { line, instr });
            }
        }
        Self {
            ops,
            il1_repeats,
            dl1_repeats,
            il1_line_size,
            dl1_line_size,
        }
    }

    /// The accesses left to simulate, in trace order.
    #[must_use]
    pub fn ops(&self) -> &[ResolvedOp] {
        &self.ops
    }

    /// Number of accesses left to simulate: the trace's length minus the
    /// dropped repeats.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` when no access is left to simulate.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Instruction fetches dropped as repeats of the previous IL1 line.
    #[must_use]
    pub fn il1_repeats(&self) -> u64 {
        self.il1_repeats
    }

    /// Loads and stores dropped as repeats of the previous DL1 line.
    #[must_use]
    pub fn dl1_repeats(&self) -> u64 {
        self.dl1_repeats
    }

    /// Cycles the dropped repeats add to every run: each is an IL1 hit
    /// (plus its issue cycles) or a DL1 hit.
    #[must_use]
    pub(crate) fn repeat_cycles(&self, lat: &LatencyConfig) -> u64 {
        self.il1_repeats * (lat.issue_cycles + lat.il1_hit) + self.dl1_repeats * lat.dl1_hit
    }

    /// Returns `true` if this resolution is valid for caches with the given
    /// line sizes — replaying it against any other geometry would silently
    /// touch the wrong lines, so the run entry points assert this.
    #[must_use]
    pub fn matches(&self, il1_line_size: u64, dl1_line_size: u64) -> bool {
        self.il1_line_size == il1_line_size && self.dl1_line_size == dl1_line_size
    }
}
