//! TAC — Time-aware Address Conflict analysis (Milutinovic et al.,
//! Ada-Europe'17), as combined with PUB in the DAC'18 paper.
//!
//! On a random-placement cache, a group of `k > W` lines that the program
//! traverses with long, interleaved reuse distances causes an **abrupt
//! execution-time increase** whenever all of them land in the same set —
//! which happens with probability `(1/S)^(k-1)` per run. EVT can only
//! extrapolate what the measurements contain (paper Section 2), so the
//! measurement campaign must be long enough to *observe* those layouts.
//!
//! TAC answers "how long":
//!
//! 1. **Discover** candidate conflict groups from the address sequence —
//!    hot lines whose accesses interleave (round-robin-like patterns), in
//!    groups of `W + 1` lines (the minimal set-overflow; larger groups imply
//!    their `W + 1` subsets, so minimal groups carry the regime's
//!    probability — this is why the paper's Section 3.1.2 counts the six
//!    5-of-6 groups rather than the single 6-of-6 group).
//! 2. **Estimate impact**: expected extra misses when the group shares one
//!    set, via the focused single-set simulation of
//!    [`mbcr_cache::single_set`].
//! 3. **Cluster** groups of similar impact and aggregate their
//!    probabilities (equally-damaging layouts are interchangeable
//!    observations of the same regime).
//! 4. **Derive runs**: the smallest `R` with
//!    `(1 − P_class)^R < p_target` for every relevant class, i.e.
//!    `R = ⌈ln(p_target) / ln(1 − P_class)⌉` (paper: `p_target = 10⁻⁹`,
//!    "in line with the most stringent fault probabilities allowed for
//!    hardware components").
//!
//! # Examples
//!
//! The paper's Section 3.1.1 worked example — `{ABCDEA}^1000` on S = 8,
//! W = 4 needs more than ~84 873 runs (the paper prints 84 875 from a
//! rounded probability):
//!
//! ```
//! use mbcr_tac::{analyze_symbolic, TacConfig};
//! use mbcr_trace::SymSeq;
//!
//! let seq: SymSeq = "ABCDEA".parse().unwrap();
//! let analysis = analyze_symbolic(&seq.repeat(1000), &TacConfig::paper_example());
//! let r = analysis.runs_required;
//! assert!((84_000..86_000).contains(&r), "runs = {r}");
//! ```

use std::collections::HashMap;

use mbcr_cache::single_set::expected_local_misses;
use mbcr_rng::derive_seed;
use mbcr_trace::analysis::{line_stats, InterleavingMatrix};
use mbcr_trace::{LineId, SymSeq};

#[cfg(test)]
mod oracle;

/// Configuration of a TAC analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TacConfig {
    /// Number of cache sets (S).
    pub sets: u64,
    /// Associativity (W).
    pub ways: u32,
    /// Maximum acceptable probability of *missing* a relevant layout in the
    /// campaign (the paper uses 10⁻⁹).
    pub p_target: f64,
    /// Ignore conflict classes whose per-run probability is below this floor
    /// (layouts rarer than the target exceedance are accepted risk).
    pub prob_floor: f64,
    /// A group is relevant if its expected extra misses reach this value.
    pub min_extra_misses: f64,
    /// Impact-clustering tolerance: groups within `impact_tolerance` of a
    /// class's maximum impact (relatively) join the class.
    pub impact_tolerance: f64,
    /// Only the most-accessed lines are considered as group members.
    pub max_hot_lines: usize,
    /// Per-anchor neighbour cap when enumerating groups.
    pub max_neighbors: usize,
    /// Minimum mutual interleaving count for two lines to be considered
    /// conflicting.
    pub min_interleave: u32,
    /// Hard cap on enumerated groups (highest-priority first).
    pub max_groups: usize,
    /// Monte-Carlo repetitions per impact estimate.
    pub mc_reps: u32,
    /// Seed for the impact estimates.
    pub seed: u64,
}

impl TacConfig {
    /// Defaults for a given cache geometry (S, W).
    #[must_use]
    pub fn new(sets: u64, ways: u32) -> Self {
        Self {
            sets,
            ways,
            p_target: 1e-9,
            prob_floor: 1e-12,
            min_extra_misses: 4.0,
            impact_tolerance: 0.5,
            max_hot_lines: 48,
            max_neighbors: 12,
            min_interleave: 2,
            max_groups: 20_000,
            mc_reps: 8,
            seed: 0x7AC,
        }
    }

    /// The paper's Section 3.1 example cache: S = 8 sets, W = 4 ways.
    #[must_use]
    pub fn paper_example() -> Self {
        Self::new(8, 4)
    }

    /// The paper's L1 geometry: 64 sets, 2 ways.
    #[must_use]
    pub fn paper_l1() -> Self {
        Self::new(64, 2)
    }
}

/// A discovered conflict group.
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictGroup {
    /// The lines of the group (sorted).
    pub lines: Vec<LineId>,
    /// Per-run probability that all of them map to one set:
    /// `(1/S)^(|lines|-1)`.
    pub prob: f64,
    /// Expected extra misses when co-mapped (beyond cold misses).
    pub extra_misses: f64,
}

/// A cluster of similar-impact conflict groups.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpactClass {
    /// Representative (maximum) impact of the class, in extra misses.
    pub impact: f64,
    /// Aggregated per-run probability of observing *some* group of the
    /// class (union bound).
    pub prob: f64,
    /// Number of groups in the class.
    pub group_count: usize,
    /// Runs needed to observe the class with probability ≥ 1 − `p_target`.
    pub runs: u64,
}

/// Result of a TAC analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TacAnalysis {
    /// Distinct lines in the analysed stream.
    pub unique_lines: usize,
    /// Number of candidate groups whose impact was evaluated.
    pub groups_evaluated: usize,
    /// The relevant groups (impact ≥ threshold), sorted by impact
    /// descending.
    pub relevant_groups: Vec<ConflictGroup>,
    /// Impact classes derived from the relevant groups.
    pub classes: Vec<ImpactClass>,
    /// The minimum number of runs TAC requires (0 when no relevant class
    /// exists — the standard MBPTA run count then suffices).
    pub runs_required: u64,
}

/// Computes `R` such that `(1 − p_event)^R < p_target`.
///
/// Returns 0 if `p_event` is not in `(0, 1)` (an impossible or certain event
/// needs no extra runs).
///
/// # Examples
///
/// ```
/// use mbcr_tac::runs_for_probability;
/// // Section 3.1.1: p = (1/8)^4, target 1e-9 -> 84 873 runs.
/// let r = runs_for_probability((1.0f64 / 8.0).powi(4), 1e-9);
/// assert_eq!(r, 84_873);
/// ```
#[must_use]
pub fn runs_for_probability(p_event: f64, p_target: f64) -> u64 {
    if !(0.0..1.0).contains(&p_event) || p_event == 0.0 || p_target <= 0.0 || p_target >= 1.0 {
        return 0;
    }
    let r = p_target.ln() / (1.0 - p_event).ln_1p_safe();
    r.ceil().max(1.0) as u64
}

/// `ln` of values very close to 1 loses precision; ln_1p on the complement
/// keeps the Section 3.1 numbers exact for small probabilities.
trait Ln1pSafe {
    fn ln_1p_safe(self) -> f64;
}

impl Ln1pSafe for f64 {
    fn ln_1p_safe(self) -> f64 {
        // self = 1 - p; ln(self) = ln_1p(-p).
        (self - 1.0).ln_1p()
    }
}

/// Per-run probability that `k` specific lines map into one of `sets` sets:
/// `S · (1/S)^k = (1/S)^(k-1)`.
#[must_use]
pub fn comapping_probability(k: u32, sets: u64) -> f64 {
    if k == 0 || sets == 0 {
        return 0.0;
    }
    (1.0 / sets as f64).powi(k as i32 - 1)
}

/// Runs TAC on a cache-line access stream.
///
/// The stream should be the projection of the program's (pubbed) trace onto
/// the lines of one cache (see `Trace::data_lines` / `Trace::instr_lines`);
/// instruction and data caches are analysed independently.
#[must_use]
pub fn analyze_lines(stream: &[LineId], cfg: &TacConfig) -> TacAnalysis {
    let stats = line_stats(stream);
    let unique_lines = stats.len();
    let group_size = cfg.ways + 1;
    let no_groups = TacAnalysis {
        unique_lines,
        groups_evaluated: 0,
        relevant_groups: Vec::new(),
        classes: Vec::new(),
        runs_required: 0,
    };

    // A set can only overflow if the footprint exceeds the associativity.
    if unique_lines < group_size as usize {
        return no_groups;
    }

    // Hot candidates: reused lines, most-accessed first (a stable sort, so
    // equal counts keep `line_stats` order).
    let mut ranked: Vec<(LineId, usize)> = stats
        .iter()
        .filter(|s| s.count >= 2)
        .map(|s| (s.line, s.count))
        .collect();
    ranked.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    let hot: Vec<LineId> = ranked
        .into_iter()
        .take(cfg.max_hot_lines)
        .map(|(line, _)| line)
        .collect();

    if hot.len() < group_size as usize {
        return no_groups;
    }

    // Name each hot line by its rank in `hot`, restrict the stream to hot
    // lines once and collapse consecutive repeats. Every later step reads
    // only this collapsed stream: a repeat adds no interleaving count (the
    // line's gap was just closed) and does not move first appearances, and
    // restricting it to a group gives the group's collapsed substream,
    // because dedup(filter(s)) = dedup(filter(dedup(s))).
    let rank: HashMap<LineId, u32> = hot
        .iter()
        .enumerate()
        .map(|(i, &line)| (line, u32::try_from(i).expect("hot ranks fit u32")))
        .collect();
    let mut hot_ids: Vec<u32> = Vec::new();
    for id in stream.iter().filter_map(|line| rank.get(line)) {
        if hot_ids.last() != Some(id) {
            hot_ids.push(*id);
        }
    }
    let collapsed: Vec<LineId> = hot_ids.iter().map(|&id| hot[id as usize]).collect();
    let matrix = InterleavingMatrix::build(&collapsed);

    let groups = enumerate_groups(&matrix, cfg, group_size);
    let groups_evaluated = groups.len();

    // Evaluate impacts: one scan of the collapsed stream per group.
    let mut local = vec![NOT_MEMBER; hot.len()];
    let mut sub: Vec<u32> = Vec::new();
    let mut relevant: Vec<ConflictGroup> = Vec::new();
    for (gi, lines) in groups.into_iter().enumerate() {
        let ranks: Vec<usize> = lines.iter().map(|line| rank[line] as usize).collect();
        for (k, &r) in ranks.iter().enumerate() {
            local[r] = k as u32;
        }
        group_substream(&hot_ids, &local, &mut sub);
        for &r in &ranks {
            local[r] = NOT_MEMBER;
        }
        let misses = expected_local_misses(
            &sub,
            cfg.ways,
            cfg.mc_reps,
            derive_seed(cfg.seed, gi as u64),
        );
        let extra = misses - lines.len() as f64;
        if extra >= cfg.min_extra_misses {
            relevant.push(ConflictGroup {
                prob: comapping_probability(lines.len() as u32, cfg.sets),
                lines,
                extra_misses: extra,
            });
        }
    }
    relevant.sort_by(|a, b| b.extra_misses.total_cmp(&a.extra_misses));

    // Cluster into impact classes and derive the run requirement.
    let mut classes: Vec<ImpactClass> = Vec::new();
    let mut i = 0;
    while i < relevant.len() {
        let impact = relevant[i].extra_misses;
        let mut prob = 0.0;
        let mut count = 0;
        while i < relevant.len()
            && relevant[i].extra_misses >= impact * (1.0 - cfg.impact_tolerance)
        {
            prob += relevant[i].prob;
            count += 1;
            i += 1;
        }
        let prob = prob.min(1.0);
        if prob >= cfg.prob_floor {
            classes.push(ImpactClass {
                impact,
                prob,
                group_count: count,
                runs: runs_for_probability(prob, cfg.p_target),
            });
        }
    }
    let runs_required = classes.iter().map(|c| c.runs).max().unwrap_or(0);

    TacAnalysis {
        unique_lines,
        groups_evaluated,
        relevant_groups: relevant,
        classes,
        runs_required,
    }
}

/// Convenience entry point for symbolic sequences (paper notation).
#[must_use]
pub fn analyze_symbolic(seq: &SymSeq, cfg: &TacConfig) -> TacAnalysis {
    analyze_lines(&seq.to_lines(), cfg)
}

/// Enumerates candidate groups of exactly `group_size` mutually interleaved
/// hot lines: for every anchor line, combinations of its strongest
/// neighbours, deduplicated, capped at `cfg.max_groups`.
fn enumerate_groups(
    matrix: &InterleavingMatrix,
    cfg: &TacConfig,
    group_size: u32,
) -> Vec<Vec<LineId>> {
    let n = matrix.lines.len();
    let k = group_size as usize;
    let mut seen: std::collections::HashSet<Vec<LineId>> = std::collections::HashSet::new();
    let mut out: Vec<Vec<LineId>> = Vec::new();

    for anchor in 0..n {
        // Strongest mutually-interleaved neighbours of the anchor.
        let mut neigh: Vec<usize> = (0..n)
            .filter(|&j| j != anchor && matrix.mutual(anchor, j) >= cfg.min_interleave)
            .collect();
        if neigh.len() + 1 < k {
            continue;
        }
        neigh.sort_by_key(|&j| std::cmp::Reverse(matrix.mutual(anchor, j)));
        neigh.truncate(cfg.max_neighbors);

        // All (k-1)-combinations of the neighbours.
        let mut combo = vec![0usize; k - 1];
        combinations(neigh.len(), k - 1, &mut combo, &mut |sel| {
            if out.len() >= cfg.max_groups {
                return;
            }
            let mut lines: Vec<LineId> = sel.iter().map(|&s| matrix.lines[neigh[s]]).collect();
            lines.push(matrix.lines[anchor]);
            lines.sort_unstable();
            if seen.insert(lines.clone()) {
                out.push(lines);
            }
        });
        if out.len() >= cfg.max_groups {
            break;
        }
    }
    out
}

/// Calls `f` with every `k`-combination of `0..n` (indices in `buf`).
fn combinations(n: usize, k: usize, buf: &mut [usize], f: &mut impl FnMut(&[usize])) {
    fn rec(
        start: usize,
        depth: usize,
        n: usize,
        k: usize,
        buf: &mut [usize],
        f: &mut impl FnMut(&[usize]),
    ) {
        if depth == k {
            f(buf);
            return;
        }
        for i in start..n {
            buf[depth] = i;
            rec(i + 1, depth + 1, n, k, buf, f);
        }
    }
    if k == 0 {
        f(&[]);
        return;
    }
    if k <= n {
        rec(0, 0, n, k, buf, f);
    }
}

/// Marks a hot line outside the group being evaluated.
const NOT_MEMBER: u32 = u32::MAX;

/// Writes into `sub` one group's accesses, in group-local ids, from the
/// collapsed hot stream `hot_ids`: `local[id]` is the group-local id of hot
/// line `id`, or [`NOT_MEMBER`]. Consecutive repeats of one line collapse. A
/// repeat hits in the group's set under every replacement policy without
/// changing which way the next miss evicts (the rule
/// `mbcr_cpu::ResolvedTrace` applies to whole traces), so the single-set
/// simulation counts the same misses, and draws the same random numbers, on
/// the shorter stream.
fn group_substream(hot_ids: &[u32], local: &[u32], sub: &mut Vec<u32>) {
    sub.clear();
    for &id in hot_ids {
        let l = local[id as usize];
        if l != NOT_MEMBER && sub.last() != Some(&l) {
            sub.push(l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbcr_rng::Rng64;

    fn seq(s: &str) -> SymSeq {
        s.parse().unwrap()
    }

    #[test]
    fn comapping_probabilities() {
        assert!((comapping_probability(5, 8) - (1.0f64 / 8.0).powi(4)).abs() < 1e-15);
        assert!((comapping_probability(3, 64) - (1.0f64 / 64.0).powi(2)).abs() < 1e-15);
        assert_eq!(comapping_probability(1, 8), 1.0);
        assert_eq!(comapping_probability(0, 8), 0.0);
    }

    #[test]
    fn runs_formula_edge_cases() {
        assert_eq!(runs_for_probability(0.0, 1e-9), 0);
        assert_eq!(runs_for_probability(1.0, 1e-9), 0);
        assert_eq!(runs_for_probability(-0.1, 1e-9), 0);
        assert_eq!(runs_for_probability(0.5, 1e-9), 30);
        // Monotonic: higher probability, fewer runs.
        assert!(runs_for_probability(0.01, 1e-9) > runs_for_probability(0.1, 1e-9));
        // Stricter target, more runs.
        assert!(runs_for_probability(0.01, 1e-12) > runs_for_probability(0.01, 1e-9));
    }

    #[test]
    fn paper_section_311_within_set_capacity_needs_no_runs() {
        // {ABCA}^1000: 3 distinct addresses fit in 4 ways.
        let a = analyze_symbolic(&seq("ABCA").repeat(1000), &TacConfig::paper_example());
        assert_eq!(a.unique_lines, 3);
        assert_eq!(a.runs_required, 0);
    }

    #[test]
    fn paper_section_311_pubbed_needs_84872_runs() {
        // {ABCDEA}^1000: 5 addresses, one group, p = (1/8)^4.
        let a = analyze_symbolic(&seq("ABCDEA").repeat(1000), &TacConfig::paper_example());
        assert_eq!(a.unique_lines, 5);
        assert_eq!(a.relevant_groups.len(), 1);
        assert_eq!(a.classes.len(), 1);
        assert_eq!(a.classes[0].group_count, 1);
        // Paper prints R > 84 875 from the rounded p = 0.000244; the exact
        // probability gives 84 873 (within 0.003%).
        assert_eq!(a.runs_required, 84_873);
        let paper = 84_875.0;
        assert!((a.runs_required as f64 - paper).abs() / paper < 1e-3);
    }

    #[test]
    fn paper_section_312_six_groups_need_14137_runs() {
        // {ABCDEFA}^1000: 6 addresses, six 5-of-6 groups, p = 6 * (1/8)^4.
        let a = analyze_symbolic(&seq("ABCDEFA").repeat(1000), &TacConfig::paper_example());
        assert_eq!(a.unique_lines, 6);
        assert_eq!(a.relevant_groups.len(), 6);
        assert_eq!(
            a.classes.len(),
            1,
            "six equally-damaging groups form one class"
        );
        assert_eq!(a.classes[0].group_count, 6);
        // Paper prints R > 14 138 from p = 0.00146; exact gives 14 137.
        assert_eq!(a.runs_required, 14_137);
        let paper = 14_138.0;
        assert!((a.runs_required as f64 - paper).abs() / paper < 1e-3);
    }

    #[test]
    fn non_interleaved_lines_form_no_groups() {
        // Phase A then phase B: AAAA...BBBB... CCC... no interleavings.
        let mut s = seq("A").repeat(50);
        s.extend_with(&seq("B").repeat(50));
        s.extend_with(&seq("C").repeat(50));
        s.extend_with(&seq("D").repeat(50));
        s.extend_with(&seq("E").repeat(50));
        let a = analyze_symbolic(&s, &TacConfig::paper_example());
        assert_eq!(a.unique_lines, 5);
        assert_eq!(a.groups_evaluated, 0);
        assert_eq!(a.runs_required, 0);
    }

    #[test]
    fn short_interleaving_is_below_impact_threshold() {
        // Only two traversals: co-mapping costs at most a few misses, below
        // the default threshold of 4 extra misses.
        let a = analyze_symbolic(&seq("ABCDEA").repeat(2), &TacConfig::paper_example());
        assert_eq!(a.runs_required, 0);
    }

    #[test]
    fn larger_cache_lowers_probability_and_raises_runs() {
        let small = analyze_symbolic(&seq("ABCA").repeat(500), &TacConfig::paper_l1());
        // 3 lines > 2 ways: one group with p = (1/64)^2.
        assert_eq!(small.relevant_groups.len(), 1);
        let expected = runs_for_probability((1.0f64 / 64.0).powi(2), 1e-9);
        assert_eq!(small.runs_required, expected);
        assert!(
            small.runs_required > 84_000,
            "runs = {}",
            small.runs_required
        );
    }

    #[test]
    fn deterministic_in_seed_and_config() {
        let s = seq("ABCDEA").repeat(200);
        let a = analyze_symbolic(&s, &TacConfig::paper_example());
        let b = analyze_symbolic(&s, &TacConfig::paper_example());
        assert_eq!(a, b);
    }

    #[test]
    fn combinations_enumerates_n_choose_k() {
        let mut count = 0;
        let mut buf = vec![0; 3];
        combinations(6, 3, &mut buf, &mut |_| count += 1);
        assert_eq!(count, 20);
        // k = 0 yields exactly the empty combination.
        let mut count0 = 0;
        combinations(4, 0, &mut [], &mut |_| count0 += 1);
        assert_eq!(count0, 1);
        // k > n yields nothing.
        let mut none = 0;
        let mut buf2 = vec![0; 5];
        combinations(3, 5, &mut buf2, &mut |_| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn group_substreams_collapse_consecutive_repeats() {
        // Hot ids A=0, X=1, B=2: A X B A X A restricted to {A, B} is
        // A B A A -> A B A, named by the group-local ids 1 and 0.
        let hot_ids = [0, 1, 2, 0, 1, 0];
        let local = [1, NOT_MEMBER, 0];
        let mut sub = vec![7];
        group_substream(&hot_ids, &local, &mut sub);
        assert_eq!(sub, [1, 0, 1]);
    }

    #[test]
    fn interleaving_matrix_ignores_consecutive_repeats() {
        // The matrix TAC builds on the collapsed stream equals the one of
        // the full stream: same lines in the same order, same counts.
        let mut g = mbcr_rng::SplitMix64::new(0x1A7);
        for case in 0..100 {
            let lines = 1 + g.next_u64() % 12;
            let mut s = Vec::new();
            while s.len() < 200 {
                let line = LineId(g.next_u64() % lines);
                for _ in 0..1 + g.next_u64() % 4 {
                    s.push(line);
                }
            }
            let mut collapsed = s.clone();
            collapsed.dedup();
            let (full, short) = (
                InterleavingMatrix::build(&s),
                InterleavingMatrix::build(&collapsed),
            );
            assert_eq!(full.lines, short.lines, "case {case}");
            assert_eq!(full.counts, short.counts, "case {case}");
        }
    }

    #[test]
    fn prob_floor_excludes_rare_classes() {
        let mut cfg = TacConfig::paper_example();
        cfg.prob_floor = 1e-3; // above (1/8)^4
        let a = analyze_symbolic(&seq("ABCDEA").repeat(1000), &cfg);
        assert!(a.classes.is_empty());
        assert_eq!(a.runs_required, 0);
    }
}

mbcr_json::impl_serialize_struct!(ConflictGroup {
    lines,
    prob,
    extra_misses
});
mbcr_json::impl_serialize_struct!(ImpactClass {
    impact,
    prob,
    group_count,
    runs
});
mbcr_json::impl_serialize_struct!(TacAnalysis {
    unique_lines,
    groups_evaluated,
    relevant_groups,
    classes,
    runs_required,
});
