//! Focused single-set simulation — TAC's impact estimator.
//!
//! TAC asks: *if this specific group of lines were randomly placed into the
//! same cache set, how many misses would the program's access sequence
//! suffer there?* Answering that does not need the whole cache: it is enough
//! to replay the subsequence of accesses to the group's lines through one
//! W-way set.
//!
//! For random replacement the miss count is itself random; [`expected_misses`]
//! averages over Monte-Carlo repetitions. For patterns whose group accesses
//! are a pure cyclic traversal (the paper's `{ABCDEA}`-style examples) the
//! lower bound of the paper holds: at least one miss per traversal once the
//! group exceeds the set's ways.
//!
//! [`expected_local_misses`] is the replay kernel behind the estimate: it
//! takes the group's accesses already named by dense group-local ids, so
//! TAC, which extracts each group's substream once, replays it without a
//! membership search per access. [`single_run_misses`] is its reference.

use mbcr_rng::{derive_seed, Rng64, Xoshiro256PlusPlus};
use mbcr_trace::LineId;

use crate::ReplacementPolicy;

/// Replays `stream` restricted to `group` through a single `ways`-way set
/// with the given replacement policy, returning the miss count of one run.
///
/// `group` must be sorted (binary search is used for membership).
///
/// # Panics
///
/// Panics if `ways == 0`.
#[must_use]
pub fn single_run_misses(
    stream: &[LineId],
    group: &[LineId],
    ways: u32,
    policy: ReplacementPolicy,
    seed: u64,
) -> u64 {
    assert!(ways > 0, "ways must be positive");
    let ways = ways as usize;
    let mut rng = Xoshiro256PlusPlus::from_seed(seed);
    let mut tags: Vec<Option<LineId>> = vec![None; ways];
    let mut meta: Vec<u64> = vec![0; ways];
    let mut clock = 0u64;
    let mut misses = 0u64;
    for &line in stream {
        if group.binary_search(&line).is_err() {
            continue;
        }
        clock += 1;
        if let Some(w) = tags.iter().position(|&t| t == Some(line)) {
            if policy == ReplacementPolicy::Lru {
                meta[w] = clock;
            }
            continue;
        }
        misses += 1;
        let victim = match tags.iter().position(Option::is_none) {
            Some(w) => w,
            None => match policy {
                ReplacementPolicy::Random => rng.below_usize(ways),
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    (0..ways).min_by_key(|&w| meta[w]).expect("ways > 0")
                }
            },
        };
        tags[victim] = Some(line);
        meta[victim] = clock;
    }
    misses
}

/// Monte-Carlo estimate of the expected miss count of `stream` restricted to
/// `group` in one `ways`-way random-replacement set.
///
/// Returns the mean over `reps` independent replacement streams. The
/// deterministic policies need a single rep ([`single_run_misses`]).
/// `group` must be sorted; the stream is renamed to group-local ids once
/// and replayed by [`expected_local_misses`].
///
/// # Panics
///
/// Panics if `reps == 0` or `ways == 0`.
#[must_use]
pub fn expected_misses(
    stream: &[LineId],
    group: &[LineId],
    ways: u32,
    reps: u32,
    seed: u64,
) -> f64 {
    let local: Vec<u32> = stream
        .iter()
        .filter_map(|line| group.binary_search(line).ok())
        .map(|i| u32::try_from(i).expect("group indices fit u32"))
        .collect();
    expected_local_misses(&local, ways, reps, seed)
}

/// Mean miss count of `reps` replays of `stream`, one group's accesses named
/// by group-local ids, through one `ways`-way random-replacement set.
///
/// Replay `r` draws `below_usize(ways)` from
/// `Xoshiro256PlusPlus::from_seed(derive_seed(seed, r))` at exactly the
/// misses where [`single_run_misses`] draws (those that find the set full),
/// and the ways fill in the same order. So the result is, bit for bit, the
/// mean of [`single_run_misses`] under [`ReplacementPolicy::Random`] over the
/// same accesses under any naming of the lines.
///
/// # Panics
///
/// Panics if `reps == 0` or `ways == 0`.
#[must_use]
pub fn expected_local_misses(stream: &[u32], ways: u32, reps: u32, seed: u64) -> f64 {
    assert!(reps > 0, "reps must be positive");
    assert!(ways > 0, "ways must be positive");
    let ways = ways as usize;
    // The first `filled` ways hold lines; ways fill in index order and never
    // empty again, as in `single_run_misses`.
    let mut tags = vec![0u32; ways];
    let mut total = 0u64;
    for r in 0..reps {
        let mut rng = Xoshiro256PlusPlus::from_seed(derive_seed(seed, u64::from(r)));
        let mut filled = 0;
        for &id in stream {
            if tags[..filled].contains(&id) {
                continue;
            }
            total += 1;
            let victim = if filled < ways {
                filled += 1;
                filled - 1
            } else {
                rng.below_usize(ways)
            };
            tags[victim] = id;
        }
    }
    total as f64 / f64::from(reps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbcr_trace::SymSeq;

    fn stream(s: &str, reps: usize) -> Vec<LineId> {
        s.parse::<SymSeq>().unwrap().repeat(reps).to_lines()
    }

    fn group(ids: &[u64]) -> Vec<LineId> {
        let mut g: Vec<LineId> = ids.iter().map(|&i| LineId(i)).collect();
        g.sort_unstable();
        g
    }

    #[test]
    fn group_within_ways_only_cold_misses() {
        let s = stream("ABCD", 100);
        let g = group(&[0, 1, 2, 3]);
        assert_eq!(
            single_run_misses(&s, &g, 4, ReplacementPolicy::Random, 1),
            4
        );
        assert!((expected_misses(&s, &g, 4, 16, 1) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn paper_5_lines_in_4_ways_misses_every_traversal() {
        // {ABCDEA}^n restricted to {A..E} in a 4-way set: the paper argues at
        // least n misses (one per traversal) — for random replacement the
        // observed count is much higher, but the lower bound must hold.
        let n = 200;
        let s = stream("ABCDEA", n);
        let g = group(&[0, 1, 2, 3, 4]);
        for seed in 0..10 {
            let m = single_run_misses(&s, &g, 4, ReplacementPolicy::Random, seed);
            assert!(m >= n as u64, "misses {m} < traversals {n}");
        }
    }

    #[test]
    fn lru_round_robin_worst_case() {
        // 5 distinct lines cyclically through a 4-way LRU set: every access
        // misses (the classic LRU pathological case).
        let n = 50;
        let s = stream("ABCDE", n);
        let g = group(&[0, 1, 2, 3, 4]);
        let m = single_run_misses(&s, &g, 4, ReplacementPolicy::Lru, 0);
        assert_eq!(m, (5 * n) as u64);
    }

    #[test]
    fn random_is_strictly_better_than_lru_here() {
        let n = 200;
        let s = stream("ABCDE", n);
        let g = group(&[0, 1, 2, 3, 4]);
        let lru = single_run_misses(&s, &g, 4, ReplacementPolicy::Lru, 0) as f64;
        let rnd = expected_misses(&s, &g, 4, 32, 7);
        assert!(
            rnd < lru,
            "random {rnd} should beat LRU {lru} on round-robin"
        );
        // And still at least one miss per traversal.
        assert!(rnd >= n as f64);
    }

    #[test]
    fn non_group_lines_are_ignored() {
        let s = stream("AXBYCZ", 10); // X, Y, Z outside the group
        let g = group(&[0, 1, 2]); // A, B, C
        assert_eq!(single_run_misses(&s, &g, 4, ReplacementPolicy::Lru, 0), 3);
    }

    #[test]
    fn empty_group_or_stream() {
        assert_eq!(
            single_run_misses(&[], &group(&[0]), 2, ReplacementPolicy::Random, 0),
            0
        );
        assert_eq!(
            single_run_misses(&stream("ABC", 5), &[], 2, ReplacementPolicy::Random, 0),
            0
        );
    }

    #[test]
    fn collapsing_consecutive_repeats_keeps_the_miss_count() {
        // TAC replays deduplicated substreams: a repeat of the line just
        // accessed hits without moving the next victim, so the miss count
        // and the replacement stream must not change under any policy.
        let mut g = mbcr_rng::SplitMix64::new(0x5E7);
        for case in 0..60 {
            let lines = 3 + g.next_u64() % 5;
            let mut s = Vec::new();
            while s.len() < 300 {
                let line = LineId(g.next_u64() % lines);
                for _ in 0..1 + g.next_u64() % 4 {
                    s.push(line);
                }
            }
            let mut deduped = s.clone();
            deduped.dedup();
            assert!(deduped.len() < s.len(), "case {case} has repeats");
            let g_lines: Vec<u64> = (0..lines).collect();
            let all = group(&g_lines);
            let ways = 2 + (case % 3) as u32;
            for policy in [
                ReplacementPolicy::Random,
                ReplacementPolicy::Lru,
                ReplacementPolicy::Fifo,
            ] {
                assert_eq!(
                    single_run_misses(&s, &all, ways, policy, case),
                    single_run_misses(&deduped, &all, ways, policy, case),
                    "case {case} {policy:?} ways={ways}"
                );
            }
            assert_eq!(
                expected_misses(&s, &all, ways, 8, case).to_bits(),
                expected_misses(&deduped, &all, ways, 8, case).to_bits()
            );
        }
    }

    #[test]
    fn expected_misses_is_the_mean_of_the_reference_replays() {
        // Streams over more lines than the group (non-members interleave
        // with members), every associativity up to 8, 1 to 9 reps.
        let mut g = mbcr_rng::SplitMix64::new(0xE4);
        for case in 0..200u64 {
            let lines = 2 + g.next_u64() % 14;
            let len = g.next_u64() % 400;
            let s: Vec<LineId> = (0..len).map(|_| LineId(g.next_u64() % lines)).collect();
            let mut members: Vec<u64> = (0..lines)
                .filter(|_| !g.next_u64().is_multiple_of(3))
                .collect();
            members.truncate(1 + (g.next_u64() % 9) as usize);
            let grp = group(&members);
            let ways = 1 + (g.next_u64() % 8) as u32;
            let reps = 1 + (g.next_u64() % 9) as u32;
            let total: u64 = (0..reps)
                .map(|r| {
                    single_run_misses(
                        &s,
                        &grp,
                        ways,
                        ReplacementPolicy::Random,
                        derive_seed(case, u64::from(r)),
                    )
                })
                .sum();
            assert_eq!(
                expected_misses(&s, &grp, ways, reps, case).to_bits(),
                (total as f64 / f64::from(reps)).to_bits(),
                "case {case}: ways {ways}, reps {reps}, group {members:?}"
            );
        }
    }

    #[test]
    fn expected_misses_is_deterministic_in_seed() {
        let s = stream("ABCDEA", 50);
        let g = group(&[0, 1, 2, 3, 4]);
        assert_eq!(
            expected_misses(&s, &g, 4, 8, 5),
            expected_misses(&s, &g, 4, 8, 5)
        );
    }

    #[test]
    #[should_panic(expected = "reps must be positive")]
    fn zero_reps_panics() {
        let _ = expected_misses(&[], &[], 2, 0, 0);
    }
}
