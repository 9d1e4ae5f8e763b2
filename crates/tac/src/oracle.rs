//! The reference TAC analysis: every group's substream is extracted by
//! sorting the positions of its lines in the *uncollapsed* hot stream, and
//! its impact is the mean of [`single_run_misses`] replays. The tests check
//! [`crate::analyze_lines`], which reads only the collapsed hot stream and
//! replays group-local ids, against it bit for bit.

use std::collections::{HashMap, HashSet};

use mbcr_cache::single_set::single_run_misses;
use mbcr_cache::ReplacementPolicy;
use mbcr_rng::derive_seed;
use mbcr_trace::analysis::{line_stats, InterleavingMatrix};
use mbcr_trace::LineId;

use crate::{
    comapping_probability, enumerate_groups, runs_for_probability, ConflictGroup, ImpactClass,
    TacAnalysis, TacConfig,
};

fn expected_misses(stream: &[LineId], group: &[LineId], ways: u32, reps: u32, seed: u64) -> f64 {
    assert!(reps > 0, "reps must be positive");
    let total: u64 = (0..reps)
        .map(|r| {
            single_run_misses(
                stream,
                group,
                ways,
                ReplacementPolicy::Random,
                derive_seed(seed, u64::from(r)),
            )
        })
        .sum();
    total as f64 / f64::from(reps)
}

fn merge_substream(
    lines: &[LineId],
    positions: &HashMap<LineId, Vec<u32>>,
    stream: &[LineId],
) -> Vec<LineId> {
    let mut pos: Vec<u32> = lines
        .iter()
        .flat_map(|l| positions.get(l).into_iter().flatten().copied())
        .collect();
    pos.sort_unstable();
    let mut sub: Vec<LineId> = pos.into_iter().map(|p| stream[p as usize]).collect();
    sub.dedup();
    sub
}

pub(crate) fn analyze_lines(stream: &[LineId], cfg: &TacConfig) -> TacAnalysis {
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
    if unique_lines < group_size as usize {
        return no_groups;
    }

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

    let hot_set: HashSet<LineId> = hot.iter().copied().collect();
    let hot_stream: Vec<LineId> = stream
        .iter()
        .copied()
        .filter(|l| hot_set.contains(l))
        .collect();
    let matrix = InterleavingMatrix::build(&hot_stream);
    let mut positions: HashMap<LineId, Vec<u32>> = HashMap::new();
    for (i, &l) in hot_stream.iter().enumerate() {
        positions.entry(l).or_default().push(i as u32);
    }

    let groups = enumerate_groups(&matrix, cfg, group_size);
    let groups_evaluated = groups.len();
    let mut relevant: Vec<ConflictGroup> = Vec::new();
    for (gi, lines) in groups.into_iter().enumerate() {
        let sub = merge_substream(&lines, &positions, &hot_stream);
        let misses = expected_misses(
            &sub,
            &lines,
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

mod tests {
    use super::*;
    use mbcr_ir::execute;
    use mbcr_json::Serialize;
    use mbcr_pub::{pub_transform, PubConfig};
    use mbcr_rng::{Rng64, SplitMix64};

    /// Asserts equal JSON text and equal bits of every float.
    fn assert_identical(stream: &[LineId], cfg: &TacConfig, what: &str) -> usize {
        let got = crate::analyze_lines(stream, cfg);
        let want = analyze_lines(stream, cfg);
        assert_eq!(
            got.to_json().to_pretty(),
            want.to_json().to_pretty(),
            "{what}"
        );
        let group_bits = |a: &TacAnalysis| -> Vec<(u64, u64)> {
            a.relevant_groups
                .iter()
                .map(|g| (g.prob.to_bits(), g.extra_misses.to_bits()))
                .collect()
        };
        let class_bits = |a: &TacAnalysis| -> Vec<(u64, u64)> {
            a.classes
                .iter()
                .map(|c| (c.prob.to_bits(), c.impact.to_bits()))
                .collect()
        };
        assert_eq!(group_bits(&got), group_bits(&want), "{what}");
        assert_eq!(class_bits(&got), class_bits(&want), "{what}");
        assert_eq!(got, want, "{what}");
        got.groups_evaluated
    }

    #[test]
    fn suite_streams_match_the_reference() {
        // (size, ways, line size, mc_reps): the paper L1, the 4-way sweep
        // geometry, a direct-mapped and an 8-way cache.
        let geometries = [
            (4096u64, 2u32, 32u64, 8u32),
            (4096, 4, 32, 4),
            (1024, 1, 16, 8),
            (8192, 8, 64, 8),
        ];
        let mut analyses = 0;
        let mut groups = 0;
        for (bi, bench) in mbcr_malardalen::suite().iter().enumerate() {
            let pubbed = pub_transform(&bench.program, &PubConfig::paper())
                .expect("pub")
                .program;
            for (program, kind) in [(&bench.program, "original"), (&pubbed, "pub")] {
                for vector in &bench.input_vectors {
                    let trace = execute(program, &vector.inputs).expect("run").trace;
                    for &(size, ways, line, reps) in &geometries {
                        let mut cfg = TacConfig::new(size / (u64::from(ways) * line), ways);
                        cfg.mc_reps = reps;
                        cfg.seed = derive_seed(bi as u64, size + u64::from(ways));
                        for (cache, stream) in [
                            ("il1", trace.instr_lines(line)),
                            ("dl1", trace.data_lines(line)),
                        ] {
                            let what = format!(
                                "{} {kind} {} {cache} {size}:{ways}:{line}",
                                bench.name, vector.name
                            );
                            groups += assert_identical(&stream, &cfg, &what);
                            analyses += 1;
                        }
                    }
                }
            }
        }
        // 31 input vectors, two programs, four geometries, two caches.
        assert_eq!(analyses, 31 * 2 * 4 * 2);
        assert!(groups > 0);
    }

    #[test]
    fn random_streams_match_the_reference() {
        let mut g = SplitMix64::new(0x7AC0);
        let mut bound_by_groups = 0;
        let mut wide = 0;
        for case in 0..300u64 {
            // Every tenth case reuses 300+ lines against a hot cap of up to
            // 300; the rest mix a few dozen lines with long runs of repeats.
            let lines = if case.is_multiple_of(10) {
                300 + g.next_u64() % 40
            } else {
                2 + g.next_u64() % 40
            };
            let len = if case.is_multiple_of(10) { 2_400 } else { 600 };
            let mut s = Vec::with_capacity(len);
            while s.len() < len {
                let line = LineId(1_000 + 37 * (g.next_u64() % lines));
                for _ in 0..1 + g.next_u64() % 3 {
                    s.push(line);
                }
            }
            let ways = 1 + (g.next_u64() % 8) as u32;
            let mut cfg = TacConfig::new(1 << (g.next_u64() % 7), ways);
            cfg.mc_reps = 1 + (g.next_u64() % 9) as u32;
            cfg.seed = g.next_u64();
            cfg.max_hot_lines = if case.is_multiple_of(10) {
                256 + (g.next_u64() % 45) as usize
            } else {
                1 + (g.next_u64() % 300) as usize
            };
            cfg.max_neighbors = 1 + (g.next_u64() % 12) as usize;
            cfg.max_groups = 1 + (g.next_u64() % 60) as usize;
            cfg.min_interleave = 1 + (g.next_u64() % 3) as u32;
            cfg.min_extra_misses = (g.next_u64() % 6) as f64;
            let evaluated = assert_identical(&s, &cfg, &format!("case {case}: {cfg:?}"));
            bound_by_groups += usize::from(evaluated == cfg.max_groups);
            let reused = line_stats(&s).iter().filter(|l| l.count >= 2).count();
            wide += usize::from(reused.min(cfg.max_hot_lines) > 255);
        }
        assert!(bound_by_groups >= 30, "max_groups bound {bound_by_groups}");
        assert!(wide >= 20, "{wide} cases ranked more than 255 hot lines");
    }
}
