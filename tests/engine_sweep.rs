//! End-to-end tests of the batch engine: a small sweep writes a complete
//! artifact store at stage granularity, a warm re-run skips every node, a
//! knob change resumes mid-analysis, and results are deterministic across
//! invocations.

use std::fs;
use std::path::{Path, PathBuf};

use mbcr_engine::{
    expand, run_sweep, AnalysisKind, ArtifactStore, GeometrySpec, InputSelection, JobStatus,
    JobSummary, Registry, RunOptions, StageKind, SweepSpec,
};
use mbcr_json::Serialize;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbcr-engine-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A tiny but representative campaign: one multipath benchmark (bs, two
/// named inputs, so a combine node appears) across two geometries.
/// Campaigns are capped hard so the whole test runs in seconds.
fn tiny_spec() -> SweepSpec {
    SweepSpec::new("engine-it")
        .benchmarks(["bs"])
        .inputs(InputSelection::Named(vec!["v1".into(), "v3".into()]))
        .geometries([
            GeometrySpec::paper_l1(),
            GeometrySpec::parse("2048:2:32").unwrap(),
        ])
        .seeds([11])
        .analyses([
            AnalysisKind::Original,
            AnalysisKind::PubTac,
            AnalysisKind::Multipath,
        ])
}

#[test]
fn cold_sweep_writes_artifacts_and_warm_rerun_skips() {
    let registry = Registry::malardalen();
    let spec = tiny_spec();
    let dir = tmp_dir("cold-warm");
    let store = ArtifactStore::open(&dir).expect("open store");
    let opts = RunOptions {
        threads: 4,
        force: false,
        checkpoint_interval: None,
        ..RunOptions::default()
    };

    // Stage-granular expansion over 2 cells (2 geometries × 1 seed):
    // shared orig trace (1) + orig converge/fit per cell (4), shared pub
    // (1) + shared per-input traces (2) + per cell × input: tac×2,
    // converge, campaign, fit (20) + combine per cell (2).
    let graph = expand(&spec, &registry).expect("expand");
    assert_eq!(graph.len(), 30);

    let cold = run_sweep(&spec, &registry, &store, &opts).expect("cold sweep");
    assert_eq!(cold.executed, 30);
    assert_eq!(cold.skipped, 0);
    assert_eq!(cold.failed, 0);

    // Artifacts: manifest, table2, a stage artifact per stage node (plus
    // one path-coverage artifact per benchmark and one cache-class
    // artifact per benchmark × geometry, written at finalization), and
    // full-result job JSON (plus samples for pub_tac) for terminals.
    assert!(store.manifest_path().is_file(), "manifest.json missing");
    assert!(store.table2_path().is_file(), "table2.csv missing");
    let stage_entries: Vec<String> = fs::read_dir(dir.join("stages"))
        .expect("stages dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let stage_artifacts = stage_entries
        .iter()
        .filter(|n| n.ends_with(".json"))
        .count();
    assert_eq!(
        stage_artifacts,
        28 + 1 + 2,
        "one artifact per stage node + path coverage for bs + cache class per geometry"
    );
    let stage_logs = stage_entries
        .iter()
        .filter(|n| n.ends_with(".samples.slog"))
        .count();
    assert_eq!(stage_logs, 4, "one streamed chunk log per campaign node");
    for record in &cold.records {
        let stage = record.label.rsplit('/').next().unwrap_or("");
        let terminal = record.label.starts_with("multipath/") || record.label.contains(":fit/");
        assert_eq!(
            store.has_job_result(&record.key, None),
            terminal,
            "full-result JSON exactly for terminal nodes: {} (stage {stage})",
            record.label
        );
    }
    let sample_logs = fs::read_dir(dir.join("jobs"))
        .expect("jobs dir")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".samples.slog")
        })
        .count();
    assert_eq!(sample_logs, 4, "one sample chunk log per pub_tac fit node");

    // Table 2 layout: one row per (input, geometry) cell, every paper
    // column populated.
    assert_eq!(cold.rows.len(), 4);
    let table2 = fs::read_to_string(store.table2_path()).expect("read table2");
    assert!(
        table2.starts_with("benchmark,input,geometry,seed,R_orig,R_pub,R_tac,R_pub_tac,pwcet_orig")
    );
    assert_eq!(table2.lines().count(), 1 + 4);
    for row in &cold.rows {
        assert!(row.r_orig.is_some(), "R_orig missing: {row:?}");
        assert!(row.r_pub.is_some(), "R_pub missing: {row:?}");
        assert!(row.r_tac.is_some(), "R_tac missing: {row:?}");
        assert!(row.r_pub_tac.is_some(), "R_pub+tac missing: {row:?}");
        assert!(row.pwcet_pub_tac.is_some(), "pWCET missing: {row:?}");
        assert!(
            row.pwcet_multipath.is_some(),
            "multipath column missing: {row:?}"
        );
        assert_eq!(
            row.r_pub_tac.unwrap(),
            row.r_pub.unwrap().max(row.r_tac.unwrap())
        );
    }

    // Warm re-run: same spec, same store — every node must be served from
    // the artifact store and the aggregation must be identical.
    let warm = run_sweep(&spec, &registry, &store, &opts).expect("warm sweep");
    assert_eq!(warm.executed, 0, "warm re-run must skip all nodes");
    assert_eq!(warm.skipped, 30);
    assert_eq!(warm.failed, 0);
    assert!(warm.records.iter().all(|r| r.status == JobStatus::Skipped));
    assert_eq!(
        warm.rows, cold.rows,
        "cached aggregation must reproduce the cold run"
    );

    // `force` bypasses the cache.
    let forced = run_sweep(
        &spec,
        &registry,
        &store,
        &RunOptions {
            threads: 4,
            force: true,
            checkpoint_interval: None,
            ..RunOptions::default()
        },
    )
    .expect("forced sweep");
    assert_eq!(forced.executed, 30);
    assert_eq!(
        forced.rows, cold.rows,
        "forced re-run must be deterministic"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// A warm re-run reports what the cold run computed: every job summary
/// (original, pub_tac and multipath nodes) serializes to the same manifest
/// entry, apart from `campaign_resumed`, which only an executing campaign
/// sets.
#[test]
fn warm_rerun_reproduces_every_job_summary() {
    let registry = Registry::malardalen();
    let spec = SweepSpec::new("warm-summaries")
        .benchmarks(["bs"])
        .inputs(InputSelection::Named(vec!["v1".into(), "v3".into()]))
        .seeds([11])
        .analyses([
            AnalysisKind::Original,
            AnalysisKind::PubTac,
            AnalysisKind::Multipath,
        ]);
    let dir = tmp_dir("warm-summaries");
    let store = ArtifactStore::open(&dir).expect("open store");
    let opts = RunOptions {
        threads: 2,
        force: false,
        checkpoint_interval: None,
        ..RunOptions::default()
    };

    let cold = run_sweep(&spec, &registry, &store, &opts).expect("cold sweep");
    let warm = run_sweep(&spec, &registry, &store, &opts).expect("warm sweep");
    assert_eq!((cold.failed, warm.executed), (0, 0));
    assert_eq!(cold.records.len(), warm.records.len());
    for (c, w) in cold.records.iter().zip(&warm.records) {
        assert_eq!(c.key, w.key, "records in expansion order");
        let entry = |summary: &Option<JobSummary>| {
            let mut summary = summary.clone().expect("every job has a summary");
            summary.campaign_resumed = None;
            Serialize::to_json(&summary).to_compact()
        };
        assert_eq!(entry(&c.summary), entry(&w.summary), "{}", c.label);
    }

    let _ = fs::remove_dir_all(&dir);
}

/// The headline resume scenario: changing only `max_campaign_runs` must
/// reuse cached PUB/trace/TAC/converge artifacts and re-execute exactly
/// the campaign and fit stages (and the combine, whose key cascades).
#[test]
fn campaign_cap_change_resumes_mid_analysis() {
    let registry = Registry::malardalen();
    let spec = SweepSpec::new("resume")
        .benchmarks(["bs"])
        .inputs(InputSelection::Named(vec!["v1".into(), "v3".into()]))
        .seeds([21]);
    let dir = tmp_dir("resume");
    let store = ArtifactStore::open(&dir).expect("open store");
    let opts = RunOptions {
        threads: 4,
        force: false,
        checkpoint_interval: None,
        ..RunOptions::default()
    };

    let cold = run_sweep(&spec, &registry, &store, &opts).expect("cold");
    assert_eq!(cold.failed, 0);

    let recapped = SweepSpec {
        max_campaign_runs: Some(400),
        ..spec.clone()
    };
    let resumed = run_sweep(&recapped, &registry, &store, &opts).expect("resumed");
    assert_eq!(resumed.failed, 0);
    for record in &resumed.records {
        let stage = record.label.split('/').next().unwrap_or("?");
        let expect_executed = matches!(stage, "pub_tac:campaign" | "pub_tac:fit" | "multipath");
        let expected = if expect_executed {
            JobStatus::Executed
        } else {
            JobStatus::Skipped
        };
        assert_eq!(
            record.status, expected,
            "stage '{stage}' after a cap change: {}",
            record.label
        );
    }
    // The resumed campaign is genuinely capped and still self-consistent.
    for row in &resumed.rows {
        assert!(row.r_pub.is_some() && row.r_tac.is_some());
        assert_eq!(
            row.r_pub_tac.unwrap(),
            row.r_pub.unwrap().max(row.r_tac.unwrap())
        );
    }
    // The untouched stages kept their cold-run numbers.
    for (cold_row, resumed_row) in cold.rows.iter().zip(&resumed.rows) {
        assert_eq!(cold_row.r_pub, resumed_row.r_pub);
        assert_eq!(cold_row.r_tac, resumed_row.r_tac);
        assert_eq!(cold_row.r_orig, resumed_row.r_orig);
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn two_benchmark_sweep_covers_both_and_changing_spec_invalidates() {
    let registry = Registry::malardalen();
    let spec = SweepSpec::new("engine-it-2")
        .benchmarks(["bs", "insertsort"])
        .geometries([
            GeometrySpec::paper_l1(),
            GeometrySpec::parse("2048:2:32").unwrap(),
        ])
        .seeds([3])
        .analyses([AnalysisKind::PubTac]);
    let dir = tmp_dir("two-bench");
    let store = ArtifactStore::open(&dir).expect("open store");
    let opts = RunOptions {
        threads: 4,
        force: false,
        checkpoint_interval: None,
        ..RunOptions::default()
    };

    // Per benchmark: shared pub + trace, then tac×2 + converge +
    // campaign + fit per geometry cell.
    let cold = run_sweep(&spec, &registry, &store, &opts).expect("cold");
    assert_eq!(cold.executed, 2 * (2 + 2 * 5), "2 benchmarks × stage DAG");
    let benchmarks: std::collections::HashSet<&str> =
        cold.rows.iter().map(|r| r.benchmark.as_str()).collect();
    assert_eq!(benchmarks, ["bs", "insertsort"].into_iter().collect());

    // A different master seed reseeds TAC/converge/campaign/fit, but the
    // seed-free PUB transform and path trace stay valid — stage-level
    // caching is finer than whole-job caching.
    let reseeded = SweepSpec {
        seeds: vec![4],
        ..spec.clone()
    };
    let rerun = run_sweep(&reseeded, &registry, &store, &opts).expect("reseeded");
    assert_eq!(
        rerun.skipped, 4,
        "pub + trace per benchmark survive a seed change"
    );
    assert_eq!(rerun.executed, 20, "seeded stages must re-execute");
    for record in rerun
        .records
        .iter()
        .filter(|r| r.status == JobStatus::Skipped)
    {
        let stage = record.label.split('/').next().unwrap_or("?");
        assert!(
            matches!(stage, "pub_tac:pub" | "pub_tac:trace"),
            "only seed-free stages may be cached, got {}",
            record.label
        );
    }

    // The original spec is still fully cached.
    let warm = run_sweep(&spec, &registry, &store, &opts).expect("warm");
    assert_eq!(warm.skipped, 24);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn multipath_combination_is_the_min_over_inputs() {
    let registry = Registry::malardalen();
    let spec = SweepSpec::new("engine-it-3")
        .benchmarks(["bs"])
        .inputs(InputSelection::Named(vec![
            "v1".into(),
            "v3".into(),
            "v5".into(),
        ]))
        .seeds([5])
        .analyses([AnalysisKind::PubTac, AnalysisKind::Multipath]);
    let dir = tmp_dir("multipath");
    let store = ArtifactStore::open(&dir).expect("open store");

    let outcome = run_sweep(
        &spec,
        &registry,
        &store,
        &RunOptions {
            threads: 2,
            force: false,
            checkpoint_interval: None,
            ..RunOptions::default()
        },
    )
    .expect("sweep");
    assert_eq!(outcome.failed, 0);
    let min_pwcet = outcome
        .rows
        .iter()
        .filter_map(|r| r.pwcet_pub_tac)
        .fold(f64::INFINITY, f64::min);
    for row in &outcome.rows {
        assert_eq!(
            row.pwcet_multipath,
            Some(min_pwcet),
            "Corollary 2: combination must be the per-cell minimum"
        );
    }

    let _ = fs::remove_dir_all(&dir);
}

/// A store shipped with only the content-addressed `stages/` directory
/// (the sharding boundary) must regenerate the full-result job artifacts
/// rather than reporting everything cached while `jobs/` stays empty.
#[test]
fn pruned_jobs_dir_regenerates_full_results() {
    let registry = Registry::malardalen();
    let spec = SweepSpec::new("pruned")
        .benchmarks(["insertsort"])
        .seeds([13])
        .analyses([AnalysisKind::PubTac]);
    let dir = tmp_dir("pruned");
    let store = ArtifactStore::open(&dir).expect("open store");
    let opts = RunOptions {
        threads: 2,
        force: false,
        checkpoint_interval: None,
        ..RunOptions::default()
    };

    let cold = run_sweep(&spec, &registry, &store, &opts).expect("cold");
    assert_eq!(cold.failed, 0);
    fs::remove_dir_all(dir.join("jobs")).expect("prune jobs dir");

    let rerun = run_sweep(&spec, &registry, &store, &opts).expect("rerun");
    assert_eq!(rerun.failed, 0);
    for record in &rerun.records {
        let terminal = record.label.contains(":fit/");
        let expected = if terminal {
            JobStatus::Executed
        } else {
            JobStatus::Skipped
        };
        assert_eq!(record.status, expected, "{}", record.label);
        if terminal {
            assert!(
                store.has_job_result(&record.key, None),
                "full-result JSON must be regenerated: {}",
                record.label
            );
        }
    }
    assert_eq!(rerun.rows, cold.rows, "regeneration reproduces the results");

    let _ = fs::remove_dir_all(&dir);
}

/// Damages the full result of a sweep's pub_tac fit node with `damage`
/// (given its job file and job sample log), re-runs the sweep, and checks
/// that exactly that node re-executes and rewrites both files byte for
/// byte.
fn damaged_fit_result_regenerates(tag: &str, damage: impl Fn(&Path, &Path)) {
    let registry = Registry::malardalen();
    let spec = SweepSpec::new(tag)
        .benchmarks(["insertsort"])
        .seeds([13])
        .analyses([AnalysisKind::PubTac]);
    let dir = tmp_dir(tag);
    let store = ArtifactStore::open(&dir).expect("open store");
    let opts = RunOptions {
        threads: 2,
        force: false,
        checkpoint_interval: None,
        ..RunOptions::default()
    };

    let cold = run_sweep(&spec, &registry, &store, &opts).expect("cold");
    assert_eq!(cold.failed, 0);
    let fit = cold
        .records
        .iter()
        .find(|r| r.label.starts_with("pub_tac:fit/"))
        .expect("a pub_tac fit node");
    let (job, log) = (store.job_path(&fit.key), store.sample_path(&fit.key));
    let clean = (
        fs::read(&job).expect("job file"),
        fs::read(&log).expect("log"),
    );
    damage(&job, &log);

    let rerun = run_sweep(&spec, &registry, &store, &opts).expect("rerun");
    assert_eq!(rerun.failed, 0);
    for record in &rerun.records {
        let expected = if record.key == fit.key {
            JobStatus::Executed
        } else {
            JobStatus::Skipped
        };
        assert_eq!(record.status, expected, "{}", record.label);
    }
    assert_eq!(fs::read(&job).expect("job file"), clean.0, "job file bytes");
    assert_eq!(fs::read(&log).expect("log"), clean.1, "sample log bytes");
    assert_eq!(rerun.rows, cold.rows);

    let _ = fs::remove_dir_all(&dir);
}

/// A job file of another schema (or one whose summary does not parse) is
/// not a fit node's full result.
#[test]
fn foreign_job_artifact_regenerates_the_fit_result() {
    damaged_fit_result_regenerates("foreign-job", |job, _| {
        fs::write(job, r#"{"schema": "other/9", "summary": {}}"#).expect("stub job file");
    });
}

/// A pub_tac fit's job sample log must cover its whole campaign: a log cut
/// short is not a full result, although the job file is intact.
#[test]
fn short_job_sample_log_regenerates_the_fit_result() {
    damaged_fit_result_regenerates("short-log", |_, log| {
        let bytes = fs::read(log).expect("log");
        fs::write(log, &bytes[..bytes.len() / 2]).expect("truncate log");
    });
}

/// A torn stage artifact (interrupted writer) must be re-executed, never
/// trusted as a cache hit.
#[test]
fn torn_stage_artifact_is_not_a_cache_hit() {
    let registry = Registry::malardalen();
    let spec = SweepSpec::new("torn")
        .benchmarks(["insertsort"])
        .seeds([9])
        .analyses([AnalysisKind::PubTac]);
    let dir = tmp_dir("torn");
    let store = ArtifactStore::open(&dir).expect("open store");
    let opts = RunOptions {
        threads: 2,
        force: false,
        checkpoint_interval: None,
        ..RunOptions::default()
    };

    let cold = run_sweep(&spec, &registry, &store, &opts).expect("cold");
    assert_eq!(cold.failed, 0);

    // Truncate every converge stage artifact mid-file.
    let graph = expand(&spec, &registry).expect("expand");
    let mut truncated = 0;
    for (i, job) in graph.jobs.iter().enumerate() {
        if job.kind.stage() == Some(StageKind::Converge) {
            let digest = graph.digests[i].expect("stage digest");
            let path = store.stage_path(digest);
            let text = fs::read_to_string(&path).expect("artifact exists");
            fs::write(&path, &text[..text.len() / 2]).expect("truncate");
            truncated += 1;
        }
    }
    assert!(truncated >= 1);

    let rerun = run_sweep(&spec, &registry, &store, &opts).expect("rerun");
    assert_eq!(rerun.failed, 0);
    let re_executed: Vec<&str> = rerun
        .records
        .iter()
        .filter(|r| r.status == JobStatus::Executed)
        .map(|r| r.label.as_str())
        .collect();
    assert!(
        re_executed
            .iter()
            .any(|l| l.starts_with("pub_tac:converge/")),
        "the torn converge stage must re-execute, got {re_executed:?}"
    );
    assert_eq!(
        rerun.rows, cold.rows,
        "recovery must reproduce the original results"
    );

    let _ = fs::remove_dir_all(&dir);
}
