//! `--batch-width` picks no kernel and must never change a single artifact
//! byte.
//!
//! * a sweep at any batch width produces a store byte-identical to the
//!   width-1 sweep — every stage artifact (the convergence samples
//!   included), the campaign chunk logs and the rendered Table 2 — on the
//!   2-way paper geometry and on a 4-way one, convergence and campaign
//!   alike;
//! * that equivalence survives a mid-campaign kill: a batched sweep torn
//!   inside its final chunk frames and resumed at a *different* batch
//!   width still reconstructs the serial store exactly.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use mbcr::stage::StageKind;
use mbcr_engine::{
    expand, run_sweep, AnalysisKind, ArtifactStore, GeometrySpec, JobStatus, Registry, RunOptions,
    StageStore as _, SweepSpec,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbcr-batch-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec() -> SweepSpec {
    SweepSpec::new("batch-e2e")
        .benchmarks(["bs"])
        .geometries([
            GeometrySpec::paper_l1(),
            GeometrySpec::parse("4096:4:32").expect("4-way geometry"),
        ])
        .seeds([23])
        .analyses([AnalysisKind::PubTac])
}

fn opts(batch_width: usize) -> RunOptions {
    RunOptions {
        threads: 2,
        force: false,
        checkpoint_interval: Some(256),
        batch_width: Some(batch_width),
        ..RunOptions::default()
    }
}

/// The digests of every `stage` node of the spec, one per geometry, in
/// expansion order.
fn stage_digests(stage: StageKind) -> Vec<u64> {
    let graph = expand(&spec(), &Registry::malardalen()).expect("expand");
    let digests: Vec<u64> = graph
        .jobs
        .iter()
        .zip(&graph.digests)
        .filter(|(job, _)| job.kind.stage() == Some(stage))
        .filter_map(|(_, digest)| *digest)
        .collect();
    assert_eq!(digests.len(), 2, "one {} node per geometry", stage.name());
    digests
}

/// Every file under `stages/`, by name.
fn stage_files(store: &ArtifactStore) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(store.root().join("stages"))
        .expect("stages dir")
        .map(|entry| {
            let entry = entry.expect("stage entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, fs::read(entry.path()).expect("stage file"))
        })
        .collect()
}

/// Byte-compares every stage artifact and chunk log of two completed
/// stores, and their rendered Table 2.
fn assert_stores_identical(a: &ArtifactStore, b: &ArtifactStore, what: &str) {
    let (files_a, files_b) = (stage_files(a), stage_files(b));
    assert_eq!(
        files_a.keys().collect::<Vec<_>>(),
        files_b.keys().collect::<Vec<_>>(),
        "{what}: both stores must hold the same stage files"
    );
    for (name, bytes) in &files_a {
        assert!(
            *bytes == files_b[name],
            "{what}: stages/{name} must match byte-for-byte"
        );
    }
    for (stage, suffix) in [
        (StageKind::Converge, "json"),
        (StageKind::Campaign, "samples.slog"),
    ] {
        for digest in stage_digests(stage) {
            let name = format!("{digest:016x}.{suffix}");
            assert!(
                files_a.contains_key(&name),
                "{what}: the comparison must cover {name}"
            );
        }
    }
    assert_eq!(
        fs::read_to_string(a.table2_path()).expect("table2 a"),
        fs::read_to_string(b.table2_path()).expect("table2 b"),
        "{what}: rendered Table 2 must match exactly"
    );
}

/// Sweeping `--batch-width` (1, a non-dividing 7, the default 16) leaves
/// every artifact byte-identical, and a warm re-run at yet another width
/// is a full cache hit — the knob is digest-neutral.
#[test]
fn batch_width_sweep_reproduces_the_serial_store_exactly() {
    let registry = Registry::malardalen();
    let dir_serial = tmp_dir("serial");
    let store_serial = ArtifactStore::open(&dir_serial).expect("open serial store");
    let serial = run_sweep(&spec(), &registry, &store_serial, &opts(1)).expect("serial sweep");
    assert_eq!(serial.failed, 0);

    for width in [7usize, 16] {
        let dir = tmp_dir(&format!("w{width}"));
        let store = ArtifactStore::open(&dir).expect("open batched store");
        let batched = run_sweep(&spec(), &registry, &store, &opts(width)).expect("batched sweep");
        assert_eq!(batched.failed, 0);
        assert_eq!(batched.rows, serial.rows, "W={width}");
        assert_stores_identical(&store_serial, &store, &format!("W={width}"));

        // Digest-neutrality: re-running the same store at another width
        // must be a pure cache hit, not a re-execution.
        let warm = run_sweep(&spec(), &registry, &store, &opts(width * 2)).expect("warm sweep");
        assert!(
            warm.records.iter().all(|r| r.status == JobStatus::Skipped),
            "W={width}: a batch-width change alone must never invalidate the cache"
        );
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&dir_serial);
}

/// The kill story under batching: tear every campaign chunk log of a
/// batched sweep inside its final frame, drop everything a killed process
/// would not have written, resume at a different batch width — and still
/// get the width-1 store back byte-for-byte.
#[test]
fn killed_batched_sweep_resumes_to_the_serial_store() {
    let registry = Registry::malardalen();
    let dir_serial = tmp_dir("kill-serial");
    let store_serial = ArtifactStore::open(&dir_serial).expect("open serial store");
    let serial = run_sweep(&spec(), &registry, &store_serial, &opts(1)).expect("serial sweep");
    assert_eq!(serial.failed, 0);

    let dir = tmp_dir("kill-batched");
    let store = ArtifactStore::open(&dir).expect("open batched store");
    run_sweep(&spec(), &registry, &store, &opts(16)).expect("to-be-killed sweep");

    let mut valid_prefixes = Vec::new();
    for digest in stage_digests(StageKind::Campaign) {
        let log_path = store.stage_samples_path(digest);
        let pristine = fs::read(&log_path).expect("log bytes");
        let total = store.load_samples(digest).expect("complete log").len();
        fs::write(&log_path, &pristine[..pristine.len() - 7]).expect("tear the final frame");
        let valid = store.load_samples(digest).expect("torn log loads").len();
        assert!(valid < total, "the torn final frame must be discarded");
        valid_prefixes.push(valid as u64);
        fs::remove_file(store.stage_path(digest)).expect("drop completion marker");
    }
    for digest in stage_digests(StageKind::Fit) {
        fs::remove_file(store.stage_path(digest)).expect("drop fit artifact");
    }
    fs::remove_dir_all(dir.join("jobs")).expect("drop job artifacts");
    fs::remove_file(store.manifest_path()).expect("drop manifest");
    fs::remove_file(store.table2_path()).expect("drop table2");

    // Resume at a different width than the killed run used.
    let resumed = run_sweep(&spec(), &registry, &store, &opts(32)).expect("resumed sweep");
    assert_eq!(resumed.failed, 0);
    let campaigns: Vec<_> = resumed
        .records
        .iter()
        .filter(|r| r.label.starts_with("pub_tac:campaign/"))
        .collect();
    assert_eq!(campaigns.len(), valid_prefixes.len());
    for (campaign, &valid) in campaigns.iter().zip(&valid_prefixes) {
        assert_eq!(campaign.status, JobStatus::Executed);
        assert_eq!(
            campaign.summary.as_ref().and_then(|s| s.campaign_resumed),
            Some(valid),
            "the valid log prefix seeds the resume of {}",
            campaign.label
        );
    }
    assert_eq!(resumed.rows, serial.rows);
    assert_stores_identical(&store_serial, &store, "killed+resumed W=16→32");

    let _ = fs::remove_dir_all(&dir_serial);
    let _ = fs::remove_dir_all(&dir);
}
