//! End-to-end sharding guarantees, driven through the real `mbcr`
//! binary:
//!
//! * `mbcr sweep --shards N` produces a manifest, Table 2 CSV and sample
//!   chunk logs **byte-identical** to a single-process `mbcr sweep`;
//! * a worker killed with SIGKILL mid-campaign costs nothing: its jobs
//!   re-lease to the surviving worker of the daemon's fleet, which
//!   *adopts* the in-flight campaign from the daemon's chunk log, the
//!   manifest marks the job resumed, and every artifact still matches
//!   the single-process run byte-for-byte (the manifest differing only
//!   in the resumed-run count).

mod common;

use std::fs;
use std::path::Path;
use std::process::Child;

use common::{
    assert_dirs_identical, assert_sweep_matches, max_campaign_resumed, run_ok, spawn_worker,
    submit, tmp_dir, wait_for_slog_bytes, Daemon,
};

#[test]
fn sharded_sweep_matches_single_process_byte_for_byte() {
    let dir_single = tmp_dir("clean-single");
    let dir_sharded = tmp_dir("clean-sharded");
    let spec_args = |out: &Path| {
        vec![
            "sweep".to_string(),
            "--benchmarks".to_string(),
            "bs,crc".to_string(),
            "--inputs".to_string(),
            "all".to_string(),
            "--seeds".to_string(),
            "11".to_string(),
            "--checkpoint-interval".to_string(),
            "256".to_string(),
            "--out".to_string(),
            out.display().to_string(),
        ]
    };
    let single: Vec<String> = spec_args(&dir_single);
    run_ok(&single.iter().map(String::as_str).collect::<Vec<_>>());
    let mut sharded: Vec<String> = spec_args(&dir_sharded);
    sharded.extend(["--shards".to_string(), "2".to_string()]);
    run_ok(&sharded.iter().map(String::as_str).collect::<Vec<_>>());

    // Everything — manifest, table2.csv, stage artifacts, chunk logs, job
    // artifacts and job sample logs — must match byte-for-byte.
    assert_dirs_identical(&dir_single, &dir_sharded, "store");

    // A second sharded pass over the same store is fully cached: the
    // manifest reports zero executions.
    run_ok(&sharded.iter().map(String::as_str).collect::<Vec<_>>());
    let manifest = fs::read_to_string(dir_sharded.join("manifest.json")).expect("manifest");
    let doc = mbcr_json::parse(&manifest).expect("manifest parses");
    let counts = doc.get("counts").expect("counts");
    assert_eq!(
        counts.get("executed").and_then(mbcr_json::Json::as_u64),
        Some(0),
        "warm sharded re-run must execute nothing"
    );
    assert!(
        counts
            .get("skipped")
            .and_then(mbcr_json::Json::as_u64)
            .unwrap_or(0)
            > 0,
        "warm sharded re-run reports its cache hits"
    );

    let _ = fs::remove_dir_all(&dir_single);
    let _ = fs::remove_dir_all(&dir_sharded);
}

/// One kill attempt: a daemon plus two external workers run the sweep;
/// SIGKILL one worker once campaign logs have grown well past the
/// convergence prefix, and let the survivor finish. Returns the sweep id
/// and the resumed-run count found in its manifest (`0` when the kill
/// missed every in-flight campaign — the caller retries).
fn kill_one_worker_mid_campaign(out: &Path, spec_args: &[&str]) -> (String, u64) {
    let daemon = Daemon::spawn(out);
    let id = submit(&daemon.url(), spec_args);
    let mut workers: Vec<Child> = (0..2).map(|_| spawn_worker(&daemon.addr)).collect();
    // ~4k runs of delta-varint samples: past R_pub (~1k for bs), well
    // inside the ~21k-run campaigns.
    wait_for_slog_bytes(out, 8 * 1024);
    let victim = &mut workers[0];
    victim.kill().expect("SIGKILL the worker");
    victim.wait().expect("reap the worker");

    // The follow exits 0 only once the sweep completed without a failed
    // job, despite the killed worker.
    run_ok(&[
        "report",
        "--connect",
        &daemon.url(),
        "--follow",
        "--sweep",
        &id,
    ]);
    for w in &mut workers {
        let _ = w.kill();
        let _ = w.wait();
    }
    let resumed = max_campaign_resumed(&out.join("sweeps").join(&id).join("manifest.json"));
    (id, resumed)
}

#[test]
fn killed_worker_mid_campaign_resumes_and_reproduces_every_artifact() {
    // Campaigns long enough (R_tac ≈ 21k for bs) that an 8 KiB log is
    // early-campaign, two seeds so both workers hold a campaign when the
    // SIGKILL lands.
    let spec_args = [
        "--benchmarks",
        "bs",
        "--seeds",
        "7,8",
        "--analyses",
        "pub_tac",
        "--max-campaign-runs",
        "60000",
        "--checkpoint-interval",
        "500",
    ];
    let reference = tmp_dir("kill-reference");
    let mut single: Vec<&str> = vec!["sweep"];
    single.extend(spec_args);
    let reference_out = reference.display().to_string();
    single.extend(["--out", &reference_out]);
    run_ok(&single);
    let ref_manifest = fs::read_to_string(reference.join("manifest.json")).expect("manifest");
    let ref_table = fs::read_to_string(reference.join("table2.csv")).expect("table2");

    // The kill can race a campaign's completion; retry on a fresh store
    // until it lands mid-flight (the first attempt almost always does —
    // the kill fires ~4k runs into ~21k-run campaigns).
    let mut resumed = 0;
    for attempt in 0..4 {
        let out = tmp_dir(&format!("kill-sharded-{attempt}"));
        let (id, count) = kill_one_worker_mid_campaign(&out, &spec_args);
        resumed = count;
        if resumed > 0 {
            // The manifest marks the adopted campaign resumed; everything
            // else — table2.csv, stage artifacts, chunk logs, job
            // artifacts and job sample logs — matches the single-process
            // store byte-for-byte. The manifest itself differs *only* in
            // that resumed-run count.
            assert_sweep_matches(&out, &id, &reference, &ref_manifest, &ref_table);
            let _ = fs::remove_dir_all(&out);
            break;
        }
        eprintln!("attempt {attempt}: kill missed every in-flight campaign; retrying");
        let _ = fs::remove_dir_all(&out);
    }
    assert!(
        resumed > 0,
        "no attempt interrupted a campaign mid-flight; the adoption path \
         was never exercised"
    );
    let _ = fs::remove_dir_all(&reference);
}
