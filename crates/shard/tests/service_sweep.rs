//! End-to-end guarantees of the multi-sweep service daemon, driven
//! through the real `mbcr` binary (clients over the `--http` gateway,
//! workers as external processes):
//!
//! * two overlapping sweeps submitted **concurrently** to one daemon
//!   produce per-sweep manifests and Table 2 CSVs byte-identical to
//!   sequential single-process runs of the same specs against one store,
//!   with every digest-shared stage executed exactly once (the second
//!   sweep's manifest reports it `skipped` — truthful counts on both
//!   sides);
//! * a daemon killed with SIGKILL mid-campaign resumes its whole queue
//!   on restart: journaled job records replay with their original
//!   statuses, the interrupted campaign adopts its chunk log, and every
//!   artifact matches the clean reference byte-for-byte — the manifests
//!   differing only in `campaign_resumed`;
//! * a worker sent SIGTERM drains gracefully: it checkpoints and flushes
//!   the in-flight campaign chunk, hands its leases back, and exits 0,
//!   while the surviving fleet adopts the campaign and the outputs stay
//!   byte-identical to a single-process run.

mod common;

use std::fs;
use std::path::Path;
use std::process::{Child, Command};

use common::{
    assert_dirs_identical, assert_sweep_matches, max_campaign_resumed, run_ok, spawn_worker,
    submit, tmp_dir, wait_for_slog_bytes, Daemon,
};

/// Blocks until every sweep on the daemon is terminal.
fn follow_until_done(url: &str) {
    run_ok(&["report", "--connect", url, "--follow"]);
}

/// Sequential single-process reference: runs each spec with `mbcr sweep`
/// against one store, capturing (manifest, table2) after each — exactly
/// what the daemon's per-sweep scopes must reproduce byte-for-byte.
fn sequential_reference(store: &Path, specs: &[Vec<String>]) -> Vec<(String, String)> {
    let mut captured = Vec::new();
    for spec in specs {
        let mut args: Vec<&str> = vec!["sweep", "--out"];
        let out = store.display().to_string();
        args.push(&out);
        args.extend(spec.iter().map(String::as_str));
        run_ok(&args);
        captured.push((
            fs::read_to_string(store.join("manifest.json")).expect("manifest"),
            fs::read_to_string(store.join("table2.csv")).expect("table2"),
        ));
    }
    captured
}

/// The sweep-spec arguments of the two overlapping campaigns used by the
/// dedup test: same benchmark and seed 11 everywhere (whole pipelines
/// shared), beta adding seed 12 (sharing only the seed-free pub/trace
/// stages with alpha).
fn overlap_specs(quick: bool) -> Vec<Vec<String>> {
    let (alpha_seeds, beta_seeds) = ("11", "11,12");
    let cap = if quick { "600" } else { "60000" };
    let make = |name: &str, seeds: &str| -> Vec<String> {
        [
            "--name",
            name,
            "--benchmarks",
            "bs",
            "--seeds",
            seeds,
            "--analyses",
            "pub_tac",
            "--max-campaign-runs",
            cap,
            "--checkpoint-interval",
            "200",
        ]
        .into_iter()
        .map(str::to_string)
        .collect()
    };
    vec![make("alpha", alpha_seeds), make("beta", beta_seeds)]
}

#[test]
fn concurrent_overlapping_sweeps_dedup_and_match_sequential_runs_byte_for_byte() {
    let reference = tmp_dir("dedup-ref");
    let specs = overlap_specs(true);
    let captured = sequential_reference(&reference, &specs);

    let out = tmp_dir("dedup-daemon");
    let daemon = Daemon::spawn(&out);
    // Submit both before any worker exists: when the fleet comes up, both
    // sweeps are active concurrently and the scheduler interleaves them.
    let spec_refs: Vec<Vec<&str>> = specs
        .iter()
        .map(|s| s.iter().map(String::as_str).collect())
        .collect();
    let id_alpha = submit(&daemon.url(), &spec_refs[0]);
    let id_beta = submit(&daemon.url(), &spec_refs[1]);
    assert_ne!(id_alpha, id_beta);
    let mut workers: Vec<Child> = (0..2).map(|_| spawn_worker(&daemon.addr)).collect();
    follow_until_done(&daemon.url());
    for w in &mut workers {
        let _ = w.kill();
        let _ = w.wait();
    }

    // Per-sweep manifests and tables: byte-identical to the sequential
    // single-process runs.
    for (id, (ref_manifest, ref_table)) in [&id_alpha, &id_beta].iter().zip(&captured) {
        let scope = out.join("sweeps").join(id);
        assert_eq!(
            &fs::read_to_string(scope.join("manifest.json")).expect("manifest"),
            ref_manifest,
            "{id} manifest must match its sequential reference"
        );
        assert_eq!(
            &fs::read_to_string(scope.join("table2.csv")).expect("table2"),
            ref_table,
            "{id} table2 must match its sequential reference"
        );
    }
    // Shared content: the same artifact universe, byte for byte (this is
    // also what proves shared stages executed once — a re-execution would
    // have been recorded as `executed` in beta's manifest, which already
    // matched the sequential reference above).
    assert_dirs_identical(&reference.join("jobs"), &out.join("jobs"), "jobs/");
    assert_dirs_identical(&reference.join("stages"), &out.join("stages"), "stages/");

    // Truthful counts, stated explicitly: alpha executed its pipeline,
    // beta skipped every stage it shares with alpha (all of seed 11) and
    // executed only its own seed-12 work.
    let counts = |manifest: &str| {
        let doc = mbcr_json::parse(manifest).expect("manifest parses");
        let counts = doc.get("counts").expect("counts").clone();
        (
            counts
                .get("executed")
                .and_then(mbcr_json::Json::as_u64)
                .unwrap(),
            counts
                .get("skipped")
                .and_then(mbcr_json::Json::as_u64)
                .unwrap(),
        )
    };
    let (alpha_executed, alpha_skipped) = counts(&captured[0].0);
    let (beta_executed, beta_skipped) = counts(&captured[1].0);
    assert!(alpha_executed > 0 && alpha_skipped == 0);
    assert!(
        beta_skipped >= alpha_executed,
        "beta must skip at least alpha's whole shared pipeline"
    );
    assert!(beta_executed > 0, "beta still executes its seed-12 stages");

    let _ = fs::remove_dir_all(&reference);
    let _ = fs::remove_dir_all(&out);
}

/// One kill attempt for the daemon-restart test. Returns the maximum
/// `campaign_resumed` found across both sweeps' manifests (`0` when the
/// SIGKILL missed every in-flight campaign — the caller retries).
fn kill_daemon_mid_campaign(out: &Path, specs: &[Vec<String>]) -> u64 {
    let spec_refs: Vec<Vec<&str>> = specs
        .iter()
        .map(|s| s.iter().map(String::as_str).collect())
        .collect();
    let ids: Vec<String>;
    {
        let daemon = Daemon::spawn(out);
        ids = spec_refs.iter().map(|s| submit(&daemon.url(), s)).collect();
        let mut workers: Vec<Child> = (0..2).map(|_| spawn_worker(&daemon.addr)).collect();
        // Let the campaigns stream well past the convergence prefix, then
        // SIGKILL the daemon mid-flight.
        wait_for_slog_bytes(out, 8 * 1024);
        drop(daemon); // SIGKILL (Drop uses Child::kill)
        for w in &mut workers {
            let _ = w.kill();
            let _ = w.wait();
        }
    }
    // Restart over the same store: the queue and record journals must
    // bring both sweeps back, mid-campaign work adopted from chunk logs.
    let daemon = Daemon::spawn(out);
    let mut workers: Vec<Child> = (0..2).map(|_| spawn_worker(&daemon.addr)).collect();
    follow_until_done(&daemon.url());
    let status = run_ok(&["status", "--connect", &daemon.url()]);
    for w in &mut workers {
        let _ = w.kill();
        let _ = w.wait();
    }
    for id in &ids {
        assert!(
            status.contains(id.as_str()),
            "restarted daemon must still know sweep {id}:\n{status}"
        );
    }
    ids.iter()
        .map(|id| max_campaign_resumed(&out.join("sweeps").join(id).join("manifest.json")))
        .max()
        .unwrap_or(0)
}

#[test]
fn sigkilled_daemon_resumes_its_whole_queue_byte_identically() {
    let specs = overlap_specs(false); // ~21k-run campaigns: room to interrupt
    let reference = tmp_dir("daemon-kill-ref");
    let captured = sequential_reference(&reference, &specs);

    let mut resumed = 0;
    for attempt in 0..4 {
        let out = tmp_dir(&format!("daemon-kill-{attempt}"));
        resumed = kill_daemon_mid_campaign(&out, &specs);
        if resumed > 0 {
            // Shared content identical to the clean sequential store, and
            // the per-sweep manifests/tables differ from the clean
            // references only in the resumed-run counts.
            let ids = ["s000-alpha", "s001-beta"];
            for (id, (ref_manifest, ref_table)) in ids.iter().zip(&captured) {
                assert_sweep_matches(&out, id, &reference, ref_manifest, ref_table);
            }
            let _ = fs::remove_dir_all(&out);
            break;
        }
        eprintln!("attempt {attempt}: kill missed every in-flight campaign; retrying");
        let _ = fs::remove_dir_all(&out);
    }
    assert!(
        resumed > 0,
        "no attempt interrupted a campaign mid-flight; the queue-resume \
         adoption path was never exercised"
    );
    let _ = fs::remove_dir_all(&reference);
}

/// One drain attempt: a daemon plus two external workers, SIGTERM one
/// worker once the campaign logs have grown, assert it exits 0 (graceful
/// drain), let the survivor finish. Returns the sweep id and its
/// manifest's max resumed-run count (`0` when the drain missed every
/// in-flight campaign).
#[cfg(unix)]
fn drain_one_worker_mid_campaign(out: &Path, spec_args: &[&str]) -> (String, u64) {
    let daemon = Daemon::spawn(out);
    let id = submit(&daemon.url(), spec_args);
    let mut victim = spawn_worker(&daemon.addr);
    let mut survivor = spawn_worker(&daemon.addr);
    wait_for_slog_bytes(out, 8 * 1024);
    // SIGTERM, not SIGKILL: the worker must checkpoint, flush, send its
    // Drain frame, and exit zero.
    let term = Command::new("kill")
        .arg(victim.id().to_string())
        .status()
        .expect("send SIGTERM");
    assert!(term.success(), "kill(1) failed");
    let drained = victim.wait().expect("reap the drained worker");
    assert!(
        drained.success(),
        "a SIGTERM'd worker must drain gracefully and exit 0, got {drained}"
    );

    // The follow exits 0 only once the sweep completed without a failed
    // job: the survivor finished the drained worker's campaign.
    run_ok(&[
        "report",
        "--connect",
        &daemon.url(),
        "--follow",
        "--sweep",
        &id,
    ]);
    let _ = survivor.kill();
    let _ = survivor.wait();
    let resumed = max_campaign_resumed(&out.join("sweeps").join(&id).join("manifest.json"));
    (id, resumed)
}

#[cfg(unix)]
#[test]
fn sigtermed_worker_drains_gracefully_and_the_fleet_adopts_its_campaign() {
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
    let reference = tmp_dir("drain-ref");
    let mut single: Vec<&str> = vec!["sweep"];
    single.extend(spec_args);
    let reference_out = reference.display().to_string();
    single.extend(["--out", &reference_out]);
    run_ok(&single);
    let ref_manifest = fs::read_to_string(reference.join("manifest.json")).expect("manifest");
    let ref_table = fs::read_to_string(reference.join("table2.csv")).expect("table2");

    let mut resumed = 0;
    for attempt in 0..4 {
        let out = tmp_dir(&format!("drain-{attempt}"));
        let (id, count) = drain_one_worker_mid_campaign(&out, &spec_args);
        resumed = count;
        if resumed > 0 {
            assert_sweep_matches(&out, &id, &reference, &ref_manifest, &ref_table);
            let _ = fs::remove_dir_all(&out);
            break;
        }
        eprintln!("attempt {attempt}: drain missed every in-flight campaign; retrying");
        let _ = fs::remove_dir_all(&out);
    }
    assert!(
        resumed > 0,
        "no attempt drained a worker mid-campaign; the graceful-drain \
         adoption path was never exercised"
    );
    let _ = fs::remove_dir_all(&reference);
}
