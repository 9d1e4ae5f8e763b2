//! End-to-end guarantees of the HTTP/JSON + SSE gateway (`mbcr serve
//! --http`), driven through the real `mbcr` binary and raw sockets:
//!
//! * sweeps submitted over `POST /v1/sweeps` produce artifacts
//!   byte-identical to sequential single-process runs of the same specs
//!   — including across a SIGKILL of the daemon mid-campaign and a
//!   restart, with the queue resumed and progress streamed to
//!   completion over the gateway's SSE endpoint;
//! * adversarial HTTP traffic — torn requests, header floods, oversized
//!   bodies, malformed JSON, unknown routes — gets a 4xx (or a dropped
//!   connection) and never disturbs the daemon;
//! * SSE followers that disconnect mid-stream or never read at all
//!   stall only their own handler, never the claim loop: the storm
//!   completes regardless;
//! * `status`/`report` exit nonzero when the targeted sweep was
//!   canceled, and `submit --spec -` reads the spec from stdin;
//! * `DELETE` answers `404` for an unknown sweep and `500` when the
//!   cancel could not be persisted;
//! * a `GET /v1/metrics` scrape reports every benchmark's static
//!   sections and writes nothing into the store;
//! * every client verb takes the gateway URL: a bare `host:port` is a
//!   usage error naming the `http://` form, and `mbcr coord` is gone.

mod common;

use std::fs;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use common::{
    assert_sweep_matches, run_ok, spawn_worker, tmp_dir, wait_for_slog_bytes, Daemon, MBCR,
};
use mbcr_engine::{AnalysisKind, Registry, SweepSpec};
use mbcr_json::Json;

/// The overlapping storm specs, as a [`SweepSpec`] (for HTTP submission)
/// — field for field what the CLI reference args below produce.
fn storm_spec(name: &str, seeds: &[u64]) -> SweepSpec {
    let mut spec = SweepSpec::new(name);
    spec.benchmarks = vec!["bs".to_string()];
    spec.seeds = seeds.to_vec();
    spec.analyses = vec![AnalysisKind::PubTac];
    spec.max_campaign_runs = Some(600);
    spec
}

/// The same specs as `mbcr sweep` arguments, for the sequential
/// single-process reference runs.
fn storm_args(name: &str, seeds: &str) -> Vec<String> {
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
        "600",
        "--checkpoint-interval",
        "200",
    ]
    .into_iter()
    .map(str::to_string)
    .collect()
}

/// Submits a spec over `POST /v1/sweeps`, returning the sweep id.
fn http_submit(http: &str, spec: &SweepSpec) -> String {
    let body = Json::Obj(vec![
        ("spec".to_string(), spec.to_json()),
        ("checkpoint_interval".to_string(), Json::UInt(200)),
    ]);
    let response =
        mbcr_gateway::request(http, "POST", "/v1/sweeps", Some(&body)).expect("POST /v1/sweeps");
    assert_eq!(
        response.status,
        201,
        "submit must be created: {}",
        response.error_text()
    );
    response
        .json()
        .as_ref()
        .and_then(|doc| doc.get("sweep"))
        .and_then(Json::as_str)
        .expect("submit response carries the sweep id")
        .to_string()
}

/// Polls `GET /v1/sweeps` until every id is terminal (panics after the
/// deadline).
fn poll_until_terminal(http: &str, ids: &[String], deadline: Duration) {
    let end = Instant::now() + deadline;
    loop {
        let response =
            mbcr_gateway::request(http, "GET", "/v1/sweeps", None).expect("GET /v1/sweeps");
        assert_eq!(response.status, 200);
        let doc = response.json().expect("status body is JSON");
        let rows = doc
            .get("sweeps")
            .and_then(Json::as_array)
            .expect("status body lists sweeps");
        let terminal = |id: &String| {
            rows.iter().any(|row| {
                row.get("id").and_then(Json::as_str) == Some(id.as_str())
                    && matches!(
                        row.get("state").and_then(Json::as_str),
                        Some("done" | "canceled")
                    )
            })
        };
        if ids.iter().all(terminal) {
            return;
        }
        assert!(
            Instant::now() < end,
            "sweeps {ids:?} never reached a terminal state"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn http_submitted_sweeps_survive_sigkill_and_match_sequential_runs_byte_for_byte() {
    // Sequential single-process reference of the same two specs.
    let reference = tmp_dir("http-kill-ref");
    let mut captured = Vec::new();
    for (name, seeds) in [("alpha", "11"), ("beta", "11,12")] {
        let args = storm_args(name, seeds);
        let mut argv: Vec<&str> = vec!["sweep", "--out"];
        let out = reference.display().to_string();
        argv.push(&out);
        argv.extend(args.iter().map(String::as_str));
        run_ok(&argv);
        captured.push((
            fs::read_to_string(reference.join("manifest.json")).expect("manifest"),
            fs::read_to_string(reference.join("table2.csv")).expect("table2"),
        ));
    }

    let out = tmp_dir("http-kill-daemon");
    let ids: Vec<String>;
    {
        let daemon = Daemon::spawn(&out);
        ids = vec![
            http_submit(&daemon.http, &storm_spec("alpha", &[11])),
            http_submit(&daemon.http, &storm_spec("beta", &[11, 12])),
        ];
        let mut workers: Vec<Child> = (0..2).map(|_| spawn_worker(&daemon.addr)).collect();
        // Let the first campaign chunks land, then SIGKILL the daemon:
        // HTTP submissions must survive it.
        wait_for_slog_bytes(&out, 1);
        drop(daemon); // SIGKILL (Drop uses Child::kill)
        for w in &mut workers {
            let _ = w.kill();
            let _ = w.wait();
        }
    }

    // Restart over the same store and stream both sweeps to completion
    // over the gateway's SSE endpoint (via the CLI's http client path).
    let daemon = Daemon::spawn(&out);
    let mut workers: Vec<Child> = (0..2).map(|_| spawn_worker(&daemon.addr)).collect();
    for id in &ids {
        run_ok(&[
            "report",
            "--connect",
            &daemon.url(),
            "--follow",
            "--sweep",
            id,
        ]);
    }
    for w in &mut workers {
        let _ = w.kill();
        let _ = w.wait();
    }

    // Byte-identity: shared content exactly equals the clean sequential
    // store; per-sweep manifests/tables differ at most in resumed-run
    // counts.
    for (id, (ref_manifest, ref_table)) in ids.iter().zip(&captured) {
        assert_sweep_matches(&out, id, &reference, ref_manifest, ref_table);
    }
    let _ = fs::remove_dir_all(&reference);
    let _ = fs::remove_dir_all(&out);
}

/// Sends raw bytes to the gateway, half-closes the write side, and
/// returns whatever the server answered (empty if it just dropped the
/// connection — also an acceptable answer to garbage).
fn raw_exchange(http: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(http).expect("connect to the gateway");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(bytes).expect("write the raw request");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

fn status_line_of(response: &str) -> &str {
    response.lines().next().unwrap_or("")
}

#[test]
fn adversarial_http_gets_4xx_and_never_disturbs_the_daemon() {
    let out = tmp_dir("adversarial");
    let daemon = Daemon::spawn(&out);

    // Torn mid-request-line.
    let torn = raw_exchange(&daemon.http, b"POST /v1/swe");
    assert!(
        torn.is_empty() || torn.starts_with("HTTP/1.1 400"),
        "torn request must get 400 or a drop, got: {torn:?}"
    );
    // Torn mid-body (Content-Length promises more than arrives).
    let torn = raw_exchange(
        &daemon.http,
        b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"spec\"",
    );
    assert!(
        torn.is_empty() || torn.starts_with("HTTP/1.1 400"),
        "torn body must get 400 or a drop, got: {torn:?}"
    );
    // Oversized declared body.
    let oversized = raw_exchange(
        &daemon.http,
        b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
    );
    assert!(oversized.starts_with("HTTP/1.1 400"), "{oversized:?}");
    // Header flood.
    let mut flood = b"GET /v1/healthz HTTP/1.1\r\n".to_vec();
    for i in 0..100 {
        flood.extend_from_slice(format!("x-flood-{i}: v\r\n").as_bytes());
    }
    flood.extend_from_slice(b"\r\n");
    let flooded = raw_exchange(&daemon.http, &flood);
    assert!(flooded.starts_with("HTTP/1.1 400"), "{flooded:?}");
    // Not HTTP at all.
    let garbage = raw_exchange(&daemon.http, b"MBW1\x00\x00\x00\x04????\r\n\r\n");
    assert!(
        garbage.is_empty() || garbage.starts_with("HTTP/1.1 400"),
        "{garbage:?}"
    );
    // Malformed JSON to a real route.
    let bad_json = raw_exchange(
        &daemon.http,
        b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot JSON!",
    );
    assert!(bad_json.starts_with("HTTP/1.1 400"), "{bad_json:?}");
    // A JSON body missing the spec.
    let no_spec = raw_exchange(
        &daemon.http,
        b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
    );
    assert!(no_spec.starts_with("HTTP/1.1 400"), "{no_spec:?}");
    // Unknown routes and methods.
    let missing = raw_exchange(&daemon.http, b"GET /v2/nope HTTP/1.1\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing:?}");
    let unknown_sweep = raw_exchange(&daemon.http, b"DELETE /v1/sweeps/s999-x HTTP/1.1\r\n\r\n");
    assert!(
        unknown_sweep.starts_with("HTTP/1.1 404"),
        "{unknown_sweep:?}"
    );
    let bad_method = raw_exchange(&daemon.http, b"PUT /v1/sweeps HTTP/1.1\r\n\r\n");
    assert!(bad_method.starts_with("HTTP/1.1 405"), "{bad_method:?}");
    let bad_sse = raw_exchange(
        &daemon.http,
        b"POST /v1/sweeps/s0-x/events HTTP/1.1\r\n\r\n",
    );
    assert!(bad_sse.starts_with("HTTP/1.1 405"), "{bad_sse:?}");

    // After the barrage: the daemon is alive and still does real work.
    let health = raw_exchange(&daemon.http, b"GET /v1/healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status_line_of(&health), "HTTP/1.1 200 OK", "{health:?}");
    let mut quick = storm_spec("after-storm", &[11]);
    quick.max_campaign_runs = Some(200);
    let id = http_submit(&daemon.http, &quick);
    let mut worker = spawn_worker(&daemon.addr);
    poll_until_terminal(
        &daemon.http,
        std::slice::from_ref(&id),
        Duration::from_secs(300),
    );
    let _ = worker.kill();
    let _ = worker.wait();
    assert!(
        out.join("sweeps").join(&id).join("manifest.json").exists(),
        "the post-barrage sweep must complete normally"
    );
    drop(daemon);
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn sse_followers_that_vanish_or_never_read_do_not_stall_the_sweeps() {
    let out = tmp_dir("sse-stall");
    let daemon = Daemon::spawn(&out);
    let ids = vec![
        http_submit(&daemon.http, &storm_spec("gamma", &[21])),
        http_submit(&daemon.http, &storm_spec("delta", &[22])),
    ];

    // A follower that never reads a byte: its handler thread may block
    // and time out, but claims must keep flowing.
    let mut stalled = TcpStream::connect(&daemon.http).expect("connect stalled follower");
    write!(stalled, "GET /v1/sweeps/{}/events HTTP/1.1\r\n\r\n", ids[0])
        .expect("send the stalled follow request");
    // Deliberately never read from `stalled`.

    // A follower that reads the response head plus a little and vanishes
    // mid-stream.
    let mut vanishing = TcpStream::connect(&daemon.http).expect("connect vanishing follower");
    vanishing
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        vanishing,
        "GET /v1/sweeps/{}/events HTTP/1.1\r\n\r\n",
        ids[1]
    )
    .expect("send the vanishing follow request");
    let mut first = [0u8; 64];
    vanishing
        .read_exact(&mut first)
        .expect("the SSE response head starts streaming");
    assert!(
        std::str::from_utf8(&first)
            .expect("SSE head is UTF-8")
            .starts_with("HTTP/1.1 200 OK"),
        "the events route answers 200 before streaming"
    );
    drop(vanishing); // premature disconnect, mid-SSE

    let mut worker = spawn_worker(&daemon.addr);
    poll_until_terminal(&daemon.http, &ids, Duration::from_secs(300));
    let _ = worker.kill();
    let _ = worker.wait();

    // The daemon outlived both hostile followers.
    let health = raw_exchange(&daemon.http, b"GET /v1/healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status_line_of(&health), "HTTP/1.1 200 OK");
    drop(stalled);
    drop(daemon);
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn stdin_specs_submit_and_canceled_sweeps_exit_nonzero_from_status_and_report() {
    let out = tmp_dir("exit-codes");
    let daemon = Daemon::spawn(&out);

    // `submit --spec -`: the spec arrives on stdin. No worker is
    // connected, so the sweep stays queued until we cancel it.
    let spec = storm_spec("stdin-spec", &[31]);
    let mut child = Command::new(MBCR)
        .args(["submit", "--connect", &daemon.url(), "--spec", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mbcr submit");
    child
        .stdin
        .take()
        .expect("submit stdin")
        .write_all(spec.to_json().to_pretty().as_bytes())
        .expect("pipe the spec");
    let output = child.wait_with_output().expect("wait for submit");
    assert!(
        output.status.success(),
        "stdin submit failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let id = stdout
        .lines()
        .find_map(|l| l.strip_prefix("submitted "))
        .expect("submit prints the sweep id")
        .trim()
        .to_string();

    // Queued and healthy: targeted status exits 0.
    let url = daemon.url();
    let probe = Command::new(MBCR)
        .args(["status", "--connect", &url, "--sweep", &id])
        .output()
        .expect("spawn mbcr status");
    assert!(
        probe.status.success(),
        "a queued sweep must probe healthy:\n{}",
        String::from_utf8_lossy(&probe.stderr)
    );

    run_ok(&["cancel", "--connect", &url, "--sweep", &id]);

    // Canceled: both the status probe and the report exit nonzero —
    // scripts can gate on sweep health.
    let probe = Command::new(MBCR)
        .args(["status", "--connect", &url, "--sweep", &id])
        .output()
        .expect("spawn mbcr status");
    assert!(
        !probe.status.success(),
        "status --sweep must exit nonzero for a canceled sweep"
    );
    let probe = Command::new(MBCR)
        .args(["report", "--connect", &url, "--sweep", &id])
        .output()
        .expect("spawn mbcr report");
    assert!(
        !probe.status.success(),
        "report --connect http:// --sweep must exit nonzero for a canceled sweep"
    );
    // Untargeted listings still exit 0: the queue as a whole is fine.
    run_ok(&["status", "--connect", &url]);
    run_ok(&["report", "--connect", &url]);

    drop(daemon);
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn cancel_the_store_cannot_persist_is_a_server_error() {
    let out = tmp_dir("cancel-unpersisted");
    let daemon = Daemon::spawn(&out);
    // No worker is connected, so the sweep stays queued; a plain file
    // where the queue directory was makes the cancel's queue write fail.
    let id = http_submit(&daemon.http, &storm_spec("unpersisted", &[41]));
    fs::remove_dir_all(out.join("queue")).expect("remove the queue directory");
    fs::write(out.join("queue"), b"not a directory").expect("plant a file");
    let response = mbcr_gateway::request(&daemon.http, "DELETE", &format!("/v1/sweeps/{id}"), None)
        .expect("DELETE the sweep");
    assert_eq!(
        response.status,
        500,
        "a failed store write is the server's fault, not a conflict: {}",
        response.error_text()
    );
    drop(daemon);
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn metrics_scrape_reports_every_benchmark_and_writes_nothing() {
    let out = tmp_dir("metrics-read-only");
    let daemon = Daemon::spawn(&out);
    let response =
        mbcr_gateway::request(&daemon.http, "GET", "/v1/metrics", None).expect("GET metrics");
    assert_eq!(response.status, 200, "{}", response.error_text());
    let doc = response.json().expect("metrics JSON");
    let registry = Registry::malardalen();
    assert_eq!(registry.iter().count(), 11);
    for section in ["path_coverage", "cache_class"] {
        let rows = doc.get(section).expect(section);
        for b in registry.iter() {
            let row = rows
                .get(b.name)
                .unwrap_or_else(|| panic!("{section}: no {}", b.name));
            assert!(row.get("error").is_none(), "{section}/{}: {row}", b.name);
        }
    }
    let stages: Vec<_> = fs::read_dir(out.join("stages"))
        .map(|dir| dir.flatten().map(|e| e.file_name()).collect())
        .unwrap_or_default();
    assert!(stages.is_empty(), "a scrape wrote into stages/: {stages:?}");
    drop(daemon);
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn bare_addresses_and_coord_are_usage_errors() {
    // Clients speak HTTP only: the worker listener's host:port form is
    // refused before any connection, naming the URL form to use instead.
    for verb in [
        &["submit", "--connect", "127.0.0.1:1", "--benchmarks", "bs"][..],
        &["status", "--connect", "127.0.0.1:1"][..],
        &["cancel", "--connect", "127.0.0.1:1", "--sweep", "s000-x"][..],
        &["report", "--connect", "127.0.0.1:1", "--follow"][..],
    ] {
        let output = Command::new(MBCR).args(verb).output().expect("spawn mbcr");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{verb:?} must fail");
        assert!(
            stderr.contains("http://HOST:PORT"),
            "{verb:?} must name the URL form: {stderr}"
        );
    }
    // `mbcr coord` folded into `serve` + `submit` and `sweep --shards`.
    let coord = Command::new(MBCR)
        .args(["coord", "--benchmarks", "bs"])
        .output()
        .expect("spawn mbcr");
    assert_eq!(coord.status.code(), Some(2), "coord is an unknown command");
}
