//! Helpers shared by the `mbcr` end-to-end suites: scratch stores, CLI
//! runs, byte-level store comparison, and a service daemon (`mbcr serve`
//! with its HTTP gateway) driving external worker processes.

// Each suite compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const MBCR: &str = env!("CARGO_BIN_EXE_mbcr");

/// A fresh scratch directory, unique to this test process.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbcr-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs `mbcr args…`, asserts success, and returns its stdout.
pub fn run_ok(args: &[&str]) -> String {
    let output = Command::new(MBCR).args(args).output().expect("spawn mbcr");
    assert!(
        output.status.success(),
        "mbcr {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Every file under a directory, relative path → bytes, sorted. `*.tmpN`
/// strays a `kill -9`'d writer left mid-`write_atomic` are skipped — the
/// store contract says scans ignore them; they are not artifacts.
pub fn snapshot(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in fs::read_dir(dir).expect("read_dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, root, out);
            } else if path
                .extension()
                .is_some_and(|e| e.to_string_lossy().starts_with("tmp"))
            {
                continue;
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, fs::read(&path).expect("read file")));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

pub fn assert_dirs_identical(a: &Path, b: &Path, what: &str) {
    let snap_a = snapshot(a);
    let snap_b = snapshot(b);
    let names = |snap: &[(String, Vec<u8>)]| -> Vec<String> {
        snap.iter().map(|(n, _)| n.clone()).collect()
    };
    assert_eq!(names(&snap_a), names(&snap_b), "{what}: file sets differ");
    for ((name_a, bytes_a), (_, bytes_b)) in snap_a.iter().zip(&snap_b) {
        assert_eq!(
            bytes_a,
            bytes_b,
            "{what}: {name_a} differs between {} and {}",
            a.display(),
            b.display()
        );
    }
}

/// Strips the `campaign_resumed` lines a resumed/adopted campaign is
/// allowed (and required) to differ in.
pub fn normalize_manifest(text: &str) -> String {
    text.lines()
        .filter(|l| !l.contains("\"campaign_resumed\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The largest `campaign_resumed` in a manifest: `0` when no campaign
/// was adopted mid-flight.
pub fn max_campaign_resumed(manifest: &Path) -> u64 {
    let text = fs::read_to_string(manifest).expect("manifest");
    let doc = mbcr_json::parse(&text).expect("manifest parses");
    doc.get("jobs")
        .and_then(mbcr_json::Json::as_array)
        .map(|jobs| {
            jobs.iter()
                .filter_map(|j| j.get("summary"))
                .filter_map(|s| s.get("campaign_resumed"))
                .filter_map(mbcr_json::Json::as_u64)
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

/// Asserts that a daemon store's `jobs/` and `stages/` equal a
/// single-process reference store's byte for byte, and that sweep `id`'s
/// scope holds the reference manifest (up to `campaign_resumed`) and
/// Table 2.
pub fn assert_sweep_matches(out: &Path, id: &str, reference: &Path, manifest: &str, table: &str) {
    assert_dirs_identical(&reference.join("jobs"), &out.join("jobs"), "jobs/");
    assert_dirs_identical(&reference.join("stages"), &out.join("stages"), "stages/");
    let scope = out.join("sweeps").join(id);
    assert_eq!(
        normalize_manifest(&fs::read_to_string(scope.join("manifest.json")).expect("manifest")),
        normalize_manifest(manifest),
        "{id}: manifests must agree on everything but campaign_resumed"
    );
    assert_eq!(
        fs::read_to_string(scope.join("table2.csv")).expect("table2"),
        table,
        "{id}: table2 must match the reference"
    );
}

/// `mbcr serve` on ephemeral ports with its HTTP gateway: workers dial
/// `addr`, clients `url()`. Dropping it SIGKILLs the daemon.
pub struct Daemon {
    child: Child,
    pub addr: String,
    pub http: String,
}

impl Daemon {
    pub fn spawn(out: &Path) -> Self {
        let mut child = Command::new(MBCR)
            .args(["serve", "--listen", "127.0.0.1:0", "--http", "127.0.0.1:0"])
            .args(["--out", &out.display().to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn daemon");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut lines = BufReader::new(stdout).lines();
        let (mut addr, mut http) = (None, None);
        while addr.is_none() || http.is_none() {
            let line = lines
                .next()
                .expect("daemon exited before announcing its addresses")
                .expect("read daemon stdout");
            if let Some(a) = line.strip_prefix("service listening on ") {
                addr = Some(a.to_string());
            } else if let Some(h) = line.strip_prefix("http listening on ") {
                http = Some(h.to_string());
            }
        }
        // Keep draining stdout so the daemon never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Self {
            child,
            addr: addr.expect("service address"),
            http: http.expect("http address"),
        }
    }

    /// The gateway URL the client verbs take as `--connect`.
    pub fn url(&self) -> String {
        format!("http://{}", self.http)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub fn spawn_worker(addr: &str) -> Child {
    Command::new(MBCR)
        .args(["worker", "--connect", addr])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker")
}

/// `mbcr submit --connect URL args…`, returning the printed sweep id.
pub fn submit(url: &str, args: &[&str]) -> String {
    let mut all = vec!["submit", "--connect", url];
    all.extend(args);
    run_ok(&all)
        .lines()
        .find_map(|l| l.strip_prefix("submitted "))
        .expect("submit prints the sweep id")
        .trim()
        .to_string()
}

/// Total bytes of campaign chunk logs currently in a store.
pub fn slog_bytes(out: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(out.join("stages")) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".samples.slog"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Blocks until the store's campaign chunk logs hold at least `bytes`
/// (panics after five minutes).
pub fn wait_for_slog_bytes(out: &Path, bytes: u64) {
    let deadline = Instant::now() + Duration::from_secs(300);
    while slog_bytes(out) < bytes {
        assert!(Instant::now() < deadline, "campaign logs never grew");
        std::thread::sleep(Duration::from_millis(5));
    }
}
