//! End-to-end exit-code contract of `mbcr lint` and `mbcr paths`: clean
//! benchmarks exit zero, findings and unknown names exit nonzero, and the
//! printed diagnostics carry the stable codes.

use std::process::{Command, Stdio};

fn mbcr(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mbcr"))
        .args(args)
        .output()
        .expect("mbcr binary runs")
}

#[test]
fn lint_all_passes_clean_on_the_shipped_suite() {
    let out = mbcr(&["lint", "--all"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for bench in ["bs", "cnt", "fir", "janne", "crc", "edn", "insertsort"] {
        assert!(
            stdout.contains(&format!("{bench}: ok")),
            "missing {bench} in:\n{stdout}"
        );
    }
}

#[test]
fn closed_stdout_ends_the_command_quietly() {
    // The read end is closed before the child starts, so its first line
    // already meets a broken pipe (`mbcr lint --all | head -0`).
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_mbcr"))
        .args(["lint", "--all"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("mbcr binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        out.status.success(),
        "status {:?}, stderr: {stderr}",
        out.status
    );
}

#[test]
fn lint_unknown_benchmark_exits_two_listing_valid_names() {
    for subcommand in ["lint", "paths", "classify"] {
        let out = mbcr(&[subcommand, "no-such-bench"]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{subcommand} should exit 2 on an unknown name"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown benchmark 'no-such-bench'"),
            "{subcommand} stderr:\n{stderr}"
        );
        assert!(
            stderr.contains("bs") && stderr.contains("ns"),
            "{subcommand} should list the valid names:\n{stderr}"
        );
    }
}

#[test]
fn lint_json_emits_the_machine_readable_document() {
    let out = mbcr(&["lint", "bs", "cnt", "--format", "json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\": \"mbcr-lint/1\""), "{stdout}");
    assert!(stdout.contains("\"findings\": 0"), "{stdout}");
    assert!(
        !stdout.contains("bs: ok"),
        "json must replace the human lines"
    );
}

#[test]
fn lint_without_targets_exits_nonzero() {
    let out = mbcr(&["lint"]);
    assert!(!out.status.success());
}

#[test]
fn classify_reports_the_bs_rollup_and_cross_validates_clean() {
    let out = mbcr(&["classify", "bs", "--limit", "4"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bs @ 4096B-2w-32B:"), "got:\n{stdout}");
    // The pinned rollup for bs at the paper geometry; CI re-asserts the
    // same numbers over `classify --all --format json`.
    assert!(
        stdout.contains("il1: 96 site(s) — AH 84, AM 3, FM 9, NC 0"),
        "got:\n{stdout}"
    );
    assert!(
        stdout.contains("dl1: 2 site(s) — AH 0, AM 0, FM 0, NC 2"),
        "got:\n{stdout}"
    );
    assert!(
        stdout.contains("... (94 more; raise --limit)"),
        "got:\n{stdout}"
    );
    assert!(stdout.contains("cross-validation: ok"), "got:\n{stdout}");
}

#[test]
fn classify_json_carries_sites_rollup_and_empty_diagnostics() {
    let out = mbcr(&["classify", "bs", "--format", "json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"schema\": \"mbcr-classify/1\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"geometry\": \"4096B-2w-32B\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"findings\": 0"), "{stdout}");
    assert!(stdout.contains("\"class\": \"AH\""), "{stdout}");
    assert!(stdout.contains("\"cache\": \"dl1\""), "{stdout}");
}

#[test]
fn classify_rejects_a_bad_format() {
    let out = mbcr(&["classify", "bs", "--format", "yaml"]);
    // Unknown formats are a usage error (exit 2) since the
    // OutputFormat::from_flags contract landed.
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--format"), "{stderr}");
}

#[test]
fn paths_reports_the_bs_path_space() {
    let out = mbcr(&["paths", "bs", "--limit", "121"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("121 static paths"), "got:\n{stdout}");
    assert!(stdout.contains("8 distinct path(s)"), "got:\n{stdout}");
    assert!(stdout.contains("enumeration (121 paths)"), "got:\n{stdout}");
}

#[test]
fn paths_handles_saturated_spaces() {
    let out = mbcr(&["paths", "janne"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("> 2^128 (saturated)"), "got:\n{stdout}");
    assert!(stdout.contains("coverage n/a"), "got:\n{stdout}");
}
