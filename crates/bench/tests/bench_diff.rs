//! Exit-code contract of the `bench_diff` regression gate, exercised
//! against the real binary with fixture summaries.

use std::path::PathBuf;
use std::process::Command;

use revive_bench::summary::{Summary, SummaryEntry};
use revive_machine::{write_json, Codec};

fn entry(app: &str, config: &str, ops: u64, sim: u64, wall: f64) -> SummaryEntry {
    SummaryEntry {
        app: app.into(),
        config: config.into(),
        ops,
        events: ops * 3,
        sim_time_ns: sim,
        wall_ms: wall,
    }
}

fn fixture(tag: &str, entries: &[SummaryEntry]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("revive-bench-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let path = dir.join(format!("{tag}.json"));
    let summary = Summary {
        quick: false,
        host_cores: 8,
        entries: entries.to_vec(),
    };
    std::fs::write(&path, write_json(&summary.to_json())).expect("write fixture");
    path
}

fn bench_diff(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args(args)
        .output()
        .expect("run bench_diff")
}

#[test]
fn identical_summaries_exit_zero() {
    let entries = [
        entry("fft", "Base", 1_000, 50_000, 12.0),
        entry("fft", "Cp10ms", 1_000, 61_000, 14.5),
    ];
    let base = fixture("ok_base", &entries);
    let cand = fixture("ok_cand", &entries);
    let out = bench_diff(&[
        "--baseline",
        base.to_str().unwrap(),
        "--candidate",
        cand.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn injected_sim_regression_exits_one() {
    let base = fixture("reg_base", &[entry("fft", "Base", 1_000, 50_000, 12.0)]);
    // +10% simulated time: deterministic metric, zero default tolerance.
    let cand = fixture("reg_cand", &[entry("fft", "Base", 1_000, 55_000, 12.0)]);
    let out = bench_diff(&[
        "--baseline",
        base.to_str().unwrap(),
        "--candidate",
        cand.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("REGRESSION"), "stderr: {err}");
    assert!(err.contains("sim_time_ns"), "stderr: {err}");

    // A tolerance wide enough to absorb it turns the gate green again.
    let out = bench_diff(&[
        "--baseline",
        base.to_str().unwrap(),
        "--candidate",
        cand.to_str().unwrap(),
        "--tol-sim",
        "0.2",
    ]);
    assert!(out.status.success());
}

#[test]
fn wall_slowdown_respects_no_wall() {
    let base = fixture("wall_base", &[entry("fft", "Base", 1_000, 50_000, 10.0)]);
    let cand = fixture("wall_cand", &[entry("fft", "Base", 1_000, 50_000, 40.0)]);
    let gated = bench_diff(&[
        "--baseline",
        base.to_str().unwrap(),
        "--candidate",
        cand.to_str().unwrap(),
    ]);
    assert_eq!(gated.status.code(), Some(1));
    let skipped = bench_diff(&[
        "--baseline",
        base.to_str().unwrap(),
        "--candidate",
        cand.to_str().unwrap(),
        "--no-wall",
    ]);
    assert!(skipped.status.success());
}

#[test]
fn operator_errors_exit_two() {
    // Unreadable baseline.
    let out = bench_diff(&["--baseline", "/nonexistent/summary.json"]);
    assert_eq!(out.status.code(), Some(2));
    // Candidate missing a baseline entry: incomparable, not a regression.
    let base = fixture(
        "missing_base",
        &[
            entry("fft", "Base", 1_000, 50_000, 10.0),
            entry("lu", "Base", 1_000, 40_000, 10.0),
        ],
    );
    let cand = fixture("missing_cand", &[entry("fft", "Base", 1_000, 50_000, 10.0)]);
    let out = bench_diff(&[
        "--baseline",
        base.to_str().unwrap(),
        "--candidate",
        cand.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    // Unknown flags are typos, not silently ignored.
    let out = bench_diff(&["--tol-simm", "0.1"]);
    assert_eq!(out.status.code(), Some(2));
}
