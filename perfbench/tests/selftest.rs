//! Self-tests of the benchmark: they run the built benchmark the way a
//! user does, from the repository root, on the cheapest workload.

use std::process::Command;

/// Runs the benchmark; returns whether it exited 0 and its standard output.
fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_revive-perfbench"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(args)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("the benchmark prints UTF-8");
    (out.status.success(), stdout)
}

/// The `fingerprint` lines of one workload.
fn fingerprints<'a>(stdout: &'a str, workload: &str) -> Vec<&'a str> {
    let prefix = format!("fingerprint {workload} ");
    stdout.lines().filter(|l| l.starts_with(&prefix)).collect()
}

/// The result object: the last line of standard output.
fn result(stdout: &str) -> &str {
    stdout
        .lines()
        .last()
        .expect("the benchmark prints a result")
}

/// The number after `"key": ` in the result object (a metric's value).
fn number(result: &str, key: &str) -> f64 {
    let pattern = format!("\"{key}\": ");
    let at = result
        .find(&pattern)
        .unwrap_or_else(|| panic!("{key} missing"))
        + pattern.len();
    let rest = &result[at..];
    let rest = rest.strip_prefix("{\"value\": ").unwrap_or(rest);
    let end = rest.find([',', '}']).expect("a number ends");
    rest[..end].parse().expect("a number")
}

const LU: [&str; 6] = ["--workload", "lu-base", "--seed", "2002", "--seconds", "1"];

#[test]
fn traced_and_untraced_runs_give_identical_fingerprints() {
    let (plain_ok, plain) = bench(&[&LU[..], &["--trace", "0"]].concat());
    let (traced_ok, traced) = bench(&[&LU[..], &["--trace", "1"]].concat());
    assert!(plain_ok && traced_ok, "both runs pass their checks");
    assert!(!fingerprints(&plain, "lu-base").is_empty());
    assert_eq!(
        fingerprints(&plain, "lu-base"),
        fingerprints(&traced, "lu-base")
    );
}

#[test]
fn a_corrupted_fingerprint_fails_every_check() {
    let corrupted: String = include_str!("../fingerprints.txt")
        .lines()
        .map(|l| match l.strip_prefix("lu-base 2002 ") {
            Some(fp) => format!("lu-base 2002 {}\n", fp.replacen("events=", "events=9", 1)),
            None => format!("{l}\n"),
        })
        .collect();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("corrupted.txt");
    std::fs::write(&path, corrupted).expect("the corrupted table is written");
    let path = path.to_str().expect("a UTF-8 path");
    let (ok, stdout) = bench(&[&LU[..], &["--trace", "0", "--fingerprints", path]].concat());
    assert!(!ok, "a failed check exits non-zero");
    let result = result(&stdout);
    assert!(result.contains("\"correct\": false"));
    let attempted = number(result, "attempted");
    assert!(attempted > 0.0);
    assert_eq!(number(result, "failed"), attempted, "error_rate is 1");
}

#[test]
fn replayed_call_counts_equal_the_runs_counters() {
    let (ok, stdout) = bench(&[&LU[..], &["--trace", "1"]].concat());
    assert!(ok);
    let result = result(&stdout);
    let ops = number(result, "machine.cpu_ops");
    assert!(ops > 0.0);
    assert_eq!(number(result, "workloads.next.calls"), ops);
    assert!(number(result, "sim.events") > 0.0);
    assert!(number(result, "attributed_frac") > 0.0);
}
