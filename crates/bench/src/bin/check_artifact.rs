//! Validates JSON documents against their schema, dispatched on the file's
//! `schema` tag: per-run `revive-run-artifact` artifacts (`simulate --json`
//! output, bench emissions under `results/artifacts/`), the
//! `revive-frontier` and `revive-slo` sweep documents, the
//! `revive-bench-summary` perf baseline, and `revive-inject-spec` scenario
//! specs. Each kind's reader is its validator.
//! Prints one line per file and exits nonzero on the first invalid one —
//! CI's smoke steps pipe every emitted document through this.

use revive_bench::documents::{FrontierDoc, SloDoc, FRONTIER_SCHEMA, SLO_SCHEMA};
use revive_bench::summary::{Summary, SUMMARY_SCHEMA};
use revive_machine::campaign::SPEC_SCHEMA;
use revive_machine::{
    parse_json, parse_run_meta, parse_run_result, Codec, Json, Scenario, ARTIFACT_SCHEMA,
};

fn check(doc: &Json) -> Result<(), String> {
    match doc.read::<String>("schema")?.as_str() {
        ARTIFACT_SCHEMA => parse_run_meta(doc).and(parse_run_result(doc).map(drop)),
        FRONTIER_SCHEMA => FrontierDoc::from_json(doc).map(drop),
        SLO_SCHEMA => SloDoc::from_json(doc).map(drop),
        SUMMARY_SCHEMA => Summary::from_json(doc).map(drop),
        SPEC_SCHEMA => Scenario::from_json(doc).map(drop),
        other => Err(format!("unknown schema '{other}'")),
    }
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: check_artifact <document.json> [more.json ...]");
        std::process::exit(2);
    }
    let mut checked = 0usize;
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("{path}: read failed: {e}");
            std::process::exit(1);
        });
        if let Err(e) = parse_json(&text).and_then(|doc| check(&doc)) {
            eprintln!("{path}: INVALID: {e}");
            std::process::exit(1);
        }
        println!("{path}: ok");
        checked += 1;
    }
    println!("{checked} document(s) valid");
}
