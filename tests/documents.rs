//! Every committed JSON document is in the one canonical layout: parsing it
//! and writing it back reproduces every byte. This pins the writer's
//! layout and the exact text of every number (a `u64::MAX` checkpoint
//! interval must not round through a float). Run artifacts must also pass
//! their reader.

use std::path::{Path, PathBuf};

use revive::machine::{parse_json, validate_artifact, write_json, ARTIFACT_SCHEMA};

fn json_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read results dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            json_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "json") {
            out.push(path);
        }
    }
}

#[test]
fn committed_documents_rerender_byte_identically() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("BENCH_baseline.json")];
    json_files(&root.join("results"), &mut files);
    files.sort();
    assert!(files.len() > 100, "only {} documents found", files.len());
    for path in &files {
        let text = std::fs::read_to_string(path).expect("read document");
        let doc = parse_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            write_json(&doc) == text,
            "{} is not in the canonical layout",
            path.display()
        );
        if doc.get("schema").and_then(|s| s.as_str()) == Some(ARTIFACT_SCHEMA) {
            validate_artifact(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
    }
}
