//! Run-artifact emission for the experiment binaries.
//!
//! Every benchmark run can leave behind a machine-readable JSON artifact
//! (see `revive_machine::report`) so results are diffable and scriptable
//! instead of living only in stdout tables. Artifacts land under
//! `results/artifacts/<experiment>/<label>.json`; the experiment name is
//! set once per binary with [`init`] (falling back to the executable name).
//!
//! Set `REVIVE_NO_ARTIFACTS=1` to suppress writing (e.g. sandboxed CI
//! steps that only care about the tables), or `REVIVE_ARTIFACT_DIR` to
//! redirect the root directory.

use std::path::PathBuf;
use std::sync::OnceLock;

use revive_machine::{write_atomic, write_json, ExperimentConfig, Json, RunMeta, RunResult};

static EXPERIMENT: OnceLock<String> = OnceLock::new();

/// Names this binary's artifact subdirectory. Call once at the top of
/// `main`; later calls are ignored.
pub fn init(experiment: &str) {
    let _ = EXPERIMENT.set(experiment.to_string());
}

fn experiment() -> String {
    if let Some(name) = EXPERIMENT.get() {
        return name.clone();
    }
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".to_string())
}

/// Whether artifact emission is active.
pub use revive_harness::artifacts_enabled as enabled;

/// The directory artifacts for this binary land in.
pub fn dir() -> PathBuf {
    revive_harness::artifact_dir(&experiment())
}

/// Renders, validates, and atomically writes one run artifact. Returns the
/// path, or `None` when emission is disabled or the write failed
/// (benchmarks must not die because a results directory is read-only — the
/// tables on stdout are still the primary output).
pub fn emit(label: &str, cfg: &ExperimentConfig, result: &RunResult) -> Option<PathBuf> {
    emit_with_meta(RunMeta::from_config(label, cfg), result)
}

/// As [`emit`], but with caller-built metadata — used by injection runs to
/// record their fault scenario (and campaign seed) inside the artifact.
/// The write goes through `revive_harness::emit_artifact` (temp file +
/// atomic rename), so concurrent writers never interleave bytes.
pub fn emit_with_meta(meta: RunMeta, result: &RunResult) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    let path = dir().join(format!("{}.json", revive_harness::sanitize(&meta.label)));
    revive_harness::emit_artifact(&path, &meta, result).then_some(path)
}

/// Writes a document as `<name>.json` into this binary's artifact
/// directory, through the canonical writer and atomically. Best effort
/// like [`emit`]: a failure warns and returns `None`.
pub fn write_document(name: &str, doc: &Json) -> Option<PathBuf> {
    let dir = dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    match write_atomic(&path, &write_json(doc)) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}
