//! Sweep execution: the pool, the artifact store, and the result cache in
//! the one driver every experiment binary shares.
//!
//! A [`Sweep`] takes a list of [`SweepJob`]s (label + configuration +
//! optional injection scenario), runs them across the worker pool, and
//! emits one validated artifact per job under the experiment's artifact
//! directory (`results/artifacts/<experiment>/` unless redirected). Work
//! that is not one configuration (a campaign scenario, a frontier slice)
//! goes through [`Sweep::map`] on the same pool, and writes its run
//! artifacts with [`Sweep::emit`] and its documents with
//! [`Sweep::write_document`]; `REVIVE_NO_ARTIFACTS=1` turns every one of
//! those writes off. Because the pool returns results by job index, the
//! artifacts and every table printed from the outcomes are byte-identical
//! at any `--jobs` value.
//!
//! ## The result cache
//!
//! Artifacts double as a content-addressed result cache. Each artifact
//! records `config.config_hash` — a hash of the complete experiment
//! configuration plus the injection scenario (see
//! `revive_machine::report::RunMeta`). Before running a job, the sweep
//! probes the artifact path the job would write; the run is skipped only
//! when the existing artifact
//!
//! 1. parses, and its identity reads back (`parse_run_meta`) with the same
//!    `config_hash` the pending run would record, and
//! 2. its measured sections read back (`parse_run_result`) — the reader
//!    is the schema check, so this is the artifact validating.
//!
//! The file is parsed once. Anything less — a stale hash from an edited
//! simulator, a truncated file, an artifact at another schema version —
//! falls through to a real run that rewrites the artifact. Cache hits do
//! not rewrite the file, so cached and fresh sweeps leave byte-identical
//! artifacts behind. `--no-cache` (or `REVIVE_NO_CACHE=1`) disables the
//! probe entirely.

use std::path::{Path, PathBuf};

use revive_machine::{
    parse_json, parse_run_meta, parse_run_result, render_artifact, validate_artifact, write_atomic,
    write_json, ExperimentConfig, InjectionPlan, Json, RunMeta, RunResult, Runner,
};

use crate::cli::Args;
use crate::pool::{run_jobs, Job, JobError, Progress};

/// One experiment in a sweep: what to run and what to call it.
pub struct SweepJob {
    /// Artifact label (also the progress-line name).
    pub label: String,
    /// The experiment configuration.
    pub cfg: ExperimentConfig,
    /// Scripted faults to inject (empty for clean runs).
    pub plans: Vec<InjectionPlan>,
}

impl SweepJob {
    /// A clean (no-injection) job.
    pub fn new(label: impl Into<String>, cfg: ExperimentConfig) -> SweepJob {
        SweepJob {
            label: label.into(),
            cfg,
            plans: Vec::new(),
        }
    }

    /// An injection job.
    pub fn with_plans(
        label: impl Into<String>,
        cfg: ExperimentConfig,
        plans: Vec<InjectionPlan>,
    ) -> SweepJob {
        SweepJob {
            label: label.into(),
            cfg,
            plans,
        }
    }
}

/// The outcome of one sweep entry.
pub struct SweepOutcome {
    /// The job's label.
    pub label: String,
    /// The run's result — fresh from the simulator, or reconstructed from
    /// a cached artifact (see the module docs for what round-trips).
    pub result: RunResult,
    /// Whether the result came from the cache instead of a run.
    pub cached: bool,
    /// Wall-clock time of the simulator run, in milliseconds. Zero for
    /// cache hits — host-timing consumers (`bench_summary`) disable the
    /// cache precisely because a skipped run has no meaningful wall time.
    pub wall_ms: f64,
    /// The artifact path, when emission is enabled.
    pub artifact: Option<PathBuf>,
}

/// The directory `experiment`'s artifacts land in, or `None` when
/// `REVIVE_NO_ARTIFACTS` is set to anything but `0`. The root is
/// `REVIVE_ARTIFACT_DIR`, else `results/artifacts`.
fn artifact_dir(experiment: &str) -> Option<PathBuf> {
    if std::env::var("REVIVE_NO_ARTIFACTS").is_ok_and(|v| v != "0") {
        return None;
    }
    let root = std::env::var("REVIVE_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results").join("artifacts"));
    Some(root.join(experiment))
}

/// The one experiment driver: the worker pool, the progress line, the
/// result cache, and every file an experiment binary writes. Build with
/// [`Sweep::new`], then run configurations with [`Sweep::run`] (typed
/// errors) or [`Sweep::run_all`] (panic on failure), other work with
/// [`Sweep::map`], and write uncached results with [`Sweep::emit`] and
/// [`Sweep::write_document`].
pub struct Sweep {
    dir: Option<PathBuf>,
    jobs: Option<usize>,
    no_cache: bool,
    quiet: bool,
}

impl Sweep {
    /// A sweep for `experiment` (the artifact subdirectory name), honoring
    /// the shared CLI flags: `--jobs` picks the worker count, `--no-cache`
    /// disables artifact reuse. `REVIVE_NO_ARTIFACTS=1` disables emission,
    /// documents and caching alike; `REVIVE_ARTIFACT_DIR` redirects the
    /// root.
    pub fn new(experiment: &str, args: &Args) -> Sweep {
        Sweep {
            dir: artifact_dir(experiment),
            jobs: args.jobs,
            no_cache: args.no_cache,
            quiet: false,
        }
    }

    /// Overrides the artifact directory with an explicit path (tests use
    /// this instead of mutating the process-global `REVIVE_ARTIFACT_DIR`).
    pub fn with_artifact_dir(mut self, dir: impl Into<PathBuf>) -> Sweep {
        self.dir = Some(dir.into());
        self
    }

    /// Forces every job to execute even when a valid cached artifact
    /// exists. `bench_summary` uses this: its wall-clock columns are
    /// meaningless for runs that never happened.
    pub fn without_cache(mut self) -> Sweep {
        self.no_cache = true;
        self
    }

    /// Silences the progress line (tests).
    pub fn quiet(mut self) -> Sweep {
        self.quiet = true;
        self
    }

    /// Runs labelled work across the pool under one progress line. Each
    /// closure returns its value and whether it came from the cache;
    /// results come back in job order regardless of the worker count.
    fn pool<T, F>(&self, jobs: Vec<(String, F)>) -> Vec<Result<T, JobError>>
    where
        T: Send,
        F: FnOnce() -> Result<(T, bool), String> + Send,
    {
        let workers = Args {
            jobs: self.jobs,
            ..Args::default()
        }
        .workers(jobs.len());
        let progress = if self.quiet {
            Progress::quiet(jobs.len())
        } else {
            Progress::new(jobs.len())
        };
        let progress = &progress;
        let pool_jobs = jobs
            .into_iter()
            .map(|(label, work)| {
                Job::new(label.clone(), move || {
                    let (value, cached) = work()?;
                    progress.finish(&label, cached);
                    Ok(value)
                })
            })
            .collect();
        run_jobs(pool_jobs, workers)
    }

    /// Maps labelled closures through the pool and the progress line, for
    /// work that is not one cached configuration (campaign scenarios,
    /// frontier slices). Results come back in job order.
    ///
    /// # Panics
    ///
    /// Panics on the first job that panicked, naming it.
    pub fn map<T, F>(&self, jobs: Vec<(String, F)>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let jobs = jobs
            .into_iter()
            .map(|(label, work)| (label, move || Ok((work(), false))))
            .collect();
        self.pool(jobs)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
            .collect()
    }

    /// Runs the sweep; results come back in job order regardless of the
    /// worker count or completion order.
    pub fn run(&self, jobs: Vec<SweepJob>) -> Vec<Result<SweepOutcome, JobError>> {
        let no_cache = self.no_cache;
        let jobs = jobs
            .into_iter()
            .map(|job| {
                let label = job.label.clone();
                let path = self.path(&label);
                let work = move || {
                    let meta =
                        RunMeta::from_config(&job.label, &job.cfg).with_injections(&job.plans);
                    if !no_cache {
                        if let Some(result) = path.as_deref().and_then(|p| cached_result(p, &meta))
                        {
                            let outcome = SweepOutcome {
                                label: job.label,
                                result,
                                cached: true,
                                wall_ms: 0.0,
                                artifact: path,
                            };
                            return Ok((outcome, true));
                        }
                    }
                    let t0 = std::time::Instant::now();
                    let result = Runner::new(job.cfg)
                        .and_then(|r| r.run_with_injections(&job.plans))
                        .map_err(|e| e.to_string())?;
                    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                    if let Some(p) = &path {
                        emit_artifact(p, &meta, &result);
                    }
                    let outcome = SweepOutcome {
                        label: job.label,
                        result,
                        cached: false,
                        wall_ms,
                        artifact: path,
                    };
                    Ok((outcome, false))
                };
                (label, work)
            })
            .collect();
        self.pool(jobs)
    }

    /// As [`Sweep::run`], but panics on the first failed job — sweeps
    /// reproducing paper figures treat a failing configuration as a bug.
    pub fn run_all(&self, jobs: Vec<SweepJob>) -> Vec<SweepOutcome> {
        self.run(jobs)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
            .collect()
    }

    /// Writes the artifact of a run made outside [`Sweep::run`] (campaign
    /// scenarios and replays, validation cells), under `meta.label`. It is
    /// never read back as a cache entry by the caller, so `meta` should
    /// record every injection the run made. Returns the path, or `None`
    /// when artifacts are off or the write failed.
    pub fn emit(&self, meta: &RunMeta, result: &RunResult) -> Option<PathBuf> {
        let path = self.path(&meta.label)?;
        emit_artifact(&path, meta, result).then_some(path)
    }

    /// Writes a document as `<name>.json` through the canonical writer.
    /// Returns the path, or `None` when artifacts are off or the write
    /// failed.
    pub fn write_document(&self, name: &str, doc: &Json) -> Option<PathBuf> {
        let path = self.path(name)?;
        write_file(&path, &write_json(doc)).then_some(path)
    }

    /// Where the artifact labelled `label` lives, when artifacts are on.
    fn path(&self, label: &str) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        Some(dir.join(format!("{}.json", sanitize(label))))
    }
}

/// Maps a free-form label to a safe file stem (same policy for every
/// emitter, so cache probes and writes agree on the path).
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The cache probe: an existing artifact stands in for a run only when it
/// validates, its content address matches, and it parses back into a
/// result (module docs). Any failure means "run it".
fn cached_result(path: &Path, meta: &RunMeta) -> Option<RunResult> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = parse_json(&text).ok()?;
    if parse_run_meta(&doc).ok()?.config_hash != meta.config_hash {
        return None;
    }
    parse_run_result(&doc).ok()
}

/// Renders, validates, and writes one run artifact.
fn emit_artifact(path: &Path, meta: &RunMeta, result: &RunResult) -> bool {
    let text = render_artifact(meta, result);
    debug_assert!(
        validate_artifact(&text).is_ok(),
        "emitted artifact failed validation: {:?}",
        validate_artifact(&text)
    );
    write_file(path, &text)
}

/// Writes `text` atomically, creating the directory first. Failures warn
/// and continue: the tables on stdout are the primary output, and a
/// read-only results directory must not kill a sweep.
fn write_file(path: &Path, text: &str) -> bool {
    if let Some(parent) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("warning: cannot create {}: {e}", parent.display());
            return false;
        }
    }
    match write_atomic(path, text) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_sanitize_to_safe_filenames() {
        assert_eq!(sanitize("fig8/fft/Cp"), "fig8_fft_Cp");
        assert_eq!(sanitize("water-n2 x=3"), "water-n2_x_3");
    }
}
