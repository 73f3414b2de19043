//! A hand-rolled `std::thread` worker pool with deterministic result
//! ordering.
//!
//! [`run_jobs`] executes a list of jobs across `workers` OS threads and
//! returns the results **by job index, never by completion order** — the
//! output of a parallel sweep is indistinguishable from a serial one, which
//! is what lets every experiment binary promise byte-identical artifacts
//! and tables at any `--jobs` value (DESIGN.md §12).
//!
//! A job that panics poisons only itself: the panic is caught, converted
//! into a typed [`JobError::Panicked`], and the remaining jobs keep
//! running. The pool never unwinds across threads.
//!
//! Progress ([`Progress`]) is reported as each job finishes — by the
//! `Sweep` wrapper around it, which knows whether the job ran or was
//! served from the result cache — and goes to stderr, keeping stdout
//! reserved for the deterministic tables. The pool is private to the
//! harness: binaries reach it through `Sweep`.

use std::io::{IsTerminal, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Why one job failed. The sweep survives; the error names the job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The job's closure panicked; the payload is the panic message.
    Panicked {
        /// The failing job's label.
        label: String,
        /// The panic payload, stringified.
        payload: String,
    },
    /// The job returned a typed error of its own.
    Failed {
        /// The failing job's label.
        label: String,
        /// The job's error message.
        message: String,
    },
}

impl JobError {
    /// The label of the job that failed.
    pub fn label(&self) -> &str {
        match self {
            JobError::Panicked { label, .. } | JobError::Failed { label, .. } => label,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked { label, payload } => {
                write!(f, "job '{label}' panicked: {payload}")
            }
            JobError::Failed { label, message } => write!(f, "job '{label}' failed: {message}"),
        }
    }
}

impl std::error::Error for JobError {}

/// One unit of work: a label (for progress and errors) plus a closure.
pub struct Job<T, F: FnOnce() -> Result<T, String>> {
    /// Display name (progress line, error reports).
    pub label: String,
    /// The work. An `Err(String)` becomes [`JobError::Failed`]; a panic
    /// becomes [`JobError::Panicked`].
    pub work: F,
}

impl<T, F: FnOnce() -> Result<T, String>> Job<T, F> {
    /// Builds a job.
    pub fn new(label: impl Into<String>, work: F) -> Job<T, F> {
        Job {
            label: label.into(),
            work,
        }
    }
}

/// Live progress for a sweep: jobs done/total, cache hits, and an ETA
/// extrapolated from completed-job wall times. On a terminal the line
/// redraws in place; otherwise one line per job is emitted (CI logs).
/// `REVIVE_NO_PROGRESS=1` silences it entirely.
pub struct Progress {
    total: usize,
    done: AtomicUsize,
    cached: AtomicUsize,
    start: Instant,
    enabled: bool,
    tty: bool,
    line: Mutex<()>,
}

impl Progress {
    /// A progress reporter for `total` jobs.
    pub fn new(total: usize) -> Progress {
        Progress {
            total,
            done: AtomicUsize::new(0),
            cached: AtomicUsize::new(0),
            start: Instant::now(),
            enabled: std::env::var("REVIVE_NO_PROGRESS").map_or(true, |v| v == "0"),
            tty: std::io::stderr().is_terminal(),
            line: Mutex::new(()),
        }
    }

    /// A silent reporter (tests).
    pub fn quiet(total: usize) -> Progress {
        let mut p = Progress::new(total);
        p.enabled = false;
        p
    }

    /// Records one finished job and redraws the progress line. `cached`
    /// marks a job served from the result cache instead of executed.
    pub fn finish(&self, label: &str, cached: bool) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let cached_n = if cached {
            self.cached.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            self.cached.load(Ordering::Relaxed)
        };
        if !self.enabled {
            return;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        let eta = eta_label(done, cached_n, self.total, elapsed);
        let tag = if cached { " [cached]" } else { "" };
        let _guard = self.line.lock().unwrap();
        if self.tty {
            eprint!(
                "\r[{done}/{total}] {cached_n} cached, {elapsed:.1}s elapsed, {eta} — {label}{tag}\x1b[K",
                total = self.total,
            );
            if done == self.total {
                eprintln!();
            }
            let _ = std::io::stderr().flush();
        } else {
            eprintln!(
                "[{done}/{total}] {label}{tag} ({elapsed:.1}s elapsed, {eta}, {cached_n} cached)",
                total = self.total,
            );
        }
    }
}

/// The ETA fragment of the progress line, from mean *executed*-job time:
/// cache hits are ~free, so folding them into the mean would extrapolate
/// nonsense (a sweep whose first jobs all hit the cache used to print an
/// ETA of ~0s for hours of remaining work). Until a real run lands there
/// is no basis for an estimate, so it prints `ETA --`. All arithmetic
/// saturates — a racy `cached > done` snapshot never panics or goes
/// negative.
fn eta_label(done: usize, cached: usize, total: usize, elapsed: f64) -> String {
    if done >= total {
        return "ETA 0.0s".to_string();
    }
    let executed = done.saturating_sub(cached);
    if executed == 0 {
        return "ETA --".to_string();
    }
    let per_job = elapsed / executed as f64;
    let remaining = total.saturating_sub(done) as f64;
    format!("ETA {:.1}s", (per_job * remaining).max(0.0))
}

/// Executes `jobs` across `min(workers, jobs.len())` threads (at least
/// one), collecting results **by job index**. See the module docs for the
/// ordering and panic-isolation guarantees.
pub fn run_jobs<T, F>(jobs: Vec<Job<T, F>>, workers: usize) -> Vec<Result<T, JobError>>
where
    T: Send,
    F: FnOnce() -> Result<T, String> + Send,
{
    let total = jobs.len();
    let workers = workers.clamp(1, total.max(1));
    let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
    // Jobs move into indexed slots; each worker claims the next unclaimed
    // index and takes the closure out under the lock (the lock covers only
    // the take, not the run).
    let pending: Mutex<Vec<Option<F>>> =
        Mutex::new(jobs.into_iter().map(|j| Some(j.work)).collect());
    let results: Mutex<Vec<Option<Result<T, JobError>>>> =
        Mutex::new((0..total).map(|_| None).collect());
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    return;
                }
                let work = pending.lock().unwrap()[i].take().expect("job claimed once");
                let outcome = match catch_unwind(AssertUnwindSafe(work)) {
                    Ok(Ok(v)) => Ok(v),
                    Ok(Err(message)) => Err(JobError::Failed {
                        label: labels[i].clone(),
                        message,
                    }),
                    Err(payload) => Err(JobError::Panicked {
                        label: labels[i].clone(),
                        payload: panic_message(payload.as_ref()),
                    }),
                };
                results.lock().unwrap()[i] = Some(outcome);
            });
        }
    });

    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every job index filled"))
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order_at_any_worker_count() {
        for workers in [1, 2, 4, 8] {
            let jobs: Vec<Job<usize, _>> = (0..16)
                .map(|i| {
                    Job::new(format!("j{i}"), move || {
                        // Earlier jobs sleep longer, so completion order is
                        // roughly reversed from submission order.
                        std::thread::sleep(std::time::Duration::from_millis((16 - i as u64) % 5));
                        Ok(i * 10)
                    })
                })
                .collect();
            let out = run_jobs(jobs, workers);
            let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, (0..16).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panicking_job_yields_job_error_and_others_complete() {
        let jobs: Vec<Job<u32, _>> = (0..6)
            .map(|i| {
                Job::new(format!("j{i}"), move || {
                    if i == 3 {
                        panic!("boom {i}");
                    }
                    Ok(i)
                })
            })
            .collect();
        let out = run_jobs(jobs, 4);
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                match r {
                    Err(JobError::Panicked { label, payload }) => {
                        assert_eq!(label, "j3");
                        assert!(payload.contains("boom 3"));
                    }
                    other => panic!("expected a panic error, got {other:?}"),
                }
            } else {
                assert_eq!(*r, Ok(i as u32));
            }
        }
    }

    #[test]
    fn typed_failures_are_reported_per_job() {
        let jobs: Vec<Job<u32, _>> = (0..3)
            .map(|i| {
                Job::new(format!("j{i}"), move || {
                    if i == 1 {
                        Err("bad config".to_string())
                    } else {
                        Ok(i)
                    }
                })
            })
            .collect();
        let out = run_jobs(jobs, 2);
        assert_eq!(out[0], Ok(0));
        assert_eq!(
            out[1],
            Err(JobError::Failed {
                label: "j1".into(),
                message: "bad config".into()
            })
        );
        assert_eq!(out[2], Ok(2));
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<Result<u32, JobError>> =
            run_jobs(Vec::<Job<u32, fn() -> Result<u32, String>>>::new(), 4);
        assert!(out.is_empty());
    }

    #[test]
    fn progress_counts_cache_hits() {
        let p = Progress::quiet(3);
        p.finish("a", true);
        p.finish("b", false);
        p.finish("c", true);
        assert_eq!(p.cached.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn eta_ignores_cache_hits_and_saturates() {
        // First job was a cache hit: no executed runs yet, so no estimate
        // (the old formula extrapolated ~0s for the whole sweep here).
        assert_eq!(eta_label(1, 1, 10, 0.01), "ETA --");
        // One real run took ~2s; 8 jobs remain after 2 done.
        assert_eq!(eta_label(2, 1, 10, 2.0), "ETA 16.0s");
        // Cache hits don't dilute the mean: 5 done but only 1 executed.
        assert_eq!(eta_label(5, 4, 10, 2.0), "ETA 10.0s");
        // Done, and a racy cached > done snapshot, both stay sane.
        assert_eq!(eta_label(10, 3, 10, 9.0), "ETA 0.0s");
        assert_eq!(eta_label(1, 2, 10, 1.0), "ETA --");
    }
}
