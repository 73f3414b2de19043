//! The `revive-bench-summary` document: the perf baseline's schema, its
//! writer and reader, and the regression diff `bench_diff` enforces.
//!
//! A summary records one entry per (app, config) pair of the Figure 8
//! sweep, with two metric families deliberately kept apart:
//!
//! * **Simulation metrics** (`ops`, `events`, `sim_time_ns`) are
//!   deterministic: the same simulator on any host produces the same
//!   values. Any deviation from the baseline means simulator behavior
//!   changed, so the default tolerance is zero.
//! * **Wall metrics** (`wall_ms`, `kops_per_wall_sec`) measure the harness
//!   on one host and are noisy across machines. The diff only flags
//!   *slowdowns*, only beyond a generous relative tolerance, and can be
//!   disabled entirely (`--no-wall`) for cross-host comparisons.

use revive_harness::{Args, Sweep};
use revive_machine::{json_record, Codec, Json, WorkloadSpec};
use revive_workloads::AppId;

use crate::documents::fixed;
use crate::{fig_job, FigConfig, Opts};

/// Schema identifier of the summary document.
pub const SUMMARY_SCHEMA: &str = "revive-bench-summary";

/// The one summary version this build writes and reads.
pub const SUMMARY_VERSION: u64 = 3;

/// One (app, config) measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryEntry {
    /// Application short name.
    pub app: String,
    /// Figure 8 configuration name.
    pub config: String,
    /// CPU ops executed (deterministic).
    pub ops: u64,
    /// Simulator events processed (deterministic).
    pub events: u64,
    /// Simulated completion time (deterministic).
    pub sim_time_ns: u64,
    /// Harness wall time for this run (host-dependent).
    pub wall_ms: f64,
}

impl SummaryEntry {
    /// Simulated nanoseconds per op (derived).
    pub fn sim_ns_per_op(&self) -> f64 {
        self.sim_time_ns as f64 / self.ops.max(1) as f64
    }

    /// Thousand ops per wall-clock second (derived, host-dependent).
    pub fn kops_per_wall_sec(&self) -> f64 {
        self.ops as f64 / (self.wall_ms / 1e3).max(1e-9) / 1e3
    }
}

json_record!(document(SUMMARY_SCHEMA, SUMMARY_VERSION)
    /// A summary document.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Summary {
        /// Whether the runs used quick-mode budgets.
        pub quick: bool,
        /// Logical cores of the host that produced the document. Context
        /// for the wall columns, never gated.
        pub host_cores: u64,
        /// Entries in sweep order.
        pub entries: Vec<SummaryEntry>,
    }
);

/// An entry also records its derived columns — wall-derived ones at 0.1
/// precision, simulated ns/op at 0.001. The reader requires them but
/// recomputes them from the measured columns.
impl Codec for SummaryEntry {
    fn to_json(&self) -> Json {
        let wall_s = (self.wall_ms / 1e3).max(1e-9);
        Json::obj([
            ("app", self.app.to_json()),
            ("config", self.config.to_json()),
            ("ops", self.ops.to_json()),
            ("events", self.events.to_json()),
            ("sim_time_ns", self.sim_time_ns.to_json()),
            ("sim_ns_per_op", fixed(self.sim_ns_per_op(), 3).to_json()),
            ("wall_ms", fixed(self.wall_ms, 1).to_json()),
            (
                "kops_per_wall_sec",
                fixed(self.kops_per_wall_sec(), 1).to_json(),
            ),
            (
                "kevents_per_wall_sec",
                fixed(self.events as f64 / wall_s / 1e3, 1).to_json(),
            ),
        ])
    }

    fn from_json(e: &Json) -> Result<SummaryEntry, String> {
        for key in ["sim_ns_per_op", "kops_per_wall_sec", "kevents_per_wall_sec"] {
            e.read::<f64>(key)?;
        }
        Ok(SummaryEntry {
            app: e.read("app")?,
            config: e.read("config")?,
            ops: e.read("ops")?,
            events: e.read("events")?,
            sim_time_ns: e.read("sim_time_ns")?,
            wall_ms: e.read("wall_ms")?,
        })
    }
}

/// Runs the Figure 8 sweep and returns a complete [`Summary`], one entry
/// per (app, config) pair in sweep order. The cache is disabled: the wall
/// columns must measure runs that actually happened on this host.
pub fn run_summary_sweep(args: &Args, opts: Opts) -> Summary {
    let mut pairs = Vec::new();
    let mut jobs = Vec::new();
    for app in AppId::ALL {
        for fig in [FigConfig::Baseline, FigConfig::Cp] {
            jobs.push(fig_job(WorkloadSpec::Splash(app), fig, opts));
            pairs.push((app.name(), fig.name()));
        }
    }
    let outcomes = Sweep::new("bench_summary", args)
        .without_cache()
        .run_all(jobs);
    let entries = pairs
        .into_iter()
        .zip(&outcomes)
        .map(|((app, config), o)| SummaryEntry {
            app: app.to_string(),
            config: config.to_string(),
            ops: o.result.metrics.traffic.cpu_ops,
            events: o.result.events,
            sim_time_ns: o.result.sim_time.0,
            wall_ms: o.wall_ms,
        })
        .collect();
    Summary {
        quick: opts.quick,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        entries,
    }
}

/// Relative tolerances for the regression diff.
#[derive(Clone, Copy, Debug)]
pub struct Tolerances {
    /// Allowed relative deviation (either direction) for the deterministic
    /// simulation metrics. Zero by default: a changed simulation number is
    /// a behavior change, not noise.
    pub sim: f64,
    /// Allowed relative *slowdown* for wall-clock throughput. Generous by
    /// default; set [`Tolerances::check_wall`] to `false` when baseline and
    /// candidate ran on different hosts.
    pub wall: f64,
    /// Whether to compare wall-clock throughput at all.
    pub check_wall: bool,
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances {
            sim: 0.0,
            wall: 0.5,
            check_wall: true,
        }
    }
}

/// One detected regression.
#[derive(Clone, Debug)]
pub struct Regression {
    /// `app/config` of the offending entry.
    pub entry: String,
    /// The metric that moved.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Relative deviation `(candidate - baseline) / baseline`.
    pub rel: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} {} -> {} ({:+.1}%)",
            self.entry,
            self.metric,
            self.baseline,
            self.candidate,
            self.rel * 100.0
        )
    }
}

/// Compares `candidate` against `baseline` entry by entry.
///
/// # Errors
///
/// Returns `Err` when the documents are not comparable at all (different
/// quick modes, or a baseline entry missing from the candidate) — that is
/// an operator error, not a regression.
pub fn diff(
    baseline: &Summary,
    candidate: &Summary,
    tol: &Tolerances,
) -> Result<Vec<Regression>, String> {
    if baseline.quick != candidate.quick {
        return Err(format!(
            "mode mismatch: baseline quick={}, candidate quick={} — budgets differ, \
             numbers are not comparable",
            baseline.quick, candidate.quick
        ));
    }
    let mut regressions = Vec::new();
    for b in &baseline.entries {
        let entry = format!("{}/{}", b.app, b.config);
        let Some(c) = candidate
            .entries
            .iter()
            .find(|c| c.app == b.app && c.config == b.config)
        else {
            return Err(format!("candidate is missing entry {entry}"));
        };
        let rel = |base: f64, cand: f64| {
            if base == 0.0 {
                if cand == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (cand - base) / base
            }
        };
        // Deterministic metrics: any deviation beyond tol.sim, either
        // direction, is a finding ("faster" sim time still means the
        // simulator changed behavior).
        for (metric, base, cand) in [
            ("ops", b.ops as f64, c.ops as f64),
            ("events", b.events as f64, c.events as f64),
            ("sim_time_ns", b.sim_time_ns as f64, c.sim_time_ns as f64),
        ] {
            let r = rel(base, cand);
            if r.abs() > tol.sim {
                regressions.push(Regression {
                    entry: entry.clone(),
                    metric: metric.to_string(),
                    baseline: base,
                    candidate: cand,
                    rel: r,
                });
            }
        }
        // Wall-clock throughput: only slowdowns count, only beyond the
        // wall tolerance.
        if tol.check_wall {
            let (base, cand) = (b.kops_per_wall_sec(), c.kops_per_wall_sec());
            let r = rel(base, cand);
            if r < -tol.wall {
                regressions.push(Regression {
                    entry,
                    metric: "kops_per_wall_sec".to_string(),
                    baseline: base,
                    candidate: cand,
                    rel: r,
                });
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn summary(entries: Vec<SummaryEntry>) -> Summary {
        Summary {
            quick: false,
            host_cores: 8,
            entries,
        }
    }

    fn read(text: &str) -> Result<Summary, String> {
        Summary::from_json(&revive_machine::parse_json(text)?)
    }

    #[test]
    fn render_parse_round_trips() {
        let s = summary(vec![
            entry("fft", "Base", 1000, 50_000, 12.0),
            entry("fft", "Cp10ms", 1000, 61_000, 14.5),
        ]);
        let text = revive_machine::write_json(&s.to_json());
        assert_eq!(read(&text), Ok(s));
    }

    #[test]
    fn only_the_current_version_parses() {
        let s = summary(vec![entry("fft", "Base", 1000, 50_000, 12.0)]);
        let text = revive_machine::write_json(&s.to_json());
        for v in [2, 4] {
            let other = text.replace("\"version\":3", &format!("\"version\":{v}"));
            assert!(read(&other).unwrap_err().contains("version"));
        }
        // `host_cores` is mandatory.
        let no_cores = text.replace("\"host_cores\":8,\n", "");
        assert!(read(&no_cores).is_err());
    }

    #[test]
    fn identical_summaries_pass() {
        let s = summary(vec![entry("fft", "Base", 1000, 50_000, 12.0)]);
        assert!(diff(&s, &s, &Tolerances::default()).unwrap().is_empty());
    }

    #[test]
    fn injected_sim_regression_is_flagged() {
        let base = summary(vec![entry("fft", "Base", 1000, 50_000, 12.0)]);
        // +10% simulated time: a behavior change the zero tolerance must
        // catch.
        let cand = summary(vec![entry("fft", "Base", 1000, 55_000, 12.0)]);
        let found = diff(&base, &cand, &Tolerances::default()).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "sim_time_ns");
        assert!((found[0].rel - 0.10).abs() < 1e-9);
        // A small sim tolerance absorbs it.
        let tol = Tolerances {
            sim: 0.2,
            ..Tolerances::default()
        };
        assert!(diff(&base, &cand, &tol).unwrap().is_empty());
    }

    #[test]
    fn wall_slowdown_is_flagged_but_speedup_is_not() {
        let base = summary(vec![entry("fft", "Base", 1000, 50_000, 10.0)]);
        // 4x slower wall clock (throughput -75%) trips the 50% tolerance.
        let slow = summary(vec![entry("fft", "Base", 1000, 50_000, 40.0)]);
        let found = diff(&base, &slow, &Tolerances::default()).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "kops_per_wall_sec");
        // Faster is never a regression.
        let fast = summary(vec![entry("fft", "Base", 1000, 50_000, 2.0)]);
        assert!(diff(&base, &fast, &Tolerances::default())
            .unwrap()
            .is_empty());
        // And wall checks can be disabled outright.
        let no_wall = Tolerances {
            check_wall: false,
            ..Tolerances::default()
        };
        assert!(diff(&base, &slow, &no_wall).unwrap().is_empty());
    }

    #[test]
    fn incomparable_documents_error_out() {
        let base = summary(vec![entry("fft", "Base", 1000, 50_000, 10.0)]);
        let mut quick = base.clone();
        quick.quick = true;
        assert!(diff(&base, &quick, &Tolerances::default()).is_err());
        let missing = summary(Vec::new());
        assert!(diff(&base, &missing, &Tolerances::default()).is_err());
    }
}
