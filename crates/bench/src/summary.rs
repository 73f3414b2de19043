//! The `revive-bench-summary` document: the perf baseline's schema, its
//! renderer/parser, and the regression diff `bench_diff` enforces.
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

use revive_harness::{Args, Sweep, SweepJob};
use revive_machine::{parse_json, Json, WorkloadSpec};
use revive_workloads::AppId;

use crate::{experiment_config, FigConfig, Opts};

/// Schema identifier of the summary document.
pub const SUMMARY_SCHEMA: &str = "revive-bench-summary";

/// Current summary document version. Version 2 added the top-level
/// `host_cores` and three engine self-profile columns per entry (thread
/// count, parallel-window fraction, per-phase wall time); version 3
/// dropped those columns with the sharded engine they described. Older
/// documents still parse: a missing `host_cores` reads as 0, and keys
/// the parser does not know are ignored.
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

/// A parsed summary document.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Whether the runs used quick-mode budgets.
    pub quick: bool,
    /// Logical cores of the host that produced the document (0 when the
    /// document predates version 2). Context for the wall columns, never
    /// gated.
    pub host_cores: u64,
    /// Entries in sweep order.
    pub entries: Vec<SummaryEntry>,
}

/// Renders the summary JSON (fixed key order; deterministic for the
/// simulation fields).
pub fn render_json(s: &Summary) -> String {
    let mut o = String::new();
    o.push_str("{\n");
    o.push_str(&format!("  \"schema\": \"{SUMMARY_SCHEMA}\",\n"));
    o.push_str(&format!("  \"version\": {SUMMARY_VERSION},\n"));
    o.push_str(&format!("  \"quick\": {},\n", s.quick));
    o.push_str(&format!("  \"host_cores\": {},\n", s.host_cores));
    o.push_str("  \"entries\": [\n");
    for (i, e) in s.entries.iter().enumerate() {
        let wall_s = (e.wall_ms / 1e3).max(1e-9);
        o.push_str(&format!(
            "    {{\"app\": \"{}\", \"config\": \"{}\", \"ops\": {}, \"events\": {}, \
             \"sim_time_ns\": {}, \"sim_ns_per_op\": {:.3}, \"wall_ms\": {:.1}, \
             \"kops_per_wall_sec\": {:.1}, \"kevents_per_wall_sec\": {:.1}}}{}\n",
            e.app,
            e.config,
            e.ops,
            e.events,
            e.sim_time_ns,
            e.sim_ns_per_op(),
            e.wall_ms,
            e.kops_per_wall_sec(),
            e.events as f64 / wall_s / 1e3,
            if i + 1 < s.entries.len() { "," } else { "" },
        ));
    }
    o.push_str("  ]\n}\n");
    o
}

/// Parses a summary document.
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field.
pub fn parse_summary(text: &str) -> Result<Summary, String> {
    let doc = parse_json(text)?;
    if doc.get("schema").and_then(Json::as_str) != Some(SUMMARY_SCHEMA) {
        return Err(format!("schema is not '{SUMMARY_SCHEMA}'"));
    }
    let quick = match doc.get("quick") {
        Some(Json::Bool(b)) => *b,
        _ => return Err("'quick' missing or not a bool".into()),
    };
    // `host_cores` is optional: a version-1 baseline must keep parsing
    // (and diffing) against newer candidates.
    let host_cores = doc.get("host_cores").and_then(Json::as_num).unwrap_or(0.0) as u64;
    let mut entries = Vec::new();
    for e in doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("'entries' missing or not an array")?
    {
        let s = |key: &str| {
            e.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry.{key} missing or not a string"))
        };
        let n = |key: &str| {
            e.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("entry.{key} missing or not a number"))
        };
        entries.push(SummaryEntry {
            app: s("app")?,
            config: s("config")?,
            ops: n("ops")? as u64,
            events: n("events")? as u64,
            sim_time_ns: n("sim_time_ns")? as u64,
            wall_ms: n("wall_ms")?,
        });
    }
    Ok(Summary {
        quick,
        host_cores,
        entries,
    })
}

/// Runs the Figure 8 sweep and returns a complete [`Summary`], one entry
/// per (app, config) pair in sweep order. The cache is disabled: the wall
/// columns must measure runs that actually happened on this host.
pub fn run_summary_sweep(args: &Args, opts: Opts) -> Summary {
    let mut pairs = Vec::new();
    let mut jobs = Vec::new();
    for app in AppId::ALL {
        for fig in [FigConfig::Baseline, FigConfig::Cp] {
            let cfg = experiment_config(WorkloadSpec::Splash(app), fig, opts);
            jobs.push(SweepJob::new(format!("{}_{}", app.name(), fig.name()), cfg));
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

    #[test]
    fn render_parse_round_trips() {
        let s = summary(vec![
            entry("fft", "Base", 1000, 50_000, 12.0),
            entry("fft", "Cp10ms", 1000, 61_000, 14.5),
        ]);
        let parsed = parse_summary(&render_json(&s)).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn version_1_documents_still_parse_with_defaults() {
        // A pre-profiling baseline: no version-2 fields anywhere.
        let v1 = format!(
            "{{\n  \"schema\": \"{SUMMARY_SCHEMA}\",\n  \"version\": 1,\n  \"quick\": false,\n  \
             \"entries\": [\n    {{\"app\": \"fft\", \"config\": \"Base\", \"ops\": 1000, \
             \"events\": 3000, \"sim_time_ns\": 50000, \"wall_ms\": 12.0}}\n  ]\n}}\n"
        );
        let parsed = parse_summary(&v1).unwrap();
        assert_eq!(parsed.host_cores, 0);
        assert_eq!(parsed.entries[0].events, 3000);
    }

    #[test]
    fn unknown_entry_keys_are_ignored() {
        // Version-2 documents carry per-entry columns version 3 dropped;
        // they must keep parsing as baselines.
        let v2 = format!(
            "{{\n  \"schema\": \"{SUMMARY_SCHEMA}\",\n  \"version\": 2,\n  \"quick\": false,\n  \
             \"host_cores\": 2,\n  \"entries\": [\n    {{\"app\": \"fft\", \"config\": \"Base\", \
             \"ops\": 1000, \"events\": 3000, \"sim_time_ns\": 50000, \"wall_ms\": 12.0, \
             \"dropped_count\": 1, \"dropped_phases\": {{\"schedule\": 5}}}}\n  ]\n}}\n"
        );
        let parsed = parse_summary(&v2).unwrap();
        let want = Summary {
            host_cores: 2,
            ..summary(vec![entry("fft", "Base", 1000, 50_000, 12.0)])
        };
        assert_eq!(parsed, want);
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
