//! Machine-readable run artifacts.
//!
//! [`render_artifact`] serializes one run — configuration, end-of-run
//! metrics, per-class latency histograms, checkpoint and recovery phase
//! timelines, the per-epoch time series, and the event-trace summary — as a
//! [`Json`] tree with a **fixed member order**, written by the canonical
//! [`crate::json::write_json`], so two identical runs produce
//! byte-identical artifacts (the determinism contract the test suite
//! asserts).
//!
//! The reader is the validator: [`parse_run_meta`] reads the run's
//! identity (configuration, redundancy coordinates, injection scenario) and
//! [`parse_run_result`] reads and checks every measured section;
//! [`validate_artifact`] is just the two together.

use revive_core::checkpoint::CkptTimeline;
use revive_core::dirext::CostStats;
use revive_core::recovery::RecoveryReport;
use revive_sim::stats::Histogram;
use revive_sim::time::Ns;
use revive_sim::trace::TraceEvent;

use crate::config::ExperimentConfig;
use crate::json::{check_header, parse_json, write_json, Codec, Json};
use crate::metrics::{ServingReport, ServingWindow, SloLedger, TrafficClass};
use crate::runner::{FaultOutcome, InjectionPlan, RecoveryOutcome, RunResult};
use crate::sampling::EpochSample;

/// Identity of a run, embedded in its artifact. Wall-clock facts are
/// deliberately excluded: artifacts must be byte-identical across reruns.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMeta {
    /// Free-form label (e.g. `"fig8/fft/Cp"`).
    pub label: String,
    /// Workload short name.
    pub workload: String,
    /// ReVive mode short name.
    pub mode: String,
    /// Node count.
    pub nodes: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Op budget per CPU.
    pub ops_per_cpu: u64,
    /// Checkpoint interval in ns (`u64::MAX` = infinite).
    pub interval_ns: u64,
    /// Simultaneous node losses per group the redundancy backend can
    /// rebuild (0 for the baseline).
    pub redundancy_budget: usize,
    /// Fraction of memory the backend spends on redundancy.
    pub storage_overhead: f64,
    /// Content hash of the *complete* experiment configuration (every
    /// machine, ReVive, observability, and injection knob — not just the
    /// summary fields above). This is the result cache's key: an artifact
    /// may be reused in place of a run only when its recorded hash matches
    /// the hash of the configuration about to run (DESIGN.md §12).
    pub config_hash: u64,
    /// The campaign seed this run's scenario was generated from, when it
    /// came out of the fault-campaign engine.
    pub campaign_seed: Option<u64>,
    /// The scripted faults injected into the run (empty for clean runs) —
    /// an artifact records its full injection scenario so any run can be
    /// replayed from its artifact alone.
    pub injections: Vec<InjectionPlan>,
}

impl RunMeta {
    /// Derives the metadata from an experiment configuration.
    pub fn from_config(label: impl Into<String>, cfg: &ExperimentConfig) -> RunMeta {
        RunMeta {
            label: label.into(),
            workload: cfg.workload.name().to_string(),
            mode: cfg.revive.mode.name().to_string(),
            nodes: cfg.machine.nodes,
            seed: cfg.seed,
            ops_per_cpu: cfg.ops_per_cpu,
            interval_ns: cfg.revive.ckpt.interval.0,
            redundancy_budget: cfg.revive.mode.loss_budget(),
            storage_overhead: cfg.revive.mode.storage_overhead(),
            // The Debug rendering covers every field of the config tree, so
            // any change — cache geometry, log fraction, L-bit design,
            // observability — changes the hash and invalidates the cache.
            config_hash: content_hash(&format!("{cfg:?}")),
            campaign_seed: None,
            injections: Vec::new(),
        }
    }

    /// Records the injection scenario in the metadata and folds it into
    /// the configuration hash (an injection run is a different experiment
    /// than a clean one). The hash covers the scenario's recorded JSON, so
    /// it moves exactly when the text the artifact records does.
    pub fn with_injections(mut self, plans: &[InjectionPlan]) -> RunMeta {
        self.injections = plans.to_vec();
        if !plans.is_empty() {
            let recorded = write_json(&self.injections.to_json());
            self.config_hash = content_hash_seeded(self.config_hash, &recorded);
        }
        self
    }

    /// Records the generating campaign seed in the metadata.
    pub fn with_campaign_seed(mut self, seed: u64) -> RunMeta {
        self.campaign_seed = Some(seed);
        self
    }

    /// The config hash in the fixed-width hex form artifacts record.
    pub fn config_hash_hex(&self) -> String {
        format!("{:016x}", self.config_hash)
    }
}

/// Schema identifier every artifact carries.
pub const ARTIFACT_SCHEMA: &str = "revive-run-artifact";
/// The one artifact schema version this build writes and reads. Version 8
/// is the first with every section mandatory except `serving` (present
/// only for open-loop serving runs, DESIGN.md §16).
pub const ARTIFACT_VERSION: u64 = 8;

/// FNV-1a over the UTF-8 bytes of `s` — the content address used to key
/// the result cache. Hand-rolled (the build is offline); 64-bit is plenty
/// for a namespace of a few thousand experiment configurations.
pub fn content_hash(s: &str) -> u64 {
    content_hash_seeded(0xcbf2_9ce4_8422_2325, s)
}

/// FNV-1a continued from a previous hash value (for folding several
/// strings into one address).
pub fn content_hash_seeded(seed: u64, s: &str) -> u64 {
    let mut h = seed;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

crate::json_record!(CostStats {
    wb_logged,
    rdx_unlogged,
    wb_unlogged,
    intents_already_logged,
});

crate::json_record!(EpochSample {
    t: "t_ns",
    net_bytes,
    net_msgs,
    mem_accesses,
    retries,
    ops,
    log_bytes,
    log_utilization_max,
    outstanding_misses,
    dir_busy,
    dram_busy: "dram_busy_ns",
    link_busy: "link_busy_ns",
    checkpoints,
    requests,
});

crate::json_record!(ServingReport {
    admitted,
    completed,
    mean_ns,
    max_ns,
    p50_ns,
    p90_ns,
    p99_ns,
    p999_ns,
    p9999_ns,
    ledger,
    windows,
});

crate::json_record!(SloLedger {
    target_ns,
    budget_ppm,
    window_ns,
    good,
    violations,
});

crate::json_record!(ServingWindow {
    start_ns,
    completed,
    good,
});

fn hist_json(h: &Histogram) -> Json {
    let buckets: Vec<[u64; 2]> = h
        .buckets()
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| [Histogram::bucket_lower_bound(i), c])
        .collect();
    Json::obj([
        ("total", h.total().to_json()),
        ("p50", h.quantile_upper_bound(0.50).to_json()),
        ("p90", h.quantile_upper_bound(0.90).to_json()),
        ("p99", h.quantile_upper_bound(0.99).to_json()),
        ("buckets", buckets.to_json()),
    ])
}

fn class_hists_json(hs: &[Histogram; 5]) -> Json {
    Json::obj(
        TrafficClass::ALL
            .into_iter()
            .map(|c| (c.name(), hist_json(&hs[c.index()]))),
    )
}

fn spans_json<const N: usize>(phases: [(&str, Ns, Ns); N]) -> Json {
    Json::Arr(
        phases
            .iter()
            .map(|(name, start, end)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("start_ns", start.to_json()),
                    ("end_ns", end.to_json()),
                ])
            })
            .collect(),
    )
}

/// Renders the run artifact JSON (see module docs). The output ends with a
/// newline and has a deterministic byte sequence for a deterministic run.
pub fn render_artifact(meta: &RunMeta, r: &RunResult) -> String {
    let m = &r.metrics;
    let t = &m.traffic;
    let mut doc = vec![
        ("schema", Json::str(ARTIFACT_SCHEMA)),
        ("version", ARTIFACT_VERSION.to_json()),
        (
            "config",
            Json::obj([
                ("label", meta.label.to_json()),
                ("workload", meta.workload.to_json()),
                ("mode", meta.mode.to_json()),
                ("nodes", meta.nodes.to_json()),
                ("seed", meta.seed.to_json()),
                ("ops_per_cpu", meta.ops_per_cpu.to_json()),
                ("interval_ns", meta.interval_ns.to_json()),
                ("config_hash", meta.config_hash_hex().to_json()),
            ]),
        ),
        (
            "redundancy",
            Json::obj([
                ("backend", meta.mode.to_json()),
                ("budget", meta.redundancy_budget.to_json()),
                ("storage_overhead", meta.storage_overhead.to_json()),
            ]),
        ),
        (
            "injections",
            Json::obj([
                ("campaign_seed", meta.campaign_seed.to_json()),
                ("plans", meta.injections.to_json()),
            ]),
        ),
        (
            "result",
            Json::obj([
                ("sim_time_ns", r.sim_time.to_json()),
                ("events", r.events.to_json()),
                ("checkpoints", r.checkpoints.to_json()),
                ("early_triggers", r.ckpt.early_triggers.to_json()),
                ("cpu_ops", t.cpu_ops.to_json()),
                ("instructions", t.instructions.to_json()),
                ("l1_hits", m.l1_hits.to_json()),
                ("l1_misses", m.l1_misses.to_json()),
                ("l2_hits", m.l2_hits.to_json()),
                ("l2_misses", m.l2_misses.to_json()),
                ("eviction_writebacks", m.eviction_writebacks.to_json()),
                ("nack_retries", m.nack_retries.to_json()),
                ("dram_row_hit_rate", m.dram_row_hit_rate.to_json()),
                ("mean_net_latency_ns", m.mean_net_latency.to_json()),
                ("max_log_bytes", m.max_log_bytes().to_json()),
                ("costs", m.costs.to_json()),
                ("net_bytes", t.net_bytes.to_json()),
                ("net_msgs", t.net_msgs.to_json()),
                ("mem_accesses", t.mem_accesses.to_json()),
                ("retries", t.retry_msgs.to_json()),
                ("log_high_water", m.log_high_water.to_json()),
            ]),
        ),
        // Per-class network latency and watchdog retry latency
        // (drop-to-redelivery) histograms.
        ("latency_ns", class_hists_json(&t.net_latency)),
        ("retry_latency_ns", class_hists_json(&t.retry_latency)),
        // Checkpoint phase timelines (Figure 6).
        (
            "checkpoints_timeline",
            Json::Arr(
                r.ckpt
                    .timelines
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("id", c.id.to_json()),
                            ("lines_flushed", c.lines_flushed.to_json()),
                            ("duration_ns", c.duration().to_json()),
                            ("phases", spans_json(c.phases())),
                        ])
                    })
                    .collect(),
            ),
        ),
        // Recovery phase timelines (Figures 7 and 12).
        (
            "recoveries",
            Json::Arr(r.recoveries.iter().map(recovery_json).collect()),
        ),
        ("epochs", r.epochs.to_json()),
    ];
    if let Some(s) = &r.serving {
        doc.push(("serving", s.to_json()));
    }
    let ts = r.trace.summary();
    let counts = TraceEvent::KIND_NAMES
        .iter()
        .zip(ts.counts)
        .map(|(name, n)| (*name, n.to_json()));
    doc.push((
        "trace",
        Json::obj([
            ("counts", Json::obj(counts)),
            ("dropped", ts.dropped.to_json()),
            ("retained", ts.retained.to_json()),
        ]),
    ));
    write_json(&Json::obj(doc))
}

fn recovery_json(rec: &RecoveryOutcome) -> Json {
    let rep = &rec.report;
    Json::obj([
        ("target_interval", rec.target_interval.to_json()),
        ("lost_work_ns", rec.lost_work.to_json()),
        ("unavailable_ns", rec.unavailable.to_json()),
        ("ops_rolled_back", rec.ops_rolled_back.to_json()),
        ("entries_replayed", rep.entries_replayed.to_json()),
        ("log_pages_rebuilt", rep.log_pages_rebuilt.to_json()),
        (
            "pages_rebuilt_on_demand",
            rep.pages_rebuilt_on_demand.to_json(),
        ),
        (
            "pages_rebuilt_background",
            rep.pages_rebuilt_background.to_json(),
        ),
        ("verified", rec.verified.to_json()),
        ("phases", spans_json(rep.phases(Ns::ZERO))),
    ])
}

fn recovery_from_json(rec: &Json) -> Result<RecoveryOutcome, String> {
    let d = read_spans::<4>(rec)?.map(|(start, end)| Ns(end - start));
    Ok(RecoveryOutcome {
        report: RecoveryReport {
            phase1: d[0],
            phase2: d[1],
            phase3: d[2],
            phase4: d[3],
            log_pages_rebuilt: rec.read("log_pages_rebuilt")?,
            pages_rebuilt_on_demand: rec.read("pages_rebuilt_on_demand")?,
            entries_replayed: rec.read("entries_replayed")?,
            pages_rebuilt_background: rec.read("pages_rebuilt_background")?,
        },
        lost_work: rec.read("lost_work_ns")?,
        unavailable: rec.read("unavailable_ns")?,
        target_interval: rec.read("target_interval")?,
        verified: rec.read("verified")?,
        ops_rolled_back: rec.read("ops_rolled_back")?,
    })
}

/// Rebuilds a checkpoint timeline from its six contiguous phase spans,
/// which hold all seven instants (`started` through `resumed`).
fn ckpt_from_json(c: &Json) -> Result<CkptTimeline, String> {
    let s = read_spans::<6>(c)?;
    if s.windows(2).any(|w| w[0].1 != w[1].0) {
        return Err("checkpoint phases are not contiguous".into());
    }
    let t = CkptTimeline {
        id: c.read("id")?,
        started: Ns(s[0].0),
        flush_started: Ns(s[1].0),
        flush_done: Ns(s[2].0),
        barrier1_done: Ns(s[3].0),
        marked: Ns(s[4].0),
        committed: Ns(s[5].0),
        resumed: Ns(s[5].1),
        lines_flushed: c.read("lines_flushed")?,
    };
    if c.read::<Ns>("duration_ns")? != t.duration() {
        return Err("checkpoint duration_ns disagrees with its phases".into());
    }
    Ok(t)
}

/// Reads `N` named phase spans, each with `start_ns ≤ end_ns`, as
/// `(start, end)` pairs.
fn read_spans<const N: usize>(entry: &Json) -> Result<[(u64, u64); N], String> {
    let phases: [Json; N] = entry.read("phases")?;
    let mut out = [(0, 0); N];
    for (slot, p) in out.iter_mut().zip(&phases) {
        p.read::<String>("name")?;
        let (start, end) = (p.read("start_ns")?, p.read("end_ns")?);
        if start > end {
            return Err("phase ends before it starts".into());
        }
        *slot = (start, end);
    }
    Ok(out)
}

fn check_hist(h: &Json) -> Result<(), String> {
    for key in ["total", "p50", "p90", "p99"] {
        h.read::<u64>(key)?;
    }
    h.read::<Vec<[u64; 2]>>("buckets").map(drop)
}

fn check_class_hists(v: &Json) -> Result<(), String> {
    TrafficClass::ALL
        .into_iter()
        .try_for_each(|class| v.section(class.name(), check_hist))
}

/// Validates a run artifact: it parses, and both readers accept it.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_artifact(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    parse_run_meta(&doc)?;
    parse_run_result(&doc).map(drop)
}

/// Reads a run's identity back from a parsed artifact: the configuration
/// summary and its content hash, the redundancy coordinates, and the
/// injection scenario. The result cache keys on the hash.
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field.
pub fn parse_run_meta(doc: &Json) -> Result<RunMeta, String> {
    check_header(doc, ARTIFACT_SCHEMA, ARTIFACT_VERSION)?;
    let (c, rdx, inj) = (
        doc.field("config")?,
        doc.field("redundancy")?,
        doc.field("injections")?,
    );
    let hash: String = c.read("config_hash")?;
    if hash.len() != 16 || !hash.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err("config: config_hash is not 16 hex digits".into());
    }
    let meta = RunMeta {
        label: c.read("label")?,
        workload: c.read("workload")?,
        mode: c.read("mode")?,
        nodes: c.read("nodes")?,
        seed: c.read("seed")?,
        ops_per_cpu: c.read("ops_per_cpu")?,
        interval_ns: c.read("interval_ns")?,
        redundancy_budget: rdx.read("budget")?,
        storage_overhead: rdx.read("storage_overhead")?,
        config_hash: u64::from_str_radix(&hash, 16).map_err(|e| e.to_string())?,
        campaign_seed: inj.read("campaign_seed")?,
        injections: inj.read("plans")?,
    };
    if rdx.read::<String>("backend")? != meta.mode {
        return Err("redundancy: backend disagrees with config.mode".into());
    }
    Ok(meta)
}

/// Reads the measured sections of a parsed artifact back into a
/// [`RunResult`] — the result cache's read path: a valid artifact whose
/// `config_hash` matches the configuration about to run stands in for
/// re-executing it.
///
/// Every section is checked (five traffic classes, six contiguous
/// checkpoint and four recovery phases with `start ≤ end`, strictly
/// increasing epochs, every trace kind), and the fields the experiment
/// binaries consume round-trip: end-of-run scalars, the traffic/cost
/// summary, the checkpoint timelines (every instant rebuilt from the
/// recorded spans, so the cache serves Figure 6 and the frontier's
/// checkpoint latencies), the recovery outcomes (with phase durations
/// rebuilt from the recorded spans), the epoch series, and the serving
/// report when present. Latency histograms and the event trace are left
/// empty — tooling that renders those (`simulate`'s traces) does not read
/// through the cache.
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field.
pub fn parse_run_result(doc: &Json) -> Result<RunResult, String> {
    check_header(doc, ARTIFACT_SCHEMA, ARTIFACT_VERSION)?;
    let v = doc.field("result")?;
    let mut out = RunResult {
        sim_time: v.read("sim_time_ns")?,
        events: v.read("events")?,
        checkpoints: v.read("checkpoints")?,
        recoveries: doc.section("recoveries", |v| {
            let recs = v.as_arr().ok_or("not an array")?;
            recs.iter().map(recovery_from_json).collect()
        })?,
        epochs: doc.read("epochs")?,
        // Only open-loop serving runs carry the section.
        serving: match doc.get("serving") {
            Some(_) => Some(doc.read("serving")?),
            None => None,
        },
        ..RunResult::default()
    };
    out.ckpt.timelines = doc.section("checkpoints_timeline", |v| {
        let ckpts = v.as_arr().ok_or("not an array")?;
        ckpts.iter().map(ckpt_from_json).collect()
    })?;
    out.ckpt.early_triggers = v.read("early_triggers")?;
    let m = &mut out.metrics;
    m.traffic.cpu_ops = v.read("cpu_ops")?;
    m.traffic.instructions = v.read("instructions")?;
    m.traffic.net_bytes = v.read("net_bytes")?;
    m.traffic.net_msgs = v.read("net_msgs")?;
    m.traffic.mem_accesses = v.read("mem_accesses")?;
    m.traffic.retry_msgs = v.read("retries")?;
    m.l1_hits = v.read("l1_hits")?;
    m.l1_misses = v.read("l1_misses")?;
    m.l2_hits = v.read("l2_hits")?;
    m.l2_misses = v.read("l2_misses")?;
    m.eviction_writebacks = v.read("eviction_writebacks")?;
    m.nack_retries = v.read("nack_retries")?;
    m.dram_row_hit_rate = v.read("dram_row_hit_rate")?;
    m.mean_net_latency = v.read("mean_net_latency_ns")?;
    m.log_high_water = v.read("log_high_water")?;
    m.costs = v.read("costs")?;
    if v.read::<u64>("max_log_bytes")? != m.max_log_bytes() {
        return Err("result: max_log_bytes disagrees with log_high_water".into());
    }
    if out.epochs.windows(2).any(|w| w[0].t >= w[1].t) {
        return Err("epochs: timestamps are not strictly increasing".into());
    }
    out.outcomes = out
        .recoveries
        .iter()
        .map(|&rec| FaultOutcome::Recovered(rec))
        .collect();
    doc.section("latency_ns", check_class_hists)?;
    doc.section("retry_latency_ns", check_class_hists)?;
    doc.section("trace", |v| {
        let counts = v.field("counts")?;
        for name in TraceEvent::KIND_NAMES {
            counts.read::<u64>(name)?;
        }
        v.read::<u64>("dropped")?;
        v.read::<u64>("retained").map(drop)
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ErrorKind;

    fn test_meta() -> RunMeta {
        RunMeta {
            label: "test".into(),
            workload: "fft".into(),
            mode: "parity".into(),
            nodes: 4,
            seed: 42,
            ops_per_cpu: 1000,
            interval_ns: 100_000,
            redundancy_budget: 1,
            storage_overhead: 0.25,
            config_hash: 0x0123_4567_89ab_cdef,
            campaign_seed: None,
            injections: Vec::new(),
        }
    }

    #[test]
    fn empty_artifact_from_default_result_validates() {
        let text = render_artifact(&test_meta(), &RunResult::default());
        validate_artifact(&text).unwrap();
    }

    #[test]
    fn artifact_records_and_validates_the_injection_scenario() {
        use crate::runner::{InjectPhase, NodeSet};
        use revive_sim::types::NodeId;
        use revive_sim::Ns;

        let plans = vec![
            InjectionPlan {
                after_checkpoint: 2,
                interval_fraction: 0.8,
                detection_delay: Ns(80_000),
                kind: ErrorKind::NodeLoss(NodeSet::from_nodes(&[NodeId(1), NodeId(2)])),
                phase: InjectPhase::DuringRecovery,
                second: Some(ErrorKind::CacheWipe),
            },
            InjectionPlan::paper_transient(Ns(100_000)),
        ];
        let meta = test_meta().with_injections(&plans).with_campaign_seed(7);
        let text = render_artifact(&meta, &RunResult::default());
        validate_artifact(&text).unwrap();
        let doc = parse_json(&text).unwrap();
        let inj = doc.get("injections").unwrap();
        assert_eq!(inj.get("campaign_seed").unwrap().as_num(), Some(7.0));
        let rendered = inj.get("plans").unwrap().as_arr().unwrap();
        assert_eq!(rendered.len(), 2);
        let first = &rendered[0];
        assert_eq!(
            first.get("kind").unwrap().get("kind").unwrap().as_str(),
            Some("multi-node-loss")
        );
        assert_eq!(
            first.get("kind").unwrap().get("nodes").unwrap().as_arr(),
            Some(&[Json::Int(1), Json::Int(2)][..])
        );
        assert_eq!(
            first.get("second").unwrap().get("kind").unwrap().as_str(),
            Some("cache-wipe")
        );
        assert_eq!(rendered[1].get("second"), Some(&Json::Null));
    }

    #[test]
    fn only_the_current_version_with_every_section_validates() {
        let text = render_artifact(&test_meta(), &RunResult::default());
        validate_artifact(&text).unwrap();
        // Exactly one version is read: a v7 artifact is rejected outright.
        let v7 = text.replace("\"version\":8,", "\"version\":7,");
        assert!(validate_artifact(&v7).unwrap_err().contains("version 7"));
        // Every top-level section except `serving` is mandatory.
        for section in ["redundancy", "injections", "latency_ns", "epochs", "trace"] {
            let Json::Obj(mut members) = parse_json(&text).unwrap() else {
                unreachable!()
            };
            members.retain(|(k, _)| k != section);
            let err = validate_artifact(&write_json(&Json::Obj(members))).unwrap_err();
            assert!(err.contains(section), "{section}: {err}");
        }
        let no_retries = text.replace(",\"retries\":[0,0,0,0,0]", "");
        assert!(validate_artifact(&no_retries).is_err());
        // The content address must be present and well-formed.
        let no_hash = text.replace(",\"config_hash\":\"0123456789abcdef\"", "");
        assert!(validate_artifact(&no_hash).is_err());
        let bad_hash = text.replace("0123456789abcdef", "not-hex!!");
        assert!(validate_artifact(&bad_hash).is_err());
        // Counts are integers, not floats.
        let float_seed = text.replace("\"seed\":42", "\"seed\":42.5");
        assert!(validate_artifact(&float_seed).is_err());
    }

    #[test]
    fn run_meta_round_trips_link_loss_and_at_time_plans() {
        use crate::runner::{CommitPoint, InjectPhase};
        use revive_sim::types::NodeId;

        let plans = vec![
            InjectionPlan {
                after_checkpoint: 1,
                interval_fraction: 0.5,
                detection_delay: Ns(40_000),
                kind: ErrorKind::LinkLoss {
                    a: NodeId(2),
                    b: NodeId(3),
                },
                phase: InjectPhase::MidLogging,
                second: None,
            },
            InjectionPlan {
                after_checkpoint: 0,
                interval_fraction: 0.0,
                detection_delay: Ns(1_600_000),
                kind: ErrorKind::NodeLoss(NodeId(1).into()),
                phase: InjectPhase::AtTime(Ns(7_654_321)),
                second: Some(ErrorKind::LinkLoss {
                    a: NodeId(0),
                    b: NodeId(4),
                }),
            },
        ];
        let meta = test_meta().with_injections(&plans).with_campaign_seed(9);
        let text = render_artifact(&meta, &RunResult::default());
        let read = parse_run_meta(&parse_json(&text).unwrap()).unwrap();
        assert_eq!(read, meta);
        // Plans recorded under the older names read into the folded
        // variants, and the artifact re-renders under the canonical ones.
        let mut plans = plans;
        plans[1].phase = InjectPhase::CommitEdge(CommitPoint::AfterMark);
        let meta = test_meta().with_injections(&plans);
        let text = render_artifact(&meta, &RunResult::default());
        let old = text
            .replace("\"node-loss\"", "\"multi-node-loss\"")
            .replace("\"commit-after-mark\"", "\"commit-window\"");
        assert_ne!(old, text);
        let read = parse_run_meta(&parse_json(&old).unwrap()).unwrap();
        assert_eq!(read, meta);
        assert_eq!(render_artifact(&read, &RunResult::default()), text);
        // A clean run's identity round-trips too, infinite interval included.
        let mut clean = test_meta();
        clean.interval_ns = u64::MAX;
        let text = render_artifact(&clean, &RunResult::default());
        assert!(text.contains("\"interval_ns\":18446744073709551615,"));
        assert_eq!(parse_run_meta(&parse_json(&text).unwrap()), Ok(clean));
    }

    #[test]
    fn config_hash_folds_in_the_injection_scenario() {
        use revive_sim::Ns;
        let clean = test_meta();
        let injected = test_meta().with_injections(&[InjectionPlan::paper_transient(Ns(100_000))]);
        assert_ne!(clean.config_hash, injected.config_hash);
        assert_eq!(clean.config_hash_hex().len(), 16);
        // Folding is deterministic: the same scenario hashes the same.
        let again = test_meta().with_injections(&[InjectionPlan::paper_transient(Ns(100_000))]);
        assert_eq!(injected.config_hash, again.config_hash);
        // The scenario enters the hash as the JSON the artifact records.
        let recorded = write_json(&injected.injections.to_json());
        assert_eq!(
            injected.config_hash,
            content_hash_seeded(clean.config_hash, &recorded)
        );
    }

    #[test]
    fn run_result_round_trips_through_the_artifact() {
        use revive_core::recovery::RecoveryReport;
        use revive_sim::Ns;

        let mut r = RunResult {
            sim_time: Ns(123_456),
            events: 999,
            checkpoints: 7,
            ..RunResult::default()
        };
        r.ckpt.early_triggers = 2;
        for (id, base) in [(1, 10_000), (2, 30_000)] {
            r.ckpt.timelines.push(CkptTimeline {
                id,
                started: Ns(base),
                flush_started: Ns(base + 5),
                flush_done: Ns(base + 400 * id),
                barrier1_done: Ns(base + 400 * id + 10),
                marked: Ns(base + 400 * id + 12),
                committed: Ns(base + 400 * id + 25),
                resumed: Ns(base + 400 * id + 40),
                lines_flushed: 17 * id,
            });
        }
        r.metrics.traffic.cpu_ops = 4000;
        r.metrics.traffic.instructions = 8000;
        r.metrics.traffic.net_bytes = [1, 2, 3, 4, 5];
        r.metrics.traffic.net_msgs = [6, 7, 8, 9, 10];
        r.metrics.traffic.mem_accesses = [11, 12, 13, 14, 15];
        r.metrics.l1_hits = 100;
        r.metrics.l1_misses = 20;
        r.metrics.l2_hits = 15;
        r.metrics.l2_misses = 5;
        r.metrics.eviction_writebacks = 3;
        r.metrics.nack_retries = 1;
        r.metrics.dram_row_hit_rate = 0.75;
        r.metrics.mean_net_latency = Ns(321);
        r.metrics.log_high_water = vec![64, 128, 256, 512];
        r.metrics.costs.wb_logged = 40;
        r.metrics.costs.rdx_unlogged = 30;
        r.metrics.costs.wb_unlogged = 20;
        r.metrics.costs.intents_already_logged = 10;
        let rec = RecoveryOutcome {
            report: RecoveryReport {
                phase1: Ns(100),
                phase2: Ns(200),
                phase3: Ns(300),
                phase4: Ns(400),
                log_pages_rebuilt: 9,
                pages_rebuilt_on_demand: 4,
                entries_replayed: 55,
                pages_rebuilt_background: 6,
            },
            lost_work: Ns(1000),
            unavailable: Ns(1600),
            target_interval: 2,
            verified: Some(true),
            ops_rolled_back: 77,
        };
        r.recoveries.push(rec);

        let text = render_artifact(&test_meta(), &r);
        validate_artifact(&text).unwrap();
        let parsed = parse_run_result(&parse_json(&text).unwrap()).unwrap();

        assert_eq!(parsed.sim_time, r.sim_time);
        assert_eq!(parsed.events, r.events);
        assert_eq!(parsed.checkpoints, r.checkpoints);
        assert_eq!(parsed.ckpt.early_triggers, r.ckpt.early_triggers);
        assert_eq!(parsed.ckpt.timelines.len(), r.ckpt.timelines.len());
        for (p, q) in parsed.ckpt.timelines.iter().zip(&r.ckpt.timelines) {
            assert_eq!(p.id, q.id);
            assert_eq!(p.started, q.started);
            assert_eq!(p.flush_started, q.flush_started);
            assert_eq!(p.flush_done, q.flush_done);
            assert_eq!(p.barrier1_done, q.barrier1_done);
            assert_eq!(p.marked, q.marked);
            assert_eq!(p.committed, q.committed);
            assert_eq!(p.resumed, q.resumed);
            assert_eq!(p.lines_flushed, q.lines_flushed);
        }
        assert_eq!(parsed.ckpt.count(), r.ckpt.count());
        assert_eq!(parsed.ckpt.mean_duration(), r.ckpt.mean_duration());
        assert_eq!(parsed.ckpt.max_duration(), r.ckpt.max_duration());
        // The reader checks a timeline's duration against its phases.
        let bad = text.replacen("\"duration_ns\":440", "\"duration_ns\":441", 1);
        assert!(validate_artifact(&bad).unwrap_err().contains("duration_ns"));
        assert_eq!(parsed.metrics.traffic.cpu_ops, r.metrics.traffic.cpu_ops);
        assert_eq!(
            parsed.metrics.traffic.net_bytes,
            r.metrics.traffic.net_bytes
        );
        assert_eq!(parsed.metrics.log_high_water, r.metrics.log_high_water);
        assert_eq!(parsed.metrics.costs, r.metrics.costs);
        assert_eq!(
            parsed.metrics.dram_row_hit_rate,
            r.metrics.dram_row_hit_rate
        );
        assert_eq!(parsed.metrics.mean_net_latency, r.metrics.mean_net_latency);
        assert_eq!(parsed.recoveries.len(), 1);
        let p = &parsed.recoveries[0];
        let q = &r.recoveries[0];
        assert_eq!(p.report, q.report);
        assert_eq!(p.lost_work, q.lost_work);
        assert_eq!(p.unavailable, q.unavailable);
        assert_eq!(p.target_interval, q.target_interval);
        assert_eq!(p.verified, q.verified);
        assert_eq!(p.ops_rolled_back, q.ops_rolled_back);
        assert!(parsed.recovery().is_some());
        assert_eq!(parsed.outcomes.len(), 1);
    }

    #[test]
    fn concurrent_atomic_writes_leave_one_valid_artifact() {
        use crate::json::write_atomic;
        let dir = std::env::temp_dir().join(format!("revive-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hammered.json");
        // 8 threads × 16 rounds all target the same path with differently
        // sized (all valid) artifacts; the survivor must be one complete
        // artifact, never an interleaving.
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let path = &path;
                scope.spawn(move || {
                    for round in 0..16u64 {
                        let mut meta = test_meta();
                        meta.label = format!("writer-{t}-round-{round}");
                        meta.seed = t * 1000 + round;
                        let text = render_artifact(&meta, &RunResult::default());
                        write_atomic(path, &text).unwrap();
                    }
                });
            }
        });
        let survivor = std::fs::read_to_string(&path).unwrap();
        validate_artifact(&survivor).unwrap();
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "leftover temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validator_catches_missing_sections() {
        assert!(validate_artifact("{}").is_err());
        assert!(validate_artifact(r#"{"schema":"other"}"#).is_err());
    }

    #[test]
    fn serving_section_renders_validates_and_round_trips() {
        use crate::metrics::{ServingReport, ServingWindow, SloLedger};

        let r = RunResult {
            serving: Some(ServingReport {
                admitted: 120,
                completed: 100,
                mean_ns: 850.5,
                max_ns: 90_000,
                p50_ns: 700,
                p90_ns: 1_500,
                p99_ns: 4_000,
                p999_ns: 40_000,
                p9999_ns: 90_000,
                ledger: SloLedger {
                    target_ns: 1_000,
                    budget_ppm: 1_000,
                    window_ns: 1_000_000,
                    good: 80,
                    violations: 20,
                },
                windows: vec![
                    ServingWindow {
                        start_ns: 0,
                        completed: 60,
                        good: 50,
                    },
                    ServingWindow {
                        start_ns: 1_000_000,
                        completed: 40,
                        good: 30,
                    },
                ],
            }),
            ..RunResult::default()
        };
        let text = render_artifact(&test_meta(), &r);
        validate_artifact(&text).unwrap();
        let parsed = parse_run_result(&parse_json(&text).unwrap()).unwrap();
        assert_eq!(parsed.serving, r.serving);
        // A malformed serving section is rejected even though the section
        // itself is optional.
        let broken = text.replace("\"p999_ns\":40000,", "");
        assert!(validate_artifact(&broken).is_err());
        // Batch runs carry no serving section at all, and still validate.
        let batch = render_artifact(&test_meta(), &RunResult::default());
        validate_artifact(&batch).unwrap();
        assert!(!batch.contains("\"serving\":"));
    }

    #[test]
    fn hist_json_lists_nonempty_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(100);
        let s = write_json(&hist_json(&h));
        assert!(s.contains("\"total\":2"));
        assert!(s.contains("[0,1]"));
        assert!(s.contains("[64,1]"));
    }
}
