//! Machine-readable run artifacts.
//!
//! [`render_artifact`] serializes one run — configuration, end-of-run
//! metrics, per-class latency histograms, checkpoint and recovery phase
//! timelines, the per-epoch time series, and the event-trace summary — as a
//! single JSON document with a **fixed key order**, so two identical runs
//! produce byte-identical artifacts (the determinism contract the test
//! suite asserts). The writer is hand-rolled: the repository builds without
//! serde, and a fixed emission order is easier to guarantee by hand anyway.
//!
//! [`validate_artifact`] is the matching checker: a minimal recursive-
//! descent JSON parser plus schema assertions, small enough to run in CI
//! against every emitted artifact.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use revive_sim::stats::Histogram;
use revive_sim::time::Ns;
use revive_sim::trace::escape_json;

use crate::config::ExperimentConfig;
use crate::metrics::{ServingReport, ServingWindow, SloLedger, TrafficClass};
use crate::runner::{ErrorKind, FaultOutcome, InjectionPlan, RecoveryOutcome, RunResult};

/// Identity of a run, embedded in its artifact. Wall-clock facts are
/// deliberately excluded: artifacts must be byte-identical across reruns.
#[derive(Clone, Debug)]
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
    /// than a clean one).
    pub fn with_injections(mut self, plans: &[InjectionPlan]) -> RunMeta {
        self.injections = plans.to_vec();
        if !plans.is_empty() {
            self.config_hash = content_hash_seeded(self.config_hash, &format!("{plans:?}"));
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
/// Current artifact schema version. Version 2 added the mandatory
/// `injections` section; version 3 added `config.config_hash` (the result
/// cache's content address), `result.costs`, and the per-recovery rebuild
/// counters; version 4 added the live-fault fabric counters
/// (`result.retries`, `retry_latency_ns`) and the four fault-fabric trace
/// kinds (msg_drop / watchdog_timeout / retry / reroute) in
/// `trace.counts`; version 5 added the `retry_backoff_capped` trace kind;
/// version 6 added an optional host-dependent `engine` self-profile
/// section, since removed with the sharded engine it profiled (the
/// validator ignores the key in older artifacts); version 7
/// added the mandatory `redundancy` section (backend name, loss budget,
/// storage overhead — the cost/availability axes of DESIGN.md §15);
/// version 8 added the optional `serving` section (request-latency
/// distribution and SLO ledger, present only for open-loop serving runs,
/// DESIGN.md §16) and the per-epoch `requests` completion counter.
/// Earlier versions still validate.
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

/// Writes `text` to `path` atomically: the bytes land in a unique sibling
/// temp file (`<name>.tmp.<pid>.<seq>`) which is then renamed over the
/// target. Readers — and concurrent writers targeting the same path from
/// other threads or processes — observe either the old complete file or
/// the new complete file, never interleaved or truncated bytes.
///
/// # Errors
///
/// Propagates the underlying filesystem errors; on a rename failure the
/// temp file is removed (best effort).
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    let _ = write!(name, ".tmp.{}.{seq}", std::process::id());
    let tmp = path.with_file_name(name);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

fn f64_json(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // `{}` prints integers without a fraction ("1"), which is still a
        // valid JSON number.
        s
    } else {
        "0".to_string()
    }
}

fn hist_json(h: &Histogram) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"total\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
        h.total(),
        h.quantile_upper_bound(0.50),
        h.quantile_upper_bound(0.90),
        h.quantile_upper_bound(0.99),
    );
    let mut first = true;
    for (i, &c) in h.buckets().iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "[{},{}]", Histogram::bucket_lower_bound(i), c);
    }
    out.push_str("]}");
    out
}

fn kind_json(kind: &ErrorKind) -> String {
    let nodes: Vec<String> = kind
        .lost_nodes()
        .iter()
        .map(|n| n.index().to_string())
        .collect();
    format!(
        "{{\"kind\":\"{}\",\"nodes\":[{}]}}",
        kind.name(),
        nodes.join(",")
    )
}

fn plan_json(p: &InjectionPlan) -> String {
    format!(
        "{{\"kind\":{},\"phase\":\"{}\",\"after_checkpoint\":{},\"interval_fraction\":{},\"detection_delay_ns\":{},\"second\":{}}}",
        kind_json(&p.kind),
        p.phase.name(),
        p.after_checkpoint,
        f64_json(p.interval_fraction),
        p.detection_delay.0,
        match &p.second {
            Some(k) => kind_json(k),
            None => "null".into(),
        },
    )
}

fn u64_array(xs: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out.push(']');
    out
}

/// Renders the run artifact JSON (see module docs). The output ends with a
/// newline and has a deterministic byte sequence for a deterministic run.
pub fn render_artifact(meta: &RunMeta, r: &RunResult) -> String {
    let mut o = String::with_capacity(16 * 1024);
    o.push_str("{\n");
    let _ = write!(
        o,
        "\"schema\":\"{ARTIFACT_SCHEMA}\",\n\"version\":{ARTIFACT_VERSION},\n"
    );

    // -- config --
    // `config_hash` is a hex *string*: the validating parser stores numbers
    // as f64, which cannot represent all u64 hash values exactly.
    let _ = writeln!(
        o,
        "\"config\":{{\"label\":\"{}\",\"workload\":\"{}\",\"mode\":\"{}\",\"nodes\":{},\"seed\":{},\"ops_per_cpu\":{},\"interval_ns\":{},\"config_hash\":\"{}\"}},",
        escape_json(&meta.label),
        escape_json(&meta.workload),
        escape_json(&meta.mode),
        meta.nodes,
        meta.seed,
        meta.ops_per_cpu,
        meta.interval_ns,
        meta.config_hash_hex(),
    );

    // -- redundancy: the backend's cost/availability coordinates (v7) --
    let _ = writeln!(
        o,
        "\"redundancy\":{{\"backend\":\"{}\",\"budget\":{},\"storage_overhead\":{}}},",
        escape_json(&meta.mode),
        meta.redundancy_budget,
        meta.storage_overhead,
    );

    // -- injections: the scripted fault scenario (empty for clean runs) --
    let _ = write!(
        o,
        "\"injections\":{{\"campaign_seed\":{},\"plans\":[",
        match meta.campaign_seed {
            Some(s) => s.to_string(),
            None => "null".into(),
        }
    );
    for (i, p) in meta.injections.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&plan_json(p));
    }
    o.push_str("]},\n");

    // -- result: end-of-run scalars --
    let m = &r.metrics;
    let _ = write!(
        o,
        "\"result\":{{\"sim_time_ns\":{},\"events\":{},\"checkpoints\":{},\"early_triggers\":{},\"cpu_ops\":{},\"instructions\":{},\"l1_hits\":{},\"l1_misses\":{},\"l2_hits\":{},\"l2_misses\":{},\"eviction_writebacks\":{},\"nack_retries\":{},\"dram_row_hit_rate\":{},\"mean_net_latency_ns\":{},\"max_log_bytes\":{},",
        r.sim_time.0,
        r.events,
        r.checkpoints,
        r.ckpt.early_triggers,
        m.traffic.cpu_ops,
        m.traffic.instructions,
        m.l1_hits,
        m.l1_misses,
        m.l2_hits,
        m.l2_misses,
        m.eviction_writebacks,
        m.nack_retries,
        f64_json(m.dram_row_hit_rate),
        m.mean_net_latency.0,
        m.max_log_bytes(),
    );
    let _ = write!(
        o,
        "\"costs\":{{\"wb_logged\":{},\"rdx_unlogged\":{},\"wb_unlogged\":{},\"intents_already_logged\":{}}},",
        m.costs.wb_logged,
        m.costs.rdx_unlogged,
        m.costs.wb_unlogged,
        m.costs.intents_already_logged,
    );
    let _ = writeln!(
        o,
        "\"net_bytes\":{},\"net_msgs\":{},\"mem_accesses\":{},\"retries\":{},\"log_high_water\":{}}},",
        u64_array(&m.traffic.net_bytes),
        u64_array(&m.traffic.net_msgs),
        u64_array(&m.traffic.mem_accesses),
        u64_array(&m.traffic.retry_msgs),
        u64_array(&m.log_high_water),
    );

    // -- per-class network latency histograms --
    o.push_str("\"latency_ns\":{");
    for (i, class) in TrafficClass::ALL.into_iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "\"{}\":{}",
            class.name(),
            hist_json(&m.traffic.net_latency[class.index()])
        );
    }
    o.push_str("},\n");

    // -- per-class watchdog retry latency (drop-to-redelivery) --
    o.push_str("\"retry_latency_ns\":{");
    for (i, class) in TrafficClass::ALL.into_iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "\"{}\":{}",
            class.name(),
            hist_json(&m.traffic.retry_latency[class.index()])
        );
    }
    o.push_str("},\n");

    // -- checkpoint phase timelines (Figure 6) --
    o.push_str("\"checkpoints_timeline\":[");
    for (i, t) in r.ckpt.timelines.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "{{\"id\":{},\"lines_flushed\":{},\"duration_ns\":{},\"phases\":[",
            t.id,
            t.lines_flushed,
            t.duration().0
        );
        for (j, (name, start, end)) in t.phases().into_iter().enumerate() {
            if j > 0 {
                o.push(',');
            }
            let _ = write!(
                o,
                "{{\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{}}}",
                start.0, end.0
            );
        }
        o.push_str("]}");
    }
    o.push_str("],\n");

    // -- recovery phase timelines (Figures 7 and 12) --
    o.push_str("\"recoveries\":[");
    for (i, rec) in r.recoveries.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "{{\"target_interval\":{},\"lost_work_ns\":{},\"unavailable_ns\":{},\"ops_rolled_back\":{},\"entries_replayed\":{},\"log_pages_rebuilt\":{},\"pages_rebuilt_on_demand\":{},\"pages_rebuilt_background\":{},\"verified\":{},\"phases\":[",
            rec.target_interval,
            rec.lost_work.0,
            rec.unavailable.0,
            rec.ops_rolled_back,
            rec.report.entries_replayed,
            rec.report.log_pages_rebuilt,
            rec.report.pages_rebuilt_on_demand,
            rec.report.pages_rebuilt_background,
            match rec.verified {
                Some(true) => "true",
                Some(false) => "false",
                None => "null",
            },
        );
        for (j, (name, start, end)) in rec
            .report
            .phases(revive_sim::Ns::ZERO)
            .into_iter()
            .enumerate()
        {
            if j > 0 {
                o.push(',');
            }
            let _ = write!(
                o,
                "{{\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{}}}",
                start.0, end.0
            );
        }
        o.push_str("]}");
    }
    o.push_str("],\n");

    // -- per-epoch time series --
    o.push_str("\"epochs\":[");
    for (i, e) in r.epochs.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "{{\"t_ns\":{},\"net_bytes\":{},\"net_msgs\":{},\"mem_accesses\":{},\"retries\":{},\"ops\":{},\"log_bytes\":{},\"log_utilization_max\":{},\"outstanding_misses\":{},\"dir_busy\":{},\"dram_busy_ns\":{},\"link_busy_ns\":{},\"checkpoints\":{},\"requests\":{}}}",
            e.t.0,
            u64_array(&e.net_bytes),
            u64_array(&e.net_msgs),
            u64_array(&e.mem_accesses),
            u64_array(&e.retries),
            e.ops,
            u64_array(&e.log_bytes),
            f64_json(e.log_utilization_max),
            e.outstanding_misses,
            e.dir_busy,
            e.dram_busy.0,
            e.link_busy.0,
            e.checkpoints,
            e.requests,
        );
    }
    o.push_str("],\n");

    // -- serving: request-latency distribution and SLO ledger (version 8;
    // only for open-loop serving runs) --
    if let Some(s) = &r.serving {
        let _ = write!(
            o,
            "\"serving\":{{\"admitted\":{},\"completed\":{},\"mean_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"p9999_ns\":{},",
            s.admitted,
            s.completed,
            f64_json(s.mean_ns),
            s.max_ns,
            s.p50_ns,
            s.p90_ns,
            s.p99_ns,
            s.p999_ns,
            s.p9999_ns,
        );
        let _ = write!(
            o,
            "\"ledger\":{{\"target_ns\":{},\"budget_ppm\":{},\"window_ns\":{},\"good\":{},\"violations\":{}}},\"windows\":[",
            s.ledger.target_ns,
            s.ledger.budget_ppm,
            s.ledger.window_ns,
            s.ledger.good,
            s.ledger.violations,
        );
        for (i, w) in s.windows.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(
                o,
                "{{\"start_ns\":{},\"completed\":{},\"good\":{}}}",
                w.start_ns, w.completed, w.good
            );
        }
        o.push_str("]},\n");
    }

    // -- event-trace summary --
    let ts = r.trace.summary();
    o.push_str("\"trace\":{\"counts\":{");
    for (i, name) in revive_sim::trace::TraceEvent::KIND_NAMES.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "\"{name}\":{}", ts.counts[i]);
    }
    let _ = writeln!(
        o,
        "}},\"dropped\":{},\"retained\":{}}}",
        ts.dropped, ts.retained
    );
    o.push_str("}\n");
    o
}

// ---------------------------------------------------------------------------
// Minimal JSON parser + schema validation
// ---------------------------------------------------------------------------

/// A parsed JSON value (just enough structure for validation and small
/// tooling; numbers are f64).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (f64; large u64s lose precision, which validation does
    /// not depend on).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("eof"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a position-annotated message on malformed input.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Validates a run artifact against the schema [`render_artifact`] emits.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_artifact(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let need = |key: &str| -> Result<&Json, String> {
        doc.get(key).ok_or_else(|| format!("missing key '{key}'"))
    };
    if need("schema")?.as_str() != Some(ARTIFACT_SCHEMA) {
        return Err(format!("schema is not '{ARTIFACT_SCHEMA}'"));
    }
    let version = need("version")?.as_num().ok_or("version is not a number")?;
    if !(1..=ARTIFACT_VERSION).any(|v| version == v as f64) {
        return Err("unsupported artifact version".into());
    }
    let config = need("config")?;
    for key in ["label", "workload", "mode"] {
        if config.get(key).and_then(Json::as_str).is_none() {
            return Err(format!("config.{key} missing or not a string"));
        }
    }
    for key in ["nodes", "seed", "ops_per_cpu", "interval_ns"] {
        if config.get(key).and_then(Json::as_num).is_none() {
            return Err(format!("config.{key} missing or not a number"));
        }
    }
    // Version 3 content-addresses the artifact: a 16-hex-digit hash of the
    // full configuration, the key the result cache reuses artifacts by.
    if version >= 3.0 {
        let hash = config
            .get("config_hash")
            .and_then(Json::as_str)
            .ok_or("config.config_hash missing or not a string")?;
        if hash.len() != 16 || !hash.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err("config.config_hash is not 16 hex digits".into());
        }
    }
    // Version 7 records the redundancy backend's cost/availability
    // coordinates; earlier artifacts predate pluggable backends.
    if version >= 7.0 {
        let rdx = need("redundancy")?;
        if rdx.get("backend").and_then(Json::as_str).is_none() {
            return Err("redundancy.backend missing or not a string".into());
        }
        for key in ["budget", "storage_overhead"] {
            if rdx.get(key).and_then(Json::as_num).is_none() {
                return Err(format!("redundancy.{key} missing or not a number"));
            }
        }
    }
    // Version 2 records the injection scenario (mandatory, empty for
    // clean runs); version-1 artifacts predate the section.
    if version >= 2.0 {
        let inj = need("injections")?;
        match inj.get("campaign_seed") {
            Some(Json::Null | Json::Num(_)) => {}
            _ => return Err("injections.campaign_seed missing or mistyped".into()),
        }
        let plans = inj
            .get("plans")
            .and_then(Json::as_arr)
            .ok_or("injections.plans missing or not an array")?;
        for p in plans {
            let kind_ok = |k: &Json| {
                k.get("kind").and_then(Json::as_str).is_some()
                    && k.get("nodes")
                        .and_then(Json::as_arr)
                        .is_some_and(|ns| ns.iter().all(|n| n.as_num().is_some()))
            };
            if !p.get("kind").is_some_and(kind_ok) {
                return Err("injection plan lacks a well-formed kind".into());
            }
            if p.get("phase").and_then(Json::as_str).is_none() {
                return Err("injection plan lacks a phase".into());
            }
            for key in [
                "after_checkpoint",
                "interval_fraction",
                "detection_delay_ns",
            ] {
                if p.get(key).and_then(Json::as_num).is_none() {
                    return Err(format!("injection plan lacks {key}"));
                }
            }
            match p.get("second") {
                Some(Json::Null) => {}
                Some(k) if kind_ok(k) => {}
                _ => return Err("injection plan's second fault is mistyped".into()),
            }
        }
    }
    let result = need("result")?;
    for key in [
        "sim_time_ns",
        "events",
        "checkpoints",
        "cpu_ops",
        "instructions",
        "l2_misses",
        "dram_row_hit_rate",
        "mean_net_latency_ns",
    ] {
        if result.get(key).and_then(Json::as_num).is_none() {
            return Err(format!("result.{key} missing or not a number"));
        }
    }
    for key in ["net_bytes", "net_msgs", "mem_accesses"] {
        let arr = result
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("result.{key} missing or not an array"))?;
        if arr.len() != 5 {
            return Err(format!("result.{key} must have 5 traffic classes"));
        }
    }
    if version >= 3.0 {
        let costs = result
            .get("costs")
            .ok_or("result.costs missing (required at version 3)")?;
        for key in [
            "wb_logged",
            "rdx_unlogged",
            "wb_unlogged",
            "intents_already_logged",
        ] {
            if costs.get(key).and_then(Json::as_num).is_none() {
                return Err(format!("result.costs.{key} missing or not a number"));
            }
        }
    }
    let latency = need("latency_ns")?;
    for class in TrafficClass::ALL {
        let h = latency
            .get(class.name())
            .ok_or_else(|| format!("latency_ns missing class '{}'", class.name()))?;
        for key in ["total", "p50", "p90", "p99"] {
            if h.get(key).and_then(Json::as_num).is_none() {
                return Err(format!("latency_ns.{}.{key} missing", class.name()));
            }
        }
        if h.get("buckets").and_then(Json::as_arr).is_none() {
            return Err(format!("latency_ns.{}.buckets missing", class.name()));
        }
    }
    // Version 4 records the fault-fabric watchdog counters: per-class
    // retry counts and the drop-to-redelivery latency histograms.
    if version >= 4.0 {
        let retries = result
            .get("retries")
            .and_then(Json::as_arr)
            .ok_or("result.retries missing (required at version 4)")?;
        if retries.len() != 5 {
            return Err("result.retries must have 5 traffic classes".into());
        }
        let retry = need("retry_latency_ns")?;
        for class in TrafficClass::ALL {
            let h = retry
                .get(class.name())
                .ok_or_else(|| format!("retry_latency_ns missing class '{}'", class.name()))?;
            if h.get("total").and_then(Json::as_num).is_none() {
                return Err(format!("retry_latency_ns.{}.total missing", class.name()));
            }
        }
    }
    for (key, phase_count) in [("checkpoints_timeline", 6), ("recoveries", 4)] {
        let arr = need(key)?
            .as_arr()
            .ok_or_else(|| format!("'{key}' is not an array"))?;
        for entry in arr {
            if key == "recoveries" && version >= 3.0 {
                for field in ["pages_rebuilt_on_demand", "pages_rebuilt_background"] {
                    if entry.get(field).and_then(Json::as_num).is_none() {
                        return Err(format!("recoveries entry lacks {field}"));
                    }
                }
            }
            let phases = entry
                .get("phases")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{key} entry lacks phases"))?;
            if phases.len() != phase_count {
                return Err(format!("{key} entry must have {phase_count} phases"));
            }
            for p in phases {
                let (s, e) = (
                    p.get("start_ns").and_then(Json::as_num),
                    p.get("end_ns").and_then(Json::as_num),
                );
                match (p.get("name").and_then(Json::as_str), s, e) {
                    (Some(_), Some(s), Some(e)) if s <= e => {}
                    _ => return Err(format!("malformed phase span in {key}")),
                }
            }
        }
    }
    let epochs = need("epochs")?
        .as_arr()
        .ok_or_else(|| "'epochs' is not an array".to_string())?;
    let mut prev_t = -1.0;
    for e in epochs {
        let t = e
            .get("t_ns")
            .and_then(Json::as_num)
            .ok_or_else(|| "epoch lacks t_ns".to_string())?;
        if t <= prev_t {
            return Err("epoch timestamps are not strictly increasing".into());
        }
        prev_t = t;
        let epoch_arrays: &[&str] = if version >= 4.0 {
            &["net_bytes", "net_msgs", "mem_accesses", "retries"]
        } else {
            &["net_bytes", "net_msgs", "mem_accesses"]
        };
        for key in epoch_arrays {
            let arr = e
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("epoch lacks {key}"))?;
            if arr.len() != 5 {
                return Err(format!("epoch {key} must have 5 traffic classes"));
            }
        }
        if version >= 8.0 && e.get("requests").and_then(Json::as_num).is_none() {
            return Err("epoch lacks requests (required at version 8)".into());
        }
    }
    // The serving section (version 8) is optional at every version — it
    // exists only for open-loop serving runs — but must be well-formed
    // when present.
    if let Some(serving) = doc.get("serving") {
        for key in [
            "admitted",
            "completed",
            "mean_ns",
            "max_ns",
            "p50_ns",
            "p90_ns",
            "p99_ns",
            "p999_ns",
            "p9999_ns",
        ] {
            if serving.get(key).and_then(Json::as_num).is_none() {
                return Err(format!("serving.{key} missing or not a number"));
            }
        }
        let ledger = serving.get("ledger").ok_or("serving.ledger missing")?;
        for key in ["target_ns", "budget_ppm", "window_ns", "good", "violations"] {
            if ledger.get(key).and_then(Json::as_num).is_none() {
                return Err(format!("serving.ledger.{key} missing or not a number"));
            }
        }
        let windows = serving
            .get("windows")
            .and_then(Json::as_arr)
            .ok_or("serving.windows missing or not an array")?;
        for w in windows {
            for key in ["start_ns", "completed", "good"] {
                if w.get(key).and_then(Json::as_num).is_none() {
                    return Err(format!("serving window lacks {key}"));
                }
            }
        }
    }
    let trace = need("trace")?;
    let counts = trace
        .get("counts")
        .ok_or_else(|| "trace.counts missing".to_string())?;
    // The four fault-fabric kinds (msg_drop / watchdog_timeout / retry /
    // reroute) were added at version 4; older artifacts only carry the
    // legacy kinds.
    let required_kinds = if version >= 5.0 {
        revive_sim::trace::TraceEvent::KIND_NAMES.len()
    } else if version >= 4.0 {
        revive_sim::trace::TraceEvent::V4_KIND_COUNT
    } else {
        revive_sim::trace::TraceEvent::LEGACY_KIND_COUNT
    };
    for name in &revive_sim::trace::TraceEvent::KIND_NAMES[..required_kinds] {
        if counts.get(name).and_then(Json::as_num).is_none() {
            return Err(format!("trace.counts.{name} missing"));
        }
    }
    for key in ["dropped", "retained"] {
        if trace.get(key).and_then(Json::as_num).is_none() {
            return Err(format!("trace.{key} missing"));
        }
    }
    Ok(())
}

/// The schema tag of the frontier document emitted by the `frontier`
/// binary (one document summarizing every backend × shape bucket, distinct
/// from the per-run [`ARTIFACT_SCHEMA`] artifacts).
pub const FRONTIER_SCHEMA: &str = "revive-frontier";

/// Structural validation for the cost/availability frontier document: one
/// point per redundancy backend × machine shape, each carrying the
/// backend's cost coordinates (storage overhead, redundancy-update
/// traffic, checkpoint latency) and its measured availability under the
/// live-fault campaign. All three backends must be covered or the
/// frontier is incomplete by construction.
pub fn validate_frontier_artifact(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let need = |key: &str| -> Result<&Json, String> {
        doc.get(key).ok_or_else(|| format!("missing key '{key}'"))
    };
    if need("schema")?.as_str() != Some(FRONTIER_SCHEMA) {
        return Err(format!("schema is not '{FRONTIER_SCHEMA}'"));
    }
    if need("version")?.as_num() != Some(ARTIFACT_VERSION as f64) {
        return Err("unsupported frontier version".into());
    }
    let seeds = need("seeds_per_point")?
        .as_num()
        .ok_or("seeds_per_point is not a number")?;
    if seeds < 1.0 {
        return Err("seeds_per_point must be at least 1".into());
    }
    let points = need("points")?.as_arr().ok_or("'points' is not an array")?;
    if points.is_empty() {
        return Err("frontier has no points".into());
    }
    let mut backends_seen: Vec<&str> = Vec::new();
    for p in points {
        let backend = p
            .get("backend")
            .and_then(Json::as_str)
            .ok_or("point lacks a backend name")?;
        if !backends_seen.contains(&backend) {
            backends_seen.push(backend);
        }
        if p.get("mode").and_then(Json::as_str).is_none() {
            return Err(format!("point '{backend}' lacks a mode name"));
        }
        for key in ["nodes", "group_data_pages", "budget"] {
            let v = p
                .get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("point '{backend}' lacks {key}"))?;
            if v < 0.0 || (key != "budget" && v < 1.0) {
                return Err(format!("point '{backend}' has nonsensical {key}"));
            }
        }
        let overhead = p
            .get("storage_overhead")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("point '{backend}' lacks storage_overhead"))?;
        if !(0.0..=8.0).contains(&overhead) {
            return Err(format!("point '{backend}' storage_overhead out of range"));
        }
        let clean = p
            .get("clean")
            .ok_or_else(|| format!("point '{backend}' lacks the clean-run section"))?;
        for key in [
            "sim_time_ns",
            "checkpoints",
            "ckpt_mean_ns",
            "ckpt_max_ns",
            "rdx_net_bytes",
            "rdx_net_msgs",
            "rdx_mem_accesses",
        ] {
            if clean.get(key).and_then(Json::as_num).is_none() {
                return Err(format!("point '{backend}' clean.{key} missing"));
            }
        }
        let faults = p
            .get("faults")
            .ok_or_else(|| format!("point '{backend}' lacks the faults section"))?;
        let mut parts = [0.0; 3];
        for (i, key) in ["recovered", "unrecoverable", "not_fired"]
            .iter()
            .enumerate()
        {
            parts[i] = faults
                .get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("point '{backend}' faults.{key} missing"))?;
        }
        let scenarios = faults
            .get("scenarios")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("point '{backend}' faults.scenarios missing"))?;
        if parts.iter().sum::<f64>() != scenarios {
            return Err(format!(
                "point '{backend}' fault tallies do not sum to scenarios"
            ));
        }
        let avail = faults
            .get("availability")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("point '{backend}' faults.availability missing"))?;
        if !(0.0..=1.0).contains(&avail) {
            return Err(format!("point '{backend}' availability out of [0,1]"));
        }
        if faults
            .get("unavailable_mean_ns")
            .and_then(Json::as_num)
            .is_none()
        {
            return Err(format!(
                "point '{backend}' faults.unavailable_mean_ns missing"
            ));
        }
    }
    for want in ["xor", "double-parity", "replication"] {
        if !backends_seen.contains(&want) {
            return Err(format!("frontier does not cover backend '{want}'"));
        }
    }
    Ok(())
}

/// The schema tag of the SLO sweep document emitted by the `slo` binary:
/// one document summarizing every arrival-rate × backend × checkpoint-
/// interval point, each carrying a fault-free and a live-fault serving
/// profile (distinct from the per-run [`ARTIFACT_SCHEMA`] artifacts).
pub const SLO_SCHEMA: &str = "revive-slo";

/// Structural validation for the SLO sweep document. Each point must carry
/// the sweep coordinates, a `clean` (fault-free) serving profile, and a
/// `faulted` profile with availability accounting; latency quantiles must
/// be monotone (p50 ≤ p99 ≤ p99.9 — guaranteed by construction from the
/// tail histogram, so a violation means the document was not produced by
/// the pipeline).
pub fn validate_slo_artifact(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let need = |key: &str| -> Result<&Json, String> {
        doc.get(key).ok_or_else(|| format!("missing key '{key}'"))
    };
    if need("schema")?.as_str() != Some(SLO_SCHEMA) {
        return Err(format!("schema is not '{SLO_SCHEMA}'"));
    }
    if need("version")?.as_num() != Some(ARTIFACT_VERSION as f64) {
        return Err("unsupported slo document version".into());
    }
    let slo = need("slo")?;
    for key in ["target_ns", "budget_ppm", "window_ns"] {
        let v = slo
            .get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("slo.{key} missing or not a number"))?;
        if key != "budget_ppm" && v < 1.0 {
            return Err(format!("slo.{key} must be positive"));
        }
    }
    let points = need("points")?.as_arr().ok_or("'points' is not an array")?;
    if points.is_empty() {
        return Err("slo sweep has no points".into());
    }
    for p in points {
        let backend = p
            .get("backend")
            .and_then(Json::as_str)
            .ok_or("point lacks a backend name")?;
        if p.get("arrival").and_then(Json::as_str).is_none() {
            return Err(format!("point '{backend}' lacks an arrival-process name"));
        }
        let rate = p
            .get("rate_rps")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("point '{backend}' lacks rate_rps"))?;
        if rate <= 0.0 {
            return Err(format!("point '{backend}' rate_rps must be positive"));
        }
        if p.get("interval_ns").and_then(Json::as_num).is_none() {
            return Err(format!("point '{backend}' lacks interval_ns"));
        }
        for section in ["clean", "faulted"] {
            let s = p
                .get(section)
                .ok_or_else(|| format!("point '{backend}' lacks the {section} section"))?;
            for key in [
                "sim_time_ns",
                "admitted",
                "completed",
                "goodput_rps",
                "mean_ns",
                "p50_ns",
                "p90_ns",
                "p99_ns",
                "p999_ns",
                "p9999_ns",
                "max_ns",
                "budget_burn",
            ] {
                if s.get(key).and_then(Json::as_num).is_none() {
                    return Err(format!("point '{backend}' {section}.{key} missing"));
                }
            }
            let q = |key: &str| s.get(key).and_then(Json::as_num).unwrap_or(0.0);
            if !(q("p50_ns") <= q("p99_ns") && q("p99_ns") <= q("p999_ns")) {
                return Err(format!(
                    "point '{backend}' {section} latency quantiles are not monotone"
                ));
            }
            let admitted = q("admitted");
            if q("completed") > admitted {
                return Err(format!(
                    "point '{backend}' {section} completed more requests than admitted"
                ));
            }
        }
        let faulted = p.get("faulted").expect("checked above");
        for key in ["faults", "recovered", "unrecoverable", "downtime_ns"] {
            if faulted.get(key).and_then(Json::as_num).is_none() {
                return Err(format!("point '{backend}' faulted.{key} missing"));
            }
        }
        let avail = faulted
            .get("availability")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("point '{backend}' faulted.availability missing"))?;
        if !(0.0..=1.0).contains(&avail) {
            return Err(format!("point '{backend}' availability out of [0,1]"));
        }
        for key in ["mtbf_ns", "mttr_ns"] {
            match faulted.get(key) {
                Some(Json::Null | Json::Num(_)) => {}
                _ => return Err(format!("point '{backend}' faulted.{key} mistyped")),
            }
        }
    }
    Ok(())
}

/// The content hash recorded in a parsed artifact document (`None` for
/// pre-version-3 artifacts, which predate content addressing).
pub fn artifact_config_hash(doc: &Json) -> Option<&str> {
    doc.get("config")?.get("config_hash")?.as_str()
}

/// Reconstructs a [`RunResult`] from a parsed artifact document — the
/// result cache's read path: a valid artifact whose `config_hash` matches
/// the configuration about to run stands in for re-executing it.
///
/// Only the fields the experiment binaries consume round-trip: end-of-run
/// scalars, the traffic/cost summary, the serving report when present, and
/// the recovery outcomes (with phase
/// durations rebuilt from the recorded spans). Latency histograms, the
/// checkpoint timelines, epochs, and the event trace are left empty —
/// binaries that render those (fig6/fig7, trace tooling) bypass the cache.
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field. Callers
/// should validate with [`validate_artifact`] first; this parser only
/// guards the fields it reads.
pub fn parse_run_result(doc: &Json) -> Result<RunResult, String> {
    let num = |obj: &Json, section: &str, key: &str| -> Result<f64, String> {
        obj.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("{section}.{key} missing or not a number"))
    };
    let int = |obj: &Json, section: &str, key: &str| -> Result<u64, String> {
        num(obj, section, key).map(|v| v as u64)
    };
    let five = |obj: &Json, section: &str, key: &str| -> Result<[u64; 5], String> {
        let arr = obj
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{section}.{key} missing or not an array"))?;
        if arr.len() != 5 {
            return Err(format!("{section}.{key} must have 5 entries"));
        }
        let mut out = [0u64; 5];
        for (slot, v) in out.iter_mut().zip(arr) {
            *slot = v
                .as_num()
                .ok_or_else(|| format!("{section}.{key} entry is not a number"))?
                as u64;
        }
        Ok(out)
    };

    let result = doc.get("result").ok_or("missing 'result' section")?;
    let mut out = RunResult {
        sim_time: Ns(int(result, "result", "sim_time_ns")?),
        events: int(result, "result", "events")?,
        checkpoints: int(result, "result", "checkpoints")?,
        ..RunResult::default()
    };
    out.ckpt.early_triggers = int(result, "result", "early_triggers")?;

    let m = &mut out.metrics;
    m.traffic.cpu_ops = int(result, "result", "cpu_ops")?;
    m.traffic.instructions = int(result, "result", "instructions")?;
    m.traffic.net_bytes = five(result, "result", "net_bytes")?;
    m.traffic.net_msgs = five(result, "result", "net_msgs")?;
    m.traffic.mem_accesses = five(result, "result", "mem_accesses")?;
    m.l1_hits = int(result, "result", "l1_hits")?;
    m.l1_misses = int(result, "result", "l1_misses")?;
    m.l2_hits = int(result, "result", "l2_hits")?;
    m.l2_misses = int(result, "result", "l2_misses")?;
    m.eviction_writebacks = int(result, "result", "eviction_writebacks")?;
    m.nack_retries = int(result, "result", "nack_retries")?;
    m.dram_row_hit_rate = num(result, "result", "dram_row_hit_rate")?;
    m.mean_net_latency = Ns(int(result, "result", "mean_net_latency_ns")?);
    m.log_high_water = result
        .get("log_high_water")
        .and_then(Json::as_arr)
        .ok_or("result.log_high_water missing or not an array")?
        .iter()
        .map(|v| {
            v.as_num()
                .map(|n| n as u64)
                .ok_or_else(|| "result.log_high_water entry is not a number".to_string())
        })
        .collect::<Result<Vec<u64>, String>>()?;
    if result.get("retries").is_some() {
        m.traffic.retry_msgs = five(result, "result", "retries")?;
    }
    if let Some(costs) = result.get("costs") {
        m.costs.wb_logged = int(costs, "result.costs", "wb_logged")?;
        m.costs.rdx_unlogged = int(costs, "result.costs", "rdx_unlogged")?;
        m.costs.wb_unlogged = int(costs, "result.costs", "wb_unlogged")?;
        m.costs.intents_already_logged = int(costs, "result.costs", "intents_already_logged")?;
    }

    let recoveries = doc
        .get("recoveries")
        .and_then(Json::as_arr)
        .ok_or("'recoveries' missing or not an array")?;
    for rec in recoveries {
        let phases = rec
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or("recoveries entry lacks phases")?;
        if phases.len() != 4 {
            return Err("recoveries entry must have 4 phases".into());
        }
        let mut durations = [Ns::ZERO; 4];
        for (slot, p) in durations.iter_mut().zip(phases) {
            let start = int(p, "recovery phase", "start_ns")?;
            let end = int(p, "recovery phase", "end_ns")?;
            *slot = Ns(end.saturating_sub(start));
        }
        let outcome = RecoveryOutcome {
            report: revive_core::recovery::RecoveryReport {
                phase1: durations[0],
                phase2: durations[1],
                phase3: durations[2],
                phase4: durations[3],
                log_pages_rebuilt: int(rec, "recoveries", "log_pages_rebuilt")?,
                pages_rebuilt_on_demand: rec
                    .get("pages_rebuilt_on_demand")
                    .and_then(Json::as_num)
                    .unwrap_or(0.0) as u64,
                entries_replayed: int(rec, "recoveries", "entries_replayed")?,
                pages_rebuilt_background: rec
                    .get("pages_rebuilt_background")
                    .and_then(Json::as_num)
                    .unwrap_or(0.0) as u64,
            },
            lost_work: Ns(int(rec, "recoveries", "lost_work_ns")?),
            unavailable: Ns(int(rec, "recoveries", "unavailable_ns")?),
            target_interval: int(rec, "recoveries", "target_interval")?,
            verified: match rec.get("verified") {
                Some(Json::Bool(b)) => Some(*b),
                Some(Json::Null) | None => None,
                _ => return Err("recoveries.verified is mistyped".into()),
            },
            ops_rolled_back: int(rec, "recoveries", "ops_rolled_back")?,
        };
        out.outcomes.push(FaultOutcome::Recovered(outcome));
        out.recoveries.push(outcome);
    }
    out.recovery = out.recoveries.last().copied();

    if let Some(s) = doc.get("serving") {
        let ledger = s.get("ledger").ok_or("serving.ledger missing")?;
        let windows = s
            .get("windows")
            .and_then(Json::as_arr)
            .ok_or("serving.windows missing or not an array")?
            .iter()
            .map(|w| {
                Ok(ServingWindow {
                    start_ns: int(w, "serving window", "start_ns")?,
                    completed: int(w, "serving window", "completed")?,
                    good: int(w, "serving window", "good")?,
                })
            })
            .collect::<Result<Vec<ServingWindow>, String>>()?;
        out.serving = Some(ServingReport {
            admitted: int(s, "serving", "admitted")?,
            completed: int(s, "serving", "completed")?,
            mean_ns: num(s, "serving", "mean_ns")?,
            max_ns: int(s, "serving", "max_ns")?,
            p50_ns: int(s, "serving", "p50_ns")?,
            p90_ns: int(s, "serving", "p90_ns")?,
            p99_ns: int(s, "serving", "p99_ns")?,
            p999_ns: int(s, "serving", "p999_ns")?,
            p9999_ns: int(s, "serving", "p9999_ns")?,
            ledger: SloLedger {
                target_ns: int(ledger, "serving.ledger", "target_ns")?,
                budget_ppm: int(ledger, "serving.ledger", "budget_ppm")? as u32,
                window_ns: int(ledger, "serving.ledger", "window_ns")?,
                good: int(ledger, "serving.ledger", "good")?,
                violations: int(ledger, "serving.ledger", "violations")?,
            },
            windows,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_basic_values() {
        let doc = parse_json(r#"{"a":1,"b":[true,null,"x\n"],"c":{"d":-2.5e1}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_num(), Some(1.0));
        let b = doc.get("b").unwrap().as_arr().unwrap();
        assert_eq!(b[0], Json::Bool(true));
        assert_eq!(b[1], Json::Null);
        assert_eq!(b[2].as_str(), Some("x\n"));
        assert_eq!(
            doc.get("c").unwrap().get("d").unwrap().as_num(),
            Some(-25.0)
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("nulll").is_err());
    }

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
                kind: ErrorKind::MultiNodeLoss(NodeSet::from_nodes(&[NodeId(1), NodeId(2)])),
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
            Some(&[Json::Num(1.0), Json::Num(2.0)][..])
        );
        assert_eq!(
            first.get("second").unwrap().get("kind").unwrap().as_str(),
            Some("cache-wipe")
        );
        assert_eq!(rendered[1].get("second"), Some(&Json::Null));
    }

    #[test]
    fn older_artifact_versions_still_validate() {
        let text = render_artifact(&test_meta(), &RunResult::default());
        // A v1 artifact predates both injections and content addressing.
        let v1 = text.replace("\"version\":8,", "\"version\":1,");
        validate_artifact(&v1).unwrap();
        // A v2 artifact predates content addressing only.
        let v2 = text
            .replace("\"version\":8,", "\"version\":2,")
            .replace(",\"config_hash\":\"0123456789abcdef\"", "");
        validate_artifact(&v2).unwrap();
        // A v3 artifact predates the fault-fabric counters: neither the
        // retry sections nor the new trace kinds are required.
        let v3 = text
            .replace("\"version\":8,", "\"version\":3,")
            .replace(",\"retries\":[0,0,0,0,0]", "");
        validate_artifact(&v3).unwrap();
        // A v4 artifact predates the retry_backoff_capped trace kind.
        let v4 = text
            .replace("\"version\":8,", "\"version\":4,")
            .replace(",\"retry_backoff_capped\":0", "");
        validate_artifact(&v4).unwrap();
        // A v5 artifact differs from v6 only by the optional engine
        // section: the plain downgrade validates as-is.
        let v5 = text.replace("\"version\":8,", "\"version\":5,");
        validate_artifact(&v5).unwrap();
        // A v6 artifact predates the redundancy section.
        let v6: String = text
            .replace("\"version\":8,", "\"version\":6,")
            .lines()
            .filter(|l| !l.starts_with("\"redundancy\""))
            .map(|l| format!("{l}\n"))
            .collect();
        validate_artifact(&v6).unwrap();
        // A v7 artifact predates the serving section (optional at every
        // version anyway) and the per-epoch request counter: the plain
        // downgrade validates as-is.
        let v7 = text.replace("\"version\":8,", "\"version\":7,");
        validate_artifact(&v7).unwrap();
        // ...but a v7 artifact must carry it.
        let no_rdx: String = text
            .lines()
            .filter(|l| !l.starts_with("\"redundancy\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_artifact(&no_rdx).is_err());
        // ...and a v4 artifact must carry the retry counters.
        let no_retries = text.replace(",\"retries\":[0,0,0,0,0]", "");
        assert!(validate_artifact(&no_retries).is_err());
        // But a v2+ artifact must carry the injections section...
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with("\"injections\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_artifact(&stripped).is_err());
        // ...and a v3 artifact must carry a well-formed content address.
        let no_hash = text.replace(",\"config_hash\":\"0123456789abcdef\"", "");
        assert!(validate_artifact(&no_hash).is_err());
        let bad_hash = text.replace("0123456789abcdef", "not-hex!!");
        assert!(validate_artifact(&bad_hash).is_err());
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
        r.recovery = Some(rec);

        let text = render_artifact(&test_meta(), &r);
        validate_artifact(&text).unwrap();
        let parsed = parse_run_result(&parse_json(&text).unwrap()).unwrap();

        assert_eq!(parsed.sim_time, r.sim_time);
        assert_eq!(parsed.events, r.events);
        assert_eq!(parsed.checkpoints, r.checkpoints);
        assert_eq!(parsed.ckpt.early_triggers, r.ckpt.early_triggers);
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
        assert!(parsed.recovery.is_some());
        assert_eq!(parsed.outcomes.len(), 1);
    }

    #[test]
    fn concurrent_atomic_writes_leave_one_valid_artifact() {
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

    fn frontier_point(backend: &str, recovered: u32, unrecoverable: u32) -> String {
        format!(
            r#"{{"backend":"{backend}","mode":"{backend}","nodes":4,
               "group_data_pages":3,"budget":1,"storage_overhead":0.25,
               "clean":{{"sim_time_ns":1000,"checkpoints":3,"ckpt_mean_ns":10,
                        "ckpt_max_ns":20,"rdx_net_bytes":4096,"rdx_net_msgs":8,
                        "rdx_mem_accesses":16}},
               "faults":{{"scenarios":{scenarios},"recovered":{recovered},
                         "unrecoverable":{unrecoverable},"not_fired":1,
                         "availability":0.5,"unavailable_mean_ns":100}}}}"#,
            scenarios = recovered + unrecoverable + 1,
        )
    }

    fn frontier_doc(points: &[String]) -> String {
        format!(
            r#"{{"schema":"{FRONTIER_SCHEMA}","version":{ARTIFACT_VERSION},
               "seeds_per_point":4,"points":[{}]}}"#,
            points.join(",")
        )
    }

    #[test]
    fn frontier_validator_accepts_a_full_matrix_and_rejects_holes() {
        let full = frontier_doc(&[
            frontier_point("xor", 2, 1),
            frontier_point("double-parity", 3, 0),
            frontier_point("replication", 3, 0),
        ]);
        validate_frontier_artifact(&full).unwrap();

        // A frontier that never exercised one of the backends is not a
        // frontier: the CI matrix must cover all three.
        let partial = frontier_doc(&[frontier_point("xor", 2, 1)]);
        let err = validate_frontier_artifact(&partial).unwrap_err();
        assert!(err.contains("double-parity"), "got: {err}");

        // Outcome tallies must account for every scenario exactly.
        let skewed = full.replace("\"recovered\":2", "\"recovered\":4");
        let err = validate_frontier_artifact(&skewed).unwrap_err();
        assert!(err.contains("sum to scenarios"), "got: {err}");

        // Availability is a probability.
        let bad_avail = full.replace("\"availability\":0.5", "\"availability\":1.5");
        assert!(validate_frontier_artifact(&bad_avail).is_err());

        // Version drift and schema mix-ups fail loudly.
        assert!(validate_frontier_artifact("{}").is_err());
        let wrong_schema = full.replace(FRONTIER_SCHEMA, ARTIFACT_SCHEMA);
        assert!(validate_frontier_artifact(&wrong_schema).is_err());
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

    fn slo_point(backend: &str) -> String {
        format!(
            r#"{{"backend":"{backend}","arrival":"open-poisson","rate_rps":50000,
               "interval_ns":2000000,
               "clean":{{"sim_time_ns":1000000,"admitted":50,"completed":48,
                        "goodput_rps":48000,"mean_ns":900,"p50_ns":700,
                        "p90_ns":1500,"p99_ns":4000,"p999_ns":9000,
                        "p9999_ns":9000,"max_ns":8000,"budget_burn":0.5}},
               "faulted":{{"sim_time_ns":1200000,"admitted":50,"completed":47,
                          "goodput_rps":39000,"mean_ns":1500,"p50_ns":800,
                          "p90_ns":2000,"p99_ns":90000,"p999_ns":200000,
                          "p9999_ns":200000,"max_ns":180000,"budget_burn":20.0,
                          "faults":2,"recovered":2,"unrecoverable":0,
                          "availability":0.9,"downtime_ns":120000,
                          "mtbf_ns":600000,"mttr_ns":60000}}}}"#,
        )
    }

    #[test]
    fn slo_validator_accepts_the_sweep_and_rejects_malformed_points() {
        let doc = format!(
            r#"{{"schema":"{SLO_SCHEMA}","version":{ARTIFACT_VERSION},
               "slo":{{"target_ns":1000,"budget_ppm":1000,"window_ns":1000000}},
               "points":[{},{}]}}"#,
            slo_point("xor"),
            slo_point("replication"),
        );
        validate_slo_artifact(&doc).unwrap();

        // Quantiles out of order mean the document was hand-edited.
        let skewed = doc.replace("\"p99_ns\":4000", "\"p99_ns\":400");
        let err = validate_slo_artifact(&skewed).unwrap_err();
        assert!(err.contains("monotone"), "got: {err}");

        // Completions cannot exceed admissions.
        let overfull = doc.replace("\"completed\":48", "\"completed\":51");
        assert!(validate_slo_artifact(&overfull).is_err());

        // Availability is a probability.
        let bad = doc.replace("\"availability\":0.9", "\"availability\":1.9");
        assert!(validate_slo_artifact(&bad).is_err());

        // Unfired-fault points may carry null MTBF/MTTR.
        let null_mtbf = doc
            .replace("\"mtbf_ns\":600000", "\"mtbf_ns\":null")
            .replace("\"mttr_ns\":60000", "\"mttr_ns\":null");
        validate_slo_artifact(&null_mtbf).unwrap();

        // Schema mix-ups and version drift fail loudly.
        assert!(validate_slo_artifact("{}").is_err());
        let wrong_schema = doc.replace(SLO_SCHEMA, FRONTIER_SCHEMA);
        assert!(validate_slo_artifact(&wrong_schema).is_err());
        let drifted = doc.replace(&format!("\"version\":{ARTIFACT_VERSION}"), "\"version\":1");
        assert!(validate_slo_artifact(&drifted).is_err());
    }

    #[test]
    fn hist_json_lists_nonempty_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(100);
        let s = hist_json(&h);
        assert!(s.contains("\"total\":2"));
        assert!(s.contains("[0,1]"));
        assert!(s.contains("[64,1]"));
    }
}
