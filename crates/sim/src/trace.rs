//! Typed event tracing.
//!
//! The paper's evaluation is built from *time-resolved* views of the
//! machine — which phase a checkpoint is in, when a NACK storm hits, when a
//! log wraps — not just end-of-run counters. This module provides the
//! substrate: a bounded ring buffer of timestamped [`TraceEvent`]s plus
//! sinks that render the buffer as JSON Lines or as the Chrome
//! `trace_event` format (load the file in `chrome://tracing` or Perfetto).
//!
//! Tracing is **off by default**. A disabled [`TraceBuffer`] rejects events
//! with a single branch on an inline-able boolean, so the simulator's hot
//! paths pay nothing when nobody is watching. When enabled, the ring bound
//! caps memory: the oldest events are dropped (and counted) once the buffer
//! is full.
//!
//! # Example
//!
//! ```
//! use revive_sim::time::Ns;
//! use revive_sim::trace::{TraceBuffer, TraceEvent};
//!
//! let mut buf = TraceBuffer::enabled(2);
//! buf.record(Ns(10), TraceEvent::Nack { node: 0, line: 7 });
//! buf.record(Ns(20), TraceEvent::LogWrap { node: 1 });
//! buf.record(Ns(30), TraceEvent::Nack { node: 2, line: 9 }); // evicts t=10
//! assert_eq!(buf.len(), 2);
//! assert_eq!(buf.dropped(), 1);
//! ```

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::time::Ns;

/// One traced occurrence inside the machine.
///
/// The taxonomy follows the subsystems the paper's figures decompose:
/// coherence transactions (Figures 9–10 traffic), checkpoint two-phase
/// commit (Figure 6), recovery phases (Figures 7 and 12), and the log /
/// NACK pathologies that shape both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A coherence request arrived at its home directory.
    CoherenceStart {
        /// Home node handling the transaction.
        node: u16,
        /// Global line address.
        line: u64,
        /// Whether the request asked for exclusive ownership.
        exclusive: bool,
    },
    /// A directory transaction finished (reply or write-back absorbed).
    CoherenceEnd {
        /// Home node that handled the transaction.
        node: u16,
        /// Global line address.
        line: u64,
    },
    /// A request was NACKed at a busy directory entry (retry storms show up
    /// as dense runs of these).
    Nack {
        /// Requesting node that received the NACK.
        node: u16,
        /// Global line address.
        line: u64,
    },
    /// A checkpoint-establishment phase boundary (the Figure 6 sequence).
    CkptPhase {
        /// Checkpoint sequence number being established.
        id: u64,
        /// Which boundary.
        phase: CkptPhaseEvent,
    },
    /// A recovery phase completed (durations come from the bandwidth
    /// model, so the event carries its own duration).
    RecoveryPhase {
        /// Phase number, 1–4 (Figure 7).
        phase: u8,
        /// Modeled duration of the phase.
        duration: Ns,
    },
    /// A node's log wrapped / recycled its oldest records (infinite-interval
    /// configurations recycle instead of committing).
    LogWrap {
        /// Node whose log wrapped.
        node: u16,
    },
    /// A node's log passed the early-checkpoint utilization trigger.
    EarlyCkptTrigger {
        /// Node whose log forced the trigger.
        node: u16,
    },
    /// An armed fault struck (once per strike, commit edges included).
    Inject,
    /// A message was dropped because its path crossed a dead router or
    /// link (or an endpoint died with it in flight).
    MsgDrop {
        /// Sending node.
        src: u16,
        /// Intended destination.
        dst: u16,
    },
    /// A transaction watchdog expired: a retry attempt found its target
    /// still unreachable (one strike against that node).
    WatchdogTimeout {
        /// The unresponsive target node.
        dst: u16,
        /// Which attempt struck out (0-based).
        attempt: u8,
    },
    /// A dropped message was re-sent after backoff and made it back onto
    /// the fabric.
    Retry {
        /// Destination the retry reached.
        dst: u16,
        /// Which attempt succeeded (0-based).
        attempt: u8,
    },
    /// A send abandoned the dimension-order path for a BFS detour around
    /// dead components.
    Reroute {
        /// Sending node.
        src: u16,
        /// Destination node.
        dst: u16,
    },
    /// A retry's exponential backoff hit the configured doubling cap
    /// (`watchdog_backoff_cap`): the delay stopped growing. Dense runs of
    /// these mean a target has been unreachable for a very long time.
    RetryBackoffCapped {
        /// The unreachable destination node.
        dst: u16,
        /// Which attempt first saturated (0-based, clamped to 255).
        attempt: u8,
    },
}

/// Which Figure-6 boundary a [`TraceEvent::CkptPhase`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CkptPhaseEvent {
    /// The checkpoint timer fired; interrupts are being delivered.
    Started,
    /// Contexts saved; the dirty-line flush began.
    FlushStarted,
    /// The last flush write-back was acknowledged.
    FlushDone,
    /// Every log carries the commit marker.
    Marked,
    /// The second barrier completed — the commit point.
    Committed,
}

impl CkptPhaseEvent {
    /// Stable lower-case name used in trace output.
    pub fn name(self) -> &'static str {
        match self {
            CkptPhaseEvent::Started => "started",
            CkptPhaseEvent::FlushStarted => "flush_started",
            CkptPhaseEvent::FlushDone => "flush_done",
            CkptPhaseEvent::Marked => "marked",
            CkptPhaseEvent::Committed => "committed",
        }
    }
}

impl TraceEvent {
    /// Stable kind name (the `name` field of Chrome trace events and the
    /// `kind` field of JSONL records).
    pub fn kind(&self) -> &'static str {
        Self::KIND_NAMES[self.kind_index()]
    }

    /// Dense index for per-kind counting: the position of the event's
    /// [`kind`](Self::kind) in [`Self::KIND_NAMES`].
    pub fn kind_index(&self) -> usize {
        match self {
            TraceEvent::CoherenceStart { .. } => 0,
            TraceEvent::CoherenceEnd { .. } => 1,
            TraceEvent::Nack { .. } => 2,
            TraceEvent::CkptPhase { .. } => 3,
            TraceEvent::RecoveryPhase { .. } => 4,
            TraceEvent::LogWrap { .. } => 5,
            TraceEvent::EarlyCkptTrigger { .. } => 6,
            TraceEvent::Inject => 7,
            TraceEvent::MsgDrop { .. } => 8,
            TraceEvent::WatchdogTimeout { .. } => 9,
            TraceEvent::Retry { .. } => 10,
            TraceEvent::Reroute { .. } => 11,
            TraceEvent::RetryBackoffCapped { .. } => 12,
        }
    }

    /// Kind names in `kind_index` order.
    pub const KIND_NAMES: [&'static str; 13] = [
        "coh_start",
        "coh_end",
        "nack",
        "ckpt_phase",
        "recovery_phase",
        "log_wrap",
        "early_ckpt_trigger",
        "inject",
        "msg_drop",
        "watchdog_timeout",
        "retry",
        "reroute",
        "retry_backoff_capped",
    ];

    /// Writes the event's payload as JSON object *members* (no braces),
    /// e.g. `"node":3,"line":42`. Hand-rolled: the repository builds
    /// without serde.
    fn write_args(&self, out: &mut String) {
        match self {
            TraceEvent::CoherenceStart {
                node,
                line,
                exclusive,
            } => {
                let _ = write!(
                    out,
                    "\"node\":{node},\"line\":{line},\"exclusive\":{exclusive}"
                );
            }
            TraceEvent::CoherenceEnd { node, line } => {
                let _ = write!(out, "\"node\":{node},\"line\":{line}");
            }
            TraceEvent::Nack { node, line } => {
                let _ = write!(out, "\"node\":{node},\"line\":{line}");
            }
            TraceEvent::CkptPhase { id, phase } => {
                let _ = write!(out, "\"id\":{id},\"phase\":\"{}\"", phase.name());
            }
            TraceEvent::RecoveryPhase { phase, duration } => {
                let _ = write!(out, "\"phase\":{phase},\"duration_ns\":{}", duration.0);
            }
            TraceEvent::LogWrap { node } | TraceEvent::EarlyCkptTrigger { node } => {
                let _ = write!(out, "\"node\":{node}");
            }
            TraceEvent::Inject => {}
            TraceEvent::MsgDrop { src, dst } | TraceEvent::Reroute { src, dst } => {
                let _ = write!(out, "\"src\":{src},\"dst\":{dst}");
            }
            TraceEvent::WatchdogTimeout { dst, attempt }
            | TraceEvent::Retry { dst, attempt }
            | TraceEvent::RetryBackoffCapped { dst, attempt } => {
                let _ = write!(out, "\"dst\":{dst},\"attempt\":{attempt}");
            }
        }
    }
}

/// A named time interval on a logical track — the span form of a phase
/// timeline (checkpoint establishment, recovery phases). Rendered as a
/// Chrome `"X"` (complete) event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Display name (e.g. `"ckpt 3: flush"`).
    pub name: String,
    /// Category string (e.g. `"checkpoint"`, `"recovery"`).
    pub cat: &'static str,
    /// Start time.
    pub start: Ns,
    /// End time (`>= start`).
    pub end: Ns,
    /// Logical track (rendered as the Chrome thread id).
    pub track: u32,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Ns {
        self.end.saturating_sub(self.start)
    }
}

/// Aggregate view of a trace: per-kind counts plus drop accounting. This is
/// what run artifacts embed (the full event list can be large).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Events recorded per kind, in [`TraceEvent::KIND_NAMES`] order.
    /// Includes events later evicted by the ring bound.
    pub counts: [u64; 13],
    /// Events evicted because the ring was full.
    pub dropped: u64,
    /// Events still resident in the buffer.
    pub retained: u64,
}

impl TraceSummary {
    /// Total events recorded (retained + dropped).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// A bounded ring buffer of timestamped trace events.
///
/// Disabled buffers ([`TraceBuffer::disabled`], the default) drop every
/// event after one branch; this is what every run carries unless the
/// experiment asked for tracing.
#[derive(Clone, Debug, Default)]
pub struct TraceBuffer {
    enabled: bool,
    capacity: usize,
    events: VecDeque<(Ns, TraceEvent)>,
    counts: [u64; 13],
    dropped: u64,
}

impl TraceBuffer {
    /// A disabled buffer: records nothing, allocates nothing.
    pub fn disabled() -> TraceBuffer {
        TraceBuffer::default()
    }

    /// An enabled buffer holding at most `capacity` events; the oldest are
    /// evicted (and counted in [`Self::dropped`]) beyond that.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — use [`TraceBuffer::disabled`] for "no
    /// tracing" so the hot-path check stays a single boolean.
    pub fn enabled(capacity: usize) -> TraceBuffer {
        assert!(capacity > 0, "an enabled trace buffer needs capacity");
        TraceBuffer {
            enabled: true,
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            counts: [0; 13],
            dropped: 0,
        }
    }

    /// Whether events are being recorded. `#[inline]` so the disabled case
    /// costs one predictable branch at each call site.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, at: Ns, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.push(at, event);
    }

    fn push(&mut self, at: Ns, event: TraceEvent) {
        self.counts[event.kind_index()] += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((at, event));
    }

    /// Events currently resident (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &(Ns, TraceEvent)> {
        self.events.iter()
    }

    /// Number of resident events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are resident.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity (zero when disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Aggregate per-kind counts and drop accounting.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            counts: self.counts,
            dropped: self.dropped,
            retained: self.events.len() as u64,
        }
    }

    /// Renders the resident events as JSON Lines: one
    /// `{"t_ns":..,"kind":..,...}` object per line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 48);
        for (t, ev) in &self.events {
            let _ = write!(out, "{{\"t_ns\":{},\"kind\":\"{}\"", t.0, ev.kind());
            let mut args = String::new();
            ev.write_args(&mut args);
            if !args.is_empty() {
                out.push(',');
                out.push_str(&args);
            }
            out.push_str("}\n");
        }
        out
    }

    /// Renders the resident events (as instants) plus the given spans (as
    /// complete events) in the Chrome `trace_event` JSON format. Open the
    /// result in `chrome://tracing` or <https://ui.perfetto.dev>.
    ///
    /// Timestamps are microseconds in that format; nanosecond precision is
    /// kept via fractional values.
    pub fn to_chrome_trace(&self, spans: &[Span]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push_str(",\n");
            }
        };
        for (t, ev) in &self.events {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\"pid\":0,\"tid\":0,\"args\":{{",
                ev.kind(),
                us(*t),
            );
            let mut args = String::new();
            ev.write_args(&mut args);
            out.push_str(&args);
            out.push_str("}}");
        }
        for s in spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
                escape_json(&s.name),
                s.cat,
                us(s.start),
                us(s.duration()),
                s.track,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

/// Nanoseconds rendered as (fractional) microseconds for Chrome traces.
fn us(t: Ns) -> String {
    if t.0.is_multiple_of(1_000) {
        format!("{}", t.0 / 1_000)
    } else {
        format!("{}.{:03}", t.0 / 1_000, t.0 % 1_000)
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut buf = TraceBuffer::disabled();
        buf.record(Ns(1), TraceEvent::Inject);
        assert!(buf.is_empty());
        assert!(!buf.is_enabled());
        assert_eq!(buf.summary().total(), 0);
    }

    #[test]
    fn ring_respects_bound_under_overflow() {
        let mut buf = TraceBuffer::enabled(4);
        for i in 0..100u64 {
            buf.record(Ns(i), TraceEvent::Nack { node: 0, line: i });
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.dropped(), 96);
        // The survivors are the newest four, oldest first.
        let times: Vec<u64> = buf.events().map(|(t, _)| t.0).collect();
        assert_eq!(times, vec![96, 97, 98, 99]);
        // Counts include the dropped events.
        let s = buf.summary();
        assert_eq!(
            s.counts[TraceEvent::Nack { node: 0, line: 0 }.kind_index()],
            100
        );
        assert_eq!(s.retained, 4);
        assert_eq!(s.total(), 100);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_enabled_panics() {
        let _ = TraceBuffer::enabled(0);
    }

    #[test]
    fn kind_names_match_indices() {
        let samples = [
            TraceEvent::CoherenceStart {
                node: 0,
                line: 0,
                exclusive: false,
            },
            TraceEvent::CoherenceEnd { node: 0, line: 0 },
            TraceEvent::Nack { node: 0, line: 0 },
            TraceEvent::CkptPhase {
                id: 0,
                phase: CkptPhaseEvent::Started,
            },
            TraceEvent::RecoveryPhase {
                phase: 1,
                duration: Ns(1),
            },
            TraceEvent::LogWrap { node: 0 },
            TraceEvent::EarlyCkptTrigger { node: 0 },
            TraceEvent::Inject,
            TraceEvent::MsgDrop { src: 0, dst: 1 },
            TraceEvent::WatchdogTimeout { dst: 1, attempt: 0 },
            TraceEvent::Retry { dst: 1, attempt: 1 },
            TraceEvent::Reroute { src: 0, dst: 1 },
            TraceEvent::RetryBackoffCapped { dst: 1, attempt: 6 },
        ];
        assert_eq!(samples.len(), TraceEvent::KIND_NAMES.len());
        let mut seen = [false; TraceEvent::KIND_NAMES.len()];
        for ev in samples {
            seen[ev.kind_index()] = true;
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn jsonl_renders_one_line_per_event() {
        let mut buf = TraceBuffer::enabled(8);
        buf.record(Ns(1_500), TraceEvent::Nack { node: 3, line: 42 });
        buf.record(
            Ns(2_000),
            TraceEvent::CkptPhase {
                id: 1,
                phase: CkptPhaseEvent::Committed,
            },
        );
        let text = buf.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t_ns\":1500,\"kind\":\"nack\",\"node\":3,\"line\":42}"
        );
        assert!(lines[1].contains("\"phase\":\"committed\""));
    }

    #[test]
    fn chrome_trace_contains_events_and_spans() {
        let mut buf = TraceBuffer::enabled(8);
        buf.record(Ns(500), TraceEvent::Inject);
        let spans = vec![Span {
            name: "ckpt 1: flush".into(),
            cat: "checkpoint",
            start: Ns(1_000),
            end: Ns(3_500),
            track: 1,
        }];
        let text = buf.to_chrome_trace(&spans);
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ts\":0.500"));
        assert!(text.contains("\"dur\":2.500"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn span_duration_saturates() {
        let s = Span {
            name: "x".into(),
            cat: "c",
            start: Ns(10),
            end: Ns(4),
            track: 0,
        };
        assert_eq!(s.duration(), Ns::ZERO);
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
