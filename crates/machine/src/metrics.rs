//! Traffic and execution metrics.
//!
//! The paper's Figures 9 and 10 break network and memory traffic into five
//! classes; [`TrafficClass`] mirrors them exactly. [`Metrics`] accumulates
//! the raw counters during a run; [`Summary`] is the derived, reportable
//! view attached to a `RunResult`.

use revive_core::dirext::CostStats;
use revive_sim::stats::Histogram;
use revive_sim::time::Ns;

/// The paper's traffic classes (Figures 9 and 10).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficClass {
    /// Supplying data on cache misses (requests, fills, invalidations,
    /// fetches and their acks).
    RdRdx,
    /// Write-backs of dirty lines during regular execution.
    ExeWb,
    /// Write-backs forced by checkpoint establishment.
    CkpWb,
    /// Writing data to the logs.
    Log,
    /// Parity updates (for both data and logs).
    Par,
}

impl TrafficClass {
    /// All classes, in the paper's stacking order.
    pub const ALL: [TrafficClass; 5] = [
        TrafficClass::RdRdx,
        TrafficClass::ExeWb,
        TrafficClass::CkpWb,
        TrafficClass::Log,
        TrafficClass::Par,
    ];

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            TrafficClass::RdRdx => 0,
            TrafficClass::ExeWb => 1,
            TrafficClass::CkpWb => 2,
            TrafficClass::Log => 3,
            TrafficClass::Par => 4,
        }
    }

    /// The paper's label.
    pub fn name(self) -> &'static str {
        match self {
            TrafficClass::RdRdx => "RD/RDX",
            TrafficClass::ExeWb => "Exe WB",
            TrafficClass::CkpWb => "Ckp WB",
            TrafficClass::Log => "LOG",
            TrafficClass::Par => "PAR",
        }
    }
}

/// Raw counters accumulated during a run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Network bytes per class.
    pub net_bytes: [u64; 5],
    /// Network messages per class.
    pub net_msgs: [u64; 5],
    /// Memory (DRAM line) accesses per class.
    pub mem_accesses: [u64; 5],
    /// Instructions represented by the issued ops.
    pub instructions: u64,
    /// Memory operations issued by CPUs.
    pub cpu_ops: u64,
    /// Per-class end-to-end network latency distributions (power-of-two
    /// nanosecond buckets).
    pub net_latency: [Histogram; 5],
    /// Watchdog retries that made it back onto the fabric, per class.
    /// Always zero in fault-free runs (watchdogs only arm under live
    /// fabric faults).
    pub retry_msgs: [u64; 5],
    /// Per-class retry latency: original drop to successful redelivery
    /// (drop detection + backoff + the retried flight time).
    pub retry_latency: [Histogram; 5],
}

impl Metrics {
    /// Records one network message.
    pub fn net(&mut self, class: TrafficClass, bytes: u32) {
        self.net_bytes[class.index()] += bytes as u64;
        self.net_msgs[class.index()] += 1;
    }

    /// Records one message's end-to-end latency.
    pub fn net_latency(&mut self, class: TrafficClass, latency: Ns) {
        self.net_latency[class.index()].record(latency.0);
    }

    /// Records one DRAM line access.
    pub fn mem(&mut self, class: TrafficClass) {
        self.mem_accesses[class.index()] += 1;
    }

    /// Records one successful watchdog retry and its drop-to-redelivery
    /// latency.
    pub fn retry(&mut self, class: TrafficClass, latency: Ns) {
        self.retry_msgs[class.index()] += 1;
        self.retry_latency[class.index()].record(latency.0);
    }

    /// Total watchdog retries across classes.
    pub fn retry_msgs_total(&self) -> u64 {
        self.retry_msgs.iter().sum()
    }

    /// Total network bytes across classes.
    pub fn net_bytes_total(&self) -> u64 {
        self.net_bytes.iter().sum()
    }

    /// Total memory accesses across classes.
    pub fn mem_accesses_total(&self) -> u64 {
        self.mem_accesses.iter().sum()
    }
}

/// The SLO ledger of one open-loop serving run: how many completed
/// requests met the latency target, against the configured error budget.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SloLedger {
    /// Latency target (ns): a request at or under this is "good".
    pub target_ns: u64,
    /// Allowed violations per million completed requests.
    pub budget_ppm: u32,
    /// Accounting window (ns) for the per-window series.
    pub window_ns: u64,
    /// Requests that met the target.
    pub good: u64,
    /// Requests that missed it.
    pub violations: u64,
}

impl SloLedger {
    /// Completed requests.
    pub fn total(&self) -> u64 {
        self.good + self.violations
    }

    /// Observed violations per million requests.
    pub fn violation_ppm(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.violations as f64 * 1e6 / self.total() as f64
        }
    }

    /// Fraction of the error budget burned (1.0 = exactly exhausted).
    pub fn budget_burn(&self) -> f64 {
        if self.budget_ppm == 0 {
            if self.violations == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.violation_ppm() / self.budget_ppm as f64
        }
    }

    /// Whether the run stayed within its error budget.
    pub fn met(&self) -> bool {
        self.budget_burn() <= 1.0
    }
}

/// One accounting window of a serving run's goodput series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServingWindow {
    /// Window start (ns of simulated time).
    pub start_ns: u64,
    /// Requests completed in this window.
    pub completed: u64,
    /// Of those, requests that met the SLO target.
    pub good: u64,
}

/// Per-request latency and SLO accounting of one open-loop serving run.
/// All quantiles are in simulated nanoseconds, measured arrival→completion
/// so checkpoint stalls, rollback re-execution, and open-loop queueing all
/// show up in the tail.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServingReport {
    /// Requests admitted (first op fetched).
    pub admitted: u64,
    /// Requests whose commit write completed.
    pub completed: u64,
    /// Mean latency (ns).
    pub mean_ns: f64,
    /// Worst-case latency (ns).
    pub max_ns: u64,
    /// Median latency (ns, histogram upper bound).
    pub p50_ns: u64,
    /// 90th percentile latency (ns).
    pub p90_ns: u64,
    /// 99th percentile latency (ns).
    pub p99_ns: u64,
    /// 99.9th percentile latency (ns).
    pub p999_ns: u64,
    /// 99.99th percentile latency (ns).
    pub p9999_ns: u64,
    /// The SLO ledger.
    pub ledger: SloLedger,
    /// Per-window goodput series, in window order.
    pub windows: Vec<ServingWindow>,
}

impl ServingReport {
    /// Goodput: good requests per second of simulated time.
    pub fn goodput_per_sec(&self, sim_time: Ns) -> f64 {
        if sim_time == Ns::ZERO {
            0.0
        } else {
            self.ledger.good as f64 * 1e9 / sim_time.0 as f64
        }
    }
}

/// The derived, reportable metrics of one run.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Raw traffic counters.
    pub traffic: Metrics,
    /// Aggregate L1 hits across CPUs.
    pub l1_hits: u64,
    /// Aggregate L1 misses.
    pub l1_misses: u64,
    /// Aggregate L2 hits (of L1 misses).
    pub l2_hits: u64,
    /// Aggregate L2 misses.
    pub l2_misses: u64,
    /// Dirty write-backs from evictions.
    pub eviction_writebacks: u64,
    /// Nack retries.
    pub nack_retries: u64,
    /// Per-node log high-water marks in bytes (ReVive runs only).
    pub log_high_water: Vec<u64>,
    /// Aggregate Table 1 event accounting (ReVive runs only).
    pub costs: CostStats,
    /// Aggregate DRAM row-hit rate.
    pub dram_row_hit_rate: f64,
    /// Mean end-to-end network message latency.
    pub mean_net_latency: Ns,
}

impl Summary {
    /// Global L2 miss rate over all CPU memory accesses (Table 4's metric).
    pub fn l2_miss_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_misses as f64 / total as f64
        }
    }

    /// L2 misses per 1000 instructions (the commercial-workload comparison
    /// of Section 5).
    pub fn misses_per_kilo_instruction(&self) -> f64 {
        if self.traffic.instructions == 0 {
            0.0
        } else {
            self.l2_misses as f64 * 1000.0 / self.traffic.instructions as f64
        }
    }

    /// The largest per-node log high-water mark (Figure 11's metric).
    pub fn max_log_bytes(&self) -> u64 {
        self.log_high_water.iter().copied().max().unwrap_or(0)
    }

    /// The end-to-end network latency distribution of one traffic class.
    pub fn net_latency_hist(&self, class: TrafficClass) -> &Histogram {
        &self.traffic.net_latency[class.index()]
    }

    /// The retry-latency distribution of one traffic class (empty unless
    /// fabric faults were live).
    pub fn retry_latency_hist(&self, class: TrafficClass) -> &Histogram {
        &self.traffic.retry_latency[class.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_unique() {
        let mut seen = [false; 5];
        for c in TrafficClass::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
            assert!(!c.name().is_empty());
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn metrics_accumulate() {
        let mut m = Metrics::default();
        m.net(TrafficClass::RdRdx, 72);
        m.net(TrafficClass::Par, 8);
        m.mem(TrafficClass::Log);
        assert_eq!(m.net_bytes_total(), 80);
        assert_eq!(m.net_msgs[TrafficClass::RdRdx.index()], 1);
        assert_eq!(m.mem_accesses_total(), 1);
    }

    #[test]
    fn latency_histograms_per_class() {
        let mut m = Metrics::default();
        m.net_latency(TrafficClass::RdRdx, Ns(46));
        m.net_latency(TrafficClass::RdRdx, Ns(120));
        m.net_latency(TrafficClass::Par, Ns(5));
        let s = Summary {
            traffic: m,
            ..Summary::default()
        };
        assert_eq!(s.net_latency_hist(TrafficClass::RdRdx).total(), 2);
        assert_eq!(s.net_latency_hist(TrafficClass::Par).total(), 1);
        assert_eq!(s.net_latency_hist(TrafficClass::Log).total(), 0);
    }

    #[test]
    fn retries_count_per_class() {
        let mut m = Metrics::default();
        m.retry(TrafficClass::ExeWb, Ns(4_000));
        m.retry(TrafficClass::ExeWb, Ns(9_000));
        m.retry(TrafficClass::Par, Ns(2_500));
        assert_eq!(m.retry_msgs_total(), 3);
        assert_eq!(m.retry_msgs[TrafficClass::ExeWb.index()], 2);
        let s = Summary {
            traffic: m,
            ..Summary::default()
        };
        assert_eq!(s.retry_latency_hist(TrafficClass::ExeWb).total(), 2);
        assert_eq!(s.retry_latency_hist(TrafficClass::RdRdx).total(), 0);
    }

    #[test]
    fn summary_rates() {
        let s = Summary {
            l1_hits: 900,
            l1_misses: 100,
            l2_hits: 80,
            l2_misses: 20,
            traffic: Metrics {
                instructions: 10_000,
                ..Metrics::default()
            },
            log_high_water: vec![100, 300, 200],
            ..Summary::default()
        };
        assert!((s.l2_miss_rate() - 0.02).abs() < 1e-12);
        assert!((s.misses_per_kilo_instruction() - 2.0).abs() < 1e-12);
        assert_eq!(s.max_log_bytes(), 300);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = Summary::default();
        assert_eq!(s.l2_miss_rate(), 0.0);
        assert_eq!(s.max_log_bytes(), 0);
    }
}
