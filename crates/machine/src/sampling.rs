//! Interval sampling: per-epoch time series of the machine's vital signs.
//!
//! When enabled (see `ObsConfig::epoch_us`), the machine samples itself at
//! a fixed cadence and records one [`EpochSample`] per epoch: traffic-class
//! byte/message/access *rates* (deltas over the epoch), per-node log
//! occupancy, DRAM and link utilization, and outstanding-transaction
//! counts. This is the time-resolved substrate behind the paper's
//! Figure 11-style log-occupancy curves and the per-epoch traffic telemetry
//! the evaluation needs.

use revive_net::fabric::FabricStats;
use revive_sim::time::Ns;

/// One epoch's worth of time-series data. Delta fields cover `[t - epoch,
/// t]`; gauge fields are instantaneous at `t`.
#[derive(Clone, Debug, Default)]
pub struct EpochSample {
    /// Sample time (the end of the epoch).
    pub t: Ns,
    /// Network bytes per traffic class this epoch.
    pub net_bytes: [u64; 5],
    /// Network messages per traffic class this epoch.
    pub net_msgs: [u64; 5],
    /// Watchdog retries per traffic class this epoch (zero unless fabric
    /// faults were live during the epoch).
    pub retries: [u64; 5],
    /// DRAM line accesses per traffic class this epoch.
    pub mem_accesses: [u64; 5],
    /// CPU memory operations completed this epoch.
    pub ops: u64,
    /// Per-node live log bytes at `t` (empty for baseline machines).
    pub log_bytes: Vec<u64>,
    /// Highest per-node log utilization at `t`, in `[0, 1]`.
    pub log_utilization_max: f64,
    /// Outstanding cache misses (MSHR occupancy) summed over nodes at `t`.
    pub outstanding_misses: u64,
    /// Directory entries mid-transaction (Busy) summed over nodes at `t`.
    pub dir_busy: u64,
    /// Aggregate DRAM bank busy time accrued this epoch.
    pub dram_busy: Ns,
    /// Aggregate torus link busy time accrued this epoch.
    pub link_busy: Ns,
    /// Checkpoints committed so far (cumulative gauge).
    pub checkpoints: u64,
    /// Serving requests completed this epoch (always zero for batch
    /// workloads). Rollback can retract a not-yet-durable completion, so
    /// the clamped delta may briefly read zero after a recovery.
    pub requests: u64,
}

impl EpochSample {
    /// Total network bytes this epoch across classes.
    pub fn net_bytes_total(&self) -> u64 {
        self.net_bytes.iter().sum()
    }
}

/// Accumulates [`EpochSample`]s at a fixed cadence. The machine drives it:
/// a `Sample` event fires every `epoch`, the system gathers the raw
/// cumulative counters, and [`IntervalSampler::push`] turns them into
/// deltas.
#[derive(Clone, Debug)]
pub struct IntervalSampler {
    epoch: Ns,
    /// The previous reading, so each epoch reports deltas.
    prev: SampleInput,
    samples: Vec<EpochSample>,
}

/// The raw cumulative readings the machine hands the sampler each epoch.
#[derive(Clone, Debug, Default)]
pub struct SampleInput {
    /// Sample time.
    pub t: Ns,
    /// Cumulative network bytes per class.
    pub net_bytes: [u64; 5],
    /// Cumulative network messages per class.
    pub net_msgs: [u64; 5],
    /// Cumulative watchdog retries per class.
    pub retries: [u64; 5],
    /// Cumulative DRAM accesses per class.
    pub mem_accesses: [u64; 5],
    /// Cumulative CPU ops completed.
    pub ops: u64,
    /// Per-node live log bytes (instantaneous).
    pub log_bytes: Vec<u64>,
    /// Highest per-node log utilization (instantaneous).
    pub log_utilization_max: f64,
    /// Outstanding misses summed over nodes (instantaneous).
    pub outstanding_misses: u64,
    /// Busy directory entries summed over nodes (instantaneous).
    pub dir_busy: u64,
    /// Cumulative DRAM bank busy time.
    pub dram_busy: Ns,
    /// Fabric counter snapshot.
    pub fabric: FabricStats,
    /// Checkpoints committed so far.
    pub checkpoints: u64,
    /// Cumulative serving requests completed (zero for batch workloads).
    pub requests: u64,
}

impl IntervalSampler {
    /// Creates a sampler with the given epoch length.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    pub fn new(epoch: Ns) -> IntervalSampler {
        assert!(epoch > Ns::ZERO, "sampling epoch must be positive");
        IntervalSampler {
            epoch,
            prev: SampleInput::default(),
            samples: Vec::new(),
        }
    }

    /// The sampling cadence.
    pub fn epoch(&self) -> Ns {
        self.epoch
    }

    /// Converts one cumulative reading into a delta sample and records it.
    pub fn push(&mut self, input: SampleInput) {
        let delta = |cur: &[u64; 5], prev: &[u64; 5]| -> [u64; 5] {
            let mut d = [0u64; 5];
            for i in 0..5 {
                d[i] = cur[i].saturating_sub(prev[i]);
            }
            d
        };
        self.samples.push(EpochSample {
            t: input.t,
            net_bytes: delta(&input.net_bytes, &self.prev.net_bytes),
            net_msgs: delta(&input.net_msgs, &self.prev.net_msgs),
            retries: delta(&input.retries, &self.prev.retries),
            mem_accesses: delta(&input.mem_accesses, &self.prev.mem_accesses),
            ops: input.ops.saturating_sub(self.prev.ops),
            log_bytes: input.log_bytes.clone(),
            log_utilization_max: input.log_utilization_max,
            outstanding_misses: input.outstanding_misses,
            dir_busy: input.dir_busy,
            dram_busy: input.dram_busy.saturating_sub(self.prev.dram_busy),
            link_busy: input
                .fabric
                .link_busy
                .saturating_sub(self.prev.fabric.link_busy),
            checkpoints: input.checkpoints,
            requests: input.requests.saturating_sub(self.prev.requests),
        });
        self.prev = input;
    }

    /// The recorded time series.
    pub fn samples(&self) -> &[EpochSample] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(t: u64, bytes: u64, ops: u64) -> SampleInput {
        SampleInput {
            t: Ns(t),
            net_bytes: [bytes, 0, 0, 0, 0],
            net_msgs: [bytes / 8, 0, 0, 0, 0],
            retries: [0, bytes / 100, 0, 0, 0],
            mem_accesses: [0, bytes / 64, 0, 0, 0],
            ops,
            log_bytes: vec![10, 20],
            log_utilization_max: 0.5,
            outstanding_misses: 3,
            dir_busy: 2,
            dram_busy: Ns(bytes),
            fabric: FabricStats {
                messages: bytes / 8,
                bytes,
                latency_sum: Ns(bytes * 2),
                link_busy: Ns(bytes / 2),
            },
            checkpoints: 1,
            requests: ops / 10,
        }
    }

    #[test]
    fn samples_are_deltas_of_cumulative_counters() {
        let mut s = IntervalSampler::new(Ns(100));
        s.push(input(100, 800, 50));
        s.push(input(200, 2_000, 90));
        let got = s.samples();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].net_bytes[0], 800);
        assert_eq!(got[1].net_bytes[0], 1_200);
        assert_eq!(got[0].ops, 50);
        assert_eq!(got[1].ops, 40);
        assert_eq!(got[0].requests, 5);
        assert_eq!(got[1].requests, 4);
        assert_eq!(got[1].retries[1], 12); // 20 - 8, a delta like the rest
        assert_eq!(got[1].dram_busy, Ns(1_200));
        assert_eq!(got[1].link_busy, Ns(600));
        // Gauges are instantaneous, not deltas.
        assert_eq!(got[1].outstanding_misses, 3);
        assert_eq!(got[1].log_bytes, vec![10, 20]);
    }

    #[test]
    fn counter_resets_do_not_underflow() {
        // Rollback rewinds `cpu_ops` (and retracts provisional serving
        // completions), so a reading can fall below the previous one;
        // every delta clamps at zero.
        let mut s = IntervalSampler::new(Ns(100));
        s.push(input(100, 1_000, 50));
        s.push(input(200, 100, 20));
        assert_eq!(s.samples()[1].ops, 0);
        assert_eq!(s.samples()[1].requests, 0);
        assert_eq!(s.samples()[1].net_bytes[0], 0);
        assert_eq!(s.samples()[1].link_busy, Ns::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_epoch_rejected() {
        let _ = IntervalSampler::new(Ns::ZERO);
    }
}
