//! Global checkpoint establishment (Section 3.2.3, Figure 6).
//!
//! Establishing a checkpoint: interrupt all processors, save their execution
//! contexts, write all dirty cached data back to memory, wait for
//! outstanding operations, then atomically commit with a two-phase protocol
//! (barrier → mark established in each local log → barrier). Afterwards, log
//! space for checkpoints that are no longer needed is reclaimed and the L
//! bits are gang-cleared.
//!
//! The flushing itself runs through the coherence protocol in
//! `revive-machine`; this module holds the configuration and the Figure-6
//! timeline record.

use revive_sim::time::Ns;

/// Checkpointing parameters.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointConfig {
    /// Interval between checkpoint starts (the paper's real machine uses
    /// 100 ms; its simulations, scaled to small caches, use 10 ms; this
    /// repository's default experiments scale further — see EXPERIMENTS.md).
    pub interval: Ns,
    /// Cross-processor interrupt delivery latency (under 5 µs, Section
    /// 3.3.1).
    pub interrupt_latency: Ns,
    /// Time to save one processor's execution context to memory.
    pub context_save: Ns,
    /// One global barrier synchronization (up to 10 µs on 16 processors).
    pub barrier_latency: Ns,
    /// How many past checkpoints remain recoverable (2 when the error
    /// detection latency is below one interval; more for longer latencies).
    pub retained: u64,
    /// Establish a checkpoint early when any node's log passes this
    /// utilization (the paper assumes "sufficient logs"; this keeps that
    /// assumption true under pathological write storms).
    pub early_trigger_utilization: f64,
}

impl Default for CheckpointConfig {
    fn default() -> CheckpointConfig {
        CheckpointConfig {
            interval: Ns::from_ms(10),
            interrupt_latency: Ns::from_us(5),
            context_save: Ns::from_us(1),
            barrier_latency: Ns::from_us(10),
            retained: 2,
            early_trigger_utilization: 0.75,
        }
    }
}

impl CheckpointConfig {
    /// The oldest checkpoint a rollback can reach once checkpoint `counter`
    /// has committed: the newest `retained` checkpoints, down to the run
    /// start (interval 0). A rollback to checkpoint `t` replays the log
    /// records of interval `t` and later, so the commit of `counter` frees
    /// the records of every older interval, and the machine keeps the
    /// execution state of this checkpoint and the newer ones.
    pub fn oldest_recoverable(&self, counter: u64) -> u64 {
        (counter + 1).saturating_sub(self.retained)
    }
}

/// Timestamps of one checkpoint establishment (Figure 6's time-line).
#[derive(Clone, Copy, Debug, Default)]
pub struct CkptTimeline {
    /// Checkpoint sequence number (interval id being committed).
    pub id: u64,
    /// When the interrupt was raised.
    pub started: Ns,
    /// When all contexts were saved and flushing began.
    pub flush_started: Ns,
    /// When the last dirty line was acknowledged.
    pub flush_done: Ns,
    /// When the first barrier completed.
    pub barrier1_done: Ns,
    /// When every local log carried the commit marker.
    pub marked: Ns,
    /// When the second barrier completed — the commit point.
    pub committed: Ns,
    /// When execution resumed.
    pub resumed: Ns,
    /// Dirty lines written back by this checkpoint.
    pub lines_flushed: u64,
}

impl CkptTimeline {
    /// Total time execution was perturbed by this checkpoint.
    pub fn duration(&self) -> Ns {
        self.resumed.saturating_sub(self.started)
    }

    /// Time spent writing back dirty data (the dominant cost, Section
    /// 3.3.1).
    pub fn flush_time(&self) -> Ns {
        self.flush_done.saturating_sub(self.flush_started)
    }

    /// The Figure-6 phase decomposition as named `(name, start, end)`
    /// intervals, in order: interrupt → flush → drain/barrier 1 → mark →
    /// barrier 2 → reclaim. Intervals the machine skipped (e.g. nothing to
    /// flush) come out empty rather than being omitted, so every timeline
    /// has the same shape.
    pub fn phases(&self) -> [(&'static str, Ns, Ns); 6] {
        [
            ("interrupt", self.started, self.flush_started),
            ("flush", self.flush_started, self.flush_done),
            ("barrier1", self.flush_done, self.barrier1_done),
            ("mark", self.barrier1_done, self.marked),
            ("barrier2", self.marked, self.committed),
            ("reclaim", self.committed, self.resumed),
        ]
    }
}

/// Aggregate checkpoint statistics for a run.
#[derive(Clone, Debug, Default)]
pub struct CkptStats {
    /// Per-checkpoint timelines, in order.
    pub timelines: Vec<CkptTimeline>,
    /// Checkpoints triggered early by log pressure.
    pub early_triggers: u64,
}

impl CkptStats {
    /// Number of checkpoints established.
    pub fn count(&self) -> u64 {
        self.timelines.len() as u64
    }

    /// Total time spent establishing checkpoints.
    pub fn total_overhead(&self) -> Ns {
        self.timelines.iter().map(CkptTimeline::duration).sum()
    }

    /// Mean checkpoint duration.
    pub fn mean_duration(&self) -> Ns {
        if self.timelines.is_empty() {
            Ns::ZERO
        } else {
            self.total_overhead() / self.timelines.len() as u64
        }
    }

    /// Longest checkpoint duration.
    pub fn max_duration(&self) -> Ns {
        self.timelines
            .iter()
            .map(CkptTimeline::duration)
            .max()
            .unwrap_or(Ns::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(start: u64, end: u64, flushed: u64) -> CkptTimeline {
        CkptTimeline {
            id: 0,
            started: Ns(start),
            flush_started: Ns(start + 5),
            flush_done: Ns(start + 50),
            barrier1_done: Ns(start + 60),
            marked: Ns(start + 61),
            committed: Ns(start + 70),
            resumed: Ns(end),
            lines_flushed: flushed,
        }
    }

    #[test]
    fn timeline_durations() {
        let t = timeline(100, 200, 32);
        assert_eq!(t.duration(), Ns(100));
        assert_eq!(t.flush_time(), Ns(45));
    }

    #[test]
    fn stats_aggregate() {
        let mut s = CkptStats::default();
        s.timelines.push(timeline(0, 100, 10));
        s.timelines.push(timeline(1000, 1300, 20));
        assert_eq!(s.count(), 2);
        assert_eq!(s.total_overhead(), Ns(400));
        assert_eq!(s.mean_duration(), Ns(200));
        assert_eq!(s.max_duration(), Ns(300));
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = CkptStats::default();
        assert_eq!(s.mean_duration(), Ns::ZERO);
        assert_eq!(s.max_duration(), Ns::ZERO);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = CheckpointConfig::default();
        assert_eq!(c.interrupt_latency, Ns::from_us(5));
        assert_eq!(c.barrier_latency, Ns::from_us(10));
        assert_eq!(c.retained, 2);
    }

    #[test]
    fn the_window_holds_the_newest_retained_checkpoints() {
        let c = CheckpointConfig::default();
        assert_eq!(c.oldest_recoverable(0), 0);
        assert_eq!(c.oldest_recoverable(1), 0);
        assert_eq!(c.oldest_recoverable(2), 1);
        assert_eq!(c.oldest_recoverable(9), 8);
    }
}
