//! Banked DRAM timing.
//!
//! Table 3 of the paper: "Memory: 100 MHz 16-bank DDR, 128 bits wide, 60 ns
//! row miss". The model here is a per-bank busy-until resource with an open
//! row: an access to the bank's open row costs the transfer time only; a row
//! miss adds the 60 ns activation. Accesses to different banks overlap. This
//! is also where the paper's observation that "the log is accessed in a
//! sequential manner … can be performed very efficiently in modern DRAMs"
//! shows up: sequential log/parity traffic is nearly all row hits.

use revive_sim::resource::ResourceBank;
use revive_sim::time::Ns;

/// DRAM timing parameters.
#[derive(Clone, Copy, Debug)]
pub struct DramConfig {
    /// Number of independent banks (16 in the paper).
    pub banks: usize,
    /// Row-miss (activate + transfer) latency: 60 ns in the paper.
    pub row_miss: Ns,
    /// Row-hit (transfer only) latency. A 64-byte line over a 128-bit-wide
    /// 100 MHz DDR interface moves in 4 bus cycles ⇒ 20 ns.
    pub row_hit: Ns,
    /// Cache lines per DRAM row (a 2 KB row holds 32 lines).
    pub lines_per_row: u64,
}

impl Default for DramConfig {
    fn default() -> DramConfig {
        DramConfig {
            banks: 16,
            row_miss: Ns(60),
            row_hit: Ns(20),
            lines_per_row: 32,
        }
    }
}

/// Kinds of DRAM access, for accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DramOp {
    /// A line read.
    Read,
    /// A line write.
    Write,
}

/// Access counters for one memory controller.
#[derive(Clone, Copy, Debug, Default)]
pub struct DramStats {
    /// Total line reads.
    pub reads: u64,
    /// Total line writes.
    pub writes: u64,
    /// Accesses that hit the open row.
    pub row_hits: u64,
    /// Accesses that had to open a new row.
    pub row_misses: u64,
}

impl DramStats {
    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of accesses that hit the open row.
    pub fn row_hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.total() as f64
        }
    }
}

/// The timing model of one node's memory controller and DRAM.
///
/// # Example
///
/// ```
/// use revive_mem::dram::{Dram, DramConfig, DramOp};
/// use revive_sim::time::Ns;
///
/// let mut d = Dram::new(DramConfig::default());
/// // First access to a row: 60ns row miss.
/// let t1 = d.access(Ns(0), 0, DramOp::Read);
/// assert_eq!(t1, Ns(60));
/// // Next line in the same row: row hit, and it queues behind the first.
/// let t2 = d.access(Ns(0), 1, DramOp::Read);
/// assert_eq!(t2, Ns(80));
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    config: DramConfig,
    banks: ResourceBank,
    open_rows: Vec<Option<u64>>,
    stats: DramStats,
}

impl Dram {
    /// Creates a DRAM model with all rows closed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero banks or zero lines per row.
    pub fn new(config: DramConfig) -> Dram {
        assert!(config.lines_per_row > 0, "rows must hold at least one line");
        Dram {
            banks: ResourceBank::new(config.banks),
            open_rows: vec![None; config.banks],
            config,
            stats: DramStats::default(),
        }
    }

    /// The configured timing parameters.
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Access counters so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Which bank a node-local line lives in. Consecutive *rows* interleave
    /// across banks (row-interleaving), so a sequential stream keeps each
    /// bank's row open while spreading load.
    pub fn bank_of(&self, local_line: u64) -> usize {
        ((local_line / self.config.lines_per_row) % self.config.banks as u64) as usize
    }

    fn row_of(&self, local_line: u64) -> u64 {
        local_line / (self.config.lines_per_row * self.config.banks as u64)
    }

    /// Performs a line access beginning no earlier than `now`; returns the
    /// completion time, accounting for bank queueing and row hits/misses.
    pub fn access(&mut self, now: Ns, local_line: u64, op: DramOp) -> Ns {
        let bank = self.bank_of(local_line);
        let row = self.row_of(local_line);
        let hit = self.open_rows[bank] == Some(row);
        let service = if hit {
            self.stats.row_hits += 1;
            self.config.row_hit
        } else {
            self.stats.row_misses += 1;
            self.open_rows[bank] = Some(row);
            self.config.row_miss
        };
        match op {
            DramOp::Read => self.stats.reads += 1,
            DramOp::Write => self.stats.writes += 1,
        }
        self.banks.acquire(bank, now, service)
    }

    /// Total busy time across banks (for utilization reports).
    pub fn busy_total(&self) -> Ns {
        self.banks.busy_total()
    }

    /// Total queueing delay across banks.
    pub fn wait_total(&self) -> Ns {
        self.banks.wait_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hits_are_cheaper() {
        let mut d = Dram::new(DramConfig::default());
        let t1 = d.access(Ns(0), 0, DramOp::Read);
        assert_eq!(t1, Ns(60)); // row miss
        let t2 = d.access(t1, 1, DramOp::Read);
        assert_eq!(t2 - t1, Ns(20)); // row hit
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn different_banks_overlap() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        // Lines in different banks: rows interleave across banks.
        let other_bank_line = cfg.lines_per_row; // row 1 => bank 1
        assert_ne!(d.bank_of(0), d.bank_of(other_bank_line));
        let t1 = d.access(Ns(0), 0, DramOp::Read);
        let t2 = d.access(Ns(0), other_bank_line, DramOp::Read);
        assert_eq!(t1, t2); // parallel banks
    }

    #[test]
    fn same_bank_queues() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        let same_bank_far_line = cfg.lines_per_row * cfg.banks as u64; // row 0 of bank 0 again, different row index
        assert_eq!(d.bank_of(0), d.bank_of(same_bank_far_line));
        let t1 = d.access(Ns(0), 0, DramOp::Read);
        let t2 = d.access(Ns(0), same_bank_far_line, DramOp::Read);
        assert_eq!(t1, Ns(60));
        assert_eq!(t2, Ns(120)); // queued, and a row miss (different row)
    }

    #[test]
    fn conflicting_rows_thrash() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        let a = 0u64;
        let b = cfg.lines_per_row * cfg.banks as u64;
        let mut t = Ns(0);
        for _ in 0..3 {
            t = d.access(t, a, DramOp::Read);
            t = d.access(t, b, DramOp::Read);
        }
        assert_eq!(d.stats().row_misses, 6);
        assert_eq!(d.stats().row_hits, 0);
    }

    #[test]
    fn counters_track_ops() {
        let mut d = Dram::new(DramConfig::default());
        d.access(Ns(0), 0, DramOp::Read);
        d.access(Ns(0), 1, DramOp::Write);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().total(), 2);
        assert!(d.stats().row_hit_rate() > 0.0);
    }
}
