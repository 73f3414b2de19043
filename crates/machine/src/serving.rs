//! Request-lifecycle tracking for open-loop serving runs.
//!
//! The machine holds a [`ServingTracker`] only when the workload is
//! [`crate::config::WorkloadSpec::Serving`]; batch runs carry `None` and
//! pay a single branch per op. The tracker measures each request from its
//! *arrival* (drawn by the workload's seeded arrival process) to the
//! completion of its commit write, all in simulated time — so checkpoint
//! stalls, rollback re-execution, and open-loop queueing inflate the
//! recorded latency exactly as they would inflate a real user's.
//!
//! # Rollback correctness
//!
//! A fault rolls execution back to a committed checkpoint and re-executes
//! ops from the snapshot's per-CPU stream positions. A completion record is
//! therefore *provisional* until no retained checkpoint precedes its commit
//! write's stream position: fold it into the durable ledger too early and a
//! rollback would re-execute the request and count it twice. The tracker
//! keeps completions provisional, folds them once the oldest retained
//! snapshot covers them ([`ServingTracker::fold_durable`]), and drops the
//! uncovered ones on rollback ([`ServingTracker::drop_uncovered`]). A
//! commit write parked for MSHR retry *at* a snapshot is the one op that
//! can span a checkpoint un-executed, so "covered" is position < snapshot,
//! or position == snapshot without a parked retry (DESIGN.md §16).

use std::collections::BTreeMap;

use revive_sim::stats::TailHistogram;
use revive_sim::time::Ns;

use crate::config::SloSpec;
use crate::metrics::{ServingReport, ServingWindow, SloLedger};

/// The in-flight commit write of a request: set when the request's last op
/// is issued, matched by sequence number when its store completes.
#[derive(Clone, Copy, Debug)]
struct Armed {
    seq: u64,
    arrival: Ns,
    end_pos: u64,
}

/// A completed request not yet covered by a committed checkpoint.
#[derive(Clone, Copy, Debug)]
struct ReqDone {
    cpu: usize,
    end_pos: u64,
    arrival: Ns,
    completed: Ns,
}

/// Whether a snapshot CPU at stream position `(fetched, parked)` — its
/// fetch position and whether it holds a parked retry — makes a completion
/// at `end_pos` durable: rolled back to this snapshot, the commit write
/// would not re-execute.
fn covered((fetched, parked): (u64, bool), end_pos: u64) -> bool {
    end_pos < fetched || (end_pos == fetched && !parked)
}

/// Per-run request bookkeeping (see module docs).
pub struct ServingTracker {
    slo: SloSpec,
    ops_per_request: u32,
    /// Arrival time of each CPU's current request.
    cur_arrival: Vec<Ns>,
    /// Each CPU's in-flight commit write, if any.
    armed: Vec<Option<Armed>>,
    provisional: Vec<ReqDone>,
    admitted: u64,
    hist: TailHistogram,
    /// Exact latency sum and maximum, kept beside the buckets.
    sum: u128,
    max: u64,
    good: u64,
    violations: u64,
    /// Window index → (completed, good).
    windows: BTreeMap<u64, (u64, u64)>,
}

impl ServingTracker {
    /// A fresh tracker for `cpus` CPUs.
    pub fn new(slo: SloSpec, ops_per_request: u32, cpus: usize) -> ServingTracker {
        assert!(ops_per_request > 0, "requests need at least one op");
        assert!(slo.window_ns > 0, "SLO window must be positive");
        ServingTracker {
            slo,
            ops_per_request,
            cur_arrival: vec![Ns::ZERO; cpus],
            armed: vec![None; cpus],
            provisional: Vec::new(),
            admitted: 0,
            hist: TailHistogram::new(),
            sum: 0,
            max: 0,
            good: 0,
            violations: 0,
            windows: BTreeMap::new(),
        }
    }

    /// Whether the op at 1-based stream position `fetched` is a request's
    /// commit write.
    pub fn is_last_op(&self, fetched: u64) -> bool {
        fetched.is_multiple_of(self.ops_per_request as u64)
    }

    /// Whether the op at 1-based stream position `fetched` starts a request.
    pub fn is_first_op(&self, fetched: u64) -> bool {
        (fetched - 1).is_multiple_of(self.ops_per_request as u64)
    }

    /// A request's first op was fetched: record its arrival.
    pub fn request_started(&mut self, cpu: usize, arrival: Ns) {
        self.cur_arrival[cpu] = arrival;
        self.admitted += 1;
    }

    /// A commit write at stream position `end_pos` was issued as an
    /// asynchronous store with token sequence `seq`.
    pub fn arm(&mut self, cpu: usize, seq: u64, end_pos: u64) {
        self.armed[cpu] = Some(Armed {
            seq,
            arrival: self.cur_arrival[cpu],
            end_pos,
        });
    }

    /// A commit write at stream position `end_pos` completed synchronously
    /// (cache hit) at `now`.
    pub fn complete_now(&mut self, cpu: usize, end_pos: u64, now: Ns) {
        let arrival = self.cur_arrival[cpu];
        self.record(cpu, end_pos, arrival, now);
    }

    /// A store with token sequence `seq` completed at `now`; if it is the
    /// armed commit write, the request completes.
    pub fn store_completed(&mut self, cpu: usize, seq: u64, now: Ns) {
        if self.armed[cpu].is_some_and(|a| a.seq == seq) {
            let a = self.armed[cpu].take().unwrap();
            self.record(cpu, a.end_pos, a.arrival, now);
        }
    }

    fn record(&mut self, cpu: usize, end_pos: u64, arrival: Ns, completed: Ns) {
        debug_assert!(completed >= arrival, "completion precedes arrival");
        self.provisional.push(ReqDone {
            cpu,
            end_pos,
            arrival,
            completed,
        });
    }

    /// Squash `cpu`'s in-flight commit write (fault recovery will
    /// re-execute and re-arm it).
    pub fn squash_cpu(&mut self, cpu: usize) {
        self.armed[cpu] = None;
    }

    /// Re-derive `cpu`'s current-request arrival after a rollback restored
    /// the workload generator.
    pub fn resync_arrival(&mut self, cpu: usize, arrival: Ns) {
        self.cur_arrival[cpu] = arrival;
    }

    /// Folds every provisional completion covered by the oldest retained
    /// snapshot into the durable ledger. Called after each checkpoint
    /// commit with that snapshot's per-CPU stream position (see
    /// `covered`).
    pub fn fold_durable(&mut self, position: impl Fn(usize) -> (u64, bool)) {
        let mut kept = Vec::with_capacity(self.provisional.len());
        let recs = std::mem::take(&mut self.provisional);
        for r in recs {
            if covered(position(r.cpu), r.end_pos) {
                self.fold(r);
            } else {
                kept.push(r);
            }
        }
        self.provisional = kept;
    }

    /// Drops every provisional completion *not* covered by the rollback
    /// target: those requests will re-execute and complete again.
    pub fn drop_uncovered(&mut self, position: impl Fn(usize) -> (u64, bool)) {
        self.provisional
            .retain(|r| covered(position(r.cpu), r.end_pos));
    }

    fn fold(&mut self, r: ReqDone) {
        let latency = r.completed.0 - r.arrival.0;
        self.hist.record(latency);
        self.sum = self.sum.saturating_add(latency as u128);
        self.max = self.max.max(latency);
        if latency <= self.slo.target_ns {
            self.good += 1;
        } else {
            self.violations += 1;
        }
        let w = self
            .windows
            .entry(r.completed.0 / self.slo.window_ns)
            .or_insert((0, 0));
        w.0 += 1;
        if latency <= self.slo.target_ns {
            w.1 += 1;
        }
    }

    /// Accumulated downtime-free completion count so far (durable + still
    /// provisional).
    pub fn completed_so_far(&self) -> u64 {
        self.hist.total() + self.provisional.len() as u64
    }

    /// Finishes the run: folds all remaining provisional completions (no
    /// further rollback can undo them) and builds the report.
    pub fn collect(mut self) -> ServingReport {
        let recs = std::mem::take(&mut self.provisional);
        for r in recs {
            self.fold(r);
        }
        let windows = self
            .windows
            .iter()
            .map(|(&idx, &(completed, good))| ServingWindow {
                start_ns: idx * self.slo.window_ns,
                completed,
                good,
            })
            .collect();
        ServingReport {
            admitted: self.admitted,
            completed: self.hist.total(),
            mean_ns: match self.hist.total() {
                0 => 0.0,
                n => self.sum as f64 / n as f64,
            },
            max_ns: self.max,
            p50_ns: self.hist.p50(),
            p90_ns: self.hist.p90(),
            p99_ns: self.hist.p99(),
            p999_ns: self.hist.p999(),
            p9999_ns: self.hist.p9999(),
            ledger: SloLedger {
                target_ns: self.slo.target_ns,
                budget_ppm: self.slo.budget_ppm,
                window_ns: self.slo.window_ns,
                good: self.good,
                violations: self.violations,
            },
            windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slo() -> SloSpec {
        SloSpec {
            target_ns: 1_000,
            budget_ppm: 100_000,
            window_ns: 10_000,
        }
    }

    #[test]
    fn an_empty_run_reports_zero_latency_not_nan() {
        let r = ServingTracker::new(slo(), 4, 2).collect();
        assert_eq!((r.completed, r.mean_ns, r.max_ns), (0, 0.0, 0));
        assert_eq!((r.p50_ns, r.p9999_ns), (0, 0));
    }

    #[test]
    fn sync_and_async_completions_are_measured_from_arrival() {
        let mut t = ServingTracker::new(slo(), 4, 2);
        t.request_started(0, Ns(100));
        t.complete_now(0, 4, Ns(600));
        t.request_started(1, Ns(200));
        t.arm(1, 3, 4);
        t.store_completed(1, 2, Ns(900)); // wrong seq: not the commit write
        t.store_completed(1, 3, Ns(2_000));
        let r = t.collect();
        assert_eq!(r.admitted, 2);
        assert_eq!(r.completed, 2);
        assert_eq!(r.max_ns, 1_800);
        assert_eq!(r.mean_ns, 1_150.0);
        assert_eq!(r.ledger.good, 1);
        assert_eq!(r.ledger.violations, 1);
        assert_eq!(r.windows.len(), 1);
        assert_eq!(r.windows[0].completed, 2);
        assert_eq!(r.windows[0].good, 1);
    }

    #[test]
    fn rollback_drops_uncovered_completions_only() {
        let mut t = ServingTracker::new(slo(), 2, 1);
        t.request_started(0, Ns(0));
        t.complete_now(0, 2, Ns(500));
        t.request_started(0, Ns(1_000));
        t.complete_now(0, 4, Ns(1_500));
        // Roll back to a snapshot at fetch position 2 (no parked retry):
        // the second request re-executes, the first does not.
        t.drop_uncovered(|_| (2, false));
        t.request_started(0, Ns(1_000));
        t.complete_now(0, 4, Ns(9_000));
        let r = t.collect();
        assert_eq!(r.completed, 2);
        assert_eq!(r.max_ns, 8_000, "re-executed request keeps its arrival");
        // `admitted` counts re-admissions; completion counts do not double.
        assert_eq!(r.admitted, 3);
    }

    #[test]
    fn parked_retry_at_snapshot_keeps_its_request_provisional() {
        let mut t = ServingTracker::new(slo(), 2, 1);
        t.request_started(0, Ns(0));
        t.complete_now(0, 2, Ns(300));
        // Snapshot at position 2 but with the commit write parked for MSHR
        // retry: the completion happened after the snapshot, so a rollback
        // would re-execute it — it must not fold as durable…
        t.fold_durable(|_| (2, true));
        assert_eq!(t.completed_so_far(), 1);
        t.drop_uncovered(|_| (2, true));
        // …and the rollback drops it.
        t.complete_now(0, 2, Ns(800));
        let r = t.collect();
        assert_eq!(r.completed, 1);
        assert_eq!(r.max_ns, 800);
    }

    #[test]
    fn fold_durable_is_idempotent_over_checkpoints() {
        let mut t = ServingTracker::new(slo(), 2, 1);
        t.request_started(0, Ns(0));
        t.complete_now(0, 2, Ns(100));
        t.fold_durable(|_| (4, false));
        t.fold_durable(|_| (6, false));
        t.request_started(0, Ns(200));
        t.complete_now(0, 4, Ns(12_300));
        let r = t.collect();
        assert_eq!(r.completed, 2);
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.windows[0].start_ns, 0);
        assert_eq!(r.windows[1].start_ns, 10_000);
    }

    #[test]
    fn op_position_helpers() {
        let t = ServingTracker::new(slo(), 3, 1);
        assert!(t.is_first_op(1));
        assert!(!t.is_first_op(2));
        assert!(t.is_first_op(4));
        assert!(t.is_last_op(3));
        assert!(t.is_last_op(6));
        assert!(!t.is_last_op(4));
    }
}
