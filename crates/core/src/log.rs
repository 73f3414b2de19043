//! The memory-resident log (Section 3.2.2 of the paper).
//!
//! Before a home-memory line is overwritten for the first time after a
//! checkpoint, its previous (checkpoint) contents are copied to a log in the
//! *same node's* memory. The log region is itself parity-protected, so a
//! lost node's log can be reconstructed from the other nodes.
//!
//! ## On-memory format
//!
//! The log is a circular buffer of two-line *records*:
//!
//! * slot `2k`   — the saved line contents (or zero for markers);
//! * slot `2k+1` — the metadata line: a magic word, the logged line's global
//!   address, the checkpoint interval, a sequence number, and a checksum.
//!
//! The metadata line doubles as the paper's *Marker* (Section 4.2, "Atomic
//! Log Update Race"): it is written **after** the data line, so a record
//! without a valid metadata line is an incomplete append and is ignored by
//! recovery. Recovery never trusts the in-struct bookkeeping: it *scans* the
//! log memory for valid markers (this is what makes the log of a lost,
//! parity-reconstructed node usable — the pointers died with the node).
//!
//! Replaying in reverse sequence order makes redundant log entries (possible
//! when L bits are kept in a lossy directory cache, Section 4.1.2) harmless:
//! the oldest entry — the true checkpoint value — is applied last.
//!
//! ## Placement
//!
//! [`log_regions`] is the one place that decides which pages hold each
//! node's log: the top of the node's non-redundancy pages. Everything else
//! derives from its result — the log's own slots and
//! [`MemLog::pages`], and the machine's per-node boundary below which
//! pages are allocatable.

use revive_coherence::port::MemPort;
use revive_mem::addr::{LineAddr, PageAddr, LINE_SIZE};
use revive_mem::line::LineData;
use revive_sim::types::NodeId;

use crate::redundancy::StripeCode;

/// Lines per log record (data line + metadata line).
pub const RECORD_LINES: usize = 2;

/// Magic word identifying a valid data-entry metadata line.
const MAGIC_ENTRY: u64 = 0x5265_5669_7665_4C47; // "ReViveLG"
/// Magic word identifying a checkpoint-commit marker.
const MAGIC_CKPT: u64 = 0x5265_5669_7665_434B; // "ReViveCK"

/// What a scanned metadata line describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A saved pre-image of a memory line.
    Entry {
        /// The global line whose checkpoint contents were saved.
        line: LineAddr,
    },
    /// A checkpoint-commit marker (two-phase commit, Section 4.2).
    CheckpointMarker,
}

/// A record found by scanning the log memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScannedRecord {
    /// What the record is.
    pub kind: RecordKind,
    /// The checkpoint interval the record was created in.
    pub interval: u64,
    /// Global append order.
    pub seq: u64,
    /// The log slot index of the record's data line.
    pub data_slot: usize,
}

/// A log entry ready to be replayed into memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayEntry {
    /// The memory line to restore.
    pub line: LineAddr,
    /// Its checkpoint contents.
    pub data: LineData,
    /// Global append order (replay applies in descending order).
    pub seq: u64,
}

/// Log statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct LogStats {
    /// Data entries appended.
    pub appends: u64,
    /// Checkpoint markers written.
    pub markers: u64,
    /// High-water mark of live log bytes.
    pub high_water_bytes: u64,
    /// Records dropped by reclamation.
    pub reclaimed: u64,
}

/// Chooses every node's log region: the top `⌈protected × log_fraction⌉`
/// (at least one) non-redundancy pages of each node, where `protected`
/// counts node 0's non-redundancy pages. Returns each node's slot lines in
/// ascending order, ready for [`MemLog::new`]; `None` when the log would
/// leave no allocatable page.
pub fn log_regions(rdx: &StripeCode, log_fraction: f64) -> Option<Vec<Vec<LineAddr>>> {
    let map = rdx.address_map();
    let data_pages = |n| map.pages_of(n).filter(|&p| !rdx.is_redundancy_page(p));
    let protected = data_pages(NodeId(0)).count();
    let size = ((protected as f64 * log_fraction).ceil() as usize).max(1);
    if size >= protected {
        return None;
    }
    let regions = NodeId::all(map.nodes()).map(|n| {
        let pages: Vec<PageAddr> = data_pages(n).collect();
        let top = &pages[pages.len().saturating_sub(size)..];
        top.iter().flat_map(|p| p.lines()).collect()
    });
    Some(regions.collect())
}

/// The per-node memory log (see module docs).
///
/// The struct holds bookkeeping (pointers, statistics); the *contents* live
/// in node memory, written through the [`MemPort`] passed to each operation.
#[derive(Clone, Debug)]
pub struct MemLog {
    node: NodeId,
    slots: Vec<LineAddr>,
    head: usize,
    tail: usize,
    live_records: usize,
    /// `(seq, interval)` of live records in append order, for reclamation.
    records: std::collections::VecDeque<(u64, u64)>,
    seq: u64,
    stats: LogStats,
}

impl MemLog {
    /// Creates a log over the given memory lines (the node's log region, in
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two records fit or the slot count is odd.
    pub fn new(node: NodeId, slots: Vec<LineAddr>) -> MemLog {
        assert!(
            slots.len() >= 2 * RECORD_LINES,
            "log region too small ({} lines)",
            slots.len()
        );
        assert!(
            slots.len().is_multiple_of(RECORD_LINES),
            "log region must hold whole records"
        );
        MemLog {
            node,
            slots,
            head: 0,
            tail: 0,
            live_records: 0,
            records: std::collections::VecDeque::new(),
            seq: 0,
            stats: LogStats::default(),
        }
    }

    /// The node whose memory holds this log.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.slots.len() * LINE_SIZE) as u64
    }

    /// Live (unreclaimed) bytes.
    pub fn live_bytes(&self) -> u64 {
        (self.live_records * RECORD_LINES * LINE_SIZE) as u64
    }

    /// Fraction of the log currently occupied.
    pub fn utilization(&self) -> f64 {
        self.live_bytes() as f64 / self.capacity_bytes() as f64
    }

    /// Statistics so far.
    pub fn stats(&self) -> LogStats {
        self.stats
    }

    /// The memory lines backing the log (for parity-group bookkeeping).
    pub fn slot_lines(&self) -> &[LineAddr] {
        &self.slots
    }

    /// The pages holding the log, ascending and without repeats.
    pub fn pages(&self) -> Vec<PageAddr> {
        let mut pages: Vec<PageAddr> = self.slots.iter().map(|l| l.page()).collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// How many records fit (used to size validation shadows).
    pub fn capacity_records(&self) -> usize {
        self.slots.len() / RECORD_LINES
    }

    fn push_record(
        &mut self,
        meta: LineData,
        data: LineData,
        interval: u64,
        compute_deltas: bool,
        mem: &mut dyn MemPort,
    ) -> Vec<(LineAddr, LineData)> {
        assert!(
            self.live_records < self.capacity_records(),
            "log overflow on {}: {} records live (checkpoint more often or \
             enlarge the log region)",
            self.node,
            self.live_records
        );
        let data_slot = self.slots[self.tail];
        let meta_slot = self.slots[self.tail + 1];
        let mut out = Vec::with_capacity(2);
        // Order matters (Log-Data Update Race, Section 4.2): data first,
        // marker second. The parity deltas are computed against the slots'
        // previous contents so the group XOR invariant is preserved.
        for (slot, new) in [(data_slot, data), (meta_slot, meta)] {
            let delta = if compute_deltas {
                let old = mem.read(slot);
                old ^ new
            } else {
                new // mirroring: the mirror is overwritten with the new value
            };
            mem.write(slot, new);
            out.push((slot, delta));
        }
        self.records.push_back((self.seq, interval));
        self.seq += 1;
        self.tail = (self.tail + RECORD_LINES) % self.slots.len();
        self.live_records += 1;
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(self.live_bytes());
        out
    }

    /// Appends the pre-image of `line`. Returns `(slot, delta)` pairs for
    /// the parity updates of the written log lines (`delta` is the new
    /// contents when `compute_deltas` is false — the mirroring mode, which
    /// overwrites the mirror instead of XOR-updating parity).
    ///
    /// # Panics
    ///
    /// Panics if the log is full; the machine is expected to establish a
    /// checkpoint before that happens (see `revive-machine`'s early-
    /// checkpoint trigger).
    pub fn append(
        &mut self,
        interval: u64,
        line: LineAddr,
        old: LineData,
        compute_deltas: bool,
        mem: &mut dyn MemPort,
    ) -> Vec<(LineAddr, LineData)> {
        let mut meta = LineData::ZERO;
        meta.set_u64_at(0, MAGIC_ENTRY);
        meta.set_u64_at(8, line.0);
        meta.set_u64_at(16, interval);
        meta.set_u64_at(24, self.seq);
        meta.set_u64_at(32, MAGIC_ENTRY ^ line.0 ^ interval ^ self.seq);
        self.stats.appends += 1;
        self.push_record(meta, old, interval, compute_deltas, mem)
    }

    /// Writes a checkpoint-commit marker for `interval`. Part of the
    /// two-phase commit: a processor passing the first barrier marks the new
    /// checkpoint as established in its local log.
    pub fn mark_checkpoint(
        &mut self,
        interval: u64,
        compute_deltas: bool,
        mem: &mut dyn MemPort,
    ) -> Vec<(LineAddr, LineData)> {
        let mut meta = LineData::ZERO;
        meta.set_u64_at(0, MAGIC_CKPT);
        meta.set_u64_at(16, interval);
        meta.set_u64_at(24, self.seq);
        meta.set_u64_at(32, MAGIC_CKPT ^ interval ^ self.seq);
        self.stats.markers += 1;
        self.push_record(meta, LineData::ZERO, interval, compute_deltas, mem)
    }

    /// Frees all records created in intervals before `interval` (after
    /// establishing checkpoint `N` with two checkpoints retained, records
    /// from interval `N-2` are reclaimed). Only pointers move — the paper's
    /// "moving the log head pointer and a few bookkeeping operations".
    pub fn reclaim_before(&mut self, interval: u64) {
        while let Some(&(_, rec_interval)) = self.records.front() {
            if rec_interval >= interval {
                break;
            }
            self.records.pop_front();
            self.head = (self.head + RECORD_LINES) % self.slots.len();
            self.live_records -= 1;
            self.stats.reclaimed += 1;
        }
    }

    /// Scans the log *memory* for valid records, ignoring bookkeeping. This
    /// is how a reconstructed (formerly lost) log is read: pointers did not
    /// survive, but markers are self-describing.
    pub fn scan<F>(&self, mut read: F) -> Vec<ScannedRecord>
    where
        F: FnMut(LineAddr) -> LineData,
    {
        let mut found = Vec::new();
        for rec in 0..self.capacity_records() {
            let meta = read(self.slots[rec * RECORD_LINES + 1]);
            let magic = meta.u64_at(0);
            if magic != MAGIC_ENTRY && magic != MAGIC_CKPT {
                continue;
            }
            let line = meta.u64_at(8);
            let interval = meta.u64_at(16);
            let seq = meta.u64_at(24);
            let checksum = meta.u64_at(32);
            if checksum != magic ^ line ^ interval ^ seq {
                continue; // torn or stale metadata: not a valid marker
            }
            let kind = if magic == MAGIC_ENTRY {
                RecordKind::Entry {
                    line: LineAddr(line),
                }
            } else {
                RecordKind::CheckpointMarker
            };
            found.push(ScannedRecord {
                kind,
                interval,
                seq,
                data_slot: rec * RECORD_LINES,
            });
        }
        found.sort_by_key(|r| r.seq);
        found
    }

    /// Produces the entries needed to roll memory back to the state at the
    /// start of `target_interval`, in replay (descending-seq) order. Based
    /// on a scan, so it works on reconstructed logs.
    pub fn rollback_entries<F>(&self, target_interval: u64, mut read: F) -> Vec<ReplayEntry>
    where
        F: FnMut(LineAddr) -> LineData,
    {
        let mut scanned = self.scan(&mut read);
        scanned.retain(|r| r.interval >= target_interval);
        scanned.sort_by_key(|r| std::cmp::Reverse(r.seq));
        scanned
            .into_iter()
            .filter_map(|r| match r.kind {
                RecordKind::Entry { line } => Some(ReplayEntry {
                    line,
                    data: read(self.slots[r.data_slot]),
                    seq: r.seq,
                }),
                RecordKind::CheckpointMarker => None,
            })
            .collect()
    }

    /// Drops the oldest half of the live records regardless of interval.
    /// Only used by the infinite-checkpoint-interval measurement
    /// configurations (the paper's CpInf bars), which never commit
    /// checkpoints and therefore never reclaim; recovery is not meaningful
    /// in those runs.
    pub fn reclaim_oldest_half(&mut self) {
        let drop = self.live_records / 2;
        for _ in 0..drop {
            self.records.pop_front();
            self.head = (self.head + RECORD_LINES) % self.slots.len();
            self.live_records -= 1;
            self.stats.reclaimed += 1;
        }
    }

    /// Forgets all bookkeeping (used after a rollback: the replayed log
    /// space belongs to discarded intervals).
    pub fn reset(&mut self) {
        self.head = 0;
        self.tail = 0;
        self.live_records = 0;
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revive_coherence::port::VecPort;

    fn setup(records: usize) -> (MemLog, VecPort) {
        let slots: Vec<LineAddr> = (0..records * RECORD_LINES)
            .map(|i| LineAddr(1000 + i as u64))
            .collect();
        let port = VecPort::new(LineAddr(1000), records * RECORD_LINES);
        (MemLog::new(NodeId(0), slots), port)
    }

    #[test]
    fn append_writes_data_then_marker() {
        let (mut log, mut mem) = setup(4);
        let deltas = log.append(0, LineAddr(42), LineData::fill(7), true, &mut mem);
        assert_eq!(deltas.len(), 2);
        // Data slot holds the pre-image.
        assert_eq!(mem.peek(LineAddr(1000)), LineData::fill(7));
        // Meta slot is a valid marker.
        let scanned = log.scan(|l| mem.peek(l));
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].kind, RecordKind::Entry { line: LineAddr(42) });
        assert_eq!(scanned[0].interval, 0);
    }

    #[test]
    fn deltas_equal_old_xor_new_in_parity_mode() {
        let (mut log, mut mem) = setup(4);
        // Pre-dirty the first slot so the delta is nontrivial.
        mem.write(LineAddr(1000), LineData::fill(0xF0));
        mem.reset_counts();
        let deltas = log.append(0, LineAddr(1), LineData::fill(0x0F), true, &mut mem);
        assert_eq!(deltas[0].0, LineAddr(1000));
        assert_eq!(deltas[0].1, LineData::fill(0xFF));
        // 2 reads (old slot contents) + 2 writes.
        assert_eq!((mem.reads, mem.writes), (2, 2));
    }

    #[test]
    fn mirror_mode_skips_reads() {
        let (mut log, mut mem) = setup(4);
        let deltas = log.append(0, LineAddr(1), LineData::fill(0x55), false, &mut mem);
        assert_eq!(mem.reads, 0);
        assert_eq!(deltas[0].1, LineData::fill(0x55)); // new value, not a delta
    }

    #[test]
    fn rollback_entries_are_reverse_ordered_and_filtered() {
        let (mut log, mut mem) = setup(8);
        log.append(0, LineAddr(10), LineData::fill(1), true, &mut mem);
        log.mark_checkpoint(1, true, &mut mem);
        log.append(1, LineAddr(11), LineData::fill(2), true, &mut mem);
        log.append(1, LineAddr(10), LineData::fill(3), true, &mut mem);
        let entries = log.rollback_entries(1, |l| mem.peek(l));
        // Only interval >= 1 entries, newest first; the marker is skipped.
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].line, LineAddr(10));
        assert_eq!(entries[0].data, LineData::fill(3));
        assert_eq!(entries[1].line, LineAddr(11));
        // Rolling back to interval 0 includes everything.
        let all = log.rollback_entries(0, |l| mem.peek(l));
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].data, LineData::fill(1));
    }

    #[test]
    fn reclamation_frees_space() {
        let (mut log, mut mem) = setup(4);
        for i in 0..4u64 {
            log.append(i / 2, LineAddr(i), LineData::ZERO, true, &mut mem);
        }
        assert_eq!(log.utilization(), 1.0);
        log.reclaim_before(1); // drop interval-0 records
        assert_eq!(log.stats().reclaimed, 2);
        assert_eq!(log.utilization(), 0.5);
        // Space is reusable.
        log.append(2, LineAddr(9), LineData::ZERO, true, &mut mem);
        log.append(2, LineAddr(9), LineData::ZERO, true, &mut mem);
        assert_eq!(log.utilization(), 1.0);
    }

    #[test]
    #[should_panic(expected = "log overflow")]
    fn overflow_panics() {
        let (mut log, mut mem) = setup(2);
        for i in 0..3u64 {
            log.append(0, LineAddr(i), LineData::ZERO, true, &mut mem);
        }
    }

    #[test]
    fn stale_reclaimed_records_are_interval_filtered() {
        let (mut log, mut mem) = setup(4);
        log.append(0, LineAddr(1), LineData::fill(1), true, &mut mem);
        log.append(0, LineAddr(2), LineData::fill(2), true, &mut mem);
        log.reclaim_before(5);
        // The records are still physically in memory (pointers only moved)…
        assert_eq!(log.scan(|l| mem.peek(l)).len(), 2);
        // …but a rollback to interval 5 ignores them.
        assert!(log.rollback_entries(5, |l| mem.peek(l)).is_empty());
    }

    #[test]
    fn torn_marker_is_ignored() {
        let (mut log, mut mem) = setup(4);
        log.append(0, LineAddr(1), LineData::fill(1), true, &mut mem);
        // Corrupt the metadata checksum: simulates an error mid-append.
        let meta_slot = LineAddr(1001);
        let mut meta = mem.peek(meta_slot);
        meta.set_u64_at(32, 0xBAD);
        mem.write(meta_slot, meta);
        assert!(log.scan(|l| mem.peek(l)).is_empty());
        assert!(log.rollback_entries(0, |l| mem.peek(l)).is_empty());
    }

    #[test]
    fn high_water_tracks_peak() {
        let (mut log, mut mem) = setup(4);
        for i in 0..3u64 {
            log.append(0, LineAddr(i), LineData::ZERO, true, &mut mem);
        }
        log.reclaim_before(1);
        assert_eq!(log.stats().high_water_bytes, 3 * 2 * 64);
        assert_eq!(log.live_bytes(), 0);
    }

    #[test]
    fn reclaim_before_is_a_strict_interval_cut() {
        let (mut log, mut mem) = setup(8);
        // Two records each in intervals 0, 1, 2.
        for interval in 0..3u64 {
            for i in 0..2u64 {
                log.append(
                    interval,
                    LineAddr(interval * 10 + i),
                    LineData::ZERO,
                    true,
                    &mut mem,
                );
            }
        }
        log.reclaim_before(0); // no-op: nothing precedes interval 0
        assert_eq!(log.stats().reclaimed, 0);
        log.reclaim_before(2); // drops intervals 0 and 1, keeps 2
        assert_eq!(log.stats().reclaimed, 4);
        assert_eq!(log.live_bytes(), 2 * 2 * 64);
        // Idempotent.
        log.reclaim_before(2);
        assert_eq!(log.stats().reclaimed, 4);
    }

    /// The rollback window at its edge: the commit of checkpoint `c` frees
    /// exactly the records that only targets older than the oldest
    /// recoverable checkpoint need. Once the tail wraps over every freed
    /// slot, a rollback to the oldest recoverable checkpoint still
    /// restores its values, while the target one interval older — the
    /// error detected after exactly `retained` commits — has lost them.
    #[test]
    fn oldest_recoverable_checkpoint_survives_a_wrap_over_freed_slots() {
        let ckpt = crate::checkpoint::CheckpointConfig::default();
        let (mut log, mut mem) = setup(6);
        let x = LineAddr(1);
        let commit = |log: &mut MemLog, mem: &mut VecPort, c: u64| {
            log.mark_checkpoint(c, true, mem);
            log.reclaim_before(ckpt.oldest_recoverable(c));
        };
        // The error struck in interval 1 and was detected after
        // `retained` more commits. Line `x` holds `fill(c)` at checkpoint
        // `c`; each interval's first write logs that value.
        let (target, counter) = (1, 1 + ckpt.retained);
        log.append(0, x, LineData::fill(0), true, &mut mem);
        for c in 1..counter {
            commit(&mut log, &mut mem, c);
            log.append(c, x, LineData::fill(c as u8), true, &mut mem);
        }
        commit(&mut log, &mut mem, counter);
        while log.utilization() < 1.0 {
            log.append(counter, LineAddr(9), LineData::ZERO, true, &mut mem);
        }
        let oldest = ckpt.oldest_recoverable(counter);
        assert_eq!(oldest, target + 1, "the target sits just past the edge");
        let restored = |t: u64| {
            let entries = log.rollback_entries(t, |l| mem.peek(l));
            entries.iter().rev().find(|e| e.line == x).map(|e| e.data)
        };
        assert_eq!(restored(oldest), Some(LineData::fill(oldest as u8)));
        assert_ne!(restored(target), Some(LineData::fill(target as u8)));
    }

    #[test]
    fn reclaim_oldest_half_keeps_newest() {
        let (mut log, mut mem) = setup(8);
        for i in 0..6u64 {
            log.append(0, LineAddr(i), LineData::fill(i as u8), true, &mut mem);
        }
        log.reclaim_oldest_half();
        assert_eq!(log.stats().reclaimed, 3);
        assert_eq!(log.live_bytes(), 3 * 2 * 64);
        // Freed slots are reused from the oldest position; the newest
        // records (3, 4, 5) survive until overwritten.
        log.append(0, LineAddr(9), LineData::ZERO, true, &mut mem);
        let entries = log.rollback_entries(0, |l| mem.peek(l));
        let lines: Vec<u64> = entries.iter().map(|e| e.line.0).collect();
        assert!(lines.contains(&3) && lines.contains(&4) && lines.contains(&5));
        assert!(lines.contains(&9));
    }

    #[test]
    fn circular_wraparound_drops_and_invents_nothing() {
        // Append far past the capacity (with interleaved reclamation so the
        // log never overflows) and check the scan sees exactly the records
        // whose slots were not overwritten — no phantom or dropped records.
        let (mut log, mut mem) = setup(4);
        for round in 0..13u64 {
            log.append(
                round,
                LineAddr(100 + round),
                LineData::fill(round as u8),
                true,
                &mut mem,
            );
            log.reclaim_before(round.saturating_sub(1)); // keep ≤2 live
        }
        let scanned = log.scan(|l| mem.peek(l));
        // 13 appends into 4 physical slots: exactly the last 4 remain.
        let seqs: Vec<u64> = scanned.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![9, 10, 11, 12]);
        for r in &scanned {
            assert_eq!(
                r.kind,
                RecordKind::Entry {
                    line: LineAddr(100 + r.interval)
                }
            );
            // The pre-image in the data slot is intact.
            assert_eq!(
                mem.peek(LineAddr(1000 + r.data_slot as u64)),
                LineData::fill(r.interval as u8)
            );
        }
        // Replay from the live window only.
        let entries = log.rollback_entries(12, |l| mem.peek(l));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].line, LineAddr(112));
        assert_eq!(entries[0].data, LineData::fill(12));
    }

    #[test]
    fn wraparound_preserves_alignment() {
        let (mut log, mut mem) = setup(4);
        for round in 0..6u64 {
            log.append(
                round,
                LineAddr(round),
                LineData::fill(round as u8),
                true,
                &mut mem,
            );
            log.reclaim_before(round); // keep at most 2 records live
        }
        let entries = log.rollback_entries(5, |l| mem.peek(l));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].data, LineData::fill(5));
    }
}
