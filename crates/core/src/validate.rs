//! Recovery-correctness validation.
//!
//! ReVive's correctness claim (Section 5.1) is that after rollback the
//! machine's memory is *exactly* the state at the recovered checkpoint —
//! value-for-value, not just structurally. This module supplies the three
//! independent oracles the differential harness in `revive-machine` checks
//! against:
//!
//! * [`ShadowLog`] — a software replica of one node's
//!   [`MemLog`](crate::log::MemLog) bookkeeping *and contents*, fed the
//!   same appends/markers/reclaims. Round-tripping
//!   [`MemLog::scan`](crate::log::MemLog::scan) and
//!   [`MemLog::rollback_entries`](crate::log::MemLog::rollback_entries)
//!   against it catches lost, phantom, or corrupted undo records (including
//!   in a log that was itself reconstructed from parity after a node loss).
//! * [`audit_redundancy`] — a full sweep of every redundancy group through
//!   [`StripeCode::check_group`](crate::redundancy::StripeCode::check_group),
//!   attributing each violation to its stripe and redundancy home.
//! * [`MemoryImage`] — a functional snapshot of memory keyed by *virtual*
//!   page, with word-exact [`MemoryImage::diff`], used to compare a golden
//!   (fault-free) run against an injected-and-recovered run.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

use revive_mem::addr::{LineAddr, PageAddr};
use revive_mem::line::LineData;
use revive_sim::types::NodeId;

use crate::log::{RecordKind, ReplayEntry, ScannedRecord, RECORD_LINES};
use crate::redundancy::Redundancy;

/// One record as the shadow believes it exists in log memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowRecord {
    /// Entry (with the logged line) or checkpoint marker.
    pub kind: RecordKind,
    /// Checkpoint interval the record was created in.
    pub interval: u64,
    /// Global append order.
    pub seq: u64,
    /// The saved pre-image (zero for markers).
    pub data: LineData,
}

/// Where a scanned or replayed log diverged from the shadow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogDivergence {
    /// The shadow expects this record but the log no longer yields it.
    Lost {
        /// Sequence number of the missing record.
        seq: u64,
    },
    /// The log yielded a record the shadow never saw appended.
    Phantom {
        /// Sequence number of the unexpected record.
        seq: u64,
    },
    /// Both sides have the record but disagree on a field.
    Mismatch {
        /// Sequence number of the diverging record.
        seq: u64,
        /// Which field disagrees.
        field: &'static str,
    },
}

impl fmt::Display for LogDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogDivergence::Lost { seq } => write!(f, "record seq {seq} lost"),
            LogDivergence::Phantom { seq } => write!(f, "phantom record seq {seq}"),
            LogDivergence::Mismatch { seq, field } => {
                write!(f, "record seq {seq} diverges on {field}")
            }
        }
    }
}

/// A software replica of one node's [`MemLog`](crate::log::MemLog).
///
/// The shadow mirrors the *physical* behavior of the memory log: a slot
/// array indexed by record position, where reclamation only moves pointers
/// (a reclaimed record stays scannable until its slot is overwritten) and
/// [`reset`](ShadowLog::reset) models the post-rollback scrub that zeroes
/// the log region.
#[derive(Clone, Debug)]
pub struct ShadowLog {
    capacity: usize,
    /// Physical record slots; `None` until first written (or after reset).
    slots: Vec<Option<ShadowRecord>>,
    /// `(seq, interval)` of live records, oldest first.
    records: VecDeque<(u64, u64)>,
    tail: usize,
    seq: u64,
}

impl ShadowLog {
    /// Creates a shadow for a log holding `capacity_records` records.
    pub fn new(capacity_records: usize) -> ShadowLog {
        ShadowLog {
            capacity: capacity_records,
            slots: vec![None; capacity_records],
            records: VecDeque::new(),
            tail: 0,
            seq: 0,
        }
    }

    fn push(&mut self, kind: RecordKind, interval: u64, data: LineData) {
        self.slots[self.tail] = Some(ShadowRecord {
            kind,
            interval,
            seq: self.seq,
            data,
        });
        self.records.push_back((self.seq, interval));
        self.seq += 1;
        self.tail = (self.tail + 1) % self.capacity;
    }

    /// Mirrors [`MemLog::append`](crate::log::MemLog::append).
    pub fn record_append(&mut self, interval: u64, line: LineAddr, old: LineData) {
        self.push(RecordKind::Entry { line }, interval, old);
    }

    /// Mirrors [`MemLog::mark_checkpoint`](crate::log::MemLog::mark_checkpoint).
    pub fn record_marker(&mut self, interval: u64) {
        self.push(RecordKind::CheckpointMarker, interval, LineData::ZERO);
    }

    /// Mirrors [`MemLog::reclaim_before`](crate::log::MemLog::reclaim_before):
    /// pointers move, slots keep their contents.
    pub fn reclaim_before(&mut self, interval: u64) {
        while let Some(&(_, rec_interval)) = self.records.front() {
            if rec_interval >= interval {
                break;
            }
            self.records.pop_front();
        }
    }

    /// Mirrors [`MemLog::reclaim_oldest_half`](crate::log::MemLog::reclaim_oldest_half).
    pub fn reclaim_oldest_half(&mut self) {
        let drop = self.records.len() / 2;
        for _ in 0..drop {
            self.records.pop_front();
        }
    }

    /// Models the post-rollback scrub + [`MemLog::reset`](crate::log::MemLog::reset):
    /// the machine zeroes the log region, so nothing remains scannable.
    pub fn reset(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.records.clear();
        self.tail = 0;
    }

    /// Every record physically present, `(physical slot index, record)`,
    /// sorted by sequence number — what an honest scan must yield.
    fn physical_records(&self) -> Vec<(usize, ShadowRecord)> {
        let mut out: Vec<(usize, ShadowRecord)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|r| (i, r)))
            .collect();
        out.sort_by_key(|(_, r)| r.seq);
        out
    }

    /// Checks a [`MemLog::scan`](crate::log::MemLog::scan) result against the
    /// shadow: every physically present record must appear exactly once with
    /// the right kind, interval, and slot — no lost, phantom, or reordered
    /// records.
    pub fn verify_scan(&self, scanned: &[ScannedRecord]) -> Vec<LogDivergence> {
        let expected = self.physical_records();
        let mut out = Vec::new();
        let mut e = expected.iter().peekable();
        let mut s = scanned.iter().peekable();
        loop {
            match (e.peek(), s.peek()) {
                (None, None) => break,
                (Some((_, er)), None) => {
                    out.push(LogDivergence::Lost { seq: er.seq });
                    e.next();
                }
                (None, Some(sr)) => {
                    out.push(LogDivergence::Phantom { seq: sr.seq });
                    s.next();
                }
                (Some((slot, er)), Some(sr)) => {
                    if er.seq < sr.seq {
                        out.push(LogDivergence::Lost { seq: er.seq });
                        e.next();
                    } else if sr.seq < er.seq {
                        out.push(LogDivergence::Phantom { seq: sr.seq });
                        s.next();
                    } else {
                        if sr.kind != er.kind {
                            out.push(LogDivergence::Mismatch {
                                seq: er.seq,
                                field: "kind",
                            });
                        } else if sr.interval != er.interval {
                            out.push(LogDivergence::Mismatch {
                                seq: er.seq,
                                field: "interval",
                            });
                        } else if sr.data_slot != slot * RECORD_LINES {
                            out.push(LogDivergence::Mismatch {
                                seq: er.seq,
                                field: "slot",
                            });
                        }
                        e.next();
                        s.next();
                    }
                }
            }
        }
        out
    }

    /// Checks a [`MemLog::rollback_entries`](crate::log::MemLog::rollback_entries)
    /// result for `target_interval` against the shadow: the replay stream
    /// must contain exactly the pre-images of every physically present entry
    /// with `interval >= target_interval`, newest first, byte-for-byte.
    pub fn verify_rollback(
        &self,
        target_interval: u64,
        entries: &[ReplayEntry],
    ) -> Vec<LogDivergence> {
        let mut expected: Vec<(LineAddr, ShadowRecord)> = self
            .physical_records()
            .into_iter()
            .filter_map(|(_, r)| match r.kind {
                RecordKind::Entry { line } if r.interval >= target_interval => Some((line, r)),
                _ => None,
            })
            .collect();
        expected.sort_by_key(|(_, r)| std::cmp::Reverse(r.seq));
        let mut out = Vec::new();
        for i in 0..expected.len().max(entries.len()) {
            match (expected.get(i), entries.get(i)) {
                (Some((_, er)), None) => out.push(LogDivergence::Lost { seq: er.seq }),
                (None, Some(en)) => out.push(LogDivergence::Phantom { seq: en.seq }),
                (Some((line, er)), Some(en)) => {
                    if en.seq != er.seq {
                        out.push(LogDivergence::Mismatch {
                            seq: er.seq,
                            field: "seq order",
                        });
                    } else if en.line != *line {
                        out.push(LogDivergence::Mismatch {
                            seq: er.seq,
                            field: "line",
                        });
                    } else if en.data != er.data {
                        out.push(LogDivergence::Mismatch {
                            seq: er.seq,
                            field: "data",
                        });
                    }
                }
                (None, None) => unreachable!(),
            }
        }
        out
    }
}

/// One parity group whose XOR invariant does not hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParityViolation {
    /// The group's parity page.
    pub parity_page: PageAddr,
    /// The stripe (local page index) of the group.
    pub stripe: u64,
    /// The node homing the parity page.
    pub node: NodeId,
    /// First violating line offset within the page.
    pub offset: usize,
}

impl fmt::Display for ParityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "group of {} (stripe {} on {}) violated at line offset {}",
            self.parity_page, self.stripe, self.node, self.offset
        )
    }
}

/// The result of a full parity sweep.
#[derive(Clone, Debug, Default)]
pub struct ParityAudit {
    /// Groups checked (one per parity page in the machine).
    pub groups_checked: u64,
    /// Groups whose XOR invariant failed.
    pub violations: Vec<ParityViolation>,
}

impl ParityAudit {
    /// Whether every group satisfied the invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Sweeps every redundancy group of the active backend, reading lines
/// through `read`, and reports each group whose invariant fails with its
/// stripe and redundancy-home node. Each group is visited exactly once, via
/// its first redundancy page (the parity page for XOR, P for P+Q, the
/// first replica for replication); that page is reported as the
/// violation's `parity_page`.
pub fn audit_redundancy<F>(rdx: &Redundancy, mut read: F) -> ParityAudit
where
    F: FnMut(LineAddr) -> LineData,
{
    let map = *rdx.address_map();
    let mut audit = ParityAudit::default();
    for node in NodeId::all(map.nodes()) {
        for page in map.pages_of(node) {
            if !rdx.is_redundancy_page(page) || rdx.group_of(page).redundancy[0] != page {
                continue;
            }
            audit.groups_checked += 1;
            if let Some(offset) = rdx.check_group(page, &mut read) {
                audit.violations.push(ParityViolation {
                    parity_page: page,
                    stripe: map.local_page_index(page),
                    node,
                    offset,
                });
            }
        }
    }
    audit
}

/// A functional snapshot of application memory keyed by *virtual* page.
///
/// Keying by virtual page makes the image placement-independent: two runs
/// that allocate the same virtual pages compare equal iff the application
/// data is identical, regardless of which physical frames first-touch
/// allocation happened to pick.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoryImage {
    /// Page contents by virtual page number.
    pub pages: BTreeMap<u64, Vec<u8>>,
}

/// One virtual page present in both images but with different contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageMismatch {
    /// The virtual page number.
    pub vpage: u64,
    /// Byte offset of the first difference within the page.
    pub first_byte: usize,
}

/// The difference between two [`MemoryImage`]s.
#[derive(Clone, Debug, Default)]
pub struct MemoryDiff {
    /// Virtual pages present only in the left image.
    pub only_in_self: Vec<u64>,
    /// Virtual pages present only in the right image.
    pub only_in_other: Vec<u64>,
    /// Pages present in both but with differing bytes.
    pub mismatched: Vec<PageMismatch>,
}

impl MemoryDiff {
    /// Whether the two images were word-for-word identical.
    pub fn is_match(&self) -> bool {
        self.only_in_self.is_empty() && self.only_in_other.is_empty() && self.mismatched.is_empty()
    }
}

impl fmt::Display for MemoryDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_match() {
            return write!(f, "images identical");
        }
        write!(
            f,
            "{} pages only left, {} only right, {} mismatched",
            self.only_in_self.len(),
            self.only_in_other.len(),
            self.mismatched.len()
        )?;
        if let Some(m) = self.mismatched.first() {
            write!(f, " (first: vpage {:#x} at byte {})", m.vpage, m.first_byte)?;
        }
        Ok(())
    }
}

impl MemoryImage {
    /// Records the contents of one virtual page.
    pub fn insert_page(&mut self, vpage: u64, bytes: Vec<u8>) {
        self.pages.insert(vpage, bytes);
    }

    /// Word-exact comparison against another image.
    pub fn diff(&self, other: &MemoryImage) -> MemoryDiff {
        let mut d = MemoryDiff::default();
        for (&vpage, bytes) in &self.pages {
            match other.pages.get(&vpage) {
                None => d.only_in_self.push(vpage),
                Some(theirs) => {
                    if let Some(first_byte) =
                        bytes.iter().zip(theirs.iter()).position(|(a, b)| a != b)
                    {
                        d.mismatched.push(PageMismatch { vpage, first_byte });
                    } else if bytes.len() != theirs.len() {
                        d.mismatched.push(PageMismatch {
                            vpage,
                            first_byte: bytes.len().min(theirs.len()),
                        });
                    }
                }
            }
        }
        for &vpage in other.pages.keys() {
            if !self.pages.contains_key(&vpage) {
                d.only_in_other.push(vpage);
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::MemLog;
    use crate::parity::ParityMap;
    use revive_coherence::port::{MemPort, VecPort};
    use revive_mem::addr::{AddressMap, PAGE_SIZE};

    fn setup(records: usize) -> (MemLog, ShadowLog, VecPort) {
        let slots: Vec<LineAddr> = (0..records * RECORD_LINES)
            .map(|i| LineAddr(1000 + i as u64))
            .collect();
        let port = VecPort::new(LineAddr(1000), records * RECORD_LINES);
        (MemLog::new(NodeId(0), slots), ShadowLog::new(records), port)
    }

    #[test]
    fn shadow_round_trips_scan_and_rollback() {
        let (mut log, mut shadow, mut mem) = setup(8);
        for i in 0..3u64 {
            let old = LineData::from_seed(i);
            log.append(0, LineAddr(10 + i), old, true, &mut mem);
            shadow.record_append(0, LineAddr(10 + i), old);
        }
        log.mark_checkpoint(1, true, &mut mem);
        shadow.record_marker(1);
        log.append(1, LineAddr(10), LineData::from_seed(9), true, &mut mem);
        shadow.record_append(1, LineAddr(10), LineData::from_seed(9));
        assert!(shadow.verify_scan(&log.scan(|l| mem.peek(l))).is_empty());
        assert!(shadow
            .verify_rollback(0, &log.rollback_entries(0, |l| mem.peek(l)))
            .is_empty());
        assert!(shadow
            .verify_rollback(1, &log.rollback_entries(1, |l| mem.peek(l)))
            .is_empty());
    }

    #[test]
    fn shadow_tracks_reclaim_and_wraparound() {
        let (mut log, mut shadow, mut mem) = setup(4);
        for i in 0..4u64 {
            log.append(i / 2, LineAddr(i), LineData::from_seed(i), true, &mut mem);
            shadow.record_append(i / 2, LineAddr(i), LineData::from_seed(i));
        }
        log.reclaim_before(1);
        shadow.reclaim_before(1);
        // Wrap: the freed slots are overwritten.
        for i in 4..6u64 {
            log.append(2, LineAddr(i), LineData::from_seed(i), true, &mut mem);
            shadow.record_append(2, LineAddr(i), LineData::from_seed(i));
        }
        assert!(shadow.verify_scan(&log.scan(|l| mem.peek(l))).is_empty());
        assert!(shadow
            .verify_rollback(1, &log.rollback_entries(1, |l| mem.peek(l)))
            .is_empty());
    }

    #[test]
    fn shadow_detects_corrupted_preimage() {
        let (mut log, mut shadow, mut mem) = setup(4);
        log.append(0, LineAddr(7), LineData::fill(0xAB), true, &mut mem);
        shadow.record_append(0, LineAddr(7), LineData::fill(0xAB));
        // Corrupt the data slot (first log line) behind the log's back.
        mem.write(LineAddr(1000), LineData::fill(0xEE));
        let div = shadow.verify_rollback(0, &log.rollback_entries(0, |l| mem.peek(l)));
        assert_eq!(
            div,
            vec![LogDivergence::Mismatch {
                seq: 0,
                field: "data"
            }]
        );
    }

    #[test]
    fn shadow_detects_lost_record() {
        let (mut log, mut shadow, mut mem) = setup(4);
        log.append(0, LineAddr(7), LineData::fill(1), true, &mut mem);
        shadow.record_append(0, LineAddr(7), LineData::fill(1));
        // Zero the metadata line: the record vanishes from scans.
        mem.write(LineAddr(1001), LineData::ZERO);
        let div = shadow.verify_scan(&log.scan(|l| mem.peek(l)));
        assert_eq!(div, vec![LogDivergence::Lost { seq: 0 }]);
    }

    #[test]
    fn shadow_reset_models_scrub() {
        let (mut log, mut shadow, mut mem) = setup(4);
        log.append(0, LineAddr(7), LineData::fill(1), true, &mut mem);
        shadow.record_append(0, LineAddr(7), LineData::fill(1));
        // Scrub: zero the log region, reset both.
        for l in log.slot_lines().to_vec() {
            mem.write(l, LineData::ZERO);
        }
        log.reset();
        shadow.reset();
        assert!(shadow.verify_scan(&log.scan(|l| mem.peek(l))).is_empty());
    }

    #[test]
    fn parity_audit_attributes_violations() {
        let map = AddressMap::new(4, 4 * PAGE_SIZE as u64);
        let parity = Redundancy::Xor(ParityMap::new(map, 3));
        let clean = audit_redundancy(&parity, |_| LineData::ZERO);
        assert!(clean.is_clean());
        assert_eq!(clean.groups_checked, 4); // one group per stripe
        let bad_line = map
            .pages_of(NodeId(1))
            .find(|&p| !parity.is_redundancy_page(p))
            .map(|p| LineAddr(p.first_line().0 + 3))
            .unwrap();
        let audit = audit_redundancy(&parity, |l| {
            if l == bad_line {
                LineData::fill(1)
            } else {
                LineData::ZERO
            }
        });
        assert_eq!(audit.violations.len(), 1);
        let v = audit.violations[0];
        assert_eq!(v.offset, 3);
        assert_eq!(
            v.parity_page,
            parity.group_of(bad_line.page()).redundancy[0]
        );
        assert_eq!(v.stripe, map.local_page_index(bad_line.page()));
    }

    #[test]
    fn memory_image_diff_finds_first_divergence() {
        let mut a = MemoryImage::default();
        let mut b = MemoryImage::default();
        a.insert_page(1, vec![0u8; 64]);
        b.insert_page(1, vec![0u8; 64]);
        a.insert_page(2, vec![1u8; 64]);
        let mut changed = vec![1u8; 64];
        changed[17] = 9;
        b.insert_page(2, changed);
        a.insert_page(3, vec![0u8; 64]);
        b.insert_page(4, vec![0u8; 64]);
        let d = a.diff(&b);
        assert!(!d.is_match());
        assert_eq!(d.only_in_self, vec![3]);
        assert_eq!(d.only_in_other, vec![4]);
        assert_eq!(
            d.mismatched,
            vec![PageMismatch {
                vpage: 2,
                first_byte: 17
            }]
        );
        assert!(a.diff(&a).is_match());
    }
}
