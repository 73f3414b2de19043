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
//! * [`IncrementalAudit`] — a sweep of every redundancy group's equations,
//!   attributing each violation to its stripe and redundancy home, that
//!   recomputes only the groups whose pages changed since its last sweep;
//!   [`audit_redundancy`] is the same sweep with every page changed.
//! * [`MemoryImage`] — a functional snapshot of memory keyed by *virtual*
//!   page, with word-exact [`MemoryImage::diff`], used to compare a golden
//!   (fault-free) run against an injected-and-recovered run.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

use revive_mem::addr::{LineAddr, PageAddr};
use revive_mem::line::LineData;
use revive_mem::main_memory::SharedPage;
use revive_sim::types::NodeId;

use crate::log::{RecordKind, ReplayEntry, ScannedRecord, RECORD_LINES};
use crate::redundancy::{GroupCheck, Redundancy};

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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
///
/// This is [`IncrementalAudit::sweep`] on an empty cache with every page
/// changed: there is one audit, and this is its full form.
pub fn audit_redundancy<F>(rdx: &Redundancy, read: F) -> ParityAudit
where
    F: FnMut(LineAddr) -> LineData,
{
    IncrementalAudit::default().sweep(rdx, |_| true, |_| false, read)
}

/// A redundancy audit that caches each group's verdict and recomputes
/// only the groups whose bytes may have changed since.
///
/// A group's verdict (the first line offset where its equations fail) is
/// a pure function of its member pages' bytes plus any overlay lines
/// `read` substitutes inside it. So a sweep reuses a cached verdict
/// exactly when all three hold:
///
/// * the group has one;
/// * none of its member pages changed since that verdict was computed;
/// * no overlay line falls in the group now.
///
/// A verdict computed with overlay lines in the group is never cached:
/// the overlay is gone by the next sweep while the bytes under it may not
/// have changed. Skipped groups still count in `groups_checked` and the
/// sweep order is unchanged, so every [`ParityAudit`] equals the full
/// [`audit_redundancy`] of the same reads.
#[derive(Debug, Default)]
pub struct IncrementalAudit {
    /// The cached verdict of the group anchored at each global page.
    verdicts: Vec<Option<Option<usize>>>,
    /// Buffers reused from group to group.
    check: GroupCheck,
}

impl IncrementalAudit {
    /// Sweeps every group of `rdx` as [`audit_redundancy`] does.
    /// `changed(page)` must hold for every page written since this
    /// audit's previous sweep, which covered the same layout, and
    /// `overlaid(page)` for every page where `read` returns anything but
    /// the page's stored bytes.
    pub fn sweep(
        &mut self,
        rdx: &Redundancy,
        changed: impl Fn(PageAddr) -> bool,
        overlaid: impl Fn(PageAddr) -> bool,
        mut read: impl FnMut(LineAddr) -> LineData,
    ) -> ParityAudit {
        let map = *rdx.address_map();
        self.verdicts
            .resize(map.nodes() * map.pages_per_node() as usize, None);
        let mut audit = ParityAudit::default();
        for node in NodeId::all(map.nodes()) {
            for page in map.pages_of(node) {
                if !rdx.is_group_anchor(page) {
                    continue;
                }
                audit.groups_checked += 1;
                self.check.load(rdx, page);
                let cached = &mut self.verdicts[page.index() as usize];
                let in_overlay = self.check.pages().any(&overlaid);
                let verdict = match *cached {
                    Some(verdict) if !in_overlay && !self.check.pages().any(&changed) => verdict,
                    _ => {
                        let verdict = self.check.check(&mut read);
                        *cached = (!in_overlay).then_some(verdict);
                        verdict
                    }
                };
                if let Some(offset) = verdict {
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
}

/// A functional snapshot of application memory keyed by *virtual* page.
///
/// Keying by virtual page makes the image placement-independent: two runs
/// that allocate the same virtual pages compare equal iff the application
/// data is identical, regardless of which physical frames first-touch
/// allocation happened to pick.
///
/// Pages are shared handles: an image shares every page it takes
/// unchanged from memory, so taking and cloning images copies only the
/// pages that were patched.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoryImage {
    pages: BTreeMap<u64, SharedPage>,
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
    pub fn insert_page(&mut self, vpage: u64, page: SharedPage) {
        self.pages.insert(vpage, page);
    }

    /// The contents of virtual page `vpage`, if the image holds it.
    pub fn page(&self, vpage: u64) -> Option<&[u8]> {
        self.pages.get(&vpage).map(|page| &page[..])
    }

    /// Word-exact comparison against another image.
    pub fn diff(&self, other: &MemoryImage) -> MemoryDiff {
        let mut d = MemoryDiff::default();
        for (&vpage, ours) in &self.pages {
            match other.pages.get(&vpage) {
                None => d.only_in_self.push(vpage),
                Some(theirs) if ours != theirs => {
                    let first_byte = ours.iter().zip(theirs.iter()).position(|(a, b)| a != b);
                    d.mismatched.push(PageMismatch {
                        vpage,
                        first_byte: first_byte.expect("the pages differ"),
                    });
                }
                Some(_) => {}
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

    /// Memory that reads zero except where written.
    type Sparse = std::collections::HashMap<LineAddr, LineData>;

    fn reader(mem: &Sparse) -> impl Fn(LineAddr) -> LineData + '_ {
        |l| mem.get(&l).copied().unwrap_or(LineData::ZERO)
    }

    /// 4 nodes of 4 pages under 3+1 XOR parity, and line `offset` of the
    /// first data page on node 1.
    fn xor_layout(offset: u64) -> (Redundancy, LineAddr) {
        let map = AddressMap::new(4, 4 * PAGE_SIZE as u64);
        let rdx = Redundancy::Xor(ParityMap::new(map, 3));
        let page = map
            .pages_of(NodeId(1))
            .find(|&p| !rdx.is_redundancy_page(p))
            .unwrap();
        (rdx, LineAddr(page.first_line().0 + offset))
    }

    #[test]
    fn incremental_audit_rereads_only_changed_groups() {
        let (rdx, bad) = xor_layout(5);
        let mut mem = Sparse::new();
        let mut audit = IncrementalAudit::default();
        assert!(audit
            .sweep(&rdx, |_| true, |_| false, reader(&mem))
            .is_clean());
        mem.insert(bad, LineData::fill(1));
        let found = audit.sweep(&rdx, |p| p == bad.page(), |_| false, reader(&mem));
        assert_eq!(found.violations.len(), 1);
        assert_eq!(found, audit_redundancy(&rdx, reader(&mem)));
        // A group no one reports as changed keeps its cached verdict: the
        // sweep never re-reads it.
        mem.clear();
        assert_eq!(audit.sweep(&rdx, |_| false, |_| false, reader(&mem)), found);
    }

    #[test]
    fn overlaid_verdicts_are_never_cached() {
        let (rdx, bad) = xor_layout(2);
        let parity = rdx.group_of(bad.page()).redundancy[0];
        let parity_line = LineAddr(parity.first_line().0 + 2);
        // Memory holds a data write whose parity update is still pending:
        // memory alone violates, memory with the update landed does not.
        let mut mem = Sparse::new();
        mem.insert(bad, LineData::fill(9));
        let mut audit = IncrementalAudit::default();
        let landed = audit.sweep(
            &rdx,
            |_| true,
            |p| p == parity,
            |l| match l == parity_line {
                true => LineData::fill(9),
                false => reader(&mem)(l),
            },
        );
        assert!(landed.is_clean());
        // The update never lands (say it died with a rollback): nothing
        // was written, yet the group must be re-read and found violated.
        let next = audit.sweep(&rdx, |_| false, |_| false, reader(&mem));
        assert_eq!(next.violations.len(), 1);
        assert_eq!(next, audit_redundancy(&rdx, reader(&mem)));
    }

    #[test]
    fn memory_image_diff_finds_first_divergence() {
        let page = |byte: u8| SharedPage::new([byte; PAGE_SIZE]);
        let mut a = MemoryImage::default();
        let mut b = MemoryImage::default();
        a.insert_page(1, page(0));
        b.insert_page(1, page(0));
        a.insert_page(2, page(1));
        let mut changed = page(1);
        SharedPage::make_mut(&mut changed)[17] = 9;
        b.insert_page(2, changed);
        a.insert_page(3, page(0));
        b.insert_page(4, page(0));
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
