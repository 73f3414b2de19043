//! Property-based tests of the ReVive invariants (DESIGN.md §5): the
//! parity-group invariant, log-replay exactness under arbitrary write
//! sequences, robustness to lossy L bits (redundant entries), and the §4.2
//! ordering races.

use revive_coherence::port::MemPort;
use revive_core::lbits::LBits;
use revive_core::log::{MemLog, RECORD_LINES};
use revive_core::parity::ParityMap;
use revive_core::StripeCode;
use revive_mem::addr::{AddressMap, LineAddr, PageAddr, PAGE_SIZE};
use revive_mem::line::LineData;
use revive_mem::main_memory::NodeMemory;
use revive_sim::rng::DetRng;
use revive_sim::types::NodeId;

/// A miniature functional machine: 4 nodes × 4 pages, 3+1 parity, a log in
/// each node's highest data page, and hardware-faithful write semantics
/// (log-before-data, parity on every memory write).
struct MiniWorld {
    map: AddressMap,
    parity: StripeCode,
    memories: Vec<NodeMemory>,
    logs: Vec<MemLog>,
    lbits: Vec<LBits>,
    interval: u64,
}

struct NodePort<'a> {
    mem: &'a mut NodeMemory,
    map: AddressMap,
}

impl MemPort for NodePort<'_> {
    fn read(&mut self, line: LineAddr) -> LineData {
        self.mem.read_line(self.map.local_line_index(line))
    }
    fn write(&mut self, line: LineAddr, data: LineData) {
        self.mem.write_line(self.map.local_line_index(line), data);
    }
}

impl MiniWorld {
    fn new(lossy_lbits: Option<usize>) -> MiniWorld {
        let map = AddressMap::new(4, 4 * PAGE_SIZE as u64);
        let parity = ParityMap::new(map, 3);
        let memories = (0..4).map(|_| NodeMemory::new(4 * PAGE_SIZE)).collect();
        let logs = (0..4)
            .map(|n| {
                let node = NodeId::from(n);
                let page = (0..4u64)
                    .rev()
                    .map(|s| map.global_page(node, s))
                    .find(|&p| !parity.is_redundancy_page(p))
                    .expect("a data page exists");
                MemLog::new(node, page.lines().collect())
            })
            .collect();
        let lbits = (0..4)
            .map(|_| match lossy_lbits {
                Some(cap) => LBits::dir_cache(map.lines_per_node(), cap),
                None => LBits::full(map.lines_per_node()),
            })
            .collect();
        MiniWorld {
            map,
            parity,
            memories,
            logs,
            lbits,
            interval: 0,
        }
    }

    /// One of the writable (non-parity, non-log) lines, by dense index.
    fn app_lines(&self) -> Vec<LineAddr> {
        let mut out = Vec::new();
        for n in 0..4 {
            let node = NodeId::from(n);
            let log_pages = self.logs[n].pages();
            for page in self.map.pages_of(node) {
                if self.parity.is_redundancy_page(page) || log_pages.contains(&page) {
                    continue;
                }
                out.push(LineAddr(page.first_line().0 + (n as u64 * 3) % 64));
                out.push(LineAddr(page.first_line().0 + 17 + n as u64));
            }
        }
        out
    }

    /// XORs the parity delta of a write to `line` into its parity line.
    fn apply_delta(&mut self, line: LineAddr, delta: LineData) {
        for (pline, d) in self.parity.expand_update(line, delta) {
            let home = self.map.home_of_line(pline).index();
            let local = self.map.local_line_index(pline);
            self.memories[home].xor_line(local, d);
        }
    }

    /// The hardware write path: first write per interval logs the old
    /// contents (with log parity), every write updates data parity.
    fn logged_write(&mut self, line: LineAddr, new: LineData) {
        let node = self.map.home_of_line(line).index();
        let local = self.map.local_line_index(line);
        let old = self.memories[node].read_line(local);
        if !self.lbits[node].is_logged(local) {
            let deltas = {
                let mut port = NodePort {
                    mem: &mut self.memories[node],
                    map: self.map,
                };
                self.logs[node].append(self.interval, line, old, true, &mut port)
            };
            for (slot, delta) in deltas {
                self.apply_delta(slot, delta);
            }
            self.lbits[node].set_logged(local);
        }
        self.memories[node].write_line(local, new);
        self.apply_delta(line, old ^ new);
    }

    fn commit_checkpoint(&mut self) {
        self.interval += 1;
        for n in 0..4 {
            let deltas = {
                let mut port = NodePort {
                    mem: &mut self.memories[n],
                    map: self.map,
                };
                self.logs[n].mark_checkpoint(self.interval, true, &mut port)
            };
            for (slot, delta) in deltas {
                self.apply_delta(slot, delta);
            }
            self.lbits[n].gang_clear();
            self.logs[n].reclaim_before(self.interval.saturating_sub(1));
        }
    }

    fn check_parity_everywhere(&self) -> Result<(), String> {
        for n in 0..4 {
            for page in self.map.pages_of(NodeId::from(n)) {
                if self.parity.is_redundancy_page(page) {
                    continue;
                }
                if let Some(off) = self.parity.check_group(page, |l| {
                    self.memories[self.map.home_of_line(l).index()]
                        .read_line(self.map.local_line_index(l))
                }) {
                    return Err(format!("group of {page} violated at offset {off}"));
                }
            }
        }
        Ok(())
    }

    fn snapshot(&self) -> Vec<Vec<u8>> {
        self.memories.iter().map(NodeMemory::snapshot).collect()
    }

    /// Rolls every node back to `target` via scan-based replay (the same
    /// algorithm recovery uses), maintaining parity.
    fn rollback(&mut self, target: u64) {
        for n in 0..4 {
            let entries = self.logs[n].rollback_entries(target, |l| {
                self.memories[n].read_line(self.map.local_line_index(l))
            });
            for e in entries {
                let local = self.map.local_line_index(e.line);
                let old = self.memories[n].read_line(local);
                self.memories[n].write_line(local, e.data);
                self.apply_delta(e.line, old ^ e.data);
            }
        }
    }
}

impl MiniWorld {
    /// Runs the real recovery engine (the one the machine uses) against
    /// this world.
    fn recover_engine(&mut self, target: u64, lost: Option<usize>) {
        if let Some(l) = lost {
            self.memories[l].destroy();
        }
        let lost_nodes: Vec<NodeId> = lost.map(NodeId::from).into_iter().collect();
        let logs: Vec<&MemLog> = self.logs.iter().collect();
        let timing = revive_core::recovery::RecoveryTiming::derive(3, 3);
        let redundancy = revive_core::Redundancy::Xor(self.parity);
        revive_core::recovery::recover(
            revive_core::recovery::RecoveryInput {
                memories: &mut self.memories,
                logs: &logs,
                redundancy: &redundancy,
                target_interval: target,
                lost: &lost_nodes,
            },
            &timing,
        )
        .expect("within-budget recovery");
    }
}

/// A random trace of (line index, value seed, checkpoint?) steps.
fn trace(rng: &mut DetRng) -> Vec<(usize, u64, bool)> {
    let len = rng.range(1, 120);
    (0..len)
        .map(|_| (rng.index(64), rng.next_u64(), rng.chance(0.08)))
        .collect()
}

const CASES: u64 = 64;

/// After any write/checkpoint trace, every parity group XORs to zero.
#[test]
fn parity_invariant_holds() {
    let mut rng = DetRng::seed(0x9a21);
    for _ in 0..CASES {
        let mut w = MiniWorld::new(None);
        let lines = w.app_lines();
        for (i, seed, ckpt) in trace(&mut rng) {
            if ckpt {
                w.commit_checkpoint();
            } else {
                w.logged_write(lines[i % lines.len()], LineData::from_seed(seed));
            }
        }
        assert!(w.check_parity_everywhere().is_ok());
    }
}

/// Rollback to the latest checkpoint restores the exact memory image
/// captured at its commit — for any interleaving of writes.
#[test]
#[allow(clippy::needless_range_loop)] // node index names both memories and reference
fn rollback_is_value_exact() {
    let mut rng = DetRng::seed(0x2011b);
    for _ in 0..CASES {
        let mut w = MiniWorld::new(None);
        let lines = w.app_lines();
        for (i, seed, _) in trace(&mut rng) {
            w.logged_write(lines[i % lines.len()], LineData::from_seed(seed));
        }
        w.commit_checkpoint();
        let target = w.interval;
        let reference = w.snapshot();
        for (i, seed, _) in trace(&mut rng) {
            w.logged_write(lines[i % lines.len()], LineData::from_seed(seed));
        }
        w.rollback(target);
        // Compare every non-log page (log pages legitimately accumulated
        // the `after` records).
        let log_pages: Vec<PageAddr> = w.logs.iter().flat_map(MemLog::pages).collect();
        for n in 0..4 {
            for page in w.map.pages_of(NodeId::from(n)) {
                if log_pages.contains(&page) || w.parity.is_redundancy_page(page) {
                    continue;
                }
                for line in page.lines() {
                    let local = w.map.local_line_index(line);
                    let got = w.memories[n].read_line(local);
                    let base = (local * 64) as usize;
                    let want: [u8; 64] =
                        reference[n][base..base + 64].try_into().expect("64 bytes");
                    assert_eq!(got, LineData::from(want), "line {line} differs");
                }
            }
        }
        // And replay maintained parity throughout.
        assert!(w.check_parity_everywhere().is_ok());
    }
}

/// Lossy L bits (directory-cache mode, Section 4.1.2) produce redundant
/// log entries but never break rollback: reverse-order replay applies
/// the oldest (true checkpoint) value last.
#[test]
fn lossy_lbits_never_break_rollback() {
    let mut rng = DetRng::seed(0x1b175);
    for _ in 0..CASES {
        let cap = rng.range(1, 8) as usize;
        let mut w = MiniWorld::new(Some(cap));
        let lines = w.app_lines();
        w.commit_checkpoint();
        let mut target = w.interval;
        let mut reference = w.snapshot();
        for (i, seed, _) in trace(&mut rng) {
            // Lossy L bits re-log the same line within one interval, so a
            // long interval can exhaust the log. The real machine forces an
            // early checkpoint at high log utilization
            // (`System::maybe_early_checkpoint`); model the same policy.
            if w.logs.iter().any(|l| l.utilization() >= 0.5) {
                w.commit_checkpoint();
                target = w.interval;
                reference = w.snapshot();
            }
            w.logged_write(lines[i % lines.len()], LineData::from_seed(seed));
        }
        w.rollback(target);
        for (n, memory) in w.memories.iter().enumerate() {
            let log_pages = w.logs[n].pages();
            for page in w.map.pages_of(NodeId::from(n)) {
                if log_pages.contains(&page) || w.parity.is_redundancy_page(page) {
                    continue;
                }
                for line in page.lines() {
                    let local = w.map.local_line_index(line);
                    let base = (local * 64) as usize;
                    let want: [u8; 64] =
                        reference[n][base..base + 64].try_into().expect("64 bytes");
                    assert_eq!(memory.read_line(local), LineData::from(want));
                }
            }
        }
    }
}

/// The full recovery engine, fuzzed: arbitrary pre/post-checkpoint
/// writes, an arbitrary lost node (or none) — recovery must restore
/// every application line to the checkpoint image and re-establish the
/// global parity invariant.
#[test]
fn recovery_engine_is_exact_for_any_lost_node() {
    let mut rng = DetRng::seed(0x2ec0);
    for _ in 0..CASES {
        let lost = if rng.chance(0.8) {
            Some(rng.index(4))
        } else {
            None
        };
        let mut w = MiniWorld::new(None);
        let lines = w.app_lines();
        for (i, seed, _) in trace(&mut rng) {
            w.logged_write(lines[i % lines.len()], LineData::from_seed(seed));
        }
        w.commit_checkpoint();
        let target = w.interval;
        let reference = w.snapshot();
        for (i, seed, _) in trace(&mut rng) {
            w.logged_write(lines[i % lines.len()], LineData::from_seed(seed));
        }
        w.recover_engine(target, lost);
        let log_pages: Vec<PageAddr> = w.logs.iter().flat_map(MemLog::pages).collect();
        for (n, memory) in w.memories.iter().enumerate() {
            for page in w.map.pages_of(NodeId::from(n)) {
                if log_pages.contains(&page) || w.parity.is_redundancy_page(page) {
                    continue;
                }
                for line in page.lines() {
                    let local = w.map.local_line_index(line);
                    let base = (local * 64) as usize;
                    let want: [u8; 64] =
                        reference[n][base..base + 64].try_into().expect("64 bytes");
                    assert_eq!(
                        memory.read_line(local),
                        LineData::from(want),
                        "node {n} line {line} differs (lost={lost:?})"
                    );
                }
            }
        }
        assert!(w.check_parity_everywhere().is_ok());
    }
}

/// The §4.2 "Atomic Log Update" race: corrupting the *last* record's
/// marker (an append cut short by an error) makes recovery skip exactly
/// that record and still restore the previous checkpoint correctly.
#[test]
#[allow(clippy::needless_range_loop)] // node index names both memories and reference
fn torn_tail_record_is_skipped() {
    let mut rng = DetRng::seed(0x70a2);
    for _ in 0..CASES {
        let mut w = MiniWorld::new(None);
        let lines = w.app_lines();
        w.commit_checkpoint();
        let target = w.interval;
        let reference = w.snapshot();
        let n_writes = rng.range(1, 20);
        for _ in 0..n_writes {
            let i = rng.index(16);
            let seed = rng.next_u64();
            w.logged_write(lines[i % lines.len()], LineData::from_seed(seed));
        }
        // Tear the most recent record's marker on node 0 (if it has one).
        let scanned = w.logs[0].scan(|l| w.memories[0].read_line(w.map.local_line_index(l)));
        if let Some(last) = scanned.last() {
            let marker_slot = w.logs[0].slot_lines()[last.data_slot + RECORD_LINES - 1];
            let local = w.map.local_line_index(marker_slot);
            let mut torn = w.memories[0].read_line(local);
            torn.set_u64_at(32, 0xDEAD_BEEF);
            w.memories[0].write_line(local, torn);
            // The torn record vanishes from the scan…
            let rescanned = w.logs[0].scan(|l| w.memories[0].read_line(w.map.local_line_index(l)));
            assert_eq!(rescanned.len() + 1, scanned.len());
        }
        // …and rollback still restores every line that *was* durably
        // logged. (The torn record's line may retain its post-checkpoint
        // value — the paper's semantics: an incomplete log entry means the
        // data write it guarded never happened.)
        w.rollback(target);
        for n in 1..4 {
            let log_pages = w.logs[n].pages();
            for page in w.map.pages_of(NodeId::from(n)) {
                if log_pages.contains(&page) || w.parity.is_redundancy_page(page) {
                    continue;
                }
                for line in page.lines() {
                    let local = w.map.local_line_index(line);
                    let base = (local * 64) as usize;
                    let want: [u8; 64] =
                        reference[n][base..base + 64].try_into().expect("64 bytes");
                    assert_eq!(w.memories[n].read_line(local), LineData::from(want));
                }
            }
        }
    }
}

/// Every member of a group names the same group, the group's parity
/// page is the only member `is_redundancy_page` classifies as parity, and
/// no data page shares a node with its parity — for plain parity and for
/// mixed (mirrored-stripe) configurations alike.
#[test]
fn parity_map_lookups_are_inverses() {
    let mut rng = DetRng::seed(0x1ae2);
    for _ in 0..CASES {
        // Random legal geometry: G in 1..=7, nodes a multiple of G+1 (and
        // even when stripes are mirrored), a few dozen pages per node.
        let g = rng.range(1, 8) as usize;
        let mut chunks = rng.range(1, 4) as usize;
        if !(g + 1).is_multiple_of(2) && !chunks.is_multiple_of(2) {
            chunks *= 2; // keep the node count even so mixed mode is legal
        }
        let nodes = (g + 1) * chunks;
        let pages_per_node = rng.range(4, 40);
        let map = AddressMap::new(nodes, pages_per_node * PAGE_SIZE as u64);
        let mirrored = rng.range(0, pages_per_node);
        let parity = if rng.chance(0.5) {
            ParityMap::new(map, g)
        } else {
            ParityMap::mixed(map, g, mirrored)
        };
        for node in 0..nodes {
            for page in map.pages_of(NodeId::from(node)) {
                let group = parity.group_of(page);
                assert_eq!(group.redundancy.len(), 1, "N+1 parity has one parity page");
                let ppage = group.redundancy[0];
                assert_eq!(
                    parity.is_redundancy_page(page),
                    page == ppage,
                    "{page} misclassified against its group's parity page {ppage}"
                );
                for &data in &group.data {
                    assert!(
                        !parity.is_redundancy_page(data),
                        "{data} listed as data for {ppage} but classified parity"
                    );
                    assert_ne!(
                        map.home_of_page(ppage),
                        map.home_of_page(data),
                        "parity for {data} stored on the same node"
                    );
                    assert_eq!(parity.group_of(data), group, "{data} names another group");
                }
                assert_eq!(parity.group_of(ppage), group, "{ppage} names another group");
                assert!(group.data.contains(&page) || page == ppage);
            }
        }
    }
}
