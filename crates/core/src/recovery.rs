//! Rollback recovery (Section 3.2.4, Figure 7).
//!
//! When an error is detected the machine runs four phases:
//!
//! 1. **Hardware recovery** — diagnosis, reconfiguration, protocol reset
//!    (outside the paper's scope; charged a fixed time, 50 ms on the real
//!    machine, from the Hive/FLASH measurements the paper cites).
//! 2. **Log reconstruction** — if a node's memory was lost, the pages
//!    holding its log are rebuilt through the active redundancy backend
//!    (parity groups, P+Q equations, or replicas) so its log can be
//!    replayed.
//! 3. **Rollback** — every node replays its local log in reverse, restoring
//!    memory to the target checkpoint. Lost pages that receive restored data
//!    are rebuilt on demand first. Caches and directories are reset by the
//!    machine around this call. After this phase the machine is *available*
//!    again.
//! 4. **Background rebuild** — remaining lost pages and stale redundancy
//!    groups are reconstructed while the application runs degraded.
//!
//! The engine operates on the *functional* memory images, so tests can
//! verify value-exact restoration; phase timings come from an explicit
//! bandwidth model ([`RecoveryTiming`]) because recovery runs outside the
//! cycle-level simulation (the paper, likewise, reports recovery at
//! millisecond granularity).

use std::collections::HashSet;

use revive_mem::addr::{AddressMap, LineAddr, PageAddr};
use revive_mem::line::LineData;
use revive_mem::main_memory::NodeMemory;
use revive_sim::time::Ns;
use revive_sim::types::NodeId;

use crate::log::MemLog;
use crate::redundancy::{Redundancy, StripeCode};

/// The bandwidth model for recovery timing.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryTiming {
    /// Phase 1: fixed hardware recovery time.
    pub hw_recovery: Ns,
    /// Cost to rebuild one 4 KB page from its redundancy group.
    pub page_rebuild: Ns,
    /// Cost to replay one log entry (read entry, write memory, update
    /// parity).
    pub entry_replay: Ns,
    /// Processors participating in parallel reconstruction.
    pub workers: usize,
}

impl RecoveryTiming {
    /// Derives costs from the machine's parameters: rebuilding a page
    /// fetches `rebuild_fanin` remote pages (network-bound at ~3.2 bytes/ns
    /// plus DRAM row-streaming) and writes one; replaying an entry is a
    /// couple of local line accesses plus a redundancy update. The fan-in
    /// is the code's [`StripeCode::rebuild_fanin`]: `G` for parity
    /// schemes, 1 for replication (a straight copy).
    pub fn derive(rebuild_fanin: usize, workers: usize) -> RecoveryTiming {
        assert!(workers > 0, "recovery needs at least one worker");
        let page_bytes = 4096u64;
        // Per remote page: network transfer + source DRAM streaming.
        let per_remote = Ns((page_bytes as f64 / 3.2) as u64) + Ns(64 * 20);
        let page_rebuild = per_remote * rebuild_fanin as u64 + Ns(64 * 20);
        RecoveryTiming {
            hw_recovery: Ns::from_ms(50),
            page_rebuild,
            entry_replay: Ns(3 * 60 + 46), // 3 line accesses + parity message
            workers,
        }
    }
}

/// Everything recovery needs to see and mutate.
pub struct RecoveryInput<'a> {
    /// Functional memory of every node.
    pub memories: &'a mut [NodeMemory],
    /// Every node's log (bookkeeping; contents are read from the memories).
    pub logs: &'a [&'a MemLog],
    /// The active redundancy backend.
    pub redundancy: &'a Redundancy,
    /// Roll back to the state at the establishment of this checkpoint
    /// interval.
    pub target_interval: u64,
    /// The nodes whose memories were lost *simultaneously* (empty for
    /// transient errors). Duplicates are tolerated and count once.
    pub lost: &'a [NodeId],
}

/// Why recovery refused to run. These are *classified outcomes*, not bugs:
/// the machine reports the fault as unrecoverable (a detected-unrecoverable
/// error in the paper's Section 3.1.2 taxonomy) and the campaign counts it
/// in the availability statistics instead of aborting the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// More simultaneously lost nodes share a redundancy group than the
    /// active backend's budget: N+1 parity reconstructs one missing member
    /// per group, P+Q two, k-replication `k` — past that, the group's data
    /// is gone.
    BeyondParityBudget {
        /// The nodes lost together.
        lost: Vec<NodeId>,
        /// The first redundancy page of a group with more lost members
        /// than the budget.
        group_parity: PageAddr,
    },
    /// A node was reported lost but its memory is intact — the damage report
    /// and the machine state disagree, and reconstructing over live data
    /// would corrupt it.
    LostNodeIntact {
        /// The allegedly lost node.
        node: NodeId,
    },
    /// A reported lost node does not exist in this machine.
    UnknownNode {
        /// The bogus node.
        node: NodeId,
        /// How many nodes the machine has.
        nodes: usize,
    },
    /// The surviving interconnect is partitioned: some surviving node
    /// cannot reach the rest, so the survivors cannot coordinate recovery
    /// (the paper's §3.3 assumes the fabric routes around the failure;
    /// when it cannot, the error is detected-unrecoverable, not a hang).
    Partitioned {
        /// A surviving node unreachable from the rest of the survivors.
        node: NodeId,
        /// Nodes still alive (including the isolated one).
        survivors: usize,
    },
    /// The fault was detected too late: checkpoints committed during the
    /// detection window (periodic or forced early by log pressure) advanced
    /// the machine past the retention window, reclaiming the logs needed to
    /// roll back to the last checkpoint that precedes the error. ReVive's
    /// recoverability guarantee assumes detection latency bounded by the
    /// retained-checkpoint window (paper §3.1.2); past it, the error is
    /// detected-unrecoverable.
    TargetReclaimed {
        /// The checkpoint the rollback needed.
        target: u64,
        /// The oldest checkpoint whose logs are still retained.
        oldest: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::BeyondParityBudget { lost, group_parity } => {
                let names: Vec<String> = lost.iter().map(NodeId::to_string).collect();
                write!(
                    f,
                    "losing nodes {{{}}} exceeds the redundancy budget: the group of \
                     {group_parity} has more lost members than the backend can rebuild",
                    names.join(", ")
                )
            }
            RecoveryError::LostNodeIntact { node } => {
                write!(f, "node {node} was reported lost but its memory is intact")
            }
            RecoveryError::UnknownNode { node, nodes } => {
                write!(
                    f,
                    "lost node {node} does not exist (machine has {nodes} nodes)"
                )
            }
            RecoveryError::Partitioned { node, survivors } => {
                write!(
                    f,
                    "surviving torus is partitioned: node {node} cannot reach the other \
                     {} survivor(s)",
                    survivors.saturating_sub(1)
                )
            }
            RecoveryError::TargetReclaimed { target, oldest } => {
                write!(
                    f,
                    "detected too late: rollback target checkpoint {target} outlived the \
                     log retention window (oldest recoverable is {oldest})"
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// What recovery did and how long each phase took (Figures 7 and 12).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Phase 1 duration (fixed hardware recovery).
    pub phase1: Ns,
    /// Phase 2 duration (log-page reconstruction).
    pub phase2: Ns,
    /// Phase 3 duration (rollback).
    pub phase3: Ns,
    /// Phase 4 duration (background rebuild; machine is available).
    pub phase4: Ns,
    /// Log pages rebuilt in Phase 2.
    pub log_pages_rebuilt: u64,
    /// Lost pages rebuilt on demand during rollback.
    pub pages_rebuilt_on_demand: u64,
    /// Log entries replayed.
    pub entries_replayed: u64,
    /// Pages reconstructed in the background (Phase 4).
    pub pages_rebuilt_background: u64,
}

impl RecoveryReport {
    /// Machine-unavailable time: Phases 1–3 (Phase 4 runs concurrently with
    /// useful work).
    pub fn unavailable(&self) -> Ns {
        self.phase1 + self.phase2 + self.phase3
    }

    /// The Figure-7 phase decomposition as named `(name, start, end)`
    /// intervals relative to `origin` (the detection time). Phases 1–3 run
    /// back to back; phase 4 starts when the machine becomes available
    /// again and overlaps resumed execution.
    pub fn phases(&self, origin: Ns) -> [(&'static str, Ns, Ns); 4] {
        let p1 = origin + self.phase1;
        let p2 = p1 + self.phase2;
        let p3 = p2 + self.phase3;
        [
            ("hw_recovery", origin, p1),
            ("log_rebuild", p1, p2),
            ("rollback", p2, p3),
            ("bg_rebuild", p3, p3 + self.phase4),
        ]
    }
}

fn read_global(mems: &[NodeMemory], map: &AddressMap, line: LineAddr) -> LineData {
    mems[map.home_of_line(line).index()].read_line(map.local_line_index(line))
}

fn write_global(mems: &mut [NodeMemory], map: &AddressMap, line: LineAddr, data: LineData) {
    mems[map.home_of_line(line).index()].write_line(map.local_line_index(line), data);
}

/// Reconstructs `page` (data or redundancy) from the surviving members of
/// its group, writing the result into its home memory. Member pages that
/// belong to a lost node and have not been rebuilt yet are reported to the
/// backend as missing, so a multi-loss rebuild never reads blank pages.
fn rebuild_page(
    mems: &mut [NodeMemory],
    rdx: &Redundancy,
    page: PageAddr,
    lost: &[NodeId],
    rebuilt: &HashSet<PageAddr>,
) {
    let map = *rdx.address_map();
    let missing = |p: PageAddr| lost.contains(&map.home_of_page(p)) && !rebuilt.contains(&p);
    let mut read = |l: LineAddr| read_global(mems, &map, l);
    let lines = rdx.rebuild_page(page, missing, &mut read);
    for (offset, data) in lines.into_iter().enumerate() {
        write_global(
            mems,
            &map,
            LineAddr(page.first_line().0 + offset as u64),
            data,
        );
    }
}

/// Runs recovery (see module docs). The caller is responsible for wiping
/// caches, resetting directories, and restarting the ReVive hooks for a
/// fresh interval afterwards.
///
/// # Errors
///
/// Returns a [`RecoveryError`] — without touching any memory — when the
/// reported loss cannot be recovered from: a lost node that does not exist
/// or is not actually lost, or simultaneous losses that overwhelm a
/// redundancy group (beyond the backend's budget).
pub fn recover(
    input: RecoveryInput<'_>,
    timing: &RecoveryTiming,
) -> Result<RecoveryReport, RecoveryError> {
    let RecoveryInput {
        memories,
        logs,
        redundancy,
        target_interval,
        lost,
    } = input;
    let map = *redundancy.address_map();
    // Validate the damage report before mutating anything, so an
    // unrecoverable loss is classified rather than half-reconstructed.
    let mut lost_nodes: Vec<NodeId> = Vec::new();
    for &l in lost {
        if l.index() >= memories.len() {
            return Err(RecoveryError::UnknownNode {
                node: l,
                nodes: memories.len(),
            });
        }
        if !memories[l.index()].is_lost() {
            return Err(RecoveryError::LostNodeIntact { node: l });
        }
        if !lost_nodes.contains(&l) {
            lost_nodes.push(l);
        }
    }
    let lost = &lost_nodes[..];
    if let Some(group) = redundancy.overwhelmed_group(lost) {
        return Err(RecoveryError::BeyondParityBudget {
            lost: lost.to_vec(),
            group_parity: group.redundancy[0],
        });
    }
    let mut report = RecoveryReport {
        phase1: timing.hw_recovery,
        ..RecoveryReport::default()
    };
    let mut rebuilt: HashSet<PageAddr> = HashSet::new();
    // Redundancy pages that could not be maintained during replay (they
    // were lost) and must be recomputed in Phase 4.
    let mut stale_redundancy: HashSet<PageAddr> = HashSet::new();

    // ---- Phase 2: reconstruct the lost nodes' log pages. All lost
    // memories go blank first, so within the budget the backend always
    // sees which member pages are still missing and solves around them
    // (two lost members of one P+Q chunk are each other's unknowns). ----
    for &l in lost {
        memories[l.index()].reconstruct_blank();
    }
    for &l in lost {
        let log_pages: HashSet<PageAddr> = logs[l.index()]
            .slot_lines()
            .iter()
            .map(|s| s.page())
            .collect();
        for page in log_pages {
            rebuild_page(memories, redundancy, page, lost, &rebuilt);
            rebuilt.insert(page);
            report.log_pages_rebuilt += 1;
        }
    }
    report.phase2 = timing.page_rebuild * report.log_pages_rebuilt.div_ceil(timing.workers as u64);

    // ---- Phase 3: replay every node's log in reverse. ----
    let mut max_node_time = Ns::ZERO;
    for (n, log) in logs.iter().enumerate() {
        let node = NodeId::from(n);
        let entries = log.rollback_entries(target_interval, |l| read_global(memories, &map, l));
        let mut node_time = Ns::ZERO;
        for e in entries {
            debug_assert_eq!(
                map.home_of_line(e.line),
                node,
                "log entries restore lines homed on their own node"
            );
            let page = e.line.page();
            if lost.contains(&node) && !rebuilt.contains(&page) {
                // Rebuild on demand: the rest of the page holds unmodified
                // checkpoint data that only the redundancy can supply.
                rebuild_page(memories, redundancy, page, lost, &rebuilt);
                rebuilt.insert(page);
                report.pages_rebuilt_on_demand += 1;
                node_time += timing.page_rebuild;
            }
            let old = read_global(memories, &map, e.line);
            write_global(memories, &map, e.line, e.data);
            // Maintain the redundancy across the restore write, exactly as
            // the hardware would; skip (and mark stale) any redundancy page
            // that died with a lost node.
            let stores = redundancy.stores_values(page);
            let payload = StripeCode::apply_update(stores, old, e.data);
            for (rline, rpayload) in redundancy.expand_update(e.line, payload) {
                let rpage = rline.page();
                if lost.contains(&map.home_of_page(rpage)) && !rebuilt.contains(&rpage) {
                    stale_redundancy.insert(rpage);
                } else {
                    let cur = read_global(memories, &map, rline);
                    let new = StripeCode::apply_update(stores, cur, rpayload);
                    write_global(memories, &map, rline, new);
                }
            }
            report.entries_replayed += 1;
            node_time += timing.entry_replay;
        }
        max_node_time = max_node_time.max(node_time);
    }
    report.phase3 = max_node_time;

    // ---- Phase 4: background reconstruction of everything still missing. ----
    for &l in lost {
        for page in map.pages_of(l) {
            if rebuilt.contains(&page) {
                continue;
            }
            rebuild_page(memories, redundancy, page, lost, &rebuilt);
            rebuilt.insert(page);
            stale_redundancy.remove(&page);
            report.pages_rebuilt_background += 1;
        }
    }
    for rpage in stale_redundancy {
        rebuild_page(memories, redundancy, rpage, lost, &rebuilt);
        report.pages_rebuilt_background += 1;
    }
    let bg_workers = (timing.workers / 2).max(1) as u64;
    report.phase4 = timing.page_rebuild * report.pages_rebuilt_background.div_ceil(bg_workers);

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parity::ParityMap;
    use crate::redundancy::{DoubleParityMap, ReplicationMap};
    use revive_coherence::port::MemPort;
    use revive_mem::addr::PAGE_SIZE;

    /// A tiny machine: `nodes` × a few pages under any redundancy backend,
    /// log in each node's last data page.
    struct World {
        nodes: usize,
        memories: Vec<NodeMemory>,
        logs: Vec<MemLog>,
        rdx: Redundancy,
    }

    /// MemPort view over one node's memory for feeding the log.
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

    impl World {
        fn new() -> World {
            World::with(4, 3)
        }

        fn with(nodes: usize, group_data_pages: usize) -> World {
            let map = AddressMap::new(nodes, 4 * PAGE_SIZE as u64);
            World::with_rdx(
                nodes,
                4,
                Redundancy::Xor(ParityMap::new(map, group_data_pages)),
            )
        }

        fn with_rdx(nodes: usize, pages: u64, rdx: Redundancy) -> World {
            let map = *rdx.address_map();
            let memories: Vec<NodeMemory> = (0..nodes)
                .map(|_| NodeMemory::new(pages as usize * PAGE_SIZE))
                .collect();
            let logs: Vec<MemLog> = (0..nodes)
                .map(|n| {
                    let node = NodeId::from(n);
                    // Pick the node's highest-stripe data page for the log.
                    let page = (0..pages)
                        .rev()
                        .map(|s| map.global_page(node, s))
                        .find(|&p| !rdx.is_redundancy_page(p))
                        .unwrap();
                    MemLog::new(node, page.lines().collect())
                })
                .collect();
            World {
                nodes,
                memories,
                logs,
                rdx,
            }
        }

        fn map(&self) -> AddressMap {
            *self.rdx.address_map()
        }

        /// A writable data line on `node` outside its log and redundancy
        /// pages.
        fn app_line(&self, node: u16) -> LineAddr {
            let map = self.map();
            let log_pages: HashSet<PageAddr> = self.logs[node as usize]
                .slot_lines()
                .iter()
                .map(|l| l.page())
                .collect();
            let page = map
                .pages_of(NodeId(node))
                .find(|&p| !self.rdx.is_redundancy_page(p) && !log_pages.contains(&p))
                .unwrap();
            LineAddr(page.first_line().0 + 7)
        }

        /// Lands the expanded redundancy updates of `payload` (a delta, or
        /// a value when `stores`) shipped for `line`.
        fn land(&mut self, line: LineAddr, payload: LineData, stores: bool) {
            let map = self.map();
            for (rl, rp) in self.rdx.expand_update(line, payload) {
                let cur = read_global(&self.memories, &map, rl);
                let new = StripeCode::apply_update(stores, cur, rp);
                write_global(&mut self.memories, &map, rl, new);
            }
        }

        /// Applies the redundancy updates of a write of `old` → `new` at
        /// `line`.
        fn apply_updates(&mut self, line: LineAddr, old: LineData, new: LineData) {
            let stores = self.rdx.stores_values(line.page());
            let payload = StripeCode::apply_update(stores, old, new);
            self.land(line, payload, stores);
        }

        /// Simulates the hardware write path: log the old value, write the
        /// new one, update the redundancy of both the data and log lines.
        fn logged_write(&mut self, interval: u64, line: LineAddr, new: LineData) {
            let map = self.map();
            let node = map.home_of_line(line);
            let old = self.memories[node.index()].read_line(map.local_line_index(line));
            let log_stores = self
                .rdx
                .stores_values(self.logs[node.index()].slot_lines()[0].page());
            let deltas = {
                let mut port = NodePort {
                    mem: &mut self.memories[node.index()],
                    map,
                };
                self.logs[node.index()].append(interval, line, old, !log_stores, &mut port)
            };
            // Apply log redundancy (`deltas` already carries values when
            // the log's updates store values, deltas otherwise).
            for (slot, payload) in deltas {
                self.land(slot, payload, log_stores);
            }
            // Write data + its redundancy.
            write_global(&mut self.memories, &map, line, new);
            self.apply_updates(line, old, new);
        }

        fn check_all_parity(&self) {
            let map = self.map();
            for node in NodeId::all(self.nodes) {
                for page in map.pages_of(node) {
                    if self.rdx.is_redundancy_page(page) {
                        continue;
                    }
                    let v = self
                        .rdx
                        .check_group(page, &mut |l| read_global(&self.memories, &map, l));
                    assert_eq!(v, None, "redundancy violated in group of {page}");
                }
            }
        }

        fn snapshot(&self) -> Vec<Vec<u8>> {
            self.memories.iter().map(NodeMemory::snapshot).collect()
        }

        fn timing(&self) -> RecoveryTiming {
            RecoveryTiming::derive(3, 3)
        }
    }

    #[test]
    fn rollback_restores_exact_checkpoint_no_loss() {
        let mut w = World::new();
        let line = w.app_line(1);
        w.logged_write(0, line, LineData::fill(1));
        // Checkpoint 1 established here — snapshot is the reference.
        let reference = w.snapshot();
        // Interval 1 modifications.
        let line2 = w.app_line(2);
        w.logged_write(1, line, LineData::fill(2));
        w.logged_write(1, line2, LineData::fill(3));
        w.check_all_parity();
        // Roll back to checkpoint 1.
        let timing = w.timing();
        let report = recover(
            RecoveryInput {
                memories: &mut w.memories,
                logs: &w.logs.iter().collect::<Vec<_>>(),
                redundancy: &w.rdx,
                target_interval: 1,
                lost: &[],
            },
            &timing,
        )
        .unwrap();
        assert_eq!(report.entries_replayed, 2);
        assert_eq!(report.phase2, Ns::ZERO);
        let map = w.map();
        // Restored values match the checkpoint exactly.
        assert_eq!(read_global(&w.memories, &map, line), LineData::fill(1));
        assert_eq!(read_global(&w.memories, &map, line2), LineData::ZERO);
        // Full-memory comparison: every non-log page equals the reference.
        // (Log pages accumulated interval-1 records; they are reclaimed by
        // the next interval, not rolled back.)
        let log_pages: HashSet<PageAddr> = w
            .logs
            .iter()
            .flat_map(|l| l.slot_lines().iter().map(|s| s.page()))
            .collect();
        #[allow(clippy::needless_range_loop)] // node names both memories and reference
        for node in 0..4usize {
            for page in map.pages_of(NodeId::from(node)) {
                if log_pages.contains(&page) || w.rdx.is_redundancy_page(page) {
                    continue;
                }
                for l in page.lines() {
                    let got = read_global(&w.memories, &map, l);
                    let want_off = (map.local_line_index(l) * 64) as usize;
                    let want: [u8; 64] =
                        reference[node][want_off..want_off + 64].try_into().unwrap();
                    assert_eq!(got, LineData::from(want), "line {l}");
                }
            }
        }
        w.check_all_parity();
    }

    #[test]
    fn node_loss_recovery_restores_checkpoint_and_parity() {
        let mut w = World::new();
        let lines: Vec<LineAddr> = (0..4).map(|n| w.app_line(n)).collect();
        for (i, &l) in lines.iter().enumerate() {
            w.logged_write(0, l, LineData::fill(0x10 + i as u8));
        }
        let reference = w.snapshot();
        // Interval 1 writes on every node.
        for (i, &l) in lines.iter().enumerate() {
            w.logged_write(1, l, LineData::fill(0x20 + i as u8));
        }
        w.check_all_parity();
        // Node 2 dies.
        w.memories[2].destroy();
        let timing = w.timing();
        let report = recover(
            RecoveryInput {
                memories: &mut w.memories,
                logs: &w.logs.iter().collect::<Vec<_>>(),
                redundancy: &w.rdx,
                target_interval: 1,
                lost: &[NodeId(2)],
            },
            &timing,
        )
        .unwrap();
        assert!(report.log_pages_rebuilt > 0);
        assert_eq!(report.entries_replayed, 4);
        assert!(report.unavailable() > report.phase1);
        let map = w.map();
        // Every node, including the lost one, is back at the checkpoint.
        for (i, &l) in lines.iter().enumerate() {
            assert_eq!(
                read_global(&w.memories, &map, l),
                LineData::fill(0x10 + i as u8),
                "line {l}"
            );
        }
        // Full lost-node reconstruction: compare non-log pages byte-exact.
        let log_pages: HashSet<PageAddr> =
            w.logs[2].slot_lines().iter().map(|s| s.page()).collect();
        for page in map.pages_of(NodeId(2)) {
            if log_pages.contains(&page) || w.rdx.is_redundancy_page(page) {
                continue;
            }
            for l in page.lines() {
                let got = read_global(&w.memories, &map, l);
                let off = (map.local_line_index(l) * 64) as usize;
                let want: [u8; 64] = reference[2][off..off + 64].try_into().unwrap();
                assert_eq!(got, LineData::from(want), "lost-node line {l}");
            }
        }
        // Phase 4 restored the global parity invariant.
        w.check_all_parity();
    }

    #[test]
    fn losing_the_parity_home_still_recovers() {
        let mut w = World::new();
        let map = w.map();
        let line = w.app_line(0);
        // Find the node holding this line's parity and kill that one.
        let pnode = map.home_of_page(w.rdx.group_of(line.page()).redundancy[0]);
        assert_ne!(pnode, NodeId(0));
        w.logged_write(0, line, LineData::fill(0xAA));
        w.logged_write(1, line, LineData::fill(0xBB));
        w.memories[pnode.index()].destroy();
        recover(
            RecoveryInput {
                memories: &mut w.memories,
                logs: &w.logs.iter().collect::<Vec<_>>(),
                redundancy: &w.rdx,
                target_interval: 1,
                lost: &[pnode],
            },
            &RecoveryTiming::derive(3, 3),
        )
        .unwrap();
        assert_eq!(read_global(&w.memories, &map, line), LineData::fill(0xAA));
        w.check_all_parity();
    }

    #[test]
    fn double_loss_in_different_chunks_recovers() {
        // 8 nodes, 3+1 parity: chunks {0..3} and {4..7}. Losing one node
        // from each chunk costs every group at most one member, so both
        // nodes reconstruct.
        let mut w = World::with(8, 3);
        let lines: Vec<LineAddr> = (0..8).map(|n| w.app_line(n)).collect();
        for (i, &l) in lines.iter().enumerate() {
            w.logged_write(0, l, LineData::fill(0x30 + i as u8));
        }
        let reference = w.snapshot();
        for (i, &l) in lines.iter().enumerate() {
            w.logged_write(1, l, LineData::fill(0x40 + i as u8));
        }
        w.check_all_parity();
        w.memories[1].destroy();
        w.memories[5].destroy();
        let report = recover(
            RecoveryInput {
                memories: &mut w.memories,
                logs: &w.logs.iter().collect::<Vec<_>>(),
                redundancy: &w.rdx,
                target_interval: 1,
                lost: &[NodeId(1), NodeId(5)],
            },
            &RecoveryTiming::derive(3, 6),
        )
        .unwrap();
        assert!(report.log_pages_rebuilt >= 2, "both logs rebuilt");
        let map = w.map();
        for (i, &l) in lines.iter().enumerate() {
            assert_eq!(
                read_global(&w.memories, &map, l),
                LineData::fill(0x30 + i as u8),
                "line {l}"
            );
        }
        // Both lost nodes restored byte-exact (outside their log pages).
        for lost in [1usize, 5] {
            let log_pages: HashSet<PageAddr> =
                w.logs[lost].slot_lines().iter().map(|s| s.page()).collect();
            for page in map.pages_of(NodeId::from(lost)) {
                if log_pages.contains(&page) || w.rdx.is_redundancy_page(page) {
                    continue;
                }
                for l in page.lines() {
                    let got = read_global(&w.memories, &map, l);
                    let off = (map.local_line_index(l) * 64) as usize;
                    let want: [u8; 64] = reference[lost][off..off + 64].try_into().unwrap();
                    assert_eq!(got, LineData::from(want), "lost-node line {l}");
                }
            }
        }
        w.check_all_parity();
    }

    #[test]
    fn double_loss_in_one_chunk_is_beyond_budget() {
        // 4 nodes, 3+1 parity: a single chunk. Any two losses overwhelm
        // every group — the engine must classify, not panic, and must not
        // have touched the memories.
        let mut w = World::new();
        let line = w.app_line(0);
        w.logged_write(0, line, LineData::fill(0x55));
        w.memories[1].destroy();
        w.memories[2].destroy();
        let err = recover(
            RecoveryInput {
                memories: &mut w.memories,
                logs: &w.logs.iter().collect::<Vec<_>>(),
                redundancy: &w.rdx,
                target_interval: 1,
                lost: &[NodeId(1), NodeId(2)],
            },
            &RecoveryTiming::derive(3, 2),
        )
        .unwrap_err();
        match err {
            RecoveryError::BeyondParityBudget { ref lost, .. } => {
                assert_eq!(lost, &[NodeId(1), NodeId(2)]);
            }
            other => panic!("expected BeyondParityBudget, got {other:?}"),
        }
        // The memories were left untouched: still marked lost.
        assert!(w.memories[1].is_lost());
        assert!(w.memories[2].is_lost());
    }

    /// Byte-compares every non-log, non-redundancy page of `nodes_to_check`
    /// against the reference snapshot.
    fn assert_restored(w: &World, reference: &[Vec<u8>], nodes_to_check: &[usize]) {
        let map = w.map();
        for &n in nodes_to_check {
            let log_pages: HashSet<PageAddr> =
                w.logs[n].slot_lines().iter().map(|s| s.page()).collect();
            for page in map.pages_of(NodeId::from(n)) {
                if log_pages.contains(&page) || w.rdx.is_redundancy_page(page) {
                    continue;
                }
                for l in page.lines() {
                    let got = read_global(&w.memories, &map, l);
                    let off = (map.local_line_index(l) * 64) as usize;
                    let want: [u8; 64] = reference[n][off..off + 64].try_into().unwrap();
                    assert_eq!(got, LineData::from(want), "node {n} line {l}");
                }
            }
        }
    }

    #[test]
    fn double_parity_recovers_two_losses_in_one_chunk() {
        // 4 nodes in a single P+Q chunk (G = 2). Losing any two nodes is
        // beyond the XOR budget but within P+Q's.
        let map = AddressMap::new(4, 4 * PAGE_SIZE as u64);
        let rdx = Redundancy::Double(DoubleParityMap::new(map, 2));
        let mut w = World::with_rdx(4, 4, rdx);
        let lines: Vec<LineAddr> = (0..4).map(|n| w.app_line(n)).collect();
        for (i, &l) in lines.iter().enumerate() {
            w.logged_write(0, l, LineData::fill(0x50 + i as u8));
        }
        let reference = w.snapshot();
        for (i, &l) in lines.iter().enumerate() {
            w.logged_write(1, l, LineData::fill(0x60 + i as u8));
        }
        w.check_all_parity();
        w.memories[1].destroy();
        w.memories[2].destroy();
        let report = recover(
            RecoveryInput {
                memories: &mut w.memories,
                logs: &w.logs.iter().collect::<Vec<_>>(),
                redundancy: &w.rdx,
                target_interval: 1,
                lost: &[NodeId(1), NodeId(2)],
            },
            &RecoveryTiming::derive(2, 2),
        )
        .unwrap();
        assert!(report.log_pages_rebuilt >= 2, "both lost logs rebuilt");
        assert_eq!(report.entries_replayed, 4);
        let map = w.map();
        for (i, &l) in lines.iter().enumerate() {
            assert_eq!(
                read_global(&w.memories, &map, l),
                LineData::fill(0x50 + i as u8),
                "line {l}"
            );
        }
        assert_restored(&w, &reference, &[0, 1, 2, 3]);
        w.check_all_parity();
    }

    #[test]
    fn double_parity_three_losses_are_beyond_budget() {
        let map = AddressMap::new(4, 4 * PAGE_SIZE as u64);
        let mut w = World::with_rdx(4, 4, Redundancy::Double(DoubleParityMap::new(map, 2)));
        let line = w.app_line(0);
        w.logged_write(0, line, LineData::fill(0x77));
        for n in [1, 2, 3] {
            w.memories[n].destroy();
        }
        let err = recover(
            RecoveryInput {
                memories: &mut w.memories,
                logs: &w.logs.iter().collect::<Vec<_>>(),
                redundancy: &w.rdx,
                target_interval: 1,
                lost: &[NodeId(1), NodeId(2), NodeId(3)],
            },
            &RecoveryTiming::derive(2, 1),
        )
        .unwrap_err();
        assert!(matches!(err, RecoveryError::BeyondParityBudget { .. }));
        assert!(w.memories[1].is_lost(), "memories untouched on refusal");
    }

    #[test]
    fn replication_recovers_two_losses_in_one_chunk() {
        // 9 nodes, k = 2 replication: chunks {0,1,2} … — losing two of a
        // chunk's three members still leaves one full copy of every page.
        let map = AddressMap::new(9, 6 * PAGE_SIZE as u64);
        let rdx = Redundancy::Replication(ReplicationMap::new(map, 2));
        let mut w = World::with_rdx(9, 6, rdx);
        let lines: Vec<LineAddr> = (0..9).map(|n| w.app_line(n)).collect();
        for (i, &l) in lines.iter().enumerate() {
            w.logged_write(0, l, LineData::fill(0x80 + i as u8));
        }
        let reference = w.snapshot();
        for (i, &l) in lines.iter().enumerate() {
            w.logged_write(1, l, LineData::fill(0x90 + i as u8));
        }
        w.check_all_parity();
        w.memories[0].destroy();
        w.memories[1].destroy();
        let report = recover(
            RecoveryInput {
                memories: &mut w.memories,
                logs: &w.logs.iter().collect::<Vec<_>>(),
                redundancy: &w.rdx,
                target_interval: 1,
                lost: &[NodeId(0), NodeId(1)],
            },
            &RecoveryTiming::derive(1, 7),
        )
        .unwrap();
        assert!(report.log_pages_rebuilt >= 2);
        assert_eq!(report.entries_replayed, 9);
        let map = w.map();
        for (i, &l) in lines.iter().enumerate() {
            assert_eq!(
                read_global(&w.memories, &map, l),
                LineData::fill(0x80 + i as u8),
                "line {l}"
            );
        }
        assert_restored(&w, &reference, &(0..9).collect::<Vec<_>>());
        w.check_all_parity();
    }

    #[test]
    fn replication_whole_chunk_loss_is_beyond_budget() {
        let map = AddressMap::new(9, 6 * PAGE_SIZE as u64);
        let mut w = World::with_rdx(9, 6, Redundancy::Replication(ReplicationMap::new(map, 2)));
        let line = w.app_line(3);
        w.logged_write(0, line, LineData::fill(0x13));
        for n in [0, 1, 2] {
            w.memories[n].destroy();
        }
        let err = recover(
            RecoveryInput {
                memories: &mut w.memories,
                logs: &w.logs.iter().collect::<Vec<_>>(),
                redundancy: &w.rdx,
                target_interval: 1,
                lost: &[NodeId(0), NodeId(1), NodeId(2)],
            },
            &RecoveryTiming::derive(1, 6),
        )
        .unwrap_err();
        assert!(matches!(err, RecoveryError::BeyondParityBudget { .. }));
    }

    #[test]
    fn bogus_damage_reports_are_classified() {
        let mut w = World::new();
        let intact = recover(
            RecoveryInput {
                memories: &mut w.memories,
                logs: &w.logs.iter().collect::<Vec<_>>(),
                redundancy: &w.rdx,
                target_interval: 1,
                lost: &[NodeId(2)],
            },
            &RecoveryTiming::derive(3, 3),
        )
        .unwrap_err();
        assert_eq!(intact, RecoveryError::LostNodeIntact { node: NodeId(2) });
        let unknown = recover(
            RecoveryInput {
                memories: &mut w.memories,
                logs: &w.logs.iter().collect::<Vec<_>>(),
                redundancy: &w.rdx,
                target_interval: 1,
                lost: &[NodeId(99)],
            },
            &RecoveryTiming::derive(3, 3),
        )
        .unwrap_err();
        assert_eq!(
            unknown,
            RecoveryError::UnknownNode {
                node: NodeId(99),
                nodes: 4
            }
        );
    }

    #[test]
    fn timing_model_scales() {
        let t = RecoveryTiming::derive(7, 15);
        assert!(t.page_rebuild > Ns::ZERO);
        assert!(t.entry_replay > Ns::ZERO);
        assert_eq!(t.hw_recovery, Ns::from_ms(50));
        // More data pages per group → slower rebuilds.
        let t2 = RecoveryTiming::derive(1, 15);
        assert!(t2.page_rebuild < t.page_rebuild);
    }

    #[test]
    fn report_unavailable_excludes_phase4() {
        let r = RecoveryReport {
            phase1: Ns(10),
            phase2: Ns(20),
            phase3: Ns(30),
            phase4: Ns(1000),
            ..RecoveryReport::default()
        };
        assert_eq!(r.unavailable(), Ns(60));
    }
}
