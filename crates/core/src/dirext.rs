//! The ReVive directory-controller extension (Sections 3.2 and 4.1).
//!
//! [`ReviveHook`] implements the coherence layer's
//! [`WriteHook`] seam and performs, in the
//! "hardware background", exactly what the paper's extended directory
//! controller does:
//!
//! * **Logging** — on the first write intent or write-back of a line since
//!   the last checkpoint (L bit clear), the line's checkpoint contents are
//!   copied to the node's memory log (Figure 5).
//! * **Distributed redundancy** — every memory write (data or log) is
//!   expanded by the active [`Redundancy`] backend into one or more update
//!   messages (Figure 4): an XOR delta to the parity home for the paper's
//!   N+1 parity, a delta each to the P and Q homes for double parity (the
//!   Q delta pre-scaled in GF(256), so the destination still just XORs),
//!   or the new value to each replica home for mirroring/replication —
//!   saving the reads.
//!
//! Each redundancy-update message contributes one *hook ack* to the line's
//! directory entry: the entry stays Busy until the update is acknowledged,
//! which is what serializes racing transactions against in-flight log/parity
//! state (the race-freedom arguments of Section 4.2).
//!
//! The hook also keeps the paper-granularity cost accounting of **Table 1**
//! in [`CostStats`], independent of the functional access counts (this
//! implementation's log records take two lines where the paper's take one;
//! Table 1 is reproduced with the paper's own counting conventions).

use revive_coherence::hook::WriteHook;
use revive_coherence::port::MemPort;
use revive_mem::addr::{AddressMap, LineAddr};
use revive_mem::line::LineData;
use revive_sim::types::NodeId;

use crate::lbits::LBits;
use crate::log::MemLog;
use crate::parity::ParityUpdate;
use crate::redundancy::{Redundancy, StripeCode};
use crate::validate::ShadowLog;

/// Per-event costs as Table 1 reports them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCost {
    /// Extra memory accesses per event.
    pub mem_accesses: u64,
    /// Extra memory lines touched per event.
    pub lines: u64,
    /// Extra network messages per event.
    pub messages: u64,
}

/// Table 1, row "Write-back, already logged (L=1)": update data parity.
pub const COST_WB_LOGGED: EventCost = EventCost {
    mem_accesses: 3,
    lines: 1,
    messages: 2,
};
/// Table 1, rows "Read-exclusive or upgrade, not yet logged (L=0)":
/// copy data to log (1/1/0) + update log parity (3/1/2).
pub const COST_RDX_UNLOGGED: EventCost = EventCost {
    mem_accesses: 4,
    lines: 2,
    messages: 2,
};
/// Table 1, rows "Write-back, not yet logged (L=0)": copy to log (2/1/0) +
/// update log parity (3/1/2) + update data parity (3/1/2).
pub const COST_WB_UNLOGGED: EventCost = EventCost {
    mem_accesses: 8,
    lines: 3,
    messages: 4,
};

/// Event counts per Table 1 class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostStats {
    /// Write-backs whose line was already logged (Figure 4).
    pub wb_logged: u64,
    /// Read-exclusive/upgrade intents that logged the line (Figure 5a).
    pub rdx_unlogged: u64,
    /// Write-backs that had to log first (Figure 5b).
    pub wb_unlogged: u64,
    /// Write intents that found the L bit already set (no action).
    pub intents_already_logged: u64,
}

impl CostStats {
    /// Total extra memory accesses under the paper's counting conventions.
    pub fn paper_mem_accesses(&self) -> u64 {
        self.wb_logged * COST_WB_LOGGED.mem_accesses
            + self.rdx_unlogged * COST_RDX_UNLOGGED.mem_accesses
            + self.wb_unlogged * COST_WB_UNLOGGED.mem_accesses
    }

    /// Total extra network messages under the paper's counting conventions.
    pub fn paper_messages(&self) -> u64 {
        self.wb_logged * COST_WB_LOGGED.messages
            + self.rdx_unlogged * COST_RDX_UNLOGGED.messages
            + self.wb_unlogged * COST_WB_UNLOGGED.messages
    }
}

/// An outbound redundancy-update message queued by the hook.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutMsg {
    /// Destination (the parity / replica home).
    pub to: NodeId,
    /// The update to apply there.
    pub update: ParityUpdate,
    /// Whether the destination applies deltas by XOR (parity) or overwrite
    /// (mirroring, replication) — affects the memory accesses charged at
    /// the destination.
    pub mirror: bool,
}

/// The ReVive extension state of one node's directory controller.
#[derive(Debug)]
pub struct ReviveHook {
    map: AddressMap,
    rdx: Redundancy,
    /// The Logged bits for this node's home lines.
    pub lbits: LBits,
    /// This node's memory log.
    pub log: MemLog,
    /// Whether the log region's redundancy updates carry values rather than
    /// deltas (it must be uniform; asserted at construction).
    log_stores_values: bool,
    interval: u64,
    enabled: bool,
    outbox: Vec<OutMsg>,
    /// Table 1 event accounting.
    pub costs: CostStats,
    /// Optional software replica of the log, fed every append, marker and
    /// reset — the validation harness's scan/replay oracle.
    pub shadow: Option<ShadowLog>,
}

impl ReviveHook {
    /// Creates the extension for one node.
    ///
    /// # Panics
    ///
    /// Panics if the log region straddles the mirrored/parity boundary of a
    /// mixed layout (log records must use one update mode).
    pub fn new(rdx: Redundancy, log: MemLog, lbits: LBits) -> ReviveHook {
        let pages = log.pages();
        let log_stores_values = rdx.stores_values(pages[0]);
        assert!(
            pages
                .iter()
                .all(|&p| rdx.stores_values(p) == log_stores_values),
            "log region straddles the mirrored/parity boundary"
        );
        ReviveHook {
            map: *rdx.address_map(),
            rdx,
            lbits,
            log,
            log_stores_values,
            interval: 0,
            enabled: true,
            outbox: Vec::new(),
            costs: CostStats::default(),
            shadow: None,
        }
    }

    /// Attaches a fresh shadow replica sized to the log. Every subsequent
    /// log mutation routed through the hook is mirrored into it.
    pub fn attach_shadow(&mut self) {
        self.shadow = Some(ShadowLog::new(self.log.capacity_records()));
    }

    /// The current checkpoint interval id.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Queued parity-update messages, drained by the machine after each
    /// directory-controller call.
    pub fn drain_outbox(&mut self) -> Vec<OutMsg> {
        std::mem::take(&mut self.outbox)
    }

    /// Swaps the outbox into `buf` (which must be empty): the queued
    /// messages land in `buf` and the outbox adopts its capacity, so a
    /// caller cycling one scratch buffer never re-allocates.
    pub fn take_outbox_into(&mut self, buf: &mut Vec<OutMsg>) {
        debug_assert!(buf.is_empty());
        std::mem::swap(&mut self.outbox, buf);
    }

    /// Pauses/resumes the hook (recovery replays memory without re-logging).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether the hook is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The redundancy backend this hook maintains.
    pub fn redundancy(&self) -> &Redundancy {
        &self.rdx
    }

    /// Writes the checkpoint-commit marker for `interval` into the local log
    /// (between the two commit barriers), with its redundancy update.
    pub fn mark_checkpoint(&mut self, interval: u64, mem: &mut dyn MemPort) {
        let stores = self.log_stores_values;
        let deltas = self.log.mark_checkpoint(interval, !stores, mem);
        if let Some(s) = self.shadow.as_mut() {
            s.record_marker(interval);
        }
        self.ship_deltas(None, deltas, stores);
    }

    /// Starts a new checkpoint interval: gang-clears the L bits and reclaims
    /// log space from intervals older than `reclaim_before`.
    pub fn begin_interval(&mut self, interval: u64, reclaim_before: u64) {
        self.interval = interval;
        self.lbits.gang_clear();
        self.log.reclaim_before(reclaim_before);
    }

    /// Drops the oldest half of the live records (the CpInf measurement
    /// configurations' pressure valve).
    pub fn recycle_oldest_half(&mut self) {
        self.log.reclaim_oldest_half();
    }

    /// Forgets all log bookkeeping (after a rollback's log scrub), keeping
    /// the shadow in step.
    pub fn reset_log(&mut self) {
        self.log.reset();
        if let Some(s) = self.shadow.as_mut() {
            s.reset();
        }
    }

    /// Expands `(line, payload)` pairs through the backend, groups the
    /// resulting redundancy-line updates by home, and queues one update
    /// message per home. Returns the number of messages queued (= hook acks
    /// to await when `ack_to` is set).
    fn ship_deltas(
        &mut self,
        ack_to: Option<LineAddr>,
        deltas: Vec<(LineAddr, LineData)>,
        stores_values: bool,
    ) -> u32 {
        let mut msgs: Vec<OutMsg> = Vec::new();
        for (line, payload) in deltas {
            for (rline, rpayload) in self.rdx.expand_update(line, payload) {
                let home = self.map.home_of_line(rline);
                match msgs.iter_mut().find(|m| m.to == home) {
                    Some(m) => m.update.deltas.push((rline, rpayload)),
                    None => msgs.push(OutMsg {
                        to: home,
                        update: ParityUpdate {
                            ack_to_line: ack_to,
                            deltas: vec![(rline, rpayload)],
                        },
                        mirror: stores_values,
                    }),
                }
            }
        }
        let n = msgs.len() as u32;
        self.outbox.extend(msgs);
        n
    }

    /// Copies `old` (the checkpoint contents of `line`) into the log and
    /// queues the log-redundancy updates. Returns the acks to await.
    fn log_line(&mut self, line: LineAddr, old: LineData, mem: &mut dyn MemPort) -> u32 {
        let stores = self.log_stores_values;
        let deltas = self.log.append(self.interval, line, old, !stores, mem);
        if let Some(s) = self.shadow.as_mut() {
            s.record_append(self.interval, line, old);
        }
        let acks = self.ship_deltas(Some(line), deltas, stores);
        self.lbits.set_logged(self.map.local_line_index(line));
        acks
    }
}

impl WriteHook for ReviveHook {
    fn write_intent(
        &mut self,
        line: LineAddr,
        current: Option<LineData>,
        mem: &mut dyn MemPort,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        debug_assert!(
            !self.rdx.is_redundancy_page(line.page()),
            "coherent write intent on a redundancy page"
        );
        if self.lbits.is_logged(self.map.local_line_index(line)) {
            self.costs.intents_already_logged += 1;
            return 0;
        }
        // Figure 5(a): copy the line to the log in the background while the
        // reply is supplied; the entry stays busy until the log parity is
        // acknowledged. When the directory already read the line for its
        // reply, the copy shares that read (Table 1's 1-access "copy data
        // to log").
        let old = current.unwrap_or_else(|| mem.read(line));
        let acks = self.log_line(line, old, mem);
        self.costs.rdx_unlogged += 1;
        acks
    }

    fn memory_write(&mut self, line: LineAddr, new: LineData, mem: &mut dyn MemPort) -> u32 {
        if !self.enabled {
            return 0;
        }
        debug_assert!(
            !self.rdx.is_redundancy_page(line.page()),
            "coherent write-back to a redundancy page"
        );
        let stores = self.rdx.stores_values(line.page());
        let mut acks = 0;
        let first = !self.lbits.is_logged(self.map.local_line_index(line));
        // With value-carrying updates (mirroring, replication) and the line
        // already logged, the old contents are not needed (the copies are
        // simply overwritten): Section 3.2.1, "the two memory reads and the
        // XOR operations can be omitted".
        let old = if first || !stores {
            Some(mem.read(line))
        } else {
            None
        };
        if first {
            // Figure 5(b): the line was never announced (uncached write or
            // silent E→M): log it as part of this transaction.
            acks += self.log_line(line, old.expect("read when first"), mem);
            self.costs.wb_unlogged += 1;
        } else {
            self.costs.wb_logged += 1;
        }
        // Data parity update U = D ^ D' (Figure 4); value backends ship D'
        // (and skipped the read).
        let payload = StripeCode::apply_update(stores, old.unwrap_or(LineData::ZERO), new);
        acks += self.ship_deltas(Some(line), vec![(line, payload)], stores);
        acks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parity::ParityMap;
    use crate::redundancy::{gf_pow, gf_scale, DoubleParityMap, ReplicationMap};
    use revive_coherence::port::VecPort;
    use revive_mem::addr::{AddressMap, LINES_PER_PAGE, PAGE_SIZE};

    /// 4 nodes, 4 pages each, 3+1 parity. Node 0's pages: stripe 0 is
    /// parity (pos 0), stripes 1..4 are data.
    fn setup() -> (ReviveHook, VecPort) {
        let map = AddressMap::new(4, 4 * PAGE_SIZE as u64);
        let parity = ParityMap::new(map, 3);
        // Log on node 0: use its last data page (stripe 3 is data for node 0
        // since 3 % 4 != 0).
        let log_page = map.global_page(NodeId(0), 3);
        assert!(!parity.is_redundancy_page(log_page));
        let slots: Vec<LineAddr> = log_page.lines().collect();
        let log = MemLog::new(NodeId(0), slots);
        let lbits = LBits::full(map.lines_per_node());
        let hook = ReviveHook::new(Redundancy::Xor(parity), log, lbits);
        // A port covering all of node 0's memory.
        let port = VecPort::new(LineAddr(0), 4 * LINES_PER_PAGE);
        (hook, port)
    }

    /// A data line on node 0 (stripe 1).
    fn data_line() -> LineAddr {
        LineAddr(LINES_PER_PAGE as u64 + 5)
    }

    #[test]
    fn write_intent_logs_once() {
        let (mut hook, mut mem) = setup();
        mem.write(data_line(), LineData::fill(0xAA));
        mem.reset_counts();
        let acks = hook.write_intent(data_line(), None, &mut mem);
        assert_eq!(acks, 1, "one log-parity update to acknowledge");
        assert_eq!(hook.costs.rdx_unlogged, 1);
        // Second intent in the same interval: no-op.
        let acks = hook.write_intent(data_line(), None, &mut mem);
        assert_eq!(acks, 0);
        assert_eq!(hook.costs.intents_already_logged, 1);
        // The log holds the checkpoint contents.
        let entries = hook.log.rollback_entries(0, |l| mem.peek(l));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].line, data_line());
        assert_eq!(entries[0].data, LineData::fill(0xAA));
    }

    #[test]
    fn memory_write_logged_line_costs_one_parity_update() {
        let (mut hook, mut mem) = setup();
        hook.write_intent(data_line(), None, &mut mem);
        hook.drain_outbox();
        mem.reset_counts();
        let acks = hook.memory_write(data_line(), LineData::fill(1), &mut mem);
        assert_eq!(acks, 1);
        assert_eq!(hook.costs.wb_logged, 1);
        // Functional: exactly one read (old data) at the home; the paper's
        // other two accesses happen at the parity home.
        assert_eq!(mem.reads, 1);
        assert_eq!(mem.writes, 0); // the directory writes the data itself
        let out = hook.drain_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].update.ack_to_line, Some(data_line()));
        assert_eq!(out[0].update.deltas.len(), 1);
    }

    #[test]
    fn unlogged_writeback_logs_and_updates_both_parities() {
        let (mut hook, mut mem) = setup();
        mem.write(data_line(), LineData::fill(0x5A));
        mem.reset_counts();
        let acks = hook.memory_write(data_line(), LineData::fill(0xA5), &mut mem);
        assert_eq!(hook.costs.wb_unlogged, 1);
        let out = hook.drain_outbox();
        // Log-parity update + data-parity update (log lines share a page →
        // one batched message).
        assert_eq!(out.len() as u32, acks);
        assert_eq!(acks, 2);
        // The data-parity delta is old ^ new.
        let data_delta = out
            .iter()
            .flat_map(|m| m.update.deltas.iter())
            .find(|(pl, _)| {
                let parity_page = hook.redundancy().group_of(data_line().page()).redundancy[0];
                pl.index_in_page() == data_line().index_in_page() && pl.page() == parity_page
            })
            .expect("data parity delta present");
        assert_eq!(data_delta.1, LineData::fill(0x5A ^ 0xA5));
    }

    #[test]
    fn table1_paper_costs() {
        assert_eq!(
            COST_WB_LOGGED,
            EventCost {
                mem_accesses: 3,
                lines: 1,
                messages: 2
            }
        );
        assert_eq!(
            COST_RDX_UNLOGGED,
            EventCost {
                mem_accesses: 4,
                lines: 2,
                messages: 2
            }
        );
        assert_eq!(
            COST_WB_UNLOGGED,
            EventCost {
                mem_accesses: 8,
                lines: 3,
                messages: 4
            }
        );
        let stats = CostStats {
            wb_logged: 10,
            rdx_unlogged: 5,
            wb_unlogged: 2,
            intents_already_logged: 7,
        };
        assert_eq!(stats.paper_mem_accesses(), 10 * 3 + 5 * 4 + 2 * 8);
        assert_eq!(stats.paper_messages(), 10 * 2 + 5 * 2 + 2 * 4);
    }

    #[test]
    fn disabled_hook_is_free() {
        let (mut hook, mut mem) = setup();
        hook.set_enabled(false);
        assert_eq!(hook.write_intent(data_line(), None, &mut mem), 0);
        assert_eq!(
            hook.memory_write(data_line(), LineData::fill(1), &mut mem),
            0
        );
        assert!(hook.drain_outbox().is_empty());
        assert_eq!(mem.accesses(), 0);
    }

    #[test]
    fn begin_interval_clears_lbits_and_reclaims() {
        let (mut hook, mut mem) = setup();
        hook.write_intent(data_line(), None, &mut mem);
        assert_eq!(hook.lbits.count_set(), 1);
        hook.begin_interval(2, 1);
        assert_eq!(hook.interval(), 2);
        assert_eq!(hook.lbits.count_set(), 0);
        assert_eq!(hook.log.stats().reclaimed, 1);
        // The same line gets logged again in the new interval.
        let acks = hook.write_intent(data_line(), None, &mut mem);
        assert_eq!(acks, 1);
    }

    #[test]
    fn mirroring_ships_new_values_without_reads() {
        let map = AddressMap::new(4, 4 * PAGE_SIZE as u64);
        let parity = ParityMap::new(map, 1); // mirroring
                                             // On node 0 with chunk size 2: stripes 1, 3 are data (pos 0 → even
                                             // stripes are mirror targets homed here).
        let log_page = map.global_page(NodeId(0), 3);
        assert!(!parity.is_redundancy_page(log_page));
        let log = MemLog::new(NodeId(0), log_page.lines().collect());
        let mut hook = ReviveHook::new(
            Redundancy::Xor(parity),
            log,
            LBits::full(map.lines_per_node()),
        );
        let mut mem = VecPort::new(LineAddr(0), 4 * LINES_PER_PAGE);
        let line = LineAddr(LINES_PER_PAGE as u64 + 5); // stripe 1: data
        hook.write_intent(line, None, &mut mem);
        hook.drain_outbox();
        mem.reset_counts();
        hook.memory_write(line, LineData::fill(3), &mut mem);
        // Already logged + mirroring: no reads at all at the home.
        assert_eq!(mem.reads, 0);
        let out = hook.drain_outbox();
        assert_eq!(out.len(), 1);
        assert!(out[0].mirror);
        assert_eq!(out[0].update.deltas[0].1, LineData::fill(3));
    }

    #[test]
    fn double_parity_ships_scaled_deltas_to_p_and_q() {
        let map = AddressMap::new(4, 4 * PAGE_SIZE as u64);
        let dp = DoubleParityMap::new(map, 2); // one chunk of 4
        let rdx = Redundancy::Double(dp);
        // Node 1 (chunk position 1) is a data member at stripes 2 and 3;
        // log at stripe 3, write at stripe 2 where its GF coefficient
        // index is 1 (position 0 is the other data member).
        let log_page = map.global_page(NodeId(1), 3);
        assert!(!rdx.is_redundancy_page(log_page));
        let log = MemLog::new(NodeId(1), log_page.lines().collect());
        let mut hook = ReviveHook::new(rdx, log, LBits::full(map.lines_per_node()));
        let mut mem = VecPort::new(
            map.global_page(NodeId(1), 0).first_line(),
            4 * LINES_PER_PAGE,
        );
        let line = LineAddr(map.global_page(NodeId(1), 2).first_line().0 + 5);
        mem.write(line, LineData::fill(0x0F));
        hook.write_intent(line, None, &mut mem);
        hook.drain_outbox();
        let acks = hook.memory_write(line, LineData::fill(0xF0), &mut mem);
        // One delta each to the P home and the Q home.
        assert_eq!(acks, 2);
        let out = hook.drain_outbox();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|m| !m.mirror));
        assert_ne!(out[0].to, out[1].to, "P and Q live on different nodes");
        let delta = LineData::fill(0x0F ^ 0xF0);
        let payloads: Vec<LineData> = out.iter().map(|m| m.update.deltas[0].1).collect();
        assert!(payloads.contains(&delta), "P gets the raw delta");
        assert!(
            payloads.contains(&gf_scale(delta, gf_pow(1))),
            "Q gets the delta scaled by the member's coefficient"
        );
    }

    #[test]
    fn replication_ships_values_to_every_replica() {
        let map = AddressMap::new(4, 8 * PAGE_SIZE as u64);
        let rdx = Redundancy::Replication(ReplicationMap::new(map, 3)); // k = 3
                                                                        // Node 0 is primary at stripes 1 and 5; log at 5, write at 1.
        let log_page = map.global_page(NodeId(0), 5);
        assert!(!rdx.is_redundancy_page(log_page));
        let log = MemLog::new(NodeId(0), log_page.lines().collect());
        let mut hook = ReviveHook::new(rdx, log, LBits::full(map.lines_per_node()));
        let mut mem = VecPort::new(LineAddr(0), 8 * LINES_PER_PAGE);
        let line = LineAddr(map.global_page(NodeId(0), 1).first_line().0 + 7);
        hook.write_intent(line, None, &mut mem);
        hook.drain_outbox();
        mem.reset_counts();
        let acks = hook.memory_write(line, LineData::fill(0x42), &mut mem);
        // Already logged + value updates: no reads, one message per replica.
        assert_eq!(mem.reads, 0);
        assert_eq!(acks, 3);
        let out = hook.drain_outbox();
        assert_eq!(out.len(), 3);
        let mut homes: Vec<u16> = out.iter().map(|m| m.to.0).collect();
        homes.sort_unstable();
        assert_eq!(homes, vec![1, 2, 3]);
        for m in &out {
            assert!(m.mirror);
            assert_eq!(m.update.deltas[0].1, LineData::fill(0x42));
        }
    }

    #[test]
    fn checkpoint_marker_has_no_ack_target() {
        let (mut hook, mut mem) = setup();
        hook.mark_checkpoint(1, &mut mem);
        let out = hook.drain_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].update.ack_to_line, None);
    }
}
