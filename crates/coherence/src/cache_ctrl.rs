//! The cache controller of one node.
//!
//! Owns the node's L1 and L2 (inclusive hierarchy), the miss-status holding
//! registers (MSHRs), and the cache side of the coherence protocol: issuing
//! requests to home directories, answering fetches and invalidations, and
//! retrying after nacks.
//!
//! Like the directory, this is a pure state machine: methods return the
//! messages to send and the operations that completed; `revive-machine`
//! attaches timing and routes messages through the torus.
//!
//! **Functional-data placement.** Line contents live in the L2; the L1 is a
//! timing filter (tags + states only, its data fields unused). Because the
//! hierarchy is inclusive and every externally visible event (fetch,
//! invalidation, write-back) is served at the L2, keeping a single data copy
//! at the L2 preserves the values any other node can observe. CPU writes
//! update the L2 copy immediately; write-back *timing* is still modeled (L2
//! evictions and flushes produce write-back messages carrying the data).

use revive_sim::hashing::{FastHashMap, FastHashSet};

use revive_mem::addr::LineAddr;
use revive_mem::cache::{Cache, CacheConfig, LineState};
use revive_mem::line::LineData;
use revive_sim::types::NodeId;

use crate::msg::{CacheReq, CacheToDir, DirToCache};

/// An opaque token identifying one CPU memory operation; handed back when
/// the operation completes so the machine can unblock the right instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OpToken(pub u64);

/// The kind of CPU access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum MshrKind {
    /// Waiting for a Data fill (`excl` when the request was ReadEx).
    WaitData { excl: bool },
    /// Waiting for an UpgradeAck.
    WaitUpgrade,
}

#[derive(Clone, Debug)]
struct Mshr {
    kind: MshrKind,
    /// Set when the line was invalidated while an Upgrade was pending; the
    /// eventual UpgradeAck/Nack must be converted into a ReadEx.
    doomed: bool,
    waiters: Vec<OpToken>,
    pending_writes: Vec<OpToken>,
    /// A fetch (`true` = FetchInval) that arrived before our fill: the home
    /// granted us the line and immediately forwarded the next requester's
    /// fetch, which can overtake the (memory-latency-delayed) data reply.
    /// Served as soon as the fill lands.
    pending_fetch: Option<bool>,
}

/// Result of a CPU access attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CpuOutcome {
    /// Hit in the L1 (2 ns in the paper's machine).
    L1Hit,
    /// Missed L1, hit L2 (12 ns).
    L2Hit,
    /// A new miss: a request was issued to the home directory.
    Miss,
    /// The line already has an outstanding miss; this op piggybacks on it.
    Coalesced,
    /// All MSHRs are in use; the machine must retry the op later.
    MshrFull,
}

/// The reaction to an incoming directory message.
#[derive(Clone, Debug, Default)]
pub struct Reaction {
    /// Messages to send (to the line's home directory).
    pub sends: Vec<CacheToDir>,
    /// CPU operations that completed.
    pub completed: Vec<OpToken>,
}

/// Statistics for one cache controller.
#[derive(Clone, Copy, Debug, Default)]
pub struct CtrlStats {
    /// CPU accesses that hit the L1.
    pub l1_hits: u64,
    /// CPU accesses that missed the L1.
    pub l1_misses: u64,
    /// L1 misses that hit the L2.
    pub l2_hits: u64,
    /// L1 misses that also missed the L2 (including write-permission
    /// misses on Shared lines, which cost an upgrade round trip).
    pub l2_misses: u64,
    /// Dirty write-backs issued from evictions.
    pub eviction_writebacks: u64,
    /// Requests retried after a nack.
    pub nack_retries: u64,
}

impl CtrlStats {
    /// L2 miss rate over all CPU accesses (the paper's Table 4 "Global L2
    /// miss rate" counts misses per access to the memory system).
    pub fn l2_miss_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_misses as f64 / total as f64
        }
    }
}

/// The cache controller (see module docs).
#[derive(Debug)]
pub struct CacheCtrl {
    node: NodeId,
    l1: Cache,
    l2: Cache,
    mshrs: FastHashMap<LineAddr, Mshr>,
    mshr_capacity: usize,
    /// Write-backs sent but not yet acknowledged (checkpoint flushes wait on
    /// this reaching zero).
    outstanding_wbs: u32,
    /// Lines with an unacknowledged checkpoint-flush write-back in flight.
    /// A fetch for such a line must report it dirty: home memory has not
    /// banked the flushed contents yet, and the flush write-back itself may
    /// be dropped as stale if ownership moves before it lands.
    flushing: FastHashSet<LineAddr>,
    /// Lines with an unacknowledged *eviction* write-back (keep=false) in
    /// flight. A fetch arriving for such a line is stale — our write-back
    /// answers it at home — and must not be parked on a newer MSHR. Home
    /// processes our write-back before acknowledging it, and same-pair FIFO
    /// delivery means any fetch sent before that processing reaches us
    /// before the WbAck does, so membership here exactly identifies stale
    /// fetches.
    evicting: FastHashSet<LineAddr>,
    stats: CtrlStats,
}

impl CacheCtrl {
    /// Creates a controller with empty caches.
    pub fn new(node: NodeId, l1: CacheConfig, l2: CacheConfig, mshr_capacity: usize) -> CacheCtrl {
        assert!(mshr_capacity > 0, "need at least one MSHR");
        CacheCtrl {
            node,
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            mshrs: FastHashMap::default(),
            mshr_capacity,
            outstanding_wbs: 0,
            flushing: FastHashSet::default(),
            evicting: FastHashSet::default(),
            stats: CtrlStats::default(),
        }
    }

    /// The node this controller belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Statistics so far.
    pub fn stats(&self) -> CtrlStats {
        self.stats
    }

    /// Number of outstanding (unacknowledged) write-backs.
    pub fn outstanding_wbs(&self) -> u32 {
        self.outstanding_wbs
    }

    /// Number of outstanding misses.
    pub fn outstanding_misses(&self) -> usize {
        self.mshrs.len()
    }

    /// The L2's current view of a line's contents (None when not cached).
    pub fn cached_data(&self, line: LineAddr) -> Option<LineData> {
        self.l2.data_of(line)
    }

    /// The L2 state of a line.
    pub fn l2_state(&self, line: LineAddr) -> LineState {
        self.l2.state_of(line)
    }

    /// Number of Modified lines in the L2 (what a checkpoint must flush).
    pub fn dirty_count(&self) -> usize {
        self.l2.dirty_count()
    }

    /// Deterministically mutates a line's contents for a store: each store
    /// writes its token into one of the line's eight quadwords. Values don't
    /// matter to the protocol, but they must be deterministic and
    /// non-idempotent so rollback verification is meaningful.
    fn apply_write(data: &mut LineData, token: OpToken) {
        let off = ((token.0 % 8) * 8) as usize;
        data.set_u64_at(off, token.0 ^ 0xC0FF_EE00_0000_0000);
    }

    /// Attempts one CPU access. Returns the outcome plus any messages to
    /// send (the request itself and/or eviction write-backs).
    pub fn cpu_access(
        &mut self,
        line: LineAddr,
        access: Access,
        token: OpToken,
    ) -> (CpuOutcome, Vec<CacheToDir>) {
        // L1 probe.
        let l1_state = self.l1.access(line);
        let write = access == Access::Write;
        let l1_ok = match l1_state {
            LineState::Invalid => false,
            LineState::Shared => !write,
            LineState::Exclusive | LineState::Modified => true,
        };
        if l1_ok {
            self.stats.l1_hits += 1;
            if write {
                self.write_hit(line, token);
            }
            return (CpuOutcome::L1Hit, Vec::new());
        }
        self.stats.l1_misses += 1;

        // L2 probe.
        let l2_state = self.l2.access(line);
        let l2_ok = match l2_state {
            LineState::Invalid => false,
            LineState::Shared => !write,
            LineState::Exclusive | LineState::Modified => true,
        };
        if l2_ok {
            self.stats.l2_hits += 1;
            self.fill_l1_from_l2(line);
            if write {
                self.write_hit(line, token);
            }
            return (CpuOutcome::L2Hit, Vec::new());
        }

        // Miss (or write-permission miss). Coalesce onto an existing MSHR.
        if let Some(mshr) = self.mshrs.get_mut(&line) {
            mshr.waiters.push(token);
            if write {
                mshr.pending_writes.push(token);
                // A read-only fill in flight cannot satisfy a store; the
                // store will be retried via the upgrade path when the fill
                // lands Shared. To keep the protocol simple we only coalesce
                // writes onto exclusive-bound MSHRs; otherwise stall.
                if mshr.kind == (MshrKind::WaitData { excl: false }) {
                    mshr.waiters.pop();
                    mshr.pending_writes.pop();
                    return (CpuOutcome::MshrFull, Vec::new());
                }
            }
            return (CpuOutcome::Coalesced, Vec::new());
        }
        if self.mshrs.len() >= self.mshr_capacity {
            return (CpuOutcome::MshrFull, Vec::new());
        }

        self.stats.l2_misses += 1;
        let mut sends = Vec::new();
        let mshr = if write && l2_state == LineState::Shared {
            // Write hit on a Shared line: upgrade (paper's UPG).
            sends.push(CacheToDir::Req {
                line,
                req: CacheReq::Upgrade,
            });
            Mshr {
                kind: MshrKind::WaitUpgrade,
                doomed: false,
                waiters: vec![token],
                pending_writes: vec![token],
                pending_fetch: None,
            }
        } else {
            let req = if write {
                CacheReq::ReadEx
            } else {
                CacheReq::Read
            };
            sends.push(CacheToDir::Req { line, req });
            Mshr {
                kind: MshrKind::WaitData { excl: write },
                doomed: false,
                waiters: vec![token],
                pending_writes: if write { vec![token] } else { Vec::new() },
                pending_fetch: None,
            }
        };
        self.mshrs.insert(line, mshr);
        (CpuOutcome::Miss, sends)
    }

    /// Applies a store to a line the cache owns (E or M): silent E→M.
    fn write_hit(&mut self, line: LineAddr, token: OpToken) {
        let mut data = self.l2.data_of(line).expect("write hit without L2 data");
        Self::apply_write(&mut data, token);
        self.l2.write_data(line, data);
        self.l2.set_state(line, LineState::Modified);
        if self.l1.state_of(line).is_valid() {
            self.l1.set_state(line, LineState::Modified);
        }
    }

    /// Mirrors an L2-resident line into the L1 (inclusive fill). L1 victims
    /// need no action: their data and dirtiness already live in the L2.
    fn fill_l1_from_l2(&mut self, line: LineAddr) {
        if self.l1.state_of(line).is_valid() {
            return;
        }
        let state = self.l2.state_of(line);
        debug_assert!(state.is_valid());
        let _victim = self.l1.fill(line, state, LineData::ZERO);
    }

    /// Handles a message from a home directory.
    pub fn handle_dir_msg(&mut self, msg: DirToCache) -> Reaction {
        match msg {
            DirToCache::Data { line, excl, data } => self.on_data(line, excl, data),
            DirToCache::UpgradeAck { line } => self.on_upgrade_ack(line),
            DirToCache::Nack { line, req } => self.on_nack(line, req),
            DirToCache::Invalidate { line } => self.on_invalidate(line),
            DirToCache::Fetch { line } => self.on_fetch(line, false),
            DirToCache::FetchInval { line } => self.on_fetch(line, true),
            DirToCache::WbAck { line, .. } => {
                assert!(self.outstanding_wbs > 0, "unexpected WbAck");
                self.outstanding_wbs -= 1;
                self.flushing.remove(&line);
                self.evicting.remove(&line);
                Reaction::default()
            }
        }
    }

    fn on_data(&mut self, line: LineAddr, excl: bool, data: LineData) -> Reaction {
        let mshr = self
            .mshrs
            .remove(&line)
            .unwrap_or_else(|| panic!("Data fill without MSHR for {line}"));
        assert!(
            matches!(mshr.kind, MshrKind::WaitData { .. }),
            "Data fill for upgrade MSHR"
        );
        let mut reaction = Reaction::default();
        // Fill the L2, possibly evicting a victim.
        let mut fill_data = data;
        let mut state = if excl {
            LineState::Exclusive
        } else {
            LineState::Shared
        };
        if !mshr.pending_writes.is_empty() {
            assert!(excl, "pending writes on a shared fill");
            for t in &mshr.pending_writes {
                Self::apply_write(&mut fill_data, *t);
            }
            state = LineState::Modified;
        }
        if let Some(victim) = self.l2.fill(line, state, fill_data) {
            self.evict(victim.line, victim.state, victim.data, &mut reaction);
        }
        self.fill_l1_from_l2(line);
        reaction.completed = mshr.waiters;
        if let Some(inval) = mshr.pending_fetch {
            self.serve_fetch(line, inval, &mut reaction);
        }
        reaction
    }

    /// Answers a fetch for a line we hold exclusively: ship the contents,
    /// then downgrade or invalidate.
    fn serve_fetch(&mut self, line: LineAddr, inval: bool, reaction: &mut Reaction) {
        let data = self.l2.data_of(line).expect("owned line has data");
        let dirty = self.l2.state_of(line).is_dirty() || self.flushing.contains(&line);
        if inval {
            self.l1.invalidate(line);
            self.l2.invalidate(line);
        } else {
            self.l1.downgrade(line);
            self.l2.downgrade(line);
        }
        reaction
            .sends
            .push(CacheToDir::FetchResp { line, data, dirty });
    }

    /// Processes an L2 eviction: dirty lines write back data, Exclusive
    /// clean lines send a replacement notice, Shared lines leave silently.
    fn evict(&mut self, line: LineAddr, state: LineState, data: LineData, reaction: &mut Reaction) {
        // Inclusion: the L1 must not outlive the L2 copy.
        self.l1.invalidate(line);
        match state {
            LineState::Modified => {
                self.stats.eviction_writebacks += 1;
                self.outstanding_wbs += 1;
                self.evicting.insert(line);
                reaction.sends.push(CacheToDir::WriteBack {
                    line,
                    data: Some(data),
                    keep: false,
                });
            }
            LineState::Exclusive => {
                self.outstanding_wbs += 1;
                self.evicting.insert(line);
                reaction.sends.push(CacheToDir::WriteBack {
                    line,
                    data: None,
                    keep: false,
                });
            }
            LineState::Shared => {}
            LineState::Invalid => unreachable!("invalid victim"),
        }
    }

    fn on_upgrade_ack(&mut self, line: LineAddr) -> Reaction {
        let mshr = self
            .mshrs
            .remove(&line)
            .unwrap_or_else(|| panic!("UpgradeAck without MSHR for {line}"));
        assert_eq!(mshr.kind, MshrKind::WaitUpgrade);
        let mut reaction = Reaction::default();
        if mshr.doomed || !self.l2.state_of(line).is_valid() {
            // The Shared copy disappeared while the upgrade was in flight —
            // either invalidated by a racing writer or silently evicted as
            // an L2 victim. The grant made the directory record us as the
            // owner of a line we no longer hold, so release ownership with
            // a clean notice, then re-request the data exclusively. The
            // notice precedes the request on the same cache→home path, so
            // the directory sees them in order.
            self.stats.nack_retries += 1;
            self.mshrs.insert(
                line,
                Mshr {
                    kind: MshrKind::WaitData { excl: true },
                    doomed: false,
                    waiters: mshr.waiters,
                    pending_writes: mshr.pending_writes,
                    // Any fetch parked here is covered by the ownership-
                    // releasing notice below: the directory consumes the
                    // notice as the fetch answer.
                    pending_fetch: None,
                },
            );
            self.outstanding_wbs += 1;
            self.evicting.insert(line);
            reaction.sends.push(CacheToDir::WriteBack {
                line,
                data: None,
                keep: false,
            });
            reaction.sends.push(CacheToDir::Req {
                line,
                req: CacheReq::ReadEx,
            });
            return reaction;
        }
        self.l2.set_state(line, LineState::Exclusive);
        for t in &mshr.pending_writes {
            let mut data = self.l2.data_of(line).expect("upgraded line has data");
            Self::apply_write(&mut data, *t);
            self.l2.write_data(line, data);
            self.l2.set_state(line, LineState::Modified);
        }
        if self.l1.state_of(line).is_valid() {
            self.l1.set_state(line, self.l2.state_of(line));
        }
        reaction.completed = mshr.waiters;
        if let Some(inval) = mshr.pending_fetch {
            self.serve_fetch(line, inval, &mut reaction);
        }
        reaction
    }

    fn on_nack(&mut self, line: LineAddr, req: CacheReq) -> Reaction {
        let mut reaction = Reaction::default();
        self.stats.nack_retries += 1;
        match req {
            CacheReq::Read | CacheReq::ReadEx => {
                // Retry verbatim (the home nacks transient races such as a
                // late write-back; progress is guaranteed once it lands).
                assert!(self.mshrs.contains_key(&line), "nack without MSHR");
                reaction.sends.push(CacheToDir::Req { line, req });
            }
            CacheReq::Upgrade => {
                let mshr = self.mshrs.get_mut(&line).expect("nack without MSHR");
                assert_eq!(mshr.kind, MshrKind::WaitUpgrade);
                // Our Shared copy is gone (a racing writer invalidated it);
                // fall back to read-exclusive.
                self.l1.invalidate(line);
                self.l2.invalidate(line);
                mshr.kind = MshrKind::WaitData { excl: true };
                mshr.doomed = false;
                reaction.sends.push(CacheToDir::Req {
                    line,
                    req: CacheReq::ReadEx,
                });
            }
        }
        reaction
    }

    fn on_invalidate(&mut self, line: LineAddr) -> Reaction {
        self.l1.invalidate(line);
        self.l2.invalidate(line);
        if let Some(mshr) = self.mshrs.get_mut(&line) {
            if mshr.kind == MshrKind::WaitUpgrade {
                mshr.doomed = true;
            }
        }
        Reaction {
            sends: vec![CacheToDir::InvalAck { line }],
            completed: Vec::new(),
        }
    }

    fn on_fetch(&mut self, line: LineAddr, inval: bool) -> Reaction {
        let state = self.l2.state_of(line);
        if !state.is_exclusive() {
            if self.evicting.contains(&line) {
                // Stale fetch: our in-flight eviction write-back answers it
                // at home (see the `evicting` field docs).
                return Reaction::default();
            }
            if let Some(mshr) = self.mshrs.get_mut(&line) {
                // The home granted us the line and immediately forwarded
                // the next requester's fetch; our fill is still in flight.
                // Park the fetch — it is served the moment the fill lands.
                assert!(
                    mshr.pending_fetch.is_none(),
                    "home serializes per line: second fetch before we answered the first"
                );
                mshr.pending_fetch = Some(inval);
                return Reaction::default();
            }
            // The line left this cache (its write-back is in flight and
            // will satisfy the fetch at home). Drop the fetch.
            return Reaction::default();
        }
        let mut reaction = Reaction::default();
        self.serve_fetch(line, inval, &mut reaction);
        reaction
    }

    /// All Modified lines, for checkpoint flushing. The flush itself is
    /// driven by the machine via [`CacheCtrl::flush_line`].
    pub fn dirty_lines(&self) -> Vec<LineAddr> {
        self.l2.dirty_lines()
    }

    /// Writes one dirty line back while keeping it cached (Exclusive,
    /// clean). Returns the write-back message, or `None` if the line is no
    /// longer dirty (e.g. it was fetched away since the flush list was
    /// built).
    pub fn flush_line(&mut self, line: LineAddr) -> Option<CacheToDir> {
        if !self.l2.state_of(line).is_dirty() {
            return None;
        }
        let data = self.l2.data_of(line).expect("dirty line has data");
        self.l2.set_state(line, LineState::Exclusive);
        if self.l1.state_of(line).is_valid() {
            self.l1.set_state(line, LineState::Exclusive);
        }
        self.outstanding_wbs += 1;
        self.flushing.insert(line);
        Some(CacheToDir::WriteBack {
            line,
            data: Some(data),
            keep: true,
        })
    }

    /// Wipes all cached state (error injection / rollback: "the caches are
    /// invalidated to eliminate any data modified since the checkpoint").
    pub fn wipe(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.mshrs.clear();
        self.outstanding_wbs = 0;
        self.flushing.clear();
        self.evicting.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LineAddr = LineAddr(100);

    fn ctrl() -> CacheCtrl {
        CacheCtrl::new(
            NodeId(0),
            CacheConfig {
                size_bytes: 2 * 1024,
                ways: 2,
            },
            CacheConfig {
                size_bytes: 8 * 1024,
                ways: 4,
            },
            4,
        )
    }

    fn fill(c: &mut CacheCtrl, line: LineAddr, excl: bool) -> Reaction {
        c.handle_dir_msg(DirToCache::Data {
            line,
            excl,
            data: LineData::fill(0xAB),
        })
    }

    #[test]
    fn read_miss_issues_read_and_completes_on_fill() {
        let mut c = ctrl();
        let (outcome, sends) = c.cpu_access(L, Access::Read, OpToken(1));
        assert_eq!(outcome, CpuOutcome::Miss);
        assert_eq!(
            sends,
            vec![CacheToDir::Req {
                line: L,
                req: CacheReq::Read
            }]
        );
        let r = fill(&mut c, L, false);
        assert_eq!(r.completed, vec![OpToken(1)]);
        // Second access hits L1.
        let (outcome, _) = c.cpu_access(L, Access::Read, OpToken(2));
        assert_eq!(outcome, CpuOutcome::L1Hit);
    }

    #[test]
    fn write_miss_issues_read_ex_and_lands_modified() {
        let mut c = ctrl();
        let (outcome, sends) = c.cpu_access(L, Access::Write, OpToken(1));
        assert_eq!(outcome, CpuOutcome::Miss);
        assert_eq!(
            sends,
            vec![CacheToDir::Req {
                line: L,
                req: CacheReq::ReadEx
            }]
        );
        let r = fill(&mut c, L, true);
        assert_eq!(r.completed, vec![OpToken(1)]);
        assert_eq!(c.l2_state(L), LineState::Modified);
        // The pending write actually mutated the contents.
        assert_ne!(c.cached_data(L), Some(LineData::fill(0xAB)));
    }

    #[test]
    fn write_hit_on_exclusive_is_silent() {
        let mut c = ctrl();
        c.cpu_access(L, Access::Read, OpToken(1));
        fill(&mut c, L, true); // exclusive-clean
        let (outcome, sends) = c.cpu_access(L, Access::Write, OpToken(2));
        assert_eq!(outcome, CpuOutcome::L1Hit);
        assert!(sends.is_empty());
        assert_eq!(c.l2_state(L), LineState::Modified);
    }

    #[test]
    fn write_on_shared_issues_upgrade() {
        let mut c = ctrl();
        c.cpu_access(L, Access::Read, OpToken(1));
        fill(&mut c, L, false); // shared
        let (outcome, sends) = c.cpu_access(L, Access::Write, OpToken(2));
        assert_eq!(outcome, CpuOutcome::Miss);
        assert_eq!(
            sends,
            vec![CacheToDir::Req {
                line: L,
                req: CacheReq::Upgrade
            }]
        );
        let r = c.handle_dir_msg(DirToCache::UpgradeAck { line: L });
        assert_eq!(r.completed, vec![OpToken(2)]);
        assert_eq!(c.l2_state(L), LineState::Modified);
    }

    #[test]
    fn doomed_upgrade_retries_as_read_ex() {
        let mut c = ctrl();
        c.cpu_access(L, Access::Read, OpToken(1));
        fill(&mut c, L, false);
        c.cpu_access(L, Access::Write, OpToken(2)); // upgrade in flight
                                                    // A racing writer invalidates us first.
        let r = c.handle_dir_msg(DirToCache::Invalidate { line: L });
        assert_eq!(r.sends, vec![CacheToDir::InvalAck { line: L }]);
        // The grant arrives but the line is gone: release ownership and
        // retry as ReadEx.
        let r = c.handle_dir_msg(DirToCache::UpgradeAck { line: L });
        assert_eq!(
            r.sends,
            vec![
                CacheToDir::WriteBack {
                    line: L,
                    data: None,
                    keep: false
                },
                CacheToDir::Req {
                    line: L,
                    req: CacheReq::ReadEx
                }
            ]
        );
        assert!(r.completed.is_empty());
        // The ReadEx fill finally completes the store.
        let r = fill(&mut c, L, true);
        assert_eq!(r.completed, vec![OpToken(2)]);
        assert_eq!(c.l2_state(L), LineState::Modified);
    }

    #[test]
    fn upgrade_nack_falls_back_to_read_ex() {
        let mut c = ctrl();
        c.cpu_access(L, Access::Read, OpToken(1));
        fill(&mut c, L, false);
        c.cpu_access(L, Access::Write, OpToken(2));
        let r = c.handle_dir_msg(DirToCache::Nack {
            line: L,
            req: CacheReq::Upgrade,
        });
        assert_eq!(
            r.sends,
            vec![CacheToDir::Req {
                line: L,
                req: CacheReq::ReadEx
            }]
        );
        assert_eq!(c.l2_state(L), LineState::Invalid);
    }

    #[test]
    fn fetch_downgrades_and_returns_dirty_data() {
        let mut c = ctrl();
        c.cpu_access(L, Access::Write, OpToken(1));
        fill(&mut c, L, true);
        let r = c.handle_dir_msg(DirToCache::Fetch { line: L });
        match &r.sends[..] {
            [CacheToDir::FetchResp { line, dirty, .. }] => {
                assert_eq!(*line, L);
                assert!(dirty);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.l2_state(L), LineState::Shared);
    }

    #[test]
    fn fetch_inval_removes_the_line() {
        let mut c = ctrl();
        c.cpu_access(L, Access::Read, OpToken(1));
        fill(&mut c, L, true); // exclusive clean
        let r = c.handle_dir_msg(DirToCache::FetchInval { line: L });
        match &r.sends[..] {
            [CacheToDir::FetchResp { dirty, .. }] => assert!(!dirty),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.l2_state(L), LineState::Invalid);
    }

    #[test]
    fn fetch_for_absent_line_is_dropped() {
        let mut c = ctrl();
        let r = c.handle_dir_msg(DirToCache::Fetch { line: L });
        assert!(r.sends.is_empty());
    }

    #[test]
    fn eviction_produces_writeback() {
        let mut c = CacheCtrl::new(
            NodeId(0),
            CacheConfig {
                size_bytes: 128,
                ways: 1,
            }, // 2-line L1
            CacheConfig {
                size_bytes: 256,
                ways: 1,
            }, // 4-line direct-mapped L2
            4,
        );
        // Fill line 0 dirty; then fill line 4 (same L2 set, 4-line direct
        // mapped => lines 0 and 4 collide).
        c.cpu_access(LineAddr(0), Access::Write, OpToken(1));
        fill(&mut c, LineAddr(0), true);
        c.cpu_access(LineAddr(4), Access::Read, OpToken(2));
        let r = fill(&mut c, LineAddr(4), false);
        assert_eq!(r.sends.len(), 1);
        match r.sends[0] {
            CacheToDir::WriteBack {
                line,
                data: Some(_),
                keep: false,
            } => assert_eq!(line, LineAddr(0)),
            ref other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.outstanding_wbs(), 1);
        c.handle_dir_msg(DirToCache::WbAck {
            line: LineAddr(0),
            flush: false,
        });
        assert_eq!(c.outstanding_wbs(), 0);
        assert_eq!(c.stats().eviction_writebacks, 1);
    }

    #[test]
    fn coalescing_and_mshr_capacity() {
        let mut c = ctrl();
        let (o1, _) = c.cpu_access(L, Access::Write, OpToken(1));
        assert_eq!(o1, CpuOutcome::Miss);
        let (o2, s2) = c.cpu_access(L, Access::Write, OpToken(2));
        assert_eq!(o2, CpuOutcome::Coalesced);
        assert!(s2.is_empty());
        let r = fill(&mut c, L, true);
        assert_eq!(r.completed, vec![OpToken(1), OpToken(2)]);
        // Capacity: 4 MSHRs.
        for i in 0..4u64 {
            c.cpu_access(LineAddr(200 + i), Access::Read, OpToken(10 + i));
        }
        let (o, _) = c.cpu_access(LineAddr(300), Access::Read, OpToken(99));
        assert_eq!(o, CpuOutcome::MshrFull);
    }

    #[test]
    fn write_cannot_coalesce_on_shared_fill() {
        let mut c = ctrl();
        c.cpu_access(L, Access::Read, OpToken(1)); // Read miss in flight
        let (o, _) = c.cpu_access(L, Access::Write, OpToken(2));
        assert_eq!(o, CpuOutcome::MshrFull); // must retry later
    }

    #[test]
    fn flush_keeps_line_cached_and_clean() {
        let mut c = ctrl();
        c.cpu_access(L, Access::Write, OpToken(1));
        fill(&mut c, L, true);
        assert_eq!(c.dirty_count(), 1);
        let wb = c.flush_line(L).unwrap();
        match wb {
            CacheToDir::WriteBack {
                data: Some(_),
                keep: true,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.l2_state(L), LineState::Exclusive);
        assert_eq!(c.dirty_count(), 0);
        // Flushing a clean line is a no-op.
        assert!(c.flush_line(L).is_none());
        // Still hits afterwards.
        let (o, _) = c.cpu_access(L, Access::Read, OpToken(2));
        assert_eq!(o, CpuOutcome::L1Hit);
    }

    #[test]
    fn wipe_clears_everything() {
        let mut c = ctrl();
        c.cpu_access(L, Access::Write, OpToken(1));
        fill(&mut c, L, true);
        c.cpu_access(LineAddr(200), Access::Read, OpToken(2)); // MSHR open
        c.wipe();
        assert_eq!(c.dirty_count(), 0);
        assert_eq!(c.outstanding_misses(), 0);
        assert_eq!(c.l2_state(L), LineState::Invalid);
    }

    #[test]
    fn read_nack_retries_verbatim() {
        let mut c = ctrl();
        c.cpu_access(L, Access::Read, OpToken(1));
        let r = c.handle_dir_msg(DirToCache::Nack {
            line: L,
            req: CacheReq::Read,
        });
        assert_eq!(
            r.sends,
            vec![CacheToDir::Req {
                line: L,
                req: CacheReq::Read
            }]
        );
        assert_eq!(c.stats().nack_retries, 1);
    }
}
