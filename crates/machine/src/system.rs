//! The assembled CC-NUMA machine.
//!
//! [`System`] wires every substrate together and runs the discrete-event
//! loop: CPUs execute their workload streams inline (L1/L2 hits cost pure
//! latency), and every L2-level transaction — misses, upgrades, write-backs,
//! invalidations, parity updates — flows through the event queue with
//! directory-pipeline, DRAM-bank, and torus-link contention. With ReVive
//! enabled, the directory hook performs logging and parity updates exactly
//! as Sections 3.2.1–3.2.2 describe, and a checkpoint orchestrator runs the
//! Figure 6 sequence at the configured interval.
//!
//! Timing approximations (all documented in DESIGN.md §2): CPUs run inline
//! for at most one quantum before yielding to the event queue, so external
//! invalidations land at quantum granularity; directory memory accesses
//! serialize within a transaction; recovery is timed by an explicit
//! bandwidth model rather than the cycle-level loop.

use std::collections::{HashMap, VecDeque};

use revive_sim::hashing::FastHashSet;

use revive_coherence::cache_ctrl::{Access, CacheCtrl, CpuOutcome, OpToken};
use revive_coherence::directory::{DirCtrl, DirIn, Send as CohSend};
use revive_coherence::hook::NullHook;
use revive_coherence::msg::{CacheToDir, DirToCache};
use revive_coherence::port::MemPort;
use revive_core::checkpoint::CkptTimeline;
use revive_core::dirext::{OutMsg, ReviveHook};
use revive_core::lbits::LBits;
use revive_core::log::MemLog;
use revive_core::parity::{ParityAck, ParityUpdate};
use revive_core::recovery::RecoveryError;
use revive_core::redundancy::{Redundancy, StripeCode};
use revive_core::validate::{audit_redundancy, IncrementalAudit, MemoryImage};
use revive_mem::addr::{AddressMap, LineAddr, PageAddr, LINES_PER_PAGE, LINE_SIZE};
use revive_mem::dram::{Dram, DramOp};
use revive_mem::line::LineData;
use revive_mem::main_memory::{NodeMemory, PageSet, SharedPage};
use revive_net::fabric::Fabric;
use revive_net::topology::{Direction, LinkId, Torus};
use revive_sim::engine::EventQueue;
use revive_sim::resource::Resource;
use revive_sim::time::Ns;
use revive_sim::trace::{CkptPhaseEvent, Span, TraceBuffer, TraceEvent};
use revive_sim::types::NodeId;
use revive_workloads::Workload;

use crate::config::{ExperimentConfig, MachineError, ReviveMode, WorkloadSpec};
use crate::differential::AuditReport;
use crate::metrics::{Metrics, ServingReport, TrafficClass};
use crate::page_table::PageTable;
use crate::runner::CommitPoint;
use crate::sampling::{IntervalSampler, SampleInput};
use crate::serving::ServingTracker;

/// Debug aid: set `REVIVE_TRACE_LINE` to a decimal global line number to
/// print every message touching that line to stderr — the fastest way to
/// reconstruct a protocol interleaving when an invariant trips.
fn trace_line() -> Option<u64> {
    static LINE: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
    *LINE.get_or_init(|| {
        std::env::var("REVIVE_TRACE_LINE")
            .ok()
            .and_then(|v| v.parse().ok())
    })
}

/// One node's hardware.
pub(crate) struct Node {
    pub(crate) ctrl: CacheCtrl,
    pub(crate) dir: DirCtrl,
    pub(crate) hook: Option<ReviveHook>,
    pub(crate) mem: NodeMemory,
    pub(crate) dram: Dram,
    dir_pipe: Resource,
    pub(crate) log_pages: FastHashSet<PageAddr>,
}

/// One CPU's execution state.
pub(crate) struct Cpu {
    local_time: Ns,
    blocked_load: Option<OpToken>,
    pending_stores: usize,
    store_stalled: bool,
    retry: Option<revive_workloads::Op>,
    /// Ops fetched from the workload stream so far (≥ `ops_done`: a fetched
    /// op may still sit in `retry`). Snapshotted at checkpoints so rollback
    /// can fast-forward a rebuilt workload to the exact stream position.
    fetched: u64,
    pub(crate) done: bool,
    at_barrier: bool,
    flush_queue: VecDeque<LineAddr>,
    flush_outstanding: usize,
}

impl Cpu {
    fn new() -> Cpu {
        Cpu {
            local_time: Ns::ZERO,
            blocked_load: None,
            pending_stores: 0,
            store_stalled: false,
            retry: None,
            fetched: 0,
            done: false,
            at_barrier: false,
            flush_queue: VecDeque::new(),
            flush_outstanding: 0,
        }
    }
}

/// A message in flight on the torus.
#[derive(Clone, Debug)]
pub(crate) struct NetMsg {
    src: NodeId,
    dst: NodeId,
    class: TrafficClass,
    payload: Payload,
}

#[derive(Clone, Debug)]
enum Payload {
    ToDir(CacheToDir),
    ToCache(DirToCache),
    Par { update: ParityUpdate, mirror: bool },
    ParAck(ParityAck),
}

impl Payload {
    fn size_bytes(&self) -> u32 {
        match self {
            Payload::ToDir(m) => m.size_bytes(),
            Payload::ToCache(m) => m.size_bytes(),
            Payload::Par { update, .. } => update.size_bytes(),
            Payload::ParAck(a) => a.size_bytes(),
        }
    }
}

/// Events of the machine's discrete-event loop.
pub(crate) enum Ev {
    /// A CPU resumes inline execution.
    Cpu(usize),
    /// A network message arrives at its destination node.
    Deliver(NetMsg),
    /// The checkpoint timer fires.
    CkptStart,
    /// The post-interrupt cache flush actually begins (interrupt latency and
    /// context save have elapsed).
    FlushStart,
    /// An armed fault's trigger time arrives: it strikes.
    Inject,
    /// The interval sampler takes its periodic reading.
    Sample,
    /// A watchdog retry of a dropped message fires (live-fault mode only):
    /// the original requester re-sends the identical message after a
    /// backoff — indistinguishable, protocol-wise, from a slow delivery.
    Retry {
        /// The message being retried, byte-for-byte the original.
        msg: NetMsg,
        /// Which attempt this is (1 = first retry).
        attempt: u32,
        /// When the original copy was dropped (for retry-latency metrics).
        first_drop: Ns,
    },
    /// Periodic liveness check while live faults are armed: unsticks a
    /// 2PC barrier whose participant died mid-commit, and acts as the
    /// heartbeat backstop when no traffic ever touches the dead component.
    WatchdogCheck,
}

impl Ev {
    /// The redundancy update this event still carries toward memory, with
    /// its destination and whether it carries values: a parity/replica
    /// update in flight, or parked in a watchdog retry — which is just as
    /// much in flight. Audits and teardown must land both kinds, or the
    /// redundancy groups they see are torn.
    fn pending_update(&self) -> Option<(NodeId, &ParityUpdate, bool)> {
        let (Ev::Deliver(msg) | Ev::Retry { msg, .. }) = self else {
            return None;
        };
        match &msg.payload {
            Payload::Par { update, mirror } => Some((msg.dst, update, *mirror)),
            _ => None,
        }
    }
}

/// A live fabric fault: instead of freezing the machine, its strike
/// severs the fabric and lets execution continue until detection is
/// *organic* (watchdog strikes, a hung barrier, or a retry forced onto a
/// detour).
pub(crate) enum LiveFault {
    /// These nodes (and their routers) die with messages in flight.
    Nodes(Vec<NodeId>),
    /// Every link between an adjacent pair dies, both directions; the
    /// nodes themselves survive.
    Link {
        /// One endpoint of the severed pair.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
}

/// When an armed fault strikes, relative to the checkpoint stream.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Trigger {
    /// `delay` after checkpoint `id` commits.
    AfterCommit { id: u64, delay: Ns },
    /// On the `point` edge of checkpoint `id`'s two-phase commit.
    CommitEdge { id: u64, point: CommitPoint },
    /// At an absolute simulated time.
    At(Ns),
}

/// A fault armed to strike: when, and what.
pub(crate) struct Armed {
    pub(crate) when: Trigger,
    /// The live fabric fault the strike severs, or `None` for a scripted
    /// fault, which halts the machine on the spot.
    pub(crate) live: Option<LiveFault>,
}

/// The record of a fault's strike, kept until recovery resumes the
/// machine.
#[derive(Clone, Copy)]
pub(crate) struct Strike {
    /// When the fault struck.
    pub(crate) at: Ns,
    /// The rollback target: the last checkpoint committed before the
    /// strike. Work after it, the detection window included, is lost.
    /// After an after-mark strike that is the checkpoint before the
    /// interrupted one; after an after-commit strike it is the one that
    /// just committed, so rollback discards nothing. A live fault's
    /// survivors may commit further checkpoints before detection, but one
    /// the dead node never took part in is no legal target.
    pub(crate) target: u64,
    /// When `target` committed.
    pub(crate) committed: Ns,
    /// Struck on a commit edge: the CPUs stay frozen in the flush phase
    /// until recovery, so an empty queue is expected, not a deadlock.
    on_edge: bool,
}

/// Watchdog state; it exists only after a live fault severed the fabric.
#[derive(Default)]
struct LiveWatch {
    /// Consecutive watchdog strikes per unreachable destination.
    strikes: HashMap<NodeId, u32>,
    /// Periodic watchdog checks elapsed since the sever.
    checks: u32,
    /// When organic detection fired (watchdog strike-out, hung barrier,
    /// or a rerouted retry exposing a dead link).
    detected_at: Option<Ns>,
}

/// Checkpoint orchestration state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CkPhase {
    Running,
    Flushing,
}

/// The MemPort implementation the directory and hook see: functional memory
/// plus DRAM timing plus class-tagged access accounting.
struct NodePort<'a> {
    mem: &'a mut NodeMemory,
    dram: &'a mut Dram,
    map: AddressMap,
    redundancy: Option<Redundancy>,
    log_pages: &'a FastHashSet<PageAddr>,
    metrics: &'a mut Metrics,
    node: NodeId,
    cursor: Ns,
    reply_at: Option<Ns>,
    ctx_class: TrafficClass,
}

impl NodePort<'_> {
    fn classify(&self, line: LineAddr) -> TrafficClass {
        let page = line.page();
        if self.log_pages.contains(&page) {
            TrafficClass::Log
        } else if self.redundancy.is_some_and(|r| r.is_redundancy_page(page)) {
            TrafficClass::Par
        } else {
            self.ctx_class
        }
    }
}

impl MemPort for NodePort<'_> {
    fn read(&mut self, line: LineAddr) -> LineData {
        debug_assert_eq!(self.map.home_of_line(line), self.node);
        let local = self.map.local_line_index(line);
        self.cursor = self.dram.access(self.cursor, local, DramOp::Read);
        self.metrics.mem(self.classify(line));
        self.mem.read_line(local)
    }

    fn write(&mut self, line: LineAddr, data: LineData) {
        debug_assert_eq!(self.map.home_of_line(line), self.node);
        let local = self.map.local_line_index(line);
        self.cursor = self.dram.access(self.cursor, local, DramOp::Write);
        self.metrics.mem(self.classify(line));
        self.mem.write_line(local, data);
    }

    fn mark(&mut self) {
        self.reply_at = Some(self.cursor);
    }
}

/// Execution-stream state captured at a checkpoint commit, so that rollback
/// can rewind the CPUs to the checkpoint and *re-execute* the discarded work
/// (the paper's recovery model: memory and computation both resume from the
/// checkpoint). Cheap — a few counters per CPU — so it is always captured.
struct ExecSnapshot {
    /// The checkpoint interval the snapshot belongs to (0 = run start).
    interval: u64,
    ops_done: Vec<u64>,
    fetched: Vec<u64>,
    /// A fetched-but-unissued op parked by an MshrFull retry.
    retry: Vec<Option<revive_workloads::Op>>,
    cpu_ops: u64,
    instructions: u64,
    /// Per-node memory clones to verify a rollback against (validation
    /// mode only; never for interval 0).
    memories: Option<Vec<NodeMemory>>,
}

impl ExecSnapshot {
    fn initial(cpus: usize) -> ExecSnapshot {
        ExecSnapshot {
            interval: 0,
            ops_done: vec![0; cpus],
            fetched: vec![0; cpus],
            retry: vec![None; cpus],
            cpu_ops: 0,
            instructions: 0,
            memories: None,
        }
    }
}

/// Memory lines with every pending redundancy update landed, kept by page
/// so that a read consults the lines only on the few pages they touch.
struct Overlay {
    /// The global pages holding an overlay line.
    touched: PageSet,
    pages: Vec<(PageAddr, [Option<LineData>; LINES_PER_PAGE])>,
}

impl Overlay {
    fn new(map: &AddressMap) -> Overlay {
        Overlay {
            touched: PageSet::empty(map.nodes() as u64 * map.pages_per_node()),
            pages: Vec::new(),
        }
    }

    fn touches(&self, page: PageAddr) -> bool {
        self.touched.contains(page.index())
    }

    fn get(&self, line: LineAddr) -> Option<LineData> {
        if !self.touches(line.page()) {
            return None;
        }
        let (_, lines) = self.pages.iter().find(|(p, _)| *p == line.page())?;
        lines[line.index_in_page()]
    }

    fn set(&mut self, line: LineAddr, data: LineData) {
        let page = line.page();
        if !self.touches(page) {
            self.touched.insert(page.index());
            self.pages.push((page, [None; LINES_PER_PAGE]));
        }
        let (_, lines) = self
            .pages
            .iter_mut()
            .find(|(p, _)| *p == page)
            .expect("a touched page has lines");
        lines[line.index_in_page()] = Some(data);
    }
}

/// The assembled machine (see module docs).
pub struct System {
    pub(crate) cfg: ExperimentConfig,
    pub(crate) map: AddressMap,
    pub(crate) redundancy: Option<Redundancy>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) cpus: Vec<Cpu>,
    pub(crate) fabric: Fabric,
    queue: EventQueue<Ev>,
    pub(crate) page_table: PageTable,
    workload: Box<dyn Workload>,
    pub(crate) metrics: Metrics,
    pub(crate) ops_done: Vec<u64>,
    running_cpus: usize,
    pub(crate) finish_time: Option<Ns>,
    ck_phase: CkPhase,
    /// Whether the current flush phase has actually started pumping lines
    /// (false in the interrupt/context-save window right after the timer).
    ck_flush_begun: bool,
    ck_arrived: usize,
    ck_timeline: CkptTimeline,
    pub(crate) ck_stats: revive_core::checkpoint::CkptStats,
    pub(crate) ckpt_counter: u64,
    early_pending: bool,
    exec_snaps: VecDeque<ExecSnapshot>,
    /// Validation mode: the commit audit's cached group verdicts.
    commit_audit: IncrementalAudit,
    /// Stops the event loop: set by a scripted strike and by organic
    /// detection, cleared by [`System::detect`].
    halted: bool,
    /// The fault armed to strike next.
    armed: Option<Armed>,
    /// The fault that struck, until recovery resumes the machine.
    struck: Option<Strike>,
    /// Set by a live fault's sever, dropped when the fabric heals. The
    /// one check the fault machinery adds to the clean send, CPU and
    /// delivery paths, so fault-free runs take byte-identical event
    /// streams.
    watch: Option<Box<LiveWatch>>,
    /// Validation-mode audit reports (parity sweeps, log round-trips).
    pub(crate) audits: Vec<AuditReport>,
    /// Event-trace ring buffer (no-op unless `cfg.obs` enables tracing).
    pub(crate) tracer: TraceBuffer,
    /// Per-epoch time-series sampler (None unless `cfg.obs` enables it).
    pub(crate) sampler: Option<IntervalSampler>,
    /// Phase spans (checkpoint and recovery timelines) for Chrome traces.
    pub(crate) spans: Vec<Span>,
    /// Scratch buffers recycled across directory inputs so the hot path
    /// never allocates (see `dir_in`).
    scratch_sends: Vec<CohSend>,
    scratch_par: Vec<OutMsg>,
    /// Request-lifecycle tracking; `Some` ⇔ the workload is
    /// [`WorkloadSpec::Serving`]. Batch runs pay one branch per op.
    serving: Option<ServingTracker>,
}

impl System {
    /// Builds the machine for an experiment.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::BadConfig`] for inconsistent configurations
    /// (zero or non-square node counts, empty parity groups, parity groups
    /// not dividing the node count, log fraction leaving no allocatable
    /// memory, …).
    pub fn new(cfg: ExperimentConfig) -> Result<System, MachineError> {
        let m = &cfg.machine;
        let nodes = m.nodes;
        if nodes == 0 {
            return Err(MachineError::BadConfig(
                "machine needs at least one node".into(),
            ));
        }
        let side = (nodes as f64).sqrt().round() as usize;
        if side * side != nodes {
            return Err(MachineError::BadConfig(format!(
                "node count {nodes} is not a perfect square"
            )));
        }
        let map = AddressMap::new(nodes, m.mem_per_node);
        let mode = cfg.revive.mode;
        let redundancy = match mode.stripe_shape() {
            None => None,
            Some((g, r)) => {
                let frac = mode.mirrored_fraction();
                if !(0.0..1.0).contains(&frac) {
                    return Err(MachineError::BadConfig(format!(
                        "mirrored fraction {frac} outside [0, 1)"
                    )));
                }
                let mirrored = (map.pages_per_node() as f64 * frac) as u64;
                let (copies, scheme): (bool, fn(StripeCode) -> Redundancy) = match mode {
                    ReviveMode::DoubleParity { .. } => (false, Redundancy::Double),
                    ReviveMode::Replication { .. } => (true, Redundancy::Replication),
                    // 1+1 parity is mirroring, whose updates carry values.
                    _ => (g == 1, Redundancy::Xor),
                };
                let code = StripeCode::try_new(map, g, r, copies, mirrored)
                    .map_err(|e| MachineError::BadConfig(format!("{}: {e}", mode.name())))?;
                Some(scheme(code))
            }
        };

        // Reserve log pages: the highest non-redundancy pages of each node.
        let mut log_page_sets: Vec<FastHashSet<PageAddr>> = vec![FastHashSet::default(); nodes];
        if let Some(pm) = redundancy.as_ref() {
            let protected_per_node: u64 = map.pages_per_node()
                - map
                    .pages_of(NodeId(0))
                    .filter(|&p| pm.is_redundancy_page(p))
                    .count() as u64;
            let log_pages =
                ((protected_per_node as f64 * cfg.revive.log_fraction).ceil() as u64).max(1);
            if log_pages >= protected_per_node {
                return Err(MachineError::BadConfig(
                    "log fraction leaves no allocatable memory".into(),
                ));
            }
            for n in NodeId::all(nodes) {
                let mut candidates: Vec<PageAddr> = map
                    .pages_of(n)
                    .filter(|&p| !pm.is_redundancy_page(p))
                    .collect();
                candidates.reverse(); // logs take the highest stripes
                log_page_sets[n.index()] =
                    candidates.into_iter().take(log_pages as usize).collect();
            }
        }

        let mut node_states: Vec<Node> = NodeId::all(nodes)
            .map(|n| {
                let hook = redundancy.map(|rdx| {
                    let mut slots: Vec<LineAddr> = log_page_sets[n.index()]
                        .iter()
                        .flat_map(|p| p.lines())
                        .collect();
                    slots.sort_unstable();
                    let log = MemLog::new(n, slots);
                    let lbits = match cfg.revive.lbit_dir_cache {
                        Some(cap) => LBits::dir_cache(map.lines_per_node(), cap),
                        None => LBits::full(map.lines_per_node()),
                    };
                    ReviveHook::new(rdx, log, lbits)
                });
                Node {
                    ctrl: CacheCtrl::new(n, m.l1, m.l2, m.mshrs),
                    dir: DirCtrl::new(),
                    hook,
                    mem: NodeMemory::new(m.mem_per_node as usize),
                    dram: Dram::new(m.dram),
                    dir_pipe: Resource::new(),
                    log_pages: log_page_sets[n.index()].clone(),
                }
            })
            .collect();
        if cfg.shadow_checkpoints {
            // Validation mode: mirror every log into a software shadow so
            // recovery can round-trip scan/replay against it.
            for node in &mut node_states {
                if let Some(h) = node.hook.as_mut() {
                    h.attach_shadow();
                }
            }
        }

        let reserved: Vec<FastHashSet<PageAddr>> = log_page_sets;
        let redundancy_copy = redundancy;
        let page_table = PageTable::new(map, |p| {
            let n = map.home_of_page(p);
            if reserved[n.index()].contains(&p) {
                return false;
            }
            !redundancy_copy.is_some_and(|r| r.is_redundancy_page(p))
        });

        let workload = cfg.workload.build(nodes, m.scale(), cfg.seed);
        let serving = match cfg.workload {
            WorkloadSpec::Serving(kind, slo) => {
                Some(ServingTracker::new(slo, kind.ops_per_request, nodes))
            }
            _ => None,
        };
        let mut queue = EventQueue::new();
        for c in 0..nodes {
            queue.schedule(Ns::ZERO, Ev::Cpu(c));
        }
        if redundancy.is_some() && cfg.revive.ckpt.interval != Ns::MAX {
            queue.schedule(cfg.revive.ckpt.interval, Ev::CkptStart);
        }
        let tracer = if cfg.obs.tracing() {
            TraceBuffer::enabled(cfg.obs.trace_capacity)
        } else {
            TraceBuffer::disabled()
        };
        let sampler = if cfg.obs.sampling() {
            let epoch = Ns(cfg.obs.epoch_us * 1_000);
            queue.schedule(epoch, Ev::Sample);
            Some(IntervalSampler::new(epoch))
        } else {
            None
        };

        Ok(System {
            map,
            redundancy,
            nodes: node_states,
            cpus: (0..nodes).map(|_| Cpu::new()).collect(),
            fabric: Fabric::new(Torus::new(side, side), m.fabric),
            queue,
            page_table,
            workload,
            metrics: Metrics::default(),
            ops_done: vec![0; nodes],
            running_cpus: nodes,
            finish_time: None,
            ck_phase: CkPhase::Running,
            ck_flush_begun: false,
            ck_arrived: 0,
            ck_timeline: CkptTimeline::default(),
            ck_stats: revive_core::checkpoint::CkptStats::default(),
            ckpt_counter: 0,
            early_pending: false,
            exec_snaps: VecDeque::from([ExecSnapshot::initial(nodes)]),
            commit_audit: IncrementalAudit::default(),
            halted: false,
            armed: None,
            struck: None,
            watch: None,
            scratch_sends: Vec::new(),
            scratch_par: Vec::new(),
            audits: Vec::new(),
            tracer,
            sampler,
            spans: Vec::new(),
            serving,
            cfg,
        })
    }

    /// The global address map.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// The machine-wide page table (diagnostics, placement inspection).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Simulated time so far.
    pub fn now(&self) -> Ns {
        self.queue.now()
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }

    /// Checkpoints committed so far.
    pub fn checkpoints(&self) -> u64 {
        self.ckpt_counter
    }

    fn make_token(&mut self, cpu: usize, write: bool) -> OpToken {
        // The sequence number is the op's position in the CPU's workload
        // stream, not a per-attempt counter: the cache derives store values
        // from the token, so replay after a rollback must hand the same op
        // the same token regardless of MshrFull retries or timing. (A
        // MshrFull'd op reuses its token — nothing was issued for it.)
        let seq = self.ops_done[cpu];
        let mut t = seq & 0x0000_7FFF_FFFF_FFFF;
        t |= (cpu as u64) << 47;
        if write {
            t |= 1 << 63;
        }
        OpToken(t)
    }

    fn token_cpu(token: OpToken) -> usize {
        ((token.0 >> 47) & 0xFFFF) as usize
    }

    fn token_is_write(token: OpToken) -> bool {
        token.0 >> 63 == 1
    }

    fn token_seq(token: OpToken) -> u64 {
        token.0 & 0x0000_7FFF_FFFF_FFFF
    }

    fn send(&mut self, at: Ns, src: NodeId, dst: NodeId, class: TrafficClass, payload: Payload) {
        let msg = NetMsg {
            src,
            dst,
            class,
            payload,
        };
        if self.watch.is_some() {
            return self.send_faulted(at, msg);
        }
        self.ship(at, None, msg);
    }

    /// Charges `msg` to the traffic metrics, sends it over the fabric —
    /// on its dimension-order route, or on `route` when a fault forced one
    /// — and schedules its delivery. Returns the arrival time. Inlined so
    /// the clean send keeps its direct fabric call.
    #[inline(always)]
    fn ship(&mut self, at: Ns, route: Option<&[LinkId]>, msg: NetMsg) -> Ns {
        let size = msg.payload.size_bytes();
        self.metrics.net(msg.class, size);
        let arrival = match route {
            None => self.fabric.send(at, msg.src, msg.dst, size),
            Some(route) => self.fabric.send_routed(at, route, size),
        };
        self.metrics
            .net_latency(msg.class, arrival.saturating_sub(at));
        self.queue
            .schedule(arrival.max(self.queue.now()), Ev::Deliver(msg));
        arrival
    }

    /// The send path after a live fault severed the fabric: a dead source
    /// sends nothing; an unreachable destination drops the message and
    /// hands it to the watchdog; a broken dimension-order route detours
    /// over the surviving links.
    fn send_faulted(&mut self, at: Ns, msg: NetMsg) {
        let (src, dst) = (msg.src, msg.dst);
        if self.fabric.fault().node_dead(src) {
            self.trace_drop(at, src, dst);
            return;
        }
        let torus = *self.fabric.torus();
        match torus.route_around(src, dst, self.fabric.fault()) {
            Some(route) => {
                if route != torus.route(src, dst) {
                    self.tracer.record(
                        at,
                        TraceEvent::Reroute {
                            src: src.index() as u16,
                            dst: dst.index() as u16,
                        },
                    );
                    self.note_link_fault_observed(at);
                }
                self.ship(at, Some(&route), msg);
            }
            None => {
                // Dead or unreachable destination: charge the attempt,
                // drop it now, let the watchdog retry (and eventually
                // strike out).
                self.metrics.net(msg.class, msg.payload.size_bytes());
                self.trace_drop(at, src, dst);
                self.schedule_retry(msg, 1, at);
            }
        }
    }

    fn trace_drop(&mut self, at: Ns, src: NodeId, dst: NodeId) {
        self.tracer.record(
            at,
            TraceEvent::MsgDrop {
                src: src.index() as u16,
                dst: dst.index() as u16,
            },
        );
    }

    /// Schedules retry `attempt` of a dropped message: exponential backoff
    /// (`watchdog_timeout × 2^(attempt-1)`) from the drop instant, with the
    /// doubling count saturating at `watchdog_backoff_cap` (traced once it
    /// engages) so long outages cannot overflow the delay.
    fn schedule_retry(&mut self, msg: NetMsg, attempt: u32, first_drop: Ns) {
        let cap = self.cfg.machine.watchdog_backoff_cap.min(62);
        let doublings = attempt.saturating_sub(1);
        if doublings > cap {
            self.tracer.record(
                self.queue.now(),
                TraceEvent::RetryBackoffCapped {
                    dst: msg.dst.index() as u16,
                    attempt: doublings.min(u8::MAX as u32) as u8,
                },
            );
        }
        let backoff = Ns(self
            .cfg
            .machine
            .watchdog_timeout
            .0
            .saturating_mul(1u64 << doublings.min(cap)));
        let at = first_drop.max(self.queue.now()) + backoff;
        self.queue.schedule(
            at,
            Ev::Retry {
                msg,
                attempt,
                first_drop,
            },
        );
    }

    fn home_of(&self, line: LineAddr) -> NodeId {
        self.map.home_of_line(line)
    }

    /// Takes one interval sample (see [`crate::sampling`]) and reschedules
    /// itself while the machine still has work.
    fn take_sample(&mut self, t: Ns) {
        let Some(sampler) = self.sampler.as_mut() else {
            return;
        };
        let mut log_bytes = Vec::with_capacity(self.nodes.len());
        let mut util_max = 0.0f64;
        let mut outstanding = 0u64;
        let mut dir_busy = 0u64;
        let mut dram_busy = Ns::ZERO;
        for node in &self.nodes {
            if let Some(h) = node.hook.as_ref() {
                log_bytes.push(h.log.live_bytes());
                util_max = util_max.max(h.log.utilization());
            }
            outstanding += node.ctrl.outstanding_misses() as u64;
            dir_busy += node.dir.busy_count() as u64;
            dram_busy += node.dram.busy_total();
        }
        sampler.push(SampleInput {
            t,
            net_bytes: self.metrics.net_bytes,
            net_msgs: self.metrics.net_msgs,
            retries: self.metrics.retry_msgs,
            mem_accesses: self.metrics.mem_accesses,
            ops: self.metrics.cpu_ops,
            log_bytes,
            log_utilization_max: util_max,
            outstanding_misses: outstanding,
            dir_busy,
            dram_busy,
            fabric: self.fabric.stats(),
            checkpoints: self.ckpt_counter,
            requests: self.serving.as_ref().map_or(0, |tr| tr.completed_so_far()),
        });
        let epoch = sampler.epoch();
        if self.running_cpus > 0 && !self.halted {
            self.queue.schedule(t + epoch, Ev::Sample);
        }
    }

    /// Runs until every CPU has issued its op budget and the event queue
    /// drained, or until a strike or its detection halts the machine.
    ///
    /// # Panics
    ///
    /// Panics on deadlock (no events pending while CPUs still have work) —
    /// always a simulator bug, never a legal outcome.
    pub fn run(&mut self) {
        self.run_until(Ns::MAX);
    }

    /// Runs until `deadline` (exclusive), budget exhaustion, or a halt.
    pub fn run_until(&mut self, deadline: Ns) {
        while !self.halted && self.step_one(deadline) {}
    }

    /// Pops and dispatches one event before `deadline`. Returns false when
    /// the loop should stop (queue drained or deadline reached).
    fn step_one(&mut self, deadline: Ns) -> bool {
        match self.queue.pop_before(deadline) {
            Err(None) => {
                self.check_drained();
                false
            }
            Err(Some(_)) => false,
            Ok((t, ev)) => {
                self.dispatch(ev, t);
                true
            }
        }
    }

    /// Panics with full per-CPU diagnostics when the queue drained while
    /// CPUs still had work — always a simulator bug, never a legal outcome.
    /// Except after a fault froze them: a commit-edge strike leaves the
    /// CPUs in the flush phase until recovery, and after a sever the
    /// watchdog owns liveness.
    fn check_drained(&self) {
        let frozen = self.watch.is_some() || self.struck.is_some_and(|s| s.on_edge);
        if self.running_cpus != 0 && !frozen {
            let states: Vec<String> = self
                            .cpus
                            .iter()
                            .enumerate()
                            .map(|(i, c)| {
                                format!(
                                    "cpu{i}: done={} blocked={:?} stores={} stalled={} retry={} barrier={} fq={} fo={} mshrs={} wbs={}",
                                    c.done,
                                    c.blocked_load,
                                    c.pending_stores,
                                    c.store_stalled,
                                    c.retry.is_some(),
                                    c.at_barrier,
                                    c.flush_queue.len(),
                                    c.flush_outstanding,
                                    self.nodes[i].ctrl.outstanding_misses(),
                                    self.nodes[i].ctrl.outstanding_wbs(),
                                )
                            })
                            .collect();
            let dirs: Vec<String> = self
                .nodes
                .iter()
                .enumerate()
                .flat_map(|(i, n)| {
                    n.dir
                        .debug_stuck()
                        .into_iter()
                        .map(move |s| format!("dir{i} {s}"))
                })
                .collect();
            panic!(
                            "deadlock: no events but {} CPUs unfinished (ops_done={:?}, ck_phase={:?}, arrived={})\n{}\n{}",
                            self.running_cpus,
                            self.ops_done,
                            self.ck_phase,
                            self.ck_arrived,
                            states.join("\n"),
                            dirs.join("\n")
                        );
        }
    }

    /// Routes one popped event to its handler.
    fn dispatch(&mut self, ev: Ev, t: Ns) {
        match ev {
            Ev::Cpu(c) => self.cpu_step(c, t),
            Ev::Deliver(msg) => self.deliver(msg, t),
            Ev::CkptStart => self.ckpt_start(t),
            Ev::FlushStart => self.flush_start(t),
            Ev::Inject => self.strike(t),
            Ev::Sample => self.take_sample(t),
            Ev::Retry {
                msg,
                attempt,
                first_drop,
            } => self.retry_msg(msg, attempt, first_drop, t),
            Ev::WatchdogCheck => self.watchdog_check(t),
        }
    }

    // ---------------- CPU execution ----------------

    fn cpu_step(&mut self, c: usize, now: Ns) {
        if self.halted
            || self.cpus[c].done
            || self.ck_phase != CkPhase::Running
            || self.cpus[c].blocked_load.is_some()
            || self.cpus[c].store_stalled
            || self.cpu_dead(c)
        {
            return;
        }
        let quantum = self.cfg.machine.cpu_quantum;
        let mut t = now.max(self.cpus[c].local_time);
        let deadline = t + quantum;
        let node_id = NodeId::from(c);
        loop {
            if self.ops_done[c] >= self.cfg.ops_per_cpu {
                self.cpus[c].done = true;
                self.running_cpus -= 1;
                if self.running_cpus == 0 {
                    self.finish_time = Some(t);
                }
                return;
            }
            let op = match self.cpus[c].retry.take() {
                Some(op) => op,
                None => {
                    // Open-loop gating: a serving CPU between requests
                    // sleeps until its next request *arrives* — arrivals
                    // are independent of service, so time lost to
                    // checkpoints or recovery becomes queueing delay, not
                    // a slower arrival process.
                    if self.serving.is_some() {
                        if let Some(st) = self.workload.request_status(c) {
                            if st.ops_left == 0 && Ns(st.next_arrival) > t {
                                self.cpus[c].local_time = t;
                                self.queue.schedule(Ns(st.next_arrival), Ev::Cpu(c));
                                return;
                            }
                        }
                    }
                    self.cpus[c].fetched += 1;
                    let op = self.workload.next(c);
                    if let Some(tr) = self.serving.as_mut() {
                        if tr.is_first_op(self.cpus[c].fetched) {
                            let st = self
                                .workload
                                .request_status(c)
                                .expect("serving workload must report request status");
                            tr.request_started(c, Ns(st.arrival));
                        }
                    }
                    op
                }
            };
            t += Ns(op.think_ns as u64);
            let addr = self
                .page_table
                .translate(op.vaddr, node_id)
                .unwrap_or_else(|e| panic!("page allocation failed: {e}"));
            let line = addr.line();
            let access = if op.write {
                Access::Write
            } else {
                Access::Read
            };
            // The op's stream position and token sequence, captured before
            // `finish_op` advances the counters: the serving tracker keys
            // its commit write on both.
            let pos = self.cpus[c].fetched;
            let seq = self.ops_done[c];
            let token = self.make_token(c, op.write);
            let (outcome, sends) = self.nodes[c].ctrl.cpu_access(line, access, token);
            match outcome {
                CpuOutcome::L1Hit => {
                    t += self.cfg.machine.l1_hit;
                    self.finish_op(c, &op);
                    if let Some(tr) = self.serving.as_mut() {
                        if tr.is_last_op(pos) {
                            tr.complete_now(c, pos, t);
                        }
                    }
                }
                CpuOutcome::L2Hit => {
                    t += self.cfg.machine.l2_hit;
                    self.finish_op(c, &op);
                    if let Some(tr) = self.serving.as_mut() {
                        if tr.is_last_op(pos) {
                            tr.complete_now(c, pos, t);
                        }
                    }
                }
                CpuOutcome::Miss | CpuOutcome::Coalesced => {
                    for s in sends {
                        let class = match s {
                            CacheToDir::WriteBack { .. } => TrafficClass::ExeWb,
                            _ => TrafficClass::RdRdx,
                        };
                        let dst = self.home_of(s.line());
                        self.send(t, node_id, dst, class, Payload::ToDir(s));
                    }
                    self.finish_op(c, &op);
                    if op.write {
                        if let Some(tr) = self.serving.as_mut() {
                            if tr.is_last_op(pos) {
                                // A request's commit write completes when
                                // its store is acknowledged, not when it is
                                // posted.
                                tr.arm(c, seq, pos);
                            }
                        }
                        self.cpus[c].pending_stores += 1;
                        if self.cpus[c].pending_stores >= self.cfg.machine.store_buffer {
                            self.cpus[c].store_stalled = true;
                            self.cpus[c].local_time = t;
                            return;
                        }
                    } else {
                        self.cpus[c].blocked_load = Some(token);
                        self.cpus[c].local_time = t;
                        return;
                    }
                }
                CpuOutcome::MshrFull => {
                    self.cpus[c].retry = Some(op);
                    self.cpus[c].local_time = t;
                    self.queue
                        .schedule(t + self.cfg.machine.mshr_retry_delay, Ev::Cpu(c));
                    return;
                }
            }
            if t >= deadline {
                self.cpus[c].local_time = t;
                self.queue.schedule(t, Ev::Cpu(c));
                return;
            }
        }
    }

    fn finish_op(&mut self, c: usize, op: &revive_workloads::Op) {
        self.ops_done[c] += 1;
        self.metrics.cpu_ops += 1;
        self.metrics.instructions += op.instructions as u64;
    }

    fn wake_cpu(&mut self, c: usize, t: Ns) {
        let at = t.max(self.cpus[c].local_time);
        self.cpus[c].local_time = at;
        self.queue.schedule(at.max(self.queue.now()), Ev::Cpu(c));
    }

    fn complete_token(&mut self, token: OpToken, t: Ns) {
        let c = Self::token_cpu(token);
        if Self::token_is_write(token) {
            debug_assert!(self.cpus[c].pending_stores > 0);
            self.cpus[c].pending_stores -= 1;
            if let Some(tr) = self.serving.as_mut() {
                tr.store_completed(c, Self::token_seq(token), t);
            }
            if self.cpus[c].store_stalled {
                self.cpus[c].store_stalled = false;
                if self.ck_phase == CkPhase::Running {
                    self.wake_cpu(c, t);
                }
            }
        } else if self.cpus[c].blocked_load == Some(token) {
            self.cpus[c].blocked_load = None;
            if self.ck_phase == CkPhase::Running {
                self.wake_cpu(c, t);
            }
        }
    }

    // ---------------- the fault lifecycle ----------------

    /// Arms `armed` to strike at its trigger (the runner calls this before
    /// `run`).
    pub(crate) fn arm(&mut self, armed: Armed) {
        if let Trigger::At(at) = armed.when {
            self.queue.schedule(at.max(self.queue.now()), Ev::Inject);
        }
        self.armed = Some(armed);
    }

    /// Whether the armed fault strikes at `when`.
    fn armed_for(&self, when: Trigger) -> bool {
        self.armed.as_ref().is_some_and(|a| a.when == when)
    }

    /// The armed fault strikes at `t`. The strike traces one `inject`
    /// event and records the rollback target, then halts the machine on
    /// the spot (a scripted fault) or severs the fabric and lets it run on
    /// (a live one).
    fn strike(&mut self, t: Ns) {
        let armed = self.armed.take().expect("only an armed fault strikes");
        self.tracer.record(t, TraceEvent::Inject);
        self.struck = Some(Strike {
            at: t,
            target: self.ckpt_counter,
            committed: self
                .ck_stats
                .timelines
                .last()
                .map_or(Ns::ZERO, |tl| tl.committed),
            on_edge: matches!(armed.when, Trigger::CommitEdge { .. }),
        });
        match armed.live {
            Some(f) => self.sever(f, t),
            None => self.halted = true,
        }
    }

    /// The fault that struck, until recovery resumes the machine.
    pub(crate) fn struck(&self) -> Option<Strike> {
        self.struck
    }

    /// Runs the machine through the detection window of the fault that
    /// struck, and returns when it was detected. A live fault was detected
    /// organically by the watch; if the survivors finished the workload
    /// before any liveness signal fired, detection falls back to
    /// `deadline`. A scripted fault lets the machine keep
    /// (conservatively) executing until `deadline` — the paper's
    /// footnote 1. Either way the machine is left un-halted, so the
    /// post-recovery resume can re-execute the rolled-back work.
    pub(crate) fn detect(&mut self, deadline: Ns) -> Ns {
        self.halted = false;
        match self.watch.as_ref().map(|w| w.detected_at) {
            Some(Some(t)) => t,
            Some(None) => self.now().max(deadline),
            None => {
                self.run_until(deadline);
                self.now().max(deadline)
            }
        }
    }

    /// Whether node `c`'s CPU is dead under a severed fabric.
    fn cpu_dead(&self, c: usize) -> bool {
        self.watch.is_some() && self.fabric.fault().node_dead(NodeId::from(c))
    }

    /// Severs the fabric at the strike instant: kills the faulted
    /// components, sweeps in-flight messages whose route crosses a dead
    /// element (dropping them into the watchdog's hands), and starts the
    /// watch with its periodic liveness check. The machine keeps running —
    /// detection is organic from here.
    fn sever(&mut self, fault: LiveFault, t: Ns) {
        self.watch = Some(Box::default());
        let torus = *self.fabric.torus();
        match fault {
            LiveFault::Nodes(ns) => {
                for n in ns {
                    self.fabric.fault_mut().kill_node(n);
                }
            }
            LiveFault::Link { a, b } => {
                for dir in Direction::ALL {
                    if torus.neighbor(a, dir) == b {
                        let idx = torus.link_index(LinkId { from: a, dir });
                        self.fabric.fault_mut().kill_link(idx);
                    }
                    if torus.neighbor(b, dir) == a {
                        let idx = torus.link_index(LinkId { from: b, dir });
                        self.fabric.fault_mut().kill_link(idx);
                    }
                }
            }
        }
        // Sweep the in-flight messages. Everything pending was sent while
        // the fabric was clean, so each message is on its dimension-order
        // route; any route crossing a dead element loses its message at
        // this instant. Live-source casualties go to the watchdog — except
        // redundancy updates: a parity/replica update leaves the dying
        // node's memory controller before the write it describes is
        // acknowledged (Section 4.2's update-before-ack ordering), so by
        // the time the sever lands it is already committed to the fabric
        // and still arrives at its healthy redundancy home. Dropping it
        // would leave committed data — whose log entries are never
        // replayed — unreconstructable.
        for (at, ev) in self.queue.drain() {
            let Ev::Deliver(msg) = ev else {
                self.queue.schedule(at, ev);
                continue;
            };
            let fault = self.fabric.fault();
            let dead_src = fault.node_dead(msg.src);
            let dead_dst = fault.node_dead(msg.dst);
            let shipped_redundancy =
                dead_src && !dead_dst && matches!(msg.payload, Payload::Par { .. });
            let survives = shipped_redundancy
                || (!dead_src
                    && !dead_dst
                    && torus.route_survives(&torus.route(msg.src, msg.dst), fault));
            if survives {
                self.queue.schedule(at, Ev::Deliver(msg));
                continue;
            }
            self.trace_drop(t, msg.src, msg.dst);
            if !dead_src {
                self.schedule_retry(msg, 1, t);
            }
        }
        let period = self.cfg.machine.watchdog_timeout * self.cfg.machine.watchdog_strikes as u64;
        self.queue.schedule(t + period, Ev::WatchdogCheck);
    }

    /// Retries a dropped message. A reachable destination gets the
    /// identical message re-sent over the surviving links (protocol-safe:
    /// indistinguishable from a slow delivery); an unreachable one is a
    /// strike, and `watchdog_strikes` consecutive strikes against the same
    /// destination raise organic detection.
    fn retry_msg(&mut self, msg: NetMsg, attempt: u32, first_drop: Ns, t: Ns) {
        if self.halted || self.fabric.fault().node_dead(msg.src) {
            return;
        }
        let Some(watch) = self.watch.as_deref_mut() else {
            return;
        };
        let torus = *self.fabric.torus();
        let attempt_u8 = attempt.min(u8::MAX as u32) as u8;
        let dst = msg.dst;
        match torus.route_around(msg.src, dst, self.fabric.fault()) {
            Some(route) => {
                watch.strikes.remove(&dst);
                self.tracer.record(
                    t,
                    TraceEvent::Retry {
                        dst: dst.index() as u16,
                        attempt: attempt_u8,
                    },
                );
                let detour = route != torus.route(msg.src, dst);
                let class = msg.class;
                let arrival = self.ship(t, Some(&route), msg);
                self.metrics
                    .retry(class, arrival.saturating_sub(first_drop));
                if detour {
                    self.note_link_fault_observed(t);
                }
            }
            None => {
                let s = watch.strikes.entry(dst).or_insert(0);
                *s += 1;
                let struck_out = *s >= self.cfg.machine.watchdog_strikes;
                self.tracer.record(
                    t,
                    TraceEvent::WatchdogTimeout {
                        dst: dst.index() as u16,
                        attempt: attempt_u8,
                    },
                );
                if struck_out {
                    self.organic_detect(t);
                } else {
                    self.schedule_retry(msg, attempt + 1, first_drop);
                }
            }
        }
    }

    /// The periodic liveness check after a sever. Detects a 2PC barrier
    /// hung on a dead participant immediately, and any live fault after
    /// [`Self::HEARTBEAT_CHECKS`] quiet periods (the node-level heartbeat
    /// a real machine room runs) — so every scenario terminates even if no
    /// message ever touches the dead component.
    fn watchdog_check(&mut self, t: Ns) {
        if self.halted {
            return;
        }
        let Some(watch) = self.watch.as_deref_mut() else {
            return;
        };
        if watch.detected_at.is_some() {
            return;
        }
        watch.checks += 1;
        let dead_nodes = self.fabric.fault().dead_node_count() > 0;
        if dead_nodes && self.ck_phase == CkPhase::Flushing {
            // A dead participant can never arrive at the barrier: the
            // checkpoint is hung, and this is how it gets unstuck.
            self.organic_detect(t);
            return;
        }
        if watch.checks >= Self::HEARTBEAT_CHECKS {
            self.organic_detect(t);
            return;
        }
        if self.running_cpus == 0 {
            return; // run is over; nothing left to watch
        }
        let period = self.cfg.machine.watchdog_timeout * self.cfg.machine.watchdog_strikes as u64;
        self.queue.schedule(t + period, Ev::WatchdogCheck);
    }

    /// Heartbeat backstop: detect any live fault after this many quiet
    /// watchdog periods.
    const HEARTBEAT_CHECKS: u32 = 8;

    /// A retry or fresh send was forced onto a detour while only links are
    /// dead: the fabric monitor has positively identified the dead link.
    /// (With dead *nodes*, detours between survivors are routine and
    /// detection waits for strikes or the hung barrier.)
    fn note_link_fault_observed(&mut self, t: Ns) {
        if self.fabric.fault().dead_node_count() == 0 {
            self.organic_detect(t);
        }
    }

    /// Organic detection: halt the machine and record the instant (the
    /// first one only). The runner takes over from here (damage, quiesce,
    /// recovery).
    fn organic_detect(&mut self, t: Ns) {
        let watch = self
            .watch
            .as_deref_mut()
            .expect("detection follows a sever");
        if watch.detected_at.is_none() {
            watch.detected_at = Some(t);
            self.halted = true;
        }
    }

    /// Checks that every surviving node can still reach every other over
    /// the surviving links; returns the typed partition error otherwise
    /// (the §3.3 assumption made checkable instead of implicit).
    pub(crate) fn check_partition(&self) -> Option<RecoveryError> {
        let fault = self.fabric.fault();
        let torus = self.fabric.torus();
        let survivors: Vec<NodeId> = (0..self.nodes.len())
            .map(NodeId::from)
            .filter(|n| !fault.node_dead(*n))
            .collect();
        let first = *survivors.first()?;
        for &n in &survivors[1..] {
            if torus.route_around(first, n, fault).is_none() {
                return Some(RecoveryError::Partitioned {
                    node: n,
                    survivors: survivors.len(),
                });
            }
        }
        None
    }

    // ---------------- message delivery ----------------

    fn deliver(&mut self, msg: NetMsg, t: Ns) {
        if self.watch.is_some() && self.fabric.fault().node_dead(msg.dst) {
            // Delivered into a dead node: the message is gone. (The sender
            // already paid for the flight; the watchdog owns liveness.)
            self.trace_drop(t, msg.src, msg.dst);
            return;
        }
        let NetMsg {
            src,
            dst,
            class,
            payload,
        } = msg;
        if let Some(l) = trace_line() {
            let hit = match &payload {
                Payload::ToDir(m) => m.line().0 == l,
                Payload::ToCache(m) => format!("{m:?}").contains(&format!("LineAddr({l})")),
                _ => false,
            };
            if hit {
                eprintln!("[{t}] {src}->{dst} {payload:?}");
            }
        }
        match payload {
            Payload::ToCache(m) => self.deliver_to_cache(dst, m, t),
            Payload::ToDir(m) => {
                let din = match m {
                    CacheToDir::Req { line, req } => DirIn::Req {
                        from: src,
                        line,
                        req,
                    },
                    CacheToDir::WriteBack { line, data, keep } => DirIn::WriteBack {
                        from: src,
                        line,
                        data,
                        keep,
                    },
                    CacheToDir::FetchResp { line, data, dirty } => DirIn::FetchResp {
                        from: src,
                        line,
                        data,
                        dirty,
                    },
                    CacheToDir::InvalAck { line } => DirIn::InvalAck { from: src, line },
                };
                self.dir_in(dst, din, class, t);
            }
            Payload::Par { update, mirror } => self.apply_parity(dst, src, update, mirror, t),
            Payload::ParAck(ack) => {
                self.dir_in(
                    dst,
                    DirIn::HookAck {
                        line: ack.ack_to_line,
                    },
                    TrafficClass::Par,
                    t,
                );
            }
        }
    }

    fn deliver_to_cache(&mut self, dst: NodeId, m: DirToCache, t: Ns) {
        let c = dst.index();
        let is_nack = matches!(m, DirToCache::Nack { .. });
        let is_flush_ack = matches!(m, DirToCache::WbAck { flush: true, .. });
        if is_nack && self.tracer.is_enabled() {
            if let DirToCache::Nack { line, .. } = m {
                self.tracer.record(
                    t,
                    TraceEvent::Nack {
                        node: c as u16,
                        line: line.0,
                    },
                );
            }
        }
        let reaction = self.nodes[c].ctrl.handle_dir_msg(m);
        let delay = if is_nack {
            self.cfg.machine.nack_retry_delay
        } else {
            Ns(10)
        };
        for s in reaction.sends {
            let cls = match s {
                CacheToDir::WriteBack { .. } => TrafficClass::ExeWb,
                _ => TrafficClass::RdRdx,
            };
            let home = self.home_of(s.line());
            self.send(t + delay, dst, home, cls, Payload::ToDir(s));
        }
        for token in reaction.completed {
            self.complete_token(token, t);
        }
        if self.ck_phase == CkPhase::Flushing {
            if is_flush_ack {
                debug_assert!(self.cpus[c].flush_outstanding > 0);
                self.cpus[c].flush_outstanding -= 1;
                self.pump_flush(c, t);
            }
            self.check_barrier_arrival(c, t);
        }
    }

    /// Runs a directory input at its home node, charging pipeline + DRAM
    /// time, then ships the outputs and any ReVive parity messages.
    fn dir_in(&mut self, node: NodeId, din: DirIn, class: TrafficClass, t: Ns) {
        let n = node.index();
        let trace_coherence = self.tracer.is_enabled();
        let din_line = if trace_coherence {
            if let DirIn::Req { from, line, req } = &din {
                self.tracer.record(
                    t,
                    TraceEvent::CoherenceStart {
                        node: from.index() as u16,
                        line: line.0,
                        exclusive: !matches!(req, revive_coherence::msg::CacheReq::Read),
                    },
                );
            }
            Some(din.line())
        } else {
            None
        };
        let t1 = self.nodes[n]
            .dir_pipe
            .acquire(t, self.cfg.machine.dir_latency);
        let mut outs = std::mem::take(&mut self.scratch_sends);
        let mut hook_msgs = std::mem::take(&mut self.scratch_par);
        let (t_done, t_reply) = {
            let Node {
                ctrl: _,
                dir,
                hook,
                mem,
                dram,
                dir_pipe: _,
                log_pages,
            } = &mut self.nodes[n];
            let mut port = NodePort {
                mem,
                dram,
                map: self.map,
                redundancy: self.redundancy,
                log_pages,
                metrics: &mut self.metrics,
                node,
                cursor: t1,
                reply_at: None,
                ctx_class: class,
            };
            let mut null = NullHook;
            match hook.as_mut() {
                Some(h) => dir.handle_into(din, &mut port, h, &mut outs),
                None => dir.handle_into(din, &mut port, &mut null, &mut outs),
            }
            if let Some(h) = hook.as_mut() {
                h.take_outbox_into(&mut hook_msgs);
            }
            let reply_at = port.reply_at.unwrap_or(port.cursor);
            (port.cursor, reply_at)
        };
        for out in outs.drain(..) {
            let cls = match out.msg {
                DirToCache::WbAck { .. } => class,
                _ => TrafficClass::RdRdx,
            };
            self.send(t_reply, node, out.to, cls, Payload::ToCache(out.msg));
        }
        for hm in hook_msgs.drain(..) {
            self.send(
                t_done,
                node,
                hm.to,
                TrafficClass::Par,
                Payload::Par {
                    update: hm.update,
                    mirror: hm.mirror,
                },
            );
        }
        if let Some(line) = din_line {
            // The transaction on this line concluded iff the entry is no
            // longer mid-flight after the input was absorbed.
            if !self.nodes[n].dir.is_busy(line) {
                self.tracer.record(
                    t_done,
                    TraceEvent::CoherenceEnd {
                        node: n as u16,
                        line: line.0,
                    },
                );
            }
        }
        self.scratch_sends = outs;
        self.scratch_par = hook_msgs;
        self.maybe_early_checkpoint(n, t_done);
    }

    /// Applies a parity update at its parity home: XOR (or overwrite, for
    /// mirroring) each delta, then acknowledge.
    fn apply_parity(
        &mut self,
        dst: NodeId,
        src: NodeId,
        update: ParityUpdate,
        mirror: bool,
        t: Ns,
    ) {
        let n = dst.index();
        let mut cursor = t;
        for (pline, delta) in &update.deltas {
            debug_assert_eq!(self.map.home_of_line(*pline), dst);
            let local = self.map.local_line_index(*pline);
            // A value overwrites (one DRAM write); a delta is a
            // read-modify-write.
            if !mirror {
                cursor = self.nodes[n].dram.access(cursor, local, DramOp::Read);
                self.metrics.mem(TrafficClass::Par);
            }
            cursor = self.nodes[n].dram.access(cursor, local, DramOp::Write);
            self.metrics.mem(TrafficClass::Par);
            let mem = &mut self.nodes[n].mem;
            mem.write_line(
                local,
                StripeCode::apply_update(mirror, mem.read_line(local), *delta),
            );
        }
        if let Some(line) = update.ack_to_line {
            self.send(
                cursor,
                dst,
                src,
                TrafficClass::Par,
                Payload::ParAck(ParityAck { ack_to_line: line }),
            );
        }
    }

    // ---------------- checkpointing ----------------

    fn maybe_early_checkpoint(&mut self, n: usize, t: Ns) {
        if self.ck_phase != CkPhase::Running || self.early_pending {
            return;
        }
        let Some(hook) = self.nodes[n].hook.as_mut() else {
            return;
        };
        if hook.log.utilization() < self.cfg.revive.ckpt.early_trigger_utilization {
            return;
        }
        if self.cfg.revive.ckpt.interval == Ns::MAX {
            // Infinite-interval measurement configs (CpInf) never commit;
            // recycle the oldest half of the log to keep the fiction alive.
            hook.recycle_oldest_half();
            self.tracer
                .record(t, TraceEvent::LogWrap { node: n as u16 });
            return;
        }
        self.tracer
            .record(t, TraceEvent::EarlyCkptTrigger { node: n as u16 });
        self.early_pending = true;
        self.ck_stats.early_triggers += 1;
        self.queue.schedule(t.max(self.queue.now()), Ev::CkptStart);
    }

    fn ckpt_start(&mut self, t: Ns) {
        // Reschedule the periodic timer regardless.
        if self.ck_phase != CkPhase::Running {
            return;
        }
        if self.running_cpus == 0 {
            return; // run is over; no more checkpoints
        }
        self.early_pending = false;
        self.ck_phase = CkPhase::Flushing;
        self.ck_flush_begun = false;
        self.ck_arrived = 0;
        self.ck_timeline = CkptTimeline {
            id: self.ckpt_counter + 1,
            started: t,
            ..CkptTimeline::default()
        };
        self.tracer.record(
            t,
            TraceEvent::CkptPhase {
                id: self.ck_timeline.id,
                phase: CkptPhaseEvent::Started,
            },
        );
        let flush_at =
            t + self.cfg.revive.ckpt.interrupt_latency + self.cfg.revive.ckpt.context_save;
        self.ck_timeline.flush_started = flush_at;
        for c in 0..self.cpus.len() {
            self.cpus[c].at_barrier = false;
            self.cpus[c].flush_queue.clear();
            self.cpus[c].flush_outstanding = 0;
        }
        // The flush itself starts only after the checkpoint interrupt has
        // been taken and context saved. Crucially the caches must not be
        // touched before then: flushing a line downgrades it to
        // Exclusive-clean *now*, and if its write-back message were stamped
        // with the future `flush_at`, an in-flight fill landing inside the
        // window could evict the line and send a clean replacement notice
        // that overtakes the flush data on the same cache→home path. The
        // home would process the notice first (line becomes Uncached), then
        // drop the late flush write-back as a stale owner's — losing the
        // only copy of the dirty data. Mutating cache state at the same
        // instant the message departs keeps the path FIFO.
        self.queue.schedule(flush_at, Ev::FlushStart);
    }

    fn flush_start(&mut self, t: Ns) {
        if self.ck_phase != CkPhase::Flushing || self.ck_flush_begun {
            return; // checkpoint aborted (recovery) since the timer fired
        }
        self.ck_flush_begun = true;
        self.tracer.record(
            t,
            TraceEvent::CkptPhase {
                id: self.ck_timeline.id,
                phase: CkptPhaseEvent::FlushStarted,
            },
        );
        for c in 0..self.cpus.len() {
            if self.cpu_dead(c) {
                continue; // a dead node's cache has nothing left to say
            }
            self.cpus[c].flush_queue = self.nodes[c].ctrl.dirty_lines().into();
        }
        for c in 0..self.cpus.len() {
            if self.cpu_dead(c) {
                continue;
            }
            self.pump_flush(c, t);
            self.check_barrier_arrival(c, t);
        }
    }

    fn pump_flush(&mut self, c: usize, t: Ns) {
        while self.cpus[c].flush_outstanding < self.cfg.machine.flush_outstanding {
            let Some(line) = self.cpus[c].flush_queue.pop_front() else {
                return;
            };
            let Some(wb) = self.nodes[c].ctrl.flush_line(line) else {
                continue; // no longer dirty (fetched away since listing)
            };
            self.cpus[c].flush_outstanding += 1;
            self.ck_timeline.lines_flushed += 1;
            let home = self.home_of(line);
            self.send(
                t,
                NodeId::from(c),
                home,
                TrafficClass::CkpWb,
                Payload::ToDir(wb),
            );
        }
    }

    fn check_barrier_arrival(&mut self, c: usize, t: Ns) {
        if self.ck_phase != CkPhase::Flushing
            || !self.ck_flush_begun
            || self.cpus[c].at_barrier
            || self.cpu_dead(c)
        {
            // A dead participant never arrives: the barrier hangs until the
            // watchdog's liveness check notices and raises detection.
            return;
        }
        let cpu = &self.cpus[c];
        let node = &self.nodes[c];
        let drained = cpu.flush_queue.is_empty()
            && cpu.flush_outstanding == 0
            && node.ctrl.outstanding_wbs() == 0
            && node.ctrl.outstanding_misses() == 0
            && cpu.pending_stores == 0
            && cpu.blocked_load.is_none();
        if !drained {
            return;
        }
        self.cpus[c].at_barrier = true;
        self.ck_arrived += 1;
        if self.ck_arrived == self.cpus.len() {
            self.commit_checkpoint(t);
        }
    }

    fn commit_checkpoint(&mut self, t: Ns) {
        let barrier = self.cfg.revive.ckpt.barrier_latency;
        self.ck_timeline.flush_done = t;
        self.tracer.record(
            t,
            TraceEvent::CkptPhase {
                id: self.ck_timeline.id,
                phase: CkptPhaseEvent::FlushDone,
            },
        );
        let t_b1 = t + barrier;
        self.ck_timeline.barrier1_done = t_b1;
        let new_id = self.ckpt_counter + 1;
        if self.armed_for(Trigger::CommitEdge {
            id: new_id,
            point: CommitPoint::AfterBarrier1,
        }) {
            // Error on the barrier-1 edge: no log has marked the new
            // checkpoint yet, so the previous checkpoint is still the
            // recovery target everywhere. CPUs remain frozen in the flush
            // phase until the runner recovers the machine.
            self.strike(t_b1);
            return;
        }
        // Between the barriers every node marks the checkpoint in its local
        // log (the two-phase commit of Section 4.2).
        let mut mark_done = t_b1;
        for n in 0..self.nodes.len() {
            let Node {
                hook,
                mem,
                dram,
                log_pages,
                ..
            } = &mut self.nodes[n];
            let Some(h) = hook.as_mut() else { continue };
            let mut port = NodePort {
                mem,
                dram,
                map: self.map,
                redundancy: self.redundancy,
                log_pages,
                metrics: &mut self.metrics,
                node: NodeId::from(n),
                cursor: t_b1,
                reply_at: None,
                ctx_class: TrafficClass::Log,
            };
            h.mark_checkpoint(new_id, &mut port);
            mark_done = mark_done.max(port.cursor);
            let msgs = h.drain_outbox();
            for hm in msgs {
                self.send(
                    mark_done,
                    NodeId::from(n),
                    hm.to,
                    TrafficClass::Par,
                    Payload::Par {
                        update: hm.update,
                        mirror: hm.mirror,
                    },
                );
            }
        }
        self.ck_timeline.marked = mark_done;
        self.tracer.record(
            mark_done,
            TraceEvent::CkptPhase {
                id: new_id,
                phase: CkptPhaseEvent::Marked,
            },
        );
        if self.armed_for(Trigger::CommitEdge {
            id: new_id,
            point: CommitPoint::AfterMark,
        }) {
            // Error inside the two-phase-commit window: every log is marked
            // but the commit never completes, so the previous checkpoint
            // must stay recoverable. CPUs remain frozen in the flush phase
            // until the runner recovers the machine.
            self.strike(mark_done);
            return;
        }
        let t_commit = mark_done + barrier;
        self.ck_timeline.committed = t_commit;
        self.ck_timeline.resumed = t_commit;
        self.ckpt_counter = new_id;
        // Reclaim logs for checkpoints no longer needed and clear L bits.
        let reclaim_before = new_id.saturating_sub(self.cfg.revive.ckpt.retained - 1);
        for node in &mut self.nodes {
            if let Some(h) = node.hook.as_mut() {
                h.begin_interval(new_id, reclaim_before);
            }
        }
        self.tracer.record(
            t_commit,
            TraceEvent::CkptPhase {
                id: new_id,
                phase: CkptPhaseEvent::Committed,
            },
        );
        if self.tracer.is_enabled() {
            for (name, start, end) in self.ck_timeline.phases() {
                self.spans.push(Span {
                    name: format!("ckpt{new_id}/{name}"),
                    cat: "checkpoint",
                    start,
                    end,
                    track: new_id as u32,
                });
            }
        }
        self.ck_stats.timelines.push(self.ck_timeline);
        // Validation mode costs what changed: the pages written since the
        // last commit are the only ones whose groups the audit re-reads.
        let written: Vec<PageSet> = match self.cfg.shadow_checkpoints {
            true => self
                .nodes
                .iter_mut()
                .map(|n| n.mem.take_written())
                .collect(),
            false => Vec::new(),
        };
        self.capture_exec_snapshot(new_id);
        self.audit_parity(format!("commit of checkpoint {new_id}"), Some(&written));
        if self.armed_for(Trigger::CommitEdge {
            id: new_id,
            point: CommitPoint::AfterCommit,
        }) {
            // Error on the reclaim edge: the checkpoint committed and old
            // log space was just reclaimed, but no CPU has resumed. The
            // freshly committed checkpoint is the recovery target, and
            // rolling back to it must discard exactly nothing.
            self.strike(t_commit);
            return;
        }
        // Resume execution.
        self.ck_phase = CkPhase::Running;
        for c in 0..self.cpus.len() {
            if !self.cpus[c].done {
                self.wake_cpu(c, t_commit);
            }
        }
        // Schedule the next periodic checkpoint and any armed strike.
        if self.cfg.revive.ckpt.interval != Ns::MAX {
            self.queue
                .schedule(t_commit + self.cfg.revive.ckpt.interval, Ev::CkptStart);
        }
        if let Some(Armed {
            when: Trigger::AfterCommit { id, delay },
            ..
        }) = self.armed
        {
            if id == new_id {
                self.queue.schedule(t_commit + delay, Ev::Inject);
            }
        }
    }

    // ---------------- validation: snapshots, rollback, audits ----------------

    /// Records the execution state at `interval`'s commit; in validation
    /// mode also a copy-on-write clone of every node's memory.
    fn capture_exec_snapshot(&mut self, interval: u64) {
        let memories = self
            .cfg
            .shadow_checkpoints
            .then(|| self.nodes.iter().map(|n| n.mem.clone()).collect());
        self.exec_snaps.push_back(ExecSnapshot {
            memories,
            interval,
            ops_done: self.ops_done.clone(),
            fetched: self.cpus.iter().map(|c| c.fetched).collect(),
            retry: self.cpus.iter().map(|c| c.retry).collect(),
            cpu_ops: self.metrics.cpu_ops,
            instructions: self.metrics.instructions,
        });
        // Window: retained + 1 — the oldest legal rollback target is
        // `counter - retained`, one interval older than the newest
        // `retained` commits (interval 0 until that many commits).
        while self.exec_snaps.len() > self.cfg.revive.ckpt.retained as usize + 1 {
            self.exec_snaps.pop_front();
        }
        // Completions no rollback can reach — at or before the *oldest*
        // retained snapshot's stream positions — are durable now; fold
        // them into the SLO ledger. The rest stay provisional.
        if let Some(tr) = self.serving.as_mut() {
            let front = self.exec_snaps.front().expect("snapshot just pushed");
            let parked: Vec<bool> = front.retry.iter().map(|r| r.is_some()).collect();
            tr.fold_durable(&front.fetched, &parked);
        }
    }

    /// Rewinds the CPUs' workload streams to the state captured at `target`'s
    /// commit, so the work discarded by a rollback is re-executed. The
    /// workload generators are rebuilt from the experiment seed and
    /// fast-forwarded to the snapshotted stream positions — every workload's
    /// per-CPU stream is deterministic, so the replayed ops are bit-identical
    /// to the discarded ones. Returns how many completed ops were rolled back.
    pub(crate) fn rollback_execution(&mut self, target: u64) -> u64 {
        let snap = self
            .exec_snaps
            .iter()
            .find(|s| s.interval == target)
            .unwrap_or_else(|| panic!("no execution snapshot for interval {target}"));
        let nodes = self.cfg.machine.nodes;
        let mut workload = self
            .cfg
            .workload
            .build(nodes, self.cfg.machine.scale(), self.cfg.seed);
        for c in 0..nodes {
            for _ in 0..snap.fetched[c] {
                let _ = workload.next(c);
            }
        }
        self.workload = workload;
        let mut rolled = 0;
        let mut running = 0;
        for c in 0..nodes {
            rolled += self.ops_done[c] - snap.ops_done[c];
            self.ops_done[c] = snap.ops_done[c];
            self.cpus[c].fetched = snap.fetched[c];
            self.cpus[c].retry = snap.retry[c];
            self.cpus[c].done = snap.ops_done[c] >= self.cfg.ops_per_cpu;
            if !self.cpus[c].done {
                running += 1;
            }
        }
        self.running_cpus = running;
        if running > 0 {
            self.finish_time = None;
        }
        self.metrics.cpu_ops = snap.cpu_ops;
        self.metrics.instructions = snap.instructions;
        if let Some(tr) = self.serving.as_mut() {
            // Completions past the rollback target will re-execute and
            // complete again — drop them, squash in-flight commit writes,
            // and re-derive each CPU's current-request arrival from the
            // rebuilt (deterministic) workload stream.
            let parked: Vec<bool> = snap.retry.iter().map(|r| r.is_some()).collect();
            tr.drop_uncovered(&snap.fetched, &parked);
            for c in 0..nodes {
                tr.squash_cpu(c);
                if let Some(st) = self.workload.request_status(c) {
                    tr.resync_arrival(c, Ns(st.arrival));
                }
            }
        }
        // Snapshots past the target belong to discarded intervals: the
        // checkpoint counter rewinds to `target`, so the replayed timeline
        // re-commits the same interval ids — with different contents,
        // because post-recovery timing shifts the checkpoint boundaries. A
        // stale memory copy left behind would shadow the re-committed one
        // and fail verification of a later rollback to that interval.
        self.exec_snaps.retain(|s| s.interval <= target);
        rolled
    }

    /// The memory clones captured at `target`'s commit (validation mode).
    pub(crate) fn checkpoint_memories(&self, target: u64) -> Option<&[NodeMemory]> {
        self.exec_snaps
            .iter()
            .find(|s| s.interval == target)?
            .memories
            .as_deref()
    }

    /// Reads `line` from its home node's memory.
    pub(crate) fn read_home(&self, line: LineAddr) -> LineData {
        self.nodes[self.map.home_of_line(line).index()]
            .mem
            .read_line(self.map.local_line_index(line))
    }

    /// Audits every redundancy group (validation mode) and records the
    /// report under `context`.
    ///
    /// Parity traffic for the flushed write-backs and the just-shipped
    /// checkpoint markers may still be in flight at a commit, so the
    /// invariant audited is memory ⊕ pending updates: the queue is
    /// drained, pending updates are landed on a read overlay in delivery
    /// order, and the events are rescheduled untouched. (After recovery
    /// nothing is in flight and the overlay stays empty.)
    ///
    /// At a commit, `written` holds each node's pages written since the
    /// previous commit, and the commit audit re-reads only the groups
    /// they (or the overlay) touch. `None` sweeps every group afresh.
    /// Debug builds check every commit audit against the full sweep.
    pub(crate) fn audit_parity(&mut self, context: String, written: Option<&[PageSet]>) {
        if !self.cfg.shadow_checkpoints {
            return;
        }
        let Some(rdx) = self.redundancy else { return };
        let pending = self.queue.drain();
        let mut overlay = Overlay::new(&self.map);
        for (_, ev) in &pending {
            let Some((_, update, mirror)) = ev.pending_update() else {
                continue;
            };
            for (pline, delta) in &update.deltas {
                let current = overlay
                    .get(*pline)
                    .unwrap_or_else(|| self.read_home(*pline));
                overlay.set(*pline, StripeCode::apply_update(mirror, current, *delta));
            }
        }
        let mut commit_audit = std::mem::take(&mut self.commit_audit);
        let read = |line| overlay.get(line).unwrap_or_else(|| self.read_home(line));
        let audit = match written {
            Some(written) => {
                let map = self.map;
                let changed = |page| {
                    written[map.home_of_page(page).index()].contains(map.local_page_index(page))
                };
                let audit = commit_audit.sweep(&rdx, changed, |page| overlay.touches(page), &read);
                debug_assert_eq!(
                    audit,
                    audit_redundancy(&rdx, &read),
                    "the incremental audit diverged from the full sweep at the {context}"
                );
                audit
            }
            None => audit_redundancy(&rdx, &read),
        };
        self.commit_audit = commit_audit;
        for (at, ev) in pending {
            self.queue.schedule(at, ev);
        }
        self.audits.push(AuditReport {
            context,
            parity: audit,
            log_divergences: Vec::new(),
        });
    }

    /// The functional memory contents by *virtual* page: node memory with
    /// every dirty L2 line overlaid. Keyed by virtual page so that two runs
    /// of the same program compare equal even when first-touch placement
    /// put their pages on different nodes (physical placement is a timing
    /// artifact; the program-visible contents are not). A page no dirty
    /// line falls in shares its handle with home memory; only the others
    /// are copied and patched.
    pub fn memory_image(&self) -> MemoryImage {
        let mut dirty: Vec<(LineAddr, LineData)> = Vec::new();
        for node in &self.nodes {
            for line in node.ctrl.dirty_lines() {
                if let Some(d) = node.ctrl.cached_data(line) {
                    dirty.push((line, d));
                }
            }
        }
        dirty.sort_by_key(|&(line, _)| line);
        let mut img = MemoryImage::default();
        for (vpage, page) in self.page_table.mappings() {
            let home = &self.nodes[self.map.home_of_page(page).index()].mem;
            let mut shared = home.shared_page(self.map.local_page_index(page)).clone();
            let from = dirty.partition_point(|&(line, _)| line < page.first_line());
            for &(line, data) in dirty[from..].iter().take_while(|(l, _)| l.page() == page) {
                let at = line.index_in_page() * LINE_SIZE;
                SharedPage::make_mut(&mut shared)[at..at + LINE_SIZE]
                    .copy_from_slice(data.as_bytes());
            }
            img.insert_page(vpage, shared);
        }
        img
    }

    // ---------------- reset plumbing (used by the runner) ----------------

    pub(crate) fn queue_clear(&mut self) {
        self.queue.clear();
    }

    /// At error-injection teardown, in-flight parity updates that do not
    /// involve the lost node physically survive (they are traversing healthy
    /// links toward healthy memory controllers) and complete before the
    /// protocol is reset. Applying them keeps every surviving parity group
    /// consistent with its members' memory, which is the precondition both
    /// for on-demand page reconstruction and for the delta-maintained parity
    /// of log replay. Updates *to* the lost node die with its memory;
    /// updates *from* it were committed to the fabric before the write they
    /// describe was acknowledged (Section 4.2), so they complete like any
    /// other — mirroring the sever sweep, which preserves them for the same
    /// reason.
    pub(crate) fn drain_parity_inflight(&mut self, lost: &[NodeId]) {
        for (_, ev) in self.queue.drain() {
            let Some((dst, update, mirror)) = ev.pending_update() else {
                continue;
            };
            if lost.contains(&dst) {
                continue;
            }
            let mem = &mut self.nodes[dst.index()].mem;
            for (pline, delta) in &update.deltas {
                let local = self.map.local_line_index(*pline);
                mem.write_line(
                    local,
                    StripeCode::apply_update(mirror, mem.read_line(local), *delta),
                );
            }
        }
    }

    pub(crate) fn reset_cpu_transactions(&mut self, c: usize) {
        let cpu = &mut self.cpus[c];
        cpu.blocked_load = None;
        cpu.pending_stores = 0;
        cpu.store_stalled = false;
        cpu.retry = None;
        cpu.at_barrier = false;
        cpu.flush_queue.clear();
        cpu.flush_outstanding = 0;
        self.ck_phase = CkPhase::Running;
        self.ck_flush_begun = false;
        self.ck_arrived = 0;
        if let Some(tr) = self.serving.as_mut() {
            // The squashed stores include any in-flight commit write;
            // rollback re-execution will re-arm it.
            tr.squash_cpu(c);
        }
    }

    /// Restarts execution after a recovery outage and ends the fault's
    /// lifecycle: dead components come back (the paper's repaired-node
    /// rejoin), the watch and the strike record go, and the send path
    /// falls back to the clean route.
    pub(crate) fn resume_after_recovery(&mut self, t_resume: Ns) {
        let t = t_resume.max(self.now());
        for c in 0..self.cpus.len() {
            if !self.cpus[c].done {
                self.wake_cpu(c, t);
            }
        }
        if self.cfg.revive.ckpt.interval != Ns::MAX {
            let at = t + self.cfg.revive.ckpt.interval;
            self.queue.schedule(at.max(self.queue.now()), Ev::CkptStart);
        }
        self.fabric.fault_mut().heal_all();
        self.watch = None;
        self.struck = None;
    }

    /// Takes the serving tracker's final report (`None` for batch runs).
    /// Folds any still-provisional completions — call only when the run is
    /// over and no further rollback can happen.
    pub(crate) fn take_serving_report(&mut self) -> Option<ServingReport> {
        self.serving.take().map(|tr| tr.collect())
    }

    pub(crate) fn fabric_mean_latency(&self) -> Ns {
        self.fabric.mean_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revive_core::validate::ParityViolation;
    use revive_workloads::{AppId, SyntheticKind};

    /// Runs `sys` until checkpoint `id` has committed.
    fn run_to_commit(sys: &mut System, id: u64) {
        let mut deadline = sys.now();
        while sys.checkpoints() < id {
            assert!(sys.running_cpus > 0, "the run ended before checkpoint {id}");
            deadline += Ns::from_us(5);
            sys.run_until(deadline);
        }
    }

    /// The commit audit serves cached verdicts for groups no one wrote, so
    /// a write it is not told about would go unseen. A flip made through
    /// `NodeMemory` is flagged like any other write, and the next commit
    /// names the group.
    #[test]
    fn commit_audit_finds_a_flip_in_a_group_no_one_wrote() {
        let mut cfg = ExperimentConfig::test_small(AppId::Lu);
        cfg.ops_per_cpu = 200_000;
        let mut sys = System::new(cfg).unwrap();
        run_to_commit(&mut sys, 2);
        let rdx = sys.redundancy.expect("revive on");
        let map = sys.map;
        // A group of pages the workload never allocates and no log lives
        // in: nothing writes it, so its verdict has been cached since the
        // first commit.
        let untouched = |page: &PageAddr| {
            !sys.page_table.allocated_pages().contains(page)
                && sys.nodes.iter().all(|n| !n.log_pages.contains(page))
        };
        let group = (0..map.nodes() as u64 * map.pages_per_node())
            .map(|p| rdx.group_of(PageAddr(p)))
            .find(|g| g.data.iter().chain(&g.redundancy).all(untouched))
            .expect("some group is untouched");
        let line = LineAddr(group.data[0].first_line().0 + 9);
        let node = map.home_of_line(line).index();
        let local = map.local_line_index(line);
        let mem = &mut sys.nodes[node].mem;
        mem.write_line(local, mem.read_line(local) ^ LineData::fill(0x5A));

        run_to_commit(&mut sys, 3);
        let audit = |id: u64| {
            let context = format!("commit of checkpoint {id}");
            let report = sys.audits.iter().find(|a| a.context == context);
            report.expect("an audit at every commit").parity.clone()
        };
        assert!(audit(2).is_clean());
        let anchor = group.redundancy[0];
        assert_eq!(
            audit(3).violations,
            vec![ParityViolation {
                parity_page: anchor,
                stripe: map.local_page_index(anchor),
                node: map.home_of_page(anchor),
                offset: 9,
            }]
        );
    }

    /// A memory image taken mid-interval, while L2 lines are dirty, equals
    /// the line-by-line build (every dirty line over home memory), and the
    /// pages no dirty line falls in share their handle with home memory.
    #[test]
    fn memory_image_patches_dirty_lines_and_shares_clean_pages() {
        let mut cfg = ExperimentConfig::test_small(AppId::Lu);
        cfg.workload = WorkloadSpec::Synthetic(SyntheticKind::WsExceedsL2);
        cfg.ops_per_cpu = 200_000;
        let mut sys = System::new(cfg).unwrap();
        run_to_commit(&mut sys, 1);
        sys.run_until(sys.now() + Ns::from_us(300));
        let mut dirty: HashMap<LineAddr, LineData> = HashMap::new();
        for node in &sys.nodes {
            for line in node.ctrl.dirty_lines() {
                if let Some(d) = node.ctrl.cached_data(line) {
                    dirty.insert(line, d);
                }
            }
        }
        assert!(!dirty.is_empty(), "no dirty L2 lines mid-interval");
        let image = sys.memory_image();
        let (mut patched, mut shared) = (0, 0);
        for (vpage, page) in sys.page_table.mappings() {
            let mem = &sys.nodes[sys.map.home_of_page(page).index()].mem;
            let mut want = Vec::new();
            for line in page.lines() {
                let home = || mem.read_line(sys.map.local_line_index(line));
                let data = dirty.get(&line).copied().unwrap_or_else(home);
                want.extend_from_slice(data.as_bytes());
            }
            assert_eq!(image.page(vpage), Some(&want[..]), "vpage {vpage}");
            let home = mem.shared_page(sys.map.local_page_index(page));
            let clean = page.lines().all(|line| !dirty.contains_key(&line));
            let handle = image.page(vpage).expect("mapped").as_ptr();
            assert_eq!(clean, std::ptr::eq(handle, home.as_ptr()), "vpage {vpage}");
            match clean {
                true => shared += 1,
                false => patched += 1,
            }
        }
        assert!(
            patched > 0 && shared > 0,
            "{patched} patched, {shared} shared"
        );
    }
}
