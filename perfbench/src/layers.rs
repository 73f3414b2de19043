//! The traced run's per-layer numbers.
//!
//! Layers are the simulator's crates. Each layer's public entry point is
//! timed from outside, on inputs shaped like the workload's: the
//! workload's own op stream, replayed through the layer, where the layer
//! consumes it; otherwise synthetic inputs at the run's call counts. The
//! run's own counters give the call counts, so `calls × ns per call`
//! estimates a layer's host time inside the run, and `attributed_frac` is
//! the share of the run those estimates explain; the rest is engine
//! dispatch and glue. Nested entry points (the ReVive hook, log append and
//! redundancy expansion run inside `DirCtrl::handle`, `Torus::route`
//! inside `Fabric::send`) are reported but not added to that share.

use std::collections::{HashSet, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use revive_coherence::{
    CacheReq, DirCtrl, DirIn, DirToCache, MemPort, NullHook, Send as DirSend, VecPort, WriteHook,
};
use revive_core::{
    audit_redundancy, recover, DoubleParityMap, LBits, MemLog, MemoryImage, OutMsg, ParityMap,
    RecoveryInput, RecoveryTiming, Redundancy, RedundancyBackend, ReplicationMap, ReviveHook,
};
use revive_machine::{
    parse_json, parse_run_result, render_artifact, ExperimentConfig, PageTable, ReviveMode,
    RunMeta, TrafficClass,
};
use revive_mem::addr::{AddressMap, LineAddr, PageAddr};
use revive_mem::cache::{Cache, LineState, Victim};
use revive_mem::dram::{Dram, DramOp};
use revive_mem::line::LineData;
use revive_mem::main_memory::NodeMemory;
use revive_net::{Fabric, Torus};
use revive_sim::{DetRng, EventQueue, NodeId, Ns};
use revive_workloads::AppId;

use crate::check::Checker;
use crate::workload::{Run, Sample};
use crate::{median, ratio, Metric};

/// Ops of the workload's stream replayed through translation, caches,
/// directory, DRAM and fabric.
const STREAM_OPS: u64 = 1 << 20;
/// Ops between the replayed stream's interval boundaries, where L bits are
/// cleared and logs reclaimed as at a checkpoint.
const INTERVAL_OPS: usize = 1 << 15;
/// Repetitions of each millisecond-scale call; the median is reported.
const REPS: usize = 5;
/// Cap on the queue's schedule+pop pairs.
const QUEUE_PAIRS_MAX: u64 = 20_000_000;
/// Log fraction of the layout a baseline machine is given so that the
/// ReVive layers can be timed on its stream (the Figure-8 value).
const BASELINE_LOG_FRACTION: f64 = 0.28;
/// Wire sizes of control and one-line data messages.
const CTRL_BYTES: u32 = 8;
const DATA_BYTES: u32 = 72;

/// Every per-layer metric. `sample` is the traced unit; `campaign` is the
/// sample the campaign-path metrics come from (the unit itself on the
/// campaign workload, one held-out scenario on the batch workloads).
pub fn measure(sample: &Sample, campaign: &Sample, checker: &mut Checker) -> Vec<Metric> {
    let (Some(first), Some(last)) = (sample.runs.first(), sample.runs.last()) else {
        checker.expect(false, "the traced unit produced no run to measure");
        return Vec::new();
    };
    let cfg = first.cfg;
    let counts = Counts::of(sample);
    let layout = Layout::new(&cfg);

    let (next_ns, next_calls) = time_next(&cfg);
    let (translate_ns, stream) = time_translate(&cfg, &layout);
    let cache_ns = time_cache(&cfg, &stream);
    let rec = record(&cfg, &layout, &stream);
    let dir_ns = time_directory(&cfg, &layout, &rec);
    let hook_ns = time_hook(&layout, &rec);
    let append_ns = time_append(&layout, &rec);
    let [xor_ns, pq_ns, replication_ns] =
        backends(layout.map, layout.chunk).map(|b| time_expand(&b, &stream));
    let dram_ns = time_dram(&cfg, &rec);
    let (fabric_ns, route_ns) = time_fabric(&cfg, &rec);
    let queue_ns = time_queue(counts.events.min(QUEUE_PAIRS_MAX), cfg.machine.nodes);

    let small = CampaignMachine::new();
    let snapshot_ms = small.time_snapshot(checker);
    let recovery_ms = small.time_recovery(checker);
    let audit_ms = small.time_audit(checker);
    let diff_ms = match &campaign.image {
        Some(image) => time_diff(image, checker),
        None => {
            checker.expect(false, "no golden memory image to compare");
            0.0
        }
    };
    let (render_ms, parse_ms) = time_report(last, checker);

    // Attribution: calls × ns per call over the host time of the run calls.
    let dir_inputs = rec
        .steps
        .iter()
        .filter(|s| matches!(s, Step::Dir { .. }))
        .count();
    let dir_calls = counts.net_msgs as f64 * ratio(dir_inputs as f64, rec.msgs.len() as f64);
    // Every L1 lookup, an L2 lookup and an L1 fill per L1 miss, and an L2
    // fill per L2 miss.
    let cache_calls = counts.l1_lookups + 2 * counts.l2_lookups + counts.l2_misses;
    let attributed_ns = counts.events as f64 * queue_ns
        + counts.cpu_ops as f64 * (next_ns + translate_ns)
        + cache_calls as f64 * cache_ns
        + counts.dram as f64 * dram_ns
        + dir_calls * dir_ns
        + counts.net_msgs as f64 * fabric_ns
        + 1e6
            * (counts.snapshots as f64 * snapshot_ms
                + counts.audit_sweeps as f64 * audit_ms
                + counts.recoveries as f64 * recovery_ms
                + sample.diffs as f64 * diff_ms);

    vec![
        Metric::new("sim.events", "count", counts.events as f64),
        Metric::new(
            "sim.events_per_s",
            "1/s",
            ratio(counts.events as f64, counts.run_s),
        ),
        Metric::new("sim.queue.ns", "ns", queue_ns),
        Metric::new("workloads.next.ns", "ns", next_ns),
        Metric::new("workloads.next.calls", "count", next_calls as f64),
        Metric::new("machine.cpu_ops", "count", counts.cpu_ops as f64),
        Metric::new("machine.translate.ns", "ns", translate_ns),
        Metric::new("machine.campaign.probe_s", "s", campaign.probe_s),
        Metric::new("machine.campaign.golden_s", "s", campaign.golden_s),
        Metric::new("machine.campaign.injected_s", "s", campaign.injected_s),
        Metric::new(
            "machine.campaign.replay_frac",
            "fraction",
            ratio(campaign.probe_s + campaign.golden_s, campaign.wall_s),
        ),
        Metric::new("machine.report.render.ms", "ms", render_ms),
        Metric::new("machine.report.parse.ms", "ms", parse_ms),
        Metric::new("mem.cache.ns", "ns", cache_ns),
        Metric::new("mem.dram.ns", "ns", dram_ns),
        Metric::new("mem.dram.accesses", "count", counts.dram as f64),
        Metric::new(
            "mem.dram.row_hit_rate",
            "fraction",
            ratio(counts.row_hits, counts.dram as f64),
        ),
        Metric::new(
            "mem.l2_miss_rate",
            "fraction",
            ratio(counts.l2_misses as f64, counts.l1_lookups as f64),
        ),
        Metric::new("mem.snapshot.ms", "ms", snapshot_ms),
        Metric::new("coherence.dir.ns", "ns", dir_ns),
        Metric::new("coherence.dir.msgs", "count", counts.coherence_msgs as f64),
        Metric::new(
            "coherence.nack_frac",
            "fraction",
            ratio(counts.nack_retries as f64, counts.l2_misses as f64),
        ),
        Metric::new("core.hook.ns", "ns", hook_ns),
        Metric::new("core.log.append.ns", "ns", append_ns),
        Metric::new("core.log.accesses", "count", counts.log_accesses as f64),
        Metric::new("core.par.msgs", "count", counts.par_msgs as f64),
        Metric::new("core.log.peak_bytes", "bytes", counts.log_peak_bytes as f64),
        Metric::new("core.checkpoints", "count", counts.checkpoints as f64),
        Metric::new("core.checkpoints.early", "count", counts.early as f64),
        Metric::new("core.redundancy.xor.expand_ns", "ns", xor_ns),
        Metric::new("core.redundancy.pq.expand_ns", "ns", pq_ns),
        Metric::new(
            "core.redundancy.replication.expand_ns",
            "ns",
            replication_ns,
        ),
        Metric::new("core.recovery.ms", "ms", recovery_ms),
        Metric::new("core.recoveries", "count", counts.recoveries as f64),
        Metric::new("core.validate.audit.ms", "ms", audit_ms),
        Metric::new("core.validate.audits", "count", counts.audit_sweeps as f64),
        Metric::new("core.validate.diff.ms", "ms", diff_ms),
        Metric::new("net.msgs", "count", counts.net_msgs as f64),
        Metric::new("net.bytes", "bytes", counts.net_bytes as f64),
        Metric::new("net.fabric.ns", "ns", fabric_ns),
        Metric::new("net.route.ns", "ns", route_ns),
        Metric::new(
            "attributed_frac",
            "fraction",
            ratio(attributed_ns, counts.run_s * 1e9),
        ),
    ]
}

/// The run's own counters, summed over the unit's runs.
#[derive(Default)]
struct Counts {
    run_s: f64,
    events: u64,
    cpu_ops: u64,
    l1_lookups: u64,
    l2_lookups: u64,
    l2_misses: u64,
    nack_retries: u64,
    dram: u64,
    /// Row hits, from each run's hit rate and access count.
    row_hits: f64,
    coherence_msgs: u64,
    /// DRAM line accesses to the logs (logging is node-local: it sends
    /// no messages).
    log_accesses: u64,
    par_msgs: u64,
    net_msgs: u64,
    net_bytes: u64,
    log_peak_bytes: u64,
    checkpoints: u64,
    early: u64,
    recoveries: u64,
    /// Full redundancy sweeps (validation-mode audits that checked groups).
    audit_sweeps: u64,
    /// Shadow snapshots: one per node at every commit of a validation run.
    snapshots: u64,
}

impl Counts {
    fn of(sample: &Sample) -> Counts {
        let mut c = Counts::default();
        for run in &sample.runs {
            let r = &run.result;
            let s = &r.metrics;
            let t = &s.traffic;
            let msgs = |k: TrafficClass| t.net_msgs[k.index()];
            let dram = t.mem_accesses_total();
            c.run_s += run.run_s;
            c.events += r.events;
            c.cpu_ops += t.cpu_ops;
            c.l1_lookups += s.l1_hits + s.l1_misses;
            c.l2_lookups += s.l2_hits + s.l2_misses;
            c.l2_misses += s.l2_misses;
            c.nack_retries += s.nack_retries;
            c.dram += dram;
            c.row_hits += s.dram_row_hit_rate * dram as f64;
            c.coherence_msgs +=
                msgs(TrafficClass::RdRdx) + msgs(TrafficClass::ExeWb) + msgs(TrafficClass::CkpWb);
            c.log_accesses += t.mem_accesses[TrafficClass::Log.index()];
            c.par_msgs += msgs(TrafficClass::Par);
            c.net_msgs += t.net_msgs.iter().sum::<u64>();
            c.net_bytes += t.net_bytes_total();
            c.log_peak_bytes = c.log_peak_bytes.max(s.max_log_bytes());
            c.checkpoints += r.checkpoints;
            c.early += r.ckpt.early_triggers;
            c.recoveries += r.recoveries.len() as u64;
            c.audit_sweeps += r
                .audits
                .iter()
                .filter(|a| a.parity.groups_checked > 0)
                .count() as u64;
            if run.cfg.shadow_checkpoints {
                c.snapshots += r.checkpoints * run.cfg.machine.nodes as u64;
            }
        }
        c
    }
}

/// The largest redundancy chunk of at most 8 nodes that divides `nodes`:
/// 8 on the 16-node machine (the paper's 7+1), 4 and 3 on the campaign's
/// 4- and 9-node shapes.
fn xor_chunk(nodes: usize) -> usize {
    (3..=8)
        .rev()
        .find(|&c| nodes.is_multiple_of(c))
        .expect("the benchmark's machines have 4, 9 or 16 nodes")
}

/// The three backends over one chunk, shaped as the campaign shapes them:
/// XOR `c-1`+1, P+Q `c-2`+2, and `c-1` replicas.
fn backends(map: AddressMap, chunk: usize) -> [Redundancy; 3] {
    [
        Redundancy::Xor(ParityMap::new(map, chunk - 1)),
        Redundancy::Double(DoubleParityMap::new(map, chunk - 2)),
        Redundancy::Replication(ReplicationMap::new(map, chunk - 1)),
    ]
}

/// The machine's memory layout as the simulator builds it: redundancy
/// pages, each node's log pages, the rest for the workload. A baseline
/// machine gets the XOR layout of its node count, so the ReVive layers
/// can be timed on its stream too.
struct Layout {
    map: AddressMap,
    rdx: Redundancy,
    chunk: usize,
    /// Each node's log slots (its highest non-redundancy pages).
    logs: Vec<Vec<LineAddr>>,
}

impl Layout {
    fn new(cfg: &ExperimentConfig) -> Layout {
        let map = AddressMap::new(cfg.machine.nodes, cfg.machine.mem_per_node);
        let chunk = xor_chunk(map.nodes());
        let (rdx, log_fraction) = match cfg.revive.mode {
            ReviveMode::Off => (
                Redundancy::Xor(ParityMap::new(map, chunk - 1)),
                BASELINE_LOG_FRACTION,
            ),
            ReviveMode::Parity { group_data_pages } => (
                Redundancy::Xor(ParityMap::new(map, group_data_pages)),
                cfg.revive.log_fraction,
            ),
            ReviveMode::DoubleParity { group_data_pages } => (
                Redundancy::Double(DoubleParityMap::new(map, group_data_pages)),
                cfg.revive.log_fraction,
            ),
            ReviveMode::Replication { replicas } => (
                Redundancy::Replication(ReplicationMap::new(map, replicas)),
                cfg.revive.log_fraction,
            ),
            other => panic!("no benchmark workload runs the {} mode", other.name()),
        };
        let logs = NodeId::all(map.nodes())
            .map(|n| {
                let data: Vec<PageAddr> = map
                    .pages_of(n)
                    .filter(|&p| !rdx.is_redundancy_page(p))
                    .collect();
                let pages = ((data.len() as f64 * log_fraction).ceil() as usize).max(1);
                data[data.len() - pages..]
                    .iter()
                    .flat_map(|p| p.lines())
                    .collect()
            })
            .collect();
        Layout {
            map,
            rdx,
            chunk,
            logs,
        }
    }

    fn page_table(&self) -> PageTable {
        let rdx = self.rdx;
        let reserved: HashSet<PageAddr> = self.logs.iter().flatten().map(|l| l.page()).collect();
        PageTable::new(self.map, move |p| {
            !rdx.is_redundancy_page(p) && !reserved.contains(&p)
        })
    }

    fn log(&self, node: usize) -> MemLog {
        MemLog::new(NodeId::from(node), self.logs[node].clone())
    }

    fn hook(&self, node: usize) -> ReviveHook {
        ReviveHook::new(
            self.rdx,
            self.log(node),
            LBits::full(self.map.lines_per_node()),
        )
    }

    /// A zeroed port over all of `node`'s memory.
    fn port(&self, node: usize) -> VecPort {
        VecPort::new(
            self.map.global_line(NodeId::from(node), 0),
            self.map.lines_per_node() as usize,
        )
    }
}

fn ns_per(start: Instant, calls: u64) -> f64 {
    ratio(start.elapsed().as_nanos() as f64, calls as f64)
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Times `Workload::next` over the run's whole budget, CPUs round-robin;
/// returns ns per call and the call count (`nodes × ops_per_cpu`).
fn time_next(cfg: &ExperimentConfig) -> (f64, u64) {
    let nodes = cfg.machine.nodes;
    let mut w = cfg.workload.build(nodes, cfg.machine.scale(), cfg.seed);
    let mut calls = 0u64;
    let mut sum = 0u64;
    let start = Instant::now();
    for _ in 0..cfg.ops_per_cpu {
        for cpu in 0..nodes {
            sum = sum.wrapping_add(w.next(cpu).vaddr);
            calls += 1;
        }
    }
    black_box(sum);
    (ns_per(start, calls), calls)
}

/// One op of the workload's stream, translated.
#[derive(Clone, Copy)]
struct Access {
    cpu: usize,
    line: LineAddr,
    write: bool,
}

/// Times `PageTable::translate`, first touch included, on the first
/// [`STREAM_OPS`] ops of the workload's stream; returns ns per call and
/// the translated stream.
fn time_translate(cfg: &ExperimentConfig, layout: &Layout) -> (f64, Vec<Access>) {
    let nodes = cfg.machine.nodes;
    let mut w = cfg.workload.build(nodes, cfg.machine.scale(), cfg.seed);
    let n = STREAM_OPS.min(nodes as u64 * cfg.ops_per_cpu) as usize;
    let ops: Vec<_> = (0..n)
        .map(|i| {
            let cpu = i % nodes;
            (cpu, w.next(cpu))
        })
        .collect();
    let mut table = layout.page_table();
    let mut stream = Vec::with_capacity(n);
    let start = Instant::now();
    for &(cpu, op) in &ops {
        let addr = table
            .translate(op.vaddr, NodeId::from(cpu))
            .expect("the workload's footprint fits the machine");
        stream.push(Access {
            cpu,
            line: addr.line(),
            write: op.write,
        });
    }
    (ns_per(start, n as u64), stream)
}

/// Times `Cache::access`, with a fill on each miss, through per-CPU L1 and
/// L2 caches of the machine's geometry.
fn time_cache(cfg: &ExperimentConfig, stream: &[Access]) -> f64 {
    let caches = |geometry| -> Vec<Cache> {
        (0..cfg.machine.nodes)
            .map(|_| Cache::new(geometry))
            .collect()
    };
    let (mut l1, mut l2) = (caches(cfg.machine.l1), caches(cfg.machine.l2));
    let mut calls = 0u64;
    let start = Instant::now();
    for a in stream {
        calls += 1;
        if l1[a.cpu].access(a.line).is_valid() {
            continue;
        }
        calls += 2;
        if !l2[a.cpu].access(a.line).is_valid() {
            calls += 1;
            black_box(l2[a.cpu].fill(a.line, LineState::Exclusive, LineData::ZERO));
        }
        black_box(l1[a.cpu].fill(a.line, LineState::Exclusive, LineData::ZERO));
    }
    ns_per(start, calls)
}

/// A directory input in delivery order, or an interval boundary.
enum Step {
    Dir { home: usize, input: DirIn },
    Interval,
}

/// What the stream's protocol traffic looked like, for the timed replays.
struct Recording {
    steps: Vec<Step>,
    /// Every protocol message: source, destination, bytes.
    msgs: Vec<(NodeId, NodeId, u32)>,
    /// Per node, every DRAM line access: local line, whether a write.
    dram: Vec<Vec<(u64, bool)>>,
}

/// A home node's memory port that logs every line access (its DRAM
/// traffic).
struct LoggingPort {
    port: VecPort,
    base: u64,
    log: Vec<(u64, bool)>,
}

impl MemPort for LoggingPort {
    fn read(&mut self, line: LineAddr) -> LineData {
        self.log.push((line.0 - self.base, false));
        self.port.read(line)
    }

    fn write(&mut self, line: LineAddr, data: LineData) {
        self.log.push((line.0 - self.base, true));
        self.port.write(line, data);
    }
}

/// A functional model of the machine's protocol, without timing: per-CPU
/// L2 caches answer the directories' fetches and invalidations and evict
/// with write-backs, and redundancy updates are applied at their homes and
/// acknowledged. Transactions run one at a time to completion.
struct Protocol<'a> {
    layout: &'a Layout,
    caches: Vec<Cache>,
    dirs: Vec<DirCtrl>,
    ports: Vec<LoggingPort>,
    hooks: Vec<Option<ReviveHook>>,
    pending: VecDeque<(usize, DirIn)>,
    out: Vec<DirSend>,
    outbox: Vec<OutMsg>,
    steps: Vec<Step>,
    msgs: Vec<(NodeId, NodeId, u32)>,
}

/// Drives the translated stream through [`Protocol`], with an interval
/// boundary every [`INTERVAL_OPS`] ops and whenever a log is half full.
fn record(cfg: &ExperimentConfig, layout: &Layout, stream: &[Access]) -> Recording {
    let nodes = layout.map.nodes();
    let revive = cfg.revive.mode != ReviveMode::Off;
    let mut p = Protocol {
        layout,
        caches: (0..nodes).map(|_| Cache::new(cfg.machine.l2)).collect(),
        dirs: (0..nodes).map(|_| DirCtrl::new()).collect(),
        ports: (0..nodes)
            .map(|n| LoggingPort {
                port: layout.port(n),
                base: layout.map.global_line(NodeId::from(n), 0).0,
                log: Vec::new(),
            })
            .collect(),
        hooks: (0..nodes).map(|n| revive.then(|| layout.hook(n))).collect(),
        pending: VecDeque::new(),
        out: Vec::new(),
        outbox: Vec::new(),
        steps: Vec::new(),
        msgs: Vec::new(),
    };
    let mut interval = 0;
    for (i, &a) in stream.iter().enumerate() {
        let log_full = p.hooks.iter().flatten().any(|h| h.log.utilization() > 0.5);
        if (i + 1) % INTERVAL_OPS == 0 || log_full {
            interval += 1;
            p.steps.push(Step::Interval);
            for h in p.hooks.iter_mut().flatten() {
                h.begin_interval(interval, interval);
            }
        }
        p.access(a);
    }
    Recording {
        steps: p.steps,
        msgs: p.msgs,
        dram: p.ports.into_iter().map(|port| port.log).collect(),
    }
}

impl Protocol<'_> {
    fn home(&self, line: LineAddr) -> usize {
        self.layout.map.home_of_line(line).index()
    }

    fn access(&mut self, a: Access) {
        let req = match self.caches[a.cpu].access(a.line) {
            LineState::Invalid if a.write => CacheReq::ReadEx,
            LineState::Invalid => CacheReq::Read,
            LineState::Shared if a.write => CacheReq::Upgrade,
            LineState::Exclusive if a.write => {
                self.caches[a.cpu].set_state(a.line, LineState::Modified);
                return;
            }
            _ => return,
        };
        let from = NodeId::from(a.cpu);
        let input = DirIn::Req {
            from,
            line: a.line,
            req,
        };
        self.send(from, input, CTRL_BYTES);
        self.settle(a);
    }

    /// Queues a message to the home directory of the input's line.
    fn send(&mut self, src: NodeId, input: DirIn, bytes: u32) {
        let home = self.home(input.line());
        self.msgs.push((src, NodeId::from(home), bytes));
        self.pending.push_back((home, input));
    }

    /// Delivers queued directory inputs until the transaction and all it
    /// set off are done.
    fn settle(&mut self, a: Access) {
        let mut null = NullHook;
        while let Some((home, input)) = self.pending.pop_front() {
            self.steps.push(Step::Dir { home, input });
            let hook: &mut dyn WriteHook = match self.hooks[home].as_mut() {
                Some(h) => h,
                None => &mut null,
            };
            self.dirs[home].handle_into(input, &mut self.ports[home], hook, &mut self.out);
            if let Some(h) = self.hooks[home].as_mut() {
                h.take_outbox_into(&mut self.outbox);
            }
            for m in std::mem::take(&mut self.outbox) {
                self.redundancy_update(home, m);
            }
            for s in std::mem::take(&mut self.out) {
                self.msgs
                    .push((NodeId::from(home), s.to, s.msg.size_bytes()));
                self.at_cache(s.to.index(), s.msg, a);
            }
        }
    }

    /// Applies a redundancy update at its home and acknowledges it.
    fn redundancy_update(&mut self, from: usize, m: OutMsg) {
        self.msgs
            .push((NodeId::from(from), m.to, m.update.size_bytes()));
        let port = &mut self.ports[m.to.index()];
        for &(line, payload) in &m.update.deltas {
            let new = if m.mirror {
                payload
            } else {
                port.read(line) ^ payload
            };
            port.write(line, new);
        }
        if let Some(line) = m.update.ack_to_line {
            self.send(m.to, DirIn::HookAck { line }, CTRL_BYTES);
        }
    }

    /// Cache `c`'s reaction to a directory message; `a` is the access in
    /// progress.
    fn at_cache(&mut self, c: usize, msg: DirToCache, a: Access) {
        let node = NodeId::from(c);
        match msg {
            DirToCache::Data { line, excl, .. } => {
                let state = match (excl, a.write && a.cpu == c && a.line == line) {
                    (false, _) => LineState::Shared,
                    (true, true) => LineState::Modified,
                    (true, false) => LineState::Exclusive,
                };
                let cache = &mut self.caches[c];
                if cache.state_of(line).is_valid() {
                    cache.set_state(line, state);
                } else if let Some(victim) = cache.fill(line, state, LineData::ZERO) {
                    self.evict(node, victim);
                }
            }
            DirToCache::UpgradeAck { line } => {
                if self.caches[c].state_of(line).is_valid() {
                    self.caches[c].set_state(line, LineState::Modified);
                }
            }
            DirToCache::Nack { line, req } => {
                // A nacked upgrade lost its copy: ask for the line whole.
                let req = if req == CacheReq::Upgrade {
                    self.caches[c].invalidate(line);
                    CacheReq::ReadEx
                } else {
                    req
                };
                let input = DirIn::Req {
                    from: node,
                    line,
                    req,
                };
                self.send(node, input, CTRL_BYTES);
            }
            DirToCache::Invalidate { line } => {
                self.caches[c].invalidate(line);
                self.send(node, DirIn::InvalAck { from: node, line }, CTRL_BYTES);
            }
            DirToCache::Fetch { line } => {
                let dirty = self.caches[c].downgrade(line);
                self.fetch_resp(node, line, dirty);
            }
            DirToCache::FetchInval { line } => {
                let dirty = self.caches[c]
                    .invalidate(line)
                    .and_then(|(state, data)| state.is_dirty().then_some(data));
                self.fetch_resp(node, line, dirty);
            }
            DirToCache::WbAck { .. } => {}
        }
    }

    fn fetch_resp(&mut self, node: NodeId, line: LineAddr, dirty: Option<LineData>) {
        let input = DirIn::FetchResp {
            from: node,
            line,
            data: dirty.unwrap_or(LineData::ZERO),
            dirty: dirty.is_some(),
        };
        self.send(node, input, DATA_BYTES);
    }

    /// A dirty victim is written back, a clean exclusive one announced;
    /// shared victims leave silently.
    fn evict(&mut self, node: NodeId, v: Victim) {
        let (data, bytes) = match v.state {
            LineState::Modified => (Some(v.data), DATA_BYTES),
            LineState::Exclusive => (None, CTRL_BYTES),
            _ => return,
        };
        let input = DirIn::WriteBack {
            from: node,
            line: v.line,
            data,
            keep: false,
        };
        self.send(node, input, bytes);
    }
}

/// Times `DirCtrl::handle` replaying the recorded inputs with the
/// workload's hook (`NullHook` on the baseline), draining the hook's
/// outbox after each call as the machine does.
fn time_directory(cfg: &ExperimentConfig, layout: &Layout, rec: &Recording) -> f64 {
    let nodes = layout.map.nodes();
    let revive = cfg.revive.mode != ReviveMode::Off;
    let mut dirs: Vec<DirCtrl> = (0..nodes).map(|_| DirCtrl::new()).collect();
    let mut ports: Vec<VecPort> = (0..nodes).map(|n| layout.port(n)).collect();
    let mut hooks: Vec<Option<ReviveHook>> =
        (0..nodes).map(|n| revive.then(|| layout.hook(n))).collect();
    let (mut out, mut outbox, mut null) = (Vec::new(), Vec::new(), NullHook);
    let (mut calls, mut interval) = (0u64, 0u64);
    let start = Instant::now();
    for step in &rec.steps {
        match *step {
            Step::Dir { home, input } => {
                calls += 1;
                let hook: &mut dyn WriteHook = match hooks[home].as_mut() {
                    Some(h) => h,
                    None => &mut null,
                };
                dirs[home].handle_into(input, &mut ports[home], hook, &mut out);
                out.clear();
                if let Some(h) = hooks[home].as_mut() {
                    h.take_outbox_into(&mut outbox);
                    outbox.clear();
                }
            }
            Step::Interval => {
                interval += 1;
                for h in hooks.iter_mut().flatten() {
                    h.begin_interval(interval, interval);
                }
            }
        }
    }
    ns_per(start, calls)
}

/// The recorded write intents (read-exclusive and upgrade requests):
/// `Some((home, line))`, or `None` at an interval boundary.
fn intents(rec: &Recording) -> impl Iterator<Item = Option<(usize, LineAddr)>> + '_ {
    rec.steps.iter().filter_map(|step| match *step {
        Step::Dir {
            home,
            input:
                DirIn::Req {
                    line,
                    req: CacheReq::ReadEx | CacheReq::Upgrade,
                    ..
                },
        } => Some(Some((home, line))),
        Step::Interval => Some(None),
        Step::Dir { .. } => None,
    })
}

/// Times `ReviveHook::write_intent` on the recorded write intents.
fn time_hook(layout: &Layout, rec: &Recording) -> f64 {
    let nodes = layout.map.nodes();
    let mut hooks: Vec<ReviveHook> = (0..nodes).map(|n| layout.hook(n)).collect();
    let mut ports: Vec<VecPort> = (0..nodes).map(|n| layout.port(n)).collect();
    let mut outbox = Vec::new();
    let (mut calls, mut interval) = (0u64, 0u64);
    let start = Instant::now();
    for intent in intents(rec) {
        match intent {
            Some((home, line)) => {
                calls += 1;
                let hook = &mut hooks[home];
                // The baseline's stream has no log-pressure boundaries of
                // its own; keep its logs from overflowing.
                if hook.log.utilization() > 0.75 {
                    hook.recycle_oldest_half();
                }
                black_box(hook.write_intent(line, None, &mut ports[home]));
                hook.take_outbox_into(&mut outbox);
                outbox.clear();
            }
            None => {
                interval += 1;
                for h in &mut hooks {
                    h.begin_interval(interval, interval);
                }
            }
        }
    }
    ns_per(start, calls)
}

/// Times `MemLog::append` of each recorded write intent's line.
fn time_append(layout: &Layout, rec: &Recording) -> f64 {
    let nodes = layout.map.nodes();
    let mut logs: Vec<MemLog> = (0..nodes).map(|n| layout.log(n)).collect();
    let mut ports: Vec<VecPort> = (0..nodes).map(|n| layout.port(n)).collect();
    let old = LineData::fill(0xa5);
    let (mut calls, mut interval) = (0u64, 0u64);
    let start = Instant::now();
    for intent in intents(rec) {
        match intent {
            Some((home, line)) => {
                calls += 1;
                let log = &mut logs[home];
                if log.utilization() > 0.75 {
                    log.reclaim_oldest_half();
                }
                black_box(log.append(interval, line, old, true, &mut ports[home]));
            }
            None => {
                interval += 1;
                for log in &mut logs {
                    log.reclaim_before(interval);
                }
            }
        }
    }
    ns_per(start, calls)
}

/// Times `RedundancyBackend::expand_update` on the stream's data lines.
fn time_expand(rdx: &Redundancy, stream: &[Access]) -> f64 {
    let lines: Vec<LineAddr> = stream
        .iter()
        .map(|a| a.line)
        .filter(|l| !rdx.is_redundancy_page(l.page()))
        .collect();
    let payload = LineData::fill(0x5a);
    let start = Instant::now();
    for &line in &lines {
        black_box(rdx.expand_update(line, payload));
    }
    ns_per(start, lines.len() as u64)
}

/// Times `Dram::access` on the recorded DRAM traffic, one controller per
/// node.
fn time_dram(cfg: &ExperimentConfig, rec: &Recording) -> f64 {
    let mut drams: Vec<Dram> = rec
        .dram
        .iter()
        .map(|_| Dram::new(cfg.machine.dram))
        .collect();
    let mut calls = 0u64;
    let start = Instant::now();
    for (dram, accesses) in drams.iter_mut().zip(&rec.dram) {
        let mut now = Ns::ZERO;
        for &(line, write) in accesses {
            now += Ns(4);
            let op = if write { DramOp::Write } else { DramOp::Read };
            black_box(dram.access(now, line, op));
        }
        calls += accesses.len() as u64;
    }
    ns_per(start, calls)
}

/// Times `Fabric::send` and `Torus::route` on the recorded messages.
fn time_fabric(cfg: &ExperimentConfig, rec: &Recording) -> (f64, f64) {
    let torus = Torus::square_for(cfg.machine.nodes);
    let mut fabric = Fabric::new(torus, cfg.machine.fabric);
    let calls = rec.msgs.len() as u64;
    let start = Instant::now();
    for (i, &(src, dst, bytes)) in rec.msgs.iter().enumerate() {
        black_box(fabric.send(Ns(3 * i as u64), src, dst, bytes));
    }
    let send_ns = ns_per(start, calls);
    let start = Instant::now();
    for &(src, dst, _) in &rec.msgs {
        black_box(torus.route(src, dst));
    }
    (send_ns, ns_per(start, calls))
}

/// Times one `EventQueue` schedule+pop pair at the machine's pending depth
/// (about two events per node) and delay mix (mostly under a microsecond,
/// one checkpoint-scale timer in a thousand).
fn time_queue(pairs: u64, nodes: usize) -> f64 {
    let mut rng = DetRng::seed(0x5eed);
    let delays: Vec<u64> = (0..4096)
        .map(|i| {
            if i % 1024 == 0 {
                2_000_000
            } else {
                rng.range(1, 600)
            }
        })
        .collect();
    let mut queue = EventQueue::new();
    for (i, &d) in delays.iter().enumerate().take(2 * nodes) {
        queue.schedule(Ns(d), i);
    }
    let start = Instant::now();
    for i in 0..pairs {
        let (now, event) = queue
            .pop()
            .expect("every pop reschedules, so the queue never drains");
        queue.schedule(
            now + Ns(delays[i as usize % delays.len()]),
            black_box(event),
        );
    }
    ns_per(start, pairs)
}

/// The campaign's machine (`ExperimentConfig::test_small`: 4 nodes of
/// 1 MiB under 3+1 XOR parity) with seeded data, consistent parity and
/// empty logs: the shape the campaign's snapshots, audits and recoveries
/// work at.
struct CampaignMachine {
    layout: Layout,
    memories: Vec<NodeMemory>,
}

impl CampaignMachine {
    fn new() -> CampaignMachine {
        let cfg = ExperimentConfig::test_small(AppId::Lu);
        let layout = Layout::new(&cfg);
        let map = layout.map;
        let mut memories: Vec<NodeMemory> = (0..map.nodes())
            .map(|_| NodeMemory::new(cfg.machine.mem_per_node as usize))
            .collect();
        let logs: HashSet<PageAddr> = layout.logs.iter().flatten().map(|l| l.page()).collect();
        let mut rng = DetRng::seed(cfg.seed);
        for node in NodeId::all(map.nodes()) {
            for page in map.pages_of(node) {
                if layout.rdx.is_redundancy_page(page) || logs.contains(&page) {
                    continue;
                }
                for line in page.lines() {
                    let value = LineData::from_seed(rng.next_u64());
                    memories[node.index()].write_line(map.local_line_index(line), value);
                    for (rline, delta) in layout.rdx.expand_update(line, value) {
                        memories[map.home_of_line(rline).index()]
                            .xor_line(map.local_line_index(rline), delta);
                    }
                }
            }
        }
        CampaignMachine { layout, memories }
    }

    /// Times `NodeMemory::snapshot` of one node.
    fn time_snapshot(&self, checker: &mut Checker) -> f64 {
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                let start = Instant::now();
                let snapshot = black_box(self.memories[0].snapshot());
                let ms = ms_since(start);
                checker.expect(
                    snapshot.len() == self.memories[0].size_bytes(),
                    "a snapshot copies the whole node",
                );
                ms
            })
            .collect();
        median(&times)
    }

    /// Times `recovery::recover` rebuilding a lost node, and checks the
    /// rebuilt memory against its contents before the loss.
    fn time_recovery(&self, checker: &mut Checker) -> f64 {
        let lost = NodeId(1);
        let before = self.memories[lost.index()].snapshot();
        let nodes = self.layout.map.nodes();
        let logs: Vec<MemLog> = (0..nodes).map(|n| self.layout.log(n)).collect();
        let logs: Vec<&MemLog> = logs.iter().collect();
        let timing = RecoveryTiming::derive(self.layout.rdx.rebuild_fanin(), nodes - 1);
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                let mut memories = self.memories.clone();
                memories[lost.index()].destroy();
                let start = Instant::now();
                let report = recover(
                    RecoveryInput {
                        memories: &mut memories,
                        logs: &logs,
                        redundancy: &self.layout.rdx,
                        target_interval: 0,
                        lost: &[lost],
                    },
                    &timing,
                );
                let ms = ms_since(start);
                checker.expect(
                    report.is_ok() && memories[lost.index()].snapshot() == before,
                    "recovery rebuilds the lost node's memory",
                );
                ms
            })
            .collect();
        median(&times)
    }

    /// Times one full `audit_redundancy` sweep.
    fn time_audit(&self, checker: &mut Checker) -> f64 {
        let map = self.layout.map;
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                let start = Instant::now();
                let audit = audit_redundancy(&self.layout.rdx, |l| {
                    self.memories[map.home_of_line(l).index()].read_line(map.local_line_index(l))
                });
                let ms = ms_since(start);
                checker.expect(
                    audit.is_clean() && audit.groups_checked > 0,
                    "the redundancy audit finds consistent parity",
                );
                ms
            })
            .collect();
        median(&times)
    }
}

/// Times `MemoryImage::diff` of a golden image against an identical one
/// (the common, full-length comparison).
fn time_diff(image: &MemoryImage, checker: &mut Checker) -> f64 {
    let other = image.clone();
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let diff = image.diff(&other);
            let ms = ms_since(start);
            checker.expect(diff.is_match(), "an image matches its copy");
            ms
        })
        .collect();
    median(&times)
}

/// Times `render_artifact`, and `parse_json` with `parse_run_result`, on
/// the unit's last run, and checks the round trip.
fn time_report(run: &Run, checker: &mut Checker) -> (f64, f64) {
    let meta = RunMeta::from_config("perfbench", &run.cfg);
    let (mut render, mut parse) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let start = Instant::now();
        let text = render_artifact(&meta, &run.result);
        render.push(ms_since(start));
        let start = Instant::now();
        let parsed = parse_json(&text).and_then(|doc| parse_run_result(&doc));
        parse.push(ms_since(start));
        let r = &run.result;
        checker.expect(
            parsed.is_ok_and(|p| {
                p.sim_time == r.sim_time
                    && p.events == r.events
                    && p.metrics.traffic.cpu_ops == r.metrics.traffic.cpu_ops
            }),
            "the run artifact parses back to the run",
        );
    }
    (median(&render), median(&parse))
}
