//! Experiment drivers: plain runs, error injection, recovery, verification.

use revive_core::checkpoint::CkptStats;
use revive_core::recovery::{RecoveryError, RecoveryReport};
use revive_core::validate::MemoryImage;
use revive_sim::time::Ns;
use revive_sim::trace::{Span, TraceBuffer};
use revive_sim::types::NodeId;

use revive_net::topology::Torus;

use crate::config::{ExperimentConfig, MachineError, ReviveMode};
use crate::differential::AuditReport;
use crate::json::{Codec, Json};
use crate::metrics::Summary;
use crate::sampling::EpochSample;
use crate::system::{Armed, LiveFault, System, Trigger};

/// What error to inject, and when, relative to the checkpoint stream.
/// The worst-case scenario used throughout the evaluation is
/// `after_checkpoint: 2, interval_fraction: 0.8` with a detection delay of
/// [`ExperimentConfig::DEFAULT_DETECTION_FRACTION`] of an interval — an
/// error late in the interval, detected a scaled detection-latency later,
/// forcing a rollback across nearly a full interval (maximum lost work and
/// maximum recovery time). The paper's Section 6.3 fixes the *error point*
/// at 0.8 of the interval; the detection fraction is this harness's knob,
/// not a number from the paper.
///
/// Scripted detection delays apply to the classic transient kinds. The
/// live kinds ([`ErrorKind::is_live`]) ignore the delay on the happy path:
/// the fabric is actually severed and detection is organic (watchdog
/// strikes, a hung commit barrier, or the heartbeat backstop).
#[derive(Clone, Debug, PartialEq)]
pub struct InjectionPlan {
    /// Fire after this many checkpoints have committed.
    pub after_checkpoint: u64,
    /// …plus this fraction of a checkpoint interval (ignored by the
    /// commit-edge and at-time phases).
    pub interval_fraction: f64,
    /// Detection latency: the machine keeps (conservatively) executing for
    /// this long before recovery starts — all of it lost work.
    pub detection_delay: Ns,
    /// The error class.
    pub kind: ErrorKind,
    /// Where in the checkpoint lifecycle the error strikes.
    pub phase: InjectPhase,
    /// A second error striking *while recovery is still running* (only
    /// meaningful with [`InjectPhase::DuringRecovery`]): the first attempt
    /// is abandoned mid-rebuild and recovery restarts idempotently against
    /// the union of the damage. `None` with `DuringRecovery` re-applies the
    /// same damage after the first recovery completes (the recurrence
    /// scenario).
    pub second: Option<ErrorKind>,
}

crate::json_record!(InjectionPlan {
    kind,
    phase,
    after_checkpoint,
    interval_fraction,
    detection_delay: "detection_delay_ns",
    second,
});

impl InjectionPlan {
    /// The paper's worst-case Section 6.3 scenario against `lost` node.
    pub fn paper_worst_case(interval: Ns, lost: NodeId) -> InjectionPlan {
        InjectionPlan {
            after_checkpoint: 2,
            interval_fraction: 0.8,
            detection_delay: Ns(
                (interval.0 as f64 * ExperimentConfig::DEFAULT_DETECTION_FRACTION) as u64,
            ),
            kind: ErrorKind::NodeLoss(lost.into()),
            phase: InjectPhase::MidLogging,
            second: None,
        }
    }

    /// The same timing but a transient error that wipes every cache and
    /// in-flight message while leaving all memory intact (Section 3.1.2's
    /// multi-node transient class — e.g. a global reset glitch).
    pub fn paper_transient(interval: Ns) -> InjectionPlan {
        InjectionPlan {
            after_checkpoint: 2,
            interval_fraction: 0.8,
            detection_delay: Ns(
                (interval.0 as f64 * ExperimentConfig::DEFAULT_DETECTION_FRACTION) as u64,
            ),
            kind: ErrorKind::CacheWipe,
            phase: InjectPhase::MidLogging,
            second: None,
        }
    }
}

/// A boundary within the two-phase-commit sequence of Figure 6 (flush →
/// barrier 1 → mark → barrier 2 → reclaim). [`InjectPhase::CommitEdge`]
/// pins a scripted error to one of these instants, probing the paper's §3
/// argument that a checkpoint is atomically either established or not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitPoint {
    /// After barrier 1, before any node marks its log: no log carries the
    /// new checkpoint marker, so the previous checkpoint is the recovery
    /// target everywhere.
    AfterBarrier1,
    /// After every node marked its log, before barrier 2 — the classic 2PC
    /// uncertainty window (inject specs may still name it `commit-window`).
    /// The marks exist but the commit never completed, so the machine
    /// still rolls back to the previous checkpoint.
    AfterMark,
    /// After barrier 2 and log reclamation, before any CPU resumes: the new
    /// checkpoint is committed and is itself the recovery target; rollback
    /// discards exactly nothing.
    AfterCommit,
}

impl CommitPoint {
    /// Stable kebab-case name (artifacts, inject specs).
    pub fn name(&self) -> &'static str {
        match self {
            CommitPoint::AfterBarrier1 => "after-barrier1",
            CommitPoint::AfterMark => "after-mark",
            CommitPoint::AfterCommit => "after-commit",
        }
    }
}

/// Where in the checkpoint lifecycle a scripted error strikes. ReVive's
/// claim is that recovery works no matter when the error hits; these
/// phases probe the qualitatively different windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectPhase {
    /// Mid-interval, while the machine is logging normally — the paper's
    /// Section 6.3 scenario (`interval_fraction` into the interval after
    /// `after_checkpoint` commits).
    MidLogging,
    /// The same timing as `MidLogging`, but the error recurs during
    /// recovery itself; see [`InjectionPlan::second`] for the two variants
    /// (recurrence vs. a different second fault mid-rebuild).
    DuringRecovery,
    /// Exactly on a named 2PC boundary of checkpoint `after_checkpoint + 1`
    /// (`interval_fraction` is ignored).
    CommitEdge(CommitPoint),
    /// At an absolute simulated time, regardless of the checkpoint stream
    /// (`after_checkpoint` and `interval_fraction` are ignored). This is
    /// how stochastic fault *processes* ([`fault_schedule`]) land on the
    /// machine: the serving experiments draw fault times over a long
    /// horizon and replay them as a sequence of time-anchored plans.
    AtTime(Ns),
}

impl InjectPhase {
    /// Stable kebab-case name (artifacts, inject specs).
    pub fn name(&self) -> &'static str {
        match self {
            InjectPhase::MidLogging => "mid-logging",
            InjectPhase::DuringRecovery => "during-recovery",
            InjectPhase::CommitEdge(CommitPoint::AfterBarrier1) => "commit-after-barrier1",
            InjectPhase::CommitEdge(CommitPoint::AfterMark) => "commit-after-mark",
            InjectPhase::CommitEdge(CommitPoint::AfterCommit) => "commit-after-commit",
            InjectPhase::AtTime(_) => "at-time",
        }
    }
}

/// A phase is recorded in run artifacts and inject specs by its name, or
/// for [`InjectPhase::AtTime`] as an object that also carries the time.
impl Codec for InjectPhase {
    fn to_json(&self) -> Json {
        match self {
            InjectPhase::AtTime(t) => {
                Json::obj([("name", Json::str("at-time")), ("at_ns", t.to_json())])
            }
            p => Json::str(p.name()),
        }
    }

    fn from_json(v: &Json) -> Result<InjectPhase, String> {
        if v.get("at_ns").is_some() && v.read::<String>("name")? == "at-time" {
            return v.read("at_ns").map(InjectPhase::AtTime);
        }
        match v
            .as_str()
            .ok_or("neither a phase name nor an at-time object")?
        {
            "mid-logging" => Ok(InjectPhase::MidLogging),
            // The older name of the after-mark edge, read for old specs.
            "commit-window" | "commit-after-mark" => {
                Ok(InjectPhase::CommitEdge(CommitPoint::AfterMark))
            }
            "during-recovery" => Ok(InjectPhase::DuringRecovery),
            "commit-after-barrier1" => Ok(InjectPhase::CommitEdge(CommitPoint::AfterBarrier1)),
            "commit-after-commit" => Ok(InjectPhase::CommitEdge(CommitPoint::AfterCommit)),
            other => Err(format!("unknown inject phase {other:?}")),
        }
    }
}

/// A stochastic fault-arrival process over a long simulated horizon. Where
/// [`InjectPhase`] anchors one scripted fault, a process generates a whole
/// *schedule* of them — the availability view a serving machine is actually
/// judged on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultProcess {
    /// Independent faults: exponential inter-arrival gaps with the given
    /// mean (a Poisson process of rate `1 / mtbf`).
    Exponential {
        /// Mean time between faults.
        mtbf: Ns,
    },
    /// Correlated bursts (cascades): burst *starts* arrive exponentially
    /// with mean `mtbb`, and each burst is `burst_len` faults spaced
    /// `spacing` apart — the failure-cascade pattern that batch MTBF
    /// numbers average away.
    CorrelatedBurst {
        /// Mean time between burst starts.
        mtbb: Ns,
        /// Faults per burst.
        burst_len: u32,
        /// Gap between consecutive faults of a burst.
        spacing: Ns,
    },
}

/// Draws a seeded, deterministic fault schedule from `process` over
/// `[0, horizon)`: strictly increasing absolute times, ready to replay as
/// [`InjectPhase::AtTime`] plans.
pub fn fault_schedule(process: FaultProcess, horizon: Ns, seed: u64) -> Vec<Ns> {
    let mut rng = revive_sim::rng::DetRng::seed(seed ^ 0xfa_17_5c_8d);
    let mut gap = |mean: Ns| -> u64 {
        let u = rng.unit().max(1e-12);
        (((-u.ln()) * mean.0 as f64).round() as u64).max(1)
    };
    let mut out: Vec<Ns> = Vec::new();
    match process {
        FaultProcess::Exponential { mtbf } => {
            assert!(mtbf > Ns::ZERO, "mtbf must be positive");
            let mut t = gap(mtbf);
            while t < horizon.0 {
                out.push(Ns(t));
                t += gap(mtbf);
            }
        }
        FaultProcess::CorrelatedBurst {
            mtbb,
            burst_len,
            spacing,
        } => {
            assert!(mtbb > Ns::ZERO, "mtbb must be positive");
            assert!(burst_len > 0, "bursts need at least one fault");
            assert!(spacing > Ns::ZERO, "burst spacing must be positive");
            let mut t = gap(mtbb);
            while t < horizon.0 {
                for k in 0..burst_len as u64 {
                    let at = t + k * spacing.0;
                    if at < horizon.0 {
                        out.push(Ns(at));
                    }
                }
                // The next burst starts after this one ends.
                t += (burst_len as u64 - 1) * spacing.0 + gap(mtbb);
            }
        }
    }
    out
}

/// A set of nodes, kept sorted and free of duplicates.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct NodeSet(Vec<NodeId>);

impl NodeSet {
    /// The set containing `nodes` (duplicates collapse).
    pub fn from_nodes(nodes: &[NodeId]) -> NodeSet {
        let mut set = nodes.to_vec();
        set.sort_unstable();
        set.dedup();
        NodeSet(set)
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The members in ascending index order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.0.clone()
    }
}

impl From<NodeId> for NodeSet {
    fn from(n: NodeId) -> NodeSet {
        NodeSet::from_nodes(&[n])
    }
}

/// The supported error classes (Section 3.1.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Simultaneous permanent loss of a set of whole nodes: their memory
    /// (checkpoint, log and parity pages included) is gone and must be
    /// reconstructed. Within the redundancy budget recovery reconstructs
    /// all of them; beyond it the fault is classified
    /// [`FaultOutcome::Unrecoverable`].
    NodeLoss(NodeSet),
    /// A machine-wide transient: all caches and in-flight messages lost,
    /// every memory intact.
    CacheWipe,
    /// Every directory's sharing state is scrambled (a fault in the
    /// directory controller SRAM). Recovery must not depend on any of it —
    /// Phase 1 discards coherence state wholesale.
    DirectoryCorrupt,
    /// *Live* loss of a set of nodes: instead of halting the machine at
    /// the injection instant, their routers and memory die mid-run with
    /// messages in flight. The survivors keep executing; detection is
    /// organic — watchdog strikes against a dead node, a checkpoint
    /// barrier hung on a dead participant, or the heartbeat backstop. The
    /// redundancy budget still bounds what recovery can reconstruct, and
    /// the survivors may additionally be partitioned.
    LiveNodeLoss(NodeSet),
    /// Live loss of every link between one adjacent torus pair, both
    /// directions. No memory is damaged: the machine reroutes around the
    /// cut, the watchdog retries the messages that died on it, and recovery
    /// is a pure rollback (`lost_nodes()` is empty).
    LinkLoss {
        /// One endpoint of the severed links.
        a: NodeId,
        /// The other (must be a torus neighbor of `a`).
        b: NodeId,
    },
}

impl ErrorKind {
    /// Stable kebab-case name (artifacts, inject specs). A node loss is
    /// named by its set's size: `node-loss` for one node,
    /// `multi-node-loss` for several.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorKind::NodeLoss(s) if s.len() == 1 => "node-loss",
            ErrorKind::NodeLoss(_) => "multi-node-loss",
            ErrorKind::CacheWipe => "cache-wipe",
            ErrorKind::DirectoryCorrupt => "directory-corrupt",
            ErrorKind::LiveNodeLoss(s) if s.len() == 1 => "live-node-loss",
            ErrorKind::LiveNodeLoss(_) => "live-multi-node-loss",
            ErrorKind::LinkLoss { .. } => "link-loss",
        }
    }

    /// The nodes this error destroys (empty for transient kinds and for
    /// link loss, which damages no memory).
    pub fn lost_nodes(&self) -> Vec<NodeId> {
        match self {
            ErrorKind::NodeLoss(s) | ErrorKind::LiveNodeLoss(s) => s.nodes(),
            ErrorKind::CacheWipe | ErrorKind::DirectoryCorrupt | ErrorKind::LinkLoss { .. } => {
                Vec::new()
            }
        }
    }

    /// Whether this kind severs the fabric mid-run (organic detection)
    /// rather than halting the machine at the injection instant.
    pub fn is_live(&self) -> bool {
        matches!(
            self,
            ErrorKind::LiveNodeLoss(_) | ErrorKind::LinkLoss { .. }
        )
    }
}

/// A kind is recorded in run artifacts and inject specs as its name and
/// the nodes it involves. Link loss damages no memory (`lost_nodes()` is
/// empty), but a replay still needs its two endpoints.
impl Codec for ErrorKind {
    fn to_json(&self) -> Json {
        let involved = match *self {
            ErrorKind::LinkLoss { a, b } => vec![a, b],
            ref k => k.lost_nodes(),
        };
        let nodes: Vec<usize> = involved.iter().map(|n| n.index()).collect();
        Json::obj([("kind", Json::str(self.name())), ("nodes", nodes.to_json())])
    }

    fn from_json(v: &Json) -> Result<ErrorKind, String> {
        let name: String = v.read("kind")?;
        let nodes = v
            .read::<Vec<usize>>("nodes")?
            .into_iter()
            .map(|n| {
                u16::try_from(n)
                    .map(NodeId)
                    .map_err(|_| format!("no node {n}"))
            })
            .collect::<Result<Vec<NodeId>, String>>()?;
        let kind = match (name.as_str(), nodes.as_slice()) {
            ("node-loss", [_]) | ("multi-node-loss", [_, ..]) => {
                ErrorKind::NodeLoss(NodeSet::from_nodes(&nodes))
            }
            ("live-node-loss", [_]) | ("live-multi-node-loss", [_, ..]) => {
                ErrorKind::LiveNodeLoss(NodeSet::from_nodes(&nodes))
            }
            ("cache-wipe", []) => ErrorKind::CacheWipe,
            ("directory-corrupt", []) => ErrorKind::DirectoryCorrupt,
            ("link-loss", [a, b]) => ErrorKind::LinkLoss { a: *a, b: *b },
            _ => {
                return Err(format!(
                    "no {name:?} error involves {} node(s)",
                    nodes.len()
                ))
            }
        };
        Ok(kind)
    }
}

/// What recovery produced, attached to a [`RunResult`].
#[derive(Clone, Copy, Debug)]
pub struct RecoveryOutcome {
    /// Per-phase recovery report.
    pub report: RecoveryReport,
    /// Work discarded by the rollback: everything executed between the
    /// recovered checkpoint's commit and the error's detection.
    pub lost_work: Ns,
    /// Total unavailable time: lost work + Phases 1–3.
    pub unavailable: Ns,
    /// The checkpoint interval recovered to.
    pub target_interval: u64,
    /// Value-exact comparison against the shadow snapshot (when shadow
    /// checkpoints were enabled); `None` when no snapshot was available.
    pub verified: Option<bool>,
    /// Completed ops discarded by rewinding the CPUs to the recovered
    /// checkpoint (they are re-executed after the machine resumes).
    pub ops_rolled_back: u64,
}

/// The classified outcome of one injected fault: the graceful-degradation
/// contract. A fault either recovers, or the machine *reports why it
/// cannot* and halts — it never panics.
#[derive(Clone, Debug)]
pub enum FaultOutcome {
    /// Recovery succeeded (details in the [`RecoveryOutcome`]).
    Recovered(RecoveryOutcome),
    /// Recovery was refused with a classified reason (e.g. simultaneous
    /// losses beyond the parity budget). The machine halts; later plans in
    /// the same run are not attempted.
    Unrecoverable {
        /// The typed recovery error.
        error: RecoveryError,
        /// When the fault was detected.
        at: Ns,
    },
}

impl FaultOutcome {
    /// The recovery outcome, when this fault recovered.
    pub fn recovered(&self) -> Option<&RecoveryOutcome> {
        match self {
            FaultOutcome::Recovered(o) => Some(o),
            FaultOutcome::Unrecoverable { .. } => None,
        }
    }

    /// Whether this fault was classified unrecoverable.
    pub fn is_unrecoverable(&self) -> bool {
        matches!(self, FaultOutcome::Unrecoverable { .. })
    }
}

/// The result of one experiment run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Time at which the last CPU finished its op budget — the
    /// baseline-vs-ReVive comparison metric of Figure 8.
    pub sim_time: Ns,
    /// Derived metrics.
    pub metrics: Summary,
    /// Checkpoint statistics (empty for baseline runs).
    pub ckpt: CkptStats,
    /// Checkpoints committed.
    pub checkpoints: u64,
    /// Discrete events processed (simulator diagnostics).
    pub events: u64,
    /// Every recovery outcome, in injection order.
    pub recoveries: Vec<RecoveryOutcome>,
    /// Classified outcome of every injected fault, in injection order —
    /// includes faults that ended [`FaultOutcome::Unrecoverable`], which
    /// never appear in `recoveries`.
    pub outcomes: Vec<FaultOutcome>,
    /// Validation-mode audit reports (commit-time parity sweeps, log
    /// round-trips, post-recovery parity sweeps), in chronological order.
    /// Empty unless shadow checkpoints are enabled.
    pub audits: Vec<AuditReport>,
    /// Per-epoch time series (empty unless `cfg.obs` enables sampling).
    pub epochs: Vec<EpochSample>,
    /// The event-trace ring buffer (disabled/empty unless `cfg.obs` enables
    /// tracing).
    pub trace: TraceBuffer,
    /// Checkpoint and recovery phase spans (empty unless tracing is on).
    pub spans: Vec<Span>,
    /// End-of-run fabric delivery counters. Recovery does not reset them,
    /// so for injection runs they cover the whole run, rolled-back work
    /// included.
    pub fabric: revive_net::FabricStats,
    /// Per-request latency and SLO accounting (`None` for batch
    /// workloads; `Some` ⇔ the workload is `WorkloadSpec::Serving`).
    pub serving: Option<crate::metrics::ServingReport>,
}

impl RunResult {
    /// The last recovery outcome (`None` when nothing was recovered).
    pub fn recovery(&self) -> Option<RecoveryOutcome> {
        self.recoveries.last().copied()
    }
}

/// No plan may name a checkpoint count, delay or time at or past this
/// value (2^62 ns is about 146 years of simulated time). Below it, the
/// sums that place a strike and its detection cannot overflow a `u64`.
const PLAN_HORIZON: u64 = 1 << 62;

/// How long after its anchoring commit a mid-interval plan strikes:
/// `frac` of a checkpoint interval. `as` saturates, so an offset past the
/// u64 range reads as u64::MAX.
fn strike_delay(interval: Ns, frac: f64) -> Ns {
    Ns((interval.0 as f64 * frac) as u64)
}

/// When and to what an injected error was detected.
#[derive(Clone, Copy)]
struct Detection {
    /// The checkpoint recovery rolls back to.
    target: u64,
    /// When that checkpoint committed.
    committed: Ns,
    /// When the error was detected.
    at: Ns,
}

/// Drives one experiment to completion.
pub struct Runner {
    sys: System,
}

impl Runner {
    /// Builds the machine for the experiment.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from [`System::new`].
    pub fn new(cfg: ExperimentConfig) -> Result<Runner, MachineError> {
        Ok(Runner {
            sys: System::new(cfg)?,
        })
    }

    /// Runs the experiment to budget completion.
    ///
    /// # Errors
    ///
    /// Currently infallible after construction; the `Result` is kept for
    /// forward compatibility (deadlocks and overflow are panics — they are
    /// simulator bugs, not outcomes).
    pub fn run(self) -> Result<RunResult, MachineError> {
        self.run_with_injections(&[])
    }

    /// Runs to completion and also returns the final functional memory
    /// image (virtual-page keyed) for differential comparison.
    ///
    /// # Errors
    ///
    /// As [`Runner::run`].
    pub fn run_to_image(self) -> Result<(RunResult, MemoryImage), MachineError> {
        let (result, image) = self.run_with_injections_to_image(&[])?;
        Ok((result, image.expect("a clean run destroys no memory")))
    }

    /// Runs with a *sequence* of scripted errors: each plan's
    /// `after_checkpoint` counts checkpoints committed since the previous
    /// recovery (or the run's start). For each error the machine executes
    /// normally, injects it, conservatively keeps executing through the
    /// detection window (the paper's footnote 1), then performs ReVive
    /// recovery and — when shadow checkpoints are on — verifies the
    /// restored memory value-for-value; it then keeps executing until its
    /// budget completes. A fault classified unrecoverable is *not* an
    /// `Err`: it is reported as a [`FaultOutcome::Unrecoverable`] in the
    /// result and the machine stays halted (remaining plans are skipped).
    /// With no plans this is a clean run, on any mode.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::BadConfig`] if plans are given but ReVive is
    /// off or a plan is malformed, [`MachineError::InjectionNeverFired`] if
    /// the run finished before an injection point fired.
    pub fn run_with_injections(
        mut self,
        plans: &[InjectionPlan],
    ) -> Result<RunResult, MachineError> {
        let outcomes = self.execute(plans)?;
        Ok(self.collect(outcomes))
    }

    /// As [`Runner::run_with_injections`], also returning the final
    /// functional memory image for differential comparison against a
    /// clean run. The image is `None` when some fault ended
    /// [`FaultOutcome::Unrecoverable`]: the halted machine keeps the lost
    /// nodes' memory destroyed, and imaging destroyed memory traps.
    ///
    /// # Errors
    ///
    /// As [`Runner::run_with_injections`].
    pub fn run_with_injections_to_image(
        mut self,
        plans: &[InjectionPlan],
    ) -> Result<(RunResult, Option<MemoryImage>), MachineError> {
        let outcomes = self.execute(plans)?;
        let image = if outcomes.iter().any(FaultOutcome::is_unrecoverable) {
            None
        } else {
            Some(self.sys.memory_image())
        };
        Ok((self.collect(outcomes), image))
    }

    /// Injects `plans` in order, recovering from each, and runs the
    /// machine to budget completion — or stops at the first fault that
    /// cannot be recovered, leaving the machine halted.
    fn execute(&mut self, plans: &[InjectionPlan]) -> Result<Vec<FaultOutcome>, MachineError> {
        if !plans.is_empty() && self.sys.cfg.revive.mode == ReviveMode::Off {
            return Err(MachineError::BadConfig(
                "cannot inject errors into the baseline machine".into(),
            ));
        }
        for plan in plans {
            self.validate_kind(&plan.kind)?;
            if plan.kind.is_live() && plan.phase == InjectPhase::DuringRecovery {
                // Recovery runs on a halted machine — there is no live
                // fabric for a mid-recovery sever to act on.
                return Err(MachineError::BadConfig(format!(
                    "live kind {} cannot use the during-recovery phase",
                    plan.kind.name()
                )));
            }
            if let Some(second) = &plan.second {
                self.validate_kind(second)?;
                if second.is_live() {
                    return Err(MachineError::BadConfig(format!(
                        "live kind {} cannot be a second (mid-recovery) fault",
                        second.name()
                    )));
                }
                if plan.phase != InjectPhase::DuringRecovery {
                    return Err(MachineError::BadConfig(format!(
                        "a second fault ({}) requires the during-recovery phase",
                        second.name()
                    )));
                }
            }
            self.validate_timing(plan)?;
        }
        let mut outcomes: Vec<FaultOutcome> = Vec::with_capacity(plans.len());
        for plan in plans {
            let detection = self.fire(plan)?;
            match self.recover_from(plan, detection) {
                Ok(outcome) => {
                    let t_resume = detection.at + (outcome.unavailable - outcome.lost_work);
                    self.sys.resume_after_recovery(t_resume);
                    outcomes.push(FaultOutcome::Recovered(outcome));
                }
                Err(error) => {
                    // Graceful degradation: the fault is classified and
                    // the run ends here, with the machine never resumed.
                    // Any remaining plans are unreachable — the machine is
                    // down.
                    outcomes.push(FaultOutcome::Unrecoverable {
                        error,
                        at: detection.at,
                    });
                    return Ok(outcomes);
                }
            }
        }
        self.sys.run();
        Ok(outcomes)
    }

    /// Arms `plan`, runs until its error strikes, and keeps running until
    /// it is detected.
    fn fire(&mut self, plan: &InjectionPlan) -> Result<Detection, MachineError> {
        let base = self.sys.checkpoints();
        let when = match plan.phase {
            InjectPhase::MidLogging | InjectPhase::DuringRecovery => Trigger::AfterCommit {
                id: base + plan.after_checkpoint,
                delay: strike_delay(self.sys.cfg.revive.ckpt.interval, plan.interval_fraction),
            },
            // Strike inside the commit of the *next* checkpoint after
            // `after_checkpoint` commits, mirroring the other phases'
            // "after N commits" anchor.
            InjectPhase::CommitEdge(point) => Trigger::CommitEdge {
                id: base + plan.after_checkpoint + 1,
                point,
            },
            InjectPhase::AtTime(at) => Trigger::At(at),
        };
        let live = match &plan.kind {
            ErrorKind::LiveNodeLoss(s) => Some(LiveFault::Nodes(s.nodes())),
            ErrorKind::LinkLoss { a, b } => Some(LiveFault::Link { a: *a, b: *b }),
            _ => None,
        };
        self.sys.arm(Armed { when, live });
        self.sys.run();
        let Some(strike) = self.sys.struck() else {
            return Err(MachineError::InjectionNeverFired {
                after_checkpoint: base + plan.after_checkpoint,
                checkpoints: self.sys.checkpoints(),
            });
        };
        Ok(Detection {
            target: strike.target,
            committed: strike.committed,
            at: self.sys.detect(strike.at + plan.detection_delay),
        })
    }

    /// Inflicts `plan`'s damage and recovers the machine to the detected
    /// target, or classifies why it cannot.
    fn recover_from(
        &mut self,
        plan: &InjectionPlan,
        detection: Detection,
    ) -> Result<RecoveryOutcome, RecoveryError> {
        let Detection {
            target,
            committed,
            at,
        } = detection;
        let mut lost = self.apply_damage(&plan.kind, target);
        if plan.kind.is_live() {
            // Quiesce before recovery is only possible if the survivors
            // can still reach each other: check for a partition while
            // the fabric's fault state is still in force.
            if let Some(error) = self.sys.check_partition() {
                return Err(error);
            }
        }
        let double = plan.phase == InjectPhase::DuringRecovery && plan.second.is_some();
        if double {
            // The second fault lands while Phase 2 is still rebuilding:
            // the first attempt is abandoned and recovery restarts from
            // scratch against the union of the damage — the restart is
            // idempotent because nothing before the scrub depends on
            // partial progress.
            if let Some(kind2) = &plan.second {
                for n in self.apply_damage(kind2, target) {
                    if !lost.contains(&n) {
                        lost.push(n);
                    }
                }
            }
        }
        let mut outcome = self.sys.recover(target, &lost, committed, at)?;
        if double {
            // Charge the abandoned first attempt's diagnosis time: the
            // machine was already in Phase 1/2 when the second fault
            // struck and had to start over.
            outcome.unavailable += outcome.report.phase1;
        } else if plan.phase == InjectPhase::DuringRecovery {
            // The error recurs the instant the first pass made the machine
            // available again (its rollback end), before its Phase 4
            // background rebuild completes: re-apply the damage and
            // recover again to the same checkpoint from there. The second
            // pass must hold with the logs already scrubbed — for a node
            // loss it is pure parity reconstruction, for the others an
            // idempotence check.
            let lost2 = self.apply_damage(&plan.kind, target);
            let again = at + outcome.report.unavailable();
            let second = self.sys.recover(target, &lost2, committed, again)?;
            outcome = RecoveryOutcome {
                report: second.report,
                lost_work: outcome.lost_work,
                unavailable: outcome.unavailable + second.report.unavailable(),
                target_interval: target,
                verified: match (outcome.verified, second.verified) {
                    (Some(a), Some(b)) => Some(a && b),
                    (Some(a), None) | (None, Some(a)) => Some(a),
                    (None, None) => None,
                },
                ops_rolled_back: outcome.ops_rolled_back.max(second.ops_rolled_back),
            };
        }
        Ok(outcome)
    }

    /// Refuses a plan whose checkpoint count, strike time or detection
    /// delay reaches [`PLAN_HORIZON`].
    fn validate_timing(&self, plan: &InjectionPlan) -> Result<(), MachineError> {
        let strike = match plan.phase {
            InjectPhase::MidLogging | InjectPhase::DuringRecovery => {
                strike_delay(self.sys.cfg.revive.ckpt.interval, plan.interval_fraction).0
            }
            InjectPhase::CommitEdge(_) => 0,
            InjectPhase::AtTime(at) => at.0,
        };
        let delay = plan.detection_delay.0;
        if plan.after_checkpoint.max(strike).max(delay) >= PLAN_HORIZON {
            return Err(MachineError::BadConfig(format!(
                "plan timing past the simulated clock's range: after_checkpoint {}, \
                 strike at {strike} ns, detection delay {delay} ns",
                plan.after_checkpoint
            )));
        }
        Ok(())
    }

    fn validate_kind(&self, kind: &ErrorKind) -> Result<(), MachineError> {
        let nodes = self.sys.cfg.machine.nodes;
        match *kind {
            ErrorKind::NodeLoss(ref s) | ErrorKind::LiveNodeLoss(ref s) if s.is_empty() => Err(
                MachineError::BadConfig("a node loss needs at least one node".into()),
            ),
            ErrorKind::NodeLoss(ref s) | ErrorKind::LiveNodeLoss(ref s) => {
                match s.nodes().iter().find(|n| n.index() >= nodes) {
                    Some(n) => Err(MachineError::BadConfig(format!(
                        "cannot lose node {n}: the machine has {nodes} nodes"
                    ))),
                    None => Ok(()),
                }
            }
            ErrorKind::LinkLoss { a, b } => {
                if a.index() >= nodes || b.index() >= nodes {
                    return Err(MachineError::BadConfig(format!(
                        "link loss {a}-{b}: the machine has {nodes} nodes"
                    )));
                }
                if Torus::square_for(nodes).hops(a, b) != 1 {
                    return Err(MachineError::BadConfig(format!(
                        "link loss {a}-{b}: the nodes are not torus neighbors"
                    )));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Inflicts the plan's damage on the machine; returns the lost nodes
    /// the recovery engine must reconstruct around (empty for transients).
    fn apply_damage(&mut self, kind: &ErrorKind, target: u64) -> Vec<NodeId> {
        match *kind {
            ErrorKind::NodeLoss(ref s) | ErrorKind::LiveNodeLoss(ref s) => {
                let nodes = s.nodes();
                for &n in &nodes {
                    self.sys.mems[n.index()].destroy();
                }
                nodes
            }
            // A severed link damages no memory: recovery is a pure
            // rollback of the survivors (all of them).
            ErrorKind::LinkLoss { .. } => Vec::new(),
            ErrorKind::CacheWipe => Vec::new(),
            ErrorKind::DirectoryCorrupt => {
                let salt = self.sys.cfg.seed ^ target;
                for n in 0..self.sys.nodes.len() {
                    self.sys.nodes[n].dir.scramble(salt.wrapping_add(n as u64));
                }
                Vec::new()
            }
        }
    }

    fn collect(&mut self, outcomes: Vec<FaultOutcome>) -> RunResult {
        // The run is over: no further rollback can retract a completion,
        // so the tracker folds its provisional tail and reports.
        let serving = self.sys.take_serving_report();
        let sys = &self.sys;
        let sim_time = sys.finish_time.unwrap_or_else(|| sys.now());
        let mut summary = Summary {
            traffic: sys.metrics.clone(),
            ..Summary::default()
        };
        let mut row_hits = 0u64;
        let mut row_total = 0u64;
        for node in &sys.nodes {
            let cs = node.ctrl.stats();
            summary.l1_hits += cs.l1_hits;
            summary.l1_misses += cs.l1_misses;
            summary.l2_hits += cs.l2_hits;
            summary.l2_misses += cs.l2_misses;
            summary.eviction_writebacks += cs.eviction_writebacks;
            summary.nack_retries += cs.nack_retries;
            let ds = node.dram.stats();
            row_hits += ds.row_hits;
            row_total += ds.total();
            if let Some(h) = node.hook.as_ref() {
                summary.log_high_water.push(h.log.stats().high_water_bytes);
                summary.costs.wb_logged += h.costs.wb_logged;
                summary.costs.rdx_unlogged += h.costs.rdx_unlogged;
                summary.costs.wb_unlogged += h.costs.wb_unlogged;
                summary.costs.intents_already_logged += h.costs.intents_already_logged;
            }
        }
        summary.dram_row_hit_rate = if row_total == 0 {
            0.0
        } else {
            row_hits as f64 / row_total as f64
        };
        summary.mean_net_latency = sys.fabric_mean_latency();
        let recoveries: Vec<RecoveryOutcome> = outcomes
            .iter()
            .filter_map(|o| o.recovered().copied())
            .collect();
        RunResult {
            sim_time,
            metrics: summary,
            ckpt: sys.ck_stats.clone(),
            checkpoints: sys.ckpt_counter,
            events: sys.events_processed(),
            recoveries,
            outcomes,
            audits: sys.audits.clone(),
            epochs: sys
                .sampler
                .as_ref()
                .map(|s| s.samples().to_vec())
                .unwrap_or_default(),
            trace: sys.tracer.clone(),
            spans: sys.spans.clone(),
            fabric: sys.fabric.stats(),
            serving,
        }
    }
}

// Compile-time proof that a whole experiment can move to a worker thread:
// the inputs and the output are all `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ExperimentConfig>();
    assert_send::<InjectionPlan>();
    assert_send::<RunResult>();
};
