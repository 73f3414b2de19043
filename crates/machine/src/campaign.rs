//! Seed-driven adversarial fault-campaign engine.
//!
//! One 64-bit seed deterministically expands into a complete fault
//! scenario: machine shape, workload corner, and a sequence of scripted
//! faults that may strike mid-logging, exactly on a two-phase-commit
//! boundary, or while a previous recovery is still running — including
//! simultaneous multi-node losses beyond the parity budget. Each scenario
//! is executed under the differential oracle and classified into a
//! [`ScenarioOutcome`]; scenarios whose outcome is a genuine failure
//! (a panic, an oracle mismatch, a failed shadow verification) can be
//! [`shrink`]-minimized to the smallest scenario that still reproduces.
//!
//! The contract this module enforces is graceful degradation: every
//! scenario — however adversarial — ends in either
//! [`ScenarioOutcome::Recovered`] (oracle-verified) or
//! [`ScenarioOutcome::Unrecoverable`] (a typed, classified refusal).
//! A panic is always a bug, and the campaign treats it as one.

use revive_net::topology::{Direction, Torus};
use revive_sim::{DetRng, NodeId, Ns};
use revive_workloads::{AppId, SyntheticKind};

use crate::config::{ExperimentConfig, MachineError, ReviveMode, WorkloadSpec};
use crate::json::{Codec, Json};
use crate::runner::{
    CommitPoint, ErrorKind, FaultOutcome, InjectPhase, InjectionPlan, NodeSet, RunResult, Runner,
};

/// Schema identifier for serialized scenarios (inject specs).
pub const SPEC_SCHEMA: &str = "revive-inject-spec";
/// The one inject-spec schema version this build writes and reads.
pub const SPEC_VERSION: u64 = 2;

/// Which redundancy backend a scenario runs under. The choice decides the
/// loss budget — how many simultaneous node deaths per group stay
/// recoverable — so the generator draws node sets at and beyond it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendChoice {
    /// The paper's N+1 XOR parity (budget 1).
    Xor,
    /// RAID-6-style P+Q double parity (budget 2).
    Double,
    /// k-replication (budget k).
    Replication,
}

impl BackendChoice {
    /// Every backend, for exhaustive sweeps.
    pub const ALL: [BackendChoice; 3] = [
        BackendChoice::Xor,
        BackendChoice::Double,
        BackendChoice::Replication,
    ];

    /// Stable name used in inject specs and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Xor => "xor",
            BackendChoice::Double => "double-parity",
            BackendChoice::Replication => "replication",
        }
    }

    /// Parses a [`BackendChoice::name`] back.
    pub fn from_name(name: &str) -> Option<BackendChoice> {
        BackendChoice::ALL.into_iter().find(|b| b.name() == name)
    }
}

/// Knobs for the scenario generator.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Maximum number of sequential faults per scenario (each scenario
    /// draws 1..=max_faults).
    pub max_faults: usize,
    /// Maximum number of nodes a single simultaneous multi-node loss may
    /// take (clamped to at least 2 and at most the machine size).
    pub max_simultaneous: usize,
    /// Op budget per CPU for generated scenarios.
    pub ops_per_cpu: u64,
    /// Generate only the *live* kinds (live node death, live multi-node
    /// death, link loss): the fabric is actually severed mid-run and
    /// detection is organic. Off by default — the mixed campaign draws
    /// live and scripted kinds side by side.
    pub live_only: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            max_faults: 2,
            max_simultaneous: 3,
            ops_per_cpu: 60_000,
            live_only: false,
        }
    }
}

crate::json_record!(
    /// One scripted fault within a scenario. Timing is expressed in
    /// checkpoint-relative units so a scenario is meaningful independent of
    /// the configured interval.
    #[derive(Clone, Debug, PartialEq)]
    pub struct FaultSpec {
        /// Fire after this many checkpoints commit (counted from the previous
        /// fault's recovery, or the run's start).
        pub after_checkpoint: u64,
        /// …plus this fraction of a checkpoint interval (ignored by the
        /// commit-edge and at-time phases).
        pub interval_fraction: f64,
        /// Detection latency as a fraction of the checkpoint interval.
        pub detection_fraction: f64,
        /// The error class.
        pub kind: ErrorKind,
        /// Where in the checkpoint lifecycle the error strikes.
        pub phase: InjectPhase,
        /// A second fault striking mid-recovery (only with
        /// [`InjectPhase::DuringRecovery`]).
        pub second: Option<ErrorKind>,
    },
    check(|f: &FaultSpec| {
        let ok = |x: f64| x.is_finite() && x >= 0.0;
        if ok(f.interval_fraction) && ok(f.detection_fraction) {
            Ok(())
        } else {
            Err("timing fractions must be finite and non-negative".to_string())
        }
    })
);

// A scenario serializes as an inject-spec document (schema
// [`SPEC_SCHEMA`] v[`SPEC_VERSION`]).
crate::json_record!(document(SPEC_SCHEMA, SPEC_VERSION)
    /// A complete, self-describing fault scenario: everything needed to
    /// replay it bit-for-bit.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Scenario {
        /// The campaign seed this scenario was generated from (kept for
        /// provenance; replay does not re-derive from it).
        pub seed: u64,
        /// The workload corner (restricted to the private-region synthetics
        /// the exact-memory oracle is valid for).
        pub app: SyntheticKind,
        /// Machine size (must be a perfect square for the torus).
        pub nodes: usize,
        /// Data pages per parity group (chunk `G+1` must divide `nodes`).
        pub group_data_pages: usize,
        /// The redundancy backend the machine runs under. The other backends
        /// reuse the XOR shape's chunk: double parity takes one data page of
        /// the group for Q (`G-1`+2 spans the same nodes), replication keeps
        /// `G` replicas per primary.
        pub backend: BackendChoice,
        /// Op budget per CPU.
        pub ops_per_cpu: u64,
        /// The scripted faults, in injection order.
        pub faults: Vec<FaultSpec>,
    }
    check(|sc: &Scenario| {
        if sc.faults.is_empty() {
            return Err("a scenario needs at least one fault".to_string());
        }
        Ok(())
    })
);

impl Scenario {
    /// The [`ReviveMode`] the scenario's backend + group shape map to.
    pub fn mode(&self) -> ReviveMode {
        let g = self.group_data_pages;
        match self.backend {
            BackendChoice::Xor => ReviveMode::Parity {
                group_data_pages: g,
            },
            BackendChoice::Double => {
                // Same chunk of g+1 nodes, one data page traded for Q.
                assert!(g >= 2, "double parity needs a chunk of at least 3");
                ReviveMode::DoubleParity {
                    group_data_pages: g - 1,
                }
            }
            BackendChoice::Replication => ReviveMode::Replication { replicas: g },
        }
    }

    /// How many simultaneous node losses per group the scenario's backend
    /// can rebuild.
    pub fn loss_budget(&self) -> usize {
        self.mode().loss_budget()
    }

    /// The experiment configuration this scenario runs against.
    pub fn experiment(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::test_small(AppId::Lu);
        cfg.machine.nodes = self.nodes;
        cfg.revive.mode = self.mode();
        cfg.workload = WorkloadSpec::Synthetic(self.app);
        cfg.ops_per_cpu = self.ops_per_cpu;
        cfg.seed = self.seed;
        cfg
    }

    /// The scenario's faults as concrete injection plans at `interval`.
    pub fn plans(&self, interval: Ns) -> Vec<InjectionPlan> {
        self.faults
            .iter()
            .map(|f| InjectionPlan {
                after_checkpoint: f.after_checkpoint,
                interval_fraction: f.interval_fraction,
                detection_delay: Ns((interval.0 as f64 * f.detection_fraction) as u64),
                kind: f.kind.clone(),
                phase: f.phase,
                second: f.second.clone(),
            })
            .collect()
    }
}

impl Codec for BackendChoice {
    fn to_json(&self) -> Json {
        Json::str(self.name())
    }
    fn from_json(v: &Json) -> Result<BackendChoice, String> {
        let name = String::from_json(v)?;
        BackendChoice::from_name(&name).ok_or_else(|| format!("unknown backend {name:?}"))
    }
}

impl Codec for SyntheticKind {
    fn to_json(&self) -> Json {
        Json::str(self.name())
    }
    fn from_json(v: &Json) -> Result<SyntheticKind, String> {
        let name = String::from_json(v)?;
        SyntheticKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown app {name:?}"))
    }
}

/// Deterministically expands `seed` into a scenario. The same seed and
/// config always produce the same scenario, on every platform.
pub fn generate(seed: u64, cfg: &CampaignConfig) -> Scenario {
    let mut rng = DetRng::seed(seed);
    // Machine shapes: chunk G+1 must divide the node count, and the torus
    // needs a perfect square. 4-node 3+1 puts every node in one chunk, so
    // ANY simultaneous double loss there is beyond the parity budget;
    // 9-node 2+1 has three chunks, so double losses split into
    // recoverable (cross-chunk) and unrecoverable (same-chunk) cases.
    let shapes: [(usize, usize); 2] = [(4, 3), (9, 2)];
    let (nodes, group_data_pages) = shapes[rng.index(shapes.len())];
    // Every backend rides the same chunk shape (see `Scenario::mode`), so
    // the draw is unconstrained.
    let backend = BackendChoice::ALL[rng.index(BackendChoice::ALL.len())];
    // Only the private-region synthetics: the exact-memory oracle needs a
    // workload whose replayed execution is address-for-address identical.
    let apps = [SyntheticKind::WsExceedsL2, SyntheticKind::WsFitsDirty];
    let app = apps[rng.index(apps.len())];
    let n_faults = 1 + rng.index(cfg.max_faults.max(1));
    let mut sc = Scenario {
        seed,
        app,
        nodes,
        group_data_pages,
        backend,
        ops_per_cpu: cfg.ops_per_cpu,
        faults: Vec::new(),
    };
    // Node-set sizes must reach past the backend's loss budget, or richer
    // backends would never see an unrecoverable multi-node case.
    let budget = sc.loss_budget();
    sc.faults = (0..n_faults)
        .map(|_| random_fault(&mut rng, nodes, budget, cfg))
        .collect();
    sc
}

fn random_fault(rng: &mut DetRng, nodes: usize, budget: usize, cfg: &CampaignConfig) -> FaultSpec {
    const FRACTIONS: [f64; 4] = [0.1, 0.25, 0.5, 0.8];
    const DETECT: [f64; 3] = [0.0, 0.4, 0.8];
    // Multi-node losses must be able to exceed the backend's budget, so the
    // cap stretches to budget+1 when the configured cap is below it.
    let max_simultaneous = cfg.max_simultaneous.max(budget + 1);
    let drawn_phase = match rng.index(8) {
        0..=2 => InjectPhase::MidLogging,
        3 => InjectPhase::CommitEdge(CommitPoint::AfterMark),
        4 | 5 => InjectPhase::DuringRecovery,
        6 => InjectPhase::CommitEdge(CommitPoint::AfterBarrier1),
        _ => InjectPhase::CommitEdge(CommitPoint::AfterCommit),
    };
    let kind = if cfg.live_only {
        random_live_kind(rng, nodes, max_simultaneous)
    } else {
        random_kind(rng, nodes, max_simultaneous)
    };
    // Live kinds sever a *running* fabric: they cannot strike mid-recovery
    // (the machine is halted then) and cannot be paired with a second
    // mid-recovery fault, so those draws degrade to the nearest legal shape.
    let (phase, second) = if kind.is_live() {
        let phase = if drawn_phase == InjectPhase::DuringRecovery {
            InjectPhase::MidLogging
        } else {
            drawn_phase
        };
        (phase, None)
    } else {
        let second = if drawn_phase == InjectPhase::DuringRecovery && rng.chance(0.5) {
            Some(random_scripted_kind(rng, nodes, max_simultaneous))
        } else {
            None
        };
        (drawn_phase, second)
    };
    FaultSpec {
        after_checkpoint: rng.range(1, 4),
        interval_fraction: FRACTIONS[rng.index(FRACTIONS.len())],
        detection_fraction: DETECT[rng.index(DETECT.len())],
        kind,
        phase,
        second,
    }
}

fn random_kind(rng: &mut DetRng, nodes: usize, max_simultaneous: usize) -> ErrorKind {
    match rng.index(9) {
        0..=5 => random_scripted_kind(rng, nodes, max_simultaneous),
        6 | 7 => random_live_kind(rng, nodes, max_simultaneous),
        _ => {
            let (a, b) = random_link(rng, nodes);
            ErrorKind::LinkLoss { a, b }
        }
    }
}

fn random_scripted_kind(rng: &mut DetRng, nodes: usize, max_simultaneous: usize) -> ErrorKind {
    match rng.index(6) {
        0 | 1 => ErrorKind::NodeLoss(NodeId::from(rng.index(nodes)).into()),
        2 | 3 => ErrorKind::NodeLoss(random_node_set(rng, nodes, max_simultaneous)),
        4 => ErrorKind::CacheWipe,
        _ => ErrorKind::DirectoryCorrupt,
    }
}

fn random_live_kind(rng: &mut DetRng, nodes: usize, max_simultaneous: usize) -> ErrorKind {
    match rng.index(4) {
        0 | 1 => ErrorKind::LiveNodeLoss(NodeId::from(rng.index(nodes)).into()),
        2 => ErrorKind::LiveNodeLoss(random_node_set(rng, nodes, max_simultaneous)),
        _ => {
            let (a, b) = random_link(rng, nodes);
            ErrorKind::LinkLoss { a, b }
        }
    }
}

fn random_node_set(rng: &mut DetRng, nodes: usize, max_simultaneous: usize) -> NodeSet {
    let cap = max_simultaneous.clamp(2, nodes);
    let k = 2 + rng.index(cap - 1);
    let mut all: Vec<NodeId> = (0..nodes).map(NodeId::from).collect();
    rng.shuffle(&mut all);
    all.truncate(k);
    NodeSet::from_nodes(&all)
}

/// A random adjacent torus pair (the endpoints of one severable link).
fn random_link(rng: &mut DetRng, nodes: usize) -> (NodeId, NodeId) {
    let torus = Torus::square_for(nodes);
    let a = NodeId::from(rng.index(nodes));
    let dir = Direction::ALL[rng.index(Direction::ALL.len())];
    (a, torus.neighbor(a, dir))
}

/// The classified result of executing one scenario.
#[derive(Clone, Debug)]
pub enum ScenarioOutcome {
    /// Every fault recovered; the flags carry the oracle verdicts.
    Recovered {
        /// Final memory matched the clean golden run word-for-word.
        oracle_match: bool,
        /// Every recovery passed value-exact shadow verification.
        verified: bool,
        /// Every validation-mode audit (parity sweeps, log round-trips)
        /// came back clean.
        audits_clean: bool,
        /// Number of completed recoveries.
        recoveries: usize,
        /// Total unavailable time across all recoveries.
        unavailable: Ns,
    },
    /// A fault was refused with a classified reason (graceful
    /// degradation — e.g. simultaneous losses beyond the parity budget).
    Unrecoverable {
        /// The typed recovery error, rendered.
        reason: String,
    },
    /// The run finished before the injection point fired (benign: the
    /// scenario asked for a later checkpoint than the budget produces).
    NotFired,
    /// The scenario was structurally invalid (a campaign-engine bug).
    BadConfig {
        /// The machine error, rendered.
        message: String,
    },
    /// The machine panicked — always a bug, never an acceptable outcome.
    Panicked {
        /// The panic payload, rendered.
        message: String,
    },
}

impl std::fmt::Display for ScenarioOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioOutcome::Recovered {
                oracle_match,
                verified,
                audits_clean,
                recoveries,
                unavailable,
            } => write!(
                f,
                "recovered ({recoveries} recoveries, {unavailable} unavailable, \
                 oracle {}, shadow {}, audits {})",
                if *oracle_match { "match" } else { "MISMATCH" },
                if *verified { "ok" } else { "FAILED" },
                if *audits_clean { "clean" } else { "DIRTY" },
            ),
            ScenarioOutcome::Unrecoverable { reason } => write!(f, "unrecoverable: {reason}"),
            ScenarioOutcome::NotFired => write!(f, "not fired"),
            ScenarioOutcome::BadConfig { message } => write!(f, "bad config: {message}"),
            ScenarioOutcome::Panicked { message } => write!(f, "PANIC: {message}"),
        }
    }
}

/// A scenario plus its classified outcome.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// What happened.
    pub outcome: ScenarioOutcome,
    /// The classifying run's full result (for artifact emission); `None`
    /// when the machine panicked or rejected the configuration.
    pub result: Option<RunResult>,
}

impl ScenarioReport {
    /// Whether this outcome is a genuine failure of the recovery
    /// machinery. `Unrecoverable` is *not* a failure — it is the correct
    /// classified answer for faults beyond the budget — and `NotFired`
    /// is a benign scheduling miss. A panic, an oracle mismatch, a failed
    /// shadow verification, a dirty audit, or a structurally invalid
    /// generated scenario all are.
    pub fn is_failure(&self) -> bool {
        match &self.outcome {
            ScenarioOutcome::Recovered {
                oracle_match,
                verified,
                audits_clean,
                ..
            } => !(*oracle_match && *verified && *audits_clean),
            ScenarioOutcome::Unrecoverable { .. } | ScenarioOutcome::NotFired => false,
            ScenarioOutcome::BadConfig { .. } | ScenarioOutcome::Panicked { .. } => true,
        }
    }

    /// Stable kebab-case outcome class (artifacts, tallies).
    pub fn classification(&self) -> &'static str {
        match &self.outcome {
            ScenarioOutcome::Recovered { .. } => "recovered",
            ScenarioOutcome::Unrecoverable { .. } => "unrecoverable",
            ScenarioOutcome::NotFired => "not-fired",
            ScenarioOutcome::BadConfig { .. } => "bad-config",
            ScenarioOutcome::Panicked { .. } => "panicked",
        }
    }
}

fn attempt(sc: &Scenario) -> Result<(ScenarioOutcome, RunResult), MachineError> {
    let cfg = sc.experiment();
    let plans = sc.plans(cfg.revive.ckpt.interval);
    let (injected, image) = Runner::new(cfg)?.run_with_injections_to_image(&plans)?;
    let Some(image) = image else {
        let reason = injected
            .outcomes
            .iter()
            .find_map(|o| match o {
                FaultOutcome::Unrecoverable { error, .. } => Some(error.to_string()),
                FaultOutcome::Recovered(_) => None,
            })
            .expect("a run without an image ended in an unrecoverable fault");
        return Ok((ScenarioOutcome::Unrecoverable { reason }, injected));
    };
    // Every fault recovered: the oracle compares against a clean run.
    let (_, golden) = Runner::new(cfg)?.run_to_image()?;
    let diff = golden.diff(&image);
    let outcome = ScenarioOutcome::Recovered {
        oracle_match: diff.is_match(),
        verified: injected
            .recoveries
            .iter()
            .all(|r| r.verified != Some(false)),
        audits_clean: injected.audits.iter().all(|a| a.is_clean()),
        recoveries: injected.recoveries.len(),
        unavailable: Ns(injected.recoveries.iter().map(|r| r.unavailable.0).sum()),
    };
    Ok((outcome, injected))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Executes one scenario end-to-end and classifies the outcome. Panics
/// are caught and classified as [`ScenarioOutcome::Panicked`]; this
/// function itself never panics on machine behavior.
pub fn run_scenario(sc: &Scenario) -> ScenarioReport {
    let (outcome, result) =
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| attempt(sc))) {
            Ok(Ok((outcome, result))) => (outcome, Some(result)),
            Ok(Err(MachineError::InjectionNeverFired { .. })) => (ScenarioOutcome::NotFired, None),
            Ok(Err(e)) => (
                ScenarioOutcome::BadConfig {
                    message: e.to_string(),
                },
                None,
            ),
            Err(payload) => (
                ScenarioOutcome::Panicked {
                    message: panic_message(payload.as_ref()),
                },
                None,
            ),
        };
    ScenarioReport {
        scenario: sc.clone(),
        outcome,
        result,
    }
}

/// Shrinks a failing scenario to a (locally) minimal one that still
/// fails, re-executing each candidate with [`run_scenario`]. See
/// [`shrink_with`] to minimize against a custom predicate.
pub fn shrink(sc: &Scenario) -> Scenario {
    shrink_with(sc, |s| run_scenario(s).is_failure(), 64)
}

/// Greedy scenario minimization: repeatedly tries simplifying candidates
/// (drop a fault, halve the op budget, drop the second fault, narrow a
/// multi-node loss, canonicalize phase and timing) and keeps any that
/// still satisfy `still_fails`, until a fixpoint or `max_attempts`
/// predicate evaluations.
pub fn shrink_with<F>(sc: &Scenario, mut still_fails: F, max_attempts: usize) -> Scenario
where
    F: FnMut(&Scenario) -> bool,
{
    let mut best = sc.clone();
    let mut attempts = 0usize;
    loop {
        let mut improved = false;
        for cand in candidates(&best) {
            if attempts >= max_attempts {
                return best;
            }
            attempts += 1;
            if still_fails(&cand) {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Simplification candidates for `sc`, most aggressive first.
fn candidates(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    // Drop a whole fault.
    if sc.faults.len() > 1 {
        for i in 0..sc.faults.len() {
            let mut c = sc.clone();
            c.faults.remove(i);
            out.push(c);
        }
    }
    // Halve the op budget (floor 10k so checkpoints still happen).
    if sc.ops_per_cpu > 10_000 {
        let mut c = sc.clone();
        c.ops_per_cpu = (sc.ops_per_cpu / 2).max(10_000);
        out.push(c);
    }
    for i in 0..sc.faults.len() {
        let f = &sc.faults[i];
        // Drop the mid-recovery second fault.
        if f.second.is_some() {
            let mut c = sc.clone();
            c.faults[i].second = None;
            out.push(c);
        }
        // Narrow a node loss by one node (down to a single loss).
        if let ErrorKind::NodeLoss(s) | ErrorKind::LiveNodeLoss(s) = &f.kind {
            if s.len() > 1 {
                let mut nodes = s.nodes();
                nodes.pop();
                let narrowed = NodeSet::from_nodes(&nodes);
                let mut c = sc.clone();
                c.faults[i].kind = match f.kind {
                    ErrorKind::NodeLoss(_) => ErrorKind::NodeLoss(narrowed),
                    _ => ErrorKind::LiveNodeLoss(narrowed),
                };
                out.push(c);
            }
        }
        // Canonicalize a live fault to its scripted twin: if the failure
        // reproduces without the sever/watchdog machinery, the minimized
        // scenario should say so.
        match &f.kind {
            ErrorKind::LiveNodeLoss(s) => {
                let mut c = sc.clone();
                c.faults[i].kind = ErrorKind::NodeLoss(s.clone());
                out.push(c);
            }
            ErrorKind::LinkLoss { .. } => {
                // The closest scripted analogue: messages die, memory
                // survives.
                let mut c = sc.clone();
                c.faults[i].kind = ErrorKind::CacheWipe;
                out.push(c);
            }
            _ => {}
        }
        // Canonicalize the phase (a second fault only makes sense
        // during-recovery, so it goes too).
        if f.phase != InjectPhase::MidLogging {
            let mut c = sc.clone();
            c.faults[i].phase = InjectPhase::MidLogging;
            c.faults[i].second = None;
            out.push(c);
        }
        // Canonicalize the timing.
        if f.after_checkpoint > 1 {
            let mut c = sc.clone();
            c.faults[i].after_checkpoint = 1;
            out.push(c);
        }
        if f.interval_fraction != 0.5 {
            let mut c = sc.clone();
            c.faults[i].interval_fraction = 0.5;
            out.push(c);
        }
        if f.detection_fraction != 0.0 {
            let mut c = sc.clone();
            c.faults[i].detection_fraction = 0.0;
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = CampaignConfig::default();
        for seed in 0..50 {
            assert_eq!(generate(seed, &cfg), generate(seed, &cfg));
        }
    }

    #[test]
    fn generation_covers_the_adversarial_space() {
        let cfg = CampaignConfig::default();
        let scenarios: Vec<Scenario> = (0..300).map(|s| generate(s, &cfg)).collect();
        let faults = || scenarios.iter().flat_map(|s| s.faults.iter());
        let multi = |k: &ErrorKind| k.lost_nodes().len() > 1;
        assert!(faults().any(|f| matches!(f.kind, ErrorKind::NodeLoss(_)) && multi(&f.kind)));
        assert!(faults().any(|f| matches!(f.phase, InjectPhase::CommitEdge(_))));
        assert!(faults().any(|f| f.phase == InjectPhase::DuringRecovery && f.second.is_some()));
        assert!(faults().any(|f| matches!(f.kind, ErrorKind::LiveNodeLoss(_)) && !multi(&f.kind)));
        assert!(faults().any(|f| matches!(f.kind, ErrorKind::LiveNodeLoss(_)) && multi(&f.kind)));
        assert!(faults().any(|f| matches!(f.kind, ErrorKind::LinkLoss { .. })));
        // Live faults also land on the 2PC edges, not just mid-logging.
        assert!(faults().any(|f| f.kind.is_live() && f.phase != InjectPhase::MidLogging));
        assert!(scenarios.iter().any(|s| s.nodes == 4));
        assert!(scenarios.iter().any(|s| s.nodes == 9));
        assert!(scenarios.iter().any(|s| s.faults.len() > 1));
    }

    #[test]
    fn live_faults_never_draw_illegal_shapes() {
        // Live kinds cannot strike mid-recovery and cannot carry a second
        // fault; link endpoints are always torus neighbors.
        for cfg in [
            CampaignConfig::default(),
            CampaignConfig {
                live_only: true,
                ..CampaignConfig::default()
            },
        ] {
            for seed in 0..300 {
                let sc = generate(seed, &cfg);
                for f in &sc.faults {
                    if f.kind.is_live() {
                        assert_ne!(f.phase, InjectPhase::DuringRecovery, "seed {seed}");
                        assert_eq!(f.second, None, "seed {seed}");
                    }
                    if let Some(second) = f.second.clone() {
                        assert!(!second.is_live(), "seed {seed}");
                    }
                    if let ErrorKind::LinkLoss { a, b } = f.kind {
                        assert_eq!(Torus::square_for(sc.nodes).hops(a, b), 1, "seed {seed}");
                    }
                }
                if cfg.live_only {
                    assert!(sc.faults.iter().all(|f| f.kind.is_live()), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn inject_spec_round_trips() {
        use crate::json::{parse_json, write_json, Codec};
        let cfg = CampaignConfig::default();
        for seed in 0..100 {
            let sc = generate(seed, &cfg);
            let text = write_json(&sc.to_json());
            let parsed =
                Scenario::from_json(&parse_json(&text).unwrap()).expect("round trip parses");
            assert_eq!(parsed, sc, "seed {seed} round-trips");
        }
        // Link loss keeps its endpoints and at-time faults keep their time.
        let mut sc = generate(0, &cfg);
        sc.faults[0].kind = ErrorKind::LinkLoss {
            a: NodeId(0),
            b: NodeId(1),
        };
        sc.faults[0].phase = InjectPhase::AtTime(Ns(123_456));
        assert_eq!(Scenario::from_json(&sc.to_json()), Ok(sc));
        // Every kind name still reads, into the folded variant, and writes
        // back under the name its set's size picks.
        let one = || ErrorKind::NodeLoss(NodeId(3).into());
        let two = || NodeSet::from_nodes(&[NodeId(1), NodeId(2)]);
        for (text, want, canonical) in [
            (
                r#"{"kind":"multi-node-loss","nodes":[3]}"#,
                one(),
                r#"{"kind":"node-loss","nodes":[3]}"#,
            ),
            (
                r#"{"kind":"node-loss","nodes":[3]}"#,
                one(),
                r#"{"kind":"node-loss","nodes":[3]}"#,
            ),
            (
                r#"{"kind":"live-multi-node-loss","nodes":[2,1]}"#,
                ErrorKind::LiveNodeLoss(two()),
                r#"{"kind":"live-multi-node-loss","nodes":[1,2]}"#,
            ),
        ] {
            let kind = ErrorKind::from_json(&parse_json(text).unwrap()).unwrap();
            assert_eq!(kind, want, "{text}");
            assert_eq!(kind.to_json(), parse_json(canonical).unwrap(), "{text}");
        }
        for text in [
            r#"{"kind":"node-loss","nodes":[1,2]}"#,
            r#"{"kind":"live-node-loss","nodes":[]}"#,
            r#"{"kind":"multi-node-loss","nodes":[]}"#,
            r#"{"kind":"node-loss","nodes":[65536]}"#,
        ] {
            assert!(
                ErrorKind::from_json(&parse_json(text).unwrap()).is_err(),
                "{text}"
            );
        }
        // `commit-window` reads as the after-mark edge and writes back as
        // `commit-after-mark`, so an old spec replays the same scenario.
        let after_mark = InjectPhase::CommitEdge(CommitPoint::AfterMark);
        let sc = (0..100)
            .map(|seed| generate(seed, &cfg))
            .find(|sc| sc.faults.iter().any(|f| f.phase == after_mark))
            .expect("some seed strikes after the mark");
        let text = write_json(&sc.to_json());
        let old = text.replace("\"commit-after-mark\"", "\"commit-window\"");
        assert_ne!(old, text);
        let parsed = Scenario::from_json(&parse_json(&old).unwrap()).unwrap();
        assert_eq!(write_json(&parsed.to_json()), text);
    }

    /// Pins the generator's output, byte for byte, across changes: the
    /// recorded inject specs of seeds 0..300 under the mixed and the
    /// live-only campaign.
    #[test]
    fn generated_specs_are_pinned() {
        use crate::json::write_json;
        use crate::report::{content_hash, content_hash_seeded};
        let live = CampaignConfig {
            live_only: true,
            ..CampaignConfig::default()
        };
        let mut h = content_hash("");
        for cfg in [CampaignConfig::default(), live] {
            for seed in 0..300 {
                h = content_hash_seeded(h, &write_json(&generate(seed, &cfg).to_json()));
            }
        }
        assert_eq!(h, 0x004e_cd43_7475_0bdf);
    }

    #[test]
    fn from_json_rejects_garbage() {
        use crate::json::{parse_json, Codec};
        let parse = |text: &str| Scenario::from_json(&parse_json(text).unwrap());
        assert!(parse("{}").is_err());
        assert!(parse("{\"schema\": \"other\"}").is_err());
        let sc = generate(3, &CampaignConfig::default());
        let text = crate::json::write_json(&sc.to_json());
        // Exactly one version is read: neither older nor newer specs.
        for v in [1, 999] {
            let wrong_version = text.replace("\"version\":2", &format!("\"version\":{v}"));
            assert!(parse(&wrong_version).is_err());
        }
        let wrong_backend = text.replace(&format!("\"{}\"", sc.backend.name()), "\"raid60\"");
        assert!(parse(&wrong_backend).is_err());
        let no_backend = text.replace(&format!("\"backend\":\"{}\",\n", sc.backend.name()), "");
        assert!(parse(&no_backend).is_err());
        // Timing fractions must be finite and non-negative.
        for bad in [-0.5, f64::INFINITY, f64::NAN] {
            let mut wrong = sc.clone();
            wrong.faults[0].interval_fraction = bad;
            assert!(Scenario::from_json(&wrong.to_json()).is_err(), "{bad}");
            wrong = sc.clone();
            wrong.faults[0].detection_fraction = bad;
            assert!(Scenario::from_json(&wrong.to_json()).is_err(), "{bad}");
        }
        let recorded = format!("\"detection_fraction\":{}", sc.faults[0].detection_fraction);
        let huge = text.replacen(&recorded, "\"detection_fraction\":1e400", 1);
        assert_ne!(huge, text);
        assert!(parse(&huge).unwrap_err().contains("timing fractions"));
    }

    #[test]
    fn shrink_reaches_a_small_fixpoint() {
        // Artificial predicate: "fails" whenever any fault loses node 1.
        // The shrinker should strip everything else away.
        let sc = Scenario {
            seed: 1,
            app: SyntheticKind::WsExceedsL2,
            nodes: 9,
            group_data_pages: 2,
            backend: BackendChoice::Double,
            ops_per_cpu: 60_000,
            faults: vec![
                FaultSpec {
                    after_checkpoint: 3,
                    interval_fraction: 0.8,
                    detection_fraction: 0.8,
                    kind: ErrorKind::CacheWipe,
                    phase: InjectPhase::DuringRecovery,
                    second: Some(ErrorKind::CacheWipe),
                },
                FaultSpec {
                    after_checkpoint: 2,
                    interval_fraction: 0.25,
                    detection_fraction: 0.4,
                    kind: ErrorKind::NodeLoss(NodeSet::from_nodes(&[
                        NodeId(1),
                        NodeId(5),
                        NodeId(7),
                    ])),
                    phase: InjectPhase::CommitEdge(CommitPoint::AfterMark),
                    second: None,
                },
            ],
        };
        let fails = |s: &Scenario| {
            s.faults
                .iter()
                .any(|f| f.kind.lost_nodes().contains(&NodeId(1)))
        };
        assert!(fails(&sc));
        let min = shrink_with(&sc, fails, 1000);
        assert!(fails(&min), "shrinking preserves the failure");
        // The minimized repro must replay under the same backend the
        // failure was found under — a repro that silently reverts to XOR
        // parity could stop reproducing (or reproduce for the wrong
        // reason).
        assert_eq!(min.backend, BackendChoice::Double);
        assert_eq!(min.faults.len(), 1);
        let f = &min.faults[0];
        assert_eq!(f.kind, ErrorKind::NodeLoss(NodeId(1).into()));
        assert_eq!(f.phase, InjectPhase::MidLogging);
        assert_eq!(f.second, None);
        assert_eq!(f.after_checkpoint, 1);
        assert_eq!(f.interval_fraction, 0.5);
        assert_eq!(f.detection_fraction, 0.0);
        assert_eq!(min.ops_per_cpu, 10_000);
    }

    #[test]
    fn experiment_config_respects_the_scenario() {
        for seed in 0..30 {
            let sc = generate(seed, &CampaignConfig::default());
            let cfg = sc.experiment();
            assert_eq!(cfg.machine.nodes, sc.nodes);
            let g = sc.group_data_pages;
            let want = match sc.backend {
                BackendChoice::Xor => ReviveMode::Parity {
                    group_data_pages: g,
                },
                BackendChoice::Double => ReviveMode::DoubleParity {
                    group_data_pages: g - 1,
                },
                BackendChoice::Replication => ReviveMode::Replication { replicas: g },
            };
            assert_eq!(cfg.revive.mode, want, "seed {seed}");
            assert_eq!(cfg.workload, WorkloadSpec::Synthetic(sc.app));
            assert_eq!(cfg.ops_per_cpu, sc.ops_per_cpu);
            assert!(cfg.shadow_checkpoints, "the oracle needs shadows");
        }
    }

    #[test]
    fn generation_sweeps_every_backend_and_crosses_each_budget() {
        let cfg = CampaignConfig::default();
        let scenarios: Vec<Scenario> = (0..300).map(|s| generate(s, &cfg)).collect();
        for b in BackendChoice::ALL {
            assert!(
                scenarios.iter().any(|s| s.backend == b),
                "{} never drawn",
                b.name()
            );
            // Every backend must see at least one multi-node loss strictly
            // over its budget, or the campaign never exercises that
            // backend's unrecoverable classification.
            assert!(
                scenarios
                    .iter()
                    .filter(|s| s.backend == b)
                    .any(|s| s.faults.iter().any(|f| matches!(
                        &f.kind,
                        ErrorKind::NodeLoss(set) | ErrorKind::LiveNodeLoss(set)
                            if set.len() > s.loss_budget()
                    ))),
                "{} never drew an over-budget loss",
                b.name()
            );
        }
    }
}
