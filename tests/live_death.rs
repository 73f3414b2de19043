//! Live fabric faults end to end: a node (or link) dies *mid-run* with
//! messages in flight — nothing halts the machine at the injection
//! instant. The survivors keep executing, transaction watchdogs retry the
//! dropped messages with exponential backoff, sends reroute around the
//! dead components, and detection is organic (watchdog strikes, a
//! checkpoint barrier hung on the dead participant, or the heartbeat
//! backstop). Recovery must then produce memory identical to a clean run.

use revive::machine::campaign::{generate, run_scenario, CampaignConfig, ScenarioReport};
use revive::machine::differential::injected_vs_golden;
use revive::machine::{
    CommitPoint, ErrorKind, ExperimentConfig, FaultOutcome, InjectPhase, InjectionPlan, NodeSet,
    ObsConfig, ReviveMode, Runner, ScenarioOutcome, WorkloadSpec,
};
use revive::sim::time::Ns;
use revive::sim::trace::TraceEvent;
use revive::sim::types::NodeId;
use revive::workloads::{AppId, SyntheticKind};

/// A small 4-node parity machine under a traffic-heavy synthetic (the
/// exact-memory oracle's domain), with tracing on so the fault-fabric
/// events (msg_drop / watchdog_timeout / retry / reroute) are observable.
fn cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::test_small(AppId::Lu);
    cfg.revive.mode = ReviveMode::Parity {
        group_data_pages: 3,
    };
    cfg.workload = WorkloadSpec::Synthetic(SyntheticKind::WsExceedsL2);
    cfg.ops_per_cpu = 30_000;
    cfg.obs = ObsConfig {
        trace_capacity: 16 * 1024,
        epoch_us: 0,
    };
    cfg
}

fn plan(kind: ErrorKind, phase: InjectPhase, interval: Ns) -> InjectionPlan {
    InjectionPlan {
        after_checkpoint: 2,
        interval_fraction: 0.4,
        detection_delay: Ns((interval.0 as f64 * 0.3) as u64),
        kind,
        phase,
        second: None,
    }
}

fn count(result: &revive::machine::RunResult, kind: &str) -> u64 {
    let i = TraceEvent::KIND_NAMES
        .iter()
        .position(|n| *n == kind)
        .unwrap();
    result.trace.summary().counts[i]
}

/// The headline scenario: a node dies mid-interval while write-backs and
/// coherence messages are in flight to and from it. In-flight messages
/// crossing the dead router are dropped (traced), detection is organic,
/// and the recovered machine's final memory matches a clean run exactly.
#[test]
fn live_node_death_mid_logging_recovers_exactly() {
    let c = cfg();
    let interval = c.revive.ckpt.interval;
    let (_, golden) = Runner::new(c).unwrap().run_to_image().unwrap();
    let p = plan(
        ErrorKind::LiveNodeLoss(NodeId(1).into()),
        InjectPhase::MidLogging,
        interval,
    );
    let (result, diff) = injected_vs_golden(c, &[p], &golden).unwrap();
    assert!(diff.is_match(), "memory diverged: {diff}");
    let rec = result.outcomes[0].recovered().expect("recovered");
    assert_ne!(rec.verified, Some(false), "shadow mismatch");
    assert!(rec.report.log_pages_rebuilt > 0, "node memory was rebuilt");
    assert!(result.audits.iter().all(|a| a.is_clean()), "dirty audit");
    // The fault was *live*: messages in flight at the sever (or sent at
    // the dead node afterwards) were actually dropped and traced.
    assert!(count(&result, "msg_drop") > 0, "no in-flight message died");
    // Detection came from the machine, not a script: the watchdog struck
    // out against the dead node (or the hung-barrier check fired).
    assert!(
        count(&result, "watchdog_timeout") > 0,
        "no watchdog timeouts despite a dead node"
    );
}

/// Death exactly inside the two-phase commit: the flush completed, barrier
/// 1 passed, and the victim dies before any log is marked. The barrier can
/// never complete — the watchdog's hung-barrier check unsticks it, and the
/// machine rolls back to the previous checkpoint.
#[test]
fn live_death_during_2pc_barrier_recovers_exactly() {
    let c = cfg();
    let interval = c.revive.ckpt.interval;
    let (_, golden) = Runner::new(c).unwrap().run_to_image().unwrap();
    let p = plan(
        ErrorKind::LiveNodeLoss(NodeId(2).into()),
        InjectPhase::CommitEdge(CommitPoint::AfterMark),
        interval,
    );
    let (result, diff) = injected_vs_golden(c, &[p], &golden).unwrap();
    assert!(diff.is_match(), "memory diverged: {diff}");
    let rec = result.outcomes[0].recovered().expect("recovered");
    assert_ne!(rec.verified, Some(false), "shadow mismatch");
    // The interrupted checkpoint 3 never committed: the sever-time
    // snapshot pins the rollback to checkpoint 2.
    assert_eq!(rec.target_interval, 2);
    assert!(result.audits.iter().all(|a| a.is_clean()), "dirty audit");
}

/// Every strike traces exactly one `inject` event, whether an event
/// delivered it mid-interval or the commit edge it was armed on did.
#[test]
fn every_strike_traces_one_inject_event() {
    let c = cfg();
    let interval = c.revive.ckpt.interval;
    for phase in [
        InjectPhase::MidLogging,
        InjectPhase::CommitEdge(CommitPoint::AfterMark),
    ] {
        let p = plan(ErrorKind::NodeLoss(NodeId(1).into()), phase, interval);
        let result = Runner::new(c).unwrap().run_with_injections(&[p]).unwrap();
        assert!(result.outcomes[0].recovered().is_some(), "{phase:?}");
        assert_eq!(count(&result, "inject"), 1, "{phase:?}");
    }
}

/// A severed link (both directions between one adjacent pair): no memory
/// is damaged, sends reroute around the cut, watchdogs re-deliver the
/// messages that died on it, and recovery is a pure rollback.
#[test]
fn link_loss_reroutes_and_recovers() {
    let c = cfg();
    let interval = c.revive.ckpt.interval;
    let (_, golden) = Runner::new(c).unwrap().run_to_image().unwrap();
    let p = plan(
        ErrorKind::LinkLoss {
            a: NodeId(0),
            b: NodeId(1),
        },
        InjectPhase::MidLogging,
        interval,
    );
    let (result, diff) = injected_vs_golden(c, &[p], &golden).unwrap();
    assert!(diff.is_match(), "memory diverged: {diff}");
    let rec = result.outcomes[0].recovered().expect("recovered");
    assert_ne!(rec.verified, Some(false), "shadow mismatch");
    // No node died, so nothing was reconstructed from parity.
    assert_eq!(rec.report.log_pages_rebuilt, 0);
    // The cut was actually routed around.
    assert!(count(&result, "reroute") > 0, "no send took a detour");
}

/// Dropped messages whose sender survived must come back: the per-class
/// retry counters record each successful watchdog re-delivery and its
/// drop-to-redelivery latency.
#[test]
fn watchdog_retries_are_counted_per_class() {
    let c = cfg();
    let interval = c.revive.ckpt.interval;
    let p = plan(
        ErrorKind::LinkLoss {
            a: NodeId(1),
            b: NodeId(3),
        },
        InjectPhase::MidLogging,
        interval,
    );
    let result = Runner::new(c).unwrap().run_with_injections(&[p]).unwrap();
    assert!(result.outcomes[0].recovered().is_some());
    let retries = result.metrics.traffic.retry_msgs_total();
    assert_eq!(count(&result, "retry"), retries);
    if retries > 0 {
        let hist_total: u64 = revive::machine::TrafficClass::ALL
            .iter()
            .map(|&cl| result.metrics.retry_latency_hist(cl).total())
            .sum();
        assert_eq!(hist_total, retries, "latency histogram disagrees");
    }
}

/// Killing both torus neighbors of a corner node on the 2×2 machine
/// isolates it from the remaining survivor: recovery must refuse with the
/// typed partition classification, not panic or hang.
#[test]
fn live_partition_is_classified_unrecoverable() {
    let c = cfg();
    let interval = c.revive.ckpt.interval;
    let p = plan(
        ErrorKind::LiveNodeLoss(NodeSet::from_nodes(&[NodeId(1), NodeId(2)])),
        InjectPhase::MidLogging,
        interval,
    );
    let result = Runner::new(c).unwrap().run_with_injections(&[p]).unwrap();
    match &result.outcomes[0] {
        FaultOutcome::Unrecoverable { error, .. } => {
            let reason = error.to_string();
            assert!(
                reason.contains("partition"),
                "classification should name the partition: {reason}"
            );
        }
        other => panic!("expected unrecoverable, got {other:?}"),
    }
    assert!(result.recoveries.is_empty());
}

/// A live kind cannot strike mid-recovery (the machine is halted then —
/// there is no live fabric to sever) and cannot be the second fault.
#[test]
fn live_kinds_rejected_in_recovery_phase() {
    let c = cfg();
    let interval = c.revive.ckpt.interval;
    let p = plan(
        ErrorKind::LiveNodeLoss(NodeId(1).into()),
        InjectPhase::DuringRecovery,
        interval,
    );
    assert!(Runner::new(c).unwrap().run_with_injections(&[p]).is_err());
    let p2 = InjectionPlan {
        second: Some(ErrorKind::LiveNodeLoss(NodeId(2).into())),
        ..plan(
            ErrorKind::NodeLoss(NodeId(1).into()),
            InjectPhase::DuringRecovery,
            interval,
        )
    };
    assert!(Runner::new(c).unwrap().run_with_injections(&[p2]).is_err());
}

/// A non-neighbor pair is not a torus link. On the 2×2 torus nodes 0 and
/// 3 sit on the diagonal (two hops apart), so severing "their link" is a
/// configuration error, not a fault.
#[test]
fn link_loss_requires_torus_neighbors() {
    let c = cfg();
    let interval = c.revive.ckpt.interval;
    let p = plan(
        ErrorKind::LinkLoss {
            a: NodeId(0),
            b: NodeId(3),
        },
        InjectPhase::MidLogging,
        interval,
    );
    assert!(Runner::new(c).unwrap().run_with_injections(&[p]).is_err());
}

/// The acceptance sweep: 25 seeds of the live-only campaign (live node
/// death, live multi-node death, link loss — including 2PC-edge timings).
/// Every scenario must classify as Recovered (oracle-verified) or as a
/// correctly typed Unrecoverable (parity budget or partition) — zero
/// panics, zero hangs, zero oracle mismatches.
#[test]
fn live_campaign_sweep_classifies_every_seed() {
    // The smallest budget, in steps of 100 ops, at which every seed's
    // plan fires: below it the run can end before the plan's checkpoint
    // count, and a `not fired` seed tests nothing.
    let gen = CampaignConfig {
        ops_per_cpu: 39_900,
        live_only: true,
        ..CampaignConfig::default()
    };
    // Each seed's outcome and the classifying run's `(sim_time ns,
    // events)`, so a change to the sever, the watchdogs or the rollback
    // target shows up here even when the oracle still matches.
    let pinned: [(&str, Option<(u64, u64)>); 25] = [
        (
            "recovered (1 recoveries, 50.031ms unavailable, oracle match, shadow ok, audits clean)",
            Some((58_759_373, 3_249_995)),
        ),
        (
            "recovered (1 recoveries, 50.015ms unavailable, oracle match, shadow ok, audits clean)",
            Some((57_454_292, 3_146_566)),
        ),
        (
            "recovered (1 recoveries, 50.027ms unavailable, oracle match, shadow ok, audits clean)",
            Some((50_669_882, 23_034)),
        ),
        (
            "recovered (2 recoveries, 100.384ms unavailable, oracle match, shadow ok, audits clean)",
            Some((101_047_280, 43_671)),
        ),
        (
            "recovered (1 recoveries, 50.088ms unavailable, oracle match, shadow ok, audits clean)",
            Some((55_141_417, 2_324_565)),
        ),
        (
            "unrecoverable: losing nodes {n0, n1, n3} exceeds the redundancy budget: the group \
             of P0x0 has more lost members than the backend can rebuild",
            Some((378_960, 7_813)),
        ),
        (
            "unrecoverable: losing nodes {n0, n1} exceeds the redundancy budget: the group \
             of P0x0 has more lost members than the backend can rebuild",
            Some((282_185, 89_780)),
        ),
        (
            "recovered (1 recoveries, 50.147ms unavailable, oracle match, shadow ok, audits clean)",
            Some((58_622_193, 3_284_854)),
        ),
        (
            "recovered (1 recoveries, 50.131ms unavailable, oracle match, shadow ok, audits clean)",
            Some((50_791_529, 25_032)),
        ),
        (
            "unrecoverable: losing nodes {n0, n6, n7} exceeds the redundancy budget: the group \
             of P0x600 has more lost members than the backend can rebuild",
            Some((364_811, 14_515)),
        ),
        (
            "recovered (1 recoveries, 50.189ms unavailable, oracle match, shadow ok, audits clean)",
            Some((58_972_969, 1_500_905)),
        ),
        (
            "recovered (2 recoveries, 100.375ms unavailable, oracle match, shadow ok, audits clean)",
            Some((101_027_949, 16_196)),
        ),
        (
            "recovered (1 recoveries, 50.024ms unavailable, oracle match, shadow ok, audits clean)",
            Some((59_138_157, 3_289_759)),
        ),
        (
            "recovered (1 recoveries, 50.044ms unavailable, oracle match, shadow ok, audits clean)",
            Some((59_852_385, 3_365_947)),
        ),
        (
            "recovered (2 recoveries, 100.288ms unavailable, oracle match, shadow ok, audits clean)",
            Some((100_958_055, 53_155)),
        ),
        (
            "recovered (1 recoveries, 50.149ms unavailable, oracle match, shadow ok, audits clean)",
            Some((57_668_077, 2_519_930)),
        ),
        (
            "recovered (1 recoveries, 50.119ms unavailable, oracle match, shadow ok, audits clean)",
            Some((59_707_317, 3_384_099)),
        ),
        (
            "recovered (1 recoveries, 50.050ms unavailable, oracle match, shadow ok, audits clean)",
            Some((55_532_174, 2_395_500)),
        ),
        (
            "recovered (1 recoveries, 50.002ms unavailable, oracle match, shadow ok, audits clean)",
            Some((57_570_021, 3_150_562)),
        ),
        (
            "recovered (2 recoveries, 100.388ms unavailable, oracle match, shadow ok, audits clean)",
            Some((112_856_935, 1_886_504)),
        ),
        (
            "recovered (1 recoveries, 50.394ms unavailable, oracle match, shadow ok, audits clean)",
            Some((55_943_635, 1_091_450)),
        ),
        (
            "recovered (2 recoveries, 100.190ms unavailable, oracle match, shadow ok, audits clean)",
            Some((100_834_836, 19_959)),
        ),
        (
            "unrecoverable: losing nodes {n3, n4, n5} exceeds the redundancy budget: the group \
             of P0x300 has more lost members than the backend can rebuild",
            Some((261_712, 179_151)),
        ),
        (
            "unrecoverable: losing nodes {n0, n2, n3} exceeds the redundancy budget: the group \
             of P0x0 has more lost members than the backend can rebuild",
            Some((51_167_378, 256_964)),
        ),
        (
            "recovered (2 recoveries, 100.538ms unavailable, oracle match, shadow ok, audits clean)",
            Some((106_259_696, 2_560_112)),
        ),
    ];
    // Two workers take every other seed; the reports are checked in seed
    // order.
    let gen = &gen;
    let mut reports: Vec<(u64, ScenarioReport)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2u64)
            .map(|first| {
                scope.spawn(move || {
                    (first..25)
                        .step_by(2)
                        .map(|seed| (seed, run_scenario(&generate(seed, gen))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("run_scenario catches panics"))
            .collect()
    });
    reports.sort_by_key(|&(seed, _)| seed);
    let mut recovered = 0usize;
    for ((seed, report), (outcome, run)) in reports.into_iter().zip(pinned) {
        assert!(
            report.scenario.faults.iter().all(|f| f.kind.is_live()),
            "seed {seed}: non-live kind in a live-only campaign"
        );
        assert!(
            !report.is_failure(),
            "seed {seed} failed: {}",
            report.outcome
        );
        assert_eq!(report.outcome.to_string(), outcome, "seed {seed}");
        let got = report.result.as_ref().map(|r| (r.sim_time.0, r.events));
        assert_eq!(got, run, "seed {seed}: the classifying run");
        match &report.outcome {
            ScenarioOutcome::Recovered { oracle_match, .. } => {
                assert!(oracle_match, "seed {seed}: oracle diverged");
                recovered += 1;
            }
            ScenarioOutcome::Unrecoverable { reason, .. } => {
                assert!(
                    reason.contains("redundancy budget") || reason.contains("partition"),
                    "seed {seed}: unexpected classification: {reason}"
                );
            }
            _ => {}
        }
    }
    assert!(recovered >= 5, "only {recovered}/25 seeds recovered");
}
