//! Multi-node-loss recovery under the pluggable redundancy backends.
//!
//! The XOR backend rebuilds at most one lost node per group; double
//! parity (P+Q over GF(256)) rebuilds any two, and k-replication any k.
//! These tests kill two nodes of the *same* chunk — exactly the case the
//! paper's N+1 parity cannot survive — both scripted (the machine halts
//! at the injection instant) and live (messages in flight, organic
//! detection), and require byte-exact recovery under the richer
//! backends. Losses beyond each backend's budget must still classify as
//! typed unrecoverable outcomes, never panics.

use revive::core::RecoveryError;
use revive::machine::differential::injected_vs_golden;
use revive::machine::{
    ErrorKind, ExperimentConfig, FaultOutcome, InjectPhase, InjectionPlan, NodeSet, ReviveMode,
    Runner, WorkloadSpec,
};
use revive::sim::time::Ns;
use revive::sim::types::NodeId;
use revive::workloads::{AppId, SyntheticKind};

/// A 9-node machine (3×3 torus: three independent chunks, and no pair of
/// node deaths can partition it) under a traffic-heavy private-region
/// synthetic, with the redundancy mode chosen per test.
fn cfg(mode: ReviveMode) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::test_small(AppId::Lu);
    cfg.machine.nodes = 9;
    cfg.revive.mode = mode;
    cfg.workload = WorkloadSpec::Synthetic(SyntheticKind::WsExceedsL2);
    cfg.ops_per_cpu = 30_000;
    cfg
}

/// Chunk 3 on the 9-node machine: one data page, P, and Q per group.
fn double_parity() -> ReviveMode {
    ReviveMode::DoubleParity {
        group_data_pages: 1,
    }
}

/// Chunk 3 on the 9-node machine: each primary keeps two replicas.
fn replication() -> ReviveMode {
    ReviveMode::Replication { replicas: 2 }
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

/// Nodes 1 and 2 share the first chunk `{0, 1, 2}` under every chunk-3
/// backend, so their simultaneous death is the canonical beyond-XOR case.
fn same_chunk_pair() -> NodeSet {
    NodeSet::from_nodes(&[NodeId(1), NodeId(2)])
}

/// Runs a scripted (halt-at-injection) simultaneous loss under `mode` and
/// requires byte-exact recovery.
fn scripted_loss_recovers(mode: ReviveMode, lost: NodeSet) {
    let c = cfg(mode);
    let interval = c.revive.ckpt.interval;
    let (_, golden) = Runner::new(c).unwrap().run_to_image().unwrap();
    let p = plan(ErrorKind::NodeLoss(lost), InjectPhase::MidLogging, interval);
    let (result, diff) = injected_vs_golden(c, &[p], &golden).unwrap();
    assert!(diff.is_match(), "memory diverged: {diff}");
    let rec = result.outcomes[0].recovered().expect("within budget");
    assert_ne!(rec.verified, Some(false), "shadow mismatch");
    assert!(rec.report.log_pages_rebuilt > 0, "lost memory was rebuilt");
    assert!(result.audits.iter().all(|a| a.is_clean()), "dirty audit");
}

/// Runs a live (messages in flight, organic detection) simultaneous loss
/// under `mode` and requires byte-exact recovery.
fn live_loss_recovers(mode: ReviveMode, lost: NodeSet) {
    let c = cfg(mode);
    let interval = c.revive.ckpt.interval;
    let (_, golden) = Runner::new(c).unwrap().run_to_image().unwrap();
    let p = plan(
        ErrorKind::LiveNodeLoss(lost),
        InjectPhase::MidLogging,
        interval,
    );
    let (result, diff) = injected_vs_golden(c, &[p], &golden).unwrap();
    assert!(diff.is_match(), "memory diverged: {diff}");
    let rec = result.outcomes[0].recovered().expect("within budget");
    assert_ne!(rec.verified, Some(false), "shadow mismatch");
    assert!(rec.report.log_pages_rebuilt > 0, "lost memory was rebuilt");
    assert!(result.audits.iter().all(|a| a.is_clean()), "dirty audit");
}

/// Requires the loss to classify as a typed beyond-budget refusal.
fn loss_is_beyond_budget(mode: ReviveMode, lost: NodeSet) {
    let c = cfg(mode);
    let interval = c.revive.ckpt.interval;
    let p = plan(ErrorKind::NodeLoss(lost), InjectPhase::MidLogging, interval);
    let result = Runner::new(c).unwrap().run_with_injections(&[p]).unwrap();
    match &result.outcomes[0] {
        FaultOutcome::Unrecoverable { error, .. } => {
            let reason = error.to_string();
            assert!(
                reason.contains("redundancy budget"),
                "classification should name the budget: {reason}"
            );
        }
        other => panic!("expected an unrecoverable classification, got {other:?}"),
    }
    assert!(result.recoveries.is_empty());
}

/// Double parity survives a scripted same-chunk double loss: both nodes
/// are rebuilt from P+Q and the final memory matches a clean run.
#[test]
fn double_parity_scripted_two_node_loss_recovers_exactly() {
    scripted_loss_recovers(double_parity(), same_chunk_pair());
}

/// The same double loss struck *live*: survivors keep running, watchdogs
/// detect, and recovery is still byte-exact.
#[test]
fn double_parity_live_two_node_loss_recovers_exactly() {
    live_loss_recovers(double_parity(), same_chunk_pair());
}

/// k=2 replication survives the scripted same-chunk double loss (each
/// lost page has a surviving replica).
#[test]
fn replication_scripted_two_node_loss_recovers_exactly() {
    scripted_loss_recovers(replication(), same_chunk_pair());
}

/// The same double loss struck live under k=2 replication.
#[test]
fn replication_live_two_node_loss_recovers_exactly() {
    live_loss_recovers(replication(), same_chunk_pair());
}

/// Losing an entire chunk (three nodes) exceeds double parity's budget of
/// two: the machine must refuse with the typed classification.
#[test]
fn double_parity_three_node_loss_is_unrecoverable() {
    loss_is_beyond_budget(
        double_parity(),
        NodeSet::from_nodes(&[NodeId(0), NodeId(1), NodeId(2)]),
    );
}

/// The whole-chunk loss equally exceeds k=2 replication (primary and both
/// replicas are gone).
#[test]
fn replication_three_node_loss_is_unrecoverable() {
    loss_is_beyond_budget(
        replication(),
        NodeSet::from_nodes(&[NodeId(0), NodeId(1), NodeId(2)]),
    );
}

/// A fault detected after the rollback target's logs were reclaimed is a
/// typed refusal, not a panic. Value-logging backends make this easy to
/// hit: replication's log pressure forces early checkpoints during the
/// detection window, and with a short retention window the commits march
/// past the target before detection fires (paper §3.1.2 — recoverability
/// assumes detection latency bounded by the retained-checkpoint window).
#[test]
fn late_detection_past_the_retention_window_is_unrecoverable() {
    let mut c = cfg(replication());
    c.revive.ckpt.retained = 2;
    let interval = c.revive.ckpt.interval;
    let p = InjectionPlan {
        after_checkpoint: 2,
        interval_fraction: 0.4,
        detection_delay: Ns(interval.0 * 8),
        kind: ErrorKind::NodeLoss(NodeId(1).into()),
        phase: InjectPhase::MidLogging,
        second: None,
    };
    let result = Runner::new(c).unwrap().run_with_injections(&[p]).unwrap();
    match &result.outcomes[0] {
        FaultOutcome::Unrecoverable { error, .. } => {
            let reason = error.to_string();
            assert!(
                reason.contains("detected too late"),
                "classification should name the stale target: {reason}"
            );
        }
        other => panic!("expected an unrecoverable classification, got {other:?}"),
    }
    assert!(result.recoveries.is_empty());
}

/// The retention window at its edge: a fault detected after `retained - 1`
/// commits rolls back exactly, and one detected after exactly `retained`
/// commits is refused — the commit that completes the window frees the
/// target interval's log records, and the tail may overwrite them before
/// detection.
#[test]
fn detection_after_exactly_retained_commits_is_refused() {
    let mut c = cfg(ReviveMode::Parity {
        group_data_pages: 2,
    });
    c.revive.ckpt.retained = 2;
    let interval = c.revive.ckpt.interval;
    let run = |commits: u64| {
        let p = InjectionPlan {
            after_checkpoint: 2,
            interval_fraction: 0.4,
            detection_delay: Ns(interval.0 * commits),
            kind: ErrorKind::NodeLoss(NodeId(1).into()),
            phase: InjectPhase::MidLogging,
            second: None,
        };
        let result = Runner::new(c).unwrap().run_with_injections(&[p]);
        result.unwrap().outcomes.remove(0)
    };
    match run(c.revive.ckpt.retained - 1) {
        FaultOutcome::Recovered(rec) => assert_eq!(rec.verified, Some(true)),
        other => panic!("inside the window: expected recovery, got {other:?}"),
    }
    match run(c.revive.ckpt.retained) {
        FaultOutcome::Unrecoverable {
            error: RecoveryError::TargetReclaimed { target, oldest },
            ..
        } => assert_eq!(oldest, target + 1, "detected exactly at the edge"),
        other => panic!("at the edge: expected a refusal, got {other:?}"),
    }
}

/// Regression: the richer backends must not have loosened XOR parity —
/// a same-chunk double loss is still beyond its budget of one.
#[test]
fn xor_two_node_same_chunk_loss_stays_unrecoverable() {
    loss_is_beyond_budget(
        ReviveMode::Parity {
            group_data_pages: 2,
        },
        same_chunk_pair(),
    );
}
