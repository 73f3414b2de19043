//! The recovery-correctness injection matrix.
//!
//! Each case runs a workload twice — a clean golden run and a run that
//! suffers an injected error and recovers — and asserts that the final
//! functional memory is word-for-word identical, that recovery verified
//! against the shadow checkpoint, and that every validation audit (parity
//! sweeps at each commit and after recovery, log round-trips against the
//! software shadow) came back clean.
//!
//! The matrix sweeps error kinds × injection phases × applications. The
//! applications are the private-region synthetics: their per-CPU streams
//! are deterministic and their regions disjoint, so a clean run's final
//! memory is a well-defined oracle. (Shared-region workloads race by
//! design — cross-CPU store order is timing, not semantics — so exact
//! memory equality is not their correctness criterion.)

use revive::machine::differential::injected_vs_golden;
use revive::machine::{
    CommitPoint, ErrorKind, ExperimentConfig, InjectPhase, InjectionPlan, Runner, WorkloadSpec,
};
use revive::sim::time::Ns;
use revive::sim::types::NodeId;
use revive::workloads::{AppId, SyntheticKind};

const APPS: [SyntheticKind; 2] = [SyntheticKind::WsExceedsL2, SyntheticKind::WsFitsDirty];

fn kinds() -> [ErrorKind; 3] {
    [
        ErrorKind::NodeLoss(NodeId(1).into()),
        ErrorKind::CacheWipe,
        ErrorKind::DirectoryCorrupt,
    ]
}

fn cfg(app: SyntheticKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::test_small(AppId::Lu);
    cfg.workload = WorkloadSpec::Synthetic(app);
    cfg.ops_per_cpu = 40_000;
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

fn run_matrix_phase(phase: InjectPhase) {
    for app in APPS {
        let c = cfg(app);
        let interval = c.revive.ckpt.interval;
        let (_, golden_image) = Runner::new(c).unwrap().run_to_image().unwrap();
        for kind in kinds() {
            let label = format!("{app}/{}/{}", kind.name(), phase.name());
            let (result, diff) =
                injected_vs_golden(c, &[plan(kind, phase, interval)], &golden_image).unwrap();
            let rec = result
                .recovery()
                .unwrap_or_else(|| panic!("{label}: no recovery"));
            assert!(
                diff.is_match(),
                "{label}: post-recovery memory diverges from golden run: {diff}"
            );
            assert_eq!(
                rec.verified,
                Some(true),
                "{label}: shadow verification failed"
            );
            assert!(
                rec.ops_rolled_back > 0,
                "{label}: rollback discarded no work"
            );
            assert!(!result.audits.is_empty(), "{label}: no audits ran");
            for audit in &result.audits {
                assert!(audit.is_clean(), "{label}: audit failed: {audit}");
            }
        }
    }
}

#[test]
fn matrix_mid_logging() {
    run_matrix_phase(InjectPhase::MidLogging);
}

#[test]
fn matrix_commit_window() {
    run_matrix_phase(InjectPhase::CommitEdge(CommitPoint::AfterMark));
}

#[test]
fn matrix_during_recovery() {
    run_matrix_phase(InjectPhase::DuringRecovery);
}
