//! Recovery-correctness validation matrix (driver form of the
//! `validate_matrix` integration tests).
//!
//! Sweeps error kinds × injection phases × applications. Each cell runs the
//! workload twice — a clean golden run and an injected-then-recovered run —
//! and checks that the final functional memory is word-for-word identical,
//! that recovery verified against the shadow checkpoint, and that every
//! parity sweep and log round-trip audit came back clean. Exits nonzero if
//! any cell fails.

use revive_bench::{banner, Opts, Table};
use revive_machine::differential::injected_vs_golden;
use revive_machine::{
    CommitPoint, ErrorKind, ExperimentConfig, InjectPhase, InjectionPlan, Runner, WorkloadSpec,
};
use revive_sim::time::Ns;
use revive_sim::types::NodeId;
use revive_workloads::{AppId, SyntheticKind};

const APPS: [SyntheticKind; 2] = [SyntheticKind::WsExceedsL2, SyntheticKind::WsFitsDirty];

fn kinds() -> [ErrorKind; 3] {
    [
        ErrorKind::NodeLoss(NodeId(1).into()),
        ErrorKind::CacheWipe,
        ErrorKind::DirectoryCorrupt,
    ]
}

const PHASES: [InjectPhase; 3] = [
    InjectPhase::MidLogging,
    InjectPhase::CommitEdge(CommitPoint::AfterMark),
    InjectPhase::DuringRecovery,
];

fn main() {
    let opts = Opts::from_env();
    revive_bench::artifacts::init("validate_matrix");
    banner(
        "Recovery-correctness validation matrix",
        "ReVive (ISCA 2002) §4 — rollback must restore exact memory",
        opts,
    );
    let mut table = Table::new([
        "app",
        "error",
        "phase",
        "memory",
        "verify",
        "rolled back",
        "audits",
    ]);
    let mut failures = 0u32;
    for app in APPS {
        let mut cfg = ExperimentConfig::test_small(AppId::Lu);
        cfg.workload = WorkloadSpec::Synthetic(app);
        cfg.ops_per_cpu = if opts.quick { 30_000 } else { 40_000 };
        let interval = cfg.revive.ckpt.interval;
        let (_, golden) = Runner::new(cfg)
            .expect("config")
            .run_to_image()
            .expect("golden run");
        for kind in &kinds() {
            for phase in PHASES {
                let plan = InjectionPlan {
                    after_checkpoint: 2,
                    interval_fraction: 0.4,
                    detection_delay: Ns((interval.0 as f64 * 0.3) as u64),
                    kind: kind.clone(),
                    phase,
                    second: None,
                };
                let (result, diff) = injected_vs_golden(cfg, &[plan], &golden).expect("run");
                revive_bench::artifacts::emit(
                    &format!("{}_{}_{}", app.name(), kind.name(), phase.name()),
                    &cfg,
                    &result,
                );
                let rec = result.recovery.expect("recovery outcome");
                let mem_ok = diff.is_match();
                let ver_ok = rec.verified == Some(true);
                let audits_ok = result.audits.iter().all(|a| a.is_clean());
                let rolled_ok = rec.ops_rolled_back > 0;
                if !(mem_ok && ver_ok && audits_ok && rolled_ok) {
                    failures += 1;
                }
                table.row([
                    app.name().to_string(),
                    kind.name().to_string(),
                    phase.name().to_string(),
                    if mem_ok {
                        "exact".into()
                    } else {
                        format!("DIVERGED ({diff})")
                    },
                    if ver_ok { "ok" } else { "FAILED" }.to_string(),
                    format!("{} ops", rec.ops_rolled_back),
                    if audits_ok {
                        format!("{} clean", result.audits.len())
                    } else {
                        "FAILED".to_string()
                    },
                ]);
            }
            eprintln!("  {} / {} done", app.name(), kind.name());
        }
    }
    table.print();
    println!();
    if failures == 0 {
        println!("all cells passed: exact post-recovery memory, clean audits");
    } else {
        println!("{failures} cell(s) FAILED");
        std::process::exit(1);
    }
}
