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
use revive_harness::{Args, Sweep};
use revive_machine::differential::injected_vs_golden;
use revive_machine::{
    CommitPoint, ErrorKind, ExperimentConfig, InjectPhase, InjectionPlan, RunMeta, Runner,
    WorkloadSpec,
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

fn config(app: SyntheticKind, opts: Opts) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::test_small(AppId::Lu);
    cfg.workload = WorkloadSpec::Synthetic(app);
    cfg.ops_per_cpu = if opts.quick { 30_000 } else { 40_000 };
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    cfg
}

fn main() {
    let args = Args::parse();
    let opts = Opts::from_args(&args);
    banner(
        "Recovery-correctness validation matrix",
        "ReVive (ISCA 2002) §4 — rollback must restore exact memory",
        opts,
    );
    let sweep = Sweep::new("validate_matrix", &args);
    let golden_jobs = APPS
        .into_iter()
        .map(|app| {
            let cfg = config(app, opts);
            (format!("{}_golden", app.name()), move || {
                let runner = Runner::new(cfg).expect("config");
                runner.run_to_image().expect("golden run").1
            })
        })
        .collect();
    let goldens = sweep.map(golden_jobs);

    let mut cells = Vec::new();
    for (app, golden) in APPS.into_iter().zip(&goldens) {
        for kind in kinds() {
            for phase in PHASES {
                cells.push((app, kind.clone(), phase, golden));
            }
        }
    }
    let sweep = &sweep;
    let jobs = cells
        .iter()
        .map(|&(app, ref kind, phase, golden)| {
            let label = format!("{}_{}_{}", app.name(), kind.name(), phase.name());
            (label.clone(), move || {
                let cfg = config(app, opts);
                let plans = [InjectionPlan {
                    after_checkpoint: 2,
                    interval_fraction: 0.4,
                    detection_delay: Ns((cfg.revive.ckpt.interval.0 as f64 * 0.3) as u64),
                    kind: kind.clone(),
                    phase,
                    second: None,
                }];
                let (result, diff) = injected_vs_golden(cfg, &plans, golden).expect("run");
                let meta = RunMeta::from_config(&label, &cfg).with_injections(&plans);
                sweep.emit(&meta, &result);
                (result, diff)
            })
        })
        .collect();
    let runs = sweep.map(jobs);

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
    for ((app, kind, phase, _), (result, diff)) in cells.iter().zip(runs) {
        let rec = result.recovery().expect("recovery outcome");
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
    table.print();
    println!();
    if failures == 0 {
        println!("all cells passed: exact post-recovery memory, clean audits");
    } else {
        println!("{failures} cell(s) FAILED");
        std::process::exit(1);
    }
}
