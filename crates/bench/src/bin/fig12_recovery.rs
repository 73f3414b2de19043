//! Figures 7 and 12: recovery from a worst-case node loss.
//!
//! The paper's Section 6.3 scenario: the error strikes just before a
//! checkpoint would be established and is detected one detection-latency
//! later, maximizing both lost work and recovery time. For each
//! application this binary injects that error, runs the four-phase
//! recovery, verifies the restored memory is value-exact, and prints the
//! unavailable-time breakdown (Figure 12) plus the Figure 7 time-line for
//! the slowest application. Paper numbers at the real 100 ms interval:
//! Phase 2+3 up to 590 ms (Radix), 170 ms on average; 820 ms / 400 ms total
//! unavailable including lost work and hardware recovery.

use revive_bench::{banner, Opts, Table};
use revive_harness::{Args, Sweep, SweepJob};
use revive_machine::{ExperimentConfig, InjectionPlan, WorkloadSpec};
use revive_sim::time::Ns;
use revive_sim::types::NodeId;
use revive_workloads::AppId;

fn main() {
    let args = Args::parse();
    let opts = Opts::from_args(&args);
    banner(
        "Figure 12 — unavailable time after a worst-case node loss",
        "ReVive (ISCA 2002) Figures 7 and 12, Section 6.3",
        opts,
    );
    let interval = opts.injection_interval();
    let jobs = AppId::ALL
        .into_iter()
        .map(|app| {
            let mut cfg = ExperimentConfig::experiment(
                WorkloadSpec::Splash(app),
                revive_bench::FigConfig::Cp.revive(),
            );
            cfg.revive.ckpt.interval = interval;
            cfg.ops_per_cpu = opts.ops_per_cpu();
            if let Some(seed) = opts.seed {
                cfg.seed = seed;
            }
            cfg.shadow_checkpoints = true;
            let plan = InjectionPlan::paper_worst_case(interval, NodeId(5));
            SweepJob::with_plans(format!("{}_node_loss", app.name()), cfg, vec![plan])
        })
        .collect();
    let outcomes = Sweep::new("fig12_recovery", &args).run_all(jobs);

    let mut table = Table::new([
        "app",
        "lost work",
        "phase2",
        "phase3",
        "p2+p3",
        "phase4(bg)",
        "replays",
        "verified",
    ]);
    let mut worst: Option<(AppId, revive_machine::RecoveryOutcome)> = None;
    let mut sum_p23 = Ns::ZERO;
    for (app, outcome) in AppId::ALL.into_iter().zip(&outcomes) {
        let rec = outcome.result.recovery().expect("recovery ran");
        let p23 = rec.report.phase2 + rec.report.phase3;
        sum_p23 += p23;
        table.row([
            app.name().to_string(),
            rec.lost_work.to_string(),
            rec.report.phase2.to_string(),
            rec.report.phase3.to_string(),
            p23.to_string(),
            rec.report.phase4.to_string(),
            rec.report.entries_replayed.to_string(),
            match rec.verified {
                Some(true) => "exact".to_string(),
                Some(false) => "MISMATCH".to_string(),
                None => "n/a".to_string(),
            },
        ]);
        if worst
            .as_ref()
            .map(|(_, w)| p23 > w.report.phase2 + w.report.phase3)
            .unwrap_or(true)
        {
            worst = Some((app, rec));
        }
    }
    let mean_p23 = sum_p23 / AppId::ALL.len() as u64;
    table.row([
        "MEAN p2+p3".to_string(),
        String::new(),
        String::new(),
        String::new(),
        mean_p23.to_string(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    table.print();
    println!();
    println!(
        "paper (at its Cp10ms scale): worst p2+p3 = 59 ms (radix), mean = 17 ms;\n\
         x10 at the real 100 ms interval. Scale factor here: interval = {interval}."
    );
    if let Some((app, rec)) = worst {
        println!();
        println!("--- Figure 7 time-line (worst case: {}) ---", app.name());
        println!("phase 1 (hw recovery, fixed)     : {}", rec.report.phase1);
        println!("phase 2 (rebuild lost logs)      : {}", rec.report.phase2);
        println!("phase 3 (rollback via logs)      : {}", rec.report.phase3);
        println!("lost work (ckpt..detection)      : {}", rec.lost_work);
        println!("=> machine unavailable           : {}", rec.unavailable);
        println!(
            "phase 4 (background rebuild)     : {} ({} pages)",
            rec.report.phase4, rec.report.pages_rebuilt_background
        );
    }
}
