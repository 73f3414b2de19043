//! Ablation: parity group size (Section 6.2's trade-off).
//!
//! "We can reduce this requirement by employing larger parity groups.
//! However, doing so slows down recovery and increases the risk of
//! contention in the home of a parity page." This binary sweeps the group
//! size — mirroring (1+1), 3+1, 7+1 (the paper's default), 15+1 — on one
//! write-heavy and one cache-friendly workload, reporting error-free
//! overhead, storage overhead, and the recovery cost of a lost node.

use revive_bench::{banner, overhead_pct, Opts, Table};
use revive_harness::{Args, Sweep, SweepJob};
use revive_machine::{ExperimentConfig, InjectionPlan, ReviveConfig, ReviveMode, WorkloadSpec};
use revive_sim::types::NodeId;
use revive_workloads::AppId;

const APPS: [AppId; 2] = [AppId::Radix, AppId::Lu];
const GROUPS: [usize; 4] = [1, 3, 7, 15];
// Per app: one baseline, then a clean + an injection run per group size.
const PER_APP: usize = 1 + 2 * GROUPS.len();

fn main() {
    let args = Args::parse();
    let opts = Opts::from_args(&args);
    banner(
        "Ablation — parity group size",
        "ReVive (ISCA 2002) Sections 3.2.1, 6.2 (memory vs recovery trade-off)",
        opts,
    );
    let mut jobs = Vec::new();
    for app in APPS {
        let mut base_cfg =
            ExperimentConfig::experiment(WorkloadSpec::Splash(app), ReviveConfig::off());
        base_cfg.ops_per_cpu = opts.ops_per_cpu();
        if let Some(seed) = opts.seed {
            base_cfg.seed = seed;
        }
        jobs.push(SweepJob::new(format!("{}_base", app.name()), base_cfg));
        let interval = opts.injection_interval();
        for g in GROUPS {
            let mut revive = ReviveConfig::parity(interval);
            revive.mode = if g == 1 {
                ReviveMode::Replication { replicas: 1 }
            } else {
                ReviveMode::Parity {
                    group_data_pages: g,
                }
            };
            revive.log_fraction = if g == 1 { 0.5 } else { 0.28 };
            revive.ckpt.retained = 3;
            // Error-free overhead and recovery cost come from separate
            // runs: an injection run's completion time includes the outage.
            let mut cfg = ExperimentConfig::experiment(WorkloadSpec::Splash(app), revive);
            cfg.ops_per_cpu = opts.ops_per_cpu();
            if let Some(seed) = opts.seed {
                cfg.seed = seed;
            }
            jobs.push(SweepJob::new(format!("{}_{g}p1", app.name()), cfg));
            cfg.shadow_checkpoints = true;
            let plan = InjectionPlan::paper_worst_case(interval, NodeId(5));
            jobs.push(SweepJob::with_plans(
                format!("{}_{g}p1_inject", app.name()),
                cfg,
                vec![plan],
            ));
        }
    }
    let outcomes = Sweep::new("ablation_group_size", &args).run_all(jobs);

    for (a, app) in APPS.into_iter().enumerate() {
        println!("--- {} ---", app.name());
        let base = &outcomes[a * PER_APP].result;
        let mut table = Table::new([
            "group",
            "overhead%",
            "storage%",
            "recovery p2+p3",
            "verified",
        ]);
        for (gi, g) in GROUPS.into_iter().enumerate() {
            let clean = &outcomes[a * PER_APP + 1 + gi * 2].result;
            let rec = outcomes[a * PER_APP + 2 + gi * 2]
                .result
                .recovery()
                .expect("recovery ran");
            table.row([
                format!("{g}+1"),
                format!("{:.1}", overhead_pct(clean.sim_time, base.sim_time)),
                format!("{:.1}", 100.0 / (g + 1) as f64),
                (rec.report.phase2 + rec.report.phase3).to_string(),
                match rec.verified {
                    Some(true) => "exact",
                    Some(false) => "MISMATCH",
                    None => "n/a",
                }
                .to_string(),
            ]);
        }
        table.print();
        println!();
    }
    println!(
        "expected: storage overhead falls as 1/(G+1) while page rebuilds grow\n\
         linearly in G (each reconstruction reads G sibling pages); mirroring\n\
         is the fast/expensive end of the spectrum."
    );
}
