//! Table 2: how application behavior and checkpoint frequency determine
//! ReVive's error-free overhead.
//!
//! The paper's matrix:
//!
//! | working set              | high ckpt freq | low ckpt freq |
//! |--------------------------|----------------|---------------|
//! | does not fit in L2       | High           | High          |
//! | fits in L2, mostly dirty | High           | Low           |
//! | fits in L2, mostly clean | Medium         | Low           |
//!
//! Reproduced with the three synthetic corner workloads at a high
//! checkpoint frequency (1/4 of the standard interval) and a low one (4×
//! the standard interval).

use revive_bench::{banner, fig_job, overhead_pct, FigConfig, Opts, Table, CP_INTERVAL};
use revive_harness::{Args, Sweep, SweepJob};
use revive_machine::{ExperimentConfig, ReviveConfig, WorkloadSpec};
use revive_sim::time::Ns;
use revive_workloads::SyntheticKind;

fn job_at(kind: SyntheticKind, revive: ReviveConfig, opts: Opts, label: &str) -> SweepJob {
    let mut cfg = ExperimentConfig::experiment(WorkloadSpec::Synthetic(kind), revive);
    cfg.ops_per_cpu = opts.ops_per_cpu() / 2;
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    SweepJob::new(format!("{}_{label}", kind.name()), cfg)
}

fn main() {
    let args = Args::parse();
    let opts = Opts::from_args(&args);
    banner(
        "Table 2 — overhead vs working set and checkpoint frequency",
        "ReVive (ISCA 2002) Table 2",
        opts,
    );
    let high = Ns(CP_INTERVAL.0 / 4);
    let low = Ns(CP_INTERVAL.0 * 4);
    let corners = [
        (SyntheticKind::WsExceedsL2, "High / High"),
        (SyntheticKind::WsFitsDirty, "High / Low"),
        (SyntheticKind::WsFitsClean, "Medium / Low"),
    ];
    let mut jobs = Vec::new();
    for (kind, _) in corners {
        jobs.push(job_at(kind, FigConfig::Baseline.revive(), opts, "base"));
        let mut revive_high = ReviveConfig::parity(high);
        revive_high.log_fraction = 0.25;
        jobs.push(job_at(kind, revive_high, opts, "high_freq"));
        let mut revive_low = ReviveConfig::parity(low);
        revive_low.log_fraction = 0.25;
        jobs.push(job_at(kind, revive_low, opts, "low_freq"));
    }
    // Also exercise the protocol stressor so Table 2 runs double as a
    // high-contention smoke test.
    jobs.push(fig_job(
        WorkloadSpec::Synthetic(SyntheticKind::Uniform),
        FigConfig::Cp,
        Opts {
            quick: true,
            ..opts
        },
    ));
    let outcomes = Sweep::new("table2_matrix", &args).run_all(jobs);

    let mut table = Table::new(["working set", "high freq %", "low freq %", "paper"]);
    for (i, (kind, paper)) in corners.into_iter().enumerate() {
        let base = outcomes[i * 3].result.sim_time;
        let t_high = outcomes[i * 3 + 1].result.sim_time;
        let t_low = outcomes[i * 3 + 2].result.sim_time;
        table.row([
            kind.name().to_string(),
            format!("{:.1}", overhead_pct(t_high, base)),
            format!("{:.1}", overhead_pct(t_low, base)),
            paper.to_string(),
        ]);
    }
    table.print();
    println!();
    println!(
        "shape checks: the streaming corner stays expensive at both\n\
         frequencies (parity tracks write-backs, not checkpoints); the dirty\n\
         corner's cost collapses when checkpoints become rare; the clean\n\
         corner is cheap except for the checkpoint interrupts themselves."
    );
    println!("(uniform-random stressor completed)");
}
