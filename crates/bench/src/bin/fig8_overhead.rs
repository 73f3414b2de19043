//! Figure 8: performance overhead of ReVive in error-free execution.
//!
//! For each of the 12 SPLASH-2 models, runs the baseline machine and the
//! four ReVive configurations (parity/mirroring × checkpointing/infinite
//! interval) and reports the slowdown relative to baseline. The paper's
//! headline numbers: 6.3 % average for Cp10ms with 7+1 parity, 22 % worst
//! case (FFT), with CpInf ≈ 2.7 % and CpInfM ≈ 1 % on average.
//!
//! The 60 runs are independent; they execute on the harness worker pool
//! (`--jobs N`) and reuse cached artifacts when valid (`--no-cache` to
//! force re-runs). The table is byte-identical at any worker count.

use revive_bench::{banner, fig_job, overhead_pct, FigConfig, Opts, Table};
use revive_harness::{Args, Sweep};
use revive_machine::WorkloadSpec;
use revive_workloads::AppId;

fn main() {
    let args = Args::parse();
    let opts = Opts::from_args(&args);
    banner(
        "Figure 8 — error-free execution overhead",
        "ReVive (ISCA 2002) Figure 8; averages in Sections 1, 6.1, 8",
        opts,
    );
    let mut jobs = Vec::new();
    for app in AppId::ALL {
        for fig in FigConfig::ALL {
            jobs.push(fig_job(WorkloadSpec::Splash(app), fig, opts));
        }
    }
    let outcomes = Sweep::new("fig8_overhead", &args).run_all(jobs);

    let per_app = FigConfig::ALL.len();
    let mut table = Table::new(["app", "Cp10ms%", "CpInf%", "Cp10msM%", "CpInfM%", "ckpts"]);
    let mut sums = [0.0f64; 4];
    for (a, app) in AppId::ALL.into_iter().enumerate() {
        let base = &outcomes[a * per_app].result;
        let mut cells = vec![app.name().to_string()];
        let mut ckpts = 0;
        for i in 0..4 {
            let r = &outcomes[a * per_app + 1 + i].result;
            let pct = overhead_pct(r.sim_time, base.sim_time);
            sums[i] += pct;
            cells.push(format!("{pct:.1}"));
            if FigConfig::ALL[1 + i] == FigConfig::Cp {
                ckpts = r.checkpoints;
            }
        }
        cells.push(ckpts.to_string());
        table.row(cells);
    }
    let n = AppId::ALL.len() as f64;
    table.row([
        "MEAN".to_string(),
        format!("{:.1}", sums[0] / n),
        format!("{:.1}", sums[1] / n),
        format!("{:.1}", sums[2] / n),
        format!("{:.1}", sums[3] / n),
        String::new(),
    ]);
    table.row([
        "paper-mean".to_string(),
        "6.3".to_string(),
        "2.7".to_string(),
        "~3".to_string(),
        "1.0".to_string(),
        String::new(),
    ]);
    table.print();
    println!();
    println!(
        "shape checks: FFT/Ocean/Radix should dominate every column; mirroring\n\
         (CpInfM) should be cheaper than parity (CpInf); checkpointing adds on top."
    );
}
