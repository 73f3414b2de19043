//! Figure 11: maximum log size per application in the Cp10ms
//! configuration, with two checkpoints' logs retained. The paper's largest
//! is ~2.5 MB (Radix); it extrapolates to 25 MB at the real machine's
//! 100 ms interval and notes longer intervals filter more redundant
//! entries. The shape to reproduce: Radix ≫ FFT/Ocean > the rest.

use revive_bench::{banner, fig_job, FigConfig, Opts, Table, CP_INTERVAL};
use revive_harness::{Args, Sweep};
use revive_machine::WorkloadSpec;
use revive_sim::time::Ns;
use revive_workloads::AppId;

fn main() {
    let args = Args::parse();
    let opts = Opts::from_args(&args);
    banner(
        "Figure 11 — maximum log size (Cp10ms, two checkpoints retained)",
        "ReVive (ISCA 2002) Figure 11 and Section 6.2",
        opts,
    );
    let jobs = AppId::ALL
        .into_iter()
        .map(|app| fig_job(WorkloadSpec::Splash(app), FigConfig::Cp, opts))
        .collect();
    let outcomes = Sweep::new("fig11_log_size", &args).run_all(jobs);

    let mut table = Table::new([
        "app",
        "max node log",
        "all nodes",
        "extrap@100ms",
        "appends",
    ]);
    let scale_to_real = Ns::from_ms(100).0 as f64 / CP_INTERVAL.0 as f64;
    for (app, outcome) in AppId::ALL.into_iter().zip(&outcomes) {
        let r = &outcome.result;
        let max = r.metrics.max_log_bytes();
        let total: u64 = r.metrics.log_high_water.iter().sum();
        table.row([
            app.name().to_string(),
            format!("{:.0} KB", max as f64 / 1024.0),
            format!("{:.2} MB", total as f64 / 1e6),
            format!("{:.1} MB", max as f64 * scale_to_real / 1e6),
            format!(
                "{}",
                r.metrics.costs.rdx_unlogged + r.metrics.costs.wb_unlogged
            ),
        ]);
    }
    table.print();
    println!();
    println!(
        "note: log records here are two 64-B lines (data + self-describing\n\
         marker, Section 4.2), vs the paper's packed entries; sizes are\n\
         therefore ~2x the paper's at equal append counts. The extrapolation\n\
         column scales linearly to the real machine's 100 ms interval, the\n\
         same conservative assumption the paper makes."
    );
}
