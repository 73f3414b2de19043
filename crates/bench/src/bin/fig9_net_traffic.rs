//! Figure 9: breakdown of network traffic in the Cp10ms configuration.
//!
//! Classes follow the paper exactly: RD/RDX (miss traffic), Exe WB
//! (execution write-backs), Ckp WB (checkpoint flushes), LOG, and PAR
//! (parity updates for data and logs). The paper's observation: traffic is
//! low except for FFT, Ocean and Radix, where PAR dominates the additions.

use revive_bench::{banner, fig_job, FigConfig, Opts, Table};
use revive_harness::{Args, Sweep};
use revive_machine::{TrafficClass, WorkloadSpec};
use revive_workloads::AppId;

fn main() {
    let args = Args::parse();
    let opts = Opts::from_args(&args);
    banner(
        "Figure 9 — network traffic breakdown (Cp10ms)",
        "ReVive (ISCA 2002) Figure 9",
        opts,
    );
    let jobs = AppId::ALL
        .into_iter()
        .map(|app| fig_job(WorkloadSpec::Splash(app), FigConfig::Cp, opts))
        .collect();
    let outcomes = Sweep::new("fig9_net_traffic", &args).run_all(jobs);

    let mut table = Table::new([
        "app", "MB total", "RD/RDX%", "ExeWB%", "CkpWB%", "LOG%", "PAR%", "MB/ms",
    ]);
    for (app, outcome) in AppId::ALL.into_iter().zip(&outcomes) {
        let r = &outcome.result;
        let total = r.metrics.traffic.net_bytes_total().max(1);
        let pct =
            |c: TrafficClass| 100.0 * r.metrics.traffic.net_bytes[c.index()] as f64 / total as f64;
        table.row([
            app.name().to_string(),
            format!("{:.2}", total as f64 / 1e6),
            format!("{:.1}", pct(TrafficClass::RdRdx)),
            format!("{:.1}", pct(TrafficClass::ExeWb)),
            format!("{:.1}", pct(TrafficClass::CkpWb)),
            format!("{:.1}", pct(TrafficClass::Log)),
            format!("{:.1}", pct(TrafficClass::Par)),
            format!("{:.2}", total as f64 / 1e6 / r.sim_time.as_ms()),
        ]);
    }
    table.print();
    println!();
    println!(
        "paper shape: PAR is the largest ReVive-added class; FFT/Ocean/Radix\n\
         carry far more absolute traffic than the other nine applications."
    );
}
