//! Figure 10: breakdown of memory (DRAM) traffic in the Cp10ms
//! configuration, same classes as Figure 9. With mirroring instead of
//! parity the paper notes PAR shrinks to one-third; pass `--mirroring` to
//! reproduce that variant.

use revive_bench::{banner, fig_job, FigConfig, Opts, Table};
use revive_harness::{Args, Sweep};
use revive_machine::{TrafficClass, WorkloadSpec};
use revive_workloads::AppId;

fn main() {
    let args = Args::parse();
    let opts = Opts::from_args(&args);
    let mirroring = args.rest.iter().any(|a| a == "--mirroring");
    let fig = if mirroring {
        FigConfig::CpM
    } else {
        FigConfig::Cp
    };
    banner(
        "Figure 10 — memory traffic breakdown (Cp10ms)",
        "ReVive (ISCA 2002) Figure 10",
        opts,
    );
    if mirroring {
        println!("variant: mirroring (PAR should shrink to ~1/3 of the parity run)\n");
    }
    let jobs = AppId::ALL
        .into_iter()
        .map(|app| fig_job(WorkloadSpec::Splash(app), fig, opts))
        .collect();
    let outcomes = Sweep::new("fig10_mem_traffic", &args).run_all(jobs);

    let mut table = Table::new([
        "app",
        "Maccesses",
        "RD/RDX%",
        "ExeWB%",
        "CkpWB%",
        "LOG%",
        "PAR%",
    ]);
    for (app, outcome) in AppId::ALL.into_iter().zip(&outcomes) {
        let r = &outcome.result;
        let total = r.metrics.traffic.mem_accesses_total().max(1);
        let pct = |c: TrafficClass| {
            100.0 * r.metrics.traffic.mem_accesses[c.index()] as f64 / total as f64
        };
        table.row([
            app.name().to_string(),
            format!("{:.2}M", total as f64 / 1e6),
            format!("{:.1}", pct(TrafficClass::RdRdx)),
            format!("{:.1}", pct(TrafficClass::ExeWb)),
            format!("{:.1}", pct(TrafficClass::CkpWb)),
            format!("{:.1}", pct(TrafficClass::Log)),
            format!("{:.1}", pct(TrafficClass::Par)),
        ]);
    }
    table.print();
}
