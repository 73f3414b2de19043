//! Section 6.2: storage requirements.
//!
//! Parity storage is analytic — `1/(G+1)` of memory: 12.5 % for 7+1 parity,
//! 50 % for mirroring. Log storage is measured (Figure 11 high-water marks)
//! and extrapolated to the paper's real machine (2 GB/node, 100 ms
//! interval), reproducing the headline "total memory overhead of ReVive is
//! 14 %" (parity + logs) versus up to 62 % with mirroring.

use revive_bench::{banner, fig_job, FigConfig, Opts, Table, CP_INTERVAL};
use revive_core::parity::ParityMap;
use revive_harness::{Args, Sweep};
use revive_machine::WorkloadSpec;
use revive_mem::addr::AddressMap;
use revive_sim::time::Ns;
use revive_workloads::AppId;

const APPS: [AppId; 4] = [AppId::Radix, AppId::Fft, AppId::Ocean, AppId::WaterN2];

fn main() {
    let args = Args::parse();
    let opts = Opts::from_args(&args);
    banner(
        "Storage overhead — parity + logs",
        "ReVive (ISCA 2002) Section 6.2",
        opts,
    );

    // Analytic parity overheads.
    let map = AddressMap::new(16, 2 * 1024 * 1024 * 1024);
    let p71 = ParityMap::new(map, 7);
    let mirror = ParityMap::new(map, 1);
    println!(
        "parity (7+1): {:.1}% of memory   |   mirroring: {:.0}%",
        100.0 * p71.storage_overhead(),
        100.0 * mirror.storage_overhead()
    );
    println!();

    // Measured log high-water marks, worst application.
    let mut table = Table::new(["app", "max node log", "extrap@100ms", "node overhead%"]);
    let scale = Ns::from_ms(100).0 as f64 / CP_INTERVAL.0 as f64;
    let node_bytes = 2.0 * 1024.0 * 1024.0 * 1024.0; // paper: 2 GB/node
    let mut worst = 0.0f64;
    let jobs = APPS
        .into_iter()
        .map(|app| fig_job(WorkloadSpec::Splash(app), FigConfig::Cp, opts))
        .collect();
    let outcomes = Sweep::new("storage_overhead", &args).run_all(jobs);
    for (app, outcome) in APPS.into_iter().zip(&outcomes) {
        let max = outcome.result.metrics.max_log_bytes() as f64;
        let extrap = max * scale;
        worst = worst.max(extrap);
        table.row([
            app.name().to_string(),
            format!("{:.0} KB", max / 1024.0),
            format!("{:.1} MB", extrap / 1e6),
            format!("{:.2}", 100.0 * extrap / node_bytes),
        ]);
    }
    table.print();
    println!();
    let parity_frac = p71.storage_overhead();
    let log_frac = worst / node_bytes;
    println!(
        "total (7+1 parity + worst measured log): {:.1}% of memory\n\
         paper: 12.5% parity + ~25 MB logs of 2 GB => ~14% total;\n\
         mirroring instead: up to {:.0}% + logs => ~62%.",
        100.0 * (parity_frac + log_frac),
        100.0 * mirror.storage_overhead()
    );
}
