//! Perf baseline: wall-clock and simulated-time throughput for the
//! Figure 8 application set, written as `BENCH_baseline.json` so future
//! changes have a machine-readable reference to diff against
//! (`bench_diff`).
//!
//! Simulated-time numbers (`sim_time_ns`, `sim_ns_per_op`) are
//! deterministic across hosts; wall-clock numbers (`wall_ms`,
//! `kops_per_wall_sec`, `kevents_per_wall_sec`) measure this harness on
//! this host and are naturally noisy. Both are recorded, clearly
//! separated, so the JSON tracks simulator fidelity *and* simulator speed.

use std::path::Path;

use revive_bench::summary::run_summary_sweep;
use revive_bench::{banner, Opts, Table};
use revive_harness::Args;
use revive_machine::{write_atomic, write_json, Codec};

fn main() {
    let args = Args::parse();
    let opts = Opts::from_args(&args);
    banner(
        "Bench summary — perf baseline over the Figure 8 application set",
        "harness baseline (BENCH_baseline.json), not a paper figure",
        opts,
    );
    let out_path = args
        .rest
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());

    let summary = run_summary_sweep(&args, opts);

    let mut table = Table::new([
        "app",
        "config",
        "sim time",
        "sim ns/op",
        "wall ms",
        "kops/s",
    ]);
    for e in &summary.entries {
        table.row([
            e.app.clone(),
            e.config.clone(),
            format!("{:.3}ms", e.sim_time_ns as f64 / 1e6),
            format!("{:.2}", e.sim_ns_per_op()),
            format!("{:.0}", e.wall_ms),
            format!("{:.0}", e.kops_per_wall_sec()),
        ]);
    }
    table.print();
    let json = write_json(&summary.to_json());
    if let Err(e) = write_atomic(Path::new(&out_path), &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!();
    println!(
        "wrote {out_path} ({} entries, {} host cores)",
        summary.entries.len(),
        summary.host_cores
    );
}
