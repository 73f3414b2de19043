//! Table 4: characteristics of the applications — instruction counts and
//! global L2 miss rates — for the baseline machine, side by side with the
//! paper's measurements.
//!
//! Instruction counts differ by the deliberate scaling (Section 5 scales
//! inputs; we additionally scale run length); what must reproduce is the
//! *structure* of the miss-rate column: Radix > Ocean > FFT ≫ the other
//! nine, with Water at the bottom, and the resulting misses-per-1000-
//! instructions range bracketing commercial workloads (~3, Section 5).

use revive_bench::{banner, fig_job, FigConfig, Opts, Table};
use revive_harness::{Args, Sweep};
use revive_machine::WorkloadSpec;
use revive_workloads::AppId;

fn main() {
    let args = Args::parse();
    let opts = Opts::from_args(&args);
    banner(
        "Table 4 — application characteristics (baseline machine)",
        "ReVive (ISCA 2002) Table 4 and the Section 5 miss-rate discussion",
        opts,
    );
    let jobs = AppId::ALL
        .into_iter()
        .map(|app| fig_job(WorkloadSpec::Splash(app), FigConfig::Baseline, opts))
        .collect();
    let outcomes = Sweep::new("table4_apps", &args).run_all(jobs);

    let mut table = Table::new([
        "app",
        "instr (M)",
        "paper (M)",
        "L2 miss%",
        "paper%",
        "mpki",
        "sim time",
    ]);
    let mut measured: Vec<(AppId, f64)> = Vec::new();
    for (app, outcome) in AppId::ALL.into_iter().zip(&outcomes) {
        let r = &outcome.result;
        let miss = 100.0 * r.metrics.l2_miss_rate();
        measured.push((app, miss));
        table.row([
            app.name().to_string(),
            format!("{:.0}", r.metrics.traffic.instructions as f64 / 1e6),
            app.paper_instructions_m().to_string(),
            format!("{miss:.3}"),
            format!("{:.3}", 100.0 * app.paper_l2_miss_rate()),
            format!("{:.2}", r.metrics.misses_per_kilo_instruction()),
            r.sim_time.to_string(),
        ]);
    }
    table.print();
    println!();
    // Structural check: the paper's three high-miss apps must top the list.
    let mut sorted = measured.clone();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top3: Vec<AppId> = sorted.iter().take(3).map(|(a, _)| *a).collect();
    let expected_high = [AppId::Fft, AppId::Ocean, AppId::Radix];
    let ok = expected_high.iter().all(|a| top3.contains(a));
    println!(
        "structure check — top-3 miss rates are {{fft, ocean, radix}}: {}",
        if ok { "PASS" } else { "FAIL" }
    );
}
