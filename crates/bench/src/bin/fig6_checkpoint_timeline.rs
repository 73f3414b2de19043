//! Figure 6: the time-line of establishing a global checkpoint.
//!
//! ```text
//! fig6_checkpoint_timeline [APP] [--quick] [--seed S] [--jobs N] [--no-cache]
//! ```
//!
//! Runs one application (default `fft`) with ReVive and prints each phase
//! boundary of its checkpoints — interrupt delivery, context save,
//! dirty-data flush, the two-phase commit barriers, and log reclamation —
//! matching Figure 6's structure (the paper assumes ~1 ms flushes for 2 MB
//! caches and ~100 µs for small ones; this machine's scaled caches flush in
//! tens of µs).

use revive_bench::{banner, fig_job, FigConfig, Opts, Table};
use revive_harness::cli::exit_usage;
use revive_harness::{Args, Sweep};
use revive_machine::WorkloadSpec;
use revive_workloads::AppId;

fn main() {
    let args = Args::parse();
    let opts = Opts::from_args(&args);
    let app = match args.rest.as_slice() {
        [] => AppId::Fft,
        [name] => AppId::ALL
            .into_iter()
            .find(|a| a.name() == name)
            .unwrap_or_else(|| {
                eprintln!("unknown application: {name}");
                std::process::exit(2)
            }),
        _ => exit_usage("fig6_checkpoint_timeline [APP] [--quick] [--seed S]"),
    };
    banner(
        "Figure 6 — checkpoint establishment time-line",
        "ReVive (ISCA 2002) Figure 6, Sections 3.2.3 and 3.3.1",
        opts,
    );
    println!("application: {}\n", app.name());
    let mut job = fig_job(WorkloadSpec::Splash(app), FigConfig::Cp, opts);
    // Quick mode shrinks the interval with the budget, so its shorter run
    // still commits checkpoints to show.
    job.cfg.revive.ckpt.interval = opts.injection_interval();
    let r = Sweep::new("fig6_checkpoint_timeline", &args)
        .run_all(vec![job])
        .remove(0)
        .result;
    let mut table = Table::new([
        "ckpt",
        "start",
        "flush dur",
        "barrier1",
        "mark",
        "commit",
        "total",
        "lines",
    ]);
    for t in &r.ckpt.timelines {
        table.row([
            t.id.to_string(),
            t.started.to_string(),
            t.flush_time().to_string(),
            (t.barrier1_done - t.flush_done).to_string(),
            (t.marked - t.barrier1_done).to_string(),
            (t.committed - t.marked).to_string(),
            t.duration().to_string(),
            t.lines_flushed.to_string(),
        ]);
    }
    table.print();
    println!();
    println!(
        "checkpoints: {} (early-triggered: {}), mean duration {}, max {}",
        r.ckpt.count(),
        r.ckpt.early_triggers,
        r.ckpt.mean_duration(),
        r.ckpt.max_duration()
    );
    println!(
        "paper structure: interrupt (<5us) + context save + flush (dominant)\n\
         + barrier (10us) + commit mark + barrier (10us); flush scales with\n\
         dirty cache contents."
    );
}
