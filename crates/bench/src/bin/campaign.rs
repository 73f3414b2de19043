//! Adversarial fault-campaign driver.
//!
//! ```text
//! campaign [--seeds N] [--start-seed S] [--live] [--quick] [--jobs N] [--replay FILE]
//! ```
//!
//! Sweeps `N` campaign seeds (default 100; `--quick` drops to 25 for CI
//! smoke runs) across the harness worker pool. Each seed deterministically
//! expands into a fault scenario — arbitrary error kinds, two-phase-commit
//! boundary strikes, mid-recovery double faults, simultaneous multi-node
//! losses beyond the parity budget, and (with `--live`, exclusively) live
//! fabric faults that sever nodes or links mid-run with messages in
//! flight — which runs under the exact-memory
//! oracle and is classified: `recovered` (oracle-verified),
//! `unrecoverable` (typed, counted into availability), or `not-fired`
//! (benign). A panic or an oracle mismatch is a campaign FAILURE: the
//! scenario is greedily shrunk to a minimal repro, written as an
//! inject-spec JSON next to the run artifacts (unless
//! `REVIVE_NO_ARTIFACTS` turns every write off), and the exit code is
//! nonzero. Replay a spec with `campaign --replay FILE` or
//! `simulate --inject-spec FILE`.
//!
//! The first unrecoverable scenario is also minimized (predicate: still
//! classified unrecoverable) and its spec, read back from its canonical
//! text, is verified by replay, so the beyond-budget degradation path
//! always leaves a replayable witness.
//! Seeds are independent, so the report — table, tally, chosen repros —
//! is identical at any `--jobs` value.

use std::path::Path;

use revive_bench::{banner, Opts, Table};
use revive_core::OutcomeTally;
use revive_harness::{Args, Sweep};
use revive_machine::campaign::{generate, run_scenario, shrink_with, CampaignConfig, Scenario};
use revive_machine::{
    parse_json, read_document, write_json, Codec, RunMeta, ScenarioOutcome, ScenarioReport,
};
use revive_sim::Ns;

const USAGE: &str =
    "campaign [--seeds N] [--start-seed S] [--live] [--quick] [--jobs N] [--replay FILE]";

struct CampaignArgs {
    seeds: u64,
    start_seed: u64,
    live: bool,
    replay: Option<String>,
    opts: Opts,
}

fn parse_args(args: &Args) -> CampaignArgs {
    let opts = Opts::from_args(args);
    let flags = args.flags(USAGE, &["--seeds", "--start-seed", "--replay"], &["--live"]);
    CampaignArgs {
        seeds: flags
            .value("--seeds")
            .unwrap_or(if opts.quick { 25 } else { 100 }),
        start_seed: flags.value("--start-seed").unwrap_or(0),
        live: flags.switch("--live"),
        replay: flags.value("--replay"),
        opts,
    }
}

fn shape(sc: &Scenario) -> String {
    format!("{}n/{}+1", sc.nodes, sc.group_data_pages)
}

/// Emits the scenario's run artifact (when the run produced one).
fn emit_scenario(sweep: &Sweep, label: &str, report: &ScenarioReport) {
    let Some(result) = &report.result else {
        return;
    };
    let sc = &report.scenario;
    let cfg = sc.experiment();
    let meta = RunMeta::from_config(label, &cfg)
        .with_injections(&sc.plans(cfg.revive.ckpt.interval))
        .with_campaign_seed(sc.seed);
    sweep.emit(&meta, result);
}

fn replay(sweep: &Sweep, path: &str) -> ! {
    let sc: Scenario = read_document(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("bad inject spec {path}: {e}");
        std::process::exit(1);
    });
    println!(
        "replaying {path} (seed {}, {} faults)",
        sc.seed,
        sc.faults.len()
    );
    let report = run_scenario(&sc);
    emit_scenario(sweep, &format!("replay_seed_{}", sc.seed), &report);
    println!("outcome: {}", report.outcome);
    std::process::exit(if report.is_failure() { 1 } else { 0 })
}

fn main() {
    let args = Args::parse();
    let a = parse_args(&args);
    let sweep = Sweep::new("campaign", &args);
    if let Some(path) = a.replay.as_deref() {
        replay(&sweep, path);
    }
    banner(
        "Adversarial fault campaign",
        "ReVive (ISCA 2002) §3.1.2/§6.3 — recovery at any instant, graceful degradation beyond the budget",
        a.opts,
    );
    println!(
        "seeds {}..{}{} — every scenario must end recovered (oracle-verified) or classified unrecoverable; a panic is a failure\n",
        a.start_seed,
        a.start_seed + a.seeds,
        if a.live {
            " (live-only: mid-run node death and link loss)"
        } else {
            ""
        }
    );

    // The sweep expects zero panics; silence the default hook so an
    // unexpected one (caught, classified, and reported as a failure)
    // doesn't spray a backtrace through the table.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let gen_cfg = CampaignConfig {
        live_only: a.live,
        ..CampaignConfig::default()
    };
    let gen_cfg = &gen_cfg;
    let sweep = &sweep;
    let jobs = (a.start_seed..a.start_seed + a.seeds)
        .map(|seed| {
            let label = format!("seed_{seed:04}");
            (label.clone(), move || {
                let sc = generate(seed, gen_cfg);
                let report = run_scenario(&sc);
                emit_scenario(sweep, &label, &report);
                (sc, report)
            })
        })
        .collect();
    let scenario_reports: Vec<(Scenario, ScenarioReport)> = sweep.map(jobs);
    std::panic::set_hook(default_hook);

    let mut table = Table::new(["seed", "shape", "app", "faults", "outcome"]);
    let mut tally = OutcomeTally::default();
    let mut failures: Vec<ScenarioReport> = Vec::new();
    let mut first_unrecoverable: Option<Scenario> = None;
    for (sc, report) in scenario_reports {
        match &report.outcome {
            ScenarioOutcome::Recovered { unavailable, .. } => tally.record_recovered(*unavailable),
            ScenarioOutcome::Unrecoverable { .. } => {
                tally.record_unrecoverable();
                if first_unrecoverable.is_none() {
                    first_unrecoverable = Some(sc.clone());
                }
            }
            ScenarioOutcome::NotFired => tally.record_not_fired(),
            ScenarioOutcome::BadConfig { .. } | ScenarioOutcome::Panicked { .. } => {}
        }
        table.row([
            sc.seed.to_string(),
            shape(&sc),
            sc.app.name().to_string(),
            sc.faults.len().to_string(),
            report.outcome.to_string(),
        ]);
        if report.is_failure() {
            failures.push(report);
        }
    }
    table.print();

    println!();
    println!(
        "classified: {} recovered, {} unrecoverable, {} not fired ({} scenarios)",
        tally.recovered,
        tally.unrecoverable,
        tally.not_fired,
        tally.scenarios()
    );
    if tally.scenarios() > 0 {
        // One error per day (the paper's §6.3 availability framing): every
        // recovered scenario costs its outage, every unrecoverable one
        // costs the whole day.
        let avail = tally.availability(Ns::from_secs(86_400));
        let nines = if avail >= 1.0 {
            "inf".to_string()
        } else {
            format!("{:.1}", -(1.0 - avail).log10())
        };
        println!("availability at one error/day: {avail:.9} ({nines} nines)");
    }

    // The beyond-budget degradation path must leave a replayable witness:
    // minimize the first unrecoverable scenario and verify its spec
    // round-trips to the same classification.
    if let Some(sc) = first_unrecoverable {
        println!();
        println!(
            "minimizing first unrecoverable scenario (seed {})...",
            sc.seed
        );
        let min = shrink_with(
            &sc,
            |s| {
                matches!(
                    run_scenario(s).outcome,
                    ScenarioOutcome::Unrecoverable { .. }
                )
            },
            40,
        );
        // The check replays the spec as it reads back from its canonical
        // text, so it holds whether or not the file is written.
        let spec = min.to_json();
        let parsed = parse_json(&write_json(&spec)).and_then(|doc| Scenario::from_json(&doc));
        let verdict = run_scenario(&parsed.expect("spec parses"));
        println!(
            "  minimized to {} fault(s), ops {} — replay: {}",
            min.faults.len(),
            min.ops_per_cpu,
            verdict.outcome
        );
        let name = format!("unrecoverable_min_seed_{}", sc.seed);
        if let Some(path) = sweep.write_document(&name, &spec) {
            println!(
                "  wrote {} (replay: campaign --replay {} | simulate --inject-spec {})",
                path.display(),
                path.display(),
                path.display()
            );
        }
        assert!(
            matches!(verdict.outcome, ScenarioOutcome::Unrecoverable { .. }),
            "minimized unrecoverable spec must replay to the same classification"
        );
    }

    if !failures.is_empty() {
        println!();
        println!(
            "{} FAILING scenario(s); shrinking to minimal repros...",
            failures.len()
        );
        for report in &failures {
            let seed = report.scenario.seed;
            let min = shrink_with(&report.scenario, |s| run_scenario(s).is_failure(), 40);
            let verdict = run_scenario(&min);
            println!("  seed {seed}: {}", report.outcome);
            println!(
                "    minimized ({} fault(s), ops {}): {}",
                min.faults.len(),
                min.ops_per_cpu,
                verdict.outcome
            );
            if let Some(path) = sweep.write_document(&format!("repro_seed_{seed}"), &min.to_json())
            {
                println!(
                    "    wrote {} (replay: campaign --replay {} | simulate --inject-spec {})",
                    path.display(),
                    path.display(),
                    path.display()
                );
            }
        }
        std::process::exit(1);
    }
    println!();
    println!("campaign clean: no panics, no oracle mismatches, no unclassified outcomes");
}
