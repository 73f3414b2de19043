//! A general-purpose command-line front end to the simulator — the tool a
//! downstream user reaches for before writing code against the library.
//!
//! ```text
//! simulate [--app NAME | --synthetic NAME]
//!          [--mode parity|mirroring|mixed|double-parity|replication|off]
//!          [--group N] [--mirrored-frac F] [--interval-us N] [--ops N]
//!          [--nodes N] [--seed N] [--inject node-loss:K | --inject transient]
//!          [--inject-spec FILE | --inject-seed N]
//!          [--lbit-cache N] [--verbose]
//!          [--json PATH] [--trace-jsonl PATH] [--trace-chrome PATH]
//! ```
//!
//! Examples:
//!
//! ```text
//! simulate --app radix --mode parity --interval-us 2000 --ops 400000
//! simulate --app ocean --inject node-loss:5
//! simulate --synthetic ws-exceeds-l2 --mode mirroring
//! simulate --app fft --json run.json --trace-chrome trace.json
//! simulate --inject-seed 17
//! simulate --inject-spec repro.json --json replay.json
//! ```
//!
//! `--inject-spec` replays a complete fault scenario from an inject-spec
//! JSON file (schema `revive-inject-spec`, as written by the `campaign`
//! binary); `--inject-seed` generates the scenario from a campaign seed.
//! Either one defines the whole experiment — machine shape, workload, op
//! budget, and fault script — so the other workload/machine flags are
//! ignored.
//!
//! `--json` writes the full machine-readable run artifact (schema
//! `revive-run-artifact`: per-class traffic and latency histograms,
//! checkpoint/recovery phase timelines, per-epoch time series, trace
//! summary). `--trace-chrome` writes a Chrome `trace_event` file — load it
//! at `chrome://tracing` or <https://ui.perfetto.dev>. Any of the three
//! output flags switches full observability on (tracing + sampling).

use std::path::Path;

use revive_harness::cli::exit_usage;
use revive_harness::Args;
use revive_machine::campaign::{self, CampaignConfig, Scenario};
use revive_machine::{
    read_document, render_artifact, write_atomic, ErrorKind, ExperimentConfig, FaultOutcome,
    InjectionPlan, ObsConfig, ReviveConfig, ReviveMode, RunMeta, Runner, TrafficClass,
    WorkloadSpec,
};
use revive_sim::time::Ns;
use revive_sim::types::NodeId;
use revive_workloads::{AppId, SyntheticKind};

/// The parsed command line.
struct Cli {
    workload: WorkloadSpec,
    mode: String,
    group: usize,
    replicas: usize,
    mirrored_frac: f64,
    interval_us: u64,
    ops: u64,
    nodes: Option<usize>,
    seed: u64,
    inject: Option<String>,
    inject_spec: Option<String>,
    inject_seed: Option<u64>,
    lbit_cache: Option<usize>,
    verbose: bool,
    json: Option<String>,
    trace_jsonl: Option<String>,
    trace_chrome: Option<String>,
}

fn usage() -> String {
    format!(
        "simulate [--app NAME|--synthetic NAME]\n\
         \t[--mode parity|mirroring|mixed|double-parity|replication|off]\n\
         \t[--group N] [--replicas K] [--mirrored-frac F] [--interval-us N] [--ops N] [--nodes N]\n\
         \t[--seed N] [--inject node-loss:K|transient] [--inject-spec FILE]\n\
         \t[--inject-seed N] [--lbit-cache N] [--verbose]\n\
         \t[--json PATH] [--trace-jsonl PATH] [--trace-chrome PATH]\n\
         apps: {}\n\
         synthetics: {}",
        AppId::ALL.map(|a| a.name()).join(", "),
        SyntheticKind::ALL.map(|s| s.name()).join(", ")
    )
}

/// Reads the command line through the shared parser; `--seed` is its
/// shared flag, and the sweep flags (`--quick`, `--jobs`, `--no-cache`)
/// have no effect on a single run.
fn parse_args() -> Cli {
    let args = Args::parse();
    let usage = usage();
    let f = args.flags(
        &usage,
        &[
            "--app",
            "--synthetic",
            "--mode",
            "--group",
            "--replicas",
            "--mirrored-frac",
            "--interval-us",
            "--ops",
            "--nodes",
            "--inject",
            "--inject-spec",
            "--inject-seed",
            "--lbit-cache",
            "--json",
            "--trace-jsonl",
            "--trace-chrome",
        ],
        &["--verbose"],
    );
    let workload = match (f.value::<String>("--app"), f.value::<String>("--synthetic")) {
        (Some(_), Some(_)) => exit_usage(&usage),
        (None, Some(name)) => match SyntheticKind::ALL.into_iter().find(|s| s.name() == name) {
            Some(s) => WorkloadSpec::Synthetic(s),
            None => {
                eprintln!("unknown synthetic: {name}");
                exit_usage(&usage)
            }
        },
        (app, None) => {
            let name = app.unwrap_or_else(|| AppId::Fft.name().to_string());
            match AppId::ALL.into_iter().find(|a| a.name() == name) {
                Some(app) => WorkloadSpec::Splash(app),
                None => {
                    eprintln!("unknown app: {name}");
                    exit_usage(&usage)
                }
            }
        }
    };
    Cli {
        workload,
        mode: f.value("--mode").unwrap_or_else(|| "parity".into()),
        group: f.value("--group").unwrap_or(7),
        replicas: f.value("--replicas").unwrap_or(1),
        mirrored_frac: f.value("--mirrored-frac").unwrap_or(0.25),
        interval_us: f.value("--interval-us").unwrap_or(2_000),
        ops: f.value("--ops").unwrap_or(400_000),
        nodes: f.value("--nodes"),
        seed: args.seed.unwrap_or(2002),
        inject: f.value("--inject"),
        inject_spec: f.value("--inject-spec"),
        inject_seed: f.value("--inject-seed"),
        lbit_cache: f.value("--lbit-cache"),
        verbose: f.switch("--verbose"),
        json: f.value("--json"),
        trace_jsonl: f.value("--trace-jsonl"),
        trace_chrome: f.value("--trace-chrome"),
    }
}

fn load_scenario(a: &Cli) -> Option<Scenario> {
    if let Some(path) = a.inject_spec.as_deref() {
        return Some(read_document(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("bad inject spec {path}: {e}");
            std::process::exit(1);
        }));
    }
    a.inject_seed
        .map(|seed| campaign::generate(seed, &CampaignConfig::default()))
}

fn main() {
    let a = parse_args();
    let scenario = load_scenario(&a);
    let interval = Ns(a.interval_us * 1_000);
    let (cfg, plans) = if let Some(sc) = &scenario {
        // The scenario defines the whole experiment; only the output and
        // verbosity flags apply.
        let cfg = sc.experiment();
        let plans = sc.plans(cfg.revive.ckpt.interval);
        (cfg, plans)
    } else {
        let mut revive = ReviveConfig::parity(interval);
        revive.mode = match a.mode.as_str() {
            "off" => ReviveMode::Off,
            "parity" => ReviveMode::Parity {
                group_data_pages: a.group,
            },
            "mirroring" => ReviveMode::Replication { replicas: 1 },
            "mixed" => ReviveMode::Mixed {
                group_data_pages: a.group,
                mirrored_fraction: a.mirrored_frac,
            },
            "double-parity" => ReviveMode::DoubleParity {
                group_data_pages: a.group,
            },
            "replication" => ReviveMode::Replication {
                replicas: a.replicas,
            },
            other => {
                eprintln!("unknown mode: {other}");
                exit_usage(&usage())
            }
        };
        revive.lbit_dir_cache = a.lbit_cache;
        revive.ckpt.retained = 3;
        let mut cfg = ExperimentConfig::experiment(a.workload, revive);
        cfg.ops_per_cpu = a.ops;
        cfg.seed = a.seed;
        if let Some(n) = a.nodes {
            cfg.machine.nodes = n;
        }
        cfg.shadow_checkpoints = a.inject.is_some();
        let plans = match a.inject.as_deref() {
            None => Vec::new(),
            Some(spec) => {
                let kind = if spec == "transient" {
                    ErrorKind::CacheWipe
                } else if let Some(node) = spec.strip_prefix("node-loss:") {
                    let node = node.parse().unwrap_or_else(|_| exit_usage(&usage()));
                    ErrorKind::NodeLoss(NodeId(node).into())
                } else {
                    eprintln!("unknown injection: {spec}");
                    exit_usage(&usage())
                };
                vec![InjectionPlan {
                    kind,
                    ..InjectionPlan::paper_worst_case(interval, NodeId(0))
                }]
            }
        };
        (cfg, plans)
    };
    let mut cfg = cfg;
    if a.json.is_some() || a.trace_jsonl.is_some() || a.trace_chrome.is_some() {
        cfg.obs = ObsConfig::full();
    }

    let runner = match Runner::new(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("configuration error: {e}");
            std::process::exit(1);
        }
    };

    let result = if plans.is_empty() {
        runner.run().expect("run")
    } else {
        match runner.run_with_injections(&plans) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("injection failed: {e}");
                std::process::exit(1);
            }
        }
    };

    println!("workload        : {}", cfg.workload.name());
    println!("mode            : {}", cfg.revive.mode.name());
    println!("sim time        : {}", result.sim_time);
    println!("events          : {}", result.events);
    println!(
        "ops / instr     : {} / {}",
        result.metrics.traffic.cpu_ops, result.metrics.traffic.instructions
    );
    println!(
        "L2 miss rate    : {:.3}%",
        100.0 * result.metrics.l2_miss_rate()
    );
    println!(
        "checkpoints     : {} (early: {})",
        result.checkpoints, result.ckpt.early_triggers
    );
    if result.checkpoints > 0 {
        println!("mean ckpt cost  : {}", result.ckpt.mean_duration());
        println!(
            "peak log        : {:.0} KB",
            result.metrics.max_log_bytes() as f64 / 1024.0
        );
    }
    if a.verbose {
        println!("--- traffic (network bytes / memory accesses) ---");
        for class in TrafficClass::ALL {
            println!(
                "  {:8}: {:>12} / {:>12}",
                class.name(),
                result.metrics.traffic.net_bytes[class.index()],
                result.metrics.traffic.mem_accesses[class.index()]
            );
        }
        println!(
            "dram row hits   : {:.1}%",
            100.0 * result.metrics.dram_row_hit_rate
        );
        println!("mean net latency: {}", result.metrics.mean_net_latency);
        println!("nack retries    : {}", result.metrics.nack_retries);
    }
    let write_or_die = |path: &str, contents: String| {
        if let Err(e) = write_atomic(Path::new(path), &contents) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote           : {path}");
    };
    if let Some(path) = a.json.as_deref() {
        let label = format!(
            "simulate_{}_{}",
            cfg.workload.name(),
            cfg.revive.mode.name()
        );
        let mut meta = RunMeta::from_config(label, &cfg).with_injections(&plans);
        if let Some(sc) = &scenario {
            meta = meta.with_campaign_seed(sc.seed);
        }
        write_or_die(path, render_artifact(&meta, &result));
    }
    if let Some(path) = a.trace_jsonl.as_deref() {
        write_or_die(path, result.trace.to_jsonl());
    }
    if let Some(path) = a.trace_chrome.as_deref() {
        write_or_die(path, result.trace.to_chrome_trace(&result.spans));
    }
    if !result.outcomes.is_empty() {
        println!("--- fault outcomes ---");
        for (i, o) in result.outcomes.iter().enumerate() {
            match o {
                FaultOutcome::Recovered(r) => println!(
                    "  fault {i}: recovered to checkpoint {} ({} unavailable)",
                    r.target_interval, r.unavailable
                ),
                FaultOutcome::Unrecoverable { error, at } => {
                    println!("  fault {i}: UNRECOVERABLE at {at}: {error}")
                }
            }
        }
    }
    if let Some(rec) = result.recovery() {
        println!("--- recovery ---");
        println!("rolled back to  : checkpoint {}", rec.target_interval);
        println!(
            "phases 1/2/3/4  : {} / {} / {} / {}",
            rec.report.phase1, rec.report.phase2, rec.report.phase3, rec.report.phase4
        );
        println!("entries replayed: {}", rec.report.entries_replayed);
        println!("lost work       : {}", rec.lost_work);
        println!("unavailable     : {}", rec.unavailable);
        println!(
            "verified        : {}",
            match rec.verified {
                Some(true) => "exact",
                Some(false) => "MISMATCH",
                None => "n/a",
            }
        );
    }
}
