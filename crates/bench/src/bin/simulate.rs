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

use revive_machine::campaign::{self, CampaignConfig, Scenario};
use revive_machine::{
    read_document, render_artifact, write_atomic, ErrorKind, ExperimentConfig, FaultOutcome,
    InjectionPlan, ObsConfig, ReviveConfig, ReviveMode, RunMeta, Runner, TrafficClass,
    WorkloadSpec,
};
use revive_sim::time::Ns;
use revive_sim::types::NodeId;
use revive_workloads::{AppId, SyntheticKind};

#[derive(Debug)]
struct Args {
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

fn usage() -> ! {
    eprintln!(
        "usage: simulate [--app NAME|--synthetic NAME]\n\
         \t[--mode parity|mirroring|mixed|double-parity|replication|off]\n\
         \t[--group N] [--replicas K] [--mirrored-frac F] [--interval-us N] [--ops N] [--nodes N]\n\
         \t[--seed N] [--inject node-loss:K|transient] [--inject-spec FILE]\n\
         \t[--inject-seed N] [--lbit-cache N] [--verbose]\n\
         \t[--json PATH] [--trace-jsonl PATH] [--trace-chrome PATH]\n\
         apps: {}\n\
         synthetics: {}",
        AppId::ALL.map(|a| a.name()).join(", "),
        SyntheticKind::ALL.map(|s| s.name()).join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: WorkloadSpec::Splash(AppId::Fft),
        mode: "parity".into(),
        group: 7,
        replicas: 1,
        mirrored_frac: 0.25,
        interval_us: 2_000,
        ops: 400_000,
        nodes: None,
        seed: 2002,
        inject: None,
        inject_spec: None,
        inject_seed: None,
        lbit_cache: None,
        verbose: false,
        json: None,
        trace_jsonl: None,
        trace_chrome: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--app" => {
                let name = value(&mut it);
                let Some(app) = AppId::ALL.into_iter().find(|a| a.name() == name) else {
                    eprintln!("unknown app: {name}");
                    usage()
                };
                args.workload = WorkloadSpec::Splash(app);
            }
            "--synthetic" => {
                let name = value(&mut it);
                let Some(s) = SyntheticKind::ALL.into_iter().find(|s| s.name() == name) else {
                    eprintln!("unknown synthetic: {name}");
                    usage()
                };
                args.workload = WorkloadSpec::Synthetic(s);
            }
            "--mode" => args.mode = value(&mut it),
            "--group" => args.group = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--replicas" => args.replicas = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--mirrored-frac" => {
                args.mirrored_frac = value(&mut it).parse().unwrap_or_else(|_| usage())
            }
            "--interval-us" => {
                args.interval_us = value(&mut it).parse().unwrap_or_else(|_| usage())
            }
            "--ops" => args.ops = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--nodes" => args.nodes = Some(value(&mut it).parse().unwrap_or_else(|_| usage())),
            "--seed" => args.seed = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--inject" => args.inject = Some(value(&mut it)),
            "--inject-spec" => args.inject_spec = Some(value(&mut it)),
            "--inject-seed" => {
                args.inject_seed = Some(value(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--lbit-cache" => {
                args.lbit_cache = Some(value(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--verbose" => args.verbose = true,
            "--json" => args.json = Some(value(&mut it)),
            "--trace-jsonl" => args.trace_jsonl = Some(value(&mut it)),
            "--trace-chrome" => args.trace_chrome = Some(value(&mut it)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }
    args
}

fn load_scenario(a: &Args) -> Option<Scenario> {
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
                usage()
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
                    ErrorKind::NodeLoss(NodeId(node.parse().unwrap_or_else(|_| usage())).into())
                } else {
                    eprintln!("unknown injection: {spec}");
                    usage()
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
    if let Some(rec) = result.recovery {
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
