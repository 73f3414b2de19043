//! Cost/availability frontier across the redundancy backends.
//!
//! ```text
//! frontier [--seeds N] [--quick] [--jobs N]
//! ```
//!
//! For every backend × machine shape (XOR parity, RAID-6-style double
//! parity, and k-replication on the 4-node/one-chunk and 9-node/
//! three-chunk machines) the sweep measures both coordinates of the
//! trade-off the backends span:
//!
//! * **Cost** — one clean run per point: storage overhead (from the
//!   address map), redundancy-update network traffic and memory accesses
//!   (the PAR class of Figures 9/10), checkpoint count and commit
//!   latency, and total run time.
//! * **Availability** — a live-fault campaign slice per point: `N` seeds
//!   (default 12) of mid-run node death, multi-node death, and link loss,
//!   re-run under the point's backend, tallied into recovered /
//!   unrecoverable / not-fired and an availability figure at one error
//!   per day. The same seeds run against every point, so differences
//!   between rows are purely the backend's loss budget at work.
//!
//! The sweep emits one self-validated `revive-frontier` JSON document
//! (read back through `FrontierDoc::from_json` — the CI smoke job replays
//! the same check with `check_artifact`) plus a per-run artifact for each
//! clean run.
//! Any scenario that panics or fails its oracle is a frontier FAILURE and
//! the exit code is nonzero.

use revive_bench::documents::{
    FrontierCost, FrontierDoc, FrontierFaults, FrontierPoint, FRONTIER_SCHEMA, FRONTIER_VERSION,
};
use revive_bench::{banner, Opts, Table};
use revive_core::{nines, OutcomeTally};
use revive_harness::cli::exit_usage;
use revive_harness::{Args, Sweep, SweepJob};
use revive_machine::campaign::{generate, run_scenario, BackendChoice, CampaignConfig, Scenario};
use revive_machine::{Codec, RunResult, ScenarioOutcome, ScenarioReport, TrafficClass};
use revive_sim::Ns;
use revive_workloads::SyntheticKind;

/// One error per day: the paper's §6.3 availability framing.
const HORIZON: Ns = Ns::from_secs(86_400);

const USAGE: &str = "frontier [--seeds N] [--quick] [--jobs N]";

struct FrontierArgs {
    seeds: u64,
    opts: Opts,
}

fn parse_args(args: &Args) -> FrontierArgs {
    let opts = Opts::from_args(args);
    let seeds = args
        .flags(USAGE, &["--seeds"], &[])
        .value("--seeds")
        .unwrap_or(if opts.quick { 6 } else { 12 });
    if seeds == 0 {
        exit_usage(USAGE)
    }
    FrontierArgs { seeds, opts }
}

/// One backend × shape bucket of the sweep.
#[derive(Clone, Copy)]
struct Point {
    backend: BackendChoice,
    nodes: usize,
    group_data_pages: usize,
}

impl Point {
    /// The campaign's two machine shapes (one chunk spanning the machine,
    /// and three independent chunks) under every backend.
    fn all() -> Vec<Point> {
        let mut points = Vec::new();
        for backend in BackendChoice::ALL {
            for (nodes, group_data_pages) in [(4usize, 3usize), (9, 2)] {
                points.push(Point {
                    backend,
                    nodes,
                    group_data_pages,
                });
            }
        }
        points
    }

    fn scenario(
        &self,
        seed: u64,
        ops_per_cpu: u64,
        faults: Vec<revive_machine::campaign::FaultSpec>,
    ) -> Scenario {
        Scenario {
            seed,
            app: SyntheticKind::WsExceedsL2,
            nodes: self.nodes,
            group_data_pages: self.group_data_pages,
            backend: self.backend,
            ops_per_cpu,
            faults,
        }
    }

    fn label(&self) -> String {
        format!(
            "{}_{}n{}",
            self.backend.name(),
            self.nodes,
            self.group_data_pages
        )
    }

    fn shape(&self) -> String {
        format!("{}n/g{}", self.nodes, self.group_data_pages)
    }
}

/// The first `count` campaign seeds whose generated scenario lands on
/// `nodes` (fault node ids are only valid for the shape they were drawn
/// against, so the slice filters by shape instead of overriding it).
/// Deterministic: every point at the same node count replays the exact
/// same faults, differing only in backend.
fn seeds_for_shape(nodes: usize, count: u64, gen_cfg: &CampaignConfig) -> Vec<u64> {
    let mut out = Vec::new();
    let mut seed = 0u64;
    while (out.len() as u64) < count {
        if generate(seed, gen_cfg).nodes == nodes {
            out.push(seed);
        }
        seed += 1;
    }
    out
}

/// The clean (fault-free) cost run of one point.
fn clean_job(point: &Point, ops_per_cpu: u64) -> SweepJob {
    let cfg = point.scenario(0, ops_per_cpu, Vec::new()).experiment();
    SweepJob::new(format!("clean_{}", point.label()), cfg)
}

/// Cost coordinates from one clean run.
fn clean_cost(result: &RunResult) -> FrontierCost {
    let par = TrafficClass::Par.index();
    FrontierCost {
        sim_time_ns: result.sim_time.0,
        checkpoints: result.checkpoints,
        ckpt_mean_ns: result.ckpt.mean_duration().0,
        ckpt_max_ns: result.ckpt.max_duration().0,
        rdx_net_bytes: result.metrics.traffic.net_bytes[par],
        rdx_net_msgs: result.metrics.traffic.net_msgs[par],
        rdx_mem_accesses: result.metrics.traffic.mem_accesses[par],
    }
}

/// The aggregated frontier row for one point.
struct Row {
    point: Point,
    clean: FrontierCost,
    tally: OutcomeTally,
    failures: Vec<ScenarioReport>,
}

fn frontier_doc(seeds_per_point: u64, rows: &[Row]) -> FrontierDoc {
    let points = rows
        .iter()
        .map(|row| {
            let mode = row.point.scenario(0, 1, Vec::new()).mode();
            let t = &row.tally;
            FrontierPoint {
                backend: row.point.backend.name().to_string(),
                mode: mode.name().to_string(),
                nodes: row.point.nodes as u64,
                group_data_pages: row.point.group_data_pages as u64,
                budget: mode.loss_budget() as u64,
                storage_overhead: mode.storage_overhead(),
                clean: row.clean.clone(),
                faults: FrontierFaults {
                    scenarios: t.scenarios(),
                    recovered: t.recovered,
                    unrecoverable: t.unrecoverable,
                    not_fired: t.not_fired,
                    availability: t.availability(HORIZON),
                    unavailable_mean_ns: t
                        .unavailable_total
                        .0
                        .checked_div(t.recovered)
                        .unwrap_or(0),
                },
            }
        })
        .collect();
    FrontierDoc {
        seeds_per_point,
        points,
    }
}

fn main() {
    let args = Args::parse();
    let a = parse_args(&args);
    let sweep = Sweep::new("frontier", &args);
    banner(
        "Redundancy cost/availability frontier",
        "ReVive (ISCA 2002) §6.2/§6.3 — what each extra survivable loss costs",
        a.opts,
    );

    let campaign_ops: u64 = if a.opts.quick { 10_000 } else { 20_000 };
    let clean_ops: u64 = if a.opts.quick { 20_000 } else { 40_000 };
    let gen_cfg = CampaignConfig {
        ops_per_cpu: campaign_ops,
        live_only: true,
        ..CampaignConfig::default()
    };
    let points = Point::all();
    println!(
        "{} points ({} backends x 2 shapes), {} live-fault seeds per point\n",
        points.len(),
        BackendChoice::ALL.len(),
        a.seeds
    );

    // Per point: the clean cost run (through the result cache), then the
    // live campaign slice. The same shape-filtered seeds replay under
    // every backend, so rows differ only by what the backend could absorb.
    let clean_jobs = points.iter().map(|p| clean_job(p, clean_ops)).collect();
    let clean = sweep.run_all(clean_jobs);
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let gen_cfg = &gen_cfg;
    let jobs = points
        .iter()
        .zip(clean)
        .map(|(&point, clean)| {
            let seeds = seeds_for_shape(point.nodes, a.seeds, gen_cfg);
            let clean = clean_cost(&clean.result);
            (point.label(), move || {
                let mut tally = OutcomeTally::default();
                let mut failures = Vec::new();
                for &seed in &seeds {
                    let sc = point.scenario(seed, campaign_ops, generate(seed, gen_cfg).faults);
                    let report = run_scenario(&sc);
                    match &report.outcome {
                        ScenarioOutcome::Recovered { unavailable, .. } => {
                            tally.record_recovered(*unavailable)
                        }
                        ScenarioOutcome::Unrecoverable { .. } => tally.record_unrecoverable(),
                        ScenarioOutcome::NotFired => tally.record_not_fired(),
                        ScenarioOutcome::BadConfig { .. } | ScenarioOutcome::Panicked { .. } => {}
                    }
                    if report.is_failure() {
                        failures.push(report);
                    }
                }
                Row {
                    point,
                    clean,
                    tally,
                    failures,
                }
            })
        })
        .collect();
    let rows: Vec<Row> = sweep.map(jobs);
    std::panic::set_hook(default_hook);

    let mut table = Table::new([
        "backend",
        "shape",
        "budget",
        "overhead",
        "rdx MB",
        "ckpt mean",
        "recovered",
        "unrec",
        "not fired",
        "nines",
    ]);
    for row in &rows {
        let mode = row.point.scenario(0, 1, Vec::new()).mode();
        let avail = row.tally.availability(HORIZON);
        table.row([
            row.point.backend.name().to_string(),
            row.point.shape(),
            mode.loss_budget().to_string(),
            format!("{:.2}", mode.storage_overhead()),
            format!("{:.2}", row.clean.rdx_net_bytes as f64 / 1e6),
            format!("{}", Ns(row.clean.ckpt_mean_ns)),
            row.tally.recovered.to_string(),
            row.tally.unrecoverable.to_string(),
            row.tally.not_fired.to_string(),
            format!("{:.1}", nines(avail)),
        ]);
    }
    table.print();

    let doc = frontier_doc(a.seeds, &rows).to_json();
    if let Err(e) = FrontierDoc::from_json(&doc) {
        eprintln!("\nfrontier artifact failed validation: {e}");
        std::process::exit(1);
    }
    println!("\nfrontier artifact validates ({FRONTIER_SCHEMA} v{FRONTIER_VERSION})");
    if let Some(path) = sweep.write_document("frontier", &doc) {
        println!("wrote {}", path.display());
    }

    let failures: Vec<&ScenarioReport> = rows.iter().flat_map(|r| r.failures.iter()).collect();
    if !failures.is_empty() {
        println!("\n{} FAILING scenario(s):", failures.len());
        for report in failures {
            println!(
                "  {} seed {}: {}",
                report.scenario.backend.name(),
                report.scenario.seed,
                report.outcome
            );
        }
        std::process::exit(1);
    }
    println!("frontier clean: no panics, no oracle mismatches");
}
