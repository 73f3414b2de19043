//! Open-loop serving SLO sweep: request tail latency and availability
//! under checkpointing and live faults.
//!
//! ```text
//! slo [--quick] [--jobs N] [--seed S] [--no-cache]
//! ```
//!
//! The paper evaluates ReVive on batch workloads, where the ~100 ms
//! checkpoint stall is amortized into a few percent of throughput. A
//! serving system experiences the same stall very differently: every
//! request in flight during a global checkpoint — or during a rollback
//! recovery — eats the pause in its *latency*. This sweep measures that
//! reframing. For every arrival process × redundancy backend × checkpoint
//! interval point it runs:
//!
//! * **Clean** — one fault-free open-loop serving run. Requests arrive on
//!   seeded Poisson or bursty (on/off) processes, each executing a short
//!   transactional op sequence; the machine records per-request latency in
//!   simulated time, so checkpoint stalls surface as tail inflation.
//! * **Faulted** — the same run under a stochastic fault schedule
//!   (exponential arrivals for Poisson points, correlated bursts for
//!   bursty points; see `fault_schedule`) replayed as time-anchored
//!   injections. Every recovery's outage window lands on the in-flight
//!   requests, and the outcome tally yields availability, MTBF, and MTTR.
//!
//! The sweep emits one self-validated `revive-slo` JSON document (read
//! back through `SloDoc::from_json`; the CI smoke job replays the same
//! check with `check_artifact`) plus a per-run artifact for every clean and
//! faulted run — all
//! cache-compatible: a re-run against existing artifacts is byte-identical
//! and skips the simulations.

use revive_bench::documents::{
    fixed, FaultAccount, ServingProfile, SloDoc, SloPoint, SLO_SCHEMA, SLO_VERSION,
};
use revive_bench::{banner, Opts, Table, CP_INTERVAL};
use revive_core::{nines, OutcomeTally};
use revive_harness::{Args, Sweep, SweepJob};
use revive_machine::{
    fault_schedule, Codec, ErrorKind, ExperimentConfig, FaultOutcome, FaultProcess, InjectPhase,
    InjectionPlan, ReviveConfig, RunResult, ServingReport, SloSpec, WorkloadSpec,
};
use revive_sim::types::NodeId;
use revive_sim::Ns;
use revive_workloads::{Arrival, ServingKind};

/// Ops per request (the last op is the request's commit write).
const OPS_PER_REQUEST: u32 = 4;

/// The redundancy backends the sweep compares (the baseline cannot take
/// injections, so it appears only in the tail-inflation unit tests).
#[derive(Clone, Copy)]
enum Backend {
    Parity,
    DoubleParity,
    Replication,
}

impl Backend {
    const ALL: [Backend; 3] = [Backend::Parity, Backend::DoubleParity, Backend::Replication];

    fn revive(self, interval: Ns) -> ReviveConfig {
        let mut cfg = match self {
            Backend::Parity => ReviveConfig::parity(interval),
            Backend::DoubleParity => ReviveConfig::double_parity(interval),
            Backend::Replication => ReviveConfig::replication(interval, 1),
        };
        // Keep one extra checkpoint recoverable so a fault landing just
        // after a commit still rolls back within the retained set.
        cfg.ckpt.retained = 3;
        cfg
    }

    fn name(self) -> &'static str {
        self.revive(CP_INTERVAL).mode.name()
    }
}

/// One sweep coordinate.
#[derive(Clone, Copy)]
struct Point {
    arrival: Arrival,
    backend: Backend,
    interval: Ns,
}

impl Point {
    fn all() -> Vec<Point> {
        // Arrival processes, per CPU: a moderate and a heavy Poisson
        // stream, plus an on/off bursty stream that overloads the machine
        // during bursts and drains between them.
        let arrivals = [
            Arrival::Poisson { mean_ns: 4_000 },
            Arrival::Poisson { mean_ns: 1_000 },
            Arrival::Bursty {
                mean_ns: 500,
                on_ns: 50_000,
                off_ns: 50_000,
            },
        ];
        let mut points = Vec::new();
        for arrival in arrivals {
            for backend in Backend::ALL {
                for interval in [CP_INTERVAL, Ns(CP_INTERVAL.0 / 4)] {
                    points.push(Point {
                        arrival,
                        backend,
                        interval,
                    });
                }
            }
        }
        points
    }

    fn kind(&self) -> ServingKind {
        ServingKind {
            arrival: self.arrival,
            ops_per_request: OPS_PER_REQUEST,
        }
    }

    fn config(&self, opts: Opts) -> ExperimentConfig {
        let workload = WorkloadSpec::Serving(self.kind(), SloSpec::default_spec());
        let mut cfg = ExperimentConfig::experiment(workload, self.backend.revive(self.interval));
        cfg.ops_per_cpu = if opts.quick { 24_000 } else { 120_000 };
        if let Some(seed) = opts.seed {
            cfg.seed = seed;
        }
        cfg
    }

    fn label(&self) -> String {
        let arrival = match self.arrival {
            Arrival::Poisson { mean_ns } => format!("p{mean_ns}"),
            Arrival::Bursty { mean_ns, .. } => format!("b{mean_ns}"),
        };
        format!(
            "{arrival}_{}_i{}us",
            self.backend.name(),
            self.interval.0 / 1_000
        )
    }

    /// The stochastic fault schedule for this point's faulted run,
    /// bounded by the clean run's duration so every fault lands mid-run.
    fn fault_plans(&self, clean_sim: Ns, seed: u64) -> Vec<InjectionPlan> {
        let horizon = Ns(clean_sim.0 * 3 / 5);
        let process = match self.arrival {
            // Independent faults against steady load…
            Arrival::Poisson { .. } => FaultProcess::Exponential {
                mtbf: Ns((clean_sim.0 / 3).max(1)),
            },
            // …correlated bursts against bursty load.
            Arrival::Bursty { .. } => FaultProcess::CorrelatedBurst {
                mtbb: Ns((clean_sim.0 / 2).max(1)),
                burst_len: 2,
                spacing: Ns((clean_sim.0 / 20).max(1)),
            },
        };
        let mut times = fault_schedule(process, horizon, seed);
        times.truncate(3);
        if times.is_empty() {
            // A short horizon can draw an empty schedule; a faulted run
            // with zero faults measures nothing, so anchor one fault.
            times.push(Ns(clean_sim.0 * 3 / 10));
        }
        times
            .into_iter()
            .map(|at| InjectionPlan {
                after_checkpoint: 0,
                interval_fraction: 0.0,
                detection_delay: Ns((self.interval.0 as f64
                    * ExperimentConfig::DEFAULT_DETECTION_FRACTION)
                    as u64),
                kind: ErrorKind::NodeLoss(NodeId(1).into()),
                phase: InjectPhase::AtTime(at),
                second: None,
            })
            .collect()
    }
}

/// The serving report a run must carry (the workload spec guarantees it;
/// its absence means a cached artifact predates the schema, which the
/// config hash rules out).
fn serving<'a>(r: &'a RunResult, label: &str) -> &'a ServingReport {
    r.serving
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: serving run carried no serving report"))
}

/// One aggregated sweep row.
struct Row {
    point: Point,
    clean: RunResult,
    faulted: RunResult,
    tally: OutcomeTally,
}

impl Row {
    /// Downtime on the service timeline: how much longer the faulted run
    /// took than its clean twin. Individual outages can overlap once the
    /// first recovery pushes the clock past later scheduled fault
    /// arrivals, so summing each `RecoveryOutcome::unavailable` may exceed
    /// the run itself; the wall-clock extension is what open-loop clients
    /// actually observe (re-executed work completes no new requests, so it
    /// counts as down time).
    fn downtime(&self) -> Ns {
        Ns(self
            .faulted
            .sim_time
            .0
            .saturating_sub(self.clean.sim_time.0))
    }

    /// Downtime-based availability of the faulted run: the service-view
    /// tally holds the single measured interruption, while `self.tally`
    /// keeps the per-fault outages for MTBF/MTTR.
    fn availability(&self) -> f64 {
        let mut service = OutcomeTally::default();
        for _ in 0..self.tally.unrecoverable {
            service.record_unrecoverable();
        }
        service.record_recovered(self.downtime());
        service.availability_from_downtime(self.faulted.sim_time)
    }
}

fn slo_doc(rows: &[Row]) -> SloDoc {
    let points = rows
        .iter()
        .map(|row| {
            let t = &row.tally;
            SloPoint {
                backend: row.point.backend.name().to_string(),
                arrival: row.point.kind().name().to_string(),
                rate_rps: fixed(row.point.arrival.rate_per_sec(), 1),
                interval_ns: row.point.interval.0,
                clean: ServingProfile::from_run(&row.clean),
                faulted: ServingProfile::from_run(&row.faulted),
                account: FaultAccount {
                    faults: t.faults(),
                    recovered: t.recovered,
                    unrecoverable: t.unrecoverable,
                    availability: row.availability(),
                    downtime_ns: row.downtime().0,
                    mtbf_ns: t.mtbf(row.faulted.sim_time).map(|n| n.0),
                    mttr_ns: t.mttr().map(|n| n.0),
                },
            }
        })
        .collect();
    SloDoc {
        slo: SloSpec::default_spec(),
        points,
    }
}

fn main() {
    let args = Args::parse();
    let opts = Opts::from_args(&args);
    banner(
        "Open-loop serving SLO sweep",
        "ReVive (ISCA 2002) §6 reframed — checkpoint stalls and recovery as request tail latency",
        opts,
    );

    let points = Point::all();
    println!(
        "{} points (3 arrival processes x {} backends x 2 checkpoint intervals), clean + faulted runs\n",
        points.len(),
        Backend::ALL.len(),
    );
    let sweep = Sweep::new("slo", &args);

    // Stage 1: the fault-free serving runs. Their durations bound the
    // fault schedules, so they run (or load from cache) first.
    let clean_jobs: Vec<SweepJob> = points
        .iter()
        .map(|p| SweepJob::new(format!("{}_clean", p.label()), p.config(opts)))
        .collect();
    let clean: Vec<RunResult> = sweep
        .run_all(clean_jobs)
        .into_iter()
        .map(|o| o.result)
        .collect();

    // Stage 2: the same points under their stochastic fault schedules.
    let faulted_jobs: Vec<SweepJob> = points
        .iter()
        .zip(&clean)
        .enumerate()
        .map(|(i, (p, c))| {
            let cfg = p.config(opts);
            let plans = p.fault_plans(c.sim_time, cfg.seed ^ (i as u64).wrapping_mul(0x9e37));
            SweepJob::with_plans(format!("{}_faulted", p.label()), cfg, plans)
        })
        .collect();
    let rows: Vec<Row> = sweep
        .run_all(faulted_jobs)
        .into_iter()
        .zip(points.iter().zip(clean))
        .map(|(o, (&point, clean))| {
            let mut tally = OutcomeTally::default();
            for outcome in &o.result.outcomes {
                match outcome {
                    FaultOutcome::Recovered(rec) => tally.record_recovered(rec.unavailable),
                    FaultOutcome::Unrecoverable { .. } => tally.record_unrecoverable(),
                }
            }
            Row {
                point,
                clean,
                faulted: o.result,
                tally,
            }
        })
        .collect();

    let mut table = Table::new([
        "arrival",
        "backend",
        "ckpt",
        "rps/cpu",
        "p99.9 clean",
        "p99.9 faulted",
        "burn clean",
        "burn faulted",
        "faults",
        "avail nines",
    ]);
    for row in &rows {
        let c = serving(&row.clean, "clean");
        let f = serving(&row.faulted, "faulted");
        let avail = row.availability();
        table.row([
            row.point.kind().name().to_string(),
            row.point.backend.name().to_string(),
            format!("{}us", row.point.interval.0 / 1_000),
            format!("{:.0}", row.point.arrival.rate_per_sec()),
            format!("{}", Ns(c.p999_ns)),
            format!("{}", Ns(f.p999_ns)),
            format!("{:.3}", c.ledger.budget_burn()),
            format!("{:.3}", f.ledger.budget_burn()),
            row.tally.faults().to_string(),
            format!("{:.1}", nines(avail)),
        ]);
    }
    table.print();

    let doc = slo_doc(&rows).to_json();
    if let Err(e) = SloDoc::from_json(&doc) {
        eprintln!("\nslo artifact failed validation: {e}");
        std::process::exit(1);
    }
    println!("\nslo artifact validates ({SLO_SCHEMA} v{SLO_VERSION})");
    if let Some(path) = sweep.write_document("slo", &doc) {
        println!("wrote {}", path.display());
    }

    // The reframing the sweep exists to demonstrate: live faults must
    // inflate the measured tail beyond the fault-free profile.
    let inflated = rows
        .iter()
        .filter(|r| serving(&r.faulted, "faulted").max_ns > serving(&r.clean, "clean").max_ns);
    println!(
        "tail inflation: {}/{} points show faulted max latency above clean max",
        inflated.count(),
        rows.len()
    );
}
