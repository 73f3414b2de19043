//! Sections 3.3.2 and 6.3: availability.
//!
//! Combines a measured worst-case recovery (Figure 12's scenario on the
//! worst application, Radix) with the paper's real-machine parameters —
//! 100 ms checkpoint interval, 80 ms detection latency, 50 ms hardware
//! recovery — and reports availability at one error per day and per month.
//! Paper numbers: 820 ms worst-case unavailable, 400 ms average, ≥99.999 %
//! availability at one error/day; ~250 ms and 99.9997 % when errors do not
//! lose memory.

use revive_bench::{banner, Opts, Table};
use revive_core::availability::{monte_carlo_availability, nines, AvailabilityModel};
use revive_harness::{Args, Sweep, SweepJob};
use revive_machine::{ExperimentConfig, InjectionPlan, WorkloadSpec};
use revive_sim::time::Ns;
use revive_sim::types::NodeId;
use revive_workloads::AppId;

fn recovery_job(app: AppId, node_loss: bool, opts: Opts) -> SweepJob {
    let interval = opts.injection_interval();
    let mut cfg = ExperimentConfig::experiment(
        WorkloadSpec::Splash(app),
        revive_bench::FigConfig::Cp.revive(),
    );
    cfg.revive.ckpt.interval = interval;
    cfg.ops_per_cpu = opts.ops_per_cpu();
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    cfg.shadow_checkpoints = true;
    let plan = if node_loss {
        InjectionPlan::paper_worst_case(interval, NodeId(5))
    } else {
        InjectionPlan::paper_transient(interval)
    };
    let label = if node_loss { "node_loss" } else { "transient" };
    SweepJob::with_plans(format!("{}_{label}", app.name()), cfg, vec![plan])
}

fn main() {
    let args = Args::parse();
    let opts = Opts::from_args(&args);
    banner(
        "Availability — measured recovery + the paper's real-machine parameters",
        "ReVive (ISCA 2002) Sections 3.3.2 and 6.3",
        opts,
    );
    // Scale measured phases to the real machine's 100 ms interval, the same
    // linear extrapolation the paper applies to its 10 ms simulations.
    let scale = Ns::from_ms(100).0 as f64 / opts.injection_interval().0 as f64;
    let scaled = |t: Ns| Ns((t.0 as f64 * scale) as u64);

    let jobs = vec![
        recovery_job(AppId::Radix, true, opts),
        recovery_job(AppId::Radix, false, opts),
    ];
    let outcomes = Sweep::new("availability", &args).run_all(jobs);
    let loss = outcomes[0].result.recovery().expect("recovery ran");
    let transient = outcomes[1].result.recovery().expect("recovery ran");
    println!(
        "measured (radix, sim scale): node-loss p2={} p3={}; transient p3={}\n",
        loss.report.phase2, loss.report.phase3, transient.report.phase3
    );

    let scenarios = [
        (
            "node loss (worst case)",
            AvailabilityModel {
                checkpoint_interval: Ns::from_ms(100),
                detection_latency: Ns::from_ms(80),
                hw_recovery: Ns::from_ms(50),
                phase2: scaled(loss.report.phase2),
                phase3: scaled(loss.report.phase3),
            },
            "820 ms / 99.999%",
        ),
        (
            "transient (no memory loss)",
            AvailabilityModel {
                checkpoint_interval: Ns::from_ms(100),
                detection_latency: Ns::from_ms(80),
                hw_recovery: Ns::from_ms(50),
                phase2: Ns::ZERO,
                phase3: scaled(transient.report.phase3),
            },
            "250 ms avg / 99.9997%",
        ),
    ];

    let day = Ns::from_secs(86_400);
    let month = Ns::from_secs(86_400 * 30);
    let mut table = Table::new([
        "scenario",
        "worst unavail",
        "avg unavail",
        "A@1/day",
        "nines",
        "A@1/month",
        "paper",
    ]);
    for (name, m, paper) in scenarios {
        table.row([
            name.to_string(),
            m.worst_unavailable().to_string(),
            m.average_unavailable().to_string(),
            format!("{:.6}%", 100.0 * m.availability_worst(day)),
            format!("{:.1}", nines(m.availability_worst(day))),
            format!("{:.7}%", 100.0 * m.availability_worst(month)),
            paper.to_string(),
        ]);
    }
    table.print();
    println!();
    // A Monte-Carlo cross-check: Poisson arrivals over ten simulated years.
    let m = AvailabilityModel {
        checkpoint_interval: Ns::from_ms(100),
        detection_latency: Ns::from_ms(80),
        hw_recovery: Ns::from_ms(50),
        phase2: scaled(loss.report.phase2),
        phase3: scaled(loss.report.phase3),
    };
    let decade = Ns::from_secs(86_400 * 365 * 10);
    let (a, errors) = monte_carlo_availability(&m, day, decade, 2002);
    println!(
        "monte carlo (10 simulated years, {errors} Poisson errors @1/day):\n\
         availability {:.6}% ({:.1} nines)",
        100.0 * a,
        nines(a)
    );
    println!();
    println!(
        "the paper's availability target: <864 ms unavailable per error keeps\n\
         five nines at one error per day (Section 3.1)."
    );
}
