//! Ablation: the mixed mirroring+parity layout (Section 8's first
//! extension, sketched in Section 6.1).
//!
//! "A small part of the memory can be protected by mirroring, while the
//! rest is protected by parity. Careful allocation of frequently used
//! pages into the mirrored region should result in low overheads … while
//! reducing the memory space overheads." First-touch allocation fills the
//! mirrored (low-stripe) region first, so each application's
//! earliest-touched — typically hottest — pages get the cheap mirror
//! updates. This binary sweeps the mirrored fraction between the two pure
//! designs.

use revive_bench::{banner, overhead_pct, Opts, Table, CP_INTERVAL};
use revive_core::parity::ParityMap;
use revive_harness::{Args, Sweep, SweepJob};
use revive_machine::{ExperimentConfig, ReviveConfig, ReviveMode, WorkloadSpec};
use revive_mem::addr::AddressMap;
use revive_workloads::AppId;

const FRACS: [f64; 5] = [0.0, 0.1, 0.25, 0.5, 1.0];

fn main() {
    let args = Args::parse();
    let opts = Opts::from_args(&args);
    banner(
        "Ablation — mixed mirroring + parity",
        "ReVive (ISCA 2002) Sections 6.1 and 8 (proposed extension)",
        opts,
    );
    let app = AppId::Radix; // write-heavy: parity-update costs dominate
    let mut base_cfg = ExperimentConfig::experiment(WorkloadSpec::Splash(app), ReviveConfig::off());
    base_cfg.ops_per_cpu = opts.ops_per_cpu() / 2;
    if let Some(seed) = opts.seed {
        base_cfg.seed = seed;
    }
    println!("workload: {}\n", app.name());

    let machine = base_cfg.machine;
    let mut jobs = vec![SweepJob::new("radix_base".to_string(), base_cfg)];
    for frac in FRACS {
        let mut revive = ReviveConfig::parity(CP_INTERVAL);
        revive.mode = if frac >= 1.0 {
            ReviveMode::Replication { replicas: 1 }
        } else if frac > 0.0 {
            ReviveMode::Mixed {
                group_data_pages: 7,
                mirrored_fraction: frac,
            }
        } else {
            ReviveMode::Parity {
                group_data_pages: 7,
            }
        };
        revive.log_fraction = 0.28 + 0.25 * frac; // keep absolute log size steady
        let mut cfg = ExperimentConfig::experiment(WorkloadSpec::Splash(app), revive);
        cfg.ops_per_cpu = opts.ops_per_cpu() / 2;
        if let Some(seed) = opts.seed {
            cfg.seed = seed;
        }
        jobs.push(SweepJob::new(
            format!("radix_mirrored_{:02}", (frac * 100.0) as u32),
            cfg,
        ));
    }
    let outcomes = Sweep::new("ablation_mixed", &args).run_all(jobs);
    let base = &outcomes[0].result;

    let mut table = Table::new(["mirrored frac", "overhead%", "storage%"]);
    let map = AddressMap::new(machine.nodes, machine.mem_per_node);
    for (frac, outcome) in FRACS.into_iter().zip(&outcomes[1..]) {
        let r = &outcome.result;
        let mirrored = (map.pages_per_node() as f64 * frac) as u64;
        let pm = if frac >= 1.0 {
            ParityMap::new(map, 1)
        } else {
            ParityMap::mixed(map, 7, mirrored)
        };
        table.row([
            format!("{:.0}%", 100.0 * frac),
            format!("{:.1}", overhead_pct(r.sim_time, base.sim_time)),
            format!("{:.1}", 100.0 * pm.storage_overhead()),
        ]);
    }
    table.print();
    println!();
    println!(
        "expected: overhead falls toward the mirroring end while storage\n\
         rises from 12.5% toward 50% — the knob the paper proposes turning\n\
         per-page instead of per-machine."
    );
}
