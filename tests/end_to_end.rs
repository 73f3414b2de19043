//! End-to-end integration tests: full machine, coherence, ReVive, recovery.

use revive::machine::{
    ErrorKind, ExperimentConfig, InjectionPlan, ReviveConfig, Runner, WorkloadSpec,
};
use revive::sim::time::Ns;
use revive::sim::types::NodeId;
use revive::workloads::{AppId, SyntheticKind};

fn baseline_cfg(app: AppId) -> ExperimentConfig {
    ExperimentConfig {
        revive: ReviveConfig::off(),
        shadow_checkpoints: false,
        ..ExperimentConfig::test_small(app)
    }
}

#[test]
fn baseline_run_completes() {
    let result = Runner::new(baseline_cfg(AppId::Lu)).unwrap().run().unwrap();
    assert!(result.sim_time > Ns::ZERO);
    assert_eq!(result.checkpoints, 0);
    assert_eq!(result.metrics.traffic.cpu_ops, 4 * 60_000);
    assert!(result.metrics.l2_miss_rate() > 0.0);
    assert!(result.metrics.traffic.net_bytes_total() > 0);
}

#[test]
fn revive_run_checkpoints_and_logs() {
    let cfg = ExperimentConfig::test_small(AppId::Fft);
    let result = Runner::new(cfg).unwrap().run().unwrap();
    assert!(
        result.checkpoints >= 2,
        "checkpoints={}",
        result.checkpoints
    );
    assert_eq!(result.ckpt.count(), result.checkpoints);
    assert!(result.metrics.max_log_bytes() > 0);
    // ReVive produced parity and log traffic.
    use revive::machine::TrafficClass;
    assert!(result.metrics.traffic.net_bytes[TrafficClass::Par.index()] > 0);
    assert!(result.metrics.traffic.mem_accesses[TrafficClass::Log.index()] > 0);
    assert!(result.metrics.traffic.mem_accesses[TrafficClass::CkpWb.index()] > 0);
}

#[test]
fn revive_slower_than_baseline_but_bounded() {
    let base = Runner::new(baseline_cfg(AppId::Radix))
        .unwrap()
        .run()
        .unwrap();
    let revive = Runner::new(ExperimentConfig {
        shadow_checkpoints: false,
        ..ExperimentConfig::test_small(AppId::Radix)
    })
    .unwrap()
    .run()
    .unwrap();
    assert!(revive.sim_time >= base.sim_time);
    // The test machine is deliberately tiny (1 KB L1 / 4 KB L2 / 200 µs
    // checkpoints), so Radix — the paper's worst case — pays a large but
    // bounded penalty here; realistic overheads are measured at experiment
    // scale by `bench/fig8_overhead`.
    let overhead = (revive.sim_time.0 as f64 - base.sim_time.0 as f64) / base.sim_time.0 as f64;
    assert!(overhead < 6.0, "overhead {overhead} is implausibly high");
}

#[test]
fn runs_are_deterministic() {
    let a = Runner::new(ExperimentConfig::test_small(AppId::Barnes))
        .unwrap()
        .run()
        .unwrap();
    let b = Runner::new(ExperimentConfig::test_small(AppId::Barnes))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(a.sim_time, b.sim_time);
    assert_eq!(a.events, b.events);
    assert_eq!(a.metrics.traffic.net_bytes, b.metrics.traffic.net_bytes);
    assert_eq!(a.metrics.l2_misses, b.metrics.l2_misses);
}

#[test]
fn node_loss_recovery_is_value_exact() {
    let cfg = ExperimentConfig::test_small(AppId::Ocean);
    let interval = cfg.revive.ckpt.interval;
    let plan = InjectionPlan::paper_worst_case(interval, NodeId(2));
    let result = Runner::new(cfg)
        .unwrap()
        .run_with_injections(&[plan])
        .unwrap();
    let rec = result.recovery().expect("recovery ran");
    assert_eq!(rec.verified, Some(true), "memory mismatch after recovery");
    assert!(rec.report.log_pages_rebuilt > 0);
    assert!(rec.report.entries_replayed > 0);
    assert!(rec.lost_work > Ns::ZERO);
    assert!(rec.unavailable > rec.report.unavailable());
    // The machine kept running afterwards and finished its budget.
    assert_eq!(result.metrics.traffic.cpu_ops, 4 * 60_000);
}

#[test]
fn transient_error_recovery_is_value_exact() {
    let cfg = ExperimentConfig::test_small(AppId::Cholesky);
    let interval = cfg.revive.ckpt.interval;
    let plan = InjectionPlan::paper_transient(interval);
    let result = Runner::new(cfg)
        .unwrap()
        .run_with_injections(&[plan])
        .unwrap();
    let rec = result.recovery().expect("recovery ran");
    assert_eq!(rec.verified, Some(true));
    // No memory lost: phase 2 is skipped entirely.
    assert_eq!(rec.report.phase2, Ns::ZERO);
    assert_eq!(rec.report.log_pages_rebuilt, 0);
    assert!(rec.report.entries_replayed > 0);
}

#[test]
fn mirroring_mode_recovers_too() {
    let mut cfg = ExperimentConfig::test_small(AppId::Fft);
    let retained = cfg.revive.ckpt.retained;
    let log_fraction = cfg.revive.log_fraction;
    cfg.revive = ReviveConfig::mirroring(cfg.revive.ckpt.interval);
    cfg.revive.ckpt.retained = retained;
    cfg.revive.log_fraction = log_fraction;
    cfg.ops_per_cpu = 60_000; // enough work to span several checkpoints
    let interval = cfg.revive.ckpt.interval;
    // Mirroring halves the allocatable memory, so the tiny test log fills
    // fast and checkpoints trigger early; keep the detection window short
    // so the recovered checkpoint stays within the retained set (the paper
    // likewise scales detection latency with the checkpoint interval).
    let plan = InjectionPlan {
        detection_delay: Ns((interval.0 as f64 * 0.2) as u64),
        interval_fraction: 0.3,
        ..InjectionPlan::paper_worst_case(interval, NodeId(1))
    };
    let result = Runner::new(cfg)
        .unwrap()
        .run_with_injections(&[plan])
        .unwrap();
    assert_eq!(result.recovery().unwrap().verified, Some(true));
}

#[test]
fn synthetic_workloads_run() {
    for kind in SyntheticKind::ALL {
        let mut cfg = ExperimentConfig::test_small(AppId::Lu);
        cfg.workload = WorkloadSpec::Synthetic(kind);
        cfg.ops_per_cpu = 5_000;
        cfg.shadow_checkpoints = false;
        let r = Runner::new(cfg).unwrap().run().unwrap();
        assert_eq!(r.metrics.traffic.cpu_ops, 4 * 5_000, "{kind}");
    }
}

#[test]
fn injection_into_baseline_is_rejected() {
    let cfg = baseline_cfg(AppId::Lu);
    let plan = InjectionPlan {
        after_checkpoint: 1,
        interval_fraction: 0.5,
        detection_delay: Ns::from_us(10),
        kind: ErrorKind::CacheWipe,
        ..InjectionPlan::paper_transient(Ns::from_us(100))
    };
    assert!(Runner::new(cfg)
        .unwrap()
        .run_with_injections(&[plan])
        .is_err());
}

#[test]
fn table1_costs_are_accounted() {
    let result = Runner::new(ExperimentConfig::test_small(AppId::Radix))
        .unwrap()
        .run()
        .unwrap();
    let c = result.metrics.costs;
    // A write-heavy workload exercises every Table 1 event class.
    assert!(c.rdx_unlogged > 0, "no Fig 5(a) events");
    assert!(c.wb_logged > 0, "no Fig 4 events");
    assert!(c.paper_mem_accesses() > 0);
}

#[test]
fn lossy_lbits_machine_still_recovers_exactly() {
    // Section 4.1.2: L bits kept only in a small directory cache lose
    // entries and cause redundant log records; correctness is unaffected
    // because replay runs in reverse order. Run the full machine that way
    // and verify a node-loss recovery byte-for-byte.
    let mut cfg = ExperimentConfig::test_small(AppId::Ocean);
    cfg.revive.lbit_dir_cache = Some(16); // tiny: plenty of evictions
    let interval = cfg.revive.ckpt.interval;
    let plan = InjectionPlan::paper_worst_case(interval, NodeId(3));
    let result = Runner::new(cfg)
        .unwrap()
        .run_with_injections(&[plan])
        .unwrap();
    let rec = result.recovery().expect("recovery ran");
    assert_eq!(rec.verified, Some(true));
}

#[test]
fn lossy_lbits_log_more_than_full_lbits() {
    let full = Runner::new(ExperimentConfig::test_small(AppId::Fft))
        .unwrap()
        .run()
        .unwrap();
    let mut cfg = ExperimentConfig::test_small(AppId::Fft);
    cfg.revive.lbit_dir_cache = Some(8);
    let lossy = Runner::new(cfg).unwrap().run().unwrap();
    let appended =
        |r: &revive::machine::RunResult| r.metrics.costs.rdx_unlogged + r.metrics.costs.wb_unlogged;
    assert!(
        appended(&lossy) > appended(&full),
        "lossy L bits should produce redundant log records: {} vs {}",
        appended(&lossy),
        appended(&full)
    );
}

#[test]
fn larger_parity_groups_use_less_memory_but_same_protection() {
    // 16-node machine: compare 3+1 vs 7+1 storage overhead while both
    // recover a lost node exactly.
    use revive::machine::{MachineConfig, ReviveMode};
    for group in [3usize, 7] {
        let mut cfg = ExperimentConfig {
            machine: MachineConfig::test_small(),
            ..ExperimentConfig::test_small(AppId::Lu)
        };
        cfg.machine.nodes = 16;
        cfg.revive.mode = ReviveMode::Parity {
            group_data_pages: group,
        };
        cfg.ops_per_cpu = 100_000; // enough work for several checkpoints
        let interval = cfg.revive.ckpt.interval;
        let plan = InjectionPlan::paper_worst_case(interval, NodeId(9));
        let result = Runner::new(cfg)
            .unwrap()
            .run_with_injections(&[plan])
            .unwrap();
        assert_eq!(
            result.recovery().unwrap().verified,
            Some(true),
            "group size {group}"
        );
    }
}

#[test]
fn mixed_mode_recovers_exactly() {
    // The paper's Section 8 extension: hot pages mirrored, the rest under
    // N+1 parity. A node loss must still recover value-exactly, crossing
    // both regions.
    use revive::machine::ReviveMode;
    let mut cfg = ExperimentConfig::test_small(AppId::Ocean);
    cfg.revive.mode = ReviveMode::Mixed {
        group_data_pages: 3,
        mirrored_fraction: 0.25,
    };
    let interval = cfg.revive.ckpt.interval;
    let plan = InjectionPlan::paper_worst_case(interval, NodeId(2));
    let result = Runner::new(cfg)
        .unwrap()
        .run_with_injections(&[plan])
        .unwrap();
    assert_eq!(result.recovery().unwrap().verified, Some(true));
}

#[test]
fn mixed_mode_storage_sits_between_parity_and_mirroring() {
    use revive::core::parity::ParityMap;
    use revive::mem::addr::AddressMap;
    let map = AddressMap::new(16, 1024 * 4096);
    let parity = ParityMap::new(map, 7).storage_overhead();
    let mirror = ParityMap::new(map, 1).storage_overhead();
    let mixed = ParityMap::mixed(map, 7, 256).storage_overhead();
    assert!(
        parity < mixed && mixed < mirror,
        "{parity} {mixed} {mirror}"
    );
}

#[test]
fn survives_two_errors_back_to_back() {
    // A node loss followed (several checkpoints later) by a machine-wide
    // transient: the machine must recover exactly from both and still
    // finish its budget. Exercises log scrubbing and interval renumbering
    // after the first recovery.
    let mut cfg = ExperimentConfig::test_small(AppId::Fft);
    cfg.ops_per_cpu = 120_000;
    let interval = cfg.revive.ckpt.interval;
    let plans = [
        InjectionPlan::paper_worst_case(interval, NodeId(1)),
        InjectionPlan {
            detection_delay: Ns((interval.0 as f64 * 0.4) as u64),
            interval_fraction: 0.5,
            ..InjectionPlan::paper_transient(interval)
        },
    ];
    let result = Runner::new(cfg)
        .unwrap()
        .run_with_injections(&plans)
        .unwrap();
    assert_eq!(result.recoveries.len(), 2);
    for (i, rec) in result.recoveries.iter().enumerate() {
        assert_eq!(rec.verified, Some(true), "recovery {i} mismatched");
    }
    // First was a node loss (log pages rebuilt), second a transient.
    assert!(result.recoveries[0].report.log_pages_rebuilt > 0);
    assert_eq!(result.recoveries[1].report.log_pages_rebuilt, 0);
    assert_eq!(result.metrics.traffic.cpu_ops, 4 * 120_000);
}

/// Full Table-4 calibration at experiment scale. Slow (~2 min release);
/// run with `cargo test --release -- --ignored table4_calibration`.
#[test]
#[ignore = "slow: full experiment-scale calibration sweep"]
fn table4_calibration_structure_holds() {
    use revive::machine::MachineConfig;
    let mut rates: Vec<(AppId, f64)> = Vec::new();
    for app in AppId::ALL {
        let cfg = ExperimentConfig {
            machine: MachineConfig::scaled(),
            revive: ReviveConfig::off(),
            workload: WorkloadSpec::Splash(app),
            ops_per_cpu: 300_000,
            seed: 2002,
            shadow_checkpoints: false,
            obs: revive::machine::ObsConfig::off(),
            detection_fraction: ExperimentConfig::DEFAULT_DETECTION_FRACTION,
        };
        let r = Runner::new(cfg).unwrap().run().unwrap();
        rates.push((app, r.metrics.l2_miss_rate()));
    }
    let mut sorted = rates.clone();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top3: Vec<AppId> = sorted.iter().take(3).map(|(a, _)| *a).collect();
    for expected in [AppId::Fft, AppId::Ocean, AppId::Radix] {
        assert!(top3.contains(&expected), "top3={top3:?}");
    }
    let water = rates.iter().find(|(a, _)| *a == AppId::WaterN2).unwrap().1;
    assert!(water < 0.001, "water miss rate {water}");
    // Every non-streaming app stays below 1%.
    for (app, rate) in &rates {
        if !app.working_set_exceeds_l2() {
            assert!(*rate < 0.01, "{app}: {rate}");
        }
    }
}

#[test]
fn losing_a_nonexistent_node_is_rejected() {
    let cfg = ExperimentConfig::test_small(AppId::Lu);
    let interval = cfg.revive.ckpt.interval;
    let plan = InjectionPlan::paper_worst_case(interval, NodeId(99));
    assert!(Runner::new(cfg)
        .unwrap()
        .run_with_injections(&[plan])
        .is_err());
}
