//! Machine-level unit tests: configuration validation, accounting
//! invariants, and budget semantics over the public API.

use revive_machine::{
    ExperimentConfig, MachineConfig, MachineError, ReviveConfig, ReviveMode, Runner, System,
    TrafficClass, WorkloadSpec,
};
use revive_sim::time::Ns;
use revive_workloads::{AppId, SyntheticKind};

fn small(app: AppId) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::test_small(app);
    cfg.ops_per_cpu = 10_000;
    cfg.shadow_checkpoints = false;
    cfg
}

#[test]
fn non_square_node_count_is_rejected() {
    let mut cfg = small(AppId::Lu);
    cfg.machine.nodes = 6;
    match System::new(cfg) {
        Err(MachineError::BadConfig(msg)) => assert!(msg.contains("square")),
        Err(other) => panic!("expected BadConfig, got {other:?}"),
        Ok(_) => panic!("expected BadConfig, got Ok"),
    }
}

#[test]
fn parity_chunk_must_divide_nodes() {
    let mut cfg = small(AppId::Lu);
    cfg.revive.mode = ReviveMode::Parity {
        group_data_pages: 7, // chunk 8 does not divide 4 nodes
    };
    match System::new(cfg) {
        Err(MachineError::BadConfig(msg)) => assert!(msg.contains("divide")),
        Err(other) => panic!("expected BadConfig, got {other:?}"),
        Ok(_) => panic!("expected BadConfig, got Ok"),
    }
}

/// Asserts `System::new` rejects `cfg` with a `BadConfig` naming `what`.
fn expect_bad_config(cfg: ExperimentConfig, what: &str) {
    match System::new(cfg) {
        Err(MachineError::BadConfig(msg)) => assert!(msg.contains(what), "{msg}"),
        Err(other) => panic!("expected BadConfig, got {other:?}"),
        Ok(_) => panic!("expected BadConfig, got Ok"),
    }
}

#[test]
fn zero_node_count_is_rejected() {
    let mut cfg = small(AppId::Lu);
    cfg.machine.nodes = 0;
    expect_bad_config(cfg, "at least one node");
}

#[test]
fn empty_parity_groups_are_rejected() {
    for mode in [
        ReviveMode::Parity {
            group_data_pages: 0,
        },
        ReviveMode::Mixed {
            group_data_pages: 0,
            mirrored_fraction: 0.25,
        },
        ReviveMode::DoubleParity {
            group_data_pages: 0,
        },
    ] {
        let mut cfg = small(AppId::Lu);
        cfg.revive.mode = mode;
        expect_bad_config(cfg, "at least one data page");
    }
}

#[test]
fn layout_errors_keep_their_bad_config_wording() {
    let mut cfg = small(AppId::Lu);
    cfg.revive.mode = ReviveMode::Replication { replicas: 0 };
    expect_bad_config(cfg, "at least one replica");
    let mut cfg = small(AppId::Lu);
    cfg.revive.mode = ReviveMode::DoubleParity {
        group_data_pages: 3, // chunk 5 does not divide 4 nodes
    };
    expect_bad_config(cfg, "double-parity: chunk 5 does not divide node count 4");
    let mut cfg = small(AppId::Lu);
    cfg.machine.nodes = 9;
    cfg.revive.mode = ReviveMode::Mixed {
        group_data_pages: 2,
        mirrored_fraction: 0.25,
    };
    expect_bad_config(cfg, "even node count");
}

#[test]
fn excessive_log_fraction_is_rejected() {
    let mut cfg = small(AppId::Lu);
    cfg.revive.log_fraction = 1.0;
    match System::new(cfg) {
        Err(MachineError::BadConfig(msg)) => assert!(msg.contains("log fraction")),
        Err(other) => panic!("expected BadConfig, got {other:?}"),
        Ok(_) => panic!("expected BadConfig, got Ok"),
    }
}

#[test]
fn bad_mirrored_fraction_is_rejected() {
    let mut cfg = small(AppId::Lu);
    cfg.revive.mode = ReviveMode::Mixed {
        group_data_pages: 3,
        mirrored_fraction: 1.5,
    };
    assert!(System::new(cfg).is_err());
}

#[test]
fn op_budget_is_exact_and_accounting_consistent() {
    let cfg = small(AppId::Cholesky);
    let cpus = cfg.machine.nodes as u64;
    let budget = cfg.ops_per_cpu;
    let r = Runner::new(cfg).unwrap().run().unwrap();
    // Every CPU issued exactly its budget.
    assert_eq!(r.metrics.traffic.cpu_ops, cpus * budget);
    // Each op probed the L1 exactly once (hits + misses partition ops,
    // modulo MSHR-full retries which re-probe).
    assert!(r.metrics.l1_hits + r.metrics.l1_misses >= r.metrics.traffic.cpu_ops);
    // L2 misses are a subset of L1 misses.
    assert!(r.metrics.l2_misses <= r.metrics.l1_misses);
    // Rates are sane.
    assert!((0.0..=1.0).contains(&r.metrics.dram_row_hit_rate));
    assert!(r.metrics.mean_net_latency > Ns::ZERO);
    assert!(r.events > 0);
}

#[test]
fn baseline_produces_no_revive_traffic() {
    let mut cfg = small(AppId::Fft);
    cfg.revive = ReviveConfig::off();
    let r = Runner::new(cfg).unwrap().run().unwrap();
    for class in [TrafficClass::Par, TrafficClass::Log, TrafficClass::CkpWb] {
        assert_eq!(r.metrics.traffic.net_bytes[class.index()], 0, "{class:?}");
        assert_eq!(
            r.metrics.traffic.mem_accesses[class.index()],
            0,
            "{class:?}"
        );
    }
    assert_eq!(r.metrics.max_log_bytes(), 0);
    assert_eq!(r.metrics.costs.paper_mem_accesses(), 0);
}

#[test]
fn revive_parity_traffic_tracks_event_accounting() {
    let mut cfg = small(AppId::Radix);
    cfg.ops_per_cpu = 20_000;
    let r = Runner::new(cfg).unwrap().run().unwrap();
    // The paper-convention message count (2 per event incl. acks) must
    // bracket the actual parity-class wire messages: every logged event
    // ships at least one update+ack pair; checkpoint markers add a few
    // fire-and-forget updates on top.
    let par_msgs = r.metrics.traffic.net_msgs[TrafficClass::Par.index()];
    let paper = r.metrics.costs.paper_messages();
    assert!(par_msgs > 0 && paper > 0);
    assert!(
        par_msgs >= paper / 2,
        "parity wire messages {par_msgs} vs paper accounting {paper}"
    );
}

#[test]
fn mixed_mode_runs_and_logs() {
    let mut cfg = small(AppId::Ocean);
    cfg.revive.mode = ReviveMode::Mixed {
        group_data_pages: 3,
        mirrored_fraction: 0.2,
    };
    cfg.ops_per_cpu = 50_000; // enough work to cross a checkpoint
    let r = Runner::new(cfg).unwrap().run().unwrap();
    assert!(r.checkpoints > 0);
    assert!(r.metrics.max_log_bytes() > 0);
}

#[test]
fn synthetic_uniform_stresses_sharing() {
    let mut cfg = small(AppId::Lu);
    cfg.workload = WorkloadSpec::Synthetic(SyntheticKind::Uniform);
    let r = Runner::new(cfg).unwrap().run().unwrap();
    // A shared uniform-random workload must generate invalidation traffic
    // (reflected in nack retries and/or fetches showing up as RdRdx).
    assert!(r.metrics.traffic.net_msgs[TrafficClass::RdRdx.index()] > 0);
}

#[test]
fn paper_machine_config_builds_and_runs() {
    let mut cfg = ExperimentConfig {
        machine: MachineConfig::paper(),
        revive: ReviveConfig::parity(Ns::from_ms(10)),
        workload: WorkloadSpec::Splash(AppId::WaterN2),
        ops_per_cpu: 5_000,
        seed: 7,
        shadow_checkpoints: false,
        obs: revive_machine::ObsConfig::off(),
        detection_fraction: ExperimentConfig::DEFAULT_DETECTION_FRACTION,
    };
    cfg.revive.log_fraction = 0.1;
    let r = Runner::new(cfg).unwrap().run().unwrap();
    assert_eq!(r.metrics.traffic.cpu_ops, 16 * 5_000);
}

#[test]
fn seeds_change_results() {
    let a = Runner::new(small(AppId::Volrend)).unwrap().run().unwrap();
    let mut cfg = small(AppId::Volrend);
    cfg.seed += 1;
    let b = Runner::new(cfg).unwrap().run().unwrap();
    assert_ne!(
        (a.sim_time, a.events),
        (b.sim_time, b.events),
        "different seeds should perturb the run"
    );
}

#[test]
fn retry_backoff_saturates_at_the_configured_cap() {
    use revive_machine::{ErrorKind, InjectPhase, InjectionPlan, ObsConfig};
    use revive_sim::trace::TraceEvent;
    use revive_sim::types::NodeId;

    let mut cfg = small(AppId::Lu);
    cfg.ops_per_cpu = 40_000;
    cfg.obs = ObsConfig {
        trace_capacity: 1 << 14,
        epoch_us: 0,
    };
    // Cap the backoff at zero doublings: every retry after the first waits
    // the base timeout, and each such attempt must be traced as capped.
    cfg.machine.watchdog_backoff_cap = 0;
    cfg.machine.watchdog_strikes = 4;
    let plan = InjectionPlan {
        after_checkpoint: 1,
        interval_fraction: 0.3,
        detection_delay: Ns(0),
        kind: ErrorKind::LiveNodeLoss(NodeId(2)),
        phase: InjectPhase::MidLogging,
        second: None,
    };
    let result = Runner::new(cfg)
        .expect("config")
        .run_with_injection(plan)
        .expect("run");
    let capped_idx = TraceEvent::RetryBackoffCapped { dst: 0, attempt: 0 }.kind_index();
    let counts = result.trace.summary().counts;
    assert!(
        counts[capped_idx] > 0,
        "expected capped retries in trace counts: {counts:?}"
    );
}
