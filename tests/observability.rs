//! Observability integration tests: artifact determinism, traffic
//! conservation, and the guarantee that tracing/sampling never perturb the
//! simulation they observe.

use revive::machine::{
    parse_json, render_artifact, validate_artifact, ExperimentConfig, InjectionPlan, ObsConfig,
    RunMeta, Runner, TrafficClass, WorkloadSpec,
};
use revive::sim::time::Ns;
use revive::sim::types::NodeId;
use revive::workloads::{AppId, SyntheticKind};

fn observed_cfg(app: AppId) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::test_small(app);
    cfg.obs = ObsConfig::full();
    cfg
}

/// Two runs of the same seeded configuration must produce byte-identical
/// artifacts — the whole point of the hand-rolled writer.
#[test]
fn identical_seeded_runs_produce_byte_identical_artifacts() {
    let cfg = observed_cfg(AppId::Fft);
    let run = || Runner::new(cfg).unwrap().run().unwrap();
    let meta = RunMeta::from_config("obs_determinism", &cfg);
    let a = render_artifact(&meta, &run());
    let b = render_artifact(&meta, &run());
    assert_eq!(a, b, "artifacts from identical seeded runs differ");
    validate_artifact(&a).expect("artifact must satisfy its own schema");
}

/// The artifact of an observed run carries every promised section with real
/// content: epochs, checkpoint timelines, latency histograms, trace counts.
#[test]
fn artifact_contains_epochs_timelines_latencies_and_trace() {
    let cfg = observed_cfg(AppId::Fft);
    let result = Runner::new(cfg).unwrap().run().unwrap();
    assert!(!result.epochs.is_empty(), "sampling produced no epochs");
    assert!(
        result.trace.summary().retained > 0,
        "tracing recorded nothing"
    );
    let text = render_artifact(&RunMeta::from_config("obs_sections", &cfg), &result);
    let doc = parse_json(&text).unwrap();
    assert!(!doc.get("epochs").unwrap().as_arr().unwrap().is_empty());
    assert!(!doc
        .get("checkpoints_timeline")
        .unwrap()
        .as_arr()
        .unwrap()
        .is_empty());
    let lat = doc.get("latency_ns").unwrap();
    let rd = lat.get("RD/RDX").unwrap();
    assert!(rd.get("total").unwrap().as_num().unwrap() > 0.0);
    let trace = doc.get("trace").unwrap();
    assert!(trace.get("retained").unwrap().as_num().unwrap() > 0.0);
}

/// Turning the full observability stack on must not change what the
/// simulation does — identical sim time, checkpoint count, and traffic.
#[test]
fn observability_does_not_perturb_the_simulation() {
    let base_cfg = ExperimentConfig::test_small(AppId::Lu);
    assert!(
        !base_cfg.obs.tracing() && !base_cfg.obs.sampling(),
        "default must be off"
    );
    let base = Runner::new(base_cfg).unwrap().run().unwrap();
    let observed = Runner::new(observed_cfg(AppId::Lu)).unwrap().run().unwrap();
    assert_eq!(base.sim_time, observed.sim_time);
    assert_eq!(base.checkpoints, observed.checkpoints);
    assert_eq!(
        base.metrics.traffic.net_bytes,
        observed.metrics.traffic.net_bytes
    );
    assert_eq!(
        base.metrics.traffic.net_msgs,
        observed.metrics.traffic.net_msgs
    );
    assert_eq!(
        base.metrics.traffic.cpu_ops,
        observed.metrics.traffic.cpu_ops
    );
    assert_eq!(base.metrics.l2_misses, observed.metrics.l2_misses);
    // The observed run actually observed something.
    assert!(!observed.epochs.is_empty());
    assert!(base.epochs.is_empty() && base.trace.summary().retained == 0);
}

/// Conservation: the per-class byte/message counters must account for
/// exactly what the fabric delivered, and class splits must sum to the
/// totals, across the injection-matrix apps and a SPLASH baseline, clean
/// and with a recovered node loss or transient.
#[test]
fn traffic_counters_conserve_fabric_deliveries() {
    let synthetic = |kind| {
        let mut cfg = ExperimentConfig::test_small(AppId::Lu);
        cfg.workload = WorkloadSpec::Synthetic(kind);
        cfg.ops_per_cpu = 30_000;
        cfg
    };
    let (exceeds, fits) = (
        synthetic(SyntheticKind::WsExceedsL2),
        synthetic(SyntheticKind::WsFitsDirty),
    );
    let interval = exceeds.revive.ckpt.interval;
    // The counters span the whole run: recovery resets none of them, so
    // the rolled-back and re-executed traffic both count on both sides.
    let runs = [
        (exceeds, None),
        (fits, None),
        (ExperimentConfig::test_small(AppId::Radix), None),
        (
            exceeds,
            Some(InjectionPlan::paper_worst_case(interval, NodeId(2))),
        ),
        (fits, Some(InjectionPlan::paper_transient(interval))),
    ];
    for (cfg, plan) in runs {
        let r = Runner::new(cfg)
            .unwrap()
            .run_with_injections(plan.as_slice())
            .unwrap();
        let name = cfg.workload.name();
        if plan.is_some() {
            let recovery = r.recovery().expect("recovery ran");
            assert_eq!(recovery.verified, Some(true), "{name}: inexact recovery");
        }
        let t = &r.metrics.traffic;
        assert!(t.net_bytes_total() > 0, "{name}: no traffic at all");
        assert_eq!(
            t.net_bytes_total(),
            r.fabric.bytes,
            "{name}: class byte split disagrees with fabric deliveries"
        );
        assert_eq!(
            t.net_msgs.iter().sum::<u64>(),
            r.fabric.messages,
            "{name}: class message split disagrees with fabric deliveries"
        );
        assert_eq!(
            t.net_bytes.iter().sum::<u64>(),
            t.net_bytes_total(),
            "{name}: net_bytes_total is not the class sum"
        );
        // Every delivered message got exactly one latency sample.
        for class in TrafficClass::ALL {
            assert_eq!(
                r.metrics.net_latency_hist(class).total(),
                t.net_msgs[class.index()],
                "{name}: latency histogram count mismatch for {}",
                class.name()
            );
        }
    }
}

/// Sampling epochs are strictly ordered and their per-epoch deltas sum to
/// no more than the end-of-run totals — the contract the artifact's time
/// series relies on.
#[test]
fn epoch_series_is_ordered_and_sums_to_totals() {
    let cfg = observed_cfg(AppId::Ocean);
    let r = Runner::new(cfg).unwrap().run().unwrap();
    assert!(r.epochs.len() >= 2, "run too short for a time series");
    let mut prev_t = Ns::ZERO;
    let mut prev_ckpts = 0u64;
    let mut bytes = 0u64;
    let mut ops = 0u64;
    for e in &r.epochs {
        assert!(e.t > prev_t, "epoch timestamps must strictly increase");
        assert!(
            e.checkpoints >= prev_ckpts,
            "checkpoint gauge went backwards"
        );
        bytes += e.net_bytes_total();
        ops += e.ops;
        prev_t = e.t;
        prev_ckpts = e.checkpoints;
    }
    assert!(ops > 0 && bytes > 0, "epochs recorded no activity");
    // The tail after the last sample is not covered by any epoch, so the
    // deltas can only undershoot the totals, never overshoot.
    assert!(ops <= r.metrics.traffic.cpu_ops);
    assert!(bytes <= r.metrics.traffic.net_bytes_total());
}
