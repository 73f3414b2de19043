//! Open-loop serving integration tests: the request-lifecycle tracker is
//! part of the simulation's deterministic surface, so seeds must fix the
//! arrival streams exactly — and the subsystem must actually demonstrate
//! the paper-reframing claim that checkpoint stalls and recovery inflate
//! request tail latency rather than throughput.

use revive_machine::{
    render_artifact, ExperimentConfig, InjectionPlan, ReviveMode, RunMeta, RunResult, Runner,
    ServingReport, SloSpec, WorkloadSpec,
};
use revive_sim::types::NodeId;
use revive_sim::Ns;
use revive_workloads::{AppId, Arrival, ServingKind};

/// A small open-loop serving configuration on the 4-node test machine.
fn serving_config(arrival: Arrival) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::test_small(AppId::Lu);
    cfg.workload = WorkloadSpec::Serving(
        ServingKind {
            arrival,
            ops_per_request: 4,
        },
        SloSpec::default_spec(),
    );
    cfg.ops_per_cpu = 20_000;
    cfg.shadow_checkpoints = false;
    cfg
}

fn poisson() -> Arrival {
    Arrival::Poisson { mean_ns: 2_000 }
}

fn run(cfg: ExperimentConfig) -> RunResult {
    Runner::new(cfg).unwrap().run().unwrap()
}

fn serving(r: &RunResult) -> &ServingReport {
    r.serving
        .as_ref()
        .expect("serving run must carry a serving report")
}

#[test]
fn arrival_streams_are_seed_deterministic_at_machine_level() {
    for arrival in [
        poisson(),
        Arrival::Bursty {
            mean_ns: 1_000,
            on_ns: 50_000,
            off_ns: 50_000,
        },
    ] {
        let cfg = serving_config(arrival);
        let (a, b) = (run(cfg), run(cfg));
        assert_eq!(
            serving(&a),
            serving(&b),
            "same seed produced different serving reports for {arrival:?}"
        );
        let mut reseeded = cfg;
        reseeded.seed ^= 0xdead_beef;
        let c = run(reseeded);
        assert_ne!(
            (serving(&a).mean_ns, serving(&a).p50_ns, serving(&a).max_ns),
            (serving(&c).mean_ns, serving(&c).p50_ns, serving(&c).max_ns),
            "reseeding left the whole latency profile unchanged for {arrival:?}"
        );
    }
}

#[test]
fn checkpoint_stalls_inflate_serving_tail_latency() {
    // Baseline: no recovery support, so no global checkpoint stalls.
    let mut off = serving_config(poisson());
    off.revive.mode = ReviveMode::Off;
    let baseline = run(off);

    // Parity with a short interval: frequent global 2PC stalls land on
    // in-flight requests.
    let mut parity = serving_config(poisson());
    parity.revive.ckpt.interval = Ns::from_us(50);
    let ckpt = run(parity);

    let (b, c) = (serving(&baseline), serving(&ckpt));
    assert!(b.admitted > 0 && c.admitted > 0);
    assert!(
        c.max_ns > b.max_ns,
        "checkpointing should inflate worst-case request latency \
         (off max {} vs parity max {})",
        b.max_ns,
        c.max_ns
    );
    assert!(
        c.p999_ns >= b.p999_ns,
        "checkpointing should not *improve* the p99.9 tail \
         (off {} vs parity {})",
        b.p999_ns,
        c.p999_ns
    );
}

#[test]
fn recovery_outage_inflates_tail_latency_and_run_stays_deterministic() {
    // The test-small parity config already retains enough checkpoints for
    // a worst-case injection.
    let cfg = serving_config(poisson());
    let clean = run(cfg);

    let plan = InjectionPlan::paper_worst_case(cfg.revive.ckpt.interval, NodeId(1));
    let injected = || {
        Runner::new(cfg)
            .unwrap()
            .run_with_injections(std::slice::from_ref(&plan))
            .unwrap()
    };
    let faulted = injected();
    let (c, f) = (serving(&clean), serving(&faulted));
    assert_eq!(faulted.outcomes.len(), 1, "the injection must resolve");
    assert!(
        f.max_ns > c.max_ns,
        "a rollback recovery must inflate worst-case request latency \
         (clean max {} vs faulted max {})",
        c.max_ns,
        f.max_ns
    );
    assert!(
        f.completed <= f.admitted,
        "completions cannot exceed admissions"
    );

    // The faulted run — rollback, replay, request re-execution — is as
    // deterministic as a clean one: same plan, same bytes.
    let again = injected();
    let meta = RunMeta::from_config("serving_slo", &cfg);
    assert_eq!(
        render_artifact(&meta, &faulted),
        render_artifact(&meta, &again),
        "injected serving run is not replay-deterministic"
    );
}
