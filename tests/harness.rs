//! Integration tests for the experiment-orchestration harness: parallel
//! sweeps must be byte-identical to serial ones, and the result cache must
//! substitute for runs without perturbing artifacts.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use revive::core::checkpoint::{CkptStats, CkptTimeline};
use revive::harness::{Args, Sweep, SweepJob};
use revive::machine::{ExperimentConfig, InjectionPlan, ReviveConfig};
use revive::sim::time::Ns;
use revive::sim::types::NodeId;
use revive::workloads::AppId;

fn small_cfg(app: AppId, revive_on: bool, ops: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::test_small(app);
    if !revive_on {
        cfg.revive = ReviveConfig::off();
        cfg.shadow_checkpoints = false;
    }
    cfg.ops_per_cpu = ops;
    cfg
}

/// Six small jobs spanning clean baseline, clean ReVive, and an injection
/// run — enough shape diversity to catch ordering bugs.
fn jobs() -> Vec<SweepJob> {
    let mut jobs = vec![
        SweepJob::new("lu_base", small_cfg(AppId::Lu, false, 4_000)),
        SweepJob::new("lu_revive", small_cfg(AppId::Lu, true, 4_000)),
        SweepJob::new("fft_base", small_cfg(AppId::Fft, false, 4_000)),
        SweepJob::new("fft_revive", small_cfg(AppId::Fft, true, 4_000)),
        SweepJob::new("radix_revive", small_cfg(AppId::Radix, true, 4_000)),
    ];
    // The injection waits for checkpoint 2: keep test_small's full op
    // budget so the checkpoints actually happen.
    let mut cfg = ExperimentConfig::test_small(AppId::Lu);
    cfg.shadow_checkpoints = true;
    let plan = InjectionPlan::paper_worst_case(cfg.revive.ckpt.interval, NodeId(1));
    jobs.push(SweepJob::with_plans("lu_node_loss", cfg, vec![plan]));
    jobs
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("revive-harness-{tag}-{}", std::process::id()))
}

fn read_artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("artifact dir") {
        let entry = entry.expect("dir entry");
        out.insert(
            entry.file_name().to_string_lossy().into_owned(),
            std::fs::read(entry.path()).expect("read artifact"),
        );
    }
    out
}

fn sweep_into(dir: &Path, workers: usize) -> Sweep {
    let args = Args {
        jobs: Some(workers),
        ..Args::default()
    };
    Sweep::new("harness_test", &args)
        .with_artifact_dir(dir)
        .quiet()
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let serial_dir = temp_dir("serial");
    let parallel_dir = temp_dir("parallel");
    let serial = sweep_into(&serial_dir, 1).run_all(jobs());
    let parallel = sweep_into(&parallel_dir, 4).run_all(jobs());

    // Outcomes come back in job order with identical simulation results.
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.label, p.label);
        assert_eq!(s.result.sim_time, p.result.sim_time, "{}", s.label);
        assert_eq!(s.result.events, p.result.events, "{}", s.label);
        assert!(!s.cached && !p.cached);
    }
    assert!(serial[5].result.recovery().is_some(), "injection ran");

    // And the artifacts on disk are byte-for-byte the same.
    let a = read_artifacts(&serial_dir);
    let b = read_artifacts(&parallel_dir);
    assert_eq!(a.len(), 6);
    assert_eq!(a, b, "parallel artifacts differ from serial");

    std::fs::remove_dir_all(&serial_dir).ok();
    std::fs::remove_dir_all(&parallel_dir).ok();
}

#[test]
fn cached_rerun_skips_runs_and_preserves_artifacts() {
    let dir = temp_dir("cache");
    let fresh = sweep_into(&dir, 2).run_all(jobs());
    assert!(fresh.iter().all(|o| !o.cached));
    let before = read_artifacts(&dir);

    // Second pass: every job is served from the cache, with the same
    // results, and the artifacts are untouched.
    let cached = sweep_into(&dir, 2).run_all(jobs());
    for (f, c) in fresh.iter().zip(&cached) {
        assert!(c.cached, "{} was not served from cache", c.label);
        assert_eq!(f.result.sim_time, c.result.sim_time);
        assert_eq!(f.result.events, c.result.events);
        assert_eq!(f.result.checkpoints, c.result.checkpoints);
        assert_eq!(
            f.result.recovery().map(|r| r.unavailable),
            c.result.recovery().map(|r| r.unavailable)
        );
    }
    assert_eq!(before, read_artifacts(&dir), "cache hits rewrote artifacts");

    // A changed configuration must miss: bump one job's op budget.
    let mut changed = jobs();
    changed[0].cfg.ops_per_cpu += 1_000;
    let third = sweep_into(&dir, 2).run_all(changed);
    assert!(!third[0].cached, "edited config must invalidate the cache");
    assert!(third[1..].iter().all(|o| o.cached));

    // --no-cache forces runs even with valid artifacts present.
    let no_cache = Sweep::new(
        "harness_test",
        &Args {
            jobs: Some(2),
            no_cache: true,
            ..Args::default()
        },
    )
    .with_artifact_dir(&dir)
    .quiet()
    .run_all(jobs());
    assert!(no_cache.iter().all(|o| !o.cached));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cached_results_round_trip_every_consumed_metric() {
    let dir = temp_dir("roundtrip");
    let fresh = sweep_into(&dir, 1).run_all(jobs());
    let cached = sweep_into(&dir, 1).run_all(jobs());
    for (f, c) in fresh.iter().zip(&cached) {
        assert!(c.cached);
        let (a, b) = (&f.result, &c.result);
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.checkpoints, b.checkpoints);
        assert_eq!(a.metrics.traffic.cpu_ops, b.metrics.traffic.cpu_ops);
        assert_eq!(a.metrics.traffic.net_bytes, b.metrics.traffic.net_bytes);
        assert_eq!(
            a.metrics.traffic.mem_accesses,
            b.metrics.traffic.mem_accesses
        );
        assert_eq!(a.metrics.log_high_water, b.metrics.log_high_water);
        assert_eq!(a.metrics.costs, b.metrics.costs);
        assert_eq!(a.recoveries.len(), b.recoveries.len());
        for (ra, rb) in a.recoveries.iter().zip(&b.recoveries) {
            assert_eq!(ra.report, rb.report);
            assert_eq!(ra.lost_work, rb.lost_work);
            assert_eq!(ra.unavailable, rb.unavailable);
            assert_eq!(ra.verified, rb.verified);
        }
        assert!(a.sim_time > Ns::ZERO);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cached_rerun_serves_checkpoint_timelines() {
    let dir = temp_dir("ckpt");
    let cfg = small_cfg(AppId::Lu, true, 20_000);
    let fresh = sweep_into(&dir, 1).run_all(vec![SweepJob::new("lu", cfg)]);
    let cached = sweep_into(&dir, 1).run_all(vec![SweepJob::new("lu", cfg)]);
    assert!(!fresh[0].cached && cached[0].cached);
    let (a, b) = (&fresh[0].result.ckpt, &cached[0].result.ckpt);
    assert!(a.count() > 0, "the job must checkpoint");
    let fields = |t: &CkptTimeline| {
        [
            t.id,
            t.lines_flushed,
            t.started.0,
            t.flush_started.0,
            t.flush_done.0,
            t.barrier1_done.0,
            t.marked.0,
            t.committed.0,
            t.resumed.0,
        ]
    };
    let fields_of = |s: &CkptStats| s.timelines.iter().map(fields).collect::<Vec<_>>();
    assert_eq!(fields_of(a), fields_of(b));
    assert_eq!(a.early_triggers, b.early_triggers);
    assert_eq!(a.mean_duration(), b.mean_duration());
    assert_eq!(a.max_duration(), b.max_duration());
    std::fs::remove_dir_all(&dir).ok();
}
