//! Fault injection: kill an entire node mid-run and watch ReVive bring the
//! machine back — with the restored memory verified byte-for-byte against
//! a shadow snapshot of the recovered checkpoint.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use revive::machine::{ErrorKind, ExperimentConfig, InjectionPlan, Runner, WorkloadSpec};
use revive::sim::time::Ns;
use revive::sim::types::NodeId;
use revive::workloads::AppId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let interval = Ns::from_ms(1);
    let mut cfg = ExperimentConfig::experiment(
        WorkloadSpec::Splash(AppId::Ocean),
        revive::machine::ReviveConfig::parity(interval),
    );
    cfg.ops_per_cpu = 800_000; // several checkpoint intervals of work
    cfg.revive.ckpt.retained = 3;
    cfg.shadow_checkpoints = true; // enables value-exact verification

    for (label, kind) in [
        (
            "permanent loss of node 5",
            ErrorKind::NodeLoss(NodeId(5).into()),
        ),
        (
            "machine-wide transient (all caches lost)",
            ErrorKind::CacheWipe,
        ),
    ] {
        println!("=== injecting: {label} ===");
        let plan = InjectionPlan {
            kind,
            ..InjectionPlan::paper_worst_case(interval, NodeId(5))
        };
        let result = Runner::new(cfg)?.run_with_injections(&[plan])?;
        let rec = result.recovery().expect("recovery ran");
        println!("rolled back to checkpoint : {}", rec.target_interval);
        println!("phase 1 (hw recovery)     : {}", rec.report.phase1);
        println!(
            "phase 2 (rebuild logs)    : {} ({} pages from parity)",
            rec.report.phase2, rec.report.log_pages_rebuilt
        );
        println!(
            "phase 3 (rollback)        : {} ({} log entries replayed)",
            rec.report.phase3, rec.report.entries_replayed
        );
        println!(
            "phase 4 (background)      : {} ({} pages)",
            rec.report.phase4, rec.report.pages_rebuilt_background
        );
        println!("lost work                 : {}", rec.lost_work);
        println!("machine unavailable       : {}", rec.unavailable);
        println!(
            "memory verified vs shadow : {}",
            match rec.verified {
                Some(true) => "EXACT MATCH (incl. parity invariant)",
                Some(false) => "MISMATCH (bug!)",
                None => "no snapshot available",
            }
        );
        println!(
            "run then completed its remaining budget ({} ops total)\n",
            result.metrics.traffic.cpu_ops
        );
    }

    // Back-to-back errors: lose a node, recover, then take a transient.
    println!("=== injecting: node loss followed by a transient ===");
    let plans = [
        InjectionPlan::paper_worst_case(interval, NodeId(3)),
        InjectionPlan::paper_transient(interval),
    ];
    let result = Runner::new(cfg)?.run_with_injections(&plans)?;
    for (i, rec) in result.recoveries.iter().enumerate() {
        println!(
            "recovery {}: unavailable {}, {} entries replayed, verified: {}",
            i + 1,
            rec.unavailable,
            rec.report.entries_replayed,
            matches!(rec.verified, Some(true)),
        );
    }
    Ok(())
}
