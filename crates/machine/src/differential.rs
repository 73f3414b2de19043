//! Differential recovery-correctness harness.
//!
//! The strongest statement ReVive can make is *the error never happened*:
//! after an injected error, rollback, and replay, the machine's functional
//! memory is word-for-word identical to a clean run of the same program.
//! [`injected_vs_golden`] makes that comparison — an injected run against
//! a golden run's image from the same [`ExperimentConfig`], compared by
//! virtual-page memory image — and [`AuditReport`] carries the
//! validation-mode audits (parity-group sweeps at every commit and after
//! recovery, log round-trips against a software shadow).
//!
//! Enable `shadow_checkpoints` on the config to arm the audits; the memory
//! comparison works regardless.

use revive_core::validate::{LogDivergence, MemoryDiff, MemoryImage, ParityAudit};
use revive_sim::types::NodeId;

use crate::config::{ExperimentConfig, MachineError};
use crate::runner::{InjectionPlan, RunResult, Runner};

/// One validation-mode audit: a parity-group sweep and/or a log round-trip,
/// taken at a named point of the run.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Where in the run the audit was taken (e.g. `"commit of checkpoint 3"`).
    pub context: String,
    /// The parity-group sweep (zero groups checked for log-only audits).
    pub parity: ParityAudit,
    /// Log records that diverged from the software shadow, per node.
    pub log_divergences: Vec<(NodeId, LogDivergence)>,
}

impl AuditReport {
    /// True when the audit found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.parity.is_clean() && self.log_divergences.is_empty()
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} parity groups checked, {} violations, {} log divergences",
            self.context,
            self.parity.groups_checked,
            self.parity.violations.len(),
            self.log_divergences.len()
        )
    }
}

/// Runs `cfg` with `plans` injected and diffs the final memory against a
/// precomputed golden image — lets a test matrix amortize one golden run
/// across many injection scenarios.
///
/// # Errors
///
/// Propagates construction and injection errors from [`Runner`].
///
/// # Panics
///
/// Panics if a fault is unrecoverable: a halted machine has no final
/// memory to compare (see [`Runner::run_with_injections_to_image`]).
pub fn injected_vs_golden(
    cfg: ExperimentConfig,
    plans: &[InjectionPlan],
    golden: &MemoryImage,
) -> Result<(RunResult, MemoryDiff), MachineError> {
    let (injected, image) = Runner::new(cfg)?.run_with_injections_to_image(plans)?;
    let image = image.expect("an unrecoverable fault leaves no final memory to diff");
    let diff = golden.diff(&image);
    Ok((injected, diff))
}
