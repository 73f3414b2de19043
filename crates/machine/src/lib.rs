//! Machine assembly for the ReVive reproduction.
//!
//! This crate wires the substrates — the event kernel (`revive-sim`), torus
//! (`revive-net`), caches/DRAM/memory (`revive-mem`), directory coherence
//! (`revive-coherence`), and the ReVive mechanisms (`revive-core`) — into a
//! runnable CC-NUMA machine, and provides the experiment drivers the
//! benchmark harness and examples build on.
//!
//! * [`config`] — Table 3 machine parameters, ReVive modes, experiment
//!   specifications.
//! * [`system`] — the assembled machine and its discrete-event loop.
//! * [`runner`] — plain runs, error injection, recovery, and value-exact
//!   verification against shadow checkpoints.
//! * [`differential`] — the golden-vs-injected recovery-correctness
//!   harness: exact final-memory equality plus parity and log audits.
//! * [`campaign`] — the seed-driven adversarial fault-campaign engine:
//!   scenario generation, oracle-checked execution, outcome classification,
//!   and greedy shrinking to minimal repros.
//! * [`metrics`] — the Figure 9/10 traffic classes and derived summaries.
//! * [`sampling`] — per-epoch time series (log occupancy, traffic rates,
//!   utilization gauges).
//! * [`serving`] — request-lifecycle tracking and the SLO ledger for
//!   open-loop serving runs.
//! * [`json`] — the document layer: one JSON value type, parser, and
//!   canonical writer shared by every document the repository emits.
//! * [`report`] — machine-readable run artifacts and their readers (which
//!   double as the validator).
//! * [`page_table`] — first-touch page placement.
//!
//! # Example
//!
//! ```
//! use revive_machine::{ExperimentConfig, Runner};
//! use revive_workloads::AppId;
//!
//! # fn main() -> Result<(), revive_machine::MachineError> {
//! let cfg = ExperimentConfig::test_small(AppId::Lu);
//! let result = Runner::new(cfg)?.run()?;
//! assert!(result.metrics.traffic.cpu_ops > 0);
//! # Ok(())
//! # }
//! ```

pub mod campaign;
pub mod config;
pub mod differential;
pub mod json;
pub mod metrics;
pub mod page_table;
pub mod report;
pub mod runner;
pub mod sampling;
pub mod serving;
pub mod system;

pub use campaign::{
    generate, run_scenario, shrink, shrink_with, CampaignConfig, FaultSpec, Scenario,
    ScenarioOutcome, ScenarioReport,
};
pub use config::{
    ExperimentConfig, MachineConfig, MachineError, ObsConfig, ReviveConfig, ReviveMode, SloSpec,
    WorkloadSpec,
};
pub use differential::{injected_vs_golden, AuditReport};
pub use json::{check_header, parse_json, read_document, write_atomic, write_json, Codec, Json};
pub use metrics::{Metrics, ServingReport, ServingWindow, SloLedger, Summary, TrafficClass};
pub use page_table::PageTable;
pub use report::{
    content_hash, parse_run_meta, parse_run_result, render_artifact, validate_artifact, RunMeta,
    ARTIFACT_SCHEMA, ARTIFACT_VERSION,
};
pub use runner::{
    fault_schedule, CommitPoint, ErrorKind, FaultOutcome, FaultProcess, InjectPhase, InjectionPlan,
    NodeSet, RecoveryOutcome, RunResult, Runner,
};
pub use sampling::{EpochSample, IntervalSampler, SampleInput};
pub use system::System;
