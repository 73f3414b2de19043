//! Parallel experiment orchestration for the ReVive reproduction.
//!
//! The paper's evaluation (Figures 8–12, Tables 1–4) is a grid of
//! *independent* simulations; this crate is the layer that schedules them
//! across cores without changing a single output byte:
//!
//! * [`pool`] — a hand-rolled `std::thread` worker pool with deterministic
//!   result ordering (collected by job index, never completion order) and
//!   per-job panic isolation.
//! * [`cli`] — the shared argument parser (`--quick`, `--jobs`,
//!   `--no-cache`, `--seed`) every sweep binary routes through.
//! * [`sweep`] — the pool + content-addressed result cache + atomic
//!   artifact emission behind one entry point ([`Sweep`]).
//!
//! See DESIGN.md §12 for the architecture and the determinism argument.

pub mod cli;
pub mod pool;
pub mod sweep;

pub use cli::Args;
pub use pool::{run_jobs, Job, JobError, Progress};
pub use sweep::{
    artifact_dir, artifacts_enabled, emit_artifact, sanitize, Sweep, SweepJob, SweepOutcome,
};
