//! Parallel experiment orchestration for the ReVive reproduction.
//!
//! The paper's evaluation (Figures 8–12, Tables 1–4) is a grid of
//! *independent* simulations; this crate is the layer that schedules them
//! across cores without changing a single output byte:
//!
//! * `pool` — a hand-rolled `std::thread` worker pool with deterministic
//!   result ordering (collected by job index, never completion order) and
//!   per-job panic isolation.
//! * [`cli`] — the shared argument parser (`--quick`, `--jobs`,
//!   `--no-cache`, `--seed`) every experiment binary routes through, and
//!   the reader of each binary's own flags.
//! * [`sweep`] — the one experiment driver ([`Sweep`]): the pool, the
//!   progress line, the content-addressed result cache, and every file an
//!   experiment writes.
//!
//! See DESIGN.md §12 for the architecture and the determinism argument.

pub mod cli;
mod pool;
pub mod sweep;

pub use cli::Args;
pub use pool::JobError;
pub use sweep::{Sweep, SweepJob, SweepOutcome};
