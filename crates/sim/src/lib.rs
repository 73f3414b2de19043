//! Discrete-event simulation kernel for the ReVive reproduction.
//!
//! This crate provides the timing substrate every other crate builds on:
//!
//! * [`time::Ns`] — simulation time in integer nanoseconds.
//! * [`engine::EventQueue`] — a deterministic discrete-event scheduler.
//! * [`resource::Resource`] — the "busy-until" contention model for
//!   pipelines, DRAM banks, and network links.
//! * [`stats`] — counters, histograms, and running statistics used by the
//!   metrics layer.
//! * [`rng::DetRng`] — a seedable, reproducible random-number generator so
//!   that every experiment is bit-for-bit repeatable.
//!
//! # Example
//!
//! ```
//! use revive_sim::engine::EventQueue;
//! use revive_sim::time::Ns;
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(Ns(30), "b");
//! q.schedule(Ns(10), "a");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (Ns(10), "a"));
//! ```

pub mod engine;
pub mod fastdiv;
pub mod hashing;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod types;

pub use engine::EventQueue;
pub use resource::Resource;
pub use rng::DetRng;
pub use time::Ns;
pub use trace::{Span, TraceBuffer, TraceEvent, TraceSummary};
pub use types::NodeId;
