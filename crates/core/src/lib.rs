//! # ReVive core mechanisms
//!
//! This crate implements the contribution of *"ReVive: Cost-Effective
//! Architectural Support for Rollback Recovery in Shared-Memory
//! Multiprocessors"* (ISCA 2002): memory-based checkpointing, logging, and
//! distributed parity protection, all confined to the directory controller.
//!
//! * [`parity`] — distributed N+1 parity groups (Figure 3), XOR update
//!   messages (Figure 4), mirroring as the degenerate 1+1 case and the
//!   Section 8 mixed layout.
//! * [`log`] — the memory-resident log with validity markers and
//!   scan-based, bookkeeping-free recovery (Sections 3.2.2, 4.2).
//! * [`lbits`] — the Logged bits with gang-clear, including the lossy
//!   directory-cache variant (Section 4.1.2).
//! * [`dirext`] — the directory-controller extension tying the above into
//!   the coherence protocol's write hook, with Table 1 cost accounting.
//! * [`checkpoint`] — global two-phase-commit checkpoint configuration and
//!   Figure-6 timelines.
//! * [`redundancy`] — the one redundancy layout, a [`StripeCode`] of `G`
//!   data and `r` rotating redundancy members per stripe: the paper's XOR
//!   parity (`r = 1`), RAID-6-style P+Q double parity over GF(256)
//!   (`r = 2`) and ReStore-style k-replication (`G = 1`, `r = k`), for
//!   surviving multi-node loss.
//! * [`recovery`] — the four-phase rollback engine (Figure 7), operating on
//!   functional memory images for value-exact verification.
//! * [`availability`] — the availability arithmetic of Sections 3.3.2/6.3.
//! * [`validate`] — recovery-correctness oracles: a shadow log, a full
//!   parity-group auditor, and virtual-page memory images for differential
//!   (golden vs. injected) comparison.
//!
//! # Example: parity protects a lost line
//!
//! ```
//! use revive_core::parity::ParityMap;
//! use revive_mem::addr::{AddressMap, LineAddr, PAGE_SIZE};
//! use revive_mem::line::LineData;
//!
//! let map = AddressMap::new(4, 4 * PAGE_SIZE as u64);
//! let parity = ParityMap::new(map, 3);
//! // With an all-zero memory, every group XORs to zero:
//! let some_page = map.pages_of(revive_sim::types::NodeId(0))
//!     .find(|&p| !parity.is_redundancy_page(p)).unwrap();
//! assert_eq!(parity.check_group(some_page, |_| LineData::ZERO), None);
//! ```

pub mod availability;
pub mod checkpoint;
pub mod dirext;
pub mod lbits;
pub mod log;
pub mod parity;
pub mod recovery;
pub mod redundancy;
pub mod validate;

pub use availability::{monte_carlo_availability, nines, AvailabilityModel, OutcomeTally};
pub use checkpoint::{CheckpointConfig, CkptStats, CkptTimeline};
pub use dirext::{CostStats, OutMsg, ReviveHook};
pub use lbits::LBits;
pub use log::{MemLog, ReplayEntry};
pub use parity::{ParityAck, ParityMap, ParityUpdate};
pub use recovery::{recover, RecoveryError, RecoveryInput, RecoveryReport, RecoveryTiming};
pub use redundancy::{
    DoubleParityMap, LayoutError, Redundancy, RedundancyBackend, RedundancyGroup, ReplicationMap,
    StripeCode,
};
pub use validate::{
    audit_redundancy, IncrementalAudit, LogDivergence, MemoryDiff, MemoryImage, ParityAudit,
    ShadowLog,
};
