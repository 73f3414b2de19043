//! Memory subsystem models for the ReVive reproduction.
//!
//! * [`addr`] — byte/line/page addresses and the global↔node-local
//!   [`addr::AddressMap`].
//! * [`line`](mod@line) — functional 64-byte line contents with XOR (the parity
//!   primitive).
//! * [`cache`] — set-associative write-back caches with MESI states and
//!   true-LRU replacement (the paper's L1/L2).
//! * [`dram`] — banked DRAM timing with open-row modeling (Table 3).
//! * [`main_memory`] — functional, destructible per-node memory contents,
//!   with written-page tracking and copy-on-write shadows.
//!
//! # Example
//!
//! ```
//! use revive_mem::addr::{AddressMap, LineAddr};
//! use revive_mem::main_memory::NodeMemory;
//! use revive_mem::line::LineData;
//! use revive_sim::types::NodeId;
//!
//! let map = AddressMap::new(2, 64 * 1024);
//! let line = LineAddr(10);
//! assert_eq!(map.home_of_line(line), NodeId(0));
//!
//! let mut memory = NodeMemory::new(64 * 1024);
//! memory.write_line(map.local_line_index(line), LineData::fill(7));
//! ```

pub mod addr;
pub mod cache;
pub mod dram;
pub mod line;
pub mod main_memory;

pub use addr::{Addr, AddressMap, LineAddr, PageAddr, LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};
pub use cache::{Cache, CacheConfig, LineState, Victim};
pub use dram::{Dram, DramConfig, DramOp};
pub use line::LineData;
pub use main_memory::{MemShadow, NodeMemory, PageSet};
