//! First-touch page placement.
//!
//! "The data are allocated on the nodes of the machine according to the
//! first-touch policy" (Section 5): a virtual page is placed in the memory
//! of the first node that touches it, falling back to the globally
//! least-loaded node when the toucher's memory is full. Pages reserved for
//! parity and for the logs are never handed to applications.

use std::collections::HashMap;

use revive_mem::addr::{Addr, AddressMap, PageAddr, PAGE_SIZE};
use revive_sim::types::NodeId;

use crate::config::MachineError;

/// Virtual pages below this index live in a flat direct-indexed vector
/// (the translate fast path); anything sparser spills to a `HashMap`.
/// 1 Mi pages = 4 GiB of dense virtual address space, far beyond any
/// workload footprint here, so the spill map is effectively always empty.
const DENSE_VPAGES: u64 = 1 << 20;

/// Sentinel for "unmapped" in the dense table (no real page has this index
/// because it would require 2^64 bytes of physical memory).
const UNMAPPED: u64 = u64::MAX;

/// The machine-wide page table / physical allocator.
///
/// Lookups are two loads for the common case: virtual pages are dense and
/// small (workload footprints start at vaddr 0), so the table is a flat
/// `Vec<u64>` indexed by virtual page number, with a `HashMap` spill for
/// pathological sparse addresses.
#[derive(Debug)]
pub struct PageTable {
    map: AddressMap,
    dense: Vec<u64>,
    spill: HashMap<u64, PageAddr>,
    mapped: usize,
    free: Vec<Vec<PageAddr>>,
    allocated: Vec<PageAddr>,
}

impl PageTable {
    /// Creates a table whose free pool is every page for which
    /// `allocatable` returns true (the machine excludes parity and log
    /// pages).
    pub fn new<F>(map: AddressMap, mut allocatable: F) -> PageTable
    where
        F: FnMut(PageAddr) -> bool,
    {
        let free = (0..map.nodes())
            .map(|n| {
                let mut pages: Vec<PageAddr> = map
                    .pages_of(NodeId::from(n))
                    .filter(|&p| allocatable(p))
                    .collect();
                pages.reverse(); // pop() hands out low pages first
                pages
            })
            .collect();
        PageTable {
            map,
            dense: Vec::new(),
            spill: HashMap::new(),
            mapped: 0,
            free,
            allocated: Vec::new(),
        }
    }

    fn lookup(&self, vpage: u64) -> Option<PageAddr> {
        if vpage < DENSE_VPAGES {
            match self.dense.get(vpage as usize) {
                Some(&p) if p != UNMAPPED => Some(PageAddr(p)),
                _ => None,
            }
        } else {
            self.spill.get(&vpage).copied()
        }
    }

    fn record(&mut self, vpage: u64, page: PageAddr) {
        if vpage < DENSE_VPAGES {
            if self.dense.len() as u64 <= vpage {
                let grown = (vpage as usize + 1).next_power_of_two();
                self.dense.resize(grown, UNMAPPED);
            }
            self.dense[vpage as usize] = page.0;
        } else {
            self.spill.insert(vpage, page);
        }
        self.mapped += 1;
    }

    /// Translates a virtual address touched by `toucher`, allocating the
    /// page on first touch.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfMemory`] when no node has free pages.
    pub fn translate(&mut self, vaddr: u64, toucher: NodeId) -> Result<Addr, MachineError> {
        let vpage = vaddr / PAGE_SIZE as u64;
        let page = match self.lookup(vpage) {
            Some(p) => p,
            None => {
                let p = self.allocate(toucher)?;
                self.record(vpage, p);
                p
            }
        };
        Ok(Addr(page.base().0 + vaddr % PAGE_SIZE as u64))
    }

    fn allocate(&mut self, toucher: NodeId) -> Result<PageAddr, MachineError> {
        if let Some(p) = self.free[toucher.index()].pop() {
            self.allocated.push(p);
            return Ok(p);
        }
        // Toucher full: steal from the node with the most free pages.
        let richest = (0..self.free.len())
            .max_by_key(|&n| self.free[n].len())
            .expect("at least one node");
        match self.free[richest].pop() {
            Some(p) => {
                self.allocated.push(p);
                Ok(p)
            }
            None => Err(MachineError::OutOfMemory { needed: 1 }),
        }
    }

    /// Pages handed out so far, in allocation order.
    pub fn allocated_pages(&self) -> &[PageAddr] {
        &self.allocated
    }

    /// Free pages remaining on `node`.
    pub fn free_on(&self, node: NodeId) -> usize {
        self.free[node.index()].len()
    }

    /// Number of virtual pages mapped.
    pub fn mapped(&self) -> usize {
        self.mapped
    }

    /// Every established mapping as `(virtual page, physical page)`, sorted
    /// by virtual page — the basis for placement-independent memory images.
    pub fn mappings(&self) -> Vec<(u64, PageAddr)> {
        let mut v: Vec<(u64, PageAddr)> = self
            .dense
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p != UNMAPPED)
            .map(|(vp, &p)| (vp as u64, PageAddr(p)))
            .collect();
        v.extend(self.spill.iter().map(|(&vp, &p)| (vp, p)));
        v.sort_unstable_by_key(|&(vp, _)| vp);
        v
    }

    /// The address map this table allocates within.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PageTable {
        let map = AddressMap::new(2, 4 * PAGE_SIZE as u64);
        PageTable::new(map, |_| true)
    }

    #[test]
    fn first_touch_places_locally() {
        let mut t = table();
        let a = t.translate(100, NodeId(1)).unwrap();
        assert_eq!(t.address_map().home_of(a), NodeId(1));
        // Same virtual page resolves to the same physical page.
        let b = t.translate(200, NodeId(0)).unwrap();
        assert_eq!(a.page(), b.page());
        assert_eq!(b.0 - a.page().base().0, 200);
        assert_eq!(t.mapped(), 1);
    }

    #[test]
    fn falls_back_when_local_full() {
        let mut t = table();
        // Exhaust node 0 (4 pages).
        for v in 0..4u64 {
            t.translate(v * PAGE_SIZE as u64, NodeId(0)).unwrap();
        }
        assert_eq!(t.free_on(NodeId(0)), 0);
        let a = t.translate(100 * PAGE_SIZE as u64, NodeId(0)).unwrap();
        assert_eq!(t.address_map().home_of(a), NodeId(1));
    }

    #[test]
    fn out_of_memory_error() {
        let mut t = table();
        for v in 0..8u64 {
            t.translate(v * PAGE_SIZE as u64, NodeId(0)).unwrap();
        }
        let err = t.translate(99 * PAGE_SIZE as u64, NodeId(0)).unwrap_err();
        assert_eq!(err, MachineError::OutOfMemory { needed: 1 });
    }

    #[test]
    fn reserved_pages_are_never_allocated() {
        let map = AddressMap::new(2, 4 * PAGE_SIZE as u64);
        // Reserve even pages.
        let mut t = PageTable::new(map, |p| p.index() % 2 == 1);
        for v in 0..4u64 {
            let a = t.translate(v * PAGE_SIZE as u64, NodeId(0)).unwrap();
            assert_eq!(a.page().index() % 2, 1, "allocated a reserved page");
        }
    }

    #[test]
    fn sparse_addresses_spill_and_still_map() {
        let mut t = table();
        let sparse = (super::DENSE_VPAGES + 7) * PAGE_SIZE as u64 + 9;
        assert_eq!(t.mapped(), 0);
        let a = t.translate(sparse, NodeId(1)).unwrap();
        assert_eq!(t.translate(sparse, NodeId(0)), Ok(a));
        assert_eq!(t.mapped(), 1);
        let dense = t.translate(100, NodeId(0)).unwrap();
        assert_eq!(t.translate(100, NodeId(1)), Ok(dense));
        assert_eq!(t.mapped(), 2);
        let m = t.mappings();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].0, 0);
        assert_eq!(m[1].0, super::DENSE_VPAGES + 7);
    }

    #[test]
    fn allocation_order_is_tracked() {
        let mut t = table();
        t.translate(0, NodeId(0)).unwrap();
        t.translate(PAGE_SIZE as u64, NodeId(1)).unwrap();
        assert_eq!(t.allocated_pages().len(), 2);
    }
}
