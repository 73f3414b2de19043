//! Physical addresses, cache lines, and pages.
//!
//! The machine uses 64-byte cache lines and 4 KB pages (Table 3). Addresses
//! are *global physical addresses*: the upper bits select the home node, the
//! rest index into that node's local memory. The newtypes here keep byte
//! addresses, line numbers, and page numbers from being mixed up.

use std::fmt;

use revive_sim::fastdiv::FastDiv;
use revive_sim::types::NodeId;

/// Bytes per cache line (64 B, Table 3 of the paper).
pub const LINE_SIZE: usize = 64;
/// Bytes per page (4 KB).
pub const PAGE_SIZE: usize = 4096;
/// Cache lines per page.
pub const LINES_PER_PAGE: usize = PAGE_SIZE / LINE_SIZE;

/// A global physical byte address.
///
/// # Example
///
/// ```
/// use revive_mem::addr::{Addr, LINE_SIZE};
/// let a = Addr(130);
/// assert_eq!(a.line().index(), 2);
/// assert_eq!(a.line().base(), Addr((2 * LINE_SIZE) as u64));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this address.
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_SIZE as u64)
    }

    /// The page containing this address.
    pub fn page(self) -> PageAddr {
        PageAddr(self.0 / PAGE_SIZE as u64)
    }

    /// Offset within the containing line.
    pub fn line_offset(self) -> usize {
        (self.0 % LINE_SIZE as u64) as usize
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A global cache-line number (byte address divided by [`LINE_SIZE`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The line number as a plain index.
    pub fn index(self) -> u64 {
        self.0
    }

    /// First byte address of the line.
    pub fn base(self) -> Addr {
        Addr(self.0 * LINE_SIZE as u64)
    }

    /// The page containing this line.
    pub fn page(self) -> PageAddr {
        PageAddr(self.0 / LINES_PER_PAGE as u64)
    }

    /// Position of this line within its page (`0..LINES_PER_PAGE`).
    pub fn index_in_page(self) -> usize {
        (self.0 % LINES_PER_PAGE as u64) as usize
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// A global page number (byte address divided by [`PAGE_SIZE`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageAddr(pub u64);

impl PageAddr {
    /// The page number as a plain index.
    pub fn index(self) -> u64 {
        self.0
    }

    /// First byte address of the page.
    pub fn base(self) -> Addr {
        Addr(self.0 * PAGE_SIZE as u64)
    }

    /// First line of the page.
    pub fn first_line(self) -> LineAddr {
        LineAddr(self.0 * LINES_PER_PAGE as u64)
    }

    /// Iterates over all lines of the page.
    pub fn lines(self) -> impl Iterator<Item = LineAddr> {
        let first = self.first_line().0;
        (first..first + LINES_PER_PAGE as u64).map(LineAddr)
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:#x}", self.0)
    }
}

/// Maps global addresses to their home node and node-local offsets.
///
/// The global physical address space is the concatenation of every node's
/// local memory: node `k` homes bytes `[k·M, (k+1)·M)` where `M` is
/// [`AddressMap::bytes_per_node`]. This matches a CC-NUMA machine where the
/// OS allocates pages to nodes (the first-touch policy of the paper is
/// implemented at the page-table layer in `revive-machine`, which hands out
/// global pages from the desired node's range).
///
/// # Example
///
/// ```
/// use revive_mem::addr::{AddressMap, PageAddr};
/// use revive_sim::types::NodeId;
///
/// let map = AddressMap::new(4, 1 << 20); // 4 nodes, 1 MiB each
/// let page = PageAddr(256); // first page of node 1's megabyte
/// assert_eq!(map.home_of_page(page), NodeId(1));
/// assert_eq!(map.local_page_index(page), 0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct AddressMap {
    nodes: usize,
    bytes_per_node: u64,
    /// `/ %` by `bytes_per_node`, strength-reduced (hot in every send and
    /// translation).
    node_div: FastDiv,
}

impl AddressMap {
    /// Creates a map for `nodes` nodes of `bytes_per_node` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_node` is not a whole number of pages, or if
    /// either argument is zero.
    pub fn new(nodes: usize, bytes_per_node: u64) -> AddressMap {
        assert!(nodes > 0, "need at least one node");
        assert!(
            bytes_per_node > 0 && bytes_per_node.is_multiple_of(PAGE_SIZE as u64),
            "node memory must be a nonzero whole number of pages"
        );
        AddressMap {
            nodes,
            bytes_per_node,
            node_div: FastDiv::new(bytes_per_node),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Local memory size per node, in bytes.
    pub fn bytes_per_node(&self) -> u64 {
        self.bytes_per_node
    }

    /// Pages per node.
    pub fn pages_per_node(&self) -> u64 {
        self.bytes_per_node / PAGE_SIZE as u64
    }

    /// Lines per node.
    pub fn lines_per_node(&self) -> u64 {
        self.bytes_per_node / LINE_SIZE as u64
    }

    /// The home node of a byte address.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the machine's memory.
    #[inline]
    pub fn home_of(&self, a: Addr) -> NodeId {
        let node = self.node_div.div(a.0);
        assert!(
            (node as usize) < self.nodes,
            "address {a} outside machine memory"
        );
        NodeId::from(node as usize)
    }

    /// The home node of a line.
    pub fn home_of_line(&self, l: LineAddr) -> NodeId {
        self.home_of(l.base())
    }

    /// The home node of a page.
    pub fn home_of_page(&self, p: PageAddr) -> NodeId {
        self.home_of(p.base())
    }

    /// Byte offset of an address within its home node's local memory.
    #[inline]
    pub fn local_offset(&self, a: Addr) -> u64 {
        self.node_div.rem(a.0)
    }

    /// Line index of a line within its home node's local memory.
    pub fn local_line_index(&self, l: LineAddr) -> u64 {
        self.local_offset(l.base()) / LINE_SIZE as u64
    }

    /// Page index of a page within its home node's local memory.
    pub fn local_page_index(&self, p: PageAddr) -> u64 {
        self.local_offset(p.base()) / PAGE_SIZE as u64
    }

    /// The global page at `(node, local_page_index)`.
    ///
    /// # Panics
    ///
    /// Panics if `local` is outside the node's memory.
    pub fn global_page(&self, node: NodeId, local: u64) -> PageAddr {
        assert!(
            local < self.pages_per_node(),
            "local page index {local} out of range"
        );
        PageAddr(node.index() as u64 * self.pages_per_node() + local)
    }

    /// The global line at `(node, local_line_index)`.
    ///
    /// # Panics
    ///
    /// Panics if `local` is outside the node's memory.
    pub fn global_line(&self, node: NodeId, local: u64) -> LineAddr {
        assert!(
            local < self.lines_per_node(),
            "local line index {local} out of range"
        );
        LineAddr(node.index() as u64 * self.lines_per_node() + local)
    }

    /// Iterates over all global pages homed on `node`.
    pub fn pages_of(&self, node: NodeId) -> impl Iterator<Item = PageAddr> {
        let first = node.index() as u64 * self.pages_per_node();
        (first..first + self.pages_per_node()).map(PageAddr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_decomposition() {
        let a = Addr(4096 + 130);
        assert_eq!(a.line(), LineAddr((4096 + 128) / 64));
        assert_eq!(a.page(), PageAddr(1));
        assert_eq!(a.line_offset(), 2);
    }

    #[test]
    fn line_page_relationships() {
        let p = PageAddr(3);
        let lines: Vec<LineAddr> = p.lines().collect();
        assert_eq!(lines.len(), LINES_PER_PAGE);
        assert_eq!(lines[0], p.first_line());
        for (i, l) in lines.iter().enumerate() {
            assert_eq!(l.page(), p);
            assert_eq!(l.index_in_page(), i);
        }
    }

    #[test]
    fn homes_partition_the_space() {
        let map = AddressMap::new(4, 2 * PAGE_SIZE as u64);
        let homes: Vec<NodeId> = (0..8).map(|p| map.home_of_page(PageAddr(p))).collect();
        assert_eq!(homes, [0, 0, 1, 1, 2, 2, 3, 3].map(NodeId).to_vec());
    }

    #[test]
    fn global_local_round_trip() {
        let map = AddressMap::new(3, 4 * PAGE_SIZE as u64);
        for node in NodeId::all(3) {
            for local in 0..map.pages_per_node() {
                let g = map.global_page(node, local);
                assert_eq!(map.home_of_page(g), node);
                assert_eq!(map.local_page_index(g), local);
            }
        }
        for node in NodeId::all(3) {
            for local in (0..map.lines_per_node()).step_by(17) {
                let g = map.global_line(node, local);
                assert_eq!(map.home_of_line(g), node);
                assert_eq!(map.local_line_index(g), local);
            }
        }
    }

    #[test]
    fn pages_of_matches_home() {
        let map = AddressMap::new(2, 3 * PAGE_SIZE as u64);
        let pages: Vec<PageAddr> = map.pages_of(NodeId(1)).collect();
        assert_eq!(pages.len(), 3);
        assert!(pages.iter().all(|&p| map.home_of_page(p) == NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "outside machine memory")]
    fn out_of_range_address_panics() {
        let map = AddressMap::new(2, PAGE_SIZE as u64);
        map.home_of(Addr(2 * PAGE_SIZE as u64));
    }

    #[test]
    #[should_panic(expected = "whole number of pages")]
    fn ragged_node_memory_rejected() {
        let _ = AddressMap::new(2, 100);
    }
}
