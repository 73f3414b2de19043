//! Distributed N+1 parity (Section 3.2.1 of the paper) and its update
//! messages.
//!
//! Memory pages are organized into parity groups of `G` data pages plus one
//! parity page, each page on a *different* node, with parity pages
//! distributed evenly across the system (Figure 3). The node count must be
//! a multiple of the group size `G + 1` (Section 6.2). Nodes are
//! partitioned into *chunks* of `G + 1` consecutive nodes; for stripe `s`
//! the page at chunk position `s mod (G + 1)` is the parity page and the
//! other `G` are its data pages, so every node dedicates `1/(G+1)` of its
//! memory to parity — 12.5 % for the paper's 7+1 configuration, 50 % for
//! mirroring (`G = 1`). This is the `r = 1` row of the one
//! [`StripeCode`], built by [`ParityMap`].
//!
//! The invariant maintained by the ReVive hardware, and checked by
//! [`StripeCode::check_group`], is: for every line offset within every
//! group, `data₀ ^ … ^ data_{G-1} ^ parity == 0`.

use revive_mem::addr::{AddressMap, LineAddr};
use revive_mem::line::LineData;

use crate::redundancy::StripeCode;

/// Constructors for the paper's N+1 parity layouts.
///
/// # Example
///
/// ```
/// use revive_core::parity::ParityMap;
/// use revive_mem::addr::AddressMap;
///
/// // 16 nodes, 7+1 parity: 12.5% of memory is parity.
/// let map = AddressMap::new(16, 64 * 4096);
/// let parity = ParityMap::new(map, 7);
/// assert_eq!(parity.storage_overhead(), 0.125);
/// ```
#[derive(Debug)]
pub enum ParityMap {}

// The constructor is named for its scheme and returns the one code.
#[allow(clippy::new_ret_no_self)]
impl ParityMap {
    /// N+1 parity with `group_data_pages` data pages per group (`1`
    /// selects mirroring, whose updates carry values).
    ///
    /// # Panics
    ///
    /// Panics if `group_data_pages` is zero or the node count is not a
    /// multiple of `group_data_pages + 1`.
    pub fn new(map: AddressMap, group_data_pages: usize) -> StripeCode {
        ParityMap::mixed(map, group_data_pages, 0)
    }

    /// The *mixed* layout: the lowest `mirrored_stripes` local page
    /// indices are mirrored (1+1), everything above uses
    /// `group_data_pages`+1 parity (the paper's Section 8 extension:
    /// "mirroring support for the most frequently accessed pages and N+1
    /// parity for all other pages"). The machine's first-touch allocator
    /// hands out low pages first, which approximates the paper's "careful
    /// allocation of frequently used pages into the mirrored region".
    ///
    /// # Panics
    ///
    /// Panics if `group_data_pages` is zero, the node count is not a
    /// multiple of both chunk sizes, or `mirrored_stripes` exceeds the
    /// node's page count.
    pub fn mixed(map: AddressMap, group_data_pages: usize, mirrored_stripes: u64) -> StripeCode {
        StripeCode::expect_new(
            map,
            group_data_pages,
            1,
            group_data_pages == 1,
            mirrored_stripes,
            "parity group needs data pages",
            "parity group size",
        )
    }
}

/// A parity-update message: XOR deltas to apply at the parity home
/// (Figure 4's `U = D ^ D'`). One message may carry the deltas of a log
/// entry's adjacent lines when they share a parity home.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParityUpdate {
    /// The protected line whose directory entry is Busy awaiting this
    /// update's acknowledgment; `None` for fire-and-forget updates (e.g.
    /// checkpoint-commit markers).
    pub ack_to_line: Option<LineAddr>,
    /// `(parity line, delta)` pairs to XOR in at the destination.
    pub deltas: Vec<(LineAddr, LineData)>,
}

impl ParityUpdate {
    /// Wire size: header plus one line payload per delta.
    pub fn size_bytes(&self) -> u32 {
        8 + 64 * self.deltas.len() as u32
    }
}

/// Acknowledgment of a [`ParityUpdate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParityAck {
    /// The protected line whose directory entry awaits this ack.
    pub ack_to_line: LineAddr,
}

impl ParityAck {
    /// Wire size (control message).
    pub fn size_bytes(&self) -> u32 {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redundancy::Redundancy;
    use revive_mem::addr::{PageAddr, PAGE_SIZE};
    use revive_sim::types::NodeId;

    fn setup(nodes: usize, pages_per_node: u64, g: usize) -> StripeCode {
        let map = AddressMap::new(nodes, pages_per_node * PAGE_SIZE as u64);
        ParityMap::new(map, g)
    }

    /// The parity page of a data page's group.
    fn parity_of(pm: &StripeCode, page: PageAddr) -> PageAddr {
        pm.group_of(page).redundancy[0]
    }

    #[test]
    fn storage_overhead_matches_paper() {
        assert_eq!(setup(16, 16, 7).storage_overhead(), 0.125);
        assert_eq!(setup(16, 16, 1).storage_overhead(), 0.5);
        let mirror = setup(16, 16, 1);
        let map = *mirror.address_map();
        assert!(map.pages_of(NodeId(0)).all(|p| mirror.stores_values(p)));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn group_size_must_divide_nodes() {
        let _ = setup(16, 16, 4); // chunk 5 does not divide 16
    }

    #[test]
    fn every_page_is_data_or_parity_consistently() {
        let pm = setup(8, 16, 3); // chunks of 4
        let map = *pm.address_map();
        let mut data = 0;
        let mut parity = 0;
        for node in NodeId::all(8) {
            for page in map.pages_of(node) {
                if pm.is_redundancy_page(page) {
                    parity += 1;
                    // Its data pages must all be non-parity and in distinct
                    // nodes of the same chunk.
                    let g = pm.group_of(page);
                    assert_eq!(g.redundancy, vec![page]);
                    assert_eq!(g.data.len(), 3);
                    for dp in &g.data {
                        assert!(!pm.is_redundancy_page(*dp));
                        assert_eq!(parity_of(&pm, *dp), page);
                    }
                    let mut nodes: Vec<usize> = g
                        .data
                        .iter()
                        .map(|p| map.home_of_page(*p).index())
                        .collect();
                    nodes.push(map.home_of_page(page).index());
                    nodes.sort_unstable();
                    nodes.dedup();
                    assert_eq!(nodes.len(), 4, "group spans distinct nodes");
                } else {
                    data += 1;
                }
            }
        }
        // 1/4 of pages are parity.
        assert_eq!(parity * 3, data);
    }

    #[test]
    fn parity_is_distributed_evenly() {
        let pm = setup(16, 64, 7);
        let map = *pm.address_map();
        for node in NodeId::all(16) {
            let n_parity = map
                .pages_of(node)
                .filter(|&p| pm.is_redundancy_page(p))
                .count();
            assert_eq!(n_parity, 8, "each node holds 1/8 of its pages as parity");
        }
    }

    #[test]
    fn parity_line_shares_page_offset() {
        let pm = setup(8, 16, 3);
        let map = *pm.address_map();
        // Find some data page and check line mapping.
        let page = map
            .pages_of(NodeId(1))
            .find(|&p| !pm.is_redundancy_page(p))
            .unwrap();
        let line = LineAddr(page.first_line().0 + 5);
        let update = pm.expand_update(line, LineData::fill(3));
        assert_eq!(update.len(), 1);
        let (pline, delta) = update[0];
        assert_eq!(pline.index_in_page(), 5);
        assert_eq!(pline.page(), parity_of(&pm, page));
        assert_eq!(
            delta,
            LineData::fill(3),
            "XOR parity ships the delta unscaled"
        );
    }

    #[test]
    fn mirroring_pairs_nodes() {
        let pm = setup(4, 8, 1); // chunks of 2: (0,1), (2,3)
        let map = *pm.address_map();
        for page in map.pages_of(NodeId(0)) {
            if !pm.is_redundancy_page(page) {
                let mirror = parity_of(&pm, page);
                assert_eq!(map.home_of_page(mirror), NodeId(1));
                assert_eq!(pm.group_of(mirror).data, vec![page]);
            }
        }
    }

    #[test]
    fn group_of_round_trips() {
        let pm = setup(8, 16, 3);
        let map = *pm.address_map();
        let page = map
            .pages_of(NodeId(2))
            .find(|&p| !pm.is_redundancy_page(p))
            .unwrap();
        let g = pm.group_of(page);
        assert!(g.data.contains(&page));
        assert_eq!(pm.group_of(g.redundancy[0]), g);
    }

    #[test]
    fn check_group_detects_violations() {
        let pm = setup(4, 4, 1);
        let map = *pm.address_map();
        let page = map
            .pages_of(NodeId(0))
            .find(|&p| !pm.is_redundancy_page(p))
            .unwrap();
        // All-zero memory satisfies the invariant.
        assert_eq!(pm.check_group(page, |_| LineData::ZERO), None);
        // Corrupt one line.
        let bad = LineAddr(page.first_line().0 + 3);
        let violation = pm.check_group(page, |l| {
            if l == bad {
                LineData::fill(1)
            } else {
                LineData::ZERO
            }
        });
        assert_eq!(violation, Some(3));
    }

    #[test]
    fn mixed_layout_blends_modes() {
        let map = AddressMap::new(8, 16 * PAGE_SIZE as u64);
        let pm = ParityMap::mixed(map, 3, 4); // 4 mirrored stripes of 16
                                              // Low stripes are mirrored: their groups have exactly one data page
                                              // and carry values.
        let low = map.global_page(NodeId(1), 0); // stripe 0, pos 1 (chunk 2) => data
        assert!(pm.stores_values(low));
        assert!(!pm.is_redundancy_page(low));
        let mirror = parity_of(&pm, low);
        assert_eq!(pm.group_of(mirror).data, vec![low]);
        // High stripes use 3+1 parity.
        let high = map.global_page(NodeId(1), 5);
        assert!(!pm.stores_values(high));
        assert_eq!(pm.group_of(high).data.len(), 3);
        // Storage overhead interpolates between 1/2 and 1/4.
        let expected = (4.0 / 2.0 + 12.0 / 4.0) / 16.0;
        assert!((pm.storage_overhead() - expected).abs() < 1e-12);
    }

    #[test]
    fn mixed_zero_stripes_equals_plain_parity() {
        let a = setup(8, 16, 3);
        let map = AddressMap::new(8, 16 * PAGE_SIZE as u64);
        let b = ParityMap::mixed(map, 3, 0);
        for node in NodeId::all(8) {
            for page in map.pages_of(node) {
                assert_eq!(a.is_redundancy_page(page), b.is_redundancy_page(page));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed the node's pages")]
    fn mixed_stripe_bound_checked() {
        let map = AddressMap::new(8, 4 * PAGE_SIZE as u64);
        let _ = ParityMap::mixed(map, 3, 5);
    }

    #[test]
    fn budget_allows_cross_chunk_losses_only() {
        // 8 nodes, 3+1 parity: chunks {0..3} and {4..7}.
        let pm = Redundancy::Xor(setup(8, 16, 3));
        assert_eq!(pm.overwhelmed_group(&[]), None);
        assert_eq!(pm.overwhelmed_group(&[NodeId(2)]), None);
        // Different chunks: every group loses at most one member.
        assert_eq!(pm.overwhelmed_group(&[NodeId(1), NodeId(5)]), None);
        // Same chunk: some group loses two members.
        let g = pm.overwhelmed_group(&[NodeId(1), NodeId(2)]).unwrap();
        let map = *pm.address_map();
        let lost_members = g
            .redundancy
            .iter()
            .chain(g.data.iter())
            .filter(|&&p| matches!(map.home_of_page(p), NodeId(1) | NodeId(2)))
            .count();
        assert_eq!(lost_members, 2);
        // Duplicate entries are one loss, not two.
        assert_eq!(pm.overwhelmed_group(&[NodeId(3), NodeId(3)]), None);
    }

    #[test]
    fn budget_respects_mixed_layout_chunking() {
        // Mirrored stripes pair nodes (0,1)(2,3)...; the parity region
        // chunks {0..3}{4..7}. Nodes 1 and 2 share a parity-region chunk but
        // no mirror pair; nodes 0 and 1 share both.
        let map = AddressMap::new(8, 16 * PAGE_SIZE as u64);
        let pm = Redundancy::Xor(ParityMap::mixed(map, 3, 4));
        assert!(pm.overwhelmed_group(&[NodeId(1), NodeId(2)]).is_some());
        assert!(pm.overwhelmed_group(&[NodeId(0), NodeId(1)]).is_some());
        assert_eq!(pm.overwhelmed_group(&[NodeId(1), NodeId(6)]), None);
    }

    #[test]
    fn update_message_sizes() {
        let u = ParityUpdate {
            ack_to_line: Some(LineAddr(1)),
            deltas: vec![(LineAddr(2), LineData::ZERO), (LineAddr(3), LineData::ZERO)],
        };
        assert_eq!(u.size_bytes(), 8 + 128);
        assert_eq!(
            ParityAck {
                ack_to_line: LineAddr(1)
            }
            .size_bytes(),
            8
        );
    }
}
