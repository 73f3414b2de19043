//! Redundancy layouts: one stripe code.
//!
//! Every scheme the machine supports is the same rotating-chunk layout
//! with a different number of members. Nodes are partitioned into chunks
//! of `G + r` consecutive nodes, and stripe `s` (the page at local index
//! `s` on every node of a chunk) has
//!
//! * `r` redundancy members, member `j` at chunk position
//!   `(s + j) mod (G + r)`, so redundancy rotates evenly over the nodes;
//! * `G` data members at the remaining positions, in chunk order;
//! * the equations `redundancy_j = Σᵢ g^(i·j) · dataᵢ` over GF(256): the
//!   coefficient of data member `i` in equation `j` is 1 for XOR parity
//!   and for every copy, 1 and `gⁱ` for P and Q.
//!
//! The schemes are rows of that one formula:
//!
//! | scheme | constructor | `G` | `r` | updates carry |
//! |---|---|---|---|---|
//! | N+1 XOR parity (§3.2.1) | [`ParityMap::new`](crate::parity::ParityMap::new) | N | 1 | deltas |
//! | mirroring (§3.2.1's 1+1 group) | [`ParityMap::new`](crate::parity::ParityMap::new) with N = 1 | 1 | 1 | values |
//! | mixed (§8) | [`ParityMap::mixed`](crate::parity::ParityMap::mixed) | 1 below the split, N above | 1 | values below, deltas above |
//! | RAID-6 P+Q | [`DoubleParityMap::new`] | G | 2 | deltas |
//! | ReStore-style k-replication | [`ReplicationMap::new`] | 1 | k | values |
//!
//! A code tolerates `r` lost members per chunk (its budget), stores `r`
//! pages of redundancy per `G + r`, and rebuilds a page from `G` others.
//! Value-carrying updates (copies) overwrite at their destination, delta
//! updates XOR into it; [`StripeCode::apply_update`] is that rule.
//!
//! # GF(256)
//!
//! The Q parity uses the field GF(2⁸) with the primitive polynomial
//! `x⁸+x⁴+x³+x²+1` (0x11d) and generator 2: `Q = Σ gⁱ·dᵢ`. Losing two
//! chunk members leaves a 2×2 system over the field, solved per byte.

use std::fmt;
use std::ops::Deref;

use revive_mem::addr::{AddressMap, LineAddr, PageAddr, LINES_PER_PAGE};
use revive_mem::line::LineData;
use revive_sim::types::NodeId;

// ---------------------------------------------------------------------------
// GF(256) arithmetic
// ---------------------------------------------------------------------------

/// Exp/log tables for GF(2⁸) with polynomial 0x11d, generator 2. The exp
/// table is doubled so `exp[log a + log b]` never needs a modulo.
const fn gf_tables() -> ([u8; 510], [u8; 256]) {
    let mut exp = [0u8; 510];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0usize;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
        i += 1;
    }
    (exp, log)
}

static GF: ([u8; 510], [u8; 256]) = gf_tables();

/// Multiplication in GF(256).
pub fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    GF.0[GF.1[a as usize] as usize + GF.1[b as usize] as usize]
}

/// Multiplicative inverse in GF(256).
///
/// # Panics
///
/// Panics on 0, which has no inverse.
pub fn gf_inv(a: u8) -> u8 {
    assert!(a != 0, "0 has no inverse in GF(256)");
    GF.0[255 - GF.1[a as usize] as usize]
}

/// The generator raised to `i`: `2^i` in GF(256).
pub fn gf_pow(i: usize) -> u8 {
    GF.0[i % 255]
}

/// Scales every byte of a line by `c` in GF(256) (`c = 1` is the identity,
/// so XOR-parity deltas pass through untouched).
pub fn gf_scale(data: LineData, c: u8) -> LineData {
    if c == 1 {
        return data;
    }
    let mut out = [0u8; 64];
    for (o, b) in out.iter_mut().zip(data.as_bytes()) {
        *o = gf_mul(*b, c);
    }
    LineData(out)
}

// ---------------------------------------------------------------------------
// The stripe code
// ---------------------------------------------------------------------------

/// One redundancy group: the data pages it protects and the redundancy
/// pages protecting them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RedundancyGroup {
    /// The protected data pages, in chunk order (data member `i` is
    /// `data[i]`).
    pub data: Vec<PageAddr>,
    /// The redundancy pages: parity members by equation (P before Q);
    /// copies, which are interchangeable, in chunk order.
    pub redundancy: Vec<PageAddr>,
}

/// A member's place in its stripe's equations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Member {
    /// Data member `i`.
    Data(usize),
    /// Redundancy member `j` (it appears in equation `j` only).
    Redundancy(usize),
}

impl Member {
    /// The member's coefficient in equation `j`.
    fn coefficient(self, j: usize) -> u8 {
        match self {
            Member::Data(i) => gf_pow(i * j),
            Member::Redundancy(own) => u8::from(own == j),
        }
    }
}

impl RedundancyGroup {
    /// Every member with its place in the equations, data first. Copies
    /// are numbered in list order; their equations only permute.
    fn members(&self) -> impl Iterator<Item = (PageAddr, Member)> + '_ {
        let data = self.data.iter().enumerate();
        let redundancy = self.redundancy.iter().enumerate();
        data.map(|(i, &p)| (p, Member::Data(i)))
            .chain(redundancy.map(|(j, &p)| (p, Member::Redundancy(j))))
    }
}

/// Why a stripe code cannot be laid out on a machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// `G = 0`.
    NoData,
    /// `r = 0`.
    NoRedundancy,
    /// Value-carrying updates with `G > 1` (a copy protects one page).
    CopiesOfManyPages,
    /// A parity code with more members than the P+Q solve handles.
    ParityTooWide,
    /// The chunk of `G + r` nodes does not divide the node count.
    ChunkDoesNotDivide {
        /// `G + r`.
        chunk: usize,
        /// The machine's node count.
        nodes: usize,
    },
    /// A mirrored region on an odd node count (mirrors pair nodes).
    OddMirroredNodes {
        /// The machine's node count.
        nodes: usize,
    },
    /// A mirrored region longer than a node's pages.
    MirroredExceedsPages,
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::NoData => write!(f, "a redundancy group needs at least one data page"),
            LayoutError::NoRedundancy => write!(
                f,
                "a redundancy group needs at least one redundancy page (at least one replica)"
            ),
            LayoutError::CopiesOfManyPages => {
                write!(f, "value-carrying updates protect exactly one data page")
            }
            LayoutError::ParityTooWide => write!(f, "parity codes carry at most two members"),
            LayoutError::ChunkDoesNotDivide { chunk, nodes } => {
                write!(f, "chunk {chunk} does not divide node count {nodes}")
            }
            LayoutError::OddMirroredNodes { nodes } => write!(
                f,
                "a mirrored region needs an even node count (mixed mode on {nodes} nodes)"
            ),
            LayoutError::MirroredExceedsPages => {
                write!(f, "mirrored stripes exceed the node's pages")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// The machine's redundancy layout: `G` data and `r` rotating redundancy
/// members per stripe (see the module docs), optionally below a 1+1 copy
/// region of `mirrored` stripes. `Copy`, so the machine and every
/// directory hook hold it by value.
#[derive(Clone, Copy, Debug)]
pub struct StripeCode {
    map: AddressMap,
    /// `G` above the mirrored region.
    data: usize,
    /// `r` above the mirrored region.
    redundancy: usize,
    /// Whether updates above the mirrored region carry values (copies)
    /// rather than deltas (parity).
    copies: bool,
    /// Stripes `[0, mirrored)` are 1+1 copies (the paper's §8 extension:
    /// "mirroring support for the most frequently accessed pages and N+1
    /// parity for all other pages").
    mirrored: u64,
}

/// Where a page sits in the code.
#[derive(Clone, Copy, Debug)]
struct Slot {
    stripe: u64,
    node: usize,
    /// The page's chunk position.
    pos: usize,
    /// `G + r` at this stripe.
    chunk: usize,
    /// `r` at this stripe.
    redundancy: usize,
    /// Chunk position of redundancy member 0 (`stripe mod chunk`).
    first: usize,
    /// Whether this stripe's updates carry values.
    copies: bool,
}

impl Slot {
    /// The equation of the redundancy member at chunk position `pos`, or
    /// `None` for a data position.
    fn redundancy_at(&self, pos: usize) -> Option<usize> {
        let j = if pos >= self.first {
            pos - self.first
        } else {
            pos + self.chunk - self.first
        };
        (j < self.redundancy).then_some(j)
    }

    /// The member at chunk position `pos` of this stripe.
    fn member_at(&self, pos: usize) -> Member {
        if let Some(j) = self.redundancy_at(pos) {
            return Member::Redundancy(j);
        }
        // A data position past the redundancy run has all `r` members
        // before it; one before the run, only those that wrapped around.
        let redundancy_before = if pos > self.first {
            self.redundancy
        } else {
            (self.first + self.redundancy).saturating_sub(self.chunk)
        };
        Member::Data(pos - redundancy_before)
    }

    /// Chunk positions of the stripe's redundancy members with their
    /// equations, in [`RedundancyGroup::redundancy`] order: copies are
    /// interchangeable and listed in chunk order, parity members by
    /// equation.
    fn redundancy_positions(self) -> impl Iterator<Item = (usize, usize)> {
        let candidates = if self.copies {
            self.chunk
        } else {
            self.redundancy
        };
        (0..candidates).filter_map(move |t| {
            let pos = match self.copies {
                true => t,
                false if self.first + t >= self.chunk => self.first + t - self.chunk,
                false => self.first + t,
            };
            self.redundancy_at(pos).map(|j| (j, pos))
        })
    }
}

impl StripeCode {
    /// Lays out `data` + `redundancy` members per stripe on `map`, with
    /// the lowest `mirrored` stripes of every node as 1+1 copies. `copies`
    /// selects value-carrying updates above that region.
    ///
    /// # Errors
    ///
    /// Returns the first [`LayoutError`] among: no data or no redundancy
    /// members, copies of more than one page, parity wider than P+Q, a
    /// chunk that does not divide the node count, and a mirrored region
    /// on an odd node count or longer than a node's pages.
    pub fn try_new(
        map: AddressMap,
        data: usize,
        redundancy: usize,
        copies: bool,
        mirrored: u64,
    ) -> Result<StripeCode, LayoutError> {
        if data == 0 {
            return Err(LayoutError::NoData);
        }
        if redundancy == 0 {
            return Err(LayoutError::NoRedundancy);
        }
        if copies && data > 1 {
            return Err(LayoutError::CopiesOfManyPages);
        }
        if !copies && redundancy > 2 {
            return Err(LayoutError::ParityTooWide);
        }
        let nodes = map.nodes();
        let chunk = data + redundancy;
        if !nodes.is_multiple_of(chunk) {
            return Err(LayoutError::ChunkDoesNotDivide { chunk, nodes });
        }
        if mirrored > 0 {
            if !nodes.is_multiple_of(2) {
                return Err(LayoutError::OddMirroredNodes { nodes });
            }
            if mirrored > map.pages_per_node() {
                return Err(LayoutError::MirroredExceedsPages);
            }
        }
        Ok(StripeCode {
            map,
            data,
            redundancy,
            copies,
            mirrored,
        })
    }

    /// [`StripeCode::try_new`] for the fixed constructors: panics with
    /// `no_members` when a stripe lacks members and names the chunk as
    /// `chunk_noun` when it does not divide the node count.
    pub(crate) fn expect_new(
        map: AddressMap,
        data: usize,
        redundancy: usize,
        copies: bool,
        mirrored: u64,
        no_members: &str,
        chunk_noun: &str,
    ) -> StripeCode {
        match StripeCode::try_new(map, data, redundancy, copies, mirrored) {
            Ok(code) => code,
            Err(LayoutError::NoData | LayoutError::NoRedundancy) => panic!("{no_members}"),
            Err(LayoutError::ChunkDoesNotDivide { chunk, nodes }) => {
                panic!("node count {nodes} is not a multiple of the {chunk_noun} {chunk}")
            }
            Err(LayoutError::OddMirroredNodes { nodes }) => {
                panic!("mirroring pairs nodes; node count {nodes} is odd")
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// The values-vs-deltas rule, in one place: value-carrying updates
    /// replace, delta updates XOR. It serves both ends of an update: a
    /// write of `old` → `new` ships `apply_update(values, old, new)` (the
    /// value `new`, or the delta `old ^ new`), and a destination holding
    /// `current` stores `apply_update(values, current, payload)`.
    pub fn apply_update(values: bool, base: LineData, update: LineData) -> LineData {
        if values {
            update
        } else {
            base ^ update
        }
    }

    /// The address map this layout covers.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Lost members tolerated per chunk (`r`): the code rebuilds any loss
    /// of at most this many members per chunk.
    pub fn budget(&self) -> usize {
        self.redundancy
    }

    /// Remote pages read to rebuild one lost page (the recovery timing
    /// model's fan-in): `G`, which is 1 for copies.
    pub fn rebuild_fanin(&self) -> usize {
        self.data
    }

    /// Fraction of memory holding redundancy: `r/(G+r)`, blended with the
    /// mirrored region's 1/2 by stripe count.
    pub fn storage_overhead(&self) -> f64 {
        let total = self.map.pages_per_node() as f64;
        let mirrored = self.mirrored as f64;
        let chunk = (self.data + self.redundancy) as f64;
        (mirrored / 2.0 + (total - mirrored) * self.redundancy as f64 / chunk) / total
    }

    /// `(G, r, copies)` at `stripe`.
    fn shape(&self, stripe: u64) -> (usize, usize, bool) {
        if stripe < self.mirrored {
            (1, 1, true)
        } else {
            (self.data, self.redundancy, self.copies)
        }
    }

    fn slot(&self, page: PageAddr) -> Slot {
        let node = self.map.home_of_page(page).index();
        let stripe = self.map.local_page_index(page);
        let (data, redundancy, copies) = self.shape(stripe);
        let chunk = data + redundancy;
        Slot {
            stripe,
            node,
            pos: node % chunk,
            chunk,
            redundancy,
            first: (stripe % chunk as u64) as usize,
            copies,
        }
    }

    /// The page at chunk position `pos` of `slot`'s stripe.
    fn page_at(&self, slot: &Slot, pos: usize) -> PageAddr {
        self.map
            .global_page(NodeId::from(slot.node - slot.pos + pos), slot.stripe)
    }

    /// Whether `page` holds redundancy (parity or a copy) rather than
    /// application data.
    pub fn is_redundancy_page(&self, page: PageAddr) -> bool {
        let slot = self.slot(page);
        slot.redundancy_at(slot.pos).is_some()
    }

    /// Whether `page` is its group's first redundancy page,
    /// `group_of(page).redundancy[0]`: P for P+Q, the parity page for XOR,
    /// the lowest chunk position for copies. Each group has exactly one.
    pub(crate) fn is_group_anchor(&self, page: PageAddr) -> bool {
        let slot = self.slot(page);
        // Parity lists members by equation, so member 0 comes first; copies
        // list in chunk order, where a run of members that wraps past the
        // chunk's end starts at position 0.
        let anchor = if slot.copies && slot.first + slot.redundancy > slot.chunk {
            0
        } else {
            slot.first
        };
        slot.pos == anchor
    }

    /// Whether updates protecting `page` carry values applied by overwrite
    /// (copies) instead of XOR deltas (parity).
    pub fn stores_values(&self, page: PageAddr) -> bool {
        self.shape(self.map.local_page_index(page)).2
    }

    /// Expands one protected write into its redundancy-update targets.
    /// `payload` is the delta `old ^ new` when
    /// [`stores_values`](StripeCode::stores_values) is false, the new value
    /// otherwise; each returned pair is `(redundancy line, payload to apply
    /// there)`, in [`RedundancyGroup::redundancy`] order. Data member `i`
    /// ships `g^(i·j) · payload` to member `j`, so Q receives the delta
    /// pre-scaled and every payload lands by plain XOR (or overwrite).
    ///
    /// # Panics
    ///
    /// Panics if `line` lives in a redundancy page.
    pub fn expand_update(&self, line: LineAddr, payload: LineData) -> Vec<(LineAddr, LineData)> {
        let page = line.page();
        let slot = self.slot(page);
        let Member::Data(i) = slot.member_at(slot.pos) else {
            panic!("{page} is a redundancy page, it takes no updates of its own");
        };
        let offset = line.index_in_page() as u64;
        let mut targets = Vec::with_capacity(slot.redundancy);
        targets.extend(slot.redundancy_positions().map(|(j, pos)| {
            let target = LineAddr(self.page_at(&slot, pos).first_line().0 + offset);
            (target, gf_scale(payload, gf_pow(i * j)))
        }));
        targets
    }

    /// The full group (data and redundancy) containing `page`.
    pub fn group_of(&self, page: PageAddr) -> RedundancyGroup {
        let mut group = RedundancyGroup::default();
        self.group_into(page, &mut group);
        group
    }

    /// [`StripeCode::group_of`] into `group`, reusing its buffers.
    fn group_into(&self, page: PageAddr, group: &mut RedundancyGroup) {
        let slot = self.slot(page);
        group.data.clear();
        group.data.extend(
            (0..slot.chunk)
                .filter(|&pos| slot.redundancy_at(pos).is_none())
                .map(|pos| self.page_at(&slot, pos)),
        );
        group.redundancy.clear();
        group.redundancy.extend(
            slot.redundancy_positions()
                .map(|(_, pos)| self.page_at(&slot, pos)),
        );
    }

    /// Every chunk that `lost` (duplicates count once) leaves with more
    /// lost members than its budget, per stripe region.
    fn overruns(&self, lost: &[NodeId]) -> Vec<Overrun> {
        let mut distinct: Vec<NodeId> = Vec::with_capacity(lost.len());
        for &n in lost {
            if !distinct.contains(&n) {
                distinct.push(n);
            }
        }
        let pages = self.map.pages_per_node();
        let regions = [(0, self.mirrored), (self.mirrored, pages)];
        let mut out = Vec::new();
        for (region, &(stripe, end)) in regions.iter().enumerate() {
            if stripe >= end {
                continue;
            }
            let (g, r, _) = self.shape(stripe);
            let chunk = g + r;
            // (chunk id, list index of its first lost node, lost count)
            let mut counts: Vec<(usize, usize, usize)> = Vec::new();
            for (k, n) in distinct.iter().enumerate() {
                let id = n.index() / chunk;
                let count = match counts.iter_mut().find(|c| c.0 == id) {
                    Some(c) => {
                        c.2 += 1;
                        *c
                    }
                    None => {
                        counts.push((id, k, 1));
                        (id, k, 1)
                    }
                };
                if count.2 == r + 1 {
                    out.push(Overrun {
                        anchor: count.1,
                        closing: k,
                        region,
                        page: self.map.global_page(distinct[count.1], stripe),
                    });
                }
            }
        }
        out
    }

    /// Checks the code's equations for the group containing `page`,
    /// reading lines through `read`. Returns the first line offset where
    /// some redundancy member disagrees with its data.
    pub fn check_group(
        &self,
        page: PageAddr,
        read: impl FnMut(LineAddr) -> LineData,
    ) -> Option<usize> {
        let mut check = GroupCheck::default();
        check.load(self, page);
        check.check(read)
    }

    /// Reconstructs `page` (data or redundancy) from the surviving members
    /// of its group, returning its [`LINES_PER_PAGE`] lines. `missing`
    /// reports member pages that are currently unreadable (lost and not
    /// yet rebuilt); within the budget enough members survive. A copy is
    /// read from its first surviving member, data before redundancy; a
    /// parity member is solved from the equations: an XOR sum for one
    /// unknown, the P+Q 2×2 system for two.
    ///
    /// # Panics
    ///
    /// Panics if the missing members exceed what the code can solve.
    pub fn rebuild_page(
        &self,
        page: PageAddr,
        missing: impl Fn(PageAddr) -> bool,
        mut read: impl FnMut(LineAddr) -> LineData,
    ) -> Vec<LineData> {
        let line = |p: PageAddr, offset: usize| LineAddr(p.first_line().0 + offset as u64);
        let group = self.group_of(page);
        let unknown = |m: PageAddr| m == page || missing(m);
        if self.stores_values(page) {
            let source = group
                .members()
                .map(|(m, _)| m)
                .find(|&m| !unknown(m))
                .unwrap_or_else(|| panic!("rebuilding {page}: every copy is missing"));
            return (0..LINES_PER_PAGE)
                .map(|offset| read(line(source, offset)))
                .collect();
        }
        let target = group
            .members()
            .find(|&(m, _)| m == page)
            .expect("page is a member of its own group")
            .1;
        let others: Vec<Member> = group
            .members()
            .filter(|&(m, _)| m != page && missing(m))
            .map(|(_, member)| member)
            .collect();
        assert!(
            others.len() < group.redundancy.len(),
            "rebuilding {page}: {} unknowns exceed the parity budget",
            others.len() + 1
        );
        // Folding the known members into each equation Σ c·v = 0 leaves
        // the unknowns' weighted sums.
        let known = Terms::new(
            group.members().filter(|&(m, _)| !unknown(m)),
            group.redundancy.len(),
        );
        let mut sums = vec![LineData::ZERO; group.redundancy.len()];
        (0..LINES_PER_PAGE)
            .map(|offset| {
                known.fold(offset, &mut sums, &mut read);
                match others.first() {
                    // One unknown: read it off an equation where its
                    // coefficient is 1 (its own for redundancy, P for data).
                    None => match target {
                        Member::Redundancy(j) => sums[j],
                        Member::Data(_) => sums[0],
                    },
                    // Two unknowns x₁ (the target), x₂: solve
                    //   a₁x₁ ⊕ a₂x₂ = s₀,  b₁x₁ ⊕ b₂x₂ = s₁,
                    // whose determinant is nonzero for any two distinct
                    // members (the MDS property of P+Q).
                    Some(&other) => {
                        let (a1, b1) = (target.coefficient(0), target.coefficient(1));
                        let (a2, b2) = (other.coefficient(0), other.coefficient(1));
                        let det = gf_mul(a1, b2) ^ gf_mul(a2, b1);
                        gf_scale(gf_scale(sums[0], b2) ^ gf_scale(sums[1], a2), gf_inv(det))
                    }
                }
            })
            .collect()
    }
}

/// One group's equations in buffers that a sweep reuses from group to
/// group, so checking a group allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct GroupCheck {
    group: RedundancyGroup,
    terms: Terms,
    syndromes: Vec<LineData>,
}

impl GroupCheck {
    /// Loads the group containing `page`.
    pub(crate) fn load(&mut self, code: &StripeCode, page: PageAddr) {
        code.group_into(page, &mut self.group);
    }

    /// The loaded group's member pages, data first.
    pub(crate) fn pages(&self) -> impl Iterator<Item = PageAddr> + '_ {
        self.group.members().map(|(page, _)| page)
    }

    /// The first line offset where some redundancy member of the loaded
    /// group disagrees with its data, reading lines through `read`.
    pub(crate) fn check(&mut self, mut read: impl FnMut(LineAddr) -> LineData) -> Option<usize> {
        let r = self.group.redundancy.len();
        self.terms.load(self.group.members(), r);
        self.syndromes.clear();
        self.syndromes.resize(r, LineData::ZERO);
        (0..LINES_PER_PAGE).find(|&offset| {
            self.terms.fold(offset, &mut self.syndromes, &mut read);
            self.syndromes.iter().any(|s| !s.is_zero())
        })
    }
}

/// The weighted terms of a group's equations: each member's first line
/// and its coefficients in equations `0..r`.
#[derive(Debug, Default)]
struct Terms {
    lines: Vec<u64>,
    /// `lines.len()` rows of `r` coefficients.
    coefficients: Vec<u8>,
    r: usize,
}

impl Terms {
    fn new(members: impl Iterator<Item = (PageAddr, Member)>, r: usize) -> Terms {
        let mut terms = Terms::default();
        terms.load(members, r);
        terms
    }

    /// Replaces the terms with `members`' over `r` equations.
    fn load(&mut self, members: impl Iterator<Item = (PageAddr, Member)>, r: usize) {
        self.lines.clear();
        self.coefficients.clear();
        self.r = r;
        for (page, member) in members {
            self.lines.push(page.first_line().0);
            self.coefficients
                .extend((0..r).map(|j| member.coefficient(j)));
        }
    }

    /// Sets `sums[j]` to equation `j`'s weighted sum of the terms' lines
    /// at `offset`.
    fn fold(
        &self,
        offset: usize,
        sums: &mut [LineData],
        read: &mut impl FnMut(LineAddr) -> LineData,
    ) {
        sums.fill(LineData::ZERO);
        for (&line, row) in self
            .lines
            .iter()
            .zip(self.coefficients.chunks_exact(self.r))
        {
            let v = read(LineAddr(line + offset as u64));
            for (sum, &c) in sums.iter_mut().zip(row) {
                match c {
                    0 => {}
                    1 => *sum ^= v,
                    c => *sum ^= gf_scale(v, c),
                }
            }
        }
    }
}

/// A chunk with more lost members than its budget.
#[derive(Clone, Copy, Debug)]
struct Overrun {
    /// List index of the chunk's first lost node.
    anchor: usize,
    /// List index of the lost node that overran the budget.
    closing: usize,
    /// 0 for the mirrored region, 1 above it.
    region: usize,
    /// The anchor's page at the region's first stripe.
    page: PageAddr,
}

// ---------------------------------------------------------------------------
// The schemes
// ---------------------------------------------------------------------------

/// Constructor for RAID-6-style P+Q double parity: `G + 2` members per
/// stripe, P (member 0, plain XOR) and Q (member 1, `Σ gⁱ·dᵢ`), surviving
/// any two lost members per chunk.
#[derive(Debug)]
pub enum DoubleParityMap {}

// The constructor is named for its scheme and returns the one code.
#[allow(clippy::new_ret_no_self)]
impl DoubleParityMap {
    /// A P+Q layout with `group_data_pages` data pages per group.
    ///
    /// # Panics
    ///
    /// Panics if `group_data_pages` is zero or the node count is not a
    /// multiple of `group_data_pages + 2`.
    pub fn new(map: AddressMap, group_data_pages: usize) -> StripeCode {
        StripeCode::expect_new(
            map,
            group_data_pages,
            2,
            false,
            0,
            "double parity needs data pages",
            "double-parity chunk",
        )
    }
}

/// Constructor for ReStore-style k-replication: every data page is copied
/// whole to `k` peers of its chunk, surviving up to `k` lost members per
/// chunk with no rebuild arithmetic. `k = 1` is the paper's mirroring,
/// the same code as
/// [`ParityMap::new`](crate::parity::ParityMap::new) with one data page.
#[derive(Debug)]
pub enum ReplicationMap {}

// The constructor is named for its scheme and returns the one code.
#[allow(clippy::new_ret_no_self)]
impl ReplicationMap {
    /// A layout copying every data page to `replicas` peers.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero or the node count is not a multiple
    /// of `replicas + 1`.
    pub fn new(map: AddressMap, replicas: usize) -> StripeCode {
        StripeCode::expect_new(
            map,
            1,
            replicas,
            true,
            0,
            "replication needs at least one replica",
            "replication chunk",
        )
    }
}

/// The machine's redundancy: a stripe code and the scheme it was built
/// for. The scheme only decides which overrun chunk a loss names
/// ([`Redundancy::overwhelmed_group`]); everything else is the code's,
/// reached through `Deref`.
#[derive(Clone, Copy, Debug)]
pub enum Redundancy {
    /// The paper's N+1 XOR parity, with its mirroring and mixed forms.
    Xor(StripeCode),
    /// RAID-6-style P+Q double parity over GF(256).
    Double(StripeCode),
    /// ReStore-style k-replication.
    Replication(StripeCode),
}

impl Deref for Redundancy {
    type Target = StripeCode;

    fn deref(&self) -> &StripeCode {
        match self {
            Redundancy::Xor(code) | Redundancy::Double(code) | Redundancy::Replication(code) => {
                code
            }
        }
    }
}

impl Redundancy {
    /// Whether losing `lost` simultaneously exceeds the budget: returns a
    /// group with more than [`budget`](StripeCode::budget) lost members,
    /// or `None` when every chunk is within budget. Duplicates count once.
    /// N+1 parity names the overrun chunk whose first lost node is listed
    /// first (the first listed pair sharing a group); P+Q and replication
    /// name the chunk that overran first in list order. Either way the
    /// group is the first lost node's at its region's first stripe.
    pub fn overwhelmed_group(&self, lost: &[NodeId]) -> Option<RedundancyGroup> {
        let overruns = self.overruns(lost);
        let named = match self {
            Redundancy::Xor(_) => overruns
                .iter()
                .min_by_key(|o| (o.anchor, o.closing, o.region)),
            _ => overruns
                .iter()
                .min_by_key(|o| (o.closing, o.anchor, o.region)),
        }?;
        Some(self.group_of(named.page))
    }
}

/// The update-path entry points of [`Redundancy`] as a trait, for code
/// written against it.
pub trait RedundancyBackend {
    /// See [`StripeCode::is_redundancy_page`].
    fn is_redundancy_page(&self, page: PageAddr) -> bool;
    /// See [`StripeCode::expand_update`].
    fn expand_update(&self, line: LineAddr, payload: LineData) -> Vec<(LineAddr, LineData)>;
    /// See [`StripeCode::rebuild_fanin`].
    fn rebuild_fanin(&self) -> usize;
}

impl RedundancyBackend for Redundancy {
    fn is_redundancy_page(&self, page: PageAddr) -> bool {
        StripeCode::is_redundancy_page(self, page)
    }
    fn expand_update(&self, line: LineAddr, payload: LineData) -> Vec<(LineAddr, LineData)> {
        StripeCode::expand_update(self, line, payload)
    }
    fn rebuild_fanin(&self) -> usize {
        StripeCode::rebuild_fanin(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parity::ParityMap;
    use crate::validate::audit_redundancy;
    use revive_mem::addr::PAGE_SIZE;
    use std::collections::HashMap;

    fn map(nodes: usize, pages: u64) -> AddressMap {
        AddressMap::new(nodes, pages * PAGE_SIZE as u64)
    }

    #[test]
    fn gf_field_algebra_holds() {
        // Generator powers cycle with period 255.
        assert_eq!(gf_pow(0), 1);
        assert_eq!(gf_pow(255), 1);
        assert_eq!(gf_pow(1), 2);
        // a * inv(a) == 1 for every nonzero a.
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a = {a}");
        }
        // Distributivity over XOR (field addition) on a sample.
        for a in [3u8, 0x53, 0xFF] {
            for b in [7u8, 0xCA, 0x80] {
                for c in [1u8, 0x1D, 0xF0] {
                    assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
                }
            }
        }
        assert_eq!(gf_mul(0, 77), 0);
        assert_eq!(gf_scale(LineData::fill(0xAB), 1), LineData::fill(0xAB));
    }

    #[test]
    fn double_parity_layout_is_consistent() {
        // 8 nodes, chunks of 4 (G = 2): every stripe has one P, one Q, two
        // data pages, all on distinct nodes.
        let dp = DoubleParityMap::new(map(8, 16), 2);
        let m = *dp.address_map();
        assert_eq!(dp.budget(), 2);
        assert_eq!(dp.storage_overhead(), 0.5);
        let mut redundancy = 0;
        let mut data = 0;
        for node in NodeId::all(8) {
            for page in m.pages_of(node) {
                if dp.is_redundancy_page(page) {
                    redundancy += 1;
                } else {
                    data += 1;
                    let g = dp.group_of(page);
                    assert_eq!(g.data.len(), 2);
                    assert_eq!(g.redundancy.len(), 2);
                    assert!(g.data.contains(&page));
                    let mut nodes: Vec<usize> = g
                        .data
                        .iter()
                        .chain(g.redundancy.iter())
                        .map(|p| m.home_of_page(*p).index())
                        .collect();
                    nodes.sort_unstable();
                    nodes.dedup();
                    assert_eq!(nodes.len(), 4, "group spans distinct nodes");
                }
            }
        }
        assert_eq!(redundancy, data, "half the pages are P or Q");
    }

    /// A tiny software memory for exercising updates and rebuilds.
    struct Mem(HashMap<LineAddr, LineData>);

    impl Mem {
        fn new() -> Mem {
            Mem(HashMap::new())
        }
        fn read(&self, l: LineAddr) -> LineData {
            self.0.get(&l).copied().unwrap_or(LineData::ZERO)
        }
        /// A protected write through `code`: the data write plus every
        /// expanded redundancy update, each applied by overwrite or XOR
        /// (spelled out here rather than through `apply_update`).
        fn protected_write(&mut self, code: &StripeCode, line: LineAddr, new: LineData) {
            let stores = code.stores_values(line.page());
            let payload = if stores { new } else { self.read(line) ^ new };
            self.0.insert(line, new);
            for (rline, rpayload) in code.expand_update(line, payload) {
                let v = if stores {
                    rpayload
                } else {
                    self.read(rline) ^ rpayload
                };
                self.0.insert(rline, v);
            }
        }
    }

    fn data_lines(code: &StripeCode) -> Vec<LineAddr> {
        let m = *code.address_map();
        let mut out = Vec::new();
        for node in NodeId::all(m.nodes()) {
            for page in m.pages_of(node) {
                if !code.is_redundancy_page(page) {
                    out.push(LineAddr(page.first_line().0 + (node.index() % 7) as u64));
                }
            }
        }
        out
    }

    fn check_all(code: &StripeCode, mem: &Mem) {
        let m = *code.address_map();
        for node in NodeId::all(m.nodes()) {
            for page in m.pages_of(node) {
                if !code.is_redundancy_page(page) {
                    assert_eq!(
                        code.check_group(page, |l| mem.read(l)),
                        None,
                        "invariant violated in the group of {page}"
                    );
                }
            }
        }
    }

    #[test]
    fn double_parity_detects_corruption() {
        let dp = DoubleParityMap::new(map(4, 4), 2);
        let mut mem = Mem::new();
        let line = data_lines(&dp)[0];
        mem.protected_write(&dp, line, LineData::fill(0x7E));
        check_all(&dp, &mem);
        // Corrupt the data behind the code's back: both checks trip.
        mem.0.insert(line, LineData::fill(0x7F));
        assert_eq!(
            dp.check_group(line.page(), |l| mem.read(l)),
            Some(line.index_in_page()),
        );
    }

    #[test]
    fn replication_copies_and_rebuilds() {
        let rp = ReplicationMap::new(map(9, 6), 2); // chunks of 3, k = 2
        let m = *rp.address_map();
        assert_eq!(rp.budget(), 2);
        assert!((rp.storage_overhead() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(rp.rebuild_fanin(), 1);
        let mut mem = Mem::new();
        for (i, line) in data_lines(&rp).into_iter().enumerate() {
            mem.protected_write(&rp, line, LineData::fill(0x21 + i as u8));
        }
        check_all(&rp, &mem);
        // Lose two of the three chunk members; every page still rebuilds.
        let lost: Vec<PageAddr> = m.pages_of(NodeId(0)).chain(m.pages_of(NodeId(2))).collect();
        for &page in &lost {
            let missing = |p: PageAddr| lost.contains(&p) && p != page;
            let rebuilt = rp.rebuild_page(page, missing, |l| mem.read(l));
            for (offset, line) in rebuilt.iter().enumerate() {
                let addr = LineAddr(page.first_line().0 + offset as u64);
                assert_eq!(*line, mem.read(addr), "page {page} offset {offset}");
            }
        }
    }

    #[test]
    fn single_replication_is_the_mirroring_layout() {
        // Mirroring is spelled once: k = 1 replication and 1+1 parity are
        // the same code, page for page and update for update.
        let m = map(4, 8);
        let rp = ReplicationMap::new(m, 1);
        let pm = ParityMap::new(m, 1);
        for node in NodeId::all(4) {
            for page in m.pages_of(node) {
                assert_eq!(rp.is_redundancy_page(page), pm.is_redundancy_page(page));
                assert_eq!(rp.group_of(page), pm.group_of(page));
                if !pm.is_redundancy_page(page) {
                    let line = LineAddr(page.first_line().0 + 3);
                    let payload = LineData::fill(9);
                    assert_eq!(
                        rp.expand_update(line, payload),
                        pm.expand_update(line, payload)
                    );
                    assert!(rp.stores_values(page) && pm.stores_values(page));
                }
            }
        }
        assert_eq!(rp.storage_overhead(), pm.storage_overhead());
    }

    #[test]
    fn budgets_classify_losses_per_backend() {
        // 12 nodes: XOR chunks of 4 (G=3), P+Q chunks of 4 (G=2),
        // replication chunks of 4 (k=3).
        let m = map(12, 8);
        let xor = Redundancy::Xor(ParityMap::new(m, 3));
        let dp = Redundancy::Double(DoubleParityMap::new(m, 2));
        let rp = Redundancy::Replication(ReplicationMap::new(m, 3));
        assert_eq!((xor.budget(), dp.budget(), rp.budget()), (1, 2, 3));
        assert_eq!(
            (xor.rebuild_fanin(), dp.rebuild_fanin(), rp.rebuild_fanin()),
            (3, 2, 1)
        );
        let two = [NodeId(1), NodeId(2)];
        let three = [NodeId(0), NodeId(1), NodeId(3)];
        let four = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let cross = [NodeId(1), NodeId(5), NodeId(9)];
        assert!(xor.overwhelmed_group(&two).is_some());
        assert!(dp.overwhelmed_group(&two).is_none());
        assert!(rp.overwhelmed_group(&two).is_none());
        assert!(dp.overwhelmed_group(&three).is_some());
        assert!(rp.overwhelmed_group(&three).is_none());
        assert!(rp.overwhelmed_group(&four).is_some());
        for rdx in [&xor, &dp, &rp] {
            assert!(rdx.overwhelmed_group(&cross).is_none(), "{rdx:?}");
            // Duplicates count once.
            assert!(rdx.overwhelmed_group(&[NodeId(7), NodeId(7)]).is_none());
        }
        // An overwhelmed group names the chunk that was overrun.
        let g = dp.overwhelmed_group(&three).unwrap();
        assert!(g
            .data
            .iter()
            .chain(g.redundancy.iter())
            .all(|p| m.home_of_page(*p).index() < 4));
    }

    #[test]
    fn trait_entry_points_are_the_codes() {
        let rdx = Redundancy::Double(DoubleParityMap::new(map(4, 4), 2));
        let line = data_lines(&rdx)[1];
        let payload = LineData::fill(0x3C);
        assert_eq!(
            RedundancyBackend::expand_update(&rdx, line, payload),
            rdx.expand_update(line, payload)
        );
        assert_eq!(RedundancyBackend::rebuild_fanin(&rdx), 2);
        assert!(!RedundancyBackend::is_redundancy_page(&rdx, line.page()));
    }

    #[test]
    fn layout_errors_are_typed() {
        let m = map(8, 4);
        let err = |g, r, copies, mirrored| StripeCode::try_new(m, g, r, copies, mirrored).err();
        assert_eq!(err(0, 1, false, 0), Some(LayoutError::NoData));
        assert_eq!(err(1, 0, true, 0), Some(LayoutError::NoRedundancy));
        assert_eq!(err(3, 1, true, 0), Some(LayoutError::CopiesOfManyPages));
        assert_eq!(err(1, 3, false, 0), Some(LayoutError::ParityTooWide));
        assert_eq!(
            err(2, 1, false, 0),
            Some(LayoutError::ChunkDoesNotDivide { chunk: 3, nodes: 8 })
        );
        assert_eq!(err(3, 1, false, 5), Some(LayoutError::MirroredExceedsPages));
        assert_eq!(
            StripeCode::try_new(map(9, 4), 2, 1, false, 1).err(),
            Some(LayoutError::OddMirroredNodes { nodes: 9 })
        );
        assert!(err(3, 1, false, 4).is_none());
    }

    // -----------------------------------------------------------------------
    // Pins: every layout against a brute-force reference of its geometry,
    // update order, loss naming and rebuild.
    // -----------------------------------------------------------------------

    /// The reference description of one layout, written independently of
    /// the code under test.
    #[derive(Clone, Copy, Debug)]
    enum Scheme {
        /// N+1 XOR parity; stripes below `mirrored` are 1+1 mirrors.
        Xor { g: usize, mirrored: u64 },
        /// P+Q double parity.
        Pq { g: usize },
        /// k-replication.
        Rep { k: usize },
    }

    impl Scheme {
        fn budget(self) -> usize {
            match self {
                Scheme::Xor { .. } => 1,
                Scheme::Pq { .. } => 2,
                Scheme::Rep { k } => k,
            }
        }

        fn chunk(self, stripe: u64) -> usize {
            match self {
                Scheme::Xor { mirrored, .. } if stripe < mirrored => 2,
                Scheme::Xor { g, .. } => g + 1,
                Scheme::Pq { g } => g + 2,
                Scheme::Rep { k } => k + 1,
            }
        }

        fn stores_values(self, stripe: u64) -> bool {
            match self {
                Scheme::Xor { g, mirrored } => g == 1 || stripe < mirrored,
                Scheme::Pq { .. } => false,
                Scheme::Rep { .. } => true,
            }
        }

        /// Chunk positions of the redundancy members, in the order
        /// `group_of` and `expand_update` list them.
        fn redundancy_positions(self, stripe: u64) -> Vec<usize> {
            let c = self.chunk(stripe);
            let at = |k: u64| ((stripe + k) % c as u64) as usize;
            match self {
                Scheme::Xor { .. } => vec![at(0)],
                Scheme::Pq { .. } => vec![at(0), at(1)],
                Scheme::Rep { k } => (0..c).filter(|&p| p != at(k as u64)).collect(),
            }
        }

        /// `(data pages in chunk order, redundancy pages in list order)` of
        /// the group containing `page`.
        fn group(self, m: &AddressMap, page: PageAddr) -> (Vec<PageAddr>, Vec<PageAddr>) {
            let s = m.local_page_index(page);
            let c = self.chunk(s);
            let start = m.home_of_page(page).index() / c * c;
            let at = |p: usize| m.global_page(NodeId::from(start + p), s);
            let red = self.redundancy_positions(s);
            let data = (0..c).filter(|p| !red.contains(p)).map(at).collect();
            (data, red.into_iter().map(at).collect())
        }

        fn expand(
            self,
            m: &AddressMap,
            line: LineAddr,
            payload: LineData,
        ) -> Vec<(LineAddr, LineData)> {
            let (data, red) = self.group(m, line.page());
            let i = data.iter().position(|&p| p == line.page()).unwrap();
            let off = line.index_in_page() as u64;
            red.iter()
                .enumerate()
                .map(|(j, rp)| {
                    let v = match self {
                        Scheme::Pq { .. } if j == 1 => gf_scale(payload, gf_pow(i)),
                        _ => payload,
                    };
                    (LineAddr(rp.first_line().0 + off), v)
                })
                .collect()
        }

        /// The page whose group a loss list names. XOR takes the first
        /// listed pair sharing a chunk at some stripe (lowest such stripe);
        /// P+Q and replication take the first chunk whose lost count
        /// exceeds the budget, named by its first listed node at stripe 0.
        fn overwhelmed(self, m: &AddressMap, lost: &[NodeId]) -> Option<PageAddr> {
            if let Scheme::Xor { .. } = self {
                for (i, &a) in lost.iter().enumerate() {
                    for &b in &lost[i + 1..] {
                        if a == b {
                            continue;
                        }
                        for s in 0..m.pages_per_node() {
                            let c = self.chunk(s);
                            if a.index() / c == b.index() / c {
                                return Some(m.global_page(a, s));
                            }
                        }
                    }
                }
                return None;
            }
            let c = self.chunk(0);
            let mut seen: Vec<NodeId> = Vec::new();
            for &n in lost {
                if seen.contains(&n) {
                    continue;
                }
                seen.push(n);
                let same: Vec<NodeId> = seen
                    .iter()
                    .copied()
                    .filter(|x| x.index() / c == n.index() / c)
                    .collect();
                if same.len() > self.budget() {
                    return Some(m.global_page(same[0], 0));
                }
            }
            None
        }
    }

    fn pinned_layouts() -> Vec<(Redundancy, Scheme)> {
        vec![
            (
                Redundancy::Xor(ParityMap::new(map(8, 8), 3)),
                Scheme::Xor { g: 3, mirrored: 0 },
            ),
            (
                Redundancy::Xor(ParityMap::new(map(8, 8), 1)),
                Scheme::Xor { g: 1, mirrored: 0 },
            ),
            (
                Redundancy::Xor(ParityMap::mixed(map(8, 8), 3, 4)),
                Scheme::Xor { g: 3, mirrored: 4 },
            ),
            (
                Redundancy::Double(DoubleParityMap::new(map(4, 4), 2)),
                Scheme::Pq { g: 2 },
            ),
            (
                Redundancy::Double(DoubleParityMap::new(map(9, 6), 1)),
                Scheme::Pq { g: 1 },
            ),
            (
                Redundancy::Double(DoubleParityMap::new(map(8, 8), 2)),
                Scheme::Pq { g: 2 },
            ),
            (
                Redundancy::Replication(ReplicationMap::new(map(8, 8), 1)),
                Scheme::Rep { k: 1 },
            ),
            (
                Redundancy::Replication(ReplicationMap::new(map(9, 6), 2)),
                Scheme::Rep { k: 2 },
            ),
            (
                Redundancy::Replication(ReplicationMap::new(map(8, 8), 3)),
                Scheme::Rep { k: 3 },
            ),
        ]
    }

    #[test]
    fn every_layout_survives_every_loss_within_budget() {
        for (rdx, scheme) in pinned_layouts() {
            let m = *rdx.address_map();
            assert_eq!(rdx.budget(), scheme.budget(), "{scheme:?}");
            let mut mem = Mem::new();
            let mut writes = 0u8;
            for node in NodeId::all(m.nodes()) {
                for page in m.pages_of(node) {
                    let s = m.local_page_index(page);
                    let (data, red) = scheme.group(&m, page);
                    assert_eq!(rdx.is_redundancy_page(page), red.contains(&page), "{page}");
                    assert_eq!(
                        rdx.is_group_anchor(page),
                        red[0] == page,
                        "{scheme:?} {page}"
                    );
                    let g = rdx.group_of(page);
                    assert_eq!((g.data, g.redundancy), (data, red), "{scheme:?} {page}");
                    if rdx.is_redundancy_page(page) {
                        continue;
                    }
                    assert_eq!(rdx.stores_values(page), scheme.stores_values(s), "{page}");
                    for off in [node.index() as u64 % 7, 63] {
                        let line = LineAddr(page.first_line().0 + off);
                        let payload = LineData::fill(0x5A);
                        assert_eq!(
                            rdx.expand_update(line, payload),
                            scheme.expand(&m, line, payload),
                            "{scheme:?} {line}"
                        );
                        for _ in 0..2 {
                            writes = writes.wrapping_add(1);
                            mem.protected_write(&rdx, line, LineData::fill(writes));
                            assert_eq!(
                                rdx.check_group(page, &mut |l| mem.read(l)),
                                None,
                                "{scheme:?}: write to {line} broke its group"
                            );
                        }
                    }
                }
            }
            check_all(&rdx, &mem);
            // The audit visits each group once, at its first redundancy
            // page, in node-then-page order: with one line of every group's
            // first data member flipped, every group is reported in turn.
            let anchors: Vec<PageAddr> = NodeId::all(m.nodes())
                .flat_map(|n| m.pages_of(n))
                .filter(|&p| scheme.group(&m, p).1[0] == p)
                .collect();
            let offset = |p: PageAddr| (m.local_page_index(p) % LINES_PER_PAGE as u64) as usize;
            let audit = audit_redundancy(&rdx, |l| {
                let p = l.page();
                let flip = scheme.group(&m, p).0[0] == p && l.index_in_page() == offset(p);
                mem.read(l) ^ LineData::fill(u8::from(flip))
            });
            assert_eq!(audit.groups_checked, anchors.len() as u64, "{scheme:?}");
            let reported: Vec<_> = audit
                .violations
                .iter()
                .map(|v| (v.parity_page, v.stripe, v.node, v.offset))
                .collect();
            let want: Vec<_> = anchors
                .iter()
                .map(|&p| (p, m.local_page_index(p), m.home_of_page(p), offset(p)))
                .collect();
            assert_eq!(reported, want, "{scheme:?}");
            // Every loss set of up to budget + 1 nodes that the layout calls
            // within budget rebuilds every lost page byte-exactly; a copy
            // reads its first surviving member, data before redundancy.
            for mask in 1u32..1 << m.nodes() {
                if mask.count_ones() as usize > scheme.budget() + 1 {
                    continue;
                }
                let lost_nodes: Vec<NodeId> = NodeId::all(m.nodes())
                    .filter(|n| mask & (1 << n.index()) != 0)
                    .collect();
                if scheme.overwhelmed(&m, &lost_nodes).is_some() {
                    continue;
                }
                let lost: Vec<PageAddr> = lost_nodes.iter().flat_map(|&n| m.pages_of(n)).collect();
                for &page in &lost {
                    let missing = |p: PageAddr| lost.contains(&p) && p != page;
                    let mut read_pages: Vec<PageAddr> = Vec::new();
                    let rebuilt = rdx.rebuild_page(page, missing, &mut |l: LineAddr| {
                        read_pages.push(l.page());
                        mem.read(l)
                    });
                    for (offset, line) in rebuilt.iter().enumerate() {
                        let addr = LineAddr(page.first_line().0 + offset as u64);
                        assert_eq!(
                            *line,
                            mem.read(addr),
                            "{scheme:?} lost {lost_nodes:?} {addr}"
                        );
                    }
                    if scheme.stores_values(m.local_page_index(page)) {
                        let (data, red) = scheme.group(&m, page);
                        let source = data
                            .into_iter()
                            .chain(red)
                            .find(|&p| p != page && !missing(p))
                            .unwrap();
                        read_pages.dedup();
                        assert_eq!(read_pages, vec![source], "{scheme:?} copy source of {page}");
                    }
                }
            }
        }
    }

    #[test]
    fn loss_naming_matches_each_scheme_rule_for_every_order() {
        for (rdx, scheme) in pinned_layouts() {
            let m = *rdx.address_map();
            let n = m.nodes();
            // Every ordered list of distinct nodes up to budget + 1 long and
            // at least four long (where the XOR pair rule and the chunk rule
            // part ways), plus lists with repeats.
            let len = (scheme.budget() + 1).max(4);
            let mut lists: Vec<Vec<NodeId>> = vec![Vec::new()];
            let mut frontier: Vec<Vec<NodeId>> = vec![Vec::new()];
            for _ in 0..len {
                let mut next = Vec::new();
                for list in &frontier {
                    for x in NodeId::all(n) {
                        if !list.contains(&x) {
                            let mut l = list.clone();
                            l.push(x);
                            next.push(l);
                        }
                    }
                }
                lists.extend(next.iter().cloned());
                frontier = next;
            }
            for a in NodeId::all(n) {
                for b in NodeId::all(n) {
                    lists.push(vec![a, a]);
                    lists.push(vec![a, b, a, b]);
                }
            }
            for lost in &lists {
                let want = scheme.overwhelmed(&m, lost).map(|p| {
                    let (data, redundancy) = scheme.group(&m, p);
                    RedundancyGroup { data, redundancy }
                });
                assert_eq!(rdx.overwhelmed_group(lost), want, "{scheme:?} {lost:?}");
            }
        }
        // The rules disagree on lists such as these (8 nodes, chunk 4).
        let m = map(8, 8);
        let lost = [NodeId(5), NodeId(1), NodeId(2), NodeId(6)];
        let xor = Redundancy::Xor(ParityMap::new(m, 3));
        assert_eq!(
            xor.overwhelmed_group(&lost).unwrap().redundancy[0],
            m.global_page(NodeId(4), 0)
        );
        let dp = Redundancy::Double(DoubleParityMap::new(m, 2));
        let lost = [
            NodeId(5),
            NodeId(1),
            NodeId(2),
            NodeId(6),
            NodeId(0),
            NodeId(4),
        ];
        assert_eq!(
            dp.overwhelmed_group(&lost).unwrap().redundancy[0],
            m.global_page(NodeId(0), 0)
        );
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn double_parity_chunk_must_divide_nodes() {
        let _ = DoubleParityMap::new(map(9, 4), 3); // chunk 5 does not divide 9
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn replication_chunk_must_divide_nodes() {
        let _ = ReplicationMap::new(map(9, 4), 3); // chunk 4 does not divide 9
    }
}
