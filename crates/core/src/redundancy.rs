//! Pluggable redundancy backends.
//!
//! The paper's distributed N+1 parity ([`ParityMap`], Section 3.2.1)
//! survives exactly one lost node per group. This module generalizes the
//! redundancy engine behind the [`RedundancyBackend`] trait so the same
//! log+checkpoint state can be protected by richer schemes:
//!
//! * [`Redundancy::Xor`] — the paper's N+1 XOR parity (and its mirroring /
//!   mixed degenerate forms), budget 1. The default; delegates everything
//!   to [`ParityMap`] so existing behavior is bit-identical.
//! * [`Redundancy::Double`] — RAID-6-style P+Q double parity over GF(256):
//!   chunks of `G + 2` nodes hold `G` data pages plus a P (XOR) and a Q
//!   (Reed-Solomon) page per stripe, surviving **any two** lost nodes per
//!   chunk, budget 2.
//! * [`Redundancy::Replication`] — ReStore-style k-replication: every data
//!   page is mirrored to `k` deterministic peers (chunks of `k + 1`
//!   nodes), surviving up to `k` losses per chunk with no rebuild
//!   arithmetic, budget `k`. `k = 1` reproduces the paper's mirroring
//!   layout exactly.
//!
//! All three backends share the update machinery: a backend expands each
//! protected write into `(redundancy line, payload)` pairs
//! ([`RedundancyBackend::expand_update`]); payloads are applied at the
//! destination either by XOR (parity deltas — GF(256) addition *is* XOR,
//! so Q updates ship pre-scaled deltas through the same wire path) or by
//! overwrite (replicated values, [`RedundancyBackend::stores_values`]).
//!
//! # GF(256)
//!
//! The Q parity uses the field GF(2⁸) with the primitive polynomial
//! `x⁸+x⁴+x³+x²+1` (0x11d) and generator 2: `Q = Σ gⁱ·dᵢ`. Losing two
//! chunk members leaves a 2×2 system over the field, solved per byte.

use revive_mem::addr::{AddressMap, LineAddr, PageAddr, LINES_PER_PAGE};
use revive_mem::line::LineData;
use revive_sim::types::NodeId;

use crate::parity::ParityMap;

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
// The backend trait
// ---------------------------------------------------------------------------

/// One redundancy group: the data pages it protects and the redundancy
/// pages protecting them (1 for XOR parity, 2 for P+Q, `k` replicas).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RedundancyGroup {
    /// The protected data pages (each on a different node).
    pub data: Vec<PageAddr>,
    /// The redundancy pages (each on yet another node of the chunk).
    pub redundancy: Vec<PageAddr>,
}

/// What every redundancy scheme must provide. The machine talks to the
/// backend exclusively through this interface: page classification, update
/// expansion (commit-time traffic), the loss budget, and page
/// reconstruction (recovery Phases 2–4).
pub trait RedundancyBackend {
    /// Stable kebab-case backend name (artifacts, reports).
    fn name(&self) -> &'static str;

    /// The address map this layout covers.
    fn address_map(&self) -> &AddressMap;

    /// Lost nodes tolerated per chunk: the backend reconstructs any loss
    /// of at most this many members per chunk, and classifies anything
    /// beyond it unrecoverable.
    fn budget(&self) -> usize;

    /// Fraction of memory consumed by redundancy pages.
    fn storage_overhead(&self) -> f64;

    /// Remote pages read to rebuild one lost page (the recovery timing
    /// model's fan-in): `G` for XOR and P+Q parity, 1 for replication.
    fn rebuild_fanin(&self) -> usize;

    /// Whether `page` holds redundancy (parity / replica) rather than
    /// application data.
    fn is_redundancy_page(&self, page: PageAddr) -> bool;

    /// Whether updates protecting `page` carry raw values applied by
    /// overwrite (replication, mirroring) instead of XOR deltas (parity).
    fn stores_values(&self, page: PageAddr) -> bool;

    /// Expands one protected write into its redundancy-update targets.
    /// `payload` is the XOR delta (`old ^ new`) when
    /// [`stores_values`](RedundancyBackend::stores_values) is false, the
    /// new value otherwise; each returned pair is `(redundancy line,
    /// payload to apply there)` — Q targets receive the delta pre-scaled
    /// by the member's GF(256) coefficient, so every payload is applied
    /// at its destination by plain XOR (or overwrite).
    fn expand_update(&self, line: LineAddr, payload: LineData) -> Vec<(LineAddr, LineData)>;

    /// The full group containing `page` (data or redundancy).
    fn group_of(&self, page: PageAddr) -> RedundancyGroup;

    /// Whether losing `lost` simultaneously exceeds the budget: returns a
    /// group with more than [`budget`](RedundancyBackend::budget) lost
    /// members, or `None` when every chunk is within budget. Duplicates
    /// count once.
    fn overwhelmed_group(&self, lost: &[NodeId]) -> Option<RedundancyGroup>;

    /// Checks the redundancy invariant for the group containing `page`,
    /// reading lines through `read`. Returns the first violating line
    /// offset, if any.
    fn check_group(
        &self,
        page: PageAddr,
        read: &mut dyn FnMut(LineAddr) -> LineData,
    ) -> Option<usize>;

    /// Reconstructs `page` (data or redundancy) from the surviving members
    /// of its group, returning the page's [`LINES_PER_PAGE`] rebuilt
    /// lines. `missing` reports member pages whose contents are currently
    /// unreadable (lost and not yet rebuilt); within the budget the
    /// backend always finds enough survivors.
    fn rebuild_page(
        &self,
        page: PageAddr,
        missing: &dyn Fn(PageAddr) -> bool,
        read: &mut dyn FnMut(LineAddr) -> LineData,
    ) -> Vec<LineData>;
}

/// Counts lost members per chunk of `chunk` consecutive nodes and returns
/// the first chunk exceeding `budget` as `(representative lost node)`.
/// Chunk membership is stripe-independent for the uniform layouts (roles
/// rotate with the stripe, members do not).
fn overwhelmed_uniform(chunk: usize, budget: usize, lost: &[NodeId]) -> Option<NodeId> {
    let mut seen: Vec<NodeId> = Vec::new();
    let mut counts: Vec<(usize, usize, NodeId)> = Vec::new(); // (chunk id, count, first lost)
    for &n in lost {
        if seen.contains(&n) {
            continue;
        }
        seen.push(n);
        let id = n.index() / chunk;
        match counts.iter_mut().find(|(c, _, _)| *c == id) {
            Some((_, count, first)) => {
                *count += 1;
                if *count > budget {
                    return Some(*first);
                }
            }
            None => {
                counts.push((id, 1, n));
                if budget == 0 {
                    return Some(n);
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Double parity (RAID-6 P+Q over GF(256))
// ---------------------------------------------------------------------------

/// P+Q double-parity geometry: chunks of `G + 2` consecutive nodes; for
/// stripe `s` the node at chunk position `s mod (G+2)` holds P (plain
/// XOR), the node at `(s+1) mod (G+2)` holds Q (`Σ gⁱ·dᵢ`), and the other
/// `G` nodes hold data. Any two lost members of a chunk reconstruct.
#[derive(Clone, Copy, Debug)]
pub struct DoubleParityMap {
    map: AddressMap,
    group_data_pages: usize,
}

/// A chunk member's role at one stripe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    P,
    Q,
    /// Data member with GF coefficient index `i` (`Q` contribution
    /// `gⁱ·dᵢ`), counted in chunk-position order.
    Data(usize),
}

impl Role {
    /// The member's coefficients in the (P, Q) parity equations.
    fn coeffs(self) -> (u8, u8) {
        match self {
            Role::P => (1, 0),
            Role::Q => (0, 1),
            Role::Data(i) => (1, gf_pow(i)),
        }
    }
}

impl DoubleParityMap {
    /// Creates a P+Q layout with `group_data_pages` data pages per group.
    ///
    /// # Panics
    ///
    /// Panics if `group_data_pages` is zero or the node count is not a
    /// multiple of `group_data_pages + 2`.
    pub fn new(map: AddressMap, group_data_pages: usize) -> DoubleParityMap {
        assert!(group_data_pages > 0, "double parity needs data pages");
        let chunk = group_data_pages + 2;
        assert!(
            map.nodes().is_multiple_of(chunk),
            "node count {} is not a multiple of the double-parity chunk {}",
            map.nodes(),
            chunk
        );
        DoubleParityMap {
            map,
            group_data_pages,
        }
    }

    /// Data pages per group (`G`).
    pub fn group_data_pages(&self) -> usize {
        self.group_data_pages
    }

    /// Nodes per chunk (`G + 2`).
    pub fn chunk_size(&self) -> usize {
        self.group_data_pages + 2
    }

    fn chunk_start(&self, node: NodeId) -> usize {
        node.index() / self.chunk_size() * self.chunk_size()
    }

    fn p_pos(&self, stripe: u64) -> usize {
        (stripe % self.chunk_size() as u64) as usize
    }

    fn q_pos(&self, stripe: u64) -> usize {
        ((stripe + 1) % self.chunk_size() as u64) as usize
    }

    fn role_at(&self, pos: usize, stripe: u64) -> Role {
        let p = self.p_pos(stripe);
        let q = self.q_pos(stripe);
        if pos == p {
            Role::P
        } else if pos == q {
            Role::Q
        } else {
            Role::Data((0..pos).filter(|&j| j != p && j != q).count())
        }
    }

    fn role_of(&self, page: PageAddr) -> Role {
        let node = self.map.home_of_page(page);
        let stripe = self.map.local_page_index(page);
        self.role_at(node.index() % self.chunk_size(), stripe)
    }

    fn page_at(&self, page: PageAddr, pos: usize) -> PageAddr {
        let node = self.map.home_of_page(page);
        let stripe = self.map.local_page_index(page);
        self.map
            .global_page(NodeId::from(self.chunk_start(node) + pos), stripe)
    }

    /// The group's member pages with their roles, in chunk-position order.
    fn members(&self, page: PageAddr) -> Vec<(PageAddr, Role)> {
        let stripe = self.map.local_page_index(page);
        (0..self.chunk_size())
            .map(|pos| (self.page_at(page, pos), self.role_at(pos, stripe)))
            .collect()
    }
}

impl RedundancyBackend for DoubleParityMap {
    fn name(&self) -> &'static str {
        "double-parity"
    }

    fn address_map(&self) -> &AddressMap {
        &self.map
    }

    fn budget(&self) -> usize {
        2
    }

    fn storage_overhead(&self) -> f64 {
        2.0 / self.chunk_size() as f64
    }

    fn rebuild_fanin(&self) -> usize {
        self.group_data_pages
    }

    fn is_redundancy_page(&self, page: PageAddr) -> bool {
        !matches!(self.role_of(page), Role::Data(_))
    }

    fn stores_values(&self, _page: PageAddr) -> bool {
        false
    }

    fn expand_update(&self, line: LineAddr, payload: LineData) -> Vec<(LineAddr, LineData)> {
        let page = line.page();
        let stripe = self.map.local_page_index(page);
        let Role::Data(i) = self.role_of(page) else {
            panic!("{page} is a parity page, it takes no updates of its own");
        };
        let offset = line.index_in_page() as u64;
        let p_line = LineAddr(self.page_at(page, self.p_pos(stripe)).first_line().0 + offset);
        let q_line = LineAddr(self.page_at(page, self.q_pos(stripe)).first_line().0 + offset);
        vec![(p_line, payload), (q_line, gf_scale(payload, gf_pow(i)))]
    }

    fn group_of(&self, page: PageAddr) -> RedundancyGroup {
        let mut data = Vec::with_capacity(self.group_data_pages);
        let mut redundancy = vec![PageAddr(0); 2];
        for (p, role) in self.members(page) {
            match role {
                Role::P => redundancy[0] = p,
                Role::Q => redundancy[1] = p,
                Role::Data(_) => data.push(p),
            }
        }
        RedundancyGroup { data, redundancy }
    }

    fn overwhelmed_group(&self, lost: &[NodeId]) -> Option<RedundancyGroup> {
        overwhelmed_uniform(self.chunk_size(), 2, lost)
            .map(|n| self.group_of(self.map.global_page(n, 0)))
    }

    fn check_group(
        &self,
        page: PageAddr,
        read: &mut dyn FnMut(LineAddr) -> LineData,
    ) -> Option<usize> {
        let members = self.members(page);
        for offset in 0..LINES_PER_PAGE {
            let mut acc_p = LineData::ZERO;
            let mut acc_q = LineData::ZERO;
            for &(m, role) in &members {
                let v = read(LineAddr(m.first_line().0 + offset as u64));
                let (cp, cq) = role.coeffs();
                if cp != 0 {
                    acc_p ^= gf_scale(v, cp);
                }
                if cq != 0 {
                    acc_q ^= gf_scale(v, cq);
                }
            }
            if !acc_p.is_zero() || !acc_q.is_zero() {
                return Some(offset);
            }
        }
        None
    }

    fn rebuild_page(
        &self,
        page: PageAddr,
        missing: &dyn Fn(PageAddr) -> bool,
        read: &mut dyn FnMut(LineAddr) -> LineData,
    ) -> Vec<LineData> {
        let members = self.members(page);
        let unknown: Vec<(PageAddr, Role)> = members
            .iter()
            .copied()
            .filter(|&(m, _)| m == page || missing(m))
            .collect();
        assert!(
            unknown.len() <= 2,
            "rebuilding {page}: {} unknowns exceed the P+Q budget",
            unknown.len()
        );
        let target_role = members
            .iter()
            .find(|&&(m, _)| m == page)
            .expect("page is a member of its own group")
            .1;
        let mut out = Vec::with_capacity(LINES_PER_PAGE);
        for offset in 0..LINES_PER_PAGE {
            // Fold the known members into the two parity equations:
            // Σ cP·v = 0 and Σ cQ·v = 0, leaving the unknowns' sums.
            let mut s_p = LineData::ZERO;
            let mut s_q = LineData::ZERO;
            for &(m, role) in &members {
                if m == page || missing(m) {
                    continue;
                }
                let v = read(LineAddr(m.first_line().0 + offset as u64));
                let (cp, cq) = role.coeffs();
                if cp != 0 {
                    s_p ^= gf_scale(v, cp);
                }
                if cq != 0 {
                    s_q ^= gf_scale(v, cq);
                }
            }
            let other = unknown.iter().find(|&&(m, _)| m != page);
            let value = match other {
                // One unknown: read it straight off the equation in which
                // its coefficient is nonzero (always 1 for P/data in the
                // P equation; Q's coefficient in the Q equation is 1).
                None => match target_role {
                    Role::Q => s_q,
                    _ => s_p,
                },
                // Two unknowns x₁ (the target), x₂: solve the 2×2 system
                //   a₁x₁ ⊕ a₂x₂ = s_p,  b₁x₁ ⊕ b₂x₂ = s_q
                // whose determinant is nonzero for any two distinct
                // members (the MDS property of P+Q).
                Some(&(_, other_role)) => {
                    let (a1, b1) = target_role.coeffs();
                    let (a2, b2) = other_role.coeffs();
                    let det = gf_mul(a1, b2) ^ gf_mul(a2, b1);
                    gf_scale(gf_scale(s_p, b2) ^ gf_scale(s_q, a2), gf_inv(det))
                }
            };
            out.push(value);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// k-replication (ReStore-style)
// ---------------------------------------------------------------------------

/// k-replication geometry: chunks of `k + 1` consecutive nodes; for
/// stripe `s` the node at chunk position `(s + k) mod (k+1)` holds the
/// primary page and the other `k` nodes hold full replicas. `k = 1` is
/// exactly the paper's mirroring layout (mirror at `s mod 2`).
#[derive(Clone, Copy, Debug)]
pub struct ReplicationMap {
    map: AddressMap,
    replicas: usize,
}

impl ReplicationMap {
    /// Creates a layout replicating every data page to `replicas` peers.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero or the node count is not a multiple
    /// of `replicas + 1`.
    pub fn new(map: AddressMap, replicas: usize) -> ReplicationMap {
        assert!(replicas > 0, "replication needs at least one replica");
        let chunk = replicas + 1;
        assert!(
            map.nodes().is_multiple_of(chunk),
            "node count {} is not a multiple of the replication chunk {}",
            map.nodes(),
            chunk
        );
        ReplicationMap { map, replicas }
    }

    /// Replicas per data page (`k`).
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Nodes per chunk (`k + 1`).
    pub fn chunk_size(&self) -> usize {
        self.replicas + 1
    }

    fn chunk_start(&self, node: NodeId) -> usize {
        node.index() / self.chunk_size() * self.chunk_size()
    }

    fn primary_pos(&self, stripe: u64) -> usize {
        ((stripe + self.replicas as u64) % self.chunk_size() as u64) as usize
    }

    fn page_at(&self, page: PageAddr, pos: usize) -> PageAddr {
        let node = self.map.home_of_page(page);
        let stripe = self.map.local_page_index(page);
        self.map
            .global_page(NodeId::from(self.chunk_start(node) + pos), stripe)
    }
}

impl RedundancyBackend for ReplicationMap {
    fn name(&self) -> &'static str {
        "replication"
    }

    fn address_map(&self) -> &AddressMap {
        &self.map
    }

    fn budget(&self) -> usize {
        self.replicas
    }

    fn storage_overhead(&self) -> f64 {
        self.replicas as f64 / self.chunk_size() as f64
    }

    fn rebuild_fanin(&self) -> usize {
        1
    }

    fn is_redundancy_page(&self, page: PageAddr) -> bool {
        let node = self.map.home_of_page(page);
        let stripe = self.map.local_page_index(page);
        node.index() % self.chunk_size() != self.primary_pos(stripe)
    }

    fn stores_values(&self, _page: PageAddr) -> bool {
        true
    }

    fn expand_update(&self, line: LineAddr, payload: LineData) -> Vec<(LineAddr, LineData)> {
        let page = line.page();
        assert!(
            !self.is_redundancy_page(page),
            "{page} is a replica page, it takes no updates of its own"
        );
        let stripe = self.map.local_page_index(page);
        let offset = line.index_in_page() as u64;
        let primary = self.primary_pos(stripe);
        (0..self.chunk_size())
            .filter(|&pos| pos != primary)
            .map(|pos| {
                (
                    LineAddr(self.page_at(page, pos).first_line().0 + offset),
                    payload,
                )
            })
            .collect()
    }

    fn group_of(&self, page: PageAddr) -> RedundancyGroup {
        let stripe = self.map.local_page_index(page);
        let primary = self.primary_pos(stripe);
        let mut data = Vec::with_capacity(1);
        let mut redundancy = Vec::with_capacity(self.replicas);
        for pos in 0..self.chunk_size() {
            let p = self.page_at(page, pos);
            if pos == primary {
                data.push(p);
            } else {
                redundancy.push(p);
            }
        }
        RedundancyGroup { data, redundancy }
    }

    fn overwhelmed_group(&self, lost: &[NodeId]) -> Option<RedundancyGroup> {
        overwhelmed_uniform(self.chunk_size(), self.replicas, lost)
            .map(|n| self.group_of(self.map.global_page(n, 0)))
    }

    fn check_group(
        &self,
        page: PageAddr,
        read: &mut dyn FnMut(LineAddr) -> LineData,
    ) -> Option<usize> {
        let group = self.group_of(page);
        let primary = group.data[0];
        for offset in 0..LINES_PER_PAGE {
            let want = read(LineAddr(primary.first_line().0 + offset as u64));
            for r in &group.redundancy {
                if read(LineAddr(r.first_line().0 + offset as u64)) != want {
                    return Some(offset);
                }
            }
        }
        None
    }

    fn rebuild_page(
        &self,
        page: PageAddr,
        missing: &dyn Fn(PageAddr) -> bool,
        read: &mut dyn FnMut(LineAddr) -> LineData,
    ) -> Vec<LineData> {
        let group = self.group_of(page);
        let source = group
            .data
            .iter()
            .chain(group.redundancy.iter())
            .copied()
            .find(|&m| m != page && !missing(m))
            .unwrap_or_else(|| panic!("rebuilding {page}: every replica is missing"));
        (0..LINES_PER_PAGE)
            .map(|offset| read(LineAddr(source.first_line().0 + offset as u64)))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The dispatching backend value
// ---------------------------------------------------------------------------

/// The machine's active redundancy backend. `Copy`, like [`ParityMap`],
/// so the machine and each directory hook can hold it by value.
#[derive(Clone, Copy, Debug)]
pub enum Redundancy {
    /// The paper's N+1 XOR parity (plus mirroring / mixed layouts).
    Xor(ParityMap),
    /// RAID-6-style P+Q double parity over GF(256).
    Double(DoubleParityMap),
    /// ReStore-style k-replication.
    Replication(ReplicationMap),
}

impl Redundancy {
    /// The inner [`ParityMap`] when this is the XOR backend.
    pub fn as_xor(&self) -> Option<&ParityMap> {
        match self {
            Redundancy::Xor(pm) => Some(pm),
            _ => None,
        }
    }

    fn backend(&self) -> &dyn RedundancyBackend {
        match self {
            Redundancy::Xor(pm) => pm,
            Redundancy::Double(dp) => dp,
            Redundancy::Replication(r) => r,
        }
    }
}

impl RedundancyBackend for Redundancy {
    fn name(&self) -> &'static str {
        self.backend().name()
    }
    fn address_map(&self) -> &AddressMap {
        self.backend().address_map()
    }
    fn budget(&self) -> usize {
        self.backend().budget()
    }
    fn storage_overhead(&self) -> f64 {
        self.backend().storage_overhead()
    }
    fn rebuild_fanin(&self) -> usize {
        self.backend().rebuild_fanin()
    }
    fn is_redundancy_page(&self, page: PageAddr) -> bool {
        self.backend().is_redundancy_page(page)
    }
    fn stores_values(&self, page: PageAddr) -> bool {
        self.backend().stores_values(page)
    }
    fn expand_update(&self, line: LineAddr, payload: LineData) -> Vec<(LineAddr, LineData)> {
        self.backend().expand_update(line, payload)
    }
    fn group_of(&self, page: PageAddr) -> RedundancyGroup {
        self.backend().group_of(page)
    }
    fn overwhelmed_group(&self, lost: &[NodeId]) -> Option<RedundancyGroup> {
        self.backend().overwhelmed_group(lost)
    }
    fn check_group(
        &self,
        page: PageAddr,
        read: &mut dyn FnMut(LineAddr) -> LineData,
    ) -> Option<usize> {
        self.backend().check_group(page, read)
    }
    fn rebuild_page(
        &self,
        page: PageAddr,
        missing: &dyn Fn(PageAddr) -> bool,
        read: &mut dyn FnMut(LineAddr) -> LineData,
    ) -> Vec<LineData> {
        self.backend().rebuild_page(page, missing, read)
    }
}

// The XOR backend delegates every operation to ParityMap so the paper's
// default behavior — down to message contents and rebuild arithmetic —
// is bit-identical to the pre-trait implementation.
impl RedundancyBackend for ParityMap {
    fn name(&self) -> &'static str {
        "xor"
    }

    fn address_map(&self) -> &AddressMap {
        self.address_map()
    }

    fn budget(&self) -> usize {
        1
    }

    fn storage_overhead(&self) -> f64 {
        self.storage_overhead()
    }

    fn rebuild_fanin(&self) -> usize {
        self.group_data_pages()
    }

    fn is_redundancy_page(&self, page: PageAddr) -> bool {
        self.is_parity_page(page)
    }

    fn stores_values(&self, page: PageAddr) -> bool {
        self.is_mirrored_page(page)
    }

    fn expand_update(&self, line: LineAddr, payload: LineData) -> Vec<(LineAddr, LineData)> {
        vec![(self.parity_line_of(line), payload)]
    }

    fn group_of(&self, page: PageAddr) -> RedundancyGroup {
        let g = ParityMap::group_of(self, page);
        RedundancyGroup {
            data: g.data,
            redundancy: vec![g.parity],
        }
    }

    fn overwhelmed_group(&self, lost: &[NodeId]) -> Option<RedundancyGroup> {
        ParityMap::overwhelmed_group(self, lost).map(|g| RedundancyGroup {
            data: g.data,
            redundancy: vec![g.parity],
        })
    }

    fn check_group(
        &self,
        page: PageAddr,
        read: &mut dyn FnMut(LineAddr) -> LineData,
    ) -> Option<usize> {
        ParityMap::check_group(self, page, read)
    }

    fn rebuild_page(
        &self,
        page: PageAddr,
        missing: &dyn Fn(PageAddr) -> bool,
        read: &mut dyn FnMut(LineAddr) -> LineData,
    ) -> Vec<LineData> {
        let group = ParityMap::group_of(self, page);
        let sources: Vec<PageAddr> = std::iter::once(group.parity)
            .chain(group.data.iter().copied())
            .filter(|&p| p != page)
            .collect();
        debug_assert!(
            sources.iter().all(|&s| !missing(s)),
            "rebuilding {page}: a second member is missing (beyond the N+1 budget)"
        );
        (0..LINES_PER_PAGE)
            .map(|offset| {
                let mut acc = LineData::ZERO;
                for src in &sources {
                    acc ^= read(LineAddr(src.first_line().0 + offset as u64));
                }
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let m = *RedundancyBackend::address_map(&dp);
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
        /// A protected write through the backend: applies the data write
        /// and every expanded redundancy update.
        fn protected_write(&mut self, rdx: &dyn RedundancyBackend, line: LineAddr, new: LineData) {
            let old = self.read(line);
            let stores = rdx.stores_values(line.page());
            let payload = if stores { new } else { old ^ new };
            self.0.insert(line, new);
            for (rline, rpayload) in rdx.expand_update(line, payload) {
                let v = if stores {
                    rpayload
                } else {
                    self.read(rline) ^ rpayload
                };
                self.0.insert(rline, v);
            }
        }
    }

    fn data_lines(rdx: &dyn RedundancyBackend, m: &AddressMap) -> Vec<LineAddr> {
        let mut out = Vec::new();
        for node in NodeId::all(m.nodes()) {
            for page in m.pages_of(node) {
                if !rdx.is_redundancy_page(page) {
                    out.push(LineAddr(page.first_line().0 + (node.index() % 7) as u64));
                }
            }
        }
        out
    }

    fn check_all(rdx: &dyn RedundancyBackend, mem: &Mem) {
        let m = *rdx.address_map();
        for node in NodeId::all(m.nodes()) {
            for page in m.pages_of(node) {
                if !rdx.is_redundancy_page(page) {
                    assert_eq!(
                        rdx.check_group(page, &mut |l| mem.read(l)),
                        None,
                        "invariant violated in the group of {page}"
                    );
                }
            }
        }
    }

    #[test]
    fn double_parity_survives_any_two_lost_members() {
        let dp = DoubleParityMap::new(map(4, 4), 2); // one chunk of 4
        let m = *RedundancyBackend::address_map(&dp);
        let mut mem = Mem::new();
        for (i, line) in data_lines(&dp, &m).into_iter().enumerate() {
            mem.protected_write(&dp, line, LineData::fill(0x11 + i as u8));
            mem.protected_write(&dp, line, LineData::fill(0x91 + i as u8));
        }
        check_all(&dp, &mem);
        // Every pair of lost nodes reconstructs every page byte-exactly.
        for a in 0..4usize {
            for b in 0..4usize {
                if a == b {
                    continue;
                }
                let lost: Vec<PageAddr> = m
                    .pages_of(NodeId::from(a))
                    .chain(m.pages_of(NodeId::from(b)))
                    .collect();
                for &page in &lost {
                    let missing = |p: PageAddr| lost.contains(&p) && p != page;
                    let rebuilt = dp.rebuild_page(page, &missing, &mut |l| mem.read(l));
                    for (offset, line) in rebuilt.iter().enumerate() {
                        let addr = LineAddr(page.first_line().0 + offset as u64);
                        assert_eq!(*line, mem.read(addr), "page {page} offset {offset}");
                    }
                }
            }
        }
    }

    #[test]
    fn double_parity_detects_corruption() {
        let dp = DoubleParityMap::new(map(4, 4), 2);
        let m = *RedundancyBackend::address_map(&dp);
        let mut mem = Mem::new();
        let line = data_lines(&dp, &m)[0];
        mem.protected_write(&dp, line, LineData::fill(0x7E));
        check_all(&dp, &mem);
        // Corrupt the data behind the backend's back: both checks trip.
        mem.0.insert(line, LineData::fill(0x7F));
        assert_eq!(
            dp.check_group(line.page(), &mut |l| mem.read(l)),
            Some(line.index_in_page()),
        );
    }

    #[test]
    fn replication_copies_and_rebuilds() {
        let rp = ReplicationMap::new(map(9, 6), 2); // chunks of 3, k = 2
        let m = *RedundancyBackend::address_map(&rp);
        assert_eq!(rp.budget(), 2);
        assert!((rp.storage_overhead() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(rp.rebuild_fanin(), 1);
        let mut mem = Mem::new();
        for (i, line) in data_lines(&rp, &m).into_iter().enumerate() {
            mem.protected_write(&rp, line, LineData::fill(0x21 + i as u8));
        }
        check_all(&rp, &mem);
        // Lose two of the three chunk members; every page still rebuilds.
        let lost: Vec<PageAddr> = m.pages_of(NodeId(0)).chain(m.pages_of(NodeId(2))).collect();
        for &page in &lost {
            let missing = |p: PageAddr| lost.contains(&p) && p != page;
            let rebuilt = rp.rebuild_page(page, &missing, &mut |l| mem.read(l));
            for (offset, line) in rebuilt.iter().enumerate() {
                let addr = LineAddr(page.first_line().0 + offset as u64);
                assert_eq!(*line, mem.read(addr), "page {page} offset {offset}");
            }
        }
    }

    #[test]
    fn single_replication_matches_mirroring_layout() {
        // k = 1 replication must be the paper's mirroring layout bit for
        // bit: same page classification, same update target.
        let m = map(4, 8);
        let rp = ReplicationMap::new(m, 1);
        let pm = ParityMap::new(m, 1);
        for node in NodeId::all(4) {
            for page in m.pages_of(node) {
                assert_eq!(
                    rp.is_redundancy_page(page),
                    pm.is_parity_page(page),
                    "{page}"
                );
                if !pm.is_parity_page(page) {
                    let line = LineAddr(page.first_line().0 + 3);
                    let expanded = rp.expand_update(line, LineData::fill(9));
                    assert_eq!(expanded, vec![(pm.parity_line_of(line), LineData::fill(9))]);
                    assert!(rp.stores_values(page) && pm.is_mirrored_page(page));
                }
            }
        }
    }

    #[test]
    fn xor_backend_delegates_to_parity_map() {
        let m = map(8, 16);
        let pm = ParityMap::new(m, 3);
        let rdx = Redundancy::Xor(pm);
        assert_eq!(rdx.name(), "xor");
        assert_eq!(rdx.budget(), 1);
        assert_eq!(rdx.rebuild_fanin(), 3);
        assert_eq!(rdx.storage_overhead(), pm.storage_overhead());
        for node in NodeId::all(8) {
            for page in m.pages_of(node) {
                assert_eq!(rdx.is_redundancy_page(page), pm.is_parity_page(page));
                if !pm.is_parity_page(page) {
                    let line = LineAddr(page.first_line().0 + 1);
                    assert_eq!(
                        rdx.expand_update(line, LineData::fill(5)),
                        vec![(pm.parity_line_of(line), LineData::fill(5))]
                    );
                }
            }
        }
        // The budget matches ParityMap's pairwise chunk logic.
        assert!(rdx.overwhelmed_group(&[NodeId(1), NodeId(2)]).is_some());
        assert_eq!(rdx.overwhelmed_group(&[NodeId(1), NodeId(5)]), None);
    }

    #[test]
    fn budgets_classify_losses_per_backend() {
        // 12 nodes: XOR chunks of 4 (G=3), P+Q chunks of 4 (G=2),
        // replication chunks of 4 (k=3).
        let m = map(12, 8);
        let xor = Redundancy::Xor(ParityMap::new(m, 3));
        let dp = Redundancy::Double(DoubleParityMap::new(m, 2));
        let rp = Redundancy::Replication(ReplicationMap::new(m, 3));
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
            assert!(rdx.overwhelmed_group(&cross).is_none(), "{}", rdx.name());
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
