//! Functional main memory.
//!
//! Each node owns a byte-addressable slice of the machine's memory. Unlike a
//! pure timing model, the contents are real: ReVive's parity reconstruction
//! and log replay are verified against actual values. A node's memory can be
//! *destroyed* (node-loss injection), after which reads panic — anything
//! still reading it is a simulator bug; recovery must reconstruct pages from
//! parity before touching them.
//!
//! Memory is paged copy-on-write: one shared handle per page, with every
//! untouched page pointing at one zero page. Cloning a [`NodeMemory`] costs
//! a refcount per page, and a write copies its page only if the page is
//! still shared — the first write after a clone, just as ReVive logs a
//! line only on its first write in an interval. A validation shadow is a
//! clone, and a memory image shares the pages it did not patch.
//!
//! Every mutator also flags the pages it writes, so validation can cost
//! what changed: [`NodeMemory::take_written`] hands out the pages written
//! since it was last called.

use std::sync::Arc;

use crate::addr::{LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};
use crate::line::LineData;

/// A shared, immutable page of memory contents. `Arc` rather than `Rc` so
/// the machine holding memories and images stays `Send`.
pub type SharedPage = Arc<[u8; PAGE_SIZE]>;

/// A set of page indices, one bit per page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageSet {
    words: Vec<u64>,
}

impl PageSet {
    /// An empty set over the pages `0..pages`.
    pub fn empty(pages: u64) -> PageSet {
        PageSet {
            words: vec![0; pages.div_ceil(64) as usize],
        }
    }

    /// Adds `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the set's range.
    #[inline]
    pub fn insert(&mut self, page: u64) {
        self.words[(page / 64) as usize] |= 1 << (page % 64);
    }

    /// Whether `page` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the set's range.
    #[inline]
    pub fn contains(&self, page: u64) -> bool {
        self.words[(page / 64) as usize] & (1 << (page % 64)) != 0
    }
}

/// The functional memory of one node.
///
/// Addresses here are *node-local line indices*; the global↔local mapping
/// lives in [`crate::addr::AddressMap`].
///
/// # Example
///
/// ```
/// use revive_mem::main_memory::NodeMemory;
/// use revive_mem::line::LineData;
///
/// let mut m = NodeMemory::new(8 * 4096);
/// m.write_line(3, LineData::fill(0xCD));
/// assert_eq!(m.read_line(3), LineData::fill(0xCD));
/// ```
#[derive(Clone)]
pub struct NodeMemory {
    pages: Vec<SharedPage>,
    /// Pages any mutator wrote since the last [`NodeMemory::take_written`].
    /// The pages are private, so the set is complete by construction.
    written: PageSet,
    lost: bool,
}

impl NodeMemory {
    /// Creates a zero-filled memory of `size_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the size is not a nonzero whole number of pages.
    pub fn new(size_bytes: usize) -> NodeMemory {
        assert!(
            size_bytes > 0 && size_bytes.is_multiple_of(PAGE_SIZE),
            "node memory must be a nonzero whole number of pages"
        );
        let pages = size_bytes / PAGE_SIZE;
        let zero = Arc::new([0; PAGE_SIZE]);
        NodeMemory {
            pages: vec![zero; pages],
            written: PageSet::empty(pages as u64),
            lost: false,
        }
    }

    /// Capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Capacity in lines.
    pub fn lines(&self) -> u64 {
        (self.pages.len() * LINES_PER_PAGE) as u64
    }

    /// Capacity in pages.
    pub fn pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Whether this memory has been destroyed and not yet reconstructed.
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// The page holding `local_line` and the line's byte offset in it.
    fn locate(&self, local_line: u64) -> (usize, usize) {
        assert!(
            local_line < self.lines(),
            "line {local_line} outside node memory"
        );
        let line = local_line as usize;
        (line / LINES_PER_PAGE, line % LINES_PER_PAGE * LINE_SIZE)
    }

    /// Reads one line.
    ///
    /// # Panics
    ///
    /// Panics if the line is out of range, or if the memory is lost —
    /// recovery must reconstruct pages before reading them.
    pub fn read_line(&self, local_line: u64) -> LineData {
        assert!(
            !self.lost,
            "read of destroyed memory (line {local_line}); reconstruct first"
        );
        let (page, offset) = self.locate(local_line);
        let mut out = [0u8; LINE_SIZE];
        out.copy_from_slice(&self.pages[page][offset..offset + LINE_SIZE]);
        LineData(out)
    }

    /// Writes one line, copying its page first if the page is shared.
    ///
    /// # Panics
    ///
    /// Panics if the line is out of range or the memory is lost.
    pub fn write_line(&mut self, local_line: u64, data: LineData) {
        assert!(
            !self.lost,
            "write to destroyed memory (line {local_line}); reconstruct first"
        );
        let (page, offset) = self.locate(local_line);
        Arc::make_mut(&mut self.pages[page])[offset..offset + LINE_SIZE].copy_from_slice(&data.0);
        self.written.insert(page as u64);
    }

    /// XORs `delta` into a line in place (the parity-home update
    /// `P' = P ^ U` of Figure 4).
    ///
    /// # Panics
    ///
    /// Panics if the line is out of range or the memory is lost.
    pub fn xor_line(&mut self, local_line: u64, delta: LineData) {
        let cur = self.read_line(local_line);
        self.write_line(local_line, cur ^ delta);
    }

    /// Destroys the contents (node-loss injection): every page becomes one
    /// shared garbage page, and all further access panics until
    /// [`NodeMemory::reconstruct_blank`] resets it.
    pub fn destroy(&mut self) {
        self.share_all(0xDE);
        self.lost = true;
    }

    /// Replaces the destroyed contents with a zeroed memory ready for
    /// reconstruction (recovery Phase 2 writes rebuilt pages into it).
    pub fn reconstruct_blank(&mut self) {
        self.share_all(0);
        self.lost = false;
    }

    /// Points every page at one fresh page filled with `byte`, and flags
    /// them all written.
    fn share_all(&mut self, byte: u8) {
        let page = Arc::new([byte; PAGE_SIZE]);
        for (i, slot) in self.pages.iter_mut().enumerate() {
            *slot = Arc::clone(&page);
            self.written.insert(i as u64);
        }
    }

    /// Returns the pages written since the previous call (or since
    /// creation) and clears the flags.
    pub fn take_written(&mut self) -> PageSet {
        let empty = PageSet::empty(self.pages());
        std::mem::replace(&mut self.written, empty)
    }

    /// The bytes of page `page`.
    ///
    /// # Panics
    ///
    /// Panics if the page is out of range or the memory is lost.
    pub fn page(&self, page: u64) -> &[u8] {
        &self.shared_page(page)[..]
    }

    /// The handle of page `page`, shared rather than copied: a later write
    /// to this memory copies the page and leaves the handle unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the page is out of range or the memory is lost.
    pub fn shared_page(&self, page: u64) -> &SharedPage {
        assert!(!self.lost, "read of destroyed memory (page {page})");
        &self.pages[page as usize]
    }

    /// A full, flat copy of the contents.
    ///
    /// # Panics
    ///
    /// Panics if the memory is lost.
    pub fn snapshot(&self) -> Vec<u8> {
        assert!(!self.lost, "snapshot of destroyed memory");
        let mut bytes = Vec::with_capacity(self.size_bytes());
        for page in &self.pages {
            bytes.extend_from_slice(&page[..]);
        }
        bytes
    }
}

impl std::fmt::Debug for NodeMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NodeMemory({} KB{})",
            self.size_bytes() / 1024,
            if self.lost { ", LOST" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = NodeMemory::new(PAGE_SIZE);
        assert_eq!(m.read_line(0), LineData::ZERO);
        let d = LineData::from_seed(5);
        m.write_line(7, d);
        assert_eq!(m.read_line(7), d);
        assert_eq!(m.lines(), (PAGE_SIZE / LINE_SIZE) as u64);
        assert_eq!(m.pages(), 1);
    }

    #[test]
    fn xor_line_applies_delta() {
        let mut m = NodeMemory::new(PAGE_SIZE);
        m.write_line(0, LineData::fill(0xF0));
        m.xor_line(0, LineData::fill(0x0F));
        assert_eq!(m.read_line(0), LineData::fill(0xFF));
    }

    #[test]
    #[should_panic(expected = "destroyed memory")]
    fn read_after_destroy_panics() {
        let mut m = NodeMemory::new(PAGE_SIZE);
        m.destroy();
        assert!(m.is_lost());
        let _ = m.read_line(0);
    }

    #[test]
    fn reconstruct_blank_allows_access_again() {
        let mut m = NodeMemory::new(PAGE_SIZE);
        m.write_line(0, LineData::fill(9));
        m.destroy();
        m.reconstruct_blank();
        assert!(!m.is_lost());
        // Contents were genuinely lost.
        assert_eq!(m.read_line(0), LineData::ZERO);
    }

    #[test]
    fn every_mutator_flags_what_it_writes() {
        let mut m = NodeMemory::new(4 * PAGE_SIZE);
        assert_eq!(m.take_written(), PageSet::empty(4));
        m.write_line(LINES_PER_PAGE as u64 + 1, LineData::fill(1));
        m.xor_line(3 * LINES_PER_PAGE as u64, LineData::fill(2));
        let written = m.take_written();
        assert!((0..4)
            .map(|p| written.contains(p))
            .eq([false, true, false, true]));
        assert_eq!(
            m.take_written(),
            PageSet::empty(4),
            "taking clears the flags"
        );
        let all = |m: &mut NodeMemory| {
            let w = m.take_written();
            (0..4).all(|p| w.contains(p))
        };
        m.destroy();
        assert!(all(&mut m));
        m.reconstruct_blank();
        assert!(all(&mut m));
    }

    /// One side of a clone and the flat model it must equal: `None` while
    /// the side is destroyed.
    struct Side {
        mem: NodeMemory,
        model: Option<Vec<u8>>,
        touched: PageSet,
    }

    impl Side {
        fn apply(&mut self, rng: &mut revive_sim::rng::DetRng) {
            let line = rng.range(0, self.mem.lines());
            let value = LineData::from_seed(rng.next_u64());
            let at = line as usize * LINE_SIZE..(line as usize + 1) * LINE_SIZE;
            let page = line / LINES_PER_PAGE as u64;
            let all = 0..self.mem.pages();
            let touched = match (&mut self.model, rng.range(0, 10)) {
                (None, _) => {
                    self.mem.reconstruct_blank();
                    self.model = Some(vec![0; self.mem.size_bytes()]);
                    all
                }
                (Some(_), 0) => {
                    self.mem.destroy();
                    self.model = None;
                    all
                }
                (Some(model), 1..=4) => {
                    self.mem.xor_line(line, value);
                    model[at].iter_mut().zip(value.0).for_each(|(b, v)| *b ^= v);
                    page..page + 1
                }
                (Some(model), _) => {
                    self.mem.write_line(line, value);
                    model[at].copy_from_slice(&value.0);
                    page..page + 1
                }
            };
            touched.for_each(|p| self.touched.insert(p));
        }

        fn check(&self, seed: u64) {
            assert_eq!(self.mem.is_lost(), self.model.is_none(), "seed {seed}");
            if let Some(model) = &self.model {
                assert!(self.mem.snapshot() == *model, "seed {seed}: contents");
            }
        }
    }

    /// Random mutation sequences applied to either side of a `clone()`:
    /// each side equals its own flat model, so no write shows through to
    /// the other side, and a page neither side touched is still shared.
    #[test]
    fn clones_are_isolated_and_share_untouched_pages() {
        use revive_sim::rng::DetRng;
        const PAGES: u64 = 6;
        for seed in 0..40 {
            let mut rng = DetRng::seed(seed);
            let fresh = NodeMemory::new(PAGES as usize * PAGE_SIZE);
            let mut left = Side {
                model: Some(fresh.snapshot()),
                mem: fresh,
                touched: PageSet::empty(PAGES),
            };
            for _ in 0..8 {
                let mut right = Side {
                    mem: left.mem.clone(),
                    model: left.model.clone(),
                    touched: PageSet::empty(PAGES),
                };
                left.touched = PageSet::empty(PAGES);
                for _ in 0..rng.range(0, 8) {
                    match rng.chance(0.5) {
                        true => left.apply(&mut rng),
                        false => right.apply(&mut rng),
                    }
                }
                left.check(seed);
                right.check(seed);
                for p in 0..PAGES {
                    let untouched = !left.touched.contains(p) && !right.touched.contains(p);
                    let shared =
                        Arc::ptr_eq(&left.mem.pages[p as usize], &right.mem.pages[p as usize]);
                    assert!(!untouched || shared, "seed {seed}: page {p} was copied");
                }
                if rng.chance(0.5) {
                    left = right;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside node memory")]
    fn out_of_range_line_panics() {
        let m = NodeMemory::new(PAGE_SIZE);
        let _ = m.read_line(m.lines());
    }
}
