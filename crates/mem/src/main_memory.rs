//! Functional main memory.
//!
//! Each node owns a byte-addressable slice of the machine's memory. Unlike a
//! pure timing model, the contents are real: ReVive's parity reconstruction
//! and log replay are verified against actual values. A node's memory can be
//! *destroyed* (node-loss injection), after which reads panic — anything
//! still reading it is a simulator bug; recovery must reconstruct pages from
//! parity before touching them.
//!
//! Every mutator flags the pages it writes, so validation can cost what
//! changed: [`NodeMemory::take_written`] hands out the pages written since
//! it was last called, and [`NodeMemory::shadow`] copies only those into a
//! copy-on-write [`MemShadow`], sharing every other page with the previous
//! shadow.

use std::sync::Arc;

use crate::addr::{LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};
use crate::line::LineData;

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
    bytes: Vec<u8>,
    /// Pages any mutator wrote since the last [`NodeMemory::take_written`].
    /// The bytes are private, so the set is complete by construction.
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
        NodeMemory {
            bytes: vec![0; size_bytes],
            written: PageSet::empty((size_bytes / PAGE_SIZE) as u64),
            lost: false,
        }
    }

    /// Capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Capacity in lines.
    pub fn lines(&self) -> u64 {
        (self.bytes.len() / LINE_SIZE) as u64
    }

    /// Capacity in pages.
    pub fn pages(&self) -> u64 {
        (self.bytes.len() / PAGE_SIZE) as u64
    }

    /// Whether this memory has been destroyed and not yet reconstructed.
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    fn line_range(&self, local_line: u64) -> std::ops::Range<usize> {
        let start = local_line as usize * LINE_SIZE;
        assert!(
            start + LINE_SIZE <= self.bytes.len(),
            "line {local_line} outside node memory"
        );
        start..start + LINE_SIZE
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
        let r = self.line_range(local_line);
        let mut out = [0u8; LINE_SIZE];
        out.copy_from_slice(&self.bytes[r]);
        LineData(out)
    }

    /// Writes one line.
    ///
    /// # Panics
    ///
    /// Panics if the line is out of range or the memory is lost.
    pub fn write_line(&mut self, local_line: u64, data: LineData) {
        assert!(
            !self.lost,
            "write to destroyed memory (line {local_line}); reconstruct first"
        );
        let r = self.line_range(local_line);
        self.bytes[r].copy_from_slice(&data.0);
        self.written.insert(local_line / LINES_PER_PAGE as u64);
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

    /// Destroys the contents (node-loss injection): data becomes garbage
    /// and all further access panics until [`NodeMemory::reconstruct_blank`]
    /// resets it.
    pub fn destroy(&mut self) {
        self.bytes.fill(0xDE);
        self.lost = true;
        self.mark_all_written();
    }

    /// Replaces the destroyed contents with a zeroed memory ready for
    /// reconstruction (recovery Phase 2 writes rebuilt pages into it).
    pub fn reconstruct_blank(&mut self) {
        self.bytes.fill(0);
        self.lost = false;
        self.mark_all_written();
    }

    fn mark_all_written(&mut self) {
        for page in 0..self.pages() {
            self.written.insert(page);
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
        assert!(!self.lost, "read of destroyed memory (page {page})");
        let start = page as usize * PAGE_SIZE;
        &self.bytes[start..start + PAGE_SIZE]
    }

    /// A copy-on-write shadow of the contents: the pages in `written` are
    /// copied, every other page is shared with `base`. `written` must hold
    /// every page written since `base` was equal to this memory, as
    /// [`NodeMemory::take_written`] returns when called at that point.
    ///
    /// # Panics
    ///
    /// Panics if the memory is lost or `base` has a different size.
    pub fn shadow(&self, base: &MemShadow, written: &PageSet) -> MemShadow {
        assert!(!self.lost, "shadow of destroyed memory");
        assert_eq!(
            base.pages.len() as u64,
            self.pages(),
            "shadow base size mismatch"
        );
        let pages = (0..self.pages())
            .zip(&base.pages)
            .map(|(page, shared)| match written.contains(page) {
                true => Arc::from(self.page(page)),
                false => Arc::clone(shared),
            })
            .collect();
        MemShadow { pages }
    }

    /// A full, flat copy of the contents. Validation takes copy-on-write
    /// [`MemShadow`]s instead; this is the byte-for-byte reference they
    /// are tested against.
    ///
    /// # Panics
    ///
    /// Panics if the memory is lost.
    pub fn snapshot(&self) -> Vec<u8> {
        assert!(!self.lost, "snapshot of destroyed memory");
        self.bytes.clone()
    }

    /// Restores contents from a snapshot taken with [`NodeMemory::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot size does not match.
    pub fn restore(&mut self, snapshot: &[u8]) {
        assert_eq!(snapshot.len(), self.bytes.len(), "snapshot size mismatch");
        self.bytes.copy_from_slice(snapshot);
        self.lost = false;
        self.mark_all_written();
    }
}

/// An immutable, copy-on-write snapshot of a [`NodeMemory`]: one shared
/// page handle per page. Taking the next shadow with
/// [`NodeMemory::shadow`] copies only the pages written since and shares
/// the rest, so shadows taken in sequence cost what changed between them.
#[derive(Clone)]
pub struct MemShadow {
    /// `Arc` rather than `Rc` so the machine holding shadows stays `Send`.
    pages: Vec<Arc<[u8]>>,
}

impl MemShadow {
    /// The shadow of a fresh `NodeMemory::new(size_bytes)`: one zero page,
    /// shared by every page.
    pub fn zeroed(size_bytes: usize) -> MemShadow {
        let zero: Arc<[u8]> = Arc::from(vec![0u8; PAGE_SIZE]);
        MemShadow {
            pages: vec![zero; size_bytes / PAGE_SIZE],
        }
    }

    /// The bytes of page `page`.
    ///
    /// # Panics
    ///
    /// Panics if the page is out of range.
    pub fn page(&self, page: u64) -> &[u8] {
        &self.pages[page as usize]
    }
}

impl std::fmt::Debug for MemShadow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemShadow({} pages)", self.pages.len())
    }
}

impl std::fmt::Debug for NodeMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NodeMemory({} KB{})",
            self.bytes.len() / 1024,
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
    fn snapshot_restore() {
        let mut m = NodeMemory::new(PAGE_SIZE);
        m.write_line(3, LineData::fill(1));
        let snap = m.snapshot();
        m.write_line(3, LineData::fill(2));
        m.restore(&snap);
        assert_eq!(m.read_line(3), LineData::fill(1));
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
        let snap = m.snapshot();
        m.restore(&snap);
        assert!(all(&mut m));
    }

    /// Copy-on-write shadows taken after random mutation sequences equal a
    /// flat snapshot byte for byte, and shadows taken earlier never change.
    #[test]
    fn copy_on_write_shadows_match_flat_snapshots() {
        use revive_sim::rng::DetRng;
        const PAGES: u64 = 6;
        let flatten = |s: &MemShadow| -> Vec<u8> { s.pages.concat() };
        for seed in 0..40 {
            let mut rng = DetRng::seed(seed);
            let mut m = NodeMemory::new(PAGES as usize * PAGE_SIZE);
            let mut base = MemShadow::zeroed(m.size_bytes());
            let mut taken: Vec<(MemShadow, Vec<u8>)> = Vec::new();
            for _ in 0..12 {
                for _ in 0..rng.range(0, 6) {
                    let line = rng.range(0, m.lines());
                    let value = LineData::from_seed(rng.next_u64());
                    match rng.range(0, 10) {
                        0 => {
                            m.destroy();
                            m.reconstruct_blank();
                        }
                        1 => match taken.get(rng.index(taken.len().max(1))) {
                            Some((_, flat)) => m.restore(flat),
                            None => m.restore(&vec![7; m.size_bytes()]),
                        },
                        2..=5 => m.xor_line(line, value),
                        _ => m.write_line(line, value),
                    }
                }
                let written = m.take_written();
                let shadow = m.shadow(&base, &written);
                assert_eq!(flatten(&shadow), m.snapshot(), "seed {seed}");
                for (earlier, flat) in &taken {
                    assert_eq!(&flatten(earlier), flat, "seed {seed}: a shadow changed");
                }
                taken.push((shadow.clone(), m.snapshot()));
                base = shadow;
            }
        }
    }

    #[test]
    fn unwritten_pages_are_shared_not_copied() {
        let mut m = NodeMemory::new(2 * PAGE_SIZE);
        let written = m.take_written();
        let first = m.shadow(&MemShadow::zeroed(m.size_bytes()), &written);
        m.write_line(0, LineData::fill(3));
        let written = m.take_written();
        let second = m.shadow(&first, &written);
        assert!(!Arc::ptr_eq(&first.pages[0], &second.pages[0]));
        assert!(Arc::ptr_eq(&first.pages[1], &second.pages[1]));
        assert_eq!(first.page(0), &[0u8; PAGE_SIZE][..]);
        assert_eq!(&second.page(0)[..LINE_SIZE], &[3u8; LINE_SIZE][..]);
    }

    #[test]
    #[should_panic(expected = "outside node memory")]
    fn out_of_range_line_panics() {
        let m = NodeMemory::new(PAGE_SIZE);
        let _ = m.read_line(m.lines());
    }
}
