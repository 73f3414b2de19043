//! Set-associative write-back caches with MESI line states.
//!
//! One [`Cache`] models a cache level: tags, MESI states, true-LRU
//! replacement, and (for the L2, which is the coherence point) the actual
//! line contents. The L1 uses the same structure as a timing filter; the
//! functional data lives at the L2 (see `revive-machine` for the rationale —
//! L2 is inclusive, so any externally visible access reaches it).

use std::fmt;

use revive_sim::fastdiv::FastDiv;

use crate::addr::{LineAddr, LINE_SIZE};
use crate::line::LineData;

/// MESI cache-line states.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Not present / stale.
    #[default]
    Invalid,
    /// Read-only; other caches may also hold the line; memory is up to date.
    Shared,
    /// Exclusive clean: only this cache holds the line; memory is up to date.
    /// A write upgrades to [`LineState::Modified`] silently (no directory
    /// message) — this is what creates the paper's Figure 5(b) case, where a
    /// write-back arrives for a line that was never announced as modified.
    Exclusive,
    /// Exclusive dirty: only this cache holds the line; memory is stale.
    Modified,
}

impl LineState {
    /// Whether the line holds write permission.
    pub fn is_exclusive(self) -> bool {
        matches!(self, LineState::Exclusive | LineState::Modified)
    }

    /// Whether the line's contents differ from memory.
    pub fn is_dirty(self) -> bool {
        self == LineState::Modified
    }

    /// Whether the line is present at all.
    pub fn is_valid(self) -> bool {
        self != LineState::Invalid
    }
}

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes; must be a multiple of `ways × LINE_SIZE`.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// The paper's L1: 16 KB, 4-way.
    pub fn l1_paper() -> CacheConfig {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
        }
    }

    /// The paper's L2: 128 KB, 4-way.
    pub fn l2_paper() -> CacheConfig {
        CacheConfig {
            size_bytes: 128 * 1024,
            ways: 4,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * LINE_SIZE)
    }

    /// Total line capacity.
    pub fn lines(&self) -> usize {
        self.size_bytes / LINE_SIZE
    }
}

// Lines are stored structure-of-arrays: tags, states and LRU stamps live in
// their own dense arrays so a tag probe touches one or two host cache lines,
// while the 64-byte line contents sit in a separate arena that is only
// touched when data actually moves. With the old array-of-structs layout a
// 4-way probe dragged ~350 bytes of payload through the host cache per
// lookup, which dominated the simulator's wall time.

/// A line evicted to make room for a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// Which line was evicted.
    pub line: LineAddr,
    /// Its state at eviction. [`LineState::Modified`] victims must be
    /// written back with [`Victim::data`]; [`LineState::Exclusive`] victims
    /// produce a clean replacement notice; [`LineState::Shared`] victims are
    /// dropped silently.
    pub state: LineState,
    /// The line contents (meaningful for `Modified` victims).
    pub data: LineData,
}

/// Hit/miss counters for one cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found a usable line.
    pub hits: u64,
    /// Lookups that missed (including permission misses counted by callers).
    pub misses: u64,
}

impl CacheStats {}

/// A set-associative write-back cache with true-LRU replacement.
///
/// # Example
///
/// ```
/// use revive_mem::addr::LineAddr;
/// use revive_mem::cache::{Cache, CacheConfig, LineState};
/// use revive_mem::line::LineData;
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 4096, ways: 2 });
/// assert_eq!(c.state_of(LineAddr(7)), LineState::Invalid);
/// let victim = c.fill(LineAddr(7), LineState::Exclusive, LineData::fill(9));
/// assert!(victim.is_none());
/// assert_eq!(c.state_of(LineAddr(7)), LineState::Exclusive);
/// ```
#[derive(Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `% sets`, strength-reduced (set counts are fixed per cache).
    set_rem: FastDiv,
    ways: usize,
    /// Tag of each way, indexed `set * ways + way`. Only meaningful where
    /// the matching state is valid.
    tags: Vec<u64>,
    /// MESI state of each way (same indexing as `tags`).
    states: Vec<LineState>,
    /// LRU stamp of each way (same indexing as `tags`).
    last_use: Vec<u64>,
    /// Line contents, kept out of the probe path (same indexing as `tags`).
    data: Vec<LineData>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not a multiple of
    /// `ways × LINE_SIZE`, or zero sets/ways).
    pub fn new(config: CacheConfig) -> Cache {
        assert!(config.ways > 0, "cache needs at least one way");
        assert!(
            config.size_bytes.is_multiple_of(config.ways * LINE_SIZE) && config.sets() > 0,
            "cache capacity {} is not a whole number of {}-way sets",
            config.size_bytes,
            config.ways
        );
        let lines = config.sets() * config.ways;
        Cache {
            config,
            set_rem: FastDiv::new(config.sets() as u64),
            ways: config.ways,
            tags: vec![0; lines],
            states: vec![LineState::Invalid; lines],
            last_use: vec![0; lines],
            data: vec![LineData::ZERO; lines],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Hit/miss statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn set_base(&self, line: LineAddr) -> usize {
        self.set_rem.rem(line.0) as usize * self.ways
    }

    /// Index of the line's way slot in the flat arrays, when present.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let base = self.set_base(line);
        (base..base + self.ways).find(|&i| self.tags[i] == line.0 && self.states[i].is_valid())
    }

    /// The line's current state ([`LineState::Invalid`] if absent). Does not
    /// touch LRU or statistics.
    pub fn state_of(&self, line: LineAddr) -> LineState {
        self.find(line)
            .map(|i| self.states[i])
            .unwrap_or(LineState::Invalid)
    }

    /// Looks the line up as a CPU access would: updates LRU and hit/miss
    /// counters, returns the state (Invalid on miss).
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> LineState {
        self.clock += 1;
        if let Some(i) = self.find(line) {
            self.last_use[i] = self.clock;
            self.stats.hits += 1;
            self.states[i]
        } else {
            self.stats.misses += 1;
            LineState::Invalid
        }
    }

    /// Reads the line's data (no LRU update).
    pub fn data_of(&self, line: LineAddr) -> Option<LineData> {
        self.find(line).map(|i| self.data[i])
    }

    /// Overwrites the line's data in place.
    ///
    /// # Panics
    ///
    /// Panics if the line is not present.
    pub fn write_data(&mut self, line: LineAddr, data: LineData) {
        let i = self.find(line).expect("write_data on absent line");
        self.data[i] = data;
    }

    /// Changes the line's state (e.g. `Exclusive → Modified` on a write hit,
    /// or `Modified → Shared` on a downgrade).
    ///
    /// # Panics
    ///
    /// Panics if the line is not present, or if the new state is Invalid
    /// (use [`Cache::invalidate`]).
    pub fn set_state(&mut self, line: LineAddr, state: LineState) {
        assert!(state.is_valid(), "use invalidate() to remove lines");
        let i = self.find(line).expect("set_state on absent line");
        self.states[i] = state;
    }

    /// Inserts a line, evicting the LRU way of its set if the set is full.
    /// Returns the victim when one was displaced (any valid state; the
    /// caller decides what notification, if any, the eviction produces).
    ///
    /// # Panics
    ///
    /// Panics if the line is already present (fills must be preceded by a
    /// miss) or if `state` is Invalid.
    pub fn fill(&mut self, line: LineAddr, state: LineState, data: LineData) -> Option<Victim> {
        assert!(state.is_valid(), "cannot fill an Invalid line");
        assert!(self.find(line).is_none(), "fill of already-present {line}");
        self.clock += 1;
        let base = self.set_base(line);
        let range = base..base + self.ways;
        // First invalid way, else the first true-LRU way among valid ones
        // (both tie-breaks match the original array-of-structs layout).
        let slot = match range.clone().find(|&i| !self.states[i].is_valid()) {
            Some(i) => i,
            None => range
                .min_by_key(|&i| self.last_use[i])
                .expect("nonempty set"),
        };
        let victim = self.states[slot].is_valid().then(|| Victim {
            line: LineAddr(self.tags[slot]),
            state: self.states[slot],
            data: self.data[slot],
        });
        self.tags[slot] = line.0;
        self.states[slot] = state;
        self.data[slot] = data;
        self.last_use[slot] = self.clock;
        victim
    }

    /// Removes the line (external invalidation or rollback cache wipe).
    /// Returns its prior state and data when it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<(LineState, LineData)> {
        let i = self.find(line)?;
        let prior = (self.states[i], self.data[i]);
        self.states[i] = LineState::Invalid;
        Some(prior)
    }

    /// Downgrades an exclusive line to Shared, returning its data when it
    /// was Modified (the caller must write it back: a "sharing write-back").
    pub fn downgrade(&mut self, line: LineAddr) -> Option<LineData> {
        let i = self.find(line)?;
        let was_dirty = self.states[i].is_dirty();
        if self.states[i].is_valid() {
            self.states[i] = LineState::Shared;
        }
        was_dirty.then_some(self.data[i])
    }

    /// All lines currently in the Modified state (what a checkpoint flush
    /// must write back), in set-major way order.
    pub fn dirty_lines(&self) -> Vec<LineAddr> {
        (0..self.tags.len())
            .filter(|&i| self.states[i].is_dirty())
            .map(|i| LineAddr(self.tags[i]))
            .collect()
    }

    /// Number of Modified lines.
    pub fn dirty_count(&self) -> usize {
        self.states.iter().filter(|s| s.is_dirty()).count()
    }

    /// Number of valid lines.
    pub fn valid_count(&self) -> usize {
        self.states.iter().filter(|s| s.is_valid()).count()
    }

    /// Invalidates everything (rollback discards all post-checkpoint cached
    /// state; transient-error injection wipes caches).
    pub fn clear(&mut self) {
        self.states.fill(LineState::Invalid);
    }
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cache({}B {}-way, {} valid, {} dirty)",
            self.config.size_bytes,
            self.config.ways,
            self.valid_count(),
            self.dirty_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets × 2 ways.
        Cache::new(CacheConfig {
            size_bytes: 4 * LINE_SIZE,
            ways: 2,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.access(LineAddr(4)), LineState::Invalid);
        c.fill(LineAddr(4), LineState::Shared, LineData::fill(1));
        assert_eq!(c.access(LineAddr(4)), LineState::Shared);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.data_of(LineAddr(4)), Some(LineData::fill(1)));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        c.fill(LineAddr(0), LineState::Shared, LineData::ZERO);
        c.fill(LineAddr(2), LineState::Shared, LineData::ZERO);
        c.access(LineAddr(0)); // 0 is now more recent than 2
        let v = c.fill(LineAddr(4), LineState::Shared, LineData::ZERO);
        assert_eq!(v.unwrap().line, LineAddr(2));
        assert_eq!(c.state_of(LineAddr(0)), LineState::Shared);
        assert_eq!(c.state_of(LineAddr(2)), LineState::Invalid);
    }

    #[test]
    fn modified_victim_carries_data() {
        let mut c = small();
        c.fill(LineAddr(0), LineState::Modified, LineData::fill(7));
        c.fill(LineAddr(2), LineState::Shared, LineData::ZERO);
        let v = c
            .fill(LineAddr(4), LineState::Shared, LineData::ZERO)
            .unwrap();
        assert_eq!(v.line, LineAddr(0));
        assert_eq!(v.state, LineState::Modified);
        assert_eq!(v.data, LineData::fill(7));
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = small();
        c.fill(LineAddr(1), LineState::Modified, LineData::fill(3));
        let wb = c.downgrade(LineAddr(1));
        assert_eq!(wb, Some(LineData::fill(3)));
        assert_eq!(c.state_of(LineAddr(1)), LineState::Shared);
        // Downgrading a Shared line yields no data.
        assert_eq!(c.downgrade(LineAddr(1)), None);
        let (st, _) = c.invalidate(LineAddr(1)).unwrap();
        assert_eq!(st, LineState::Shared);
        assert_eq!(c.state_of(LineAddr(1)), LineState::Invalid);
        assert_eq!(c.invalidate(LineAddr(1)), None);
    }

    #[test]
    fn silent_e_to_m_transition() {
        let mut c = small();
        c.fill(LineAddr(1), LineState::Exclusive, LineData::ZERO);
        c.set_state(LineAddr(1), LineState::Modified);
        c.write_data(LineAddr(1), LineData::fill(9));
        assert_eq!(c.dirty_lines(), vec![LineAddr(1)]);
        assert_eq!(c.dirty_count(), 1);
    }

    #[test]
    fn clear_wipes_everything() {
        let mut c = small();
        c.fill(LineAddr(0), LineState::Modified, LineData::ZERO);
        c.fill(LineAddr(1), LineState::Shared, LineData::ZERO);
        c.clear();
        assert_eq!(c.valid_count(), 0);
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn paper_geometries() {
        let l1 = Cache::new(CacheConfig::l1_paper());
        let l2 = Cache::new(CacheConfig::l2_paper());
        assert_eq!(l1.config().lines(), 256);
        assert_eq!(l2.config().lines(), 2048);
        assert_eq!(l1.config().sets(), 64);
    }

    #[test]
    #[should_panic(expected = "already-present")]
    fn double_fill_panics() {
        let mut c = small();
        c.fill(LineAddr(0), LineState::Shared, LineData::ZERO);
        c.fill(LineAddr(0), LineState::Shared, LineData::ZERO);
    }

    #[test]
    fn state_queries_do_not_touch_lru() {
        let mut c = small();
        c.fill(LineAddr(0), LineState::Shared, LineData::ZERO);
        c.fill(LineAddr(2), LineState::Shared, LineData::ZERO);
        // Peek at 0 without touching LRU; 0 must still be the LRU victim.
        assert_eq!(c.state_of(LineAddr(0)), LineState::Shared);
        let v = c.fill(LineAddr(4), LineState::Shared, LineData::ZERO);
        assert_eq!(v.unwrap().line, LineAddr(0));
    }
}
