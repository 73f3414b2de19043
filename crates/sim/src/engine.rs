//! Deterministic discrete-event scheduler.
//!
//! The simulator is a classic discrete-event simulation: components schedule
//! events at future times, and a central loop pops them in time order and
//! dispatches them. [`EventQueue`] is the priority queue at the heart of the
//! loop. Ties in time are broken by insertion order (FIFO), which makes runs
//! bit-for-bit reproducible.
//!
//! # Calendar-queue implementation
//!
//! Almost every event in this machine fires within a few hundred
//! nanoseconds of being scheduled (cache hits, hop latencies, directory
//! pipeline slots); only checkpoint timers and watchdogs look milliseconds
//! ahead. The queue exploits that split (DESIGN.md §14):
//!
//! * a **ring calendar** of `RING` (4096) one-nanosecond buckets covers the
//!   window `[now, now + RING)`. Scheduling into the window is an
//!   append to the bucket `time % RING`; popping scans an occupancy bitmap
//!   for the next non-empty bucket. Both are O(1)-ish and allocation-free
//!   in steady state (bucket storage is recycled).
//! * a **far heap** (the classic `BinaryHeap<Reverse<_>>`) holds the rare
//!   events beyond the window.
//!
//! Correctness does not depend on migrating far events into the ring:
//! each source is internally `(time, seq)`-sorted — ring buckets are
//! time-homogeneous and append in seq order, the heap orders by
//! `(time, seq)` — so `pop` is a two-way merge on the `(time, seq)` key
//! and reproduces exactly the order a single `(time, seq)` heap would.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Ns;

/// Number of one-nanosecond buckets in the ring calendar (must be a power
/// of two). 4096 ns comfortably covers every latency in the machine short
/// of checkpoint intervals and watchdog timeouts.
const RING: usize = 4096;
const RING_MASK: u64 = RING as u64 - 1;
const WORDS: usize = RING / 64;

/// A monotonically increasing sequence number used to break ties between
/// events scheduled for the same instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Seq(u64);

#[derive(Debug)]
struct Entry<E> {
    time: Ns,
    seq: Seq,
    event: E,
}

// Order by (time, seq); the payload never participates in the ordering, so
// `E` needs no trait bounds.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// One calendar bucket: flat `(seq, event)` pairs, all at the same time.
///
/// A `VecDeque` keeps pops O(1) while retaining its allocation across
/// reuse, so steady-state scheduling never touches the allocator.
#[derive(Debug)]
struct Bucket<E> {
    /// The (single) timestamp of every item currently in the bucket. Only
    /// meaningful while the bucket is non-empty.
    time: u64,
    items: VecDeque<(u64, E)>,
}

/// A deterministic time-ordered event queue.
///
/// Events scheduled for the same time are delivered in the order they were
/// scheduled (FIFO), so a simulation driven by this queue is fully
/// deterministic for a given input.
///
/// # Example
///
/// ```
/// use revive_sim::engine::EventQueue;
/// use revive_sim::time::Ns;
///
/// let mut q = EventQueue::new();
/// q.schedule(Ns(5), 'x');
/// q.schedule(Ns(5), 'y'); // same instant: FIFO
/// q.schedule(Ns(1), 'z');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['z', 'x', 'y']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    ring: Vec<Bucket<E>>,
    /// Occupancy bitmap over the ring: bit b set ⇔ bucket b non-empty.
    occ: [u64; WORDS],
    /// Events at or beyond `now + RING` when they were scheduled.
    far: BinaryHeap<Reverse<Entry<E>>>,
    len: usize,
    next_seq: u64,
    /// The simulation clock, which is also the base of the ring window.
    /// Invariant: every ring event is inside `[now, now + RING)`.
    now: Ns,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            ring: (0..RING)
                .map(|_| Bucket {
                    time: 0,
                    items: VecDeque::new(),
                })
                .collect(),
            occ: [0; WORDS],
            far: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
            now: Ns::ZERO,
            popped: 0,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Total number of events popped so far.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the last popped event): the
    /// simulation clock never runs backwards.
    pub fn schedule(&mut self, at: Ns, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let t = at.0;
        if t - self.now.0 < RING as u64 {
            let b = (t & RING_MASK) as usize;
            let bucket = &mut self.ring[b];
            debug_assert!(bucket.items.is_empty() || bucket.time == t);
            bucket.time = t;
            bucket.items.push_back((seq, event));
            self.occ[b >> 6] |= 1 << (b & 63);
        } else {
            self.far.push(Reverse(Entry {
                time: at,
                seq: Seq(seq),
                event,
            }));
        }
    }

    /// Index of the earliest non-empty ring bucket (in circular-from-`now`
    /// order, which is time order), if any.
    fn next_ring_bucket(&self) -> Option<usize> {
        let s = (self.now.0 & RING_MASK) as usize;
        let (sw, sb) = (s >> 6, s & 63);
        // First word: only bits at or above the clock's position.
        let w = self.occ[sw] & (!0u64 << sb);
        if w != 0 {
            return Some((sw << 6) + w.trailing_zeros() as usize);
        }
        for i in 1..WORDS {
            let wi = (sw + i) & (WORDS - 1);
            let w = self.occ[wi];
            if w != 0 {
                return Some((wi << 6) + w.trailing_zeros() as usize);
            }
        }
        // Wrap-around tail of the first word (buckets below the clock's
        // position, i.e. the far end of the window).
        let w = self.occ[sw] & !(!0u64 << sb);
        if w != 0 {
            return Some((sw << 6) + w.trailing_zeros() as usize);
        }
        None
    }

    /// Pops the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(Ns, E)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        self.popped += 1;
        let ring_best = self.next_ring_bucket().map(|b| {
            let bucket = &self.ring[b];
            (bucket.time, bucket.items.front().expect("occ bit set").0, b)
        });
        let take_far = match (ring_best, self.far.peek()) {
            (Some((bt, bs, _)), Some(Reverse(f))) => (f.time.0, f.seq.0) < (bt, bs),
            (None, _) => true,
            (_, None) => false,
        };
        if take_far {
            let Reverse(e) = self.far.pop().expect("len accounted for a far event");
            debug_assert!(e.time >= self.now);
            self.now = e.time;
            Some((e.time, e.event))
        } else {
            let (bt, _, b) = ring_best.expect("len accounted for a ring event");
            let bucket = &mut self.ring[b];
            let (_seq, event) = bucket.items.pop_front().expect("occ bit set");
            if bucket.items.is_empty() {
                self.occ[b >> 6] &= !(1 << (b & 63));
            }
            debug_assert!(bt >= self.now.0);
            self.now = Ns(bt);
            Some((Ns(bt), event))
        }
    }

    /// Pops the next event only if it fires strictly before `deadline`.
    /// One bucket scan serves both the peek and the pop, which is the main
    /// loop's hot path. `Err` carries the peeked time (`Err(None)` = empty).
    pub fn pop_before(&mut self, deadline: Ns) -> Result<(Ns, E), Option<Ns>> {
        if self.len == 0 {
            return Err(None);
        }
        let ring_best = self.next_ring_bucket().map(|b| {
            let bucket = &self.ring[b];
            (bucket.time, bucket.items.front().expect("occ bit set").0, b)
        });
        let far_key = self.far.peek().map(|Reverse(f)| (f.time.0, f.seq.0));
        let take_far = match (ring_best, far_key) {
            (Some((bt, bs, _)), Some((ft, fs))) => (ft, fs) < (bt, bs),
            (None, _) => true,
            (_, None) => false,
        };
        let next_t = if take_far {
            far_key.expect("len accounted for a far event").0
        } else {
            ring_best.expect("len accounted for a ring event").0
        };
        if next_t >= deadline.0 {
            return Err(Some(Ns(next_t)));
        }
        self.len -= 1;
        self.now = Ns(next_t);
        self.popped += 1;
        if take_far {
            let Reverse(e) = self.far.pop().expect("peeked far");
            Ok((e.time, e.event))
        } else {
            let (_, _, b) = ring_best.expect("peeked ring");
            let bucket = &mut self.ring[b];
            let (_seq, event) = bucket.items.pop_front().expect("occ bit set");
            if bucket.items.is_empty() {
                self.occ[b >> 6] &= !(1 << (b & 63));
            }
            Ok((Ns(next_t), event))
        }
    }

    /// Drops every pending event, keeping the clock where it is. Used when
    /// a machine is reset after an error: in-flight messages died with the
    /// hardware they were traversing.
    pub fn clear(&mut self) {
        if self.len != 0 {
            for w in 0..WORDS {
                let mut bits = self.occ[w];
                while bits != 0 {
                    let b = (w << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.ring[b].items.clear();
                }
                self.occ[w] = 0;
            }
            self.far.clear();
            self.len = 0;
        }
    }

    /// Removes and returns every pending event (in time order) without
    /// advancing the clock. Used at error-injection teardown to examine
    /// in-flight messages: those that physically survive the error are
    /// applied, the rest discarded.
    pub fn drain(&mut self) -> Vec<(Ns, E)> {
        let mut entries: Vec<(Ns, u64, E)> = Vec::with_capacity(self.len);
        for w in 0..WORDS {
            let mut bits = self.occ[w];
            while bits != 0 {
                let b = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let bucket = &mut self.ring[b];
                let t = Ns(bucket.time);
                entries.extend(bucket.items.drain(..).map(|(s, e)| (t, s, e)));
            }
            self.occ[w] = 0;
        }
        entries.extend(
            std::mem::take(&mut self.far)
                .into_iter()
                .map(|Reverse(e)| (e.time, e.seq.0, e.event)),
        );
        self.len = 0;
        entries.sort_by_key(|&(t, s, _)| (t, s));
        entries.into_iter().map(|(t, _, e)| (t, e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Ns(30), 3u32);
        q.schedule(Ns(10), 1);
        q.schedule(Ns(20), 2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((Ns(10), 1)));
        assert_eq!(q.pop(), Some((Ns(20), 2)));
        assert_eq!(q.pop(), Some((Ns(30), 3)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.events_processed(), 3);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Ns(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Ns(7), i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Ns(10), ());
        assert_eq!(q.now(), Ns::ZERO);
        q.pop();
        assert_eq!(q.now(), Ns(10));
        q.schedule(Ns(15), ());
        assert_eq!(q.pop(), Some((Ns(15), ())));
        assert_eq!(q.now(), Ns(15));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Ns(10), ());
        q.pop();
        q.schedule(Ns(5), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(Ns(1), "a");
        q.schedule(Ns(5), "c");
        assert_eq!(q.pop(), Some((Ns(1), "a")));
        q.schedule(Ns(3), "b");
        assert_eq!(q.pop(), Some((Ns(3), "b")));
        assert_eq!(q.pop(), Some((Ns(5), "c")));
    }

    #[test]
    fn far_events_interleave_with_ring_fifo() {
        // An event far beyond the window, then — after the clock moves —
        // another at the same instant inside the window. The earlier
        // schedule must still pop first.
        let far_t = Ns(RING as u64 + 100);
        let mut q = EventQueue::new();
        q.schedule(far_t, "early");
        q.schedule(Ns(200), "warm");
        assert_eq!(q.pop(), Some((Ns(200), "warm"))); // window now covers far_t
        q.schedule(far_t, "late");
        assert_eq!(q.pop(), Some((far_t, "early")));
        assert_eq!(q.pop(), Some((far_t, "late")));
    }

    #[test]
    fn ring_wraps_across_many_windows() {
        let mut q = EventQueue::new();
        let mut t = 0u64;
        for i in 0..10_000u64 {
            q.schedule(Ns(t + 1 + i % 97), i);
            let (at, got) = q.pop().unwrap();
            assert_eq!(got, i);
            t = at.0;
        }
        assert_eq!(q.events_processed(), 10_000);
    }

    #[test]
    fn drain_returns_sorted_and_keeps_clock() {
        let mut q = EventQueue::new();
        q.schedule(Ns(5), "b");
        q.schedule(Ns(1), "a");
        q.schedule(Ns(1_000_000), "far");
        q.pop();
        let rest = q.drain();
        assert_eq!(rest, vec![(Ns(5), "b"), (Ns(1_000_000), "far")]);
        assert!(q.is_empty());
        assert_eq!(q.now(), Ns(1));
    }

    #[test]
    fn clear_keeps_clock_and_empties() {
        let mut q = EventQueue::new();
        q.schedule(Ns(3), ());
        q.schedule(Ns(900_000), ());
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), Ns(3));
        q.schedule(Ns(4), ());
        assert_eq!(q.pop(), Some((Ns(4), ())));
    }

    /// An ordering oracle: the obviously-correct priority queue the
    /// calendar queue must agree with event-for-event.
    struct RefModel {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, u64)>>,
        next_seq: u64,
    }

    impl RefModel {
        fn new() -> RefModel {
            RefModel {
                heap: std::collections::BinaryHeap::new(),
                next_seq: 0,
            }
        }

        fn schedule(&mut self, at: u64, id: u64) {
            self.heap.push(std::cmp::Reverse((at, self.next_seq, id)));
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            self.heap.pop().map(|std::cmp::Reverse((t, _, id))| (t, id))
        }
    }

    /// xorshift64* — deterministic, dependency-free test randomness.
    fn rng(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Seeded random interleavings of every queue operation the engine
    /// uses — schedule (near and far), pop and pop_before — checked
    /// against the reference heap for identical pop order throughout.
    #[test]
    fn random_interleavings_match_reference_heap() {
        for seed in 1..=8u64 {
            let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut m = RefModel::new();
            let mut next_id = 0u64;
            for _ in 0..4_000 {
                match rng(&mut s) % 8 {
                    // Schedule: mostly near (ring), sometimes far (heap),
                    // with duplicate times to exercise FIFO ties.
                    0..=4 => {
                        let spread = if rng(&mut s).is_multiple_of(8) {
                            RING as u64 * 3
                        } else {
                            64
                        };
                        let at = q.now().0 + rng(&mut s) % spread;
                        q.schedule(Ns(at), next_id);
                        m.schedule(at, next_id);
                        next_id += 1;
                    }
                    5..=6 => {
                        assert_eq!(q.pop().map(|(t, id)| (t.0, id)), m.pop());
                    }
                    _ => {
                        let deadline = q.now().0 + rng(&mut s) % 128;
                        let got = q.pop_before(Ns(deadline)).ok();
                        let want = if m
                            .heap
                            .peek()
                            .is_some_and(|&std::cmp::Reverse((t, _, _))| t < deadline)
                        {
                            m.pop()
                        } else {
                            None
                        };
                        assert_eq!(got.map(|(t, id)| (t.0, id)), want);
                    }
                }
                assert_eq!(q.len(), m.heap.len(), "length diverged (seed {seed})");
            }
            // Drain both completely: full residual order must agree.
            while let Some((t, id)) = q.pop() {
                assert_eq!(Some((t.0, id)), m.pop());
            }
            assert!(m.heap.is_empty());
        }
    }
}
