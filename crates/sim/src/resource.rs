//! "Busy-until" contention models.
//!
//! The simulator models shared hardware resources — directory controller
//! pipelines, DRAM banks, torus links — with the classic *busy-until*
//! reservation scheme: each resource remembers the time at which it next
//! becomes free; a request arriving at `now` starts at `max(now, free)`,
//! occupies the resource for its service time, and completes at
//! `start + service`. This captures queueing delay without simulating
//! per-cycle arbitration, which is the level of fidelity the paper's
//! evaluation needs (it reports aggregate traffic and end-to-end overhead,
//! not per-flit behavior).

use crate::time::Ns;

/// A single serially-shared resource (e.g. a directory controller pipeline
/// stage or one network link).
///
/// # Example
///
/// ```
/// use revive_sim::resource::Resource;
/// use revive_sim::time::Ns;
///
/// let mut link = Resource::new();
/// // Two back-to-back transfers of 10ns each, both arriving at t=0:
/// assert_eq!(link.acquire(Ns(0), Ns(10)), Ns(10));
/// assert_eq!(link.acquire(Ns(0), Ns(10)), Ns(20)); // queued behind the first
/// // A later arrival sees the resource idle again:
/// assert_eq!(link.acquire(Ns(100), Ns(10)), Ns(110));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Resource {
    free_at: Ns,
    busy_total: Ns,
    uses: u64,
    wait_total: Ns,
}

impl Resource {
    /// Creates a resource that is free from time zero.
    pub fn new() -> Resource {
        Resource::default()
    }

    /// Reserves the resource for `service` starting no earlier than `now`.
    /// Returns the completion time.
    pub fn acquire(&mut self, now: Ns, service: Ns) -> Ns {
        let start = now.max(self.free_at);
        let done = start + service;
        self.wait_total += start - now;
        self.busy_total += service;
        self.free_at = done;
        self.uses += 1;
        done
    }

    /// The earliest time at which the resource is free.
    pub fn free_at(&self) -> Ns {
        self.free_at
    }

    /// Total time the resource has been reserved.
    pub fn busy_total(&self) -> Ns {
        self.busy_total
    }

    /// Total queueing delay experienced by all requests.
    pub fn wait_total(&self) -> Ns {
        self.wait_total
    }

    /// Number of reservations made.
    pub fn uses(&self) -> u64 {
        self.uses
    }

    /// Fraction of time busy over the window `[0, horizon]`.
    pub fn utilization(&self, horizon: Ns) -> f64 {
        if horizon == Ns::ZERO {
            0.0
        } else {
            self.busy_total.0 as f64 / horizon.0 as f64
        }
    }

    /// Forgets all reservations (used when a component is reset after an
    /// error, e.g. during recovery Phase 1).
    pub fn reset(&mut self) {
        *self = Resource::default();
    }
}

/// A bank of interchangeable-but-addressed resources, such as the 16 DRAM
/// banks of a node's memory: each request targets a specific member.
///
/// # Example
///
/// ```
/// use revive_sim::resource::ResourceBank;
/// use revive_sim::time::Ns;
///
/// let mut banks = ResourceBank::new(4);
/// // Requests to different banks proceed in parallel:
/// assert_eq!(banks.acquire(0, Ns(0), Ns(50)), Ns(50));
/// assert_eq!(banks.acquire(1, Ns(0), Ns(50)), Ns(50));
/// // A second request to bank 0 queues:
/// assert_eq!(banks.acquire(0, Ns(0), Ns(50)), Ns(100));
/// ```
#[derive(Clone, Debug)]
pub struct ResourceBank {
    members: Vec<Resource>,
}

impl ResourceBank {
    /// Creates a bank with `n` members, all free from time zero.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero: an empty bank cannot serve requests.
    pub fn new(n: usize) -> ResourceBank {
        assert!(n > 0, "a resource bank needs at least one member");
        ResourceBank {
            members: vec![Resource::new(); n],
        }
    }

    /// Number of members in the bank.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the bank has no members (never true; see [`ResourceBank::new`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Reserves member `index` for `service` starting no earlier than `now`;
    /// returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn acquire(&mut self, index: usize, now: Ns, service: Ns) -> Ns {
        self.members[index].acquire(now, service)
    }

    /// Total reservations across all members.
    pub fn uses(&self) -> u64 {
        self.members.iter().map(Resource::uses).sum()
    }

    /// Total busy time across all members.
    pub fn busy_total(&self) -> Ns {
        self.members.iter().map(Resource::busy_total).sum()
    }

    /// Total queueing delay across all members.
    pub fn wait_total(&self) -> Ns {
        self.members.iter().map(Resource::wait_total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_requests_queue() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(Ns(0), Ns(10)), Ns(10));
        assert_eq!(r.acquire(Ns(5), Ns(10)), Ns(20));
        assert_eq!(r.acquire(Ns(25), Ns(10)), Ns(35));
        assert_eq!(r.uses(), 3);
        assert_eq!(r.busy_total(), Ns(30));
        // Second request waited 5ns (arrived at 5, started at 10).
        assert_eq!(r.wait_total(), Ns(5));
    }

    #[test]
    fn utilization_over_horizon() {
        let mut r = Resource::new();
        r.acquire(Ns(0), Ns(50));
        assert!((r.utilization(Ns(100)) - 0.5).abs() < 1e-12);
        assert_eq!(r.utilization(Ns::ZERO), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new();
        r.acquire(Ns(0), Ns(10));
        r.reset();
        assert_eq!(r.free_at(), Ns::ZERO);
        assert_eq!(r.uses(), 0);
    }

    #[test]
    fn banks_are_independent() {
        let mut b = ResourceBank::new(2);
        assert_eq!(b.acquire(0, Ns(0), Ns(10)), Ns(10));
        assert_eq!(b.acquire(1, Ns(0), Ns(10)), Ns(10));
        assert_eq!(b.acquire(0, Ns(0), Ns(10)), Ns(20));
        assert_eq!(b.uses(), 3);
        assert_eq!(b.busy_total(), Ns(30));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_bank_rejected() {
        let _ = ResourceBank::new(0);
    }
}
