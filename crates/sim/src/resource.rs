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
}

impl Resource {
    /// Creates a resource that is free from time zero.
    pub fn new() -> Resource {
        Resource::default()
    }

    /// Reserves the resource for `service` starting no earlier than `now`.
    /// Returns the completion time.
    pub fn acquire(&mut self, now: Ns, service: Ns) -> Ns {
        let done = now.max(self.free_at) + service;
        self.busy_total += service;
        self.free_at = done;
        done
    }

    /// Total time the resource has been reserved.
    pub fn busy_total(&self) -> Ns {
        self.busy_total
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
        assert_eq!(r.busy_total(), Ns(30));
    }
}
