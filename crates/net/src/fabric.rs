//! Network timing: virtual cut-through latency plus link contention.

use revive_sim::resource::Resource;
use revive_sim::stats::Counter;
use revive_sim::time::Ns;
use revive_sim::types::NodeId;

use crate::fault::FaultState;
use crate::topology::{LinkId, Torus};

/// Timing parameters of the fabric (Table 3 of the paper).
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    /// Fixed per-message transfer time (30 ns in the paper).
    pub base_latency: Ns,
    /// Additional latency per hop (8 ns in the paper).
    pub per_hop: Ns,
    /// Link bandwidth in bytes per nanosecond; a message of `s` bytes holds
    /// each link on its path for `s / bandwidth` (its serialization time).
    /// The paper's torus links are modeled at 3.2 GB/s (two 100 MHz 128-bit
    /// memory channels feed them), i.e. 3.2 bytes/ns.
    pub bytes_per_ns: f64,
    /// Latency of a message a node sends to itself (local directory access
    /// without entering the fabric).
    pub local_latency: Ns,
}

impl Default for FabricConfig {
    fn default() -> FabricConfig {
        FabricConfig {
            base_latency: Ns(30),
            per_hop: Ns(8),
            bytes_per_ns: 3.2,
            local_latency: Ns(5),
        }
    }
}

/// The interconnect timing model.
///
/// [`Fabric::send`] computes the arrival time of a message, reserving every
/// link on the deterministic route for the message's serialization time
/// (virtual cut-through: the head flit pays the hop latency once; the body
/// occupies each link for `size / bandwidth`).
///
/// # Example
///
/// ```
/// use revive_net::{Fabric, FabricConfig, Torus};
/// use revive_sim::{time::Ns, types::NodeId};
///
/// let mut f = Fabric::new(Torus::new(4, 4), FabricConfig::default());
/// let t1 = f.send(Ns(0), NodeId(0), NodeId(1), 8);
/// // A second message over the same link queues behind the first:
/// let t2 = f.send(Ns(0), NodeId(0), NodeId(1), 8);
/// assert!(t2 > t1);
/// ```
#[derive(Clone, Debug)]
pub struct Fabric {
    torus: Torus,
    config: FabricConfig,
    links: Vec<Resource>,
    messages: Counter,
    bytes: Counter,
    latency_sum: Ns,
    fault: FaultState,
}

impl Fabric {
    /// Creates a fabric over the given torus.
    pub fn new(torus: Torus, config: FabricConfig) -> Fabric {
        Fabric {
            torus,
            config,
            links: vec![Resource::new(); torus.link_count()],
            messages: Counter::new(),
            bytes: Counter::new(),
            latency_sum: Ns::ZERO,
            fault: FaultState::for_torus(&torus),
        }
    }

    /// The topology this fabric runs on.
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// The current fault state (dead routers/links).
    pub fn fault(&self) -> &FaultState {
        &self.fault
    }

    /// Mutable fault state, for killing and healing components.
    pub fn fault_mut(&mut self) -> &mut FaultState {
        &mut self.fault
    }

    /// Serialization time of a message of `size` bytes on one link.
    pub fn serialization(&self, size: u32) -> Ns {
        Ns((size as f64 / self.config.bytes_per_ns).ceil() as u64)
    }

    /// Sends `size` bytes from `src` to `dst` at time `now`; returns the
    /// arrival time at `dst`, accounting for contention on every link of the
    /// route.
    ///
    /// A message to self models a purely node-local interaction and pays
    /// only [`FabricConfig::local_latency`].
    pub fn send(&mut self, now: Ns, src: NodeId, dst: NodeId, size: u32) -> Ns {
        self.messages.inc();
        self.bytes.add(size as u64);
        if src == dst {
            self.latency_sum += self.config.local_latency;
            return now + self.config.local_latency;
        }
        let route = self.torus.route(src, dst);
        let ser = self.serialization(size);
        // Virtual cut-through: the head advances hop by hop, paying one
        // per-hop latency per link; the body occupies each link for its
        // serialization time, which is what creates contention. Arrival is
        // the head's arrival (the paper's `30ns + 8ns × hops` formula);
        // queueing shows up when a link is still busy with an earlier
        // message, pushing the start time back.
        let mut head = now + self.config.base_latency;
        for link in route {
            let idx = self.torus.link_index(link);
            let done = self.links[idx].acquire(head, ser);
            let start = done - ser; // when this link began transmitting
            head = start + self.config.per_hop;
        }
        let arrival = head.max(now + self.uncontended(src, dst));
        self.latency_sum += arrival - now;
        arrival
    }

    /// Sends `size` bytes over an explicit route (the fault-aware path from
    /// [`Torus::route_around`]); same cut-through timing and contention
    /// model as [`Fabric::send`], but the arrival floor uses the route's
    /// actual length — a detour is longer than the dimension-order minimum.
    ///
    /// An empty route models a node-local interaction, as in `send`.
    pub fn send_routed(&mut self, now: Ns, route: &[LinkId], size: u32) -> Ns {
        self.messages.inc();
        self.bytes.add(size as u64);
        if route.is_empty() {
            self.latency_sum += self.config.local_latency;
            return now + self.config.local_latency;
        }
        let ser = self.serialization(size);
        let mut head = now + self.config.base_latency;
        for link in route {
            let idx = self.torus.link_index(*link);
            let done = self.links[idx].acquire(head, ser);
            let start = done - ser;
            head = start + self.config.per_hop;
        }
        let floor = self.config.base_latency + self.config.per_hop * route.len() as u64;
        let arrival = head.max(now + floor);
        self.latency_sum += arrival - now;
        arrival
    }

    /// The uncontended latency between two nodes:
    /// `base + per_hop × hops` (or the local latency for self-sends).
    pub fn uncontended(&self, src: NodeId, dst: NodeId) -> Ns {
        if src == dst {
            self.config.local_latency
        } else {
            self.config.base_latency + self.config.per_hop * self.torus.hops(src, dst) as u64
        }
    }

    /// Total messages sent.
    pub fn messages(&self) -> u64 {
        self.messages.get()
    }

    /// Total bytes sent.
    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// Mean end-to-end message latency so far.
    pub fn mean_latency(&self) -> Ns {
        let n = self.messages.get();
        if n == 0 {
            Ns::ZERO
        } else {
            self.latency_sum / n
        }
    }

    /// Aggregate busy time across all links (for utilization reports).
    pub fn link_busy_total(&self) -> Ns {
        self.links.iter().map(Resource::busy_total).sum()
    }

    /// A snapshot of the fabric's delivery counters, cheap enough to take
    /// every sampling epoch (interval rates are deltas of two snapshots).
    pub fn stats(&self) -> FabricStats {
        FabricStats {
            messages: self.messages.get(),
            bytes: self.bytes.get(),
            latency_sum: self.latency_sum,
            link_busy: self.link_busy_total(),
        }
    }
}

/// A point-in-time snapshot of fabric delivery counters. Nothing resets
/// them, recovery included: they span the whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Messages delivered so far.
    pub messages: u64,
    /// Bytes delivered so far.
    pub bytes: u64,
    /// Sum of end-to-end message latencies.
    pub latency_sum: Ns,
    /// Aggregate busy time across all links.
    pub link_busy: Ns,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Fabric {
        Fabric::new(Torus::new(4, 4), FabricConfig::default())
    }

    #[test]
    fn uncontended_matches_formula() {
        let mut f = fabric();
        // 0 -> 5 is 2 hops: 30 + 8*2 = 46ns.
        let t = f.send(Ns(0), NodeId(0), NodeId(5), 8);
        assert_eq!(t, Ns(46));
        assert_eq!(f.uncontended(NodeId(0), NodeId(5)), Ns(46));
    }

    #[test]
    fn local_send_is_cheap() {
        let mut f = fabric();
        let t = f.send(Ns(10), NodeId(3), NodeId(3), 72);
        assert_eq!(t, Ns(10) + FabricConfig::default().local_latency);
    }

    #[test]
    fn contention_delays_second_message() {
        let mut f = fabric();
        // Large messages on the same single-hop route.
        let t1 = f.send(Ns(0), NodeId(0), NodeId(1), 1024);
        let t2 = f.send(Ns(0), NodeId(0), NodeId(1), 1024);
        assert!(t2 > t1, "t1={t1} t2={t2}");
        // The second waits roughly one serialization time extra.
        let ser = f.serialization(1024);
        assert!(t2 - t1 >= ser - Ns(10));
    }

    #[test]
    fn disjoint_routes_do_not_interfere() {
        let mut f = fabric();
        let a = f.send(Ns(0), NodeId(0), NodeId(1), 256);
        let b = f.send(Ns(0), NodeId(10), NodeId(11), 256);
        assert_eq!(a - Ns(0), b - Ns(0));
    }

    #[test]
    fn counters_accumulate() {
        let mut f = fabric();
        f.send(Ns(0), NodeId(0), NodeId(1), 100);
        f.send(Ns(0), NodeId(2), NodeId(3), 50);
        assert_eq!(f.messages(), 2);
        assert_eq!(f.bytes(), 150);
        assert!(f.mean_latency() > Ns::ZERO);
    }

    #[test]
    fn arrival_never_beats_uncontended() {
        let mut f = fabric();
        for i in 0..50u16 {
            let src = NodeId(i % 16);
            let dst = NodeId((i * 7 + 3) % 16);
            let t = f.send(Ns(100), src, dst, 72);
            assert!(t >= Ns(100) + f.uncontended(src, dst));
        }
    }
}
