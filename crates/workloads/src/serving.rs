//! Open-loop request serving workload.
//!
//! The batch models ([`crate::splash`], [`crate::synthetic`]) issue their
//! next op as soon as the CPU is free — a *closed* loop, which is the right
//! model for scientific kernels but hides ReVive's cost for a machine that
//! serves traffic: a 100 ms checkpoint stall does not reduce the arrival
//! rate of user requests, it queues them. This module models the *open*
//! loop: each CPU serves an independent stream of requests whose arrival
//! times are a seeded stochastic process (Poisson or on/off bursty),
//! independent of when the machine finishes serving them. Each request is a
//! short transactional op sequence over a shared working set — built from
//! the same [`crate::patterns`] machinery as the batch models so it
//! exercises identical directory paths — ending in a commit write.
//!
//! Arrival times live in the workload (not the machine), so the generator
//! holds a CPU's whole request schedule: the clone a checkpoint keeps
//! restores both the op stream *and* the in-flight request on rollback
//! (DESIGN.md §16). The machine reads the schedule through
//! [`crate::Workload::request_status`] and stalls a CPU whose next request
//! has not arrived yet — that stall time is exactly the open-loop queueing
//! delay.

use revive_sim::rng::{DetRng, FastRange};

use crate::patterns::{Cursor, Pattern, Region};
use crate::{Op, RequestStatus, Scale};

/// A request arrival process, parameterized in integer nanoseconds so the
/// containing config stays `Eq`/hashable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Arrival {
    /// Memoryless arrivals: exponential inter-arrival gaps with the given
    /// mean, i.e. a Poisson process of rate `1 / mean_ns`.
    Poisson {
        /// Mean inter-arrival gap (ns).
        mean_ns: u64,
    },
    /// On/off modulated arrivals: a Poisson process of rate `1 / mean_ns`
    /// gated to the first `on_ns` of every `on_ns + off_ns` cycle. A gap
    /// that lands in the off phase is deferred to the start of the next on
    /// phase (exponential memorylessness makes the result exactly a Poisson
    /// process restricted to the on windows), so the long-run rate is the
    /// duty cycle times the on-rate.
    Bursty {
        /// Mean inter-arrival gap while on (ns).
        mean_ns: u64,
        /// Length of the on phase (ns).
        on_ns: u64,
        /// Length of the off phase (ns).
        off_ns: u64,
    },
}

impl Arrival {
    /// Mean arrivals per second in the long run.
    pub fn rate_per_sec(self) -> f64 {
        match self {
            Arrival::Poisson { mean_ns } => 1e9 / mean_ns as f64,
            Arrival::Bursty {
                mean_ns,
                on_ns,
                off_ns,
            } => {
                let duty = on_ns as f64 / (on_ns + off_ns) as f64;
                duty * 1e9 / mean_ns as f64
            }
        }
    }
}

/// An open-loop serving workload shape: the arrival process plus the length
/// of the transactional op sequence each request executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ServingKind {
    /// Per-CPU request arrival process.
    pub arrival: Arrival,
    /// Ops per request (the last op is always the commit write).
    pub ops_per_request: u32,
}

impl ServingKind {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self.arrival {
            Arrival::Poisson { .. } => "open-poisson",
            Arrival::Bursty { .. } => "open-bursty",
        }
    }

    /// Builds the workload.
    pub fn build(self, cpus: usize, scale: Scale, seed: u64) -> Serving {
        Serving::new(self, cpus, scale, seed)
    }
}

impl std::fmt::Display for ServingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Exponential gap with the given mean, clamped to at least 1 ns.
fn exp_gap(rng: &mut DetRng, mean_ns: u64) -> u64 {
    let u = rng.unit().max(1e-12);
    ((-u.ln()) * mean_ns as f64).round().max(1.0) as u64
}

/// The next arrival time strictly after `from`.
fn next_arrival(arrival: Arrival, rng: &mut DetRng, from: u64) -> u64 {
    match arrival {
        Arrival::Poisson { mean_ns } => from + exp_gap(rng, mean_ns),
        Arrival::Bursty {
            mean_ns,
            on_ns,
            off_ns,
        } => {
            let t = from + exp_gap(rng, mean_ns);
            let cycle = on_ns + off_ns;
            let pos = t % cycle;
            if pos < on_ns {
                t
            } else {
                t + (cycle - pos)
            }
        }
    }
}

#[derive(Clone)]
struct CpuState {
    rng: DetRng,
    cursor: Cursor,
    /// Ops remaining in the in-flight request (0 = between requests).
    ops_left: u32,
    /// Arrival time (ns) of the in-flight (or just-finished) request.
    cur_arrival: u64,
    /// Arrival time (ns) of the next request to start.
    next_arrival: u64,
}

/// A built open-loop serving workload.
#[derive(Clone)]
pub struct Serving {
    kind: ServingKind,
    write_frac: f64,
    think_range: FastRange,
    cpus: Vec<CpuState>,
    footprint: u64,
}

impl Serving {
    fn new(kind: ServingKind, cpus: usize, scale: Scale, seed: u64) -> Serving {
        assert!(cpus > 0, "need at least one cpu");
        assert!(kind.ops_per_request > 0, "requests need at least one op");
        match kind.arrival {
            Arrival::Poisson { mean_ns } => {
                assert!(mean_ns > 0, "mean inter-arrival must be positive")
            }
            Arrival::Bursty { mean_ns, on_ns, .. } => {
                assert!(mean_ns > 0, "mean inter-arrival must be positive");
                assert!(on_ns > 0, "bursty on phase must be positive");
            }
        }
        // One shared region, 4× the L2 like the uniform stressor: requests
        // from different nodes collide in the directory, so checkpoint and
        // recovery traffic contends with request traffic.
        let region_bytes = (scale.l2_bytes * 4).max(4096) / 4096 * 4096;
        let mut root = DetRng::seed(seed ^ 0x0b_5e_12_f0);
        let cpu_states: Vec<CpuState> = (0..cpus)
            .map(|c| {
                let mut rng = root.fork(c as u64);
                let cursor = Cursor::new(
                    Pattern::Random,
                    Region::new(0, region_bytes),
                    rng.next_u64(),
                );
                let first = next_arrival(kind.arrival, &mut rng, 0);
                CpuState {
                    rng,
                    cursor,
                    ops_left: 0,
                    cur_arrival: 0,
                    next_arrival: first,
                }
            })
            .collect();
        Serving {
            kind,
            write_frac: 0.3,
            think_range: FastRange::new(1, 4),
            cpus: cpu_states,
            footprint: region_bytes,
        }
    }

    /// The workload shape.
    pub fn kind(&self) -> ServingKind {
        self.kind
    }

    /// The shape's short name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The next operation for `cpu`.
    pub fn next(&mut self, cpu: usize) -> Op {
        let st = &mut self.cpus[cpu];
        if st.ops_left == 0 {
            st.cur_arrival = st.next_arrival;
            st.next_arrival = next_arrival(self.kind.arrival, &mut st.rng, st.next_arrival);
            st.ops_left = self.kind.ops_per_request;
        }
        st.ops_left -= 1;
        let vaddr = st.cursor.next(&mut st.rng);
        // The final op of every request is its commit write.
        let write = if st.ops_left == 0 {
            true
        } else {
            st.rng.chance(self.write_frac)
        };
        let think_ns = self.think_range.sample(&mut st.rng) as u32;
        Op {
            think_ns,
            vaddr,
            write,
            instructions: 4,
        }
    }

    /// Upper bound of the virtual address space touched.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    /// Where `cpu` stands in its request stream.
    pub fn request_status(&self, cpu: usize) -> RequestStatus {
        let st = &self.cpus[cpu];
        RequestStatus {
            ops_left: st.ops_left,
            arrival: st.cur_arrival,
            next_arrival: st.next_arrival,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: Scale = Scale { l2_bytes: 8192 };

    /// Drives `requests` full requests on cpu 0, returning their arrival
    /// times.
    fn arrivals(kind: ServingKind, seed: u64, requests: usize) -> Vec<u64> {
        let mut w = kind.build(1, SCALE, seed);
        let mut out = Vec::with_capacity(requests);
        for _ in 0..requests {
            for i in 0..kind.ops_per_request {
                let op = w.next(0);
                if i == 0 {
                    out.push(w.request_status(0).arrival);
                }
                if i == kind.ops_per_request - 1 {
                    assert!(op.write, "last op of a request must be the commit write");
                }
            }
        }
        out
    }

    #[test]
    fn poisson_interarrival_mean_matches_configured_rate() {
        let mean_ns = 5_000;
        let kind = ServingKind {
            arrival: Arrival::Poisson { mean_ns },
            ops_per_request: 4,
        };
        let times = arrivals(kind, 42, 20_000);
        let gaps: Vec<u64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        let err = (mean - mean_ns as f64).abs() / mean_ns as f64;
        assert!(err < 0.05, "poisson mean {mean} vs configured {mean_ns}");
        assert!(
            times.windows(2).all(|w| w[1] > w[0]),
            "arrivals must advance"
        );
    }

    #[test]
    fn bursty_arrivals_respect_the_duty_cycle() {
        let (mean_ns, on_ns, off_ns) = (2_000u64, 60_000u64, 140_000u64);
        let kind = ServingKind {
            arrival: Arrival::Bursty {
                mean_ns,
                on_ns,
                off_ns,
            },
            ops_per_request: 3,
        };
        let times = arrivals(kind, 7, 20_000);
        let cycle = on_ns + off_ns;
        for &t in &times {
            assert!(t % cycle < on_ns, "arrival {t} landed in an off phase");
        }
        // Long-run rate is the duty cycle times the on-rate.
        let horizon = *times.last().unwrap() - times[0];
        let rate = (times.len() - 1) as f64 / horizon as f64;
        let expected = (on_ns as f64 / cycle as f64) / mean_ns as f64;
        let err = (rate - expected).abs() / expected;
        assert!(err < 0.05, "bursty rate {rate:e} vs expected {expected:e}");
        assert!(
            (kind.arrival.rate_per_sec() - expected * 1e9).abs() < 1e-6,
            "rate_per_sec disagrees with the duty-cycle product"
        );
    }

    #[test]
    fn streams_and_schedules_are_deterministic() {
        let kind = ServingKind {
            arrival: Arrival::Poisson { mean_ns: 3_000 },
            ops_per_request: 5,
        };
        let mut a = kind.build(2, SCALE, 11);
        let mut b = kind.build(2, SCALE, 11);
        for _ in 0..2_000 {
            for cpu in 0..2 {
                assert_eq!(a.next(cpu), b.next(cpu));
                assert_eq!(a.request_status(cpu), b.request_status(cpu));
            }
        }
        let mut c = kind.build(2, SCALE, 12);
        let same = (0..500).filter(|_| a.next(0) == c.next(0)).count();
        assert!(same < 500, "seeds produce identical streams");
    }

    #[test]
    fn ops_stay_in_shared_footprint() {
        let kind = ServingKind {
            arrival: Arrival::Poisson { mean_ns: 1_000 },
            ops_per_request: 4,
        };
        let mut w = kind.build(4, SCALE, 3);
        let fp = w.footprint_bytes();
        for cpu in 0..4 {
            for _ in 0..500 {
                assert!(w.next(cpu).vaddr < fp);
            }
        }
    }
}
