//! Synthetic workload models for the ReVive reproduction.
//!
//! The paper evaluates ReVive with the 12 SPLASH-2 applications (Table 4).
//! Real SPLASH-2 binaries need a MIPS execution front-end; this crate
//! substitutes *access-pattern models*: per-CPU generators parameterized by
//! working-set size (relative to the L2), phase structure, access pattern,
//! read/write mix, sharing, and compute intensity. ReVive's overheads are
//! driven by write-back rate, first-write-per-interval rate, and dirty-cache
//! occupancy at checkpoints — all of which these models exercise through the
//! same directory-controller paths an execution-driven trace would (the
//! substitution is documented in DESIGN.md §2).
//!
//! * [`patterns`] — the reusable address-stream building blocks.
//! * [`splash`] — the 12 application models, tuned so the emergent L2 miss
//!   rates reproduce Table 4's ordering (Radix > Ocean > FFT ≫ Water).
//! * [`synthetic`] — the three Table 2 microbenchmarks (working set vs L2 ×
//!   dirtiness) plus uniform-random traffic for protocol stress tests.
//! * [`serving`] — open-loop request streams measured against an SLO.
//!
//! [`Workload`] is the built generator of any of the three.
//!
//! # Example
//!
//! ```
//! use revive_workloads::{AppId, Scale, Workload};
//!
//! let mut app = Workload::Splash(AppId::Radix.build(4, Scale { l2_bytes: 16 * 1024 }, 42));
//! let op = app.next(0);
//! assert!(op.vaddr < app.footprint_bytes());
//! ```

pub mod patterns;
pub mod serving;
pub mod splash;
pub mod synthetic;

pub use serving::{Arrival, Serving, ServingKind};
pub use splash::{AppId, SplashApp};
pub use synthetic::{Synthetic, SyntheticKind};

/// One memory operation emitted by a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Compute time (ns) the CPU spends before issuing this access.
    pub think_ns: u32,
    /// Virtual byte address within the application's flat address space.
    pub vaddr: u64,
    /// Whether this is a store.
    pub write: bool,
    /// Instructions this op represents (for Table 4 instruction counts):
    /// the access itself plus the compute instructions folded into
    /// `think_ns`.
    pub instructions: u32,
}

/// Where an open-loop serving CPU stands in its request stream
/// ([`Workload::request_status`]). All times are workload-clock
/// nanoseconds, the same clock the machine's simulated time runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestStatus {
    /// Ops remaining in the in-flight request; 0 means the next `next()`
    /// call starts a new request.
    pub ops_left: u32,
    /// Arrival time of the in-flight (or just-finished) request.
    pub arrival: u64,
    /// Arrival time of the next request to start.
    pub next_arrival: u64,
}

/// A built multiprocessor workload: one deterministic op stream per CPU,
/// from one of the three model families.
///
/// `Clone` is what rollback needs: a checkpoint keeps a copy of the
/// generator as it stood, so recovery restores every CPU's stream position
/// (and a serving CPU's arrival schedule) by value instead of re-deriving
/// it.
#[derive(Clone)]
pub enum Workload {
    /// A SPLASH-2 application model.
    Splash(SplashApp),
    /// A synthetic corner.
    Synthetic(Synthetic),
    /// An open-loop request serving stream.
    Serving(Serving),
}

impl Workload {
    /// Short name (e.g. `"radix"`).
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Splash(w) => w.name(),
            Workload::Synthetic(w) => w.name(),
            Workload::Serving(w) => w.name(),
        }
    }

    /// The next operation for `cpu`. Streams are infinite; the machine
    /// decides the op budget.
    #[inline]
    pub fn next(&mut self, cpu: usize) -> Op {
        match self {
            Workload::Splash(w) => w.next(cpu),
            Workload::Synthetic(w) => w.next(cpu),
            Workload::Serving(w) => w.next(cpu),
        }
    }

    /// Upper bound of the virtual address space touched.
    pub fn footprint_bytes(&self) -> u64 {
        match self {
            Workload::Splash(w) => w.footprint_bytes(),
            Workload::Synthetic(w) => w.footprint_bytes(),
            Workload::Serving(w) => w.footprint_bytes(),
        }
    }

    /// Open-loop request bookkeeping for `cpu`, if this workload serves
    /// requests. Batch workloads return `None` and the machine runs them
    /// closed-loop.
    pub fn request_status(&self, cpu: usize) -> Option<RequestStatus> {
        match self {
            Workload::Serving(w) => Some(w.request_status(cpu)),
            _ => None,
        }
    }
}

/// Scaling context: workloads size their regions relative to the simulated
/// L2, preserving each application's working-set-vs-cache relationship under
/// the paper's (and this repo's further) scaling methodology (Section 5).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// The machine's per-node L2 capacity in bytes.
    pub l2_bytes: u64,
}

impl Scale {
    /// The paper's simulated 128 KB L2.
    pub fn paper() -> Scale {
        Scale {
            l2_bytes: 128 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let scale = Scale { l2_bytes: 8192 };
        let mut a = AppId::Fft.build(2, scale, 7);
        let mut b = AppId::Fft.build(2, scale, 7);
        for _ in 0..500 {
            assert_eq!(a.next(0), b.next(0));
            assert_eq!(a.next(1), b.next(1));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let scale = Scale { l2_bytes: 8192 };
        let mut a = AppId::Radix.build(1, scale, 1);
        let mut b = AppId::Radix.build(1, scale, 2);
        let same = (0..200).filter(|_| a.next(0) == b.next(0)).count();
        assert!(same < 200, "seeds produce identical streams");
    }

    /// The reference a clone must match: rebuild from the seed, then
    /// replay `next()` up to each CPU's stream position.
    fn rebuilt(build: &dyn Fn() -> Workload, positions: &[u64]) -> Workload {
        let mut w = build();
        for (cpu, &n) in positions.iter().enumerate() {
            for _ in 0..n {
                w.next(cpu);
            }
        }
        w
    }

    #[test]
    fn a_clone_resumes_where_rebuild_and_replay_would() {
        let scale = Scale { l2_bytes: 8192 };
        let serving = ServingKind {
            arrival: Arrival::Bursty {
                mean_ns: 2_500,
                on_ns: 40_000,
                off_ns: 40_000,
            },
            ops_per_request: 4,
        };
        let builds: [Box<dyn Fn() -> Workload>; 3] = [
            Box::new(|| Workload::Splash(AppId::Ocean.build(3, scale, 5))),
            Box::new(|| Workload::Synthetic(SyntheticKind::Uniform.build(3, scale, 5))),
            Box::new(|| Workload::Serving(serving.build(3, scale, 5))),
        ];
        for build in &builds {
            let mut live = build();
            let mut positions = [0u64; 3];
            let mut mid_request = false;
            // Uneven per-CPU positions; for serving, any position not a
            // multiple of 4 sits inside a request.
            for step in [0u64, 1, 6, 250, 1_337] {
                for (cpu, pos) in positions.iter_mut().enumerate() {
                    for _ in 0..step + cpu as u64 {
                        live.next(cpu);
                        *pos += 1;
                    }
                    mid_request |= live.request_status(cpu).is_some_and(|s| s.ops_left > 0);
                }
                let mut clone = live.clone();
                let mut reference = rebuilt(build, &positions);
                for _ in 0..50 {
                    for cpu in 0..3 {
                        let at = (live.name(), cpu, positions);
                        assert_eq!(
                            clone.request_status(cpu),
                            reference.request_status(cpu),
                            "{at:?}"
                        );
                        assert_eq!(clone.next(cpu), reference.next(cpu), "{at:?}");
                    }
                }
            }
            let serves = matches!(live, Workload::Serving(_));
            assert_eq!(mid_request, serves, "{}", live.name());
        }
    }

    #[test]
    fn ops_stay_in_footprint() {
        let scale = Scale { l2_bytes: 4096 };
        for app in AppId::ALL {
            let mut w = app.build(4, scale, 3);
            let fp = w.footprint_bytes();
            for cpu in 0..4 {
                for _ in 0..300 {
                    let op = w.next(cpu);
                    assert!(op.vaddr < fp, "{}: {:#x} >= {:#x}", w.name(), op.vaddr, fp);
                    assert!(op.instructions >= 1);
                }
            }
        }
    }
}
