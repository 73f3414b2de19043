//! Synthetic microbenchmarks.
//!
//! Table 2 of the paper relates error-free overhead to two application
//! properties: whether the working set fits in the L2, and how dirty the
//! cached data is. The three [`SyntheticKind`] workloads pin those corners
//! directly; [`SyntheticKind::Uniform`] adds uniform-random shared traffic
//! for protocol stress testing.

use revive_sim::rng::{DetRng, FastRange};

use crate::patterns::{Cursor, Pattern, Region};
use crate::{Op, Scale};

/// The synthetic workload corners.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SyntheticKind {
    /// Working set ≫ L2: streaming writes, constant write-back pressure
    /// (Table 2: high overhead at any checkpoint frequency).
    WsExceedsL2,
    /// Working set fits, mostly dirty: low steady-state traffic but every
    /// checkpoint flushes a full cache (Table 2: overhead tracks checkpoint
    /// frequency).
    WsFitsDirty,
    /// Working set fits, mostly clean: little to flush (Table 2: low
    /// overhead except at extreme frequencies).
    WsFitsClean,
    /// Uniform random reads/writes over a shared region: maximizes
    /// cross-node coherence traffic (not in the paper; protocol stress).
    Uniform,
}

impl SyntheticKind {
    /// All corners, in Table 2 order plus the stressor.
    pub const ALL: [SyntheticKind; 4] = [
        SyntheticKind::WsExceedsL2,
        SyntheticKind::WsFitsDirty,
        SyntheticKind::WsFitsClean,
        SyntheticKind::Uniform,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SyntheticKind::WsExceedsL2 => "ws-exceeds-l2",
            SyntheticKind::WsFitsDirty => "ws-fits-dirty",
            SyntheticKind::WsFitsClean => "ws-fits-clean",
            SyntheticKind::Uniform => "uniform",
        }
    }

    /// Builds the workload.
    pub fn build(self, cpus: usize, scale: Scale, seed: u64) -> Synthetic {
        Synthetic::new(self, cpus, scale, seed)
    }
}

impl std::fmt::Display for SyntheticKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Clone)]
struct CpuState {
    rng: DetRng,
    cursor: Cursor,
}

/// A built synthetic workload.
#[derive(Clone)]
pub struct Synthetic {
    kind: SyntheticKind,
    write_frac: f64,
    /// `range(think.0, think.1 + 1)`, strength-reduced once.
    think_range: FastRange,
    cpus: Vec<CpuState>,
    footprint: u64,
}

impl Synthetic {
    fn new(kind: SyntheticKind, cpus: usize, scale: Scale, seed: u64) -> Synthetic {
        assert!(cpus > 0, "need at least one cpu");
        let l2 = scale.l2_bytes;
        let (region_bytes, shared, pattern, write_frac, think) = match kind {
            SyntheticKind::WsExceedsL2 => (
                l2 * 6,
                false,
                Pattern::Sequential { stride: 64 },
                0.6,
                (1, 3),
            ),
            SyntheticKind::WsFitsDirty => (l2 / 2, false, Pattern::Random, 0.7, (2, 4)),
            SyntheticKind::WsFitsClean => (l2 / 2, false, Pattern::Random, 0.05, (2, 4)),
            SyntheticKind::Uniform => (l2 * 4, true, Pattern::Random, 0.4, (1, 3)),
        };
        let region_bytes = region_bytes.max(4096) / 4096 * 4096;
        let mut root = DetRng::seed(seed ^ 0x51_17_0e_71);
        let cpu_states: Vec<CpuState> = (0..cpus)
            .map(|c| {
                let mut rng = root.fork(c as u64);
                let base = if shared { 0 } else { region_bytes * c as u64 };
                let cursor = Cursor::new(
                    pattern.clone(),
                    Region::new(base, region_bytes),
                    rng.next_u64(),
                );
                CpuState { rng, cursor }
            })
            .collect();
        let footprint = if shared {
            region_bytes
        } else {
            region_bytes * cpus as u64
        };
        Synthetic {
            think_range: FastRange::new(think.0 as u64, think.1 as u64 + 1),
            kind,
            write_frac,
            cpus: cpu_states,
            footprint,
        }
    }

    /// Which corner this is.
    pub fn kind(&self) -> SyntheticKind {
        self.kind
    }

    /// The corner's short name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The next operation for `cpu`.
    pub fn next(&mut self, cpu: usize) -> Op {
        let st = &mut self.cpus[cpu];
        let vaddr = st.cursor.next(&mut st.rng);
        let write = st.rng.chance(self.write_frac);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_build_and_emit() {
        let scale = Scale { l2_bytes: 8192 };
        for kind in SyntheticKind::ALL {
            let mut w = kind.build(4, scale, 9);
            for cpu in 0..4 {
                let op = w.next(cpu);
                assert!(op.vaddr < w.footprint_bytes());
            }
        }
    }

    #[test]
    fn dirty_corner_writes_more_than_clean() {
        let scale = Scale { l2_bytes: 8192 };
        let count = |kind: SyntheticKind| {
            let mut w = kind.build(1, scale, 5);
            (0..2000).filter(|_| w.next(0).write).count()
        };
        assert!(count(SyntheticKind::WsFitsDirty) > 4 * count(SyntheticKind::WsFitsClean));
    }

    #[test]
    fn uniform_is_shared_others_private() {
        let scale = Scale { l2_bytes: 8192 };
        // Uniform's footprint is one shared region regardless of CPU count…
        let shared4 = SyntheticKind::Uniform.build(4, scale, 1);
        let shared1 = SyntheticKind::Uniform.build(1, scale, 1);
        assert_eq!(shared4.footprint_bytes(), shared1.footprint_bytes());
        // …while the private corners scale with the CPU count.
        let private4 = SyntheticKind::WsFitsDirty.build(4, scale, 1);
        let private1 = SyntheticKind::WsFitsDirty.build(1, scale, 1);
        assert_eq!(private4.footprint_bytes(), 4 * private1.footprint_bytes());
    }

    #[test]
    fn exceeds_corner_has_big_footprint() {
        let scale = Scale { l2_bytes: 8192 };
        let w = SyntheticKind::WsExceedsL2.build(1, scale, 1);
        assert!(w.footprint_bytes() >= 6 * 8192);
    }
}
