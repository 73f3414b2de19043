//! The 12 SPLASH-2 application models (Table 4 of the paper).
//!
//! Each application is a cycle of *phases*. A phase fixes:
//!
//! * a region — per-CPU **private**, or a **partitioned** shared arena
//!   (each CPU owns a slice, touching other slices with a small
//!   `remote_frac`, the way SPLASH codes partition their grids/trees and
//!   exchange boundaries);
//! * an address **pattern** over that region (streaming, blocked, stencil,
//!   random, pointer-chase, scatter);
//! * a **locality** factor: the probability that an access stays within the
//!   current cache line (SPLASH codes touch a 64-byte line many times —
//!   8-byte elements, neighbor reuse — before moving on), which is the knob
//!   that calibrates the emergent miss rate;
//! * a read/write mix and a compute intensity.
//!
//! Region sizes are multiples of the L2 capacity, so the working-set-vs-
//! cache relationship — what drives ReVive's overhead (Table 2) — survives
//! the paper's scaling methodology (Section 5). Parameters are tuned so the
//! emergent global L2 miss rates reproduce Table 4's structure: Radix
//! (2.51 %), Ocean (2.02 %), FFT (1.78 %) miss heavily; the other nine sit
//! between 0.02 % and 0.29 %. `bench/table4_apps` prints achieved-vs-paper
//! for every application.

use revive_sim::rng::{DetRng, FastRange};

use crate::patterns::{Cursor, Pattern, Region};
use crate::{Op, Scale};

/// The 12 SPLASH-2 applications of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppId {
    /// Barnes-Hut N-body: octree walks, small working set.
    Barnes,
    /// Sparse Cholesky factorization: blocked supernodal updates.
    Cholesky,
    /// 1M-point FFT: cached butterflies + streaming transpose whose working
    /// set exceeds the L2.
    Fft,
    /// Fast Multipole Method: tree walks plus interaction lists.
    Fmm,
    /// Blocked dense LU (512×512, 16×16 blocks): high reuse.
    Lu,
    /// Ocean (258×258 grids): multigrid stencil sweeps over per-processor
    /// grid partitions larger than the L2.
    Ocean,
    /// Radiosity: irregular task-stealing over small scene data.
    Radiosity,
    /// Radix sort (4M keys): streaming key reads, scattered bucket writes —
    /// both working sets exceed the L2 (the paper's worst case).
    Radix,
    /// Raytrace (car): read-mostly BVH walks.
    Raytrace,
    /// Volrend (head): read-mostly octree ray casting.
    Volrend,
    /// Water-N², 1000 molecules: tiny working set, compute-bound.
    WaterN2,
    /// Water-spatial, 1728 molecules: tiny working set, compute-bound.
    WaterSp,
}

impl AppId {
    /// All applications, in the paper's Table 4 order.
    pub const ALL: [AppId; 12] = [
        AppId::Barnes,
        AppId::Cholesky,
        AppId::Fft,
        AppId::Fmm,
        AppId::Lu,
        AppId::Ocean,
        AppId::Radiosity,
        AppId::Radix,
        AppId::Raytrace,
        AppId::Volrend,
        AppId::WaterN2,
        AppId::WaterSp,
    ];

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Barnes => "barnes",
            AppId::Cholesky => "cholesky",
            AppId::Fft => "fft",
            AppId::Fmm => "fmm",
            AppId::Lu => "lu",
            AppId::Ocean => "ocean",
            AppId::Radiosity => "radiosity",
            AppId::Radix => "radix",
            AppId::Raytrace => "raytrace",
            AppId::Volrend => "volrend",
            AppId::WaterN2 => "water-n2",
            AppId::WaterSp => "water-sp",
        }
    }

    /// Table 4's measured global L2 miss rate, for comparison reports.
    pub fn paper_l2_miss_rate(self) -> f64 {
        match self {
            AppId::Barnes => 0.0005,
            AppId::Cholesky => 0.0026,
            AppId::Fft => 0.0178,
            AppId::Fmm => 0.0024,
            AppId::Lu => 0.0007,
            AppId::Ocean => 0.0202,
            AppId::Radiosity => 0.0015,
            AppId::Radix => 0.0251,
            AppId::Raytrace => 0.0026,
            AppId::Volrend => 0.0029,
            AppId::WaterN2 => 0.0002,
            AppId::WaterSp => 0.0002,
        }
    }

    /// Table 4's total instruction count, in millions.
    pub fn paper_instructions_m(self) -> u64 {
        match self {
            AppId::Barnes => 1230,
            AppId::Cholesky => 1224,
            AppId::Fft => 468,
            AppId::Fmm => 1002,
            AppId::Lu => 336,
            AppId::Ocean => 270,
            AppId::Radiosity => 744,
            AppId::Radix => 186,
            AppId::Raytrace => 612,
            AppId::Volrend => 984,
            AppId::WaterN2 => 1074,
            AppId::WaterSp => 870,
        }
    }

    /// Whether the paper classifies the application's important working set
    /// as exceeding the (scaled) L2 — the high-overhead apps of Figure 8.
    pub fn working_set_exceeds_l2(self) -> bool {
        matches!(self, AppId::Fft | AppId::Ocean | AppId::Radix)
    }

    /// Builds the model for `cpus` processors at the given scale.
    pub fn build(self, cpus: usize, scale: Scale, seed: u64) -> SplashApp {
        SplashApp::new(self, cpus, scale, seed)
    }

    /// The phase specifications (see module docs). Region sizes (`l2x`) are
    /// multiples of the L2; for partitioned phases they size the *per-CPU
    /// partition*.
    fn phases(self) -> Vec<PhaseSpec> {
        use Pattern as P;
        let blocked = |block, reuse| P::Blocked { block, reuse };
        match self {
            // Tree walks with high temporal locality; occasional remote
            // body reads during force computation.
            AppId::Barnes => vec![
                PhaseSpec {
                    name: "treewalk",
                    ops: 3000,
                    kind: RegionKind::Private,
                    l2x: 0.25,
                    pattern: P::Chase,
                    write_frac: 0.25,
                    think: (2, 5),
                    instr_per_op: 7,
                    locality: 0.93,
                },
                PhaseSpec {
                    name: "force-exchange",
                    ops: 100,
                    kind: RegionKind::Partitioned { remote_frac: 0.03 },
                    l2x: 0.25,
                    pattern: P::Chase,
                    write_frac: 0.05,
                    think: (2, 5),
                    instr_per_op: 7,
                    locality: 0.90,
                },
            ],
            // Blocked supernodal updates + scattered panel reads.
            AppId::Cholesky => vec![
                PhaseSpec {
                    name: "supernode",
                    ops: 2800,
                    kind: RegionKind::Private,
                    l2x: 0.7,
                    pattern: blocked(2048, 12),
                    write_frac: 0.35,
                    think: (1, 4),
                    instr_per_op: 5,
                    locality: 0.94,
                },
                PhaseSpec {
                    name: "panel-fetch",
                    ops: 500,
                    kind: RegionKind::Partitioned { remote_frac: 0.10 },
                    l2x: 0.3,
                    pattern: P::Random,
                    write_frac: 0.05,
                    think: (1, 4),
                    instr_per_op: 5,
                    locality: 0.86,
                },
            ],
            // Cached butterflies; then the bit-reversal/transpose streams a
            // private working set three times the L2 (the "important second
            // working set" of Section 5).
            AppId::Fft => vec![
                PhaseSpec {
                    name: "butterflies",
                    ops: 2800,
                    kind: RegionKind::Private,
                    l2x: 0.5,
                    pattern: blocked(1024, 6),
                    write_frac: 0.50,
                    think: (1, 3),
                    instr_per_op: 3,
                    locality: 0.93,
                },
                PhaseSpec {
                    name: "transpose",
                    ops: 600,
                    kind: RegionKind::Private,
                    l2x: 3.0,
                    pattern: P::Sequential { stride: 64 },
                    write_frac: 0.55,
                    think: (1, 3),
                    instr_per_op: 3,
                    locality: 0.92,
                },
                PhaseSpec {
                    name: "exchange",
                    ops: 250,
                    kind: RegionKind::Partitioned { remote_frac: 0.20 },
                    l2x: 1.0,
                    pattern: P::Sequential { stride: 64 },
                    write_frac: 0.50,
                    think: (1, 3),
                    instr_per_op: 3,
                    locality: 0.92,
                },
            ],
            // Like Barnes with heavier interaction-list traffic.
            AppId::Fmm => vec![
                PhaseSpec {
                    name: "tree",
                    ops: 2600,
                    kind: RegionKind::Private,
                    l2x: 0.4,
                    pattern: P::Chase,
                    write_frac: 0.25,
                    think: (2, 5),
                    instr_per_op: 6,
                    locality: 0.93,
                },
                PhaseSpec {
                    name: "interactions",
                    ops: 420,
                    kind: RegionKind::Partitioned { remote_frac: 0.12 },
                    l2x: 0.3,
                    pattern: P::Random,
                    write_frac: 0.02,
                    think: (2, 5),
                    instr_per_op: 6,
                    locality: 0.88,
                },
            ],
            // 16×16-block dense LU: near-perfect reuse inside blocks.
            AppId::Lu => vec![
                PhaseSpec {
                    name: "block-update",
                    ops: 3000,
                    kind: RegionKind::Private,
                    l2x: 0.75,
                    pattern: blocked(2048, 24),
                    write_frac: 0.40,
                    think: (1, 4),
                    instr_per_op: 4,
                    locality: 0.95,
                },
                PhaseSpec {
                    name: "pivot-row",
                    ops: 60,
                    kind: RegionKind::Partitioned { remote_frac: 0.05 },
                    l2x: 0.2,
                    pattern: P::Sequential { stride: 64 },
                    write_frac: 0.20,
                    think: (1, 4),
                    instr_per_op: 4,
                    locality: 0.95,
                },
            ],
            // Multigrid stencil sweeps; each processor's grid partition is
            // twice the L2, so sweeps stream (the classic capacity-miss
            // workload), with boundary exchanges to neighbors.
            AppId::Ocean => vec![
                PhaseSpec {
                    name: "stencil-sweep",
                    ops: 2500,
                    kind: RegionKind::Partitioned { remote_frac: 0.02 },
                    l2x: 2.0,
                    pattern: P::Stencil {
                        row_bytes: 2048 + 64,
                        elem: 64,
                    },
                    write_frac: 0.45,
                    think: (1, 3),
                    instr_per_op: 3,
                    locality: 0.917,
                },
                PhaseSpec {
                    name: "reduction",
                    ops: 400,
                    kind: RegionKind::Private,
                    l2x: 0.3,
                    pattern: P::Random,
                    write_frac: 0.30,
                    think: (1, 3),
                    instr_per_op: 3,
                    locality: 0.93,
                },
            ],
            // Irregular task stealing over modest scene data.
            AppId::Radiosity => vec![
                PhaseSpec {
                    name: "patch-work",
                    ops: 2700,
                    kind: RegionKind::Private,
                    l2x: 0.45,
                    pattern: P::Random,
                    write_frac: 0.30,
                    think: (2, 5),
                    instr_per_op: 6,
                    locality: 0.93,
                },
                PhaseSpec {
                    name: "steal",
                    ops: 300,
                    kind: RegionKind::Partitioned { remote_frac: 0.08 },
                    l2x: 0.3,
                    pattern: P::Random,
                    write_frac: 0.05,
                    think: (2, 5),
                    instr_per_op: 6,
                    locality: 0.89,
                },
            ],
            // Streaming key reads + scattered bucket writes: both working
            // sets exceed the L2 — the paper's worst case.
            AppId::Radix => vec![
                PhaseSpec {
                    name: "key-read",
                    ops: 600,
                    kind: RegionKind::Private,
                    l2x: 2.0,
                    pattern: P::Sequential { stride: 64 },
                    write_frac: 0.05,
                    think: (1, 2),
                    instr_per_op: 3,
                    locality: 0.95,
                },
                PhaseSpec {
                    name: "scatter",
                    ops: 2100,
                    kind: RegionKind::Partitioned { remote_frac: 0.30 },
                    l2x: 0.75,
                    pattern: P::Scatter,
                    write_frac: 0.85,
                    think: (1, 2),
                    instr_per_op: 3,
                    locality: 0.975,
                },
            ],
            // Read-mostly BVH walks over a scene that mostly fits.
            AppId::Raytrace => vec![
                PhaseSpec {
                    name: "bvh-walk",
                    ops: 2700,
                    kind: RegionKind::Private,
                    l2x: 0.55,
                    pattern: P::Chase,
                    write_frac: 0.08,
                    think: (2, 4),
                    instr_per_op: 6,
                    locality: 0.93,
                },
                PhaseSpec {
                    name: "scene-fetch",
                    ops: 420,
                    kind: RegionKind::Partitioned { remote_frac: 0.15 },
                    l2x: 0.4,
                    pattern: P::Chase,
                    write_frac: 0.0,
                    think: (2, 4),
                    instr_per_op: 6,
                    locality: 0.87,
                },
            ],
            // Read-mostly octree ray casting.
            AppId::Volrend => vec![
                PhaseSpec {
                    name: "raycast",
                    ops: 2600,
                    kind: RegionKind::Private,
                    l2x: 0.5,
                    pattern: P::Random,
                    write_frac: 0.12,
                    think: (2, 4),
                    instr_per_op: 6,
                    locality: 0.93,
                },
                PhaseSpec {
                    name: "octree-fetch",
                    ops: 450,
                    kind: RegionKind::Partitioned { remote_frac: 0.16 },
                    l2x: 0.4,
                    pattern: P::Random,
                    write_frac: 0.0,
                    think: (2, 4),
                    instr_per_op: 6,
                    locality: 0.87,
                },
            ],
            // Tiny molecule arrays, heavy per-pair computation.
            AppId::WaterN2 => vec![
                PhaseSpec {
                    name: "pairforces",
                    ops: 3000,
                    kind: RegionKind::Private,
                    l2x: 0.15,
                    pattern: P::Random,
                    write_frac: 0.35,
                    think: (4, 9),
                    instr_per_op: 12,
                    locality: 0.96,
                },
                PhaseSpec {
                    name: "neighbor-update",
                    ops: 12,
                    kind: RegionKind::Partitioned { remote_frac: 0.05 },
                    l2x: 0.1,
                    pattern: P::Random,
                    write_frac: 0.05,
                    think: (4, 9),
                    instr_per_op: 12,
                    locality: 0.92,
                },
            ],
            AppId::WaterSp => vec![
                PhaseSpec {
                    name: "cellforces",
                    ops: 3000,
                    kind: RegionKind::Private,
                    l2x: 0.2,
                    pattern: blocked(1024, 16),
                    write_frac: 0.35,
                    think: (4, 9),
                    instr_per_op: 12,
                    locality: 0.96,
                },
                PhaseSpec {
                    name: "cell-exchange",
                    ops: 14,
                    kind: RegionKind::Partitioned { remote_frac: 0.05 },
                    l2x: 0.1,
                    pattern: P::Random,
                    write_frac: 0.05,
                    think: (4, 9),
                    instr_per_op: 12,
                    locality: 0.92,
                },
            ],
        }
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a phase's region lives.
#[derive(Clone, Copy, Debug, PartialEq)]
enum RegionKind {
    /// A per-CPU private slab.
    Private,
    /// A per-CPU slice of a shared arena, with `remote_frac` of new
    /// addresses landing anywhere in the arena (boundary exchange,
    /// stealing, all-to-all phases).
    Partitioned {
        /// Fraction of fresh addresses targeting other partitions.
        remote_frac: f64,
    },
}

/// One phase of an application model (see module docs).
#[derive(Clone, Debug)]
struct PhaseSpec {
    #[allow(dead_code)]
    name: &'static str,
    /// Ops per CPU per visit of this phase.
    ops: u64,
    kind: RegionKind,
    /// Region size (per-CPU slab or per-CPU partition) in L2 multiples.
    l2x: f64,
    pattern: Pattern,
    write_frac: f64,
    think: (u32, u32),
    instr_per_op: u32,
    /// Probability an access stays within the current cache line.
    locality: f64,
}

#[derive(Clone)]
struct CpuPhase {
    cursor: Cursor,
    /// Full shared arena for remote accesses (partitioned phases).
    arena: Option<Region>,
    /// `range(0, arena.len)`, strength-reduced once.
    arena_range: Option<FastRange>,
    current_line: u64,
    line_offset: u64,
}

#[derive(Clone)]
struct CpuState {
    rng: DetRng,
    phases: Vec<CpuPhase>,
    phase: usize,
    left: u64,
}

/// A built application model (see module docs).
#[derive(Clone)]
pub struct SplashApp {
    id: AppId,
    specs: Vec<PhaseSpec>,
    /// Per-phase `range(think.0, think.1 + 1)`, strength-reduced once.
    think_ranges: Vec<FastRange>,
    cpus: Vec<CpuState>,
    footprint: u64,
}

impl SplashApp {
    fn new(id: AppId, cpus: usize, scale: Scale, seed: u64) -> SplashApp {
        assert!(cpus > 0, "need at least one cpu");
        let specs = id.phases();
        let l2 = scale.l2_bytes as f64;
        let page = 4096u64;
        let round = |bytes: f64| -> u64 { ((bytes / page as f64).ceil() as u64).max(1) * page };

        // Layout: shared arenas first (one per partitioned phase), then one
        // private slab per CPU holding its private-phase regions.
        let mut arenas: Vec<Option<Region>> = Vec::new();
        let mut base = 0u64;
        for s in &specs {
            match s.kind {
                RegionKind::Partitioned { .. } => {
                    let len = round(s.l2x * l2) * cpus as u64;
                    arenas.push(Some(Region::new(base, len)));
                    base += len;
                }
                RegionKind::Private => arenas.push(None),
            }
        }
        let private_slab: u64 = specs
            .iter()
            .filter(|s| s.kind == RegionKind::Private)
            .map(|s| round(s.l2x * l2))
            .sum();
        let private_base = base;
        let footprint = private_base + private_slab.max(page) * cpus as u64;

        let mut root = DetRng::seed(seed ^ 0x5EED_5EED);
        let cpu_states = (0..cpus)
            .map(|c| {
                let mut rng = root.fork(c as u64);
                let mut pbase = private_base + private_slab.max(page) * c as u64;
                let phases = specs
                    .iter()
                    .zip(&arenas)
                    .map(|(s, arena)| {
                        let (region, arena) = match (s.kind, arena) {
                            (RegionKind::Partitioned { .. }, Some(a)) => {
                                let part = a.len / cpus as u64;
                                (Region::new(a.base + part * c as u64, part), Some(*a))
                            }
                            (RegionKind::Private, _) => {
                                let len = round(s.l2x * l2);
                                let r = Region::new(pbase, len);
                                pbase += len;
                                (r, None)
                            }
                            _ => unreachable!("arena layout matches spec kinds"),
                        };
                        CpuPhase {
                            cursor: Cursor::new(s.pattern.clone(), region, rng.next_u64()),
                            arena,
                            arena_range: arena.map(|a| FastRange::new(0, a.len)),
                            current_line: region.base / 64,
                            line_offset: 0,
                        }
                    })
                    .collect();
                CpuState {
                    rng,
                    phases,
                    phase: 0,
                    left: specs[0].ops,
                }
            })
            .collect();
        SplashApp {
            id,
            think_ranges: specs
                .iter()
                .map(|s| FastRange::new(s.think.0 as u64, s.think.1 as u64 + 1))
                .collect(),
            specs,
            cpus: cpu_states,
            footprint,
        }
    }

    /// Which application this models.
    pub fn id(&self) -> AppId {
        self.id
    }

    /// The application's short name.
    pub fn name(&self) -> &'static str {
        self.id.name()
    }

    /// The next operation for `cpu`.
    pub fn next(&mut self, cpu: usize) -> Op {
        let st = &mut self.cpus[cpu];
        if st.left == 0 {
            st.phase = (st.phase + 1) % self.specs.len();
            st.left = self.specs[st.phase].ops;
        }
        st.left -= 1;
        let spec = &self.specs[st.phase];
        let ph = &mut st.phases[st.phase];
        // Locality: mostly walk within the current line (8-byte elements);
        // otherwise draw a fresh address from the pattern (possibly remote
        // for partitioned phases).
        let vaddr = if st.rng.chance(spec.locality) {
            ph.line_offset = (ph.line_offset + 8) % 64;
            ph.current_line * 64 + ph.line_offset
        } else {
            let fresh = match (spec.kind, ph.arena) {
                (RegionKind::Partitioned { remote_frac }, Some(arena))
                    if st.rng.chance(remote_frac) =>
                {
                    let r = ph.arena_range.as_ref().expect("set with arena");
                    arena.base + r.sample(&mut st.rng)
                }
                _ => ph.cursor.next(&mut st.rng),
            };
            ph.current_line = fresh / 64;
            ph.line_offset = fresh % 64;
            fresh
        };
        let write = st.rng.chance(spec.write_frac);
        let think_ns = self.think_ranges[st.phase].sample(&mut st.rng) as u32;
        Op {
            think_ns,
            vaddr,
            write,
            instructions: spec.instr_per_op,
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
    fn all_twelve_apps_build() {
        let scale = Scale {
            l2_bytes: 16 * 1024,
        };
        for app in AppId::ALL {
            let mut w = app.build(16, scale, 1);
            assert_eq!(w.name(), app.name());
            for cpu in 0..16 {
                for _ in 0..100 {
                    let op = w.next(cpu);
                    assert!(op.vaddr < w.footprint_bytes());
                }
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<&str> = AppId::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn private_slabs_do_not_overlap() {
        let scale = Scale { l2_bytes: 8 * 1024 };
        let mut w = AppId::WaterN2.build(4, scale, 2);
        let mut per_cpu: Vec<std::collections::HashSet<u64>> = vec![Default::default(); 4];
        for (cpu, pages) in per_cpu.iter_mut().enumerate() {
            for _ in 0..3000 {
                let op = w.next(cpu);
                pages.insert(op.vaddr / 4096);
            }
        }
        let inter: Vec<u64> = per_cpu[0].intersection(&per_cpu[1]).copied().collect();
        assert!(
            inter.len() * 4 < per_cpu[0].len().max(4),
            "too much overlap: {} of {}",
            inter.len(),
            per_cpu[0].len()
        );
    }

    #[test]
    fn locality_keeps_consecutive_ops_on_one_line() {
        let scale = Scale {
            l2_bytes: 16 * 1024,
        };
        let mut w = AppId::WaterN2.build(1, scale, 3);
        let mut same_line = 0;
        let mut prev = w.next(0).vaddr / 64;
        let n = 4000;
        for _ in 0..n {
            let line = w.next(0).vaddr / 64;
            if line == prev {
                same_line += 1;
            }
            prev = line;
        }
        // WaterN2's dominant phase has locality 0.96.
        assert!(
            same_line > n * 85 / 100,
            "only {same_line}/{n} consecutive ops shared a line"
        );
    }

    #[test]
    fn high_miss_apps_have_big_footprints() {
        let scale = Scale {
            l2_bytes: 16 * 1024,
        };
        let big = AppId::Radix.build(16, scale, 1).footprint_bytes();
        let small = AppId::WaterN2.build(16, scale, 1).footprint_bytes();
        assert!(big > small * 2, "radix {big} vs water {small}");
    }

    #[test]
    fn write_fractions_differ_by_app() {
        let scale = Scale {
            l2_bytes: 16 * 1024,
        };
        let frac = |app: AppId| {
            let mut w = app.build(1, scale, 3);
            let writes = (0..4000).filter(|_| w.next(0).write).count();
            writes as f64 / 4000.0
        };
        // Radix is write-heavy in its scatter phase; Raytrace is read-mostly.
        assert!(frac(AppId::Radix) > 0.4);
        assert!(frac(AppId::Raytrace) < 0.15);
    }

    #[test]
    fn paper_metadata_is_sane() {
        for app in AppId::ALL {
            assert!(app.paper_l2_miss_rate() > 0.0);
            assert!(app.paper_instructions_m() > 0);
        }
        assert!(AppId::Radix.working_set_exceeds_l2());
        assert!(!AppId::Lu.working_set_exceeds_l2());
    }

    #[test]
    fn partitioned_phases_touch_remote_slices() {
        let scale = Scale { l2_bytes: 4096 };
        // Radix's scatter phase has remote_frac 0.30 — CPU 0 must
        // eventually touch addresses outside its own partition.
        let mut w = AppId::Radix.build(4, scale, 7);
        let arena_per_cpu = 4096u64; // 0.75 × 4096 rounded up to one page
        let mut remote = false;
        for _ in 0..20_000 {
            let op = w.next(0);
            // CPU 0's scatter partition starts at the arena base (offset of
            // the key-read slab comes later in the layout).
            if op.vaddr < 4 * arena_per_cpu && op.vaddr >= arena_per_cpu {
                remote = true;
                break;
            }
        }
        assert!(remote, "cpu 0 never touched a remote partition");
    }
}
