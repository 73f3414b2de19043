//! Machine and experiment configuration.

use revive_core::checkpoint::CheckpointConfig;
use revive_mem::cache::CacheConfig;
use revive_mem::dram::DramConfig;
use revive_net::fabric::FabricConfig;
use revive_sim::time::Ns;
use revive_workloads::{AppId, Scale, ServingKind, SyntheticKind, Workload};

/// Errors surfaced while assembling or running a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The workload touched more pages than the machine's allocatable
    /// memory holds.
    OutOfMemory {
        /// Pages the allocator could not satisfy.
        needed: u64,
    },
    /// The configuration is internally inconsistent.
    BadConfig(String),
    /// An injection's firing point was never reached: the run finished its
    /// op budget first. A benign outcome for generated fault campaigns
    /// (classified as "not fired", not a failure).
    InjectionNeverFired {
        /// The checkpoint count the injection was waiting for.
        after_checkpoint: u64,
        /// Checkpoints actually committed within the budget.
        checkpoints: u64,
    },
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::OutOfMemory { needed } => {
                write!(f, "out of allocatable memory ({needed} pages short)")
            }
            MachineError::BadConfig(why) => write!(f, "bad configuration: {why}"),
            MachineError::InjectionNeverFired {
                after_checkpoint,
                checkpoints,
            } => write!(
                f,
                "injection after checkpoint {after_checkpoint} never fired \
                 ({checkpoints} checkpoints in budget)"
            ),
        }
    }
}

impl std::error::Error for MachineError {}

/// Hardware parameters of the simulated machine (Table 3 of the paper).
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Node count; must be a perfect square (2-D torus) and a multiple of
    /// the parity chunk when ReVive runs with parity.
    pub nodes: usize,
    /// Local memory per node, in bytes (whole pages).
    pub mem_per_node: u64,
    /// L1 geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// Outstanding-miss capacity per node.
    pub mshrs: usize,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Interconnect timing.
    pub fabric: FabricConfig,
    /// Directory-controller pipeline occupancy per transaction (21 ns).
    pub dir_latency: Ns,
    /// L1 hit latency (2 ns).
    pub l1_hit: Ns,
    /// L2 hit latency (12 ns).
    pub l2_hit: Ns,
    /// Store-buffer entries per CPU (16).
    pub store_buffer: usize,
    /// Delay before retrying a nacked request.
    pub nack_retry_delay: Ns,
    /// Delay before retrying when MSHRs are exhausted.
    pub mshr_retry_delay: Ns,
    /// Maximum inline CPU execution per scheduling quantum; invalidations
    /// and fills are applied at quantum granularity (DESIGN.md §2).
    pub cpu_quantum: Ns,
    /// Outstanding checkpoint-flush write-backs per CPU.
    pub flush_outstanding: usize,
    /// Base transaction-watchdog deadline: how long a dropped message's
    /// sender waits before the first retry. Doubles on every strike
    /// (bounded exponential backoff). Far above any legitimate contended
    /// delivery, so an expiry means the message is genuinely gone; only
    /// consulted while fabric faults are live — fault-free runs never arm
    /// a watchdog.
    pub watchdog_timeout: Ns,
    /// Cap on retry-backoff doublings: attempt `n` waits
    /// `watchdog_timeout × 2^min(n-1, cap)`, so the delay saturates instead
    /// of overflowing on long outages. A [`revive_sim::trace::TraceEvent::
    /// RetryBackoffCapped`] record marks the first saturated attempt.
    pub watchdog_backoff_cap: u32,
    /// Consecutive watchdog strikes against one node before the requester
    /// declares it dead (organic error detection).
    pub watchdog_strikes: u32,
}

impl MachineConfig {
    /// The paper's Table 3 machine: 16 nodes, 16 KB L1 / 128 KB L2.
    pub fn paper() -> MachineConfig {
        MachineConfig {
            nodes: 16,
            mem_per_node: 8 * 1024 * 1024,
            l1: CacheConfig::l1_paper(),
            l2: CacheConfig::l2_paper(),
            mshrs: 8,
            dram: DramConfig::default(),
            fabric: FabricConfig::default(),
            dir_latency: Ns(21),
            l1_hit: Ns(2),
            l2_hit: Ns(12),
            store_buffer: 16,
            nack_retry_delay: Ns(120),
            mshr_retry_delay: Ns(40),
            cpu_quantum: Ns(400),
            flush_outstanding: 4,
            watchdog_timeout: Ns(2_000),
            watchdog_backoff_cap: 16,
            watchdog_strikes: 3,
        }
    }

    /// The default *experiment* machine: the paper's topology and timing
    /// with caches scaled 8× down (4 KB / 16 KB) so runs of a few simulated
    /// milliseconds exercise several checkpoints — the same
    /// scale-caches-and-checkpoint-more-often methodology the paper itself
    /// applies in Section 5 (2 MB→128 KB, 100 ms→10 ms).
    pub fn scaled() -> MachineConfig {
        MachineConfig {
            mem_per_node: 4 * 1024 * 1024,
            l1: CacheConfig {
                size_bytes: 4 * 1024,
                ways: 4,
            },
            l2: CacheConfig {
                size_bytes: 16 * 1024,
                ways: 4,
            },
            ..MachineConfig::paper()
        }
    }

    /// A tiny 4-node machine for tests.
    pub fn test_small() -> MachineConfig {
        MachineConfig {
            nodes: 4,
            mem_per_node: 1024 * 1024,
            l1: CacheConfig {
                size_bytes: 1024,
                ways: 2,
            },
            l2: CacheConfig {
                size_bytes: 4 * 1024,
                ways: 4,
            },
            ..MachineConfig::paper()
        }
    }

    /// The workload scale implied by this machine's L2.
    pub fn scale(&self) -> Scale {
        Scale {
            l2_bytes: self.l2.size_bytes as u64,
        }
    }
}

/// Which recovery mechanism the machine runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReviveMode {
    /// Baseline: no recovery support (the comparison system of Section 6.1).
    Off,
    /// N+1 distributed parity with `group_data_pages` data pages per group
    /// (the paper's default is 7).
    Parity {
        /// Data pages per parity group.
        group_data_pages: usize,
    },
    /// The paper's Section 8 extension: the hottest fraction of each node's
    /// pages is mirrored (fast updates), the rest uses N+1 parity (cheap
    /// storage). First-touch allocation fills the mirrored region first.
    Mixed {
        /// Data pages per group in the parity region.
        group_data_pages: usize,
        /// Fraction of each node's stripes protected by mirroring.
        mirrored_fraction: f64,
    },
    /// RAID-6-style P+Q double parity over GF(256): each group of
    /// `group_data_pages` data pages carries two redundancy pages (P and Q)
    /// and survives *any two* simultaneous node losses per group
    /// (DESIGN.md §15).
    DoubleParity {
        /// Data pages per double-parity group (the chunk spans G+2 nodes).
        group_data_pages: usize,
    },
    /// ReStore-style k-replication: every data page is mirrored whole to
    /// `replicas` deterministic peer nodes, surviving up to `replicas`
    /// simultaneous losses per group at `replicas`/(`replicas`+1) storage
    /// overhead (DESIGN.md §15).
    Replication {
        /// Full copies kept besides the primary (k ≥ 1; k = 1 is the
        /// paper's memory mirroring, the degenerate 1+1 group).
        replicas: usize,
    },
}

impl ReviveMode {
    /// The mode's stripe code as `(G, r)`: data and redundancy members
    /// per stripe (`None` when recovery is off). The machine builds its
    /// layout from this; the mixed mode's mirrored stripes are 1+1 below
    /// it.
    pub fn stripe_shape(self) -> Option<(usize, usize)> {
        match self {
            ReviveMode::Off => None,
            ReviveMode::Parity { group_data_pages }
            | ReviveMode::Mixed {
                group_data_pages, ..
            } => Some((group_data_pages, 1)),
            ReviveMode::DoubleParity { group_data_pages } => Some((group_data_pages, 2)),
            ReviveMode::Replication { replicas } => Some((1, replicas)),
        }
    }

    /// The redundancy group's data-page count, when ReVive is on.
    pub fn group_data_pages(self) -> Option<usize> {
        self.stripe_shape().map(|(g, _)| g)
    }

    /// The fraction of stripes to mirror (0 except for the mixed mode).
    pub fn mirrored_fraction(self) -> f64 {
        match self {
            ReviveMode::Mixed {
                mirrored_fraction, ..
            } => mirrored_fraction,
            _ => 0.0,
        }
    }

    /// How many simultaneous node losses per redundancy group the mode's
    /// layout can rebuild (`r`; 0 when recovery is off), for call sites
    /// that have a config but no assembled machine.
    pub fn loss_budget(self) -> usize {
        self.stripe_shape().map_or(0, |(_, r)| r)
    }

    /// The nominal fraction of memory the mode spends on redundancy,
    /// `r/(G+r)` (the mixed mode blends in its mirrored fraction at 1/2),
    /// for call sites that have a config but no assembled machine. Reports
    /// print this nominal figure; the layout's own
    /// `StripeCode::storage_overhead` counts whole stripes.
    pub fn storage_overhead(self) -> f64 {
        let Some((g, r)) = self.stripe_shape() else {
            return 0.0;
        };
        let mirrored = self.mirrored_fraction();
        mirrored * 0.5 + (1.0 - mirrored) * r as f64 / (g + r) as f64
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ReviveMode::Off => "baseline",
            ReviveMode::Parity { .. } => "parity",
            ReviveMode::Mixed { .. } => "mixed",
            ReviveMode::DoubleParity { .. } => "double-parity",
            ReviveMode::Replication { .. } => "replication",
        }
    }
}

/// ReVive-side configuration.
#[derive(Clone, Copy, Debug)]
pub struct ReviveConfig {
    /// The recovery mechanism.
    pub mode: ReviveMode,
    /// Checkpointing parameters; `interval: Ns::MAX` models the paper's
    /// infinite-interval configurations (CpInf / CpInfM).
    pub ckpt: CheckpointConfig,
    /// Log capacity as a fraction of each node's allocatable pages.
    pub log_fraction: f64,
    /// When set, L bits live in a directory cache of this many entries
    /// (Section 4.1.2) instead of a full per-line array.
    pub lbit_dir_cache: Option<usize>,
}

impl ReviveConfig {
    /// Baseline: everything off.
    pub fn off() -> ReviveConfig {
        ReviveConfig {
            mode: ReviveMode::Off,
            ckpt: CheckpointConfig::default(),
            log_fraction: 0.0,
            lbit_dir_cache: None,
        }
    }

    /// The paper's main configuration: 7+1 parity, checkpointing at
    /// `interval`.
    pub fn parity(interval: Ns) -> ReviveConfig {
        ReviveConfig {
            mode: ReviveMode::Parity {
                group_data_pages: 7,
            },
            ckpt: CheckpointConfig {
                interval,
                ..CheckpointConfig::default()
            },
            log_fraction: 0.15,
            lbit_dir_cache: None,
        }
    }

    /// Memory mirroring — 1-replication, every page copied whole to one
    /// peer — at the given checkpoint interval.
    pub fn mirroring(interval: Ns) -> ReviveConfig {
        ReviveConfig {
            mode: ReviveMode::Replication { replicas: 1 },
            ..ReviveConfig::parity(interval)
        }
    }

    /// RAID-6-style double parity (6+2 groups, matching the paper
    /// machine's 16 nodes) at the given checkpoint interval.
    pub fn double_parity(interval: Ns) -> ReviveConfig {
        ReviveConfig {
            mode: ReviveMode::DoubleParity {
                group_data_pages: 6,
            },
            ..ReviveConfig::parity(interval)
        }
    }

    /// k-replication at the given checkpoint interval.
    pub fn replication(interval: Ns, replicas: usize) -> ReviveConfig {
        ReviveConfig {
            mode: ReviveMode::Replication { replicas },
            ..ReviveConfig::parity(interval)
        }
    }
}

/// The service-level objective an open-loop serving run is held to.
/// Integer fields keep [`WorkloadSpec`] `Eq`, and because the spec is part
/// of the experiment config its `Debug` form flows into `config_hash` —
/// two runs with different SLO targets get distinct artifact identities.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SloSpec {
    /// A request completing within this many ns of its arrival is "good".
    pub target_ns: u64,
    /// Allowed violation budget, in violations per million requests.
    pub budget_ppm: u32,
    /// Accounting window (ns) for the per-window goodput series.
    pub window_ns: u64,
}

crate::json_record!(SloSpec {
    target_ns,
    budget_ppm,
    window_ns,
});

impl SloSpec {
    /// A 1 ms target with a 0.1% budget over 1 ms windows — loose enough
    /// for fault-free runs, tight enough that a checkpoint stall burns it.
    pub fn default_spec() -> SloSpec {
        SloSpec {
            target_ns: 1_000_000,
            budget_ppm: 1_000,
            window_ns: 1_000_000,
        }
    }
}

/// Which workload drives the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// One of the 12 SPLASH-2 models.
    Splash(AppId),
    /// A synthetic corner.
    Synthetic(SyntheticKind),
    /// An open-loop request serving stream, measured against an SLO.
    Serving(ServingKind, SloSpec),
}

impl WorkloadSpec {
    /// The workload's short name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadSpec::Splash(a) => a.name(),
            WorkloadSpec::Synthetic(s) => s.name(),
            WorkloadSpec::Serving(k, _) => k.name(),
        }
    }

    /// Builds the generator.
    pub fn build(self, cpus: usize, scale: Scale, seed: u64) -> Workload {
        match self {
            WorkloadSpec::Splash(a) => Workload::Splash(a.build(cpus, scale, seed)),
            WorkloadSpec::Synthetic(s) => Workload::Synthetic(s.build(cpus, scale, seed)),
            WorkloadSpec::Serving(k, _) => Workload::Serving(k.build(cpus, scale, seed)),
        }
    }

    /// The SLO for a serving workload, `None` for batch workloads.
    pub fn slo(self) -> Option<SloSpec> {
        match self {
            WorkloadSpec::Serving(_, slo) => Some(slo),
            _ => None,
        }
    }
}

/// Observability knobs: event tracing and interval sampling. Both default
/// to off, in which case the machine records nothing and the hot paths pay
/// a single branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Ring-buffer capacity for the event trace; `0` disables tracing.
    pub trace_capacity: usize,
    /// Sampling epoch in microseconds for the per-epoch time series; `0`
    /// disables sampling.
    pub epoch_us: u64,
}

impl ObsConfig {
    /// Everything off (the default for every experiment constructor).
    pub fn off() -> ObsConfig {
        ObsConfig {
            trace_capacity: 0,
            epoch_us: 0,
        }
    }

    /// The standard full-observability setting used by `simulate --json`
    /// and the artifact-emitting bench binaries: a 64 Ki-event ring and a
    /// 50 µs epoch (40 samples per 2 ms checkpoint interval).
    pub fn full() -> ObsConfig {
        ObsConfig {
            trace_capacity: 64 * 1024,
            epoch_us: 50,
        }
    }

    /// Whether interval sampling is on.
    pub fn sampling(&self) -> bool {
        self.epoch_us > 0
    }

    /// Whether event tracing is on.
    pub fn tracing(&self) -> bool {
        self.trace_capacity > 0
    }
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig::off()
    }
}

/// A complete experiment: machine + recovery config + workload + budget.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Hardware parameters.
    pub machine: MachineConfig,
    /// Recovery mechanism parameters.
    pub revive: ReviveConfig,
    /// The driving workload.
    pub workload: WorkloadSpec,
    /// Memory operations each CPU issues before the run completes.
    pub ops_per_cpu: u64,
    /// Root seed; fixes the workload streams bit-for-bit.
    pub seed: u64,
    /// Capture a memory snapshot at each checkpoint commit so recovery can
    /// be verified value-exactly (testing/validation only).
    pub shadow_checkpoints: bool,
    /// Observability: event tracing and interval sampling (default off).
    pub obs: ObsConfig,
    /// Scripted detection delay as a fraction of the checkpoint interval,
    /// used by the worst-case injection constructors
    /// (`InjectionPlan::paper_worst_case` / `paper_transient`). This is a
    /// *harness assumption*, not a paper constant: PAPER.md fixes no
    /// detection latency, so the conservative default of
    /// [`ExperimentConfig::DEFAULT_DETECTION_FRACTION`] (most of an
    /// interval elapses before the error is noticed) lives here as a named
    /// knob instead of a magic number.
    pub detection_fraction: f64,
}

impl ExperimentConfig {
    /// Default scripted detection delay, as a fraction of the checkpoint
    /// interval — the worst-case assumption the availability analysis uses
    /// when nothing overrides it.
    pub const DEFAULT_DETECTION_FRACTION: f64 = 0.8;
    /// A small, fast test experiment on a 4-node machine (3+1 parity, since
    /// the chunk must divide the node count). The tiny caches overflow the
    /// log quickly, so extra checkpoints trigger early; retaining four
    /// checkpoints keeps the detection-latency window recoverable
    /// (Section 3.2.3: "for larger error detection latencies we can keep
    /// sufficient logs").
    pub fn test_small(app: AppId) -> ExperimentConfig {
        let mut revive = ReviveConfig {
            mode: ReviveMode::Parity {
                group_data_pages: 3,
            },
            log_fraction: 0.3,
            ..ReviveConfig::parity(Ns::from_us(100))
        };
        revive.ckpt.retained = 6;
        ExperimentConfig {
            machine: MachineConfig::test_small(),
            revive,
            workload: WorkloadSpec::Splash(app),
            ops_per_cpu: 60_000,
            seed: 42,
            shadow_checkpoints: true,
            obs: ObsConfig::off(),
            detection_fraction: ExperimentConfig::DEFAULT_DETECTION_FRACTION,
        }
    }

    /// The default experiment scale used by the benchmark harness: long
    /// enough to span several checkpoint intervals at the scaled cadence
    /// (see EXPERIMENTS.md for the scaling argument).
    pub fn experiment(workload: WorkloadSpec, revive: ReviveConfig) -> ExperimentConfig {
        ExperimentConfig {
            machine: MachineConfig::scaled(),
            revive,
            workload,
            ops_per_cpu: 1_200_000,
            seed: 20_02,
            shadow_checkpoints: false,
            obs: ObsConfig::off(),
            detection_fraction: ExperimentConfig::DEFAULT_DETECTION_FRACTION,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_matches_table3() {
        let m = MachineConfig::paper();
        assert_eq!(m.nodes, 16);
        assert_eq!(m.l1.size_bytes, 16 * 1024);
        assert_eq!(m.l2.size_bytes, 128 * 1024);
        assert_eq!(m.dir_latency, Ns(21));
        assert_eq!(m.l1_hit, Ns(2));
        assert_eq!(m.l2_hit, Ns(12));
    }

    #[test]
    fn revive_modes() {
        assert_eq!(ReviveMode::Off.group_data_pages(), None);
        assert_eq!(
            ReviveMode::Parity {
                group_data_pages: 7
            }
            .group_data_pages(),
            Some(7)
        );
        assert_eq!(
            ReviveMode::Replication { replicas: 1 }.group_data_pages(),
            Some(1)
        );
        assert_eq!(
            ReviveMode::DoubleParity {
                group_data_pages: 6
            }
            .group_data_pages(),
            Some(6)
        );
        assert_eq!(
            ReviveMode::Replication { replicas: 2 }.group_data_pages(),
            Some(1)
        );
    }

    #[test]
    fn mode_budgets_and_overheads() {
        assert_eq!(ReviveMode::Off.loss_budget(), 0);
        assert_eq!(
            ReviveMode::Parity {
                group_data_pages: 7
            }
            .loss_budget(),
            1
        );
        assert_eq!(
            ReviveMode::DoubleParity {
                group_data_pages: 6
            }
            .loss_budget(),
            2
        );
        assert_eq!(ReviveMode::Replication { replicas: 3 }.loss_budget(), 3);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(
            ReviveMode::Parity {
                group_data_pages: 7
            }
            .storage_overhead(),
            1.0 / 8.0
        ));
        assert!(close(
            ReviveMode::Replication { replicas: 1 }.storage_overhead(),
            0.5
        ));
        assert!(close(
            ReviveMode::DoubleParity {
                group_data_pages: 6
            }
            .storage_overhead(),
            0.25
        ));
        assert!(close(
            ReviveMode::Replication { replicas: 2 }.storage_overhead(),
            2.0 / 3.0
        ));
    }

    #[test]
    fn workload_spec_builds() {
        let w = WorkloadSpec::Splash(AppId::Lu).build(2, Scale { l2_bytes: 4096 }, 1);
        assert_eq!(w.name(), "lu");
        let s =
            WorkloadSpec::Synthetic(SyntheticKind::Uniform).build(2, Scale { l2_bytes: 4096 }, 1);
        assert_eq!(s.name(), "uniform");
    }

    #[test]
    fn error_display() {
        let e = MachineError::OutOfMemory { needed: 3 };
        assert!(e.to_string().contains("3 pages"));
    }
}
