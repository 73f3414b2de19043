//! The three workloads and their units of work. A unit drives the
//! simulator through its public API, times the calls, and checks the
//! outputs; the end-to-end metrics are medians over units.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use revive_core::MemoryImage;
use revive_machine::{
    generate, injected_vs_golden, CampaignConfig, ExperimentConfig, FaultOutcome, MachineError,
    ReviveConfig, ReviveMode, RunResult, Runner, Scenario, WorkloadSpec,
};
use revive_sim::Ns;
use revive_workloads::AppId;

use crate::check::{run_fingerprint, Checker};
use crate::tracer::Tracer;

/// The `campaign` workload's scenarios: consecutive seeds of
/// `generate(seed, &CampaignConfig::default())` that together cover the
/// three redundancy backends, both machine shapes (4 nodes 3+1, 9 nodes
/// 2+1) and an unrecoverable outcome, picked among such blocks for a low
/// host cost. The block is fixed, so the campaign's cost does not depend
/// on the benchmark seed; the seed only rotates the order.
pub const CAMPAIGN_BLOCK: std::ops::Range<u64> = 25..29;

/// A recovered campaign scenario outside the block: the campaign's
/// held-out fingerprint, and the scenario on which the batch workloads'
/// traced runs time the campaign path.
pub const HELD_OUT_SCENARIO: u64 = 2;

/// The Figure-8 experiments' seed: the batch workloads' default.
const FIGURE8_SEED: u64 = 2002;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// fft on the scaled 16-node machine under Figure-8 Cp10ms.
    FftCp,
    /// lu on the same machine with ReVive off (Figure-8 Base).
    LuBase,
    /// The fault-campaign block.
    Campaign,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::FftCp, Workload::LuBase, Workload::Campaign];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FftCp => "fft-cp",
            Workload::LuBase => "lu-base",
            Workload::Campaign => "campaign",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Campaign => 0,
            _ => FIGURE8_SEED,
        }
    }

    /// The seed of the untimed warm-up unit. The batch workloads warm up
    /// on their default seed, so every run also checks the recorded
    /// fingerprint (the zero-simulated-drift check); every campaign unit
    /// runs the recorded block anyway.
    pub fn warmup_seed(self, seed: u64) -> u64 {
        match self {
            Workload::Campaign => seed,
            _ => FIGURE8_SEED,
        }
    }

    /// The experiment a batch unit runs; `None` for the campaign.
    pub fn batch_config(self, seed: u64) -> Option<ExperimentConfig> {
        let (app, revive) = match self {
            Workload::FftCp => {
                // Figure-8 Cp10ms: 7+1 parity at the scaled 2 ms interval.
                let mut revive = ReviveConfig::parity(Ns::from_ms(2));
                revive.log_fraction = 0.28;
                revive.ckpt.retained = 3;
                (AppId::Fft, revive)
            }
            Workload::LuBase => (AppId::Lu, ReviveConfig::off()),
            Workload::Campaign => return None,
        };
        let mut cfg = ExperimentConfig::experiment(WorkloadSpec::Splash(app), revive);
        cfg.seed = seed;
        Some(cfg)
    }

    /// Runs one unit of work on `seed` and checks its outputs.
    pub fn unit(self, seed: u64, checker: &mut Checker, tracer: &mut Tracer) -> Sample {
        match self.batch_config(seed) {
            Some(cfg) => batch_unit(self, cfg, checker, tracer),
            None => campaign_unit(&campaign_seeds(seed), checker, tracer),
        }
    }
}

/// The campaign block, rotated by the benchmark seed.
fn campaign_seeds(seed: u64) -> Vec<u64> {
    let mut seeds: Vec<u64> = CAMPAIGN_BLOCK.collect();
    let len = seeds.len() as u64;
    seeds.rotate_left((seed % len) as usize);
    seeds
}

/// One simulator run inside a unit.
pub struct Run {
    pub cfg: ExperimentConfig,
    pub result: RunResult,
    /// Host seconds inside the run call.
    pub run_s: f64,
}

/// Host-time measurements of one unit of work.
#[derive(Default)]
pub struct Sample {
    /// From the first `Runner::new` through the last output check.
    pub wall_s: f64,
    /// Inside `Runner::new`, once per configuration.
    pub setup_s: f64,
    /// Inside the run calls.
    pub run_s: f64,
    /// Simulated ops the unit covers, the `ops_per_s` numerator: the run's
    /// `cpu_ops` for a batch unit; for the campaign, the op budget of every
    /// run `run_scenario` makes, so that a cheaper way to reach the same
    /// verdicts reads as a gain.
    pub ops: u64,
    /// Campaign probe runs, with their `Runner::new`.
    pub probe_s: f64,
    /// Campaign golden runs.
    pub golden_s: f64,
    /// Campaign injected runs with the memory comparison.
    pub injected_s: f64,
    /// Golden-versus-injected memory comparisons made.
    pub diffs: u64,
    pub runs: Vec<Run>,
    /// The last golden memory image, kept when tracing.
    pub image: Option<MemoryImage>,
}

fn batch_unit(
    w: Workload,
    cfg: ExperimentConfig,
    checker: &mut Checker,
    tracer: &mut Tracer,
) -> Sample {
    let mut sample = Sample::default();
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Run, MachineError> {
        let t = Instant::now();
        tracer.open("machine.Runner::new");
        let runner = Runner::new(cfg);
        tracer.close();
        sample.setup_s = t.elapsed().as_secs_f64();
        let runner = runner?;
        let t = Instant::now();
        tracer.open("machine.Runner::run");
        let result = runner.run();
        tracer.close();
        let run_s = t.elapsed().as_secs_f64();
        Ok(Run {
            cfg,
            result: result?,
            run_s,
        })
    }));
    tracer.open("check");
    match outcome {
        Ok(Ok(run)) => {
            let r = &run.result;
            let sound = r.metrics.traffic.cpu_ops == cfg.machine.nodes as u64 * cfg.ops_per_cpu
                && (r.checkpoints > 0) == (cfg.revive.mode != ReviveMode::Off);
            checker.check(w.name(), cfg.seed, &run_fingerprint(r), sound);
            sample.run_s = run.run_s;
            sample.ops = r.metrics.traffic.cpu_ops;
            sample.runs.push(run);
        }
        Ok(Err(e)) => checker.expect(false, &format!("{} seed {}: {e}", w.name(), cfg.seed)),
        Err(_) => checker.expect(
            false,
            &format!("{} seed {}: the simulator panicked", w.name(), cfg.seed),
        ),
    }
    tracer.close();
    sample.wall_s = start.elapsed().as_secs_f64();
    sample
}

/// Runs each seed's scenario the way `revive_machine::run_scenario` does
/// and checks its classification with the oracle, shadow and audit
/// verdicts.
pub fn campaign_unit(seeds: &[u64], checker: &mut Checker, tracer: &mut Tracer) -> Sample {
    let mut sample = Sample::default();
    let start = Instant::now();
    for &seed in seeds {
        let sc = generate(seed, &CampaignConfig::default());
        tracer.open("machine.campaign.scenario");
        let outcome = catch_unwind(AssertUnwindSafe(|| scenario(&sc, &mut sample, tracer)));
        tracer.close();
        // A panic, a structurally bad scenario, or a recovery that fails
        // an oracle is a failure; an unrecoverable classification and an
        // injection that never fired are legitimate outcomes.
        let (verdict, failure) = match outcome {
            Ok(Ok(v)) => v,
            Ok(Err(MachineError::InjectionNeverFired { .. })) => ("not-fired".to_string(), false),
            Ok(Err(e)) => (format!("bad-config {e}"), true),
            Err(_) => ("panicked".to_string(), true),
        };
        checker.check("campaign", seed, &verdict, !failure);
    }
    sample.wall_s = start.elapsed().as_secs_f64();
    sample
}

/// The probe run, and for a recovered fault the golden run and the
/// injected run under the exact-memory oracle. Returns the verdict and
/// whether it is a failure of the recovery machinery.
fn scenario(
    sc: &Scenario,
    sample: &mut Sample,
    tracer: &mut Tracer,
) -> Result<(String, bool), MachineError> {
    let cfg = sc.experiment();
    let plans = sc.plans(cfg.revive.ckpt.interval);
    let budget = cfg.machine.nodes as u64 * cfg.ops_per_cpu;

    let t = Instant::now();
    tracer.open("machine.Runner::new");
    let runner = Runner::new(cfg);
    tracer.close();
    sample.setup_s += t.elapsed().as_secs_f64();
    let runner = runner?;
    tracer.open("machine.campaign.probe");
    let probe = runner.run_with_injections(&plans);
    tracer.close();
    let probe_s = t.elapsed().as_secs_f64();
    sample.probe_s += probe_s;
    sample.run_s += probe_s;
    sample.ops += budget;
    let probe = probe?;
    let unrecoverable = probe.outcomes.iter().find_map(|o| match o {
        FaultOutcome::Unrecoverable { error, .. } => Some(error.to_string()),
        FaultOutcome::Recovered(_) => None,
    });
    sample.runs.push(Run {
        cfg,
        result: probe,
        run_s: probe_s,
    });
    if let Some(reason) = unrecoverable {
        return Ok((format!("unrecoverable {reason}"), false));
    }

    let t = Instant::now();
    tracer.open("machine.campaign.golden");
    let golden = Runner::new(cfg).and_then(Runner::run_to_image);
    tracer.close();
    let golden_s = t.elapsed().as_secs_f64();
    sample.golden_s += golden_s;
    sample.run_s += golden_s;
    sample.ops += budget;
    let (golden, image) = golden?;
    sample.runs.push(Run {
        cfg,
        result: golden,
        run_s: golden_s,
    });

    let t = Instant::now();
    tracer.open("machine.campaign.injected");
    let injected = injected_vs_golden(cfg, &plans, &image);
    tracer.close();
    let injected_s = t.elapsed().as_secs_f64();
    sample.injected_s += injected_s;
    sample.run_s += injected_s;
    sample.ops += budget;
    sample.diffs += 1;
    let (injected, diff) = injected?;
    let oracle = diff.is_match();
    let shadow = injected
        .recoveries
        .iter()
        .all(|r| r.verified != Some(false));
    let audits = injected.audits.iter().all(|a| a.is_clean());
    let verdict = format!(
        "recovered oracle={} shadow={} audits={} recoveries={}",
        if oracle { "match" } else { "MISMATCH" },
        if shadow { "ok" } else { "FAILED" },
        if audits { "clean" } else { "DIRTY" },
        injected.recoveries.len()
    );
    sample.runs.push(Run {
        cfg,
        result: injected,
        run_s: injected_s,
    });
    if tracer.is_on() {
        sample.image = Some(image);
    }
    Ok((verdict, !(oracle && shadow && audits)))
}
