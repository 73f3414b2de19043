//! Shared configuration and report formatting for the experiment
//! binaries.
//!
//! Every table and figure of the paper's evaluation (Section 6) has a
//! binary in `src/bin/` that regenerates it; this library holds the common
//! configurations ([`FigConfig`], [`fig_job`]), the documents, and the
//! table printer. Running the configurations and writing what they
//! produce is `revive_harness::Sweep`'s job. See EXPERIMENTS.md at the
//! repository root for the scaling argument and the recorded results.
//!
//! Quick mode (`REVIVE_QUICK=1` or `--quick`) shrinks op budgets ~4× for
//! smoke runs; the shapes survive, the noise grows.

use revive_harness::{Args, SweepJob};
use revive_machine::{ExperimentConfig, ReviveConfig, WorkloadSpec};
use revive_sim::time::Ns;

pub mod documents;
pub mod summary;

/// The simulated checkpoint interval that stands in for the paper's Cp10ms
/// (see EXPERIMENTS.md: caches are 8× smaller than the paper's simulated
/// machine, so checkpoints come proportionally more often).
pub const CP_INTERVAL: Ns = Ns::from_ms(2);

/// Options shared by all experiment binaries.
#[derive(Clone, Copy, Debug, Default)]
pub struct Opts {
    /// Shrink run budgets for a fast smoke pass.
    pub quick: bool,
    /// Experiment-seed override (`--seed`).
    pub seed: Option<u64>,
}

impl Opts {
    /// The options carried by the shared harness arguments.
    pub fn from_args(args: &Args) -> Opts {
        Opts {
            quick: args.quick,
            seed: args.seed,
        }
    }

    /// The per-CPU op budget for this mode.
    pub fn ops_per_cpu(&self) -> u64 {
        if self.quick {
            300_000
        } else {
            1_200_000
        }
    }

    /// The checkpoint interval for runs that must commit checkpoints
    /// within their budget (injection experiments, Figure 6). Quick mode
    /// shrinks the interval with the op budget (both are 4× smaller), so a
    /// scripted error waiting for checkpoint 2 still fires before the
    /// reduced budget runs out.
    pub fn injection_interval(&self) -> Ns {
        if self.quick {
            Ns(CP_INTERVAL.0 / 4)
        } else {
            CP_INTERVAL
        }
    }
}

/// The five error-free configurations of Figure 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FigConfig {
    /// No recovery support.
    Baseline,
    /// 7+1 parity, checkpoints at the scaled Cp10ms cadence.
    Cp,
    /// 7+1 parity, infinite checkpoint interval (logging+parity only).
    CpInf,
    /// Mirroring, checkpoints at the scaled cadence.
    CpM,
    /// Mirroring, infinite checkpoint interval.
    CpInfM,
}

impl FigConfig {
    /// All five, in the paper's bar order.
    pub const ALL: [FigConfig; 5] = [
        FigConfig::Baseline,
        FigConfig::Cp,
        FigConfig::CpInf,
        FigConfig::CpM,
        FigConfig::CpInfM,
    ];

    /// The paper's label.
    pub fn name(self) -> &'static str {
        match self {
            FigConfig::Baseline => "Base",
            FigConfig::Cp => "Cp10ms",
            FigConfig::CpInf => "CpInf",
            FigConfig::CpM => "Cp10msM",
            FigConfig::CpInfM => "CpInfM",
        }
    }

    /// The ReVive configuration this selects.
    pub fn revive(self) -> ReviveConfig {
        let mut cfg = match self {
            FigConfig::Baseline => ReviveConfig::off(),
            FigConfig::Cp => ReviveConfig::parity(CP_INTERVAL),
            FigConfig::CpInf => ReviveConfig::parity(Ns::MAX),
            FigConfig::CpM => ReviveConfig::mirroring(CP_INTERVAL),
            FigConfig::CpInfM => ReviveConfig::mirroring(Ns::MAX),
        };
        if self != FigConfig::Baseline {
            // Mirroring protects only half the pages, so its fraction is
            // doubled to give both modes the same *absolute* log capacity
            // (otherwise mirroring runs suffer artificial early-checkpoint
            // pressure).
            cfg.log_fraction = match self {
                FigConfig::CpM | FigConfig::CpInfM => 0.5,
                _ => 0.28,
            };
            // Keep one extra checkpoint recoverable so the injection
            // experiments (detection latency ≈ one interval) always roll
            // back within the retained set even if a log-pressure early
            // checkpoint slips into the detection window.
            cfg.ckpt.retained = 3;
        }
        cfg
    }
}

/// The sweep job that runs `workload` under `fig`, labelled
/// `<workload>_<fig>`.
pub fn fig_job(workload: WorkloadSpec, fig: FigConfig, opts: Opts) -> SweepJob {
    let mut cfg = ExperimentConfig::experiment(workload, fig.revive());
    cfg.ops_per_cpu = opts.ops_per_cpu();
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    SweepJob::new(format!("{}_{}", workload.name(), fig.name()), cfg)
}

/// Percent slowdown of `t` relative to `base`.
pub fn overhead_pct(t: Ns, base: Ns) -> f64 {
    100.0 * (t.0 as f64 / base.0 as f64 - 1.0)
}

/// A minimal fixed-width table printer for experiment reports.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Prints the standard experiment banner.
pub fn banner(what: &str, paper_ref: &str, opts: Opts) {
    println!("=== {what} ===");
    println!("reproduces: {paper_ref}");
    if opts.quick {
        println!("mode: QUICK (reduced op budgets; shapes only)");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        assert!((overhead_pct(Ns(110), Ns(100)) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(Ns(100), Ns(100)), 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["app", "value"]);
        t.row(["fft", "22.0"]);
        t.row(["water-n2", "1.3"]);
        let r = t.render();
        assert!(r.contains("app"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    fn fig_configs_build() {
        for f in FigConfig::ALL {
            let _ = f.revive();
            assert!(!f.name().is_empty());
        }
        assert_eq!(FigConfig::CpInf.revive().ckpt.interval, Ns::MAX);
    }
}
