//! The perf-regression gate: compares a candidate bench summary against
//! the committed baseline (`BENCH_baseline.json`) and exits nonzero when a
//! metric regressed beyond tolerance.
//!
//! With no `--candidate`, the candidate is measured fresh: the Figure 8
//! sweep runs here and now (in the baseline's quick/full mode, cache
//! disabled) and its numbers are diffed directly — this is the form CI
//! runs. Deterministic simulation metrics (`ops`, `events`, `sim_time_ns`)
//! default to zero tolerance in either direction; wall-clock throughput
//! flags only slowdowns, beyond a generous `--tol-wall`, and `--no-wall`
//! skips it entirely (the right call when baseline and candidate ran on
//! different machines).
//!
//! Exit codes: 0 = within tolerance, 1 = regression detected, 2 = operator
//! error (unreadable files, malformed flags, incomparable documents).

use std::path::Path;

use revive_bench::summary::{diff, run_summary_sweep, Summary, Tolerances};
use revive_bench::{banner, Opts};
use revive_harness::Args;
use revive_machine::read_document;

fn usage() -> ! {
    eprintln!(
        "usage: bench_diff [--baseline FILE] [--candidate FILE] \
         [--tol-sim X] [--tol-wall X] [--no-wall] [--quick] [--jobs N]\n\
         \n\
         --baseline FILE   summary to compare against (default BENCH_baseline.json)\n\
         --candidate FILE  pre-recorded candidate summary; omit to run the sweep fresh\n\
         --tol-sim X       relative tolerance for deterministic sim metrics (default 0)\n\
         --tol-wall X      relative slowdown tolerance for wall throughput (default 0.5)\n\
         --no-wall         skip wall-clock comparison (cross-host diffs)"
    );
    std::process::exit(2);
}

fn load(path: &str) -> Summary {
    read_document(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("bench_diff: {path} is not a readable bench summary: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args = Args::parse();
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut candidate_path: Option<String> = None;
    let mut tol = Tolerances::default();
    let mut rest = args.rest.iter();
    while let Some(flag) = rest.next() {
        let (name, inline) = match flag.split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (flag.as_str(), None),
        };
        let mut value = |what: &str| {
            inline
                .clone()
                .or_else(|| rest.next().cloned())
                .unwrap_or_else(|| {
                    eprintln!("bench_diff: {name} needs {what}");
                    std::process::exit(2);
                })
        };
        match name {
            "--baseline" => baseline_path = value("a file"),
            "--candidate" => candidate_path = Some(value("a file")),
            "--tol-sim" => {
                tol.sim = value("a number").parse().unwrap_or_else(|_| usage());
            }
            "--tol-wall" => {
                tol.wall = value("a number").parse().unwrap_or_else(|_| usage());
            }
            "--no-wall" => tol.check_wall = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("bench_diff: unknown flag {other}");
                usage();
            }
        }
    }

    let baseline = load(&baseline_path);
    let candidate = match &candidate_path {
        Some(p) => load(p),
        None => {
            if args.quick && !baseline.quick {
                eprintln!(
                    "bench_diff: --quick against a full-mode baseline is not \
                     comparable; drop --quick or point --baseline at a quick baseline"
                );
                std::process::exit(2);
            }
            // Run in the baseline's mode so the numbers are comparable.
            let opts = Opts {
                quick: baseline.quick,
                seed: args.seed,
            };
            banner(
                "bench_diff — measuring a fresh candidate sweep",
                "perf-regression gate vs the committed baseline",
                opts,
            );
            run_summary_sweep(&args, opts)
        }
    };

    match diff(&baseline, &candidate, &tol) {
        Err(e) => {
            eprintln!("bench_diff: {e}");
            std::process::exit(2);
        }
        Ok(regressions) if regressions.is_empty() => {
            println!(
                "bench_diff: OK — {} entries within tolerance of {} \
                 (sim ±{:.1}%, wall {})",
                baseline.entries.len(),
                baseline_path,
                tol.sim * 100.0,
                if tol.check_wall {
                    format!("-{:.0}%", tol.wall * 100.0)
                } else {
                    "unchecked".to_string()
                },
            );
        }
        Ok(regressions) => {
            eprintln!(
                "bench_diff: {} regression(s) vs {}:",
                regressions.len(),
                baseline_path
            );
            for r in &regressions {
                eprintln!("  REGRESSION {r}");
            }
            std::process::exit(1);
        }
    }
}
