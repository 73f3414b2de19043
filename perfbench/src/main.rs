//! Host-performance benchmark of the ReVive simulator.
//!
//! `--trace 0` measures one workload's end-to-end metrics for `--seconds`
//! seconds; `--trace 1` reruns the workload with spans around the
//! benchmark's own calls and times each layer's public entry point (see
//! [`layers`]). The last line of standard output is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`. README.md in
//! this directory lists the metrics and why each workload was chosen.

mod check;
mod host;
mod layers;
mod tracer;
mod workload;

use std::time::{Duration, Instant};

use check::Checker;
use tracer::Tracer;
use workload::{Sample, Workload};

/// Units measured per run at the least, however short `--seconds` is: the
/// end-to-end metrics are taken over units.
const MIN_UNITS: usize = 3;

const USAGE: &str = "usage: revive-perfbench --workload fft-cp|lu-base|campaign \
                     [--seed N] [--seconds N] [--trace 0|1] [--fingerprints FILE]";

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is not positive.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// A fingerprint table to check against instead of the recorded one.
    fingerprints: Option<String>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = 10;
        let mut trace = false;
        let mut fingerprints = None;
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value).ok_or(format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                "--fingerprints" => fingerprints = Some(value),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed: seed.unwrap_or(workload.default_seed()),
            seconds,
            trace,
            fingerprints,
        })
    }
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let table = match &args.fingerprints {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perfbench: {path}: {e}");
            std::process::exit(2);
        }),
        None => check::RECORDED.to_string(),
    };
    let mut checker = Checker::new(&table).unwrap_or_else(|e| {
        eprintln!("perfbench: fingerprint table: {e}");
        std::process::exit(2);
    });
    let host = host::Context::capture();
    let w = args.workload;
    // One checked, untimed unit first, so caches and lazy set-up are warm
    // before timing starts.
    w.unit(w.warmup_seed(args.seed), &mut checker, &mut Tracer::off());
    let metrics = if args.trace {
        traced(&args, &mut checker)
    } else {
        untraced(&args, &mut checker)
    };
    host.report(w.name(), args.seed);
    for ((workload, seed), fingerprint) in checker.observed() {
        println!("fingerprint {workload} {seed} {fingerprint}");
    }
    for m in &metrics {
        println!("{:<40} {:>22} {}", m.name, m.value, m.unit);
    }
    println!(
        "error_rate {} fraction ({} of {} checked operations failed)",
        checker.error_rate(),
        checker.failed,
        checker.attempted
    );
    println!("{}", result_json(&checker, &metrics));
    std::process::exit(if checker.passed() { 0 } else { 1 });
}

/// Units on the run's seed for `--seconds` seconds (at least
/// [`MIN_UNITS`]), each printed to standard error.
fn untraced(args: &Args, checker: &mut Checker) -> Vec<Metric> {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut samples: Vec<Sample> = Vec::new();
    while samples.len() < MIN_UNITS || Instant::now() < deadline {
        let s = args.workload.unit(args.seed, checker, &mut Tracer::off());
        eprintln!(
            "unit {} wall_s {} setup_s {} run_s {}",
            samples.len(),
            s.wall_s,
            s.setup_s,
            s.run_s
        );
        samples.push(s);
    }
    let values = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    // The unit work is deterministic, and on a shared host co-tenant load
    // only ever adds time, in bursts that last seconds: the same unit reads
    // 1.0 s or 1.7 s within one run. The fastest unit tracks the code; the
    // median tracks the neighbours.
    let fastest = |f| values(f).into_iter().fold(f64::INFINITY, f64::min);
    vec![
        Metric::new("wall_s", "s", fastest(|s| s.wall_s)),
        Metric::new("setup_s", "s", median(&values(|s| s.setup_s))),
        Metric::new(
            "ops_per_s",
            "ops/s",
            ratio(samples[0].ops as f64, fastest(|s| s.run_s)),
        ),
        Metric::new("peak_rss_mb", "MiB", host::peak_rss_mib()),
    ]
}

/// Untraced and traced units alternate for `--seconds` seconds (one pair
/// at the least) to measure the tracing overhead; then every layer is
/// timed on inputs shaped like the traced unit's.
fn traced(args: &Args, checker: &mut Checker) -> Vec<Metric> {
    let w = args.workload;
    let mut tracer = Tracer::on();
    let mut plain = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while traced.is_empty() || Instant::now() < deadline {
        plain.push(w.unit(args.seed, checker, &mut Tracer::off()).wall_s);
        traced.push(w.unit(args.seed, checker, &mut tracer));
    }
    let traced_wall = median(&traced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    eprint!("{}", tracer.to_jsonl());
    // The batch workloads run no campaign: they time its path on one
    // held-out scenario, so the campaign-path metrics exist everywhere.
    let held_out = (w != Workload::Campaign).then(|| {
        workload::campaign_unit(&[workload::HELD_OUT_SCENARIO], checker, &mut Tracer::on())
    });
    let mut metrics = layers::measure(&traced[0], held_out.as_ref().unwrap_or(&traced[0]), checker);
    metrics.push(Metric::new(
        "trace_overhead_frac",
        "fraction",
        ratio(traced_wall, median(&plain)) - 1.0,
    ));
    metrics
}

fn result_json(checker: &Checker, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a metric that cannot be computed
            // reads 0 (and the run has already failed a check).
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.passed(),
        checker.attempted,
        checker.failed,
        body.join(", ")
    )
}
