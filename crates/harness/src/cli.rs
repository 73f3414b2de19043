//! The one argument parser every sweep-shaped experiment binary shares.
//!
//! Before this module each binary grew its own ad-hoc `--quick` handling
//! (some scanned argv, some only read `REVIVE_QUICK`, some neither). All
//! sweep binaries now parse the same four flags the same way:
//!
//! | flag              | env override           | meaning                                   |
//! |-------------------|------------------------|-------------------------------------------|
//! | `--quick`         | `REVIVE_QUICK=1`       | reduced op budgets (smoke mode)           |
//! | `--jobs N`        | `REVIVE_JOBS=N`        | worker threads; default `min(cores, jobs)`|
//! | `--no-cache`      | `REVIVE_NO_CACHE=1`    | ignore cached artifacts, always re-run    |
//! | `--seed S`        | —                      | override the experiment seed              |
//!
//! Flags the parser does not recognize land in [`Args::rest`] for the
//! binary's own parsing (`--mirroring`, positional names, …); binaries
//! with `--name value` flags of their own (`--seeds`, `--replay`, …) read
//! them through [`Args::flags`].

use std::str::FromStr;

/// Parsed shared arguments plus the unconsumed remainder.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// Reduced op budgets for a fast smoke pass.
    pub quick: bool,
    /// Requested worker count (`None` = auto: `min(cores, jobs)`).
    pub jobs: Option<usize>,
    /// Ignore the content-addressed result cache.
    pub no_cache: bool,
    /// Experiment seed override.
    pub seed: Option<u64>,
    /// Arguments the shared parser did not consume, in order.
    pub rest: Vec<String>,
}

impl Args {
    /// Parses `std::env::args` plus the `REVIVE_*` environment overrides.
    ///
    /// # Panics
    ///
    /// Exits the process (status 2) on a malformed value for `--jobs` or
    /// `--seed` — these are operator typos, not recoverable states.
    pub fn parse() -> Args {
        Args::from_argv(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (tests).
    pub fn from_argv<I: IntoIterator<Item = String>>(argv: I) -> Args {
        let env_flag = |name: &str| std::env::var(name).is_ok_and(|v| v != "0");
        let mut args = Args {
            quick: env_flag("REVIVE_QUICK"),
            jobs: std::env::var("REVIVE_JOBS")
                .ok()
                .and_then(|v| v.parse().ok()),
            no_cache: env_flag("REVIVE_NO_CACHE"),
            seed: None,
            rest: Vec::new(),
        };
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            let mut take = |flag: &str, arg: &str| -> Option<String> {
                if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
                    Some(v.to_string())
                } else if arg == flag {
                    Some(it.next().unwrap_or_else(|| bad(flag, "<missing>")))
                } else {
                    None
                }
            };
            if arg == "--quick" {
                args.quick = true;
            } else if arg == "--no-cache" {
                args.no_cache = true;
            } else if let Some(v) = take("--jobs", &arg) {
                args.jobs = Some(v.parse().unwrap_or_else(|_| bad("--jobs", &v)));
            } else if let Some(v) = take("--seed", &arg) {
                args.seed = Some(v.parse().unwrap_or_else(|_| bad("--seed", &v)));
            } else {
                args.rest.push(arg);
            }
        }
        args
    }

    /// The worker count for a sweep of `job_count` jobs: the explicit
    /// `--jobs` if given, otherwise `min(available cores, job_count)`;
    /// never zero.
    pub fn workers(&self, job_count: usize) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.jobs.unwrap_or(auto).clamp(1, job_count.max(1))
    }

    /// The shared flags re-rendered for passing through to a child binary.
    pub fn passthrough(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.quick {
            out.push("--quick".to_string());
        }
        if let Some(j) = self.jobs {
            out.push(format!("--jobs={j}"));
        }
        if self.no_cache {
            out.push("--no-cache".to_string());
        }
        if let Some(s) = self.seed {
            out.push(format!("--seed={s}"));
        }
        out
    }
}

/// A binary's own flags, read from [`Args::rest`] by [`Args::flags`].
pub struct Flags {
    usage: String,
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Reads [`Args::rest`] as the binary's own flags: each name in
    /// `valued` takes a value (`--name V` or `--name=V`), each name in
    /// `switches` takes none.
    ///
    /// # Panics
    ///
    /// Exits the process (status 2) with `usage: {usage}` on `--help`,
    /// an unknown flag, or a missing value.
    pub fn flags(&self, usage: &str, valued: &[&str], switches: &[&str]) -> Flags {
        let mut given = Vec::new();
        let mut it = self.rest.iter();
        while let Some(arg) = it.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            if valued.contains(&name) {
                let value = inline.or_else(|| it.next().cloned());
                given.push((
                    name.to_string(),
                    Some(value.unwrap_or_else(|| exit_usage(usage))),
                ));
            } else if switches.contains(&name) && inline.is_none() {
                given.push((name.to_string(), None));
            } else {
                if !matches!(name, "--help" | "-h") {
                    eprintln!("unknown flag: {arg}");
                }
                exit_usage(usage)
            }
        }
        Flags {
            usage: usage.to_string(),
            given,
        }
    }
}

impl Flags {
    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// The last value given for `name`, parsed; `None` when it was not
    /// given.
    ///
    /// # Panics
    ///
    /// Exits the process (status 2) with the usage line when the value
    /// does not parse.
    pub fn value<T: FromStr>(&self, name: &str) -> Option<T> {
        let (_, value) = self.given.iter().rev().find(|(n, _)| n == name)?;
        let value = value.as_deref()?;
        Some(value.parse().unwrap_or_else(|_| exit_usage(&self.usage)))
    }
}

/// Prints `usage: {usage}` and exits the process with status 2.
pub fn exit_usage(usage: &str) -> ! {
    eprintln!("usage: {usage}");
    std::process::exit(2)
}

fn bad(flag: &str, value: &str) -> ! {
    eprintln!("bad value for {flag}: {value:?}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Args {
        Args::from_argv(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_shared_flags_in_both_forms() {
        let a = parse(&["--quick", "--jobs", "4", "--no-cache", "--seed=7"]);
        assert!(a.quick);
        assert_eq!(a.jobs, Some(4));
        assert!(a.no_cache);
        assert_eq!(a.seed, Some(7));
        assert!(a.rest.is_empty());

        let b = parse(&["--jobs=2", "--seed", "9"]);
        assert_eq!(b.jobs, Some(2));
        assert_eq!(b.seed, Some(9));
    }

    #[test]
    fn unknown_flags_pass_through_in_order() {
        let a = parse(&["--mirroring", "--quick", "out.json", "--seeds", "50"]);
        assert!(a.quick);
        assert_eq!(a.rest, vec!["--mirroring", "out.json", "--seeds", "50"]);
    }

    #[test]
    fn bin_flags_take_values_in_both_forms_and_the_last_wins() {
        let a = parse(&[
            "--seeds",
            "5",
            "--live",
            "--quick",
            "--seeds=9",
            "--replay=x.json",
        ]);
        let f = a.flags("t", &["--seeds", "--start-seed", "--replay"], &["--live"]);
        assert_eq!(f.value::<u64>("--seeds"), Some(9));
        assert_eq!(f.value::<u64>("--start-seed"), None);
        assert_eq!(f.value::<String>("--replay").as_deref(), Some("x.json"));
        assert!(f.switch("--live"));
        assert!(!f.switch("--mirroring"));
    }

    #[test]
    fn workers_respects_explicit_jobs_and_job_count() {
        let mut a = Args {
            jobs: Some(8),
            ..Args::default()
        };
        assert_eq!(a.workers(3), 3);
        assert_eq!(a.workers(100), 8);
        a.jobs = Some(0);
        assert_eq!(a.workers(5), 1);
        let auto = Args::default();
        assert!(auto.workers(4) >= 1);
        assert!(auto.workers(4) <= 4);
    }

    #[test]
    fn passthrough_round_trips() {
        let a = parse(&["--quick", "--jobs=3", "--no-cache", "--seed=11"]);
        let again = Args::from_argv(a.passthrough());
        assert!(again.quick && again.no_cache);
        assert_eq!(again.jobs, Some(3));
        assert_eq!(again.seed, Some(11));
    }
}
