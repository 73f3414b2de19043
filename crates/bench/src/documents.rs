//! The two sweep-summary documents: the `revive-frontier` cost/availability
//! frontier (`frontier` binary) and the `revive-slo` serving sweep (`slo`
//! binary). Each is a typed value whose [`Codec`] is its one writer and its
//! one reader; the reader checks the document's invariants, so a document
//! is valid exactly when it reads back.

use revive_machine::{json_record, Codec, Json, RunResult, SloSpec};

/// Schema tag of the frontier document.
pub const FRONTIER_SCHEMA: &str = "revive-frontier";
/// The one frontier version this build writes and reads.
pub const FRONTIER_VERSION: u64 = 8;
/// Schema tag of the SLO sweep document.
pub const SLO_SCHEMA: &str = "revive-slo";
/// The one SLO-document version this build writes and reads.
pub const SLO_VERSION: u64 = 8;

/// `x` rounded to `decimals` fractional digits, exactly as `{:.N}` prints
/// it: the documents record derived rates at a fixed printed precision.
pub fn fixed(x: f64, decimals: usize) -> f64 {
    format!("{x:.decimals$}").parse().unwrap_or(0.0)
}

fn probability(p: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(format!("availability {p} out of [0,1]"))
    }
}

// A frontier that never exercised one of the backends is incomplete by
// construction.
json_record!(document(FRONTIER_SCHEMA, FRONTIER_VERSION)
    /// The cost/availability frontier document.
    #[derive(Clone, Debug, PartialEq)]
    pub struct FrontierDoc {
        /// Campaign seeds replayed against every point.
        pub seeds_per_point: u64,
        /// One point per backend × shape.
        pub points: Vec<FrontierPoint>,
    }
    check(|d: &FrontierDoc| {
        if d.seeds_per_point < 1 || d.points.is_empty() {
            return Err("a frontier needs seeds and points".to_string());
        }
        for want in ["xor", "double-parity", "replication"] {
            if !d.points.iter().any(|p| p.backend == want) {
                return Err(format!("frontier does not cover backend '{want}'"));
            }
        }
        Ok(())
    })
);

json_record!(
    /// One backend × machine-shape point of the frontier.
    #[derive(Clone, Debug, PartialEq)]
    pub struct FrontierPoint {
        /// Redundancy backend name (`xor`, `double-parity`, `replication`).
        pub backend: String,
        /// The ReVive mode the backend and shape map to.
        pub mode: String,
        /// Node count.
        pub nodes: u64,
        /// Data pages per redundancy group.
        pub group_data_pages: u64,
        /// Simultaneous losses per group the backend rebuilds.
        pub budget: u64,
        /// Fraction of memory spent on redundancy.
        pub storage_overhead: f64,
        /// Cost coordinates, from the point's clean run.
        pub clean: FrontierCost,
        /// Availability coordinates, from its live-fault campaign slice.
        pub faults: FrontierFaults,
    },
    check(|p: &FrontierPoint| {
        if p.nodes < 1 || p.group_data_pages < 1 {
            return Err(format!(
                "point '{}' has an empty machine or group",
                p.backend
            ));
        }
        if !(0.0..=8.0).contains(&p.storage_overhead) {
            return Err(format!(
                "point '{}' storage_overhead out of range",
                p.backend
            ));
        }
        Ok(())
    })
);

json_record!(
    /// Cost coordinates of one frontier point. The `rdx_*` counters are
    /// the redundancy-update (PAR class) traffic.
    #[derive(Clone, Debug, PartialEq)]
    pub struct FrontierCost {
        pub sim_time_ns: u64,
        pub checkpoints: u64,
        pub ckpt_mean_ns: u64,
        pub ckpt_max_ns: u64,
        pub rdx_net_bytes: u64,
        pub rdx_net_msgs: u64,
        pub rdx_mem_accesses: u64,
    }
);

json_record!(
    /// Outcome tallies of one frontier point's campaign slice: every
    /// scenario lands in exactly one of recovered / unrecoverable / not
    /// fired. `availability` is at one error per day.
    #[derive(Clone, Debug, PartialEq)]
    pub struct FrontierFaults {
        pub scenarios: u64,
        pub recovered: u64,
        pub unrecoverable: u64,
        pub not_fired: u64,
        pub availability: f64,
        pub unavailable_mean_ns: u64,
    },
    check(|f: &FrontierFaults| {
        if f.recovered + f.unrecoverable + f.not_fired != f.scenarios {
            return Err("fault tallies do not sum to scenarios".to_string());
        }
        probability(f.availability)
    })
);

json_record!(document(SLO_SCHEMA, SLO_VERSION)
    /// The SLO sweep document.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SloDoc {
        /// The SLO every point is judged against.
        pub slo: SloSpec,
        /// Every sweep point.
        pub points: Vec<SloPoint>,
    }
    check(|d: &SloDoc| {
        if d.slo.target_ns < 1 || d.slo.window_ns < 1 || d.points.is_empty() {
            return Err("an slo sweep needs a positive target and window, and points".to_string());
        }
        Ok(())
    })
);

/// One arrival process × backend × checkpoint-interval point of the SLO
/// sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct SloPoint {
    /// Redundancy backend name.
    pub backend: String,
    /// Arrival-process name.
    pub arrival: String,
    /// Offered load per CPU (0.1 precision).
    pub rate_rps: f64,
    /// Checkpoint interval.
    pub interval_ns: u64,
    /// The fault-free run.
    pub clean: ServingProfile,
    /// The same run under its fault schedule.
    pub faulted: ServingProfile,
    /// The faulted run's availability accounting (recorded in the same
    /// `faulted` object as its profile).
    pub account: FaultAccount,
}

// The quantiles come from one tail histogram, so they are monotone by
// construction: a violation means the document was edited.
json_record!(
    /// The serving profile of one run: request counts, the latency quantile
    /// bounds, and the error-budget burn rate. Derived rates keep their
    /// printed precision (`goodput_rps` and `mean_ns` 0.1, `budget_burn`
    /// 0.0001).
    #[derive(Clone, Debug, PartialEq)]
    pub struct ServingProfile {
        pub sim_time_ns: u64,
        pub admitted: u64,
        pub completed: u64,
        pub goodput_rps: f64,
        pub mean_ns: f64,
        pub p50_ns: u64,
        pub p90_ns: u64,
        pub p99_ns: u64,
        pub p999_ns: u64,
        pub p9999_ns: u64,
        pub max_ns: u64,
        pub budget_burn: f64,
    },
    check(|p: &ServingProfile| {
        if !(p.p50_ns <= p.p99_ns && p.p99_ns <= p.p999_ns) {
            return Err("latency quantiles are not monotone".to_string());
        }
        if p.completed > p.admitted {
            return Err("completed more requests than admitted".to_string());
        }
        Ok(())
    })
);

json_record!(
    /// Availability accounting of one faulted serving run: the per-fault
    /// tally, the service-view availability, the downtime (how much longer
    /// the faulted run took than its clean twin), and MTBF/MTTR (`None`
    /// when no fault fired or nothing recovered).
    #[derive(Clone, Debug, PartialEq)]
    pub struct FaultAccount {
        pub faults: u64,
        pub recovered: u64,
        pub unrecoverable: u64,
        pub availability: f64,
        pub downtime_ns: u64,
        pub mtbf_ns: Option<u64>,
        pub mttr_ns: Option<u64>,
    },
    check(|a: &FaultAccount| probability(a.availability))
);

impl ServingProfile {
    /// The profile of a serving run.
    ///
    /// # Panics
    ///
    /// Panics when the run carries no serving report (it was not an
    /// open-loop serving run).
    pub fn from_run(r: &RunResult) -> ServingProfile {
        let s = r
            .serving
            .as_ref()
            .expect("serving run carries a serving report");
        ServingProfile {
            sim_time_ns: r.sim_time.0,
            admitted: s.admitted,
            completed: s.completed,
            goodput_rps: fixed(s.goodput_per_sec(r.sim_time), 1),
            mean_ns: fixed(s.mean_ns, 1),
            p50_ns: s.p50_ns,
            p90_ns: s.p90_ns,
            p99_ns: s.p99_ns,
            p999_ns: s.p999_ns,
            p9999_ns: s.p9999_ns,
            max_ns: s.max_ns,
            budget_burn: fixed(s.ledger.budget_burn(), 4),
        }
    }
}

impl Codec for SloPoint {
    fn to_json(&self) -> Json {
        let mut faulted = self.faulted.to_json();
        if let (Json::Obj(members), Json::Obj(account)) = (&mut faulted, self.account.to_json()) {
            members.extend(account);
        }
        Json::obj([
            ("backend", self.backend.to_json()),
            ("arrival", self.arrival.to_json()),
            ("rate_rps", self.rate_rps.to_json()),
            ("interval_ns", self.interval_ns.to_json()),
            ("clean", self.clean.to_json()),
            ("faulted", faulted),
        ])
    }

    fn from_json(v: &Json) -> Result<SloPoint, String> {
        let point = SloPoint {
            backend: v.read("backend")?,
            arrival: v.read("arrival")?,
            rate_rps: v.read("rate_rps")?,
            interval_ns: v.read("interval_ns")?,
            clean: v.read("clean")?,
            faulted: v.read("faulted")?,
            account: v.read("faulted")?,
        };
        if point.rate_rps <= 0.0 {
            return Err(format!(
                "point '{}' rate_rps must be positive",
                point.backend
            ));
        }
        Ok(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revive_machine::{parse_json, write_json, ARTIFACT_SCHEMA};

    fn frontier_point(backend: &str, recovered: u64, unrecoverable: u64) -> FrontierPoint {
        FrontierPoint {
            backend: backend.into(),
            mode: backend.into(),
            nodes: 4,
            group_data_pages: 3,
            budget: 1,
            storage_overhead: 0.25,
            clean: FrontierCost {
                sim_time_ns: 1000,
                checkpoints: 3,
                ckpt_mean_ns: 10,
                ckpt_max_ns: 20,
                rdx_net_bytes: 4096,
                rdx_net_msgs: 8,
                rdx_mem_accesses: 16,
            },
            faults: FrontierFaults {
                scenarios: recovered + unrecoverable + 1,
                recovered,
                unrecoverable,
                not_fired: 1,
                availability: 0.5,
                unavailable_mean_ns: 100,
            },
        }
    }

    fn read_frontier(text: &str) -> Result<FrontierDoc, String> {
        FrontierDoc::from_json(&parse_json(text)?)
    }

    #[test]
    fn frontier_reader_accepts_a_full_matrix_and_rejects_holes() {
        let doc = FrontierDoc {
            seeds_per_point: 4,
            points: vec![
                frontier_point("xor", 2, 1),
                frontier_point("double-parity", 3, 0),
                frontier_point("replication", 3, 0),
            ],
        };
        let full = write_json(&doc.to_json());
        assert_eq!(read_frontier(&full), Ok(doc.clone()));

        // A frontier that never exercised one of the backends is not a
        // frontier: the CI matrix must cover all three.
        let partial = FrontierDoc {
            points: vec![frontier_point("xor", 2, 1)],
            ..doc
        };
        let err = read_frontier(&write_json(&partial.to_json())).unwrap_err();
        assert!(err.contains("double-parity"), "got: {err}");

        // Outcome tallies must account for every scenario exactly.
        let skewed = full.replace("\"recovered\":2", "\"recovered\":4");
        let err = read_frontier(&skewed).unwrap_err();
        assert!(err.contains("sum to scenarios"), "got: {err}");

        // Availability is a probability.
        let bad_avail = full.replace("\"availability\":0.5", "\"availability\":1.5");
        assert!(read_frontier(&bad_avail).is_err());

        // Version drift and schema mix-ups fail loudly.
        assert!(read_frontier("{}").is_err());
        let wrong_schema = full.replace(FRONTIER_SCHEMA, ARTIFACT_SCHEMA);
        assert!(read_frontier(&wrong_schema).is_err());
        let drifted = full.replace("\"version\":8", "\"version\":7");
        assert!(read_frontier(&drifted).is_err());
    }

    fn profile(completed: u64, p99_ns: u64) -> ServingProfile {
        ServingProfile {
            sim_time_ns: 1_000_000,
            admitted: 50,
            completed,
            goodput_rps: 48_000.0,
            mean_ns: 900.5,
            p50_ns: 700,
            p90_ns: 1_500,
            p99_ns,
            p999_ns: 9_000,
            p9999_ns: 9_000,
            max_ns: 8_000,
            budget_burn: 0.5,
        }
    }

    fn slo_point(backend: &str, mtbf_ns: Option<u64>) -> SloPoint {
        SloPoint {
            backend: backend.into(),
            arrival: "open-poisson".into(),
            rate_rps: 50_000.0,
            interval_ns: 2_000_000,
            clean: profile(48, 4_000),
            faulted: profile(47, 8_000),
            account: FaultAccount {
                faults: 2,
                recovered: 2,
                unrecoverable: 0,
                availability: 0.9,
                downtime_ns: 120_000,
                mtbf_ns,
                mttr_ns: mtbf_ns.map(|m| m / 10),
            },
        }
    }

    fn read_slo(text: &str) -> Result<SloDoc, String> {
        SloDoc::from_json(&parse_json(text)?)
    }

    #[test]
    fn slo_reader_accepts_the_sweep_and_rejects_malformed_points() {
        let doc = SloDoc {
            slo: SloSpec::default_spec(),
            // Unfired-fault points carry null MTBF/MTTR.
            points: vec![
                slo_point("xor", Some(600_000)),
                slo_point("replication", None),
            ],
        };
        let text = write_json(&doc.to_json());
        assert!(text.contains("\"mtbf_ns\":null"));
        assert_eq!(read_slo(&text), Ok(doc));

        // Quantiles out of order mean the document was hand-edited.
        let skewed = text.replace("\"p99_ns\":4000", "\"p99_ns\":40000");
        let err = read_slo(&skewed).unwrap_err();
        assert!(err.contains("monotone"), "got: {err}");

        // Completions cannot exceed admissions.
        let overfull = text.replace("\"completed\":48", "\"completed\":51");
        assert!(read_slo(&overfull).is_err());

        // Availability is a probability.
        let bad = text.replace("\"availability\":0.9", "\"availability\":1.9");
        assert!(read_slo(&bad).is_err());

        // Schema mix-ups and version drift fail loudly.
        assert!(read_slo("{}").is_err());
        let wrong_schema = text.replace(SLO_SCHEMA, FRONTIER_SCHEMA);
        assert!(read_slo(&wrong_schema).is_err());
        let drifted = text.replace("\"version\":8", "\"version\":1");
        assert!(read_slo(&drifted).is_err());
    }

    #[test]
    fn fixed_matches_printed_precision() {
        assert_eq!(fixed(3838003.04, 1), 3838003.0);
        assert_eq!(fixed(0.00004, 4), 0.0);
        assert_eq!(fixed(577.36934, 4), 577.3693);
    }
}
