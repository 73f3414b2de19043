//! Output checks. Every unit's simulated fingerprint is compared with the
//! recorded table, when the table has its seed, and with every earlier
//! unit of the same seed. A mismatch, a panic or a `MachineError` is a
//! failed operation. The fingerprints double as the zero-simulated-drift
//! check: a change that moves one has changed the simulation.

use std::collections::BTreeMap;

use revive_machine::RunResult;

/// Fingerprints recorded from the current simulator, one
/// `workload seed fingerprint` line each (README.md says how to record
/// them again after an intended change of simulated behaviour).
pub const RECORDED: &str = include_str!("../fingerprints.txt");

/// Counts checked and failed operations.
pub struct Checker {
    recorded: BTreeMap<(String, u64), String>,
    observed: BTreeMap<(String, u64), String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// Reads a fingerprint table; blank lines and lines starting with `#`
    /// are skipped.
    pub fn new(table: &str) -> Result<Checker, String> {
        let mut recorded = BTreeMap::new();
        for (i, line) in table.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.splitn(3, ' ');
            let (Some(workload), Some(seed), Some(fingerprint)) =
                (fields.next(), fields.next(), fields.next())
            else {
                return Err(format!(
                    "line {}: expected `workload seed fingerprint`",
                    i + 1
                ));
            };
            let seed = seed
                .parse()
                .map_err(|e| format!("line {}: seed: {e}", i + 1))?;
            recorded.insert((workload.to_string(), seed), fingerprint.to_string());
        }
        Ok(Checker {
            recorded,
            observed: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        })
    }

    /// One checked operation: `fingerprint` must equal the recorded one and
    /// every earlier one for the same workload and seed, and `sound` (the
    /// run's own invariants) must hold.
    pub fn check(&mut self, workload: &str, seed: u64, fingerprint: &str, sound: bool) {
        let key = (workload.to_string(), seed);
        let mut problems = Vec::new();
        if !sound {
            problems.push("the outputs break the run's invariants".to_string());
        }
        if let Some(want) = self.recorded.get(&key) {
            if want != fingerprint {
                problems.push(format!("recorded {want}"));
            }
        }
        match self.observed.get(&key) {
            Some(earlier) if earlier != fingerprint => {
                problems.push(format!("an earlier unit gave {earlier}"))
            }
            Some(_) => {}
            None => {
                self.observed.insert(key, fingerprint.to_string());
            }
        }
        self.expect(
            problems.is_empty(),
            &format!(
                "{workload} seed {seed}: got {fingerprint}; {}",
                problems.join("; ")
            ),
        );
    }

    /// One checked operation that passes when `ok` holds.
    pub fn expect(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Whether something was checked and nothing failed.
    pub fn passed(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Failed over checked operations.
    pub fn error_rate(&self) -> f64 {
        crate::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The first fingerprint seen for each workload and seed.
    pub fn observed(&self) -> impl Iterator<Item = (&(String, u64), &String)> {
        self.observed.iter()
    }
}

/// The simulated fingerprint of one batch run: simulated time, events,
/// ops, checkpoints, and network bytes per traffic class.
pub fn run_fingerprint(r: &RunResult) -> String {
    let b = &r.metrics.traffic.net_bytes;
    format!(
        "sim_ns={} events={} cpu_ops={} checkpoints={} net_bytes={}/{}/{}/{}/{}",
        r.sim_time.0,
        r.events,
        r.metrics.traffic.cpu_ops,
        r.checkpoints,
        b[0],
        b[1],
        b[2],
        b[3],
        b[4]
    )
}
