//! Host context and process measurements. On a shared host the same run
//! can take twice as long an hour later, so every result set records the
//! core count, the load average before and after, the CPU model, and the
//! source it measured.

use std::path::Path;

/// The host as a result set found it.
pub struct Context {
    nproc: usize,
    load_before: String,
    cpu_model: String,
    source: String,
}

impl Context {
    pub fn capture() -> Context {
        Context {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            load_before: loadavg(),
            cpu_model: cpu_model(),
            source: source_id(),
        }
    }

    /// Prints the context, with the load average now, as `host` lines.
    pub fn report(&self, workload: &str, seed: u64) {
        println!("host nproc {}", self.nproc);
        println!("host cpu {}", self.cpu_model);
        println!("host load before {} after {}", self.load_before, loadavg());
        println!("host source {}", self.source);
        println!("run workload {workload} seed {seed}");
    }
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, model)| model.trim().to_string())
}

/// The commit checked out, when the benchmark runs in a git work tree,
/// and a content hash of `crates/`, which names the measured source in a
/// plain checkout too.
fn source_id() -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    hash_tree(Path::new("crates"), &mut hash);
    let commit = commit().unwrap_or_else(|| "unknown".into());
    format!("commit {commit} tree {hash:016x}")
}

/// Reads `HEAD` from `.git`, following one symbolic reference (loose or
/// packed).
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, r) = l.split_once(' ')?;
        (r == name).then(|| id.to_string())
    })
}

/// FNV-1a.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Folds every file under `dir`, path and contents in sorted order, into
/// `hash`.
fn hash_tree(dir: &Path, hash: &mut u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            hash_tree(&path, hash);
        } else if let Ok(bytes) = std::fs::read(&path) {
            fnv(hash, path.to_string_lossy().as_bytes());
            fnv(hash, &bytes);
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
