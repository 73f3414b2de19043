//! Store-loss oracle: a clean run's final memory must equal a pure
//! functional replay of the op streams.
//!
//! Every store writes a unique token into a deterministic quadword, so the
//! expected final value of every written quadword can be computed offline
//! by walking the workload streams. Any divergence means the machine lost
//! or misordered a store. This is the oracle that caught the
//! checkpoint-flush/eviction write-back reorder race: a line flushed during
//! the checkpoint interrupt window could have its dirty data silently
//! dropped at the home when a clean eviction notice overtook the flush
//! write-back on the same cache→home path.

use revive::machine::{ExperimentConfig, System, WorkloadSpec};
use revive::workloads::{AppId, SyntheticKind};
use std::collections::HashMap;

fn check_oracle(kind: SyntheticKind) {
    let mut cfg = ExperimentConfig::test_small(AppId::Lu);
    cfg.workload = WorkloadSpec::Synthetic(kind);
    cfg.ops_per_cpu = 30_000;
    let cpus = cfg.machine.nodes;
    let mut sys = System::new(cfg).unwrap();
    sys.run();
    let image = sys.memory_image();

    // Offline replay: last write token per (vpage, line, quadword). Tokens
    // mirror System::make_token / CacheCtrl::apply_write.
    let mut w = WorkloadSpec::Synthetic(kind).build(cpus, cfg.machine.scale(), cfg.seed);
    let mut expect: HashMap<(u64, usize, usize), u64> = HashMap::new();
    for c in 0..cpus {
        for p in 0..cfg.ops_per_cpu {
            let op = w.next(c);
            if op.write {
                let vpage = op.vaddr / 4096;
                let line = (op.vaddr % 4096) as usize / 64;
                let q = (p % 8) as usize;
                let token = (p & 0x0000_7FFF_FFFF_FFFF) | ((c as u64) << 47) | (1 << 63);
                expect.insert((vpage, line, q), token ^ 0xC0FF_EE00_0000_0000);
            }
        }
    }
    assert!(!expect.is_empty(), "workload issued no stores");
    let mut lost = Vec::new();
    for (&(vpage, line, q), &want) in &expect {
        let page = image.page(vpage).expect("written page mapped");
        let off = line * 64 + q * 8;
        let got = u64::from_le_bytes(page[off..off + 8].try_into().unwrap());
        if got != want {
            lost.push((vpage, line, q, want, got));
        }
    }
    assert!(
        lost.is_empty(),
        "{kind}: {} stores lost (first: vpage {:#x} line {} q {}: want {:#x} got {:#x})",
        lost.len(),
        lost[0].0,
        lost[0].1,
        lost[0].2,
        lost[0].3,
        lost[0].4,
    );
}

#[test]
fn clean_run_matches_functional_replay_streaming() {
    check_oracle(SyntheticKind::WsExceedsL2);
}

#[test]
fn clean_run_matches_functional_replay_dirty() {
    check_oracle(SyntheticKind::WsFitsDirty);
}
