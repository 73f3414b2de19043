//! Randomized protocol stress test.
//!
//! Drives N cache controllers and their home directories with random CPU
//! accesses, delivering messages with per-(src,dst) FIFO order but random
//! interleaving across pairs (the ordering guarantee the torus fabric
//! provides). At quiescence it checks the single-writer/multi-reader
//! invariants:
//!
//! * at most one cache holds a line Exclusive/Modified, and then no cache
//!   holds it Shared;
//! * the directory's owner/sharer records match the caches exactly;
//! * Shared copies and memory agree byte-for-byte;
//! * the system always quiesces (no lost messages, no deadlock).

use std::collections::VecDeque;

use revive_coherence::cache_ctrl::{Access, CacheCtrl, CpuOutcome, OpToken};
use revive_coherence::directory::{DirCtrl, DirIn, DirState};
use revive_coherence::hook::NullHook;
use revive_coherence::msg::{CacheToDir, DirToCache};
use revive_coherence::port::VecPort;
use revive_mem::addr::LineAddr;
use revive_mem::cache::{CacheConfig, LineState};
use revive_sim::rng::DetRng;
use revive_sim::types::NodeId;

const NODES: usize = 4;
const LINES_PER_NODE: u64 = 64;

enum Wire {
    ToDir(CacheToDir),
    ToCache(DirToCache),
}

struct World {
    caches: Vec<CacheCtrl>,
    dirs: Vec<DirCtrl>,
    mems: Vec<VecPort>,
    /// Per-(src,dst) FIFO channels.
    channels: Vec<Vec<VecDeque<Wire>>>,
    rng: DetRng,
    next_token: u64,
}

impl World {
    fn new(seed: u64) -> World {
        World {
            caches: (0..NODES)
                .map(|n| {
                    CacheCtrl::new(
                        NodeId::from(n),
                        CacheConfig {
                            size_bytes: 8 * 64,
                            ways: 2,
                        },
                        CacheConfig {
                            size_bytes: 32 * 64,
                            ways: 4,
                        },
                        4,
                    )
                })
                .collect(),
            dirs: (0..NODES).map(|_| DirCtrl::new()).collect(),
            mems: (0..NODES)
                .map(|n| VecPort::new(LineAddr(n as u64 * LINES_PER_NODE), LINES_PER_NODE as usize))
                .collect(),
            channels: (0..NODES)
                .map(|_| (0..NODES).map(|_| VecDeque::new()).collect())
                .collect(),
            rng: DetRng::seed(seed),
            next_token: 0,
        }
    }

    fn home_of(line: LineAddr) -> usize {
        (line.0 / LINES_PER_NODE) as usize
    }

    fn push(&mut self, src: usize, dst: usize, wire: Wire) {
        self.channels[src][dst].push_back(wire);
    }

    fn cpu_op(&mut self, cpu: usize, line: LineAddr, write: bool) {
        let token = OpToken(self.next_token);
        self.next_token += 1;
        let access = if write { Access::Write } else { Access::Read };
        let (outcome, sends) = self.caches[cpu].cpu_access(line, access, token);
        if outcome == CpuOutcome::MshrFull {
            return; // drop the op; the stress test doesn't retry
        }
        for s in sends {
            let dst = Self::home_of(s.line());
            self.push(cpu, dst, Wire::ToDir(s));
        }
    }

    /// Delivers one message from a random nonempty channel. Returns false
    /// when everything is quiescent.
    fn step(&mut self) -> bool {
        let nonempty: Vec<(usize, usize)> = (0..NODES)
            .flat_map(|s| (0..NODES).map(move |d| (s, d)))
            .filter(|&(s, d)| !self.channels[s][d].is_empty())
            .collect();
        let Some(&(src, dst)) = nonempty.get(
            self.rng
                .index(nonempty.len().max(1))
                .min(nonempty.len().saturating_sub(1)),
        ) else {
            return false;
        };
        if nonempty.is_empty() {
            return false;
        }
        let wire = self.channels[src][dst].pop_front().expect("nonempty");
        match wire {
            Wire::ToDir(m) => {
                let din = match m {
                    CacheToDir::Req { line, req } => DirIn::Req {
                        from: NodeId::from(src),
                        line,
                        req,
                    },
                    CacheToDir::WriteBack { line, data, keep } => DirIn::WriteBack {
                        from: NodeId::from(src),
                        line,
                        data,
                        keep,
                    },
                    CacheToDir::FetchResp { line, data, dirty } => DirIn::FetchResp {
                        from: NodeId::from(src),
                        line,
                        data,
                        dirty,
                    },
                    CacheToDir::InvalAck { line } => DirIn::InvalAck {
                        from: NodeId::from(src),
                        line,
                    },
                };
                let mut hook = NullHook;
                let outs = self.dirs[dst].handle(din, &mut self.mems[dst], &mut hook);
                for out in outs {
                    self.push(dst, out.to.index(), Wire::ToCache(out.msg));
                }
            }
            Wire::ToCache(m) => {
                let reaction = self.caches[dst].handle_dir_msg(m);
                for s in reaction.sends {
                    let home = Self::home_of(s.line());
                    self.push(dst, home, Wire::ToDir(s));
                }
            }
        }
        true
    }

    fn quiesce(&mut self) {
        let mut steps = 0u64;
        while self.step() {
            steps += 1;
            assert!(steps < 2_000_000, "protocol did not quiesce");
        }
    }

    fn check_invariants(&self) {
        for line_no in 0..(NODES as u64 * LINES_PER_NODE) {
            let line = LineAddr(line_no);
            let home = Self::home_of(line);
            // A busy entry at quiescence means a transaction lost a message.
            assert!(
                !self.dirs[home].is_busy(line),
                "line {line} stuck busy at quiescence"
            );
            let holders: Vec<(usize, LineState)> = (0..NODES)
                .map(|n| (n, self.caches[n].l2_state(line)))
                .filter(|(_, s)| s.is_valid())
                .collect();
            let owners = holders.iter().filter(|(_, s)| s.is_exclusive()).count();
            assert!(owners <= 1, "line {line}: multiple owners: {holders:?}");
            if owners == 1 {
                assert_eq!(holders.len(), 1, "line {line}: owner plus sharers");
            }
            match self.dirs[home].state_of(line) {
                DirState::Uncached => {
                    assert!(
                        holders.is_empty(),
                        "line {line}: dir says Uncached, caches hold {holders:?}"
                    );
                }
                DirState::Exclusive(owner) => {
                    assert_eq!(holders.len(), 1, "line {line}: dir owner mismatch");
                    assert_eq!(holders[0].0, owner.index());
                    assert!(holders[0].1.is_exclusive());
                }
                DirState::Shared(set) => {
                    // Every holder must be recorded; the directory may also
                    // record stale sharers (silent S evictions), which is
                    // legal.
                    for (n, s) in &holders {
                        assert_eq!(*s, LineState::Shared, "line {line}");
                        assert!(
                            set.contains(NodeId::from(*n)),
                            "line {line}: sharer {n} unrecorded"
                        );
                    }
                    // Shared copies match memory.
                    let mem_data = self.mems[home].peek(line);
                    for (n, _) in &holders {
                        assert_eq!(
                            self.caches[*n].cached_data(line),
                            Some(mem_data),
                            "line {line}: shared copy diverged from memory"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn random_traffic_preserves_swmr() {
    let mut root = DetRng::seed(0x5072e55);
    for case in 0..48u64 {
        let seed = root.next_u64();
        let mut gen = root.fork(case);
        let mut w = World::new(seed);
        let n_ops = gen.range(1, 300);
        for _ in 0..n_ops {
            let cpu = gen.index(NODES);
            let line = gen.range(0, NODES as u64 * LINES_PER_NODE);
            let write = gen.chance(0.5);
            let pump = gen.range(0, 4);
            w.cpu_op(cpu, LineAddr(line), write);
            // Interleave a few deliveries between ops so transactions
            // overlap and race.
            for _ in 0..pump {
                if !w.step() {
                    break;
                }
            }
        }
        w.quiesce();
        w.check_invariants();
    }
}

#[test]
fn quiesced_flush_cleans_all_caches() {
    let mut root = DetRng::seed(0xf1054);
    for _ in 0..48u64 {
        let mut w = World::new(root.next_u64());
        // Dirty a bunch of lines.
        for i in 0..80u64 {
            let cpu = (i % NODES as u64) as usize;
            w.cpu_op(cpu, LineAddr(i * 3 % (NODES as u64 * LINES_PER_NODE)), true);
        }
        w.quiesce();
        // Flush every dirty line (checkpoint-style) and re-quiesce.
        for n in 0..NODES {
            for line in w.caches[n].dirty_lines() {
                if let Some(wb) = w.caches[n].flush_line(line) {
                    let home = World::home_of(line);
                    w.push(n, home, Wire::ToDir(wb));
                }
            }
        }
        w.quiesce();
        for n in 0..NODES {
            assert_eq!(w.caches[n].dirty_count(), 0, "cache {n} still dirty");
            // Every cached line's memory matches the cache's copy.
            for line in (0..NODES as u64 * LINES_PER_NODE).map(LineAddr) {
                if let Some(data) = w.caches[n].cached_data(line) {
                    assert_eq!(w.mems[World::home_of(line)].peek(line), data);
                }
            }
        }
        w.check_invariants();
    }
}
