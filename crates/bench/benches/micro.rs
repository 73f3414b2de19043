//! Micro-benchmarks of the hot paths: the ReVive log and parity engines,
//! the directory controller, and the simulator primitives they sit on.
//! These are *implementation* benchmarks (ns per operation of the simulator
//! itself), complementing the `src/bin/*` experiment binaries that
//! regenerate the paper's tables and figures.
//!
//! Self-timed (no external harness crate — the workspace builds offline):
//! each benchmark is warmed up, then timed in batches whose call count
//! doubles until one batch takes at least 50 ms, and that batch's
//! per-operation wall time is reported. Run with
//! `cargo bench -p revive-bench`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use revive_coherence::cache_ctrl::{Access, CacheCtrl, OpToken};
use revive_coherence::directory::{DirCtrl, DirIn};
use revive_coherence::hook::{NullHook, WriteHook};
use revive_coherence::msg::CacheReq;
use revive_coherence::port::VecPort;
use revive_core::dirext::ReviveHook;
use revive_core::lbits::LBits;
use revive_core::log::MemLog;
use revive_core::parity::ParityMap;
use revive_core::Redundancy;
use revive_mem::addr::{AddressMap, LineAddr, LINES_PER_PAGE, PAGE_SIZE};
use revive_mem::cache::{Cache, CacheConfig, LineState};
use revive_mem::line::LineData;
use revive_net::{Fabric, FabricConfig, Torus};
use revive_sim::engine::EventQueue;
use revive_sim::time::Ns;
use revive_sim::types::NodeId;

/// Times `op` (which runs `batch` logical operations per call) and prints
/// ns per logical operation. The call count doubles until one timed batch
/// takes at least 50 ms, and that batch is reported — sizing from a single
/// probe call undershoots whenever that call happens to be slow.
fn bench(name: &str, batch: u64, mut op: impl FnMut()) {
    const WARMUP: u64 = 3;
    const TARGET: Duration = Duration::from_millis(50);
    for _ in 0..WARMUP {
        op();
    }
    let mut calls: u64 = 1;
    let total = loop {
        let start = Instant::now();
        for _ in 0..calls {
            op();
        }
        let elapsed = start.elapsed();
        if elapsed >= TARGET {
            break elapsed;
        }
        calls *= 2;
    };
    let per_op = total.as_nanos() as f64 / (calls * batch) as f64;
    println!("{name:<34} {per_op:>12.1} ns/op   ({calls} calls x {batch})");
}

fn bench_line_xor() {
    let a = LineData::from_seed(1);
    let b = LineData::from_seed(2);
    bench("parity/line_xor", 1, || {
        black_box(black_box(a) ^ black_box(b));
    });
}

fn bench_parity_map() {
    let map = AddressMap::new(16, 8 * 1024 * 1024);
    let parity = ParityMap::new(map, 7);
    let lines: Vec<LineAddr> = (0..1024)
        .map(|i| LineAddr(i * 37 % map.lines_per_node()))
        .filter(|l| !parity.is_parity_page(l.page()))
        .collect();
    let mut i = 0;
    bench("parity/line_lookup", 1, || {
        i = (i + 1) % lines.len();
        black_box(parity.parity_line_of(black_box(lines[i])));
    });
}

fn bench_log_append() {
    bench("log/append", 1024, || {
        let slots: Vec<LineAddr> = (0..4096).map(LineAddr).collect();
        let mut log = MemLog::new(NodeId(0), slots);
        let mut port = VecPort::new(LineAddr(0), 4096);
        for i in 0..1024u64 {
            black_box(log.append(
                0,
                LineAddr(10_000 + i),
                LineData::from_seed(i),
                true,
                &mut port,
            ));
        }
    });
}

fn bench_log_scan() {
    let slots: Vec<LineAddr> = (0..4096).map(LineAddr).collect();
    let mut log = MemLog::new(NodeId(0), slots);
    let mut port = VecPort::new(LineAddr(0), 4096);
    for i in 0..2000u64 {
        log.append(
            i / 500,
            LineAddr(10_000 + i),
            LineData::from_seed(i),
            true,
            &mut port,
        );
    }
    bench("log/scan_2000_records", 1, || {
        black_box(log.scan(|l| port.peek(l)));
    });
}

fn bench_directory_read() {
    bench("directory/read_uncached", 512, || {
        let mut dir = DirCtrl::new();
        let mut port = VecPort::new(LineAddr(0), 4096);
        let mut hook = NullHook;
        for i in 0..512u64 {
            black_box(dir.handle(
                DirIn::Req {
                    from: NodeId((i % 16) as u16),
                    line: LineAddr(i * 7 % 4096),
                    req: CacheReq::Read,
                },
                &mut port,
                &mut hook,
            ));
        }
    });
}

fn bench_hook_write_intent() {
    let map = AddressMap::new(4, 4 * PAGE_SIZE as u64);
    let parity = ParityMap::new(map, 3);
    let log_page = map.global_page(NodeId(0), 3);
    bench("revive/write_intent_unlogged", 24, || {
        let log = MemLog::new(NodeId(0), log_page.lines().collect());
        let mut hook = ReviveHook::new(
            Redundancy::Xor(parity),
            log,
            LBits::full(map.lines_per_node()),
        );
        let mut port = VecPort::new(LineAddr(0), 4 * LINES_PER_PAGE);
        for i in 0..24u64 {
            let line = LineAddr(LINES_PER_PAGE as u64 + i);
            black_box(hook.write_intent(line, None, &mut port));
        }
        black_box(hook.drain_outbox());
    });
}

fn bench_cache_hit() {
    let mut cache = Cache::new(CacheConfig::l2_paper());
    for i in 0..1024u64 {
        cache.fill(LineAddr(i), LineState::Shared, LineData::ZERO);
    }
    let mut i = 0u64;
    bench("cache/l2_hit", 1, || {
        i = (i + 17) % 1024;
        black_box(cache.access(LineAddr(i)));
    });
}

fn bench_cache_ctrl_miss_path() {
    bench("cache_ctrl/miss_issue", 8, || {
        let mut ctrl = CacheCtrl::new(
            NodeId(0),
            CacheConfig {
                size_bytes: 16 * 1024,
                ways: 4,
            },
            CacheConfig {
                size_bytes: 128 * 1024,
                ways: 4,
            },
            8,
        );
        for i in 0..8u64 {
            black_box(ctrl.cpu_access(LineAddr(i * 64), Access::Read, OpToken(i)));
        }
    });
}

fn bench_torus_route() {
    let t = Torus::new(4, 4);
    let mut i = 0u16;
    bench("net/route", 1, || {
        i = (i + 1) % 256;
        black_box(t.route(NodeId(i % 16), NodeId((i * 7 + 3) % 16)));
    });
}

fn bench_fabric_send() {
    bench("net/fabric_send", 64, || {
        let mut f = Fabric::new(Torus::new(4, 4), FabricConfig::default());
        for i in 0..64u64 {
            black_box(f.send(
                Ns(i * 10),
                NodeId((i % 16) as u16),
                NodeId(((i * 5 + 2) % 16) as u16),
                72,
            ));
        }
    });
}

/// A payload the size of the machine's event type (`Ev`, 112 bytes), so
/// the queue cases move what the real event loop moves.
type EvSized = [u64; 14];

/// Schedules 256 events over a ~1 µs span, then drains them. The queue
/// lives across calls, as the machine's one queue lives across a run, so
/// steady-state bucket storage is recycled rather than re-allocated.
fn bench_event_queue() {
    let mut q = EventQueue::<EvSized>::new();
    bench("sim/event_queue_push_pop", 256, || {
        let base = q.now().0;
        for i in 0..256u64 {
            q.schedule(Ns(base + i * 13 % 997), [i; 14]);
        }
        while let Some(ev) = q.pop() {
            black_box(ev);
        }
    });
}

/// The same loop on a plain `BinaryHeap` ordered by `(time, seq)` — the
/// reference the calendar queue has to beat to earn its code.
fn bench_binary_heap() {
    let mut h = BinaryHeap::<Reverse<(u64, u64, EvSized)>>::new();
    let mut now = 0u64;
    let mut seq = 0u64;
    bench("sim/binary_heap_push_pop", 256, || {
        for i in 0..256u64 {
            h.push(Reverse((now + i * 13 % 997, seq, [i; 14])));
            seq += 1;
        }
        while let Some(Reverse(ev)) = h.pop() {
            now = ev.0;
            black_box(ev);
        }
    });
}

fn main() {
    bench_line_xor();
    bench_parity_map();
    bench_log_append();
    bench_log_scan();
    bench_directory_read();
    bench_hook_write_intent();
    bench_cache_hit();
    bench_cache_ctrl_miss_path();
    bench_torus_route();
    bench_fabric_send();
    bench_event_queue();
    bench_binary_heap();
}
