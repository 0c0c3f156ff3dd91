//! Layer probes: each drives one crate through its own public functions,
//! sized from what the traced run counted, and reports host time per
//! operation.

use std::hint::black_box;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use cluster::Topology;
use simcore::{EventQueue, SimDuration, SimRng, SimTime};
use simcpu::programs::ComputeLoop;
use simcpu::{CoreMask, Machine, MachineConfig};
use simdisk::{AccessPattern, DiskSim, IoKind, IoPriority, RateLimit, VolumeSpec};
use simnet::{Delivery, NetConfig, NetSim, TrafficClass};
use telemetry::{LatencyRecorder, Sketch, TelemetryMode, TenantClass};

/// `simcore`: cycles a steady population of pending timers, pop-earliest
/// then push-replacement, with delays mixing microsecond wakes,
/// millisecond slices and polls, and far-future work. Host ns per push or
/// pop.
pub fn queue_ns_per_op(population: usize, rounds: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(population);
    let mut rng = SimRng::seed_from_u64(0x0E0E);
    let delay = |rng: &mut SimRng| {
        let r = rng.next_f64();
        if r < 0.70 {
            SimDuration::from_nanos(rng.range_u64(500, 64_000))
        } else if r < 0.95 {
            SimDuration::from_micros(rng.range_u64(500, 2_000))
        } else {
            SimDuration::from_millis(rng.range_u64(100, 2_000))
        }
    };
    for i in 0..population as u64 {
        q.push(SimTime::ZERO + delay(&mut rng), i);
    }
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..rounds {
        let (now, token) = q.pop().expect("population is steady");
        acc = acc.wrapping_add(token);
        q.push(now + delay(&mut rng), i);
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / (2 * rounds) as f64
}

/// `simcpu`: a machine of the workload's shape, oversubscribed two threads
/// per core, each computing `chunk` per step. Host ns per scheduler event
/// (dispatch, context switch, IPI, spawn, exit).
pub fn machine_ns_per_event(cfg: MachineConfig, chunk: SimDuration, events: u64) -> f64 {
    let mut m = Machine::with_seed(cfg, 0x5C4E);
    let job = m.create_job(TenantClass::Secondary, CoreMask::all(cfg.cores));
    let progress = Arc::new(AtomicU64::new(0));
    for i in 0..2 * cfg.cores {
        let program = ComputeLoop::new(chunk, Arc::clone(&progress));
        m.spawn_thread(SimTime::ZERO, job, Box::new(program), u64::from(i));
    }
    let count = |m: &Machine| {
        let s = m.stats();
        s.dispatches + s.ctx_switches + s.ipis + s.spawns + s.exits
    };
    let step = SimDuration::from_millis(5);
    let mut now = SimTime::ZERO;
    let start = Instant::now();
    while count(&m) < events {
        now += step;
        m.advance_to(now);
    }
    start.elapsed().as_nanos() as f64 / count(&m) as f64
}

/// `simdisk`: the shared HDD with a disk bully keeping 8 random 64 KiB
/// reads in flight beside `backlog` capped 1 MiB HDFS-style writes waiting
/// on a 20 MB/s token bucket. Every dispatch scans the whole queue, so the
/// host ns per completed I/O rises with the backlog.
pub fn disk_ns_per_io(backlog: usize, ios: u64) -> f64 {
    let mut d = DiskSim::new(0xD15C);
    let hdd = d.add_volume(VolumeSpec::paper_hdd_volume());
    let bully = d.register_owner(IoPriority::LOW);
    let capped = d.register_owner(IoPriority::LOW);
    d.set_owner_limit(SimTime::ZERO, capped, Some(RateLimit::bandwidth(20 << 20)));
    let write = |d: &mut DiskSim, at: SimTime| {
        d.submit(
            at,
            hdd,
            capped,
            IoKind::Write,
            1 << 20,
            AccessPattern::Sequential,
            0,
        );
    };
    let read = |d: &mut DiskSim, at: SimTime| {
        d.submit(
            at,
            hdd,
            bully,
            IoKind::Read,
            64 << 10,
            AccessPattern::Random,
            1,
        );
    };
    let start = Instant::now();
    for _ in 0..backlog {
        write(&mut d, SimTime::ZERO);
    }
    for _ in 0..8 {
        read(&mut d, SimTime::ZERO);
    }
    let mut done = Vec::new();
    let mut completed = 0u64;
    while completed < ios {
        let Some(at) = d.next_timer_at() else { break };
        d.advance_to(at);
        d.drain_completions_into(&mut done);
        for c in done.drain(..) {
            completed += 1;
            // Resubmitting keeps both the bully depth and the backlog steady.
            if c.owner == bully {
                read(&mut d, c.at);
            } else {
                write(&mut d, c.at);
            }
        }
    }
    start.elapsed().as_nanos() as f64 / completed.max(1) as f64
}

/// `simnet`: the Fig 9 message pattern on the paper fabric. Each request
/// sends TLA to MLA (1 KiB), MLA to every other column (512 B), each
/// column back (2 KiB) and MLA to TLA (4 KiB), at the cluster's request
/// rate. Host ns per delivery.
pub fn net_ns_per_delivery(topo: Topology, qps: f64, window: SimDuration) -> f64 {
    let mut rng = SimRng::seed_from_u64(0x7E7);
    let mut sends = Vec::new();
    let mut t = 0.0;
    let mut req = 0u32;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / qps;
        let at = SimTime::ZERO + SimDuration::from_secs_f64(t);
        if at > SimTime::ZERO + window {
            break;
        }
        let tla = topo.tla_node(req % topo.tlas);
        let row = req % topo.rows;
        let mla_col = (req / topo.rows) % topo.columns;
        let mla = topo.index_node(row, mla_col);
        sends.push((at, tla, mla, 1u64 << 10));
        for col in (0..topo.columns).filter(|&c| c != mla_col) {
            let node = topo.index_node(row, col);
            sends.push((at + SimDuration::from_micros(100), mla, node, 512));
            sends.push((at + SimDuration::from_millis(4), node, mla, 2 << 10));
        }
        sends.push((at + SimDuration::from_millis(5), mla, tla, 4 << 10));
        req += 1;
    }
    sends.sort_by_key(|s| s.0);
    let mut net = NetSim::new(NetConfig::default(), topo.total_machines(), 0x7E7);
    let mut out: Vec<Delivery> = Vec::new();
    let mut delivered = 0u64;
    let start = Instant::now();
    for (i, &(at, from, to, bytes)) in sends.iter().enumerate() {
        net.advance_to(at);
        net.drain_deliveries_into(&mut out);
        delivered += out.len() as u64;
        out.clear();
        net.send(at, from, to, bytes, TrafficClass::High, i as u64);
    }
    while let Some(at) = net.next_timer_at() {
        net.advance_to(at);
    }
    net.drain_deliveries_into(&mut out);
    delivered += out.len() as u64;
    start.elapsed().as_nanos() as f64 / delivered.max(1) as f64
}

fn latency_samples(n: u64) -> Vec<SimDuration> {
    let mut rng = SimRng::seed_from_u64(0x1A7E);
    (0..n)
        .map(|_| SimDuration::from_micros(rng.range_u64(500, 20_000)))
        .collect()
}

/// `telemetry`: records `n` latencies and summarizes them. Host ns per
/// sample, the summary included.
pub fn record_ns(mode: TelemetryMode, n: u64) -> f64 {
    let samples = latency_samples(n.max(1));
    let mut rec: LatencyRecorder = mode.recorder();
    let start = Instant::now();
    for &d in &samples {
        rec.record(d);
    }
    black_box(rec.summary());
    start.elapsed().as_nanos() as f64 / samples.len() as f64
}

/// `telemetry`: tree-merges `parts` sketches of `per_part` samples each,
/// as the fleet reduction does. Host seconds.
pub fn merge_s(parts: u64, per_part: u64) -> f64 {
    let samples = latency_samples(per_part.max(1));
    let sketches: Vec<Sketch> = (0..parts)
        .map(|_| {
            let mut s = Sketch::new();
            for &d in &samples {
                s.record(d);
            }
            s
        })
        .collect();
    let start = Instant::now();
    black_box(Sketch::merge_tree(sketches).map(|s| s.summary()));
    start.elapsed().as_secs_f64()
}
