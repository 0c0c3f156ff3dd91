//! Host-time benchmark for the PerfIso simulator.
//!
//! ```text
//! hostbench --workload <box-io|cluster-fig9|fleet-day> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats whole rounds (set-up, run, checks) for `--seconds`
//! and prints the end-to-end host metrics; `--trace 1` runs the workload
//! once untraced and once with spans around every call into the
//! simulator's public functions, then drives each layer's probe, and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object; any failed check exits with code 1 before it is printed. See
//! README.md for what each metric means and which workload should move it.

mod alloc;
mod probes;
mod trace;
mod workload;

use std::time::Instant;

use indexserve::BoxReport;
use simcore::SimDuration;
use simcpu::{ArenaStats, MachineConfig};
use telemetry::TelemetryMode;

use trace::Tracer;
use workload::{Ops, Report, Workload, THREADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: hostbench --workload <box-io|cluster-fig9|fleet-day> --seed <n> --seconds <s> --trace <0|1>";

/// Rounds a timed run makes even when they overrun `--seconds`, so every
/// median has at least three samples.
const MIN_ROUNDS: usize = 3;
/// Growth of the capped HDFS backlog on the HDD queue, in requests per
/// simulated second on `box-io`: the HDFS streams offer 140 MiB/s in 1 MiB
/// chunks against 80 MB/s of caps. The queue depth itself is not visible
/// through `BoxSim`'s public API. Sizes the deep `simdisk` probe.
const HDFS_BACKLOG_PER_S: f64 = 58.0;
/// The bully's HDD queue depth: the shallow `simdisk` probe.
const SHALLOW_DISK_DEPTH: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value} outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value} is not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self, ops: Ops) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            ops.attempted,
            ops.failed,
            body.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// End-to-end metrics: whole rounds until `--seconds` have passed.
fn timed(a: &Args) -> Result<(Metrics, Ops), String> {
    let w = a.workload;
    let machine_s = workload::machine_seconds(w, a.seed)?;
    let mut off = Tracer::new(false);
    let (mut setup_s, mut run_s, mut peaks, mut allocs) = (vec![], vec![], vec![], vec![]);
    let mut ops = Ops::default();
    let mut digest = None;
    let mut last = None;
    let start = Instant::now();
    while run_s.len() < MIN_ROUNDS || secs(start) < a.seconds {
        for _ in 1..w.setup_reps() {
            let t = Instant::now();
            let ready = workload::setup(w, a.seed, THREADS, &mut off)?;
            setup_s.push(secs(t));
            drop(ready);
        }
        let allocs_before = alloc::allocations();
        alloc::reset_peak();
        let t = Instant::now();
        let ready = workload::setup(w, a.seed, THREADS, &mut off)?;
        setup_s.push(secs(t));
        let t = Instant::now();
        let report = workload::run(ready, &mut off);
        run_s.push(secs(t));
        allocs.push((alloc::allocations() - allocs_before) as f64);
        peaks.push(alloc::peak_bytes() as f64);

        let round = workload::check(w, a.seed, &report)?;
        ops.attempted += round.attempted;
        ops.failed += round.failed;
        let d = report.digest();
        if *digest.get_or_insert(d) != d {
            return Err(format!(
                "{}: round {} changed the report digest",
                w.name(),
                run_s.len()
            ));
        }
        println!(
            "round {}: setup {:.6} s, run {:.4} s, {:.0} allocations, peak heap {:.2} MiB",
            run_s.len(),
            setup_s.last().expect("pushed"),
            run_s.last().expect("pushed"),
            allocs.last().expect("pushed"),
            peaks.last().expect("pushed") / (1u64 << 20) as f64
        );
        last = Some(report);
    }
    workload::check_isolation(w, a.seed, last.as_ref().expect("at least one round"))?;
    println!(
        "digest {} seed {}: {:016x} ({} rounds, {machine_s} machine-s each)",
        w.name(),
        a.seed,
        digest.expect("at least one round"),
        run_s.len()
    );
    let mut m = Metrics::default();
    m.push("setup_s", median(&setup_s), "s");
    m.push("machine_s_per_s", machine_s / median(&run_s), "machine-s/s");
    m.push("peak_heap_mib", median(&peaks) / (1u64 << 20) as f64, "MiB");
    m.push(
        "allocs_per_machine_s",
        median(&allocs) / machine_s,
        "1/machine-s",
    );
    Ok((m, ops))
}

/// A box whose counters stand for the workload's boxes: the `box-io` box
/// itself, or a replica of one cluster index box or one fleet slice.
struct CountedBox<'a> {
    report: &'a BoxReport,
    arena: ArenaStats,
    /// Top-level span the box's loop calls were traced under.
    root: &'static str,
    /// Top-level span `BoxSim::new` was traced under.
    new_root: &'static str,
    machine: MachineConfig,
    /// Simulated seconds of the box, warm-up included.
    sim_s: f64,
}

fn box_layers(m: &mut Metrics, tr: &Tracer, b: &CountedBox) {
    let (inject, drain, advance) = (
        tr.total_s(b.root, "indexserve.inject"),
        tr.total_s(b.root, "indexserve.drain"),
        tr.total_s(b.root, "indexserve.advance"),
    );
    let queries = tr.count(b.root, "indexserve.inject").max(1) as f64;
    m.push(
        "indexserve.new_s",
        tr.total_s(b.new_root, "indexserve.new"),
        "s",
    );
    m.push("indexserve.inject_s", inject, "s");
    m.push("indexserve.drain_s", drain, "s");
    m.push("indexserve.advance_s", advance, "s");
    m.push(
        "indexserve.us_per_query",
        (inject + drain + advance) / queries * 1e6,
        "us",
    );
    let s = &b.report.machine;
    let rate = |n: u64| n as f64 / b.sim_s;
    m.push("simcpu.dispatches", rate(s.dispatches), "1/machine-s");
    m.push("simcpu.ctx_switches", rate(s.ctx_switches), "1/machine-s");
    m.push("simcpu.ipis", rate(s.ipis), "1/machine-s");
    m.push("simcpu.spawns", rate(s.spawns), "1/machine-s");
    let a = &b.arena;
    m.push(
        "simcpu.arena_reuse",
        a.ranges_reused as f64 / a.ranges_allocated.max(1) as f64,
        "ratio",
    );
    let c = b.report.controller.unwrap_or_default();
    m.push("perfiso.cpu_polls", rate(c.cpu_polls), "1/machine-s");
    m.push(
        "perfiso.affinity_updates",
        rate(c.affinity_updates),
        "1/machine-s",
    );
    m.push("perfiso.io_rounds", rate(c.io_rounds), "1/machine-s");
    m.push(
        "perfiso.io_adjustments",
        rate(c.io_adjustments),
        "1/machine-s",
    );
}

/// `simcore` and `simcpu` probes, sized from the counted box: the timer
/// population is the scheduler events per simulated millisecond, and the
/// compute chunk is the busy CPU time per dispatch.
fn core_probes(m: &mut Metrics, tr: &mut Tracer, b: &CountedBox) {
    let s = &b.report.machine;
    let events = (s.dispatches + s.ctx_switches + s.ipis + s.spawns + s.exits) as f64 / b.sim_s;
    let population = ((events / 1_000.0).round() as usize).clamp(64, 65_536);
    let ns = tr.time("simcore.probe", || {
        probes::queue_ns_per_op(population, 1_000_000)
    });
    m.push("simcore.probe_ns_per_op", ns, "ns");
    let bd = &b.report.breakdown;
    let busy_per_s =
        bd.busy().as_secs_f64() / bd.total().as_secs_f64() * f64::from(b.machine.cores);
    let chunk_s = busy_per_s / (s.dispatches.max(1) as f64 / b.sim_s);
    let chunk = SimDuration::from_secs_f64(chunk_s.clamp(1e-6, b.machine.quantum.as_secs_f64()));
    let ns = tr.time("simcpu.probe", || {
        probes::machine_ns_per_event(b.machine, chunk, 300_000)
    });
    m.push("simcpu.probe_ns_per_event", ns, "ns");
}

fn disk_probes(m: &mut Metrics, tr: &mut Tracer, deep: usize) {
    let ns = tr.time("simdisk.probe", || {
        probes::disk_ns_per_io(SHALLOW_DISK_DEPTH, 3_000)
    });
    m.push("simdisk.probe_ns_per_io.shallow", ns, "ns");
    let ns = tr.time("simdisk.probe", || probes::disk_ns_per_io(deep, 3_000));
    m.push("simdisk.probe_ns_per_io.deep", ns, "ns");
}

fn telemetry_probes(m: &mut Metrics, tr: &mut Tracer, samples: u64, merge: Option<(u64, u64)>) {
    let ns = tr.time("telemetry.probe", || {
        probes::record_ns(TelemetryMode::Exact, samples)
    });
    m.push("telemetry.record_ns.exact", ns, "ns");
    let ns = tr.time("telemetry.probe", || {
        probes::record_ns(TelemetryMode::Sketch, samples)
    });
    m.push("telemetry.record_ns.sketch", ns, "ns");
    let s = merge.map_or(0.0, |(parts, per)| {
        tr.time("telemetry.probe", || probes::merge_s(parts, per))
    });
    m.push("telemetry.merge_s", s, "s");
}

fn same_json(what: &str, a: String, b: String) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: the reports differ"))
    }
}

/// Per-layer metrics: one untraced and one traced run, the workload's
/// cross-checks, and the layer probes.
fn traced(a: &Args) -> Result<(Metrics, Ops), String> {
    let (w, seed) = (a.workload, a.seed);
    let mut off = Tracer::new(false);
    let t = Instant::now();
    let ready = workload::setup(w, seed, THREADS, &mut off)?;
    let untraced = workload::run(ready, &mut off);
    let untraced_s = secs(t);

    let mut tr = Tracer::new(true);
    let t = Instant::now();
    let open = tr.begin("setup");
    let ready = workload::setup(w, seed, THREADS, &mut tr)?;
    tr.end(open);
    let open = tr.begin("run");
    let report = workload::run(ready, &mut tr);
    tr.end(open);
    let traced_s = secs(t);
    let ops = workload::check(w, seed, &report)?;
    // On `box-io` the untraced run is `run_standalone`, so this also checks
    // that the traced loop reproduces it.
    same_json("traced and untraced runs", untraced.json(), report.json())?;
    drop(untraced);

    let spec = workload::spec_for(w, seed)?;
    let err = |e: scenarios::spec::SpecError| e.to_string();
    let mut m = Metrics::default();
    m.push(
        "scenarios.build_s",
        tr.total_s("setup", "scenarios.build"),
        "s",
    );
    let (mut cluster_new, mut cluster_run, mut cluster_1t) = (0.0, 0.0, 0.0);
    let (mut tla_us, mut fleet_ms, mut fleet_1t, mut fleet_2t) = (0.0, 0.0, 0.0, 0.0);
    let mut net_ns = 0.0;
    match &report {
        Report::Box(run) => {
            m.push(
                "qtrace.generate_s",
                tr.total_s("run", "qtrace.generate"),
                "s",
            );
            let plan = spec.run_plan().map_err(err)?;
            let counted = CountedBox {
                report: &run.report,
                arena: run.arena.ok_or("box-io: the traced loop read no arena")?,
                root: "run",
                new_root: "run",
                machine: spec.box_config(seed).map_err(err)?.machine,
                sim_s: (plan.warmup + plan.measure).as_secs_f64(),
            };
            box_layers(&mut m, &tr, &counted);
            core_probes(&mut m, &mut tr, &counted);
            disk_probes(
                &mut m,
                &mut tr,
                (HDFS_BACKLOG_PER_S * counted.sim_s) as usize,
            );
            telemetry_probes(&mut m, &mut tr, run.report.latency.count, None);
        }
        Report::Cluster(r) => {
            let cfg = spec.cluster_config(seed, 1).map_err(err)?;
            let total = cfg.warmup + cfg.measure;
            let n = (cfg.qps_total * total.as_secs_f64() * 1.02) as usize + 8;
            let generator = qtrace::TraceGenerator::new(qtrace::TraceConfig {
                queries: n,
                ..Default::default()
            });
            let open = tr.begin("probe");
            tr.time("qtrace.generate", || generator.generate(seed ^ 0x7ACE));
            tr.end(open);
            m.push(
                "qtrace.generate_s",
                tr.total_s("probe", "qtrace.generate"),
                "s",
            );

            let open = tr.begin("cluster.1t");
            let serial =
                workload::setup(w, seed, 1, &mut tr).map(|ready| workload::run(ready, &mut tr));
            tr.end(open);
            same_json(
                "cluster-fig9 at 1 and 2 threads",
                report.json(),
                serial?.json(),
            )?;
            cluster_new = tr.total_s("setup", "cluster.new");
            cluster_run = tr.total_s("run", "cluster.run");
            cluster_1t = tr.total_s("cluster.1t", "cluster.run");
            tla_us = cluster_run / r.completed.max(1) as f64 * 1e6;

            let open = tr.begin("replica");
            let replica = workload::cluster_replica(&cfg, &mut tr);
            tr.end(open);
            let counted = CountedBox {
                report: &replica.report,
                arena: replica.arena.ok_or("replica: no arena")?,
                root: "replica",
                new_root: "replica",
                machine: cfg.machine,
                sim_s: total.as_secs_f64(),
            };
            box_layers(&mut m, &tr, &counted);
            core_probes(&mut m, &mut tr, &counted);
            disk_probes(
                &mut m,
                &mut tr,
                (HDFS_BACKLOG_PER_S * counted.sim_s) as usize,
            );
            net_ns = tr.time("simnet.probe", || {
                probes::net_ns_per_delivery(cfg.topology, cfg.qps_total, total)
            });
            telemetry_probes(
                &mut m,
                &mut tr,
                r.local.count + r.mla.count + r.tla.count,
                None,
            );
        }
        Report::Fleet(r) => {
            let cfg = spec.fleet_config(seed, 1).map_err(err)?;
            let open = tr.begin("probe");
            workload::fleet_templates(&cfg, &mut tr);
            tr.end(open);
            m.push(
                "qtrace.generate_s",
                tr.total_s("probe", "qtrace.generate"),
                "s",
            );

            let open = tr.begin("fleet.1t");
            let serial =
                workload::setup(w, seed, 1, &mut tr).map(|ready| workload::run(ready, &mut tr));
            tr.end(open);
            same_json(
                "fleet-day at 1 and 2 threads",
                report.json(),
                serial?.json(),
            )?;
            fleet_2t = tr.total_s("run", "fleet.run");
            fleet_1t = tr.total_s("fleet.1t", "fleet.run");
            fleet_ms = fleet_2t / r.slices as f64 * 1e3;

            let open = tr.begin("replica");
            let (replica, machine) = workload::fleet_replica(&cfg, &mut tr);
            tr.end(open);
            let counted = CountedBox {
                report: &replica.report,
                arena: replica.arena.ok_or("replica: no arena")?,
                root: "replica",
                new_root: "replica",
                machine,
                sim_s: (workload::FLEET_SLICE_WARMUP + cfg.slice).as_secs_f64(),
            };
            box_layers(&mut m, &tr, &counted);
            core_probes(&mut m, &mut tr, &counted);
            // No HDFS runs in the fleet: the HDD queue stays shallow.
            disk_probes(&mut m, &mut tr, SHALLOW_DISK_DEPTH);
            let sk = r
                .latency_sketch
                .as_ref()
                .ok_or("fleet-day: no latency sketch")?;
            telemetry_probes(
                &mut m,
                &mut tr,
                sk.count,
                Some((r.slices, sk.count / r.slices)),
            );
        }
    }
    m.push("simnet.probe_ns_per_delivery", net_ns, "ns");
    m.push("cluster.new_s", cluster_new, "s");
    m.push("cluster.run_s", cluster_run, "s");
    m.push("cluster.run_s_1t", cluster_1t, "s");
    m.push(
        "cluster.speedup_2t",
        if cluster_run > 0.0 {
            cluster_1t / cluster_run
        } else {
            0.0
        },
        "x",
    );
    m.push("cluster.us_per_tla_query", tla_us, "us");
    m.push("fleet.ms_per_slice", fleet_ms, "ms");
    m.push("fleet.run_s_1t", fleet_1t, "s");
    m.push(
        "fleet.speedup_2t",
        if fleet_2t > 0.0 {
            fleet_1t / fleet_2t
        } else {
            0.0
        },
        "x",
    );
    m.push("trace.overhead_s", traced_s - untraced_s, "s");
    let (setup_children, setup_whole) = tr.child_coverage_s("setup");
    let (run_children, run_whole) = tr.child_coverage_s("run");
    m.push(
        "trace.span_coverage",
        (setup_children + run_children) / (setup_whole + run_whole),
        "ratio",
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{seed}.json", w.name()));
    let header = format!("\"workload\":\"{}\",\"seed\":{seed}", w.name());
    tr.write(&path, &header)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok((m, ops))
}

fn main() {
    // Environment switches that change the simulator's windows or sync mode
    // are cleared, so a run's inputs depend on its arguments alone.
    std::env::remove_var("PERFISO_SCALE");
    std::env::remove_var("PERFISO_SPECULATE");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    match result {
        Ok((metrics, ops)) => println!("{}", metrics.json(ops)),
        Err(e) => {
            eprintln!("hostbench: check failed: {e}");
            std::process::exit(1);
        }
    }
}
