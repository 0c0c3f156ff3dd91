//! The three workloads: each starts from a registry `ScenarioSpec` with only
//! its length, seed and thread count overridden, is set up, run, and checked
//! against computations made apart from the simulator.

use std::sync::Arc;

use cluster::fleet::{run_fleet, FleetConfig, FleetReport};
use cluster::{ClusterReport, ClusterSim};
use indexserve::boxsim::{run_standalone, RunPlan};
use indexserve::{BoxConfig, BoxEvent, BoxReport, BoxSim, SecondaryKind};
use qtrace::{OpenLoopClient, QuerySpec, TraceConfig, TraceGenerator};
use scenarios::spec::{named, ScaleSpec, ScenarioSpec, TargetSpec};
use scenarios::Policy;
use simcore::{SimDuration, SimTime};
use simcpu::ArenaStats;
use telemetry::{CpuBreakdown, TelemetryMode};

use crate::trace::Tracer;

/// Worker threads for `cluster-fig9` and `fleet-day`: the benchmark host
/// has two cores.
pub const THREADS: usize = 2;

/// `box-io`'s measured window: long enough for the capped HDFS backlog on
/// the HDD to reach about 1.2k requests.
const BOX_MEASURE_MS: u64 = 20_000;
/// `cluster-fig9`'s warm-up and measured window (the registry's are 400 ms
/// and 1200 ms, about 22 s of host time per run).
const CLUSTER_WARMUP_MS: u64 = 100;
const CLUSTER_MEASURE_MS: u64 = 250;
/// `fleet-day`'s length in sampled minutes (the registry day has 96, at a
/// stride of 15 wall minutes; 24 cover 00:00 to 06:00).
const FLEET_MINUTES: u32 = 24;
/// `run_fleet`'s per-slice warm-up, copied from the private
/// `cluster::fleet::WARMUP`; a slice simulates this plus
/// `FleetConfig::slice`. Nothing checks the copy, so a change to the fleet
/// warm-up has to change this constant with it.
pub const FLEET_SLICE_WARMUP: SimDuration = SimDuration::from_millis(250);
/// Largest allowed gap between the colocated `box-io` p99 and a standalone
/// box at the same load and seed.
const COLOCATION_P99_SLACK: SimDuration = SimDuration::from_millis(2);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BoxIo,
    ClusterFig9,
    FleetDay,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "box-io" => Some(Workload::BoxIo),
            "cluster-fig9" => Some(Workload::ClusterFig9),
            "fleet-day" => Some(Workload::FleetDay),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BoxIo => "box-io",
            Workload::ClusterFig9 => "cluster-fig9",
            Workload::FleetDay => "fleet-day",
        }
    }

    fn registry_name(self) -> &'static str {
        match self {
            Workload::BoxIo => "io-throttle",
            Workload::ClusterFig9 => "fig09",
            Workload::FleetDay => "fleet-production",
        }
    }

    /// Set-ups per round: one feeds the run, the others are timed and
    /// dropped, so `setup_s` is a median over many samples even where a
    /// set-up takes microseconds.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::ClusterFig9 => 20,
            Workload::BoxIo | Workload::FleetDay => 50,
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The workload's registry spec with its length and seed overridden.
pub fn spec_for(w: Workload, seed: u64) -> Result<ScenarioSpec, String> {
    let mut spec = named(w.registry_name()).map_err(err)?;
    match w {
        Workload::BoxIo => {
            spec.scale = ScaleSpec::Custom {
                warmup_ms: spec.run_scale().warmup.as_millis(),
                measure_ms: BOX_MEASURE_MS,
            };
        }
        Workload::ClusterFig9 => {
            spec.scale = ScaleSpec::Custom {
                warmup_ms: CLUSTER_WARMUP_MS,
                measure_ms: CLUSTER_MEASURE_MS,
            };
        }
        Workload::FleetDay => match &mut spec.target {
            TargetSpec::Fleet { minutes, .. } => *minutes = FLEET_MINUTES,
            _ => return Err("fleet-production is not a fleet target".into()),
        },
    }
    spec.seed = seed;
    spec.seeds = 1;
    spec.validate().map_err(err)?;
    Ok(spec)
}

/// A simulation that is ready to run.
// One `Ready` exists at a time, moved once into `run`: boxing the large
// variant would only add an allocation to every set-up.
#[allow(clippy::large_enum_variant)]
pub enum Ready {
    /// `run_standalone` generates the trace and builds the `BoxSim` inside
    /// its call, so a box is ready once its config and plan are.
    Box {
        cfg: BoxConfig,
        plan: RunPlan,
    },
    Cluster(ClusterSim),
    Fleet(FleetConfig),
}

/// One single-box run.
pub struct BoxRun {
    pub report: BoxReport,
    /// Read only by the traced loop: `run_standalone` keeps its box.
    pub arena: Option<ArenaStats>,
}

pub enum Report {
    Box(BoxRun),
    Cluster(ClusterReport),
    Fleet(FleetReport),
}

impl Report {
    pub fn json(&self) -> String {
        let text = match self {
            Report::Box(r) => serde_json::to_string(&r.report),
            Report::Cluster(r) => serde_json::to_string(r),
            Report::Fleet(r) => serde_json::to_string(r),
        };
        text.expect("reports serialize")
    }

    /// FNV-1a over the report's JSON: equal on two commits exactly when
    /// every simulated statistic is equal.
    pub fn digest(&self) -> u64 {
        self.json().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

/// Generates a single-box trace and the open-loop client that replays it,
/// with the seeds and length `run_standalone` uses.
fn box_client(
    trace: &TraceConfig,
    qps: f64,
    total: SimDuration,
    seed: u64,
    tr: &mut Tracer,
) -> OpenLoopClient {
    let n_queries = (qps * total.as_secs_f64() * 1.05) as usize + 16;
    let generator = TraceGenerator::new(TraceConfig {
        queries: n_queries,
        ..trace.clone()
    });
    let queries = tr.time("qtrace.generate", || generator.generate(seed ^ 0x7ACE));
    OpenLoopClient::new(queries, qps, seed ^ 0xC1)
}

pub fn setup(w: Workload, seed: u64, threads: usize, tr: &mut Tracer) -> Result<Ready, String> {
    match w {
        Workload::BoxIo => tr.time("scenarios.build", || {
            let spec = spec_for(w, seed)?;
            Ok(Ready::Box {
                cfg: spec.box_config(seed).map_err(err)?,
                plan: spec.run_plan().map_err(err)?,
            })
        }),
        Workload::ClusterFig9 => {
            let cfg = tr.time("scenarios.build", || {
                spec_for(w, seed)?
                    .cluster_config(seed, threads)
                    .map_err(err)
            })?;
            Ok(Ready::Cluster(
                tr.time("cluster.new", || ClusterSim::new(cfg)),
            ))
        }
        Workload::FleetDay => {
            let cfg = tr.time("scenarios.build", || {
                spec_for(w, seed)?.fleet_config(seed, threads).map_err(err)
            })?;
            Ok(Ready::Fleet(cfg))
        }
    }
}

/// Runs a ready simulation. An untraced `box-io` run is `run_standalone`
/// itself; a traced one drives the same loop through `BoxSim`'s public
/// calls, each in its own span.
pub fn run(ready: Ready, tr: &mut Tracer) -> Report {
    match ready {
        Ready::Box { cfg, plan } if tr.is_on() => {
            let client = box_client(
                &plan.trace,
                plan.qps,
                plan.warmup + plan.measure,
                cfg.seed,
                tr,
            );
            let mode = cfg.telemetry;
            let sim = tr.time("indexserve.new", || BoxSim::new(cfg));
            Report::Box(replay(
                sim,
                client,
                plan.qps,
                plan.warmup,
                plan.measure,
                mode,
                tr,
            ))
        }
        Ready::Box { cfg, plan } => Report::Box(BoxRun {
            report: run_standalone(cfg, &plan),
            arena: None,
        }),
        Ready::Cluster(sim) => Report::Cluster(tr.time("cluster.run", || sim.run())),
        Ready::Fleet(cfg) => Report::Fleet(tr.time("fleet.run", || run_fleet(&cfg))),
    }
}

/// Drains the box's events and records measured-window completions.
fn drain(
    sim: &mut BoxSim,
    events: &mut Vec<BoxEvent>,
    rec: &mut telemetry::LatencyRecorder,
    warmup_end: SimTime,
    tr: &mut Tracer,
) {
    tr.time("indexserve.drain", || sim.drain_events_into(events));
    let open = tr.begin("telemetry.record");
    for ev in events.drain(..) {
        if let BoxEvent::QueryDone(out) = ev {
            if out.arrival >= warmup_end {
                if out.dropped {
                    rec.record_dropped();
                } else {
                    rec.record(out.latency);
                }
            }
        }
    }
    tr.end(open);
}

/// The single-box replay loop, step for step the one in
/// `indexserve::boxsim::run_standalone` (the traced run checks that both
/// produce the same report), with every call into `BoxSim`, the client and
/// the recorder in its own span. It records only the merged stream:
/// `run_standalone` also fills a per-service recorder, which it reports only
/// for boxes with an explicit service roster, so this loop does less work
/// than the program and times only the traced run.
fn replay(
    mut sim: BoxSim,
    mut client: OpenLoopClient,
    qps: f64,
    warmup: SimDuration,
    measure: SimDuration,
    mode: TelemetryMode,
    tr: &mut Tracer,
) -> BoxRun {
    let warmup_end = SimTime::ZERO + warmup;
    let end = warmup_end + measure;
    let mut rec = mode.recorder();
    let mut warm: Option<(CpuBreakdown, SimDuration)> = None;
    let mut queries_measured = 0u64;
    let mut workers_at_warm = 0u64;
    let mut events: Vec<BoxEvent> = Vec::with_capacity(64);
    loop {
        let next = tr.time("qtrace.next", || client.next_arrival_time());
        let Some(at) = next.filter(|&at| at <= end) else {
            break;
        };
        if warm.is_none() && at >= warmup_end {
            tr.time("indexserve.advance", || sim.advance_to(warmup_end));
            drain(&mut sim, &mut events, &mut rec, warmup_end, tr);
            warm = Some((sim.breakdown(), sim.secondary_cpu_time()));
            workers_at_warm = sim.workers_spawned();
        }
        let (_, spec) = tr.time("qtrace.next", || client.pop().expect("peeked"));
        tr.time("indexserve.inject", || sim.inject_query(at, spec));
        drain(&mut sim, &mut events, &mut rec, warmup_end, tr);
        if at >= warmup_end {
            queries_measured += 1;
        }
    }
    if warm.is_none() {
        tr.time("indexserve.advance", || sim.advance_to(warmup_end));
        drain(&mut sim, &mut events, &mut rec, warmup_end, tr);
        warm = Some((sim.breakdown(), sim.secondary_cpu_time()));
        workers_at_warm = sim.workers_spawned();
    }
    let max_timeout = sim.max_timeout();
    tr.time("indexserve.advance", || sim.advance_to(end + max_timeout));
    drain(&mut sim, &mut events, &mut rec, warmup_end, tr);

    let (warm_bd, warm_sec_cpu) = warm.expect("warm-up snapshot taken");
    let latency = tr.time("telemetry.summary", || rec.summary());
    let report = BoxReport {
        qps,
        latency,
        latency_sketch: rec.sketch_summary(),
        breakdown: sim.breakdown().since(&warm_bd),
        secondary_cpu: sim.secondary_cpu_time().saturating_sub(warm_sec_cpu),
        avg_fanout: if queries_measured == 0 {
            0.0
        } else {
            (sim.workers_spawned() - workers_at_warm) as f64 / queries_measured as f64
        },
        machine: sim.machine_stats(),
        controller: sim.controller_stats(),
        faults: sim.take_fault_records(),
        services: Vec::new(),
        resilience: sim.resilience_report(),
    };
    BoxRun {
        report,
        arena: Some(sim.arena_stats()),
    }
}

/// Simulated machine-seconds one run covers, warm-up included: every box
/// simulated (all machines of the cluster, every sampled fleet slice).
pub fn machine_seconds(w: Workload, seed: u64) -> Result<f64, String> {
    let spec = spec_for(w, seed)?;
    Ok(match w {
        Workload::BoxIo => {
            let plan = spec.run_plan().map_err(err)?;
            (plan.warmup + plan.measure).as_secs_f64()
        }
        Workload::ClusterFig9 => {
            let cfg = spec.cluster_config(seed, 1).map_err(err)?;
            f64::from(cfg.topology.total_machines()) * (cfg.warmup + cfg.measure).as_secs_f64()
        }
        Workload::FleetDay => {
            let cfg = spec.fleet_config(seed, 1).map_err(err)?;
            f64::from(cfg.minutes * cfg.sampled_machines)
                * (FLEET_SLICE_WARMUP + cfg.slice).as_secs_f64()
        }
    })
}

/// Queries a run offered, and how many of them failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// Open-loop arrivals of a replayed client: those at or before `end`, and
/// those in `[from, end]`. Arrival times depend only on the rate, the seed
/// and the trace length, so the replay carries placeholder queries.
fn arrivals(len: usize, qps: f64, seed: u64, from: SimTime, end: SimTime) -> (u64, u64) {
    let placeholder = QuerySpec {
        id: 0,
        fanout: 1,
        rounds: 1,
        burst_ns: 0,
        doc_rank: 0,
        heavy: false,
    };
    let mut client = OpenLoopClient::replay_shared(Arc::new(vec![placeholder; len]), qps, seed);
    let (mut all, mut window) = (0, 0);
    while let Some((at, _)) = client.pop() {
        if at > end {
            break;
        }
        all += 1;
        if at >= from {
            window += 1;
        }
    }
    (all, window)
}

/// SplitMix64 finalizer: `run_fleet`'s per-slice seed derivation, copied
/// from the private `cluster::fleet::mix64` like the slice and template
/// seeds below. A change to how `cluster::fleet` derives its seeds has to
/// change these copies with it.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of fleet slice `(m, s)`.
fn fleet_slice_seed(cfg: &FleetConfig, m: u32, s: u32) -> u64 {
    mix64(cfg.seed) ^ (u64::from(m) << 8) ^ u64::from(s)
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Checks one run's simulated outputs and counts its operations.
pub fn check(w: Workload, seed: u64, report: &Report) -> Result<Ops, String> {
    let spec = spec_for(w, seed)?;
    match report {
        Report::Box(run) => check_box(&spec, seed, run),
        Report::Cluster(r) => check_cluster(&spec, seed, r),
        Report::Fleet(r) => check_fleet(&spec, seed, r),
    }
}

fn check_box(spec: &ScenarioSpec, seed: u64, run: &BoxRun) -> Result<Ops, String> {
    let r = &run.report;
    let plan = spec.run_plan().map_err(err)?;
    let cfg = spec.box_config(seed).map_err(err)?;
    let total = plan.warmup + plan.measure;
    let len = (plan.qps * total.as_secs_f64() * 1.05) as usize + 16;
    let warmup_end = SimTime::ZERO + plan.warmup;
    let (_, offered) = arrivals(
        len,
        plan.qps,
        seed ^ 0xC1,
        warmup_end,
        SimTime::ZERO + total,
    );
    let l = &r.latency;
    ensure(l.count + l.dropped == offered, || {
        format!(
            "box-io: {} completed + {} dropped != {offered} arrivals in the window",
            l.count, l.dropped
        )
    })?;
    ensure(l.count > 0 && l.p50 <= l.p99 && l.p99 <= l.max, || {
        format!("box-io: percentiles out of order: {l:?}")
    })?;
    // The breakdown spans warm-up end to the tail drain's end, one
    // timeout past the window (the only service's, as no roster is set).
    ensure(cfg.hosted.is_empty(), || {
        "box-io: the box hosts a service roster".into()
    })?;
    let window = plan.measure + cfg.service.timeout;
    let expect = window.as_nanos() * u64::from(cfg.machine.cores);
    ensure(r.breakdown.total().as_nanos() == expect, || {
        format!(
            "box-io: CPU breakdown sums to {} ns, cores x window is {expect} ns",
            r.breakdown.total().as_nanos()
        )
    })?;
    ensure(r.controller.is_some(), || {
        "box-io: the controller did not run".into()
    })?;
    Ok(Ops {
        attempted: offered,
        failed: l.dropped,
    })
}

fn check_cluster(spec: &ScenarioSpec, seed: u64, r: &ClusterReport) -> Result<Ops, String> {
    let cfg = spec.cluster_config(seed, 1).map_err(err)?;
    let total = cfg.warmup + cfg.measure;
    let len = (cfg.qps_total * total.as_secs_f64() * 1.02) as usize + 8;
    let end = SimTime::ZERO + total;
    let (offered, measured) = arrivals(
        len,
        cfg.qps_total,
        seed ^ 0xC1,
        SimTime::ZERO + cfg.warmup,
        end,
    );
    ensure(r.completed == offered, || {
        format!(
            "cluster-fig9: {} completed != {offered} arrivals",
            r.completed
        )
    })?;
    ensure(r.tla.count == measured, || {
        format!(
            "cluster-fig9: {} TLA samples != {measured} arrivals in the window",
            r.tla.count
        )
    })?;
    ensure(r.degraded == 0, || {
        format!("cluster-fig9: {} degraded requests", r.degraded)
    })?;
    ensure(r.local.p99 <= r.mla.p99 && r.mla.p99 <= r.tla.p99, || {
        format!(
            "cluster-fig9: p99 not local <= MLA <= TLA: {} {} {}",
            r.local.p99, r.mla.p99, r.tla.p99
        )
    })?;
    for (name, l) in [("local", &r.local), ("mla", &r.mla), ("tla", &r.tla)] {
        ensure(l.count > 0 && l.p95 <= l.p99, || {
            format!("cluster-fig9: {name} percentiles out of order: {l:?}")
        })?;
    }
    // Each index box's breakdown runs from its clock when the loop first
    // steps past warm-up (at or before warm-up end) to its last event
    // (between the window's end and the tail drain's limit).
    let core_s = u64::from(cfg.topology.index_machines()) * u64::from(cfg.machine.cores);
    let lo = cfg.measure.as_nanos() * core_s;
    let drain_limit = total + cfg.service.timeout + SimDuration::from_millis(50);
    let hi = drain_limit.as_nanos() * core_s;
    let got = r.breakdown.total().as_nanos();
    ensure((lo..=hi).contains(&got), || {
        format!("cluster-fig9: CPU breakdown {got} ns outside cores x window [{lo}, {hi}]")
    })?;
    Ok(Ops {
        attempted: offered,
        failed: r.degraded,
    })
}

fn check_fleet(spec: &ScenarioSpec, seed: u64, r: &FleetReport) -> Result<Ops, String> {
    let cfg = spec.fleet_config(seed, 1).map_err(err)?;
    ensure(
        r.slices == u64::from(cfg.minutes * cfg.sampled_machines),
        || {
            format!(
                "fleet-day: {} slices for {} x {}",
                r.slices, cfg.minutes, cfg.sampled_machines
            )
        },
    )?;
    ensure(r.trainer_progress.overall_mean() > 0.0, || {
        "fleet-day: the ML trainer made no progress".into()
    })?;
    ensure(
        r.mean_utilization > 0.0 && r.mean_utilization <= 1.0,
        || {
            format!(
                "fleet-day: mean utilization {} outside (0, 1]",
                r.mean_utilization
            )
        },
    )?;
    let sk = r
        .latency_sketch
        .as_ref()
        .ok_or("fleet-day: no latency sketch")?;
    ensure(sk.count > 0 && sk.p50 <= sk.p99 && sk.p99 <= sk.max, || {
        format!("fleet-day: percentiles out of order: {sk:?}")
    })?;
    // A slice records what arrives in its window and completes by the
    // slice end, plus every drop; completions after the slice end go
    // unrecorded. So the recorded total lies between the arrivals early
    // enough to finish within the slowest recorded latency, and all
    // arrivals in the windows.
    let stride = cfg.minute_stride.max(1);
    let total = FLEET_SLICE_WARMUP + cfg.slice;
    let warmup_end = SimTime::ZERO + FLEET_SLICE_WARMUP;
    let end = SimTime::ZERO + total;
    let (mut lo, mut hi) = (0, 0);
    for m in 0..cfg.minutes {
        let qps = cfg.curve.qps_at_minute(m * stride);
        let len = (qps * total.as_secs_f64() * 1.05) as usize + 8;
        for s in 0..cfg.sampled_machines {
            let seed = fleet_slice_seed(&cfg, m, s) ^ 0xC1;
            hi += arrivals(len, qps, seed, warmup_end, end).1;
            let early = SimTime::ZERO + total.saturating_sub(sk.max);
            lo += arrivals(len, qps, seed, warmup_end, early).1;
        }
    }
    let recorded = sk.count + sk.dropped;
    ensure((lo..=hi).contains(&recorded), || {
        format!("fleet-day: {recorded} recorded queries outside the arrivals bound [{lo}, {hi}]")
    })?;
    Ok(Ops {
        attempted: hi,
        failed: sk.dropped,
    })
}

/// Once per run: the colocated `box-io` tail stays within
/// [`COLOCATION_P99_SLACK`] of a standalone box at the same load and seed.
pub fn check_isolation(w: Workload, seed: u64, report: &Report) -> Result<(), String> {
    let Report::Box(run) = report else {
        return Ok(());
    };
    let mut alone = spec_for(w, seed)?;
    alone.secondary = SecondaryKind::none();
    alone.policy = Policy::Standalone;
    let base = run_standalone(
        alone.box_config(seed).map_err(err)?,
        &alone.run_plan().map_err(err)?,
    );
    let colo = run.report.latency.p99;
    ensure(colo <= base.latency.p99 + COLOCATION_P99_SLACK, || {
        format!(
            "box-io: colocated p99 {colo} exceeds standalone {} by more than {COLOCATION_P99_SLACK}",
            base.latency.p99
        )
    })
}

/// Runs a single-box replica through the traced loop: `BoxSim::new` on
/// `cfg`, then the open-loop replay at `qps`.
fn run_replica(
    cfg: BoxConfig,
    qps: f64,
    warmup: SimDuration,
    measure: SimDuration,
    trainer: Option<&workloads::MlTrainer>,
    tr: &mut Tracer,
) -> BoxRun {
    let seed = cfg.seed;
    let mode = cfg.telemetry;
    let client = box_client(&TraceConfig::default(), qps, warmup + measure, seed, tr);
    let mut sim = tr.time("indexserve.new", || BoxSim::new(cfg));
    if let Some(trainer) = trainer {
        let (machine, job) = sim.secondary_spawn_access();
        let handle = trainer.spawn(machine, job, SimTime::ZERO);
        sim.track_secondary_threads(&handle.tids);
    }
    replay(sim, client, qps, warmup, measure, mode, tr)
}

/// One index box of the cluster, built as `ClusterSim::new` builds box 0,
/// replayed alone at its row's full load (the MLA fans every request of a
/// row out to all its columns). The cluster keeps its boxes private, so
/// their counters are read from this replica.
pub fn cluster_replica(cfg: &cluster::ClusterConfig, tr: &mut Tracer) -> BoxRun {
    let box_cfg = BoxConfig {
        machine: cfg.machine,
        service: Arc::new(cfg.service.clone()),
        hosted: Vec::new(),
        secondary: cfg.secondary.clone(),
        perfiso: cfg.perfiso.clone().map(Arc::new),
        fault: None,
        telemetry: cfg.telemetry,
        resilience: cfg.resilience.clone(),
        seed: cfg.seed ^ 0x9E37,
    };
    let qps = cfg.qps_total / f64::from(cfg.topology.rows);
    run_replica(box_cfg, qps, cfg.warmup, cfg.measure, None, tr)
}

/// One fleet slice, built as `run_fleet` builds slice `(m, 0)` at the
/// middle sampled minute, with the configured trainer and no churn.
/// Returns the run and the slice's machine shape.
pub fn fleet_replica(cfg: &FleetConfig, tr: &mut Tracer) -> (BoxRun, simcpu::MachineConfig) {
    let m = cfg.minutes / 2;
    let machine = cfg
        .shapes
        .first()
        .copied()
        .unwrap_or_else(simcpu::MachineConfig::paper_server);
    let box_cfg = BoxConfig {
        machine,
        service: Arc::new(indexserve::ServiceConfig::default()),
        hosted: Vec::new(),
        secondary: SecondaryKind::none(),
        perfiso: Some(Arc::new(cfg.perfiso.clone())),
        fault: None,
        telemetry: cfg.telemetry,
        resilience: cfg.resilience.clone(),
        seed: fleet_slice_seed(cfg, m, 0),
    };
    let qps = cfg.curve.qps_at_minute(m * cfg.minute_stride.max(1));
    let run = run_replica(
        box_cfg,
        qps,
        FLEET_SLICE_WARMUP,
        cfg.slice,
        Some(&cfg.trainer),
        tr,
    );
    (run, machine)
}

/// The per-minute trace templates `run_fleet` generates inside its call,
/// generated again with the same generator and lengths.
pub fn fleet_templates(cfg: &FleetConfig, tr: &mut Tracer) {
    let generator = TraceGenerator::new(TraceConfig {
        queries: 16,
        ..TraceConfig::default()
    });
    let total = FLEET_SLICE_WARMUP + cfg.slice;
    let stride = cfg.minute_stride.max(1);
    let mixed = mix64(cfg.seed);
    for m in 0..cfg.minutes {
        let qps = cfg.curve.qps_at_minute(m * stride);
        let len = (qps * total.as_secs_f64() * 1.05) as usize + 8;
        let seed = mixed ^ 0xF1EE7 ^ (u64::from(m) << 8);
        std::hint::black_box(tr.time("qtrace.generate", || generator.generate_n(seed, len)));
    }
}
