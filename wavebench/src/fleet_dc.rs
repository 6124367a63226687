//! `fleet_dc`: 64 Wave hosts (4 workers, 1 agent each) behind a
//! least-loaded frontdoor sending Poisson bimodal load at 60% of fleet
//! capacity over the fat-tree, run by the conservative executor with 2
//! workers.
//!
//! The untraced run is `FleetConfig::run`. The traced run rebuilds the
//! same nodes from the public constructors, wraps each in a
//! [`TimedNode`] (with [`TimedPolicy`] inside every host) and the
//! fabric in a [`TimedTransit`], and drives `FleetExecutor` itself.

use std::time::Instant;

use wave_fleet::{
    FatTreeFabric, FleetConfig, FleetNode, FleetReport, Frontdoor, HostNode, SloAttainment,
};
use wave_ghost::policies::FifoPolicy;
use wave_ghost::{SchedPolicy, SchedReport};
use wave_sim::fleet::{FleetExecStats, FleetExecutor};
use wave_sim::SimTime;

use crate::host_sched::{drain_arrivals, GhostCounts};
use crate::metrics::{quantile, Metrics, PER_LAYER, SIM_DETAIL};
use crate::trace::Trace;
use crate::wrappers::{AdvanceRecord, PolicyClock, TimedNode, TimedPolicy, TimedTransit};
use crate::{check, Outcome, Run, TracedRun, Workload};

/// Hosts in the fleet.
const HOSTS: u32 = 64;
/// Executor worker threads (the container's `nproc`).
pub const WORKERS: usize = 2;

/// The workload at one seed.
pub struct FleetDc {
    cfg: FleetConfig,
}

/// Offered load as a share of the fleet's service capacity.
const LOAD: f64 = 0.6;

/// The fixed configuration; only the seed varies.
///
/// The offered rate is set to [`LOAD`] of the capacity the bimodal
/// mix's mean service time allows (hosts × workers ÷ mean service).
/// `FleetConfig::quick`'s own rate sizes hosts at ~100k req/s per
/// worker, which is the 10 µs GETs' rate alone; with the 0.5% of 10 ms
/// RANGE scans the mean service is ~60 µs, so that rate overloads the
/// fleet about 3.6× and its queues grow for the whole run.
fn config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::quick(HOSTS);
    let capacity = f64::from(HOSTS * cfg.host.workers) / cfg.workload.mean_service().as_secs_f64();
    cfg.workload.set_offered(LOAD * capacity);
    cfg.duration = SimTime::from_ms(20);
    cfg.warmup = SimTime::from_ms(5);
    cfg.drain = SimTime::from_ms(5);
    cfg.workers = WORKERS;
    cfg.seed = seed;
    cfg
}

/// The per-host seed `FleetConfig::run` derives (splitmix64 of
/// `seed ^ host`).
fn host_seed(seed: u64, host: u32) -> u64 {
    let mut z = (seed ^ u64::from(host)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fleet's nodes as `FleetConfig::run` builds them: `hosts` hosts,
/// then the frontdoor at index `hosts`. `policy(h)` makes host `h`'s
/// policy.
pub fn build_nodes(
    cfg: &FleetConfig,
    mut policy: impl FnMut(u32) -> Box<dyn SchedPolicy>,
) -> Vec<FleetNode> {
    let end = cfg.duration + cfg.drain;
    let mut nodes = Vec::with_capacity(cfg.hosts as usize + 1);
    for h in 0..cfg.hosts {
        let mut hc = cfg.host.clone();
        hc.duration = end;
        hc.seed = host_seed(cfg.seed, h);
        nodes.push(FleetNode::Host(Box::new(HostNode::new(
            hc,
            policy(h),
            cfg.hosts,
        ))));
    }
    nodes.push(FleetNode::Frontdoor(Box::new(Frontdoor::new(
        &cfg.workload,
        cfg.seed,
        cfg.hosts,
        cfg.lb,
        cfg.duration,
        cfg.warmup,
    ))));
    nodes
}

/// Assembles the [`FleetReport`] of a rebuilt fleet the way
/// `FleetConfig::run` does, and returns the hosts' own reports beside
/// it.
pub fn assemble_report(
    cfg: &FleetConfig,
    nodes: Vec<FleetNode>,
    fabric: &FatTreeFabric,
    exec: FleetExecStats,
) -> (FleetReport, Vec<SchedReport>) {
    let mut hosts = Vec::with_capacity(cfg.hosts as usize);
    let mut fd = None;
    for node in nodes {
        match node {
            FleetNode::Host(h) => hosts.push(h.finish()),
            FleetNode::Frontdoor(f) => fd = Some(f.into_stats()),
        }
    }
    let fd = fd.expect("the fleet has a frontdoor");
    let window = cfg.duration - cfg.warmup;
    let slo = fd
        .latency_by_class
        .iter()
        .map(|(&c, h)| {
            let class = wave_ghost::SloClass(c);
            let target = cfg.slo.target(class).unwrap_or(SimTime::MAX);
            SloAttainment {
                class,
                target,
                total: h.count(),
                attained: h.count_at_or_below(target),
            }
        })
        .collect();
    let report = FleetReport {
        hosts: cfg.hosts,
        workers: cfg.workers,
        lb: cfg.lb.name(),
        offered: cfg.workload.offered(),
        achieved: fd.completed as f64 / window.as_secs_f64(),
        emitted: fd.emitted,
        completed: fd.completed,
        rejected: fd.rejected,
        in_flight_at_end: fd.in_flight_at_end,
        latency: fd.latency.summary(),
        latency_cdf: fd.latency.ladder(),
        latency_by_class: fd
            .latency_by_class
            .iter()
            .map(|(&c, h)| (wave_ghost::SloClass(c), h.summary()))
            .collect(),
        slo,
        per_host_emitted: fd.per_host_emitted,
        per_host_completed: hosts.iter().map(|r| r.completed).collect(),
        fabric_messages: fabric.carried(),
        exec,
    };
    (report, hosts)
}

impl FleetDc {
    /// The workload at `seed`.
    pub fn new(seed: u64) -> Self {
        FleetDc { cfg: config(seed) }
    }

    /// Windows a run of `end` simulated time takes.
    fn expected_windows(&self) -> u64 {
        let end = (self.cfg.duration + self.cfg.drain).as_ns();
        end.div_ceil(self.cfg.fabric.min_latency().as_ns())
    }

    fn outcome(&self, r: &FleetReport) -> Outcome {
        let mut errors = Vec::new();
        let routed: u64 = r.per_host_emitted.iter().sum();
        check(&mut errors, routed == r.emitted, || {
            format!(
                "per-host emissions sum to {routed}, the frontdoor emitted {}",
                r.emitted
            )
        });
        check(
            &mut errors,
            r.per_host_emitted.len() == HOSTS as usize && r.per_host_emitted.iter().all(|&n| n > 0),
            || "least-loaded balancing starved a host".into(),
        );
        check(&mut errors, r.completed > 0, || {
            "no request completed".into()
        });
        check(
            &mut errors,
            r.completed + r.rejected + r.in_flight_at_end <= r.emitted,
            || {
                format!(
                    "completed {} + rejected {} + in flight {} exceed emitted {}",
                    r.completed, r.rejected, r.in_flight_at_end, r.emitted
                )
            },
        );
        check(&mut errors, r.latency.count == r.completed, || {
            format!(
                "latency samples {} != completions {}",
                r.latency.count, r.completed
            )
        });
        check(
            &mut errors,
            r.exec.windows == self.expected_windows(),
            || {
                format!(
                    "{} windows, expected {}",
                    r.exec.windows,
                    self.expected_windows()
                )
            },
        );
        check(&mut errors, r.exec.messages <= r.fabric_messages, || {
            "more messages delivered than the fabric carried".into()
        });
        let mut detail = Metrics::zeroed(&SIM_DETAIL);
        detail.put("sim.requests", r.latency.count as f64);
        detail.put("sim.mean_us", r.latency.mean_ns / 1e3);
        detail.put("sim.p50_us", r.latency.p50.as_us_f64());
        detail.put("sim.p99_us", r.latency.p99.as_us_f64());
        detail.put("sim.goodput_rps", r.achieved);
        detail.put("sim.drop_frac", r.rejected as f64 / r.emitted.max(1) as f64);
        Outcome {
            sim_seconds: (self.cfg.duration + self.cfg.drain).as_secs_f64(),
            attempted: r.emitted,
            failed: r.rejected,
            detail,
            signature: vec![
                ("fingerprint", r.fingerprint()),
                ("windows", r.exec.windows),
                ("events", r.exec.events),
                ("messages", r.exec.messages),
                ("emitted", r.emitted),
                ("completed", r.completed),
                ("rejected", r.rejected),
                ("p50_ns", r.latency.p50.as_ns()),
                ("p99_ns", r.latency.p99.as_ns()),
            ],
            errors,
        }
    }
}

impl Workload for FleetDc {
    fn name(&self) -> &'static str {
        "fleet_dc"
    }

    fn rebuilt(&self) -> bool {
        true
    }

    fn setup_once(&self) -> f64 {
        let t = Instant::now();
        let nodes = build_nodes(&self.cfg, |_| Box::new(FifoPolicy::new()));
        let fabric = FatTreeFabric::new(self.cfg.fabric, self.cfg.hosts);
        let exec = FleetExecutor::new(nodes, self.cfg.fabric.min_latency(), self.cfg.workers);
        let s = t.elapsed().as_secs_f64();
        drop((exec, fabric));
        s
    }

    fn run_once(&self) -> Run {
        let t = Instant::now();
        let report = self.cfg.clone().run();
        let wall_s = t.elapsed().as_secs_f64();
        Run {
            setup_s: None,
            wall_s,
            outcome: self.outcome(&report),
        }
    }

    fn run_traced(&self, run_id: u32) -> TracedRun {
        let cfg = &self.cfg;
        let mut trace = Trace::new(run_id);
        let epoch = trace.epoch();
        let clocks: Vec<_> = (0..cfg.hosts).map(|_| PolicyClock::shared()).collect();
        let setup = trace.open("fleet.setup", None);
        let nodes = build_nodes(cfg, |h| {
            Box::new(TimedPolicy::new(
                Box::new(FifoPolicy::new()),
                clocks[h as usize].clone(),
            ))
        });
        let timed: Vec<_> = nodes
            .into_iter()
            .map(|n| TimedNode::new(n, epoch))
            .collect();
        let mut fabric = FatTreeFabric::new(cfg.fabric, cfg.hosts);
        let mut exec = FleetExecutor::new(timed, cfg.fabric.min_latency(), cfg.workers);
        trace.close(setup);

        let run_start = trace.now_ns();
        let t = Instant::now();
        let mut transit = TimedTransit::new(&mut fabric);
        let stats = exec.run_until(cfg.duration + cfg.drain, &mut transit);
        let (transit_ns, transit_calls) = (transit.ns, transit.calls);
        let (nodes, logs): (Vec<FleetNode>, Vec<Vec<AdvanceRecord>>) = exec
            .into_hosts()
            .into_iter()
            .map(TimedNode::into_parts)
            .unzip();
        let (report, host_reports) = assemble_report(cfg, nodes, &fabric, stats);
        let wall_s = t.elapsed().as_secs_f64();
        let root = trace.push("fleet.run", run_start, trace.now_ns(), None);

        let outcome = self.outcome(&report);
        let mut layers = Metrics::zeroed(&PER_LAYER);
        let mut unavailable = vec![
            (
                "memmgr.*, kvstore.*",
                "fleet_dc runs no memory manager".to_string(),
            ),
            (
                "sim.demoted_frac, sim.accuracy, sim.iter_ms",
                "memory-manager outcomes; fleet_dc has none".to_string(),
            ),
        ];
        let windows = stats.windows as usize;
        if logs.iter().any(|l| l.len() != windows) {
            unavailable.push((
                "fleet.*, ghost.*",
                "a node was not advanced once per window".to_string(),
            ));
        } else {
            fleet_layers(
                &mut layers,
                &mut trace,
                root,
                &logs,
                stats,
                transit_ns,
                transit_calls,
            );
            let policy_ns: u64 = clocks.iter().map(|c| c.ns()).sum();
            let policy_calls: u64 = clocks.iter().map(|c| c.calls()).sum();
            let host_s = layers.get("fleet.host_advance_s").unwrap_or(0.0);
            let mut counts = GhostCounts::default();
            for r in &host_reports {
                counts.add(&GhostCounts::of(r));
            }
            counts.fill(&mut layers);
            let host_events: u64 = host_reports.iter().map(|r| r.events_executed).sum();
            layers.put("ghost.events", host_events as f64);
            layers.put("ghost.events_per_s", host_events as f64 / host_s);
            layers.put(
                "ghost.events_per_request",
                host_events as f64 / report.emitted.max(1) as f64,
            );
            let host_logs = &logs[..cfg.hosts as usize];
            let per_event: Vec<f64> = host_logs
                .iter()
                .flatten()
                .filter(|r| r.events > 0)
                .map(|r| (r.end_ns - r.start_ns) as f64 / r.events as f64)
                .collect();
            layers.put("ghost.slice_ns_per_event.p50", quantile(&per_event, 0.5));
            layers.put("ghost.slice_ns_per_event.p95", quantile(&per_event, 0.95));
            layers.put("ghost.policy_self_s", policy_ns as f64 / 1e9);
            layers.put("ghost.policy_calls", policy_calls as f64);
            layers.put("ghost.policy_share", policy_ns as f64 / 1e9 / host_s);
        }
        let end = cfg.duration + cfg.drain;
        let (arrivals, drain_s) = drain_arrivals(&cfg.workload, cfg.seed, end);
        layers.put(
            "workload.ns_per_arrival",
            drain_s * 1e9 / arrivals.max(1) as f64,
        );

        TracedRun {
            run: Run {
                setup_s: None,
                wall_s,
                outcome,
            },
            layers,
            unavailable,
            trace,
        }
    }
}

/// Derives the `fleet.*` rows from the per-node advance records (one
/// per window per node; the frontdoor is the last node) and records the
/// window and barrier spans.
fn fleet_layers(
    layers: &mut Metrics,
    trace: &mut Trace,
    root: usize,
    logs: &[Vec<AdvanceRecord>],
    stats: FleetExecStats,
    transit_ns: u64,
    transit_calls: u64,
) {
    let frontdoor = logs.len() - 1;
    let windows = stats.windows as usize;
    let mut threads: Vec<u32> = logs.iter().flatten().map(|r| r.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    let (mut host_ns, mut fd_ns, mut fd_events, mut idle) = (0u64, 0u64, 0u64, 0u64);
    let (mut barrier_ns, mut wait_ns) = (0u64, 0u64);
    let mut busy = vec![0u64; threads.len()];
    let mut prev_end: Option<u64> = None;
    for w in 0..windows {
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        busy.iter_mut().for_each(|b| *b = 0);
        for (node, log) in logs.iter().enumerate() {
            let r = log[w];
            let d = r.end_ns - r.start_ns;
            lo = lo.min(r.start_ns);
            hi = hi.max(r.end_ns);
            let slot = threads.binary_search(&r.thread).expect("thread was seen");
            busy[slot] += d;
            if node == frontdoor {
                fd_ns += d;
                fd_events += r.events;
            } else {
                host_ns += d;
            }
            if r.events == 0 && r.empty_inbox {
                idle += 1;
            }
        }
        let span = hi - lo;
        wait_ns += busy.iter().map(|&b| span.saturating_sub(b)).sum::<u64>();
        if let Some(end) = prev_end {
            barrier_ns += lo.saturating_sub(end);
            trace.push("fleet.barrier", end, lo.max(end), Some(root));
        }
        trace.push("fleet.window", lo, hi, Some(root));
        prev_end = Some(hi);
    }
    let advances = (windows * logs.len()) as f64;
    let s = |ns: u64| ns as f64 / 1e9;
    layers.put("fleet.windows", stats.windows as f64);
    layers.put(
        "fleet.events_per_window",
        stats.events as f64 / stats.windows.max(1) as f64,
    );
    layers.put("fleet.messages", stats.messages as f64);
    layers.put("fleet.host_advance_s", s(host_ns));
    layers.put("fleet.frontdoor_advance_s", s(fd_ns));
    layers.put(
        "fleet.frontdoor_time_share",
        fd_ns as f64 / (fd_ns + host_ns).max(1) as f64,
    );
    layers.put(
        "fleet.frontdoor_event_share",
        fd_events as f64 / stats.events.max(1) as f64,
    );
    layers.put("fleet.transit_s", s(transit_ns));
    layers.put("fleet.barrier_s", s(barrier_ns));
    layers.put("fleet.wait_s", s(wait_ns));
    layers.put("fleet.idle_advance_frac", idle as f64 / advances.max(1.0));
    trace.count("fleet.transit_calls", transit_calls as f64);
    trace.count("fleet.threads", threads.len() as f64);
}
