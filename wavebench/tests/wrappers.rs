//! The timing wrappers must be invisible to the simulation: a wrapped
//! run produces bit-identical simulated outputs.

use std::time::Instant;

use wave_core::OptLevel;
use wave_fleet::{FatTreeFabric, FleetConfig};
use wave_ghost::policies::FifoPolicy;
use wave_ghost::{Placement, SchedConfig, SchedReport, SchedSim};
use wave_sim::fleet::FleetExecutor;
use wave_sim::SimTime;
use wavebench::fleet_dc::{assemble_report, build_nodes};
use wavebench::wrappers::{PolicyClock, TimedNode, TimedPolicy, TimedTransit};

fn small_host() -> SchedConfig {
    let mut cfg = SchedConfig::new(8, Placement::Offloaded, OptLevel::full());
    cfg.agents = 2;
    cfg.steal = true;
    cfg.duration = SimTime::from_ms(20);
    cfg.warmup = SimTime::from_ms(2);
    cfg
}

/// Every simulated field of a report that a wrapper could perturb.
fn sim_fields(r: &SchedReport) -> impl PartialEq + std::fmt::Debug {
    (
        (r.events_executed, r.completed, r.dropped, r.agent_decisions),
        (r.msix_sent, r.prestage_hits, r.prestage_misses),
        r.latency,
        r.diag,
        r.per_agent_decisions.clone(),
        r.latency_cdf.clone(),
    )
}

#[test]
fn timed_policy_leaves_the_host_bit_identical() {
    let plain = SchedSim::with_policy_factory(small_host(), |_| Box::new(FifoPolicy::new())).run();
    let clock = PolicyClock::shared();
    let timed = SchedSim::with_policy_factory(small_host(), |_| {
        Box::new(TimedPolicy::new(Box::new(FifoPolicy::new()), clock.clone()))
    })
    .run();
    assert!(plain.completed > 0);
    assert_eq!(sim_fields(&plain), sim_fields(&timed));
    assert!(clock.calls() > 0, "the wrapper saw no policy call");
}

#[test]
fn slicing_the_advance_leaves_the_host_bit_identical() {
    let plain = SchedSim::with_policy_factory(small_host(), |_| Box::new(FifoPolicy::new())).run();
    let cfg = small_host();
    let mut stepper =
        SchedSim::with_policy_factory(cfg.clone(), |_| Box::new(FifoPolicy::new())).into_stepper();
    let mut events = 0;
    for k in 1..=200u64 {
        events += stepper.advance(cfg.duration * k / 200);
    }
    let sliced = stepper.finish();
    assert_eq!(events, sliced.events_executed);
    assert_eq!(sim_fields(&plain), sim_fields(&sliced));
}

fn small_fleet(workers: usize) -> FleetConfig {
    let mut cfg = FleetConfig::quick(6);
    cfg.duration = SimTime::from_ms(4);
    cfg.warmup = SimTime::from_ms(1);
    cfg.drain = SimTime::from_ms(4);
    cfg.workers = workers;
    cfg
}

#[test]
fn timed_nodes_and_transit_rebuild_the_fleet_bit_identically() {
    for workers in [1, 2] {
        let cfg = small_fleet(workers);
        let reference = cfg.clone().run();
        let epoch = Instant::now();
        let clock = PolicyClock::shared();
        let nodes = build_nodes(&cfg, |_| {
            Box::new(TimedPolicy::new(Box::new(FifoPolicy::new()), clock.clone()))
        });
        let timed: Vec<_> = nodes
            .into_iter()
            .map(|n| TimedNode::new(n, epoch))
            .collect();
        let mut fabric = FatTreeFabric::new(cfg.fabric, cfg.hosts);
        let mut exec = FleetExecutor::new(timed, cfg.fabric.min_latency(), cfg.workers);
        let mut transit = TimedTransit::new(&mut fabric);
        let stats = exec.run_until(cfg.duration + cfg.drain, &mut transit);
        assert!(transit.calls > 0, "the transit wrapper saw no message");
        let (nodes, logs): (Vec<_>, Vec<_>) = exec
            .into_hosts()
            .into_iter()
            .map(TimedNode::into_parts)
            .unzip();
        assert!(logs.iter().all(|l| l.len() as u64 == stats.windows));
        let (rebuilt, _) = assemble_report(&cfg, nodes, &fabric, stats);
        assert_eq!(rebuilt.exec, reference.exec, "workers={workers}");
        assert_eq!(
            rebuilt.fingerprint(),
            reference.fingerprint(),
            "workers={workers}: the wrapped fleet diverged from FleetConfig::run"
        );
    }
}
