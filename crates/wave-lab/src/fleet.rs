//! Fleet-scale sweep: a simulated datacenter of Wave hosts under the
//! parallel conservative executor.
//!
//! The grid is hosts × executor workers. Every cell runs the *same*
//! fleet (same seed, same workload split, same fabric), so the results
//! must be bit-identical down the worker axis — the sweep asserts that
//! via [`wave_fleet::FleetReport::fingerprint`] — and the only thing
//! the worker count may change is wall-clock time. The headline metric
//! is **fleet sim-events per wall-clock second** and its scaling
//! against the `workers = 1` sequential reference.
//!
//! Wall-clock scaling is machine-dependent: on a single-core container
//! every worker count serializes onto one CPU and the honest speedup is
//! ~1×. The sweep therefore reports, next to the raw speedup, a
//! **core-normalized parallel efficiency** — `rate(w) / (rate(1) ×
//! min(w, cores))` — and records the core count it measured under.

use std::time::Instant;

use wave_fleet::{FleetConfig, LbPolicy};
use wave_sim::SimTime;

use crate::report::{LatencyCdf, PaperRow, Report};

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct FleetSweepConfig {
    /// Host counts to sweep.
    pub host_counts: Vec<u32>,
    /// Executor worker counts per host count (1 must be present: it is
    /// the sequential reference the others are checked against).
    pub worker_counts: Vec<usize>,
    /// Frontdoor load balancer.
    pub lb: LbPolicy,
    /// Emission window per cell.
    pub duration: SimTime,
    /// Warmup excluded from latency/SLO stats.
    pub warmup: SimTime,
    /// Drain window after emission stops.
    pub drain: SimTime,
    /// RNG seed.
    pub seed: u64,
}

impl FleetSweepConfig {
    /// Full-fidelity sweep: 64–256 hosts × workers ∈ {1, 2, 4, 8}.
    pub fn paper() -> Self {
        FleetSweepConfig {
            host_counts: vec![64, 128, 256],
            worker_counts: vec![1, 2, 4, 8],
            lb: LbPolicy::LeastLoaded,
            duration: SimTime::from_ms(60),
            warmup: SimTime::from_ms(10),
            drain: SimTime::from_ms(20),
            seed: 42,
        }
    }

    /// CI-speed sweep: still a full 64-host datacenter end-to-end, but
    /// a short emission window and only workers ∈ {1, 2}.
    pub fn quick() -> Self {
        FleetSweepConfig {
            host_counts: vec![64],
            worker_counts: vec![1, 2],
            duration: SimTime::from_ms(8),
            warmup: SimTime::from_ms(1),
            drain: SimTime::from_ms(10),
            ..Self::paper()
        }
    }

    fn cell(&self, hosts: u32, workers: usize) -> FleetConfig {
        let mut cfg = FleetConfig::quick(hosts);
        cfg.workers = workers;
        cfg.lb = self.lb;
        cfg.duration = self.duration;
        cfg.warmup = self.warmup;
        cfg.drain = self.drain;
        cfg.seed = self.seed;
        cfg
    }
}

/// One (hosts, workers) cell.
#[derive(Debug, Clone)]
pub struct FleetPoint {
    /// Hosts simulated.
    pub hosts: u32,
    /// Executor workers used.
    pub workers: usize,
    /// Simulation events executed across the fleet.
    pub sim_events: u64,
    /// Wall-clock nanoseconds the run took.
    pub wall_ns: u64,
    /// The headline: fleet sim-events per wall-clock second.
    pub events_per_sec: f64,
    /// Conservative windows the executor stepped.
    pub windows: u64,
    /// Cross-host messages delivered.
    pub messages: u64,
    /// Fleet throughput (measured completions/s).
    pub achieved: f64,
    /// Offered fleet load (req/s).
    pub offered: f64,
    /// Round-trip p50 (µs).
    pub p50_us: f64,
    /// Round-trip p99 (µs).
    pub p99_us: f64,
    /// SLO attainment of the latency-critical class (class 0).
    pub slo_class0: f64,
    /// Determinism fingerprint (must match down the worker axis).
    pub fingerprint: u64,
    /// Full round-trip latency ladder.
    pub cdf: LatencyCdf,
}

/// Complete sweep output.
#[derive(Debug, Clone)]
pub struct FleetSweepResult {
    /// CPU cores the wall-clock numbers were measured on.
    pub cores: usize,
    /// All cells, host-major, worker order as configured.
    pub points: Vec<FleetPoint>,
}

impl FleetSweepResult {
    /// The cell for (hosts, workers).
    pub fn point(&self, hosts: u32, workers: usize) -> Option<&FleetPoint> {
        self.points
            .iter()
            .find(|p| p.hosts == hosts && p.workers == workers)
    }

    /// Wall-clock speedup of (hosts, workers) over the sequential cell.
    pub fn speedup(&self, hosts: u32, workers: usize) -> Option<f64> {
        let w1 = self.point(hosts, 1)?.events_per_sec;
        self.point(hosts, workers).map(|p| p.events_per_sec / w1)
    }

    /// Core-normalized parallel efficiency:
    /// `speedup / min(workers, cores)`. On a single-core machine the
    /// denominator is 1 and this reads as "threading overhead"; on a
    /// multi-core machine it reads as scaling efficiency.
    pub fn efficiency(&self, hosts: u32, workers: usize) -> Option<f64> {
        self.speedup(hosts, workers)
            .map(|s| s / workers.min(self.cores).max(1) as f64)
    }
}

/// Runs the sweep. Cells run **serially** — each one is internally
/// parallel and is being wall-clock timed, so overlapping them would
/// corrupt the measurement. Panics if any cell's fingerprint diverges
/// from its host count's sequential reference: determinism is the
/// executor's contract, not a statistical observation.
pub fn run(cfg: &FleetSweepConfig) -> FleetSweepResult {
    assert!(
        cfg.worker_counts.contains(&1),
        "worker_counts must include the sequential reference (1)"
    );
    let mut points = Vec::new();
    for &hosts in &cfg.host_counts {
        let mut reference: Option<u64> = None;
        for &workers in &cfg.worker_counts {
            let cell = cfg.cell(hosts, workers);
            let t0 = Instant::now();
            let rep = cell.run();
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let fingerprint = rep.fingerprint();
            match reference {
                None => reference = Some(fingerprint),
                Some(r) => assert_eq!(
                    fingerprint, r,
                    "fleet({hosts} hosts) diverged at workers={workers}"
                ),
            }
            let slo_class0 = rep
                .slo
                .iter()
                .find(|s| s.class.0 == 0)
                .map(|s| s.fraction())
                .unwrap_or(1.0);
            points.push(FleetPoint {
                hosts,
                workers,
                sim_events: rep.exec.events,
                wall_ns,
                events_per_sec: rep.exec.events as f64 / (wall_ns.max(1) as f64 / 1e9),
                windows: rep.exec.windows,
                messages: rep.exec.messages,
                achieved: rep.achieved,
                offered: rep.offered,
                p50_us: rep.latency.p50.as_us_f64(),
                p99_us: rep.latency.p99.as_us_f64(),
                slo_class0,
                fingerprint,
                cdf: LatencyCdf::from_ladder(
                    format!("fleet {hosts} hosts round-trip"),
                    &rep.latency_cdf,
                ),
            });
        }
    }
    FleetSweepResult {
        cores: wave_sim::par::cores(),
        points,
    }
}

/// Runs the sweep and renders the scaling table. Rows are events/sec
/// per cell; the "paper" column is the host count's sequential
/// reference, so the ratio column *is* the wall-clock speedup.
pub fn report(cfg: &FleetSweepConfig) -> Report {
    let res = run(cfg);
    let mut r = Report::new("Fleet parallel execution (sim-events/sec)");
    for &hosts in &cfg.host_counts {
        let w1 = res.point(hosts, 1).map(|p| p.events_per_sec).unwrap_or(0.0);
        for &workers in &cfg.worker_counts {
            if let Some(p) = res.point(hosts, workers) {
                r.push(PaperRow::new(
                    format!("{hosts} hosts, {workers} workers"),
                    w1,
                    p.events_per_sec,
                    "ev/s",
                ));
            }
        }
    }
    r.note(format!(
        "measured on {} CPU core(s); ratio column = wall-clock speedup vs workers=1",
        res.cores
    ));
    if let (Some(&hosts), Some(&wmax)) = (cfg.host_counts.last(), cfg.worker_counts.iter().max()) {
        if let Some(eff) = res.efficiency(hosts, wmax) {
            r.note(format!(
                "core-normalized parallel efficiency at {hosts} hosts, {wmax} workers: {eff:.2}"
            ));
        }
        if let Some(p) = res.point(hosts, wmax) {
            r.note(format!(
                "{} hosts: achieved {:.0}/{:.0} req/s, p99 {:.1} us, class-0 SLO attainment {:.3}, {} windows, {} fleet messages",
                hosts, p.achieved, p.offered, p.p99_us, p.slo_class0, p.windows, p.messages
            ));
            if !p.cdf.is_empty() {
                r.block(p.cdf.render());
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetSweepConfig {
        FleetSweepConfig {
            host_counts: vec![8],
            worker_counts: vec![1, 2],
            duration: SimTime::from_ms(4),
            warmup: SimTime::from_ms(1),
            drain: SimTime::from_ms(6),
            ..FleetSweepConfig::quick()
        }
    }

    #[test]
    fn sweep_runs_and_worker_axis_is_bit_identical() {
        let res = run(&tiny());
        assert_eq!(res.points.len(), 2);
        let w1 = res.point(8, 1).unwrap();
        let w2 = res.point(8, 2).unwrap();
        assert_eq!(w1.fingerprint, w2.fingerprint);
        assert_eq!(w1.sim_events, w2.sim_events);
        assert!(w1.events_per_sec > 0.0);
        assert!(w1.achieved > 0.0);
    }

    #[test]
    fn efficiency_is_core_normalized() {
        let res = run(&tiny());
        let eff = res.efficiency(8, 2).unwrap();
        let speedup = res.speedup(8, 2).unwrap();
        assert!((eff - speedup / 2f64.min(res.cores as f64)).abs() < 1e-12);
    }

    #[test]
    fn report_renders_with_cdf_block() {
        let r = report(&tiny());
        assert!(!r.rows.is_empty());
        let text = r.render();
        assert!(text.contains("8 hosts, 2 workers"));
        assert!(text.contains("latency CDF"), "missing CDF block:\n{text}");
    }
}
