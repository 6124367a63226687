//! Engine-throughput microbenches: sim-events/sec as a tracked artifact.
//!
//! The ROADMAP's fleet-scale and trace-driven directions both bottleneck
//! on the simulator's own hot path, so raw engine speed is a first-class
//! deliverable: this module measures **sim-events per wall-clock second**
//! for three workload shapes and [`write_bench_json`] persists them to
//! `BENCH_engine.json` so speedups (or regressions) are visible
//! PR-over-PR.
//!
//! * **`pure_engine`** — the DES engine alone: a fixed population of
//!   self-rearming timers with a deterministic mixed-horizon delay table
//!   (mostly short-horizon, the timer wheel's home turf, plus a far tail
//!   that exercises the overflow path). No model work, so events/sec is
//!   the engine's schedule+dispatch ceiling.
//! * **`pure_engine_cancel`** — the same population where most timers
//!   are cancelled and re-armed before firing (the network-timeout shape
//!   that motivates timer wheels); measures the cancellation path.
//! * **`sched_sim`** — a full Fig.4a-shaped [`SchedSim`] run (FIFO,
//!   offloaded, saturating load): events/sec with real model work per
//!   event, i.e. what a `wave-lab` sweep actually feels.
//! * **`sharded_sol`** — [`ShardedSolRunner`] iterations (K=2): the
//!   memory agent's hot loop. This path is not event-driven, so its
//!   "event" is one *due-batch scan*; it tracks the dense-indexing /
//!   hashing work in the layers above the engine.
//! * **`fleet_w{1,2,4,8}`** — a full simulated datacenter
//!   ([`FleetConfig`]) under the conservative parallel executor at each
//!   worker count. All four rows execute the bit-identical event
//!   stream; the wall-clock deltas are the executor's scaling, summarized
//!   in the artifact's `fleet` cell ([`fleet_cell`]) together with the
//!   core count and a core-normalized parallel efficiency.
//!
//! The recorded [`PRE_REFACTOR_BASELINE`] is the measurement taken at
//! the commit before the timer-wheel/memory-layout overhaul (PR 6), on
//! the same machine class that produced the first committed
//! `BENCH_engine.json`; [`report`] prints current-vs-baseline so the
//! speedup is auditable from the artifact alone.

use std::time::Instant;

use wave_core::tenant::Arbitration;
use wave_core::{OptLevel, TenantRegistry, TenantSpec};
use wave_fleet::FleetConfig;
use wave_ghost::policies::FifoPolicy;
use wave_ghost::sim::{Placement, SchedConfig, SchedSim};
use wave_kvstore::footprint::{AccessPattern, DbFootprint, FootprintConfig};
use wave_memmgr::{RunnerConfig, ShardedSolRunner, SolConfig};
use wave_sim::cpu::{CoreClass, CpuModel};
use wave_sim::{Sim, SimTime};

use crate::report::{PaperRow, Report};

/// Pure-engine events/sec measured at the pre-refactor commit (binary
/// heap + `HashSet` lazy cancellation + per-event boxed-closure
/// allocation), release mode. The acceptance gate for the overhaul is
/// `pure_engine >= 1.5x` this number on the machine that recorded it.
pub const PRE_REFACTOR_BASELINE: [(&str, f64); 4] = [
    ("pure_engine", 7.6e6),
    ("pure_engine_cancel", 2.1e6),
    ("sched_sim", 1.8e5),
    ("sharded_sol", 2.7e6),
];

/// The recorded baseline for a workload, if one exists.
pub fn baseline(workload: &str) -> Option<f64> {
    PRE_REFACTOR_BASELINE
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|&(_, v)| v)
}

/// Engine-throughput sweep configuration.
#[derive(Debug, Clone)]
pub struct EngineBenchConfig {
    /// Events to execute in each pure-engine workload.
    pub pure_events: u64,
    /// Concurrent self-rearming timers in the pure-engine workloads.
    pub pure_timers: usize,
    /// Simulated duration of the `sched_sim` workload.
    pub sched_duration: SimTime,
    /// Worker cores of the `sched_sim` workload.
    pub sched_workers: u32,
    /// Iterations of the `sharded_sol` workload.
    pub sol_iterations: u32,
    /// Address-space scale of the `sharded_sol` workload (1.0 = paper).
    pub sol_scale: f64,
    /// Hosts in the `fleet_w*` workloads.
    pub fleet_hosts: u32,
    /// Emission window of the `fleet_w*` workloads.
    pub fleet_duration: SimTime,
    /// Drain window of the `fleet_w*` workloads.
    pub fleet_drain: SimTime,
}

impl EngineBenchConfig {
    /// Full-fidelity measurement (the committed `BENCH_engine.json`).
    pub fn paper() -> Self {
        EngineBenchConfig {
            pure_events: 2_000_000,
            pure_timers: 4_096,
            sched_duration: SimTime::from_ms(300),
            sched_workers: 16,
            sol_iterations: 6,
            sol_scale: 0.5,
            fleet_hosts: 64,
            fleet_duration: SimTime::from_ms(20),
            fleet_drain: SimTime::from_ms(10),
        }
    }

    /// CI-speed measurement (same workloads, smaller budgets).
    pub fn quick() -> Self {
        EngineBenchConfig {
            pure_events: 300_000,
            pure_timers: 1_024,
            sched_duration: SimTime::from_ms(60),
            sol_iterations: 2,
            sol_scale: 0.25,
            fleet_hosts: 16,
            fleet_duration: SimTime::from_ms(6),
            fleet_drain: SimTime::from_ms(8),
            ..Self::paper()
        }
    }
}

/// One measured workload.
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// Workload id (`pure_engine`, `pure_engine_cancel`, `sched_sim`,
    /// `sharded_sol`; `sched_sim_tenant` is measurable via [`run_one`]
    /// for the tenancy-overhead gate but not part of the tracked
    /// artifact rows).
    pub workload: &'static str,
    /// Simulation events executed (due-batch scans for `sharded_sol`).
    pub events: u64,
    /// Wall-clock time the run took.
    pub wall_ns: u64,
    /// The headline number: events per wall-clock second.
    pub events_per_sec: f64,
}

/// The full engine-throughput measurement.
#[derive(Debug, Clone)]
pub struct EngineBenchResult {
    /// One row per workload.
    pub rows: Vec<EngineRow>,
}

impl EngineBenchResult {
    /// Events/sec for a workload, if measured.
    pub fn events_per_sec(&self, workload: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.workload == workload)
            .map(|r| r.events_per_sec)
    }
}

/// The artifact schema `BENCH_engine.json` is written under. v3 adds
/// the `fleet` cell (parallel-executor scaling, per-worker-count rows,
/// core-normalized efficiency) and the `fleet_w*` workload rows.
pub const SCHEMA: &str = "wave-engine-bench/v3";

/// The persisted `BENCH_engine.json` artifact: the freshly measured
/// rows plus the cross-run context carried forward from the committed
/// file — quick-mode reference rates (the CI regression gate compares
/// quick-vs-quick, so machine class largely cancels) and the dated
/// per-PR history.
#[derive(Debug, Clone)]
pub struct BenchArtifact {
    /// Which budget produced [`Self::result`]: `"paper"` or `"quick"`.
    pub mode: String,
    /// CPU cores of the measuring machine (fleet scaling context).
    pub cores: usize,
    /// The measured rows.
    pub result: EngineBenchResult,
    /// Quick-mode events/sec recorded on the same machine (and in the
    /// same run) as the committed paper rows.
    pub quick_reference: Vec<(String, f64)>,
    /// Raw history entries (one JSON object per element), oldest first.
    /// Preserved verbatim across regenerations so the artifact keeps its
    /// own PR-over-PR record.
    pub history: Vec<String>,
}

impl BenchArtifact {
    /// Renders the artifact as `BENCH_engine.json` (hand-rolled JSON:
    /// the workspace has no serializer dependency, and the schema is
    /// flat).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"schema\": \"{SCHEMA}\",\n");
        out.push_str("  \"unit\": \"sim-events per wall-clock second\",\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str("  \"pre_refactor_baseline\": {\n");
        for (i, (w, v)) in PRE_REFACTOR_BASELINE.iter().enumerate() {
            let sep = if i + 1 == PRE_REFACTOR_BASELINE.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!("    \"{w}\": {v:.1}{sep}\n"));
        }
        out.push_str("  },\n  \"quick_reference\": {\n");
        for (i, (w, v)) in self.quick_reference.iter().enumerate() {
            let sep = if i + 1 == self.quick_reference.len() {
                ""
            } else {
                ","
            };
            // Rates are large and one decimal suffices; small entries
            // (the fleet efficiency ratio) need real precision or the
            // committed gate floor rounds away from what was measured.
            if *v < 100.0 {
                out.push_str(&format!("    \"{w}\": {v:.4}{sep}\n"));
            } else {
                out.push_str(&format!("    \"{w}\": {v:.1}{sep}\n"));
            }
        }
        out.push_str("  },\n  \"workloads\": [\n");
        for (i, r) in self.result.rows.iter().enumerate() {
            let sep = if i + 1 == self.result.rows.len() {
                ""
            } else {
                ","
            };
            let speedup = baseline(r.workload)
                .map(|b| format!(", \"speedup_vs_baseline\": {:.3}", r.events_per_sec / b))
                .unwrap_or_default();
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"events\": {}, \"wall_ns\": {}, \
                 \"events_per_sec\": {:.1}{}}}{}\n",
                r.workload, r.events, r.wall_ns, r.events_per_sec, speedup, sep
            ));
        }
        if let Some(fleet) = fleet_cell(&self.result, self.cores) {
            out.push_str("  ],\n  \"fleet\": {\n");
            out.push_str(&format!("    \"cores\": {},\n", fleet.cores));
            out.push_str("    \"workers\": [\n");
            for (i, &(w, rate)) in fleet.rows.iter().enumerate() {
                let sep = if i + 1 == fleet.rows.len() { "" } else { "," };
                out.push_str(&format!(
                    "      {{\"workers\": {w}, \"events_per_sec\": {rate:.1}}}{sep}\n"
                ));
            }
            out.push_str("    ],\n");
            out.push_str(&format!(
                "    \"best_workers\": {},\n    \"speedup_best\": {:.3},\n    \
                 \"parallel_efficiency\": {:.3}\n  }},\n  \"history\": [\n",
                fleet.best_workers, fleet.speedup_best, fleet.parallel_efficiency
            ));
        } else {
            out.push_str("  ],\n  \"history\": [\n");
        }
        for (i, h) in self.history.iter().enumerate() {
            let sep = if i + 1 == self.history.len() { "" } else { "," };
            out.push_str(&format!("    {h}{sep}\n"));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Extracts the `"quick_reference"` rates from a committed artifact by
/// raw-line scanning (no JSON parser in the tree). Empty for v1 files.
pub fn extract_quick_reference(json: &str) -> Vec<(String, f64)> {
    let Some(start) = json.find("\"quick_reference\": {") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in json[start..].lines().skip(1) {
        let line = line.trim();
        if line.starts_with('}') {
            break;
        }
        let Some((name, rest)) = line.split_once(':') else {
            continue;
        };
        if let Ok(v) = rest.trim().trim_end_matches(',').parse::<f64>() {
            out.push((name.trim().trim_matches('"').to_string(), v));
        }
    }
    out
}

/// The committed quick-reference rate for one workload, if recorded.
pub fn quick_reference_rate(json: &str, workload: &str) -> Option<f64> {
    extract_quick_reference(json)
        .into_iter()
        .find(|(w, _)| w == workload)
        .map(|(_, v)| v)
}

/// Extracts the raw `"history"` entries from a committed artifact,
/// oldest first, so a regeneration appends rather than rewrites. Empty
/// for v1 files.
pub fn extract_history(json: &str) -> Vec<String> {
    let Some(start) = json.find("\"history\": [") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in json[start..].lines().skip(1) {
        let line = line.trim();
        if line.starts_with(']') {
            break;
        }
        if !line.is_empty() {
            out.push(line.trim_end_matches(',').to_string());
        }
    }
    out
}

/// Formats one dated history entry from a paper-mode measurement.
pub fn history_entry(date: &str, result: &EngineBenchResult) -> String {
    let mut s = format!("{{\"date\": \"{date}\"");
    for r in &result.rows {
        s.push_str(&format!(", \"{}\": {:.1}", r.workload, r.events_per_sec));
    }
    s.push('}');
    s
}

/// Model for the pure-engine workloads: each event re-arms itself until
/// the global budget is spent; a counter is the only model state.
struct TimerModel {
    fired: u64,
    budget: u64,
}

/// Deterministic mixed-horizon delay table (ns). Mostly short-horizon
/// (µs-scale, the dominant shape in the scheduling sims) with a far tail
/// that lands in the engine's overflow structure.
const DELAYS: [u64; 16] = [
    130, 270, 410, 550, 700, 830, 970, 1_100, 1_300, 1_700, 2_300, 3_100, 4_300, 6_700, 90_000,
    1_000_000,
];

/// Runs the `pure_engine` workload: `timers` self-rearming events (each
/// event is its delay-table lane), no cancellations. Returns (events,
/// wall).
fn run_pure(timers: usize, events: u64) -> (u64, u64) {
    let mut sim: Sim<usize> = Sim::new();
    let mut model = TimerModel {
        fired: 0,
        budget: events,
    };
    for i in 0..timers {
        let lane = i % DELAYS.len();
        sim.schedule(SimTime::from_ns(DELAYS[lane] + i as u64), lane);
    }
    let t0 = Instant::now();
    sim.run(|s, lane| rearm(&mut model, s, lane));
    let wall = t0.elapsed().as_nanos() as u64;
    (model.fired, wall)
}

fn rearm(m: &mut TimerModel, s: &mut Sim<usize>, lane: usize) {
    m.fired += 1;
    if m.fired >= m.budget {
        if m.fired == m.budget {
            s.stop();
        }
        return;
    }
    // Rotate the lane so every timer walks the whole horizon mix.
    let next = (lane + 1) % DELAYS.len();
    s.schedule_in(SimTime::from_ns(DELAYS[next]), next);
}

/// Runs the `pure_engine_cancel` workload: every fired event schedules a
/// companion "timeout" that is cancelled on the next firing — the
/// timer-wheel shape where most armed timers never fire. Each event is
/// its `(lane, timer slot)`. Returns (events, wall).
fn run_pure_cancel(timers: usize, events: u64) -> (u64, u64) {
    use wave_sim::EventId;
    struct CancelModel {
        fired: u64,
        budget: u64,
        timeouts: Vec<Option<EventId>>,
    }
    fn tick(m: &mut CancelModel, s: &mut Sim<(usize, usize)>, (lane, slot): (usize, usize)) {
        m.fired += 1;
        if m.fired >= m.budget {
            if m.fired == m.budget {
                s.stop();
            }
            return;
        }
        // The previous timeout did not fire in time: cancel and re-arm.
        if let Some(id) = m.timeouts[slot].take() {
            s.cancel(id);
        }
        let next = (lane + 1) % DELAYS.len();
        let timeout = s.schedule_in(SimTime::from_ns(DELAYS[next] * 4), (next, slot));
        m.timeouts[slot] = Some(timeout);
        s.schedule_in(SimTime::from_ns(DELAYS[next]), (next, slot));
    }
    let mut sim: Sim<(usize, usize)> = Sim::new();
    let mut model = CancelModel {
        fired: 0,
        budget: events,
        timeouts: vec![None; timers],
    };
    for i in 0..timers {
        let lane = i % DELAYS.len();
        sim.schedule(SimTime::from_ns(DELAYS[lane] + i as u64), (lane, i));
    }
    let t0 = Instant::now();
    sim.run(|s, ev| tick(&mut model, s, ev));
    let wall = t0.elapsed().as_nanos() as u64;
    (model.fired, wall)
}

/// Runs the `sched_sim` workload and returns (events, wall).
fn run_sched(cfg: &EngineBenchConfig) -> (u64, u64) {
    let mut sc = SchedConfig::new(cfg.sched_workers, Placement::Offloaded, OptLevel::full());
    sc.duration = cfg.sched_duration;
    sc.warmup = SimTime::from_ms(5);
    // Saturating load so the event stream is dense (capacity ~= workers
    // per 10 us service time).
    sc.workload
        .set_offered(cfg.sched_workers as f64 * 100_000.0 * 1.2);
    let sim = SchedSim::new(sc, Box::new(FifoPolicy::new()));
    let t0 = Instant::now();
    let report = sim.run();
    let wall = t0.elapsed().as_nanos() as u64;
    (report.events_executed, wall)
}

/// Runs the `sched_sim_tenant` workload — the `sched_sim` deployment
/// admitted through a single-tenant [`TenantRegistry`] — and returns
/// (events, wall). A lone tenant's `nic_share` is exactly 1.0 and its
/// pickup stays interrupt-driven, so the simulated run is bit-identical
/// to `sched_sim`; any events/sec delta against the plain cell is pure
/// tenancy-wrapping overhead (the CI gate holds it under 5%).
fn run_sched_tenant(cfg: &EngineBenchConfig) -> (u64, u64) {
    let mut reg = TenantRegistry::new(Arbitration::WeightedFair, cfg.sched_workers as usize);
    let id = reg.register(TenantSpec::new("solo", 1, cfg.sched_workers));
    let demand = 0.5; // arbitrary < 1.0: a lone tenant keeps its demand
    let share = reg.shares(&[demand])[0];
    let mut sc = SchedConfig::new(cfg.sched_workers, Placement::Offloaded, OptLevel::full());
    sc.duration = cfg.sched_duration;
    sc.warmup = SimTime::from_ms(5);
    sc.workload
        .set_offered(cfg.sched_workers as f64 * 100_000.0 * 1.2);
    sc.nic_share = (share / demand).min(1.0);
    sc.poll_pickup = reg.poll_pickup(id);
    let sim = SchedSim::new(sc, Box::new(FifoPolicy::new()));
    let t0 = Instant::now();
    let report = sim.run();
    let wall = t0.elapsed().as_nanos() as u64;
    (report.events_executed, wall)
}

/// Runs the `sharded_sol` workload and returns (events, wall), where one
/// "event" is one due-batch scan.
fn run_sharded_sol(cfg: &EngineBenchConfig) -> (u64, u64) {
    let fp = DbFootprint::new(
        FootprintConfig::paper(cfg.sol_scale),
        AccessPattern::Scattered,
        42,
    );
    let runner_cfg = RunnerConfig::paper(CoreClass::NicArm, 4);
    let mut sharded = ShardedSolRunner::new(
        runner_cfg,
        CpuModel::mount_evans(),
        2,
        SolConfig::paper(),
        fp.batches(),
        42,
    )
    // Sequential execution: this measures per-core scan throughput, not
    // thread fan-out.
    .with_threads(false);
    let t0 = Instant::now();
    let mut scans = 0u64;
    let mut now = SimTime::ZERO;
    for _ in 0..cfg.sol_iterations {
        let (stats, cost) = sharded.run_iteration(&fp, now);
        scans += stats.scanned;
        now += cost.wall();
    }
    let wall = t0.elapsed().as_nanos() as u64;
    (scans, wall)
}

/// Runs one `fleet_w{workers}` workload — the full simulated
/// datacenter under the conservative parallel executor — and returns
/// (events, wall). Events are fleet-wide sim events as counted by the
/// executor; every worker count executes the bit-identical event
/// stream, so the rows differ only in wall-clock time.
fn run_fleet(cfg: &EngineBenchConfig, workers: usize) -> (u64, u64) {
    let mut fc = FleetConfig::quick(cfg.fleet_hosts);
    fc.workers = workers;
    fc.duration = cfg.fleet_duration;
    fc.warmup = SimTime::from_ms(1);
    fc.drain = cfg.fleet_drain;
    let t0 = Instant::now();
    let rep = fc.run();
    let wall = t0.elapsed().as_nanos() as u64;
    (rep.exec.events, wall)
}

/// Worker counts of the `fleet_w*` rows.
pub const FLEET_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Every workload id, in report order.
pub const WORKLOADS: [&str; 8] = [
    "pure_engine",
    "pure_engine_cancel",
    "sched_sim",
    "sharded_sol",
    "fleet_w1",
    "fleet_w2",
    "fleet_w4",
    "fleet_w8",
];

/// The fleet scaling cell of the v3 artifact, computed from the
/// `fleet_w*` rows.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCell {
    /// Cores the rows were measured on.
    pub cores: usize,
    /// `(workers, events_per_sec)` per row, ascending workers.
    pub rows: Vec<(usize, f64)>,
    /// The worker count with the highest rate.
    pub best_workers: usize,
    /// `rate(best) / rate(1)` — the raw wall-clock speedup. The ≥3×
    /// target at 8 workers is only reachable with ≥8 cores; on fewer
    /// cores the honest ceiling is `min(workers, cores)`.
    pub speedup_best: f64,
    /// Core-normalized parallel efficiency:
    /// `max over w>1 of rate(w) / (rate(1) × min(w, cores))`. Reads as
    /// scaling efficiency on a multi-core machine and as threading
    /// overhead (≈1.0 is ideal) on a single-core one, so it is
    /// comparable across machine classes — which is what the CI gate
    /// needs.
    pub parallel_efficiency: f64,
}

/// Computes the fleet cell, or `None` if the result has no complete
/// `fleet_w*` rows (e.g. a partial run).
pub fn fleet_cell(result: &EngineBenchResult, cores: usize) -> Option<FleetCell> {
    let mut rows = Vec::with_capacity(FLEET_WORKERS.len());
    for &w in &FLEET_WORKERS {
        rows.push((w, result.events_per_sec(&format!("fleet_w{w}"))?));
    }
    let w1 = rows[0].1;
    if w1 <= 0.0 {
        return None;
    }
    let &(best_workers, best_rate) = rows
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("rows is non-empty");
    let parallel_efficiency = rows[1..]
        .iter()
        .map(|&(w, rate)| rate / (w1 * w.min(cores.max(1)) as f64))
        .fold(f64::NEG_INFINITY, f64::max);
    Some(FleetCell {
        cores,
        rows,
        best_workers,
        speedup_best: best_rate / w1,
        parallel_efficiency,
    })
}

/// Runs one workload by id. Returns `None` for an unknown id.
pub fn run_one(cfg: &EngineBenchConfig, workload: &str) -> Option<EngineRow> {
    let (workload, (events, wall_ns)) = match workload {
        "pure_engine" => ("pure_engine", run_pure(cfg.pure_timers, cfg.pure_events)),
        "pure_engine_cancel" => (
            "pure_engine_cancel",
            run_pure_cancel(cfg.pure_timers, cfg.pure_events),
        ),
        "sched_sim" => ("sched_sim", run_sched(cfg)),
        "sched_sim_tenant" => ("sched_sim_tenant", run_sched_tenant(cfg)),
        "sharded_sol" => ("sharded_sol", run_sharded_sol(cfg)),
        "fleet_w1" => ("fleet_w1", run_fleet(cfg, 1)),
        "fleet_w2" => ("fleet_w2", run_fleet(cfg, 2)),
        "fleet_w4" => ("fleet_w4", run_fleet(cfg, 4)),
        "fleet_w8" => ("fleet_w8", run_fleet(cfg, 8)),
        _ => return None,
    };
    Some(EngineRow {
        workload,
        events,
        wall_ns,
        events_per_sec: events as f64 / (wall_ns.max(1) as f64 / 1e9),
    })
}

/// Runs all tracked workloads.
pub fn run(cfg: &EngineBenchConfig) -> EngineBenchResult {
    EngineBenchResult {
        rows: WORKLOADS
            .iter()
            .map(|w| run_one(cfg, w).expect("known workload"))
            .collect(),
    }
}

/// Writes the artifact to `path` (conventionally `BENCH_engine.json`
/// in the repo root, so the artifact diffs PR-over-PR).
pub fn write_bench_json(path: &std::path::Path, artifact: &BenchArtifact) -> std::io::Result<()> {
    std::fs::write(path, artifact.to_json())
}

/// Builds the engine-throughput report: the "paper" column is the
/// recorded pre-refactor baseline, so the ratio column *is* the speedup.
pub fn report(cfg: &EngineBenchConfig) -> Report {
    report_from(&run(cfg))
}

/// Builds the report from an existing measurement.
pub fn report_from(result: &EngineBenchResult) -> Report {
    let mut r = Report::new("Engine throughput (sim-events/sec)");
    for row in &result.rows {
        r.push(PaperRow::new(
            row.workload,
            baseline(row.workload).unwrap_or(0.0),
            row.events_per_sec,
            "ev/s",
        ));
    }
    r.note(
        "'paper' column = recorded pre-refactor baseline (binary-heap engine), same machine class"
            .to_string(),
    );
    r.note("BENCH_engine.json carries the same rows for PR-over-PR tracking".to_string());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_engine_executes_exact_budget() {
        let (events, _) = run_pure(64, 5_000);
        assert_eq!(events, 5_000);
    }

    #[test]
    fn cancel_workload_executes_exact_budget() {
        let (events, _) = run_pure_cancel(64, 5_000);
        assert_eq!(events, 5_000);
    }

    #[test]
    fn all_workloads_report_positive_throughput() {
        let cfg = EngineBenchConfig {
            pure_events: 20_000,
            pure_timers: 256,
            sched_duration: SimTime::from_ms(10),
            sched_workers: 4,
            sol_iterations: 1,
            sol_scale: 0.05,
            fleet_hosts: 4,
            fleet_duration: SimTime::from_ms(2),
            fleet_drain: SimTime::from_ms(4),
        };
        let result = run(&cfg);
        assert_eq!(result.rows.len(), WORKLOADS.len());
        for row in &result.rows {
            assert!(row.events > 0, "{} ran no events", row.workload);
            assert!(
                row.events_per_sec > 0.0,
                "{} has no throughput",
                row.workload
            );
        }
        // The fleet rows execute the bit-identical event stream at
        // every worker count.
        let fleet_events: Vec<u64> = result
            .rows
            .iter()
            .filter(|r| r.workload.starts_with("fleet_w"))
            .map(|r| r.events)
            .collect();
        assert_eq!(fleet_events.len(), FLEET_WORKERS.len());
        assert!(
            fleet_events.iter().all(|&e| e == fleet_events[0]),
            "fleet event counts diverged across workers: {fleet_events:?}"
        );
        let cell = fleet_cell(&result, wave_sim::par::cores()).expect("fleet rows present");
        assert_eq!(cell.rows.len(), 4);
        assert!(cell.speedup_best > 0.0);
        assert!(cell.parallel_efficiency > 0.0);
    }

    fn sample_artifact() -> BenchArtifact {
        BenchArtifact {
            mode: "paper".to_string(),
            cores: 8,
            result: EngineBenchResult {
                rows: vec![EngineRow {
                    workload: "pure_engine",
                    events: 10,
                    wall_ns: 100,
                    events_per_sec: 1e8,
                }],
            },
            quick_reference: vec![
                ("pure_engine".to_string(), 5e7),
                ("sched_sim".to_string(), 2e5),
            ],
            history: vec![
                "{\"date\": \"2026-08-01\", \"pure_engine\": 9.5e7}".to_string(),
                "{\"date\": \"2026-08-08\", \"pure_engine\": 1e8}".to_string(),
            ],
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = sample_artifact().to_json();
        assert!(json.contains("\"schema\": \"wave-engine-bench/v3\""));
        assert!(json.contains("\"mode\": \"paper\""));
        assert!(json.contains("\"pre_refactor_baseline\""));
        assert!(json.contains("\"quick_reference\""));
        assert!(json.contains("\"history\""));
        assert!(json.contains("\"pure_engine\""));
        assert!(json.contains("\"speedup_vs_baseline\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "balanced brackets"
        );
    }

    #[test]
    fn quick_reference_and_history_round_trip() {
        let artifact = sample_artifact();
        let json = artifact.to_json();
        assert_eq!(extract_quick_reference(&json), artifact.quick_reference);
        assert_eq!(quick_reference_rate(&json, "sched_sim"), Some(2e5));
        assert_eq!(quick_reference_rate(&json, "missing"), None);
        assert_eq!(extract_history(&json), artifact.history);
        // Regenerating with one appended entry preserves the old ones
        // verbatim — the artifact is its own PR-over-PR record.
        let mut next = artifact.clone();
        next.history
            .push(history_entry("2026-08-15", &artifact.result));
        let json2 = next.to_json();
        let hist = extract_history(&json2);
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[..2], artifact.history[..]);
        assert!(hist[2].contains("\"date\": \"2026-08-15\""));
        assert!(hist[2].contains("\"pure_engine\": 100000000.0"));
    }

    #[test]
    fn fleet_rows_emit_the_fleet_cell() {
        let mut artifact = sample_artifact();
        artifact.result.rows = FLEET_WORKERS
            .iter()
            .enumerate()
            .map(|(i, &w)| EngineRow {
                workload: ["fleet_w1", "fleet_w2", "fleet_w4", "fleet_w8"][i],
                events: 1000,
                wall_ns: 1_000_000 / (w as u64).min(2), // scales to 2 cores
                events_per_sec: 1e6 * (w as f64).min(2.0),
            })
            .collect();
        artifact.cores = 2;
        let json = artifact.to_json();
        assert!(json.contains("\"fleet\": {"));
        assert!(json.contains("\"cores\": 2"));
        assert!(json.contains("\"parallel_efficiency\": 1.000"));
        assert!(json.contains("\"workers\": 8"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let cell = fleet_cell(&artifact.result, 2).unwrap();
        assert_eq!(cell.speedup_best, 2.0);
        assert_eq!(cell.parallel_efficiency, 1.0);
        assert!(cell.best_workers >= 2);
    }

    #[test]
    fn v1_artifacts_extract_as_empty() {
        let v1 = "{\n  \"schema\": \"wave-engine-bench/v1\",\n  \"workloads\": []\n}\n";
        assert!(extract_quick_reference(v1).is_empty());
        assert!(extract_history(v1).is_empty());
    }

    #[test]
    fn tenant_wrapped_sched_sim_runs_the_identical_simulation() {
        // The overhead gate compares wall-clock rates, which only
        // makes sense if both cells execute the same event stream:
        // the T=1 wrapping must not change the simulation at all.
        let cfg = EngineBenchConfig {
            pure_events: 1,
            pure_timers: 1,
            sched_duration: SimTime::from_ms(10),
            sched_workers: 4,
            sol_iterations: 1,
            sol_scale: 0.05,
            fleet_hosts: 2,
            fleet_duration: SimTime::from_ms(1),
            fleet_drain: SimTime::from_ms(2),
        };
        let plain = run_one(&cfg, "sched_sim").expect("known workload");
        let tenant = run_one(&cfg, "sched_sim_tenant").expect("known workload");
        assert_eq!(plain.events, tenant.events, "wrapping changed the sim");
    }

    #[test]
    fn baseline_rows_exist_for_all_workloads() {
        for w in [
            "pure_engine",
            "pure_engine_cancel",
            "sched_sim",
            "sharded_sol",
        ] {
            assert!(baseline(w).is_some(), "no recorded baseline for {w}");
        }
    }
}
