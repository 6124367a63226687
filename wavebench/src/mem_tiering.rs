//! `mem_tiering`: the K=2 sharded SOL memory agent (threaded) over a
//! skewed `DbFootprint`, driven by a roaming-window `PhaseSchedule`
//! with batch rebalancing every 1.2 s, for 200 iterations 600 ms apart
//! — three 38.4 s SOL epochs, each ending in `epoch_migrate`.

use std::time::Instant;

use wave_core::shard_map::RebalanceConfig;
use wave_core::workload::{MemPhase, PhaseSchedule};
use wave_kvstore::{AccessPattern, DbFootprint, FootprintConfig};
use wave_memmgr::{RunnerConfig, ShardedCost, ShardedSolRunner, SolConfig};
use wave_sim::cpu::{CoreClass, CpuModel};
use wave_sim::SimTime;

use crate::metrics::{median, quantile, Metrics, PER_LAYER, SIM_DETAIL};
use crate::trace::Trace;
use crate::{check, Outcome, Run, TracedRun, Workload};

/// Address-space scale (1.0 = the paper's 102 GiB).
const SCALE: f64 = 0.1;
/// Agent shards.
const SHARDS: u32 = 2;
/// Fraction of the batch space the roaming ambivalent window covers.
const FLAPPY: f64 = 0.5;
/// Scan iterations.
const ITERATIONS: u64 = 200;
/// Time between iterations.
const PERIOD: SimTime = SimTime::from_ms(600);
/// Time between phase changes (the window moves one shard slice on).
const PHASE_PERIOD: SimTime = SimTime::from_secs(6);
/// Phases applied within the run (one every 6 s up to 119.4 s).
const PHASES: u64 = 19;
/// SOL epochs within the run (every 38.4 s up to 119.4 s).
const EPOCHS: u64 = 3;

/// The workload at one seed.
pub struct MemTiering {
    seed: u64,
    fp_cfg: FootprintConfig,
}

/// Everything constructed before the first iteration.
struct MemSim {
    footprint: DbFootprint,
    runner: ShardedSolRunner,
    schedule: PhaseSchedule,
}

/// The layer boundaries the traced run times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// `ShardedSolRunner::run_phased_iteration`.
    Iteration,
    /// `ShardedSolRunner::maybe_rebalance`.
    Rebalance,
    /// `ShardedSolRunner::epoch_migrate`.
    Migrate,
}

/// Observes the iteration loop's calls into the memory manager.
trait Probe {
    /// Runs `f`, the call at `leg`.
    fn time<R>(&mut self, leg: Leg, f: impl FnOnce() -> R) -> R;
}

/// The untraced run: no clock reads.
struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn time<R>(&mut self, _leg: Leg, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// The traced run: one span per call, children of the run's span.
struct SpanProbe<'a> {
    trace: &'a mut Trace,
    parent: usize,
}

impl Probe for SpanProbe<'_> {
    fn time<R>(&mut self, leg: Leg, f: impl FnOnce() -> R) -> R {
        let start = self.trace.now_ns();
        let r = f();
        let name = match leg {
            Leg::Iteration => "memmgr.iteration",
            Leg::Rebalance => "memmgr.rebalance",
            Leg::Migrate => "memmgr.migrate",
        };
        self.trace
            .push(name, start, self.trace.now_ns(), Some(self.parent));
        r
    }
}

/// What one run produced.
#[derive(Debug, Clone, PartialEq)]
struct MemResult {
    scanned: u64,
    demoted: u64,
    promoted: u64,
    epochs: u64,
    moves: u64,
    phases_applied: u64,
    costs: Vec<ShardedCost>,
    accuracy: f64,
    demoted_frac: f64,
    /// Batches demoted minus promoted, and batches no longer resident.
    net_demoted: (i64, i64),
    owned: usize,
    total: usize,
}

impl MemTiering {
    /// The workload at `seed`.
    pub fn new(seed: u64) -> Self {
        MemTiering {
            seed,
            fp_cfg: FootprintConfig::skewed(SCALE, FLAPPY),
        }
    }

    /// Constructs the footprint, the sharded runner, and the schedule.
    fn setup(&self) -> MemSim {
        let footprint = DbFootprint::new(self.fp_cfg, AccessPattern::Scattered, self.seed);
        // A two-rung scan ladder (600 ms / 1.2 s) keeps SOL responsive
        // at the phase cadence, as in the `wave-lab` traces cell.
        let mut sol = SolConfig::paper();
        sol.period_rungs = 2;
        let runner = ShardedSolRunner::new(
            RunnerConfig::paper(CoreClass::NicArm, 16),
            CpuModel::mount_evans(),
            SHARDS,
            sol,
            footprint.batches(),
            self.seed,
        )
        .with_rebalance(RebalanceConfig::every(SimTime::from_ms(1_200)));
        let schedule = PhaseSchedule::new(
            (0..PHASES)
                .map(|k| MemPhase {
                    at: PHASE_PERIOD * (k + 1),
                    hot_fraction: self.fp_cfg.hot_fraction,
                    flappy_fraction: FLAPPY,
                    flappy_offset: ((k + 1) % u64::from(SHARDS)) as f64 / f64::from(SHARDS),
                    reseed: 0,
                })
                .collect(),
        );
        MemSim {
            footprint,
            runner,
            schedule,
        }
    }

    /// Drives the iterations, reporting each call to `probe`.
    fn drive(&self, sim: MemSim, probe: &mut impl Probe) -> MemResult {
        let MemSim {
            mut footprint,
            mut runner,
            mut schedule,
        } = sim;
        let (mut scanned, mut demoted, mut promoted, mut epochs, mut moves) = (0, 0, 0, 0, 0);
        let mut costs = Vec::with_capacity(ITERATIONS as usize);
        for it in 0..ITERATIONS {
            let now = PERIOD * it;
            let (stats, cost) = probe.time(Leg::Iteration, || {
                runner.run_phased_iteration(&mut schedule, &mut footprint, now)
            });
            scanned += stats.scanned;
            costs.push(cost);
            if let Some(e) = probe.time(Leg::Rebalance, || runner.maybe_rebalance(now)) {
                moves += e.moves.len() as u64;
            }
            if runner.epoch_due(now) {
                let (d, p) = probe.time(Leg::Migrate, || runner.epoch_migrate(now, &mut footprint));
                demoted += d;
                promoted += p;
                epochs += 1;
            }
        }
        let total = footprint.batches();
        let owned: Vec<usize> = (0..SHARDS).map(|i| runner.shard_batches(i).len()).collect();
        let accuracy = (0..SHARDS)
            .map(|i| runner.shard_accuracy(i, &footprint) * owned[i as usize] as f64)
            .sum::<f64>()
            / total as f64;
        let resident = footprint.resident_bytes() / footprint.config().batch_bytes();
        MemResult {
            scanned,
            demoted,
            promoted,
            epochs,
            moves,
            phases_applied: runner.phases_applied(),
            costs,
            accuracy,
            demoted_frac: 1.0 - footprint.resident_fraction(),
            net_demoted: (
                demoted as i64 - promoted as i64,
                total as i64 - resident as i64,
            ),
            owned: owned.iter().sum(),
            total,
        }
    }

    fn outcome(&self, r: &MemResult) -> Outcome {
        let mut errors = Vec::new();
        check(&mut errors, r.scanned > 0, || "no batch scanned".into());
        check(&mut errors, r.phases_applied == PHASES, || {
            format!("{} phases applied, expected {PHASES}", r.phases_applied)
        });
        check(&mut errors, r.epochs == EPOCHS, || {
            format!("{} epochs migrated, expected {EPOCHS}", r.epochs)
        });
        check(&mut errors, r.net_demoted.0 == r.net_demoted.1, || {
            format!(
                "demoted − promoted = {}, but {} batches left the fast tier",
                r.net_demoted.0, r.net_demoted.1
            )
        });
        check(&mut errors, r.owned == r.total, || {
            format!("shards own {} of {} batches", r.owned, r.total)
        });
        check(&mut errors, (0.0..=1.0).contains(&r.accuracy), || {
            format!("accuracy {} outside [0, 1]", r.accuracy)
        });
        check(
            &mut errors,
            r.demoted_frac > 0.0 && r.demoted_frac < 1.0,
            || format!("demoted fraction {} outside (0, 1)", r.demoted_frac),
        );
        check(&mut errors, r.moves > 0, || {
            "the roaming window moved no batches".into()
        });
        let walls: Vec<f64> = r.costs.iter().map(|c| c.wall().as_us_f64()).collect();
        let mut detail = Metrics::zeroed(&SIM_DETAIL);
        detail.put("sim.demoted_frac", r.demoted_frac);
        detail.put("sim.accuracy", r.accuracy);
        detail.put(
            "sim.mean_us",
            walls.iter().sum::<f64>() / walls.len().max(1) as f64,
        );
        detail.put("sim.p50_us", median(&walls));
        detail.put("sim.p99_us", quantile(&walls, 0.99));
        detail.put("sim.iter_ms", median(&walls) / 1e3);
        let wall_ns: u64 = r.costs.iter().map(|c| c.wall().as_ns()).sum();
        Outcome {
            sim_seconds: (PERIOD * ITERATIONS).as_secs_f64(),
            attempted: r.scanned,
            failed: 0,
            detail,
            signature: vec![
                ("scanned", r.scanned),
                ("demoted", r.demoted),
                ("promoted", r.promoted),
                ("moves", r.moves),
                ("accuracy", r.accuracy.to_bits()),
                ("demoted_frac", r.demoted_frac.to_bits()),
                ("wall_ns", wall_ns),
            ],
            errors,
        }
    }
}

impl Workload for MemTiering {
    fn name(&self) -> &'static str {
        "mem_tiering"
    }

    fn setup_once(&self) -> f64 {
        let t = Instant::now();
        let sim = self.setup();
        let s = t.elapsed().as_secs_f64();
        drop(sim);
        s
    }

    fn run_once(&self) -> Run {
        let t = Instant::now();
        let sim = self.setup();
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let result = self.drive(sim, &mut NoProbe);
        let wall_s = t.elapsed().as_secs_f64();
        Run {
            setup_s: Some(setup_s),
            wall_s,
            outcome: self.outcome(&result),
        }
    }

    fn run_traced(&self, run_id: u32) -> TracedRun {
        let mut trace = Trace::new(run_id);
        let setup = trace.open("memmgr.setup", None);
        let sim = self.setup();
        trace.close(setup);
        let root = trace.open("memmgr.run", None);
        let t = Instant::now();
        let result = self.drive(
            sim,
            &mut SpanProbe {
                trace: &mut trace,
                parent: root,
            },
        );
        let wall_s = t.elapsed().as_secs_f64();
        trace.close(root);

        let outcome = self.outcome(&result);
        let mut layers = Metrics::zeroed(&PER_LAYER);
        let iteration_s = trace.total_s("memmgr.iteration");
        let ms = |f: fn(&ShardedCost) -> SimTime| {
            let v: Vec<f64> = result
                .costs
                .iter()
                .map(|c| f(c).as_us_f64() / 1e3)
                .collect();
            median(&v)
        };
        layers.put("memmgr.iteration_s", iteration_s);
        layers.put("memmgr.scans", result.scanned as f64);
        layers.put(
            "memmgr.ns_per_scan",
            iteration_s * 1e9 / result.scanned.max(1) as f64,
        );
        layers.put("memmgr.migrate_s", trace.total_s("memmgr.migrate"));
        layers.put("memmgr.demoted", result.demoted as f64);
        layers.put("memmgr.promoted", result.promoted as f64);
        layers.put("memmgr.rebalance_s", trace.total_s("memmgr.rebalance"));
        layers.put("memmgr.rebalance_moves", result.moves as f64);
        layers.put("kvstore.phases_applied", result.phases_applied as f64);
        layers.put("memmgr.sim_scan_ms", ms(ShardedCost::serial_phase));
        layers.put("memmgr.sim_classify_ms", ms(ShardedCost::parallel_phase));
        layers.put("memmgr.sim_dma_ms", ms(ShardedCost::dma));
        trace.count("memmgr.epochs", result.epochs as f64);
        let unavailable = vec![
            (
                "ghost.*, pcie.*, workload.*",
                "mem_tiering runs no scheduler and no request source".to_string(),
            ),
            ("fleet.*", "mem_tiering runs no fleet executor".to_string()),
            (
                "sim.requests, sim.goodput_rps, sim.drop_frac",
                "request outcomes; mem_tiering serves none".to_string(),
            ),
        ];
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
