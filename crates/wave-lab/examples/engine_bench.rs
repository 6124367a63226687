//! Measures the engine-throughput workloads and maintains BENCH_engine.json.
//!
//! * `cargo run --release -p wave-lab --example engine_bench` — full
//!   paper-mode measurement: refreshes the workload rows *and* the
//!   `quick_reference` section (measured in the same run, so the two
//!   budgets share a machine), and appends a dated history entry.
//! * `-- --quick` — CI mode: quick-budget measurement gated against the
//!   committed `quick_reference`. Exits nonzero if `sched_sim` falls
//!   below 0.9× the committed quick rate, if the tenancy-wrapped
//!   `sched_sim_tenant` cell (same simulation, admitted through a
//!   single-tenant registry) runs more than 5% slower than the plain
//!   cell measured in the same run, or if the fleet executor's
//!   core-normalized parallel efficiency regresses: below 0.9× the
//!   committed quick value when the runner has the same core count the
//!   reference was recorded on, or below an absolute 0.35 floor when
//!   the core counts differ (cross-machine efficiency ratios are not
//!   comparable, but a broken executor is visible on any machine).
//!   Carries the committed reference and history forward unchanged.

use wave_lab::engine;
use wave_sim::par;

/// The gated workload: the full-model scheduling sim is what wave-lab
/// sweeps actually feel, and the arena/queue work lives on its hot path.
const GATE_WORKLOAD: &str = "sched_sim";

/// Regression floor for the quick gate: quick-vs-quick comparison, so
/// machine class largely cancels; 0.9 absorbs CI runner noise.
const GATE_FLOOR: f64 = 0.9;

/// Floor for the tenancy-overhead gate: the T=1 tenancy-wrapped
/// deployment runs the bit-identical simulation, so its rate must stay
/// within 5% of the plain `sched_sim` cell from the same run.
const TENANT_FLOOR: f64 = 0.95;

/// Same-machine fleet gate: measured parallel efficiency must stay
/// within 0.9× of the committed quick reference when the core counts
/// match.
const FLEET_FLOOR_RATIO: f64 = 0.9;

/// Cross-machine fleet gate: an absolute efficiency floor applied when
/// the runner's core count differs from the reference machine's. Set
/// low enough to absorb honest scaling differences, high enough to
/// catch an executor whose workers serialize on a shared lock.
const FLEET_FLOOR_ABS: f64 = 0.35;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let path = std::path::Path::new("BENCH_engine.json");
    let committed = std::fs::read_to_string(path).unwrap_or_default();

    let cfg = if quick {
        engine::EngineBenchConfig::quick()
    } else {
        engine::EngineBenchConfig::paper()
    };
    let result = engine::run(&cfg);
    engine::report_from(&result).print();

    let mut history = engine::extract_history(&committed);
    let quick_reference;
    if quick {
        quick_reference = engine::extract_quick_reference(&committed);
        match engine::quick_reference_rate(&committed, GATE_WORKLOAD) {
            Some(reference) => {
                let measured = result.events_per_sec(GATE_WORKLOAD).unwrap_or(0.0);
                let ratio = measured / reference;
                println!(
                    "quick gate: {GATE_WORKLOAD} {measured:.1} ev/s vs committed \
                     quick reference {reference:.1} ({ratio:.3}x, floor {GATE_FLOOR})"
                );
                if ratio < GATE_FLOOR {
                    eprintln!(
                        "engine bench regression: {GATE_WORKLOAD} fell below \
                         {GATE_FLOOR}x the committed quick reference"
                    );
                    std::process::exit(1);
                }
            }
            None => println!("quick gate: no committed quick reference; skipping"),
        }
        let plain = result.events_per_sec(GATE_WORKLOAD).unwrap_or(0.0);
        let tenant = engine::run_one(&cfg, "sched_sim_tenant").expect("known workload");
        let ratio = tenant.events_per_sec / plain.max(1.0);
        println!(
            "tenancy gate: sched_sim_tenant {:.1} ev/s vs sched_sim {plain:.1} \
             ({ratio:.3}x, floor {TENANT_FLOOR})",
            tenant.events_per_sec
        );
        if ratio < TENANT_FLOOR {
            eprintln!(
                "tenancy overhead regression: the T=1 wrapped deployment runs \
                 more than 5% slower than the plain sched_sim cell"
            );
            std::process::exit(1);
        }
        fleet_gate(&committed, &result);
    } else {
        // Paper mode also measures the quick budgets so CI has a
        // same-machine reference to gate against. Measure twice and
        // commit the per-workload *minimum*: the gates compare
        // measured/reference against a floor, so a conservative
        // reference absorbs run-to-run noise on shared runners instead
        // of baking a lucky fast run into the floor.
        let qr1 = engine::run(&engine::EngineBenchConfig::quick());
        let qr2 = engine::run(&engine::EngineBenchConfig::quick());
        let mut reference: Vec<(String, f64)> = qr1
            .rows
            .iter()
            .map(|r| {
                let again = qr2.events_per_sec(r.workload).unwrap_or(r.events_per_sec);
                (r.workload.to_string(), r.events_per_sec.min(again))
            })
            .collect();
        // Same for the fleet efficiency (and the core count it was
        // measured on), so the CI fleet gate compares against the exact
        // budget it will re-measure.
        let cores = par::cores();
        let eff = [
            engine::fleet_cell(&qr1, cores),
            engine::fleet_cell(&qr2, cores),
        ]
        .into_iter()
        .flatten()
        .map(|c| c.parallel_efficiency)
        .fold(f64::INFINITY, f64::min);
        if eff.is_finite() {
            reference.push(("fleet_parallel_efficiency".to_string(), eff));
            reference.push(("fleet_cores".to_string(), cores as f64));
        }
        quick_reference = reference;
        history.push(engine::history_entry(&today_utc(), &result));
    }

    let artifact = engine::BenchArtifact {
        mode: if quick { "quick" } else { "paper" }.to_string(),
        result,
        quick_reference,
        history,
        cores: par::cores(),
    };
    engine::write_bench_json(path, &artifact).expect("write BENCH_engine.json");
    println!("wrote {}", path.display());
}

/// The fleet parallel-efficiency gate. Efficiency ratios only compare
/// cleanly between machines with the same core count, so the gate has
/// two forms: same cores as the committed reference → 0.9× ratio floor;
/// different cores → absolute floor. Exits nonzero on a breach.
fn fleet_gate(committed: &str, result: &engine::EngineBenchResult) {
    let cores = par::cores();
    let Some(cell) = engine::fleet_cell(result, cores) else {
        eprintln!("fleet gate: fleet rows missing from this run");
        std::process::exit(1);
    };
    let measured = cell.parallel_efficiency;
    let reference = engine::quick_reference_rate(committed, "fleet_parallel_efficiency");
    let ref_cores = engine::quick_reference_rate(committed, "fleet_cores");
    match (reference, ref_cores) {
        (Some(reference), Some(ref_cores)) if ref_cores as usize == cores => {
            let ratio = measured / reference.max(f64::MIN_POSITIVE);
            println!(
                "fleet gate: parallel efficiency {measured:.3} vs committed \
                 {reference:.3} on {cores} core(s) ({ratio:.3}x, floor {FLEET_FLOOR_RATIO})"
            );
            if ratio < FLEET_FLOOR_RATIO {
                eprintln!(
                    "fleet executor regression: parallel efficiency fell below \
                     {FLEET_FLOOR_RATIO}x the committed quick reference"
                );
                std::process::exit(1);
            }
        }
        (Some(reference), ref_cores) => {
            println!(
                "fleet gate: parallel efficiency {measured:.3} on {cores} core(s); \
                 committed reference {reference:.3} was measured on {} core(s) — \
                 applying absolute floor {FLEET_FLOOR_ABS}",
                ref_cores.map_or("unknown".to_string(), |c| format!("{}", c as usize))
            );
            if measured < FLEET_FLOOR_ABS {
                eprintln!(
                    "fleet executor regression: parallel efficiency {measured:.3} \
                     below the absolute floor {FLEET_FLOOR_ABS}"
                );
                std::process::exit(1);
            }
        }
        (None, _) => {
            println!("fleet gate: no committed fleet reference; skipping");
        }
    }
}

/// Today's UTC date (`YYYY-MM-DD`) from the system clock —
/// civil-from-days (Howard Hinnant's algorithm), so no date crate is
/// needed.
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock before epoch")
        .as_secs();
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}
