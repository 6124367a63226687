//! Regenerates every paper table and figure in one run (quick configs)
//! and prints the paper-vs-measured reports, the Fig. 4a/4b/5 series
//! lines, plus the §6 agent-scaling sweep the paper only gestures at.
//!
//! Run with: `cargo run --release -p wave-lab --example report_all`

use wave_lab::{
    engine, fig4, fig5, fig6, fleet, mem, mem_scaling, rebalance, scaling, table2, table3, tenancy,
    traces, upi,
};
use wave_sim::par;

fn main() {
    let t0 = std::time::Instant::now();
    table2::report().print();
    table3::report().print();
    let fifo = fig4::Fig4Config::fifo_quick();
    fig4::report(&fifo).print();
    print_fig4_series(&fifo, (1..=8).map(|i| i as f64 * 100_000.0));
    fig4::ablation_report(&fifo).print();
    let shinjuku = fig4::Fig4Config::shinjuku_quick();
    fig4::report(&shinjuku).print();
    print_fig4_series(&shinjuku, (1..=6).map(|i| i as f64 * 25_000.0));
    let fig5_cfg = fig5::Fig5Config::paper();
    fig5::report(&fig5_cfg).print();
    print_fig5_series(&fig5_cfg);
    fig6::report(&fig6::Fig6Config::single_queue_quick()).print();
    fig6::report(&fig6::Fig6Config::multi_queue_quick()).print();
    upi::report(&upi::UpiConfig::quick()).print();
    mem::duration_report().print();
    mem::runtime_iteration_report().print();
    mem::footprint_report(&mem::FootprintExperiment::quick()).print();
    scaling::report(&scaling::ScalingConfig::quick()).print();
    mem_scaling::report(&mem_scaling::MemScalingConfig::quick()).print();
    rebalance::report(&rebalance::RebalanceSweepConfig::quick()).print();
    traces::report(&traces::TracesConfig::quick()).print();
    tenancy::report(&tenancy::TenancyConfig::quick()).print();
    fleet::report(&fleet::FleetSweepConfig::quick()).print();
    let bench = engine::run(&engine::EngineBenchConfig::quick());
    engine::report_from(&bench).print();
    // Carry the committed quick_reference and history forward; this
    // quick pass refreshes only the workload rows.
    let path = std::path::Path::new("BENCH_engine.json");
    let committed = std::fs::read_to_string(path).unwrap_or_default();
    let artifact = engine::BenchArtifact {
        mode: "quick".to_string(),
        quick_reference: engine::extract_quick_reference(&committed),
        history: engine::extract_history(&committed),
        result: bench,
        cores: par::cores(),
    };
    engine::write_bench_json(path, &artifact).expect("write BENCH_engine.json");
    println!("wrote {}", path.display());
    println!("\nall experiments regenerated in {:.1?}", t0.elapsed());
}

/// Prints the Fig. 4 latency-throughput series (the figure's lines).
fn print_fig4_series(cfg: &fig4::Fig4Config, loads: impl Iterator<Item = f64>) {
    let loads: Vec<f64> = loads.collect();
    for scenario in [
        fig4::Scenario::OnHost16,
        fig4::Scenario::Wave15,
        fig4::Scenario::Wave16,
    ] {
        let curve = fig4::run_curve(cfg, scenario, &loads);
        println!("series: {}", curve.label);
        for p in &curve.points {
            println!("  {:>8.1} kreq/s  p99 {:>8.2} us", p.x, p.y);
        }
    }
}

/// Prints the Fig. 5 per-vCPU series: Wave vs on-host throughput.
fn print_fig5_series(cfg: &fig5::Fig5Config) {
    let (wave, onhost) = fig5::curves(cfg);
    println!("series: {} / {}", wave.label, onhost.label);
    for n in [1usize, 16, 31, 48, 64, 96, 128] {
        let w = wave.points[n - 1].y;
        let h = onhost.points[n - 1].y;
        println!(
            "  {n:>3} vCPUs: wave {w:>6.3}  on-host {h:>6.3}  (+{:.1}%)",
            (w / h - 1.0) * 100.0
        );
    }
}
