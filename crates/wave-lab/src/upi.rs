//! §7.3.3 — coherent-interconnect (UPI) emulation.
//!
//! The paper emulates a UPI-attached SmartNIC with the second CPU socket
//! and sweeps the emulated NIC frequency (3 / 2.5 / 2 GHz). We run the
//! same Fig. 6-style Offload-All workload against the coherent
//! interconnect model and the frequency-scaled CPU model:
//!
//! * slowdowns at saturation vs. on-host: 1.3% (3 GHz), 2.5% (2.5 GHz),
//!   3.5% (2 GHz);
//! * UPI at 3 GHz beats the real PCIe-attached SmartNIC by 0.9%.

use wave_core::workload::WorkloadSpec;
use wave_core::OptLevel;
use wave_ghost::policies::ShinjukuPolicy;
use wave_ghost::sim::{Placement, SchedConfig, SchedSim, ServiceMix};
use wave_pcie::PcieConfig;
use wave_sim::cpu::CpuModel;
use wave_sim::SimTime;

use crate::report::{PaperRow, Report};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct UpiConfig {
    /// Worker cores (same count in both scenarios: apples-to-apples).
    pub workers: u32,
    /// Per-point duration.
    pub duration: SimTime,
    /// Warmup.
    pub warmup: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// p99 saturation cap (µs).
    pub p99_cap_us: f64,
}

impl UpiConfig {
    /// Paper-shaped configuration.
    pub fn paper() -> Self {
        UpiConfig {
            workers: 15,
            duration: SimTime::from_secs(1),
            warmup: SimTime::from_ms(150),
            seed: 42,
            p99_cap_us: 250.0,
        }
    }

    /// CI-speed configuration.
    pub fn quick() -> Self {
        UpiConfig {
            duration: SimTime::from_ms(400),
            warmup: SimTime::from_ms(80),
            ..Self::paper()
        }
    }
}

/// Which deployment a measurement uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpiScenario {
    /// Everything on the host (the §7.3.3 on-host baseline).
    OnHost,
    /// Agent offloaded across the coherent interconnect, with the
    /// emulated SmartNIC clocked at `ghz`.
    CoherentNic {
        /// Emulated SmartNIC frequency in GHz.
        ghz: f64,
    },
    /// Agent offloaded across real PCIe at the nominal 3 GHz.
    PcieNic,
}

fn sched_config(cfg: &UpiConfig, scenario: UpiScenario) -> SchedConfig {
    let mut sc = SchedConfig::new(
        cfg.workers,
        match scenario {
            UpiScenario::OnHost => Placement::OnHost,
            _ => Placement::Offloaded,
        },
        OptLevel::full(),
    );
    sc.workload = WorkloadSpec::poisson(ServiceMix::paper_bimodal(), 100_000.0);
    sc.duration = cfg.duration;
    sc.warmup = cfg.warmup;
    sc.seed = cfg.seed;
    match scenario {
        UpiScenario::OnHost => {}
        UpiScenario::CoherentNic { ghz } => {
            sc.interconnect = PcieConfig::coherent_upi();
            sc.cpu = CpuModel::mount_evans().with_nic_ghz(ghz);
        }
        UpiScenario::PcieNic => {
            sc.interconnect = PcieConfig::pcie();
        }
    }
    sc
}

/// Saturation throughput of a scenario.
pub fn saturation(cfg: &UpiConfig, scenario: UpiScenario) -> f64 {
    let cap = cfg.p99_cap_us;
    let mean_ns = 0.995 * 14_800.0 + 0.005 * 10_004_800.0;
    let upper = cfg.workers as f64 / (mean_ns / 1e9) * 1.3;
    let mut lo = upper * 0.3;
    let mut hi = upper;
    let mut best = 0.0f64;
    for _ in 0..6 {
        let sc = {
            let mut c = sched_config(cfg, scenario);
            c.workload.set_offered(lo);
            c
        };
        let rep = SchedSim::new(sc, Box::new(ShinjukuPolicy::paper_default())).run();
        if rep.latency.p99.as_us_f64() <= cap && rep.achieved >= lo * 0.9 {
            best = rep.achieved;
            break;
        }
        hi = lo;
        lo *= 0.7;
    }
    for _ in 0..8 {
        let mid = (lo + hi) / 2.0;
        let sc = {
            let mut c = sched_config(cfg, scenario);
            c.workload.set_offered(mid);
            c
        };
        let rep = SchedSim::new(sc, Box::new(ShinjukuPolicy::paper_default())).run();
        if rep.latency.p99.as_us_f64() <= cap && rep.achieved >= mid * 0.9 {
            best = best.max(rep.achieved);
            lo = mid;
        } else {
            hi = mid;
        }
    }
    best
}

/// Full experiment result.
#[derive(Debug, Clone)]
pub struct UpiResult {
    /// On-host saturation (req/s).
    pub onhost: f64,
    /// Coherent NIC at 3 GHz.
    pub upi_3ghz: f64,
    /// Coherent NIC at 2.5 GHz.
    pub upi_2_5ghz: f64,
    /// Coherent NIC at 2 GHz.
    pub upi_2ghz: f64,
    /// PCIe NIC at 3 GHz.
    pub pcie_3ghz: f64,
}

/// Runs all five measurements.
pub fn run(cfg: &UpiConfig) -> UpiResult {
    UpiResult {
        onhost: saturation(cfg, UpiScenario::OnHost),
        upi_3ghz: saturation(cfg, UpiScenario::CoherentNic { ghz: 3.0 }),
        upi_2_5ghz: saturation(cfg, UpiScenario::CoherentNic { ghz: 2.5 }),
        upi_2ghz: saturation(cfg, UpiScenario::CoherentNic { ghz: 2.0 }),
        pcie_3ghz: saturation(cfg, UpiScenario::PcieNic),
    }
}

/// Builds the paper-vs-measured report.
pub fn report(cfg: &UpiConfig) -> Report {
    let res = run(cfg);
    let slowdown = |x: f64| (1.0 - x / res.onhost) * 100.0;
    let mut r = Report::new("§7.3.3: coherent-interconnect (UPI) emulation");
    r.push(PaperRow::new(
        "slowdown @ 3 GHz",
        1.3,
        slowdown(res.upi_3ghz),
        "%",
    ));
    r.push(PaperRow::new(
        "slowdown @ 2.5 GHz",
        2.5,
        slowdown(res.upi_2_5ghz),
        "%",
    ));
    r.push(PaperRow::new(
        "slowdown @ 2 GHz",
        3.5,
        slowdown(res.upi_2ghz),
        "%",
    ));
    r.push(PaperRow::new(
        "UPI gain over PCIe @ 3 GHz",
        0.9,
        (res.upi_3ghz / res.pcie_3ghz - 1.0) * 100.0,
        "%",
    ));
    r.note(format!(
        "absolute saturations (req/s): onhost {:.0}, upi3 {:.0}, upi2.5 {:.0}, upi2 {:.0}, pcie {:.0}",
        res.onhost, res.upi_3ghz, res.upi_2_5ghz, res.upi_2ghz, res.pcie_3ghz
    ));
    r.note("Wave benefits from hardware coherence but performs well without it (§7.3.3)");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coherent_beats_pcie_at_same_frequency() {
        let cfg = UpiConfig::quick();
        let upi = saturation(&cfg, UpiScenario::CoherentNic { ghz: 3.0 });
        let pcie = saturation(&cfg, UpiScenario::PcieNic);
        assert!(upi >= pcie, "upi {upi} vs pcie {pcie}");
    }
}
