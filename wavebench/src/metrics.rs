//! Named metrics with units, the metric catalogue, and the small
//! statistics the benchmark reports (medians and quantiles).

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// An ordered set of metrics, each name at most once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Every metric of `catalogue`, valued 0 (no work done yet).
    pub fn zeroed(catalogue: &[(&'static str, &'static str)]) -> Self {
        Metrics(
            catalogue
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    value: 0.0,
                    unit,
                })
                .collect(),
        )
    }

    /// Sets a metric already in the set, keeping its unit.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the set: every per-layer name comes
    /// from the catalogue, so a miss is a typo in the benchmark.
    pub fn put(&mut self, name: &'static str, value: f64) {
        let m = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        m.value = value;
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics as a JSON object: `{"name": {"value": v, "unit": u}}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with all its digits (non-finite values, which
/// JSON cannot hold, become 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of `values`; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// End-to-end metrics, reported by every workload's untraced run. All
/// are host-side measurements of the simulator; the simulated outcomes
/// ([`SIM_DETAIL`]) are deterministic per seed and are checked for
/// exact repetition instead of bounded.
pub const END_TO_END: [(&str, &str); 3] = [
    ("simsec_per_s", "sim-s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Simulated outcomes a workload reports beside the end-to-end metrics
/// (on the detail line of every run, and as per-layer rows of the traced
/// run). Each applies to the workloads named in the README; the others
/// report 0.
pub const SIM_DETAIL: [(&str, &str); 9] = [
    ("sim.requests", "count"),
    ("sim.mean_us", "sim-us"),
    ("sim.p50_us", "sim-us"),
    ("sim.p99_us", "sim-us"),
    ("sim.goodput_rps", "1/sim-s"),
    ("sim.drop_frac", "ratio"),
    ("sim.demoted_frac", "ratio"),
    ("sim.accuracy", "ratio"),
    ("sim.iter_ms", "sim-ms"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload does not exercise reports 0 and is named, with the
/// reason, in the run's `unavailable` list.
pub const PER_LAYER: [(&str, &str); 53] = [
    // wave-ghost + the wave-sim engine, cut into sim-time slices.
    ("ghost.events", "count"),
    ("ghost.events_per_s", "1/s"),
    ("ghost.events_per_request", "ratio"),
    ("ghost.slice_ns_per_event.p50", "ns"),
    ("ghost.slice_ns_per_event.p95", "ns"),
    ("ghost.policy_self_s", "s"),
    ("ghost.policy_calls", "count"),
    ("ghost.policy_share", "ratio"),
    ("ghost.pumps", "count"),
    ("ghost.decisions", "count"),
    ("ghost.steals", "count"),
    ("ghost.rebalance_moves", "count"),
    ("ghost.rebalance_handoffs", "count"),
    ("ghost.commit_fail", "count"),
    ("ghost.wakeup_hit_ratio", "ratio"),
    ("ghost.prestage_hit_ratio", "ratio"),
    // wave-pcie (simulated counts).
    ("pcie.msix_sent", "count"),
    ("pcie.msix_suppressed", "count"),
    ("pcie.msix_per_decision", "ratio"),
    // wave-core workload sources.
    ("workload.ns_per_arrival", "ns"),
    // wave-sim::fleet + wave-fleet.
    ("fleet.windows", "count"),
    ("fleet.events_per_window", "ratio"),
    ("fleet.messages", "count"),
    ("fleet.host_advance_s", "s"),
    ("fleet.frontdoor_advance_s", "s"),
    ("fleet.frontdoor_time_share", "ratio"),
    ("fleet.frontdoor_event_share", "ratio"),
    ("fleet.transit_s", "s"),
    ("fleet.barrier_s", "s"),
    ("fleet.wait_s", "s"),
    ("fleet.idle_advance_frac", "ratio"),
    // wave-memmgr + wave-kvstore.
    ("memmgr.iteration_s", "s"),
    ("memmgr.scans", "count"),
    ("memmgr.ns_per_scan", "ns"),
    ("memmgr.migrate_s", "s"),
    ("memmgr.demoted", "count"),
    ("memmgr.promoted", "count"),
    ("memmgr.rebalance_s", "s"),
    ("memmgr.rebalance_moves", "count"),
    ("kvstore.phases_applied", "count"),
    ("memmgr.sim_scan_ms", "sim-ms"),
    ("memmgr.sim_classify_ms", "sim-ms"),
    ("memmgr.sim_dma_ms", "sim-ms"),
    // Simulated outcomes (see SIM_DETAIL).
    ("sim.requests", "count"),
    ("sim.mean_us", "sim-us"),
    ("sim.p50_us", "sim-us"),
    ("sim.p99_us", "sim-us"),
    ("sim.goodput_rps", "1/sim-s"),
    ("sim.drop_frac", "ratio"),
    ("sim.demoted_frac", "ratio"),
    ("sim.accuracy", "ratio"),
    ("sim.iter_ms", "sim-ms"),
    // The cost of tracing itself.
    ("trace.overhead_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_is_well_formed() {
        let mut m = Metrics::zeroed(&END_TO_END[..1]);
        m.put("simsec_per_s", 0.25);
        assert_eq!(
            m.to_json(),
            "{\"simsec_per_s\": {\"value\": 0.25, \"unit\": \"sim-s/s\"}}"
        );
        assert_eq!(json_number(f64::NAN), "0.0");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
    }
}
