//! # wavebench — the Wave reproduction's benchmark
//!
//! Three seeded workloads, each built from a fresh simulator per timed
//! run the way a user's run is:
//!
//! * [`host_sched`] — one host, 4 offloaded ghOSt agent shards, a
//!   diurnal bursty production trace;
//! * [`fleet_dc`] — 64 hosts behind a frontdoor on the fat-tree, run by
//!   the parallel fleet executor;
//! * [`mem_tiering`] — the 2-shard SOL memory agent over a skewed
//!   footprint with a roaming phase schedule.
//!
//! An untraced invocation ([`run_untraced`]) reports the end-to-end
//! metrics; a traced one ([`run_traced`]) interleaves untraced and
//! traced runs and reports the per-layer metrics, timed from outside
//! the program by the [`wrappers`]. Both check the simulated outputs
//! ([`Outcome::errors`]) and that they repeat bit for bit.
//!
//! See `README.md` beside this crate for the metric definitions.

pub mod fleet_dc;
pub mod host_sched;
pub mod mem_tiering;
pub mod metrics;
pub mod sys;
pub mod trace;
pub mod wrappers;

use std::path::Path;
use std::time::Instant;

use metrics::{json_number, json_string, median, Metrics, END_TO_END};
use trace::Trace;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["host_sched", "fleet_dc", "mem_tiering"];

/// Setup-only constructions per untraced invocation (beside the ones
/// the timed runs make): at least `SETUP_SAMPLES.0`, and more until
/// `SETUP_SECONDS` of set-up has been measured or `SETUP_SAMPLES.1`
/// were taken, so `setup_s` is a median of many samples even where one
/// set-up takes microseconds.
pub const SETUP_SAMPLES: (usize, usize) = (15, 2_000);
/// Set-up time to sample per untraced invocation.
pub const SETUP_SECONDS: f64 = 0.5;

/// Minimum timed runs per invocation, whatever `--seconds` says.
pub const MIN_RUNS: usize = 3;

/// The simulated results of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Simulated seconds the run advanced.
    pub sim_seconds: f64,
    /// Operations attempted (requests emitted, or batch scans).
    pub attempted: u64,
    /// Operations that failed (requests dropped or rejected).
    pub failed: u64,
    /// The simulated outcomes of [`metrics::SIM_DETAIL`].
    pub detail: Metrics,
    /// Every simulated count and value that must repeat bit for bit.
    pub signature: Vec<(&'static str, u64)>,
    /// Failed output checks (empty when the outputs are correct).
    pub errors: Vec<String>,
}

/// One timed run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Construction time before the first simulated event, when the
    /// run measured it separately.
    pub setup_s: Option<f64>,
    /// Host time of the run, from the first simulated event to the
    /// finished report.
    pub wall_s: f64,
    /// What the run simulated.
    pub outcome: Outcome,
}

/// One traced run: the run plus its per-layer metrics and spans.
#[derive(Debug)]
pub struct TracedRun {
    /// The run (its `wall_s` includes the tracing overhead).
    pub run: Run,
    /// Every [`metrics::PER_LAYER`] row; layers not exercised stay 0.
    pub layers: Metrics,
    /// Rows this workload cannot measure, with the reason.
    pub unavailable: Vec<(&'static str, String)>,
    /// The recorded spans and counters.
    pub trace: Trace,
}

/// A benchmark workload at one seed.
pub trait Workload {
    /// Name, as in `BENCHMARK.json`.
    fn name(&self) -> &'static str;
    /// Builds everything a run needs, drops it, and returns the build
    /// time in seconds.
    fn setup_once(&self) -> f64;
    /// One untraced run from a fresh simulator.
    fn run_once(&self) -> Run;
    /// One traced run from a fresh simulator.
    fn run_traced(&self, run_id: u32) -> TracedRun;
    /// Whether the traced run rebuilds the simulator from public
    /// constructors instead of calling the untraced entry point. A
    /// rebuilt run that stops matching makes its layer rows unavailable
    /// instead of failing the invocation.
    fn rebuilt(&self) -> bool {
        false
    }
}

/// The workload `name` at `seed`, if the name is known.
pub fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "host_sched" => Some(Box::new(host_sched::HostSched::new(seed))),
        "fleet_dc" => Some(Box::new(fleet_dc::FleetDc::new(seed))),
        "mem_tiering" => Some(Box::new(mem_tiering::MemTiering::new(seed))),
        _ => None,
    }
}

/// The second seed every untraced invocation also checks.
pub fn other_seed(seed: u64) -> u64 {
    seed ^ 0x9e37_79b9_7f4a_7c15
}

/// Records `msg()` in `errors` unless `ok`.
pub fn check(errors: &mut Vec<String>, ok: bool, msg: impl FnOnce() -> String) {
    if !ok {
        errors.push(msg());
    }
}

/// What an invocation prints: a detail line, then the result line.
#[derive(Debug)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted over every run of the invocation.
    pub attempted: u64,
    /// Operations failed (all of them when a check failed).
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
    /// The context line printed before the result.
    pub detail: String,
}

impl Report {
    /// A report over `attempted` operations: when `errors` is not empty
    /// the outputs are wrong and every operation counts as failed.
    fn new(
        errors: &[String],
        attempted: u64,
        failed: u64,
        metrics: Metrics,
        detail: String,
    ) -> Self {
        let correct = errors.is_empty();
        let attempted = attempted.max(1);
        Report {
            correct,
            attempted,
            failed: if correct { failed } else { attempted },
            metrics,
            detail,
        }
    }

    /// The result line, printed last: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// Checks that every outcome repeats the first one's signature and that
/// each passed its own checks.
fn check_outcomes<'a>(
    errors: &mut Vec<String>,
    what: &str,
    outs: impl Iterator<Item = &'a Outcome>,
) {
    let mut first: Option<&Outcome> = None;
    for (i, o) in outs.enumerate() {
        for e in &o.errors {
            errors.push(format!("{what} run {i}: {e}"));
        }
        match first {
            None => first = Some(o),
            Some(f) if f.signature != o.signature => errors.push(format!(
                "{what} run {i} did not repeat run 0: {:?} vs {:?}",
                o.signature, f.signature
            )),
            Some(_) => {}
        }
    }
}

/// The measuring machine, as a JSON object.
fn context_json(wall_s: &[f64], measured_s: f64) -> String {
    let walls: Vec<String> = wall_s.iter().map(|&w| json_number(w)).collect();
    format!(
        "{{\"nproc\": {}, \"rustc\": {}, \"fleet_workers\": {}, \"measured_s\": {}, \"run_wall_s\": [{}]}}",
        sys::nproc(),
        json_string(sys::rustc_version()),
        fleet_dc::WORKERS,
        json_number(measured_s),
        walls.join(", ")
    )
}

fn signature_json(o: &Outcome) -> String {
    let items: Vec<String> = o
        .signature
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn errors_json(errors: &[String]) -> String {
    let items: Vec<String> = errors.iter().map(|e| json_string(e)).collect();
    format!("[{}]", items.join(", "))
}

/// An untraced invocation: repeated set-ups, then fresh-simulator runs
/// for at least `seconds`, then one run at [`other_seed`].
pub fn run_untraced(w: &dyn Workload, seed: u64, seconds: f64) -> Report {
    let mut setups = Vec::new();
    let mut sampled = 0.0;
    while setups.len() < SETUP_SAMPLES.0
        || (sampled < SETUP_SECONDS && setups.len() < SETUP_SAMPLES.1)
    {
        let s = w.setup_once();
        sampled += s;
        setups.push(s);
    }
    let t0 = Instant::now();
    let mut runs = Vec::new();
    let mut rss = Vec::new();
    let mut rss_reset = true;
    while runs.len() < MIN_RUNS || t0.elapsed().as_secs_f64() < seconds {
        rss_reset &= sys::reset_peak_rss();
        let r = w.run_once();
        rss.extend(sys::peak_rss_mib());
        setups.extend(r.setup_s);
        runs.push(r);
    }
    let measured_s = t0.elapsed().as_secs_f64();

    let mut errors = Vec::new();
    check_outcomes(&mut errors, "timed", runs.iter().map(|r| &r.outcome));
    let first = &runs[0].outcome;
    let other = workload(w.name(), other_seed(seed))
        .expect("the workload exists")
        .run_once()
        .outcome;
    check_outcomes(&mut errors, "second-seed", std::iter::once(&other));
    check(&mut errors, other.detail != first.detail, || {
        "a second seed reproduced the first seed's simulated values".into()
    });

    let rates: Vec<f64> = runs
        .iter()
        .map(|r| r.outcome.sim_seconds / r.wall_s)
        .collect();
    let mut m = Metrics::zeroed(&END_TO_END);
    m.put("simsec_per_s", median(&rates));
    m.put("setup_s", median(&setups));
    m.put("peak_rss_mb", median(&rss));

    let attempted = runs.iter().map(|r| r.outcome.attempted).sum();
    let failed = runs.iter().map(|r| r.outcome.failed).sum();
    let detail = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": 0, \"context\": {}, \"rss_reset\": {rss_reset}, \"sim\": {}, \"signature\": {}, \"second_seed\": {{\"seed\": {}, \"sim\": {}}}, \"errors\": {}}}",
        json_string(w.name()),
        context_json(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>(), measured_s),
        first.detail.to_json(),
        signature_json(first),
        other_seed(seed),
        other.detail.to_json(),
        errors_json(&errors),
    );
    Report::new(&errors, attempted, failed, m, detail)
}

/// A traced invocation: untraced and traced runs alternate for at
/// least `seconds`; per-layer rows are medians over the traced runs and
/// `trace.overhead_frac` compares the two kinds' median host times.
/// The first traced run's spans are written to `trace_path`.
pub fn run_traced(w: &dyn Workload, seed: u64, seconds: f64, trace_path: &Path) -> Report {
    let t0 = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while plain.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        plain.push(w.run_once());
        traced.push(w.run_traced(traced.len() as u32));
    }
    let measured_s = t0.elapsed().as_secs_f64();

    let mut errors = Vec::new();
    check_outcomes(&mut errors, "untraced", plain.iter().map(|r| &r.outcome));
    let reference = &plain[0].outcome;
    let mut unavailable = traced[0].unavailable.clone();
    let rows_lost = w.rebuilt()
        && traced
            .iter()
            .any(|t| t.run.outcome.signature != reference.signature);
    let mut layers = if rows_lost {
        unavailable.push((
            "fleet.*, ghost.*",
            "the rebuilt fleet no longer matches FleetConfig::run".to_string(),
        ));
        for t in &traced {
            for e in &t.run.outcome.errors {
                errors.push(format!("traced run: {e}"));
            }
        }
        Metrics::zeroed(&metrics::PER_LAYER)
    } else {
        check_outcomes(
            &mut errors,
            "untraced+traced",
            std::iter::once(reference).chain(traced.iter().map(|t| &t.run.outcome)),
        );
        let mut layers = traced[0].layers.clone();
        for m in layers.0.iter_mut() {
            let v: Vec<f64> = traced
                .iter()
                .map(|t| t.layers.get(m.name).unwrap_or(0.0))
                .collect();
            m.value = median(&v);
        }
        layers
    };
    for d in &reference.detail.0 {
        layers.put(d.name, d.value);
    }
    let plain_s: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let traced_s: Vec<f64> = traced.iter().map(|t| t.run.wall_s).collect();
    let overhead = median(&traced_s) / median(&plain_s) - 1.0;
    layers.put("trace.overhead_frac", overhead);

    // The first traced run's spans stand for all of them: a fleet run
    // records tens of thousands of window spans.
    let _ = std::fs::remove_file(trace_path);
    if let Err(e) = traced[0].trace.write_jsonl(trace_path, w.name()) {
        eprintln!("wavebench: cannot write {}: {e}", trace_path.display());
    }

    let outcomes = || {
        plain
            .iter()
            .map(|r| &r.outcome)
            .chain(traced.iter().map(|t| &t.run.outcome))
    };
    let attempted = outcomes().map(|o| o.attempted).sum();
    let failed = outcomes().map(|o| o.failed).sum();
    let unavailable_json: Vec<String> = unavailable
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    let detail = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": 1, \"context\": {}, \"trace_overhead_frac\": {}, \"trace_file\": {}, \"unavailable\": {{{}}}, \"errors\": {}}}",
        json_string(w.name()),
        context_json(&plain_s, measured_s),
        json_number(overhead),
        json_string(&trace_path.display().to_string()),
        unavailable_json.join(", "),
        errors_json(&errors),
    );
    Report::new(&errors, attempted, failed, layers, detail)
}
