//! The traced run's span recorder.
//!
//! Spans are recorded at the boundaries the benchmark's own wrappers see
//! — around calls into each layer's public API — and kept in memory
//! until the run ends, when [`Trace::write_jsonl`] writes them out. A
//! span's self time is its duration minus the part of it its child
//! spans cover. Where a layer is entered millions of times (policy
//! calls, fabric transit), one span per call would cost more than the
//! call; such children are recorded as one aggregate span per parent,
//! starting with the parent and as long as the summed calls.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name (`ghost.advance`, `fleet.barrier`, ...).
    pub name: &'static str,
    /// Start, in ns since the trace began.
    pub start_ns: u64,
    /// End, in ns since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans and counters of one workload run.
#[derive(Debug)]
pub struct Trace {
    /// Identifier shared by every span of this run.
    pub run: u32,
    epoch: Instant,
    spans: Vec<Span>,
    counters: Vec<(&'static str, f64)>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new(run: u32) -> Self {
        Trace {
            run,
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// The instant ns offsets count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// ns since the trace began.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Opens a span starting now; [`Trace::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.push(name, now, now, parent)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a counter observed at a layer boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counters.push((name, value));
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Summed self time, in seconds, of the spans named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Summed duration, in seconds, of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Appends the trace to `path` as JSON lines: one object per span
    /// (`run`, `id`, `name`, `start_ns`, `end_ns`, `parent`, `self_ns`)
    /// and one per counter (`run`, `counter`, `value`).
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        let own = self.self_ns();
        for (id, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\": \"{workload}\", \"run\": {}, \"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {self_ns}}}",
                self.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        for &(name, value) in &self.counters {
            writeln!(
                out,
                "{{\"workload\": \"{workload}\", \"run\": {}, \"counter\": \"{name}\", \"value\": {}}}",
                self.run,
                crate::metrics::json_number(value)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new(0);
        let root = t.push("root", 0, 100, None);
        t.push("a", 10, 40, Some(root));
        t.push("b", 30, 50, Some(root)); // overlaps a: union is 10..50
        t.push("c", 90, 120, Some(root)); // clipped to the parent's end
        let own = t.self_ns();
        assert_eq!(own[root], 100 - 40 - 10);
        assert_eq!(own[1], 30);
        assert_eq!(t.total_s("a"), 30e-9);
        assert_eq!(t.self_s("root"), 50e-9);
    }
}
