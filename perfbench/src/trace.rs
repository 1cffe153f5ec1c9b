//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! workspace crates (plus pass spans rebuilt from the `Build::timings` a
//! build already returns); the program itself carries no spans. A span's
//! layer is its name up to the first `.`: `sim.attack_campaign` belongs to
//! `sim`, `bench.round` to the benchmark itself.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Shared by every span of one build, campaign round or execute.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Nanoseconds of self time per `(root span name, layer)`.
pub type SelfTimes = BTreeMap<(&'static str, &'static str), u64>;

/// Handle to an open span; inert when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The handle a disabled tracer hands out, and the "no parent" value.
    pub const NONE: SpanId = SpanId(None);
}

/// Records spans when enabled; every method is a no-op when disabled.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores everything.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since creation.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let now = self.now_ns();
        self.record(name, op, parent, now, now)
    }

    /// Closes a span now.
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Records a finished span with explicit bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        self.spans.push(Span {
            name,
            op,
            parent: parent.0,
            start_ns,
            end_ns,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that the union of its children covers.
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
                let (mut covered, mut reach) = (0, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self time summed per `(root span name, layer)`, and total duration
    /// per root span name.
    pub fn self_by_root_layer(&self) -> (SelfTimes, BTreeMap<&'static str, u64>) {
        let self_ns = self.self_ns();
        let mut root = Vec::with_capacity(self.spans.len());
        let mut by_layer = BTreeMap::new();
        let mut totals = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are always recorded before their children.
            let r = s.parent.map_or(i, |p| root[p]);
            root.push(r);
            let root_name = self.spans[r].name;
            if r == i {
                *totals.entry(root_name).or_insert(0) += s.end_ns - s.start_ns;
            }
            *by_layer.entry((root_name, layer_of(s.name))).or_insert(0) += self_ns[i];
        }
        (by_layer, totals)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The layer a span name belongs to: its text before the first `.`.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.record("bench.round", 1, SpanId::NONE, 0, 100);
        t.record("sim.a", 1, root, 10, 40);
        t.record("sim.b", 1, root, 30, 60); // overlaps sim.a by 10
        t.record("sim.c", 1, root, 90, 150); // runs past the parent's end
        assert_eq!(t.self_ns(), vec![100 - 50 - 10, 30, 30, 60]);
        let (by_layer, totals) = t.self_by_root_layer();
        assert_eq!(by_layer[&("bench.round", "bench")], 40);
        assert_eq!(by_layer[&("bench.round", "sim")], 120);
        assert_eq!(totals["bench.round"], 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("sim.x", 0, SpanId::NONE);
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
