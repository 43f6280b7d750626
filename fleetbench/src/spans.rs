//! In-memory wall-clock spans recorded around calls into the program's
//! layers, and the per-layer self time computed from them.
//!
//! Spans are recorded only in the benchmark's own code: nothing inside the
//! program is instrumented. A span's self time is its duration minus the
//! time its child spans cover; the root span's self time is the part of the
//! traced interval no layer claims (`unattributed`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Layer name (`core.advance.implicit`, `fleet.warehouse.insert`, …).
    pub layer: &'static str,
    /// Start, nanoseconds after the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer's origin (0 while open).
    pub end_ns: u64,
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded for the layer.
    pub count: u64,
    /// Summed span duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds (may be negative only if spans
    /// overlapped, which the closure check rejects).
    pub self_ns: i64,
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (share one origin
    /// between threads so their spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    /// A fresh tracer sharing this one's origin, for another thread.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, layer: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`; `layer`
    /// replaces its name when the layer is known only after the call
    /// (an advance's incident category).
    pub fn close_as(&mut self, id: usize, layer: &'static str) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.layer = layer;
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let layer = self.spans[id].layer;
        self.close_as(id, layer);
    }

    /// The duration of span `id`, nanoseconds.
    pub fn duration_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        span.end_ns.saturating_sub(span.start_ns)
    }

    /// Per-layer counts, durations and self times.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        assert!(self.open.is_empty(), "every span is closed");
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let totals = layers.entry(span.layer).or_default();
            totals.count += 1;
            totals.total_ns += duration;
            totals.self_ns += duration as i64 - children as i64;
        }
        layers
    }

    /// Appends every span as one JSON line (`scope` names the tracer).
    pub fn write_jsonl(&self, scope: &str, out: &mut String) {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"scope\":\"{scope}\",\"id\":{id},\"parent\":{parent},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.layer, span.start_ns, span.end_ns
            );
        }
    }
}

/// The closure check: the named layers' self times plus the unattributed
/// bucket (the root span's self time) must add up to `wall_ns`, measured
/// independently around the traced interval, to within `tolerance` of it,
/// and no layer may have negative self time.
pub fn closure_holds(
    layers: &BTreeMap<&'static str, LayerTotals>,
    wall_ns: u64,
    tolerance: f64,
) -> bool {
    let sum: i64 = layers.values().map(|totals| totals.self_ns).sum();
    let gap = (sum - wall_ns as i64).unsigned_abs() as f64;
    layers.values().all(|totals| totals.self_ns >= 0) && gap <= tolerance * wall_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_closure_holds() {
        let started = Instant::now();
        let mut tracer = Tracer::new(started);
        let root = tracer.open("replay");
        for _ in 0..3 {
            let advance = tracer.open("core.advance");
            std::thread::sleep(std::time::Duration::from_millis(2));
            tracer.close_as(advance, "core.advance.implicit");
            let insert = tracer.open("fleet.warehouse.insert");
            std::thread::sleep(std::time::Duration::from_millis(1));
            tracer.close(insert);
        }
        tracer.close(root);
        let wall = started.elapsed().as_nanos() as u64;
        let layers = tracer.layers();
        assert_eq!(layers["core.advance.implicit"].count, 3);
        assert!(layers["core.advance.implicit"].self_ns >= 6_000_000);
        let replay = layers["replay"];
        let children: u64 =
            layers["core.advance.implicit"].total_ns + layers["fleet.warehouse.insert"].total_ns;
        assert_eq!(replay.self_ns, replay.total_ns as i64 - children as i64);
        assert!(closure_holds(&layers, wall, 0.01));
        assert!(!closure_holds(&layers, wall * 2, 0.01));
        let mut out = String::new();
        tracer.write_jsonl("t", &mut out);
        assert_eq!(out.lines().count(), 7);
    }
}
