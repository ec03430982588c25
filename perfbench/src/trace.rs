//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the program is instrumented; a span covers one
//! public call as seen from outside. Spans stay in memory until the run
//! ends and are then written out as one JSON document.

use gunrock_engine::json::JsonBuilder;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph.build` or `algos.bfs`.
    pub name: String,
    /// Start, in seconds since the tracer's epoch.
    pub start: f64,
    /// End, in seconds since the tracer's epoch (NaN while open).
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation id shared by the spans of one pass or request.
    pub op: u64,
}

/// A span recorder; a disabled tracer records nothing and costs one
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    /// A tracer measuring from `epoch`; records only when `on`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer { on, epoch, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &str, parent: SpanId, op: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span { name: name.to_string(), start, end: f64::NAN, parent, op });
        Some(self.spans.len() - 1)
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> Option<f64> {
        let span = &mut self.spans[id?];
        span.end = self.epoch.elapsed().as_secs_f64();
        Some(span.end - span.start)
    }

    /// Moves another tracer's spans (sharing this epoch) into this one,
    /// re-parenting its roots under `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: SpanId) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && !s.end.is_nan())
            .map(Span::secs)
            .collect()
    }

    /// Total and self time in seconds per span name. Self time is the
    /// span's duration minus the part of it its child spans cover;
    /// overlapping children (concurrent requests) are counted once.
    pub fn self_times(&self) -> BTreeMap<String, (f64, f64)> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in self.spans.iter().filter(|s| !s.end.is_nan()) {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for (s, mut kids) in self.spans.iter().zip(children) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, s.start);
            for (lo, hi) in kids {
                let (lo, hi) = (lo.max(reach), hi.min(s.end));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            let e = out.entry(s.name.clone()).or_insert((0.0, 0.0));
            e.0 += s.secs();
            e.1 += (s.secs() - covered).max(0.0);
        }
        out
    }

    /// The spans and their per-name totals as one JSON document.
    pub fn to_json(&self) -> String {
        let mut b = JsonBuilder::new();
        b.begin_object();
        b.key("spans");
        b.begin_array();
        for s in &self.spans {
            b.begin_object();
            b.field_str("name", &s.name);
            b.field_f64("start_s", s.start);
            b.field_f64("end_s", s.end);
            match s.parent {
                Some(p) => b.field_u64("parent", p as u64),
                None => b.field_null("parent"),
            }
            b.field_u64("op", s.op);
            b.end_object();
        }
        b.end_array();
        b.key("self_time_s");
        b.begin_object();
        for (name, (_, own)) in self.self_times() {
            b.field_f64(&name, own);
        }
        b.end_object();
        b.end_object();
        b.finish()
    }
}

impl Span {
    /// Duration in seconds (0 while open).
    pub fn secs(&self) -> f64 {
        if self.end.is_nan() {
            0.0
        } else {
            self.end - self.start
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("a", None, 1);
        assert_eq!(id, None);
        assert_eq!(t.end(id), None);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer", None, 1);
        let inner = t.begin("inner", outer, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let times = t.self_times();
        let (outer_total, outer_self) = times["outer"];
        let (inner_total, _) = times["inner"];
        assert!(inner_total >= 0.002);
        assert!((outer_total - inner_total - outer_self).abs() < 1e-9);
        assert_eq!(t.durations("inner").len(), 1);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            Span { name: "phase".into(), start: 0.0, end: 10.0, parent: None, op: 0 },
            Span { name: "req".into(), start: 1.0, end: 5.0, parent: Some(0), op: 1 },
            Span { name: "req".into(), start: 2.0, end: 6.0, parent: Some(0), op: 2 },
            Span { name: "req".into(), start: 8.0, end: 9.0, parent: Some(0), op: 3 },
        ];
        let times = t.self_times();
        assert_eq!(times["phase"], (10.0, 4.0));
        assert_eq!(times["req"], (9.0, 9.0));
    }

    #[test]
    fn absorb_reparents_roots() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, epoch);
        let root = main.begin("phase", None, 0);
        let mut worker = Tracer::new(true, epoch);
        let req = worker.begin("req", None, 7);
        let sub = worker.begin("sub", req, 7);
        worker.end(sub);
        worker.end(req);
        main.absorb(worker, root);
        main.end(root);
        assert_eq!(main.spans()[1].parent, Some(0));
        assert_eq!(main.spans()[2].parent, Some(1));
        assert!(main.to_json().contains("\"self_time_s\""));
    }
}
