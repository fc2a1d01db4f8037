//! In-memory spans around the calls into each layer.
//!
//! The traced pass records one span per call (name, start, end, parent,
//! op id), keeps them in memory and writes them out when the run ends.
//! A layer's figure is the median *self* time of its spans: a span's
//! duration minus what its direct children cover.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one replayed op share this id.
    pub op: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start the next op: spans opened from here on carry a fresh id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Record a child whose duration the callee measured itself (the
    /// what-if engine's `EvalStats.wall` inside a search call), placed
    /// at the start of the still-open `parent`.
    pub fn child_measured(&mut self, name: &'static str, parent: u32, dur_ns: u64) {
        let start_ns = self.spans[parent as usize].start_ns;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in nanoseconds, indexed like `spans()`.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Median self time per span name, in microseconds.
    pub fn median_self_us(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_ns();
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            by_name.entry(s.name).or_default().push(ns as f64 / 1e3);
        }
        by_name
            .into_iter()
            .map(|(name, v)| (name, stats::median(v)))
            .collect()
    }

    /// Write one JSON object per span, in the order the spans opened.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Cost of recording one empty span, in nanoseconds (median of many),
/// so a reader can tell which layer figures are near the noise floor.
pub fn span_cost_ns() -> f64 {
    let mut t = Tracer::new();
    for _ in 0..10_000 {
        let id = t.begin("empty");
        t.end(id);
    }
    stats::median(t.spans.iter().map(|s| s.dur_ns() as f64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = Tracer {
            epoch: Instant::now(),
            spans: vec![
                span("op", None, 0, 1000),
                span("plan", Some(0), 100, 300),
                span("exec", Some(0), 300, 900),
                // A grandchild shortens `exec`, not `op`.
                span("join", Some(2), 400, 500),
            ],
            open: Vec::new(),
            op: 1,
        };
        assert_eq!(t.self_ns(), vec![200, 200, 500, 100]);
        let m = t.median_self_us();
        assert_eq!(m["op"], 0.2);
        assert_eq!(m["exec"], 0.5);
    }

    #[test]
    fn begin_end_nest_and_measured_children_attach_to_their_parent() {
        let mut t = Tracer::new();
        t.next_op();
        let op = t.begin("op");
        let inner = t.begin("search");
        t.child_measured("whatif", inner, 0);
        t.end(inner);
        t.end(op);
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert!(s.iter().all(|x| x.op == 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut t = Tracer::new();
        let a = t.begin("a");
        t.end(a);
        let b = t.begin("b");
        t.end(b);
        let path = std::env::temp_dir().join(format!("xia-benchmark-trace-{}", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"id\":0,\"name\":\"a\",\"op\":0,\"parent\":null,"));
    }
}
