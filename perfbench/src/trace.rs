//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (nanoseconds since the run's origin)
//! and the span that was open when it started. Spans stay in memory and
//! are written out as JSON lines when the run ends. With tracing off every
//! call is a no-op that reads no clock.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::close`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread, sharing this one's clock origin; fold
    /// it back in with [`absorb`](Self::absorb).
    pub fn fork(&self) -> Self {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn close(&mut self, span: SpanId) {
        if let SpanId(Some(id)) = span {
            self.spans[id].end_ns = self.now_ns();
            if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
                self.open.truncate(pos);
            }
        }
    }

    /// Records an already measured interval as a closed child of the
    /// currently open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
        });
    }

    /// Appends another thread's spans; its root spans become children of
    /// the span open here.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(parent);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in seconds: each span's duration minus the part
    /// its direct children cover, summed by layer (the name up to the first
    /// `.`). Sorted by layer name.
    pub fn self_seconds_by_layer(&self) -> Vec<(String, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut layers: std::collections::BTreeMap<String, f64> = Default::default();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *layers.entry(layer).or_default() += own as f64 * 1e-9;
        }
        layers.into_iter().collect()
    }

    /// The spans as JSON lines tagged with the workload and run id.
    pub fn to_json_lines(&self, workload: &str, run_id: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{run_id}\",\"workload\":\"{workload}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "a.x",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "b.y",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "b.z",
                start_ns: 50,
                end_ns: 60,
                parent: Some(1),
            },
        ];
        let layers = t.self_seconds_by_layer();
        assert_eq!(layers[0], ("a".to_string(), 70e-9));
        assert!((layers[1].1 - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("a.x");
        t.close(s);
        t.record("a.y", Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
