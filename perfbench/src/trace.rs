//! The traced run's span recorder. Spans are taken by the benchmark
//! around its own calls into each crate's public functions; nothing is
//! recorded inside the program. Spans stay in memory and are written
//! out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `shard.execute`.
    pub name: &'static str,
    /// The operation this call belongs to; spans of one op share it.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin; `start_ns` until closed.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Wall time of the call.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store. A disabled recorder keeps nothing, so the
/// untraced run pays one branch per call.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts at `origin`; recorders that will
    /// be merged must share it.
    pub fn new(origin: Instant, enabled: bool) -> Recorder {
        Recorder {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index (`usize::MAX` when disabled).
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id` opened.
    pub fn end(&mut self, id: usize) {
        if id != usize::MAX {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Moves another recorder's spans (same origin) into this one.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part of its
    /// interval that its child spans cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = 0;
        for (start, end) in kids {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        self.spans[id].dur_ns().saturating_sub(covered)
    }

    /// Per layer: `(spans, total ms, self ms)`.
    pub fn layer_table(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut table = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = table.entry(s.layer()).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.dur_ns() as f64 / 1e6;
            e.2 += self.self_ns(i) as f64 / 1e6;
        }
        table
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut r = Recorder::new(Instant::now(), true);
        let root = r.begin("server.op", 1, None);
        let a = r.begin("engine.a", 1, Some(root));
        std::thread::sleep(std::time::Duration::from_millis(20));
        r.end(a);
        std::thread::sleep(std::time::Duration::from_millis(20));
        r.end(root);
        let self_ms = r.self_ns(root) as f64 / 1e6;
        let total_ms = r.spans()[root].dur_ns() as f64 / 1e6;
        assert!(
            self_ms >= 19.0 && self_ms < total_ms - 19.0,
            "{self_ms} of {total_ms}"
        );
        let table = r.layer_table();
        assert_eq!(table["server"].0, 1);
        assert_eq!(table["engine"].0, 1);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(Instant::now(), false);
        let v = r.time("x.y", 0, None, || 5);
        assert_eq!(v, 5);
        assert!(r.spans().is_empty());
    }
}
