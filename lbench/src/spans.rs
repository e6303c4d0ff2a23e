//! The traced run's span recorder. Spans are taken from this benchmark's
//! own code, around its calls into each layer's public functions; they
//! stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One closed span. `name` is `layer.what`; the layer is the part before
/// the first dot. Spans of one operation share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub op: u64,
    pub start: u64,
    pub end: u64,
}

/// A per-thread recorder. When disabled, [`Tracer::leaf`] still returns
/// the call's duration (stage timings feed metrics) but records nothing.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        epoch();
        Tracer {
            on,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Opens a span; a root span (no span open) starts a new operation.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        if self.open.is_empty() {
            self.op += 1;
        }
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start: now_ns(),
            end: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end = now_ns();
        }
    }

    /// Runs `f` inside a span named `name` and returns its result with its
    /// wall time in nanoseconds.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        self.enter(name);
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.exit();
        (out, ns)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer in milliseconds: each span's duration minus the
    /// part its child spans cover, summed by layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = s.end.saturating_sub(s.start).saturating_sub(c);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{i},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.name,
                s.start,
                s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.enter("root.op");
        t.leaf("a.work", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.exit();
        let by = t.self_ms_by_layer();
        assert!(by["a"] >= 3.0);
        assert!(by["root"] < by["a"]);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_times() {
        let mut t = Tracer::new(false);
        let (v, ns) = t.leaf("a.work", || 7);
        assert_eq!(v, 7);
        assert!(ns < 1_000_000_000);
        assert_eq!(t.len(), 0);
    }
}
