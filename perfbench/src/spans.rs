//! The traced run's span recorder: one in-memory span per layer call, kept
//! until the end of the run and then written out as JSON lines.
//!
//! Spans are recorded from the benchmark's own files, around the public
//! entry point of each layer; the program itself is not instrumented.  A
//! span's name is `<layer>.<call>`, where the layer is one of the
//! workspace's crates (`xmlstore`, `textindex`, `datagraph`, `dataguide`,
//! `topk`, `twigjoin`, `olap`, `core`).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The crates a span can be attributed to, in pipeline order.
pub const LAYERS: &[&str] =
    &["xmlstore", "textindex", "datagraph", "dataguide", "topk", "twigjoin", "olap", "core"];

pub struct Span {
    pub request: u32,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.counters.iter().find(|(k, _)| *k == key).map_or(0, |&(_, v)| v)
    }
}

/// Records spans when enabled; when disabled, `span` only runs the closure,
/// which is how the tracing overhead is measured.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    request: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts a new request id; spans recorded from now on belong to it.
    pub fn begin_request(&mut self, request: u32) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            request: self.request,
            parent: self.stack.last().copied(),
            name,
            start_ns: 0,
            end_ns: 0,
            counters: Vec::new(),
        });
        self.stack.push(index);
        self.spans[index].start_ns = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.spans[index].end_ns = end;
        self.stack.pop();
        out
    }

    /// Attaches work counters to the most recently closed span.
    pub fn count(&mut self, counters: &[(&'static str, u64)]) {
        if let Some(span) = self.spans.last_mut().filter(|_| self.enabled) {
            span.counters.extend_from_slice(counters);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (duration minus the part covered by child spans) summed per
    /// layer, over the spans of `requests` (root spans excluded: they hold
    /// the benchmark's own glue, not a layer).
    pub fn self_ms_by_layer(&self, requests: impl Fn(u32) -> bool) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ms[parent] += span.ms();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if span.parent.is_some() && requests(span.request) {
                *out.entry(span.layer()).or_default() += span.ms() - child_ms[i];
            }
        }
        out
    }

    /// Total duration of the direct children of each root span of `request`.
    pub fn attributed_ms(&self, request: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.request == request)
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].parent.is_none()))
            .map(Span::ms)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let counters: Vec<String> =
                span.counters.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"request\": {}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"counters\": {{{}}}}}",
                span.request,
                span.name,
                span.start_ns,
                span.end_ns,
                counters.join(", ")
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(true);
        rec.begin_request(1);
        rec.span("request", |rec| {
            rec.span("twigjoin.complete_results", |rec| {
                rec.span("olap.aggregate", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        let by_layer = rec.self_ms_by_layer(|r| r == 1);
        assert!(by_layer["olap"] >= 2.0);
        assert!(by_layer["twigjoin"] < by_layer["olap"]);
        assert!((rec.attributed_ms(1) - spans[1].ms()).abs() < 1e-9);
        let mut off = Recorder::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
