//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<operation>`), a start and end on the
//! tracer's clock, its parent span, and the window or tenant it worked on.
//! Spans stay in memory until the run ends; then they are written as
//! Chrome-trace JSON and folded into a per-layer self-time table. Spans
//! named `bench.*` are the benchmark's own structure (a pass, its timed
//! phase, one closed-loop step) and belong to no layer.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `graph.collapse`.
    pub name: &'static str,
    /// Window or tenant the span worked on (empty when neither applies).
    pub id: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// True for spans whose placement was inferred rather than observed:
    /// the program's own stage histograms give their duration, and the
    /// tracer lays them out back to back from the parent's start.
    pub placed: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder. A disabled tracer records nothing and costs a branch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    on: bool,
}

/// The module a span-name prefix stands for.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "engine" => "analytics::engine",
        "front" => "analytics::sharded",
        "graph" => "graph",
        "roles" => "algos::roles",
        "segment" => "segment",
        "pca" => "linalg (core::anomaly)",
        "monitor" | "analyzer" => "core",
        "obs" => "obs",
        _ => "benchmark",
    }
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), on }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id: id.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            placed: false,
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Close a span (and any span left open inside it).
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end_ns;
            if top == idx {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: &str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Record child spans of `parent` whose durations come from the
    /// program's stage histograms, laid out back to back from the parent's
    /// start and clipped to the parent's end.
    pub fn place(&mut self, parent: Open, children: &[(&'static str, f64)]) {
        let Some(p) = parent.0 else { return };
        let (mut at, end, id) =
            (self.spans[p].start_ns, self.spans[p].end_ns, self.spans[p].id.clone());
        for (name, secs) in children {
            let dur = ((secs.max(0.0) * 1e9) as u64).min(end.saturating_sub(at));
            self.spans.push(Span {
                name,
                id: id.clone(),
                start_ns: at,
                end_ns: at + dur,
                parent: Some(p),
                placed: true,
            });
            at += dur;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the time its children
    /// cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Whether each span lies inside a `bench.timed` span (or is one).
    fn in_timed(&self) -> Vec<bool> {
        let mut inside = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = s.name == "bench.timed" || s.parent.is_some_and(|p| inside[p]);
        }
        inside
    }

    /// Per span name: (inclusive seconds, self seconds, count).
    pub fn by_name(&self) -> BTreeMap<&'static str, (f64, f64, u64)> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, (f64, f64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_ns() as f64 * 1e-9;
            e.1 += own as f64 * 1e-9;
            e.2 += 1;
        }
        out
    }

    /// Per layer: (self seconds, span count), over every span.
    pub fn by_layer(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (name, (_, own, n)) in self.by_name() {
            let e = out.entry(layer_of(name)).or_default();
            e.0 += own;
            e.1 += n;
        }
        out
    }

    /// Seconds of the timed phases, and the part of it that is self time of
    /// a named layer (not the benchmark's own structure).
    pub fn timed_attribution(&self) -> (f64, f64) {
        let own = self.self_ns();
        let inside = self.in_timed();
        let mut timed = 0u64;
        let mut attributed = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == "bench.timed" {
                timed += s.dur_ns();
            }
            if inside[i] && layer_of(s.name) != "benchmark" {
                attributed += own[i];
            }
        }
        (timed as f64 * 1e-9, attributed as f64 * 1e-9)
    }

    /// Chrome-trace JSON (the `traceEvents` array format Perfetto and
    /// `chrome://tracing` load).
    pub fn chrome_json(&self) -> Result<String, String> {
        let events: Vec<serde_json::Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                serde_json::json!({
                    "name": s.name,
                    "cat": layer_of(s.name),
                    "ph": "X",
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": s.dur_ns() as f64 / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "id": s.id.clone(),
                        "span": i,
                        "parent": s.parent.map_or(-1, |p| p as i64),
                        "placed": s.placed,
                    },
                })
            })
            .collect();
        serde_json::to_string(&serde_json::json!({ "traceEvents": events }))
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_timed_share_counts_layers_only() {
        let mut t = Tracer::new(true);
        let timed = t.begin("bench.timed", "");
        let outer = t.begin("analyzer.analyze", "w0");
        std::thread::sleep(std::time::Duration::from_millis(4));
        t.span("obs.scrape", "w0", || std::thread::sleep(std::time::Duration::from_millis(4)));
        t.end(outer);
        t.end(timed);
        t.place(outer, &[("roles.similarity", 0.001)]);
        let by = t.by_name();
        let (incl, own, n) = by["analyzer.analyze"];
        assert_eq!(n, 1);
        assert!(incl >= 0.008 && own < incl - 0.004, "{incl} {own}");
        assert!((by["roles.similarity"].0 - 0.001).abs() < 1e-9);
        let (timed_s, attributed) = t.timed_attribution();
        assert!(attributed <= timed_s && attributed > 0.9 * timed_s);
        assert!(t.chrome_json().unwrap().contains("\"traceEvents\""));
        let off = Tracer::new(false);
        assert!(off.spans().is_empty());
    }
}
