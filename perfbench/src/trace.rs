//! In-memory span recorder for the traced run.
//!
//! A span is opened around one call the benchmark makes into a layer's
//! public API. Span names are `<layer>.<entry point>`; the layer is the
//! prefix before the first dot. Spans stay in memory and are written as
//! chrome://tracing JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<entry point>`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Step (clip or tick) the span belongs to.
    pub step: u64,
    /// Session the call served, when it served one.
    pub session: Option<usize>,
}

/// Count, total duration and total self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean duration per call in `unit_ns` units (0 without calls).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / unit_ns
        }
    }
}

/// The span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: u64,
    session: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
            session: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Sets the step id stamped on spans opened from now on.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Sets the session id stamped on spans opened from now on.
    pub fn set_session(&mut self, session: Option<usize>) {
        self.session = session;
    }

    /// Opens a span; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            step: self.step,
            session: self.session,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, self times included.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let tree: Vec<_> = self
            .spans
            .iter()
            .map(|s| (s.start_ns, s.end_ns, s.parent))
            .collect();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(stats::self_times(&tree)) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// chrome://tracing JSON ("X" complete events, microseconds).
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let layer = layer_of(s.name);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"workload\":\"{workload}\",\"step\":{},\
                 \"session\":{},\"parent\":{}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.step,
                s.session.map_or("null".to_string(), |v| v.to_string()),
                s.parent.map_or("null".to_string(), |v| v.to_string()),
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// The layer a span name belongs to: the prefix before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_split_self_time() {
        let mut t = Tracer::new();
        let root = t.begin("bench.step");
        let a = t.begin("core.saliency");
        t.time("sampler.index_map", || std::hint::black_box(1 + 1));
        t.end(a);
        t.end(root);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        let totals = t.totals();
        let get = |n: &str| totals.get(n).copied().unwrap_or_default();
        let (step, sal, map) = (
            get("bench.step"),
            get("core.saliency"),
            get("sampler.index_map"),
        );
        assert_eq!(step.count, 1);
        assert_eq!(step.self_ns + sal.self_ns + map.self_ns, step.total_ns);
        assert_eq!(get("never").count, 0);
    }

    #[test]
    fn chrome_export_is_one_event_per_span() {
        let mut t = Tracer::new();
        t.set_step(3);
        t.set_session(Some(2));
        t.time("scene.render", || ());
        let json = t.chrome_json("serve");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert!(json.contains("\"cat\":\"scene\""));
        assert!(json.contains("\"step\":3,\"session\":2,\"parent\":null"));
    }

    #[test]
    fn layer_is_the_name_prefix() {
        assert_eq!(layer_of("hw.price.skip"), "hw");
        assert_eq!(layer_of("scene"), "scene");
    }
}
