//! In-memory span recording around the harness's calls into each library
//! layer.
//!
//! A span has a name, the layer it entered, start/end (ns since the
//! tracer's epoch), the span that caused it, and the workload pass and
//! cell it belongs to. Spans live in a `Vec` until the benchmark ends and
//! are then written as JSON lines. A layer's *self time* is its span's
//! duration minus the part its direct children cover.
//!
//! The tracer is off for end-to-end measurements: `enter`/`exit` are then a
//! branch and nothing else, so the same workload code serves both runs and
//! the traced-vs-untraced difference is the tracing overhead.

use std::time::Instant;

use crate::json::Json;

/// The repo's layers, named after its crates (plus the harness itself,
/// which owns whatever time is not inside a library call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Harness,
    Data,
    Sim,
    Core,
    Apps,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::Harness,
        Layer::Data,
        Layer::Sim,
        Layer::Core,
        Layer::Apps,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Data => "data",
            Layer::Sim => "sim",
            Layer::Core => "core",
            Layer::Apps => "apps",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
    pub cell: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
    cell: Option<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
            cell: None,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggling inside an open span");
        self.on = on;
    }

    /// Stamps subsequent spans with this pass (and no cell).
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
        self.cell = None;
    }

    /// Stamps subsequent spans with this cell of the current pass.
    pub fn set_cell(&mut self, cell: usize) {
        self.cell = Some(cell as u32);
    }

    pub fn enter(&mut self, name: &'static str, layer: Layer) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            pass: self.pass,
            cell: self.cell,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.enter(name, layer);
        let r = f(self);
        self.exit(id);
        r
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self time summed per layer, in [`Layer::ALL`] order.
pub fn self_time_by_layer(spans: &[Span]) -> [u64; 5] {
    let mut by = [0u64; 5];
    for (s, own) in spans.iter().zip(self_times(spans)) {
        by[Layer::ALL
            .iter()
            .position(|l| *l == s.layer)
            .expect("layer")] += own;
    }
    by
}

/// Checks the nesting invariants: every child lies inside its parent, and
/// (consequently) self times are non-negative and sum to the roots' total.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if p >= i || s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) escapes its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
    }
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    let own: u64 = self_times(spans).iter().sum();
    if own != roots {
        return Err(format!("self times sum to {own} ns, roots to {roots} ns"));
    }
    Ok(())
}

/// One JSON object per line, in recording order.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        let line = Json::obj()
            .with("id", i)
            .with("parent", s.parent)
            .with("workload", workload)
            .with("pass", u64::from(s.pass))
            .with("cell", s.cell.map(u64::from))
            .with("layer", s.layer.name())
            .with("name", s.name)
            .with("start_ns", s.start_ns)
            .with("end_ns", s.end_ns)
            .with("self_ns", own);
        out.push_str(&line.compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,60) > b [20,30); root > c [70,90)
        let spans = vec![
            span(Layer::Harness, 0, 100, None),
            span(Layer::Apps, 10, 60, Some(0)),
            span(Layer::Core, 20, 30, Some(1)),
            span(Layer::Sim, 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        assert_eq!(self_time_by_layer(&spans), [30, 0, 20, 10, 40]);
        check_nesting(&spans).unwrap();
    }

    #[test]
    fn nesting_check_rejects_escaping_children() {
        let spans = vec![
            span(Layer::Harness, 0, 50, None),
            span(Layer::Core, 40, 60, Some(0)),
        ];
        assert!(check_nesting(&spans).unwrap_err().contains("escapes"));
    }

    #[test]
    fn recorded_spans_nest_and_sum_to_the_root() {
        let mut tr = Tracer::new(true);
        tr.set_pass(3);
        tr.set_cell(7);
        tr.scope("pass", Layer::Harness, |tr| {
            tr.scope("cell", Layer::Apps, |tr| {
                tr.scope("inner", Layer::Core, |_| std::hint::black_box(1 + 1));
            });
            tr.scope("cell", Layer::Sim, |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!((spans[1].pass, spans[1].cell), (3, Some(7)));
        check_nesting(spans).unwrap();
        let jsonl = to_jsonl("w", spans);
        assert_eq!(jsonl.lines().count(), 4);
        for line in jsonl.lines() {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("workload").unwrap().as_str(), Some("w"));
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let r = tr.scope("x", Layer::Core, |tr| tr.scope("y", Layer::Sim, |_| 5));
        assert_eq!(r, 5);
        assert!(tr.spans().is_empty());
    }
}
