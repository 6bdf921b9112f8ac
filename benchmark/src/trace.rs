//! Spans recorded by the harness around calls into the library: kept in
//! memory while the workload runs, written out at exit, and reduced to
//! per-name durations and self times.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. All spans of one visit (one cold visit, one warm
/// solve, one request …) share `visit`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub visit: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle for an open span; `None` inside when tracing is off, so an
/// untraced run reads no clock and stores nothing.
pub struct Open(Option<u32>);

/// The in-memory span recorder. One per thread that records.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    first_id: u32,
    visit: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder whose clock starts at `origin`; ids start at `first_id`
    /// so recorders of several threads can be merged.
    pub fn new(enabled: bool, origin: Instant, first_id: u32) -> Self {
        Self {
            enabled,
            origin,
            first_id,
            visit: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off between visits (the traced run alternates,
    /// to measure what recording costs).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "cannot toggle inside an open span");
        self.enabled = enabled;
    }

    /// Tag the spans that follow with a visit number.
    pub fn set_visit(&mut self, visit: u32) {
        self.visit = visit;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.first_id + self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            visit: self.visit,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span; spans close innermost first.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let end_ns = self.now_ns();
        self.spans[(id - self.first_id) as usize].end_ns = end_ns;
    }

    /// Record a span around `f`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Duration and self time of every span, grouped by name. Self time is the
/// span's duration minus the part its direct children cover.
pub fn reduce(spans: &[Span]) -> BTreeMap<&'static str, Vec<(f64, f64)>> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = child_ns.get(&s.id).copied().unwrap_or(0).min(dur);
        out.entry(s.name)
            .or_default()
            .push((dur as f64 * 1e-9, (dur - covered) as f64 * 1e-9));
    }
    out
}

/// Durations of the spans called `name`, optionally only those tagged with
/// a visit in `visits`.
pub fn durations(spans: &[Span], name: &str, visits: Option<&[u32]>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && visits.is_none_or(|v| v.contains(&s.visit)))
        .map(Span::seconds)
        .collect()
}

/// The share of the root spans called `root` that their direct children
/// account for — how much of a visit the layer spans explain.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let reduced = reduce(spans);
    let Some(roots) = reduced.get(root) else {
        return f64::NAN;
    };
    let total: f64 = roots.iter().map(|(d, _)| d).sum();
    let own: f64 = roots.iter().map(|(_, s)| s).sum();
    1.0 - own / total
}

pub fn span_to_value(s: &Span) -> Value {
    Value::Object(vec![
        ("id".to_string(), Value::UInt(u64::from(s.id))),
        (
            "parent".to_string(),
            s.parent.map_or(Value::Null, |p| Value::UInt(u64::from(p))),
        ),
        ("visit".to_string(), Value::UInt(u64::from(s.visit))),
        ("name".to_string(), Value::Str(s.name.to_string())),
        ("start_ns".to_string(), Value::UInt(s.start_ns)),
        ("end_ns".to_string(), Value::UInt(s.end_ns)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            visit: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, None, "visit", 0, 1000),
            span(1, Some(0), "build", 100, 700),
            span(2, Some(0), "solve", 700, 950),
            span(3, Some(1), "probe", 100, 200),
        ];
        let r = reduce(&spans);
        let s = |ns: u64| ns as f64 * 1e-9;
        assert_eq!(r["visit"], vec![(s(1000), s(150))]);
        assert_eq!(r["build"], vec![(s(600), s(500))]);
        assert_eq!(r["solve"], vec![(s(250), s(250))]);
        assert!((coverage(&spans, "visit") - 0.85).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_sets_parents() {
        let mut off = Tracer::new(false, Instant::now(), 0);
        let v = off.span("x", || 7);
        assert_eq!(v, 7);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true, Instant::now(), 10);
        on.set_visit(3);
        let outer = on.begin("outer");
        on.span("inner", || ());
        on.end(outer);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].id, spans[0].parent), (10, None));
        assert_eq!((spans[1].id, spans[1].parent), (11, Some(10)));
        assert!(spans.iter().all(|s| s.visit == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
