//! Harness-side spans around every call into a layer: name, start, end,
//! the span that caused it, and the request they belong to. Kept in
//! memory; written out once, when the run ends.
//!
//! The untraced run only ever holds [`Tracer::off`], which records
//! nothing; the difference between the two runs is therefore the whole
//! cost of tracing.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one request (one compile, one
    /// kernel run, one RPC).
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing: `span` only calls its closure. The
    /// untraced run and the untraced half of the overhead measurement
    /// go through the same code as the traced run with this.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part of it its direct
/// children cover. Children of one parent never overlap here (the
/// harness is single-threaded around layer calls), so the covered part
/// is the plain sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self time summed by span name, over the spans selected by `keep`.
pub fn self_time_by_name(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut by_name = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        if keep(s) {
            *by_name.entry(s.name).or_insert(0) += ns;
        }
    }
    by_name
}

/// `trace-<workload>.json`: one object per span, in opening order.
pub fn to_json(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("{\"schema\": \"pluto-benchmark-trace/1\", \"spans\": [\n");
    for (i, (s, own_ns)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"self_ns\": {own_ns}, \"parent\": {parent}, \"request\": {}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            s.request,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // root 0..100 { a 10..40 { leaf 15..25 }, b 50..90 }
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("leaf", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree add up to its root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn grandchildren_are_not_subtracted_twice() {
        let spans = vec![
            span("root", 0, 10, None),
            span("mid", 0, 10, Some(0)),
            span("leaf", 0, 10, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![0, 0, 10]);
    }

    #[test]
    fn by_name_sums_and_filters() {
        let mut spans = vec![
            span("compile", 0, 50, None),
            span("parse", 0, 10, Some(0)),
            span("compile", 50, 80, None),
            span("parse", 50, 55, Some(2)),
        ];
        spans[2].request = 2;
        spans[3].request = 2;
        let all = self_time_by_name(&spans, |_| true);
        assert_eq!(all["parse"], 15);
        assert_eq!(all["compile"], 40 + 25);
        let second = self_time_by_name(&spans, |s| s.request == 2);
        assert_eq!(second["parse"], 5);
        assert_eq!(second.get("compile"), Some(&25));
    }

    #[test]
    fn tracer_nests_and_orders() {
        let mut t = Tracer::new();
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| std::hint::black_box(1 + 1));
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(to_json(s).contains("\"name\": \"inner\""));

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", 1, |t| t.span("inner", 1, |_| 5)), 5);
        assert!(off.spans().is_empty());
    }
}
