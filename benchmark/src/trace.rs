//! Spans recorded by the benchmark around its calls into the program,
//! kept in memory and written out once at exit.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Detail spans — the stage spans rebuilt from request traces, and the
/// point operations of a saturated run — are kept up to this many: a
/// fine-grained query alone has 8 000, and a trace file of every one over
/// a whole run would be hundreds of megabytes. Set-up and query spans
/// are always kept.
const MAX_DETAIL_SPANS: usize = 50_000;

/// One timed interval. `parent` 0 means a root span; spans of one
/// measured unit share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u64,
    /// Id of the enclosing span, 0 for none.
    pub parent: u64,
    /// The measured unit (query or operation number) this belongs to.
    pub request: u64,
    /// What ran.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their durations minus what their child spans cover, ns.
    pub self_ns: u64,
}

/// An in-memory span store on one monotonic clock.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    detail_spans: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            // Room for every detail span and the queries of a long run:
            // recording a span then allocates nothing, which matters to
            // the allocation counts of a traced run.
            spans: Vec::with_capacity(MAX_DETAIL_SPANS + (1 << 13)),
            detail_spans: 0,
        }
    }

    /// Nanoseconds since the tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `at` on the tracer's clock (0 for an instant before it was made).
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn span(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Times `f` as a root span named `name`.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.span(0, 0, name, start, end);
        out
    }

    /// Records a detail span — a stage of a sub-request, or one point
    /// operation — unless the cap on those has been reached.
    pub fn detail_span(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.detail_spans < MAX_DETAIL_SPANS {
            self.detail_spans += 1;
            self.span(parent, request, name, start_ns, end_ns);
        }
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name. A span's self time is
    /// its duration minus the part of it that its children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in &self.spans {
            let covered = children
                .get_mut(&s.id)
                .map(|iv| covered_ns(iv, s.start_ns, s.end_ns))
                .unwrap_or(0);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += (s.end_ns - s.start_ns) - covered;
        }
        out
    }

    /// Writes the spans as one JSON array of
    /// `{id, parent, request, name, start_ns, end_ns}` objects.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let q = t.span(0, 1, "query", 0, 100);
        t.span(q, 1, "a", 10, 40);
        t.span(q, 1, "b", 30, 60); // overlaps a: union is 10..60
        t.span(q, 1, "c", 90, 130); // sticks out: clipped to 90..100
        let totals = t.totals();
        assert_eq!(totals["query"].total_ns, 100);
        assert_eq!(totals["query"].self_ns, 100 - 50 - 10);
        assert_eq!(totals["a"].self_ns, 30);
        assert_eq!(totals["query"].count, 1);
    }

    #[test]
    fn detail_spans_are_capped_and_other_spans_are_not() {
        let mut t = Tracer::new();
        for i in 0..(MAX_DETAIL_SPANS as u64 + 10) {
            t.detail_span(1, i, "in-db", 0, 1);
        }
        assert_eq!(t.spans().len(), MAX_DETAIL_SPANS);
        t.span(0, 0, "query", 0, 1);
        assert_eq!(t.spans().len(), MAX_DETAIL_SPANS + 1);
    }
}
