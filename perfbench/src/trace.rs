//! In-memory span recording around the benchmark's calls into each
//! crate's public functions.
//!
//! Each thread that issues calls owns a [`Recorder`]; spans nest via
//! the recorder's stack of open spans, and every span of one request
//! carries that request's id. Recorders are merged when the run ends
//! and reduced to per-name totals and self times. With tracing off a
//! span is a plain call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Source of span ids, unique across every recorder of the process.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span open on the same thread when this one started.
    pub parent: Option<u64>,
    /// Request the span belongs to (0 outside any request).
    pub req: u64,
    /// Layer-qualified name, e.g. `gen.generate`.
    pub name: &'static str,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
}

/// Per-thread span recorder.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    stack: Vec<u64>,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// A recorder for one thread of a run started at `origin`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Recorder { enabled, origin, stack: Vec::new(), spans: Vec::new(), counts: BTreeMap::new() }
    }

    /// Turns span recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` inside a span named `name` for request `req`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        // Relaxed: the id only has to be unique, it orders nothing.
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.stack.pop();
        self.spans.push(Span { id, parent, req, name, start_ns: start, end_ns: end });
        out
    }

    /// Adds `n` to the count `name` (counted when tracing or not:
    /// counts are cheap and some checks use them).
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The count `name` so far.
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Moves another recorder's spans and counts into this one.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
        for (k, v) in other.counts {
            self.count(k, v);
        }
    }

    /// The spans closed so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name aggregate of closed spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, in seconds.
    pub total_s: f64,
    /// Summed self times (duration minus the part its children
    /// cover), in seconds.
    pub self_s: f64,
}

/// Nanoseconds of `[start, end)` covered by the union of `children`.
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of every span, in ns: its duration minus the part of its
/// interval that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let kids = children.get_mut(&s.id).map(Vec::as_mut_slice).unwrap_or(&mut []);
            (s.id, dur - covered_ns(s.start_ns, s.end_ns, kids).min(dur))
        })
        .collect()
}

/// Aggregates spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9;
        t.self_s += own[&s.id] as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, req: 0, name: "x", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50), // overlaps 2: counted once
            span(4, Some(1), 60, 70),
            span(5, Some(3), 25, 45), // grandchild: only 3 loses it
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 50);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 30 - 20);
        assert_eq!(own[&4], 10);
        assert_eq!(own[&5], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(1, None, 10, 20), span(2, Some(1), 5, 15), span(3, Some(1), 18, 40)];
        assert_eq!(self_times(&spans)[&1], 10 - 5 - 2);
    }

    #[test]
    fn recorder_nests_and_aggregates() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.span("outer", 7, |rec| {
            rec.span("inner", 7, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner span");
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer span");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!((inner.req, outer.req), (7, 7));
        let t = totals(spans);
        assert!(t["inner"].total_s >= 0.002);
        assert!(t["outer"].self_s < t["outer"].total_s);
        assert_eq!(t["outer"].count, 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now());
        assert_eq!(rec.span("a", 0, |_| 5), 5);
        assert!(rec.spans().is_empty());
    }
}
