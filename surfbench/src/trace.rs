//! The benchmark's own spans: timed intervals around calls into each layer's public
//! functions, kept in memory for the traced run and written out when it ends.
//!
//! A span names its layer and its parent: the innermost span open on the same thread, or,
//! on a worker thread a layer fanned out to (which carries no context of its own), the
//! parent the caller names. A layer's self time is its spans' durations minus the part of
//! each interval that the span's children cover; children running in parallel cover
//! their union once.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub layer: &'static str,
    pub thread: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// The innermost span open on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        layer: &'static str,
        start: u64,
    ) {
        let span = Span {
            id,
            parent,
            name,
            layer,
            thread: THREAD.with(|t| *t),
            start,
            end: self.now(),
        };
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Runs `f` inside a new span and returns its result; `f` receives the span's id. The
    /// parent is the innermost span open on this thread, else `fallback`.
    pub fn span<R>(
        &self,
        fallback: Option<u64>,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.reserve();
        let outer = CURRENT.with(|c| c.replace(id));
        let parent = if outer != 0 { Some(outer) } else { fallback };
        let start = self.now();
        let result = f(id);
        self.record(id, parent, name, layer, start);
        CURRENT.with(|c| c.set(outer));
        result
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_length(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self time of every span: its duration minus the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start, span.end));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get_mut(&span.id)
                .map_or(0, |kids| union_length(kids, span.start, span.end));
            (span.id, span.duration().saturating_sub(covered))
        })
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut layers = BTreeMap::new();
    for span in spans {
        *layers.entry(span.layer).or_insert(0) += own[&span.id];
    }
    layers
}

/// A parallel section seen through the spans named `name`: the summed busy time of the
/// spans and the wall time their union covers, in nanoseconds, with the span count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Section {
    pub spans: u64,
    pub busy: u64,
    pub wall: u64,
}

pub fn section(spans: &[Span], name: &str) -> Section {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.start, s.end))
        .collect();
    let busy = intervals.iter().map(|(s, e)| e - s).sum();
    Section {
        spans: intervals.len() as u64,
        busy,
        wall: union_length(&mut intervals, 0, u64::MAX),
    }
}

/// Renders spans as a compact JSON document, one array per span:
/// `[id, parent (0 = root), name, layer, thread, start_ns, end_ns]`.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 * spans.len() + 64);
    out.push_str("{\"fields\":[\"id\",\"parent\",\"name\",\"layer\",\"thread\",\"start_ns\",\"end_ns\"],\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "[{},{},\"{}\",\"{}\",{},{},{}]",
            s.id,
            s.parent.unwrap_or(0),
            s.name,
            s.layer,
            s.thread,
            s.start,
            s.end
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: layer,
            layer,
            thread: id,
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips_to_the_parent() {
        let mut intervals = vec![(30, 70), (10, 50), (80, 120), (60, 65)];
        assert_eq!(union_length(&mut intervals, 0, 100), 60 + 20);
        let mut intervals = vec![(0, 10), (10, 20)];
        assert_eq!(union_length(&mut intervals, 5, 15), 10);
        assert_eq!(union_length(&mut [], 0, 100), 0);
    }

    #[test]
    fn self_time_subtracts_nested_and_parallel_children_once() {
        // root [0, 100] has two children running in parallel on different threads,
        // A [10, 50] and B [30, 70]; A has a nested child C [20, 30].
        let spans = vec![
            span(1, None, "bench", 0, 100),
            span(2, Some(1), "optim", 10, 50),
            span(3, Some(1), "optim", 30, 70),
            span(4, Some(2), "ml", 20, 30),
        ];
        let own = self_times(&spans);
        assert_eq!(
            own[&1],
            100 - 60,
            "parallel children cover their union once"
        );
        assert_eq!(own[&2], 40 - 10);
        assert_eq!(own[&3], 40);
        assert_eq!(own[&4], 10);

        let layers = layer_self_times(&spans);
        assert_eq!(layers["bench"], 40);
        assert_eq!(layers["optim"], 70);
        assert_eq!(layers["ml"], 10);
        // Busy time of parallel work can exceed the wall time it spans.
        let total: u64 = layers.values().sum();
        assert_eq!(total, 120);

        let optim = section(&spans, "optim");
        assert_eq!(
            optim,
            Section {
                spans: 2,
                busy: 80,
                wall: 60
            }
        );
    }

    #[test]
    fn tracer_records_parents_across_threads() {
        let tracer = Tracer::default();
        tracer.span(None, "root", "bench", |root| {
            // Same thread: nesting is implicit.
            tracer.span(None, "nested", "core", |_| ());
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| tracer.span(Some(root), "child", "ml", |_| ()));
                }
            });
        });
        // Closed spans no longer parent later ones.
        tracer.span(None, "after", "bench", |_| ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 5);
        let parent_of = |name: &str| spans.iter().find(|s| s.name == name).map(|s| s.parent);
        assert_eq!(parent_of("after"), Some(None));
        let root = spans.iter().find(|s| s.name == "root").expect("root span");
        let children: Vec<&Span> = spans.iter().filter(|s| s.name == "child").collect();
        assert_eq!(children.len(), 2);
        assert!(children.iter().all(|c| c.parent == Some(root.id)));
        assert_eq!(parent_of("nested"), Some(Some(root.id)));
        assert!(children.iter().all(|c| c.thread != root.thread));
        assert!(children
            .iter()
            .all(|c| c.start >= root.start && c.end <= root.end));
        let json = to_json(&spans);
        assert!(json.starts_with("{\"fields\""));
        assert_eq!(json.matches("\"child\"").count(), 2);
    }
}
