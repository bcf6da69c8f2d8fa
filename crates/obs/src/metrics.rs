//! Atomic instruments and the registry that names them.
//!
//! Recording is lock-free: a [`Counter`] add, a [`Gauge`] store and a [`Histogram`]
//! observation are all relaxed atomic operations on pre-allocated cells — no allocation,
//! no lock, no syscall. The registry's mutex is touched only at *registration* (server
//! start-up) and *snapshot* (a `/metrics` scrape), never on a request path.
//!
//! Determinism: histogram observations are integer nanoseconds into integer buckets, so
//! concurrent recording commutes — a snapshot's bucket counts and sum are independent of
//! the interleaving order of the recording threads (pinned by the crate's proptest suite).
//! Snapshots list families sorted by name and series sorted by label set, so two
//! snapshots of the same state render byte-identically.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A new counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed gauge (current level of something: open connections, queue depth).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A new gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds one to the level.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one from the level.
    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-boundary histogram with atomic buckets.
///
/// Boundaries are inclusive upper bounds in the observed unit (the workspace convention
/// is integer nanoseconds, names ending `_nanos`); one implicit overflow bucket follows
/// the last boundary. Observation is two relaxed `fetch_add`s plus a branchless-ish
/// bucket scan over a boundary array that fits in a cache line or two.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One cell per bound plus the overflow bucket.
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

/// A point-in-time copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) observation counts; `counts.len() == bounds.len() + 1`
    /// with the final entry counting observations above the last bound.
    pub counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: u64,
    /// Total observations (always exactly `counts.iter().sum()`, so a rendered `_count`
    /// agrees with the `+Inf` bucket even under concurrent recording).
    pub count: u64,
}

impl Histogram {
    /// A histogram over the given inclusive upper bounds. Unsorted or duplicated bounds
    /// are sorted and deduplicated rather than rejected — there is no invalid boundary
    /// set, only a less useful one.
    pub fn new(bounds: &[u64]) -> Self {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(self.bounds.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration as integer nanoseconds (saturating past ~584 years).
    pub fn observe_duration(&self, duration: Duration) {
        self.observe(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// The boundary set.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Copies out the current state. `count` is derived from the bucket counts, so the
    /// `_count`/`+Inf` invariant holds in every snapshot; `sum` may trail or lead by the
    /// observations in flight between the two reads (the standard scrape race).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|cell| cell.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts,
            sum: self.sum.load(Ordering::Relaxed),
            count,
        }
    }
}

/// The default duration boundaries: 1 µs doubling up to ~16.8 s (25 buckets + overflow),
/// in nanoseconds. Wide enough to hold both a histogram-build span and a full training
/// round without tuning.
pub fn default_duration_bounds() -> Vec<u64> {
    (0..25).map(|k| 1_000u64 << k).collect()
}

/// What a series measures, for the `# TYPE` exposition line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrumentKind {
    /// Monotonic counter.
    Counter,
    /// Signed level.
    Gauge,
    /// Bucketed distribution.
    Histogram,
}

impl InstrumentKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn type_keyword(self) -> &'static str {
        match self {
            InstrumentKind::Counter => "counter",
            InstrumentKind::Gauge => "gauge",
            InstrumentKind::Histogram => "histogram",
        }
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> InstrumentKind {
        match self {
            Instrument::Counter(_) => InstrumentKind::Counter,
            Instrument::Gauge(_) => InstrumentKind::Gauge,
            Instrument::Histogram(_) => InstrumentKind::Histogram,
        }
    }
}

struct SeriesEntry {
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

struct FamilyEntry {
    name: String,
    help: String,
    kind: InstrumentKind,
    series: Vec<SeriesEntry>,
}

/// A named collection of instruments. Registration is idempotent: asking for the same
/// `(name, labels)` again returns the already-registered instrument, so call sites can
/// register where they record without coordinating start-up order.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<FamilyEntry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Locks the family table, recovering a poisoned mutex: the table holds `Arc`s and
    /// plain strings that a panicking sibling cannot leave torn (every mutation below is
    /// a single `push` or a read).
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<FamilyEntry>> {
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or retrieves) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a counter series under `labels`.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.instrument(name, help, labels, || {
            Instrument::Counter(Arc::new(Counter::new()))
        }) {
            Instrument::Counter(c) => c,
            // Name/kind conflict: hand back a detached instrument instead of panicking —
            // the caller still records, the conflicting series just is not exported twice.
            _ => Arc::new(Counter::new()),
        }
    }

    /// Registers (or retrieves) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or retrieves) a gauge series under `labels`.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.instrument(name, help, labels, || {
            Instrument::Gauge(Arc::new(Gauge::new()))
        }) {
            Instrument::Gauge(g) => g,
            _ => Arc::new(Gauge::new()),
        }
    }

    /// Registers (or retrieves) an unlabeled histogram over `bounds`.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Arc<Histogram> {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Registers (or retrieves) a histogram series under `labels`.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[u64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.instrument(name, help, labels, || {
            Instrument::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Instrument::Histogram(h) => h,
            _ => Arc::new(Histogram::new(bounds)),
        }
    }

    fn instrument(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        build: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.lock();
        if let Some(family) = families.iter_mut().find(|f| f.name == name) {
            if let Some(series) = family.series.iter().find(|s| s.labels == labels) {
                return clone_instrument(&series.instrument);
            }
            let instrument = build();
            if instrument.kind() != family.kind {
                return instrument; // kind conflict: record detached, export nothing new
            }
            let out = clone_instrument(&instrument);
            family.series.push(SeriesEntry { labels, instrument });
            return out;
        }
        let instrument = build();
        let out = clone_instrument(&instrument);
        families.push(FamilyEntry {
            name: name.to_string(),
            help: help.to_string(),
            kind: instrument.kind(),
            series: vec![SeriesEntry { labels, instrument }],
        });
        out
    }

    /// Copies every registered series out into a [`Snapshot`] (sorted, deterministic).
    pub fn snapshot(&self) -> Snapshot {
        let families = self.lock();
        let mut snapshot = Snapshot::new();
        for family in families.iter() {
            for series in &family.series {
                let labels: Vec<(&str, &str)> = series
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                match &series.instrument {
                    Instrument::Counter(c) => {
                        snapshot.push_counter(&family.name, &family.help, &labels, c.get());
                    }
                    Instrument::Gauge(g) => {
                        snapshot.push_gauge(&family.name, &family.help, &labels, g.get());
                    }
                    Instrument::Histogram(h) => {
                        snapshot.push_histogram(&family.name, &family.help, &labels, h.snapshot());
                    }
                }
            }
        }
        snapshot.sort();
        snapshot
    }
}

fn clone_instrument(instrument: &Instrument) -> Instrument {
    match instrument {
        Instrument::Counter(c) => Instrument::Counter(Arc::clone(c)),
        Instrument::Gauge(g) => Instrument::Gauge(Arc::clone(g)),
        Instrument::Histogram(h) => Instrument::Histogram(Arc::clone(h)),
    }
}

/// One series' value inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One labeled series inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: SampleValue,
}

/// One metric family (a name, its help text, and every labeled series under it).
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    /// Metric name (`snake_case`, `surf_<layer>_` prefixed by convention).
    pub name: String,
    /// Help text for the `# HELP` line.
    pub help: String,
    /// What the series measure.
    pub kind: InstrumentKind,
    /// The labeled series.
    pub series: Vec<SeriesSnapshot>,
}

/// A point-in-time copy of a registry (or an assembled view over several sources —
/// the serve layer appends component counters to its registry snapshot before
/// rendering). Deterministic order after [`Snapshot::sort`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// The families, sorted by name once [`Snapshot::sort`] has run.
    pub families: Vec<FamilySnapshot>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    fn push(
        &mut self,
        name: &str,
        help: &str,
        kind: InstrumentKind,
        labels: &[(&str, &str)],
        value: SampleValue,
    ) {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let series = SeriesSnapshot { labels, value };
        if let Some(family) = self.families.iter_mut().find(|f| f.name == name) {
            if family.kind == kind {
                family.series.push(series);
            }
            return;
        }
        self.families.push(FamilySnapshot {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            series: vec![series],
        });
    }

    /// Appends a counter sample (creating the family on first use).
    pub fn push_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.push(
            name,
            help,
            InstrumentKind::Counter,
            labels,
            SampleValue::Counter(value),
        );
    }

    /// Appends a gauge sample (creating the family on first use).
    pub fn push_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: i64) {
        self.push(
            name,
            help,
            InstrumentKind::Gauge,
            labels,
            SampleValue::Gauge(value),
        );
    }

    /// Appends a histogram sample (creating the family on first use).
    pub fn push_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: HistogramSnapshot,
    ) {
        self.push(
            name,
            help,
            InstrumentKind::Histogram,
            labels,
            SampleValue::Histogram(value),
        );
    }

    /// Merges another snapshot's families into this one (series of an existing family are
    /// appended; call [`Snapshot::sort`] afterwards to restore deterministic order).
    pub fn merge(&mut self, other: Snapshot) {
        for family in other.families {
            match self
                .families
                .iter_mut()
                .find(|f| f.name == family.name && f.kind == family.kind)
            {
                Some(existing) => existing.series.extend(family.series),
                None => self.families.push(family),
            }
        }
    }

    /// Sorts families by name and each family's series by label set, so rendering the
    /// same state twice produces byte-identical output.
    pub fn sort(&mut self) {
        for family in &mut self.families {
            family.series.sort_by(|a, b| a.labels.cmp(&b.labels));
        }
        self.families.sort_by(|a, b| a.name.cmp(&b.name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn histogram_buckets_observations_inclusively() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 10, 11, 100, 5000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![2, 2, 0, 1]);
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1 + 10 + 11 + 100 + 5000);
    }

    #[test]
    fn histogram_sanitizes_unsorted_bounds() {
        let h = Histogram::new(&[100, 10, 100]);
        assert_eq!(h.bounds(), &[10, 100]);
        h.observe_duration(Duration::from_nanos(50));
        assert_eq!(h.snapshot().counts, vec![0, 1, 0]);
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("surf_test_total", "help");
        let b = registry.counter("surf_test_total", "help");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same series, same cell");
        let labeled = registry.counter_with("surf_test_total", "help", &[("route", "/x")]);
        labeled.add(5);
        let snap = registry.snapshot();
        assert_eq!(snap.families.len(), 1);
        assert_eq!(snap.families[0].series.len(), 2);
    }

    #[test]
    fn kind_conflicts_hand_back_detached_instruments() {
        let registry = MetricsRegistry::new();
        let _c = registry.counter("surf_conflict", "help");
        let g = registry.gauge("surf_conflict", "help");
        g.set(9); // must not panic, must not corrupt the exported family
        let snap = registry.snapshot();
        assert_eq!(snap.families.len(), 1);
        assert_eq!(snap.families[0].kind, InstrumentKind::Counter);
        assert_eq!(snap.families[0].series.len(), 1);
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let registry = MetricsRegistry::new();
        registry.counter_with("surf_b_total", "b", &[("route", "/z")]);
        registry.counter_with("surf_b_total", "b", &[("route", "/a")]);
        registry.gauge("surf_a_level", "a");
        let snap = registry.snapshot();
        assert_eq!(snap.families[0].name, "surf_a_level");
        assert_eq!(snap.families[1].series[0].labels[0].1, "/a");
        assert_eq!(snap.families[1].series[1].labels[0].1, "/z");
    }

    #[test]
    fn merge_appends_and_resorts() {
        let a = MetricsRegistry::new();
        a.counter("surf_shared_total", "h").add(1);
        let b = MetricsRegistry::new();
        b.counter_with("surf_shared_total", "h", &[("src", "b")])
            .add(2);
        b.gauge("surf_only_b", "h").set(3);
        let mut merged = a.snapshot();
        merged.merge(b.snapshot());
        merged.sort();
        assert_eq!(merged.families.len(), 2);
        let shared = &merged.families[1];
        assert_eq!(shared.name, "surf_shared_total");
        assert_eq!(shared.series.len(), 2);
    }

    #[test]
    fn default_duration_bounds_double_from_one_micro() {
        let bounds = default_duration_bounds();
        assert_eq!(bounds[0], 1_000);
        assert_eq!(bounds.len(), 25);
        for pair in bounds.windows(2) {
            assert_eq!(pair[1], pair[0] * 2);
        }
    }
}
