//! Lightweight per-request tracing and the sampling flight recorder.
//!
//! A [`Trace`] is a label, a monotonic start instant, and a bounded list of named
//! [`SpanRecord`]s. Traces are plain owned values: the request path carries one through
//! the pipeline (parse → queue → handler → serialize) and hands it back to the
//! [`FlightRecorder`] when the response is written. Deep call sites that cannot see the
//! request (the predict kernel under a route handler, swarm fitness under `/mine`) attach
//! spans through a thread-local *current trace* installed around the dispatch — see
//! [`install`], [`record_span`], [`take`].
//!
//! Sampling happens at [`FlightRecorder::begin`]: one request in every `sample_every`
//! gets a trace, the rest pay a single atomic increment. Finished samples land in small
//! per-shard rings so `/trace` readers never contend with more than one shard at a time.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use serde::Serialize;

/// Spans kept per trace; later spans only bump [`TraceSample::dropped_spans`]. Big
/// enough for every request shape the stack produces (a request records well under a
/// dozen), small enough that a pathological caller cannot balloon the recorder.
const MAX_SPANS: usize = 64;

/// Ring shards in a [`FlightRecorder`]. Writers pick a shard by sequence number, so
/// concurrent finishes rarely share a lock.
const SHARDS: usize = 8;

/// One timed, named section of a request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SpanRecord {
    /// Span name (`recv_parse`, `queue_wait`, `kernel`, ...).
    pub name: String,
    /// Offset of the span start from the trace start, in nanoseconds.
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub duration_nanos: u64,
}

/// An in-flight request trace. Created by [`FlightRecorder::begin`], carried through the
/// request pipeline, completed by [`FlightRecorder::finish`].
#[derive(Debug)]
pub struct Trace {
    seq: u64,
    label: String,
    started: Instant,
    spans: Vec<SpanRecord>,
    dropped_spans: u64,
}

impl Trace {
    /// Records a span that started at `started` and ends now. Span offsets are measured
    /// against the trace start; a span that began before the trace (e.g. socket bytes
    /// that arrived before sampling decided) clamps its offset to zero.
    pub fn record_span(&mut self, name: &str, started: Instant) {
        let duration = started.elapsed();
        if self.spans.len() >= MAX_SPANS {
            self.dropped_spans += 1;
            return;
        }
        let start_nanos = started
            .checked_duration_since(self.started)
            .map(saturating_nanos)
            .unwrap_or(0);
        self.spans.push(SpanRecord {
            name: name.to_string(),
            start_nanos,
            duration_nanos: saturating_nanos(duration),
        });
    }

    /// Nanoseconds since this trace began (the offset a new span would start at).
    pub fn elapsed_nanos(&self) -> u64 {
        saturating_nanos(self.started.elapsed())
    }

    /// The label this trace was begun with (typically `METHOD path`).
    pub fn label(&self) -> &str {
        &self.label
    }
}

fn saturating_nanos(duration: std::time::Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// A completed, recorded trace as served by `/trace`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TraceSample {
    /// Position of the traced request in the sampling sequence (monotonically
    /// increasing; newest sample = highest `seq`).
    pub seq: u64,
    /// The trace label (typically `METHOD path`).
    pub label: String,
    /// End-to-end duration in nanoseconds.
    pub total_nanos: u64,
    /// Recorded spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Spans discarded after the per-trace cap was reached.
    pub dropped_spans: u64,
}

/// A bounded, sampling recorder of the most recent request traces.
pub struct FlightRecorder {
    sample_every: u64,
    seq: AtomicU64,
    per_shard: usize,
    shards: Vec<Mutex<VecDeque<TraceSample>>>,
}

impl FlightRecorder {
    /// A recorder sampling one request in `sample_every` (0 = never) and retaining about
    /// `capacity` most-recent samples across its shards.
    pub fn new(sample_every: u64, capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        FlightRecorder {
            sample_every,
            seq: AtomicU64::new(0),
            per_shard,
            shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    /// Decides whether this request is sampled; the unsampled path is one relaxed
    /// `fetch_add`. Returns the trace to carry when it is.
    pub fn begin(&self, label: &str) -> Option<Trace> {
        if self.sample_every == 0 {
            return None;
        }
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        if n % self.sample_every != 0 {
            return None;
        }
        Some(Trace {
            seq: n / self.sample_every,
            label: label.to_string(),
            started: Instant::now(),
            spans: Vec::new(),
            dropped_spans: 0,
        })
    }

    /// Completes a trace and stores it, evicting the oldest sample in its shard when the
    /// ring is full.
    pub fn finish(&self, trace: Trace) {
        let sample = TraceSample {
            seq: trace.seq,
            label: trace.label,
            total_nanos: saturating_nanos(trace.started.elapsed()),
            spans: trace.spans,
            dropped_spans: trace.dropped_spans,
        };
        let index = usize::try_from(sample.seq).unwrap_or(0) % self.shards.len();
        if let Some(shard) = self.shards.get(index) {
            // Poisoning cannot corrupt a VecDeque of plain data; recover and keep
            // recording rather than losing the recorder for the process lifetime.
            let mut ring = shard.lock().unwrap_or_else(PoisonError::into_inner);
            if ring.len() >= self.per_shard {
                ring.pop_front();
            }
            ring.push_back(sample);
        }
    }

    /// The `n` most recent samples, newest first. Locks one shard at a time so a reader
    /// never stalls more than one concurrent writer.
    pub fn samples(&self, n: usize) -> Vec<TraceSample> {
        let mut all: Vec<TraceSample> = Vec::new();
        for shard in &self.shards {
            // Same poison posture as `finish`; the guard is scoped to this iteration so
            // at most one shard is held at a time.
            let ring = shard.lock().unwrap_or_else(PoisonError::into_inner);
            all.extend(ring.iter().cloned());
        }
        all.sort_by_key(|sample| std::cmp::Reverse(sample.seq));
        all.truncate(n);
        all
    }

    /// Total requests that passed through [`FlightRecorder::begin`] (sampled or not).
    pub fn requests_seen(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Trace>> = const { RefCell::new(None) };
}

/// Installs `trace` as this thread's current trace for the duration of a dispatch.
/// Returns the trace that was previously installed (callers restore it on the way out,
/// though in practice dispatches do not nest).
pub fn install(trace: Trace) -> Option<Trace> {
    CURRENT.with(|cell| match cell.try_borrow_mut() {
        Ok(mut slot) => slot.replace(trace),
        Err(_) => None,
    })
}

/// Removes and returns this thread's current trace.
pub fn take() -> Option<Trace> {
    CURRENT.with(|cell| match cell.try_borrow_mut() {
        Ok(mut slot) => slot.take(),
        Err(_) => None,
    })
}

/// Whether a trace is installed on this thread.
pub fn is_active() -> bool {
    CURRENT.with(|cell| match cell.try_borrow() {
        Ok(slot) => slot.is_some(),
        Err(_) => false,
    })
}

/// Starts a span timer if (and only if) this thread currently carries a trace — the
/// cheap guard deep call sites use so the untraced path never reads the clock.
pub fn span_timer() -> Option<Instant> {
    if is_active() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Records a span ending now onto this thread's current trace, if both the timer and the
/// trace exist. Safe to call unconditionally from deep call sites.
pub fn record_span(name: &str, started: Option<Instant>) {
    let Some(started) = started else { return };
    CURRENT.with(|cell| {
        if let Ok(mut slot) = cell.try_borrow_mut() {
            if let Some(trace) = slot.as_mut() {
                trace.record_span(name, started);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sampling_takes_one_in_every_n() {
        let recorder = FlightRecorder::new(4, 64);
        let mut sampled = 0;
        for _ in 0..16 {
            if let Some(trace) = recorder.begin("GET /x") {
                recorder.finish(trace);
                sampled += 1;
            }
        }
        assert_eq!(sampled, 4);
        assert_eq!(recorder.requests_seen(), 16);
        assert_eq!(recorder.samples(16).len(), 4);
        let none = FlightRecorder::new(0, 64);
        assert!(none.begin("GET /x").is_none());
    }

    #[test]
    fn samples_return_newest_first_and_rings_evict() {
        let recorder = FlightRecorder::new(1, 8);
        for _ in 0..100 {
            if let Some(trace) = recorder.begin("GET /x") {
                recorder.finish(trace);
            }
        }
        let samples = recorder.samples(100);
        // 8 shards x ceil(8/8)=1 per shard.
        assert_eq!(samples.len(), 8);
        for pair in samples.windows(2) {
            assert!(pair[0].seq > pair[1].seq, "newest first");
        }
        assert_eq!(samples[0].seq, 99);
        assert_eq!(recorder.samples(3).len(), 3);
    }

    #[test]
    fn spans_record_offsets_and_cap_with_drop_count() {
        let recorder = FlightRecorder::new(1, 4);
        let mut trace = recorder.begin("POST /predict").unwrap();
        assert_eq!(trace.label(), "POST /predict");
        let started = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        trace.record_span("kernel", started);
        trace.record_span("serialize", Instant::now());
        for _ in 0..(MAX_SPANS * 2) {
            trace.record_span("filler", Instant::now());
        }
        recorder.finish(trace);
        let sample = recorder.samples(1).into_iter().next().unwrap();
        assert_eq!(sample.spans.len(), MAX_SPANS);
        assert_eq!(
            sample.dropped_spans,
            (MAX_SPANS * 2) as u64 - (MAX_SPANS as u64 - 2)
        );
        assert_eq!(sample.spans[0].name, "kernel");
        assert!(sample.spans[0].duration_nanos >= 2_000_000);
        assert!(sample.total_nanos >= sample.spans[0].duration_nanos);
        assert_eq!(sample.spans[1].name, "serialize");
        assert!(
            sample.spans[1].start_nanos >= 2_000_000,
            "offsets are measured from the trace start"
        );
    }

    #[test]
    fn thread_local_current_trace_attaches_spans_from_deep_call_sites() {
        assert!(!is_active());
        assert!(span_timer().is_none());
        record_span("ignored", Some(Instant::now())); // no trace installed: no-op

        let recorder = FlightRecorder::new(1, 4);
        let trace = recorder.begin("POST /mine").unwrap();
        assert!(install(trace).is_none());
        assert!(is_active());
        let timer = span_timer();
        assert!(timer.is_some());
        record_span("swarm_fitness", timer);
        record_span("skipped", None);
        let trace = take().unwrap();
        assert!(!is_active());
        recorder.finish(trace);
        let sample = recorder.samples(1).into_iter().next().unwrap();
        assert_eq!(sample.spans.len(), 1);
        assert_eq!(sample.spans[0].name, "swarm_fitness");
    }

    #[test]
    fn trace_samples_serialize_to_json() {
        let recorder = FlightRecorder::new(1, 4);
        let mut trace = recorder.begin("GET /models").unwrap();
        trace.record_span("recv_parse", Instant::now());
        recorder.finish(trace);
        let samples = recorder.samples(1);
        let json = serde_json::to_string(&samples).unwrap();
        assert!(json.contains("\"label\":\"GET /models\""), "{json}");
        assert!(json.contains("\"recv_parse\""), "{json}");
        assert!(json.contains("\"dropped_spans\":0"), "{json}");
    }
}
