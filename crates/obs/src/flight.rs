//! Always-on flight recorder: a fixed-capacity ring of the most recent
//! trace records, kept cheap enough to leave enabled on every search.
//!
//! The searcher attaches a [`FlightRecorder`] by default (see
//! `SearchConfig::flight_recorder` in `seminal-core`) even when full
//! trace capture is off. When a search ends abnormally — a `Faulted`
//! probe absorbed by panic isolation, or any non-`Complete` completion —
//! the recorder's contents become the record tail of a
//! [`crate::crash::CrashReport`], the post-mortem evidence for what the
//! search was doing in its final moments.
//!
//! Cost model: the ring's storage is reserved at construction and
//! filled as records arrive; recording a record is one short mutex
//! hold, one clone, and one push (or, once the ring is full, one slot
//! overwrite) — no allocation, no resizing. The `obs_overhead` bench holds this to the
//! same <2% ambient budget as the disabled tracer.

use crate::trace::{TraceRecord, TraceSink};
use std::sync::Mutex;

/// A lock-cheap fixed-capacity ring buffer of trace records.
///
/// Unlike [`crate::MemorySink`] (a capture buffer that is drained once
/// into a report), the flight recorder is a continuously overwritten
/// black box: [`FlightRecorder::snapshot`] reads the surviving tail
/// without consuming it, so the same recorder can serve repeated
/// searches on one session.
#[derive(Debug)]
pub struct FlightRecorder {
    state: Mutex<FlightState>,
}

#[derive(Debug)]
struct FlightState {
    /// Ring storage, reserved at `capacity` and pushed to until full.
    records: Vec<TraceRecord>,
    capacity: usize,
    /// Oldest record once the ring is full: the next slot to overwrite.
    head: usize,
    /// Records written in total (written − capacity, clamped at 0, is
    /// the overwrite count).
    written: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` records
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            state: Mutex::new(FlightState {
                records: Vec::with_capacity(capacity),
                capacity,
                head: 0,
                written: 0,
            }),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.state.lock().expect("flight recorder poisoned").capacity
    }

    /// The surviving records (oldest first) and how many older records
    /// were overwritten to stay within capacity. Does not consume the
    /// ring.
    pub fn snapshot(&self) -> (Vec<TraceRecord>, u64) {
        let state = self.state.lock().expect("flight recorder poisoned");
        let dropped = state.written.saturating_sub(state.capacity as u64);
        // Oldest surviving record sits at `head` once the ring has
        // wrapped; before that, `head` is 0 and the ring a plain prefix.
        let (newer, older) = state.records.split_at(state.head);
        (older.iter().chain(newer).cloned().collect(), dropped)
    }

    /// Forgets everything recorded so far (the capacity is kept).
    pub fn clear(&self) {
        let mut state = self.state.lock().expect("flight recorder poisoned");
        state.records.clear();
        state.head = 0;
        state.written = 0;
    }
}

impl TraceSink for FlightRecorder {
    fn record(&self, rec: &TraceRecord) {
        let mut state = self.state.lock().expect("flight recorder poisoned");
        if state.records.len() < state.capacity {
            state.records.push(rec.clone());
        } else {
            let head = state.head;
            state.records[head] = rec.clone();
            state.head = (head + 1) % state.capacity;
        }
        state.written += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecord;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord::Close { id: i, thread: 0, at_ns: i }
    }

    #[test]
    fn keeps_the_most_recent_records_oldest_first() {
        let ring = FlightRecorder::new(3);
        let (records, dropped) = ring.snapshot();
        assert!(records.is_empty());
        assert_eq!(dropped, 0);
        for i in 0..5 {
            ring.record(&rec(i));
        }
        let (records, dropped) = ring.snapshot();
        assert_eq!(records, vec![rec(2), rec(3), rec(4)]);
        assert_eq!(dropped, 2);
        // Snapshot is non-destructive.
        let (again, _) = ring.snapshot();
        assert_eq!(again.len(), 3);
    }

    #[test]
    fn partial_fill_snapshots_a_plain_prefix() {
        let ring = FlightRecorder::new(8);
        ring.record(&rec(1));
        ring.record(&rec(2));
        let (records, dropped) = ring.snapshot();
        assert_eq!(records, vec![rec(1), rec(2)]);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn clear_resets_contents_and_counts() {
        let ring = FlightRecorder::new(2);
        for i in 0..4 {
            ring.record(&rec(i));
        }
        ring.clear();
        let (records, dropped) = ring.snapshot();
        assert!(records.is_empty());
        assert_eq!(dropped, 0);
        ring.record(&rec(9));
        assert_eq!(ring.snapshot().0, vec![rec(9)]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let ring = FlightRecorder::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.record(&rec(1));
        ring.record(&rec(2));
        let (records, dropped) = ring.snapshot();
        assert_eq!(records, vec![rec(2)]);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn records_from_many_threads_are_all_counted() {
        let ring = std::sync::Arc::new(FlightRecorder::new(64));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let ring = std::sync::Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..8 {
                        ring.record(&rec(t * 100 + i));
                    }
                });
            }
        });
        let (records, dropped) = ring.snapshot();
        assert_eq!(records.len(), 32);
        assert_eq!(dropped, 0);
    }
}
