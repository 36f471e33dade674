//! # seminal-obs — observability substrate for the search system
//!
//! The paper's evaluation (§3, Figures 5–7) is an accounting exercise —
//! oracle calls, search time, suggestion quality per program — and the
//! ROADMAP's production goal needs the same numbers continuously. This
//! crate is the measurement layer every other crate reports through:
//!
//! * [`trace`] — hierarchical structured tracing: typed span/event
//!   records with parent/child nesting and monotonic timestamps, behind
//!   a pluggable [`TraceSink`] (in-memory ring buffer, JSONL writer,
//!   null);
//! * [`metrics`] — a registry of counters and power-of-two latency
//!   histograms with a stable, schema-versioned JSON snapshot
//!   ([`metrics::SCHEMA`]) whose decoder rejects unknown fields;
//! * [`flight`] — the always-on flight recorder: a lock-cheap
//!   fixed-capacity ring of the most recent trace records;
//! * [`crash`] — versioned crash reports bundling the flight-recorder
//!   tail with the final metrics snapshot for post-mortem replay;
//! * [`chrome`] — renders a captured trace as a Chrome `trace_event`
//!   document (one track per worker) for `chrome://tracing`/Perfetto;
//! * [`baseline`] — the perf-trend gate comparing a snapshot against a
//!   committed baseline under counter/time tolerances;
//! * [`hash`] — FNV-1a, the one hash function every content key and
//!   content-addressed name in the workspace is built from;
//! * [`profile`](mod@profile) — attributes cumulative oracle cost to source spans and
//!   prints a text "flame" report;
//! * [`json`] — the dependency-free JSON layer underneath both (the
//!   workspace builds with zero network access).
//!
//! Design constraints, in order: **zero overhead when off** (a disabled
//! [`Tracer`] does no clock reads or allocation; the searcher's
//! always-on metrics are two clock reads and a couple of map bumps per
//! oracle call, where each oracle call is a full type-check), **no
//! dependencies** (usable from `seminal-typeck` up to the CLI without
//! cycles), and **stable artifacts** (the snapshot schema is versioned
//! and round-trip-checked in CI).

pub mod baseline;
pub mod chrome;
pub mod completion;
pub mod crash;
pub mod flight;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use baseline::{extract_snapshot, regressions, Tolerance};
pub use chrome::chrome_trace;
pub use completion::Completion;
pub use crash::CrashReport;
pub use flight::FlightRecorder;
pub use hash::fnv1a;
pub use json::{parse as parse_json, Json, JsonError};
pub use metrics::{keys, Histogram, MetricsRegistry, MetricsSnapshot, SCHEMA};
pub use profile::{profile, render as render_profile, ProfileNode, SpanProfile};
pub use trace::{
    check_invariants, EventKind, JsonlSink, MemorySink, NullSink, ProbeKind, SpanContext, SpanKind,
    SrcSpan, TraceError, TraceHandle, TraceRecord, TraceSink, Tracer,
};
