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
//! * [`crash`] — versioned crash reports bundling the tail of a
//!   search's trace ring ([`MemorySink`]) with the final metrics snapshot
//!   for post-mortem replay;
//! * [`chrome`] — renders a captured trace as a Chrome `trace_event`
//!   document for `chrome://tracing`/Perfetto;
//! * [`baseline`] — the perf-trend gate comparing a snapshot against a
//!   committed baseline under counter/time tolerances;
//! * [`hash`] — FNV-1a, the one hash function every content key and
//!   content-addressed name in the workspace is built from;
//! * [`rng`] — SplitMix64, the one pseudo-random generator: corpus and
//!   load generation, chaos draws, retry jitter;
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
pub mod hash;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod rng;
pub mod trace;

pub use baseline::{extract_snapshot, regressions, Tolerance};
pub use chrome::chrome_trace;
pub use completion::Completion;
pub use crash::{silence_injected_panics, CrashReport, INJECTED_PANIC};
pub use hash::fnv1a;
pub use json::{parse as parse_json, Json, JsonError};
pub use metrics::{keys, Histogram, MetricsRegistry, MetricsSnapshot, SCHEMA};
pub use profile::{profile, render as render_profile, ProfileNode, SpanProfile};
pub use rng::SplitMix64;
pub use trace::{
    check_invariants, EventKind, JsonlSink, MemorySink, NullSink, ProbeKind, SpanKind, SrcSpan,
    TraceError, TraceRecord, TraceSink, Tracer,
};
