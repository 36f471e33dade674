//! Hierarchical structured tracing for the search.
//!
//! A search emits a stream of [`TraceRecord`]s: span open/close pairs
//! (nesting regions of the search — descent into a node, a triage round,
//! the blame pass, a probe-engine worker) and point events inside them
//! (each oracle probe, with outcome and latency). Records carry
//! monotonic nanosecond timestamps relative to the start of the trace,
//! the id of the thread that emitted them, and flow into a pluggable
//! [`TraceSink`]:
//!
//! * [`MemorySink`] — bounded in-memory ring buffer (what powers the
//!   report's captured record stream and the CLI's `--trace`/`--profile`);
//! * [`JsonlSink`] — one JSON document per record, for offline analysis;
//! * [`NullSink`] — swallows everything (useful as an explicit default).
//!
//! # Causal trace model
//!
//! The trace is a forest of spans distributed over threads. Each thread
//! owns a LIFO stack of spans it opened; a span's parent is either the
//! innermost span open *on the same thread* ([`Tracer::open`]) or an
//! explicit [`SpanContext`] handle captured on another thread
//! ([`Tracer::open_under`]) — that is how a probe-engine worker's span
//! hangs under the search span that caused the batch. Cross-thread
//! parents must be live (opened, not yet closed) when the child opens;
//! the consumer guarantees this by joining workers before closing the
//! span it handed out. [`TraceHandle`] carries the shared sink fan-out,
//! id allocator, and epoch to other threads, where
//! [`TraceHandle::thread_tracer`] mints a per-thread [`Tracer`].
//!
//! [`check_invariants`] is the executable specification of the stream:
//! unique span ids, balanced open/close per thread, every event under a
//! live parent, per-thread nondecreasing timestamps.

use crate::json::Json;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A half-open byte range into the searched source file.
///
/// `seminal-obs` is dependency-free, so this mirrors (and converts
/// trivially to and from) the AST's span type without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SrcSpan {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl SrcSpan {
    /// The empty span used for whole-program or synthesized targets.
    pub const EMPTY: SrcSpan = SrcSpan { start: 0, end: 0 };

    /// Creates a span from raw byte offsets.
    pub fn new(start: u32, end: u32) -> SrcSpan {
        SrcSpan { start, end }
    }

    /// Whether the span covers zero bytes.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// Whether `self` entirely contains `other`.
    pub fn contains(self, other: SrcSpan) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// What a span of the trace covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole search (always the root span).
    Search,
    /// The constraint-blame analysis pass.
    BlamePass,
    /// Locating the first ill-typed top-level declaration (§2.1).
    PrefixLocalization,
    /// Recursive descent into the node at `span`.
    Descend {
        /// Source span of the node being descended into.
        span: SrcSpan,
    },
    /// One triage round (§2.4) — sibling wildcarding or a match phase.
    Triage {
        /// 1-based round number within this search.
        round: u32,
    },
    /// A probe-engine worker running speculative probes for one batch.
    /// Always opened under an explicit cross-thread [`SpanContext`].
    Worker {
        /// 0-based worker index within the engine.
        index: u32,
    },
    /// The whole lifetime of a `seminal serve` process (or one served
    /// connection) — the root every [`SpanKind::Request`] opens under.
    Server,
    /// One API request dispatched by the serve daemon.
    Request {
        /// The client-supplied request id (`seminal-api/v1` `id` field).
        id: u64,
    },
}

impl SpanKind {
    /// Stable lowercase tag used in the JSON encoding and trace rendering.
    pub fn tag(&self) -> &'static str {
        match self {
            SpanKind::Search => "search",
            SpanKind::BlamePass => "blame-pass",
            SpanKind::PrefixLocalization => "prefix-localization",
            SpanKind::Descend { .. } => "descend",
            SpanKind::Triage { .. } => "triage",
            SpanKind::Worker { .. } => "worker",
            SpanKind::Server => "server",
            SpanKind::Request { .. } => "request",
        }
    }
}

/// What an oracle probe was trying, typed (the human-readable form is
/// [`ProbeKind::label`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeKind {
    /// The initial whole-program check that decides ill-typedness.
    Baseline,
    /// A §2.1 prefix probe.
    Prefix,
    /// Replacing a node with the wildcard `[[...]]`.
    Removal,
    /// An all-wildcards gate before an expensive constructive family.
    Gate,
    /// A §2.2 constructive change from the named family.
    Constructive {
        /// The human-readable family, e.g. "curried version of the function".
        family: String,
    },
    /// A §2.3 adaptation-to-context probe.
    Adaptation,
    /// A triage context probe (focus + wildcarded siblings).
    TriageContext,
    /// A match-triage phase probe (§2.4, Figure 4).
    TriageMatch {
        /// Phase 1 (scrutinee) or 2 (patterns).
        phase: u8,
    },
    /// A pattern-wildcarding probe during pattern triage.
    TriagePattern,
    /// A C++ statement-level change (deletion or hoisting, §4.2).
    Statement,
    /// A probe whose call site did not label it (label "probe").
    Other,
}

impl ProbeKind {
    /// Every [`ProbeKind::metric_key`] value, in [`ProbeKind::metric_index`]
    /// order — the fixed universe of per-family probe counters.
    pub const METRIC_KEYS: [&'static str; 11] = [
        "baseline",
        "prefix",
        "removal",
        "gate",
        "constructive",
        "adaptation",
        "triage_context",
        "triage_match",
        "triage_pattern",
        "statement",
        "other",
    ];

    /// Index of this kind's family into [`ProbeKind::METRIC_KEYS`] (for
    /// allocation-free per-family counting on the search hot path).
    pub fn metric_index(&self) -> usize {
        match self {
            ProbeKind::Baseline => 0,
            ProbeKind::Prefix => 1,
            ProbeKind::Removal => 2,
            ProbeKind::Gate => 3,
            ProbeKind::Constructive { .. } => 4,
            ProbeKind::Adaptation => 5,
            ProbeKind::TriageContext => 6,
            ProbeKind::TriageMatch { .. } => 7,
            ProbeKind::TriagePattern => 8,
            ProbeKind::Statement => 9,
            ProbeKind::Other => 10,
        }
    }

    /// The human-readable name of the probe, as `seminal check --trace`
    /// prints it.
    pub fn label(&self) -> String {
        match self {
            ProbeKind::Baseline => "baseline".to_owned(),
            ProbeKind::Prefix => "prefix".to_owned(),
            ProbeKind::Removal => "removal".to_owned(),
            ProbeKind::Gate => "gate".to_owned(),
            ProbeKind::Constructive { family } => format!("constructive: {family}"),
            ProbeKind::Adaptation => "adaptation".to_owned(),
            ProbeKind::TriageContext => "triage-context".to_owned(),
            ProbeKind::TriageMatch { phase: 1 } => "triage-match-phase1 (scrutinee)".to_owned(),
            ProbeKind::TriageMatch { phase: 2 } => "triage-match-phase2 (patterns)".to_owned(),
            ProbeKind::TriageMatch { phase } => format!("triage-match-phase{phase}"),
            ProbeKind::TriagePattern => "triage-pattern".to_owned(),
            ProbeKind::Statement => "statement".to_owned(),
            ProbeKind::Other => "probe".to_owned(),
        }
    }

    /// Short stable key for per-family metrics counters
    /// (`probes.<metric_key>`).
    pub fn metric_key(&self) -> &'static str {
        Self::METRIC_KEYS[self.metric_index()]
    }

    fn from_metric_key(key: &str, family: Option<&str>, phase: Option<u64>) -> Option<ProbeKind> {
        Some(match key {
            "baseline" => ProbeKind::Baseline,
            "prefix" => ProbeKind::Prefix,
            "removal" => ProbeKind::Removal,
            "gate" => ProbeKind::Gate,
            "constructive" => ProbeKind::Constructive { family: family.unwrap_or("").to_owned() },
            "adaptation" => ProbeKind::Adaptation,
            "triage_context" => ProbeKind::TriageContext,
            "triage_match" => {
                ProbeKind::TriageMatch { phase: u8::try_from(phase.unwrap_or(0)).ok()? }
            }
            "triage_pattern" => ProbeKind::TriagePattern,
            "statement" => ProbeKind::Statement,
            "other" => ProbeKind::Other,
            _ => return None,
        })
    }
}

/// A point event inside a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// One oracle invocation (or memo-cache hit, when `cached`),
    /// attributed to the search step that consumed the verdict.
    OracleProbe {
        /// What the probe was trying.
        probe: ProbeKind,
        /// Concrete syntax of the changed node (empty for whole-program
        /// probes).
        target: String,
        /// Source span of the changed node ([`SrcSpan::EMPTY`] for
        /// whole-program or synthesized targets).
        span: SrcSpan,
        /// Whether the variant type-checked.
        outcome: bool,
        /// Whether the verdict came from the memo cache instead of a real
        /// oracle run.
        cached: bool,
        /// Whether the probe panicked and the verdict was synthesized as
        /// a fault (panic isolation; implies `outcome == false`).
        faulted: bool,
        /// Wall-clock cost of the oracle call (0 when `cached`).
        latency_ns: u64,
    },
    /// A speculative probe run by a probe-engine worker ahead of the
    /// search's own consumption. Deliberately lightweight — the causal
    /// attribution (family, target, span) is carried by the
    /// [`EventKind::OracleProbe`] event the consumer emits when (if) it
    /// consumes the memoized verdict; this event records *where and when
    /// the work physically ran*.
    SpeculativeProbe {
        /// Whether the variant type-checked.
        outcome: bool,
        /// Whether the probe panicked and was isolated to a fault.
        faulted: bool,
        /// Wall-clock cost attributed to this probe.
        latency_ns: u64,
    },
    /// The first bad declaration was read off the blame analysis instead
    /// of probed prefix-by-prefix.
    PrefixLocalized {
        /// 1-based index of the first ill-typed declaration.
        first_bad: u32,
        /// Human-readable detail, as `seminal check --trace` prints it.
        detail: String,
    },
}

/// One record of the structured trace stream. Every record carries the
/// id of the [`Tracer`] thread that emitted it (0 is the search thread;
/// engine workers are 1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// A span opened. `parent` is `None` only for the root span.
    Open { id: u64, parent: Option<u64>, kind: SpanKind, thread: u32, at_ns: u64 },
    /// A point event inside the (still open) span `parent`.
    Event { parent: u64, kind: EventKind, thread: u32, at_ns: u64 },
    /// The span `id` closed.
    Close { id: u64, thread: u32, at_ns: u64 },
}

impl TraceRecord {
    /// The record's timestamp (nanoseconds since the trace epoch).
    pub fn at_ns(&self) -> u64 {
        match self {
            TraceRecord::Open { at_ns, .. }
            | TraceRecord::Event { at_ns, .. }
            | TraceRecord::Close { at_ns, .. } => *at_ns,
        }
    }

    /// The id of the tracer thread that emitted the record.
    pub fn thread(&self) -> u32 {
        match self {
            TraceRecord::Open { thread, .. }
            | TraceRecord::Event { thread, .. }
            | TraceRecord::Close { thread, .. } => *thread,
        }
    }

    /// JSON encoding (one object; the JSONL sink emits one per line).
    pub fn to_json(&self) -> Json {
        match self {
            TraceRecord::Open { id, parent, kind, thread, at_ns } => {
                let mut members = vec![
                    ("t".to_owned(), Json::Str("open".to_owned())),
                    ("id".to_owned(), Json::Num(*id)),
                    ("parent".to_owned(), parent.map_or(Json::Null, Json::Num)),
                    ("kind".to_owned(), Json::Str(kind.tag().to_owned())),
                ];
                match kind {
                    SpanKind::Descend { span } => {
                        members.push(("span".to_owned(), span_json(*span)));
                    }
                    SpanKind::Triage { round } => {
                        members.push(("round".to_owned(), Json::Num(u64::from(*round))));
                    }
                    SpanKind::Worker { index } => {
                        members.push(("index".to_owned(), Json::Num(u64::from(*index))));
                    }
                    SpanKind::Request { id } => {
                        members.push(("request_id".to_owned(), Json::Num(*id)));
                    }
                    _ => {}
                }
                members.push(("thread".to_owned(), Json::Num(u64::from(*thread))));
                members.push(("at_ns".to_owned(), Json::Num(*at_ns)));
                Json::Obj(members)
            }
            TraceRecord::Event { parent, kind, thread, at_ns } => {
                let mut members = vec![
                    ("t".to_owned(), Json::Str("event".to_owned())),
                    ("parent".to_owned(), Json::Num(*parent)),
                ];
                match kind {
                    EventKind::OracleProbe {
                        probe,
                        target,
                        span,
                        outcome,
                        cached,
                        faulted,
                        latency_ns,
                    } => {
                        members.push(("kind".to_owned(), Json::Str("oracle-probe".to_owned())));
                        members
                            .push(("probe".to_owned(), Json::Str(probe.metric_key().to_owned())));
                        if let ProbeKind::Constructive { family } = probe {
                            members.push(("family".to_owned(), Json::Str(family.clone())));
                        }
                        if let ProbeKind::TriageMatch { phase } = probe {
                            members.push(("phase".to_owned(), Json::Num(u64::from(*phase))));
                        }
                        members.push(("target".to_owned(), Json::Str(target.clone())));
                        members.push(("span".to_owned(), span_json(*span)));
                        members.push(("outcome".to_owned(), Json::Bool(*outcome)));
                        members.push(("cached".to_owned(), Json::Bool(*cached)));
                        if *faulted {
                            members.push(("faulted".to_owned(), Json::Bool(true)));
                        }
                        members.push(("latency_ns".to_owned(), Json::Num(*latency_ns)));
                    }
                    EventKind::SpeculativeProbe { outcome, faulted, latency_ns } => {
                        members
                            .push(("kind".to_owned(), Json::Str("speculative-probe".to_owned())));
                        members.push(("outcome".to_owned(), Json::Bool(*outcome)));
                        if *faulted {
                            members.push(("faulted".to_owned(), Json::Bool(true)));
                        }
                        members.push(("latency_ns".to_owned(), Json::Num(*latency_ns)));
                    }
                    EventKind::PrefixLocalized { first_bad, detail } => {
                        members.push(("kind".to_owned(), Json::Str("prefix-localized".to_owned())));
                        members.push(("first_bad".to_owned(), Json::Num(u64::from(*first_bad))));
                        members.push(("detail".to_owned(), Json::Str(detail.clone())));
                    }
                }
                members.push(("thread".to_owned(), Json::Num(u64::from(*thread))));
                members.push(("at_ns".to_owned(), Json::Num(*at_ns)));
                Json::Obj(members)
            }
            TraceRecord::Close { id, thread, at_ns } => Json::Obj(vec![
                ("t".to_owned(), Json::Str("close".to_owned())),
                ("id".to_owned(), Json::Num(*id)),
                ("thread".to_owned(), Json::Num(u64::from(*thread))),
                ("at_ns".to_owned(), Json::Num(*at_ns)),
            ]),
        }
    }

    /// Decodes the [`TraceRecord::to_json`] encoding (used by crash-report
    /// replay). Tolerates a missing `thread` member (treated as thread 0)
    /// so traces written before the field existed still load.
    ///
    /// # Errors
    ///
    /// A description of the first malformed or missing member.
    pub fn from_json(json: &Json) -> Result<TraceRecord, String> {
        let tag = json.get("t").and_then(Json::as_str).ok_or("record missing \"t\" tag")?;
        let thread = match json.get("thread") {
            None => 0,
            Some(j) => u32::try_from(j.as_num().ok_or("\"thread\" is not a number")?)
                .map_err(|_| "\"thread\" out of range")?,
        };
        let at_ns = json.get("at_ns").and_then(Json::as_num).ok_or("record missing \"at_ns\"")?;
        match tag {
            "open" => {
                let id = json.get("id").and_then(Json::as_num).ok_or("open missing \"id\"")?;
                let parent = match json.get("parent") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(j.as_num().ok_or("\"parent\" is not a number")?),
                };
                let kind_tag =
                    json.get("kind").and_then(Json::as_str).ok_or("open missing \"kind\"")?;
                let kind = match kind_tag {
                    "search" => SpanKind::Search,
                    "blame-pass" => SpanKind::BlamePass,
                    "prefix-localization" => SpanKind::PrefixLocalization,
                    "descend" => SpanKind::Descend {
                        span: span_from_json(
                            json.get("span").ok_or("descend span missing \"span\"")?,
                        )?,
                    },
                    "triage" => SpanKind::Triage {
                        round: num_u32(json, "round").ok_or("triage span missing \"round\"")?,
                    },
                    "worker" => SpanKind::Worker {
                        index: num_u32(json, "index").ok_or("worker span missing \"index\"")?,
                    },
                    "server" => SpanKind::Server,
                    "request" => SpanKind::Request {
                        id: json
                            .get("request_id")
                            .and_then(Json::as_num)
                            .ok_or("request span missing \"request_id\"")?,
                    },
                    other => return Err(format!("unknown span kind {other:?}")),
                };
                Ok(TraceRecord::Open { id, parent, kind, thread, at_ns })
            }
            "event" => {
                let parent =
                    json.get("parent").and_then(Json::as_num).ok_or("event missing \"parent\"")?;
                let kind_tag =
                    json.get("kind").and_then(Json::as_str).ok_or("event missing \"kind\"")?;
                let kind = match kind_tag {
                    "oracle-probe" => {
                        let key = json
                            .get("probe")
                            .and_then(Json::as_str)
                            .ok_or("probe event missing \"probe\"")?;
                        let family = json.get("family").and_then(Json::as_str);
                        let phase = json.get("phase").and_then(Json::as_num);
                        let probe = ProbeKind::from_metric_key(key, family, phase)
                            .ok_or_else(|| format!("unknown probe kind {key:?}"))?;
                        EventKind::OracleProbe {
                            probe,
                            target: json
                                .get("target")
                                .and_then(Json::as_str)
                                .ok_or("probe event missing \"target\"")?
                                .to_owned(),
                            span: span_from_json(
                                json.get("span").ok_or("probe event missing \"span\"")?,
                            )?,
                            outcome: bool_member(json, "outcome")?
                                .ok_or("probe event missing \"outcome\"")?,
                            cached: bool_member(json, "cached")?
                                .ok_or("probe event missing \"cached\"")?,
                            faulted: bool_member(json, "faulted")?.unwrap_or(false),
                            latency_ns: json
                                .get("latency_ns")
                                .and_then(Json::as_num)
                                .ok_or("probe event missing \"latency_ns\"")?,
                        }
                    }
                    "speculative-probe" => EventKind::SpeculativeProbe {
                        outcome: bool_member(json, "outcome")?
                            .ok_or("speculative probe missing \"outcome\"")?,
                        faulted: bool_member(json, "faulted")?.unwrap_or(false),
                        latency_ns: json
                            .get("latency_ns")
                            .and_then(Json::as_num)
                            .ok_or("speculative probe missing \"latency_ns\"")?,
                    },
                    "prefix-localized" => EventKind::PrefixLocalized {
                        first_bad: num_u32(json, "first_bad")
                            .ok_or("prefix event missing \"first_bad\"")?,
                        detail: json
                            .get("detail")
                            .and_then(Json::as_str)
                            .ok_or("prefix event missing \"detail\"")?
                            .to_owned(),
                    },
                    other => return Err(format!("unknown event kind {other:?}")),
                };
                Ok(TraceRecord::Event { parent, kind, thread, at_ns })
            }
            "close" => {
                let id = json.get("id").and_then(Json::as_num).ok_or("close missing \"id\"")?;
                Ok(TraceRecord::Close { id, thread, at_ns })
            }
            other => Err(format!("unknown record tag {other:?}")),
        }
    }
}

fn span_json(span: SrcSpan) -> Json {
    Json::Arr(vec![Json::Num(u64::from(span.start)), Json::Num(u64::from(span.end))])
}

fn span_from_json(json: &Json) -> Result<SrcSpan, String> {
    let Json::Arr(items) = json else {
        return Err("source span is not a two-element array".to_owned());
    };
    let [start, end] = items.as_slice() else {
        return Err("source span is not a two-element array".to_owned());
    };
    let start = start.as_num().and_then(|n| u32::try_from(n).ok());
    let end = end.as_num().and_then(|n| u32::try_from(n).ok());
    match (start, end) {
        (Some(start), Some(end)) => Ok(SrcSpan { start, end }),
        _ => Err("source span bounds are not u32 numbers".to_owned()),
    }
}

fn num_u32(json: &Json, key: &str) -> Option<u32> {
    json.get(key).and_then(Json::as_num).and_then(|n| u32::try_from(n).ok())
}

fn bool_member(json: &Json, key: &str) -> Result<Option<bool>, String> {
    match json.get(key) {
        None => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(format!("{key:?} is not a boolean")),
    }
}

/// Where trace records go. Sinks are called concurrently from the search
/// thread and every probe-engine worker, so implementations must be
/// internally synchronized; `Send + Sync` also lets one sink be shared
/// across searches (e.g. an eval run streaming every search to one file).
pub trait TraceSink: Send + Sync {
    /// Consumes one record.
    fn record(&self, rec: &TraceRecord);
}

/// Swallows every record.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _rec: &TraceRecord) {}
}

/// Bounded in-memory ring buffer: keeps the most recent `capacity`
/// records, dropping the oldest (and counting the drops) on overflow.
#[derive(Debug)]
pub struct MemorySink {
    capacity: usize,
    state: Mutex<MemoryState>,
}

#[derive(Debug, Default)]
struct MemoryState {
    buf: VecDeque<TraceRecord>,
    dropped: u64,
}

impl MemorySink {
    /// A ring buffer holding at most `capacity` records.
    pub fn new(capacity: usize) -> MemorySink {
        MemorySink { capacity: capacity.max(1), state: Mutex::new(MemoryState::default()) }
    }

    /// Takes the buffered records, leaving the sink empty.
    pub fn drain(&self) -> Vec<TraceRecord> {
        let mut state = self.state.lock().expect("memory sink poisoned");
        state.buf.drain(..).collect()
    }

    /// The buffered records (cloned, oldest first).
    pub fn records(&self) -> Vec<TraceRecord> {
        let state = self.state.lock().expect("memory sink poisoned");
        state.buf.iter().cloned().collect()
    }

    /// How many records were dropped to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("memory sink poisoned").dropped
    }
}

impl TraceSink for MemorySink {
    fn record(&self, rec: &TraceRecord) {
        let mut state = self.state.lock().expect("memory sink poisoned");
        if state.buf.len() == self.capacity {
            state.buf.pop_front();
            state.dropped += 1;
        }
        state.buf.push_back(rec.clone());
    }
}

/// Writes each record as one compact JSON document per line.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer; records are flushed line-by-line on drop of the
    /// writer, not per record (callers needing durability should wrap a
    /// buffered writer and flush).
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink { writer: Mutex::new(writer) }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.writer.into_inner().expect("jsonl sink poisoned")
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, rec: &TraceRecord) {
        let mut w = self.writer.lock().expect("jsonl sink poisoned");
        // A full disk during tracing must not abort the search; the
        // trace is advisory output.
        let _ = writeln!(w, "{}", rec.to_json().to_string_compact());
    }
}

/// A typed tracing failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// An event was emitted with no span open on the emitting thread and
    /// no explicit parent context. The record is dropped rather than
    /// fabricated under a bogus span id.
    NoOpenSpan,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::NoOpenSpan => {
                write!(f, "trace event emitted with no open span on this thread")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A handle to a live span, safe to send to another thread and open
/// child spans under ([`Tracer::open_under`]). The referenced span must
/// stay open until every child opened under it has been recorded — the
/// probe engine guarantees this by joining its workers before returning
/// control to the span's owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    id: u64,
}

impl SpanContext {
    /// The span id the context refers to.
    pub fn id(self) -> u64 {
        self.id
    }
}

/// State shared by every [`Tracer`] of one trace: the sink fan-out, the
/// process-wide span-id allocator, and the common epoch that makes
/// timestamps comparable across threads.
struct TraceShared {
    sinks: Vec<Arc<dyn TraceSink>>,
    next_id: AtomicU64,
    epoch: Instant,
}

impl TraceShared {
    fn now_ns(&self, last_ns: &mut u64) -> u64 {
        // Clamp to nondecreasing per thread so the stream invariant
        // holds even if the platform clock misbehaves.
        let ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        *last_ns = (*last_ns).max(ns);
        *last_ns
    }

    fn emit(&self, rec: &TraceRecord) {
        for sink in &self.sinks {
            sink.record(rec);
        }
    }
}

impl std::fmt::Debug for TraceShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceShared").field("sinks", &self.sinks.len()).finish()
    }
}

/// A cheap, cloneable, `Send` handle to a trace, from which worker
/// threads mint their own per-thread [`Tracer`]s
/// ([`TraceHandle::thread_tracer`]). A handle from a disabled tracer
/// mints disabled tracers.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    shared: Option<Arc<TraceShared>>,
}

impl TraceHandle {
    /// A handle that mints only disabled tracers.
    pub fn disabled() -> TraceHandle {
        TraceHandle { shared: None }
    }

    /// Whether tracers minted from this handle record anything.
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// A tracer emitting under thread id `thread`. Thread 0 is reserved
    /// for the search (consumer) thread; engine workers use their
    /// 1-based worker ids.
    pub fn thread_tracer(&self, thread: u32) -> Tracer {
        Tracer { shared: self.shared.clone(), thread, stack: Vec::new(), last_ns: 0 }
    }
}

/// Emits the structured stream: manages span ids, this thread's
/// open-span stack, and monotonic timestamps, and fans records out to
/// the attached sinks. One `Tracer` belongs to one thread; cross-thread
/// causality flows through [`SpanContext`] handles and [`TraceHandle`].
///
/// A disabled tracer ([`Tracer::disabled`]) does no clock reads, no
/// allocation, and no sink calls — the zero-overhead configuration the
/// searcher uses by default.
#[derive(Debug)]
pub struct Tracer {
    shared: Option<Arc<TraceShared>>,
    thread: u32,
    stack: Vec<u64>,
    last_ns: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { shared: None, thread: 0, stack: Vec::new(), last_ns: 0 }
    }

    /// A tracer fanning out to `sinks` (disabled when the list is
    /// empty), emitting as thread 0.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Tracer {
        if sinks.is_empty() {
            return Tracer::disabled();
        }
        Tracer {
            shared: Some(Arc::new(TraceShared {
                sinks,
                next_id: AtomicU64::new(1),
                epoch: Instant::now(),
            })),
            thread: 0,
            stack: Vec::new(),
            last_ns: 0,
        }
    }

    /// Whether records are being emitted.
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The thread id this tracer emits under.
    pub fn thread(&self) -> u32 {
        self.thread
    }

    /// A sendable handle for minting tracers on other threads.
    pub fn handle(&self) -> TraceHandle {
        TraceHandle { shared: self.shared.clone() }
    }

    /// A context for the innermost span open on this thread (`None`
    /// when disabled or when no span is open).
    pub fn context(&self) -> Option<SpanContext> {
        self.shared.as_ref()?;
        self.stack.last().map(|&id| SpanContext { id })
    }

    /// Opens a span under the innermost one open on this thread;
    /// returns its id (0 when disabled — a valid argument to
    /// [`Tracer::close`], which ignores it).
    pub fn open(&mut self, kind: SpanKind) -> u64 {
        let parent = self.stack.last().copied();
        self.open_with_parent(parent, kind)
    }

    /// Opens a span under an explicit — possibly cross-thread — parent
    /// context. The parent must still be open when this records.
    pub fn open_under(&mut self, parent: SpanContext, kind: SpanKind) -> u64 {
        self.open_with_parent(Some(parent.id), kind)
    }

    fn open_with_parent(&mut self, parent: Option<u64>, kind: SpanKind) -> u64 {
        let Some(shared) = &self.shared else { return 0 };
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let at_ns = shared.now_ns(&mut self.last_ns);
        self.stack.push(id);
        shared.emit(&TraceRecord::Open { id, parent, kind, thread: self.thread, at_ns });
        id
    }

    /// Closes the span `id`, which must be the innermost one open on
    /// this thread (spans close in LIFO order per thread by construction
    /// of the searcher).
    pub fn close(&mut self, id: u64) {
        let Some(shared) = &self.shared else { return };
        debug_assert_eq!(self.stack.last(), Some(&id), "spans must close LIFO");
        self.stack.pop();
        let at_ns = shared.now_ns(&mut self.last_ns);
        shared.emit(&TraceRecord::Close { id, thread: self.thread, at_ns });
    }

    /// Emits a point event inside the innermost span open on this
    /// thread.
    ///
    /// # Errors
    ///
    /// [`TraceError::NoOpenSpan`] when no span is open on this thread —
    /// the event is dropped rather than attached to a fabricated span
    /// id. (A disabled tracer returns `Ok` and records nothing.)
    pub fn event(&mut self, kind: EventKind) -> Result<(), TraceError> {
        let Some(shared) = &self.shared else { return Ok(()) };
        debug_assert!(!self.stack.is_empty(), "events need a live parent span");
        let Some(parent) = self.stack.last().copied() else {
            return Err(TraceError::NoOpenSpan);
        };
        let at_ns = shared.now_ns(&mut self.last_ns);
        shared.emit(&TraceRecord::Event { parent, kind, thread: self.thread, at_ns });
        Ok(())
    }
}

/// Checks the stream invariants on a complete captured trace. Spans are
/// per-thread LIFO; parenthood may cross threads:
///
/// 1. span ids are unique and opens precede their closes;
/// 2. open/close records balance exactly on every thread (no span left
///    open);
/// 3. every event's parent span is open — and not yet closed — at the
///    event's position in the stream;
/// 4. a child span's parent is live at open time; a parent on the same
///    thread must additionally be that thread's innermost open span;
/// 5. a span with no parent may open only when no span is live anywhere
///    (the root);
/// 6. a span closes on the thread that opened it, innermost-first;
/// 7. timestamps never decrease per thread (cross-thread order in the
///    stream is whatever the sink serialization produced).
///
/// # Errors
///
/// A description of the first violated invariant.
pub fn check_invariants(records: &[TraceRecord]) -> Result<(), String> {
    use std::collections::{HashMap, HashSet};
    let mut stacks: HashMap<u32, Vec<u64>> = HashMap::new();
    let mut span_thread: HashMap<u64, u32> = HashMap::new();
    let mut live: HashSet<u64> = HashSet::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut last_ns: HashMap<u32, u64> = HashMap::new();
    for (i, rec) in records.iter().enumerate() {
        let thread = rec.thread();
        let last = last_ns.entry(thread).or_insert(0);
        if rec.at_ns() < *last {
            return Err(format!("record {i}: timestamp went backwards on thread {thread}"));
        }
        *last = rec.at_ns();
        match rec {
            TraceRecord::Open { id, parent, .. } => {
                if !seen.insert(*id) {
                    return Err(format!("record {i}: span id {id} reused"));
                }
                match parent {
                    None => {
                        if !live.is_empty() {
                            return Err(format!(
                                "record {i}: span {id} has no parent but spans are open"
                            ));
                        }
                    }
                    Some(p) => {
                        if !live.contains(p) {
                            return Err(format!(
                                "record {i}: span {id} parent {p} is not live at open"
                            ));
                        }
                        if span_thread.get(p) == Some(&thread)
                            && stacks.get(&thread).and_then(|s| s.last()) != Some(p)
                        {
                            return Err(format!(
                                "record {i}: span {id} parent {p} is on thread {thread} \
                                 but is not its innermost open span"
                            ));
                        }
                    }
                }
                stacks.entry(thread).or_default().push(*id);
                span_thread.insert(*id, thread);
                live.insert(*id);
            }
            TraceRecord::Event { parent, .. } => {
                if !live.contains(parent) {
                    return Err(format!("record {i}: event parent span {parent} is not live"));
                }
            }
            TraceRecord::Close { id, .. } => {
                let stack = stacks.entry(thread).or_default();
                if stack.last() != Some(id) {
                    return Err(format!(
                        "record {i}: close of {id} does not match the innermost span \
                         open on thread {thread}"
                    ));
                }
                stack.pop();
                live.remove(id);
            }
        }
    }
    let mut open: Vec<u64> = stacks.into_values().flatten().collect();
    if !open.is_empty() {
        open.sort_unstable();
        return Err(format!("spans left open at end of stream: {open:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(outcome: bool) -> EventKind {
        EventKind::OracleProbe {
            probe: ProbeKind::Removal,
            target: "x + y".to_owned(),
            span: SrcSpan::new(4, 9),
            outcome,
            cached: false,
            faulted: false,
            latency_ns: 10,
        }
    }

    fn open(id: u64, parent: Option<u64>, thread: u32, at_ns: u64) -> TraceRecord {
        TraceRecord::Open { id, parent, kind: SpanKind::BlamePass, thread, at_ns }
    }

    fn close(id: u64, thread: u32, at_ns: u64) -> TraceRecord {
        TraceRecord::Close { id, thread, at_ns }
    }

    #[test]
    fn tracer_produces_an_invariant_respecting_stream() {
        let sink = Arc::new(MemorySink::new(1024));
        let mut tr = Tracer::new(vec![sink.clone()]);
        let root = tr.open(SpanKind::Search);
        let d = tr.open(SpanKind::Descend { span: SrcSpan::new(0, 10) });
        tr.event(probe(true)).unwrap();
        tr.event(probe(false)).unwrap();
        tr.close(d);
        let t = tr.open(SpanKind::Triage { round: 1 });
        tr.event(probe(true)).unwrap();
        tr.close(t);
        tr.close(root);
        let records = sink.drain();
        assert_eq!(records.len(), 9);
        assert!(records.iter().all(|r| r.thread() == 0));
        check_invariants(&records).unwrap();
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut tr = Tracer::disabled();
        assert!(!tr.enabled());
        let id = tr.open(SpanKind::Search);
        tr.event(probe(true)).unwrap();
        tr.close(id);
        assert!(tr.context().is_none());
        assert!(!tr.handle().enabled());
        // Nothing to observe — the point is that none of this panicked
        // and no sink existed to receive anything.
    }

    #[test]
    fn cross_thread_worker_spans_nest_under_the_handed_out_context() {
        let sink = Arc::new(MemorySink::new(1024));
        let mut tr = Tracer::new(vec![sink.clone()]);
        let root = tr.open(SpanKind::Search);
        let ctx = tr.context().expect("root span is open");
        let handle = tr.handle();
        std::thread::scope(|scope| {
            for worker in 0..2u32 {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut wtr = handle.thread_tracer(worker + 1);
                    let span = wtr.open_under(ctx, SpanKind::Worker { index: worker });
                    wtr.event(EventKind::SpeculativeProbe {
                        outcome: true,
                        faulted: false,
                        latency_ns: 7,
                    })
                    .unwrap();
                    wtr.close(span);
                });
            }
        });
        tr.close(root);
        let records = sink.drain();
        check_invariants(&records).unwrap();
        let threads: std::collections::HashSet<u32> = records.iter().map(|r| r.thread()).collect();
        assert_eq!(threads.len(), 3, "search thread plus two workers");
        for rec in &records {
            if let TraceRecord::Open { kind: SpanKind::Worker { .. }, parent, .. } = rec {
                assert_eq!(*parent, Some(root), "worker spans hang under the search span");
            }
        }
    }

    #[test]
    fn event_with_no_open_span_is_a_typed_error_not_span_zero() {
        let sink = Arc::new(MemorySink::new(16));
        let mut tr = Tracer::new(vec![sink.clone()]);
        let root = tr.open(SpanKind::Search);
        tr.close(root);
        // Release builds used to fabricate parent span id 0 here; now
        // the event is rejected and dropped.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tr.event(probe(true))));
        std::panic::set_hook(prev);
        match result {
            // Debug builds assert; release builds return the typed error.
            Err(_) => {}
            Ok(r) => assert_eq!(r, Err(TraceError::NoOpenSpan)),
        }
        let records = sink.drain();
        assert_eq!(records.len(), 2, "only the open/close pair was recorded");
        check_invariants(&records).unwrap();
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let sink = MemorySink::new(2);
        for i in 0..5u64 {
            sink.record(&TraceRecord::Close { id: i, thread: 0, at_ns: i });
        }
        assert_eq!(sink.dropped(), 3);
        let kept = sink.records();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0], TraceRecord::Close { id: 3, thread: 0, at_ns: 3 });
        assert_eq!(kept[1], TraceRecord::Close { id: 4, thread: 0, at_ns: 4 });
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let sink = JsonlSink::new(Vec::new());
        sink.record(&TraceRecord::Open {
            id: 1,
            parent: None,
            kind: SpanKind::Search,
            thread: 0,
            at_ns: 0,
        });
        sink.record(&TraceRecord::Event { parent: 1, kind: probe(true), thread: 0, at_ns: 5 });
        sink.record(&TraceRecord::Close { id: 1, thread: 0, at_ns: 9 });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            crate::json::parse(line).unwrap();
        }
        assert!(text.contains("\"oracle-probe\""));
    }

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![
            TraceRecord::Open { id: 1, parent: None, kind: SpanKind::Search, thread: 0, at_ns: 0 },
            TraceRecord::Open {
                id: 2,
                parent: Some(1),
                kind: SpanKind::Descend { span: SrcSpan::new(3, 9) },
                thread: 0,
                at_ns: 1,
            },
            TraceRecord::Open {
                id: 3,
                parent: Some(1),
                kind: SpanKind::Worker { index: 4 },
                thread: 5,
                at_ns: 2,
            },
            TraceRecord::Open {
                id: 4,
                parent: Some(2),
                kind: SpanKind::Triage { round: 2 },
                thread: 0,
                at_ns: 2,
            },
            TraceRecord::Event { parent: 2, kind: probe(false), thread: 0, at_ns: 3 },
            TraceRecord::Event {
                parent: 2,
                kind: EventKind::OracleProbe {
                    probe: ProbeKind::Constructive { family: "curried".to_owned() },
                    target: "f x".to_owned(),
                    span: SrcSpan::new(1, 2),
                    outcome: true,
                    cached: true,
                    faulted: false,
                    latency_ns: 0,
                },
                thread: 0,
                at_ns: 4,
            },
            TraceRecord::Event {
                parent: 2,
                kind: EventKind::OracleProbe {
                    probe: ProbeKind::TriageMatch { phase: 2 },
                    target: String::new(),
                    span: SrcSpan::EMPTY,
                    outcome: false,
                    cached: false,
                    faulted: true,
                    latency_ns: 12,
                },
                thread: 0,
                at_ns: 5,
            },
            TraceRecord::Event {
                parent: 3,
                kind: EventKind::SpeculativeProbe { outcome: true, faulted: false, latency_ns: 8 },
                thread: 5,
                at_ns: 6,
            },
            TraceRecord::Event {
                parent: 1,
                kind: EventKind::PrefixLocalized { first_bad: 2, detail: "decl 2".to_owned() },
                thread: 0,
                at_ns: 7,
            },
            TraceRecord::Close { id: 3, thread: 5, at_ns: 8 },
        ];
        for rec in &records {
            let json = rec.to_json();
            let reparsed = crate::json::parse(&json.to_string_compact()).unwrap();
            assert_eq!(&TraceRecord::from_json(&reparsed).unwrap(), rec);
        }
    }

    #[test]
    fn decoder_tolerates_missing_thread_and_rejects_garbage() {
        let legacy = crate::json::parse(r#"{"t":"close","id":7,"at_ns":9}"#).unwrap();
        assert_eq!(
            TraceRecord::from_json(&legacy).unwrap(),
            TraceRecord::Close { id: 7, thread: 0, at_ns: 9 }
        );
        for bad in [
            r#"{"id":7,"at_ns":9}"#,
            r#"{"t":"nonsense","at_ns":9}"#,
            r#"{"t":"open","id":1,"kind":"moonwalk","at_ns":0}"#,
            r#"{"t":"event","parent":1,"kind":"oracle-probe","at_ns":0}"#,
        ] {
            let json = crate::json::parse(bad).unwrap();
            assert!(TraceRecord::from_json(&json).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn invariant_checker_rejects_bad_streams() {
        // Event outside any span.
        let bad = vec![TraceRecord::Event { parent: 1, kind: probe(true), thread: 0, at_ns: 0 }];
        assert!(check_invariants(&bad).is_err());
        // Unbalanced open.
        let bad = vec![TraceRecord::Open {
            id: 1,
            parent: None,
            kind: SpanKind::Search,
            thread: 0,
            at_ns: 0,
        }];
        assert!(check_invariants(&bad).is_err());
        // Close of a span that is not innermost.
        let bad = vec![
            TraceRecord::Open { id: 1, parent: None, kind: SpanKind::Search, thread: 0, at_ns: 0 },
            open(2, Some(1), 0, 1),
            TraceRecord::Close { id: 1, thread: 0, at_ns: 2 },
        ];
        assert!(check_invariants(&bad).is_err());
        // Event under an already-closed parent.
        let bad = vec![
            TraceRecord::Open { id: 1, parent: None, kind: SpanKind::Search, thread: 0, at_ns: 0 },
            open(2, Some(1), 0, 1),
            close(2, 0, 2),
            TraceRecord::Event { parent: 2, kind: probe(true), thread: 0, at_ns: 3 },
            close(1, 0, 4),
        ];
        assert!(check_invariants(&bad).is_err());
    }

    #[test]
    fn invariant_checker_accepts_legal_concurrent_interleavings() {
        // Two workers interleaved under one root: records from different
        // threads arrive in sink-serialization order, timestamps are
        // monotonic only per thread.
        let stream = vec![
            TraceRecord::Open { id: 1, parent: None, kind: SpanKind::Search, thread: 0, at_ns: 0 },
            TraceRecord::Open {
                id: 2,
                parent: Some(1),
                kind: SpanKind::Worker { index: 0 },
                thread: 1,
                at_ns: 10,
            },
            TraceRecord::Open {
                id: 3,
                parent: Some(1),
                kind: SpanKind::Worker { index: 1 },
                thread: 2,
                at_ns: 5, // behind thread 1's clock reads — legal
            },
            TraceRecord::Event {
                parent: 3,
                kind: EventKind::SpeculativeProbe { outcome: true, faulted: false, latency_ns: 3 },
                thread: 2,
                at_ns: 6,
            },
            TraceRecord::Event {
                parent: 2,
                kind: EventKind::SpeculativeProbe { outcome: false, faulted: true, latency_ns: 4 },
                thread: 1,
                at_ns: 11,
            },
            close(3, 2, 7),
            close(2, 1, 12),
            close(1, 0, 20),
        ];
        check_invariants(&stream).unwrap();
    }

    #[test]
    fn invariant_checker_rejects_cross_thread_violations() {
        // Worker closes a span before (without) opening it.
        let bad = vec![
            TraceRecord::Open { id: 1, parent: None, kind: SpanKind::Search, thread: 0, at_ns: 0 },
            close(2, 1, 5),
            close(1, 0, 9),
        ];
        assert!(check_invariants(&bad).is_err());
        // Worker opens under a parent that is already closed (dead
        // cross-thread parent).
        let bad = vec![
            TraceRecord::Open { id: 1, parent: None, kind: SpanKind::Search, thread: 0, at_ns: 0 },
            open(2, Some(1), 0, 1),
            close(2, 0, 2),
            TraceRecord::Open {
                id: 3,
                parent: Some(2),
                kind: SpanKind::Worker { index: 0 },
                thread: 1,
                at_ns: 3,
            },
            close(3, 1, 4),
            close(1, 0, 5),
        ];
        assert!(check_invariants(&bad).is_err());
        // Worker event under a dead cross-thread parent.
        let bad = vec![
            TraceRecord::Open { id: 1, parent: None, kind: SpanKind::Search, thread: 0, at_ns: 0 },
            open(2, Some(1), 0, 1),
            close(2, 0, 2),
            TraceRecord::Event {
                parent: 2,
                kind: EventKind::SpeculativeProbe { outcome: true, faulted: false, latency_ns: 1 },
                thread: 1,
                at_ns: 3,
            },
            close(1, 0, 4),
        ];
        assert!(check_invariants(&bad).is_err());
        // A span must close on the thread that opened it.
        let bad = vec![
            TraceRecord::Open { id: 1, parent: None, kind: SpanKind::Search, thread: 0, at_ns: 0 },
            TraceRecord::Open {
                id: 2,
                parent: Some(1),
                kind: SpanKind::Worker { index: 0 },
                thread: 1,
                at_ns: 1,
            },
            close(2, 0, 2),
            close(1, 0, 3),
        ];
        assert!(check_invariants(&bad).is_err());
        // Per-thread timestamps must still be monotonic.
        let bad = vec![
            TraceRecord::Open { id: 1, parent: None, kind: SpanKind::Search, thread: 0, at_ns: 9 },
            close(1, 0, 3),
        ];
        assert!(check_invariants(&bad).is_err());
        // Same-thread parents must still be innermost: a sibling (not
        // the top of thread 0's stack) is a rejected parent even though
        // it is live.
        let bad = vec![
            TraceRecord::Open { id: 1, parent: None, kind: SpanKind::Search, thread: 0, at_ns: 0 },
            open(2, Some(1), 0, 1),
            open(3, Some(1), 0, 2),
            close(3, 0, 3),
            close(2, 0, 4),
            close(1, 0, 5),
        ];
        assert!(check_invariants(&bad).is_err());
    }
}
