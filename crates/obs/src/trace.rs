//! Hierarchical structured tracing for the search.
//!
//! A search emits a stream of [`TraceRecord`]s: span open/close pairs
//! (nesting regions of the search — descent into a node, a triage round,
//! the blame pass) and point events inside them (each oracle probe, with
//! outcome and latency). Records carry monotonic nanosecond timestamps
//! relative to the start of the trace and flow into a pluggable
//! [`TraceSink`]:
//!
//! * [`MemorySink`] — bounded in-memory ring buffer (what powers the
//!   report's captured record stream, the CLI's `--trace`/`--profile` and
//!   the crash report's record tail);
//! * [`JsonlSink`] — one JSON document per record, for offline analysis;
//! * [`NullSink`] — swallows everything (useful as an explicit default).
//!
//! # Trace model
//!
//! A trace is a tree of spans emitted by one [`Tracer`]: a span opens
//! under the innermost span still open ([`Tracer::open`]) and spans
//! close innermost-first. Every record keeps a `thread` member, which
//! is always 0, so readers of older trace files keep working.
//!
//! [`check_invariants`] is the executable specification of the stream:
//! unique span ids, balanced open/close, every span under the innermost
//! open one, every event under a live parent, nondecreasing timestamps.

use crate::json::Json;
use std::collections::VecDeque;
use std::io::Write;
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
    /// One oracle invocation, attributed to the search step that asked
    /// for the verdict.
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
        /// Always false: a search asks its oracle for every verdict. Kept
        /// so the JSON encoding keeps its shape.
        cached: bool,
        /// Whether the probe panicked and the verdict was synthesized as
        /// a fault (panic isolation; implies `outcome == false`).
        faulted: bool,
        /// Wall-clock cost of the oracle call.
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

/// One record of the structured trace stream. Every record carries a
/// `thread` id, which a [`Tracer`] always sets to 0; the member stays so
/// the JSON encoding keeps its shape.
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

/// Where trace records go. Implementations are internally synchronized:
/// `Send + Sync` lets one sink be shared across searches running on
/// different threads (e.g. the serve daemon's connections streaming to
/// one `--trace-json` file).
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
///
/// A search attaches one: its contents are both the report's captured
/// trace and, when the run ends abnormally, the record tail of its
/// [`crate::CrashReport`]. Recording is one short mutex hold, one clone
/// and one push (plus one pop once full). Storage is reserved at
/// construction and never resized, and a slot is written only when a
/// record arrives, so the slots a search never fills are never touched.
#[derive(Debug)]
pub struct MemorySink {
    capacity: usize,
    state: Mutex<MemoryState>,
}

#[derive(Debug)]
struct MemoryState {
    buf: VecDeque<TraceRecord>,
    dropped: u64,
}

impl MemorySink {
    /// A ring buffer holding at most `capacity` records (`capacity` is
    /// clamped to at least 1).
    pub fn new(capacity: usize) -> MemorySink {
        let capacity = capacity.max(1);
        let state = MemoryState { buf: VecDeque::with_capacity(capacity), dropped: 0 };
        MemorySink { capacity, state: Mutex::new(state) }
    }

    /// Takes the buffered records (oldest first), leaving the sink empty.
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
    /// An event was emitted with no span open. The record is dropped
    /// rather than fabricated under a bogus span id.
    NoOpenSpan,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::NoOpenSpan => {
                write!(f, "trace event emitted with no open span")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The live state of an enabled [`Tracer`]: the sink fan-out, the
/// span-id allocator, and the epoch timestamps are measured from.
struct TraceShared {
    sinks: Vec<Arc<dyn TraceSink>>,
    next_id: u64,
    epoch: Instant,
    last_ns: u64,
}

impl TraceShared {
    fn now_ns(&mut self) -> u64 {
        // Clamp to nondecreasing so the stream invariant holds even if
        // the platform clock misbehaves.
        let ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.last_ns = self.last_ns.max(ns);
        self.last_ns
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

/// Emits the structured stream: manages span ids, the open-span stack,
/// and monotonic timestamps, and fans records out to the attached
/// sinks.
///
/// A disabled tracer ([`Tracer::disabled`]) does no clock reads, no
/// allocation, and no sink calls — the zero-overhead configuration the
/// searcher uses by default.
#[derive(Debug)]
pub struct Tracer {
    shared: Option<TraceShared>,
    stack: Vec<u64>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { shared: None, stack: Vec::new() }
    }

    /// A tracer fanning out to `sinks` (disabled when the list is
    /// empty).
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Tracer {
        if sinks.is_empty() {
            return Tracer::disabled();
        }
        let shared = TraceShared { sinks, next_id: 1, epoch: Instant::now(), last_ns: 0 };
        Tracer { shared: Some(shared), stack: Vec::new() }
    }

    /// Whether records are being emitted.
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Opens a span under the innermost one still open; returns its id
    /// (0 when disabled — a valid argument to [`Tracer::close`], which
    /// ignores it).
    pub fn open(&mut self, kind: SpanKind) -> u64 {
        let Some(shared) = &mut self.shared else { return 0 };
        let id = shared.next_id;
        shared.next_id += 1;
        let parent = self.stack.last().copied();
        let at_ns = shared.now_ns();
        self.stack.push(id);
        shared.emit(&TraceRecord::Open { id, parent, kind, thread: 0, at_ns });
        id
    }

    /// Closes the span `id`, which must be the innermost one open
    /// (spans close in LIFO order by construction of the searcher).
    pub fn close(&mut self, id: u64) {
        let Some(shared) = &mut self.shared else { return };
        debug_assert_eq!(self.stack.last(), Some(&id), "spans must close LIFO");
        self.stack.pop();
        let at_ns = shared.now_ns();
        shared.emit(&TraceRecord::Close { id, thread: 0, at_ns });
    }

    /// Emits a point event inside the innermost open span.
    ///
    /// # Errors
    ///
    /// [`TraceError::NoOpenSpan`] when no span is open — the event is
    /// dropped rather than attached to a fabricated span id. (A disabled
    /// tracer returns `Ok` and records nothing.)
    pub fn event(&mut self, kind: EventKind) -> Result<(), TraceError> {
        let Some(shared) = &mut self.shared else { return Ok(()) };
        debug_assert!(!self.stack.is_empty(), "events need a live parent span");
        let Some(parent) = self.stack.last().copied() else {
            return Err(TraceError::NoOpenSpan);
        };
        let at_ns = shared.now_ns();
        shared.emit(&TraceRecord::Event { parent, kind, thread: 0, at_ns });
        Ok(())
    }
}

/// Checks the stream invariants on a complete captured trace:
///
/// 1. span ids are unique;
/// 2. a span opens under the innermost span still open, and only the
///    root opens with no parent (when no span is open);
/// 3. every event's parent span is open at the event's position in the
///    stream;
/// 4. spans close innermost-first, and none is left open at the end;
/// 5. timestamps never decrease.
///
/// # Errors
///
/// A description of the first violated invariant.
pub fn check_invariants(records: &[TraceRecord]) -> Result<(), String> {
    let mut stack: Vec<u64> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut last_ns = 0;
    for (i, rec) in records.iter().enumerate() {
        if rec.at_ns() < last_ns {
            return Err(format!("record {i}: timestamp went backwards"));
        }
        last_ns = rec.at_ns();
        match rec {
            TraceRecord::Open { id, parent, .. } => {
                if !seen.insert(*id) {
                    return Err(format!("record {i}: span id {id} reused"));
                }
                if *parent != stack.last().copied() {
                    return Err(format!(
                        "record {i}: span {id} opens under {parent:?}, \
                         not the innermost open span {:?}",
                        stack.last()
                    ));
                }
                stack.push(*id);
            }
            TraceRecord::Event { parent, .. } => {
                if !stack.contains(parent) {
                    return Err(format!("record {i}: event parent span {parent} is not open"));
                }
            }
            TraceRecord::Close { id, .. } => {
                if stack.last() != Some(id) {
                    return Err(format!(
                        "record {i}: close of {id} does not match the innermost open span"
                    ));
                }
                stack.pop();
            }
        }
    }
    if !stack.is_empty() {
        return Err(format!("spans left open at end of stream: {stack:?}"));
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
        assert!(records.iter().all(|r| matches!(
            r,
            TraceRecord::Open { thread: 0, .. }
                | TraceRecord::Event { thread: 0, .. }
                | TraceRecord::Close { thread: 0, .. }
        )));
        check_invariants(&records).unwrap();
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut tr = Tracer::disabled();
        assert!(!tr.enabled());
        let id = tr.open(SpanKind::Search);
        tr.event(probe(true)).unwrap();
        tr.close(id);
        // Nothing to observe — the point is that none of this panicked
        // and no sink existed to receive anything.
    }

    #[test]
    fn event_with_no_open_span_is_a_typed_error_not_span_zero() {
        let sink = Arc::new(MemorySink::new(16));
        let mut tr = Tracer::new(vec![sink.clone()]);
        let root = tr.open(SpanKind::Search);
        tr.close(root);
        // Release builds used to fabricate parent span id 0 here; now
        // the event is rejected and dropped.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tr.event(probe(true))));
        match result {
            // Debug builds assert; release builds return the typed error.
            Err(_) => {}
            Ok(r) => assert_eq!(r, Err(TraceError::NoOpenSpan)),
        }
        let records = sink.drain();
        assert_eq!(records.len(), 2, "only the open/close pair was recorded");
        check_invariants(&records).unwrap();
    }

    fn rec(i: u64) -> TraceRecord {
        close(i, 0, i)
    }

    #[test]
    fn ring_buffer_keeps_the_newest_records_oldest_first() {
        let ring = MemorySink::new(3);
        assert!(ring.records().is_empty());
        assert_eq!(ring.dropped(), 0);
        for i in 0..5 {
            ring.record(&rec(i));
        }
        assert_eq!(ring.records(), vec![rec(2), rec(3), rec(4)]);
        assert_eq!(ring.dropped(), 2);
        // Reading is non-destructive; draining empties the ring but
        // keeps the drop count.
        assert_eq!(ring.records().len(), 3);
        assert_eq!(ring.drain(), vec![rec(2), rec(3), rec(4)]);
        assert!(ring.records().is_empty());
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn partly_filled_ring_holds_a_plain_prefix() {
        let ring = MemorySink::new(8);
        ring.record(&rec(1));
        ring.record(&rec(2));
        assert_eq!(ring.records(), vec![rec(1), rec(2)]);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let ring = MemorySink::new(0);
        ring.record(&rec(1));
        ring.record(&rec(2));
        assert_eq!(ring.records(), vec![rec(2)]);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn records_from_many_threads_are_all_counted() {
        let ring = Arc::new(MemorySink::new(20));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let ring = Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..8 {
                        ring.record(&rec(t * 100 + i));
                    }
                });
            }
        });
        let kept = ring.records();
        assert_eq!(kept.len(), 20);
        assert_eq!(ring.dropped(), 12, "every record is either kept or counted");
        // Each writer's own records stay in the order it wrote them.
        for t in 0..4u64 {
            let ids: Vec<u64> = kept
                .iter()
                .filter_map(|r| match r {
                    TraceRecord::Close { id, .. } if id / 100 == t => Some(*id),
                    _ => None,
                })
                .collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "thread {t}: {ids:?}");
        }
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
                parent: 1,
                kind: EventKind::PrefixLocalized { first_bad: 2, detail: "decl 2".to_owned() },
                thread: 0,
                at_ns: 7,
            },
            TraceRecord::Close { id: 4, thread: 0, at_ns: 8 },
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
            // `worker` spans and `speculative-probe` events are not kinds
            // of the format.
            r#"{"t":"open","id":2,"parent":1,"kind":"worker","index":0,"thread":1,"at_ns":0}"#,
            r#"{"t":"event","parent":2,"kind":"speculative-probe","outcome":true,"latency_ns":3,"thread":1,"at_ns":1}"#,
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
        // Close of a span that never opened.
        let bad = vec![
            TraceRecord::Open { id: 1, parent: None, kind: SpanKind::Search, thread: 0, at_ns: 0 },
            close(2, 0, 5),
            close(1, 0, 9),
        ];
        assert!(check_invariants(&bad).is_err());
        // A second root while a span is open.
        let bad = vec![
            TraceRecord::Open { id: 1, parent: None, kind: SpanKind::Search, thread: 0, at_ns: 0 },
            open(2, None, 0, 1),
            close(2, 0, 2),
            close(1, 0, 3),
        ];
        assert!(check_invariants(&bad).is_err());
        // Timestamps must be monotonic.
        let bad = vec![
            TraceRecord::Open { id: 1, parent: None, kind: SpanKind::Search, thread: 0, at_ns: 9 },
            close(1, 0, 3),
        ];
        assert!(check_invariants(&bad).is_err());
        // A parent must be the innermost open span: a live sibling that
        // is not the top of the stack is rejected.
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
