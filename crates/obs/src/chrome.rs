//! Chrome `trace_event` export: renders a captured trace stream as a
//! JSON document loadable in `chrome://tracing` or Perfetto.
//!
//! The mapping follows the Trace Event Format's JSON object form
//! (`{"traceEvents": [...]}`):
//!
//! * the search is one track (`tid` 0, with a `thread_name` metadata
//!   event `search`) under one process `seminal`;
//! * span open/close pairs become `B`/`E` duration events;
//! * oracle probes become `X` complete events whose duration is the
//!   probe's latency, placed so the probe *ends* at its record
//!   timestamp;
//! * probe faults and prefix localizations become `i` instant events,
//!   which render as markers on the timeline.
//!
//! Timestamps are microseconds (the format's unit); the workspace JSON
//! layer is integer-only, so sub-microsecond structure rounds down.

use crate::json::Json;
use crate::trace::{EventKind, SpanKind, TraceRecord};

/// Renders `records` as a Chrome trace_event JSON document.
pub fn chrome_trace(records: &[TraceRecord]) -> Json {
    let mut events =
        vec![metadata_event("process_name", "seminal"), metadata_event("thread_name", "search")];
    for rec in records {
        match rec {
            TraceRecord::Open { kind, at_ns, .. } => {
                events.push(trace_event("B", &span_name(kind), "span", *at_ns / 1000, None));
            }
            TraceRecord::Close { at_ns, .. } => {
                // The E event's name is ignored by consumers (B/E pair
                // by nesting), but a stable one keeps the JSON readable.
                events.push(trace_event("E", "span", "span", *at_ns / 1000, None));
            }
            TraceRecord::Event { kind, at_ns, .. } => match kind {
                EventKind::OracleProbe { probe, faulted, latency_ns, outcome, .. } => {
                    events.push(probe_event(probe.metric_key(), *at_ns, *latency_ns, *outcome));
                    if *faulted {
                        events.push(trace_event("i", "fault", "fault", *at_ns / 1000, None));
                    }
                }
                EventKind::PrefixLocalized { .. } => {
                    events.push(trace_event(
                        "i",
                        "prefix-localized",
                        "analysis",
                        *at_ns / 1000,
                        None,
                    ));
                }
            },
        }
    }
    Json::Obj(vec![("traceEvents".to_owned(), Json::Arr(events))])
}

fn span_name(kind: &SpanKind) -> String {
    match kind {
        SpanKind::Descend { span } => format!("descend [{},{})", span.start, span.end),
        SpanKind::Triage { round } => format!("triage round {round}"),
        SpanKind::Request { id } => format!("request {id}"),
        other => other.tag().to_owned(),
    }
}

fn metadata_event(name: &str, value: &str) -> Json {
    Json::Obj(vec![
        ("ph".to_owned(), Json::Str("M".to_owned())),
        ("name".to_owned(), Json::Str(name.to_owned())),
        ("pid".to_owned(), Json::Num(1)),
        ("tid".to_owned(), Json::Num(0)),
        ("args".to_owned(), Json::Obj(vec![("name".to_owned(), Json::Str(value.to_owned()))])),
    ])
}

fn trace_event(ph: &str, name: &str, cat: &str, ts_us: u64, dur_us: Option<u64>) -> Json {
    let mut members = vec![
        ("ph".to_owned(), Json::Str(ph.to_owned())),
        ("name".to_owned(), Json::Str(name.to_owned())),
        ("cat".to_owned(), Json::Str(cat.to_owned())),
        ("pid".to_owned(), Json::Num(1)),
        ("tid".to_owned(), Json::Num(0)),
        ("ts".to_owned(), Json::Num(ts_us)),
    ];
    if let Some(dur) = dur_us {
        members.push(("dur".to_owned(), Json::Num(dur)));
    }
    if ph == "i" {
        // Thread-scoped instant markers.
        members.push(("s".to_owned(), Json::Str("t".to_owned())));
    }
    Json::Obj(members)
}

fn probe_event(name: &str, at_ns: u64, latency_ns: u64, outcome: bool) -> Json {
    // The record is stamped when the probe *finished*; back-date the X
    // event so its extent covers the time the oracle actually ran.
    let start_us = at_ns.saturating_sub(latency_ns) / 1000;
    let dur_us = latency_ns / 1000;
    let Json::Obj(mut members) = trace_event("X", name, "probe", start_us, Some(dur_us)) else {
        unreachable!("trace_event always builds an object");
    };
    members.push(("args".to_owned(), Json::Obj(vec![("outcome".to_owned(), Json::Bool(outcome))])));
    Json::Obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventKind, ProbeKind, SpanKind, SrcSpan, TraceRecord};

    fn sample_records() -> Vec<TraceRecord> {
        let probe = |faulted: bool, latency_ns| EventKind::OracleProbe {
            probe: ProbeKind::Removal,
            target: "x".to_owned(),
            span: SrcSpan::new(0, 1),
            outcome: !faulted,
            cached: false,
            faulted,
            latency_ns,
        };
        vec![
            TraceRecord::Open { id: 1, parent: None, kind: SpanKind::Search, thread: 0, at_ns: 0 },
            TraceRecord::Open {
                id: 2,
                parent: Some(1),
                kind: SpanKind::Descend { span: SrcSpan::new(0, 1) },
                thread: 0,
                at_ns: 2_000,
            },
            TraceRecord::Event { parent: 2, kind: probe(false, 4_000), thread: 0, at_ns: 8_000 },
            TraceRecord::Event { parent: 2, kind: probe(true, 3_000), thread: 0, at_ns: 9_000 },
            TraceRecord::Close { id: 2, thread: 0, at_ns: 10_000 },
            TraceRecord::Event { parent: 1, kind: probe(false, 1_000), thread: 0, at_ns: 11_000 },
            TraceRecord::Close { id: 1, thread: 0, at_ns: 12_000 },
        ]
    }

    fn events(json: &Json) -> &[Json] {
        match json.get("traceEvents") {
            Some(Json::Arr(items)) => items,
            _ => panic!("missing traceEvents array"),
        }
    }

    #[test]
    fn export_parses_and_names_its_one_track() {
        let json = chrome_trace(&sample_records());
        // The export must survive our own strict parser (and therefore
        // any JSON parser).
        let reparsed = crate::json::parse(&json.to_string_compact()).unwrap();
        let evs = events(&reparsed).to_vec();
        let names: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(names, ["seminal", "search"]);
        assert!(evs.iter().all(|e| e.get("tid").and_then(Json::as_num) == Some(0)));
    }

    #[test]
    fn spans_probes_and_instants_map_to_the_right_phases() {
        let json = chrome_trace(&sample_records());
        let evs = events(&json).to_vec();
        let count_ph = |ph: &str| {
            evs.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph)).count()
        };
        assert_eq!(count_ph("B"), 2, "search span plus one descent");
        assert_eq!(count_ph("E"), 2);
        assert_eq!(count_ph("X"), 3, "one complete event per probe");
        assert_eq!(count_ph("i"), 1, "one fault marker");
        // Probe X events are back-dated by their latency.
        let x: Vec<&Json> =
            evs.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(x[0].get("ts").and_then(Json::as_num), Some(4), "8000−4000 ns → 4 µs");
        assert_eq!(x[0].get("dur").and_then(Json::as_num), Some(4));
    }
}
