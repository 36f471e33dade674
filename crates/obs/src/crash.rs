//! Versioned crash reports: the post-mortem artifact a search dumps
//! when it ends abnormally.
//!
//! A [`CrashReport`] bundles everything needed to reconstruct a failed
//! or degraded search after the fact: why it was written (`reason`),
//! how the search completed, how many probes faulted, the final
//! metrics snapshot, and the tail of the trace stream the search's
//! [`crate::MemorySink`] ring preserved. The JSON encoding carries the
//! [`SCHEMA`] tag and the decoder rejects unknown fields, mirroring the
//! metrics-snapshot contract, so `seminal crash show` either replays an
//! artifact exactly or fails loudly.
//!
//! The record tail is a *ring*: its oldest spans may have had their
//! `Open` records overwritten, so consumers must not expect the tail to
//! pass the full stream invariants — it is evidence, not a complete
//! trace.

use crate::hash::fnv1a;
use crate::json::{parse, Json, JsonError};
use crate::metrics::MetricsSnapshot;
use crate::trace::TraceRecord;

/// The schema tag every crash report carries; bump the suffix on any
/// change to the layout.
pub const SCHEMA: &str = "seminal-obs/crash-v1";

/// A frozen post-mortem of one abnormal search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashReport {
    /// Human-readable trigger, e.g. `"2 probe faults"` or
    /// `"completion: deadline-expired"`.
    pub reason: String,
    /// The search's [`crate::Completion`] tag (`"complete"`,
    /// `"degraded"`, `"budget-exhausted"`, `"deadline-expired"`,
    /// `"cancelled"`).
    pub completion: String,
    /// Probes that panicked and were isolated to faults.
    pub probe_faults: u64,
    /// Always 1: a search runs its probes one after another. Kept so
    /// the `crash-v1` format keeps its shape.
    pub threads: u64,
    /// Trace records the search wrote before the tail (overwritten in
    /// its ring, or older than the tail's length).
    pub records_dropped: u64,
    /// The surviving trace tail, oldest first.
    pub records: Vec<TraceRecord>,
    /// The search's final metrics snapshot.
    pub metrics: MetricsSnapshot,
}

impl CrashReport {
    /// The report as a JSON value (schema [`SCHEMA`]).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_owned(), Json::Str(SCHEMA.to_owned())),
            ("reason".to_owned(), Json::Str(self.reason.clone())),
            ("completion".to_owned(), Json::Str(self.completion.clone())),
            ("probe_faults".to_owned(), Json::Num(self.probe_faults)),
            ("threads".to_owned(), Json::Num(self.threads)),
            ("records_dropped".to_owned(), Json::Num(self.records_dropped)),
            (
                "records".to_owned(),
                Json::Arr(self.records.iter().map(TraceRecord::to_json).collect()),
            ),
            ("metrics".to_owned(), self.metrics.to_json()),
        ])
    }

    /// Pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Decodes a report, rejecting unknown fields and any schema-tag
    /// mismatch.
    ///
    /// # Errors
    ///
    /// Schema-tag mismatch, unknown or missing fields, or wrong types.
    pub fn from_json(value: &Json) -> Result<CrashReport, JsonError> {
        let Json::Obj(members) = value else {
            return Err(JsonError("crash report must be an object".to_owned()));
        };
        let mut schema_seen = false;
        let mut reason = None;
        let mut completion = None;
        let mut probe_faults = None;
        let mut threads = None;
        let mut records_dropped = None;
        let mut records = None;
        let mut metrics = None;
        for (key, v) in members {
            match key.as_str() {
                "schema" => {
                    let tag =
                        v.as_str().ok_or_else(|| JsonError("schema must be a string".into()))?;
                    if tag != SCHEMA {
                        return Err(JsonError(format!(
                            "schema mismatch: expected `{SCHEMA}`, found `{tag}`"
                        )));
                    }
                    schema_seen = true;
                }
                "reason" => {
                    reason = Some(
                        v.as_str()
                            .ok_or_else(|| JsonError("reason must be a string".into()))?
                            .to_owned(),
                    );
                }
                "completion" => {
                    completion = Some(
                        v.as_str()
                            .ok_or_else(|| JsonError("completion must be a string".into()))?
                            .to_owned(),
                    );
                }
                "probe_faults" => {
                    probe_faults = Some(
                        v.as_num()
                            .ok_or_else(|| JsonError("probe_faults must be a number".into()))?,
                    );
                }
                "threads" => {
                    threads = Some(
                        v.as_num().ok_or_else(|| JsonError("threads must be a number".into()))?,
                    );
                }
                "records_dropped" => {
                    records_dropped = Some(
                        v.as_num()
                            .ok_or_else(|| JsonError("records_dropped must be a number".into()))?,
                    );
                }
                "records" => {
                    let Json::Arr(items) = v else {
                        return Err(JsonError("records must be an array".into()));
                    };
                    records = Some(
                        items
                            .iter()
                            .enumerate()
                            .map(|(i, item)| {
                                TraceRecord::from_json(item)
                                    .map_err(|e| JsonError(format!("record {i}: {e}")))
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    );
                }
                "metrics" => {
                    metrics = Some(MetricsSnapshot::from_json(v)?);
                }
                other => {
                    return Err(JsonError(format!("unknown crash-report field `{other}`")));
                }
            }
        }
        if !schema_seen {
            return Err(JsonError("missing `schema` field".into()));
        }
        Ok(CrashReport {
            reason: reason.ok_or_else(|| JsonError("missing `reason` field".into()))?,
            completion: completion.ok_or_else(|| JsonError("missing `completion` field".into()))?,
            probe_faults: probe_faults
                .ok_or_else(|| JsonError("missing `probe_faults` field".into()))?,
            threads: threads.ok_or_else(|| JsonError("missing `threads` field".into()))?,
            records_dropped: records_dropped
                .ok_or_else(|| JsonError("missing `records_dropped` field".into()))?,
            records: records.ok_or_else(|| JsonError("missing `records` field".into()))?,
            metrics: metrics.ok_or_else(|| JsonError("missing `metrics` field".into()))?,
        })
    }

    /// Parses a JSON document into a report (see [`Self::from_json`]).
    ///
    /// # Errors
    ///
    /// Parse errors or schema violations.
    pub fn from_json_str(text: &str) -> Result<CrashReport, JsonError> {
        CrashReport::from_json(&parse(text)?)
    }

    /// The content-addressed file name the CLI writes the report under:
    /// `seminal-crash-<fnv64-of-contents>.json`. Stable for identical
    /// reports, distinct for different ones.
    pub fn file_name(&self) -> String {
        let body = self.to_json().to_string_compact();
        format!("seminal-crash-{:016x}.json", fnv1a(body.as_bytes()))
    }
}

/// How the message of every deliberately injected panic starts (the
/// Caml probe guards' and the C++ search's fault injection alike), so a
/// panic hook can tell an injected fault from a real one.
pub const INJECTED_PANIC: &str = "chaos:";

/// Installs, once per process, a panic hook that drops panics whose
/// message starts with [`INJECTED_PANIC`] and forwards every other
/// panic to the hook it replaced. Runs that inject panics on purpose
/// call it, so the expected faults do not flood stderr while a real
/// bug's panic still prints.
pub fn silence_injected_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let forward = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if !message.is_some_and(|m| m.starts_with(INJECTED_PANIC)) {
                forward(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::trace::{EventKind, ProbeKind, SpanKind, SrcSpan, TraceRecord};

    fn report() -> CrashReport {
        let reg = MetricsRegistry::new();
        reg.add("oracle_calls", 17);
        reg.add("probe_faults", 2);
        reg.observe("oracle.latency_ns", 1234);
        CrashReport {
            reason: "2 probe faults".to_owned(),
            completion: "degraded".to_owned(),
            probe_faults: 2,
            threads: 1,
            records_dropped: 5,
            records: vec![
                TraceRecord::Open {
                    id: 1,
                    parent: None,
                    kind: SpanKind::Search,
                    thread: 0,
                    at_ns: 0,
                },
                TraceRecord::Event {
                    parent: 1,
                    kind: EventKind::OracleProbe {
                        probe: ProbeKind::Removal,
                        target: "x".to_owned(),
                        span: SrcSpan::new(0, 1),
                        outcome: false,
                        cached: false,
                        faulted: true,
                        latency_ns: 99,
                    },
                    thread: 0,
                    at_ns: 10,
                },
                TraceRecord::Close { id: 1, thread: 0, at_ns: 20 },
            ],
            metrics: reg.snapshot(),
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let rep = report();
        let text = rep.to_json_string();
        let back = CrashReport::from_json_str(&text).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.to_json_string(), text, "serialization is canonical");
    }

    #[test]
    fn decoder_rejects_tampering() {
        let good = report().to_json_string();
        // Unknown top-level field.
        let bad = good.replacen("\"reason\"", "\"surprise\": 1, \"reason\"", 1);
        assert!(CrashReport::from_json_str(&bad).is_err());
        // Wrong schema tag.
        let bad = good.replace(SCHEMA, "seminal-obs/crash-v999");
        assert!(CrashReport::from_json_str(&bad).is_err());
        // Missing required field.
        let bad = good.replacen("\"probe_faults\": 2,", "", 1);
        assert!(CrashReport::from_json_str(&bad).is_err());
        // A corrupted record inside the tail.
        let bad = good.replacen("\"t\": \"open\"", "\"t\": \"nonsense\"", 1);
        assert!(CrashReport::from_json_str(&bad).is_err());
    }

    #[test]
    fn file_name_is_content_addressed() {
        let a = report();
        let mut b = report();
        assert_eq!(a.file_name(), b.file_name());
        assert!(a.file_name().starts_with("seminal-crash-"));
        assert!(a.file_name().ends_with(".json"));
        b.probe_faults = 3;
        assert_ne!(a.file_name(), b.file_name());
    }
}
