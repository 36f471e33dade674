//! Executable specification of the structured trace: nesting and
//! ordering invariants, exact reconciliation of probe events against
//! `SearchStats`, sink streaming, and the `elapsed`/`blame_time`/
//! `search_time` accounting.

use seminal_core::obs::{check_invariants, EventKind, MemorySink, TraceRecord, TraceSink};
use seminal_core::{SearchConfig, SearchSession, TypeCheckOracle};
use seminal_ml::parser::parse_program;
use std::sync::Arc;

const FIGURE2: &str =
    "let map2 f aList bList = List.map (fun (a, b) -> f a b) (List.combine aList bList)\n\
let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n\
let ans = List.filter (fun x -> x == 0) lst\n";

const FIGURE8: &str = "let rec add s vList1 =\n\
  match vList1 with\n\
  | [] -> []\n\
  | v :: rest -> (s + v) :: add s rest\n\
let inc = add [1;2;3] 1\n";

const MULTI_ERROR: &str = "let go () =\n\
  let x = 3 + true in\n\
  let c = 4 + \"hi\" in\n\
  x + c\n";

const WORKED_EXAMPLES: [&str; 3] = [FIGURE2, FIGURE8, MULTI_ERROR];

fn traced(src: &str, cfg: SearchConfig) -> seminal_core::SearchReport {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}"));
    let cfg = SearchConfig { collect_trace: true, ..cfg };
    SearchSession::builder(TypeCheckOracle::new()).config(cfg).build().unwrap().search(&prog)
}

/// Counts `(uncached, cached)` oracle-probe events.
fn probe_counts(records: &[TraceRecord]) -> (u64, u64) {
    let mut uncached = 0;
    let mut cached = 0;
    for rec in records {
        if let TraceRecord::Event { kind: EventKind::OracleProbe { cached: c, .. }, .. } = rec {
            if *c {
                cached += 1;
            } else {
                uncached += 1;
            }
        }
    }
    (uncached, cached)
}

#[test]
fn traces_satisfy_the_structural_invariants_on_worked_examples() {
    for src in WORKED_EXAMPLES {
        let report = traced(src, SearchConfig::default());
        assert!(!report.records.is_empty(), "trace captured");
        check_invariants(&report.records)
            .unwrap_or_else(|e| panic!("invariant violated on {src:?}: {e}"));
    }
}

#[test]
fn every_probe_event_has_a_live_parent_span() {
    // check_invariants enforces this; assert the precondition explicitly
    // so a weakened checker cannot silently pass.
    let report = traced(FIGURE2, SearchConfig::default());
    let mut open: Vec<u64> = Vec::new();
    for rec in &report.records {
        match rec {
            TraceRecord::Open { id, .. } => open.push(*id),
            TraceRecord::Close { id, .. } => {
                assert_eq!(open.pop(), Some(*id), "spans close LIFO");
            }
            TraceRecord::Event { parent, .. } => {
                assert!(open.contains(parent), "event parent {parent} not live");
            }
        }
    }
    assert!(open.is_empty(), "all spans closed by end of search");
}

#[test]
fn probe_events_reconcile_exactly_with_search_stats() {
    for src in WORKED_EXAMPLES {
        let report = traced(src, SearchConfig::default());
        let (uncached, cached) = probe_counts(&report.records);
        assert_eq!(
            uncached, report.stats.oracle_calls,
            "uncached probe events == oracle_calls on {src:?}"
        );
        assert_eq!(cached, 0, "a sequential search keeps no memo");
        assert_eq!(report.metrics.counter("oracle_calls"), report.stats.oracle_calls);
    }
}

#[test]
fn attached_sinks_stream_even_with_capture_off() {
    let prog = parse_program(FIGURE2).unwrap();
    let sink = Arc::new(MemorySink::new(1 << 16));
    let session = SearchSession::builder(TypeCheckOracle::new())
        .sink(sink.clone() as Arc<dyn TraceSink>)
        .build()
        .unwrap();
    let report = session.search(&prog);
    assert!(report.records.is_empty(), "collect_trace off: nothing in the report");
    let streamed = sink.drain();
    assert!(!streamed.is_empty(), "sink received the stream");
    check_invariants(&streamed).expect("streamed records are well-formed");
    let (uncached, _) = probe_counts(&streamed);
    assert_eq!(uncached, report.stats.oracle_calls);
}

#[test]
fn blame_time_is_a_disjoint_sub_interval_of_elapsed() {
    let prog = parse_program(FIGURE2).unwrap();
    let report = SearchSession::builder(TypeCheckOracle::new()).build().unwrap().search(&prog);
    let stats = &report.stats;
    assert!(stats.blame_time <= stats.elapsed, "blame pass happens inside the run");
    assert_eq!(
        stats.search_time(),
        stats.elapsed - stats.blame_time,
        "search_time is the remainder"
    );
    // Guidance off: no blame pass at all, so the two clocks coincide.
    let unguided = SearchSession::builder(TypeCheckOracle::new())
        .config(SearchConfig::without_blame_guidance())
        .build()
        .unwrap()
        .search(&prog);
    assert_eq!(unguided.stats.blame_time, std::time::Duration::ZERO);
    assert_eq!(unguided.stats.search_time(), unguided.stats.elapsed);
}

#[test]
fn metrics_snapshot_round_trips_through_the_strict_schema() {
    let report = traced(MULTI_ERROR, SearchConfig::default());
    let text = report.metrics.to_json_string();
    let back = seminal_core::obs::MetricsSnapshot::from_json_str(&text)
        .expect("searcher-produced snapshots are schema-valid");
    assert_eq!(back, report.metrics);
    assert!(report.metrics.counter("probes.removal") > 0, "per-family counters populated");
}

/// `rec` with its timestamp and probe latency zeroed: the parts of a
/// record that differ between two runs of the same search.
fn untimed(rec: &TraceRecord) -> TraceRecord {
    let mut rec = rec.clone();
    match &mut rec {
        TraceRecord::Open { at_ns, .. } | TraceRecord::Close { at_ns, .. } => *at_ns = 0,
        TraceRecord::Event { kind, at_ns, .. } => {
            *at_ns = 0;
            if let EventKind::OracleProbe { latency_ns, .. } = kind {
                *latency_ns = 0;
            }
        }
    }
    rec
}

#[test]
fn crash_tail_is_the_end_of_the_captured_trace() {
    // Unbounded, this sample makes 3,182 oracle calls; a cap of 2,000
    // stops it after far more than a crash tail's worth of records.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../samples/deadline_stress.ml");
    let prog = parse_program(&std::fs::read_to_string(path).unwrap()).unwrap();
    let run = |collect_trace| {
        let cfg = SearchConfig {
            max_oracle_calls: 2000,
            collect_trace,
            deadline: None,
            ..SearchConfig::default()
        };
        SearchSession::builder(TypeCheckOracle::new()).config(cfg).build().unwrap().search(&prog)
    };

    let captured = run(true);
    assert_eq!(captured.completion, seminal_core::Completion::BudgetExhausted);
    let crash = captured.crash.as_ref().expect("a budget stop writes a crash report");
    let all = &captured.records;
    assert!(all.len() > crash.records.len(), "the search outran the crash tail");
    assert_eq!(crash.records[..], all[all.len() - crash.records.len()..]);
    assert_eq!(crash.records_dropped + crash.records.len() as u64, all.len() as u64);

    let uncaptured = run(false);
    assert!(uncaptured.records.is_empty(), "collect_trace off: nothing in the report");
    let ring = uncaptured.crash.as_ref().expect("the ring runs without capture too");
    assert_eq!(ring.records_dropped, crash.records_dropped);
    let untimed_tail = |records: &[TraceRecord]| records.iter().map(untimed).collect::<Vec<_>>();
    assert_eq!(untimed_tail(&ring.records), untimed_tail(&crash.records));
}
