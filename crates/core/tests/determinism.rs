//! The search's determinism contract, as an executable specification:
//! repeated searches of one program report the same suggestions in the
//! same ranks, the trace satisfies the structural invariants, and the
//! probe accounting reconciles exactly with what reached the oracle —
//! with and without seeded fault injection.

use seminal_core::obs::{check_invariants, EventKind, TraceRecord};
use seminal_core::{Outcome, SearchConfig, SearchReport, SearchSession};
use seminal_ml::parser::parse_program;
use seminal_typeck::{ChaosConfig, CountingOracle, TypeCheckOracle};

const SCENARIOS: &[(&str, &str)] = &[
    (
        "figure2",
        "let map2 f aList bList = List.map (fun (a, b) -> f a b) (List.combine aList bList)\n\
         let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n\
         let ans = List.filter (fun x -> x == 0) lst\n",
    ),
    (
        "figure8",
        "let add str lst = if List.mem str lst then lst else str :: lst\n\
         let vList1 = [\"a\"]\n\
         let s = \"b\"\n\
         let r = add vList1 s\n",
    ),
    (
        "multi_error_triage",
        "let go () =\n\
         let x = 3 + true in\n\
         let a = 1 + 2 in\n\
         let b = a * 3 in\n\
         let c = 4 + \"hi\" in\n\
         b + c\n",
    ),
    (
        "figure4_match",
        "let f x y =\n\
         match (x, y) with\n\
           0, [] -> []\n\
         | n, [] -> n\n\
         | _, 5 -> 5 + \"hi\"\n",
    ),
    ("list_comma", "let total = List.fold_left (fun a b -> a + b) 0 [1, 2, 3]"),
    ("unbound_variable", "let f x = print x; x + 1"),
    ("missing_rec", "let fact n = if n = 0 then 1 else n * fact (n - 1)"),
];

fn run(src: &str) -> SearchReport {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}"));
    SearchSession::builder(TypeCheckOracle::new())
        .config(SearchConfig { collect_trace: true, ..SearchConfig::default() })
        .build()
        .unwrap()
        .search(&prog)
}

/// The full user-visible payload of a report: every suggestion in rank
/// order with the fields a message is rendered from.
fn payload(report: &SearchReport) -> Vec<(String, String, Option<String>, bool)> {
    report
        .suggestions()
        .iter()
        .map(|s| (s.original_str.clone(), s.replacement_str.clone(), s.new_type.clone(), s.triaged))
        .collect()
}

#[test]
fn suggestions_and_ranks_are_identical_across_runs() {
    for (name, src) in SCENARIOS {
        let (first, second) = (run(src), run(src));
        assert_eq!(payload(&first), payload(&second), "{name}: suggestion set or ranks changed");
        assert_eq!(
            std::mem::discriminant(&first.outcome),
            std::mem::discriminant(&second.outcome),
            "{name}: outcome changed"
        );
        assert_eq!(first.stats.oracle_calls, second.stats.oracle_calls, "{name}");
        assert_eq!(first.stats.triage_used, second.stats.triage_used, "{name}");
        assert_eq!(first.stats.first_bad_decl, second.stats.first_bad_decl, "{name}");
    }
}

#[test]
fn raw_oracle_calls_equal_the_reported_oracle_calls() {
    for (name, src) in SCENARIOS {
        let prog = parse_program(src).unwrap();
        let oracle = CountingOracle::new(TypeCheckOracle::new());
        let report = SearchSession::builder(&oracle).build().unwrap().search(&prog);
        assert_eq!(oracle.calls(), report.stats.oracle_calls, "{name}");
        assert_eq!(report.stats.logical_probes(), report.stats.oracle_calls, "{name}: no faults");
    }
}

#[test]
fn trace_invariants_hold_and_reconcile_with_the_stats() {
    for (name, src) in SCENARIOS {
        let report = run(src);
        check_invariants(&report.records).unwrap_or_else(|e| panic!("{name}: {e}"));
        // One probe event per oracle call, none of them cached.
        let probes: Vec<&EventKind> = report
            .records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Event { kind: k @ EventKind::OracleProbe { .. }, .. } => Some(k),
                _ => None,
            })
            .collect();
        assert_eq!(probes.len() as u64, report.stats.oracle_calls, "{name}");
        assert!(
            probes.iter().all(|k| matches!(k, EventKind::OracleProbe { cached: false, .. })),
            "{name}: a search answers no probe from a cache"
        );
        let latency = report.metrics.histograms.get("oracle.latency_ns").map_or(0, |h| h.count);
        assert_eq!(latency, report.stats.oracle_calls, "{name}: one latency per oracle call");
    }
}

#[test]
fn well_typed_input_costs_one_baseline_check() {
    let report = run("let x = 1 + 2\nlet y = x * 3\n");
    assert!(matches!(report.outcome, Outcome::WellTyped));
    assert_eq!(report.stats.oracle_calls, 1, "one baseline check");
}

#[test]
fn determinism_survives_seeded_fault_injection() {
    // Injections are keyed by program text, so repeated chaotic searches
    // fault on the same variants: payloads, completion status and the
    // probe accounting (`oracle_calls + probe_faults`) must all match,
    // and every probe event is either an oracle call or a fault.
    for (name, src) in SCENARIOS {
        let prog = parse_program(src).unwrap();
        let run = || {
            let config = SearchConfig { collect_trace: true, ..SearchConfig::default() };
            SearchSession::builder(TypeCheckOracle::new())
                .config(config)
                .chaos(ChaosConfig::panics(1729, 100))
                .build()
                .unwrap()
                .search(&prog)
        };
        let (first, second) = (run(), run());
        assert_eq!(payload(&first), payload(&second), "{name}: payload");
        assert_eq!(first.completion, second.completion, "{name}: completion");
        let count = |r: &SearchReport| (r.stats.oracle_calls, r.stats.probe_faults);
        assert_eq!(count(&first), count(&second), "{name}: probe accounting");
        let events = first
            .records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Event { kind: EventKind::OracleProbe { .. }, .. }))
            .count() as u64;
        assert_eq!(events, first.stats.logical_probes(), "{name}: one event per logical probe");
    }
}
